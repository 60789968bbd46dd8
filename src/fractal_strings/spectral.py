"""Dirichlet spectrum of a fractal string: counting function, Weyl term,
packing defect and the zeta-side constants of the second asymptotic term.

For an interval of length l the eigenvalues are (pi k / l)^2, so
N(lambda) = sum_j floor(l_j x) with x = sqrt(lambda)/pi, and
phi(lambda) - N(lambda) = delta(x) = sum_j {l_j x} holds exactly.

Floors are exact for the stored float lengths: where p = fl(l_j x) is an
integer, the exact split l_j x = p + e (Dekker's TwoProduct with Veltkamp's
splitting) decides which side of p the product lies on, and N is a Python
int however large.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .gauge import DerivedFunctions
from .strings import FractalString

_SPLITTER = 2.0 ** 27 + 1.0  # Veltkamp: a double splits into two 26-bit halves


def _split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _product_error(a, b):
    """e with a*b = fl(a*b) + e exactly (Dekker's TwoProduct)."""
    ah, al = _split(a)
    bh, bl = _split(b)
    return ((ah * bh - a * b) + ah * bl + al * bh) + al * bl


def _head(string: FractalString, x: float):
    """(N, sum of {l_j x} over the head, number of head lengths) from one
    runs_above(eps).

    eps lies just below 1/x, so the head holds every length whose exact
    product with x reaches 1; a length left out has floor(l_j x) = 0 and
    {l_j x} = l_j x.  floor(p) of p = fl(l_j x) is exact unless p is an
    integer, where the rounding may have crossed it; there p + floor(e) is.
    """
    eps = (1.0 / x) * (1.0 - 2.0 ** -50)
    vals, mult = string.runs_above(eps)
    fracs = vals * x
    floors = np.floor(fracs)
    fracs -= floors
    at = np.flatnonzero(fracs == 0.0)
    err = _product_error(vals[at], x)
    err_floors = np.floor(err)
    fracs[at] = err - err_floors
    weights = np.asarray(mult, dtype=float)
    # einsum, not BLAS dot: a threaded dot spins its idle threads on long
    # heads, and einsum forms no product array
    n = float(np.einsum("i,i->", weights, floors))
    if n < 2.0 ** 53:
        # non-negative integer terms below 2^53: every partial sum is exact
        n = int(n + np.einsum("i,i->", weights[at], err_floors))
    else:
        n = (sum(int(m) * int(f) for m, f in zip(mult.tolist(), floors.tolist()))
             + sum(int(m) * int(d)
                   for m, d in zip(mult[at].tolist(), err_floors.tolist())))
    return n, math.fsum(weights * fracs), int(mult.sum())


def eigen_count(string: FractalString, lam: float) -> int:
    """N(lambda) = sum_j floor(l_j sqrt(lambda)/pi), as an exact int."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return _head(string, math.sqrt(lam) / math.pi)[0]


def weyl_term(string: FractalString, lam: float) -> float:
    """phi(lambda) = |Omega| sqrt(lambda) / pi (one-dimensional Weyl term)."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return string.total_length() * math.sqrt(lam) / math.pi


def packing_defect(string: FractalString, x: float) -> float:
    """delta(x) = sum_j {l_j x}, split into head fractional parts and an
    exact tail x * sum_{j > J(eps)} l_j, eps just below 1/x."""
    if x <= 0:
        raise ValueError("x must be positive")
    _, head, j = _head(string, x)
    return head + x * string.tail_sum_beyond_index(j)


def spectral_point(string: FractalString, lam: float) -> Tuple[int, float, float]:
    """(N(lambda), phi(lambda), delta(sqrt(lambda)/pi)) from one head."""
    phi = weyl_term(string, lam)
    x = math.sqrt(lam) / math.pi
    n, head, j = _head(string, x)
    return n, phi, head + x * string.tail_sum_beyond_index(j)


def remainder_identity_check(string: FractalString, lam_set: Iterable[float]) -> float:
    """max over lambda of |(phi - N) - delta(sqrt(lambda)/pi)|."""
    worst = 0.0
    for lam in lam_set:
        n, phi, delta = spectral_point(string, lam)
        worst = max(worst, abs((phi - n) - delta))
    return worst


# -- zeta on the critical segment ------------------------------------------


def zeta(s: float) -> float:
    """zeta(s) for s in (0,1) via the accelerated alternating eta series.

    Cohen-Rodriguez Villegas-Zagier acceleration of
    eta(s) = sum (-1)^(n+1) n^-s, then zeta = eta / (1 - 2^(1-s)).
    """
    if not 0.0 < s < 1.0:
        raise ValueError("zeta is only provided on (0, 1)")
    return eta(s) / (1.0 - 2.0 ** (1.0 - s))


def eta(s: float) -> float:
    """Dirichlet eta via Cohen-Rodriguez Villegas-Zagier acceleration."""
    n = 48
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    s_acc = 0.0
    for k in range(n):
        c = b - c
        s_acc += c / (k + 1) ** s
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1.0))
    return s_acc / d


def w_k(s: float, k: int) -> float:
    """w_k(s) = int_1^k (t^-s - floor(t)^-s) dt in closed form.

    As k -> infinity, w_k(s) + 1/(1-s) -> -zeta(s).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    q = np.arange(1, k, dtype=float)
    partial = float(np.sum(q ** -s))
    return -1.0 / (1.0 - s) + k ** (1.0 - s) / (1.0 - s) - partial


def zeta_from_wk(s: float, k: int) -> float:
    """Extrapolate zeta(s) from w_k using the k^-s/2 - s k^-s-1/12 correction."""
    return -(w_k(s, k) + 1.0 / (1.0 - s) - k ** -s / 2.0 + s * k ** (-s - 1.0) / 12.0)


@dataclass(frozen=True)
class ZetaContext:
    """Constants tying the measurable second term to the zeta function."""

    D: float
    L: float = 1.0

    @property
    def zeta_D(self) -> float:
        return zeta(self.D)

    @property
    def c1D(self) -> float:
        return 2.0 ** (self.D - 1.0) * math.pi ** -self.D * (1.0 - self.D) * (-self.zeta_D)

    @property
    def content(self) -> float:
        """M = 2^(1-D) L^D / (1-D), the measurable content for constant L."""
        return 2.0 ** (1.0 - self.D) * self.L ** self.D / (1.0 - self.D)

    @property
    def target_remainder(self) -> float:
        """Limit of (phi - N)/f(sqrt(lambda)): pi^-D (-zeta(D)) L^D."""
        return math.pi ** -self.D * (-self.zeta_D) * self.L ** self.D

    @property
    def target_delta_ratio(self) -> float:
        """Limit of delta(x)/f(x): (-zeta(D)) L^D."""
        return (-self.zeta_D) * self.L ** self.D

    def identity_residual(self) -> float:
        """Relative defect of c1D * M == pi^-D (-zeta(D)) L^D (algebraic)."""
        lhs = self.c1D * self.content
        rhs = self.target_remainder
        return abs(lhs - rhs) / abs(rhs)


# -- second-term probing ----------------------------------------------------


@dataclass(frozen=True)
class SpectralRecord:
    lam: float
    N: int
    phi: float
    delta_at: float          # delta(sqrt(lambda)/pi)
    f_norm: float            # f(sqrt(lambda))
    remainder_ratio: float   # (phi - N)/f(sqrt(lambda))
    delta_ratio: float       # delta(x)/f(x) at x = sqrt(lambda)/pi

    def to_json(self) -> dict:
        return {"lambda": self.lam, "N": self.N, "phi": self.phi,
                "delta": self.delta_at, "f": self.f_norm,
                "remainder_ratio": self.remainder_ratio,
                "delta_ratio": self.delta_ratio}


def second_term_probe(string: FractalString, derived: DerivedFunctions,
                      lam_grid: Sequence[float]) -> List[SpectralRecord]:
    """Per-lambda remainder and packing-defect ratios against f."""
    records = []
    for lam in sorted(lam_grid):
        sq = math.sqrt(lam)
        x = sq / math.pi
        if min(sq, x) < derived.valid_from:
            continue  # f undefined this far down
        n, phi, delta = spectral_point(string, lam)
        f_sq = derived.f(sq)
        f_x = derived.f(x)
        records.append(SpectralRecord(
            lam=float(lam), N=n, phi=phi, delta_at=delta, f_norm=f_sq,
            remainder_ratio=(phi - n) / f_sq,
            delta_ratio=delta / f_x))
    return records


def records_to_csv(records: Sequence[SpectralRecord]) -> str:
    buf = io.StringIO()
    buf.write("lambda,N,phi,delta,f,remainder_ratio,delta_ratio\n")
    for r in records:
        buf.write("%.15g,%d,%.15g,%.15g,%.15g,%.15g,%.15g\n"
                  % (r.lam, r.N, r.phi, r.delta_at, r.f_norm, r.remainder_ratio,
                     r.delta_ratio))
    return buf.getvalue()

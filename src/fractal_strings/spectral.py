"""Dirichlet spectrum of a fractal string: counting function, Weyl term,
packing defect and the zeta-side constants of the second asymptotic term.

For an interval of length l the eigenvalues are (pi k / l)^2, so
N(lambda) = sum_j floor(l_j x) with x = sqrt(lambda)/pi, and
phi(lambda) - N(lambda) = delta(x) = sum_j {l_j x} holds exactly.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from .errors import DomainError
from .gauge import DerivedFunctions
from .strings import FractalString

_MAX_COUNT = 2 ** 62


def _precision_mode() -> str:
    mode = os.environ.get("FSTRING_PRECISION", "double")
    if mode not in ("double", "extended"):
        raise ValueError("FSTRING_PRECISION must be 'double' or 'extended'")
    return mode


def _floor_frac(vals: np.ndarray, x: float):
    """(floor(l*x), {l*x}) per length, honoring the precision mode."""
    if _precision_mode() == "extended":
        import mpmath

        with mpmath.workdps(40):
            mx = mpmath.mpf(x)
            floors = np.empty(vals.size)
            fracs = np.empty(vals.size)
            for i, v in enumerate(vals):
                p = mpmath.mpf(float(v)) * mx
                fl = mpmath.floor(p)
                floors[i] = float(fl)
                fracs[i] = float(p - fl)
            return floors, fracs
    prod = vals * x
    floors = np.floor(prod)
    return floors, prod - floors


def eigen_count(string: FractalString, lam: float) -> int:
    """N(lambda) = sum_j floor(l_j sqrt(lambda)/pi)."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    x = math.sqrt(lam) / math.pi
    vals, mult = string.runs_above(1.0 / x)
    floors, _ = _floor_frac(vals, x)
    n = math.fsum(mult * floors)
    # lengths exactly equal to 1/x are excluded by the strict count but can
    # still carry an integer part of l*x
    ties = string.multiplicity_at(1.0 / x)
    if ties:
        n += ties * math.floor((1.0 / x) * x)
    if n > _MAX_COUNT:
        raise OverflowError("eigenvalue count overflows")
    return int(round(n))


def weyl_term(string: FractalString, lam: float) -> float:
    """phi(lambda) = |Omega| sqrt(lambda) / pi (one-dimensional Weyl term)."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return string.total_length() * math.sqrt(lam) / math.pi


def packing_defect(string: FractalString, x: float) -> float:
    """delta(x) = sum_j {l_j x}, split into head fractional parts and an
    exact tail x * sum_{j > J(1/x)} l_j."""
    if x <= 0:
        raise ValueError("x must be positive")
    eps = 1.0 / x
    vals, mult = string.runs_above(eps)
    _, fracs = _floor_frac(vals, x)
    head = math.fsum(mult * fracs)
    tail = x * string.tail_sum_beyond(eps)
    # ties l_j = 1/x sit in the tail sum but only their fractional part counts
    ties = string.multiplicity_at(eps)
    if ties:
        tail -= ties * math.floor(eps * x)
    return head + tail


def remainder_identity_check(string: FractalString, lam_set: Iterable[float]) -> float:
    """max over lambda of |(phi - N) - delta(sqrt(lambda)/pi)|."""
    worst = 0.0
    for lam in lam_set:
        x = math.sqrt(lam) / math.pi
        resid = abs((weyl_term(string, lam) - eigen_count(string, lam))
                    - packing_defect(string, x))
        worst = max(worst, resid)
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
        n = eigen_count(string, lam)
        phi = weyl_term(string, lam)
        delta = packing_defect(string, x)
        f_sq = derived.f(sq)
        f_x = derived.f(x)
        records.append(SpectralRecord(
            lam=float(lam), N=n, phi=phi, delta_at=delta, f_norm=f_sq,
            remainder_ratio=(phi - n) / f_sq,
            delta_ratio=delta / f_x))
    return records


def records_to_csv(records: Sequence[SpectralRecord]) -> str:
    buf = io.StringIO()
    buf.write("lambda,N,phi,delta,f,remainder_ratio\n")
    for r in records:
        buf.write("%.15g,%d,%.15g,%.15g,%.15g,%.15g\n"
                  % (r.lam, r.N, r.phi, r.delta_at, r.f_norm, r.remainder_ratio))
    return buf.getvalue()

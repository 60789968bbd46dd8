"""Dirichlet spectrum of a fractal string: counting function, Weyl term,
packing defect and the zeta-side constants of the second asymptotic term.

For an interval of length l the eigenvalues are (pi k / l)^2, so
N(lambda) = sum_j floor(l_j x) with x = sqrt(lambda)/pi, and
phi(lambda) - N(lambda) = delta(x) = sum_j {l_j x} holds exactly.

Floors are exact for the stored float lengths: where p = fl(l_j x) is an
integer, the exact split l_j x = p + e (Dekker's TwoProduct with Veltkamp's
splitting) decides which side of p the product lies on, and N is a Python
int however large.  A unit-weight head's fraction sum is exact before its
one rounding (see ``_unit_fraction_sum``).  Each string keeps its last
x and that head's (N, head part of delta, j), so ``eigen_count`` and
``packing_defect`` at one x read the head once.

Two kernels take the head, the J(1/x) lengths with l_j x >= 1.  The direct
kernel floors every head product, as run-length heads (at most ``depth``
blocks) always do.  A longer unit-weight head may take Dirichlet's
hyperbola method instead (Tenenbaum, Introduction to Analytic and
Probabilistic Number Theory, I.3.2).  With c_k = #{j : x l_j >= k}, exact
from one ``J`` call on k/x, any K1 >= 0 and any j1 past which no length
reaches K1 + 1,

    N = sum_(j <= j1) floor(x l_j) + S,   S = sum_(k <= K1) max(c_k - j1, 0),
    delta(x) = sum_(j <= j1) {x l_j} + x tail(j1) - S.

``_plan`` picks K1 and j1 from the string and x alone.  Where every length
is stored, a head past _DIRECT_MAX = 2^15 takes K1 = min(floor(x^(1/3) /
_COUNT_COST), floor(head^(2/3))), a count costing about _COUNT_COST direct
lengths, and j1 = c_(K1+1).  An analytic string splits where it already
holds lengths and tail: a head of 512 to 2^15 lengths at j1 = _SEED = 511
(a profile's seed) if K1 = floor(x l_511) <= floor(head^(2/3)), else it
stays direct; a longer one at j1 = P = 2^15 if K1 = floor(x l_(P+1)) <=
min(floor(x^(1/3)), floor(head^(2/3))), sharing tail(P), kept once per
string, else with K1 that minimum and j1 = c_(K1+1), about x^(2D/3) for
l_j ~ j^(-1/D).  N is the direct kernel's int; delta is formed apart from
N, so phi - N = delta stays a check.  x tail(j1) and S each exceed delta
by about K1^(1-D), x^((1-D)/3) at K1 = x^(1/3), and their rounding and
quadrature errors with them: a split's delta lies within 2^-47 (x tail(j1)
+ S + delta) of the direct kernel's (5.6e-13 relative on profile_log_D0.3
at lambda = 1e30, where x tail(j1) = 214 delta).  Over a lambda grid,
``spectral_points`` takes one ``J`` call for the heads, one for the counts
of every split, one products pass over the direct parts of up to 2^15
lengths, and one ``tail_sum_beyond_index`` call.
"""

from __future__ import annotations

import io
import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

import numpy as np

from .gauge import DerivedFunctions
from .strings import _SEED, FractalString

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


# a unit-weight head's fractions are scaled by _LIMB and summed in limbs,
# _SLICE lengths at a time (see _unit_fraction_sum)
_LIMB = 2.0 ** 27
_SLICE = 1 << 26
# a unit-weight head longer than this takes the hyperbola kernel
_DIRECT_MAX = 2 ** 15
# a count over stored lengths costs about as many direct lengths (80 against
# 4.5 ns): the 10^5-length explicit head at lambda = 1e22 takes about 480 us
# direct, 455 us at K1 = x^(1/3), 110-180 at x^(1/3)/8 and 100-150 at
# x^(1/3)/16 (Python 3.11, numpy 2.4, shared 2-core x86-64)
_COUNT_COST = 16
_BELOW = 1.0 - 2.0 ** -50  # a head holds the lengths above (1/x) * _BELOW
_NO_TIES = np.empty(0)  # the e of a head whose products miss every integer


def _products(vals: np.ndarray, x: float):
    """(p, floor(p), tie indices, floor(e) and e - floor(e) at the ties)
    for the lengths vals and x, a float or an array of vals' shape:
    p = fl(l_j x), and e with l_j x = p + e exactly where p is an integer.
    A head without ties forms no e.

    floor(p) is exact unless p is an integer, where the rounding may have
    crossed it; there p + floor(e) is.
    """
    p = vals * x
    floors = np.floor(p)
    at = (p == floors).nonzero()[0]
    err = _product_error(vals[at], x[at] if np.ndim(x) else x) if at.size else _NO_TIES
    err_floors = np.floor(err) if at.size else _NO_TIES
    return p, floors, at, err_floors, err - err_floors


def _count(mult, floors, at, err_floors) -> int:
    """N = sum_j m_j floor(l_j x) as an exact int, err_floors correcting
    the ties."""
    if mult is None:
        n = float(np.add.reduce(floors))
        if n < 2.0 ** 53:
            # non-negative integer terms below 2^53: every partial sum is exact
            return int(n + np.add.reduce(err_floors)) if at.size else int(n)
        return sum(map(int, floors.tolist())) + int(np.add.reduce(err_floors))
    # Python-int multiplicities, at most depth blocks
    return (sum(m * int(f) for m, f in zip(mult.tolist(), floors.tolist()))
            + sum(m * int(d) for m, d in zip(mult[at].tolist(), err_floors.tolist())))


def _unit_fraction_sum(fracs, floors, ties) -> float:
    """math.fsum of fracs (0 at the ties) and ties, bit for bit, with
    fracs and floors overwritten.

    Every head product p that is not an integer exceeds 1 - 2^-49 > 1/2,
    so p - floor(p) is a multiple of 2^-53 in [0, 1).  Scaled by 2^27 it
    splits exactly into an integer limb below 2^27 and a multiple of 2^-26
    below 1.  A sum over up to 2^26 of either limb never rounds: the
    totals stay below 2^53, and below 2^52 units of 2^-26.  One fsum over
    the limb totals and the tie fractions then equals fsum over all the
    fractions.
    """
    fracs *= _LIMB
    np.floor(fracs, out=floors)
    fracs -= floors
    parts = (floors, fracs) if fracs.size <= _SLICE else [
        part[lo:lo + _SLICE] for part in (floors, fracs) for lo in range(0, fracs.size, _SLICE)]
    limbs = [float(np.add.reduce(part)) / _LIMB for part in parts]
    return math.fsum(limbs + ties.tolist() if ties.size else limbs)


def _direct(vals: np.ndarray, mult, x: float):
    """(N, sum of {l_j x}, number of lengths) over the lengths vals with
    multiplicities mult (None for unit weights).

    A run-length head has Python-int multiplicities and at most ``depth``
    blocks: it keeps the weighted fsum, over Python floats.  A unit-weight
    head sums its fractions in exact limbs.
    """
    fracs, floors, at, err_floors, ties = _products(vals, x)
    n = _count(mult, floors, at, err_floors)
    fracs -= floors
    if mult is None:
        return n, _unit_fraction_sum(fracs, floors, ties), fracs.size
    fracs[at] = ties
    return n, math.fsum((mult.astype(float) * fracs).tolist()), sum(mult.tolist())


def _reaches(lengths, x, k):
    """x l >= k exactly, for lengths l, integers k and x (arrays of one
    shape, or floats); the exact product error is formed only where
    fl(x l) = k."""
    p = np.asarray(lengths) * x
    reach = np.asarray(p > k)
    at = np.flatnonzero(p == k)
    if at.size:
        xs = x[at] if np.ndim(x) else x
        reach.flat[at] = _product_error(np.ravel(lengths)[at], xs) >= 0.0
    return reach


def _counts_reaching(string: FractalString, x, k: np.ndarray) -> np.ndarray:
    """c_k = #{j : x l_j >= k} for an array of integers k and x, a float
    or an array of k's shape, as int64.

    No double lies strictly between k/x and q = fl(k/x), so a length
    reaches k exactly when it is above q, or equal to q where x q >= k.
    c_k is then J just below q or J(q): one J call, exact wherever J is.
    """
    q = k / x
    return string.J(np.where(_reaches(q, x, k), np.nextafter(q, 0.0), q)).astype(np.int64)


def _direct_pass(lengths: np.ndarray, xs: List[float], js: List[int]):
    """[_direct(lengths[:j], None, x) for each x and j <= _DIRECT_MAX],
    bit for bit, from one products and floors pass over all the heads.

    np.add.reduceat sums each head's floors and limbs exactly, as _count
    and _unit_fraction_sum do, and its fsum takes its tie fractions; a
    head whose floors reach 2^53 is read again by _direct.
    """
    live = [i for i, j in enumerate(js) if j]
    if len(live) < 2:
        return [_direct(lengths[:j], None, x) if j else (0, 0.0, 0) for x, j in zip(xs, js)]
    sizes = [js[i] for i in live]
    starts = np.cumsum([0] + sizes[:-1])
    fracs, floors, at, err_floors, ties = _products(
        np.concatenate([lengths[:j] for j in sizes]), np.repeat([xs[i] for i in live], sizes))
    counts = np.add.reduceat(floors, starts).tolist()
    exact = [n < 2.0 ** 53 for n in counts]
    fracs -= floors
    fracs *= _LIMB
    np.floor(fracs, out=floors)
    fracs -= floors
    limbs = (np.add.reduceat(np.stack((floors, fracs), axis=1), starts) / _LIMB).tolist()
    for s, d, t in zip(np.searchsorted(starts, at, side="right").tolist(),
                       err_floors.tolist(), ties.tolist()):
        counts[s - 1] += d
        limbs[s - 1].append(t)
    heads = [(0, 0.0, 0)] * len(xs)
    for s, i in enumerate(live):
        heads[i] = ((int(counts[s]), math.fsum(limbs[s]), js[i]) if exact[s]
                    else _direct(lengths[:js[i]], None, xs[i]))
    return heads


def _plan(string: FractalString, x: float, head: int):
    """(K1, j1) of the hyperbola method (see the module docstring) for a
    unit-weight head of ``head`` lengths at x: (0, head) for a direct head,
    and j1 None where c_(K1+1) sets it."""
    stored = string.count() is not None
    if head <= (_DIRECT_MAX if stored else _SEED):
        return 0, head
    K1 = int(head ** (2.0 / 3.0))
    if stored:
        # every length is stored, and a count is one searchsorted
        return min(K1, int(x ** (1.0 / 3.0) / _COUNT_COST)), None
    if head <= _DIRECT_MAX:
        cap = int(x * string.head(_SEED)[-1])
        return (cap, _SEED) if cap <= K1 else (0, head)
    cap, K1 = int(x * string.head(_DIRECT_MAX + 1)[-1]), min(K1, int(x ** (1.0 / 3.0)))
    # where cap binds, no length past the stored prefix reaches cap + 1
    return (cap, _DIRECT_MAX) if cap <= K1 else (K1, None)


def _over(c: np.ndarray, j1):
    """(j1, S) of a head split by ``_plan``, from its counts c_1 .. c_K1,
    with c_(K1+1) last where j1 is None and sets it."""
    if j1 is None:
        j1, c = int(c[-1]), c[:-1]
    return j1, sum(np.maximum(c - j1, 0).tolist())


def _joined(direct, j1: int, s: int):
    """(N, head part of delta, j1) from the direct head of j1 lengths and S."""
    n, fracs, _ = direct
    return n + s, math.fsum((fracs, -s)), j1


def _head(string: FractalString, x: float, j: int):
    """The head of one x whose head holds j lengths, by ``_plan``."""
    K1, j1 = _plan(string, x, j)
    if j1 == j:
        return _direct(string.head(j), None, x)
    j1, s = _over(_counts_reaching(string, x, np.arange(1.0, K1 + 1.0 + (j1 is None))), j1)
    return _joined(_direct(string.head(j1), None, x), j1, s)


def _heads(string: FractalString, xs: List[float]):
    """[(N, head part of delta(x), j)] for each x in xs, delta(x) = head
    part + x * tail_sum_beyond_index(j).

    The head holds the lengths above eps, just below 1/x: every length
    whose exact product with x reaches 1.  A length left out has
    floor(l_j x) = 0 and {l_j x} = l_j x.  A run-length head is one
    runs_above slice.  A unit-weight grid takes one J call for its heads,
    one for the counts c_k of every head that ``_plan`` splits, and one
    direct pass over their direct parts of up to _DIRECT_MAX lengths; one
    x takes ``_head``.
    """
    eps = [(1.0 / x) * _BELOW for x in xs]
    if not string.unit_weight:
        return [_direct(*string.runs_above(e), x) for e, x in zip(eps, xs)]
    js = string.J(eps).tolist()
    if len(xs) == 1:
        # one x, as eigen_count and packing_defect read it: no grid bookkeeping
        return [_head(string, xs[0], js[0])]
    plans = [_plan(string, x, j) for x, j in zip(xs, js)]
    if [j1 for _, j1 in plans] == js:
        return _direct_pass(string.head(max(js, default=0)), xs, js)
    sizes = [K1 + (j1 is None) for K1, j1 in plans]
    c = _counts_reaching(string, np.repeat(xs, sizes),
                         np.concatenate([np.arange(1.0, n + 1.0) for n in sizes]))
    ends = np.cumsum(sizes).tolist()
    splits = [_over(c[end - n:end], j1) for (_, j1), n, end in zip(plans, sizes, ends)]
    short = [j1 if j1 <= _DIRECT_MAX else 0 for j1, _ in splits]
    heads = _direct_pass(string.head(max(short)), xs, short)
    return [_joined(head if j1 <= _DIRECT_MAX else _direct(string.head(j1), None, x), j1, s)
            for x, head, (j1, s) in zip(xs, heads, splits)]


# each live string's last x and its head: string -> (x, (N, head part, j))
_LAST = weakref.WeakKeyDictionary()
# each live profile's tail beyond _DIRECT_MAX, the tail of every head split there
_SPLIT_TAIL = weakref.WeakKeyDictionary()


def _head_at(string: FractalString, x: float):
    """_heads(string, [x])[0], read again only when x is not the string's
    last x."""
    last = _LAST.get(string)
    if last is None or last[0] != x:
        last = _LAST[string] = (x, _heads(string, [x])[0])
    return last[1]


def _tail(string: FractalString, j: int) -> float:
    """string.tail_sum_beyond_index(j), read once per string at _DIRECT_MAX."""
    if j != _DIRECT_MAX:
        return string.tail_sum_beyond_index(j)
    if string not in _SPLIT_TAIL:
        _SPLIT_TAIL[string] = string.tail_sum_beyond_index(j)
    return _SPLIT_TAIL[string]


def _positive(value: float, name: str) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError("%s must be a positive finite number" % name)


def eigen_count(string: FractalString, lam: float) -> int:
    """N(lambda) = sum_j floor(l_j sqrt(lambda)/pi), as an exact int; the
    head is kept for a packing_defect at x = sqrt(lambda)/pi."""
    _positive(lam, "lambda")
    return _head_at(string, math.sqrt(lam) / math.pi)[0]


def weyl_term(string: FractalString, lam: float) -> float:
    """phi(lambda) = |Omega| sqrt(lambda) / pi (one-dimensional Weyl term)."""
    _positive(lam, "lambda")
    return string.total_length() * math.sqrt(lam) / math.pi


def packing_defect(string: FractalString, x: float) -> float:
    """delta(x) = sum_j {l_j x}: the head part and an exact tail
    x * sum_{j > j_head} l_j; the head of the eigen_count before it at
    the same x is not read again."""
    _positive(x, "x")
    _, head, j = _head_at(string, x)
    return head + x * _tail(string, j)


def spectral_points(string: FractalString,
                    lams: Sequence[float]) -> List[Tuple[int, float, float]]:
    """(N(lambda), phi(lambda), delta(sqrt(lambda)/pi)) for each lambda, in
    order, from one head read and one tail call."""
    for lam in lams:
        _positive(lam, "lambda")
    xs = [math.sqrt(lam) / math.pi for lam in lams]
    heads = _heads(string, xs)
    tails = string.tail_sum_beyond_index([j for _, _, j in heads]).tolist()
    total = string.total_length()
    return [(n, total * math.sqrt(lam) / math.pi, head + x * tail)
            for lam, x, (n, head, _), tail in zip(lams, xs, heads, tails)]


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

    @cached_property
    def zeta_D(self) -> float:
        """zeta(D), evaluated once per context."""
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


def _lambdas(lam_grid: Sequence[float]) -> np.ndarray:
    """The lambda grid, sorted; ValueError unless non-negative and finite."""
    lams = np.sort(np.asarray(lam_grid, dtype=float))
    if not np.all((lams >= 0.0) & (lams < math.inf)):
        raise ValueError("lambda must be a non-negative finite number")
    return lams


def second_term_probe(string: FractalString, derived: DerivedFunctions,
                      lam_grid: Sequence[float]) -> List[SpectralRecord]:
    """Per-lambda remainder and packing-defect ratios against f, by
    increasing lambda, leaving out each lambda where f(sqrt(lambda)/pi) is
    undefined; f takes one call per grid."""
    lams = _lambdas(lam_grid)
    sq = np.sqrt(lams)
    keep = sq / math.pi >= derived.valid_from
    lams, sq = lams[keep], sq[keep]
    f_sq, f_x = derived.f(sq), derived.f(sq / math.pi)
    lams = lams.tolist()
    return [SpectralRecord(lam=lam, N=n, phi=phi, delta_at=delta, f_norm=fs,
                           remainder_ratio=(phi - n) / fs, delta_ratio=delta / fx)
            for lam, (n, phi, delta), fs, fx in zip(
                lams, spectral_points(string, lams), f_sq.tolist(), f_x.tolist())]


def records_to_csv(records: Sequence[SpectralRecord]) -> str:
    buf = io.StringIO()
    buf.write("lambda,N,phi,delta,f,remainder_ratio,delta_ratio\n")
    for r in records:
        buf.write("%.15g,%d,%.15g,%.15g,%.15g,%.15g,%.15g\n"
                  % (r.lam, r.N, r.phi, r.delta_at, r.f_norm, r.remainder_ratio,
                     r.delta_ratio))
    return buf.getvalue()

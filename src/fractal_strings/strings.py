"""Fractal strings: non-increasing summable length sequences.

Three backends are provided.  Explicit stores the lengths outright,
RunLength stores (length, multiplicity) blocks (the natural encoding for
self-similar strings), and Analytic wraps a closed-form monotone profile
j -> l_j with exact or Euler-Maclaurin tail sums; a gauge profile takes
its tail integral on the gauge side, by quadrature in ln(1/y).

``length``, ``J`` and ``tail_sum_beyond_index`` take one index or eps, or
an array of them: an array gives an array of its shape, a scalar a Python
scalar.  Counts are exact Python ints, in object arrays, also past 2^63.

An analytic string stores its first lengths, at most _PREFIX = 2^15 + 1
(256 KiB), so that heads and counts inside them read one array instead of
the profile.  A profile starts them as its seed: l_1, ..., l_511 and the
Euler-Maclaurin closure at 512 that its tails below index 512 share.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import ConstructionError, NumericError
from .gauge import (DerivedFunctions, GaugeFunction, _shaped, gauge_from_json,
                    make_derived)
from .spec import REQUIRED, count, number, numbers, read_kind


def _compensated_suffix_sums(values: np.ndarray) -> np.ndarray:
    """suffix[i] = sum(values[i:]) accumulated with Neumaier compensation.

    np.cumsum adds in order, so each step's exact rounding error is taken
    afterwards from consecutive running sums, and summed by a second cumsum.
    """
    v = values[::-1]
    s = np.cumsum(v)
    prev = np.concatenate(([0.0], s[:-1]))
    err = np.where(np.abs(prev) >= np.abs(v), (prev - s) + v, (v - s) + prev)
    return np.append((s + np.cumsum(err))[::-1], 0.0)


def _count_above(vals: np.ndarray, eps):
    """#{l in vals : l > eps} for non-increasing vals; the reversed view
    that searchsorted takes copies nothing."""
    return vals.size - np.searchsorted(vals[::-1], eps, side="right")


def _tail_indices(m) -> np.ndarray:
    """The tail indices m as a flat object array; IndexError if one is negative."""
    mm = np.asarray(m, dtype=object).ravel()
    if min(mm.tolist(), default=0) < 0:
        raise IndexError("tail index must be >= 0")
    return mm


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _panel_rule(edges):
    """Nodes and weights of the 32-point Gauss-Legendre rule on each panel
    [edges[k], edges[k + 1]], one row per panel."""
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1, None], edges[1:, None]
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * _GL_NODES, 0.5 * (hi - lo) * _GL_WEIGHTS


def _exp_rule():
    """Nodes and weights for int_0^inf e^-s r(s) ds: the panel rule on
    [0, 1], [1, 2], [2, 4], ..., [128, 256].

    A gauge-side ratio r grows like a power of s and is singular at
    s = -rho ln(1/Y), which nears 0 for small rho.  Each doubling panel is
    at least its own width from that point, where Gauss-Laguerre alone
    loses up to seven digits (1e-7 at the domain top of rho = 0.1,
    alpha = -0.5).  Beyond 256, e^-s is below 1e-111.
    """
    nodes, weights = _panel_rule([0.0, *2.0 ** np.arange(9)])
    nodes = nodes.ravel()
    return nodes, weights.ravel() * np.exp(-nodes)


_EXP_NODES, _EXP_WEIGHTS = _exp_rule()
_EM_OFFSETS = np.arange(5.0)
_EM_TOP = 512  # the Euler-Maclaurin closure point of every tail index below it
_SEED = _EM_TOP - 1  # the lengths of an Euler-Maclaurin seed (see _em_seed)
# spectral's direct heads of up to 2^15 lengths and the length past them
_PREFIX = 2 ** 15 + 1
# float(j) is exact below it, and J the exact count
_EXACT_INDEX = 2 ** 53
# J reads the lengths up to this many indices from each gallop's start in one call
_WINDOW = 64
_PANEL_FACTOR = 8.0
_PANEL_BATCH = 8


def _panel_integral(fn: Callable, a: float, b: float = math.inf) -> float:
    """int_a^b fn, for a, b > 0 and fn taking float arrays, by the panel
    rule on geometric panels of ratio at most _PANEL_FACTOR.

    A finite range takes one fn call over equal panels, summed by fsum;
    b < a gives the negated integral.  To infinity, fn must decay at least
    like a power t^-p, p > 1: panels [a q^k, a q^(k+1)] are added until
    one is at most 1e-15 of the running total.  If no panel up to the one
    that crosses 1e300 is, NumericError is raised: the tail decays too
    slowly, or diverges.  One fn call takes the nodes of up to
    _PANEL_BATCH panels, and none past the 1e300 panel.  A non-finite fn
    value at a node that enters the sum raises NumericError.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError("integration limits must be positive")
    if math.isfinite(b):
        n = max(1, math.ceil(abs(math.log(b / a)) / math.log(_PANEL_FACTOR)))
        nodes, weights = _panel_rule(np.geomspace(a, b, n + 1))
        values = np.asarray(fn(nodes.ravel()), dtype=float)
        if not np.all(np.isfinite(values)):
            raise NumericError("non-finite integrand on [%g, %g]" % (a, b))
        return math.fsum(weights.ravel() * values)
    total = 0.0
    lo = a
    while lo <= 1e300:
        edges = [lo]
        while len(edges) <= _PANEL_BATCH and edges[-1] <= 1e300:
            edges.append(edges[-1] * _PANEL_FACTOR)
        nodes, weights = _panel_rule(edges)
        values = np.asarray(fn(nodes.ravel()), dtype=float).reshape(nodes.shape)
        for left, w, row in zip(edges, weights, values):
            if not np.all(np.isfinite(row)):
                raise NumericError("non-finite integrand on the panel from %g" % left)
            panel = float(np.dot(w, row))
            total += panel
            if abs(panel) <= 1e-15 * abs(total):
                return total
        lo = edges[-1]
    raise NumericError("tail integral from %g did not converge by 1e300" % a)


def _em_tail_sum(fn: Callable, ms: Sequence[int], integral: Optional[Callable] = None,
                 seed: Optional[tuple] = None) -> np.ndarray:
    """sum_{j > m} fn(j) for each m in ms, for a smooth, eventually
    power-decaying fn that takes float arrays.

    Direct summation up to M = max(m + 1, 512), then the Euler-Maclaurin
    closure from M: the integral from M to infinity plus the f/2, f'/12
    and f'''/720 correction terms, the derivatives by forward differences
    so that no point lies below M.  The direct terms and the five closure
    points of every m take one fn call.  ``integral(M, fn(M))`` gives the
    integrals for an array of M; without it, Gauss-Legendre panels
    integrate fn.  ``seed``, ``_em_seed`` of the same fn and integral,
    holds the terms of every m below 512, which then calls no fn; the sums
    stay bit for bit.
    """
    ms = np.array([int(m) for m in ms], dtype=object)
    below = ms < _EM_TOP if seed is not None else np.zeros(ms.size, dtype=bool)
    out = np.empty(ms.size)
    if not below.all():
        sums, (integrals, f_2, d1_12, d3_720), _ = _em_parts(fn, ms[~below], integral)
        out[~below] = sums + integrals + f_2 - d1_12 + d3_720
    if below.any():
        _, (integrals, f_2, d1_12, d3_720), terms = seed
        sums = np.array([math.fsum(terms[m:]) for m in ms[below].tolist()])
        out[below] = sums + integrals + f_2 - d1_12 + d3_720
    return out


def _em_seed(fn: Callable, integral: Optional[Callable] = None) -> tuple:
    """(fn(1), ..., fn(511) as a read-only array, the closure terms at
    512, the same terms as a list): what every tail below index 512
    shares, from one fn call."""
    _, closure, terms = _em_parts(fn, [0], integral)
    terms.flags.writeable = False
    return terms, closure, terms.tolist()


def _em_parts(fn: Callable, ms: Sequence[int], integral: Optional[Callable] = None):
    """The direct sums and the closure terms (integral, f/2, f'/12,
    f'''/720) of ``_em_tail_sum`` without ``seed``, each an array over ms,
    and the direct terms of every m in one array."""
    ms = [int(m) for m in ms]
    tops = [max(m + 1, _EM_TOP) for m in ms]
    M = np.array(tops, dtype=float)
    step = np.maximum(M * 1e-4, 1e-4)
    points = M[:, None] + step[:, None] * _EM_OFFSETS
    direct = [np.arange(m + 1, top, dtype=float) for m, top in zip(ms, tops)]
    values = np.asarray(fn(np.concatenate([points.ravel(), *direct])), dtype=float)
    f0, f1, f2, f3, f4 = values[:points.size].reshape(points.shape).T
    ends = np.cumsum([points.size] + [d.size for d in direct]).tolist()
    sums = np.array([math.fsum(values[lo:hi]) for lo, hi in zip(ends, ends[1:])])
    if integral is None:
        integrals = np.array([_panel_integral(fn, a) for a in M.tolist()])
    else:
        integrals = integral(M, f0)
    d1 = (-25 * f0 + 48 * f1 - 36 * f2 + 16 * f3 - 3 * f4) / (12 * step)
    d3 = (-5 * f0 + 18 * f1 - 24 * f2 + 14 * f3 - 3 * f4) / (2 * step ** 3)
    return sums, (integrals, f0 / 2.0, d1 / 12.0, d3 / 720.0), values[points.size:]


def _gauge_side_integral(gauge: GaugeFunction, Y: np.ndarray) -> np.ndarray:
    """int_0^Y h(y)/y dy - h(Y) for an array of Y in (0, y1].

    This is int_M^inf g(t) dt for Y = g(M), by parts with t = h(y)/y
    (Bingham-Goldie-Teugels, Regular Variation, 1.5-1.6).  With
    y = Y e^(-s/rho), u = ln(1/Y) and h(y) = y**rho ℓ(ln(1/y)) it equals
    h(Y) (1 - rho + int_0^inf e^-s (ℓ(u + s/rho)/ℓ(u) - 1) ds) / rho,
    which never forms y below Y; a pure power needs no quadrature.  The
    integrand of a row is summed on its own, so a row's value does not
    depend on the other Y.
    """
    rho = gauge.index
    if gauge.is_pure_power:
        return gauge.h(Y) * (1.0 - rho) / rho
    u = -np.log(Y)
    log_ratio = (gauge.slowly_varying(u[:, None] + _EXP_NODES / rho)[0]
                 - gauge.slowly_varying(u)[0][:, None])
    excess = np.sum(np.expm1(log_ratio) * _EXP_WEIGHTS, axis=1)
    return gauge.h(Y) * (1.0 - rho + excess) / rho


def _gallop(above: Callable[[int], bool], j: int) -> int:
    """The largest index i with above(i), for a predicate that holds on
    1, ..., i and on no index past i, found from the guess j >= 1 by
    galloping to lo < hi with above(lo) and not above(hi), then bisecting."""
    step = 1
    if above(j):
        lo, hi = j, j + 1
        while above(hi):
            lo, step = hi, 2 * step
            hi = j + step
    else:
        lo, hi = j - 1, j
        while lo > 1 and not above(lo):
            hi, step = lo, 2 * step
            lo = max(1, j - step)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if above(mid):
            lo = mid
        else:
            hi = mid
    return lo


class FractalString:
    """Base interface: a non-increasing positive sequence l_1 >= l_2 >= ... ."""

    # every length has weight 1; a string whose lengths carry multiplicities
    # has no ``head`` and gives its heads as runs_above blocks
    unit_weight = True
    # (L, derived) of a string with l_j = L g(j) from j = ceil(valid_from) on
    profile = None

    def length(self, j):
        raise NotImplementedError

    def head(self, n: int) -> np.ndarray:
        """l_1, ..., l_n of a unit-weight string, read-only."""
        raise NotImplementedError

    def J(self, eps):
        """Number of lengths strictly larger than eps."""
        raise NotImplementedError

    def runs_above(self, eps: float) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """(values, multiplicities) of the lengths strictly larger than eps:
        run-length multiplicities are exact Python ints, and unit weights
        are None."""
        raise NotImplementedError

    def tail_sum_beyond_index(self, m):
        """sum_{j > m} l_j, for m >= 0."""
        raise NotImplementedError

    def total_length(self) -> float:
        """sum_j l_j, the tail beyond index 0."""
        return self.tail_sum_beyond_index(0)

    def count(self) -> Optional[int]:
        """Number of lengths, or None for infinite strings."""
        return None

    def truncate(self, n: int) -> "ExplicitString":
        """The first n lengths, or all of a shorter string, from one
        ``length`` call."""
        if n < 1:
            raise ValueError("n must be >= 1")
        count = self.count()
        if count is not None:
            n = min(n, count)
        return ExplicitString(self.length(np.arange(1, n + 1)))


class ExplicitString(FractalString):
    def __init__(self, lengths: Sequence[float]):
        vals = np.sort(np.asarray(lengths, dtype=float))[::-1].copy()
        if vals.size == 0 or vals[-1] <= 0.0:
            raise ConstructionError("lengths must be positive and non-empty")
        vals.flags.writeable = False
        self._vals = vals
        self._suffix = _compensated_suffix_sums(vals)

    def head(self, n: int) -> np.ndarray:
        """l_1, ..., l_n, or all of a shorter string: a stored slice."""
        if n < 0:
            raise ValueError("n must be >= 0")
        return self._vals[:n]

    def length(self, j):
        jj = np.asarray(j)
        if np.any((jj < 1) | (jj > self._vals.size)):
            raise IndexError("index beyond string of %d lengths" % self._vals.size)
        return _shaped(self._vals[jj.astype(np.int64).ravel() - 1], jj.shape)

    def J(self, eps):
        e = np.asarray(eps, dtype=float)
        return _shaped(_count_above(self._vals, e.ravel()).astype(object), e.shape)

    def runs_above(self, eps: float):
        return self._vals[:_count_above(self._vals, eps)], None

    def tail_sum_beyond_index(self, m):
        mm = np.minimum(_tail_indices(m), self._vals.size)
        return _shaped(self._suffix[mm.astype(np.int64)], np.shape(m))

    def total_length(self) -> float:
        return float(self._suffix[0])

    def count(self):
        return int(self._vals.size)


class RunLengthString(FractalString):
    unit_weight = False

    def __init__(self, blocks: Sequence[Tuple[float, int]]):
        if not blocks:
            raise ConstructionError("blocks must be non-empty")
        vals = np.array([b[0] for b in blocks], dtype=float)
        # Python ints, so counts stay exact past 2^53 (the Cantor string
        # reaches 2^95)
        mult = np.array([int(b[1]) for b in blocks], dtype=object)
        if np.any(np.diff(vals) >= 0.0):
            raise ConstructionError("block lengths must be strictly decreasing")
        if vals[-1] <= 0.0 or min(mult) < 1:
            raise ConstructionError("lengths positive, multiplicities >= 1 required")
        self._vals = vals
        self._mult = mult
        self._cum = np.array([0, *itertools.accumulate(mult)], dtype=object)
        self._suffix = _compensated_suffix_sums(vals * mult.astype(float))

    def length(self, j):
        jj = np.asarray(j)
        if np.any((jj < 1) | (jj > self._cum[-1])):
            raise IndexError("index beyond string of %d lengths" % self._cum[-1])
        b = np.searchsorted(self._cum, jj.ravel(), side="left")
        return _shaped(self._vals[b - 1], jj.shape)

    def J(self, eps):
        e = np.asarray(eps, dtype=float)
        return _shaped(self._cum[_count_above(self._vals, e.ravel())], e.shape)

    def runs_above(self, eps: float):
        b = _count_above(self._vals, eps)
        return self._vals[:b], self._mult[:b]

    def tail_sum_beyond_index(self, m):
        mm = np.minimum(_tail_indices(m), self._cum[-1])
        b = np.searchsorted(self._cum, mm, side="left")
        # add the part of block b-1 that lies beyond m
        over = np.asarray(self._cum[b] - mm, dtype=float)
        return _shaped(self._suffix[b] + over * self._vals[b - 1], np.shape(m))

    def total_length(self) -> float:
        return float(self._suffix[0])

    def count(self):
        return self._cum[-1]


class AnalyticString(FractalString):
    """String defined by a monotone profile j -> l_j on the whole real ray.

    ``length_fn`` must accept float arrays; ``tail_fn`` (optional) returns
    the exact sum_{j > m} l_j for what ``tail_sum_beyond_index`` is given,
    an int m or an array of them.  ``inv_hint`` maps a float array of eps
    to real approximations of the j solving l_j = eps.  ``J`` tests the
    floors j of all of them in one length_fn call, at l_1 and at j - 1, j
    and j + 1: j passes when l_j > eps >= l_(j+1), and j - 1 when
    l_(j-1) > eps >= l_j (a tie that the hint rounded up onto).  The tests
    are numpy masks over the whole eps array, one eps included, and only
    the starts that fail them gallop outward to a bracket.  The gallops read
    the lengths at j - 64, ..., j + 64 of every such start, taken in one
    length_fn call, and a step past that window calls ``length``; with the
    exact inverse as hint, as for ``make_profile``, that is rare.

    Below 2^53, ``J`` is exact: the largest j with l_j > eps.  Past 2^53,
    float(j) merges neighbouring indices and the float profile carries
    about 1e-14 relative noise, so its crossing of eps is not one index.
    There ``J`` accepts j = floor(hint) once l(j - s) > eps >= l(j + s) with
    s = j >> 43, and otherwise gallops as below 2^53: the result lies within
    a relative 2^-43 of a crossing of the float profile.

    The stored prefix l_1, ..., l_n (n <= _PREFIX) is read-only and grown
    by one length_fn call when a head needs more, so a length_fn value may
    not depend on the rest of its array.  It starts as the seed, the
    _SEED = 511 lengths and the closure at 512 of the Euler-Maclaurin tails
    (see ``_em_seed``): taken here without tail_fn, or given by a tail_fn
    that keeps the same one, else empty.  ``head`` and ``runs_above``
    slice the prefix, ``length`` gathers from it, and ``J`` counts each eps
    at or above its last length by searchsorted: only the rest take the
    tests above.
    """

    def __init__(self, length_fn: Callable, inv_hint: Callable,
                 tail_fn: Optional[Callable] = None, seed: Optional[tuple] = None):
        self._fn = length_fn
        self._inv = inv_hint
        self._tail = tail_fn
        self._seed = _em_seed(length_fn) if tail_fn is None else seed
        # the stored prefix and its last length
        self._prefix = self._seed[0] if self._seed else np.empty(0)
        self._last = self._prefix[-1] if self._prefix.size else math.inf
        # the tail beyond index 0, taken once: a profile tail is a quadrature
        self._total = float(self.tail_sum_beyond_index(0))

    def head(self, n: int) -> np.ndarray:
        """l_1, ..., l_n: a read-only slice of the stored prefix, grown to
        min(n, _PREFIX) lengths, and past it one more length_fn call."""
        if n < 0:
            raise ValueError("n must be >= 0")
        have = self._prefix.size
        if have < min(n, _PREFIX):
            more = self._fn(np.arange(have + 1.0, min(n, _PREFIX) + 1.0))
            self._prefix = np.concatenate((self._prefix, more))
            self._prefix.flags.writeable = False
            self._last = self._prefix[-1]
        if n <= _PREFIX:
            return self._prefix[:n]
        return np.concatenate((self._prefix, self._fn(np.arange(_PREFIX + 1.0, n + 1.0))))

    def length(self, j):
        jj = np.asarray(j)
        if np.any(jj < 1):
            raise IndexError("index must be >= 1")
        js = jj.astype(float).ravel()
        if not self._prefix.size:
            return _shaped(np.asarray(self._fn(js), dtype=float), jj.shape)
        # stored integer indices are gathered, the profile takes the rest
        index = np.minimum(js, self._prefix.size).astype(np.intp)
        inside = index == js
        values = np.empty(js.size)
        values[inside] = self._prefix[index[inside] - 1]
        if not inside.all():
            values[~inside] = self._fn(js[~inside])
        return _shaped(values, jj.shape)

    def J(self, eps):
        e = np.asarray(eps, dtype=float)
        x = e.ravel()
        # the lengths past the prefix are at most its last: an eps at or
        # above it is counted inside the prefix
        inside = x >= self._last
        out = np.empty(x.size, dtype=object)
        out[inside] = _count_above(self._prefix, x[inside])
        if not inside.all():
            out[~inside] = self._J_hint(x[~inside])
        return _shaped(out, e.shape)

    def _J_hint(self, x: np.ndarray) -> np.ndarray:
        """J of a flat eps array by the tests, as numpy masks."""
        starts = np.maximum(np.floor(np.asarray(self._inv(x), dtype=float)), 1.0,
                            out=np.empty(x.size))
        big = starts >= _EXACT_INDEX
        # j and s are integer floats: j - s and j + s round to the float
        # nearest the exact index
        spans = np.where(big, np.floor(starts * 2.0 ** -43), 1.0)
        values = np.asarray(self._fn(np.concatenate(
            ([1.0], np.maximum(starts - spans, 1.0), starts, starts + spans))), dtype=float)
        lo, mid, hi = values[1:].reshape(3, -1) > x
        # below 2^53: j where mid > eps >= hi, j - 1 where lo > eps >= mid
        fits = ~big & ((mid > hi) | (lo > mid))
        out = np.where(fits, starts - 1.0 + mid, 0.0).astype(np.int64).astype(object)
        gallops = []
        for i in np.flatnonzero(~fits).tolist():
            if x[i] >= values[0]:
                out[i] = 0
            elif big[i] and lo[i] > hi[i]:
                out[i] = int(starts[i])
            else:
                gallops.append(i)
        if not gallops:
            return out
        # l_(j + k) > eps for k = -64..64 (indices floored at 1) of every
        # gallop in one call: a step outside the window calls length
        at = np.maximum(starts[gallops, None] + np.arange(-_WINDOW, _WINDOW + 1.0), 1.0)
        window = (np.asarray(self._fn(at.ravel()), dtype=float).reshape(at.shape)
                  > x[gallops, None]).tolist()
        for i, row in zip(gallops, window):
            j, eps = int(starts[i]), float(x[i])
            out[i] = _gallop(lambda n: row[n - j + _WINDOW] if abs(n - j) <= _WINDOW
                             else self.length(n) > eps, j)
        return out

    def runs_above(self, eps: float):
        return self.head(self.J(eps)), None

    def tail_sum_beyond_index(self, m):
        _tail_indices(m)
        if self._tail is not None:
            return self._tail(m)
        return _shaped(_em_tail_sum(self._fn, np.ravel(m), seed=self._seed), np.shape(m))

    def total_length(self) -> float:
        return self._total


# -- canonical families -----------------------------------------------------


def make_interval(length: float = 1.0) -> ExplicitString:
    """A single interval of the given length."""
    return ExplicitString([length])


def make_cantor(depth: int = 96) -> RunLengthString:
    """Middle-third Cantor string: lengths 3^-n with multiplicity 2^(n-1)."""
    if not 1 <= depth <= 678:
        raise ConstructionError("depth must lie in 1 .. 678, where 3.0 ** -depth "
                                "is above 0, not %r" % depth)
    blocks = [(3.0 ** -n, 2 ** (n - 1)) for n in range(1, depth + 1)]
    return RunLengthString(blocks)


def make_a_string(a: float) -> AnalyticString:
    """l_j = j^-a - (j+1)^-a; summable with telescoping tails, total 1."""
    if a <= 0:
        raise ValueError("a must be positive")

    def length_fn(js):
        js = np.asarray(js, dtype=float)
        # j^-a - (j+1)^-a without cancellation
        return js ** -a * (-np.expm1(-a * np.log1p(1.0 / js)))

    def inv_hint(eps):
        return (a / eps) ** (1.0 / (a + 1.0))

    def tail_fn(m):
        return _shaped(np.array([float(k + 1) ** -a for k in np.ravel(m)]), np.shape(m))

    return AnalyticString(length_fn, inv_hint, tail_fn=tail_fn)


def make_profile(L: float, derived: DerivedFunctions) -> AnalyticString:
    """String with l_j = L*g(j) from j0 = ceil(valid_from), clamped
    constant at L*g(j0) before; its ``profile`` is (L, derived).

    g decays with index -1/D < -1, so the string is summable; the finite
    prefix keeps the sequence non-increasing from j = 1.  Tail sums count
    the clamped prefix exactly and close the rest by Euler-Maclaurin from
    M >= j0, with the integral taken on the gauge side.  For j0 <= 511 the
    string and its tails share one seed, which holds the clamp.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    j0 = max(1, int(math.ceil(derived.valid_from)))

    def length_fn(js):
        # g(j0) is elementwise the clamp: H_inv roots do not depend on
        # their neighbours in the array
        return L * derived.g(np.maximum(np.asarray(js, dtype=float), j0))

    def integral(M, fM):
        return L * _gauge_side_integral(derived.gauge, fM / L)

    try:
        seed = _em_seed(length_fn, integral) if j0 <= _SEED else None
        clamp = float(seed[0][j0 - 1]) if seed else L * derived.g(float(j0))
    except Exception as exc:
        raise ConstructionError("profile start index unresolvable: %s" % exc)

    def inv_hint(eps):
        # l_j > eps  <=>  j < 1/H(eps/L); eps at or above the clamp gives 1
        y = np.minimum(eps, clamp) / L
        return np.where(eps >= clamp, 1.0, 1.0 / (y / derived.gauge.h(y)))

    def tail_fn(m):
        ms = [int(k) for k in np.ravel(m)]
        prefix = np.array([max(j0 - 1 - k, 0) for k in ms], dtype=float) * clamp
        tails = _em_tail_sum(length_fn, [max(k, j0 - 1) for k in ms], integral, seed)
        return _shaped(prefix + tails, np.shape(m))

    string = AnalyticString(length_fn, inv_hint, tail_fn=tail_fn, seed=seed)
    string.profile = (L, derived)
    return string


# -- JSON wire format -------------------------------------------------------


def _profile(gauge: GaugeFunction, L: float, truncate: Optional[int]) -> FractalString:
    """The profile string of a gauge of index 1 - D, or its first truncate
    lengths."""
    s = make_profile(L, make_derived(gauge, 1.0 - gauge.index))
    return s if truncate is None else s.truncate(truncate)


# each string kind: the rows of its keys besides "kind", and its constructor
_KINDS = {
    "cantor": ({"depth": (count, 96)}, make_cantor),
    "a_string": ({"a": (number, REQUIRED)}, make_a_string),
    "interval": ({"length": (number, 1.0)}, make_interval),
    "explicit": ({"lengths": (numbers, REQUIRED)}, ExplicitString),
    "profile": ({"gauge": (gauge_from_json, REQUIRED), "L": (number, 1.0),
                 "truncate": (count, None)}, _profile),
}


def string_from_json(spec: dict, path: str = "") -> FractalString:
    """The string of a spec; ValueError names the key path, under path, of a
    key that is unknown, missing or of the wrong type."""
    return read_kind(spec, "kind", _KINDS, path, "string")

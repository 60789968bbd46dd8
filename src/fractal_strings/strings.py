"""Fractal strings: non-increasing summable length sequences.

Three backends are provided.  Explicit stores the lengths outright,
RunLength stores (length, multiplicity) blocks (the natural encoding for
self-similar strings), and Analytic wraps a closed-form monotone profile
j -> l_j with exact or Euler-Maclaurin tail sums; a gauge profile takes
its tail integral on the gauge side, by quadrature in ln(1/y).

``length``, ``J`` and ``tail_sum_beyond_index`` take one index or eps, or
an array of them: an array gives an array of its shape, a scalar a Python
scalar.  Counts are exact Python ints, in object arrays, also past 2^63.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import ConstructionError, NumericError
from .gauge import (DerivedFunctions, GaugeFunction, _iterated_logs, _shaped,
                    gauge_from_json, make_derived, reject_unknown_keys)


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
# float(j) is exact below it, and J the exact count
_EXACT_INDEX = 2 ** 53
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


def _em_tail_sum(fn: Callable, ms: Sequence[int],
                 integral: Optional[Callable] = None) -> np.ndarray:
    """sum_{j > m} fn(j) for each m in ms, for a smooth, eventually
    power-decaying fn that takes float arrays.

    Direct summation up to M = max(m + 1, 512), then the Euler-Maclaurin
    closure from M: the integral from M to infinity plus the f/2, f'/12
    and f'''/720 correction terms, the derivatives by forward differences
    so that no point lies below M.  The direct terms and the five closure
    points of every m take one fn call.  ``integral(M, fn(M))`` gives the
    integrals for an array of M; without it, Gauss-Legendre panels
    integrate fn.
    """
    ms = [int(m) for m in ms]
    tops = [max(m + 1, 512) for m in ms]
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
    return sums + integrals + f0 / 2.0 - d1 / 12.0 + d3 / 720.0


def _gauge_side_integral(gauge: GaugeFunction, Y: np.ndarray) -> np.ndarray:
    """int_0^Y h(y)/y dy - h(Y) for an array of Y in (0, y1].

    This is int_M^inf g(t) dt for Y = g(M), by parts with t = h(y)/y
    (Bingham-Goldie-Teugels, Regular Variation, 1.5-1.6).  With
    y = Y e^(-s/rho), u = ln(1/Y) and phi = prod_i L_i^alpha_i it equals
    h(Y) (1 - rho + int_0^inf e^-s (phi(u + s/rho)/phi(u) - 1) ds) / rho,
    which never forms y below Y; a pure power needs no quadrature.  The
    integrand of a row is summed on its own, so a row's value does not
    depend on the other Y.
    """
    rho = gauge.index
    u = -np.log(Y)
    depth = len(gauge.log_exponents)
    log_ratio = np.zeros((u.size, _EXP_NODES.size))
    for alpha, L_Y, L_s in zip(gauge.log_exponents, _iterated_logs(u, depth),
                               _iterated_logs(u[:, None] + _EXP_NODES / rho, depth)):
        log_ratio += alpha * np.log(L_s / L_Y[:, None])
    excess = np.sum(np.expm1(log_ratio) * _EXP_WEIGHTS, axis=1)
    return gauge.h(Y) * (1.0 - rho + excess) / rho


class FractalString:
    """Base interface: a non-increasing positive sequence l_1 >= l_2 >= ... ."""

    def length(self, j):
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
        self._vals = vals
        self._suffix = _compensated_suffix_sums(vals)

    def length(self, j):
        jj = np.asarray(j)
        if np.any((jj < 1) | (jj > self._vals.size)):
            raise IndexError("index beyond string of %d lengths" % self._vals.size)
        return _shaped(self._vals[jj.astype(np.int64).ravel() - 1], jj.shape)

    def J(self, eps):
        e = np.asarray(eps, dtype=float)
        return _shaped(np.searchsorted(-self._vals, -e.ravel(), side="left").astype(object),
                       e.shape)

    def runs_above(self, eps: float):
        return self._vals[:self.J(eps)], None

    def tail_sum_beyond_index(self, m):
        mm = np.minimum(_tail_indices(m), self._vals.size)
        return _shaped(self._suffix[mm.astype(np.int64)], np.shape(m))

    def count(self):
        return int(self._vals.size)


class RunLengthString(FractalString):
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
        return _shaped(self._cum[np.searchsorted(-self._vals, -e.ravel(), side="left")],
                       e.shape)

    def runs_above(self, eps: float):
        b = int(np.searchsorted(-self._vals, -eps, side="left"))
        return self._vals[:b], self._mult[:b]

    def tail_sum_beyond_index(self, m):
        mm = np.minimum(_tail_indices(m), self._cum[-1])
        b = np.searchsorted(self._cum, mm, side="left")
        # add the part of block b-1 that lies beyond m
        over = np.asarray(self._cum[b] - mm, dtype=float)
        return _shaped(self._suffix[b] + over * self._vals[b - 1], np.shape(m))

    def count(self):
        return self._cum[-1]


class AnalyticString(FractalString):
    """String defined by a monotone profile j -> l_j on the whole real ray.

    ``length_fn`` must accept float arrays; ``tail_fn`` (optional) returns
    the exact sum_{j > m} l_j for what ``tail_sum_beyond_index`` is given,
    an int m or an array of them.  ``inv_hint`` maps a float array of eps
    to real approximations of the j solving l_j = eps.  ``J`` tests the
    floors j of all of them in one length_fn call: j passes when
    l_j > eps >= l_(j+1), and j - 1 when l_(j-1) > eps >= l_j (a tie that
    the hint rounded up onto).  Any other start gallops outward to a
    bracket, in O(log |hint error|) scalar evaluations; with the exact
    inverse as hint, as for ``make_profile``, that is rare.

    Below 2^53, ``J`` is exact: the largest j with l_j > eps.  Past 2^53,
    float(j) merges neighbouring indices and the float profile carries
    about 1e-14 relative noise, so its crossing of eps is not one index.
    There ``J`` accepts j = floor(hint) once l(j - s) > eps >= l(j + s) with
    s = j >> 43, and otherwise gallops as below 2^53: the result lies within
    a relative 2^-43 of a crossing of the float profile.
    """

    def __init__(self, length_fn: Callable, inv_hint: Callable,
                 tail_fn: Optional[Callable] = None):
        self._fn = length_fn
        self._inv = inv_hint
        self._tail = tail_fn
        # the tail beyond index 0, taken once: a profile tail is a quadrature
        self._total = float(self.tail_sum_beyond_index(0))

    def length(self, j):
        jj = np.asarray(j)
        if np.any(jj < 1):
            raise IndexError("index must be >= 1")
        values = np.asarray(self._fn(jj.astype(float).ravel()), dtype=float)
        return _shaped(values, jj.shape)

    def J(self, eps):
        e = np.asarray(eps, dtype=float)
        hints = np.broadcast_to(np.asarray(self._inv(e.ravel()), dtype=float), e.size)
        starts = [max(1, int(h)) for h in hints.tolist()]
        spans = [j >> 43 if j >= _EXACT_INDEX else 1 for j in starts]
        # l_1, then l(j - s), l(j) and l(j + s) for every start j
        index = ([1] + [max(1, j - s) for j, s in zip(starts, spans)] + starts
                 + [j + s for j, s in zip(starts, spans)])
        values = np.asarray(self._fn(np.array(index, dtype=float)), dtype=float)
        brackets = values[1:].reshape(3, -1).T.tolist()
        out = np.zeros(e.size, dtype=object)
        for i, (x, j, (lo, mid, hi)) in enumerate(zip(e.ravel().tolist(), starts, brackets)):
            exact = j < _EXACT_INDEX
            if values[0] <= x:
                continue
            if (mid if exact else lo) > x >= hi:
                out[i] = j
            elif exact and lo > x >= mid:
                out[i] = j - 1  # the hint rounded up onto a tie l_j = eps
            else:
                out[i] = self._gallop(x, j)
        return _shaped(out, e.shape)

    def _gallop(self, eps: float, j: int) -> int:
        """The J of eps found from j by galloping to lo < hi with
        l_lo > eps >= l_hi (l_1 > eps), then bisecting."""
        step = 1
        if self.length(j) > eps:
            lo, hi = j, j + 1
            while self.length(hi) > eps:
                lo, step = hi, 2 * step
                hi = j + step
        else:
            lo, hi = j - 1, j
            while lo > 1 and self.length(lo) <= eps:
                hi, step = lo, 2 * step
                lo = max(1, j - step)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.length(mid) > eps:
                lo = mid
            else:
                hi = mid
        return lo

    def runs_above(self, eps: float):
        j = self.J(eps)
        js = np.arange(1, j + 1, dtype=float)
        return np.asarray(self._fn(js), dtype=float), None

    def tail_sum_beyond_index(self, m):
        _tail_indices(m)
        if self._tail is not None:
            return self._tail(m)
        return _shaped(_em_tail_sum(self._fn, np.ravel(m)), np.shape(m))

    def total_length(self) -> float:
        return self._total


# -- canonical families -----------------------------------------------------


def make_interval(l: float = 1.0) -> ExplicitString:
    """A single interval of length l."""
    return ExplicitString([l])


def make_cantor(depth: int = 96) -> RunLengthString:
    """Middle-third Cantor string: lengths 3^-n with multiplicity 2^(n-1)."""
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
    constant at L*g(j0) before.

    g decays with index -1/D < -1, so the string is summable; the finite
    prefix keeps the sequence non-increasing from j = 1.  Tail sums count
    the clamped prefix exactly and close the rest by Euler-Maclaurin from
    M >= j0, with the integral taken on the gauge side.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    j0 = max(1, int(math.ceil(derived.valid_from)))
    try:
        clamp = L * derived.g(float(j0))
    except Exception as exc:
        raise ConstructionError("profile start index unresolvable: %s" % exc)

    def length_fn(js):
        # g(j0) is elementwise the clamp: H_inv roots do not depend on
        # their neighbours in the array
        return L * derived.g(np.maximum(np.asarray(js, dtype=float), j0))

    def inv_hint(eps):
        # l_j > eps  <=>  j < 1/H(eps/L); eps at or above the clamp gives 1
        y = np.minimum(eps, clamp) / L
        return np.where(eps >= clamp, 1.0, 1.0 / (y / derived.gauge.h(y)))

    def integral(M, fM):
        return L * _gauge_side_integral(derived.gauge, fM / L)

    def tail_fn(m):
        ms = [int(k) for k in np.ravel(m)]
        prefix = np.array([max(j0 - 1 - k, 0) for k in ms], dtype=float) * clamp
        tails = _em_tail_sum(length_fn, [max(k, j0 - 1) for k in ms], integral)
        return _shaped(prefix + tails, np.shape(m))

    return AnalyticString(length_fn, inv_hint, tail_fn=tail_fn)


# -- JSON wire format -------------------------------------------------------


# keys each string kind defines, "kind" included
_SPEC_KEYS = {
    "cantor": ("kind", "depth"),
    "a_string": ("kind", "a"),
    "interval": ("kind", "length"),
    "explicit": ("kind", "lengths"),
    "profile": ("kind", "gauge", "L", "truncate"),
}


def string_from_json(spec: dict) -> FractalString:
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _SPEC_KEYS:
        raise ValueError("unknown string kind: %r" % kind)
    reject_unknown_keys(spec, _SPEC_KEYS[kind], "%s string" % kind)
    if kind == "cantor":
        return make_cantor(int(spec.get("depth", 96)))
    if kind == "a_string":
        return make_a_string(float(spec["a"]))
    if kind == "interval":
        return make_interval(float(spec.get("length", 1.0)))
    if kind == "explicit":
        return ExplicitString(spec["lengths"])
    gauge = gauge_from_json(spec["gauge"])
    D = 1.0 - gauge.index
    derived = make_derived(gauge, D)
    s = make_profile(float(spec.get("L", 1.0)), derived)
    if "truncate" in spec:
        return s.truncate(int(spec["truncate"]))
    return s

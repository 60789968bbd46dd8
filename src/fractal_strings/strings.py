"""Fractal strings: non-increasing summable length sequences.

Three backends are provided.  Explicit stores the lengths outright,
RunLength stores (length, multiplicity) blocks (the natural encoding for
self-similar strings), and Analytic wraps a closed-form monotone profile
j -> l_j with exact or Euler-Maclaurin tail sums.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import ConstructionError, NumericError
from .gauge import (DerivedFunctions, gauge_from_json, make_derived,
                    reject_unknown_keys)


def _compensated_suffix_sums(values: np.ndarray) -> np.ndarray:
    """suffix[i] = sum(values[i:]) accumulated with Neumaier compensation."""
    n = values.size
    out = np.empty(n + 1)
    out[n] = 0.0
    s = 0.0
    c = 0.0
    for i in range(n - 1, -1, -1):
        v = values[i]
        t = s + v
        if abs(s) >= abs(v):
            c += (s - t) + v
        else:
            c += (v - t) + s
        s = t
        out[i] = s + c
    return out


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_PANEL_FACTOR = 8.0
_MAX_PANELS = 250
_PANEL_BATCH = 8


def _gauss_panel(fn: Callable, lo: float, hi: float) -> float:
    """int_lo^hi fn by the 32-point Gauss-Legendre rule; fn takes float arrays."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    values = np.asarray(fn(mid + half * _GL_NODES), dtype=float)
    return half * float(np.dot(_GL_WEIGHTS, values))


def _panel_integral_to_inf(fn: Callable, a: float) -> float:
    """int_a^inf fn via 32-point Gauss-Legendre on geometric panels.

    fn must accept float arrays and decay at least like a power t^-p, p > 1.
    Panels [a q^k, a q^(k+1)] are accumulated until their contribution is
    negligible relative to the running total.  One fn call takes the nodes
    of up to _PANEL_BATCH panels, and none past the panel that crosses 1e300.
    """
    total = 0.0
    lo = a
    for first in range(0, _MAX_PANELS, _PANEL_BATCH):
        edges = [lo]
        while len(edges) <= min(_PANEL_BATCH, _MAX_PANELS - first) and edges[-1] <= 1e300:
            edges.append(edges[-1] * _PANEL_FACTOR)
        los = np.array(edges[:-1])
        his = np.array(edges[1:])
        halves = 0.5 * (his - los)
        nodes = 0.5 * (los + his)[:, None] + halves[:, None] * _GL_NODES
        values = np.asarray(fn(nodes.ravel()), dtype=float).reshape(nodes.shape)
        for half, row, hi in zip(halves.tolist(), values, edges[1:]):
            panel = half * float(np.dot(_GL_WEIGHTS, row))
            total += panel
            if abs(panel) <= 1e-15 * abs(total) or hi > 1e300:
                return total
        lo = edges[-1]
    raise NumericError("tail integral did not converge within the panel budget")


def _panel_integral(fn: Callable[[float], float], a: float, b: float) -> float:
    """int_a^b fn for a, b > 0, by the same rule on equal geometric panels
    of ratio at most _PANEL_FACTOR.

    fn is called with one float node at a time, so scalar-only callables
    work.  b < a gives the negated integral.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError("integration limits must be positive")
    n = max(1, math.ceil(abs(math.log(b / a)) / math.log(_PANEL_FACTOR)))
    edges = np.geomspace(a, b, n + 1)

    def nodewise(ts):
        return [float(fn(float(t))) for t in ts]

    return math.fsum(_gauss_panel(nodewise, lo, hi)
                     for lo, hi in zip(edges[:-1], edges[1:]))


def _em_tail_sum(fn: Callable, m: int) -> float:
    """sum_{j > m} fn(j) for a smooth, eventually power-decaying fn that
    takes float arrays.

    Direct summation up to a cutoff, then Euler-Maclaurin closure: integral
    plus the f/2 and f'/12 and f'''/720 correction terms, whose five
    points take one fn call.
    """
    M = max(m + 1, 512)
    direct = 0.0
    if M > m + 1:
        js = np.arange(m + 1, M, dtype=float)
        direct = math.fsum(np.asarray(fn(js), dtype=float))
    integral = _panel_integral_to_inf(fn, float(M))
    step = max(M * 1e-4, 1e-4)
    fM, f1, fm1, f2, fm2 = np.asarray(
        fn(M + step * np.array([0.0, 1.0, -1.0, 2.0, -2.0])), dtype=float).tolist()
    d1 = (f1 - fm1) / (2 * step)
    d3 = (f2 - 2 * f1 + 2 * fm1 - fm2) / (2 * step ** 3)
    return direct + integral + fM / 2.0 - d1 / 12.0 + d3 / 720.0


class FractalString:
    """Base interface: a non-increasing positive sequence l_1 >= l_2 >= ... ."""

    def length(self, j: int) -> float:
        raise NotImplementedError

    def J(self, eps: float) -> int:
        """Number of lengths strictly larger than eps."""
        raise NotImplementedError

    def runs_above(self, eps: float) -> Tuple[np.ndarray, np.ndarray]:
        """(values, multiplicities) of the lengths strictly larger than eps,
        as arrays; run-length multiplicities are exact Python ints."""
        raise NotImplementedError

    def tail_sum_beyond(self, eps: float) -> float:
        """sum_{j > J(eps)} l_j."""
        return self.tail_sum_beyond_index(self.J(eps))

    def tail_sum_beyond_index(self, m: int) -> float:
        """sum_{j > m} l_j."""
        raise NotImplementedError

    def total_length(self) -> float:
        raise NotImplementedError

    def head_sum(self, n: int) -> float:
        """sum_{j <= n} l_j."""
        raise NotImplementedError

    def count(self) -> Optional[int]:
        """Number of lengths, or None for infinite strings."""
        return None

    def truncate(self, n: int) -> "ExplicitString":
        if n < 1:
            raise ValueError("n must be >= 1")
        vals = np.array([self.length(j) for j in range(1, n + 1)])
        return ExplicitString(vals)


class ExplicitString(FractalString):
    def __init__(self, lengths: Sequence[float]):
        vals = np.sort(np.asarray(lengths, dtype=float))[::-1].copy()
        if vals.size == 0 or vals[-1] <= 0.0:
            raise ConstructionError("lengths must be positive and non-empty")
        self._vals = vals
        self._suffix = _compensated_suffix_sums(vals)

    def length(self, j: int) -> float:
        if not 1 <= j <= self._vals.size:
            raise IndexError("index %d beyond string of %d lengths" % (j, self._vals.size))
        return float(self._vals[j - 1])

    def J(self, eps: float) -> int:
        return int(np.searchsorted(-self._vals, -eps, side="left"))

    def runs_above(self, eps: float):
        j = self.J(eps)
        return self._vals[:j], np.ones(j)

    def tail_sum_beyond_index(self, m: int) -> float:
        return float(self._suffix[min(m, self._vals.size)])

    def total_length(self) -> float:
        return float(self._suffix[0])

    def head_sum(self, n: int) -> float:
        n = min(n, self._vals.size)
        return float(self._suffix[0] - self._suffix[n])

    def count(self):
        return int(self._vals.size)

    def truncate(self, n: int) -> "ExplicitString":
        if n < 1:
            raise ValueError("n must be >= 1")
        return ExplicitString(self._vals[:min(n, self._vals.size)])


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
        self._cum = [0, *itertools.accumulate(mult)]
        self._suffix = _compensated_suffix_sums(vals * mult.astype(float))

    def length(self, j: int) -> float:
        if not 1 <= j <= self._cum[-1]:
            raise IndexError("index %d beyond string of %d lengths" % (j, self._cum[-1]))
        return float(self._vals[bisect.bisect_left(self._cum, j) - 1])

    def J(self, eps: float) -> int:
        return self._cum[int(np.searchsorted(-self._vals, -eps, side="left"))]

    def runs_above(self, eps: float):
        b = int(np.searchsorted(-self._vals, -eps, side="left"))
        return self._vals[:b], self._mult[:b]

    def tail_sum_beyond_index(self, m: int) -> float:
        m = min(m, self._cum[-1])
        b = bisect.bisect_left(self._cum, m)
        tail = float(self._suffix[b])
        # add the part of block b-1 that lies beyond m
        over = self._cum[b] - m
        return tail + over * float(self._vals[b - 1]) if over else tail

    def total_length(self) -> float:
        return float(self._suffix[0])

    def head_sum(self, n: int) -> float:
        n = min(n, self._cum[-1])
        b = bisect.bisect_left(self._cum, n)
        partial = float(self._suffix[0] - self._suffix[b])
        # subtract the part of block b-1 that lies beyond n
        over = self._cum[b] - n
        return partial - over * float(self._vals[b - 1]) if over else partial

    def count(self):
        return self._cum[-1]

    def truncate(self, n: int) -> ExplicitString:
        if n < 1:
            raise ValueError("n must be >= 1")
        n = min(n, self._cum[-1])
        reps = [min(m, n) for m in self._mult]
        return ExplicitString(np.repeat(self._vals, reps)[:n])


class AnalyticString(FractalString):
    """String defined by a monotone profile j -> l_j on the whole real ray.

    ``length_fn`` must accept float arrays, ``tail_fn`` (optional) returns
    the exact value of sum_{j > m} l_j.  ``inv_hint`` returns a real
    approximation of the j solving l_j = eps.  ``J`` starts from its floor
    and gallops outward to a bracket, so it costs O(log |hint error|)
    evaluations of length_fn: 2 to 3 when the hint is the exact inverse,
    as for ``make_profile``.

    Below 2^53, ``J`` is exact: the largest j with l_j > eps.  Past 2^53,
    float(j) merges neighbouring indices and the float profile carries
    about 1e-14 relative noise, so its crossing of eps is not one index.
    There ``J`` accepts j = floor(hint) once l(j - s) > eps >= l(j + s) with
    s = j >> 43, and otherwise gallops as below 2^53: the result lies within
    a relative 2^-43 of a crossing of the float profile.
    """

    def __init__(self, length_fn: Callable, inv_hint: Callable[[float], float],
                 tail_fn: Optional[Callable[[int], float]] = None,
                 total: Optional[float] = None):
        self._fn = length_fn
        self._inv = inv_hint
        self._tail = tail_fn
        if total is None:
            total = self.head_sum(1024) + self.tail_sum_beyond_index(1024)
        self._total = float(total)

    def length(self, j: int) -> float:
        if j < 1:
            raise IndexError("index must be >= 1")
        return float(self._fn(np.array([float(j)]))[0])

    def J(self, eps: float) -> int:
        if self.length(1) <= eps:
            return 0
        j = max(1, int(self._inv(eps)))
        if j >= 2 ** 53:
            s = j >> 43
            if self.length(j - s) > eps >= self.length(j + s):
                return j
        # gallop from j to lo < hi with l_lo > eps >= l_hi (l_1 > eps)
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
        return np.asarray(self._fn(js), dtype=float), np.ones(j)

    def tail_sum_beyond_index(self, m: int) -> float:
        if self._tail is not None:
            return float(self._tail(m))
        return _em_tail_sum(self._fn, m)

    def total_length(self) -> float:
        return self._total

    def head_sum(self, n: int) -> float:
        js = np.arange(1, n + 1, dtype=float)
        return math.fsum(np.asarray(self._fn(js), dtype=float))


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
        return float(m + 1) ** -a

    return AnalyticString(length_fn, inv_hint, tail_fn=tail_fn, total=1.0)


def make_profile(L: float, derived: DerivedFunctions,
                 j_max: Optional[int] = None) -> AnalyticString:
    """String with l_j = L*g(j) beyond valid_from, clamped constant before.

    g decays with index -1/D < -1, so the string is summable; the finite
    prefix keeps the sequence non-increasing from j = 1.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    j0 = max(1, int(math.ceil(derived.valid_from)))
    try:
        clamp = L * derived.g(float(j0))
    except Exception as exc:
        raise ConstructionError("profile start index unresolvable: %s" % exc)

    def length_fn(js):
        js = np.asarray(js, dtype=float)
        out = np.full(js.shape, clamp)
        free = js >= j0
        if np.any(free):
            out[free] = L * derived.g(js[free])
        return out

    def inv_hint(eps):
        if eps >= clamp:
            return 1.0
        # l_j > eps  <=>  j < 1/H(eps/L)
        return 1.0 / (eps / L / derived.gauge.h(eps / L))

    return AnalyticString(length_fn, inv_hint)


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

"""Tube volumes, generalized contents and the classifiers of sampled ratios.

For a fractal string the inner tube volume is V(eps) = sum_j min(l_j, 2 eps)
and the boundary measure of the eps-parallel set is V'(eps) = 2 J(2 eps),
twice the number of lengths exceeding 2 eps.  Contents, like l_j/g(j),
delta(x)/f(x) and (phi - N)/f(sqrt(lambda)), are ratios sampled on a
geometric grid; each verdict is a RatioVerdict whose liminf/limsup estimates
come from the trailing third of its samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .gauge import GaugeFunction
from .strings import FractalString

DEFAULT_BAND = 0.02
# |log-log slope| above which a sampled ratio is treated as drifting to 0/inf
DRIFT_SLOPE_TOL = 0.05


@dataclass(frozen=True)
class ScaleGrid:
    """Strictly monotone geometric sampling grid.

    Decreasing grids sample scales tending to 0; increasing grids sample
    arguments tending to infinity (used for the j-, x- and lambda-probes).
    """

    scales: np.ndarray

    def __post_init__(self):
        scales = np.asarray(self.scales, dtype=float)
        object.__setattr__(self, "scales", scales)
        if scales.size < 9:
            raise ValueError("a ScaleGrid needs at least 9 scales")
        diffs = np.diff(scales)
        if not (np.all(diffs < 0) or np.all(diffs > 0)):
            raise ValueError("scales must be strictly monotone")
        if scales.min() <= 0.0:
            raise ValueError("scales must be positive")

    @classmethod
    def geometric(cls, start: float, ratio: float, n: int) -> "ScaleGrid":
        if not (ratio > 0 and ratio != 1.0):
            raise ValueError("ratio must be positive and != 1")
        return cls(scales=start * ratio ** np.arange(n))

    def to_json(self) -> dict:
        return {"eps0": float(self.scales[0]),
                "q": float(self.scales[1] / self.scales[0]),
                "n": int(self.scales.size)}


@dataclass(frozen=True)
class RatioVerdict:
    """Sampled liminf/limsup of a ratio, its verdict, drift slope and samples."""

    lower: float
    upper: float
    verdict: str
    drift_slope: float
    scales: np.ndarray
    values: np.ndarray

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


def tube_volume(string: FractalString, eps):
    """V(eps) = sum_j min(l_j, 2 eps) = tail beyond 2 eps + 2 eps J(2 eps).

    eps may be an array of scales, which takes one J and one tail call and
    gives the array of volumes.
    """
    eps = np.asarray(eps, dtype=float)
    if np.any(eps <= 0):
        raise ValueError("eps must be positive")
    return _volume_and_count(string, eps)[0]


def _volume_and_count(string: FractalString, eps: np.ndarray):
    """V(eps) and J(2 eps) as floats, from one J and one tail call."""
    j = string.J(2.0 * eps)
    count = np.asarray(j, dtype=float)
    return string.tail_sum_beyond_index(j) + 2.0 * eps * count, count


def trailing_third(values):
    """The samples that stand in for the limit: the last third, at least 3."""
    return values[-max(3, len(values) // 3):]


def trailing_extremes(values: np.ndarray, scales: np.ndarray):
    """(min, max) of the trailing third of the samples, and their log-log
    slope against the scales.

    The slope is fitted over the whole grid so bounded oscillation averages
    out instead of aliasing into a trend, as the centred least-squares
    ratio; it is inf unless every sample is positive and finite.
    """
    samples = values.tolist()
    tail = trailing_third(samples)
    if not all(0.0 < v < math.inf for v in samples):
        # numpy's extremes, unlike min and max, propagate a NaN
        return float(np.min(tail)), float(np.max(tail)), math.inf
    x = list(map(math.log, scales.tolist()))
    return min(tail), max(tail), _slope(x, list(map(math.log, samples)))


def _slope(x: list, y: list) -> float:
    """Least-squares slope of y on x, the centred ratio of two fsums."""
    mx, my = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [a - mx for a in x]
    return math.fsum(a * (b - my) for a, b in zip(dx, y)) / math.fsum(a * a for a in dx)


def _estimate(ratios: np.ndarray, scales: np.ndarray,
              band: float) -> RatioVerdict:
    """Classify the trailing spread of sampled content ratios as
    measurable, nondegenerate or degenerate."""
    lo, hi, slope = trailing_extremes(ratios, scales)
    if not (lo > 0.0 and math.isfinite(hi)) or abs(slope) > DRIFT_SLOPE_TOL:
        verdict = "degenerate"
    elif hi / lo <= 1.0 + band:
        verdict = "measurable"
    else:
        verdict = "nondegenerate"
    return RatioVerdict(lower=lo, upper=hi, verdict=verdict, drift_slope=slope,
                        scales=scales, values=ratios)


def classify_ratio(num, den, grid: ScaleGrid,
                   band: float = DEFAULT_BAND) -> RatioVerdict:
    """Classify num/den, sampled at the grid's scales, as ~ (equivalent),
    asymp (similar) or neither.

    liminf/limsup are estimated from the trailing third of the samples;
    the drift slope is fitted over all of them.
    """
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    if np.any(den <= 0.0):
        raise ValueError("den must be positive on the grid")
    values = num / den
    lo, hi, slope = trailing_extremes(values, grid.scales)
    if not (lo > 0.0 and math.isfinite(hi)):
        verdict = "neither"
    elif 1.0 - band <= lo and hi <= 1.0 + band:
        verdict = "equivalent"
    else:
        verdict = "similar"
    return RatioVerdict(lower=lo, upper=hi, verdict=verdict, drift_slope=slope,
                        scales=grid.scales, values=values)


def content_estimates(string: FractalString, gauge: GaugeFunction,
                      grid: ScaleGrid, band: float = DEFAULT_BAND):
    """(Minkowski, S) estimates: V(eps)/h(eps) and 2 J(2 eps)/h'(eps),
    both from one J(2 eps) call over the grid.

    The S samples leave out the scales outside the string, where
    J(2 eps) = 0 (2 eps >= l_1), and those where h' vanishes: the S
    verdict's scales are the ones kept.
    """
    scales = grid.scales
    if scales.max() > gauge.domain_upper:
        raise DomainError("grid scales exceed the gauge domain")
    volumes, counts = _volume_and_count(string, scales)
    mink = _estimate(volumes / gauge.h(scales), scales, band)
    dh = gauge.dh(scales)
    keep = (dh != 0.0) & (counts > 0.0)
    if not np.any(keep):
        raise NumericError("J(2 eps) or h' vanishes at every sampled scale")
    sest = _estimate(2.0 * counts[keep] / dh[keep], scales[keep], band)
    return mink, sest


def dimension_estimate(string: FractalString, grid: ScaleGrid) -> float:
    """Minkowski dimension from the log-log slope of the tube volume."""
    scales = np.sort(grid.scales)[::-1]
    if math.log10(scales[0] / scales[-1]) < 3.0:
        raise ValueError("grid must span at least 3 decades")
    volumes = tube_volume(string, scales)
    n = scales.size
    sl = slice(n // 3, None)  # trailing two-thirds (smallest scales)
    x = np.log(scales[sl])
    y = np.log(volumes[sl])
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise NumericError("degenerate regression for dimension estimate")
    return 1.0 - _slope(x.tolist(), y.tolist())


def cantor_grid() -> ScaleGrid:
    """Grid aligned to the multiplicative period 3 of lattice strings:
    16 points per period over 5 periods from 3^-4."""
    return ScaleGrid.geometric(3.0 ** -4, 3.0 ** (-1.0 / 16), 5 * 16 + 1)

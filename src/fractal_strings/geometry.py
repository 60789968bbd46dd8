"""Tube volumes and generalized content estimation.

For a fractal string the inner tube volume is V(eps) = sum_j min(l_j, 2 eps)
and the boundary measure of the eps-parallel set is V'(eps) = 2 J(2 eps),
twice the number of lengths exceeding 2 eps.  Contents are sampled ratios
on a geometric grid of scales; the liminf/limsup estimates come from the
trailing third.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

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
    values: Optional[np.ndarray] = field(default=None, repr=False)

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
class ContentEstimate:
    """Lower/upper sampled content with a measurability classification."""

    lower: float
    upper: float
    kind: str  # "minkowski" | "s"
    gauge_index: float
    verdict: str  # "measurable" | "nondegenerate" | "degenerate"
    grid: ScaleGrid
    drift_slope: float = 0.0

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def to_json(self, gauge_json: Optional[dict] = None) -> dict:
        out = {"lower": self.lower, "upper": self.upper,
               "verdict": self.verdict, "kind": self.kind,
               "grid": self.grid.to_json()}
        if gauge_json is not None:
            out["gauge"] = gauge_json
        return out


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


def trailing_third(values: np.ndarray) -> np.ndarray:
    """The samples that stand in for the limit: the last third, at least 3."""
    return values[-max(3, values.size // 3):]


def trailing_extremes(values: np.ndarray, scales: np.ndarray):
    """(min, max) of the trailing third of the samples, and their log-log
    slope against the scales.

    The slope is fitted over the whole grid so bounded oscillation averages
    out instead of aliasing into a trend; it is inf unless every sample is
    positive and finite.
    """
    tail = trailing_third(values)
    if np.all(values > 0) and np.all(np.isfinite(values)):
        slope = float(np.polyfit(np.log(scales), np.log(values), 1)[0])
    else:
        slope = math.inf
    return float(np.min(tail)), float(np.max(tail)), slope


def _estimate(kind: str, ratios: np.ndarray, scales: np.ndarray,
              gauge: GaugeFunction, band: float) -> ContentEstimate:
    """Classify the trailing spread of sampled content ratios."""
    lo, hi, slope = trailing_extremes(ratios, scales)
    if not (lo > 0.0 and math.isfinite(hi)) or abs(slope) > DRIFT_SLOPE_TOL:
        verdict = "degenerate"
    elif hi / lo <= 1.0 + band:
        verdict = "measurable"
    else:
        verdict = "nondegenerate"
    return ContentEstimate(lower=lo, upper=hi, kind=kind,
                           gauge_index=gauge.index, verdict=verdict,
                           grid=ScaleGrid(scales=scales, values=ratios),
                           drift_slope=slope)


def content_estimates(string: FractalString, gauge: GaugeFunction,
                      grid: ScaleGrid, band: float = DEFAULT_BAND):
    """(Minkowski, S) estimates: V(eps)/h(eps) and 2 J(2 eps)/h'(eps),
    both from one J(2 eps) call over the grid.

    Scales where h' vanishes are left out of the S samples, with a warning.
    """
    scales = grid.scales
    if scales.max() > gauge.domain_upper:
        raise DomainError("grid scales exceed the gauge domain")
    volumes, counts = _volume_and_count(string, scales)
    mink = _estimate("minkowski", volumes / gauge.h(scales), scales, gauge, band)
    dh = np.atleast_1d(gauge.dh(scales))
    keep = dh != 0.0
    if not np.all(keep):
        warnings.warn("content_estimates: skipped scales where h' vanishes")
    if not np.any(keep):
        raise NumericError("h' vanishes at every sampled scale")
    sest = _estimate("s", 2.0 * counts[keep] / dh[keep], scales[keep], gauge, band)
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
    slope = float(np.polyfit(x, y, 1)[0])
    return 1.0 - slope


def cantor_grid(periods: int = 5, points_per_period: int = 16,
                eps0: float = 3.0 ** -4) -> ScaleGrid:
    """Grid aligned to the multiplicative period 3 of lattice strings."""
    n = periods * points_per_period + 1
    return ScaleGrid.geometric(eps0, 3.0 ** (-1.0 / points_per_period), n)

"""Numeric Karamata toolkit: regular-variation defects, representations,
and integral/sum asymptotics.

Everything here works on finite sample grids; the outputs are estimates and
diagnostics, never proofs of the corresponding limit statements.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NumericError
from .gauge import GaugeFunction
from .strings import _em_tail_sum, _panel_integral


def _on_arrays(fn: Callable) -> Callable:
    """fn applied to a float array one float at a time, so a scalar-only
    callable serves the array quadrature."""
    return lambda t: np.array([float(fn(v)) for v in np.ravel(t).tolist()])


def rv_defect(h, rho: float, t_grid, y_grid) -> np.ndarray:
    """Per-scale worst defect sup_t |h(ty)/h(y) - t**rho|.

    ``h`` is a GaugeFunction, whose domain bounds the usable t, or a bare
    callable.  A trend to 0 along y_grid (decreasing to 0) is numeric
    evidence that h is regularly varying with index rho.
    """
    if isinstance(h, GaugeFunction):
        fn, upper = h.h, h.domain_upper
    else:
        fn, upper = h, None
    ts = np.asarray(t_grid, dtype=float)
    ys = np.asarray(y_grid, dtype=float)
    if ts.size == 0 or ys.size == 0:
        raise ValueError("empty grid")
    out = np.empty(ys.size)
    for i, y in enumerate(ys):
        usable = ts if upper is None else ts[ts * y <= upper]
        if usable.size < ts.size:
            warnings.warn("rv_defect: skipped t values outside the domain")
        if usable.size == 0:
            raise ValueError("all t values leave the domain at y = %g" % y)
        ratio = np.atleast_1d(fn(usable * y)) / fn(y)
        out[i] = float(np.max(np.abs(ratio - usable ** rho)))
    return out


@dataclass(frozen=True)
class RepresentationDecomposition:
    """Karamata representation l(y) = c(y) * exp(int_y^a eps(u)/u du).

    Canonicalized with constant c = l(a) and eps the negated elasticity,
    which reconstructs differentiable inputs exactly up to quadrature error.
    """

    anchor: float
    y_grid: np.ndarray
    c_values: np.ndarray
    eps_values: np.ndarray
    limit_C: float
    reconstruction: np.ndarray
    input_values: np.ndarray

    @property
    def max_relative_residual(self) -> float:
        return float(np.max(np.abs(self.reconstruction / self.input_values - 1.0)))


def extract_representation(l: Callable, a: float, y_grid,
                           dl: Optional[Callable] = None) -> RepresentationDecomposition:
    """Decompose a slowly varying l with eps(u) = -u l'(u)/l(u), c = l(a)."""
    ys = np.sort(np.asarray(y_grid, dtype=float))
    if ys.size == 0:
        raise ValueError("empty y grid")
    l = _on_arrays(l)
    if dl is None:
        def dl(u):
            step = u * 1e-6
            return (l(u + step) - l(u - step)) / (2 * step)
    else:
        dl = _on_arrays(dl)

    def eps(u):
        val = -u * dl(u) / l(u)
        if not np.all(np.isfinite(val)):
            raise NumericError("non-finite l'/l at u = %g" % u[~np.isfinite(val)][0])
        return val

    eps_vals = eps(ys)
    c = float(l(a)[0])
    recon = np.array([c * math.exp(_panel_integral(lambda u: eps(u) / u, y, a))
                      for y in ys.tolist()])
    inputs = l(ys)
    return RepresentationDecomposition(
        anchor=float(a), y_grid=ys, c_values=np.full(ys.size, c),
        eps_values=eps_vals, limit_C=c, reconstruction=recon,
        input_values=inputs)


def karamata_direct(f: Callable, rho: float, sigma: float, x: float,
                    X: Optional[float] = None) -> float:
    """Karamata ratio x^(sigma+1) f(x) / (weighted integral of f).

    For sigma >= -(rho+1) the integral runs from X to x and the ratio tends
    to sigma+rho+1; otherwise the tail integral from x to infinity is used
    and the ratio tends to -(sigma+rho+1).
    """
    direct = sigma >= -(rho + 1.0)
    if direct and X is None:
        raise ValueError("X is required when sigma >= -(rho+1): "
                         "the integral runs from X to x")
    f = _on_arrays(f)
    fx = float(f(x)[0])

    def integrand(u):
        return u ** sigma * f(u)

    integral = _panel_integral(integrand, X, x) if direct else _panel_integral(integrand, x)
    return x ** (sigma + 1) * fx / integral


def tail_sum_rv(g: Callable, rho: float, k: int):
    """(sum_{j >= k} g(j), prediction -k g(k)/(rho+1)); ratio -> 1 as k grows."""
    if rho >= -1.0:
        raise ValueError("tail sums require rho < -1")
    gk = float(g(k))
    g2k = float(g(2 * k))
    if gk <= 0 or g2k <= 0:
        raise ValueError("g must be positive at k and 2k")
    local_index = math.log(g2k / gk) / math.log(2.0)
    if abs(local_index - rho) > 0.75:
        raise ValueError(
            "g does not look regularly varying with index %g (local index %.3f)"
            % (rho, local_index))
    total = float(_em_tail_sum(g, [k - 1])[0])
    predicted = -1.0 / (rho + 1.0) * k * gk
    return total, predicted

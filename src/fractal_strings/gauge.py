"""Gauge functions: smoothly varying scale gauges h(y) and their calculus.

A gauge replaces the power ``y**rho`` in content definitions.  The one
family implemented here is the iterated power-log family

    h(y) = y**rho * prod_i (log_i(1/y))**alpha_i,

where ``log_1(1/y) = ln(1/y)`` and ``log_{i+1} = ln(log_i)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConstructionError, DomainError, EvaluationError, NumericError
from .spec import REQUIRED, number, numbers, read_kind

_MONOTONE_SCAN_POINTS = 64
_NEWTON_ITERATIONS = 40
# ln of the smallest subnormal float: H_inv's roots lie above it
_U_FLOOR = math.log(5e-324)


def _shaped(values: np.ndarray, shape: tuple):
    """values in the argument's shape, or a Python scalar for a scalar."""
    return values.reshape(shape) if shape else values.item()


@dataclass(frozen=True)
class GaugeFunction:
    """A positive power-log gauge h on (0, domain_upper], regularly varying
    of `index`, with iterated-log exponents `log_exponents`."""

    index: float
    domain_upper: float
    log_exponents: tuple = ()

    def __post_init__(self):
        if not (self.domain_upper > 0):
            raise ConstructionError("domain_upper must be positive")
        # innermost iterated log must be positive on the domain: ln ℓ finite
        with np.errstate(divide="ignore", invalid="ignore"):
            ln_l = self.slowly_varying(-np.log(self.domain_upper))[0]
        if not np.isfinite(ln_l):
            raise ConstructionError(
                "domain_upper too large for %d iterated logs" % len(self.log_exponents))

    @property
    def is_pure_power(self) -> bool:
        return not self.log_exponents

    def slowly_varying(self, u):
        """(ln ℓ, E_ℓ) at u = ln(1/y), in u's shape, for the slowly
        varying factor ℓ = prod_i L_i**alpha_i of h(y) = y**rho ℓ(y), with
        L_1 = u, L_{i+1} = ln L_i (one np.log per level): ln ℓ = sum_i
        alpha_i ln L_i and E_ℓ = y ℓ'/ℓ = -sum_i alpha_i / (L_1 ... L_i),
        both 0 for a pure power.  Pass u as -ln(y): 1/y overflows for
        subnormal y."""
        L = np.asarray(u, dtype=float)
        ln_l = ela = 0.0 if self.log_exponents else np.zeros(L.shape)
        prod = 1.0
        for alpha in self.log_exponents:
            ln_L = np.log(L)
            ln_l = ln_l + alpha * ln_L
            prod = prod * L
            ela = ela - alpha / prod
            L = ln_L
        return _shaped(ln_l, L.shape), _shaped(ela, L.shape)

    # -- evaluation ---------------------------------------------------------

    def _domain(self, y) -> np.ndarray:
        """y as a float array; DomainError outside (0, domain_upper]."""
        arr = np.asarray(y, dtype=float)
        if ((arr <= 0.0) | (arr > self.domain_upper * (1 + 1e-15))).any():
            raise DomainError("y must lie in (0, %g]" % self.domain_upper)
        return arr

    def _h(self, arr: np.ndarray, ln_l) -> np.ndarray:
        out = arr ** self.index * np.exp(ln_l)
        if not (np.isfinite(out) & (out > 0.0)).all():
            raise EvaluationError("h evaluated non-positive or non-finite")
        return out

    def h(self, y):
        """Evaluate h(y) = y**rho ℓ(y).  Accepts scalars or numpy arrays."""
        arr = self._domain(y)
        return _shaped(self._h(arr, self.slowly_varying(-np.log(arr))[0]), arr.shape)

    def dh(self, y):
        """Evaluate h'(y) = h(y)/y * E_h(y), from one slowly_varying pass."""
        arr = self._domain(y)
        ln_l, ela = self.slowly_varying(-np.log(arr))
        out = self._h(arr, ln_l) / arr * (self.index + ela)
        if np.any(~np.isfinite(out)):
            raise EvaluationError("h' evaluated non-finite")
        return _shaped(out, arr.shape)

    def elasticity(self, y):
        """E_h(y) = y h'(y)/h(y) = rho + E_ℓ; tends to rho as y -> 0."""
        arr = self._domain(y)
        return self.index + self.slowly_varying(-np.log(arr))[1]


def power_log(rho: float, log_exponents: Sequence[float] = (), domain_upper: Optional[float] = None) -> GaugeFunction:
    """Build an iterated power-log gauge y**rho * prod (log_i(1/y))**alpha_i."""
    if domain_upper is None:
        domain_upper = 1.0 if not log_exponents else 0.1
    return GaugeFunction(index=float(rho), domain_upper=float(domain_upper),
                         log_exponents=tuple(float(a) for a in log_exponents))


# -- derived functions H, H^-1, f, g ---------------------------------------


def _ln_H(gauge: GaugeFunction, D: float, u):
    """ln H and its slope d ln H/du = 1 - E_h at u = ln y, from one
    slowly_varying pass: (D u - ln ℓ, D - E_ℓ) at ln(1/y) = -u."""
    ln_l, ela = gauge.slowly_varying(-u)
    return D * u - ln_l, D - ela


@dataclass(frozen=True)
class DerivedFunctions:
    """H(y) = y/h(y) with its inverse, and the induced f and g.

    f(x) = x*h(1/x) grows like x**D; g(x) = H^{-1}(1/x) decays like x**(-1/D).
    Both are trusted on [valid_from, inf).
    """

    gauge: GaugeFunction
    D: float
    y1: float          # H strictly increasing on (0, y1]
    valid_from: float
    H_y1: float        # H(y1), the top of H_inv's domain
    ln_H_floor: float  # ln H at the smallest subnormal y, below H_inv's domain

    def H(self, y):
        arr = np.asarray(y, dtype=float)
        return _shaped(arr / self.gauge.h(arr), arr.shape)

    def H_inv(self, z):
        """Invert H on (0, y1]: closed form for pure powers, Newton in
        u = ln y for power-log gauges.

        The domain is (H(5e-324), H(y1)]: a z whose root underflows below
        the smallest subnormal, u < ln(5e-324) ~ -744.44, raises DomainError,
        with ln H at that floor computed as Newton computes it.  Newton stops
        an element once its step is at most 4e-16 |u|, a couple of ulps of u,
        or once its relative step is at most 1e-12 and no longer halves: at
        the rounding floor the step can flip between neighbouring floats
        forever.  If an element does neither within _NEWTON_ITERATIONS
        iterations, NumericError is raised rather than an unsettled root
        returned.
        """
        zz = np.asarray(z, dtype=float)
        z_max = self.H_y1
        z_lo = float(zz.min(initial=math.inf))
        if z_lo <= 0.0 or zz.max(initial=0.0) > z_max * (1 + 1e-12):
            raise DomainError("H_inv argument outside admissible range (0, %g]" % z_max)
        if math.log(z_lo) < self.ln_H_floor:
            raise DomainError("H_inv argument below H(5e-324) = exp(%.17g); "
                              "its root underflows" % self.ln_H_floor)
        if self.gauge.is_pure_power:
            # H(y) = y**D exactly
            out = zz ** (1.0 / self.D)
        else:
            out = np.exp(self._newton(np.log(zz).ravel()))
        return _shaped(out, zz.shape)

    def _newton(self, ln_z: np.ndarray) -> np.ndarray:
        """The u = ln y solving ln H(u) = ln_z, by Newton in u.

        Each element stops on its own steps, so its root does not depend on
        the other elements of the call.
        """
        u_hi = math.log(self.y1)
        u = np.minimum(np.maximum(ln_z / self.D, _U_FLOOR), u_hi)
        previous = np.full(u.shape, math.inf)
        live = np.ones(u.shape, dtype=bool)
        for _ in range(_NEWTON_ITERATIONS):
            ln_H, slope = _ln_H(self.gauge, self.D, u)
            moved = np.minimum(np.maximum(u - (ln_H - ln_z) / slope, _U_FLOOR), u_hi)
            # the step actually taken: 0 where the clip holds u at y1
            rel = np.abs(moved - u) / np.abs(moved)
            np.copyto(u, moved, where=live)
            live &= ~((rel <= 4e-16) | ((rel <= 1e-12) & (rel > 0.5 * previous)))
            if not live.any():
                return u
            previous = rel
        raise NumericError("H_inv: Newton did not settle within %d iterations"
                           % _NEWTON_ITERATIONS)

    def f(self, x):
        """f(x) = x * h(1/x), defined for x >= 1/domain_upper."""
        xx = np.asarray(x, dtype=float)
        if np.any(xx < 1.0 / self.gauge.domain_upper * (1 - 1e-15)):
            raise DomainError("f requires x >= %g" % (1.0 / self.gauge.domain_upper))
        return _shaped(xx * self.gauge.h(1.0 / xx), xx.shape)

    def g(self, x):
        """g(x) = H_inv(1/x), defined for x >= 1/H(y1)."""
        return self.H_inv(1.0 / np.asarray(x, dtype=float))


def _monotone_top(gauge: GaugeFunction) -> float:
    """A y1 where H = y/h(y) rises on (0, y1]: 1 - E_h > 0 on a geometric
    scan, which starts no lower than the least positive double."""
    y1 = gauge.domain_upper
    for _ in range(8):
        ys = np.geomspace(max(y1 * 1e-16, math.ulp(0.0)), y1, _MONOTONE_SCAN_POINTS)
        e_h = gauge.elasticity(ys)
        ok = 1.0 - e_h > 0.0
        if np.all(ok):
            return y1
        bad = np.nonzero(~ok)[0]
        if bad[-1] == len(ys) - 1:
            y1 = y1 / 4.0
        else:
            y1 = ys[bad[-1]]  # largest failing point; keep scales below it
            y1 = y1 * 0.999
    raise ConstructionError("could not detect a monotone subdomain for H")


def make_derived(gauge: GaugeFunction, D: float) -> DerivedFunctions:
    """Construct H, H^-1, f, g for a gauge of index 1-D, D in (0,1)."""
    if not (0.0 < D < 1.0):
        raise ConstructionError("D must lie in (0,1); got %r" % D)
    if abs(gauge.index - (1.0 - D)) > 1e-12:
        raise ConstructionError(
            "gauge index %g does not match 1-D = %g" % (gauge.index, 1.0 - D))
    # a pure power has H = y**D, increasing on the whole domain
    y1 = gauge.domain_upper if gauge.is_pure_power else _monotone_top(gauge)
    H_y1 = y1 / gauge.h(y1)
    valid_from = max(1.0 / gauge.domain_upper, 1.0 / H_y1)
    if valid_from == math.inf:
        raise ConstructionError("domain_upper %g too small" % gauge.domain_upper)
    ln_H_floor = _ln_H(gauge, float(D), np.array([_U_FLOOR]))[0][0]
    return DerivedFunctions(gauge=gauge, D=float(D), y1=float(y1),
                            valid_from=float(valid_from), H_y1=float(H_y1),
                            ln_H_floor=float(ln_H_floor))


# -- JSON wire format ------------------------------------------------------


def gauge_to_json(gauge: GaugeFunction) -> dict:
    return {
        "form": "powerlog",
        "rho": gauge.index,
        "log_exponents": list(gauge.log_exponents),
        "domain_upper": gauge.domain_upper,
    }


# each gauge form: the rows of its keys besides "form", and its constructor
_FORMS = {"powerlog": ({"rho": (number, REQUIRED), "log_exponents": (numbers, ()),
                        "domain_upper": (number, None)}, power_log)}


def gauge_from_json(spec: dict, path: str = "") -> GaugeFunction:
    """The gauge of a spec; ValueError names the key path, under path, of a
    key that is unknown, missing or of the wrong type."""
    return read_kind(spec, "form", _FORMS, path, "gauge")

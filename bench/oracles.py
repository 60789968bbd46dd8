"""Checks of the program's outputs, computed apart from the program.

Nothing here imports ``fractal_strings``.  Each check returns ``Check``
records that hold the value the program gave, the value the check expects,
the tolerance and whether the value passed, so the self-tests can move an
output by just more than the stated tolerance.  README.md derives every
tolerance used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

LN2 = math.log(2.0)
D_CANTOR = math.log(2.0) / math.log(3.0)

# What the benchmark knows about each bundled example, from the paper's
# closed forms and not from the program: family, dimension D, and the
# constant L with l_j ~ L g(j).  For the a-string, l_j = j^-a - (j+1)^-a
# ~ a j^-(a+1) and g(j) = j^-1/D with D = 1/(a+1), so L = a.
EXAMPLES = {
    "a_string_0.5": ("a_string", 1.0 / 1.5, 0.5),
    "a_string_1": ("a_string", 0.5, 1.0),
    "a_string_2": ("a_string", 1.0 / 3.0, 2.0),
    "cantor": ("cantor", D_CANTOR, None),
    "profile_power_D0.3": ("power", 0.3, 1.0),
    "profile_power_D0.5": ("power", 0.5, 1.0),
    "profile_power_D0.7": ("power", 0.7, 1.0),
    "profile_log_D0.3": ("log", 0.3, 1.0),
    "profile_log_D0.5": ("log", 0.5, 1.0),
    "profile_log_D0.7": ("log", 0.7, 1.0),
}

# Cantor band: the trailing samples sit within 0.48% of the band ends (head
# correction u 2^-n/(1+u) at depth n = 6, u = 0.44), so 0.5% holds them.
CANTOR_BAND_REL = 0.005
# Slack for float rounding in the program's trailing zeta-side ratios: the
# program sums about 10^3 head terms and one Euler-Maclaurin tail, each
# good to about 1e-12 relative.
ZETA_RATIO_SLACK = 1e-6
# Log-profile content: the continuum prediction is exact, and the neglected
# discreteness terms are below 1/t* < 1e-8 at the trailing scales.
LOG_CONTENT_TOL = 1e-4
# Remainder identity phi - N = delta(sqrt(lambda)/pi), as the program's
# tests state it.
IDENTITY_REL = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    expected: float
    tol: float
    ok: bool

    def describe(self) -> str:
        return "%s: got %r, expected %r within %r" % (
            self.name, self.value, self.expected, self.tol)


def _rel_check(name, value, expected, tol) -> Check:
    ok = math.isfinite(value) and abs(value - expected) <= tol * abs(expected)
    return Check(name, float(value), float(expected), float(tol), bool(ok))


def _flag_check(name, value, expected) -> Check:
    return Check(name, value, expected, 0.0, value == expected)


def content_limit(D: float, L: float) -> float:
    """M = 2^(1-D) L^D / (1-D), the Minkowski content for l_j ~ L j^-1/D."""
    return 2.0 ** (1.0 - D) * L ** D / (1.0 - D)


def cantor_band(D: float = D_CANTOR):
    """Ends of the oscillation band of V(eps)/eps^(1-D) for the middle-thirds
    string: [2^(1-D) D^-D (1-D)^(D-1), 2^(2-D)]."""
    return (2.0 ** (1.0 - D) * D ** -D * (1.0 - D) ** (D - 1.0),
            2.0 ** (2.0 - D))


def trailing(values):
    """The trailing third of a sample grid, as the program's classifiers
    take it."""
    return values[-max(3, len(values) // 3):]


def eps_grid(grids: dict) -> np.ndarray:
    return grids["eps0"] * grids["q"] ** np.arange(grids["n"])


def lam_grid(grids: dict) -> np.ndarray:
    return grids["lam0"] * grids["lam_factor"] ** np.arange(grids["lam_n"])


def log_content_ratio(D: float, L: float, eps: float) -> float:
    """V(eps)/h(eps) for l_j = L g(j), h(y) = y^(1-D) log(1/y), in the
    continuum limit: M (1 + (1/(1-D) - ln 2)/log(1/eps)) (README derives it)."""
    return content_limit(D, L) * (1.0 + (1.0 / (1.0 - D) - LN2) / math.log(1.0 / eps))


def _length_mp(family: str, D: float, L: float, j: int):
    if family == "a_string":  # L = a
        return mpmath.mpf(j) ** -L - mpmath.mpf(j + 1) ** -L
    return L * mpmath.mpf(j) ** (-1.0 / D)


def packing_defect_reference(family: str, D: float, L: float, x: float) -> float:
    """delta(x) = sum_j {l_j x} with 30-digit arithmetic and a closed-form
    tail, for the a-strings (telescoping tail) and the pure-power profiles
    (Hurwitz zeta tail)."""
    with mpmath.workdps(30):
        mx = mpmath.mpf(x)
        inv = 1 / mx
        head = mpmath.mpf(0)
        j = 1
        while True:
            lj = _length_mp(family, D, L, j)
            if lj <= inv:
                break
            p = lj * mx
            head += p - mpmath.floor(p)
            j += 1
        # j is now J + 1, the first index of the tail
        if family == "a_string":
            tail = mpmath.mpf(j) ** -L
        else:
            tail = L * mpmath.zeta(1.0 / D, j)
        return float(head + mx * tail)


class VerifyOracle:
    """Expected values for one bundled example's ``fstring verify`` report.

    The grids are the program's inputs and are read from the report's
    config; every expected value is computed here.
    """

    def __init__(self, name: str, config: dict):
        family, D, L = EXAMPLES[name]
        self.family, self.D, self.L = family, D, L
        self.eps_trailing = trailing(eps_grid(config["grids"]))
        if family in ("a_string", "power"):
            lam = float(lam_grid(config["grids"])[-1])
            x = math.sqrt(lam) / math.pi
            delta = packing_defect_reference(family, D, L, x)
            self.delta_target = -float(mpmath.zeta(D)) * L ** D
            self.remainder_target = math.pi ** -D * self.delta_target
            self.delta_exact = delta / x ** D
            self.remainder_exact = delta / math.sqrt(lam) ** D

    def checks(self, payload: dict):
        report = payload["report"]
        config = payload["config"]
        A = report["assertions"]
        out = [_rel_check("D", config["D"], self.D, 1e-12),
               _flag_check("part1_consistent", report["part1_consistent"], True),
               _flag_check("part2_consistent", report["part2_consistent"], True)]
        lo = A["i"]["evidence"]["lower"]
        hi = A["i"]["evidence"]["upper"]
        mid = 0.5 * (lo + hi)
        if self.family == "cantor":
            band_lo, band_hi = cantor_band(self.D)
            out.append(_rel_check("minkowski_lower", lo, band_lo, CANTOR_BAND_REL))
            out.append(_rel_check("minkowski_upper", hi, band_hi, CANTOR_BAND_REL))
            # u^(D-1) (1+u) <= 2 on [1/3, 1] and the head correction is
            # negative, so no sample reaches the top of the band
            out.append(Check("minkowski_upper_below_band_top", hi, band_hi, 0.0,
                             hi < band_hi))
            for key in ("vi", "vii", "viii"):
                out.append(_flag_check("assertion_%s_rejected" % key,
                                       A[key]["compatible"], False))
            return out
        for key in ("vi", "vii", "viii"):
            out.append(_flag_check("assertion_%s_accepted" % key,
                                   A[key]["compatible"], True))
        if self.family == "log":
            ends = [log_content_ratio(self.D, self.L, e)
                    for e in (self.eps_trailing[0], self.eps_trailing[-1])]
            out.append(_rel_check("minkowski_midpoint", mid, 0.5 * sum(ends),
                                  LOG_CONTENT_TOL))
            return out
        # 1/t* at the coarsest trailing scale, t* = (2 eps / L)^-D
        tol = (2.0 * self.eps_trailing[0] / self.L) ** self.D
        out.append(_rel_check("minkowski_midpoint", mid,
                              content_limit(self.D, self.L), tol))
        delta_ratio = A["iv"]["evidence"]["values"][-1]
        rem_ratio = A["v"]["evidence"]["values"][-1]
        for name, value, target, exact in (
                ("delta_ratio", delta_ratio, self.delta_target, self.delta_exact),
                ("remainder_ratio", rem_ratio, self.remainder_target,
                 self.remainder_exact)):
            # near the limit, by as much as the reference is ...
            tol = abs(exact - target) / abs(target) + ZETA_RATIO_SLACK
            out.append(_rel_check(name + "_trailing", value, target, tol))
            # ... and equal to the reference up to float rounding
            out.append(_rel_check(name + "_exact", value, exact, ZETA_RATIO_SLACK))
        return out


# -- spectral counts --------------------------------------------------------


def exact_floor(length: float, x: float) -> int:
    """floor(l x) over the rationals, for the floats l and x."""
    return math.floor(Fraction(length) * Fraction(x))


def exact_count_blocks(blocks, x: float) -> int:
    """sum_b m_b floor(l_b x) in exact rational arithmetic; ``blocks`` holds
    (float length, int multiplicity) pairs."""
    fx = Fraction(x)
    return sum(m * math.floor(Fraction(l) * fx) for l, m in blocks)


def exact_count_lengths(lengths: np.ndarray, x: float) -> int:
    """sum_j floor(l_j x) in exact rational arithmetic.

    The float product p = fl(l x) lies within spacing(p) of l x, so its
    floor can differ from the exact one only when p lies within spacing(p)
    of an integer.  Those products (and all products at or above 2^52) are
    recomputed with Fraction; the rest take floor(p).
    """
    p = lengths * x
    near = np.abs(p - np.rint(p)) <= np.spacing(np.abs(p))
    far = np.floor(p[~near]).astype(np.int64)
    total = int(far.sum())
    for length in lengths[near]:
        total += exact_floor(float(length), x)
    return total


def spectral_checks(count: int, weyl: float, delta: float, exact: int):
    """The remainder identity and the exact count for one (string, lambda)."""
    resid = (weyl - count) - delta
    return [Check("remainder_identity", float(resid), 0.0,
                  IDENTITY_REL * max(1.0, weyl),
                  abs(resid) <= IDENTITY_REL * max(1.0, weyl)),
            Check("exact_count", count, exact, 0.0, count == exact)]

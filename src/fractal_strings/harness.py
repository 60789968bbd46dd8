"""Experiment runner: wires gauges, strings, geometry and spectrum into the
joint verification suite and produces machine-readable reports.

A verification run samples five asymptotic-similarity assertions (contents,
boundary counts, length decay, packing defect, spectral remainder) plus the
three measurability assertions and their shared constant.  The runner never
proves a limit; it reports per-assertion evidence and consistency flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Optional

import numpy as np

from .gauge import gauge_from_json, gauge_to_json, make_derived, power_log
from .geometry import (DEFAULT_BAND, ScaleGrid, cantor_grid, classify_ratio,
                       content_estimates, trailing_third)
from .spec import REQUIRED, count, json_object, number, read
from .spectral import ZetaContext, _lambdas, second_term_probe
from .strings import string_from_json

_COMPAT_CONTENT = ("measurable", "nondegenerate")
_COMPAT_RATIO = ("equivalent", "similar")
_DRIFT_TOL = 0.1


# the grid settings under "grids": their types and defaults
_GRIDS = {
    "eps0": (number, 2.0 ** -10), "q": (number, 0.5), "n": (count, 31),
    "lam0": (number, 1e3), "lam_factor": (number, 4.0), "lam_n": (count, 12),
    # non-dyadic factor so lattice strings are sampled at varied phases
    "j0": (count, 16), "j_factor": (number, 2.3), "j_n": (count, 12),
}
# a config's keys, in the order of ExperimentConfig's fields; build()
# reads "string" and "gauge"
_CONFIG = {"string": (json_object, REQUIRED), "gauge": (json_object, REQUIRED),
           "D": (number, REQUIRED), "grids": (_GRIDS, {}),
           "band": (number, DEFAULT_BAND)}


@dataclass(frozen=True)
class ExperimentConfig:
    """A run's settings.  ``grids`` holds every key of ``_GRIDS``: the
    constructor fills the keys left out with their defaults."""
    string_spec: dict
    gauge_spec: dict
    D: float
    grids: dict = field(default_factory=dict)
    band: float = DEFAULT_BAND

    def __post_init__(self):
        self._settle(read(dict(zip(_CONFIG, (self.string_spec, self.gauge_spec, self.D,
                                             self.grids, self.band))), _CONFIG))

    def _settle(self, values: dict) -> "ExperimentConfig":
        """Set the fields to read values; check the band, then the grids."""
        if not 0.0 < values["band"] < 1.0:
            raise ValueError("band must lie in (0, 1), not %r" % values["band"])
        for f, value in zip(fields(self), values.values()):
            object.__setattr__(self, f.name, value)
        try:
            self.eps_grid()
            # an overflowing grid is refused below, without numpy's warning
            with np.errstate(over="ignore"):
                _lambdas(self.lam_grid())
        except ValueError as exc:
            raise ValueError("grids: %s" % exc) from exc
        return self

    @classmethod
    def from_json(cls, spec) -> "ExperimentConfig":
        """Read a config payload; ValueError names the path of a key that
        is unknown, missing or of the wrong type, or of a grid fault."""
        return object.__new__(cls)._settle(read(spec, _CONFIG))

    def build(self):
        """(gauge, its derived functions at D, string) of this config; a
        profile string of an equal gauge at the same D lends its own."""
        gauge = gauge_from_json(self.gauge_spec, "gauge")
        string = string_from_json(self.string_spec, "string")
        derived = string.profile and string.profile[1]
        if not derived or (derived.gauge, derived.D) != (gauge, self.D):
            derived = make_derived(gauge, self.D)
        return gauge, derived, string

    def to_json(self) -> dict:
        return {"string": self.string_spec, "gauge": self.gauge_spec,
                "D": self.D, "grids": dict(self.grids), "band": self.band}

    def eps_grid(self) -> ScaleGrid:
        g = self.grids
        return ScaleGrid.geometric(g["eps0"], g["q"], g["n"])

    def lam_grid(self) -> np.ndarray:
        g = self.grids
        return g["lam0"] * g["lam_factor"] ** np.arange(g["lam_n"])


@dataclass
class AssertionResult:
    label: str
    checked: bool
    verdict: str
    compatible: Optional[bool]
    evidence: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"label": self.label, "checked": self.checked,
                "verdict": self.verdict, "compatible": self.compatible,
                "evidence": self.evidence}


@dataclass
class VerificationReport:
    assertions: Dict[str, AssertionResult]
    part1_consistent: bool
    part2_consistent: bool
    flags: list
    constants: dict

    def to_json(self) -> dict:
        return {
            "assertions": {k: v.to_json() for k, v in sorted(self.assertions.items())},
            "part1_consistent": self.part1_consistent,
            "part2_consistent": self.part2_consistent,
            "flags": self.flags,
            "constants": self.constants,
        }


def _slope(verdict):
    """The drift slope, or None (JSON null) where the samples have no fit."""
    return verdict.drift_slope if math.isfinite(verdict.drift_slope) else None


def _inapplicable(label: str, reason: Optional[str]) -> AssertionResult:
    return AssertionResult(label, False, "inapplicable", None,
                           {"reason": reason} if reason else {})


def _ratio_assertion(label: str, num, den, grid: ScaleGrid, band: float) -> AssertionResult:
    verdict = classify_ratio(num, den, grid, band=band)
    cls = verdict.verdict
    if cls == "similar" and abs(verdict.drift_slope) > _DRIFT_TOL:
        cls = "neither"  # trailing samples still drifting to 0 or infinity
    return AssertionResult(
        label=label, checked=True, verdict=cls,
        compatible=cls in _COMPAT_RATIO,
        evidence={"liminf": verdict.lower, "limsup": verdict.upper,
                  "raw_classification": verdict.verdict,
                  "drift_slope": _slope(verdict),
                  "values": verdict.values.tolist()})


def run_verify(config: ExperimentConfig) -> VerificationReport:
    gauge, derived, string = config.build()
    D, band = config.D, config.band
    flags = []
    assertions: Dict[str, AssertionResult] = {}

    # (i)/(vi) Minkowski content, (ii)/(vii) S-content: nondegenerate, measurable
    grid = config.eps_grid()
    mink, sest = content_estimates(string, gauge, grid, band=band)
    skipped = grid.scales.size - sest.scales.size
    if skipped:
        flags.append("skipped-scales: %d of %d S samples left out, where J(2 eps) "
                     "or h' vanishes" % (skipped, grid.scales.size))
    for est, name, part1, part2 in ((mink, "h-Minkowski", "i", "vi"),
                                    (sest, "h'-S", "ii", "vii")):
        bounds = {"lower": est.lower, "upper": est.upper}
        assertions[part1] = AssertionResult(
            name + " nondegeneracy", True, est.verdict,
            est.verdict in _COMPAT_CONTENT, dict(bounds, drift_slope=_slope(est)))
        assertions[part2] = AssertionResult(
            name + " measurability", True, est.verdict,
            est.verdict == "measurable", bounds)

    # (iii) l_j against g(j), (viii) l_j ~ L g(j), on one j grid
    g = config.grids
    js = np.unique(np.round(g["j0"] * g["j_factor"] ** np.arange(g["j_n"])).astype(int))
    js = js[js >= max(1, int(math.ceil(derived.valid_from)))]
    count = string.count()
    if count is not None:
        js = js[js <= count]
    L_hat = None
    if js.size >= 9:
        j_grid = ScaleGrid(scales=js.astype(float))
        g_vals = derived.g(j_grid.scales)
        # a profile over derived has l_j = L g(j) on the grid: one solve
        lengths = (string.profile[0] * g_vals if string.profile and string.profile[1] is derived
                   else string.length(js))
        assertions["iii"] = _ratio_assertion(
            "l_j against g(j)", lengths, g_vals, j_grid, band)
        L_hat = float(np.median(trailing_third(lengths / g_vals)))
        v8 = classify_ratio(lengths, L_hat * g_vals, j_grid, band=band)
        assertions["viii"] = AssertionResult(
            "l_j ~ L g(j)", True, v8.verdict, v8.verdict == "equivalent",
            {"L_hat": L_hat, "liminf": v8.lower, "limsup": v8.upper})
    else:
        assertions["iii"] = _inapplicable("l_j against g(j)",
                                          "string too short for the j grid")
        assertions["viii"] = _inapplicable("l_j ~ L g(j)", None)

    # (iv) packing defect against f(x), (v) spectral remainder against f(sqrt(lam))
    records = second_term_probe(string, derived, config.lam_grid())
    lams = np.array([r.lam for r in records])
    for key, label, ratio, scales in (
            ("iv", "delta(x) against f(x)", "delta_ratio", np.sqrt(lams) / math.pi),
            ("v", "phi - N against f(sqrt(lambda))", "remainder_ratio", lams)):
        if len(records) >= 9:
            assertions[key] = _ratio_assertion(
                label, [getattr(r, ratio) for r in records], np.ones(lams.size),
                ScaleGrid(scales=scales), band)
        else:
            assertions[key] = _inapplicable(label, "lambda grid below valid_from")

    if mink.verdict == "degenerate":
        flags.append("degenerate-regime: gauge index does not match the string")

    # consistency meta-checks
    consistent = {}
    for part, keys in (("I", ("i", "ii", "iii", "iv", "v")),
                       ("II", ("vi", "vii", "viii"))):
        consistent[part] = len({assertions[k].compatible for k in keys
                                if assertions[k].checked}) <= 1
        if not consistent[part]:
            flags.append("part-%s verdicts disagree: numerical resolution suspect"
                         % part)

    constants = {"D": D, "M_estimate": mink.midpoint, "S_estimate": sest.midpoint}
    if L_hat is not None:
        ctx = ZetaContext(D=D, L=L_hat)
        constants.update({
            "L_hat": L_hat,
            "M_target_from_L": ctx.content,
            "M_vs_target_rel": abs(mink.midpoint - ctx.content) / ctx.content,
            "zeta_D": ctx.zeta_D,
            "c1D": ctx.c1D,
            "delta_ratio_target": ctx.target_delta_ratio,
            "remainder_ratio_target": ctx.target_remainder,
            "constant_identity_residual": ctx.identity_residual(),
        })
        for key, name in (("iv", "delta_ratio_trailing"),
                          ("v", "remainder_ratio_trailing")):
            if assertions[key].checked:
                constants[name] = assertions[key].evidence["values"][-1]

    return VerificationReport(assertions=assertions,
                              part1_consistent=consistent["I"],
                              part2_consistent=consistent["II"],
                              flags=flags, constants=constants)


# -- bundled example configurations ----------------------------------------


def _bundled(keep: Callable[[str], bool] = lambda name: True):
    """(name, config) of each bundled configuration whose name keep
    accepts: a configuration is built only when it is yielded."""
    for a in (0.5, 1.0, 2.0):
        name = "a_string_%g" % a
        if keep(name):
            D = 1.0 / (a + 1.0)
            yield name, ExperimentConfig(
                string_spec={"kind": "a_string", "a": a},
                gauge_spec=gauge_to_json(power_log(1.0 - D)), D=D)
    if keep("cantor"):
        D_cantor = math.log(2.0) / math.log(3.0)
        yield "cantor", ExperimentConfig(
            string_spec={"kind": "cantor"},
            gauge_spec=gauge_to_json(power_log(1.0 - D_cantor)), D=D_cantor,
            grids=dict(cantor_grid().to_json(), lam_factor=9.0))
    # log corrections decay like 1/log(1/eps); the log profiles sample deep
    # scales so the trailing spread falls inside the measurability band
    deep = {"eps0": 2.0 ** -60, "q": 0.25}
    for D in (0.3, 0.5, 0.7):
        for kind, log_exponents, grids in (("power", (), {}), ("log", (1.0,), deep)):
            name = "profile_%s_D%g" % (kind, D)
            if keep(name):
                gauge = gauge_to_json(power_log(1.0 - D, log_exponents))
                yield name, ExperimentConfig(
                    string_spec={"kind": "profile", "L": 1.0, "gauge": gauge},
                    gauge_spec=gauge, D=D, grids=grids)


def bundled_examples() -> Dict[str, ExperimentConfig]:
    """Reference configurations spanning measurable, oscillating and
    log-corrected regimes."""
    return dict(_bundled())


def bundled_example(name: str) -> ExperimentConfig:
    """The bundled configuration called name, built alone; ValueError
    listing the names for any other name."""
    for _, config in _bundled(lambda candidate: candidate == name):
        return config
    raise ValueError("unknown example %r (have: %s)"
                     % (name, ", ".join(sorted(bundled_examples()))))

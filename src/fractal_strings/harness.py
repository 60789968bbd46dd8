"""Experiment runner: wires gauges, strings, geometry and spectrum into the
joint verification suite and produces machine-readable reports.

A verification run samples five asymptotic-similarity assertions (contents,
boundary counts, length decay, packing defect, spectral remainder) plus the
three measurability assertions and their shared constant.  The runner never
proves a limit; it reports per-assertion evidence and consistency flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .gauge import gauge_from_json, make_derived
from .geometry import (DEFAULT_BAND, ScaleGrid, cantor_grid, classify_ratio,
                       content_estimates, trailing_third)
from .spectral import ZetaContext, second_term_probe
from .strings import string_from_json

_COMPAT_CONTENT = ("measurable", "nondegenerate")
_COMPAT_RATIO = ("equivalent", "similar")
_DRIFT_TOL = 0.1


# JSON key under "grids" -> (ExperimentConfig field, type)
_GRID_FIELDS = {
    "eps0": ("eps0", float), "q": ("eps_ratio", float), "n": ("eps_n", int),
    "lam0": ("lam0", float), "lam_factor": ("lam_factor", float),
    "lam_n": ("lam_n", int), "j0": ("j0", int), "j_factor": ("j_factor", float),
    "j_n": ("j_n", int),
}

_CONFIG_KEYS = ("string", "gauge", "D", "grids", "band")


@dataclass(frozen=True)
class ExperimentConfig:
    string_spec: dict
    gauge_spec: dict
    D: float
    eps0: float = 2.0 ** -10
    eps_ratio: float = 0.5
    eps_n: int = 31
    lam0: float = 1e3
    lam_factor: float = 4.0
    lam_n: int = 12
    # non-dyadic factor so lattice strings are sampled at varied phases
    j0: int = 16
    j_factor: float = 2.3
    j_n: int = 12
    band: float = DEFAULT_BAND

    @classmethod
    def from_json(cls, spec: dict) -> "ExperimentConfig":
        """Read a config; keys it leaves out keep the dataclass defaults,
        and ValueError names any key the format does not define."""
        grids = spec.get("grids", {})
        unknown = sorted(set(spec) - set(_CONFIG_KEYS))
        unknown += ["grids." + key for key in sorted(set(grids) - set(_GRID_FIELDS))]
        if unknown:
            raise ValueError("unknown config key(s): %s" % ", ".join(unknown))
        kw = {name: kind(grids[key])
              for key, (name, kind) in _GRID_FIELDS.items() if key in grids}
        if "band" in spec:
            kw["band"] = float(spec["band"])
        return cls(string_spec=spec["string"], gauge_spec=spec["gauge"],
                   D=float(spec["D"]), **kw)

    def build(self):
        """(gauge, its derived functions at D, string) of this config."""
        gauge = gauge_from_json(self.gauge_spec)
        string = string_from_json(self.string_spec)
        return gauge, make_derived(gauge, self.D), string

    def to_json(self) -> dict:
        return {
            "string": self.string_spec,
            "gauge": self.gauge_spec,
            "D": self.D,
            "grids": {key: getattr(self, name)
                      for key, (name, _) in _GRID_FIELDS.items()},
            "band": self.band,
        }

    def eps_grid(self) -> ScaleGrid:
        return ScaleGrid.geometric(self.eps0, self.eps_ratio, self.eps_n)

    def lam_grid(self) -> np.ndarray:
        return self.lam0 * self.lam_factor ** np.arange(self.lam_n)


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
    mink, sest = content_estimates(string, gauge, config.eps_grid(), band=band)
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
    js = np.unique(np.round(config.j0 * config.j_factor ** np.arange(config.j_n)).astype(int))
    js = js[js >= max(1, int(math.ceil(derived.valid_from)))]
    count = string.count()
    if count is not None:
        js = js[js <= count]
    L_hat = None
    if js.size >= 9:
        j_grid = ScaleGrid(scales=js.astype(float))
        lengths = string.length(js)
        g_vals = derived.g(j_grid.scales)
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


def _powerlog(D: float, log_exponents=(), domain_upper: float = 1.0) -> dict:
    """The spec of the gauge of index 1 - D with the given log exponents."""
    return {"form": "powerlog", "rho": 1.0 - D,
            "log_exponents": list(log_exponents), "domain_upper": domain_upper}


def bundled_examples() -> Dict[str, ExperimentConfig]:
    """Reference configurations spanning measurable, oscillating and
    log-corrected regimes."""
    configs: Dict[str, ExperimentConfig] = {}
    for a in (0.5, 1.0, 2.0):
        D = 1.0 / (a + 1.0)
        configs["a_string_%g" % a] = ExperimentConfig(
            string_spec={"kind": "a_string", "a": a}, gauge_spec=_powerlog(D), D=D)
    D_cantor = math.log(2.0) / math.log(3.0)
    grid = cantor_grid()
    configs["cantor"] = ExperimentConfig(
        string_spec={"kind": "cantor"}, gauge_spec=_powerlog(D_cantor),
        D=D_cantor,
        eps0=float(grid.scales[0]),
        eps_ratio=float(grid.scales[1] / grid.scales[0]),
        eps_n=int(grid.scales.size),
        lam0=1e3, lam_factor=9.0, lam_n=12)
    # log corrections decay like 1/log(1/eps); the log profiles sample deep
    # scales so the trailing spread falls inside the measurability band
    deep = {"eps0": 2.0 ** -60, "eps_ratio": 0.25, "eps_n": 31}
    for D in (0.3, 0.5, 0.7):
        for name, gauge, grids in (("power", _powerlog(D), {}),
                                   ("log", _powerlog(D, [1.0], 0.1), deep)):
            configs["profile_%s_D%g" % (name, D)] = ExperimentConfig(
                string_spec={"kind": "profile", "L": 1.0, "gauge": gauge},
                gauge_spec=gauge, D=D, **grids)
    return configs

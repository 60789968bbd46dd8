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
from .geometry import (DEFAULT_BAND, ScaleGrid, cantor_grid,
                       content_estimates, trailing_third)
from .karamata import classify_ratio
from .spectral import ZetaContext, spectral_point
from .strings import FractalString, string_from_json

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


def config_grids(spec: dict) -> dict:
    """The config's "grids" table; ValueError names any key the config
    format does not define, so a misspelt key is not silently ignored."""
    grids = spec.get("grids", {})
    unknown = sorted(set(spec) - set(_CONFIG_KEYS))
    unknown += ["grids." + key for key in sorted(set(grids) - set(_GRID_FIELDS))]
    if unknown:
        raise ValueError("unknown config key(s): %s" % ", ".join(unknown))
    return grids


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
        """Read a config; keys it leaves out keep the dataclass defaults."""
        grids = config_grids(spec)
        kw = {name: kind(grids[key])
              for key, (name, kind) in _GRID_FIELDS.items() if key in grids}
        if "band" in spec:
            kw["band"] = float(spec["band"])
        return cls(string_spec=spec["string"], gauge_spec=spec["gauge"],
                   D=float(spec["D"]), **kw)

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


def _ratio_assertion(label: str, f1, f2, grid: ScaleGrid, band: float) -> AssertionResult:
    verdict = classify_ratio(f1, f2, grid, band=band)
    cls = verdict.classification
    if cls == "similar" and abs(verdict.drift_slope) > _DRIFT_TOL:
        cls = "neither"  # trailing samples still drifting to 0 or infinity
    return AssertionResult(
        label=label, checked=True, verdict=cls,
        compatible=cls in _COMPAT_RATIO,
        evidence={"liminf": verdict.liminf_estimate,
                  "limsup": verdict.limsup_estimate,
                  "raw_classification": verdict.classification,
                  "drift_slope": verdict.drift_slope,
                  "values": verdict.values.tolist()})


def run_verify(config: ExperimentConfig) -> VerificationReport:
    gauge = gauge_from_json(config.gauge_spec)
    string = string_from_json(config.string_spec)
    D = config.D
    derived = make_derived(gauge, D)
    band = config.band
    flags = []
    assertions: Dict[str, AssertionResult] = {}

    # (i) Minkowski content, (ii) S-content
    eps_grid = config.eps_grid()
    mink, sest = content_estimates(string, gauge, eps_grid, band=band)
    assertions["i"] = AssertionResult(
        "h-Minkowski nondegeneracy", True, mink.verdict,
        mink.verdict in _COMPAT_CONTENT,
        {"lower": mink.lower, "upper": mink.upper, "drift_slope": mink.drift_slope})
    assertions["ii"] = AssertionResult(
        "h'-S nondegeneracy", True, sest.verdict,
        sest.verdict in _COMPAT_CONTENT,
        {"lower": sest.lower, "upper": sest.upper, "drift_slope": sest.drift_slope})

    # (iii) length decay against g(j)
    js = np.unique(np.round(config.j0 * config.j_factor ** np.arange(config.j_n)).astype(int))
    js = js[js >= max(1, int(math.ceil(derived.valid_from)))]
    count = string.count()
    if count is not None:
        js = js[js <= count]
    L_hat = None
    if js.size >= 9:
        j_grid = ScaleGrid(scales=js.astype(float))
        lengths = string.length(js)
        g_vals = derived.g(js.astype(float))
        assertions["iii"] = _ratio_assertion(
            "l_j against g(j)", lambda t: lengths, lambda t: g_vals, j_grid, band)
        L_hat = float(np.median(trailing_third(lengths / g_vals)))
    else:
        assertions["iii"] = AssertionResult(
            "l_j against g(j)", False, "inapplicable", None,
            {"reason": "string too short for the j grid"})

    # (iv) packing defect against f(x), (v) spectral remainder against f(sqrt(lam))
    lams = config.lam_grid()
    xs = np.sqrt(lams) / math.pi
    usable = np.minimum(xs, np.sqrt(lams)) >= derived.valid_from
    lams, xs = lams[usable], xs[usable]
    if lams.size >= 9:
        points = [spectral_point(string, lam) for lam in lams]
        deltas = np.array([delta for _, _, delta in points])
        f_x = derived.f(xs)
        assertions["iv"] = _ratio_assertion(
            "delta(x) against f(x)", lambda t: deltas, lambda t: f_x,
            ScaleGrid(scales=xs), band)
        remainders = np.array([phi - n for n, phi, _ in points])
        f_sq = derived.f(np.sqrt(lams))
        assertions["v"] = _ratio_assertion(
            "phi - N against f(sqrt(lambda))", lambda t: remainders,
            lambda t: f_sq, ScaleGrid(scales=lams), band)
    else:
        for key, label in (("iv", "delta(x) against f(x)"),
                           ("v", "phi - N against f(sqrt(lambda))")):
            assertions[key] = AssertionResult(label, False, "inapplicable", None,
                                              {"reason": "lambda grid below valid_from"})

    degenerate_regime = mink.verdict == "degenerate"
    if degenerate_regime:
        flags.append("degenerate-regime: gauge index does not match the string")

    # part II: (vi) Minkowski measurable, (vii) S measurable, (viii) l_j ~ L g(j)
    assertions["vi"] = AssertionResult(
        "h-Minkowski measurability", True, mink.verdict,
        mink.verdict == "measurable",
        {"lower": mink.lower, "upper": mink.upper})
    assertions["vii"] = AssertionResult(
        "h'-S measurability", True, sest.verdict,
        sest.verdict == "measurable",
        {"lower": sest.lower, "upper": sest.upper})
    if L_hat is not None:
        scaled = L_hat * g_vals
        v8 = classify_ratio(lambda t: lengths, lambda t: scaled, j_grid, band=band)
        assertions["viii"] = AssertionResult(
            "l_j ~ L g(j)", True, v8.classification,
            v8.classification == "equivalent",
            {"L_hat": L_hat, "liminf": v8.liminf_estimate,
             "limsup": v8.limsup_estimate})
    else:
        assertions["viii"] = AssertionResult(
            "l_j ~ L g(j)", False, "inapplicable", None, {})

    # consistency meta-checks
    part1 = [assertions[k].compatible for k in ("i", "ii", "iii", "iv", "v")
             if assertions[k].checked]
    part1_consistent = len(set(part1)) <= 1
    if not part1_consistent:
        flags.append("part-I verdicts disagree: numerical resolution suspect")
    part2 = [assertions[k].compatible for k in ("vi", "vii", "viii")
             if assertions[k].checked]
    part2_consistent = len(set(part2)) <= 1
    if not part2_consistent:
        flags.append("part-II verdicts disagree: numerical resolution suspect")

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
        if assertions["iv"].checked:
            constants["delta_ratio_trailing"] = assertions["iv"].evidence["values"][-1]
        if assertions["v"].checked:
            constants["remainder_ratio_trailing"] = assertions["v"].evidence["values"][-1]

    return VerificationReport(assertions=assertions,
                              part1_consistent=part1_consistent,
                              part2_consistent=part2_consistent,
                              flags=flags, constants=constants)


# -- bundled example configurations ----------------------------------------


def bundled_examples() -> Dict[str, ExperimentConfig]:
    """Reference configurations spanning measurable, oscillating and
    log-corrected regimes."""
    configs: Dict[str, ExperimentConfig] = {}
    for a in (0.5, 1.0, 2.0):
        D = 1.0 / (a + 1.0)
        configs["a_string_%g" % a] = ExperimentConfig(
            string_spec={"kind": "a_string", "a": a},
            gauge_spec={"form": "powerlog", "rho": 1.0 - D,
                        "log_exponents": [], "domain_upper": 1.0},
            D=D)
    D_cantor = math.log(2.0) / math.log(3.0)
    grid = cantor_grid()
    configs["cantor"] = ExperimentConfig(
        string_spec={"kind": "cantor"},
        gauge_spec={"form": "powerlog", "rho": 1.0 - D_cantor,
                    "log_exponents": [], "domain_upper": 1.0},
        D=D_cantor,
        eps0=float(grid.scales[0]),
        eps_ratio=float(grid.scales[1] / grid.scales[0]),
        eps_n=int(grid.scales.size),
        lam0=1e3, lam_factor=9.0, lam_n=12)
    for D in (0.3, 0.5, 0.7):
        configs["profile_power_D%g" % D] = ExperimentConfig(
            string_spec={"kind": "profile", "L": 1.0,
                         "gauge": {"form": "powerlog", "rho": 1.0 - D,
                                   "log_exponents": [], "domain_upper": 1.0}},
            gauge_spec={"form": "powerlog", "rho": 1.0 - D,
                        "log_exponents": [], "domain_upper": 1.0},
            D=D)
        configs["profile_log_D%g" % D] = ExperimentConfig(
            string_spec={"kind": "profile", "L": 1.0,
                         "gauge": {"form": "powerlog", "rho": 1.0 - D,
                                   "log_exponents": [1.0], "domain_upper": 0.1}},
            gauge_spec={"form": "powerlog", "rho": 1.0 - D,
                        "log_exponents": [1.0], "domain_upper": 0.1},
            D=D,
            # log corrections decay like 1/log(1/eps); sample deep scales so
            # the trailing spread falls inside the measurability band
            eps0=2.0 ** -60, eps_ratio=0.25, eps_n=31)
    return configs

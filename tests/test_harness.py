import json
import math

import numpy as np
import pytest

from fractal_strings import ExperimentConfig, bundled_examples, run_verify
from fractal_strings import gauge, strings
from fractal_strings.cli import main

A1_CONFIG = {
    "string": {"kind": "a_string", "a": 1.0},
    "gauge": {"form": "powerlog", "rho": 0.5, "log_exponents": [],
              "domain_upper": 1.0},
    "D": 0.5,
}


def test_config_json_roundtrip_is_identity():
    cfg = ExperimentConfig.from_json(A1_CONFIG)
    again = ExperimentConfig.from_json(cfg.to_json())
    assert cfg == again
    assert json.dumps(cfg.to_json(), sort_keys=True) == \
        json.dumps(again.to_json(), sort_keys=True)


def test_config_from_json_defaults_match_dataclass():
    built = ExperimentConfig(string_spec=A1_CONFIG["string"],
                             gauge_spec=A1_CONFIG["gauge"], D=A1_CONFIG["D"])
    assert ExperimentConfig.from_json(A1_CONFIG) == built


def test_dataclass_config_json_roundtrip():
    plain = ExperimentConfig(string_spec=A1_CONFIG["string"],
                             gauge_spec=A1_CONFIG["gauge"], D=A1_CONFIG["D"])
    for cfg in (plain, *bundled_examples().values()):
        text = json.dumps(cfg.to_json())
        assert ExperimentConfig.from_json(json.loads(text)) == cfg


def test_config_rejects_unknown_keys():
    # a misspelt grid key and a key the format does not have
    spec = dict(A1_CONFIG, grids={"jfactor": 3.0}, L=3.0)
    with pytest.raises(ValueError, match=r"L, grids\.jfactor"):
        ExperimentConfig.from_json(spec)


def test_run_verify_is_deterministic():
    cfg = ExperimentConfig.from_json(A1_CONFIG)
    r1 = json.dumps(run_verify(cfg).to_json(), sort_keys=True)
    r2 = json.dumps(run_verify(cfg).to_json(), sort_keys=True)
    assert r1 == r2


def test_measurable_string_full_agreement():
    rep = run_verify(ExperimentConfig.from_json(A1_CONFIG))
    assert rep.part1_consistent and rep.part2_consistent
    assert rep.assertions["i"].verdict == "measurable"
    assert rep.assertions["viii"].verdict == "equivalent"
    assert rep.flags == []
    c = rep.constants
    assert c["L_hat"] == pytest.approx(1.0, rel=0.01)
    assert c["M_estimate"] == pytest.approx(2.0 ** 1.5, rel=0.02)
    assert c["M_vs_target_rel"] < 0.02
    assert c["constant_identity_residual"] < 1e-12


def test_lattice_string_fails_measurability_consistently():
    rep = run_verify(bundled_examples()["cantor"])
    assert rep.part1_consistent and rep.part2_consistent
    for key in ("vi", "vii", "viii"):
        assert rep.assertions[key].compatible is False
    assert rep.assertions["i"].verdict == "nondegenerate"


def test_interval_flagged_as_degenerate_regime():
    cfg = ExperimentConfig.from_json({
        "string": {"kind": "interval", "length": 1.0},
        "gauge": {"form": "powerlog", "rho": 0.5, "log_exponents": [],
                  "domain_upper": 1.0},
        "D": 0.5,
    })
    rep = run_verify(cfg)
    assert rep.assertions["i"].verdict == "degenerate"
    assert any("degenerate" in f for f in rep.flags)
    # a single length cannot populate the index grid
    assert rep.assertions["iii"].checked is False


def test_bundled_examples_cover_families():
    ex = bundled_examples()
    kinds = {cfg.string_spec["kind"] for cfg in ex.values()}
    assert {"a_string", "cantor", "profile"} <= kinds
    assert len(ex) == 10


def test_report_json_is_serializable():
    rep = run_verify(ExperimentConfig.from_json(A1_CONFIG))
    text = json.dumps(rep.to_json())
    parsed = json.loads(text)
    assert set(parsed["assertions"]) == {"i", "ii", "iii", "iv", "v",
                                         "vi", "vii", "viii"}


# -- command line front end -------------------------------------------------


def _write_config(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_verify_from_file(tmp_path, capsys):
    path = _write_config(tmp_path, A1_CONFIG)
    assert main(["verify", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["part1_consistent"] is True


def test_cli_verify_bundled_example(capsys):
    assert main(["verify", "a_string_1", "--example"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["part2_consistent"] is True


def test_cli_spectrum_csv(tmp_path, capsys):
    path = _write_config(tmp_path, A1_CONFIG)
    assert main(["spectrum", path, "--lmin", "1e4", "--lmax", "1e6",
                 "--steps", "9"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "lambda,N,phi,delta,f,remainder_ratio,delta_ratio"
    assert len(lines) == 10


def test_cli_content(tmp_path, capsys):
    path = _write_config(tmp_path, A1_CONFIG)
    assert main(["content", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["minkowski"]["verdict"] == "measurable"
    for kind in ("minkowski", "s"):
        assert set(out[kind]) == {"lower", "upper", "verdict", "kind", "grid"}
        assert out[kind]["kind"] == kind
        assert out[kind]["grid"]["n"] == 31



@pytest.mark.parametrize("payload", [
    A1_CONFIG,
    # a Minkowski spread of 0.0087: measurable at the default band 0.02
    dict(A1_CONFIG, grids={"eps0": 0.0625, "q": 0.7, "n": 20}),
    dict(A1_CONFIG, grids={"eps0": 0.0625, "q": 0.7, "n": 20}, band=0.005),
], ids=["defaults", "grid", "grid-and-band"])
def test_cli_content_equals_run_verify_contents(tmp_path, capsys, payload):
    assert main(["content", _write_config(tmp_path, payload)]) == 0
    out = json.loads(capsys.readouterr().out)
    report = run_verify(ExperimentConfig.from_json(payload))
    for kind, key in (("minkowski", "i"), ("s", "ii")):
        want = report.assertions[key]
        assert (out[kind]["lower"], out[kind]["upper"], out[kind]["verdict"]) \
            == (want.evidence["lower"], want.evidence["upper"], want.verdict)
    assert out["minkowski"]["grid"]["n"] == payload.get("grids", {}).get("n", 31)
    if "band" in payload:
        assert out["minkowski"]["verdict"] == "nondegenerate"


def test_cli_content_needs_D(tmp_path, capsys):
    payload = {key: A1_CONFIG[key] for key in ("string", "gauge")}
    with pytest.raises(SystemExit) as exc:
        main(["content", _write_config(tmp_path, payload)])
    assert exc.value.code == 2
    assert "D" in json.loads(capsys.readouterr().err)["error"]

def test_cli_content_rejects_unknown_keys(tmp_path, capsys):
    path = _write_config(tmp_path, dict(A1_CONFIG, grids={"jfactor": 3.0}, L=3.0))
    with pytest.raises(SystemExit) as exc:
        main(["content", path])
    assert exc.value.code == 2
    assert "grids.jfactor" in json.loads(capsys.readouterr().err)["error"]


def test_cli_spectrum_rejects_unknown_keys(tmp_path, capsys):
    path = _write_config(tmp_path, dict(A1_CONFIG, grids={"nn": 9}, bnad=0.05))
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", path])
    assert exc.value.code == 2
    assert ("unknown config key(s): bnad, grids.nn"
            in json.loads(capsys.readouterr().err)["error"])


def test_cli_spectrum_checks_the_lambda_range_before_the_string(tmp_path, capsys):
    # an unknown string kind would exit 2 too, naming the kind
    path = _write_config(tmp_path, dict(A1_CONFIG, string={"kind": "nope"}))
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", path, "--lmin", "1e6", "--lmax", "1e4"])
    assert exc.value.code == 2
    assert "lmin" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("part, spec, key", [
    # a misspelt depth would build the depth-96 string
    ("string", {"kind": "cantor", "dpeth": 10}, "dpeth"),
    # truncate belongs to the profile kind; an a_string would stay infinite
    ("string", {"kind": "a_string", "a": 1.0, "truncate": 5}, "truncate"),
    # a misspelt log_exponents would build a pure power
    ("gauge", {"form": "powerlog", "rho": 0.3, "log_exponent": [1.0]},
     "log_exponent"),
])
def test_cli_verify_rejects_unknown_spec_keys(tmp_path, capsys, part, spec, key):
    path = _write_config(tmp_path, dict(A1_CONFIG, **{part: spec}))
    with pytest.raises(SystemExit) as exc:
        main(["verify", path])
    assert exc.value.code == 2
    assert key in json.loads(capsys.readouterr().err)["error"]


def test_cli_zeta(capsys):
    assert main(["zeta", "--D", "0.5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["zeta_D"] == pytest.approx(-1.4603545088, abs=1e-9)
    assert out["identity_residual"] < 1e-12


def test_cli_string_inspection(tmp_path, capsys):
    path = _write_config(tmp_path, {"kind": "cantor", "depth": 10})
    assert main(["string", path, "-n", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["first_lengths"][0] == pytest.approx(1 / 3)


@pytest.mark.parametrize("spec, lengths", [
    ({"kind": "interval"}, [1.0]),
    ({"kind": "explicit", "lengths": [0.125, 0.5, 0.25]}, [0.5, 0.25, 0.125]),
])
def test_cli_string_lists_every_length_of_a_short_string(tmp_path, capsys, spec,
                                                         lengths):
    path = _write_config(tmp_path, spec)
    assert main(["string", path]) == 0  # -n 12 by default
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == len(lengths)
    assert out["first_lengths"] == lengths
    assert out["J"]["0.25"] == sum(l > 0.25 for l in lengths)


def test_cli_exit_code_for_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(bad)])
    assert exc.value.code == 2
    err = json.loads(capsys.readouterr().err)
    assert "error" in err


def test_cli_exit_code_for_bad_parameter(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--D", "1.5"])
    assert exc.value.code == 2


def test_cli_exit_code_for_unknown_example(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense", "--example"])
    assert exc.value.code == 2



BAD_GAUGE = dict(A1_CONFIG, gauge=dict(A1_CONFIG["gauge"], rho=0.4))
BAD_LENGTHS = {"kind": "explicit", "lengths": [1.0, -2.0]}


@pytest.mark.parametrize("command, payload, message", [
    ("verify", BAD_GAUGE, "does not match"),
    ("spectrum", BAD_GAUGE, "does not match"),
    ("content", dict(A1_CONFIG, string=BAD_LENGTHS), "positive"),
    ("string", BAD_LENGTHS, "positive"),
], ids=["verify-gauge", "spectrum-gauge", "content-lengths", "string-lengths"])
def test_cli_exit_code_for_construction_error(tmp_path, capsys, command,
                                              payload, message):
    with pytest.raises(SystemExit) as exc:
        main([command, _write_config(tmp_path, payload)])
    assert exc.value.code == 2
    assert message in json.loads(capsys.readouterr().err)["error"]


def test_cli_verify_writes_an_unfittable_drift_slope_as_null(tmp_path, capsys):
    # J(1) = 0 makes the S sample at eps = 0.5 zero, which has no log-log fit
    payload = {"string": {"kind": "interval", "length": 1.0},
               "gauge": A1_CONFIG["gauge"], "D": 0.5,
               "grids": {"eps0": 0.5, "q": 0.5, "n": 12}}
    assert main(["verify", _write_config(tmp_path, payload)]) == 0
    s_content = json.loads(capsys.readouterr().out)["report"]["assertions"]["ii"]
    assert s_content["verdict"] == "degenerate"
    assert s_content["evidence"]["drift_slope"] is None

@pytest.mark.parametrize("name", ["profile_log_D0.3", "profile_log_D0.5",
                                  "profile_log_D0.7"])
def test_log_profile_verify_evaluation_budget(monkeypatch, name):
    # every profile length goes through H_inv: J tests a whole grid in one
    # call, and a tail's integral needs no H_inv beyond its five closure
    # points, so a verify run makes 38 to 61 calls
    calls = []
    h_inv = gauge.DerivedFunctions.H_inv

    def counted(self, z):
        calls.append(1)
        return h_inv(self, z)

    monkeypatch.setattr(gauge.DerivedFunctions, "H_inv", counted)
    run_verify(bundled_examples()[name])
    assert 0 < len(calls) <= 200


@pytest.mark.parametrize("name", ["profile_power_D0.3", "profile_log_D0.3",
                                  "profile_power_D0.7", "profile_log_D0.7"])
def test_profile_verify_takes_tails_on_the_gauge_side(monkeypatch, name):
    def refuse(fn, a, b=math.inf):
        raise AssertionError("Gauss-Legendre tail integral on a profile")

    monkeypatch.setattr(strings, "_panel_integral", refuse)
    run_verify(bundled_examples()[name])


@pytest.mark.parametrize("name", ["a_string_1", "cantor", "profile_log_D0.5"])
def test_run_verify_takes_one_J_over_the_eps_grid(monkeypatch, name):
    # both contents read the same count J(2 eps)
    cfg = bundled_examples()[name]
    grid = 2.0 * cfg.eps_grid().scales
    calls = []

    def counted(J):
        def wrapper(self, eps):
            calls.append(np.array(eps, dtype=float))
            return J(self, eps)
        return wrapper

    for cls in (strings.ExplicitString, strings.RunLengthString,
                strings.AnalyticString):
        monkeypatch.setattr(cls, "J", counted(cls.J))
    run_verify(cfg)
    assert sum(np.array_equal(eps, grid) for eps in calls) == 1

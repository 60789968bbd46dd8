import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fractal_strings import ExperimentConfig, bundled_examples, run_verify
from fractal_strings import cli, gauge, harness, strings
from fractal_strings.cli import main

A1_CONFIG = {
    "string": {"kind": "a_string", "a": 1.0},
    "gauge": {"form": "powerlog", "rho": 0.5, "log_exponents": [],
              "domain_upper": 1.0},
    "D": 0.5,
}
PROFILE = {"kind": "profile", "L": 1.0, "gauge": A1_CONFIG["gauge"]}


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


@pytest.mark.parametrize("payload, key", [
    (dict(A1_CONFIG, D=None), "D"),
    (dict(A1_CONFIG, band=None), "band"),
    ([A1_CONFIG], "config"),
    (dict(A1_CONFIG, string="cantor"), "string"),
    (dict(A1_CONFIG, gauge=5), "gauge"),
    (dict(A1_CONFIG, grids=[]), "grids"),
    # a fractional count would be truncated to 12
    (dict(A1_CONFIG, grids={"n": 12.7}), "grids.n"),
    # a value of the wrong type inside the string or gauge spec
    (dict(A1_CONFIG, string=dict(PROFILE, gauge=5)), "string.gauge"),
    (dict(A1_CONFIG, string={"kind": "a_string", "a": None}), "string.a"),
    (dict(A1_CONFIG, string=dict(PROFILE, L=None)), "string.L"),
    (dict(A1_CONFIG, string={"kind": "cantor", "depth": None}), "string.depth"),
    (dict(A1_CONFIG, string={"kind": "interval", "length": None}), "string.length"),
    (dict(A1_CONFIG, gauge=dict(A1_CONFIG["gauge"], rho=None)), "gauge.rho"),
    (dict(A1_CONFIG, gauge=dict(A1_CONFIG["gauge"], log_exponents=None)),
     "gauge.log_exponents"),
    (dict(A1_CONFIG, gauge=dict(A1_CONFIG["gauge"], log_exponents=5)),
     "gauge.log_exponents"),
    (dict(A1_CONFIG, string=dict(PROFILE, gauge=dict(A1_CONFIG["gauge"], rho=None))),
     "string.gauge.rho"),
    # no coercion: not through float() or int(), and null is not the default
    (dict(A1_CONFIG, gauge=dict(A1_CONFIG["gauge"], rho="0.5")), "gauge.rho"),
    (dict(A1_CONFIG, string={"kind": "a_string", "a": "1.0"}), "string.a"),
    (dict(A1_CONFIG, string=dict(PROFILE, L=True)), "string.L"),
    (dict(A1_CONFIG, string={"kind": "cantor", "depth": 12.7}), "string.depth"),
    (dict(A1_CONFIG, string=dict(PROFILE, truncate=12.7)), "string.truncate"),
    (dict(A1_CONFIG, gauge=dict(A1_CONFIG["gauge"], domain_upper=None)),
     "gauge.domain_upper"),
    # a missing required key is named by its path
    (dict(A1_CONFIG, string={"kind": "a_string"}), "string.a is required"),
    ({key: A1_CONFIG[key] for key in ("gauge", "D")}, "string is required"),
    # a band is a finite number in (0, 1)
    (dict(A1_CONFIG, band=math.nan), "band"),
    (dict(A1_CONFIG, band=-1.0), "band"),
    # 3.0 ** -679 underflows to 0: refused before any block is built
    (dict(A1_CONFIG, string={"kind": "cantor", "depth": 679}),
     "string: depth must lie in 1 .. 678"),
    # a value out of its constructor's range is named by the spec's path
    (dict(A1_CONFIG, string={"kind": "a_string", "a": -1}), "string: a must be positive"),
    (dict(A1_CONFIG, string=dict(PROFILE, L=-1)), "string: L must be positive"),
    (dict(A1_CONFIG, string=dict(PROFILE, truncate=0)), "string: n must be >= 1"),
    (dict(A1_CONFIG, string={"kind": "interval", "length": -1}),
     "string: lengths must be positive"),
    (dict(A1_CONFIG, gauge=dict(A1_CONFIG["gauge"], domain_upper=-1)),
     "gauge: domain_upper must be positive"),
    (dict(A1_CONFIG, string=dict(PROFILE, gauge=dict(A1_CONFIG["gauge"], domain_upper=-1))),
     "string.gauge: domain_upper must be positive"),
    # a grid out of range is named by the grids path, at the config reader
    (dict(A1_CONFIG, grids={"q": 1.0}), "grids: ratio must be positive and != 1"),
    (dict(A1_CONFIG, grids={"n": 5}), "grids: a ScaleGrid needs at least 9 scales"),
    (dict(A1_CONFIG, grids={"lam_factor": 1e300}),
     "grids: lambda must be a non-negative finite number"),
], ids=["D-null", "band-null", "list", "string-str", "gauge-int", "grids-list",
        "fractional-count", "string.gauge-int", "string.a-null", "string.L-null",
        "string.depth-null", "string.length-null", "gauge.rho-null",
        "gauge.log_exponents-null", "gauge.log_exponents-int",
        "string.gauge.rho-null", "gauge.rho-str", "string.a-str", "string.L-bool",
        "string.depth-fractional", "string.truncate-fractional",
        "gauge.domain_upper-null", "string.a-missing", "string-missing",
        "band-nan", "band-negative", "cantor-depth-679", "string.a-negative",
        "string.L-negative", "string.truncate-0", "string.length-negative",
        "gauge.domain_upper-negative", "string.gauge.domain_upper-negative",
        "grids.q-1", "grids.n-5", "grids.lam_factor-overflow"])
def test_cli_verify_rejects_a_config_value_of_the_wrong_type(tmp_path, capsys,
                                                            payload, key):
    with pytest.raises(SystemExit) as exc:
        main(["verify", _write_config(tmp_path, payload)])
    assert exc.value.code == 2
    assert key in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("command", ["verify", "spectrum", "content"])
def test_cli_overflowing_lambda_grid_writes_one_json_object(tmp_path, command):
    # lam_factor ** k overflows to inf: in a fresh interpreter, with numpy's
    # warnings shown, stderr holds the one JSON error and nothing else
    path = _write_config(tmp_path, dict(A1_CONFIG, grids={"lam_factor": 1e300}))
    src = str(Path(harness.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "fractal_strings.cli", command, path],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2
    assert json.loads(proc.stderr) == {
        "error": "grids: lambda must be a non-negative finite number"}


def test_config_fills_the_grid_keys_left_out():
    cfg = ExperimentConfig(string_spec=A1_CONFIG["string"],
                           gauge_spec=A1_CONFIG["gauge"], D=0.5,
                           grids={"n": 20.0, "lam_factor": 9})
    assert cfg.grids["n"] == 20 and isinstance(cfg.grids["n"], int)
    assert cfg.grids["lam_factor"] == 9.0 and isinstance(cfg.grids["lam_factor"], float)
    assert cfg.grids["j_factor"] == 2.3
    assert list(cfg.to_json()["grids"]) == ["eps0", "q", "n", "lam0", "lam_factor",
                                            "lam_n", "j0", "j_factor", "j_n"]
    with pytest.raises(ValueError, match=r"grids\.jfactor"):
        ExperimentConfig(string_spec=A1_CONFIG["string"],
                         gauge_spec=A1_CONFIG["gauge"], D=0.5,
                         grids={"jfactor": 3.0})


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


def test_cli_verify_writes_the_report_as_one_line(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "a_string_1", "--example", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    cfg = bundled_examples()["a_string_1"]
    expected = {"config": cfg.to_json(), "report": run_verify(cfg).to_json()}
    assert json.loads(text) == json.loads(json.dumps(expected))


def test_cli_payload_holding_a_nan_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "zeta", lambda D: math.nan)
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--D", "0.5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    # the C encoder's message has no trailing ": nan"
    assert json.loads(captured.err)["error"].startswith(
        "Out of range float values are not JSON compliant")


def test_cli_spectrum_csv(tmp_path, capsys):
    # nine lambdas from 1e4 to 1e6
    grids = {"lam0": 1e4, "lam_factor": 10.0 ** 0.25, "lam_n": 9}
    path = _write_config(tmp_path, dict(A1_CONFIG, grids=grids))
    assert main(["spectrum", path]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "lambda,N,phi,delta,f,remainder_ratio,delta_ratio"
    assert len(lines) == 10
    assert float(lines[1].split(",")[0]) == 1e4
    assert float(lines[-1].split(",")[0]) == pytest.approx(1e6, rel=1e-12)


@pytest.mark.parametrize("name", ["a_string_1", "cantor", "profile_log_D0.5"])
def test_cli_spectrum_samples_the_verify_lambda_grid(tmp_path, capsys, name):
    cfg = bundled_examples()[name]
    assert main(["spectrum", _write_config(tmp_path, cfg.to_json()),
                 "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    report = run_verify(cfg)
    for key, ratio in (("iv", "delta_ratio"), ("v", "remainder_ratio")):
        assert [row[ratio] for row in rows] == report.assertions[key].evidence["values"]
    assert len(rows) == 12
    assert [row["lambda"] for row in rows] == cfg.lam_grid().tolist()


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


def test_cli_spectrum_rejects_a_negative_lam0(tmp_path, capsys):
    path = _write_config(tmp_path, dict(A1_CONFIG, grids={"lam0": -1e3}))
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", path])
    assert exc.value.code == 2
    assert "lambda" in json.loads(capsys.readouterr().err)["error"]


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


def test_cli_string_names_the_key_of_a_bare_spec_without_a_prefix(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["string", _write_config(tmp_path, {"kind": "a_string", "a": None})])
    assert exc.value.code == 2
    assert (json.loads(capsys.readouterr().err)["error"]
            == "a must be a finite number, not None")


@pytest.mark.parametrize("L", ["-1", "0", "nan", "inf"])
def test_cli_zeta_rejects_an_L_that_is_not_positive_and_finite(capsys, monkeypatch, L):
    # the check comes before any constant is computed
    for name in ("w_k", "zeta"):
        monkeypatch.setattr(cli, name, None)
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--D", "0.5", "--L", L])
    assert exc.value.code == 2
    assert "L must be" in json.loads(capsys.readouterr().err)["error"]


def test_cli_string_inspection(tmp_path, capsys):
    path = _write_config(tmp_path, {"kind": "cantor", "depth": 10})
    assert main(["string", path, "-n", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["first_lengths"][0] == pytest.approx(1 / 3)


def test_cli_string_reads_a_whole_config_through_the_config_reader(tmp_path,
                                                                  capsys):
    bare = _write_config(tmp_path, A1_CONFIG["string"])
    assert main(["string", bare]) == 0
    want = capsys.readouterr().out
    whole = tmp_path / "whole.json"
    whole.write_text(json.dumps(A1_CONFIG))
    assert main(["string", str(whole)]) == 0
    assert capsys.readouterr().out == want
    whole.write_text(json.dumps({"string": A1_CONFIG["string"], "bogus": 1,
                                 "D": "x"}))
    with pytest.raises(SystemExit) as exc:
        main(["string", str(whole)])
    assert exc.value.code == 2
    assert "bogus" in json.loads(capsys.readouterr().err)["error"]
    whole.write_text(json.dumps([A1_CONFIG["string"]]))
    with pytest.raises(SystemExit) as exc:
        main(["string", str(whole)])
    assert exc.value.code == 2
    assert "JSON object" in json.loads(capsys.readouterr().err)["error"]


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


def test_cli_main_calls_in_a_row_keep_their_own_exit_code_and_output(capsys):
    # one parser serves every call in a process
    assert main(["verify"]) == 2
    first = capsys.readouterr()
    assert first.out == "" and "usage: fstring verify" in first.err
    assert main(["verify", "a_string_1", "--example"]) == 0
    second = capsys.readouterr()
    assert second.err == ""
    assert json.loads(second.out)["config"] == bundled_examples()["a_string_1"].to_json()


def test_cli_exit_code_for_unknown_example(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense", "--example"])
    assert exc.value.code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == "unknown example 'nonsense' (have: %s)" % ", ".join(
        sorted(bundled_examples()))


def test_bundled_example_builds_only_the_named_config(monkeypatch):
    examples = bundled_examples()
    built = []

    class Counted(harness.ExperimentConfig):
        def __post_init__(self):
            built.append(self.string_spec["kind"])
            super().__post_init__()

    monkeypatch.setattr(harness, "ExperimentConfig", Counted)
    for name, config in examples.items():
        del built[:]
        assert harness.bundled_example(name).to_json() == config.to_json()
        assert len(built) == 1



BAD_GAUGE = dict(A1_CONFIG, gauge=dict(A1_CONFIG["gauge"], rho=0.4))
BAD_LENGTHS = {"kind": "explicit", "lengths": [1.0, -2.0]}


@pytest.mark.parametrize("command, payload, message", [
    ("verify", BAD_GAUGE, "does not match"),
    ("spectrum", BAD_GAUGE, "does not match"),
    ("content", dict(A1_CONFIG, string=BAD_LENGTHS), "positive"),
    ("string", BAD_LENGTHS, "positive"),
    # content and string build the whole config too, gauge and D included
    ("content", dict(A1_CONFIG, D=0.3), "does not match"),
    ("string", BAD_GAUGE, "does not match"),
], ids=["verify-gauge", "spectrum-gauge", "content-lengths", "string-lengths",
        "content-D", "string-gauge"])
def test_cli_exit_code_for_construction_error(tmp_path, capsys, command,
                                              payload, message):
    with pytest.raises(SystemExit) as exc:
        main([command, _write_config(tmp_path, payload)])
    assert exc.value.code == 2
    assert message in json.loads(capsys.readouterr().err)["error"]


def test_cli_verify_writes_an_unfittable_drift_slope_as_null(tmp_path, capsys):
    # h' = h/y (1/2 - 2/ln(1/y)) < 0 at eps = 0.1, 0.05 and 0.025 makes
    # those S samples negative, which have no log-log fit
    payload = {"string": {"kind": "interval", "length": 1.0},
               "gauge": {"form": "powerlog", "rho": 0.5, "log_exponents": [2.0],
                         "domain_upper": 0.1}, "D": 0.5,
               "grids": {"eps0": 0.1, "q": 0.5, "n": 12}}
    assert main(["verify", _write_config(tmp_path, payload)]) == 0
    s_content = json.loads(capsys.readouterr().out)["report"]["assertions"]["ii"]
    assert s_content["verdict"] == "degenerate"
    assert s_content["evidence"]["drift_slope"] is None


def test_scales_outside_the_string_are_left_out_of_the_S_samples():
    # l_1 = 1/2: J(2 eps) = 0 at eps0 = 0.3 only, which once made (ii)/(vii)
    # "degenerate" with both consistency flags
    cfg = ExperimentConfig.from_json(dict(A1_CONFIG, grids={"eps0": 0.3}))
    rep = run_verify(cfg)
    for key in ("ii", "vii"):
        assert rep.assertions[key].verdict == "measurable"
    assert rep.assertions["ii"].evidence["drift_slope"] == pytest.approx(-0.0142, abs=1e-4)
    assert rep.part1_consistent and rep.part2_consistent
    assert rep.flags == ["skipped-scales: 1 of 31 S samples left out, where "
                         "J(2 eps) or h' vanishes"]


@pytest.mark.parametrize("name", ["profile_log_D0.3", "profile_log_D0.5",
                                  "profile_log_D0.7"])
def test_log_profile_verify_evaluation_budget(monkeypatch, name):
    # every profile length goes through H_inv: J tests a whole grid in one
    # call and its gallops read one window, and a tail's integral needs no
    # H_inv beyond its five closure points, so a verify run makes 8 to 10
    # calls, and past the build none of one element
    sizes, built = [], []
    h_inv = gauge.DerivedFunctions.H_inv
    build = ExperimentConfig.build

    def counted(self, z):
        sizes.append((np.size(z), bool(built)))
        return h_inv(self, z)

    def recorded(self):
        out = build(self)
        built.append(True)
        return out

    monkeypatch.setattr(gauge.DerivedFunctions, "H_inv", counted)
    monkeypatch.setattr(ExperimentConfig, "build", recorded)
    run_verify(bundled_examples()[name])
    assert 0 < len(sizes) <= 10
    assert (1, True) not in sizes


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

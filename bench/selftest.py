"""Tests of the benchmark's own checks: each oracle accepts the program's
output and rejects a mutated copy of it.

    python3 bench/selftest.py

Runs in about five seconds; it calls the program for four bundled examples
and a few spectral evaluations.
"""

import copy
import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
import rounds  # noqa: E402
from fractal_strings import cli, spectral, strings  # noqa: E402

_REPORTS = {}


def _report(name):
    if name not in _REPORTS:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "report.json")
            assert cli.main(["verify", name, "--example", "--out", path]) == 0
            with open(path) as fh:
                _REPORTS[name] = json.load(fh)
    return copy.deepcopy(_REPORTS[name])


def _failed(name, payload):
    oracle = oracles.VerifyOracle(name, payload["config"])
    return {c.name for c in oracle.checks(payload) if not c.ok}


def _check(name, payload, check_name):
    oracle = oracles.VerifyOracle(name, payload["config"])
    return next(c for c in oracle.checks(payload) if c.name == check_name)


def test_program_outputs_pass():
    for name in ("a_string_1", "cantor", "profile_power_D0.3", "profile_log_D0.3"):
        assert _failed(name, _report(name)) == set(), name


def test_content_scaled_by_1_006_is_rejected():
    for name, check in (("a_string_1", "minkowski_midpoint"),
                        ("profile_power_D0.3", "minkowski_midpoint"),
                        ("profile_log_D0.3", "minkowski_midpoint"),
                        ("cantor", "minkowski_upper_below_band_top")):
        payload = _report(name)
        evidence = payload["report"]["assertions"]["i"]["evidence"]
        evidence["lower"] *= 1.006
        evidence["upper"] *= 1.006
        assert check in _failed(name, payload), name


def test_zeta_ratio_moved_past_tolerance_is_rejected():
    for name in ("a_string_1", "profile_power_D0.3"):
        for check_name, key in (("delta_ratio_trailing", "iv"),
                                ("remainder_ratio_trailing", "v")):
            base = _report(name)
            check = _check(name, base, check_name)
            assert check.ok
            for sign in (1.0, -1.0):
                payload = _report(name)
                values = payload["report"]["assertions"][key]["evidence"]["values"]
                values[-1] = check.expected * (1.0 + sign * 1.01 * check.tol)
                assert check_name in _failed(name, payload), (name, check_name, sign)


def test_zeta_ratio_moved_off_the_reference_is_rejected():
    # 1e-4 of the value toward the limit stays inside the limit check, so
    # only the comparison with the 30-digit reference sees it
    for name in ("a_string_1", "profile_power_D0.3"):
        for check_name, key in (("delta_ratio", "iv"), ("remainder_ratio", "v")):
            payload = _report(name)
            values = payload["report"]["assertions"][key]["evidence"]["values"]
            target = _check(name, payload, check_name + "_trailing").expected
            values[-1] += 1e-4 * abs(values[-1]) * math.copysign(1.0, target - values[-1])
            assert _failed(name, payload) == {check_name + "_exact"}, (name, check_name)


def test_cantor_vi_accepted_is_rejected():
    payload = _report("cantor")
    payload["report"]["assertions"]["vi"]["compatible"] = True
    assert "assertion_vi_rejected" in _failed("cantor", payload)


def _evaluate(string, lam):
    x = math.sqrt(lam) / math.pi
    return (spectral.eigen_count(string, lam), spectral.weyl_term(string, lam),
            spectral.packing_defect(string, x), x)


def test_count_off_by_one_is_rejected():
    cantor = strings.make_cantor()
    blocks = [(3.0 ** -n, 2 ** (n - 1)) for n in range(1, 97)]
    explicit = strings.make_a_string(1.0).truncate(1000)
    lengths = np.array(explicit.runs_above(0.0)[0])
    for string, lam, exact_of in (
            (cantor, 1e12, lambda x: oracles.exact_count_blocks(blocks, x)),
            (explicit, 1e14, lambda x: oracles.exact_count_lengths(lengths, x))):
        count, weyl, delta, x = _evaluate(string, lam)
        exact = exact_of(x)
        assert all(c.ok for c in oracles.spectral_checks(count, weyl, delta, exact))
        for wrong in (count + 1, count - 1):
            checks = {c.name: c.ok for c in oracles.spectral_checks(wrong, weyl, delta, exact)}
            assert checks["exact_count"] is False


def test_cantor_mismatch_fails_only_at_the_named_lambda():
    ops = [("cantor", 1e12), ("cantor", inputs.CANTOR_FAULT_LAMBDA)]
    runner = rounds.SweepRunner(inputs.Inputs(ops, {"cantor": strings.make_cantor()}))
    tally = rounds.Tally()
    runner.round(tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, {})
    runner.exact["cantor", 1e12] += 1
    tally = rounds.Tally()
    runner.round(tally)
    assert tally.failed == 1 and len(tally.wrong) == 1, tally


def test_exact_count_sees_the_float_floor_fault():
    x = math.sqrt(inputs.CANTOR_FAULT_LAMBDA) / math.pi
    third = 3.0 ** -1
    assert math.floor(third * x) == 543206908579
    assert oracles.exact_floor(third, x) == 543206908578
    assert oracles.exact_count_lengths(np.array([third]), x) == 543206908578
    count = spectral.eigen_count(strings.make_cantor(), inputs.CANTOR_FAULT_LAMBDA)
    blocks = [(3.0 ** -n, 2 ** (n - 1)) for n in range(1, 97)]
    assert count == oracles.exact_count_blocks(blocks, x) + 1


def test_exact_count_lengths_matches_fraction_sum():
    rng = np.random.default_rng(7)
    lengths = np.sort(rng.uniform(1e-6, 1.0, 2000))[::-1]
    # products that land on or next to integers
    lengths[:20] = np.nextafter(np.arange(1, 21) / 64.0, 0.0)
    for x in (64.0, 1e3 + 0.5, 3.0e9, 2.0 ** 60):
        slow = sum(oracles.exact_floor(float(v), x) for v in lengths)
        assert oracles.exact_count_lengths(lengths, x) == slow, x


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print("FAIL %s: %s" % (name, exc))
        else:
            print("ok   %s" % name)
    print("%d of %d passed" % (len(tests) - failed, len(tests)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

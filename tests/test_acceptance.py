"""End-to-end acceptance checks, one test per guaranteed behavior.

Each test prints nothing on success; pytest -v yields the per-behavior
pass/fail line.  Timing budgets are asserted where the behavior is only
useful if it is fast.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import polygamma

from fractal_strings import (AnalyticString, ExperimentConfig, ScaleGrid,
                             ZetaContext, bundled_examples, cantor_grid,
                             eigen_count, extract_representation,
                             karamata_direct, make_a_string, make_cantor,
                             content_estimates, make_derived, make_interval,
                             make_profile, packing_defect, power_log,
                             run_verify, tail_sum_rv, w_k, weyl_term, zeta,
                             zeta_from_wk)

ZETA_HALF = -1.4603545088095868


def test_weyl_remainder_equals_packing_defect_exactly():
    strings = [make_interval(1.0),
               make_cantor(depth=20),
               make_a_string(1.0).truncate(10 ** 4)]
    lams = np.geomspace(10.0, 1e8, 100)
    t0 = time.monotonic()
    for s in strings:
        for lam in lams:
            x = math.sqrt(lam) / math.pi
            phi = weyl_term(s, lam)
            resid = abs((phi - eigen_count(s, lam)) - packing_defect(s, x))
            assert resid <= 1e-9 * max(1.0, phi)
    assert time.monotonic() - t0 < 5.0


def test_measurable_packing_constant_matches_zeta_half():
    # l_j = j^-2: D = 1/2, L = 1, delta(x)/sqrt(x) -> -zeta(1/2)
    s = AnalyticString(
        length_fn=lambda j: np.asarray(j, dtype=float) ** -2.0,
        inv_hint=lambda eps: eps ** -0.5,
        tail_fn=lambda m: float(polygamma(1, m + 1)))
    t0 = time.monotonic()
    x = 1e10  # head is the 10^5 lengths above 1/x, tail is exact
    ratio = packing_defect(s, x) / math.sqrt(x)
    assert time.monotonic() - t0 < 2.0
    assert ratio == pytest.approx(1.4603545, rel=0.02)


def test_content_estimates_match_closed_form_constant():
    s = make_a_string(1.0)
    g = power_log(0.5)
    grid = ScaleGrid(scales=2.0 ** -np.arange(10, 41, dtype=float))
    t0 = time.monotonic()
    m, se = content_estimates(s, g, grid)
    assert time.monotonic() - t0 < 1.0
    target = 2.0 ** 1.5
    assert m.midpoint == pytest.approx(target, rel=0.02)
    assert se.midpoint == pytest.approx(target, rel=0.02)
    assert m.midpoint == pytest.approx(se.midpoint, rel=0.02)


def test_second_term_constant_algebraic_identity():
    for D in (0.3, 0.5, 0.7):
        for L in (0.5, 1.0, 2.0):
            assert ZetaContext(D=D, L=L).identity_residual() <= 1e-12


def test_integral_zeta_bridge_and_series_cross_check():
    t0 = time.monotonic()
    k = 10 ** 6
    for D in (0.3, 0.5, 0.7):
        defect = abs(w_k(D, k) + 1.0 / (1.0 - D) + zeta(D))
        assert defect <= 2.0 * k ** -D
    assert abs(zeta(0.5) - zeta_from_wk(0.5, k)) <= 1e-6
    assert time.monotonic() - t0 < 5.0


def test_lattice_oscillation_detected_and_measurability_rejected():
    D = math.log(2.0) / math.log(3.0)
    g = power_log(1.0 - D)
    c = make_cantor()
    grid = cantor_grid()
    t0 = time.monotonic()
    m, se = content_estimates(c, g, grid)
    assert time.monotonic() - t0 < 2.0
    for est in (m, se):
        assert 0.0 < est.lower <= est.upper < math.inf
        assert est.verdict == "nondegenerate"
    # At 2 eps = 3^-n u, u in [1/3, 1), the sampled ratios are exactly
    #   V(eps)/h(eps)      = 2^(1-D) u^(D-1) [(1+u) - u 2^-n]
    #   2 J(2 eps)/h'(eps) = 2^(1-D) u^D (1 - 2^-n) / (1-D)
    # The Minkowski band [2^(1-D) D^-D (1-D)^(D-1), 2^(2-D)] spreads by only
    # 1.0353, so the samples are checked against its ends.  The trailing
    # third of this grid spans depths n = 6..8, where the head correction
    # u 2^-n/(1+u) is at most 0.48%; the samples nearest the ends miss them
    # by 0.29% and 0.27%.
    lower = 2.0 ** (1.0 - D) * D ** -D * (1.0 - D) ** (D - 1.0)
    upper = 2.0 ** (2.0 - D)
    assert m.lower == pytest.approx(lower, rel=0.005)
    assert m.upper == pytest.approx(upper, rel=0.005)
    # u^(D-1) (1+u) <= 2 on [1/3, 1] and the head correction is negative,
    # so no sample reaches the top of the band
    assert m.upper < upper
    # the S band [2^-D, 2^(1-D)) / (1-D) spreads by 2; 16 points per period
    # can miss its supremum by a factor 2^(-1/16), i.e. a spread of 1.915
    assert se.upper / se.lower == pytest.approx(2.0, rel=0.05)
    rep = run_verify(bundled_examples()["cantor"])
    for key in ("vi", "vii", "viii"):
        assert rep.assertions[key].compatible is False


def test_verdict_agreement_across_bundled_examples():
    for name, cfg in bundled_examples().items():
        rep = run_verify(cfg)
        assert rep.part1_consistent, name
        assert rep.part2_consistent, name


def test_karamata_toolkit_meets_tolerances():
    t0 = time.monotonic()
    up = lambda u: np.asarray(u, dtype=float) ** 1.5
    down = lambda u: np.asarray(u, dtype=float) ** -3.0
    assert karamata_direct(up, 1.5, 0.0, 50.0, 1e-8) == pytest.approx(2.5, abs=1e-8)
    assert karamata_direct(down, -3.0, 0.0, 50.0, None) == pytest.approx(2.0, abs=1e-8)
    total, predicted = tail_sum_rv(
        lambda j: np.asarray(j, dtype=float) ** -2.0, -2.0, 10 ** 4)
    assert total / predicted == pytest.approx(1.0, abs=1e-3)
    ys = np.geomspace(1e-8, 0.05, 20)
    for l in (lambda y: np.ones_like(np.asarray(y, dtype=float)),
              lambda y: np.log(1.0 / np.asarray(y, dtype=float)),
              lambda y: np.log(1.0 / np.asarray(y, dtype=float)) ** 2):
        assert extract_representation(l, 0.05, ys).max_relative_residual <= 1e-8
    assert time.monotonic() - t0 < 2.0


def test_log_gauge_profile_end_to_end():
    gauge = power_log(0.5, [1.0])
    derived = make_derived(gauge, 0.5)
    # inversion self-consistency
    ys = np.geomspace(1e-30, 0.05, 30)
    assert np.max(np.abs(derived.H_inv(derived.H(ys)) / ys - 1.0)) <= 1e-10
    # content at deep scales where the 1/log(1/eps) correction has decayed
    string = make_profile(1.0, derived)
    grid = ScaleGrid(scales=2.0 ** -np.arange(50, 81, dtype=float))
    m, _ = content_estimates(string, gauge, grid)
    assert m.midpoint == pytest.approx(2.0 ** 1.5, rel=0.05)
    # packing-defect ratio drifts monotonically toward -zeta(1/2)
    xs = np.geomspace(1e2, 1e7, 11)
    ratios = np.array([packing_defect(string, x) / derived.f(x) for x in xs])
    gaps = np.abs(ratios[-4:] - (-ZETA_HALF))
    assert np.all(np.diff(gaps) < 0.0)


def test_import_loads_no_scipy():
    import fractal_strings

    src = str(Path(fractal_strings.__file__).resolve().parents[1])
    code = ("import sys; import fractal_strings; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"

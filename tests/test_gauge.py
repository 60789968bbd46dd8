import math

import mpmath
import numpy as np
import pytest

from fractal_strings import (DomainError, EvaluationError, NumericError,
                             gauge_from_json, gauge_to_json, make_derived,
                             power_log)
from fractal_strings import gauge as gauge_module
from fractal_strings.errors import ConstructionError


def test_powerlog_matches_direct_formula():
    g = power_log(0.4, [1.0, 2.0])
    y = 0.003
    expected = y ** 0.4 * math.log(1 / y) * math.log(math.log(1 / y)) ** 2
    assert g.h(y) == pytest.approx(expected, rel=1e-14)


def test_h_vectorized_agrees_with_scalar():
    g = power_log(0.5, [1.5])
    ys = np.geomspace(1e-9, 0.05, 7)
    vec = g.h(ys)
    assert vec == pytest.approx([g.h(float(y)) for y in ys], rel=1e-15)


def test_h_rejects_out_of_domain():
    g = power_log(0.5)
    with pytest.raises(DomainError):
        g.h(1.5)
    with pytest.raises(DomainError):
        g.h(-0.1)
    with pytest.raises(DomainError):
        g.h(np.array([0.5, 0.0]))
    # a NaN passes the domain check and fails the value check
    for gauge in (g, power_log(0.5, [1.0])):
        for y, error in ((0.0, DomainError), (-1.0, DomainError), (1.5, DomainError),
                         (math.inf, DomainError), (-math.inf, DomainError),
                         (math.nan, EvaluationError)):
            for arg in (y, np.array([0.05, y])):
                with pytest.raises(Exception) as exc:
                    gauge.h(arg)
                assert type(exc.value) is error, (gauge, y)


def test_log_gauge_needs_small_domain():
    with pytest.raises(ConstructionError):
        power_log(0.5, [1.0], domain_upper=1.0)  # ln(1/1) = 0


def test_elasticity_closed_form():
    # E_h(y) = rho - sum_i alpha_i / prod_{m<=i} L_m
    g = power_log(0.3, [2.0])
    y = 1e-4
    L1 = math.log(1 / y)
    assert g.elasticity(y) == pytest.approx(0.3 - 2.0 / L1, rel=1e-13)
    assert power_log(0.7).elasticity(0.2) == 0.7


def test_elasticity_tends_to_index():
    g = power_log(0.5, [1.0])
    vals = g.elasticity(np.array([1e-3, 1e-30, 1e-200]))
    assert abs(vals[-1] - 0.5) < abs(vals[0] - 0.5)
    assert vals[-1] == pytest.approx(0.5, abs=3e-3)  # 1/ln(1e200)


def test_dh_closed_form_vs_difference_quotient():
    g = power_log(0.5, [1.0])
    y = 0.01
    step = 1e-7
    numeric = (g.h(y + step) - g.h(y - step)) / (2 * step)
    assert g.dh(y) == pytest.approx(numeric, rel=1e-6)


def test_h_at_subnormal_y():
    # ln(1/y) through 1/y overflows below 5.6e-309; -ln(y) does not
    g = power_log(0.3, [1.0], domain_upper=0.1)
    for y in (5e-324, 1e-310):
        assert g.h(y) == pytest.approx(y ** 0.3 * -math.log(y), rel=1e-13)
    assert g.h(5e-324) == pytest.approx(7.585e-95, rel=1e-3)


def test_h_inv_pure_power_closed_form():
    d = make_derived(power_log(0.5), 0.5)
    # H(y) = y^0.5, inverse is z^2
    assert d.H_inv(0.3) == pytest.approx(0.09, rel=1e-15)


def test_h_inv_roundtrip_log_gauge():
    d = make_derived(power_log(0.5, [1.0]), 0.5)
    ys = np.geomspace(1e-60, 0.05, 40)
    back = d.H_inv(d.H(ys))
    assert np.max(np.abs(back / ys - 1.0)) < 1e-12


def test_h_inv_roundtrip_iterated_log():
    d = make_derived(power_log(0.7, [1.0, 0.5], domain_upper=0.01), 0.3)
    ys = np.geomspace(1e-40, 0.005, 25)
    back = d.H_inv(d.H(ys))
    assert np.max(np.abs(back / ys - 1.0)) < 1e-11


# the three bundled log gauges (ids by D), then seven more: iterated logs,
# large and negative exponents, and D near 1
_NEWTON_GAUGES = [
    pytest.param(D, [1.0], 0.1, id=str(D)) for D in (0.3, 0.5, 0.7)
] + [
    pytest.param(D, alphas, 0.05,
                 id="%g-%s" % (D, "_".join("%g" % a for a in alphas)))
    for D, alphas in ((0.5, [2.5]), (0.5, [-1.0]), (0.3, [1.0, 0.5]),
                      (0.5, [1.0, -2.0]), (0.5, [0.5, 1.5, 1.0]),
                      (0.5, [1.0, 1.0, 1.0]), (0.9, [-0.5]))
]


@pytest.mark.parametrize("D, alphas, upper", _NEWTON_GAUGES)
def test_h_inv_newton_settles_in_few_iterations(monkeypatch, D, alphas, upper):
    # Newton runs in u = ln y, which reaches down to ln(5e-324); one
    # slowly_varying call per iteration.  A stop on an absolute step below
    # one ulp of u runs to the iteration cap, and so does a relative stop
    # at 4e-16 |u| alone where the step flips between neighbouring floats
    # (z = 1.2705049e-9 on the [0.5, 1.5, 1] gauge).
    d = make_derived(power_log(1.0 - D, alphas, domain_upper=upper), D)
    zs = np.append(np.geomspace(1.000001 * d.H(5e-324), d.H_y1, 400), 1.2705049e-9)
    calls = []
    factor = gauge_module.GaugeFunction.slowly_varying

    def counted(gauge, u):
        calls.append(1)
        return factor(gauge, u)

    monkeypatch.setattr(gauge_module.GaugeFunction, "slowly_varying", counted)
    for z in zs:
        calls.clear()
        y = d.H_inv(float(z))
        assert len(calls) <= 8, z
        assert y > 0.0
    calls.clear()
    d.H_inv(zs)
    assert len(calls) <= 8


@pytest.mark.parametrize("D, alphas, upper", _NEWTON_GAUGES)
def test_slowly_varying_factor_against_mpmath(D, alphas, upper):
    # u from the domain top ln(1/upper) down to the subnormal floor 744.4.
    # u is exact, and each np.log and product rounds by about eps, but the
    # relative error of L_i grows by 1/L_(i+1) at the next level (L_3 is
    # 0.093 at the top of the depth-3 gauges).  So ln ℓ is within about
    # eps sum_i |alpha_i| (|ln L_i| + sum_(k<=i) 1/L_k) and E_ℓ within
    # eps sum_i |alpha_i| / (L_1 ... L_i) (i + sum_(k<=i) 1/L_k); the test
    # allows 4 times that.  No relative bound: ln ℓ of [0.5, 1.5, 1] falls
    # to 0.013 and E_ℓ of [1, -2] changes sign at u = e^2.
    gauge = power_log(1.0 - D, alphas, domain_upper=upper)
    us = np.geomspace(-math.log(upper), 744.4, 301)
    ln_l, ela = gauge.slowly_varying(us)
    eps = np.finfo(float).eps
    for u, got_ln_l, got_ela in zip(us.tolist(), ln_l.tolist(), ela.tolist()):
        with mpmath.workdps(30):
            L, prod, want_ln_l, want_ela = mpmath.mpf(u), mpmath.mpf(1), 0, 0
            scale_ln_l, scale_ela, inverses = 0.0, 0.0, 0.0
            for i, alpha in enumerate(alphas, start=1):
                ln_L = mpmath.log(L)
                prod *= L
                want_ln_l += alpha * ln_L
                want_ela -= alpha / prod
                inverses += float(1 / L)
                scale_ln_l += abs(alpha) * (abs(float(ln_L)) + inverses)
                scale_ela += abs(alpha / float(prod)) * (i + inverses)
                L = ln_L
            want_ln_l, want_ela = float(want_ln_l), float(want_ela)
        assert abs(got_ln_l - want_ln_l) <= 4 * eps * scale_ln_l, u
        assert abs(got_ela - want_ela) <= 4 * eps * scale_ela, u
    # h, E_h and Newton's ln H are built from the factor by the same float
    # operations, so they agree exactly
    ys = np.exp(-us)
    ln_l_y, ela_y = gauge.slowly_varying(-np.log(ys))
    assert gauge.h(ys).tolist() == (ys ** gauge.index * np.exp(ln_l_y)).tolist()
    assert gauge.elasticity(ys).tolist() == (gauge.index + ela_y).tolist()
    ln_H, slope = gauge_module._ln_H(gauge, D, -us)
    assert ln_H.tolist() == (D * -us - ln_l).tolist()
    assert slope.tolist() == (D - ela).tolist()


def test_slowly_varying_factor_of_a_pure_power_is_zero():
    ln_l, ela = power_log(0.5).slowly_varying(np.array([0.0, 1.0, 744.4]))
    assert ln_l.tolist() == ela.tolist() == [0.0, 0.0, 0.0]
    # a scalar u gives Python floats, as every gauge method does
    assert power_log(0.5).slowly_varying(2.0) == (0.0, 0.0)
    assert type(power_log(0.5, [1.0]).slowly_varying(2.0)[0]) is float


@pytest.mark.parametrize("D, alphas, upper", _NEWTON_GAUGES)
def test_h_inv_vector_equals_scalar(D, alphas, upper):
    # every element stops on its own steps, so a root does not depend on
    # the call it is part of
    d = make_derived(power_log(1.0 - D, alphas, domain_upper=upper), D)
    zs = np.geomspace(1.000001 * d.H(5e-324), d.H_y1, 200)
    assert d.H_inv(zs).tolist() == [d.H_inv(float(z)) for z in zs]


def test_h_inv_deep_roots_and_the_underflow_floor():
    d = make_derived(power_log(0.3, [1.0], domain_upper=0.1), 0.7)
    y = d.H_inv(7.2e-214)
    assert 1e-301 < y < 1e-300
    assert d.H(y) / 7.2e-214 - 1.0 == pytest.approx(0.0, abs=1e-12)
    # the smallest subnormal root still inverts
    assert d.H_inv(1.000001 * d.H(5e-324)) == 5e-324
    for z in (1e-250, 1e-300, np.array([1e-3, 1e-250])):
        with pytest.raises(DomainError):
            d.H_inv(z)
    # a pure power's closed-form root would underflow to 0.0
    with pytest.raises(DomainError):
        make_derived(power_log(0.5), 0.5).H_inv(1e-200)


def test_h_inv_unsettled_newton_raises(monkeypatch):
    d = make_derived(power_log(0.5, [1.0]), 0.5)
    monkeypatch.setattr(gauge_module, "_NEWTON_ITERATIONS", 1)
    with pytest.raises(NumericError):
        d.H_inv(1e-9)


def test_h_inv_rejects_out_of_range():
    d = make_derived(power_log(0.5), 0.5)
    with pytest.raises(DomainError):
        d.H_inv(d.H_y1 * 2.0)
    with pytest.raises(DomainError):
        d.H_inv(0.0)


def test_f_and_g_power_behavior():
    d = make_derived(power_log(0.5), 0.5)
    # f(x) = x * (1/x)^0.5 = x^0.5 and g(x) = x^(-2)
    assert d.f(100.0) == pytest.approx(10.0, rel=1e-14)
    assert d.g(10.0) == pytest.approx(0.01, rel=1e-13)


def test_f_requires_argument_above_domain_cut():
    d = make_derived(power_log(0.5, [1.0]), 0.5)  # domain_upper 0.1
    with pytest.raises(DomainError):
        d.f(5.0)
    assert d.f(20.0) > 0


def test_make_derived_validates_inputs():
    with pytest.raises(ConstructionError):
        make_derived(power_log(0.5), 0.7)  # index mismatch
    with pytest.raises(ConstructionError):
        make_derived(power_log(0.0), 1.0)
    with pytest.raises(ConstructionError, match="too small"):
        make_derived(power_log(0.5, domain_upper=1e-310), 0.5)  # 1/y1 is inf


@pytest.mark.parametrize("domain_upper, builds", [(1e-310, False), (1e-308, True),
                                                  (3e-308, True)])
def test_log_gauge_scan_below_the_least_normal_double(domain_upper, builds):
    # y1 * 1e-16 underflows to 0 at the first two, and to the least
    # subnormal at the third: the log gauge's monotone scan must still end
    # in a build or in make_derived's own domain_upper check
    gauge = power_log(0.5, [1.0], domain_upper=domain_upper)
    if builds:
        assert make_derived(gauge, 0.5).y1 == domain_upper
    else:
        with pytest.raises(ConstructionError, match="domain_upper"):
            make_derived(gauge, 0.5)


def test_gauge_json_roundtrip():
    g = power_log(0.45, [1.0, 2.0], domain_upper=0.01)
    spec = gauge_to_json(g)
    g2 = gauge_from_json(spec)
    assert gauge_to_json(g2) == spec
    assert g2.h(0.001) == g.h(0.001)


def test_gauge_json_rejects_unknown_form():
    with pytest.raises(ValueError):
        gauge_from_json({"form": "spline"})


@pytest.mark.parametrize("gauge, D", [(power_log(0.5), 0.5),
                                      (power_log(0.3, [1.0]), 0.7)])
def test_every_method_keeps_the_argument_shape(gauge, D):
    # a float or a 0-d array gives a Python float, a (2, 3) array a (2, 3)
    # array with the same elements
    d = make_derived(gauge, D)
    ys = np.geomspace(1e-3, 1e-8, 6).reshape(2, 3)
    args = {gauge.h: ys, gauge.dh: ys, gauge.elasticity: ys, d.H: ys,
            d.H_inv: d.H(ys), d.f: 1.0 / ys, d.g: 1.0 / ys}
    for method, grid in args.items():
        out = method(grid)
        assert out.shape == (2, 3)
        for point in (float(grid[1, 2]), np.asarray(grid[1, 2])):
            value = method(point)
            assert type(value) is float
            assert value == out[1, 2]


def _scanned_y1(gauge):
    # the monotone scan that make_derived ran for every gauge: the first y1
    # of 8 geometric scans on which 1 - E_h is positive
    y1 = gauge.domain_upper
    for _ in range(8):
        ys = np.geomspace(y1 * 1e-16, y1, 64)
        ok = 1.0 - gauge.elasticity(ys) > 0.0
        if np.all(ok):
            return y1
        bad = np.nonzero(~ok)[0]
        y1 = y1 / 4.0 if bad[-1] == len(ys) - 1 else ys[bad[-1]] * 0.999
    raise AssertionError("scan found no monotone subdomain")


@pytest.mark.parametrize("upper", [1.0, 0.1, 0.05])
@pytest.mark.parametrize("D", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_pure_power_make_derived_equals_the_scan(D, upper):
    gauge = power_log(1.0 - D, domain_upper=upper)
    d = make_derived(gauge, D)
    y1 = _scanned_y1(gauge)
    H_y1 = y1 / gauge.h(y1)
    assert d.y1 == y1 == upper
    assert d.H_y1 == H_y1
    assert d.valid_from == max(1.0 / upper, 1.0 / H_y1)
    # ln H at the smallest subnormal: D ln y, with ln ℓ = 0 for a pure power
    assert d.ln_H_floor == D * math.log(5e-324)


@pytest.mark.parametrize("rho, alphas, upper, cut", [(0.5, [-1.0], 0.5, 0.125),
                                                     (0.3, [-2.0], 0.1, 0.025)])
def test_log_gauge_make_derived_keeps_the_scan_cut(rho, alphas, upper, cut):
    gauge = power_log(rho, alphas, domain_upper=upper)
    assert make_derived(gauge, 1.0 - rho).y1 == _scanned_y1(gauge) == cut

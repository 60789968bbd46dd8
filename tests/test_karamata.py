import math

import numpy as np
import pytest

from fractal_strings import (ScaleGrid, classify_ratio, extract_representation,
                             karamata_direct, power_log, rv_defect, tail_sum_rv)

T_GRID = np.array([0.1, 0.25, 0.5, 0.75, 1.0])


def test_rv_defect_zero_for_pure_power():
    d = rv_defect(lambda y: np.asarray(y, dtype=float) ** 0.5, 0.5,
                  T_GRID, np.geomspace(1e-10, 0.1, 6))
    assert np.max(d) < 1e-14


def test_rv_defect_shrinks_for_log_gauge():
    g = power_log(0.5, [1.0])
    ys = np.geomspace(1e-30, 0.05, 8)  # increasing; defect largest at the top
    d = rv_defect(g, 0.5, T_GRID, ys)
    assert d[0] < d[-1]
    assert d[0] < 0.02


def test_rv_defect_large_for_wrong_index():
    d = rv_defect(lambda y: np.asarray(y, dtype=float) ** 0.5, 0.9,
                  T_GRID, np.geomspace(1e-10, 0.1, 6))
    assert np.min(d) > 0.1


def test_rv_defect_rejects_empty_grid():
    with pytest.raises(ValueError):
        rv_defect(lambda y: y, 0.5, np.array([]), np.array([0.1]))


def test_rv_defect_skips_t_outside_the_gauge_domain():
    g = power_log(0.5, [1.0])  # domain_upper 0.1
    ys = np.array([0.05, 1e-6])
    with pytest.warns(UserWarning, match="skipped t values"):
        d = rv_defect(g, 0.5, np.array([0.5, 1.0, 4.0]), ys)
    # 4 * 0.05 leaves the domain and is dropped at that scale only
    assert d[0] == rv_defect(g, 0.5, np.array([0.5, 1.0]), ys[:1])[0]
    assert d[1] == rv_defect(g, 0.5, np.array([0.5, 1.0, 4.0]), ys[1:])[0]


def test_rv_defect_rejects_a_scale_where_every_t_leaves_the_domain():
    g = power_log(0.5, [1.0])
    with pytest.warns(UserWarning), pytest.raises(ValueError, match="leave the domain"):
        rv_defect(g, 0.5, np.array([4.0, 8.0]), np.array([1e-6, 0.05]))


@pytest.mark.parametrize("l, name", [
    (lambda y: np.ones_like(np.asarray(y, dtype=float)), "const"),
    (lambda y: np.log(1 / np.asarray(y, dtype=float)), "log"),
    (lambda y: np.log(1 / np.asarray(y, dtype=float)) ** 2, "log2"),
])
def test_representation_reconstructs_slowly_varying(l, name):
    ys = np.geomspace(1e-8, 0.05, 20)
    rep = extract_representation(l, 0.05, ys)
    assert rep.max_relative_residual <= 1e-8


def test_representation_accepts_scalar_only_callables():
    ys = np.geomspace(1e-8, 0.05, 20)
    rep = extract_representation(lambda y: math.log(1.0 / float(y)), 0.05, ys)
    assert rep.max_relative_residual <= 1e-8


def test_representation_eps_tends_to_zero():
    ys = np.geomspace(1e-12, 0.05, 15)
    rep = extract_representation(
        lambda y: np.log(1 / np.asarray(y, dtype=float)), 0.05, ys)
    # eps(u) = 1/ln(1/u) for l = ln(1/y); shrinks toward the origin
    assert abs(rep.eps_values[0]) < abs(rep.eps_values[-1])
    assert abs(rep.eps_values[0]) < 0.05


def test_representation_uses_supplied_derivative():
    ys = np.geomspace(1e-6, 0.05, 10)
    rep = extract_representation(
        lambda y: np.log(1 / np.asarray(y, dtype=float)), 0.05, ys,
        dl=lambda y: -1.0 / y)
    assert rep.max_relative_residual <= 1e-10


def test_karamata_direct_half_pure_power():
    # f = u^1.5: x^(sigma+1) f(x) / int_X^x u^sigma f = sigma + rho + 1
    f = lambda u: np.asarray(u, dtype=float) ** 1.5
    r = karamata_direct(f, rho=1.5, sigma=0.0, x=50.0, X=1e-8)
    assert r == pytest.approx(2.5, abs=1e-8)


def test_karamata_tail_half_pure_power():
    f = lambda u: np.asarray(u, dtype=float) ** -3.0
    r = karamata_direct(f, rho=-3.0, sigma=0.0, x=50.0, X=None)
    assert r == pytest.approx(2.0, abs=1e-8)


def test_karamata_direct_accepts_scalar_only_callables():
    # float(u) rejects arrays, so each quadrature node is evaluated alone
    up = lambda u: float(u) ** 1.5
    down = lambda u: float(u) ** -3.0
    assert karamata_direct(up, rho=1.5, sigma=0.0, x=50.0, X=1e-8) == \
        pytest.approx(2.5, abs=1e-8)
    assert karamata_direct(down, rho=-3.0, sigma=0.0, x=50.0, X=None) == \
        pytest.approx(2.0, abs=1e-8)


@pytest.mark.parametrize("x", [50.0, 200.0])
def test_karamata_tail_half_log_corrected_power(x):
    # int_x^inf u^-3 ln u du = (2 ln x + 1) / (4 x^2)
    f = lambda u: np.asarray(u, dtype=float) ** -3.0 * np.log(u)
    r = karamata_direct(f, rho=-3.0, sigma=0.0, x=x, X=None)
    assert r == pytest.approx(4.0 * math.log(x) / (2.0 * math.log(x) + 1.0), rel=1e-12)


def test_karamata_tail_rejected_when_divergent():
    # sigma >= -(rho+1): the tail diverges, so the integral runs from X
    for rho in (1.5, -1.0):
        f = lambda u: np.asarray(u, dtype=float) ** rho
        with pytest.raises(ValueError, match="X"):
            karamata_direct(f, rho=rho, sigma=0.0, x=50.0)


def test_karamata_tail_half_slow_decay():
    # int_1^inf u^-1.05 du = 20 converges only near 1e280, short of the cut
    f = lambda u: np.asarray(u, dtype=float) ** -1.05
    r = karamata_direct(f, rho=-1.05, sigma=0.0, x=1.0, X=None)
    assert r == pytest.approx(0.05, rel=1e-13)


def test_tail_sum_against_closed_form():
    # sum_{j>=k} j^-2 vs psi'(k); both compared to the -k g(k)/(rho+1) rule
    from scipy.special import polygamma
    total, predicted = tail_sum_rv(
        lambda j: np.asarray(j, dtype=float) ** -2.0, -2.0, 500)
    assert total == pytest.approx(float(polygamma(1, 500)), rel=1e-10)
    assert total / predicted == pytest.approx(1.0, abs=2e-3)


def test_tail_sum_ratio_tightens_with_k():
    g = lambda j: np.asarray(j, dtype=float) ** -2.0
    r1 = np.divide(*tail_sum_rv(g, -2.0, 100))
    r2 = np.divide(*tail_sum_rv(g, -2.0, 10 ** 4))
    assert abs(r2 - 1.0) < abs(r1 - 1.0)
    assert abs(r2 - 1.0) < 1e-3


def test_tail_sum_rejects_slow_decay():
    with pytest.raises(ValueError):
        tail_sum_rv(lambda j: 1.0 / np.asarray(j, dtype=float), -1.0, 100)


def test_tail_sum_rejects_index_mismatch():
    with pytest.raises(ValueError):
        tail_sum_rv(lambda j: np.asarray(j, dtype=float) ** -4.0, -2.0, 100)


GRID = ScaleGrid.geometric(10.0, 2.0, 12)
X = GRID.scales


def test_classify_ratio_equivalent():
    v = classify_ratio(X * (1 + 1.0 / X), X, GRID)
    assert v.verdict == "equivalent"
    assert v.lower <= v.upper


def test_classify_ratio_similar_constant_offset():
    v = classify_ratio(3.0 * X, X, GRID)
    assert v.verdict == "similar"
    assert v.upper == pytest.approx(3.0)


def test_classify_ratio_neither_for_vanishing():
    v = classify_ratio(np.zeros_like(X), X, GRID)
    assert v.verdict == "neither"


def test_classify_ratio_validates_inputs():
    with pytest.raises(ValueError):
        classify_ratio(X, -X, GRID)

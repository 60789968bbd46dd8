import math

import numpy as np
import pytest

from fractal_strings import (DomainError, ExplicitString, NumericError,
                             ScaleGrid, cantor_grid, content_estimates,
                             dimension_estimate, make_a_string, make_cantor,
                             make_interval, power_log, tube_volume)
from fractal_strings.geometry import _estimate, classify_ratio, trailing_extremes


def test_scale_grid_validation():
    with pytest.raises(ValueError):
        ScaleGrid(scales=np.geomspace(0.1, 0.01, 5))  # too short
    with pytest.raises(ValueError):
        ScaleGrid(scales=np.array([0.1, 0.2, 0.15] + [0.01] * 7))
    with pytest.raises(ValueError):
        ScaleGrid(scales=np.linspace(-1.0, 1.0, 12))
    with pytest.raises(ValueError, match="ratio"):
        ScaleGrid.geometric(0.1, 1.0, 12)
    # both orientations are fine
    ScaleGrid(scales=np.geomspace(0.1, 1e-6, 12))
    ScaleGrid(scales=np.geomspace(10.0, 1e6, 12))


def test_tube_volume_interval():
    s = make_interval(1.0)
    assert tube_volume(s, 0.1) == pytest.approx(0.2)
    assert tube_volume(s, 0.8) == pytest.approx(1.0)


def test_tube_volume_handcomputed():
    s = ExplicitString([0.5, 0.3, 0.1])
    eps = 0.1  # threshold 2 eps = 0.2: two lengths capped, one kept
    assert tube_volume(s, eps) == pytest.approx(0.2 + 0.2 + 0.1)


def test_boundary_count_is_twice_J():
    # the S samples are 2 J(2 eps)/h'(eps); the grid starts 0.1, 0.04
    s = ExplicitString([0.5, 0.3, 0.1])
    g = power_log(0.5)
    grid = ScaleGrid.geometric(0.1, 0.4, 9)
    samples = content_estimates(s, g, grid)[1].values
    dh = g.dh(grid.scales)
    assert samples[0] == 2 * s.J(0.2) / dh[0]
    assert samples[1] == 6 / dh[1]


def test_S_samples_leave_out_the_scales_outside_the_string(recwarn):
    # 2 eps >= l_1 = 0.5 at the first two scales: J(2 eps) = 0 there
    s = ExplicitString([0.5, 0.3, 0.1])
    grid = ScaleGrid.geometric(0.5, 0.5, 12)
    mink, se = content_estimates(s, power_log(0.5), grid)
    assert np.array_equal(se.scales, grid.scales[2:])
    assert np.array_equal(mink.scales, grid.scales)
    assert np.all(se.values > 0.0) and math.isfinite(se.drift_slope)
    with pytest.raises(NumericError, match="every sampled scale"):
        content_estimates(s, power_log(0.5), ScaleGrid.geometric(1.0, 0.9, 9))
    assert len(recwarn) == 0


def test_positive_scale_required():
    s = make_interval(1.0)
    with pytest.raises(ValueError):
        tube_volume(s, 0.0)
    with pytest.raises(ValueError):
        content_estimates(s, power_log(0.5),
                          ScaleGrid(scales=-np.geomspace(1.0, 0.1, 9)))


def test_minkowski_rejects_scales_beyond_gauge_domain():
    g = power_log(0.5, [1.0])  # domain upper 0.1
    grid = ScaleGrid.geometric(0.5, 0.5, 12)
    with pytest.raises(DomainError):
        content_estimates(make_interval(1.0), g, grid)


def test_contents_converge_for_inverse_square_lengths():
    s = make_a_string(1.0)
    g = power_log(0.5)
    grid = ScaleGrid.geometric(2.0 ** -10, 0.5, 31)
    m, se = content_estimates(s, g, grid)
    target = 2.0 ** 1.5
    assert m.verdict == "measurable"
    assert se.verdict == "measurable"
    assert m.midpoint == pytest.approx(target, rel=0.01)
    assert se.midpoint == pytest.approx(target, rel=0.01)


def test_interval_is_degenerate_for_fractal_gauge():
    s = make_interval(1.0)
    grid = ScaleGrid.geometric(2.0 ** -10, 0.5, 31)
    m, _ = content_estimates(s, power_log(0.5), grid)
    # V(eps)/sqrt(eps) = 2 sqrt(eps) -> 0; the drift heuristic must catch it
    assert m.verdict == "degenerate"
    assert abs(m.drift_slope) > 0.4


def test_cantor_oscillation_matches_closed_form():
    # V(eps)/h(eps) = 2^(1-D) (1+u) u^(D-1) at 2 eps = 3^-n u, u in [1/3, 1)
    D = math.log(2) / math.log(3)
    c = make_cantor()
    g = power_log(1.0 - D)
    # the -t 2^-n correction from the strictly counted head dies out fast,
    # so compare at depths where it is below the tolerance
    for n, u in ((24, 0.5), (28, 0.9), (32, 0.37)):
        eps = 3.0 ** -n * u / 2.0
        expected = 2.0 ** (1.0 - D) * (1 + u) * u ** (D - 1.0)
        got = tube_volume(c, eps) / g.h(eps)
        assert got == pytest.approx(expected, rel=1e-6)


def test_cantor_s_samples_match_closed_form():
    # 2 J(2 eps)/h'(eps) = 2^-D (1 - 2^(1-n)) u^D / (1-D) at 2 eps = 3^-n u,
    # u in [1, 3): the lengths above 2 eps are 3^-k, k < n, 2^(n-1) - 1 of them
    D = math.log(2) / math.log(3)
    c = make_cantor()
    g = power_log(1.0 - D)

    def closed(eps):
        n = -math.floor(math.log(2.0 * eps) / math.log(3.0))
        u = 2.0 * eps * 3.0 ** n
        return 2.0 ** -D * (1.0 - 2.0 ** (1 - n)) * u ** D / (1.0 - D)

    se = content_estimates(c, g, cantor_grid())[1]
    expected = [closed(e) for e in se.scales]
    assert se.values == pytest.approx(expected, rel=1e-12)
    tail = expected[-max(3, len(expected) // 3):]
    assert se.lower == pytest.approx(min(tail), rel=1e-12)
    assert se.upper == pytest.approx(max(tail), rel=1e-12)
    # off the cantor grid, u = 2.9 puts the length 3^-(n-1) inside
    # (2 eps, 2.1 eps]: the count at 2 eps includes it, one at 2.1 eps would not
    off = ScaleGrid(scales=3.0 ** -np.arange(10, 41, 2.0) * 2.9 / 2.0)
    got = content_estimates(c, g, off)[1].values
    assert got == pytest.approx([closed(e) for e in off.scales], rel=1e-12)


def test_drift_slope_equals_polyfit():
    # the centred least-squares ratio against numpy's degree-1 fit, on
    # decreasing and increasing grids, flat, drifting and oscillating samples
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(9, 90))
        grid = ScaleGrid.geometric(10.0 ** rng.uniform(-3, 3),
                                   10.0 ** (rng.choice([-1, 1]) * rng.uniform(0.01, 1.0)), n)
        x = np.log(grid.scales)
        values = np.exp(rng.uniform(-0.3, 0.3) * x + rng.normal(0.0, 0.1, n)
                        + rng.uniform(-5, 5))
        slope = trailing_extremes(values, grid.scales)[2]
        fit = np.polyfit(x, np.log(values), 1)[0]
        assert slope == pytest.approx(fit, rel=1e-12, abs=1e-15)
    assert trailing_extremes(np.array([1.0, 0.0] * 5), np.geomspace(1.0, 1e-9, 10))[2] == math.inf


@pytest.mark.parametrize("string, grid", [
    (make_cantor(), ScaleGrid.geometric(0.01, 0.6, 25)),
    (make_a_string(1.0), ScaleGrid.geometric(0.01, 0.5, 15))])
def test_dimension_estimate_slope_equals_polyfit(string, grid):
    # numpy's degree-1 fit over the trailing two-thirds of the log-log volumes
    scales = np.sort(grid.scales)[::-1][grid.scales.size // 3:]
    fit = np.polyfit(np.log(scales), np.log(tube_volume(string, scales)), 1)[0]
    assert 1.0 - dimension_estimate(string, grid) == pytest.approx(fit, rel=1e-12)


_EDGE = [1.0 + 0.001 * k for k in range(12)]  # trailing third: indices 8..11


def _edge(**at):
    return np.array([at.get("i%d" % k, v) for k, v in enumerate(_EDGE)])


# (samples, lower, upper, classify_ratio verdict), as the numpy extremes gave
# them; _estimate says "degenerate" for each, and every drift slope is inf
_EDGE_CASES = [
    (_edge(i8=math.nan), math.nan, math.nan, "neither"),
    (_edge(i10=math.nan), math.nan, math.nan, "neither"),
    (_edge(i11=math.nan), math.nan, math.nan, "neither"),
    (_edge(i9=math.nan, i10=math.inf), math.nan, math.nan, "neither"),
    (_edge(i2=math.nan), _EDGE[8], _EDGE[11], "equivalent"),
    (_edge(i9=math.inf), _EDGE[8], math.inf, "neither"),
    (_edge(i9=-math.inf), -math.inf, _EDGE[11], "neither"),
    (_edge(i1=math.inf), _EDGE[8], _EDGE[11], "equivalent"),
    (_edge(i1=-math.inf), _EDGE[8], _EDGE[11], "equivalent"),
    (_edge(i10=0.0), 0.0, _EDGE[11], "neither"),
    (_edge(i3=0.0), _EDGE[8], _EDGE[11], "equivalent"),
]


@pytest.mark.parametrize("samples, lower, upper, verdict", _EDGE_CASES)
def test_classifiers_at_nan_inf_and_zero_samples(samples, lower, upper, verdict):
    grid = ScaleGrid.geometric(1.0, 0.5, 12)
    for got, want in ((classify_ratio(samples, np.ones(12), grid), verdict),
                      (_estimate(samples, grid.scales, 0.02), "degenerate")):
        assert got.verdict == want
        assert got.drift_slope == math.inf
        for value, expected in ((got.lower, lower), (got.upper, upper)):
            assert value == expected or (math.isnan(value) and math.isnan(expected))


def test_cantor_contents_oscillate_without_drift():
    D = math.log(2) / math.log(3)
    c = make_cantor()
    m, s = content_estimates(c, power_log(1.0 - D), cantor_grid())
    assert m.verdict == "nondegenerate"
    assert s.verdict == "nondegenerate"
    assert abs(m.drift_slope) < 0.02
    # sampled extremes approach the true oscillation band of the lattice string
    u_star = (1.0 - D) / D
    true_lower = 2.0 ** (1.0 - D) * (1 + u_star) * u_star ** (D - 1.0)
    true_upper = 2.0 ** (2.0 - D)
    assert m.lower == pytest.approx(true_lower, rel=0.005)
    assert m.upper == pytest.approx(true_upper, rel=0.005)
    # boundary counts for lattice strings oscillate by a full factor 2
    assert s.upper / s.lower == pytest.approx(2.0, rel=0.05)


def test_dimension_estimate_recovers_power():
    s = make_a_string(1.0)
    grid = ScaleGrid.geometric(0.01, 0.5, 15)
    assert dimension_estimate(s, grid) == pytest.approx(0.5, abs=0.02)


def test_dimension_estimate_cantor():
    grid = ScaleGrid.geometric(0.01, 0.6, 25)
    D = math.log(2) / math.log(3)
    assert dimension_estimate(make_cantor(), grid) == pytest.approx(D, abs=0.02)


def test_dimension_estimate_needs_three_decades():
    with pytest.raises(ValueError):
        dimension_estimate(make_a_string(1.0), ScaleGrid.geometric(0.1, 0.8, 10))


def test_array_scales_equal_scalar_scales():
    scales = np.geomspace(0.3, 1e-9, 25)
    for s in (make_a_string(0.5), make_cantor(), ExplicitString([0.5, 0.3, 0.1, 0.1])):
        assert tube_volume(s, scales).tolist() == [tube_volume(s, e) for e in scales]
        counts = s.J(2.0 * scales)
        assert counts.tolist() == [s.J(2.0 * e) for e in scales]
        assert all(type(c) is int for c in counts.tolist())
    with pytest.raises(ValueError):
        tube_volume(make_interval(1.0), np.array([0.1, 0.0]))


def test_contents_make_one_J_call_per_grid(monkeypatch):
    s = make_a_string(1.0)
    calls = []
    J = type(s).J

    def counted(self, eps):
        calls.append(np.size(eps))
        return J(self, eps)

    monkeypatch.setattr(type(s), "J", counted)
    grid = ScaleGrid.geometric(2.0 ** -10, 0.5, 31)
    content_estimates(s, power_log(0.5), grid)
    dimension_estimate(s, grid)
    assert calls == [31, 31]

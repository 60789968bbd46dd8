import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import polygamma

from fractal_strings import (AnalyticString, ExplicitString, GaugeFunction,
                             RunLengthString, bundled_examples, gauge_from_json,
                             make_a_string, make_cantor, make_interval, make_profile,
                             make_derived, power_log, string_from_json)
from fractal_strings.errors import ConstructionError, NumericError
from fractal_strings.strings import (_EXP_NODES, _EXP_WEIGHTS, _PANEL_FACTOR, _PREFIX,
                                     _compensated_suffix_sums, _em_tail_sum,
                                     _gauge_side_integral, _panel_integral)


def test_explicit_sorts_and_counts():
    s = ExplicitString([0.1, 0.5, 0.25])
    assert [s.length(j) for j in (1, 2, 3)] == [0.5, 0.25, 0.1]
    assert s.count() == 3
    assert s.total_length() == pytest.approx(0.85)


def test_counting_function_is_strict():
    s = ExplicitString([0.5, 0.25, 0.25, 0.1])
    assert s.J(0.25) == 1          # only 0.5 is strictly larger
    assert s.J(0.2499999) == 3


def test_explicit_tail_and_head_sums():
    vals = [2.0 ** -k for k in range(1, 21)]
    s = ExplicitString(vals)
    # strict comparison: the length equal to the threshold stays in the tail
    assert s.tail_sum_beyond_index(s.J(2.0 ** -6)) == pytest.approx(sum(vals[5:]), rel=1e-15)
    head = s.total_length() - s.tail_sum_beyond_index(5)
    assert head == pytest.approx(sum(vals[:5]), rel=1e-15)


def test_runlength_agrees_with_flat_expansion():
    blocks = [(0.5, 1), (0.2, 3), (0.05, 7)]
    rl = RunLengthString(blocks)
    flat = ExplicitString([0.5] + [0.2] * 3 + [0.05] * 7)
    for eps in (0.6, 0.5, 0.3, 0.2, 0.1, 0.05, 0.01):
        assert rl.J(eps) == flat.J(eps)
        assert rl.tail_sum_beyond_index(rl.J(eps)) == pytest.approx(
            flat.tail_sum_beyond_index(flat.J(eps)), rel=1e-14)
    for n in (1, 4, 9, 11):
        assert rl.total_length() - rl.tail_sum_beyond_index(n) == pytest.approx(
            flat.total_length() - flat.tail_sum_beyond_index(n), rel=1e-14)
        assert rl.length(n) == flat.length(n)
        # n = 9 ends inside the third block
        assert rl.tail_sum_beyond_index(n) == pytest.approx(
            flat.tail_sum_beyond_index(n), rel=1e-14)


def test_runlength_rejects_bad_blocks():
    with pytest.raises(ConstructionError):
        RunLengthString([(0.2, 1), (0.5, 1)])  # not decreasing
    with pytest.raises(ConstructionError):
        RunLengthString([(0.5, 0)])
    with pytest.raises(ConstructionError):
        RunLengthString([])


def test_cantor_block_structure():
    c = make_cantor(depth=10)
    # lengths 3^-n with multiplicity 2^(n-1); J(eps) = 2^n - 1 below 3^-n
    assert c.length(1) == pytest.approx(1 / 3)
    # the threshold length itself is not counted (strict inequality)
    assert c.J(3.0 ** -4) == 2 ** 3 - 1
    assert c.J(3.0 ** -4 * 0.999) == 2 ** 4 - 1
    # tail beyond J(3^-4) starts at the 3^-4 block itself
    assert c.tail_sum_beyond_index(c.J(3.0 ** -4)) == pytest.approx(
        (2 / 3) ** 3 - (2 / 3) ** 10, rel=1e-12)


def test_cantor_total_length_near_one():
    assert make_cantor().total_length() == pytest.approx(1.0, abs=1e-15)


def test_cantor_deep_multiplicities_do_not_overflow():
    c = make_cantor(depth=96)
    assert c.count() == 2 ** 96 - 1
    assert c.J(1e-10) == 2 ** 20 - 1  # 3^-20 > 1e-10 > 3^-21
    # past 2^53 the counts are exact integers, not rounded floats
    assert c.J(1.5 * 3.0 ** -60) == 2 ** 59 - 1
    assert c.length(2 ** 59 - 1) == 3.0 ** -59
    assert c.length(2 ** 59) == 3.0 ** -60
    # the head of 2^59 lengths ends one length into the 3^-60 block
    head = c.total_length() - c.tail_sum_beyond_index(2 ** 59)
    assert head == pytest.approx(1.0 - (2 / 3) ** 59 + 3.0 ** -60, rel=1e-15)


def test_a_string_lengths_and_tail():
    s = make_a_string(1.0)
    for j in (1, 2, 10, 1000):
        assert s.length(j) == pytest.approx(1 / j - 1 / (j + 1), rel=1e-14)
    assert s.total_length() == pytest.approx(1.0, rel=1e-14)
    # tail telescopes: sum_{j>m} l_j = (m+1)^-a; J is strict so the length
    # at the threshold is part of the tail
    eps = s.length(100)
    assert s.tail_sum_beyond_index(s.J(eps)) == pytest.approx(1 / 100, rel=1e-13)


def test_a_string_counting_vs_bruteforce():
    s = make_a_string(0.5)
    for eps in (1e-3, 1e-5, 3.33e-7):
        J = s.J(eps)
        assert s.length(J) > eps >= s.length(J + 1)


def test_a_string_small_a_no_cancellation():
    s = make_a_string(0.01)
    l = s.length(10 ** 9)
    expected = 0.01 * float(10 ** 9) ** -1.01  # leading asymptotics
    assert l == pytest.approx(expected, rel=1e-3)
    assert l > 0



@pytest.mark.parametrize("string", [
    ExplicitString([3.0, 2.0, 1.0]),
    make_cantor(4),
    make_profile(1.0, make_derived(power_log(0.5), 0.5)),
    make_a_string(1.0),
], ids=["explicit", "runlength", "profile", "a_string"])
@pytest.mark.parametrize("m", [-1, np.array([0, -1], dtype=object)],
                         ids=["scalar", "array"])
def test_negative_tail_index_is_an_index_error(string, m):
    # as length(j) for j < 1; the tails were 0, sums above the total, or a
    # ZeroDivisionError
    with pytest.raises(IndexError):
        string.tail_sum_beyond_index(m)

def test_interval_is_single_length():
    s = make_interval(0.7)
    assert s.count() == 1
    assert s.J(0.5) == 1 and s.J(0.7) == 0
    assert s.tail_sum_beyond_index(s.J(0.8)) == pytest.approx(0.7)


def test_profile_matches_g_exactly():
    d = make_derived(power_log(0.5, [1.0]), 0.5)
    p = make_profile(2.0, d)
    for j in (20, 200, 2000):
        assert p.length(j) == pytest.approx(2.0 * d.g(float(j)), rel=1e-14)


def test_profile_clamped_prefix_is_non_increasing():
    d = make_derived(power_log(0.5, [1.0]), 0.5)
    p = make_profile(1.0, d)
    lengths = [p.length(j) for j in range(1, 50)]
    assert all(a >= b for a, b in zip(lengths, lengths[1:]))


def _profile_cases():
    examples = bundled_examples()
    cases = [(name, float(examples[name].string_spec["L"]),
              make_derived(gauge_from_json(examples[name].string_spec["gauge"]),
                           examples[name].D))
             for name in ("profile_log_D0.3", "profile_log_D0.7")]
    return cases + [("power_D0.5", 1.0, make_derived(power_log(0.5), 0.5))]


@pytest.mark.parametrize("name, L, derived", _profile_cases())
def test_profile_lengths_equal_the_masked_clamp(name, L, derived):
    # the clamped prefix, the indices around j0, a 5.6e5-length head and
    # indices far out, against l_j = clamp below j0 and L g(j) from j0 on
    j0 = max(1, math.ceil(derived.valid_from))
    clamp = L * derived.g(float(j0))
    js = np.concatenate([np.arange(1.0, 2.0 * j0 + 2.0), np.arange(1.0, 564190.0),
                         np.geomspace(10.0, 1e20, 200)])
    expected = np.full(js.shape, clamp)
    free = js >= j0
    expected[free] = L * derived.g(js[free])
    assert make_profile(L, derived).length(js).tolist() == expected.tolist()
    assert (j0 > 1) == name.startswith("profile_log")


def test_profile_counting_consistency():
    d = make_derived(power_log(0.3, [1.0]), 0.7)
    p = make_profile(1.0, d)
    for eps in (1e-4, 1e-7, 1e-10):
        J = p.J(eps)
        assert p.length(J) > eps >= p.length(J + 1)


def _analytic_cases():
    power = make_profile(1.0, make_derived(power_log(0.5), 0.5))
    log = make_profile(1.0, make_derived(power_log(0.3, [1.0]), 0.7))
    a_string = make_a_string(0.5)
    return [("profile_power", power, (1e-3, 3e-7, 1e-9)),
            ("profile_log", log, (1e-3, 1e-5, 3e-6)),
            ("a_string", a_string, (1e-3, 1e-5, 3.33e-7))]


@pytest.mark.parametrize("name, string, epsilons", _analytic_cases())
def test_analytic_J_matches_dense_scan(name, string, epsilons):
    for eps in epsilons:
        n = 64
        while string.length(n) > eps:
            n *= 2
        lengths = string._fn(np.arange(1, n + 1, dtype=float))
        # a length equal to eps is not counted
        exact = (lengths[n // 3], lengths[n // 5])
        for e in (eps, *exact):
            ref = int(np.count_nonzero(lengths > e))
            hint = string._inv
            for inv in (hint, lambda t: 1.0, lambda t: 1000.0 * hint(t),
                        lambda t: hint(t) / 1000.0):
                s = AnalyticString(string._fn, inv, string._tail)
                assert s.J(e) == ref, (name, e, inv)


def _J_loop(string, eps):
    """J by the per-element loop that the vectorized J replaces: the
    reference for its brackets, ties and gallops."""
    e = np.asarray(eps, dtype=float)
    hints = np.broadcast_to(np.asarray(string._inv(e.ravel()), dtype=float), e.size)
    starts = [max(1, int(h)) for h in hints.tolist()]
    spans = [j >> 43 if j >= 2 ** 53 else 1 for j in starts]
    index = ([1] + [max(1, j - s) for j, s in zip(starts, spans)] + starts
             + [j + s for j, s in zip(starts, spans)])
    values = np.asarray(string._fn(np.array(index, dtype=float)), dtype=float)
    brackets = values[1:].reshape(3, -1).T.tolist()
    out = []
    for x, j, (lo, mid, hi) in zip(e.ravel().tolist(), starts, brackets):
        exact = j < 2 ** 53
        if values[0] <= x:
            out.append(0)
        elif (mid if exact else lo) > x >= hi:
            out.append(j)
        elif exact and lo > x >= mid:
            out.append(j - 1)
        else:
            n = j  # gallop, then bisect
            step = 1
            if string.length(n) > x:
                lo_, hi_ = n, n + 1
                while string.length(hi_) > x:
                    lo_, step = hi_, 2 * step
                    hi_ = n + step
            else:
                lo_, hi_ = n - 1, n
                while lo_ > 1 and string.length(lo_) <= x:
                    hi_, step = lo_, 2 * step
                    lo_ = max(1, n - step)
            while hi_ - lo_ > 1:
                m = (lo_ + hi_) // 2
                if string.length(m) > x:
                    lo_ = m
                else:
                    hi_ = m
            out.append(lo_)
    return out


_HINTS = {"hint": lambda hint: hint, "one": lambda hint: (lambda t: 1.0),
          "times_1000": lambda hint: (lambda t: 1000.0 * hint(t)),
          "over_1000": lambda hint: (lambda t: hint(t) / 1000.0)}
_STRINGS = {name: string for name, string, _ in _analytic_cases()}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_STRINGS)), st.sampled_from(sorted(_HINTS)),
       st.lists(st.floats(-36.0, 0.5), max_size=6),
       st.lists(st.integers(1, 10 ** 7), max_size=4))
# past 2^53 on all three, eps above l_1, and eps equal to lengths
@example(name="profile_power", hint="hint", log_eps=[-34.0, -20.0, 0.5], ties=[7])
@example(name="profile_log", hint="over_1000", log_eps=[-30.0, -3.0], ties=[3, 10])
@example(name="a_string", hint="times_1000", log_eps=[-35.0, -25.0, -7.0], ties=[])
def test_vectorized_J_equals_the_loop(name, hint, log_eps, ties):
    string = _STRINGS[name]
    s = AnalyticString(string._fn, _HINTS[hint](string._inv), string._tail)
    eps = np.concatenate((10.0 ** np.array(log_eps), string._fn(np.array(ties, dtype=float))))
    expected = _J_loop(s, eps)
    assert s.J(eps).tolist() == expected
    assert [s.J(float(e)) for e in eps] == expected
    assert all(type(j) is int for j in expected)


@pytest.mark.parametrize("name", ["profile_log_D0.3", "profile_log_D0.5",
                                  "profile_log_D0.7"])
def test_J_at_the_plateau_equals_the_loop(name):
    # near j = 1e15 the log lengths stop resolving indices, so the hint tests
    # fail and J gallops: inside the window from the exact hint, and out of
    # it, by scalar length calls, from a hint 100 or a relative 1e-3 off
    p = string_from_json(bundled_examples()[name].string_spec)
    lengths = p._fn(np.round(np.geomspace(1.5e15, 6.4e15, 24)))
    eps = np.concatenate((lengths, np.nextafter(lengths, 0.0), np.nextafter(lengths, 1.0)))
    for inv, far in ((p._inv, False), (lambda t: p._inv(t) + 100.0, True),
                     (lambda t: 1.001 * p._inv(t), True)):
        s = AnalyticString(p._fn, inv, p._tail)
        calls = []
        length = s.length
        s.length = lambda n: calls.append(n) or length(n)
        got = s.J(eps).tolist()
        assert bool(calls) == far
        assert got == _J_loop(s, eps)


def test_profile_J_past_2_43():
    # exact (a crossing of the float profile) below 2^53, and within a
    # relative 2^-43 of the 50-digit count above it, also from a hint off
    # by a factor of 2
    cfg = bundled_examples()["profile_log_D0.7"]
    p = string_from_json(cfg.string_spec)
    L = cfg.string_spec["L"]
    rho = mpmath.mpf(cfg.string_spec["gauge"]["rho"])
    hint = p._inv
    with mpmath.workdps(50):
        for k in (*range(55, 121, 3), 121):
            eps = 2.0 ** -k
            y = mpmath.mpf(eps) / L
            ref = int(mpmath.ceil(y ** rho * mpmath.log(1 / y) / y)) - 1  # 1/H
            assert ref > 2 ** 43
            for inv in (hint, lambda t: 2.0 * hint(t), lambda t: hint(t) / 2.0):
                J = AnalyticString(p._fn, inv, p._tail).J(eps)
                if ref < 2 ** 53:
                    assert p.length(J) > eps >= p.length(J + 1), k
                else:
                    assert abs(J - ref) <= ref * 2.0 ** -43, k


def _panel_loop(fn, a):
    """The one-panel-per-call loop that the batched tail integral keeps
    panel for panel: 32-point Gauss-Legendre on [lo, 8 lo]."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    total = 0.0
    lo = a
    while lo <= 1e300:
        hi = lo * _PANEL_FACTOR
        half = 0.5 * (hi - lo)
        panel = float(np.dot(half * weights, fn(0.5 * (lo + hi) + half * nodes)))
        total += panel
        if abs(panel) <= 1e-15 * abs(total):
            return total
        lo = hi
    raise AssertionError("reference loop did not converge")


@pytest.mark.parametrize("p", [2.0, 1.43])
@pytest.mark.parametrize("a", [1.0, 512.0, 1e25])
def test_batched_tail_integral_matches_panel_loop(p, a):
    def fn(t):
        return np.asarray(t, dtype=float) ** -p

    assert _panel_integral(fn, a) == _panel_loop(fn, a)


def test_batched_tail_integral_stops_at_the_cutoff_panel():
    # int_1e280^inf t^-1.01 = 100 (1e280)^-0.01 = 0.1585 and int t^-1
    # diverges: neither has a negligible panel by the 1e300 cut
    for p, a in ((1.01, 1e280), (1.0, 1e80)):
        def fn(t):
            t = np.asarray(t, dtype=float)
            if np.any(t > 1e301):
                raise AssertionError("node past the 1e300 cut-off panel")
            return t ** -p

        with pytest.raises(NumericError, match="1e300"):
            _panel_integral(fn, a)


@pytest.mark.parametrize("bad, b", [(np.inf, math.inf), (np.nan, 10.0),
                                    (np.nan, math.inf)])
def test_panel_integral_rejects_a_non_finite_integrand(bad, b):
    def fn(t):
        return np.where(t < 2.0, bad, t ** -2.0)

    with pytest.raises(NumericError, match="non-finite integrand"):
        _panel_integral(fn, 1.0, b)


def _suffix_loop(values):
    """The Neumaier loop that the cumsum form keeps bit for bit."""
    out = np.empty(values.size + 1)
    out[-1] = s = c = 0.0
    for i in range(values.size - 1, -1, -1):
        v = values[i]
        t = s + v
        c += (s - t) + v if abs(s) >= abs(v) else (v - t) + s
        s = t
        out[i] = s + c
    return out


def test_compensated_suffix_sums_equal_the_neumaier_loop():
    rng = np.random.default_rng(17)
    cantor = make_cantor()
    inputs = [rng.standard_normal(10 ** 5),
              make_a_string(1.0).length(np.arange(1, 10 ** 5 + 1)),
              make_a_string(0.5).length(np.arange(1, 5 * 10 ** 4 + 1)),
              rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(-300, 300, 1000),
              cantor._vals * cantor._mult.astype(float)]
    for values in inputs:
        assert np.array_equal(_compensated_suffix_sums(values), _suffix_loop(values))


def test_analytic_tail_matches_polygamma():
    s = AnalyticString(
        length_fn=lambda j: np.asarray(j, dtype=float) ** -2.0,
        inv_hint=lambda eps: eps ** -0.5)
    # Euler-Maclaurin closure vs the exact trigamma tail
    for m in (10, 313, 5000):
        exact = float(polygamma(1, m + 1))
        assert s.tail_sum_beyond_index(m) == pytest.approx(exact, rel=1e-11)


def test_truncate_produces_explicit_prefix():
    s = make_a_string(1.0)
    t = s.truncate(100)
    assert t.count() == 100
    assert t.length(100) == s.length(100)
    # one vector length call, equal to the scalar loop
    assert np.array_equal(t.runs_above(0.0)[0], [s.length(j) for j in range(1, 101)])
    assert t.total_length() == pytest.approx(
        s.total_length() - s.tail_sum_beyond_index(100), rel=1e-13)
    rl = make_cantor(depth=8).truncate(10)
    assert rl.count() == 10
    assert rl.length(10) == 3.0 ** -4
    # past count() both finite backends keep the whole string
    for short in (ExplicitString([0.5, 0.25, 0.25, 0.1]), make_cantor(depth=3)):
        t = short.truncate(100)
        assert t.count() == short.count()
        index = np.arange(1, short.count() + 1)
        assert t.length(index).tolist() == short.length(index).tolist()


def test_pure_power_profile_total_is_zeta_2():
    # l_j = j^-2: the total, the tail beyond index 0, is zeta(2) = pi^2/6
    # correctly rounded
    cfg = bundled_examples()["profile_power_D0.5"]
    total = string_from_json(cfg.string_spec).total_length()
    assert total == pytest.approx(1.6449340668482264, abs=0)


def test_string_json_roundtrip():
    for spec in ({"kind": "cantor", "depth": 12},
                 {"kind": "a_string", "a": 2.0},
                 {"kind": "interval", "length": 0.5},
                 {"kind": "explicit", "lengths": [0.5, 0.25, 0.125]},
                 {"kind": "profile", "L": 1.0,
                  "gauge": {"form": "powerlog", "rho": 0.5,
                            "log_exponents": [], "domain_upper": 1.0}}):
        s = string_from_json(spec)
        assert s.length(1) > 0
        assert s.total_length() > 0


def test_string_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        string_from_json({"kind": "penrose"})


def test_make_cantor_checks_depth_before_building_a_block():
    # 3.0 ** -679 underflows to 0; a depth below 1 has no block
    assert make_cantor(678).length(2 ** 677) == 5e-324
    for depth in (0, 679):
        with pytest.raises(ConstructionError, match="depth"):
            make_cantor(depth)


def _exact_ints(values):
    return all(type(v) is int for v in values)


def _grid_cases():
    examples = bundled_examples()
    cases = []
    for name in ("profile_log_D0.3", "profile_log_D0.5", "profile_log_D0.7"):
        cfg = examples[name]
        cases.append((name, string_from_json(cfg.string_spec),
                      2.0 * cfg.eps_grid().scales))
    # multiplicities 2^(n-1) pass 2^53 from n = 55 and 2^63 from n = 65
    cantor_eps = np.array([3.0 ** -n * u for n in range(1, 96, 3)
                           for u in (1.0, 0.999, 0.5)])
    cases.append(("cantor", make_cantor(), cantor_eps))
    explicit = ExplicitString([0.5, 0.25, 0.25, 0.1, 0.1, 0.1, 0.05])
    cases.append(("explicit", explicit,
                  np.array([0.6, 0.5, 0.3, 0.25, 0.2499999, 0.1, 0.05, 0.01])))
    return cases


@pytest.mark.parametrize("name, string, eps", _grid_cases())
def test_grid_forms_equal_scalar_forms(name, string, eps):
    js = string.J(eps)
    assert js.shape == eps.shape and _exact_ints(js.tolist())
    assert js.tolist() == [string.J(float(e)) for e in eps]
    assert _exact_ints(string.J(float(e)) for e in eps)
    if name == "profile_log_D0.7":
        assert max(js) > 2 ** 63
    if name == "cantor":
        assert max(js) > 2 ** 63
    tails = string.tail_sum_beyond_index(js)
    assert tails.tolist() == [string.tail_sum_beyond_index(j) for j in js.tolist()]
    assert string.tail_sum_beyond_index(string.J(eps)).tolist() == tails.tolist()
    index = np.array([j for j in js.tolist() if j >= 1], dtype=object)
    assert string.length(index).tolist() == [string.length(j) for j in index.tolist()]
    # any shape: a 2-d grid gives a 2-d answer
    square = eps[:4].reshape(2, 2)
    assert string.J(square).tolist() == js[:4].reshape(2, 2).tolist()


def test_profile_tail_across_the_clamp():
    # domain_upper 1e-3 clamps l_j at g(1000) = 1e-6 for j < j0 = 1000: the
    # prefix is counted exactly and the closure starts at j0, not at 512
    p = make_profile(1.0, make_derived(power_log(0.5, [], 1e-3), 0.5))
    j0, clamp = 1000, 1e-6
    assert p.length(j0 - 1) == clamp == p.length(j0)
    with mpmath.workdps(30):
        for m in (0, 100, 600, 999, 1000, 5000):
            exact = (max(j0 - 1 - m, 0) * mpmath.mpf(clamp)
                     + mpmath.zeta(2, max(m, j0 - 1) + 1))
            assert p.tail_sum_beyond_index(m) == pytest.approx(float(exact), rel=1e-13, abs=0), m
    assert p.tail_sum_beyond_index(0) == p.total_length()


@pytest.mark.parametrize("D", [0.3, 0.5, 0.7])
def test_pure_power_profile_tail_matches_hurwitz_zeta(D):
    # l_j = j^(-1/D) from j = 1, so sum_{j > m} l_j = zeta(1/D, m + 1)
    p = make_profile(1.0, make_derived(power_log(1.0 - D), D))
    with mpmath.workdps(30):
        for m in (0, 1, 511, 512, 10 ** 6, 10 ** 15):
            exact = float(mpmath.zeta(1 / mpmath.mpf(D), m + 1))
            assert p.tail_sum_beyond_index(m) == pytest.approx(exact, rel=2e-14, abs=0), m


@pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
def test_gauge_side_integral_closed_form(rho):
    # int_0^Y y^(rho-1) ln(1/y) dy = Y^rho (rho ln(1/Y) + 1)/rho^2, minus
    # h(Y) = Y^rho ln(1/Y); Gauss-Laguerre is exact for this phi(u) = u
    gauge = power_log(rho, [1.0])
    y1 = make_derived(gauge, 1.0 - rho).y1
    Y = np.geomspace(y1, 1e-200, 40)
    got = _gauge_side_integral(gauge, Y)
    with mpmath.workdps(30):
        r = mpmath.mpf(rho)
        for y, value in zip(Y.tolist(), got.tolist()):
            y = mpmath.mpf(y)
            u = mpmath.log(1 / y)
            exact = y ** r * (r * u + 1) / r ** 2 - y ** r * u
            assert value == pytest.approx(float(exact), rel=1e-14, abs=0)


@pytest.mark.parametrize("D, alphas", [(0.9, [-0.5]), (0.95, [-1.0]), (0.5, [2.5]),
                                       (0.5, [0.5, 1.5, 1.0])])
def test_gauge_side_integral_small_rho_and_iterated_logs(D, alphas):
    # the ratio phi(u + s/rho)/phi(u) is singular at s = -rho u, near s = 0
    # for small rho (Gauss-Laguerre alone errs by up to 3e-5 here); the
    # reference integrates the same s-form in 30 digits
    gauge = power_log(1.0 - D, alphas, 0.05)
    d = make_derived(gauge, D)
    Ms = [math.ceil(d.valid_from), 512.0, 1e4, 1e8, 1e30]
    Y = d.g(np.array(Ms, dtype=float))
    got = _gauge_side_integral(gauge, Y)
    with mpmath.workdps(30):
        rho = mpmath.mpf(1.0 - D)

        def phi(u):
            out, L = mpmath.mpf(1), u
            for a in alphas:
                out, L = out * L ** a, mpmath.log(L)
            return out

        for y, value in zip(Y.tolist(), got.tolist()):
            y = mpmath.mpf(y)
            u = mpmath.log(1 / y)
            body = mpmath.quad(lambda s: mpmath.exp(-s) * phi(u + s / rho),
                               [0, 0.1, 0.5, 2, 10, 50, 200, mpmath.inf])
            exact = y ** rho * (body / rho - phi(u))
            assert value == pytest.approx(float(exact), rel=1e-14, abs=0)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def test_pure_power_gauge_side_integral_takes_no_quadrature(monkeypatch):
    # the quadrature of a log factor, whose excess is exactly 0 for a pure power
    gauge = power_log(0.4)
    Y = np.geomspace(0.9, 1e-300, 50)
    u = -np.log(Y)
    log_ratio = (gauge.slowly_varying(u[:, None] + _EXP_NODES / 0.4)[0]
                 - gauge.slowly_varying(u)[0][:, None])
    excess = np.sum(np.expm1(log_ratio) * _EXP_WEIGHTS, axis=1)
    quadrature = gauge.h(Y) * (1.0 - 0.4 + excess) / 0.4
    shapes = []
    slowly_varying = GaugeFunction.slowly_varying

    def recorded(self, u):
        shapes.append(np.shape(u))
        return slowly_varying(self, u)

    monkeypatch.setattr(GaugeFunction, "slowly_varying", recorded)
    assert _bits(_gauge_side_integral(gauge, Y)) == _bits(quadrature)
    assert shapes == [Y.shape]  # h(Y) alone


@pytest.mark.parametrize("name", ["profile_power_D0.5", "profile_log_D0.5", "a_string_0.5"])
def test_stored_prefix_is_length_fn_bit_for_bit_and_capped(name):
    string = bundled_examples()[name].build()[2]
    for n in (7, 600, 40000, 5, _PREFIX, 70000):
        head = string.head(n)
        assert _bits(head) == _bits(string._fn(np.arange(1.0, n + 1.0)))
        assert string._prefix.size == min(max(n, string._prefix.size), _PREFIX)
        assert not string._prefix.flags.writeable
    assert _bits(string._prefix) == _bits(string._fn(np.arange(1.0, _PREFIX + 1.0)))
    assert string.head(0).size == 0
    with pytest.raises(ValueError):
        string.head(-1)
    # counts, lengths and tails read the prefix, and do not grow it
    string.J(np.geomspace(1e-30, 1.0, 50))
    string.length(np.array([1, 9, 5000, 40000, 10 ** 9]))
    string.tail_sum_beyond_index([0, 100, 10 ** 6])
    past = string.length(_PREFIX + 9)
    assert string.runs_above(past)[0].size == string.J(past) > _PREFIX
    assert string._prefix.size == _PREFIX
    js = np.array([1.0, 2.5, 9.0, _PREFIX - 0.5, _PREFIX, _PREFIX + 1.0, 1e12])
    assert _bits(string.length(js)) == _bits(string._fn(js))


def _recorded(length_fn):
    calls = []

    def fn(js):
        calls.append(np.size(js))
        return length_fn(js)
    return fn, calls


def test_tails_below_the_closure_point_keep_their_terms_bit_for_bit():
    # every tail equals one _em_tail_sum call over length_fn; below index
    # 511 the direct terms and the closure at 512 are formed once, so a
    # later one calls length_fn no more
    ms = [0, 1, 17, 510, 511, 512, 513, 5000, 3, 600, 300]
    derived = make_derived(power_log(0.5), 0.5)
    profile = make_profile(1.0, derived)
    expected = _em_tail_sum(profile._fn, ms,
                            lambda M, fM: 1.0 * _gauge_side_integral(derived.gauge, fM / 1.0))
    assert _bits(profile.tail_sum_beyond_index(ms)) == _bits(expected)
    assert [profile.tail_sum_beyond_index(m) for m in ms] == expected.tolist()
    fn, calls = _recorded(lambda j: np.asarray(j, dtype=float) ** -2.0)
    s = AnalyticString(fn, lambda eps: eps ** -0.5)
    assert _bits(s.tail_sum_beyond_index(ms)) == _bits(_em_tail_sum(fn, ms))
    del calls[:]
    tails = s.tail_sum_beyond_index([5, 400])
    assert calls == []
    assert tails.tolist() == _em_tail_sum(fn, [5, 400]).tolist()


def _stored_strings():
    rng = np.random.default_rng(30)
    lengths = rng.choice(rng.uniform(1e-6, 1.0, 400), 1000)  # with repeats
    return [ExplicitString(lengths), make_cantor(),
            RunLengthString([(0.5, 3), (0.25, 2 ** 70), (1e-3, 1)])]


@pytest.mark.parametrize("string", _stored_strings())
def test_stored_counts_equal_the_negated_searchsorted(string):
    vals = string._vals
    eps = np.concatenate((vals, np.nextafter(vals, 0.0), np.nextafter(vals, 1.0),
                          [0.0, 5e-324, 2.0 * vals[0], 1e300]))
    b = np.searchsorted(-vals, -eps, side="left")
    counts = b if isinstance(string, ExplicitString) else string._cum[b]
    assert string.J(eps).tolist() == counts.tolist()
    assert [string.J(float(e)) for e in eps] == counts.tolist()
    for e, n in zip(eps.tolist(), b.tolist()):
        assert string.runs_above(e)[0].tolist() == vals[:n].tolist()
    assert type(string.total_length()) is float
    assert string.total_length() == float(string.tail_sum_beyond_index(0))

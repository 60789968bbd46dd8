import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractal_strings import (AnalyticString, ExplicitString, RunLengthString,
                             ZetaContext, bundled_examples, eigen_count, eta,
                             make_a_string, make_cantor, make_derived,
                             make_interval, make_profile, packing_defect,
                             power_log, records_to_csv, second_term_probe,
                             spectral, spectral_points, strings, w_k,
                             weyl_term, zeta, zeta_from_wk)

# reference values computed with mpmath at 30 digits
ZETA_03 = -0.904559257253983990007876151834
ZETA_05 = -1.46035450880958681288949915252
ZETA_07 = -2.7783884455536960527539705322


def test_zeta_reference_values():
    assert zeta(0.3) == pytest.approx(ZETA_03, abs=1e-13)
    assert zeta(0.5) == pytest.approx(ZETA_05, abs=1e-13)
    assert zeta(0.7) == pytest.approx(ZETA_07, abs=1e-13)


def test_zeta_rejects_outside_unit_interval():
    for s in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            zeta(s)


def test_eta_consistent_with_zeta():
    s = 0.5
    assert eta(s) == pytest.approx(zeta(s) * (1.0 - 2.0 ** (1.0 - s)), rel=1e-14)


def test_wk_closed_form_small_k():
    # k = 2: -2 + 2 sqrt(2) - 1;  k = 3: -2 + 2 sqrt(3) - (1 + 1/sqrt(2))
    assert w_k(0.5, 2) == pytest.approx(2 * math.sqrt(2) - 3, rel=1e-14)
    assert w_k(0.5, 3) == pytest.approx(
        -2 + 2 * math.sqrt(3) - (1 + 1 / math.sqrt(2)), rel=1e-14)
    with pytest.raises(ValueError):
        w_k(0.5, 1)


def test_wk_limit_approaches_minus_zeta():
    errs = [abs(w_k(0.5, k) + 2.0 + ZETA_05) for k in (100, 10000)]
    assert errs[1] < errs[0]
    assert errs[1] < 0.01


def test_wk_extrapolation_accelerates():
    plain = abs(-(w_k(0.5, 10 ** 4) + 2.0) - ZETA_05)
    accel = abs(zeta_from_wk(0.5, 10 ** 4) - ZETA_05)
    assert accel < plain / 100
    assert accel < 1e-6


def test_eigen_count_hand_value():
    s = ExplicitString([0.5, 0.25])
    lam = (10 * math.pi) ** 2  # x = 10
    assert eigen_count(s, lam) == 5 + 2
    assert weyl_term(s, lam) == pytest.approx(7.5)
    assert packing_defect(s, 10.0) == pytest.approx(0.5)


def test_eigen_count_tie_at_reciprocal_length():
    # length exactly 1/x: excluded from the strict head but floor(l x) = 1
    s = ExplicitString([0.5, 0.1])
    x = 10.0
    lam = (x * math.pi) ** 2
    assert eigen_count(s, lam) == 5 + 1
    phi = weyl_term(s, lam)
    assert phi - eigen_count(s, lam) == pytest.approx(packing_defect(s, x), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.001, 0.999), min_size=1, max_size=25),
       st.floats(1.0, 5e4))
# (250 pi)^2 rounds below the eigenvalue at l x = 125: N = 124 and the
# identity holds at sqrt(lam)/pi = 249.99999999999997, not at x = 250
@example(lengths=[0.5], x=250.0)
def test_remainder_identity_random_strings(lengths, x):
    s = ExplicitString(lengths)
    lam = (x * math.pi) ** 2
    x = math.sqrt(lam) / math.pi
    resid = abs((weyl_term(s, lam) - eigen_count(s, lam)) - packing_defect(s, x))
    assert resid <= 1e-9 * max(1.0, weyl_term(s, lam))


def test_remainder_identity_holds_over_grid():
    points = spectral_points(make_a_string(1.0).truncate(500), np.geomspace(10, 1e6, 20))
    assert max(abs((phi - n) - delta) for n, phi, delta in points) < 1e-10


def test_zeta_context_evaluates_zeta_once(monkeypatch):
    calls = []
    monkeypatch.setattr(spectral, "zeta", lambda s: calls.append(s) or ZETA_05)
    ctx = ZetaContext(D=0.5, L=2.0)
    values = (ctx.zeta_D, ctx.c1D, ctx.target_remainder, ctx.target_delta_ratio,
              ctx.identity_residual(), ctx.zeta_D)
    assert calls == [0.5] and values[0] == values[-1] == ZETA_05
    assert ctx == ZetaContext(D=0.5, L=2.0) and hash(ctx) == hash(ZetaContext(D=0.5, L=2.0))


def test_zeta_context_constants():
    ctx = ZetaContext(D=0.5, L=1.0)
    assert ctx.zeta_D == pytest.approx(ZETA_05, abs=1e-13)
    assert ctx.content == pytest.approx(2.0 ** 1.5, rel=1e-15)
    assert ctx.target_delta_ratio == pytest.approx(-ZETA_05, rel=1e-13)
    assert ctx.identity_residual() < 1e-14


def test_second_term_probe_tracks_target():
    s = make_a_string(1.0)
    d = make_derived(power_log(0.5), 0.5)
    records = second_term_probe(s, d, np.geomspace(1e4, 1e8, 12))
    assert len(records) == 12
    ratios = [r.delta_ratio for r in records]
    target = -ZETA_05
    assert abs(np.mean(ratios[-4:]) - target) / target < 0.1
    for r in records:
        assert r.phi - r.N == pytest.approx(r.delta_at, abs=1e-9 * max(1.0, r.phi))


def test_records_to_csv_format():
    s = make_a_string(1.0)
    d = make_derived(power_log(0.5), 0.5)
    records = second_term_probe(s, d, [1e4, 1e6])
    text = records_to_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == "lambda,N,phi,delta,f,remainder_ratio,delta_ratio"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 1e4
    assert first[1] == str(eigen_count(s, 1e4))
    assert float(first[6]) == pytest.approx(records[0].delta_ratio, rel=1e-14)


@st.composite
def _near_integer_products(draw):
    """(lam, lengths) with an exact tie l = 1/x and lengths nextafter(k/x)
    whose products with x = sqrt(lam)/pi lie on or next to integers."""
    lam = (draw(st.floats(1.0, 1e20)) * math.pi) ** 2
    x = math.sqrt(lam) / math.pi
    lengths = [1.0 / x] + draw(st.lists(st.floats(1e-9, 1.0), max_size=8))
    for k, way in draw(st.lists(st.tuples(st.integers(1, 1000),
                                          st.sampled_from((-1, 0, 1))),
                                max_size=8)):
        lengths.append(float(np.nextafter(k / x, way * math.inf)) if way else k / x)
    return lam, lengths


@settings(max_examples=200, deadline=None)
@given(_near_integer_products())
def test_count_and_defect_match_fraction_sums(case):
    lam, lengths = case
    x = math.sqrt(lam) / math.pi
    s = ExplicitString(lengths)
    products = [Fraction(l) * Fraction(x) for l in lengths]
    floors = [math.floor(p) for p in products]
    assert eigen_count(s, lam) == sum(floors)
    delta = sum(p - f for p, f in zip(products, floors))
    assert packing_defect(s, x) == pytest.approx(
        float(delta), abs=1e-12 * max(1.0, float(sum(products))))


def _fraction(l, x):
    """{l x} from p = l*x in Python floats; where p is an integer, from
    the exact error e = l x - p (a product's error is a double)."""
    p = l * x
    if p != math.floor(p):
        return p - math.floor(p)
    e = float(Fraction(l) * Fraction(x) - Fraction(p))
    return e - math.floor(e)


def _head(string, x):
    """The head of one x, from the grid driver."""
    return spectral._heads(string, [x])[0]


def _direct_head(string, x):
    """The direct kernel over the whole head: the oracle of the hyperbola
    kernel."""
    return spectral._direct(*string.runs_above((1.0 / x) * (1.0 - 2.0 ** -50)), x)


def _assert_head_sum_is_fsum_of_fractions(string, x, kernel=_head):
    _, head, n = kernel(string, x)
    lengths = string.length(np.arange(1, n + 1)).tolist() if n else []
    assert head == math.fsum(_fraction(l, x) for l in lengths)


@settings(max_examples=200, deadline=None)
@given(_near_integer_products())
def test_head_fraction_sum_is_fsum_of_single_fractions(case):
    lam, lengths = case
    _assert_head_sum_is_fsum_of_fractions(ExplicitString(lengths),
                                          math.sqrt(lam) / math.pi)


def _sweep_profile():
    return make_profile(1.0, make_derived(power_log(0.5), 0.5))


def test_profile_head_fraction_sum_at_1e24():
    # the benchmark sweep's longest head: 564 189 lengths, in the direct
    # kernel that the hyperbola kernel is tested against
    x = math.sqrt(1e24) / math.pi
    assert _direct_head(_sweep_profile(), x)[2] == 564189
    _assert_head_sum_is_fsum_of_fractions(_sweep_profile(), x, _direct_head)


def _clamped_profile():
    # valid_from = 1e4: 9 999 lengths clamped at 1e-8 = l_(10^4), so the
    # counts c_k for k near x 1e-8 end inside the clamp
    return make_profile(1.0, make_derived(power_log(0.5, (), domain_upper=1e-4), 0.5))


def _hyperbola_case(name):
    if name == "sweep_profile":
        return _sweep_profile(), 1e24
    if name == "sweep_explicit":
        # from lambda = 9.9e20 up the head is the whole string
        return make_a_string(1.0).truncate(10 ** 5), 1e22
    if name == "clamped_profile":
        return _clamped_profile(), 1e25
    return bundled_examples()[name].build()[2], {"profile_log_D0.5": 1e19,
                                                 "a_string_0.5": 1e21}[name]


@pytest.mark.parametrize("name", ["sweep_profile", "profile_log_D0.5",
                                  "a_string_0.5", "clamped_profile", "sweep_explicit"])
def test_hyperbola_kernel_equals_the_direct_kernel(monkeypatch, name):
    string, top = _hyperbola_case(name)
    x_top = math.sqrt(top) / math.pi
    xs = [math.sqrt(lam) / math.pi for lam in np.geomspace(1e9, top, 7).tolist()]
    if name == "clamped_profile":
        # x l_j = 100 exactly on the clamp, and a tie-free neighbour
        xs += [1e10, 1e10 * (1.0 + 2.0 ** -52)]
    else:
        assert (name == "profile_log_D0.5") == (string.length(1) == string.length(9))
    # x l_(P+1) just below 1 with a head past P = 2^15: on a profile K1 = 0,
    # and the count is the direct part alone
    l_next = float(string.head(spectral._DIRECT_MAX + 1)[-1])
    xs.append(1.0 / l_next)
    while xs[-1] * l_next >= 1.0:
        xs[-1] = float(np.nextafter(xs[-1], 0.0))
    ks = []
    counts_reaching = spectral._counts_reaching
    monkeypatch.setattr(spectral, "_counts_reaching",
                        lambda s, x, k: ks.append(k.size) or counts_reaching(s, x, k))
    xs.append(x_top)
    heads = 0
    # the whole grid from one driver call, and each x alone as eigen_count
    # reads it
    for x, (n, head, j) in zip(xs, spectral._heads(string, xs)):
        count = spectral._head_at(string, x)[0]
        n_direct, head_direct, j_direct = _direct_head(string, x)
        if j_direct <= spectral._DIRECT_MAX:
            continue
        heads += 1
        assert j < j_direct
        assert type(n) is int and n == n_direct, (name, x)
        delta = head + x * string.tail_sum_beyond_index(j)
        delta_direct = head_direct + x * string.tail_sum_beyond_index(j_direct)
        assert delta == pytest.approx(delta_direct, rel=1e-12, abs=0.0), (name, x)
        assert count == n
    # a stored string keeps K1 >= 1 there, and a profile splits at P with no count
    assert heads >= 4 and (0 in ks) == (string.count() is None)


def _inverse_square_string():
    # l_j = fl(1/j^2) ties with fl(k/x) whenever x/k is a square
    return AnalyticString(lambda j: 1.0 / (np.asarray(j, dtype=float) ** 2),
                          lambda eps: np.asarray(eps) ** -0.5)


@pytest.mark.parametrize("x", [3600.0, 44100.0, 720720.0 ** 2])
def test_counts_reaching_k_are_exact_at_ties(x):
    profile = _inverse_square_string()
    # the same fl(1/j^2) stored, 10^6 of them: past every head at these x
    stored = ExplicitString(profile.length(np.arange(1, 10 ** 6 + 1)))
    k = np.arange(1.0, int(x ** (1.0 / 3.0)) + 2.0)
    for string in (profile, stored):
        counts = spectral._counts_reaching(string, x, k)
        assert counts.dtype == np.int64
        # the boundaries that J(k/x) misplaces, all at ties l_j = fl(k/x)
        assert (counts != string.J(k / x)).any()
        for kk, c in zip(range(1, k.size + 1), counts.tolist()):
            assert c == 0 or Fraction(string.length(c)) * Fraction(x) >= kk
            assert Fraction(string.length(c + 1)) * Fraction(x) < kk
        if x > 2 ** 30:
            assert _head(string, x)[0] == _direct_head(string, x)[0]


@pytest.mark.parametrize("lengths, x", [
    # K1 = floor(x^(1/3) / _COUNT_COST) = 0: j1 = c_1, the whole string,
    # and fl(1e-3) 1000 = 1 is a tie
    (np.linspace(1e-3, 2e-3, 40000), 1000.0),
    # K1 = 2, and every length reaches K1 + 1: each c_k is the size
    (np.linspace(0.5, 1.0, 40000), 1e5),
])
def test_hyperbola_on_stored_lengths_at_its_edges(lengths, x):
    string = ExplicitString(lengths)
    n, head, j = _head(string, x)
    n_direct, head_direct, j_direct = _direct_head(string, x)
    assert j_direct == string.count() > spectral._DIRECT_MAX
    assert (j, n, head) == (j_direct, n_direct, head_direct) and type(n) is int
    assert n == sum(math.floor(Fraction(l) * Fraction(x)) for l in lengths.tolist())


def test_split_at_the_prefix_keeps_one_tail_until_the_string_goes(monkeypatch):
    monkeypatch.setattr(spectral, "_SPLIT_TAIL", weakref.WeakKeyDictionary())
    string = _sweep_profile()
    for lam in (1e22, 1e24):
        x = _x(lam)
        n, _, j = _head(string, x)
        n_direct, head_direct, j_direct = _direct_head(string, x)
        assert j == spectral._DIRECT_MAX < j_direct and n == n_direct
        assert packing_defect(string, x) == pytest.approx(
            head_direct + x * string.tail_sum_beyond_index(j_direct), rel=1e-12, abs=0.0)
    fresh = _sweep_profile().tail_sum_beyond_index(spectral._DIRECT_MAX)
    assert _bits(spectral._SPLIT_TAIL[string]) == _bits(fresh)
    del string
    gc.collect()
    assert len(spectral._SPLIT_TAIL) == 0


def test_split_where_the_products_at_the_prefix_end_round_up_onto_K1():
    # l_(P-1) = l_P = l_(P+1) = c, and fl(x c) = 30 while the exact product
    # stays below 30: K1 = 30, and c_30 = P - 2 counts no length past P;
    # the same at the seed's end, P = 511, alone and on a grid
    for P in (spectral._DIRECT_MAX, strings._SEED):
        plateau = 1.0 / (P * P + 1.0)

        def length_fn(j, P=P, plateau=plateau):
            j = np.asarray(j, dtype=float)
            return np.where(np.abs(j - P) <= 1.0, plateau, 1.0 / j ** 2)

        string = AnalyticString(length_fn, lambda eps: np.asarray(eps) ** -0.5)
        x = 30.0 / plateau
        assert x * plateau == 30.0 and not spectral._reaches(plateau, x, 30.0)
        assert spectral._counts_reaching(string, x, np.array([30.0])).tolist() == [P - 2]
        n = _direct_head(string, x)[0]
        assert [(h[0], h[2]) for h in spectral._heads(string, [x, x])] == [(n, P)] * 2
        assert _head(string, x)[0] == n


_SPLIT_CASES = {
    # name: (string, lambda grid, whether a head splits at _SEED)
    **{name: (lambda name=name: bundled_examples()[name].build()[2],
              lambda name=name: bundled_examples()[name].lam_grid().tolist(), split)
       for name, split in (("profile_power_D0.3", False), ("profile_log_D0.3", False),
                           ("profile_power_D0.5", False), ("profile_log_D0.5", True),
                           ("profile_power_D0.7", True), ("profile_log_D0.7", True))},
    "sweep_profile": (_sweep_profile, lambda: np.geomspace(1e12, 1e19, 20).tolist(), True),
    "a_string_1": (lambda: make_a_string(1.0), lambda: np.geomspace(1e12, 1e19, 20).tolist(),
                   True),
    # D = 0.3 split at _SEED (1e15) and at P (1e25, 1e28), where x tail(j1)
    # is 6, 6 and 57 times delta
    "profile_log_D0.3_deep": (lambda: bundled_examples()["profile_log_D0.3"].build()[2],
                              lambda: [1e15, 1e25, 1e28], True),
}


@pytest.mark.parametrize("name", sorted(_SPLIT_CASES))
def test_split_equals_the_direct_kernel(name):
    # N is the direct kernel's, and delta within 1e-12; a split's delta
    # carries x tail(j1) and S, and its error stays within 2^-47 of them
    # (see the spectral docstring)
    make, grid, splits = _SPLIT_CASES[name]
    string, xs = make(), [_x(lam) for lam in grid()]
    seed_splits = 0
    for x, head in zip(xs, spectral._heads(string, xs)):
        n, part, j = head
        n_direct, part_direct, j_direct = _direct_head(string, x)
        assert type(n) is int and n == n_direct, (name, x)
        tail = string.tail_sum_beyond_index(j)
        delta = part + x * tail
        delta_direct = part_direct + x * string.tail_sum_beyond_index(j_direct)
        assert delta == pytest.approx(delta_direct, rel=1e-12, abs=0.0), (name, x)
        s = n - spectral._direct(string.head(j), None, x)[0]
        assert abs(delta - delta_direct) <= 2.0 ** -47 * (x * tail + s + delta_direct)
        # each x alone, as eigen_count reads it, takes the same kernel
        assert _head(make(), x) == head
        assert j in (j_direct, strings._SEED) or j_direct > spectral._DIRECT_MAX
        seed_splits += j == strings._SEED < j_direct
    assert (seed_splits > 0) == splits


def test_split_counts_take_one_J_over_the_grid(monkeypatch):
    # heads of 874, 5 842 and 10 405 lengths read the 511 of the seed and
    # their counts from one J call: the profile evaluates the hint tests of
    # the three eps below the seed and of the counts, and no head
    string, sizes = _length_calls(bundled_examples()["profile_log_D0.7"].build()[2])
    calls = []
    counts_reaching = spectral._counts_reaching
    monkeypatch.setattr(spectral, "_counts_reaching",
                        lambda s, x, k: calls.append(k.size) or counts_reaching(s, x, k))
    xs = [_x(lam) for lam in (1e7, 1e9, 4.2e9, 1e6)]
    heads = spectral._heads(string, xs)
    assert [j for _, _, j in heads] == [511, 511, 511, 325]
    assert len(calls) == 1 and sizes == [3 * 3 + 1, 3 * calls[0] + 1]
    assert string._prefix.size == strings._SEED


@pytest.mark.parametrize("lams", [
    [1e4, 1e8, 5.0, 1e12, 1e8],                 # an empty head and a repeat
    [1e30, 1e34],                               # floors summing past 2^53
    [(4.0 * math.pi) ** 2, 4e10, 1e16],         # products on integers
])
def test_direct_pass_is_direct_bit_for_bit(lams):
    lengths = np.sort(np.concatenate((
        [0.5, 0.25, 0.25, 1.0 / 3.0, 0.3, 2.0 ** -20],
        np.random.default_rng(37).uniform(1e-9, 1.0, 3000))))[::-1]
    xs = [_x(lam) for lam in lams]
    js = [int(np.sum(lengths * x >= 1.0)) for x in xs]
    expected = [spectral._direct(lengths[:j], None, x) for x, j in zip(xs, js)]
    got = spectral._direct_pass(lengths, xs, js)
    assert [(type(n), n, _bits(f), j) for n, f, j in got] == \
        [(type(n), n, _bits(f), j) for n, f, j in expected]


def test_long_heads_read_few_products_and_one_split_tail(monkeypatch):
    sizes, tails = [], []
    products, em_tail_sum = spectral._products, strings._em_tail_sum
    monkeypatch.setattr(spectral, "_products",
                        lambda vals, x: sizes.append(vals.size) or products(vals, x))
    # the sweep's explicit string at 1e22: a head of all 10^5 lengths
    x = _x(1e22)
    j = _head(make_a_string(1.0).truncate(10 ** 5), x)[2]
    K1 = int(x ** (1.0 / 3.0) / spectral._COUNT_COST)
    assert 0 < sum(sizes) <= j + 2 * (K1 + 1) < 10 ** 5 // 5
    # the warmed sweep profile: the heads at 1e22 and 1e24 both split at
    # _DIRECT_MAX, and share one Euler-Maclaurin tail
    string = _sweep_profile()
    string.head(strings._PREFIX)
    monkeypatch.setattr(strings, "_em_tail_sum",
                        lambda *args: tails.append(args[1]) or em_tail_sum(*args))
    for lam in (1e22, 1e24):
        eigen_count(string, lam)
        packing_defect(string, _x(lam))
    assert len(tails) == 1


def _length_calls(string, cap=math.inf):
    """string rebuilt on a length function that records the size of each
    call, and fails a call of more than cap lengths before making it."""
    sizes = []

    def length_fn(js):
        sizes.append(np.size(js))
        assert sizes[-1] <= cap
        return string._fn(js)

    return AnalyticString(length_fn, string._inv, string._tail, seed=string._seed), sizes


def test_deep_lambda_takes_no_long_length_call():
    # lambda = 1e25 on profile_log_D0.5: the direct head would hold 2.8e7
    # lengths; the hyperbola kernel's head holds j1 = 184 653, the stored
    # prefix and one call for the rest
    string, sizes = _length_calls(bundled_examples()["profile_log_D0.5"].build()[2],
                                  cap=4 * 10 ** 5)
    (n, phi, delta), = spectral_points(string, [1e25])
    assert 184653 - strings._PREFIX in sizes
    assert abs((phi - n) - delta) <= 1e-9 * phi


def test_deep_count_reads_the_prefix_and_few_other_lengths():
    # after warm-up the prefix holds 2^15 + 1 lengths, and at 1e24 the
    # count takes K1 = floor(x l_(2^15 + 1)) = 296 rather than x^(1/3) =
    # 6827: J over the grid tests 4 lengths, the counts' J 3 K1 + 1, and
    # nothing else reads the profile
    string, sizes = _length_calls(_sweep_profile())
    lam = 1e24
    x = math.sqrt(lam) / math.pi
    n = eigen_count(string, lam)
    assert string._prefix.size == strings._PREFIX == spectral._DIRECT_MAX + 1
    assert int(x * string.length(strings._PREFIX)) == 296
    del sizes[:]
    assert _head(string, x)[0] == n == _direct_head(_sweep_profile(), x)[0]
    assert sizes == [4, 3 * 296 + 1]


@pytest.mark.parametrize("make", [_sweep_profile, _clamped_profile, _inverse_square_string])
def test_J_across_the_prefix_end_equals_the_hint_tests(make):
    # eps at stored lengths (ties), between them and past the prefix's end:
    # J counts those at or above its last length inside the prefix, and
    # must agree with the tests of the hint on every one
    string = make()
    stored = string.head(strings._PREFIX)
    ends = string._fn(np.arange(strings._PREFIX - 40.0, strings._PREFIX + 41.0))
    eps = np.concatenate((ends, np.sqrt(ends[:-1] * ends[1:]),
                          stored[[0, 1, 9998, 9999, 10000, 20000]],
                          np.geomspace(stored[1000], stored[-1] / 4.0, 60)))
    assert (eps >= stored[-1]).any() and (eps < stored[-1]).any()
    expected = string._J_hint(eps).tolist()
    assert string.J(eps).tolist() == expected
    assert [string.J(float(e)) for e in eps] == expected
    assert string._prefix.size == strings._PREFIX


def test_tie_free_heads_form_no_product_error(monkeypatch):
    sizes = []
    product_error = spectral._product_error
    monkeypatch.setattr(spectral, "_product_error",
                        lambda a, b: sizes.append(np.size(a)) or product_error(a, b))
    string, lam = make_a_string(1.0).truncate(10 ** 5), 2.9e10
    x = math.sqrt(lam) / math.pi
    vals = string.runs_above((1.0 / x) * spectral._BELOW)[0]
    assert vals.size == 232 and not np.any(vals * x == np.floor(vals * x))
    eigen_count(string, lam)
    packing_defect(string, x)
    assert sizes == []
    # products at 2 and 1, and 1.2 off an integer: the error at the two ties
    assert eigen_count(ExplicitString([0.5, 0.25, 0.3]), (4.0 * math.pi) ** 2) == 4
    assert sizes == [2]


def test_reaches_forms_the_product_error_only_at_ties(monkeypatch):
    sizes = []
    product_error = spectral._product_error
    monkeypatch.setattr(spectral, "_product_error",
                        lambda a, b: sizes.append(np.size(a)) or product_error(a, b))
    # fl(1/3) * 3 rounds up onto 1, and the exact product stays below it
    lengths, k = np.array([0.5, 0.25, 1.0 / 3.0, 0.3]), np.ones(4)
    assert spectral._reaches(lengths, 3.0, k).tolist() == [True, False, False, False]
    assert sizes == [1]
    assert [bool(spectral._reaches(l, 3.0, 1.0)) for l in lengths.tolist()] == \
        [True, False, False, False]
    assert sizes == [1, 1]


def test_hyperbola_takes_no_more_lengths_than_the_head_below_half():
    # D = 0.3 at 1e32: a head of 4.9e4 lengths, where K1 = x^(1/3) would
    # ask J for 1.5e5 counts
    string, sizes = _length_calls(bundled_examples()["profile_power_D0.3"].build()[2])
    x = 1e16 / math.pi
    n_direct, _, j_direct = _direct_head(string, x)
    del sizes[:]
    assert _head(string, x)[0] == n_direct
    assert j_direct > spectral._DIRECT_MAX
    assert sum(sizes) < j_direct


@pytest.mark.parametrize("name, string", [
    ("cantor", make_cantor()),
    ("explicit", make_a_string(1.0).truncate(10 ** 5)),
    ("profile", _sweep_profile()),
])
def test_count_and_defect_equal_spectral_point(name, string):
    # unsorted, with a repeat, an empty head at lambda = 5 and, on the
    # profile, heads on both sides of _DIRECT_MAX from 1e22 up
    grid = np.geomspace(1e2, 1e22, 9).tolist() + [2.6210350237577547e25, 5.0, 1e24]
    lams = grid[1::2] + grid[::2] + [grid[4]]
    points = spectral_points(string, lams)
    assert len(points) == len(lams) and points[-1] == points[lams.index(grid[4])]
    for lam, point in zip(lams, points):
        x = math.sqrt(lam) / math.pi
        assert spectral_points(string, [lam]) == [point]
        n, phi, delta = point
        assert type(n) is int and n == eigen_count(string, lam)
        assert weyl_term(string, lam) == phi
        assert packing_defect(string, x) == delta
        assert (n == 0) == (lam == 5.0)


_SWEEP_STRINGS = {"cantor": make_cantor,
                  "explicit": lambda: make_a_string(1.0).truncate(10 ** 5),
                  "profile": _sweep_profile}


def _x(lam):
    return math.sqrt(lam) / math.pi


def _bits(value):
    return (type(value), value.hex() if isinstance(value, float) else value)


def test_memo_reads_equal_reads_on_fresh_strings():
    # ("N", lambda) is an eigen_count, ("delta", x) a packing_defect: repeats,
    # a count and a defect at one x, x one ulp apart, heads on both sides of
    # _DIRECT_MAX, an empty head, and two strings interleaved
    x22 = _x(1e22)
    up, down = float(np.nextafter(x22, math.inf)), float(np.nextafter(x22, 0.0))
    calls = [("profile", "N", 1e22), ("profile", "delta", x22), ("profile", "delta", x22),
             ("profile", "N", 1e22), ("profile", "delta", up), ("profile", "delta", down),
             ("profile", "N", 1e22), ("profile", "N", 1e24), ("profile", "delta", _x(1e24)),
             ("explicit", "N", 1e18), ("profile", "delta", _x(1e18)),
             ("explicit", "delta", _x(1e18)), ("profile", "N", 1e18),
             ("explicit", "delta", x22), ("explicit", "N", 1e22), ("explicit", "N", 5.0),
             ("cantor", "N", 2.6210350237577547e25), ("explicit", "delta", _x(5.0)),
             ("cantor", "delta", _x(2.6210350237577547e25)), ("cantor", "N", 1e12),
             ("cantor", "delta", _x(1e12)), ("cantor", "N", 2.6210350237577547e25)]
    # the log profile's heads: 325 lengths at 1e6, split at _SEED from 874
    # at 1e7 to 14 712 at 1e10, and past _DIRECT_MAX from 1e11
    calls += [("log", kind, arg) for lam in (1e9, 1e6, 1e11, 1e7, 1e6, 1e10, 1e9)
              for kind, arg in (("N", lam), ("delta", _x(lam)))]
    calls += [("log", "delta", _x(lam)) for lam in (4.2e9, 1e11, 1e6)]
    makers = dict(_SWEEP_STRINGS,
                  log=lambda: bundled_examples()["profile_log_D0.7"].build()[2])
    live = {name: make() for name, make in makers.items()}
    read = {"N": eigen_count, "delta": packing_defect}
    for name, kind, arg in calls:
        got = read[kind](live[name], arg)
        fresh = read[kind](makers[name](), arg)
        assert _bits(got) == _bits(fresh), (name, kind, arg)


def test_count_then_defect_at_one_lambda_read_one_head(monkeypatch):
    sizes = []
    heads = spectral._heads
    monkeypatch.setattr(spectral, "_heads",
                        lambda string, xs: sizes.append(len(xs)) or heads(string, xs))
    for make in _SWEEP_STRINGS.values():
        string = make()
        for lam in (1e12, 1e22, 1e24):
            del sizes[:]
            eigen_count(string, lam)
            packing_defect(string, _x(lam))
            assert sizes == [1]
            packing_defect(string, float(np.nextafter(_x(lam), 0.0)))
            assert sizes == [1, 1]


def test_memo_holds_no_entry_after_its_string_is_gone(monkeypatch):
    monkeypatch.setattr(spectral, "_LAST", weakref.WeakKeyDictionary())
    string = _sweep_profile()
    eigen_count(string, 1e22)
    assert list(spectral._LAST.keys()) == [string]
    del string
    gc.collect()
    assert len(spectral._LAST) == 0


def test_second_term_probe_reads_one_head_and_one_tail(monkeypatch):
    # one J for the heads, at most one for the counts of every head split at
    # _SEED, and one tail: the a-string's head at 1e12 holds 564 lengths, and
    # profile_log_D0.7's grid splits four heads
    calls = []

    def counted(name):
        method = getattr(strings.AnalyticString, name)

        def wrapper(self, arg):
            calls.append(name)
            return method(self, arg)
        return wrapper

    for name in ("J", "tail_sum_beyond_index"):
        monkeypatch.setattr(strings.AnalyticString, name, counted(name))
    config = bundled_examples()["profile_log_D0.7"]
    grid = config.lam_grid()
    # every lambda of the a-string's grid is kept; lambda = grid[0] = 1e3
    # lies below the log gauge's valid_from
    for (_, derived, string), lams, kept in (
            ((None, make_derived(power_log(0.5), 0.5), make_a_string(1.0)),
             np.geomspace(1e4, 1e12, 12), 12),
            (config.build(), grid, len(grid) - 1)):
        del calls[:]
        assert len(second_term_probe(string, derived, lams)) == kept
        assert calls == ["J", "J", "tail_sum_beyond_index"]


@pytest.mark.parametrize("slice_length", [1, 7, 4096])
def test_limb_sums_in_slices_match_one_slice(monkeypatch, slice_length):
    string = make_a_string(1.0).truncate(10 ** 5)
    xs = [math.sqrt(lam) / math.pi for lam in (1e12, 1e18, 1e22)]
    whole = spectral._heads(string, xs)
    monkeypatch.setattr(spectral, "_SLICE", slice_length)
    assert spectral._heads(string, xs) == whole
    _assert_head_sum_is_fsum_of_fractions(string, xs[1])


def test_cantor_count_at_float_floor_fault():
    # fl(x/3) = 543206908579.0 rounds up onto an integer; the exact product
    # is 543206908578.99997
    assert eigen_count(make_cantor(), 2.6210350237577547e25) == 1629529882242


def test_count_exact_past_two_to_the_53():
    blocks = [(0.5, 2 ** 60 + 1), (0.1, 3)]
    s = RunLengthString(blocks)
    for lam in (1e3, 1e12, 2.6e25):
        x = math.sqrt(lam) / math.pi
        exact = sum(m * math.floor(Fraction(l) * Fraction(x)) for l, m in blocks)
        assert eigen_count(s, lam) == exact


def test_positive_arguments_required():
    s = make_interval(1.0)
    with pytest.raises(ValueError):
        eigen_count(s, 0.0)
    with pytest.raises(ValueError):
        packing_defect(s, -2.0)
    with pytest.raises(ValueError):
        weyl_term(s, -1.0)
    for string in (s, make_a_string(1.0)):
        for fn in (eigen_count, packing_defect, weyl_term,
                   lambda string, lam: spectral_points(string, [lam])):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="positive finite number"):
                    fn(string, bad)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
def test_second_term_probe_rejects_negative_lambda(bad):
    s = make_a_string(1.0)
    d = make_derived(power_log(0.5), 0.5)
    with pytest.raises(ValueError, match="non-negative finite number"):
        second_term_probe(s, d, [1e4, bad, 1e6])

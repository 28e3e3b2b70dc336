import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicmax import (CoefficientFamily, NormSearch, RandomModelParams,
                       VerificationError, apply_maximal, carleson_embedding_check,
                       holder_conjugate, indicator, lp_norm, operator_norm_bruteforce,
                       operator_norm_lower, proof_trace, random_model, stopping_weights,
                       testing_constant, theorem_constant, theorem_constant_hp,
                       verify_theorem)
from dyadicmax import constants
from dyadicmax.cli import SweepConfig, _load_instance, cmd_generate
from dyadicmax.constants import (_power_step, _ratios, _reference_ratio_hp, _row_blocks,
                                 _step_index)
from dyadicmax.maximal import _apply_levels, _indicator_ratios, _suffix_table, node_integrals

from _reference import (ref_power_step, ref_power_step_tables, ref_ratio_mp,
                        ref_testing_constant, ref_theorem_constant_mp)
from conftest import INF, caterpillar, make_instance, random_nonneg

# frozen from a 50-digit evaluation of ((1+1/p)^(p+1) p)^(1/p) p'
C_AT_1_5 = 9.2100787466009665
C_AT_2 = 5.196152422706632  # 3*sqrt(3)


def ratio(model, a, f, p, q):
    return (lp_norm(model, apply_maximal(model, a, f, q), p, "nu")
            / lp_norm(model, f, p, "mu"))


def test_holder_conjugate():
    assert holder_conjugate(2) == 2.0
    assert holder_conjugate(4) == pytest.approx(4 / 3, rel=1e-15)
    assert holder_conjugate(1.01) == pytest.approx(101, rel=1e-12)
    for p in (1.0, math.inf, math.nan):  # inf / inf would be NaN
        with pytest.raises(ValueError, match="p must be a finite number > 1"):
            holder_conjugate(p)


def test_theorem_constant_values():
    assert theorem_constant(2) == pytest.approx(3 * math.sqrt(3), abs=1e-12)
    assert theorem_constant(2) == pytest.approx(C_AT_2, abs=1e-12)
    assert theorem_constant(1.5) == pytest.approx(C_AT_1_5, rel=1e-12)
    assert abs(theorem_constant(1e6) - 1.0) < 1e-3
    with pytest.raises(ValueError):
        theorem_constant(1.0)
    with pytest.raises(ValueError):
        theorem_constant(math.inf)


def test_theorem_constant_against_high_precision():
    for p in (1.2, 1.5, 2.0, 3.0, 7.0, 100.0):
        assert theorem_constant(p) == pytest.approx(theorem_constant_hp(p), rel=1e-12)


def test_theorem_constant_hp_equals_mpmath_bit_for_bit():
    # p - 1 from 1e-12 to 1e7 - 1 on a log scale, the CLI's sweep values, the
    # smallest p above 1 and the top of the range; cp_value records carry the result
    ps = list(1.0 + np.geomspace(1e-12, 1e7 - 1.0, 960))
    ps += [1.01, 1.2, 1.5, 2.0, 3.0, 7.5, 600.0, 1000.0, np.nextafter(1.0, 2.0), 1e7]
    differ = [p for p in ps if theorem_constant_hp(p) != ref_theorem_constant_mp(p)]
    assert len(ps) >= 900 and differ == []


def test_testing_constant_e1(e1):
    a = CoefficientFamily.constant(e1)
    B, witness = testing_constant(e1, a, 2, INF)
    assert B == pytest.approx(2.0, rel=1e-12)
    assert witness == "Q0"


def test_testing_constant_single_leaf(single_leaf):
    a = CoefficientFamily.constant(single_leaf)
    # nu(L)=5, mu(L)=3: value is mu(L) * (nu^(1/p)) / mu^(1/p) scaled by a=1
    for p in (1.5, 2, 3):
        B, witness = testing_constant(single_leaf, a, p, INF)
        expected = 3.0 * 5 ** (1 / p) / 3 ** (1 / p)
        assert B == pytest.approx(expected, rel=1e-12)
        assert witness == "L"


def test_testing_constant_unit_single_leaf():
    from dyadicmax import build_model
    model = build_model({"nodes": [{"id": "L", "parent": None}],
                         "mu": {"L": 1}, "nu": {"L": 1}})
    a = CoefficientFamily.constant(model)
    for p in (1.5, 2, 4):
        B, _ = testing_constant(model, a, p, INF)
        assert B == pytest.approx(1.0, rel=1e-12)


def test_testing_constant_zero_family(e1):
    zero = CoefficientFamily.constant(e1, 0.0)
    B, witness = testing_constant(e1, zero, 2, 2)
    assert B == 0.0 and witness is None


def test_testing_constant_null_mu():
    from dyadicmax import build_model
    model = build_model({
        "nodes": [{"id": "R", "parent": None},
                  {"id": "x", "parent": "R"}, {"id": "y", "parent": "R"}],
        "mu": {"x": 0, "y": 0}, "nu": {"x": 1, "y": 1}})
    B, witness = testing_constant(model, CoefficientFamily.constant(model), 2, INF)
    assert B == 0.0 and witness is None


def test_testing_matches_reference():
    instances = [make_instance(seed) for seed in range(25)]
    instances += [make_instance(seed, depth_max=6, branch_min=1) for seed in range(25)]
    for model, a in instances:
        for p, q in ((1.5, 2.0), (2.0, INF), (3.0, 6.0)):
            got, got_witness = testing_constant(model, a, p, q)
            want, want_witness = ref_testing_constant(model, a, p, q)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
            assert got_witness == want_witness
        # At q = 1e6 the oracle's float q-th powers overflow.  On a path of
        # at most depth + 1 terms, though, the ell-q sum lies between the max
        # and (depth + 1)^(1/q) times it, so B is pinned by the q = inf oracle.
        got, _ = testing_constant(model, a, 2.0, 1e6)
        want, _ = ref_testing_constant(model, a, 2.0, INF)
        spread = (model.max_depth + 1) ** 1e-6
        assert want * (1 - 1e-10) - 1e-12 <= got <= want * spread * (1 + 1e-10) + 1e-12


def test_norm_lower_e1(e1):
    a = CoefficientFamily.constant(e1)
    A, witness = operator_norm_lower(e1, a, 2, INF, NormSearch(seed=3))
    assert A == pytest.approx(2.0, rel=1e-9)
    assert lp_norm(e1, witness, 2, "mu") == pytest.approx(1.0, rel=1e-12)
    # the reported witness reproduces the reported value
    assert ratio(e1, a, witness, 2, INF) == pytest.approx(A, rel=1e-12)


def test_norm_lower_dominates_testing():
    for seed in range(20):
        model, a = make_instance(seed)
        if np.all(model.mu_leaf == 0):
            continue
        for p, q in ((1.5, 3.0), (2.0, INF)):
            B, _ = testing_constant(model, a, p, q)
            A, _ = operator_norm_lower(model, a, p, q,
                                       NormSearch(n_random=8, ascent_rounds=2, seed=seed))
            assert B <= A * (1 + 1e-9) + 1e-15


def test_ratio_scale_invariant(e1):
    a = CoefficientFamily.constant(e1)
    f = np.array([0.3, 1.7])
    for c in (0.125, 8.0):  # exact binary scalings
        assert ratio(e1, a, c * f, 2, INF) == pytest.approx(
            ratio(e1, a, f, 2, INF), rel=1e-12)


def test_norm_lower_rejects_all_zero_mu():
    from dyadicmax import build_model
    model = build_model({
        "nodes": [{"id": "R", "parent": None},
                  {"id": "x", "parent": "R"}, {"id": "y", "parent": "R"}],
        "mu": {"x": 0, "y": 0}, "nu": {"x": 1, "y": 1}})
    with pytest.raises(ValueError, match="zero mu-norm"):
        operator_norm_lower(model, CoefficientFamily.constant(model), 2, INF)


def test_bruteforce_e1(e1):
    a = CoefficientFamily.constant(e1)
    val = operator_norm_bruteforce(e1, a, 2, INF, 100)
    assert val >= 2.0 - 1e-6
    assert val <= theorem_constant(2) * 2.0 + 1e-6


def test_bruteforce_single_leaf():
    from dyadicmax import build_model
    model = build_model({"nodes": [{"id": "L", "parent": None}],
                         "mu": {"L": 1}, "nu": {"L": 1}})
    a = CoefficientFamily.constant(model)
    assert operator_norm_bruteforce(model, a, 2, INF, 10) == pytest.approx(1.0, rel=1e-12)


def test_bruteforce_resolution_monotone(deep_model):
    # restrict to a <=4 leaf submodel
    from dyadicmax import build_model
    model = build_model({
        "nodes": [
            {"id": "R", "parent": None},
            {"id": "A", "parent": "R"}, {"id": "B", "parent": "R"},
            {"id": "a1", "parent": "A"}, {"id": "a2", "parent": "A"},
        ],
        "mu": {"a1": 0.5, "a2": 2.0, "B": 1.5},
        "nu": {"a1": 1.0, "a2": 0.25, "B": 2.0},
    })
    a = CoefficientFamily.random(model, 11)
    lo = operator_norm_bruteforce(model, a, 1.5, 2.0, 20)
    hi = operator_norm_bruteforce(model, a, 1.5, 2.0, 45)
    assert hi >= lo - 1e-12


def test_bruteforce_rejects_large_models():
    model, a = make_instance(3, depth_max=3)
    if model.n_leaves <= 4:
        pytest.skip("random draw too small")
    with pytest.raises(ValueError, match="too many leaves"):
        operator_norm_bruteforce(model, a, 2, INF, 10)


def test_bruteforce_high_precision_refinement(e1):
    a = CoefficientFamily.constant(e1)
    plain = operator_norm_bruteforce(e1, a, 2, INF, 50)
    refined = operator_norm_bruteforce(e1, a, 2, INF, 50, precision_dps=40)
    assert refined >= plain - 1e-15
    assert refined == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("p, q", [(1.5, 1.5), (1.5, 4.0), (2.0, INF), (3.0, 7.0), (600.0, INF)])
def test_reference_ratio_hp_matches_mpmath(e1, deep_model, p, q):
    models = [(e1, CoefficientFamily.constant(e1)),
              (deep_model, CoefficientFamily.constant(deep_model))]
    seed = 0
    while len(models) < 8:  # tiny random models with scalar and vector entries
        seed += 1
        model, a = make_instance(seed, depth_max=2, branch_max=3)
        if model.n_leaves <= 4 and np.any(model.mu_leaf > 0):
            models.append((model, a))
    for i, (model, a) in enumerate(models):
        for dist in ("exponential", "pareto"):
            f = random_nonneg(model, i, dist)
            for dps in (30, 50):
                got = _reference_ratio_hp(model, a, f, p, q, dps)
                assert got == pytest.approx(ref_ratio_mp(model, a, f, p, q, dps),
                                            rel=1e-15, abs=0), (i, dist, dps)


def test_verify_theorem_e1(e1):
    a = CoefficientFamily.constant(e1)
    rep = verify_theorem(e1, a, 2, INF, NormSearch(seed=5))
    assert rep.B == pytest.approx(2.0, rel=1e-12)
    assert rep.A_lower == pytest.approx(2.0, rel=1e-9)
    assert rep.C_p == pytest.approx(C_AT_2, rel=1e-12)
    assert rep.margins[0] == pytest.approx(0.0, abs=1e-9)
    assert rep.margins[1] == pytest.approx(C_AT_2 * 2 - 2, rel=1e-9)
    assert rep.witness_cube == "Q0"
    # witness recomputation reproduces the reported constants
    B_again, _ = testing_constant(e1, a, 2, INF)
    assert B_again == rep.B


def test_verify_theorem_zero_family(e1):
    rep = verify_theorem(e1, CoefficientFamily.constant(e1, 0.0), 2, 4)
    assert rep.B == 0.0 and rep.A_lower == 0.0


def test_verify_theorem_detects_injected_fault(e1):
    a = CoefficientFamily.constant(e1)
    # B = A_lower = 2 here, so any c_p < 1 breaks the upper inequality
    with pytest.raises(VerificationError, match="sandwich"):
        verify_theorem(e1, a, 2, INF, NormSearch(seed=5), c_p=0.9)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_theorem_rejects_non_finite(e1):
    # mu(Q0) * a = 2e308 overflows: B and A_lower are NaN, which must never pass
    a = CoefficientFamily.constant(e1, 1e308)
    with pytest.raises(VerificationError, match="non-finite") as exc:
        verify_theorem(e1, a, 1000, INF, NormSearch(n_random=4, ascent_rounds=1))
    rep = exc.value.report
    assert not all(math.isfinite(x) for x in (rep.B, rep.A_lower, *rep.margins))


def test_verify_theorem_requires_p_le_q(e1):
    with pytest.raises(ValueError, match="p <= q"):
        verify_theorem(e1, CoefficientFamily.constant(e1), 3, 2)


@pytest.mark.parametrize("rtol", [math.nan, math.inf, -1e-9])
def test_verify_theorem_rejects_a_bad_rtol(rtol):
    # with rtol = NaN every x > y * (1 + rtol) is False: C(p) = 1e-6 passed
    model, a = make_instance(1)
    with pytest.raises(ValueError, match="rtol must be finite and >= 0"):
        verify_theorem(model, a, 2.0, INF, NormSearch(4, 2, 0), rtol=rtol, c_p=1e-6)
    with pytest.raises(VerificationError, match="sandwich violation"):
        verify_theorem(model, a, 2.0, INF, NormSearch(4, 2, 0), rtol=0.0, c_p=1e-6)


@pytest.mark.parametrize("budget", [dict(n_random=-1), dict(ascent_rounds=-1),
                                    dict(n_random=2.5), dict(ascent_rounds=None)])
def test_norm_search_rejects_a_bad_budget(budget):
    with pytest.raises(ValueError, match="must be an integer >= 0"):
        NormSearch(**budget)


@pytest.mark.parametrize("seed", [1.5, -1, None, "3", np.float64(2.0)])
def test_norm_search_rejects_a_bad_seed(seed):
    # a float used to fail only inside the search, and -1 with numpy's message
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        NormSearch(seed=seed)


def test_verify_theorem_raises_bad_search_input(e1):
    # only mu = 0 makes the estimate 0; any other ValueError of the search is
    # bad input, not a sandwich violation with A_lower = 0
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        verify_theorem(e1, CoefficientFamily.constant(e1), 2, INF, NormSearch(4, 2, seed=-1))


def test_verify_theorem_all_zero_mu_is_vacuous():
    from dyadicmax import build_model
    model = build_model({
        "nodes": [{"id": "R", "parent": None},
                  {"id": "x", "parent": "R"}, {"id": "y", "parent": "R"}],
        "mu": {"x": 0, "y": 0}, "nu": {"x": 1, "y": 1}})
    rep = verify_theorem(model, CoefficientFamily.constant(model), 2, INF)
    assert (rep.B, rep.A_lower, rep.witness_cube, rep.witness_function) == (0.0, 0.0, None, None)


# -- the suffix cache of the testing constant ---------------------------------


def test_suffix_cache_is_keyed_by_the_masses():
    # one family on its model and on a copy with other masses, at the same q:
    # each gets its own B and its own indicator ratios, as a fresh family would
    model, a = make_instance(3)
    rng = np.random.default_rng(0)
    copy = model.with_measures(mu_leaf=rng.exponential(1.0, model.n_leaves))
    for p, q in ((2.0, 4.0), (2.0, INF)):
        B = testing_constant(model, a, p, q)
        B_copy = testing_constant(copy, a, p, q)
        assert B_copy != B
        assert B_copy == testing_constant(copy, a.scaled(1.0), p, q)
        assert np.array_equal(_indicator_ratios(copy, a, p, q, _suffix_table(copy, a, q)),
                              _indicator_ratios(copy, a.scaled(1.0), p, q,
                                                _suffix_table(copy, a.scaled(1.0), q)))
        assert testing_constant(model, a, p, q) == B


def test_suffix_cache_alternating_q_gives_cold_results():
    # a family used across (p, q) gives what a cold family gives
    model, a = make_instance(5)
    pq = [(2.0, 2.0), (2.0, 4.0), (2.0, 2.0), (2.0, INF), (3.0, 4.0), (2.0, INF),
          (1.5, 2.0), (1.5, 1e6)] + [(2.0, 2.0 + k / 4) for k in range(12)] + [(3.0, 4.0)]
    for p, q in pq:
        cold = a.scaled(1.0)
        assert testing_constant(model, a, p, q) == testing_constant(model, cold, p, q)
        assert np.array_equal(_indicator_ratios(model, a, p, q, _suffix_table(model, a, q)),
                              _indicator_ratios(model, cold, p, q,
                                                _suffix_table(model, cold, q))), (p, q)


def test_verify_theorem_builds_the_suffix_table_once(monkeypatch):
    # the testing constant and the norm search read one table per call
    import dyadicmax.constants as constants_mod
    calls = []
    original = constants_mod._suffix_table
    monkeypatch.setattr(constants_mod, "_suffix_table",
                        lambda *args: calls.append(args[2]) or original(*args))
    model, a = make_instance(3)
    assert np.any(model.mu_leaf > 0)
    for p, q in ((2.0, 4.0), (2.0, INF), (3.0, 4.0)):
        calls.clear()
        verify_theorem(model, a, p, q, NormSearch(4, 2, 0))
        assert calls == [q]
        testing_constant(model, a, p, q)
        operator_norm_lower(model, a, p, q, NormSearch(4, 2, 0))
        assert calls == [q] * 3


def test_verify_theorem_matches_calls_on_a_fresh_family():
    # one family across a sweep of (p, q) gives what a fresh one gives per call
    for seed in range(6):
        model, a = make_instance(seed, roots=1 + seed % 2)
        if np.all(model.mu_leaf == 0):
            continue
        for p, q in ((1.5, 3.0), (2.0, INF), (3.0, 3.0), (2.0, 4.0), (3.0, INF)):
            search = NormSearch(8, 4, seed)
            rep = verify_theorem(model, a, p, q, search)
            B, cube = testing_constant(model, a.scaled(1.0), p, q)
            A, witness = operator_norm_lower(model, a.scaled(1.0), p, q, search)
            assert (rep.B, rep.witness_cube, rep.A_lower) == (B, cube, A), (seed, p, q)
            assert np.array_equal(rep.witness_function, witness)


def test_scale_covariance_in_a():
    model, a = make_instance(17)
    p, q = 2.0, INF
    search = NormSearch(n_random=12, ascent_rounds=3, seed=2)
    B1, _ = testing_constant(model, a, p, q)
    A1, _ = operator_norm_lower(model, a, p, q, search)
    doubled = a.scaled(2.0)
    B2, _ = testing_constant(model, doubled, p, q)
    A2, _ = operator_norm_lower(model, doubled, p, q, search)
    assert B2 == pytest.approx(2 * B1, rel=1e-12)
    assert A2 == pytest.approx(2 * A1, rel=1e-12)


def test_scale_covariance_in_nu():
    model, a = make_instance(23)
    p, q = 1.5, 3.0
    search = NormSearch(n_random=12, ascent_rounds=3, seed=4)
    B1, _ = testing_constant(model, a, p, q)
    A1, _ = operator_norm_lower(model, a, p, q, search)
    scaled = model.with_measures(nu_leaf=4.0 * model.nu_leaf)
    B2, _ = testing_constant(scaled, a, p, q)
    A2, _ = operator_norm_lower(scaled, a, p, q, search)
    factor = 4.0 ** (1 / p)
    assert B2 == pytest.approx(factor * B1, rel=1e-12)
    assert A2 == pytest.approx(factor * A1, rel=1e-12)


def test_oracle_consistency_small_instances():
    checked = 0
    seed = 0
    while checked < 10:
        seed += 1
        model, a = make_instance(seed, depth_max=2, branch_max=2)
        if model.n_leaves > 3 or np.all(model.mu_leaf == 0):
            continue
        checked += 1
        for p, q in ((1.5, 2.0), (2.0, INF)):
            B, _ = testing_constant(model, a, p, q)
            A_lo, _ = operator_norm_lower(
                model, a, p, q, NormSearch(n_random=16, ascent_rounds=4, seed=seed))
            A_bf = operator_norm_bruteforce(model, a, p, q, 60)
            assert A_bf >= A_lo - 1e-6
            assert B - 1e-6 <= A_bf <= theorem_constant(p) * B + 1e-6


def best_indicator_ratio(model, a, p, q):
    return max(ratio(model, a, indicator(model, model.ids[k]), p, q)
               for k in range(model.n_nodes) if model.mu_node[k] > 0)


def test_norm_lower_beats_indicators_and_reproduces_witness():
    for seed in range(12):
        model, a = make_instance(seed)
        if np.all(model.mu_leaf == 0):
            continue
        for p, q in ((1.5, 3.0), (2.0, INF), (3.0, 3.0), (2.0, 1e6)):
            A, witness = operator_norm_lower(
                model, a, p, q, NormSearch(n_random=8, ascent_rounds=6, seed=seed))
            assert A >= best_indicator_ratio(model, a, p, q) * (1 - 1e-12)
            assert lp_norm(model, witness, p, "mu") == pytest.approx(1.0, rel=1e-12)
            assert ratio(model, a, witness, p, q) == pytest.approx(A, rel=1e-12)


# (seed, p, q, A_lower) from the coordinate-ascent search that the power
# iteration replaced, at the CLI's default budget: 64 random candidates, 12 rounds
COORDINATE_ASCENT = [
    (0, 1.5, 3.0, 21.319867593477777),
    (0, 2.0, INF, 19.001623355287904),
    (0, 3.0, 3.0, 19.026541031029073),
    (1, 1.5, 3.0, 17.281354072534615),
    (1, 2.0, INF, 15.390478760397054),
    (1, 3.0, 3.0, 15.619768800418381),
    (2, 1.5, 3.0, 20.208688475347692),
    (2, 2.0, INF, 21.789703751096717),
    (2, 3.0, 3.0, 24.655511782644563),
    (3, 1.5, 3.0, 18.994755987423382),
    (3, 2.0, INF, 15.200619701682877),
    (3, 3.0, 3.0, 20.230101693907738),
    (4, 1.5, 3.0, 33.26020567002198),
    (4, 2.0, INF, 35.20678093157677),
    (4, 3.0, 3.0, 37.46129486919038),
    (5, 1.5, 3.0, 6.7084196643609335),
    (5, 2.0, INF, 7.0663592512079605),
    (5, 3.0, 3.0, 8.62258270022574),
]


def test_norm_lower_not_below_coordinate_ascent():
    for seed, p, q, old in COORDINATE_ASCENT:
        model, a = make_instance(seed)
        A, _ = operator_norm_lower(model, a, p, q,
                                   NormSearch(n_random=64, ascent_rounds=12, seed=seed))
        assert A >= old * (1 - 1e-12), (seed, p, q, A, old)


def test_norm_lower_deterministic():
    model, a = make_instance(9)
    search = NormSearch(n_random=16, ascent_rounds=8, seed=21)
    for p, q in ((1.5, 3.0), (2.0, INF)):
        A1, w1 = operator_norm_lower(model, a, p, q, search)
        A2, w2 = operator_norm_lower(model, a, p, q, search)
        assert A1 == A2
        assert np.array_equal(w1, w2)


def test_norm_lower_draws_candidates_from_one_generator(monkeypatch):
    model, a = make_instance(9)
    calls = []
    original = np.random.default_rng

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    operator_norm_lower(model, a, 2.0, INF, NormSearch(n_random=16, ascent_rounds=2))
    assert len(calls) == 1


def test_norm_lower_random_candidates_are_prefix_stable():
    # candidate i does not depend on n_random, so more candidates never lose;
    # a draw that does (say column by column) loses on seeds 22, 23 and 25
    for seed in range(30):
        model, a = make_instance(seed)
        if np.all(model.mu_leaf == 0):
            continue
        for p, q in ((1.5, 3.0), (2.0, INF)):
            found = [operator_norm_lower(model, a, p, q,
                                         NormSearch(n_random=n, ascent_rounds=0, seed=seed))[0]
                     for n in (4, 8, 16, 32)]
            assert found == sorted(found), (seed, p, q, found)


def test_norm_lower_matches_step_by_step_evaluation():
    # operator_norm_lower evaluates all power steps in one batch; this replays
    # them one step at a time and keeps the first strictly better iterate
    # from the best cube indicator, whose ratio comes in closed form
    from dyadicmax.constants import _ratios
    for seed in range(8):
        model, a = make_instance(seed, branch_min=1 + seed % 2)
        if np.all(model.mu_leaf == 0):
            continue
        for p, q in ((1.5, 3.0), (2.0, INF), (3.0, 3.0)):
            cubes = _indicator_ratios(model, a, p, q, _suffix_table(model, a, q))
            k = int(np.argmax(cubes))
            X = np.vstack([indicator(model, model.ids[k]), np.ones(model.n_leaves)])
            ratios = np.append(cubes[k], _ratios(model, a, X[1:], p, q)[0])
            best, best_f = ratios.max(), X[np.argmax(ratios)]
            for _ in range(6):
                X, _ = _power_step(model, a, X, p, q)
                step, _ = _ratios(model, a, X, p, q)
                if step.max() > best:
                    best, best_f = step.max(), X[np.argmax(step)]
            A, witness = operator_norm_lower(model, a, p, q,
                                             NormSearch(n_random=0, ascent_rounds=6))
            assert A == best, (seed, p, q)
            assert np.array_equal(witness, best_f / lp_norm(model, best_f, p, "mu"))


def test_power_iteration_stops_at_an_exact_fixed_point(monkeypatch):
    import dyadicmax.constants as constants
    calls = []
    step = constants._power_step
    monkeypatch.setattr(constants, "_power_step",
                        lambda *args: calls.append(1) or step(*args))
    model, a = make_instance(4)
    for p, q in ((2.0, INF), (1.5, 3.0)):  # fixed after 2 and after 13 steps
        found = []
        for rounds in (12, 200):
            calls.clear()
            found.append(operator_norm_lower(model, a, p, q,
                                             NormSearch(n_random=4, ascent_rounds=rounds)))
        (A12, w12), (A200, w200) = found
        assert A12 == A200 and np.array_equal(w12, w200), (p, q)
        assert len(calls) < 200, (p, q)


def test_norm_lower_holds_no_dense_indicator_batch():
    # one (nodes, leaves) float batch of every cube indicator is 54.7 MiB here
    params = RandomModelParams(depth_min=7, depth_max=7, branch_min=3, branch_max=3,
                               zero_prob_mu=0.15, zero_prob_nu=0.15)
    model = random_model(params, 5)
    a = CoefficientFamily.random(model, 6)
    assert model.n_nodes == 3280
    tracemalloc.start()
    try:
        operator_norm_lower(model, a, 2.0, INF, NormSearch(n_random=64, ascent_rounds=12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < model.n_nodes * model.n_leaves * 8, peak / 2 ** 20


@pytest.fixture(scope="module")
def block_instances(tmp_path_factory):
    """The acceptance sweep's 48 trees, a complete ternary tree of 1093 nodes
    and a caterpillar 200 cubes deep, each with a coefficient family."""
    out = tmp_path_factory.mktemp("sweep")
    paths = cmd_generate(SweepConfig(trials=48, seed=0, depth_max=4, branch_max=3,
                                     out=str(out)))
    pairs = [(inst.model, coeffs) for inst, coeffs in map(_load_instance, paths)]
    ternary = random_model(RandomModelParams(depth_min=6, depth_max=6, branch_min=3,
                                             branch_max=3), 3)
    deep = caterpillar(200)
    assert ternary.n_nodes == 1093
    return pairs + [(ternary, CoefficientFamily.random(ternary, 4)),
                    (deep, CoefficientFamily.random(deep, 5))]


@pytest.mark.parametrize("budget", [1, 40_000, 300_000, 2 ** 30])
def test_blocked_ratios_equal_one_pass_bit_for_bit(block_instances, monkeypatch, budget):
    # blocks of two rows or more, up to one block for the whole batch; the
    # images handed in are the operator on the whole batch in one pass
    monkeypatch.setattr(constants, "_BLOCK_BYTES", budget)
    for i, (model, a) in enumerate(block_instances):
        rng = np.random.default_rng(i)
        F = np.vstack([np.ones(model.n_leaves), rng.pareto(1.5, (24, model.n_leaves))])
        for p in (1.5, 2.0, 3.0):
            for q in (p, 2 * p, INF):
                blocked = _ratios(model, a, F, p, q)
                whole = _ratios(model, a, F, p, q, _apply_levels(model, a, F, q))
                for got, want in zip(blocked, whole):
                    assert np.array_equal(got, want), (i, p, q)


def test_row_blocks_never_leave_a_row_alone(monkeypatch):
    # numpy gathers a lone row in another memory order, whose sums round differently
    for budget in (1, 7, 64, 1000):
        monkeypatch.setattr(constants, "_BLOCK_BYTES", budget)
        for row_bytes in (1, 8, 24, 100, 5000):
            rows = max(2, budget // row_bytes)
            for n in range(1, 40):
                F = np.arange(3.0 * n).reshape(n, 3)
                blocks = _row_blocks(F, row_bytes)
                sizes = [len(b) for b in blocks]
                assert np.array_equal(np.vstack(blocks), F)
                assert min(sizes) >= min(rows, n), (budget, row_bytes, sizes)
                assert max(sizes) < 2 * rows, (budget, row_bytes, sizes)


@pytest.mark.parametrize("q", [INF, 4.0])
def test_norm_lower_holds_few_level_tables_on_a_deep_tree(q):
    # one batch of 65 candidates took 70 (q = inf) and 132 (q = 4) level tables
    model = caterpillar(400)
    a = CoefficientFamily.random(model, 9)
    assert model.n_nodes == 801
    table = 8 * (model.max_depth + 1) * model.n_leaves
    tracemalloc.start()
    try:
        operator_norm_lower(model, a, 2.0, q, NormSearch(n_random=64, ascent_rounds=12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * table, peak / table


def test_norm_search_stays_finite_on_masses_near_the_float_limit():
    # the cube sums are finite, but a random candidate above 1 times mu(a1)
    # would overflow, and A_lower come out NaN, unless the candidates are scaled
    from dyadicmax import build_model, classical_coefficients
    model = build_model({
        "nodes": [{"id": "R", "parent": None}, {"id": "A", "parent": "R"},
                  {"id": "a1", "parent": "A"}, {"id": "a2", "parent": "A"},
                  {"id": "b", "parent": "R"}],
        "mu": {"a1": 1e308, "a2": 1e307, "b": 1e300},
        "nu": {"a1": 1.0, "a2": 1.0, "b": 1.0}})
    a = classical_coefficients(model, model.mu_leaf, 0.5)
    for seed in range(30):
        for p in (1.5, 2.0, 3.0):
            for q in (p, 2 * p, INF):
                rep = verify_theorem(model, a, p, q, NormSearch(64, 12, seed))
                assert math.isfinite(rep.A_lower) and rep.A_lower >= rep.B > 0, (seed, p, q)


def test_power_step_returns_the_operator_on_its_input():
    # the search scores each iterate from the step that consumes it, so the
    # image must be the operator on the step's input, bit for bit
    for seed in range(6):
        model, a = make_instance(seed, branch_min=1 + seed % 2)
        for p, q in ((1.5, 3.0), (2.0, INF), (3.0, 6.0)):
            F = np.stack([random_nonneg(model, seed + i, "pareto") for i in range(3)])
            _, image = _power_step(model, a, F, p, q)
            assert np.array_equal(image, _apply_levels(model, a, F, q)), (seed, p, q)
            for f, row in zip(F, image):
                assert np.array_equal(row, apply_maximal(model, a, f, q))


def test_theorem_constant_hp_is_memoised():
    theorem_constant_hp.cache_clear()
    first = theorem_constant_hp(2.5)
    assert theorem_constant_hp(2.5) == first
    assert theorem_constant_hp.cache_info().hits == 1
    assert theorem_constant_hp.cache_info().misses == 1


@pytest.mark.parametrize("p", [math.inf, math.nan, 1.0, 0.5, -2.0])
def test_theorem_constant_hp_rejects_p_outside_the_range(p):
    # inf used to give NaN and 1 a ZeroDivisionError
    with pytest.raises(ValueError, match="p must be a finite number > 1"):
        theorem_constant_hp(p)


def test_power_step_matches_the_earlier_tables_bit_for_bit():
    # the iterates and images, and their memory layout, which sets the order
    # of every later sum over them: trees up to 13 levels deep, where numpy
    # sums a level axis pairwise, and batches of one to four rows
    for seed in range(16):
        model, a = make_instance(seed, depth_max=2 + seed % 12, branch_min=1,
                                 branch_max=2 + seed % 2, roots=1 + seed % 2)
        rng = np.random.default_rng(seed)
        F = rng.pareto(1.5, (1 + seed % 4, model.n_leaves))
        for p, q in ((1.5, 1.5), (2.0, 4.0), (2.0, INF), (3.0, 1e6)):
            want = ref_power_step_tables(model, a, F, p, q)
            for index in (None, _step_index(model, F.shape[0])):
                got = _power_step(model, a, F, p, q, index)
                for g, w in zip(got, want):
                    assert g.strides == w.strides and g.tobytes() == w.tobytes(), (seed, p, q)


def test_power_step_never_lowers_the_ratio():
    # |Mf|^p is convex in f >= 0, so each step's ratio is at least the last
    for seed in range(10):
        model, a = make_instance(seed, depth_max=5)
        if np.all(model.mu_leaf == 0):
            continue
        for p, q in ((1.2, 1.5), (1.5, 3.0), (2.0, INF), (3.0, 3.0), (8.0, INF)):
            f = random_nonneg(model, seed, "pareto")
            last = ratio(model, a, f, p, q)
            for _ in range(10):
                f = _power_step(model, a, f[None, :], p, q)[0][0]
                now = ratio(model, a, f, p, q)
                assert now >= last * (1 - 1e-12), (seed, p, q, now, last)
                last = now


@pytest.mark.parametrize("q_of", [lambda p: p, lambda p: 2 * p, lambda p: INF],
                         ids=["p", "2p", "inf"])
def test_power_step_matches_per_atom_reference(q_of):
    for seed in range(12):
        model, a = make_instance(seed, roots=1 + seed % 3, branch_min=1 + seed % 2)
        if np.all(model.nu_leaf == 0):
            continue
        for p in (1.5, 2.0, 3.0):
            q = q_of(p)
            F = np.stack([random_nonneg(model, seed + i, "pareto") for i in range(3)])
            got, _ = _power_step(model, a, F, p, q)
            for f, row in zip(F, got):
                np.testing.assert_allclose(row, ref_power_step(model, a, f, p, q),
                                           rtol=1e-12, atol=0, err_msg=f"{seed} {p} {q}")


def test_power_step_gives_a_tie_to_the_shallower_level():
    # R and its child A hold the same mu-mass, since mu(z) = 0, and the same
    # coefficient, so at q = inf the terms of R and A tie exactly at a1 and a2
    from dyadicmax import build_model
    model = build_model({
        "nodes": [{"id": "R", "parent": None}, {"id": "A", "parent": "R"},
                  {"id": "z", "parent": "R"}, {"id": "a1", "parent": "A"},
                  {"id": "a2", "parent": "A"}],
        "mu": {"a1": 1.0, "a2": 3.0, "z": 0.0}, "nu": {"a1": 2.0, "a2": 1.0, "z": 1.0}})
    a = CoefficientFamily.from_mapping(model, {"R": 1.0, "A": 1.0, "z": 0.5,
                                               "a1": 0.5, "a2": 0.5})
    f = np.ones(model.n_leaves)
    T = [abs(float(node_integrals(model, f)[model.node(k)])) for k in ("R", "A")]
    assert T[0] == T[1] == 4.0
    got = _power_step(model, a, f[None, :], 2.0, INF)[0][0]
    # every atom's weight on R: G = g_R = 2 + 1 + 1 everywhere; had the ties
    # gone to A, g_A = 3 and g_R = 1 would give z a quarter of the others
    assert got.tolist() == [1.0, 1.0, 1.0]
    np.testing.assert_allclose(got, ref_power_step(model, a, f, 2.0, INF), rtol=1e-12)


@pytest.mark.parametrize("q", [50.0, INF])
def test_power_step_finite_at_large_p(q):
    model, a = make_instance(4)
    big = a.scaled(1e8)
    p = 50.0
    ones = np.ones(model.n_leaves)
    with np.errstate(over="ignore"):
        # the unscaled weights nu(x) Mf(x)^(p-1) overflow on this instance
        assert np.max(apply_maximal(model, big, ones, q)) ** (p - 1) == INF
    X = np.vstack([ones, indicator(model, model.ids[1]), random_nonneg(model, 3, "pareto")])
    for _ in range(20):
        X, _ = _power_step(model, big, X, p, q)
        assert np.all(np.isfinite(X)) and np.all(X >= 0)
        assert np.all(X.max(axis=1) == 1.0)


def test_sandwich_finite_at_large_p_on_scaled_coefficients(e1):
    # |v|^p of the norms overflows here; each norm is rescaled by its peak
    model, a = make_instance(4)
    search = NormSearch(n_random=8, ascent_rounds=4)
    base = verify_theorem(model, a, 50.0, INF, search)
    big = verify_theorem(model, a.scaled(1e8), 50.0, INF, search)
    assert base.B == pytest.approx(41.78454, rel=1e-6)
    assert big.B == pytest.approx(1e8 * base.B, rel=1e-12)
    assert big.A_lower == pytest.approx(1e8 * base.A_lower, rel=1e-12)
    assert big.witness_cube == base.witness_cube
    # 20^1000 overflows, but B = A_lower = 20 on constant coefficients 10
    rep = verify_theorem(e1, CoefficientFamily.constant(e1, 10.0), 1000, INF,
                         NormSearch(n_random=4, ascent_rounds=1))
    assert rep.B == pytest.approx(20.0, rel=1e-12)
    assert rep.A_lower == pytest.approx(20.0, rel=1e-12)


LARGE_P_CASES = dict(
    seed=st.integers(0, 10 ** 6), roots=st.integers(1, 3), branch_min=st.integers(1, 2),
    p=st.one_of(st.floats(1.05, 8.0), st.floats(8.0, 1000.0)),
    q_of=st.sampled_from(["p", "2p", 1e6, INF]), scale=st.sampled_from([1e-8, 1.0, 1e8]))


@settings(max_examples=40, deadline=None)
@given(**LARGE_P_CASES)
def test_sandwich_holds_up_to_large_p(seed, roots, branch_min, p, q_of, scale):
    model, a = make_instance(seed, roots=roots, branch_min=branch_min)
    a = a.scaled(scale)
    q = {"p": p, "2p": 2 * p}.get(q_of, q_of)
    rep = verify_theorem(model, a, p, q, NormSearch(n_random=8, ascent_rounds=4))
    assert math.isfinite(rep.B) and math.isfinite(rep.A_lower)
    if p <= 8 and q <= 50:
        want, _ = ref_testing_constant(model, a, p, q)
        assert rep.B == pytest.approx(want, rel=1e-12, abs=0)


@settings(max_examples=40, deadline=None)
@given(**LARGE_P_CASES)
def test_proof_chain_holds_up_to_large_p(seed, roots, branch_min, p, q_of, scale):
    model, a = make_instance(seed, roots=roots, branch_min=branch_min)
    a = a.scaled(scale)
    q = {"p": p, "2p": 2 * p}.get(q_of, q_of)
    f = random_nonneg(model, seed)
    trace = proof_trace(model, a, f, p, q, strict=False)
    assert trace.ok, trace.failed_links()
    assert all(math.isfinite(link.lhs) and math.isfinite(link.rhs) for link in trace.links)
    weights = stopping_weights(trace.decomposition)
    assert carleson_embedding_check(model, weights, f, p).ok

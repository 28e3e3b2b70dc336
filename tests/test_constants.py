import math

import mpmath
import numpy as np
import pytest

from dyadicmax import (CoefficientFamily, NormSearch, VerificationError,
                       apply_maximal, holder_conjugate, lp_norm,
                       operator_norm_bruteforce, operator_norm_lower,
                       testing_constant, theorem_constant, theorem_constant_hp,
                       verify_theorem)

from _reference import ref_testing_constant
from conftest import INF, make_instance

# frozen from a 50-digit evaluation of ((1+1/p)^(p+1) p)^(1/p) p'
C_AT_1_5 = 9.2100787466009665
C_AT_2 = 5.196152422706632  # 3*sqrt(3)


def ratio(model, a, f, p, q):
    return (lp_norm(model, apply_maximal(model, a, f, q).values, p, "nu")
            / lp_norm(model, f, p, "mu"))


def test_holder_conjugate():
    assert holder_conjugate(2) == 2.0
    assert holder_conjugate(4) == pytest.approx(4 / 3, rel=1e-15)
    assert holder_conjugate(1.01) == pytest.approx(101, rel=1e-12)
    with pytest.raises(ValueError):
        holder_conjugate(1.0)


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
    # 20^1000 overflows: B is inf and A_lower NaN, which must never pass
    a = CoefficientFamily.constant(e1, 10.0)
    with pytest.raises(VerificationError, match="non-finite") as exc:
        verify_theorem(e1, a, 1000, INF, NormSearch(n_random=4, ascent_rounds=1))
    rep = exc.value.report
    assert not all(math.isfinite(x) for x in (rep.B, rep.A_lower, *rep.margins))


def test_verify_theorem_requires_p_le_q(e1):
    with pytest.raises(ValueError, match="p <= q"):
        verify_theorem(e1, CoefficientFamily.constant(e1), 3, 2)


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

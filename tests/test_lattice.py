import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicmax import (Exponents, ModelError, RandomModelParams, average,
                       build_model, integrate, lp_norm, random_model,
                       read_model, write_model)
from dyadicmax.lattice import _lq_groups, _lq_rows, model_to_dict
from dyadicmax.maximal import node_integrals

from _reference import ref_integrate, ref_lp_norm
from conftest import make_instance, random_nonneg


def test_build_additivity(e1):
    assert integrate(e1, [1, 1], "Q0", "mu") == 2.0
    assert e1.mu_node[e1.node("Q0")] == 2.0


def test_build_negative_mass_rejected():
    with pytest.raises(ModelError, match="negative mass"):
        build_model({
            "nodes": [{"id": "L", "parent": None}],
            "mu": {"L": -1},
            "nu": {"L": 0},
        })


def test_build_single_leaf(single_leaf):
    assert single_leaf.n_nodes == 1
    assert single_leaf.mu_node[0] == 3.0
    assert single_leaf.nu_node[0] == 5.0


def test_build_duplicate_id_rejected():
    with pytest.raises(ModelError, match="duplicate"):
        build_model({
            "nodes": [{"id": "L", "parent": None}, {"id": "L", "parent": None}],
            "mu": {"L": 1},
            "nu": {"L": 1},
        })


def test_build_orphan_rejected():
    with pytest.raises(ModelError, match="orphan"):
        build_model({
            "nodes": [{"id": "A", "parent": "missing"}],
            "mu": {"A": 1},
            "nu": {"A": 1},
        })


def test_build_cycle_rejected():
    with pytest.raises(ModelError, match="cycle"):
        build_model({
            "nodes": [{"id": "A", "parent": "B"}, {"id": "B", "parent": "A"}],
            "mu": {},
            "nu": {},
        })


def test_build_min_children_enforced():
    spec = {
        "nodes": [{"id": "R", "parent": None}, {"id": "L", "parent": "R"}],
        "mu": {"L": 1},
        "nu": {"L": 1},
    }
    with pytest.raises(ModelError, match="children"):
        build_model(spec)
    chain = build_model(spec, min_children=1)
    assert chain.n_leaves == 1


def test_forest_two_roots():
    model = build_model({
        "nodes": [
            {"id": "R1", "parent": None},
            {"id": "x", "parent": "R1"}, {"id": "y", "parent": "R1"},
            {"id": "R2", "parent": None},
        ],
        "mu": {"x": 1, "y": 2, "R2": 4},
        "nu": {"x": 1, "y": 1, "R2": 1},
    })
    assert len(model.roots) == 2
    assert model.mu_node[model.node("R1")] == 3.0
    assert model.mu_node[model.node("R2")] == 4.0


def test_integrate_examples(e1):
    assert integrate(e1, [4, 0], "L1", "mu") == 4.0
    assert integrate(e1, [4, 0], "Q0", "mu") == 4.0
    with pytest.raises(KeyError):
        integrate(e1, [4, 0], "nope", "mu")


def test_average_examples(e1):
    assert average(e1, [4, 0], "Q0", "mu") == 2.0
    assert average(e1, [1, 1], "L2", "mu") == 1.0


def test_average_null_cube_is_zero():
    model = build_model({
        "nodes": [{"id": "R", "parent": None},
                  {"id": "a", "parent": "R"}, {"id": "b", "parent": "R"}],
        "mu": {"a": 0, "b": 0},
        "nu": {"a": 1, "b": 1},
    })
    assert average(model, [7, 9], "R", "mu") == 0.0


def test_lp_norm_examples(e1):
    assert lp_norm(e1, [2, 2], 2, "nu") == pytest.approx(2.8284271247461903, rel=1e-12)
    assert lp_norm(e1, [2, 2], math.inf, "nu") == 2.0
    assert lp_norm(e1, [0, 0], 3, "nu") == 0.0
    with pytest.raises(ValueError):
        lp_norm(e1, [1, 1], 0.5, "nu")


def test_lp_norm_inf_ignores_null_atoms(deep_model):
    g = np.array([1.0, 1.0, 1.0, 99.0, 1.0])  # b2 has nu mass 1 but mu mass 0
    assert lp_norm(deep_model, g, math.inf, "mu") == 1.0


def test_lp_norm_rescales_by_the_peak(e1, deep_model):
    # (1e200)^2 and 2^1100 overflow, and 1e-200^2 underflows, unless rescaled
    assert lp_norm(e1, [1e200, 1e200], 2, "nu") == pytest.approx(math.sqrt(2) * 1e200, rel=1e-15)
    assert lp_norm(e1, [2.0, 2.0], 1100, "nu") == pytest.approx(2.0 * 2 ** (1 / 1100), rel=1e-15)
    assert lp_norm(e1, [1e-200, 0.0], 2, "nu") == pytest.approx(1e-200, rel=1e-15)
    # a null atom's value sets no scale: b2 has mu mass 0
    g = np.array([1.0, 1.0, 1.0, 1e300, 1.0])
    assert lp_norm(deep_model, g, 3, "mu") == pytest.approx(6.5 ** (1 / 3), rel=1e-15)


def test_exponents_conjugate():
    assert Exponents(2, 2).p_conj == 2.0
    assert abs(1 / 3 + 1 / Exponents(3, 3).p_conj - 1) < 1e-15
    with pytest.raises(ValueError):
        Exponents(1.0, 2)
    with pytest.raises(ValueError):
        Exponents(2, 1.0)
    with pytest.raises(ValueError):
        Exponents(3, 2).require_ordered()


def test_subtree_totals_match_direct_sums():
    for seed in range(20):
        model, _ = make_instance(seed)
        vals = np.random.default_rng(seed).exponential(1.0, model.n_nodes)
        want = [math.fsum(vals[model.subtree(k)]) for k in range(model.n_nodes)]
        assert np.allclose(model.subtree_totals(vals), want, rtol=1e-14, atol=0)


def test_subtree_totals_small_subtree_beside_large_mass(deep_model):
    # a prefix-sum difference would lose the 1.0 entries against 1e17
    vals = np.ones(deep_model.n_nodes)
    vals[deep_model.node("R")] = 1e17
    totals = deep_model.subtree_totals(vals)
    assert totals[deep_model.node("A")] == 3.0
    assert totals[deep_model.node("B")] == 4.0
    assert totals[deep_model.node("b2")] == 1.0


def test_small_atom_beside_large_mass():
    # a difference of prefix sums gives B the mass 1e17 + 1.0 - 1e17 = 0
    model = build_model({
        "nodes": [{"id": "R", "parent": None}, {"id": "A", "parent": "R"},
                  {"id": "B", "parent": "R"}],
        "mu": {"A": 1e17, "B": 1.0}, "nu": {"A": 1.0, "B": 1.0},
    })
    B = model.node("B")
    assert model.mu_node[B] == 1.0
    assert node_integrals(model, np.ones(2))[B] == 1.0
    assert node_integrals(model, np.ones((3, 2)))[:, B].tolist() == [1.0] * 3


def test_cube_sums_match_fsum_on_a_large_tree():
    params = RandomModelParams(depth_min=6, depth_max=6, branch_min=3, branch_max=3,
                               mass_dist="pareto", zero_prob_mu=0.15)
    model = random_model(params, 11)
    assert model.n_nodes == 1093
    rng = np.random.default_rng(11)
    F = rng.pareto(1.5, (3, model.n_leaves))
    node_vals = rng.pareto(1.5, model.n_nodes)
    cases = [(model.mu_node, model.mu_leaf, model.leaf_lo, model.leaf_hi)]
    ints = node_integrals(model, F)
    cases += [(ints[i], F[i] * model.mu_leaf, model.leaf_lo, model.leaf_hi) for i in range(3)]
    cases.append((model.subtree_totals(node_vals), node_vals[model.dfs_order],
                  model.dfs_lo, model.dfs_hi))
    for got, terms, lo, hi in cases:
        want = np.array([math.fsum(terms[a:b]) for a, b in zip(lo, hi)])
        assert np.all(np.abs(got - want) <= 1e-15 * want)


@pytest.mark.parametrize("q", [2, 4, 1e6, math.inf])
def test_lq_groups_match_lq_rows(q):
    rng = np.random.default_rng(3)
    group = rng.integers(0, 6, 40)  # group 6 stays empty
    values = rng.exponential(1.0, 40)
    values[group == 0] = 1e-200
    values[np.flatnonzero(group == 0)[0]] = 1e200
    rows = np.zeros((7, 40))
    rows[group, np.arange(40)] = values
    got = _lq_groups(values, group, 7, q)
    assert got[6] == 0.0 and got[0] == pytest.approx(1e200, rel=1e-15)
    np.testing.assert_allclose(got, _lq_rows(rows, q), rtol=1e-14, atol=0)


def test_random_model_deterministic():
    params = RandomModelParams(depth_min=2, depth_max=4, branch_min=2,
                               branch_max=3, zero_prob_mu=0.2)
    m1 = random_model(params, 42)
    m2 = random_model(params, 42)
    assert m1 == m2
    m3 = random_model(params, 43)
    assert m1 != m3


def test_random_model_forced_shape():
    model = random_model(RandomModelParams(depth_min=1, depth_max=1,
                                           branch_min=2, branch_max=2), 0)
    assert model.n_nodes == 3 and model.n_leaves == 2


def test_random_model_zero_probability_one():
    model = random_model(RandomModelParams(zero_prob_nu=1.0), 5)
    assert np.all(model.nu_leaf == 0)


def test_random_model_empty_range_rejected():
    with pytest.raises(ValueError, match="range"):
        random_model(RandomModelParams(depth_min=3, depth_max=2), 0)


def test_file_roundtrip(tmp_path, deep_model):
    path = tmp_path / "model.json"
    write_model(deep_model, path)
    again = read_model(path)
    assert again == deep_model
    assert np.array_equal(again.mu_leaf, deep_model.mu_leaf)
    write_model(again, tmp_path / "model2.json")
    assert path.read_bytes() == (tmp_path / "model2.json").read_bytes()


def test_file_roundtrip_awkward_floats(tmp_path):
    masses = [0.1, 1 / 3, 2.0 ** -45, 1e300]
    model = build_model({
        "nodes": [{"id": "R", "parent": None}] + [
            {"id": f"l{i}", "parent": "R"} for i in range(4)],
        "mu": {f"l{i}": m for i, m in enumerate(masses)},
        "nu": {f"l{i}": 1.0 for i in range(4)},
    })
    write_model(model, tmp_path / "m.json")
    again = read_model(tmp_path / "m.json")
    assert np.array_equal(again.mu_leaf, model.mu_leaf)


def test_model_dict_lists_children():
    model = build_model({
        "nodes": [
            {"id": "R", "parent": None},
            {"id": "a", "parent": "R"}, {"id": "b", "parent": "R"},
        ],
        "mu": {"a": 1, "b": 1},
        "nu": {"a": 1, "b": 1},
    })
    data = model_to_dict(model)
    assert data["nodes"][0]["children"] == ["a", "b"]


def test_masses_keyed_by_id_not_document_order():
    # leaf B is declared before the subtree of A; masses must follow ids
    model = build_model({
        "nodes": [
            {"id": "R", "parent": None},
            {"id": "B", "parent": "R"},
            {"id": "A", "parent": "R"},
            {"id": "a1", "parent": "A"}, {"id": "a2", "parent": "A"},
        ],
        "mu": {"B": 2, "a1": 0, "a2": 0},
        "nu": {"B": 1, "a1": 1, "a2": 1},
    })
    assert integrate(model, np.ones(3), "A", "mu") == 0.0
    assert integrate(model, np.ones(3), "B", "mu") == 2.0


def test_children_disagreement_rejected():
    with pytest.raises(ModelError, match="disagree"):
        build_model({
            "nodes": [
                {"id": "R", "parent": None, "children": ["b", "a"]},
                {"id": "a", "parent": "R"}, {"id": "b", "parent": "R"},
            ],
            "mu": {"a": 1, "b": 1},
            "nu": {"a": 1, "b": 1},
        })


# -- properties --------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_additivity_everywhere(seed):
    model, _ = make_instance(seed)
    for measure, node_mass in (("mu", model.mu_node), ("nu", model.nu_node)):
        for k in range(model.n_nodes):
            if model.children[k]:
                child_sum = sum(node_mass[c] for c in model.children[k])
                assert node_mass[k] == pytest.approx(child_sum, rel=1e-12, abs=1e-300)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       alpha=st.floats(-3, 3), beta=st.floats(-3, 3))
def test_integrate_linear(seed, alpha, beta):
    model, _ = make_instance(seed)
    f = random_nonneg(model, seed + 1)
    g = random_nonneg(model, seed + 2)
    for k in (0, model.n_nodes // 2, model.n_nodes - 1):
        nid = model.ids[k]
        lhs = integrate(model, alpha * f + beta * g, nid, "mu")
        rhs = alpha * integrate(model, f, nid, "mu") + beta * integrate(model, g, nid, "mu")
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), c=st.floats(0.01, 100))
def test_norm_homogeneous(seed, c):
    model, _ = make_instance(seed)
    g = random_nonneg(model, seed + 3) - 0.5
    for p in (1, 1.5, 2, math.inf):
        assert lp_norm(model, c * g, p, "nu") == pytest.approx(
            c * lp_norm(model, g, p, "nu"), rel=1e-9, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_norm_monotone_in_mass(seed):
    model, _ = make_instance(seed)
    g = random_nonneg(model, seed + 4)
    bumped = model.nu_leaf.copy()
    j = seed % model.n_leaves
    bumped[j] += 1.0
    heavier = model.with_measures(nu_leaf=bumped)
    for p in (1, 2, 3):
        assert lp_norm(heavier, g, p, "nu") >= lp_norm(model, g, p, "nu") - 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_integrate_matches_reference(seed):
    model, _ = make_instance(seed)
    f = random_nonneg(model, seed + 5) - 0.3
    for k in range(model.n_nodes):
        got = integrate(model, f, model.ids[k], "mu")
        assert got == pytest.approx(ref_integrate(model, f, k, "mu"),
                                    rel=1e-12, abs=1e-12)
    for p in (1, 2.5, math.inf):
        assert lp_norm(model, f, p, "nu") == pytest.approx(
            ref_lp_norm(model, f, p, "nu"), rel=1e-12, abs=1e-12)

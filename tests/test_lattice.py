import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicmax import (DyadicModel, Exponents, ModelError, RandomModelParams, average,
                       build_model, integrate, lp_norm, random_model,
                       read_model, write_model)
from dyadicmax.cli import SweepConfig, cmd_generate
from dyadicmax.lattice import _lq_groups, _lq_rows, _running_lq, model_to_dict
from dyadicmax.maximal import node_integrals

from _reference import (ref_ancestors, ref_families, ref_integrate, ref_layout,
                        ref_lp_norm, ref_running_lq, ref_subtree_sums, ref_walk)
from conftest import caterpillar, make_instance, random_nonneg


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
    # the running kernel gives every prefix of every row
    prefixes = np.stack([_lq_rows(rows[:, :d], q) for d in range(1, 41)], axis=-1)
    running = _running_lq(rows, q, axis=-1)
    assert np.all(running[:, 0] == 0.0)
    np.testing.assert_allclose(running[:, 1:], prefixes, rtol=1e-14, atol=0)


@pytest.mark.parametrize("q", [1.5, 4, 1e6, math.inf])
def test_running_lq_batch_matches_each_slice(q):
    # _indicator_ratios runs the kernel down the levels of two level-major
    # (levels, atoms) tables stacked this way
    rng = np.random.default_rng(5)
    T = rng.pareto(1.5, (2, 6, 9))
    T[0, :, 2] = 0.0
    T[1, 1, 4], T[1, 3, 4] = 1e200, 1e-200
    T[0, 0, 6], T[0, 5, 6] = 1e-200, 1e200
    batch = _running_lq(T, q, axis=1)
    assert batch.shape == (2, 7, 9) and np.all(batch[0, :, 2] == 0.0)
    for i in range(2):
        assert np.array_equal(batch[i], _running_lq(T[i], q, axis=0))
        # the same norms as along the last axis of the atom-major table
        assert np.array_equal(batch[i], _running_lq(T[i].T, q, axis=-1).T)


def test_running_lq_matches_the_level_by_level_form_bit_for_bit():
    # every power is taken for all levels at once; only the multiply-add runs
    # level by level, in the same order, so zeros, -0.0, inf and NaN, tiny and
    # huge terms all come out bit for bit as one level at a time
    rng = np.random.default_rng(17)
    with np.errstate(all="ignore"):
        for trial in range(400):
            shape = tuple(rng.integers(1, 6, size=rng.integers(2, 4)))
            T = rng.pareto(1.0, shape) * 10.0 ** rng.integers(-300, 300)
            mark = rng.random(shape)
            T[mark < 0.2] = 0.0
            T[mark > 0.97] = -0.0
            if trial % 7 == 0:
                T[mark > 0.95] = math.inf
            if trial % 11 == 0:
                T[mark > 0.96] = math.nan
            axis = int(rng.integers(0, len(shape)))
            for q in (1.5, 3.0, 4.0, 7.3, 1e6, math.inf):
                got, want = _running_lq(T, q, axis), ref_running_lq(T, q, axis)
                assert got.strides == want.strides and got.tobytes() == want.tobytes(), \
                    (trial, q)


def test_subtree_sums_match_the_interior_reduceat_bit_for_bit():
    # every node's interval in one reduceat, against the leaves copied and a
    # reduceat over the interior intervals only
    models = [random_model(RandomModelParams(depth_min=1, depth_max=1 + s % 6,
                                            branch_min=1 + s % 2, roots=1 + s % 3,
                                            leaf_prob=0.25), s)
              for s in range(40)]
    models.append(DyadicModel(["x", "y"], [-1, -1], [[], []], [1.0, 2.0], [1.0, 1.0]))
    models.append(caterpillar(300))
    for model in models:
        rng = np.random.default_rng(model.n_nodes)
        values = rng.normal(size=(3, model.n_leaves)) * 10.0 ** rng.integers(-8, 8, (3, 1))
        values[0, :1] = -0.0
        for v in (values, values[2]):
            got, want = model._subtree_sums(v), ref_subtree_sums(model, v)
            assert got.strides == want.strides and got.tobytes() == want.tobytes()


def test_path_sums_gather_the_subtree_sums_along_each_path():
    # each atom's ancestor at each depth, 0 below the atom: one row and a batch,
    # on forests, unary chains and a caterpillar 1500 levels deep
    models = [random_model(RandomModelParams(depth_min=1, depth_max=1 + s % 6,
                                            branch_min=1 + s % 2, roots=1 + s % 3,
                                            leaf_prob=0.25), s)
              for s in range(30)]
    models.append(caterpillar(1500))
    for model in models:
        anc = ref_ancestors(model)
        below = anc == model.n_nodes
        rng = np.random.default_rng(model.n_nodes)
        values = rng.normal(size=(3, model.n_leaves))
        for v in (values, values[1]):
            sums = ref_subtree_sums(model, v)
            want = np.concatenate([sums, np.zeros(v.shape[:-1] + (1,))], axis=-1)[..., anc]
            got = model._path_sums(v)
            assert got.shape == want.shape and np.array_equal(got, want)
            assert not got[..., below].any()


def test_running_max_matches_accumulate():
    # at q = inf the running kernel is the running peak, bit for bit
    rng = np.random.default_rng(11)
    for shape, axis in (((9, 40), 0), ((2, 9, 40), 1), ((4, 11), -1), ((0, 5), 0)):
        T = rng.pareto(1.5, shape)
        got = np.moveaxis(_running_lq(T, math.inf, axis), axis, 0)
        assert np.all(got[0] == 0.0)
        assert np.array_equal(got[1:], np.moveaxis(np.maximum.accumulate(T, axis=axis), axis, 0))


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


def test_record_without_id_rejected():
    with pytest.raises(ModelError, match="node record 1 .*'id'"):
        build_model({
            "nodes": [{"id": "R", "parent": None}, {"parent": "R"}],
            "mu": {"R": 1},
            "nu": {"R": 1},
        })


def test_record_not_an_object_rejected():
    with pytest.raises(ModelError, match="node record 0 is not an object"):
        build_model({"nodes": ["R"], "mu": {"R": 1}, "nu": {"R": 1}})


def test_null_mass_rejected():
    with pytest.raises(ModelError, match="nu mass of leaf 'b' is not a finite number"):
        build_model({
            "nodes": [{"id": "R", "parent": None},
                      {"id": "a", "parent": "R"}, {"id": "b", "parent": "R"}],
            "mu": {"a": 1, "b": 1},
            "nu": {"a": 1, "b": None},
        })


def test_children_string_rejected():
    # a string iterates to its characters, and "L" alone matches the parent links
    with pytest.raises(ModelError, match="children of 'R' must be a list"):
        build_model({
            "nodes": [{"id": "R", "parent": None, "children": "L"},
                      {"id": "L", "parent": "R"}],
            "mu": {"L": 1},
            "nu": {"L": 1},
        }, min_children=1)


# -- layout against an independent walk ---------------------------------------


def _layout(model):
    return (model.depth, model.dfs_order, model.dfs_lo, model.dfs_hi, model.leaf_lo,
            model.leaf_hi, model.leaf_nodes, list(model.levels))


def test_layout_matches_reference_walk():
    models = [random_model(RandomModelParams(depth_max=5, branch_min=1 + s % 2,
                                            roots=1 + s % 3, leaf_prob=0.25), s)
              for s in range(60)]
    models.append(caterpillar(1500))
    assert models[-1].n_nodes == 3001 and models[-1].max_depth == 1500
    for model in models:
        got, want = _layout(model), ref_layout(model)
        for name, g, w in zip(("depth", "dfs_order", "dfs_lo", "dfs_hi", "leaf_lo",
                               "leaf_hi", "leaf_nodes"), got, want):
            assert g.dtype == np.int64 and np.array_equal(g, w), name
        assert len(got[-1]) == len(want[-1])
        assert all(np.array_equal(g, w) for g, w in zip(got[-1], want[-1]))


def test_families_match_plain_lists():
    # forests, unary chains (branch_min=1), single-node trees and a caterpillar
    models = [random_model(RandomModelParams(depth_min=1, depth_max=1 + s % 5,
                                            branch_min=1 + s % 2, roots=1 + s % 3,
                                            leaf_prob=0.25), s)
              for s in range(40)]
    models.append(DyadicModel(["x", "y"], [-1, -1], [[], []], [1.0, 2.0], [1.0, 1.0]))
    models.append(caterpillar(1500))
    for model in models:
        fam = model._families
        assert fam.dtype == np.int64 and not fam.flags.writeable
        assert fam.tolist() == ref_families(model)
    assert models[-2]._families.shape == (0, 0)
    assert models[-1]._families.shape == (2, 1500)


@pytest.mark.parametrize("case", ["two_parents", "root_as_child", "unreachable_cycle",
                                  "few_children", "bad_index"])
def test_layout_rejects_bad_shapes(case):
    if case == "two_parents":  # b is listed under both R and a
        shape = (["R", "a", "b"], [-1, 0, 0], [[1, 2], [2], []])
        match = "cycle detected at node 'b'"
    elif case == "root_as_child":  # S has no parent, yet R lists it
        shape = (["R", "S", "x"], [-1, -1, 0], [[1, 2], [], []])
        match = "cycle detected at node 'S'"
    elif case == "unreachable_cycle":  # A and B are each other's parent
        shape = (["R", "A", "B", "L"], [-1, 2, 1, 0], [[3], [2], [1], []])
        match = "node 'A' unreachable from any root"
    elif case == "few_children":
        shape = (["R", "a", "b"], [-1, 0, 1], [[1], [2], []])
        match = "node 'R' has 1 children; minimum is 2"
    else:  # -1 would read as the end of a subtree
        shape = (["R", "a"], [-1, 0], [[1, -1], []])
        match = r"child index out of range \[0, 2\)"
    with pytest.raises(ModelError, match=match):
        DyadicModel(*shape, [1.0], [1.0], min_children=2 if case == "few_children" else 1)


@pytest.mark.parametrize("case", ["moved", "out_of_range", "two_wrong", "cycle_first"])
def test_parent_links_must_match_the_child_lists(case):
    # the ancestor table walks the parent links and the subtree intervals come
    # from the child lists: a model built from both would mix two trees
    if case == "moved":  # R lists B, whose link names A: M f would read R, A, B
        shape = (["R", "A", "B"], [-1, 0, 1], [[1, 2], [], []])
        match = "parent link of node 'B' disagrees with child lists"
    elif case == "out_of_range":
        shape = (["R", "A", "B"], [-1, 0, 7], [[1, 2], [], []])
        match = "parent link of node 'B' disagrees"
    elif case == "two_wrong":  # the first in index order is named
        shape = (["R", "A", "c", "b", "d"], [-1, 0, 1, 0, 1], [[1, 2], [3, 4], [], [], []])
        match = "parent link of node 'c' disagrees"
    else:  # an earlier fault is named first
        shape = (["R", "A", "B"], [-1, 0, 1], [[1, 2], [2], []])
        match = "cycle detected at node 'B'"
    leaves = sum(1 for ch in shape[2] if not ch)
    masses = (np.ones(leaves), np.ones(leaves))
    for build in (DyadicModel, ref_walk):
        with pytest.raises(ModelError, match=match):
            build(*shape, *masses)


def _assert_same_model(model, want):
    """Every attribute in ``want`` (from ``ref_walk``) equals the model's."""
    for name, value in want.items():
        got = getattr(model, name)
        if isinstance(value, np.ndarray):
            assert got.dtype == value.dtype and np.array_equal(got, value), name
            assert not got.flags.writeable, name
        elif name == "levels":
            assert len(got) == len(value), name
            assert all(np.array_equal(g, w) for g, w in zip(got, value)), name
        else:
            assert got == value, name


def _random_forest(seed, n, root_prob, chain_prob):
    """(ids, parents, children, mu, nu) of a random forest whose node indices
    are shuffled, so that index order is not depth-first order, and whose
    child lists come in a random order: several roots, unary chains and lone
    leaves among them."""
    rng = np.random.default_rng(seed)
    link = [-1]
    for i in range(1, n):
        if rng.random() < root_prob:
            link.append(-1)
        else:
            link.append(i - 1 if rng.random() < chain_prob else int(rng.integers(0, i)))
    label = rng.permutation(n).tolist()
    parents, children = [-1] * n, [[] for _ in range(n)]
    for i, up in enumerate(link):
        if up >= 0:
            parents[label[i]] = label[up]
            children[label[up]].append(label[i])
    for ch in children:
        rng.shuffle(ch)
    leaves = sum(1 for ch in children if not ch)
    return ([f"v{k}" for k in range(n)], parents, children,
            rng.exponential(1.0, leaves), rng.exponential(1.0, leaves))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 60),
       root_prob=st.sampled_from([0.0, 0.1, 0.4, 1.0]),
       chain_prob=st.sampled_from([0.0, 0.5, 0.95]))
def test_layout_equals_the_walk_on_random_forests(seed, n, root_prob, chain_prob):
    shape = _random_forest(seed, n, root_prob, chain_prob)
    _assert_same_model(DyadicModel(*shape), ref_walk(*shape))


def test_layout_equals_the_walk_on_the_caterpillar_and_random_models():
    models = [caterpillar(1500)]
    models += [random_model(RandomModelParams(depth_max=1 + s % 5, branch_min=1 + s % 2,
                                              roots=1 + s % 3, leaf_prob=0.25), s)
               for s in range(20)]
    for model in models:
        shape = (model.ids, model.parent, model.children, model.mu_leaf, model.nu_leaf)
        _assert_same_model(DyadicModel(*shape), ref_walk(*shape))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 14),
       faults=st.integers(0, 3), min_children=st.integers(1, 3))
def test_layout_rejects_what_the_walk_rejects(seed, n, faults, min_children):
    # a random forest with up to three edits, each of which may break it: a
    # second name for a node, a dropped name, a name moved to another list,
    # a parent link changed (which changes the roots)
    rng = np.random.default_rng(seed)
    ids, parents, children, _, _ = _random_forest(seed, n, 0.2, 0.3)
    for _ in range(faults):
        k, j = (int(x) for x in rng.integers(0, n, 2))
        edit = int(rng.integers(0, 4))
        if edit == 0:
            children[k].insert(int(rng.integers(0, len(children[k]) + 1)), j)
        elif edit == 1 and children[k]:
            children[k].pop(int(rng.integers(0, len(children[k]))))
        elif edit == 2 and children[k]:
            children[j].append(children[k].pop(int(rng.integers(0, len(children[k])))))
        else:
            parents[k] = -1 if parents[k] >= 0 else j
    leaves = sum(1 for ch in children if not ch)
    shape = (ids, parents, children, np.ones(leaves), np.ones(leaves))
    try:
        want = ref_walk(*shape, min_children=min_children)
    except ModelError:
        with pytest.raises(ModelError):
            DyadicModel(*shape, min_children=min_children)
    else:
        _assert_same_model(DyadicModel(*shape, min_children=min_children), want)


@pytest.mark.parametrize("case", ["two_few", "twice_and_cycle", "unreachable_and_few",
                                  "twice_and_few_on_one_node"])
def test_two_faults_name_the_first_faulty_node_in_document_order(case):
    # the walk met the faults in depth-first order; the layout names the
    # faulty node that comes first in the node list
    least = 2  # children of an interior node
    if case == "two_few":  # R lists a (index 2) before b (index 1); each has 1 child
        shape = (["R", "b", "a", "x", "y"], [-1, 0, 0, 2, 1], [[2, 1], [4], [3], [], []])
        walk, match = "node 'a' has 1 children", "node 'b' has 1 children; minimum is 2"
    elif case == "twice_and_cycle":  # c is named twice; u and v are a cycle
        shape = (["R", "u", "v", "c", "d"], [-1, 2, 1, 0, 0], [[3, 4], [2], [1], [], [3]])
        walk, match = "cycle detected at node 'c'", "node 'u' unreachable from any root"
        least = 1
    elif case == "unreachable_and_few":  # no list names X; a has 1 child
        shape = (["R", "X", "a", "b", "c"], [-1, 0, 0, 2, 0], [[2, 4], [], [3], [], []])
        walk, match = "node 'a' has 1 children", "node 'X' unreachable from any root"
    else:  # root S is named by R and has 1 child: the second name comes first
        shape = (["S", "R", "x", "y", "z"], [-1, -1, 0, 1, 1], [[2], [3, 0, 4], [], [], []])
        walk, match = "node 'S' has 1 children", "cycle detected at node 'S'"
    leaves = sum(1 for ch in shape[2] if not ch)
    masses = (np.ones(leaves), np.ones(leaves))
    with pytest.raises(ModelError, match=walk):
        ref_walk(*shape, *masses, min_children=least)
    with pytest.raises(ModelError, match=match):
        DyadicModel(*shape, *masses, min_children=least)


def test_build_model_names_the_first_faulty_record():
    # P and Q are each other's parent, and a has one child: the walk met a
    # first, the record of P comes first
    with pytest.raises(ModelError, match="node 'P' unreachable from any root"):
        build_model({
            "nodes": [{"id": "R", "parent": None}, {"id": "P", "parent": "Q"},
                      {"id": "Q", "parent": "P"}, {"id": "a", "parent": "R"},
                      {"id": "b", "parent": "R"}, {"id": "x", "parent": "a"}],
            "mu": {"x": 1, "b": 1}, "nu": {"x": 1, "b": 1},
        }, min_children=2)


def test_generated_files_build_the_walks_models(tmp_path):
    paths = cmd_generate(SweepConfig(trials=288, depth_max=4, branch_max=3,
                                     out=str(tmp_path)))
    assert len(paths) == 288
    for path in paths:
        spec = json.loads(path.read_text())
        ids = [rec["id"] for rec in spec["nodes"]]
        position = {nid: k for k, nid in enumerate(ids)}
        parents = [-1 if rec["parent"] is None else position[rec["parent"]]
                   for rec in spec["nodes"]]
        children = [[] for _ in ids]
        for k, up in enumerate(parents):
            if up >= 0:
                children[up].append(k)
        _assert_same_model(read_model(path),
                           ref_walk(ids, parents, children, spec["mu"], spec["nu"]))


@pytest.mark.parametrize("mu, match", [
    ({"a": "1.5", "b": True}, "mu value of leaf 'a' must be a number, got '1.5'"),
    ({"a": 1.5, "b": True}, "mu value of leaf 'b' must be a number, got True"),
])
def test_masses_written_as_strings_or_booleans_rejected(mu, match):
    spec = {"nodes": [{"id": "R", "parent": None}, {"id": "a", "parent": "R"},
                      {"id": "b", "parent": "R"}], "mu": mu, "nu": {"a": 1, "b": 1}}
    with pytest.raises(ModelError, match=match):
        build_model(spec)
    with pytest.raises(ModelError, match=match.replace("mu ", "nu ")):
        build_model({**spec, "mu": spec["nu"], "nu": mu})


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

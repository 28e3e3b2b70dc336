import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicmax import (CarlesonSequence, CoefficientFamily, DyadicModel, ModelError,
                       RandomModelParams, SawyerInstance, apply_maximal, as_leaf_function,
                       average, build_decomposition, build_model, classical_coefficients,
                       integrate, lp_norm, random_model, read_model, reduce_three_to_two,
                       write_model)
from dyadicmax.cli import SweepConfig, cmd_generate
from dyadicmax.lattice import _check_pq, _lq_groups, _lq_rows, _running_lq, model_to_dict
from dyadicmax.maximal import node_integrals
from dyadicmax.sawyer import random_instance

from _reference import (ref_ancestors, ref_families, ref_integrate, ref_layout,
                        ref_lp_norm, ref_running_lq, ref_subtree_sums, ref_walk)
from conftest import caterpillar, make_instance, random_nonneg


def test_build_additivity(e1):
    assert integrate(e1, [1, 1], "Q0", "mu") == 2.0
    assert e1.mu_node[e1.node("Q0")] == 2.0


def test_build_negative_mass_rejected():
    with pytest.raises(ModelError, match="mu mass of leaf 'L' is negative"):
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


def test_check_pq():
    # p comes back as a float; the conjugate is holder_conjugate's (test_holder_conjugate)
    assert _check_pq(2, 2) == 2.0 and type(_check_pq(2, 2)) is float
    assert _check_pq(3, math.inf) == 3.0
    with pytest.raises(ValueError, match="p must be a finite number > 1"):
        _check_pq(1.0, 2)
    with pytest.raises(ValueError, match="q must be a number in"):
        _check_pq(2, 1.0)
    with pytest.raises(ValueError, match="need p <= q, got p=3.0, q=2.0"):
        _check_pq(3, 2)


def test_number_rules_reject_strings_and_booleans():
    # float() took "2", "inf" and True; the CLI reads --r abc into a string
    from dyadicmax.constants import _check_rtol
    from dyadicmax.stopping import _check_r
    for check, value in ((_check_pq, ("2", 4)), (_check_pq, (2, "inf")), (_check_pq, (True, 4)),
                         (_check_r, ("2",)), (_check_r, (True,)), (_check_rtol, ("0.1",)),
                         (_check_rtol, (True,))):
        with pytest.raises(ValueError, match="must be a .*number|must be finite"):
            check(*value)


def test_number_rules_reject_an_integer_too_large_for_a_float(tmp_path):
    # 10**400 passed each range test as an int, and float() then raised
    # OverflowError; read_instance reaches the p rule with a file's p
    from dyadicmax.constants import _check_rtol
    from dyadicmax.lattice import _check_p, _check_q
    from dyadicmax.sawyer import read_instance
    from dyadicmax.stopping import _check_r
    big = 10 ** 400
    for check, message in ((_check_p, "p must be a finite number > 1"),
                           (_check_q, "q must be a number in (1, inf]"),
                           (_check_rtol, "rtol must be finite and >= 0"),
                           (_check_r, "stopping ratio r must be a finite number > 1")):
        with pytest.raises(ValueError) as exc:
            check(big)
        assert str(exc.value).startswith(f"{message}, got 1000")
    path = tmp_path / "big_p.json"
    path.write_text(json.dumps({"nodes": [{"id": "R", "parent": None}], "mu": {"R": 1.0},
                                "nu": {"R": 1.0}, "p": big}))
    with pytest.raises(ModelError, match=r"p must be a finite number > 1"):
        read_instance(path)


def test_float_array_reads_every_entry_by_the_number_rule():
    # a boolean, an integer too large for a float and a string all read as NaN,
    # so the finiteness test names the first of them
    from dyadicmax.lattice import _float_array
    got = _float_array([True, 10 ** 400, "2", 0.5])
    np.testing.assert_array_equal(got, [math.nan, math.nan, math.nan, 0.5])
    with pytest.raises(ModelError, match="mu mass of leaf 'x' is not a finite number, got True"):
        DyadicModel(["x", "y"], [-1, -1], [True, 10 ** 400], [1.0, 1.0])
    # numeric arrays convert directly; a boolean array is no more a number than True
    assert _float_array(np.array([3, 4])).tolist() == [3.0, 4.0]
    assert np.isnan(_float_array(np.array([True, False]))).all()
    assert _float_array((x for x in (1, "1"))).tolist()[0] == 1.0
    assert _float_array(2.0).shape == ()  # not a sequence: every shape test rejects it


BIG = 10 ** 400  # an integer too large for a float: float() raises OverflowError

# what no entry of a vector may be: each reads as NaN and is named as not finite
NOT_NUMBERS = {"string": "1.5", "boolean": True, "null": None, "dict": {}, "big_int": BIG,
               "nan": math.nan}


def _sawyer(m, **fields):
    return SawyerInstance(**{"model": m, "omega_leaf": [1.0, 1.0], "w_leaf": [1.0, 1.0],
                             "alpha": 0.5, "p": 2.0, **fields})


# each entry point, the bad entry at leaf L2 or node L1 (e1's second position)
VECTOR_CALLS = {
    "as_leaf_function": (lambda m, x: as_leaf_function(m, [1, x]),
                         "function value of leaf 'L2' is not a finite number"),
    "apply_maximal": (lambda m, x: apply_maximal(m, CoefficientFamily.constant(m), [1, x], 2.0),
                      "function value of leaf 'L2' is not a finite number"),
    "lp_norm": (lambda m, x: lp_norm(m, [1, x], 2.0, "mu"),
                "function value of leaf 'L2' is not a finite number"),
    "integrate": (lambda m, x: integrate(m, [1, x], "Q0"),
                  "function value of leaf 'L2' is not a finite number"),
    "model_masses": (lambda m, x: DyadicModel(m.ids, [-1, 0, 0], [1, x], [1, 1]),
                     "mu mass of leaf 'L2' is not a finite number"),
    "with_measures": (lambda m, x: m.with_measures(nu_leaf=[1, x]),
                      "nu mass of leaf 'L2' is not a finite number"),
    "subtree_totals": (lambda m, x: m.subtree_totals([1, x, 1]),
                       "value of node 'L1' is not a finite number"),
    "coefficient_scalars": (lambda m, x: CoefficientFamily(m, [1, x, 1]),
                            "coefficient for 'L1' must be finite >= 0"),
    "coefficient_values": (lambda m, x: CoefficientFamily(m, [0, 1, 1], [2, 0, 0], [1, x]),
                           "coefficient for 'Q0' must be finite >= 0 at leaf 'L2'"),
    "from_weights": (lambda m, x: CarlesonSequence.from_weights(m, [1, x, 1]),
                     "Carleson weight of node 'L1' is not a finite number"),
    "sawyer_omega": (lambda m, x: _sawyer(m, omega_leaf=[1, x]),
                     "omega mass of leaf 'L2' is not a finite number"),
    "sawyer_w": (lambda m, x: _sawyer(m, w_leaf=[1, x]),
                 "w mass of leaf 'L2' is not a finite number"),
    "classical_coefficients": (lambda m, x: classical_coefficients(m, [1, x], 0.5),
                               "omega mass of leaf 'L2' is not a finite number"),
    "build_decomposition": (lambda m, x: build_decomposition(m, [1, x], 1.5),
                            "function value of leaf 'L2' is not a finite number"),
    "transform": (lambda m, x: reduce_three_to_two(_sawyer(m)).transform([1, x]),
                  "function value of leaf 'L2' is not a finite number"),
}


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda m: lp_norm(m, [1.0, 1.0], BIG, "mu"), "p must be a number >= 1",
                 id="lp_norm"),
    pytest.param(lambda m: as_leaf_function(m, [BIG, 1]),
                 "function value of leaf 'L1' is not a finite number", id="as_leaf_function"),
    pytest.param(lambda m: apply_maximal(m, CoefficientFamily.constant(m), [BIG, 1], 2.0),
                 "function value of leaf 'L1' is not a finite number", id="apply_maximal"),
    pytest.param(lambda m: CoefficientFamily.constant(m, BIG),
                 "constant coefficient must be finite and >= 0", id="constant"),
    pytest.param(lambda m: m.subtree_totals([1, BIG, 1]),
                 "value of node 'L1' is not a finite number", id="subtree_totals"),
    # the rejection matrix: every vector entry point against every entry that is no number
    *(pytest.param(lambda m, call=call, bad=bad: call(m, bad), message, id=f"{name}-{entry}")
      for name, (call, message) in VECTOR_CALLS.items()
      for entry, bad in NOT_NUMBERS.items()),
])
def test_entry_points_reject_an_integer_too_large_for_a_float(e1, call, message):
    # each raised OverflowError, and took a string or a boolean as a number or
    # raised TypeError on a dict; each now gives the file readers' ValueError,
    # which names the entry
    with pytest.raises(ValueError, match=re.escape(message)):
        call(e1)


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
    models.append(DyadicModel(["x", "y"], [-1, -1], [1.0, 2.0], [1.0, 1.0]))
    models.append(caterpillar(300))
    for model in models:
        rng = np.random.default_rng(model.n_nodes)
        values = rng.normal(size=(3, model.n_leaves)) * 10.0 ** rng.integers(-8, 8, (3, 1))
        values[0, :1] = -0.0
        for v in (values, values[2]):
            got, want = model._subtree_sums(v), ref_subtree_sums(model, v)
            assert got.strides == want.strides and got.tobytes() == want.tobytes()


def test_path_sums_gather_the_subtree_sums_along_each_path():
    # each atom's ancestor at each depth, 0 below the atom: one row and batches,
    # on forests, unary chains and a caterpillar 1500 levels deep.  The memory
    # order is fancy indexing's too, which sets the order of later sums
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
        for v in (values, values[:2], values[:1], values[1]):
            sums = ref_subtree_sums(model, v)
            want = np.concatenate([sums, np.zeros(v.shape[:-1] + (1,))], axis=-1)[..., anc]
            got = model._path_sums(v)
            assert got.shape == want.shape and np.array_equal(got, want)
            assert got.strides == want.strides
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


def _with_child_lists(spec):
    """``spec`` in the format of earlier versions: every record also lists its
    children, taken from the parent links in document order."""
    lists = {rec["id"]: [] for rec in spec["nodes"]}
    for rec in spec["nodes"]:
        if rec["parent"] is not None:
            lists[rec["parent"]].append(rec["id"])
    return {**spec, "nodes": [{**rec, "children": lists[rec["id"]]} for rec in spec["nodes"]]}


def test_model_dict_writes_parent_links_only():
    # the parent links are the whole tree: the records carry nothing else, and
    # they build the same model, with the same children, as a file of an
    # earlier version that also lists every node's children
    models = [DyadicModel(*_random_forest(seed, n, root_prob, 0.5))
              for seed, (n, root_prob) in enumerate([(1, 0.0), (40, 0.0), (60, 0.2), (30, 1.0)])]
    models += [caterpillar(300)] + [random_instance(seed).model for seed in range(5)]
    for model in models:
        spec = model_to_dict(model)
        assert all(rec.keys() == {"id", "parent"} for rec in spec["nodes"])
        for data in (spec, _with_child_lists(spec)):
            again = build_model(data, min_children=1)
            assert again == model and again.children == model.children


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


# a tree whose records list children only where ``lists`` gives them
_LINKS = {"R": None, "a": "R", "b": "R", "x": "a", "y": "a", "u": "b", "v": "b"}
_KIDS = {nid: [c for c, up in _LINKS.items() if up == nid] for nid in _LINKS}


def _listing(lists):
    nodes = [{"id": nid, "parent": up, **({"children": lists[nid]} if nid in lists else {})}
             for nid, up in _LINKS.items()]
    leaves = {nid: 1 for nid in "xyuv"}
    return {"nodes": nodes, "mu": leaves, "nu": leaves}


@pytest.mark.parametrize("lists, named", [
    ({"R": ["b", "a"]}, "R"),
    ({"a": ["x", "y", "x"]}, "a"),
    ({"R": ["a", "b"], "a": ["x"]}, "a"),
    ({"b": ["u", "v", "x"]}, "b"),
    ({"a": ["x", "y"], "x": ["y"]}, "x"),
    ({"R": ["a", "b"], "b": ["u", ["v"]]}, "b"),
], ids=["order", "twice", "left_out", "wrong_parent", "on_a_leaf", "unhashable"])
def test_children_disagreement_rejected(lists, named):
    # the parent links give the tree; a file's child lists can still name a
    # node twice or under another parent, and the first record whose list
    # is not its node's children in index order is named
    with pytest.raises(ModelError, match=f"children of '{named}' disagree with parent links"):
        build_model(_listing(lists))


@pytest.mark.parametrize("every", [1, 2], ids=["every_record", "every_other_record"])
def test_children_that_agree_accepted(every):
    # files of earlier versions list children on every record; a list on
    # only some of them is checked where it is given
    lists = {nid: _KIDS[nid] for i, nid in enumerate(_LINKS) if i % every == 0}
    model = build_model(_listing(lists))
    assert model == build_model(_listing({}))
    assert [[model.ids[c] for c in kids] for kids in model.children] == list(_KIDS.values())


def test_children_compared_as_their_str():
    # ids are strings; a child entry written as a number names the id it prints as
    model = build_model({
        "nodes": [{"id": "R", "parent": None, "children": [1, 2.5]},
                  {"id": "1", "parent": "R"}, {"id": "2.5", "parent": "R"}],
        "mu": {"1": 1, "2.5": 1},
        "nu": {"1": 1, "2.5": 1},
    })
    assert [model.ids[c] for c in model.children[model.node("R")]] == ["1", "2.5"]


def test_a_null_parent_is_a_root_beside_a_node_named_none():
    # parent ids are looked up as their str() too, but null names no node
    model = build_model({
        "nodes": [{"id": "R", "parent": None}, {"id": "None", "parent": "R"},
                  {"id": "x", "parent": "R"}],
        "mu": {"None": 1, "x": 1},
        "nu": {"None": 1, "x": 1},
    })
    assert model.parent.tolist() == [-1, 0, 0]


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


@pytest.mark.parametrize("measure", ["mu", "nu"])
def test_mass_sum_that_overflows_rejected(measure):
    # every atom is finite, but the cubes above a1 and a2 sum to inf: verify
    # then passed the packing check and died in stopping_weights
    spec = {"nodes": [{"id": "R", "parent": None}, {"id": "b", "parent": "R"},
                      {"id": "A", "parent": "R"}, {"id": "a1", "parent": "A"},
                      {"id": "a2", "parent": "A"}],
            "mu": {"a1": 1.0, "a2": 1.0, "b": 1.0}, "nu": {"a1": 1.0, "a2": 1.0, "b": 1.0}}
    huge = {"a1": 1e308, "a2": 1e308, "b": 0.0}
    message = f"{measure} mass of cube 'R' is not a finite number"
    with pytest.raises(ModelError, match=message):
        build_model({**spec, measure: huge})
    with pytest.raises(ModelError, match=message):
        build_model(spec).with_measures(**{f"{measure}_leaf": [0.0, 1e308, 1e308]})
    # in a forest the first cube in document order that overflows is named
    forest = {"nodes": [{"id": "R", "parent": None}, {"id": "b", "parent": "R"},
                        {"id": "S", "parent": None}, {"id": "a1", "parent": "S"},
                        {"id": "a2", "parent": "S"}],
              "mu": spec["mu"], "nu": spec["nu"]}
    with pytest.raises(ModelError, match=f"{measure} mass of cube 'S' is not"):
        build_model({**forest, measure: huge}, min_children=1)


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
        # the depth groups come from the layout pass, as read-only arrays in a tuple
        assert type(model.levels) is tuple
        assert not any(level.flags.writeable for level in model.levels)
        with pytest.raises(ValueError, match="read-only"):
            model.levels[-1][0] = 0


def test_families_match_plain_lists():
    # forests, unary chains (branch_min=1), single-node trees and a caterpillar
    models = [random_model(RandomModelParams(depth_min=1, depth_max=1 + s % 5,
                                            branch_min=1 + s % 2, roots=1 + s % 3,
                                            leaf_prob=0.25), s)
              for s in range(40)]
    models.append(DyadicModel(["x", "y"], [-1, -1], [1.0, 2.0], [1.0, 1.0]))
    models.append(caterpillar(1500))
    for model in models:
        fam = model._families
        assert fam.dtype == np.int64 and not fam.flags.writeable
        assert fam.tolist() == ref_families(model)
    assert models[-2]._families.shape == (0, 0)
    assert models[-1]._families.shape == (2, 1500)


@pytest.mark.parametrize("case", ["unreachable_cycle", "self_parent", "few_children",
                                  "bad_index", "no_root"])
def test_layout_rejects_bad_shapes(case):
    if case == "unreachable_cycle":  # A and B are each other's parent
        shape = (["R", "A", "B", "L"], [-1, 2, 1, 0])
        match = "cycle detected: node 'A' unreachable from any root"
    elif case == "self_parent":  # S is its own parent, and so its own child
        shape = (["R", "S", "L"], [-1, 1, 0])
        match = "cycle detected: node 'S' unreachable from any root"
    elif case == "few_children":
        shape = (["R", "a", "b"], [-1, 0, 1])
        match = "node 'R' has 1 children; minimum is 2"
    elif case == "bad_index":  # a parent index of n or more names no node
        shape = (["R", "a", "b"], [-1, 0, 3])
        match = r"parent index of node 'b' out of range \[0, 3\)"
    else:
        shape = (["A", "B"], [1, 0])
        match = "cycle detected: no root node"
    for build in (DyadicModel, ref_walk):
        with pytest.raises(ModelError, match=match):
            build(*shape, [1.0], [1.0], min_children=2 if case == "few_children" else 1)


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


def test_every_negative_parent_link_is_a_root():
    # one tree, whichever negative number marks its root
    shape = (["R", "a", "b"], [-2, 0, 0], [1.0, 2.0], [1.0, 1.0])
    model = DyadicModel(*shape)
    assert model.parent.tolist() == [-1, 0, 0] and model.roots == (0,)
    assert model == DyadicModel(shape[0], [-1, 0, 0], *shape[2:])


@pytest.mark.parametrize("link", [0.7, "0", False, None, -10 ** 30],
                         ids=["float", "string", "boolean", "null", "beyond_int64"])
def test_a_parent_index_must_be_an_integer(link):
    # the first four were truncated or converted to parent 0 and built a model;
    # -10**30 raised OverflowError
    message = re.escape(f"parent of node 'a' must be a 64-bit integer, got {link!r}")
    with pytest.raises(ModelError, match=message):
        DyadicModel(["R", "a", "b"], [-1, link, 0], [1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ModelError, match="need one parent for each of 3 nodes"):
        DyadicModel(["R", "a", "b"], [-1, 0], [1.0, 2.0], [1.0, 1.0])
    # numpy integers and whole floats are integers; an int64 array is taken as it is
    model = DyadicModel(["R", "a", "b"], np.array([-1, 0, 0], dtype=np.int32), [1.0, 2.0],
                        [1.0, 1.0])
    assert model == DyadicModel(["R", "a", "b"], np.array([-1, 0, 0]), [1.0, 2.0], [1.0, 1.0])
    assert model == DyadicModel(["R", "a", "b"], [-1.0, 0.0, 0], [1.0, 2.0], [1.0, 1.0])


def _leaf_count(parents):
    """The number of nodes that are no node's parent."""
    return len(parents) - len({up for up in parents if up >= 0})


def _random_forest(seed, n, root_prob, chain_prob):
    """(ids, parents, mu, nu) of a random forest whose node indices are
    shuffled, so that index order is not depth-first order: several roots,
    unary chains and lone leaves among them."""
    rng = np.random.default_rng(seed)
    link = [-1]
    for i in range(1, n):
        if rng.random() < root_prob:
            link.append(-1)
        else:
            link.append(i - 1 if rng.random() < chain_prob else int(rng.integers(0, i)))
    label = rng.permutation(n).tolist()
    parents = [-1] * n
    for i, up in enumerate(link):
        if up >= 0:
            parents[label[i]] = label[up]
    leaves = _leaf_count(parents)
    return ([f"v{k}" for k in range(n)], parents,
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
    shapes = [(model.ids, model.parent, model.mu_leaf, model.nu_leaf) for model in models]
    shapes.append(_random_forest(3, 2000, 0.01, 1.0))  # a forest of chains, shuffled
    for shape in shapes:
        _assert_same_model(DyadicModel(*shape), ref_walk(*shape))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 14),
       faults=st.integers(0, 3), min_children=st.integers(1, 3))
def test_layout_rejects_what_the_walk_rejects(seed, n, faults, min_children):
    # a random forest with up to three edits of its parent links, each of which
    # may break it: a link re-pointed (which may close a cycle), a new root, a
    # node made its own parent
    rng = np.random.default_rng(seed)
    ids, parents, _, _ = _random_forest(seed, n, 0.2, 0.3)
    for _ in range(faults):
        k, j = (int(x) for x in rng.integers(0, n, 2))
        parents[k] = (j, -1, k)[int(rng.integers(0, 3))]
    leaves = _leaf_count(parents)
    shape = (ids, parents, np.ones(leaves), np.ones(leaves))
    try:
        want = ref_walk(*shape, min_children=min_children)
    except ModelError:
        with pytest.raises(ModelError):
            DyadicModel(*shape, min_children=min_children)
    else:
        _assert_same_model(DyadicModel(*shape, min_children=min_children), want)


@pytest.mark.parametrize("case", ["two_few", "unreachable_and_few"])
def test_two_faults_name_the_first_faulty_node_in_document_order(case):
    # the walk met the faults in depth-first order; the layout names the
    # faulty node that comes first in the node list
    if case == "two_few":  # u (index 3) comes before b (index 2) depth-first; each has 1 child
        shape = (["R", "a", "b", "u", "v", "x", "w"], [-1, 0, 0, 1, 1, 2, 3])
        walk, match = "node 'u' has 1 children", "node 'b' has 1 children; minimum is 2"
    else:  # X is its own parent; a has 1 child
        shape = (["R", "X", "a", "b", "c"], [-1, 1, 0, 2, 0])
        walk, match = "node 'a' has 1 children", "node 'X' unreachable from any root"
    leaves = _leaf_count(shape[1])
    masses = (np.ones(leaves), np.ones(leaves))
    with pytest.raises(ModelError, match=walk):
        ref_walk(*shape, *masses, min_children=2)
    with pytest.raises(ModelError, match=match):
        DyadicModel(*shape, *masses, min_children=2)


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


def test_build_model_builds_the_id_index_once(monkeypatch):
    # build_model hands its {id: position} map to the model; ids that are
    # not strings are read as their str() in both
    import dyadicmax.lattice as lattice_mod
    calls = []
    original = lattice_mod._index

    def counted(ids):
        calls.append(list(ids))
        return original(ids)

    monkeypatch.setattr(lattice_mod, "_index", counted)
    model = build_model({"nodes": [{"id": "R", "parent": None}, {"id": 1, "parent": "R"},
                                   {"id": "b", "parent": "R"}],
                         "mu": {"1": 1, "b": 2}, "nu": {"1": 1, "b": 1}})
    assert calls == [["R", "1", "b"]]
    assert model.ids == ("R", "1", "b") and model.index == {"R": 0, "1": 1, "b": 2}
    DyadicModel([0, 1, 2], [-1, 0, 0], [1.0, 2.0], [1.0, 1.0])  # the constructor builds its own
    assert calls[1:] == [["0", "1", "2"]]


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
        assert not any("children" in rec for rec in spec["nodes"])
        model = read_model(path)
        _assert_same_model(model, ref_walk(ids, parents, spec["mu"], spec["nu"]))


@pytest.mark.parametrize("mu, match", [
    ({"a": "1.5", "b": True}, "mu mass of leaf 'a' is not a finite number, got '1.5'"),
    ({"a": 1.5, "b": True}, "mu mass of leaf 'b' is not a finite number, got True"),
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

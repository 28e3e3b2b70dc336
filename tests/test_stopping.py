import dataclasses
import math
import warnings

import numpy as np
import pytest

from dyadicmax import (CarlesonSequence, CoefficientFamily, ModelError, RandomModelParams,
                       SawyerInstance, VerificationError, random_model, verify_reduction,
                       apply_depth_truncated, build_decomposition, build_model,
                       carleson_embedding_check, default_r, holder_conjugate,
                       lp_norm, proof_trace, stopping_children, stopping_weights,
                       testing_constant, verify_packing)
from dyadicmax.stopping import partition_ok

from _reference import (ref_averages, ref_generations, ref_lp_norm, ref_maximal,
                        ref_stopping_children)
from conftest import INF, make_instance, random_nonneg


def test_stopping_children_examples(e1):
    assert stopping_children(e1, [4, 0], "Q0", 1.5) == ["L1"]
    assert stopping_children(e1, [4, 0], "Q0", 3.0) == []
    assert stopping_children(e1, [1, 1], "Q0", 2.0) == []
    with pytest.raises(ValueError, match="r must be"):
        stopping_children(e1, [4, 0], "Q0", 1.0)


def test_stopping_children_require_nonneg(e1):
    with pytest.raises(ValueError, match="function value of leaf 'L2' is negative"):
        stopping_children(e1, [4, -1], "Q0", 1.5)


def test_stopping_children_skip_null_descendants():
    model = build_model({
        "nodes": [
            {"id": "R", "parent": None},
            {"id": "A", "parent": "R"}, {"id": "B", "parent": "R"},
            {"id": "a1", "parent": "A"}, {"id": "a2", "parent": "A"},
        ],
        "mu": {"a1": 0, "a2": 0, "B": 1},
        "nu": {"a1": 1, "a2": 1, "B": 1},
    })
    # A and its children are mu-null: never stopping cubes
    assert stopping_children(model, [9, 9, 1], "R", 1.0001) == []


def test_decomposition_constant_f(e1):
    d = build_decomposition(e1, [1, 1], 2.0)
    assert d.stopping == ["Q0"]
    assert d.blocks == {"Q0": ["Q0", "L1", "L2"]}


def test_decomposition_e2(e1):
    d = build_decomposition(e1, [4, 0], 1.5)
    assert d.generations == [["Q0"], ["L1"]]
    assert d.blocks["Q0"] == ["Q0", "L2"]
    assert d.blocks["L1"] == ["L1"]
    assert partition_ok(d)


def test_decomposition_blocks_partition_random():
    for seed in range(40):
        model, _ = make_instance(seed)
        f = random_nonneg(model, seed)
        d = build_decomposition(model, f, 1.0 + (seed % 5 + 1) / 4)
        assert partition_ok(d)
        assert d.generations[0] == sorted(
            [model.ids[k] for k in model.roots],
            key=lambda nid: model.node(nid))


def test_stopping_parents_match_stopping_children(e1):
    cases = [(e1, np.array([3.0, 1.0]), 1.5, 0)]   # avg(L1) = 3 = r * avg(Q0): a tie stops
    for seed in range(30):
        model, _ = make_instance(seed, branch_min=1 + seed % 2)
        cases.append((model, random_nonneg(model, seed + 12), 1.0 + (seed % 4 + 1) / 4, 0))
        # forests, unary chains, zero f on some atoms, a truncated first generation
        model, _ = make_instance(seed, branch_min=1 + seed % 2, roots=2 + seed % 2)
        f = random_nonneg(model, seed + 13)
        f[np.random.default_rng(seed).random(model.n_leaves) < 0.3] = 0.0
        cases.append((model, f, 1.0 + (seed % 4 + 1) / 4, seed % (model.max_depth + 1)))
    for case, (model, f, r, n_start) in enumerate(cases):
        # the reference is a depth-first search of each cube's subtree, on
        # averages summed atom by atom: no code shared with the level pass
        averages = ref_averages(model, f)
        d = build_decomposition(model, f, r, n_start=n_start)
        for qid in d.stopping:
            k = model.node(qid)
            kids = np.flatnonzero(d.stopping_parent == k).tolist()
            assert kids == ref_stopping_children(model, averages, k, r), (case, qid)
        # stopping_children reads the decomposition at the cube's own depth,
        # and agrees with the search on every cube, stopping or not
        for k in range(model.n_nodes):
            want = [model.ids[c] for c in ref_stopping_children(model, averages, k, r)]
            assert stopping_children(model, f, model.ids[k], r) == want, (case, k)
        first = {model.node(qid) for qid in d.generations[0]}
        assert all(d.stopping_parent[k] == -1 for k in first)
        assert first == set(np.flatnonzero(model.depth == n_start))

        # the stopping cubes are the first generation and its stopping children, iterated
        generations, frontier = [], sorted(first)
        while frontier:
            generations.append([model.ids[k] for k in frontier])
            frontier = sorted(c for k in frontier
                              for c in ref_stopping_children(model, averages, k, r))
        assert d.generations == generations, case
        # the generations recorded by the level pass are the second walk's
        generation, by_generation, of_each = ref_generations(model, d.owner_index, n_start)
        assert np.array_equal(d.generation, generation), case
        nodes, gens = d._by_generation()
        assert np.array_equal(nodes, by_generation) and np.array_equal(gens, of_each), case
        stopping = {model.node(qid) for gen in generations for qid in gen}
        # owner: the nearest stopping ancestor-or-self at depth >= n_start, else none
        for k in range(model.n_nodes):
            path = [c for c in model.ancestors_or_self(k) if model.depth[c] >= n_start]
            want = next((c for c in path if c in stopping), -1)
            assert d.owner_index[k] == want, (case, k)
        assert partition_ok(d)


def test_partition_ok_rejects_bad_owner_arrays(e1):
    d = build_decomposition(e1, [4, 0], 1.5)   # owners: Q0 -> Q0, L1 -> L1, L2 -> Q0
    Q0, L1, L2 = (e1.node(n) for n in ("Q0", "L1", "L2"))
    assert list(d.owner_index) == [Q0, L1, Q0] and partition_ok(d)

    def with_owners(decomp, **changes):
        owner = decomp.owner_index.copy()
        for nid, o in changes.items():
            owner[e1.node(nid)] = o
        return dataclasses.replace(decomp, owner_index=owner)

    assert not partition_ok(with_owners(d, L2=L1))       # owner is not an ancestor
    assert not partition_ok(with_owners(d, L2=-1))       # in-scope node without owner
    chain = build_model({"nodes": [{"id": "R", "parent": None}, {"id": "A", "parent": "R"},
                                   {"id": "a", "parent": "A"}],
                         "mu": {"a": 1}, "nu": {"a": 1}})
    d3 = build_decomposition(chain, [1.0], 1.5)
    assert list(d3.owner_index) == [0, 0, 0] and partition_ok(d3)
    with pytest.raises(ValueError):                      # the owners are read-only
        d3.owner_index[2] = 1
    bad = np.array([0, 0, 1])                            # A owns a but not itself
    assert not partition_ok(dataclasses.replace(d3, owner_index=bad))
    deep = build_decomposition(e1, [4, 0], 1.5, n_start=1)
    assert list(deep.owner_index) == [-1, L1, L2] and partition_ok(deep)
    assert not partition_ok(with_owners(deep, Q0=Q0))    # owner above n_start
    assert not partition_ok(with_owners(deep, L2=Q0))    # member of an owner above n_start


def test_verify_packing_e2(e1):
    d = build_decomposition(e1, [4, 0], 1.5)
    rep = verify_packing(e1, d)
    assert rep.ratio["Q0"] == pytest.approx(1.5)   # (2 + 1) / 2
    assert rep.bound == pytest.approx(3.0)
    assert rep.ok and rep.generation_bound_ok
    assert rep.worst_ratio <= rep.bound


def test_verify_packing_fails_a_nan_ratio(e1, monkeypatch):
    # np.where(rk > 0, rk, 0) dropped a NaN ratio and passed with worst 0.0
    d = build_decomposition(e1, [4, 0], 1.5)
    totals = e1.subtree_totals
    monkeypatch.setattr(e1, "subtree_totals",
                        lambda values: totals(values) * [1.0, math.nan, 1.0])
    rep = verify_packing(e1, d)
    assert math.isnan(rep.worst_ratio) and rep.worst_node == "L1"
    assert not rep.ok


def test_packing_maps_are_built_on_first_access():
    # verify reads neither map; a caller that does gets the same values as
    # the report held before, one entry per positive-mass node
    model, _ = make_instance(8)
    d = build_decomposition(model, random_nonneg(model, 8), 1.5)
    rep = verify_packing(model, d)
    assert "ratio" not in vars(rep) and "slack" not in vars(rep)
    subtotal = model.subtree_totals(np.where(d.in_stopping, model.mu_node, 0.0))
    pos = [k for k in range(model.n_nodes) if model.mu_node[k] > 0]
    assert list(rep.ratio) == [model.ids[k] for k in pos]
    for k in pos:
        nid = model.ids[k]
        assert rep.ratio[nid] == subtotal[k] / model.mu_node[k]
        assert rep.slack[nid] == rep.bound - rep.ratio[nid]
    assert rep.ratio is rep.ratio and rep.worst_ratio == max(rep.ratio.values())


def test_verify_packing_constant_f(e1):
    d = build_decomposition(e1, [1, 1], 2.0)
    rep = verify_packing(e1, d)
    assert rep.worst_ratio == pytest.approx(1.0)
    assert rep.generation_worst == 0.0


def test_packing_random_sweep():
    for seed in range(60):
        model, _ = make_instance(seed)
        f = random_nonneg(model, seed + 6)
        for r in (1.2, 1.5, 2.0, 3.0):
            d = build_decomposition(model, f, r)
            rep = verify_packing(model, d)
            assert rep.ok, (seed, r, rep.worst_ratio, rep.bound)


def test_average_control_random():
    for seed in range(40):
        model, _ = make_instance(seed)
        f = random_nonneg(model, seed + 60)
        r = 1.0 + (seed % 4 + 1) / 3
        d = build_decomposition(model, f, r)
        from dyadicmax.stopping import _node_averages
        averages = _node_averages(model, f)
        for owner, members in d.blocks.items():
            k = model.node(owner)
            for m in members:
                km = model.node(m)
                if model.mu_node[km] > 0:
                    assert averages[km] <= r * averages[k] * (1 + 1e-12) + 1e-300


def test_carleson_sequence_packing(e1):
    w = CarlesonSequence.from_mapping(e1, {"Q0": 2.0, "L1": 1.0, "L2": 1.0})
    assert w.packing_constant == pytest.approx(2.0)
    rep = carleson_embedding_check(e1, w, [1, 1], 2)
    assert rep.lhs == pytest.approx(2.0)     # (2 + 1 + 1)^(1/2)
    assert rep.bound == pytest.approx(4.0)   # p' * 2^(1/2) * |f|_2
    assert rep.ok


# an integer too large for a float raised OverflowError, not the named error
@pytest.mark.parametrize("bad", [math.inf, math.nan, 10 ** 400], ids=["inf", "nan", "huge_int"])
def test_carleson_weights_must_be_finite(e1, bad):
    with pytest.raises(ValueError, match="'Q0' is not a finite number"):
        CarlesonSequence.from_weights(e1, [bad, 0.0, 0.0])
    with pytest.raises(ValueError, match="'L2' is not a finite number"):
        CarlesonSequence.from_mapping(e1, {"L1": 1.0, "L2": bad})


@pytest.mark.parametrize("mapping, match", [
    ({"Q0": "2.5"}, "weight of node 'Q0' is not a finite number, got '2.5'"),
    ({"Q0": 1.0, "L1": True}, "weight of node 'L1' is not a finite number, got True"),
    ({"L2": None}, "weight of node 'L2' is not a finite number, got None"),
    ({"Q0": 1.0, "Q9": 1.0}, "Carleson weight for unknown node 'Q9'"),
    ([("Q0", 1.0)], "Carleson weights must map node ids to weights, got list"),
], ids=["string", "boolean", "null", "unknown_id", "not_a_mapping"])
def test_carleson_from_mapping_rejects_what_is_not_a_weight(e1, mapping, match):
    with pytest.raises(ModelError, match=match):
        CarlesonSequence.from_mapping(e1, mapping)


@pytest.mark.parametrize("rtol", [math.nan, math.inf, -1e-9])
def test_carleson_and_proof_trace_reject_a_bad_rtol(e1, rtol):
    w = CarlesonSequence.from_mapping(e1, {"Q0": 2.0})
    with pytest.raises(ValueError, match="rtol must be finite and >= 0"):
        carleson_embedding_check(e1, w, [1.0, 1.0], 2.0, rtol=rtol)
    with pytest.raises(ValueError, match="rtol must be finite and >= 0"):
        proof_trace(e1, CoefficientFamily.constant(e1), [1.0, 1.0], 2.0, INF, rtol=rtol)


def test_carleson_reads_the_averages_of_its_decomposition():
    for seed in range(10):
        model, _ = make_instance(seed)
        f, g = random_nonneg(model, seed), random_nonneg(model, seed + 50)
        w = stopping_weights(build_decomposition(model, f, 1.5))
        plain = CarlesonSequence.from_weights(model, w.weights)
        for fn in (f, f.copy(), g):
            got = carleson_embedding_check(model, w, fn, 2.0)
            assert got == carleson_embedding_check(model, plain, fn, 2.0)
        # the packing constant was taken against the model's mu: on other
        # masses it bounds nothing, so the check refuses the sequence
        copy = model.with_measures(mu_leaf=2.0 * model.mu_leaf)
        for seq in (w, plain):
            with pytest.raises(ValueError, match="built for a different model"):
                carleson_embedding_check(copy, seq, f, 2.0)


def test_checks_reject_objects_built_for_another_tree():
    # two 5-node trees with three atoms each: B's stopping masses, read on A,
    # passed the Carleson check, and A's packing check read B's stopping cubes
    def tree(links):
        nodes = [{"id": nid, "parent": up} for nid, up in links.items()]
        atoms = {nid: 1.0 for nid in links if nid not in links.values()}
        return build_model({"nodes": nodes, "mu": atoms, "nu": atoms})

    A = tree({"R": None, "a": "R", "b": "R", "x": "a", "y": "a"})
    B = tree({"R": None, "a": "R", "b": "R", "u": "b", "v": "b"})
    f = [4.0, 1.0, 1.0]
    decomp = build_decomposition(B, f, 1.5)
    with pytest.raises(ValueError, match="Carleson sequence was built for a different model"):
        carleson_embedding_check(A, stopping_weights(decomp), f, 2.0)
    with pytest.raises(ValueError, match="decomposition was built for a different model"):
        verify_packing(A, decomp)
    # an equal model built again is the same model
    again = tree({"R": None, "a": "R", "b": "R", "u": "b", "v": "b"})
    assert carleson_embedding_check(again, stopping_weights(decomp), f, 2.0).ok
    assert verify_packing(again, decomp).ok


def test_carleson_rejects_negative_packing_constant(e1):
    w = CarlesonSequence(e1, np.ones(3), packing_constant=-1.0)
    with pytest.raises(ValueError, match="packing constant"):
        carleson_embedding_check(e1, w, [1.0, 1.0], 2.0)


@pytest.mark.parametrize("p", [2.0, 600.0])
def test_carleson_understated_packing_fails(e1, p):
    # the true packing constant is (1e6 + 2) / 2; at p = 600 the p-th powers
    # of both sides overflow, and only the comparison of norms tells them apart
    w = np.array([1e6, 1.0, 1.0])
    understated = CarlesonSequence(e1, w, packing_constant=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = carleson_embedding_check(e1, understated, [10.0, 10.0], p)
        assert math.isfinite(rep.lhs) and math.isfinite(rep.bound)
        assert not rep.ok
        assert carleson_embedding_check(e1, CarlesonSequence.from_weights(e1, w),
                                        [10.0, 10.0], p).ok


def test_carleson_zero_cases(e1):
    w = CarlesonSequence.from_mapping(e1, {"Q0": 1.0})
    rep = carleson_embedding_check(e1, w, [0, 0], 2)
    assert rep.lhs == 0.0 and rep.ok
    zero = CarlesonSequence.from_mapping(e1, {})
    rep = carleson_embedding_check(e1, zero, [1, 1], 2)
    assert rep.lhs == 0.0 and rep.bound == 0.0 and rep.ok


def test_carleson_equality_single_leaf():
    model = build_model({"nodes": [{"id": "L", "parent": None}],
                         "mu": {"L": 2.5}, "nu": {"L": 1}})
    w = stopping_weights(build_decomposition(model, [1.0], 2.0))
    assert w.packing_constant == pytest.approx(1.0)
    for p in (1.5, 2.0, 3.0):
        rep = carleson_embedding_check(model, w, [1.0], p)
        assert rep.bound == pytest.approx(holder_conjugate(p) * rep.lhs, rel=1e-12)


def test_carleson_random_weights():
    for seed in range(60):
        model, _ = make_instance(seed)
        rng = np.random.default_rng(seed + 123)
        w_vals = np.where(rng.random(model.n_nodes) < 0.3, 0.0,
                          rng.exponential(1.0, model.n_nodes))
        w = CarlesonSequence.from_weights(model, w_vals)
        f = random_nonneg(model, seed + 7)
        for p in (1.5, 2.0, 3.0):
            rep = carleson_embedding_check(model, w, f, p)
            assert rep.ok, (seed, p, rep.lhs, rep.bound)


def test_stopping_weights_examples(e1):
    d1 = build_decomposition(e1, [1, 1], 2.0)
    w1 = stopping_weights(d1)
    assert w1.as_mapping() == {"Q0": 2.0}
    assert w1.packing_constant == pytest.approx(1.0)
    d2 = build_decomposition(e1, [4, 0], 1.5)
    w2 = stopping_weights(d2)
    assert w2.as_mapping() == {"Q0": 2.0, "L1": 1.0}
    assert w2.packing_constant == pytest.approx(1.5)
    assert w2.packing_constant <= 1.5 / 0.5


def test_proof_trace_e1(e1):
    a = CoefficientFamily.constant(e1)
    trace = proof_trace(e1, a, [1, 1], 2, INF, 1.5)
    assert trace.B == pytest.approx(2.0)
    assert trace.lhs == pytest.approx(8.0)
    final = next(link for link in trace.links if link.name == "final")
    assert final.rhs == pytest.approx(math.sqrt(216.0))
    assert trace.ok
    assert trace.reconstruction_rel_error < 1e-15
    names = [link.name for link in trace.links]
    assert names == ["lq_to_lp", "block_bound", "carleson", "final", "optimal_r"]


def test_proof_trace_zero_function(e1):
    a = CoefficientFamily.constant(e1)
    trace = proof_trace(e1, a, [0, 0], 2, 4, 1.5)
    assert trace.lhs == 0.0
    assert all(link.lhs == link.rhs == 0.0 for link in trace.links
               if link.name in ("lq_to_lp", "final"))
    assert trace.ok


def test_proof_trace_requires_p_le_q(e1):
    a = CoefficientFamily.constant(e1)
    with pytest.raises(ValueError, match="p <= q"):
        proof_trace(e1, a, [1, 1], 3, 2, 1.5)


def test_proof_trace_fault_raises(e1):
    a = CoefficientFamily.constant(e1)
    with pytest.raises(VerificationError, match="proof chain link failed"):
        proof_trace(e1, a, [1, 1], 2, INF, 1.5, B=0.1)  # falsified testing constant


def test_proof_trace_rejects_non_finite_f(e1):
    a = CoefficientFamily.constant(e1)
    with pytest.raises(ValueError, match="finite"):
        proof_trace(e1, a, [1, math.inf], 2, INF, 1.5)


def test_proof_trace_holds_at_large_p(e1):
    # 20^1000 (|Mf|^p and B^p) and 4^601 (r^(p+1)) exceed the float range;
    # the links compare norms, which stay finite
    for coef, p, r in ((10.0, 1000.0, 1.001), (1.0, 600.0, 4.0)):
        a = CoefficientFamily.constant(e1, coef)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trace = proof_trace(e1, a, [1.0, 2.0], p, INF, r)
            assert trace.ok, (coef, p, r)
            assert all(math.isfinite(link.lhs) and math.isfinite(link.rhs)
                       for link in trace.links)
            # a falsified testing constant still fails at the same p
            for B in (trace.B / 2, 0.1):
                bad = proof_trace(e1, a, [1.0, 2.0], p, INF, B=B, strict=False)
                assert "final" in bad.failed_links(), (coef, p, B)


def test_proof_trace_reuses_decomposition():
    model, a = make_instance(5)
    f = random_nonneg(model, 5)
    decomp = build_decomposition(model, f, 1.5, n_start=1)
    given = proof_trace(model, a, f, 2.0, 4.0, 1.5, n_start=1, decomp=decomp)
    built = proof_trace(model, a, f, 2.0, 4.0, 1.5, n_start=1)
    assert given.decomposition is decomp
    assert given.lhs == built.lhs and given.links == built.links
    assert [b.norm for b in given.blocks] == [b.norm for b in built.blocks]
    # an equal model that is another object is accepted, as in verify_packing
    equal = model.with_measures(nu_leaf=model.nu_leaf)
    assert equal is not model and equal == model
    same = proof_trace(equal, a, f, 2.0, 4.0, 1.5, n_start=1, decomp=decomp)
    assert dataclasses.astuple(same)[1:] == dataclasses.astuple(given)[1:]
    assert same.blocks == given.blocks  # not a field, so astuple leaves it out
    mismatched = [
        dict(r=1.7, n_start=1),
        dict(r=1.5, n_start=0),
        dict(r=1.5, n_start=1, f=2.0 * f),
        dict(r=1.5, n_start=1, model=model.with_measures(nu_leaf=2.0 * model.nu_leaf)),
    ]
    for call in mismatched:
        m = call.get("model", model)
        with pytest.raises(ValueError, match="decomposition"):
            proof_trace(m, a, call.get("f", f), 2.0, 4.0, call["r"],
                        n_start=call["n_start"], decomp=decomp)


def test_block_records_are_built_on_first_access():
    # verify reads only the links; a caller that reads the blocks gets one
    # record per stopping cube, from the trace's arrays
    model, a = make_instance(8)
    f = random_nonneg(model, 8)
    trace = proof_trace(model, a, f, 2.0, INF)
    assert "blocks" not in vars(trace)
    stop, norms, bounds, averages = trace._block_arrays
    assert [b.owner for b in trace.blocks] == trace.decomposition.stopping
    assert [(b.norm, b.bound, b.average) for b in trace.blocks] == \
        list(zip(norms.tolist(), bounds.tolist(), averages.tolist()))
    assert trace.blocks is trace.blocks
    assert max(norms, default=0.0) == trace.links[1].lhs


def test_default_r():
    assert default_r(2.0) == 1.5
    assert default_r(3.0) == pytest.approx(4 / 3)


def test_block_reconstruction_matches_depth_truncation():
    for seed in range(30):
        model, a = make_instance(seed)
        f = random_nonneg(model, seed + 8)
        for q in (2.0, INF):
            for n_start in {0, model.max_depth // 2}:
                trace = proof_trace(model, a, f, 2.0, q, 1.7, n_start=n_start)
                assert trace.reconstruction_rel_error <= 1e-12, (seed, q, n_start)


def test_block_norms_match_reference():
    for seed in range(20):
        model, a = make_instance(seed, branch_min=1 + seed % 2)
        f = random_nonneg(model, seed + 11)
        n_start = seed % (model.max_depth + 1)
        for q in (2.0, 4.0, INF):
            trace = proof_trace(model, a, f, 2.0, q, n_start=n_start)
            blocks = trace.decomposition.blocks
            assert [b.owner for b in trace.blocks] == trace.decomposition.stopping
            for b in trace.blocks:
                allowed = {model.node(m) for m in blocks[b.owner]}
                want = ref_lp_norm(model, ref_maximal(model, a, f, q, allowed=allowed), 2.0)
                assert b.norm == pytest.approx(want, rel=1e-10, abs=1e-12), \
                    (seed, q, b.owner)


def test_depth_truncated_trace_bounds():
    model, a = make_instance(77)
    f = random_nonneg(model, 99)
    n = model.max_depth
    trace = proof_trace(model, a, f, 1.5, INF, n_start=n)
    lhs = lp_norm(model, apply_depth_truncated(model, a, f, INF, n),
                  1.5, "nu") ** 1.5
    assert trace.lhs == pytest.approx(lhs, rel=1e-12)
    assert trace.ok


def test_proof_trace_random_sweep_default_r():
    for seed in range(40):
        model, a = make_instance(seed)
        f = random_nonneg(model, seed + 9)
        for p, q in ((1.5, 1.5), (2.0, 4.0), (3.0, INF)):
            trace = proof_trace(model, a, f, p, q)  # default r = (p+1)/p
            assert trace.ok
            bounds = {link.name: link.rhs for link in trace.links}
            assert "optimal_r" in bounds
            assert bounds["final"] == pytest.approx(bounds["optimal_r"], rel=1e-12)


@pytest.mark.parametrize("n_start", [1.5, -1, 2, np.float64(1.0), "1", None])
def test_build_decomposition_rejects_a_bad_n_start(e1, n_start):
    # e1 has depth 1; a float used to fail later as a tuple index
    with pytest.raises(ValueError, match=r"n_start must be an integer in \[0, 1\]"):
        build_decomposition(e1, [4, 0], 1.5, n_start=n_start)


@pytest.mark.parametrize("n_start", [1.5, -1, 2, np.float64(1.0), "1", None])
def test_proof_trace_rejects_a_bad_n_start(e1, n_start):
    a = CoefficientFamily.constant(e1)
    with pytest.raises(ValueError, match=r"n_start must be an integer in \[0, 1\]"):
        proof_trace(e1, a, [4, 0], 2.0, INF, n_start=n_start)


@pytest.mark.parametrize("p", [math.inf, math.nan, 1.0, 0.5, -2.0])
def test_default_r_rejects_p_outside_the_range(p):
    with pytest.raises(ValueError, match="p must be a finite number > 1"):
        default_r(p)


@pytest.mark.parametrize("q", [INF, 4.0])
def test_proof_path_working_set_in_level_tables(q):
    # tracemalloc peaks in (depth + 1) x atoms float tables on a 3280-node
    # ternary tree: testing_constant, proof_trace with the B and decomposition
    # that verify hands in and without them, and verify_reduction.  The parent
    # of this bound peaked at 4.9 / 8.5, 6.3 / 8.2, 7.0 / 9.3 and 5.8 / 7.3
    import tracemalloc
    params = RandomModelParams(depth_min=7, depth_max=7, branch_min=3, branch_max=3,
                               zero_prob_mu=0.15, zero_prob_nu=0.15)
    model = random_model(params, 5)
    a = CoefficientFamily.random(model, 6)
    assert model.n_nodes == 3280
    rng = np.random.default_rng(0)
    inst = SawyerInstance(model=model, omega_leaf=rng.exponential(1.0, model.n_leaves),
                          w_leaf=rng.lognormal(0.0, 1.0, model.n_leaves), alpha=0.5, p=2.0)
    f = rng.exponential(1.0, model.n_leaves)
    p, r = 2.0, default_r(2.0)
    B, _ = testing_constant(model, a, p, q)
    decomp = build_decomposition(model, f, r)

    def tables(call):
        call()  # shape tables and coefficient tables built once, outside the count
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (top - base) / (8 * model._ancestors.size)

    peaks = {
        "testing_constant": tables(lambda: testing_constant(model, a, p, q)),
        "proof_trace_given_B": tables(lambda: proof_trace(model, a, f, p, q, r, B=B,
                                                          decomp=decomp)),
        "proof_trace": tables(lambda: proof_trace(model, a, f, p, q, r)),
        "verify_reduction": tables(lambda: verify_reduction(inst, f, q, strict=False)),
    }
    bounds = {"testing_constant": 5, "proof_trace_given_B": 5, "proof_trace": 6,
              "verify_reduction": 5}
    assert all(peaks[name] <= bounds[name] for name in peaks), peaks

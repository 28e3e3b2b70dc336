import math

import numpy as np
import pytest

from dyadicmax import (CarlesonSequence, CoefficientFamily, VerificationError,
                       apply_depth_truncated, build_decomposition, build_model,
                       carleson_embedding_check, default_r, holder_conjugate,
                       lp_norm, proof_trace, stopping_children, stopping_weights,
                       testing_constant, verify_packing)
from dyadicmax.stopping import partition_ok

from _reference import ref_lp_norm, ref_maximal
from conftest import INF, make_instance, random_nonneg


def test_stopping_children_examples(e1):
    assert stopping_children(e1, [4, 0], "Q0", 1.5) == ["L1"]
    assert stopping_children(e1, [4, 0], "Q0", 3.0) == []
    assert stopping_children(e1, [1, 1], "Q0", 2.0) == []
    with pytest.raises(ValueError, match="r must be"):
        stopping_children(e1, [4, 0], "Q0", 1.0)


def test_stopping_children_require_nonneg(e1):
    with pytest.raises(ValueError, match="nonnegative"):
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


def test_stopping_parents_match_stopping_children():
    for seed in range(30):
        model, _ = make_instance(seed, branch_min=1 + seed % 2)
        f = random_nonneg(model, seed + 12)
        r = 1.0 + (seed % 4 + 1) / 4
        d = build_decomposition(model, f, r)
        for qid in d.stopping:
            k = model.node(qid)
            kids = [model.ids[c] for c in np.flatnonzero(d.stopping_parent == k)]
            assert kids == stopping_children(model, f, qid, r), (seed, qid)
        first = {model.node(qid) for qid in d.generations[0]}
        assert all(d.stopping_parent[k] == -1 for k in first)


def test_verify_packing_e2(e1):
    d = build_decomposition(e1, [4, 0], 1.5)
    rep = verify_packing(e1, d)
    assert rep.ratio["Q0"] == pytest.approx(1.5)   # (2 + 1) / 2
    assert rep.bound == pytest.approx(3.0)
    assert rep.ok and rep.generation_bound_ok
    assert rep.worst_ratio <= rep.bound


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
    assert rep.lhs == pytest.approx(4.0)
    assert rep.bound == pytest.approx(16.0)
    assert rep.ok


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
        assert rep.bound == pytest.approx(holder_conjugate(p) ** p * rep.lhs, rel=1e-12)


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
    assert trace.final_bound == pytest.approx(216.0)
    assert trace.ok
    assert trace.reconstruction_rel_error < 1e-15
    names = [link.name for link in trace.links]
    assert names == ["lq_to_lp", "block_bound", "carleson", "final", "optimal_r"]


def test_proof_trace_zero_function(e1):
    a = CoefficientFamily.constant(e1)
    trace = proof_trace(e1, a, [0, 0], 2, 4, 1.5)
    assert trace.lhs == 0.0 and trace.est1 == 0.0 and trace.final_bound == 0.0
    assert trace.ok


def test_proof_trace_requires_p_le_q(e1):
    a = CoefficientFamily.constant(e1)
    with pytest.raises(ValueError, match="p <= q"):
        proof_trace(e1, a, [1, 1], 3, 2, 1.5)


def test_proof_trace_fault_raises(e1):
    a = CoefficientFamily.constant(e1)
    with pytest.raises(VerificationError, match="proof chain link failed"):
        proof_trace(e1, a, [1, 1], 2, INF, 1.5, B=0.1)  # falsified testing constant


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
                want = ref_lp_norm(model, ref_maximal(model, a, f, q, allowed=allowed),
                                   2.0) ** 2.0
                assert b.norm_p == pytest.approx(want, rel=1e-10, abs=1e-12), \
                    (seed, q, b.owner)


def test_depth_truncated_trace_bounds():
    model, a = make_instance(77)
    f = random_nonneg(model, 99)
    n = model.max_depth
    trace = proof_trace(model, a, f, 1.5, INF, n_start=n)
    lhs = lp_norm(model, apply_depth_truncated(model, a, f, INF, n).values,
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
            assert trace.optimal_bound is not None
            assert trace.final_bound == pytest.approx(trace.optimal_bound, rel=1e-12)

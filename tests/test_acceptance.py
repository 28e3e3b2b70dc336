"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines
and timings.  Every tolerance is pinned here; the random sweeps are fully
seeded and deterministic.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from dyadicmax import (CarlesonSequence, CoefficientFamily, NormSearch,
                       apply_depth_truncated, apply_maximal, apply_truncated,
                       build_decomposition, build_model,
                       carleson_embedding_check, default_r, holder_conjugate,
                       lp_norm, operator_norm_bruteforce, operator_norm_lower,
                       proof_trace, stopping_weights, testing_constant,
                       theorem_constant, verify_packing, verify_reduction,
                       verify_theorem)
from dyadicmax.sawyer import random_instance
from dyadicmax.stopping import partition_ok, _node_averages

from conftest import INF, make_instance, random_nonneg

N_SWEEP = 500
P_VALUES = (1.5, 2.0, 3.0)

_cache = {}


def sweep_instances():
    if "sweep" not in _cache:
        _cache["sweep"] = [make_instance(seed, depth_max=4, branch_max=3)
                           for seed in range(N_SWEEP)]
    return _cache["sweep"]


def q_grid(p):
    return (p, 2.0 * p, INF)


def test_criterion_1_theorem_sandwich_sweep():
    t0 = time.time()
    checks = 0
    for seed, (model, a) in enumerate(sweep_instances()):
        for p in P_VALUES:
            for q in q_grid(p):
                # verify_theorem raises on any sandwich violation at 1e-9
                rep = verify_theorem(
                    model, a, p, q,
                    NormSearch(n_random=24, ascent_rounds=6, seed=seed),
                    rtol=1e-9)
                assert rep.B <= rep.A_lower * (1 + 1e-9)
                assert rep.A_lower <= rep.C_p * rep.B * (1 + 1e-9)
                checks += 1
    elapsed = time.time() - t0
    assert checks == N_SWEEP * 9
    print(f"\nACCEPTANCE 1 PASS: sandwich held on {checks} (instance, p, q) "
          f"checks, zero violations [{elapsed:.1f}s]")


def test_criterion_2_bruteforce_oracle_equivalence():
    t0 = time.time()
    combos = [(p, q) for p in P_VALUES for q in q_grid(p)]
    done = 0
    seed = 0
    while done < 100:
        seed += 1
        model, a = make_instance(seed, depth_max=2, branch_max=3)
        if model.n_leaves > 3 or np.all(model.mu_leaf == 0):
            continue
        p, q = combos[done % len(combos)]
        B, _ = testing_constant(model, a, p, q)
        A_lo, _ = operator_norm_lower(
            model, a, p, q, NormSearch(n_random=24, ascent_rounds=8, seed=seed))
        A_bf = operator_norm_bruteforce(model, a, p, q, 200, precision_dps=50)
        assert A_bf >= A_lo - 1e-6, (seed, p, q, A_bf, A_lo)
        assert B - 1e-6 <= A_bf, (seed, p, q, B, A_bf)
        assert A_bf <= theorem_constant(p) * B + 1e-6, (seed, p, q, B, A_bf)
        done += 1
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE 2 PASS: oracle (resolution 200, 50-digit refinement) "
          f"matched bounds on {done} small instances [{elapsed:.1f}s]")


def test_criterion_3_theorem_constant_values():
    # independent high-precision oracle, evaluated right here
    with mpmath.workdps(60):
        p = mpmath.mpf(2)
        c2_ref = float(((1 + 1 / p) ** (p + 1) * p) ** (1 / p) * (p / (p - 1)))
    assert abs(theorem_constant(2) - 3 * math.sqrt(3)) <= 1e-12
    assert abs(theorem_constant(2) - c2_ref) <= 1e-12
    assert abs(theorem_constant(1e6) - 1.0) <= 1e-3
    print("\nACCEPTANCE 3 PASS: constant at p=2 equals 3*sqrt(3) within 1e-12; "
          "limit value within 1e-3 of 1")


def test_criterion_4_stopping_machinery_sweep():
    t0 = time.time()
    packing_checks = 0
    for seed, (model, _) in enumerate(sweep_instances()):
        f = random_nonneg(model, 10_000 + seed)
        for p in P_VALUES:
            r = default_r(p)
            decomp = build_decomposition(model, f, r)
            assert partition_ok(decomp), seed
            rep = verify_packing(model, decomp)
            assert rep.worst_ratio <= rep.bound * (1 + 1e-9), (seed, p)
            assert rep.generation_bound_ok, (seed, p)
            averages = _node_averages(model, f)
            for owner, members in decomp.blocks.items():
                k = model.node(owner)
                for m in members:
                    km = model.node(m)
                    if model.mu_node[km] > 0:
                        assert averages[km] <= r * averages[k] * (1 + 1e-12) + 1e-300
            packing_checks += 1
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE 4 PASS: packing <= r/(r-1), partition and average "
          f"control held on {packing_checks} decompositions [{elapsed:.1f}s]")


def test_criterion_5_carleson_embedding_sweep():
    t0 = time.time()
    rng = np.random.default_rng(424242)
    checks = 0
    for seed, (model, _) in enumerate(sweep_instances()):
        w_vals = np.where(rng.random(model.n_nodes) < 0.25, 0.0,
                          rng.exponential(1.0, model.n_nodes))
        w = CarlesonSequence.from_weights(model, w_vals)
        f = random_nonneg(model, 20_000 + seed)
        p = P_VALUES[seed % len(P_VALUES)]
        rep = carleson_embedding_check(model, w, f, p, rtol=1e-9)
        assert rep.ok, (seed, p, rep.lhs, rep.bound)
        checks += 1
    # equality case: single atom, weight = mu mass, f = 1
    single = build_model({"nodes": [{"id": "L", "parent": None}],
                          "mu": {"L": 2.0}, "nu": {"L": 1.0}})
    for p in P_VALUES:
        w = CarlesonSequence.from_mapping(single, {"L": 2.0})
        rep = carleson_embedding_check(single, w, [1.0], p)
        assert rep.bound == pytest.approx(holder_conjugate(p) * rep.lhs,
                                          rel=1e-12)
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE 5 PASS: embedding held on {checks} random "
          f"(model, w, f, p) tuples; single-atom slack factor is exactly "
          f"p' [{elapsed:.1f}s]")


def test_criterion_6_proof_chain_sweep():
    t0 = time.time()
    traces = 0
    worst_recon = 0.0
    for seed, (model, a) in enumerate(sweep_instances()):
        f = random_nonneg(model, 30_000 + seed)
        for p in P_VALUES:
            for q in q_grid(p):
                trace = proof_trace(model, a, f, p, q, rtol=1e-9)  # r defaults to (p+1)/p
                assert trace.ok, (seed, p, q, trace.failed_links())
                bounds = {link.name: link.rhs for link in trace.links}
                assert "optimal_r" in bounds
                expected = (((1 + 1 / p) ** (p + 1) * p) ** (1 / p)
                            * holder_conjugate(p) * trace.B
                            * lp_norm(model, f, p, "mu"))
                assert bounds["optimal_r"] == pytest.approx(expected, rel=1e-12)
                assert trace.reconstruction_rel_error <= 1e-12, (seed, p, q)
                worst_recon = max(worst_recon, trace.reconstruction_rel_error)
                traces += 1
    elapsed = time.time() - t0
    assert traces == N_SWEEP * 9
    print(f"\nACCEPTANCE 6 PASS: all five chain links held on {traces} traces; "
          f"worst block-reconstruction error {worst_recon:.2e} <= 1e-12 "
          f"[{elapsed:.1f}s]")


def test_criterion_7_sawyer_reduction_sweep():
    t0 = time.time()
    rng = np.random.default_rng(909090)
    ratio_checks = 0
    for seed in range(200):
        inst = random_instance(seed)
        q = (inst.p, 2 * inst.p, INF)[seed % 3]
        for _ in range(20):
            f = rng.exponential(1.0, inst.model.n_leaves)
            rep = verify_reduction(inst, f, q, rtol=1e-12)  # raises beyond 1e-12
            assert rep.ok
            if rep.ratio_lhs is not None:
                assert rep.ratio_lhs == pytest.approx(rep.ratio_rhs, rel=1e-11)
                ratio_checks += 1
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE 7 PASS: reduction identities held to 1e-12 on 200 "
          f"instances x 20 functions; ratio invariance on {ratio_checks} "
          f"cases [{elapsed:.1f}s]")


def test_criterion_8_operator_laws():
    t0 = time.time()
    cases = 0
    rng = np.random.default_rng(777)
    while cases < 1000:
        seed = cases
        model, a = sweep_instances()[seed % N_SWEEP]
        f = rng.exponential(1.0, model.n_leaves)
        g = rng.exponential(1.0, model.n_leaves)
        q_hi = float(rng.uniform(2.0, 40.0))
        q_lo = float(rng.uniform(1.1, q_hi))
        c = float(rng.uniform(0.1, 10.0))

        hi = apply_maximal(model, a, f, q_hi)
        lo = apply_maximal(model, a, f, q_lo)
        sup = apply_maximal(model, a, f, INF)
        assert np.all(hi <= lo * (1 + 1e-10) + 1e-12)
        assert np.all(sup <= hi * (1 + 1e-10) + 1e-12)
        assert np.all(sup <= lo * (1 + 1e-10) + 1e-12)

        assert np.allclose(apply_maximal(model, a, c * f, q_lo),
                           c * lo, rtol=1e-10, atol=1e-12)

        both = apply_maximal(model, a, f + g, q_lo)
        split = lo + apply_maximal(model, a, g, q_lo)
        assert np.all(both <= split * (1 + 1e-10) + 1e-12)

        k = int(rng.integers(model.n_nodes))
        part = apply_truncated(model, a, f, q_lo, model.ids[k])
        assert np.all(part <= lo * (1 + 1e-10) + 1e-12)
        cases += 1
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE 8 PASS: q-monotonicity, homogeneity, sublinearity "
          f"and truncation bounds held on {cases} randomized cases "
          f"[{elapsed:.1f}s]")

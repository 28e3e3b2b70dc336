#!/usr/bin/env python3
"""Walk the sufficiency machinery: stopping cubes, packing, Carleson, chain.

Builds a decomposition for a lopsided function, prints the generations and
blocks, verifies the packing bounds, feeds the stopping masses through the
Carleson embedding inequality, and finally traces every link of the norm
bound on a random instance.
"""

import math

import numpy as np

from dyadicmax import (CoefficientFamily, RandomModelParams, build_decomposition,
                       build_model, carleson_embedding_check, default_r,
                       proof_trace, random_model, stopping_children,
                       stopping_weights, verify_packing)
from dyadicmax.stopping import decomposition_to_dict

model = build_model({
    "nodes": [
        {"id": "root", "parent": None},
        {"id": "A", "parent": "root"}, {"id": "B", "parent": "root"},
        {"id": "a1", "parent": "A"}, {"id": "a2", "parent": "A"},
        {"id": "b1", "parent": "B"}, {"id": "b2", "parent": "B"},
    ],
    "mu": {"a1": 1, "a2": 1, "b1": 1, "b2": 1},
    "nu": {"a1": 1, "a2": 1, "b1": 1, "b2": 1},
})
f = np.array([16.0, 0.0, 1.0, 1.0])  # mass piled on one atom
r = 1.5

print("f =", f, " r =", r)
print("stopping children of the root:", stopping_children(model, f, "root", r))
decomp = build_decomposition(model, f, r)
print("generations:", decomp.generations)
print("blocks (owner -> members):", decomp.blocks)
print("audit dump:", decomposition_to_dict(decomp))

packing = verify_packing(model, decomp)
print(f"\npacking: worst subtree ratio {packing.worst_ratio:.4f} "
      f"<= bound r/(r-1) = {packing.bound:.4f} (at {packing.worst_node!r})")
print(f"one-generation bound r*sum/mass: {packing.generation_worst:.4f} <= 1")

weights = stopping_weights(decomp)
print(f"\nstopping masses as a Carleson sequence: {weights.as_mapping()}")
print(f"computed packing constant: {weights.packing_constant:.4f}")
for p in (1.5, 2.0):
    rep = carleson_embedding_check(model, weights, f, p)
    print(f"embedding at p={p}: (sum avg^p w)^(1/p) {rep.lhs:.4f} "
          f"<= p' A^(1/p) |f|_p {rep.bound:.4f}")

print("\nfull chain on a random instance (default r = (p+1)/p):")
rmodel = random_model(RandomModelParams(depth_min=3, depth_max=4,
                                        zero_prob_mu=0.1, leaf_prob=0.2), 11)
a = CoefficientFamily.random(rmodel, 12)
g = np.random.default_rng(13).exponential(1.0, rmodel.n_leaves)
p, q = 2.0, math.inf
trace = proof_trace(rmodel, a, g, p, q)
print(f"instance: {rmodel}, stopping cubes: {len(trace.decomposition.stopping)}, "
      f"r = {trace.r:.3f}, B = {trace.B:.4f}")
print("each link compares norms:")
for link in trace.links:
    print(f"  {link.name:<12} {link.lhs:>14.6f} <= {link.rhs:>14.6f}   ok={link.ok}")
print(f"block reconstruction error: {trace.reconstruction_rel_error:.2e}")
final = next(link for link in trace.links if link.name == "final")
print("the operator norm estimate certified by the chain:",
      f"|Mf|_p = {final.lhs:.4f} <= final bound {final.rhs:.4f}")

#!/usr/bin/env python3
"""The testing characterization in action: B <= A <= C(p) B.

Computes the testing constant B exactly, a certified lower bound for the
operator norm A, and the sufficiency constant C(p), first on a toy model and
then on a batch of random instances.  The lower bound comes from cube
indicators and random candidates, refined by a nonlinear power iteration
f -> (sum over Q containing y of dM/dI_Q)^(1/(p-1)) whose iterates are all
evaluated exactly.  On tiny models the exhaustive oracle pins the true norm
between the same bounds.
"""

import math

import numpy as np

from dyadicmax import (CoefficientFamily, NormSearch, RandomModelParams,
                       build_model, operator_norm_bruteforce,
                       operator_norm_lower, random_model, testing_constant,
                       theorem_constant, verify_theorem)

print("sufficiency constant C(p) = ((1 + 1/p)^(p+1) p)^(1/p) p':")
for p in (1.1, 1.5, 2.0, 3.0, 10.0, 1e6):
    print(f"  C({p:g}) = {theorem_constant(p):.6f}")
print("(the constant tends to 1 as p grows)")

toy = build_model({
    "nodes": [
        {"id": "Q", "parent": None},
        {"id": "x", "parent": "Q"}, {"id": "y", "parent": "Q"},
    ],
    "mu": {"x": 1, "y": 1},
    "nu": {"x": 1, "y": 1},
})
ones = CoefficientFamily.constant(toy)
p, q = 2.0, math.inf

B, witness = testing_constant(toy, ones, p, q)
A_lower, f_star = operator_norm_lower(toy, ones, p, q, NormSearch(seed=1))
A_oracle = operator_norm_bruteforce(toy, ones, p, q, 200, precision_dps=40)
print(f"\ntoy model, p={p}, q=inf:")
print(f"  B        = {B:.9f}  (attained by cube {witness!r})")
print(f"  A_lower  = {A_lower:.9f}  (witness f = {np.round(f_star, 6)})")
print(f"  A_oracle = {A_oracle:.9f}  (grid + ascent + 40-digit refinement)")
print(f"  C(p) B   = {theorem_constant(p) * B:.9f}")

print("\nrandom instances (the sandwich is a theorem; it never fails):")
params = RandomModelParams(depth_min=2, depth_max=4, branch_min=2,
                           branch_max=3, zero_prob_mu=0.15, leaf_prob=0.25)
print(f"{'seed':>5} {'p':>4} {'q':>5} {'B':>10} {'A_lower':>10} {'A/B':>7} {'C(p)':>8}")
for seed in range(8):
    model = random_model(params, seed)
    a = CoefficientFamily.random(model, seed + 99)
    for p in (1.5, 2.0):
        q = 2 * p
        # 64 random candidates, then 12 power steps from the best starts
        rep = verify_theorem(model, a, p, q,
                             NormSearch(n_random=64, ascent_rounds=12, seed=seed))
        ratio = rep.A_lower / rep.B if rep.B > 0 else float("nan")
        print(f"{seed:>5} {p:>4} {q:>5} {rep.B:>10.4f} {rep.A_lower:>10.4f} "
              f"{ratio:>7.4f} {rep.C_p:>8.4f}")
print("every A/B ratio sits inside [1, C(p)], as the characterization demands")

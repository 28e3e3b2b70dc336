#!/usr/bin/env python3
"""Tour of the finite lattice model and the generalized maximal operator.

Builds a small two-level tree by hand, shows integrals, averages and
weighted norms, then evaluates the maximal operator for several exponents
and truncations.
"""

import math

import numpy as np

from dyadicmax import (CoefficientFamily, apply_depth_truncated, apply_maximal,
                       apply_truncated, average, build_model,
                       classical_coefficients, integrate, lp_norm)

model = build_model({
    "nodes": [
        {"id": "root", "parent": None},
        {"id": "left", "parent": "root"},
        {"id": "right", "parent": "root"},
        {"id": "ll", "parent": "left"}, {"id": "lr", "parent": "left"},
        {"id": "rl", "parent": "right"}, {"id": "rr", "parent": "right"},
    ],
    "mu": {"ll": 1.0, "lr": 0.5, "rl": 2.0, "rr": 0.0},
    "nu": {"ll": 0.5, "lr": 1.0, "rl": 0.25, "rr": 3.0},
})

print("model:", model)
print("leaf order:", model.leaf_ids)
print("mu per cube:", dict(zip(model.ids, model.mu_node)))

f = np.array([4.0, 1.0, 0.5, 2.0])
print("\nf =", f)
print("integral of f over 'left' (mu):", integrate(model, f, "left"))
print("average of f on 'left' (mu):  ", average(model, f, "left"))
print("|f| in L^2(mu):", lp_norm(model, f, 2, "mu"))
print("|f| in L^inf(nu):", lp_norm(model, f, math.inf, "nu"))
print("note: 'rr' has mu mass 0, so it never influences mu-averages")

# a_Q = 1 on every cube: terms are plain integrals over the ancestors
ones = CoefficientFamily.constant(model)
for q in (1.5, 2.0, math.inf):
    out = apply_maximal(model, ones, f, q)
    print(f"\nmaximal operator, q={q}: {np.round(out, 6)}")

print("\ntruncated to the subcubes of 'left':",
      apply_truncated(model, ones, f, math.inf, "left"))
print("dropping the root level (depth >= 1):",
      apply_depth_truncated(model, ones, f, math.inf, 1))

# the classical weighted family: omega(Q)^(-alpha) on each cube
omega = np.array([1.0, 1.0, 1.0, 1.0])
classic = classical_coefficients(model, omega, alpha=1.0)
print("\nclassical coefficients (alpha=1):",
      {nid: classic.entry(k) for k, nid in enumerate(model.ids)})
print("with these, q=inf recovers the usual dyadic maximal function:")
print(apply_maximal(model, classic, f, math.inf))

import math

import numpy as np
import pytest

from dyadicmax import (CoefficientFamily, DyadicModel, RandomModelParams, build_model,
                       random_model)

INF = math.inf


@pytest.fixture
def e1():
    """Root with two unit-mass atoms, both measures."""
    return build_model({
        "nodes": [
            {"id": "Q0", "parent": None},
            {"id": "L1", "parent": "Q0"},
            {"id": "L2", "parent": "Q0"},
        ],
        "mu": {"L1": 1, "L2": 1},
        "nu": {"L1": 1, "L2": 1},
    })


@pytest.fixture
def single_leaf():
    return build_model({
        "nodes": [{"id": "L", "parent": None}],
        "mu": {"L": 3},
        "nu": {"L": 5},
    })


@pytest.fixture
def deep_model():
    """Three levels with uneven masses, for less symmetric checks."""
    return build_model({
        "nodes": [
            {"id": "R", "parent": None},
            {"id": "A", "parent": "R"},
            {"id": "B", "parent": "R"},
            {"id": "a1", "parent": "A"},
            {"id": "a2", "parent": "A"},
            {"id": "b1", "parent": "B"},
            {"id": "b2", "parent": "B"},
            {"id": "b3", "parent": "B"},
        ],
        "mu": {"a1": 0.5, "a2": 2.0, "b1": 1.0, "b2": 0.0, "b3": 3.0},
        "nu": {"a1": 1.0, "a2": 0.25, "b1": 2.0, "b2": 1.0, "b3": 0.0},
    })


def make_instance(seed, *, depth_max=4, branch_min=2, branch_max=3, zero_prob=0.15,
                  roots=1):
    """One random (model, coefficients) pair, deterministic in seed.

    ``branch_min=1`` allows unary chains; ``roots > 1`` gives a forest.
    """
    params = RandomModelParams(
        depth_min=1, depth_max=depth_max, branch_min=branch_min, branch_max=branch_max,
        roots=roots, zero_prob_mu=zero_prob, zero_prob_nu=zero_prob, leaf_prob=0.25,
    )
    model = random_model(params, seed)
    coeffs = CoefficientFamily.random(model, seed + 1_000_003)
    return model, coeffs


def random_nonneg(model, seed, dist="exponential"):
    rng = np.random.default_rng(seed)
    if dist == "exponential":
        return rng.exponential(1.0, model.n_leaves)
    return rng.pareto(1.5, model.n_leaves)


def caterpillar(n_spine):
    """A chain of n_spine cubes, each with one atom beside the next cube."""
    ids = [f"s{k}" for k in range(n_spine + 1)] + [f"a{k}" for k in range(n_spine)]
    parents = [-1] + list(range(n_spine)) + list(range(n_spine))
    m = n_spine + 1
    return DyadicModel(ids, parents, np.ones(m), np.ones(m))

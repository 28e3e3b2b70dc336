"""Finite models of filtered measure spaces.

A :class:`DyadicModel` is a rooted forest whose leaves are atoms carrying two
nonnegative masses (``mu`` and ``nu``).  Interior nodes play the role of the
"cubes" of a dyadic lattice: the measure of a cube is the sum of the masses of
the atoms below it, and a function on the space is a vector of leaf values.
Everything downstream (maximal operators, testing constants, stopping
decompositions) is built on the primitives in this module: integrals,
averages and weighted Lp norms.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping

import numpy as np

MU = "mu"
NU = "nu"

__all__ = [
    "MU",
    "NU",
    "ModelError",
    "DyadicModel",
    "Exponents",
    "RandomModelParams",
    "build_model",
    "integrate",
    "average",
    "lp_norm",
    "random_model",
    "indicator",
    "as_leaf_function",
    "read_model",
    "write_model",
    "model_to_dict",
]


class ModelError(ValueError):
    """A tree description violates the model contract."""


def _as_mass_array(values, n, what):
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n,):
        raise ModelError(f"{what}: expected {n} values, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ModelError(f"{what}: non-finite mass")
    if np.any(arr < 0):
        raise ModelError(f"negative mass in {what}")
    return arr


class DyadicModel:
    """Immutable rooted forest with atomic leaf measures.

    Nodes are addressed by string ids.  Leaves are ordered depth-first
    (roots in document order, children in their given order), so the set of
    leaves below any node is a contiguous slice of the leaf vector; this is
    what makes integrals over cubes cheap.

    Instances are immutable after construction and safe to share across
    threads; all module operations are pure functions of their inputs.
    """

    def __init__(self, ids, parents, children, mu_leaf, nu_leaf, *, min_children=1):
        n = len(ids)
        if n == 0:
            raise ModelError("empty model")
        if len(set(ids)) != n:
            seen = set()
            dup = next(i for i in ids if i in seen or seen.add(i))
            raise ModelError(f"duplicate id: {dup!r}")
        self.ids = tuple(str(i) for i in ids)
        self.index = {nid: k for k, nid in enumerate(self.ids)}
        self.parent = np.asarray(parents, dtype=np.int64)
        self.children = tuple(tuple(c) for c in children)
        self.roots = tuple(int(k) for k in np.flatnonzero(self.parent < 0))
        if not self.roots:
            raise ModelError("cycle detected: no root node")

        for k, ch in enumerate(self.children):
            if ch and len(ch) < min_children:
                raise ModelError(
                    f"node {self.ids[k]!r} has {len(ch)} children; minimum is {min_children}"
                )

        # Depth-first walk: detects cycles/orphans, fixes the leaf order and
        # the subtree intervals used everywhere else.
        depth = np.full(n, -1, dtype=np.int64)
        dfs_order = np.empty(n, dtype=np.int64)
        dfs_lo = np.empty(n, dtype=np.int64)
        dfs_hi = np.empty(n, dtype=np.int64)
        leaf_lo = np.empty(n, dtype=np.int64)
        leaf_hi = np.empty(n, dtype=np.int64)
        leaf_nodes = []
        pos = 0
        for root in self.roots:
            stack = [(root, 0, False)]
            while stack:
                node, d, done = stack.pop()
                if done:
                    dfs_hi[node] = pos
                    leaf_hi[node] = len(leaf_nodes)
                    continue
                if depth[node] >= 0:
                    raise ModelError(f"cycle detected at node {self.ids[node]!r}")
                depth[node] = d
                dfs_order[pos] = node
                dfs_lo[node] = pos
                leaf_lo[node] = len(leaf_nodes)
                pos += 1
                stack.append((node, d, True))
                if not self.children[node]:
                    leaf_nodes.append(node)
                else:
                    for c in reversed(self.children[node]):
                        stack.append((c, d + 1, False))
        if pos != n:
            missed = self.ids[int(np.flatnonzero(depth < 0)[0])]
            raise ModelError(f"cycle detected: node {missed!r} unreachable from any root")

        self.depth = depth
        self.dfs_order = dfs_order
        self.dfs_lo = dfs_lo
        self.dfs_hi = dfs_hi
        self.leaf_lo = leaf_lo
        self.leaf_hi = leaf_hi
        self.leaf_nodes = np.asarray(leaf_nodes, dtype=np.int64)
        self.is_leaf = np.zeros(n, dtype=bool)
        self.is_leaf[self.leaf_nodes] = True
        self.leaf_ids = tuple(self.ids[k] for k in self.leaf_nodes)
        self.leaf_index = {nid: j for j, nid in enumerate(self.leaf_ids)}
        # interior nodes in DFS order, so that the gaps between their intervals,
        # which reduceat also sums, are disjoint: O(nodes) extra work in all
        self._inner = dfs_order[~self.is_leaf[dfs_order]]
        self._inner_bounds = np.stack([dfs_lo, dfs_hi], axis=1)[self._inner].ravel()

        for arr in (self.parent, self.depth, self.dfs_order, self.dfs_lo, self.dfs_hi,
                    self.leaf_lo, self.leaf_hi, self.leaf_nodes, self.is_leaf,
                    self._inner, self._inner_bounds):
            arr.setflags(write=False)
        self._set_measures(mu_leaf, nu_leaf)

    def _set_measures(self, mu_leaf, nu_leaf):
        m = len(self.leaf_ids)
        self.mu_leaf = _as_mass_array(mu_leaf, m, "mu")
        self.nu_leaf = _as_mass_array(nu_leaf, m, "nu")
        self.mu_node = self._subtree_sums(self.mu_leaf)
        self.nu_node = self._subtree_sums(self.nu_leaf)
        for arr in (self.mu_leaf, self.nu_leaf, self.mu_node, self.nu_node):
            arr.setflags(write=False)

    # -- structure ---------------------------------------------------------

    @property
    def n_nodes(self):
        return len(self.ids)

    @property
    def n_leaves(self):
        return len(self.leaf_ids)

    @property
    def max_depth(self):
        return int(self.depth.max())

    def node(self, node_id):
        """Index of a node id; raises ``KeyError`` for unknown ids."""
        try:
            return self.index[node_id]
        except KeyError:
            raise KeyError(f"unknown node id: {node_id!r}") from None

    def subtree(self, k):
        """Node indices of the subtree rooted at node index ``k`` (DFS order)."""
        return self.dfs_order[self.dfs_lo[k]:self.dfs_hi[k]]

    @cached_property
    def levels(self):
        """Node indices grouped by depth: ``levels[d]`` holds depth d."""
        by_depth = np.argsort(self.depth, kind="stable")
        cuts = np.searchsorted(self.depth[by_depth], np.arange(self.max_depth + 2))
        out = tuple(by_depth[cuts[d]:cuts[d + 1]] for d in range(self.max_depth + 1))
        for arr in out:
            arr.setflags(write=False)
        return out

    def ancestors_or_self(self, k):
        out = []
        while k >= 0:
            out.append(int(k))
            k = int(self.parent[k])
        return out

    # -- measures ----------------------------------------------------------

    def leaf_masses(self, measure):
        if measure == MU:
            return self.mu_leaf
        if measure == NU:
            return self.nu_leaf
        raise ValueError(f"unknown measure {measure!r}; use 'mu' or 'nu'")

    def node_masses(self, measure):
        if measure == MU:
            return self.mu_node
        if measure == NU:
            return self.nu_node
        raise ValueError(f"unknown measure {measure!r}; use 'mu' or 'nu'")

    def _subtree_sums(self, values):
        """Per-node sums over each subtree, along the last axis of ``values``.

        The last axis holds one value per leaf or one per node (with as many
        leaves as nodes every node is a lone leaf, and the two agree); leading
        axes are a batch.  Each interior node's own DFS interval is summed on
        its own, never as a difference of prefix sums, so a small cube keeps
        its digits beside a large one.
        """
        values = np.asarray(values, dtype=float)
        n = self.n_nodes
        dfs = np.zeros(values.shape[:-1] + (n + 1,))  # a trailing 0 keeps every hi in range
        if values.shape[-1] == n:
            dfs[..., :n] = values[..., self.dfs_order]
        else:
            dfs[..., self.dfs_lo[self.leaf_nodes]] = values
        out = dfs[..., self.dfs_lo]
        out[..., self._inner] = np.add.reduceat(dfs, self._inner_bounds, axis=-1)[..., ::2]
        return out

    def subtree_sums(self, leaf_values):
        """Per-node sums of an arbitrary leaf vector (additive set function)."""
        return self._subtree_sums(as_leaf_function(self, leaf_values))

    def subtree_totals(self, node_values):
        """Per-node sums of a node vector over each node's subtree, each on its own."""
        total = np.asarray(node_values, dtype=float)
        if total.shape != (self.n_nodes,):
            raise ValueError(f"need one value per node, got shape {total.shape}")
        return self._subtree_sums(total)

    def with_measures(self, mu_leaf=None, nu_leaf=None):
        """A model with the same tree shape and replaced leaf masses.

        The shape is read-only, so the new model shares it instead of
        walking the tree again.
        """
        model = copy.copy(self)
        model._set_measures(self.mu_leaf if mu_leaf is None else mu_leaf,
                            self.nu_leaf if nu_leaf is None else nu_leaf)
        return model

    # -- equality / serialization ------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, DyadicModel):
            return NotImplemented
        return (
            self.ids == other.ids
            and np.array_equal(self.parent, other.parent)
            and self.children == other.children
            and np.array_equal(self.mu_leaf, other.mu_leaf)
            and np.array_equal(self.nu_leaf, other.nu_leaf)
        )

    def __repr__(self):
        return (
            f"DyadicModel(nodes={self.n_nodes}, leaves={self.n_leaves}, "
            f"depth={self.max_depth}, mu={self.mu_node[self.roots[0]]:.6g})"
        )


@dataclass(frozen=True)
class Exponents:
    """A validated (p, q) pair with the Holder conjugate of p.

    ``q`` may be ``math.inf``; the infinite exponent is this exact marker,
    never a large float stand-in.
    """

    p: float
    q: float

    def __post_init__(self):
        if not (1.0 < self.p < math.inf):
            raise ValueError(f"p must be in (1, inf), got {self.p}")
        if not (self.q == math.inf or 1.0 < self.q):
            raise ValueError(f"q must be in (1, inf], got {self.q}")

    @property
    def p_conj(self):
        return self.p / (self.p - 1.0)

    def require_ordered(self):
        """Enforce p <= q, the regime of the testing characterization."""
        if not self.p <= self.q:
            raise ValueError(f"need p <= q, got p={self.p}, q={self.q}")
        return self


# ---------------------------------------------------------------------------
# construction


def build_model(spec: Mapping, *, min_children: int = 2) -> DyadicModel:
    """Build and validate a model from a tree description.

    ``spec`` follows the instance file schema::

        {"nodes": [{"id": ..., "parent": ... or None, "children": [...]}, ...],
         "mu": {leaf id: mass}, "nu": {leaf id: mass}}

    ``children`` entries are optional and checked against the parent links
    when present.  Every non-leaf must have at least ``min_children``
    children (lower it to 1 to allow chains).
    """
    try:
        node_specs = list(spec["nodes"])
        mu_map = {str(k): v for k, v in dict(spec["mu"]).items()}
        nu_map = {str(k): v for k, v in dict(spec["nu"]).items()}
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed model spec: {exc}") from None
    if not node_specs:
        raise ModelError("empty model")

    ids = []
    parent_ids = []
    declared_children = {}
    for rec in node_specs:
        nid = str(rec["id"])
        if nid in declared_children:
            raise ModelError(f"duplicate id: {nid!r}")
        ids.append(nid)
        parent_ids.append(rec.get("parent"))
        declared_children[nid] = rec.get("children")

    index = {nid: k for k, nid in enumerate(ids)}
    parents = np.full(len(ids), -1, dtype=np.int64)
    children = [[] for _ in ids]
    for k, pid in enumerate(parent_ids):
        if pid is None:
            continue
        pid = str(pid)
        if pid not in index:
            raise ModelError(f"orphan node {ids[k]!r}: unknown parent {pid!r}")
        parents[k] = index[pid]
        children[index[pid]].append(k)

    for nid, declared in declared_children.items():
        if declared is None:
            continue
        actual = [ids[c] for c in children[index[nid]]]
        if [str(c) for c in declared] != actual:
            raise ModelError(f"children of {nid!r} disagree with parent links")

    leaf_set = [ids[k] for k in range(len(ids)) if not children[k]]
    for name, mass_map in ((MU, mu_map), (NU, nu_map)):
        for key in mass_map:
            if key not in index:
                raise ModelError(f"{name} mass for unknown node {key!r}")
            if children[index[key]]:
                raise ModelError(f"{name} mass assigned to non-leaf {key!r}")
        missing = [nid for nid in leaf_set if nid not in mass_map]
        if missing:
            raise ModelError(f"missing {name} mass for leaf {missing[0]!r}")

    # shape first, then masses keyed by id in the model's own leaf order
    model = DyadicModel(
        ids, parents, children,
        np.zeros(len(leaf_set)), np.zeros(len(leaf_set)),
        min_children=min_children,
    )
    return model.with_measures(
        mu_leaf=[float(mu_map[nid]) for nid in model.leaf_ids],
        nu_leaf=[float(nu_map[nid]) for nid in model.leaf_ids],
    )


def as_leaf_function(model: DyadicModel, f, *, nonneg: bool = False) -> np.ndarray:
    """Validate a leaf-value vector against the model: finite, one per leaf."""
    arr = np.asarray(f, dtype=float)
    if arr.shape != (model.n_leaves,):
        raise ValueError(
            f"function has shape {arr.shape}, model has {model.n_leaves} leaves"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("function values must be finite")
    if nonneg and np.any(arr < 0):
        raise ValueError("function must be nonnegative here")
    return arr


def indicator(model: DyadicModel, Q) -> np.ndarray:
    """The function 1_Q as a leaf vector."""
    k = model.node(Q)
    out = np.zeros(model.n_leaves)
    out[model.leaf_lo[k]:model.leaf_hi[k]] = 1.0
    return out


# ---------------------------------------------------------------------------
# integrals and norms


def integrate(model: DyadicModel, f, Q, measure: str = MU) -> float:
    """Integral of f over the cube Q against the chosen leaf measure."""
    k = model.node(Q)
    arr = as_leaf_function(model, f)
    lo, hi = model.leaf_lo[k], model.leaf_hi[k]
    return float(np.dot(arr[lo:hi], model.leaf_masses(measure)[lo:hi]))


def average(model: DyadicModel, f, Q, measure: str = MU) -> float:
    """Measure-average of f over Q; 0 by convention on null cubes."""
    k = model.node(Q)
    mass = model.node_masses(measure)[k]
    if mass == 0.0:
        return 0.0
    return integrate(model, f, Q, measure) / mass


def _lq_rows(T, q):
    """ell-q norms along the last axis of T >= 0, q in [1, inf].

    Each row is divided by its peak before the power, so no q-th power
    overflows or underflows; q = inf gives the peak itself.
    """
    peak = T.max(axis=-1)
    if q == math.inf:
        return peak
    R = T / np.where(peak > 0, peak, 1.0)[..., None]
    R **= q
    return peak * R.sum(axis=-1) ** (1.0 / q)


def _lq_groups(values, group, n, q):
    """ell-q norms of values >= 0 by group, values[i] in group[i] of range(n).

    An empty group gives 0.  Each value is divided by its group's peak
    before the power, as in :func:`_lq_rows`.
    """
    peak = np.zeros(n)
    np.maximum.at(peak, group, values)
    if q == math.inf:
        return peak
    scaled = values / np.where(peak > 0, peak, 1.0)[group]
    scaled **= q
    return peak * np.bincount(group, weights=scaled, minlength=n) ** (1.0 / q)


def _lp_rows(values, mass, p):
    """Weighted Lp norms along the last axis, over the atoms of positive mass.

    sum(mass * |v|^p) is the p-th power of the ell-p norm of mass^(1/p) * |v|;
    at p = inf the weight is 1 on the atoms of positive mass and 0 elsewhere.
    """
    v = np.abs(values)
    v *= (mass > 0) if p == math.inf else mass ** (1.0 / p)
    return _lq_rows(v, p)


def lp_norm(model: DyadicModel, g, p, measure: str) -> float:
    """Weighted Lp norm of a leaf function, p in [1, inf].

    For p = inf this is the essential sup: the max of |g| over atoms of
    positive mass (0 when the measure vanishes identically).
    """
    arr = as_leaf_function(model, g)
    if not float(p) >= 1.0:
        raise ValueError(f"p must be >= 1, got {float(p)}")
    return float(_lp_rows(arr, model.leaf_masses(measure), float(p)))


# ---------------------------------------------------------------------------
# random instances


@dataclass(frozen=True)
class RandomModelParams:
    """Shape and mass distribution of randomly generated models.

    ``leaf_prob`` lets interior nodes stop early so leaves sit at mixed
    depths; ``zero_prob_*`` sparsify the leaf masses.
    """

    depth_min: int = 1
    depth_max: int = 3
    branch_min: int = 2
    branch_max: int = 3
    roots: int = 1
    mass_dist: str = "exponential"  # exponential | uniform | pareto
    zero_prob_mu: float = 0.0
    zero_prob_nu: float = 0.0
    leaf_prob: float = 0.0

    def validate(self):
        if self.depth_min < 1 or self.depth_min > self.depth_max:
            raise ValueError(f"empty depth range [{self.depth_min}, {self.depth_max}]")
        if self.branch_min < 1 or self.branch_min > self.branch_max:
            raise ValueError(f"empty branching range [{self.branch_min}, {self.branch_max}]")
        if self.roots < 1:
            raise ValueError("need at least one root")
        if self.mass_dist not in ("exponential", "uniform", "pareto"):
            raise ValueError(f"unknown mass distribution {self.mass_dist!r}")
        return self


def _draw_masses(rng, n, dist, zero_prob):
    if dist == "exponential":
        vals = rng.exponential(1.0, n)
    elif dist == "uniform":
        vals = rng.uniform(0.0, 1.0, n)
    else:
        vals = rng.pareto(1.5, n)
    if zero_prob > 0:
        vals = np.where(rng.random(n) < zero_prob, 0.0, vals)
    return vals


def random_model(params: RandomModelParams, seed: int) -> DyadicModel:
    """Deterministic random forest for a given (params, seed) pair."""
    params.validate()
    rng = np.random.default_rng(seed)

    ids = []
    parents = []
    children = []

    def new_node(parent):
        k = len(ids)
        ids.append(f"n{k}")
        parents.append(parent)
        children.append([])
        if parent >= 0:
            children[parent].append(k)
        return k

    for _ in range(params.roots):
        target = int(rng.integers(params.depth_min, params.depth_max + 1))
        root = new_node(-1)
        frontier = [(root, 0)]
        while frontier:
            node, d = frontier.pop(0)
            if d >= target:
                continue
            if d >= 1 and params.leaf_prob > 0 and rng.random() < params.leaf_prob:
                continue
            width = int(rng.integers(params.branch_min, params.branch_max + 1))
            for _ in range(width):
                frontier.append((new_node(node), d + 1))

    n_leaves = sum(1 for ch in children if not ch)
    mu = _draw_masses(rng, n_leaves, params.mass_dist, params.zero_prob_mu)
    nu = _draw_masses(rng, n_leaves, params.mass_dist, params.zero_prob_nu)
    # masses are i.i.d., so assign them in the model's own (DFS) leaf order
    model = DyadicModel(ids, parents, children, np.zeros(n_leaves), np.zeros(n_leaves),
                        min_children=1)
    return model.with_measures(mu_leaf=mu, nu_leaf=nu)


# ---------------------------------------------------------------------------
# instance files


def model_to_dict(model: DyadicModel) -> dict:
    nodes = []
    for k, nid in enumerate(model.ids):
        parent = None if model.parent[k] < 0 else model.ids[model.parent[k]]
        nodes.append({
            "id": nid,
            "parent": parent,
            "children": [model.ids[c] for c in model.children[k]],
        })
    return {
        "nodes": nodes,
        "mu": {nid: float(v) for nid, v in zip(model.leaf_ids, model.mu_leaf)},
        "nu": {nid: float(v) for nid, v in zip(model.leaf_ids, model.nu_leaf)},
    }


def write_model(model: DyadicModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2) + "\n")


def read_model(path, *, min_children: int = 1) -> DyadicModel:
    """Load an instance file; permissive about unary chains by default."""
    try:
        spec = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ModelError(f"cannot parse {path}: {exc}") from None
    return build_model(spec, min_children=min_children)

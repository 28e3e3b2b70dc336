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
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path

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
    "leaf_values",
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


# what a number read from a file must not be: JSON's "1.5" and true would
# otherwise convert silently
_NOT_NUMBERS = (str, bytes, bool, np.bool_)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, _NOT_NUMBERS)


def _non_number(values):
    """Position of the first string or boolean among ``values``, or None: one
    test of the set of the value types when there is none."""
    if set(map(type, values)).isdisjoint(_NOT_NUMBERS):
        return None
    return next(i for i, v in enumerate(values) if isinstance(v, _NOT_NUMBERS))


def _index(ids):
    """{id: position} for a list of distinct ids."""
    index = dict(zip(ids, range(len(ids))))
    if len(index) != len(ids):
        seen = set()
        dup = next(i for i in ids if i in seen or seen.add(i))
        raise ModelError(f"duplicate id: {dup!r}")
    return index


def _layout(ids, parent, roots, children, min_children):
    """Depth-first layout of a forest given by its child lists, in array passes.

    ``children[k]`` lists node k's children in their given order and
    ``roots`` holds the nodes whose ``parent`` link is negative, in index
    order; the forest is laid out root after root.  Returns (depth, dfs_order,
    dfs_lo, dfs_hi, leaf_lo, leaf_hi, counts, flat), ``counts`` and ``flat``
    being the child lists' lengths and their concatenation.

    Three passes run level by level, so they cost O(depth) array operations:
    one down the tree finds each level's nodes in the flattened lists, one up
    it adds up the subtree sizes, and one down again places every node after
    its parent and its elder siblings' subtrees.  A child index outside
    [0, n) and a forest without a root are rejected first.  Then a node named
    twice (in two lists, twice in one, or a root named as a child), a node no
    root reaches and a node with fewer than ``min_children`` children are
    faults; the first faulty node in index order (document order) is named,
    with the first of those three faults that it has.  Last, the first node
    whose parent link is not the node whose list names it is named.
    """
    n = len(ids)
    counts = np.fromiter(map(len, children), np.int64, n)
    flat = np.fromiter(chain.from_iterable(children), np.int64, int(np.add.reduce(counts)))
    if flat.size and not (np.minimum.reduce(flat) >= 0 and np.maximum.reduce(flat) < n):
        raise ModelError(f"child index out of range [0, {n})")
    if not roots.size:
        raise ModelError("cycle detected: no root node")
    owner = np.repeat(np.arange(n), counts)  # the node whose list holds flat[i]

    def descend(once):
        """Depths, and per depth >= 1 the nodes with their parents and flat
        positions: the nodes one level below depth d are the flat entries
        whose owner is at depth d.  Without ``once`` a node named twice is
        reached twice, and the pass stops after n placements."""
        depth = np.full(n, -1, dtype=np.int64)
        depth[roots] = 0
        levels, placed, d = [], roots.size, 0
        while placed < n or once:
            pick = (depth[owner] == d).nonzero()[0]
            if once:
                pick = pick[depth[flat[pick]] < 0]
            if not pick.size:
                break
            kids = flat[pick]
            d += 1
            depth[kids] = d
            levels.append((kids, owner[pick], pick))
            placed += kids.size
        return depth, levels, placed

    # with one name per node that is not a root, n placements that reach all
    # n nodes place each node once, from every name: no node is named twice
    # and every node is reached
    depth, levels, placed = descend(False)
    few = (counts > 0) & (counts < min_children) if min_children > 1 else False
    if (placed != n or flat.size != n - roots.size or np.minimum.reduce(depth) < 0
            or min_children > 1 and np.logical_or.reduce(few)):
        named = np.bincount(flat, minlength=n)
        named[roots] += 1  # a root is reached without being named
        depth = descend(True)[0]
        k = int(np.argmax((named > 1) | (depth < 0) | few))
        if named[k] > 1:
            raise ModelError(f"cycle detected at node {ids[k]!r}")
        if depth[k] < 0:
            raise ModelError(f"cycle detected: node {ids[k]!r} unreachable from any root")
        raise ModelError(
            f"node {ids[k]!r} has {counts[k]} children; minimum is {min_children}")
    wrong = flat[parent[flat] != owner]
    if wrong.size:
        raise ModelError(f"parent link of node {ids[wrong.min()]!r} disagrees with child lists")

    # up: subtree sizes.  A node's place in its parent's subtree is 1 plus the
    # sizes of its elder siblings, from one running sum over the flat lists
    size = np.ones(n, dtype=np.int64)
    for kids, parents, _ in reversed(levels):
        np.add.at(size, parents, size[kids])
    sizes = size[flat]
    before = np.add.accumulate(sizes) - sizes
    first = np.add.accumulate(counts) - counts  # each list's start in flat
    offset = before + 1 - before[first[owner]]

    # down again: DFS positions, roots one after another
    lo = np.empty(n, dtype=np.int64)
    root_sizes = size[roots]
    lo[roots] = np.add.accumulate(root_sizes) - root_sizes
    for kids, parents, pick in levels:
        lo[kids] = lo[parents] + offset[pick]
    order = np.empty(n, dtype=np.int64)
    order[lo] = np.arange(n)
    leaves_before = np.zeros(n + 1, dtype=np.int64)
    np.add.accumulate(counts[order] == 0, dtype=np.int64, out=leaves_before[1:])
    hi = lo + size
    return depth, order, lo, hi, leaves_before[lo], leaves_before[hi], counts, flat


class DyadicModel:
    """Immutable rooted forest with atomic leaf measures.

    Nodes are addressed by string ids.  Leaves are ordered depth-first
    (roots in document order, children in their given order), so the set of
    leaves below any node is a contiguous slice of the leaf vector; this is
    what makes integrals over cubes cheap.  The masses ``mu_leaf`` and
    ``nu_leaf`` come in that leaf order, or as maps {leaf id: mass}.

    The layout arrays (``depth``, ``dfs_order``, the subtree intervals
    ``dfs_lo``/``dfs_hi`` and ``leaf_lo``/``leaf_hi``) come from the child
    lists, read as one flat array and their lengths, in a few array passes
    per level of the tree (``_layout``), which also reject a malformed
    shape, or parent links that disagree with the child lists, by naming the
    first faulty node in index order.  Tables that depend on the shape alone
    (``levels``, and the child lists and the level-by-leaf ancestor table,
    both padded with n_nodes) are built on first use and cached on the model,
    so every coefficient family on the tree, and every ``with_measures`` copy
    made after they exist, shares them.  Other modules read subtree sums per
    node (``_subtree_sums``) or along the paths (``_path_sums``), never the
    buffer of ``_dfs_sums``.

    Instances are immutable after construction and safe to share across
    threads; all module operations are pure functions of their inputs.
    """

    def __init__(self, ids, parents, children, mu_leaf, nu_leaf, *, min_children=1):
        n = len(ids)
        if n == 0:
            raise ModelError("empty model")
        self.ids = tuple(ids)
        if not set(map(type, self.ids)) <= {str}:
            self.ids = tuple(map(str, self.ids))
        self.index = _index(self.ids)
        self.parent = np.asarray(parents, dtype=np.int64)
        self.children = tuple(map(tuple, children))
        if len(self.children) != n or self.parent.shape != (n,):
            raise ModelError(f"need one parent and one child list for each of {n} nodes")
        roots = (self.parent < 0).nonzero()[0]
        self.roots = tuple(roots.tolist())
        (self.depth, self.dfs_order, self.dfs_lo, self.dfs_hi, self.leaf_lo, self.leaf_hi,
         self._child_counts, self._child_flat) = _layout(self.ids, self.parent, roots,
                                                         self.children, min_children)

        self.is_leaf = self._child_counts == 0
        self.leaf_nodes = self.dfs_order[self.is_leaf[self.dfs_order]]
        self.leaf_ids = tuple(map(self.ids.__getitem__, self.leaf_nodes.tolist()))
        # interior nodes in DFS order, so that the gaps between their intervals,
        # which reduceat also sums, are disjoint: O(nodes) extra work in all.
        # In the buffer of _dfs_sums a leaf's sum is its own value, at its DFS
        # position, and interior node i's (in this order) is entry n + 1 + 2i
        inner = self.dfs_order[~self.is_leaf[self.dfs_order]]
        self._inner_bounds = np.empty(2 * inner.size, dtype=np.int64)
        self._inner_bounds[0::2] = self.dfs_lo[inner]
        self._inner_bounds[1::2] = self.dfs_hi[inner]
        self._sum_slots = self.dfs_lo.copy()
        self._sum_slots[inner] = np.arange(n + 1, n + 1 + 2 * inner.size, 2)
        self._sum_cells = n + 1 + self._inner_bounds.size
        self._leaf_dfs = self.dfs_lo[self.leaf_nodes]  # each atom's DFS position

        for arr in (self.parent, self.depth, self.dfs_order, self.dfs_lo, self.dfs_hi,
                    self.leaf_lo, self.leaf_hi, self.leaf_nodes, self.is_leaf,
                    self._child_counts, self._child_flat, self._inner_bounds,
                    self._sum_slots, self._leaf_dfs):
            arr.setflags(write=False)
        self._set_measures(mu_leaf, nu_leaf)

    def _set_measures(self, mu_leaf, nu_leaf):
        masses = np.empty((2, self.n_leaves))
        masses[0] = self._checked_masses(mu_leaf, MU)
        masses[1] = self._checked_masses(nu_leaf, NU)
        sums = self._subtree_sums(masses)
        masses.setflags(write=False)
        sums.setflags(write=False)
        self.mu_leaf, self.nu_leaf = masses
        self.mu_node, self.nu_node = sums

    def _checked_masses(self, values, what):
        """Validated masses in leaf order, from a sequence or a {leaf id: mass} map."""
        if isinstance(values, Mapping):
            values = leaf_values(self, values, what)
        try:
            arr = np.asarray(values, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ModelError(f"{what}: masses must be numbers ({exc})") from None
        if arr.shape != (self.n_leaves,):
            raise ModelError(f"{what}: expected {self.n_leaves} values, got shape {arr.shape}")
        # a NaN fails both tests
        if not (np.minimum.reduce(arr) >= 0 and np.maximum.reduce(arr) < math.inf):
            finite = np.isfinite(arr)
            if not finite.all():
                leaf = self.leaf_ids[int(np.argmin(finite))]
                raise ModelError(f"{what} mass of leaf {leaf!r} is not a finite number")
            leaf = self.leaf_ids[int(np.argmax(arr < 0))]
            raise ModelError(f"negative mass in {what} at leaf {leaf!r}")
        return arr

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

    @cached_property
    def _families(self):
        """Child lists of the interior nodes, one column each, padded with n_nodes:
        row i holds every interior node's i-th child.  One scatter fills it."""
        lengths = self._child_counts[self._child_counts > 0]
        starts = np.cumsum(lengths) - lengths
        flat = self._child_flat
        column = np.repeat(np.arange(lengths.size), lengths)
        out = np.full((lengths.max(initial=0), lengths.size), self.n_nodes)
        out[np.arange(flat.size) - starts[column], column] = flat
        out.setflags(write=False)
        return out

    @cached_property
    def _ancestors(self):
        """The ancestor of every atom at every depth: one row per depth, one column
        per leaf, n_nodes (the spare slot of every n_nodes + 1 array) below the
        leaf.  It depends on the tree's shape only.  The table is level-major,
        so a reduction along every atom's path (a max, an ell-q sum, a running
        norm) is elementwise work across a few contiguous rows of atoms."""
        anc = np.full((self.max_depth + 1, self.n_leaves), self.n_nodes, dtype=np.int64)
        cols, cur = np.arange(self.n_leaves), self.leaf_nodes
        while cols.size:
            anc[self.depth[cur], cols] = cur
            cur = self.parent[cur]
            cols, cur = cols[cur >= 0], cur[cur >= 0]
        anc.setflags(write=False)
        return anc

    @cached_property
    def _ancestor_sums(self):
        """The ancestor table as positions in the buffer of ``_dfs_sums``; the
        padding n_nodes is the buffer's zero cell n_nodes."""
        slots = np.append(self._sum_slots, self.n_nodes)[self._ancestors]
        slots.setflags(write=False)
        return slots

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

    def _dfs_sums(self, values):
        """Per-node sums over each subtree, along the last axis of ``values``, in
        one buffer: node k's sum is entry ``_sum_slots[k]``, and entry n_nodes
        is 0.

        The last axis holds one value per leaf or one per node (with as many
        leaves as nodes every node is a lone leaf, and the two agree); leading
        axes are a batch.  The buffer's first n_nodes + 1 entries hold the
        values in DFS order, a leaf's sum being its own value; one reduceat over
        the interior nodes' DFS intervals writes their sums after them.  Each
        interval is summed on its own, never as a difference of prefix sums,
        so a small cube keeps its digits beside a large one.
        """
        values = np.asarray(values, dtype=float)
        n = self.n_nodes
        out = np.zeros(values.shape[:-1] + (self._sum_cells,))
        dfs = out[..., :n + 1]  # a trailing 0 keeps every hi in range
        if values.shape[-1] == n:
            dfs[..., :n] = values[..., self.dfs_order]
        else:
            dfs[..., self._leaf_dfs] = values
        np.add.reduceat(dfs, self._inner_bounds, axis=-1, out=out[..., n + 1:])
        return out

    def _subtree_sums(self, values):
        """``_dfs_sums`` in node order: one sum per node along the last axis."""
        return self._dfs_sums(values)[..., self._sum_slots]

    def _path_sums(self, values):
        """The sum over every atom's ancestor at every depth, 0 below the atom:
        one ``_dfs_sums`` gathered as the ancestor table, on the last two axes."""
        return self._dfs_sums(values)[..., self._ancestor_sums]

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

        The shape is read-only, so the new model shares it, and the shape
        tables already built (such as the ancestor table), instead of walking
        the tree again.  Masses may be given in leaf order or by leaf id.
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
        records, mu_map, nu_map = list(spec["nodes"]), spec["mu"], spec["nu"]
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed model spec: {exc}") from None
    if not (isinstance(mu_map, Mapping) and isinstance(nu_map, Mapping)):
        raise ModelError("malformed model spec: mu and nu must map leaf ids to masses")
    if not records:
        raise ModelError("empty model")

    try:
        ids = [rec["id"] for rec in records]
    except (KeyError, TypeError):
        pos, rec = next((pos, rec) for pos, rec in enumerate(records)
                        if not isinstance(rec, Mapping) or "id" not in rec)
        raise ModelError(f"node record {pos} is not an object with an 'id': {rec!r}") from None
    if not set(map(type, ids)) <= {str}:
        ids = list(map(str, ids))
    n = len(ids)
    index = _index(ids)
    parent_ids = [rec.get("parent") for rec in records]
    try:
        parents = np.fromiter(map(index.get, parent_ids, repeat(-2)), np.int64, n)
    except TypeError:  # an unhashable parent id
        parents = np.full(n, -2, dtype=np.int64)
    for k in (parents == -2).nonzero()[0].tolist():  # roots, and ids that are not strings
        pid = parent_ids[k]
        parents[k] = -1 if pid is None else index.get(str(pid), -2)
        if parents[k] == -2:
            raise ModelError(f"orphan node {ids[k]!r}: unknown parent {str(pid)!r}")

    # child lists from the parent links: the nodes sorted by parent, in index
    # order within each parent, after the roots (parent -1)
    counts = np.bincount(parents + 1, minlength=n + 1)
    flat = tuple(np.argsort(parents, kind="stable").tolist())
    ends = np.add.accumulate(counts)
    inner = counts[1:].nonzero()[0]
    children = [()] * n
    for k, lo, hi in zip(inner.tolist(), ends[inner].tolist(), ends[inner + 1].tolist()):
        children[k] = flat[lo:hi]

    # declared child lists must match the parent links: compared all at once,
    # as their lengths and as one sequence of child indices, and node by node
    # only to name the first that disagrees
    declared = [rec.get("children") for rec in records]
    kinds = set(map(type, declared))
    if not kinds <= {list, tuple, type(None)}:
        k, got = next((k, c) for k, c in enumerate(declared)
                      if c is not None and type(c) not in (list, tuple))
        raise ModelError(f"children of {ids[k]!r} must be a list of ids, got {got!r}")
    listed, lengths, actual = range(n), counts[1:].tolist(), flat[counts[0]:]
    if type(None) in kinds:
        listed = [k for k, c in enumerate(declared) if c is not None]
        declared = [declared[k] for k in listed]
        lengths = [lengths[k] for k in listed]
        actual = tuple(chain.from_iterable(children[k] for k in listed))
    try:
        same = (list(map(len, declared)) == lengths
                and tuple(map(index.get, chain.from_iterable(declared), repeat(-1))) == actual)
    except TypeError:  # an unhashable entry
        same = False
    if not same:  # entries that are not strings are compared as their str()
        k = next((k for k, c in zip(listed, declared)
                  if list(map(str, c)) != [ids[j] for j in children[k]]), None)
        if k is not None:
            raise ModelError(f"children of {ids[k]!r} disagree with parent links")

    return DyadicModel(ids, parents, children, mu_map, nu_map, min_children=min_children)


def leaf_values(model: DyadicModel, values: Mapping, what: str) -> list:
    """The values of a map {leaf id: value}, in the model's leaf order.

    Every leaf needs a value and every key must be a leaf id; ``what`` names
    the map in the error.  A value that is a string or a boolean is rejected;
    the caller checks the others.
    """
    if not isinstance(values, Mapping):
        raise ModelError(f"{what} must map leaf ids to values, got {type(values).__name__}")
    out = None
    if len(values) == model.n_leaves:
        try:
            out = list(map(values.__getitem__, model.leaf_ids))
        except KeyError:
            pass
    if out is None:
        keyed = {str(k): v for k, v in values.items()}
        for key in keyed:
            if key not in model.index:
                raise ModelError(f"{what} mass for unknown node {key!r}")
            if not model.is_leaf[model.index[key]]:
                raise ModelError(f"{what} mass assigned to non-leaf {key!r}")
        missing = next((nid for nid in model.leaf_ids if nid not in keyed), None)
        if missing is not None:
            raise ModelError(f"missing {what} mass for leaf {missing!r}")
        out = [keyed[nid] for nid in model.leaf_ids]
    i = _non_number(out)
    if i is not None:
        raise ModelError(f"{what} value of leaf {model.leaf_ids[i]!r} must be a number, "
                         f"got {out[i]!r}")
    return out


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


def _lq_rows(T, q, axis=-1):
    """ell-q norms of T >= 0 along an axis, q in [1, inf].

    Each line is divided by its peak before the power, so no q-th power
    overflows or underflows; q = inf gives the peak itself.  The ufuncs
    reduce directly, without the array methods' wrappers: this runs some
    thirty times per verified combination.
    """
    if q == math.inf:
        return np.maximum.reduce(T, axis=axis)
    peak = np.maximum.reduce(T, axis=axis, keepdims=True)
    R = T / np.where(peak > 0, peak, 1.0)
    R **= q
    # on 1-D T the sum stays a numpy scalar, whose power rounds as before
    return peak.squeeze(axis) * np.add.reduce(R, axis=axis) ** (1.0 / q)


def _running_lq(T, q, axis):
    """ell-q norms of the first d entries along an axis of T >= 0, for d = 0..n
    (n + 1 entries on that axis), each step rescaled by the running peak.

    T has two axes or more, so that each row is an array.  One maximum per
    row gives the running peaks (maximum.accumulate along axis 0 runs column
    by column).  At finite q the sum of the q-th powers, divided by the
    running peak's, is carried from row to row as
    acc_d = acc_(d-1) * (peak_(d-1) / peak_d)^q + (T_d / peak_d)^q: every power
    is taken for all rows at once, and only that multiply-add runs row by row.
    """
    T = T.swapaxes(0, axis)
    n = T.shape[0]
    peak = np.zeros((n + 1,) + T.shape[1:])
    if q == math.inf:
        peak[1:2] = T[:1]
        for d in range(1, n):
            np.maximum(peak[d], T[d], out=peak[d + 1])
        return peak.swapaxes(0, axis)
    for d in range(n):
        np.maximum(peak[d], T[d], out=peak[d + 1])
    scale = np.where(peak[1:] > 0, peak[1:], 1.0)
    shrink = (peak[:-1] / scale) ** q
    terms = (T / scale) ** q
    acc = np.zeros_like(peak)
    for d in range(n):
        np.multiply(acc[d], shrink[d], out=acc[d + 1])
        acc[d + 1] += terms[d]
    return (peak * acc ** (1.0 / q)).swapaxes(0, axis)


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
    # masses are i.i.d., so they go straight into the model's own (DFS) leaf order
    return DyadicModel(ids, parents, children, mu, nu, min_children=1)


# ---------------------------------------------------------------------------
# instance files


def model_to_dict(model: DyadicModel) -> dict:
    parents = [None if k < 0 else model.ids[k] for k in model.parent.tolist()]
    nodes = [{"id": nid, "parent": parent, "children": [model.ids[c] for c in children]}
             for nid, parent, children in zip(model.ids, parents, model.children)]
    return {
        "nodes": nodes,
        "mu": dict(zip(model.leaf_ids, model.mu_leaf.tolist())),
        "nu": dict(zip(model.leaf_ids, model.nu_leaf.tolist())),
    }


def _write_json(data, path) -> None:
    """``data`` as one line of compact JSON: ``indent`` would bypass json's C encoder."""
    Path(path).write_text(json.dumps(data) + "\n")


def _read_json(path, build):
    """``build`` applied to the JSON value in the file at ``path``.

    A parse error, or a ``ValueError`` that ``build`` raises on a value of
    the wrong shape, comes back as a ``ModelError`` naming the file.
    """
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ModelError(f"cannot parse {path}: {exc}") from None
    try:
        return build(data)
    except ValueError as exc:
        raise ModelError(f"{path}: {exc}") from None


def write_model(model: DyadicModel, path) -> None:
    _write_json(model_to_dict(model), path)


def read_model(path, *, min_children: int = 1) -> DyadicModel:
    """Load an instance file; permissive about unary chains by default."""
    return _read_json(path, lambda spec: build_model(spec, min_children=min_children))

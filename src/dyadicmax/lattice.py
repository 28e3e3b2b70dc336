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
import reprlib
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path

import numpy as np

MU = "mu"
NU = "nu"

__all__ = [
    "MU",
    "NU",
    "ModelError",
    "DyadicModel",
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
    """An input violates the model contract: a tree description, or a vector entry
    (a mass, a function value, a coefficient, a weight, a parent index) out of range."""


# what a number must not be, in a file or in a call: JSON's "1.5" and true, and
# Python's, would otherwise convert silently
_NOT_NUMBERS = (str, bytes, bool, np.bool_)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, _NOT_NUMBERS)


def _number(value) -> float:
    """``value`` as a float if it is a number (not a string or a boolean) that
    a float holds; NaN, which fails every range and finiteness test, for
    anything else, such as an integer too large for a float."""
    if type(value) is float:
        return value
    if not _is_number(value):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.nan


def _check_int(value, name, lo, hi=None) -> int:
    """An integer option as a Python int: an int or a numpy integer (never a
    boolean or a float, 2.0 included) read exactly, in [lo, hi] (None: no
    bound); else ``ValueError`` names the option and the value."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        exact = int(value)
        if (lo is None or lo <= exact) and (hi is None or exact <= hi):
            return exact
    need = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
    raise ValueError(f"{name} must be an integer{need}, got {value!r}")


def _check_prob(value, name) -> float:
    """A probability as a float: a number by ``_number``'s rule, in [0, 1]."""
    prob = _number(value)
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")
    return prob


def _check_nonneg(value, name) -> float:
    """A float by ``_number``'s rule, finite and >= 0 (a NaN is neither)."""
    number = _number(value)
    if not 0.0 <= number < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return number


def _float_array(values, copy=None) -> np.ndarray:
    """``values`` as a float array, each entry read by ``_number``'s rule, so that a
    string, a boolean, None, a container or an integer too large for a float is
    a NaN for the caller's finiteness test to name.  A numeric array converts
    directly, copied if ``copy``; a list of plain floats and ints in one call."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        return np.array(values, dtype=float, copy=copy)
    if not np.iterable(values):  # a 0-d array, which every shape test rejects
        return np.array(_number(values))
    values = list(values)
    if set(map(type, values)) <= {float, int}:
        try:
            return np.array(values, dtype=float)
        except OverflowError:  # an integer too large for a float
            pass
    return np.array([v if type(v) is float else _number(v) for v in values], dtype=float)


def _checked_vector(model, values, what, per="leaf", *, nonneg=False):
    """``values`` (``_float_array``) with one finite number per leaf, or per node,
    each >= 0 if ``nonneg``; else ``ModelError`` names the shape, or the first bad
    leaf or node and its value as given (``what`` names the values: "mu mass")."""
    ids = model.leaf_ids if per == "leaf" else model.ids
    arr = _float_array(values)
    if arr.shape != (len(ids),):
        raise ModelError(f"need one {what} per {per}, {len(ids)} in all, got shape {arr.shape}")
    # a NaN fails every test
    if (np.minimum.reduce(arr) >= 0 and np.maximum.reduce(arr) < math.inf if nonneg
            else np.logical_and.reduce(np.isfinite(arr))):
        return arr
    k = int(np.argmax(~np.isfinite(arr) | (arr < 0 if nonneg else False)))
    given = reprlib.repr(values[k] if isinstance(values, (list, tuple)) else arr[k].item())
    fault = "is not a finite number" if not math.isfinite(arr[k]) else "is negative"
    raise ModelError(f"{what} of {per} {ids[k]!r} {fault}, got {given}")


def _int_array(values, ids, what) -> np.ndarray:
    """``values`` as an int64 array, an int64 array as it is: one integer per id by
    ``_float_array``'s rule (a boolean is none), or ``ModelError`` names the first bad id."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64 and values.shape == (len(ids),):
        return values
    arr = _float_array(values)
    if arr.shape != (len(ids),):
        raise ModelError(f"need one {what} for each of {len(ids)} nodes")
    whole = (np.abs(arr) < 2.0 ** 63) & (arr == np.trunc(arr))  # a NaN is neither
    if not np.logical_and.reduce(whole):
        k = int(np.argmax(~whole))
        given = values[k] if isinstance(values, (list, tuple)) else arr[k].item()
        raise ModelError(f"{what} of node {ids[k]!r} must be a 64-bit integer, got "
                         f"{reprlib.repr(given)}")
    return arr.astype(np.int64)


def _index(ids):
    """{id: position} for a list of distinct ids."""
    index = dict(zip(ids, range(len(ids))))
    if len(index) != len(ids):
        seen = set()
        dup = next(i for i in ids if i in seen or seen.add(i))
        raise ModelError(f"duplicate id: {dup!r}")
    return index


def _positions(index, ids) -> np.ndarray:
    """Each id's position in the {id: position} map ``index``, looked up as
    given, then as its str() (a number in a file names the id it prints as);
    -1 where neither finds it."""
    try:
        pos = np.fromiter(map(index.get, ids, repeat(-1)), np.int64, len(ids))
    except TypeError:  # an unhashable id: look each one up as its str()
        pos = np.full(len(ids), -1, dtype=np.int64)
    for i in (pos < 0).nonzero()[0].tolist():
        pos[i] = index.get(str(ids[i]), -1)
    return pos


def _layout(ids, parent, roots):
    """Depth-first layout of a forest given by its parent links, in array passes.

    ``roots`` holds the nodes whose ``parent`` link is negative, in index
    order; the forest is laid out root after root, and each node's children
    in index order.  Returns (depth, dfs_order, dfs_lo, dfs_hi, leaf_lo,
    leaf_hi, counts, flat, levels), ``counts`` and ``flat`` being the child
    lists' lengths and their concatenation: the nodes that are not roots,
    sorted by parent in one stable sort; and ``levels`` the nodes of each
    depth in index order, ``roots`` first.

    Three passes run level by level, so they cost O(depth) array operations
    over O(nodes) elements in all: one down the tree gathers each level's
    nodes as the child lists of the level above, slices of the sorted ones;
    one up it adds up the subtree sizes; and one down again places every
    node after its parent and its elder siblings' subtrees.  A parent index
    of n or more and a forest without a root are rejected first.  Then the
    first node in index order (document order) that no root reaches, a node
    on a cycle of parent links or below one, is named.
    """
    n = len(ids)
    if np.maximum.reduce(parent) >= n:
        k = int(np.argmax(parent >= n))
        raise ModelError(f"parent index of node {ids[k]!r} out of range [0, {n})")
    if not roots.size:
        raise ModelError("cycle detected: no root node")
    flat = np.argsort(parent, kind="stable")[roots.size:]
    owner = parent[flat]  # the parent of flat[i], in ascending order
    counts = np.bincount(owner, minlength=n)
    first = np.add.accumulate(counts) - counts  # each list's start in flat

    # down: depths, and per depth >= 1 the nodes with their parents and flat
    # positions.  The next level is the current level's child lists, slices
    # of flat, in the current level's order (the later passes work node by
    # node, so the order inside a level does not matter; ``levels`` sorts each
    # level once); each node has one owner, so it is reached at most once
    depth = np.full(n, -1, dtype=np.int64)
    depth[roots] = 0
    levels, placed, nodes, d = [], roots.size, roots, 0
    while placed < n:
        lengths = counts[nodes]
        ends = np.add.accumulate(lengths)
        if not ends[-1]:
            break
        pick = (first[nodes] - ends + lengths).repeat(lengths) + np.arange(ends[-1])
        nodes = flat[pick]
        d += 1
        depth[nodes] = d
        levels.append((nodes, owner[pick], pick))
        placed += nodes.size
    if placed != n:
        k = int(np.argmax(depth < 0))
        raise ModelError(f"cycle detected: node {ids[k]!r} unreachable from any root")

    # up: subtree sizes.  A node's place in its parent's subtree is 1 plus the
    # sizes of its elder siblings, from one running sum over the flat lists
    size = np.ones(n, dtype=np.int64)
    for kids, parents, _ in reversed(levels):
        np.add.at(size, parents, size[kids])
    sizes = size[flat]
    before = np.add.accumulate(sizes) - sizes
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
    groups = (roots, *(np.sort(kids) for kids, _, _ in levels))
    return depth, order, lo, hi, leaves_before[lo], leaves_before[hi], counts, flat, groups


class DyadicModel:
    """Immutable rooted forest with atomic leaf measures.

    Nodes are addressed by string ids, and the tree is given once, by each
    node's parent index (negative for a root).  Leaves are ordered
    depth-first (roots in document order, children in index order), so the
    set of leaves below any node is a contiguous slice of the leaf vector;
    this is what makes integrals over cubes cheap.  The masses ``mu_leaf``
    and ``nu_leaf`` come in that leaf order, or as maps {leaf id: mass}.

    The layout arrays (``depth``, ``dfs_order``, the subtree intervals
    ``dfs_lo``/``dfs_hi`` and ``leaf_lo``/``leaf_hi``) come from the parent
    links, sorted once by parent, in a few array passes per level of the
    tree (``_layout``), which also reject a malformed shape by naming the
    first faulty node in index order, and group the nodes by depth:
    ``levels[d]`` holds the nodes at depth d in index order.  Tables that
    depend on the shape alone (``children``, and the child lists and the
    level-by-leaf ancestor table, both padded with n_nodes) are built on
    first use and cached on the model, so every coefficient family on the
    tree, and every ``with_measures`` copy made after they exist, shares
    them.  Other modules read subtree sums per node (``_subtree_sums``), and
    ``maximal`` alone reads them along the paths (``_path_sums``) and the
    level tables; none reads the buffer of ``_dfs_sums``.

    Instances are immutable after construction and safe to share across
    threads; all module operations are pure functions of their inputs.
    ``_id_index``, the {id: position} map of ``ids`` already given as
    distinct strings, lets :func:`build_model` hand over the one it built.
    """

    def __init__(self, ids, parents, mu_leaf, nu_leaf, *, _id_index=None):
        n = len(ids)
        if n == 0:
            raise ModelError("empty model")
        self.ids = tuple(ids)
        self.n_nodes = n
        if _id_index is None:
            if not set(map(type, self.ids)) <= {str}:
                self.ids = tuple(map(str, self.ids))
            _id_index = _index(self.ids)
        self.index = _id_index
        self.parent = np.maximum(_int_array(parents, self.ids, "parent"), -1)  # -1 for a root
        roots = (self.parent < 0).nonzero()[0]
        self.roots = tuple(roots.tolist())
        (self.depth, self.dfs_order, self.dfs_lo, self.dfs_hi, self.leaf_lo, self.leaf_hi,
         self._child_counts, self._child_flat, self.levels) = _layout(self.ids, self.parent, roots)

        self.max_depth = len(self.levels) - 1
        self.is_leaf = self._child_counts == 0
        self.leaf_nodes = self.dfs_order[self.is_leaf[self.dfs_order]]
        self.leaf_ids = tuple(map(self.ids.__getitem__, self.leaf_nodes.tolist()))
        self.n_leaves = len(self.leaf_ids)
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
                    self._sum_slots, self._leaf_dfs, *self.levels):
            arr.setflags(write=False)
        self._set_measures(mu_leaf, nu_leaf)

    def _set_measures(self, mu_leaf, nu_leaf):
        masses = np.empty((2, self.n_leaves))
        masses[0] = self._checked_masses(mu_leaf, MU)
        masses[1] = self._checked_masses(nu_leaf, NU)
        with np.errstate(over="ignore"):
            sums = self._subtree_sums(masses)
        bad = ~np.isfinite(sums)  # finite atoms whose sum overflows
        if bad.any():
            k = int(np.argmax(bad.any(axis=0)))  # the first such cube in document order
            raise ModelError(f"{MU if bad[0, k] else NU} mass of cube {self.ids[k]!r} "
                             f"is not a finite number (its atoms' sum overflows)")
        masses.setflags(write=False)
        sums.setflags(write=False)
        self.mu_leaf, self.nu_leaf = masses
        self.mu_node, self.nu_node = sums

    def _checked_masses(self, values, what):
        """Validated masses in leaf order, from a sequence or a {leaf id: mass} map."""
        if isinstance(values, Mapping):
            values = leaf_values(self, values, what)
        return _checked_vector(self, values, f"{what} mass", nonneg=True)

    # -- structure ---------------------------------------------------------

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
    def children(self):
        """Each node's children as a tuple of node indices, in index order."""
        flat, ends = self._child_flat.tolist(), np.add.accumulate(self._child_counts).tolist()
        return tuple(tuple(flat[lo:hi]) for lo, hi in zip([0] + ends, ends))

    @cached_property
    def _families(self):
        """Child lists of the interior nodes, one column each, padded with n_nodes:
        row i holds every interior node's i-th child.  One scatter fills it."""
        lengths = self._child_counts[self._child_counts > 0]
        starts = lengths.cumsum() - lengths
        flat = self._child_flat
        column = np.arange(lengths.size).repeat(lengths)
        out = np.full((np.maximum.reduce(lengths, initial=0), lengths.size), self.n_nodes)
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
        slots = np.concatenate((self._sum_slots, [self.n_nodes]))[self._ancestors]
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
        return self.mu_node if self.leaf_masses(measure) is self.mu_leaf else self.nu_node

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
        one ``_dfs_sums`` gathered as the ancestor table, on the last two axes.

        The buffer is gathered laid out cells first, each ancestor copying one
        contiguous run of the rows: a batch of rows comes out in the (level,
        atom, row) memory order that fancy indexing gives, with the same
        values, but two to five times faster on two or three rows."""
        sums = self._dfs_sums(values)
        return np.ascontiguousarray(sums.T).take(self._ancestor_sums, axis=0).T.swapaxes(-1, -2)

    def subtree_totals(self, node_values):
        """Per-node sums of a node vector over each node's subtree, each on its own.

        The values must be finite numbers; the first that is not, such as an
        integer too large for a float or a string, is named."""
        return self._subtree_sums(_checked_vector(self, node_values, "value", per="node"))

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
            and np.array_equal(self.mu_leaf, other.mu_leaf)
            and np.array_equal(self.nu_leaf, other.nu_leaf)
        )

    def __repr__(self):
        mu = np.add.reduce(self.mu_node[list(self.roots)])  # the whole forest's
        return (
            f"DyadicModel(nodes={self.n_nodes}, leaves={self.n_leaves}, "
            f"depth={self.max_depth}, mu={mu:.6g})"
        )


def _check_p(p) -> float:
    """p as a float: a number (not a string or a boolean), finite and > 1 (a
    NaN is neither)."""
    value = _number(p)
    if not 1.0 < value < math.inf:
        raise ValueError(f"p must be a finite number > 1, got {p!r}")
    return value


def _check_q(q) -> float:
    """q as a float: a number (not a string or a boolean) in (1, inf]."""
    value = _number(q)
    if not value > 1.0:
        raise ValueError(f"q must be a number in (1, inf], got {q!r}")
    return value


def _check_pq(p, q) -> float:
    """p as a float, after checking p and q and that p <= q, the regime of the
    testing characterization."""
    p, q = _check_p(p), _check_q(q)
    if not p <= q:
        raise ValueError(f"need p <= q, got p={p}, q={q}")
    return p


# ---------------------------------------------------------------------------
# construction


def build_model(spec: Mapping) -> DyadicModel:
    """Build and validate a model from a tree description.

    ``spec`` follows the instance file schema::

        {"nodes": [{"id": ..., "parent": ... or None}, ...],
         "mu": {leaf id: mass}, "nu": {leaf id: mass}}

    The parent links alone give the tree: the model is built from them, and
    its children come in index order.  A record may also carry a
    ``children`` list, as files of earlier versions do; a present one must
    then list exactly the model's children of its node, in that order, or
    the first record whose list disagrees is named.  When no record has one,
    that check is skipped.  A cube may have a single child.
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
    index = _index(ids)
    parent_ids = [rec.get("parent") for rec in records]
    parents = _positions(index, parent_ids)  # -1: a root, or an unknown parent
    if "None" in index:  # a None link is a root's, not the node "None"'s
        parents[[pid is None for pid in parent_ids]] = -1
    for k in (parents < 0).nonzero()[0].tolist():
        if parent_ids[k] is not None:
            raise ModelError(f"orphan node {ids[k]!r}: unknown parent {str(parent_ids[k])!r}")

    declared = [rec.get("children") for rec in records]
    kinds = set(map(type, declared))
    if not kinds <= {list, tuple, type(None)}:
        k, got = next((k, c) for k, c in enumerate(declared)
                      if c is not None and type(c) not in (list, tuple))
        raise ModelError(f"children of {ids[k]!r} must be a list of ids, got {got!r}")

    model = DyadicModel(ids, parents, mu_map, nu_map, _id_index=index)
    if kinds == {type(None)}:  # no record lists its children
        return model
    # a declared child list must be the model's, entries compared as their str()
    for k, listed in enumerate(declared):
        if listed is not None and list(map(str, listed)) != [ids[j] for j in model.children[k]]:
            raise ModelError(f"children of {ids[k]!r} disagree with parent links")
    return model


def leaf_values(model: DyadicModel, values: Mapping, what: str) -> list:
    """The values of a map {leaf id: value}, in the model's leaf order.

    Every leaf needs a value and every key must be a leaf id; ``what`` names
    the map in the error.  The caller checks the values.
    """
    if not isinstance(values, Mapping):
        raise ModelError(f"{what} must map leaf ids to values, got {type(values).__name__}")
    if len(values) == model.n_leaves:
        try:
            return list(map(values.__getitem__, model.leaf_ids))
        except KeyError:
            pass
    nodes = _positions(model.index, list(values)).tolist()
    for key, k in zip(values, nodes):
        if k < 0:
            raise ModelError(f"{what} mass for unknown node {str(key)!r}")
        if not model.is_leaf[k]:
            raise ModelError(f"{what} mass assigned to non-leaf {str(key)!r}")
    by_node, leaves = dict(zip(nodes, values.values())), model.leaf_nodes.tolist()
    missing = next((k for k in leaves if k not in by_node), None)
    if missing is not None:
        raise ModelError(f"missing {what} mass for leaf {model.ids[missing]!r}")
    return list(map(by_node.__getitem__, leaves))


def as_leaf_function(model: DyadicModel, f, *, nonneg: bool = False) -> np.ndarray:
    """Validate a leaf-value vector against the model: one finite number per
    leaf, each >= 0 if ``nonneg``; the first bad leaf is named."""
    return _checked_vector(model, f, "function value", nonneg=nonneg)


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


# the smallest positive float.  For x >= 0, np.maximum(x, _TINY) is x where x > 0
# and _TINY where x is 0: one ufunc call gives a divisor that leaves every
# quotient by a positive x as it is and sends a 0 over a 0 of x to 0
_TINY = math.ulp(0.0)


def _lq_rows(T, q, axis=-1):
    """ell-q norms of T >= 0 along an axis, q in [1, inf].

    Each line is divided by its peak before the power, so no q-th power
    overflows or underflows (a line of zeros by ``_TINY``); q = inf gives the
    peak itself.  The ufuncs reduce directly, without the array methods'
    wrappers: this runs some thirty times per verified combination.
    """
    if q == math.inf:
        return np.maximum.reduce(T, axis=axis)
    peak = np.maximum.reduce(T, axis=axis, keepdims=True)
    R = T / np.maximum(peak, _TINY)
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
    The sums build up in the buffer of the terms (T_d / peak_d)^q, each product
    goes to the row of its shrink factor, which is then spent, and the peaks
    are scaled in place into the result: besides T, three tables of T's size.
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
    shrink = np.maximum(peak[1:], _TINY)  # the scales, then (peak_(d-1) / peak_d)^q
    acc = np.zeros(peak.shape)
    terms = np.divide(T, shrink, out=acc[1:])
    terms **= q
    np.divide(peak[:-1], shrink, out=shrink)
    shrink **= q
    for d in range(n):
        np.multiply(acc[d], shrink[d], out=shrink[d])
        np.add(shrink[d], acc[d + 1], out=acc[d + 1])
    acc **= 1.0 / q
    peak *= acc
    return peak.swapaxes(0, axis)


def _lq_groups(values, group, n, q):
    """ell-q norms of values >= 0 by group, values[i] in group[i] of range(n).

    An empty group gives 0.  Each value is divided by its group's peak
    before the power, as in :func:`_lq_rows`, in the buffer of the gathered
    peaks.
    """
    peak = np.zeros(n)
    np.maximum.at(peak, group, values)
    if q == math.inf:
        return peak
    scaled = np.maximum(peak, _TINY)[group]
    np.divide(values, scaled, out=scaled)
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
    value = _number(p)
    if not value >= 1.0:
        raise ValueError(f"p must be a number >= 1, got {p!r}")
    return float(_lp_rows(arr, model.leaf_masses(measure), value))


# ---------------------------------------------------------------------------
# random instances


@dataclass(frozen=True)
class RandomModelParams:
    """Shape and leaf masses of randomly generated models.

    ``leaf_prob`` lets interior nodes stop early so leaves sit at mixed
    depths; the masses are exponential, and ``zero_prob_*`` sparsify them.
    They are checked when they are made: integers, nonempty ranges, a root,
    probabilities in [0, 1].
    """

    depth_min: int = 1
    depth_max: int = 3
    branch_min: int = 2
    branch_max: int = 3
    roots: int = 1
    zero_prob_mu: float = 0.0
    zero_prob_nu: float = 0.0
    leaf_prob: float = 0.0

    def __post_init__(self):
        # any integer here: the range messages below name an empty range
        for name in ("depth_min", "depth_max", "branch_min", "branch_max", "roots"):
            object.__setattr__(self, name, _check_int(getattr(self, name), name, None))
        for name in ("zero_prob_mu", "zero_prob_nu", "leaf_prob"):
            object.__setattr__(self, name, _check_prob(getattr(self, name), name))
        if self.depth_min < 1 or self.depth_min > self.depth_max:
            raise ValueError(f"empty depth range [{self.depth_min}, {self.depth_max}]")
        if self.branch_min < 1 or self.branch_min > self.branch_max:
            raise ValueError(f"empty branching range [{self.branch_min}, {self.branch_max}]")
        if self.roots < 1:
            raise ValueError("need at least one root")


def _draw_masses(rng, n, zero_prob):
    """n exponential masses, each 0 with probability ``zero_prob``."""
    vals = rng.exponential(1.0, n)
    if zero_prob > 0:
        vals = np.where(rng.random(n) < zero_prob, 0.0, vals)
    return vals


def random_model(params: RandomModelParams, seed: int) -> DyadicModel:
    """Deterministic random forest for a given (params, seed) pair.

    Node k has id ``n{k}``.  The nodes are numbered breadth-first, root
    after root, from a first-in first-out frontier, so the model's child
    lists, which come in index order, keep the order in which the children
    were drawn.
    """
    rng = np.random.default_rng(seed)

    parents = []  # node k's parent index
    for _ in range(params.roots):
        target = int(rng.integers(params.depth_min, params.depth_max + 1))
        frontier = deque([(len(parents), 0)])
        parents.append(-1)
        while frontier:
            node, d = frontier.popleft()
            if d >= target:
                continue
            if d >= 1 and params.leaf_prob > 0 and rng.random() < params.leaf_prob:
                continue
            width = int(rng.integers(params.branch_min, params.branch_max + 1))
            for _ in range(width):
                frontier.append((len(parents), d + 1))
                parents.append(node)

    n_leaves = len(parents) - len(set(parents).difference([-1]))  # nodes no one's parent
    mu = _draw_masses(rng, n_leaves, params.zero_prob_mu)
    nu = _draw_masses(rng, n_leaves, params.zero_prob_nu)
    # masses are i.i.d., so they go straight into the model's own (DFS) leaf order
    ids = [f"n{k}" for k in range(len(parents))]
    return DyadicModel(ids, np.array(parents, dtype=np.int64), mu, nu)


# ---------------------------------------------------------------------------
# instance files


def model_to_dict(model: DyadicModel) -> dict:
    """The instance file schema of a model: one ``{"id", "parent"}`` record per
    node (``parent`` None for a root), in index order, and the leaf masses.

    The parent links are the whole tree, so no child lists are written;
    :func:`build_model` still reads and checks them in older files.
    """
    parents = [None if k < 0 else model.ids[k] for k in model.parent.tolist()]
    nodes = [{"id": nid, "parent": parent} for nid, parent in zip(model.ids, parents)]
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


def read_model(path) -> DyadicModel:
    """Load an instance file."""
    return _read_json(path, build_model)

"""The generalized maximal operator and its truncations.

For a family of nonnegative coefficient functions, one per cube, the
operator collects at every atom x the terms |integral of f over Q| * a_Q(x)
across all cubes Q containing x, and combines them in little-ell-q: a sum of
q-th powers for finite q, a sup for q = inf.  Cube truncation keeps only the
subcubes of a fixed Q; depth truncation discards the top levels of the
forest.

Every evaluation runs on two level-by-leaf tables of shape
(depth + 1) x atoms: the ancestor of every atom at every depth (n_nodes
below the atom), cached on the model for every family on the tree, and the
coefficient of that ancestor at the atom (0 below it), which a family builds
once from its entry arrays and caches.  One table of terms |I_R| * a_R(x),
the model's sums of f's leaf values along each atom's path times those
coefficients (``_level_terms``), serves the full operator on one function or
a batch, both truncations (a reduction over a range of levels), the testing
constant and the ratio of every cube indicator (running reductions along
each atom's path) and the proof chain's stopping blocks (a reduction over
each run of levels that one block owns).  The tables are level-major: a
tree has few levels and many atoms, so each level is one contiguous row of
atoms and every reduction along the paths is elementwise work across a few
rows, where an atom-major table would run one short inner loop per atom.
Every ell-q combination divides by its peak before the power, along an
axis, by groups or along a running prefix (``lattice._lq_rows``,
``_lq_groups``, ``_running_lq``).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from itertools import chain

import numpy as np

from .lattice import (MU, _TINY, DyadicModel, ModelError, _check_int, _check_nonneg, _check_prob,
                      _check_q, _float_array, _int_array, _lq_groups, _lq_rows, _number,
                      _positions, _read_json, _running_lq, _write_json, as_leaf_function)

__all__ = [
    "CoefficientFamily",
    "apply_maximal",
    "apply_truncated",
    "apply_depth_truncated",
    "classical_coefficients",
    "node_integrals",
    "read_coefficients",
    "write_coefficients",
]


class CoefficientFamily:
    """One nonnegative coefficient per cube: a scalar, or a value per atom.

    A scalar entry c means a_Q = c on every atom below Q; a vector entry
    resolves a_Q atom by atom (in the model's leaf order restricted to Q).
    Either way a_Q vanishes off Q, which the evaluation enforces by only
    writing to Q's leaf slice.

    The entries are stored as arrays: one scalar per node, and one flat
    read-only array holding every vector entry's values, node after node,
    with per-node offsets into it.  ``scalars[k]`` is node k's coefficient
    unless ``lengths[k] > 0``; then its coefficient is the next ``lengths[k]``
    of ``values``, which must be the cube's atom count.  Every number is read
    by ``lattice._float_array``'s rule, and every length must be an integer.
    All entries are checked at once, and ``ModelError`` names the earliest bad one.

    The coefficient table of ``_leaf_levels``, which depends on the entries
    alone, is built on first use and kept.
    """

    def __init__(self, model: DyadicModel, scalars, lengths=None, values=()):
        n = model.n_nodes
        scalars = _float_array(scalars, copy=True)
        if scalars.shape != (n,):
            raise ValueError(f"coefficient missing: {scalars.size} entries for {n} nodes")
        values = _float_array(values, copy=True)
        offsets = np.zeros(n + 1, dtype=np.int64)
        if lengths is not None:
            lengths = _int_array(lengths, model.ids, "length")
            if lengths.min() < 0:
                raise ValueError(f"need one length >= 0 per node, got {lengths!r}")
            np.cumsum(lengths, out=offsets[1:])
        if values.shape != (offsets[-1],):
            raise ValueError(f"{values.size} vector values for lengths summing to {offsets[-1]}")
        if values.size:
            vector = offsets[1:] > offsets[:-1]
            scalars[vector] = 0.0
            bad_length = vector & (lengths != model.leaf_hi - model.leaf_lo)
            entries = np.concatenate([scalars, values])
        else:
            bad_length, entries = None, scalars
        good = np.isfinite(entries) & (entries >= 0)
        if not np.logical_and.reduce(good) or (bad_length is not None
                                                and np.logical_or.reduce(bad_length)):
            self._raise_earliest(model, offsets, good)
        self.model = model
        self._scalars = scalars
        self._offsets = offsets
        self._values = values
        for arr in (scalars, offsets, values):
            arr.setflags(write=False)
        self._coef = None

    @staticmethod
    def _raise_earliest(model, offsets, good):
        """Name the earliest bad entry, a vector value with its leaf; a vector's
        length before its values."""
        n, width, lengths = model.n_nodes, model.leaf_hi - model.leaf_lo, np.diff(offsets)
        owner = np.concatenate([np.arange(n), np.repeat(np.arange(n), lengths)])
        bad_length = (lengths > 0) & (lengths != width)
        k_length = int(np.argmax(bad_length)) if bad_length.any() else n
        bad = (~good).nonzero()[0]
        j = int(bad[np.argmin(owner[bad])]) if bad.size else -1  # the earliest node's first
        if j < 0 or k_length <= owner[j]:
            raise ModelError(f"coefficient vector for {model.ids[k_length]!r} has shape "
                             f"({lengths[k_length]},), cube has {width[k_length]} atoms")
        k = int(owner[j])
        at = "" if j < n else f" at leaf {model.leaf_ids[model.leaf_lo[k] + j - n - offsets[k]]!r}"
        raise ModelError(f"coefficient for {model.ids[k]!r} must be finite >= 0{at}")

    def entry(self, k):
        """Coefficient of node index k: float or read-only vector over its leaf slice."""
        lo, hi = self._offsets[k], self._offsets[k + 1]
        return float(self._scalars[k]) if lo == hi else self._values[lo:hi]

    def _leaf_levels(self):
        """The read-only coefficient table, one row per depth, one column per leaf.

        coef[d, j] is the coefficient at leaf j of its ancestor at depth d (0
        below the leaf), built once per family from one gather of the scalars
        through the model's ancestor table and one scatter of the flat vector
        values.  It does not depend on the masses.  It is level-major, so every
        reduction along the paths runs across contiguous rows of atoms.
        """
        if self._coef is None:
            model = self.model
            coef = np.concatenate((self._scalars, [0.0]))[model._ancestors]
            if self._values.size:
                owner = np.arange(model.n_nodes).repeat(self._offsets[1:] - self._offsets[:-1])
                col = np.arange(self._values.size) + (model.leaf_lo - self._offsets[:-1])[owner]
                coef[model.depth[owner], col] = self._values
            coef.setflags(write=False)
            self._coef = coef
        return self._coef

    @classmethod
    def constant(cls, model: DyadicModel, value: float = 1.0) -> "CoefficientFamily":
        return cls(model, np.full(model.n_nodes, _check_nonneg(value, "constant coefficient")))

    @classmethod
    def from_mapping(cls, model: DyadicModel, mapping: Mapping) -> "CoefficientFamily":
        """Build from {node id: scalar or {leaf id: value}}; every node required.

        Atoms that a vector entry leaves out get 0, and every value is read by
        ``lattice._float_array``'s rule.  Keys that are not strings are looked
        up as their str().
        """
        if not isinstance(mapping, Mapping):
            raise ModelError("coefficients must map node ids to coefficients, "
                             f"got {type(mapping).__name__}")
        n = model.n_nodes
        keys = list(mapping)
        nodes = _positions(model.index, keys)
        unknown = nodes < 0
        if unknown.any():
            raise ModelError(f"coefficient for unknown node {keys[int(unknown.argmax())]!r}")
        slot = np.full(n, -1)  # each node's position in the mapping
        slot[nodes] = np.arange(len(keys))
        if np.logical_or.reduce(slot < 0):
            k = int(np.argmax(slot < 0))
            raise ValueError(f"coefficient missing for node {model.ids[k]!r}")
        values = list(mapping.values())
        # a vector entry reads as NaN, a dict by its type (so a file's scalars convert
        # in one call): the vector entries are the NaN scalars whose value is a map
        scalars = _float_array([math.nan if type(v) is dict else v for v in values])[slot]
        cubes = [k for k in np.isnan(scalars).nonzero()[0].tolist()
                 if isinstance(values[slot[k]], Mapping)]
        if not cubes:
            return cls(model, scalars)

        # every (atom, value) pair of the vector entries, cube by cube: cube k's
        # values start at `start` in the flat array, its atoms at leaf_lo[k]
        maps = [values[slot[k]] for k in cubes]
        count = np.fromiter(map(len, maps), np.int64, len(maps))
        atoms = list(chain.from_iterable(maps))
        entries = list(chain.from_iterable(m.values() for m in maps))
        lo = model.leaf_lo[cubes]
        width = model.leaf_hi[cubes] - lo
        start = np.cumsum(width) - width
        cube = np.repeat(cubes, count)
        node = _positions(model.index, atoms)
        leaf = np.where((node >= 0) & model.is_leaf[node], model.leaf_lo[node], -1)
        outside = (leaf < model.leaf_lo[cube]) | (leaf >= model.leaf_hi[cube])
        if outside.any():
            i = int(np.argmax(outside))
            raise ValueError(f"leaf {atoms[i]!r} is not an atom of cube {model.ids[cube[i]]!r}")
        lengths = np.zeros(n, dtype=np.int64)
        lengths[cubes] = width
        flat = np.zeros(int(width.sum()))
        flat[leaf + np.repeat(start - lo, count)] = _float_array(entries)
        return cls(model, scalars, lengths, flat)

    @classmethod
    def random(cls, model: DyadicModel, seed, *, vector_prob: float = 0.3,
               zero_prob: float = 0.1) -> "CoefficientFamily":
        """Random family: lognormal values, some vector-valued, some zeroed."""
        vector_prob = _check_prob(vector_prob, "vector_prob")
        zero_prob = _check_prob(zero_prob, "zero_prob")
        rng = np.random.default_rng(seed)
        scalars = [0.0] * model.n_nodes
        lengths = np.zeros(model.n_nodes, dtype=np.int64)
        vectors = [np.empty(0)]
        for k, width in enumerate((model.leaf_hi - model.leaf_lo).tolist()):
            if rng.random() < zero_prob:
                continue
            if width > 1 and rng.random() < vector_prob:
                vectors.append(rng.lognormal(0.0, 1.0, width))
                lengths[k] = width
            else:
                scalars[k] = rng.lognormal(0.0, 1.0)
        return cls(model, scalars, lengths, np.concatenate(vectors))

    def scaled(self, c: float) -> "CoefficientFamily":
        c = _check_nonneg(c, "scale factor")
        return CoefficientFamily(self.model, self._scalars * c, np.diff(self._offsets),
                                 self._values * c)

    def to_mapping(self) -> dict:
        model = self.model
        out = dict(zip(model.ids, self._scalars.tolist()))
        offsets, values = self._offsets.tolist(), self._values.tolist()
        for k in np.flatnonzero(np.diff(self._offsets)).tolist():
            lo = int(model.leaf_lo[k])
            out[model.ids[k]] = dict(zip(model.leaf_ids[lo:lo + offsets[k + 1] - offsets[k]],
                                         values[offsets[k]:offsets[k + 1]]))
        return out


def node_integrals(model: DyadicModel, F: np.ndarray, measure: str = MU) -> np.ndarray:
    """Integrals over every cube of a leaf function, or of a batch of them.

    F has shape (n_leaves,) or (m, n_leaves); the result has shape (n_nodes,)
    or (m, n_nodes).  Each cube's integral sums the cube's own atoms, so it is
    exact to rounding cube by cube; a row costs O(leaves * depth).
    """
    return model._subtree_sums(F * model.leaf_masses(measure))


def _check_tree(model: DyadicModel, a: CoefficientFamily):
    if a.model is not model:
        if a.model.ids != model.ids or not np.array_equal(a.model.parent, model.parent):
            raise ValueError("coefficient family was built for a different tree")


def _level_terms(model, a, rows):
    """The forward kernel: terms |I_R| * a_R(x), one row per depth of R, one
    column per atom x, from leaf rows to the table in one pass.

    ``rows`` holds per atom a function times the masses its integrals take
    (f * mu for the operator); a batch of rows, shape (m, leaves), gives one
    table per row, shape (m, depth+1, leaves): |``DyadicModel._path_sums``|
    times the coefficient table, 0 below each atom's own depth.
    """
    _check_tree(model, a)
    T = model._path_sums(rows)
    np.abs(T, out=T)
    T *= a._leaf_levels()
    return T


def _apply_levels(model, a, f, q, first_level=0, leaves=slice(None)):
    """The operator on f, or on a batch of rows, over the cubes at depth >= first_level."""
    T = _level_terms(model, a, f * model.mu_leaf)
    return _lq_rows(T[..., first_level:, leaves], q, axis=-2)


def _suffix_table(model: DyadicModel, a: CoefficientFamily, q) -> np.ndarray:
    """Read-only S: S[d, x] is the ell-q combination of the terms mu(R) * a_R(x)
    over the cubes R on atom x's path at depth >= d (0 below the atom).

    It is (M_Q 1_Q)(x) for the ancestor Q of x at depth d, which the testing
    constant and the cube indicators of the norm search both read.  Each
    suffix is rescaled by its own running peak, so none underflows against
    a larger term above it, even at q = 1e6.  S does not depend on p.
    """
    S = _running_lq(_level_terms(model, a, model.mu_leaf)[::-1], q, axis=0)[:0:-1]
    S.setflags(write=False)
    return S


def _indicator_norms(model: DyadicModel, a: CoefficientFamily, p, S) -> np.ndarray:
    """|M_Q 1_Q| in L^p(nu), for every cube Q, M_Q truncated to Q's subcubes.

    For f = 1_Q the integral over a subcube R of Q is mu(R), so (M_Q 1_Q)(x)
    is the ell-q combination of the terms mu(R) * a_R(x) from Q's depth down
    x's path: a suffix of x's column of S, the ``_suffix_table`` of (a, q).
    Weighted by nu(x)^(1/p), the suffixes of the atoms with nu(x) > 0 go to
    the ancestor at their depth through one grouped ell-p norm, rescaled by
    the cube's peak, so the powers stay finite at any p.
    """
    keep, node, weight = _weighted_cells(model, p)
    weight *= S[keep]
    return _lq_groups(weight, node, model.n_nodes, p)


def _weighted_cells(model: DyadicModel, p):
    """The cells of the ancestor table that hold a cube (no padding) above an
    atom of positive nu: their mask, their cubes and their atoms' nu(x)^(1/p),
    each in the mask's order."""
    anc = model._ancestors
    keep = (anc < model.n_nodes) & (model.nu_leaf > 0)
    # the weights are masked from a view that repeats them down the levels
    # (stride 0), built by the C constructor: no table of them is made, and on
    # the 9841-node ternary tree this is about four times faster than masking
    # a product with the mask or gathering by the kept cells' columns
    weight = model.nu_leaf ** (1.0 / p)
    rows = np.ndarray(anc.shape, buffer=weight, strides=(0,) + weight.strides)
    return keep, anc[keep], rows[keep]


def _indicator_ratios(model: DyadicModel, a: CoefficientFamily, p, q, S) -> np.ndarray:
    """|M 1_Q|_p,nu / mu(Q)^(1/p) for every cube Q, and -1 where mu(Q) = 0.

    For f = 1_Q, I_R is mu(R) on the subcubes R of Q, mu(Q) on Q's strict
    ancestors and 0 elsewhere.  So on Q, at depth d, M 1_Q is the ell-q norm of
    mu(Q) * P[., d], P the norm of the coefficients above d, and the suffix
    S[., d] of (a, q)'s ``_suffix_table`` S; on a sibling C' of a cube on Q's
    root path it is mu(Q) * P[., depth C'].  Each path cube's ell-p norm over
    its siblings of Y(C') = |P[., depth C']|_p,nu over C' joins running norms
    from both ends of the child list, not a total less the cube's own part,
    which would lose a small cube beside a big one.
    """
    n, fam, anc = model.n_nodes, model._families, model._ancestors
    keep, node, weight = _weighted_cells(model, p)
    P = _running_lq(a._leaf_levels(), q, axis=0)[:-1][keep]
    # np.array of equal-shaped arrays stacks them, without np.stack's Python layers
    on = _lq_rows(np.array((model.mu_node[node] * P, S[keep])), q, axis=0)
    on = _lq_groups(weight * on, node, n, p)
    Y = _lq_groups(weight * P, node, n + 1, p)[fam]  # the padding reads the spare slot's 0
    before, after = _running_lq(np.array((Y, Y[::-1])), p, axis=1)  # first and last i children
    beside = np.zeros(n + 1)
    beside[fam] = _lq_rows(np.array((before[:-1], after[-2::-1])), p, axis=0)
    path = np.empty(n + 1)  # the padding writes to the spare slot n
    path[anc] = _running_lq(beside[anc], p, axis=0)[1:]
    norms = _lq_rows(np.array((on, model.mu_node * path[:n])), p, axis=0)  # 0 on a null cube
    return np.where(model.mu_node > 0, norms / np.maximum(model.mu_node, _TINY) ** (1.0 / p),
                    -1.0)


def _apply_by_label(model: DyadicModel, a: CoefficientFamily, f, q, labels, first_level):
    """The operator on f over the cubes at depth >= first_level, and the same
    split into parts by a labelling of the cubes, from one table of terms.

    ``labels[k] >= 0`` puts cube k in that part and -1 leaves it out.  Along
    every atom's path a part must hold one contiguous run of depths, as a
    stopping block does.  Returns (Mf, leaf, label, values): Mf per atom, and
    for each atom x and each part b meeting x's path, the ell-q combination
    of |I_R| * a_R(x) over the cubes R of b that contain x.  The parts come
    atom by atom, and down each atom's path.  The table is dropped once the
    parts' terms are gathered, before their grouped norm.
    """
    T = _level_terms(model, a, f * model.mu_leaf)
    Mf = _lq_rows(T[first_level:], q, axis=0)
    lab = np.concatenate((np.asarray(labels, dtype=np.int64), [-1]))[model._ancestors]
    keep = lab >= 0
    new = keep.copy()  # where a part's run starts down an atom's path
    new[1:] &= lab[1:] != lab[:-1]
    # the starts atom by atom: flat positions in the atom-major copy of the mask
    leaf, level = np.divmod(new.T.ravel().nonzero()[0], len(new))
    label = lab[level, leaf]
    del lab
    # parts are numbered atom by atom, and down each atom's path: the running
    # count of the starts, added a row at a time (cumsum along axis 0 walks
    # the table column by column), plus the parts of the atoms before
    part = new.astype(np.int64)
    for d in range(1, len(part)):
        np.add(part[d - 1], part[d], out=part[d])
    count = part[-1].copy()
    part += count.cumsum() - count - 1
    group = part[keep]
    del part
    values = T[keep]
    del T
    return Mf, leaf, label, _lq_groups(values, group, leaf.size, q)


def apply_maximal(model: DyadicModel, a: CoefficientFamily, f, q) -> np.ndarray:
    """The full maximal operator on f (signed f allowed), one value per atom."""
    q = _check_q(q)
    return _apply_levels(model, a, as_leaf_function(model, f), q)


def apply_truncated(model: DyadicModel, a: CoefficientFamily, f, q, Q) -> np.ndarray:
    """The operator truncated to the subcubes of Q, one value per atom; zero off Q."""
    q = _check_q(q)
    f = as_leaf_function(model, f)
    k = model.node(Q)
    lo, hi = model.leaf_lo[k], model.leaf_hi[k]
    vals = np.zeros(model.n_leaves)
    vals[lo:hi] = _apply_levels(model, a, f, q, model.depth[k], slice(lo, hi))
    return vals


def apply_depth_truncated(model: DyadicModel, a: CoefficientFamily, f, q,
                          n_start: int) -> np.ndarray:
    """The operator over levels n_start and deeper, one value per atom.

    n_start = 0 recovers the full operator; each increment discards one more
    top level of the forest.
    """
    q = _check_q(q)
    f = as_leaf_function(model, f)
    return _apply_levels(model, a, f, q, _check_int(n_start, "n_start", 0, model.max_depth))


def classical_coefficients(model: DyadicModel, omega_leaf, alpha: float) -> CoefficientFamily:
    """Coefficients omega(Q)^(-alpha) of the classical weighted maximal operator.

    Cubes with omega(Q) = 0 get coefficient 0: they carry no mass and drop
    out of every estimate after the change of measure.
    """
    return CoefficientFamily(model, _classical_scalars(model, omega_leaf, alpha))


def _check_alpha(alpha) -> float:
    """alpha as a float, a number in (0, 1]: not a string, a boolean or None
    (JSON "0.5", true or null), nor a NaN."""
    value = _number(alpha)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"alpha must be a number in (0, 1], got {alpha!r}")
    return value


def _classical_scalars(model: DyadicModel, omega_leaf, alpha) -> np.ndarray:
    """The entries omega(Q)^(-alpha) of ``classical_coefficients``, one per node."""
    alpha = _check_alpha(alpha)
    omega_node = model._subtree_sums(model._checked_masses(omega_leaf, "omega"))
    with np.errstate(divide="ignore"):
        return np.where(omega_node > 0, omega_node ** -alpha, 0.0)


def write_coefficients(a: CoefficientFamily, path) -> None:
    _write_json(a.to_mapping(), path)


def read_coefficients(model: DyadicModel, path) -> CoefficientFamily:
    """Load a coefficient file; errors in its content raise ``ModelError`` naming it."""
    return _read_json(path, lambda mapping: CoefficientFamily.from_mapping(model, mapping))

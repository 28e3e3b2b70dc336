"""The generalized maximal operator and its truncations.

For a family of nonnegative coefficient functions, one per cube, the
operator collects at every atom x the terms |integral of f over Q| * a_Q(x)
across all cubes Q containing x, and combines them in little-ell-q: a sum of
q-th powers for finite q, a sup for q = inf.  Cube truncation keeps only the
subcubes of a fixed Q; depth truncation discards the top levels of the
forest.

Single-function evaluations run on two leaf-by-level tables that a
coefficient family builds once and caches: the ancestor of every atom at
every depth, and the coefficient of that ancestor at the atom.  One row of
terms |I_R| * a_R(x) per atom x, each integral summed from its cube's own
atoms, then serves the full operator and both truncations (a reduction over
a range of levels), the testing constant (a suffix reduction along each
atom's path, with f = 1_Q) and the stopping blocks of the proof chain (a
reduction over each run of levels that one block owns).  Every ell-q
combination divides by its peak before the power, by rows
(``lattice._lq_rows``) or by groups (``lattice._lq_groups``).  The batch
evaluation behind the operator-norm search runs on the same tables, a block
of rows at a time, since one gather over (rows, atoms, levels) would hold a
table per candidate.  On a 1093-node ternary tree, 1158 candidates at q = 4
took 0.17 s in blocks of 2^18 terms and 0.18 s in one piece; at q = inf
0.037 and 0.074 s (best of 7, 2-vCPU Xeon VM).
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .lattice import MU, DyadicModel, _lq_groups, _lq_rows, as_leaf_function

__all__ = [
    "CoefficientFamily",
    "MaximalOutput",
    "apply_maximal",
    "apply_truncated",
    "apply_depth_truncated",
    "classical_coefficients",
    "node_integrals",
    "read_coefficients",
    "write_coefficients",
]

# terms per block of a batch evaluation: 2 MB of floats, small enough to stay in cache
_BATCH_TERMS = 1 << 18


def _checked_vector(model, k, entry):
    """A read-only copy of a vector coefficient entry for node k, validated."""
    vec = np.asarray(entry, dtype=float)
    width = model.leaf_hi[k] - model.leaf_lo[k]
    if vec.shape != (width,):
        raise ValueError(
            f"coefficient vector for {model.ids[k]!r} has shape {vec.shape}, "
            f"cube has {width} atoms"
        )
    if not np.all(np.isfinite(vec)) or np.any(vec < 0):
        raise ValueError(f"coefficient for {model.ids[k]!r} must be finite >= 0")
    vec = vec.copy()
    vec.setflags(write=False)
    return vec


class CoefficientFamily:
    """One nonnegative coefficient per cube: a scalar, or a value per atom.

    A scalar entry c means a_Q = c on every atom below Q; a vector entry
    resolves a_Q atom by atom (in the model's leaf order restricted to Q).
    Either way a_Q vanishes off Q, which the evaluation enforces by only
    writing to Q's leaf slice.
    """

    def __init__(self, model: DyadicModel, entries: Sequence[Union[float, np.ndarray]]):
        if len(entries) != model.n_nodes:
            raise ValueError(
                f"coefficient missing: {len(entries)} entries for {model.n_nodes} nodes"
            )
        self.model = model
        checked = [float(e) if isinstance(e, float) or np.ndim(e) == 0 else e
                   for e in entries]
        scalars = np.array([e if isinstance(e, float) else 0.0 for e in checked])
        bad = np.flatnonzero(~(np.isfinite(scalars) & (scalars >= 0)))
        first_bad = int(bad[0]) if bad.size else len(checked)
        # vectors are checked in order up to the first bad scalar, so the
        # earliest offending entry is the one reported
        for k in range(first_bad):
            if not isinstance(checked[k], float):
                checked[k] = _checked_vector(model, k, checked[k])
        if bad.size:
            raise ValueError(f"coefficient for {model.ids[first_bad]!r} must be finite >= 0")
        self._entries = checked
        self._tables = None

    def entry(self, k):
        """Coefficient of node index k: float or vector over its leaf slice."""
        return self._entries[k]

    def _leaf_levels(self):
        """Cached read-only (anc, coef) tables, one row per leaf, one column per depth.

        anc[j, d] is the ancestor of leaf j at depth d (-1 below the leaf) and
        coef[j, d] its coefficient at that leaf (0 below the leaf).  Both
        depend on the tree shape and the entries only, never on the masses.
        """
        if self._tables is None:
            model = self.model
            anc = np.full((model.n_leaves, model.max_depth + 1), -1, dtype=np.int64)
            rows = np.arange(model.n_leaves)
            cur = model.leaf_nodes
            while rows.size:
                anc[rows, model.depth[cur]] = cur
                cur = model.parent[cur]
                rows, cur = rows[cur >= 0], cur[cur >= 0]
            # entries are floats or (read-only) vectors, as checked on construction
            scalars = np.array([e if isinstance(e, float) else 0.0 for e in self._entries]
                               + [0.0])
            coef = scalars[anc]
            for k, entry in enumerate(self._entries):
                if not isinstance(entry, float):
                    coef[model.leaf_lo[k]:model.leaf_hi[k], model.depth[k]] = entry
            anc.setflags(write=False)
            coef.setflags(write=False)
            self._tables = (anc, coef)
        return self._tables

    @classmethod
    def constant(cls, model: DyadicModel, value: float = 1.0) -> "CoefficientFamily":
        return cls(model, [float(value)] * model.n_nodes)

    @classmethod
    def from_scalars(cls, model: DyadicModel, scalars) -> "CoefficientFamily":
        return cls(model, list(np.asarray(scalars, dtype=float)))

    @classmethod
    def from_mapping(cls, model: DyadicModel, mapping: Mapping) -> "CoefficientFamily":
        """Build from {node id: scalar or {leaf id: value}}; every node required."""
        entries = [None] * model.n_nodes
        for key, val in mapping.items():
            k = model.node(str(key))
            if isinstance(val, Mapping):
                lo, hi = model.leaf_lo[k], model.leaf_hi[k]
                vec = np.zeros(hi - lo)
                for leaf_id, v in val.items():
                    j = model.leaf_index.get(str(leaf_id))
                    if j is None or not (lo <= j < hi):
                        raise ValueError(
                            f"leaf {leaf_id!r} is not an atom of cube {key!r}"
                        )
                    vec[j - lo] = float(v)
                entries[k] = vec
            else:
                entries[k] = float(val)
        for k, entry in enumerate(entries):
            if entry is None:
                raise ValueError(f"coefficient missing for node {model.ids[k]!r}")
        return cls(model, entries)

    @classmethod
    def random(cls, model: DyadicModel, seed, *, vector_prob: float = 0.3,
               zero_prob: float = 0.1) -> "CoefficientFamily":
        """Random family: lognormal values, some vector-valued, some zeroed."""
        rng = np.random.default_rng(seed)
        entries = []
        for k in range(model.n_nodes):
            width = int(model.leaf_hi[k] - model.leaf_lo[k])
            if rng.random() < zero_prob:
                entries.append(0.0)
            elif width > 1 and rng.random() < vector_prob:
                entries.append(rng.lognormal(0.0, 1.0, width))
            else:
                entries.append(float(rng.lognormal(0.0, 1.0)))
        return cls(model, entries)

    def scaled(self, c: float) -> "CoefficientFamily":
        if c < 0:
            raise ValueError("scale factor must be >= 0")
        return CoefficientFamily(self.model, [e * c for e in self._entries])

    def to_mapping(self) -> dict:
        out = {}
        for k, entry in enumerate(self._entries):
            if np.ndim(entry) == 0:
                out[self.model.ids[k]] = float(entry)
            else:
                lo = self.model.leaf_lo[k]
                out[self.model.ids[k]] = {
                    self.model.leaf_ids[lo + j]: float(v) for j, v in enumerate(entry)
                }
        return out


@dataclass
class MaximalOutput:
    """Operator values per atom, with the exponent and truncation applied."""

    values: np.ndarray
    q: float
    truncation: Optional[tuple] = None  # None | ("cube", id) | ("depth", N)


def _check_q(q):
    if q == math.inf:
        return math.inf
    q = float(q)
    if not q > 1.0:
        raise ValueError(f"q must be in (1, inf], got {q}")
    return q


def node_integrals(model: DyadicModel, F: np.ndarray, measure: str = MU) -> np.ndarray:
    """Integrals over every cube of a leaf function, or of a batch of them.

    F has shape (n_leaves,) or (m, n_leaves); the result has shape (n_nodes,)
    or (m, n_nodes).  Each cube's integral sums the cube's own atoms, so it is
    exact to rounding cube by cube; a row costs O(leaves * depth).
    """
    return model._subtree_sums(F * model.leaf_masses(measure))


def _check_tree(model: DyadicModel, a: CoefficientFamily):
    if a.model is not model:
        if a.model.ids != model.ids or a.model.children != model.children:
            raise ValueError("coefficient family was built for a different tree")


def _apply_batch(model, a, F, q):
    """Full operator on every row of a (m, n_leaves) batch of functions.

    Rows go through the leaf-by-level tables a block at a time, so that one
    block's terms hold about _BATCH_TERMS floats.
    """
    anc, _ = a._leaf_levels()
    rows = max(1, _BATCH_TERMS // anc.size)
    out = np.empty((F.shape[0], model.n_leaves))
    for s in range(0, F.shape[0], rows):
        ints = node_integrals(model, F[s:s + rows])
        out[s:s + rows] = _lq_rows(_level_terms(model, a, ints), q)
    return out


def _level_terms(model, a, integrals):
    """Terms |I_R| * a_R(x): one row per atom x, one column per depth of R.

    Entries below an atom's own depth are 0.  A batch of integrals, shape
    (m, n_nodes), gives one such table per function, shape (m, leaves, depth+1).
    """
    _check_tree(model, a)
    anc, coef = a._leaf_levels()
    pad = np.zeros(np.shape(integrals)[:-1] + (1,))
    return np.concatenate([np.abs(integrals), pad], axis=-1)[..., anc] * coef


def _apply_levels(model, a, f, q, first_level=0, leaves=slice(None)):
    """The operator on f over the cubes at depth >= first_level, on some atoms."""
    ints = node_integrals(model, f)
    return _lq_rows(_level_terms(model, a, ints)[leaves, first_level:], q)


def _indicator_norms(model: DyadicModel, a: CoefficientFamily, p, q) -> np.ndarray:
    """|M_Q 1_Q| in L^p(nu), for every cube Q, M_Q truncated to Q's subcubes.

    For f = 1_Q the integral over a subcube R of Q is mu(R), so (M_Q 1_Q)(x)
    is the ell-q combination of the terms mu(R) * a_R(x) from Q's depth down
    x's path: a suffix of x's row.  Each suffix is rescaled by its own peak,
    so no suffix underflows against a larger term above it, even at q = 1e6.
    Weighted by nu(x)^(1/p), the suffixes of the atoms with nu(x) > 0 go to
    the ancestor at their depth through one grouped ell-p norm, rescaled by
    the cube's peak, so the powers stay finite at any p.
    """
    T = _level_terms(model, a, model.mu_node)
    if q == math.inf:
        S = np.maximum.accumulate(T[:, ::-1], axis=1)[:, ::-1]
    else:
        S = np.empty_like(T)
        peak = np.zeros(T.shape[0])
        acc = np.zeros(T.shape[0])
        for d in range(T.shape[1] - 1, -1, -1):
            t = T[:, d]
            new_peak = np.maximum(peak, t)
            scale = np.where(new_peak > 0, new_peak, 1.0)
            acc = acc * (peak / scale) ** q + (t / scale) ** q
            peak = new_peak
            S[:, d] = peak * acc ** (1.0 / q)
    anc, _ = a._leaf_levels()
    keep = (anc >= 0) & (model.nu_leaf[:, None] > 0)
    weight = np.broadcast_to(model.nu_leaf[:, None] ** (1.0 / p), anc.shape)
    return _lq_groups(weight[keep] * S[keep], anc[keep], model.n_nodes, p)


def _apply_by_label(model: DyadicModel, a: CoefficientFamily, f, q, labels):
    """The operator on f split into parts by a labelling of the cubes.

    ``labels[k] >= 0`` puts cube k in that part and -1 leaves it out.  Along
    every atom's path a part must hold one contiguous run of depths, as a
    stopping block does.  Returns (leaf, label, values): for each atom x and
    each part b meeting x's path, the ell-q combination of |I_R| * a_R(x)
    over the cubes R of b that contain x.
    """
    T = _level_terms(model, a, node_integrals(model, f))
    anc, _ = a._leaf_levels()
    lab = np.append(np.asarray(labels, dtype=np.int64), -1)[anc]
    keep = lab >= 0
    leaf = np.broadcast_to(np.arange(model.n_leaves)[:, None], anc.shape)[keep]
    lab = lab[keep]
    new = np.ones(lab.size, dtype=bool)
    new[1:] = (lab[1:] != lab[:-1]) | (leaf[1:] != leaf[:-1])
    starts = np.flatnonzero(new)
    return leaf[starts], lab[starts], _lq_groups(T[keep], np.cumsum(new) - 1, starts.size, q)


def apply_maximal(model: DyadicModel, a: CoefficientFamily, f, q) -> MaximalOutput:
    """Evaluate the full maximal operator on f (signed f allowed)."""
    q = _check_q(q)
    f = as_leaf_function(model, f)
    return MaximalOutput(values=_apply_levels(model, a, f, q), q=q, truncation=None)


def apply_truncated(model: DyadicModel, a: CoefficientFamily, f, q, Q) -> MaximalOutput:
    """Evaluate the operator truncated to the subcubes of Q; zero off Q."""
    q = _check_q(q)
    f = as_leaf_function(model, f)
    k = model.node(Q)
    lo, hi = model.leaf_lo[k], model.leaf_hi[k]
    vals = np.zeros(model.n_leaves)
    vals[lo:hi] = _apply_levels(model, a, f, q, model.depth[k], slice(lo, hi))
    return MaximalOutput(values=vals, q=q, truncation=("cube", model.ids[k]))


def apply_depth_truncated(model: DyadicModel, a: CoefficientFamily, f, q,
                          n_start: int) -> MaximalOutput:
    """Evaluate the operator over levels n_start and deeper.

    n_start = 0 recovers the full operator; each increment discards one more
    top level of the forest.
    """
    q = _check_q(q)
    f = as_leaf_function(model, f)
    if not (0 <= n_start <= model.max_depth):
        raise ValueError(
            f"n_start must be in [0, {model.max_depth}], got {n_start}"
        )
    vals = _apply_levels(model, a, f, q, n_start)
    return MaximalOutput(values=vals, q=q, truncation=("depth", int(n_start)))


def classical_coefficients(model: DyadicModel, omega_leaf, alpha: float) -> CoefficientFamily:
    """Coefficients omega(Q)^(-alpha) of the classical weighted maximal operator.

    Cubes with omega(Q) = 0 get coefficient 0: they carry no mass and drop
    out of every estimate after the change of measure.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    omega_node = model.subtree_sums(omega_leaf)
    if np.any(np.asarray(omega_leaf) < 0):
        raise ValueError("omega masses must be >= 0")
    with np.errstate(divide="ignore"):
        scalars = np.where(omega_node > 0, omega_node ** (-float(alpha)), 0.0)
    return CoefficientFamily.from_scalars(model, scalars)


def write_coefficients(a: CoefficientFamily, path) -> None:
    Path(path).write_text(json.dumps(a.to_mapping(), indent=2) + "\n")


def read_coefficients(model: DyadicModel, path) -> CoefficientFamily:
    return CoefficientFamily.from_mapping(model, json.loads(Path(path).read_text()))

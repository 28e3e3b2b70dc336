"""Stopping-cube decompositions and the Carleson embedding inequality.

Fixing r > 1 and a nonnegative f, the stopping children of a cube are its
maximal positive-mass descendants whose mu-average of f is at least r times
the cube's own average.  Iterating from the forest roots produces
generations of stopping cubes whose blocks partition the lattice; the block
averages are controlled, the stopping family packs like r/(r-1), and feeding
its masses into the Carleson embedding inequality yields the sufficiency
bound that the proof-chain trace walks end to end.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Optional

import numpy as np

from .lattice import (MU, _TINY, DyadicModel, ModelError, _check_int, _check_p, _check_pq,
                      _checked_vector, _lp_rows, _lq_groups, _lq_rows, _number, _positions,
                      as_leaf_function)
from .maximal import CoefficientFamily, _apply_by_label, _level_terms, node_integrals
from .constants import (VerificationError, _check_rtol, holder_conjugate, testing_constant,
                        theorem_constant)

__all__ = [
    "StoppingDecomposition",
    "CarlesonSequence",
    "PackingReport",
    "CarlesonReport",
    "ProofTrace",
    "LinkCheck",
    "default_r",
    "stopping_children",
    "build_decomposition",
    "decomposition_to_dict",
    "partition_ok",
    "verify_packing",
    "carleson_embedding_check",
    "stopping_weights",
    "proof_trace",
]


def default_r(p: float) -> float:
    """The stopping ratio minimizing the final constant: (p + 1) / p, for
    finite p > 1."""
    p = _check_p(p)
    return (p + 1.0) / p


def _check_r(r) -> float:
    """The stopping ratio as a float: a number (not a string or a boolean),
    finite and > 1."""
    value = _number(r)
    if not 1.0 < value < math.inf:
        raise ValueError(f"stopping ratio r must be a finite number > 1, got {r!r}")
    return value


def _check_model(model, other, what):
    """``other``, the model an argument was built for, must be ``model`` or equal it."""
    if other is not model and other != model:
        raise ValueError(f"{what} was built for a different model")


def _held(lhs, rhs, p, rtol):
    """lhs^p <= rhs^p (1 + rtol) for norms, elementwise; inf or NaN never holds."""
    return (lhs < math.inf) & (rhs < math.inf) & (lhs <= rhs * (1.0 + rtol) ** (1.0 / p))


def _node_averages(model, f):
    """mu-averages of f on every node, 0 on null cubes by convention."""
    ints = node_integrals(model, f, MU)  # 0 on a null cube, so its quotient is too (see _TINY)
    return np.where(model.mu_node > 0, ints / np.maximum(model.mu_node, _TINY), 0.0)


@dataclass
class StoppingDecomposition:
    """The stopping cubes of (f, r) and their blocks, as two node arrays.

    ``owner_index[k]`` is node k's block owner, its nearest stopping
    ancestor-or-self (-1 above depth ``n_start``); the stopping cubes own
    themselves, and the first generation is the cubes at depth ``n_start``.
    ``stopping_parent[k]`` is the stopping cube whose stopping child k is (-1
    for the first generation and non-stopping nodes); ``generation[k]`` counts
    the stopping cubes on k's path below depth ``n_start``.  ``averages``
    holds the mu-averages of f; ``generations``, ``stopping`` and ``blocks``
    are views.  :func:`build_decomposition` makes its arrays read-only:
    ``generation`` and ``in_stopping`` describe the owners it was built with.
    """

    model: DyadicModel
    f: np.ndarray
    r: float
    n_start: int
    averages: np.ndarray = field(repr=False)
    owner_index: np.ndarray = field(repr=False)
    stopping_parent: np.ndarray = field(repr=False)
    generation: np.ndarray = field(repr=False)

    @cached_property
    def in_stopping(self) -> np.ndarray:
        return self.owner_index == np.arange(self.model.n_nodes)

    @cached_property
    def stopping_mass(self) -> np.ndarray:
        """Per node, the mu mass of the stopping cubes in its subtree, read-only:
        the packing check and the Carleson weights share one sum."""
        model = self.model
        subtotal = model.subtree_totals(model.mu_node * self.in_stopping)
        subtotal.setflags(write=False)
        return subtotal

    def _by_generation(self):
        """Stopping-cube indices by generation, DFS order within one; their generations."""
        order = self.model.dfs_order
        nodes = order[self.in_stopping[order]]
        nodes = nodes[self.generation[nodes].argsort(kind="stable")]
        return nodes, self.generation[nodes]

    @property
    def stopping(self) -> list:
        """Stopping-cube ids, generation by generation, DFS order within one."""
        return [self.model.ids[k] for k in self._by_generation()[0]]

    @property
    def generations(self) -> list:
        """Stopping-cube ids per generation, in document order."""
        nodes, gen = self._by_generation()
        return [[self.model.ids[k] for k in np.sort(nodes[gen == g])] for g in range(gen[-1] + 1)]

    @property
    def blocks(self) -> dict:
        """Owner id -> member ids, both in DFS order."""
        model, out = self.model, {}
        for k in model.dfs_order[self.owner_index[model.dfs_order] >= 0]:
            out.setdefault(model.ids[self.owner_index[k]], []).append(model.ids[k])
        return out


def build_decomposition(model: DyadicModel, f, r, *, n_start: int = 0) -> StoppingDecomposition:
    """The stopping decomposition of (f, r) in one pass over the levels.

    The cubes at depth ``n_start`` own themselves.  Going down one level at a
    time, a node with owner o (its parent's owner) is a stopping cube iff it
    has positive mass, avg(o) > 0 and avg(node) >= r * avg(o); it then owns
    itself and o is its stopping parent, and otherwise it joins o's block.
    """
    r = _check_r(r)
    f = as_leaf_function(model, f, nonneg=True)
    n_start = _check_int(n_start, "n_start", 0, model.max_depth)

    averages = _node_averages(model, f)
    owner, stopping_parent = np.full((2, model.n_nodes), -1, dtype=np.int64)
    generation = np.zeros(model.n_nodes, dtype=np.int64)
    positive = model.mu_node > 0
    first = model.levels[n_start]
    owner[first] = first
    for nodes in model.levels[n_start + 1:]:
        up = model.parent[nodes]
        o = owner[up]
        avg_o = averages[o]
        stops = positive[nodes] & (avg_o > 0) & (averages[nodes] >= r * avg_o)
        new = nodes[stops]
        stopping_parent[new] = o[stops]
        o[stops] = new
        owner[nodes] = o
        generation[nodes] = generation[up] + stops
    for arr in (averages, owner, stopping_parent, generation):
        arr.setflags(write=False)

    return StoppingDecomposition(
        model=model, f=f, r=r, n_start=n_start, averages=averages,
        owner_index=owner, stopping_parent=stopping_parent, generation=generation,
    )


def stopping_children(model: DyadicModel, f, Q, r) -> list:
    """Maximal strict descendants of Q whose average jumps by the factor r.

    They are read off the decomposition whose first generation is Q's depth
    (:func:`build_decomposition`): the nodes whose stopping parent is Q.
    Only positive-mass descendants qualify, ties with r * avg(Q) stop, and a
    null cube or one with zero average has none.  Returns node ids in
    document order.
    """
    k = model.node(Q)
    decomp = build_decomposition(model, f, r, n_start=int(model.depth[k]))
    return [model.ids[c] for c in (decomp.stopping_parent == k).nonzero()[0].tolist()]


def decomposition_to_dict(decomp: StoppingDecomposition) -> dict:
    """Audit dump: generations by id, blocks as owner -> members."""
    return {
        "r": decomp.r,
        "n_start": decomp.n_start,
        "measure": MU,
        "generations": decomp.generations,
        "blocks": decomp.blocks,
    }


def partition_ok(decomp: StoppingDecomposition) -> bool:
    """The owner array partitions the nodes at depth >= n_start into blocks.

    Every such node has an owner, no node above n_start has one, and each
    owner owns itself and is an ancestor-or-self of its members (by DFS
    interval).
    """
    model, owner = decomp.model, np.asarray(decomp.owner_index)
    scope = model.depth >= decomp.n_start
    if owner.shape != scope.shape or np.logical_or.reduce(owner[~scope] != -1):
        return False
    o, pos = owner[scope], model.dfs_lo[scope]
    if np.logical_or.reduce((o < 0) | (o >= model.n_nodes)):
        return False
    return bool(np.logical_and.reduce(
        (owner[o] == o) & (model.dfs_lo[o] <= pos) & (pos < model.dfs_hi[o])))


@dataclass
class PackingReport:
    """Cumulative and per-generation mass packing of a stopping family.

    ``ratios`` holds, for the positive-mass ``nodes`` of ``model``, the
    stopping mass below each node over its mu.  The maps ``ratio`` (node id
    -> ratio) and ``slack`` (node id -> bound - ratio) are built from them on
    first access: a check that reads neither pays for no dict.
    """

    bound: float                     # r / (r - 1)
    worst_ratio: float
    worst_node: Optional[str]
    generation_bound_ok: bool        # sum over G*(Q) of mu <= mu(Q)/r for all Q in G
    generation_worst: float          # max of r * sum(G*(Q)) / mu(Q)
    model: DyadicModel = field(repr=False, compare=False)
    nodes: np.ndarray = field(repr=False, compare=False)
    ratios: np.ndarray = field(repr=False, compare=False)
    ok: bool = True

    @cached_property
    def ratio(self) -> dict:
        """Node id -> subtree stopping mass / mu, over the positive-mass nodes."""
        return dict(zip(map(self.model.ids.__getitem__, self.nodes.tolist()),
                        self.ratios.tolist()))

    @cached_property
    def slack(self) -> dict:
        """Node id -> bound - ratio, over the positive-mass nodes."""
        return dict(zip(self.ratio, (self.bound - self.ratios).tolist()))


def verify_packing(model: DyadicModel, decomp: StoppingDecomposition) -> PackingReport:
    """Check the mass of stopping cubes under every node against r/(r-1).

    Violations are reported, never raised: the bound is a consequence of the
    construction, so a violation flags an implementation bug.  A
    decomposition built for another model raises ``ValueError``.
    """
    _check_model(model, decomp.model, "decomposition")
    r = decomp.r
    bound = r / (r - 1.0)
    subtotal = decomp.stopping_mass

    pos = (model.mu_node > 0).nonzero()[0]
    rk = subtotal[pos] / model.mu_node[pos]
    # the first maximum above 0; a NaN ratio stays and wins, so the check fails
    above = np.maximum(rk, 0.0)
    i = int(above.argmax()) if np.logical_or.reduce(above != 0) else -1
    worst, worst_node = (float(above[i]), model.ids[pos[i]]) if i >= 0 else (0.0, None)

    # one-generation condition: each stopping parent's children pack below mu(Q)/r
    kids = (decomp.stopping_parent >= 0).nonzero()[0]
    mass = np.bincount(decomp.stopping_parent[kids], weights=model.mu_node[kids],
                       minlength=model.n_nodes)
    parents = decomp.in_stopping & (model.mu_node > 0)
    mass, mu_par = mass[parents], model.mu_node[parents]
    gen_worst = float(np.maximum.reduce(r * mass / mu_par, initial=0.0))
    gen_ok = bool(np.logical_and.reduce(mass <= mu_par / r * (1 + 1e-9)))

    return PackingReport(
        bound=bound, worst_ratio=worst, worst_node=worst_node,
        generation_bound_ok=gen_ok, generation_worst=gen_worst,
        ok=(worst <= bound * (1 + 1e-9)) and gen_ok,
        model=model, nodes=pos, ratios=rk,
    )


@dataclass
class CarlesonSequence:
    """Nonnegative cube weights with their computed packing constant."""

    model: DyadicModel
    weights: np.ndarray          # per node, document order
    packing_constant: float

    @classmethod
    def from_weights(cls, model: DyadicModel, weights) -> "CarlesonSequence":
        """One finite weight >= 0 per node, or ``ModelError`` names the first bad node."""
        w = _checked_vector(model, weights, "Carleson weight", per="node", nonneg=True)
        return cls(model=model, weights=w,
                   packing_constant=_packing_constant(model, model.subtree_totals(w)))

    @classmethod
    def from_mapping(cls, model: DyadicModel, mapping) -> "CarlesonSequence":
        """Build from {node id: weight}, absent nodes weighing 0; an unknown id
        or a weight that is not a finite number >= 0 is named."""
        if not isinstance(mapping, Mapping):
            raise ModelError("Carleson weights must map node ids to weights, "
                             f"got {type(mapping).__name__}")
        keys = list(mapping)
        nodes = _positions(model.index, keys).tolist()
        if -1 in nodes:
            raise ModelError(f"Carleson weight for unknown node {keys[nodes.index(-1)]!r}")
        by_node = dict(zip(nodes, mapping.values()))
        return cls.from_weights(model, list(map(by_node.get, range(model.n_nodes), repeat(0.0))))

    def as_mapping(self) -> dict:
        return {self.model.ids[k]: float(v)
                for k, v in enumerate(self.weights) if v != 0.0}


def _packing_constant(model, subtotal) -> float:
    """The largest weight below a positive-mass cube over its mu, from the
    weights' ``subtree_totals``; 0 when no cube has mass."""
    pos = model.mu_node > 0
    return float(np.maximum.reduce(subtotal[pos] / model.mu_node[pos], initial=0.0))


def stopping_weights(decomp: StoppingDecomposition) -> CarlesonSequence:
    """mu(Q) on the stopping cubes, 0 elsewhere; packs within r/(r-1).  Finite
    and >= 0 by construction, they skip ``from_weights``'s checks."""
    model = decomp.model
    return CarlesonSequence(model=model, weights=model.mu_node * decomp.in_stopping,
                            packing_constant=_packing_constant(model, decomp.stopping_mass))


@dataclass
class CarlesonReport:
    """One evaluation of the embedding inequality, as norms, with its slack."""

    lhs: float                   # (sum_Q (avg_Q f)^p w_Q)^(1/p)
    bound: float                 # p' A^(1/p) |f|_p,mu
    packing_constant: float
    p: float
    slack: float
    ok: bool


def carleson_embedding_check(model: DyadicModel, w: CarlesonSequence, f, p,
                             *, rtol: float = 1e-9) -> CarlesonReport:
    """Test (sum_Q (avg_Q f)^p w_Q)^(1/p) <= p' * A^(1/p) * |f|_p for the sequence.

    ``rtol``, a finite number >= 0, is relative to the p-th powers, and a
    non-finite side fails.  A failure is reported, not raised; the inequality
    is a theorem for any sequence with a finite packing constant A.  A
    sequence built for another model raises ``ValueError``.
    """
    _check_model(model, w.model, "Carleson sequence")
    p = _check_p(p)
    rtol = _check_rtol(rtol)
    if w.packing_constant < 0:
        raise ValueError(f"packing constant must be >= 0, got {w.packing_constant}")
    f = as_leaf_function(model, f, nonneg=True)
    lhs = float(_lp_rows(_node_averages(model, f), w.weights, p))
    bound = (holder_conjugate(p) * w.packing_constant ** (1.0 / p)
             * float(_lp_rows(f, model.mu_leaf, p)))
    return CarlesonReport(
        lhs=lhs, bound=bound, packing_constant=w.packing_constant, p=p,
        slack=bound - lhs, ok=bool(_held(lhs, bound, p, rtol)),
    )


@dataclass
class LinkCheck:
    name: str
    lhs: float
    rhs: float
    ok: bool

    @property
    def slack(self):
        return self.rhs - self.lhs


@dataclass
class BlockRecord:
    owner: str
    norm: float          # |F_Q|_p,nu
    bound: float         # r B avg_Q(f) mu(Q)^(1/p)
    average: float


@dataclass
class ProofTrace:
    """Every intermediate quantity of the sufficiency chain, checked in order.

    Every link compares norms, finite at any p, and holds iff lhs^p <= rhs^p
    (1 + rtol) with both sides finite.  With N = |M_n f|_p,nu, in order:
      lq_to_lp:    N  <=  (sum |F_Q|^p)^(1/p)                  (q >= p)
      block_bound: each |F_Q| <= r B avg_Q(f) mu(Q)^(1/p)
      carleson:    (sum avg_Q(f)^p mu(Q))^(1/p) <= (r/(r-1))^(1/p) p' |f|
      final:       N <= r^((p+1)/p) (r-1)^(-1/p) p' B |f|
      optimal_r:   at r = (p+1)/p the final constant is C(p) B

    The per-block figures stay arrays over the stopping cubes; ``blocks``,
    one :class:`BlockRecord` per stopping cube, is built from them on first
    access, so a caller that reads only the links builds no record.  Not
    being fields, neither is in ``dataclasses.astuple`` or ``==``.
    """

    decomposition: StoppingDecomposition
    p: float
    q: float
    r: float
    B: float
    lhs: float                  # N ** p, inf where it overflows; no link reads it
    est1: float                 # (sum over blocks of |F_Q|^p)^(1/p)
    carleson_lhs: float
    carleson_bound: float
    final_bound: float
    optimal_bound: Optional[float]
    reconstruction_rel_error: float
    average_control_excess: float   # max over blocks of avg_R / (r avg_Q) - 1
    links: list
    block_arrays: InitVar[tuple]    # (cubes, norms, bounds, averages), one entry per block

    def __post_init__(self, block_arrays):
        self._block_arrays = block_arrays

    @cached_property
    def blocks(self) -> list:
        """BlockRecord per stopping cube, generation by generation, DFS order within one."""
        ids = self.decomposition.model.ids
        return [BlockRecord(owner=ids[k], norm=n, bound=b, average=avg)
                for k, n, b, avg in zip(*(arr.tolist() for arr in self._block_arrays))]

    @property
    def ok(self):
        return all(link.ok for link in self.links)

    def failed_links(self):
        return [link.name for link in self.links if not link.ok]


def proof_trace(model: DyadicModel, a: CoefficientFamily, f, p, q, r=None,
                n_start: int = 0, *, B: Optional[float] = None,
                decomp: Optional[StoppingDecomposition] = None,
                rtol: float = 1e-9, strict: bool = True) -> ProofTrace:
    """Numerically walk the sufficiency argument on one instance.

    ``B`` and ``decomp`` let a caller that already has the testing constant
    or the stopping decomposition of (f, r, n_start) pass it in; one built
    for another f, r or n_start, or for a model unequal to ``model``, is
    rejected.
    Any failed link raises :class:`VerificationError` naming the link
    (``strict=False`` returns the trace instead); the chain is a theorem, so
    failures indicate bugs, not bad inputs.  Bad inputs, such as an rtol that
    is not a finite number >= 0, raise ``ValueError``.
    """
    p = _check_pq(p, q)
    rtol = _check_rtol(rtol)
    f = as_leaf_function(model, f, nonneg=True)
    n_start = _check_int(n_start, "n_start", 0, model.max_depth)
    r = default_r(p) if r is None else _check_r(r)
    if decomp is None:
        decomp = build_decomposition(model, f, r, n_start=n_start)
    else:
        _check_model(model, decomp.model, "decomposition")
        if (decomp.r != r or decomp.n_start != n_start or decomp.f.shape != f.shape
                or not np.logical_and.reduce(decomp.f == f)):
            raise ValueError("decomposition was built for a different f, r or n_start")
    if B is None:
        B, _ = testing_constant(model, a, p, q)

    averages = decomp.averages

    # one table of terms |I_R| a_R(x) serves the depth-truncated operator and its blocks
    T = _level_terms(model, a, f * model.mu_leaf)
    lhs_vals = _lq_rows(T[n_start:], q, axis=0)
    norm_Mf = float(_lp_rows(lhs_vals, model.nu_leaf, p))

    # F_Q per (atom, block): each (atom, cube) pair lies in exactly one block
    leaf, owner, F = _apply_by_label(model, T, q, decomp.owner_index)
    stop, _ = decomp._by_generation()
    norms = _lq_groups(model.nu_leaf[leaf] ** (1.0 / p) * F, owner, model.n_nodes, p)[stop]
    avg_stop, mu_stop = averages[stop], model.mu_node[stop]
    bounds = r * avg_stop * B * mu_stop ** (1.0 / p)
    est1, carleson_lhs = float(_lq_rows(norms, p)), float(_lp_rows(avg_stop, mu_stop, p))
    block_fine = _held(norms, bounds, p, rtol)
    block_ok = bool(np.logical_and.reduce(block_fine))

    # the blocks' ell-q combination must give back the operator
    recon = _lq_groups(F, leaf, model.n_leaves, q)
    scale = max(np.maximum.reduce(np.abs(lhs_vals)), 1e-300)
    recon_err = float(np.maximum.reduce(np.abs(recon - lhs_vals)) / scale)

    # average control over the block members, weak inequality convention
    members = (decomp.owner_index >= 0) & (model.mu_node > 0)
    avg_m = averages[members]
    denom = r * averages[decomp.owner_index[members]]
    # a positive average over a 0 one is unbounded; the ufuncs divide where denom > 0 only
    excess = np.where(avg_m > 0, math.inf, -math.inf)
    fine = denom > 0
    np.divide(avg_m, denom, out=excess, where=fine)
    np.subtract(excess, 1.0, out=excess, where=fine)
    avg_excess = float(np.maximum.reduce(excess, initial=-math.inf))

    norm_f = float(_lp_rows(f, model.mu_leaf, p))
    pc = holder_conjugate(p)
    carleson_bound = (r / (r - 1.0)) ** (1.0 / p) * pc * norm_f
    final_bound = r ** ((p + 1.0) / p) * (r - 1.0) ** (-1.0 / p) * pc * B * norm_f
    at_optimal = math.isclose(r, default_r(p), rel_tol=1e-12)
    optimal_bound = theorem_constant(p) * B * norm_f if at_optimal else None

    def link(name, lhs, rhs):
        return LinkCheck(name, lhs, rhs, bool(_held(lhs, rhs, p, rtol)))

    links = [
        link("lq_to_lp", norm_Mf, est1),
        LinkCheck("block_bound", float(np.maximum.reduce(norms, initial=0.0)),
                  float(np.maximum.reduce(bounds, initial=0.0)), block_ok),
        link("carleson", carleson_lhs, carleson_bound),
        link("final", norm_Mf, final_bound),
    ]
    if optimal_bound is not None:
        links.append(link("optimal_r", norm_Mf, optimal_bound))

    try:
        lhs = norm_Mf ** p
    except OverflowError:  # a float's power raises where numpy's would give inf
        lhs = math.inf
    trace = ProofTrace(
        decomposition=decomp, p=p, q=q, r=r, B=B, lhs=lhs, est1=est1,
        carleson_lhs=carleson_lhs, carleson_bound=carleson_bound,
        final_bound=final_bound, optimal_bound=optimal_bound,
        reconstruction_rel_error=recon_err,
        average_control_excess=avg_excess if avg_excess > -math.inf else 0.0,
        links=links, block_arrays=(stop, norms, bounds, avg_stop),
    )
    if strict and not trace.ok:
        name = trace.failed_links()[0]
        # the last block that fails its bound
        detail = (f" (block {model.ids[stop[(~block_fine).nonzero()[0][-1]]]})"
                  if name == "block_bound" else "")
        raise VerificationError(f"proof chain link failed: {name}{detail}", trace)
    return trace

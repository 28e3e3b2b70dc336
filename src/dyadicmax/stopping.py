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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .lattice import (MU, DyadicModel, Exponents, ModelError, _is_number, _lp_rows,
                      _lq_groups, _lq_rows, as_leaf_function)
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
    """The stopping ratio minimizing the final constant: (p + 1) / p."""
    return (float(p) + 1.0) / float(p)


def _check_r(r):
    r = float(r)
    if not 1.0 < r < math.inf:
        raise ValueError(f"stopping ratio r must be finite and > 1, got {r}")
    return r


def _held(lhs, rhs, p, rtol):
    """lhs^p <= rhs^p (1 + rtol) for norms, elementwise; inf or NaN never holds."""
    return (lhs < math.inf) & (rhs < math.inf) & (lhs <= rhs * (1.0 + rtol) ** (1.0 / p))


def _node_averages(model, f):
    """mu-averages of f on every node, 0 on null cubes by convention."""
    ints = node_integrals(model, f, MU)
    return np.where(model.mu_node > 0, ints / np.where(model.mu_node > 0, model.mu_node, 1.0), 0.0)


def _stopping_search(model, averages, k, r) -> list:
    """Indices of the stopping children of node k, in depth-first order.

    These are the maximal strict descendants of positive mass whose average
    is at least r times k's; a null cube or a zero average has none.
    """
    if averages[k] == 0.0 or model.mu_node[k] == 0:
        return []
    threshold = r * averages[k]
    found = []
    stack = list(model.children[k])[::-1]
    while stack:
        node = stack.pop()
        if model.mu_node[node] > 0 and averages[node] >= threshold:
            found.append(node)
            continue
        stack.extend(reversed(model.children[node]))
    return found


def stopping_children(model: DyadicModel, f, Q, r) -> list:
    """Maximal strict descendants of Q whose average jumps by the factor r.

    Only positive-mass descendants qualify; a cube with zero average has no
    stopping children (all integrals below it vanish).  Returns node ids in
    document order.
    """
    r = _check_r(r)
    f = as_leaf_function(model, f, nonneg=True)
    k = model.node(Q)
    found = _stopping_search(model, _node_averages(model, f), k, r)
    return [model.ids[n] for n in sorted(found)]


@dataclass
class StoppingDecomposition:
    """The stopping cubes of (f, r) and their blocks, as two node arrays.

    ``owner_index[k]`` is node k's block owner, its nearest stopping
    ancestor-or-self (-1 above depth ``n_start``); the stopping cubes own
    themselves, and the first generation is the cubes at depth ``n_start``.
    ``stopping_parent[k]`` is the stopping cube whose stopping child k is (-1
    for the first generation and non-stopping nodes).  ``averages`` holds the
    mu-averages of f; ``generations``, ``stopping`` and ``blocks`` are views.
    """

    model: DyadicModel
    f: np.ndarray
    r: float
    n_start: int
    averages: np.ndarray = field(repr=False)
    owner_index: np.ndarray = field(repr=False)
    stopping_parent: np.ndarray = field(repr=False)

    @property
    def in_stopping(self) -> np.ndarray:
        return self.owner_index == np.arange(self.model.n_nodes)

    def _by_generation(self):
        """Stopping-cube indices by generation, DFS order within one; their generations."""
        model, stop = self.model, self.in_stopping
        gen = np.zeros(model.n_nodes, dtype=np.int64)
        for nodes in model.levels[self.n_start + 1:]:
            gen[nodes] = gen[model.parent[nodes]] + stop[nodes]
        nodes = model.dfs_order[stop[model.dfs_order]]
        nodes = nodes[np.argsort(gen[nodes], kind="stable")]
        return nodes, gen[nodes]

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
    if not (0 <= n_start <= model.max_depth):
        raise ValueError(f"n_start must be in [0, {model.max_depth}], got {n_start}")

    averages = _node_averages(model, f)
    owner = np.full(model.n_nodes, -1, dtype=np.int64)
    stopping_parent = np.full(model.n_nodes, -1, dtype=np.int64)
    first = model.levels[n_start]
    owner[first] = first
    for nodes in model.levels[n_start + 1:]:
        o = owner[model.parent[nodes]]
        avg_o = averages[o]
        stops = (model.mu_node[nodes] > 0) & (avg_o > 0) & (averages[nodes] >= r * avg_o)
        owner[nodes] = np.where(stops, nodes, o)
        stopping_parent[nodes[stops]] = o[stops]

    return StoppingDecomposition(
        model=model, f=f, r=r, n_start=int(n_start), averages=averages,
        owner_index=owner, stopping_parent=stopping_parent,
    )


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
    if owner.shape != scope.shape or np.any(owner[~scope] != -1):
        return False
    o, pos = owner[scope], model.dfs_lo[scope]
    if np.any((o < 0) | (o >= model.n_nodes)):
        return False
    return bool(np.all((owner[o] == o) & (model.dfs_lo[o] <= pos) & (pos < model.dfs_hi[o])))


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
    construction, so a violation flags an implementation bug.
    """
    r = decomp.r
    bound = r / (r - 1.0)
    subtotal = model.subtree_totals(np.where(decomp.in_stopping, model.mu_node, 0.0))

    pos = np.flatnonzero(model.mu_node > 0)
    rk = subtotal[pos] / model.mu_node[pos]
    # the first maximum above 0; a NaN ratio never wins
    above = np.where(rk > 0, rk, 0.0)
    i = int(np.argmax(above)) if np.any(above > 0) else -1
    worst, worst_node = (float(above[i]), model.ids[pos[i]]) if i >= 0 else (0.0, None)

    # one-generation condition: each stopping parent's children pack below mu(Q)/r
    kids = np.flatnonzero(decomp.stopping_parent >= 0)
    mass = np.bincount(decomp.stopping_parent[kids], weights=model.mu_node[kids],
                       minlength=model.n_nodes)
    parents = decomp.in_stopping & (model.mu_node > 0)
    mass, mu_par = mass[parents], model.mu_node[parents]
    gen_worst = float(np.max(r * mass / mu_par, initial=0.0))
    gen_ok = bool(np.all(mass <= mu_par / r * (1 + 1e-9)))

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
        w = np.asarray(weights, dtype=float)
        if w.shape != (model.n_nodes,):
            raise ValueError(f"need one weight per node, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            k = int(np.argmin(np.isfinite(w)))
            raise ValueError(f"Carleson weight of node {model.ids[k]!r} is not finite: {w[k]}")
        if np.any(w < 0):
            raise ValueError("Carleson weights must be >= 0")
        subtotal = model.subtree_totals(w)
        pos = model.mu_node > 0
        packing = float((subtotal[pos] / model.mu_node[pos]).max()) if np.any(pos) else 0.0
        return cls(model=model, weights=w, packing_constant=packing)

    @classmethod
    def from_mapping(cls, model: DyadicModel, mapping) -> "CarlesonSequence":
        """Build from {node id: weight}, absent nodes weighing 0; an unknown id
        or a weight that is not a number (a string or a boolean) is named."""
        w = np.zeros(model.n_nodes)
        for key, val in mapping.items():
            k = model.index.get(str(key))
            if k is None:
                raise ModelError(f"Carleson weight for unknown node {key!r}")
            if not _is_number(val):
                raise ModelError(f"Carleson weight of {key!r} must be a number, got {val!r}")
            w[k] = val
        return cls.from_weights(model, w)

    def as_mapping(self) -> dict:
        return {self.model.ids[k]: float(v)
                for k, v in enumerate(self.weights) if v != 0.0}


def stopping_weights(decomp: StoppingDecomposition) -> CarlesonSequence:
    """mu(Q) on the stopping cubes, 0 elsewhere; packs within r/(r-1)."""
    model = decomp.model
    return CarlesonSequence.from_weights(model, np.where(decomp.in_stopping, model.mu_node, 0.0))


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
    is a theorem for any sequence with a finite packing constant A.
    """
    p = float(p)
    if not (1.0 < p < math.inf):
        raise ValueError(f"p must be in (1, inf), got {p}")
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
    blocks: list                # BlockRecord per stopping cube
    reconstruction_rel_error: float
    average_control_excess: float   # max over blocks of avg_R / (r avg_Q) - 1
    links: list

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
    or the stopping decomposition of (f, r, n_start) pass it in; a
    decomposition built for another model, f, r or n_start is rejected.
    Any failed link raises :class:`VerificationError` naming the link
    (``strict=False`` returns the trace instead); the chain is a theorem, so
    failures indicate bugs, not bad inputs.  Bad inputs, such as an rtol that
    is not a finite number >= 0, raise ``ValueError``.
    """
    exps = Exponents(p, q).require_ordered()
    p = exps.p
    rtol = _check_rtol(rtol)
    f = as_leaf_function(model, f, nonneg=True)
    r = default_r(p) if r is None else _check_r(r)
    if decomp is None:
        decomp = build_decomposition(model, f, r, n_start=n_start)
    elif (decomp.model is not model or decomp.r != r or decomp.n_start != n_start
          or not np.array_equal(decomp.f, f)):
        raise ValueError("decomposition was built for a different model, f, r or n_start")
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
    stop_ids = [model.ids[k] for k in stop]
    norms = _lq_groups(model.nu_leaf[leaf] ** (1.0 / p) * F, owner, model.n_nodes, p)[stop]
    avg_stop, mu_stop = averages[stop], model.mu_node[stop]
    bounds = r * avg_stop * B * mu_stop ** (1.0 / p)
    blocks = [BlockRecord(owner=qid, norm=n, bound=b, average=avg)
              for qid, n, b, avg in zip(stop_ids, norms.tolist(),
                                        bounds.tolist(), avg_stop.tolist())]
    est1, carleson_lhs = float(_lq_rows(norms, p)), float(_lp_rows(avg_stop, mu_stop, p))
    block_fine = _held(norms, bounds, p, rtol)
    block_ok = bool(np.all(block_fine))
    worst_block = None if block_ok else stop_ids[np.flatnonzero(~block_fine)[-1]]

    # the blocks' ell-q combination must give back the operator
    recon = _lq_groups(F, leaf, model.n_leaves, q)
    scale = max(np.max(np.abs(lhs_vals)), 1e-300)
    recon_err = float(np.max(np.abs(recon - lhs_vals)) / scale)

    # average control over the block members, weak inequality convention
    members = (decomp.owner_index >= 0) & (model.mu_node > 0)
    avg_m = averages[members]
    denom = r * averages[decomp.owner_index[members]]
    with np.errstate(divide="ignore", invalid="ignore"):
        excess = np.where(denom > 0, avg_m / denom - 1.0,
                          np.where(avg_m > 0, math.inf, -math.inf))
    avg_excess = float(np.max(excess, initial=-math.inf))

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
        LinkCheck("block_bound", float(np.max(norms, initial=0.0)),
                  float(np.max(bounds, initial=0.0)), block_ok),
        link("carleson", carleson_lhs, carleson_bound),
        link("final", norm_Mf, final_bound),
    ]
    if optimal_bound is not None:
        links.append(link("optimal_r", norm_Mf, optimal_bound))

    with np.errstate(over="ignore"):
        lhs = float(np.float64(norm_Mf) ** p)
    trace = ProofTrace(
        decomposition=decomp, p=p, q=q, r=r, B=B, lhs=lhs, est1=est1,
        carleson_lhs=carleson_lhs, carleson_bound=carleson_bound,
        final_bound=final_bound, optimal_bound=optimal_bound, blocks=blocks,
        reconstruction_rel_error=recon_err,
        average_control_excess=avg_excess if avg_excess > -math.inf else 0.0,
        links=links,
    )
    if strict and not trace.ok:
        name = trace.failed_links()[0]
        detail = f" (block {worst_block})" if name == "block_bound" else ""
        raise VerificationError(f"proof chain link failed: {name}{detail}", trace)
    return trace

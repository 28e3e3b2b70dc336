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
from typing import Optional

import numpy as np

from .lattice import (MU, NU, DyadicModel, Exponents, _lq_groups, as_leaf_function,
                      lp_norm)
from .maximal import (CoefficientFamily, _apply_by_label, apply_depth_truncated,
                      node_integrals)
from .constants import VerificationError, holder_conjugate, testing_constant

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
    if not r > 1.0:
        raise ValueError(f"stopping ratio r must be > 1, got {r}")
    return r


def _power(x, p) -> float:
    """x ** p for a float x >= 0, inf where it overflows (a float raises)."""
    with np.errstate(over="ignore"):
        return float(np.float64(x) ** p)


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
    """Cumulative and per-generation mass packing of a stopping family."""

    bound: float                     # r / (r - 1)
    worst_ratio: float
    worst_node: Optional[str]
    ratio: dict                      # node id -> subtree stopping mass / mu
    slack: dict                      # node id -> bound - ratio
    generation_bound_ok: bool        # sum over G*(Q) of mu <= mu(Q)/r for all Q in G
    generation_worst: float          # max of r * sum(G*(Q)) / mu(Q)
    ok: bool = True


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
    nids = [model.ids[k] for k in pos]
    ratio = dict(zip(nids, rk.tolist()))
    slack = dict(zip(nids, (bound - rk).tolist()))
    # the first maximum above 0; a NaN ratio never wins
    above = np.where(rk > 0, rk, 0.0)
    i = int(np.argmax(above)) if np.any(above > 0) else -1
    worst, worst_node = (float(above[i]), nids[i]) if i >= 0 else (0.0, None)

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
        ratio=ratio, slack=slack,
        generation_bound_ok=gen_ok, generation_worst=gen_worst,
        ok=(worst <= bound * (1 + 1e-9)) and gen_ok,
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
        if np.any(w < 0):
            raise ValueError("Carleson weights must be >= 0")
        subtotal = model.subtree_totals(w)
        pos = model.mu_node > 0
        packing = float((subtotal[pos] / model.mu_node[pos]).max()) if np.any(pos) else 0.0
        return cls(model=model, weights=w, packing_constant=packing)

    @classmethod
    def from_mapping(cls, model: DyadicModel, mapping) -> "CarlesonSequence":
        w = np.zeros(model.n_nodes)
        for key, val in mapping.items():
            w[model.node(str(key))] = float(val)
        return cls.from_weights(model, w)

    def as_mapping(self) -> dict:
        return {self.model.ids[k]: float(v)
                for k, v in enumerate(self.weights) if v != 0.0}


def stopping_weights(decomp: StoppingDecomposition) -> CarlesonSequence:
    """mu(Q) on the stopping cubes, 0 elsewhere; packs within r/(r-1)."""
    model = decomp.model
    w = np.where(decomp.in_stopping, model.mu_node, 0.0)
    return CarlesonSequence.from_weights(model, w)


@dataclass
class CarlesonReport:
    """One evaluation of the embedding inequality with its slack."""

    lhs: float
    bound: float
    packing_constant: float
    p: float
    slack: float
    ok: bool


def carleson_embedding_check(model: DyadicModel, w: CarlesonSequence, f, p,
                             *, rtol: float = 1e-9) -> CarlesonReport:
    """Test sum_Q (avg_Q f)^p w_Q <= (p')^p * A * |f|_p^p for the sequence.

    A failure is reported, not raised; the inequality is a theorem for any
    sequence with a finite packing constant.
    """
    p = float(p)
    if not (1.0 < p < math.inf):
        raise ValueError(f"p must be in (1, inf), got {p}")
    f = as_leaf_function(model, f, nonneg=True)
    averages = _node_averages(model, f)
    lhs = float(np.dot(averages ** p, w.weights))
    norm_p = _power(lp_norm(model, f, p, MU), p)
    bound = holder_conjugate(p) ** p * w.packing_constant * norm_p
    return CarlesonReport(
        lhs=lhs, bound=bound, packing_constant=w.packing_constant, p=p,
        slack=bound - lhs, ok=lhs <= bound * (1 + rtol),
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
    norm_p: float        # |F_Q|_p,nu ^ p
    bound: float         # r^p B^p (avg_Q f)^p mu(Q)
    average: float


@dataclass
class ProofTrace:
    """Every intermediate quantity of the sufficiency chain, checked in order.

    Links, in the order they are asserted:
      lq_to_lp:   |(sum F_Q^q)^(1/q)|^p  <=  sum |F_Q|^p        (q >= p)
      block_bound: each |F_Q|^p <= r^p B^p (avg_Q f)^p mu(Q)
      carleson:   sum (avg_Q f)^p mu(Q) <= r/(r-1) (p')^p |f|^p
      final:      lhs <= r^(p+1)/(r-1) (p')^p B^p |f|^p
      optimal_r:  at r = (p+1)/p the final constant is (1+1/p)^(p+1) p (p')^p
    """

    decomposition: StoppingDecomposition
    p: float
    q: float
    r: float
    B: float
    lhs: float                  # |depth-truncated operator of f|_p,nu ^ p
    est1: float                 # sum over blocks of |F_Q|^p
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
    failures indicate bugs, not bad inputs.
    """
    exps = Exponents(p, q).require_ordered()
    p = exps.p
    f = as_leaf_function(model, f, nonneg=True)
    r = default_r(p) if r is None else _check_r(r)
    if decomp is None:
        decomp = build_decomposition(model, f, r, n_start=n_start)
    elif (decomp.model is not model or decomp.r != r or decomp.n_start != n_start
          or not np.array_equal(decomp.f, f)):
        raise ValueError("decomposition was built for a different model, f, r or n_start")
    if B is None:
        B, _ = testing_constant(model, a, p, q)
    B_p = _power(B, p)

    averages = decomp.averages

    lhs_vals = apply_depth_truncated(model, a, f, q, n_start).values
    lhs = _power(lp_norm(model, lhs_vals, p, NU), p)

    # F_Q per (atom, block): each (atom, cube) pair lies in exactly one block
    leaf, owner, F = _apply_by_label(model, a, f, q, decomp.owner_index)
    norm_p = np.bincount(owner, weights=model.nu_leaf[leaf] * F ** p,
                         minlength=model.n_nodes)
    stop, _ = decomp._by_generation()
    stop_ids = [model.ids[k] for k in stop]
    norm_p = norm_p[stop]
    bounds = (r * averages[stop]) ** p * B_p * model.mu_node[stop]
    blocks = [BlockRecord(owner=qid, norm_p=n, bound=b, average=avg)
              for qid, n, b, avg in zip(stop_ids, norm_p.tolist(),
                                        bounds.tolist(), averages[stop].tolist())]
    est1 = float(norm_p.sum())
    carleson_lhs = float(np.sum(averages[stop] ** p * model.mu_node[stop]))
    block_fine = np.isfinite(norm_p) & np.isfinite(bounds) & (norm_p <= bounds * (1 + rtol))
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

    pc = holder_conjugate(p)
    norm_f_p = _power(lp_norm(model, f, p, MU), p)
    carleson_bound = r / (r - 1.0) * pc ** p * norm_f_p
    final_bound = _power(r, p + 1.0) / (r - 1.0) * pc ** p * B_p * norm_f_p
    at_optimal = math.isclose(r, default_r(p), rel_tol=1e-12)
    optimal_bound = ((1.0 + 1.0 / p) ** (p + 1.0) * p * pc ** p * B_p * norm_f_p
                     if at_optimal else None)

    def link(name, lhs, rhs):
        # a non-finite side never counts as a held inequality
        ok = math.isfinite(lhs) and math.isfinite(rhs) and lhs <= rhs * (1 + rtol)
        return LinkCheck(name, lhs, rhs, ok)

    links = [
        link("lq_to_lp", lhs, est1),
        LinkCheck("block_bound", float(np.max(norm_p, initial=0.0)),
                  float(np.max(bounds, initial=0.0)), block_ok),
        link("carleson", carleson_lhs, carleson_bound),
        link("final", lhs, final_bound),
    ]
    if optimal_bound is not None:
        links.append(link("optimal_r", lhs, optimal_bound))

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

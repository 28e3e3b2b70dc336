"""Naive reference implementations used as independent oracles.

Everything here is written with explicit per-leaf loops and plain Python
sums, deliberately sharing no code path with the vectorized library.  The
exceptions pin the library's arithmetic bit for bit against earlier forms of
it: ``ref_walk``, the model constructor's depth-first walk as it was before
the array layout; ``ref_verify_reduction``, the reduction check on public
calls with one model copy per measure; and, at the end, the forward path and
the testing constant's suffixes as they were before the one-pass kernel.
"""

import math

import numpy as np


def ref_integrate(model, f, k, measure="mu"):
    mass = model.mu_leaf if measure == "mu" else model.nu_leaf
    lo, hi = int(model.leaf_lo[k]), int(model.leaf_hi[k])
    return math.fsum(float(f[j]) * float(mass[j]) for j in range(lo, hi))


def ref_lp_norm(model, g, p, measure="nu"):
    mass = model.mu_leaf if measure == "mu" else model.nu_leaf
    if p == math.inf:
        vals = [abs(float(g[j])) for j in range(model.n_leaves) if mass[j] > 0]
        return max(vals) if vals else 0.0
    return math.fsum(abs(float(g[j])) ** p * float(mass[j])
                     for j in range(model.n_leaves)) ** (1.0 / p)


def _coefficient_at(a, k, leaf_pos, model):
    entry = a.entry(k)
    if np.ndim(entry) == 0:
        return float(entry)
    return float(entry[leaf_pos - int(model.leaf_lo[k])])


def ref_maximal(model, a, f, q, allowed=None):
    """Definition-chasing evaluation: per leaf, loop over its ancestors."""
    out = []
    for j in range(model.n_leaves):
        leaf = int(model.leaf_nodes[j])
        terms = []
        for k in model.ancestors_or_self(leaf):
            if allowed is not None and k not in allowed:
                continue
            t = abs(ref_integrate(model, f, k) * _coefficient_at(a, k, j, model))
            terms.append(t)
        if not terms:
            out.append(0.0)
        elif q == math.inf:
            out.append(max(terms))
        else:
            out.append(math.fsum(t ** q for t in terms) ** (1.0 / q))
    return np.asarray(out)


def ref_truncated(model, a, f, q, node_k):
    allowed = set(int(i) for i in model.subtree(node_k))
    return ref_maximal(model, a, f, q, allowed=allowed)


def ref_depth_truncated(model, a, f, q, n_start):
    allowed = set(int(k) for k in range(model.n_nodes)
                  if model.depth[k] >= n_start)
    return ref_maximal(model, a, f, q, allowed=allowed)


def ref_testing_constant(model, a, p, q):
    """Max over positive-mass cubes of the normalized truncated norm."""
    best, witness = 0.0, None
    for k in range(model.n_nodes):
        mass = float(model.mu_node[k])
        if mass <= 0:
            continue
        one_q = np.zeros(model.n_leaves)
        one_q[model.leaf_lo[k]:model.leaf_hi[k]] = 1.0
        vals = ref_truncated(model, a, one_q, q, k)
        ratio = ref_lp_norm(model, vals, p, "nu") / mass ** (1.0 / p)
        if ratio > best:
            best, witness = ratio, model.ids[k]
    return best, witness


def ref_indicator_ratios(model, a, p, q):
    """|M 1_Q|_p,nu / |1_Q|_p,mu for every cube Q, -1 where 1_Q has mu-norm 0."""
    out = []
    for k in range(model.n_nodes):
        one_q = np.zeros(model.n_leaves)
        one_q[model.leaf_lo[k]:model.leaf_hi[k]] = 1.0
        den = ref_lp_norm(model, one_q, p, "mu")
        num = ref_lp_norm(model, ref_maximal(model, a, one_q, q), p, "nu")
        out.append(num / den if den > 0 else -1.0)
    return np.asarray(out)


def ref_walk(ids, parents, children, mu_leaf, nu_leaf, min_children=1):
    """The model's arrays as a depth-first walk over plain lists builds them.

    This is the constructor's walk as it was before the array layout: roots
    are the nodes with a negative parent, in index order, and one stack walk
    detects cycles and unreachable nodes, checks the child counts and fixes
    the leaf order and the subtree intervals, naming the first fault it meets
    in depth-first order.  A forest without those faults is then checked
    against the parent links: the first node in index order whose parent is
    not the node whose list names it is named.  Returns {attribute: value}
    for every array and table the constructor sets.  Masses come in leaf
    order or by leaf id.
    """
    from dyadicmax import ModelError

    n = len(ids)
    ids = tuple(map(str, ids))
    parent = np.asarray(parents, dtype=np.int64)
    children = tuple(map(tuple, children))
    listed = [c for ch in children for c in ch]
    if listed and not (0 <= min(listed) and max(listed) < n):
        raise ModelError(f"child index out of range [0, {n})")
    roots = tuple(np.flatnonzero(parent < 0).tolist())
    if not roots:
        raise ModelError("cycle detected: no root node")
    # ~k (negative, unlike any child index) on the stack ends k's subtree
    depth, lo, hi, leaf_lo, leaf_hi = ([-1] * n for _ in range(5))
    order, leaves = [], []
    stack = list(roots[::-1])
    pos = n_leaves = d = 0
    while stack:
        k = stack.pop()
        if k < 0:
            k, d = ~k, d - 1
            hi[k], leaf_hi[k] = pos, n_leaves
            continue
        if depth[k] >= 0:
            raise ModelError(f"cycle detected at node {ids[k]!r}")
        depth[k], lo[k], leaf_lo[k] = d, pos, n_leaves
        order.append(k)
        pos += 1
        ch = children[k]
        if not ch:
            leaves.append(k)
            n_leaves += 1
            hi[k], leaf_hi[k] = pos, n_leaves
        elif len(ch) < min_children:
            raise ModelError(f"node {ids[k]!r} has {len(ch)} children; minimum is {min_children}")
        else:
            d += 1
            stack.append(~k)
            stack.extend(ch[::-1])
    if pos != n:
        raise ModelError(
            f"cycle detected: node {ids[depth.index(-1)]!r} unreachable from any root")
    wrong = [c for k, ch in enumerate(children) for c in ch if parent[c] != k]
    if wrong:
        raise ModelError(
            f"parent link of node {ids[min(wrong)]!r} disagrees with child lists")

    out = dict(ids=ids, parent=parent, children=children, roots=roots)
    for name, values in zip(("depth", "dfs_lo", "dfs_hi", "leaf_lo", "leaf_hi", "dfs_order",
                             "leaf_nodes"), (depth, lo, hi, leaf_lo, leaf_hi, order, leaves)):
        out[name] = np.array(values, dtype=np.int64)
    out["is_leaf"] = out["dfs_hi"] - out["dfs_lo"] == 1
    out["leaf_ids"] = tuple(ids[k] for k in leaves)
    out["index"] = {nid: k for k, nid in enumerate(ids)}
    out["levels"] = [np.array([k for k in range(n) if depth[k] == dd], dtype=np.int64)
                     for dd in range(max(depth) + 1)]
    inner = out["dfs_order"][~out["is_leaf"][out["dfs_order"]]]
    bounds = np.stack([out["dfs_lo"], out["dfs_hi"]], axis=1)[inner].ravel()
    slots = out["dfs_lo"].copy()
    slots[inner] = n + 1 + 2 * np.arange(inner.size)
    out.update(_inner_bounds=bounds, _sum_slots=slots, _sum_cells=n + 1 + bounds.size,
               _leaf_dfs=out["dfs_lo"][out["leaf_nodes"]])
    masses = np.array([[m[nid] for nid in out["leaf_ids"]] if isinstance(m, dict) else m
                       for m in (mu_leaf, nu_leaf)], dtype=float)
    sums = np.zeros((2, n + 1 + bounds.size))
    sums[:, out["_leaf_dfs"]] = masses
    np.add.reduceat(sums[:, :n + 1], bounds, axis=-1, out=sums[:, n + 1:])
    out.update(mu_leaf=masses[0], nu_leaf=masses[1], mu_node=sums[0, slots],
               nu_node=sums[1, slots])
    return out


def ref_layout(model):
    """(depth, dfs_order, dfs_lo, dfs_hi, leaf_lo, leaf_hi, leaf_nodes, levels)
    of ``model``'s shape by :func:`ref_walk`."""
    ref = ref_walk(model.ids, model.parent, model.children, model.mu_leaf, model.nu_leaf)
    return tuple(ref[name] for name in ("depth", "dfs_order", "dfs_lo", "dfs_hi", "leaf_lo",
                                        "leaf_hi", "leaf_nodes", "levels"))


def ref_ancestors(model):
    """The ancestor of every leaf at every depth, entry by entry, n_nodes below
    the leaf."""
    anc = np.full((model.max_depth + 1, model.n_leaves), model.n_nodes, dtype=np.int64)
    for j in range(model.n_leaves):
        for k in model.ancestors_or_self(int(model.leaf_nodes[j])):
            anc[model.depth[k], j] = k
    return anc


def ref_leaf_levels(model, a):
    """The (ancestor, coefficient) depth-by-leaf tables, entry by entry; below
    each leaf the ancestor is n_nodes and the coefficient 0."""
    anc = ref_ancestors(model)
    coef = np.zeros(anc.shape)
    for d, j in zip(*(anc < model.n_nodes).nonzero()):
        coef[d, j] = _coefficient_at(a, int(anc[d, j]), int(j), model)
    return anc, coef


def ref_families(model):
    """Child lists of the interior nodes as plain lists, padded with n_nodes."""
    lists = [list(ch) for ch in model.children if ch]
    width = max((len(ch) for ch in lists), default=0)
    return [[ch[i] if i < len(ch) else model.n_nodes for ch in lists]
            for i in range(width)]


def ref_power_step(model, a, f, p, q):
    """One nonlinear power step on f >= 0, atom by atom.

    g_R is the sum over the atoms x below R of nu(x) * Mf(x)^(p-1) times the
    share of R in Mf(x): (|I_R| a_R(x) / Mf(x))^(q-1) * a_R(x) for finite q;
    at q = inf all of a_R(x) for the first (shallowest) R on x's path that
    attains Mf(x), and 0 for every other R.  The new value at y is the sum of
    g_R over the cubes R containing y, to the power 1/(p-1), divided by the
    largest such value.
    """
    ints = [ref_integrate(model, f, k) for k in range(model.n_nodes)]
    Mf = ref_maximal(model, a, f, q)
    g = [0.0] * model.n_nodes
    for j in range(model.n_leaves):
        if Mf[j] == 0:
            continue
        path = model.ancestors_or_self(int(model.leaf_nodes[j]))[::-1]  # root first
        weight = float(model.nu_leaf[j]) * float(Mf[j]) ** (p - 1.0)
        for k in path:
            c = _coefficient_at(a, k, j, model)
            t = abs(ints[k]) * c
            if q == math.inf:
                if t == Mf[j]:
                    g[k] += weight * c
                    break
            else:
                g[k] += weight * (t / Mf[j]) ** (q - 1.0) * c
    G = [math.fsum(g[k] for k in model.ancestors_or_self(int(model.leaf_nodes[j])))
         for j in range(model.n_leaves)]
    top = max(G)
    return np.array([(x / top if top > 0 else x) ** (1.0 / (p - 1.0)) for x in G])


def ref_verify_reduction(inst, f, q, rtol=1e-12):
    """verify_reduction with a model copy per measure, apply_maximal and lp_norm."""
    from dyadicmax import apply_maximal, lp_norm, node_integrals, reduce_three_to_two
    from dyadicmax.sawyer import ReductionReport, _rel_gap

    reduced = reduce_three_to_two(inst)
    g = reduced.transform(f)
    model_two = inst.model.with_measures(mu_leaf=reduced.mu_leaf)
    model_three = inst.model.with_measures(mu_leaf=inst.omega_leaf)

    ints_two = node_integrals(model_two, g, "mu")
    ints_three = node_integrals(model_three, f, "mu")
    scale = max(np.max(np.abs(ints_two)), np.max(np.abs(ints_three)), 1e-300)
    integral_err = float(np.max(np.abs(ints_two - ints_three)) / scale)

    a = reduced.coefficients
    m_two = apply_maximal(model_two, a, g, q).values
    m_three = apply_maximal(model_three, a, f, q).values
    mscale = max(np.max(m_two), np.max(m_three), 1e-300)
    operator_err = float(np.max(np.abs(m_two - m_three)) / mscale)

    norm_two = lp_norm(model_two, g, inst.p, "mu")
    target_model = inst.model.with_measures(mu_leaf=inst.target_leaf)
    norm_three = lp_norm(target_model, f, inst.p, "mu")
    norm_err = _rel_gap(norm_two, norm_three)

    ratio_lhs = ratio_rhs = None
    if norm_two > 0 and norm_three > 0:
        ratio_lhs = lp_norm(inst.model, m_two, inst.p, "nu") / norm_two
        ratio_rhs = lp_norm(inst.model, m_three, inst.p, "nu") / norm_three
    errors = (integral_err, operator_err, norm_err)
    return ReductionReport(integral_err, operator_err, norm_err, ratio_lhs, ratio_rhs,
                           ok=all(err <= rtol for err in errors))


# ---------------------------------------------------------------------------
# the operator's forward path and the testing constant's suffixes as they were
# before the one-pass kernel: cube integrals in node order, |I| padded with one
# 0 column, and the running ell-q norm one level at a time


def ref_subtree_sums(model, values):
    """Subtree sums of leaf values along the last axis: the leaves copied, and
    one reduceat over the DFS intervals of the interior nodes only."""
    n = model.n_nodes
    dfs = np.zeros(values.shape[:-1] + (n + 1,))
    dfs[..., model.dfs_lo[model.leaf_nodes]] = values
    out = dfs[..., model.dfs_lo]
    inner = model.dfs_order[~model.is_leaf[model.dfs_order]]
    bounds = np.stack([model.dfs_lo, model.dfs_hi], axis=1)[inner].ravel()
    out[..., inner] = np.add.reduceat(dfs, bounds, axis=-1)[..., ::2]
    return out


def ref_level_terms(model, a, integrals):
    """|I_R| * a_R(x) by depth of R and atom x, from cube integrals in node order."""
    anc, coef = ref_leaf_levels(model, a)
    pad = np.zeros(np.shape(integrals)[:-1] + (1,))
    T = np.concatenate([np.abs(integrals), pad], axis=-1)[..., anc]
    T *= coef
    return T


def ref_running_lq(T, q, axis):
    """Running ell-q norms along an axis, every step taken for one level at a time."""
    T = T.swapaxes(0, axis)
    out = np.zeros((T.shape[0] + 1,) + T.shape[1:])
    if q == math.inf:
        out[1:2] = T[:1]
        for d in range(1, T.shape[0]):
            np.maximum(out[d], T[d], out=out[d + 1])
        return out.swapaxes(0, axis)
    peak, acc = np.zeros((2,) + T.shape[1:])
    for d in range(T.shape[0]):
        new_peak = np.maximum(peak, T[d])
        scale = np.where(new_peak > 0, new_peak, 1.0)
        acc = acc * (peak / scale) ** q + (T[d] / scale) ** q
        peak = new_peak
        out[d + 1] = peak * acc ** (1.0 / q)
    return out.swapaxes(0, axis)


def ref_indicator_norms(model, a, p, q):
    """|M_Q 1_Q|_p,nu for every cube Q, from the suffixes of the mu-terms."""
    from dyadicmax.lattice import _lq_groups

    S = ref_running_lq(ref_level_terms(model, a, model.mu_node)[::-1], q, axis=0)[:0:-1]
    anc, _ = ref_leaf_levels(model, a)
    keep = (anc < model.n_nodes) & (model.nu_leaf > 0)
    weight = np.broadcast_to(model.nu_leaf ** (1.0 / p), anc.shape)
    return _lq_groups(weight[keep] * S[keep], anc[keep], model.n_nodes, p)


def ref_power_step_tables(model, a, F, p, q):
    """One power step on every row of F, as the level tables took it before the
    search built its index once: the bincount slots per step, and G gathered
    from the (rows, n_nodes + 1) cells through the ancestor table."""
    from dyadicmax.lattice import _lq_rows

    anc, coef = ref_leaf_levels(model, a)
    m, n = F.shape[0], model.n_nodes
    T = ref_level_terms(model, a, ref_subtree_sums(model, F * model.mu_leaf))
    Mf = _lq_rows(T, q, axis=1)
    top = Mf.max(axis=1, keepdims=True)
    weight = model.nu_leaf * (Mf / np.where(top > 0, top, 1.0)) ** (p - 1.0)
    rows = (n + 1) * np.arange(m)
    if q == math.inf:
        first = (T == Mf[:, None]).argmax(axis=1)
        atom = np.arange(model.n_leaves)
        node = anc[first, atom] + rows[:, None]
        weight = weight * coef[first, atom]
    else:
        node = anc + rows[:, None, None]
        weight = weight[:, None] * (T / np.where(Mf > 0, Mf, 1.0)[:, None]) ** (q - 1.0) * coef
    g = np.bincount(node.ravel(), weights=weight.ravel(),
                    minlength=m * (n + 1)).reshape(m, n + 1)
    G = g[:, anc].sum(axis=1)
    peak = G.max(axis=1, keepdims=True)
    return (G / np.where(peak > 0, peak, 1.0)) ** (1.0 / (p - 1.0)), Mf

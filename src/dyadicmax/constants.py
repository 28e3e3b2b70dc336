"""Best-constant estimation and the testing characterization sandwich.

The testing constant B is exactly computable on a finite model: it is a max
over cubes of the truncated operator applied to indicators.  The operator
norm A is not (the sup runs over an infinite cone), so this module reports a
certified lower bound from a candidate search, together with the theorem's
upper bound C(p) * B, and checks B <= A_lower <= C(p) * B.
"""

from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .lattice import (_TINY, DyadicModel, _check_int, _check_nonneg, _check_p, _check_pq,
                      _lp_rows, _lq_rows)
from .maximal import (CoefficientFamily, _apply_levels, _indicator_norms,
                      _indicator_ratios, _level_terms, _suffix_table)

__all__ = [
    "ConstantsReport",
    "NormSearch",
    "VerificationError",
    "holder_conjugate",
    "theorem_constant",
    "theorem_constant_hp",
    "testing_constant",
    "operator_norm_lower",
    "operator_norm_bruteforce",
    "verify_theorem",
]


class VerificationError(RuntimeError):
    """A proven inequality failed numerically: implementation bug indicator."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def holder_conjugate(p: float) -> float:
    """p' with 1/p + 1/p' = 1, for finite p > 1."""
    p = _check_p(p)
    return p / (p - 1.0)


def theorem_constant(p: float) -> float:
    """The sufficiency constant ((1 + 1/p)^(p+1) * p)^(1/p) * p'.

    Tends to 1 as p grows; equals 3*sqrt(3) at p = 2.
    """
    p = _check_p(p)
    return ((1.0 + 1.0 / p) ** (p + 1.0) * p) ** (1.0 / p) * holder_conjugate(p)


@functools.lru_cache(maxsize=64, typed=True)
def theorem_constant_hp(p) -> float:
    """Independent high-precision evaluation of the same constant, for finite
    p > 1, in a ``decimal`` context of 50 digits.

    Memoised per p: a sweep asks for the same few p again and again.  A p
    that is rejected stores nothing, since the cache keeps only results; it
    keys on the types too, so Decimal("2"), which is rejected, never finds
    the result of 2.0.
    """
    with _decimal_context(50):
        mp = decimal.Decimal(_check_p(p))  # exact: every float is a decimal
        pc = mp / (mp - 1)
        return float(((1 + 1 / mp) ** (mp + 1) * mp) ** (1 / mp) * pc)


def _decimal_context(dps: int):
    """A fresh ``decimal`` context of ``dps`` digits, rounding half even,
    whatever the caller's own context is."""
    return decimal.localcontext(decimal.Context(prec=dps,
                                                rounding=decimal.ROUND_HALF_EVEN))


def testing_constant(model: DyadicModel, a: CoefficientFamily, p, q, *, _S=None):
    """Largest cube-normalized norm of the truncated operator on indicators.

    Returns (B, witness id).  Cubes of zero mu-mass are skipped (their
    testing inequality is 0 <= 0); if no cube has positive mass the constant
    is 0 with no witness.  Ties go to the earliest cube in document order.
    ``_S``, the ``_suffix_table`` of (a, q), is built here unless
    :func:`verify_theorem` hands over the one it shares with the norm search.
    """
    _check_pq(p, q)
    S = _suffix_table(model, a, q) if _S is None else _S
    norms = _indicator_norms(model, a, p, S)
    pos = model.mu_node > 0
    ratio = np.zeros(model.n_nodes)
    ratio[pos] = norms[pos] / model.mu_node[pos] ** (1.0 / p)
    k = int(ratio.argmax())  # the first maximum; a NaN wins and surfaces in B
    if ratio[k] == 0.0:
        return 0.0, None
    return float(ratio[k]), model.ids[k]


@dataclass(frozen=True)
class NormSearch:
    """Budgets for the operator-norm lower-bound search.

    Indicators of all cubes are always tried (they alone certify B <= A);
    ``n_random`` random candidates, drawn row by row from one generator
    seeded with ``seed`` (so the first k do not depend on ``n_random``),
    probe beyond them, and ``ascent_rounds`` nonlinear power steps then climb
    from the best indicator, the constant function and the best random one.
    Both budgets must be integers >= 0; 0 turns that part off.  ``seed``
    must be an integer >= 0 too.  All three are checked when the search is made.
    """

    n_random: int = 200
    ascent_rounds: int = 50
    seed: int = 0

    def __post_init__(self):
        for name in ("n_random", "ascent_rounds", "seed"):
            object.__setattr__(self, name, _check_int(getattr(self, name), name, 0))


def _check_rtol(rtol) -> float:
    """A relative tolerance by ``_check_nonneg``'s rule: every comparison
    x > y * (1 + rtol) is False when rtol is NaN, which would pass anything."""
    return _check_nonneg(rtol, "rtol")


# bytes of (depth + 1) x atoms float tables that one block of _ratios' rows may fill
_BLOCK_BYTES = 512 * 1024


def _row_blocks(F, row_bytes):
    """F's rows in consecutive blocks, for level tables of ``row_bytes`` a row.
    A block holds rows = max(2, _BLOCK_BYTES // row_bytes) or more (all of F
    if F has fewer) and fewer than 2 * rows.  So no row is alone unless F has
    one: numpy gathers a lone row atom-innermost, and its sums along the
    levels would round differently from the same row's in a batch.  The
    blocks are ``numpy.array_split``'s: the first len(F) % blocks hold one
    row more."""
    blocks = max(1, len(F) // max(2, _BLOCK_BYTES // row_bytes))
    size, extra = divmod(len(F), blocks)
    ends = [i * size + min(i, extra) for i in range(blocks + 1)]
    return [F[lo:hi] for lo, hi in zip(ends, ends[1:])]


def _ratios(model, a, F, p, q, images=None):
    """|Mf|_p,nu / |f|_p,mu for every row f of F (-1 where |f|_p,mu = 0), and the
    mu-norms.  ``images``, the operator on the rows of F, is computed if not
    given, block by block (``_row_blocks``), so no level table of the whole
    batch is ever held: each row's ratio is the same as in one pass."""
    if images is None:
        blocks = _row_blocks(F, 8 * model._ancestors.size)
        if len(blocks) > 1:
            parts = [_ratios(model, a, block, p, q, _apply_levels(model, a, block, q))
                     for block in blocks]
            return tuple(np.concatenate(column) for column in zip(*parts))
        images = _apply_levels(model, a, F, q)
    out_norm = _lp_rows(images, model.nu_leaf, p)
    in_norm = _lp_rows(F, model.mu_leaf, p)
    # |f|_p,mu = 0 makes f * mu = 0, and so Mf = 0: the quotient there is 0 (see _TINY)
    ratios = np.where(in_norm > 0, out_norm / np.maximum(in_norm, _TINY), -1.0)
    return ratios, in_norm


def _step_index(model, m):
    """What every power step on a batch of m rows indexes with, built once per
    search: the node cell of every term, the ancestor table plus (n_nodes + 1)
    * row, in the (level, atom, row) order of the level tables in memory; and
    the row offsets and atom numbers that pick one level per atom at q = inf."""
    rows = (model.n_nodes + 1) * np.arange(m)
    return model._ancestors[..., None] + rows, rows[:, None], np.arange(model.n_leaves)


def _power_step(model, a, F, p, q, index=None):
    """One nonlinear power step on every row of a batch of functions f >= 0.

    With g_Q = d|Mf|^p_p,nu / dI_Q, the maximizers of |Mf|_p,nu / |f|_p,mu
    are the fixed points of f(y) -> (sum of g_Q over the cubes Q containing
    y)^(1/(p-1)).  Since |Mf|^p is convex in f >= 0, no step lowers the
    ratio in exact arithmetic.  At q = inf g is the subgradient that puts
    each atom's weight on the first (shallowest) level attaining its max.
    The map is scale invariant, so each row's weights and sums are rescaled
    by their peak before the powers: iterates lie in [0, 1] and stay finite
    at any p.  Returns (the next iterates, M F): the operator on the rows it
    consumed, which the step computes anyway, so each iterate is scored from
    the step that consumes it.  g_Q of row i is summed in cell
    Q + (n_nodes + 1) * i through ``index``, ``_step_index`` for F's row
    count, which a search builds once for all its steps.
    """
    coef = a._leaf_levels()
    m = F.shape[0]
    cells, rows, atom = _step_index(model, m) if index is None else index
    T = _level_terms(model, a, F * model.mu_leaf)
    Mf = _lq_rows(T, q, axis=1)
    # each row's weights over its peak; a zero row stays 0 (see _TINY)
    weight = Mf / np.maximum(np.maximum.reduce(Mf, axis=1, keepdims=True), _TINY)
    weight **= p - 1.0
    weight *= model.nu_leaf
    # padding, whose weights are 0, goes to each row's spare cell n_nodes, which
    # g[cells] reads back.  Each cell sums its terms in atom order, and G sums
    # each atom's levels in the layout of T, which fancy indexing makes
    # (level, atom, row), as the transposes below keep
    if q == math.inf:
        # each atom's weight goes to its first maximal level only: T has no NaN,
        # so argmax finds the first level equal to Mf.  One flat index into the
        # (level, atom) tables picks that level's cube and coefficient
        first = T.argmax(axis=1)
        first *= model.n_leaves
        first += atom
        node = model._ancestors.ravel()[first] + rows  # never a padding level
        weight *= coef.ravel()[first]
    else:
        node = cells
        R = T / np.maximum(Mf, _TINY)[:, None]
        R **= q - 1.0
        R *= weight[:, None]
        R *= coef
        weight = R.transpose(1, 2, 0)
    g = np.bincount(node.ravel(), weights=weight.ravel(), minlength=m * (model.n_nodes + 1))
    G = np.add.reduce(g[cells].transpose(2, 0, 1), axis=1)
    G /= np.maximum(np.maximum.reduce(G, axis=1, keepdims=True), _TINY)
    G **= 1.0 / (p - 1.0)
    return G, Mf


def operator_norm_lower(model: DyadicModel, a: CoefficientFamily, p, q,
                        search: Optional[NormSearch] = None, *, _S=None):
    """Certified lower bound for the L^p(mu) -> L^p(nu) operator norm.

    Maximizes |Mf|_p,nu / |f|_p,mu over cube indicators, the constant
    function and random nonnegative functions (heavy-tailed, drawn row by row
    from one generator seeded with ``search.seed``, so the first k do not
    depend on ``n_random``), then runs a nonlinear power iteration
    (Boyd 1974; Higham 1992) from the best indicator, the constant function
    and the best random candidate.  Every iterate is evaluated exactly at the
    true q and the best ratio seen is kept, so the bound is certified whether
    or not the iteration converges.  Each power step hands back the operator
    on the iterate it consumed, so the iterates are scored from those images;
    only the last one needs its own pass, when the budget runs out.  The
    iteration stops early once a step returns its input bit for bit, whose
    image is then known too.  Deterministic for a fixed search config.
    Returns (A_lower, witness function with unit mu-norm).  ``_S`` is as in
    :func:`testing_constant`.
    """
    _check_pq(p, q)
    search = search or NormSearch()

    S = _suffix_table(model, a, q) if _S is None else _S
    cubes = _indicator_ratios(model, a, p, q, S)
    k = int(cubes.argmax())  # the first best cube, whose indicator is row 0
    F = np.zeros((2 + search.n_random, model.n_leaves))
    F[0, model.leaf_lo[k]:model.leaf_hi[k]] = 1.0
    F[1] = 1.0
    # each random row times the power of two that puts its peak in [0.5, 1): the
    # scaling is exact, so the row's ratio and ascent do not change, and f * mu
    # stays finite where the draws exceed 1 on masses near the float limit
    R = F[2:]
    R[...] = np.random.default_rng(search.seed).pareto(1.5, R.shape)
    np.ldexp(R, -np.frexp(np.maximum.reduce(R, axis=1))[1][:, None], out=R)
    ratios, in_norms = _ratios(model, a, F[1:], p, q)
    if not np.logical_or.reduce(in_norms != 0):
        raise ValueError("all candidates have zero mu-norm")
    ratios = np.concatenate([cubes[k:k + 1], ratios])
    best_idx = int(ratios.argmax())
    best_ratio = float(ratios[best_idx])
    best_f = F[best_idx]

    starts = [0, 1]
    if search.n_random > 0:
        starts.append(2 + int(ratios[2:].argmax()))
    X, steps, images = F[starts], [], []  # images[i] is the operator on iterate i
    index = _step_index(model, len(starts))
    for _ in range(search.ascent_rounds):
        last, (X, image) = X, _power_step(model, a, X, p, q, index)
        steps.append(X)
        images.append(image)
        if np.logical_and.reduce(X == last, axis=None):
            images.append(image)  # X repeats its input, and so its image
            break  # an exact fixed point: every later step would repeat it
    else:
        if steps:  # the budget ran out: the last iterate has no image yet
            images.append(_apply_levels(model, a, X, q))
    if steps:
        # one batch scores every step; the earliest best iterate wins, as step by step
        X = np.concatenate(steps)
        step_ratios, _ = _ratios(model, a, X, p, q, np.concatenate(images[1:]))
        k = int(step_ratios.argmax())
        if step_ratios[k] > best_ratio:
            best_ratio, best_f = float(step_ratios[k]), X[k]

    norm = _lp_rows(best_f, model.mu_leaf, p)
    witness = best_f / norm if norm > 0 else best_f
    return best_ratio, witness


def _sphere_grid(k, resolution):
    """Grid points covering all nonnegative directions in R^k.

    One chart per coordinate: that coordinate pinned at 1, the others
    running over a uniform grid in [0, 1].  Yields blocks of bounded size so
    4-leaf scans stay within memory.
    """
    if k == 1:
        yield np.ones((1, 1))
        return
    axis = np.linspace(0.0, 1.0, resolution + 1)
    free = k - 1
    if free <= 2:
        grids = np.meshgrid(*([axis] * free), indexing="ij")
        flat = np.stack([g.ravel() for g in grids], axis=1)
        for face in range(k):
            yield np.insert(flat, face, 1.0, axis=1)
    else:
        grids = np.meshgrid(*([axis] * (free - 1)), indexing="ij")
        rest = np.stack([g.ravel() for g in grids], axis=1)
        for face in range(k):
            for v in axis:
                first = np.full((rest.shape[0], 1), v)
                yield np.insert(np.concatenate([first, rest], axis=1), face, 1.0, axis=1)


def _reference_ratio_hp(model, a, f, p, q, dps):
    """Ratio at a single point in ``dps``-digit decimal (tiny models only)."""
    D = decimal.Decimal
    with _decimal_context(dps):
        fv = [D(float(x)) for x in f]
        mu = [D(float(x)) for x in model.mu_leaf]
        nu = [D(float(x)) for x in model.nu_leaf]
        dp = D(float(p))
        dq = None if q == math.inf else D(float(q))
        ints = {}
        for k in range(model.n_nodes):
            lo, hi = int(model.leaf_lo[k]), int(model.leaf_hi[k])
            ints[k] = sum(fv[j] * mu[j] for j in range(lo, hi))
        out = []
        for j, leaf_node in enumerate(model.leaf_nodes):
            terms = []
            for k in model.ancestors_or_self(int(leaf_node)):
                entry = a.entry(k)
                aval = entry if np.ndim(entry) == 0 else entry[j - model.leaf_lo[k]]
                terms.append(abs(ints[k]) * D(float(aval)))
            if q == math.inf:
                out.append(max(terms))
            else:
                out.append(sum(t ** dq for t in terms) ** (1 / dq))
        num = sum(v ** dp * w for v, w in zip(out, nu)) ** (1 / dp)
        den = sum(abs(v) ** dp * w for v, w in zip(fv, mu)) ** (1 / dp)
        return float(num / den) if den > 0 else 0.0


def operator_norm_bruteforce(model: DyadicModel, a: CoefficientFamily, p, q,
                             resolution: int, *, precision_dps: Optional[int] = None):
    """Exhaustive oracle for the operator norm on models with <= 4 leaves.

    Scans a grid over every nonnegative direction, one ``_sphere_grid`` block
    at a time (``_ratios`` bounds the memory of each by its row blocks),
    refines the best point by deterministic coordinate ascent, and
    (optionally) re-evaluates the refined maximizer in ``precision_dps``-digit
    decimal arithmetic.  Nondecreasing in resolution up to ascent rounding.
    ``resolution`` is an integer >= 1, and so is ``precision_dps`` unless it
    is None, which skips the decimal step.
    """
    _check_pq(p, q)
    k = model.n_leaves
    if k > 4:
        raise ValueError(f"too many leaves for exhaustive search: {k} > 4")
    resolution = _check_int(resolution, "resolution", 1)
    if precision_dps is not None:
        precision_dps = _check_int(precision_dps, "precision_dps", 1, decimal.MAX_PREC)
    if np.all(model.mu_leaf == 0):
        raise ValueError("all candidates have zero mu-norm")

    best_ratio = -1.0
    best_f = None
    for block in _sphere_grid(k, resolution):
        ratios, _ = _ratios(model, a, block, p, q)
        idx = int(np.argmax(ratios))
        if ratios[idx] > best_ratio:
            best_ratio = float(ratios[idx])
            best_f = block[idx].copy()

    # local ascent: shrinking multiplicative perturbations, run to convergence
    step = 0.5
    while step > 1e-10:
        improved = True
        while improved:
            improved = False
            trials = []
            for j in range(k):
                for mult in (1.0 + step, 1.0 / (1.0 + step)):
                    t = best_f.copy()
                    t[j] = t[j] * mult if t[j] > 0 else step
                    trials.append(t)
            ratios, _ = _ratios(model, a, np.stack(trials), p, q)
            idx = int(np.argmax(ratios))
            if ratios[idx] > best_ratio * (1 + 1e-14):
                best_ratio = float(ratios[idx])
                best_f = trials[idx]
                improved = True
        step *= 0.25

    if precision_dps is not None:
        best_ratio = max(best_ratio,
                         _reference_ratio_hp(model, a, best_f, p, q, precision_dps))
    return best_ratio


@dataclass
class ConstantsReport:
    """Certified constants for one instance, with sandwich margins."""

    B: float
    A_lower: float
    C_p: float
    witness_cube: Optional[str]
    witness_function: Optional[np.ndarray]
    margins: tuple  # (A_lower - B, C_p * B - A_lower)
    p: float = field(default=math.nan)
    q: float = field(default=math.nan)


def verify_theorem(model: DyadicModel, a: CoefficientFamily, p, q,
                   search: Optional[NormSearch] = None, *, rtol: float = 1e-9,
                   c_p: Optional[float] = None) -> ConstantsReport:
    """Check B <= A_lower <= C(p) * B on one instance.

    Raises :class:`VerificationError` on a sandwich violation, which the
    characterization theorem rules out for a correct implementation, and
    ``ValueError`` on bad input, such as an rtol that is not a finite number
    >= 0.  The ``c_p`` override exists for fault-injection tests only.
    """
    _check_pq(p, q)
    rtol = _check_rtol(rtol)
    S = _suffix_table(model, a, q)  # one table for both halves of the sandwich
    B, witness_cube = testing_constant(model, a, p, q, _S=S)
    if np.maximum.reduce(model.mu_leaf) > 0:
        A_lower, witness_f = operator_norm_lower(model, a, p, q, search, _S=S)
    else:
        A_lower, witness_f = 0.0, None  # mu = 0: every f has mu-norm 0, the estimate is 0
    A_lower = max(A_lower, 0.0)
    C_p = theorem_constant(p) if c_p is None else float(c_p)
    report = ConstantsReport(
        B=B, A_lower=A_lower, C_p=C_p,
        witness_cube=witness_cube, witness_function=witness_f,
        margins=(A_lower - B, C_p * B - A_lower), p=float(p), q=q,
    )
    if not all(math.isfinite(x) for x in (B, A_lower, *report.margins)):
        raise VerificationError(
            f"non-finite sandwich: B={B!r}, A_lower={A_lower!r}", report)
    if B > A_lower * (1 + rtol):
        raise VerificationError(
            f"sandwich violation: B={B!r} > A_lower={A_lower!r}", report)
    if A_lower > C_p * B * (1 + rtol):
        raise VerificationError(
            f"sandwich violation: A_lower={A_lower!r} > C(p)*B={C_p * B!r}", report)
    return report

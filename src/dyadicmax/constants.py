"""Best-constant estimation and the testing characterization sandwich.

The testing constant B is exactly computable on a finite model: it is a max
over cubes of the truncated operator applied to indicators.  The operator
norm A is not (the sup runs over an infinite cone), so this module reports a
certified lower bound from a candidate search, together with the theorem's
upper bound C(p) * B, and checks B <= A_lower <= C(p) * B.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import mpmath
import numpy as np

from .lattice import DyadicModel, Exponents, _lp_rows, _lq_rows, indicator
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
    """p' with 1/p + 1/p' = 1."""
    p = float(p)
    if not p > 1.0:
        raise ValueError(f"p must be > 1, got {p}")
    return p / (p - 1.0)


def theorem_constant(p: float) -> float:
    """The sufficiency constant ((1 + 1/p)^(p+1) * p)^(1/p) * p'.

    Tends to 1 as p grows; equals 3*sqrt(3) at p = 2.
    """
    p = float(p)
    if not (1.0 < p < math.inf):
        raise ValueError(f"p must be finite > 1, got {p}")
    return ((1.0 + 1.0 / p) ** (p + 1.0) * p) ** (1.0 / p) * holder_conjugate(p)


@functools.lru_cache(maxsize=64)
def theorem_constant_hp(p, dps: int = 50) -> float:
    """Independent high-precision evaluation of the same constant.

    Memoised per (p, dps): a sweep asks for the same few p again and again.
    """
    with mpmath.workdps(dps):
        mp = mpmath.mpf(p)
        pc = mp / (mp - 1)
        return float(((1 + 1 / mp) ** (mp + 1) * mp) ** (1 / mp) * pc)


def testing_constant(model: DyadicModel, a: CoefficientFamily, p, q, *, _S=None):
    """Largest cube-normalized norm of the truncated operator on indicators.

    Returns (B, witness id).  Cubes of zero mu-mass are skipped (their
    testing inequality is 0 <= 0); if no cube has positive mass the constant
    is 0 with no witness.  Ties go to the earliest cube in document order.
    ``_S``, the ``_suffix_table`` of (a, q), is built here unless
    :func:`verify_theorem` hands over the one it shares with the norm search.
    """
    Exponents(p, q).require_ordered()
    S = _suffix_table(model, a, q) if _S is None else _S
    norms = _indicator_norms(model, a, p, S)
    pos = model.mu_node > 0
    ratio = np.zeros(model.n_nodes)
    ratio[pos] = norms[pos] / model.mu_node[pos] ** (1.0 / p)
    k = int(np.argmax(ratio))  # the first maximum; a NaN wins and surfaces in B
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
    Both budgets must be integers >= 0; 0 turns that part off.
    """

    n_random: int = 200
    ascent_rounds: int = 50
    seed: int = 0

    def __post_init__(self):
        for name in ("n_random", "ascent_rounds"):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= 0):
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


def _check_rtol(rtol) -> float:
    """A relative tolerance must be a finite number >= 0: every comparison
    x > y * (1 + rtol) is False when rtol is NaN, which would pass anything."""
    rtol = float(rtol)
    if not (math.isfinite(rtol) and rtol >= 0):
        raise ValueError(f"rtol must be finite and >= 0, got {rtol}")
    return rtol


def _ratios(model, a, F, p, q, images=None):
    """|Mf|_p,nu / |f|_p,mu for every row f of F (-1 where |f|_p,mu = 0), and the
    mu-norms.  ``images``, the operator on the rows of F, is computed if not given."""
    if images is None:
        images = _apply_levels(model, a, F, q)
    out_norm = _lp_rows(images, model.nu_leaf, p)
    in_norm = _lp_rows(F, model.mu_leaf, p)
    ratios = np.where(in_norm > 0, out_norm / np.where(in_norm > 0, in_norm, 1.0), -1.0)
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
    top = Mf.max(axis=1, keepdims=True)
    weight = model.nu_leaf * (Mf / np.where(top > 0, top, 1.0)) ** (p - 1.0)
    # padding, whose weights are 0, goes to each row's spare cell n_nodes, which
    # g[cells] reads back.  Each cell sums its terms in atom order, and G sums
    # each atom's levels in the layout of T, which fancy indexing makes
    # (level, atom, row), as the transposes below keep
    if q == math.inf:
        # each atom's weight goes to its first maximal level only
        first = (T == Mf[:, None]).argmax(axis=1)
        node = model._ancestors[first, atom] + rows  # never a padding level
        weight = weight * coef[first, atom]
    else:
        node = cells
        weight = weight[:, None] * (T / np.where(Mf > 0, Mf, 1.0)[:, None]) ** (q - 1.0) * coef
        weight = weight.transpose(1, 2, 0)
    g = np.bincount(node.ravel(), weights=weight.ravel(), minlength=m * (model.n_nodes + 1))
    G = g[cells].transpose(2, 0, 1).sum(axis=1)
    peak = G.max(axis=1, keepdims=True)
    return (G / np.where(peak > 0, peak, 1.0)) ** (1.0 / (p - 1.0)), Mf


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
    Exponents(p, q).require_ordered()
    search = search or NormSearch()

    S = _suffix_table(model, a, q) if _S is None else _S
    cubes = _indicator_ratios(model, a, p, q, S)
    k = int(np.argmax(cubes))  # the first best cube, which the row below stands for
    rng = np.random.default_rng(search.seed)
    F = np.vstack([indicator(model, model.ids[k]), np.ones(model.n_leaves),
                   rng.pareto(1.5, (search.n_random, model.n_leaves))])
    ratios, in_norms = _ratios(model, a, F[1:], p, q)
    if np.all(in_norms == 0):
        raise ValueError("all candidates have zero mu-norm")
    ratios = np.concatenate([cubes[k:k + 1], ratios])
    best_idx = int(np.argmax(ratios))
    best_ratio = float(ratios[best_idx])
    best_f = F[best_idx]

    starts = [0, 1]
    if search.n_random > 0:
        starts.append(2 + int(np.argmax(ratios[2:])))
    X, steps, images = F[starts], [], []  # images[i] is the operator on iterate i
    index = _step_index(model, len(starts))
    for _ in range(search.ascent_rounds):
        last, (X, image) = X, _power_step(model, a, X, p, q, index)
        steps.append(X)
        images.append(image)
        if np.array_equal(X, last):
            images.append(image)  # X repeats its input, and so its image
            break  # an exact fixed point: every later step would repeat it
    else:
        if steps:  # the budget ran out: the last iterate has no image yet
            images.append(_apply_levels(model, a, X, q))
    if steps:
        # one batch scores every step; the earliest best iterate wins, as step by step
        X = np.vstack(steps)
        step_ratios, _ = _ratios(model, a, X, p, q, np.vstack(images[1:]))
        k = int(np.argmax(step_ratios))
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
    """Arbitrary-precision ratio at a single point (tiny models only)."""
    with mpmath.workdps(dps):
        fv = [mpmath.mpf(x) for x in f]
        mu = [mpmath.mpf(x) for x in model.mu_leaf]
        nu = [mpmath.mpf(x) for x in model.nu_leaf]
        ints = {}
        for k in range(model.n_nodes):
            lo, hi = int(model.leaf_lo[k]), int(model.leaf_hi[k])
            ints[k] = mpmath.fsum(fv[j] * mu[j] for j in range(lo, hi))
        out = []
        for j, leaf_node in enumerate(model.leaf_nodes):
            terms = []
            for k in model.ancestors_or_self(int(leaf_node)):
                entry = a.entry(k)
                aval = entry if np.ndim(entry) == 0 else entry[j - model.leaf_lo[k]]
                terms.append(abs(ints[k]) * mpmath.mpf(float(aval)))
            if q == math.inf:
                out.append(max(terms))
            else:
                out.append(mpmath.fsum(t ** q for t in terms) ** (1 / mpmath.mpf(q)))
        num = mpmath.fsum(v ** p * w for v, w in zip(out, nu)) ** (1 / mpmath.mpf(p))
        den = mpmath.fsum(abs(v) ** p * w for v, w in zip(fv, mu)) ** (1 / mpmath.mpf(p))
        return float(num / den) if den > 0 else 0.0


def operator_norm_bruteforce(model: DyadicModel, a: CoefficientFamily, p, q,
                             resolution: int, *, precision_dps: Optional[int] = None,
                             chunk: int = 65536):
    """Exhaustive oracle for the operator norm on models with <= 4 leaves.

    Scans a grid over every nonnegative direction, refines the best point by
    deterministic coordinate ascent, and (optionally) re-evaluates the
    refined maximizer in arbitrary precision.  Nondecreasing in resolution
    up to ascent rounding.
    """
    Exponents(p, q).require_ordered()
    k = model.n_leaves
    if k > 4:
        raise ValueError(f"too many leaves for exhaustive search: {k} > 4")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    if np.all(model.mu_leaf == 0):
        raise ValueError("all candidates have zero mu-norm")

    best_ratio = -1.0
    best_f = None
    for block in _sphere_grid(k, resolution):
        for s in range(0, block.shape[0], chunk):
            part = block[s:s + chunk]
            ratios, _ = _ratios(model, a, part, p, q)
            idx = int(np.argmax(ratios))
            if ratios[idx] > best_ratio:
                best_ratio = float(ratios[idx])
                best_f = part[idx].copy()

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

    if precision_dps:
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
    Exponents(p, q).require_ordered()
    rtol = _check_rtol(rtol)
    S = _suffix_table(model, a, q)  # one table for both halves of the sandwich
    B, witness_cube = testing_constant(model, a, p, q, _S=S)
    if np.any(model.mu_leaf > 0):
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

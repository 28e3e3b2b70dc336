"""Best-constant estimation and the testing characterization sandwich.

The testing constant B is exactly computable on a finite model: it is a max
over cubes of the truncated operator applied to indicators.  The operator
norm A is not (the sup runs over an infinite cone), so this module reports a
certified lower bound from a candidate search, together with the theorem's
upper bound C(p) * B, and checks B <= A_lower <= C(p) * B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import mpmath
import numpy as np

from .lattice import MU, NU, DyadicModel, Exponents, lp_norm
from .maximal import CoefficientFamily, _apply_batch, _indicator_norms

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


def theorem_constant_hp(p, dps: int = 50) -> float:
    """Independent high-precision evaluation of the same constant."""
    with mpmath.workdps(dps):
        mp = mpmath.mpf(p)
        pc = mp / (mp - 1)
        return float(((1 + 1 / mp) ** (mp + 1) * mp) ** (1 / mp) * pc)


def _norms_batch(model, values, p, measure):
    """Row-wise Lp(measure) norms of a (m, n_leaves) value array."""
    mass = model.leaf_masses(measure)
    if p == math.inf:
        pos = mass > 0
        if not np.any(pos):
            return np.zeros(values.shape[0])
        return np.abs(values[:, pos]).max(axis=1)
    return (np.abs(values) ** p @ mass) ** (1.0 / p)


def testing_constant(model: DyadicModel, a: CoefficientFamily, p, q):
    """Largest cube-normalized norm of the truncated operator on indicators.

    Returns (B, witness id).  Cubes of zero mu-mass are skipped (their
    testing inequality is 0 <= 0); if no cube has positive mass the constant
    is 0 with no witness.  Ties go to the earliest cube in document order.
    """
    Exponents(p, q).require_ordered()
    norms = _indicator_norms(model, a, p, q)
    pos = model.mu_node > 0
    ratio = np.zeros(model.n_nodes)
    ratio[pos] = norms[pos] ** (1.0 / p) / model.mu_node[pos] ** (1.0 / p)
    k = int(np.argmax(ratio))  # the first maximum; a NaN wins and surfaces in B
    if ratio[k] == 0.0:
        return 0.0, None
    return float(ratio[k]), model.ids[k]


@dataclass(frozen=True)
class NormSearch:
    """Budgets for the operator-norm lower-bound search.

    Indicators of all cubes are always tried (they alone certify B <= A);
    the random candidates and the coordinate ascent probe beyond them.
    """

    n_random: int = 200
    ascent_rounds: int = 50
    seed: int = 0
    factors: tuple = (0.0, 0.25, 0.5, 0.8, 1.25, 2.0, 4.0)


def _indicator_rows(model):
    rows = np.zeros((model.n_nodes, model.n_leaves))
    for k in range(model.n_nodes):
        rows[k, model.leaf_lo[k]:model.leaf_hi[k]] = 1.0
    return rows


def _ratios(model, a, F, p, q):
    out_norm = _norms_batch(model, _apply_batch(model, a, F, q), p, NU)
    in_norm = _norms_batch(model, F, p, MU)
    ratios = np.where(in_norm > 0, out_norm / np.where(in_norm > 0, in_norm, 1.0), -1.0)
    return ratios, in_norm


def operator_norm_lower(model: DyadicModel, a: CoefficientFamily, p, q,
                        search: Optional[NormSearch] = None):
    """Certified lower bound for the L^p(mu) -> L^p(nu) operator norm.

    Maximizes |Mf|_p,nu / |f|_p,mu over cube indicators, seeded random
    nonnegative functions (heavy-tailed, independent substream each), and a
    greedy single-coordinate ascent from the best candidate.  Deterministic
    for a fixed search config.  Returns (A_lower, witness function with unit
    mu-norm).
    """
    Exponents(p, q).require_ordered()
    search = search or NormSearch()

    candidates = [_indicator_rows(model), np.ones((1, model.n_leaves))]
    if search.n_random > 0:
        streams = np.random.SeedSequence(search.seed).spawn(search.n_random)
        rand = np.stack([
            np.random.default_rng(s).pareto(1.5, model.n_leaves) for s in streams
        ])
        candidates.append(rand)
    F = np.vstack(candidates)
    ratios, in_norms = _ratios(model, a, F, p, q)
    if np.all(in_norms == 0):
        raise ValueError("all candidates have zero mu-norm")
    best_idx = int(np.argmax(ratios))
    best_ratio = float(ratios[best_idx])
    best_f = F[best_idx].copy()

    factors = np.asarray(search.factors, dtype=float)
    for _ in range(search.ascent_rounds):
        scale = best_f.max()
        trial_vals = []
        cols = []
        for j in range(model.n_leaves):
            v = best_f[j]
            vals = set((v * factors).tolist())
            vals.update((0.0, scale, 0.5 * scale))
            vals.discard(v)
            for w in sorted(vals):
                trial_vals.append(w)
                cols.append(j)
        if not trial_vals:
            break
        trials = np.repeat(best_f[None, :], len(trial_vals), axis=0)
        trials[np.arange(len(trial_vals)), cols] = trial_vals
        t_ratios, _ = _ratios(model, a, trials, p, q)
        t_best = int(np.argmax(t_ratios))
        if t_ratios[t_best] <= best_ratio * (1 + 1e-12):
            factors = np.sqrt(factors)
            nonzero = factors[factors > 0]
            if nonzero.size == 0 or np.max(np.abs(nonzero - 1.0)) < 1e-8:
                break
            continue
        best_ratio = float(t_ratios[t_best])
        best_f = trials[t_best]

    norm = lp_norm(model, best_f, p, MU)
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

    def record(self, instance_id: str = "") -> dict:
        """One flat line-record for batch sweep reports."""
        return {
            "instance": instance_id,
            "p": self.p,
            "q": "inf" if self.q == math.inf else self.q,
            "B": self.B,
            "A_lower": self.A_lower,
            "C_p": self.C_p,
            "margin_lower": self.margins[0],
            "margin_upper": self.margins[1],
            "witness_cube": self.witness_cube,
        }


def verify_theorem(model: DyadicModel, a: CoefficientFamily, p, q,
                   search: Optional[NormSearch] = None, *, rtol: float = 1e-9,
                   c_p: Optional[float] = None) -> ConstantsReport:
    """Check B <= A_lower <= C(p) * B on one instance.

    Raises :class:`VerificationError` on a sandwich violation, which the
    characterization theorem rules out for a correct implementation.  The
    ``c_p`` override exists for fault-injection tests only.
    """
    Exponents(p, q).require_ordered()
    B, witness_cube = testing_constant(model, a, p, q)
    try:
        A_lower, witness_f = operator_norm_lower(model, a, p, q, search)
    except ValueError:
        A_lower, witness_f = 0.0, None  # degenerate mu: estimate vacuously 0
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

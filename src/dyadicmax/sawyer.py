"""Reduction of the three-measure weighted maximal estimate to two measures.

The classical weighted maximal operator integrates against a base measure
omega and is tested from L^p of a target measure that is absolutely
continuous with density w.  Substituting g = w^(p'/p) f and switching to the
deformed measure w^(-p'/p) omega turns that estimate into the two-measure
estimate for the generalized operator with coefficients omega(Q)^(-alpha),
term by term and norm by norm.  This module performs the substitution and
verifies the identities exactly on finite models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import VerificationError, _check_rtol, holder_conjugate
from .lattice import (DyadicModel, RandomModelParams, _check_p, _check_q,
                      _lp_rows, _read_json, _write_json, as_leaf_function,
                      build_model, indicator, leaf_values, model_to_dict, random_model)
from .maximal import (CoefficientFamily, _apply_levels, _check_alpha, _classical_scalars,
                      apply_maximal, apply_truncated, classical_coefficients)

__all__ = [
    "SawyerInstance",
    "ReducedSystem",
    "ReductionReport",
    "ReductionError",
    "reduce_three_to_two",
    "verify_reduction",
    "truncation_restriction_gap",
    "random_instance",
    "read_instance",
    "write_instance",
]


class ReductionError(ValueError):
    """The instance admits no finite reduced measure."""


@dataclass
class SawyerInstance:
    """Tree shape with target measure nu, base measure omega, density w.

    The model's own mu masses are ignored here; only its shape and nu
    matter.  ``w`` is the density of the testing-side measure with respect
    to omega, ``alpha`` the exponent of the classical coefficients.  omega
    and w are checked as the model's masses are, naming a bad value's leaf.
    """

    model: DyadicModel
    omega_leaf: np.ndarray
    w_leaf: np.ndarray
    alpha: float
    p: float

    def __post_init__(self):
        self.omega_leaf = self.model._checked_masses(self.omega_leaf, "omega")
        self.w_leaf = self.model._checked_masses(self.w_leaf, "w")
        self.alpha = _check_alpha(self.alpha)
        self.p = _check_p(self.p)  # JSON's "2", true or null is no number

    @property
    def target_leaf(self):
        """Masses of the testing-side measure: w * omega per atom."""
        return self.w_leaf * self.omega_leaf


@dataclass
class ReducedSystem:
    """Output of the change of weight: measure, coefficients, substitution."""

    mu_leaf: np.ndarray
    coefficients: CoefficientFamily
    multiplier: np.ndarray    # g = multiplier * f, leafwise

    def transform(self, f):
        """g = multiplier * f, f checked as a leaf function of the instance's model."""
        return as_leaf_function(self.coefficients.model, f) * self.multiplier


def reduce_three_to_two(inst: SawyerInstance) -> ReducedSystem:
    """Change of weight sending the three-measure estimate to two measures.

    The reduced measure is w^(-p'/p) * omega per atom (0 where omega
    vanishes); atoms with positive omega but zero density would receive
    infinite mass and are rejected.  So is an atom where the reduced mass,
    the multiplier w^(p'/p) or its own coefficient omega^(-alpha) overflows,
    the largest coefficient on its path: every cube with an infinite
    coefficient holds such an atom.  The mass, the multiplier and the
    coefficients are built from the instance's fields on each call, and all
    three are read-only.
    """
    mu, multiplier = _reduced_measure(inst)
    a = classical_coefficients(inst.model, inst.omega_leaf, inst.alpha)
    return ReducedSystem(mu_leaf=mu, coefficients=a, multiplier=multiplier)


def _reduced_measure(inst):
    """The reduced mass and the multiplier of ``reduce_three_to_two``, checked."""
    exponent = holder_conjugate(inst.p) / inst.p
    omega = inst.omega_leaf
    w = inst.w_leaf
    bad = (omega > 0) & (w == 0)
    if np.logical_or.reduce(bad):
        leaf = inst.model.leaf_ids[int(bad.argmax())]
        raise ReductionError(
            f"leaf {leaf!r} has positive omega but zero density: "
            "reduced measure would be infinite"
        )
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mu = np.where(omega > 0, np.where(w > 0, w, 1.0) ** (-exponent) * omega, 0.0)
        multiplier = np.where(w > 0, w ** exponent, 0.0)
        own_coef = np.where(omega > 0, omega, 1.0) ** (-inst.alpha)
    finite = np.isfinite(mu) & np.isfinite(multiplier) & np.isfinite(own_coef)
    if not np.logical_and.reduce(finite):
        j = int(finite.argmin())
        raise ReductionError(
            f"leaf {inst.model.leaf_ids[j]!r}: the reduced mass, the multiplier or the "
            f"coefficient is not a finite number (omega = {float(omega[j])!r}, "
            f"w = {float(w[j])!r})"
        )
    mu.setflags(write=False)
    multiplier.setflags(write=False)
    return mu, multiplier


@dataclass
class ReductionReport:
    """Exactness diagnostics for one reduction, all relative errors."""

    integral_rel_error: float      # max over cubes: int_Q g dmu vs int_Q f domega
    operator_rel_error: float      # pointwise operator match
    norm_rel_error: float          # |g|_p,mu vs |f|_p,target
    ratio_lhs: Optional[float]     # operator-norm ratio, two-measure side
    ratio_rhs: Optional[float]     # same ratio, three-measure side
    ok: bool


def _rel_gap(x, y):
    scale = max(abs(x), abs(y), 1e-300)
    return abs(x - y) / scale


def verify_reduction(inst: SawyerInstance, f, q, *, rtol: float = 1e-12,
                     strict: bool = True, _reduced=None) -> ReductionReport:
    """Check that the substitution preserves integrals, operators and norms.

    Identity (i): integrals of g against the reduced measure match integrals
    of f against omega on every cube, hence the generalized operator of g
    matches the classical weighted operator of f pointwise.  Identity (ii):
    the L^p norms agree.  Violations beyond ``rtol`` (finite, >= 0) raise
    unless ``strict=False``; an error that is not a finite number fails.

    Everything runs on the instance's own model: each side's integrals are
    subtree sums of its masses times its function, and the operator and the
    norms read those masses directly, with no model copy per measure.
    ``_reduced`` lets a caller that checks several q at one p compute once
    what ``reduce_three_to_two`` derives from the instance: the reduced mass
    and the multiplier (``_reduced_measure``) and the entries of the
    coefficients (``maximal._classical_scalars``).  A family, and with it its
    level table, is built for each side and dropped before the next.
    """
    model, p, q = inst.model, inst.p, _check_q(q)
    rtol = _check_rtol(rtol)
    f = as_leaf_function(model, f, nonneg=True)
    if _reduced is None:
        _reduced = (*_reduced_measure(inst),
                    _classical_scalars(model, inst.omega_leaf, inst.alpha))
    mu, multiplier, scalars = _reduced
    largest = np.maximum.reduce

    # an overflow (g = f * w^(p'/p) can exceed the floats) shows as a non-finite error
    with np.errstate(over="ignore", invalid="ignore"):
        g = f * multiplier
        # each side's operator from a family of its own: its table of terms and
        # the family's level table are dropped before the next side is built,
        # and both sides before the cube integrals
        m_two, m_three = (_apply_levels(model, CoefficientFamily(model, scalars), h, q, mass=mass)
                          for h, mass in ((g, mu), (f, inst.omega_leaf)))
        mscale = max(largest(m_two), largest(m_three), 1e-300)
        operator_err = float(largest(np.abs(m_two - m_three)) / mscale)

        ints_two, ints_three = model._subtree_sums(np.array((g * mu, f * inst.omega_leaf)))
        scale = max(largest(np.abs(ints_two)), largest(np.abs(ints_three)), 1e-300)
        integral_err = float(largest(np.abs(ints_two - ints_three)) / scale)

        norm_two = float(_lp_rows(g, mu, p))
        norm_three = float(_lp_rows(f, inst.target_leaf, p))
        norm_err = _rel_gap(norm_two, norm_three)

        ratio_lhs = ratio_rhs = None
        if norm_two > 0 and norm_three > 0:
            ratio_lhs = float(_lp_rows(m_two, model.nu_leaf, p)) / norm_two
            ratio_rhs = float(_lp_rows(m_three, model.nu_leaf, p)) / norm_three

    ok = all(math.isfinite(err) and err <= rtol
             for err in (integral_err, operator_err, norm_err))
    report = ReductionReport(
        integral_rel_error=integral_err,
        operator_rel_error=operator_err,
        norm_rel_error=norm_err,
        ratio_lhs=ratio_lhs, ratio_rhs=ratio_rhs, ok=ok,
    )
    if strict and not ok:
        raise VerificationError(
            f"reduction identity violated: integrals {integral_err:.3e}, "
            f"operator {operator_err:.3e}, norms {norm_err:.3e}", report)
    return report


def truncation_restriction_gap(model: DyadicModel, a: CoefficientFamily, Q) -> float:
    """Max gap between the truncation at Q and the restricted full operator.

    Compares the operator truncated to subcubes of Q, applied to 1_Q, with
    1_Q times the full operator of 1_Q, both at q = inf.  For classical
    coefficients the two agree atom by atom (coefficients shrink along
    ancestors); the gap is measured, not assumed.
    """
    one_q = indicator(model, Q)
    truncated = apply_truncated(model, a, one_q, math.inf, Q)
    full = apply_maximal(model, a, one_q, math.inf) * one_q
    scale = max(np.max(truncated), np.max(full), 1e-300)
    return float(np.max(np.abs(truncated - full)) / scale)


# ---------------------------------------------------------------------------
# instance generation and files


def _draw_instance(model, rng, p=None) -> SawyerInstance:
    """omega (exponential, 10 % zeros), w (lognormal), alpha and, unless given, p."""
    omega = rng.exponential(1.0, model.n_leaves)
    omega = np.where(rng.random(model.n_leaves) < 0.1, 0.0, omega)
    w = rng.lognormal(0.0, 1.0, model.n_leaves)
    alpha = float(rng.uniform(0.05, 1.0))
    p = float(p) if p is not None else float(rng.uniform(1.2, 4.0))
    return SawyerInstance(model=model, omega_leaf=omega, w_leaf=w, alpha=alpha, p=p)


def random_instance(seed: int, params: Optional[RandomModelParams] = None,
                    p: Optional[float] = None) -> SawyerInstance:
    """Deterministic random instance; densities are strictly positive."""
    params = params or RandomModelParams(zero_prob_mu=0.1, zero_prob_nu=0.1)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5A]))
    return _draw_instance(random_model(params, seed), rng, p)


def instance_to_dict(inst: SawyerInstance) -> dict:
    data = model_to_dict(inst.model)
    data["omega"] = dict(zip(inst.model.leaf_ids, inst.omega_leaf.tolist()))
    data["w"] = dict(zip(inst.model.leaf_ids, inst.w_leaf.tolist()))
    data["alpha"] = float(inst.alpha)
    data["p"] = float(inst.p)
    return data


def write_instance(inst: SawyerInstance, path) -> None:
    _write_json(instance_to_dict(inst), path)


def _instance_from_dict(data, p: Optional[float] = None) -> SawyerInstance:
    """The instance that a file's JSON value describes.

    An absent ``omega`` is ``mu``, an absent ``w`` is 1 and an absent
    ``alpha`` is 0.5; ``p`` overrides the stored exponent, which defaults to 2.
    """
    model = build_model(data)
    omega, w = data.get("omega"), data.get("w")
    return SawyerInstance(
        model=model,
        omega_leaf=model.mu_leaf if omega is None else leaf_values(model, omega, "omega"),
        w_leaf=np.ones(model.n_leaves) if w is None else leaf_values(model, w, "w"),
        alpha=data.get("alpha", 0.5), p=p if p is not None else data.get("p", 2.0))


def read_instance(path, *, p: Optional[float] = None) -> SawyerInstance:
    """Load a Sawyer instance file; ``p`` overrides the stored exponent.

    Errors in the file's content raise ``ModelError`` naming the file.
    """
    return _read_json(path, lambda data: _instance_from_dict(data, p))

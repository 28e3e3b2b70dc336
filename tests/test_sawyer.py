import json
import math
import re
from dataclasses import astuple, replace

import numpy as np
import pytest

from dyadicmax import (CoefficientFamily, ModelError, ReductionError,
                       SawyerInstance, VerificationError,
                       apply_maximal, build_model, classical_coefficients,
                       lp_norm, reduce_three_to_two, truncation_restriction_gap,
                       verify_reduction)
from dyadicmax.sawyer import random_instance, read_instance, write_instance

from _reference import ref_verify_reduction
from conftest import INF


@pytest.fixture
def unit_leaf():
    return build_model({"nodes": [{"id": "L", "parent": None}],
                        "mu": {"L": 1}, "nu": {"L": 1}})


def test_reduce_single_leaf(unit_leaf):
    inst = SawyerInstance(model=unit_leaf, omega_leaf=[1.0], w_leaf=[4.0],
                          alpha=1.0, p=2.0)
    red = reduce_three_to_two(inst)
    assert red.mu_leaf[0] == pytest.approx(0.25, rel=1e-15)
    assert red.multiplier[0] == pytest.approx(4.0, rel=1e-15)
    assert np.allclose(red.transform([3.0]), [12.0])


def test_reduce_unit_density_is_identity(deep_model):
    omega = np.array([0.5, 2.0, 1.0, 0.25, 3.0])
    inst = SawyerInstance(model=deep_model, omega_leaf=omega,
                          w_leaf=np.ones(5), alpha=0.7, p=1.8)
    red = reduce_three_to_two(inst)
    assert np.allclose(red.mu_leaf, omega, rtol=1e-15)
    assert np.allclose(red.multiplier, 1.0)


def test_reduce_null_omega_leaf(unit_leaf):
    inst = SawyerInstance(model=unit_leaf, omega_leaf=[0.0], w_leaf=[7.0],
                          alpha=0.5, p=2.0)
    red = reduce_three_to_two(inst)
    assert red.mu_leaf[0] == 0.0


def test_reduce_rejects_infinite_measure(unit_leaf):
    inst = SawyerInstance(model=unit_leaf, omega_leaf=[1.0], w_leaf=[0.0],
                          alpha=0.5, p=2.0)
    with pytest.raises(ReductionError, match="zero density"):
        reduce_three_to_two(inst)


@pytest.mark.parametrize("omega, w, alpha", [
    (1.0, 1e-300, 0.5),   # reduced mass 1e300^(p'/p) overflows
    (1.0, 1e300, 0.5),    # the multiplier overflows
    (5e-324, 1.0, 1.0),   # the coefficient omega^-alpha overflows
])
def test_reduce_rejects_non_finite_systems(deep_model, omega, w, alpha):
    # RuntimeWarnings are errors in this suite, so none may escape either
    omegas, ws = np.ones(5), np.ones(5)
    omegas[3], ws[3] = omega, w
    inst = SawyerInstance(model=deep_model, omega_leaf=omegas, w_leaf=ws,
                          alpha=alpha, p=1.5)
    leaf = deep_model.leaf_ids[3]
    with pytest.raises(ReductionError, match=f"leaf {leaf!r}: .* not a finite number"):
        reduce_three_to_two(inst)
    with pytest.raises(ReductionError):
        verify_reduction(inst, np.ones(5), INF, strict=False)


def test_reduce_overflow_where_omega_vanishes_is_quiet(deep_model):
    # w^(-p'/p) overflows, but omega = 0 there gives mass 0: no inf * 0 warning
    inst = SawyerInstance(model=deep_model, omega_leaf=[1, 1, 0, 1, 1],
                          w_leaf=[1, 1, 1e-300, 1, 1], alpha=0.5, p=1.5)
    red = reduce_three_to_two(inst)
    assert red.mu_leaf[2] == 0.0 and np.all(np.isfinite(red.mu_leaf))


def test_reduction_is_built_once_per_instance_and_p():
    # a copy with other omega, w, alpha or p, or an omega changed in place,
    # is never served a stale reduction
    inst = random_instance(3, p=2.0)
    first = reduce_three_to_two(inst)
    assert not first.mu_leaf.flags.writeable and not first.multiplier.flags.writeable
    omega = inst.omega_leaf.copy()
    omega[0] += 1.0
    changed = {"alpha": replace(inst, alpha=inst.alpha / 2),
               "omega": replace(inst, omega_leaf=omega),
               "w": replace(inst, w_leaf=2.0 * inst.w_leaf), "p": replace(inst, p=3.0)}
    for name, other in changed.items():
        got = reduce_three_to_two(other)
        fresh = reduce_three_to_two(SawyerInstance(other.model, other.omega_leaf.copy(),
                                                   other.w_leaf.copy(), other.alpha, other.p))
        assert np.array_equal(got.mu_leaf, fresh.mu_leaf), name
        assert np.array_equal(got.multiplier, fresh.multiplier), name
        assert got.coefficients.to_mapping() == fresh.coefficients.to_mapping(), name
    inst.omega_leaf[0] += 1.0
    again = reduce_three_to_two(inst)
    assert again.coefficients.to_mapping() == classical_coefficients(
        inst.model, inst.omega_leaf, inst.alpha).to_mapping()
    assert again.coefficients.to_mapping() != first.coefficients.to_mapping()


def test_verify_reduction_single_leaf(unit_leaf):
    inst = SawyerInstance(model=unit_leaf, omega_leaf=[1.0], w_leaf=[4.0],
                          alpha=1.0, p=2.0)
    red = reduce_three_to_two(inst)
    g = red.transform([3.0])
    model_two = unit_leaf.with_measures(mu_leaf=red.mu_leaf)
    assert lp_norm(model_two, g, 2, "mu") == pytest.approx(6.0, rel=1e-15)
    target = unit_leaf.with_measures(mu_leaf=inst.target_leaf)
    assert lp_norm(target, [3.0], 2, "mu") == pytest.approx(6.0, rel=1e-15)
    rep = verify_reduction(inst, [3.0], INF)
    assert rep.ok and rep.norm_rel_error < 1e-15


def test_verify_reduction_identity_density(deep_model):
    inst = SawyerInstance(model=deep_model,
                          omega_leaf=[0.5, 2.0, 1.0, 0.25, 3.0],
                          w_leaf=np.ones(5), alpha=1.0, p=2.5)
    rep = verify_reduction(inst, [1, 2, 3, 4, 5], INF)
    assert rep.ok


def test_verify_reduction_random_instances():
    rng = np.random.default_rng(2024)
    for seed in range(40):
        inst = random_instance(seed)
        f = rng.exponential(1.0, inst.model.n_leaves)
        for q in (inst.p, 2 * inst.p, INF):
            rep = verify_reduction(inst, f, q)
            assert rep.ok, (seed, q)


def test_verify_reduction_matches_the_model_copy_reference():
    # the same report, bit for bit, as three with_measures models, apply_maximal
    # and lp_norm give on the instances above
    rng = np.random.default_rng(2024)
    for seed in range(40):
        inst = random_instance(seed)
        f = rng.exponential(1.0, inst.model.n_leaves)
        for q in (inst.p, 2 * inst.p, INF):
            got = astuple(verify_reduction(inst, f, q, strict=False))
            want = astuple(ref_verify_reduction(inst, f, q))
            assert got == want, (seed, q)
            assert [type(x) for x in got] == [type(x) for x in want], (seed, q)


@pytest.mark.parametrize("field, value", [("alpha", "0.5"), ("alpha", True), ("p", "2.0"),
                                          ("p", True)])
def test_instance_numbers_written_as_strings_or_booleans_rejected(deep_model, field, value):
    fields = dict(model=deep_model, omega_leaf=np.ones(5), w_leaf=np.ones(5), alpha=0.5, p=2.0)
    with pytest.raises(ValueError, match=f"{field} must be a .*number.*got {value!r}"):
        SawyerInstance(**{**fields, field: value})


@pytest.mark.parametrize("alpha", [True, "0.5", None, 0, 1.5])
def test_one_alpha_rule_for_the_coefficients_and_the_instance(deep_model, alpha):
    # True must not count as alpha = 1, nor "0.5" fail with a TypeError
    message = re.escape(f"alpha must be a number in (0, 1], got {alpha!r}")
    with pytest.raises(ValueError, match=message):
        classical_coefficients(deep_model, np.ones(5), alpha)
    with pytest.raises(ValueError, match=message):
        SawyerInstance(model=deep_model, omega_leaf=np.ones(5), w_leaf=np.ones(5),
                       alpha=alpha, p=2.0)


@pytest.mark.parametrize("key", ["omega", "w"])
@pytest.mark.parametrize("value, message", [
    (-1.0, "{key} mass of leaf '{leaf}' is negative"),
    (math.inf, "{key} mass of leaf '{leaf}' is not a finite number"),
    (math.nan, "{key} mass of leaf '{leaf}' is not a finite number"),
], ids=["negative", "infinite", "nan"])
def test_instance_masses_name_the_leaf(deep_model, key, value, message):
    values = np.ones(5)
    values[3] = value
    fields = dict(model=deep_model, omega_leaf=np.ones(5), w_leaf=np.ones(5), alpha=0.5, p=2.0)
    message = re.escape(message.format(key=key, leaf=deep_model.leaf_ids[3]))
    with pytest.raises(ModelError, match=message):
        SawyerInstance(**{**fields, f"{key}_leaf": values})
    if key == "omega":  # the classical coefficients read omega by the same rule
        with pytest.raises(ModelError, match=message):
            classical_coefficients(deep_model, values, 0.5)


def test_transform_checks_f_as_a_leaf_function(deep_model):
    # np.asarray broadcast a column against the multiplier, converted strings
    # and let NaN through
    red = reduce_three_to_two(SawyerInstance(deep_model, np.ones(5), np.full(5, 4.0), 0.5, 2.0))
    assert red.transform([1, 2, 3, 4, 5]).tolist() == [4.0, 8.0, 12.0, 16.0, 20.0]
    with pytest.raises(ValueError, match=re.escape("need one function value per leaf")):
        red.transform(np.arange(5.0)[:, None])
    leaf = deep_model.leaf_ids[1]
    with pytest.raises(ValueError, match=re.escape(f"leaf '{deep_model.leaf_ids[0]}' is not a "
                                                   "finite number, got [1]")):
        red.transform([[1], [2], [3], [4], [5]])  # a list entry is no number
    for bad in ("2", math.nan):
        with pytest.raises(ValueError, match=f"function value of leaf '{leaf}' is not a finite"):
            red.transform([1, bad, 3, 4, 5])


@pytest.mark.parametrize("rtol", [math.inf, math.nan, -1.0])
def test_verify_reduction_rejects_a_bad_rtol(rtol):
    # an infinite rtol would pass every finite error, and NaN or -1 fail every check
    inst = random_instance(3)
    with pytest.raises(ValueError, match="rtol must be finite and >= 0"):
        verify_reduction(inst, np.ones(inst.model.n_leaves), INF, rtol=rtol, strict=False)


@pytest.mark.parametrize("key", ["omega", "w"])
def test_read_instance_rejects_a_string_mass(tmp_path, key):
    inst = random_instance(1)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    data = json.loads(path.read_text())
    leaf = inst.model.leaf_ids[-1]
    data[key][leaf] = "1.5"
    path.write_text(json.dumps(data))
    with pytest.raises(ModelError, match=f"{key} mass of leaf '{leaf}' is not a finite number"):
        read_instance(path)


def test_verify_reduction_nan_error_never_passes(monkeypatch):
    # max(1e-16, nan) is 1e-16: a NaN must fail on its own, whatever its
    # position.  The operator runs once per side, the two-measure side first;
    # a NaN goes into that side's first atom alone
    import dyadicmax.sawyer as sawyer
    lq_rows = sawyer._lq_rows
    sides = []

    def with_nan(*args, **kwargs):
        out = lq_rows(*args, **kwargs)
        if len(sides) % 2 == 0:
            out[0] = math.nan
        sides.append(out.shape)
        return out

    monkeypatch.setattr(sawyer, "_lq_rows", with_nan)
    inst = random_instance(3)
    f = np.ones(inst.model.n_leaves)
    rep = verify_reduction(inst, f, INF, strict=False)
    assert math.isnan(rep.operator_rel_error)
    assert rep.integral_rel_error <= 1e-12 and rep.norm_rel_error <= 1e-12
    assert not rep.ok
    with pytest.raises(VerificationError, match="reduction identity violated"):
        verify_reduction(inst, f, INF)
    assert sides == [(inst.model.n_leaves,)] * 4


def test_verify_reduction_overflow_fails_quietly(deep_model):
    # w^(p'/p) = 1e300 is finite, but g = f * 1e300 overflows at f = 1e10
    inst = SawyerInstance(model=deep_model, omega_leaf=np.ones(5),
                          w_leaf=[1, 1, 1e150, 1, 1], alpha=0.5, p=1.5)
    f = np.full(5, 1e10)
    rep = verify_reduction(inst, f, INF, strict=False)
    assert not rep.ok and math.isnan(rep.integral_rel_error)
    with pytest.raises(VerificationError):
        verify_reduction(inst, f, INF)


def test_ratio_invariance():
    rng = np.random.default_rng(7)
    for seed in range(15):
        inst = random_instance(seed)
        for _ in range(5):
            f = rng.exponential(1.0, inst.model.n_leaves)
            rep = verify_reduction(inst, f, INF, strict=False)
            if rep.ratio_lhs is None:
                continue
            assert rep.ratio_lhs == pytest.approx(rep.ratio_rhs, rel=1e-11)


def test_exponent_identity_symbolic():
    import sympy
    p = sympy.symbols("p", positive=True)
    p_conj = p / (p - 1)
    assert sympy.simplify(p_conj * (1 - 1 / p)) == 1
    for value in (sympy.Rational(3, 2), 2, sympy.Rational(7, 3), 10):
        assert sympy.simplify(p_conj.subs(p, value) * (1 - sympy.Rational(1, 1) / value)) == 1


def test_truncation_matches_restriction_for_classical(e1, deep_model):
    for model in (e1, deep_model):
        omega = np.abs(np.asarray(model.mu_leaf)) + 0.5
        for alpha in (0.3, 1.0):
            a = classical_coefficients(model, omega, alpha)
            for nid in model.ids:
                assert truncation_restriction_gap(model, a, nid) <= 1e-14


def test_truncation_gap_reported_for_growing_coefficients(e1):
    # a family that grows toward the root: the full operator can exceed the
    # truncation on Q, and the gap function must report it rather than hide it
    a = CoefficientFamily.from_mapping(e1, {"Q0": 10.0, "L1": 1.0, "L2": 1.0})
    assert truncation_restriction_gap(e1, a, "L1") > 0.1


def test_instance_file_roundtrip(tmp_path):
    from dyadicmax.sawyer import read_instance, write_instance
    inst = random_instance(5)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    again = read_instance(path)
    assert np.array_equal(again.omega_leaf, inst.omega_leaf)
    assert np.array_equal(again.w_leaf, inst.w_leaf)
    assert again.alpha == inst.alpha and again.p == inst.p
    override = read_instance(path, p=3.5)
    assert override.p == 3.5


def test_verify_reduction_sides_one_at_a_time_match_the_stacked_form_bit_for_bit(tmp_path):
    # each side's table of terms on its own gives the five figures, the ratios
    # included, of the two sides stacked into one table, on the acceptance
    # sweep's trees and on a caterpillar
    from dyadicmax.cli import SweepConfig, _load_instance, cmd_generate
    from dyadicmax.lattice import _lp_rows, _lq_rows
    from dyadicmax.maximal import _classical_scalars, _level_terms
    from dyadicmax.sawyer import SawyerInstance, _reduced_measure
    from conftest import caterpillar

    paths = cmd_generate(SweepConfig(trials=48, seed=0, depth_max=4, branch_max=3,
                                     out=str(tmp_path)))
    insts = [_load_instance(path)[0] for path in paths]
    deep = caterpillar(200)
    rng = np.random.default_rng(9)
    insts.append(SawyerInstance(model=deep, omega_leaf=rng.exponential(1.0, deep.n_leaves),
                                w_leaf=rng.lognormal(0.0, 1.0, deep.n_leaves), alpha=0.4,
                                p=2.0))
    for k, base in enumerate(insts):
        model = base.model
        f = np.random.default_rng(k).exponential(1.0, model.n_leaves)
        for p in (1.5, 2.0, 3.0):
            inst = replace(base, p=p)
            for q in (p, 2 * p, INF):
                rep = verify_reduction(inst, f, q, strict=False)
                mu, multiplier = _reduced_measure(inst)
                a = CoefficientFamily(model, _classical_scalars(model, inst.omega_leaf,
                                                                inst.alpha))
                g = f * multiplier
                rows = np.array((g * mu, f * inst.omega_leaf))
                m_two, m_three = _lq_rows(_level_terms(model, a, rows), q, axis=-2)
                scale = max(m_two.max(), m_three.max(), 1e-300)
                assert rep.operator_rel_error == float(np.abs(m_two - m_three).max() / scale)
                norm_two = float(_lp_rows(g, mu, p))
                norm_three = float(_lp_rows(f, inst.target_leaf, p))
                if norm_two > 0 and norm_three > 0:
                    assert rep.ratio_lhs == float(_lp_rows(m_two, model.nu_leaf, p)) / norm_two
                    assert rep.ratio_rhs == (float(_lp_rows(m_three, model.nu_leaf, p))
                                             / norm_three)
                else:
                    assert rep.ratio_lhs is None and rep.ratio_rhs is None
                ints = model._subtree_sums(rows)
                iscale = max(np.abs(ints[0]).max(), np.abs(ints[1]).max(), 1e-300)
                assert rep.integral_rel_error == float(np.abs(ints[0] - ints[1]).max() / iscale)
                assert rep.norm_rel_error == abs(norm_two - norm_three) / max(
                    abs(norm_two), abs(norm_three), 1e-300)

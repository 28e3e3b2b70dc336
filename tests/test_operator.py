import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicmax import (CoefficientFamily, ModelError, apply_depth_truncated, apply_maximal,
                       apply_truncated, build_model, classical_coefficients, indicator,
                       lp_norm, read_coefficients, write_coefficients)
from dyadicmax.lattice import _lq_rows
from dyadicmax.maximal import (_apply_by_label, _apply_levels, _indicator_norms,
                              _indicator_ratios, _level_terms, _suffix_table)
from dyadicmax.stopping import build_decomposition

from _reference import (ref_apply_by_label, ref_depth_truncated, ref_indicator_norms,
                        ref_indicator_ratios, ref_leaf_levels, ref_level_terms, ref_maximal,
                        ref_subtree_sums, ref_truncated)
from conftest import INF, caterpillar, make_instance, random_nonneg


@pytest.fixture
def ones(e1):
    return CoefficientFamily.constant(e1)


def test_maximal_examples(e1, ones):
    assert np.allclose(apply_maximal(e1, ones, [1, 1], INF).values, [2, 2])
    assert np.allclose(apply_maximal(e1, ones, [1, 1], 2).values,
                       [math.sqrt(5), math.sqrt(5)])
    assert np.all(apply_maximal(e1, ones, [0, 0], 3).values == 0)


def test_maximal_rejects_bad_q(e1, ones):
    with pytest.raises(ValueError):
        apply_maximal(e1, ones, [1, 1], 1.0)


def test_maximal_rejects_non_finite_f(e1, ones):
    with pytest.raises(ValueError, match="finite"):
        apply_maximal(e1, ones, [1, math.nan], INF)


def test_coefficients_must_cover_all_nodes(e1):
    with pytest.raises(ValueError, match="missing"):
        CoefficientFamily.from_mapping(e1, {"Q0": 1.0, "L1": 1.0})
    with pytest.raises(ValueError):
        CoefficientFamily.from_mapping(e1, {"Q0": -1.0, "L1": 1.0, "L2": 1.0})


@pytest.mark.parametrize("mapping, match", [
    ({"Q0": "2.0", "L1": True, "L2": {"L2": "3"}}, "coefficient for 'Q0' must be finite >= 0$"),
    ({"Q0": 2.0, "L1": True, "L2": {"L2": "3"}}, "coefficient for 'L1' must be finite >= 0$"),
    ({"Q0": 2.0, "L1": 1, "L2": {"L2": "3"}},
     "coefficient for 'L2' must be finite >= 0 at leaf 'L2'"),
    ({"Q0": {"L1": 1.0, "L2": False}, "L1": 1, "L2": 1.0},
     "coefficient for 'Q0' must be finite >= 0 at leaf 'L2'"),
])
def test_coefficients_written_as_strings_or_booleans_rejected(e1, mapping, match):
    with pytest.raises(ModelError, match=match):
        CoefficientFamily.from_mapping(e1, mapping)


def test_coefficient_keys_that_are_not_strings_read_as_their_str():
    model = build_model({"nodes": [{"id": "1", "parent": None}, {"id": "2", "parent": "1"},
                                   {"id": "3", "parent": "1"}],
                         "mu": {"2": 1, "3": 1}, "nu": {"2": 1, "3": 1}})
    fam = CoefficientFamily.from_mapping(model, {1: {2: 0.5, "3": 4.0}, "2": 1.0, 3: 2.0})
    assert fam.entry(0).tolist() == [0.5, 4.0] and fam.entry(2) == 2.0


def test_truncated_examples(e1, ones):
    assert np.allclose(apply_truncated(e1, ones, [1, 1], INF, "L1").values, [1, 0])
    assert np.allclose(apply_truncated(e1, ones, [1, 1], INF, "Q0").values, [2, 2])
    with pytest.raises(KeyError):
        apply_truncated(e1, ones, [1, 1], INF, "nope")


def test_truncated_null_subtree():
    from dyadicmax import build_model
    model = build_model({
        "nodes": [
            {"id": "R", "parent": None},
            {"id": "A", "parent": "R"}, {"id": "B", "parent": "R"},
            {"id": "a1", "parent": "A"}, {"id": "a2", "parent": "A"},
        ],
        "mu": {"a1": 0, "a2": 0, "B": 2},
        "nu": {"a1": 1, "a2": 1, "B": 1},
    }, min_children=2)
    a = CoefficientFamily.constant(model)
    out = apply_truncated(model, a, [5, 7, 1], INF, "A").values
    assert np.all(out == 0)


def test_depth_truncated_examples(e1, ones):
    assert np.allclose(apply_depth_truncated(e1, ones, [1, 1], INF, 0).values, [2, 2])
    assert np.allclose(apply_depth_truncated(e1, ones, [1, 1], INF, 1).values, [1, 1])
    with pytest.raises(ValueError):
        apply_depth_truncated(e1, ones, [1, 1], INF, 2)


@pytest.mark.parametrize("n_start", [1.5, -1, 2, np.float64(1.0), "1", None])
def test_apply_depth_truncated_rejects_a_bad_n_start(e1, ones, n_start):
    # e1 has depth 1; a float used to fail later as a slice index
    with pytest.raises(ValueError, match=r"n_start must be an integer in \[0, 1\]"):
        apply_depth_truncated(e1, ones, [1, 1], INF, n_start)


def test_depth_truncation_monotone(e1, ones):
    prev = apply_depth_truncated(e1, ones, [1, 1], 2, 0).values
    for n in range(1, e1.max_depth + 1):
        cur = apply_depth_truncated(e1, ones, [1, 1], 2, n).values
        assert np.all(cur <= prev + 1e-15)
        prev = cur


def test_classical_coefficients(e1, single_leaf):
    fam = classical_coefficients(e1, [1, 1], 1.0)
    assert fam.entry(e1.node("Q0")) == 0.5
    assert fam.entry(e1.node("L1")) == 1.0
    half = classical_coefficients(e1, [1, 1], 0.5)
    assert half.entry(e1.node("Q0")) == pytest.approx(2 ** -0.5, rel=1e-15)
    unit = classical_coefficients(single_leaf, [1.0], 1.0)
    assert unit.entry(0) == 1.0


def test_classical_null_omega_gets_zero(e1):
    fam = classical_coefficients(e1, [0, 0], 1.0)
    assert fam.entry(e1.node("Q0")) == 0.0


def test_coefficient_file_roundtrip(tmp_path, deep_model):
    fam = CoefficientFamily.random(deep_model, 9, vector_prob=0.9)
    path = tmp_path / "coeffs.json"
    write_coefficients(fam, path)
    again = read_coefficients(deep_model, path)
    assert fam.to_mapping() == again.to_mapping()


# deep_model's node order: R, A, B, a1, a2, b1, b2, b3
@pytest.mark.parametrize("bad_vector, bad_scalar, named", [("A", "a1", "A"), ("B", "A", "A")])
def test_earliest_bad_coefficient_is_named(deep_model, bad_vector, bad_scalar, named):
    mapping = {nid: 1.0 for nid in deep_model.ids}
    atoms = {"A": ["a1", "a2"], "B": ["b1", "b2", "b3"]}[bad_vector]
    mapping[bad_vector] = {leaf: -1.0 if leaf == atoms[-1] else 1.0 for leaf in atoms}
    mapping[bad_scalar] = math.nan
    with pytest.raises(ValueError, match=f"coefficient for '{named}' must be finite >= 0"):
        CoefficientFamily.from_mapping(deep_model, mapping)


def test_wrong_length_coefficient_vector_is_named(deep_model):
    n = deep_model.n_nodes
    lengths = np.zeros(n, dtype=int)
    lengths[deep_model.node("A")] = 3  # A has two atoms
    lengths[deep_model.node("B")] = 3
    scalars = np.ones(n)
    scalars[deep_model.node("b1")] = -1.0  # a later bad entry is not the one named
    with pytest.raises(ValueError, match=r"vector for 'A' has shape \(3,\), cube has 2 atoms"):
        CoefficientFamily(deep_model, scalars, lengths, np.ones(6))


@pytest.mark.parametrize("length", [1.9, "1", True])
def test_a_vector_length_must_be_an_integer(e1, length):
    # 1.9 was read as the length 1
    message = f"length of node 'L1' must be a 64-bit integer, got {length!r}"
    with pytest.raises(ValueError, match=message):
        CoefficientFamily(e1, [1.0, 1.0, 1.0], [0, length, 0], [1.0])


def test_entry_is_a_float_or_a_read_only_vector(deep_model):
    fam = CoefficientFamily.from_mapping(
        deep_model, {**{nid: 2.0 for nid in deep_model.ids}, "B": {"b3": 3.0, "b1": 1.0}})
    scalar = fam.entry(deep_model.node("A"))
    assert type(scalar) is float and scalar == 2.0  # the demos print entries
    vec = fam.entry(deep_model.node("B"))
    assert vec.tolist() == [1.0, 0.0, 3.0] and not vec.flags.writeable


def test_leaf_level_tables_match_entry_by_entry():
    for seed in range(20):
        model, _ = make_instance(seed, roots=1 + seed % 3, branch_min=1 + seed % 2)
        fam = CoefficientFamily.random(model, seed, vector_prob=0.9, zero_prob=0.05)
        coef = fam._leaf_levels()
        want_anc, want_coef = ref_leaf_levels(model, fam)  # padded with n_nodes
        anc = model._ancestors
        assert np.array_equal(anc, want_anc) and np.array_equal(coef, want_coef)
        assert not anc.flags.writeable and not coef.flags.writeable


def test_ancestor_table_is_shared_by_the_tree():
    # the ancestor table and its path slots are built once per tree shape: a
    # family used with a copy of its model, and a family built on the copy,
    # read the model's own tables
    model, a = make_instance(3)
    f = np.ones(model.n_leaves)
    apply_maximal(model, a, f, 2.0)
    anc, slots = model._ancestors, model._ancestor_sums
    copy = model.with_measures(mu_leaf=2.0 * model.mu_leaf)
    b = classical_coefficients(copy, model.mu_leaf, 0.5)
    apply_maximal(copy, a, f, 2.0)
    apply_maximal(copy, b, f, 2.0)
    assert b.model is copy and copy._ancestors is anc and copy._ancestor_sums is slots
    assert not anc.flags.writeable and not slots.flags.writeable


def _forests():
    """Random forests, unary chains and a caterpillar 40 cubes deep, with
    random masses (some zero) and random coefficient families."""
    cases = [make_instance(seed, roots=1 + seed % 3, branch_min=1 + seed % 2)
             for seed in range(24)]
    rng = np.random.default_rng(40)
    cat = caterpillar(40)
    cat = cat.with_measures(mu_leaf=rng.exponential(1.0, 41) * (rng.random(41) > 0.2),
                            nu_leaf=rng.exponential(1.0, 41))
    cases.append((cat, CoefficientFamily.random(cat, 41)))
    return cases


def test_level_terms_match_the_earlier_forward_path_bit_for_bit():
    # one reduceat from leaf rows to the table, against the integrals in node
    # order, padded with a 0 column and gathered: signed, single and batched F
    for model, a in _forests():
        rng = np.random.default_rng(model.n_nodes)
        signed = rng.normal(size=(4, model.n_leaves))
        signed[0, :2] = -0.0
        for F in (signed, signed[1], np.abs(signed), np.ones(model.n_leaves)):
            rows = F * model.mu_leaf
            sums = ref_subtree_sums(model, rows)
            assert np.array_equal(model._subtree_sums(rows), sums)
            got, want = _level_terms(model, a, rows), ref_level_terms(model, a, sums)
            # the layout too: it sets the order of every later sum over the table
            assert got.strides == want.strides and np.array_equal(got, want)
            for q in (1.5, 4.0, INF):
                assert np.array_equal(_apply_levels(model, a, F, q),
                                      _lq_rows(want, q, axis=-2))


@pytest.mark.parametrize("p, q", [(1.5, 1.5), (2.0, 4.0), (2.0, INF), (3.0, 1e6),
                                  (50.0, 100.0)])
def test_indicator_norms_match_the_earlier_suffixes_bit_for_bit(p, q):
    for model, a in _forests():
        assert np.array_equal(_indicator_norms(model, a, p, _suffix_table(model, a, q)),
                              ref_indicator_norms(model, a, p, q))


@pytest.mark.parametrize("q", [1.5, 4.0, INF])
def test_apply_by_label_matches_a_plain_loop(q):
    # the parts of the stopping blocks, from the root of the forest and from a
    # deeper first generation: same (leaf, label) pairs in the same order
    for model, a in _forests():
        f = random_nonneg(model, model.n_nodes)
        T = _level_terms(model, a, f * model.mu_leaf)
        for n_start in sorted({0, 1, model.max_depth // 2, model.max_depth}):
            labels = build_decomposition(model, f, 1.3, n_start=n_start).owner_index
            leaf, label, values = _apply_by_label(model, T, q, labels)
            want_leaf, want_label, want = ref_apply_by_label(model, a, f, q, labels)
            assert leaf.tolist() == want_leaf and label.tolist() == want_label
            np.testing.assert_allclose(values, want, rtol=1e-12, atol=0)


def test_signed_f_uses_absolute_integrals(e1, ones):
    out = apply_maximal(e1, ones, [1, -1], INF).values
    # root integral cancels to 0; each atom sees only its own term
    assert np.allclose(out, [1, 1])


# -- invariants ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_matches_reference_all_variants(seed):
    model, a = make_instance(seed)
    f = random_nonneg(model, seed + 7) - 0.2
    for q in (1.5, 2, 4, INF):
        got = apply_maximal(model, a, f, q).values
        assert np.allclose(got, ref_maximal(model, a, f, q), rtol=1e-10, atol=1e-12)
    k = seed % model.n_nodes
    got = apply_truncated(model, a, f, 2, model.ids[k]).values
    assert np.allclose(got, ref_truncated(model, a, f, 2, k), rtol=1e-10, atol=1e-12)
    n = seed % (model.max_depth + 1)
    got = apply_depth_truncated(model, a, f, INF, n).values
    assert np.allclose(got, ref_depth_truncated(model, a, f, INF, n),
                       rtol=1e-10, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       q1=st.floats(1.1, 50), q2=st.floats(1.1, 50))
def test_q_monotonicity(seed, q1, q2):
    if q1 < q2:
        q1, q2 = q2, q1
    model, a = make_instance(seed)
    f = random_nonneg(model, seed + 8)
    hi = apply_maximal(model, a, f, q1).values
    lo = apply_maximal(model, a, f, q2).values
    sup = apply_maximal(model, a, f, INF).values
    assert np.all(hi <= lo * (1 + 1e-10) + 1e-12)
    assert np.all(sup <= hi * (1 + 1e-10) + 1e-12)


def test_limit_consistency_large_q():
    for seed in range(20):
        model, a = make_instance(seed)
        f = random_nonneg(model, seed + 9)
        big = apply_maximal(model, a, f, 1e6).values
        sup = apply_maximal(model, a, f, INF).values
        scale = np.maximum(sup, 1e-300)
        assert np.max(np.abs(big - sup) / scale) < 1e-3


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), c=st.floats(0.01, 100))
def test_positive_homogeneity(seed, c):
    model, a = make_instance(seed)
    f = random_nonneg(model, seed + 10) - 0.4
    for q in (2, INF):
        lhs = apply_maximal(model, a, c * f, q).values
        rhs = c * apply_maximal(model, a, f, q).values
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_sublinear(seed):
    model, a = make_instance(seed)
    f = random_nonneg(model, seed + 11) - 0.5
    g = random_nonneg(model, seed + 12) - 0.5
    for q in (1.5, 3, INF):
        both = apply_maximal(model, a, f + g, q).values
        split = apply_maximal(model, a, f, q).values + apply_maximal(model, a, g, q).values
        assert np.all(both <= split * (1 + 1e-10) + 1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_monotone_in_f(seed):
    model, a = make_instance(seed)
    f = random_nonneg(model, seed + 13)
    g = f + random_nonneg(model, seed + 14)
    for q in (2, INF):
        mf = apply_maximal(model, a, f, q).values
        mg = apply_maximal(model, a, g, q).values
        assert np.all(mf <= mg * (1 + 1e-10) + 1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_truncation_bounded_by_full(seed):
    model, a = make_instance(seed)
    f = random_nonneg(model, seed + 15)
    full = apply_maximal(model, a, f, 2).values
    for k in range(0, model.n_nodes, max(1, model.n_nodes // 5)):
        part = apply_truncated(model, a, f, 2, model.ids[k]).values
        assert np.all(part <= full * (1 + 1e-10) + 1e-12)
    root = model.ids[model.roots[0]]
    at_root = apply_truncated(model, a, f, 2, root).values
    lo, hi = model.leaf_lo[model.roots[0]], model.leaf_hi[model.roots[0]]
    assert np.allclose(at_root[lo:hi], full[lo:hi], rtol=1e-12, atol=1e-12)
    assert np.all(at_root[:lo] == 0) and np.all(at_root[hi:] == 0)


# -- closed-form indicator ratios ---------------------------------------------


@pytest.mark.parametrize("p, q", [(1.5, 1.5), (1.5, 3.0), (2.0, INF), (2.0, 50.0),
                                  (3.0, 6.0), (8.0, 8.0), (8.0, 16.0)])
def test_indicator_ratios_match_reference(p, q):
    for seed in range(12):
        model, a = make_instance(seed, roots=1 + seed % 3, branch_min=1 + seed % 2)
        got = _indicator_ratios(model, a, p, q, _suffix_table(model, a, q))
        want = ref_indicator_ratios(model, a, p, q)
        assert np.array_equal(got < 0, want < 0)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        # cubes whose indicators agree mu-almost everywhere tie exactly in the
        # reference; the closed form may take any of them, and no other cube
        assert want[np.argmax(got)] == want.max(), seed


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), roots=st.integers(1, 3),
       branch_min=st.integers(1, 2), p=st.floats(1.05, 1000.0),
       q_of=st.sampled_from(["p", "2p", 1e6, INF]),
       scale=st.sampled_from([1e-8, 1.0, 1e8]))
def test_indicator_ratios_match_per_cube_operator(seed, roots, branch_min, p, q_of,
                                                  scale):
    model, a = make_instance(seed, roots=roots, branch_min=branch_min)
    a = a.scaled(scale)
    q = {"p": p, "2p": 2 * p}.get(q_of, q_of)
    got = _indicator_ratios(model, a, p, q, _suffix_table(model, a, q))
    assert np.all(np.isfinite(got))
    for k, nid in enumerate(model.ids):
        one_q = indicator(model, nid)
        den = lp_norm(model, one_q, p, "mu")
        if den == 0:
            assert got[k] == -1.0
            continue
        want = lp_norm(model, apply_maximal(model, a, one_q, q).values, p, "nu") / den
        assert got[k] == pytest.approx(want, rel=1e-13, abs=0), (k, want)

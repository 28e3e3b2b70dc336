"""Every option is checked by one rule when the object or call that takes it is
made: integers (never a boolean or a float), probabilities in [0, 1], bool
flags and coefficient factors.  Each bad value raises ``ValueError`` naming
the option, never ``TypeError``."""

import math
import re

import numpy as np
import pytest

from dyadicmax import (CoefficientFamily, NormSearch, RandomModelParams, apply_depth_truncated,
                       build_decomposition, build_model, operator_norm_bruteforce, proof_trace,
                       theorem_constant_hp)
from dyadicmax.cli import SweepConfig

# R -> {A -> {a1, a2}, b}: three atoms (small enough for the exhaustive
# search) on two levels below the root
MODEL = build_model({
    "nodes": [{"id": "R", "parent": None}, {"id": "A", "parent": "R"},
              {"id": "a1", "parent": "A"}, {"id": "a2", "parent": "A"},
              {"id": "b", "parent": "R"}],
    "mu": {"a1": 1.0, "a2": 0.5, "b": 2.0}, "nu": {"a1": 1.0, "a2": 3.0, "b": 0.5}})
ONES = CoefficientFamily.constant(MODEL)
F = np.array([1.0, 2.0, 0.5])

# option -> (a call that takes the value, its value below the range, what the
# error for that value says); the error for a value that is no integer says
# "<option> must be an integer"
INTEGER_OPTIONS = {
    "n_random": (lambda v: NormSearch(n_random=v), -1, "n_random must be an integer >= 0"),
    "ascent_rounds": (lambda v: NormSearch(ascent_rounds=v), -1,
                      "ascent_rounds must be an integer >= 0"),
    "seed": (lambda v: NormSearch(seed=v), -1, "seed must be an integer >= 0"),
    "n_start (apply_depth_truncated)": (lambda v: apply_depth_truncated(MODEL, ONES, F, 2, v),
                                        -1, "n_start must be an integer in [0, 2]"),
    "n_start (build_decomposition)": (lambda v: build_decomposition(MODEL, F, 2.0, n_start=v),
                                      -1, "n_start must be an integer in [0, 2]"),
    "n_start (proof_trace)": (lambda v: proof_trace(MODEL, ONES, F, 2, 2, n_start=v),
                              -1, "n_start must be an integer in [0, 2]"),
    "trials": (lambda v: SweepConfig(trials=v), 0, "trials must be an integer >= 1"),
    "workers": (lambda v: SweepConfig(workers=v), 0, "workers must be an integer >= 1"),
    "depth_min": (lambda v: RandomModelParams(depth_min=v), 0, "empty depth range [0, 3]"),
    "depth_max": (lambda v: RandomModelParams(depth_max=v), 0, "empty depth range [1, 0]"),
    "branch_min": (lambda v: RandomModelParams(branch_min=v), 0,
                   "empty branching range [0, 3]"),
    "branch_max": (lambda v: RandomModelParams(branch_max=v), 1,
                   "empty branching range [2, 1]"),
    "roots": (lambda v: RandomModelParams(roots=v), 0, "need at least one root"),
    "resolution": (lambda v: operator_norm_bruteforce(MODEL, ONES, 2, 2, v), 0,
                   "resolution must be an integer >= 1"),
    "precision_dps": (lambda v: operator_norm_bruteforce(MODEL, ONES, 2, 2, 4, precision_dps=v),
                      0, "precision_dps must be an integer in [1, "),
    "dps": (lambda v: theorem_constant_hp(2, dps=v), 0, "dps must be an integer in [1, "),
}
NOT_INTEGERS = {"true": True, "np_true": np.True_, "whole_float": 2.0, "float": 2.5,
                "string": "2", "none": None}


@pytest.mark.parametrize("option, bad", [
    pytest.param(option, bad, id=f"{option}-{name}")
    for option in INTEGER_OPTIONS
    for name, bad in NOT_INTEGERS.items()
    if not (option == "precision_dps" and bad is None)  # None skips the decimal step
])
def test_an_integer_option_rejects_what_is_no_integer(option, bad):
    call, _, _ = INTEGER_OPTIONS[option]
    name = option.split()[0]
    with pytest.raises(ValueError, match=f"{name} must be an integer.*, got {re.escape(repr(bad))}"):
        call(bad)


@pytest.mark.parametrize("option", INTEGER_OPTIONS)
def test_an_integer_option_rejects_a_value_below_its_range(option):
    call, below, message = INTEGER_OPTIONS[option]
    with pytest.raises(ValueError, match=re.escape(message)):
        call(below)


@pytest.mark.parametrize("option", INTEGER_OPTIONS)
def test_an_integer_option_takes_a_numpy_integer(option):
    call, below, _ = INTEGER_OPTIONS[option]
    if option.startswith("branch_max"):
        call(np.int64(3))
    else:
        call(np.int64(below + 2))


# option -> a call that takes the value
PROBABILITY_OPTIONS = {
    "zero_prob_mu": lambda v: RandomModelParams(zero_prob_mu=v),
    "zero_prob_nu": lambda v: RandomModelParams(zero_prob_nu=v),
    "leaf_prob": lambda v: RandomModelParams(leaf_prob=v),
    "vector_prob": lambda v: CoefficientFamily.random(MODEL, 1, vector_prob=v),
    "zero_prob": lambda v: CoefficientFamily.random(MODEL, 1, zero_prob=v),
}
NOT_PROBABILITIES = {"negative": -0.1, "above_1": 1.5, "nan": math.nan, "string": "0.3",
                     "true": True}


@pytest.mark.parametrize("option, bad", [
    pytest.param(option, bad, id=f"{option}-{name}")
    for option in PROBABILITY_OPTIONS for name, bad in NOT_PROBABILITIES.items()
])
def test_a_probability_must_be_a_number_in_0_1(option, bad):
    # zero_prob_mu = 2.0 set every mass to zero, and a string raised TypeError mid-draw
    with pytest.raises(ValueError, match=re.escape(f"{option} must be a probability in [0, 1]")):
        PROBABILITY_OPTIONS[option](bad)


@pytest.mark.parametrize("option", PROBABILITY_OPTIONS)
def test_a_probability_may_be_0_or_1(option):
    PROBABILITY_OPTIONS[option](0)
    PROBABILITY_OPTIONS[option](1.0)


# factor -> (a call that takes it, the name its error gives it)
FACTORS = {
    "scaled": (lambda v: ONES.scaled(v), "scale factor"),
    "constant": (lambda v: CoefficientFamily.constant(MODEL, v), "constant coefficient"),
}
NOT_FACTORS = {"string": "2", "nan": math.nan, "inf": math.inf, "negative": -1, "true": True}


@pytest.mark.parametrize("factor, bad", [
    pytest.param(factor, bad, id=f"{factor}-{name}")
    for factor in FACTORS for name, bad in NOT_FACTORS.items()
])
def test_a_factor_must_be_finite_and_nonnegative(factor, bad):
    # scaled("2") raised TypeError, and scaled(nan) named a cube, not the factor
    call, name = FACTORS[factor]
    with pytest.raises(ValueError, match=f"{name} must be finite and >= 0, got "
                                         f"{re.escape(repr(bad))}"):
        call(bad)


@pytest.mark.parametrize("flag", ["halve_cp", "audit"])
@pytest.mark.parametrize("bad", ["no", 1, None], ids=["string", "int", "none"])
def test_a_flag_must_be_a_bool(flag, bad):
    # audit="no" turned the audit dumps on
    with pytest.raises(ValueError, match=f"{flag} must be a bool"):
        SweepConfig(**{flag: bad})
    SweepConfig(**{flag: np.True_})


def test_a_seed_above_2_to_the_53_keeps_every_bit():
    assert NormSearch(seed=2 ** 60 + 1).seed == 2 ** 60 + 1
    seed = NormSearch(seed=np.uint64(2 ** 64 - 1)).seed
    assert type(seed) is int and seed == 2 ** 64 - 1


def test_a_config_is_checked_when_it_is_made():
    # trials = 2.5 passed validate(), and generate then raised TypeError
    with pytest.raises(ValueError, match="trials must be an integer >= 1, got 2.5"):
        SweepConfig(trials=2.5)
    assert not hasattr(SweepConfig, "validate")
    assert not hasattr(RandomModelParams, "validate")


def test_checked_options_are_python_ints():
    search = NormSearch(n_random=np.int32(3), ascent_rounds=np.int64(2), seed=np.uint8(7))
    assert [type(v) for v in (search.n_random, search.ascent_rounds, search.seed)] == [int] * 3
    assert type(SweepConfig(trials=np.int64(4)).trials) is int
    assert type(RandomModelParams(depth_max=np.int16(5)).depth_max) is int


def test_a_rejected_dps_is_not_found_in_the_cache():
    # the cache keys on types: True == 1 and 2.0 == 2 would find the results of 1 and 2
    theorem_constant_hp(2, dps=1)
    theorem_constant_hp(2, dps=2)
    for bad in (True, 2.0):
        with pytest.raises(ValueError, match="dps must be an integer"):
            theorem_constant_hp(2, dps=bad)

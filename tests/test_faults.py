"""Fault matrix: each injected fault must fail at least one check record.

Each fault replaces a function at every binding of it in the ``dyadicmax``
modules and runs ``cli._verify_one`` on the instances of
``generate --trials 4 --seed 7 --depth-max 4 --branch-max 3`` at
p in {1.5, 2, 3} and q in {p, 2p, inf}.  Unpatched, every record passes.
This is mutation analysis used as a gate: a check that no fault can fail
shows nothing.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from dyadicmax import constants, lattice, maximal
from dyadicmax.cli import SweepConfig, _load_instance, _verify_one, cmd_generate

CONFIG = SweepConfig(p_values=(1.5, 2.0, 3.0), q_tokens=("p", "2p", "inf"))

# the originals, which each faulty replacement calls, taken before any patch
LEVEL_TERMS, TESTING_CONSTANT, LQ_ROWS, APPLY_BY_LABEL = (
    maximal._level_terms, constants.testing_constant, lattice._lq_rows,
    maximal._apply_by_label)


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    out = tmp_path_factory.mktemp("faults")
    paths = cmd_generate(SweepConfig(trials=4, seed=7, depth_max=4, branch_max=3,
                                     out=str(out)))
    return [(Path(path).stem, _load_instance(Path(path))) for path in paths]


def _failing(instances):
    records = [rec for name, inst in instances for rec in _verify_one(name, inst, CONFIG)]
    assert len(records) == 4 * 3 * 3 * 6
    return [rec for rec in records if not rec["pass"]]


def _patch_everywhere(monkeypatch, original, fault):
    """Bind ``fault`` wherever a dyadicmax module binds ``original``."""
    modules = [mod for name, mod in sys.modules.items()
               if name == "dyadicmax" or name.startswith("dyadicmax.")]
    bound = [(mod, attr) for mod in modules for attr, value in vars(mod).items()
             if value is original]
    assert bound
    for mod, attr in bound:
        monkeypatch.setattr(mod, attr, fault)


def _root_level_zeroed(model, a, rows):
    T = LEVEL_TERMS(model, a, rows)
    T[..., 0, :] = 0.0
    return T


def _mu_left_out(model, a, rows):
    # rows are f * mu for the operator: f where mu > 0, and 0 on the null atoms
    mu = model.mu_leaf
    return LEVEL_TERMS(model, a, np.divide(rows, mu, out=np.zeros(rows.shape),
                                            where=mu > 0))


def _half_b(*args, **kwargs):
    B, cube = TESTING_CONSTANT(*args, **kwargs)
    return 0.5 * B, cube


def _max_for_every_lq(T, q, axis=-1):
    return LQ_ROWS(T, math.inf, axis)


def _parts_halved(*args):
    Mf, leaf, label, values = APPLY_BY_LABEL(*args)
    return Mf, leaf, label, 0.5 * values


# the function faulted, and its faulty replacement
FAULTS = {
    "level_terms_root_level_zeroed": (LEVEL_TERMS, _root_level_zeroed),
    "level_terms_mu_left_out_of_the_rows": (LEVEL_TERMS, _mu_left_out),
    "testing_constant_halved": (TESTING_CONSTANT, _half_b),
    "lq_rows_always_at_q_inf": (LQ_ROWS, _max_for_every_lq),
    "apply_by_label_parts_halved": (APPLY_BY_LABEL, _parts_halved),
}


def test_unpatched_checks_all_pass(instances):
    assert _failing(instances) == []


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_each_fault_fails_a_check(instances, monkeypatch, fault):
    original, faulty = FAULTS[fault]
    _patch_everywhere(monkeypatch, original, faulty)
    assert _failing(instances), f"{fault}: every check passed"

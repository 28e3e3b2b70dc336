"""Instance, coefficient and model files: what the writers write, what the readers accept."""

import json

import numpy as np
import pytest

from dyadicmax import (CoefficientFamily, ModelError, RandomModelParams, SawyerInstance,
                       random_model, read_coefficients, read_model, write_coefficients,
                       write_model)
from dyadicmax.cli import SweepConfig, cmd_generate
from dyadicmax.lattice import model_to_dict
from dyadicmax.sawyer import instance_to_dict, random_instance, read_instance, write_instance
from dyadicmax.stopping import CarlesonSequence

from conftest import make_instance


def _family_arrays(a):
    return a._scalars.tobytes(), a._offsets.tobytes(), a._values.tobytes()


def _instance_arrays(inst):
    model = inst.model
    return (model.ids, model.parent.tobytes(), model.mu_leaf.tobytes(),
            model.nu_leaf.tobytes(), inst.omega_leaf.tobytes(), inst.w_leaf.tobytes(),
            inst.alpha, inst.p)


def test_each_writer_writes_its_dict_on_one_line(tmp_path):
    inst = random_instance(3)
    _, coeffs = make_instance(3)
    written = [(write_instance, inst, instance_to_dict(inst)),
               (write_coefficients, coeffs, coeffs.to_mapping()),
               (write_model, inst.model, model_to_dict(inst.model))]
    for k, (write, obj, expected) in enumerate(written):
        path = tmp_path / f"file{k}.json"
        write(obj, path)
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        assert json.loads(text) == expected


def test_generated_files_are_the_writers_output(tmp_path):
    paths = cmd_generate(SweepConfig(trials=4, seed=11, out=str(tmp_path / "gen")))
    for path in paths:
        coeff_path = path.with_name(path.stem + ".coeffs.json")
        inst = read_instance(path)
        write_instance(inst, tmp_path / "inst.json")
        write_coefficients(read_coefficients(inst.model, coeff_path), tmp_path / "coeffs.json")
        assert (tmp_path / "inst.json").read_bytes() == path.read_bytes()
        assert (tmp_path / "coeffs.json").read_bytes() == coeff_path.read_bytes()


def test_indented_files_load_as_the_compact_ones(tmp_path):
    # files written before the writers went compact were indented
    inst = random_instance(8)
    coeffs = CoefficientFamily.random(inst.model, 8, vector_prob=0.9)
    write_instance(inst, tmp_path / "compact.json")
    write_coefficients(coeffs, tmp_path / "compact.coeffs.json")
    (tmp_path / "indented.json").write_text(json.dumps(instance_to_dict(inst), indent=2) + "\n")
    (tmp_path / "indented.coeffs.json").write_text(
        json.dumps(coeffs.to_mapping(), indent=2) + "\n")
    loaded = {}
    for layout in ("compact", "indented"):
        again = read_instance(tmp_path / f"{layout}.json")
        family = read_coefficients(again.model, tmp_path / f"{layout}.coeffs.json")
        model = read_model(tmp_path / f"{layout}.json")
        loaded[layout] = (_instance_arrays(again), _family_arrays(family), model)
    assert loaded["compact"] == loaded["indented"]


def test_large_tree_round_trips_bit_for_bit(tmp_path):
    params = RandomModelParams(depth_min=8, depth_max=8, branch_min=3, branch_max=3,
                               zero_prob_mu=0.15, zero_prob_nu=0.15)
    model = random_model(params, 21)
    assert model.n_nodes == 9841 and np.any(model.mu_leaf == 0)
    rng = np.random.default_rng(21)
    omega = np.where(rng.random(model.n_leaves) < 0.1, 0.0, rng.exponential(1.0, model.n_leaves))
    inst = SawyerInstance(model=model, omega_leaf=omega,
                          w_leaf=rng.lognormal(0.0, 1.0, model.n_leaves), alpha=0.3, p=2.5)
    coeffs = CoefficientFamily.random(model, 22)
    assert coeffs._values.size > 0  # some coefficients are vectors
    write_instance(inst, tmp_path / "tree.json")
    write_coefficients(coeffs, tmp_path / "tree.coeffs.json")
    again = read_instance(tmp_path / "tree.json")
    assert _instance_arrays(again) == _instance_arrays(inst)
    family = read_coefficients(again.model, tmp_path / "tree.coeffs.json")
    assert _family_arrays(family) == _family_arrays(coeffs)


def test_read_instance_applies_the_defaults(tmp_path):
    path = tmp_path / "plain.json"
    path.write_text(json.dumps({"nodes": [{"id": "R", "parent": None},
                                          {"id": "a", "parent": "R"},
                                          {"id": "b", "parent": "R"}],
                                "mu": {"a": 1.0, "b": 3.0}, "nu": {"a": 1.0, "b": 1.0}}))
    inst = read_instance(path)
    assert inst.omega_leaf.tolist() == [1.0, 3.0] and inst.w_leaf.tolist() == [1.0, 1.0]
    assert inst.alpha == 0.5 and inst.p == 2.0


@pytest.mark.parametrize("text, message", [
    ('{"R": 1.0,', "cannot parse {path}: "),
    ("[1, 2]", "{path}: coefficients must map node ids to coefficients, got list"),
    ('{"X": 1.0}', "{path}: coefficient for unknown node 'X'"),
], ids=["unparsable", "not_an_object", "unknown_node"])
def test_coefficient_file_errors_name_the_file(tmp_path, text, message):
    model = random_instance(1).model
    path = tmp_path / "bad.coeffs.json"
    path.write_text(text)
    with pytest.raises(ModelError) as info:
        read_coefficients(model, path)
    assert str(info.value).startswith(message.format(path=path))


@pytest.mark.parametrize("change, message", [
    ({"omega": [1.0, 2.0]}, "omega must map leaf ids to values, got list"),
    ({"alpha": None}, "alpha must be a number in (0, 1], got None"),
    ({"mu": {"a": "1"}}, "mu mass of leaf 'a' is not a finite number"),
], ids=["omega_list", "null_alpha", "string_mass"])
def test_instance_file_errors_name_the_file(tmp_path, change, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nodes": [{"id": "R", "parent": None},
                                          {"id": "a", "parent": "R"}],
                                "mu": {"a": 1.0}, "nu": {"a": 1.0}, **change}))
    with pytest.raises(ModelError) as info:
        read_instance(path)
    assert str(info.value).startswith(f"{path}: ") and message in str(info.value)
    for unparsable in (b"{", b"\xff{}"):  # truncated, not UTF-8
        path.write_bytes(unparsable)
        with pytest.raises(ModelError) as info:
            read_instance(path)
        assert str(info.value).startswith(f"cannot parse {path}: ")


# 1 -> {2 -> {4, 5}, 3}, every id a number in the file
_NUMERIC_NODES = [{"id": 1, "parent": None}, {"id": 2, "parent": 1}, {"id": 3, "parent": 1},
                  {"id": 4, "parent": 2}, {"id": 5, "parent": 2}]
_NUMERIC_MASSES = {"3": 1.0, "4": 2.0, "5": 3.0}


def _numeric_model(tmp_path, parent_of_5=2):
    nodes = _NUMERIC_NODES[:4] + [{"id": 5, "parent": parent_of_5}]
    path = tmp_path / "numeric.json"
    path.write_text(json.dumps({"nodes": nodes, "mu": _NUMERIC_MASSES, "nu": _NUMERIC_MASSES}))
    return read_model(path)


def _coefficients(model, key=1, atom=4):
    return _family_arrays(CoefficientFamily.from_mapping(
        model, {key: 1.0, "2": {atom: 0.5}, "3": 2.0, "4": 3.0, "5": 4.0}))


# one row per place that looks an id up: the id given as a number and as a
# string load the same, and an unknown number raises the place's own error
@pytest.mark.parametrize("load, known, message", [
    (lambda tmp_path, model, k: _numeric_model(tmp_path, parent_of_5=k).parent.tolist(), 2,
     "orphan node '5': unknown parent '9'"),
    (lambda tmp_path, model, k: _coefficients(model, key=k), 1,
     "coefficient for unknown node 9"),
    (lambda tmp_path, model, k: _coefficients(model, atom=k), 4,
     "leaf 9 is not an atom of cube '2'"),
    (lambda tmp_path, model, k: CarlesonSequence.from_mapping(model, {k: 1.5}).weights.tolist(),
     2, "Carleson weight for unknown node 9"),
], ids=["parent", "coefficient_key", "atom", "carleson_key"])
def test_each_id_lookup_reads_a_number_as_its_str(tmp_path, load, known, message):
    model = _numeric_model(tmp_path)
    assert model.ids == ("1", "2", "3", "4", "5")
    assert model.parent.tolist() == [-1, 0, 0, 1, 1]
    assert load(tmp_path, model, known) == load(tmp_path, model, str(known))
    with pytest.raises(ValueError, match=message):
        load(tmp_path, model, 9)

import csv
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from dyadicmax import theorem_constant
from dyadicmax.cli import (SweepConfig, cmd_generate, cmd_report, cmd_verify,
                           main, resolve_q)


def gen(tmp_path, trials=3, seed=7, **kw):
    out = tmp_path / "inst"
    config = SweepConfig(trials=trials, seed=seed, out=str(out), **kw)
    return cmd_generate(config), out


def test_resolve_q():
    assert resolve_q("inf", 2.0) == math.inf
    assert resolve_q("p", 1.5) == 1.5
    assert resolve_q("2p", 1.5) == 3.0
    assert resolve_q("2.5", 2.0) == 2.5


def test_generate_deterministic(tmp_path):
    paths1, out1 = gen(tmp_path / "a")
    paths2, out2 = gen(tmp_path / "b")
    assert [p.name for p in paths1] == [p.name for p in paths2]
    for p1, p2 in zip(paths1, paths2):
        assert p1.read_bytes() == p2.read_bytes()
        c1 = p1.with_name(p1.stem + ".coeffs.json")
        c2 = p2.with_name(p2.stem + ".coeffs.json")
        assert c1.read_bytes() == c2.read_bytes()


def test_generate_depth_one_shape(tmp_path):
    paths, _ = gen(tmp_path, trials=4, depth_min=1, depth_max=1)
    for path in paths:
        data = json.loads(path.read_text())
        roots = {n["id"] for n in data["nodes"] if n["parent"] is None}
        for node in data["nodes"]:
            if node["parent"] is not None:
                assert node["parent"] in roots


def test_generate_zero_trials_config_error(tmp_path):
    with pytest.raises(ValueError, match="trials"):
        SweepConfig(trials=0, out=str(tmp_path))


def test_generate_zero_trials_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--trials", "0", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_verify_all_pass(tmp_path):
    paths, _ = gen(tmp_path, trials=2)
    config = SweepConfig(seed=7, p_values=(1.5, 2.0), q_tokens=("p", "inf"),
                         out=str(tmp_path / "run"))
    code, records = cmd_verify(config, paths)
    assert code == 0
    expected = 2 * 2 * 2 * 6  # instances * p * q * checks
    assert len(records) == expected
    assert all(rec["pass"] for rec in records)
    report = tmp_path / "run" / "report.jsonl"
    assert len(report.read_text().splitlines()) == expected


def test_verify_passes_at_large_p(tmp_path, capsys):
    # |Mf|^600 and r^601 overflow; every check compares norms
    paths, _ = gen(tmp_path, trials=1, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["verify", "--p", "600", "--q", "inf", "--r", "4",
                     "--out", str(tmp_path / "run"), *map(str, paths)])
    assert code == 0
    assert "6/6 checks passed" in capsys.readouterr().out


def test_verify_passes_near_the_float_limit(tmp_path, capsys):
    # f * mu overflowed where the drawn f exceeds 1: at p = q = 2 the packing,
    # Carleson, proof-chain and reduction records failed on this valid
    # instance, 50 of 54 passed and verify exited 1.  RuntimeWarnings are
    # errors in this suite
    path = tmp_path / "limit.json"
    path.write_text(json.dumps({
        "nodes": [{"id": "R", "parent": None}, {"id": "A", "parent": "R"},
                  {"id": "a1", "parent": "A"}, {"id": "a2", "parent": "A"},
                  {"id": "b", "parent": "R"}],
        "mu": {"a1": 1e308, "a2": 1e307, "b": 1e300}, "nu": {"a1": 1, "a2": 1, "b": 1}}))
    assert main(["verify", str(path), "--p", "1.5,2,3", "--q", "p,2p,inf",
                 "--out", str(tmp_path / "run")]) == 0
    assert "54/54 checks passed" in capsys.readouterr().out


def test_verify_corrupt_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    config = SweepConfig(out=str(tmp_path / "run"))
    code, records = cmd_verify(config, [bad])
    assert code == 2 and records == []


@pytest.mark.parametrize("suffix, text, prefix", [
    (".json", '{"nodes": ', "cannot parse "),
    (".coeffs.json", "[1, 2]", ""),
], ids=["unparsable_instance", "coefficients_not_an_object"])
def test_verify_load_error_names_the_file(tmp_path, capsys, suffix, text, prefix):
    paths, _ = gen(tmp_path, trials=2)
    bad = paths[1].with_name(paths[1].stem + suffix)
    bad.write_text(text)
    run = tmp_path / "run"
    assert main(["verify", *map(str, paths), "--out", str(run)]) == 2
    assert f"error: cannot load instance: {prefix}{bad}: " in capsys.readouterr().err
    assert not (run / "report.jsonl").exists()


@pytest.mark.parametrize("alpha", [2.0, None])
def test_verify_invalid_alpha_exits_2(tmp_path, capsys, alpha):
    paths, _ = gen(tmp_path, trials=1)
    bad = tmp_path / "bad.json"
    data = json.loads(paths[0].read_text())
    data["alpha"] = alpha
    bad.write_text(json.dumps(data))
    coeffs = paths[0].with_name(paths[0].stem + ".coeffs.json")
    bad.with_name("bad.coeffs.json").write_text(coeffs.read_text())
    run = tmp_path / "run"
    assert main(["verify", str(bad), *map(str, paths), "--search-random", "2",
                 "--search-ascent", "1", "--out", str(run)]) == 2
    assert "cannot load instance" in capsys.readouterr().err
    assert not (run / "report.jsonl").exists()


def _small_instance(**extra):
    return {"nodes": [{"id": "Q0", "parent": None}, {"id": "L1", "parent": "Q0"},
                      {"id": "L2", "parent": "Q0"}],
            "mu": {"L1": 1.0, "L2": 2.0}, "nu": {"L1": 1.0, "L2": 1.0}, **extra}


@pytest.mark.parametrize("key", ["omega", "w"])
@pytest.mark.parametrize("values, message", [
    ({"L1": 1.0}, "missing {key} mass for leaf 'L2'"),
    ({"L1": 1.0, "L2": 1.0, "X": 1.0}, "{key} mass for unknown node 'X'"),
    ({"L1": 1.0, "L2": 1.0, "Q0": 1.0}, "{key} mass assigned to non-leaf 'Q0'"),
    ({"L1": 1.0, "L2": -1.0}, "{key} mass of leaf 'L2' is negative"),
    # json writes and reads back an infinite value as the token Infinity
    ({"L1": 1.0, "L2": math.inf}, "{key} mass of leaf 'L2' is not a finite number"),
], ids=["missing_leaf", "unknown_node", "interior_node", "negative", "infinite"])
def test_verify_reads_omega_and_w_strictly(tmp_path, capsys, key, values, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_small_instance(**{key: values})))
    run = tmp_path / "run"
    assert main(["verify", str(bad), "--search-random", "2", "--search-ascent", "1",
                 "--out", str(run)]) == 2
    assert message.format(key=key) in capsys.readouterr().err
    assert not (run / "report.jsonl").exists()


@pytest.mark.parametrize("change, message", [
    ({"mu": {"L1": "1.5", "L2": 2.0}}, "mu mass of leaf 'L1' is not a finite number, got '1.5'"),
    ({"nu": {"L1": 1.0, "L2": True}}, "nu mass of leaf 'L2' is not a finite number, got True"),
    ({"omega": {"L1": 1.0, "L2": "2"}}, "omega mass of leaf 'L2' is not a finite number"),
    ({"w": {"L1": False, "L2": 1.0}}, "w mass of leaf 'L1' is not a finite number"),
    ({"alpha": "0.5"}, "alpha must be a number in (0, 1], got '0.5'"),
    ({"nodes": [{"id": "Q0", "parent": "L2"}, {"id": "L1", "parent": "Q0"},
                {"id": "L2", "parent": "Q0"}]}, "cycle detected: no root node"),
], ids=["string_mu", "boolean_nu", "string_omega", "boolean_w", "string_alpha", "cycle"])
def test_verify_rejects_malformed_instances(tmp_path, capsys, change, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_small_instance(**change)))
    run = tmp_path / "run"
    assert main(["verify", str(bad), "--search-random", "2", "--search-ascent", "1",
                 "--out", str(run)]) == 2
    assert message in capsys.readouterr().err
    assert not (run / "report.jsonl").exists()


@pytest.mark.parametrize("change, coeffs, message", [
    ({"mu": {"L1": 10 ** 400, "L2": 2.0}}, None, "mu mass of leaf 'L1' is not a finite number"),
    ({"omega": {"L1": 1.0, "L2": 10 ** 400}}, None,
     "omega mass of leaf 'L2' is not a finite number"),
    ({}, {"Q0": 1.0, "L1": 10 ** 400, "L2": 1.0}, "coefficient for 'L1' must be finite >= 0"),
    ({}, {"Q0": {"L1": 1.0, "L2": 10 ** 400}, "L1": 1.0, "L2": 1.0},
     "coefficient for 'Q0' must be finite >= 0"),
], ids=["mu_mass", "omega_mass", "scalar_coefficient", "vector_coefficient"])
def test_verify_rejects_an_integer_too_large_for_a_float(tmp_path, capsys, change, coeffs,
                                                         message):
    # json reads 10**400 written out as an int, which float() cannot take: verify
    # printed an OverflowError traceback, exited 1 and left an empty report
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_small_instance(**change)))
    if coeffs is not None:
        bad.with_name("bad.coeffs.json").write_text(json.dumps(coeffs))
    run = tmp_path / "run"
    assert main(["verify", str(bad), "--out", str(run)]) == 2
    assert message in capsys.readouterr().err
    assert not (run / "report.jsonl").exists()


def test_verify_rejects_a_coefficient_written_as_a_string(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_small_instance()))
    bad.with_name("bad.coeffs.json").write_text(
        json.dumps({"Q0": 1.0, "L1": "2.0", "L2": 1.0}))
    assert main(["verify", str(bad), "--out", str(tmp_path / "run")]) == 2
    assert "coefficient for 'L1' must be finite >= 0" in capsys.readouterr().err


def test_verify_defaults_absent_omega_to_mu_and_w_to_one(tmp_path):
    from dyadicmax.cli import _load_instance
    plain, full = tmp_path / "plain" / "inst.json", tmp_path / "full" / "inst.json"
    for path, data in ((plain, _small_instance()),
                       (full, _small_instance(omega={"L1": 1.0, "L2": 2.0},
                                              w={"L1": 1.0, "L2": 1.0}))):
        path.parent.mkdir()
        path.write_text(json.dumps(data))
    (a, _), (b, _) = _load_instance(plain), _load_instance(full)
    assert a.omega_leaf.tolist() == b.omega_leaf.tolist() == [1.0, 2.0]
    assert a.w_leaf.tolist() == b.w_leaf.tolist() == [1.0, 1.0]
    config = SweepConfig(p_values=(2.0,), q_tokens=("inf",), search_random=2,
                         search_ascent=1)
    reports = []
    for path in (plain, full):
        out = path.parent / "run"
        assert cmd_verify(replace(config, out=str(out)), [path])[0] == 0
        reports.append((out / "report.jsonl").read_text())
    assert reports[0] == reports[1]


def test_verify_injected_fault_exits_1(tmp_path):
    paths, _ = gen(tmp_path, trials=1)
    config = SweepConfig(seed=7, p_values=(2.0,), q_tokens=("inf",),
                         out=str(tmp_path / "run"), halve_cp=True)
    code, records = cmd_verify(config, paths)
    assert code == 1
    failing = [r for r in records if not r["pass"]]
    assert failing and all(r["check"] == "cp_value" for r in failing)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_non_finite_sandwich_fails(tmp_path):
    # constant coefficients 1e308 on a two-atom root: mu(Q0) * a overflows,
    # and the sandwich record must say so, not pass
    inst = tmp_path / "two.json"
    inst.write_text(json.dumps({
        "nodes": [{"id": "Q0", "parent": None}, {"id": "L1", "parent": "Q0"},
                  {"id": "L2", "parent": "Q0"}],
        "mu": {"L1": 1.0, "L2": 1.0}, "nu": {"L1": 1.0, "L2": 1.0}}))
    (tmp_path / "two.coeffs.json").write_text(
        json.dumps({"Q0": 1e308, "L1": 1e308, "L2": 1e308}))
    config = SweepConfig(p_values=(1000.0,), q_tokens=("inf",),
                         search_random=4, search_ascent=1,
                         out=str(tmp_path / "run"))
    code, records = cmd_verify(config, [inst])
    assert code == 1
    sandwich = [r for r in records if r["check"] == "sandwich"]
    assert len(sandwich) == 1 and not sandwich[0]["pass"]
    assert "non-finite" in sandwich[0]["detail"]["error"]


def test_verify_computes_testing_constant_once(tmp_path, monkeypatch):
    import dyadicmax.constants as constants_mod
    import dyadicmax.stopping as stopping_mod
    calls = []
    original = constants_mod.testing_constant

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(constants_mod, "testing_constant", counted)
    monkeypatch.setattr(stopping_mod, "testing_constant", counted)
    paths, _ = gen(tmp_path, trials=2)
    config = SweepConfig(seed=7, p_values=(2.0,), q_tokens=("p", "inf"),
                         out=str(tmp_path / "run"))
    code, _ = cmd_verify(config, paths)
    assert code == 0
    assert len(calls) == 2 * 2  # instances * (p, q): the proof chain reuses B


def test_verify_builds_decomposition_once(tmp_path, monkeypatch):
    import dyadicmax.cli as cli_mod
    import dyadicmax.stopping as stopping_mod
    calls = []
    original = stopping_mod.build_decomposition

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "build_decomposition", counted)
    monkeypatch.setattr(stopping_mod, "build_decomposition", counted)
    paths, _ = gen(tmp_path, trials=2)
    config = SweepConfig(seed=7, p_values=(2.0,), q_tokens=("p", "inf"),
                         out=str(tmp_path / "run"))
    code, _ = cmd_verify(config, paths)
    assert code == 0
    assert len(calls) == 2 * 2  # instances * (p, q): the proof chain reuses it


def test_verify_report_bytes_deterministic(tmp_path):
    paths, _ = gen(tmp_path, trials=2)
    cfg = dict(seed=3, p_values=(2.0,), q_tokens=("p", "inf"))
    code1, _ = cmd_verify(SweepConfig(out=str(tmp_path / "r1"), **cfg), paths)
    code2, _ = cmd_verify(SweepConfig(out=str(tmp_path / "r2"), **cfg), paths)
    assert code1 == code2 == 0
    assert (tmp_path / "r1" / "report.jsonl").read_bytes() == \
        (tmp_path / "r2" / "report.jsonl").read_bytes()


def test_verify_parallel_workers_same_bytes(tmp_path):
    paths, _ = gen(tmp_path, trials=3)
    cfg = dict(seed=3, p_values=(2.0,), q_tokens=("inf",))
    cmd_verify(SweepConfig(out=str(tmp_path / "serial"), **cfg), paths)
    cmd_verify(SweepConfig(out=str(tmp_path / "pool"), workers=2, **cfg), paths)
    assert (tmp_path / "serial" / "report.jsonl").read_bytes() == \
        (tmp_path / "pool" / "report.jsonl").read_bytes()


@pytest.mark.parametrize("workers, files, pool", [(5000, 2, [2]), (2, 3, [2]), (3, 1, [])])
def test_verify_starts_at_most_one_process_per_file(tmp_path, monkeypatch, workers, files,
                                                    pool):
    # a fake pool records its size and maps in this process: no process starts.
    # cmd_verify imports the pool class only when it starts a pool
    import concurrent.futures
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    paths, _ = gen(tmp_path, trials=files)
    config = SweepConfig(seed=7, p_values=(2.0,), q_tokens=("inf",),
                         out=str(tmp_path / "run"), workers=workers)
    code, records = cmd_verify(config, paths)
    assert code == 0 and len(records) == 6 * files
    assert sizes == pool


def test_a_sweep_that_dies_keeps_the_records_of_the_instances_before(tmp_path, monkeypatch):
    # the records were written only after every instance had finished
    import dyadicmax.cli as cli_mod
    paths, _ = gen(tmp_path, trials=3, seed=0)
    config = SweepConfig(seed=0, p_values=(2.0,), q_tokens=("inf",), out=str(tmp_path / "run"))
    first = cli_mod._verify_one(paths[0].stem, cli_mod._load_instance(paths[0]), config)
    verify_one, calls = cli_mod._verify_one, []

    def dies_on_the_second(*args):
        calls.append(args[0])
        if len(calls) == 2:
            raise MemoryError("the sweep dies here")
        return verify_one(*args)

    monkeypatch.setattr(cli_mod, "_verify_one", dies_on_the_second)
    with pytest.raises(MemoryError):
        cmd_verify(config, paths)
    text = (tmp_path / "run" / "report.jsonl").read_text()
    assert text.endswith("\n") and len(calls) == 2
    assert [json.loads(line) for line in text.splitlines()] == json.loads(json.dumps(first))


def test_verify_one_on_reused_objects_matches_fresh_loads(tmp_path):
    # q = 3 and q = inf come back at other p: whatever one run derives from the
    # loaded instance and family, a second run on them gives the same records
    import dyadicmax.cli as cli_mod
    paths, _ = gen(tmp_path, trials=2, seed=0)
    config = SweepConfig(seed=0, p_values=(1.5, 2.0, 3.0), q_tokens=("p", "2p", "inf"))
    for path in paths:
        loaded = cli_mod._load_instance(path)
        runs = [cli_mod._verify_one(path.stem, loaded, config) for _ in range(2)]
        runs.append(cli_mod._verify_one(path.stem, cli_mod._load_instance(path), config))
        first, second, fresh = (json.dumps(run, sort_keys=True) for run in runs)
        assert len(runs[0]) == 9 * 6
        assert first == fresh and second == fresh


def test_verify_one_skips_numpys_python_wrappers_and_shares_the_reduction(tmp_path):
    # numpy's Python-level reductions (np.any, ndarray.max, ...) cost several
    # times a ufunc reduce, and a combination would call some 240 of them; the
    # reduced measure depends on (instance, p) alone, its coefficients on the
    # instance alone.  Basenames, so that numpy 1.x and 2.x both count
    import os
    import sys

    import dyadicmax.cli as cli_mod
    import dyadicmax.maximal as maximal_mod
    import dyadicmax.sawyer as sawyer_mod
    paths, _ = gen(tmp_path, trials=3, seed=0)
    config = SweepConfig(seed=0, p_values=(1.5, 2.0, 3.0), q_tokens=("p", "2p", "inf"))
    loaded = [(path.stem, cli_mod._load_instance(path)) for path in paths]
    wrappers = {"fromnumeric.py", "_methods.py"}
    counted = {sawyer_mod._reduced_measure.__code__: "reduced",
               maximal_mod._classical_scalars.__code__: "scalars"}
    seen, calls = [], {"reduced": 0, "scalars": 0}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if os.path.basename(code.co_filename) in wrappers:
                seen.append(f"{code.co_filename}:{code.co_name}")
            if code in counted:
                calls[counted[code]] += 1

    sys.setprofile(profile)
    try:
        records = [cli_mod._verify_one(name, inst, config) for name, inst in loaded]
    finally:
        sys.setprofile(None)
    assert all(rec["pass"] for batch in records for rec in batch)
    assert sum(map(len, records)) == 3 * 9 * 6
    assert not seen, sorted(set(seen))
    assert calls == {"reduced": 3 * 3, "scalars": 3}


def test_verify_one_holds_no_table_across_combinations():
    # the reduction's coefficient table, (depth + 1) x atoms, is built and
    # dropped inside each combination: three q at one p peak as high as the
    # highest of them alone
    import tracemalloc

    import numpy as np

    import dyadicmax.cli as cli_mod
    from conftest import caterpillar
    from dyadicmax import SawyerInstance, classical_coefficients
    model = caterpillar(200)
    assert model.n_nodes == 401
    inst = SawyerInstance(model=model, omega_leaf=model.mu_leaf,
                          w_leaf=np.ones(model.n_leaves), alpha=0.5, p=2.0)
    loaded = (inst, classical_coefficients(model, model.mu_leaf, 0.5))

    def peak(q_tokens):
        config = SweepConfig(p_values=(2.0,), q_tokens=q_tokens)
        tracemalloc.start()
        try:
            records = cli_mod._verify_one("caterpillar", loaded, config)
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(rec["pass"] for rec in records)
        return top

    cli_mod._verify_one("caterpillar", loaded, SweepConfig(p_values=(2.0,)))  # shape tables
    single = max(peak((tok,)) for tok in ("p", "2p", "inf"))
    together = peak(("p", "2p", "inf"))
    assert together <= 1.02 * single, (together / 2 ** 20, single / 2 ** 20)


def test_verify_rejects_bad_pq(tmp_path):
    with pytest.raises(ValueError, match="p <= q"):
        SweepConfig(p_values=(3.0,), q_tokens=("2.0",))


def test_verify_accepts_a_cube_with_one_child(tmp_path):
    # the filtrations of the theorem may refine a cube into itself: R's only child is A
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "nodes": [{"id": "R", "parent": None}, {"id": "A", "parent": "R"},
                  {"id": "a1", "parent": "A"}, {"id": "a2", "parent": "A"}],
        "mu": {"a1": 1.0, "a2": 2.0}, "nu": {"a1": 3.0, "a2": 0.5}}))
    config = SweepConfig(p_values=(2.0,), q_tokens=("p", "inf"), out=str(tmp_path / "run"))
    code, records = cmd_verify(config, [path])
    assert code == 0 and len(records) == 12


def test_verify_accepts_a_zero_tol():
    # the library's rtol rule allows 0; the CLI's own copy demanded > 0
    assert SweepConfig(tol=0.0).tol == 0.0


@pytest.mark.parametrize("flag, value, message", [
    ("--depth-min", "0", "empty depth range [0, 3]"),
    ("--branch-max", "1", "empty branching range [2, 1]"),
    ("--seed", "-1", "seed must be an integer >= 0"),
], ids=["depth_min_0", "branch_max_1", "negative_seed"])
def test_generate_bad_option_exits_2_and_creates_nothing(tmp_path, capsys, flag, value,
                                                         message):
    # --depth-min 0 exited 2 but left an empty --out behind; --seed -1 crashed
    out = tmp_path / "d"
    with pytest.raises(SystemExit) as exc:
        main(["generate", f"{flag}={value}", "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--tol", "nan", "rtol must be finite and >= 0"),
    ("--tol", "inf", "rtol must be finite and >= 0"),
    ("--q", "nan", "q must be a number in (1, inf]"),
    ("--q", "nanp", "q must be a number in (1, inf]"),
    ("--p", "inf", "p must be a finite number > 1"),
    ("--p", "nan", "p must be a finite number > 1"),
    ("--r", "inf", "ratio r must be a finite number > 1"),
    ("--search-random", "-1", "n_random must be an integer"),
    ("--search-ascent", "-1", "ascent_rounds must be an integer"),
    ("--seed", "-1", "seed must be an integer >= 0"),
    ("--workers", "0", "workers must be an integer >= 1"),
    ("--workers", "-1", "workers must be an integer >= 1"),
    ("--q", "p,2", "p = 2.0, q = 2.0 is swept twice"),
    ("--q", "4,2p", "p = 2.0, q = 4.0 is swept twice"),
    ("--p", "2,3,2", "p = 2.0, q = inf is swept twice"),
])
def test_verify_bad_option_exits_2(tmp_path, capsys, flag, value, message):
    # each of these once passed validation: NaN compares False with every
    # bound, so --tol nan passed any sandwich, and the others crashed or
    # failed checks mid-sweep with exit 1 and no report (--seed -1: a numpy
    # traceback and an empty report.jsonl).  A (p, q) pair named twice (the
    # default p is 2) ran twice, with two test functions, and wrote two record
    # sets under one key.  The messages are the library's
    paths, _ = gen(tmp_path, trials=2, seed=0)
    with pytest.raises(SystemExit) as exc:
        main(["verify", f"{flag}={value}", "--out", str(tmp_path / "run"), str(paths[1])])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, message", [
    (["--p", ""], "need at least one p value"),
    (["--q", ","], "need at least one q value"),
], ids=["no_p", "no_q"])
def test_verify_without_a_combination_exits_2(tmp_path, capsys, argv, message):
    # an empty list ran no combination and passed: 0/0 checks, exit 0
    paths, _ = gen(tmp_path, trials=1, seed=0)
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv, "--out", str(tmp_path / "run"), str(paths[0])])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_verify_without_an_instance_exits_2(tmp_path, capsys):
    # a coefficient file alone is skipped, and the empty sweep passed 0/0 checks
    paths, _ = gen(tmp_path, trials=1, seed=0)
    coeffs = paths[0].with_name(paths[0].stem + ".coeffs.json")
    run = tmp_path / "run"
    assert main(["verify", "--out", str(run), str(coeffs)]) == 2
    assert "no instance files to verify" in capsys.readouterr().err
    assert not run.exists()
    assert cmd_verify(SweepConfig(out=str(run)), []) == (2, [])
    assert not run.exists()


def test_verify_rejects_masses_whose_sum_overflows(tmp_path, capsys):
    # both atoms are finite, their cube's sum is not: verify_packing passed it
    # and stopping_weights died with a traceback, exit 1, an empty report
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_small_instance(mu={"L1": 1e308, "L2": 1e308})))
    run = tmp_path / "run"
    assert main(["verify", str(bad), "--search-random", "2", "--search-ascent", "1",
                 "--out", str(run)]) == 2
    assert "mu mass of cube 'Q0' is not a finite number" in capsys.readouterr().err
    assert not (run / "report.jsonl").exists()


def test_verify_non_numeric_r_exits_2(tmp_path, capsys):
    # float(args.r) ran outside main's try: a traceback and exit 1
    paths, _ = gen(tmp_path, trials=1, seed=0)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--r", "abc", "--out", str(tmp_path / "run"), str(paths[0])])
    assert exc.value.code == 2
    assert "stopping ratio r must be a finite number > 1, got 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("under", ["file", "file/run"])
def test_verify_out_under_a_file_exits_2_before_loading(tmp_path, capsys, monkeypatch,
                                                        under):
    # the sweep used to run in full, then fail writing report.jsonl
    import dyadicmax.cli as cli_mod
    paths, _ = gen(tmp_path, trials=1, seed=0)
    (tmp_path / "file").write_text("")
    loads, original = [], cli_mod._load_instance
    monkeypatch.setattr(cli_mod, "_load_instance",
                        lambda path: loads.append(path) or original(path))
    out = tmp_path / under
    assert main(["verify", "--out", str(out), str(paths[0])]) == 2
    assert f"error: cannot write report {out / 'report.jsonl'}: " in capsys.readouterr().err
    assert loads == []


def test_verify_load_error_keeps_an_earlier_report(tmp_path, capsys):
    paths, _ = gen(tmp_path, trials=1, seed=0)
    run = tmp_path / "run"
    config = SweepConfig(seed=0, p_values=(2.0,), out=str(run))
    assert cmd_verify(config, paths)[0] == 0
    before = (run / "report.jsonl").read_bytes()
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert cmd_verify(config, [bad])[0] == 2
    assert (run / "report.jsonl").read_bytes() == before


@pytest.mark.parametrize("target", ["report", "csv"])
def test_report_os_errors_exit_2(tmp_path, capsys, target):
    # a directory as the report or as the CSV raised IsADirectoryError, exit 1
    paths, _ = gen(tmp_path, trials=1, seed=0)
    run = tmp_path / "run"
    cmd_verify(SweepConfig(seed=0, p_values=(2.0,), out=str(run)), paths)
    argv = (["report", str(run)] if target == "report"
            else ["report", str(run / "report.jsonl"), "--csv", str(run)])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_verify_theorem_nan_rtol_on_a_generated_instance(tmp_path):
    # C(p) = 1e-6 is far below A_lower here; with rtol = NaN the sandwich passed
    from dyadicmax import NormSearch, read_coefficients, read_model, verify_theorem
    paths, _ = gen(tmp_path, trials=2, seed=0)
    model = read_model(paths[1])
    coeffs = read_coefficients(model, paths[1].with_name(paths[1].stem + ".coeffs.json"))
    with pytest.raises(ValueError, match="rtol"):
        verify_theorem(model, coeffs, 2.0, math.inf, NormSearch(4, 2, 0), rtol=math.nan,
                       c_p=1e-6)


def test_verify_audit_dumps_decompositions(tmp_path):
    paths, _ = gen(tmp_path, trials=1)
    run = tmp_path / "run"
    config = SweepConfig(seed=7, p_values=(2.0,), q_tokens=("inf",),
                         out=str(run), audit=True)
    code, _ = cmd_verify(config, paths)
    assert code == 0
    dumps = list((run / "audit").glob("*.decomp.json"))
    assert len(dumps) == 1
    data = json.loads(dumps[0].read_text())
    assert set(data) == {"r", "n_start", "measure", "generations", "blocks"}
    members = [m for block in data["blocks"].values() for m in block]
    assert sorted(members) == sorted(set(members))  # blocks are disjoint


def test_report_summary(tmp_path):
    paths, _ = gen(tmp_path, trials=3)
    run = tmp_path / "run"
    config = SweepConfig(seed=11, p_values=(2.0,), q_tokens=("inf",), out=str(run))
    code, _ = cmd_verify(config, paths)
    assert code == 0
    csv_path = tmp_path / "summary.csv"
    rows = cmd_report(run / "report.jsonl", csv_path)
    with csv_path.open() as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["p", "q", "metric", "value", "instance_id"]
    metrics = {row[2] for row in parsed[1:]}
    assert {"max_A_over_B", "max_packing_ratio", "min_proof_slack"} <= metrics
    for row in parsed[1:]:
        if row[2] == "max_A_over_B":
            assert float(row[3]) <= theorem_constant(float(row[0])) + 1e-9


def test_report_empty(tmp_path):
    empty = tmp_path / "report.jsonl"
    empty.write_text("")
    csv_path = tmp_path / "out.csv"
    rows = cmd_report(empty, csv_path)
    assert rows == []
    assert csv_path.read_text().strip() == "p,q,metric,value,instance_id"


@pytest.mark.parametrize("bad", ['{"instance": "instance_0000", "p": 2.0, "q": "in', "[1, 2]"])
def test_report_names_a_malformed_line_and_exits_2(tmp_path, capsys, bad):
    # a cut-off last line, as a killed sweep leaves it, and a line that is not
    # a record once ended in a JSONDecodeError or TypeError traceback
    paths, _ = gen(tmp_path, trials=1)
    run = tmp_path / "run"
    code, records = cmd_verify(SweepConfig(seed=7, out=str(run)), paths)
    assert code == 0
    report = run / "report.jsonl"
    with report.open("a") as fh:
        fh.write(bad)
    with pytest.raises(ValueError, match=f"line {len(records) + 1}: not a check record"):
        cmd_report(report)
    capsys.readouterr()
    assert main(["report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{report}, line {len(records) + 1}" in err


def _strict_json(line):
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(line, parse_constant=reject)


def test_report_lines_are_strict_json_when_a_number_is_not_finite(tmp_path, capsys):
    # at p = 1.5 the multiplier w^2 = 1.69e308 is finite, but g = f * w^2
    # overflows where the drawn f exceeds 1: at q = 3 the reduction's errors
    # and its margin are NaN
    leaves = ("a", "b", "c")
    path = tmp_path / "big_w.json"
    path.write_text(json.dumps({
        "nodes": [{"id": "R", "parent": None}] + [{"id": k, "parent": "R"} for k in leaves],
        "mu": dict.fromkeys(leaves, 1), "nu": dict.fromkeys(leaves, 1),
        "omega": dict.fromkeys(leaves, 1), "w": dict.fromkeys(leaves, 1.3e154),
        "alpha": 0.5}))
    run = tmp_path / "run"
    assert main(["verify", str(path), "--p", "1.5", "--q", "p,2p,inf", "--out", str(run)]) == 1
    lines = (run / "report.jsonl").read_text().splitlines()
    records = [_strict_json(line) for line in lines]
    failed = [i for i, rec in enumerate(records) if not rec["pass"]]
    assert [(records[i]["check"], records[i]["q"]) for i in failed] == \
        [("sawyer_reduction", 3.0)]
    assert records[failed[0]]["margin"] == "nan"
    assert set(records[failed[0]]["detail"].values()) == {"nan"}
    # the records whose numbers are all finite keep json's own bytes
    assert all(json.dumps(rec, sort_keys=True) == line
               for i, (rec, line) in enumerate(zip(records, lines)) if i not in failed)
    capsys.readouterr()
    assert main(["report", str(run / "report.jsonl")]) == 0


@pytest.mark.parametrize("margin, detail", [
    (0.5, {"B": 1.25, "A_lower": 1.5, "witness_cube": "Q0", "error": None}),
    (0.5, {"B": math.inf, "A_lower": 1.5}),
    (-1.0, {"lhs": -math.inf, "bound": 2.0}),
    (math.nan, {"integral_rel_error": math.nan, "norm_rel_error": 0.0}),
], ids=["finite", "inf", "minus_inf", "nan"])
def test_record_lines_are_json_dumps_of_the_spelled_record(margin, detail):
    # cmd_verify encodes every record with one shared encoder; the bytes are
    # those of json.dumps with the report's rule
    from dyadicmax.cli import _json_line, _record, _spelled
    rec = _record("instance_0000", 2.0, math.inf, "sandwich", True, margin, **detail)
    want = json.dumps(_spelled(rec), sort_keys=True, allow_nan=False) + "\n"
    assert _json_line(rec) == want
    assert "Infinity" not in want and "NaN" not in want


def test_report_reads_non_finite_strings_as_numbers(tmp_path):
    # verify writes inf, -inf and NaN as strings; they must still reach the
    # summary, as the worst case of their (p, q), and other strings are skipped
    def record(check, **detail):
        return json.dumps({"instance": "i", "p": 2.0, "q": "inf", "check": check,
                           "pass": False, "margin": "nan", "detail": detail})
    report = tmp_path / "report.jsonl"
    report.write_text("\n".join([
        record("sandwich", B="inf", A_lower=1.0),
        record("sandwich", B=2.0, A_lower=3.0),
        record("sandwich", B=1.0, A_lower="big"),
        record("packing", worst_ratio=2.0),
        record("packing", worst_ratio="inf"),
        record("packing", worst_ratio="big"),
        record("proof_chain", min_rel_slack=0.5),
        record("proof_chain", min_rel_slack="-inf"),
    ]) + "\n")
    assert cmd_report(report) == [(2.0, "inf", "max_A_over_B", 1.5, "i"),
                                  (2.0, "inf", "max_packing_ratio", math.inf, "i"),
                                  (2.0, "inf", "min_proof_slack", -math.inf, "i")]


@pytest.mark.parametrize("nan_first", [True, False], ids=["nan_first", "nan_later"])
@pytest.mark.parametrize("check, key, metric, number", [
    ("sandwich", "A_lower", "max_A_over_B", 1.2),
    ("packing", "worst_ratio", "max_packing_ratio", 1.2),
    ("proof_chain", "min_rel_slack", "min_proof_slack", -0.5),
])
def test_report_keeps_a_nan_wherever_it_comes(tmp_path, nan_first, check, key, metric, number):
    # a NaN won only as the first value of its metric: a "nan" worst_ratio
    # after 1.2 summarized as 1.2.  Now the first NaN wins, as in verify_packing
    def record(instance, value):
        detail = {key: value, **({"B": 1.0} if check == "sandwich" else {})}
        return json.dumps({"instance": instance, "p": 2.0, "q": "inf", "check": check,
                           "pass": False, "margin": 0.0, "detail": detail})
    lines = [record("n", number), record("first_nan", "nan"), record("second_nan", "nan")]
    if nan_first:
        lines[:2] = lines[1::-1]
    report = tmp_path / "report.jsonl"
    report.write_text("\n".join(lines) + "\n")
    [(p, q, got_metric, value, instance)] = cmd_report(report)
    assert (p, q, got_metric, instance) == (2.0, "inf", metric, "first_nan")
    assert math.isnan(value)


def test_report_sorts_q_as_a_number_with_inf_last(tmp_path):
    # q was sorted as a string: at p = 6 with --q p,2p, q = 12.0 came before 6.0.
    # A p written as a string beside a number raised TypeError in the sort
    report = tmp_path / "report.jsonl"
    report.write_text("".join(
        json.dumps({"instance": "i", "p": p, "q": q, "check": "packing", "pass": True,
                    "margin": 0.0, "detail": {"worst_ratio": 1.0}}) + "\n"
        for p, q in [(6.0, 12.0), (6.0, "inf"), ("6", 6.0), (6.0, 6.0), (6.0, 100.0),
                     (2.0, 4.0)]))
    assert [row[:2] for row in cmd_report(report)] == [
        (2.0, 4.0), (6.0, 6.0), (6.0, 12.0), (6.0, 100.0), (6.0, "inf"), ("6", 6.0)]


def test_report_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        cmd_report(tmp_path / "nope.jsonl", None)


def test_main_end_to_end(tmp_path, capsys):
    inst = tmp_path / "inst"
    assert main(["generate", "--trials", "2", "--seed", "5",
                 "--out", str(inst)]) == 0
    manifest = capsys.readouterr().out.strip().splitlines()
    assert len(manifest) == 2
    files = sorted(str(p) for p in inst.glob("instance_*.json")
                   if not str(p).endswith(".coeffs.json"))
    assert main(["verify", "--p", "1.5", "--q", "inf",
                 "--out", str(tmp_path / "run"), *files]) == 0
    assert main(["report", str(tmp_path / "run" / "report.jsonl"),
                 "--csv", str(tmp_path / "s.csv")]) == 0
    assert (tmp_path / "s.csv").exists()


def test_options_left_out_take_the_config_defaults(monkeypatch):
    import dyadicmax.cli as cli_mod
    seen = []
    monkeypatch.setattr(cli_mod, "cmd_verify",
                        lambda config, paths: seen.append((config, paths)) or (0, []))
    monkeypatch.setattr(cli_mod, "cmd_generate", lambda config: seen.append((config, None)))
    assert main(["verify", "x.json"]) == 0
    assert main(["generate"]) == 0
    assert seen == [(SweepConfig(), ["x.json"]), (SweepConfig(), None)]


# one non-default value per flag of generate and verify, and the field it sets
FLAG_FIELDS = {
    "generate": [("--trials", "3", "trials", 3), ("--depth-min", "2", "depth_min", 2),
                 ("--depth-max", "4", "depth_max", 4), ("--branch-min", "1", "branch_min", 1),
                 ("--branch-max", "5", "branch_max", 5), ("--seed", "7", "seed", 7),
                 ("--out", "elsewhere", "out", "elsewhere")],
    "verify": [("--p", "1.5,3", "p_values", (1.5, 3.0)),
               ("--q", "p, inf", "q_tokens", ("p", "inf")), ("--r", "1.75", "r", 1.75),
               ("--tol", "1e-6", "tol", 1e-6), ("--workers", "2", "workers", 2),
               ("--search-random", "5", "search_random", 5),
               ("--search-ascent", "3", "search_ascent", 3),
               ("--debug-halve-cp", None, "halve_cp", True), ("--audit", None, "audit", True),
               ("--seed", "7", "seed", 7), ("--out", "elsewhere", "out", "elsewhere")],
}


def _captured_config(monkeypatch, argv):
    import dyadicmax.cli as cli_mod
    seen = []
    monkeypatch.setattr(cli_mod, "cmd_verify",
                        lambda config, paths: seen.append(config) or (0, []))
    monkeypatch.setattr(cli_mod, "cmd_generate", seen.append)
    assert main(argv) == 0
    [config] = seen
    return config


def test_every_flag_is_listed():
    # argparse keeps each subcommand's parser as a choice of its subparsers action
    from dyadicmax.cli import build_parser
    subs = next(a for a in build_parser()._actions if a.choices)
    for command, rows in FLAG_FIELDS.items():
        flags = {opt for action in subs.choices[command]._actions
                 for opt in action.option_strings if opt not in ("-h", "--help")}
        assert flags == {row[0] for row in rows}, command


@pytest.mark.parametrize("command, flag, value, field, want", [
    (command, *row) for command, rows in FLAG_FIELDS.items() for row in rows],
    ids=[f"{command}{row[0]}" for command, rows in FLAG_FIELDS.items() for row in rows])
def test_each_flag_reaches_its_config_field(monkeypatch, command, flag, value, field, want):
    paths = ["x.json"] if command == "verify" else []
    config = _captured_config(monkeypatch, [command, flag, *([value] if value else []), *paths])
    assert getattr(SweepConfig(), field) != want
    assert config == replace(SweepConfig(), **{field: want})


def test_verify_records_a_failed_reduction_and_goes_on(tmp_path):
    # omega > 0 where w = 0: the reduced measure would be infinite
    paths, _ = gen(tmp_path, trials=1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "nodes": [{"id": "Q0", "parent": None}, {"id": "L1", "parent": "Q0"},
                  {"id": "L2", "parent": "Q0"}],
        "mu": {"L1": 1.0, "L2": 1.0}, "nu": {"L1": 1.0, "L2": 1.0},
        "omega": {"L1": 1.0, "L2": 1.0}, "w": {"L1": 0.0, "L2": 1.0}}))
    run = tmp_path / "run"
    config = SweepConfig(seed=7, p_values=(2.0,), q_tokens=("p", "inf"), out=str(run))
    code, records = cmd_verify(config, [bad, *paths])
    assert code == 1
    assert len((run / "report.jsonl").read_text().splitlines()) == len(records) == 2 * 2 * 6
    failed = [r for r in records if not r["pass"]]
    assert [(r["instance"], r["check"]) for r in failed] == [("bad", "sawyer_reduction")] * 2
    assert all("zero density" in r["detail"]["error"] for r in failed)


def test_verify_records_an_unexpected_exception_and_goes_on(tmp_path, monkeypatch):
    # a check that raises what it does not report, here on one instance at
    # q = inf, ended the sweep with a traceback and no report; now that
    # combination gets one failed error record, and every other record is
    # the one an unpatched run writes, serially and with a pool alike
    import dyadicmax.cli as cli_mod
    paths, _ = gen(tmp_path, trials=3)
    config = SweepConfig(seed=7, p_values=(2.0,), q_tokens=("p", "inf"))
    _, clean = cmd_verify(replace(config, out=str(tmp_path / "clean")), paths)
    bad_model = cli_mod._load_instance(Path(paths[1]))[0].model
    original = cli_mod.proof_trace

    def raising(model, a, f, p, q, *args, **kwargs):
        if q == math.inf and model == bad_model:
            raise RuntimeError("injected")
        return original(model, a, f, p, q, *args, **kwargs)

    monkeypatch.setattr(cli_mod, "proof_trace", raising)
    runs = {}
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        code, records = cmd_verify(replace(config, out=str(out), workers=workers), paths)
        assert code == 1
        runs[workers] = (out / "report.jsonl").read_bytes()
    assert runs[1] == runs[2]
    error = {"instance": "instance_0001", "p": 2.0, "q": "inf", "check": "error",
             "pass": False, "margin": -1.0, "detail": {"error": "RuntimeError: injected"}}
    want = [rec for rec in clean if (rec["instance"], rec["q"]) != ("instance_0001", "inf")]
    want.insert(next(i for i, rec in enumerate(want) if rec["instance"] == "instance_0002"),
                error)
    assert records == want


@pytest.mark.parametrize("workers", [1, 2])
def test_verify_loads_each_instance_once(tmp_path, monkeypatch, workers):
    import dyadicmax.cli as cli_mod
    calls = []
    original = cli_mod._load_instance

    def counted(path):
        calls.append(path)
        return original(path)

    monkeypatch.setattr(cli_mod, "_load_instance", counted)
    paths, _ = gen(tmp_path, trials=3)
    config = SweepConfig(seed=7, p_values=(2.0,), q_tokens=("inf",),
                         out=str(tmp_path / "run"), workers=workers)
    code, _ = cmd_verify(config, paths)
    assert code == 0
    assert sorted(calls) == sorted(paths)


@pytest.mark.parametrize("w", [1e-300, 1e300])
def test_verify_records_a_non_finite_reduction_and_goes_on(tmp_path, w):
    # at p = 1.5 the reduced mass w^-2 * omega overflows at w = 1e-300, and
    # the multiplier w^2 at w = 1e300; RuntimeWarnings are errors in this suite
    (path,), _ = gen(tmp_path, trials=1, seed=0)
    data = json.loads(Path(path).read_text())
    data["w"]["n10"], data["omega"]["n10"] = w, 1.0
    Path(path).write_text(json.dumps(data))
    run = tmp_path / "run"
    config = SweepConfig(seed=0, p_values=(1.5,), q_tokens=("inf",), out=str(run))
    code, records = cmd_verify(config, [path])
    assert code == 1
    assert len((run / "report.jsonl").read_text().splitlines()) == len(records) == 6
    failed = [r for r in records if not r["pass"]]
    assert [r["check"] for r in failed] == ["sawyer_reduction"]
    assert failed[0]["detail"]["error"].startswith("leaf 'n10': ")
    assert "not a finite number" in failed[0]["detail"]["error"]

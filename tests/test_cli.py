import csv
import json
import math
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
        roots = [n for n in data["nodes"] if n["parent"] is None]
        for node in data["nodes"]:
            if node["children"]:
                assert node["id"] in {r["id"] for r in roots}


def test_generate_zero_trials_config_error(tmp_path):
    with pytest.raises(ValueError, match="trials"):
        SweepConfig(trials=0, out=str(tmp_path)).validate()


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


def test_verify_corrupt_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    config = SweepConfig(out=str(tmp_path / "run"))
    code, records = cmd_verify(config, [bad])
    assert code == 2 and records == []


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


def test_verify_rejects_bad_pq(tmp_path):
    with pytest.raises(ValueError, match="p <= q"):
        SweepConfig(p_values=(3.0,), q_tokens=("2.0",)).validate()


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

"""Batch front end: generate instances, run verification sweeps, summarize.

Reports are JSON-lines records, one per (instance, p, q, check), appended
to ``report.jsonl``; a second run into the same directory appends its
records again, it does not resume.  The summary command aggregates them into
CSV.  Identical configurations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .constants import (NormSearch, VerificationError, theorem_constant,
                        theorem_constant_hp, verify_theorem)
from .lattice import ModelError, RandomModelParams, build_model, random_model
from .maximal import (CoefficientFamily, classical_coefficients,
                      read_coefficients, write_coefficients)
from .sawyer import (ReductionError, SawyerInstance, _draw_instance, instance_to_dict,
                     verify_reduction)
from .stopping import (build_decomposition, carleson_embedding_check,
                       decomposition_to_dict, default_r, partition_ok,
                       proof_trace, stopping_weights, verify_packing)

__all__ = ["SweepConfig", "cmd_generate", "cmd_verify", "cmd_report", "main"]

CHECKS = ("sandwich", "cp_value", "packing", "carleson", "proof_chain",
          "sawyer_reduction")


@dataclass(frozen=True)
class SweepConfig:
    """Validated batch parameters shared by the subcommands."""

    trials: int = 10
    seed: int = 0
    p_values: tuple = (2.0,)
    q_tokens: tuple = ("inf",)
    r: object = "auto"            # "auto" or float > 1
    depth_min: int = 1
    depth_max: int = 3
    branch_min: int = 2
    branch_max: int = 3
    tol: float = 1e-9
    out: str = "."
    search_random: int = 64
    search_ascent: int = 12
    workers: int = 1
    halve_cp: bool = False
    audit: bool = False

    def validate(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        for p in self.p_values:
            if not p > 1.0:
                raise ValueError(f"p must be > 1, got {p}")
            for tok in self.q_tokens:
                q = resolve_q(tok, p)
                if q < p:
                    raise ValueError(f"need p <= q, got p={p}, q={tok!r}")
        if self.r != "auto" and not float(self.r) > 1.0:
            raise ValueError(f"r must be 'auto' or > 1, got {self.r}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        return self


def resolve_q(token: str, p: float) -> float:
    """Turn a q spec into a number: 'inf', a literal, or a multiple of p."""
    tok = str(token).strip().lower()
    if tok == "inf":
        return math.inf
    if tok.endswith("p"):
        head = tok[:-1]
        mult = 1.0 if head in ("", "+") else float(head)
        return mult * p
    return float(tok)


def _q_label(q):
    return "inf" if q == math.inf else q


def _instance_entropy(config_seed: int, name: str):
    digest = hashlib.sha256(name.encode()).digest()
    return [config_seed, int.from_bytes(digest[:8], "big")]


# ---------------------------------------------------------------------------
# generate


def cmd_generate(config: SweepConfig):
    """Write ``trials`` instance files plus coefficient files; print manifest."""
    config.validate()
    out = Path(config.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ValueError(f"unwritable output path {out}: {exc}") from None

    params = RandomModelParams(
        depth_min=config.depth_min, depth_max=config.depth_max,
        branch_min=config.branch_min, branch_max=config.branch_max,
        zero_prob_mu=0.15, zero_prob_nu=0.15, leaf_prob=0.25,
    )
    paths = []
    for i in range(config.trials):
        name = f"instance_{i:04d}"
        entropy = _instance_entropy(config.seed, name)
        model = random_model(params, np.random.SeedSequence(entropy + [1]))
        inst = _draw_instance(model, np.random.default_rng(
            np.random.SeedSequence(entropy + [2])), p=2.0)
        path = out / f"{name}.json"
        path.write_text(json.dumps(instance_to_dict(inst), indent=2,
                                   sort_keys=True) + "\n")
        coeffs = CoefficientFamily.random(
            model, np.random.SeedSequence(entropy + [3]))
        write_coefficients(coeffs, out / f"{name}.coeffs.json")
        paths.append(path)
    for path in paths:
        print(path)
    return paths


# ---------------------------------------------------------------------------
# verify


def _load_instance(path: Path):
    """Instance file -> (validated Sawyer instance, coefficients)."""
    data = json.loads(path.read_text())
    model = build_model(data, min_children=1)
    omega_map = data.get("omega") or data["mu"]
    inst = SawyerInstance(  # p is a placeholder: each swept p replaces it
        model=model,
        omega_leaf=[float(omega_map.get(nid, 0.0)) for nid in model.leaf_ids],
        w_leaf=[float(data.get("w", {}).get(nid, 1.0)) for nid in model.leaf_ids],
        alpha=float(data.get("alpha", 0.5)), p=2.0)
    coeff_path = path.with_name(path.stem + ".coeffs.json")
    if coeff_path.exists():
        coeffs = read_coefficients(model, coeff_path)
    else:
        coeffs = classical_coefficients(model, inst.omega_leaf, inst.alpha)
    return inst, coeffs


def _record(instance, p, q, check, passed, margin, **detail):
    return {
        "instance": instance,
        "p": p,
        "q": _q_label(q),
        "check": check,
        "pass": bool(passed),
        "margin": float(margin),
        "detail": detail,
    }


def _verify_one(name: str, instance, config: SweepConfig):
    """All check records for one loaded instance; deterministic."""
    inst, coeffs = instance
    model = inst.model
    entropy = _instance_entropy(config.seed, name)
    records = []

    for pi, p in enumerate(config.p_values):
        cp_true = theorem_constant(p)
        cp_used = cp_true * (0.5 if config.halve_cp else 1.0)
        cp_ref = theorem_constant_hp(p)
        for qi, tok in enumerate(config.q_tokens):
            q = resolve_q(tok, p)
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy + [10 + pi, 100 + qi]))
            f = rng.exponential(1.0, model.n_leaves)
            r = default_r(p) if config.r == "auto" else float(config.r)

            # sandwich: B <= A_lower <= C(p) B
            search = NormSearch(n_random=config.search_random,
                                ascent_rounds=config.search_ascent,
                                seed=int(rng.integers(2 ** 31)))
            error = {}
            try:
                rep = verify_theorem(model, coeffs, p, q, search,
                                     rtol=config.tol, c_p=cp_used)
            except VerificationError as exc:
                rep, error = exc.report, {"error": str(exc)}
            records.append(_record(
                name, p, q, "sandwich", not error, min(rep.margins),
                B=rep.B, A_lower=rep.A_lower, C_p=rep.C_p,
                witness_cube=rep.witness_cube, **error))

            # the constant actually used vs an independent evaluation
            cp_err = abs(cp_used - cp_ref) / cp_ref
            records.append(_record(
                name, p, q, "cp_value", cp_err <= 1e-12, 1e-12 - cp_err,
                used=cp_used, reference=cp_ref))

            # stopping family packing
            decomp = build_decomposition(model, f, r)
            packing = verify_packing(model, decomp)
            parts_ok = partition_ok(decomp)
            if config.audit:
                audit_dir = Path(config.out) / "audit"
                audit_dir.mkdir(parents=True, exist_ok=True)
                dump = audit_dir / f"{name}_p{p}_q{_q_label(q)}.decomp.json"
                dump.write_text(json.dumps(decomposition_to_dict(decomp),
                                           indent=2, sort_keys=True) + "\n")
            records.append(_record(
                name, p, q, "packing", packing.ok and parts_ok,
                packing.bound - packing.worst_ratio,
                worst_ratio=packing.worst_ratio, bound=packing.bound,
                generation_worst=packing.generation_worst,
                partition_ok=parts_ok))

            # Carleson embedding with the stopping masses
            weights = stopping_weights(decomp)
            carleson = carleson_embedding_check(model, weights, f, p,
                                                rtol=config.tol)
            pack_bound_ok = weights.packing_constant <= r / (r - 1.0) * (1 + config.tol)
            records.append(_record(
                name, p, q, "carleson", carleson.ok and pack_bound_ok,
                carleson.slack, lhs=carleson.lhs, bound=carleson.bound,
                packing_constant=weights.packing_constant))

            # full sufficiency chain
            try:
                trace = proof_trace(model, coeffs, f, p, q, r, B=rep.B,
                                    decomp=decomp, rtol=config.tol, strict=True)
                slacks = [(l.rhs - l.lhs) / max(abs(l.rhs), 1e-300)
                          for l in trace.links]
                chain_ok = (trace.reconstruction_rel_error <= 1e-12
                            and trace.average_control_excess <= config.tol)
                records.append(_record(
                    name, p, q, "proof_chain", chain_ok, min(slacks),
                    min_rel_slack=min(slacks),
                    reconstruction_rel_error=trace.reconstruction_rel_error,
                    average_control_excess=trace.average_control_excess))
            except VerificationError as exc:
                records.append(_record(
                    name, p, q, "proof_chain", False, -1.0,
                    failed_link=str(exc)))

            # change-of-weight identities
            try:
                red = verify_reduction(replace(inst, p=p), f, q, strict=False)
            except ReductionError as exc:
                records.append(_record(name, p, q, "sawyer_reduction", False, -1.0,
                                       error=str(exc)))
                continue
            worst = max(red.integral_rel_error, red.operator_rel_error,
                        red.norm_rel_error)
            records.append(_record(
                name, p, q, "sawyer_reduction", red.ok, 1e-12 - worst,
                integral_rel_error=red.integral_rel_error,
                operator_rel_error=red.operator_rel_error,
                norm_rel_error=red.norm_rel_error))
    return records


def cmd_verify(config: SweepConfig, instance_paths):
    """Run every configured check; returns (exit code, records)."""
    config.validate()
    # companion coefficient files ride along with shell globs; skip them
    paths = sorted(str(p) for p in instance_paths
                   if not str(p).endswith(".coeffs.json"))
    try:
        instances = [_load_instance(Path(p)) for p in paths]
    except (ModelError, json.JSONDecodeError, OSError, KeyError, TypeError, ValueError) as exc:
        print(f"error: cannot load instance: {exc}", file=sys.stderr)
        return 2, []

    jobs = ([Path(p).stem for p in paths], instances, [config] * len(paths))
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            per_instance = list(pool.map(_verify_one, *jobs))
    else:
        per_instance = list(map(_verify_one, *jobs))

    records = [rec for batch in per_instance for rec in batch]
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.jsonl"
    with report_path.open("a") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")

    failed = [r for r in records if not r["pass"]]
    for rec in failed:
        detail = rec["detail"].get("failed_link") or rec["detail"].get("error", "")
        print(f"FAIL {rec['instance']} p={rec['p']} q={rec['q']} "
              f"{rec['check']} {detail}", file=sys.stderr)
    print(f"{len(records) - len(failed)}/{len(records)} checks passed "
          f"-> {report_path}")
    return (1 if failed else 0), records


# ---------------------------------------------------------------------------
# report


def cmd_report(report_path, csv_path=None):
    """Aggregate a JSONL report into per-(p, q) summary rows (CSV)."""
    path = Path(report_path)
    if not path.exists():
        raise FileNotFoundError(f"missing report: {path}")
    best = {}  # (p, q, metric) -> (value, instance, better)

    def consider(p, q, metric, value, instance, better):
        key = (p, q, metric)
        cur = best.get(key)
        if cur is None or better(value, cur[0]):
            best[key] = (value, instance)

    with path.open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            p, q, det = rec["p"], rec["q"], rec["detail"]
            if rec["check"] == "sandwich" and det.get("B", 0) > 0:
                consider(p, q, "max_A_over_B", det["A_lower"] / det["B"],
                         rec["instance"], lambda a, b: a > b)
            elif rec["check"] == "packing":
                consider(p, q, "max_packing_ratio", det["worst_ratio"],
                         rec["instance"], lambda a, b: a > b)
            elif rec["check"] == "proof_chain" and "min_rel_slack" in det:
                consider(p, q, "min_proof_slack", det["min_rel_slack"],
                         rec["instance"], lambda a, b: a < b)

    rows = [(p, q, metric, value, instance)
            for (p, q, metric), (value, instance) in sorted(
                best.items(), key=lambda kv: (kv[0][0], str(kv[0][1]), kv[0][2]))]
    target = open(csv_path, "w", newline="") if csv_path else sys.stdout
    try:
        writer = csv.writer(target)
        writer.writerow(["p", "q", "metric", "value", "instance_id"])
        writer.writerows(rows)
    finally:
        if csv_path:
            target.close()
    return rows


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=".")


def _float_list(text):
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _token_list(text):
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dyadicmax",
        description="Generate, verify and summarize two-weight testing sweeps.")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="write random instance files")
    gen.add_argument("--trials", type=int, default=10)
    gen.add_argument("--depth-min", type=int, default=1)
    gen.add_argument("--depth-max", type=int, default=3)
    gen.add_argument("--branch-min", type=int, default=2)
    gen.add_argument("--branch-max", type=int, default=3)
    _add_common(gen)

    ver = subs.add_parser("verify", help="run every check on instance files")
    ver.add_argument("instances", nargs="+")
    ver.add_argument("--p", type=_float_list, default=(2.0,))
    ver.add_argument("--q", type=_token_list, default=("inf",))
    ver.add_argument("--r", default="auto")
    ver.add_argument("--tol", type=float, default=1e-9)
    ver.add_argument("--workers", type=int, default=1)
    ver.add_argument("--search-random", type=int, default=64)
    ver.add_argument("--search-ascent", type=int, default=12,
                     help="power-iteration steps of the operator-norm search")
    ver.add_argument("--debug-halve-cp", action="store_true",
                     help="fault injection: halve C(p) to prove checks can fail")
    ver.add_argument("--audit", action="store_true",
                     help="dump stopping decompositions next to the report")
    _add_common(ver)

    rep = subs.add_parser("report", help="summarize a report into CSV")
    rep.add_argument("report")
    rep.add_argument("--csv", default=None)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate":
        config = SweepConfig(trials=args.trials, seed=args.seed,
                             depth_min=args.depth_min, depth_max=args.depth_max,
                             branch_min=args.branch_min, branch_max=args.branch_max,
                             out=args.out)
        try:
            config.validate()
            cmd_generate(config)
        except ValueError as exc:
            parser.error(str(exc))
        return 0
    if args.command == "verify":
        r = args.r if args.r == "auto" else float(args.r)
        config = SweepConfig(seed=args.seed, p_values=args.p, q_tokens=args.q,
                             r=r, tol=args.tol, out=args.out,
                             workers=args.workers,
                             search_random=args.search_random,
                             search_ascent=args.search_ascent,
                             halve_cp=args.debug_halve_cp,
                             audit=args.audit)
        try:
            config.validate()
        except ValueError as exc:
            parser.error(str(exc))
        code, _ = cmd_verify(config, args.instances)
        return code
    if args.command == "report":
        try:
            cmd_report(args.report, args.csv)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())

"""Batch front end: generate instances, run verification sweeps, summarize.

Reports are JSON-lines records, one per (instance, p, q, check), appended
to ``report.jsonl``; a second run into the same directory appends its
records again, it does not resume.  The summary command aggregates them into
CSV.  Identical configurations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .constants import (NormSearch, VerificationError, _check_rtol, theorem_constant,
                        theorem_constant_hp, verify_theorem)
from .lattice import (ModelError, RandomModelParams, _check_int, _check_pq, _is_number,
                      _read_json, random_model)
from .maximal import (CoefficientFamily, _classical_scalars, classical_coefficients,
                      read_coefficients, write_coefficients)
from .sawyer import (ReductionError, _draw_instance, _instance_from_dict, _reduced_measure,
                     verify_reduction, write_instance)
from .stopping import (_check_r, build_decomposition, carleson_embedding_check,
                       decomposition_to_dict, default_r, partition_ok,
                       proof_trace, stopping_weights, verify_packing)

__all__ = ["SweepConfig", "cmd_generate", "cmd_verify", "cmd_report", "main"]


@dataclass(frozen=True)
class SweepConfig:
    """Batch parameters shared by the subcommands, checked when they are made:
    the CLI's own rules, and the library's rule for every other option."""

    trials: int = 10
    seed: int = 0
    p_values: tuple = (2.0,)
    q_tokens: tuple = ("inf",)
    r: object = "auto"            # "auto" or a number
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

    def __post_init__(self):
        for name in ("trials", "workers"):
            object.__setattr__(self, name, _check_int(getattr(self, name), name, 1))
        for values, name in ((self.p_values, "p"), (self.q_tokens, "q")):
            if not values:  # no combination would run: a vacuous pass
                raise ValueError(f"need at least one {name} value")
        seen = set()  # each (p, q) once: a pair swept twice writes two record sets under one key
        for p in self.p_values:
            for tok in self.q_tokens:
                q = resolve_q(tok, p)
                pair = (_check_pq(p, q), q)
                if pair in seen:
                    raise ValueError(f"p = {pair[0]}, q = {_q_label(q)} is swept twice")
                seen.add(pair)
        if self.r != "auto":
            _check_r(self.r)
        _check_rtol(self.tol)
        # a seed that NormSearch takes is one that _instance_entropy's SeedSequence takes
        NormSearch(n_random=self.search_random, ascent_rounds=self.search_ascent,
                   seed=self.seed)
        _generate_params(self)  # the shape options, as generate reads them
        for name in ("halve_cp", "audit"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")


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


def _generate_params(config: SweepConfig) -> RandomModelParams:
    """The shape of generate's instances, with their masses' and leaves' odds."""
    return RandomModelParams(depth_min=config.depth_min, depth_max=config.depth_max,
                             branch_min=config.branch_min, branch_max=config.branch_max,
                             zero_prob_mu=0.15, zero_prob_nu=0.15, leaf_prob=0.25)


def _instance_entropy(config_seed: int, name: str):
    digest = hashlib.sha256(name.encode()).digest()
    return [config_seed, int.from_bytes(digest[:8], "big")]


# ---------------------------------------------------------------------------
# generate


def cmd_generate(config: SweepConfig):
    """Write ``trials`` instance files plus coefficient files; print manifest."""
    params = _generate_params(config)
    out = Path(config.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ValueError(f"unwritable output path {out}: {exc}") from None

    paths = []
    for i in range(config.trials):
        name = f"instance_{i:04d}"
        entropy = _instance_entropy(config.seed, name)
        model = random_model(params, np.random.SeedSequence(entropy + [1]))
        inst = _draw_instance(model, np.random.default_rng(
            np.random.SeedSequence(entropy + [2])), p=2.0)
        path = out / f"{name}.json"
        write_instance(inst, path)
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
    """Instance file -> (validated Sawyer instance, coefficients).

    ``omega`` and ``w`` are read as strictly as ``mu``: every leaf and no
    other node.  An absent ``omega`` is ``mu``, an absent ``w`` is 1.  An
    error in either file's content raises ``ModelError`` naming that file.
    """
    # p is a placeholder: each swept p replaces it
    inst = _read_json(path, lambda data: _instance_from_dict(data, p=2.0))
    coeff_path = path.with_name(path.stem + ".coeffs.json")
    if coeff_path.exists():
        coeffs = read_coefficients(inst.model, coeff_path)
    else:
        coeffs = classical_coefficients(inst.model, inst.omega_leaf, inst.alpha)
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


def _spelled(value):
    """``value`` with each number in it, at any depth of its dicts, that is not
    finite written as the string "inf", "-inf" or "nan", as q = "inf" is."""
    if isinstance(value, dict):
        return {key: _spelled(v) for key, v in value.items()}
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


# writes a record as strict JSON, keys sorted; it rejects a number that is not finite
_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)


def _json_line(record) -> str:
    """A record's line in ``report.jsonl``: the record as strict JSON, keys
    sorted, with every number that is not finite spelled as a string
    (``_spelled``)."""
    return _ENCODER.encode(_spelled(record)) + "\n"


def _verify_one(name: str, instance, config: SweepConfig):
    """All check records for one loaded instance; deterministic.

    The change of weight's inputs are computed once and shared: the reduced
    mass and the multiplier once per p, and the entries omega(Q)^(-alpha) of
    its coefficients, which depend on the instance alone, at the first
    reduction.  They hold one value per atom or node; ``verify_reduction``
    builds a family for each side, so no level table outlives its
    combination.

    A check that raises anything but the failures it reports (a
    ``VerificationError`` or a ``ReductionError``) costs its combination
    alone: the (instance, p, q) gets one failed ``error`` record naming the
    exception in place of its check records, its traceback goes to stderr,
    and the other combinations run as before, each from its own random
    stream.
    """
    inst, coeffs = instance
    model = inst.model
    entropy = _instance_entropy(config.seed, name)
    records = []
    scalars = None
    # every check is linear or scale-invariant in f: where f's peak times the largest
    # mass times the atom count could overflow, f is scaled exactly to a peak in [0.5, 1)
    largest = max(np.maximum.reduce(model.mu_leaf), np.maximum.reduce(inst.omega_leaf))
    headroom = 1023 - np.frexp(largest)[1] - model.n_leaves.bit_length()

    def combination(pi, p, qi, q, shared):
        """The six check records of (p, q), from the inputs shared across p's q."""
        nonlocal scalars
        cp_used, cp_ref, inst_p, reduced = shared
        out = []
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy + [10 + pi, 100 + qi]))
        f = rng.exponential(1.0, model.n_leaves)
        peak = np.frexp(np.maximum.reduce(f))[1]
        if peak > headroom:
            f = np.ldexp(f, -peak)
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
        out.append(_record(
            name, p, q, "sandwich", not error, min(rep.margins),
            B=rep.B, A_lower=rep.A_lower, C_p=rep.C_p,
            witness_cube=rep.witness_cube, **error))

        # the constant actually used vs an independent evaluation
        cp_err = abs(cp_used - cp_ref) / cp_ref
        out.append(_record(
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
            dump.write_text(json.dumps(decomposition_to_dict(decomp), sort_keys=True) + "\n")
        out.append(_record(
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
        out.append(_record(
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
            out.append(_record(
                name, p, q, "proof_chain", chain_ok, min(slacks),
                min_rel_slack=min(slacks),
                reconstruction_rel_error=trace.reconstruction_rel_error,
                average_control_excess=trace.average_control_excess))
        except VerificationError as exc:
            out.append(_record(
                name, p, q, "proof_chain", False, -1.0,
                failed_link=str(exc)))

        # change-of-weight identities
        if isinstance(reduced, ReductionError):
            out.append(_record(name, p, q, "sawyer_reduction", False, -1.0,
                               error=str(reduced)))
            return out
        if scalars is None:
            scalars = _classical_scalars(model, inst.omega_leaf, inst.alpha)
        red = verify_reduction(inst_p, f, q, strict=False, _reduced=(*reduced, scalars))
        worst = max(red.integral_rel_error, red.operator_rel_error,
                    red.norm_rel_error)
        out.append(_record(
            name, p, q, "sawyer_reduction", red.ok, 1e-12 - worst,
            integral_rel_error=red.integral_rel_error,
            operator_rel_error=red.operator_rel_error,
            norm_rel_error=red.norm_rel_error))
        return out

    for pi, p in enumerate(config.p_values):
        try:
            cp_used = theorem_constant(p) * (0.5 if config.halve_cp else 1.0)
            inst_p = replace(inst, p=p)
            try:
                reduced = _reduced_measure(inst_p)
            except ReductionError as exc:
                reduced = exc
            shared = (cp_used, theorem_constant_hp(p), inst_p, reduced)
        except Exception as exc:  # every combination of this p reports it
            shared = exc
        for qi, tok in enumerate(config.q_tokens):
            q = resolve_q(tok, p)
            try:
                if isinstance(shared, Exception):
                    raise shared
                records += combination(pi, p, qi, q, shared)
            except Exception as exc:  # a fault in a check costs this combination alone
                traceback.print_exc()
                records.append(_record(name, p, q, "error", False, -1.0,
                                       error=f"{type(exc).__name__}: {exc}"))
    return records


def cmd_verify(config: SweepConfig, instance_paths):
    """Run every configured check; returns (exit code, records).

    No instance file left after skipping the coefficient files exits 2
    before anything is written.  ``report.jsonl`` is opened for appending
    before any instance is loaded, so an unwritable ``out`` exits 2 before
    any work.  A file that fails to load also exits 2, and removes the report
    again if it is still empty.  Records are written instance by instance, so
    a sweep that dies keeps those of the instances that finished before.
    """
    # companion coefficient files ride along with shell globs; skip them
    paths = sorted(str(p) for p in instance_paths
                   if not str(p).endswith(".coeffs.json"))
    if not paths:  # 0/0 checks would pass vacuously
        print("error: no instance files to verify (coefficient files are skipped)",
              file=sys.stderr)
        return 2, []
    out = Path(config.out)
    report_path = out / "report.jsonl"
    try:
        out.mkdir(parents=True, exist_ok=True)
        fh = report_path.open("a")
    except OSError as exc:
        print(f"error: cannot write report {report_path}: {exc}", file=sys.stderr)
        return 2, []
    try:
        instances = [_load_instance(Path(p)) for p in paths]
    except (ModelError, json.JSONDecodeError, OSError, KeyError, TypeError, ValueError) as exc:
        empty = fh.tell() == 0
        fh.close()
        if empty:  # a sweep that never ran leaves no report behind
            report_path.unlink()
        print(f"error: cannot load instance: {exc}", file=sys.stderr)
        return 2, []

    records = []
    with fh, contextlib.ExitStack() as stack:
        jobs = ([Path(p).stem for p in paths], instances, [config] * len(paths))
        workers = min(config.workers, len(paths))  # a process per file at most
        run = map
        if workers > 1:
            # imported here: the serial path never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            run = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        for batch in run(_verify_one, *jobs):  # in file order, as each instance returns
            records += batch
            fh.writelines(map(_json_line, batch))
            fh.flush()

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
    """Aggregate a JSONL report into per-(p, q) summary rows (CSV).

    A line that is not a check record, such as the cut-off last line of a
    killed sweep, raises ``ValueError`` naming the file and the line.  The
    strings "inf", "-inf" and "nan" are read back as numbers; any other
    value that is not a number is skipped.  A NaN is the worst value of its
    metric wherever it comes.  The rows are sorted by p, then q, each as a
    number (inf last, then any that is none), then metric.
    """
    path = Path(report_path)
    if not path.exists():
        raise FileNotFoundError(f"missing report: {path}")
    best = {}  # (p, q, metric) -> (value, instance, better)

    def number(value):  # a number, the spellings of inf, -inf and nan read back; or None
        value = float(value) if value in ("inf", "-inf", "nan") else value
        return value if _is_number(value) else None

    def consider(p, q, metric, value, instance, better):
        key = (p, q, metric)
        cur = best.get(key)
        value = number(value)
        if value is None or cur is not None and cur[0] != cur[0]:  # a NaN stays
            return
        if cur is None or value != value or better(value, cur[0]):
            best[key] = (value, instance)

    with path.open("rb") as fh:  # json.loads decodes, so bad bytes are a bad line too
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                p, q, det = rec["p"], rec["q"], rec["detail"]
                B = number(det.get("B", 0))
                if rec["check"] == "sandwich" and B is not None and B > 0:
                    A = number(det["A_lower"])
                    if A is not None:
                        consider(p, q, "max_A_over_B", A / B, rec["instance"],
                                 lambda a, b: a > b)
                elif rec["check"] == "packing":
                    consider(p, q, "max_packing_ratio", det["worst_ratio"],
                             rec["instance"], lambda a, b: a > b)
                elif rec["check"] == "proof_chain" and "min_rel_slack" in det:
                    consider(p, q, "min_proof_slack", det["min_rel_slack"],
                             rec["instance"], lambda a, b: a < b)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise ValueError(f"{path}, line {lineno}: not a check record: "
                                 f"{type(exc).__name__}: {exc}") from None

    def order(value):  # a number ("inf" read back) before any value that is none
        as_number = number(value)
        return (0, as_number) if as_number is not None else (1, str(value))

    rows = [(p, q, metric, value, instance)
            for (p, q, metric), (value, instance) in sorted(
                best.items(), key=lambda kv: (order(kv[0][0]), order(kv[0][1]), kv[0][2]))]
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
    sub.add_argument("--seed", type=int)
    sub.add_argument("--out")


def _float_list(text):
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _token_list(text):
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _r_value(text):
    try:
        return text if text == "auto" else float(text)
    except ValueError:
        return text


def build_parser():
    """The command-line parser.  An option of generate or verify that is left
    out is left out of the namespace too, and each option's ``dest`` is its
    ``SweepConfig`` field, so the config's defaults are the only ones."""
    parser = argparse.ArgumentParser(
        prog="dyadicmax",
        description="Generate, verify and summarize two-weight testing sweeps.")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="write random instance files",
                          argument_default=argparse.SUPPRESS)
    gen.add_argument("--trials", type=int)
    gen.add_argument("--depth-min", type=int)
    gen.add_argument("--depth-max", type=int)
    gen.add_argument("--branch-min", type=int)
    gen.add_argument("--branch-max", type=int)
    _add_common(gen)

    ver = subs.add_parser("verify", help="run every check on instance files",
                          argument_default=argparse.SUPPRESS)
    ver.add_argument("instances", nargs="+")
    ver.add_argument("--p", type=_float_list, dest="p_values", metavar="P")
    ver.add_argument("--q", type=_token_list, dest="q_tokens", metavar="Q")
    ver.add_argument("--r", type=_r_value)
    ver.add_argument("--tol", type=float)
    ver.add_argument("--workers", type=int)
    ver.add_argument("--search-random", type=int)
    ver.add_argument("--search-ascent", type=int,
                     help="power-iteration steps of the operator-norm search")
    ver.add_argument("--debug-halve-cp", action="store_true", dest="halve_cp",
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
    options = vars(parser.parse_args(argv))
    command = options.pop("command")
    if command == "report":
        try:
            cmd_report(options["report"], options["csv"])
        except (OSError, ValueError) as exc:  # a directory, an unwritable --csv
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    instances = options.pop("instances", None)
    try:
        config = SweepConfig(**options)
        if command == "generate":
            cmd_generate(config)
            return 0
    except ValueError as exc:
        parser.error(str(exc))
    code, _ = cmd_verify(config, instances)
    return code


if __name__ == "__main__":
    sys.exit(main())

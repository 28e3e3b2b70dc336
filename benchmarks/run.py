#!/usr/bin/env python3
"""dyadicmax benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 benchmarks/run.py --workload sweep_small --seed 0 --seconds 35 --trace 0

The library is imported from ``src/`` of the same checkout; nothing needs to
be installed.  Inputs are generated from ``--seed`` (same seed, same inputs)
into a work directory that is removed at the end; the two large trees and
the test functions of ``tree_proof`` are fixed, and on ``tree_sandwich`` the
seed drives the CLI's random search.  One
repetition of the workload is timed again and again until ``--seconds``
would be exceeded, and every repetition's output is checked.  A reference
probe from :mod:`probe` runs between the steps of each set-up and
repetition, and ``setup_s`` and ``wall_s`` are times scaled to a host of
fixed speed by it.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
machine, the inputs and the raw, probe and scaled timings.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` is a separate run that reports
the per-layer metrics from :mod:`tracing`.  README.md in this directory says why
each workload exists and which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
from probe import LARGE, MIXED, Clock, Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 0     # the seed whose B values and witnesses golden.json pins
TREE_SEED = 0        # draws the large trees and tree_proof's f, whatever --seed
SETUPS = 5           # least set-ups per untraced run; setup_s is their median
SETUP_SECONDS = 4.0  # ... and more, until set-up has taken this long
TOL = 1e-9           # the CLI's default --tol
EXACT_TOL = 1e-12    # proof-chain reconstruction and golden B, relative
CLI_CHECKS = ("sandwich", "cp_value", "packing", "carleson", "proof_chain",
              "sawyer_reduction")


def load_library():
    """Import dyadicmax from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import dyadicmax
        import dyadicmax.cli  # noqa: F401  (loads every layer module)
    except ImportError as exc:
        raise SystemExit(f"error: cannot import dyadicmax from {src}: {exc}")
    if Path(dyadicmax.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: dyadicmax imported from {dyadicmax.__file__}, "
                         f"not from {src}")
    return dyadicmax


# ---------------------------------------------------------------------------
# inputs and outcomes


@dataclass
class Inputs:
    """What one set-up wrote, plus its shape for the manifest."""

    paths: list                 # instance files handed to the library
    instances: int
    nodes: int
    leaves: int
    max_depth: int
    combos: int                 # (instance, p, q) combinations per repetition
    pool: int = 0               # instances generated before selection
    functions: list = field(default_factory=list)  # tree_proof test functions


@dataclass
class Outcome:
    """Checked results of one repetition."""

    combos: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    values: dict = field(default_factory=dict)   # combo key -> (B, A, witness)
    ratios: list = field(default_factory=list)   # A_lower / B per combo
    improved: int = 0                            # combos with A_lower > B

    def fail(self, key, what):
        self.failed += 1
        self.problems.append(f"{key}: {what}")


def _shape(paths):
    """Node, leaf and depth counts of instance files, read without the library."""
    nodes = leaves = max_depth = 0
    for path in paths:
        spec = json.loads(Path(path).read_text())["nodes"]
        parent = {rec["id"]: rec["parent"] for rec in spec}
        has_child = {rec["parent"] for rec in spec}
        nodes += len(spec)
        leaves += sum(1 for rec in spec if rec["id"] not in has_child)
        for nid in parent:
            depth = 0
            while parent[nid] is not None:
                nid = parent[nid]
                depth += 1
            max_depth = max(max_depth, depth)
    return nodes, leaves, max_depth


def write_tree(lib, directory: Path, depth: int) -> Path:
    """The fixed complete ternary tree of a depth, plus its coefficient file.

    Masses, reduction weights and coefficients are drawn from ``TREE_SEED``
    as ``cli generate`` draws them: 15 % zero leaf masses, 10 % zero omega,
    lognormal w, and random coefficients of which some are vectors.  The
    tree does not follow ``--seed``: which cube's indicator wins the norm
    search is decided by a handful of top-level coefficients, and across
    seeds it swung the search's work (and ``wall_s``) by a factor of three.
    """
    entropy = [TREE_SEED, depth]
    params = lib.lattice.RandomModelParams(
        depth_min=depth, depth_max=depth, branch_min=3, branch_max=3,
        zero_prob_mu=0.15, zero_prob_nu=0.15)
    model = lib.lattice.random_model(params, np.random.SeedSequence(entropy + [1]))
    rng = np.random.default_rng(np.random.SeedSequence(entropy + [2]))
    omega = rng.exponential(1.0, model.n_leaves)
    omega = np.where(rng.random(model.n_leaves) < 0.1, 0.0, omega)
    w = rng.lognormal(0.0, 1.0, model.n_leaves)
    alpha = float(rng.uniform(0.05, 1.0))
    inst = lib.sawyer.SawyerInstance(model=model, omega_leaf=omega, w_leaf=w,
                                     alpha=alpha, p=2.0)
    path = directory / "tree.json"
    lib.sawyer.write_instance(inst, path)
    coeffs = lib.maximal.CoefficientFamily.random(
        model, np.random.SeedSequence(entropy + [3]))
    lib.maximal.write_coefficients(coeffs, directory / "tree.coeffs.json")
    return path


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class CliWorkload:
    """``cli.cmd_verify`` with all six checks over instance files.

    With ``node_targets`` the files come from ``cli.cmd_generate`` (depth
    <= 4, branch <= 3): six times as many instances are generated and, for each
    target, the unused instance whose node count is nearest is kept.  The
    targets are fixed quantiles of the generator's node-count distribution,
    so every seed runs the same mix of tree sizes and the seed-to-seed spread
    of the sweep time stays small.  Without targets the input is the fixed
    complete ternary tree of depth ``tree_depth``; the seed then drives the
    CLI's random candidates and test functions.  Each file gets its own
    ``cmd_verify`` call, so that the probe runs between files.
    """

    name: str
    why: str
    p_values: tuple
    q_tokens: tuple
    probe: Probe
    node_targets: tuple = ()
    tree_depth: int = 0

    def setup(self, lib, directory: Path, seed: int) -> Inputs:
        if not self.node_targets:
            paths = [write_tree(lib, directory, self.tree_depth)]
            pool = 1
        else:
            pool = 6 * len(self.node_targets)
            config = lib.cli.SweepConfig(trials=pool, seed=seed, depth_max=4,
                                         branch_max=3, out=str(directory))
            with contextlib.redirect_stdout(io.StringIO()):
                generated = lib.cli.cmd_generate(config)
            sizes = [len(json.loads(Path(p).read_text())["nodes"]) for p in generated]
            unused = list(range(len(generated)))
            paths = []
            for target in self.node_targets:
                pick = min(unused, key=lambda i: (abs(sizes[i] - target), i))
                unused.remove(pick)
                paths.append(generated[pick])
        paths = sorted(str(p) for p in paths)
        nodes, leaves, depth = _shape(paths)
        combos = len(paths) * len(self.p_values) * len(self.q_tokens)
        return Inputs(paths=paths, instances=len(paths), nodes=nodes,
                      leaves=leaves, max_depth=depth, combos=combos, pool=pool)

    def expected_keys(self, lib, inputs):
        keys = []
        for path in inputs.paths:
            for p in self.p_values:
                for tok in self.q_tokens:
                    q = lib.cli.resolve_q(tok, p)
                    keys.append((Path(path).stem, p, "inf" if q == math.inf else q))
        return keys

    def run_once(self, lib, inputs: Inputs, seed: int, out_dir: Path,
                 clock: Clock) -> Outcome:
        """One ``cmd_verify`` call per instance file, each call one step."""
        config = lib.cli.SweepConfig(seed=seed, p_values=self.p_values,
                                     q_tokens=self.q_tokens, out=str(out_dir))
        outcome = Outcome()
        keys = self.expected_keys(lib, inputs)
        outcome.combos = len(keys)
        records = []
        for path in inputs.paths:
            try:
                with clock.step(), contextlib.redirect_stdout(io.StringIO()):
                    code, batch = lib.cli.cmd_verify(config, [path])
            except Exception:  # the file's combos find no records below
                outcome.problems.append(traceback.format_exc(limit=3))
                continue
            if code != 0:
                outcome.problems.append(f"cmd_verify exit code {code} on {path}")
            records.extend(batch)
        if len(records) != len(keys) * len(CLI_CHECKS):
            outcome.problems.append(
                f"{len(records)} records for {len(keys)} combos")
        by_combo = defaultdict(dict)
        for rec in records:
            by_combo[(rec["instance"], rec["p"], rec["q"])][rec["check"]] = rec
        for key in keys:
            checks = by_combo.get(key, {})
            bad = [c for c in CLI_CHECKS if not checks.get(c, {}).get("pass")]
            sandwich = checks.get("sandwich", {}).get("detail", {})
            B, A, cp = (sandwich.get(k, math.nan) for k in ("B", "A_lower", "C_p"))
            if not (_finite(B, A, cp) and B <= A * (1 + TOL)
                    and A <= cp * B * (1 + TOL)):
                bad.append("sandwich B <= A_lower <= C(p) B")
            chain = checks.get("proof_chain", {}).get("detail", {})
            if not chain.get("reconstruction_rel_error", math.inf) <= EXACT_TOL:
                bad.append("proof-chain reconstruction")
            if bad:
                outcome.fail(key, ", ".join(bad))
            if _finite(B, A):
                outcome.values["|".join(map(str, key))] = (
                    B, A, sandwich.get("witness_cube"))
                if B > 0 and A > 0:
                    outcome.ratios.append(A / B)
                outcome.improved += A > B
        return outcome

    def identities(self, inputs):
        """Call counts per repetition that the inputs fix (see tracing)."""
        c, n = inputs.combos, inputs.instances
        exact = {"cli.cmd_verify": n, "constants.verify_theorem": c,
                 "stopping.verify_packing": c,
                 "stopping.carleson_embedding_check": c,
                 "stopping.proof_trace": c, "sawyer.verify_reduction": c,
                 "sawyer.read_instance": 0, "cli.cmd_generate": 0,
                 "lattice.random_model": 0}
        at_least = {"stopping.build_decomposition": c,
                    "lattice.build_model": n, "maximal.read_coefficients": n}
        return exact, at_least

    def setup_identities(self, inputs):
        if self.node_targets:
            return {"cli.cmd_generate": 1, "lattice.random_model": inputs.pool}
        return {"cli.cmd_generate": 0, "lattice.random_model": 1}


@dataclass(frozen=True)
class ProofWorkload:
    """``verify``'s five non-sandwich checks, in ``verify``'s order, on one tree.

    The instance is loaded with ``sawyer.read_instance`` and
    ``maximal.read_coefficients``; each (p, q) gets its own test function f.
    Its A_lower is the certified lower bound |Mf| / |f| that the proof
    chain's own f gives, and its B is the chain's B.  The functions are fixed
    like the tree: drawn from the seed, their A_lower / B spread by 2.7 %
    (quartile distance over median, ten seeds), which is the inputs' spread,
    not the program's, and more than a third of the metric's bound.
    """

    name: str
    why: str
    tree_depth: int
    pq: tuple
    probe: Probe

    def setup(self, lib, directory: Path, seed: int) -> Inputs:
        path = write_tree(lib, directory, self.tree_depth)
        nodes, leaves, depth = _shape([path])
        functions = [
            np.random.default_rng(np.random.SeedSequence([TREE_SEED, 7, k]))
            .exponential(1.0, leaves) for k in range(len(self.pq))]
        return Inputs(paths=[str(path)], instances=1, nodes=nodes,
                      leaves=leaves, max_depth=depth, combos=len(self.pq),
                      pool=1, functions=functions)

    def run_once(self, lib, inputs: Inputs, seed: int, out_dir: Path,
                 clock: Clock) -> Outcome:
        """Each library call below is one step of ``clock``."""
        st = lib.stopping
        path = Path(inputs.paths[0])
        outcome = Outcome(combos=len(self.pq))
        try:
            with clock.step():
                inst = lib.sawyer.read_instance(path)
                model = inst.model
                coeffs = lib.maximal.read_coefficients(
                    model, path.with_name(path.stem + ".coeffs.json"))
        except Exception:
            for p, q in self.pq:
                outcome.fail((p, q), "loading raised")
            outcome.problems.append(traceback.format_exc(limit=3))
            return outcome
        for (p, q), f in zip(self.pq, inputs.functions):
            key = f"{path.stem}|{p}|{'inf' if q == math.inf else q}"
            bad = []
            try:
                r = st.default_r(p)
                with clock.step():
                    cp = lib.constants.theorem_constant(p)
                    cp_ref = lib.constants.theorem_constant_hp(p)
                if not abs(cp - cp_ref) / cp_ref <= EXACT_TOL:
                    bad.append("cp_value")
                with clock.step():
                    decomp = st.build_decomposition(model, f, r)
                    packing = st.verify_packing(model, decomp)
                    partition = st.partition_ok(decomp)
                if not (packing.ok and partition):
                    bad.append("packing")
                with clock.step():
                    weights = st.stopping_weights(decomp)
                    carleson = st.carleson_embedding_check(model, weights, f, p,
                                                           rtol=TOL)
                if not (carleson.ok and weights.packing_constant
                        <= r / (r - 1.0) * (1 + TOL)):
                    bad.append("carleson")
                with clock.step():
                    trace = st.proof_trace(model, coeffs, f, p, q, r, rtol=TOL,
                                           strict=True)
                if not (trace.ok and _finite(trace.B, trace.lhs)
                        and trace.reconstruction_rel_error <= EXACT_TOL
                        and trace.average_control_excess <= TOL):
                    bad.append("proof_chain")
                reduced = lib.sawyer.SawyerInstance(
                    model=model, omega_leaf=inst.omega_leaf, w_leaf=inst.w_leaf,
                    alpha=inst.alpha, p=p)
                with clock.step():
                    reduction = lib.sawyer.verify_reduction(reduced, f, q,
                                                            strict=False)
                if not reduction.ok:
                    bad.append("sawyer_reduction")
            except Exception as exc:  # a raised combo is a failed combo
                outcome.fail(key, f"raised {type(exc).__name__}: {exc}")
                continue
            if bad:
                outcome.fail(key, ", ".join(bad))
            norm_f = float(np.dot(f ** p, model.mu_leaf)) ** (1.0 / p)
            outcome.values[key] = (trace.B, trace.lhs, None)
            if trace.B > 0 and norm_f > 0:
                outcome.ratios.append(trace.lhs ** (1.0 / p) / norm_f / trace.B)
        return outcome

    def identities(self, inputs):
        c = inputs.combos
        exact = {"sawyer.read_instance": 1, "maximal.read_coefficients": 1,
                 "stopping.verify_packing": c,
                 "stopping.carleson_embedding_check": c,
                 "stopping.proof_trace": c, "sawyer.verify_reduction": c,
                 "constants.verify_theorem": 0,
                 "constants.operator_norm_lower": 0, "cli.cmd_verify": 0,
                 "cli.cmd_generate": 0, "lattice.random_model": 0}
        at_least = {"stopping.build_decomposition": c, "lattice.build_model": 1}
        return exact, at_least

    def setup_identities(self, inputs):
        return {"cli.cmd_generate": 0, "lattice.random_model": 1}


# Node counts at the 1/96, 3/96, ..., 95/96 quantiles of `cli generate
# --depth-max 4 --branch-max 3` (3000 reference draws): mean 15.8 nodes.
SWEEP_TARGETS = (3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 5, 6, 6, 7, 7, 8, 8,
                 9, 9, 9, 10, 11, 11, 12, 13, 14, 15, 16, 18, 19, 20, 21, 22,
                 23, 24, 26, 27, 29, 32, 35, 39, 42, 46, 51, 62)

WORKLOADS = {w.name: w for w in (
    CliWorkload(
        name="sweep_small",
        why="acceptance-size verify sweep, 48 files x 9 (p, q), default search; "
            "per-call Python overhead dominates",
        p_values=(1.5, 2.0, 3.0), q_tokens=("p", "2p", "inf"),
        probe=MIXED, node_targets=SWEEP_TARGETS),
    CliWorkload(
        name="tree_sandwich",
        why="verify, all six checks, on one 1093-node ternary tree at p=2, "
            "q=inf; the norm search runs on large candidate batches",
        p_values=(2.0,), q_tokens=("inf",), probe=LARGE, tree_depth=6),
    ProofWorkload(
        name="tree_proof",
        why="proof chain, packing, Carleson and reduction on a 9841-node "
            "ternary tree at (2, inf) and (2, 4); testing_constant dominates",
        tree_depth=8, pq=((2.0, math.inf), (2.0, 4.0)), probe=MIXED),
)}


# ---------------------------------------------------------------------------
# measurement


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_revision():
    """HEAD of this checkout, read from .git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _load_golden(name):
    if not GOLDEN.exists():
        return None
    return json.loads(GOLDEN.read_text()).get(name)


def check_golden(outcome: Outcome, golden: dict) -> list:
    """B and witness cube of every combo against the recorded values."""
    problems = []
    if set(golden) != set(outcome.values):
        problems.append("golden: combo keys differ from the recorded ones")
    for key in sorted(set(golden) & set(outcome.values)):
        B, _, witness = outcome.values[key]
        gB, gwitness = golden[key]
        if not abs(B - gB) <= EXACT_TOL * max(abs(gB), 1e-300) or witness != gwitness:
            problems.append(f"golden: {key} gives B={B!r} witness={witness!r}, "
                            f"recorded B={gB!r} witness={gwitness!r}")
    return problems


def _timings(clocks):
    """Raw, probe and reference seconds of each set-up or repetition."""
    return {"probe": clocks[0].probe.name,
            "seconds": [c.seconds for c in clocks],
            "probe_seconds": [statistics.fmean(c.probes) for c in clocks],
            "reference_seconds": [c.reference_seconds for c in clocks]}


def _median_reference(clocks):
    return statistics.median(c.reference_seconds for c in clocks)


def _repeat(seconds, step):
    """Call ``step`` until the next call would likely end after ``seconds``."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return


def run_workload(workload, seed: int, seconds: float, trace: bool, lib,
                 work_root: Path):
    """One benchmark run; returns (result, manifest)."""
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    outcomes = []
    problems = []
    manifest = {"workload": workload.name, "seed": seed, "seconds": seconds,
                "trace": int(trace), "nproc": os.cpu_count(),
                "python": platform.python_version(), "numpy": np.__version__,
                "git_revision": _git_revision()}
    try:
        # set-up: generate the instance files, one probed step per set-up.
        # Set-up is interpreted Python and file writing in every workload.
        # Every set-up writes to the same directory: the first one creates
        # the files and the others overwrite them.  Creating (and deleting)
        # hundreds of new files per set-up made the kernel's share of a
        # sweep_small set-up swing from 0.04 s to 0.5 s; overwriting kept it
        # within 0.03-0.10 s.
        setups = []
        digests = set()
        setup_tracer = tracing.Tracer()
        directory = work / "inputs"
        directory.mkdir()
        start = time.perf_counter()
        while not setups or not trace and (
                len(setups) < SETUPS
                or time.perf_counter() - start < SETUP_SECONDS):
            clock = Clock(MIXED)
            with contextlib.ExitStack() as stack:
                if trace:
                    stack.enter_context(setup_tracer)
                with clock.step():
                    inputs = workload.setup(lib, directory, seed)
            clock.close()
            setups.append(clock)
            digests.add(_digest(directory))
        if len(digests) != 1:
            problems.append("set-up is not deterministic: files differ")
        manifest["inputs"] = {
            "instances": inputs.instances, "generated": inputs.pool,
            "nodes": inputs.nodes, "leaves": inputs.leaves,
            "max_depth": inputs.max_depth, "combos_per_rep": inputs.combos}
        manifest["setup"] = _timings(setups)

        # measurement: untraced repetitions, alternating with traced ones
        untraced, traced = [], []
        rep_tracer = tracing.Tracer()

        def one_rep(tracer=None):
            out_dir = work / f"out{len(outcomes)}"
            clock = Clock(workload.probe)
            with contextlib.ExitStack() as stack:
                if tracer is not None:
                    stack.enter_context(tracer)
                outcome = workload.run_once(lib, inputs, seed, out_dir, clock)
            clock.close()
            outcomes.append(outcome)
            return clock

        def step():
            untraced.append(one_rep())
            if trace:
                traced.append(one_rep(rep_tracer))

        _repeat(seconds, step)
        manifest["reps"] = _timings(untraced)
        if trace:
            manifest["traced_reps"] = _timings(traced)
            manifest["trace_bindings"] = rep_tracer.bindings
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # output checks: every repetition, plus determinism and golden values
    first = outcomes[0]
    for outcome in outcomes:
        problems.extend(outcome.problems)
        if outcome.values != first.values:
            problems.append("repetitions disagree: results are not deterministic")
    golden = _load_golden(workload.name)
    if seed == DEFAULT_SEED and workload is WORKLOADS.get(workload.name):
        if golden is None:
            problems.append(f"no golden values recorded for {workload.name}")
        else:
            problems.extend(check_golden(first, golden))

    attempted = sum(o.combos for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if trace:
        metrics = layer_metrics(workload, inputs, setup_tracer, rep_tracer,
                                len(traced), problems)
        metrics["constants.operator_norm_lower.improved_frac"] = {
            "value": first.improved / first.combos, "unit": "frac"}
        metrics["trace.overhead_frac"] = {
            "value": _median_reference(traced) / _median_reference(untraced) - 1.0,
            "unit": "frac"}
    else:
        if not first.ratios:
            problems.append("no positive A_lower / B ratio to report")
        gmean = (math.exp(statistics.fmean(math.log(x) for x in first.ratios))
                 if first.ratios else 0.0)
        metrics = {
            "setup_s": {"value": _median_reference(setups), "unit": "s"},
            "wall_s": {"value": _median_reference(untraced), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
            "passed_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
            "a_lower_over_b_gmean": {"value": gmean, "unit": "ratio"},
        }
    manifest["problem_count"] = len(problems)
    manifest["problems"] = problems[:50]
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, manifest


def layer_metrics(workload, inputs, setup_tracer, rep_tracer, reps, problems):
    """Per set-up plus per repetition figures, after the call-count self-check."""
    setup, per_rep = setup_tracer.stats, rep_tracer.stats

    def check(name, count, expected, at_least=False):
        if count < expected if at_least else count != expected:
            problems.append(f"trace: {name}.calls = {count}, expected "
                            f"{'>= ' if at_least else ''}{expected}")

    for name, expected in workload.setup_identities(inputs).items():
        check(name, setup[name].calls, expected)
    exact, at_least = workload.identities(inputs)
    for name, expected in exact.items():
        check(name, per_rep[name].calls, expected * reps)
    for name, expected in at_least.items():
        check(name, per_rep[name].calls, expected * reps, at_least=True)
    # B is computed once by verify_theorem and once more by each proof_trace
    # that is not handed B; the norm search runs once per sandwich.
    proof = per_rep["stopping.proof_trace"]
    check("constants.testing_constant",
          per_rep["constants.testing_constant"].calls,
          per_rep["constants.verify_theorem"].calls + proof.calls
          - proof.keywords["B"])
    check("constants.operator_norm_lower",
          per_rep["constants.operator_norm_lower"].calls,
          per_rep["constants.verify_theorem"].calls)

    metrics = {}
    for name in tracing.NAMES:
        for fld, unit in tracing.FIELDS:
            value = getattr(setup[name], fld) + getattr(per_rep[name], fld) / reps
            metrics[f"{name}.{fld}"] = {"value": value, "unit": unit}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    lib = load_library()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    try:
        result, manifest = run_workload(WORKLOADS[args.workload], args.seed,
                                        args.seconds, bool(args.trace), lib,
                                        work_root)
    finally:
        with contextlib.suppress(OSError):
            work_root.rmdir()
    for problem in manifest["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"manifest": manifest}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

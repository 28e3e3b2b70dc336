#!/usr/bin/env python3
"""Write golden.json: B and its witness cube for every combo at the default seed.

Run from the repository root::

    python3 benchmarks/record_golden.py

``run.py`` compares every repetition at ``--seed 0`` against these values, to
1e-12 relative.  B is exactly computable, so no speed-up may move it: record
again only when a change is meant to alter B, and say so.
"""

import json
import tempfile
from pathlib import Path

import run


def main():
    lib = run.load_library()
    work_root = run.ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    golden = {}
    for name, workload in run.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=work_root) as tmp:
            inputs = workload.setup(lib, Path(tmp), run.DEFAULT_SEED)
            outcome = workload.run_once(lib, inputs, run.DEFAULT_SEED,
                                        Path(tmp) / "out",
                                        run.Clock(workload.probe))
        if outcome.failed or outcome.problems:
            raise SystemExit(f"{name}: checks failed: {outcome.problems[:5]}")
        golden[name] = {key: [B, witness]
                        for key, (B, _, witness) in outcome.values.items()}
    work_root.rmdir()
    run.GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

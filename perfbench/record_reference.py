"""Record the reference outputs in perfbench/ref/<workload>.json.

    python3 perfbench/record_reference.py

For every workload and every seed in SEEDS, this writes the inputs, runs one
untraced pass, runs the workload's checks, and stores the pass's outputs: in
full at the default seed and for workloads with float outputs, which are
compared to a tolerance, and otherwise as one digest.  It refuses to record
a pass whose checks fail.  The stored outputs are what every later run at
these seeds is compared against, so record them only at a commit whose
outputs are trusted.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads

SEEDS = range(13)


def record(w, seed: int) -> dict:
    base = run.OUT / f"record-{w.name}-seed{seed}"
    shutil.rmtree(base, ignore_errors=True)
    inputs, work = base / "inputs", base / "work"
    inputs.mkdir(parents=True)
    work.mkdir()
    try:
        w.make_inputs(seed, inputs)
        workloads.clear_caches()
        _, ops = w.run_pass(seed, inputs, work)
        canon = {op.name: w.canon(op) for op in ops if not op.error}
        bad = {op.name: op.error for op in ops if op.error}
        bad.update(w.check(seed, inputs, ops))
        bad.update({k: v for k, v in w.global_checks(seed, inputs, work, canon).items() if v})
        if bad:
            raise SystemExit(f"{w.name} seed {seed}: checks failed, nothing recorded: {bad}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    if seed == run.DEFAULT_SEED or w.float_outputs:
        return {"outputs": canon}
    return {"digest": run.digest(canon)}


def main() -> int:
    run.REF.mkdir(exist_ok=True)
    run.OUT.mkdir(exist_ok=True)
    for w in workloads.WORKLOADS.values():
        doc = {
            "default_seed": run.DEFAULT_SEED,
            "float_tolerance": workloads.FLOAT_TOL,
            "seeds": {str(seed): record(w, seed) for seed in SEEDS},
        }
        (run.REF / f"{w.name}.json").write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
        print(f"recorded {w.name}: seeds {SEEDS.start}..{SEEDS.stop - 1}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

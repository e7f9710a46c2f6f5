"""ffgeom benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep_ratio --seed 9 --seconds 30 --trace 0

Run it from the repository root; it imports ffgeom from `src/` there.

A run sets the workload up SETUP_REPEATS times, each in a fresh interpreter
(import ffgeom, write the inputs from the seed), and reports the median as
`setup_s`.  It then repeats timed passes over those inputs until `--seconds`
have passed, emptying ffgeom's module caches before each pass.  Every output
of every pass is checked outside the timed region: against the first pass,
against exact identities and the naive oracles, and, at seeds recorded in
`perfbench/ref/`, against reference outputs.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json
and installs no wrapper.  With `--trace 1` it alternates untraced and traced
passes and reports the per-layer metrics: span times from `tracer.py`, the
work counters (computed from the calls' inputs and outputs, not measured),
and the tracing overhead.  The spans are written to
`.perfbench_out/trace-<workload>-seed<seed>.json`.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REF = HERE / "ref"

DEFAULT_SEED = 9  # the seed of acceptance criterion 9; references are complete here
SETUP_REPEATS = 5
MIN_PASSES = 3  # untraced run
MIN_TRACED = 2  # traced run: at least this many traced passes and one untraced
PROBE_TIMEOUT_S = 170


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def file_digests(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


def set_up(workload: str, seed: int, run_dir: Path) -> tuple[float, Path, bool]:
    """Set up SETUP_REPEATS times, each in a fresh interpreter; return the
    median time, the inputs of the first, and whether all wrote the same bytes."""
    times, digests = [], []
    for i in range(SETUP_REPEATS):
        inputs = run_dir / f"inputs{i}"
        inputs.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(inputs)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        digests.append(file_digests(inputs))
    return statistics.median(times), run_dir / "inputs0", all(d == digests[0] for d in digests)


def same(a, b, tol: float) -> bool:
    """Equality of JSON-like outputs; floats to a relative tolerance."""
    if isinstance(a, float) or isinstance(b, float):
        if not (isinstance(a, (int, float)) and isinstance(b, (int, float))):
            return False
        return abs(a - b) <= tol * max(1.0, abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k], tol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y, tol) for x, y in zip(a, b))
    return a == b


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def load_reference(workload: str, seed: int) -> dict | None:
    """The recorded outputs at this seed: {"outputs": {op: output}} in full,
    or {"digest": sha256 of all outputs}; None when the seed is not recorded."""
    path = REF / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


# -- per-layer metrics ---------------------------------------------------------


def zero_sphere_size(p: int, n: int) -> int:
    """Points of F_p^n with v_1^2 + ... + v_n^2 = 0, by convolving the
    distribution of one square n times."""
    one = [0] * p
    for a in range(p):
        one[a * a % p] += 1
    dist = [1] + [0] * (p - 1)
    for _ in range(n):
        dist = [sum(dist[(t - s) % p] * one[s] for s in range(p)) for t in range(p)]
    return dist[0]


def counters(spans: list, errors: list[float]) -> dict[str, float]:
    """Work counters, computed from the traced calls' inputs and outputs."""
    info = defaultdict(list)
    for s in spans:
        if s[5] is not None:
            info[s[2]].append(s[5])
    gram = [i for k in ("dot_histogram", "count_D", "count_D_star", "isosceles_counts") for i in info[f"counting.{k}"]]
    matrices = info["counting.isosceles_counts"] + info["counting.count_D_star"]
    dense = info["fourier.fourier_indicator"] + info["fourier.inverse_surface_transform"]
    zero_tables = info["fourier.zero_sphere_hat_table"]
    direct = [(p, n) for p, n, method in zero_tables if method == "direct"]
    return {
        "varieties.points_built": float(sum(i[0] for i in info["varieties.PointSet.build"])),
        "counting.pairs": float(sum(i[0] for i in gram)),
        "counting.gram_passes": float(len(gram)),
        "counting.zero_distance_pairs": float(sum(i[1] for i in info["counting.isosceles_counts"])),
        "counting.cone_work": float(sum(i[1] * i[2] for i in info["counting.isosceles_counts"])),
        "counting.matrix_bytes": float(max([8 * i[0] for i in matrices], default=0)),
        "fourier.frequencies": float(sum(p**n for p, n, _ in dense + zero_tables)),
        "fourier.dense_work": float(
            sum(p**n * size for p, n, size in dense) + sum(p**n * zero_sphere_size(p, n) for p, n in direct)
        ),
        "fourier.max_abs_err": float(max(errors, default=0.0)),
    }


def layer_metrics(names: list[str], spans: list, wall_s: float, errors: list[float]) -> dict[str, float]:
    from tracer import root_ms, span_metric

    derived = counters(spans, errors)
    derived["trace.unspanned_ms"] = wall_s * 1e3 - root_ms(spans)
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name != "trace.overhead_s":
            prefix, kind = name.rsplit(".", 1)
            out[name] = span_metric(spans, prefix, kind)
    return out


# -- the run ---------------------------------------------------------------------


def run(args) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        return measure(args, bench, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, bench: dict, run_dir: Path) -> dict:
    setup_s, inputs, inputs_repeat = set_up(args.workload, args.seed, run_dir)

    import workloads

    w = workloads.WORKLOADS[args.workload]
    tol = workloads.FLOAT_TOL
    work = run_dir / "work"
    work.mkdir()
    tracer = None
    if args.trace:
        import ffgeom
        from tracer import Tracer

        tracer = Tracer(ffgeom)

    passes = []  # dicts: traced, wall_s, ops (name, ms, error), canon, spans
    first_ops = None
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        n_traced = sum(p["traced"] for p in passes)
        enough = n_traced >= MIN_TRACED if args.trace else len(passes) >= MIN_PASSES
        if enough and time.perf_counter() - start >= args.seconds:
            break
        workloads.clear_caches()
        if traced:
            tracer.install()
        try:
            wall_s, ops = w.run_pass(args.seed, inputs, work)
        finally:
            if traced:
                tracer.uninstall()
        canon = {op.name: w.canon(op) for op in ops if not op.error}
        passes.append(
            {
                "traced": traced,
                "wall_s": wall_s,
                "ops": [(op.name, op.ms, op.error) for op in ops],
                "canon": canon,
                "spans": tracer.take() if traced else None,
            }
        )
        if first_ops is None:
            first_ops = ops  # raw outputs of the first pass, for the checks
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- correctness, all outside the timed passes ------------------------------
    first = passes[0]["canon"]
    wrong = dict(w.check(args.seed, inputs, first_ops))
    reference = load_reference(args.workload, args.seed) or {}
    for name, ref in reference.get("outputs", {}).items():
        if name not in first or not same(first[name], ref, tol):
            wrong.setdefault(name, "differs from the reference output")
    failures = []
    attempted = 0
    for i, p in enumerate(passes):
        for name, _, error in p["ops"]:
            attempted += 1
            reason = error or wrong.get(name, "")
            if not reason and not same(p["canon"][name], first.get(name), tol):
                reason = "differs from the first pass"
            if reason:
                failures.append(f"pass {i} {name}: {reason}")
    checks = {"inputs_repeat": "" if inputs_repeat else "set-up wrote different inputs from one seed"}
    if "digest" in reference:
        checks["reference"] = "" if digest(first) == reference["digest"] else "outputs differ from the reference digest"
    checks.update(w.global_checks(args.seed, inputs, work, first))

    traced_passes = [p for p in passes if p["traced"]]
    if traced_passes:
        names = [m["name"] for m in bench["per_layer"]]
        per_pass = [
            layer_metrics(names, p["spans"], p["wall_s"], w.transform_errors(p["canon"])) for p in traced_passes
        ]
        # Counts (calls and work counters) are functions of the inputs, so
        # they must repeat exactly from one traced pass to the next.
        counted = [{k: v for k, v in m.items() if not k.endswith("ms")} for m in per_pass]
        repeat = all(c == counted[0] for c in counted)
        checks["counters_repeat"] = "" if repeat else "work counters differ between traced passes"
        write_trace(args, passes)
    attempted += len(checks)
    failures += [f"check {name}: {reason}" for name, reason in checks.items() if reason]

    if args.trace:
        untraced = statistics.median(p["wall_s"] for p in passes if not p["traced"])
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced_passes) - untraced
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        # p50 is the median over ops of each op's median over the passes: half
        # of the sweep's cells are tiny construction cells, so a median over
        # all executions would sit in the gap between the two groups and jump
        # with a few stalled cells.  p90 is over all executions of all passes:
        # fourier_dense's three largest ops are of one size and each varies by
        # a third from pass to pass, so a percentile of per-op medians would
        # jump with whichever median flips.
        by_op = defaultdict(list)
        for p in passes:
            for name, ms, _ in p["ops"]:
                by_op[name].append(ms)
        typical = [statistics.median(v) for v in by_op.values()]
        executions = [ms for v in by_op.values() for ms in v]
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "op_ms_p50": statistics.median(typical),
            "op_ms_p90": statistics.quantiles(executions, n=10, method="inclusive")[8],
            "peak_rss_mb": peak_rss_mb,
        }
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    for line in failures[:50]:
        print("FAIL", line)
    print(
        f"workload {args.workload} seed {args.seed}: {len(passes)} passes ({len(traced_passes)} traced), "
        f"{attempted} ops and checks, fail_ratio {len(failures) / attempted:.4f}"
    )
    print("  pass wall s:", " ".join(f"{p['wall_s']:.3f}{'t' if p['traced'] else ''}" for p in passes))
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def write_trace(args, passes: list) -> None:
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "span_fields": ["id", "parent", "name", "t0_ns", "t1_ns", "info"],
        "passes": [{"wall_s": p["wall_s"], "spans": p["spans"]} for p in passes if p["traced"]],
    }
    (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(doc))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except (ImportError, OSError, RuntimeError, subprocess.SubprocessError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

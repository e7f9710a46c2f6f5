"""The benchmark's workloads: inputs made from a seed, one timed pass, and
the correctness checks on the pass's outputs.

A workload writes its inputs as files (a sweep config, point-set text
files, a JSON of parameters), so the program only ever receives generated
inputs.  Every pass reloads them from disk, so no `PointSet` cache carries
over from one pass to the next.  The program is called through module
attributes (`cli.main`, `fourier.fourier_indicator`, ...) so the tracer can
wrap those calls.

Importing this module imports ffgeom from the `src/` directory next to this
benchmark, and fails if that is not where ffgeom comes from.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# Every workload is single-threaded by definition.  Pinning BLAS to one
# thread before numpy loads keeps a second BLAS thread on a shared 2-CPU
# machine from adding scheduler noise to the complex products in `fourier`.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import ffgeom  # noqa: E402
from ffgeom import cli, constructions, counting, fourier, oracle, varieties  # noqa: E402
from ffgeom.field import PrimeField  # noqa: E402
from ffgeom.varieties import PointSet  # noqa: E402

if Path(ffgeom.__file__).resolve().parent != SRC / "ffgeom":
    raise ImportError(f"ffgeom was imported from {ffgeom.__file__}, not from {SRC}")

FLOAT_TOL = 1e-9  # the package's own gate for transform identities
DEGENERATE_TOL = 1e-6  # Fourier degenerate-pair count against the direct count


@dataclass
class Op:
    """One timed operation of a pass; `raw` is its output, read untimed."""

    name: str
    ms: float
    error: str = ""
    raw: object = None


def timed(name: str, fn, *args, **kwargs) -> Op:
    t0 = time.perf_counter()
    try:
        raw, error = fn(*args, **kwargs), ""
    except Exception as e:  # an op that raises is a failed op, not a crash
        raw, error = None, f"{type(e).__name__}: {e}"
    return Op(name, (time.perf_counter() - t0) * 1e3, error, raw)


def timed_cli(name: str, argv: list[str]) -> Op:
    """Run `ffgeom <argv>` in process; a non-zero exit fails the op."""
    with contextlib.redirect_stdout(io.StringIO()):
        op = timed(name, cli.main, argv)
    if not op.error and op.raw != 0:
        op.error = f"exit code {op.raw}"
    return op


def clear_caches() -> None:
    """Empty every module-level cache in ffgeom (`sweep._paraboloid`, the
    `fourier` frequency and zero-sphere tables, ...): a CLI user starts each
    run with them empty."""
    for name, mod in list(sys.modules.items()):
        if name == "ffgeom" or name.startswith("ffgeom."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def sample_space(p: int, n: int, size: int, seed: int) -> PointSet:
    """`size` distinct points of F_p^n drawn uniformly, reproducible from seed."""
    pts = []
    for i in random.Random(seed).sample(range(p**n), size):
        coords = []
        for _ in range(n):
            i, c = divmod(i, p)
            coords.append(c)
        pts.append(tuple(coords))
    return PointSet.build(PrimeField(p), n, pts)


def sub_seed(seed: int, salt: int) -> int:
    return (seed * 1_000_003 + salt) % (1 << 32)


def oracle_mismatches(E: PointSet, seed: int) -> list[str]:
    """Recount a sub-sample of E with the naive oracles and compare with the
    fast kernels; sub-sample sizes stay below the oracle caps."""
    sub = varieties.random_subset(E, min(len(E), oracle.CAP_TRIPLE * 2 // 3), sub_seed(seed, 1))
    fast = counting.counts_json(sub)
    tri = oracle.oracle_triangles(sub)
    slow = {
        "prod_size": len(oracle.oracle_product(sub)),
        "D": oracle.oracle_D(sub),
        "D_star": oracle.oracle_D_star(sub, allow_ambient_base=True),
        **{k: tri[k] for k in ("t_nde", "t_de", "t_star", "degenerate_pairs")},
    }
    bad = [f"{k}: fast {fast[k]} != oracle {v}" for k, v in slow.items() if fast[k] != v]
    small = varieties.random_subset(E, min(len(E), oracle.CAP_QUAD * 2 // 3), sub_seed(seed, 2))
    if counting.count_M(small) != oracle.oracle_M(small):
        bad.append("M differs from oracle_M")
    return bad


def count_invariants(doc: dict) -> list[str]:
    """Exact inequalities every count record satisfies (ints as parsed)."""
    n, prod, D, D_star, M = (int(doc[k]) for k in ("set_size", "prod_size", "D", "D_star", "M"))
    t_nde, t_star = int(doc["t_nde"]), int(doc["t_star"])
    bad = []
    if not D_star <= D:
        bad.append(f"D* {D_star} > D {D}")
    if not prod * M >= n**4:
        bad.append("|prod| * M < n^4")
    if not M <= n * D:
        bad.append("M > n * D")
    if not t_nde <= t_star:
        bad.append("t_nde > t_star")
    return bad


class Workload:
    """Interface of a workload; the classes below fill it in.

    `run_pass` returns the pass's wall time and its ops.  `canon` renders an
    op's output as JSON for comparison across passes and with the stored
    reference.  `check` returns {op name: reason} for ops whose output is
    wrong; `global_checks` returns {check name: reason, or "" when it holds}
    for checks that cover the run rather than one op.
    """

    name = ""
    float_outputs = False  # outputs hold floats, compared to FLOAT_TOL

    def transform_errors(self, canon: dict) -> list[float]:
        """Transform identity errors found in a pass's outputs."""
        return []


# -- sweep_ratio --------------------------------------------------------------


class SweepRatio(Workload):
    """`ffgeom sweep` on the config of acceptance criterion 9
    (tests/test_acceptance.py) plus one odd3mod4 construction family.

    The primes are DEFAULT_RATIO_SWEEP_PRIMES at the commit that defined this
    benchmark, written out so that the workload cannot drift with the
    package's defaults.
    """

    name = "sweep_ratio"
    PRIMES = (23, 31, 43, 47, 59, 67, 71, 79, 83, 103)
    TRIALS = 10
    FAMILIES = (
        {"kind": "random_paraboloid_subset", "alpha": "4/3"},
        {"kind": "construction", "construction": "odd3mod4", "k_rule": "max_leq_sqrt"},
    )
    CELLS = len(PRIMES) * len(FAMILIES) * TRIALS
    ORACLE_CELLS = 2  # random cells also recounted on an oracle-sized sub-sample

    def make_inputs(self, seed: int, inputs: Path) -> None:
        config = {
            "primes": list(self.PRIMES),
            "dims": [3],
            "families": list(self.FAMILIES),
            "trials": self.TRIALS,
            "seed": seed,
            "threads": 1,
            "timing": True,
        }
        (inputs / "config.json").write_text(json.dumps(config, indent=2) + "\n")

    def _sweep(self, inputs: Path, out: Path, *extra: str) -> Op:
        argv = [*extra, "sweep", "--config", str(inputs / "config.json"), "--out", str(out)]
        return timed_cli("sweep", argv)

    def run_pass(self, seed: int, inputs: Path, work: Path) -> tuple[float, list[Op]]:
        out = work / "rows.csv"
        out.unlink(missing_ok=True)
        op = self._sweep(inputs, out)
        wall = op.ms / 1e3
        if op.error:
            return wall, [Op(f"cell{i:03d}", op.ms, op.error) for i in range(self.CELLS)]
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        ops = [Op(f"cell{i:03d}", float(r["runtime_ms"]), r["error"], r) for i, r in enumerate(rows)]
        if len(ops) != self.CELLS:
            ops.append(Op("row_count", 0.0, f"{len(rows)} rows, expected {self.CELLS}"))
        return wall, ops

    @staticmethod
    def canon(op: Op):
        return {k: v for k, v in op.raw.items() if k != "runtime_ms"}

    def check(self, seed: int, inputs: Path, ops: list[Op]) -> dict[str, str]:
        bad = {}
        rng = random.Random(sub_seed(seed, 3))
        random_cells = [op for op in ops if op.raw and op.raw["family"].startswith("random")]
        recount = {op.name for op in rng.sample(random_cells, min(self.ORACLE_CELLS, len(random_cells)))}
        for op in ops:
            if op.error:
                continue
            row = op.raw
            reasons = count_invariants(row)
            p, cell_seed = int(row["p"]), int(row["seed"])
            if row["family"].startswith("construction"):
                reasons += self._check_construction_cell(p, cell_seed, row)
            elif op.name in recount:
                P = varieties.enum_paraboloid(PrimeField(p), 3)
                E = varieties.random_subset(P, int(row["set_size"]), cell_seed)
                reasons += oracle_mismatches(E, cell_seed)
            if reasons:
                bad[op.name] = "; ".join(reasons)
        return bad

    @staticmethod
    def _check_construction_cell(p: int, cell_seed: int, row: dict) -> list[str]:
        # k_rule max_leq_sqrt: the largest divisor k of p-1 with k^2 <= p-1.
        k = max(k for k in range(1, p) if (p - 1) % k == 0 and k * k <= p - 1)
        field = PrimeField(p)
        E = constructions.construct_odd_3mod4(field, 3, k, cell_seed)
        report = constructions.construction_report("odd3mod4", field, E, k=k)
        reasons = [] if report["products_contained"] else ["products not contained"]
        tri = oracle.oracle_triangles(E)
        expect = {
            "set_size": len(E),
            "prod_size": len(oracle.oracle_product(E)),
            "D": oracle.oracle_D(E),
            "D_star": oracle.oracle_D_star(E),
            "M": oracle.oracle_M(E),
            **{k: tri[k] for k in ("t_nde", "t_de", "t_star", "degenerate_pairs")},
        }
        return reasons + [f"{k} {row[k]} != oracle {v}" for k, v in expect.items() if int(row[k]) != v]

    def global_checks(self, seed: int, inputs: Path, work: Path, first: dict) -> dict[str, str]:
        """Byte-determinism: the CSV (less runtime_ms) is the same with two
        threads, never more threads than CPUs."""
        threads = min(2, os.cpu_count() or 1)
        out = work / "rows_threads.csv"
        op = self._sweep(inputs, out, "--threads", str(threads))
        if op.error:
            return {"threads": op.error}
        with out.open(newline="") as fh:
            rows = [{k: v for k, v in r.items() if k != "runtime_ms"} for r in csv.DictReader(fh)]
        same = rows == [first.get(f"cell{i:03d}") for i in range(self.CELLS)]
        return {"threads": "" if same else f"CSV with threads={threads} differs from threads=1"}


# -- cone_heavy ---------------------------------------------------------------


class ConeHeavy(Workload):
    """`ffgeom count --in` on three large stored sets: a random planar set
    and a random paraboloid subset in d = 3, both over p = 1 mod 4 so the
    isotropic cone is not empty, and an odd3mod4 construction over p = 11 in
    d = 7, built by `ffgeom construct` in the pass, where isotropic classes
    approach the pair count.  The sizes are cut from n = 4000, 2958 and 1210
    to keep a pass near three seconds; the primes and dimensions are kept."""

    name = "cone_heavy"
    PLANAR = (1009, 2000)  # p, n
    PARABOLOID = (401, 3, 1500)  # p, d, n
    CONSTRUCT = (11, 7, 5)  # p, d, k: n = k * p^((d-3)/2) = 605

    def make_inputs(self, seed: int, inputs: Path) -> None:
        p, n = self.PLANAR
        sample_space(p, 2, n, sub_seed(seed, 10)).save(inputs / "planar.txt")
        p, d, n = self.PARABOLOID
        P = varieties.enum_paraboloid(PrimeField(p), d)
        varieties.random_subset(P, n, sub_seed(seed, 11)).save(inputs / "paraboloid.txt")

    def run_pass(self, seed: int, inputs: Path, work: Path) -> tuple[float, list[Op]]:
        p, d, k = self.CONSTRUCT
        built = work / "construct.txt"
        # (op name, ffgeom arguments, the JSON file the op writes)
        plan = [
            ("construct", ["--seed", str(seed), "construct", "--kind", "odd3mod4", "--p", str(p),
                           "--d", str(d), "--k", str(k), "--out", str(built)], Path(f"{built}.json")),
        ]
        counted = {"planar": inputs / "planar.txt", "paraboloid": inputs / "paraboloid.txt", "construct": built}
        for stem, path in counted.items():
            out = work / f"count_{stem}.json"
            plan.append((f"count_{stem}", ["count", "--in", str(path), "--out", str(out)], out))
        for _, _, out in plan:
            out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        ops = [timed_cli(name, argv) for name, argv, _ in plan]
        wall = time.perf_counter() - t0
        for op, (_, _, out) in zip(ops, plan):
            if not op.error:
                op.raw = json.loads(out.read_text())
        return wall, ops

    @staticmethod
    def canon(op: Op):
        return op.raw

    def check(self, seed: int, inputs: Path, ops: list[Op]) -> dict[str, str]:
        p, d, k = self.CONSTRUCT
        size = k * p ** ((d - 3) // 2)
        expect_n = {"count_planar": self.PLANAR[1], "count_paraboloid": self.PARABOLOID[2],
                    "count_construct": size}
        bad = {}
        for op in ops:
            if op.error:
                continue
            if op.name == "construct":
                rep = op.raw
                reasons = [k for k in ("products_contained", "on_paraboloid") if rep.get(k) is not True]
                if rep.get("size") != size:
                    reasons.append(f"size {rep.get('size')} != {size}")
            else:
                reasons = count_invariants(op.raw)
                if op.raw["set_size"] != expect_n[op.name]:
                    reasons.append(f"set_size {op.raw['set_size']} != {expect_n[op.name]}")
            if reasons:
                bad[op.name] = "; ".join(reasons)
        return bad

    def global_checks(self, seed: int, inputs: Path, work: Path, first: dict) -> dict[str, str]:
        """The naive oracles on sub-samples of the three sets."""
        checks = {}
        for i, path in enumerate((inputs / "planar.txt", inputs / "paraboloid.txt", work / "construct.txt")):
            reasons = oracle_mismatches(PointSet.load(path), sub_seed(seed, 20 + i))
            checks[f"oracle_{path.stem}"] = "; ".join(reasons)
        return checks


# -- fourier_dense ------------------------------------------------------------


class FourierDense(Workload):
    """Dense transforms: two big indicator transforms, the fourier-verify
    default (n, p) pairs through the spectral apex bound, the Fourier
    degenerate-pair count and the zero-sphere check, and extension-ratio
    statistics on three circles."""

    name = "fourier_dense"
    INDICATORS = {"ind_101_2": (101, 2, 3000), "ind_31_3": (31, 3, 1000)}
    PAIRS = ((2, 3), (2, 7), (2, 11), (2, 19), (6, 3))  # cli.DEFAULT_VERIFY_PAIRS
    CIRCLES = (23, 43, 59)
    EXT_TRIALS = 200
    SPOT_FREQUENCIES = 16
    float_outputs = True

    def make_inputs(self, seed: int, inputs: Path) -> None:
        for i, (name, (p, n, size)) in enumerate(self.INDICATORS.items()):
            sample_space(p, n, size, sub_seed(seed, 30 + i)).save(inputs / f"{name}.txt")
        apex_points = {}
        for i, (n, p) in enumerate(self.PAIRS):
            sample_space(p, n, min(p**n, 4 * p), sub_seed(seed, 40 + i)).save(inputs / f"pair_{n}_{p}.txt")
            rng = random.Random(sub_seed(seed, 50 + i))
            apex_points[f"{n}:{p}"] = [rng.randrange(p) for _ in range(n)]
        params = {"apex_points": apex_points, "ext_seed": sub_seed(seed, 60)}
        (inputs / "params.json").write_text(json.dumps(params, indent=2) + "\n")

    def run_pass(self, seed: int, inputs: Path, work: Path) -> tuple[float, list[Op]]:
        params = json.loads((inputs / "params.json").read_text())

        def transform(path):
            X = PointSet.load(path)
            return X, fourier.fourier_indicator(X)

        def apex(path, y):
            X = PointSet.load(path)
            return X, y, fourier.spectral_apex_bound(X, y)

        t0 = time.perf_counter()
        ops = [timed(name, transform, inputs / f"{name}.txt") for name in self.INDICATORS]
        for n, p in self.PAIRS:
            key = f"{n}_{p}"
            op = timed(f"apex_{key}", apex, inputs / f"pair_{key}.txt", params["apex_points"][f"{n}:{p}"])
            ops.append(op)
            X = op.raw[0] if op.raw else PointSet.load(inputs / f"pair_{key}.txt")
            degenerate = timed(f"degenerate_{key}", fourier.degenerate_pairs_fourier, X)
            degenerate.raw = (X, degenerate.raw)
            ops.append(degenerate)
            ops.append(timed(f"zero_sphere_{key}", fourier.zero_sphere_max_error, PrimeField(p), n))
        for q in self.CIRCLES:
            ops.append(timed(f"extension_{q}", fourier.extension_ratio_stats, PrimeField(q), n=2,
                             r_exp=4.0, trials=self.EXT_TRIALS, seed=params["ext_seed"] + q))
        return time.perf_counter() - t0, ops

    def canon(self, op: Op):
        kind = op.name.split("_", 1)[0]
        if kind == "ind":
            X, table = op.raw
            p, n = X.field.p, X.dim
            flat = np.asarray(table.values).reshape(-1)
            picks = random.Random(len(X)).sample(range(flat.size), 8)
            return {
                "size": len(X),
                "plancherel_err": abs(float((np.abs(flat) ** 2).sum()) - len(X) * float(p) ** (-n)),
                "sample": [[float(flat[i].real), float(flat[i].imag)] for i in picks],
            }
        if kind == "apex":
            lhs, rhs = op.raw[2]
            return {"lhs": int(lhs), "rhs": float(rhs)}
        if kind == "degenerate":
            return float(op.raw[1])
        if kind == "zero":
            return float(op.raw)
        return {k: float(v) if isinstance(v, float) else v for k, v in op.raw.items()}

    def transform_errors(self, canon: dict) -> list[float]:
        return [v["plancherel_err"] for k, v in canon.items() if k.startswith("ind_")] + [
            v for k, v in canon.items() if k.startswith("zero_sphere_")
        ]

    def check(self, seed: int, inputs: Path, ops: list[Op]) -> dict[str, str]:
        bad = {}
        for op in ops:
            if op.error:
                continue
            reason = getattr(self, "_check_" + op.name.split("_", 1)[0])(op, seed)
            if reason:
                bad[op.name] = reason
        return bad

    def _check_ind(self, op: Op, seed: int) -> str:
        X, table = op.raw
        p, n = X.field.p, X.dim
        err = self.canon(op)["plancherel_err"]
        if not err <= FLOAT_TOL:
            return f"Plancherel error {err:.3e}"
        # Spot frequencies against the definition, computed here with numpy.
        pts = np.array(X.points, dtype=np.int64)
        rng = random.Random(sub_seed(seed, 70))
        values = np.asarray(table.values)
        for _ in range(self.SPOT_FREQUENCIES):
            m = [rng.randrange(p) for _ in range(n)]
            direct = np.exp(-2j * np.pi * ((pts @ np.array(m)) % p) / p).sum() / float(p) ** n
            if abs(complex(values[tuple(m)]) - complex(direct)) > FLOAT_TOL:
                return f"Xhat{tuple(m)} differs from the direct sum"
        return ""

    @staticmethod
    def _check_apex(op: Op, seed: int) -> str:
        X, y, (lhs, rhs) = op.raw
        p = X.field.p
        shells = [0] * p
        for x in X.points:
            shells[sum((a - b) * (a - b) for a, b in zip(x, y)) % p] += 1
        direct = sum(c * c for c in shells[1:])
        if lhs != direct:
            return f"equidistant pairs {lhs} != direct {direct}"
        if not (math.isfinite(rhs) and rhs >= len(X) ** 2 / p - FLOAT_TOL):
            return f"spectral majorant {rhs} below |X|^2/p"
        return ""

    @staticmethod
    def _check_degenerate(op: Op, seed: int) -> str:
        X, value = op.raw
        direct = oracle.oracle_degenerate_pairs(X)
        return "" if abs(value - direct) <= DEGENERATE_TOL else f"{value} != direct {direct}"

    @staticmethod
    def _check_zero(op: Op, seed: int) -> str:
        return "" if 0 <= op.raw <= FLOAT_TOL else f"zero-sphere error {op.raw:.3e}"

    def _check_extension(self, op: Op, seed: int) -> str:
        s = op.raw
        ok = (
            s["trials"] == self.EXT_TRIALS
            and math.isfinite(s["max_ratio"])
            and 0 < s["mean_ratio"] <= s["max_ratio"] + FLOAT_TOL
        )
        return "" if ok else f"bad statistics {s}"

    def global_checks(self, seed: int, inputs: Path, work: Path, first: dict) -> dict[str, str]:
        """Oracle transform on sub-samples of the two big sets, inside the
        oracle's work cap."""
        checks = {}
        for i, name in enumerate(self.INDICATORS):
            X = PointSet.load(inputs / f"{name}.txt")
            size = max(1, oracle.CAP_FOURIER_WORK // (4 * X.field.p**X.dim))
            sub = varieties.random_subset(X, min(size, len(X)), sub_seed(seed, 80 + i))
            fast = np.asarray(fourier.fourier_indicator(sub).values)
            worst = max(abs(fast[m] - v) for m, v in oracle.oracle_fourier(sub).items())
            checks[f"oracle_{name}"] = "" if worst <= FLOAT_TOL else f"max |fast - oracle| = {worst:.3e}"
        return checks


WORKLOADS = {w.name: w for w in (SweepRatio(), ConeHeavy(), FourierDense())}

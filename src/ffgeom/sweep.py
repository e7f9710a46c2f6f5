"""Experiment sweeps: JSON configs, deterministic per-cell seeding, optional
thread parallelism, and CSV/JSON emission.

Reproducibility contract: an identical config produces byte-identical output
regardless of thread count. Cells are seeded from (global seed, cell index)
with a splitmix-style derivation, computed independently, and merged in cell
order. Cell runtimes are only measured when the config opts in (timing: true),
because measured times would break the byte-determinism guarantee.

A random cell from alpha = d - 1 on is the enumerated paraboloid; a smaller
one draws its points from indices, and the cap bounds the sample size.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

from . import constructions, counting
from .field import PrimeField, is_prime
from .varieties import (
    DEFAULT_ENUM_CAP,
    ResourceLimitError,
    _check_cap,
    enum_paraboloid,
    random_paraboloid_subset,
    random_space_subset,
)

MASK64 = (1 << 64) - 1


def derive_seed(global_seed: int, index: int) -> int:
    """Stable splitmix64 derivation of a per-cell seed."""
    x = (global_seed + 0x9E3779B97F4A7C15 * (index + 1)) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Family:
    kind: str
    alpha: float | None = None
    construction: str | None = None
    k: int | None = None
    k_rule: str | None = None
    num_lines: int | None = None
    points_per_line: int | None = None

    def label(self) -> str:
        if self.kind == "random_paraboloid_subset":
            return f"random_paraboloid_subset(alpha={self.alpha:.9g})"
        if self.kind == "construction":
            kspec = self.k if self.k is not None else self.k_rule
            return f"construction({self.construction},k={kspec})"
        return f"lines(L={self.num_lines},M={self.points_per_line})"


@dataclass(frozen=True)
class SweepConfig:
    primes: tuple[int, ...]
    dims: tuple[int, ...]
    families: tuple[Family, ...]
    trials: int = 1
    seed: int = 0
    threads: int = 1
    out: str | None = None
    format: str = "csv"
    cap: int | None = None
    timing: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.format!r}")


_FAMILY_KEYS = {
    "random_paraboloid_subset": {"kind", "alpha"},
    "construction": {"kind", "construction", "k", "k_rule"},
    "lines": {"kind", "lines", "per_line"},
}


def _integer(value, what: str) -> int:
    """value, which must be a JSON integer: not a float, string or bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _positive(value, what: str) -> int:
    """value, which must be a JSON integer >= 1."""
    if _integer(value, what) < 1:
        raise ConfigError(f"{what} must be >= 1, got {value}")
    return value


def _parse_alpha(value) -> float:
    if isinstance(value, bool):
        raise ConfigError(f"alpha {value!r} is not a number or a fraction a/b")
    try:
        if isinstance(value, str):
            num, _, den = value.partition("/")
            return float(num) / float(den) if den else float(num)
        return float(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ConfigError(f"alpha {value!r} is not a number or a fraction a/b") from None


def parse_family(doc: dict, max_dim: int) -> Family:
    if not isinstance(doc, dict):
        raise ConfigError(f"a family must be a JSON object, got {doc!r}")
    if "kind" not in doc:
        raise ConfigError("family missing 'kind'")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _FAMILY_KEYS:
        raise ConfigError(f"unknown family kind {kind!r}")
    unknown = set(doc) - _FAMILY_KEYS[kind]
    if unknown:
        raise ConfigError(f"unknown family key(s) {sorted(unknown)} for kind {kind!r}")
    if kind == "random_paraboloid_subset":
        if "alpha" not in doc:
            raise ConfigError("random_paraboloid_subset needs 'alpha'")
        alpha = _parse_alpha(doc["alpha"])
        if not 0 < alpha <= max_dim - 1:
            raise ConfigError(f"alpha {alpha} outside (0, d-1] for the largest requested d")
        return Family(kind, alpha=alpha)
    if kind == "construction":
        name = doc.get("construction")
        if not isinstance(name, str) or name not in constructions.BUILDERS:
            raise ConfigError(f"unknown construction {name!r}")
        if ("k" in doc) == ("k_rule" in doc):
            raise ConfigError("construction family needs exactly one of 'k' or 'k_rule'")
        if "k_rule" in doc and doc["k_rule"] not in ("max_leq_sqrt", "max_proper"):
            raise ConfigError(f"unknown k_rule {doc['k_rule']!r}")
        k = _positive(doc["k"], "'k'") if "k" in doc else None
        return Family(kind, construction=name, k=k, k_rule=doc.get("k_rule"))
    if doc.get("lines") is None or doc.get("per_line") is None:
        raise ConfigError("lines family needs 'lines' and 'per_line'")
    return Family(
        kind,
        num_lines=_positive(doc["lines"], "'lines'"),
        points_per_line=_positive(doc["per_line"], "'per_line'"),
    )


def parse_config(source) -> SweepConfig:
    """Parse a config from a path, JSON text, or a dict. Unknown keys are
    errors, never silently ignored."""
    if isinstance(source, dict):
        doc = source
    else:
        text = Path(source).read_text(encoding="utf-8") if not str(source).lstrip().startswith("{") else str(source)
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"malformed config: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("a config must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(SweepConfig)}
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    for key in ("primes", "dims", "families"):
        if not isinstance(doc.get(key), list) or not doc[key]:
            raise ConfigError(f"config needs a non-empty list '{key}', got {doc.get(key)!r}")
    primes = tuple(_integer(p, "each of 'primes'") for p in doc["primes"])
    for p in primes:
        if p == 2 or not is_prime(p):
            raise ConfigError(f"prime list contains {p}, which is not an odd prime")
    dims = tuple(_integer(d, "each of 'dims'") for d in doc["dims"])
    if any(d < 2 for d in dims):
        raise ConfigError("dims must all be >= 2")
    families = tuple(parse_family(f, max(dims)) for f in doc["families"])
    if "timing" in doc and not isinstance(doc["timing"], bool):
        raise ConfigError(f"'timing' must be true or false, got {doc['timing']!r}")
    if not isinstance(doc.get("out"), (str, type(None))):
        raise ConfigError(f"'out' must be a path string, got {doc['out']!r}")
    for key in ("trials", "seed", "threads", "cap"):
        if key in doc and (key != "cap" or doc[key] is not None):  # a null cap means the default
            _integer(doc[key], f"'{key}'")
    # SweepConfig fills in every key the document leaves out
    return SweepConfig(**{**doc, "primes": primes, "dims": dims, "families": families})


@dataclass(frozen=True)
class SweepRow:
    p: int
    d: int
    family: str
    trial: int
    set_size: int = 0
    prod_size: int = 0
    prod_ratio: float = 0.0
    D: int = 0
    D_star: int = 0
    M: int = 0
    t_nde: int = 0
    t_de: int = 0
    t_star: int = 0
    degenerate_pairs: int = 0
    runtime_ms: float = 0.0
    seed: int = 0
    error: str = ""


CSV_COLUMNS = [f.name for f in fields(SweepRow)]


def _resolve_k(family: Family, p: int) -> int:
    if family.k is not None:
        return family.k
    if family.k_rule == "max_leq_sqrt":
        return next(k for k in range(math.isqrt(p - 1), 0, -1) if (p - 1) % k == 0)
    return (p - 1) // 2  # max_proper: p is odd, so (p - 1)/2 is the largest proper divisor


def build_cell_set(field: PrimeField, d: int, family: Family, seed: int, cap: int | None):
    p = field.p
    if family.kind == "random_paraboloid_subset":
        if family.alpha >= d - 1:
            return enum_paraboloid(field, d, cap)
        # ceil(p^alpha) is formed below 2^63 only; past it, it exceeds a cap of fewer
        # bits, and the sampler refuses the p^(d-1) > p^alpha base points at any size
        bits = family.alpha * math.log2(p)
        limit = DEFAULT_ENUM_CAP if cap is None else cap
        if bits >= 63 and bits > limit.bit_length():
            raise ResourceLimitError(f"paraboloid points: ceil({p}^{family.alpha:.9g}) exceeds cap {limit}")
        return random_paraboloid_subset(field, d, math.ceil(p**family.alpha) if bits < 63 else 0, seed, cap)
    if family.kind == "construction":
        return constructions.BUILDERS[family.construction](field, d, _resolve_k(family, p), seed, cap)
    if d != 2:
        raise ValueError("lines family applies only to d = 2 cells")
    return constructions.isotropic_lines_set(field, family.num_lines, family.points_per_line, seed, cap)


def run_cell(p: int, d: int, family: Family, trial: int, seed: int, cap, timing: bool) -> SweepRow:
    t0 = time.perf_counter()
    try:
        row = counting.counts_json(build_cell_set(PrimeField(p), d, family, seed, cap))
        del row["p"], row["d"]
        row["prod_ratio"] = row["prod_size"] / p
    except Exception as e:  # failures are recorded in-row, never abort a sweep
        row = {"error": f"{type(e).__name__}: {e}"}
    if timing:
        row["runtime_ms"] = (time.perf_counter() - t0) * 1e3
    return SweepRow(p=p, d=d, family=family.label(), trial=trial, seed=seed, **row)


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    cells = itertools.product(config.primes, config.dims, config.families, range(config.trials))
    args = [
        (p, d, fam, trial, derive_seed(config.seed, idx), config.cap, config.timing)
        for idx, (p, d, fam, trial) in enumerate(cells)
    ]
    # the pool starts a thread per cell submitted until it has max_workers
    workers = min(config.threads, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda a: run_cell(*a), args))
    else:
        rows = [run_cell(*a) for a in args]
    return rows


def emit_rows(rows: list[SweepRow], fmt: str) -> str:
    """Render rows, floats to 9 significant digits, as LF-terminated CSV or
    as a JSON list of records in column order."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows([f"{v:.9g}" if isinstance(v, float) else v for v in astuple(row)] for row in rows)
        return buf.getvalue()
    records = [{k: float(f"{v:.9g}") if isinstance(v, float) else v for k, v in asdict(r).items()} for r in rows]
    return json.dumps(records, indent=2) + "\n"


# -- planar non-degenerate triangle bound ----------------------------------


def planar_triangle_check(X) -> dict:
    """Check the planar non-degenerate isosceles triangle bound for X in
    F_p^2 with p = 3 mod 4 and |X| <= p^(4/3): the excess T*(X) - |X|^3/p,
    floored at 0, over min(p^(2/3)|X|^(5/3) + p^(1/4)|X|^2, |X|^(7/3)) is
    the ratio, ok when it is at most TRIANGLE_BOUND_CONSTANT."""
    p = X.field.p
    if X.dim != 2:
        raise ValueError("planar check needs a subset of F_p^2")
    if p % 4 != 3:
        raise ValueError("planar check requires p = 3 mod 4")
    n = len(X)
    if n == 0:
        raise ValueError("planar check needs a nonempty set")
    if n**3 > p**4:
        raise ValueError(f"|X| = {n} violates the hypothesis |X| <= p^(4/3)")
    t_star = counting.profile(X).t_star
    excess = t_star - n**3 / p
    min_bound = min(p ** (2 / 3) * n ** (5 / 3) + p**0.25 * n**2, n ** (7 / 3))
    ratio = max(excess, 0.0) / min_bound
    return {
        "p": p,
        "size": n,
        "t_star": t_star,
        "excess": excess,
        "min_bound": min_bound,
        "ratio": ratio,
        "ok": ratio <= counting.TRIANGLE_BOUND_CONSTANT,
    }


def planar_triangle_sweep(
    primes, exponent: float = 1.25, trials: int = 1, seed: int = 0, cap: int | None = None
) -> list[dict]:
    """Random subsets of F_p^2 of size ceil(p^exponent) across a prime list,
    each seeded from its flat (prime, trial) index, as `run_sweep` seeds its
    cells; the cap bounds the points the whole run draws."""
    if not 0 < exponent <= 4 / 3:
        raise ValueError(f"exponent {exponent} outside (0, 4/3]: the check needs |X| <= p^(4/3)")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    fields = [PrimeField(p) for p in primes]
    sizes = [math.ceil(p**exponent) for p in primes]
    _check_cap(trials * sum(sizes), cap, "space points")
    cells = itertools.product(zip(fields, sizes), range(trials))
    return [
        planar_triangle_check(random_space_subset(field, 2, size, derive_seed(seed, idx), cap))
        for idx, ((field, size), _) in enumerate(cells)
    ]

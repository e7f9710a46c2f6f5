"""Command-line front end.

Exit codes: 0 on success, 1 when a verification or assertion fails, 2 on
usage or config errors and on inputs beyond a resource cap or the memory
available.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import constructions, counting, fourier, oracle, sweep, varieties
from .field import PrimeField
from .varieties import PointSet, ResourceLimitError, enum_paraboloid

DEFAULT_VERIFY_PAIRS = "2:3,2:7,2:11,2:19,6:3"


def _emit(payload: str, out: str | None) -> None:
    if out:  # newline="": the file holds the payload's bytes on every platform
        Path(out).write_text(payload, encoding="utf-8", newline="")
    else:
        sys.stdout.write(payload)


def _load_set(args) -> PointSet:
    if args.infile is not None:
        return PointSet.load(args.infile)
    if args.full_paraboloid:
        p, d = args.full_paraboloid
        return enum_paraboloid(PrimeField(p), d, args.cap)
    p, d, size = args.random_paraboloid
    return varieties.random_paraboloid_subset(PrimeField(p), d, size, args.seed, args.cap)


def _add_set_source(sub) -> None:
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="infile", help="point-set text file")
    source.add_argument(
        "--full-paraboloid", nargs=2, type=int, metavar=("P", "D"), help="enumerate a paraboloid"
    )
    source.add_argument(
        "--random-paraboloid",
        nargs=3,
        type=int,
        metavar=("P", "D", "SIZE"),
        help="seeded random paraboloid subset",
    )


def cmd_product(args) -> int:
    E = _load_set(args)
    F = PointSet.load(args.second) if args.second else None
    prods = sorted(counting.product_set(E, F))
    doc = {
        "p": E.field.p,
        "d": E.dim,
        "set_size": len(E),
        "second_size": len(F) if F else None,
        "prod_size": len(prods),
        "values": prods if len(prods) <= 1000 else None,
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_count(args) -> int:
    _emit(json.dumps(counting.counts_json(_load_set(args)), indent=2) + "\n", args.out)
    return 0


def cmd_triangles(args) -> int:
    E = _load_set(args)
    pr = counting.profile(E)
    doc = {"p": E.field.p, "d": E.dim, "set_size": len(E)}
    doc.update((k, getattr(pr, k)) for k in counting.TRIANGLE_KEYS)
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_fourier_verify(args) -> int:
    tol = 1e-6
    lines = [f"{'n':>3} {'p':>5} {'max_abs_err':>14} {'plancherel_err':>16}"]
    worst = 0.0
    for item in args.pairs.split(","):
        n, p = (int(x) for x in item.split(":"))
        rep = fourier.verify_report(PrimeField(p), n, seed=args.seed, cap=args.cap)
        worst = max(worst, rep["max_abs_err"], rep["plancherel_err"])
        lines.append(
            f"{rep['n']:>3} {rep['p']:>5} {rep['max_abs_err']:>14.3e} {rep['plancherel_err']:>16.3e}"
        )
    lines.append(f"worst error {worst:.3e} (tolerance {tol:.0e})")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if worst < tol else 1


def cmd_extension_ratio(args) -> int:
    if args.n < 1:  # before the default exponent (2n + 4)/n divides by it
        raise ValueError("sphere needs dimension >= 1")
    stats = fourier.extension_ratio_stats(
        PrimeField(args.p),
        n=args.n,
        r_exp=(2 * args.n + 4) / args.n if args.r_exp is None else args.r_exp,
        trials=args.trials,
        seed=args.seed,
        radius=args.radius,
        cap=args.cap,
    )
    _emit(json.dumps(stats, indent=2) + "\n", args.out)
    return 0


# the optional flags each construct kind reads: it needs each of them and
# takes none of the others
CONSTRUCT_FLAGS = {"lines": ("lines", "per_line"), **dict.fromkeys(constructions.BUILDERS, ("d", "k"))}


def cmd_construct(args) -> int:
    reads = CONSTRUCT_FLAGS[args.kind]
    missing = [name for name in reads if getattr(args, name) is None]
    ignored = [name for name in ("d", "k", "lines", "per_line") if name not in reads and getattr(args, name) is not None]
    for names, verb in ((missing, "needs"), (ignored, "does not take")):
        if names:
            flags = " and ".join(f"--{name.replace('_', '-')}" for name in names)
            raise ValueError(f"--kind {args.kind} {verb} {flags}")
    field = PrimeField(args.p)
    if args.kind == "lines":
        E = constructions.isotropic_lines_set(field, args.lines, args.per_line, args.seed, args.cap)
    else:
        E = constructions.BUILDERS[args.kind](field, args.d, args.k, args.seed, args.cap)
    report = constructions.construction_report(args.kind, field, E, args.k, args.lines, args.per_line)
    if args.out:
        E.save(args.out)
        Path(args.out).with_suffix(Path(args.out).suffix + ".json").write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    failed = [key for key in ("products_contained", "on_paraboloid", "floor_ok") if not report.get(key, True)]
    if failed:
        raise constructions.ConstructionError(", ".join(failed))
    return 0


def cmd_sweep(args) -> int:
    # each global flag names a config key; a flag given on the command line wins
    config = dataclasses.replace(sweep.parse_config(args.config), **args.given)
    rows = sweep.run_sweep(config)
    _emit(sweep.emit_rows(rows, config.format), config.out)
    failures = sum(1 for r in rows if r.error)
    if failures:
        print(f"{failures} cell(s) recorded errors", file=sys.stderr)
    return 0


def cmd_oracle_diff(args) -> int:
    reports = oracle.run_battery(seed=args.seed, instances=args.instances)
    lines = [rep.line() for rep in reports]
    bad = [r for r in reports if not r.match]
    lines.append(f"{len(reports) - len(bad)}/{len(reports)} checks matched")
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if bad else 0


def cmd_mpprp(args) -> int:
    # the sweep's own flags, where given; a single check takes neither
    given = {k: v for k, v in (("exponent", args.exponent), ("trials", args.trials)) if v is not None}
    if args.primes:
        if args.p is not None or args.size is not None:
            raise ValueError("mpprp-check takes --primes, or --p and --size, not both")
        primes = [int(x) for x in args.primes.split(",")]
        reports = sweep.planar_triangle_sweep(primes, seed=args.seed, cap=args.cap, **given)
    elif args.p is None or args.size is None:
        raise ValueError("mpprp-check needs --primes, or --p and --size")
    elif given:
        raise ValueError(f"{' and '.join('--' + k for k in given)} apply only with --primes")
    else:
        X = varieties.random_space_subset(PrimeField(args.p), 2, args.size, args.seed, args.cap)
        reports = [sweep.planar_triangle_check(X)]
    _emit(json.dumps(reports, indent=2) + "\n", args.out)
    return 0 if all(r["ok"] for r in reports) else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error leaves through main as one `error:` line
        raise ValueError(f"{self.prog}: {message}")


GLOBAL_DEFAULTS = {"seed": 0, "threads": None, "out": None, "format": None, "cap": None}


def _global_flags() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subparser from clobbering a value parsed before the
    # subcommand; unset attributes are filled from GLOBAL_DEFAULTS in main().
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS, help="output path (default stdout)")
    common.add_argument("--format", choices=["csv", "json"], default=argparse.SUPPRESS)
    common.add_argument(
        "--cap", type=int, default=argparse.SUPPRESS, help="max enumeration size"
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _global_flags()
    parser = _Parser(prog="ffgeom", description=__doc__, parents=[common])
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return subs.add_parser(name, parents=[common], **kw)

    sp = add("product", help="dot-product set of one or two point sets")
    _add_set_source(sp)
    sp.add_argument("--with", dest="second", help="second point-set file")
    sp.set_defaults(fn=cmd_product)

    sp = add("count", help="all counts of a point set as JSON")
    _add_set_source(sp)
    sp.set_defaults(fn=cmd_count)

    sp = add("triangles", help="isosceles triangle counts")
    _add_set_source(sp)
    sp.set_defaults(fn=cmd_triangles)

    sp = add("fourier-verify", help="zero-sphere formula vs enumeration")
    sp.add_argument("--pairs", default=DEFAULT_VERIFY_PAIRS, help="comma list of n:p")
    sp.set_defaults(fn=cmd_fourier_verify)

    sp = add("extension-ratio", help="extension-ratio statistics on spheres")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--r-exp", dest="r_exp", type=float, default=None)
    sp.add_argument("--radius", type=int, default=None)
    sp.add_argument("--trials", type=int, default=200)
    sp.set_defaults(fn=cmd_extension_ratio)

    sp = add("construct", help="build and verify an extremal set")
    sp.add_argument(
        "--kind", required=True, choices=[*constructions.BUILDERS, "lines"]
    )
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--lines", type=int, default=None)
    sp.add_argument("--per-line", dest="per_line", type=int, default=None)
    sp.set_defaults(fn=cmd_construct)

    sp = add("sweep", help="run a configured sweep")
    sp.add_argument("--config", required=True)
    sp.set_defaults(fn=cmd_sweep)

    sp = add("oracle-diff", help="cross-validate fast counts against oracles")
    sp.add_argument("--instances", type=int, default=20)
    sp.set_defaults(fn=cmd_oracle_diff)

    sp = add("mpprp-check", help="planar triangle bound check")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--size", type=int, default=None)
    sp.add_argument("--primes", default=None, help="comma list for a sweep")
    sp.add_argument("--exponent", type=float, default=None, help="sweep only: set size p^E")
    sp.add_argument("--trials", type=int, default=None, help="sweep only: sets per prime")
    sp.set_defaults(fn=cmd_mpprp)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.given = {key: getattr(args, key) for key in GLOBAL_DEFAULTS if hasattr(args, key)}
        for key, value in GLOBAL_DEFAULTS.items():
            if not hasattr(args, key):
                setattr(args, key, value)
        return args.fn(args)
    except sweep.ConfigError as e:  # before ValueError, its base
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except constructions.ConstructionError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError, ResourceLimitError, MemoryError) as e:
        # a MemoryError raised by Python itself carries no message
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

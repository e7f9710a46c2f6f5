import argparse
import ast
import contextlib
import csv
import dataclasses
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ffgeom
from ffgeom import cli, constructions, counting, oracle, sweep, varieties
from ffgeom.field import PrimeField, is_prime
from ffgeom.varieties import PointSet, enum_paraboloid, on_paraboloid, random_space_subset

MINIMAL = {
    "primes": [7],
    "dims": [3],
    "families": [{"kind": "random_paraboloid_subset", "alpha": "4/3"}],
    "trials": 1,
    "seed": 42,
}


def test_parse_minimal_config_and_run():
    cfg = sweep.parse_config(MINIMAL)
    rows = sweep.run_sweep(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert row.set_size == 14  # ceil(7^(4/3))
    assert row.prod_size <= 7
    assert not row.error


def test_unknown_keys_are_named():
    with pytest.raises(sweep.ConfigError, match="prims"):
        sweep.parse_config({**MINIMAL, "prims": [7]})
    bad_family = {**MINIMAL, "families": [{"kind": "random_paraboloid_subset", "alfa": 1}]}
    with pytest.raises(sweep.ConfigError, match="alfa"):
        sweep.parse_config(bad_family)


def test_config_defaults_come_from_sweep_config():
    doc = {key: MINIMAL[key] for key in ("primes", "dims", "families")}
    family = sweep.Family("random_paraboloid_subset", alpha=4 / 3)
    assert sweep.parse_config(doc) == sweep.SweepConfig(primes=(7,), dims=(3,), families=(family,))


def test_config_sets_every_sweep_config_field():
    doc = {**MINIMAL, "trials": 3, "threads": 2, "out": "rows.json", "format": "json", "cap": 500, "timing": True}
    assert set(doc) == {f.name for f in dataclasses.fields(sweep.SweepConfig)}
    cfg = sweep.parse_config(doc)
    for key, value in doc.items():
        if key not in ("primes", "dims", "families"):
            assert getattr(cfg, key) == value
    assert (cfg.primes, cfg.dims, len(cfg.families)) == ((7,), (3,), 1)


def test_global_flags_name_sweep_config_fields():
    # cmd_sweep hands the given flags to dataclasses.replace by name
    assert set(cli.GLOBAL_DEFAULTS) <= {f.name for f in dataclasses.fields(sweep.SweepConfig)}


def test_config_validation():
    with pytest.raises(sweep.ConfigError):
        sweep.parse_config({**MINIMAL, "primes": [8]})
    with pytest.raises(sweep.ConfigError):
        sweep.parse_config({**MINIMAL, "trials": 0})
    with pytest.raises(sweep.ConfigError):
        sweep.parse_config(
            {**MINIMAL, "families": [{"kind": "random_paraboloid_subset", "alpha": 5}]}
        )
    with pytest.raises(sweep.ConfigError, match="malformed"):
        sweep.parse_config("{not json")
    for alpha in ("4/0", "four", "1/x", None):
        family = {"kind": "random_paraboloid_subset", "alpha": alpha}
        with pytest.raises(sweep.ConfigError, match="alpha"):
            sweep.parse_config({**MINIMAL, "families": [family]})
    with pytest.raises(sweep.ConfigError, match="threads"):
        sweep.parse_config({**MINIMAL, "threads": 0})
    with pytest.raises(sweep.ConfigError, match="format"):
        sweep.parse_config({**MINIMAL, "format": "xml"})


def test_trials_get_distinct_seeds_and_rerun_identical():
    cfg = sweep.parse_config({**MINIMAL, "trials": 2})
    rows = sweep.run_sweep(cfg)
    assert rows[0].seed != rows[1].seed
    again = sweep.run_sweep(cfg)
    assert rows == again


def test_csv_round_trip_and_determinism():
    cfg = sweep.parse_config(
        {
            "primes": [7, 11],
            "dims": [3],
            "families": [
                {"kind": "random_paraboloid_subset", "alpha": 1.0},
                {"kind": "construction", "construction": "odd3mod4", "k": 3},
            ],
            "trials": 2,
            "seed": 5,
        }
    )
    rows = sweep.run_sweep(cfg)
    payload = sweep.emit_rows(rows, "csv").encode()
    assert payload == sweep.emit_rows(sweep.run_sweep(cfg), "csv").encode()
    # thread count must not affect bytes
    import dataclasses

    cfg8 = dataclasses.replace(cfg, threads=8)
    assert payload == sweep.emit_rows(sweep.run_sweep(cfg8), "csv").encode()
    # LF endings, header, parse-back
    text = payload.decode("utf-8")
    assert "\r" not in text
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == len(rows)
    assert list(parsed[0]) == sweep.CSV_COLUMNS
    for rec, row in zip(parsed, rows):
        assert int(rec["D"]) == row.D
        assert int(rec["set_size"]) == row.set_size


@pytest.mark.parametrize("cpus, workers", [(4, 4), (1, None), (None, None)])
def test_sweep_threads_are_bounded_by_the_cpu_count(monkeypatch, cpus, workers):
    # a fake pool that records its size and maps in the calling thread: no
    # thread starts, whatever the config asks for
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    cfg = sweep.parse_config({**MINIMAL, "trials": 3})
    serial = sweep.run_sweep(cfg)
    monkeypatch.setattr(sweep, "ThreadPoolExecutor", FakePool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
    assert sweep.run_sweep(dataclasses.replace(cfg, threads=1_000_000)) == serial
    assert sizes == ([] if workers is None else [workers])


def test_json_emission(tmp_path):
    cfg = sweep.parse_config(MINIMAL)
    rows = sweep.run_sweep(cfg)
    out = tmp_path / "rows.json"
    out.write_text(sweep.emit_rows(rows, "json"))
    loaded = json.loads(out.read_text())
    assert loaded[0]["set_size"] == rows[0].set_size


def test_failures_recorded_in_row():
    cfg = sweep.parse_config(
        {
            "primes": [13],
            "dims": [3],
            "families": [{"kind": "construction", "construction": "odd3mod4", "k": 3}],
            "trials": 1,
            "seed": 0,
        }
    )
    rows = sweep.run_sweep(cfg)  # p = 13 = 1 mod 4 is rejected by the builder
    assert len(rows) == 1
    assert rows[0].error and "3 mod 4" in rows[0].error


def test_lines_family_row():
    cfg = sweep.parse_config(
        {
            "primes": [13],
            "dims": [2],
            "families": [{"kind": "lines", "lines": 2, "per_line": 3}],
            "trials": 1,
            "seed": 3,
        }
    )
    row = sweep.run_sweep(cfg)[0]
    assert not row.error
    assert row.set_size == 6
    assert row.t_de >= 54  # all-zero-side triples are degenerate


def test_k_rule_resolution():
    fam = sweep.Family("construction", construction="odd3mod4", k_rule="max_leq_sqrt")
    assert sweep._resolve_k(fam, 7) == 2  # divisors of 6 up to sqrt(6): {1, 2}
    assert sweep._resolve_k(fam, 23) == 2
    fam2 = sweep.Family("construction", construction="odd3mod4", k_rule="max_proper")
    assert sweep._resolve_k(fam2, 7) == 3
    for p in filter(is_prime, range(3, 500)):
        divisors = [k for k in range(1, p) if (p - 1) % k == 0]
        assert sweep._resolve_k(fam, p) == max(k for k in divisors if k * k <= p - 1)
        assert sweep._resolve_k(fam2, p) == max(k for k in divisors if k < p - 1)
    assert sweep._resolve_k(fam, 10_000_019) == 3046  # no O(p) divisor scan
    assert sweep._resolve_k(fam2, 10_000_019) == 5_000_009
    fam3 = sweep.Family("construction", construction="odd3mod4", k=5)
    with pytest.raises(ValueError, match="subgroup order 5 does not divide p-1 = 6"):
        sweep.build_cell_set(PrimeField(7), 3, fam3, 0, None)


def test_mean_prod_ratio_monotone_in_alpha():
    p, trials = 19, 20
    means = []
    for alpha_idx, alpha in enumerate([0.6, 0.9, 1.2, 1.5]):
        cfg = sweep.parse_config(
            {
                "primes": [p],
                "dims": [3],
                "families": [{"kind": "random_paraboloid_subset", "alpha": alpha}],
                "trials": trials,
                "seed": 1000 + alpha_idx,
            }
        )
        rows = sweep.run_sweep(cfg)
        means.append(sum(r.prod_ratio for r in rows) / trials)
    for lo, hi in zip(means, means[1:]):
        assert hi >= lo - 0.05


def test_planar_triangle_check_hypotheses():
    f = PrimeField(13)
    X = PointSet.build(f, 2, [(0, 0), (1, 2)])
    with pytest.raises(ValueError, match="3 mod 4"):
        sweep.planar_triangle_check(X)
    big = random_space_subset(PrimeField(11), 2, 30, seed=0)  # 30^3 > 11^4
    with pytest.raises(ValueError, match="hypothesis"):
        sweep.planar_triangle_check(big)
    with pytest.raises(ValueError, match="subset of F_p\\^2"):
        sweep.planar_triangle_check(random_space_subset(PrimeField(11), 3, 5, seed=0))


def test_planar_triangle_two_points():
    f = PrimeField(11)
    X = PointSet.build(f, 2, [(0, 0), (1, 3)])
    rep = sweep.planar_triangle_check(X)
    assert rep["t_star"] == 0 and rep["excess"] <= 2 and rep["min_bound"] > 0
    assert rep["ok"] and rep["ratio"] < 0.01


def test_planar_triangle_check_keys_are_the_cli_rows(capsys):
    # mpprp-check prints each check's dict as it is
    X = varieties.random_space_subset(PrimeField(11), 2, 15, 2)
    rep = sweep.planar_triangle_check(X)
    assert list(rep) == ["p", "size", "t_star", "excess", "min_bound", "ratio", "ok"]
    assert cli.main(["mpprp-check", "--p", "11", "--size", "15", "--seed", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == [rep]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--primes", "7", "--p", "11", "--size", "15"], "not both"),
        (["--primes", "7", "--size", "15"], "not both"),
        (["--p", "11", "--size", "15", "--exponent", "0.5", "--trials", "3"], "--exponent and --trials apply only with --primes"),
        (["--p", "11", "--size", "15", "--trials", "1"], "--trials apply only with --primes"),
    ],
    ids=["primes-and-p", "primes-and-size", "p-with-sweep-flags", "p-with-default-trials"],
)
def test_cli_mpprp_refuses_flags_it_would_ignore(capsys, argv, message):
    assert cli.main(["mpprp-check", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--threads", "5", "--format", "csv", "count", "--full-paraboloid", "7", "3"], "count: only sweep reads --threads and --format"),
        (["count", "--full-paraboloid", "7", "3", "--threads", "5", "--format", "csv"], "count: only sweep reads --threads and --format"),
        (["--threads", "2", "extension-ratio", "--p", "7"], "extension-ratio: only sweep reads --threads"),
        (["mpprp-check", "--p", "11", "--size", "15", "--format", "json"], "mpprp-check: only sweep reads --format"),
    ],
    ids=["before-command", "after-command", "threads-alone", "format-alone"],
)
def test_cli_refuses_the_sweep_flags_elsewhere(capsys, monkeypatch, argv, message):
    for name in ("cmd_count", "cmd_extension_ratio", "cmd_mpprp"):
        monkeypatch.setattr(cli, name, lambda args: pytest.fail("ran a command given a flag it ignores"))
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: ffgeom {message}\n"


def test_mpprp_sweep_seeds_each_cell_from_its_flat_index(monkeypatch):
    # at 1 001 trials a prime, `prime index * 1000 + trial` gave two cells one seed
    seeds = []
    monkeypatch.setattr(sweep, "random_space_subset", lambda field, n, size, seed, cap: seeds.append(seed))
    monkeypatch.setattr(sweep, "planar_triangle_check", lambda X: {})
    assert len(sweep.planar_triangle_sweep([7, 11], exponent=1.0, trials=1001, seed=3)) == 2002
    assert seeds == [sweep.derive_seed(3, idx) for idx in range(2002)]
    assert len(set(seeds)) == 2002


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mpprp-check", "--primes", "3", "--exponent", "1", "--trials", "2147483647"], "space points: 6442450941"),
        (["extension-ratio", "--p", "3", "--trials", "2147483647"], "drawn values: 12884901882"),
        (["oracle-diff", "--instances", "1000000000000"], "oracle instances: 1000000000000"),
        (["sweep", "--config", json.dumps({"primes": [7, 11], "dims": [3], "families": [
            {"kind": "random_paraboloid_subset", "alpha": 1}], "trials": 10**12})], "sweep cells: 2000000000000"),
    ],
    ids=["mpprp-check", "extension-ratio", "oracle-diff", "sweep"],
)
def test_cli_cap_bounds_the_values_a_run_draws(capsys, monkeypatch, argv, message):
    # each sample is small; their number is not, and the run is refused
    # before it builds its first set
    def never_built(*args):
        raise AssertionError("built a set before the run was checked against the cap")

    monkeypatch.setattr(varieties.PointSet, "build", never_built)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message} exceeds cap {varieties.DEFAULT_ENUM_CAP}\n"


@pytest.mark.parametrize(
    "over, at, message",
    [
        (["oracle-diff", "--instances", "2"], ["oracle-diff", "--instances", "1"], "oracle instances: 2"),
        (
            ["sweep", "--config", json.dumps({**MINIMAL, "trials": 2})],
            ["sweep", "--config", json.dumps(MINIMAL)],
            "sweep cells: 2",
        ),
    ],
    ids=["oracle-diff", "sweep"],
)
def test_cli_cap_bounds_the_cells_and_instances(capsys, monkeypatch, over, at, message):
    # past the cap the run is refused before its first cell or instance
    with monkeypatch.context() as mp:
        mp.setattr(sweep, "run_cell", lambda *args: pytest.fail("ran a cell past the cap"))
        mp.setattr(oracle, "oracle_product", lambda E: pytest.fail("ran an instance past the cap"))
        assert cli.main(["--cap", "1", *over]) == 2
    assert capsys.readouterr().err == f"error: {message} exceeds cap 1\n"
    assert cli.main(["--cap", "1", *at]) == 0


def test_cli_triangles_prints_the_triangle_keys_in_order(capsys):
    assert cli.main(["triangles", "--random-paraboloid", "13", "3", "20"]) == 0
    doc = json.loads(capsys.readouterr().out)
    triangle_keys = ["t_nde", "t_de", "t_star", "degenerate_pairs", "t_nde_raw", "t_zero_triples", "isosceles_total"]
    assert list(doc) == ["p", "d", "set_size", *triangle_keys]
    assert list(counting.TRIANGLE_KEYS) == triangle_keys


def test_derive_seed_stable():
    assert sweep.derive_seed(42, 0) == sweep.derive_seed(42, 0)
    seen = {sweep.derive_seed(42, i) for i in range(100)}
    assert len(seen) == 100


# -- CLI ----------------------------------------------------------------


def test_cli_construct_count_product(tmp_path, capsys):
    out = tmp_path / "e.txt"
    rc = cli.main(
        ["construct", "--kind", "odd3mod4", "--p", "7", "--d", "3", "--k", "3", "--out", str(out)]
    )
    assert rc == 0
    sidecar = json.loads((tmp_path / "e.txt.json").read_text())
    assert sidecar["products"] == [2, 6]
    capsys.readouterr()
    assert cli.main(["count", "--in", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["set_size"] == 3 and doc["prod_size"] == 2
    assert cli.main(["product", "--in", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"] == [2, 6]


def test_cli_construct_usage_error():
    assert cli.main(["construct", "--kind", "odd3mod4", "--p", "13", "--d", "3", "--k", "3"]) == 2


def test_cli_construct_seed_leaves_the_lift_unchanged(tmp_path):
    texts = []
    for seed in ("0", "5"):
        out = tmp_path / f"e{seed}.txt"
        argv = ["construct", "--kind", "even2mod4", "--p", "7", "--d", "6", "--k", "3", "--seed", seed]
        assert cli.main([*argv, "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


def test_cli_count_refuses_norms_that_would_wrap(tmp_path, capsys):
    # (p - 1, 1) is on y = x^2, and (p - 1)^2 overflows int64
    path = tmp_path / "wrap.txt"
    path.write_text(f"{10**18 + 3} 2 1\n{10**18 + 2} 1\n")
    assert cli.main(["count", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: norms of 1 coordinates overflow int64 at p = 1000000000000000003\n"


def test_cli_count_refuses_a_large_prime_header_quickly(tmp_path, capsys):
    # p = 10^18 + 3 is prime, and its p-sized tables exceed the cap; p >= 2^63
    # does not fit the int64 points at all
    for p, msg in [(10**18 + 3, "exceeds cap"), (2**64 + 13, "does not fit int64")]:
        path = tmp_path / f"{p}.txt"
        path.write_text(f"{p} 2 2\n1 2\n3 4\n")
        start = time.perf_counter()
        assert cli.main(["count", "--in", str(path)]) == 2
        assert time.perf_counter() - start < 5
        assert msg in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--kind", "odd3mod4", "--p", "1000000000000007243", "--d", "3", "--k", "1"],
        ["--kind", "even0mod4", "--p", "1000000000000014653", "--d", "4", "--k", "1"],
        ["--kind", "lines", "--p", "1000000000000014653", "--lines", "1", "--per-line", "2"],
    ],
)
def test_cli_construct_refuses_a_safe_prime_quickly(argv, capsys):
    # p - 1 = 2q or 4q with q prime: no step may factor p - 1 by trial division
    start = time.perf_counter()
    assert cli.main(["construct", *argv]) == 2
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_fourier_verify(capsys):
    assert cli.main(["fourier-verify", "--pairs", "2:3,2:7"]) == 0
    out = capsys.readouterr().out
    assert "max_abs_err" in out and "worst error" in out


def test_cli_fourier_verify_cap_reaches_every_table(capsys, monkeypatch):
    monkeypatch.setattr(varieties, "DEFAULT_ENUM_CAP", 50)
    assert cli.main(["fourier-verify", "--pairs", "2:11"]) == 2
    assert "transform-table entries: 121 exceeds cap 50" in capsys.readouterr().err
    assert cli.main(["--cap", "200", "fourier-verify", "--pairs", "2:11"]) == 0
    assert "worst error" in capsys.readouterr().out


def test_cli_fourier_verify_cap_reaches_the_zero_sphere(capsys, monkeypatch):
    # the zero sphere of F_31^2 holds 62 points: over the default, under --cap
    monkeypatch.setattr(varieties, "DEFAULT_ENUM_CAP", 50)
    assert cli.main(["--cap", "1000", "fourier-verify", "--pairs", "2:31"]) == 0
    assert "worst error" in capsys.readouterr().out


def test_cli_sweep_byte_identical(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "primes": [7],
                "dims": [3],
                "families": [{"kind": "random_paraboloid_subset", "alpha": 1.2}],
                "trials": 2,
                "seed": 9,
            }
        )
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli.main(["--threads", "8", "sweep", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_sweep_seed_and_cap_flags_win(tmp_path, capsys):
    doc = {
        "primes": [7],
        "dims": [3],
        "families": [
            {"kind": "random_paraboloid_subset", "alpha": 1.2},
            {"kind": "construction", "construction": "odd3mod4", "k": 6},
        ],
        "trials": 2,
        "seed": 5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    run = ["sweep", "--config", str(cfg_path)]
    assert cli.main(run) == 0
    plain = capsys.readouterr().out
    reseeded = sweep.emit_rows(sweep.run_sweep(sweep.parse_config({**doc, "seed": 99})), "csv")
    assert reseeded != plain
    for argv in (["--seed", "99", *run], [*run, "--seed", "99"]):  # before or after the subcommand
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == reseeded
    # a lines cell needs d = 2 and p = 1 mod 4, so it gets a config of its own
    lines_path = tmp_path / "lines.json"
    lines_path.write_text(json.dumps({"primes": [13], "dims": [2], "families": [{"kind": "lines", "lines": 2, "per_line": 3}]}))
    lines_run = ["sweep", "--config", str(lines_path)]

    def errors(*flags):
        rows = []
        for argv in (run, lines_run):
            assert cli.main([*argv, *flags]) == 0
            rows += csv.DictReader(io.StringIO(capsys.readouterr().out))
        families = [r["family"].split("(")[0] for r in rows]
        assert families == ["random_paraboloid_subset"] * 2 + ["construction"] * 2 + ["lines"]
        return [r["error"] for r in rows]

    assert errors() == [""] * 5  # every cell builds without a cap
    # four cells fit a cap of 4; their 11, 6 and 6 points do not
    what = ["paraboloid points"] * 2 + ["lifted span points"] * 2 + ["line points"]
    assert all(e.startswith(f"ResourceLimitError: {w}") for e, w in zip(errors("--cap", "4"), what, strict=True))


def test_random_cell_cap_bounds_the_sample():
    # 1016 points of the 101^3-point paraboloid in F_101^4
    family = sweep.Family("random_paraboloid_subset", alpha=1.5)
    E = sweep.build_cell_set(PrimeField(101), 4, family, seed=3, cap=100_000)
    assert len(E) == 1016 and on_paraboloid(E)
    assert sweep.run_cell(101, 4, family, 0, 3, 100_000, False).error == ""
    row = sweep.run_cell(101, 4, family, 0, 3, 10, False)
    assert row.error == "ResourceLimitError: paraboloid points: 1016 exceeds cap 10"


def test_random_cell_from_alpha_d_minus_1_takes_the_whole_paraboloid():
    # 23^300 overflows a float; the cell takes all 23^2 base points without it
    for alpha in (2.0, 2.5, 300.0):
        family = sweep.Family("random_paraboloid_subset", alpha=alpha)
        assert len(sweep.build_cell_set(PrimeField(23), 3, family, seed=1, cap=None)) == 23**2


@pytest.mark.parametrize(
    "argv, size",
    [
        (["mpprp-check", "--p", "100003", "--size", "10"], 10),
        (["mpprp-check", "--primes", "100003", "--exponent", "0.5"], 317),
        (["triangles", "--random-paraboloid", "100003", "3", "10"], 10),
    ],
    ids=["mpprp-p", "mpprp-primes", "triangles"],
)
def test_cli_samples_a_few_points_of_a_huge_variety(capsys, argv, size):
    # 10^10 points in the plane and on the paraboloid: drawn from indices,
    # never enumerated
    t0 = time.perf_counter()
    assert cli.main(argv) == 0
    assert time.perf_counter() - t0 < 5
    doc = json.loads(capsys.readouterr().out)
    assert (doc[0]["size"] if argv[0] == "mpprp-check" else doc["set_size"]) == size


def test_cli_sweep_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text('{"prims": [7]}')
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 2
    cfg_path.write_text("[]")
    capsys.readouterr()
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "config error: a config must be a JSON object\n"


@pytest.mark.parametrize(
    "argv, size",
    [(["--p", "7", "--size", "15"], 15), (["--primes", "7"], 12)],  # ceil(7^1.25) = 12
    ids=["single", "primes"],
)
def test_cli_mpprp_refuses_a_sample_past_the_cap_before_drawing(capsys, monkeypatch, argv, size):
    def never_drawn(*args):
        raise AssertionError("drew a sample past the cap")

    monkeypatch.setattr(varieties, "_sample", never_drawn)
    assert cli.main(["--cap", "10", "mpprp-check", *argv]) == 2
    assert capsys.readouterr().err == f"error: space points: {size} exceeds cap 10\n"


def test_cli_mpprp(capsys):
    assert cli.main(["mpprp-check", "--p", "11", "--size", "15", "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["ok"]


def test_cli_triangles_random(capsys):
    assert cli.main(["triangles", "--random-paraboloid", "7", "3", "10", "--seed", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["set_size"] == 10


# -- inputs rejected at parse time ----------------------------------------


def _never_run(config):
    raise AssertionError("the sweep ran before its config was checked")


@pytest.mark.parametrize(
    "doc, flags",
    [
        ({"format": "xml"}, []),
        ({"families": [{"kind": "random_paraboloid_subset", "alpha": "4/0"}]}, []),
        ({"threads": -1}, []),
        ({}, ["--threads", "0"]),
        # JSON types: no int() or bool() coercion
        ({"primes": 7}, []),
        ({"primes": [7.9]}, []),
        ({"trials": True}, []),
        ({"timing": "false"}, []),
        ({"cap": "abc"}, []),
        ({"families": [{"kind": "lines", "lines": 1.5, "per_line": 2}]}, []),
        ({"families": [{"kind": "construction", "construction": "odd3mod4", "k": "3"}]}, []),
        ({"families": [{"kind": ["lines"]}]}, []),
        ({"families": [{"kind": "random_paraboloid_subset", "alpha": True}]}, []),
        ({"out": 5}, []),
        # sizes below 1: each row would record an error, and the sweep exit 0
        ({"families": [{"kind": "construction", "construction": "odd3mod4", "k": 0}]}, []),
        ({"families": [{"kind": "construction", "construction": "even2mod4", "k": -1}]}, []),
        ({"families": [{"kind": "lines", "lines": 0, "per_line": 2}]}, []),
        ({"families": [{"kind": "lines", "lines": 2, "per_line": 0}]}, []),
        # families and dims that no cell could use
        ({"families": [5]}, []),
        ({"families": [{"alpha": 1}]}, []),
        ({"families": [{"kind": "random_paraboloid_subset"}]}, []),
        ({"families": [{"kind": "construction", "construction": "odd1mod4", "k": 3}]}, []),
        ({"families": [{"kind": "construction", "construction": "odd3mod4", "k": 3, "k_rule": "max_proper"}]}, []),
        ({"families": [{"kind": "construction", "construction": "odd3mod4"}]}, []),
        ({"families": [{"kind": "construction", "construction": "odd3mod4", "k_rule": "min"}]}, []),
        ({"families": [{"kind": "lines", "lines": 2}]}, []),
        ({"dims": [1, 3]}, []),
    ],
)
def test_cli_sweep_bad_values_exit_2_before_running(tmp_path, capsys, monkeypatch, doc, flags):
    monkeypatch.setattr(sweep, "run_sweep", _never_run)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**MINIMAL, **doc}))
    assert cli.main([*flags, "sweep", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["construct", "--kind", "odd3mod4", "--p", "7"], "--k"),
        (["construct", "--kind", "lines", "--p", "13", "--lines", "2"], "--per-line"),
        (["mpprp-check", "--p", "11"], "--size"),
        # 3 is a nonsquare mod 7, so every sampled one-dimensional sphere is empty
        (["extension-ratio", "--p", "7", "--n", "1", "--radius", "3", "--trials", "2"], "empty"),
        (["extension-ratio", "--p", "7", "--r-exp", "0", "--trials", "2"], "r_exp"),
        (["mpprp-check", "--primes", "7", "--exponent", "inf"], "exponent"),
        (["extension-ratio", "--p", "7", "--trials", "0"], "trials must be >= 1"),
        (["extension-ratio", "--p", "7", "--trials", "-3"], "trials must be >= 1"),
        (["extension-ratio", "--p", "7", "--n", "0", "--trials", "2"], "dimension >= 1"),
        # 10^27 base points: more indices than random.sample can take
        (["count", "--random-paraboloid", "1000000007", "4", "10"], "too many to sample"),
        (["count", "--random-paraboloid", "7", "1", "3"], "paraboloid needs dimension >= 2"),
        (["count", "--random-paraboloid", "7", "3", "50"], "sample size 50 exceeds population 49"),
        # a verification that checks nothing
        (["mpprp-check", "--p", "7", "--size", "0"], "nonempty set"),
        (["mpprp-check", "--primes", "7", "--trials", "0"], "trials must be >= 1"),
        (["mpprp-check", "--primes", "7", "--trials", "-2"], "trials must be >= 1"),
        (["oracle-diff", "--instances", "0"], "instances must be >= 1"),
        (["oracle-diff", "--instances", "-1"], "instances must be >= 1"),
        # the zero sphere, which the statistics promise never to sample
        (["extension-ratio", "--p", "7", "--radius", "0", "--trials", "2"], "radius must be nonzero mod p"),
        (["extension-ratio", "--p", "7", "--radius", "14", "--trials", "2"], "radius must be nonzero mod p"),
        (["construct", "--kind", "lines", "--p", "13", "--lines", "0", "--per-line", "3"], "at least one line"),
        (["fourier-verify", "--pairs", "2"], "--pairs item '2' is not n:p"),
        (["fourier-verify", "--pairs", "2:7:1"], "--pairs item '2:7:1' is not n:p"),
        (["fourier-verify", "--pairs", ""], "--pairs item '' is not n:p"),
        (["mpprp-check", "--primes", "x"], "--primes item 'x' is not an integer"),
        (["mpprp-check", "--primes", "7,,11"], "--primes item '' is not an integer"),
        (["count", "--random-paraboloid", "7", "3", "-1"], "sample size -1 is negative"),
        (["mpprp-check", "--p", "7", "--size", "-1"], "sample size -1 is negative"),
    ],
)
def test_cli_unusable_arguments_exit_2(capsys, argv, missing):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and missing in err and err.count("\n") == 1


CAP_CASES = [
    (["--cap", "10", "count", "--full-paraboloid", "7", "3"], "paraboloid points: 49"),
    (["--cap", "10", "fourier-verify", "--pairs", "2:7"], "transform-table entries: 49"),
    (["--cap", "10", "extension-ratio", "--p", "43"], "sphere points: 86"),
    # the sphere (86 <= 100) passes; the 43^2-entry surface transform does not
    (["--cap", "100", "extension-ratio", "--p", "43", "--trials", "3"], "transform-table entries: 1849"),
    # 5 * 101^6 lifted span points: refused before the frame search
    (["construct", "--kind", "even2mod4", "--p", "101", "--d", "14", "--k", "5"], "lifted span points: 5307600753005"),
    (["--cap", "10", "construct", "--kind", "odd3mod4", "--p", "11", "--d", "7", "--k", "5"], "lifted span points: 605"),
    (["--cap", "5", "construct", "--kind", "lines", "--p", "13", "--lines", "2", "--per-line", "3"], "line points: 6"),
    # a random paraboloid subset's cap bounds the sample, not the paraboloid
    (["--cap", "10", "count", "--random-paraboloid", "7", "3", "11"], "paraboloid points: 11"),
]


@pytest.mark.parametrize("argv, what", CAP_CASES, ids=[f"argv{i}" for i in range(len(CAP_CASES))])
def test_cli_cap_exceeded_exit_2(capsys, argv, what):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {what} exceeds cap") and err.count("\n") == 1


def test_cli_zero_pair_byte_cap_exit_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "paraboloid.txt"
    varieties.enum_paraboloid(PrimeField(3), 3).save(path)  # 12 scanned pairs at distance zero
    monkeypatch.setattr(counting, "ZERO_PAIR_BYTE_CAP", 100)
    assert cli.main(["count", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bytes" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, dim",
    # at p = 2^31 - 1 int64 would wrap: the Gram in F_p^3, 3 (p - 1)^2 > 2^63
    [("count", 3), ("product", 3)],
)
def test_cli_int64_overflow_exit_2(tmp_path, capsys, command, dim):
    p = 2**31 - 1
    path = tmp_path / "far.txt"
    path.write_text(f"{p} {dim} 2\n" + " ".join(["0"] * dim) + "\n" + " ".join([str(p - 1)] * dim) + "\n")
    assert cli.main([command, "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflow int64" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, what",
    [("count", "square-table entries: 2000000014"), ("product", "histogram-table entries: 1000000007")],
    ids=["count", "product"],
)
def test_cli_p_sized_tables_exit_2(tmp_path, capsys, command, what):
    # two points pass the int64 guard at p = 10^9 + 7 in the plane, but the
    # pass's p-entry tables (2p words for count) exceed the default cap
    p = 10**9 + 7
    path = tmp_path / "far.txt"
    path.write_text(f"{p} 2 2\n0 0\n{p - 1} {p - 1}\n")
    assert cli.main([command, "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {what} exceeds cap 100000000") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["count", "--random-paraboloid", "7", "3", "3", "--full-paraboloid", "7", "3"], "--full-paraboloid"),
        (["triangles", "--in", "E.txt", "--full-paraboloid", "7", "3"], "--full-paraboloid"),
        (["product"], "--full-paraboloid"),
        # every other usage error takes the same one-line path
        ([], "ffgeom: the following arguments are required: command"),
        (["bogus"], "ffgeom: argument command: invalid choice: 'bogus'"),
        (["count", "--in", "x", "--seed", "y"], "ffgeom count: argument --seed: invalid int value: 'y'"),
        (["--format", "xml", "count", "--in", "x"], "ffgeom: argument --format: invalid choice: 'xml'"),
        (["sweep"], "ffgeom sweep: the following arguments are required: --config"),
    ],
    ids=["two-generated", "file-and-generated", "none", "no-command", "unknown-command", "bad-int", "bad-choice", "sweep-without-config"],
)
def test_cli_takes_exactly_one_set_source(capsys, argv, fragment):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ffgeom")
    assert fragment in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["-h"], ["count", "-h"]])
def test_cli_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ffgeom")


def test_cli_memory_error_exits_2_with_one_line():
    # the 9973^2 base points of the paraboloid in F_9973^3 pass the default cap,
    # and their first array (1.48 GiB) does not fit in a 1 GiB address space
    src = str(Path(ffgeom.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    limit = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "ffgeom.cli", "count", "--full-paraboloid", "9973", "3"],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


# a count that no cap admits, whatever its exponent: each of these formed
# its power (thousands of millions of digits) before comparing it with the cap
HUGE_POWER_CASES = [
    (["--cap", "100", "count", "--full-paraboloid", "23", "2147483647"], "paraboloid points: 23^2147483646 exceeds cap 100"),
    (
        ["--cap", "5000", "fourier-verify", "--pairs", "1000000000000000003:23"],
        "transform-table entries: 23^1000000000000000003 exceeds cap 5000",
    ),
    (
        ["--cap", "100", "extension-ratio", "--p", "3", "--n", "1000000000000000003", "--trials", "5"],
        "sphere points: 2 * 3^1000000000000000002 exceeds cap 100",
    ),
    (
        ["--cap", "1", "construct", "--kind", "odd3mod4", "--p", "2147483647", "--d", "1000000000000000003", "--k", "2"],
        "lifted span points: 2 * 2147483647^500000000000000000 exceeds cap 1",
    ),
    (["count", "--random-paraboloid", "23", "2147483647", "5"], "23^2147483646 points, too many to sample"),
    # a sweep over d = 2^31 - 1 and the family given records the refusal in
    # the cell's row and exits 0; the random cell's size is ceil(23^1.5)
    (["--cap", "100", "sweep", {"kind": "random_paraboloid_subset", "alpha": 1.5}], "paraboloid points: 111 exceeds cap 100"),
    # alpha = d - 1 asks for the whole paraboloid, p^(d-1) points
    (
        ["--cap", "100", "sweep", {"kind": "random_paraboloid_subset", "alpha": 2147483646}],
        "paraboloid points: 23^2147483646 exceeds cap 100",
    ),
    (
        ["--cap", "100", "sweep", {"kind": "construction", "construction": "odd3mod4", "k": 2}],
        "lifted span points: 2 * 23^1073741822 exceeds cap 100",
    ),
]


@pytest.mark.parametrize("argv, message", HUGE_POWER_CASES, ids=[f"argv{i}" for i in range(len(HUGE_POWER_CASES))])
def test_cli_huge_power_exits_at_once(tmp_path, argv, message):
    sweeping = isinstance(argv[-1], dict)
    if sweeping:
        config = tmp_path / "huge.json"
        config.write_text(json.dumps({"primes": [23], "dims": [2147483647], "families": [argv[-1]]}))
        argv = [*argv[:-1], "--config", str(config)]
    src = str(Path(ffgeom.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    limit = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "ffgeom.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        timeout=20,
    )
    if sweeping:
        assert proc.returncode == 0 and proc.stderr == "1 cell(s) recorded errors\n"
        (row,) = csv.DictReader(io.StringIO(proc.stdout))
        assert message in row["error"]
    else:
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and message in proc.stderr and proc.stderr.count("\n") == 1


def test_cli_bare_memory_error_names_itself(capsys, monkeypatch):
    # Python's own MemoryError (a set or list that cannot grow) has no message
    def exhausted(E):
        raise MemoryError

    monkeypatch.setattr(counting, "counts_json", exhausted)
    assert cli.main(["count", "--random-paraboloid", "7", "3", "3"]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1, "expected one python block in the README"
    exec(blocks[0].split("```")[0], {})
    first, second = capsys.readouterr().out.splitlines()
    assert first.split()[1] == "True" and second.startswith("{")


def test_all_matches_package_imports():
    # __all__ is what `from ffgeom import *` exports: every name must resolve,
    # and it must list exactly the public names __init__.py imports
    tree = ast.parse(Path(ffgeom.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]
    assert sorted(ffgeom.__all__) == sorted(set(imported)) == sorted(imported)
    assert all(hasattr(ffgeom, name) for name in ffgeom.__all__)
    namespace: dict = {}
    exec("from ffgeom import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ffgeom.__all__)


# -- commands and options that other tests leave unrun --------------------


@pytest.mark.parametrize("n, r_exp", [(2, 4.0), (3, 10 / 3)])
def test_cli_extension_ratio_prints_its_stats(capsys, n, r_exp):
    # the default exponent is (2n + 4)/n
    assert cli.main(["extension-ratio", "--p", "23", "--n", str(n), "--trials", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["p", "n", "r_exp", "trials", "max_ratio", "mean_ratio"]
    assert (doc["p"], doc["n"], doc["trials"]) == (23, n, 5)
    assert doc["r_exp"] == r_exp and doc["max_ratio"] >= doc["mean_ratio"] > 0


def test_cli_oracle_diff_reports_every_check(capsys):
    assert cli.main(["oracle-diff", "--instances", "2", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} checks matched"
    assert all(line.startswith("OK ") for line in lines[:-1])


def test_cli_count_out_writes_the_file_only(tmp_path, capsys):
    src, out = tmp_path / "e.txt", tmp_path / "counts.json"
    random_space_subset(PrimeField(13), 2, 20, seed=1).save(src)
    assert cli.main(["count", "--in", str(src), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text()) == counting.counts_json(PointSet.load(src))


def test_cli_construct_failed_verification_exits_1(capsys, monkeypatch):
    def refuted(*args):
        raise constructions.ConstructionError("subgroup has wrong size")

    monkeypatch.setitem(constructions.BUILDERS, "odd3mod4", refuted)
    assert cli.main(["construct", "--kind", "odd3mod4", "--p", "7", "--d", "3", "--k", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "verification failed: subgroup has wrong size\n"


def test_sweep_timing_fills_runtime_and_nothing_else():
    # the second family fails at d = 3: its row is timed too
    doc = {**MINIMAL, "trials": 2, "families": [*MINIMAL["families"], {"kind": "lines", "lines": 2, "per_line": 3}]}
    timed = sweep.run_sweep(sweep.parse_config({**doc, "timing": True}))
    untimed = sweep.run_sweep(sweep.parse_config(doc))
    assert any(row.error for row in timed)
    assert all(row.runtime_ms > 0 for row in timed)
    assert [dataclasses.replace(row, runtime_ms=0.0) for row in timed] == untimed


def test_random_cell_past_the_float_range_names_the_cap(tmp_path, capsys):
    # ceil(23^300) overflows a float; the cell is refused without forming it
    doc = {"primes": [23], "dims": [2, 400], "families": [{"kind": "random_paraboloid_subset", "alpha": 300}]}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["sweep", "--config", str(config)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "1 cell(s) recorded errors\n"
    plane, far = csv.DictReader(io.StringIO(captured.out))
    assert far["error"] == "ResourceLimitError: paraboloid points: ceil(23^300) exceeds cap 100000000"
    # the d = 2 cell takes the whole parabola, as before
    whole = counting.counts_json(varieties.enum_paraboloid(PrimeField(23), 2))
    assert plane["error"] == "" and plane["seed"] == str(sweep.derive_seed(0, 0))
    assert all(plane[key] == str(whole[key]) for key in ("set_size", "prod_size", "D", "D_star", "M", "t_nde", "t_de"))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fourier-verify", "--pairs", "0:7"], "error: sphere needs dimension >= 1\n"),
        (
            ["construct", "--kind", "lines", "--p", "13", "--lines", "2", "--per-line", "3", "--k", "4"],
            "error: --kind lines does not take --k\n",
        ),
        (
            ["construct", "--kind", "odd3mod4", "--p", "7", "--d", "3", "--k", "3", "--lines", "2", "--per-line", "9"],
            "error: --kind odd3mod4 does not take --lines and --per-line\n",
        ),
        (
            ["construct", "--kind", "even2mod4", "--p", "7", "--d", "6", "--k", "3", "--per-line", "9"],
            "error: --kind even2mod4 does not take --per-line\n",
        ),
        (["construct", "--kind", "odd3mod4", "--p", "11", "--k", "5"], "error: --kind odd3mod4 needs --d\n"),
        (
            ["construct", "--kind", "lines", "--p", "13", "--lines", "2", "--per-line", "3", "--d", "7"],
            "error: --kind lines does not take --d\n",
        ),
    ],
    ids=[
        "fourier-verify-n0",
        "lines-with-k",
        "odd3mod4-with-lines",
        "even2mod4-with-per-line",
        "odd3mod4-without-d",
        "lines-with-d",
    ],
)
def test_cli_refuses_arguments_it_cannot_use(capsys, argv, message):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message


@pytest.mark.parametrize(
    "p, d, alpha, cap, error",
    [
        # past 2^63 points and past the cap's bit length: refused unformed
        (10**18 + 3, 30, 20.0, None, "ResourceLimitError: paraboloid points: ceil(1000000000000000003^20) exceeds cap 100000000"),
        (23, 400, 250.0, 10**330, f"ResourceLimitError: paraboloid points: ceil(23^250) exceeds cap {10**330}"),
        # past 2^63 points within the cap's bit length: more than the sampler takes
        (23, 400, 230.0, 10**330, "ValueError: F_23^399 has 23^399 points, too many to sample by index"),
    ],
    ids=["huge-p", "huge-cap", "past-the-sampler"],
)
def test_random_cell_size_never_overflows_a_float(p, d, alpha, cap, error):
    family = sweep.Family("random_paraboloid_subset", alpha=alpha)
    assert sweep.run_cell(p, d, family, 0, 1, cap, False).error == error


def test_cli_oracle_diff_out_writes_the_file_only(tmp_path, capsys):
    out = tmp_path / "oracle.txt"
    assert cli.main(["oracle-diff", "--instances", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    lines = out.read_text().splitlines()
    assert lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} checks matched" and len(lines) > 1


@pytest.mark.parametrize(
    "argv, module_name, fake, failed",
    [
        # a product outside {a + a^2}
        (["--kind", "odd3mod4", "--p", "7", "--d", "3", "--k", "3"], "product_set", lambda E: {0, 2}, "products_contained"),
        # fewer zero triples than the lines promise
        (
            ["--kind", "lines", "--p", "13", "--lines", "2", "--per-line", "3"],
            "profile",
            lambda E: dataclasses.replace(counting.profile(E), t_zero_triples=0),
            "floor_ok",
        ),
    ],
    ids=["lift", "lines"],
)
def test_cli_construct_report_with_a_failed_check_exits_1(tmp_path, capsys, monkeypatch, argv, module_name, fake, failed):
    monkeypatch.setattr(constructions, module_name, fake)
    out = tmp_path / "e.txt"
    assert cli.main(["construct", *argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report[failed] is False and json.loads((tmp_path / "e.txt.json").read_text()) == report
    assert out.exists() and captured.err == f"verification failed: {failed}\n"


# -- the exit contract as a property ------------------------------------------

# the commands whose exit 1 reports a failed verification
VERIFYING = {"fourier-verify", "construct", "oracle-diff", "mpprp-check"}
# one argv per subcommand that exits 0 at --cap 100, in a directory that
# `_main_in_scratch` fills
GOOD_ARGVS = {
    "product": ["product", "--in", "points.txt", "--with", "points.txt"],
    "count": ["count", "--full-paraboloid", "7", "3"],
    "triangles": ["triangles", "--random-paraboloid", "7", "3", "13"],
    "fourier-verify": ["fourier-verify", "--pairs", "2:7"],
    "extension-ratio": ["extension-ratio", "--p", "7", "--trials", "3"],
    "construct": ["construct", "--kind", "lines", "--p", "13", "--lines", "2", "--per-line", "3"],
    "sweep": ["sweep", "--config", "config.json"],
    "oracle-diff": ["oracle-diff", "--instances", "2"],
    "mpprp-check": ["mpprp-check", "--p", "7", "--size", "10"],
}
INT_POOL = ["-1", "0", "1", "2", "3", "7", "13", str(2**63), str(10**30)]
FLOAT_POOL = ["nan", "inf", "-inf", "-1", "0", "0.5", "2"]
# the files `_main_in_scratch` writes (a point set, a malformed one, a sweep
# config), a missing path, and strings in and out of the list flags' forms
STRING_POOL = ["points.txt", "malformed.txt", "config.json", "missing/none.txt", "2:7", "7,11", "x", ""]
SUBCOMMANDS = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def _main_in_scratch(argv) -> tuple[int, str]:
    """(exit code, stderr) of cli.main(argv), run in a fresh directory that
    holds the files of STRING_POOL, so relative --out paths land there."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)
        enum_paraboloid(PrimeField(7), 3).save("points.txt")
        Path("malformed.txt").write_text("7 3 2\n1 2\n")
        Path("config.json").write_text(json.dumps(MINIMAL))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, err.getvalue()


def _values(action) -> st.SearchStrategy:
    """The value tokens of one flag, from the pool its type or choices pick."""
    if action.dest == "threads":
        pool = ["-1", "0", "1", "2"]
    elif action.choices is not None:
        pool = [*action.choices, "bogus"]
    else:
        pool = {int: INT_POOL, float: FLOAT_POOL}.get(action.type, STRING_POOL)
    count = action.nargs if isinstance(action.nargs, int) else 1
    return st.lists(st.sampled_from(pool), min_size=count, max_size=count)


@st.composite
def cli_argvs(draw):
    """(subcommand, argv) with flags drawn from the subparser's own actions,
    half of them added to its known-good argv, and a --cap of at most 100
    before or after the subcommand."""
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    flags = [a for a in SUBCOMMANDS[name]._actions if a.option_strings and a.dest not in ("help", "cap")]
    good = draw(st.booleans())
    argv = list(GOOD_ARGVS[name]) if good else [name]
    for action in draw(st.lists(st.sampled_from(flags), max_size=2 if good else 5)):
        argv += [draw(st.sampled_from(action.option_strings)), *draw(_values(action))]
    cap = ["--cap", str(draw(st.one_of(st.just(100), st.integers(-1, 100))))]
    return name, cap + argv if draw(st.booleans()) else argv + cap


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_cli_known_good_argv_exits_0(name):
    code, err = _main_in_scratch(["--cap", "100", *GOOD_ARGVS[name]])
    assert code == 0, err


@settings(max_examples=200, deadline=None)
@given(cli_argvs())
def test_cli_exit_contract(named_argv):
    """Whatever the flags: exit 0, 1 or 2, exit 1 only from a verifying
    command, exit 2 with one stderr line, and never a traceback."""
    name, argv = named_argv
    code, err = _main_in_scratch(argv)
    assert code in (0, 1, 2) and "Traceback" not in err
    assert code != 1 or name in VERIFYING
    assert code != 2 or err.count("\n") == 1

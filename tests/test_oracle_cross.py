import ast
from pathlib import Path

import pytest

from ffgeom import oracle
from ffgeom.constructions import isotropic_lines_set
from ffgeom.counting import profile
from ffgeom.field import PrimeField
from ffgeom.varieties import PointSet, enum_paraboloid, random_subset


def test_caps_enforced():
    f = PrimeField(7)
    big = enum_paraboloid(f, 3)  # 49 points
    with pytest.raises(oracle.OracleCapError):
        oracle.oracle_M(big)
    huge = random_subset(enum_paraboloid(PrimeField(11), 3), 61, seed=0)
    with pytest.raises(oracle.OracleCapError):
        oracle.oracle_D(huge)
    # 101^3 frequencies times 2 points: past CAP_FOURIER_WORK before any sum
    pair = PointSet.build(PrimeField(101), 3, [(0, 0, 0), (1, 1, 1)])
    assert 101**3 * 2 > oracle.CAP_FOURIER_WORK
    with pytest.raises(oracle.OracleCapError, match="fourier oracle work cap"):
        oracle.oracle_fourier(pair)


def test_oracle_trivial_values():
    f = PrimeField(7)
    single = PointSet.build(f, 3, [(1, 2, 5)])
    assert oracle.oracle_M(single) == 1
    assert oracle.oracle_D(single) == 1
    assert oracle.oracle_product(single) == {oracle.norm((1, 2, 5), 7)}


def test_dot_and_norm_examples():
    assert oracle.dot((1, 2, 3), (4, 5, 6), 7) == 4  # 32 mod 7
    assert oracle.norm((1, 2, 3), 7) == 0  # 14 mod 7, an isotropic vector
    assert oracle.norm((0, 0, 0), 7) == 0
    with pytest.raises(ValueError):
        oracle.dot((1, 2), (1, 2, 3), 7)


def test_D_star_paraboloid_check_is_exact_at_a_large_prime():
    # (p - 1, 1) lies on y = x^2; a norm taken in int64 would wrap
    p = 10**18 + 3
    assert oracle.oracle_D_star(PointSet.build(PrimeField(p), 2, [(p - 1, 1)])) == 0


def _ffgeom_imports(tree):
    """The names that a module's top-level statements take from ffgeom."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "ffgeom"):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names if alias.name.split(".")[0] == "ffgeom")


def test_tuples_stay_in_the_oracle():
    """Only oracle.py reads points as tuples (PointSet's own `points` and
    `__iter__` aside), and at module level it takes nothing from ffgeom but
    PrimeField and PointSet."""
    readers, borrowed = [], []
    for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = set()
        if path.name == "varieties.py":
            cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "PointSet")
            own = [n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name in ("points", "__iter__")]
            exempt = {id(node) for fn in own for node in ast.walk(fn)}
        if path.name != "oracle.py":
            readers += [
                f"{path.name}:{node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "points" and id(node) not in exempt
            ]
        else:
            borrowed = [name for name in _ffgeom_imports(tree) if name not in ("PrimeField", "PointSet")]
    assert not readers, readers
    assert not borrowed, borrowed


def test_battery_all_match():
    reports = oracle.run_battery(seed=0, instances=8)
    assert reports
    for rep in reports:
        assert rep.match, rep.line()


def test_report_lines_render():
    reports = oracle.run_battery(seed=1, instances=1)
    for rep in reports:
        assert rep.line().startswith("OK")


@pytest.mark.parametrize(
    "E",
    [
        isotropic_lines_set(PrimeField(13), 2, 4),
        random_subset(enum_paraboloid(PrimeField(5), 3), 12, seed=2),
    ],
    ids=["lines", "paraboloid"],
)
def test_oracle_degenerate_pairs_match_the_profile(E):
    # sets with pairs of distinct points at distance zero
    pairs = oracle.oracle_degenerate_pairs(E)
    assert pairs > len(E)
    assert pairs == profile(E).degenerate_pairs

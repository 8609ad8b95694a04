"""Stability and generation entries of the report, pinned against
independently computed decomposition rows (fixed-point counting for the
degree-1 slice, dense tensor traces for degree 2, the closed form of
``lie_character`` beyond, all fed through the character inner product) and
checked against the character route of ``helpers.stability_by_characters``."""

import ast
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import bruteforce
import lie_character
from helpers import (compose, generation_by_orbit, rank,
                     stability_by_characters, trace_character)
from derlie.cli import EXIT_OK, JobSpec, partition_from_str, run
from derlie.dermodel import Mode, derivation_basis, generation_flags, homology
from derlie.fistab import Injection, character, homology_map, sigma_action
from derlie.gradedlie import ModelSpec, lie_dim, validate_model
from derlie.ratlinalg import SparseMatrix
from derlie.reptheory import decompose, stability_report

F = Fraction

SPHERE_K1_ROWS = {
    1: {(): 1},
    2: {(): 3, (1,): 3},
    3: {(): 4, (1,): 6, (1, 1): 2},
    4: {(): 4, (1,): 7, (1, 1): 3, (2,): 3},
    5: {(): 4, (1,): 7, (1, 1): 3, (2,): 4, (2, 1): 1},
    6: {(): 4, (1,): 7, (1, 1): 3, (2,): 4, (2, 1): 1, (3,): 1},
    7: {(): 4, (1,): 7, (1, 1): 3, (2,): 4, (2, 1): 1, (3,): 1},
}

SPHERE_K2_ROWS = {
    1: {},
    2: {(): 2, (1,): 2},
    3: {(): 4, (1,): 8, (1, 1): 4},
    4: {(): 4, (1,): 11, (1, 1): 9, (1, 1, 1): 2, (2,): 7},
    5: {(): 4, (1,): 11, (1, 1): 10, (1, 1, 1): 3, (2,): 10, (2, 1): 6},
}

BOUNDARY_K1_ROWS = {
    1: {(): 4},
    2: {(): 10, (1,): 10},
    3: {(): 14, (1,): 18, (1, 1): 6},
    4: {(): 14, (1,): 22, (1, 1): 8, (2,): 8},
}


def _job(name, mode, ks, n_values, **flags):
    """The report of a decompose job on a bundled model."""
    report, code = run(JobSpec(model_path=name, mode=mode, k_values=ks,
                               n_values=tuple(n_values), decompose=True,
                               **flags))
    assert code == EXIT_OK
    return report


def _rows(report, k):
    """The padded rows of a report's degree-k cells, by arity."""
    return {c["n"]: {partition_from_str(s): m for s, m in c["padded"].items()}
            for c in report["cells"] if c["k"] == k}


def _checked_entry(report, model, mode, k, n_values):
    """The report's stability entry for k, after its cells' padded rows and
    dimensions are checked against the character route and the entry
    against the one built from that route's rows."""
    rows, dims = stability_by_characters(model, mode, k, n_values)
    assert _rows(report, k) == rows, k
    assert {c["n"]: c["dim"] for c in report["cells"] if c["k"] == k} == \
        dims, k
    [entry] = [e for e in report["stability"] if e["k"] == k]
    assert entry == stability_report(k, n_values, rows)
    return entry


def test_sphere_k1_rows_and_verdict(sphere2):
    report = _job("sphere2", Mode.POINTED, (1,), range(1, 6))
    entry = _checked_entry(report, sphere2, Mode.POINTED, 1, range(1, 6))
    assert _rows(report, 1) == {n: SPHERE_K1_ROWS[n] for n in range(1, 6)}
    assert [c["dim"] for c in report["cells"]] == \
        [n * n * (n + 1) // 2 for n in range(1, 6)]
    # rows 4 and 5 genuinely differ, so no two-row terminal window exists
    assert entry["stabilized_at"] is None
    assert entry["verdict"] == "not stabilized in range"


def test_sphere_k1_weight_bound(sphere2):
    # a degree-1 derivation touches at most 3 summand slots
    report = _job("sphere2", Mode.POINTED, (1,), range(1, 6))
    for row in _rows(report, 1).values():
        for name, mult in row.items():
            if mult:
                assert sum(name) <= 3


def test_sphere_k1_stabilizes_at_six(sphere2):
    report = _job("sphere2", Mode.POINTED, (1,), range(1, 8))
    entry = _checked_entry(report, sphere2, Mode.POINTED, 1, range(1, 8))
    assert _rows(report, 1)[6] == SPHERE_K1_ROWS[6]
    assert _rows(report, 1)[7] == SPHERE_K1_ROWS[7]
    assert entry == {"k": 1, "stabilized_at": 6,
                     "verdict": "stabilized within range at n0=6 "
                                "(window 6..7)"}


def test_sphere_k2_rows(sphere2):
    report = _job("sphere2", Mode.POINTED, (1, 2), range(1, 6))
    entry = _checked_entry(report, sphere2, Mode.POINTED, 2, range(1, 6))
    assert _rows(report, 2) == {n: SPHERE_K2_ROWS[n] for n in range(1, 6)}
    assert entry["stabilized_at"] is None


def test_sphere_generation_flags(sphere2):
    assert generation_flags(sphere2, Mode.POINTED, 1, range(1, 6)) == {
        1: False, 2: False, 3: False, 4: True, 5: True}
    assert generation_flags(sphere2, Mode.POINTED, 2, range(1, 6)) == {
        1: False, 2: False, 3: False, 4: False, 5: True}


@pytest.mark.parametrize("name,mode,k", [
    ("product_model", Mode.POINTED, 1), ("product_model", Mode.POINTED, 2),
    ("s2xs2", Mode.BOUNDARY, 1)])
def test_generation_flags_match_the_full_orbit_span(request, name, mode, k):
    # brute force: span sigma . image over every sigma in Sigma_m, where
    # generation_by_orbit grows the orbit from two generators of Sigma_m
    model = request.getfixturevalue(name)
    expected = {1: False}
    for m in range(2, 5):
        dim = homology(model, m, k, mode).dim
        image = homology_map(Injection.standard(m - 1, m), model, k, mode)
        orbit = [col for sigma in permutations(range(m))
                 for col in compose(sigma_action(sigma, model, k, mode),
                                    image).columns()]
        expected[m] = rank(SparseMatrix.from_rows(orbit, dim)) == dim
    assert generation_flags(model, mode, k, range(1, 5)) == expected
    assert generation_by_orbit(model, mode, k, range(1, 5)) == expected


@pytest.mark.parametrize("name,mode,ks,n_max", [
    ("product_model", Mode.POINTED, (1, 2), 4),
    ("s2xs2", Mode.BOUNDARY, (1, 2), 4),
    ("cp3", Mode.POINTED, (1, 2), 4),
    ("sphere2", Mode.POINTED, (1, 2, 3), 5),
    ("cp3", Mode.BOUNDARY, (1, 2), 4),
    ("s3xs3", Mode.BOUNDARY, (1, 2), 4)])
def test_generation_flags_match_the_empty_blocks(request, name, mode, ks,
                                                 n_max):
    # the injections [m-1] -> [m] reach exactly the blocks S != [m], so the
    # flags read from the blocks equal the orbit span on the full cells
    model = request.getfixturevalue(name)
    for k in ks:
        n_range = range(1, n_max + 1)
        assert generation_flags(model, mode, k, n_range) == \
            generation_by_orbit(model, mode, k, n_range), k


def _generation(report):
    """The report's generation flags, with int arities."""
    [check] = [c for c in report["checks"] if c["name"] == "generation"]
    return {k: {int(n): v for n, v in table.items()}
            for k, table in check["flags"].items()}


def test_boundary_report(s2xs2):
    report = _job("s2xs2", Mode.BOUNDARY, (1,), range(1, 5),
                  check_generation=True)
    entry = _checked_entry(report, s2xs2, Mode.BOUNDARY, 1, range(1, 5))
    assert _rows(report, 1) == BOUNDARY_K1_ROWS
    assert [c["dim"] for c in report["cells"]] == [4, 20, 56, 120]
    assert entry["stabilized_at"] is None
    assert _generation(report) == {
        "k=1": {1: False, 2: False, 3: False, 4: True}}


def test_zero_homology_stabilizes_at_minimum(sphere3):
    # every slice in odd homological degree vanishes for one even generator
    report = _job("sphere3", Mode.POINTED, (1,), range(1, 4),
                  check_generation=True)
    entry = _checked_entry(report, sphere3, Mode.POINTED, 1, range(1, 4))
    assert all(c["dim"] == 0 for c in report["cells"])
    assert entry["stabilized_at"] == 1
    assert _generation(report) == {"k=1": {1: False, 2: True, 3: True}}


def test_report_requires_nonempty_range():
    with pytest.raises(ValueError):
        stability_report(1, (), {})


@pytest.mark.parametrize("degrees,n,up_to", [
    ((1,), 3, 5), ((1, 1), 2, 4), ((2,), 3, 6), ((1, 2), 2, 5),
    ((2, 2, 5), 1, 8), ((3,), 2, 8)])
def test_closed_form_lie_traces_at_identity_match_bruteforce(degrees, n,
                                                             up_to):
    ctx = bruteforce.TensorContext(list(degrees) * n, up_to)
    for m in range(1, up_to + 1):
        assert lie_character.lie_trace(degrees, (1,) * n, m) == \
            ctx.lie_dim(m), m


@pytest.mark.parametrize("name,mode,n_max", [
    ("sphere2", Mode.POINTED, 8), ("sphere3", Mode.POINTED, 8),
    ("sphere4", Mode.POINTED, 8), ("s2xs2", Mode.POINTED, 5),
    ("cp2", Mode.POINTED, 6), ("s2xs2", Mode.BOUNDARY, 5),
    ("s3xs3", Mode.BOUNDARY, 5), ("cp2", Mode.BOUNDARY, 6)])
def test_engine_characters_match_closed_form(request, name, mode, n_max):
    model = request.getfixturevalue(name)
    degrees = [d for _, d in model.generators]
    for k in (1, 2):
        omega_degree = model.ambient_dim - 2 + k \
            if mode is Mode.BOUNDARY else None
        for n in range(1, n_max + 1):
            # the block actions check the engine's closed form; the oracle
            # rests on the same theorem as dermodel.der_trace
            chi = character(model, n, k, mode)
            assert trace_character(model, n, k, mode) == chi, (n, k)
            assert chi == lie_character.character(degrees, n, k,
                                                  omega_degree), (n, k)


def _imports(path):
    """The dotted names of the modules a file imports, at any depth; a
    relative import counts by the names after its dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = f"{node.module}." if node.module else ""
            names |= {base + alias.name for alias in node.names}
            names |= {node.module} - {None}
    return names


def test_oracles_and_engine_do_not_import_each_other():
    tests = Path(__file__).parent
    for oracle in ("bruteforce.py", "lie_character.py"):
        # the standard library only, so no route reaches derlie
        outside = {name for name in _imports(tests / oracle)
                   if name.split(".")[0] not in sys.stdlib_module_names}
        assert not outside, (oracle, outside)
    test_modules = {path.stem for path in tests.glob("*.py")} | {"tests"}
    for path in (tests.parent / "src" / "derlie").glob("*.py"):
        reached = {part for name in _imports(path)
                   for part in name.split(".")} & test_modules
        assert not reached, (path.name, reached)


def test_sphere_k3_stabilizes_at_nine():
    report, code = run(JobSpec(model_path="sphere2", mode=Mode.POINTED,
                               k_values=(3,), n_values=tuple(range(1, 11)),
                               decompose=True, max_dim=25000))
    assert code == EXIT_OK
    for cell in report["cells"]:
        n = cell["n"]
        oracle = decompose(lie_character.character((1,), n, 3))
        rows = {partition_from_str(s): m for s, m in cell["padded"].items()}
        assert rows == {lam[1:]: m for lam, m in oracle.items()}, n
    assert report["stability"][0]["stabilized_at"] == 9


def test_sphere_k4_stabilizes_at_eleven():
    # the slice at n = 12 has 597,168 elements; no block above arity 6 is
    # built, since a coordinate (x -> e) of degree 4 uses at most 6 summands
    report, code = run(JobSpec(model_path="sphere2", mode=Mode.POINTED,
                               k_values=(4,), n_values=tuple(range(1, 13)),
                               decompose=True, max_dim=1000000))
    assert code == EXIT_OK
    for cell in report["cells"][-2:]:
        n = cell["n"]
        oracle = decompose(lie_character.character((1,), n, 4))
        rows = {partition_from_str(s): m for s, m in cell["padded"].items()}
        assert rows == {lam[1:]: m for lam, m in oracle.items()}, n
    assert report["stability"][0]["stabilized_at"] == 11


@st.composite
def zero_differential_models(draw):
    """Generator degrees (1 to 3 generators of degree 1 to 3), and where the
    degrees allow one a random nondegenerate pairing as a full matrix with
    its ambient dimension d.  <a,b> needs |a| + |b| = d - 2 and obeys
    <a,b> = -(-1)^{|a||b|} <b,a>, so <a,a> = 0 when |a| is even."""
    degrees = sorted(draw(st.lists(st.integers(1, 3), min_size=1,
                                   max_size=3)))
    m = len(degrees)

    def allowed(t, i, j):
        return degrees[i] + degrees[j] == t and (i != j or degrees[i] % 2)

    tops = [t for t in sorted({a + b for a in degrees for b in degrees})
            if all(any(allowed(t, i, j) for j in range(m))
                   for i in range(m))]
    if not tops or not draw(st.booleans()):
        return degrees, None, None
    t = draw(st.sampled_from(tops))
    matrix = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            if allowed(t, i, j):
                c = draw(st.sampled_from([-2, -1, 1, 2]))
                odd = degrees[i] * degrees[j] % 2
                matrix[i][j], matrix[j][i] = c, c if odd else -c
    assume(bruteforce.dense_rank([[F(c) for c in row]
                                  for row in matrix]) == m)
    return degrees, matrix, t + 2


def _word_count(letter_degrees, degree):
    counts = [1] + [0] * degree
    for d in range(1, degree + 1):
        counts[d] = sum(counts[d - e] for e in letter_degrees if e <= d)
    return counts[degree]


@given(zero_differential_models(), st.data())
@settings(max_examples=60, deadline=None)
def test_random_zero_differential_models_match_both_oracles(model_data,
                                                           data):
    # at most 6 letters, so that every slice stays small; the dense oracle
    # runs where its largest word space has at most 300 words
    degrees, matrix, d = model_data
    n = data.draw(st.integers(1, min(3, 6 // len(degrees))))
    names = [f"g{i}" for i in range(len(degrees))]
    pairing = [(names[i], names[j], F(matrix[i][j]))
               for i in range(len(degrees)) for j in range(i, len(degrees))
               if matrix and matrix[i][j]]
    model = ModelSpec("random", list(zip(names, degrees)), pairing=pairing,
                      ambient_dim=d)
    assert validate_model(model) == []
    brute_model = bruteforce.BruteModel(
        degrees, pairing=matrix and [[F(c) for c in row] for row in matrix],
        ambient_dim=d)
    modes = [Mode.POINTED] + ([Mode.BOUNDARY] if matrix else [])
    for mode in modes:
        for k in (1, 2):
            omega_degree = d - 2 + k if mode is Mode.BOUNDARY else None
            oracle = lie_character.character(degrees, n, k, omega_degree)
            assert character(model, n, k, mode) == oracle, (mode, k)
            dim = homology(model, n, k, mode).dim
            assert dim == oracle[(1,) * n], (mode, k)
            top = max(degrees) + k if omega_degree is None else omega_degree
            if mode is Mode.BOUNDARY:
                sl = derivation_basis(model, n, k, mode)
                assert sl.basis.dim == sl.dim == \
                    sl.pointed_dim - lie_dim(sl.genset, omega_degree), k
            if _word_count(degrees * n, top) <= 300:
                brute = bruteforce.BruteComplex(brute_model, n, top)
                assert dim == (brute.slice_dim(k) if omega_degree is None
                               else brute.boundary_slice_dim(k)), (mode, k)

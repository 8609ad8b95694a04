"""Acceptance suite: one test per criterion, printing one PASS/FAIL line
each.

Every derived numeric target is reproduced by the independent brute-force
oracle (dense exact linear algebra on raw tensor words, tests/bruteforce.py)
before the engine is held to it.  Run with ``pytest tests/test_acceptance.py
-v`` (add ``-s`` to see the verdict lines on passing criteria too).

Criterion 7 is asserted exactly as specified and fails: the padded
decomposition rows of the degree-1 and degree-2 homology of the wedge model
are still changing between n = 4 and n = 5, so no two-row terminal window
of the range n <= 5 is constant.  The computed rows themselves are verified
against an independent character computation below; stabilization for k = 1
genuinely happens at n = 6 (see tests/test_stability.py).  Details are in
the project notes.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

import bruteforce
from helpers import (bracket, compose, compose_injections, generation_by_orbit,
                     generator_element, induced_slice_map,
                     stability_by_characters)
from derlie.cli import JobSpec, partition_from_str, run
from derlie.cli import main as cli_main
from derlie.dermodel import Mode, derivation_basis, homology
from derlie.fistab import (
    Injection,
    character,
    consistency_check,
    cycle_type_representative,
    sigma_action,
)
from derlie.gradedlie import (
    apply_differential,
    free_product_generators,
    lie_dim,
    omega,
    pbw_series_check,
    relabel_element,
)
from derlie.cli import load_model
from derlie.reptheory import (
    class_size,
    decompose,
    irr_character,
    irr_dim,
    partitions,
    stability_report,
    z_order,
)

F = Fraction

BUNDLED = ["sphere2", "sphere3", "sphere4", "s2xs2", "s3xs3",
           "s3xs3-product", "cp2"]


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {status}{suffix}")
    return ok


def test_criterion_1_sphere_pointed_pipeline():
    start = time.monotonic()
    model = load_model("sphere2")
    # oracle first: dense tensor-coordinate chain computation
    brute = bruteforce.BruteComplex(bruteforce.sphere2_model(), 1, 6)
    oracle = [brute.pointed_homology_dim(k) for k in (1, 2, 3)]
    assert oracle == [1, 0, 0]  # pi_{k+2}(S^2) x Q: Q, 0, 0
    engine = [homology(model, 1, k, Mode.POINTED).dim
              for k in (1, 2, 3)]
    elapsed = time.monotonic() - start
    ok = engine == oracle == [1, 0, 0] and elapsed < 1.0
    assert _verdict(1, "sphere pointed pipeline", ok,
                    f"dims {engine}, {elapsed:.2f}s")


def test_criterion_2_wedge_growth():
    start = time.monotonic()
    model = load_model("sphere2")
    ok = True
    for n in range(1, 6):
        expected = n * (n * (n + 1) // 2)
        brute = bruteforce.BruteComplex(bruteforce.sphere2_model(), n, 3)
        assert brute.pointed_homology_dim(1) == expected
        got = homology(model, n, 1, Mode.POINTED).dim
        ok = ok and got == expected
    assert homology(model, 2, 1, Mode.POINTED).dim == 6
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    assert _verdict(2, "wedge growth", ok, f"{elapsed:.2f}s")


def test_criterion_3_super_pbw_identity():
    start = time.monotonic()
    ok = True
    for name in BUNDLED:
        model = load_model(name)
        for n in range(1, 5):
            genset = free_product_generators(model, n)
            ok = ok and pbw_series_check(genset, 8) is None
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    assert _verdict(3, "super-PBW identity", ok, f"{elapsed:.2f}s")


def test_criterion_4_boundary_pipeline():
    start = time.monotonic()
    model = load_model("s2xs2")
    genset1 = free_product_generators(model, 1)
    # oracle first: omega in raw tensor coordinates and the brute kernel
    brute = bruteforce.BruteComplex(bruteforce.s2xs2_model(), 1, 4)
    vec = brute.omega_vector()
    words = brute.ctx.spaces[2].words
    oracle_omega = {words[i]: c for i, c in enumerate(vec) if c != 0}
    assert brute.boundary_slice_dim(1) == 4
    w1 = omega(model, 1)
    expected = bracket(genset1, generator_element(genset1, 0),
                       generator_element(genset1, 1))
    ok = w1 == expected  # omega_1 = [a, b] after sign normalization
    ok = ok and genset1.to_tensor(w1) == oracle_omega
    for n in range(1, 5):
        wn = omega(model, n)
        gs = free_product_generators(model, n)
        ok = ok and apply_differential(gs, wn) == {}
        for sigma in itertools.permutations(range(n)):
            mapping = dict(enumerate(sigma))
            ok = ok and relabel_element(gs, gs, mapping, wn) == wn
    ok = ok and homology(model, 1, 1, Mode.BOUNDARY).dim == 4
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    assert _verdict(4, "boundary pipeline", ok, f"{elapsed:.2f}s")


def _all_injections(n, m):
    return [Injection(n, m, image)
            for image in itertools.permutations(range(m), n)]


def test_criterion_5_fi_structure():
    start = time.monotonic()
    sphere = load_model("sphere2")
    paired = load_model("s2xs2")
    ok = True
    # functoriality, exhaustive for all composable pairs within size <= 3
    for model, mode in [(sphere, Mode.POINTED), (paired, Mode.BOUNDARY)]:
        for n in (1, 2, 3):
            for m in range(n, 4):
                for p in range(m, 4):
                    for i in _all_injections(n, m):
                        for j in _all_injections(m, p):
                            lhs = compose(
                                induced_slice_map(j, model, 1, mode),
                                induced_slice_map(i, model, 1, mode))
                            rhs = induced_slice_map(
                                compose_injections(j, i), model, 1, mode)
                            ok = ok and lhs == rhs
        ident = Injection.standard(2, 2)
        mat = induced_slice_map(ident, model, 1, mode)
        dim = derivation_basis(model, 2, 1, mode).dim
        ok = ok and all(mat.entry(i, i) == 1 for i in range(dim))
    # sampled at size 4
    rng = random.Random(20260809)
    inj34 = _all_injections(3, 4)
    inj23 = _all_injections(2, 3)
    for _ in range(5):
        j = rng.choice(inj34)
        i = rng.choice(inj23)
        lhs = compose(induced_slice_map(j, sphere, 1),
                      induced_slice_map(i, sphere, 1))
        ok = ok and lhs == induced_slice_map(compose_injections(j, i),
                                             sphere, 1)
    # equivariance: sigma o i at the matrix level, size <= 3
    for sigma in itertools.permutations(range(3)):
        s = Injection.from_permutation(sigma)
        for i in _all_injections(2, 3):
            lhs = compose(induced_slice_map(s, sphere, 1),
                          induced_slice_map(i, sphere, 1))
            ok = ok and lhs == induced_slice_map(compose_injections(s, i),
                                                 sphere, 1)
    # consistency lemma on the full grid m <= 4, k <= 2, both modes
    for model, mode in [(sphere, Mode.POINTED), (paired, Mode.BOUNDARY)]:
        for m in range(2, 5):
            for n in range(1, m):
                for k in (1, 2):
                    ok = ok and consistency_check(model, n, m, k, mode)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    assert _verdict(5, "FI structure", ok, f"{elapsed:.2f}s")


def test_criterion_6_representation_theory():
    start = time.monotonic()
    ok = True
    for n in range(1, 8):
        parts = partitions(n)
        for i, lam in enumerate(parts):
            for rho in parts[i:]:
                inner = sum(F(irr_character(lam, mu) *
                             irr_character(rho, mu), z_order(mu))
                            for mu in parts)
                ok = ok and inner == (1 if lam == rho else 0)
        ok = ok and sum(irr_dim(lam) ** 2 for lam in parts) == \
            sum(class_size(mu) for mu in parts)
    # every computed homology cell decomposes integrally
    sphere = load_model("sphere2")
    paired = load_model("s2xs2")
    product = load_model("s3xs3-product")
    grid = [(sphere, Mode.POINTED, 4, 2), (paired, Mode.BOUNDARY, 3, 2),
            (product, Mode.POINTED, 2, 2)]
    for model, mode, n_max, k_max in grid:
        for n in range(1, n_max + 1):
            for k in range(1, k_max + 1):
                chi = character(model, n, k, mode)
                dec = decompose(chi)  # raises on any bad multiplicity
                ok = ok and sum(m * irr_dim(lam) for lam, m in dec.items()) \
                    == homology(model, n, k, mode).dim
    elapsed = time.monotonic() - start
    assert _verdict(6, "representation theory", ok, f"{elapsed:.2f}s")


def _oracle_sphere_character(n: int, k: int) -> dict:
    """Characters of the wedge-model homology computed without the engine:
    fixed-point counting in degree 1, dense tensor traces in degree 2."""
    values = {}
    ctx = bruteforce.TensorContext([1] * n, 3) if k == 2 else None
    for mu in partitions(n):
        f1 = sum(1 for p in mu if p == 1)
        if k == 1:
            t2 = sum(1 for p in mu if p == 2)
            values[mu] = F(f1 * (f1 + f1 * (f1 - 1) // 2 + t2))
            continue
        if f1 == 0:
            values[mu] = F(0)
            continue
        sigma = cycle_type_representative(mu)
        rows, pivots = ctx.lie_slice(3)
        space = ctx.spaces[3]
        trace = F(0)
        for bi, b in enumerate(rows):
            img = space.zero()
            for wi, c in enumerate(b):
                if c != 0:
                    w = tuple(sigma[x] for x in space.words[wi])
                    img[space.index[w]] += c
            trace += bruteforce.express_in(rows, pivots, img)[bi]
        values[mu] = f1 * trace
    return values


def _cli_job(model_name, mode, ks, n_values, **flags):
    """The report of a job run as the CLI runs it."""
    report, code = run(JobSpec(model_path=model_name, mode=mode,
                               k_values=ks, n_values=tuple(n_values),
                               **flags))
    assert code == 0
    return report


def test_criterion_7_stability_evidence():
    start = time.monotonic()
    model = load_model("sphere2")
    report = _cli_job("sphere2", Mode.POINTED, (1, 2), range(1, 6),
                      decompose=True)
    entries = {e["k"]: e for e in report["stability"]}
    for k in (1, 2):
        # oracle first: rows recomputed from independent characters, then
        # the report's own rows and entry against them
        oracle_rows = {n: {lam[1:]: m for lam, m in
                           decompose(_oracle_sphere_character(n, k)).items()}
                       for n in range(1, 6)}
        assert stability_by_characters(model, Mode.POINTED, k,
                                       range(1, 6))[0] == oracle_rows, k
        for cell in (c for c in report["cells"] if c["k"] == k):
            assert {partition_from_str(s): m for s, m in
                    cell["padded"].items()} == oracle_rows[cell["n"]], k
        assert entries[k] == stability_report(k, range(1, 6), oracle_rows)
    elapsed = time.monotonic() - start
    stabilized = all(entries[k]["stabilized_at"] is not None for k in (1, 2))
    _verdict(7, "stability evidence", stabilized and elapsed < 600.0,
             f"k=1 {entries[1]['verdict']}; "
             f"k=2 {entries[2]['verdict']}; {elapsed:.2f}s")
    assert stabilized and elapsed < 600.0, (
        "criterion as specified requires the verdict 'stabilized within "
        "range' for n <= 5, but the oracle-confirmed padded rows at n = 4 "
        "and n = 5 differ (for k=1 the multiplicity of (2) grows 3 -> 4 "
        "and (2,1) appears at n = 5); true stabilization for k = 1 occurs "
        "at n = 6, outside the mandated range.  See the decisions ledger.")


def test_criterion_8_generation_evidence():
    start = time.monotonic()
    report = _cli_job("s2xs2", Mode.BOUNDARY, (1,), range(1, 5),
                      check_generation=True)
    [check] = [c for c in report["checks"] if c["name"] == "generation"]
    flags = {int(n): v for n, v in check["flags"]["k=1"].items()}
    assert flags == {1: False, 2: False, 3: False, 4: True}
    assert flags == generation_by_orbit(load_model("s2xs2"), Mode.BOUNDARY,
                                        1, range(1, 5))
    # observed onset: true for every arity above m0 = 3 within the range
    m0 = 3
    above = [m for m in flags if m > m0]
    ok = bool(above) and all(flags[m] for m in above)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 600.0
    assert _verdict(8, "generation evidence", ok,
                    f"flags {flags}, observed m0={m0}, {elapsed:.2f}s")


def test_criterion_9_determinism(tmp_path):
    start = time.monotonic()
    cache = tmp_path / "cache"
    outputs = []
    base = ["compute", "--model", "s2xs2", "--mode", "boundary",
            "--k", "1", "--n", "1..2", "--decompose",
            "--check-consistency", "--format", "json",
            "--cache-dir", str(cache)]
    for tag, extra in [("cold", ["--workers", "1"]),
                       ("warm", ["--workers", "1"]),
                       ("parallel", ["--workers", "3"])]:
        out = tmp_path / f"{tag}.json"
        code = cli_main(base + extra + ["--output", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    payload = json.loads(outputs[0].decode())
    ok = ok and payload["status"] == "ok"
    elapsed = time.monotonic() - start
    assert _verdict(9, "determinism", ok, f"{elapsed:.2f}s")

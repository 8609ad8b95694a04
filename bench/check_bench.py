"""Self-test of the benchmark.  From the repository root:

    python3 -m pytest -q bench/check_bench.py

The plain ``pytest`` run does not collect this file (its name does not
match ``test_*.py``) because it spawns benchmark jobs for a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for entry in (BENCH, ROOT / "src", ROOT / "tests"):
    sys.path.insert(0, str(entry))

import bruteforce  # noqa: E402  the independent dense oracle
import run  # noqa: E402
from tracer import Tracer, TracerError, TARGETS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def _golden(name):
    return json.loads((run.GOLDENS / f"{run.WORKLOADS[name].golden}.json")
                      .read_text("utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


# ---- goldens against the oracle ------------------------------------------------

# (oracle model, mode, highest tensor degree the oracle needs for degree k)
ORACLE = {
    "character-pointed": (bruteforce.sphere2_model, "pointed",
                          lambda k: 1 + k + 1),
    "boundary-lie": (bruteforce.s2xs2_model, "boundary", lambda k: 2 + k + 1),
    "dg-pointed": (bruteforce.product_model, "pointed", lambda k: 5 + k + 1),
}


@pytest.mark.parametrize("name", sorted(ORACLE))
def test_golden_dimensions_match_oracle(name):
    model, mode, top = ORACLE[name]
    small = [c for c in _golden(name)["cells"] if c["n"] <= 3]
    assert small
    for cell in small:
        brute = bruteforce.BruteComplex(model(), cell["n"], top(cell["k"]))
        expected = (brute.pointed_homology_dim(cell["k"]) if mode == "pointed"
                    else brute.boundary_homology_dim(cell["k"]))
        assert cell["dim"] == expected, cell


def _cycle_type_permutation(parts, n):
    sigma, start = list(range(n)), 0
    for part in parts:
        for i in range(part):
            sigma[start + i] = start + (i + 1) % part
        start += part
    return sigma


def _oracle_wedge_character(n, k, parts):
    """Trace of a permutation of cycle type `parts` on H_k of the wedge of
    n two-spheres (zero differential, so H_k = Hom(V, L_{k+1})): fixed
    generators times the trace on the Lie slice, from raw tensor words."""
    sigma = _cycle_type_permutation(parts, n)
    ctx = bruteforce.TensorContext([1] * n, k + 1)
    rows, pivots = ctx.lie_slice(k + 1)
    space = ctx.spaces[k + 1]
    trace = Fraction(0)
    for bi, row in enumerate(rows):
        image = space.zero()
        for wi, c in enumerate(row):
            if c != 0:
                word = tuple(sigma[x] for x in space.words[wi])
                image[space.index[word]] += c
        trace += bruteforce.express_in(rows, pivots, image)[bi]
    fixed = sum(1 for i in range(n) if sigma[i] == i)
    return fixed * trace


def test_golden_characters_match_oracle():
    cells = [c for c in _golden("character-pointed")["cells"] if c["n"] <= 3]
    assert cells
    for cell in cells:
        for key, value in cell["character"].items():
            parts = [int(p) for p in key.strip("()").split(",")]
            assert Fraction(value) == _oracle_wedge_character(
                cell["n"], cell["k"], parts), (cell["n"], cell["k"], key)


def test_warm_replay_shares_the_cold_golden():
    assert run.WORKLOADS["warm-replay"].args == \
        run.WORKLOADS["character-pointed"].args
    assert _golden("warm-replay") == _golden("character-pointed")


def test_report_check_rejects_a_changed_cell(tmp_path):
    golden = _golden("boundary-lie")
    report = json.loads(json.dumps(golden))
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert run.check_report(path, golden) == ""
    report["cells"][0]["dim"] += 1
    path.write_text(json.dumps(report))
    assert "cells" in run.check_report(path, golden)


# ---- exact counts ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_profile_counts_repeat_exactly(name):
    runner = run.Runner(name, 5)
    try:
        if runner.workload.cache == "warm":
            runner.prime()
        first, second = runner.job("profile"), runner.job("profile")
    finally:
        runner.close()
    assert not first.problem and not second.problem
    assert first.output["fraction_new_calls"] > 0
    assert first.output == second.output


# ---- tracer ------------------------------------------------------------------------


def _originals():
    import derlie.cli
    import derlie.fistab
    return derlie.cli.homology, derlie.fistab.homology, \
        derlie.dermodel.homology


def test_tracer_refuses_a_missing_name():
    before = _originals()
    bogus = TARGETS + (("fistab", "no_such_layer", "fistab.none", None),)
    with pytest.raises(TracerError, match="no_such_layer"):
        Tracer().install(bogus)
    assert _originals() == before


def test_tracer_refuses_a_reference_it_cannot_rebind():
    before = _originals()
    probe = types.ModuleType("derlie._probe")
    probe.TABLE = {"homology": before[2]}
    sys.modules[probe.__name__] = probe
    try:
        with pytest.raises(TracerError, match="derlie._probe.TABLE"):
            Tracer().install()
    finally:
        del sys.modules[probe.__name__]
    assert _originals() == before


def test_tracer_rebinds_every_importer_and_records_spans():
    from derlie import cli, dermodel, fistab, ratlinalg
    before = _originals()
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.homology is fistab.homology is dermodel.homology
        assert dermodel.homology.__wrapped__ is before[2]
        assert ratlinalg.SpanSolver.add.__wrapped__ is not None
        fistab.character(cli.load_model("sphere2"), 2, 1)
    finally:
        tracer.uninstall()
    assert _originals() == before
    names = {span[0] for span in tracer.spans}
    assert {"fistab.character", "fistab.sigma_action",
            "fistab.homology_map", "dermodel.homology"} <= names


def test_layer_metrics_subtract_child_spans():
    spans = [
        ["cli.run", 0.0, 10.0, -1],
        ["reptheory.stability_report", 1.0, 9.0, 0],
        ["fistab.character", 1.0, 8.0, 1],
        ["fistab.sigma_action", 1.0, 6.0, 2],
        ["fistab.homology_map", 1.0, 5.0, 3],
        ["fistab.sigma_action", 6.0, 6.5, 2],
    ]
    m = run.layer_metrics({"spans": spans, "counts": {}})
    assert m["cli.run.self_s"] == pytest.approx(2.0)
    assert m["fistab.homology_map.self_s"] == pytest.approx(4.0)
    assert m["fistab.character.s"] == pytest.approx(7.0)
    assert m["fistab.action_hit_ratio"] == pytest.approx(0.5)
    assert m["reptheory.stability_report.character_calls"] == 1
    assert m["gradedlie.omega.self_s"] == 0.0


# ---- isolation -------------------------------------------------------------------


@pytest.mark.parametrize("name", ["character-pointed", "warm-replay"])
def test_each_job_gets_a_new_process_and_its_own_cache(name):
    outcome = run.run_benchmark(name, seed=7, seconds=1, trace=False)
    jobs = outcome["jobs"]
    pids = [j.pid for j in jobs]
    assert len(set(pids)) == len(pids) and os.getpid() not in pids
    cells = len(_golden(name)["cells"])
    for job in jobs:
        assert Path(job.cache_dir).is_relative_to(run.WORK)
        assert not Path(job.cache_dir).exists()
    if name == "character-pointed":
        assert len({j.cache_dir for j in jobs}) == len(jobs)
        assert all(j.cache_before == 0 and j.cache_after == cells
                   for j in jobs)
    else:
        primer, *timed = jobs
        assert primer.cache_before == 0 and primer.cache_after == cells
        assert all(j.cache_before == j.cache_after == cells for j in timed)
    assert not run.WORK.exists() or not any(run.WORK.iterdir())
    assert outcome["result"]["correct"]


# ---- the command's output ----------------------------------------------------------


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    return result


def test_untraced_run_prints_every_end_to_end_metric():
    result = _result(_bench("--workload", "boundary-lie", "--seed", "3",
                            "--seconds", "1", "--trace", "0"))
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name,dominant", [
    ("character-pointed", "fistab.homology_map.self_s"),
    ("dg-pointed", "dermodel.differential_matrix.self_s"),
])
def test_traced_run_shows_the_dominant_layer(name, dominant):
    result = _result(_bench("--workload", name, "--seed", "4",
                            "--seconds", "1", "--trace", "1"))
    metrics = result["metrics"]
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics)
    self_times = {k: v["value"] for k, v in metrics.items()
                  if k.endswith(".self_s")}
    assert max(self_times, key=self_times.get) == dominant


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "boundary-lie", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

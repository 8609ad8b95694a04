"""derlie benchmark: fixed `derlie compute` jobs on bundled models, one job
per fresh interpreter, each report checked against a golden.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
prints the per-layer split from a separate traced run.  The last line of
standard output is one JSON object (correct, attempted, failed, metrics).
The workloads, metrics and procedure are described in bench/README.md.

Every job runs in its own process because derlie memoizes slices, matrices,
homology and actions in process-global dicts: a second job in the same
process would only measure cache hits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDENS = BENCH / "goldens"
# Scratch space for reports, traces and cache dirs; removed after each run.
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 7      # set-up spawns per run; setup_s is their median
MIN_JOBS = 3           # timed jobs per run, even when one outlasts --seconds
MIN_TRACED_JOBS = 4    # traced runs alternate untraced and traced jobs
STOP_STARTING_S = 100  # no new job after this, so a run ends within 180 s
JOB_TIMEOUT_S = 150
EXIT_TRACER = 70       # job.py: the tracer cannot see every layer call
# One reference second is this many units of job.py's calibration loop,
# about one CPU second of an uncontended core of the development host.
REFERENCE_UNITS_PER_S = 1000.0


@dataclass(frozen=True)
class Workload:
    model: str
    args: tuple[str, ...]
    golden: str
    cache: str  # "none", "cold" (fresh empty dir per job) or "warm"


_CHARACTER_JOB = ("--model", "sphere2", "--mode", "pointed", "--k", "1..2",
                  "--n", "1..5", "--decompose")

# Why each workload exists is recorded in bench/README.md.
WORKLOADS = {
    "character-pointed": Workload("sphere2", _CHARACTER_JOB,
                                  "character-pointed", "cold"),
    "boundary-lie": Workload("s2xs2", ("--model", "s2xs2", "--mode",
                                       "boundary", "--k", "1", "--n", "1..5"),
                             "boundary-lie", "none"),
    "dg-pointed": Workload("s3xs3-product",
                           ("--model", "s3xs3-product", "--mode", "pointed",
                            "--k", "1..2", "--n", "1..4"),
                           "dg-pointed", "none"),
    "warm-replay": Workload("sphere2", _CHARACTER_JOB, "character-pointed",
                            "warm"),
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


# ---- processes -------------------------------------------------------------------


@dataclass
class Job:
    kind: str           # "run", "trace", "profile" or "setup"
    pid: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    ref_s: float = 0.0  # cpu_s at reference speed, when calibrated
    rss_mb: float = 0.0
    exit_code: int = 0
    problem: str = ""   # empty when the job's output was correct
    cache_dir: str = ""
    cache_before: int = 0
    cache_after: int = 0
    output: dict = field(default_factory=dict)


def _spawn(job: Job, argv: list[str], log: Path, env: dict) -> None:
    """Run job.py in a new interpreter and fill in wall time (spawn to
    exit), CPU time and peak RSS of that process alone."""
    with open(log, "wb") as sink:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "job.py"), *argv],
                                stdin=subprocess.DEVNULL, stdout=sink,
                                stderr=sink, env=env)
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        job.wall_s = perf_counter() - start
    proc.returncode = job.exit_code = os.waitstatus_to_exitcode(status)
    job.pid = proc.pid
    job.cpu_s = usage.ru_utime + usage.ru_stime
    job.rss_mb = usage.ru_maxrss / 1024.0


class Calibrator:
    """job.py's calibration loop, pinned to the jobs' CPU.

    The host's CPU speed drifts by up to 2x within a minute, and the two
    CPUs drift independently, so raw job times are not repeatable.  The
    loop shares the CPU with each job in turn, so both see the same speed;
    the loop's units per CPU second during a job measure that speed.
    """

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "job.py"), "calibrate"],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
            env=env)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise BenchError("the calibration loop did not start")

    def read(self) -> tuple[int, float]:
        """Units done so far and the loop's CPU seconds."""
        self.proc.send_signal(signal.SIGUSR1)
        fields = self.proc.stdout.readline().split()
        if len(fields) != 2:
            raise BenchError("the calibration loop stopped")
        return int(fields[0]), float(fields[1])

    def close(self) -> None:
        self.proc.terminate()
        self.proc.wait()
        self.proc.stdout.close()


def _entries(cache_dir: str) -> int:
    if not cache_dir or not os.path.isdir(cache_dir):
        return 0
    return sum(1 for name in os.listdir(cache_dir) if name.endswith(".json"))


def check_report(path: Path, golden: dict) -> str:
    """Why a report is wrong, or '' when its cells, stability and checks
    equal the golden's and its status is ok.  The job echo (which carries
    the seed) is not compared."""
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"no readable report: {exc}"
    if report.get("status") != "ok":
        return f"status {report.get('status')!r}"
    for section in ("cells", "stability", "checks"):
        if report.get(section) != golden[section]:
            return f"{section} differ from the golden"
    return ""


class Runner:
    """Runs one workload's jobs inside a private scratch directory."""

    def __init__(self, name: str, seed: int):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.golden = json.loads(
            (GOLDENS / f"{self.workload.golden}.json").read_text("utf-8"))
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
        self.jobs: list[Job] = []
        self.warm_cache = ""
        # Every process of the run, calibration loop included, uses one CPU.
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        BENCH_CPU=str(max(os.sched_getaffinity(0))))
        self.calibrator = None

    def calibrate(self) -> None:
        """Start the calibration loop; later jobs report ref_s."""
        self.calibrator = Calibrator(self.env)

    def close(self) -> None:
        if self.calibrator is not None:
            self.calibrator.close()
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    def _spawn(self, job: Job, argv: list[str], log: Path,
               env: dict) -> None:
        """_spawn, plus ref_s when the calibration loop runs."""
        if self.calibrator is None:
            _spawn(job, argv, log, env)
            return
        units, cpu = self.calibrator.read()
        _spawn(job, argv, log, env)
        units_after, cpu_after = self.calibrator.read()
        speed = (units_after - units) / (cpu_after - cpu)
        job.ref_s = job.cpu_s * speed / REFERENCE_UNITS_PER_S

    def job(self, kind: str) -> Job:
        """One compute job; kind is "run", "trace" or "profile"."""
        job = Job(kind)
        jobdir = Path(tempfile.mkdtemp(prefix="job-", dir=self.dir))
        report = jobdir / "report.json"
        args = ["compute", *self.workload.args, "--format", "json",
                "--workers", "1",
                "--seed", str(self.seed), "--output", str(report)]
        if self.workload.cache == "cold":
            job.cache_dir = str(jobdir / "cache")
            os.mkdir(job.cache_dir)
        elif self.workload.cache == "warm":
            job.cache_dir = self.warm_cache
        if job.cache_dir:
            args += ["--cache-dir", job.cache_dir]
        job.cache_before = _entries(job.cache_dir)
        out = jobdir / "out.json"
        options = [] if kind == "run" else [str(out)]
        env = dict(self.env, PYTHONHASHSEED="0") if kind == "profile" \
            else self.env
        try:
            self._spawn(job, [kind, *options, "--", *args],
                        jobdir / "log.txt", env)
            job.cache_after = _entries(job.cache_dir)
            if job.exit_code == EXIT_TRACER:
                raise BenchError((jobdir / "log.txt").read_text("utf-8"))
            if job.exit_code != 0:
                job.problem = f"exit code {job.exit_code}"
            else:
                job.problem = check_report(report, self.golden)
            if out.exists():  # a wrong report does not void the trace
                job.output = json.loads(out.read_text("utf-8"))
        finally:
            shutil.rmtree(jobdir, ignore_errors=True)
        self.jobs.append(job)
        return job

    def prime(self) -> None:
        """Fill the warm-replay cache dir by running the job once."""
        self.warm_cache = str(self.dir / "warm-cache")
        os.mkdir(self.warm_cache)
        self.job("run")

    def setup_times(self) -> list[Job]:
        """Spawn, import derlie.cli and load the model, SETUP_REPEATS times
        after one discarded spawn that may compile bytecode."""
        out = []
        for i in range(SETUP_REPEATS + 1):
            job = Job("setup")
            stats = self.dir / "setup.json"
            self._spawn(job, ["setup", self.workload.model, str(stats)],
                        self.dir / "setup-log.txt", self.env)
            if job.exit_code != 0:
                raise BenchError(
                    "set-up failed: "
                    + (self.dir / "setup-log.txt").read_text("utf-8"))
            job.output = json.loads(stats.read_text("utf-8"))
            if i:
                out.append(job)
        return out

    def timed(self, seconds: float, kinds: tuple[str, ...],
              minimum: int) -> list[Job]:
        """Closed loop, one job at a time, cycling through kinds, until the
        next job would end after `seconds`."""
        done: list[Job] = []
        start = perf_counter()
        while True:
            elapsed = perf_counter() - start
            if len(done) >= minimum and \
                    elapsed + max(j.wall_s for j in done[-2:]) > seconds:
                break
            if done and elapsed > STOP_STARTING_S:
                break
            done.append(self.job(kinds[len(done) % len(kinds)]))
        return done


# ---- metrics ---------------------------------------------------------------------


def _ok(jobs: list[Job]) -> list[Job]:
    good = [j for j in jobs if not j.problem]
    return good or jobs


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return "none (needs more than 10 samples)"
    return f"p{100.0 * (n - 10) / n:.1f} = {sorted(values)[n - 11]:.4f}"


def layer_metrics(trace: dict) -> dict[str, float]:
    """Self time, inclusive time, calls and work counts per layer from one
    traced job.  Self time is a span minus the time its child spans cover."""
    spans = trace["spans"]
    counts = trace["counts"]
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start

    def ancestors(i):
        parent = spans[i][3]
        while parent >= 0:
            yield spans[parent][0]
            parent = spans[parent][3]

    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, start, end, _) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - covered[i]
        calls[name] = calls.get(name, 0) + 1
        if name not in ancestors(i):
            total_s[name] = total_s.get(name, 0.0) + (end - start)

    sigma = [i for i, s in enumerate(spans) if s[0] == "fistab.sigma_action"]
    computed = {s[3] for s in spans if s[0] == "fistab.homology_map"}
    hits = sum(1 for i in sigma if i not in computed)
    character_in_stability = sum(
        1 for i, s in enumerate(spans) if s[0] == "fistab.character"
        and "reptheory.stability_report" in ancestors(i))

    def count(layer, key):
        return counts.get(layer, {}).get(key, 0)

    diff = "dermodel.differential_matrix"
    built = count(diff, "built")
    out = {
        "gradedlie.slice.self_s": self_s.get("gradedlie.slice", 0.0),
        "gradedlie.slice.calls": calls.get("gradedlie.slice", 0),
        "gradedlie.slice.elements": count("gradedlie.slice", "elements"),
        "gradedlie.omega.self_s": self_s.get("gradedlie.omega", 0.0),
        "dermodel.derivation_basis.self_s":
            self_s.get("dermodel.derivation_basis", 0.0),
        "dermodel.slice_dim": count("dermodel.derivation_basis", "slice_dim"),
        f"{diff}.self_s": self_s.get(diff, 0.0),
        f"{diff}.nnz": count(diff, "nnz"),
        f"{diff}.zero_fraction": count(diff, "zero") / built if built else 0.0,
    }
    for op in ("kernel_basis", "image_basis", "quotient_basis"):
        layer = f"ratlinalg.{op}"
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        for key in ("rows", "cols", "nnz"):
            out[f"{layer}.{key}"] = count(layer, key)
    out.update({
        "ratlinalg.span_solver.self_s":
            self_s.get("ratlinalg.span_solver", 0.0),
        "fistab.homology_map.self_s": self_s.get("fistab.homology_map", 0.0),
        "fistab.homology_map.calls": calls.get("fistab.homology_map", 0),
        "fistab.sigma_action.calls": len(sigma),
        "fistab.action_hit_ratio": hits / len(sigma) if sigma else 0.0,
        "fistab.character.s": total_s.get("fistab.character", 0.0),
        "reptheory.decompose.self_s": self_s.get("reptheory.decompose", 0.0),
        "reptheory.stability_report.s":
            total_s.get("reptheory.stability_report", 0.0),
        "reptheory.stability_report.character_calls": character_in_stability,
        "cli.run.self_s": self_s.get("cli.run", 0.0),
        "cli.emit_report.s": total_s.get("cli.emit_report", 0.0),
    })
    return out


def _median_of(dicts: list[dict]) -> dict[str, float]:
    return {key: median(d[key] for d in dicts) for key in dicts[0]}


# ---- one benchmark run -------------------------------------------------------------


def run_benchmark(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload; returns the result line, the jobs it ran and the
    human-readable summary."""
    context = {"nproc": os.cpu_count(),
               "python": platform.python_version(),
               "loadavg_start": os.getloadavg()}
    runner = Runner(name, seed)
    try:
        if runner.workload.cache == "warm":
            runner.prime()
        if not trace:
            runner.calibrate()
        setups = runner.setup_times()
        if trace:
            timed = runner.timed(seconds, ("run", "trace"), MIN_TRACED_JOBS)
            profile = runner.job("profile")
        else:
            timed = runner.timed(seconds, ("run",), MIN_JOBS)
    finally:
        runner.close()
    context["loadavg_end"] = os.getloadavg()

    plain = _ok([j for j in timed if j.kind == "run"])
    walls = [j.wall_s for j in plain]
    if trace:
        traced = [j for j in timed if j.kind == "trace" and j.output]
        if not traced or not profile.output:
            raise BenchError("no traced or profiled job left its output")
        layers = [dict(layer_metrics(j.output),
                       **{"cli.cache_entries_read": j.cache_before,
                          "cli.cache_entries_written":
                              j.cache_after - j.cache_before})
                  for j in traced]
        values = _median_of(layers)
        values.update({
            "setup.import_s": median(j.output["import_s"] for j in setups),
            "setup.model_s": median(j.output["model_s"] for j in setups),
            "trace_overhead": median(j.wall_s for j in traced)
            / median(walls),
            "py.function_calls": profile.output["function_calls"],
            "py.fraction_new_calls": profile.output["fraction_new_calls"],
        })
    else:
        values = {
            "cpu_ref_s": median(j.ref_s for j in plain),
            "peak_rss_mb": median(j.rss_mb for j in plain),
            "setup_s": median(j.ref_s for j in setups),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing or len(values) != len(declared):
        raise BenchError(f"metrics do not match BENCHMARK.json: missing "
                         f"{missing}, computed {sorted(values)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    failed = sum(1 for j in runner.jobs if j.problem)
    result = {"correct": failed == 0, "attempted": len(runner.jobs),
              "failed": failed, "metrics": metrics}

    lines = [
        f"workload {name}  seed {seed}  seconds {seconds}  "
        f"trace {int(trace)}",
        f"context: nproc {context['nproc']}  python {context['python']}  "
        "loadavg start " + " ".join(f"{x:.2f}" for x in
                                    context["loadavg_start"])
        + "  end " + " ".join(f"{x:.2f}" for x in context["loadavg_end"]),
        f"jobs: {len(runner.jobs)} attempted, {failed} failed",
        f"{len(plain)} untraced jobs: wall median {median(walls):.4f} s"
        f", cpu median {median(j.cpu_s for j in plain):.4f} s",
    ]
    if not trace:
        refs = [j.ref_s for j in plain]
        lines.append(f"cpu_ref_s tail: {tail_percentile(refs)}")
    lines += [f"failed job ({j.kind}, pid {j.pid}): {j.problem}"
              for j in runner.jobs if j.problem][:5]
    lines += [f"  {key} = {m['value']} {m['unit']}"
              for key, m in metrics.items()]
    return {"result": result, "jobs": runner.jobs, "lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "derlie" / "cli.py").is_file():
        print(f"bench: no derlie sources under {SRC}", file=sys.stderr)
        return 2
    # Let a terminated run stop its processes and delete its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        outcome = run_benchmark(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for line in outcome["lines"]:
        print(line)
    print(json.dumps(outcome["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One derlie job in a fresh interpreter, started by run.py.

    job.py run -- <derlie arguments>          what the ``derlie`` script does
    job.py trace OUT -- <derlie arguments>    same, with the layer tracer;
                                              spans and counts go to OUT
    job.py profile OUT -- <derlie arguments>  same, under cProfile; exact
                                              call counts go to OUT
    job.py setup MODEL OUT                    import derlie.cli and load
                                              MODEL; the split goes to OUT
    job.py calibrate                          the reference loop (see below)

derlie is imported from PYTHONPATH, which run.py points at the checkout's
``src``.  When BENCH_CPU is set the process first pins itself to that CPU.
Exit code 70 means the tracer could not see every layer call.
"""

import os
import sys
from time import perf_counter

START = perf_counter()
if "BENCH_CPU" in os.environ:
    os.sched_setaffinity(0, {int(os.environ["BENCH_CPU"])})


def _write(path, payload):
    import json
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def calibrate():
    """Repeat one fixed unit of work (Fraction arithmetic and tuple-keyed
    dict updates, like derlie's inner loops) until the parent process is
    gone.  On SIGUSR1, print the units done so far and this process's CPU
    seconds."""
    import signal
    from fractions import Fraction
    done = 0
    parent = os.getppid()

    def report(signum, frame):
        times = os.times()
        print(done, times.user + times.system, flush=True)

    signal.signal(signal.SIGUSR1, report)
    print("ready", flush=True)
    while os.getppid() == parent:
        acc = Fraction(0)
        for i in range(1, 200):
            acc += Fraction(1, i) * Fraction(i % 7 + 1, 3)
        table = {}
        for i in range(300):
            table[(i, i % 5)] = table.get((i - 1, i % 5), 0) + i
        done += 1


def main(argv):
    command = argv[0]
    if command == "calibrate":
        calibrate()
        return 0
    if command == "setup":
        model, out = argv[1], argv[2]
        from derlie import cli
        imported = perf_counter()
        cli.load_model(model)
        _write(out, {"import_s": imported - START,
                     "model_s": perf_counter() - imported})
        return 0

    split = argv.index("--")
    options, job_args = argv[1:split], argv[split + 1:]
    from derlie import cli
    if command == "run":
        return cli.main(job_args)
    if command == "trace":
        from tracer import Tracer, TracerError
        tracer = Tracer()
        try:
            tracer.install()
        except TracerError as exc:
            print(f"tracer: {exc}", file=sys.stderr)
            return 70
        code = cli.main(job_args)
        tracer.dump(options[0])
        return code
    if command == "profile":
        import cProfile
        import pstats
        profiler = cProfile.Profile()
        code = profiler.runcall(cli.main, job_args)
        stats = pstats.Stats(profiler).stats
        fraction_new = sum(
            primitive for (filename, _, name), (primitive, *_)
            in stats.items()
            if name == "__new__" and filename.endswith("fractions.py"))
        _write(options[0], {
            "function_calls": sum(calls for _, calls, *_ in stats.values()),
            "fraction_new_calls": fraction_new})
        return code
    raise SystemExit(f"job.py: unknown command {command!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

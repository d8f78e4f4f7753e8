"""One sample of one workload, in a fresh process.

    python3 perfbench/sample.py --workload NAME --seed N --out-dir DIR
        [--trace 0|1] [--params JSON]

Prints one JSON object as its last line of output: set-up time and wall
time of the run, each less the speed probe's ticks in it, the mean tick
time in each, CPU time of the run (ticks included), peak RSS, the
per-level records, the versions it ran with, and, with --trace 1, the
per-layer metrics and the spans.  run.py starts this script and checks
what it prints.
"""

import signal
import statistics
import time


class SpeedProbe:
    """Samples the CPU speed the process gets, all through its life.

    The CPU speed a shared host gives a process drifts by tens of percent
    over seconds to minutes, and interpreted Python, NumPy and sparse LU
    slow down and speed up together.  Every INTERVAL_S a SIGALRM handler
    times a short fixed loop, a tick; the handler runs between bytecodes,
    so a tick never splits a call into NumPy or SciPy.  `stretch` gives the
    wall time of a part of the run less its ticks, and the mean tick time
    in it, by which run.py scales that part to the reference speed.
    """

    INTERVAL_S = 0.1

    def __init__(self):
        self.ticks = []  # (end, duration) of each tick
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        total = 0
        for i in range(30_000):
            total += i * i
        end = time.perf_counter()
        self.ticks.append((end, end - start))

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def stretch(self, start: float, end: float) -> tuple:
        """(wall time of [start, end] less its ticks, mean tick time in it).

        A part too short to hold a tick takes the mean of every tick so
        far."""
        inside = [d for t, d in self.ticks if start < t <= end]
        return (end - start - sum(inside),
                statistics.fmean(inside or [d for _, d in self.ticks]))


if __name__ == "__main__":
    PROBE = SpeedProbe()
SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--params", help="JSON object overriding parameters")
    p.add_argument("--out-dir", required=True,
                   help="scratch directory for the CLI's files")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy  # noqa: F401
    import scipy.sparse  # noqa: F401
    import afemflux

    if not os.path.abspath(afemflux.__file__).startswith(ROOT + os.sep):
        raise SystemExit(f"afemflux imported from {afemflux.__file__}, "
                         f"not from the checkout at {ROOT}")
    import workloads

    params = dict(workloads.PARAMS[args.workload])
    params.update(json.loads(args.params or "{}"))
    job = workloads.build(params, args.seed, args.out_dir)
    setup_end = time.perf_counter()
    spec = job.spec
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        spec = dataclasses.replace(spec, f=tracer.count_load(spec.f))
        root = tracer.open("cli.main" if params["kind"] == "cli"
                           else "afem.run")
    start, cpu = time.perf_counter(), time.process_time()
    result = job.invoke(spec)
    end = time.perf_counter()
    PROBE.stop()
    out = {"cpu_s": time.process_time() - cpu}
    if tracer is not None:
        tracer.close(root)
    out["setup_s"], out["setup_tick_s"] = PROBE.stretch(SETUP_START,
                                                        setup_end)
    out["wall_s"], out["tick_s"] = PROBE.stretch(start, end)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["records"] = job.records(result)
    out["env"] = environment()
    if tracer is not None:
        out["layers"] = tracer.metrics(end - start, job.bytes_written())
        out["spans"] = tracer.spans
    shutil.rmtree(args.out_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics as the last output line.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports oodlab from ``src/``
and exits with code 2, printing no result, when that is missing. BLAS is
pinned to one thread before numpy loads. Scratch files go to a temp dir
under ``.perfbench_tmp/`` that is removed on exit.

``--trace 0`` sets the workload up several times, before and after the
timed part (``setup_s`` is the median), repeats its timed iteration for
``--seconds`` and reports the median of each end-to-end metric. ``--trace 1`` sets up once and alternates
untraced and traced iterations; it reports the per-layer metrics (the
traced set-up plus the mean traced iteration) and ``trace.overhead_s``.
Metric names, units and directions come from ``BENCHMARK.json``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Set-up is sampled for SETUP_SECONDS before the timed iterations and again
# after them, at least twice each time: CPU speed on a shared 2-vCPU host
# drifts over seconds to minutes, and two windows half a minute apart steady
# the median.
SETUP_SECONDS = 2.0
EXIT_CANNOT_RUN = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sizes", choices=("full", "smoke"), default="full",
                   help="smoke: tiny inputs, for checking the benchmark itself")
    return p.parse_args(argv)


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "blas_threads": blas_threads(),
        "blas_threads_requested": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": 1,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((ROOT / "src" / "oodlab").glob("*.py"))),
    }


def repeat(step, seconds, min_count=1):
    """Call ``step`` until the next call would end past ``seconds``."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(results) >= min_count and elapsed + statistics.median(durations) > seconds:
            return results


def medians(dicts) -> dict:
    keys = {k for d in dicts for k in d}
    return {k: statistics.median(d[k] for d in dicts if k in d) for k in sorted(keys)}


class Runner:
    def __init__(self, workloads, wl, tmp: Path):
        self.workloads, self.wl, self.tmp = workloads, wl, tmp
        self.digests, self.auprs = set(), {}

    def setup(self, k: int):
        directory = self.tmp / f"setup{k}"
        t = time.perf_counter()
        out = self.wl.setup(directory)
        seconds = time.perf_counter() - t
        if k:  # later set-ups replace this one; keep disk use flat
            shutil.rmtree(self.tmp / f"setup{k - 1}", ignore_errors=True)
        return out, seconds

    def iteration(self):
        values, digest, auprs = self.wl.iteration()
        self.digests.add(digest)
        self.auprs = auprs
        if len(self.digests) > 1:  # the iteration's last operation fails this check
            self.wl.ops.failed += 1
            raise self.workloads.OpFailed("iterations of one run gave different outputs")
        return values

    def timed_run(self, seconds):
        count = itertools.count()
        setups = repeat(lambda: self.setup(next(count)), SETUP_SECONDS, 2)
        iterations = repeat(self.iteration, seconds)
        setups += repeat(lambda: self.setup(next(count)), SETUP_SECONDS, 2)
        out = medians([m for m, _ in setups])
        out.update(medians(iterations))
        out["setup_s"] = statistics.median(s for _, s in setups)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return out, len(iterations)

    def traced_run(self, seconds, names):
        from spans import Tracer, layer_metrics
        tracer = Tracer()
        self.wl.span = tracer.span
        with tracer:
            self.setup(0)
        setup_totals = tracer.totals()
        walls = {False: [], True: []}
        traced_totals = []

        def pair():
            walls[False].append(self.iteration()["wall_s"])
            with tracer:
                walls[True].append(self.iteration()["wall_s"])
            traced_totals.append(tracer.totals())

        n = len(repeat(pair, seconds))
        combined = dict(setup_totals)
        for key in {k for t in traced_totals for k in t}:
            mean = sum(t.get(key, 0.0) for t in traced_totals) / n
            combined[key] = combined.get(key, 0.0) + mean
        out = layer_metrics(combined, names, tracer.present)
        out["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        return out, 2 * n


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "oodlab" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no oodlab source tree and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return EXIT_CANNOT_RUN
    sys.path.insert(0, str(src))
    import oodlab
    if Path(oodlab.__file__).resolve().parent != src / "oodlab":
        print(f"error: imported oodlab from {oodlab.__file__}, not {src}", file=sys.stderr)
        return EXIT_CANNOT_RUN
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return EXIT_CANNOT_RUN
    sizes = workloads.SMOKE if args.sizes == "smoke" else workloads.FULL
    ops = workloads.Ops()
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes, ops)

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    runner = Runner(workloads, wl, tmp)
    values, iterations, error = {}, 0, None
    try:
        if args.trace:
            values, iterations = runner.traced_run(args.seconds, list(units))
        else:
            values, iterations = runner.timed_run(args.seconds)
    except workloads.OpFailed as exc:
        error = str(exc)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    record = dict(environment(), workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, sizes=args.sizes,
                  iterations=iterations, output_digest=sorted(runner.digests),
                  error=error, **runner.auprs)
    print(json.dumps({"record": record}, sort_keys=True))
    correct = error is None and ops.failed == 0
    result = {
        "correct": correct,
        "attempted": max(ops.attempted, 1),
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

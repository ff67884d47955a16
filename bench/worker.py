"""One fresh-interpreter measurement process, started by ``bench/run.py``.

It imports ``stabrenyi`` from the checkout's ``src/``, builds the workload's
inputs, runs a cold iteration, then warm iterations for ``--seconds``.  With
``--trace 1`` the first half of the warm time runs untraced and the second
half traced.  It prints one JSON object as its last stdout line.

    python3 bench/worker.py --workload noise_fit --seed 1 --proc 0 \\
        --seconds 5 --trace 0 --workdir .bench_work/x --spawned <monotonic>
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import stabrenyi

    if Path(stabrenyi.__file__).resolve().parent != src / "stabrenyi":
        raise ImportError(f"stabrenyi imported from {stabrenyi.__file__}, not {src}")
    return stabrenyi


def attempt(workload, key, tracer=None):
    """Time one iteration, then check its output untimed.

    Returns (seconds, problems); an exception in the task is a problem.
    """
    workload.prepare()
    start = time.perf_counter()
    try:
        if tracer is None:
            output = workload.run(key)
        else:
            output = tracer.run_iteration(key[1], lambda: workload.run(key))
    except Exception as exc:  # a failed task is counted, not fatal
        return time.perf_counter() - start, [f"raised {exc!r}"]
    elapsed = time.perf_counter() - start
    try:
        problems = workload.check(output, key)
    except Exception as exc:  # a check that cannot read the output fails it
        problems = [f"check raised {exc!r}"]
    return elapsed, problems


def warm_loop(workload, proc, first, seconds, tracer=None):
    """Yield (seconds, problems) per iteration until ``seconds`` have passed."""
    i = first
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        yield attempt(workload, (proc, i), tracer)
        i += 1


def measure(args) -> dict:
    stabrenyi = import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent's spawn time
    # and this process's clock share one origin.
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned

    result = {"setup_s": setup_s, "attempted": 0, "failed": 0, "problems": []}

    def record(found):
        result["attempted"] += 1
        if found:
            result["failed"] += 1
            result["problems"].extend(found[:3])

    cold_s, found = attempt(workload, (args.proc, 0))
    record(found)
    result["cold_iter_s"] = cold_s

    warm_seconds = args.seconds / 2 if args.trace else args.seconds
    samples = []
    for elapsed, found in warm_loop(workload, args.proc, 1, warm_seconds):
        samples.append(elapsed)
        record(found)
    result["samples"] = samples

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        traced = []
        try:
            first = len(samples) + 1
            for elapsed, found in warm_loop(
                workload, args.proc, first, args.seconds / 2, tracer
            ):
                traced.append(elapsed)
                record(found)
        finally:
            tracer.uninstall()
        result["traced_samples"] = traced
        result["rows"] = list(tracer.per_iteration().values())
        result["wrapped"] = sorted(tracer.wrapped)
        trace_dir = ROOT / ".bench_work" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(str(trace_dir / f"{args.workload}-seed{args.seed}-proc{args.proc}.jsonl.gz"))

    if args.reference:
        found = workload.reference_check()
        record(found)

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    result["versions"] = {
        "stabrenyi": stabrenyi.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--proc", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(measure(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

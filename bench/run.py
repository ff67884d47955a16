"""Benchmark of the stabrenyi pipeline: one workload, one seed, one result.

    python3 bench/run.py --workload noise_fit --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workloads and metrics are declared in
``BENCHMARK.json``; ``bench/workloads.py`` says what each iteration does.

A run starts ``PROCESSES`` fresh interpreters one after another, each
driven closed-loop by one client.  Each imports ``stabrenyi`` from ``src/``,
builds its inputs (``setup_s``), runs one cold iteration (``cold_iter_s``),
then warm iterations for ``--seconds / PROCESSES``; warm samples are pooled
over the processes, so one process's luck (memory layout, a busy
neighbour) moves the medians less.  Every iteration's output is checked
outside the timed region.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the per-layer metrics from wrapping every public
``stabrenyi`` function (see ``bench/tracer.py``).  The line before it is
the run's provenance and detail.  The run exits 2, printing no result,
when the checkout has no ``src/stabrenyi`` to measure.

Out of scope: isolated per-layer sweeps over register widths (n in
{1, 3, 6, 10, 12}) and spans recorded inside the package itself; the
tracer here wraps the package from outside.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import layer_metric  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh processes per run; the medians of setup_s and cold_iter_s are over these.
PROCESSES = 4

#: A run must end within 180 s; a worker that would overrun this is killed.
DEADLINE_S = 170.0

#: BLAS threads are pinned to one: the host is small and shared, and a
#: single-threaded matvec keeps run-to-run spread low.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

NO_WAIT_NOTE = (
    "no wait time recorded: the pipeline is single-threaded and synchronous, "
    "so no layer waits on another"
)


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, never below
    the median (with under 21 samples it is the upper median).  Returns
    (value, percentile)."""
    ordered = sorted(samples)
    count = len(ordered)
    index = max(count - 11, count // 2)
    return ordered[index], 100.0 * (index + 1) / count


def cpu_info() -> dict:
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name":
                    info.setdefault("cpu_model", value.strip())
                elif key == "cache size":
                    info.setdefault("llc", value.strip())
    except OSError:
        pass
    # The n=12 Walsh transform caches a 4096 x 4096 float64 Hadamard matrix.
    info["hadamard_n12_bytes"] = 8 * 4096 * 4096
    return info


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_worker(args, proc: int, workdir: Path, deadline: float) -> dict:
    env = {**os.environ, **THREAD_ENV}
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--proc", str(proc), "--seconds", str(args.seconds / PROCESSES),
        "--trace", str(args.trace),
        "--reference", "1" if proc == PROCESSES - 1 else "0",
        "--workdir", str(workdir),
    ]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        cmd + ["--spawned", repr(spawned)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker {proc} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(results: list[dict]) -> dict[str, float]:
    warm = [s for r in results for s in r["samples"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "cold_iter_s": statistics.median(r["cold_iter_s"] for r in results),
        "iter_s": statistics.median(warm),
        "iter_s_tail": tail(warm)[0],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }


def per_layer(results: list[dict], names: list[str]) -> tuple[dict[str, float], list[str]]:
    rows = [row for r in results for row in r["rows"]]
    wrapped = set(results[0]["wrapped"])
    values, absent = {}, []
    for name in names:
        if name == "trace.overhead_ratio":
            values[name] = statistics.median(
                statistics.median(r["traced_samples"]) / statistics.median(r["samples"])
                for r in results
            )
            continue
        value = layer_metric(name, rows, wrapped)
        if value is None:
            absent.append(name)
            value = 0.0
        values[name] = value
    return values, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stabrenyi benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stabrenyi" / "__init__.py").is_file():
        print(f"error: no stabrenyi package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_specs}

    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        results = [run_worker(args, proc, workdir, deadline) for proc in range(PROCESSES)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    absent: list[str] = []
    if args.trace:
        values, absent = per_layer(results, list(units))
    else:
        values = end_to_end(results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    warm = [s for r in results for s in r["samples"]]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": {
            "machine": cpu_info(),
            "python": sys.version.split()[0],
            **results[0]["versions"],
            "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
            "git_commit": git_commit(),
            "src_sha256": src_digest(),
        },
        "failed_frac": failed / attempted,
        "problems": [p for r in results for p in r["problems"]][:10],
        "warm_samples": len(warm),
        "iter_s_tail_percentile": tail(warm)[1],
        "processes": PROCESSES,
        "absent": absent,
        "wait": NO_WAIT_NOTE,
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

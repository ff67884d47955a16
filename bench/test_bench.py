"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import stabrenyi  # noqa: E402
from tracer import ROOT_SPAN, Tracer, layer_metric  # noqa: E402
from worker import attempt  # noqa: E402
from workloads import WORKLOADS, WideEstimate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_NAMES = [m["name"] for m in SPEC["per_layer"] if m["name"] != "trace.overhead_ratio"]


def _alter_one_count(path: str) -> None:
    lines = Path(path).read_text().splitlines()
    record = json.loads(lines[1])
    bits = sorted(record["counts"])[0]
    record["counts"][bits] += 1
    lines[1] = json.dumps(record, sort_keys=True)
    Path(path).write_text("\n".join(lines) + "\n")


class _CorruptingWide(WideEstimate):
    def run(self, key):
        output = super().run(key)
        _alter_one_count(self.records)
        return output


def test_clean_wide_iteration_passes(tmp_path):
    _, problems = attempt(WideEstimate(7, str(tmp_path), "tiny"), (0, 0))
    assert problems == []


def test_one_altered_count_is_a_failure(tmp_path):
    _, problems = attempt(_CorruptingWide(7, str(tmp_path), "tiny"), (0, 0))
    assert any("shots, expected" in p for p in problems)


def test_raising_task_is_a_failure(tmp_path):
    workload = WideEstimate(7, str(tmp_path), "tiny")
    workload.run = lambda key: 1 / 0
    _, problems = attempt(workload, (0, 0))
    assert problems and "ZeroDivisionError" in problems[0]


@pytest.fixture(scope="module")
def traced_rows(tmp_path_factory):
    """One tiny traced iteration per workload: (rows, self-time sums, wrapped)."""
    out = {}
    for name, cls in WORKLOADS.items():
        workload = cls(3, str(tmp_path_factory.mktemp(name)), "tiny")
        tracer = Tracer()
        tracer.install()
        try:
            _, problems = attempt(workload, (0, 1), tracer)
        finally:
            tracer.uninstall()
        assert problems == [], (name, problems)
        out[name] = (tracer.per_iteration()[1], tracer, set(tracer.wrapped))
    return out


def test_every_per_layer_name_is_reported(traced_rows):
    for name, (row, _, wrapped) in traced_rows.items():
        for metric in LAYER_NAMES:
            value = layer_metric(metric, [row], wrapped)
            assert value is not None, (name, metric)


def test_every_named_layer_function_runs_in_some_workload(traced_rows):
    called = {
        key[: -len(".calls")]
        for row, _, _ in traced_rows.values()
        for key, value in row.items()
        if key.endswith(".calls") and value > 0
    }
    named = {m.rsplit(".", 1)[0] for m in LAYER_NAMES} - {"noise.solvers"}
    assert named <= called, named - called


def test_self_times_fit_inside_the_iteration(traced_rows):
    for name, (row, tracer, _) in traced_rows.items():
        own = tracer.self_times()
        assert min(own) > -1e-9, name
        assert sum(own) <= row["iteration_s"] + 1e-9, name
        assert row[f"{ROOT_SPAN}.calls"] == 1


def test_wrappers_cover_imported_names_and_are_removed():
    original = stabrenyi.recordio.read_records
    tracer = Tracer()
    tracer.install()
    try:
        assert stabrenyi.cli.read_records is stabrenyi.recordio.read_records
        assert stabrenyi.cli.read_records is not original
        assert stabrenyi.read_records is stabrenyi.recordio.read_records
    finally:
        tracer.uninstall()
    assert stabrenyi.cli.read_records is original
    assert stabrenyi.read_records is original


def test_deleted_name_reports_absent():
    rows = [{"noise.w_epsilon.calls": 1.0}]
    assert layer_metric("noise.w_epsilon.calls", rows, {"noise.w_epsilon"}) == 1.0
    assert layer_metric("noise.w_epsilon.calls", rows, set()) is None


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "predict", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

"""Checks of the end-to-end benchmark itself.

Not collected by the repository's test suite (``testpaths = tests``);
run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py

The smoke runs take about a minute in total.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402
from workloads import (  # noqa: E402
    EXPRESSIONS,
    STREAMS,
    UNION_KEY,
    WORKLOADS,
    exact_cardinalities,
    generate,
    timestamps,
    workload_for,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(out, *args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--smoke", "--out", str(out), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_runs_every_workload_with_all_gates(tmp_path):
    proc = run_bench(tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"]:
            assert f"{workload}.{metric['name']}" in result["metrics"]


def test_smoke_traced_run_reports_every_layer_and_writes_a_trace(tmp_path):
    proc = run_bench(tmp_path, "--workload", "window", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc.stdout)
    assert set(result["metrics"]) == metrics.declared_metrics(SPEC, trace=True)
    trace = json.loads((tmp_path / "window-seed1-trace1" / "trace.json").read_text())
    processes = {
        event["args"]["name"]
        for event in trace["traceEvents"]
        if event["ph"] == "M"
    }
    assert processes == {"load", "site", "tree"}


def test_skipped_export_trips_the_bit_identity_gate(tmp_path):
    proc = run_bench(tmp_path, "--workload", "serve", "--fault", "skip-export")
    assert proc.returncode != 0
    assert not last_json(proc.stdout)["correct"]
    gate = [line for line in proc.stdout.splitlines() if "gate bit-identity" in line]
    assert gate and "FAIL" in gate[0]


def test_a_metric_missing_from_benchmark_json_fails():
    produced = {metric["name"]: 1.0 for metric in SPEC["end_to_end"]}
    assert metrics.check_metric_names(SPEC, produced, trace=False) == []
    trimmed = dict(SPEC, end_to_end=SPEC["end_to_end"][1:])
    problems = metrics.check_metric_names(trimmed, produced, trace=False)
    assert problems and SPEC["end_to_end"][0]["name"] in problems[0]
    unproduced = dict(produced)
    del unproduced["setup_s"]
    assert metrics.check_metric_names(SPEC, unproduced, trace=False)


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    proc = run_bench(
        tmp_path / "out",
        cwd=tmp_path,
        script=tmp_path / "benchmarks" / "e2e" / "run.py",
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _exact_store_answers(inputs, count, keep=None) -> dict:
    from repro.streams import ExactStreamStore, Update

    store = ExactStreamStore()
    for index in range(count):
        if keep is None or keep[index]:
            store.apply(
                Update(
                    STREAMS[int(inputs.streams[index])],
                    int(inputs.elements[index]),
                    int(inputs.deltas[index]),
                )
            )
    answers = {text: store.cardinality(text) for text in EXPRESSIONS}
    answers[UNION_KEY] = store.cardinality("A | B | C")
    return answers


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_numpy_reference_matches_the_exact_store(name):
    workload = workload_for(name, smoke=True)
    inputs = generate(workload, 7, 2.0, smoke=True)
    count = min(len(inputs), 30_000)
    assert exact_cardinalities(inputs, count) == _exact_store_answers(inputs, count)
    for window in workload.query_windows:
        stamps = timestamps(workload, count)
        since = float(stamps[-1]) - window
        assert exact_cardinalities(
            inputs, count, since=since, stamps=stamps
        ) == _exact_store_answers(inputs, count, keep=stamps > since)


@pytest.mark.parametrize(
    "base, change, better, expected",
    [
        ([10.0] * 10, [10.1] * 10, "lower", "unchanged"),
        ([10.0] * 10, [12.0] * 10, "lower", "regressed"),
        ([10.0 + i / 100 for i in range(10)], [9.0] * 10, "lower", "improved"),
        ([10.0 + i / 100 for i in range(10)], [11.0] * 10, "higher", "improved"),
        ([5.0, 15.0] * 5, [10.0, 9.0] * 5, "lower", "unresolved"),
    ],
)
def test_compare_verdicts(base, change, better, expected):
    assert metrics.verdict(base, change, better, 0.1) == expected

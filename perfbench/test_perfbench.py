"""Smoke test of the benchmark itself, at a coarse grid.

Runs the driver in-process on every workload with both traces and checks
that every metric BENCHMARK.json names is emitted with its unit, that no
time reads 0, that an invalid generated config is counted as a failure
instead of crashing the driver, and that the driver refuses to run without
the program's sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GRID = 320

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _coarse(name, data):
    data.setdefault("grid", {})["points"] = GRID
    if name == "double_gaussian":
        # K ~ 10 needs >= 1578 points to resolve; a wider pump (K ~ 2) fits GRID
        data["pump"]["envelope_fwhm_um"] = 50.0


def _run(*argv, mutate=_coarse):
    return run.run(run.build_parser().parse_args(argv), mutate=mutate)


def test_benchmark_json_names_the_driver_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_benchmark_metric_is_emitted_with_its_unit(workload, trace, key):
    report = _run("--workload", workload, "--seed", "1", "--seconds", "0",
                  "--trace", str(trace))
    result = report["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 1
    assert report["notes"] == []
    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        # a time must never read 0 (the same on every run); a count is exact
        # and reads 0 on a workload that never enters its layer
        if key == "end_to_end" or m["unit"] != "count":
            assert m["value"] != 0, name
        else:
            assert m["value"] >= 0, name
    assert {"nproc", "python", "numpy", "scipy", "blas", "blas_threads"} <= set(report["environment"])


def test_invalid_generated_config_is_counted_not_fatal():
    def plant(name, data):
        _coarse(name, data)
        data["pump"]["not_a_key"] = 1.0

    report = _run("--workload", "fine-grid", "--seed", "2", "--seconds", "0", mutate=plant)
    result = report["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2 * len(workloads.WORKLOADS["fine-grid"].commands)
    assert report["fail_ratio"]["value"] == 1.0
    assert all("exit code 2" in f for f in report["failures"])
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_driver_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"),
                           "--workload", "shipped", "--seed", "0", "--seconds", "1",
                           "--trace", "0"],
                          cwd=str(tmp_path), capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

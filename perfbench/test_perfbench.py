"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from run import ROOT, WORKLOADS, Workload

TINY_VERIFY = Workload(
    "tiny-verify", "verify", 31, None,
    "cf99ef62484604f2370464e8b7ad428049d514eabff48ef39bc1ddb713f4e39e", "")
TINY_SWEEP = Workload(
    "tiny-sweep", "sweep", 31, None,
    "6fe90e697d9595da35c88a951dcd0654f21e972761197918d2a37953b67275b9", "")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_counts_from_inputs_match_the_seed():
    assert run.expected_counts(WORKLOADS["verify-wide"]) == {
        "contexts": 1254, "orbits": 141, "records": 14192}
    assert run.expected_counts(WORKLOADS["verify-deep"]) == {
        "contexts": 70, "orbits": 11, "records": 2204}
    assert run.expected_counts(WORKLOADS["sweep"])["records"] == 128


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in spec()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("wl", [TINY_VERIFY, TINY_SWEEP], ids=lambda wl: wl.name)
def test_digest_gate_passes_on_the_seed_output(wl):
    expected, runs = run.run_workload(wl, seed=0, seconds=0, trace=False)
    assert [r.problems for r in runs] == [[]] * len(runs)
    work = [r for r in runs if r.kind == "work"]
    assert len(work) == run.MIN_RUNS
    for r in work:  # cut at least once at each of the 13 fields up to q = 31
        assert len(r.segments_s) == len(r.scales) > 13
        assert 0.9 * r.wall_s < sum(r.segments_s) < r.wall_s  # less the calibrations
    metrics = run.collect_metrics(runs, expected, trace=False)
    declared = {m["name"] for m in spec()["end_to_end"]}
    assert declared <= set(metrics)
    assert all(metrics[name] > 0 for name in declared)


def test_wall_is_the_sum_of_each_segments_median_scaled_time():
    runs = [run.Run("work", segments_s=[1.0, 2.0, 3.0], scales=[1.0, 1.0, 0.5]),
            run.Run("work", segments_s=[2.0, 1.0, 3.5], scales=[1.0, 1.0, 1.0]),
            run.Run("work", segments_s=[3.0, 4.0, 1.0], scales=[1.0, 0.5, 1.0]),
            run.Run("work", segments_s=[0.5], scales=[1.0])]  # cut differently: left out
    assert run.scaled_segments_s(runs) == (2.0 + 2.0 + 1.5, 3)


def test_calibrations_are_taken_out_of_their_segments_and_scale_them():
    nominal = run.CALIBRATION_NOMINAL_NS
    stats = {"ready_ns": 100, "marks_ns": [100, 300],  # cuts at 0, 100, 200, 400, 1000
             "calibrations": [[0, nominal, 10], [2, 2 * nominal, 20]]}
    segments, scales = run.cut_segments(0, 1000, stats)
    assert segments == [100e-9, 90e-9, 200e-9, 580e-9]
    assert scales == [1.0, 1.0, 1.0, 0.5]


def test_wrong_digest_counts_every_command_run_as_failed(capsys):
    wl = dataclasses.replace(TINY_VERIFY, digest="0" * 64)
    result = run.bench(wl, seed=0, seconds=0, trace=False)
    assert result["correct"] is False
    assert result["failed"] == run.MIN_RUNS  # the probes still pass
    assert "wall_cal_s" not in result["metrics"]
    assert "sha256" in capsys.readouterr().out


def test_a_run_past_its_timeout_fails():
    wl = TINY_VERIFY
    run_ = run.run_child("work", wl, run.expected_counts(wl), timeout=0.01)
    assert run_.problems == ["timed out after 0 s"]
    assert run_.wall_s is None


def test_gate_flags_mismatches_and_drift():
    wl = TINY_VERIFY
    expected = run.expected_counts(wl)
    line = json.dumps({"q": 7, "p": 7, "m": 1, "k": 3, "e": 1}).encode() + b"\n"
    summary = json.dumps({"summary": {"contexts": 1, "checks": 1, "mismatches": 2}})
    problems = run.check_output(wl, 3, line, summary, expected)
    assert any(p.startswith("exit code 3") for p in problems)
    assert any("mismatches" in p for p in problems)
    assert any("drift" in p for p in problems)


def test_every_layer_is_reached_and_reported():
    declared = [m["name"] for m in spec()["per_layer"]]
    seen = {}
    for wl in (TINY_VERIFY, TINY_SWEEP):
        expected, runs = run.run_workload(wl, seed=0, seconds=0, trace=True)
        assert [r.problems for r in runs] == [[]] * len(runs)
        metrics = run.collect_metrics(runs, expected, trace=True)
        assert set(declared) <= set(metrics)
        for name, value in metrics.items():
            seen[name] = max(seen.get(name, 0), value)
    unreached = [n for n in declared if n.endswith(".calls") and not seen[n] > 0]
    assert unreached == []


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

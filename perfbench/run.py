#!/usr/bin/env python3
"""The slce benchmark: slce CLI commands timed end to end, each run in a
fresh process, every output checked against the digest of the seed.

    python3 perfbench/run.py --workload verify-wide --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Run it from the repository root; it runs the package under src/ with the
interpreter it was started with. With --trace 0 it reports the end-to-end
metrics of BENCHMARK.json, timed in segments scaled by the host's speed
(scaled_segments_s, README.md), with --trace 1 the per-layer metrics, which come
from one extra run with spans around each module's public functions
(spans.py). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 1 when any
run fails its output gate and 2 when there is no slce package to run.
"""

import argparse
import collections
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from child import ROOT, STATS_PREFIX
from spans import CALIBRATION_NOMINAL_NS

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")

# Every invocation ends within 180 s: no run starts past this budget, and a
# run still going when it is spent is killed and counted as failed.
BUDGET_S = 170.0
MIN_RUNS = 3  # timed runs of the command, more while --seconds allows
PROBES = 6  # set-up probes per invocation, on top of one untimed warm-up


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "verify" or "sweep"
    qmax: int
    p: int | None
    digest: str  # sha256 of stdout at the seed commit
    why: str

    def argv(self):
        args = [self.command, "--qmax", str(self.qmax)]
        if self.p is not None:
            args += ["--p", str(self.p)]
        if self.command == "verify":
            args += ["--jobs", "1"]
        return args


WORKLOADS = {wl.name: wl for wl in (
    Workload(
        "verify-wide", "verify", 181, None,
        "c18b501cc27e14ab998c7312f8620d826ba6e82c3709ce0ee14fa5b16e6c4c23",
        "many small fields and contexts; the only workload where the Phi_k mod 2 "
        "factorization is heavy (f = 20, 22), plus fold, ideal membership and "
        "per-field overhead"),
    Workload(
        "verify-deep", "verify", 625, 5,
        "87428f85fbf9067044c21c111762f21ef0b63b955f633e410af3508655fd850a",
        "few fields of 2-adic depth 4, conductors up to 624: the fold and "
        "matrix_rows dominate, factorization is negligible"),
    Workload(
        "sweep", "sweep", 640, None,
        "97f1b7c85fe1ace1f20dd994e6882b7443b2e64259eefc19ca2e72521ec4625c",
        "Berlekamp-Massey and autocorrelation over 128 fields; touches no "
        "criteria, cyclo or factorization code, so it is the control for them"),
)}


# ---------------------------------------------------------------------------
# counts computed from the workload's inputs, independently of slce


def _odd_prime_powers(qmax, p_filter):
    for p in range(3, qmax + 1, 2):
        if p_filter not in (None, p) or any(p % d == 0 for d in range(3, math.isqrt(p) + 1, 2)):
            continue
        q = p
        while q <= qmax:
            yield q
            q *= p


def expected_counts(wl):
    """Contexts (q, k, e), their Galois orbits under e -> 2e mod k, and
    output records. A context is an odd k > 1 dividing the odd part of
    q - 1 with a unit e mod k; it yields 2^u records each for thm1 and thm2,
    u each for thm3 and necessary, prop1, prop2, and prop3, prop4 when
    q = 1 mod 4 (u is the 2-adic valuation of q - 1). sweep has one row
    per field."""
    counts = {"contexts": 0, "orbits": 0, "records": 0}
    for q in _odd_prime_powers(wl.qmax, wl.p):
        if wl.command == "sweep":
            counts["records"] += 1
            continue
        u = ((q - 1) & (1 - q)).bit_length() - 1
        odd = (q - 1) >> u
        per_context = 2 * (1 << u) + 2 * u + 2 + (2 if q % 4 == 1 else 0)
        for k in range(3, odd + 1, 2):
            if odd % k:
                continue
            units = sum(1 for e in range(1, k) if math.gcd(e, k) == 1)
            order = 1
            while pow(2, order, k) != 1:
                order += 1
            counts["contexts"] += units
            counts["orbits"] += units // order
            counts["records"] += units * per_context
    return counts


def output_counts(wl, stdout):
    """The same counts, read from what the command printed."""
    lines = stdout.decode().splitlines()
    if wl.command == "sweep":
        return {"contexts": 0, "orbits": 0, "records": len(lines) - 1}  # CSV header
    contexts, orbits = set(), set()
    for line in lines:
        rec = json.loads(line)
        key = (rec["q"], rec["k"], rec["e"])
        if key not in contexts:
            contexts.add(key)
            q, k, e = key
            coset, x = [e], e * 2 % k
            while x != e:
                coset.append(x)
                x = x * 2 % k
            orbits.add((q, k, min(coset)))
    return {"contexts": len(contexts), "orbits": len(orbits), "records": len(lines)}


def check_output(wl, rc, stdout, stderr, expected):
    """The output gate: a list of problems, empty when the run is correct."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != wl.digest:
        problems.append(f"stdout sha256 {digest} differs from the seed's {wl.digest}")
    if wl.command == "verify":
        summaries = [json.loads(line)["summary"] for line in stderr.splitlines()
                     if line.startswith('{"summary"')]
        if len(summaries) != 1:
            problems.append("no summary line on stderr")
        elif summaries[0]["mismatches"] != 0:
            problems.append(f"{summaries[0]['mismatches']} mismatches")
        elif (summaries[0]["contexts"], summaries[0]["checks"]) != (
                expected["contexts"], expected["records"]):
            problems.append(f"summary {summaries[0]} drifts from the inputs' {expected}")
    try:
        counts = output_counts(wl, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    else:
        if counts != expected:
            problems.append(f"output counts {counts} drift from the inputs' {expected}")
    return problems


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Run:
    kind: str  # "warmup", "probe", "work" or "traced"
    wall_s: float | None = None
    setup_s: float | None = None
    rss_mb: float | None = None
    segments_s: list | None = None  # wall time cut at each spans.MARKS call
    scales: list | None = None  # the host's speed during each segment
    spans: dict | None = None
    bytes_out: int = 0
    problems: list = field(default_factory=list)


def run_child(kind, wl, expected, timeout):
    args = wl.argv() if kind in ("work", "traced") else []
    if kind == "traced":
        args = ["--trace", *args]
    run = Run(kind)
    start = time.monotonic_ns()
    with subprocess.Popen([sys.executable, CHILD, *args], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            run.problems.append(f"timed out after {timeout:.0f} s")
            return run
    end = time.monotonic_ns()
    stderr = stderr.decode(errors="replace")
    stats = [json.loads(line[len(STATS_PREFIX):]) for line in stderr.splitlines()
             if line.startswith(STATS_PREFIX)]
    if not stats:
        run.problems.append(f"no stats line (exit code {proc.returncode}): {stderr[-400:]!r}")
        return run
    stats = stats[-1]
    if not stats["module"].startswith(os.path.join(ROOT, "src", "")):
        run.problems.append(f"imported slce from {stats['module']}, not from src/")
    run.wall_s = (end - start) / 1e9
    run.setup_s = (stats["ready_ns"] - start) / 1e9
    run.rss_mb = stats["vmhwm_kb"] / 1024
    run.spans = stats.get("spans")
    run.segments_s, run.scales = cut_segments(start, end, stats)
    run.bytes_out = len(stdout)
    if not args:
        if proc.returncode != 0:
            run.problems.append(f"set-up probe exit code {proc.returncode}")
    else:
        run.problems += check_output(wl, proc.returncode, stdout, stderr, expected)
    return run


def cut_segments(start, end, stats):
    """A run's wall time cut at ready and at each mark, less the calibrations
    made in each segment, and each segment's scale: CALIBRATION_NOMINAL_NS
    over the loop time of the last calibration made by the segment's end
    (the first one, at ready, for the set-up segment)."""
    calibrations = stats.get("calibrations")
    if not calibrations:
        return None, None
    ready = stats["ready_ns"]
    cuts = [start, ready, *(ready + t for t in stats.get("marks_ns", [])), end]
    segments = [b - a for a, b in zip(cuts, cuts[1:])]
    for marks_before, _, duration in calibrations:  # made in segment marks_before + 1
        segments[marks_before + 1] -= duration
    scales, c = [], 0
    for i in range(len(segments)):
        while c + 1 < len(calibrations) and calibrations[c + 1][0] + 1 <= i:
            c += 1
        scales.append(CALIBRATION_NOMINAL_NS / calibrations[c][1])
    return [t / 1e9 for t in segments], scales


def run_workload(wl, seed, seconds, trace):
    """All runs of one invocation. The seed only shuffles the order in which
    timed runs, set-up probes and the traced run interleave."""
    expected = expected_counts(wl)
    start = time.monotonic()
    runs = []

    def launch(kind):
        remaining = BUDGET_S - (time.monotonic() - start)
        if remaining < 1:
            return False
        runs.append(run_child(kind, wl, expected, remaining))
        return not runs[-1].problems

    launch("warmup")  # fills the page and bytecode caches; its times are not kept
    plan = ["work"] * MIN_RUNS + (["traced"] if trace else ["probe"] * PROBES)
    random.Random(seed).shuffle(plan)
    ok = all([launch(kind) for kind in plan])  # a failure does not skip the rest
    while ok and not trace:
        last_wall = [r.wall_s for r in runs if r.kind == "work"][-1]
        if time.monotonic() - start + last_wall > seconds:
            break
        ok = launch("work")
    return expected, runs


def scaled_segments_s(runs):
    """The command's time at a fixed host speed: the sum, over the segments
    every run is cut into, of the median over the runs of the segment's
    time times the host's speed then (its scale).

    A shared host runs whole stretches of seconds up to twice as slow, and
    some last a whole invocation. The scale takes most of that out of each
    segment, and the median per segment drops the segments whose scale is
    off. Runs are deterministic, so they are cut into the same segments;
    should their counts differ, only the runs with the most common count
    are used."""
    counts = collections.Counter(len(r.segments_s) for r in runs)
    size = counts.most_common(1)[0][0]
    cut = [r for r in runs if len(r.segments_s) == size]
    total = sum(statistics.median(r.segments_s[i] * r.scales[i] for r in cut)
                for i in range(size))
    return total, size


def collect_metrics(runs, expected, trace):
    good = [r for r in runs if not r.problems]
    work = [r for r in good if r.kind == "work"]
    values = {}
    if work:
        values["wall_cal_s"], values["segments"] = scaled_segments_s(work)
        values["wall_median_s"] = statistics.median(r.wall_s for r in work)
        values["peak_rss_mb"] = statistics.median(r.rss_mb for r in work)
        setups = [r for r in good if r.kind in ("work", "probe")]
        values["setup_s"] = statistics.median(r.setup_s * r.scales[0] for r in setups)
        values["setup_median_s"] = statistics.median(r.setup_s for r in setups)
    traced = [r for r in good if r.kind == "traced"]
    if trace and traced and work:
        spans, wall = traced[0].spans, traced[0].wall_s
        for name, entry in spans.items():
            for key, value in entry.items():
                values[f"{name}.{key}"] = value
        for check in ("thm1", "thm2", "thm3", "prop", "necessary"):
            values[f"criteria.check_total_s.{check}"] = spans[f"criteria.{check}"]["total_s"]
        values["criteria.contexts"] = expected["contexts"]
        values["criteria.orbits"] = expected["orbits"]
        values["cli.records"] = expected["records"]
        values["cli.bytes_out"] = traced[0].bytes_out
        values["trace.wall_s"] = wall
        values["trace_overhead_frac"] = wall / values["wall_median_s"] - 1
        values["trace_coverage_frac"] = sum(e["self_s"] for e in spans.values()) / wall
    return values


# ---------------------------------------------------------------------------
# environment and reporting


def git_sha():
    """HEAD of the checkout, or None where it is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            return next((line.split()[0] for line in fh if line.split()[-1:] == [ref]), None)
    except OSError:
        return None


def loadavg():
    with open("/proc/loadavg") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def bench(wl, seed, seconds, trace):
    """Run one workload, print its runs and metrics; return the result object."""
    name = wl.name
    print("env " + json.dumps({
        "workload": name, "argv": wl.argv(), "seed": seed, "seconds": seconds,
        "trace": trace, "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "git_sha": git_sha(), "loadavg_start": loadavg()}), flush=True)
    expected, runs = run_workload(wl, seed, seconds, trace)
    for run in runs:
        print(f"run {run.kind:6} wall_s={run.wall_s} setup_s={run.setup_s} "
              f"rss_mb={run.rss_mb} problems={run.problems}")
    values = collect_metrics(runs, expected, trace)
    failed = sum(1 for run in runs if run.problems)
    declared = declared_metrics(trace)
    metrics = {}
    for metric, unit in declared.items():
        if metric in values:
            metrics[metric] = {"value": values[metric], "unit": unit}
            print(f"metric {name} {metric} = {values[metric]} {unit}")
    samples = sum(1 for run in runs if run.kind == "work" and not run.problems)
    print(f"metric {name} wall_cal_s samples = {samples}")
    for extra in ("segments", "wall_median_s", "setup_median_s"):
        if extra in values:
            print(f"metric {name} {extra} = {values[extra]}")
    print(f"metric {name} failed_frac = {failed / len(runs)} ({failed} of {len(runs)} runs)")
    print("env " + json.dumps({"workload": name, "loadavg_end": loadavg()}), flush=True)
    correct = failed == 0 and len(metrics) == len(declared)
    return {"correct": correct, "attempted": len(runs), "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "slce", "cli.py")):
        print(f"error: no slce package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: bench(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

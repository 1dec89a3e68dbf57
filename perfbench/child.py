"""Run one slce CLI command in this fresh process, as the `slce` script would.

    python3 perfbench/child.py [--trace] [CLI ARGS...]

With no CLI arguments it only imports `slce.cli` (a set-up probe). The CLI's
stdout and exit code pass through untouched. After the command, one line
starting with STATS_PREFIX goes to stderr with the moment `slce.cli` was
ready (CLOCK_MONOTONIC, comparable with the parent's clock), the peak
resident set of this process and either the spans of spans.py (--trace)
or the calibrations of spans.Marks, one at ready and, for a command, more
as it runs, with the start of each call in spans.MARKS (ns after ready).
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATS_PREFIX = "perfbench-stats "


def peak_rss_kb():
    # VmHWM is this process's own high-water mark; the rusage a parent gets
    # from wait4 carries the parent's mark across fork and exec instead.
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv):
    trace = argv[:1] == ["--trace"]
    cli_args = argv[1:] if trace else argv
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import slce.cli

    stats = {"ready_ns": time.monotonic_ns(), "module": slce.cli.__file__}
    tracer = marks = None
    if trace:
        from spans import Tracer

        tracer = Tracer().install()
    else:
        from spans import Marks

        marks = Marks()
        if cli_args:
            marks.install()
        marks.calibrate()
    rc = 0
    if cli_args:
        rc = slce.cli.main(cli_args)
        sys.stdout.flush()
    stats["vmhwm_kb"] = peak_rss_kb()
    if tracer is not None:
        stats["spans"] = tracer.report()
    if marks is not None:
        stats["marks_ns"] = [t - stats["ready_ns"] for t in marks.times_ns]
        stats["calibrations"] = marks.calibrations
    print(STATS_PREFIX + json.dumps(stats), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

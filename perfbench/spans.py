"""Per-layer spans recorded from outside the slce package.

`Tracer.install()` replaces each public function named in TARGETS with a
timing wrapper. A function is rebound on its defining module and on every
slce module that imported it by name (criteria holds its own reference to
`k_sum_counts`, cli to `berlekamp_massey` and `run_verify`), and a method
under every class attribute that refers to it (`CycInt.__rmul__` is
`__mul__`). Self time is a span's duration minus the time of the wrapped
spans it called, so the self times of all spans add up to the root span's
duration.

`Marks.install()` wraps the functions in MARKS with a wrapper that records
when each call starts and, every quarter second, how long a fixed
calibration loop takes. Timed runs use it to cut the command's wall time
into segments that line up from one run to the next and to scale each
segment by the host's speed at the time (run.py).
"""

import array
import functools
import sys
import time

# (span name, defining module, attribute) for every wrapped public function.
TARGETS = (
    ("ff.build_field", "slce.ff", "build_field"),
    ("ff.build_residue_field", "slce.ff", "build_residue_field"),
    ("seq.generate_slce", "slce.seq", "generate_slce"),
    ("seq.autocorrelation", "slce.seq", "autocorrelation"),
    ("polybin.factor_phi_mod2", "slce.polybin", "factor_phi_mod2"),
    ("polybin.berlekamp_massey", "slce.polybin", "berlekamp_massey"),
    ("polybin.lc_via_gcd", "slce.polybin", "lc_via_gcd"),
    ("cyclo.fold", "slce.cyclo", "CycInt.from_exponent_counts"),
    ("cyclo.k_sum_counts", "slce.cyclo", "k_sum_counts"),
    ("cyclo.cycint_mul", "slce.cyclo", "CycInt.__mul__"),
    ("cyclo.ideal_membership", "slce.cyclo", "ideal_membership"),
    ("criteria.matrix_rows", "slce.criteria", "AnalysisContext.matrix_rows"),
    ("criteria.multiplicity_profile", "slce.criteria", "multiplicity_profile"),
    ("criteria.derivative_vanishes_direct", "slce.criteria", "derivative_vanishes_direct"),
    ("criteria.thm1", "slce.criteria", "thm1_check"),
    ("criteria.thm2", "slce.criteria", "thm2_check"),
    ("criteria.thm3", "slce.criteria", "thm3_check"),
    ("criteria.prop", "slce.criteria", "prop_check"),
    ("criteria.necessary", "slce.criteria", "necessary_condition_check"),
    ("criteria.analyze_field", "slce.criteria", "analyze_field"),
    ("cli.main", "slce.cli", "main"),
)


# Public functions whose calls cut a timed run into segments: at each field,
# criterion check and Berlekamp-Massey call. autocorrelation, called 36,000
# times by sweep, is left out: its wrapper would cost more than the cut gains.
MARKS = (
    ("slce.ff", "build_field"),
    ("slce.criteria", "analyze_field"),
    ("slce.criteria", "thm1_check"),
    ("slce.criteria", "thm2_check"),
    ("slce.criteria", "thm3_check"),
    ("slce.criteria", "prop_check"),
    ("slce.criteria", "necessary_condition_check"),
    ("slce.polybin", "berlekamp_massey"),
)


def rebind(module, attr, wrap):
    """Replace the function `attr` ("name" or "Class.method") of `module` by
    wrap(function) wherever slce refers to it; return the function."""
    owner = sys.modules[module]
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(owner, cls_name)
        raw = vars(cls)[method]
        if isinstance(raw, classmethod):
            fn, wrapped = raw.__func__, classmethod(wrap(raw.__func__))
        else:
            fn = raw
            wrapped = wrap(raw)
        sites = [(cls, key) for key, value in vars(cls).items() if value is raw]
    else:
        fn = getattr(owner, attr)
        wrapped = wrap(fn)
        modules = [mod for key, mod in sys.modules.items()
                   if key == "slce" or key.startswith("slce.")]
        sites = [(mod, key) for mod in modules
                 for key, value in vars(mod).items() if value is fn]
    for site, key in sites:
        setattr(site, key, wrapped)
    return fn


# The calibration loop: a fixed mix of what slce does most, dict stores and
# lookups under tuple keys and shifts and xors of 1,200-bit integers. Run
# interleaved with slce in the same process, its time rises and falls in
# step with slce's when the host changes speed (a plain arithmetic loop
# slows only about 0.75 times as much). A scaled time is the time the
# segment would take were the loop to take CALIBRATION_NOMINAL_NS, about
# its time at full speed on the 2-vCPU Xeon VM the bounds were set on.
CALIBRATION_KEYS = [(i, i * 7 % 13) for i in range(1000)]
CALIBRATION_SHIFTS = 200
CALIBRATION_NOMINAL_NS = 200_000
CALIBRATE_EVERY_NS = 250_000_000


def calibration_loop():
    table = {}
    for key in CALIBRATION_KEYS:
        table[key] = key[0]
    total = sum(table[key] for key in CALIBRATION_KEYS)
    a = (1 << 1200) | 0x1234567
    for i in range(CALIBRATION_SHIFTS):
        a = (a << 1) ^ (a >> 7) ^ i
        total ^= a & 0xFFFFFFFF
    return total


class Marks:
    """The CLOCK_MONOTONIC time of every call to a function in MARKS, and
    the calibration loop's time about every CALIBRATE_EVERY_NS.

    A calibration is made just before a mark is taken; it is recorded as
    (number of marks so far, best of three loop times, its whole duration).
    A target that slce no longer has is skipped, so a renamed function only
    coarsens the segments."""

    def __init__(self):
        self.times_ns = array.array("q")  # compact: it counts in the peak RSS
        self.calibrations = []
        self.next_calibration_ns = 0

    def calibrate(self):
        clock = time.monotonic_ns
        start = clock()
        best = None
        for _ in range(3):
            t = clock()
            calibration_loop()
            t = clock() - t
            best = t if best is None else min(best, t)
        end = clock()
        self.calibrations.append((len(self.times_ns), best, end - start))
        self.next_calibration_ns = end + CALIBRATE_EVERY_NS

    def _wrap(self, fn):
        append = self.times_ns.append
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def mark(*args, **kwargs):
            now = clock()
            if now >= self.next_calibration_ns:
                self.calibrate()
                now = clock()
            append(now)
            return fn(*args, **kwargs)

        return mark

    def install(self):
        for module, attr in MARKS:
            if hasattr(sys.modules.get(module), attr):
                rebind(module, attr, self._wrap)
        return self


class Tracer:
    """Call counts, total and self time per span name, kept in memory."""

    def __init__(self):
        self.stats = {}  # span name -> [calls, total_ns, self_ns]
        self.originals = {}  # span name -> the unwrapped callable
        self._open = []  # child time accumulated by each open span

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0, 0])
        open_spans = self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration

        return span

    def install(self):
        for name, module, attr in TARGETS:
            self.originals[name] = rebind(module, attr, functools.partial(self._wrap, name))
        return self

    def report(self):
        """{span: {"calls", "total_s", "self_s"[, "cache_misses"]}}."""
        out = {}
        for name, (calls, total_ns, self_ns) in self.stats.items():
            entry = {"calls": calls, "total_s": total_ns / 1e9, "self_s": self_ns / 1e9}
            cache_info = getattr(self.originals[name], "cache_info", None)
            if cache_info is not None:
                entry["cache_misses"] = cache_info().misses
            out[name] = entry
        return out

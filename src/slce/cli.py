"""Command-line front end: generation, complexity reports, verification
sweeps, Gauss/Jacobi sum evaluation, and statistics tables.

Exit codes: 0 success, 1 stdout closed by its reader before the output
was complete (as by `| head`), 2 bad input, 3 criterion/ground-truth
mismatch or internal inconsistency. Output is deterministic: canonical
constructions, sorted records, no timestamps.
"""

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext

from .criteria import (
    ALL_CHECKS,
    CriterionRecord,
    multiplicity_profile,
    normalize_checks,
    verify_fields,
)
from .cyclo import (
    Character,
    gauss_sum_numeric,
    jacobi_sum,
    quadratic_gauss_closed,
    semiprimitive_gauss_closed,
)
from .errors import InternalInconsistency, SlceError
from .ff import build_field, map_fields
from .polybin import berlekamp_massey, lc_via_gcd
from .seq import SlceSequence, autocorrelation, generate_slce, slce_terms


def _add_field_args(parser):
    parser.add_argument("--p", type=int, required=True, help="odd prime characteristic")
    parser.add_argument("--m", type=int, default=1, help="extension degree (default 1)")


def _dump(obj):
    return json.dumps(obj, sort_keys=True)


def _poly_hex(poly):
    """Hex of the little-endian bytes (at least one) of a GF(2)[X] bit-vector."""
    return poly.to_bytes(max(1, (poly.bit_length() + 7) // 8), "little").hex()


def _linear_complexity(s):
    """Berlekamp-Massey and the gcd formula on one binary sequence, and
    whether they agree on both L and c(X)."""
    bm = berlekamp_massey(s.terms)
    gc = lc_via_gcd(s.bits, s.T)
    return bm, gc, bm.L == gc.L and bm.minimal_poly == gc.minimal_poly


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args):
    field = build_field(args.p, args.m)
    terms = slce_terms(field, args.d)
    if (args.format or ("bits" if args.d == 2 else "json")) == "json":
        print(_dump({"p": field.p, "m": field.m, "d": args.d,
                     "alpha_dlog_basis": "canonical", "terms": list(terms)}))
    elif args.d != 2:
        raise SlceError("the bit form of a sequence is defined for d = 2")
    else:
        print(SlceSequence(field, terms).to_bitstring())
    return 0


def cmd_complexity(args):
    field = build_field(args.p, args.m)
    s = generate_slce(field)
    bm, gc, agree = _linear_complexity(s)
    profile = multiplicity_profile(s)
    consistent = agree and gc.L == profile.L
    report = {
        "q": field.q,
        "p": field.p,
        "m": field.m,
        "T": s.T,
        "L": gc.L,
        "minimal_poly_hex": _poly_hex(gc.minimal_poly),
        "methods": {
            "berlekamp_massey": bm.L,
            "gcd_formula": gc.L,
            "multiplicity_profile": profile.L,
        },
        "multiplicity_profile": [
            {"k": k, "e": e, "multiplicity": mult}
            for (k, e), mult in sorted(profile.entries.items())
        ],
        "capped_multiplicity_total": profile.capped_total(),
        "consistent": consistent,
    }
    print(_dump(report))
    if not consistent:
        print("error: linear-complexity methods disagree", file=sys.stderr)
        return 3
    return 0


# One verify record as a JSONL line: json.dumps(record.to_json(),
# sort_keys=True) spelled out, the keys in sorted order, JSON booleans, and
# a check name from ALL_CHECKS, which is plain ASCII and needs no escaping
_RECORD_JSONL = ('{"check": "%s", "e": %s, "ground_truth": %s, "index": %d, "k": %d, '
                 '"m": %d, "match": %s, "p": %d, "predicted": %s, "q": %d}\n')
_JSON_BOOL = ("false", "true")


def _jsonl_line(r):
    q, p, m, k, e, check, index, predicted, ground_truth, match = r
    return _RECORD_JSONL % (check, e, _JSON_BOOL[ground_truth], index, k,
                            m, _JSON_BOOL[match], p, _JSON_BOOL[predicted], q)


def _csv_line(row):
    # csv.writer's line: no value of a verify record or a sweep row holds a
    # comma, a quote or a line break, so none is quoted
    return ",".join(map(str, row)) + "\r\n"


def cmd_verify(args):
    checks = ALL_CHECKS if args.theorems is None else normalize_checks(args.theorems.split(","))
    fields = verify_fields(args.qmax, p_filter=args.p, checks=checks, jobs=args.jobs)
    line = _csv_line if args.format == "csv" else _jsonl_line
    summary = {"contexts": 0, "checks": 0, "mismatches": 0}

    def lines():
        # each distinct (k, verdicts) block of a field is rendered once, with
        # \0 for e and split there, and counted once
        for q, p, m, contexts in fields:
            blocks = {}
            for k, e, verdicts in contexts:
                block = blocks.get((k, verdicts))
                if block is None:
                    block = blocks[k, verdicts] = (
                        "".join(line((q, p, m, k, "\0") + v) for v in verdicts).split("\0"),
                        len(verdicts), sum(not v[4] for v in verdicts))
                pieces, checked, mismatches = block
                summary["contexts"] += checked > 0
                summary["checks"] += checked
                summary["mismatches"] += mismatches
                yield str(e).join(pieces)

    _write_lines(args, CriterionRecord._fields, lines())
    dest = sys.stdout if args.output else sys.stderr
    print(_dump({"summary": summary}), file=dest)
    return 0 if summary["mismatches"] == 0 else 3


def cmd_gauss(args):
    modes = (args.quadratic, args.semiprimitive is not None, args.a is not None)
    if sum(modes) != 1:
        raise SlceError("choose exactly one of --quadratic, --semiprimitive N, --a A")
    field = build_field(args.p, args.m)
    q = field.q
    if args.quadratic:
        closed = quadratic_gauss_closed(args.p, args.m)
        numeric = gauss_sum_numeric(Character.quadratic(field))
        agree = abs(numeric - closed.to_complex()) <= 1e-6 * math.sqrt(q)
        print(_dump({
            "kind": "quadratic",
            "numeric": {"re": numeric.real, "im": numeric.imag},
            "closed": str(closed),
            "agree": agree,
        }))
        return 0
    if args.semiprimitive is not None:
        res = semiprimitive_gauss_closed(args.p, args.m, args.semiprimitive)
        print(_dump({
            "kind": "semiprimitive",
            "N": args.semiprimitive,
            "value": res.value,
            "magnitude": res.magnitude,
            "formula_sign": res.formula_sign,
            "numeric_sign": res.numeric_sign,
            "agree": not res.formula_mismatch,
        }))
        return 0
    chi = Character(field, args.a)
    numeric = gauss_sum_numeric(chi)
    print(_dump({
        "kind": "generic",
        "a": args.a,
        "order": chi.order,
        "numeric": {"re": numeric.real, "im": numeric.imag},
        "abs_squared": abs(numeric) ** 2,
        "expected_abs_squared": 1.0 if chi.is_trivial else float(q),
    }))
    return 0


def cmd_jacobi(args):
    field = build_field(args.p, args.m)
    J = jacobi_sum(Character(field, args.a1), Character(field, args.a2))
    print(_dump(J.to_json()))
    return 0


SWEEP_FIELDS = ("q", "p", "m", "T", "u", "t_odd", "L", "lc_methods_agree", "ones",
                "balanced", "s_half_zero", "min_poly_hex", "autocorr_offpeak")


def sweep_row(p, m):
    """The statistics row of one field, keyed by SWEEP_FIELDS."""
    field = build_field(p, m)
    s = generate_slce(field)
    _, gc, agree = _linear_complexity(s)
    ones = s.terms.count(1)
    offpeak = sorted(set(autocorrelation(s)[1:]))
    return {
        "q": field.q, "p": p, "m": m, "T": s.T, "u": s.u, "t_odd": s.Tprime,
        "L": gc.L, "lc_methods_agree": agree,
        "ones": ones, "balanced": ones * 2 == s.T,
        "s_half_zero": s.terms[s.T // 2] == 0,
        "min_poly_hex": _poly_hex(gc.minimal_poly),
        "autocorr_offpeak": "|".join(str(v) for v in offpeak),
    }


def cmd_sweep(args):
    rows = map_fields(sweep_row, args.qmax, args.p)
    if args.format == "csv":
        lines = (_csv_line(map(row.get, SWEEP_FIELDS)) for row in rows)
    else:
        lines = (_dump(row) + "\n" for row in rows)
    _write_lines(args, SWEEP_FIELDS, lines)
    return 0


def _write_lines(args, fields, lines):
    """Write each line as it arrives to --output or stdout, in CSV under a
    header of fields. An --output that cannot be opened is bad input."""
    try:
        dest = open(args.output, "w", newline="") if args.output else nullcontext(sys.stdout)
    except OSError as exc:
        raise SlceError(f"cannot open --output {args.output}: {exc.strerror}") from exc
    with dest as out:
        if args.format == "csv":
            out.write(",".join(fields) + "\r\n")
        out.writelines(lines)


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="slce",
        description="Binary SLCE sequences: generation, linear complexity, "
                    "and exact character-sum divisibility criteria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit one period of the sequence")
    _add_field_args(g)
    g.add_argument("--d", type=int, default=2, help="alphabet size (prime, d | q-1)")
    g.add_argument("--format", choices=("bits", "json"), default=None)
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("complexity", help="linear complexity via all methods")
    _add_field_args(c)
    c.set_defaults(func=cmd_complexity)

    v = sub.add_parser("verify", help="run the criterion/ground-truth sweep")
    v.add_argument("--qmax", type=int, required=True)
    v.add_argument("--p", type=int, default=None, help="restrict to one characteristic")
    v.add_argument("--theorems", default=None,
                   help="comma list: 1,2,3,prop1..prop4,necessary (default all)")
    v.add_argument("--output", default=None, help="write records here (default stdout)")
    v.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    v.add_argument("--jobs", type=int, default=1, help="parallel workers")
    v.set_defaults(func=cmd_verify)

    ga = sub.add_parser("gauss", help="Gauss sums: numeric and closed forms")
    _add_field_args(ga)
    ga.add_argument("--quadratic", action="store_true")
    ga.add_argument("--semiprimitive", type=int, default=None, metavar="N")
    ga.add_argument("--a", type=int, default=None, help="character index")
    ga.set_defaults(func=cmd_gauss)

    j = sub.add_parser("jacobi", help="exact Jacobi sum J(eta_a1, eta_a2)")
    _add_field_args(j)
    j.add_argument("--a1", type=int, required=True)
    j.add_argument("--a2", type=int, required=True)
    j.set_defaults(func=cmd_jacobi)

    s = sub.add_parser("sweep", help="per-field statistics table")
    s.add_argument("--qmax", type=int, required=True)
    s.add_argument("--p", type=int, default=None)
    s.add_argument("--output", default=None)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull, so the interpreter's
        # last flush stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except (SlceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

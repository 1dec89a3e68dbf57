"""CLI contract: subcommands, formats, exit codes, determinism."""

import csv
import io
import itertools
import json
import os
import pickle
import subprocess
import sys

import pytest

import slce
from slce.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_q7_bits(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--p", "7", "--m", "1")
        assert code == 0 and out.strip() == "001011"

    def test_q5_json(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--p", "5", "--m", "1",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["terms"] == [1, 1, 0, 0]

    def test_even_p_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--p", "2", "--m", "3")
        assert code == 2
        assert "odd" in err

    def test_ternary_json_default(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--p", "7", "--d", "3")
        assert code == 0
        assert json.loads(out)["d"] == 3

    def test_ternary_bits_rejected(self, capsys):
        code, out, err = run_cli(capsys, "generate", "--p", "7", "--d", "3",
                                 "--format", "bits")
        assert code == 2 and out == ""
        assert err == "error: the bit form of a sequence is defined for d = 2\n"

    def test_zero_alphabet_rejected(self, capsys):
        code, out, err = run_cli(capsys, "generate", "--p", "7", "--d", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestComplexity:
    def test_q7(self, capsys):
        code, out, _ = run_cli(capsys, "complexity", "--p", "7")
        doc = json.loads(out)
        assert code == 0 and doc["L"] == 6 and doc["consistent"]

    def test_q5(self, capsys):
        code, out, _ = run_cli(capsys, "complexity", "--p", "5")
        doc = json.loads(out)
        assert code == 0 and doc["L"] == 3

    def test_profile_sums_to_T_minus_L(self, capsys):
        code, out, _ = run_cli(capsys, "complexity", "--p", "13")
        doc = json.loads(out)
        total = sum(r["multiplicity"] for r in doc["multiplicity_profile"])
        assert total == doc["T"] - doc["L"] == doc["capped_multiplicity_total"]

    def test_q191_finishes(self, capsys):
        # Phi_95 mod 2 has two factors of degree 36
        code, out, _ = run_cli(capsys, "complexity", "--p", "191")
        assert code == 0 and json.loads(out)["consistent"] is True

    def test_q8209_in_seconds(self, capsys):
        import time

        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "complexity", "--p", "8209")
        assert code == 0 and json.loads(out)["consistent"] is True
        assert time.perf_counter() - start < 10


class TestVerify:
    def test_clean_sweep_exit_0(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--qmax", "30")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert all(rec["match"] for rec in lines)
        assert json.loads(err.strip().splitlines()[-1])["summary"]["mismatches"] == 0

    def test_vacuous_qmax6(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--qmax", "6")
        assert code == 0 and out == ""
        assert json.loads(err.strip().splitlines()[-1])["summary"]["contexts"] == 0

    def test_single_check_filter(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--qmax", "26", "--theorems", "prop1")
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert recs and all(r["check"] == "prop1" for r in recs)

    def test_csv_output(self, tmp_path, capsys):
        path = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, "verify", "--qmax", "20",
                               "--format", "csv", "--output", str(path))
        assert code == 0
        header, *rows = path.read_text().strip().splitlines()
        assert header == "q,p,m,k,e,check,index,predicted,ground_truth,match"
        assert rows
        assert json.loads(out.strip())["summary"]["mismatches"] == 0

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli(capsys, "verify", "--qmax", "26", "--output", str(a))
        run_cli(capsys, "verify", "--qmax", "26", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_2(self, capsys, jobs):
        code, _, err = run_cli(capsys, "verify", "--qmax", "29", "--jobs", jobs)
        assert code == 2 and "jobs" in err

    def test_jobs_clamped_to_fields_and_cpus(self, capsys, monkeypatch):
        import multiprocessing
        import os

        started = []

        class FakePool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, args):
                return map(fn, args)

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        # one field (q = 3): no pool at all
        code, _, _ = run_cli(capsys, "verify", "--qmax", "3", "--jobs", "2")
        assert code == 0 and started == []
        # one CPU: no pool at all
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        code, _, _ = run_cli(capsys, "verify", "--qmax", "29", "--jobs", "2")
        assert code == 0 and started == []
        # two CPUs and twelve fields: two workers
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        code, _, _ = run_cli(capsys, "verify", "--qmax", "29", "--jobs", "2")
        assert code == 0 and started == [2]

    def test_unknown_theorem_token(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--qmax", "20",
                               "--theorems", "thm9")
        assert code == 2 and "unknown" in err

    @pytest.mark.parametrize("bad", [
        ("verify", "--qmax", "20", "--format", "csv", "--jobs", "0"),
        ("verify", "--qmax", "100000"),
        ("verify", "--qmax", "20", "--theorems", "thm9"),
        ("verify", "--qmax", "7", "--theorems", ""),
        ("verify", "--qmax", "7", "--theorems", "1,,2"),
        ("sweep", "--qmax", "100000"),
        ("verify", "--qmax", "100", "--p", "9"),
        ("verify", "--qmax", "100", "--p", "2"),
        ("sweep", "--qmax", "100", "--p", "15"),
    ], ids=" ".join)
    @pytest.mark.parametrize("to_file", [False, True])
    def test_bad_input_writes_nothing(self, tmp_path, capsys, bad, to_file):
        path = tmp_path / "out"
        argv = bad + (("--output", str(path)) if to_file else ())
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "error" in err
        assert not path.exists()

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command, where):
        output = tmp_path / "missing" / "out" if where == "missing directory" else tmp_path
        code, out, err = run_cli(capsys, command, "--qmax", "7", "--output", str(output))
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_summary_counts_printed_records(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--qmax", "31")
        recs = [json.loads(line) for line in out.splitlines()]
        summary = json.loads(err.strip().splitlines()[-1])["summary"]
        assert code == 0 and recs
        assert summary["checks"] == len(recs)
        assert summary["contexts"] == len({(r["q"], r["k"], r["e"]) for r in recs})
        assert summary["mismatches"] == sum(not r["match"] for r in recs)

    def test_full_sweep_qmax_128(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--qmax", "128",
                               "--theorems", "1,2,3")
        assert code == 0
        summary = json.loads(err.strip().splitlines()[-1])["summary"]
        assert summary["mismatches"] == 0 and summary["contexts"] == 602


class TestGauss:
    def test_quadratic_f5(self, capsys):
        code, out, _ = run_cli(capsys, "gauss", "--p", "5", "--m", "1", "--quadratic")
        doc = json.loads(out)
        assert code == 0 and doc["agree"]
        assert abs(doc["numeric"]["re"] - 2.23607) < 1e-4
        assert doc["closed"] == "+sqrt(5)"

    def test_quadratic_f9(self, capsys):
        code, out, _ = run_cli(capsys, "gauss", "--p", "3", "--m", "2", "--quadratic")
        doc = json.loads(out)
        assert code == 0 and doc["agree"] and doc["closed"] == "+3"

    def test_semiprimitive(self, capsys):
        code, out, _ = run_cli(capsys, "gauss", "--p", "5", "--m", "2",
                               "--semiprimitive", "3")
        doc = json.loads(out)
        assert code == 0 and abs(doc["value"]) == 5 and doc["agree"]

    def test_generic_index(self, capsys):
        code, out, _ = run_cli(capsys, "gauss", "--p", "7", "--m", "1", "--a", "2")
        doc = json.loads(out)
        assert code == 0
        assert abs(doc["abs_squared"] - 7) < 1e-6

    def test_no_mode_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "gauss", "--p", "7", "--m", "1")
        assert code == 2

    @pytest.mark.parametrize("modes", [
        ("--quadratic", "--semiprimitive", "3"),
        ("--quadratic", "--a", "4"),
        ("--semiprimitive", "3", "--a", "4"),
        ("--a", "4", "--quadratic", "--semiprimitive", "3"),
    ], ids=["quadratic+semiprimitive", "quadratic+a", "semiprimitive+a", "all-three"])
    def test_more_than_one_mode_exit_2(self, capsys, modes):
        code, out, err = run_cli(capsys, "gauss", "--p", "13", *modes)
        assert code == 2 and out == ""
        assert "exactly one" in err


class TestJacobi:
    def test_f5_quadratic_pair(self, capsys):
        code, out, _ = run_cli(capsys, "jacobi", "--p", "5", "--m", "1",
                               "--a1", "2", "--a2", "2")
        doc = json.loads(out)
        assert code == 0 and doc == {"conductor": 2, "coeffs": ["-1"]}

    def test_trivial_pair(self, capsys):
        code, out, _ = run_cli(capsys, "jacobi", "--p", "7", "--m", "1",
                               "--a1", "0", "--a2", "0")
        assert json.loads(out) == {"conductor": 1, "coeffs": ["5"]}

    def test_f7_norm(self, capsys):
        code, out, _ = run_cli(capsys, "jacobi", "--p", "7", "--m", "1",
                               "--a1", "3", "--a2", "2")
        doc = json.loads(out)
        coeffs = [int(c) for c in doc["coeffs"]]
        # |1 + 2 z6|^2 = 7
        assert doc["conductor"] == 6 and coeffs == [1, 2]


class TestSweep:
    def test_csv_table(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--qmax", "13")
        assert code == 0
        header, *rows = out.strip().splitlines()
        assert header.startswith("q,p,m,T,u,t_odd,L")
        qs = [int(r.split(",")[0]) for r in rows]
        assert qs == [3, 5, 7, 9, 11, 13]

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--qmax", "9", "--format", "json")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["q"] for r in rows] == [3, 5, 7, 9]
        assert all(r["balanced"] and r["s_half_zero"] for r in rows)

    def test_methods_agree_compares_minimal_polys(self, monkeypatch):
        import slce.cli as cli_mod
        from slce.polybin import LinearComplexityResult

        berlekamp_massey = cli_mod.berlekamp_massey

        def wrong_poly(bits):
            r = berlekamp_massey(bits)  # right L, wrong c(X)
            return LinearComplexityResult(r.L, r.minimal_poly ^ 0b10)

        assert cli_mod.sweep_row(13, 1)["lc_methods_agree"] is True
        monkeypatch.setattr(cli_mod, "berlekamp_massey", wrong_poly)
        assert cli_mod.sweep_row(13, 1)["lc_methods_agree"] is False


class TestSizeCap:
    def test_cap_enforced(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--qmax", "100000")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("generate", "--p", "3", "--m", "10000000"),
        ("generate", "--p", "1000000000000000003"),
        ("verify", "--qmax", "100", "--p", "1000000000000000003"),
    ], ids=" ".join)
    def test_cap_checked_before_power_and_primality(self, capsys, argv):
        import time

        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "exceeds the size cap 65536" in err
        assert len(err) < 200
        assert time.perf_counter() - start < 2


class TestRecordWriter:
    """verify's JSONL and CSV lines against json.dumps and csv.DictWriter,
    for every check name and every verdict triple, stamped on contexts that
    share one verdict block, hold an equal copy of it, hold it under another
    k, or hold no verdicts at all."""

    @staticmethod
    def fields():
        from slce.criteria import ALL_CHECKS

        verdicts = tuple((check, index, predicted, ground_truth, match)
                         for check in ALL_CHECKS
                         for predicted, ground_truth, match
                         in itertools.product((False, True), repeat=3)
                         for index in (0, 2**70))
        copy = tuple(list(verdicts))
        assert copy == verdicts and copy is not verdicts
        return [(3, 3, 1, [(1, 1, verdicts)]),
                (43046721, 3, 16, [(21523361, 1, verdicts), (21523361, 2, copy),
                                   (21523361, 4, ()), (21523361, 21523359, verdicts[::-1]),
                                   (21523363, 8, verdicts)])]

    @classmethod
    def records(cls):
        from slce.criteria import CriterionRecord

        return [CriterionRecord(q, p, m, k, e, *verdict)
                for q, p, m, contexts in cls.fields()
                for k, e, verdicts in contexts for verdict in verdicts]

    def verify_output(self, capsys, monkeypatch, *argv):
        import slce.cli as cli_mod

        monkeypatch.setattr(cli_mod, "verify_fields", lambda *a, **kw: iter(self.fields()))
        code, out, err = run_cli(capsys, "verify", "--qmax", "8", *argv)
        assert code == 3
        records = self.records()
        assert json.loads(err)["summary"] == {
            "contexts": len({(r.q, r.k, r.e) for r in records}),
            "checks": len(records),
            "mismatches": sum(not r.match for r in records)}
        return out

    def test_jsonl_lines(self, capsys, monkeypatch):
        from slce.criteria import CriterionRecord

        fields = CriterionRecord._fields
        expected = "".join(json.dumps(dict(zip(fields, r)), sort_keys=True) + "\n"
                           for r in self.records())
        assert self.verify_output(capsys, monkeypatch) == expected

    def test_csv_lines(self, capsys, monkeypatch):
        from slce.criteria import CriterionRecord

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CriterionRecord._fields)
        writer.writeheader()
        for r in self.records():
            writer.writerow(r.to_json())
        assert self.verify_output(capsys, monkeypatch, "--format", "csv") == buf.getvalue()

    def test_record_is_its_tuple(self):
        from slce.criteria import CriterionRecord

        for r in self.records():
            assert r == tuple(r) and r.to_json() == dict(zip(CriterionRecord._fields, r))
            back = pickle.loads(pickle.dumps(r))
            assert back == r and type(back) is CriterionRecord


class TestVerifyBlocks:
    """verify renders each Galois orbit's shared verdict block once; its
    output must still be what the reference writers make of run_verify's
    records, on real fields."""

    @pytest.mark.parametrize("argv,kwargs", [
        (("--qmax", "128"), {"q_max": 128}),
        # 2 generates the units mod 121, so all 110 contexts of k = 121 share a block
        (("--p", "3", "--qmax", "243"), {"q_max": 243, "p_filter": 3}),
    ], ids=["qmax 128", "3^5"])
    def test_output_is_the_reference_writers_on_run_verify(self, capsys, argv, kwargs):
        from slce.criteria import CriterionRecord, run_verify

        records = list(run_verify(**kwargs))
        assert records
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0
        assert out == "".join(json.dumps(r.to_json(), sort_keys=True) + "\n" for r in records)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CriterionRecord._fields)
        writer.writeheader()
        writer.writerows(r.to_json() for r in records)
        code, out, _ = run_cli(capsys, "verify", *argv, "--format", "csv")
        assert code == 0 and out == buf.getvalue()

    @pytest.mark.parametrize("p,m", [(127, 1), (3, 5)])
    def test_orbit_members_share_one_verdicts_object(self, p, m):
        from slce.criteria import analyze_field, galois_orbits

        contexts = {(k, e): verdicts for k, e, verdicts in analyze_field(p, m)}
        for k in {k for k, _ in contexts}:
            for e, members in galois_orbits(k):
                assert all(contexts[k, x] is contexts[k, e] for x in members)
        if (p, m) == (3, 5):
            assert len({id(v) for (k, _), v in contexts.items() if k == 121}) == 1

    def test_verify_builds_no_records(self, capsys, monkeypatch):
        from slce.criteria import CriterionRecord, run_verify

        built = []
        new = CriterionRecord.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(CriterionRecord, "__new__", counting)
        assert next(run_verify(7)).q == 7 and len(built) == 1  # the count sees a record
        built.clear()
        code, out, _ = run_cli(capsys, "verify", "--qmax", "49")
        assert code == 0 and len(out.splitlines()) == 1236
        assert built == []


class TestExitCode3:
    def test_verify_mismatch_exits_3(self, capsys, monkeypatch):
        import slce.cli as cli_mod

        fake = [(7, 7, 1, [(3, 1, (("thm1", 0, True, False, False),))])]

        def fake_verify(*args, **kwargs):
            return iter(fake)

        monkeypatch.setattr(cli_mod, "verify_fields", fake_verify)
        code, out, err = run_cli(capsys, "verify", "--qmax", "8")
        assert code == 3
        assert out == (
            '{"check": "thm1", "e": 1, "ground_truth": false, "index": 0, "k": 3, '
            '"m": 1, "match": false, "p": 7, "predicted": true, "q": 7}\n'
        )
        assert err == '{"summary": {"checks": 1, "contexts": 1, "mismatches": 1}}\n'

        code, out, err = run_cli(capsys, "verify", "--qmax", "8", "--format", "csv")
        assert code == 3
        assert out == ("q,p,m,k,e,check,index,predicted,ground_truth,match\r\n"
                       "7,7,1,3,1,thm1,0,True,False,False\r\n")
        assert err == '{"summary": {"checks": 1, "contexts": 1, "mismatches": 1}}\n'

    def test_internal_inconsistency_exits_3(self, capsys, monkeypatch):
        import slce.criteria as criteria_mod

        # chi(alpha) must reduce to beta = gamma^e mod P; break that invariant
        # by sending alpha to z^0 = 1, which reduces to 1 != gamma^e
        monkeypatch.setattr(criteria_mod.Character, "exponent_at", lambda chi, n: 0)
        code, out, err = run_cli(capsys, "verify", "--qmax", "7")
        assert code == 3 and "internal inconsistency" in err

    def test_failure_mid_run_keeps_written_rows(self, capsys, monkeypatch):
        import slce.criteria as criteria_mod
        from slce.errors import InternalInconsistency

        analyze_field = criteria_mod.analyze_field

        def failing_at_q9(p, m, *args, **kwargs):
            if p**m == 9:
                raise InternalInconsistency("broken at q = 9")
            return analyze_field(p, m, *args, **kwargs)

        monkeypatch.setattr(criteria_mod, "analyze_field", failing_at_q9)
        code, out, err = run_cli(capsys, "verify", "--qmax", "13")
        assert code == 3 and "q = 9" in err and "summary" not in err
        assert {json.loads(line)["q"] for line in out.splitlines()} == {7}

    def test_complexity_inconsistency_exits_3(self, capsys, monkeypatch):
        import slce.cli as cli_mod
        from slce.polybin import LinearComplexityResult

        def broken_bm(bits):
            return LinearComplexityResult(0, 1)

        monkeypatch.setattr(cli_mod, "berlekamp_massey", broken_bm)
        code, out, err = run_cli(capsys, "complexity", "--p", "7")
        assert code == 3 and "disagree" in err


class TestClosedPipe:
    """A reader that closes stdout early (`slce ... | head -1`) ends the
    run with exit 1 and no traceback, with stdout buffered or not. Both
    outputs are larger than a pipe's buffer, so a write fails after the
    close whatever the timing."""

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("argv,lines", [
        (("verify", "--qmax", "200"), 1),
        (("sweep", "--qmax", "2048"), 2),
    ])
    def test_reader_closes_early(self, argv, lines, unbuffered):
        src = os.path.dirname(os.path.dirname(slce.__file__))
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-m", "slce.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for _ in range(lines):
            assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
        assert b"Traceback" not in err and b"Exception ignored" not in err

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every tolerance and bound is pinned here; nothing is deferred.
"""

import math
import time
from functools import lru_cache

from slce.criteria import (
    all_ones_power_divides,
    derivative_vanishes_direct,
    lemma1_check,
    multiplicity_profile,
    necessary_condition_check,
    odd_prime_powers,
    prop_check,
    semiprimitive_params,
    semiprimitive_predict,
    thm1_check,
    thm2_check,
    thm3_check,
)
from slce.cyclo import Character, gauss_sum_numeric, jacobi_sum, quadratic_gauss_closed
from slce.errors import NotSemiprimitive
from slce.ff import build_field
from slce.numth import divisors, two_adic_split
from slce.polybin import berlekamp_massey, lc_via_gcd
from slce.seq import autocorrelation, balance_report, generate_slce

from oracles import admissible_contexts, coset_sum, embed


@lru_cache(maxsize=None)
def field_data(p, m):
    field = build_field(p, m)
    s = generate_slce(field, 2)
    return s, multiplicity_profile(s), tuple(admissible_contexts(s))


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_lc_cross_validation():
    t0 = time.perf_counter()
    bad = []
    for p, m, q in odd_prime_powers(128):
        s, prof, _ = field_data(p, m)
        bm = berlekamp_massey(s.terms)
        gc = lc_via_gcd(s.bits, s.T)
        if not (bm.L == gc.L == prof.L and bm.minimal_poly == gc.minimal_poly):
            bad.append(q)
    elapsed = time.perf_counter() - t0
    report(1, not bad and elapsed < 10.0,
           f"LC cross-validation over q <= 128, mismatches={len(bad)}, "
           f"{elapsed:.2f}s (< 10s)")


def test_criterion_02_thm1_equivalence():
    t0 = time.perf_counter()
    checks = bad = 0
    for p, m, q in odd_prime_powers(128):
        s, _, ctxs = field_data(p, m)
        for ctx in ctxs:
            for t in range(1 << s.u):
                checks += 1
                if thm1_check(ctx, t) >> ctx.prime & 1 != derivative_vanishes_direct(ctx, t):
                    bad += 1
    elapsed = time.perf_counter() - t0
    report(2, bad == 0 and elapsed < 60.0,
           f"criterion-1 congruence = direct evaluation on {checks} checks, "
           f"mismatches={bad}, {elapsed:.2f}s (< 60s)")


def test_criterion_03_thm2_equivalence():
    checks = bad = 0
    for p, m, q in odd_prime_powers(128):
        s, _, ctxs = field_data(p, m)
        for ctx in ctxs:
            for t in range(1 << s.u):
                checks += 1
                if thm2_check(ctx, t) >> ctx.prime & 1 != derivative_vanishes_direct(ctx, t):
                    bad += 1
    report(3, bad == 0,
           f"K-sum congruence = direct evaluation on {checks} checks, mismatches={bad}")


def test_criterion_04_thm3_equivalence():
    checks = bad = 0
    for p, m, q in odd_prime_powers(128):
        s, prof, ctxs = field_data(p, m)
        for ctx in ctxs:
            mult = prof.entries[(ctx.k, ctx.e)]
            for h in range(1, s.u + 1):
                checks += 1
                via_matrix = thm3_check(ctx, h) >> ctx.prime & 1 == 1
                via_mult = mult >= (1 << h)
                via_cosets = all(
                    coset_sum(ctx, i, h) == 0 for i in range(1 << h)
                )
                if not (via_matrix == via_mult == via_cosets):
                    bad += 1
                if via_matrix and not necessary_condition_check(ctx, h) >> ctx.prime & 1:
                    bad += 1
    report(4, bad == 0,
           f"matrix congruence = multiplicity >= 2^h = coset sums, plus the "
           f"necessary condition, on {checks} checks, mismatches={bad}")


def test_criterion_05_propositions_collapse():
    checks = bad = 0
    for p, m, q in odd_prime_powers(128):
        s, _, ctxs = field_data(p, m)
        for ctx in ctxs:
            for which in (1, 2, 3, 4):
                if which >= 3 and q % 4 != 1:
                    continue
                checks += 1
                if prop_check(ctx, which) != thm2_check(ctx, which - 1):
                    bad += 1
    report(5, bad == 0,
           f"props 1-4 = criterion 2 at t = 0..3 on {checks} checks, mismatches={bad}")


def test_criterion_06_quadratic_gauss_closed_form():
    count = bad = 0
    for p, m, q in odd_prime_powers(1024):
        field = build_field(p, m)
        numeric = gauss_sum_numeric(Character.quadratic(field))
        closed = quadratic_gauss_closed(p, m).to_complex()
        count += 1
        if abs(numeric - closed) > 1e-6 * math.sqrt(q):
            bad += 1
    report(6, bad == 0,
           f"quadratic closed form vs numeric over {count} fields q <= 1024, "
           f"rel tol 1e-6, mismatches={bad}")


def test_criterion_07_gauss_jacobi_relation():
    pairs = bad = 0
    for p, m, q in odd_prime_powers(64):
        field = build_field(p, m)
        qm1 = q - 1
        G = [gauss_sum_numeric(Character(field, a)) for a in range(qm1)]
        for a1 in range(qm1):
            for a2 in range(qm1):
                if (a1 + a2) % qm1 == 0:
                    continue  # product character is trivial
                pairs += 1
                J = jacobi_sum(Character(field, a1), Character(field, a2))
                ref = G[a1] * G[a2] / G[(a1 + a2) % qm1]
                if abs(embed(J) - ref) > 1e-6 * max(1.0, abs(ref)):
                    bad += 1
    report(7, bad == 0,
           f"G(chi1)G(chi2)/G(chi1 chi2) = J over {pairs} pairs, q <= 64, "
           f"rel tol 1e-6, mismatches={bad}")


def qualifying_semiprimitive_cases(q_max):
    cases = []
    for p, m, q in odd_prime_powers(q_max):
        u, Tprime = two_adic_split(q - 1)
        for k in divisors(Tprime):
            if k == 1:
                continue
            for h in range(1, u + 1):
                try:
                    semiprimitive_params(p, m, k, h)
                except NotSemiprimitive:
                    continue
                cases.append((p, m, k, h))
    return cases


def test_criterion_08_semiprimitive_suite():
    t0 = time.perf_counter()
    cases = qualifying_semiprimitive_cases(1024)
    assert (5, 2, 3, 1) in cases and (3, 4, 5, 1) in cases and (5, 4, 3, 1) in cases
    bad = []
    for p, m, k, h in cases:
        if not lemma1_check(p, m, k, h):
            bad.append(("lemma1", p, m, k, h))
        s, prof, _ = field_data(p, m)
        for (kk, e), mult in prof.entries.items():
            if kk == k and not (mult == 0 or mult >= (1 << h)):
                bad.append(("gap", p, m, k, h, e, mult))
        if semiprimitive_predict(p, m, k, h) != all_ones_power_divides(s, k, h):
            bad.append(("predict", p, m, k, h))
    elapsed = time.perf_counter() - t0
    report(8, not bad and elapsed < 300.0,
           f"lemma-1 collapse, multiplicity gap, parity rule vs division over "
           f"{len(cases)} qualifying cases q <= 1024 (q = 625 included), "
           f"failures={bad or 0}, {elapsed:.2f}s (< 300s)")


def test_criterion_09_sequence_statistics():
    bad = []
    for p, m, q in odd_prime_powers(128):
        s, _, _ = field_data(p, m)
        if s.terms[s.T // 2] != 0:
            bad.append(("midpoint", q))
        if balance_report(s)[1] != s.T // 2:
            bad.append(("balance", q))
        c = autocorrelation(s)
        if c[0] != s.T:
            bad.append(("peak", q))
        for tau in range(1, s.T // 2 + 1):
            if c[tau] != c[s.T - tau]:
                bad.append(("symmetry", q, tau))
                break
    report(9, not bad,
           f"s_(T/2) = 0, ones = T/2, C(0) = T, C(tau) = C(T - tau) for all "
           f"q <= 128, failures={bad or 0}")


def test_criterion_10_known_answer_spot_checks():
    ok = True
    s7 = generate_slce(build_field(7, 1), 2)
    ok &= s7.to_bitstring() == "001011"
    ok &= lc_via_gcd(s7.bits, 6).L == 6
    s5 = generate_slce(build_field(5, 1), 2)
    ok &= s5.terms == (1, 1, 0, 0)
    ok &= lc_via_gcd(s5.bits, 4).L == 3
    F5 = build_field(5, 1)
    rho = Character.quadratic(F5)
    J = jacobi_sum(rho, rho)
    ok &= J.conductor == 2 and J.coeffs == (-1,)
    report(10, ok,
           'q=7 bits "001011" with L=6; q=5 terms (1,1,0,0) with L=3; '
           "J(rho,rho) = -1 over GF(5)")

"""Near misses: each criterion with one constant rewritten the way a
misreading of the paper would write it must disagree with the ground truth
somewhere, or a run with zero mismatches would show nothing. Each variant
replaces its check in slce.criteria, where analyze_field looks it up at
call time, and returns ideal_membership's int of verdicts at every prime
over 2 as the check it replaces does, so analyze_field runs it once per
(sequence, k, index) and every context reads its own bit; the package
gains no switch.

  * thm1 tested modulo P instead of 2P;
  * thm2 with the exact binomial constant C(T/2, t) 2^h in place of its
    parity times 2^h, which q = 13, t = 1 flips (thm2_check's docstring);
  * thm3 without the 2^h indicator of T/2 mod 2^h;
  * the necessary condition tested modulo 4P instead of 2P;
  * prop 1 tested modulo P instead of 2P;
  * prop 2 in its q = 3 mod 4 form K0 + K1 + 2 at q = 1 mod 4 as well;
  * props 3 and 4 with s = +1 at q = 5 mod 8 too, so the sign of z4 is
    never flipped.

For each, `slce verify` exits 3 at the smallest q where it fails.

The ground truth gets two near misses too: the parity table without its
superset sum, so that masks[t] keeps only the n with n mod 2^u = t, which
reads Lucas's theorem as n = t (it has its own name, since the table is
held on the sequence under its builder's name); and every Hasse sum
evaluated at beta^-1 = gamma^-e instead of beta = gamma^e, which pairs chi
with the conjugate of beta."""

import math
from functools import wraps

import pytest

from slce import criteria
from slce.cli import main
from slce.criteria import _every, _per_sequence, _rho_sums, run_verify
from slce.cyclo import ideal_membership
from slce.numth import fold_plan, pack, rotate
from slce.polybin import binom_mod2, bit_length_h, index_set


def thm1_modulo_p(ctx, t):
    row, k = _rho_sums(ctx.seq)[t], ctx.k
    counts = [sum(row[j::k]) for j in range(k)]
    counts[0] += binom_mod2(ctx.seq.T // 2, t)
    plan = fold_plan(k, k, max(map(abs, counts)), 1)
    return ideal_membership(pack(counts, plan), ctx.rf, 0, plan)


def thm2_exact_binomial(ctx, t):
    h = bit_length_h(t)
    plan, _ = ctx.level(h)
    rows = ctx.matrix_rows(h)
    # membership in 2^(h+1) P reads the coordinates mod 2^(h+2) only, so
    # C mod 4 stands for C and stays inside the level's slots
    constant = math.comb(ctx.seq.T // 2, t) % 4 << (h + plan.top)
    return ideal_membership(sum(rows[i] for i in index_set(t)) + constant, ctx.rf, h + 1, plan)


def thm3_without_indicator(ctx, h):
    plan, _ = ctx.level(h)
    return _every(ideal_membership(row, ctx.rf, h + 1, plan) for row in ctx.matrix_rows(h))


def necessary_modulo_4p(ctx, h):
    plan, ksums = ctx.level(h)
    return _every(ideal_membership(x + (1 << plan.top), ctx.rf, 2, plan) for x in ksums)


def rewrites_prop(which):
    """A prop_check variant that rewrites prop `which` and leaves the other
    props to the package's own check."""
    own = criteria.prop_check

    def wrap(variant):
        @wraps(variant)
        def check(ctx, index):
            return variant(ctx) if index == which else own(ctx, index)
        return check
    return wrap


@rewrites_prop(1)
def prop1_modulo_p(ctx):
    plan, (K0,) = ctx.level(0)
    return ideal_membership(K0 + (1 << plan.top), ctx.rf, 0, plan)


@rewrites_prop(2)
def prop2_one_form(ctx):
    plan, (K0, K1) = ctx.level(1)
    return ideal_membership(K0 + K1 + (2 << plan.top), ctx.rf, 2, plan)


@rewrites_prop(3)
def prop3_unsigned(ctx):
    plan, (K0, K1, _, K3) = ctx.level(2)
    return ideal_membership(2 * K0 - K1 - K3 + rotate(K1 - K3, ctx.k, plan), ctx.rf, 3, plan)


@rewrites_prop(4)
def prop4_unsigned(ctx):
    plan, (K0, K1, K2, K3) = ctx.level(2)
    return ideal_membership(K0 - K2 + rotate(K1 - K3, ctx.k, plan), ctx.rf, 3, plan)


# (check replaced, variant, records' check name, smallest q where it fails as p^m)
NEAR_MISSES = [
    ("thm1_check", thm1_modulo_p, "thm1", 7, 1),
    ("thm2_check", thm2_exact_binomial, "thm2", 13, 1),
    ("thm3_check", thm3_without_indicator, "thm3", 7, 2),
    ("necessary_condition_check", necessary_modulo_4p, "necessary", 7, 2),
    ("prop_check", prop1_modulo_p, "prop1", 7, 1),
    ("prop_check", prop2_one_form, "prop2", 13, 1),
    ("prop_check", prop3_unsigned, "prop3", 29, 1),
    ("prop_check", prop4_unsigned, "prop4", 29, 1),
]


@pytest.mark.parametrize("name,variant,check,p,m", NEAR_MISSES,
                         ids=[variant.__name__ for _, variant, *_ in NEAR_MISSES])
def test_near_miss_is_caught(monkeypatch, name, variant, check, p, m):
    argv = ["verify", "--p", str(p), "--qmax", str(p**m)]
    assert main(argv) == 0
    monkeypatch.setattr(criteria, name, variant)
    wrong = [r.q for r in run_verify(128, checks=(check,)) if not r.match]
    assert wrong and min(wrong) == p**m
    assert main(argv) == 3


@_per_sequence
def hasse_masks_without_superset_sum(seq):
    cap, Tp = 1 << seq.u, seq.Tprime
    masks = [0] * cap
    for n in seq.ones_positions():
        masks[n & cap - 1] ^= 1 << n % Tp
    return masks


def test_ground_truth_near_miss_is_caught(monkeypatch):
    # at q = 19, u = 1: masks[0] keeps the even n only, so the sums at t = 0
    # that thm1, thm2 and prop 1 are compared with change
    argv = ["verify", "--p", "19", "--qmax", "19"]
    assert main(argv) == 0
    monkeypatch.setattr(criteria, "_hasse_masks", hasse_masks_without_superset_sum)
    wrong = [(r.q, r.check) for r in run_verify(128) if not r.match]
    assert wrong and min(wrong)[0] == 19
    assert {check for q, check in wrong if q == 19} == {"thm1", "thm2", "prop1"}
    assert main(argv) == 3


def test_ground_truth_at_inverse_beta_is_caught(monkeypatch):
    # at q = 29, k = 7: the Hasse sums at gamma^-e, where 2 has order 3 mod 7
    # and -1 is no power of 2, so beta^-1 lies over the other prime; thm1
    # and thm2 at t = 2 and 3, prop3 and prop4 disagree at every e
    argv = ["verify", "--p", "29", "--qmax", "29"]
    assert main(argv) == 0
    own = criteria._evaluate_mask
    monkeypatch.setattr(criteria, "_evaluate_mask", lambda x, gp, k, e: own(x, gp, k, -e % k))
    wrong = [r for r in run_verify(128) if not r.match]
    assert wrong and min(r.q for r in wrong) == 29
    at_29 = {(r.k, r.check, r.index) for r in wrong if r.q == 29}
    assert at_29 == {(7, "thm1", 2), (7, "thm1", 3), (7, "thm2", 2), (7, "thm2", 3),
                     (7, "prop3", 2), (7, "prop4", 3)}
    assert main(argv) == 3

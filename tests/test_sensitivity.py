"""Near misses: each criterion with one constant rewritten the way a
misreading of the paper would write it must disagree with the ground truth
somewhere, or a run with zero mismatches would show nothing. Each variant
replaces its check in slce.criteria, where analyze_field looks it up at
call time, and is wrapped in the package's own _at_own_prime, so it is
evaluated and cached exactly as the check it replaces; the package gains
no switch.

  * thm1 tested modulo P instead of 2P;
  * thm2 with the exact binomial constant C(T/2, t) 2^h in place of its
    parity times 2^h, which q = 13, t = 1 flips (thm2_check's docstring);
  * thm3 without the 2^h indicator of T/2 mod 2^h.

For each, `slce verify` exits 3 at the smallest q where it fails."""

import math

import pytest

from slce import criteria
from slce.cli import main
from slce.criteria import _at_own_prime, _every, _rho_sums, run_verify
from slce.cyclo import ideal_membership
from slce.numth import fold_plan, pack
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


# (check replaced, variant, records' check name, smallest q where it fails as p^m)
NEAR_MISSES = [
    ("thm1_check", thm1_modulo_p, "thm1", 7, 1),
    ("thm2_check", thm2_exact_binomial, "thm2", 13, 1),
    ("thm3_check", thm3_without_indicator, "thm3", 7, 2),
]


@pytest.mark.parametrize("name,variant,check,p,m", NEAR_MISSES,
                         ids=[variant.__name__ for _, variant, *_ in NEAR_MISSES])
def test_near_miss_is_caught(monkeypatch, name, variant, check, p, m):
    argv = ["verify", "--p", str(p), "--qmax", str(p**m)]
    assert main(argv) == 0
    monkeypatch.setattr(criteria, name, _at_own_prime(variant))
    wrong = [r.q for r in run_verify(128, checks=(check,)) if not r.match]
    assert wrong and min(wrong) == p**m
    assert main(argv) == 3

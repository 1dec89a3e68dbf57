"""Divisibility criteria against direct Hasse-derivative evaluation."""

import pytest

from slce.criteria import (
    AnalysisContext,
    CriterionRecord,
    analyze_field,
    all_ones_power_divides,
    derivative_vanishes_direct,
    galois_orbits,
    lemma1_check,
    multiplicity_profile,
    necessary_condition_check,
    odd_prime_powers,
    prop_check,
    run_verify,
    semiprimitive_params,
    semiprimitive_predict,
    thm1_check,
    thm2_check,
    thm3_check,
)
from slce.cyclo import CycInt, ideal_membership
from slce.errors import HOutOfRange, NotSemiprimitive, PreconditionUnmet, SizeExceeded
from slce.ff import build_field, build_residue_field
from slce.numth import (
    CONDUCTORS_HELD,
    cyclotomic_polynomial,
    divisors,
    _unpack,
    inverse_cyclotomic_polynomial,
    units,
)
from slce.polybin import factor_phi_mod2, lc_via_gcd
from slce.seq import generate_slce

from oracles import (
    admissible_contexts,
    coset_sum,
    hasse_sum,
    horner,
    ksum_counts,
    member,
    OwnContext,
    primitive_elements,
    prop34_value,
    with_primitive_element,
)


def field_records(p, m):
    """analyze_field's contexts expanded into records, as run_verify does."""
    return [CriterionRecord(p**m, p, m, k, e, *verdict)
            for k, e, verdicts in analyze_field(p, m) for verdict in verdicts]


def ctx_q7():
    return AnalysisContext(generate_slce(build_field(7, 1), 2), 3, 1)


def bit(check, ctx, index):
    """check's verdict at ctx's own prime over 2: its bit of the int of
    verdicts at every prime that the check returns."""
    return check(ctx, index) >> ctx.prime & 1 == 1


class TestContext:
    def test_pairing_invariant(self):
        ctx = ctx_q7()
        assert ctx.beta == 0b10  # gamma, the class of X
        assert ctx.chi.order == 3

    def test_rejects_bad_parameters(self):
        s = generate_slce(build_field(7, 1), 2)
        with pytest.raises(ValueError):
            AnalysisContext(s, 5, 1)  # 5 does not divide T' = 3
        with pytest.raises(ValueError):
            AnalysisContext(s, 3, 3)  # not a unit
        with pytest.raises(ValueError):
            AnalysisContext(s, 1, 0)  # k must exceed 1

    def test_admissible_enumeration(self):
        s = generate_slce(build_field(13, 1), 2)  # T' = 3
        ctxs = list(admissible_contexts(s))
        assert [(c.k, c.e) for c in ctxs] == [(3, 1), (3, 2)]


class TestDirectEvaluation:
    def test_q7_t0_nonzero(self):
        assert derivative_vanishes_direct(ctx_q7(), 0) is False

    def test_matches_multiplicity_at_t0(self):
        for p, m in [(7, 1), (11, 1), (13, 1), (5, 2), (3, 3)]:
            s = generate_slce(build_field(p, m), 2)
            prof = multiplicity_profile(s)
            for ctx in admissible_contexts(s):
                assert derivative_vanishes_direct(ctx, 0) == (
                    prof.entries[(ctx.k, ctx.e)] >= 1
                )

    def test_t_range_enforced(self):
        with pytest.raises(ValueError):
            derivative_vanishes_direct(ctx_q7(), 2)  # u = 1 for q = 7

    @pytest.mark.parametrize("p,m", [(449, 1), (5, 4), (769, 1), (2689, 1)])
    def test_against_term_by_term_sums(self, p, m):
        # u = 6, 4, 8 and 7: the table's superset sums against the Hasse
        # sums added one term at a time, at every (k, e, t), and the
        # profile at every unit against the first t whose sum is nonzero
        s = generate_slce(build_field(p, m), 2)
        cap = 1 << s.u
        profile = multiplicity_profile(s, all_units=True)
        for ctx in admissible_contexts(s):
            sums = [hasse_sum(ctx, t) for t in range(cap)]
            assert [derivative_vanishes_direct(ctx, t) for t in range(cap)] == [
                x == 0 for x in sums]
            assert profile.entries[(ctx.k, ctx.e)] == next(
                (t for t, x in enumerate(sums) if x), cap)


class TestCosetSums:
    def test_h0_is_full_evaluation(self):
        ctx = ctx_q7()
        assert coset_sum(ctx, 0, 0) == horner(ctx.seq.bits, ctx.rf, ctx.beta)

    def test_q7_hand_values(self):
        ctx = ctx_q7()
        g = ctx.beta
        g2 = ctx.rf.mul_bits(g, g)
        assert coset_sum(ctx, 0, 1) == g2 ^ g
        assert coset_sum(ctx, 1, 1) == g2

    def test_partition(self):
        for p, m in [(13, 1), (5, 2)]:
            s = generate_slce(build_field(p, m), 2)
            for ctx in admissible_contexts(s):
                total_s = horner(s.bits, ctx.rf, ctx.beta)
                for h in range(s.u + 1):
                    acc = 0
                    for i in range(1 << h):
                        acc ^= coset_sum(ctx, i, h)
                    assert acc == total_s


class TestPointwiseCriteria:
    def test_q7_t0_false(self):
        ctx = ctx_q7()
        assert bit(thm1_check, ctx, 0) is False
        assert bit(thm2_check, ctx, 0) is False

    def test_h0_collapse(self):
        # t = 0 verdicts of the two criteria coincide by construction
        for p, m in [(7, 1), (11, 1), (13, 1), (5, 2)]:
            s = generate_slce(build_field(p, m), 2)
            for ctx in admissible_contexts(s):
                assert bit(thm1_check, ctx, 0) == bit(thm2_check, ctx, 0)

    @pytest.mark.parametrize("p,m", [(7, 1), (11, 1), (13, 1), (3, 3), (5, 2), (29, 1), (3, 2)])
    def test_equivalence_small_fields(self, p, m):
        s = generate_slce(build_field(p, m), 2)
        for ctx in admissible_contexts(s):
            for t in range(1 << s.u):
                want = derivative_vanishes_direct(ctx, t)
                assert bit(thm1_check, ctx, t) == want
                assert bit(thm2_check, ctx, t) == want

    def test_galois_orbit_consistency(self):
        # every check, and the ground truth, gives the same verdict at e and 2e
        for p, m in [(7, 1), (31, 1), (5, 2), (13, 1), (127, 1)]:
            s = generate_slce(build_field(p, m), 2)
            props = (1, 2, 3, 4) if s.field.q % 4 == 1 else (1, 2)
            for ctx in admissible_contexts(s):
                partner = AnalysisContext(s, ctx.k, 2 * ctx.e % ctx.k)
                for t in range(min(4, 1 << s.u)):
                    assert (derivative_vanishes_direct(ctx, t)
                            == derivative_vanishes_direct(partner, t)), (ctx, t)
                    for fn in (thm1_check, thm2_check):
                        assert bit(fn, ctx, t) == bit(fn, partner, t), (fn.__name__, ctx, t)
                for h in range(1, s.u + 1):
                    for fn in (thm3_check, necessary_condition_check):
                        assert bit(fn, ctx, h) == bit(fn, partner, h), (fn.__name__, ctx, h)
                for which in props:
                    assert bit(prop_check, ctx, which) == bit(prop_check, partner, which), (
                        which, ctx)


class TestMultiplicityCriterion:
    @pytest.mark.parametrize("p,m", [(7, 1), (13, 1), (5, 2), (3, 3), (29, 1), (41, 1)])
    def test_triple_equivalence(self, p, m):
        s = generate_slce(build_field(p, m), 2)
        prof = multiplicity_profile(s)
        for ctx in admissible_contexts(s):
            mult = prof.entries[(ctx.k, ctx.e)]
            for h in range(1, s.u + 1):
                via_matrix = bit(thm3_check, ctx, h)
                via_mult = mult >= (1 << h)
                via_cosets = all(
                    coset_sum(ctx, i, h) == 0 for i in range(1 << h)
                )
                assert via_matrix == via_mult == via_cosets
                if via_matrix:
                    assert bit(necessary_condition_check, ctx, h)

    def test_h_range(self):
        ctx = ctx_q7()
        with pytest.raises(HOutOfRange):
            thm3_check(ctx, 0)
        with pytest.raises(HOutOfRange):
            thm3_check(ctx, 2)
        with pytest.raises(HOutOfRange):
            necessary_condition_check(ctx, 5)

    def test_q25_semiprimitive_collapse(self):
        # K(rho chi) = K(chi) over GF(25), so the h = 1 necessary condition
        # degenerates to the order-0 congruence
        s = generate_slce(build_field(5, 2), 2)
        for e in (1, 2):
            ctx = AnalysisContext(s, 3, e)
            K0, K1 = (CycInt.from_exponent_counts(6, c) for c in ksum_counts(ctx, 1))
            assert K0 == K1
            assert necessary_condition_check(ctx, 1) == prop_check(ctx, 1)


class TestPropositions:
    def test_prop1_equals_t0(self):
        for p, m in [(7, 1), (13, 1), (5, 2), (3, 3)]:
            s = generate_slce(build_field(p, m), 2)
            for ctx in admissible_contexts(s):
                assert prop_check(ctx, 1) == thm1_check(ctx, 0) == thm2_check(ctx, 0)

    def test_prop2_equals_t1(self):
        for p, m in [(7, 1), (13, 1), (5, 2), (3, 3), (11, 1)]:
            s = generate_slce(build_field(p, m), 2)
            for ctx in admissible_contexts(s):
                assert prop_check(ctx, 2) == thm2_check(ctx, 1)

    def test_props34_equal_t23(self):
        for p, m in [(13, 1), (5, 2), (29, 1), (17, 1), (3, 4)]:
            s = generate_slce(build_field(p, m), 2)
            if s.field.q % 4 != 1:
                continue
            for ctx in admissible_contexts(s):
                assert prop_check(ctx, 3) == thm2_check(ctx, 2)
                assert prop_check(ctx, 4) == thm2_check(ctx, 3)

    def test_props34_match_the_cycint_products(self):
        # the packed rotations against the closed forms multiplied out in
        # Z[z_N] from each context's own K sums and tested in the canonical
        # prime, at every unit e, on both branches q = 1 and 5 mod 8; at q =
        # 601 prop 3 holds at some units of k = 15 and fails at others
        seen = set()
        for p, m in [(13, 1), (29, 1), (37, 1), (41, 1), (97, 1), (5, 3), (449, 1), (601, 1)]:
            s = generate_slce(build_field(p, m), 2)
            for ctx in admissible_contexts(s):
                for which in (3, 4):
                    verdict = bit(prop_check, ctx, which)
                    assert verdict == member(prop34_value(ctx, which), ctx.rf, 3) & 1, (
                        which, ctx)
                    seen.add((s.field.q % 8, verdict))
        assert seen == {(1, False), (1, True), (5, False), (5, True)}

    def test_precondition(self):
        ctx = ctx_q7()  # q = 7 = 3 mod 4
        with pytest.raises(PreconditionUnmet):
            prop_check(ctx, 3)
        with pytest.raises(PreconditionUnmet):
            prop_check(ctx, 4)

    def test_q7_prop1_false_and_l_full(self):
        ctx = ctx_q7()
        assert bit(prop_check, ctx, 1) is False
        assert lc_via_gcd(ctx.seq.bits, 6).L == 6


def rotate_and_add_rows(ctx, h):
    """Test-local root-of-unity matrix rows by the O(4^h) rotate-and-add the
    butterfly replaced: row i = sum over j of eta_{j/2^h}(-1) z_{2^h}^(-ij)
    K(eta_{j/2^h} chi), with z_{2^h} = z_N^k, in Z[X]/(X^N - 1), then at
    h >= 1 reduced mod X^(N/2) + 1 as the level holds them."""
    T, N, two_h = ctx.seq.T, ctx.conductor(h), 1 << h
    rows = []
    for i in range(two_h):
        acc = [0] * N
        for j, counts in enumerate(ksum_counts(ctx, h)):
            sign = -1 if j * (T // 2) % two_h else 1
            shift = (-i * j) % two_h * ctx.k
            for e, v in enumerate(counts):
                acc[(e + shift) % N] += sign * v
        rows.append([a - b for a, b in zip(acc[:N // 2], acc[N // 2:])] if h else acc)
    return rows


def decoded_rows(ctx, h):
    """The packed matrix rows of level h as count lists, N/2 of them at h >= 1."""
    plan, _ = ctx.level(h)
    return [list(_unpack(x + plan.bias, plan.n, plan.w)[::-1]) for x in ctx.matrix_rows(h)]


class TestMatrixRows:
    @pytest.mark.parametrize("p,m", [(97, 1), (193, 1), (17, 2)])
    def test_butterfly_matches_rotate_and_add(self, p, m):
        # u >= 5 in all three fields, so h runs through 0..5
        seq = generate_slce(build_field(p, m), 2)
        assert seq.u >= 5
        for k in divisors(seq.Tprime)[1:]:
            ctx = AnalysisContext(seq, k, 1)
            for h in range(6):
                assert decoded_rows(ctx, h) == rotate_and_add_rows(ctx, h), (k, h)

    def test_rows_read_as_counts_or_folded(self):
        # thm3's row vectors: membership read from the counts, from the
        # packed row and from their fold agree, at every level and both
        # depths used
        seq = generate_slce(build_field(97, 1), 2)
        ctx = AnalysisContext(seq, 3, 1)
        seen = set()
        for h in range(1, 6):
            N = ctx.conductor(h)
            plan, _ = ctx.level(h)
            for i, (acc, row) in enumerate(zip(decoded_rows(ctx, h), ctx.matrix_rows(h))):
                extra = (1 << h) * (i == (seq.T // 2) % (1 << h))
                acc[0] += extra
                acc += [0] * (N // 2)  # the N/2 counts of the row, read at conductor N
                row += extra << (8 * plan.w * (N // 2 - 1))  # count 0 is the top slot
                for c in (1, h + 1):
                    verdict = member(acc, ctx.rf, c) & 1
                    assert verdict == member(CycInt.from_exponent_counts(N, acc), ctx.rf, c) & 1
                    assert verdict == ideal_membership(row, ctx.rf, c, plan) & 1
                    seen.add(verdict)
        assert seen == {False, True}

    def test_top_level_peak_memory(self):
        # GF(769): u = 8 and k = 3, so level 8 holds 256 K sums and 256 rows
        # at conductor 768. Under tracemalloc the rows peak at 1.35 MB with
        # each K sum packed as it is made, in 384 slots; holding all 256
        # count lists until the width is known took 2.5 MB, and the cyclic
        # ring's 768 slots as well 3.0 MB
        import tracemalloc

        ctx = AnalysisContext(generate_slce(build_field(769, 1), 2), 3, 1)
        tracemalloc.start()
        try:
            ctx.matrix_rows(8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_700_000


class TestMultiplicityProfile:
    def test_q7(self):
        s = generate_slce(build_field(7, 1), 2)
        prof = multiplicity_profile(s)
        assert prof.entries == {(1, 0): 0, (3, 1): 0, (3, 2): 0}
        assert prof.L == 6

    def test_q5(self):
        s = generate_slce(build_field(5, 1), 2)
        prof = multiplicity_profile(s)
        assert prof.entries == {(1, 0): 1}
        assert prof.L == 3

    @pytest.mark.parametrize("p,m", [(5, 1), (7, 1), (3, 2), (13, 1), (5, 2), (3, 4), (31, 1)])
    def test_reconstructs_gcd_degree(self, p, m):
        s = generate_slce(build_field(p, m), 2)
        prof = multiplicity_profile(s)
        r = lc_via_gcd(s.bits, s.T)
        assert prof.L == r.L
        assert prof.capped_total() == s.T - r.L


class TestGaloisOrbits:
    @pytest.mark.parametrize("k", [1, 3, 7, 9, 21, 63, 121, 255])
    def test_orbits_partition_units(self, k):
        orbits = list(galois_orbits(k))
        members = [e for _, coset in orbits for e in coset]
        assert sorted(members) == units(k)
        reps = [e for e, _ in orbits]
        assert reps == sorted(reps)
        for e, coset in orbits:
            assert e == min(coset) == coset[0]
            assert set(coset) == {e * 2**i % k for i in range(len(coset))}

    def test_k121_is_one_orbit(self):
        # 2 generates the units mod 121, so all 110 form one orbit
        assert [(e, len(c)) for e, c in galois_orbits(121)] == [(1, 110)]

    def test_all_units_makes_singletons(self):
        assert list(galois_orbits(21, all_units=True)) == [(e, (e,)) for e in units(21)]

    @pytest.mark.parametrize(
        "p,m", [(p, m) for p, m, q in odd_prime_powers(128)] + [(3, 5), (5, 4), (769, 1)])
    def test_reduced_equals_all_units(self, p, m):
        assert analyze_field(p, m) == analyze_field(p, m, all_units=True)
        s = generate_slce(build_field(p, m), 2)
        assert multiplicity_profile(s) == multiplicity_profile(s, all_units=True)

    def test_full_profile_is_orbit_invariant(self):
        for p, m in [(31, 1), (5, 3), (3, 5)]:
            entries = multiplicity_profile(generate_slce(build_field(p, m), 2),
                                           all_units=True).entries
            for (k, e), mult in entries.items():
                assert entries[(k, 2 * e % k)] == mult

    def test_one_context_per_orbit(self, monkeypatch):
        import slce.criteria as criteria_mod

        built = []

        class Counting(criteria_mod.AnalysisContext):
            __slots__ = ()

            def __init__(self, seq, k, e):
                built.append((k, e))
                super().__init__(seq, k, e)

        monkeypatch.setattr(criteria_mod, "AnalysisContext", Counting)
        records = field_records(127, 1)  # T' = 63, and 2^6 = 1 mod 63
        orbits = {(k, frozenset(e * 2**i % k for i in range(6)))
                  for k in (3, 7, 9, 21, 63) for e in units(k)}
        assert len(built) == len(set(built)) == len(orbits) == 12
        assert {(k, min(c)) for k, c in orbits} == set(built)
        assert {(r.k, r.e) for r in records} == {(k, e) for k, c in orbits for e in c}

    @pytest.mark.parametrize("p,ks,calls", [(97, (3,), 63), (2689, (3, 7, 21), 765)])
    def test_each_level_is_built_once(self, monkeypatch, p, ks, calls):
        # a context holds one twist level at a time, so the checks must run
        # in ascending level, once per k: level h of each k sums 2^h K sums,
        # 2^(u+1) - 1 over h = 0..u
        import slce.criteria as criteria_mod

        built = []
        counts = criteria_mod.k_sum_counts

        def counting(chi, N):
            built.append(N)
            return counts(chi, N)

        monkeypatch.setattr(criteria_mod, "k_sum_counts", counting)
        analyze_field(p, 1)
        u = generate_slce(build_field(p, 1), 2).u
        assert divisors(p - 1 >> u)[1:] == list(ks)
        assert len(built) == len(ks) * ((2 << u) - 1) == calls


CHECK_FNS = {"thm1": thm1_check, "thm2": thm2_check, "thm3": thm3_check,
             "necessary": necessary_condition_check}


def every_check(ctx):
    """(name, check, index) for every check analyze_field runs on ctx, in
    ascending twist level h, so that ctx builds each level once."""
    props = (1, 2, 3, 4) if ctx.field.q % 4 == 1 else (1, 2)
    for h in range(ctx.seq.u + 1):
        for t in range(1 << h >> 1, 1 << h):  # every t of bit length h
            yield from ((name, CHECK_FNS[name], t) for name in ("thm1", "thm2"))
            if t + 1 in props:
                yield f"prop{t + 1}", lambda c, w: prop_check(c, w + 1), t
        if h:
            yield from ((name, CHECK_FNS[name], h) for name in ("thm3", "necessary"))


class TestConjugatePrimes:
    """Every check builds its element from the K sums of chi_1, so it returns
    one int of verdicts at every prime over 2 per (sequence, k), and each
    context reads its bit at the prime of the factor of Phi_k mod 2 that
    vanishes at beta. The oracle builds every element from the context's
    own character and tests it in the canonical prime, as each context did
    on its own."""

    @pytest.mark.parametrize("p,m", [(p, m) for p, m, q in odd_prime_powers(128)]
                             + [(3, 5), (449, 1), (601, 1), (2689, 1)])
    def test_every_check_matches_its_own_construction(self, p, m):
        # every unit e of a k gets the same int from every check, and its
        # own prime's bit is what the context's own construction gives
        s = generate_slce(build_field(p, m), 2)
        for k in divisors(s.Tprime)[1:]:
            every = []
            for e in units(k):
                ctx = AnalysisContext(s, k, e)
                own = OwnContext(ctx)
                masks = {(name, index): fn(ctx, index) for name, fn, index in every_check(ctx)}
                for (name, index), mask in masks.items():
                    assert (mask >> ctx.prime & 1 == 1) == own.verdict(name, index), (
                        ctx, name, index)
                every.append(masks)
            assert all(masks == every[0] for masks in every), k

    def test_orbits_of_one_k_can_disagree(self):
        # so a verdict read at the wrong prime shows: at q = 29 the two
        # orbits of k = 7 differ in prop 3
        s = generate_slce(build_field(29, 1), 2)
        one, three = AnalysisContext(s, 7, 1), AnalysisContext(s, 7, 3)
        assert prop_check(one, 3) == prop_check(three, 3)
        assert bit(prop_check, three, 3) == OwnContext(three).verdict("prop3", 2)
        assert bit(prop_check, one, 3) != bit(prop_check, three, 3)

    def test_orbits_map_onto_the_factors(self):
        # every k | T' with q <= 1024: each orbit's prime indexes a factor of
        # Phi_k mod 2 that vanishes at beta, the orbits take each factor
        # once, and every member of an orbit takes its orbit's factor
        seen = set()
        for p, m, q in odd_prime_powers(1024):
            s = generate_slce(build_field(p, m), 2)
            for k in divisors(s.Tprime)[1:]:
                if k in seen:
                    continue
                seen.add(k)
                factors = factor_phi_mod2(k)
                primes = []
                for e, members in galois_orbits(k):
                    ctx = AnalysisContext(s, k, e)
                    assert horner(factors[ctx.prime], ctx.rf, ctx.beta) == 0, (k, e)
                    assert {AnalysisContext(s, k, x).prime for x in members} == {ctx.prime}
                    primes.append(ctx.prime)
                assert sorted(primes) == list(range(len(factors))), k
        assert len(seen) > 100


class TestAlphaInvariance:
    @pytest.mark.parametrize("p,m", [(p, m) for p, m, q in odd_prime_powers(64)])
    def test_lc_and_profile_stable(self, p, m):
        F = build_field(p, m)
        base = multiplicity_profile(generate_slce(F, 2))
        base_mults = sorted(base.entries.values())
        for code in primitive_elements(F):
            G = with_primitive_element(F, code)
            prof = multiplicity_profile(generate_slce(G, 2))
            assert prof.L == base.L
            assert sorted(prof.entries.values()) == base_mults


class TestSemiprimitive:
    def test_params_examples(self):
        p = semiprimitive_params(5, 2, 3, 1)
        assert (p.v, p.w, p.vprime, p.wprime) == (1, 1, 1, 1)
        p = semiprimitive_params(3, 4, 5, 1)
        assert (p.v, p.w, p.vprime, p.wprime) == (2, 1, 2, 1)
        p = semiprimitive_params(5, 4, 3, 1)
        assert (p.v, p.w, p.vprime, p.wprime) == (1, 2, 1, 2)

    def test_not_semiprimitive(self):
        # 7^v + 1 = 2 mod 3 for every v
        with pytest.raises(NotSemiprimitive):
            semiprimitive_params(7, 2, 3, 1)
        with pytest.raises(NotSemiprimitive):
            lemma1_check(7, 2, 3, 1)
        with pytest.raises(NotSemiprimitive):
            semiprimitive_predict(7, 2, 3, 1)

    def test_size_cap_checked_before_powers(self):
        import time

        start = time.perf_counter()
        with pytest.raises(SizeExceeded, match="size cap 65536"):
            semiprimitive_predict(3, 10**7, 5, 1)
        with pytest.raises(SizeExceeded):
            semiprimitive_params(7, 10**7, 3, 1)  # no v exists: the search would run to m
        assert time.perf_counter() - start < 0.5

    def test_lemma1_cases(self):
        assert lemma1_check(5, 2, 3, 1)
        assert lemma1_check(3, 4, 5, 1)
        assert lemma1_check(5, 4, 13, 1)

    def test_lemma1_all_units(self):
        for e in (1, 2):
            assert lemma1_check(5, 2, 3, 1, e=e)
        for e in (1, 2, 3, 4):
            assert lemma1_check(3, 4, 5, 1, e=e)

    def test_predict_examples(self):
        assert semiprimitive_predict(5, 2, 3, 1) is False  # w' = 1 odd
        assert semiprimitive_predict(5, 4, 3, 1) is True   # w' = 2 even
        assert semiprimitive_predict(3, 4, 5, 1) is False  # p = 3 mod 4, w'v' = 2 even

    def test_predict_vs_brute_force_q625(self):
        F = build_field(5, 4)
        s = generate_slce(F, 2)
        assert all_ones_power_divides(s, 3, 1) is True
        assert semiprimitive_predict(5, 4, 3, 1) is True

    def test_gap_property_small(self):
        for (p, m, k, h) in [(5, 2, 3, 1), (3, 4, 5, 1), (11, 2, 3, 2), (13, 2, 7, 1)]:
            s = generate_slce(build_field(p, m), 2)
            prof = multiplicity_profile(s)
            for (kk, e), mult in prof.entries.items():
                if kk == k:
                    assert mult == 0 or mult >= (1 << h)


class TestDeepTwoAdicRamification:
    def test_q193_u6(self):
        # T = 192 = 64 * 3: twist levels up to h = 6 put the congruences in
        # conductor-192 rings where 2 ramifies to the 32nd power, far beyond
        # what q <= 128 reaches
        records = field_records(193, 1)
        assert records and all(r.match for r in records)


class TestRunVerify:
    def test_small_sweep_clean(self):
        records = list(run_verify(31))
        assert all(r.match for r in records)
        assert records == sorted(
            records, key=lambda r: (r.q, r.k, r.e, r.check, r.index)
        )

    @pytest.mark.parametrize("p,m", [(127, 1), (3, 5)])
    def test_field_order_is_the_canonical_key(self, p, m):
        # contexts come in (k, e) order and each one's verdicts in (check,
        # index) order, so the field's records are in (q, k, e, check, index) order
        records = field_records(p, m)
        assert records == sorted(
            records, key=lambda r: (r.q, r.k, r.e, r.check, r.index)
        )
        assert len({(r.k, r.e, r.check, r.index) for r in records}) == len(records)

    def test_vacuous_sweep(self):
        records = list(run_verify(6))
        assert records == []

    def test_parallel_matches_serial(self):
        serial = list(run_verify(29, jobs=1))
        parallel = list(run_verify(29, jobs=2))
        assert serial == parallel

    def test_p_filter(self):
        records = list(run_verify(49, p_filter=7))
        assert {r.p for r in records} == {7}

    def test_lazy_per_field(self, monkeypatch):
        import slce.criteria as criteria_mod

        analyzed = []

        def counting(p, m, *args, **kwargs):
            analyzed.append((p, m))
            return analyze_field(p, m, *args, **kwargs)

        monkeypatch.setattr(criteria_mod, "analyze_field", counting)
        records = run_verify(49, p_filter=7)
        assert analyzed == []
        assert next(records).q == 7
        assert analyzed == [(7, 1)]

    def test_polynomial_caches_hold_one_field(self):
        # Phi_N and Psi_N, the factors of Phi_k mod 2 and the residue fields
        # stay cached for at most CONDUCTORS_HELD conductors, so memory does
        # not grow with the range, and the last field's conductors are all
        # still held: q = 1021, q - 1 = 4 * 255. The residue fields take odd
        # k only. factor_phi_mod2 is called by build_residue_field on a miss
        # only, so it holds the k built last, and serving the last field's k
        # from the residue-field cache needs no new factoring.
        caches = (cyclotomic_polynomial, inverse_cyclotomic_polynomial,
                  factor_phi_mod2, build_residue_field)
        for cache in caches:
            cache.cache_clear()
        list(run_verify(1024, checks=("thm1", "necessary")))
        before = {cache: cache.cache_info() for cache in caches}
        for info in before.values():
            assert info.maxsize == CONDUCTORS_HELD and info.currsize == CONDUCTORS_HELD
        for k in divisors(255)[1:]:
            build_residue_field(k)
            for h in range(3):
                cyclotomic_polynomial(k << h)
                inverse_cyclotomic_polynomial(k << h)
        for cache, info in before.items():
            assert cache.cache_info().misses == info.misses

    def test_odd_prime_powers(self):
        qs = [q for _, _, q in odd_prime_powers(30)]
        assert qs == [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29]

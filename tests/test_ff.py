"""Field construction, canonical choices, dlog tables, residue fields."""

import itertools
import math
import random
import time
import weakref

import pytest

from slce import ff
from slce.criteria import map_fields
from slce.cyclo import Character, jacobi_sum
from slce.errors import CompositeP, EvenK, KisOne, LogOfZero, SizeExceeded
from slce.ff import (
    ExtField,
    build_field,
    build_residue_field,
    field_order,
    odd_prime_powers,
)
from slce.numth import SIZE_CAP, divisors, prime_factors
from slce.polybin import factor_phi_mod2, phi_mod2
from slce.seq import generate_slce, sequence_from_json

from oracles import primitive_elements, schoolbook_mulmod, with_primitive_element


def brute_order(g, p):
    """Oracle: multiplicative order in GF(p) by plain modular arithmetic."""
    t, x = 1, g % p
    while x != 1:
        x = x * g % p
        t += 1
    return t


class TestBuildField:
    def test_f9_table_size(self):
        F = build_field(3, 2)
        assert F.q == 9
        assert sum(1 for v in F._dlog if v >= 0) == 8

    def test_f5_alpha_is_smallest_primitive_root(self):
        # oracle: exhaustive order check over 2, 3, 4
        orders = {g: brute_order(g, 5) for g in (2, 3, 4)}
        assert orders == {2: 4, 3: 4, 4: 2}
        assert build_field(5, 1).alpha_code == 2

    def test_f7_alpha(self):
        assert brute_order(2, 7) == 3 and brute_order(3, 7) == 6
        assert build_field(7, 1).alpha_code == 3

    def test_p_must_be_odd_prime(self):
        with pytest.raises(CompositeP):
            build_field(2, 3)
        with pytest.raises(CompositeP):
            build_field(9, 1)

    def test_size_cap(self):
        with pytest.raises(SizeExceeded, match="size cap 65536"):
            build_field(257, 2)

    def test_field_order(self):
        assert field_order(3, 4) == 81
        assert field_order(3, 10) == 59049
        with pytest.raises(SizeExceeded, match=r"q = 3\^11 exceeds the size cap 65536"):
            field_order(3, 11)
        for p in (-3, 0, 1, 2, 4, 9, 15):
            with pytest.raises(CompositeP):
                field_order(p, 1)
        with pytest.raises(ValueError):
            field_order(3, 0)
        # 2^61 - 1 is prime but over the cap: refused without trial division
        with pytest.raises(SizeExceeded):
            field_order((1 << 61) - 1, 1)

    def test_non_int_parameters_refused(self, monkeypatch):
        # a bool compares equal to 0 or 1 but is not an int parameter
        for p in (7.0, True, "7"):
            with pytest.raises(CompositeP):
                field_order(p, 1)
        for m in (1.0, True, "1"):
            with pytest.raises(ValueError):
                field_order(7, m)
        # (7, True) == (7, 1) as a key: neither a fresh nor a cached GF(7)
        # may be reached through it
        monkeypatch.setattr(ff, "_FIELDS", {})
        with pytest.raises(ValueError):
            build_field(7, True)
        assert type(build_field(7, 1).m) is int
        with pytest.raises(ValueError):
            build_field(7, True)

    def test_one_object_per_field(self):
        F = build_field(7, 1)
        assert build_field(7, 1) is F
        jacobi_sum(Character(F, 1), Character(build_field(7, 1), 2))
        doc = generate_slce(F, 2).to_json()
        assert sequence_from_json(doc).field is F

    # Each test below starts from an empty registry of the module's own kind,
    # so that fields other tests still hold do not count.

    def test_field_dies_with_its_last_reference(self, monkeypatch):
        monkeypatch.setattr(ff, "_FIELDS", type(ff._FIELDS)())
        F = build_field(7, 1)
        ref = weakref.ref(F)
        assert build_field(7, 1) is F
        del F
        assert ref() is None and len(ff._FIELDS) == 0

    def test_runs_hold_no_field(self, monkeypatch):
        from slce.cli import sweep_row
        from slce.criteria import map_fields, run_verify

        monkeypatch.setattr(ff, "_FIELDS", type(ff._FIELDS)())
        for _ in map_fields(sweep_row, 1024):
            pass
        assert len(ff._FIELDS) == 0
        assert list(run_verify(128))
        assert len(ff._FIELDS) == 0

    def test_deterministic(self):
        a = ExtField(3, 4)
        b = ExtField(3, 4)
        assert a.modulus == b.modulus
        assert a.alpha_code == b.alpha_code
        assert a._pow == b._pow

    def test_modulus_is_irreducible_f9(self):
        # X^2 + 1 has no root mod 3
        F = build_field(3, 2)
        assert F.modulus == (1, 0, 1)
        assert all((x * x + 1) % 3 != 0 for x in range(3))


# (p, m) -> (modulus, alpha_code) for every field with m > 1 up to SIZE_CAP,
# as the canonical choices were before the modulus search moved to trial
# division and the products of digit lists to numth.poly_mul
CANONICAL = {
    (3, 2): ((1, 0, 1), 4),
    (5, 2): ((2, 0, 1), 6),
    (3, 3): ((1, 2, 0, 1), 3),
    (7, 2): ((1, 0, 1), 9),
    (3, 4): ((2, 1, 0, 0, 1), 3),
    (11, 2): ((1, 0, 1), 15),
    (5, 3): ((1, 1, 0, 1), 9),
    (13, 2): ((2, 0, 1), 15),
    (3, 5): ((1, 2, 0, 0, 0, 1), 3),
    (17, 2): ((3, 0, 1), 19),
    (7, 3): ((2, 0, 0, 1), 22),
    (19, 2): ((1, 0, 1), 22),
    (23, 2): ((1, 0, 1), 25),
    (5, 4): ((2, 0, 0, 0, 1), 6),
    (3, 6): ((2, 1, 0, 0, 0, 0, 1), 3),
    (29, 2): ((2, 0, 1), 30),
    (31, 2): ((1, 0, 1), 35),
    (11, 3): ((4, 1, 0, 1), 11),
    (37, 2): ((2, 0, 1), 41),
    (41, 2): ((3, 0, 1), 43),
    (43, 2): ((1, 0, 1), 45),
    (3, 7): ((2, 0, 1, 0, 0, 0, 0, 1), 5),
    (13, 3): ((2, 0, 0, 1), 15),
    (47, 2): ((1, 0, 1), 49),
    (7, 4): ((1, 1, 0, 0, 1), 12),
    (53, 2): ((2, 0, 1), 54),
    (5, 5): ((1, 4, 0, 0, 0, 1), 10),
    (59, 2): ((1, 0, 1), 62),
    (61, 2): ((2, 0, 1), 63),
    (67, 2): ((1, 0, 1), 74),
    (17, 3): ((3, 1, 0, 1), 17),
    (71, 2): ((1, 0, 1), 79),
    (73, 2): ((5, 0, 1), 76),
    (79, 2): ((1, 0, 1), 85),
    (3, 8): ((2, 0, 1, 0, 0, 0, 0, 0, 1), 38),
    (19, 3): ((2, 0, 0, 1), 29),
    (83, 2): ((1, 0, 1), 93),
    (89, 2): ((3, 0, 1), 91),
    (97, 2): ((5, 0, 1), 101),
    (101, 2): ((2, 0, 1), 102),
    (103, 2): ((1, 0, 1), 105),
    (107, 2): ((1, 0, 1), 109),
    (109, 2): ((2, 0, 1), 111),
    (23, 3): ((3, 1, 0, 1), 23),
    (113, 2): ((3, 0, 1), 117),
    (11, 4): ((2, 1, 0, 0, 1), 11),
    (5, 6): ((2, 1, 0, 0, 0, 0, 1), 5),
    (127, 2): ((1, 0, 1), 135),
    (7, 5): ((3, 1, 0, 0, 0, 1), 9),
    (131, 2): ((1, 0, 1), 134),
    (137, 2): ((3, 0, 1), 145),
    (139, 2): ((1, 0, 1), 143),
    (3, 9): ((1, 0, 1, 2, 0, 0, 0, 0, 0, 1), 3),
    (149, 2): ((2, 0, 1), 152),
    (151, 2): ((1, 0, 1), 160),
    (29, 3): ((4, 1, 0, 1), 30),
    (157, 2): ((2, 0, 1), 159),
    (163, 2): ((1, 0, 1), 170),
    (167, 2): ((1, 0, 1), 169),
    (13, 4): ((2, 0, 0, 0, 1), 17),
    (31, 3): ((3, 0, 0, 1), 34),
    (173, 2): ((2, 0, 1), 174),
    (179, 2): ((1, 0, 1), 182),
    (181, 2): ((2, 0, 1), 185),
    (191, 2): ((1, 0, 1), 201),
    (193, 2): ((5, 0, 1), 198),
    (197, 2): ((2, 0, 1), 200),
    (199, 2): ((1, 0, 1), 212),
    (211, 2): ((1, 0, 1), 215),
    (223, 2): ((1, 0, 1), 225),
    (37, 3): ((2, 0, 0, 1), 75),
    (227, 2): ((1, 0, 1), 229),
    (229, 2): ((2, 0, 1), 231),
    (233, 2): ((3, 0, 1), 241),
    (239, 2): ((1, 0, 1), 247),
    (241, 2): ((7, 0, 1), 248),
    (3, 10): ((1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1), 34),
    (251, 2): ((1, 0, 1), 256),
}


def bare_field(p, m):
    """An ExtField with p, m and q set and no tables: enough for the
    modulus search and, once the modulus is set, for the alpha search."""
    F = object.__new__(ExtField)
    F.p, F.m, F.q = p, m, p**m
    return F


class TestCanonicalChoices:
    def test_every_extension_field(self):
        fields = [(p, m) for p, m, _ in odd_prime_powers(SIZE_CAP) if m > 1]
        assert fields == list(CANONICAL)
        for (p, m), (modulus, alpha) in CANONICAL.items():
            F = bare_field(p, m)
            F.modulus = F._find_modulus()
            assert (F.modulus, F._find_alpha()) == (modulus, alpha), (p, m)


def mobius(n):
    primes = prime_factors(n)
    return (-1) ** len(primes) if math.prod(primes) == n else 0


def irreducible_count(p, m, is_irreducible):
    """How many monic polynomials of degree m over GF(p) is_irreducible
    accepts."""
    return sum(is_irreducible([*tail, 1], p) for tail in itertools.product(range(p), repeat=m))


def trial_below_half(coeffs, p):
    """Near miss: trial division by the degrees 1 to m/2 - 1 only."""
    return all(any(ff._pp_rem(coeffs, [*tail, 1], p))
               for d in range(1, (len(coeffs) - 1) // 2)
               for tail in itertools.product(range(p), repeat=d))


class TestIrreducible:
    """The trial-division test against Gauss's count of the monic
    irreducible polynomials of degree m, (1/m) sum_{d | m} mu(d) p^(m/d)."""

    FIELDS = [(p, m) for p, m, _ in odd_prime_powers(2500) if m > 1]

    @pytest.mark.parametrize("p,m", FIELDS)
    def test_gauss_count(self, p, m):
        gauss = sum(mobius(d) * p ** (m // d) for d in divisors(m)) // m
        assert irreducible_count(p, m, ff._is_irreducible) == gauss
        assert irreducible_count(p, m, trial_below_half) > gauss


class TestProduct:
    """Products of digit lists through numth.poly_mul against the schoolbook
    product and reduction."""

    @pytest.mark.parametrize("p", [3, 5, 7, 251])
    def test_against_schoolbook(self, p):
        rng = random.Random(p)
        for m in range(1, 11):
            for _ in range(20):
                modulus = [rng.randrange(p) for _ in range(m)] + [1]
                a = [rng.randrange(p) for _ in range(m)]
                b = [rng.randrange(p) for _ in range(m)]
                assert ff._pp_mulmod(a, b, modulus, p) == schoolbook_mulmod(a, b, modulus, p)


def mul(F, a, b):
    """Product of two codes through the power/dlog tables."""
    if a == 0 or b == 0:
        return 0
    return F.pow_alpha(F.dlog_code(a) + F.dlog_code(b))


class TestFieldArithmetic:
    def test_f5_mul(self):
        F = build_field(5, 1)
        assert mul(F, 2, 3) == 1

    def test_f5_fermat(self):
        F = build_field(5, 1)
        assert F.pow_alpha(4 * F.dlog_code(2)) == 1

    def test_f9_alpha_half_order_is_minus_one(self):
        F = build_field(3, 2)
        assert F.pow_alpha(8) == 1
        assert F.pow_alpha(4) == F.neg_code(1)

    @pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (3, 2), (3, 3), (5, 2), (13, 1)])
    def test_field_axioms_spot(self, p, m):
        F = build_field(p, m)
        xs = range(min(F.q, 12))
        for a in xs:
            for b in xs:
                assert F.add_codes(a, b) == F.add_codes(b, a)
                assert mul(F, a, b) == mul(F, b, a)
                assert F.add_codes(a, F.neg_code(a)) == 0
                if a and b:
                    b_inverse = F.pow_alpha(-F.dlog_code(b))
                    assert mul(F, mul(F, a, b), b_inverse) == a


class TestDlog:
    def test_examples(self):
        F5 = build_field(5, 1)
        assert F5.dlog_code(1) == 0
        assert F5.dlog_code(2) == 1
        F7 = build_field(7, 1)
        assert F7.dlog_code(6) == 3  # 3^3 = 27 = 6 mod 7

    def test_log_of_zero(self):
        F = build_field(5, 1)
        with pytest.raises(LogOfZero):
            F.dlog_code(0)

    @pytest.mark.parametrize("p,m", [(3, 1), (7, 1), (3, 2), (5, 2), (3, 4), (11, 1)])
    def test_full_round_trip(self, p, m):
        F = build_field(p, m)
        for code in range(1, F.q):
            assert F.pow_alpha(F.dlog_code(code)) == code

    @pytest.mark.parametrize("p,m", [(3, 1), (7, 1), (3, 2), (5, 2), (3, 4), (5, 3), (3, 5)])
    def test_alpha_half_order(self, p, m):
        F = build_field(p, m)
        half = (F.q - 1) // 2
        assert F.pow_alpha(half) == F.neg_code(1)
        # so the Zech table z[n] = dlog(1 + alpha^n) has no entry at T/2,
        # and every other entry agrees with the digit-by-digit code arithmetic
        zech = F.zech_log()
        assert len(zech) == F.q - 1 and zech[half] is None
        for n in range(F.q - 1):
            if n != half:
                assert zech[n] == F.dlog_code(F.add_codes(1, F.pow_alpha(n)))


def raw_mul_walk(F):
    """Oracle: alpha's powers as the element-by-element walk gives them,
    each code decoded to digits, multiplied by alpha's digits, reduced
    modulo the field's modulus and encoded again."""
    p, m, modulus = F.p, F.m, F.modulus

    def digits(code):
        return [code // p**i % p for i in range(m)]

    alpha, x, out = digits(F.alpha_code), 1, []
    for _ in range(F.q - 1):
        out.append(x)
        prod = [0] * (2 * m - 1)
        for i, xi in enumerate(digits(x)):
            for j, aj in enumerate(alpha):
                prod[i + j] += xi * aj
        for i in range(2 * m - 2, m - 1, -1):
            c = prod[i]
            for j in range(m + 1):
                prod[i - m + j] -= c * modulus[j]
        x = sum(v % p * p**i for i, v in enumerate(prod[:m]))
    assert x == 1
    return out


EXTENSION_FIELDS = [f for f in map_fields(lambda p, m: (p, m), 2048) if f[1] > 1]


def zech_by_digit(F):
    """Oracle: the Zech table element by element, as it was built at every
    m: 1 + alpha^n changes digit 0 only."""
    p, out = F.p, []
    for a in F._pow:
        y = a - (p - 1) if a % p == p - 1 else a + 1
        out.append(None if y == 0 else F._dlog[y])
    return out


class TestZechTable:
    """At every m the Zech table is one read of the dlog table, shifted by
    one where digit 0 does not wrap."""

    def test_prime_fields_to_2048(self):
        fields = [p for p, m in map_fields(lambda p, m: (p, m), 2048) if m == 1]
        assert len(fields) == 308
        for p in fields:
            F = ExtField(p, 1)
            assert F.zech_log() == zech_by_digit(F), p

    @pytest.mark.parametrize("p,m", [(3, 2), (5, 3), (3, 7)])
    def test_extension_fields(self, p, m):
        F = ExtField(p, m)
        assert F.zech_log() == zech_by_digit(F)


def trace_by_conjugates(F, code):
    """Oracle: Tr(x) as the sum of the conjugates x^(p^i), i < m, read off
    the power and dlog tables and added digit by digit; it must land in
    the prime subfield."""
    if code == 0:
        return 0
    n, acc = F.dlog_code(code), 0
    for i in range(F.m):
        acc = F.add_codes(acc, F.pow_alpha(n * F.p**i))
    assert acc < F.p, f"trace of {code} landed outside the prime subfield"
    return acc


class TestTrace:
    """trace_code reads Tr(X^j) off the modulus by Newton's identities; the
    sum of the conjugates is the reference."""

    @pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (31, 2), (3, 3), (7, 3), (3, 4),
                                     (5, 4), (3, 5), (3, 6)])
    def test_every_code(self, p, m):
        F = build_field(p, m)
        assert [F.trace_code(c) for c in range(F.q)] == [
            trace_by_conjugates(F, c) for c in range(F.q)]

    def test_sample_of_gf_3_10(self):
        F = build_field(3, 10)
        codes = range(0, F.q, 97)
        assert [F.trace_code(c) for c in codes] == [trace_by_conjugates(F, c) for c in codes]

    def test_trace_is_onto_and_balanced(self):
        # a nonzero linear form onto GF(p): every value has q/p preimages
        F = build_field(5, 3)
        traces = [F.trace_code(c) for c in range(F.q)]
        assert [traces.count(v) for v in range(5)] == [25] * 5


class TestPowerTable:
    """The multiply-by-alpha step against the element-by-element walk."""

    @pytest.mark.parametrize("p,m", EXTENSION_FIELDS + [(3, 10), (37, 3), (251, 2)])
    def test_matches_raw_mul_walk(self, p, m):
        F = build_field(p, m)
        expected = raw_mul_walk(F)
        assert F._pow == expected
        assert [F._dlog[x] for x in expected] == list(range(F.q - 1))
        assert F._dlog[0] == -1

    def test_prime_field_walk(self):
        for p in (3, 5, 7, 4099):
            F = build_field(p, 1)
            assert F._pow == [pow(F.alpha_code, n, p) for n in range(p - 1)]

    def test_rebuilt_around_another_generator(self):
        F = build_field(5, 2)
        code = max(primitive_elements(F))
        assert code != F.alpha_code
        G = with_primitive_element(F, code)
        assert G._pow == raw_mul_walk(G)


class TestWithPrimitiveElement:
    def test_rejects_non_primitive(self):
        F = build_field(7, 1)
        with pytest.raises(ValueError):
            with_primitive_element(F, 2)  # order 3

    def test_rebuilds_tables(self):
        F = build_field(7, 1)
        F.zech_log()
        G = with_primitive_element(F, 5)
        assert G.alpha_code == 5
        for code in range(1, 7):
            assert pow(5, G.dlog_code(code), 7) == code
        assert G.zech_log()[1] == G.dlog_code(6)  # 1 + 5, not F's 1 + 3


class TestResidueField:
    def test_k3(self):
        rf = build_residue_field(3)
        assert rf.f == 2 and rf.modulus == 0b111

    def test_k7_lex_choice(self):
        rf = build_residue_field(7)
        assert rf.f == 3 and rf.modulus == 0b1011

    def test_k5(self):
        rf = build_residue_field(5)
        assert rf.f == 4 and rf.modulus == 0b11111

    def test_gamma_powers_distinct(self):
        for k in (3, 5, 7, 9, 15, 21):
            rf = build_residue_field(k)
            pows = rf.gamma_pow_bits()
            assert len(set(pows)) == k

    def test_rejects_bad_k(self):
        with pytest.raises(EvenK):
            build_residue_field(6)
        with pytest.raises(KisOne):
            build_residue_field(1)

    @pytest.mark.parametrize("build", [build_residue_field, factor_phi_mod2, phi_mod2])
    def test_conductor_cap(self, build):
        # k = 65537 is a conductor past the cap: refused before any splitting
        start = time.perf_counter()
        with pytest.raises(SizeExceeded, match="size cap 65536"):
            build(65537)
        assert time.perf_counter() - start < 0.5

    def test_arithmetic(self):
        rf = build_residue_field(3)
        g = rf.gamma_pow_bits()[1]
        assert g == 0b10  # gamma, the class of X
        assert rf.mul_bits(g, g) == g ^ 1  # gamma^2 = gamma + 1 in GF(4)
        assert rf.mul_bits(rf.mul_bits(g, g), g) == 1

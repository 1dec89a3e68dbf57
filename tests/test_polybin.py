"""Binary polynomial algebra: gcd, Berlekamp-Massey, Lucas parity, root
multiplicities through the ground truth's evaluation kernel, cyclotomic
factors mod 2."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slce.criteria import _evaluate_mask, map_fields
from slce.errors import EvenK, InternalInconsistency
from slce.ff import build_field, build_residue_field
from slce.numth import euler_phi, multiplicative_order
from slce.cli import _poly_hex
from slce.polybin import (
    _deg,
    _divmod2,
    _gcd2,
    _mod2,
    _mul2,
    berlekamp_massey,
    binom_mod2,
    bit_length_h,
    factor_phi_mod2,
    index_set,
    lc_via_gcd,
    phi_mod2,
)
from slce.seq import generate_slce

X = 0b10


def brute_common_divisors(a, b, max_bits=10):
    """Oracle: every nonconstant common divisor found by exhaustive scan."""
    out = []
    for c in range(2, 1 << max_bits):
        if _mod2(a, c) == 0 and _mod2(b, c) == 0:
            out.append(c)
    return out


class TestGcd:
    def test_square_of_linear(self):
        # X^2 + 1 = (X + 1)^2 over GF(2)
        assert _gcd2(0b101, 0b11) == 0b11

    def test_coprime_q7_characteristic(self):
        # S(X) for q = 7 shares no factor with X^6 - 1
        a, b = (1 << 6) | 1, 0b110100
        assert _gcd2(a, b) == 1
        assert brute_common_divisors(a, b) == []

    def test_gcd_with_zero(self):
        f = 0b1101
        assert _gcd2(f, 0) == f
        assert _gcd2(0, f) == f

    def test_gcd_divides_both(self):
        a, b = 0b1011101, 0b110111
        g = _gcd2(a, b)
        assert _mod2(a, g) == 0 and _mod2(b, g) == 0


def divmod_reference(a, b):
    """The division loop as it was before it took a's bit length once per
    turn: two degree reads per cleared leading bit."""
    db = b.bit_length() - 1
    q = 0
    while a.bit_length() - 1 >= db:
        s = a.bit_length() - 1 - db
        q |= 1 << s
        a ^= b << s
    return q, a


class TestDivmod:
    @given(st.integers(0, 1 << 300), st.integers(1, 1 << 80))
    @settings(max_examples=200, deadline=None)
    def test_division_identity_and_oracle(self, a, b):
        q, r = _divmod2(a, b)
        assert _mul2(q, b) ^ r == a
        assert _deg(r) < _deg(b)
        assert (q, r) == divmod_reference(a, b)
        assert _mod2(a, b) == r

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            _divmod2(0b101, 0)
        with pytest.raises(ZeroDivisionError):
            _mod2(0b101, 0)


class TestBerlekampMassey:
    def test_all_zero(self):
        r = berlekamp_massey([0, 0, 0, 0])
        assert r.L == 0 and r.minimal_poly == 1

    def test_constant_ones(self):
        r = berlekamp_massey([1, 1, 1, 1])
        assert r.L == 1 and r.minimal_poly == 0b11

    def test_q7_sequence(self):
        # gcd(X^6 - 1, S) = 1, so L = T = 6
        r = berlekamp_massey([0, 0, 1, 0, 1, 1])
        assert r.L == 6

    def test_connection_poly_reproduces_sequence(self):
        bits = [1, 1, 0, 0]
        r = berlekamp_massey(bits)
        c = r.minimal_poly
        ext = list(bits)
        for n in range(len(bits), 3 * len(bits)):
            acc = 0
            for i in range(1, r.L + 1):
                if (c >> i) & 1:
                    acc ^= ext[n - i]
            ext.append(acc)
        assert ext[: len(bits)] * 3 == ext

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=24))
    @settings(max_examples=60)
    def test_matches_gcd_formula(self, bits):
        T = len(bits)
        S = sum(b << i for i, b in enumerate(bits))
        bm = berlekamp_massey(bits)
        gc = lc_via_gcd(S, T)
        assert bm.L == gc.L
        assert bm.minimal_poly == gc.minimal_poly

    def test_non_binary_terms_rejected(self):
        for bits in ([2, 3], [0, 1, -1], [1, 0, 1, 4], [0.5, 1], [1, 1.9], [-0.3, 0]):
            with pytest.raises(ValueError, match="0 or 1"):
                berlekamp_massey(bits)


def bm_reference(bits):
    """Oracle: Berlekamp-Massey over one period repeated twice, with the
    discrepancy summed term by term over the set bits of c. Returns (L, c)."""
    seq = list(bits) * 2
    c, b = 1, 1
    L, m = 0, -1
    for n in range(len(seq)):
        d = 0
        cc, i = c, 0
        while cc:
            if cc & 1:
                d ^= seq[n - i]
            cc >>= 1
            i += 1
        if d:
            t = c
            c ^= b << (n - m)
            if 2 * L <= n:
                L, b, m = n + 1 - L, t, n
    return L, c


class TestBerlekampMasseyOracle:
    """The popcount kernel against the per-bit loop it replaced."""

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_random_bits(self, bits):
        r = berlekamp_massey(bits)
        assert (r.L, r.minimal_poly) == bm_reference(bits)

    def test_every_slce_sequence_up_to_512(self):
        fields = list(map_fields(lambda p, m: (p, m), 512))
        assert len(fields) == 108  # odd prime powers q <= 512
        for p, m in fields:
            terms = generate_slce(build_field(p, m), 2).terms
            r = berlekamp_massey(terms)
            assert (r.L, r.minimal_poly) == bm_reference(terms), (p, m)


class TestLcViaGcd:
    def test_zero_sequence(self):
        r = lc_via_gcd(0, 4)
        assert r.L == 0 and r.minimal_poly == 1

    def test_q7(self):
        assert lc_via_gcd(0b110100, 6).L == 6

    def test_q5(self):
        # gcd(X^4 - 1, 1 + X) = 1 + X since X^4 - 1 = (X + 1)^4
        r = lc_via_gcd(0b11, 4)
        assert r.L == 3
        assert r.minimal_poly == 0b1111

    def test_degree_precondition(self):
        # deg S >= T, and a negative int, which is no bit-vector
        for S in (0b10001, -1):
            with pytest.raises(ValueError):
                lc_via_gcd(S, 4)


def pascal_parity_rows(n_max):
    """Oracle: binomial parities via the XOR form of Pascal's rule."""
    rows = []
    row = 1
    for _ in range(n_max + 1):
        rows.append(row)
        row ^= row << 1
    return rows


class TestBinomMod2:
    @pytest.mark.parametrize("n,t,expect", [(5, 1, 1), (4, 2, 0), (6, 2, 1)])
    def test_examples(self, n, t, expect):
        assert binom_mod2(n, t) == expect

    def test_exhaustive_against_pascal(self):
        rows = pascal_parity_rows(1024)
        for n in range(1025):
            row = rows[n]
            for t in range(n + 1):
                assert binom_mod2(n, t) == (row >> t) & 1

    @given(st.integers(0, 1 << 16), st.integers(0, 1 << 16))
    @settings(max_examples=200, deadline=None)
    def test_against_exact_binomial(self, n, t):
        import math

        expect = math.comb(n, t) & 1 if t <= n else 0
        assert binom_mod2(n, t) == expect


def multiplicity(f, k, e=1):
    """Multiplicity of beta = gamma^e of order k as a root of the nonzero
    GF(2) polynomial f, read off the ground truth's kernels: the least t
    whose Hasse-derivative sum over n & t == t does not vanish, with the
    terms n & t == t of f folded mod X^k - 1 and evaluated at gamma^e."""
    gp = (1,) if k == 1 else build_residue_field(k).gamma_pow_bits()
    t = 0
    while not _evaluate_mask(hasse_terms(f, t), gp, k, e):
        t += 1
    return t


def hasse_terms(f, t):
    """The terms X^n of f with n & t == t, whose coefficients C(n, t) are odd."""
    return sum(1 << n for n in range(f.bit_length()) if f >> n & 1 and n & t == t)


class TestRootMultiplicity:
    def test_double_root_at_one(self):
        sq = _mul2(0b11, 0b11)
        assert multiplicity(sq, 1) == 2

    def test_q7_characteristic_at_order3_root(self):
        S = 0b110100
        assert multiplicity(S, 3) == 0
        # the sum itself is gamma (hand reduction with gamma^2 = gamma + 1)
        gp = build_residue_field(3).gamma_pow_bits()
        assert _evaluate_mask(S, gp, 3, 1) == gp[1]

    def test_xt_minus_one(self):
        # X^T - 1 = (X^T' - 1)^(2^u): any T'-th root of unity has mult 2^u
        T, u = 56, 3
        assert multiplicity((1 << T) | 1, 7) == 1 << u

    @given(st.integers(1, 255), st.integers(1, 255))
    @settings(max_examples=60)
    def test_additive_over_products(self, av, bv):
        assert multiplicity(_mul2(av, bv), 5) == multiplicity(av, 5) + multiplicity(bv, 5)


class TestFactorPhiMod2:
    def test_k3(self):
        assert factor_phi_mod2(3) == (0b111,)

    def test_k7_ordering(self):
        # X^3 + X + 1 encodes below X^3 + X^2 + 1
        assert factor_phi_mod2(7) == (0b1011, 0b1101)

    def test_k5_irreducible(self):
        (f,) = factor_phi_mod2(5)
        assert f == 0b11111 and _deg(f) == 4

    def test_k9_single_degree6(self):
        fs = factor_phi_mod2(9)
        assert len(fs) == 1 and _deg(fs[0]) == 6

    def test_even_k_rejected(self):
        with pytest.raises(EvenK):
            factor_phi_mod2(6)

    @pytest.mark.parametrize("k", [3, 5, 7, 9, 15, 21, 33, 35, 45, 63])
    def test_degrees_and_divisibility(self, k):
        from slce.numth import euler_phi, multiplicative_order

        f = multiplicative_order(2, k)
        factors = factor_phi_mod2(k)
        assert all(_deg(g) == f for g in factors)
        assert sum(_deg(g) for g in factors) == euler_phi(k)
        xk1 = (1 << k) | 1
        prod = 1
        for g in factors:
            assert _mod2(xk1, g) == 0
            prod = _mul2(prod, g)
        assert prod == phi_mod2(k)


def test_phi_mod2_matches_gf2_division_by_every_divisor():
    # Phi_n mod 2 = (X^n + 1) / prod of Phi_d mod 2 over the proper divisors d
    table = {}
    for n in range(1, 601):
        rem = (1 << n) | 1
        for d in range(1, n):
            if n % d == 0:
                rem, r = _divmod2(rem, table[d])
                assert not r
        table[n] = rem
        if n % 2:
            assert phi_mod2(n) == rem


def trial_division_factors(k):
    """Oracle: the factors of Phi_k mod 2 by trial division over candidate
    polynomials of degree f in encoding order (exponential in f)."""
    f = multiplicative_order(2, k)
    rem = phi_mod2(k)
    count = euler_phi(k) // f
    out = []
    c = (1 << f) | 1
    while len(out) < count:
        if rem.bit_length() - 1 == f:
            out.append(rem)
            break
        q, r = _divmod2(rem, c)
        if not r:
            out.append(c)
            rem = q
        c += 2
    return out


class TestFactorPhiTraceSplitting:
    @pytest.mark.parametrize(
        "k", [k for k in range(3, 256, 2) if multiplicative_order(2, k) <= 12]
    )
    def test_matches_trial_division(self, k):
        assert list(factor_phi_mod2(k)) == trial_division_factors(k)

    @pytest.mark.parametrize("k", [69, 95])
    def test_factorization_invariants(self, k):
        f = multiplicative_order(2, k)
        factors = factor_phi_mod2(k)
        assert len(factors) == euler_phi(k) // f
        assert list(factors) == sorted(factors)
        prod = 1
        for g in factors:
            assert _deg(g) == f
            # X^(2^f) = X mod g: every root lies in GF(2^f)
            x = X
            for _ in range(f):
                x = _mod2(_mul2(x, x), g)
            assert x == _mod2(X, g)
            prod = _mul2(prod, g)
        assert prod == phi_mod2(k)

    def test_k69_canonical_factor_unchanged(self):
        # the value trial division gives; it pins every order-69 residue field
        assert factor_phi_mod2(69)[0] == 0x533067

    def test_k3279_bounded_time(self):
        start = time.perf_counter()
        factors = factor_phi_mod2.__wrapped__(3279)
        assert time.perf_counter() - start < 5.0
        assert len(factors) == 6 and all(_deg(g) == 364 for g in factors)

    def test_wrong_factor_count_raises(self, monkeypatch):
        import slce.polybin as polybin_mod

        # claims four cubic factors of Phi_7 mod 2; there are two
        monkeypatch.setattr(polybin_mod, "euler_phi", lambda n: 12)
        with pytest.raises(InternalInconsistency):
            factor_phi_mod2.__wrapped__(7)


class TestIndexSets:
    def test_t0(self):
        assert bit_length_h(0) == 0 and index_set(0) == [0]

    def test_t1(self):
        assert bit_length_h(1) == 1 and index_set(1) == [1]

    def test_t2(self):
        # strict bound: t = 2 needs h = 2 (order-4 twists, modulus 8)
        assert bit_length_h(2) == 2 and index_set(2) == [2, 3]

    @given(st.integers(0, 4096))
    @settings(max_examples=80)
    def test_members_dominate(self, t):
        h = bit_length_h(t)
        assert t < (1 << h) or t == 0
        for i in index_set(t):
            assert binom_mod2(i, t) == 1


class TestSerialization:
    @given(st.integers(0, 1 << 40))
    @settings(max_examples=60)
    def test_hex_round_trip(self, v):
        assert int.from_bytes(bytes.fromhex(_poly_hex(v)), "little") == v

    def test_hex_layout(self):
        # 1 + X keeps the constant term in the lowest bit of the first byte
        assert _poly_hex(0b11) == "03"
        assert _poly_hex(0) == "00"

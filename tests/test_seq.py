"""Sequence generation, statistics, and the d-ary terms generate prints."""

import json

import pytest

from slce.cli import main
from slce.criteria import map_fields
from slce.errors import BadAlphabet, CompositeP
from slce.ff import build_field
from slce.numth import divisors
from slce.seq import SlceSequence, autocorrelation, generate_slce, slce_terms


def brute_slce_prime_field(p, alpha, d=2):
    """Oracle: the sequence over GF(p) from plain modular arithmetic and a
    scan-based discrete log."""
    T = p - 1
    logs = {pow(alpha, n, p): n for n in range(T)}
    terms = []
    for n in range(T):
        y = (pow(alpha, n, p) + 1) % p
        terms.append(0 if y == 0 else logs[y] % d)
    return tuple(terms)


class TestGenerate:
    def test_q5(self):
        F = build_field(5, 1)
        s = generate_slce(F)
        assert s.terms == (1, 1, 0, 0)
        assert s.terms == brute_slce_prime_field(5, 2)
        assert (s.T, s.u, s.Tprime) == (4, 2, 1)

    def test_q7(self):
        F = build_field(7, 1)
        s = generate_slce(F)
        assert s.terms == (0, 0, 1, 0, 1, 1)
        assert s.terms == brute_slce_prime_field(7, 3)
        assert s.to_bitstring() == "001011"

    def test_bad_alphabet(self):
        F = build_field(7, 1)
        with pytest.raises(BadAlphabet):
            slce_terms(F, 4)  # not prime
        with pytest.raises(BadAlphabet):
            slce_terms(F, 5)  # does not divide 6

    def test_ternary_generation(self):
        F = build_field(7, 1)
        terms = slce_terms(F, 3)
        assert terms == brute_slce_prime_field(7, 3, d=3)
        assert set(terms) <= {0, 1, 2}

    @pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (5, 2), (3, 3)])
    def test_midpoint_zero(self, p, m):
        s = generate_slce(build_field(p, m))
        assert s.terms[s.T // 2] == 0

    @pytest.mark.parametrize("p,m", [(5, 1), (7, 1), (3, 2), (13, 1), (5, 2), (3, 3)])
    def test_minimal_period(self, p, m):
        s = generate_slce(build_field(p, m))
        for d in divisors(s.T)[:-1]:
            assert any(s.terms[n] != s.terms[(n + d) % s.T] for n in range(s.T))


class TestStatistics:
    def test_autocorrelation_q5(self):
        s = generate_slce(build_field(5, 1))
        assert autocorrelation(s) == (4, 0, -4, 0)

    def test_autocorrelation_symmetry(self):
        for p, m in [(7, 1), (3, 2), (11, 1), (13, 1)]:
            s = generate_slce(build_field(p, m))
            c = autocorrelation(s)
            for tau in range(1, s.T):
                assert c[tau] == c[s.T - tau]

    def test_balance(self):
        s5 = generate_slce(build_field(5, 1))
        assert s5.terms.count(1) == 2
        s7 = generate_slce(build_field(7, 1))
        assert s7.terms.count(1) == 3


def autocorrelation_reference(terms, tau):
    """Oracle: the position-by-position count of mismatches s_n != s_(n+tau)."""
    T = len(terms)
    mismatches = sum(1 for n in range(T) if terms[n] != terms[(n + tau) % T])
    return T - 2 * mismatches


def autocorrelation_popcount(s):
    """Oracle: one rotate-xor-popcount of S(X) per shift tau."""
    v, T = s.bits, s.T
    full = (1 << T) - 1
    return tuple(
        T - 2 * (v ^ ((v >> tau) | ((v << (T - tau)) & full))).bit_count() for tau in range(T)
    )


class TestAutocorrelationOracle:
    def test_every_shift_up_to_256(self):
        fields = list(map_fields(lambda p, m: (p, m), 256))
        assert len(fields) == 62  # odd prime powers q <= 256
        for p, m in fields:
            s = generate_slce(build_field(p, m))
            expected = tuple(autocorrelation_reference(s.terms, tau) for tau in range(s.T))
            assert autocorrelation(s) == expected, (p, m)

    @pytest.mark.parametrize("p", [4099, 8191])
    def test_large_fields_match_popcount(self, p):
        s = generate_slce(build_field(p, 1))
        assert autocorrelation(s) == autocorrelation_popcount(s)

    def test_shift_taken_mod_T(self):
        # one value per shift tau in [0, T), the peak C(0) = T first
        for p, m in [(3, 1), (13, 1), (3, 4)]:
            s = generate_slce(build_field(p, m))
            c = autocorrelation(s)
            assert len(c) == s.T and c[0] == s.T

    def test_degenerate_weights(self):
        # not generator outputs: the all-zero and all-one periods
        for terms in ((0,) * 6, (1,) * 6):
            s = SlceSequence(build_field(7, 1), terms)
            assert autocorrelation(s) == (6,) * 6


class TestCharacteristicPoly:
    def test_bits_packs_one_period(self):
        s = generate_slce(build_field(11, 1))
        assert [(s.bits >> n) & 1 for n in range(s.T)] == list(s.terms)
        assert s.bits >> s.T == 0

    def test_q5(self):
        s = generate_slce(build_field(5, 1))
        assert s.bits == 0b11  # 1 + X

    def test_q7(self):
        s = generate_slce(build_field(7, 1))
        assert s.bits == 0b110100  # X^2 + X^4 + X^5

    def test_degree_bound(self):
        s = generate_slce(build_field(13, 1))
        assert s.bits.bit_length() - 1 < s.T

    def test_degenerate_all_zero_terms(self):
        # not a generator output, but the statistics must degrade sanely
        s = SlceSequence(build_field(5, 1), (0, 0, 0, 0))
        assert (s.T, s.u, s.Tprime) == (4, 2, 1)
        assert s.bits == 0
        assert s.terms.count(1) == 0 and s.ones_positions() == ()


class TestSerialization:
    """What the generate command prints: the JSON document, and slce_terms,
    the d-ary terms that only it prints."""

    def test_json_schema(self, capsys):
        assert main(["generate", "--p", "5", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "p": 5, "m": 1, "d": 2,
            "alpha_dlog_basis": "canonical",
            "terms": [1, 1, 0, 0],
        }
        assert main(["generate", "--p", "7", "--d", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["d"] == 3 and tuple(doc["terms"]) == slce_terms(build_field(7, 1), 3)

    def test_non_int_field_parameters(self, monkeypatch):
        import slce.ff as ff

        monkeypatch.setattr(ff, "_FIELDS", {})
        with pytest.raises(CompositeP):
            build_field(7.0, 1)
        with pytest.raises(ValueError):
            build_field(7, True)
        assert type(build_field(7, 1).m) is int
        for d in (3.0, True):
            with pytest.raises(ValueError, match="int"):
                slce_terms(build_field(7, 1), d)

    def test_alphabet_check(self):
        # d must be a prime divisor of q - 1
        for d in (4, 5, 1, 0, 2**61 - 1):  # a large prime d is refused without testing it
            with pytest.raises(BadAlphabet):
                slce_terms(build_field(7, 1), d)
        assert set(slce_terms(build_field(7, 1), 3)) == {0, 1, 2}

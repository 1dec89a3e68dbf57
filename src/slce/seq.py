"""SLCE sequence generation and elementary statistics.

The d-ary sequence of period T = q - 1 over the alphabet {0, ..., d-1}
assigns to position n the coset index i of alpha^n + 1 in the partition
of GF(q)* into the d cosets alpha^i <alpha^d>, and 0 when alpha^n + 1 = 0
(which happens exactly once per period, at n = T/2 for odd q). The coset
index is the Zech logarithm dlog(alpha^n + 1) mod d, read off the field's
table. For d = 2, S(X) = sum s_n X^n is the int bit-vector `bits`.

Everything downstream of generation (complexity, criteria) is binary-only;
d > 2 sequences can be generated but only serialized.
"""

from .errors import BadAlphabet, NotBinary
from .ff import build_field
from .numth import cyclic_mul, is_prime, two_adic_split
from .polybin import _BIT_DIGITS


class SlceSequence:
    """One period of an SLCE sequence over an ExtField, with T = q - 1 and
    its 2-adic split T = 2^u T'."""

    __slots__ = ("field", "d", "terms", "T", "u", "Tprime", "_bits", "_tables")

    def __init__(self, field, d, terms, T, u, Tprime):
        self.field, self.d, self.terms = field, d, terms
        self.T, self.u, self.Tprime = T, u, Tprime
        self._bits = None
        self._tables = {}  # tables the analysis builds once per sequence

    @property
    def bits(self):
        """S(X) = sum s_n X^n over one period, as an int bit-vector whose
        bit n is s_n (binary sequences only)."""
        if self._bits is None:
            self._bits = int(self.to_bitstring()[::-1], 2)
        return self._bits

    def ones_positions(self):
        """Positions n with s_n = 1 (binary sequences only)."""
        if self.d != 2:
            raise NotBinary("ones_positions is defined for d = 2")
        return tuple(n for n, s in enumerate(self.terms) if s)

    def to_bitstring(self):
        if self.d != 2:
            raise NotBinary("the bit form of a sequence is defined for d = 2")
        return bytes(self.terms).translate(_BIT_DIGITS).decode()

    def to_json(self):
        return {
            "p": self.field.p,
            "m": self.field.m,
            "d": self.d,
            "alpha_dlog_basis": "canonical",
            "terms": list(self.terms),
        }


def _check_alphabet(q, d):
    if type(d) is not int:
        raise ValueError(f"d must be an int, got {d!r}")
    if d < 2 or (q - 1) % d != 0 or not is_prime(d):
        raise BadAlphabet(f"d = {d} must be a prime divisor of q - 1 = {q - 1}")


def generate_slce(field, d=2):
    """The SLCE sequence over GF(q) for a prime alphabet size d | q - 1."""
    _check_alphabet(field.q, d)
    T = field.q - 1
    terms = tuple(0 if z is None else z % d for z in field.zech_log())
    u, Tprime = two_adic_split(T)
    return SlceSequence(field, d, terms, T, u, Tprime)


def sequence_from_json(doc):
    """Rebuild a sequence from its JSON form, regenerating the field."""
    field = build_field(doc["p"], doc["m"])
    d, terms = doc["d"], tuple(doc["terms"])
    _check_alphabet(field.q, d)
    T = field.q - 1
    if len(terms) != T:
        raise ValueError("term count does not match the period q - 1")
    if any(type(s) is not int or not 0 <= s < d for s in terms):
        raise ValueError(f"every term must be an int in [0, {d})")
    u, Tprime = two_adic_split(T)
    return SlceSequence(field, d, terms, T, u, Tprime)


def autocorrelation(s):
    """Periodic autocorrelation C(tau) = sum (-1)^(s_(n+tau) - s_n) for every
    tau in [0, T), d = 2. Slot T-1-tau of S(X) X^(T-1) S(1/X) mod X^T - 1,
    one exact product, is R(tau) = sum s_n s_(n+tau), and
    C(tau) = T - 4W + 4R(tau) for the weight W = R(0)."""
    if s.d != 2:
        raise NotBinary("autocorrelation is defined for d = 2")
    R = cyclic_mul(s.terms, s.terms[::-1])
    base = s.T - 4 * R[-1]
    return tuple([base + 4 * r for r in reversed(R)])


def balance_report(s):
    """Counts per symbol over one period."""
    return {i: s.terms.count(i) for i in range(s.d)}

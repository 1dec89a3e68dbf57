"""Binary SLCE sequence generation and elementary statistics.

The SLCE sequence of period T = q - 1 over the alphabet {0, ..., d-1}
assigns to position n the coset index i of alpha^n + 1 in the partition
of GF(q)* into the d cosets alpha^i <alpha^d>, and 0 when alpha^n + 1 = 0
(which happens exactly once per period, at n = T/2 for odd q). The coset
index is the Zech logarithm dlog(alpha^n + 1) mod d, read off the field's
table by slce_terms.

Everything downstream of generation (complexity, criteria, statistics) is
binary, and SlceSequence is the d = 2 sequence, whose S(X) = sum s_n X^n
is the int bit-vector `bits`. A sequence with d > 2 is generated and
printed only by the generate command.
"""

from .errors import BadAlphabet
from .numth import cyclic_mul, is_prime, two_adic_split
from .polybin import _BIT_DIGITS


class SlceSequence:
    """One period of a binary SLCE sequence over an ExtField, with
    T = q - 1 and its 2-adic split T = 2^u T'."""

    __slots__ = ("field", "terms", "T", "u", "Tprime", "_bits", "_tables")

    def __init__(self, field, terms):
        self.field, self.terms = field, terms
        self.T = field.q - 1
        self.u, self.Tprime = two_adic_split(self.T)
        self._bits = None
        self._tables = {}  # tables the analysis builds once per sequence

    @property
    def bits(self):
        """S(X) = sum s_n X^n over one period, as an int bit-vector whose
        bit n is s_n."""
        if self._bits is None:
            self._bits = int(self.to_bitstring()[::-1], 2)
        return self._bits

    def ones_positions(self):
        """Positions n with s_n = 1."""
        return tuple(n for n, s in enumerate(self.terms) if s)

    def to_bitstring(self):
        return bytes(self.terms).translate(_BIT_DIGITS).decode()


def _check_alphabet(q, d):
    if type(d) is not int:
        raise ValueError(f"d must be an int, got {d!r}")
    if d < 2 or (q - 1) % d != 0 or not is_prime(d):
        raise BadAlphabet(f"d = {d} must be a prime divisor of q - 1 = {q - 1}")


def slce_terms(field, d):
    """One period of the SLCE terms over GF(q) for a prime alphabet size
    d | q - 1."""
    _check_alphabet(field.q, d)
    return tuple(0 if z is None else z % d for z in field.zech_log())


def generate_slce(field):
    """The binary SLCE sequence over GF(q)."""
    return SlceSequence(field, slce_terms(field, 2))


def autocorrelation(s):
    """Periodic autocorrelation C(tau) = sum (-1)^(s_(n+tau) - s_n) for every
    tau in [0, T). Slot T-1-tau of S(X) X^(T-1) S(1/X) mod X^T - 1,
    one exact product, is R(tau) = sum s_n s_(n+tau), and
    C(tau) = T - 4W + 4R(tau) for the weight W = R(0)."""
    R = cyclic_mul(s.terms, s.terms[::-1])
    base = s.T - 4 * R[-1]
    return tuple([base + 4 * r for r in reversed(R)])

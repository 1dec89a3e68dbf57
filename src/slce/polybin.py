"""Polynomial algebra over GF(2).

A polynomial a_0 + a_1 X + ... + a_n X^n is stored as the integer
a_0 + a_1 2 + ... + a_n 2^n, i.e. bit i is the coefficient of X^i.
The zero polynomial is the integer 0 and reports degree -1 (the sentinel
for "minus infinity"). Every module passes these ints around and calls
the module-private kernels below.

This module also hosts the combinatorial helpers tied to GF(2) root
multiplicities: binomial parity, the factorization of the k-th cyclotomic
polynomial mod 2, and the index sets I_t used by the divisibility
criteria. The Hasse-derivative sums themselves are evaluated in
criteria, straight from the ones positions of a sequence.
"""

from functools import lru_cache
from typing import NamedTuple

from .errors import EvenK, InternalInconsistency
from .numth import CONDUCTORS_HELD, cyclotomic_polynomial, euler_phi, multiplicative_order

# ---------------------------------------------------------------------------
# raw int helpers


def _deg(a):
    return a.bit_length() - 1


def _mul2(a, b):
    if a < b:
        a, b = b, a
    c = 0
    while b:
        if b & 1:
            c ^= a
        a <<= 1
        b >>= 1
    return c


def _divmod2(a, b):
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    lb = b.bit_length()
    q = 0
    while (s := a.bit_length() - lb) >= 0:
        q |= 1 << s
        a ^= b << s
    return q, a


def _mod2(a, b):
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    lb = b.bit_length()
    while (s := a.bit_length() - lb) >= 0:
        a ^= b << s
    return a


def _exact_div2(a, b):
    q, r = _divmod2(a, b)
    if r:
        raise InternalInconsistency("polynomial division was not exact")
    return q


def _gcd2(a, b):
    while b:
        a, b = b, _mod2(a, b)
    return a


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _pack_bits(digits):
    # the int whose binary digits, most significant first, are the 0/1 ints
    # or bytes of digits
    return int(bytes(digits).translate(_BIT_DIGITS), 2)


def _frobenius_pow(a, e):
    # a(X)^(2^j) = a(X^(2^j)) over GF(2): spread every set bit by the factor e = 2^j
    out = 0
    n = a
    while n:
        low = n & -n
        out |= 1 << ((low.bit_length() - 1) * e)
        n ^= low
    return out


# ---------------------------------------------------------------------------
# linear complexity


class LinearComplexityResult(NamedTuple):
    """Linear complexity L together with the minimal polynomial c(X), an
    int bit-vector."""

    L: int
    minimal_poly: int


def berlekamp_massey(bits):
    """Shortest LFSR for the *periodic* sequence whose period is `bits`.

    The input is one full period; it is processed twice so the register
    that reproduces the periodic extension (not merely the prefix) is
    found. Returns the length L and the connection polynomial
    c(X) = 1 + c_1 X + ... + c_L X^L with s_n = sum c_i s_{n-i}.

    The doubled period is packed once into A, bit 2T - 1 - n of which is
    s_n, so bit i of A >> (2T - 1 - n) is s_(n-i) for i <= n and 0 above,
    and the discrepancy at step n is the parity of c & (A >> (2T - 1 - n)).
    """
    seq = tuple(bits)
    if not seq:
        raise ValueError("empty sequence")
    if seq.count(0) + seq.count(1) != len(seq):
        raise ValueError("every term must be 0 or 1")
    top = 2 * len(seq) - 1
    A = _pack_bits(bytes(map(int, seq)) * 2)
    c, b = 1, 1  # connection poly and previous connection poly, as bit-vectors
    L, m = 0, -1
    for n in range(top + 1):
        if ((A >> (top - n)) & c).bit_count() & 1:
            t = c
            c ^= b << (n - m)
            if 2 * L <= n:
                L = n + 1 - L
                b = t
                m = n
    return LinearComplexityResult(L, c)


def lc_via_gcd(S, T):
    """Linear complexity from c(X) = (X^T - 1) / gcd(X^T - 1, S(X)), for S
    an int bit-vector with 0 <= S and deg S < T."""
    if S < 0 or _deg(S) >= T:
        raise ValueError("S must be a nonnegative bit-vector with deg S < T")
    xt1 = (1 << T) | 1  # X^T - 1 = X^T + 1 over GF(2)
    g = _gcd2(xt1, S)
    return LinearComplexityResult(T - _deg(g), _exact_div2(xt1, g))


# ---------------------------------------------------------------------------
# Lucas parity


def binom_mod2(n, t):
    """Parity of C(n, t): 1 iff every binary digit of t is <= that of n."""
    return 1 if (n & t) == t else 0


# ---------------------------------------------------------------------------
# cyclotomic polynomials over GF(2)


def phi_mod2(n):
    """The n-th cyclotomic polynomial reduced mod 2, as an int bit-vector:
    the parities of the integer coefficients, so n is capped as a conductor."""
    return int("".join("1" if c & 1 else "0" for c in reversed(cyclotomic_polynomial(n))), 2)


@lru_cache(maxsize=CONDUCTORS_HELD)
def factor_phi_mod2(k):
    """Distinct irreducible factors of the k-th cyclotomic polynomial mod 2.

    All factors have degree f = ord_k(2); there are phi(k)/f of them and
    they come back sorted by their int encoding (low-order coefficients
    weigh least), so the first entry is the canonical factor.

    Factors are split off by Berlekamp's trace algorithm: for j = 1, 2, ...
    take T_j = sum of X^(j 2^i mod k) over i < f and split every pending
    factor g by gcd(g, T_j mod g). Since X^k = 1 at every root zeta^a of
    Phi_k, T_j(zeta^a) is the trace Tr(zeta^(aj)), which lies in GF(2) and
    is constant on each irreducible factor. The functional
    P -> Tr(P(zeta^a)) is nonzero on the CRT component of zeta^a's minimal
    polynomial in GF(2)[X]/(X^k - 1) and zero on every other component, so
    two distinct factors differ at some monomial X^j with 0 < j < k. T_j
    and T_(2j) agree at every root, so one j per 2-cyclotomic coset
    suffices, and the loop ends within k - 1 rounds. Results are held for
    CONDUCTORS_HELD values of k at once, like ff.build_residue_field's.
    """
    if k % 2 == 0:
        raise EvenK("k must be odd")
    factors = [phi_mod2(k)]  # refuses k past the size cap before the order is sought
    f = multiplicative_order(2, k)
    count = euler_phi(k) // f
    seen = set()
    for j in range(1, k):
        if len(factors) == count:
            break
        if j in seen:
            continue
        trace, e = 0, j
        for _ in range(f):
            seen.add(e)
            trace ^= 1 << e
            e = 2 * e % k
        split = []
        for g in factors:
            d = _gcd2(g, _mod2(trace, g)) if _deg(g) > f else 1
            if 0 < _deg(d) < _deg(g):
                split += [d, _exact_div2(g, d)]
            else:
                split.append(g)
        factors = split
    if len(factors) != count or any(_deg(g) != f for g in factors):
        raise InternalInconsistency(
            f"trace splitting left {len(factors)} factors of Phi_{k} mod 2, "
            f"expected {count} of degree {f}"
        )
    return tuple(sorted(factors))


# ---------------------------------------------------------------------------
# index sets for the divisibility criteria


def bit_length_h(t):
    """Number of binary digits of t (0 for t = 0): the least h with t < 2^h.

    The strict bound matters: t = 2 gets h = 2, pairing it with order-4
    twist characters and modulus 8, which is what the t = 2 criterion uses.
    """
    return t.bit_length()


def index_set(t):
    """I_t: all i in [0, 2^h) whose binary digits dominate those of t."""
    h = bit_length_h(t)
    return [i for i in range(1 << h) if (i & t) == t]

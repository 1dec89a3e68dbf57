"""Finite fields as codes and tables: GF(p^m) with a dense dlog table, and
GF(2^f) residue fields. Elements are plain ints, codes in GF(p^m) and
bit-vectors in GF(2^f), combined through the field's tables and helpers.

GF(p^m) elements are encoded as ints in [0, q): the element with
polynomial-basis coefficients (c_0, ..., c_{m-1}) gets the code
c_0 + c_1 p + ... + c_{m-1} p^(m-1). The code order doubles as the
canonical "lexicographic" order (low coefficients weigh least), which pins
the modulus and the primitive element deterministically:

  * modulus: first irreducible monic polynomial of degree m in code order;
  * alpha:   first element of multiplicative order q - 1 in code order.

Both searches rest on one GF(p)[X] remainder, _pp_rem: a candidate
modulus is irreducible when trial division by every monic polynomial of
degree 1 to m/2 leaves a nonzero remainder, and a product of digit lists
is numth.poly_mul reduced by the same remainder.

Construction fills a full power/dlog table, so multiplication, inversion
and discrete logs are O(1) lookups afterwards. SIZE_CAP keeps tables
desk-sized; it lives in numth, next to the cyclotomic polynomials whose
conductors it also bounds, and bounds q here.

GF(2^f) residue fields are built as GF(2)[X]/(f_can) where f_can is the
canonical irreducible factor of the k-th cyclotomic polynomial mod 2, so
the class gamma of X has multiplicative order exactly k; an element is the
int bit-vector of its polynomial in gamma, and the field holds the table
of gamma's powers. This is the concrete home for odd-order roots of
X^T - 1 and for reductions of cyclotomic integers modulo a prime over 2.

map_fields runs a function over every field up to a given q, as verify and
sweep do.
"""

import itertools
import os
import weakref
from functools import lru_cache, partial
from operator import mul

from . import polybin
from .errors import (
    CompositeP,
    EvenK,
    InternalInconsistency,
    KisOne,
    LogOfZero,
    SizeExceeded,
)
from .numth import CONDUCTORS_HELD, SIZE_CAP, is_prime, poly_mul, power, prime_factors


# ---------------------------------------------------------------------------
# dense GF(p) polynomial helpers used only during field construction


def _pp_rem(a, b, p):
    """a modulo the monic b in GF(p)[X], as len(b) - 1 coefficients in
    [0, p); coefficient lists, constant first, a no shorter than that."""
    m = len(b) - 1
    r = list(a)
    for i in range(len(r) - 1, m - 1, -1):
        c = r[i] % p
        if c:
            for j in range(m):
                r[i - m + j] -= c * b[j]
    return [c % p for c in r[:m]]


def _pp_mulmod(a, b, modulus, p):
    return _pp_rem(poly_mul(a, b), modulus, p)


def _is_irreducible(coeffs, p):
    """Monic f of degree m is irreducible iff no monic g of degree 1 to m/2
    divides it (Lidl-Niederreiter, Finite Fields, ch. 3): fewer than
    2 sqrt(q) trial divisions."""
    return all(any(_pp_rem(coeffs, [*tail, 1], p))
               for d in range(1, (len(coeffs) - 1) // 2 + 1)
               for tail in itertools.product(range(p), repeat=d))


def _power_sums(coeffs, p):
    """Tr(X^j) for j < m in GF(p)[X]/(f), f = coeffs monic of degree m: the
    j-th power sums of the roots of f (the conjugates X^(p^i) of X), by
    Newton's identities s_j = -(j a_j + sum_{i<j} a_i s_(j-i)) with
    a_i = coeffs[m - i] (Lidl-Niederreiter, Finite Fields, 2.3)."""
    m = len(coeffs) - 1
    sums = [m % p]
    for j in range(1, m):
        acc = j * coeffs[m - j] + sum(coeffs[m - i] * sums[j - i] for i in range(1, j))
        sums.append(-acc % p)
    return sums


# ---------------------------------------------------------------------------
# GF(p^m)


def field_order(p, m):
    """q = p^m after checking that p is an odd prime, m an int >= 1 and
    q <= SIZE_CAP (a bool is not an int here). The cap is checked before
    primality and without forming p^m past it, so a huge p or m is refused
    at once."""
    if type(p) is not int or p < 3 or p % 2 == 0:
        raise CompositeP(f"p must be an odd prime, got {p!r}")
    if type(m) is not int or m < 1:
        raise ValueError(f"m must be an int >= 1, got {m!r}")
    q = 1
    for _ in range(m):
        q *= p
        if q > SIZE_CAP:
            raise SizeExceeded(f"q = {p}^{m} exceeds the size cap {SIZE_CAP}")
    if not is_prime(p):
        raise CompositeP(f"p must be an odd prime, got {p}")
    return q


class ExtField:
    """GF(p^m) with canonical modulus, canonical primitive element, and a
    dense power/dlog table. Immutable after construction."""

    __slots__ = (
        "p", "m", "q", "modulus", "alpha_code",
        "_pow", "_dlog", "_trace_basis", "_zech",
        "__weakref__",
    )

    def __init__(self, p, m):
        self.p, self.m, self.q = p, m, field_order(p, m)
        self.modulus = self._find_modulus()
        self.alpha_code = self._find_alpha()
        self._build_tables()
        self._trace_basis = _power_sums(self.modulus, p)
        self._zech = None

    # -- construction -------------------------------------------------------

    def _digits(self, code):
        # the m base-p digits of a code, low digit first
        out = [0] * self.m
        for i in range(self.m):
            code, out[i] = divmod(code, self.p)
        return out

    def _find_modulus(self):
        # at m = 1 the first monic X + c is X itself: GF(p)[X]/(X) = GF(p)
        for code in range(self.q):
            coeffs = self._digits(code) + [1]
            if _is_irreducible(coeffs, self.p):
                return tuple(coeffs)
        raise InternalInconsistency("no irreducible polynomial found")

    def _find_alpha(self):
        p, m, q = self.p, self.m, self.q
        exps = [(q - 1) // r for r in prime_factors(q - 1)]
        if m == 1:
            found = (c for c in range(2, q) if all(pow(c, e, p) != 1 for e in exps))
        else:
            # powers of digit lists modulo the modulus; the codes below p lie
            # in GF(p)*, whose orders divide p - 1
            mulmod, one = partial(_pp_mulmod, modulus=self.modulus, p=p), self._digits(1)
            found = (c for c in range(p, q)
                     if all(power(self._digits(c), e, mulmod, one) != one for e in exps))
        for code in found:
            return code
        raise InternalInconsistency("no primitive element found")

    def _build_tables(self):
        """The power and dlog tables of alpha_code, walked by one
        multiply-by-alpha step: x alpha mod p at m = 1; above it, the digits
        of x alpha are the dot products of x's digits with the rows of the
        matrix whose column i holds the digits of alpha X^i."""
        p, m, q, a = self.p, self.m, self.q, self.alpha_code
        pow_table = [0] * (q - 1)
        dlog = [-1] * q
        x = 1
        if m == 1:
            for n in range(q - 1):
                pow_table[n] = x
                dlog[x] = n
                x = x * a % p
        else:
            alpha = self._digits(a)
            rows = tuple(zip(*(_pp_mulmod(alpha, self._digits(p**i), self.modulus, p)
                               for i in range(m))))
            weights = [p**j for j in range(m)]
            digits = self._digits(1)
            for n in range(q - 1):
                pow_table[n] = x
                dlog[x] = n
                digits = [sum(map(mul, digits, row)) % p for row in rows]
                x = sum(map(mul, digits, weights))
        if x != 1:
            raise InternalInconsistency("alpha does not have order q - 1")
        self._pow = pow_table
        self._dlog = dlog

    # -- code-level arithmetic ----------------------------------------------

    def add_codes(self, a, b):
        p, out, mult = self.p, 0, 1
        for _ in range(self.m):
            a, ra = divmod(a, p)
            b, rb = divmod(b, p)
            out += (ra + rb) % p * mult
            mult *= p
        return out

    def neg_code(self, a):
        p, out, mult = self.p, 0, 1
        for _ in range(self.m):
            a, ra = divmod(a, p)
            out += (-ra) % p * mult
            mult *= p
        return out

    def dlog_code(self, a):
        if a == 0:
            raise LogOfZero("discrete log of zero")
        return self._dlog[a]

    def pow_alpha(self, n):
        return self._pow[n % (self.q - 1)]

    # -- traces, and the Zech-logarithm table (lazy) -------------------------

    def trace_code(self, code):
        """Absolute trace GF(q) -> GF(p) as an int in [0, p): the digits of
        code dotted with the traces Tr(X^j) of the basis."""
        if self.m == 1:
            return code
        p, acc = self.p, 0
        for s in self._trace_basis:
            code, r = divmod(code, p)
            acc += r * s
        return acc % p

    def zech_log(self):
        """Zech-logarithm table z[n] = dlog(1 + alpha^n); the n = (q - 1)/2
        entry is None since 1 + alpha^((q-1)/2) = 1 - 1 = 0."""
        if self._zech is None:
            p, q, dlog = self.p, self.q, self._dlog
            # adding 1 changes digit 0 only: 1 + a is code a + 1, or a - (p - 1)
            # where digit 0 is p - 1, and 0 at a = p - 1
            plus_one = dlog[1:] + [None]
            plus_one[p - 1::p] = [None] + dlog[p:q:p]
            self._zech = list(map(plus_one.__getitem__, self._pow))
        return self._zech

    def __repr__(self):
        return f"ExtField(p={self.p}, m={self.m})"


# (p, m) -> the canonical GF(p^m), held weakly: a field's tables live only
# while a caller holds the field, so a run over many fields keeps one at a time
_FIELDS = weakref.WeakValueDictionary()


def build_field(p, m):
    """The canonical GF(p^m), one object per (p, m) while any reference to
    it lives; p, m and q are checked by field_order on every call, so a key
    that only compares equal to (p, m), such as (7, True), is refused."""
    field_order(p, m)
    field = _FIELDS.get((p, m))
    if field is None:
        field = _FIELDS[p, m] = ExtField(p, m)
    return field


# ---------------------------------------------------------------------------
# GF(2^f) residue fields


class ResidueField:
    """GF(2^f) = GF(2)[X]/(f_can), f_can the canonical factor of Phi_k mod 2.

    The class gamma of X has multiplicative order exactly k, realizing the
    residue ring of the cyclotomic integers of conductor k modulo the
    canonical prime over 2.
    """

    __slots__ = ("k", "f", "modulus", "_gamma_pows")

    def __init__(self, k, modulus_value, f):
        self.k = k
        self.f = f
        self.modulus = modulus_value  # int bit-vector of f_can
        self._gamma_pows = None

    def mul_bits(self, a, b):
        return polybin._mod2(polybin._mul2(a, b), self.modulus)

    def gamma_pow_bits(self):
        """Cached table of gamma^j bits for j in [0, k)."""
        if self._gamma_pows is None:
            g = polybin._mod2(2, self.modulus)
            out = [1]
            for _ in range(self.k - 1):
                out.append(self.mul_bits(out[-1], g))
            if self.mul_bits(out[-1], g) != 1:
                raise InternalInconsistency(f"gamma does not have order {self.k}")
            self._gamma_pows = out
        return self._gamma_pows

    def __repr__(self):
        return f"ResidueField(k={self.k}, f={self.f})"


@lru_cache(maxsize=CONDUCTORS_HELD)
def build_residue_field(k):
    """Canonical GF(2^f) containing the order-k roots of unity; k odd > 1.

    Held for CONDUCTORS_HELD values of k at once: every k a field touches
    divides q - 1, so one field's residue fields stay cached while memory
    does not grow with the range of a run."""
    if k % 2 == 0:
        raise EvenK("k must be odd")
    if k == 1:
        raise KisOne("k = 1 gives the prime field; use the profile helpers")
    fcan = polybin.factor_phi_mod2(k)[0]
    return ResidueField(k, fcan, polybin._deg(fcan))


# ---------------------------------------------------------------------------
# runs over fields


def odd_prime_powers(q_max):
    """(p, m, q) for every odd prime power q <= q_max, ascending in q."""
    out = []
    for p in range(3, q_max + 1, 2):
        if not is_prime(p):
            continue
        q, m = p, 1
        while q <= q_max:
            out.append((p, m, q))
            q *= p
            m += 1
    return sorted(out, key=lambda t: t[2])


def map_fields(fn, q_max, p_filter=None, jobs=1):
    """fn(p, m) for every odd prime power q = p^m <= q_max (characteristic
    p_filter only, if given: an odd prime <= SIZE_CAP), lazily in ascending
    q, each result as soon as its field finishes. The arguments are checked
    at the call. jobs > 1 maps over a pool of at most one worker per field
    and per CPU, with Pool.imap, which keeps the order; fn must then be
    picklable.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if q_max > SIZE_CAP:
        raise SizeExceeded(f"q_max = {q_max} exceeds the size cap {SIZE_CAP}")
    if p_filter is not None:
        field_order(p_filter, 1)
    fields = [(p, m) for p, m, _ in odd_prime_powers(q_max)
              if p_filter is None or p == p_filter]
    jobs = min(jobs, len(fields), os.cpu_count() or 1)
    if jobs <= 1:
        return itertools.starmap(fn, fields)
    return _pooled(fn, fields, jobs)


def _pooled(fn, fields, jobs):
    import multiprocessing

    with multiprocessing.Pool(jobs) as pool:
        yield from pool.imap(partial(_apply, fn), fields)


def _apply(fn, field):
    return fn(*field)

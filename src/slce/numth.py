"""Small deterministic number-theory helpers (desk-scale integers only),
the size cap, the builders of cyclotomic and inverse cyclotomic
polynomials over Z, and the exact product, the product modulo X^n - 1 and
the reduction modulo Phi_N of integer polynomials, each by Kronecker
substitution."""

import math
import struct
from collections import namedtuple
from functools import lru_cache

from .errors import InternalInconsistency, SizeExceeded

SIZE_CAP = 1 << 16  # bounds q (ff) and every cyclotomic conductor, over Z or mod 2

# Phi_N and Psi_N kept at once, each: every conductor a field touches divides
# q - 1 < SIZE_CAP, which has at most 120 divisors, so one field's polynomials
# stay cached while memory does not grow with the range of a run.
CONDUCTORS_HELD = 128


def is_prime(n):
    """Deterministic primality by trial division (fine under the size cap)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n):
    """Sorted list of distinct prime factors of n >= 1."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def power(x, n, mul, one=1):
    """x^n for n >= 0 by square-and-multiply under the product mul."""
    if n < 0:
        raise ValueError("negative power")
    out = one
    while n:
        if n & 1:
            out = mul(out, x)
        x = mul(x, x)
        n >>= 1
    return out


def euler_phi(n):
    phi = n
    for p in prime_factors(n):
        phi -= phi // p
    return phi


def divisors(n):
    """Sorted list of positive divisors of n."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def multiplicative_order(a, n):
    """Order of a in (Z/nZ)*; requires gcd(a, n) = 1."""
    if n == 1:
        return 1
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    t, x = 1, a % n
    while x != 1:
        x = x * a % n
        t += 1
    return t


def units(n):
    """Residues in [1, n) coprime to n; [0] for n = 1."""
    if n == 1:
        return [0]
    return [e for e in range(1, n) if math.gcd(e, n) == 1]


def two_adic_split(n):
    """Write n = 2^u * n' with n' odd; returns (u, n')."""
    u = 0
    while n % 2 == 0:
        n //= 2
        u += 1
    return u, n


def _int_divmod(a, b):
    # long division of the integer polynomial a by the monic b (coefficient
    # lists, constant term first, len(a) >= deg b): (quotient, remainder of
    # length deg b), visiting only the nonzero lower coefficients of b
    a = list(a)
    db = len(b) - 1
    lower = [(j, bj) for j, bj in enumerate(b[:db]) if bj]
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            base = i - db
            q[base] = c
            for j, bj in lower:
                a[base + j] -= c * bj
    return q, a[:db]


def _spread(coeffs, n):
    # coefficients of c(X^n)
    out = [0] * ((len(coeffs) - 1) * n + 1)
    out[::n] = coeffs
    return out


def _check_conductor(N):
    if N < 1:
        raise ValueError("N must be positive")
    if N > SIZE_CAP:
        raise SizeExceeded(f"conductor {N} exceeds the size cap {SIZE_CAP}")


@lru_cache(maxsize=CONDUCTORS_HELD)
def cyclotomic_polynomial(N):
    """Exact integer coefficients of the N-th cyclotomic polynomial,
    constant term first.

    From Phi_1 = X - 1, each prime p | N gives Phi_(pm)(X) = Phi_m(X^p) /
    Phi_m(X) for p not dividing m, which builds Phi_rad(N); then
    Phi_N(X) = Phi_rad(N)(X^(N / rad N))."""
    _check_conductor(N)
    phi, rad = [-1, 1], 1
    for p in prime_factors(N):
        phi, rem = _int_divmod(_spread(phi, p), phi)
        if any(rem):
            raise InternalInconsistency(f"Phi_{rad}(X^{p}) is not divisible by Phi_{rad}")
        rad *= p
    return tuple(_spread(phi, N // rad))


@lru_cache(maxsize=CONDUCTORS_HELD)
def inverse_cyclotomic_polynomial(N):
    """Exact integer coefficients of Psi_N = (X^N - 1) / Phi_N, constant
    term first; -Psi_N is the inverse of Phi_N modulo X^N.

    Psi_N(X) = Psi_rad(N)(X^(N / rad N)) as for Phi_N, and for the radical,
    with p its largest prime and m = rad / p, Psi_(pm)(X) = Psi_m(X^p)
    Phi_m(X), because X^(pm) - 1 = Psi_m(X^p) Phi_m(X^p) and Phi_m(X^p) =
    Phi_(pm)(X) Phi_m(X); Psi_1 = 1. A product, not the division of
    X^rad - 1 by Phi_rad: that takes seconds for a dense Phi_rad such as
    Phi_30030."""
    _check_conductor(N)
    if N == 1:
        return (1,)
    primes = prime_factors(N)
    rad = math.prod(primes)
    if rad != N:
        return tuple(_spread(inverse_cyclotomic_polynomial(rad), N // rad))
    m = N // primes[-1]
    spread = _spread(inverse_cyclotomic_polynomial(m), primes[-1])
    return poly_mul(spread, cyclotomic_polynomial(m))


# ---------------------------------------------------------------------------
# Kronecker substitution: an integer polynomial is the int sum c_i 2^(8wi),
# in slots of w = 1, 2, 4, 8 or more bytes, wide enough for every
# coefficient of a product; with 2^(8w-1) added to each slot (the bias) the
# slots are nonnegative, and a product is read off its bytes.
# struct codes of slots to int64, and the Struct of n such slots, held for
# CONDUCTORS_HELD (n, w) at once
_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}


@lru_cache(maxsize=CONDUCTORS_HELD)
def _struct(n, w):
    return struct.Struct(f"<{n}{_FORMATS[w]}")


def _repeat(value, n, w):
    # value in each of n slots of w bytes
    return int.from_bytes(value.to_bytes(w, "little") * n, "little")


def _width(bound, bits=0):
    # slot bytes for magnitudes up to bound, with bit `bits` below the bias
    w = max(bits, bound.bit_length()) // 8 + 1
    return w if w > 8 else 1 << (w - 1).bit_length()


def _pack(values, w, bias):
    # values[i] + 2^(8w-1) in slot i, and 2^(8w-1) in the further slots of
    # bias, which holds it in at least len(values) slots
    if w in _FORMATS:
        raw = _struct(len(values), w).pack(*values)
    else:  # past int64, one slot at a time
        raw = b"".join(v.to_bytes(w, "little", signed=True) for v in values)
    return int.from_bytes(raw, "little") ^ bias


def _unpack(biased, n, w):
    # the n values v held as v + 2^(8w-1) in the w-byte slots of biased
    raw = (biased ^ _repeat(1 << (8 * w - 1), n, w)).to_bytes(w * n, "little")
    if w in _FORMATS:
        return _struct(n, w).unpack(raw)
    return tuple(int.from_bytes(raw[i:i + w], "little", signed=True) for i in range(0, w * n, w))


def poly_mul(a, b):
    """Exact product of integer polynomials (coefficient lists, constant
    term first) as a tuple, by one int multiplication."""
    n = len(a) + len(b) - 1
    # the + 1s let the slots hold the coefficients of a and b as well
    w = _width((sum(map(abs, a)) + 1) * (max(map(abs, b)) + 1))
    bias = _repeat(1 << (8 * w - 1), n, w)
    return _unpack((_pack(a, w, bias) - bias) * (_pack(b, w, bias) - bias) + bias, n, w)


def cyclic_mul(a, b):
    """Exact product of two integer polynomials of n coefficients each
    (constant term first) modulo X^n - 1, as a tuple of n: one int
    multiplication, whose slots from n on are added onto the low n before
    one unpack."""
    n = len(a)
    # a slot of the sum is at most |a|_1 |b|_inf, as in poly_mul
    w = _width((sum(map(abs, a)) + 1) * (max(map(abs, b)) + 1))
    bias, bits = _repeat(1 << (8 * w - 1), n, w), 8 * w * n
    # biased, the low n slots are >= 0 and borrow nothing from the high ones
    x = (_pack(a, w, bias) - bias) * (_pack(b, w, bias) - bias) + bias
    return _unpack((x & ((1 << bits) - 1)) + (x >> bits), n, w)


@lru_cache(maxsize=CONDUCTORS_HELD)
def _fold_spread(N):
    # 1 + |Psi_N|_1 |Phi_N|_1, which times |a|_inf + 1 bounds every slot of
    # fold_packed, the coefficients of Phi_N and Psi_N included
    psi_norm = sum(map(abs, inverse_cyclotomic_polynomial(N)))
    return 1 + psi_norm * sum(map(abs, cyclotomic_polynomial(N)))


# The constants of fold_packed for n slots of w bytes at conductor N, with
# d = phi(N) and m = n - d: bias holds 2^(8w-1) in n slots, top is the bit
# where the top slot starts, ones holds 1 in each of d slots, psi and phi
# are Psi_N[:m] and Phi_N packed unbiased, and skip and m8 are the bits of
# max(m - d, 0) and m slots.
FoldPlan = namedtuple("FoldPlan", "N n d w bias top ones psi phi skip m8")


def fold_plan(n, N, bound, bits=0):
    """The FoldPlan of n slots at conductor N, wide enough for fold_packed
    on values up to bound and for bit `bits` below the bias."""
    # Phi_N and Psi_N looked up on every call keep their caches in use order
    cyclotomic_polynomial(N), inverse_cyclotomic_polynomial(N)
    return _fold_plan(n, N, _width((bound + 1) * _fold_spread(N), bits))


@lru_cache(maxsize=CONDUCTORS_HELD)
def _fold_plan(n, N, w):
    phi, psi = cyclotomic_polynomial(N), inverse_cyclotomic_polynomial(N)
    d, slot = len(phi) - 1, 8 * w
    wide = _repeat(1 << (slot - 1), n + 1, w)  # one slot more than n, for Phi_N at n = d
    return FoldPlan(N, n, d, w, wide >> slot, slot * (n - 1), _repeat(1, d, w),
                    _pack(psi[:n - d], w, wide) - wide, _pack(phi, w, wide) - wide,
                    slot * max(n - 2 * d, 0), slot * (n - d))


def fold_packed(x, plan):
    """The coordinates r of sum a[e] z_N^e in the power basis, as the int
    with r[phi - 1 - i] + 2^(8w-1) in its w-byte slot i, from x, which holds
    a[n - 1 - i] + 2^(8w-1) in its slot i; (n, N, w) are the plan's.

    Division by reversal (von zur Gathen and Gerhard, Modern Computer
    Algebra, 9.1): Phi_N is palindromic and -Psi_N = 1/Phi_N mod X^N, so
    with m = n - phi and R = rev(a[phi:]) Psi_N mod X^m, rev(r) is
    rev(a[:phi]) plus slots m to m + phi - 1 of R Phi_N. rev(a[phi:]) is
    the low m slots of x and rev(a[:phi]) the others, and only R's top phi
    slots reach a coordinate. The slots of R are at most |a|_inf |Psi_N|_1,
    those of R Phi_N |Phi_N|_1 times that."""
    skip, m8 = plan.skip, plan.m8
    low = (1 << m8) - 1
    bias = plan.bias & low
    R = (((((x & low) - bias) * plan.psi + bias) & low) >> skip) - (bias >> skip)
    # biased, the slots below m borrow nothing from slot m
    R = ((R * plan.phi + (bias >> skip)) >> (m8 - skip)) + (x >> m8)
    return R & ((1 << (8 * plan.w * plan.d)) - 1)


def pack(counts, plan):
    """The signed int sum counts[e] 2^(8w(n - 1 - e)) over the n slots of the
    FoldPlan plan, so that sums and integer multiples of packed vectors are
    those of the counts, while every slot stays in [-2^(8w-1), 2^(8w-1))."""
    return _pack(counts[::-1], plan.w, plan.bias) - plan.bias


def rotate(x, s, plan):
    """x times X^s in Z[X]/(X^n + 1), packed by pack in a plan of n slots:
    slot i + s moves to slot i, the low s slots come back negated at the
    top, s >= n flips the sign, and the bias keeps every slot >= 0."""
    n = plan.n
    bits, x = s % n * 8 * plan.w, (x if s % (2 * n) < n else -x) + plan.bias
    wrapped = (x & ((1 << bits) - 1)) << (8 * plan.w * n - bits)
    # the moved slots carry +2^(8w-1) and the wrapped ones -2^(8w-1): cancel both
    return (x >> bits) - wrapped + plan.bias - 2 * (plan.bias >> bits)


def fold(a, N):
    """The power-basis coordinates of sum a[e] z_N^e (see fold_packed), with
    phi(N) <= len(a) <= N + phi(N), and len(a) = 1 at N = 1."""
    plan = fold_plan(len(a), N, max(map(abs, a)))
    return _unpack(fold_packed(_pack(a[::-1], plan.w, plan.bias), plan), plan.d, plan.w)[::-1]

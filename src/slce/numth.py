"""Small deterministic number-theory helpers (desk-scale integers only),
the size cap and the builders of cyclotomic and inverse cyclotomic
polynomials over Z."""

import math
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
    # length deg b). Each step visits only the nonzero lower coefficients of
    # b, so reducing modulo a sparse Phi_N costs its few terms per exponent.
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


def _int_mul(a, b):
    # product of integer polynomials (coefficient lists, constant term
    # first), visiting only the nonzero coefficients of each
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in terms:
                out[i + j] += ai * bj
    return out


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
    return tuple(_int_mul(spread, cyclotomic_polynomial(m)))

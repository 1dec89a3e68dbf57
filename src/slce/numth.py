"""Small deterministic number-theory helpers (desk-scale integers only),
the size cap and the one builder of cyclotomic polynomials over Z."""

import math
from functools import lru_cache

from .errors import InternalInconsistency, SizeExceeded

SIZE_CAP = 1 << 16  # bounds q (ff) and every cyclotomic conductor, over Z or mod 2


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


def _spread(coeffs, n):
    # coefficients of c(X^n)
    out = [0] * ((len(coeffs) - 1) * n + 1)
    out[::n] = coeffs
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(N):
    """Exact integer coefficients of the N-th cyclotomic polynomial,
    constant term first.

    From Phi_1 = X - 1, each prime p | N gives Phi_(pm)(X) = Phi_m(X^p) /
    Phi_m(X) for p not dividing m, which builds Phi_rad(N); then
    Phi_N(X) = Phi_rad(N)(X^(N / rad N))."""
    if N < 1:
        raise ValueError("N must be positive")
    if N > SIZE_CAP:
        raise SizeExceeded(f"conductor {N} exceeds the size cap {SIZE_CAP}")
    phi, rad = [-1, 1], 1
    for p in prime_factors(N):
        phi, rem = _int_divmod(_spread(phi, p), phi)
        if any(rem):
            raise InternalInconsistency(f"Phi_{rad}(X^{p}) is not divisible by Phi_{rad}")
        rad *= p
    return tuple(_spread(phi, N // rad))

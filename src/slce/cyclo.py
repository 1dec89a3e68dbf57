"""Exact arithmetic in rings of cyclotomic integers, multiplicative
characters, Gauss and Jacobi sums, and membership in 2^c P O_L.

A cyclotomic integer of conductor N is stored by its coordinates in the
power basis 1, z, ..., z^(phi(N)-1) where z is a fixed primitive N-th root
of unity; products are reduced modulo the N-th cyclotomic polynomial, so
equal algebraic numbers always have identical coordinate vectors.

The exactness split: Jacobi sums (and the K sums built from them) are
computed exactly here, because the divisibility criteria are congruences
between Jacobi sums. Gauss sums are evaluated numerically only, plus the
two closed forms (quadratic and semiprimitive) that the criteria consume;
an exact Gauss sum would drag in the conductor lcm(p, q-1) for no benefit.
"""

import cmath
import math
import weakref
from functools import lru_cache
from typing import NamedTuple

from . import polybin
from .errors import ConductorMismatch, InternalInconsistency, NotSemiprimitive
from .ff import build_field, field_order
from .numth import (CONDUCTORS_HELD, _check_conductor, cyclotomic_polynomial, fold, fold_packed,
                    poly_mul)


# ---------------------------------------------------------------------------
# cyclotomic integers


class CycInt:
    """Exact element of Z[z_N] in the power basis."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor, coeffs):
        phi = len(cyclotomic_polynomial(conductor)) - 1
        coeffs = tuple(coeffs)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coordinates for conductor {conductor}")
        self.conductor = conductor
        self.coeffs = coeffs

    @classmethod
    def from_exponent_counts(cls, N, counts):
        """sum counts[e] * z_N^e for e in [0, N)."""
        if len(counts) != N:
            raise ValueError("counts must have length N")
        return cls(N, fold(counts, N))

    def _match(self, other):
        if isinstance(other, CycInt):
            if other.conductor != self.conductor:
                raise ConductorMismatch(
                    f"conductors {self.conductor} and {other.conductor} differ"
                )
            return other
        return None

    def __mul__(self, other):
        o = self._match(other)
        if o is None:
            return NotImplemented
        return CycInt(self.conductor, fold(poly_mul(self.coeffs, o.coeffs), self.conductor))

    def __eq__(self, other):
        o = self._match(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def as_int(self):
        """The rational integer this element equals, if it is one."""
        if any(c for c in self.coeffs[1:]):
            raise ValueError("not a rational integer")
        return self.coeffs[0]

    def to_json(self):
        return {"conductor": self.conductor, "coeffs": [str(c) for c in self.coeffs]}

    def __repr__(self):
        return f"CycInt(N={self.conductor}, {list(self.coeffs)})"


# ---------------------------------------------------------------------------
# multiplicative characters


class Character:
    """Multiplicative character of GF(q)* determined by its value at alpha.

    Index a in [0, q-1) means the character maps alpha to z_{q-1}^a; the
    value at 0 is 0 by convention, which makes all the character-sum
    bookkeeping uniform. Values are exponents of z_order, the root of unity
    of the conductor equal to the character order (exponent_at).
    """

    __slots__ = ("field", "a", "order", "_c")

    def __init__(self, field, a):
        qm1 = field.q - 1
        self.field = field
        self.a = a % qm1
        g = math.gcd(self.a, qm1)
        self.order = qm1 // g
        self._c = self.a // g  # value at alpha^n is z_order^(c n)

    @classmethod
    def eta(cls, field, num, den):
        """eta_{num/den}: requires den | q - 1."""
        qm1 = field.q - 1
        if qm1 % den != 0:
            raise ValueError(f"{den} does not divide q - 1 = {qm1}")
        return cls(field, num * (qm1 // den) % qm1)

    @classmethod
    def quadratic(cls, field):
        return cls.eta(field, 1, 2)

    @property
    def is_trivial(self):
        return self.a == 0

    def exponent_at(self, n):
        """Exponent e with value z_order^e at alpha^n."""
        return (self._c * n) % self.order

    def __repr__(self):
        return f"Character(GF({self.field.q}), a={self.a}, order={self.order})"


# ---------------------------------------------------------------------------
# Jacobi and Gauss sums


def jacobi_sum(chi1, chi2):
    """J(chi1, chi2) = sum over x of chi1(x) chi2(1-x), exactly.

    The terms at x = 0 and x = 1 vanish by the chi(0) = 0 convention; the
    result lives in conductor lcm(order chi1, order chi2).
    """
    if chi1.field is not chi2.field:
        raise ValueError("characters of different fields")
    field = chi1.field
    N = math.lcm(chi1.order, chi2.order)
    b1 = (N // chi1.order) * chi1._c
    b2 = (N // chi2.order) * chi2._c
    counts = [0] * N
    # 1 - alpha^dx = 1 + alpha^(dx + T/2), so dlog(1 - alpha^dx) = zech[dx + T/2]
    zech = field.zech_log()
    half = len(zech) // 2
    for dx, dy in enumerate(zech[half:] + zech[:half]):
        if dy is not None:  # None at dx = 0
            counts[(b1 * dx + b2 * dy) % N] += 1
    return CycInt.from_exponent_counts(N, counts)


_SIGNED_SUMS = weakref.WeakKeyDictionary()  # field -> {o: D_o}, dropped with the field


def _signed_sums(field, o):
    # D_o[s] = the sum of rho(x) over the x != 0, 1 with dlog(1 - x) = s mod o
    T = field.q - 1
    tables = _SIGNED_SUMS.setdefault(field, {})
    if T not in tables:
        # x = alpha^(n + T/2) has 1 - x = 1 + alpha^n and rho(x) = (-1)^(n + T/2)
        tables[T] = signs = [0] * T
        for n, z in enumerate(field.zech_log()):
            if z is not None:
                signs[z] = -1 if (n + T // 2) & 1 else 1
    if o not in tables:
        tables[o] = [sum(tables[T][s::o]) for s in range(o)]
    return tables[o]


def k_sum_counts(chi, conductor):
    """Raw root-of-unity multiplicities of K(chi) = J(rho, chi): entry e
    counts (with sign from rho) the terms equal to z_conductor^e.

    With o = order chi and chi(alpha) = z_o^c, the terms with dlog(1 - x) =
    s mod o all equal z_o^(c s), so entry (conductor / o) (c s mod o) is
    the field's signed sum D_o[s] and the other entries are 0.

    Callers that combine many K sums stay in this representation, where
    multiplying by a root of unity is a rotation, and fold to the power
    basis only when a congruence is finally tested."""
    _check_conductor(conductor)
    o = chi.order
    if conductor % o != 0:
        raise ConductorMismatch(f"conductor {conductor} does not contain order {o} values")
    sums = _signed_sums(chi.field, o)
    inv = pow(chi._c, -1, o)
    counts = [0] * conductor
    # entry (conductor / o) r takes D_o[s] for s = inv r mod o
    s = map(o.__rmod__, map(inv.__mul__, range(o)))
    counts[::conductor // o] = list(map(sums.__getitem__, s))
    return counts


def k_sum_bound(chi):
    """A bound on |entry| of the counts v = k_sum_counts(chi, N) and of v[:N/2]
    - v[N/2:]: max |D_o|, doubled for even o, where both halves hold D_o."""
    return max(map(abs, _signed_sums(chi.field, chi.order))) << (chi.order % 2 == 0)


def k_sum(chi, conductor=None):
    """K(chi) = J(rho, chi) with rho the quadratic character.

    rho only contributes signs, so the sum can be carried out in any
    conductor that is a multiple of order(chi), odd ones included; the
    default matches jacobi_sum's lcm(2, order chi).
    """
    N = math.lcm(2, chi.order) if conductor is None else conductor
    return CycInt.from_exponent_counts(N, k_sum_counts(chi, N))


def gauss_sum_numeric(chi):
    """G(chi) = sum over x of chi(x) e^(2 pi i Tr(x)/p), as a complex float.

    Accuracy is bounded by q times machine epsilon; fine for sign and
    magnitude checks at desk scale.
    """
    field = chi.field
    q, p = field.q, field.p
    qm1 = q - 1
    zq = [cmath.exp(2j * math.pi * n / qm1) for n in range(qm1)]
    zp = [cmath.exp(2j * math.pi * c / p) for c in range(p)]
    a = chi.a
    total = 0j
    for dx in range(qm1):
        total += zq[(a * dx) % qm1] * zp[field.trace_code(field._pow[dx])]
    return total


class QuadraticGaussValue(NamedTuple):
    """Closed form of the quadratic Gauss sum: sign * sqrt(q), possibly
    times i."""

    sign: int
    imaginary: bool
    q: int

    def to_complex(self):
        v = self.sign * math.sqrt(self.q)
        return complex(0, v) if self.imaginary else complex(v, 0)

    @property
    def is_rational_integer(self):
        return not self.imaginary and math.isqrt(self.q) ** 2 == self.q

    def as_int(self):
        if not self.is_rational_integer:
            raise ValueError("value is irrational")
        return self.sign * math.isqrt(self.q)

    def __str__(self):
        core = f"sqrt({self.q})" if not self.is_rational_integer else str(math.isqrt(self.q))
        s = "-" if self.sign < 0 else "+"
        return f"{s}{'i*' if self.imaginary else ''}{core}"


def quadratic_gauss_closed(p, m):
    """G(rho) for GF(p^m): (-1)^(m-1) sqrt(q) when p = 1 mod 4, and
    (-1)^(m-1) i^m sqrt(q) when p = 3 mod 4. p and m are checked by
    field_order, so a composite p or a q past the size cap is refused."""
    q = field_order(p, m)
    if p % 4 == 1:
        return QuadraticGaussValue(1 if m % 2 == 1 else -1, False, q)
    r = m % 4
    sign, imag = {0: (-1, False), 1: (1, True), 2: (1, False), 3: (-1, True)}[r]
    return QuadraticGaussValue(sign, imag, q)


class SemiprimitiveGaussValue(NamedTuple):
    """G(chi) in the semiprimitive case: a rational integer of magnitude
    sqrt(q). The printed sign rule is validated against the numeric sum;
    on disagreement the numeric sign wins and the mismatch is flagged."""

    value: int
    magnitude: int
    formula_sign: int
    numeric_sign: int
    v: int
    w: int

    @property
    def formula_mismatch(self):
        return self.formula_sign != self.numeric_sign


def semiprimitive_vw(p, m, N):
    """(v, w) with v minimal such that N | p^v + 1, and m = 2vw; raises
    NotSemiprimitive when either fails."""
    for v in range(1, m + 1):
        if (pow(p, v, N) + 1) % N == 0:
            break
    else:
        raise NotSemiprimitive(f"no v <= {m} with p^v = -1 mod {N}")
    if m % (2 * v) != 0:
        raise NotSemiprimitive(f"m = {m} is not 2vw for v = {v}")
    return v, m // (2 * v)


def semiprimitive_gauss_closed(p, m, N):
    """Closed form for G(chi), ord(chi) = N > 2, when some p^v = -1 mod N.

    v is minimal; requires m = 2vw. The sign comes from the parity of
    w - 1 + p w (p^v + 1)/N and is cross-checked against the numeric Gauss
    sum of the canonical character of order N.
    """
    if N <= 2:
        raise ValueError("N must exceed 2")
    field_order(p, m)
    v, w = semiprimitive_vw(p, m, N)
    magnitude = p ** (m // 2)
    exponent = (w - 1) + p * w * ((p**v + 1) // N)
    formula_sign = -1 if exponent % 2 else 1
    field = build_field(p, m)
    g = gauss_sum_numeric(Character(field, (field.q - 1) // N))
    if abs(g.imag) >= 1e-6 * magnitude or abs(abs(g.real) - magnitude) >= 1e-6 * magnitude:
        raise InternalInconsistency(f"numeric G(chi) = {g} is not +-{magnitude}")
    numeric_sign = 1 if g.real > 0 else -1
    value = numeric_sign * magnitude
    return SemiprimitiveGaussValue(value, magnitude, formula_sign, numeric_sign, v, w)


# ---------------------------------------------------------------------------
# the prime over 2


@lru_cache(maxsize=CONDUCTORS_HELD)
def _generators(k, h):
    # the generator of the image of P_g O_L mod 2 for each g in factor_phi_mod2(k)
    return tuple(g if h == 0 else polybin._frobenius_pow(g, 1 << (h - 1))
                 for g in polybin.factor_phi_mod2(k))


def ideal_membership(x, rf, c, plan):
    """The int whose bit i says whether x lies in 2^c P_g O_L, P_g = (2,
    g(z_k)) the prime over 2 of g = factor_phi_mod2(k)[i], so bit 0 is the
    canonical prime P's (f_can = rf.modulus). x is sum a[e] z_N^e, with a
    packed by numth.pack in the FoldPlan plan of conductor N = 2^h k, in
    slots that hold bit c + 1 below the bias, and O_L = Z[z_N].

    Since O_L is torsion-free this splits as: every power-basis coordinate
    divisible by 2^c, and y = x / 2^c lying in P O_L. The latter only
    depends on y mod 2. Mod 2, f_can(z_k) = f_can(X^(2^h)) = f_can^(2^h) and
    Phi_N = Phi_k^(2^(h-1)) for h >= 1; Phi_k is squarefree mod 2, so the
    image of P O_L in GF(2)[X]/(Phi_N) is generated by their gcd
    f_can^(2^(h-1)), or f_can at h = 0, and y is in P O_L iff it divides y;
    likewise at every P_g.

    Both tests read the coordinates mod 2^(c+1) only: the fold gives them
    exactly, and one AND keeps the low c + 1 bits of every slot.
    """
    h = (plan.N & -plan.N).bit_length() - 1
    if plan.N >> h != rf.k:
        raise ConductorMismatch(f"conductor {plan.N} is not 2^h k for k = {rf.k}")
    low = plan.ones * ((2 << c) - 1)
    x = fold_packed(x + plan.bias, plan) & low
    if x & (low >> 1):
        return 0
    # bit c of each slot, r[phi - 1] first
    y = polybin._pack_bits((x >> c).to_bytes(plan.w * plan.d, "little")[::plan.w])
    return sum(1 << i for i, g in enumerate(_generators(rf.k, h)) if not polybin._mod2(y, g))

"""Test-only helpers shared by the test files: the enumeration of every
analysis context, a level's K sums unpacked, membership read off a CycInt
or a list of exponent counts, a CycInt's complex value, every check built
the way each context built it on its own (from its own character's K sums
in the cyclic ring Z[X]/(X^N - 1), with a cyclic butterfly and the
eta(-1) signs applied one by one, tested in the canonical prime, thm1
summed term by term), props 3 and 4 as one list of exponent counts folded
once, coset sums and Hasse-derivative sums summed term by term, Horner
evaluation in a residue field, fields rebuilt around another primitive
element, and the schoolbook product of GF(p)[X] digit lists modulo a
monic polynomial. The package itself needs none of them: analyze_field
enumerates one context per Galois orbit, the criteria build one element
per (sequence, k) in Z[X]/(X^(N/2) + 1) and test it at every prime over
2, and the ground truth and thm1 each read every (orbit, t) off one
superset-summed table per sequence."""

import cmath
import copy
import math

from slce.criteria import AnalysisContext
from slce.cyclo import Character, CycInt, ideal_membership, k_sum_counts
from slce.numth import _unpack, divisors, fold_plan, pack, units
from slce.polybin import binom_mod2, bit_length_h, index_set


def admissible_contexts(seq):
    """All contexts of a binary sequence: odd k | T' with k > 1, unit e."""
    for k in divisors(seq.Tprime):
        if k == 1:
            continue
        for e in units(k):
            yield AnalysisContext(seq, k, e)


def ksum_counts(ctx, h):
    """The exponent-count vectors of ctx.level(h), unpacked and padded with
    zeros to the N counts of z_N^e: the level holds N/2 slots at h >= 1."""
    plan, ksums = ctx.level(h)
    return [list(_unpack(x + plan.bias, plan.n, plan.w)[::-1]) + [0] * (plan.N - plan.n)
            for x in ksums]


def member(x, rf, c):
    """ideal_membership's verdicts, bit i at the prime of
    factor_phi_mod2(k)[i], for a CycInt (its coordinates, at its conductor)
    or a list of N exponent counts (at conductor N), packed by numth.pack
    in slots that hold bit c + 1."""
    values, N = (x.coeffs, x.conductor) if isinstance(x, CycInt) else (x, len(x))
    plan = fold_plan(len(values), N, max(map(abs, values)), c + 1)
    return ideal_membership(pack(values, plan), rf, c, plan)


def embed(x):
    """The complex value of a CycInt under z_N = e^(2 pi i / N)."""
    N = x.conductor
    return sum(c * cmath.exp(2j * math.pi * i / N) for i, c in enumerate(x.coeffs) if c)


def own_ksum_counts(ctx, h):
    """The exponent-count vectors of K(eta_{j/2^h} chi) in conductor 2^h k
    for j < 2^h, chi = eta_{e/k} the context's own character, straight from
    k_sum_counts."""
    step = (ctx.field.q - 1) >> h
    return [k_sum_counts(Character(ctx.field, j * step + ctx.chi.a), ctx.conductor(h))
            for j in range(1 << h)]


class OwnContext:
    """A context's checks the way each context built them on its own: the
    levels and matrix rows from its own character's K sums, packed in the N
    slots of Z[X]/(X^N - 1) and transformed by cyclic_dft after each K sum
    takes its sign eta_{j/2^h}(-1), and every element tested in the
    canonical prime ctx.rf; thm1 sums chi(alpha^n) = z_k^(n e)."""

    def __init__(self, ctx):
        self.ctx = ctx
        self._levels, self._rows = {}, {}

    def level(self, h):
        if h not in self._levels:
            counts = own_ksum_counts(self.ctx, h)
            N = self.ctx.conductor(h)
            plan = fold_plan(N, N, (sum(max(map(abs, v)) for v in counts) + 1) << h, h + 2)
            self._levels[h] = plan, [pack(v, plan) for v in counts]
        return self._levels[h]

    def matrix_rows(self, h):
        if h not in self._rows:
            plan, ksums = self.level(h)
            half = self.ctx.seq.T // 2
            signed = [-x if j * half % (1 << h) else x for j, x in enumerate(ksums)]
            self._rows[h] = cyclic_dft(signed, plan)
        return self._rows[h]

    def verdict(self, check, index):
        """check's verdict at index, a name of ALL_CHECKS; props at t = index."""
        ctx = self.ctx
        T, k, rf, q = ctx.seq.T, ctx.k, ctx.rf, ctx.field.q
        if check == "thm1":
            zech = ctx.field.zech_log()
            counts = [0] * k
            for n in range(T):
                if n & index == index and n != T // 2:
                    counts[n * ctx.e % k] += 1 - 2 * (zech[n] & 1)
            counts[0] += binom_mod2(T // 2, index)
            return member(counts, rf, 1) & 1 == 1
        if check == "thm2":
            h = bit_length_h(index)
            plan, _ = self.level(h)
            rows = self.matrix_rows(h)
            acc = sum(rows[i] for i in index_set(index))
            acc += binom_mod2(T // 2, index) << (h + plan.top)
            return ideal_membership(acc, rf, h + 1, plan) & 1 == 1
        if check == "thm3":
            plan, _ = self.level(index)
            d = (T // 2) % (1 << index)
            return all(ideal_membership(row + ((1 << index) << plan.top) * (i == d), rf,
                                        index + 1, plan) & 1
                       for i, row in enumerate(self.matrix_rows(index)))
        if check == "necessary":
            plan, ksums = self.level(index)
            return all(ideal_membership(x + (1 << plan.top), rf, 1, plan) & 1 for x in ksums)
        if check == "prop1":
            plan, (K0,) = self.level(0)
            return ideal_membership(K0 + (1 << plan.top), rf, 1, plan) & 1 == 1
        if check == "prop2":
            plan, (K0, K1) = self.level(1)
            acc = K0 - K1 if q % 4 == 1 else K0 + K1 + (2 << plan.top)
            return ideal_membership(acc, rf, 2, plan) & 1 == 1
        return member(prop34_value(ctx, int(check[-1])), rf, 3) & 1 == 1


def cyclic_rotate(x, s, plan):
    """x times X^s in Z[X]/(X^N - 1), packed by numth.pack in a plan of N
    slots: slot i + s moves to slot i, and the low s slots wrap round to
    the top. The bias is added while the slots move, so that none is
    negative."""
    bits, x = s % plan.N * 8 * plan.w, x + plan.bias
    x = (x >> bits) | ((x & ((1 << bits) - 1)) << (8 * plan.w * plan.N - bits))
    return x - plan.bias


def cyclic_dft(vectors, plan):
    """Row i = sum over j of X^(-ij N/n) vectors[j] in Z[X]/(X^N - 1), n =
    len(vectors) a power of 2, packed in a plan of N slots, by radix-2
    decimation in time: row i is E_i + X^(-i N/n) O_i with E and O the
    half-size transforms of the even and odd j. The ring is cyclic, so
    X^(N/2) is a rotation, not -1, and both rows of a butterfly take their
    own rotation of O_i."""
    n = len(vectors)
    if n == 1:
        return vectors
    half = n // 2
    even = cyclic_dft(vectors[0::2], plan)
    odd = cyclic_dft(vectors[1::2], plan)
    return [even[i % half] + cyclic_rotate(odd[i % half], -i * (plan.N // n), plan)
            for i in range(n)]


def prop34_value(ctx, which):
    """The element whose membership in 8 P O_L is prop 3 or prop 4 for the
    context's own character, built from its level-2 K sums (own_ksum_counts)
    as one list of exponent counts, where z4 K_j = z_N^k K_j is K_j rotated
    by k slots, and folded once."""
    N, k, q = ctx.conductor(2), ctx.k, ctx.field.q
    K = own_ksum_counts(ctx, 2)
    z4K = [v[-k:] + v[:-k] for v in K]
    if which == 3 and q % 8 == 1:  # 2 K0 - (1 - z4) K1 - (1 + z4) K3
        terms = [(2, K[0]), (-1, K[1]), (1, z4K[1]), (-1, K[3]), (-1, z4K[3])]
    elif which == 3:  # 4 + 2 K0 + (1 - z4) K1 + (1 + z4) K3
        terms = [(2, K[0]), (1, K[1]), (-1, z4K[1]), (1, K[3]), (1, z4K[3])]
    elif q % 8 == 1:  # K0 + z4 K1 - K2 - z4 K3
        terms = [(1, K[0]), (1, z4K[1]), (-1, K[2]), (-1, z4K[3])]
    else:  # K0 - z4 K1 - K2 + z4 K3
        terms = [(1, K[0]), (-1, z4K[1]), (-1, K[2]), (1, z4K[3])]
    counts = [sum(a * v[e] for a, v in terms) for e in range(N)]
    if which == 3 and q % 8 != 1:
        counts[0] += 4
    return CycInt.from_exponent_counts(N, counts)


def coset_sum(ctx, i, h):
    """E_i = sum of s_n beta^n over n = i mod 2^h, one term at a time, as
    bits of the residue field."""
    gp = ctx.rf.gamma_pow_bits()
    bits = 0
    for n, s_n in enumerate(ctx.seq.terms):
        if s_n and n % (1 << h) == i:
            bits ^= gp[n * ctx.e % ctx.k]
    return bits


def hasse_sum(ctx, t):
    """sum C(n,t) s_n beta^n, one term at a time, as bits of the residue
    field: by Lucas, C(n,t) is odd exactly when n & t == t."""
    gp = ctx.rf.gamma_pow_bits()
    bits = 0
    for n, s_n in enumerate(ctx.seq.terms):
        if s_n and n & t == t:
            bits ^= gp[n * ctx.e % ctx.k]
    return bits


def horner(poly, rf, x):
    """poly(x) for a GF(2) polynomial poly (an int bit-vector) and x the
    bits of an element of the residue field rf, by Horner's rule."""
    acc = 0
    for i in range(poly.bit_length() - 1, -1, -1):
        acc = rf.mul_bits(acc, x) ^ (poly >> i & 1)
    return acc


def with_primitive_element(field, code):
    """A field over the same modulus whose tables are rebuilt around the
    primitive element with the given code; used to probe generator
    invariance. The traces depend on the modulus only and are kept."""
    if code == 0 or math.gcd(field.dlog_code(code), field.q - 1) != 1:
        raise ValueError("not a primitive element")
    other = copy.copy(field)
    other.alpha_code = code
    other._build_tables()
    other._zech = None
    return other


def primitive_elements(field):
    """All primitive elements, as codes, in canonical order."""
    q = field.q
    return sorted(field.pow_alpha(n) for n in range(q - 1) if math.gcd(n, q - 1) == 1)


def schoolbook_mulmod(a, b, modulus, p):
    """a b modulo the monic modulus in GF(p)[X] (coefficient lists, constant
    first), by the schoolbook product and reduction, m = deg modulus
    coefficients in [0, p)."""
    m = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, m - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(m + 1):
                prod[i - m + j] = (prod[i - m + j] - c * modulus[j]) % p
    out = prod[:m]
    out += [0] * (m - len(out))
    return out

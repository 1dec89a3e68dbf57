"""Test-only helpers shared by the test files: the enumeration of every
analysis context, a level's K sums unpacked, props 3 and 4 as CycInt
products, coset sums summed term by term, Horner evaluation in a residue
field, and fields rebuilt around another primitive element. The package
itself needs none of them: analyze_field enumerates one context per Galois
orbit, the criteria stay on packed count vectors, and the ground truth goes
through the masked-sum kernel."""

import copy
import math

from slce.criteria import AnalysisContext
from slce.cyclo import CycInt
from slce.numth import _unpack, divisors, units


def admissible_contexts(seq):
    """All contexts of a binary sequence: odd k | T' with k > 1, unit e."""
    for k in divisors(seq.Tprime):
        if k == 1:
            continue
        for e in units(k):
            yield AnalysisContext(seq, k, e)


def ksum_counts(ctx, h):
    """The exponent-count vectors of ctx.level(h), unpacked."""
    plan, ksums = ctx.level(h)
    return [_unpack(x, plan.N, plan.w)[::-1] for x in ksums]


def prop34_value(ctx, which):
    """The element whose membership in 8 P O_L is prop 3 or prop 4, built
    from the level-2 K sums as CycInt products with z4 = z_N^k."""
    N, q = ctx.conductor(2), ctx.field.q
    K = [CycInt.from_exponent_counts(N, counts) for counts in ksum_counts(ctx, 2)]
    z4 = CycInt.root(N, ctx.k)
    one = CycInt.from_int(N, 1)
    if which == 3:
        if q % 8 == 1:
            return 2 * K[0] - (one - z4) * K[1] - (one + z4) * K[3]
        return CycInt.from_int(N, 4) + 2 * K[0] + (one - z4) * K[1] + (one + z4) * K[3]
    if q % 8 == 1:
        return K[0] + z4 * K[1] - K[2] - z4 * K[3]
    return K[0] - z4 * K[1] - K[2] + z4 * K[3]


def coset_sum(ctx, i, h):
    """E_i = sum of s_n beta^n over n = i mod 2^h, one term at a time, as
    bits of the residue field."""
    gp = ctx.rf.gamma_pow_bits()
    bits = 0
    for n, s_n in enumerate(ctx.seq.terms):
        if s_n and n % (1 << h) == i:
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
    invariance."""
    if code == 0 or math.gcd(field.dlog_code(code), field.q - 1) != 1:
        raise ValueError("not a primitive element")
    other = copy.copy(field)
    other.alpha_code = code
    other._build_tables()
    other._trace_basis = None
    other._zech = None
    return other


def primitive_elements(field):
    """All primitive elements, as codes, in canonical order."""
    q = field.q
    return sorted(field.pow_alpha(n) for n in range(q - 1) if math.gcd(n, q - 1) == 1)

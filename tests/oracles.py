"""Test-only helpers shared by the test files: the enumeration of every
analysis context, coset sums summed term by term, Horner evaluation in a
residue field, and fields rebuilt around another primitive element. The
package itself needs none of them: analyze_field enumerates one context
per Galois orbit, and the ground truth goes through the masked-sum kernel."""

import copy
import math

from slce.criteria import AnalysisContext
from slce.numth import divisors, units


def admissible_contexts(seq):
    """All contexts of a binary sequence: odd k | T' with k > 1, unit e."""
    for k in divisors(seq.Tprime):
        if k == 1:
            continue
        for e in units(k):
            yield AnalysisContext(seq, k, e)


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

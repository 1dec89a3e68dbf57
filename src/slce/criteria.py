"""Divisibility criteria for root multiplicities of binary SLCE sequences.

For an odd-order root beta of X^T - 1 the vanishing of the t-th Hasse
derivative of S(X) at beta is equivalent to exact congruences between
Jacobi sums modulo powers of 2 times a prime over 2. This module computes
both sides independently:

  * ground truth: direct evaluation of sum C(n,t) s_n beta^n in GF(2^f);
  * criteria: exact cyclotomic-integer congruences (the numbered checks).

C(n,t) is odd exactly when n & t == t, which for t < 2^u reads only n mod
2^u, and n < T is fixed by (n mod 2^u, n mod T'). So the ground truth and
thm1 each read every (orbit, t) off one table per sequence, indexed by t
and n mod T' and summed over the supersets of t's bits: the parities of s_n
for the ground truth, the signs rho(alpha^n + 1) for thm1. Each route
builds its own table, and the ground truth reaches Phi_k only through the
residue field's gamma powers.

Every check is an if-and-only-if claim, so any disagreement between a
criterion and the direct evaluation is an implementation bug or an erratum
and must surface as a mismatch record, never be suppressed.

Naming: beta = gamma^e in the canonical GF(2^f); the paired character chi
sends alpha to z_k^e, so chi reduces to beta modulo the canonical prime.
The verification sweep covers every unit e rather than stipulating one
pairing, but evaluates each Galois orbit {e, 2e, 4e, ...} mod k once, at
its smallest e, and its members share those verdicts. Each route is
Frobenius-invariant on its own: S^[t](beta^2) = S^[t](beta)^2, and
z_k -> z_k^2 fixes the canonical prime. analyze_field(..., all_units=True)
makes every e its own orbit and so evaluates every unit, as an audit. The
criteria test one e = 1 element per (sequence, k) at every conjugate prime:
each check returns ideal_membership's int of verdicts, bit i at the prime
of factor_phi_mod2(k)[i], and a context reads its own as >> ctx.prime & 1.
"""

import math
from functools import partial, reduce, wraps
from itertools import compress, count
from operator import add, itemgetter, sub, xor
from typing import NamedTuple

from .cyclo import (
    Character,
    ideal_membership,
    k_sum,
    k_sum_bound,
    k_sum_counts,
    quadratic_gauss_closed,
    semiprimitive_vw,
)
from .errors import (
    HOutOfRange,
    InternalInconsistency,
    NotBinary,
    NotSemiprimitive,
    PreconditionUnmet,
)
from .ff import build_field, build_residue_field, field_order, map_fields, odd_prime_powers
from .numth import divisors, fold, fold_plan, pack, rotate, two_adic_split, units
from .polybin import _frobenius_pow, _mod2, binom_mod2, bit_length_h, factor_phi_mod2, index_set
from .seq import generate_slce


# ---------------------------------------------------------------------------
# analysis contexts


class AnalysisContext:
    """One (sequence, k, e) instance: beta = gamma^e of order k in the
    canonical residue field rf, held as its bits, paired character
    chi = eta_{e/k}, and prime, the index of beta's minimal polynomial in
    factor_phi_mod2(k). Its K sums and matrix rows depend on (sequence, k)
    only (see level); it holds one twist level's at a time, and asking for
    another h drops them."""

    __slots__ = ("seq", "field", "k", "e", "rf", "beta", "chi", "prime", "_h", "_level", "_rows")

    def __init__(self, seq, k, e):
        field = seq.field
        if seq.d != 2:
            raise NotBinary("criteria are defined for binary sequences")
        if k % 2 == 0 or k <= 1:
            raise ValueError("k must be an odd integer > 1")
        if seq.Tprime % k != 0:
            raise ValueError(f"k = {k} does not divide T' = {seq.Tprime}")
        if math.gcd(e, k) != 1:
            raise ValueError(f"e = {e} is not a unit mod {k}")
        self.seq = seq
        self.field = field
        self.k = k
        self.e = e % k
        self.rf = build_residue_field(k)
        gp = self.rf.gamma_pow_bits()
        self.beta = gp[self.e]
        self.chi = Character(field, self.e * (field.q - 1) // k)
        # chi(alpha) = z_o^c mod P: its coordinates' parities as a polynomial in gamma
        o, c = self.chi.order, self.chi.exponent_at(1)
        coeffs = fold([0] * c + [1] + [0] * (o - 1 - c), o)
        bits = sum(1 << i for i, x in enumerate(coeffs) if x & 1)
        if _mod2(bits, self.rf.modulus) != self.beta:
            raise InternalInconsistency(f"chi(alpha) does not reduce to beta in {self!r}")
        # g(beta) is the sum of gamma^(j e) over the set bits j of g
        self.prime = next(i for i, g in enumerate(factor_phi_mod2(k)) if not reduce(
            xor, (gp[j * self.e % k] for j in range(g.bit_length()) if g >> j & 1)))
        self._h = self._level = self._rows = None

    def conductor(self, h):
        return (1 << h) * self.k

    def level(self, h):
        """(plan, K): K[j] is the exponent-count vector of K(eta_{j/2^h} chi_1),
        chi_1 = eta_{1/k} whatever e is, in conductor N = 2^h k for j < 2^h,
        packed by numth.pack in plan.n = N slots, or N/2 at h >= 1 in
        Z[X]/(X^(N/2) + 1), which Phi_N divides. Sums are int sums, c z^0
        adds c << plan.top, and numth.rotate multiplies by X^s at h >= 1.

        sigma_a: z_N -> z_N^a, a = e mod k and 1 mod 2^h, maps these to the
        K(eta_{j/2^h} chi) and fixes z_{2^h} = z_N^k (sigma_a J(chi, psi) =
        J(chi^a, psi^a)), so a check's element x_e is sigma_a(x_1), and x_e
        is in 2^c P iff x_1 is in 2^c sigma_a^-1(P) = 2^c P_g, g the factor
        of Phi_k mod 2 with g(beta) = 0 (cyclo.ideal_membership)."""
        if h != self._h:
            self._h = self._level = self._rows = None  # drop the held level first
            N = self.conductor(h)
            slots = N // 2 if h else N
            # eta_{j/2^h} chi_1 sends alpha to z_N^(j k + 2^h)
            unit = (self.field.q - 1) // N
            chis = [Character(self.field, (j * self.k + (1 << h)) * unit) for j in range(1 << h)]
            # One width serves every vector of the level. With M the sum over j
            # of K[j]'s k_sum_bound, a matrix row (and each partial row of the
            # butterfly) is a sum of +-X^s K[j] over distinct j, so at most
            # M; thm2 adds at most 2^h rows and 2^h, thm3 a row and 2^h,
            # necessary K[j] and 1, prop1 (h = 0) K[0] and 1, prop2 (h = 1)
            # K[0] +- K[1] and at most 2, and props 3 and 4 (h = 2, c = 3)
            # at most 2M + 4. So every vector is at most 2^h (M + 1), and its
            # fold must hold bit c + 1 <= h + 2.
            plan = fold_plan(slots, N, (sum(map(k_sum_bound, chis)) + 1) << h, h + 2)
            counts = (k_sum_counts(chi, N) for chi in chis)  # made one at a time
            if h:  # X^(N/2) = -1
                counts = (list(map(sub, v[:slots], v[slots:])) for v in counts)
            self._h, self._level = h, (plan, [pack(v, plan) for v in counts])
        return self._level

    def matrix_rows(self, h):
        """Row i of the root-of-unity matrix applied to the signed K sums:
        sum over j of eta_{j/2^h}(-1) z_{2^h}^(-ij) K(eta_{j/2^h} chi_1),
        packed as the level's K sums and held with them. Row sums over
        subsets of i recover the pointwise K-form sums, so thm2 reads the
        rows that thm3 tests."""
        plan, ksums = self.level(h)
        if self._rows is None:
            rows = _dft(ksums, plan)
            d = (self.seq.T // 2) % len(rows)
            # eta_{j/2^h}(-1) = z_{2^h}^(j d), so signed row i is unsigned row i - d
            self._rows = rows[-d:] + rows[:-d]
        return self._rows

    def __repr__(self):
        return f"AnalysisContext(q={self.field.q}, k={self.k}, e={self.e})"


def _dft(vectors, plan):
    # row i = sum over j of w^(-ij) vectors[j], w = X^(N/n), n = len(vectors)
    # a power of 2, by the radix-2 butterfly: with E and O the transforms of
    # the even and odd j, rows i and i + n/2 are E_i +- w^(-i) O_i (w^(n/2) = -1)
    n = len(vectors)
    if n == 1:
        return vectors
    even = _dft(vectors[0::2], plan)
    odd = _dft(vectors[1::2], plan)
    turned = [rotate(x, -i * (plan.N // n), plan) for i, x in enumerate(odd)]
    return list(map(add, even, turned)) + list(map(sub, even, turned))


def galois_orbits(k, all_units=False):
    """(smallest e, members) for every orbit of the units e mod k under
    e -> 2e, ascending in the smallest e; with all_units, (e, (e,)) for
    every unit e."""
    seen = set()
    for e in units(k):
        if all_units:
            yield e, (e,)
        elif e not in seen:
            members = [e]
            while (x := 2 * members[-1] % k) != e:
                members.append(x)
            seen.update(members)
            yield e, tuple(members)


def _check_t(ctx, t):
    if not 0 <= t < (1 << ctx.seq.u):
        raise ValueError(f"t = {t} outside [0, 2^u) with u = {ctx.seq.u}")


def _every(verdicts):
    # the primes set in all of the verdicts, read until none is left
    alive = -1
    for mask in verdicts:
        if not (alive := alive & mask):
            break
    return alive


def _per_sequence(build):
    # build(seq) once per sequence, held on the sequence under build's name,
    # so that it lives no longer than the sequence does
    @wraps(build)
    def table(seq):
        if build.__name__ not in seq._tables:
            seq._tables[build.__name__] = build(seq)
        return seq._tables[build.__name__]
    return table


# ---------------------------------------------------------------------------
# ground truth


@_per_sequence
def _hasse_masks(seq):
    # masks[t] for t < 2^u: bit b is the parity of the ones positions n with
    # n & t == t and n = b mod T'. The test n & t == t reads only n mod 2^u,
    # and (n mod 2^u, n mod T') is a different pair for every n < T, so each
    # n gets its own bit, n mod T' of masks[n mod 2^u], and summing every
    # entry into those of its bit subsets leaves in masks[t] the n with n & t == t.
    cap, Tp = 1 << seq.u, seq.Tprime
    masks = [0] * cap
    for n in seq.ones_positions():
        masks[n & cap - 1] ^= 1 << n % Tp
    for i in range(seq.u):
        for a in range(cap):
            if not a >> i & 1:
                masks[a] ^= masks[a | 1 << i]
    return masks


_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _evaluate_mask(x, gp, k, e):
    # x(gamma^e) for a GF(2) polynomial x, as bits of the order-k residue
    # field whose gamma powers are gp: x folded mod X^k - 1, then the XOR of
    # gamma^(j e mod k) over the set bits j of the fold
    low, folded = (1 << k) - 1, 0
    while x:
        folded ^= x & low
        x >>= k
    bits = bin(folded)[:1:-1].encode().translate(_BIT_VALUES)
    return reduce(xor, map(gp.__getitem__, map(k.__rmod__, compress(count(0, e), bits))), 0)


def derivative_vanishes_direct(ctx, t):
    """Does sum C(n,t) s_n beta^n vanish in GF(2^f)? This is the direct
    witness for the t-th Hasse derivative of S vanishing at beta; by Lucas,
    C(n,t) is odd exactly when the bits of t are among those of n. The sum
    is read off the sequence's table of such parities (_hasse_masks),
    folded mod X^k - 1 and evaluated at beta = gamma^e from the residue
    field's gamma powers alone."""
    _check_t(ctx, t)
    return _evaluate_mask(_hasse_masks(ctx.seq)[t], ctx.rf.gamma_pow_bits(), ctx.k, ctx.e) == 0


# ---------------------------------------------------------------------------
# pointwise criteria


def thm1_check(ctx, t):
    """Criterion 1: C(T/2,t) + sum C(n,t) rho(alpha^n + 1) chi(alpha^n)
    lies in 2P, with every binomial read through its Lucas parity.

    The 0/1 reading is forced: the criterion is lifted from an identity in
    characteristic 2, and an even multiple of a ring element need not lie
    in 2P, so exact integer binomials change verdicts (q = 19, t = 1 is a
    counterexample) while the parity form agrees with the direct
    evaluation everywhere."""
    _check_t(ctx, t)
    row, k = _rho_sums(ctx.seq)[t], ctx.k
    counts = [sum(row[j::k]) for j in range(k)]
    counts[0] += binom_mod2(ctx.seq.T // 2, t)
    plan = fold_plan(k, k, max(map(abs, counts)), 2)
    return ideal_membership(pack(counts, plan), ctx.rf, 1, plan)


@_per_sequence
def _rho_sums(seq):
    # sums[t][b] for t < 2^u: the sum of rho(alpha^n + 1) over the n with
    # n & t == t and n = b mod T', built as _hasse_masks builds its parities
    # but on its own, from the Zech-logarithm table z: rho(alpha^n + 1) is
    # (-1)^z[n], and 0 at n = T/2 where alpha^n + 1 = 0
    cap, Tp, half = 1 << seq.u, seq.Tprime, seq.T // 2
    sums = [[0] * Tp for _ in range(cap)]
    for n, z in enumerate(seq.field.zech_log()):
        if n != half:
            sums[n & cap - 1][n % Tp] += 1 - 2 * (z & 1)
    for i in range(seq.u):
        for a in range(cap):
            if not a >> i & 1:
                sums[a] = list(map(add, sums[a], sums[a | 1 << i]))
    return sums


def thm2_check(ctx, t):
    """Criterion 2: the K-sum form of thm1_check, with h the bit length of
    t, tested modulo 2^(h+1) P Z[z_{2^h k}].

    The constant term is 2^h times the *parity* of C(T/2,t): the K-sum
    expansion multiplies the parity form of the pointwise criterion by
    2^h, and swapping in the exact binomial shifts the value by 2^h times
    an even integer, which need not lie in the modulus (q = 13, t = 1
    flips). The parity reading also makes the t = 1..3 closed forms
    literal specializations."""
    _check_t(ctx, t)
    h = bit_length_h(t)
    T = ctx.seq.T
    plan, _ = ctx.level(h)
    rows = ctx.matrix_rows(h)
    acc = sum(rows[i] for i in index_set(t)) + (binom_mod2(T // 2, t) << (h + plan.top))
    return ideal_membership(acc, ctx.rf, h + 1, plan)


def thm3_check(ctx, h):
    """Criterion 3: beta has multiplicity at least 2^h iff the 2^h x 2^h
    root-of-unity matrix applied to the twisted K-sums is congruent to
    -2^h times the indicator of T/2 mod 2^h, row by row, modulo
    2^(h+1) P Z[z_{2^h k}]."""
    if not 1 <= h <= ctx.seq.u:
        raise HOutOfRange(f"h = {h} outside 1..u = {ctx.seq.u}")
    two_h = 1 << h
    plan, _ = ctx.level(h)
    d_index = (ctx.seq.T // 2) % two_h
    return _every(ideal_membership(row + (two_h << plan.top) * (i == d_index), ctx.rf, h + 1, plan)
                  for i, row in enumerate(ctx.matrix_rows(h)))


def necessary_condition_check(ctx, h):
    """One-directional check: multiplicity >= 2^h forces every twisted K-sum
    to be congruent to -1 modulo 2 P Z[z_{2^h k}]. Never sufficient."""
    if not 1 <= h <= ctx.seq.u:
        raise HOutOfRange(f"h = {h} outside 1..u = {ctx.seq.u}")
    plan, ksums = ctx.level(h)
    return _every(ideal_membership(x + (1 << plan.top), ctx.rf, 1, plan) for x in ksums)


def prop_check(ctx, which):
    """Specializations of the congruences at t = which - 1 (which in 1..4),
    written out the way the closed forms are usually quoted. Props 3 and 4
    require q = 1 mod 4 (otherwise t = 2, 3 are out of range anyway)."""
    q = ctx.field.q
    if which == 1:
        plan, (K0,) = ctx.level(0)
        return ideal_membership(K0 + (1 << plan.top), ctx.rf, 1, plan)
    if which == 2:
        plan, (K0, K1) = ctx.level(1)
        acc = K0 - K1 if q % 4 == 1 else K0 + K1 + (2 << plan.top)
        return ideal_membership(acc, ctx.rf, 2, plan)
    if which not in (3, 4):
        raise ValueError("which must be in 1..4")
    if q % 4 != 1:
        raise PreconditionUnmet("props 3 and 4 require q = 1 mod 4")
    # times z4 = z_N^k is a rotation by k slots. With s = 1 if q = 1 mod 8
    # and -1 if q = 5 mod 8, prop 4 is K0 - K2 + s z4 (K1 - K3) and prop 3
    # 4 (1 - s) / 2 + 2 K0 - s (K1 + K3) + s z4 (K1 - K3)
    plan, (K0, K1, K2, K3) = ctx.level(2)
    s = 1 if q % 8 == 1 else -1
    z4_diff = rotate(s * (K1 - K3), ctx.k, plan)
    if which == 4:
        value = K0 - K2 + z4_diff
    elif s == 1:
        value = 2 * K0 - K1 - K3 + z4_diff
    else:
        value = 2 * K0 + K1 + K3 + z4_diff + (4 << plan.top)
    return ideal_membership(value, ctx.rf, 3, plan)


# ---------------------------------------------------------------------------
# multiplicity profile


class MultiplicityProfile(NamedTuple):
    """Multiplicity of every odd-order root beta = gamma^e (order k | T')
    in S(X), capped at 2^u, plus the linear complexity they reconstruct."""

    entries: dict
    L: int

    def capped_total(self):
        return sum(self.entries.values())


def multiplicity_profile(seq, all_units=False):
    """The Hasse-derivative sums, read off the sequence's parity table as
    derivative_vanishes_direct reads them, run at the smallest e of each
    Galois orbit, whose multiplicity every member shares; all_units runs
    them at every e."""
    if seq.d != 2:
        raise NotBinary("multiplicity profile is defined for d = 2")
    cap = 1 << seq.u
    table = _hasse_masks(seq)
    entries = {}
    for k in divisors(seq.Tprime):
        # at k = 1, beta = 1 lies in GF(2) itself
        gp = (1,) if k == 1 else build_residue_field(k).gamma_pow_bits()
        for e, members in galois_orbits(k, all_units):
            mult = next((t for t, x in enumerate(table) if _evaluate_mask(x, gp, k, e)), cap)
            for member in members:
                entries[(k, member)] = mult
    return MultiplicityProfile(entries, seq.T - sum(entries.values()))


# ---------------------------------------------------------------------------
# semiprimitive case


class SemiprimitiveParams(NamedTuple):
    """Minimal v with 2^h k | p^v + 1 and m = 2vw, plus the analogous
    (v', w') for the untwisted order k."""

    p: int
    m: int
    k: int
    h: int
    v: int
    w: int
    vprime: int
    wprime: int


def semiprimitive_params(p, m, k, h):
    q = field_order(p, m)
    v, w = semiprimitive_vw(p, m, (1 << h) * k)
    try:
        vprime, wprime = semiprimitive_vw(p, m, k)
    except NotSemiprimitive as exc:
        raise InternalInconsistency(f"k = {k} is not semiprimitive although 2^{h} k is") from exc
    u, _ = two_adic_split(q - 1)
    if h >= u:
        raise InternalInconsistency("the twist level must lie below the 2-adic valuation of T")
    return SemiprimitiveParams(p, m, k, h, v, w, vprime, wprime)


def lemma1_check(p, m, k, h, e=1):
    """In the semiprimitive case all 2^h twisted K-sums collapse to one
    rational integer of quadratic-Gauss-sum magnitude.

    Checked exactly: every K(eta_{i/2^h} chi) is the same CycInt constant,
    equal to +-G(rho) with G(rho) the (integer) closed form. The sign is
    deliberately free: direct summation gives K = +5 over GF(25) with
    k = 3, h = 1 while G(rho) = -5 there, and the parity rule for
    divisibility is consistent only with the summation sign.
    """
    semiprimitive_params(p, m, k, h)
    field = build_field(p, m)
    if math.gcd(e, k) != 1:
        raise ValueError(f"e = {e} is not a unit mod {k}")
    qm1 = field.q - 1
    N = (1 << h) * k
    g = quadratic_gauss_closed(p, m).as_int()
    a = e * qm1 // k
    step = qm1 >> h
    values = [
        k_sum(Character(field, i * step + a), conductor=N) for i in range(1 << h)
    ]
    first = values[0]
    if any(v != first for v in values[1:]):
        return False
    try:
        common = first.as_int()
    except ValueError:
        return False
    return common in (g, -g)


def semiprimitive_predict(p, m, k, h):
    """Parity rule for (1 + X + ... + X^(k-1))^(2^h) dividing S(X):
    w' even always suffices; for p = 3 mod 4, v'w' odd also does."""
    params = semiprimitive_params(p, m, k, h)
    if p % 4 == 1:
        return params.wprime % 2 == 0
    return params.wprime % 2 == 0 or (params.vprime * params.wprime) % 2 == 1


def all_ones_power_divides(seq, k, h):
    """Brute-force ground truth for semiprimitive_predict: does
    (1 + X + ... + X^(k-1))^(2^h) divide S(X)? Over GF(2) that power is
    1 + X^(2^h) + ... + X^((k-1) 2^h)."""
    return _mod2(seq.bits, _frobenius_pow((1 << k) - 1, 1 << h)) == 0


# ---------------------------------------------------------------------------
# sweep runner


class CriterionRecord(NamedTuple):
    """One verdict pair: a criterion's prediction next to the ground truth.
    A named tuple in CSV column order, so it equals the plain tuple of its
    values."""

    q: int
    p: int
    m: int
    k: int
    e: int
    check: str
    index: int
    predicted: bool
    ground_truth: bool
    match: bool

    def to_json(self):
        return self._asdict()


ALL_CHECKS = ("thm1", "thm2", "thm3", "prop1", "prop2", "prop3", "prop4", "necessary")

# each check's own name, and the short forms
_CHECK_TOKENS = {name: name for name in ALL_CHECKS} | {
    "1": "thm1", "2": "thm2", "3": "thm3", "nc": "necessary"}


def normalize_checks(tokens):
    out = []
    for tok in tokens:
        tok = tok.strip().lower()
        if tok not in _CHECK_TOKENS:
            raise ValueError(f"unknown check token {tok!r}")
        name = _CHECK_TOKENS[tok]
        if name not in out:
            out.append(name)
    return tuple(out)


def analyze_field(p, m, checks=ALL_CHECKS, all_units=False):
    """The field's contexts in (k, e) order, each as (k, e, verdicts), with
    verdicts a tuple of (check, index, predicted, ground_truth, match)
    sorted by (check, index). Each check runs once per (k, index), on the
    context of k's first orbit, in ascending twist level, so that context
    builds each level once; each Galois orbit of units e mod k reads its
    own prime's bits at its smallest e, and its members share one verdicts
    tuple; all_units evaluates every e."""
    field = build_field(p, m)
    seq = generate_slce(field, 2)
    profile = multiplicity_profile(seq, all_units)
    q, u = field.q, seq.u
    runs = []  # (twist level read, check, index, function, its argument)
    for check in checks:
        if check in ("thm1", "thm2"):
            fn = thm1_check if check == "thm1" else thm2_check
            runs += ((bit_length_h(t), check, t, fn, t) for t in range(1 << u))
        elif check in ("thm3", "necessary"):
            fn = thm3_check if check == "thm3" else necessary_condition_check
            runs += ((h, check, h, fn, h) for h in range(1, u + 1))
        elif (which := int(check[-1])) < 3 or q % 4 == 1:  # prop3, prop4: q = 1 mod 4
            runs.append((bit_length_h(which - 1), check, which - 1, prop_check, which))
    runs.sort(key=itemgetter(0))
    contexts = []
    for k in divisors(seq.Tprime)[1:]:
        orbits = [(AnalysisContext(seq, k, e), members)
                  for e, members in galois_orbits(k, all_units)]
        masks = sorted((check, index, fn(orbits[0][0], arg)) for _, check, index, fn, arg in runs)
        for ctx, members in orbits:
            mult = profile.entries[(k, ctx.e)]
            # the profile's Hasse sums vanish below t = mult, not at it
            direct = [t < mult or t > mult and derivative_vanishes_direct(ctx, t)
                      for t in range(1 << u)]
            verdicts = []
            for check, index, mask in masks:
                pred = mask >> ctx.prime & 1 == 1
                gt = mult >= 1 << index if check in ("thm3", "necessary") else direct[index]
                # necessary is one-directional: it fails only where the ground truth holds
                match = pred >= gt if check == "necessary" else pred == gt
                verdicts.append((check, index, pred, gt, match))
            verdicts = tuple(verdicts)
            contexts += ((k, member, verdicts) for member in members)
    contexts.sort()  # (k, e) is unique, so no verdicts are compared
    return contexts


def _field_contexts(p, m, checks):
    return p**m, p, m, analyze_field(p, m, checks)


def verify_fields(q_max, p_filter=None, checks=ALL_CHECKS, jobs=1):
    """(q, p, m, analyze_field(p, m, checks)) per field, as map_fields yields them."""
    return map_fields(partial(_field_contexts, checks=checks), q_max, p_filter, jobs)


def run_verify(q_max, p_filter=None, checks=ALL_CHECKS, jobs=1):
    """Criterion records over every admissible context with q <= q_max, as a
    lazy iterator sorted by (q, k, e, check, index): verify_fields expanded."""
    return (CriterionRecord(q, p, m, k, e, *verdict)
            for q, p, m, contexts in verify_fields(q_max, p_filter, checks, jobs)
            for k, e, verdicts in contexts for verdict in verdicts)

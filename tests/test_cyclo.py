"""Cyclotomic integers, characters, Gauss/Jacobi sums, membership in 2^c P O_L."""

import cmath
import math
import time
from functools import lru_cache, reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slce import cyclo
from slce.cyclo import (
    Character,
    CycInt,
    gauss_sum_numeric,
    jacobi_sum,
    k_sum,
    k_sum_bound,
    k_sum_counts,
    quadratic_gauss_closed,
    semiprimitive_gauss_closed,
    semiprimitive_vw,
)
from slce import polybin
from slce.errors import CompositeP, ConductorMismatch, NotSemiprimitive, SizeExceeded
from slce.criteria import odd_prime_powers
from slce.ff import ExtField, build_field
from slce.numth import (
    CONDUCTORS_HELD,
    _fold_plan,
    _int_divmod,
    _pack,
    _struct,
    _unpack,
    _width,
    cyclic_mul,
    cyclotomic_polynomial,
    divisors,
    fold,
    fold_packed,
    fold_plan,
    inverse_cyclotomic_polynomial,
    pack,
    poly_mul,
    rotate,
)

from oracles import embed, member


def numeric_jacobi(field, a1, a2):
    """Oracle: J as a complex float from raw roots of unity and dlogs."""
    qm1 = field.q - 1
    total = 0j
    for code in range(1, field.q):
        y = field.add_codes(1, field.neg_code(code))
        if y == 0:
            continue
        e1 = a1 * field.dlog_code(code)
        e2 = a2 * field.dlog_code(y)
        total += cmath.exp(2j * math.pi * ((e1 + e2) % qm1) / qm1)
    return total


class TestCyclotomicPolynomial:
    @pytest.mark.parametrize("N,coeffs", [
        (1, (-1, 1)),
        (2, (1, 1)),
        (3, (1, 1, 1)),
        (4, (1, 0, 1)),
        (12, (1, 0, -1, 0, 1)),
    ])
    def test_known(self, N, coeffs):
        assert cyclotomic_polynomial(N) == coeffs

    def test_product_over_divisors(self):
        # prod over d | N of Phi_d = X^N - 1, checked by degree and at X = 2
        for N in (6, 8, 9, 10, 15, 16, 20, 36):
            prod = 1
            for d in divisors(N):
                c = cyclotomic_polynomial(d)
                prod *= sum(ci * 2**i for i, ci in enumerate(c))
            assert prod == 2**N - 1

    def test_matches_division_by_every_divisor(self):
        # Phi_N = (X^N - 1) / prod of Phi_d over the proper divisors d of N
        table = {}
        for N in range(1, 601):
            rem = [-1] + [0] * (N - 1) + [1]
            for d in divisors(N)[:-1]:
                rem, r = _int_divmod(rem, table[d])
                assert not any(r)
            table[N] = tuple(rem)
            assert cyclotomic_polynomial(N) == table[N]
            psi, r = _int_divmod([-1] + [0] * (N - 1) + [1], table[N])
            assert not any(r) and inverse_cyclotomic_polynomial(N) == tuple(psi)

    @pytest.mark.parametrize("N", [4098, 30030, 40960, 65518, 65520])
    def test_inverse_at_envelope_conductors(self, N):
        # Phi_N Psi_N = X^N - 1, read at X = 2; 30030 = 2 3 5 7 11 13 has a
        # dense Phi_rad that long division of X^rad - 1 takes seconds over
        start = time.perf_counter()
        psi = inverse_cyclotomic_polynomial.__wrapped__(N)
        assert time.perf_counter() - start < 1.0
        phi = cyclotomic_polynomial(N)
        assert len(psi) + len(phi) == N + 2 and psi[-1] == 1
        at2 = [sum(c << i for i, c in enumerate(poly)) for poly in (phi, psi)]
        assert at2[0] * at2[1] == (1 << N) - 1

    def test_envelope_conductor_in_seconds(self):
        # N = 65520 = 2^4 3^2 5 7 13, the conductor of GF(65521)'s characters
        start = time.perf_counter()
        phi = cyclotomic_polynomial.__wrapped__(65520)
        assert time.perf_counter() - start < 1.0
        assert len(phi) - 1 == 13824
        assert sum(1 for c in phi if c) == 423

    def test_conductor_cap(self):
        # the cap on q bounds conductors too, refused before any division
        start = time.perf_counter()
        with pytest.raises(SizeExceeded, match="size cap 65536"):
            cyclotomic_polynomial(65537)
        with pytest.raises(SizeExceeded, match="size cap 65536"):
            CycInt(65538, ())
        assert time.perf_counter() - start < 0.5

    def test_conductor_cap_before_allocating(self):
        # a conductor past the cap is refused before a list of N counts or
        # phi(N) coordinates is built; at N >= 2^61 CPython would refuse
        # that list at once
        rho = Character.quadratic(build_field(5, 1))
        for N in (1 << 61, 1 << 62):
            with pytest.raises(SizeExceeded):
                CycInt(N, ())
            with pytest.raises(SizeExceeded):
                k_sum(rho, conductor=N)


def table_fold(N, counts):
    """Reference fold: the coordinates of z^e for every e < N, built one
    shift at a time (z^e = X * z^(e-1) reduced by the top coordinate), then
    summed with weights counts[e]."""
    cyc = cyclotomic_polynomial(N)
    phi = len(cyc) - 1
    pows = [[int(i == e) for i in range(phi)] for e in range(phi)]
    cur = pows[-1]
    for _ in range(phi, N):
        top = cur[phi - 1]
        cur = [0] + cur[: phi - 1]
        for i in range(phi):
            cur[i] -= top * cyc[i]
        pows.append(cur)
    out = [0] * phi
    for e, c in enumerate(counts):
        for i in range(phi):
            out[i] += c * pows[e][i]
    return tuple(out)


def root(N, e):
    """z_N^e as a list of N exponent counts."""
    counts = [0] * N
    counts[e] = 1
    return counts


FOLD_CONDUCTORS = [1, 2, 3, 9, 96, 105, 210, 362, 576, 624]


class TestReductionModPhi:
    @pytest.mark.parametrize("N", FOLD_CONDUCTORS)
    def test_fold_matches_power_table(self, N):
        import random

        rng = random.Random(N)
        for density in (0.05, 0.5, 1.0):
            counts = [rng.randrange(-9, 10) if rng.random() < density else 0
                      for _ in range(N)]
            assert CycInt.from_exponent_counts(N, counts).coeffs == table_fold(N, counts)
        for counts in oracle_vectors(rng, N):
            assert fold(counts, N) == table_fold(N, counts)

    @pytest.mark.parametrize("N", FOLD_CONDUCTORS)
    def test_root_is_numeric_root_of_unity(self, N):
        for e in range(N):
            ref = cmath.exp(2j * math.pi * e / N)
            assert abs(embed(CycInt.from_exponent_counts(N, root(N, e))) - ref) < 1e-9

    @pytest.mark.parametrize("N", [9, 105, 210, 576])
    def test_product_matches_cyclic_convolution(self, N):
        # x * y reduces a length 2 phi - 1 convolution; the same product as
        # exponent counts mod N goes through the fold
        import random

        rng = random.Random(N)
        phi = len(cyclotomic_polynomial(N)) - 1
        a = [rng.randrange(-9, 10) for _ in range(phi)]
        b = [rng.randrange(-9, 10) for _ in range(phi)]
        counts = [0] * N
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                counts[(i + j) % N] += ai * bj
        assert CycInt(N, a) * CycInt(N, b) == CycInt.from_exponent_counts(N, counts)

    def test_counts_length_checked(self):
        with pytest.raises(ValueError):
            CycInt.from_exponent_counts(6, [1, 2, 3])


def oracle_vectors(rng, N):
    """Signed count vectors of length N up to the l1 norm 16 q, q = N + 1,
    of K sums scaled by 2^h <= 16: sparse, dense, and the worst case for
    the slot width, 16 in every entry."""
    sparse = [0] * N
    for _ in range(rng.randrange(1, 16 * (N + 1))):
        sparse[rng.randrange(N)] += rng.choice((-1, 1))
    return [sparse, [rng.randrange(-31, 32) for _ in range(N)], [16] * N]


def convolution(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestFoldOracle:
    """numth.fold, the one reduction modulo Phi_N by Kronecker products,
    against the sparse long division numth._int_divmod, and numth.poly_mul
    against the schoolbook convolution."""

    @staticmethod
    def check(N, counts):
        phi = cyclotomic_polynomial(N)
        assert fold(counts, N) == tuple(_int_divmod(counts, phi)[1])

    def test_every_conductor_to_600(self):
        import random

        rng = random.Random(600)
        for N in range(1, 601):
            for counts in oracle_vectors(rng, N):
                self.check(N, counts)

    @pytest.mark.parametrize("N", [4098, 16380, 65520])
    def test_dense_envelope_conductors(self, N):
        import random

        self.check(N, oracle_vectors(random.Random(N), N)[1])

    def test_packed_at_wider_slots(self):
        # the criteria route folds packed vectors in slots sized from a
        # bound over a whole twist level and from the depth, so wider than
        # one vector needs: 1, 2, 4, 8 and 9 bytes
        import random

        rng = random.Random(601)
        for N in range(1, 601):
            counts = oracle_vectors(rng, N)[1]
            expect = tuple(_int_divmod(counts, cyclotomic_polynomial(N))[1])
            widths = set()
            for bound, bits in [(31, 0), (31, 9), (31 << 8, 17), (31, 40), (31 << 16, 70)]:
                plan = fold_plan(N, N, bound, bits)
                x = fold_packed(_pack(counts[::-1], plan.w, plan.bias), plan)
                assert _unpack(x, plan.d, plan.w)[::-1] == expect, (N, plan.w)
                widths.add(plan.w)
            assert 8 in widths and max(widths) > 8
        assert _fold_plan.cache_info().maxsize == CONDUCTORS_HELD

    @pytest.mark.parametrize("N", [1, 2, 3, 9, 96, 105, 210, 4098])
    def test_coordinates_past_int64(self, N):
        import random

        rng = random.Random(N)
        counts = [rng.randrange(-(1 << 70), 1 << 70) for _ in range(N)]
        x = CycInt.from_exponent_counts(N, counts)
        assert x.coeffs == tuple(_int_divmod(counts, cyclotomic_polynomial(N))[1])
        y = CycInt(N, [rng.randrange(-(1 << 70), 1 << 70) for _ in range(len(x.coeffs))])
        product = (x * y).coeffs
        reference = _int_divmod(convolution(x.coeffs, y.coeffs), cyclotomic_polynomial(N))[1]
        assert product == tuple(reference) and max(map(abs, product)) >> 130

    def test_product(self):
        import random

        rng = random.Random(7)
        for n, k, bits in [(1, 1, 0), (1, 5, 3), (7, 3, 8), (40, 60, 31), (25, 25, 70)]:
            a = [rng.randrange(-(1 << bits), (1 << bits) + 1) for _ in range(n)]
            b = [rng.randrange(-(1 << bits), (1 << bits) + 1) for _ in range(k)]
            assert list(poly_mul(a, b)) == convolution(a, b)
        assert poly_mul([0, 0], [300, -(1 << 40)]) == (0, 0, 0)


class TestCyclicMul:
    """numth.cyclic_mul against poly_mul with its slots from n on added onto
    the low n, on random signed inputs at slot widths of 1, 2, 4, 8 and
    more than 8 bytes."""

    @staticmethod
    def wrapped(a, b):
        n, out = len(a), list(poly_mul(a, b)) + [0]
        return tuple(x + y for x, y in zip(out[:n], out[n:]))

    def test_against_wrapped_product(self):
        import random

        rng = random.Random(8)
        widths = set()
        for n, bits in [(1, 0), (1, 5), (2, 3), (7, 2), (40, 4), (33, 9), (64, 20),
                        (25, 28), (50, 40), (17, 70), (300, 1)]:
            for _ in range(5):
                a = [rng.randrange(-(1 << bits), (1 << bits) + 1) for _ in range(n)]
                b = [rng.randrange(-(1 << bits), (1 << bits) + 1) for _ in range(n)]
                assert cyclic_mul(a, b) == self.wrapped(a, b), (n, bits)
                widths.add(_width((sum(map(abs, a)) + 1) * (max(map(abs, b)) + 1)))
        assert {1, 2, 4, 8} <= widths and max(widths) > 8
        assert cyclic_mul([0, 0, 0], [1, -1, 1 << 40]) == (0, 0, 0)
        assert _struct.cache_info().maxsize == CONDUCTORS_HELD

    def test_edges_of_a_slot(self):
        # every folded slot at +-|a|_1 |b|_inf, the largest the width allows for
        for n in (1, 2, 5, 16):
            for top in (1, 127, 255, 1 << 16):
                a, b = [top] * n, [-top] * n
                assert cyclic_mul(a, b) == (-n * top * top,) * n
                assert cyclic_mul(b, b) == (n * top * top,) * n


class TestPackAndRotate:
    """numth.pack and numth.rotate against list arithmetic at slot widths of
    8 bytes and past 8 (the signed to_bytes path), which the level plans of
    the fields measured so far (w in 1, 2, 4) never reach: pack of a sum, a
    negation and an integer multiple, with negative slots and slots at the
    edges of [-2^(8w-1), 2^(8w-1)), and rotate by s against the list
    rotated in Z[X]/(X^N + 1), where the wrapped slots come back negated.
    The rotated list moves -2^(8w-1) up by one, since its negation does
    not fit a slot."""

    @pytest.mark.parametrize("N,bits,w", [(7, 40, 8), (12, 64, 9), (96, 130, 17)])
    def test_against_lists(self, N, bits, w):
        import random

        rng = random.Random(N)
        plan = fold_plan(N, N, 1, bits)
        assert plan.w == w
        top = 1 << (8 * w - 1)

        def values(bound):
            return [rng.randrange(-bound, bound) for _ in range(N)]

        a, b = values(top >> 1), values(top >> 1)
        assert pack(a, plan) + pack(b, plan) == pack([x + y for x, y in zip(a, b)], plan)
        assert pack(a, plan) - pack(b, plan) == pack([x - y for x, y in zip(a, b)], plan)
        assert -pack(a, plan) == pack([-x for x in a], plan)
        c = values(top // 3)
        assert 3 * pack(c, plan) == pack([3 * x for x in c], plan)
        edge = values(top)
        edge[:4] = [-top, top - 1, -1, 0]
        rng.shuffle(edge)
        x = pack(edge, plan)
        assert list(_unpack(x + plan.bias, N, w)[::-1]) == edge
        spun = [max(v, 1 - top) for v in edge]
        x = pack(spun, plan)
        assert rotate(x, N, plan) == -x
        for s in (0, 1, -1, N - 1, N, N + 3, 2 * N, 2 * N + 1, -N - 2, -4 * N - 5,
                  rng.randrange(2 * N)):
            rotated = [0] * N
            for e, v in enumerate(spun):
                t = (e + s) % (2 * N)
                rotated[t % N] += v if t < N else -v
            assert rotate(x, s, plan) == pack(rotated, plan), s


class TestCycIntArithmetic:
    def test_primitive_cube_roots_sum(self):
        assert CycInt.from_exponent_counts(3, [0, 1, 1]).as_int() == -1

    def test_i_squared(self):
        z4 = CycInt.from_exponent_counts(4, root(4, 1))
        assert (z4 * z4).as_int() == -1

    def test_conductor_mismatch(self):
        z3, z4 = CycInt(3, (0, 1)), CycInt(4, (0, 1))
        with pytest.raises(ConductorMismatch):
            z3 * z4
        with pytest.raises(ConductorMismatch):
            z3 == z4

    @given(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
           st.lists(st.integers(-9, 9), min_size=4, max_size=4),
           st.lists(st.integers(-9, 9), min_size=4, max_size=4))
    @settings(max_examples=60)
    def test_ring_axioms_conductor_5(self, a, b, c):
        ring_axioms(*(CycInt(5, tuple(v)) for v in (a, b, c)))

    @pytest.mark.parametrize("N", [2, 4, 8, 12, 15, 24])
    def test_ring_axioms_other_conductors(self, N):
        import random

        from slce.numth import euler_phi

        rng = random.Random(N)
        phi = euler_phi(N)
        for _ in range(25):
            ring_axioms(*(
                CycInt(N, tuple(rng.randrange(-9, 10) for _ in range(phi)))
                for _ in range(3)
            ))

    def test_json(self):
        x = CycInt(3, (5, 0))
        assert x.to_json() == {"conductor": 3, "coeffs": ["5", "0"]}

    def test_unhashable(self):
        # equality compares coordinates and raises ConductorMismatch across
        # conductors, so a set or dict holding CycInts of two conductors
        # would raise on a hash collision; CycInt has no hash instead
        with pytest.raises(TypeError):
            hash(CycInt(3, (5, 0)))


def ring_axioms(x, y, z):
    """The product commutes, associates and distributes over the sum of
    coordinates."""
    N = x.conductor

    def plus(a, b):
        return CycInt(N, [i + j for i, j in zip(a.coeffs, b.coeffs)])

    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * plus(y, z) == plus(x * y, x * z)


class TestCharacters:
    def test_trivial_everywhere_one(self):
        F = build_field(7, 1)
        eps = Character(F, 0)
        assert eps.order == 1
        assert [eps.exponent_at(n) for n in range(6)] == [0] * 6

    def test_quadratic_on_squares(self):
        # rho(alpha^n) = z_2^(n mod 2) = (-1)^n
        F = build_field(7, 1)
        rho = Character.quadratic(F)
        assert rho.order == 2
        assert [rho.exponent_at(n) for n in range(6)] == [0, 1, 0, 1, 0, 1]

    def test_cubic_at_alpha(self):
        F = build_field(7, 1)
        chi = Character(F, 2)
        assert chi.order == 3
        assert chi.exponent_at(1) == 1

    def test_multiplicativity(self):
        F = build_field(3, 2)
        chi = Character(F, 3)
        for a in range(1, 9):
            for b in range(1, 9):
                m, n = F.dlog_code(a), F.dlog_code(b)
                product = F.dlog_code(F.pow_alpha(m + n))
                assert chi.exponent_at(product) == (
                    chi.exponent_at(m) + chi.exponent_at(n)) % chi.order

    def test_orthogonality_exact(self):
        # summing the d-power residue characters flags membership in the
        # subgroup of d-th powers, exactly
        for p, m in [(5, 1), (13, 1), (3, 2), (17, 1), (5, 2)]:
            F = build_field(p, m)
            for d in (2, 4, 8):
                if (F.q - 1) % d:
                    continue
                for n in range(F.q - 1):
                    counts = [0] * d
                    for i in range(d):
                        chi = Character.eta(F, i, d)
                        # chi(x) = z_order^e = z_d^(e d / order)
                        counts[d // chi.order * chi.exponent_at(n)] += 1
                    expect = d if n % d == 0 else 0
                    assert CycInt.from_exponent_counts(d, counts).as_int() == expect

    def test_coset_sums_vanish_exact(self):
        # sum of an order-d1 character over any coset of the index-d2
        # subgroup vanishes when gcd(d1, d2) = 1, d1 > 1
        F = build_field(13, 1)
        for d1, d2 in [(3, 2), (3, 4), (2, 3)]:
            chi = Character.eta(F, 1, d1)
            for i in range(d2):
                counts = [0] * d1
                for n in range(i, F.q - 1, d2):
                    counts[chi.exponent_at(n)] += 1
                assert not any(CycInt.from_exponent_counts(d1, counts).coeffs)


class TestJacobiSums:
    def test_f5_quadratic_pair(self):
        # oracle: three-term sum over x in {2, 3, 4} with residue signs
        squares = {x * x % 5 for x in range(1, 5)}
        total = 0
        for x in range(2, 5):
            s1 = 1 if x in squares else -1
            s2 = 1 if (1 - x) % 5 in squares else -1
            total += s1 * s2
        assert total == -1
        F = build_field(5, 1)
        rho = Character.quadratic(F)
        assert jacobi_sum(rho, rho).as_int() == -1

    def test_trivial_pair_counts(self):
        for p, m in [(5, 1), (7, 1), (3, 2)]:
            F = build_field(p, m)
            eps = Character(F, 0)
            assert jacobi_sum(eps, eps).as_int() == F.q - 2

    def test_f7_norm(self):
        F = build_field(7, 1)
        J = jacobi_sum(Character.quadratic(F), Character(F, 2))
        assert (J * jacobi_sum(Character(F, -3), Character(F, -2))).as_int() == 7

    def test_norm_is_q(self):
        for p, m in [(7, 1), (11, 1), (13, 1), (3, 2)]:
            F = build_field(p, m)
            qm1 = F.q - 1
            for a1 in range(1, qm1):
                for a2 in range(1, qm1):
                    if (a1 + a2) % qm1 == 0:
                        continue
                    J = jacobi_sum(Character(F, a1), Character(F, a2))
                    Jbar = jacobi_sum(Character(F, -a1), Character(F, -a2))
                    assert (J * Jbar).as_int() == F.q

    def test_against_numeric_oracle(self):
        F = build_field(13, 1)
        for a1 in range(0, 12, 2):
            for a2 in range(1, 12, 3):
                J = jacobi_sum(Character(F, a1), Character(F, a2))
                ref = numeric_jacobi(F, a1, a2)
                assert abs(embed(J) - ref) < 1e-8

    def test_symmetry(self):
        F = build_field(11, 1)
        for a1, a2 in [(2, 5), (1, 3), (4, 6)]:
            assert jacobi_sum(Character(F, a1), Character(F, a2)) == jacobi_sum(
                Character(F, a2), Character(F, a1)
            )


class TestKSums:
    def test_f5_k_of_rho(self):
        F = build_field(5, 1)
        assert k_sum(Character.quadratic(F)).as_int() == -1

    def test_f7_k_of_trivial(self):
        F = build_field(7, 1)
        assert k_sum(Character(F, 0)).as_int() == -1

    def test_f25_semiprimitive_value(self):
        # direct summation fixes the sign: +5, the negative of G(rho)
        F = build_field(5, 2)
        K = k_sum(Character.eta(F, 1, 3))
        assert K.conductor == 6 and K.as_int() == 5
        assert quadratic_gauss_closed(5, 2).as_int() == -5

    def test_matches_jacobi(self):
        F = build_field(13, 1)
        rho = Character.quadratic(F)
        for a in range(12):
            chi = Character(F, a)
            assert k_sum(chi) == jacobi_sum(rho, chi)

    def test_forced_conductor(self):
        F = build_field(7, 1)
        chi = Character(F, 2)
        K_odd = k_sum(chi, conductor=3)
        assert K_odd.conductor == 3
        a, b = k_sum(chi).coeffs  # a + b z_6, and z_6 = 1 + z_3
        assert K_odd.coeffs == (a + b, b)

    def test_conductor_must_contain_order(self):
        F = build_field(7, 1)
        with pytest.raises(ConductorMismatch):
            k_sum(Character(F, 1), conductor=4)


def k_sum_counts_by_term(chi, conductor):
    """Oracle: the counts of K(chi) = sum of rho(x) chi(1 - x) one term at
    a time, as k_sum_counts summed them before the signed tables, with
    1 - x formed digit by digit."""
    F = chi.field
    b = (conductor // chi.order) * chi._c
    counts = [0] * conductor
    for dx in range(1, F.q - 1):
        dy = F.dlog_code(F.add_codes(1, F.neg_code(F.pow_alpha(dx))))
        counts[b * dy % conductor] += -1 if dx & 1 else 1
    return counts


class TestKSumCounts:
    """k_sum_counts, read off the field's signed sums, against the per-term
    loop for every character of every field with q <= 128."""

    def test_every_character_to_128(self):
        seen = 0
        for p, m, q in odd_prime_powers(128):
            F = build_field(p, m)
            for a in range(q - 1):
                chi = Character(F, a)
                for N in (chi.order, 2 * chi.order, 3 * chi.order):
                    assert k_sum_counts(chi, N) == k_sum_counts_by_term(chi, N), (q, a, N)
                    seen += (q - 1) % N != 0
        assert seen > 1000  # conductors that do not divide q - 1

    def test_bound_is_the_largest_count(self):
        # k_sum_bound reads max |D_o| kept with D_o: the largest entry of the
        # counts at conductor o, doubled at even o
        for p, m, q in odd_prime_powers(243):
            F = build_field(p, m)
            for a in range(1, q - 1):
                chi = Character(F, a)
                largest = max(map(abs, k_sum_counts(chi, chi.order)))
                assert k_sum_bound(chi) == largest << (chi.order % 2 == 0), (q, a)

    def test_refusals(self):
        chi = Character(build_field(13, 1), 4)  # order 3
        for N in (1, 2, 4, 8):
            with pytest.raises(ConductorMismatch):
                k_sum_counts(chi, N)
        with pytest.raises(SizeExceeded):
            k_sum_counts(chi, 3 * (1 << 16))
        with pytest.raises(ValueError):
            k_sum_counts(chi, 0)

    def test_tables_live_with_their_field(self):
        import gc
        import weakref

        before = len(cyclo._SIGNED_SUMS)
        F = ExtField(29, 1)  # a new object, outside the field registry
        k_sum_counts(Character(F, 1), 28)
        assert len(cyclo._SIGNED_SUMS) == before + 1
        ref = weakref.ref(F)
        del F
        gc.collect()
        assert ref() is None and len(cyclo._SIGNED_SUMS) == before


class TestGaussSums:
    def test_trivial_character(self):
        for p, m in [(5, 1), (7, 1), (3, 2)]:
            F = build_field(p, m)
            assert abs(gauss_sum_numeric(Character(F, 0)) + 1) < 1e-9

    def test_modulus_sqrt_q(self):
        for p, m in [(5, 1), (7, 1), (3, 2), (11, 1)]:
            F = build_field(p, m)
            for a in range(1, F.q - 1):
                g = gauss_sum_numeric(Character(F, a))
                assert abs(abs(g) - math.sqrt(F.q)) < 1e-8

    def test_f5_quadratic(self):
        F = build_field(5, 1)
        g = gauss_sum_numeric(Character.quadratic(F))
        assert abs(g - math.sqrt(5)) < 1e-9


class TestClosedForms:
    @pytest.mark.parametrize("p,m,expect", [
        (5, 1, complex(math.sqrt(5), 0)),
        (3, 1, complex(0, math.sqrt(3))),
        (3, 2, complex(3, 0)),
    ])
    def test_quadratic_examples(self, p, m, expect):
        assert abs(quadratic_gauss_closed(p, m).to_complex() - expect) < 1e-12

    def test_integer_form(self):
        v = quadratic_gauss_closed(3, 2)
        assert v.is_rational_integer and v.as_int() == 3
        with pytest.raises(ValueError):
            quadratic_gauss_closed(5, 1).as_int()

    @pytest.mark.parametrize("p", [9, 15])
    def test_quadratic_refuses_composite_p(self, p):
        with pytest.raises(CompositeP):
            quadratic_gauss_closed(p, 1)

    def test_quadratic_refuses_past_the_cap_at_once(self):
        start = time.perf_counter()
        with pytest.raises(SizeExceeded):
            quadratic_gauss_closed(3, 10**6)
        assert time.perf_counter() - start < 0.5

    def test_semiprimitive_magnitudes(self):
        r = semiprimitive_gauss_closed(5, 2, 3)
        assert r.magnitude == 5 and abs(r.value) == 5
        r = semiprimitive_gauss_closed(5, 2, 6)
        assert r.magnitude == 5
        r = semiprimitive_gauss_closed(3, 4, 5)
        assert r.magnitude == 9 and not r.formula_mismatch

    def test_semiprimitive_sign_matches_numeric(self):
        # the printed parity rule should agree with the numeric sum
        for p, m, N in [(5, 2, 3), (5, 2, 6), (3, 4, 5), (3, 4, 10), (11, 2, 3),
                        (13, 2, 7), (3, 2, 4), (7, 2, 4)]:
            r = semiprimitive_gauss_closed(p, m, N)
            assert not r.formula_mismatch, (p, m, N)

    def test_not_semiprimitive(self):
        with pytest.raises(NotSemiprimitive):
            semiprimitive_gauss_closed(7, 2, 3)

    def test_large_m_refused_at_once(self):
        # 3^v is 3 or 1 mod 8, never -1 mod 8; 3 = -1 mod 4, so v = 1 and
        # w = m / 2 at N = 4. No exact p^v or p^(m/2) may be formed.
        start = time.perf_counter()
        with pytest.raises(NotSemiprimitive):
            semiprimitive_vw(3, 20000, 8)
        with pytest.raises(SizeExceeded):
            semiprimitive_gauss_closed(3, 20000, 8)
        with pytest.raises(SizeExceeded):
            semiprimitive_gauss_closed(3, 10**7, 4)
        assert time.perf_counter() - start < 0.1


def fcan_at_zk(k, N):
    """f_can(z_k) as N exponent counts, N = 2^h k, with z_k = z_N^(N/k)."""
    fcan = polybin.factor_phi_mod2(k)[0]
    counts = [0] * N
    for i in range(fcan.bit_length()):
        if (fcan >> i) & 1:
            counts[i * (N // k)] += 1
    return counts


def reduce_mod_p(x):
    """Test-local image of x in O_K / P = GF(2^f): z_k -> gamma, coefficients
    mod 2 (conductor k only)."""
    bits = 0
    for i, c in enumerate(x.coeffs):
        if c & 1:
            bits |= 1 << i
    return polybin._mod2(bits, polybin.factor_phi_mod2(x.conductor)[0])


@lru_cache(maxsize=None)
def gcd_generators(k, N):
    """gcd(g^(2^h), Phi_N mod 2) for each g in factor_phi_mod2(k), N = 2^h k:
    the generators of P_g O_L mod 2 in the form the closed form g^(2^(h-1))
    replaced."""
    h = (N & -N).bit_length() - 1
    return tuple(polybin._gcd2(polybin._frobenius_pow(g, 1 << h), polybin.phi_mod2(N))
                 for g in polybin.factor_phi_mod2(k))


@lru_cache(maxsize=None)
def product_mod2(gens):
    return reduce(polybin._mul2, gens, 1)


def remainders(y, gens):
    """y mod g for each g of gens, by a remainder tree: y is reduced modulo
    the product of each half of gens before that half's own remainders."""
    if len(gens) == 1:
        return [polybin._mod2(y, gens[0])]
    halves = gens[:len(gens) // 2], gens[len(gens) // 2:]
    return [r for half in halves for r in remainders(polybin._mod2(y, product_mod2(half)), half)]


def gcd_membership(x, c):
    """Test-local membership in 2^c P_g O_L at every prime P_g = (2, g(z_k))
    over 2, as ideal_membership answers it: bit i for the factor g =
    factor_phi_mod2(k)[i], with the generator of P_g O_L mod 2 taken from
    gcd_generators."""
    if any(coef % (1 << c) for coef in x.coeffs):
        return 0
    ybits = 0
    for i, coef in enumerate(x.coeffs):
        if (coef >> c) & 1:
            ybits |= 1 << i
    N = x.conductor
    rems = remainders(ybits, gcd_generators(N // (N & -N), N))
    return sum(1 << i for i, r in enumerate(rems) if not r)


class TestReduceModP:
    """Reduction modulo P seen through its kernel: x maps to 0 in O_K / P
    exactly when x lies in P, which is membership at c = 0."""

    def test_examples(self):
        assert member([2, 0, 0], 0) & 1
        assert not member(root(3, 1), 0) & 1

    def test_k7_collapse(self):
        # 1 + z7 + z7^3 lies in P: gamma^3 = gamma + 1 under X^3 + X + 1
        x = CycInt.from_exponent_counts(7, [1, 1, 0, 1, 0, 0, 0])
        assert member(x, 0) & 1

    def test_kernel_contains_generators(self):
        for k in (3, 5, 7, 9):
            assert member([2] + [0] * (k - 1), 0) & 1
            assert member(fcan_at_zk(k, k), 0) & 1

    def test_ring_homomorphism(self):
        # the kernel of a ring map is an ideal: closed under + and under
        # multiplication by any element, and 1 + P misses it. Elements are
        # exponent counts in Z[X]/(X^5 - 1), which maps onto Z[z_5].
        import random

        rng = random.Random(7)
        f = fcan_at_zk(5, 5)

        def element():
            return [rng.randrange(-20, 20) for _ in range(5)]

        def plus(x, y):
            return [a + b for a, b in zip(x, y)]

        def times(x, y):
            out = [0] * 5
            for i, a in enumerate(x):
                for j, b in enumerate(y):
                    out[(i + j) % 5] += a * b
            return out

        for _ in range(40):
            a = plus([2 * c for c in element()], times(f, element()))
            b = plus([2 * c for c in element()], times(f, element()))
            assert member(a, 0) & 1 and member(b, 0) & 1
            assert member(plus(a, b), 0) & 1
            assert member(times(a, element()), 0) & 1
            assert not member(plus(a, root(5, 0)), 0) & 1


class TestIdealMembership:
    def test_zero(self):
        assert member([0, 0, 0], 1) & 1

    def test_twice_unit_not_in(self):
        x = CycInt.from_exponent_counts(3, [2, 2, 0])
        assert not member(x, 1) & 1

    def test_four_in_2p(self):
        assert member([4, 0, 0], 1) & 1

    def test_agrees_with_reduction_at_h0(self):
        import random

        rng = random.Random(11)
        for _ in range(60):
            x = CycInt(7, tuple(rng.randrange(-8, 8) for _ in range(6)))
            if any(c % 2 for c in x.coeffs):
                expect = False
            else:
                half = CycInt(7, tuple(c // 2 for c in x.coeffs))
                expect = reduce_mod_p(half) == 0
            assert member(x, 1) & 1 == expect

    def test_h1_power_of_two_scaling(self):
        # 4 * (root of unity) is not in 4 P O_L; 4 * f_can(z14^2) is
        assert not member([4 * c for c in root(14, 1)], 2) & 1
        assert member([4 * c for c in fcan_at_zk(7, 14)], 2) & 1


class TestMembershipOracle:
    """The closed-form generators g^(2^(h-1)) against the gcd generators, at
    every prime over 2, on members, near-misses and random elements of
    2^c Z[z_N]."""

    @staticmethod
    def samples(rng, k, h, c):
        N = (1 << h) * k
        ratio = N // k
        fcan = polybin.factor_phi_mod2(k)[0]
        fterms = [i * ratio for i in range(fcan.bit_length()) if (fcan >> i) & 1]
        for kind in range(4):
            for _ in range(3):
                counts = [0] * N
                if kind < 2:
                    # f_can(z_k) r + 2 s, with r and s sums of a few roots
                    for _ in range(rng.randrange(1, 4)):
                        j, a = rng.randrange(N), rng.randrange(-3, 4)
                        for i in fterms:
                            counts[(i + j) % N] += a
                    for _ in range(rng.randrange(4)):
                        counts[rng.randrange(N)] += 2 * rng.randrange(-3, 4)
                    if kind == 1:
                        counts[rng.randrange(N)] += 1
                else:
                    counts = [rng.randrange(-3, 4) for _ in range(N)]
                counts = [v << c for v in counts]
                if kind == 3 and c:
                    counts[rng.randrange(N)] += 1 << (c - 1)
                yield CycInt.from_exponent_counts(N, counts)

    @pytest.mark.parametrize("k", [3, 5, 7, 9, 15, 21, 63, 73, 105, 127])
    def test_closed_form_matches_gcd(self, k):
        import random

        rng = random.Random(k)
        seen = set()
        for h in range(5):
            for c in sorted({0, 1, h + 1, h + 2}):
                for x in self.samples(rng, k, h, c):
                    expect = gcd_membership(x, c)
                    assert member(x, c) == expect, (k, h, c)
                    seen.add(expect & 1 == 1)
        assert seen == {False, True}


class TestCountKernel:
    """ideal_membership on exponent counts, packed by numth.pack and reduced
    modulo Phi_N by numth.fold_packed, against the exact division of the
    counts by Phi_N (numth._int_divmod) followed by the gcd-generator
    membership test at every prime over 2, for c in 0..h+2.

    The cases at (k, h, c) are 2^c v for signed random counts v and for a
    member u = v - r, where r is v's power-basis coordinates mod 2 reduced
    by the generator of P O_L mod 2 (so u lies in P O_L), plus near-misses
    that add 2^c z^j or 2^(c-1) z^j with j < phi; at N <= 600 also 2^c
    (f_can(z_k) a + 2 b) for sums a, b of a few roots. One oracle fold per
    vector serves every c, since the fold is linear. Past N = 600 each c
    takes one (vector, addition) pair, in turn."""

    @staticmethod
    def oracle(N, coords, c):
        return gcd_membership(CycInt(N, coords), c)

    def check_conductor(self, rng, k, h, cs, seen):
        N = k << h
        fcan = polybin.factor_phi_mod2(k)[0]
        d = len(cyclotomic_polynomial(N)) - 1
        noise = [rng.randrange(-3, 4) for _ in range(N)]
        noise_coords = _int_divmod(noise, cyclotomic_polynomial(N))[1]
        generator = polybin._gcd2(polybin._frobenius_pow(fcan, 1 << h), polybin.phi_mod2(N))
        ybits = sum(1 << i for i, v in enumerate(noise_coords) if v & 1)
        r = polybin._mod2(ybits, generator)
        inside = [v - ((r >> i) & 1 if i < d else 0) for i, v in enumerate(noise)]
        bases = [(noise, noise_coords),
                 (inside, [v - ((r >> i) & 1) for i, v in enumerate(noise_coords)])]
        if N <= 600:
            fterms = [i << h for i in range(fcan.bit_length()) if (fcan >> i) & 1]
            built = [0] * N
            for _ in range(rng.randrange(1, 4)):
                j, a = rng.randrange(N), rng.randrange(-3, 4)
                for i in fterms:
                    built[(i + j) % N] += a
            for _ in range(rng.randrange(4)):
                built[rng.randrange(N)] += 2 * rng.randrange(-3, 4)
            bases.append((built, _int_divmod(built, cyclotomic_polynomial(N))[1]))
        j = rng.randrange(d)
        for n, c in enumerate(cs):
            cases = [(base, coords, extra) for base, coords in bases
                     for extra in {0, 1 << c, (1 << c) >> 1}]
            if N > 600:
                cases = [cases[n % len(cases)]]
            for base, coords, extra in cases:
                counts = [v << c for v in base]
                scaled = [v << c for v in coords]
                counts[j] += extra
                scaled[j] += extra
                expect = self.oracle(N, scaled, c)
                assert member(counts, c) == expect, (k, h, c, extra)
                seen[expect & 1 == 1] += 1

    def test_every_conductor_to_600(self):
        import random

        rng = random.Random(2024)
        seen = {False: 0, True: 0}
        for k in range(3, 601, 2):
            for h in range((600 // k).bit_length()):
                self.check_conductor(rng, k, h, range(h + 3), seen)
        assert seen[True] > 1000 and seen[False] > 1000

    @pytest.mark.parametrize("k,h", [(2049, 1), (4095, 2), (4095, 4)],
                             ids=["N=4098", "N=16380", "N=65520"])
    def test_dense_envelope_conductors(self, k, h):
        import random

        seen = {False: 0, True: 0}
        self.check_conductor(random.Random(k << h), k, h, range(h + 3), seen)
        assert seen[True] and seen[False]

    def test_k21_where_2_does_not_generate(self):
        # ord_21(2) = 6 < phi(21) = 12: Phi_21 splits into two factors mod 2
        import random

        rng = random.Random(21)
        assert polybin._deg(polybin.factor_phi_mod2(21)[0]) == 6
        seen = {False: 0, True: 0}
        for h in range(5):
            for _ in range(10):
                self.check_conductor(rng, 21, h, range(h + 3), seen)
        assert seen[True] and seen[False]

    def test_edge_of_slot_width(self):
        # q = 40961 has u = 13, so c reaches 14 at N = 2^13 5 = 40960, the
        # deepest c of the envelope
        import random

        seen = {False: 0, True: 0}
        self.check_conductor(random.Random(5), 5, 13, [14] * 6, seen)
        assert seen[True] and seen[False]

    @pytest.mark.parametrize("k,h", [(3, 1), (7, 4), (15, 3), (2049, 1)])
    def test_zero_and_single_roots_at_every_depth(self, k, h):
        # the slot holds bit c + 1 even where the coordinates are all 0 or
        # +-1: 0 lies in every ideal, 2^c z^e and z^e do not lie in 2^c P,
        # 2^(c+1) z^e does
        import random

        rng = random.Random(k)
        N = k << h
        every = (1 << len(polybin.factor_phi_mod2(k))) - 1
        for c in range(25):
            assert member([0] * N, c) == every
            e = rng.randrange(N)
            for value, expect in [(1, 0), (1 << c, 0), (-(1 << (c + 1)), every)]:
                counts = [0] * N
                counts[e] = value
                coords = _int_divmod(counts, cyclotomic_polynomial(N))[1]
                assert self.oracle(N, coords, c) == expect
                assert member(counts, c) == expect, (N, c, value)

    def test_depth_24_at_conductor_65520(self):
        # deeper than any field reaches (c <= 14): the slots are sized from
        # c as well as from the counts, so no depth is refused
        import random

        assert member([0] * 65520, 24) == (1 << 144) - 1
        seen = {False: 0, True: 0}
        self.check_conductor(random.Random(24), 4095, 4, [24] * 4, seen)
        assert seen[True] and seen[False]

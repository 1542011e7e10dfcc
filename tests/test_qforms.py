import hashlib
import itertools
import math
import random
import signal
import sys
from fractions import Fraction

import pytest

from schur_ed import cli, covers, numth, polyq, qforms
from schur_ed.numth import factorize, is_prime, next_prime
from schur_ed.polyq import parse_poly
from schur_ed.qforms import (
    INF,
    TWO,
    BrauerClass2,
    EtaleAlgebraQ,
    Place,
    QuadFormQ,
    SquareClass,
    brauer_index,
    contains_ones,
    discriminant,
    etale_discriminant,
    hasse_invariant,
    hilbert_symbol,
    is_isometric,
    is_isotropic,
    lemma_disc_one_identity,
    quaternion_class,
    random_etale_algebra,
    signature,
    splitting_tower,
    trace_form,
    witt_index,
)

from oracles import (
    bareiss_diagonal_by_swaps,
    companion_power_traces,
    defining_polynomial,
    diagonalize_gram,
    gcd_etale_validity,
    is_irreducible_mod_p,
    orthogonal_sum,
    power_sums,
    rabin_irreducible_mod_p,
    schur_diagonalize_gram,
    squarefree_part,
    sum_three_squares_insoluble_mod8,
    sum_three_squares_soluble_mod_p,
    sylvester_discriminant,
    sylvester_resultant,
)


# ---------------------------------------------------------------------------
# numth support
# ---------------------------------------------------------------------------

def test_numth_basics():
    assert is_prime(2) and is_prime(97) and not is_prime(91)
    assert is_prime(2 ** 61 - 1)
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert squarefree_part(-108) == -3
    assert squarefree_part(4) == 1


def _sieve_flags(limit):
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit ** 0.5) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, limit, p)))
    return flags


# Carmichael numbers and strong base-2 pseudoprimes (OEIS A002997, A001262)
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
              41041, 46657, 52633, 62745, 63973, 75361, 101101, 115921,
              126217, 162401, 172081, 188461, 252601, 278545, 294409,
              314821, 334153, 340561, 399001, 410041, 449065, 488881, 512461)
STRONG_BASE_2 = (2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141,
                 52633, 65281, 74665, 80581, 85489, 88357, 90751, 104653,
                 130561, 196093, 220729, 233017, 252601, 253241, 256999,
                 271951, 280601, 314821, 357761, 390937, 458989, 476971,
                 486737)


def test_is_prime_matches_a_sieve_below_10_to_the_5():
    flags = _sieve_flags(10 ** 5)
    assert [n for n in range(10 ** 5) if is_prime(n) != flags[n]] == []


def test_is_prime_rejects_pseudoprimes():
    for n in CARMICHAEL:
        assert all(pow(a, n - 1, n) == 1 for a in range(2, 60)
                   if math.gcd(a, n) == 1), n
        assert not is_prime(n), n
    for n in STRONG_BASE_2:
        assert numth._miller_rabin(n, 2), n
        assert not is_prime(n), n
    # strong pseudoprimes to every base 2..p, with their factors: the last
    # two pass all twelve Miller-Rabin bases, so only the strong Lucas
    # check rejects them
    for factors, bases in (((151, 751, 28351), 4),
                           ((149491, 747451, 34233211), 9),
                           ((399165290221, 798330580441), 12),
                           ((1287836182261, 2575672364521), 12)):
        n = math.prod(factors)
        assert all(numth._miller_rabin(n, b) for b in numth._MR_BASES[:bases])
        assert not is_prime(n), n
        assert all(is_prime(q) for q in factors)
    assert is_prime(2 ** 89 - 1) and is_prime(2 ** 127 - 1)
    assert not is_prime((2 ** 61 - 1) * (2 ** 31 - 1))


def test_is_prime_builds_no_sieve(monkeypatch):
    monkeypatch.setattr(numth, "_SMALL_PRIMES", [])
    assert [n for n in range(100) if is_prime(n)][-3:] == [83, 89, 97]
    assert next_prime(10 ** 6) == 1000003
    assert numth._SMALL_PRIMES == []


def test_factorize_effort_cap(monkeypatch):
    p, q = next_prime(2 ** 30), next_prime(2 ** 31)
    assert factorize(p * q * 12) == {2: 2, 3: 1, p: 1, q: 1}
    monkeypatch.setattr(numth, "FACTOR_EFFORT", 1000)
    with pytest.raises(covers.SizeBoundExceeded, match="Brent-rho"):
        factorize(p * q)
    # trial division, prime and square cofactors spend no effort
    monkeypatch.setattr(numth, "FACTOR_EFFORT", 0)
    assert factorize(360 * p) == {2: 3, 3: 2, 5: 1, p: 1}
    assert factorize(q * q) == {q: 2}


def test_place_validation():
    with pytest.raises(ValueError):
        Place.finite(6)
    assert Place.finite(13).p == 13
    assert INF.is_infinite


# ---------------------------------------------------------------------------
# Hilbert symbols
# ---------------------------------------------------------------------------

def test_symbol_split_cases():
    for v in (INF, TWO, Place.finite(3), Place.finite(7)):
        for b in (2, -3, Fraction(5, 7)):
            assert hilbert_symbol(1, b, v) == 1


def test_symbol_minus_one_minus_one():
    assert hilbert_symbol(-1, -1, INF) == -1
    assert hilbert_symbol(-1, -1, TWO) == -1
    for p in (3, 5, 7, 11, 13, 17):
        assert hilbert_symbol(-1, -1, Place.finite(p)) == 1
    # local solubility witnesses computed by brute enumeration
    assert sum_three_squares_insoluble_mod8()
    for p in (3, 5, 7, 11):
        assert sum_three_squares_soluble_mod_p(p)


def test_symbol_bilinear_symmetric_hyperbolic():
    rng = random.Random(101)
    places = [INF, TWO] + [Place.finite(p) for p in (3, 5, 7, 11, 13)]
    for _ in range(1000):
        a = Fraction(rng.randint(1, 80) * rng.choice([1, -1]),
                     rng.randint(1, 12))
        b = Fraction(rng.randint(1, 80) * rng.choice([1, -1]),
                     rng.randint(1, 12))
        c = Fraction(rng.randint(1, 80) * rng.choice([1, -1]))
        v = rng.choice(places)
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        assert (hilbert_symbol(a, b * c, v)
                == hilbert_symbol(a, b, v) * hilbert_symbol(a, c, v))
        assert hilbert_symbol(a, -a, v) == 1


def test_product_formula():
    rng = random.Random(77)
    for _ in range(1000):
        a = rng.randint(1, 500) * rng.choice([1, -1])
        b = rng.randint(1, 500) * rng.choice([1, -1])
        quaternion_class(a, b)  # even-cardinality invariant checked inside


def test_brauer_class_group_law():
    c1 = quaternion_class(-1, -1)
    assert c1 == BrauerClass2([TWO, INF])
    assert (c1 + c1).is_zero()
    assert brauer_index(c1) == 2
    assert brauer_index(BrauerClass2.zero()) == 1
    with pytest.raises(ValueError):
        BrauerClass2([INF])  # odd cardinality


# ---------------------------------------------------------------------------
# form invariants
# ---------------------------------------------------------------------------

def test_hasse_examples():
    assert hasse_invariant(QuadFormQ([1, 1, 1, 1])).is_zero()
    assert hasse_invariant(QuadFormQ([-1, -1])) == BrauerClass2([TWO, INF])


def test_hasse_unaffected_by_unit_summand():
    rng = random.Random(500)
    for _ in range(500):
        dim = rng.randint(1, 6)
        diag = [Fraction(rng.randint(1, 50) * rng.choice([1, -1]),
                         rng.randint(1, 6)) for _ in range(dim)]
        q = QuadFormQ(diag)
        assert hasse_invariant(QuadFormQ([1] + diag)) == hasse_invariant(q)


def test_discriminant_examples():
    assert discriminant(QuadFormQ([2, 2])).is_one()
    assert discriminant(QuadFormQ([1, -3])) == SquareClass(-3)
    for a in (2, -5, Fraction(3, 7)):
        assert discriminant(QuadFormQ([a, a])).is_one()
    assert discriminant(QuadFormQ([1, -3])).representative == -3


def test_square_class_is_never_equal_to_zero():
    for zero in (0, Fraction(0)):
        assert not SquareClass(3) == zero
        assert SquareClass(3) != zero
    assert SquareClass(3) == 12 and SquareClass(3) != 2


def test_square_class_hash_agrees_with_equality():
    assert hash(SquareClass(2)) == hash(SquareClass(8)) == hash(SquareClass(18))
    assert hash(SquareClass(Fraction(3, 4))) == hash(SquareClass(12))
    classes = {SquareClass(k) for k in range(1, 500)}
    assert len(classes) == sum(1 for k in range(1, 500)
                               if squarefree_part(k) == k)
    assert len({SquareClass(-k) for k in (1, 4, 9)} | {SquareClass(1)}) == 2
    # classes told apart by the small primes hash apart
    small = [k for k in range(1, 48) if squarefree_part(k) == k]
    assert len({hash(SquareClass(k)) for k in small}) == len(small)


def test_square_product_equals_the_fraction_computation():
    # the product of the four integer parts against x*y as a Fraction
    def by_fractions(x, y):
        v = x * y
        return v > 0 and numth.is_perfect_square(v.numerator) \
            and numth.is_perfect_square(v.denominator)

    rng = random.Random(4096)
    kinds = set()
    for _ in range(3000):
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        t = Fraction(rng.randint(1, 30), rng.randint(1, 30)) ** 2
        # a random y, a square multiple of x, or t / x, whose product with
        # x is the square t though x = a/b, y = c/d give ac/(bd) unreduced
        partners = [Fraction(rng.randint(-40, 40), rng.randint(1, 40)), x * t]
        if x:
            partners.append(t / x)
        y = rng.choice(partners) * rng.choice([1, 1, -1])
        want = by_fractions(x, y)
        assert qforms._square_product(x, y) == want, (x, y)
        kinds.add((want, x * y < 0,
                   math.gcd(x.numerator * y.numerator,
                            x.denominator * y.denominator) > 1))
    assert len(kinds) >= 4, kinds


def test_signature():
    assert signature(QuadFormQ([1, -1, 2, -7, 5])) == (3, 2)


def test_isotropy_examples():
    assert is_isotropic(QuadFormQ([1, -1]))
    assert witt_index(QuadFormQ([1, -1])) == 1
    assert not is_isotropic(QuadFormQ([1, 1, 1, 1]))
    assert not is_isotropic(QuadFormQ([1, 1, 1, -7]))
    assert is_isotropic(QuadFormQ([1, 1, 1, -5]))
    assert witt_index(QuadFormQ([1, 1, -1, -1])) == 2
    assert witt_index(QuadFormQ([1, 1, 1, 1])) == 0


def test_isotropy_in_dimension_5_reads_the_signature_alone(monkeypatch):
    # a form of dimension >= 5 is isotropic iff it is indefinite, so the
    # 200-bit witness p * q, past factorize's effort cap, is never factored
    p, q = next_prime(2 ** 99), next_prime(2 ** 100)
    seen = _count_factorize(monkeypatch)
    assert is_isotropic(QuadFormQ([1, -1, 1, 1, p * q]))
    assert not is_isotropic(QuadFormQ([1, 2, 3, 5, p * q]))
    assert seen == []


def test_isotropy_small_search_agreement():
    # exhaustive small search as an independent oracle on dim-3 forms
    rng = random.Random(31)
    for _ in range(40):
        diag = [rng.randint(1, 10) * rng.choice([1, -1]) for _ in range(3)]
        q = QuadFormQ(diag)
        found = False
        bound = 12
        for x in range(-bound, bound + 1):
            for y in range(-bound, bound + 1):
                for z in range(-bound, bound + 1):
                    if (x, y, z) == (0, 0, 0):
                        continue
                    if diag[0] * x * x + diag[1] * y * y + diag[2] * z * z == 0:
                        found = True
        if found:
            assert is_isotropic(q), (diag, "search found a zero")
        # no assertion in the other direction: the search bound is small


def test_contains_ones():
    assert contains_ones(QuadFormQ([1, 1]), 2)
    assert not contains_ones(QuadFormQ([-1, -1]), 1)
    assert contains_ones(QuadFormQ([2, 3, 5, 30]), 0)
    with pytest.raises(ValueError):
        contains_ones(QuadFormQ([1]), 2)


def _witt_index_by_invariants(q: QuadFormQ) -> int:
    """The definitional loop: local invariants of the whole form, then one
    invariant-level split per isotropy decision, whatever the dimension."""
    inv = qforms._invariants(q)
    w = 0
    while inv.dim >= 2 and qforms._is_isotropic_inv(inv):
        inv = qforms._split_hyperbolic(inv)
        w += 1
    return w


def _random_form(rng: random.Random, dim: int) -> QuadFormQ:
    return QuadFormQ([Fraction(rng.randint(1, 60) * rng.choice([1, -1]),
                               rng.randint(1, 8)) for _ in range(dim)])


def _count_factorize(monkeypatch):
    """Route qforms.factorize through a recorder of its arguments, with an
    empty factorization memo."""
    seen = []

    def counting(n):
        seen.append(n)
        return factorize(n)

    monkeypatch.setattr(qforms, "factorize", counting)
    monkeypatch.setattr(qforms, "_factor_cache", {})
    return seen


def test_contains_ones_against_definition():
    rng = random.Random(2718)
    for _ in range(60):
        q = _random_form(rng, rng.randint(1, 10))
        for s in range(q.dim + 1):
            probe = QuadFormQ(list(q.diag) + [Fraction(-1)] * s)
            assert contains_ones(q, s) == (
                _witt_index_by_invariants(probe) >= s), (q, s)


def test_witt_index_against_definition():
    rng = random.Random(3141)
    for _ in range(150):
        q = _random_form(rng, rng.randint(1, 10))
        assert witt_index(q) == _witt_index_by_invariants(q), q


def test_contains_ones_is_signature_only_when_dim_allows(monkeypatch):
    seen = _count_factorize(monkeypatch)
    rng = random.Random(1618)
    for _ in range(200):
        q = _random_form(rng, rng.randint(3, 24))
        s = rng.randint(1, q.dim - 3) if q.dim > 3 else 0
        assert contains_ones(q, s) == (signature(q)[0] >= s)
    assert seen == []


def test_contains_ones_shortcut_equals_the_probe_form():
    # for dim q >= s + 3, pos(q) >= s against the Witt index of
    # q + s<-1>, on definite and indefinite forms
    rng = random.Random(1729)
    seen = set()
    for _ in range(300):
        dim = rng.randint(4, 24)
        sign = rng.choice([1, -1, 0])
        q = QuadFormQ([Fraction(rng.randint(1, 60) * (sign or
                                                      rng.choice([1, -1])),
                                rng.randint(1, 8)) for _ in range(dim)])
        s = rng.randint(1, dim - 3)
        probe = QuadFormQ(list(q.diag) + [Fraction(-1)] * s, q.witnesses)
        want = qforms._witt_index(probe, s) >= s
        assert contains_ones(q, s) == want, (q, s)
        seen.add((sign, want))
    assert seen == {(1, True), (-1, False), (0, True), (0, False)}


# witt_index of hand-picked forms, frozen from the implementation that
# re-factored the discriminant at every hyperbolic split
_HAND_PICKED = [
    ([1, 1, 1], 0), ([1, 1, -1], 1), ([1, 1, -7], 0), ([1, 1, -3], 0),
    ([2, 3, -5], 1), ([3, 7, -11], 0), ([Fraction(1, 3), Fraction(-5, 7), 2], 1),
    ([-1, -1, -1], 0), ([1, 1, 1, 1], 0), ([1, 1, 1, -7], 0),
    ([1, 1, 1, -5], 1), ([1, 1, -1, -1], 2), ([2, 3, -6, -1], 0),
    ([5, 7, -35, -3], 1), ([Fraction(2, 3), Fraction(-3, 2), 11, -19], 1),
    ([3, 3, -1, -1], 0), ([1, 1, 1, -1], 1), ([1, 1, 1, 1, 1], 0),
    ([1, 1, 1, 1, -1], 1), ([2, 3, 5, -7, -11], 1), ([-1, -1, -1, -1, 6], 1),
    ([1, 1, 1, -7, -7], 1), ([3, 5, 7, 11, -13, -17], 1),
    ([1, 1, 1, 1, 1, -1], 1), ([1, 1, 1, -1, -1, -1], 3),
    ([2, 2, 2, -3, -3, -3], 2),
    ([Fraction(1, 6), Fraction(-10, 21), 7, -2, -5, 3], 1),
    ([1, 1, 1, 1, -7, -7], 2), ([1, 1, 1, 1, 1, 1, -1, -1], 2),
    ([1, 1, -1, -1, 1, -7, -5], 2),
    ([4294967311, -4294967357, 1, 1, 1, -1], 2),
]


def test_witt_index_hand_picked_values():
    for diag, want in _HAND_PICKED:
        assert witt_index(QuadFormQ(diag)) == want, diag


def test_witt_index_factors_only_the_diagonal(monkeypatch):
    seen = _count_factorize(monkeypatch)
    for diag, _ in _HAND_PICKED:
        if 3 <= len(diag) <= 6:
            q = QuadFormQ(diag)
            allowed = {n for d in q.diag for n in (d.numerator, d.denominator)}
            del seen[:]
            witt_index(q)
            assert set(seen) <= allowed, (diag, seen)


def test_split_hyperbolic_gives_the_residual_invariants():
    rng = random.Random(577)
    for _ in range(200):
        rest = _random_form(rng, rng.randint(1, 6))
        split = qforms._split_hyperbolic(
            qforms._invariants(orthogonal_sum(QuadFormQ([1, -1]), rest)))
        want = qforms._invariants(rest)
        assert (split.dim, split.disc, split.hasse, split.pos, split.neg) == (
            want.dim, want.disc, want.hasse, want.pos, want.neg), rest


def test_isometry_classification():
    assert is_isometric(QuadFormQ([2, 2]), QuadFormQ([1, 1]))
    assert not is_isometric(QuadFormQ([1, 1]), QuadFormQ([1, -1]))
    # random congruence scaling by squares preserves the class
    rng = random.Random(8)
    for _ in range(50):
        diag = [Fraction(rng.randint(1, 30) * rng.choice([1, -1]))
                for _ in range(4)]
        scaled = [d * Fraction(rng.randint(1, 9)) ** 2 for d in diag]
        assert is_isometric(QuadFormQ(diag), QuadFormQ(scaled))


def test_diagonalize_gram_congruence_invariance():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 5)
        diag = [Fraction(rng.randint(1, 12) * rng.choice([1, -1]))
                for _ in range(n)]
        g = [[diag[i] if i == j else Fraction(0) for j in range(n)]
             for i in range(n)]
        # random unimodular congruence
        for _ in range(6):
            i, j = rng.sample(range(n), 2)
            c = Fraction(rng.randint(-3, 3))
            for k in range(n):
                g[i][k] += c * g[j][k]
            for k in range(n):
                g[k][i] += c * g[k][j]
        new_diag = diagonalize_gram(g)
        assert is_isometric(QuadFormQ(new_diag), QuadFormQ(diag))


def test_diagonalize_gram_rejects_singular():
    with pytest.raises(ValueError):
        diagonalize_gram([[Fraction(0), Fraction(0)],
                          [Fraction(0), Fraction(1)]])


def _congruent(g, rng, moves):
    """g after `moves` random elementary congruences (row and column)."""
    n = len(g)
    g = [row[:] for row in g]
    for _ in range(moves if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        for k in range(n):
            g[i][k] += c * g[j][k]
        for k in range(n):
            g[k][i] += c * g[k][j]
    return g


def _gram_cases():
    """Seeded (kind, matrix) pairs of dimension 1..12: definite and
    indefinite, integer and rational, folds at the start and mid-way, and
    singular."""
    rng = random.Random(1968)
    cases = []
    for n in range(1, 13):
        for _ in range(3):
            # definite (all signs equal) or indefinite, then mixed up
            sgn = rng.choice([1, -1, 0])
            diag = [rng.randint(1, 9) * (sgn or rng.choice([1, -1]))
                    for _ in range(n)]
            g = [[Fraction(diag[i] if i == j else 0) for j in range(n)]
                 for i in range(n)]
            g = _congruent(g, rng, 2 * n)
            cases.append(("integer", g))
            # rational: a diagonal congruence by 1/r_i
            r = [rng.choice([1, 2, 3, 4, 9]) for _ in range(n)]
            cases.append(("rational", [[g[i][j] / (r[i] * r[j])
                                        for j in range(n)] for i in range(n)]))
            # random symmetric with small entries, then its diagonal zeroed
            g = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    g[i][j] = g[j][i] = Fraction(rng.choice([-1, 0, 0, 1, 2]))
            cases.append(("small", g))
            cases.append(("zero diagonal", [[Fraction(0) if i == j else g[i][j]
                                             for j in range(n)]
                                            for i in range(n)]))
        if n >= 3:
            # [[1, v], [v, S + v v^T]] / den with S of zero diagonal: the
            # pivot at index 0 is taken first and leaves S / den, so the
            # fold runs mid-way
            for den in (1, 1, 5):
                v = [rng.randint(-2, 2) for _ in range(n - 1)]
                S = [[0] * (n - 1) for _ in range(n - 1)]
                for i in range(n - 1):
                    for j in range(i + 1, n - 1):
                        S[i][j] = S[j][i] = rng.randint(-3, 3)
                g = [[1] + v] + [[v[i]] + [S[i][j] + v[i] * v[j]
                                            for j in range(n - 1)]
                                 for i in range(n - 1)]
                cases.append(("mid-way fold",
                              [[Fraction(x, den) for x in row] for row in g]))
            # singular: rank n - 1 or less
            r = rng.randint(1, n - 1)
            B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
            d = [Fraction(rng.randint(1, 5) * rng.choice([1, -1]),
                          rng.randint(1, 3)) for _ in range(r)]
            cases.append(("singular",
                          [[sum(B[k][i] * d[k] * B[k][j] for k in range(r))
                            for j in range(n)] for i in range(n)]))
    return cases


def test_diagonalize_gram_matches_schur_oracle():
    raised = {}
    for kind, g in _gram_cases():
        try:
            want = schur_diagonalize_gram(g)
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{err}$"):
                diagonalize_gram(g)
            raised[kind] = raised.get(kind, 0) + 1
            continue
        assert kind != "singular"
        got = diagonalize_gram(g)
        assert got == want, (kind, g)
        assert all(type(x) is Fraction for x in got)
        if kind == "mid-way fold":
            assert want[0] == g[0][0]
    assert raised["singular"] == 10


def _hankel_cases():
    """(matrix, den) pairs as `trace_form` builds them: the power-sum Hankel
    matrices of seeded monic polynomials of degree 2..12, of int
    coefficients (den = 1) and of rational ones (scaled by den)."""
    rng = random.Random(1968)
    cases = []
    for d in range(2, 13):
        for _ in range(12):
            F = [rng.randint(-5, 5) for _ in range(d)] + [1]
            sums = polyq._power_sums(F, d, 2 * d - 1)
            cases.append(([sums[i:i + d] for i in range(d)], 1))
            den = rng.choice([2, 3, 6])
            g = [c * den ** (d - 1 - i) for i, c in enumerate(F[:-1])] + [1]
            sums = [x * den ** (2 * d - 2 - k) for k, x in
                    enumerate(polyq._power_sums(g, d, 2 * d - 1))]
            cases.append(([sums[i:i + d] for i in range(d)],
                          den ** (2 * d - 2)))
    return cases


def _tied_cases():
    """Integer matrices whose pivot costs tie, at the first step or after
    the pivot left the middle of the elimination order."""
    rng = random.Random(1969)
    cases = [[[5, 0, 0, 0], [0, 7, 0, 0], [0, 0, 1, 0], [0, 0, 0, 6]]]
    for n in range(2, 9):
        for _ in range(10):
            # 2, 3, -2 and -3 all cost 2 + 1 bits against den = 1
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                m[i][i] = rng.choice([2, 3, -2, -3])
                for j in range(i + 1, n):
                    m[i][j] = m[j][i] = rng.choice([0, 0, 1, -1])
            cases.append(m)
    return cases


def test_bareiss_matches_the_swapping_elimination():
    hankel, tied = _hankel_cases(), _tied_cases()
    zero = [[[0, 1], [1, 0]], [[0, 2, 1], [2, 0, 3], [1, 3, 0]],
            [[0, 0, 1], [0, 0, 0], [1, 0, 0]]]
    cases = hankel + [(m, 1) for m in tied + zero] + [(m, 5) for m in tied]
    singular = 0
    for m, den in cases:
        try:
            want = bareiss_diagonal_by_swaps([row[:] for row in m], den)
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{err}$"):
                qforms._bareiss_diagonal([row[:] for row in m], den)
            singular += 1
            continue
        got = qforms._bareiss_diagonal([row[:] for row in m], den)
        assert got == want, (m, den)
    # the seeded polynomials include squareful ones, and the last zero
    # diagonal case is singular
    assert 0 < singular < len(hankel) // 10
    # after the pivot 1 leaves slot 2, index 0 takes its place, behind
    # index 1: 7 comes before 5 and 6, which then tie again
    assert qforms._bareiss_diagonal(tied[0], 1) == [1, 7, 5, 6]


# ---------------------------------------------------------------------------
# trace forms
# ---------------------------------------------------------------------------

def test_parse_poly_reads_a_term_after_the_first_only_with_its_sign():
    F = Fraction
    assert parse_poly("2 x^2 - 1") == polyq.poly([-1, 0, 2])
    assert parse_poly("3x^2") == polyq.poly([0, 0, 3])
    assert parse_poly("x^2/3 + 1/2") == polyq.poly([F(1, 2), 0, F(1, 3)])
    for text in ("x^2 - 2 3", "x^3 2", "x x"):
        with pytest.raises(ValueError, match="joined by"):
            parse_poly(text)


def test_power_sums_against_companion_oracle():
    texts = ["x^2 - 1", "x^2 - 7", "x^3 - 2", "x^4 + x - 3",
             "x^2 - 1/2", "x^3 + x/3 - 7/5", "x^5 - 2/3*x^2 + x - 1/7",
             "x^12 - 3*x^7 + 5*x^2 - x + 2", "x^12 + x^11/2 - 4*x^3 + 1/3"]
    rng = random.Random(12)
    for _ in range(3):
        texts.append(polyq.format_poly(polyq.poly(
            [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7, 12]))
             for _ in range(12)] + [1])))
    for text in texts:
        f = parse_poly(text)
        d = len(f) - 1
        want = companion_power_traces(f, 2 * d)
        got = power_sums(f, 2 * d)
        assert got == want, text
        # ints for an integral f (the trace form's integer Hankel matrix)
        kind = int if all(c.denominator == 1 for c in f) else Fraction
        assert all(type(x) is kind for x in got), text
        # the integer road of trace_form: g = den^(d-1) f(x/den) is monic
        # integral with roots den*alpha, so p_k(g) = den^k p_k(f)
        F, den = polyq._integral(f)
        g = [c * den ** (d - 1 - i) for i, c in enumerate(F[:-1])] + [1]
        sums = polyq._power_sums(g, d, 2 * d)
        assert all(type(x) is int for x in sums), text
        assert [Fraction(p, den ** k) for k, p in enumerate(sums)] == want, \
            text


def _resultant_pairs():
    """Seeded (f, g) pairs for the resultant: integral and rational,
    monic and not, every degree from 0 to 9, the zero polynomial, and pairs
    with a shared factor."""
    rng = random.Random(1997)

    def draw(d, rational):
        while True:
            cs = [Fraction(rng.randint(-6, 6),
                           rng.choice([1, 2, 3, 5]) if rational else 1)
                  for _ in range(d + 1)]
            if cs[-1]:
                return polyq.poly(cs)

    P = parse_poly
    pairs = [((), P("x^2 + 1")), (P("x^3 - 2"), ()), ((), ()),
             (P("3"), P("x^2 - 5")), (P("x - 1/2"), P("-4")),
             (P("7/3"), P("2/5")), (P("x^2 - 1"), P("x - 1")),
             (P("2x^2 + 3x"), P("x^3"))]
    for _ in range(160):
        rational = rng.random() < 0.5
        f = draw(rng.randint(0, 9), rational)
        g = draw(rng.randint(0, 9), rational)
        if rng.random() < 0.2:
            h = draw(rng.randint(1, 3), rational)
            f, g = polyq.mul(f, h), polyq.mul(g, h)
        pairs.append((f, g))
    return pairs


def test_resultant_matches_sylvester_oracle():
    zeros = 0
    for f, g in _resultant_pairs():
        want = sylvester_resultant(f, g)
        assert polyq.resultant(f, g) == want, (f, g)
        # res(g, f) = (-1)^(mn) res(f, g)
        m, n = len(f) - 1, len(g) - 1
        assert polyq.resultant(g, f) == (-1) ** (m * n % 2) * want, (f, g)
        assert type(polyq.resultant(f, g)) is Fraction
        zeros += want == 0
    assert zeros >= 30


def test_discriminant_matches_sylvester_oracle():
    seen_zero = False
    for f, g in _resultant_pairs():
        for h in (f, g, polyq.mul(f, g)):
            if len(h) < 2:
                with pytest.raises(ValueError):
                    polyq.discriminant(h)
                continue
            want = sylvester_discriminant(h)
            assert polyq.discriminant(h) == want, h
            seen_zero = seen_zero or want == 0
    assert seen_zero


def _linear_resultant_pairs():
    """Seeded (f, g) pairs with a linear side: monic x + a with a integral
    or rational, and non-monic ones, against g of every degree 1..9 (odd
    and even, for the sign (-1)^(mn)), with a shared linear factor in a
    quarter of them."""
    rng = random.Random(2718)
    pairs = []
    for _ in range(240):
        a = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7]))
        lead = rng.choice([1, 1, 1, -1, 2, Fraction(3, 5)])
        f = polyq.poly([lead * a, lead])
        n = rng.randint(1, 9)
        g = polyq.poly([Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 5]))
                        for _ in range(n)] + [rng.choice([1, -2, 3])])
        if rng.random() < 0.25:
            g = polyq.mul(polyq.poly([a, 1]), g[1:] or polyq.poly([1]))
        pairs.append((f, g))
    return pairs


def test_resultant_with_a_linear_side_matches_sylvester_oracle():
    seen = set()
    for f, g in _linear_resultant_pairs():
        want = sylvester_resultant(f, g)
        m, n = len(f) - 1, len(g) - 1
        assert polyq.resultant(f, g) == want, (f, g)
        assert polyq.resultant(g, f) == (-1) ** (m * n % 2) * want, (f, g)
        seen.add((f[-1] == 1, all(c.denominator == 1 for c in f), n % 2,
                  want == 0))
    # monic and not, integral and rational constants, odd and even degree
    # on the other side, coprime and not
    assert {(a, b, c) for a, b, c, _ in seen} >= {
        (True, True, 0), (True, True, 1), (True, False, 0), (True, False, 1),
        (False, False, 0), (False, False, 1)}
    assert {z for *_, z in seen} == {True, False}


def test_resultant_with_a_monic_quadratic_side_matches_the_prs():
    # the closed form v^2 - puv + qu^2 against the subresultant PRS, with
    # the quadratic first and second, on seeded integer pairs: other sides
    # of degree 2..9, monic and not; a third of them equal to the quadratic
    # and a third a multiple of it (resultant 0)
    rng = random.Random(3511)
    zeros = 0
    for k in range(300):
        a = [rng.randint(-9, 9), rng.randint(-9, 9), 1]
        g = [rng.randint(-6, 6) for _ in range(rng.randint(2, 9))]
        g.append(rng.choice([1, 1, -1, 2, -3, 5]))
        if k % 3 == 1:
            g = list(a)
        elif k % 3 == 2:
            h = g[:rng.randint(1, len(g))] + [1]
            g = [int(c) for c in polyq.mul(a, h)]
        want = polyq._subresultant(a, g)
        assert polyq._monic_quadratic_resultant(a, g) == want, (a, g)
        assert polyq._int_resultant(a, g) == want, (a, g)
        assert polyq._int_resultant(g, a) == polyq._subresultant(g, a) \
            == want, (a, g)
        zeros += want == 0
    assert zeros >= 200


def test_closed_form_discriminants_match_sylvester_oracle():
    rng = random.Random(4096)
    zeros = {2: 0, 3: 0, 4: 0}
    for _ in range(600):
        d = rng.choice([2, 3, 4])
        if rng.random() < 0.3:
            # a repeated root: disc = 0
            r = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
            rest = polyq.poly([rng.randint(-5, 5) for _ in range(d - 1)]
                              + [rng.choice([1, -3, 4])])
            f = polyq.mul(polyq.mul(polyq.poly([-r, 1]), polyq.poly([-r, 1])),
                          rest)
        else:
            f = polyq.poly([Fraction(rng.randint(-12, 12),
                                     rng.choice([1, 1, 3])) for _ in range(d)]
                           + [rng.choice([-5, -1, 2, 3, 7])])
        want = sylvester_discriminant(f)
        assert polyq.discriminant(f) == want, f
        F, den = polyq._integral(f)
        assert polyq._int_discriminant(tuple(F)) == sylvester_discriminant(F)
        zeros[d] += want == 0
    assert all(zeros.values())


def _gram_path_trace_form(E):
    """The trace form with every factor's Gram matrix built and
    diagonalized, linear factors included."""
    diag, witnesses = [], []
    for f in E.factors:
        d = len(f) - 1
        sums = power_sums(f, 2 * d - 1)
        diag += diagonalize_gram([sums[i:i + d] for i in range(d)])
        disc = polyq.discriminant(f)
        witnesses += [disc.numerator, disc.denominator,
                      math.lcm(*[c.denominator for c in f])]
    return diag, witnesses


def test_trace_form_with_linear_factors_matches_the_gram_path():
    P = parse_poly
    rng = random.Random(77)
    algebras = [(P("x + 3"), P("x^2 - 2")), (P("x - 1/2"), P("x")),
                (P("x^3 - 2"), P("x + 1/3"), P("x - 5"))]
    for _ in range(60):
        factors = []
        for _ in range(rng.randint(1, 4)):
            d = rng.choice([1, 1, 2, 3, 5])
            den = rng.choice([1, 1, 1] + list(range(2, 13)))
            factors.append(polyq.poly([Fraction(rng.randint(-9, 9), den)
                                       for _ in range(d)] + [1]))
        algebras.append(tuple(factors))
    # drawn factors are int tuples; the Gram path runs on them as they are
    drawn = [random_etale_algebra(n, rng).factors
             for n in range(1, 13) for _ in range(2)]
    assert all(type(c) is int for factors in drawn for f in factors for c in f)
    algebras += drawn
    kept = 0
    for factors in algebras:
        try:
            E = EtaleAlgebraQ(factors)
        except ValueError:
            continue
        kept += 1
        q = trace_form(E)
        diag, witnesses = _gram_path_trace_form(E)
        assert q.diag == tuple(diag), factors
        assert all(type(x) is Fraction for x in q.diag)
        assert q.witnesses == tuple(witnesses), factors
        # a drawn factor keeps its ints; its algebra is the Fraction one
        twin = EtaleAlgebraQ(tuple(polyq.poly(f) for f in factors))
        assert E == twin and hash(E) == hash(twin) and repr(E) == repr(twin)
        assert trace_form(twin).diag == q.diag
    assert kept >= 75


def test_trace_form_examples():
    q = trace_form(EtaleAlgebraQ.from_polynomial(parse_poly("x^2 - 1")))
    assert q.diag == (Fraction(2), Fraction(2))
    assert is_isometric(q, QuadFormQ([1, 1]))
    from schur_ed.polyq import poly

    for d in (2, 5, -3):
        q = trace_form(EtaleAlgebraQ.from_polynomial(poly([-d, 0, 1])))
        assert is_isometric(q, QuadFormQ([2, 2 * d]))
    q3 = trace_form(EtaleAlgebraQ.from_polynomial(parse_poly("x^3 - 2")))
    assert is_isometric(q3, QuadFormQ([3, 12, -3]))


def test_trace_form_rejects_non_squarefree():
    with pytest.raises(ValueError):
        EtaleAlgebraQ.from_polynomial(parse_poly("x^2 - 2x + 1"))


def test_etale_disc_examples():
    E = EtaleAlgebraQ.from_polynomial(parse_poly("x^2 - 7"))
    assert etale_discriminant(E).representative == 7
    E = EtaleAlgebraQ.from_polynomial(parse_poly("x^2 - 1"))
    assert etale_discriminant(E).is_one()
    E = EtaleAlgebraQ.from_polynomial(parse_poly("x^3 - 2"))
    assert etale_discriminant(E).representative == -3


def test_etale_disc_with_cross_terms():
    f = parse_poly("x^2 - 2")
    g = parse_poly("x^2 - 3")
    E = EtaleAlgebraQ((f, g))
    # disc = 8 * 12 * Res(f,g)^2; squarefree part 6
    assert etale_discriminant(E).representative == 6
    assert discriminant(trace_form(E)) == etale_discriminant(E)


def test_etale_rejects_common_factor():
    with pytest.raises(ValueError):
        EtaleAlgebraQ((parse_poly("x^2 - 1"), parse_poly("x - 1")))


def _validity(factors):
    """'ok' or the ValueError message of EtaleAlgebraQ and of the gcd
    oracle; asserts that the two agree."""
    try:
        gcd_etale_validity(factors)
        want = "ok"
    except ValueError as err:
        want = str(err)
    try:
        E = EtaleAlgebraQ(factors)
        got = "ok"
    except ValueError as err:
        got = str(err)
    assert got == want, factors
    if got == "ok":
        # the kept product is the discriminant of the defining polynomial
        recomputed = polyq.discriminant(defining_polynomial(E))
        assert E.disc == recomputed
        assert etale_discriminant(E) == SquareClass(recomputed)
    return got


def test_etale_validity_matches_gcd_oracle():
    P = parse_poly
    named = {
        (P("x^2 - 2x + 1"),): "factor x^2 - 2*x + 1 is not squarefree",
        (P("x^2 - 1"), P("x - 1")): "factors must be pairwise coprime",
        (P("x^2 - 2"), P("x^2 - 2")): "factors must be pairwise coprime",
        (P("x - 3"), P("x^3 - 2"), P("x - 3")):
            "factors must be pairwise coprime",
        (P("x^2 - 1/4"), P("x - 1/2")): "factors must be pairwise coprime",
        (P("x^2 - x + 1/4"),): "factor x^2 - x + 1/4 is not squarefree",
        (P("x^2 - 1/4"), P("x^3 + x/3 - 7/5")): "ok",
        (P("x^2 - 2"), P("2x^2 + 1")):
            "factors must be monic of positive degree",
        (P("x^4 - 2*x^2 + 1"), P("2x + 1")):
            "factor x^4 - 2*x^2 + 1 is not squarefree",
        (polyq.poly([1]),): "factors must be monic of positive degree",
        (): "need at least one factor",
        (P("x"), P("x - 1"), P("x + 1")): "ok",
    }
    for factors, message in named.items():
        assert _validity(factors) == message
        # a factor of int coefficients, as a drawn one is, is validated in
        # ints; the messages are the same
        if all(c.denominator == 1 for f in factors for c in f):
            ints = tuple(tuple(int(c) for c in f) for f in factors)
            assert _validity(ints) == message, ints
    # seeded draws: small random monic factors, products of them (repeated
    # roots) and repeats of a factor (common factors)
    rng = random.Random(31)
    outcomes = set()
    for _ in range(300):
        pool = [polyq.poly([Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
                            for _ in range(rng.randint(1, 3))] + [1])
                for _ in range(3)]
        factors = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            factors[0] = polyq.mul(factors[0], rng.choice(pool))
        outcomes.add(_validity(tuple(factors)).split()[-1])
    assert outcomes == {"ok", "coprime", "squarefree"}
    for n in (4, 9, 12):
        for _ in range(5):
            assert _validity(random_etale_algebra(n, rng).factors) == "ok"


def _rational_etale(rng: random.Random) -> EtaleAlgebraQ:
    """A seeded etale algebra of one to three monic factors of degree 1..6
    with rational coefficients."""
    while True:
        factors = []
        for _ in range(rng.choice([1, 1, 2, 3])):
            d = rng.randint(1, 6)
            factors.append(polyq.poly(
                [Fraction(rng.randint(-9, 9),
                          rng.choice([1, 2, 3, 4, 6, 9, 12]))
                 for _ in range(d)] + [1]))
        try:
            return EtaleAlgebraQ(tuple(factors))
        except ValueError:
            continue


def _certified_and_oracle_forms():
    """(trace_form(E), the same diagonal with the default witnesses) for
    seeded integral algebras of degree 4..12 and rational ones."""
    for n in range(4, 13):
        for s in range(6):
            E = random_etale_algebra(n, random.Random(1000 * n + s))
            q = trace_form(E)
            yield q, QuadFormQ(q.diag)
    rng = random.Random(60)
    for _ in range(60):
        q = trace_form(_rational_etale(rng))
        yield q, QuadFormQ(q.diag)


def test_trace_form_places_agree_with_the_entry_factored_oracle():
    # the witnesses of a trace form are the factors' discriminants and
    # denominators; the oracle factors every diagonal entry instead, and on
    # 88 of these 114 forms it evaluates more places
    narrower = 0
    for q, oracle in _certified_and_oracle_forms():
        assert q.witnesses != oracle.witnesses
        try:
            want = (oracle.hasse, witt_index(oracle), is_isotropic(oracle),
                    oracle.to_json())
        except covers.SizeBoundExceeded:
            continue
        got = (q.hasse, witt_index(q), is_isotropic(q), q.to_json())
        assert got == want, q
        narrower += q.places < oracle.places
    assert narrower >= 80


def test_trace_check_batch_factors_nothing(monkeypatch):
    seen = _count_factorize(monkeypatch)
    rng = random.Random(4242)
    for n in range(4, 25):
        for _ in range(3):
            E = random_etale_algebra(n, rng)
            q = trace_form(E)
            assert contains_ones(q, n.bit_count())
            assert discriminant(q) == etale_discriminant(E)
    assert seen == []


def test_trace_form_invariants_factor_only_the_witnesses(monkeypatch):
    seen = _count_factorize(monkeypatch)
    rng = random.Random(5)
    for n in (4, 6, 8, 10, 12):
        E = random_etale_algebra(n, rng)
        f = defining_polynomial(E)
        witnesses = set(trace_form(EtaleAlgebraQ.from_polynomial(f)).witnesses)
        del seen[:]
        assert cli.main(["trace-form", polyq.format_poly(f)]) == 0
        assert seen and set(seen) <= witnesses, (n, seen)


def test_random_etale_disc_and_subform():
    rng = random.Random(6)
    for n in (4, 6, 9, 12):
        s = n.bit_count()
        for _ in range(25):
            E = random_etale_algebra(n, rng)
            assert E.dim == n
            q = trace_form(E)
            assert discriminant(q) == etale_discriminant(E)
            assert contains_ones(q, s)


# sha256 of the draws of random_etale_algebra(n, Random(seed)), five per n
# for n = 4..12 and seeds 0, 1, 2, 4242 (one line of factors per draw), and
# of their trace-form diagonals and kept discriminants; recorded while the
# certificates, resultants and Gram elimination ran on Fractions
DRAWS_SHA256 = \
    "7d2674bddb25a425c4251d027cd02bae20a130ce94c9f5ebd04ea034d16d039f"
FORMS_SHA256 = \
    "3c45e4e12d061b565181b9c1c909b7765d6602144f7ce143cc4981165978fa73"


def test_random_etale_draw_stream_is_pinned():
    draws, forms = hashlib.sha256(), hashlib.sha256()
    for seed in (0, 1, 2, 4242):
        rng = random.Random(seed)
        for n in range(4, 13):
            for _ in range(5):
                E = random_etale_algebra(n, rng)
                draws.update((";".join(",".join(str(c) for c in f)
                                       for f in E.factors) + "\n").encode())
                q = trace_form(E)
                forms.update((",".join(str(x) for x in q.diag)
                              + f"|{E.disc}\n").encode())
    assert draws.hexdigest() == DRAWS_SHA256
    assert forms.hexdigest() == FORMS_SHA256


@pytest.mark.parametrize("n", [0, -1])
def test_random_etale_algebra_refuses_dimension_below_one(n):
    # the alarm turns a draw loop that never returns into a failure
    def hang(signum, frame):
        raise TimeoutError(f"random_etale_algebra({n}) did not return")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError):
            random_etale_algebra(n, random.Random(0))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_random_etale_draws_match_rabin_certificates(monkeypatch):
    def draws():
        out = []
        for seed in (0, 1, 2, 4242):
            rng = random.Random(seed)
            out.extend(random_etale_algebra(n, rng).factors
                       for n in (4, 5, 8, 12) for _ in range(5))
        return out

    fast = draws()
    calls = []

    def rabin(f):
        calls.append(f)
        f = polyq.poly(f)
        return any(rabin_irreducible_mod_p(f, p) for p in polyq._CERT_PRIMES)

    # the whole certificate, parity sieve and root scan included, replaced
    # by Rabin's test at the same primes
    monkeypatch.setattr(polyq, "certify_irreducible", rabin)
    assert draws() == fast
    assert calls


# ---------------------------------------------------------------------------
# irreducibility mod p: Berlekamp against Rabin
# ---------------------------------------------------------------------------

def _check_against_rabin(f):
    rabin = [rabin_irreducible_mod_p(f, p) for p in polyq._CERT_PRIMES]
    for p, want in zip(polyq._CERT_PRIMES, rabin):
        assert is_irreducible_mod_p(f, p) == want, (f, p)
    assert polyq.certify_irreducible(f) == any(rabin), f


def test_root_first_exit_keeps_every_verdict():
    # every monic polynomial of degree 2..5 with coefficients in -3..3: the
    # verdict with the exit on a root in {0, +-1, +-2} is that of the plain
    # loop over the primes
    exits = 0
    for d in range(2, 6):
        for coeffs in itertools.product(range(-3, 4), repeat=d):
            F = coeffs + (1,)
            disc = polyq._int_discriminant(F)
            plain = any(polyq._irreducible_mod_p(F, p, disc)
                        for p in polyq._CERT_PRIMES)
            assert polyq.certify_irreducible(F) == plain, F
            exits += d >= 3 and polyq._has_small_root(F)
    assert exits > 5000


def test_berlekamp_matches_rabin_small_exhaustive():
    for d in (2, 3, 4):
        for coeffs in itertools.product(range(-3, 4), repeat=d):
            f = polyq.poly(list(coeffs) + [1])
            _check_against_rabin(f)


def test_parity_sieve_matches_rabin_at_degrees_5_and_6():
    # degree 5 is the largest that the parity sieve and the root scan
    # settle alone; at degree 6 a product of three quadratics has the
    # parity of an irreducible sextic and only Berlekamp tells them apart
    rng = random.Random(1962)
    for d in (5, 6):
        for _ in range(150):
            lead = rng.choice([1, 1, 1, 2, 3])
            f = polyq.poly([rng.randint(-9, 9) for _ in range(d)] + [lead])
            _check_against_rabin(f)


def test_berlekamp_matches_rabin_random():
    rng = random.Random(1967)
    degrees = [d for d in range(5, 13) for _ in range(8)] + [16, 20, 24]
    for d in degrees:
        coeffs = [Fraction(rng.randint(-20, 20)) for _ in range(d)]
        if rng.random() < 0.25:
            coeffs[rng.randrange(d)] = Fraction(rng.randint(-9, 9),
                                                rng.choice([2, 3, 5, 7]))
        _check_against_rabin(polyq.poly(coeffs + [1]))


@pytest.mark.parametrize("p", polyq._CERT_PRIMES + (73,))
def test_residue_columns_hold_the_powers_slot_by_slot(p, monkeypatch):
    # read with shifts, not with polyq's unpacking: slot r of column k is
    # r^k mod p.  From p = 73 on, a slot of a 13-column table is 64 bits
    # wide.  The table is built 4 columns wide first and then widened: from
    # its last column, or afresh at p = 73, whose 4 columns fit 16 bits
    monkeypatch.setattr(polyq, "_RESIDUE_POWERS", {})
    assert polyq._residue_powers(p, 4)[:2] == (4, "H")
    width, fmt, cols = polyq._residue_powers(p, 13)
    bits = 64 if p == 73 else 16
    assert width == 13 == len(cols) and fmt == ("Q" if bits == 64 else "H")
    for k, col in enumerate(cols):
        assert col < 1 << bits * p
        for r in range(p):
            slot = r if sys.byteorder == "little" else p - 1 - r
            assert col >> bits * slot & (1 << bits) - 1 == pow(r, k, p), \
                (p, k, r)


def test_packed_berlekamp_rows_match_rabin(monkeypatch):
    # degrees 6..12 reach the Berlekamp stage when the parity and the root
    # scan do not decide.  Its packed rows have 16-bit slots at the
    # certificate primes and 64-bit slots once d (p-1)^2 >= 2^16, as at
    # p = 101 from degree 7 on and at p = 257
    reached = []
    independent = polyq._gf_independent

    def counting(rows, p):
        reached.append(polyq._slot_format(len(rows[0]) * (p - 1) ** 2))
        return independent(rows, p)

    monkeypatch.setattr(polyq, "_gf_independent", counting)
    rng = random.Random(1967)
    for p in (3, 13, 47, 101, 257):
        for _ in range(40):
            d = rng.randint(6, 12)
            if rng.random() < 0.5:
                f = polyq.poly([rng.randint(-p, p) for _ in range(d)] + [1])
            else:
                # a product of irreducible quadratics and cubics mod p has
                # no root, so only Berlekamp tells it apart
                f = polyq.poly([1])
                while polyq.degree(f) < d - 1:
                    g = polyq.poly([rng.randrange(p)
                                    for _ in range(rng.choice([2, 3]))] + [1])
                    if rabin_irreducible_mod_p(g, p):
                        f = polyq.mul(f, g)
            assert is_irreducible_mod_p(f, p) == \
                rabin_irreducible_mod_p(f, p), (f, p)
    assert set(reached) == {"H", "Q"}


def test_root_scan_matches_rabin_past_16_bit_slots():
    # from p = 73 on (at p = 47 from degree 30 on) a residue's slot in the
    # packed evaluation is 64 bits wide; products with two linear factors
    # have the parity of an irreducible quartic or quintic, so only the
    # root scan rules them out
    rng = random.Random(5381)
    for p in (73, 101, 257, 1009):
        assert polyq._residue_powers(p, 13)[1] == "Q"
        for _ in range(30):
            d = rng.randint(3, 7)
            f = polyq.poly([rng.randint(-p, p) for _ in range(d)] + [1])
            assert is_irreducible_mod_p(f, p) == \
                rabin_irreducible_mod_p(f, p), (f, p)
            r, s = rng.randrange(p), rng.randrange(p)
            g = polyq.mul(polyq.mul(polyq.poly([-r, 1]), polyq.poly([-s, 1])),
                          polyq.poly([rng.randint(-9, 9) for _ in range(d - 2)]
                                     + [1]))
            assert not is_irreducible_mod_p(g, p), (g, p)
    assert polyq._residue_powers(47, 31)[1] == "Q"


def test_berlekamp_known_factorizations():
    # x^2 + 1 splits mod p = 1 mod 4 and stays irreducible mod p = 3 mod 4
    f = parse_poly("x^2 + 1")
    assert [p for p in (3, 5, 7, 11, 13) if is_irreducible_mod_p(f, p)] \
        == [3, 7, 11]
    # x^4 + 1 is irreducible over Q but reducible mod every prime
    g = parse_poly("x^4 + 1")
    assert not any(is_irreducible_mod_p(g, p) for p in polyq._CERT_PRIMES)
    assert not polyq.certify_irreducible(g)
    # degree drop and a vanishing denominator are rejected
    assert not is_irreducible_mod_p(polyq.poly([1, 0, 3]), 3)
    assert not is_irreducible_mod_p(
        polyq.poly([Fraction(1, 5), 0, 1]), 5)
    assert not is_irreducible_mod_p(parse_poly("x^2 - 2x + 1"), 7)
    # the parity sieve has no Legendre symbol at 2
    with pytest.raises(ValueError):
        is_irreducible_mod_p(f, 2)


# ---------------------------------------------------------------------------
# splitting towers and the disc-1 identity
# ---------------------------------------------------------------------------

def _squarefree(n: int) -> int:
    return abs(squarefree_part(n))


def _splits_every_pair(q, rep):
    """Is each pair's -a/b, up to sign and squares, a product of the
    adjoined classes?  Then, with sqrt(-1) in the base, every pair <a, b>
    becomes <1, 1> over the tower."""
    reachable = {1}
    for t in rep.adjoined:
        c = _squarefree(t.numerator * t.denominator)
        reachable |= {_squarefree(r * c) for r in reachable}
    return all(_squarefree((-a / b).numerator * (-a / b).denominator)
               in reachable for a, b in zip(q.diag[::2], q.diag[1::2]))


def test_splitting_tower_split_form():
    q = QuadFormQ([1, 1])
    rep = splitting_tower(q)
    assert rep.adjoined == [] and rep.degree == 1
    assert _splits_every_pair(q, rep)
    assert rep.residual is None


def test_splitting_tower_generic_pair():
    q = QuadFormQ([3, 5])
    rep = splitting_tower(q)
    assert rep.degree == 2 and _splits_every_pair(q, rep)
    assert rep.adjoined == [Fraction(-3, 5)]
    # the check can fail: with nothing adjoined the pair stays unsplit
    assert not _splits_every_pair(q, qforms.TowerReport([], None, 1))


def test_splitting_tower_dim5():
    q = QuadFormQ([2, 3, 5, 7, 11])
    rep = splitting_tower(q)
    assert rep.degree == 4
    assert rep.residual == Fraction(11)
    assert _splits_every_pair(q, rep)
    assert len(rep.adjoined) == 2


def test_splitting_tower_redundant_adjunction():
    # second pair needs the same class as the first: degree stays 2
    q = QuadFormQ([3, 5, 15, 1])
    rep = splitting_tower(q)
    assert _splits_every_pair(q, rep)
    assert rep.degree == 2


def test_tower_degree_bounds_index():
    rng = random.Random(14)
    for _ in range(60):
        dim = rng.randint(1, 7)
        q = QuadFormQ([Fraction(rng.randint(1, 30) * rng.choice([1, -1]))
                       for _ in range(dim)])
        rep = splitting_tower(q)
        assert _splits_every_pair(q, rep)
        assert rep.degree == 2 ** len(rep.adjoined) <= 2 ** (dim // 2)
        assert brauer_index(hasse_invariant(q)) <= max(2, rep.degree) or \
            rep.degree == 1


def test_index_bound_definite_form():
    c = hasse_invariant(QuadFormQ([-1, -1, -1, -1]))
    assert brauer_index(c) <= 2 <= 2 ** (4 // 2)


def test_lemma_identity_examples():
    assert lemma_disc_one_identity(QuadFormQ([2, 2]))
    # <1> + q' with disc q' = 1 reduces to the unit-summand identity
    assert lemma_disc_one_identity(QuadFormQ([1, 3, 3]))
    with pytest.raises(ValueError):
        lemma_disc_one_identity(QuadFormQ([1, 2]))


def test_lemma_identity_random():
    rng = random.Random(15)
    for _ in range(200):
        dim = rng.randint(2, 8)
        entries = [Fraction(rng.randint(1, 40) * rng.choice([1, -1]))
                   for _ in range(dim - 1)]
        prod = Fraction(1)
        for e in entries:
            prod *= e
        entries.append(1 / prod)
        q = QuadFormQ(entries)
        assert discriminant(q).is_one()
        assert lemma_disc_one_identity(q)


def test_quadform_parse_and_json():
    q = QuadFormQ.parse("1,-1,2/3")
    assert q.diag == (Fraction(1), Fraction(-1), Fraction(2, 3))
    data = q.to_json()
    assert data["dim"] == 3 and data["witt_index"] == 1

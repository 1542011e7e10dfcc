import random
from fractions import Fraction
from math import gcd

import pytest

from schur_ed import clifford
from schur_ed.clifford import (
    _pair_product,
    basic_spin_matrices,
    spin_representation,
    verify_spin_representation,
)
from schur_ed.covers import VerificationError
from schur_ed.radicals import SqrtNum, smat_mul

import oracles
from oracles import (
    FractionSqrtNum,
    dense_spin_generators,
    dense_spin_relations,
    kronecker_gamma_matrices,
    matrix_parts,
    slow_multivector_mul,
    smat_add,
    smat_eq,
    smat_identity,
    smat_neg,
    smat_pow,
    smat_scale,
)


# ---------------------------------------------------------------------------
# the product of two vectors
# ---------------------------------------------------------------------------

def pair_product_by_oracle(u, v, sign):
    """(B, w == 0) for uv = B + w, with u, v {generator index: Fraction},
    read off the term-by-term product of slow_multivector_mul."""
    uv = slow_multivector_mul({(j + 1,): c for j, c in u.items()},
                              {(j + 1,): c for j, c in v.items()}, sign)
    assert all(len(key) in (0, 2) for key in uv)
    return uv.get((), Fraction(0)), all(len(key) != 2 for key in uv)


@pytest.mark.parametrize("sign", [1, -1])
def test_generator_square_and_anticommutation(sign):
    one = SqrtNum.rational(1)
    e1, e2 = {0: one}, {1: one}
    assert _pair_product(e1, e1, sign) == (SqrtNum.rational(sign), True)
    assert _pair_product(e1, e2, sign) == (SqrtNum(), False)
    assert _pair_product(e2, e1, sign) == (SqrtNum(), False)


@pytest.mark.parametrize("sign", [1, -1])
def test_lift_square_matches_presentation(sign):
    # the unit vector (e1 - e2)/sqrt(2) squares to sign: s_1^2 = 1, t_1^2 = z
    c = SqrtNum.root(2, Fraction(1, 2))
    v = {0: c, 1: -c}
    assert _pair_product(v, v, sign) == (SqrtNum.rational(sign), True)


def test_pair_product_against_term_oracle_random():
    # random vector pairs over shared, disjoint and nested supports, with
    # parallel pairs (w = 0) drawn on purpose
    rng = random.Random(3)
    seen = set()
    for _ in range(400):
        sign = rng.choice((1, -1))
        u = {j: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             for j in rng.sample(range(6), rng.randint(1, 4))}
        if rng.random() < 0.3:
            scale = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            v = {j: scale * c for j, c in u.items()}
        else:
            v = {j: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for j in rng.sample(range(6), rng.randint(1, 4))}
        u = {j: c for j, c in u.items() if c}
        v = {j: c for j, c in v.items() if c}
        b, w_is_zero = pair_product_by_oracle(u, v, sign)
        got = _pair_product({j: SqrtNum.rational(c) for j, c in u.items()},
                            {j: SqrtNum.rational(c) for j, c in v.items()},
                            sign)
        assert got == (SqrtNum.rational(b), w_is_zero), (u, v)
        seen.add((sign, bool(b), w_is_zero))
    assert len(seen) == 8


# ---------------------------------------------------------------------------
# gamma matrices and the spin representation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,size", [(2, 1), (4, 2), (5, 4), (9, 16)])
def test_basic_spin_matrix_sizes(n, size):
    gs = basic_spin_matrices(n)
    assert len(gs) == n - 1
    assert len(gs[0]) == size == 2 ** ((n - 1) // 2)


@pytest.mark.parametrize("sign", [1, -1])
def test_gamma_relations(sign):
    for n in (4, 6, 7):
        gs = basic_spin_matrices(n, sign)
        dim = len(gs[0])
        sI = smat_scale(SqrtNum.rational(sign), smat_identity(dim))
        for i, g in enumerate(gs):
            assert smat_eq(smat_mul(g, g), sI)
            for h in gs[i + 1:]:
                gh = smat_mul(g, h)
                hg = smat_mul(h, g)
                assert smat_eq(gh, smat_scale(SqrtNum.rational(-1), hg))


@pytest.mark.parametrize("sign", [1, -1])
def test_gammas_match_pauli_tensor_oracle(sign):
    one, i = SqrtNum.rational(1), SqrtNum.imag_unit()
    units = {SqrtNum(), one, -one, i, -i}
    for n in range(2, 13):
        gs = basic_spin_matrices(n, sign)
        assert ([matrix_parts(g) for g in gs]
                == [matrix_parts(g) for g in kronecker_gamma_matrices(n, sign)])
        assert all(v in units for g in gs for row in g for v in row)


@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_spin_generators_equal_the_dense_build(variant):
    for n in range(2, 13):
        assert ([matrix_parts(g) for g in spin_representation(n, variant)]
                == [matrix_parts(g) for g in dense_spin_generators(n, variant)]), n


def test_central_element_maps_to_minus_identity():
    # (t1 t3)^2 as matrices in the minus convention
    gens = spin_representation(4, "minus")
    dim = len(gens[0])
    prod = smat_mul(gens[0], gens[2])
    prod = smat_mul(prod, prod)
    assert smat_eq(prod, smat_neg(smat_identity(dim)))


@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_spin_representation_small(variant):
    for n in (4, 5, 6):
        results = verify_spin_representation(n, variant)
        assert all(ok for _, ok in results), [r for r, ok in results if not ok]


@pytest.mark.parametrize("n", range(4, 11))
@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_spin_relations_match_dense_oracle(n, variant):
    assert verify_spin_representation(n, variant) == dense_spin_relations(n, variant)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_spin_representation_rejects_n_below_4(n):
    with pytest.raises(ValueError, match="needs n >= 4"):
        verify_spin_representation(n, "minus")


def _patch_generators(monkeypatch, change):
    real = clifford.spin_representation

    def patched(n, variant):
        gens = real(n, variant)
        change(gens, basic_spin_matrices(n, 1 if variant == "plus" else -1))
        return gens

    monkeypatch.setattr(clifford, "spin_representation", patched)
    monkeypatch.setattr(oracles, "spin_representation", patched)


@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_perturbed_generator_flags_match_dense_oracle(monkeypatch, variant):
    # T_4 = a_4 G_3 + 2 b_4 G_4: still in the span, no longer a unit vector
    def double_b4(gens, gammas):
        a4 = SqrtNum.root(24, Fraction(-1, 8))
        b4 = SqrtNum.root(40, Fraction(1, 8))
        gens[3] = smat_add(smat_scale(a4, gammas[2]),
                           smat_scale(b4 + b4, gammas[3]))

    _patch_generators(monkeypatch, double_b4)
    for n in (6, 7):
        fast = verify_spin_representation(n, variant)
        assert fast == dense_spin_relations(n, variant)
        failing = [rel for rel, ok in fast if not ok]
        letter = "s" if variant == "plus" else "t"
        assert f"{letter}4^2 = {'1' if variant == 'plus' else 'z'}" in failing
        assert f"({letter}1 {letter}4)^2 = z" in failing
        assert f"({letter}1 {letter}3)^2 = z" not in failing


def _same_as_t3(gens, gammas):
    # T_4 = T_3: w = 0, and (t3 t4)^3 = t3^6 = t3^2 still holds
    gens[3] = gens[2]


def _twice_t2(gens, gammas):
    # T_4 = 2 T_2: w = 0 with B = 2 t2^2, so v^2 = 4 u^2
    gens[3] = smat_scale(SqrtNum.rational(2), gens[1])


def _three_coordinates(gens, gammas):
    # T_3 = (2 G_2 + 2 G_3 + G_4) / 3: a unit vector off the reflection chain
    third = SqrtNum.rational(Fraction(1, 3))
    gens[2] = smat_scale(third, smat_add(
        smat_scale(SqrtNum.rational(2), smat_add(gammas[1], gammas[2])),
        gammas[3]))


def _scaled_pair(gens, gammas):
    # 2 T_1 and T_4 / 2: u^2 != v^2, but (t1 t4)^2 = z still holds
    gens[0] = smat_scale(SqrtNum.rational(2), gens[0])
    gens[3] = smat_scale(SqrtNum.rational(Fraction(1, 2)), gens[3])


@pytest.mark.parametrize("change, holds, fails", [
    (_same_as_t3, ["(g3 g4)^3 = c"], ["(g2 g4)^2 = z"]),
    (_twice_t2, ["(g1 g3)^2 = z"], ["g4^2 = c", "(g2 g4)^2 = z"]),
    (_three_coordinates, ["g3^2 = c", "(g1 g3)^2 = z"], ["(g3 g5)^2 = z"]),
    (_scaled_pair, ["(g1 g4)^2 = z"], ["g1^2 = c", "(g4 g5)^3 = c"]),
])
@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_plane_algebra_edge_cases_match_dense_oracle(monkeypatch, change,
                                                     holds, fails, n, variant):
    _patch_generators(monkeypatch, change)
    fast = verify_spin_representation(n, variant)
    assert fast == dense_spin_relations(n, variant)
    # the relations are written for both variants: g a generator, c = 1 or z
    letter, c = ("s", "1") if variant == "plus" else ("t", "z")
    flags = dict(fast)

    def flag(rel):
        return flags[rel.replace("g", letter).replace("= c", f"= {c}")]

    assert all(flag(rel) for rel in holds)
    assert not any(flag(rel) for rel in fails)


@pytest.mark.parametrize("patched", ["basic_spin_matrices",
                                     "spin_representation"])
@pytest.mark.parametrize("change", [-1, 1])
def test_matrix_lists_of_the_wrong_length_raise(monkeypatch, patched, change):
    real = getattr(clifford, patched)

    def wrong_length(n, *args):
        mats = real(n, *args)
        return mats[:change] if change < 0 else mats + mats[:change]

    monkeypatch.setattr(clifford, patched, wrong_length)
    what = "gamma" if patched == "basic_spin_matrices" else "generator"
    count = 5 + change
    message = f"expected 5 {what} matrices at n = 6, got {count}"
    with pytest.raises(VerificationError, match=message):
        verify_spin_representation(6, "plus")


def test_generator_outside_the_gamma_span_raises(monkeypatch):
    def add_identity(gens, gammas):
        gens[1] = smat_add(gens[1], smat_identity(len(gens[1])))

    _patch_generators(monkeypatch, add_identity)
    with pytest.raises(VerificationError, match="T_2 is not in the span"):
        verify_spin_representation(5, "plus")


@pytest.mark.parametrize("second_gamma, premise", [
    # a repeated gamma is monomial but commutes with its copy
    (lambda gs: gs[0], "break the Clifford relation"),
    (lambda gs: smat_add(gs[0], gs[2]), "signed monomial matrix"),
    # monomial, but its entries are +-2 or +-2i, not powers of i
    pytest.param(lambda gs: smat_scale(SqrtNum.rational(2), gs[1]),
                 "signed monomial matrix", id="scaled-by-2"),
    # i times a gamma anticommutes with the rest but squares to -sign
    pytest.param(lambda gs: smat_scale(SqrtNum.imag_unit(), gs[1]),
                 "break the Clifford relation", id="times-i"),
])
def test_broken_gamma_raises(monkeypatch, second_gamma, premise):
    real = clifford.basic_spin_matrices

    def broken(n, sign=1):
        gs = real(n, sign)
        gs[1] = second_gamma(gs)
        return gs

    monkeypatch.setattr(clifford, "basic_spin_matrices", broken)
    with pytest.raises(VerificationError, match=premise):
        verify_spin_representation(6, "minus")


def _fresh_zeros(mats):
    # every zero entry a new SqrtNum(), none of them the builders' own
    return [[[v if v else SqrtNum() for v in row] for row in m] for m in mats]


@pytest.mark.parametrize("patched", ["basic_spin_matrices",
                                     "spin_representation"])
@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_fresh_zero_entries_give_the_same_flags(monkeypatch, patched,
                                                variant):
    # the scans skip the builders' zero by identity; any other zero must
    # still be read as zero
    want = {n: verify_spin_representation(n, variant) for n in (4, 7, 10)}
    real = getattr(clifford, patched)

    def fresh(n, *args):
        mats = _fresh_zeros(real(n, *args))
        assert not any(v is clifford._ZERO for m in mats for row in m
                       for v in row)
        return mats

    monkeypatch.setattr(clifford, patched, fresh)
    for n, flags in want.items():
        assert verify_spin_representation(n, variant) == flags


@pytest.mark.parametrize("value", [lambda: SqrtNum.rational(1),
                                   lambda: SqrtNum.root(3, Fraction(1, 2))])
@pytest.mark.parametrize("fresh", [False, True])
def test_an_entry_off_the_monomial_support_raises(monkeypatch, value, fresh):
    # a nonzero where the builders put their zero, among shared or fresh
    # zeros, breaks the premise it breaks in the dense matrices
    real_gammas, real_gens = (clifford.basic_spin_matrices,
                              clifford.spin_representation)

    def off_support(mats, k):
        mats = _fresh_zeros(mats) if fresh else mats
        row = mats[k][1]
        row[next(c for c, v in enumerate(row) if not v)] = value()
        return mats

    monkeypatch.setattr(clifford, "basic_spin_matrices",
                        lambda n, sign=1: off_support(real_gammas(n, sign), 1))
    with pytest.raises(VerificationError,
                       match="gamma_2 is not a 4 x 4 signed monomial"):
        verify_spin_representation(6, "minus")
    monkeypatch.setattr(clifford, "basic_spin_matrices", real_gammas)
    monkeypatch.setattr(clifford, "spin_representation",
                        lambda n, v: off_support(real_gens(n, v), 2))
    with pytest.raises(VerificationError,
                       match="T_3 is not in the span of the gamma"):
        verify_spin_representation(6, "plus")


def test_a_fresh_zero_on_the_support_raises(monkeypatch):
    # a gamma row whose one nonzero became a zero no longer has one
    real = clifford.basic_spin_matrices

    def emptied(n, sign=1):
        gs = real(n, sign)
        row = gs[2][0]
        row[next(c for c, v in enumerate(row) if v)] = SqrtNum()
        return gs

    monkeypatch.setattr(clifford, "basic_spin_matrices", emptied)
    with pytest.raises(VerificationError,
                       match="gamma_3 is not a 4 x 4 signed monomial"):
        verify_spin_representation(6, "plus")


# ---------------------------------------------------------------------------
# SqrtNum arithmetic and matrices
# ---------------------------------------------------------------------------

def _as_complex(x):
    return sum(complex(float(re), float(im)) * d ** 0.5
               for d, (re, im) in x.parts.items())


def test_sqrtnum_mul_matches_complex_floats():
    # real, imaginary and mixed parts, over shared and coprime radicands
    rng = random.Random(5)
    parts = [Fraction(0), Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(5, 7)]

    def draw():
        return SqrtNum({d: (rng.choice(parts), rng.choice(parts))
                        for d in rng.sample([1, 2, 3, 6, 10], rng.randint(1, 3))})

    for _ in range(300):
        x, y = draw(), draw()
        assert abs(_as_complex(x * y) - _as_complex(x) * _as_complex(y)) < 1e-9


def test_sqrtnum_matches_the_fraction_oracle():
    # zero, real, imaginary and mixed parts over every squarefree radicand
    # of {2, 3, 5}, with negative and non-integer rationals
    rng = random.Random(18)
    radicands = [1, 2, 3, 5, 6, 10, 15, 30]
    values = [Fraction(0), Fraction(0), Fraction(1), Fraction(-1),
              Fraction(-3, 2), Fraction(5, 7), Fraction(-4, 9), Fraction(6)]

    def draw():
        parts = {d: (rng.choice(values), rng.choice(values))
                 for d in rng.sample(radicands, rng.randint(0, 3))}
        return SqrtNum(parts), FractionSqrtNum(parts)

    for _ in range(200):
        (x, ox), (y, oy) = draw(), draw()
        got = [x + y, y + x, x - y, -(y - x), -x, x - x, x * y, y * x,
               x * (y + x), x * y + x * x, x * SqrtNum.imag_unit()]
        want = [ox + oy, oy + ox, ox - oy, -(oy - ox), -ox, ox - ox,
                ox * oy, oy * ox, ox * (oy + ox), ox * oy + ox * ox,
                ox * FractionSqrtNum.imag_unit()]
        for g, w in zip(got, want):
            assert g.parts == w.parts
            assert repr(g) == repr(w)
            assert g.is_zero() == w.is_zero()
        for g1, w1 in zip(got, want):
            for g2, w2 in zip(got, want):
                assert (g1 == g2) == (w1 == w2)
                if g1 == g2:
                    assert hash(g1) == hash(g2)
    for n in range(1, 61):
        scale = rng.choice(values[2:])
        assert SqrtNum.root(n, scale).parts == FractionSqrtNum.root(n, scale).parts


def test_sqrtnum_has_one_normal_form():
    half_root3 = SqrtNum.root(3, Fraction(1, 2))
    x = SqrtNum({2: (Fraction(-3, 2), Fraction(5, 7)), 3: (Fraction(1), Fraction(0))})
    equal_pairs = [
        (SqrtNum.root(8), SqrtNum.root(2, 2)),
        (SqrtNum.root(12, Fraction(1, 4)), half_root3),
        (SqrtNum({3: (Fraction(2, 4), Fraction(0))}), half_root3),
        (SqrtNum.root(2, Fraction(1, 2)) * SqrtNum.root(2), SqrtNum.rational(1)),
        (half_root3 + half_root3, SqrtNum.root(3)),
        (x - x, SqrtNum()),
        (x * SqrtNum(), SqrtNum()),
    ]
    for a, b in equal_pairs:
        assert a == b and hash(a) == hash(b), (a, b)
    for zero in (x - x, x * SqrtNum()):
        assert zero.is_zero() and not zero
        assert repr(zero) == "SqrtNum(0)"


def test_sqrtnum_hash_is_kept_and_follows_equality():
    # equal values from every road to a SqrtNum hash equal, and a kept
    # hash is the hash of the value
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    r2, r3 = SqrtNum.root(2), SqrtNum.root(3)
    groups = [
        [SqrtNum({2: (half, 0)}), SqrtNum.root(2, half),
         SqrtNum.root(8, quarter), r2 * SqrtNum.rational(half),
         SqrtNum.root(2, quarter) + SqrtNum.root(2, quarter),
         -SqrtNum.root(2, -half), -(-SqrtNum.root(2, half))],
        [SqrtNum.rational(-3), SqrtNum({1: (-3, 0)}), -SqrtNum.rational(3),
         SqrtNum.rational(-1) + SqrtNum.rational(-2),
         SqrtNum.imag_unit() * SqrtNum.imag_unit() * SqrtNum.rational(3),
         r3 * r3 * SqrtNum.rational(-1)],
        [SqrtNum(), SqrtNum({}), SqrtNum({3: (0, 0)}), r2 - r2, -SqrtNum(),
         SqrtNum.rational(0), r2 * SqrtNum()],
        [SqrtNum({1: (3, 0), 6: (1, 0)}), (r2 + r3) * r3,
         SqrtNum.root(6) + SqrtNum.rational(3), -(-r3 * r3 - SqrtNum.root(6))],
    ]
    for group in groups:
        for x in group:
            assert x == group[0], (x, group[0])
            assert hash(x) == hash(x) == hash(group[0]), (x, group[0])
    rng = random.Random(41)
    parts = [Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 2)]

    def draw():
        return SqrtNum({d: (rng.choice(parts), rng.choice(parts))
                        for d in rng.sample([1, 2, 3, 6], rng.randint(0, 2))})

    values = []
    for _ in range(150):
        x, y = draw(), draw()
        values += [x, y, x + y, x * y, -x, y - x]
    for x in values:
        h = hash(x)
        assert hash(x) == h == hash((x._den, frozenset(x._num.items())))
    classes = []
    for x in values:
        if not any(x == c for c in classes):
            classes.append(x)
    assert len(set(values)) == len(classes)
    for x in values:
        for c in classes:
            assert (x == c) <= (hash(x) == hash(c))


def _assert_normal_form(x):
    # integer numerators over one positive denominator, no zero part, no
    # factor common to all, zero as ({}, 1): the form that makes equal
    # elements equal dicts
    num, den = x._num, x._den
    assert den > 0 and (0, 0) not in num.values()
    assert gcd(den, *(v for part in num.values() for v in part)) == 1
    rebuilt = SqrtNum(x.parts)
    assert (rebuilt._num, rebuilt._den) == (num, den)
    assert hash(rebuilt) == hash(x)


def test_sqrtnum_fast_paths_match_the_fraction_oracle():
    # single-part operands take the fast product; mixed denominators make
    # its gcd reduce, and the multi-part draws keep the general path honest
    rng = random.Random(23)
    radicands = [1, 2, 3, 5, 6, 10, 15, 30]
    dens = [1, 2, 3, 4, 6, 8, 9, 12]

    def draw(size):
        parts = {}
        for d in rng.sample(radicands, size):
            re = Fraction(rng.randint(-9, 9), rng.choice(dens))
            im = Fraction(rng.choice([0, 0, rng.randint(-9, 9)]),
                          rng.choice(dens))
            parts[d] = (re or Fraction(1, rng.choice(dens)), im)
        return SqrtNum(parts), FractionSqrtNum(parts)

    for _ in range(400):
        (x, ox), (y, oy) = draw(rng.choice([1, 1, 1, 2, 3])), draw(
            rng.choice([1, 1, 1, 2, 3]))
        got = [x * y, y * x, x * x, x + y, x - y, x + (-x), -x + x,
               x * SqrtNum(), SqrtNum() * x, (x + y) * (x - y), x * y - y * x]
        want = [ox * oy, oy * ox, ox * ox, ox + oy, ox - oy, ox + (-ox),
                -ox + ox, ox * FractionSqrtNum(), FractionSqrtNum() * ox,
                (ox + oy) * (ox - oy), ox * oy - oy * ox]
        for g, w in zip(got, want):
            assert g.parts == w.parts and repr(g) == repr(w)
            _assert_normal_form(g)
    # products whose parts cancel: (sqrt2 + sqrt3)(sqrt2 - sqrt3) = -1 and
    # (1 + i)(1 - i)/2 = 1, then a sum back to zero
    r2, r3 = SqrtNum.root(2), SqrtNum.root(3)
    half = SqrtNum.rational(Fraction(1, 2))
    gauss = SqrtNum({1: (Fraction(1), Fraction(1))})
    conj = SqrtNum({1: (Fraction(1), Fraction(-1))})
    for x, value in [((r2 + r3) * (r2 - r3), -1), (gauss * conj * half, 1),
                     ((r2 + r3) * (r2 - r3) + SqrtNum.rational(1), 0)]:
        assert x == SqrtNum.rational(value)
        _assert_normal_form(x)


def test_smat_eq_compares_shapes():
    one = SqrtNum.rational(1)
    assert not smat_eq([[one]], smat_identity(2))
    assert not smat_eq(smat_identity(2), [[one]])
    assert not smat_eq([], smat_identity(4))
    assert not smat_eq([[one], [SqrtNum()]], smat_identity(2))
    assert smat_eq(smat_identity(3), smat_identity(3))


def test_smat_pow_matches_repeated_products():
    x = spin_representation(5, "minus")[2]
    assert smat_eq(smat_pow(x, 0), smat_identity(len(x)))
    expected = x
    for e in (1, 2, 3):
        assert smat_eq(smat_pow(x, e), expected)
        expected = smat_mul(expected, x)
    with pytest.raises(ValueError):
        smat_pow(x, -1)

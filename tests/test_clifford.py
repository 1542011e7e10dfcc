import random
from fractions import Fraction

import pytest

from schur_ed import clifford
from schur_ed.clifford import (
    _blade_mul,
    basic_spin_matrices,
    spin_representation,
    verify_spin_representation,
)
from schur_ed.covers import VerificationError
from schur_ed.radicals import (
    SqrtNum,
    smat_add,
    smat_eq,
    smat_identity,
    smat_mul,
    smat_neg,
    smat_pow,
    smat_scale,
)

import oracles
from oracles import (
    FractionSqrtNum,
    dense_spin_generators,
    dense_spin_relations,
    kronecker_gamma_matrices,
    matrix_parts,
    slow_multivector_mul,
)


def to_blades(terms):
    """{sorted generator tuple: Fraction} as {blade mask: SqrtNum}."""
    return {sum(1 << (i - 1) for i in key): SqrtNum.rational(c)
            for key, c in terms.items()}


# ---------------------------------------------------------------------------
# blade products
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sign", [1, -1])
def test_generator_square_and_anticommutation(sign):
    one = SqrtNum.rational(1)
    e1, e2 = {0b01: one}, {0b10: one}
    assert _blade_mul(e1, e1, sign) == {0: SqrtNum.rational(sign)}
    assert _blade_mul(e1, e2, sign) == {0b11: one}
    assert _blade_mul(e2, e1, sign) == {0b11: -one}


@pytest.mark.parametrize("sign", [1, -1])
def test_lift_square_matches_presentation(sign):
    # the unit vector (e1 - e2)/sqrt(2) squares to sign: s_1^2 = 1, t_1^2 = z
    c = SqrtNum.root(2, Fraction(1, 2))
    v = {0b01: c, 0b10: -c}
    assert _blade_mul(v, v, sign) == {0: SqrtNum.rational(sign)}


def test_lift_expansion_oracle():
    # ((e1 - e2)/sqrt2) * ((e2 - e3)/sqrt2) * (e1 + e3)/sqrt2 expanded term
    # by term: sqrt(2)^-3 = sqrt(2)/4 times the integer product
    c = SqrtNum.root(2, Fraction(1, 2))
    vectors = [{(1,): 1, (2,): -1}, {(2,): 1, (3,): -1}, {(1,): 1, (3,): 1}]
    for sign in (1, -1):
        expected = {(): Fraction(1)}
        got = {0: SqrtNum.rational(1)}
        for vec in vectors:
            expected = slow_multivector_mul(expected, vec, sign)
            got = _blade_mul(got, {m: c * x for m, x in to_blades(vec).items()},
                             sign)
        scale = SqrtNum.root(2, Fraction(1, 4))
        assert got == {m: scale * x for m, x in to_blades(expected).items()}


def test_mul_against_term_oracle_random():
    rng = random.Random(3)
    for sign in (1, -1):
        for _ in range(60):
            terms_x = {}
            terms_y = {}
            for _ in range(rng.randint(1, 4)):
                key = tuple(sorted(rng.sample(range(1, 6), rng.randint(0, 3))))
                terms_x[key] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                key = tuple(sorted(rng.sample(range(1, 6), rng.randint(0, 3))))
                terms_y[key] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            terms_x = {k: v for k, v in terms_x.items() if v}
            terms_y = {k: v for k, v in terms_y.items() if v}
            assert _blade_mul(to_blades(terms_x), to_blades(terms_y), sign) == \
                to_blades(slow_multivector_mul(terms_x, terms_y, sign))


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
    for n in range(2, 12):
        gs = basic_spin_matrices(n, sign)
        assert ([matrix_parts(g) for g in gs]
                == [matrix_parts(g) for g in kronecker_gamma_matrices(n, sign)])
        assert all(v in units for g in gs for row in g for v in row)


@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_spin_generators_equal_the_dense_build(variant):
    for n in range(4, 11):
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

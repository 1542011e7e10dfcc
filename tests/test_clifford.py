import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from schur_ed import clifford
from schur_ed.clifford import (
    CliffordElem,
    CliffordSignature,
    Dyadic,
    basic_spin_matrices,
    grade_involution,
    lift_transposition,
    spin_representation,
    spinor_norm,
    transpose,
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
    dense_spin_relations,
    kronecker_gamma_matrices,
    reversal_sign,
    slow_multivector_mul,
)


def elem_from_tuples(sig, terms):
    """Build a CliffordElem from {sorted generator tuple: Fraction}."""
    out = CliffordElem.zero(sig)
    for key, c in terms.items():
        mask = 0
        for i in key:
            mask |= 1 << (i - 1)
        num, den = c.numerator, c.denominator
        # den is a power of 2 in all tests here
        k = den.bit_length() - 1
        assert 1 << k == den
        out = out + CliffordElem(sig, {mask: (num, 0)}, 2 * k)
    return out


def elem_to_tuples(x):
    out = {}
    for mask, d in x.terms().items():
        key = tuple(i + 1 for i in range(x.signature.n) if mask >> i & 1)
        p, q = d.rational_parts()
        assert q == 0, "oracle comparison only used for sqrt2-free values"
        out[key] = p
    return out


# ---------------------------------------------------------------------------
# Dyadic ring
# ---------------------------------------------------------------------------

def test_dyadic_canonical_form():
    d = Dyadic(2, 4, 3)
    assert (d.a, d.b, d.k) == (1, 2, 2)
    assert Dyadic(0, 0, 5) == Dyadic(0, 0, 0)
    assert Dyadic(4, 0, 2) == Dyadic(1, 0, 0)
    # k minimal: not both parts even when k > 0
    assert not (d.a % 2 == 0 and d.b % 2 == 0)


def test_dyadic_equality_is_real_equality():
    assert Dyadic(1, 1, 1) == Dyadic(2, 2, 2)
    assert Dyadic(1, 0, 0) != Dyadic(0, 1, 0)


def test_dyadic_against_high_precision_decimals():
    getcontext().prec = 50
    sqrt2 = Decimal(2).sqrt()

    def value(d):
        return (Decimal(d.a) + Decimal(d.b) * sqrt2) / Decimal(2) ** d.k

    rng = random.Random(0)
    for _ in range(10_000):
        x = Dyadic(rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(0, 6))
        y = Dyadic(rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(0, 6))
        s, p = x + y, x * y
        assert abs(value(s) - (value(x) + value(y))) < Decimal("1e-20")
        assert abs(value(p) - value(x) * value(y)) < Decimal("1e-20")


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sign", [1, -1])
def test_generator_square_and_anticommutation(sign):
    sig = CliffordSignature(4, sign)
    e1 = CliffordElem.generator(sig, 1)
    e2 = CliffordElem.generator(sig, 2)
    assert (e1 * e1).scalar_value() == Dyadic(sign)
    assert e1 * e2 == -(e2 * e1)


@pytest.mark.parametrize("sign", [1, -1])
def test_lift_square_matches_presentation(sign):
    sig = CliffordSignature(4, sign)
    v = lift_transposition(1, 2, sig)
    assert (v * v).scalar_value() == Dyadic(sign)


def test_lift_expansion_oracle():
    # ((e1 - e2)/sqrt2)^2 expanded term by term
    for sign in (1, -1):
        sig = CliffordSignature(3, sign)
        half = Fraction(1, 2)
        x = {(1,): half * 2, (2,): -half * 2}  # e1 - e2, then divide by sqrt2^2=2
        prod = slow_multivector_mul(x, x, sign)
        expected = {k: v * half for k, v in prod.items()}
        got = elem_to_tuples(lift_transposition(1, 2, sig)
                             * lift_transposition(1, 2, sig))
        assert got == {k: v for k, v in expected.items() if v}


def test_mul_against_term_oracle_random():
    rng = random.Random(3)
    for sign in (1, -1):
        sig = CliffordSignature(5, sign)
        for _ in range(60):
            terms_x = {}
            terms_y = {}
            for _ in range(rng.randint(1, 4)):
                key = tuple(sorted(rng.sample(range(1, 6), rng.randint(0, 3))))
                terms_x[key] = Fraction(rng.randint(-4, 4))
                key = tuple(sorted(rng.sample(range(1, 6), rng.randint(0, 3))))
                terms_y[key] = Fraction(rng.randint(-4, 4))
            terms_x = {k: v for k, v in terms_x.items() if v}
            terms_y = {k: v for k, v in terms_y.items() if v}
            x = elem_from_tuples(sig, terms_x)
            y = elem_from_tuples(sig, terms_y)
            assert elem_to_tuples(x * y) == slow_multivector_mul(
                terms_x, terms_y, sign)


def test_signature_mismatch_raises():
    x = CliffordElem.generator(CliffordSignature(3, 1), 1)
    y = CliffordElem.generator(CliffordSignature(4, 1), 1)
    with pytest.raises(ValueError):
        x * y


def test_lift_index_validation():
    sig = CliffordSignature(4, 1)
    with pytest.raises(ValueError):
        lift_transposition(2, 2, sig)
    with pytest.raises(ValueError):
        lift_transposition(1, 5, sig)


# ---------------------------------------------------------------------------
# transpose and grade involution
# ---------------------------------------------------------------------------

def test_transpose_reversal_sign_oracle():
    sig = CliffordSignature(6, 1)
    for k in range(1, 7):
        m = CliffordElem.scalar(sig, 1)
        for i in range(1, k + 1):
            m = m * CliffordElem.generator(sig, i)
        expected_sign = reversal_sign(k)
        assert transpose(m) == (m if expected_sign == 1 else -m)


def test_transpose_basics():
    sig = CliffordSignature(3, 1)
    c = CliffordElem.scalar(sig, Dyadic(3, 1, 2))
    assert transpose(c) == c
    e1 = CliffordElem.generator(sig, 1)
    assert transpose(e1) == e1
    x = e1 + c
    assert transpose(transpose(x)) == x


def test_transpose_antiautomorphism_and_involution_automorphism():
    rng = random.Random(9)
    sig = CliffordSignature(5, -1)
    for _ in range(40):
        masks = rng.sample(range(32), 3)
        x = CliffordElem(sig, {m: (rng.randint(-3, 3), rng.randint(-2, 2))
                               for m in masks}, rng.randint(0, 2))
        masks = rng.sample(range(32), 3)
        y = CliffordElem(sig, {m: (rng.randint(-3, 3), rng.randint(-2, 2))
                               for m in masks}, rng.randint(0, 2))
        assert transpose(x * y) == transpose(y) * transpose(x)
        assert grade_involution(x * y) == grade_involution(x) * grade_involution(y)
        assert grade_involution(grade_involution(x)) == x


def test_grade_involution_degree_one():
    sig = CliffordSignature(3, 1)
    e1 = CliffordElem.generator(sig, 1)
    e2 = CliffordElem.generator(sig, 2)
    one = CliffordElem.scalar(sig, 1)
    assert grade_involution(e1) == -e1
    assert grade_involution(e1 * e2) == e1 * e2
    assert grade_involution(one + e1) == one - e1


# ---------------------------------------------------------------------------
# spinor norms
# ---------------------------------------------------------------------------

def test_spinor_norm_of_lifts():
    sig = CliffordSignature(4, 1)
    v = lift_transposition(1, 2, sig)
    assert spinor_norm(v, "plus").scalar_value() == Dyadic(1)
    sigm = CliffordSignature(4, -1)
    vm = lift_transposition(1, 2, sigm)
    assert spinor_norm(vm, "minus").scalar_value() == Dyadic(1)
    one = CliffordElem.scalar(sig, 1)
    assert spinor_norm(one, "plus") == one
    assert spinor_norm(one, "minus") == one


def test_spinor_norm_multiplicative_on_lift_products():
    rng = random.Random(11)
    for variant, sign in (("plus", 1), ("minus", -1)):
        sig = CliffordSignature(6, sign)
        for _ in range(50):
            def word():
                w = CliffordElem.scalar(sig, 1)
                for _ in range(rng.randint(1, 5)):
                    i = rng.randint(1, 5)
                    j = rng.randint(i + 1, 6)
                    w = w * lift_transposition(i, j, sig)
                return w
            x, y = word(), word()
            nx = spinor_norm(x, variant)
            ny = spinor_norm(y, variant)
            nxy = spinor_norm(x * y, variant)
            assert nx.is_scalar() and nx.scalar_value() in (Dyadic(1), Dyadic(-1))
            assert nxy == nx * ny


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
        assert gs == kronecker_gamma_matrices(n, sign)
        assert all(v in units for g in gs for row in g for v in row)


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

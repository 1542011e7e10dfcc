import itertools
import math
import random

import numpy as np
import pytest

from schur_ed.covers import (
    Cover,
    CoverElem,
    CoverSpec,
    FiniteGroupTable,
    SizeBoundExceeded,
    center,
    conjugacy_classes,
    cover_subgroup,
    cyclic_table,
    generalized_quaternion_table,
    get_cover,
    iso_small,
    preimage_subgroup,
    subgroup_table,
    verify_presentation,
)
from schur_ed.perms import (
    adjacent_transposition,
    canonical_word,
    compose,
    from_cycles,
    identity_perm,
    inversions,
    parity,
    perm_from_word,
    right_multiply_adjacent,
    sylow2_alt_generators,
    sylow2_sym_generators,
)

from oracles import (
    BfsCoverTable,
    BfsTable,
    CocycleInconsistency,
    bfs_closure,
    clifford_elementary_cocycle,
    compose_naive,
    integer_lift,
    nu2_factorial,
    quaternion_mul,
    slow_multivector_mul,
)


# ---------------------------------------------------------------------------
# canonical words
# ---------------------------------------------------------------------------

def test_canonical_word_examples():
    assert canonical_word(identity_perm(5)) == []
    assert canonical_word(adjacent_transposition(5, 1)) == [1]
    w = canonical_word(from_cycles(3, [(1, 3)]))
    assert len(w) == 3
    assert perm_from_word(3, w) == from_cycles(3, [(1, 3)])


def test_canonical_word_random_roundtrip():
    rng = random.Random(0)
    for n in (4, 6, 9):
        for _ in range(300):
            img = list(range(1, n + 1))
            rng.shuffle(img)
            p = tuple(img)
            w = canonical_word(p)
            assert perm_from_word(n, w) == p
            assert len(w) == inversions(p)
            # suffix property: dropping the last letter is canonical again
            if w:
                parent = right_multiply_adjacent(p, w[-1])
                assert canonical_word(parent) == w[:-1]


def test_compose_matches_naive_oracle():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(2, 8)
        a = list(range(1, n + 1))
        b = list(range(1, n + 1))
        rng.shuffle(a)
        rng.shuffle(b)
        assert compose(tuple(a), tuple(b)) == compose_naive(tuple(a), tuple(b))


# ---------------------------------------------------------------------------
# cocycle and cover arithmetic
# ---------------------------------------------------------------------------

def test_cocycle_normalized():
    cov = get_cover(CoverSpec(5, "plus"))
    rng = random.Random(2)
    e = identity_perm(5)
    for _ in range(30):
        img = list(range(1, 6))
        rng.shuffle(img)
        assert cov.cocycle(e, tuple(img)) == 0
        assert cov.cocycle(tuple(img), e) == 0


def test_generator_squares():
    plus = get_cover(CoverSpec(6, "plus"))
    minus = get_cover(CoverSpec(6, "minus"))
    for i in range(1, 6):
        assert plus.mul(plus.gen(i), plus.gen(i)) == plus.identity
        assert minus.mul(minus.gen(i), minus.gen(i)) == minus.z


def test_far_commutation_and_braid():
    plus = get_cover(CoverSpec(5, "plus"))
    minus = get_cover(CoverSpec(5, "minus"))
    assert plus.word(1, 3, 1, 3) == plus.z
    assert minus.word(1, 3, 1, 3) == minus.z
    assert plus.word(1, 2, 1, 2, 1, 2) == plus.identity
    assert minus.word(1, 2, 1, 2, 1, 2) == minus.z


def test_mul_inverse_and_associativity():
    cov = get_cover(CoverSpec(6, "minus"))
    rng = random.Random(3)

    def random_elem():
        img = list(range(1, 7))
        rng.shuffle(img)
        return CoverElem(rng.randint(0, 1), tuple(img))

    for _ in range(120):
        g, h, k = random_elem(), random_elem(), random_elem()
        assert cov.mul(g, cov.inv(g)) == cov.identity
        assert cov.mul(cov.mul(g, h), k) == cov.mul(g, cov.mul(h, k))


def test_cocycle_identity_property():
    # c(s,t) + c(st,r) = c(t,r) + c(s,tr) mod 2 on random triples
    for variant in ("plus", "minus"):
        cov = get_cover(CoverSpec(6, variant))
        rng = random.Random(4)
        for _ in range(1000):
            perms = []
            for _ in range(3):
                img = list(range(1, 7))
                rng.shuffle(img)
                perms.append(tuple(img))
            s, t, r = perms
            lhs = cov.cocycle(s, t) ^ cov.cocycle(compose(s, t), r)
            rhs = cov.cocycle(t, r) ^ cov.cocycle(s, compose(t, r))
            assert lhs == rhs


def test_projection_is_homomorphism_with_kernel_z():
    cov = get_cover(CoverSpec(5, "plus"))
    rng = random.Random(5)
    for _ in range(50):
        img = list(range(1, 6))
        rng.shuffle(img)
        g = CoverElem(rng.randint(0, 1), tuple(img))
        h = CoverElem(rng.randint(0, 1), tuple(img[::-1]))
        assert cov.mul(g, h).perm == compose(g.perm, h.perm)
    assert cov.z.perm == identity_perm(5)
    assert cov.mul(cov.z, cov.z) == cov.identity


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,variant", [(4, "plus"), (4, "minus"),
                                       (5, "plus"), (5, "minus")])
def test_verify_presentation_small(n, variant):
    report = verify_presentation(CoverSpec(n, variant))
    assert report.all_ok, report.failures()
    assert report.order == 2 * math.factorial(n)
    assert report.order_method == "closure"


def test_verify_presentation_transversal():
    for n in (9, 11, 12):
        report = verify_presentation(CoverSpec(n, "minus"))
        assert report.all_ok
        assert report.order == 2 * math.factorial(n)
        assert report.order_method == "transversal"


@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_lift_closure_matches_the_cover_bfs(variant):
    # the subgroup generated by the lifts t_1..t_{n-1} alone
    for n in range(4, 7):
        cov = get_cover(CoverSpec(n, variant))
        lifts = [cov.gen(i) for i in range(1, n)]
        table = cover_subgroup(lifts, cov.spec)
        got = set(table.elements)
        assert len(got) == table.order
        want = bfs_closure(lifts, cov.mul, cov.identity)
        assert got == want
        assert len(want) == 2 * math.factorial(n)


def test_lift_closure_size_bound():
    cov = get_cover(CoverSpec(6, "minus"))
    lifts = [cov.gen(i) for i in range(1, 6)]
    with pytest.raises(SizeBoundExceeded,
                       match="^closure exceeded 1439 elements$"):
        cover_subgroup(lifts, cov.spec, size_bound=1439)
    assert cover_subgroup(lifts, cov.spec, size_bound=1440).order == 1440


def test_closure_order_depends_on_the_cocycle(monkeypatch):
    # with every closure bit 0 the lifts close to a copy of S_n; z is not
    # a generator, so nothing adds the other half back
    monkeypatch.setattr(Cover, "cocycles", lambda self, sigmas, taus:
                        np.zeros((len(taus), len(sigmas)), dtype=np.int64))
    for variant in ("plus", "minus"):
        report = verify_presentation(CoverSpec(5, variant))
        assert all(r.ok for r in report.relations)
        assert report.order == 120 and report.order_method == "closure"
        assert not report.all_ok
        assert report.failures() == ["order 120 != 240"]


def test_preimage_order_formula(zoo):
    # |preimage of Sylow_2(S_n)| = 2^(n - s + 1), s = popcount(n)
    for n in (6, 10, 12):
        table, _ = zoo.sylow_cover(n, "plus", "sym")
        s = n.bit_count()
        assert table.order == 2 ** (n - s + 1)


def test_fault_injection_reports_failure():
    spec = CoverSpec(4, "plus")
    cov = get_cover(spec)

    def bad_mul(g, h):
        out = cov.mul(g, h)
        # flip the central bit whenever the right factor moves point 1
        if h.perm[0] != 1:
            out = CoverElem(out.eps ^ 1, out.perm)
        return out

    report = verify_presentation(spec, mul_fn=bad_mul)
    assert not report.all_ok
    assert report.failures()


def test_cocycle_abort_on_corrupt_lift():
    cov = get_cover(CoverSpec(4, "plus"))
    sigma = from_cycles(4, [(1, 2)])
    # i = 2 lengthens sigma = s_1, so the product must be +-target; i = 1
    # shortens it, so the product must be +-2 * target
    for i in (2, 1):
        lifts = {}
        assert clifford_elementary_cocycle(cov, sigma, i, lifts) == \
            cov.elementary_cocycle(sigma, i)
        # poison the cached target with a factor 2: the product stays
        # proportional to it, but at the wrong scale
        key = right_multiply_adjacent(sigma, i)
        lifts[key] = {m: 2 * a for m, a in lifts[key].items()}
        with pytest.raises(CocycleInconsistency):
            clifford_elementary_cocycle(cov, sigma, i, lifts)


@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_elementary_cocycle_matches_clifford_exhaustive(variant):
    for n in range(4, 8):
        cov = Cover(CoverSpec(n, variant))
        lifts = {}
        for perm in itertools.permutations(range(1, n + 1)):
            for i in range(1, n):
                assert cov.elementary_cocycle(perm, i) == \
                    clifford_elementary_cocycle(cov, perm, i, lifts), (perm, i)


@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_elementary_cocycle_matches_clifford_sampled(variant):
    rng = random.Random(2024)
    for n in range(8, 13):
        cov = Cover(CoverSpec(n, variant))
        for _ in range(10):
            img = list(range(1, n + 1))
            rng.shuffle(img)
            perm, i = tuple(img), rng.randrange(1, n)
            assert cov.elementary_cocycle(perm, i) == \
                clifford_elementary_cocycle(cov, perm, i), (perm, i)


@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_cocycles_of_an_array_match_cocycle(variant):
    rng = random.Random(300)
    for n in (4, 8, 12):
        cov = Cover(CoverSpec(n, variant))

        def random_perm():
            img = list(range(1, n + 1))
            rng.shuffle(img)
            return tuple(img)

        sigmas = [random_perm() for _ in range(100)]
        for tau in (random_perm(), random_perm(), identity_perm(n)):
            got = cov.cocycles(np.array(sigmas), [tau])[0]
            assert got.tolist() == [cov.cocycle(s, tau) for s in sigmas]


@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_cocycles_of_several_taus_match_per_tau_calls(variant):
    rng = np.random.default_rng(301)
    for n in range(4, 13):
        cov = Cover(CoverSpec(n, variant))
        sigmas = np.array([rng.permutation(n) + 1 for _ in range(60)])
        taus = [tuple((rng.permutation(n) + 1).tolist()) for _ in range(4)]
        taus += [identity_perm(n), adjacent_transposition(n, n - 1)]
        got = cov.cocycles(sigmas, taus)
        assert got.shape == (len(taus), len(sigmas))
        for tau, bits in zip(taus, got):
            assert bits.tolist() == cov.cocycles(sigmas, [tau])[0].tolist()
            assert bits.tolist() == [cov.cocycle(tuple(s), tau)
                                     for s in sigmas.tolist()]
        assert cov.cocycles(sigmas, []).shape == (0, len(sigmas))


def test_lift_is_the_ordered_vector_product():
    # the oracle's integer lift against term-by-term products of the
    # vectors e_i - e_{i+1}, with and without its prefix cache
    for sign in (1, -1):
        lifts = {}
        for cycles in ([], [(1, 2)], [(1, 4, 2), (3, 5)], [(1, 5), (2, 4)],
                       [(1, 2, 3, 4, 5)]):
            perm = from_cycles(5, cycles)
            expected = {(): 1}
            for i in canonical_word(perm):
                expected = slow_multivector_mul(
                    expected, {(i,): 1, (i + 1,): -1}, sign)
            for cache in (None, lifts):
                got = integer_lift(perm, sign, cache)
                assert {tuple(j + 1 for j in range(5) if m >> j & 1): a
                        for m, a in got.items()} == expected, (sign, perm)


# ---------------------------------------------------------------------------
# Sylow subgroups and preimages
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 4, 6, 8, 10, 12])
def test_sylow_sym_order(n):
    gens = sylow2_sym_generators(n)
    if n == 1:
        assert gens == []
        return
    table = FiniteGroupTable.generate(gens, 1 << 18)
    assert table.order == 2 ** nu2_factorial(n)


def test_sylow_4_is_dihedral_of_order_8():
    gens = sylow2_sym_generators(4)
    table = FiniteGroupTable.generate(gens, 100)
    assert table.order == 8
    orders = table.element_order_multiset()
    assert orders == {1: 1, 2: 5, 4: 2}  # dihedral, not quaternion


@pytest.mark.parametrize("n", [4, 5, 6, 8, 9, 12])
def test_sylow_alt_order(n):
    gens = sylow2_alt_generators(n)
    assert all(parity(g) == 0 for g in gens)
    table = FiniteGroupTable.generate(gens, 1 << 18)
    assert table.order == 2 ** (nu2_factorial(n) - 1)


def test_preimage_subgroup_orders():
    spec = CoverSpec(8, "plus")
    t = preimage_subgroup(sylow2_sym_generators(8), spec)
    assert t.order == 2 ** (nu2_factorial(8) + 1) == 256
    t2 = preimage_subgroup([], spec)
    assert t2.order == 2
    klein = sylow2_alt_generators(4)
    for variant in ("plus", "minus"):
        t3 = preimage_subgroup(klein, CoverSpec(4, variant))
        assert t3.order == 8


def test_preimage_size_bound():
    spec = CoverSpec(8, "plus")
    with pytest.raises(SizeBoundExceeded):
        preimage_subgroup(sylow2_sym_generators(8), spec, size_bound=10)
    # the bound counts all 2 * 1024 elements of the preimage for S_12
    gens, spec = sylow2_sym_generators(12), CoverSpec(12, "plus")
    with pytest.raises(SizeBoundExceeded,
                       match="^closure exceeded 2047 elements$"):
        preimage_subgroup(gens, spec, size_bound=2047)
    assert preimage_subgroup(gens, spec, size_bound=2048).order == 2048
    # {1, z} alone is past a bound of 1
    with pytest.raises(SizeBoundExceeded):
        preimage_subgroup([], spec, size_bound=1)
    assert preimage_subgroup([], spec, size_bound=2).order == 2


def _assert_table_matches(table, oracle, rng):
    assert table.elements == oracle.elements
    assert table.generators == oracle.generators
    # the action of every generator on every index
    for g, col in zip(oracle.generators, oracle.gen_cols):
        gi = table.idx(g)
        assert [table.mul_idx(i, gi) for i in range(table.order)] == col
    for _ in range(300):
        i, j = rng.randrange(table.order), rng.randrange(table.order)
        assert table.mul_idx(i, j) == oracle.mul_idx(i, j)


def _assert_matches_bfs(table, oracle, rng):
    z = table.generators[-1]
    assert z == CoverElem(1, identity_perm(len(z.perm)))
    _assert_table_matches(table, oracle, rng)


@pytest.mark.parametrize("which", ["sym", "alt"])
def test_generate_matches_the_bfs_on_sylow_subgroups(which):
    rng = random.Random(21)
    for n in range(4, 13):
        gens = (sylow2_sym_generators(n) if which == "sym"
                else sylow2_alt_generators(n))
        _assert_table_matches(
            FiniteGroupTable.generate(gens),
            BfsTable(gens, compose, identity_perm(n)), rng)


def test_reference_tables_match_the_bfs():
    rng = random.Random(23)
    for order in (2, 3, 8, 12):
        _assert_table_matches(
            cyclic_table(order),
            BfsTable([1], lambda a, b: (a + b) % order, 0), rng)
    for order in (8, 16, 32):
        _assert_table_matches(
            generalized_quaternion_table(order),
            BfsTable([(1, 0), (0, 1)], quaternion_mul(order), (0, 0)), rng)


@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_cover_subgroup_matches_the_bfs(variant):
    # random cover elements with a repeat and the identity among them,
    # the Q8 witnesses, a pair with a central bit, and z alone
    rng = random.Random(24)
    for n in range(4, 7):
        cov = get_cover(CoverSpec(n, variant))

        def random_elem():
            img = list(range(1, n + 1))
            rng.shuffle(img)
            return CoverElem(rng.randint(0, 1), tuple(img))

        for k in (1, 2, 3):
            gens = [random_elem() for _ in range(k)]
            gens += [gens[0], cov.identity]
            _assert_table_matches(cover_subgroup(gens, cov.spec),
                                  BfsTable(gens, cov.mul, cov.identity), rng)
        for gens in ([cov.word(1, 2, 3, 1, 2, 3), cov.word(1, 3)],
                     [cov.word(1, 2, 3), cov.mul(cov.z, cov.gen(2))],
                     [cov.z]):
            _assert_table_matches(cover_subgroup(gens, cov.spec),
                                  BfsTable(gens, cov.mul, cov.identity), rng)


def test_table_constructor_needs_every_element_reached():
    with pytest.raises(ValueError, match="do not reach every element"):
        FiniteGroupTable(list(range(4)), 0, [2], [[2, 3, 0, 1]])
    t = FiniteGroupTable(list(range(4)), 0, [1], [[1, 2, 3, 0]])
    assert [t.mul_idx(i, 3) for i in range(4)] == [3, 0, 1, 2]


def test_generate_without_generators_is_trivial():
    assert FiniteGroupTable.generate([]).elements == [()]
    t = FiniteGroupTable.generate([identity_perm(5)] * 2)
    assert (t.order, t.generators) == (1, [])
    with pytest.raises(SizeBoundExceeded,
                       match="^closure exceeded 0 elements$"):
        FiniteGroupTable.generate([identity_perm(5)], 0)
    with pytest.raises(SizeBoundExceeded,
                       match="^closure exceeded 23 elements$"):
        FiniteGroupTable.generate(
            [adjacent_transposition(4, i) for i in (1, 2, 3)], 23)


def test_generate_matches_the_bfs_on_symmetric_groups():
    rng = random.Random(22)
    for n in range(4, 8):
        gens = [adjacent_transposition(n, i) for i in range(1, n)]
        _assert_table_matches(
            FiniteGroupTable.generate(gens),
            BfsTable(gens, compose, identity_perm(n)), rng)


@pytest.mark.parametrize("variant", ["plus", "minus"])
@pytest.mark.parametrize("which", ["sym", "alt"])
def test_sylow_preimages_match_the_cover_bfs(which, variant):
    rng = random.Random(12)
    for n in range(4, 13):
        spec = CoverSpec(n, variant)
        gens = (sylow2_sym_generators(n) if which == "sym"
                else sylow2_alt_generators(n))
        _assert_matches_bfs(preimage_subgroup(gens, spec),
                            BfsCoverTable(gens, spec), rng)


@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_alt_and_full_tables_match_the_cover_bfs(variant):
    rng = random.Random(7)
    for n in range(4, 8):
        spec = CoverSpec(n, variant)
        s = [adjacent_transposition(n, i) for i in range(1, n)]
        for which, gens in (("alt", [compose(a, b) for a, b in zip(s, s[1:])]),
                            ("full", s)):
            _assert_matches_bfs(subgroup_table(spec, which),
                                BfsCoverTable(gens, spec), rng)


def test_alt_cover_subgroup():
    spec = CoverSpec(4, "plus")
    t = subgroup_table(spec, "alt")
    assert t.order == 24
    assert all(parity(e.perm) == 0 for e in t.elements)
    cov = get_cover(spec)
    assert cov.z in t.index
    assert cov.gen(1) not in t.index


def test_subgroup_table():
    t = subgroup_table(CoverSpec(6, "minus"), "sylow2")
    assert t.order == 2 ** (nu2_factorial(6) + 1)
    assert subgroup_table(CoverSpec(4, "plus"), "full").order == 48
    with pytest.raises(ValueError, match="unknown subgroup kind"):
        subgroup_table(CoverSpec(4, "plus"), "klein")


# ---------------------------------------------------------------------------
# centers, classes, isomorphism
# ---------------------------------------------------------------------------

def test_center_of_sylow_cover_is_z():
    spec = CoverSpec(8, "minus")
    t = preimage_subgroup(sylow2_sym_generators(8), spec)
    cov = get_cover(spec)
    assert center(t) == [cov.identity, cov.z]


def test_center_of_abelian_group_is_everything():
    t = cyclic_table(8)
    assert center(t) == t.elements == list(range(8))


def test_conjugacy_classes_small():
    t = cyclic_table(2)
    classes = conjugacy_classes(t)
    assert [len(c) for c in classes] == [1, 1]
    q8 = generalized_quaternion_table(8)
    sizes = sorted(len(c) for c in conjugacy_classes(q8))
    assert sizes == [1, 1, 2, 2, 2]


def test_conjugacy_class_count_matches_chartab(zoo):
    table, _ = zoo.sylow_cover(6, "plus", "sym")
    ct = zoo.chartab(6, "plus", "sym")
    assert len(conjugacy_classes(table)) == len(ct.degrees)


def test_iso_small():
    q8 = generalized_quaternion_table(8)
    h4 = preimage_subgroup(sylow2_alt_generators(4), CoverSpec(4, "plus"))
    assert iso_small(h4, q8)
    assert not iso_small(q8, cyclic_table(8))
    q16 = generalized_quaternion_table(16)
    h6 = preimage_subgroup(sylow2_alt_generators(6), CoverSpec(6, "plus"))
    assert iso_small(h6, q16)
    with pytest.raises(SizeBoundExceeded):
        iso_small(cyclic_table(200), cyclic_table(200))


def test_alt_cover_same_for_both_variants_small():
    # the two covers restrict to isomorphic double covers of A_4; for n = 5
    # compare order multisets (the group is past the backtracking bound)
    a_plus = subgroup_table(CoverSpec(4, "plus"), "alt")
    a_minus = subgroup_table(CoverSpec(4, "minus"), "alt")
    assert iso_small(a_plus, a_minus)
    b_plus = subgroup_table(CoverSpec(5, "plus"), "alt")
    b_minus = subgroup_table(CoverSpec(5, "minus"), "alt")
    assert (b_plus.element_order_multiset()
            == b_minus.element_order_multiset())


def test_lemma_witnesses_q8():
    for n in (4, 5):
        for variant in ("plus", "minus"):
            cov = get_cover(CoverSpec(n, variant))
            sigma = cov.word(1, 2, 3, 1, 2, 3)
            tau = cov.word(1, 3)
            assert sigma.perm == from_cycles(n, [(1, 3), (2, 4)])
            assert tau.perm == from_cycles(n, [(1, 2), (3, 4)])
            z = cov.z
            assert cov.mul(sigma, sigma) == z
            assert cov.mul(tau, tau) == z
            assert cov.mul(sigma, tau) == cov.mul(z, cov.mul(tau, sigma))
            witness = cover_subgroup([sigma, tau], cov.spec, 64)
            assert witness.order == 8
            assert iso_small(witness, generalized_quaternion_table(8))


def test_lemma_witnesses_q16():
    for n in (6, 7):
        cov = get_cover(CoverSpec(n, "plus"))
        x = cov.word(1, 2, 3, 5)
        y = cov.word(1, 3)
        assert x.perm == from_cycles(n, [(1, 2, 3, 4), (5, 6)])
        assert cov.power(x, 8) == cov.identity
        assert cov.power(y, 4) == cov.identity
        assert cov.power(y, 2) == cov.power(x, 4)
        assert cov.mul(cov.mul(y, x), cov.inv(y)) == cov.inv(x)
        witness = cover_subgroup([x, y], cov.spec, 64)
        assert witness.order == 16
        assert iso_small(witness, generalized_quaternion_table(16))

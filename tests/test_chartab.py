import hashlib
import math
import random
import types

import numpy as np
import pytest

from schur_ed import chartab, cli
from schur_ed.chartab import (
    _charpoly,
    _check_products,
    _ClassData,
    _eigenspaces,
    _gf_rref,
    _hessenberg,
    _inverses,
    _mul,
    _roots,
    _spin_degrees,
    _split_spaces,
    count_min_faithful,
    dixon_character_table,
    dixon_prime,
    faithful_degrees,
    min_faithful_irrep_dim,
)
from schur_ed.covers import (
    MAX_SIZE_BOUND,
    CoverSpec,
    FiniteGroupTable,
    SizeBoundExceeded,
    VerificationError,
    get_cover,
    preimage_subgroup,
    subgroup_table,
)
from schur_ed.perms import sylow2_sym_generators
from oracles import (
    class_matrices_by_elements,
    class_matrix,
    cyclic_table,
    det_mod_p,
    generalized_quaternion_table,
    inv_idx,
    nullspace_mod_p,
    order_of_idx,
    regular_representation_degrees,
    right_column,
    rref_mod_p,
    scan_split_spaces,
    schur_spin_degrees,
)


def test_dixon_prime_constraints():
    p = dixon_prime(8, 4)
    assert p % 4 == 1 and p > 2 * 2  # > 2*sqrt(8)


def test_trivial_group_has_one_degree_one_character():
    trivial = FiniteGroupTable.generate([])
    assert dixon_character_table(trivial).degrees == [1]


def test_degrees_c2_and_cyclic():
    assert dixon_character_table(cyclic_table(2)).degrees == [1, 1]
    assert dixon_character_table(cyclic_table(6)).degrees == [1] * 6


def test_degrees_q8_q16_match_regular_rep_oracle():
    q8 = generalized_quaternion_table(8)
    q16 = generalized_quaternion_table(16)
    ct8 = dixon_character_table(q8)
    ct16 = dixon_character_table(q16)
    assert ct8.degrees == [1, 1, 1, 1, 2]
    assert ct16.degrees == [1, 1, 1, 1, 2, 2, 2]
    assert ct8.degrees == regular_representation_degrees(q8)
    assert ct16.degrees == regular_representation_degrees(q16)


def test_sum_of_squares_and_powers_of_two(zoo):
    for n, variant in ((6, "plus"), (7, "minus"), (8, "plus")):
        table, _ = zoo.sylow_cover(n, variant, "sym")
        ct = zoo.chartab(n, variant, "sym")
        assert sum(d * d for d in ct.degrees) == table.order
        assert all(d & (d - 1) == 0 for d in ct.degrees)  # powers of 2


@pytest.mark.parametrize("which", ["sym", "alt"])
def test_class_matrices_match_the_per_element_oracle(zoo, which):
    for n in range(4, 13):
        table, _ = zoo.sylow_cover(n, "plus", which)
        data = _ClassData(table)
        want = class_matrices_by_elements(table, data.classes)
        for r in range(data.n):
            assert np.array_equal(class_matrix(data, r), want[r]), (n, r)


def _assert_class_data_matches_the_folds(table, data):
    # every representative's right column against the per-word fold, and
    # its inverse class and order against inv_idx and order_of_idx
    class_of = np.empty(table.order, dtype=np.int64)
    for t, cls in enumerate(data.classes):
        class_of[cls] = t
    for i, u in enumerate(data.rows.tolist()):
        want = class_of[right_column(table, data.reps[u])] + data.n * i
        assert np.array_equal(data._right[i], want), u
    assert data.inv_class == [int(class_of[inv_idx(table, r)])
                              for r in data.reps]
    assert data.orders == [order_of_idx(table, r) for r in data.reps]
    assert data.exponent() == math.lcm(*data.orders)


@pytest.mark.parametrize("variant", ["plus", "minus"])
@pytest.mark.parametrize("which", ["sym", "alt"])
def test_class_data_of_the_sylow_covers_matches_the_folds(zoo, which,
                                                          variant):
    # the whole table walks every representative's column, the spin block
    # those of R alone; both take every inverse and order from power_cycles
    for n in range(4, 13):
        table, z = zoo.sylow_cover(n, variant, which)
        _assert_class_data_matches_the_folds(table, _ClassData(table))
        _assert_class_data_matches_the_folds(table, _ClassData(table, z))


@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_class_data_of_the_alt_and_full_tables_matches_the_folds(variant):
    for n in range(4, 8):
        spec = CoverSpec(n, variant)
        z = get_cover(spec).z
        for which in ("alt", "full"):
            table = subgroup_table(spec, which)
            _assert_class_data_matches_the_folds(table, _ClassData(table))
            _assert_class_data_matches_the_folds(table, _ClassData(table, z))
            if table.order <= 1500:
                # the exponent is the lcm of the orders of all elements
                assert _ClassData(table).exponent() == math.lcm(
                    *(order_of_idx(table, i) for i in range(table.order)))


@pytest.mark.parametrize("gather", [1, chartab._GATHER])
def test_mixture_is_the_seeded_combination_of_class_matrices(
        zoo, monkeypatch, gather):
    monkeypatch.setattr(chartab, "_GATHER", gather)
    for n, which in ((6, "sym"), (10, "alt"), (12, "sym")):
        table, _ = zoo.sylow_cover(n, "plus", which)
        data = _ClassData(table)
        p = dixon_prime(table.order, data.exponent())
        for classes in (range(1, min(data.n - 1, 8) + 1), range(1, data.n)):
            got = data.mixture(random.Random(n), p, classes)
            rng = random.Random(n)
            want = sum(rng.randrange(1, p) * class_matrix(data, r)
                       for r in classes) % p
            assert np.array_equal(got, want), (n, which, classes)


@pytest.mark.parametrize("which", ["sym", "alt"])
def test_dixon_table_does_not_depend_on_the_seed(zoo, which):
    # the mixtures differ from seed to seed, the common eigenlines do not
    for n in range(8, 13):
        table, _ = zoo.sylow_cover(n, "plus", which)
        want = zoo.chartab(n, "plus", which)
        for seed in range(1, 5):
            assert dixon_character_table(table, seed=seed) == want, (n, seed)


def test_a_bad_mixture_ends_in_the_right_table_through_the_retry(
        zoo, monkeypatch):
    table, _ = zoo.sylow_cover(8, "plus", "sym")
    want = zoo.chartab(8, "plus", "sym")
    n = want.n_classes
    assert n > 9
    # with equal coefficients the mixture of all B_r, r >= 1, is -1 on
    # every nontrivial character: the first 16 rounds split nothing, and
    # fresh mixtures in the rounds left under the cap split the rest
    assert 16 < chartab._MAX_ROUNDS
    rigged = min(n - 1, 8) + 16 * (n - 1)

    class Rigged:
        calls = 0

        def __init__(self, seed):
            self.rng = random.Random(seed)

        def randrange(self, start, stop):
            Rigged.calls += 1
            if Rigged.calls <= rigged:
                return 1
            return self.rng.randrange(start, stop)

    monkeypatch.setattr(chartab, "random",
                        types.SimpleNamespace(Random=Rigged))
    assert dixon_character_table(table) == want
    assert Rigged.calls > rigged


def test_the_square_table_inverts_squaring_on_the_possible_degrees():
    # d <= isqrt(|G|) < p/2, so d -> d^2 mod p is one to one there
    rng = random.Random(35)
    cases = [(2 ** k, 2 ** rng.randint(1, min(k, 8)))
             for k in rng.sample(range(1, 32), 8)]
    for n in rng.sample(range(4, 13), 4):
        e = math.lcm(*range(1, n + 1))
        cases += [(math.factorial(n), e), (2 * math.factorial(n), 2 * e)]
    for order, exponent in cases:
        p = dixon_prime(order, exponent)
        roots = chartab._square_roots(order, p)
        assert len(roots) == math.isqrt(order), (order, exponent)
        assert all(roots[d * d % p] == d
                   for d in range(1, math.isqrt(order) + 1)), (order, p)


def _counting_mixtures(monkeypatch):
    calls = []
    mixture = _ClassData.mixture

    def counting(self, *args):
        calls.append(args)
        return mixture(self, *args)

    monkeypatch.setattr(_ClassData, "mixture", counting)
    return calls


@pytest.mark.parametrize("spin", [False, True])
def test_a_corrupted_norm_raises_after_one_split(zoo, monkeypatch, spin):
    # a wrong degree is a bug, not bad luck: it raises at once, with no
    # mixture drawn past those of the clean run
    table, z = zoo.sylow_cover(8, "plus", "sym")

    def run():
        return _spin_degrees(table, z) if spin else dixon_character_table(
            table)

    calls = _counting_mixtures(monkeypatch)
    run()
    clean = len(calls)
    assert clean >= 1
    size_inverses = _ClassData.size_inverses
    monkeypatch.setattr(_ClassData, "size_inverses",
                        lambda self, p: 2 * size_inverses(self, p) % p)
    calls.clear()
    with pytest.raises(VerificationError,
                       match="degree recovery|sum of squared degrees"):
        run()
    assert len(calls) == clean


def test_the_split_gives_up_after_its_rounds(zoo, monkeypatch):
    # with equal coefficients no round splits anything
    table, _ = zoo.sylow_cover(8, "plus", "sym")

    class Equal:
        def __init__(self, seed):
            pass

        def randrange(self, start, stop):
            return 1

    monkeypatch.setattr(chartab, "random",
                        types.SimpleNamespace(Random=Equal))
    calls = _counting_mixtures(monkeypatch)
    with pytest.raises(VerificationError, match=(
            f"^common eigenspaces not 1-dimensional after "
            f"{chartab._MAX_ROUNDS} rounds$")):
        dixon_character_table(table)
    assert len(calls) == 1 + chartab._MAX_ROUNDS


def test_the_inverse_table_is_built_once_per_dixon_run(capsys, monkeypatch):
    # p is fixed for the whole run, so one table of inverses serves every
    # space split, in every round
    built, solved = [], []
    inverses, eigenvectors = chartab._inverses, chartab._eigenvectors

    def counting_inverses(p):
        built.append(p)
        return inverses(p)

    def counting_eigenvectors(*args):
        solved.append(args)
        return eigenvectors(*args)

    monkeypatch.setattr(chartab, "_inverses", counting_inverses)
    monkeypatch.setattr(chartab, "_eigenvectors", counting_eigenvectors)
    assert cli.main(["chartab", "-n", "12", "--subgroup", "sylow2"]) == 0
    capsys.readouterr()
    assert len(built) == 1 and len(solved) > 1


# ---------------------------------------------------------------------------
# the spin block against the whole table
# ---------------------------------------------------------------------------

def _odd_degrees_of_the_whole_table(zoo, n, variant, which):
    table, z = zoo.sylow_cover(n, variant, which)
    return sorted(faithful_degrees(table, z, zoo.chartab(n, variant, which)))


@pytest.mark.parametrize("which", ["sym", "alt"])
@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_spin_block_degrees_equal_the_whole_tables(zoo, which, variant):
    for n in range(4, 15):
        table, z = zoo.sylow_cover(n, variant, which)
        got = faithful_degrees(table, z)
        assert got == _odd_degrees_of_the_whole_table(zoo, n, variant,
                                                      which), n
        assert 2 * sum(d * d for d in got) == table.order, n


def test_spin_block_does_not_depend_on_the_seed(zoo, monkeypatch):
    # the mixtures differ from seed to seed, the common eigenlines do not
    cases = [zoo.sylow_cover(n, "plus", which)
             for n, which in ((8, "sym"), (12, "alt"), (14, "sym"))]
    wants = [faithful_degrees(table, z) for table, z in cases]
    for shift in range(1, 4):
        seeds = []

        def shifted(seed, shift=shift):
            seeds.append(seed)
            return random.Random(seed + shift)

        monkeypatch.setattr(chartab, "random",
                            types.SimpleNamespace(Random=shifted))
        for (table, z), want in zip(cases, wants):
            assert faithful_degrees(table, z) == want, shift
        assert len(seeds) == len(cases)


@pytest.mark.parametrize("which", ["full", "alt"])
@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_spin_block_degrees_equal_schurs_formula(which, variant):
    for n in range(4, 9):
        spec = CoverSpec(n, variant)
        got = faithful_degrees(subgroup_table(spec, which), get_cover(spec).z)
        assert got == schur_spin_degrees(n, which), n


@pytest.mark.slow
@pytest.mark.parametrize("which", ["full", "alt"])
@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_spin_block_degrees_equal_schurs_formula_at_9(which, variant):
    spec = CoverSpec(9, variant)
    table = subgroup_table(spec, which, size_bound=10 ** 6)
    assert faithful_degrees(table, get_cover(spec).z) == schur_spin_degrees(
        9, which)


@pytest.mark.slow
@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_spin_block_degrees_equal_the_whole_tables_at_16_sym(variant):
    # built here rather than in the shared zoo fixture, so the order-131072
    # table is freed after the test
    spec = CoverSpec(16, variant)
    table = preimage_subgroup(sylow2_sym_generators(16), spec)
    z = get_cover(spec).z
    whole = faithful_degrees(table, z, dixon_character_table(table))
    assert faithful_degrees(table, z) == sorted(whole) == [128, 128]


def test_spin_block_counts_only_the_paired_classes(zoo):
    # the right columns of the rows t < pair[t] alone; pairs are symmetric
    # and the identity class pairs with the class of z
    table, z = zoo.sylow_cover(12, "plus", "sym")
    data = _ClassData(table, z)
    assert np.array_equal(data.pair[data.pair], np.arange(data.n))
    assert data.rows[0] == 0 and data.pair[0] == data.classes.index(
        [table.idx(z)])
    assert data._right.shape == (len(data.rows), table.order)
    assert 2 * len(data.rows) < data.n


def test_spin_block_of_small_groups():
    assert faithful_degrees(generalized_quaternion_table(16), (4, 0)) == [
        2, 2]
    with pytest.raises(VerificationError, match="center"):
        faithful_degrees(cyclic_table(4), 2)


def test_spin_block_refuses_a_z_that_is_not_an_involution():
    # z's own right column shows z != 1 and z * z = 1; a group with a
    # trivial center passes the center check with z = 1 and is refused
    # here, and every other bad z fails the center check first
    refused = "^z is not a central involution of the group$"
    trivial = FiniteGroupTable.generate([])
    s3 = FiniteGroupTable.generate([(2, 1, 3), (1, 3, 2)])
    for table in (trivial, s3):
        with pytest.raises(VerificationError, match=refused):
            _spin_degrees(table, table.identity)
        with pytest.raises(VerificationError, match=refused):
            faithful_degrees(table, table.identity)
    c4 = cyclic_table(4)
    for z in (0, 1, 2, 3):  # the center of C4 is all of it
        with pytest.raises(VerificationError, match="^center is not"):
            _spin_degrees(c4, z)
    with pytest.raises(VerificationError, match="^center is not"):
        _spin_degrees(generalized_quaternion_table(8), (0, 0))
    assert _spin_degrees(generalized_quaternion_table(8), (2, 0)) == [2]


def test_the_spin_block_reads_the_center_off_its_classes(monkeypatch):
    # ed2 --computed and table1 --verify-max split the spin block without
    # a character table, and check the center on the classes of size 1
    calls = []
    real = chartab.center
    monkeypatch.setattr(chartab, "center",
                        lambda table: calls.append(table) or real(table))
    assert cli.main(["ed2", "-n", "8", "--which", "alt", "--computed"]) == 0
    assert cli.main(["table1", "--n-max", "8", "--verify-max", "8"]) == 0
    assert calls == []


def test_faithful_degrees_read_the_center_off_the_class_sizes():
    c4 = cyclic_table(4)
    with pytest.raises(VerificationError, match="center"):
        faithful_degrees(c4, 2, dixon_character_table(c4))
    trivial = FiniteGroupTable.generate([])
    with pytest.raises(VerificationError,
                       match="^z is not a central involution of the group$"):
        faithful_degrees(trivial, trivial.identity,
                         dixon_character_table(trivial))
    q8 = generalized_quaternion_table(8)
    assert faithful_degrees(q8, (2, 0), dixon_character_table(q8)) == [2]


def test_one_paired_class_needs_no_split(monkeypatch):
    # {1, z}: m = 1, so no mixture is drawn
    class NoDraws:
        def __init__(self, seed):
            pass

        def randrange(self, start, stop):
            raise AssertionError("a mixture was drawn")

    monkeypatch.setattr(chartab, "random",
                        types.SimpleNamespace(Random=NoDraws))
    assert faithful_degrees(cyclic_table(2), 1) == [1]
    assert faithful_degrees(generalized_quaternion_table(8), (2, 0)) == [2]


def test_a_bad_spin_mixture_ends_in_the_right_degrees_through_the_retry(
        zoo, monkeypatch):
    table, z = zoo.sylow_cover(8, "plus", "sym")
    want = _odd_degrees_of_the_whole_table(zoo, 8, "plus", "sym")
    m = len(_ClassData(table, z).rows)
    assert m > 1
    # a coefficient p is 0 mod p, so the first mixture and those of the
    # first 16 rounds are 0 and split nothing; fresh mixtures in the rounds
    # left under the cap split the space
    assert 16 < chartab._MAX_ROUNDS
    rigged = min(m - 1, 8) + 16 * (m - 1)

    class Rigged:
        calls = 0

        def __init__(self, seed):
            self.rng = random.Random(seed)

        def randrange(self, start, stop):
            Rigged.calls += 1
            if Rigged.calls <= rigged:
                return stop
            return self.rng.randrange(start, stop)

    monkeypatch.setattr(chartab, "random",
                        types.SimpleNamespace(Random=Rigged))
    assert faithful_degrees(table, z) == want
    assert Rigged.calls > rigged


def test_ed2_computed_builds_no_whole_table(monkeypatch):
    from schur_ed.edcalc import ed2_computed

    made = []

    class Recording(_ClassData):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    def refuse(*args, **kwargs):
        raise AssertionError("the whole table was built")

    monkeypatch.setattr(chartab, "_ClassData", Recording)
    monkeypatch.setattr(chartab, "dixon_character_table", refuse)
    assert ed2_computed(12, "sym", "minus") == 32
    [data] = made
    assert data._right.shape[0] == len(data.rows) < data.n


def test_min_faithful_q8():
    q8 = generalized_quaternion_table(8)
    z = (2, 0)  # x^2 in the dicyclic coordinates
    assert min_faithful_irrep_dim(q8, z) == 2
    assert count_min_faithful(q8, z) == 1


def test_min_faithful_trivial_center_group():
    # the two-element group {1, z}: the sign character is faithful
    t = cyclic_table(2)
    assert min_faithful_irrep_dim(t, 1) == 1


def test_min_faithful_requires_center_z():
    c4 = cyclic_table(4)
    with pytest.raises(VerificationError):
        min_faithful_irrep_dim(c4, 2)  # center is all of C4, refuse


def test_min_faithful_p8(zoo):
    table, z = zoo.sylow_cover(8, "plus", "sym")
    ct = zoo.chartab(8, "plus", "sym")
    assert min_faithful_irrep_dim(table, z, ct) == 8
    assert count_min_faithful(table, z, ct) in (1, 2)


def test_determinism_same_seed():
    q16 = generalized_quaternion_table(16)
    a = dixon_character_table(q16, seed=7)
    b = dixon_character_table(q16, seed=7)
    assert a.degrees == b.degrees
    assert a.values == b.values
    assert a.prime == b.prime


def test_plus_minus_agree_on_min_faithful(zoo):
    for n in (6, 9):
        dims = set()
        for variant in ("plus", "minus"):
            table, z = zoo.sylow_cover(n, variant, "sym")
            ct = zoo.chartab(n, variant, "sym")
            dims.add(min_faithful_irrep_dim(table, z, ct))
        assert len(dims) == 1


def test_chartab_json_roundtrippable(zoo):
    ct = zoo.chartab(6, "plus", "alt")
    data = ct.to_json()
    assert data["order"] == 16  # 2 * |Sylow_2(A_6)|
    assert len(data["degrees"]) == len(data["central_signs"])
    import json

    json.dumps(data)  # serializable


# ---------------------------------------------------------------------------
# the characteristic-polynomial split against the eigenvalue scan
# ---------------------------------------------------------------------------

def _random_invertible(rng, k, p):
    while True:
        P = np.array([[rng.randrange(p) for _ in range(k)] for _ in range(k)],
                     dtype=np.int64)
        if det_mod_p(P, p):
            return P


def _conjugate(A, P, p):
    P_inv = np.array(rref_mod_p(np.hstack([P, np.eye(len(P), dtype=np.int64)]),
                                p)[0][:, len(P):])
    return P @ A @ P_inv % p


def _charpoly_cases(rng, p):
    """Dense, derogatory and zero-subdiagonal k x k matrices, k < p."""
    def rand(rows, cols):
        return np.array([[rng.randrange(p) for _ in range(cols)]
                         for _ in range(rows)], dtype=np.int64)

    for k in range(1, min(p - 1, 12) + 1):
        yield rand(k, k)
        yield np.zeros((k, k), dtype=np.int64)
        yield rng.randrange(p) * np.eye(k, dtype=np.int64)
        repeated = np.diag([rng.choice((1, 2)) for _ in range(k)])
        yield _conjugate(repeated, _random_invertible(rng, k, p), p)
        if k < 2:
            continue
        h = k // 2
        twice = np.zeros((k, k), dtype=np.int64)  # A + A, plus c if k is odd
        twice[:h, :h] = twice[h:2 * h, h:2 * h] = rand(h, h)
        twice[-1, -1] += rng.randrange(p) * (k % 2)
        yield twice
        upper = rand(k, k)  # block upper triangular
        upper[h:, :h] = 0
        yield upper
        no_pivot = rand(k, k)  # nothing to reduce in the first column
        no_pivot[1:, 0] = 0
        yield no_pivot
        hess = np.triu(rand(k, k), -1)  # Hessenberg, zero subdiagonal entries
        hess[1, 0] = 0
        i = rng.randrange(1, k)
        hess[i, i - 1] = 0
        yield hess


@pytest.mark.parametrize("p", [7, 13, 97])
def test_charpoly_equals_det_xI_minus_R(p):
    rng = random.Random(p)
    for R in _charpoly_cases(rng, p):
        k = len(R)
        coeffs = _charpoly(_hessenberg(R, p)[0], p)
        assert len(coeffs) == k + 1 and coeffs[k] == 1
        for lam in range(p):
            value = 0
            for c in reversed(coeffs.tolist()):
                value = (value * lam + c) % p
            assert value == det_mod_p(lam * np.eye(k, dtype=np.int64) - R, p)


@pytest.mark.parametrize("p", [7, 13, 97])
def test_hessenberg_keeps_an_invertible_similarity(p):
    rng = random.Random(p)
    for R in _charpoly_cases(rng, p):
        H, X = _hessenberg(R, p)
        assert not np.tril(H, -2).any()
        assert det_mod_p(X, p)
        assert np.array_equal(R @ X % p, X @ H % p)


def _rref_rows(S, p):
    return rref_mod_p(S, p)[0].tolist()


@pytest.mark.parametrize("p", [7, 13, 97])
def test_eigenspaces_equal_the_nullspaces_or_are_refused(p):
    # R is diagonalizable over GF(p) exactly when the nullspaces of
    # R - lambda I, lambda in GF(p), add up to the whole space; then the
    # split returns them in increasing lambda, else it raises
    rng = random.Random(p)
    split = refused = 0
    sizes = set()
    for R in _charpoly_cases(rng, p):
        k = len(R)
        sizes.add(k)
        want = [N for N in (
            nullspace_mod_p((R - lam * np.eye(k, dtype=np.int64)) % p, p)
            for lam in range(p)) if N.shape[0]]
        whole = [np.eye(k, dtype=np.int64)]
        if sum(N.shape[0] for N in want) == k:
            got = _split_spaces(whole, R, p, _inverses(p))
            assert ([_rref_rows(S, p) for S in got]
                    == [_rref_rows(N, p) for N in want])
            split += 1
        else:
            with pytest.raises(VerificationError):
                _split_spaces(whole, R, p, _inverses(p))
            refused += 1
    # the zero, scalar and conjugated repeated diagonal cases of every size
    # are diagonalizable; random dense ones mostly are not over GF(7)
    assert split >= 3 * len(sizes) and refused


@pytest.mark.parametrize("p", [7, 13, 97])
def test_a_jordan_block_is_refused(p):
    rng = random.Random(p)
    for k in range(2, 9):
        lam = rng.randrange(p)
        J = np.diag([lam, lam] + [rng.randrange(p) for _ in range(k - 2)])
        J[0, 1] = 1
        # J itself is triangular, so its Hessenberg blocks are 1 x 1 and
        # the second eigenvector of lam fails to extend; conjugated, the
        # blocks are mostly larger and lam has too few eigenvectors
        with pytest.raises(VerificationError, match="not diagonalizable"):
            _split_spaces([np.eye(k, dtype=np.int64)], J, p, _inverses(p))
        B = _conjugate(J, _random_invertible(rng, k, p), p)
        with pytest.raises(VerificationError):
            _split_spaces([np.eye(k, dtype=np.int64)], B, p, _inverses(p))


def test_roots_of_a_product_of_linear_factors():
    p = 97
    rng = random.Random(5)
    for _ in range(20):
        zeros = [rng.randrange(p) for _ in range(rng.randrange(1, 12))]
        coeffs = np.array([1], dtype=np.int64)
        for a in zeros:
            coeffs = (np.concatenate([[0], coeffs])
                      - a * np.concatenate([coeffs, [0]])) % p
        assert _roots(coeffs, p) == sorted(set(zeros))
    assert _roots(np.array([1, 0, 1]), 7) == []   # x^2 + 1 mod 7


def _space_set(spaces, p):
    return sorted(tuple(map(tuple, rref_mod_p(S, p)[0].tolist()))
                  for S in spaces)


@pytest.mark.parametrize("which", ["sym", "alt"])
def test_split_spaces_match_the_eigenvalue_scan(zoo, which):
    for n in range(4, 11):
        table, _ = zoo.sylow_cover(n, "plus", which)
        data = _ClassData(table)
        p = dixon_prime(table.order, data.exponent())
        rng = random.Random(n)
        M = sum(rng.randrange(1, p) * class_matrix(data, r)
                for r in range(1, min(data.n - 1, 8) + 1)) % p
        spaces = [np.eye(data.n, dtype=np.int64)]
        for B in [M] + [class_matrix(data, r) for r in range(1, data.n)]:
            if all(S.shape[0] == 1 for S in spaces):
                break
            got = _split_spaces(spaces, B, p, _inverses(p))
            assert _space_set(got, p) == _space_set(
                scan_split_spaces(spaces, B, p), p), (n, which)
            spaces = got
        assert all(S.shape[0] == 1 for S in spaces)


@pytest.mark.parametrize("which", ["sym", "alt"])
def test_the_first_split_of_the_whole_space_equals_a_split_of_its_basis(
        zoo, which):
    for n in range(4, 13):
        table, _ = zoo.sylow_cover(n, "plus", which)
        data = _ClassData(table)
        p = dixon_prime(table.order, data.exponent())
        B = data.mixture(random.Random(n), p, range(1, min(data.n - 1, 8) + 1))
        inv = _inverses(p)
        whole = _eigenspaces(B, p, inv)
        assert [_rref_rows(S, p) for S in whole] == [
            _rref_rows(S, p)
            for S in _split_spaces([np.eye(data.n, dtype=np.int64)], B, p,
                                   inv)]
        assert sum(S.shape[0] for S in whole) == data.n


# ---------------------------------------------------------------------------
# the row-wise reduction and the exact BLAS products
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 7, 97, 65537])
def test_row_wise_rref_equals_the_column_scan(p):
    # the reduced row echelon form of a row space is unique, so the two
    # eliminations must give the same rows and pivots
    rng = random.Random(p)

    def rand(rows, cols):
        return np.array([rng.randrange(p) for _ in range(rows * cols)],
                        dtype=np.int64).reshape(rows, cols)

    ranks = set()
    for _ in range(60):
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 13)
        rank = rng.randrange(0, min(rows, cols) + 1)
        M = rand(rows, rank) @ rand(rank, cols) % p   # rank at most `rank`
        if rows > 1 and rng.random() < 0.3:
            M[rng.randrange(rows)] = M[rng.randrange(rows)]
        if rng.random() < 0.3:
            M[:, rng.randrange(cols)] = 0
        S, pivots = _gf_rref(M + p * rng.randrange(3), p)
        want, want_pivots = rref_mod_p(M, p)
        assert pivots == want_pivots and np.array_equal(S, want), M
        assert np.array_equal(S[:, pivots], np.eye(len(pivots)))
        ranks.add((len(pivots), rows))
    # full rank, lower rank than the row count, and the zero space
    assert any(r == rows for r, rows in ranks)
    assert any(0 < r < rows for r, rows in ranks)
    assert any(r == 0 for r, _ in ranks)


def _object_product(A, B, p):
    return (A.astype(object) @ B.astype(object) % p).astype(np.int64)


@pytest.mark.parametrize("order, exponent, k", [
    # the largest order the size bound admits, with exponent 2^16: p = 786433
    (MAX_SIZE_BOUND, 1 << 16, 4096),
    # 2.S_12, the largest full cover under the bound: p = 110881
    (2 * math.factorial(12), 2 * math.lcm(*range(1, 13)), 2048),
])
def test_products_on_blas_are_exact_at_the_largest_tables(order, exponent, k):
    p = dixon_prime(order, exponent)
    _check_products(k, p)
    rng = np.random.default_rng(k)
    for rows, cols in ((1, 1), (5, 7), (16, 3)):
        A = rng.integers(0, p, (rows, k), dtype=np.int64)
        B = rng.integers(0, p, (k, cols), dtype=np.int64)
        assert np.array_equal(_mul(A, B, p), _object_product(A, B, p))
    # every product p - 1 times p - 1: the largest sums there are
    A = np.full((3, k), p - 1, dtype=np.int64)
    assert np.array_equal(_mul(A, A.T, p), _object_product(A, A.T, p))


def test_products_past_2_to_the_53_are_refused():
    for p in (7, 65537, 2147483647):
        k = -(-(1 << 53) // (p - 1) ** 2)   # the least k with k (p-1)^2 >= 2^53
        _check_products(k - 1, p)
        with pytest.raises(SizeBoundExceeded, match=f"p = {p}.*k = {k}"):
            _check_products(k, p)


def test_a_table_past_the_product_bound_exits_3_before_any_product(
        capsys, monkeypatch):
    # a prime this large never comes from dixon_prime on a table the CLI
    # accepts; the refusal must come before the first product
    def no_product(*args):
        raise AssertionError("a product was made")

    monkeypatch.setattr(chartab, "dixon_prime", lambda order, exponent: 2**31 - 1)
    monkeypatch.setattr(chartab, "_mul", no_product)
    with pytest.raises(SizeBoundExceeded):
        dixon_character_table(generalized_quaternion_table(8))
    code = cli.main(["chartab", "-n", "4", "--subgroup", "sylow2"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_RESOURCE
    assert "resource bound exceeded" in err and "p = 2147483647" in err


CHARTAB_N12_SHA256 = (  # stdout of the eigenvalue-scan implementation
    "155f0d03441d3331bed7bcd812bedf00c131fd2b49d5bf17c9420bb5b64edb04")


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_chartab_n12_json_is_unchanged(capsys, seed):
    code = cli.main(["--seed", str(seed), "chartab", "-n", "12",
                     "--subgroup", "sylow2"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHARTAB_N12_SHA256


CHARTAB_N14_SHA256 = (  # stdout before the Sylow closure ran on permutations
    "2d62e2432d83c728d3586e87c3029b2842c0528039f0cb065f6dca297fa2f5a8")


@pytest.mark.slow
def test_chartab_n14_json_is_unchanged(capsys):
    code = cli.main(["chartab", "-n", "14", "--subgroup", "sylow2"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHARTAB_N14_SHA256


CHARTAB_N16_SHA256 = (  # stdout while P was closed by a dict BFS
    "571eda71ee8a11f3694670634b06b877516c8a8f4416cbf20968fd7ffc6f17d7")


@pytest.mark.slow
def test_chartab_n16_json_is_unchanged(capsys):
    code = cli.main(["chartab", "-n", "16", "--subgroup", "sylow2"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHARTAB_N16_SHA256

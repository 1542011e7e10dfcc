import hashlib
import random
import types

import numpy as np
import pytest

from schur_ed import chartab, cli
from schur_ed.chartab import (
    DixonPrime,
    _charpoly,
    _ClassData,
    _hessenberg,
    _roots,
    _split_spaces,
    count_min_faithful,
    dixon_character_table,
    dixon_prime,
    faithful_degrees,
    min_faithful_irrep_dim,
)
from schur_ed.covers import (
    CoverSpec,
    VerificationError,
    cyclic_table,
    generalized_quaternion_table,
    get_cover,
    preimage_subgroup,
)
from schur_ed.perms import sylow2_sym_generators
from oracles import (
    class_matrices_by_elements,
    det_mod_p,
    nullspace_mod_p,
    regular_representation_degrees,
    rref_mod_p,
    scan_split_spaces,
)


def test_dixon_prime_constraints():
    dp = dixon_prime(8, 4)
    assert dp.p % 4 == 1 and dp.p > 2 * 2  # > 2*sqrt(8)
    with pytest.raises(ValueError):
        DixonPrime(10, 4)
    with pytest.raises(ValueError):
        DixonPrime(11, 4)  # 11 % 4 != 1


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
            assert np.array_equal(data.class_matrix(r), want[r]), (n, r)


@pytest.mark.parametrize("gather", [1, chartab._GATHER])
def test_mixture_is_the_seeded_combination_of_class_matrices(
        zoo, monkeypatch, gather):
    monkeypatch.setattr(chartab, "_GATHER", gather)
    for n, which in ((6, "sym"), (10, "alt"), (12, "sym")):
        table, _ = zoo.sylow_cover(n, "plus", which)
        data = _ClassData(table)
        p = dixon_prime(table.order, data.exponent()).p
        for classes in (range(1, min(data.n - 1, 8) + 1), range(1, data.n)):
            got = data.mixture(random.Random(n), p, classes)
            rng = random.Random(n)
            want = sum(rng.randrange(1, p) * data.class_matrix(r)
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
    # every nontrivial character, so the first attempt draws its first
    # mixture and every round's and then fails
    first_attempt = min(n - 1, 8) + chartab._MAX_ROUNDS * (n - 1)

    class Rigged:
        calls = 0

        def __init__(self, seed):
            self.rng = random.Random(seed)

        def randrange(self, start, stop):
            Rigged.calls += 1
            if Rigged.calls <= first_attempt:
                return 1
            return self.rng.randrange(start, stop)

    monkeypatch.setattr(chartab, "random",
                        types.SimpleNamespace(Random=Rigged))
    assert dixon_character_table(table) == want
    assert Rigged.calls > first_attempt


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
    # a coefficient p is 0 mod p, so the first attempt's mixtures are 0,
    # split nothing, and the attempt fails after its first mixture and
    # every round's
    first_attempt = min(m - 1, 8) + chartab._MAX_ROUNDS * (m - 1)

    class Rigged:
        calls = 0

        def __init__(self, seed):
            self.rng = random.Random(seed)

        def randrange(self, start, stop):
            Rigged.calls += 1
            if Rigged.calls <= first_attempt:
                return stop
            return self.rng.randrange(start, stop)

    monkeypatch.setattr(chartab, "random",
                        types.SimpleNamespace(Random=Rigged))
    assert faithful_degrees(table, z) == want
    assert Rigged.calls > first_attempt


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
            got = _split_spaces(whole, R, p)
            assert ([_rref_rows(S, p) for S in got]
                    == [_rref_rows(N, p) for N in want])
            split += 1
        else:
            with pytest.raises(VerificationError):
                _split_spaces(whole, R, p)
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
            _split_spaces([np.eye(k, dtype=np.int64)], J, p)
        B = _conjugate(J, _random_invertible(rng, k, p), p)
        with pytest.raises(VerificationError):
            _split_spaces([np.eye(k, dtype=np.int64)], B, p)


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
        p = dixon_prime(table.order, data.exponent()).p
        rng = random.Random(n)
        M = sum(rng.randrange(1, p) * data.class_matrix(r)
                for r in range(1, min(data.n - 1, 8) + 1)) % p
        spaces = [np.eye(data.n, dtype=np.int64)]
        for B in [M] + [data.class_matrix(r) for r in range(1, data.n)]:
            if all(S.shape[0] == 1 for S in spaces):
                break
            got = _split_spaces(spaces, B, p)
            assert _space_set(got, p) == _space_set(
                scan_split_spaces(spaces, B, p), p), (n, which)
            spaces = got
        assert all(S.shape[0] == 1 for S in spaces)


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

import random

import numpy as np
import pytest

from schur_ed import edcalc
from schur_ed.covers import CoverSpec, preimage_subgroup
from schur_ed.edcalc import (
    alt_ed_bounds,
    ed2_computed,
    ed2_formula,
    ed_bounds,
    table1,
)
from schur_ed.perms import sylow2_alt_generators, sylow2_sym_generators

# Frozen from the reference table (n = 4..16):
ROW1 = ["2", "2", "3", "4", "4-5", "4-6", "5-7", "6-8", "6-9", "6-10",
        "7-11", "8-12", "8-13"]
ROW2 = ["2", "2", "2", "2", "8", "8", "8", "8", "16", "16", "32", "32", "128"]
ROW3 = ["2", "2", "4", "4", "8", "8-14", "8-15", "8-16", "16-25", "16-26",
        "32-43", "32-44", "128"]


def test_ed2_formula_values():
    assert ed2_formula(8, "alt") == 8
    assert ed2_formula(16, "alt") == 128
    assert ed2_formula(4, "sym") == 2
    assert [str(ed2_formula(n, "alt")) for n in range(4, 17)] == ROW2


def test_ed2_formula_rejects_small_n():
    with pytest.raises(ValueError):
        ed2_formula(3, "sym")


def test_alt_ed_bounds():
    assert alt_ed_bounds(8) == (4, 5)
    assert alt_ed_bounds(13) == (6, 10)
    assert alt_ed_bounds(6) == (3, 3)


def test_ed_bounds_examples():
    assert ed_bounds(9, "alt") == (8, 14)
    assert ed_bounds(16, "alt") == (128, 128)
    assert ed_bounds(14, "alt") == (32, 43)


def test_bounds_are_intervals_and_consistent():
    for n in range(4, 17):
        for which in ("sym", "alt"):
            lo, hi = ed_bounds(n, which)
            assert lo <= hi
            assert lo == ed2_formula(n, which)  # except small overrides
            break  # sym only; alt overrides checked below
    for n in range(4, 17):
        lo, hi = ed_bounds(n, "alt")
        assert lo <= hi
        assert lo >= ed2_formula(n, "alt")
    # row2 <= row3 lower bound never violated
    for n in range(4, 17):
        assert ed2_formula(n, "alt") <= ed_bounds(n, "alt")[0]


def test_corollary_collapses():
    for n in (4, 8):
        v = 2 ** ((n - 2) // 2)
        assert ed_bounds(n, "sym") == (v, v)
        assert ed_bounds(n, "alt") == (v, v)
        assert ed2_formula(n, "sym") == ed2_formula(n, "alt") == v
    for n in (6, 10, 12):
        v = 2 ** ((n - 2) // 2)
        assert ed_bounds(n, "sym") == (v, v)


def test_spin_bound_dominates_formula():
    for n in range(4, 65):
        assert 2 ** ((n - 1) // 2) >= ed2_formula(n, "sym")


def test_table1_rows():
    tab = table1(16)
    rows = tab.rows()
    assert rows[0][1:] == [str(n) for n in range(4, 17)]
    assert rows[1][1:] == ROW1
    assert rows[2][1:] == ROW2
    assert rows[3][1:] == ROW3


def test_table1_bounds_validation():
    with pytest.raises(ValueError):
        table1(17)
    with pytest.raises(ValueError):
        table1(3)
    # a verify_max above the recompute cap is refused, never silently lowered
    with pytest.raises(ValueError, match="verify_max <= 16"):
        table1(16, verify_max=17)


def test_table1_verified_marks(zoo):
    tab = table1(8, verify_max=6)
    assert tab.verified == {4: 2, 5: 2, 6: 2}


# table1 builds the preimage of A_(2k+1)'s Sylow 2-subgroup once, for
# n = 2k: the premise is that the odd-n generators are the even ones with
# the last point fixed, so the two preimages are the same table
@pytest.mark.parametrize("variant", ["plus", "minus"])
@pytest.mark.parametrize("gens_of", [sylow2_sym_generators,
                                     sylow2_alt_generators])
def test_odd_n_has_the_sylow_preimage_of_n_minus_1(variant, gens_of):
    rng = random.Random(5)
    for n in range(5, 16, 2):
        odd, even = gens_of(n), gens_of(n - 1)
        assert odd == [g + (n,) for g in even], n
        big = preimage_subgroup(odd, CoverSpec(n, variant))
        small = preimage_subgroup(even, CoverSpec(n - 1, variant))
        assert big.order == small.order
        assert np.array_equal(big._gen_cols, small._gen_cols), n
        for i in rng.sample(range(big.order), min(big.order, 20)):
            eps, perm = big.element(i)
            assert perm[-1] == n
            assert (eps, perm[:-1]) == tuple(small.element(i)), (n, i)


@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_table1_builds_each_distinct_sylow_group_once(monkeypatch, variant):
    calls = []
    real = edcalc.ed2_computed

    def counting(n, *args):
        calls.append(n)
        return real(n, *args)

    monkeypatch.setattr(edcalc, "ed2_computed", counting)
    tab = table1(11, verify_max=11, variant=variant)
    assert calls == [4, 6, 8, 10]
    assert tab.verified == {n: real(n, "alt", variant) for n in range(4, 12)}


def test_ed2_computed_matches_formula_spot(zoo):
    # (6, alt, plus) -> 2 and (10, sym, minus) -> 16 from the contract
    assert ed2_computed(6, "alt", "plus") == 2
    assert ed2_computed(10, "sym", "minus") == 16


# above the acceptance criteria's n <= 12, up to the cap: the Sylow-2
# preimages of S_16 (order 65 536) take a few seconds per variant
@pytest.mark.parametrize("n", [13, 14, 15])
def test_ed2_computed_matches_the_formula_past_12(n):
    for which in ("sym", "alt"):
        for variant in ("plus", "minus"):
            assert ed2_computed(n, which, variant) == ed2_formula(n, which)


def test_ed2_computed_matches_the_formula_at_16_alt():
    for variant in ("plus", "minus"):
        assert ed2_computed(16, "alt", variant) == 128


@pytest.mark.slow
def test_ed2_computed_matches_the_formula_at_16_sym():
    for variant in ("plus", "minus"):
        assert ed2_computed(16, "sym", variant) == 128


def test_ed2_computed_size_cap():
    with pytest.raises(ValueError):
        ed2_computed(17, "alt")


def test_ed_report(zoo):
    from schur_ed.edcalc import ed_report

    rep = ed_report(9, "alt", compute=True)
    assert rep.variant == "alt"
    assert rep.ed2_formula == rep.ed2_computed == 8
    assert (rep.ed_lower, rep.ed_upper) == (8, 14)
    assert rep.to_json()["ed2_computed"] == 8
    rep = ed_report(15, "sym", variant="minus")
    assert rep.variant == "sym-minus"
    assert rep.to_json()["ed2_computed"] == "skipped"

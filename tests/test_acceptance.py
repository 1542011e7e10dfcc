"""Acceptance suite: one test per exit criterion, each printed as a
pass/fail line.  Every tolerance is exact (integer or byte equality); the
two timed criteria assert their stated wall-clock budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
The n = 14 stretch of criterion 4 is marked slow; include it with
`pytest -m slow`.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from schur_ed.chartab import count_min_faithful, dixon_character_table, min_faithful_irrep_dim
from schur_ed.clifford import verify_spin_representation
from schur_ed.covers import (
    CoverSpec,
    center,
    cover_subgroup,
    generalized_quaternion_table,
    get_cover,
    iso_small,
    preimage_subgroup,
    verify_presentation,
)
from schur_ed.edcalc import ed2_formula, table1
from schur_ed.perms import from_cycles, sylow2_alt_generators
from schur_ed.qforms import (
    QuadFormQ,
    discriminant,
    contains_ones,
    etale_discriminant,
    hasse_invariant,
    hilbert_symbol,
    lemma_disc_one_identity,
    quaternion_class,
    random_etale_algebra,
    trace_form,
)
from schur_ed.qforms import INF, TWO, Place

from oracles import regular_representation_degrees


def _report(name: str, ok: bool, extra: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({extra})" if extra else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, name


# -- 1 ------------------------------------------------------------------------

def test_criterion_1_presentations():
    t0 = time.time()
    ok = True
    for n in range(4, 11):
        for variant in ("plus", "minus"):
            rep = verify_presentation(CoverSpec(n, variant))
            ok = ok and rep.all_ok and rep.order == 2 * math.factorial(n)
            if n <= 8:
                ok = ok and rep.order_method == "closure"
    elapsed = time.time() - t0
    _report("criterion 1: presentations and orders, n=4..10, both variants",
            ok and elapsed < 120, f"{elapsed:.1f}s")


# -- 2 ------------------------------------------------------------------------

def test_criterion_2_quaternion_sylows():
    ok = True
    q8 = generalized_quaternion_table(8)
    q16 = generalized_quaternion_table(16)
    for n in (4, 5):
        cov = get_cover(CoverSpec(n, "plus"))
        sigma = cov.word(1, 2, 3, 1, 2, 3)
        tau = cov.word(1, 3)
        z = cov.z
        ok = ok and sigma.perm == from_cycles(n, [(1, 3), (2, 4)])
        ok = ok and cov.mul(sigma, sigma) == z == cov.mul(tau, tau)
        ok = ok and cov.mul(sigma, tau) == cov.mul(z, cov.mul(tau, sigma))
        witness = cover_subgroup([sigma, tau], cov.spec, 64)
        ok = ok and witness.order == 8 and iso_small(witness, q8)
        sylow = preimage_subgroup(sylow2_alt_generators(n), CoverSpec(n, "plus"))
        ok = ok and iso_small(sylow, q8)
    for n in (6, 7):
        cov = get_cover(CoverSpec(n, "plus"))
        x = cov.word(1, 2, 3, 5)
        y = cov.word(1, 3)
        ok = ok and x.perm == from_cycles(n, [(1, 2, 3, 4), (5, 6)])
        ok = ok and cov.power(x, 8) == cov.identity
        ok = ok and cov.power(y, 4) == cov.identity
        ok = ok and cov.power(y, 2) == cov.power(x, 4)
        ok = ok and cov.mul(cov.mul(y, x), cov.inv(y)) == cov.inv(x)
        witness = cover_subgroup([x, y], cov.spec, 64)
        ok = ok and witness.order == 16 and iso_small(witness, q16)
        sylow = preimage_subgroup(sylow2_alt_generators(n), CoverSpec(n, "plus"))
        ok = ok and iso_small(sylow, q16)
    _report("criterion 2: Sylow-2 subgroups of the A_4..A_7 covers are "
            "Q8/Q16 with the stated witnesses", ok)


# -- 3 ------------------------------------------------------------------------

def test_criterion_3_centers(zoo):
    ok = True
    for n in range(4, 13):
        for variant in ("plus", "minus"):
            for which in ("sym", "alt"):
                table, z = zoo.sylow_cover(n, variant, which)
                members = sorted(center(table))
                cov = get_cover(CoverSpec(n, variant))
                ok = ok and members == sorted([cov.identity, cov.z])
    _report("criterion 3: Z(sylow cover) = {1, z} for n=4..12, both "
            "variants, sym and alt", ok)


# -- 4 ------------------------------------------------------------------------

EXPECTED_SYM = {4: 2, 5: 2, 6: 4, 7: 4, 8: 8, 9: 8, 10: 16, 11: 16, 12: 32}


def test_criterion_4_min_faithful_sym(zoo):
    ok = True
    for n in range(4, 13):
        want = ed2_formula(n, "sym")
        ok = ok and want == EXPECTED_SYM[n]
        for variant in ("plus", "minus"):
            table, z = zoo.sylow_cover(n, variant, "sym")
            ct = zoo.chartab(n, variant, "sym")
            got = min_faithful_irrep_dim(table, z, ct)
            ok = ok and got == want
    _report("criterion 4: min faithful irrep dim of sym Sylow covers = "
            "2^floor((n-s)/2), n=4..12, both variants", ok,
            "values " + ",".join(str(EXPECTED_SYM[n]) for n in range(4, 13)))


@pytest.mark.slow
def test_criterion_4_stretch_n14():
    t0 = time.time()
    spec = CoverSpec(14, "plus")
    from schur_ed.perms import sylow2_sym_generators

    table = preimage_subgroup(sylow2_sym_generators(14), spec)
    z = get_cover(spec).z
    got = min_faithful_irrep_dim(table, z)
    elapsed = time.time() - t0
    _report("criterion 4 (stretch): n=14 sym Sylow cover",
            got == ed2_formula(14, "sym") == 32 and elapsed < 600,
            f"{elapsed:.0f}s")


# -- 5 ------------------------------------------------------------------------

EXPECTED_ALT = {4: 2, 5: 2, 6: 2, 7: 2, 8: 8, 9: 8, 10: 8, 11: 8, 12: 16}


def test_criterion_5_alt_row(zoo):
    ok = True
    for n in range(4, 13):
        want = ed2_formula(n, "alt")
        ok = ok and want == EXPECTED_ALT[n]
        table, z = zoo.sylow_cover(n, "plus", "alt")
        ct = zoo.chartab(n, "plus", "alt")
        ok = ok and min_faithful_irrep_dim(table, z, ct) == want
    _report("criterion 5: computed ed(alt cover; 2) = 2,2,2,2,8,8,8,8,16 "
            "for n=4..12", ok)


# -- 6 ------------------------------------------------------------------------

def test_criterion_6_minimal_counts(zoo):
    ok = True
    for n in range(4, 13):
        for which in ("sym", "alt"):
            table, z = zoo.sylow_cover(n, "plus", which)
            ct = zoo.chartab(n, "plus", which)
            ok = ok and count_min_faithful(table, z, ct) in (1, 2)
    _report("criterion 6: number of minimal faithful irreducibles is 1 or 2 "
            "for n=4..12, sym and alt", ok)


# -- 7 ------------------------------------------------------------------------

def test_criterion_7_table_bytes():
    expected = (
        "n\t4\t5\t6\t7\t8\t9\t10\t11\t12\t13\t14\t15\t16\n"
        "ed(A_n)\t2\t2\t3\t4\t4-5\t4-6\t5-7\t6-8\t6-9\t6-10\t7-11\t8-12\t8-13\n"
        "ed(cover A_n; 2)\t2\t2\t2\t2\t8\t8\t8\t8\t16\t16\t32\t32\t128\n"
        "ed(cover A_n)\t2\t2\t4\t4\t8\t8-14\t8-15\t8-16\t16-25\t16-26"
        "\t32-43\t32-44\t128\n"
    )
    got = table1(16).to_tsv()
    _report("criterion 7: three-row table for n=4..16 matches byte for byte "
            "in TSV", got == expected)


# -- 8 ------------------------------------------------------------------------

def test_criterion_8_spin_representation():
    ok = True
    for n in range(4, 11):
        for variant in ("plus", "minus"):
            results = verify_spin_representation(n, variant)
            ok = ok and all(flag for _, flag in results)
    _report("criterion 8: 2^floor((n-1)/2)-dim matrices satisfy all "
            "relations with rho(z) = -I, n=4..10, both variants", ok)


# -- 9 ------------------------------------------------------------------------

def test_criterion_9_symbols_and_hasse():
    rng = random.Random(424242)
    places = [INF, TWO] + [Place.finite(p) for p in (3, 5, 7, 11, 13, 17)]
    ok = True
    for _ in range(1000):
        a = Fraction(rng.randint(1, 100) * rng.choice([1, -1]),
                     rng.randint(1, 10))
        b = Fraction(rng.randint(1, 100) * rng.choice([1, -1]),
                     rng.randint(1, 10))
        c = Fraction(rng.randint(1, 50) * rng.choice([1, -1]))
        v = rng.choice(places)
        ok = ok and hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        ok = ok and (hilbert_symbol(a, b * c, v)
                     == hilbert_symbol(a, b, v) * hilbert_symbol(a, c, v))
        # even ramification = product formula
        quaternion_class(a, b)
    for _ in range(500):
        dim = rng.randint(1, 6)
        q = QuadFormQ([Fraction(rng.randint(1, 60) * rng.choice([1, -1]))
                       for _ in range(dim)])
        ok = ok and (hasse_invariant(QuadFormQ([1] + list(q.diag)))
                     == hasse_invariant(q))
    count = 0
    while count < 200:
        dim = rng.randint(2, 8)
        entries = [Fraction(rng.randint(1, 40) * rng.choice([1, -1]))
                   for _ in range(dim - 1)]
        prod = Fraction(1)
        for e in entries:
            prod *= e
        entries.append(1 / prod)
        q = QuadFormQ(entries)
        ok = ok and lemma_disc_one_identity(q)
        count += 1
    _report("criterion 9: symbol bilinearity + product formula (1000), "
            "unit-summand Hasse identity (500), disc-1 identity (200)", ok)


# -- 10 -----------------------------------------------------------------------

def test_criterion_10_trace_forms():
    t0 = time.time()
    rng = random.Random(77007)
    ok = True
    for n in range(4, 13):
        s = n.bit_count()
        for _ in range(100):
            E = random_etale_algebra(n, rng)
            q = trace_form(E)
            ok = ok and contains_ones(q, s)
            ok = ok and discriminant(q) == etale_discriminant(E)
    elapsed = time.time() - t0
    _report("criterion 10: 100 random etale algebras per n=4..12: trace "
            "form contains popcount(n)<1> and disc matches",
            ok and elapsed < 300, f"{elapsed:.1f}s")


# -- 11 -----------------------------------------------------------------------

def test_criterion_11_oracle_agreement():
    q8 = generalized_quaternion_table(8)
    q16 = generalized_quaternion_table(16)
    ok = (dixon_character_table(q8).degrees == [1, 1, 1, 1, 2]
          == regular_representation_degrees(q8))
    ok = ok and (dixon_character_table(q16).degrees == [1, 1, 1, 1, 2, 2, 2]
                 == regular_representation_degrees(q16))
    _report("criterion 11: Dixon degrees for Q8/Q16 match the "
            "regular-representation oracle", ok)

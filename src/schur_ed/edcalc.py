"""Essential-dimension values and bounds for the double covers, assembled
from the closed-form expressions and the computed minimal faithful
dimensions of Sylow 2-subgroup preimages.

Conventions: s = popcount(n) throughout.  Row labels and interval rendering
("x-y") follow the reference table layout so TSV output can be diffed
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .chartab import min_faithful_irrep_dim
from .covers import (
    DEFAULT_SIZE_BOUND,
    CoverSpec,
    VerificationError,
    get_cover,
    preimage_subgroup,
)
from .perms import sylow2_alt_generators, sylow2_sym_generators

# the largest n whose 2-local value is recomputed through the character
# pipeline, and the largest n of the summary table
COMPUTED_MAX_N = 16
TABLE_MAX_N = 16


class FormulaMismatch(VerificationError):
    """A value recomputed through the character pipeline disagrees with
    its closed form."""

    def __init__(self, n: int, computed: int, formula: int):
        super().__init__(f"computed value {computed} disagrees with the "
                         f"closed form {formula} at n={n}")
        self.n, self.computed, self.formula = n, computed, formula


def popcount(n: int) -> int:
    return n.bit_count()


def ed2_formula(n: int, which: str) -> int:
    """2^floor((n-s)/2) for the symmetric-group covers,
    2^floor((n-s-1)/2) for the alternating-group cover."""
    if n < 4:
        raise ValueError("formulas assume n >= 4")
    s = popcount(n)
    if which == "sym":
        return 1 << ((n - s) // 2)
    if which == "alt":
        return 1 << ((n - s - 1) // 2)
    raise ValueError("which must be 'sym' or 'alt'")


def ed2_computed(n: int, which: str, variant: str = "plus",
                 size_bound: int = DEFAULT_SIZE_BOUND) -> int:
    """Minimal faithful irreducible dimension of the Sylow-2 preimage,
    computed from its spin block: Dixon's split of the class functions
    that are odd under z alone, not of the whole character table.  Equals
    ed(cover; 2)."""
    if n > COMPUTED_MAX_N:
        raise ValueError(f"computed values are desk-scale: n <= {COMPUTED_MAX_N}")
    spec = CoverSpec(n, variant)
    if which == "sym":
        gens = sylow2_sym_generators(n)
    elif which == "alt":
        gens = sylow2_alt_generators(n)
    else:
        raise ValueError("which must be 'sym' or 'alt'")
    table = preimage_subgroup(gens, spec, size_bound)
    z = get_cover(spec).z
    return min_faithful_irrep_dim(table, z)


# -- known values for ed(A_n) (exact small cases, then the +2 recursion for
#    the lower bound and n-3 for the upper bound) -----------------------------

_ALT_EXACT: Dict[int, int] = {4: 2, 5: 2, 6: 3, 7: 4}


def alt_ed_bounds(n: int) -> Tuple[int, int]:
    """(lower, upper) for ed(A_n) over the complex numbers."""
    if n < 4:
        raise ValueError("n >= 4")
    if n in _ALT_EXACT:
        v = _ALT_EXACT[n]
        return (v, v)
    lower = alt_ed_bounds(n - 4)[0] + 2
    upper = n - 3
    return (lower, upper)


# exact values of ed(cover of A_n) for small n where the general assembly
# does not collapse to a point
_ALT_COVER_EXACT: Dict[int, int] = {5: 2, 6: 4, 7: 4}


def ed_bounds(n: int, which: str) -> Tuple[int, int]:
    """(lower, upper) for the essential dimension of the cover itself.

    lower: the 2-local value.  upper: the smaller of the basic-spin bound
    2^floor((n-1)/2) and (known upper bound for the base group) + 2-local
    value; exact small alternating values override.
    """
    if n < 4:
        raise ValueError("n >= 4")
    lower = ed2_formula(n, which)
    spin_bound = 1 << ((n - 1) // 2)
    if which == "alt":
        if n in _ALT_COVER_EXACT:
            v = _ALT_COVER_EXACT[n]
            return (v, v)
        base_upper = alt_ed_bounds(n)[1]
        upper = min(spin_bound, base_upper + lower)
    else:
        candidates = [spin_bound]
        if n >= 5:
            candidates.append((n - 3) + lower)
        upper = min(candidates)
    if lower > upper:
        raise AssertionError(f"bound assembly produced an empty interval at n={n}")
    return (lower, upper)


# ---------------------------------------------------------------------------
# the three-row summary table
# ---------------------------------------------------------------------------

@dataclass
class EdReport:
    n: int
    variant: str  # "sym-plus" | "sym-minus" | "alt"
    ed2_formula: int
    ed2_computed: Optional[int]
    ed_lower: int
    ed_upper: int

    def __post_init__(self):
        if self.ed_lower > self.ed_upper:
            raise ValueError("empty interval")
        if self.ed2_computed is not None and self.ed2_computed != self.ed2_formula:
            raise FormulaMismatch(self.n, self.ed2_computed, self.ed2_formula)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "variant": self.variant,
            "ed2_formula": self.ed2_formula,
            "ed2_computed": (self.ed2_computed
                             if self.ed2_computed is not None else "skipped"),
            "ed_lower": self.ed_lower,
            "ed_upper": self.ed_upper,
        }


def ed_report(n: int, which: str, variant: str = "plus", compute: bool = False,
              size_bound: int = DEFAULT_SIZE_BOUND) -> EdReport:
    """One row of results for a single group: the closed form, the interval
    bounds for the full essential dimension, and (optionally) the value
    recomputed through the character pipeline."""
    lower, upper = ed_bounds(n, which)
    computed = None
    if compute:
        computed = ed2_computed(n, which, variant, size_bound)
    label = "alt" if which == "alt" else f"sym-{variant}"
    return EdReport(n=n, variant=label, ed2_formula=ed2_formula(n, which),
                    ed2_computed=computed, ed_lower=lower, ed_upper=upper)


def _interval(lo: int, hi: int) -> str:
    return str(lo) if lo == hi else f"{lo}-{hi}"


ROW_LABELS = ("ed(A_n)", "ed(cover A_n; 2)", "ed(cover A_n)")


@dataclass
class Table1:
    n_values: List[int]
    alt: List[Tuple[int, int]]
    alt_cover_2: List[int]
    alt_cover: List[Tuple[int, int]]
    verified: Dict[int, int]

    def rows(self) -> List[List[str]]:
        return [
            ["n"] + [str(n) for n in self.n_values],
            [ROW_LABELS[0]] + [_interval(*b) for b in self.alt],
            [ROW_LABELS[1]] + [str(v) for v in self.alt_cover_2],
            [ROW_LABELS[2]] + [_interval(*b) for b in self.alt_cover],
        ]

    def to_tsv(self) -> str:
        return "\n".join("\t".join(row) for row in self.rows()) + "\n"

    def to_json(self) -> dict:
        return {
            "n": self.n_values,
            ROW_LABELS[0]: [_interval(*b) for b in self.alt],
            ROW_LABELS[1]: [str(v) for v in self.alt_cover_2],
            ROW_LABELS[2]: [_interval(*b) for b in self.alt_cover],
            "verified": {str(n): v for n, v in sorted(self.verified.items())},
        }


def table1(n_max: int = TABLE_MAX_N, verify_max: int = 0,
           variant: str = "plus",
           size_bound: int = DEFAULT_SIZE_BOUND) -> Table1:
    """The three-row table for n = 4..n_max.  Rows 1 and 3 are interval
    assemblies; row 2 is the closed form, re-derived from the spin block
    of each alternating Sylow-2 preimage (ed2_computed) for
    n <= verify_max <= COMPUTED_MAX_N (a mismatch raises FormulaMismatch)."""
    if not 4 <= n_max <= TABLE_MAX_N:
        raise ValueError(f"n_max must be between 4 and {TABLE_MAX_N}")
    if verify_max > COMPUTED_MAX_N:
        raise ValueError("computed values are desk-scale: "
                         f"verify_max <= {COMPUTED_MAX_N}")
    ns = list(range(4, n_max + 1))
    verified: Dict[int, int] = {}
    for n in ns:
        if n <= verify_max:
            got = ed2_computed(n, "alt", variant, size_bound)
            want = ed2_formula(n, "alt")
            if got != want:
                raise FormulaMismatch(n, got, want)
            verified[n] = got
    return Table1(
        n_values=ns,
        alt=[alt_ed_bounds(n) for n in ns],
        alt_cover_2=[ed2_formula(n, "alt") for n in ns],
        alt_cover=[ed_bounds(n, "alt") for n in ns],
        verified=verified,
    )

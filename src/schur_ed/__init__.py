"""Exact double covers of symmetric and alternating groups, their minimal
faithful 2-group representation dimensions, and rational quadratic-form
invariants (Hilbert symbols, Hasse classes, trace forms of etale algebras).
"""

from .chartab import (
    CharTable,
    DixonPrime,
    count_min_faithful,
    dixon_character_table,
    min_faithful_irrep_dim,
)
from .clifford import (
    basic_spin_matrices,
    spin_representation,
    verify_spin_representation,
)
from .covers import (
    Cover,
    CoverElem,
    CoverSpec,
    FiniteGroupTable,
    SizeBoundExceeded,
    VerificationError,
    center,
    clear_cover_cache,
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
from .edcalc import (
    EdReport,
    FormulaMismatch,
    alt_ed_bounds,
    ed2_computed,
    ed2_formula,
    ed_bounds,
    ed_report,
    table1,
)
from .perms import (
    canonical_word,
    dyadic_profile,
    sylow2_alt_generators,
    sylow2_sym_generators,
)
from .qforms import (
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

__all__ = [name for name in dict(vars()) if not name.startswith("_")]
__version__ = "0.1.0"

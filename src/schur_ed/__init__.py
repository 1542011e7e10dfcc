"""Exact double covers of symmetric and alternating groups, their minimal
faithful 2-group representation dimensions, and rational quadratic-form
invariants (Hilbert symbols, Hasse classes, trace forms of etale algebras).

The public names below are resolved on first access (PEP 562), so
`import schur_ed` executes none of the submodules.
"""

import importlib.util
import sys

# submodule -> the public names it defines
_EXPORTS = {
    "numth": (),
    "perms": (
        "canonical_word",
        "dyadic_profile",
        "sylow2_alt_generators",
        "sylow2_sym_generators",
    ),
    "covers": (
        "Cover",
        "CoverElem",
        "CoverSpec",
        "FiniteGroupTable",
        "SizeBoundExceeded",
        "VerificationError",
        "center",
        "clear_cover_cache",
        "conjugacy_classes",
        "cover_subgroup",
        "get_cover",
        "is_generalized_quaternion",
        "preimage_subgroup",
        "subgroup_table",
        "verify_presentation",
    ),
    "chartab": (
        "CharTable",
        "count_min_faithful",
        "dixon_character_table",
        "min_faithful_irrep_dim",
    ),
    "radicals": (),
    "clifford": (
        "basic_spin_matrices",
        "spin_representation",
        "verify_spin_representation",
    ),
    "edcalc": (
        "EdReport",
        "FormulaMismatch",
        "alt_ed_bounds",
        "ed2_computed",
        "ed2_formula",
        "ed_bounds",
        "ed_report",
        "table1",
    ),
    "polyq": (),
    "qforms": (
        "BrauerClass2",
        "EtaleAlgebraQ",
        "Place",
        "QuadFormQ",
        "SquareClass",
        "brauer_index",
        "contains_ones",
        "discriminant",
        "etale_discriminant",
        "hasse_invariant",
        "hilbert_symbol",
        "is_isometric",
        "is_isotropic",
        "lemma_disc_one_identity",
        "quaternion_class",
        "random_etale_algebra",
        "signature",
        "splitting_tower",
        "trace_form",
        "witt_index",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}

__all__ = [*_EXPORTS, *_OWNER]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _OWNER:
        value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"),
                        name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


def _lazy_import(name: str):
    """The module `name`, executed on its first attribute access instead of
    now; unchanged if it is already imported.

    An `import` statement, or `from ... import`, of such a module reads its
    __spec__ and so executes it at once: bind it through this function."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module

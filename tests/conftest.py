import pytest

from schur_ed.chartab import dixon_character_table
from schur_ed.covers import CoverSpec, get_cover, preimage_subgroup
from schur_ed.perms import sylow2_alt_generators, sylow2_sym_generators


class GroupZoo:
    """Builds and memoizes the Sylow-cover groups and their character
    tables so the acceptance criteria can share them."""

    def __init__(self):
        self._tables = {}
        self._chartabs = {}

    def sylow_cover(self, n: int, variant: str, which: str):
        key = (n, variant, which)
        if key not in self._tables:
            spec = CoverSpec(n, variant)
            gens = (sylow2_sym_generators(n) if which == "sym"
                    else sylow2_alt_generators(n))
            table = preimage_subgroup(gens, spec)
            self._tables[key] = (table, get_cover(spec).z)
        return self._tables[key]

    def chartab(self, n: int, variant: str, which: str):
        key = (n, variant, which)
        if key not in self._chartabs:
            table, _ = self.sylow_cover(n, variant, which)
            self._chartabs[key] = dixon_character_table(table)
        return self._chartabs[key]


@pytest.fixture(scope="session")
def zoo():
    return GroupZoo()

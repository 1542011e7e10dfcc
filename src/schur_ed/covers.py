"""Double covers of S_n and A_n realized as (central bit, permutation) pairs
twisted by a 2-cocycle.

The cocycle lives in the Clifford algebra of +-(x_1^2 + ... + x_n^2): the
canonical lift of a permutation is the product of v_i = (e_i - e_{i+1})/sqrt(2)
over its canonical reduced word, and c(sigma, tau) is the sign relating
lift(sigma)*lift(tau) to lift(sigma*tau).  Products fold over the canonical
word of tau, so only the elementary values c(rho, s_i) are needed, and
Cover.elementary_cocycle gives them in closed form from the inversions of rho.
The closed form follows from Matsumoto/Tits moves (sign conventions as in
Stembridge, Adv. Math. 74 (1989)): distant v_i anticommute and braid moves
carry no sign, so T_w * (-1)^f(w), with f(w) the parity of the pairs of
disjoint inversion pairs that w introduces in anti-lexicographic order, is
the same for every reduced word w.  The tests compare the closed form with
the Clifford definition, evaluated on integer products of the vectors
e_i - e_{i+1} (tests/oracles.py).
"""

from __future__ import annotations

import importlib.util
import math
import random
import sys
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .numth import SizeBoundExceeded
from .perms import (
    Perm,
    adjacent_transposition,
    canonical_word,
    compose,
    identity_perm,
    inverse,
    right_multiply_adjacent,
    sylow2_sym_generators,
)


def _lazy_import(name: str):
    """The module `name`, executed on its first attribute access instead of
    now; unchanged if it is already imported.  The quadratic-form commands
    never touch numpy, so they never pay for executing it."""
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


# chartab takes np from here: an `import numpy` statement would read the
# lazy module's __spec__ and so execute numpy at once
np = _lazy_import("numpy")

DEFAULT_SIZE_BOUND = 1 << 18


class VerificationError(RuntimeError):
    """A presentation relation or structural check failed."""


@dataclass(frozen=True)
class CoverSpec:
    """Which double cover: rank n >= 4 and the generator-square convention.

    variant 'plus' models s_i^2 = 1 (generators square to +1 in the Clifford
    algebra), 'minus' models t_i^2 = z (squares -1).
    """

    n: int
    variant: str

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("covers are only considered for n >= 4")
        if self.variant not in ("plus", "minus"):
            raise ValueError("variant must be 'plus' or 'minus'")

    @property
    def sign(self) -> int:
        return 1 if self.variant == "plus" else -1


class CoverElem(NamedTuple):
    """z^eps * lift(perm); eps in {0, 1}.

    The tuple order (eps, one-line notation) is the canonical element order
    of every cover table.
    """

    eps: int
    perm: Perm


class Cover:
    """Arithmetic context for one CoverSpec: the cocycle, elementwise and
    over arrays of permutations, and memoized canonical words."""

    def __init__(self, spec: CoverSpec):
        if spec.n > 16:
            raise ValueError("cover arithmetic is desk-scale: n <= 16")
        self.spec = spec
        self._minus = int(spec.sign < 0)
        self._ident_perm = identity_perm(spec.n)
        self._words: Dict[Perm, Tuple[int, ...]] = {}

    # -- distinguished elements ---------------------------------------------

    @property
    def identity(self) -> CoverElem:
        return CoverElem(0, self._ident_perm)

    @property
    def z(self) -> CoverElem:
        return CoverElem(1, self._ident_perm)

    def gen(self, i: int) -> CoverElem:
        """Canonical generator lift of the adjacent transposition (i, i+1)."""
        return CoverElem(0, adjacent_transposition(self.spec.n, i))

    def elem(self, perm: Perm, eps: int = 0) -> CoverElem:
        if len(perm) != self.spec.n:
            raise ValueError("permutation size does not match the cover spec")
        return CoverElem(eps & 1, perm)

    # -- the cocycle -----------------------------------------------------------

    def elementary_cocycle(self, perm: Perm, i: int) -> int:
        """c(perm, s_i): sign in lift(perm)*v_i = (-1)^c * lift(perm*s_i).

        With y = max(perm(i), perm(i+1)), c is the parity of the inversions
        of perm whose larger value exceeds y (the letters v_i passes in the
        canonical word), XOR 1 for a descent at i in the minus variant,
        where the step ends in v_i^2 = -1.
        """
        x, y = perm[i - 1], perm[i]
        bit = 0
        if x > y:
            y = x
            bit = self._minus
        # a value b has b - 1 - (smaller values left of it) smaller values
        # to its right, one inversion each
        seen = 0
        for b in perm:
            if b > y:
                bit ^= (b - 1 - (seen & ((1 << b) - 1)).bit_count()) & 1
            seen |= 1 << b
        return bit

    def cocycles(self, sigmas: np.ndarray, taus: Sequence[Perm]) -> np.ndarray:
        """c(sigma, tau) for every row sigma (one-line notation) of a 2-d
        array and every tau, one row of bits per tau: the closed form of
        elementary_cocycle, folded over the canonical word of tau.

        Bit b of inv[k] is the parity of the inversions of row k with
        larger value b, built once for all taus.  Right multiplication by
        s_i swaps positions i and i+1, which changes that count only for
        the larger of the two values."""
        rows, n = sigmas.shape
        inv0 = np.zeros(rows, dtype=np.int64)
        for q in range(n):
            smaller = (sigmas[:, q + 1:] < sigmas[:, q:q + 1]).sum(axis=1)
            inv0 |= (smaller & 1) << sigmas[:, q]
        out = np.zeros((len(taus), rows), dtype=np.int64)
        for bits, tau in zip(out, taus):
            cur, inv = sigmas.copy(), inv0.copy()
            for i in self._word(tau):
                x, y = cur[:, i - 1].copy(), cur[:, i].copy()
                top = np.maximum(x, y)
                above = inv >> (top + 1)
                for shift in (8, 4, 2, 1):  # fold the parity of <= 16 bits
                    above ^= above >> shift
                bits ^= above & 1
                if self._minus:
                    bits ^= x > y
                inv ^= 1 << top
                cur[:, i - 1], cur[:, i] = y, x
        return out

    def _word(self, perm: Perm) -> Tuple[int, ...]:
        w = self._words.get(perm)
        if w is None:
            if len(self._words) > (1 << 17):
                self._words.clear()
            w = self._words[perm] = tuple(canonical_word(perm))
        return w

    def cocycle(self, sigma: Perm, tau: Perm) -> int:
        """c(sigma, tau) with lift(sigma)lift(tau) = z^c lift(sigma tau)."""
        if len(sigma) != self.spec.n or len(tau) != self.spec.n:
            raise ValueError("permutation size does not match the cover spec")
        word = self._word(tau)
        if not word:
            return 0
        eps = 0
        cur = sigma
        for i in word[:-1]:
            eps ^= self.elementary_cocycle(cur, i)
            cur = right_multiply_adjacent(cur, i)
        return eps ^ self.elementary_cocycle(cur, word[-1])

    # -- group arithmetic ------------------------------------------------------

    def mul(self, g: CoverElem, h: CoverElem) -> CoverElem:
        return CoverElem(g.eps ^ h.eps ^ self.cocycle(g.perm, h.perm),
                         compose(g.perm, h.perm))

    def inv(self, g: CoverElem) -> CoverElem:
        pinv = inverse(g.perm)
        return CoverElem(g.eps ^ self.cocycle(g.perm, pinv), pinv)

    def power(self, g: CoverElem, e: int) -> CoverElem:
        if e < 0:
            return self.power(self.inv(g), -e)
        out = self.identity
        for _ in range(e):
            out = self.mul(out, g)
        return out

    def word(self, *indices: int) -> CoverElem:
        """Product of generator lifts s_{i1} s_{i2} ... ."""
        out = self.identity
        for i in indices:
            out = self.mul(out, self.gen(i))
        return out


_covers: Dict[CoverSpec, Cover] = {}


def get_cover(spec: CoverSpec) -> Cover:
    cov = _covers.get(spec)
    if cov is None:
        cov = _covers[spec] = Cover(spec)
    return cov


def clear_cover_cache() -> None:
    """Drop all memoized cover contexts (canonical words)."""
    _covers.clear()


# ---------------------------------------------------------------------------
# presentation verification
# ---------------------------------------------------------------------------

@dataclass
class RelationResult:
    relation: str
    ok: bool


@dataclass
class PresentationReport:
    spec: CoverSpec
    relations: List[RelationResult]
    order: Optional[int]
    order_expected: int
    order_method: str

    @property
    def all_ok(self) -> bool:
        return (all(r.ok for r in self.relations)
                and (self.order is None or self.order == self.order_expected))

    def failures(self) -> List[str]:
        out = [r.relation for r in self.relations if not r.ok]
        if self.order is not None and self.order != self.order_expected:
            out.append(f"order {self.order} != {self.order_expected}")
        return out


# n = 9 takes the transversal argument: the closure's 2 * 9! = 725 760
# elements exceed DEFAULT_SIZE_BOUND = 2^18
_CLOSURE_MAX_N = 8


def verify_presentation(spec: CoverSpec,
                        size_bound: int = DEFAULT_SIZE_BOUND,
                        mul_fn: Optional[Callable[[CoverElem, CoverElem], CoverElem]] = None
                        ) -> PresentationReport:
    """Check every defining relation of the matching presentation and confirm
    the group order equals 2*n!.

    For n <= 8 the order is the number of elements that the lifted columns
    of t_1..t_{n-1} alone reach from the identity: the columns
    _lifted_columns builds over S_n, with no table.  z is not among the
    generators: it is reached as (t_1 t_3)^2, so a cocycle that does
    not put z in the group reaches n! elements and fails the check.  For
    larger n the order follows from the transversal argument: every
    permutation is a product of the generator images (its canonical word is
    checked to reassemble it), and z = (g_1 g_3)^2 lies in the group, so
    the element count is exactly 2 * n!.

    mul_fn exists for fault injection in tests; it defaults to cover
    multiplication and evaluates every relation word.  The closure does not
    go through it.
    """
    cov = get_cover(spec)
    mul_ = mul_fn or cov.mul
    n = spec.n
    e, z = cov.identity, cov.z
    gens = [cov.gen(i) for i in range(1, n)]

    def wordprod(*elems: CoverElem) -> CoverElem:
        out = e
        for g in elems:
            out = mul_(out, g)
        return out

    plus = spec.variant == "plus"
    letter = "s" if plus else "t"
    rels: List[RelationResult] = []
    rels.append(RelationResult("z^2 = 1", mul_(z, z) == e))
    for i in range(1, n):
        g = gens[i - 1]
        sq = mul_(g, g)
        if plus:
            rels.append(RelationResult(f"{letter}{i}^2 = 1", sq == e))
        else:
            rels.append(RelationResult(f"{letter}{i}^2 = z", sq == z))
        rels.append(RelationResult(
            f"[z, {letter}{i}] = 1", mul_(z, g) == mul_(g, z)))
    for i in range(1, n):
        for j in range(i + 2, n):
            gi, gj = gens[i - 1], gens[j - 1]
            val = wordprod(gi, gj, gi, gj)
            rels.append(RelationResult(
                f"({letter}{i} {letter}{j})^2 = z", val == z))
    for i in range(1, n - 1):
        gi, gj = gens[i - 1], gens[i]
        val = wordprod(gi, gj, gi, gj, gi, gj)
        if plus:
            rels.append(RelationResult(
                f"({letter}{i} {letter}{i+1})^3 = 1", val == e))
        else:
            rels.append(RelationResult(
                f"({letter}{i} {letter}{i+1})^3 = z", val == z))

    expected = 2 * math.factorial(n)
    if n <= _CLOSURE_MAX_N:
        _, cols = _lifted_columns(gens, cov, size_bound)
        count = sum(len(level) for level in _schreier_tree(cols, 0)[2])
        method = "closure"
    else:
        # z is reachable from the generators and every permutation is hit by
        # its canonical word, so {0,1} x S_n is the underlying set
        zw = wordprod(gens[0], gens[2], gens[0], gens[2])
        ok = zw == z
        rels.append(RelationResult("(g1 g3)^2 = z (transversal witness)", ok))
        rng = random.Random(12345)
        for _ in range(8):
            img = list(range(1, n + 1))
            rng.shuffle(img)
            sigma = tuple(img)
            got = e
            for i in canonical_word(sigma):
                got = mul_(got, gens[i - 1])
            rels.append(RelationResult(
                "canonical word reassembles a sample permutation",
                got.perm == sigma))
        count = expected
        method = "transversal"
    return PresentationReport(spec, rels, count, expected, method)


# ---------------------------------------------------------------------------
# finite group tables
# ---------------------------------------------------------------------------

def _schreier_tree(cols: np.ndarray, root: int
                   ) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
    """Breadth-first search from index root along generator columns (row g
    maps x to x * generator g), a whole level at a time: per index its
    parent and the generator of the edge into it (-1 where there is none),
    and the levels, each in increasing order.  An index never reached has
    parent -1 and is in no level."""
    size = cols.shape[1]
    parent = np.full(size, -1, dtype=np.int64)
    pgen = np.full(size, -1, dtype=np.int64)
    seen = np.zeros(size, dtype=bool)
    seen[root] = True
    level = np.array([root], dtype=np.int64)
    levels = []
    while len(level):
        levels.append(level)
        step = cols[:, level].ravel()  # generator-major
        fresh = np.flatnonzero(~seen[step])
        level, first = np.unique(step[fresh], return_index=True)
        edge = fresh[first]
        seen[level] = True
        parent[level] = levels[-1][edge % len(levels[-1])]
        pgen[level] = edge // len(levels[-1])
    return parent, pgen, levels


def _close(gens: Sequence[Perm], n: int, size_bound: int
           ) -> Tuple[np.ndarray, np.ndarray]:
    """The permutation group generated by gens on n points, closed
    breadth-first a whole level at a time: one gather applies every
    generator to every element of the frontier.  Returns the elements as
    int rows in one-line tuple order and one column per given generator:
    cols[g][x] is the row of element x times gens[g].

    A permutation's key packs its first n - 1 entries as base-n digits
    (n^(n-1) <= 2^60 for n <= 16), so keys sort like the one-line tuples.
    New elements are found against the sorted keys so far, and the columns
    by searchsorted.  Raises SizeBoundExceeded past size_bound elements."""
    if n > 16:
        raise ValueError("permutation keys hold at most 16 points")
    moves = np.array(gens, dtype=np.int64).reshape(len(gens), n) - 1
    digits = np.int64(n) ** np.arange(n - 1)[::-1]

    def keys(rows: np.ndarray) -> np.ndarray:
        return (rows[:, :n - 1] - 1) @ digits

    frontier = np.arange(1, n + 1, dtype=np.int64).reshape(1, n)
    found = keys(frontier)  # sorted keys of every element so far
    levels, level_keys, products = [], [found], []
    while len(frontier):
        levels.append(frontier)
        # element-major: row x * len(gens) + g is element x times g
        step = frontier[:, moves].reshape(len(frontier) * len(gens), n)
        products.append(keys(step))
        fresh, first = np.unique(products[-1], return_index=True)
        at = np.searchsorted(found, fresh)
        new = found[np.minimum(at, len(found) - 1)] != fresh
        found = np.insert(found, at[new], fresh[new])
        if len(found) > size_bound:
            raise SizeBoundExceeded(
                f"closure exceeded {size_bound} elements")
        frontier = step[first[new]]
        level_keys.append(fresh[new])
    order = np.argsort(np.concatenate(level_keys))
    rows = np.concatenate(levels)[order]
    cols = np.searchsorted(found, np.concatenate(products).reshape(
        len(rows), len(gens))[order].T)
    return rows, cols


class FiniteGroupTable:
    """A finite group materialized as a canonical element list plus fast
    index-level multiplication.

    gen_cols[g][x] is the index of element x times generator g.  The
    constructor spans the group with a Schreier tree, a breadth-first search
    from the identity over these columns: element j is parent[j] times the
    generator pgen[j], down to the identity (parent -1).  Products fold the
    right factor's word, read off the tree, through the columns, so a
    product costs O(tree depth) array lookups no matter how expensive the
    underlying multiplication was to evaluate once.  `levels` lists the
    tree's elements with every parent in an earlier level, which lets whole
    columns be computed level by level.
    """

    def __init__(self, elements: List, identity, generators: List, gen_cols):
        self.elements = elements
        self.identity = identity
        self.generators = generators
        self.index = {x: i for i, x in enumerate(elements)}
        self.order = len(elements)
        self._gen_cols = np.asarray(gen_cols, dtype=np.int64).reshape(
            len(generators), self.order)
        self._parent, self._pgen, self._levels = _schreier_tree(
            self._gen_cols, self.index[identity])
        if sum(len(level) for level in self._levels) != self.order:
            raise ValueError("the generators do not reach every element")
        self._inv: Dict[int, int] = {}
        self._elem_order: Dict[int, int] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def generate(cls, generators: List[Perm],
                 size_bound: int = DEFAULT_SIZE_BOUND) -> "FiniteGroupTable":
        """The table of the permutation group generated by `generators`
        (one-line notation), closed by `_close`, with the identity and
        repeated generators dropped."""
        n = len(generators[0]) if generators else 0
        ident = identity_perm(n)
        gens = list(dict.fromkeys(
            g for g in map(tuple, generators) if g != ident))
        rows, cols = _close(gens, n, size_bound)
        # the tuples are zipped from whole columns, with no list per row,
        # which keeps the peak memory of large closures down
        elements = list(zip(*rows.T.tolist())) if n else [()]
        return cls(elements, ident, gens, cols)

    # -- index arithmetic -----------------------------------------------------

    def idx(self, elem) -> int:
        return self.index[elem]

    def _word(self, j: int) -> List[int]:
        """The generator indices along the tree path from the identity
        to element j."""
        word = []
        parent, pgen = self._parent, self._pgen
        while parent[j] >= 0:
            word.append(pgen[j])
            j = parent[j]
        word.reverse()
        return word

    def mul_idx(self, i: int, j: int) -> int:
        cur = i
        for gi in self._word(j):
            cur = self._gen_cols[gi][cur]
        return cur

    def right_column(self, j: int) -> np.ndarray:
        """x * element j for every index x, as one index array."""
        col = np.arange(self.order)
        for gi in self._word(j):
            col = self._gen_cols[gi][col]
        return col

    def left_column(self, j: int) -> np.ndarray:
        """element j * x for every index x: along the tree, j * x is
        (j * parent(x)) * generator, one level at a time."""
        cols, parent, pgen = self._gen_cols, self._parent, self._pgen
        col = np.empty(self.order, dtype=np.int64)
        col[self._levels[0]] = j
        for level in self._levels[1:]:
            col[level] = cols[pgen[level], col[parent[level]]]
        return col

    def inv_idx(self, i: int) -> int:
        got = self._inv.get(i)
        if got is None:
            e = self.index[self.identity]
            prev, cur = i, self.mul_idx(i, i)
            while cur != e:
                prev, cur = cur, self.mul_idx(cur, i)
            got = self._inv[i] = prev if i != e else e
        return got

    def order_of_idx(self, i: int) -> int:
        got = self._elem_order.get(i)
        if got is None:
            e = self.index[self.identity]
            cur, k = i, 1
            while cur != e:
                cur = self.mul_idx(cur, i)
                k += 1
            got = self._elem_order[i] = k
        return got

    def element_order_multiset(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for i in range(self.order):
            o = self.order_of_idx(i)
            out[o] = out.get(o, 0) + 1
        return out

    def cayley_table(self) -> List[List[int]]:
        if self.order > 512:
            raise SizeBoundExceeded("full Cayley table capped at 512 elements")
        return [[self.mul_idx(i, j) for j in range(self.order)]
                for i in range(self.order)]


def _lifted_columns(gens: List[CoverElem], cov: Cover, size_bound: int
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """P = <g.perm> closed by _close, as int rows, and the column of every
    g on {0, 1} x P, where (eps, pi) has index eps*|P| + rank(pi): P's
    column of g.perm plus |P| times c(pi, g.perm) XOR g.eps XOR eps.
    size_bound counts the 2*|P| indices."""
    perms = [g.perm for g in gens]
    try:
        rows, base = _close(perms, cov.spec.n, size_bound // 2)
    except SizeBoundExceeded:
        raise SizeBoundExceeded(
            f"closure exceeded {size_bound} elements") from None
    m = len(rows)
    flip = cov.cocycles(rows, perms)
    flip ^= np.array([g.eps for g in gens], dtype=np.int64).reshape(-1, 1)
    flip *= m
    return rows, np.hstack([base + flip, base + m - flip])


def cover_subgroup(gens: Iterable[CoverElem], spec: CoverSpec,
                   size_bound: int = DEFAULT_SIZE_BOUND) -> FiniteGroupTable:
    """The subgroup of the cover generated by gens.

    Only its image P = <g.perm> is closed, as permutations.  (eps, pi) * g
    is (eps ^ g.eps ^ c(pi, g.perm), pi * g.perm), so the column of g is
    P's column of g.perm lifted by the cocycle bits of all pi at once
    (Cover.cocycles), and z is the index shift by |P|.  The subgroup is
    what these columns reach from the identity: all of {0, 1} x P once z
    is reached, a copy of P otherwise, renumbered in CoverElem tuple order.
    The identity and repeated generators are dropped.  size_bound counts
    the 2*|P| elements of {0, 1} x P."""
    cov = get_cover(spec)
    gens = list(dict.fromkeys(g for g in gens if g != cov.identity))
    rows, cols = _lifted_columns(gens, cov, size_bound)
    m = len(rows)
    perms = list(zip(*rows.T.tolist()))
    keep = np.sort(np.concatenate(_schreier_tree(cols, 0)[2]))
    renumber = np.full(2 * m, -1, dtype=np.int64)
    renumber[keep] = np.arange(len(keep))
    return FiniteGroupTable(
        [CoverElem(i // m, perms[i % m]) for i in keep.tolist()],
        cov.identity, gens, renumber[cols[:, keep]])


def preimage_subgroup(gens: Iterable[Perm], spec: CoverSpec,
                      size_bound: int = DEFAULT_SIZE_BOUND) -> FiniteGroupTable:
    """The full preimage of P = <gens> under the projection, of order
    2*|P|: the subgroup generated by the lifts (0, g) and z."""
    cov = get_cover(spec)
    return cover_subgroup([cov.elem(g) for g in gens] + [cov.z], spec,
                          size_bound)


def subgroup_table(spec: CoverSpec, which: str,
                   size_bound: int = DEFAULT_SIZE_BOUND) -> FiniteGroupTable:
    """The preimage in the cover of a subgroup of S_n: a Sylow 2-subgroup
    ('sylow2'), A_n ('alt', generated by the 3-cycles s_i s_{i+1}) or S_n
    itself ('full', by the adjacent transpositions s_i)."""
    n = spec.n
    if which == "sylow2":
        gens = sylow2_sym_generators(n)
    elif which == "alt":
        gens = [compose(adjacent_transposition(n, i),
                        adjacent_transposition(n, i + 1))
                for i in range(1, n - 1)]
    elif which == "full":
        gens = [adjacent_transposition(n, i) for i in range(1, n)]
    else:
        raise ValueError(f"unknown subgroup kind {which!r}")
    return preimage_subgroup(gens, spec, size_bound)


def center(table: FiniteGroupTable) -> List:
    """The center: the elements that commute with every generator, in
    table order."""
    central = np.ones(table.order, dtype=bool)
    for g in table.generators:
        gi = table.idx(g)
        central &= table.right_column(gi) == table.left_column(gi)
    return [table.elements[i] for i in np.flatnonzero(central)]


def conjugacy_classes(table: FiniteGroupTable) -> List[List[int]]:
    """Partition of element indices into conjugacy classes.  Classes are
    ordered with the identity class first, then by (size, smallest index)."""
    conj = []
    for g in table.generators:
        gi = table.idx(g)
        g_inv = table.right_column(table.inv_idx(gi))
        conj.append(g_inv[table.left_column(gi)])
    # every element takes the smallest index in reach by conjugation by the
    # generators, which is the smallest index of its class
    low = np.arange(table.order)
    while True:
        nxt = low
        for c in conj:
            nxt = np.minimum(nxt, nxt[c])
        nxt = nxt[nxt]
        if np.array_equal(nxt, low):
            break
        low = nxt
    members = np.argsort(low, kind="stable")
    starts = np.flatnonzero(np.diff(low[members], prepend=-1))
    classes = [c.tolist() for c in np.split(members, starts[1:])]
    e = table.idx(table.identity)
    classes.sort(key=lambda c: (0 if c[0] == e and len(c) == 1 else 1,
                                len(c), c[0]))
    return classes


# ---------------------------------------------------------------------------
# small-group isomorphism testing and reference groups
# ---------------------------------------------------------------------------

def _words(cayley: List[List[int]], gens: List[int],
           e: int) -> Dict[int, Tuple[int, ...]]:
    """A shortest word in gens for every element of <gens>, read off the
    Schreier tree over the Cayley table's columns."""
    cols = np.array(cayley, dtype=np.int64)[:, gens].T
    parent, pgen, levels = _schreier_tree(cols, e)
    words: Dict[int, Tuple[int, ...]] = {e: ()}
    for level in levels[1:]:
        for x in level.tolist():
            words[x] = words[int(parent[x])] + (gens[pgen[x]],)
    return words


def iso_small(A: FiniteGroupTable, B: FiniteGroupTable, bound: int = 128) -> bool:
    """Isomorphism test by generator-image backtracking; order-multiset
    prefilter.  Intended for groups of order <= bound."""
    if A.order > bound or B.order > bound:
        raise SizeBoundExceeded(f"iso_small is capped at order {bound}")
    if A.order != B.order:
        return False
    if A.element_order_multiset() != B.element_order_multiset():
        return False
    ca, cb = A.cayley_table(), B.cayley_table()
    ea, eb = A.idx(A.identity), B.idx(B.identity)
    # greedy generators of A: add the first element not yet reached
    gens: List[int] = []
    words = _words(ca, gens, ea)
    for i in range(A.order):
        if len(words) == A.order:
            break
        if i not in words:
            gens.append(i)
            words = _words(ca, gens, ea)
    a_orders = [A.order_of_idx(g) for g in gens]
    b_by_order: Dict[int, List[int]] = {}
    for i in range(B.order):
        b_by_order.setdefault(B.order_of_idx(i), []).append(i)

    def attempt(images: List[int]) -> bool:
        phi = [0] * A.order
        for x, w in words.items():
            cur = eb
            for g in w:
                cur = cb[cur][images[gens.index(g)]]
            phi[x] = cur
        if len(set(phi)) != A.order:
            return False
        return all(phi[ca[x][y]] == cb[phi[x]][phi[y]]
                   for x in range(A.order) for y in range(A.order))

    def backtrack(depth: int, images: List[int]) -> bool:
        if depth == len(gens):
            return attempt(images)
        for cand in b_by_order.get(a_orders[depth], []):
            if backtrack(depth + 1, images + [cand]):
                return True
        return False

    return backtrack(0, [])


def generalized_quaternion_table(order: int) -> FiniteGroupTable:
    """Q_{2^k} presented by x^(2^(k-1)) = 1, y^2 = x^(2^(k-2)),
    y x y^-1 = x^-1; elements are pairs (i, j) meaning x^i y^j, with
    index 2i + j, and the generators are x and y."""
    if order < 8 or order & (order - 1):
        raise ValueError("generalized quaternion groups have 2-power order >= 8")
    h = order // 2
    i = np.arange(h)
    # x^i * x = x^(i+1) and x^i y * x = x^(i-1) y; x^i * y = x^i y and
    # x^i y * y = x^(i + h/2)
    x_col = np.stack([2 * ((i + 1) % h), 2 * ((i - 1) % h) + 1], axis=1)
    y_col = np.stack([2 * i + 1, 2 * ((i + h // 2) % h)], axis=1)
    return FiniteGroupTable([(a, b) for a in range(h) for b in (0, 1)],
                            (0, 0), [(1, 0), (0, 1)],
                            [x_col.ravel(), y_col.ravel()])


def cyclic_table(order: int) -> FiniteGroupTable:
    return FiniteGroupTable(list(range(order)), 0, [1],
                            [(np.arange(order) + 1) % order])

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

import math
import random
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Tuple)

import numpy as np

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

    def cocycles(self, sigmas: np.ndarray, tau: Perm) -> np.ndarray:
        """c(sigma, tau) for every row sigma (one-line notation) of a
        2-d array at once: the closed form of elementary_cocycle, folded
        over the canonical word of tau.

        inv[k, b] holds the parity of the inversions of row k with larger
        value b.  Right multiplication by s_i swaps positions i and i+1,
        which changes that count only for the larger of the two values."""
        rows, n = sigmas.shape
        cur = sigmas.copy()
        at = np.arange(rows)
        inv = np.zeros((rows, n + 1), dtype=np.int64)
        for q in range(n):
            smaller = (cur[:, q + 1:] < cur[:, q:q + 1]).sum(axis=1)
            inv[at, cur[:, q]] = smaller & 1
        values = np.arange(n + 1)
        bits = np.zeros(rows, dtype=np.int64)
        for i in self._word(tau):
            x, y = cur[:, i - 1].copy(), cur[:, i].copy()
            top = np.maximum(x, y)
            bits ^= (inv * (values > top[:, None])).sum(axis=1) & 1
            if self._minus:
                bits ^= x > y
            inv[at, top] ^= 1
            cur[:, i - 1], cur[:, i] = y, x
        return bits

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

    For n <= 8 the order is the size of the closure of the generator lifts
    t_1..t_{n-1} alone (lift_closure).  z is not among them: it is reached
    as (t_1 t_3)^2, so a cocycle that does not put z in the group closes
    to n! and fails the check.  For larger n the order follows from the
    transversal argument: every permutation is a product of the generator
    images (its canonical word is checked to reassemble it), and
    z = (g_1 g_3)^2 lies in the group, so the element count is exactly 2 * n!.

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
        count = len(lift_closure(cov, size_bound)[0])
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


def lift_closure(cov: Cover, size_bound: int = DEFAULT_SIZE_BOUND
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """The subgroup generated by the lifts (0, s_i), i = 1..n-1, without z:
    its elements as an eps vector and a (rows, n) array of permutations in
    one-line notation, level by level of the breadth-first closure.

    A whole level moves at once.  (eps, sigma) * (0, s_i) is
    (eps ^ c(sigma, s_i), sigma * s_i): the bits come from Cover.cocycles
    and sigma * s_i is a gather of sigma's columns.  An element's key is
    eps * n! + the Lehmer rank of its permutation, and a boolean array over
    all 2 * n! keys marks those already found, so n is at most
    _CLOSURE_MAX_N.  Raises SizeBoundExceeded past size_bound elements."""
    n = cov.spec.n
    if n > _CLOSURE_MAX_N:
        raise ValueError(f"lift_closure needs n <= {_CLOSURE_MAX_N}")
    nfact = math.factorial(n)
    seen = np.zeros(2 * nfact, dtype=bool)
    seen[0] = True  # the identity: eps 0, Lehmer rank 0
    eps = np.zeros(1, dtype=np.int64)
    perms = np.array([cov.identity.perm], dtype=np.int64)
    found_eps, found_perms = [eps], [perms]
    count = 1
    gens = [adjacent_transposition(n, i) for i in range(1, n)]
    while len(eps):
        eps = np.concatenate([eps ^ cov.cocycles(perms, g) for g in gens])
        perms = np.concatenate([perms[:, np.array(g) - 1] for g in gens])
        keys = eps * nfact
        for q in range(n - 1):
            smaller = (perms[:, q + 1:] < perms[:, q:q + 1]).sum(axis=1)
            keys += smaller * math.factorial(n - 1 - q)
        keys, first = np.unique(keys, return_index=True)
        new = ~seen[keys]
        seen[keys[new]] = True
        first = first[new]
        count += len(first)
        if count > size_bound:
            raise SizeBoundExceeded(f"closure exceeded {size_bound} elements")
        eps, perms = eps[first], perms[first]
        found_eps.append(eps)
        found_perms.append(perms)
    return np.concatenate(found_eps), np.concatenate(found_perms)


# ---------------------------------------------------------------------------
# finite group tables
# ---------------------------------------------------------------------------

class FiniteGroupTable:
    """A finite group materialized as a canonical element list plus fast
    index-level multiplication.

    A Schreier tree spans the group: element j is parent[j] times the
    generator pgen[j], down to the identity (parent -1).  Products fold the
    right factor's word, read off the tree, through per-generator
    right-multiplication columns, so a product costs O(tree depth) array
    lookups no matter how expensive the underlying multiplication was to
    evaluate once.  `levels` lists the tree's elements with every parent in
    an earlier level, which lets whole columns be computed level by level.
    """

    def __init__(self, elements: List, identity, generators: List,
                 gen_cols: List[List[int]], parent: List[int],
                 pgen: List[int], levels: List[np.ndarray]):
        self.elements = elements
        self.identity = identity
        self.generators = generators
        self._gen_cols = gen_cols
        self._parent = parent
        self._pgen = pgen
        self._levels = levels
        self._arrays: Optional[Tuple[np.ndarray, ...]] = None
        self.index = {x: i for i, x in enumerate(elements)}
        self.order = len(elements)
        self._inv: Dict[int, int] = {}
        self._elem_order: Dict[int, int] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def generate(cls, generators: List, mul_fn: Callable, identity,
                 size_bound: int = DEFAULT_SIZE_BOUND) -> "FiniteGroupTable":
        """Breadth-first closure of the generators under mul_fn.  The table
        lists the elements in their natural order (for cover elements the
        tuple order (eps, perm)), so it is independent of discovery order.
        Raises SizeBoundExceeded past size_bound elements."""
        if size_bound < 1:
            raise SizeBoundExceeded(f"closure exceeded {size_bound} elements")
        gens = []
        for g in generators:
            if g != identity and g not in gens:
                gens.append(g)
        # elements by discovery position, and per generator the position of
        # each element times it
        found = [identity]
        pos = {identity: 0}
        parent, pgen = [-1], [-1]
        cols: List[List[int]] = [[] for _ in gens]
        levels = [[0]]
        while levels[-1]:
            new = []
            for xi in levels[-1]:
                x = found[xi]
                for gi, g in enumerate(gens):
                    y = mul_fn(x, g)
                    yi = pos.get(y)
                    if yi is None:
                        yi = pos[y] = len(found)
                        found.append(y)
                        parent.append(xi)
                        pgen.append(gi)
                        new.append(yi)
                        if len(found) > size_bound:
                            raise SizeBoundExceeded(
                                f"closure exceeded {size_bound} elements")
                    cols[gi].append(yi)
            levels.append(new)
        # the BFS visits elements in discovery order, so cols[gi][xi] is
        # the product of element xi; renumber everything in sorted order
        order = sorted(range(len(found)), key=found.__getitem__)
        rank = [0] * len(found)
        for r, xi in enumerate(order):
            rank[xi] = r
        return cls([found[xi] for xi in order], identity, gens,
                   [[rank[col[xi]] for xi in order] for col in cols],
                   [rank[parent[xi]] if parent[xi] >= 0 else -1
                    for xi in order],
                   [pgen[xi] for xi in order],
                   [np.array([rank[xi] for xi in level], dtype=np.int64)
                    for level in levels[:-1]])

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

    def _tree_arrays(self) -> Tuple[np.ndarray, ...]:
        """The generator columns (one row per generator), parent and pgen
        as index arrays."""
        if self._arrays is None:
            self._arrays = (
                np.array(self._gen_cols, dtype=np.int64).reshape(
                    len(self._gen_cols), self.order),
                np.array(self._parent, dtype=np.int64),
                np.array(self._pgen, dtype=np.int64))
        return self._arrays

    def right_column(self, j: int) -> np.ndarray:
        """x * element j for every index x, as one index array."""
        cols = self._tree_arrays()[0]
        col = np.arange(self.order)
        for gi in self._word(j):
            col = cols[gi][col]
        return col

    def left_column(self, j: int) -> np.ndarray:
        """element j * x for every index x: along the tree, j * x is
        (j * parent(x)) * generator, one level at a time."""
        cols, parent, pgen = self._tree_arrays()
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


def preimage_subgroup(gens: Iterable[Perm], spec: CoverSpec,
                      size_bound: int = DEFAULT_SIZE_BOUND) -> FiniteGroupTable:
    """The full preimage of P = <gens> under the projection, of order
    2*|P|, generated by the lifts (0, g) and z.

    As a set the preimage is {0, 1} x P, so only P is closed, as
    permutations.  (eps, pi) gets index eps*|P| + rank(pi), which is the
    CoverElem tuple order.  The column of a lift (0, g) is P's column of g
    with the cocycle bits c(pi, g) of all pi at once (Cover.cocycles), z is
    the index shift by |P|, and the Schreier tree of P lifts to one of the
    preimage with z on the path to (1, identity).  size_bound counts the
    2*|P| elements of the preimage."""
    cov = get_cover(spec)
    try:
        base = FiniteGroupTable.generate(list(gens), compose,
                                         cov.identity.perm, size_bound // 2)
    except SizeBoundExceeded:
        raise SizeBoundExceeded(
            f"closure exceeded {size_bound} elements") from None
    m = base.order
    perms = np.array(base.elements, dtype=np.int64).reshape(m, spec.n)
    bits = np.array([cov.cocycles(perms, g) for g in base.generators],
                    dtype=np.int64).reshape(len(base.generators), m)
    cols, parent, pgen = base._tree_arrays()
    cols = cols + m * bits  # (0, pi) * (0, g), then z times it
    shift = np.concatenate([np.arange(m) + m, np.arange(m)])
    gen_cols = [np.concatenate([c, shift[c]]) for c in cols] + [shift]
    # (eps, pi) = (eps ^ c(parent(pi), g), parent(pi)) * (0, g) for the
    # tree edge g into pi, and (1, identity) = (0, identity) * z
    edge = np.flatnonzero(parent >= 0)
    flip = bits[pgen[edge], parent[edge]]
    up = np.full(2 * m, -1, dtype=np.int64)
    up[edge] = m * flip + parent[edge]
    up[edge + m] = m * (1 - flip) + parent[edge]
    up[m] = 0
    up_gen = np.concatenate([pgen, pgen])
    up_gen[m] = len(base.generators)
    levels = [base._levels[0], base._levels[0] + m] + [
        np.concatenate([level, level + m]) for level in base._levels[1:]]
    return FiniteGroupTable(
        [CoverElem(0, pi) for pi in base.elements]
        + [CoverElem(1, pi) for pi in base.elements],
        cov.identity,
        [CoverElem(0, g) for g in base.generators] + [cov.z],
        [c.tolist() for c in gen_cols], up.tolist(), up_gen.tolist(), levels)


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
    """A shortest word in gens for every element of <gens>, by BFS."""
    words: Dict[int, Tuple[int, ...]] = {e: ()}
    frontier = [e]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = cayley[x][g]
                if y not in words:
                    words[y] = words[x] + (g,)
                    new.append(y)
        frontier = new
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
    y x y^-1 = x^-1; elements are pairs (i, j) meaning x^i y^j."""
    if order < 8 or order & (order - 1):
        raise ValueError("generalized quaternion groups have 2-power order >= 8")
    h = order // 2

    def qmul(a, b):
        i1, j1 = a
        i2, j2 = b
        if j1 == 0:
            i, j = i1 + i2, j2
        else:
            i, j = i1 - i2, 1 + j2
        if j >= 2:
            i, j = i + h // 2, j - 2
        return (i % h, j)

    return FiniteGroupTable.generate([(1, 0), (0, 1)], qmul, (0, 0),
                                     size_bound=order + 1)


def cyclic_table(order: int) -> FiniteGroupTable:
    return FiniteGroupTable.generate([1], lambda a, b: (a + b) % order, 0,
                                     size_bound=order + 1)

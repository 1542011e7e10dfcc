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
    """Arithmetic context for one CoverSpec: memoized cocycle bits and
    canonical words."""

    def __init__(self, spec: CoverSpec):
        if spec.n > 16:
            raise ValueError("cover arithmetic is desk-scale: n <= 16")
        self.spec = spec
        self._minus = int(spec.sign < 0)
        self._ident_perm = identity_perm(spec.n)
        self._elem_bits: Dict[Tuple[Perm, int], int] = {}
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
        key = (perm, i)
        bit = self._elem_bits.get(key)
        if bit is not None:
            return bit
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
        self._elem_bits[key] = bit
        return bit

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
        eps = 0
        cur = sigma
        for i in self._word(tau):
            eps ^= self.elementary_cocycle(cur, i)
            cur = right_multiply_adjacent(cur, i)
        return eps

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
    """Drop all memoized cover contexts (cocycle bits and words)."""
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


# above this rank the closure of 2 * n! elements is too slow to run
_CLOSURE_MAX_N = 8


def verify_presentation(spec: CoverSpec,
                        size_bound: int = DEFAULT_SIZE_BOUND,
                        mul_fn: Optional[Callable[[CoverElem, CoverElem], CoverElem]] = None
                        ) -> PresentationReport:
    """Check every defining relation of the matching presentation and confirm
    the group order equals 2*n!.

    For n <= 8 the order is established by closing the generator set; for
    larger n it follows from the transversal argument: every
    permutation is a product of the generator images (its canonical word is
    checked to reassemble it), and z = (g_1 g_3)^2 lies in the group, so the
    element count is exactly 2 * n!.

    mul_fn exists for fault injection in tests; it defaults to cover
    multiplication.
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
        count = _closure_count(gens + [z], mul_, e, size_bound)
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


def _closure_count(gens: Sequence[CoverElem],
                   mul_: Callable[[CoverElem, CoverElem], CoverElem],
                   identity: CoverElem, size_bound: int) -> int:
    seen = {identity}
    frontier = [identity]
    while frontier:
        new: List[CoverElem] = []
        for x in frontier:
            for g in gens:
                y = mul_(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
                    if len(seen) > size_bound:
                        raise SizeBoundExceeded(
                            f"closure exceeded {size_bound} elements")
        frontier = new
    return len(seen)


# ---------------------------------------------------------------------------
# finite group tables
# ---------------------------------------------------------------------------

class FiniteGroupTable:
    """A finite group materialized as a canonical element list plus fast
    index-level multiplication.

    Products fold the right factor's generator word through per-generator
    index columns, so a product costs O(word length) array lookups no matter
    how expensive the underlying multiplication was to evaluate once.
    """

    def __init__(self, elements: List, identity, generators: List,
                 gen_cols: List[List[int]], words: List[List[int]]):
        self.elements = elements
        self.identity = identity
        self.generators = generators
        self._gen_cols = gen_cols
        self._words = words
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
        gens = []
        for g in generators:
            if g != identity and g not in gens:
                gens.append(g)
        seen = {identity: []}
        frontier = [identity]
        products: Dict[Tuple[object, int], object] = {}
        while frontier:
            new = []
            for x in frontier:
                for gi, g in enumerate(gens):
                    y = mul_fn(x, g)
                    products[(x, gi)] = y
                    if y not in seen:
                        seen[y] = seen[x] + [gi]
                        new.append(y)
                        if len(seen) > size_bound:
                            raise SizeBoundExceeded(
                                f"closure exceeded {size_bound} elements")
            frontier = new
        elements = sorted(seen)
        index = {x: i for i, x in enumerate(elements)}
        gen_cols = [[index[products[(x, gi)]] for x in elements]
                    for gi in range(len(gens))]
        words = [seen[x] for x in elements]
        return cls(elements, identity, gens, gen_cols, words)

    # -- index arithmetic -----------------------------------------------------

    def idx(self, elem) -> int:
        return self.index[elem]

    def mul_idx(self, i: int, j: int) -> int:
        cur = i
        for gi in self._words[j]:
            cur = self._gen_cols[gi][cur]
        return cur

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
    """Closure of {(0, g)} together with z: the full preimage of <gens>
    under the projection, of order 2*|<gens>|."""
    cov = get_cover(spec)
    generators = [cov.elem(g) for g in gens] + [cov.z]
    return FiniteGroupTable.generate(generators, cov.mul, cov.identity,
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
    gen_idx = [table.idx(g) for g in table.generators]
    return [x for i, x in enumerate(table.elements)
            if all(table.mul_idx(i, j) == table.mul_idx(j, i)
                   for j in gen_idx)]


def conjugacy_classes(table: FiniteGroupTable) -> List[List[int]]:
    """Partition of element indices into conjugacy classes.  Classes are
    ordered with the identity class first, then by (size, smallest index)."""
    gen_idx = [table.idx(g) for g in table.generators]
    gen_inv = [table.inv_idx(i) for i in gen_idx]
    seen = [False] * table.order
    classes: List[List[int]] = []
    for start in range(table.order):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        stack = [start]
        while stack:
            x = stack.pop()
            for g, gi in zip(gen_idx, gen_inv):
                y = table.mul_idx(table.mul_idx(g, x), gi)
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
                    stack.append(y)
        classes.append(sorted(orbit))
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

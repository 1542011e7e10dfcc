"""Double covers of S_n and A_n realized as (central bit, permutation) pairs
twisted by a 2-cocycle.

The cocycle lives in the Clifford algebra of +-(x_1^2 + ... + x_n^2): the
canonical lift of a permutation is the product of v_i = (e_i - e_{i+1})/sqrt(2)
over its canonical reduced word, and c(sigma, tau) is the sign relating
lift(sigma)*lift(tau) to lift(sigma*tau).  Products fold over the canonical
word of tau, so only the elementary values c(rho, s_i) are needed, and
_closed_form gives them from the inversion parities of rho, for one
permutation or for every row of a closure at once.  The closed form follows
from Matsumoto/Tits moves (sign conventions as in Stembridge, Adv. Math. 74
(1989)): distant v_i anticommute and braid moves carry no sign, so
T_w * (-1)^f(w), with f(w) the parity of the pairs of disjoint inversion
pairs that w introduces in anti-lexicographic order, is the same for every
reduced word w.  The tests compare the closed form with the Clifford
definition, evaluated on integer products of the vectors e_i - e_{i+1}
(tests/oracles.py).
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence as SequenceABC
from functools import cached_property
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from . import _lazy_import
from .numth import SizeBoundExceeded
from .perms import (
    Perm,
    adjacent_transposition,
    canonical_word,
    compose,
    identity_perm,
    inverse,
    sylow2_sym_generators,
)


# chartab takes np from here: an `import numpy` statement would read the
# lazy module's __spec__ and so execute numpy at once; the quadratic-form
# commands never touch numpy, so they never pay for executing it
np = _lazy_import("numpy")

DEFAULT_SIZE_BOUND = 1 << 18


class VerificationError(RuntimeError):
    """A presentation relation or structural check failed."""


class _CoverSpecFields(NamedTuple):
    n: int
    variant: str


class CoverSpec(_CoverSpecFields):
    """Which double cover: rank n >= 4 and the generator-square convention.

    variant 'plus' models s_i^2 = 1 (generators square to +1 in the Clifford
    algebra), 'minus' models t_i^2 = z (squares -1).
    """

    __slots__ = ()

    def __new__(cls, n: int, variant: str):
        if n < 4:
            raise ValueError("covers are only considered for n >= 4")
        if variant not in ("plus", "minus"):
            raise ValueError("variant must be 'plus' or 'minus'")
        return super().__new__(cls, n, variant)

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


def _closed_form(cols: Sequence, words: Iterable[Sequence[int]],
                 minus: int) -> List[Tuple]:
    """(c, columns of sigma tau) for the word of every tau in `words`, where
    cols[q] is sigma(q + 1): a Python int for one permutation, or a numpy
    int array holding that column of many.  Only +, -, *, &, <<, >>, ^ and
    > act on the columns, so both kinds take the same steps.  Any word of
    adjacent letters folds, reduced or not.

    Bit k of `odd` is the parity of the inversions of sigma whose larger
    value is at least k.  A value b is the larger value of one inversion
    per smaller value to its right: of the b - 1 values below b, those not
    to its left, whose parity is bit b - 1 of `left` (bit j: the parity of
    the values <= j seen so far).  The word of tau is folded one letter s_i
    at a time into rho, sigma times the letters so far, whose `odd` is
    `par`: with y the larger of the values in positions i and i + 1,
    c(rho, s_i) is the parity of the inversions whose larger value exceeds
    y, bit y + 1 of `par`, XOR 1 for a descent at i in the minus variant,
    where the step ends in v_i^2 = -1.  Swapping the two positions changes
    the count of y alone, by one, which flips bits 0..y of `par`."""
    odd = left = 0
    for b in cols:
        odd ^= ((b - 1 ^ left >> (b - 1)) & 1) * ((2 << b) - 1)
        left ^= -1 << b
    out = []
    for word in words:
        cur, bits, par = list(cols), 0, odd
        for i in word:
            x, y = cur[i - 1], cur[i]
            desc = x > y
            top = y + (x - y) * desc
            bits ^= (par >> (top + 1) & 1) ^ desc * minus
            par = par ^ ((2 << top) - 1)
            cur[i - 1], cur[i] = y, x
        out.append((bits, cur))
    return out


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
        """c(perm, s_i): sign in lift(perm)*v_i = (-1)^c * lift(perm*s_i),
        the one-letter case of _closed_form."""
        return _closed_form(perm, [(i,)], self._minus)[0][0]

    def cocycle(self, sigma: Perm, tau: Perm) -> int:
        """c(sigma, tau) with lift(sigma)lift(tau) = z^c lift(sigma tau);
        a generator tau is elementary_cocycle's one-letter case."""
        if len(sigma) != self.spec.n or len(tau) != self.spec.n:
            raise ValueError("permutation size does not match the cover spec")
        word = self._word(tau)
        if not word:
            return 0
        if len(word) == 1:
            return self.elementary_cocycle(sigma, word[0])
        return _closed_form(sigma, [word], self._minus)[0][0]

    def cocycles(self, sigmas: np.ndarray, taus: Sequence[Perm]) -> np.ndarray:
        """c(sigma, tau) for every row sigma (one-line notation) of a 2-d
        array and every tau, one row of bits per tau: _closed_form on the
        columns of the array."""
        out = np.zeros((len(taus), len(sigmas)), dtype=np.int64)
        words = [self._word(tau) for tau in taus]
        cols = list(np.ascontiguousarray(sigmas.T, dtype=np.int64))
        for row, (bits, _) in zip(out, _closed_form(cols, words, self._minus)):
            row[:] = bits
        return out

    def _word(self, perm: Perm) -> Tuple[int, ...]:
        w = self._words.get(perm)
        if w is None:
            if len(self._words) > (1 << 17):
                self._words.clear()
            w = self._words[perm] = tuple(canonical_word(perm))
        return w

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
        """Product of generator lifts s_{i1} s_{i2} ...: one fold of
        _closed_form from the identity."""
        for i in indices:
            if not 1 <= i < self.spec.n:
                raise ValueError(
                    f"adjacent index {i} out of range for n={self.spec.n}")
        bits, cur = _closed_form(self._ident_perm, [indices], self._minus)[0]
        return CoverElem(bits, tuple(cur))


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

class RelationResult(NamedTuple):
    relation: str
    ok: bool


class PresentationReport(NamedTuple):
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
                        size_bound: int = DEFAULT_SIZE_BOUND
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
    the element count is exactly 2 * n!.  The relations on z and the
    squares are evaluated by cover multiplication, and every longer
    generator word by Cover.word; the closure goes through neither.
    """
    cov = get_cover(spec)
    n = spec.n
    e, z = cov.identity, cov.z
    gens = [cov.gen(i) for i in range(1, n)]
    plus = spec.variant == "plus"
    letter = "s" if plus else "t"
    rels: List[RelationResult] = []
    rels.append(RelationResult("z^2 = 1", cov.mul(z, z) == e))
    for i in range(1, n):
        g = gens[i - 1]
        sq = cov.mul(g, g)
        if plus:
            rels.append(RelationResult(f"{letter}{i}^2 = 1", sq == e))
        else:
            rels.append(RelationResult(f"{letter}{i}^2 = z", sq == z))
        rels.append(RelationResult(
            f"[z, {letter}{i}] = 1", cov.mul(z, g) == cov.mul(g, z)))
    for i in range(1, n):
        for j in range(i + 2, n):
            val = cov.word(i, j, i, j)
            rels.append(RelationResult(
                f"({letter}{i} {letter}{j})^2 = z", val == z))
    for i in range(1, n - 1):
        val = cov.word(i, i + 1, i, i + 1, i, i + 1)
        if plus:
            rels.append(RelationResult(
                f"({letter}{i} {letter}{i+1})^3 = 1", val == e))
        else:
            rels.append(RelationResult(
                f"({letter}{i} {letter}{i+1})^3 = z", val == z))

    expected = 2 * math.factorial(n)
    if n <= _CLOSURE_MAX_N:
        _, _, cols = _lifted_columns(gens, cov, size_bound)
        count = sum(len(level) for level in _schreier_tree(cols, 0)[2])
        method = "closure"
    else:
        # z is reachable from the generators and every permutation is hit by
        # its canonical word, so {0,1} x S_n is the underlying set
        ok = cov.word(1, 3, 1, 3) == z
        rels.append(RelationResult("(g1 g3)^2 = z (transversal witness)", ok))
        rng = random.Random(12345)
        for _ in range(8):
            img = list(range(1, n + 1))
            rng.shuffle(img)
            sigma = tuple(img)
            rels.append(RelationResult(
                "canonical word reassembles a sample permutation",
                cov.word(*canonical_word(sigma)).perm == sigma))
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
    parent -1 and is in no level.

    Each column is a permutation, so one generator's targets from one
    level are distinct: the generators claim the unseen ones in turn, and
    the first edge in generator-major order wins."""
    size = cols.shape[1]
    parent = np.full(size, -1, dtype=np.int64)
    pgen = np.full(size, -1, dtype=np.int64)
    seen = np.zeros(size, dtype=bool)
    seen[root] = True
    level = np.array([root], dtype=np.int64)
    levels = []
    while len(level):
        levels.append(level)
        claimed = []
        for g, col in enumerate(cols):
            step = col[level]
            fresh = np.flatnonzero(~seen[step])
            target = step[fresh]
            seen[target] = True
            parent[target] = level[fresh]
            pgen[target] = g
            claimed.append(target)
        level = np.sort(np.concatenate(claimed)) if claimed else level[:0]
    return parent, pgen, levels


def _perm_keys(rows: np.ndarray) -> np.ndarray:
    """The base-n key of every int row (one-line notation): its first
    n - 1 entries as base-n digits, which sort like the one-line tuples
    (n^(n-1) <= 2^60 for n <= 16)."""
    n = rows.shape[1]
    digits = np.int64(n) ** np.arange(n - 1)[::-1]
    return (rows[:, :n - 1] - 1) @ digits


def _close(gens: Sequence[Perm], n: int, size_bound: int
           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The permutation group generated by gens on n points, closed
    breadth-first a whole level at a time: one gather applies every
    generator to every element of the frontier.  Returns the elements as
    int rows in one-line tuple order, their sorted _perm_keys, and one
    column per given generator: cols[g][x] is the row of element x times
    gens[g].

    New elements are found against the sorted _perm_keys so far, and the
    columns by searchsorted.  Raises SizeBoundExceeded past size_bound
    elements."""
    if n > 16:
        raise ValueError("permutation keys hold at most 16 points")
    moves = np.array(gens, dtype=np.int64).reshape(len(gens), n) - 1
    frontier = np.arange(1, n + 1, dtype=np.int64).reshape(1, n)
    found = _perm_keys(frontier)  # sorted keys of every element so far
    levels, level_keys, products = [], [found], []
    while len(frontier):
        levels.append(frontier)
        # element-major: row x * len(gens) + g is element x times g
        step = frontier[:, moves].reshape(len(frontier) * len(gens), n)
        products.append(_perm_keys(step))
        # equal keys are equal rows, so any occurrence is the frontier row
        first = np.argsort(products[-1])
        fresh = products[-1][first]
        distinct = np.ones(len(fresh), dtype=bool)
        distinct[1:] = fresh[1:] != fresh[:-1]
        fresh, first = fresh[distinct], first[distinct]
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
    return rows, found, cols


# indices are int32, so no table may pass 2^31 elements
MAX_SIZE_BOUND = 1 << 31


def _check_size_bound(size_bound: int) -> None:
    if size_bound > MAX_SIZE_BOUND:
        raise ValueError(f"size bound {size_bound} exceeds 2^31: table "
                         f"indices are int32")


class _Perms(SequenceABC):
    """The elements of a permutation group closed by _close, made on
    demand from its int rows; index() finds a permutation by its base-n
    key, which the rows are sorted by."""

    def __init__(self, rows: np.ndarray, keys: np.ndarray):
        self._rows = rows
        self._keys = keys

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i: int) -> Perm:
        return tuple(self._rows[i].tolist())

    def index(self, perm) -> int:
        if len(perm) == self._rows.shape[1]:
            key = _perm_keys(np.array([perm], dtype=np.int64))[0]
            i = int(self._keys.searchsorted(key))
            if i < len(self) and self[i] == tuple(perm):
                return i
        raise ValueError(f"{perm!r} is not in the group")


class _CoverElems(SequenceABC):
    """The elements (eps, pi) of a cover subgroup over its image P, made on
    demand: index i is the element with keep[i] = eps * |P| + the index of
    pi in P, keep sorted."""

    def __init__(self, perms: _Perms, keep: np.ndarray):
        self._perms = perms
        self._keep = keep

    def __len__(self) -> int:
        return len(self._keep)

    def __getitem__(self, i: int) -> CoverElem:
        eps, r = divmod(int(self._keep[i]), len(self._perms))
        return CoverElem(eps, self._perms[r])

    def index(self, elem) -> int:
        eps, perm = elem
        j = eps * len(self._perms) + self._perms.index(perm)
        i = int(self._keep.searchsorted(j))
        if i < len(self) and self._keep[i] == j:
            return i
        raise ValueError(f"{elem!r} is not in the group")


class FiniteGroupTable:
    """A finite group as index-level multiplication, with its elements made
    on demand.

    `elements` is given as a sequence in index order whose index() finds an
    element's index: a list for small tables, or the rows of a closure
    (_Perms, _CoverElems), which make an element only when one is asked
    for.  gen_cols[g][x] is the index of element x times generator g, so
    gen_cols[g][identity_idx] is generator_idx[g].  The group is spanned
    by a Schreier tree, a breadth-first search from the identity over
    these columns (built here unless `tree` gives it): element j is
    parent[j] times the generator pgen[j], down to the identity (parent
    -1).  Index arithmetic walks the tree: right_columns gathers the
    columns along the elements' words, left_columns fills them level by
    level, and power_cycles multiplies powers along the words, so it costs
    array gathers no matter how expensive the underlying multiplication
    was to evaluate once.  `levels` lists the tree's elements with every
    parent in an earlier level.
    """

    def __init__(self, elements: Sequence, identity, generators: List,
                 gen_cols, tree=None):
        self._elements = elements
        self.identity = identity
        self.generators = generators
        self.order = len(elements)
        self._gen_cols = np.asarray(gen_cols, dtype=np.int32).reshape(
            len(generators), self.order)
        self.identity_idx = self.idx(identity)
        self.generator_idx = self._gen_cols[:, self.identity_idx].tolist()
        if tree is None:
            tree = _schreier_tree(self._gen_cols, self.identity_idx)
            if sum(len(level) for level in tree[2]) != self.order:
                raise ValueError("the generators do not reach every element")
        self._parent, self._pgen, self._levels = tree

    # -- construction -------------------------------------------------------

    @classmethod
    def generate(cls, generators: List[Perm],
                 size_bound: int = DEFAULT_SIZE_BOUND) -> "FiniteGroupTable":
        """The table of the permutation group generated by `generators`
        (one-line notation), closed by `_close`, with the identity and
        repeated generators dropped."""
        _check_size_bound(size_bound)
        n = len(generators[0]) if generators else 0
        ident = identity_perm(n)
        gens = list(dict.fromkeys(
            g for g in map(tuple, generators) if g != ident))
        rows, keys, cols = _close(gens, n, size_bound)
        return cls(_Perms(rows, keys), ident, gens, cols)

    # -- elements -------------------------------------------------------------

    @cached_property
    def elements(self) -> List:
        """Every element, in index order: for tests and small groups."""
        return list(self._elements)

    @cached_property
    def index(self) -> Dict:
        """Element -> index, for every element."""
        return {x: i for i, x in enumerate(self.elements)}

    def element(self, i: int):
        return self._elements[i]

    def idx(self, elem) -> int:
        return self._elements.index(elem)

    # -- index arithmetic -----------------------------------------------------

    def _word(self, j: int) -> List[int]:
        """The generator indices along the tree path from the identity
        to element j."""
        word = []
        parent, pgen = self._parent, self._pgen
        while parent[j] >= 0:
            word.append(int(pgen[j]))
            j = parent[j]
        word.reverse()
        return word

    def right_columns(self, js: Sequence[int]
                      ) -> Iterator[Tuple[int, np.ndarray]]:
        """(k, the column of x * js[k] for every index x) for every k, in
        the order of the elements' words.  A depth-first walk over the
        sorted words keeps the column of every prefix of the last word on a
        stack, so a prefix that words share is gathered once.  A yielded column stays on the
        stack: the caller must not write to it.  (take gathers by int32
        indices at the speed of indexing by int64 ones.)"""
        stack = [np.arange(self.order, dtype=np.int32)]
        last: List[int] = []
        for word, k in sorted((self._word(j), k) for k, j in enumerate(js)):
            common = 0
            for a, b in zip(last, word):
                if a != b:
                    break
                common += 1
            del stack[common + 1:]
            for gi in word[common:]:
                stack.append(self._gen_cols[gi].take(stack[-1]))
            last = word
            yield k, stack[-1]

    def left_columns(self, js: Sequence[int]) -> np.ndarray:
        """Row k holds element js[k] * x for every index x: along the
        tree, j * x is (j * parent(x)) * generator, one level at a time for
        every j at once."""
        cols, parent, pgen = self._gen_cols, self._parent, self._pgen
        out = np.empty((len(js), self.order), dtype=np.int64)
        out[:, self._levels[0]] = np.reshape(js, (-1, 1))
        for level in self._levels[1:]:
            out[:, level] = cols[pgen[level], out[:, parent[level]]]
        return out

    def power_cycles(self, js: Sequence[int]) -> Tuple[List[int], List[int]]:
        """The inverse and the order of every element js[k], all at once:
        the k-th power runs from the identity, multiplied by js[k] along its
        word, one letter for every k at a time, until each is back at the
        identity; the power before that is the inverse."""
        words = sorted(((self._word(j), k) for k, j in enumerate(js)),
                       key=lambda wk: -len(wk[0]))
        # letter i of every word longer than i: with the longest words
        # first, these are the first powers
        letters = [np.array([w[i] for w, _ in words if len(w) > i])
                   for i in range(len(words[0][0]) if words else 0)]
        e = self.identity_idx
        cur = np.full(len(js), e, dtype=np.int64)
        inv = np.empty(len(js), dtype=np.int64)
        orders = np.zeros(len(js), dtype=np.int64)
        power = 0
        while not orders.all():
            prev = cur.copy()
            for gs in letters:
                cur[:len(gs)] = self._gen_cols[gs, cur[:len(gs)]]
            power += 1
            back = (cur == e) & (orders == 0)
            orders[back] = power
            inv[back] = prev[back]
        out = np.empty((2, len(js)), dtype=np.int64)
        out[:, [k for _, k in words]] = inv, orders
        return out[0].tolist(), out[1].tolist()


def _lifted_columns(gens: List[CoverElem], cov: Cover, size_bound: int
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P = <g.perm> closed by _close, as int rows and their keys, and the
    column of every g on {0, 1} x P, where (eps, pi) has index
    eps*|P| + rank(pi): P's column of g.perm plus |P| times
    c(pi, g.perm) XOR g.eps XOR eps.  size_bound counts the 2*|P|
    indices."""
    _check_size_bound(size_bound)
    perms = [g.perm for g in gens]
    try:
        rows, keys, base = _close(perms, cov.spec.n, size_bound // 2)
    except SizeBoundExceeded:
        raise SizeBoundExceeded(
            f"closure exceeded {size_bound} elements") from None
    m = len(rows)
    flip = cov.cocycles(rows, perms)
    flip ^= np.array([g.eps for g in gens], dtype=np.int64).reshape(-1, 1)
    flip *= m
    return rows, keys, np.hstack([base + flip, base + m - flip])


def cover_subgroup(gens: Iterable[CoverElem], spec: CoverSpec,
                   size_bound: int = DEFAULT_SIZE_BOUND) -> FiniteGroupTable:
    """The subgroup of the cover generated by gens.

    Only its image P = <g.perm> is closed, as permutations.  (eps, pi) * g
    is (eps ^ g.eps ^ c(pi, g.perm), pi * g.perm), so the column of g is
    P's column of g.perm lifted by the cocycle bits of all pi at once
    (Cover.cocycles), and z is the index shift by |P|.  The subgroup is
    what these columns reach from the identity: all of {0, 1} x P once z
    is reached, a copy of P otherwise, renumbered in CoverElem tuple order.
    The Schreier tree of that reach is the table's, renumbered the same
    way; the renumbering keeps order, so it is the tree a search over the
    renumbered columns would find.  The identity and repeated generators
    are dropped.  size_bound counts the 2*|P| elements of {0, 1} x P."""
    cov = get_cover(spec)
    gens = list(dict.fromkeys(g for g in gens if g != cov.identity))
    rows, keys, cols = _lifted_columns(gens, cov, size_bound)
    m = len(rows)
    parent, pgen, levels = _schreier_tree(cols, 0)
    keep = np.sort(np.concatenate(levels))
    # one slot past the end keeps the root's parent -1 at -1
    renumber = np.full(2 * m + 1, -1, dtype=np.int64)
    renumber[keep] = np.arange(len(keep))
    tree = (renumber[parent[keep]], pgen[keep],
            [renumber[level] for level in levels])
    return FiniteGroupTable(_CoverElems(_Perms(rows, keys), keep),
                            cov.identity, gens, renumber[cols[:, keep]], tree)


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
    for right, left in zip(table._gen_cols,
                           table.left_columns(table.generator_idx)):
        central &= right == left
    return [table.element(i) for i in np.flatnonzero(central)]


def conjugacy_classes(table: FiniteGroupTable) -> List[List[int]]:
    """Partition of element indices into conjugacy classes.  Classes are
    ordered with the identity class first, then by (size, smallest index)."""
    conj = []
    for right, left in zip(table._gen_cols,
                           table.left_columns(table.generator_idx)):
        # x * g^-1 for every x: g's right column, inverted as a permutation
        g_inv = np.empty(table.order, dtype=np.int64)
        g_inv[right] = np.arange(table.order)
        conj.append(g_inv[left])
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
    e = table.identity_idx
    classes.sort(key=lambda c: (0 if c[0] == e and len(c) == 1 else 1,
                                len(c), c[0]))
    return classes


def is_generalized_quaternion(table: FiniteGroupTable) -> bool:
    """Is the group generalized quaternion, Q_{2^k} with k >= 3?  A 2-group
    of order >= 8 with exactly one involution is cyclic or generalized
    quaternion (Burnside; Gorenstein, Finite Groups, Thm 5.4.10(ii)), and
    cyclic exactly when some element has the group's order.  The element
    orders come from one power_cycles pass."""
    if table.order < 8 or table.order & (table.order - 1):
        return False
    _, orders = table.power_cycles(range(table.order))
    return orders.count(2) == 1 and table.order not in orders

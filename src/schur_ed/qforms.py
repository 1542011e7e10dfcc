"""Quadratic forms over Q, exactly: Hilbert symbols, Hasse invariants as
2-torsion Brauer classes (sets of ramified places), isotropy and Witt index
by the local-global criteria, trace forms of etale algebras, and the
splitting-tower bookkeeping for forms over fields containing sqrt(-1).

A Brauer class of exponent 2 over Q is faithfully encoded by its finite,
even-cardinality set of ramified places; the group law is symmetric
difference and the index is 1 or 2 according to whether the set is empty.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import gcd, prod
from operator import mul
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple,
                    Union)

from . import polyq
from .numth import factorize, is_perfect_square, is_prime, legendre, valuation
from .polyq import Poly


# ---------------------------------------------------------------------------
# places of Q
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Place:
    """A place of Q: a finite prime, or the real place (p = 0, sorts last
    via the is_infinite flag)."""

    is_infinite: bool
    p: int

    @classmethod
    def infinity(cls) -> "Place":
        return cls(True, 0)

    @classmethod
    def finite(cls, p: int) -> "Place":
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return cls(False, p)

    def __repr__(self):
        return "oo" if self.is_infinite else str(self.p)

    def to_json(self):
        return "inf" if self.is_infinite else self.p


INF = Place.infinity()
TWO = Place(False, 2)


class BrauerClass2:
    """2-torsion Brauer class over Q as its set of ramified places."""

    __slots__ = ("ramified",)

    def __init__(self, ramified: Iterable[Place] = ()):
        ram = frozenset(ramified)
        if len(ram) % 2:
            raise ValueError("a Brauer class over Q ramifies at an even "
                             "number of places")
        self.ramified = ram

    @classmethod
    def zero(cls) -> "BrauerClass2":
        return cls()

    def __add__(self, other: "BrauerClass2") -> "BrauerClass2":
        return BrauerClass2(self.ramified ^ other.ramified)

    def __eq__(self, other):
        if not isinstance(other, BrauerClass2):
            return NotImplemented
        return self.ramified == other.ramified

    def __hash__(self):
        return hash(self.ramified)

    def is_zero(self) -> bool:
        return not self.ramified

    def __repr__(self):
        inside = ", ".join(repr(v) for v in sorted(self.ramified))
        return "BrauerClass2{" + inside + "}"

    def to_json(self):
        return [v.to_json() for v in sorted(self.ramified)]


def brauer_index(c: BrauerClass2) -> int:
    """Over Q the index of a 2-torsion class equals its exponent."""
    return 1 if c.is_zero() else 2


# ---------------------------------------------------------------------------
# square classes
# ---------------------------------------------------------------------------

def _square_product(x: Fraction, y: Fraction) -> bool:
    """Is x*y a nonzero square in Q?  Factorization-free: x*y = ac/(bd) for
    x = a/b and y = c/d is a square iff ac/(bd) * (bd)^2 = abcd is, and
    abcd is an integer, so one isqrt decides it and no Fraction is built."""
    n = x.numerator * x.denominator * y.numerator * y.denominator
    return n > 0 and is_perfect_square(n)


_HASH_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class SquareClass:
    """A class in Q^x / (Q^x)^2.  Equality never factors; the canonical
    squarefree integer representative is materialized on demand."""

    __slots__ = ("value", "_rep")

    def __init__(self, value):
        if type(value) is not Fraction:
            value = Fraction(value)
        if value == 0:
            raise ValueError("0 is not a square class")
        self.value = value
        self._rep: Optional[int] = None

    @property
    def representative(self) -> int:
        """The squarefree integer in the class.  Numerator and denominator
        are coprime and factored apart, through the memo that a trace
        form's places have already filled with its factor discriminants."""
        if self._rep is None:
            rep = -1 if self.value < 0 else 1
            for n in (self.value.numerator, self.value.denominator):
                rep *= prod(p for p, e in _cached_factorize(n).items()
                            if e % 2)
            self._rep = rep
        return self._rep

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:  # 0 is in no square class
                return False
            other = SquareClass(other)
        if not isinstance(other, SquareClass):
            return NotImplemented
        return _square_product(self.value, other.value)

    def __hash__(self):
        # sign and the exponent parities of a few small primes, found by
        # trial division: equal classes agree on both, and nothing factors
        n = abs(self.value.numerator * self.value.denominator)
        bits = 0
        for i, p in enumerate(_HASH_PRIMES):
            bits |= (valuation(n, p)[0] & 1) << i
        return hash((self.value > 0, bits))

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        return SquareClass(self.value * other.value)

    def is_one(self) -> bool:
        return _square_product(self.value, Fraction(1))

    def __repr__(self):
        if self._rep is not None:
            return f"SquareClass({self._rep})"
        return f"SquareClass(value={self.value})"


# ---------------------------------------------------------------------------
# Hilbert symbols
# ---------------------------------------------------------------------------

def _two_adic_sym(a: Fraction, b: Fraction) -> int:
    alpha, u = _val_unit(a, 2)
    beta, w = _val_unit(b, 2)
    eps_u = ((u - 1) // 2) & 1
    eps_w = ((w - 1) // 2) & 1
    om_u = ((u * u - 1) // 8) & 1
    om_w = ((w * w - 1) // 8) & 1
    e = eps_u * eps_w + alpha * om_w + beta * om_u
    return -1 if e & 1 else 1


def _val_unit(a: Fraction, p: int) -> Tuple[int, int]:
    """(v, x*y) for a = p^v * x/y with x, y integers prime to p: x*y keeps
    the sign of a and is a p-adic unit in the square class of x/y."""
    vn, un = valuation(a.numerator, p)
    vd, ud = valuation(a.denominator, p)
    return vn - vd, un * ud


def hilbert_symbol(a, b, v: Place) -> int:
    """(a, b)_v in {+1, -1}: +1 iff z^2 = a x^2 + b y^2 has a nontrivial
    solution over the completion at v."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if v.is_infinite:
        return -1 if (a < 0 and b < 0) else 1
    p = v.p
    if p == 2:
        return _two_adic_sym(a, b)
    alpha, u = _val_unit(a, p)
    beta, w = _val_unit(b, p)
    sym = 1
    if (alpha * beta) & 1 and p % 4 == 3:
        sym = -sym
    if beta & 1 and legendre(u, p) == -1:
        sym = -sym
    if alpha & 1 and legendre(w, p) == -1:
        sym = -sym
    return sym


_factor_cache: Dict[int, Dict[int, int]] = {}


def _cached_factorize(n: int) -> Dict[int, int]:
    got = _factor_cache.get(n)
    if got is None:
        got = _factor_cache[n] = factorize(n)
        if len(_factor_cache) > 100_000:
            _factor_cache.clear()
            _factor_cache[n] = got
    return got


def quaternion_class(a, b) -> BrauerClass2:
    """The Brauer class of the quaternion algebra (a, b), that of <a, b>."""
    return QuadFormQ([a, b]).hasse


# ---------------------------------------------------------------------------
# diagonal forms and their invariants
# ---------------------------------------------------------------------------

# the most entries QuadFormQ.parse reads (the Hasse invariant costs dim - 1
# Hilbert symbols at every place, 0.03 s at dimension 64 with 88 places),
# and the longest entry, the cap on a polynomial coefficient too (a witness
# of 100 digits reaches the factoring cap in about 3 s, one of 300 digits in
# 25 s)
MAX_PARSED_DIM = 64
MAX_ENTRY_CHARS = polyq.MAX_COEFF_CHARS


class QuadFormQ:
    """Non-degenerate diagonal form <a_1, ..., a_n> over Q.

    `witnesses` are nonzero integers such that at each odd prime dividing
    none of them the form is isometric to a diagonal form of p-adic units,
    whose local invariants are trivial.  They default to the numerators and
    denominators of the entries."""

    __slots__ = ("diag", "witnesses", "_hasse", "_places")

    def __init__(self, diag: Sequence,
                 witnesses: Optional[Iterable[int]] = None):
        entries = [d if type(d) is Fraction else Fraction(d) for d in diag]
        if any(d == 0 for d in entries):
            raise ValueError("diagonal entries must be nonzero")
        self.diag = tuple(entries)
        if witnesses is None:
            witnesses = (n for d in entries
                         for n in (d.numerator, d.denominator))
        self.witnesses = tuple(witnesses)
        self._hasse: Optional[BrauerClass2] = None
        self._places: Optional[FrozenSet[Place]] = None

    @classmethod
    def parse(cls, text: str) -> "QuadFormQ":
        """The form of a comma-separated diagonal of at most MAX_PARSED_DIM
        rationals, each at most MAX_ENTRY_CHARS long and with no exponent,
        checked before any is read: Fraction reads "1e999999999" as
        10**999999999, and a long entry is a witness slow to factor."""
        entries = [t.strip() for t in text.split(",") if t.strip()]
        if len(entries) > MAX_PARSED_DIM:
            raise ValueError(f"a diagonal form takes at most {MAX_PARSED_DIM} "
                             "entries")
        for t in entries:
            if len(t) > MAX_ENTRY_CHARS:
                raise ValueError("a diagonal entry takes at most "
                                 f"{MAX_ENTRY_CHARS} characters")
            if re.search(polyq.EXPONENT, t):
                raise ValueError(f"diagonal entries take no exponent: {t!r}")
        return cls([Fraction(t) for t in entries])

    @property
    def dim(self) -> int:
        return len(self.diag)

    @property
    def places(self) -> FrozenSet[Place]:
        """oo, 2 and the odd primes of the witnesses, factored on first use:
        the only places where a local invariant of the form can be
        nontrivial."""
        if self._places is None:
            odd = {p for n in self.witnesses for p in _cached_factorize(n)
                   if p != 2}
            self._places = frozenset(
                [INF, TWO] + [Place(False, p) for p in odd])
        return self._places

    @property
    def hasse(self) -> BrauerClass2:
        """The Hasse class, computed on first use."""
        if self._hasse is None:
            self._hasse = hasse_invariant(self)
        return self._hasse

    def __repr__(self):
        return "<" + ", ".join(str(d) for d in self.diag) + ">"

    def to_json(self) -> dict:
        """The invariants as JSON."""
        return {
            "dim": self.dim,
            "diag": [str(d) for d in self.diag],
            "disc": _squarefree_disc(self),
            "signature": list(signature(self)),
            "hasse_ramified": self.hasse.to_json(),
            "witt_index": witt_index(self),
        }


def discriminant(q: QuadFormQ) -> SquareClass:
    return SquareClass(Fraction(prod(d.numerator for d in q.diag),
                                prod(d.denominator for d in q.diag)))


def signature(q: QuadFormQ) -> Tuple[int, int]:
    pos = sum(d.numerator > 0 for d in q.diag)
    return pos, q.dim - pos


def _squarefree_disc(q: QuadFormQ) -> int:
    """The squarefree integer in the class of the discriminant, read off
    the valuations of the entries at q.places."""
    d = -1 if signature(q)[1] % 2 else 1
    for v in q.places:
        if not v.is_infinite and sum(_val_unit(x, v.p)[0] for x in q.diag) % 2:
            d *= v.p
    return d


def hasse_invariant(q: QuadFormQ) -> BrauerClass2:
    """w_2(q) = sum over i < j of the classes (a_i, a_j), evaluated at
    q.places.  The symbol is bimultiplicative, so the sum is that of the
    classes (a_1 ... a_{j-1}, a_j): dim - 1 symbols per place."""
    pairs = list(zip(accumulate(q.diag, mul), q.diag[1:]))
    ramified = []
    for v in q.places:
        sym = 1
        for head, a in pairs:
            sym *= hilbert_symbol(head, a, v)
        if sym == -1:
            ramified.append(v)
    return BrauerClass2(ramified)


# -- local-global isotropy ----------------------------------------------------

@dataclass
class _Invariants:
    """(dim, disc, Hasse set, signature), disc the signed squarefree
    integer of the discriminant's class, and the places off which all of
    them are trivial."""

    dim: int
    disc: int
    hasse: FrozenSet[Place]
    pos: int
    neg: int
    places: FrozenSet[Place]


def _invariants(q: QuadFormQ) -> _Invariants:
    pos, neg = signature(q)
    return _Invariants(q.dim, _squarefree_disc(q), q.hasse.ramified, pos, neg,
                       q.places)


def _disc_is_local_square(d: int, v: Place) -> bool:
    if v.is_infinite:
        return d > 0
    if d % v.p == 0:
        return False
    return d % 8 == 1 if v.p == 2 else legendre(d % v.p, v.p) == 1


def _local_isotropic(inv: _Invariants, v: Place) -> bool:
    n = inv.dim
    if v.is_infinite:
        return inv.pos > 0 and inv.neg > 0
    if n >= 5:
        return True
    eps = -1 if v in inv.hasse else 1
    if n == 3:
        return eps == hilbert_symbol(-1, -inv.disc, v)
    if n == 4:
        if not _disc_is_local_square(inv.disc, v):
            return True
        return eps == hilbert_symbol(-1, -1, v)
    return False


def _is_isotropic_inv(inv: _Invariants) -> bool:
    """Isotropy of a form of dimension >= 2 from its invariants: for
    dimension >= 3, local isotropy at every place (Hasse-Minkowski)."""
    if inv.dim == 2:
        # isotropic iff -d is a global square
        return inv.disc == -1
    return all(_local_isotropic(inv, v) for v in inv.places)


def _split_hyperbolic(inv: _Invariants) -> _Invariants:
    """Invariants of q' where q = H + q'.  w2(q) = w2(q') + (-1, d') with
    d' = -d; the symbol (-1, -d) is trivial off the places of q, which
    are those of q'."""
    ramified = frozenset(v for v in inv.places
                         if hilbert_symbol(-1, -inv.disc, v) == -1)
    return _Invariants(inv.dim - 2, -inv.disc, inv.hasse ^ ramified,
                       inv.pos - 1, inv.neg - 1, inv.places)


def is_isotropic(q: QuadFormQ) -> bool:
    """Does q represent 0 nontrivially over Q, i.e. split off a hyperbolic
    plane?"""
    return _witt_index(q, 1) >= 1


def _witt_index(q: QuadFormQ, target: int) -> int:
    """min(witt_index(q), target), splitting off hyperbolic planes.  While
    the dimension is >= 5 a form over Q is isotropic iff it is indefinite
    (Hasse-Minkowski with Meyer's theorem), so those splits need the
    signature only; the local invariants are built (which factors the
    witnesses) only for a residual of dimension <= 4."""
    pos, neg = signature(q)
    dim, w = q.dim, 0
    while dim >= 5 and w < target:
        if not (pos and neg):
            return w
        dim, pos, neg, w = dim - 2, pos - 1, neg - 1, w + 1
    if w >= target:
        return w
    inv = _invariants(q)
    for _ in range(w):
        inv = _split_hyperbolic(inv)
    while w < target and inv.dim >= 2 and _is_isotropic_inv(inv):
        inv = _split_hyperbolic(inv)
        w += 1
    return w


def witt_index(q: QuadFormQ) -> int:
    """Number of hyperbolic planes split off, at the invariant level."""
    return _witt_index(q, q.dim // 2)


def contains_ones(q: QuadFormQ, s: int) -> bool:
    """Does q contain s<1> as a subform?  By Witt cancellation this is
    witt_index(q + s<-1>) >= s; for dim q >= s + 3 every split is decided by
    the signature, so the answer is pos(q) >= s and nothing is factored."""
    if s < 0 or s > q.dim:
        raise ValueError("need 0 <= s <= dim q")
    if s == 0:
        return True
    if q.dim >= s + 3:
        return signature(q)[0] >= s
    probe = QuadFormQ(list(q.diag) + [Fraction(-1)] * s, q.witnesses)
    return _witt_index(probe, s) >= s


def is_isometric(q1: QuadFormQ, q2: QuadFormQ) -> bool:
    """Classification over Q: equal dimension, discriminant, Hasse class,
    and signature."""
    return (q1.dim == q2.dim
            and discriminant(q1) == discriminant(q2)
            and q1.hasse == q2.hasse
            and signature(q1) == signature(q2))


# ---------------------------------------------------------------------------
# Gram matrices and diagonalization
# ---------------------------------------------------------------------------

def _bareiss_diagonal(m: List[List[int]], den: int) -> List[Fraction]:
    """Symmetric congruence diagonalization of the Gram matrix m / den,
    exact and fraction-free: m is a square list of int rows, consumed.

    Symmetric Bareiss steps (Bareiss, Math. Comp. 22 (1968)): after pivot
    p with value d, each entry of the trailing block becomes
    (m[i][j]*d - m[i][p]*m[p][j]) // prev, an exact division, and an entry
    m stands for the rational m / (den*prev), prev being the last pivot (1
    at the start).  The block is updated in place over `active`, the
    indices not yet eliminated, in elimination order: the pivot leaves it
    and the first active index takes the pivot's place, the order a swap of
    row and column 0 with the pivot's would give.  The pivot is the
    diagonal entry whose rational has the smallest numerator*denominator
    bit size, the first in that order on a tie, to limit coefficient
    growth; the size is read off a gcd, so no Fraction is built for a
    candidate.  An all-zero diagonal is mended by adding row and column j
    to row and column i for the first nonzero m[i][j], i before j: a
    unimodular congruence, so the divisions stay exact.  The diagonal
    returned is that of the Schur-complement elimination over Q; each entry
    is a ratio of leading minors, so scaling m and den by one constant
    leaves it unchanged.  Raises on singular input."""
    diag: List[Fraction] = []
    prev = 1
    active = list(range(len(m)))
    while len(active) > 1:
        scale = abs(den * prev)
        best = k = -1
        for pos, i in enumerate(active):
            x = m[i][i]
            if x:
                # bit sizes of the reduced x / (den*prev)
                g = gcd(x, scale)
                cost = (abs(x) // g).bit_length() + (scale // g).bit_length()
                if k < 0 or cost < best:
                    best, k = cost, pos
        if k < 0:
            # all diagonal zero: fold in the first nonzero off-diagonal entry
            k, j = next(((a, b) for a in range(len(active))
                         for b in range(a + 1, len(active))
                         if m[active[a]][active[b]]), (-1, -1))
            if k < 0:
                raise ValueError("degenerate Gram matrix")
            p, q = active[k], active[j]
            row_p, row_q = m[p], m[q]
            for c in active:
                row_p[c] += row_q[c]
            for r in active:
                row = m[r]
                row[p] += row[q]
        p = active[k]
        active[k] = active[0]
        del active[0]
        pivot_row = m[p]
        d = pivot_row[p]
        diag.append(Fraction(d, den * prev))
        for i in active:
            row = m[i]
            a = pivot_row[i]
            for j in active:
                row[j] = (row[j] * d - a * pivot_row[j]) // prev
        prev = d
    if active:
        # the last index is the pivot, with nothing left to update
        d = m[active[0]][active[0]]
        if not d:
            raise ValueError("degenerate Gram matrix")
        diag.append(Fraction(d, den * prev))
    return diag


# ---------------------------------------------------------------------------
# etale algebras and trace forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EtaleAlgebraQ:
    """Product of Q[x]/(f_i) for monic squarefree pairwise-coprime f_i.

    Validity is proved on integers: each f_i is scaled once to
    F_i = den_i * f_i, kept as `scaled`.  f_i is squarefree iff
    disc(F_i) != 0, from the memoized integer discriminant (already there
    for a factor `certify_irreducible` kept).  f_i, f_j are coprime iff
    res(F_i, F_j) != 0, from the integer resultant kernel: a Horner
    evaluation when a side is linear, the subresultant PRS otherwise.
    The product disc(f_i) * res(f_i, f_j)^2
    over all factors and pairs is the discriminant of the defining
    polynomial; its numerator and denominator are multiplied up as integers
    and kept as `disc` for `etale_discriminant`, the one Fraction built.
    The disc(f_i) are kept as `factor_discs` for `trace_form`: the int
    disc(F_i) when den_i = 1, as for every drawn factor, and a Fraction
    otherwise."""

    factors: Tuple[Poly, ...]
    disc: Fraction = field(init=False, compare=False, repr=False)
    factor_discs: Tuple[Union[int, Fraction], ...] = field(
        init=False, compare=False, repr=False)
    scaled: Tuple[Tuple[Tuple[int, ...], int], ...] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.factors:
            raise ValueError("need at least one factor")
        num = den = 1
        discs = []
        scaled = []
        for f in self.factors:
            if len(f) < 2 or f[-1] != 1:
                raise ValueError("factors must be monic of positive degree")
            F, c = polyq._integral(f)
            d = polyq._int_discriminant(F)
            if not d:
                raise ValueError(f"factor {polyq.format_poly(f)} is not squarefree")
            if c == 1:
                num *= d
            else:
                d = Fraction(d, c ** (2 * len(F) - 4))
                num *= d.numerator
                den *= d.denominator
            discs.append(d)
            scaled.append((F, c))
        for i, (F, c) in enumerate(scaled):
            for G, e in scaled[i + 1:]:
                # res(f, g) = res(F, G) / (c^deg g * e^deg f)
                r = polyq._int_resultant(F, G)
                if r == 0:
                    raise ValueError("factors must be pairwise coprime")
                num *= r * r
                den *= (c ** (len(G) - 1) * e ** (len(F) - 1)) ** 2
        object.__setattr__(self, "disc", Fraction(num, den))
        object.__setattr__(self, "factor_discs", tuple(discs))
        object.__setattr__(self, "scaled", tuple(scaled))

    @classmethod
    def from_polynomial(cls, f: Poly) -> "EtaleAlgebraQ":
        return cls((f,))

    @property
    def dim(self) -> int:
        return sum(map(len, self.factors)) - len(self.factors)

    def __repr__(self):
        return " * ".join(f"Q[x]/({polyq.format_poly(f)})" for f in self.factors)


def trace_form(E: EtaleAlgebraQ) -> QuadFormQ:
    """The form x -> Tr(x^2): Gram matrix Tr(x^(i+j)) in the power basis of
    each factor, diagonalized exactly, on integers only.  For the scaled
    factor F = den*f of degree d, g_i = F_i den^(d-1-i) is monic integral
    with roots den*alpha, so its Newton power sums are ints and
    p_k(f) = p_k(g) / den^k.  The Hankel matrix
    M_ij = p_(i+j)(g) den^(2d-2-i-j) is then den^(2d-2) times the Gram
    matrix (for den = 1, g = F and M holds f's own power sums), and it goes
    to `_bareiss_diagonal` as it is; a linear factor gives M = (1), so it
    adds <1> with no power sums.
    Each factor f adds as witnesses the numerator and denominator of
    disc(f) and den: in the basis (den*x)^i its Gram matrix is integral
    with determinant den^(d(d-1)) disc(f), so unimodular at every other odd
    prime (Cassels, Rational Quadratic Forms, 1978)."""
    if E.dim > polyq.MAX_DEGREE:
        raise ValueError(
            f"trace forms capped at dimension {polyq.MAX_DEGREE}")
    diag: List[Fraction] = []
    witnesses: List[int] = []
    for (F, den), disc in zip(E.scaled, E.factor_discs):
        d = len(F) - 1
        if d == 1:
            # disc(f) = 1, and M = (1)
            diag.append(Fraction(1))
            witnesses += [1, 1, den]
            continue
        if den == 1:
            sums = polyq._power_sums(F, d, 2 * d - 1)
        else:
            g = [c * den ** (d - 1 - i) for i, c in enumerate(F[:-1])] + [1]
            sums = [p * den ** (2 * d - 2 - k) for k, p in
                    enumerate(polyq._power_sums(g, d, 2 * d - 1))]
        diag.extend(_bareiss_diagonal([sums[i:i + d] for i in range(d)],
                                      den ** (2 * d - 2)))
        witnesses += [disc.numerator, disc.denominator, den]
    return QuadFormQ(diag, witnesses)


def etale_discriminant(E: EtaleAlgebraQ) -> SquareClass:
    """Square class of the discriminant of the defining polynomial: the
    product of the factor discriminants times squared cross-resultants,
    computed once when E was validated."""
    return SquareClass(E.disc)


def random_etale_algebra(n: int, rng: random.Random) -> EtaleAlgebraQ:
    """Seeded random n-dimensional etale algebra: a random composition of n
    into factor degrees, each factor a certified-irreducible monic integer
    polynomial.  Coefficient ranges shrink with the degree to keep
    discriminants at desk scale."""
    if n < 1:
        raise ValueError("an etale algebra needs dimension n >= 1")
    while True:
        parts: List[int] = []
        left = n
        while left:
            if rng.random() < 0.12:
                part = left
            else:
                part = min(left, 1 + min(rng.randrange(7), rng.randrange(7)))
            parts.append(part)
            left -= part
        factors: List[Poly] = []
        ok = True
        for d in parts:
            f = _random_irreducible(d, rng)
            if f is None:
                ok = False
                break
            factors.append(f)
        if not ok:
            continue
        try:
            return EtaleAlgebraQ(tuple(factors))
        except ValueError:
            continue


def _random_irreducible(d: int, rng: random.Random) -> Optional[Poly]:
    bound = 20 if d <= 5 else (5 if d <= 8 else 2)
    # randrange(2*bound + 1) - bound is the draw of randint(-bound, bound),
    # randrange(a, b + 1), with fewer calls per coefficient
    width = 2 * bound + 1
    for _ in range(64):
        coeffs = [rng.randrange(width) - bound for _ in range(d)] + [1]
        # certified irreducible implies squarefree: no separate check
        if polyq.certify_irreducible(coeffs):
            return tuple(coeffs)
    return None


# ---------------------------------------------------------------------------
# splitting towers and the discriminant-1 Hasse identity
# ---------------------------------------------------------------------------

@dataclass
class TowerReport:
    adjoined: List[Fraction]
    residual: Optional[Fraction]
    degree: int


class _SquareClassGroup:
    """Subgroup of Q^x/(Q^x)^2 generated by -1 and adjoined classes, as a
    GF(2) row space over the prime-exponent coordinates."""

    def __init__(self):
        self.primes: List[int] = []
        self.rows: List[int] = [1]  # bit 0 = sign; -1 is always present

    def _vector(self, x: Fraction) -> int:
        vec = 1 if x < 0 else 0
        for n in (x.numerator, x.denominator):
            for p, e in _cached_factorize(n).items():
                if e % 2:
                    if p not in self.primes:
                        self.primes.append(p)
                    vec ^= 1 << (1 + self.primes.index(p))
        return vec

    def add(self, x: Fraction) -> bool:
        """Adjoin sqrt(x); returns False if x was already a square there."""
        vec = self._vector(x)
        for row in self.rows:
            if vec >> (row.bit_length() - 1) & 1:
                vec ^= row
        if vec == 0:
            return False
        self.rows.append(vec)
        self.rows.sort(key=lambda r: -r.bit_length())
        return True


def splitting_tower(q: QuadFormQ) -> TowerReport:
    """Pair up the diagonal and adjoin sqrt(-a_{2i-1}/a_{2i}) for each pair;
    over the resulting field (with sqrt(-1) assumed present) -a/b is a
    square, so <a, b> ~ a<1, -1> ~ <1, 1>.  A class already in the tower's
    square-class group is not adjoined again; the formal tower degree is
    2^(number of honest adjunctions)."""
    group = _SquareClassGroup()
    adjoined: List[Fraction] = []
    diag = q.diag
    for k in range(q.dim // 2):
        t = -diag[2 * k] / diag[2 * k + 1]
        if group.add(t):
            adjoined.append(t)
    residual = diag[-1] if q.dim % 2 else None
    return TowerReport(adjoined, residual, 2 ** len(adjoined))


def lemma_disc_one_identity(q: QuadFormQ) -> bool:
    """For disc(q) = 1: w_2(q) equals w_2(<a_2, ..., a_n>) + (a_1, -1).

    The (a_1, a_1) = (a_1, -1) step is explicit here because sqrt(-1) is not
    in Q."""
    if not discriminant(q).is_one():
        raise ValueError("identity requires trivial discriminant")
    rest = QuadFormQ(q.diag[1:]) if q.dim > 1 else None
    rhs = quaternion_class(q.diag[0], -1)
    if rest is not None:
        rhs = rhs + rest.hasse
    return q.hasse == rhs

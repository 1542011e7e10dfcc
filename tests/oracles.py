"""Independent brute-force oracles used to freeze expected values.

Nothing here shares code with the implementation paths it checks: Clifford
products are reduced by explicit generator-list bubbling, elementary cocycle
values come from the Clifford definition of the canonical lifts (integer
products of the vectors e_i - e_{i+1}, compared exactly), power sums come
from companion matrices, the validity of an etale algebra from polynomial gcds
over Q, resultants and discriminants from Sylvester determinants by Bareiss
elimination, Gram diagonals from Schur complements in Fractions and from
the row-swapping Bareiss elimination the library ran before its in-place
one,
irreducibility mod p from Rabin's test, permutation facts from naive mapping
composition (words too), degree
multisets from numeric decomposition of the regular representation, spin
degree multisets from Schur's closed form over strict partitions, Dixon
eigenspaces from a scan of every eigenvalue candidate in GF(p), gamma matrices
from Kronecker products of explicit 2x2 Pauli matrices, the spin generators
from dense sums of scaled gammas, the spin relations from dense products of
the generator matrices, all three in a field of Fraction pairs, cover groups and tables
from a breadth-first closure under cover multiplication (for tables with
every product stored), closures and Schreier trees also from the first
np.unique-based level kernels, class matrices from one product per element and
class representative, table products, inverses and orders by folding the
right factor's Schreier word one letter at a time, isomorphism of small
groups by generator-image backtracking, dense SqrtNum matrix algebra
entry by entry, and squarefree parts by trial division.

Some helpers here share code, on purpose.  `power_sums` and
`diagonalize_gram` run the kernels `polyq._power_sums` and
`qforms._bareiss_diagonal` on Fractions, a Gram matrix scaled by the lcm of
its denominators.  That is the road to a trace form that the library no
longer takes, kept to check the integer road of `qforms.trace_form`.
`class_matrix` reads one class matrix through the kernel that
`chartab._ClassData.mixture` runs, to be checked against the per-element
class matrices.  `next_prime` and `dixon_prime_by_scan` test primality
with `numth.is_prime`: the scan over every prime checks the stepped
candidates of `chartab.dixon_prime`.  `hasse_by_pairs` multiplies
`qforms.hilbert_symbol` over every pair i < j, the definition that
`qforms.hasse_invariant` shortens to one symbol per entry.  `orthogonal_sum`
and `defining_polynomial` build test inputs from library objects.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, isqrt, lcm
from types import SimpleNamespace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from schur_ed import polyq
from schur_ed.clifford import spin_representation
from schur_ed.covers import FiniteGroupTable, SizeBoundExceeded
from schur_ed.numth import is_prime
from schur_ed.perms import canonical_word
from schur_ed.polyq import format_poly
from schur_ed.qforms import BrauerClass2, _bareiss_diagonal, hilbert_symbol
from schur_ed.radicals import SMatrix, SqrtNum, smat_mul


# ---------------------------------------------------------------------------
# Clifford products by explicit generator lists
# ---------------------------------------------------------------------------

def reduce_generator_word(word: Sequence[int], sign: int) -> Tuple[int, Tuple[int, ...]]:
    """Sort a product e_{w1} e_{w2} ... into canonical ascending order by
    adjacent swaps, tracking the sign from e_i e_j = -e_j e_i and
    e_i^2 = sign.  Returns (overall sign, sorted distinct indices)."""
    letters = list(word)
    coeff = 1
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(letters):
            if letters[i] == letters[i + 1]:
                coeff *= sign
                del letters[i:i + 2]
                changed = True
                i = max(i - 1, 0)
            elif letters[i] > letters[i + 1]:
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
                coeff = -coeff
                changed = True
                i += 1
            else:
                i += 1
    return coeff, tuple(letters)


def slow_multivector_mul(x: Dict[Tuple[int, ...], Fraction],
                         y: Dict[Tuple[int, ...], Fraction],
                         sign: int) -> Dict[Tuple[int, ...], Fraction]:
    """Multivectors keyed by sorted generator tuples; product reduced term
    by term with reduce_generator_word."""
    out: Dict[Tuple[int, ...], Fraction] = {}
    for ma, ca in x.items():
        for mb, cb in y.items():
            s, key = reduce_generator_word(list(ma) + list(mb), sign)
            out[key] = out.get(key, Fraction(0)) + s * ca * cb
    return {k: v for k, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# the cover cocycle by its Clifford definition
# ---------------------------------------------------------------------------

class CocycleInconsistency(RuntimeError):
    """lift(sigma)*lift(tau) was not +-lift(sigma*tau); fatal."""


def times_adjacent_vector(x: Dict[int, int], i: int, sign: int) -> Dict[int, int]:
    """x * (e_i - e_{i+1}) for an integer multivector {blade mask: int}, with
    e_j^2 = sign.  Bit j-1 of a mask stands for e_j."""
    out: Dict[int, int] = {}
    for j, c in ((i, 1), (i + 1, -1)):
        bit = 1 << (j - 1)
        for m, a in x.items():
            # e_j moves left past the generators of m above it, then squares
            neg = (m >> j).bit_count() & 1
            if sign < 0 and m & bit:
                neg ^= 1
            out[m ^ bit] = out.get(m ^ bit, 0) + (-c * a if neg else c * a)
    return {m: a for m, a in out.items() if a}


def right_multiply_adjacent(perm, i: int) -> Tuple[int, ...]:
    """perm * s_i: positions i and i + 1 of the one-line notation swapped."""
    img = list(perm)
    img[i - 1], img[i] = img[i], img[i - 1]
    return tuple(img)


def integer_lift(perm, sign: int, lifts=None) -> Dict[int, int]:
    """The product of e_j - e_{j+1} over the canonical word of perm: the
    canonical lift times sqrt(2)^length, so no sqrt(2) and no power of 2
    appears.

    A dict passed as `lifts` caches the products, built one letter at a
    time along canonical-word prefixes (dropping the last letter of a
    canonical word gives the parent's), so a sweep over all of S_n costs one
    vector product per permutation.
    """
    if lifts is not None and perm in lifts:
        return lifts[perm]
    word = canonical_word(perm)
    if lifts is None:
        x = {0: 1}
        for j in word:
            x = times_adjacent_vector(x, j, sign)
        return x
    if word:
        parent = integer_lift(right_multiply_adjacent(perm, word[-1]), sign, lifts)
        x = times_adjacent_vector(parent, word[-1], sign)
    else:
        x = {0: 1}
    lifts[perm] = x
    return x


def clifford_elementary_cocycle(cover, perm, i, lifts=None) -> int:
    """c(perm, s_i) by definition: 0 if lift(perm) * v_i is
    +lift(perm * s_i), 1 if it is -lift(perm * s_i), for the unit vector
    v_i = (e_i - e_{i+1})/sqrt(2).

    On the integer lifts L of `integer_lift` this reads
    L(perm) * (e_i - e_{i+1}) = +-L(perm * s_i) when perm * s_i is one
    letter longer than perm, and = +-2 L(perm * s_i) when it is one letter
    shorter (perm has a descent at i), since (e_i - e_{i+1})^2 = 2 * sign.
    Anything else raises CocycleInconsistency.  `lifts` is the cache of
    `integer_lift`.
    """
    sign = cover.spec.sign
    prod = times_adjacent_vector(integer_lift(perm, sign, lifts), i, sign)
    target = integer_lift(right_multiply_adjacent(perm, i), sign, lifts)
    scale = 2 if perm[i - 1] > perm[i] else 1
    for bit, factor in ((0, scale), (1, -scale)):
        if prod == {m: factor * a for m, a in target.items()}:
            return bit
    raise CocycleInconsistency(
        f"lift product is not +-canonical lift at ({perm}, s_{i})")


# ---------------------------------------------------------------------------
# spin matrices over Fraction pairs: Kronecker-product gammas, dense sums
# and products
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)


class FractionSqrtNum:
    """Sparse element of Q(i)(sqrt 2, sqrt 3, sqrt 5, ...) as a dict
    {d: (re, im)} of Fraction pairs, with a Fraction operation per
    coefficient: the oracle of `radicals.SqrtNum`."""

    __slots__ = ("parts",)

    def __init__(self, parts: Dict[int, Tuple[Fraction, Fraction]] | None = None):
        clean = {}
        if parts:
            for d, (re, im) in parts.items():
                if re or im:
                    clean[d] = (re, im)
        self.parts = clean

    @classmethod
    def rational(cls, v) -> "FractionSqrtNum":
        return cls({1: (Fraction(v), Fraction(0))})

    @classmethod
    def imag_unit(cls) -> "FractionSqrtNum":
        return cls({1: (Fraction(0), Fraction(1))})

    @classmethod
    def root(cls, n: int, scale=1) -> "FractionSqrtNum":
        """scale * sqrt(n) for a positive integer n."""
        if n <= 0:
            raise ValueError("root() wants a positive integer")
        # the largest square s^2 dividing n, by trial of every s
        s = max(k for k in range(1, isqrt(n) + 1) if n % (k * k) == 0)
        return cls({n // (s * s): (Fraction(scale) * s, Fraction(0))})

    def __add__(self, other: "FractionSqrtNum") -> "FractionSqrtNum":
        out = dict(self.parts)
        for d, (re, im) in other.parts.items():
            if d in out:
                out[d] = (out[d][0] + re, out[d][1] + im)
            else:
                out[d] = (re, im)
        return FractionSqrtNum(out)

    def __neg__(self) -> "FractionSqrtNum":
        return FractionSqrtNum({d: (-re, -im) for d, (re, im) in self.parts.items()})

    def __sub__(self, other: "FractionSqrtNum") -> "FractionSqrtNum":
        return self + (-other)

    def __mul__(self, other: "FractionSqrtNum") -> "FractionSqrtNum":
        out: Dict[int, Tuple[Fraction, Fraction]] = {}
        for d1, (r1, i1) in self.parts.items():
            for d2, (r2, i2) in other.parts.items():
                g = gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                # products with a zero factor are skipped: the entries
                # of the spin matrices are mostly real or imaginary
                re = r1 * r2 if r1 and r2 else _ZERO
                if i1 and i2:
                    re -= i1 * i2
                im = r1 * i2 if r1 and i2 else _ZERO
                if i1 and r2:
                    im += i1 * r2
                if g != 1:
                    re, im = g * re, g * im
                if d in out:
                    out[d] = (out[d][0] + re, out[d][1] + im)
                else:
                    out[d] = (re, im)
        return FractionSqrtNum(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FractionSqrtNum):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(tuple(sorted(self.parts.items())))

    def is_zero(self) -> bool:
        return not self.parts

    def __repr__(self):
        if not self.parts:
            return "SqrtNum(0)"
        bits = []
        for d in sorted(self.parts):
            re, im = self.parts[d]
            bits.append(f"({re}+{im}i)sqrt{d}")
        return "SqrtNum(" + " + ".join(bits) + ")"


def dense_spin_relations(n: int, variant: str) -> List[Tuple[str, bool]]:
    """Check every defining relation of the matching presentation on the
    spin generator matrices, with the central element represented by -I,
    by dense products of the matrices.  Each entry is read through `.parts`
    into a FractionSqrtNum, so no product or sum here is a SqrtNum one."""
    gens = [[[FractionSqrtNum(v.parts) for v in row] for row in g]
            for g in spin_representation(n, variant)]
    dim = len(gens[0])
    zero, one = FractionSqrtNum(), FractionSqrtNum.rational(1)
    ident = [[one if r == c else zero for c in range(dim)] for r in range(dim)]
    neg_ident = [[-v for v in row] for row in ident]

    def mul(x, y):
        out = []
        for row in x:
            out_row = []
            for c in range(dim):
                acc = zero
                for k in range(dim):
                    acc = acc + row[k] * y[k][c]
                out_row.append(acc)
            out.append(out_row)
        return out

    def power(x, e):
        out = x
        for _ in range(e - 1):
            out = mul(out, x)
        return out

    plus = variant == "plus"
    letter = "s" if plus else "t"
    results: List[Tuple[str, bool]] = []
    results.append(("rho(z) = -I with rho(z) = (g1 g3)^2",
                    power(mul(gens[0], gens[2]), 2) == neg_ident))
    for k in range(1, n):
        sq = mul(gens[k - 1], gens[k - 1])
        want = ident if plus else neg_ident
        rel = f"{letter}{k}^2 = {'1' if plus else 'z'}"
        results.append((rel, sq == want))
    for k in range(1, n):
        for l in range(k + 2, n):
            val = power(mul(gens[k - 1], gens[l - 1]), 2)
            results.append((f"({letter}{k} {letter}{l})^2 = z",
                            val == neg_ident))
    for k in range(1, n - 1):
        val = power(mul(gens[k - 1], gens[k]), 3)
        want = ident if plus else neg_ident
        rel = f"({letter}{k} {letter}{k+1})^3 = {'1' if plus else 'z'}"
        results.append((rel, val == want))
    return results


def kronecker_gamma_matrices(n: int, sign: int) -> List[List[List[FractionSqrtNum]]]:
    """The n-1 gamma matrices of the tensor construction with p = (n-1)//2
    slots: Z x ... x Z x X x I x ... x I and the same with Y (j Z's first,
    j = 0..p-1), then Z x ... x Z when n-1 is odd, each a Kronecker product
    of explicit 2x2 matrices over FractionSqrtNum, times i when sign is -1."""
    zero, one = FractionSqrtNum(), FractionSqrtNum.rational(1)
    i = FractionSqrtNum.imag_unit()
    eye = [[one, zero], [zero, one]]
    x = [[zero, one], [one, zero]]
    y = [[zero, -i], [i, zero]]
    z = [[one, zero], [zero, -one]]

    def kron(a, b):
        return [[u * v for u in ra for v in rb] for ra in a for rb in b]

    pairs = (n - 1) // 2
    words = [[z] * j + [pauli] + [eye] * (pairs - j - 1)
             for j in range(pairs) for pauli in (x, y)]
    if (n - 1) % 2:
        words.append([z] * pairs)
    out = []
    for word in words:
        g = [[one]]
        for factor in word:
            g = kron(g, factor)
        if sign == -1:
            g = [[i * v for v in row] for row in g]
        out.append(g)
    return out


def dense_spin_generators(n: int, variant: str) -> List[List[List[FractionSqrtNum]]]:
    """T_1 = Gamma_1 and T_k = a_k*Gamma_{k-1} + b_k*Gamma_k, scaled and
    added over every entry of the Kronecker-product gammas, with
    a_k = -sqrt((k-1)/2k) and b_k = sqrt((k+1)/2k)."""
    gammas = kronecker_gamma_matrices(n, 1 if variant == "plus" else -1)
    gens = [gammas[0]]
    for k in range(2, n):
        a_k = FractionSqrtNum.root(2 * k * (k - 1), Fraction(-1, 2 * k))
        b_k = FractionSqrtNum.root(2 * k * (k + 1), Fraction(1, 2 * k))
        gens.append([[a_k * u + b_k * v for u, v in zip(ru, rv)]
                     for ru, rv in zip(gammas[k - 2], gammas[k - 1])])
    return gens


def matrix_parts(m) -> List[List[Dict[int, Tuple[Fraction, Fraction]]]]:
    """The `.parts` of every entry: SqrtNum and FractionSqrtNum matrices
    compare through these without sharing any arithmetic."""
    return [[v.parts for v in row] for row in m]


# ---------------------------------------------------------------------------
# dense matrices over radicals.SqrtNum
# ---------------------------------------------------------------------------

def smat_identity(n: int) -> SMatrix:
    z = SqrtNum()
    one = SqrtNum.rational(1)
    return [[one if i == j else z for j in range(n)] for i in range(n)]


def smat_neg(x: SMatrix) -> SMatrix:
    return [[-v for v in row] for row in x]


def smat_add(x: SMatrix, y: SMatrix) -> SMatrix:
    return [[a + b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def smat_eq(x: SMatrix, y: SMatrix) -> bool:
    return len(x) == len(y) and all(
        len(rx) == len(ry) and all(a == b for a, b in zip(rx, ry))
        for rx, ry in zip(x, y))


def smat_scale(c: SqrtNum, x: SMatrix) -> SMatrix:
    return [[c * v for v in row] for row in x]


def smat_pow(x: SMatrix, e: int) -> SMatrix:
    """x^e for e >= 0, in e - 1 products."""
    if e < 0:
        raise ValueError("smat_pow wants e >= 0")
    if e == 0:
        return smat_identity(len(x))
    out = x
    for _ in range(e - 1):
        out = smat_mul(out, x)
    return out


# ---------------------------------------------------------------------------
# arithmetic oracles
# ---------------------------------------------------------------------------

def nu2_factorial(n: int) -> int:
    """2-adic valuation of n! by Legendre's formula."""
    total = 0
    power = 2
    while power <= n:
        total += n // power
        power *= 2
    return total


def _strict_partitions(n: int, largest: int) -> List[Tuple[int, ...]]:
    """The partitions of n into distinct parts, each at most largest."""
    if n == 0:
        return [()]
    return [(part,) + rest for part in range(min(n, largest), 0, -1)
            for rest in _strict_partitions(n - part, part - 1)]


def schur_spin_degrees(n: int, which: str) -> List[int]:
    """The degrees, in increasing order, of the irreducibles of 2.S_n
    (which = 'full') or 2.A_n ('alt') that send z to -1, from Schur's
    formula (J. reine angew. Math. 139, 1911): a strict partition lambda
    of n with l parts gives
    g = 2^floor((n - l)/2) n! / prod lambda_i! prod_{i<j} (lambda_i -
    lambda_j) / (lambda_i + lambda_j).  When n - l is odd, 2.S_n has two
    characters of degree g, each irreducible on 2.A_n (to the same one);
    when n - l is even, one, which splits into two of degree g/2 on
    2.A_n."""
    degrees = []
    for lam in _strict_partitions(n, n):
        g = Fraction(2 ** ((n - len(lam)) // 2) * factorial(n))
        for i, a in enumerate(lam):
            g /= factorial(a)
            for b in lam[i + 1:]:
                g *= Fraction(a - b, a + b)
        assert g.denominator == 1
        g = int(g)
        odd = (n - len(lam)) % 2
        if which == "full":
            degrees += [g, g] if odd else [g]
        else:
            degrees += [g] if odd else [g // 2, g // 2]
    return sorted(degrees)


def compose_naive(s: Tuple[int, ...], t: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(s[t[i] - 1] for i in range(len(t)))


def from_cycles(n: int, cycles: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """The permutation of {1..n} with the given cycles, as images."""
    img = list(range(1, n + 1))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + type(cyc)([cyc[0]])):
            img[a - 1] = b
    return tuple(img)


def perm_from_word(n: int, word: Sequence[int]) -> Tuple[int, ...]:
    """The product s_{w1} s_{w2} ... of adjacent transpositions."""
    img = tuple(range(1, n + 1))
    for i in word:
        s_i = list(range(1, n + 1))
        s_i[i - 1], s_i[i] = i + 1, i
        img = compose_naive(img, tuple(s_i))
    return img


def squarefree_part(n: int) -> int:
    """The squarefree integer d with n = d * (square), sign preserved, by
    trial division."""
    if n == 0:
        raise ValueError("0 has no squarefree part")
    m, d, p = abs(n), 1, 2
    while p * p <= m:
        while m % (p * p) == 0:
            m //= p * p
        if m % p == 0:
            d, m = d * p, m // p
        p += 1
    return (d * m) if n > 0 else -(d * m)


def next_prime(n: int) -> int:
    """The least prime above n, odd numbers tested one by one."""
    n += 1
    if n <= 2:
        return 2
    if n % 2 == 0:
        n += 1
    while not is_prime(n):
        n += 2
    return n


def dixon_prime_by_scan(order: int, exponent: int) -> int:
    """The least prime p = 1 mod exponent above 2 isqrt(order) + 1, by
    walking every prime above the bound."""
    p = 2 * isqrt(order) + 1
    while True:
        p = next_prime(p)
        if p % exponent == 1 % exponent:
            return p


def orthogonal_sum(q, r):
    """The form q + r of two `QuadFormQ`s, with both sets of witnesses."""
    return type(q)(q.diag + r.diag, q.witnesses + r.witnesses)


def hasse_by_pairs(q) -> BrauerClass2:
    """The Hasse class of a `QuadFormQ` as the product of the symbols
    (a_i, a_j)_v over every pair i < j, at each of q.places."""
    ramified = []
    for v in q.places:
        sym = 1
        for i, a in enumerate(q.diag):
            for b in q.diag[i + 1:]:
                sym *= hilbert_symbol(a, b, v)
        if sym == -1:
            ramified.append(v)
    return BrauerClass2(ramified)


def defining_polynomial(E) -> Tuple:
    """The product of the factors of an etale algebra, over Fractions."""
    out = polyq.poly([1])
    for f in E.factors:
        out = polyq.mul(out, f)
    return out


def companion_power_traces(coeffs: Sequence[Fraction], count: int) -> List[Fraction]:
    """Traces of powers of the companion matrix of a monic polynomial given
    by ascending coefficients (the power sums of its roots)."""
    d = len(coeffs) - 1
    C = [[Fraction(0)] * d for _ in range(d)]
    for i in range(1, d):
        C[i][i - 1] = Fraction(1)
    for i in range(d):
        C[i][d - 1] = -Fraction(coeffs[i])
    out = [Fraction(d)]
    M = [[Fraction(1 if i == j else 0) for j in range(d)] for i in range(d)]
    for _ in range(1, count):
        M = [[sum(M[i][k] * C[k][j] for k in range(d)) for j in range(d)]
             for i in range(d)]
        out.append(sum(M[i][i] for i in range(d)))
    return out


def power_sums(f: Sequence[Fraction], count: int) -> List:
    """Newton power sums p_0..p_{count-1} of the roots of monic f: ints
    when every coefficient is an integer, Fractions otherwise."""
    d = polyq.degree(f)
    if all(a.denominator == 1 for a in f):
        return polyq._power_sums([a.numerator for a in f], d, count)
    return polyq._power_sums(f, Fraction(d), count)


def _poly_rem(f: List[Fraction], g: List[Fraction]) -> List[Fraction]:
    """Remainder of f by g over Q (ascending coefficients, g nonzero)."""
    r = list(f)
    while r and r[-1] == 0:
        r.pop()
    while len(r) >= len(g):
        c = r[-1] / g[-1]
        shift = len(r) - len(g)
        for i, b in enumerate(g):
            r[shift + i] -= c * b
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def _poly_gcd_degree(f: Sequence[Fraction], g: Sequence[Fraction]) -> int:
    """Degree of gcd(f, g) over Q by the Euclidean algorithm."""
    a, b = list(f), list(g)
    while b:
        a, b = b, _poly_rem(a, b)
    return len(a) - 1


def gcd_etale_validity(factors) -> None:
    """The validity proof for an etale algebra by polynomial gcds over Q:
    raises the ValueError that `EtaleAlgebraQ` raises, in the same order
    (empty, then per factor monic and squarefree, then pairwise coprime)."""
    if not factors:
        raise ValueError("need at least one factor")
    for f in factors:
        if len(f) < 2 or f[-1] != 1:
            raise ValueError("factors must be monic of positive degree")
        der = [i * c for i, c in enumerate(f)][1:]
        if _poly_gcd_degree(f, der) != 0:
            raise ValueError(f"factor {format_poly(f)} is not squarefree")
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if _poly_gcd_degree(factors[i], factors[j]) != 0:
                raise ValueError("factors must be pairwise coprime")


def diagonalize_gram(gram: List[List[Fraction]]) -> List[Fraction]:
    """`qforms._bareiss_diagonal` on the Gram matrix scaled to integers by
    the lcm `den` of its denominators."""
    den = lcm(*[x.denominator for row in gram for x in row])
    return _bareiss_diagonal(
        [[x.numerator * (den // x.denominator) for x in row] for row in gram],
        den)


def schur_diagonalize_gram(gram: List[List[Fraction]]) -> List[Fraction]:
    """Symmetric congruence diagonalization by Schur complements in
    Fractions, with the pivot rule and zero-diagonal fold of
    `qforms._bareiss_diagonal`."""
    m = [[Fraction(x) for x in row] for row in gram]
    n = len(m)
    diag: List[Fraction] = []
    for step in range(n):
        size = n - step
        best = None
        for i in range(size):
            if m[i][i] != 0:
                cost = (abs(m[i][i].numerator).bit_length()
                        + m[i][i].denominator.bit_length())
                if best is None or cost < best[0]:
                    best = (cost, i)
        if best is None:
            found = next(((i, j) for i in range(size)
                          for j in range(i + 1, size) if m[i][j] != 0), None)
            if found is None:
                raise ValueError("degenerate Gram matrix")
            i, j = found
            for k in range(size):
                m[i][k] += m[j][k]
            for k in range(size):
                m[k][i] += m[k][j]
            best = (0, i)
        _, piv = best
        if piv != 0:
            m[0], m[piv] = m[piv], m[0]
            for row in m:
                row[0], row[piv] = row[piv], row[0]
        d = m[0][0]
        diag.append(d)
        m = [[m[i][j] - m[i][0] * m[j][0] / d for j in range(1, size)]
             for i in range(1, size)]
    return diag


def bareiss_diagonal_by_swaps(m: List[List[int]], den: int) -> List[Fraction]:
    """The reference for `qforms._bareiss_diagonal`: the same symmetric
    Bareiss steps, pivot rule and zero-diagonal fold, with the pivot swapped
    into row and column 0 and the trailing block rebuilt as new rows at
    every step.  m is consumed."""
    diag: List[Fraction] = []
    prev = 1
    while m:
        size = len(m)
        scale = abs(den * prev)
        best = piv = -1
        for i in range(size):
            x = m[i][i]
            if x:
                g = gcd(x, scale)
                cost = (abs(x) // g).bit_length() + (scale // g).bit_length()
                if piv < 0 or cost < best:
                    best, piv = cost, i
        if piv < 0:
            piv, j = next(((i, j) for i in range(size)
                           for j in range(i + 1, size) if m[i][j]),
                          (-1, -1))
            if piv < 0:
                raise ValueError("degenerate Gram matrix")
            m[piv] = [x + y for x, y in zip(m[piv], m[j])]
            for row in m:
                row[piv] += row[j]
        if piv:
            m[0], m[piv] = m[piv], m[0]
            for row in m:
                row[0], row[piv] = row[piv], row[0]
        d = m[0][0]
        diag.append(Fraction(d, den * prev))
        col = m[0][1:]
        m = [[(x * d - a * b) // prev for x, b in zip(row[1:], col)]
             for row, a in zip(m[1:], col)]
        prev = d
    return diag


def _bareiss_det(M: List[List[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss
    elimination; 1 for the empty matrix."""
    n = len(M)
    if n == 0:
        return 1
    M = [row[:] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def sylvester_resultant(f: Sequence[Fraction], g: Sequence[Fraction]) -> Fraction:
    """res(f, g) as the determinant of the (m+n) x (m+n) Sylvester matrix:
    n shifted rows of f's coefficients over m shifted rows of g's, highest
    degree first.  Both are scaled to integers by the lcm `den` of all
    their denominators, so res = det / den^(m+n).  0 if f or g is the zero
    polynomial; a constant c against a polynomial of degree k gives c^k."""
    if not f or not g:
        return Fraction(0)
    m, n = len(f) - 1, len(g) - 1
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]
    den = lcm(*[c.denominator for c in f + g])
    fi = [c.numerator * (den // c.denominator) for c in f]
    gi = [c.numerator * (den // c.denominator) for c in g]
    size = m + n
    M = [[0] * size for _ in range(size)]
    for row in range(n):
        for i, c in enumerate(reversed(fi)):
            M[row][row + i] = c
    for row in range(m):
        for i, c in enumerate(reversed(gi)):
            M[n + row][row + i] = c
    return Fraction(_bareiss_det(M), den ** size)


def sylvester_discriminant(f: Sequence[Fraction]) -> Fraction:
    """(-1)^(d(d-1)/2) res(f, f') / lc(f) by the Sylvester determinant."""
    d = len(f) - 1
    der = [i * Fraction(c) for i, c in enumerate(f)][1:]
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * sylvester_resultant(f, der) / Fraction(f[-1])


# ---------------------------------------------------------------------------
# irreducibility mod p by Rabin's test
# ---------------------------------------------------------------------------

def _mod_p_coeffs(f: Sequence[Fraction], p: int) -> List[int]:
    out = [c.numerator * pow(c.denominator, -1, p) % p for c in f]
    while out and out[-1] == 0:
        out.pop()
    return out


def _mod_p_rem(a: List[int], m: List[int], p: int) -> List[int]:
    a = a[:]
    inv = pow(m[-1], -1, p)
    while len(a) >= len(m):
        c = a[-1] * inv % p
        shift = len(a) - len(m)
        for i, y in enumerate(m):
            a[shift + i] = (a[shift + i] - c * y) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _mod_p_gcd(a: List[int], b: List[int], p: int) -> List[int]:
    while b:
        a, b = b, _mod_p_rem(a, b, p)
    return a


def _mod_p_mulmod(a: List[int], b: List[int], m: List[int], p: int
                  ) -> List[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _mod_p_rem([c % p for c in out], m, p)


def _mod_p_x_power(q: int, m: List[int], p: int) -> List[int]:
    """x^q mod (m, p) by square and multiply."""
    result, base = [1], _mod_p_rem([0, 1], m, p)
    while q:
        if q & 1:
            result = _mod_p_mulmod(result, base, m, p)
        base = _mod_p_mulmod(base, base, m, p)
        q >>= 1
    return result


def _mod_p_frobenius_powers(k: int, m: List[int], p: int
                            ) -> List[List[int]]:
    """x^(p^i) mod (m, p) for i = 0..k.  Over GF(p), a^p = a(x^p), so the
    p-th power is linear: a^p = sum_j a_j (x^p)^j, with the columns
    (x^p)^j mod m, j < deg m, computed once."""
    d = len(m) - 1
    xp = _mod_p_x_power(p, m, p)
    cols, col = [], [1]
    for _ in range(d):
        cols.append(col)
        col = _mod_p_mulmod(col, xp, m, p)
    powers = [_mod_p_rem([0, 1], m, p)]
    for _ in range(k):
        out = [0] * d
        for a, col in zip(powers[-1], cols):
            for i, y in enumerate(col):
                out[i] += a * y
        out = [c % p for c in out]
        while out and out[-1] == 0:
            out.pop()
        powers.append(out)
    return powers


def _mod_p_minus_x(a: List[int], p: int) -> List[int]:
    out = a + [0] * max(0, 2 - len(a))
    out[1] = (out[1] - 1) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def rabin_irreducible_mod_p(f: Sequence[Fraction], p: int) -> bool:
    """Rabin's test: a squarefree f of degree d >= 2 mod p is irreducible
    iff x^(p^d) = x mod f and gcd(x^(p^(d/l)) - x, f) = 1 for every prime
    l dividing d, with every x^(p^i) from one Frobenius map.  False when a
    denominator vanishes mod p or the degree drops.  Its own mod-p
    arithmetic, nothing from polyq."""
    if any(c.denominator % p == 0 for c in f):
        return False
    fp = _mod_p_coeffs(f, p)
    d = len(fp) - 1
    if d != len(f) - 1 or d < 1:
        return False
    if d == 1:
        return True
    der = [i * c % p for i, c in enumerate(fp)][1:]
    while der and der[-1] == 0:
        der.pop()
    if not der or len(_mod_p_gcd(fp, der, p)) != 1:
        return False
    powers = _mod_p_frobenius_powers(d, fp, p)
    if _mod_p_minus_x(powers[d], p):
        return False
    for ell in range(2, d + 1):
        if d % ell or any(ell % k == 0 for k in range(2, ell)):
            continue
        diff = _mod_p_minus_x(powers[d // ell], p)
        if not diff or len(_mod_p_gcd(fp, diff, p)) != 1:
            return False
    return True


def is_irreducible_mod_p(f, p: int) -> bool:
    """Is f irreducible mod the odd prime p, with no drop in degree?  False
    when p divides a denominator of f.  The tests' way into the kernel
    `polyq.certify_irreducible` runs for each prime, on den * f."""
    if p == 2:
        raise ValueError("the certificate needs an odd prime")
    if polyq.degree(f) < 1:
        return False
    F, den = polyq._integral(f)
    return den % p != 0 and polyq._irreducible_mod_p(
        F, p, polyq._int_discriminant(tuple(F)))


# ---------------------------------------------------------------------------
# per-element folds over a FiniteGroupTable, reference groups, isomorphism
# ---------------------------------------------------------------------------

def tree_word(table, j: int) -> List[int]:
    """The generator indices along the table's Schreier tree from the
    identity to element j, read off its parent and edge arrays."""
    word = []
    while table._parent[j] >= 0:
        word.append(int(table._pgen[j]))
        j = int(table._parent[j])
    return word[::-1]


def mul_idx(table, i: int, j: int) -> int:
    """i * j: i carried through the columns of j's word, one lookup a
    letter."""
    for g in tree_word(table, j):
        i = int(table._gen_cols[g][i])
    return i


def right_column(table, j: int) -> np.ndarray:
    """x * j for every index x: the identity's column folded through the
    columns of j's word, one gather a letter."""
    col = np.arange(table.order)
    for g in tree_word(table, j):
        col = table._gen_cols[g][col]
    return col


def inv_idx(table, i: int) -> int:
    """The power of i before the identity, one product a power."""
    e = table.identity_idx
    prev, cur = i, mul_idx(table, i, i)
    while cur != e:
        prev, cur = cur, mul_idx(table, cur, i)
    return prev if i != e else e


def order_of_idx(table, i: int) -> int:
    e = table.identity_idx
    cur, k = i, 1
    while cur != e:
        cur = mul_idx(table, cur, i)
        k += 1
    return k


def element_order_multiset(table) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for i in range(table.order):
        o = order_of_idx(table, i)
        out[o] = out.get(o, 0) + 1
    return out


def cayley_table(table) -> List[List[int]]:
    if table.order > 512:
        raise SizeBoundExceeded("full Cayley table capped at 512 elements")
    return [[mul_idx(table, i, j) for j in range(table.order)]
            for i in range(table.order)]


def _shortest_words(cayley: List[List[int]], gens: List[int],
                    e: int) -> Dict[int, Tuple[int, ...]]:
    """A shortest word in gens for every element of <gens>, breadth-first
    over the Cayley table."""
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


def iso_small(A, B, bound: int = 128) -> bool:
    """Isomorphism test by generator-image backtracking; order-multiset
    prefilter.  Intended for groups of order <= bound."""
    if A.order > bound or B.order > bound:
        raise SizeBoundExceeded(f"iso_small is capped at order {bound}")
    if A.order != B.order:
        return False
    if element_order_multiset(A) != element_order_multiset(B):
        return False
    ca, cb = cayley_table(A), cayley_table(B)
    ea, eb = A.identity_idx, B.identity_idx
    # greedy generators of A: add the first element not yet reached
    gens: List[int] = []
    words = _shortest_words(ca, gens, ea)
    for i in range(A.order):
        if len(words) == A.order:
            break
        if i not in words:
            gens.append(i)
            words = _shortest_words(ca, gens, ea)
    a_orders = [order_of_idx(A, g) for g in gens]
    b_by_order: Dict[int, List[int]] = {}
    for i in range(B.order):
        b_by_order.setdefault(order_of_idx(B, i), []).append(i)

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


# ---------------------------------------------------------------------------
# group tables: the cover BFS and class matrices element by element
# ---------------------------------------------------------------------------

def bfs_closure(gens, mul, identity) -> set:
    """Every element of <gens>, closed breadth-first one product of an
    element and a generator at a time, with a set of the elements found."""
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def unique_schreier_tree(cols: np.ndarray, root: int
                         ) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
    """covers._schreier_tree as it was first written: each level's steps in
    generator-major order, the first edge into each new index picked by
    np.unique(return_index=True), a stable mergesort of the whole step."""
    size = cols.shape[1]
    parent = np.full(size, -1, dtype=np.int64)
    pgen = np.full(size, -1, dtype=np.int64)
    seen = np.zeros(size, dtype=bool)
    seen[root] = True
    level = np.array([root], dtype=np.int64)
    levels = []
    while len(level):
        levels.append(level)
        step = cols[:, level].ravel()
        fresh = np.flatnonzero(~seen[step])
        level, first = np.unique(step[fresh], return_index=True)
        edge = fresh[first]
        seen[level] = True
        parent[level] = levels[-1][edge % len(levels[-1])]
        pgen[level] = edge // len(levels[-1])
    return parent, pgen, levels


def unique_close(gens, n: int, size_bound: int
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """covers._close as it was first written: each level's products
    deduplicated by np.unique(return_index=True), the first occurrence of
    each new key kept as its frontier row."""
    def keys_of(rows):
        digits = np.int64(n) ** np.arange(n - 1)[::-1]
        return (rows[:, :n - 1] - 1) @ digits

    moves = np.array(gens, dtype=np.int64).reshape(len(gens), n) - 1
    frontier = np.arange(1, n + 1, dtype=np.int64).reshape(1, n)
    found = keys_of(frontier)
    levels, level_keys, products = [], [found], []
    while len(frontier):
        levels.append(frontier)
        step = frontier[:, moves].reshape(len(frontier) * len(gens), n)
        products.append(keys_of(step))
        fresh, first = np.unique(products[-1], return_index=True)
        at = np.searchsorted(found, fresh)
        new = found[np.minimum(at, len(found) - 1)] != fresh
        found = np.insert(found, at[new], fresh[new])
        if len(found) > size_bound:
            raise SizeBoundExceeded(f"closure exceeded {size_bound} elements")
        frontier = step[first[new]]
        level_keys.append(fresh[new])
    order = np.argsort(np.concatenate(level_keys))
    rows = np.concatenate(levels)[order]
    cols = np.searchsorted(found, np.concatenate(products).reshape(
        len(rows), len(gens))[order].T)
    return rows, found, cols


class BfsTable:
    """<gens> closed breadth-first under mul: every product of an element
    with a generator is evaluated and stored, and every element keeps the
    word it was reached by.  The identity and repeated generators are
    dropped, and elements are listed in sorted order."""

    def __init__(self, gens, mul, identity):
        self.generators = []
        for g in gens:
            if g != identity and g not in self.generators:
                self.generators.append(g)
        words = {identity: []}
        products = {}
        frontier = [identity]
        while frontier:
            new = []
            for x in frontier:
                for gi, g in enumerate(self.generators):
                    y = products[x, gi] = mul(x, g)
                    if y not in words:
                        words[y] = words[x] + [gi]
                        new.append(y)
            frontier = new
        self.elements = sorted(words)
        self.index = {x: i for i, x in enumerate(self.elements)}
        self.gen_cols = [[self.index[products[x, gi]] for x in self.elements]
                         for gi in range(len(self.generators))]
        self.words = [words[x] for x in self.elements]

    def mul_idx(self, i: int, j: int) -> int:
        for gi in self.words[j]:
            i = self.gen_cols[gi][i]
        return i


class BfsCoverTable(BfsTable):
    """The preimage of <gens> in the cover, closed breadth-first under
    Cover.mul with z as one more generator."""

    def __init__(self, gens, spec):
        from schur_ed.covers import get_cover

        cov = get_cover(spec)
        super().__init__([cov.elem(g) for g in gens] + [cov.z], cov.mul,
                         cov.identity)


def class_matrices_by_elements(table, classes) -> List[np.ndarray]:
    """Every B_r[t, u] = #{x in C_r : x^-1 g_u in C_t}, g_u the first
    element of C_u, by one inverse and one product per (x, u) pair."""
    class_of = {i: t for t, cls in enumerate(classes) for i in cls}
    out = []
    for cls_r in classes:
        B = np.zeros((len(classes), len(classes)), dtype=np.int64)
        for x in cls_r:
            x_inv = inv_idx(table, x)
            for u, cls in enumerate(classes):
                B[class_of[mul_idx(table, x_inv, cls[0])], u] += 1
        out.append(B)
    return out


def class_matrix(data, r: int) -> np.ndarray:
    """The class matrix B_r of a `chartab._ClassData` on its columns u in
    rows (folded by z when data has one), through the bincount kernel of
    its mixtures: the mixture of the class list [r] with every coefficient
    1, mod a prime above |G|, so no count is reduced."""
    ones = SimpleNamespace(randrange=lambda start, stop: 1)
    return data.mixture(ones, (1 << 61) - 1, [r])


# ---------------------------------------------------------------------------
# numeric regular-representation decomposition
# ---------------------------------------------------------------------------

def regular_representation_degrees(table) -> List[int]:
    """Irreducible degrees of a small group, from the isotypic decomposition
    of the regular representation.

    A random complex combination of the class sums acts as a distinct scalar
    on each isotypic component (it is central), so its eigenvalue
    multiplicities are exactly the d_i^2.
    """
    from schur_ed.covers import conjugacy_classes

    n = table.order
    rng = np.random.default_rng(12345)
    B = np.zeros((n, n), dtype=complex)
    for cls in conjugacy_classes(table):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        for g in cls:
            for x in range(n):
                B[mul_idx(table, g, x), x] += c
    eigs = list(np.linalg.eigvals(B))
    clusters: List[List[complex]] = []
    for z in eigs:
        for cl in clusters:
            if abs(z - cl[0]) < 1e-6 * (1.0 + abs(z)):
                cl.append(z)
                break
        else:
            clusters.append([z])
    degrees = []
    for cl in clusters:
        d = round(len(cl) ** 0.5)
        if d * d != len(cl):
            raise AssertionError(
                f"isotypic block of dimension {len(cl)} is not a square")
        degrees.append(d)
    return sorted(degrees)


# ---------------------------------------------------------------------------
# linear algebra mod p: determinants and the eigenvalue scan
# ---------------------------------------------------------------------------

def det_mod_p(M, p: int) -> int:
    """Determinant mod p by Gaussian elimination on Python integers."""
    A = [[int(v) % p for v in row] for row in M]
    k = len(A)
    det = 1
    for c in range(k):
        pivot = next((r for r in range(c, k) if A[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            A[c], A[pivot] = A[pivot], A[c]
            det = -det
        det = det * A[c][c] % p
        inv = pow(A[c][c], p - 2, p)
        for r in range(c + 1, k):
            f = A[r][c] * inv % p
            if f:
                A[r] = [(x - f * y) % p for x, y in zip(A[r], A[c])]
    return det % p


def rref_mod_p(M, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form mod p (nonzero rows) and pivot columns,
    eliminating one row at a time."""
    A = np.array(M, dtype=np.int64) % p
    rows, cols = A.shape
    pivots: List[int] = []
    for c in range(cols):
        r = len(pivots)
        below = [i for i in range(r, rows) if A[i, c]]
        if not below:
            continue
        A[[r, below[0]]] = A[[below[0], r]]
        A[r] = A[r] * pow(int(A[r, c]), p - 2, p) % p
        for i in range(rows):
            if i != r and A[i, c]:
                A[i] = (A[i] - A[i, c] * A[r]) % p
        pivots.append(c)
        if len(pivots) == rows:
            break
    return A[:len(pivots)], pivots


def nullspace_mod_p(M, p: int) -> np.ndarray:
    """Rows span {v : M v = 0 mod p}, one per free column."""
    R, pivots = rref_mod_p(M, p)
    cols = np.asarray(M).shape[1]
    free = sorted(set(range(cols)) - set(pivots))
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        basis[k, pivots] = (-R[:, fc]) % p
    return basis


def scan_split_spaces(spaces, B, p: int) -> List[np.ndarray]:
    """Dixon's split of each B-invariant space into eigenspaces of B, by
    trying every lambda in GF(p): one nullspace of R - lambda I per
    candidate, R the restriction of B.  Stops once a space is exhausted and
    raises AssertionError if it never is."""
    out: List[np.ndarray] = []
    for S in spaces:
        k = S.shape[0]
        if k == 1:
            out.append(S)
            continue
        S, pivots = rref_mod_p(S, p)
        R = (np.asarray(B) @ S.T % p)[pivots, :]
        found = 0
        for lam in range(p):
            N = nullspace_mod_p((R - lam * np.eye(k, dtype=np.int64)) % p, p)
            if N.shape[0]:
                out.append(N @ S % p)
                found += N.shape[0]
                if found == k:
                    break
        if found != k:
            raise AssertionError("eigenvalue scan did not exhaust a space")
    return out


# ---------------------------------------------------------------------------
# small local-solubility checks for Hilbert symbol spot values
# ---------------------------------------------------------------------------

def sum_three_squares_insoluble_mod8() -> bool:
    """z^2 + x^2 + y^2 = 0 has no primitive solution mod 8 (witnesses
    (-1,-1)_2 = -1)."""
    for x in range(8):
        for y in range(8):
            for z in range(8):
                if (x % 2, y % 2, z % 2) == (0, 0, 0):
                    continue
                if (x * x + y * y + z * z) % 8 == 0:
                    return False
    return True


def sum_three_squares_soluble_mod_p(p: int) -> bool:
    """For odd p: z^2 + x^2 + y^2 = 0 has a nonsingular solution mod p
    (witnesses (-1,-1)_p = +1 by Hensel lifting)."""
    for x in range(p):
        for y in range(p):
            z2 = (-x * x - y * y) % p
            for z in range(p):
                if (z * z - z2) % p == 0 and (x or y or z):
                    # nonsingular: some partial derivative 2x, 2y, 2z nonzero
                    if x % p or y % p or z % p:
                        return True
    return False


def quaternion_mul(order: int):
    """Multiplication of Q_order on pairs (i, j) meaning x^i y^j, from the
    presentation x^(order/2) = 1, y^2 = x^(order/4), y x y^-1 = x^-1."""
    h = order // 2

    def mul(a, b):
        i1, j1 = a
        i2, j2 = b
        if j1 == 0:
            i, j = i1 + i2, j2
        else:
            i, j = i1 - i2, 1 + j2
        if j >= 2:
            i, j = i + h // 2, j - 2
        return (i % h, j)

    return mul

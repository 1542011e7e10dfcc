"""Exact arithmetic in Q(i, sqrt(2), sqrt(3), sqrt(5), ...).

Elements are finite sums  sum_d (re_d + im_d * i) * sqrt(d)  over squarefree
positive integers d.  This is the smallest exact ring in which the unit
vectors realizing the reflection-chain Gram matrix (1 on the diagonal, -1/2
on the first off-diagonal) have coordinates.  It is the one field of the spin
matrices: the tensor-construction gamma matrices (entries 0, +-1, +-i) and
the double-cover generator matrices built on top of them both live here.

An element is stored in integers, in a normal form: a dict
{d: (re_num, im_num)} of integer numerators over one positive integer
denominator, with no part whose two numerators are both zero, and with
gcd(den, every numerator) = 1.  Zero is ({}, 1).  So equal elements have
equal dicts and denominators, and arithmetic needs one gcd per result
instead of one per Fraction operation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Tuple


def _squarefree_split(n: int) -> Tuple[int, int]:
    """n = s^2 * d with d squarefree (n > 0, small n only). Returns (s, d)."""
    s, d, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return s, d * n


_new = object.__new__


def _normal(num: Dict[int, Tuple[int, int]], den: int) -> "SqrtNum":
    """The SqrtNum num/den in normal form, sharing num if it already is."""
    if (0, 0) in num.values():
        num = {d: part for d, part in num.items() if part != (0, 0)}
    if den != 1:
        g = den
        for re, im in num.values():
            g = gcd(g, re, im)
            if g == 1:
                break
        else:
            num = {d: (re // g, im // g) for d, (re, im) in num.items()}
            den //= g
    x = _new(SqrtNum)
    x._num = num
    x._den = den
    return x


class SqrtNum:
    """Sparse element of Q(i)(sqrt 2, sqrt 3, sqrt 5, ...), immutable.

    `SqrtNum({d: (re, im)})` takes rational pairs (int or Fraction) and
    stores them in the normal form of the module docstring: integer
    numerators over the least common denominator.  `parts` rebuilds the
    Fraction pairs.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, parts: Dict[int, Tuple[Fraction, Fraction]] | None = None):
        pairs = {}
        den = 1
        if parts:
            for d, (re, im) in parts.items():
                if re or im:
                    re, im = Fraction(re), Fraction(im)
                    pairs[d] = (re, im)
                    den = lcm(den, re.denominator, im.denominator)
        # the lcm of reduced denominators leaves no common factor
        self._num = {d: (re.numerator * (den // re.denominator),
                         im.numerator * (den // im.denominator))
                     for d, (re, im) in pairs.items()}
        self._den = den

    @property
    def parts(self) -> Dict[int, Tuple[Fraction, Fraction]]:
        """{d: (re, im)} as Fractions, zero parts left out."""
        den = self._den
        return {d: (Fraction(re, den), Fraction(im, den))
                for d, (re, im) in self._num.items()}

    @classmethod
    def rational(cls, v) -> "SqrtNum":
        return cls({1: (Fraction(v), Fraction(0))})

    @classmethod
    def imag_unit(cls) -> "SqrtNum":
        return cls({1: (Fraction(0), Fraction(1))})

    @classmethod
    def root(cls, n: int, scale=1) -> "SqrtNum":
        """scale * sqrt(n) for a positive integer n."""
        if n <= 0:
            raise ValueError("root() wants a positive integer")
        s, d = _squarefree_split(n)
        return cls({d: (Fraction(scale) * s, Fraction(0))})

    def __add__(self, other: "SqrtNum") -> "SqrtNum":
        a, b = self._num, other._num
        if not b:
            return self
        if not a:
            return other
        den = self._den
        if den == other._den:
            out = dict(a)
        else:
            # cross-multiply by the cofactors of the lcm
            g = gcd(den, other._den)
            sa, sb = other._den // g, den // g
            den *= sa
            out = {d: (re * sa, im * sa) for d, (re, im) in a.items()}
            b = {d: (re * sb, im * sb) for d, (re, im) in b.items()}
        for d, (re, im) in b.items():
            if d in out:
                r0, i0 = out[d]
                out[d] = (r0 + re, i0 + im)
            else:
                out[d] = (re, im)
        return _normal(out, den)

    def __neg__(self) -> "SqrtNum":
        x = _new(SqrtNum)
        x._num = {d: (-re, -im) for d, (re, im) in self._num.items()}
        x._den = self._den
        return x

    def __sub__(self, other: "SqrtNum") -> "SqrtNum":
        return self + (-other)

    def __mul__(self, other: "SqrtNum") -> "SqrtNum":
        a, b = self._num, other._num
        if len(a) == 1 == len(b):
            # one part each, the usual spin-matrix entry: a product of two
            # nonzero Gaussian rationals is nonzero, so only the gcd is left
            (d1, (r1, i1)), = a.items()
            (d2, (r2, i2)), = b.items()
            g = gcd(d1, d2)
            re = g * (r1 * r2 - i1 * i2)
            im = g * (r1 * i2 + i1 * r2)
            den = self._den * other._den
            if den != 1:
                h = gcd(den, re, im)
                if h != 1:
                    re, im, den = re // h, im // h, den // h
            x = _new(SqrtNum)
            x._num = {(d1 // g) * (d2 // g): (re, im)}
            x._den = den
            return x
        out: Dict[int, Tuple[int, int]] = {}
        for d1, (r1, i1) in a.items():
            for d2, (r2, i2) in b.items():
                # sqrt(d1) sqrt(d2) = g sqrt(d1 d2 / g^2), g = gcd(d1, d2)
                g = gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                re = g * (r1 * r2 - i1 * i2)
                im = g * (r1 * i2 + i1 * r2)
                if d in out:
                    r0, i0 = out[d]
                    out[d] = (r0 + re, i0 + im)
                else:
                    out[d] = (re, im)
        return _normal(out, self._den * other._den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SqrtNum):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._den, frozenset(self._num.items())))

    def __bool__(self) -> bool:
        return bool(self._num)

    def is_zero(self) -> bool:
        return not self._num

    def __repr__(self):
        parts = self.parts
        if not parts:
            return "SqrtNum(0)"
        bits = []
        for d in sorted(parts):
            re, im = parts[d]
            bits.append(f"({re}+{im}i)sqrt{d}")
        return "SqrtNum(" + " + ".join(bits) + ")"


SMatrix = List[List[SqrtNum]]


def smat_identity(n: int) -> SMatrix:
    z = SqrtNum()
    one = SqrtNum.rational(1)
    return [[one if i == j else z for j in range(n)] for i in range(n)]


def smat_neg(x: SMatrix) -> SMatrix:
    return [[-v for v in row] for row in x]


def smat_add(x: SMatrix, y: SMatrix) -> SMatrix:
    return [[a + b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def smat_mul(x: SMatrix, y: SMatrix) -> SMatrix:
    n = len(x)
    out = []
    for i in range(n):
        row = []
        xi = x[i]
        for j in range(n):
            acc = SqrtNum()
            for k in range(n):
                v = xi[k]
                if v:
                    acc = acc + v * y[k][j]
            row.append(acc)
        out.append(row)
    return out


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

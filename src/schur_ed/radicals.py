"""Exact arithmetic in Q(i, sqrt(2), sqrt(3), sqrt(5), ...).

Elements are finite sums  sum_d (re_d + im_d * i) * sqrt(d)  over squarefree
positive integers d.  This is the smallest exact ring in which the unit
vectors realizing the reflection-chain Gram matrix (1 on the diagonal, -1/2
on the first off-diagonal) have coordinates.  It is the one field of the spin
matrices: the tensor-construction gamma matrices (entries 0, +-1, +-i) and
the double-cover generator matrices built on top of them both live here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
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


_ZERO = Fraction(0)


class SqrtNum:
    """Sparse element of Q(i)(sqrt 2, sqrt 3, sqrt 5, ...)."""

    __slots__ = ("parts",)

    def __init__(self, parts: Dict[int, Tuple[Fraction, Fraction]] | None = None):
        clean = {}
        if parts:
            for d, (re, im) in parts.items():
                if re or im:
                    clean[d] = (re, im)
        self.parts = clean

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
        out = dict(self.parts)
        for d, (re, im) in other.parts.items():
            if d in out:
                out[d] = (out[d][0] + re, out[d][1] + im)
            else:
                out[d] = (re, im)
        return SqrtNum(out)

    def __neg__(self) -> "SqrtNum":
        return SqrtNum({d: (-re, -im) for d, (re, im) in self.parts.items()})

    def __sub__(self, other: "SqrtNum") -> "SqrtNum":
        return self + (-other)

    def __mul__(self, other: "SqrtNum") -> "SqrtNum":
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
        return SqrtNum(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SqrtNum):
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
                if v.parts:
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

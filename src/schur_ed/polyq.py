"""Dense univariate polynomials over Q: the small toolkit needed for trace
forms of etale algebras (Newton power sums, resultants and discriminants,
which decide squarefreeness and coprimality) and for certifying
irreducibility of randomly drawn factors via reduction mod p.

A polynomial is a tuple of ints or Fractions, ascending degree, no trailing
zeros: `poly` and `parse_poly` give Fractions, and a randomly drawn factor
keeps the ints it was certified on.  The kernels run on integer coefficient
lists: a polynomial is scaled once by the lcm of its denominators, power
sums of a monic integral polynomial are ints, and the certificates mod p
reduce the scaled list, not each Fraction.  Every
resultant goes through one integer kernel, `_int_resultant`: a Horner
evaluation when a side is linear, res(a1 x + a0, g) = a1^n g(-a0/a1), or a
monic quadratic, res(x^2 + px + q, g) = v^2 - puv + qu^2 for g = ux + v
mod the quadratic, and the subresultant PRS over Z otherwise.  The integer
discriminant has closed forms up to degree 4 and is memoized by the
coefficient tuple; the certificates sieve their primes by its Legendre
symbol (Stickelberger's parity), and an etale algebra reads the same value
when it validates the factor that was kept.
"""

from __future__ import annotations

import re
import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul as _times
from typing import Dict, List, Sequence, Tuple, Union

from .numth import legendre

Poly = Tuple[Union[int, Fraction], ...]

# the largest degree parsed, and the largest trace form built
MAX_DEGREE = 24


def poly(coeffs: Sequence) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(f: Poly) -> int:
    return len(f) - 1


def mul(f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ()
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return poly(out)


def _integral(f: Sequence) -> Tuple[Tuple[int, ...], int]:
    """(F, den): den is the lcm of the denominators of f and F = den * f is
    its integer coefficient tuple, the key of the discriminant memo.  A
    polynomial of ints, as every randomly drawn factor is, is its own F,
    with den 1."""
    if all(type(c) is int for c in f):
        return tuple(f), 1
    den = lcm(*[c.denominator for c in f])
    return tuple(c.numerator * (den // c.denominator) for c in f), den


# ---------------------------------------------------------------------------
# resultants and discriminants (subresultant PRS on integers, exact)
# ---------------------------------------------------------------------------

def _pseudo_rem(a: List[int], b: List[int], q: int) -> List[int]:
    """The remainder of lc(b)^(deg a - deg b + 1) * a by b over Z, divided
    by q, which must divide it exactly.  When deg a = deg b + 1, the degree
    gap of every step of a normal PRS, the quotient is
    lc(b) a_n x + lc(b) a_(n-1) - a_n b_(n-2), read off the top
    coefficients, and the divided remainder is one pass over a and b."""
    lb = b[-1]
    if len(a) == len(b) + 1:
        top = a[-1]
        q1, q0 = lb * top, lb * a[-2] - top * b[-2]
        sq = lb * lb
        r = [(sq * x - q0 * y - q1 * z) // q
             for x, y, z in zip(a[:len(b) - 1], b, [0] + b)]
    else:
        r = a[:]
        for k in range(len(a) - len(b), -1, -1):
            top = r.pop()
            r = ([lb * x for x in r[:k]]
                 + [lb * x - top * y for x, y in zip(r[k:], b)])
        r = [x // q for x in r]
    while r and r[-1] == 0:
        r.pop()
    return r


def _subresultant(a: List[int], b: List[int]) -> int:
    """res(a, b) of integer polynomials of degree >= 1 by the subresultant
    PRS (Cohen, GTM 138, Alg. 3.3.7): every division is exact, so the
    coefficients stay the size of subresultants, and the whole sequence
    costs about (m+n)^2 integer operations against the (m+n)^3 of a
    Sylvester determinant."""
    s = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) * (len(b) - 1) % 2:
            s = -1
    ca, cb = gcd(*a), gcd(*b)
    t = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    a = [x // ca for x in a]
    b = [x // cb for x in b]
    g = h = 1
    while True:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            s = -s
        r = _pseudo_rem(a, b, g * h ** delta)
        if not r:
            return 0
        a, b = b, r
        g = a[-1]
        if delta:
            h = g ** delta // h ** (delta - 1)
        if len(b) == 1:
            da = len(a) - 1
            return s * t * (b[0] ** da // h ** (da - 1))


def _linear_resultant(a: List[int], b: List[int]) -> int:
    """res(a, b) for a = a0 + a1*x of degree 1: a1^n b(-a0/a1), n = deg b,
    by a homogeneous Horner pass, so nothing is divided."""
    a0, a1 = a
    acc, scale = b[-1], 1
    for c in reversed(b[:-1]):
        scale *= a1
        acc = acc * -a0 + c * scale
    return acc


def _monic_quadratic_resultant(a: List[int], b: List[int]) -> int:
    """res(a, b) for a = x^2 + px + q: b reduced mod a is ux + v, and
    res(a, b) = (u r + v)(u s + v) over the roots r, s of a, which is
    v^2 - puv + qu^2.  The reduction is a Horner pass with x^2 = -px - q."""
    q, p, _ = a
    u, v = 0, b[-1]
    for c in reversed(b[:-1]):
        u, v = v - p * u, c - q * u
    return v * v - p * u * v + q * u * u


def _int_resultant(a: List[int], b: List[int]) -> int:
    """res(a, b) of integer coefficient lists of degree >= 1: a Horner
    evaluation when either side is linear or a monic quadratic, the
    subresultant PRS otherwise.  res(b, a) = (-1)^(mn) res(a, b), so a
    quadratic side may come first or second."""
    if len(a) == 2:
        return _linear_resultant(a, b)
    if len(b) == 2:
        r = _linear_resultant(b, a)
        return -r if len(a) % 2 == 0 else r
    if len(a) == 3 and a[-1] == 1:
        return _monic_quadratic_resultant(a, b)
    if len(b) == 3 and b[-1] == 1:
        return _monic_quadratic_resultant(b, a)
    return _subresultant(a, b)


def resultant(f: Poly, g: Poly) -> Fraction:
    m, n = degree(f), degree(g)
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0:
        return Fraction(f[0]) ** n
    if n == 0:
        return Fraction(g[0]) ** m
    fi, df = _integral(f)
    gi, dg = _integral(g)
    return Fraction(_int_resultant(fi, gi), df ** n * dg ** m)


@lru_cache(maxsize=4096)
def _int_discriminant(F: Tuple[int, ...]) -> int:
    """disc(F) = (-1)^(n(n-1)/2) res(F, F') / lc(F) of an integer
    coefficient tuple of degree n >= 1, an integer.  Memoized by the tuple:
    `certify_irreducible` computes it for every candidate, and the one kept
    reaches `discriminant` again when its etale algebra is validated.
    Degrees 2 to 4 have closed forms, a few integer products each: b^2 - 4ac
    for ax^2 + bx + c; b^2c^2 - 4ac^3 - 4b^3d - 27a^2d^2 + 18abcd for
    ax^3 + bx^2 + cx + d; and (4I^3 - J^2)/27 for ax^4 + bx^3 + cx^2 + dx + e,
    with the invariants I = 12ae - 3bd + c^2 and
    J = 72ace + 9bcd - 27ad^2 - 27b^2e - 2c^3."""
    n = len(F) - 1
    if n == 1:
        return 1
    if n == 2:
        c, b, a = F
        return b * b - 4 * a * c
    if n == 3:
        d, c, b, a = F
        return (b * b * (c * c - 4 * b * d) - 4 * a * c ** 3
                + a * d * (18 * b * c - 27 * a * d))
    if n == 4:
        e, d, c, b, a = F
        i = 12 * a * e - 3 * b * d + c * c
        j = (72 * a * c * e + 9 * b * c * d - 27 * (a * d * d + b * b * e)
             - 2 * c ** 3)
        return (4 * i ** 3 - j * j) // 27
    res = _subresultant(list(F), [i * c for i, c in enumerate(F)][1:])
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res // F[-1]


def discriminant(f: Poly) -> Fraction:
    """disc(f) = disc(F) / den^(2d-2) for F = den * f integral."""
    d = degree(f)
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    F, den = _integral(f)
    return Fraction(_int_discriminant(F), den ** (2 * d - 2))


def _power_sums(c: Sequence, p0, count: int) -> List:
    """Newton's recurrence on the coefficients c of a monic polynomial
    (c[i] the coefficient of x^i), from p_0 = p0, its degree."""
    d = len(c) - 1
    p = [p0]
    for k in range(1, count):
        if k <= d:
            acc = -k * c[d - k]
            for j in range(1, k):
                acc -= c[d - j] * p[k - j]
        else:
            acc = 0
            for j in range(1, d + 1):
                acc -= c[d - j] * p[k - j]
        p.append(acc)
    return p


# ---------------------------------------------------------------------------
# parsing: "x^3 - 2", "2*x^2 + x/3 - 1", or coefficient lists "1,0,-2"
# (descending degree)
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"\s*([+-]?)\s*"
    r"(?:(\d+(?:/\d+)?)\s*\*?\s*)?"
    r"(x|X)?"
    r"(?:\s*\^\s*(\d+))?"
    r"(?:\s*/\s*(\d+))?"
)


def parse_poly(text: str) -> Poly:
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial")
    if "x" not in text and "X" not in text and "," in text:
        coeffs = [Fraction(t.strip()) for t in text.split(",")]
        return poly(list(reversed(coeffs)))
    pos = 0
    terms: List[Tuple[int, Fraction]] = []
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse polynomial near {text[pos:]!r}")
        sign_s, coeff_s, var, exp_s, div_s = m.groups()
        if coeff_s is None and var is None:
            raise ValueError(f"cannot parse polynomial near {text[pos:]!r}")
        coeff = Fraction(coeff_s) if coeff_s else Fraction(1)
        if sign_s == "-":
            coeff = -coeff
        if div_s:
            coeff /= int(div_s)
        exp = 0
        if var:
            # refused before the dense list is sized by it; a long exponent
            # is refused by its length, before int() reads it
            digits = (exp_s or "1").lstrip("0") or "0"
            if len(digits) > 2 or int(digits) > MAX_DEGREE:
                raise ValueError(
                    f"polynomial degree must be in 1..{MAX_DEGREE}")
            exp = int(digits)
        terms.append((exp, coeff))
        pos = m.end()
    d = max(e for e, _ in terms)
    out = [Fraction(0)] * (d + 1)
    for e, c in terms:
        out[e] += c
    return poly(out)


def format_poly(f: Poly) -> str:
    if not f:
        return "0"
    bits = []
    for e in range(degree(f), -1, -1):
        c = f[e]
        if c == 0:
            continue
        s = "+ " if c > 0 else "- "
        c = abs(c)
        if e == 0:
            bits.append(f"{s}{c}")
        elif e == 1:
            bits.append(f"{s}{'' if c == 1 else str(c) + '*'}x")
        else:
            bits.append(f"{s}{'' if c == 1 else str(c) + '*'}x^{e}")
    out = " ".join(bits)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


# ---------------------------------------------------------------------------
# irreducibility certificates mod p (parity, roots, Berlekamp's matrix)
# ---------------------------------------------------------------------------

def _gf_independent(rows: List[List[int]], p: int) -> bool:
    """Are the rows linearly independent over GF(p)?  Each row is reduced
    by the pivots before it; the first row that reduces to zero ends the
    elimination."""
    pivots: List[Tuple[int, List[int]]] = []
    for row in rows:
        for col, prow in pivots:
            c = row[col]
            if c:
                row = [(x - c * y) % p for x, y in zip(row, prow)]
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:
            return False
        inv = pow(row[col], -1, p)
        pivots.append((col, [x * inv % p for x in row]))
    return True


# the slot formats of packed ints: 16 or 64 bits, native byte order
_SLOT_BYTES = {"H": 2, "Q": 8}


def _slot_format(top: int) -> str:
    """The format of a slot that holds every number up to top < 2^64."""
    return "H" if top < 1 << 16 else "Q"


def _pack(values: Sequence[int], fmt: str) -> int:
    """One int whose slot r, of format fmt, holds values[r]: the native
    bytes of an array read as one int, so nothing is shifted in Python."""
    return int.from_bytes(array(fmt, values).tobytes(), sys.byteorder)


def _unpack(packed: int, fmt: str, count: int) -> memoryview:
    """The first count slots of a packed int, in `_pack`'s order.  Slots
    add without carries while every sum fits its slot."""
    return memoryview(packed.to_bytes(count * _SLOT_BYTES[fmt],
                                      sys.byteorder)).cast(fmt)


# p -> (width, fmt, cols): slot r of the packed int cols[k] holds r^k mod
# p, for k < width.  So for coefficients 0 <= c_k < p, slot r of
# sum c_k cols[k] holds a number congruent to f(r) mod p, at most
# width * (p-1)^2, which fits its slot.  Filled on first use as wide as
# asked (a column of p slots at a time), and widened from its last column
# when a wider use comes.
_RESIDUE_POWERS: Dict[int, Tuple[int, str, List[int]]] = {}


def _residue_powers(p: int, width: int) -> Tuple[int, str, List[int]]:
    table = _RESIDUE_POWERS.get(p)
    if table is None or table[0] < width:
        top = width * (p - 1) ** 2
        if top >= 1 << 64:
            raise ValueError(f"no residue table for p = {p}")
        fmt = _slot_format(top)
        if table is not None and table[1] == fmt:
            cols = table[2]
            col = _unpack(cols[-1], fmt, p)
        else:
            col = [1] * p
            cols = [_pack(col, fmt)]
        while len(cols) < width:
            col = [x * r % p for r, x in enumerate(col)]
            cols.append(_pack(col, fmt))
        table = _RESIDUE_POWERS[p] = (width, fmt, cols)
    return table


def _irreducible_mod_p(f: Sequence[int], p: int, disc: int) -> bool:
    """True iff f, integer coefficients of degree d >= 1 whose
    discriminant is disc, has degree d mod the odd prime p and is
    irreducible mod p.

    Stickelberger's theorem (Swan, Pacific J. Math. 12 (1962)) decides
    about half the primes at once: if p divides neither lc(f) nor disc and
    f has r irreducible factors mod p, then (disc | p) is (-1)^(d-r).  So
    an irreducible f has (disc | p) = (-1)^(d-1), and any other symbol,
    0 included (a repeated factor), rules p out.  That settles d = 2.

    f is next evaluated at every residue at once: the packed columns of
    residue powers put f(r) mod p, up to a multiple of p, in slot r of one
    int, d + 1 big-int products in all.  A root mod p is a linear factor,
    and a random f has one with probability about 1 - 1/e, so most
    candidates stop here.  With no root, a cubic is irreducible, and so is
    a quartic or quintic of the right parity: its factors then have degree
    >= 2, and the one other squarefree split, 2 + 2 or 2 + 3, has r = 2.
    From d = 6 on (2 + 2 + 2 has the parity of an irreducible sextic)
    Berlekamp's criterion decides: the nullity of Q - I, where
    row i of Q is x^(i*p) mod f, is the number of distinct irreducible
    factors of f mod p (Berlekamp's subalgebra has dimension one over each
    primary factor), and f, already squarefree mod p, is irreducible iff
    that number is 1.  Row i+1 of Q is row i times the matrix of
    multiplication by x^p, whose rows x^(p+j) mod f come from x^p by
    multiplying by x.  Each of those rows is packed into one int, so a row
    times the matrix is one sum of d big-int products, read back slot by
    slot."""
    d = len(f) - 1
    if f[-1] % p == 0:
        return False
    if d == 1:
        return True
    if legendre(disc, p) != (-1 if d % 2 == 0 else 1):
        return False
    if d == 2:
        return True
    _, fmt, cols = _residue_powers(p, d + 1)
    values = sum(c % p * col for c, col in zip(f, cols))
    if 0 in map(p.__rmod__, _unpack(values, fmt, p)):
        return False
    if d <= 5:
        return True
    inv = pow(f[-1], -1, p)
    # x^d = sum low[k] x^k mod f; v runs through x^k mod f
    low = [-c * inv % p for c in f[:-1]]
    k = min(p, d - 1)
    v = [0] * d
    v[k] = 1
    times_xp = []
    while len(times_xp) < d:
        if k >= p:
            times_xp.append(v)
        top = v[-1]
        v = [0] + v[:-1]
        if top:
            v = [(a + top * b) % p for a, b in zip(v, low)]
        k += 1
    # slot c of sum_j power[j] packed[j] is row c of power times the
    # matrix, at most d (p-1)^2: below 2^64, since the residue table of p
    # holds (d+1) (p-1)^2
    fmt = _slot_format(d * (p - 1) ** 2)
    packed = [_pack(row, fmt) for row in times_xp]
    rows: List[List[int]] = []
    power = times_xp[0]
    for i in range(1, d):
        if i > 1:
            power = [x % p for x in
                     _unpack(sum(map(_times, power, packed)), fmt, d)]
        row = power[:]
        row[i] = (row[i] - 1) % p
        rows.append(row)
    # row 0 of Q - I is zero.  Rows 1..d-1 are independent iff f mod p,
    # squarefree since p does not divide disc, is irreducible
    return _gf_independent(rows, p)


_CERT_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _has_small_root(F: Sequence[int]) -> bool:
    """Has the integer polynomial F a root in {0, 1, -1, 2, -2}?  With E
    and O the polynomials of its even and odd coefficients,
    F(+-1) = E(1) +- O(1) and F(+-2) = E(4) +- 2 O(4)."""
    if not F[0]:
        return True
    even, odd = F[::2], F[1::2]
    e, o = sum(even), sum(odd)
    if e == o or e == -o:
        return True
    e = o = 0
    for c in reversed(even):
        e = 4 * e + c
    for c in reversed(odd):
        o = 4 * o + c
    return e == 2 * o or e == -2 * o


def certify_irreducible(f: Sequence) -> bool:
    """True if some small prime certifies irreducibility over Q.  A False
    return means 'not certified', not 'reducible'.  f is a Poly or a list
    of int coefficients (ascending, no trailing zero); it is scaled to
    integers, and its discriminant computed, once for all the primes.
    Every prime goes through the one kernel `_irreducible_mod_p`: the
    parity sieve, the root scan, then Berlekamp from degree 6 on.

    From degree 3 on, a root in {0, +-1, +-2} is looked for first.  An
    integer root r makes F = (x - r) G with G integral (Gauss), so F is
    reducible mod every prime not dividing lc(F), the only primes the
    kernel accepts, and no prime can certify F: the verdict is False with
    no discriminant.  Most drawn candidates that fail have such a root.  At
    degree 2, whose primes need only the Legendre symbol of a closed-form
    discriminant, the check measured as a loss."""
    d = degree(f)
    if d < 2:
        return d == 1
    F, den = _integral(f)
    if d >= 3 and _has_small_root(F):
        return False
    disc = _int_discriminant(F)
    return any(den % p and _irreducible_mod_p(F, p, disc) for p in _CERT_PRIMES)

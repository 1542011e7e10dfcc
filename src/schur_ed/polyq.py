"""Dense univariate polynomials over Q: the small toolkit needed for trace
forms of etale algebras (Newton power sums, resultants and discriminants,
which decide squarefreeness and coprimality) and for certifying
irreducibility of randomly drawn factors via reduction mod p.

A polynomial is a tuple of Fractions, ascending degree, no trailing zeros.
The kernels run on integer coefficient lists: a polynomial is scaled once by
the lcm of its denominators, resultants follow the subresultant PRS over Z,
power sums of an integral polynomial are ints, and the certificates mod p
reduce the scaled list, not each Fraction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul as _times
from typing import Dict, List, Sequence, Tuple

Poly = Tuple[Fraction, ...]


def poly(coeffs: Sequence) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(f: Poly) -> int:
    return len(f) - 1


def is_monic(f: Poly) -> bool:
    return bool(f) and f[-1] == 1


def mul(f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ()
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return poly(out)


def _integral(f: Sequence) -> Tuple[List[int], int]:
    """(F, den): den is the lcm of the denominators of f and F = den * f is
    its integer coefficient list."""
    den = lcm(*[c.denominator for c in f])
    return [c.numerator * (den // c.denominator) for c in f], den


# ---------------------------------------------------------------------------
# resultants and discriminants (subresultant PRS on integers, exact)
# ---------------------------------------------------------------------------

def _pseudo_rem(a: List[int], b: List[int]) -> List[int]:
    """The remainder of lc(b)^(deg a - deg b + 1) * a by b over Z."""
    lb = b[-1]
    r = a[:]
    for k in range(len(a) - len(b), -1, -1):
        top = r.pop()
        r = ([lb * x for x in r[:k]]
             + [lb * x - top * y for x, y in zip(r[k:], b)])
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
        r = _pseudo_rem(a, b)
        if not r:
            return 0
        q = g * h ** delta
        a, b = b, [x // q for x in r]
        g = a[-1]
        if delta:
            h = g ** delta // h ** (delta - 1)
        if len(b) == 1:
            da = len(a) - 1
            return s * t * (b[0] ** da // h ** (da - 1))


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
    return Fraction(_subresultant(fi, gi), df ** n * dg ** m)


def discriminant(f: Poly) -> Fraction:
    """(-1)^(d(d-1)/2) res(f, f') / lc(f).  With F = den * f integral this is
    (-1)^(d(d-1)/2) res(F, F') / (den^(2d-2) lc(F))."""
    d = degree(f)
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    if d == 1:
        return Fraction(1)
    F, den = _integral(f)
    res = _subresultant(F, [i * c for i, c in enumerate(F)][1:])
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return Fraction(sign * res, den ** (2 * d - 2) * F[-1])


def power_sums(f: Poly, count: int) -> List:
    """Newton power sums p_0..p_{count-1} of the roots of monic f: ints
    when every coefficient is an integer, since then every power sum is
    one, and Fractions otherwise."""
    if not is_monic(f):
        raise ValueError("power sums assume a monic polynomial")
    d = degree(f)
    # c[i] is the coefficient of x^i
    if all(a.denominator == 1 for a in f):
        c, p = [a.numerator for a in f], [d]
    else:
        c, p = f, [Fraction(d)]
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
        if var:
            exp = int(exp_s) if exp_s else 1
        else:
            exp = 0
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
# irreducibility certificates mod p (Berlekamp's matrix)
# ---------------------------------------------------------------------------

def _pm_rem(a: List[int], m: List[int], p: int) -> List[int]:
    a = a[:]
    inv = pow(m[-1], -1, p)
    low = m[:-1]
    for k in range(len(a) - len(m), -1, -1):
        c = a.pop() * inv % p
        if c:
            a[k:] = [(x - c * y) % p for x, y in zip(a[k:], low)]
    while a and a[-1] == 0:
        a.pop()
    return a


def _pm_gcd(a: List[int], b: List[int], p: int) -> List[int]:
    while b:
        a, b = b, _pm_rem(a, b, p)
    return a


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


# p -> the rows (r^0, r^1, ...) mod p for r = 0..p-1; filled on first use
# (under 0.1 ms per prime), wide enough for degree 12 and widened on demand
_RESIDUE_POWERS: Dict[int, List[Tuple[int, ...]]] = {}


def _residue_powers(p: int, width: int) -> List[Tuple[int, ...]]:
    rows = _RESIDUE_POWERS.get(p)
    if rows is None or len(rows[0]) < width:
        col = [1] * p
        cols = [col]
        for _ in range(max(width, 13) - 1):
            col = [x * r % p for r, x in enumerate(col)]
            cols.append(col)
        rows = _RESIDUE_POWERS[p] = list(zip(*cols))
    return rows


def _irreducible_mod_p(f: List[int], p: int) -> bool:
    """Berlekamp's criterion for an integer coefficient list f of degree
    d >= 1: True iff f mod p has degree d and is irreducible.

    f is first evaluated at every residue by a dot product with that
    residue's powers: a root mod p is a linear factor, and a random f has
    one with probability about 1 - 1/e, so most candidates stop here in
    p short dot products, and a quadratic or cubic with no root is
    irreducible.  Otherwise the nullity of Q - I, where row i of Q
    is x^(i*p) mod f, is the number of distinct irreducible factors of f
    mod p (Berlekamp's subalgebra has dimension one over each primary
    factor), and f is irreducible iff that number is 1 and f is squarefree
    mod p.  Row i+1 of Q is row i times the matrix of multiplication by
    x^p, whose rows x^(p+j) mod f come from x^p by multiplying by x."""
    d = len(f) - 1
    if f[-1] % p == 0:
        return False
    if d == 1:
        return True
    for row in _residue_powers(p, d + 1):
        if not sum(map(_times, f, row)) % p:
            return False
    if d <= 3:
        return True
    inv = pow(f[-1], -1, p)
    fp = [c * inv % p for c in f]
    # x^d = sum low[k] x^k mod f; v runs through x^k mod f
    low = [-c % p for c in fp[:-1]]
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
    cols = list(zip(*times_xp))
    rows: List[List[int]] = []
    power = times_xp[0]
    for i in range(1, d):
        if i > 1:
            power = [sum(map(_times, power, col)) % p for col in cols]
        row = power[:]
        row[i] = (row[i] - 1) % p
        rows.append(row)
    # row 0 of Q - I is zero.  Rows 1..d-1 are independent iff f mod p is
    # a power of one irreducible g; then f = g exactly when f is squarefree
    if not _gf_independent(rows, p):
        return False
    der = [(i * c) % p for i, c in enumerate(fp)][1:]
    while der and der[-1] == 0:
        der.pop()
    return bool(der) and len(_pm_gcd(fp, der, p)) == 1


def is_irreducible_mod_p(f: Poly, p: int) -> bool:
    """Is f irreducible mod p, with no drop in degree?  False when p
    divides a denominator of f.  Irreducible mod p certifies irreducible
    over Q.  Runs the kernel `certify_irreducible` runs, on den * f."""
    d = degree(f)
    if d < 1:
        return False
    F, den = _integral(f)
    return den % p != 0 and _irreducible_mod_p(F, p)


_CERT_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def certify_irreducible(f: Sequence) -> bool:
    """True if some small prime certifies irreducibility over Q.  A False
    return means 'not certified', not 'reducible'.  f is a Poly or a list
    of int coefficients (ascending, no trailing zero); it is scaled to
    integers once for all the primes."""
    d = degree(f)
    if d < 2:
        return d == 1
    F, den = _integral(f)
    return any(den % p and _irreducible_mod_p(F, p) for p in _CERT_PRIMES)

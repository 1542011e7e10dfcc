"""Dense univariate polynomials over Q: the small toolkit needed for trace
forms of etale algebras (Newton power sums, resultants and discriminants,
which decide squarefreeness and coprimality) and for certifying
irreducibility of randomly drawn factors via reduction mod p.

A polynomial is a tuple of Fractions, ascending degree, no trailing zeros.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import List, Sequence, Tuple

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


def derivative(f: Poly) -> Poly:
    return poly([i * c for i, c in enumerate(f)][1:])


# ---------------------------------------------------------------------------
# resultants and discriminants (Sylvester determinant, exact)
# ---------------------------------------------------------------------------

def _bareiss_det(M: List[List[int]]) -> int:
    n = len(M)
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


def resultant(f: Poly, g: Poly) -> Fraction:
    m, n = degree(f), degree(g)
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
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
    det = _bareiss_det(M)
    return Fraction(det, den ** size)


def discriminant(f: Poly) -> Fraction:
    d = degree(f)
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * resultant(f, derivative(f)) / f[-1]


def power_sums(f: Poly, count: int) -> List[Fraction]:
    """Newton power sums p_0..p_{count-1} of the roots of monic f, as
    Fractions.  The recurrence runs in int when every coefficient is an
    integer, since then every power sum is one."""
    if not is_monic(f):
        raise ValueError("power sums assume a monic polynomial")
    d = degree(f)
    # c[i] is the coefficient of x^i
    c = [a.numerator for a in f] if all(a.denominator == 1 for a in f) else f
    p = [d]
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
    return [Fraction(x) for x in p]


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

def _pm(f: Poly, p: int) -> List[int]:
    if any(c.denominator % p == 0 for c in f):
        raise ValueError("denominator divisible by p")
    out = [c.numerator * pow(c.denominator, -1, p) % p for c in f]
    while out and out[-1] == 0:
        out.pop()
    return out


def _pm_mulmod(a: List[int], b: List[int], m: List[int], p: int) -> List[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _pm_rem([c % p for c in out], m, p)


def _pm_rem(a: List[int], m: List[int], p: int) -> List[int]:
    a = a[:]
    dm = len(m) - 1
    inv = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm:
        if a[-1]:
            c = a[-1] * inv % p
            k = len(a) - 1 - dm
            for i, y in enumerate(m):
                a[k + i] = (a[k + i] - c * y) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _pm_gcd(a: List[int], b: List[int], p: int) -> List[int]:
    while b:
        a, b = b, _pm_rem(a, b, p)
    return a


def _gf_rank(rows: List[List[int]], p: int) -> int:
    """Rank of a matrix over GF(p) by Gaussian elimination; consumes rows."""
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        prow = rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            c = rows[i][col]
            if c:
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


def is_irreducible_mod_p(f: Poly, p: int) -> bool:
    """Berlekamp's criterion: a squarefree f of degree d mod p has as many
    irreducible factors as Q - I has nullity, where row i of Q is
    x^(i*p) mod f.  f irreducible mod p certifies irreducibility over Q
    (for f whose degree does not drop mod p).

    Before the matrix is built, f is evaluated at every residue by Horner's
    rule: a root mod p is a linear factor of an f of degree >= 2, so the
    answer is False either way.  A random f has a root mod p with
    probability about 1 - 1/e, and is then rejected in p*d steps instead of
    a d x d rank."""
    try:
        fp = _pm(f, p)
    except ValueError:
        return False
    d = len(fp) - 1
    if d != degree(f) or d < 1:
        return False
    if d == 1:
        return True
    for r in range(p):
        acc = 0
        for c in reversed(fp):
            acc = (acc * r + c) % p
        if acc == 0:
            return False
    der = [(i * c) % p for i, c in enumerate(fp)][1:]
    while der and der[-1] == 0:
        der.pop()
    if not der or len(_pm_gcd(fp, der, p)) != 1:
        return False
    xp = _pm_rem([0] * p + [1], fp, p)
    rows: List[List[int]] = []
    power = [1]
    for i in range(d):
        if i:
            power = _pm_mulmod(power, xp, fp, p)
        row = power + [0] * (d - len(power))
        row[i] = (row[i] - 1) % p
        rows.append(row)
    return _gf_rank(rows, p) == d - 1


_CERT_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def certify_irreducible(f: Poly) -> bool:
    """True if some small prime certifies irreducibility over Q.  A False
    return means 'not certified', not 'reducible'."""
    if degree(f) == 1:
        return True
    for p in _CERT_PRIMES:
        try:
            if is_irreducible_mod_p(f, p):
                return True
        except ValueError:
            continue
    return False

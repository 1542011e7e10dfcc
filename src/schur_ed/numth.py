"""Integer utilities: deterministic primality, factorization, square parts,
quadratic residues.  All routines are deterministic (fixed witness sets and
seeded cycle parameters), so repeated runs agree bit for bit.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Dict, List, Tuple

_SMALL_PRIMES: List[int] = []

# Brent-rho squarings one factorize call may spend.  Rho finds a prime
# factor q after about sqrt(q) squarings, so this splits cofactors whose
# smaller prime factors are below about 2^40; on 150-bit numbers it is a
# few seconds of work.
FACTOR_EFFORT = 1 << 22


class SizeBoundExceeded(RuntimeError):
    """A computation would pass a resource cap: the element count of a
    group closure, or the factoring effort of FACTOR_EFFORT."""


def _sieve(limit: int = 10_000) -> List[int]:
    global _SMALL_PRIMES
    if _SMALL_PRIMES:
        return _SMALL_PRIMES
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = b"\x00" * len(range(p * p, limit + 1, p))
    _SMALL_PRIMES = [i for i, f in enumerate(flags) if f]
    return _SMALL_PRIMES


# Miller-Rabin with these bases is a proven primality test below
# psi_12 = 318,665,857,834,031,151,167,461, the least strong pseudoprime to
# all twelve (Sorenson-Webster, Math. Comp. 86 (2017)); from there on the
# strong Lucas check is added (Baillie-PSW), still fully deterministic.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_LIMIT = 318_665_857_834_031_151_167_461


def _miller_rabin(n: int, base: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base % n, d, n)
    if x in (0, 1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas(n: int) -> bool:
    # Selfridge parameter choice
    d = 5
    while True:
        if gcd(abs(d), n) not in (1, n):
            return False
        if jacobi(d, n) == -1:
            break
        d = -(d + 2) if d > 0 else -(d - 2)
    p, q = 1, (1 - d) // 4
    # n + 1 = s * 2^r
    s, r = n + 1, 0
    while s % 2 == 0:
        s //= 2
        r += 1
    # Lucas sequences U_s, V_s mod n
    u, v, qk = 1, p, q % n
    bits = bin(s)[3:]
    for bit in bits:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (p * u + v) % n, (d * u + p * v) % n
            if u % 2:
                u += n
            if v % 2:
                v += n
            u, v = u // 2 % n, v // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(r - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def is_prime(n: int) -> bool:
    """Trial division by the Miller-Rabin bases 2..37 first: that decides
    every n below 41^2, since a composite there has a prime factor <= 37."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    for base in _MR_BASES:
        if not _miller_rabin(n, base):
            return False
    if n < _MR_PROVEN_LIMIT:
        return True
    return _strong_lucas(n)


def jacobi(a: int, n: int) -> int:
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi symbol needs odd positive n")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def legendre(a: int, p: int) -> int:
    """(a|p) for odd prime p, in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _brent_rho(n: int, seed: int, budget: int) -> Tuple[int, int]:
    """One Brent cycle attempt of at most about `budget` squarings.

    Returns (g, steps): g is a nontrivial factor of n, or n when the attempt
    failed; steps is the squarings spent, all of `budget` when it ran out."""
    if n % 2 == 0:
        return 2, 0
    y, c, m = (seed * 2 + 1) % n, (seed * 3 + 7) % n, 128
    if c == 0:
        c = 1
    g, r, q = 1, 1, 1
    x = ys = y
    steps = 0
    while g == 1:
        if steps + 2 * r > budget:
            return n, budget
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        steps += r
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            steps += min(m, r - k)
            g = gcd(q, n)
            k += m
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            steps += 1
            g = gcd(abs(x - ys), n)
    return g, steps


def factorize(n: int) -> Dict[int, int]:
    """Prime factorization of |n| (n != 0) as {prime: exponent}.

    Raises SizeBoundExceeded when the cofactors left after trial division
    need more than FACTOR_EFFORT Brent-rho squarings in all."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: Dict[int, int] = {}
    for p in _sieve():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    stack = [n]
    effort = 0
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root = isqrt(m)
        if root * root == m:
            stack.extend([root, root])
            continue
        f = m
        seed = 1
        while f == m:
            if effort >= FACTOR_EFFORT:
                raise SizeBoundExceeded(
                    f"factoring a {m.bit_length()}-bit cofactor took more "
                    f"than {FACTOR_EFFORT} Brent-rho steps")
            f, steps = _brent_rho(m, seed, FACTOR_EFFORT - effort)
            effort += steps
            seed += 1
        stack.extend([f, m // f])
    return out


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def valuation(n: int, p: int) -> Tuple[int, int]:
    """(v, u) with n = p^v * u and p does not divide u."""
    if n == 0:
        raise ValueError("0 has infinite valuation")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n

"""Permutations on {1..n} as tuples of images, plus the deterministic
reduced-word machinery that underpins the cover-group cocycle.

A permutation sigma is stored as a tuple img with img[k-1] = sigma(k).
Composition is functional: (s * t)(x) = s(t(x)).
"""

from __future__ import annotations

from typing import List, Tuple

Perm = Tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(s: Perm, t: Perm) -> Perm:
    """(s o t)(x) = s(t(x))."""
    return tuple(s[v - 1] for v in t)


def inverse(s: Perm) -> Perm:
    out = [0] * len(s)
    for pos, v in enumerate(s, start=1):
        out[v - 1] = pos
    return tuple(out)


def adjacent_transposition(n: int, i: int) -> Perm:
    """The transposition (i, i+1) in S_n, 1 <= i <= n-1."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"adjacent index {i} out of range for n={n}")
    img = list(range(1, n + 1))
    img[i - 1], img[i] = img[i], img[i - 1]
    return tuple(img)


def inversions(s: Perm) -> int:
    n = len(s)
    return sum(1 for i in range(n) for j in range(i + 1, n) if s[i] > s[j])


def parity(s: Perm) -> int:
    """0 for even, 1 for odd."""
    seen = [False] * len(s)
    par = 0
    for start in range(len(s)):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = s[cur] - 1
            length += 1
        par ^= (length - 1) & 1
    return par


def canonical_word(s: Perm) -> List[int]:
    """Deterministic reduced word: s = s_{w[0]} * s_{w[1]} * ... (composition
    left to right), with len(w) = inversions(s).

    Built from the Lehmer-style staircase decomposition: peel off the largest
    value top = n via s = tau * (s_{top-1} s_{top-2} ... s_m) where
    m = s^{-1}(top), then recurse on tau in S_{top-1}.  Dropping the last
    letter of the word yields the canonical word of s * s_last, which lets
    canonical lifts be built incrementally.
    """
    img = list(s)
    blocks: List[range] = []
    for top in range(len(s), 1, -1):
        m = img.index(top) + 1
        blocks.append(range(top - 1, m - 1, -1))
        del img[m - 1]
    word: List[int] = []
    for block in reversed(blocks):
        word.extend(block)
    return word


# ---------------------------------------------------------------------------
# Sylow 2-subgroups of S_n and A_n
# ---------------------------------------------------------------------------

def dyadic_profile(n: int) -> List[int]:
    """Exponents a_1 > a_2 > ... > a_s >= 0 with n = sum 2^{a_i}."""
    if n < 1:
        raise ValueError("n must be positive")
    return [a for a in range(n.bit_length() - 1, -1, -1) if n >> a & 1]


def sylow2_sym_generators(n: int) -> List[Perm]:
    """Generators of a Sylow 2-subgroup of S_n: on each block of the dyadic
    decomposition of {1..n}, the iterated halves-swap generators of the
    wreath tower; the generated order is 2^(n - popcount(n))."""
    if n < 1:
        raise ValueError("n must be positive")
    gens: List[Perm] = []
    offset = 0
    for a in dyadic_profile(n):
        size = 1 << a
        for k in range(1, a + 1):
            half = 1 << (k - 1)
            img = list(range(1, n + 1))
            for j in range(half):
                x = offset + j
                y = offset + j + half
                img[x], img[y] = img[y], img[x]
            gens.append(tuple(img))
        offset += size
    return gens


def sylow2_alt_generators(n: int) -> List[Perm]:
    """Generators of a Sylow 2-subgroup of A_n, i.e. of the even part of the
    S_n Sylow subgroup, via the Reidemeister-Schreier transversal {1, o}
    where o is a fixed odd generator."""
    gens = sylow2_sym_generators(n)
    evens = [g for g in gens if parity(g) == 0]
    odds = [g for g in gens if parity(g) == 1]
    if not odds:
        return evens
    o = odds[0]
    o_inv = inverse(o)
    out = list(evens)
    out.extend(compose(o, compose(g, o_inv)) for g in evens)
    out.extend(compose(g, o_inv) for g in odds)
    out.extend(compose(o, g) for g in odds)
    seen = set()
    uniq = []
    ident = identity_perm(n)
    for g in out:
        if g != ident and g not in seen:
            seen.add(g)
            uniq.append(g)
    return uniq

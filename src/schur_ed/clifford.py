"""The spin representation of the double covers, in the Clifford algebra of
the forms ±(x_1^2 + ... + x_m^2).

Generators e_1, ..., e_m satisfy e_i^2 = sign (a common value +1 or -1) and
e_i e_j = -e_j e_i for i != j.  The gamma matrices realize them over the
field of `radicals.SqrtNum`, the generator images of the covers are unit
vectors in their span, and the defining relations are decided in the plane
algebra of each pair of vectors, from the scalar and bivector parts of
their product, read off the two coordinate dicts.  Everything here is
immutable and side-effect free.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from .covers import VerificationError
from .radicals import SMatrix, SqrtNum


# ---------------------------------------------------------------------------
# the tensor-construction gamma matrices
# ---------------------------------------------------------------------------

# the one zero every builder fills its matrices with: a scan skips it by
# identity before it asks an entry for its truth value, so any other zero
# is still tested
_ZERO = SqrtNum()

# a gamma matrix as its row map (flip, entries): row r holds entries[r] in
# column r ^ flip and zero elsewhere
RowMap = Tuple[int, List[SqrtNum]]


def _gamma_row_maps(n: int, sign: int) -> List[RowMap]:
    """The row maps of basic_spin_matrices(n, sign)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    m = n - 1
    pairs = m // 2
    dim = 1 << pairs
    one = SqrtNum.rational(1)
    ii = SqrtNum.imag_unit()
    unit = one if sign == 1 else ii

    def gamma(flip: int, z_mask: int, c: SqrtNum) -> RowMap:
        c = unit * c
        signed = (c, -c)
        return flip, [signed[(r & z_mask).bit_count() & 1]
                      for r in range(dim)]

    gammas: List[RowMap] = []
    for j in range(pairs):
        bit = dim >> (j + 1)
        z_slots = dim - 2 * bit
        gammas.append(gamma(bit, z_slots, one))
        # Y = -i Z X: the X entry times -i, negated where r has the slot-j bit
        gammas.append(gamma(bit, z_slots | bit, -ii))
    if m % 2 == 1:
        # odd rank: gamma_m = Z tensor ... tensor Z anticommutes with the
        # rest and squares to +1
        gammas.append(gamma(0, dim - 1, one))
    return gammas


def _dense(row_map: RowMap) -> SMatrix:
    flip, entries = row_map
    out = [[_ZERO] * len(entries) for _ in entries]
    for r, (row, v) in enumerate(zip(out, entries)):
        row[r ^ flip] = v
    return out


def basic_spin_matrices(n: int, sign: int = 1) -> List[SMatrix]:
    """Images of the n-1 Clifford generators under the standard tensor
    construction: pairwise anticommuting matrices of size 2^floor((n-1)/2)
    with entries in {0, +-1, +-i}, squaring to sign*identity.

    With p = floor((n-1)/2) tensor slots 0..p-1, slot j gives the pair
    Z x ... x Z x X x I x ... x I and the same with Y, the Z's in slots
    0..j-1, for the Pauli matrices X, Y = [[0, -i], [i, 0]] and
    Z = diag(1, -1); for sign -1 each is multiplied by i.  Slot j is bit
    p-1-j of a row index, so row r of such a matrix has one nonzero entry,
    in column r with that bit flipped, whose sign is the parity of r's bits
    in the Z slots (and, for Y, in slot j).

    For odd rank the last generator is realized as a scalar multiple of the
    product of the others, which is the unique way to stay in this dimension.
    """
    return [_dense(g) for g in _gamma_row_maps(n, sign)]


# ---------------------------------------------------------------------------
# the 2^floor((n-1)/2)-dimensional representation of the covers
# ---------------------------------------------------------------------------

def spin_representation(n: int, variant: str) -> List[SMatrix]:
    """Generator images T_1, ..., T_{n-1} of the cover of S_n in dimension
    2^floor((n-1)/2).

    T_k is the unit vector a_k*Gamma_{k-1} + b_k*Gamma_k in the span of the
    gamma matrices, where consecutive vectors meet at 120 degrees (the
    Cholesky coordinates of the reflection-chain Gram matrix).  The
    coefficients involve sqrt(k(k+1)/2), so the matrices live over
    Q(i, sqrt 2, sqrt 3, ...), the field of `radicals.SqrtNum` in which the
    gamma matrices are built.
    """
    if variant not in ("plus", "minus"):
        raise ValueError("variant must be 'plus' or 'minus'")
    gammas = _gamma_row_maps(n, 1 if variant == "plus" else -1)
    dim = len(gammas[0][1])
    gens = [_dense(gammas[0])]
    for k in range(2, n):
        # a_k = -sqrt((k-1)/2k) = -sqrt(2k(k-1))/(2k), b_k = sqrt((k+1)/2k)
        a_k = SqrtNum.root(2 * k * (k - 1), Fraction(-1, 2 * k))
        b_k = SqrtNum.root(2 * k * (k + 1), Fraction(1, 2 * k))
        # each row of T_k has its nonzeros where the two gammas have theirs
        t = [[_ZERO] * dim for _ in range(dim)]
        for c, (flip, entries) in ((a_k, gammas[k - 2]), (b_k, gammas[k - 1])):
            scaled = {v: c * v for v in set(entries)}
            for r, (row, v) in enumerate(zip(t, entries)):
                col = r ^ flip
                row[col] = row[col] + scaled[v]
        gens.append(t)
    return gens


# ---------------------------------------------------------------------------
# checking the relations in the Clifford algebra
# ---------------------------------------------------------------------------

def _pair_product(u: Dict[int, SqrtNum], v: Dict[int, SqrtNum],
                  sign: int) -> Tuple[SqrtNum, bool]:
    """uv = B + w for the vectors u, v given as {generator index: nonzero
    coefficient}, with e_i^2 = sign and e_i e_j = -e_j e_i: the scalar
    B = sign * sum_j u_j v_j, and whether the bivector
    w = sum_{i<j} (u_i v_j - u_j v_i) e_i e_j is zero.

    w = 0 exactly when u and v are parallel.  For u, v != 0 with
    different supports, some i is in one support and not the other, and
    with j in the other the (i, j) coefficient is a product of two
    nonzeros.  With one support, u_i v_j = u_j v_i for a fixed j and
    every i makes v a multiple of u."""
    b = _ZERO
    for j, c in u.items():
        if j in v:
            b = b + c * v[j]
    if sign == -1:
        b = -b
    if u.keys() != v.keys():
        return b, not u or not v
    j = next(iter(u), None)
    return b, all(u[i] * v[j] == u[j] * v[i] for i in u)


def verify_spin_representation(n: int, variant: str) -> List[Tuple[str, bool]]:
    """Check every defining relation of the matching presentation on the
    spin generator matrices, with the central element represented by -I.

    The relations are decided in the Clifford algebra C of the form
    sign*(x_1^2 + ... + x_m^2), m = n-1, over the field K of
    `radicals.SqrtNum`, and no dense matrix is multiplied:

    1. The gammas from `basic_spin_matrices` must be signed monomial (one
       nonzero entry per row, a power of i) and satisfy G_j G_l + G_l G_j =
       2*sign*delta_jl*I, checked by composing row maps and adding the
       powers of i mod 4.  Then e_j -> G_j is an algebra map
       rho: C -> M_dim(K).
    2. Since tr(G_l G_j) = sign*dim*delta_jl, the generator T_k from
       `spin_representation` has coordinates c_kj = sign*tr(G_j T_k)/dim,
       summed over the distinct (power of i, T_k entry) pairs with their
       counts, the entries of T_k interned.  T_k = sum_j c_kj G_j is then
       checked row by row: the nonzero entries of each row of T_k must be
       those of the rebuilt row, whose cells are computed once per distinct
       combination of terms.  If step 1 or 2 fails, VerificationError names
       the failed premise.
    3. Each relation is t_k^2 = +-1 or (t_k t_l)^p = +-1 for the vectors
       t_k = sum_j c_kj e_j, decided in the plane algebra of u = t_k and
       v = t_l.  The squares u^2 and v^2 are scalars, and uv = B + w with B
       scalar and w a bivector, read off the coordinates by
       `_pair_product`.  Since
       uv + vu = 2B and (uv)(vu) = u^2 v^2, w^2 = D = B^2 - u^2 v^2.  So
       (uv)^p = alpha_p + beta_p w with alpha_1 = B, beta_1 = 1 and
       (alpha, beta) -> (alpha B + beta D, alpha + beta B), and it equals
       the scalar +-1 exactly when alpha_p = +-1 and beta_p w = 0.

    Every relation word has even length, so it lies in the even subalgebra
    C_0.  For m even C is central simple, and for m odd C_0 is central
    simple (Lam, Introduction to Quadratic Forms over Fields, V.2); either
    way the nonzero module K^dim is faithful on C_0, since a kernel would
    be a proper two-sided ideal.  So a word equals +-1 in C exactly when its
    matrix equals +-I.  The plane identities of step 3 hold in C for any
    vectors, so each flag is the flag of the dense product, for any
    coefficients c_kj, not only the intended ones.

    The relation rho(z) = (g1 g3)^2 needs g3, so n >= 4; a smaller n raises
    ValueError.  Both builders must return n-1 matrices, or
    VerificationError names the count.
    """
    if n < 4:
        raise ValueError(f"verify_spin_representation needs n >= 4, got {n}")
    plus = variant == "plus"
    sign = 1 if plus else -1
    m = n - 1
    gammas = basic_spin_matrices(n, sign)
    if len(gammas) != m:
        raise VerificationError(
            f"expected {m} gamma matrices at n = {n}, got {len(gammas)}")
    gens = spin_representation(n, variant)
    if len(gens) != m:
        raise VerificationError(
            f"expected {m} generator matrices at n = {n}, got {len(gens)}")
    dim = len(gammas[0])
    if dim == 0:
        raise VerificationError("the spin module is zero")

    # 1. each G_j as row maps: row r holds one nonzero entry,
    #    units[pws[r]] = i^pws[r], in column cols[r].  Then G_j G_l +
    #    G_l G_j = 2*sign*delta_jl*I, where row r of G_j G_l holds
    #    i^(pws_j[r] + pws_l[c]) in column cols_l[c], c = cols_j[r]
    units = [SqrtNum.rational(1), SqrtNum.imag_unit()]
    units += [-u for u in units]
    power_of = {u: p for p, u in enumerate(units)}
    maps: List[Tuple[List[int], List[int]]] = []
    for j, g in enumerate(gammas, 1):
        support = [[c for c, v in enumerate(row) if v is not _ZERO and v]
                   for row in g]
        if len(g) != dim or any(len(row) != dim or len(cs) != 1
                                or row[cs[0]] not in power_of
                                for row, cs in zip(g, support)):
            raise VerificationError(
                f"gamma_{j} is not a {dim} x {dim} signed monomial matrix")
        cols = [cs[0] for cs in support]
        maps.append((cols, [power_of[row[c]] for row, c in zip(g, cols)]))
    for j, (cols_j, pws_j) in enumerate(maps):
        for l in range(j, m):
            cols_l, pws_l = maps[l]
            for r, (c, e) in enumerate(zip(cols_j, pws_j)):
                e += pws_l[c]
                if j == l:
                    ok = cols_l[c] == r and e % 4 == 1 - sign
                else:
                    c2 = cols_l[r]
                    ok = (cols_l[c] == cols_j[c2]
                          and (e - pws_l[r] - pws_j[c2]) % 4 == 2)
                if not ok:
                    raise VerificationError(
                        f"gamma_{j + 1} and gamma_{l + 1} break the Clifford "
                        f"relation in row {r}")

    # 2. coordinates of each T_k in the gammas, then T_k rebuilt from them.
    #    tr(G_j T_k) = sum_b G_j[b][a] T_k[a][b] over a = cols_j[b], so each
    #    nonzero cell (a, b) of T_k meets the gammas j with cols_j[b] == a
    values: List[SqrtNum] = []
    index: Dict[SqrtNum, int] = {}

    def intern(v: SqrtNum) -> int:
        e = index.get(v)
        if e is None:
            e = index[v] = len(values)
            values.append(v)
        return e

    meets: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for j, (cols, pws) in enumerate(maps):
        for b, (a, pw) in enumerate(zip(cols, pws)):
            meets.setdefault((a, b), []).append((j, pw))
    scales: Dict[int, SqrtNum] = {}
    elems: List[Dict[int, SqrtNum]] = []
    for k, t in enumerate(gens, 1):
        if len(t) != dim or any(len(row) != dim for row in t):
            raise VerificationError(f"T_{k} is not {dim} x {dim}")
        support = [[(c, intern(v)) for c, v in enumerate(row)
                    if v is not _ZERO and v] for row in t]
        counts: Dict[Tuple[int, int, int], int] = {}
        for a, row in enumerate(support):
            for b, e in row:
                for j, pw in meets.get((a, b), ()):
                    key = (j, pw, e)
                    counts[key] = counts.get(key, 0) + 1
        coeffs: Dict[int, SqrtNum] = {}
        for (j, pw, e), count in counts.items():
            scale = scales.get(count)
            if scale is None:
                scale = scales[count] = SqrtNum.rational(
                    Fraction(sign * count, dim))
            term = scale * (units[pw] * values[e])
            coeffs[j] = coeffs[j] + term if j in coeffs else term
        coeffs = {j: c for j, c in coeffs.items() if c}
        # row r of sum_j c_kj G_j, its cells computed once per distinct
        # combination of terms, must be the nonzero support of row r of T_k
        cells: Dict[Tuple[Tuple[int, int], ...], int | None] = {}
        for r, row in enumerate(support):
            terms: Dict[int, List[Tuple[int, int]]] = {}
            for j in coeffs:
                cols, pws = maps[j]
                terms.setdefault(cols[r], []).append((j, pws[r]))
            rebuilt = []
            for col, cell in sorted(terms.items()):
                key = tuple(cell)
                if key not in cells:
                    v = _ZERO
                    for j, pw in cell:
                        v = v + coeffs[j] * units[pw]
                    cells[key] = intern(v) if v else None
                if cells[key] is not None:
                    rebuilt.append((col, cells[key]))
            if rebuilt != row:
                raise VerificationError(
                    f"T_{k} is not in the span of the gamma matrices")
        elems.append(coeffs)

    # 3. the relations in the plane algebra of each pair of vectors
    one, sign_one, minus_one = units[0], units[1 - sign], units[2]
    squares = [_pair_product(u, u, sign)[0] for u in elems]

    def word_is(k: int, l: int, power: int, want: SqrtNum) -> bool:
        """(t_k t_l)^power == want."""
        b, w_is_zero = _pair_product(elems[k - 1], elems[l - 1], sign)
        d = b * b - squares[k - 1] * squares[l - 1]
        alpha, beta = b, one
        for _ in range(power - 1):
            alpha, beta = alpha * b + beta * d, alpha + beta * b
        return alpha == want and (not beta or w_is_zero)

    letter = "s" if plus else "t"
    results: List[Tuple[str, bool]] = []
    results.append(("rho(z) = -I with rho(z) = (g1 g3)^2",
                    word_is(1, 3, 2, minus_one)))
    for k in range(1, n):
        rel = f"{letter}{k}^2 = {'1' if plus else 'z'}"
        results.append((rel, squares[k - 1] == sign_one))
    for k in range(1, n):
        for l in range(k + 2, n):
            results.append((f"({letter}{k} {letter}{l})^2 = z",
                            word_is(k, l, 2, minus_one)))
    for k in range(1, n - 1):
        rel = f"({letter}{k} {letter}{k+1})^3 = {'1' if plus else 'z'}"
        results.append((rel, word_is(k, k + 1, 3, sign_one)))
    return results

"""The spin representation of the double covers, in the Clifford algebra of
the forms ±(x_1^2 + ... + x_m^2).

Generators e_1, ..., e_m satisfy e_i^2 = sign (a common value +1 or -1) and
e_i e_j = -e_j e_i for i != j.  The gamma matrices realize them over the
field of `radicals.SqrtNum`, the generator images of the covers are unit
vectors in their span, and the defining relations are checked by products
of Clifford elements {blade bitmask: coefficient}.  Everything here is
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
    if n < 2:
        raise ValueError("need n >= 2")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    m = n - 1
    pairs = m // 2
    dim = 1 << pairs
    zero = SqrtNum()
    one = SqrtNum.rational(1)
    ii = SqrtNum.imag_unit()
    unit = one if sign == 1 else ii

    def gamma(flip: int, z_mask: int, c: SqrtNum) -> SMatrix:
        c = unit * c
        out = [[zero] * dim for _ in range(dim)]
        for r in range(dim):
            out[r][r ^ flip] = -c if (r & z_mask).bit_count() & 1 else c
        return out

    gammas: List[SMatrix] = []
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
    sign = 1 if variant == "plus" else -1
    gammas = basic_spin_matrices(n, sign)
    dim = len(gammas[0])
    zero = SqrtNum()
    gens = []
    for k in range(1, n):
        if k == 1:
            gens.append(gammas[0])
            continue
        # a_k = -sqrt((k-1)/2k) = -sqrt(2k(k-1))/(2k), b_k = sqrt((k+1)/2k)
        a_k = SqrtNum.root(2 * k * (k - 1), Fraction(-1, 2 * k))
        b_k = SqrtNum.root(2 * k * (k + 1), Fraction(1, 2 * k))
        # the gammas are monomial: scale only their nonzero entries
        t = [[zero] * dim for _ in range(dim)]
        for c, g in ((a_k, gammas[k - 2]), (b_k, gammas[k - 1])):
            for row, g_row in zip(t, g):
                for col, v in enumerate(g_row):
                    if v:
                        row[col] = row[col] + c * v
        gens.append(t)
    return gens


# ---------------------------------------------------------------------------
# checking the relations in the Clifford algebra
# ---------------------------------------------------------------------------

def _blade_mul(x: Dict[int, SqrtNum], y: Dict[int, SqrtNum],
               sign: int) -> Dict[int, SqrtNum]:
    """Product of two Clifford elements {blade bitmask: coefficient} with
    e_i^2 = sign and e_i e_j = -e_j e_i."""
    out: Dict[int, SqrtNum] = {}
    for a, ca in x.items():
        for b, cb in y.items():
            # reordering e_a e_b passes each e_i of a over the lower e_j of b
            swaps, rest = 0, a >> 1
            while rest:
                swaps += (rest & b).bit_count()
                rest >>= 1
            if sign == -1:
                swaps += (a & b).bit_count()
            c = ca * cb
            if swaps & 1:
                c = -c
            blade = a ^ b
            out[blade] = out[blade] + c if blade in out else c
    return {blade: c for blade, c in out.items() if c}


def verify_spin_representation(n: int, variant: str) -> List[Tuple[str, bool]]:
    """Check every defining relation of the matching presentation on the
    spin generator matrices, with the central element represented by -I.

    The relations are decided in the Clifford algebra C of the form
    sign*(x_1^2 + ... + x_m^2), m = n-1, over the field K of
    `radicals.SqrtNum`, and no dense matrix is multiplied:

    1. The gammas from `basic_spin_matrices` must be signed monomial (one
       nonzero entry per row) and satisfy G_j G_l + G_l G_j =
       2*sign*delta_jl*I, checked by composing row maps.  Then e_j -> G_j
       is an algebra map rho: C -> M_dim(K).
    2. Since tr(G_l G_j) = sign*dim*delta_jl, the generator T_k from
       `spin_representation` has coordinates c_kj = sign*tr(T_k G_j)/dim,
       and T_k = sum_j c_kj G_j is then checked entry by entry.  If step 1
       or 2 fails, VerificationError names the failed premise.
    3. Each relation word is evaluated on t_k = sum_j c_kj e_j by blade
       products and compared with the scalar +-1.

    Every relation word has even length, so it lies in the even subalgebra
    C_0.  For m even C is central simple, and for m odd C_0 is central
    simple (Lam, Introduction to Quadratic Forms over Fields, V.2); either
    way the nonzero module K^dim is faithful on C_0, since a kernel would
    be a proper two-sided ideal.  So a word equals +-1 in C exactly when its
    matrix equals +-I: each flag is the flag of the dense product, for any
    coefficients c_kj, not only the intended ones.

    The relation rho(z) = (g1 g3)^2 needs g3, so n >= 4; a smaller n raises
    ValueError.
    """
    if n < 4:
        raise ValueError(f"verify_spin_representation needs n >= 4, got {n}")
    plus = variant == "plus"
    sign = 1 if plus else -1
    gammas = basic_spin_matrices(n, sign)
    gens = spin_representation(n, variant)
    dim = len(gammas[0]) if gammas else 0
    if dim == 0:
        raise VerificationError("the spin module is zero")

    # 1. each G_j as row maps: row r holds one nonzero entry, vals[r] in
    #    column cols[r].  Then G_j G_l + G_l G_j = 2*sign*delta_jl*I, where
    #    row r of G_j G_l is vals_j[r] * vals_l[cols_j[r]] in column
    #    cols_l[cols_j[r]]
    maps: List[Tuple[List[int], List[SqrtNum]]] = []
    for j, g in enumerate(gammas, 1):
        support = [[c for c, v in enumerate(row) if v] for row in g]
        if len(g) != dim or any(len(row) != dim or len(cs) != 1
                                for row, cs in zip(g, support)):
            raise VerificationError(
                f"gamma_{j} is not a {dim} x {dim} signed monomial matrix")
        cols = [cs[0] for cs in support]
        maps.append((cols, [row[c] for row, c in zip(g, cols)]))
    sign_one = SqrtNum.rational(sign)
    for j, (cols_j, vals_j) in enumerate(maps):
        for l in range(j, len(maps)):
            cols_l, vals_l = maps[l]
            for r in range(dim):
                col, val = cols_l[cols_j[r]], vals_j[r] * vals_l[cols_j[r]]
                if j == l:
                    ok = col == r and val == sign_one
                else:
                    ok = (col == cols_j[cols_l[r]]
                          and (val + vals_l[r] * vals_j[cols_l[r]]).is_zero())
                if not ok:
                    raise VerificationError(
                        f"gamma_{j + 1} and gamma_{l + 1} break the Clifford "
                        f"relation in row {r}")

    # 2. coordinates of each T_k in the gammas, then T_k rebuilt from them
    scale = SqrtNum.rational(Fraction(sign, dim))
    zero = SqrtNum()
    elems: List[Dict[int, SqrtNum]] = []
    for k, t in enumerate(gens, 1):
        if len(t) != dim or any(len(row) != dim for row in t):
            raise VerificationError(f"T_{k} is not {dim} x {dim}")
        coeffs: Dict[int, SqrtNum] = {}
        for j, (cols, vals) in enumerate(maps):
            trace = zero
            for r in range(dim):
                entry = t[cols[r]][r]
                if entry:
                    trace = trace + vals[r] * entry
            if trace:
                coeffs[j] = scale * trace
        for r in range(dim):
            row: Dict[int, SqrtNum] = {}
            for j, c in coeffs.items():
                col = maps[j][0][r]
                v = c * maps[j][1][r]
                row[col] = row[col] + v if col in row else v
            if any(t[r][col] != row.get(col, zero) for col in range(dim)):
                raise VerificationError(
                    f"T_{k} is not in the span of the gamma matrices")
        elems.append({1 << j: c for j, c in coeffs.items()})

    # 3. the relation words in C
    def word_is(letters: List[int], power: int, want: int) -> bool:
        base = elems[letters[0] - 1]
        for k in letters[1:]:
            base = _blade_mul(base, elems[k - 1], sign)
        val = base
        for _ in range(power - 1):
            val = _blade_mul(val, base, sign)
        return val == {0: SqrtNum.rational(want)}

    letter = "s" if plus else "t"
    results: List[Tuple[str, bool]] = []
    results.append(("rho(z) = -I with rho(z) = (g1 g3)^2",
                    word_is([1, 3], 2, -1)))
    for k in range(1, n):
        rel = f"{letter}{k}^2 = {'1' if plus else 'z'}"
        results.append((rel, word_is([k], 2, sign)))
    for k in range(1, n):
        for l in range(k + 2, n):
            results.append((f"({letter}{k} {letter}{l})^2 = z",
                            word_is([k, l], 2, -1)))
    for k in range(1, n - 1):
        rel = f"({letter}{k} {letter}{k+1})^3 = {'1' if plus else 'z'}"
        results.append((rel, word_is([k, k + 1], 3, sign)))
    return results

"""Exact Clifford algebra arithmetic for the forms ±(x_1^2 + ... + x_n^2).

Generators e_1, ..., e_n satisfy e_i^2 = sign (a common value +1 or -1) and
e_i e_j = -e_j e_i for i != j.  Coefficients live in the ring Z[1/2, sqrt(2)],
which contains every coefficient that can appear in a product of the
transposition lifts (e_i - e_j)/sqrt(2).  Everything here is immutable and
side-effect free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .radicals import SMatrix, SqrtNum, smat_add, smat_scale


# ---------------------------------------------------------------------------
# Z[1/2, sqrt 2]
# ---------------------------------------------------------------------------

class Dyadic:
    """(a + b*sqrt(2)) / 2^k with a, b integers and k >= 0 minimal.

    Canonical form: if k > 0 then a and b are not both even, so equality of
    the triples (a, b, k) is equality of real numbers (1 and sqrt(2) are
    linearly independent over Q).
    """

    __slots__ = ("a", "b", "k")

    def __init__(self, a: int, b: int = 0, k: int = 0):
        if k < 0:
            a, b, k = a << (-k), b << (-k), 0
        while k > 0 and (a & 1) == 0 and (b & 1) == 0:
            a >>= 1
            b >>= 1
            k -= 1
        self.a = a
        self.b = b
        self.k = k

    @classmethod
    def zero(cls) -> "Dyadic":
        return cls(0, 0, 0)

    @classmethod
    def one(cls) -> "Dyadic":
        return cls(1, 0, 0)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        k = max(self.k, other.k)
        sa = self.a << (k - self.k)
        sb = self.b << (k - self.k)
        oa = other.a << (k - other.k)
        ob = other.b << (k - other.k)
        return Dyadic(sa + oa, sb + ob, k)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.a, -self.b, self.k)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        return self + (-other)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        a = self.a * other.a + 2 * self.b * other.b
        b = self.a * other.b + self.b * other.a
        return Dyadic(a, b, self.k + other.k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.k == other.k

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.k))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def rational_parts(self) -> Tuple[Fraction, Fraction]:
        """Return (p, q) with value = p + q*sqrt(2)."""
        d = 1 << self.k
        return Fraction(self.a, d), Fraction(self.b, d)

    def __repr__(self) -> str:
        return f"Dyadic({self.a}, {self.b}, {self.k})"


@dataclass(frozen=True)
class CliffordSignature:
    """Rank n with common generator square e_i^2 = sign in {+1, -1}."""

    n: int
    sign: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("rank must be at least 1")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")


def _reorder_parity(a: int, b: int) -> int:
    """Parity of transpositions moving the generators of mask b past those
    of mask a into canonical ascending order (a then b, bitwise)."""
    a >>= 1
    parity = 0
    while a:
        parity ^= (a & b).bit_count() & 1
        a >>= 1
    return parity


class CliffordElem:
    """Sparse multivector: a map basis-mask -> Z[1/2, sqrt 2] coefficient.

    Internally all terms share one power of 1/sqrt(2): the element equals
    sum_m (a_m + b_m*sqrt(2)) * sqrt(2)^(-scale).  This keeps the hot
    multiplication loop in plain integer arithmetic.
    """

    __slots__ = ("signature", "_terms", "_scale")

    def __init__(self, signature: CliffordSignature,
                 terms: Dict[int, Tuple[int, int]], scale: int,
                 _normalized: bool = False):
        self.signature = signature
        if _normalized:
            self._terms = terms
            self._scale = scale
            return
        terms = {m: ab for m, ab in terms.items() if ab != (0, 0)}
        limit = 1 << signature.n
        for m in terms:
            if not 0 <= m < limit:
                raise ValueError(f"basis mask {m} out of range for rank {signature.n}")
        # reduce the global sqrt(2) exponent: dividing a + b*sqrt2 by sqrt2
        # gives b + (a/2)*sqrt2, an integer pair iff every a is even
        while scale > 0 and all(a & 1 == 0 for a, _ in terms.values()):
            terms = {m: (b, a >> 1) for m, (a, b) in terms.items()}
            scale -= 1
        if scale < 0:
            # multiply by sqrt2: (a + b*sqrt2)*sqrt2 = 2b + a*sqrt2
            while scale < 0:
                terms = {m: (2 * b, a) for m, (a, b) in terms.items()}
                scale += 1
        if not terms:
            scale = 0
        self._terms = terms
        self._scale = scale

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, signature: CliffordSignature) -> "CliffordElem":
        return cls(signature, {}, 0, _normalized=True)

    @classmethod
    def scalar(cls, signature: CliffordSignature, value: Dyadic | int) -> "CliffordElem":
        if isinstance(value, int):
            value = Dyadic(value)
        if value.is_zero():
            return cls.zero(signature)
        # value = (a + b sqrt2)/2^k = (a + b sqrt2) * sqrt2^(-2k)
        return cls(signature, {0: (value.a, value.b)}, 2 * value.k)

    @classmethod
    def generator(cls, signature: CliffordSignature, i: int) -> "CliffordElem":
        if not 1 <= i <= signature.n:
            raise ValueError(f"generator index {i} out of range 1..{signature.n}")
        return cls(signature, {1 << (i - 1): (1, 0)}, 0, _normalized=True)

    # -- inspection ----------------------------------------------------------

    def terms(self) -> Dict[int, Dyadic]:
        """Coefficients as canonical Dyadic values, keyed by basis mask."""
        out = {}
        half, odd = divmod(self._scale, 2)
        for m, (a, b) in self._terms.items():
            if odd:
                # divide by one extra sqrt2: (a + b sqrt2)/sqrt2 = b + (a/2) sqrt2
                out[m] = Dyadic(2 * b, a, half + 1)
            else:
                out[m] = Dyadic(a, b, half)
        return out

    def coefficient(self, mask: int) -> Dyadic:
        return self.terms().get(mask, Dyadic.zero())

    def is_zero(self) -> bool:
        return not self._terms

    def is_scalar(self) -> bool:
        return not self._terms or set(self._terms) == {0}

    def scalar_value(self) -> Dyadic:
        if not self.is_scalar():
            raise ValueError("element is not a scalar")
        return self.coefficient(0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CliffordElem):
            return NotImplemented
        return (self.signature == other.signature
                and self._scale == other._scale
                and self._terms == other._terms)

    def __hash__(self) -> int:
        return hash((self.signature, self._scale,
                     tuple(sorted(self._terms.items()))))

    def __repr__(self) -> str:
        parts = []
        for m, c in sorted(self.terms().items()):
            name = "1" if m == 0 else "e" + "".join(
                str(i + 1) for i in range(self.signature.n) if m >> i & 1)
            parts.append(f"{name}*{c!r}")
        body = " + ".join(parts) if parts else "0"
        return f"<CliffordElem {body}>"

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "CliffordElem") -> "CliffordElem":
        self._check(other)
        k = max(self._scale, other._scale)
        out = dict(_rescaled(self._terms, k - self._scale))
        for m, ab in _rescaled(other._terms, k - other._scale).items():
            cur = out.get(m)
            if cur is None:
                out[m] = ab
            else:
                out[m] = (cur[0] + ab[0], cur[1] + ab[1])
        return CliffordElem(self.signature, out, k)

    def __neg__(self) -> "CliffordElem":
        return CliffordElem(self.signature,
                            {m: (-a, -b) for m, (a, b) in self._terms.items()},
                            self._scale, _normalized=True)

    def __sub__(self, other: "CliffordElem") -> "CliffordElem":
        return self + (-other)

    def __mul__(self, other: "CliffordElem") -> "CliffordElem":
        self._check(other)
        sign = self.signature.sign
        out: Dict[int, Tuple[int, int]] = {}
        for ma, (a1, b1) in self._terms.items():
            for mb, (a2, b2) in other._terms.items():
                neg = _reorder_parity(ma, mb)
                if sign < 0:
                    neg ^= (ma & mb).bit_count() & 1
                a = a1 * a2 + 2 * b1 * b2
                b = a1 * b2 + b1 * a2
                if neg:
                    a, b = -a, -b
                m = ma ^ mb
                cur = out.get(m)
                if cur is None:
                    out[m] = (a, b)
                else:
                    out[m] = (cur[0] + a, cur[1] + b)
        return CliffordElem(self.signature, out, self._scale + other._scale)

    def mul_adjacent_vector(self, i: int) -> "CliffordElem":
        """self * (e_i - e_{i+1})/sqrt(2), the canonical generator vector.

        Specialization of __mul__ for the cocycle hot path: right-multiplying
        a monomial by a single e_t costs one popcount for the reorder sign.
        """
        neg_sign = self.signature.sign < 0
        bi = 1 << (i - 1)
        bj = bi << 1
        out: Dict[int, Tuple[int, int]] = {}
        get = out.get
        for m, (a, b) in self._terms.items():
            neg = (m >> i).bit_count() & 1
            if neg_sign and m & bi:
                neg ^= 1
            key = m ^ bi
            cur = get(key)
            if neg:
                out[key] = (-a, -b) if cur is None else (cur[0] - a, cur[1] - b)
            else:
                out[key] = (a, b) if cur is None else (cur[0] + a, cur[1] + b)
            # the -e_{i+1} half
            neg = ((m >> (i + 1)).bit_count() & 1) ^ 1
            if neg_sign and m & bj:
                neg ^= 1
            key = m ^ bj
            cur = get(key)
            if neg:
                out[key] = (-a, -b) if cur is None else (cur[0] - a, cur[1] - b)
            else:
                out[key] = (a, b) if cur is None else (cur[0] + a, cur[1] + b)
        out = {m: ab for m, ab in out.items() if ab != (0, 0)}
        scale = self._scale + 1
        while scale > 0 and out:
            if any(a & 1 for a, _ in out.values()):
                break
            out = {m: (b, a >> 1) for m, (a, b) in out.items()}
            scale -= 1
        if not out:
            scale = 0
        return CliffordElem(self.signature, out, scale, _normalized=True)

    def equals_neg(self, other: "CliffordElem") -> bool:
        """self == -other, without materializing the negation."""
        if self.signature != other.signature or self._scale != other._scale:
            return False
        mine, theirs = self._terms, other._terms
        if len(mine) != len(theirs):
            return False
        for m, (a, b) in mine.items():
            ab = theirs.get(m)
            if ab is None or ab[0] != -a or ab[1] != -b:
                return False
        return True

    def _check(self, other: "CliffordElem") -> None:
        if self.signature != other.signature:
            raise ValueError("signature mismatch")


def _rescaled(terms: Dict[int, Tuple[int, int]], j: int) -> Dict[int, Tuple[int, int]]:
    """Multiply integer pairs by sqrt(2)^j, j >= 0."""
    for _ in range(j):
        terms = {m: (2 * b, a) for m, (a, b) in terms.items()}
    return terms


# ---------------------------------------------------------------------------
# involutions, spinor norms and transposition lifts
# ---------------------------------------------------------------------------

def transpose(x: CliffordElem) -> CliffordElem:
    """Anti-automorphism reversing basis monomials.

    e_{i1}...e_{ik} reversed equals (-1)^(k(k-1)/2) times itself.
    """
    out = {}
    for m, ab in x._terms.items():
        k = m.bit_count()
        if (k * (k - 1) // 2) & 1:
            out[m] = (-ab[0], -ab[1])
        else:
            out[m] = ab
    return CliffordElem(x.signature, out, x._scale, _normalized=True)


def grade_involution(x: CliffordElem) -> CliffordElem:
    """Automorphism acting by (-1)^k on the degree-k component."""
    out = {}
    for m, ab in x._terms.items():
        if m.bit_count() & 1:
            out[m] = (-ab[0], -ab[1])
        else:
            out[m] = ab
    return CliffordElem(x.signature, out, x._scale, _normalized=True)


def spinor_norm(x: CliffordElem, variant: str) -> CliffordElem:
    """x * x^T for 'plus', x * gamma(x^T) for 'minus'."""
    if variant == "plus":
        return x * transpose(x)
    if variant == "minus":
        return x * grade_involution(transpose(x))
    raise ValueError(f"variant must be 'plus' or 'minus', got {variant!r}")


def lift_transposition(i: int, j: int, sig: CliffordSignature) -> CliffordElem:
    """(e_i - e_j)/sqrt(2), the fixed unit-vector lift of the transposition
    (i j).  The order convention i < j is part of the cocycle determinism."""
    if not (1 <= i < j <= sig.n):
        raise ValueError(f"need 1 <= i < j <= {sig.n}, got ({i}, {j})")
    return CliffordElem(sig, {1 << (i - 1): (1, 0), 1 << (j - 1): (-1, 0)}, 1)


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
    gens = []
    for k in range(1, n):
        if k == 1:
            gens.append(gammas[0])
            continue
        # a_k = -sqrt((k-1)/2k) = -sqrt(2k(k-1))/(2k), b_k = sqrt((k+1)/2k)
        a_k = SqrtNum.root(2 * k * (k - 1), Fraction(-1, 2 * k))
        b_k = SqrtNum.root(2 * k * (k + 1), Fraction(1, 2 * k))
        gens.append(smat_add(smat_scale(a_k, gammas[k - 2]),
                             smat_scale(b_k, gammas[k - 1])))
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
    return {blade: c for blade, c in out.items() if c.parts}


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
    C_0.  For m even C is central simple, and for m odd C_0 is (Lam,
    Introduction to Quadratic Forms over Fields, V.2); either way the
    nonzero module K^dim is faithful on C_0, since a kernel would be a
    proper two-sided ideal.  So a word equals +-1 in C exactly when its
    matrix equals +-I: each flag is the flag of the dense product, for any
    coefficients c_kj, not only the intended ones.

    The relation rho(z) = (g1 g3)^2 needs g3, so n >= 4; a smaller n raises
    ValueError.
    """
    from .covers import VerificationError  # covers imports this module

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
        support = [[c for c, v in enumerate(row) if v.parts] for row in g]
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
                if entry.parts:
                    trace = trace + vals[r] * entry
            if trace.parts:
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

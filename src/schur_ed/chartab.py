"""Character degrees and central signs of finite groups by Dixon's
finite-field method.

Everything is computed mod a prime p ≡ 1 (mod exp(G)) with p > 2*sqrt(|G|).
Degrees are recovered exactly: chi(1) <= sqrt(|G|) < p/2, and d -> d^2 mod
p is one to one on 1..(p-1)/2, so chi(1)^2 mod p determines chi(1).
Central signs chi(z)/chi(1) for a central involution z are +-1 mod p,
which determines them exactly since p is odd.
Full character values over C are never needed here.

One routine, _split_characters, splits either the whole class-function
space (dixon_character_table) or, for a central involution z, its z-odd
block alone (_spin_degrees), in one pass: it splits until every space is
a line, then reads every eigenline's degree off a table of squares.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

# the benchmark tracer times `center` under this module's name
from .covers import (FiniteGroupTable, VerificationError, center,
                     conjugacy_classes, np)
from .numth import SizeBoundExceeded, is_prime


def dixon_prime(order: int, exponent: int) -> int:
    """The least prime p = 1 mod exponent above 2 isqrt(order) + 1,
    testing only the candidates 1 + k exponent."""
    bound = 2 * math.isqrt(order) + 1
    p = bound + 1 + -bound % exponent
    while not is_prime(p):
        p += exponent
    return p


class CharTable(NamedTuple):
    """Conjugacy data plus mod-p irreducible character values.

    values[i][t] is chi_i(g_t) mod p; degrees are exact integers; signs[i]
    maps each central involution's class index to chi_i(z)/chi_i(1) = +-1.
    """

    group_order: int
    prime: int
    class_reps: List
    class_sizes: List[int]
    degrees: List[int]
    values: List[List[int]]
    central_involution_classes: List[int]
    signs: List[Dict[int, int]]

    @property
    def n_classes(self) -> int:
        return len(self.class_sizes)

    def to_json(self) -> dict:
        return {
            "order": self.group_order,
            "prime": self.prime,
            "classes": [
                {"representative": _elem_json(r), "size": s}
                for r, s in zip(self.class_reps, self.class_sizes)
            ],
            "degrees": self.degrees,
            "central_involution_classes": self.central_involution_classes,
            "central_signs": [
                [sg[c] for c in self.central_involution_classes]
                for sg in self.signs
            ],
        }


def _elem_json(e):
    if hasattr(e, "eps") and hasattr(e, "perm"):
        return {"eps": e.eps, "perm": list(e.perm)}
    return repr(e)


# ---------------------------------------------------------------------------
# GF(p) linear algebra (dense, numpy int64)
# ---------------------------------------------------------------------------

def _gf_rref(M: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """The reduced row echelon form mod p of M's row space and its pivot
    columns, one row at a time: the first nonzero entry of a row, after
    the rows before it are cleared from it, is its pivot, scaled to 1 and
    cleared from every other row.  Rows left all zero are dropped, and the
    rest sorted by pivot."""
    M = M % p
    found: List[Tuple[int, int]] = []  # (pivot column, row)
    for r in range(M.shape[0]):
        nz = np.flatnonzero(M[r])
        if not nz.size:
            continue
        c = int(nz[0])
        M[r] = M[r] * pow(int(M[r, c]), p - 2, p) % p
        others = np.flatnonzero(M[:, c])
        others = others[others != r]
        if others.size:
            M[others] = (M[others] - np.outer(M[others, c], M[r])) % p
        found.append((c, r))
    found.sort()
    return M[[r for _, r in found]], [c for c, _ in found]


def _check_products(k: int, p: int) -> None:
    """Refuse products mod p of length k that _mul cannot make exactly:
    every integer below 2^53 is exact in float64."""
    if k * (p - 1) ** 2 >= 1 << 53:
        raise SizeBoundExceeded(
            f"matrix products mod p = {p} over k = {k} classes reach "
            f"k (p - 1)^2 >= 2^53, past exact float64 arithmetic")


def _mul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p for int64 A, B with entries in [0, p), through a BLAS
    float64 product.  Every partial sum is an integer below
    k (p - 1)^2 < 2^53 (_check_products), so the product is exact in any
    order of addition; numpy's int64 matmul does not use BLAS."""
    return (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64) % p


def _inverses(p: int) -> np.ndarray:
    """x^(p-2) mod p for every x in GF(p): the inverses, and 0 at 0."""
    inv = np.ones(p, dtype=np.int64)
    base = np.arange(p, dtype=np.int64)
    e = p - 2
    while e:
        if e & 1:
            inv = inv * base % p
        base = base * base % p
        e >>= 1
    return inv


# ---------------------------------------------------------------------------
# Dixon's method
# ---------------------------------------------------------------------------

class _ClassData:
    """Classes of a group table, the inverse class and element order of
    every class, and the right columns that count class matrix entries:
    _right[i, y] is the class of y g_u, u = rows[i].

    With a central involution z, class t pairs with pair[t], the class of
    z g_t, and only the classes t < pair[t] keep a right column: these rows
    R, identity class first, index the z-odd class functions, which vanish
    on every class with zC = C.  A z is refused unless the classes of size
    1, the center, are {1, z}, and then unless z is an involution.  Without
    z, every class is a row and pair is None.

    The representatives' right columns come from one walk over their
    Schreier words (FiniteGroupTable.right_columns), and their inverses
    and orders from one power_cycles pass."""

    def __init__(self, table: FiniteGroupTable, z=None):
        self.classes = conjugacy_classes(table)
        self.n = len(self.classes)
        class_of = np.empty(table.order, dtype=np.int32)
        for t, cls in enumerate(self.classes):
            class_of[cls] = t
        self.reps = [cls[0] for cls in self.classes]
        self.sizes = [len(cls) for cls in self.classes]
        self.pair = None
        if z is None:
            self.rows = np.arange(self.n)
        else:
            # the classes of size 1 are the center
            _check_center_is_z([table.element(cls[0]) for cls in self.classes
                                if len(cls) == 1], table, z)
            # z is central, so z g is g z: one gather of z's right column,
            # which also shows whether z * z is the identity
            zi, e = table.idx(z), table.identity_idx
            [(_, z_col)] = table.right_columns([zi])
            if zi == e or z_col.item(zi) != e:
                raise VerificationError(
                    "z is not a central involution of the group")
            self.pair = class_of[z_col[self.reps]]
            self.rows = np.flatnonzero(self.pair > np.arange(self.n))
        invs, self.orders = table.power_cycles(self.reps)
        self.inv_class = class_of[invs].tolist()
        self._right = np.empty((len(self.rows), table.order), dtype=np.int32)
        for i, col in table.right_columns([self.reps[u] for u in self.rows]):
            class_of.take(col, out=self._right[i])

    def exponent(self) -> int:
        return math.lcm(*self.orders)

    def size_inverses(self, p: int) -> np.ndarray:
        return np.array([pow(s, p - 2, p) for s in self.sizes],
                        dtype=np.int64)

    def mixture(self, rng: random.Random, p: int,
                classes: Sequence[int]) -> np.ndarray:
        """A seeded random combination mod p of the class matrices B_r,
        r in classes, on the columns u in rows.  B_r[t, u] = #{x in C_r :
        x^-1 g_u in C_t}, and the common eigenvectors of all B_r are the
        rows of the character table up to normalization.  As x runs over
        C_r, x^-1 runs over the inverse class C_r*, so sum_r c_r B_r[t, u]
        sums c_r over the y in C_r* with y g_u in C_t: one bincount of
        _right[i] over all of G, u = rows[i], weighted by c_r on C_r*;
        _right[0] is the class of every y, as g_0 = 1.  Every sum stays
        below |G| (p - 1) < 2^53, so the float sums are exact.

        With z, B_r[t, zu] = B_r[zt, u], so a class matrix maps the z-odd
        central character vectors to vectors of the same kind, through
        N[t, u] = B_r[t, u] - B_r[pair[t], u] on the rows t, u in R.  B_r
        acts as 0 on them when zC_r = C_r, and as -B_s when C_r = zC_s, so
        mixing the classes of R is enough."""
        coef = np.zeros(self.n)
        for r in classes:
            coef[self.inv_class[r]] = rng.randrange(1, p)
        weights = coef[self._right[0]]
        M = np.array([np.bincount(labels, weights, self.n)
                      for labels in self._right]).T.astype(np.int64)
        if self.pair is not None:
            M = M[self.rows] - M[self.pair[self.rows]]
        return M % p

    def extend(self, lines: np.ndarray, p: int) -> np.ndarray:
        """Class functions on every class from their values on the rows:
        w(zC) = -w(C), and 0 where zC = C."""
        W = np.zeros((len(lines), self.n), dtype=np.int64)
        W[:, self.rows] = lines
        if self.pair is not None:
            W[:, self.pair[self.rows]] = -W[:, self.rows] % p
        return W


def _hessenberg(A: np.ndarray, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """(H, X) with H upper Hessenberg and A X = X H mod p, X invertible, by
    Gaussian similarity transforms: for each column j, clear the entries
    below the subdiagonal with row operations and undo them on the columns
    of H; X takes the same column operations, starting from I."""
    H = A % p
    k = H.shape[0]
    X = np.eye(k, dtype=np.int64)
    for j in range(k - 2):
        nz = np.flatnonzero(H[j + 1:, j])
        if not nz.size:
            continue
        i = j + 1 + int(nz[0])
        if i != j + 1:
            H[[i, j + 1]] = H[[j + 1, i]]
            H[:, [i, j + 1]] = H[:, [j + 1, i]]
            X[:, [i, j + 1]] = X[:, [j + 1, i]]
        u = H[j + 2:, j] * pow(int(H[j + 1, j]), p - 2, p) % p
        if not u.any():
            continue
        H[j + 2:] -= np.outer(u, H[j + 1])
        H[j + 2:] %= p
        H[:, j + 1] += H[:, j + 2:] @ u
        H[:, j + 1] %= p
        X[:, j + 1] += X[:, j + 2:] @ u
        X[:, j + 1] %= p
    return H, X


def _charpoly(H: np.ndarray, p: int) -> np.ndarray:
    """Coefficients of det(xI - H) mod p for an upper Hessenberg H,
    constant term first.

    With c_m the characteristic polynomial of the leading m x m block of H,
    expanding along the last column gives
    c_m = (x - h_{m-1,m-1}) c_{m-1}
          - sum_{j < m-1} h_{j,m-1} h_{j+1,j} ... h_{m-1,m-2} c_j."""
    k = H.shape[0]
    C = np.zeros((k + 1, k + 1), dtype=np.int64)  # row m holds c_m
    C[0, 0] = 1
    for m in range(1, k + 1):
        c = -H[m - 1, m - 1] * C[m - 1]
        c[1:] += C[m - 1, :-1]
        weights = np.zeros(m - 1, dtype=np.int64)
        prod = 1
        for j in range(m - 2, -1, -1):
            prod = prod * int(H[j + 1, j]) % p
            if not prod:
                break
            weights[j] = prod * int(H[j, m - 1]) % p
        if m > 1:
            c -= weights @ C[:m - 1]
        C[m] = c % p
    return C[k]


def _roots(coeffs: np.ndarray, p: int) -> List[int]:
    """The zeros in GF(p) of a polynomial given constant term first, in
    increasing order: Horner's rule on all of GF(p) at once."""
    xs = np.arange(p, dtype=np.int64)
    values = np.zeros(p, dtype=np.int64)
    for c in coeffs[::-1]:
        values = (values * xs + int(c)) % p
    return np.flatnonzero(values == 0).tolist()


def _block_solve(K: np.ndarray, lam: np.ndarray, C: np.ndarray,
                 last: np.ndarray, inv: np.ndarray, p: int):
    """Rows 1..m-1 of (K - lam_c) x_c = C_c for each column c, with the last
    coordinate x_c[m-1] = last[c], on an unreduced Hessenberg block K (no
    zero subdiagonal entry): row i gives x[i-1], bottom up.  Returns x and
    the residual of row 0, which is left over."""
    m = K.shape[0]
    x = np.zeros((m, lam.size), dtype=np.int64)
    x[-1] = last
    for i in range(m - 1, 0, -1):
        rest = (C[i] - K[i, i:] @ x[i:] + lam * x[i]) % p
        x[i - 1] = rest * inv[K[i, i - 1]] % p
    return x, (K[0] @ x - lam * x[0] - C[0]) % p


def _eigenvectors(H: np.ndarray, roots: List[int], p: int, inv: np.ndarray):
    """(V, owner): columns of V are eigenvectors of the upper Hessenberg H,
    column c for the eigenvalue roots[owner[c]], and they span every
    eigenspace of H for these roots.

    H is cut at its zero subdiagonal entries into unreduced diagonal blocks;
    each is nonderogatory, so a root of block t has a one-line eigenspace
    there.  The blocks are swept bottom up, all roots at once: a root of
    block t starts a column, the solution of (H_tt - lam) x = 0 with last
    coordinate 1, zero below t; every column started lower extends into
    block t by solving (H_tt - lam) x = -H_t,> v as a particular solution
    plus tau times that homogeneous one, with tau fixed by the top row.
    When lam is also a root of H_tt the top row must already hold; if it
    does not, H is not diagonalizable and VerificationError is raised.
    inv is `_inverses(p)`."""
    k = H.shape[0]
    lams = np.array(roots, dtype=np.int64)
    r = lams.size
    cuts = [0] + [i for i in range(1, k) if not H[i, i - 1]] + [k]
    V = np.zeros((k, 0), dtype=np.int64)
    owner = np.zeros(0, dtype=np.int64)
    for a, b in reversed(list(zip(cuts, cuts[1:]))):
        m = b - a
        C = np.zeros((m, r + owner.size), dtype=np.int64)
        C[:, r:] = -_mul(H[a:b, b:], V[b:], p) % p
        last = np.zeros(r + owner.size, dtype=np.int64)
        last[:r] = 1
        x, top = _block_solve(H[a:b, a:b], np.concatenate([lams, lams[owner]]),
                              C, last, inv, p)
        hom, hom_top = x[:, :r], top[:r]
        if np.any(top[r:] * (hom_top[owner] == 0)):
            raise VerificationError("class matrix is not diagonalizable mod p")
        tau = -top[r:] * inv[hom_top[owner]] % p
        V[a:b] = (x[:, r:] + tau * hom[:, owner]) % p
        own = np.flatnonzero(hom_top == 0)
        start = np.zeros((k, own.size), dtype=np.int64)
        start[a:b] = hom[:, own]
        V = np.hstack([V, start])
        owner = np.concatenate([owner, own])
    return V, owner


def _eigenspaces(R: np.ndarray, p: int, inv: np.ndarray) -> List[np.ndarray]:
    """The eigenspaces of R on GF(p)^k, one row basis per root in
    increasing order (Schneider's refinement of Dixon's eigenvalue
    search): the roots of the characteristic polynomial, and all the
    eigenvectors at once from the Hessenberg form H = X^-1 R X.  Raises
    VerificationError unless they span GF(p)^k.  inv is `_inverses(p)`."""
    H, X = _hessenberg(R, p)
    roots = _roots(_charpoly(H, p), p)
    V, owner = _eigenvectors(H, roots, p, inv)
    if owner.size != R.shape[0]:
        raise VerificationError("eigenspaces failed to exhaust a space")
    W = _mul(X, V, p)
    lam = np.array(roots, dtype=np.int64)[owner]
    if not np.array_equal(_mul(R, W, p), W * lam % p):
        raise VerificationError("eigenvectors failed R W = W diag(lambda)")
    return [W[:, owner == i].T for i in range(len(roots))]


def _split_spaces(spaces: List[np.ndarray], B: np.ndarray, p: int,
                  inv: np.ndarray) -> List[np.ndarray]:
    """Split each B-invariant row space S into the eigenspaces of B on it:
    those of the restriction R, B S^T = S^T R in the reduced basis S,
    mapped back into S."""
    out: List[np.ndarray] = []
    for S in spaces:
        if S.shape[0] == 1:
            out.append(S)
            continue
        S, pivots = _gf_rref(S, p)
        BST = _mul(B, S.T, p)
        R = BST[pivots]
        # invariance check: B S^T == S^T R
        if not np.array_equal(_mul(S.T, R, p), BST):
            raise VerificationError("class matrix did not preserve a subspace")
        out.extend(_mul(E, S, p) for E in _eigenspaces(R, p, inv))
    return out


# mixtures of all class matrices tried on the spaces left over by the first
_MAX_ROUNDS = 64


def _eigenlines(data: _ClassData, rng: random.Random, p: int,
                inv: np.ndarray) -> np.ndarray:
    """The common eigenlines of the class matrices on the rows of data, one
    row each.  A seeded mixture of the first few classes splits the whole
    space; fresh mixtures of all the classes split the spaces left over,
    for at most _MAX_ROUNDS rounds.  Only this separation can fail by
    chance: p = 1 mod exp(G) is prime to |G|, since an element of order p
    would put p in the exponent, so every mixture is diagonalizable mod p,
    and a round keeps two characters together only when its mixture takes
    the same value on both, with probability about 1/p.  The lines are
    unique, so they do not depend on the mixtures drawn.  inv is
    `_inverses(p)`."""
    k, classes = len(data.rows), data.rows[1:]
    if k == 1:
        return np.ones((1, 1), dtype=np.int64)
    spaces = _eigenspaces(data.mixture(rng, p, classes[:8]), p, inv)
    for _ in range(_MAX_ROUNDS):
        if len(spaces) == k:
            break
        spaces = _split_spaces(spaces, data.mixture(rng, p, classes), p, inv)
    if len(spaces) < k:
        raise VerificationError(f"common eigenspaces not 1-dimensional "
                                f"after {_MAX_ROUNDS} rounds")
    return np.vstack(spaces)


def _square_roots(order: int, p: int) -> Dict[int, int]:
    """{d^2 mod p: d} for every possible degree d = 1..isqrt(|G|), one to
    one since p > 2 sqrt(|G|)."""
    return {d * d % p: d for d in range(1, math.isqrt(order) + 1)}


def _split_characters(table: FiniteGroupTable, z):
    """(data, p, degrees, W, size_inv) for the irreducibles chi of the
    group, or with a central involution z those with chi(z) = -chi(1): one
    row of W per chi, its common eigenline extended to every class and
    scaled to 1 on the identity class, its degree, and the inverses mod p
    of the class sizes.  A scaled line w is the central character
    |C_u| chi(g_u) / chi(1), so sum_u w[u] w[u*] / |C_u| is |G| / chi(1)^2,
    and chi(1) is read off _square_roots; the squared degrees must add up
    to |G|, or |G|/2 with z.  Every check here fails only on a bug."""
    data = _ClassData(table, z)
    order = table.order
    p = dixon_prime(order, data.exponent())
    # every product sums at most n terms: the gram of _assemble sums over
    # the n characters, the split over at most n rows
    _check_products(data.n, p)
    rng = random.Random((0, order, data.n).__hash__())
    inv = _inverses(p)
    W = data.extend(_eigenlines(data, rng, p, inv), p)
    if not W[:, 0].all():
        raise VerificationError("eigenvector vanishes on the identity class")
    W = W * inv[W[:, 0]].reshape(-1, 1) % p
    size_inv = data.size_inverses(p)
    norms = (W * W[:, data.inv_class] % p) @ size_inv % p
    roots = _square_roots(order, p)
    try:
        degrees = [roots[order * x % p] for x in inv[norms].tolist()]
    except KeyError:
        raise VerificationError("degree recovery: a norm is not |G| / d^2 "
                                "for any d <= sqrt(|G|)") from None
    if (1 if z is None else 2) * sum(d * d for d in degrees) != order:
        raise VerificationError(
            "sum of squared degrees does not match the order")
    return data, p, degrees, W, size_inv


def dixon_character_table(table: FiniteGroupTable) -> CharTable:
    return _assemble(table, *_split_characters(table, None))


def _spin_degrees(table: FiniteGroupTable, z) -> List[int]:
    """The degrees, in increasing order, of the irreducibles chi with
    chi(z) = -chi(1), from the z-odd class functions alone."""
    return sorted(_split_characters(table, z)[2])


def _assemble(table: FiniteGroupTable, data: _ClassData, p: int,
              degrees: List[int], W: np.ndarray,
              size_inv: np.ndarray) -> CharTable:
    """The character table from the scaled central characters W: chi(g_u)
    is chi(1) W[u] / |C_u|, characters in (degree, values) order."""
    order, n = table.order, data.n
    deg = np.array(degrees, dtype=np.int64)
    X = W * size_inv % p * deg.reshape(-1, 1) % p
    # lexsort's last key is the first: degree, then the values in order
    rank = np.lexsort(np.column_stack([deg, X])[:, ::-1].T)
    X, W = X[rank], W[rank]

    # second orthogonality as a whole-table consistency check
    gram = _mul(X.T, X[:, data.inv_class], p)
    if not np.array_equal(gram, np.diag(order * size_inv % p)):
        raise VerificationError("column orthogonality failed mod p")

    central = [
        t for t in range(n)
        if data.sizes[t] == 1 and data.orders[t] == 2
    ]
    at_z = W[:, central]
    if not np.all((at_z == 1) | (at_z == p - 1)):
        raise VerificationError("central involution value is not +-1")
    signs = [dict(zip(central, row))
             for row in np.where(at_z == 1, 1, -1).tolist()]

    return CharTable(
        group_order=order,
        prime=p,
        class_reps=[table.element(r) for r in data.reps],
        class_sizes=list(data.sizes),
        degrees=deg[rank].tolist(),
        values=X.tolist(),
        central_involution_classes=central,
        signs=signs,
    )


# ---------------------------------------------------------------------------
# minimal faithful dimension extraction
# ---------------------------------------------------------------------------

def _check_center_is_z(central, table: FiniteGroupTable, z) -> None:
    if set(central) != {table.identity, z}:
        raise VerificationError(
            "center is not {1, z}: minimal faithful dimension theory "
            "requires a cyclic center of order 2")


def faithful_degrees(table: FiniteGroupTable, z,
                     chartable: Optional[CharTable] = None) -> List[int]:
    """Degrees of irreducibles rho with rho(z) = -1, i.e. the faithful ones
    when the center is exactly {1, z}: read off chartable when one is
    given, else split from the z-odd class functions alone; either way the
    classes of size 1 are the center."""
    if chartable is None:
        return _spin_degrees(table, z)
    _check_center_is_z([r for r, s in zip(chartable.class_reps,
                                          chartable.class_sizes) if s == 1],
                       table, z)
    if z == table.identity:
        raise VerificationError("z is not a central involution of the group")
    zc = chartable.class_reps.index(z)
    return [d for d, sg in zip(chartable.degrees, chartable.signs)
            if sg[zc] == -1]


def min_faithful_irrep_dim(table: FiniteGroupTable, z,
                           chartable: Optional[CharTable] = None) -> int:
    degs = faithful_degrees(table, z, chartable)
    if not degs:
        raise VerificationError("no irreducible sends z to -1")
    return min(degs)


def count_min_faithful(table: FiniteGroupTable, z,
                       chartable: Optional[CharTable] = None) -> int:
    degs = faithful_degrees(table, z, chartable)
    if not degs:
        raise VerificationError("no irreducible sends z to -1")
    m = min(degs)
    return sum(1 for d in degs if d == m)

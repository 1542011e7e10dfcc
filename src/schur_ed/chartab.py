"""Character degrees and central signs of finite groups by Dixon's
finite-field method.

Everything is computed mod a prime p ≡ 1 (mod exp(G)) with p > 2*sqrt(|G|).
Degrees are recovered exactly: chi(1) <= sqrt(|G|) < p/2, so the residue
below p/2 is the degree.  Central signs chi(z)/chi(1) for a central
involution z are +-1 mod p, which determines them exactly since p is odd.
Full character values over C are never needed here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .covers import (FiniteGroupTable, VerificationError, center,
                     conjugacy_classes, np)
from .numth import next_prime, sqrt_mod


@dataclass(frozen=True)
class DixonPrime:
    p: int
    exponent: int

    def __post_init__(self):
        if self.p % 2 == 0 or self.p % self.exponent != 1 % self.exponent:
            raise ValueError("need an odd prime p = 1 mod exponent")


def dixon_prime(order: int, exponent: int) -> DixonPrime:
    p = 2 * math.isqrt(order) + 1
    while True:
        p = next_prime(p)
        if p % exponent == 1 % exponent:
            return DixonPrime(p, exponent)


@dataclass
class CharTable:
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

    def central_sign(self, irrep: int, z_class: int) -> int:
        return self.signs[irrep][z_class]

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
    M = M % p
    rows, cols = M.shape
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(M[r:, c])
        if not nz.size:
            continue
        pivot = r + int(nz[0])
        if pivot != r:
            M[[r, pivot]] = M[[pivot, r]]
        M[r] = M[r] * pow(int(M[r, c]), p - 2, p) % p
        others = np.flatnonzero(M[:, c])
        others = others[others != r]
        if others.size:
            M[others] = (M[others] - np.outer(M[others, c], M[r])) % p
        pivots.append(c)
        r += 1
    return M[:r], pivots


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

# elements gathered per bincount of a class-matrix combination
_GATHER = 1 << 14


class _ClassData:
    """Classes of a group table and the right columns that count class
    matrix entries.

    With a central involution z, class t pairs with pair[t], the class of
    z g_t, and only the classes t < pair[t] keep a right column: these rows
    R, identity class first, index the z-odd class functions, which vanish
    on every class with zC = C.  Without z, every class is a row."""

    def __init__(self, table: FiniteGroupTable, z=None):
        self.table = table
        self.classes = conjugacy_classes(table)
        self.n = len(self.classes)
        class_of = np.empty(table.order, dtype=np.int64)
        for t, cls in enumerate(self.classes):
            class_of[cls] = t
        self.reps = [cls[0] for cls in self.classes]
        self.sizes = [len(cls) for cls in self.classes]
        self.inv_class = [
            int(class_of[table.inv_idx(rep)]) for rep in self.reps
        ]
        if z is None:
            self.rows = np.arange(self.n)
        else:
            # z is central, so z g is g z: one gather of z's right column
            self.pair = class_of[table.right_column(table.idx(z))[self.reps]]
            self.rows = np.flatnonzero(self.pair > np.arange(self.n))
        # _right[i, y] = n*i + (class of y * g_u) for u = rows[i], so that
        # one bincount over a set of elements y and a run of rows, shifted
        # to start at 0, counts the pairs (i, t)
        self._right = np.empty((len(self.rows), table.order), dtype=np.int32)
        for i, u in enumerate(self.rows.tolist()):
            self._right[i] = (class_of[table.right_column(self.reps[u])]
                              + self.n * i)

    def exponent(self) -> int:
        exp = 1
        for rep in self.reps:
            exp = math.lcm(exp, self.table.order_of_idx(rep))
        return exp

    def class_matrix(self, r: int) -> np.ndarray:
        """B_r with B_r[t, u] = #{x in C_r : x^-1 g_u in C_t}, on the
        columns u in rows; the common eigenvectors of all B_r are the rows
        of the character table up to normalization.  As x runs over C_r,
        x^-1 runs over the inverse class C_r*, so B_r[t, u] counts the y in
        C_r* with y g_u in C_t."""
        ys = self.classes[self.inv_class[r]]
        return self._count(ys, [1] * len(ys))

    def mixture(self, rng: random.Random, p: int,
                classes: Sequence[int]) -> np.ndarray:
        """A seeded random combination mod p of the class matrices B_r,
        r in classes, on the columns u in rows: sum_r c_r B_r[t, u] sums c_r
        over the y in C_r* with y g_u in C_t."""
        ys: List[int] = []
        weights: List[int] = []
        for r in classes:
            c = rng.randrange(1, p)
            ys.extend(self.classes[self.inv_class[r]])
            weights.extend([c] * self.sizes[self.inv_class[r]])
        return self._count(ys, weights) % p

    def _count(self, ys: List[int], weights: List[int]) -> np.ndarray:
        """M[t, i] = the sum of weights[j] over the j with ys[j] g_u in C_t,
        u = rows[i], one weighted bincount for a few rows at a time.  The
        weights are integers and every sum stays below |G| max(weights)
        < 2^53, so the float sums are exact."""
        n, k = self.n, len(self.rows)
        ys = np.array(ys)
        weights = np.array(weights, dtype=np.float64)
        counts = np.zeros(k * n)
        step = max(1, _GATHER // len(ys))
        for i in range(0, k, step):
            block = self._right[i:i + step, ys]
            block -= n * i
            part = np.bincount(block.ravel(), np.tile(weights, len(block)))
            counts[n * i:n * i + len(part)] += part
        return counts.astype(np.int64).reshape(k, n).T


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


def _eigenvectors(H: np.ndarray, roots: List[int], p: int):
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
    does not, H is not diagonalizable and VerificationError is raised."""
    k = H.shape[0]
    inv = _inverses(p)
    lams = np.array(roots, dtype=np.int64)
    r = lams.size
    cuts = [0] + [i for i in range(1, k) if not H[i, i - 1]] + [k]
    V = np.zeros((k, 0), dtype=np.int64)
    owner = np.zeros(0, dtype=np.int64)
    for a, b in reversed(list(zip(cuts, cuts[1:]))):
        m = b - a
        C = np.zeros((m, r + owner.size), dtype=np.int64)
        C[:, r:] = -H[a:b, b:] @ V[b:] % p
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


def _split_spaces(spaces: List[np.ndarray], B: np.ndarray, p: int) -> List[np.ndarray]:
    """Split each B-invariant space into the eigenspaces of B on it
    (Schneider's refinement of Dixon's eigenvalue search): the roots of the
    characteristic polynomial of the restriction R, and all its
    eigenvectors at once from the Hessenberg form H = X^-1 R X."""
    out: List[np.ndarray] = []
    for S in spaces:
        k = S.shape[0]
        if k == 1:
            out.append(S)
            continue
        S, pivots = _gf_rref(S, p)
        BST = B @ S.T % p
        R = BST[pivots, :] % p
        # invariance check: B S^T == S^T R
        if not np.array_equal(S.T @ R % p, BST):
            raise VerificationError("class matrix did not preserve a subspace")
        H, X = _hessenberg(R, p)
        roots = _roots(_charpoly(H, p), p)
        V, owner = _eigenvectors(H, roots, p)
        if owner.size != k:
            raise VerificationError("eigenspaces failed to exhaust a space")
        W = X @ V % p
        lam = np.array(roots, dtype=np.int64)[owner]
        if not np.array_equal(R @ W % p, W * lam % p):
            raise VerificationError("eigenvectors failed R W = W diag(lambda)")
        for i in range(len(roots)):
            out.append(W[:, owner == i].T @ S % p)
    return out


# fresh random mixtures tried before a splitting failure is reported
_MAX_RETRIES = 64
# mixtures of all class matrices tried on the spaces left over by the first
_MAX_ROUNDS = 16


def _eigenlines(mixture: Callable[[Sequence[int]], np.ndarray], k: int,
                classes: Sequence[int], p: int, finish: Callable):
    """finish(lines) for the common eigenlines of the mixtures, rows of a
    k x k identity split until every space is a line, retried with fresh
    mixtures while splitting or finish raises VerificationError.

    mixture(cs) is a seeded random combination of the class matrices of
    the classes cs, on a space of dimension k.  A mixture of the first few
    classes splits most of the space at once; mixtures of all of them split
    what is left, and separate two characters unless the mixture takes the
    same value on both, which happens with probability about 1/p.  The
    common eigenlines are unique, so the result does not depend on the
    mixtures drawn."""
    last_err: Optional[Exception] = None
    for attempt in range(_MAX_RETRIES):
        try:
            spaces = [np.eye(k, dtype=np.int64)]
            if k > 1:
                spaces = _split_spaces(spaces, mixture(classes[:8]), p)
                for _ in range(_MAX_ROUNDS):
                    if all(S.shape[0] == 1 for S in spaces):
                        break
                    spaces = _split_spaces(spaces, mixture(classes), p)
            if not all(S.shape[0] == 1 for S in spaces):
                raise VerificationError("common eigenspaces not 1-dimensional")
            return finish(spaces)
        except VerificationError as err:  # retry with a fresh mixture
            last_err = err
    raise VerificationError(f"Dixon splitting failed after {_MAX_RETRIES} tries: {last_err}")


def dixon_character_table(table: FiniteGroupTable, seed: int = 0) -> CharTable:
    data = _ClassData(table)
    n, order = data.n, table.order
    p = dixon_prime(order, data.exponent()).p
    rng = random.Random((seed, order, n).__hash__())
    return _eigenlines(lambda cs: data.mixture(rng, p, cs), n, range(1, n),
                       p, lambda spaces: _assemble(table, data, p, spaces))


def _spin_degrees(table: FiniteGroupTable, z) -> List[int]:
    """The degrees, in increasing order, of the irreducibles chi with
    chi(z) = -chi(1), from the z-odd class functions alone.

    Since B_r[t, zu] = B_r[zt, u], a class matrix maps the z-odd central
    character vectors w (w(zC) = -w(C), and w = 0 where zC = C) to vectors
    of the same kind, through N[t, u] = B_r[t, u] - B_r[pair[t], u] on the
    rows t, u in R.  B_r acts as 0 on them when zC_r = C_r, and as -B_s
    when C_r = zC_s, so only the classes of R are mixed.  Each eigenline is
    extended to every class, its degree read off the norm as in the whole
    table, and the squared degrees must add up to |G|/2."""
    if table.order_of_idx(table.idx(z)) != 2:
        raise VerificationError("z is not a central involution of the group")
    data = _ClassData(table, z)
    order, rows = table.order, data.rows
    partner = data.pair[rows]
    p = dixon_prime(order, data.exponent()).p
    rng = random.Random((0, order, data.n).__hash__())
    size_inv = [pow(s, p - 2, p) for s in data.sizes]

    def fold(cs):
        M = data.mixture(rng, p, cs)
        return (M[rows] - M[partner]) % p

    def degrees(spaces):
        w = np.zeros((len(spaces), data.n), dtype=np.int64)
        w[:, rows] = [S[0] for S in spaces]
        w[:, partner] = -w[:, rows] % p
        degs = sorted(_degree(line.tolist(), data, size_inv, order, p)[0]
                      for line in w)
        if 2 * sum(d * d for d in degs) != order:
            raise VerificationError(
                "sum of squared z-odd degrees does not match |G|/2")
        return degs

    return _eigenlines(fold, len(rows), rows[1:], p, degrees)


def _degree(w: List[int], data: _ClassData, size_inv: List[int], order: int,
            p: int) -> Tuple[int, List[int]]:
    """The degree of the irreducible chi whose central character
    |C_u| chi(g_u) / chi(1) is a multiple of the eigenline w, and w scaled
    to 1 at the identity class: the scaled w gives |G| / chi(1)^2 as
    sum_u w[u] w[u*] / |C_u|, and chi(1) <= sqrt(|G|) < p/2 is the smaller
    square root mod p."""
    if w[0] == 0:
        raise VerificationError("eigenvector vanishes on the identity class")
    scale = pow(w[0], p - 2, p)
    w = [v * scale % p for v in w]
    denom = sum(w[u] * w[data.inv_class[u]] * size_inv[u]
                for u in range(data.n)) % p
    if denom == 0:
        raise VerificationError("degenerate norm in degree recovery")
    try:
        root = sqrt_mod(order * pow(denom, p - 2, p), p)
    except ValueError as err:
        raise VerificationError(f"degree recovery: {err}") from None
    return min(root, p - root), w


def _assemble(table: FiniteGroupTable, data: _ClassData, p: int,
              spaces: List[np.ndarray]) -> CharTable:
    order = table.order
    n = data.n
    size_inv = [pow(s, p - 2, p) for s in data.sizes]
    irreps = []
    for S in spaces:
        degree, w = _degree(S[0].tolist(), data, size_inv, order, p)
        values = [degree * w[u] * size_inv[u] % p for u in range(n)]
        irreps.append((degree, values, w))
    irreps.sort(key=lambda iv: (iv[0], iv[1]))

    degrees = [d for d, _, _ in irreps]
    if sum(d * d for d in degrees) != order:
        raise VerificationError("sum of squared degrees does not match the order")
    values = [v for _, v, _ in irreps]

    # second orthogonality as a whole-table consistency check
    X = np.array(values, dtype=np.int64)
    gram = X.T @ X[:, data.inv_class] % p
    expected = np.zeros((n, n), dtype=np.int64)
    for t in range(n):
        expected[t, t] = order * size_inv[t] % p
    if not np.array_equal(gram % p, expected):
        raise VerificationError("column orthogonality failed mod p")

    central = [
        t for t in range(n)
        if data.sizes[t] == 1 and table.order_of_idx(data.reps[t]) == 2
    ]
    signs = []
    for _, _, w in irreps:
        sg: Dict[int, int] = {}
        for t in central:
            if w[t] == 1:
                sg[t] = 1
            elif w[t] == p - 1:
                sg[t] = -1
            else:
                raise VerificationError("central involution value is not +-1")
        signs.append(sg)

    return CharTable(
        group_order=order,
        prime=p,
        class_reps=[table.elements[r] for r in data.reps],
        class_sizes=list(data.sizes),
        degrees=degrees,
        values=values,
        central_involution_classes=central,
        signs=signs,
    )


# ---------------------------------------------------------------------------
# minimal faithful dimension extraction
# ---------------------------------------------------------------------------

def _z_class_index(table: FiniteGroupTable, ct: CharTable, z) -> int:
    z_idx = table.idx(z)
    zc = None
    for t in ct.central_involution_classes:
        if table.idx(ct.class_reps[t]) == z_idx:
            zc = t
    if zc is None:
        raise VerificationError("z is not a central involution of the group")
    return zc


def _check_center_is_z(table: FiniteGroupTable, z) -> None:
    if set(center(table)) != {table.identity, z}:
        raise VerificationError(
            "center is not {1, z}: minimal faithful dimension theory "
            "requires a cyclic center of order 2")


def faithful_degrees(table: FiniteGroupTable, z,
                     chartable: Optional[CharTable] = None) -> List[int]:
    """Degrees of irreducibles rho with rho(z) = -1, i.e. the faithful ones
    when the center is exactly {1, z}: read off chartable when one is
    given, else split from the z-odd class functions alone."""
    _check_center_is_z(table, z)
    if chartable is None:
        return _spin_degrees(table, z)
    zc = _z_class_index(table, chartable, z)
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

"""Block supermatrices over a Grassmann coefficient algebra.

A ``SuperMatrix`` of shape ``m|n`` is an ``(m+n) x (m+n)`` grid of algebra
elements in block form ``[[A, B], [C, D]]`` (A is m x m, D is n x n).  The
constructor enforces *evenness*: diagonal-block entries must be even, the
off-diagonal blocks odd — these are exactly the points of the general linear
functor.  A relaxed constructor exists for scratch work and negative tests.

Constant matrices (signature matrices, symplectic units, basis grids of the
underlying vector space) are kept as plain ``list[list[GaussianRational]]``
grids; fast mixed products with SuperMatrices avoid building full algebra
elements for every scalar.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, List, Optional, Sequence

from . import linalg
from .algebra import AlgebraSignature, SuperNumber, one, products_vanish, scalar, sums_of_products
from .scalars import GaussianRational, MINUS_ONE, ONE, ZERO


class EvennessError(ValueError):
    pass


class NotInvertibleMatrix(ValueError):
    pass


class SuperMatrix:
    __slots__ = ("m", "n", "sig", "rows")

    def __init__(self, m: int, n: int, sig: AlgebraSignature, rows, check: bool = True):
        size = m + n
        if len(rows) != size or any(len(r) != size for r in rows):
            raise ValueError(f"need a {size}x{size} grid for shape {m}|{n}")
        self.m = m
        self.n = n
        self.sig = sig
        self.rows = tuple(tuple(row) for row in rows)
        if check:
            self._check_evenness()

    def _check_evenness(self):
        m = self.m
        sig = self.sig
        for i, row in enumerate(self.rows):
            for j, entry in enumerate(row):
                if entry.sig is not sig and entry.sig != sig:
                    raise ValueError("entry from a different coefficient algebra")
                if entry.is_zero():         # zero is both even and odd
                    continue
                diagonal_block = (i < m) == (j < m)
                if diagonal_block:
                    if not entry.is_even():
                        raise EvennessError(f"diagonal-block entry ({i},{j}) must be even")
                elif not entry.is_odd():
                    raise EvennessError(f"off-diagonal entry ({i},{j}) must be odd")

    # -- basic structure ------------------------------------------------------

    @property
    def size(self) -> int:
        return self.m + self.n

    def blocks(self):
        """The four blocks (A, B, C, D) as plain nested lists."""
        m = self.m
        a = [list(r[:m]) for r in self.rows[:m]]
        b = [list(r[m:]) for r in self.rows[:m]]
        c = [list(r[:m]) for r in self.rows[m:]]
        d = [list(r[m:]) for r in self.rows[m:]]
        return a, b, c, d

    def is_even_matrix(self) -> bool:
        try:
            self._check_evenness()
            return True
        except (EvennessError, ValueError):
            return False

    def body_grid(self) -> List[List[GaussianRational]]:
        """The constant part of every entry, as a plain grid."""
        return [[e.body() for e in row] for row in self.rows]

    # -- arithmetic -------------------------------------------------------------

    def _like(self, rows, check: bool = False) -> "SuperMatrix":
        return SuperMatrix(self.m, self.n, self.sig, rows, check=check)

    def __add__(self, other: "SuperMatrix") -> "SuperMatrix":
        self._compat(other)
        return self._like([
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        ])

    def __sub__(self, other: "SuperMatrix") -> "SuperMatrix":
        self._compat(other)
        return self._like([
            [a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        ])

    def __neg__(self) -> "SuperMatrix":
        return self._like([[-a for a in row] for row in self.rows])

    def __mul__(self, other: "SuperMatrix") -> "SuperMatrix":
        self._compat(other)
        return self._like(linalg.mat_mul(self.rows, other.rows, SuperNumber.zero(self.sig)))

    def _compat(self, other: "SuperMatrix"):
        if not isinstance(other, SuperMatrix):
            raise TypeError("expected a SuperMatrix")
        if (self.m, self.n) != (other.m, other.n) or self.sig != other.sig:
            raise ValueError("shape or coefficient algebra mismatch")

    def scale(self, a: "SuperNumber | GaussianRational") -> "SuperMatrix":
        """Entrywise multiplication ``a e`` by an even central element or a
        ``GaussianRational`` ``a``, each cell one pair, all in one kernel
        call; a constant scales each entry with no kernel loop."""
        flat = sums_of_products(self.sig, [(((a, e),), ()) for row in self.rows for e in row])
        size = self.size
        return self._like([flat[i:i + size] for i in range(0, len(flat), size)])

    def map_entries(self, f: Callable[[SuperNumber], SuperNumber], sig: Optional[AlgebraSignature] = None) -> "SuperMatrix":
        target = sig if sig is not None else self.sig
        return SuperMatrix(self.m, self.n, target, [[f(e) for e in row] for row in self.rows], check=False)

    def conjugate_entries(self) -> "SuperMatrix":
        return self.map_entries(lambda e: e.conjugate())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return (self.m, self.n) == (other.m, other.n) and self.sig == other.sig and self.rows == other.rows

    def __hash__(self):
        return hash((self.m, self.n, self.sig, self.rows))

    def __repr__(self) -> str:
        from .literals import format_matrix
        return f"<{format_matrix(self.m, self.n, [list(r) for r in self.rows])}>"

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def zero_matrix(m: int, n: int, sig: AlgebraSignature) -> SuperMatrix:
    z = SuperNumber.zero(sig)
    size = m + n
    return SuperMatrix(m, n, sig, [[z] * size for _ in range(size)], check=False)


def identity_matrix(m: int, n: int, sig: AlgebraSignature) -> SuperMatrix:
    z = SuperNumber.zero(sig)
    u = one(sig)
    size = m + n
    return SuperMatrix(m, n, sig, [[u if i == j else z for j in range(size)] for i in range(size)], check=False)


def const_matrix(m: int, n: int, sig: AlgebraSignature, grid: Sequence[Sequence[GaussianRational]], check: bool = True) -> SuperMatrix:
    """Lift a constant grid to a SuperMatrix (entries must land in even slots)."""
    rows = [[scalar(sig, c) for c in row] for row in grid]
    return SuperMatrix(m, n, sig, rows, check=check)


# ---------------------------------------------------------------------------
# the structural operators
# ---------------------------------------------------------------------------

def supertranspose_grid(grid: Sequence[Sequence], m: int) -> list:
    """Block transpose ``[[A,B],[C,D]] -> [[A^t, -C^t],[B^t, D^t]]`` of a square
    grid over any ring, with A of size ``m``: only the C block changes sign."""
    size = len(grid)
    return [
        [grid[j][i] if j < m or i >= m else -grid[j][i] for j in range(size)]
        for i in range(size)
    ]


def supertranspose(x: SuperMatrix) -> SuperMatrix:
    """The supertranspose of a supermatrix (order four)."""
    return SuperMatrix(x.m, x.n, x.sig, supertranspose_grid(x.rows, x.m), check=False)


def parity_swap(x: SuperMatrix) -> SuperMatrix:
    """The involution ``[[A,B],[C,D]] -> [[D,C],[B,A]]`` (square shape only)."""
    if x.m != x.n:
        raise ValueError("parity swap needs equal block sizes")
    m = x.m
    a, b, c, d = x.blocks()
    rows = [d[i] + c[i] for i in range(m)] + [b[i] + a[i] for i in range(m)]
    return SuperMatrix(x.m, x.n, x.sig, rows, check=False)


def scale_offdiagonal(x: SuperMatrix, lam: SuperNumber) -> SuperMatrix:
    """B -> lam*B, C -> lam^-1*C.  Equals conjugation by diag(1_m, lam^-1 1_n)."""
    lam_inv = lam.inverse()
    m = x.m
    out = []
    for i, row in enumerate(x.rows):
        new_row = []
        for j, e in enumerate(row):
            if (i < m) == (j < m):
                new_row.append(e)
            elif i < m:
                new_row.append(lam * e)
            else:
                new_row.append(lam_inv * e)
        out.append(new_row)
    return SuperMatrix(x.m, x.n, x.sig, out, check=False)


def supertrace(x: SuperMatrix) -> SuperNumber:
    acc = SuperNumber.zero(x.sig)
    for i in range(x.m):
        acc = acc + x.rows[i][i]
    for i in range(x.m, x.size):
        acc = acc - x.rows[i][i]
    return acc


def const_mul(grid: Sequence[Sequence[GaussianRational]], x: SuperMatrix) -> SuperMatrix:
    """Product (constant grid) * (SuperMatrix), without lifting the grid."""
    return SuperMatrix(x.m, x.n, x.sig, linalg.mat_mul(grid, x.rows, SuperNumber.zero(x.sig)), check=False)


def mul_const(x: SuperMatrix, grid: Sequence[Sequence[GaussianRational]]) -> SuperMatrix:
    """Product (SuperMatrix) * (constant grid), without lifting the grid."""
    return SuperMatrix(x.m, x.n, x.sig, linalg.mat_mul(x.rows, grid, SuperNumber.zero(x.sig)), check=False)


def commutator(x: SuperMatrix, y: SuperMatrix) -> SuperMatrix:
    """``x y - y x``, each cell built once as the signed sum ``sum x_ik y_kj
    - sum y_ik x_kj`` (:func:`linalg.mat_mul` with minus pairs), with no
    intermediate product matrices."""
    x._compat(y)
    return x._like(linalg.mat_mul(x.rows, y.rows, SuperNumber.zero(x.sig), minus=(y.rows, x.rows)))


def linear_combination(a: SuperNumber, x: SuperMatrix, b: SuperNumber, y: SuperMatrix) -> SuperMatrix:
    """``a x + b y`` for even central elements ``a`` and ``b``, each cell one
    fused sum of products ``a x_ij + b y_ij``, all in one kernel call, with
    no scaled matrices."""
    x._compat(y)
    flat = sums_of_products(x.sig, [(((a, e), (b, f)), ()) for rx, ry in zip(x.rows, y.rows) for e, f in zip(rx, ry)])
    size = x.size
    return x._like([flat[i:i + size] for i in range(0, len(flat), size)])


# ---------------------------------------------------------------------------
# inversion, determinant of even blocks, Berezinian
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _body_inverse(body: tuple) -> tuple:
    """``(B^-1, -B^-1)`` for a constant body grid ``B``, given as rows of
    ``(re, im, den)`` in lowest terms (:meth:`SuperNumber.body_parts`), as
    tuples of rows: the constants :func:`_series_inverse` multiplies by
    elements.  Recent bodies are kept, because a structure's lift sends
    every kernel point ``Id + eps M`` to a matrix of the same body
    ``L(Id)``; so the constants of ``B`` are built only on a miss."""
    try:
        inv = linalg.invert([[GaussianRational(*parts, True) for parts in row] for row in body])
    except linalg.SingularMatrix:
        raise NotInvertibleMatrix("matrix body is singular")
    return tuple(map(tuple, inv)), tuple(tuple(-c for c in row) for row in inv)


def _series_inverse(rows: List[List[SuperNumber]], sig: AlgebraSignature) -> List[List[SuperNumber]]:
    """Invert a square grid of algebra elements whose body grid is invertible.

    Splits ``M = M0 (I + T)``, ``T = M0^-1 N``, with ``M0`` the constant body
    and ``N`` the nilpotent rest, and sums ``I - T + T^2 - ...`` from ``I - T``.
    The next power is zero term by term, and is not computed, once every key
    of the last power shares a generator with every key of ``T``
    (:func:`algebra.products_vanish`); a computed zero power also ends it.
    Only zero terms are dropped, so the sum is exact.  On a kernel point's
    lift ``c + eps N'`` every key of ``T`` holds ``eps``: the sum is
    ``I - T`` and the inverse ``c^-1 - eps c^-1 N' c^-1``.  A grid of
    constants (``N = 0``) has the inverse ``M0^-1`` and needs no product.
    """
    size = len(rows)
    body_inv, minus_body_inv = _body_inverse(tuple(tuple(e.body_parts() for e in row) for row in rows))
    zero = SuperNumber.zero(sig)

    soul = [[rows[i][j].soul() for j in range(size)] for i in range(size)]
    if all(e.is_zero() for row in soul for e in row):
        return [[scalar(sig, c) for c in row] for row in body_inv]
    minus_t = linalg.mat_mul(minus_body_inv, soul, zero)    # nilpotent
    keys = tuple({k for row in minus_t for e in row for k in e.keys()})
    acc = [[one(sig) + e if i == j else e for j, e in enumerate(row)] for i, row in enumerate(minus_t)]
    power = minus_t
    while not products_vanish({k for row in power for e in row for k in e.keys()}, keys):
        power = linalg.mat_mul(power, minus_t, zero)
        if all(e.is_zero() for row in power for e in row):
            break
        acc = [[a + p for a, p in zip(ra, rp)] for ra, rp in zip(acc, power)]
    return linalg.mat_mul(acc, body_inv, zero)


def inverse(x: SuperMatrix) -> SuperMatrix:
    """Exact inverse of an even supermatrix with invertible body blocks."""
    rows = _series_inverse([list(r) for r in x.rows], x.sig)
    return SuperMatrix(x.m, x.n, x.sig, rows, check=False)


def is_invertible(x: SuperMatrix) -> bool:
    body = x.body_grid()
    return not linalg.determinant(body).is_zero()


def det_even(rows: Sequence[Sequence[SuperNumber]], sig: AlgebraSignature) -> SuperNumber:
    """Determinant of a square grid of *even* (hence commuting) elements.

    Subset dynamic programming over column sets — no division, so it is sound
    over the full coefficient ring, nilpotents included.
    """
    size = len(rows)
    if size == 0:
        return one(sig)
    states = {0: one(sig)}
    for i in range(size):
        next_states = {}
        row = rows[i]
        for mask, value in states.items():
            if value.is_zero():
                continue
            position = 0
            for j in range(size):
                bit = 1 << j
                if mask & bit:
                    position += 1
                    continue
                e = row[j]
                if not e.is_zero():
                    # row i vs. earlier rows: one inversion per used column > j
                    term = value * e if ((i - position) & 1) == 0 else -(value * e)
                    key = mask | bit
                    cur = next_states.get(key)
                    next_states[key] = term if cur is None else cur + term
        states = next_states
    return states.get((1 << size) - 1, SuperNumber.zero(sig))


def berezinian(x: SuperMatrix) -> SuperNumber:
    """Ber [[P,Q],[R,S]] = det(P - Q S^-1 R) * det(S)^-1 (body of S invertible)."""
    p, q, r, s = x.blocks()
    sig = x.sig
    schur = p
    if x.n:
        zero = SuperNumber.zero(sig)
        q_s_inv_r = linalg.mat_mul(q, linalg.mat_mul(_series_inverse(s, sig), r, zero), zero)
        schur = [[a - b for a, b in zip(prow, qrow)] for prow, qrow in zip(p, q_s_inv_r)]
    det_top = det_even(schur, sig)
    det_bottom = det_even(s, sig) if x.n else one(sig)
    return det_top * det_bottom.inverse()


# ---------------------------------------------------------------------------
# constant structure grids
# ---------------------------------------------------------------------------

def signature_grid(n: int, positives: int) -> List[List[GaussianRational]]:
    """diag(1_p, -1_{n-p}) as a constant grid."""
    if not 0 <= positives <= n:
        raise ValueError("signature index out of range")
    return [
        [ (ONE if i == j and i < positives else (MINUS_ONE if i == j else ZERO))
          for j in range(n)]
        for i in range(n)
    ]


def symplectic_grid(size: int) -> List[List[GaussianRational]]:
    """The symplectic unit [[0, 1_h], [-1_h, 0]] of even size ``size = 2h``."""
    if size % 2:
        raise ValueError("symplectic unit needs an even size")
    h = size // 2
    grid = [[ZERO] * size for _ in range(size)]
    for k in range(h):
        grid[k][h + k] = ONE
        grid[h + k][k] = MINUS_ONE
    return grid


def block_diag_grid(*blocks: Sequence[Sequence[GaussianRational]]) -> List[List[GaussianRational]]:
    size = sum(len(b) for b in blocks)
    grid = [[ZERO] * size for _ in range(size)]
    offset = 0
    for b in blocks:
        k = len(b)
        for i in range(k):
            for j in range(k):
                grid[offset + i][offset + j] = b[i][j]
        offset += k
    return grid


def osp_form_grid(m: int, n: int) -> List[List[GaussianRational]]:
    """diag(1_m, J_n): the bilinear form preserved by the orthosymplectic family."""
    return block_diag_grid(linalg.identity(m), symplectic_grid(n))

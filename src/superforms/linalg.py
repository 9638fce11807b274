"""Exact linear algebra over Q(i).

Everything works on plain ``list[list[GaussianRational]]`` grids and returns
exact results.  :func:`mat_mul` is the package's one grid product: it takes
the ring's zero as an argument and hands each output cell's nonzero factor
pairs to that ring's fused sum of products (``sum_of_products`` on
``GaussianRational`` and on ``algebra.SuperNumber``), so no partial product
is built as an element of its own.  The supermatrix products are calls to it.
There is no pivoting heuristic beyond "first nonzero", which keeps every
computation deterministic.  Classic Gauss-Jordan costs cubic time
in the width, so wide systems should not reach it whole: the fixed-point maps
on ``g(A)`` have hundreds to thousands of real coordinates, but they split
into small independent blocks, and :func:`block_nullspace` eliminates block
by block.  Spans of sparse vectors are compared through their canonical bases
(:func:`span_basis`), which sparse elimination builds without any grid.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .scalars import GaussianRational, MINUS_ONE, ONE, ZERO

Grid = List[List[GaussianRational]]


class SingularMatrix(ValueError):
    pass


def zeros(rows: int, cols: int) -> Grid:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Grid:
    grid = zeros(n, n)
    for k in range(n):
        grid[k][k] = ONE
    return grid


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence], zero=ZERO) -> list:
    """The grid product ``a b`` over any ring: the one product kernel.

    ``zero`` is the ring's zero and supplies its sum of products,
    ``zero.sum_of_products(pairs)``; each output cell hands it the pairs
    ``(a[i][k], b[k][j])`` with both factors nonzero, and a cell with none
    is ``zero``.  So the same loop multiplies grids of Gaussian rationals,
    of algebra elements, and algebra elements by constants on either side.
    """
    cols = len(b[0])
    fused = zero.sum_of_products
    out = []
    for arow in a:
        cells: Dict[int, list] = {}
        for k, aik in enumerate(arow):
            if aik.is_zero():
                continue
            for j, bkj in enumerate(b[k]):
                if not bkj.is_zero():
                    cell = cells.get(j)
                    if cell is None:
                        cells[j] = [(aik, bkj)]
                    else:
                        cell.append((aik, bkj))
        orow = [zero] * cols
        for j, cell in cells.items():
            orow[j] = fused(cell)
        out.append(orow)
    return out


def rref(matrix: Sequence[Sequence[GaussianRational]]) -> Tuple[Grid, List[int]]:
    """Reduced row echelon form; returns ``(R, pivot_columns)``."""
    grid = [list(row) for row in matrix]
    rows = len(grid)
    cols = len(grid[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if not grid[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        grid[r], grid[pivot_row] = grid[pivot_row], grid[r]
        inv = grid[r][c].inverse()
        grid[r] = [x * inv for x in grid[r]]
        for i in range(rows):
            if i != r and not grid[i][c].is_zero():
                factor = grid[i][c]
                grid[i] = [a - factor * b for a, b in zip(grid[i], grid[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return grid, pivots


def nullspace(matrix: Sequence[Sequence[GaussianRational]]) -> List[List[GaussianRational]]:
    """Basis of the right nullspace (free variable set to 1, pivots solved)."""
    if not matrix:
        return []
    cols = len(matrix[0])
    reduced, pivots = rref(matrix)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        vec = [ZERO] * cols
        vec[free] = ONE
        for row_idx, pivot_col in enumerate(pivots):
            vec[pivot_col] = MINUS_ONE * reduced[row_idx][free]
        basis.append(vec)
    return basis


def block_nullspace(columns: Sequence[Dict[int, GaussianRational]]) -> List[Dict[int, GaussianRational]]:
    """Right nullspace of a sparse square matrix, one connected block at a time.

    ``columns[c]`` maps row indices to the nonzero entries of column ``c``.
    Indices joined by a nonzero entry are in one block, so the matrix is block
    diagonal up to a permutation; each block's nullspace comes from
    :func:`nullspace` on its own rows and columns, in increasing order, and is
    extended by zero.  Vectors are sparse ``{index: value}`` dicts.

    The result equals :func:`nullspace` of the dense matrix, vector for vector
    and in the same order.  A column is a pivot exactly when it is not in the
    span of the columns before it, and columns of other blocks cannot help to
    span it.  So the free columns are the same; the vector of free column
    ``f`` is the unique null vector that is 1 at ``f`` and 0 at every other
    free column; and, since the reduced form has no entry left of a pivot,
    ``f`` is its last nonzero index, which orders the vectors.
    """
    parent = list(range(len(columns)))

    def root(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for c, column in enumerate(columns):
        for r in column:
            a, b = root(r), root(c)
            if a != b:
                parent[max(a, b)] = min(a, b)
    blocks: Dict[int, List[int]] = {}
    for k in range(len(columns)):
        blocks.setdefault(root(k), []).append(k)

    vectors = []
    for members in blocks.values():
        if len(members) == 1:           # a 1x1 block: null exactly when its entry is 0
            k = members[0]
            if columns[k].get(k, ZERO).is_zero():
                vectors.append({k: ONE})
            continue
        if len(members) == 2:           # a 2x2 block [[a, b], [c, d]], never zero
            k0, k1 = members
            a, c = columns[k0].get(k0, ZERO), columns[k0].get(k1, ZERO)
            b, d = columns[k1].get(k0, ZERO), columns[k1].get(k1, ZERO)
            if (a * d - b * c).is_zero():
                if a.is_zero() and c.is_zero():     # column k0 is free, k1 a pivot
                    vectors.append({k0: ONE})
                else:                               # k0 a pivot, k1 free
                    ratio = b / a if not a.is_zero() else d / c
                    vectors.append({k1: ONE} if ratio.is_zero() else {k0: -ratio, k1: ONE})
            continue
        local = {k: pos for pos, k in enumerate(members)}
        sub = zeros(len(members), len(members))
        for pos, c in enumerate(members):
            for r, value in columns[c].items():
                sub[local[r]][pos] = value
        for vec in nullspace(sub):
            vectors.append({members[pos]: x for pos, x in enumerate(vec) if not x.is_zero()})
    vectors.sort(key=max)
    return vectors


def span_basis(vectors: Iterable[Dict[int, GaussianRational]]) -> List[Dict[int, GaussianRational]]:
    """Canonical basis of the span of sparse vectors ``{index: value}``.

    Each vector is reduced at its last nonzero index by the vector kept for
    that index, until it vanishes or ends at an index nothing is kept for; it
    is then kept, scaled to 1 there.  In increasing order, each kept vector is
    then cleared at the other kept indices below its own, by the vectors
    already cleared (they are 0 at every other kept index, so no cleared entry
    comes back).  The result, ordered by last nonzero index, is the canonical
    basis of :func:`superforms.realforms.fixed_vectors`: the kept indices are
    the last nonzero indices ``F`` of the span, and for each ``f`` in ``F`` the
    vector is the one in the span that is 1 at ``f``, 0 at the rest of ``F``
    and 0 after ``f``.  So the length is the dimension, two spans are equal
    exactly when their bases are equal lists, and a vector is in the span
    exactly when adding it does not lengthen the basis.
    """
    kept: Dict[int, Dict[int, GaussianRational]] = {}
    for vector in vectors:
        vec = {k: x for k, x in vector.items() if not x.is_zero()}
        while vec:
            last = max(vec)
            row = kept.get(last)
            if row is None:
                inv = vec[last].inverse()
                kept[last] = {k: x * inv for k, x in vec.items()}
                break
            _subtract(vec, vec[last], row)
    basis = []
    for f in sorted(kept):
        vec = kept[f]
        for g in [g for g in vec if g != f and g in kept]:
            _subtract(vec, vec[g], kept[g])
        basis.append(vec)
    return basis


def _subtract(vec: Dict[int, GaussianRational], factor: GaussianRational,
              row: Dict[int, GaussianRational]):
    """``vec -= factor * row`` in place, dropping the entries that vanish."""
    for k, x in row.items():
        y = vec.get(k, ZERO) - factor * x
        if y.is_zero():
            vec.pop(k, None)
        else:
            vec[k] = y


def invert(matrix: Sequence[Sequence[GaussianRational]]) -> Grid:
    """Inverse of a square grid over Q(i) (Gauss-Jordan)."""
    n = len(matrix)
    augmented = [list(matrix[i]) + list(identity(n)[i]) for i in range(n)]
    reduced, pivots = rref(augmented)
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return [row[n:] for row in reduced]


def determinant(matrix: Sequence[Sequence[GaussianRational]]) -> GaussianRational:
    """Exact determinant over Q(i) by elimination with row-swap sign tracking."""
    n = len(matrix)
    grid = [list(row) for row in matrix]
    sign = 1
    det = ONE
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if not grid[i][c].is_zero()), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != c:
            grid[c], grid[pivot_row] = grid[pivot_row], grid[c]
            sign = -sign
        pivot = grid[c][c]
        det = det * pivot
        inv = pivot.inverse()
        for i in range(c + 1, n):
            if grid[i][c].is_zero():
                continue
            factor = grid[i][c] * inv
            grid[i] = [a - factor * b for a, b in zip(grid[i], grid[c])]
    return det if sign > 0 else MINUS_ONE * det


def leading_principal_minors(matrix: Sequence[Sequence[GaussianRational]]) -> List[GaussianRational]:
    """Determinants of the leading k-by-k blocks, k = 1..n.

    One elimination without row swaps serves every size: it leaves each
    leading block's determinant unchanged, so minor k is the product of the
    first k pivots.  From the first zero pivot on, the remaining minors are
    computed one :func:`determinant` each.
    """
    n = len(matrix)
    grid = [list(row) for row in matrix]
    minors: List[GaussianRational] = []
    det = ONE
    for c in range(n):
        pivot = grid[c][c]
        if pivot.is_zero():
            return minors + [
                determinant([row[: k + 1] for row in matrix[: k + 1]]) for k in range(c, n)
            ]
        det = det * pivot
        minors.append(det)
        inv = pivot.inverse()
        for i in range(c + 1, n):
            if grid[i][c].is_zero():
                continue
            factor = grid[i][c] * inv
            grid[i] = [a - factor * b for a, b in zip(grid[i], grid[c])]
    return minors

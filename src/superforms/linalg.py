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
by block.  The span comparisons of representability still run dense rrefs as
wide as twice the complex dimension of ``g(A)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

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


def rank(matrix: Sequence[Sequence[GaussianRational]]) -> int:
    if not matrix:
        return 0
    return len(rref(matrix)[1])


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
        local = {k: pos for pos, k in enumerate(members)}
        sub = zeros(len(members), len(members))
        for pos, c in enumerate(members):
            for r, value in columns[c].items():
                sub[local[r]][pos] = value
        for vec in nullspace(sub):
            vectors.append({members[pos]: x for pos, x in enumerate(vec) if not x.is_zero()})
    vectors.sort(key=max)
    return vectors


def solve(matrix: Sequence[Sequence[GaussianRational]], rhs: Sequence[GaussianRational]) -> Optional[List[GaussianRational]]:
    """One solution of ``matrix @ x = rhs`` or ``None`` if inconsistent."""
    rows = len(matrix)
    if rows == 0:
        return [] if all(b.is_zero() for b in rhs) else None
    cols = len(matrix[0])
    augmented = [list(matrix[i]) + [rhs[i]] for i in range(rows)]
    reduced, pivots = rref(augmented)
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for row_idx, pivot_col in enumerate(pivots):
        x[pivot_col] = reduced[row_idx][cols]
    return x


def in_span(vectors: Sequence[Sequence[GaussianRational]], target: Sequence[GaussianRational]) -> bool:
    if all(t.is_zero() for t in target):
        return True
    if not vectors:
        return False
    columns = [[vec[i] for vec in vectors] for i in range(len(target))]
    return solve(columns, list(target)) is not None


def spans_equal(a: Sequence[Sequence[GaussianRational]], b: Sequence[Sequence[GaussianRational]]) -> bool:
    """Exact equality of the spans of two vector lists."""
    ra = rank(list(a)) if a else 0
    rb = rank(list(b)) if b else 0
    if ra != rb:
        return False
    combined = list(a) + list(b)
    return (rank(combined) if combined else 0) == ra


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
    """Determinants of the leading k-by-k blocks, k = 1..n."""
    return [
        determinant([row[: k + 1] for row in matrix[: k + 1]])
        for k in range(len(matrix))
    ]

"""Exact linear algebra over Q(i).

Everything works on plain ``list[list[GaussianRational]]`` grids or on sparse
vectors ``{index: value}`` and returns exact results.  There are two kernels.

* :func:`mat_mul` is the package's one grid product: it takes the ring's zero
  as an argument and hands each output cell's nonzero factor pairs to that
  ring's fused sum of products (``sum_of_products`` on ``GaussianRational``
  and on ``algebra.SuperNumber``), so no partial product is built as an
  element of its own.  Given a second pair of grids, it subtracts their
  product in the same pass: their factor pairs go to the kernel as minus
  pairs, so ``a b - c d``, the commutator say, is one signed sum per cell.
  The supermatrix products and commutators are calls to it.
* :func:`span_basis` is the package's one Gauss-Jordan elimination: it
  reduces sparse vectors to the canonical basis of their span.  Null spaces
  (:func:`nullspace`) and inverses (:func:`invert`) are read off the
  canonical basis of a matrix's graph, so the fixed-point maps on ``g(A)``,
  hundreds to thousands of real coordinates wide but made of small
  independent blocks, are eliminated without any grid and fill in only
  inside their blocks.

:func:`determinant` and :func:`leading_principal_minors` eliminate grids of
their own, because they need the product of the pivots, which the canonical
basis normalises away.  There is no pivoting heuristic beyond "first
nonzero", which keeps every computation deterministic.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from .scalars import GaussianRational, MINUS_ONE, ONE, ZERO

Grid = List[List[GaussianRational]]


class SingularMatrix(ValueError):
    pass


def identity(n: int) -> Grid:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence], zero=ZERO, minus: Optional[tuple] = None) -> list:
    """The grid product ``a b`` over any ring, or ``a b - c d`` for
    ``minus = (c, d)``: the one product kernel.

    ``zero`` is the ring's zero and supplies its sum of products,
    ``zero.sum_of_products(pairs, minus_pairs)``; each output cell hands it
    the pairs ``(a[i][k], b[k][j])`` and the minus pairs ``(c[i][k],
    d[k][j])`` with both factors nonzero, and a cell with none is ``zero``.
    So the same loop multiplies grids of Gaussian rationals, of algebra
    elements, and algebra elements by constants on either side, and a
    commutator builds each cell once, as one signed sum.
    """
    cols = len(b[0])
    fused = zero.sum_of_products
    products = ((a, b),) if minus is None else ((a, b), minus)
    out = []
    for i in range(len(a)):
        sides = []                          # per product: {j: pairs}
        for p, q in products:
            cells: Dict[int, list] = {}
            for k, pik in enumerate(p[i]):
                if pik.is_zero():
                    continue
                for j, qkj in enumerate(q[k]):
                    if not qkj.is_zero():
                        cell = cells.get(j)
                        if cell is None:
                            cells[j] = [(pik, qkj)]
                        else:
                            cell.append((pik, qkj))
            sides.append(cells)
        orow = [zero] * cols
        if minus is None:
            for j, cell in sides[0].items():
                orow[j] = fused(cell)
        else:
            plus, subtracted = sides
            for j in plus.keys() | subtracted.keys():
                orow[j] = fused(plus.get(j, ()), subtracted.get(j, ()))
        out.append(orow)
    return out


def span_basis(vectors: Iterable[Dict[int, GaussianRational]]) -> List[Dict[int, GaussianRational]]:
    """Canonical basis of the span of sparse vectors ``{index: value}``.

    Each vector is reduced at its last nonzero index by the vector kept for
    that index, until it vanishes or ends at an index nothing is kept for; it
    is then kept, scaled to 1 there (unless it is 1 already).  In increasing
    order, each kept vector is then cleared at the other kept indices below
    its own, by the vectors already cleared (they are 0 at every other kept
    index, so no cleared entry comes back).  The result, ordered by last nonzero index, is the canonical
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
                pivot = vec[last]
                if not pivot.is_one():
                    inv = pivot.inverse()
                    vec = {k: x * inv for k, x in vec.items()}
                kept[last] = vec
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


def _graph(columns: Sequence[Dict[int, GaussianRational]]) -> List[Dict[int, GaussianRational]]:
    """The graph of the matrix with sparse ``columns`` ``{row: value}``: for
    each column ``c``, the unit vector at ``c`` joined to the column shifted
    to the indices ``n + row``, with ``n = len(columns)``."""
    n = len(columns)
    graph = []
    for c, column in enumerate(columns):
        vec = {c: ONE}
        for r, x in column.items():
            vec[n + r] = x
        graph.append(vec)
    return graph


def nullspace(columns: Sequence[Dict[int, GaussianRational]]) -> List[Dict[int, GaussianRational]]:
    """Canonical basis of the right null space of the matrix with sparse
    ``columns`` ``{row: value}``, as sparse vectors in increasing order of
    their last nonzero index.

    The graph vectors ``(e_c, A e_c)`` span the pairs ``(x, A x)``.  A vector
    of their canonical basis (:func:`span_basis`) that ends at ``f < n`` is
    0 at every index from ``n`` on, so it is ``(x, 0)`` with ``A x = 0``;
    and every null vector ``x`` gives ``(x, 0)`` in the span, which ends
    below ``n``.  So the vectors ending below ``n`` lie in the null space
    and their last indices are all of its last nonzero indices; each is 1
    at its own, 0 at the others and 0 after its own, which is the one null
    vector with these properties.  They are the canonical null basis: the
    dense nullspace with its free columns set to 1, vector for vector.
    """
    n = len(columns)
    return [vec for vec in span_basis(_graph(columns)) if max(vec) < n]


def invert(matrix: Sequence[Sequence[GaussianRational]]) -> Grid:
    """Inverse of a square grid over Q(i), read off the canonical basis of
    its graph (see :func:`nullspace`).

    A basis vector ending below ``n`` is a null vector, and then the matrix
    is singular.  Otherwise all ``n`` vectors end at ``n + j`` for
    ``j < n``, and the one ending at ``n + j`` is ``(x, e_j)`` with
    ``A x = e_j``: its low part is column ``j`` of the inverse.
    """
    n = len(matrix)
    columns = [{r: matrix[r][c] for r in range(n) if not matrix[r][c].is_zero()} for c in range(n)]
    basis = span_basis(_graph(columns))
    if any(max(vec) < n for vec in basis):
        raise SingularMatrix("matrix is singular")
    return [[vec.get(i, ZERO) for vec in basis] for i in range(n)]


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

"""Exact linear algebra over Q(i).

Everything works on plain ``list[list[GaussianRational]]`` grids or on sparse
vectors ``{index: value}`` and returns exact results.  There are two kernels.

* :func:`mat_mul` is the package's one grid product: it takes the ring's zero
  as an argument, gathers every output cell's nonzero factor pairs, and
  hands them to that ring's batch of fused sums of products
  (``sums_of_products`` on ``GaussianRational`` and on
  ``algebra.SuperNumber``) in one call per grid, so no partial product is
  built as an element of its own.  Given a second pair of grids, it
  subtracts their product in the same pass: their factor pairs go to the
  kernel as minus pairs, so ``a b - c d``, the commutator say, is one
  signed sum per cell.  The supermatrix products and commutators, the
  products by constant grids, the inverse series and the Berezinian are
  calls to it.
* :func:`span_basis` is the package's one exact elimination: it reduces
  sparse vectors to the canonical basis of their span.  Null spaces
  (:func:`nullspace`) and inverses (:func:`invert`) are read off the
  canonical basis of a matrix's graph, so the fixed-point maps on ``g(A)``,
  hundreds to thousands of real coordinates wide but made of small
  independent blocks, are eliminated without any grid and fill in only
  inside their blocks.  Its forward phase, :func:`_reduce`, also returns
  each vector's pivot before scaling, and :func:`determinant` and
  :func:`leading_principal_minors` are products of those pivots.  Pivots
  sit at last nonzero indices, which keeps every computation deterministic.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .scalars import GaussianRational, ONE, ZERO

Grid = List[List[GaussianRational]]
Vector = Dict[int, GaussianRational]


class SingularMatrix(ValueError):
    pass


def identity(n: int) -> Grid:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence], zero=ZERO, minus: Optional[tuple] = None) -> list:
    """The grid product ``a b`` over any ring, or ``a b - c d`` for
    ``minus = (c, d)``: the one product kernel.

    ``zero`` is the ring's zero and supplies its batch kernel,
    ``zero.sums_of_products(cells)``, called once per grid with one cell
    ``(pairs, minus_pairs)`` per output cell that has a pair ``(a[i][k],
    b[k][j])`` or minus pair ``(c[i][k], d[k][j])`` of nonzero factors, in
    the order of ``k``; any other cell is ``zero``.  So one loop serves
    grids of Gaussian rationals, of algebra elements, and of both.
    """
    cols = len(b[0])
    sides = ((a, b),) if minus is None else ((a, b), minus)
    grid, batch = [], []                        # per output row {j: (pairs, minus pairs)}; all cells
    for i in range(len(a)):
        cells: Dict[int, tuple] = {}
        for side, (p, q) in enumerate(sides):
            for k, pik in enumerate(p[i]):
                if pik.is_zero():
                    continue
                for j, qkj in enumerate(q[k]):
                    if not qkj.is_zero():
                        cell = cells.get(j)
                        if cell is None:
                            cells[j] = cell = ([], [])
                        cell[side].append((pik, qkj))
        grid.append(cells)
        batch += cells.values()
    sums = iter(zero.sums_of_products(batch))
    out = []
    for cells in grid:
        orow = [zero] * cols
        for j in cells:
            orow[j] = next(sums)
        out.append(orow)
    return out


def _reduce(vectors: Iterable[Vector]) -> Iterator[Optional[Tuple[int, GaussianRational, Vector]]]:
    """The forward phase of :func:`span_basis`, one vector at a time: each
    vector is reduced at its last nonzero index by the vector kept for that
    index, until it vanishes or ends at an index nothing is kept for, and is
    then kept there, scaled to 1.  Yields, per vector, ``(index, its value
    there before scaling, the kept vector)`` or ``None``, before the next
    vector is drawn."""
    kept: Dict[int, Vector] = {}
    for vector in vectors:
        vec = {k: x for k, x in vector.items() if not x.is_zero()}
        found = None
        while vec:
            last = max(vec)
            row = kept.get(last)
            if row is None:
                pivot = vec[last]
                if not pivot.is_one():
                    inv = pivot.inverse()
                    vec = {k: x * inv for k, x in vec.items()}
                kept[last] = vec
                found = (last, pivot, vec)
                break
            _subtract(vec, vec[last], row)
        yield found


def span_basis(vectors: Iterable[Vector]) -> List[Vector]:
    """Canonical basis of the span of sparse vectors ``{index: value}``.

    After :func:`_reduce`, in increasing order, each kept vector is cleared
    at the other kept indices below its own by the vectors already cleared
    (they are 0 at every other kept index, so no cleared entry comes back).
    The result, ordered by last nonzero index, is the canonical basis of
    :func:`superforms.realforms.fixed_vectors`: the kept indices are the
    last nonzero indices ``F`` of the span, and for each ``f`` in ``F`` the
    vector is the one in the span that is 1 at ``f``, 0 at the rest of
    ``F`` and 0 after ``f``.  So the length is the dimension, two spans are
    equal exactly when their bases are equal lists, and a vector is in the
    span exactly when adding it does not lengthen the basis.
    """
    kept = {found[0]: found[2] for found in _reduce(vectors) if found}
    basis = []
    for f in sorted(kept):
        vec = kept[f]
        for g in [g for g in vec if g != f and g in kept]:
            _subtract(vec, vec[g], kept[g])
        basis.append(vec)
    return basis


def _subtract(vec: Vector, factor: GaussianRational, row: Vector):
    """``vec -= factor * row`` in place, dropping the entries that vanish."""
    for k, x in row.items():
        y = vec.get(k, ZERO) - factor * x
        if y.is_zero():
            vec.pop(k, None)
        else:
            vec[k] = y


def _graph(columns: Sequence[Vector]) -> List[Vector]:
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


def nullspace(columns: Sequence[Vector]) -> List[Vector]:
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
    """Exact determinant over Q(i), from the rows' reduction (:func:`_reduce`).

    Reducing a row by rows kept before it leaves the determinant unchanged,
    so a row that vanishes makes it 0, and the rows after it are not drawn.
    Otherwise row ``i`` ends at column ``p(i)``; put in the order of ``p``,
    the reduced rows are lower triangular, so the determinant is the pivots'
    product times sign(p).
    """
    det, columns = ONE, []
    for found in _reduce(dict(enumerate(row)) for row in matrix):
        if found is None:
            return ZERO
        det = det * found[1]
        columns.append(found[0])
    inversions = sum(a > b for a, b in combinations(columns, 2))
    return -det if inversions % 2 else det


def leading_principal_minors(matrix: Sequence[Sequence[GaussianRational]]) -> List[GaussianRational]:
    """Determinants of the leading k-by-k blocks, k = 1..n.

    The rows are reduced (:func:`_reduce`) with their columns numbered from
    the right, so row ``k`` is reduced at its first nonzero column: it is
    eliminated by rows ``0..k-1`` without row swaps, which leaves each
    leading block's determinant unchanged.  While row ``k`` keeps its pivot
    in column ``k``, minor ``k+1`` is the product of the first ``k+1``
    pivots; from the first row that does not, one :func:`determinant` each.
    """
    n = len(matrix)
    pivots = _reduce({n - 1 - c: x for c, x in enumerate(row)} for row in matrix)
    minors: List[GaussianRational] = []
    det = ONE
    for k, found in enumerate(pivots):
        if found is None or found[0] != n - 1 - k:
            return minors + [determinant([row[: j + 1] for row in matrix[: j + 1]]) for j in range(k, n)]
        det = det * found[1]
        minors.append(det)
    return minors

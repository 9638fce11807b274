"""Slow reference implementations kept as test oracles for the fast paths.

These are the dense, solve-based routines the package used before it read
coordinates off reading slots, took fixed points and inverses from sparse
canonical bases and compared spans through them:

* dense Gauss-Jordan ``rref`` and the grid ``nullspace`` built on it, against
  which ``linalg.nullspace`` and ``linalg.invert`` are checked;
* the osp basis as the dense null space of ``st(X) F + F X`` on unit grids,
  the form the package's conditions had before they became ``id - sigma``;
* the fixed points of a real-linear map as the nullspace of one dense
  ``M - I`` over all real coordinates;
* ``global_fixed_point_coords``: the fixed points of a structure over ``A``
  as one sparse null space on all real coordinates of ``g(A)``, from before
  ``realforms.fixed_point_coords`` solved one block per monomial orbit type;
* ``global_product_span``: the span of every product (real fixed
  coefficient) x (fixed vector) as one sparse elimination over all real
  coordinates of ``g(A)``, its coefficients one sparse null space over all
  keys of a parity (``global_real_fixed_elements``), from before
  ``realforms._product_span`` eliminated once per orbit type of ``conj``;
* ``decompose_in_basis`` / ``tensor_of`` by one linear solve per monomial;
* a compiled map applied to a whole constant grid, ``apply_constant``, and
  ``scan_decompose``, which reads every slot of a grid and compares whole
  grids; with them ``dense_vector_action`` and ``dense_rebuild_matches``,
  the vector action and the exact rebuild check as they were before they
  read sparse supports through a source index
  (``PositionalMap.apply_support``, ``liealg.decompose_cells``);
* ``matrix_of`` as the sum of one full ``tensor_term`` matrix per basis vector;
* the rebuild of an extracted vector map in tensor form, ``apply_to_tensor``,
  against which its positional map ``VectorConjugation.rebuild`` is checked;
* the dense span routines ``rank``, ``solve``, ``in_span`` and
  ``spans_equal`` (Gauss-Jordan on whole grids), against which
  ``linalg.span_basis`` is checked, with the dense real coordinates
  ``real_coordinates`` / ``layout_coords`` they take;
* ``loop_gram``: the Gram matrix of -Re tr(XY) on even fixed grids as a
  double loop over pairs of grids, one transposed cell lookup and one
  ``GaussianRational`` product and sum per shared cell, from before
  ``realforms.gram_matrix`` transposed each grid once and fused each entry;
* ``dense_representability``: the representability dichotomy on dense real
  coordinates of the fixed points and of every product (real fixed
  coefficient) x (fixed vector), decided by ``rank``, ``spans_equal`` and
  ``in_span``.
* ``dense_determinant`` and ``dense_leading_minors``: elimination on whole
  grids, the first with row swaps and the second without, from before
  ``linalg.determinant`` and ``linalg.leading_principal_minors`` read their
  pivots off the sparse reduction under ``linalg.span_basis``.

The tests require the package to agree with them exactly, vector for vector
and in the same order.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from superforms import linalg
from superforms.algebra import (
    EVEN, ODD, STANDARD, SuperNumber, basis_keys, conjugate_monomial, key_parity, one, theta, theta_bar,
    theta_selfreal,
)
from superforms.exprs import apply_expr
from superforms.liealg import (
    MembershipError, TensorElement, basis_of, combination_cells, matrix_of, require_member, tensor_of,
)
from superforms.matrices import SuperMatrix, osp_form_grid, supertranspose_grid, zero_matrix
from superforms.realforms import (
    CoordLayout, _vector_action, extract_vector_conjugation, fixed_point_data, fixed_vectors,
    matrix_literal, real_fixed_vectors, to_real,
)
from superforms.report import CheckOutcome, Tally
from superforms.scalars import GaussianRational, I, MINUS_ONE, ONE, ZERO


def rref(matrix) -> Tuple[List[List[GaussianRational]], List[int]]:
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


def nullspace(matrix) -> List[List[GaussianRational]]:
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


def osp_basis_grids(m: int, n: int) -> List[Tuple[int, List[List[GaussianRational]]]]:
    """``(parity, grid)`` for each vector of the osp(m|n) basis: per parity,
    the dense null space of ``X -> st(X) F + F X`` on that parity's slots
    (diagonal blocks row-major, then the upper-right and lower-left blocks),
    even vectors first."""
    size = m + n
    form = osp_form_grid(m, n)
    even = [(i, j) for i in range(size) for j in range(size) if (i < m) == (j < m)]
    odd = [(i, m + j) for i in range(m) for j in range(n)] + [(m + i, j) for i in range(n) for j in range(m)]
    out = []
    for parity, slots in ((EVEN, even), (ODD, odd)):
        columns = []
        for r, s in slots:
            unit = [[ONE if (a, b) == (r, s) else ZERO for b in range(size)] for a in range(size)]
            left = linalg.mat_mul(supertranspose_grid(unit, m), form)
            right = linalg.mat_mul(form, unit)
            columns.append([left[a][b] + right[a][b] for a in range(size) for b in range(size)])
        matrix = [[column[row] for column in columns] for row in range(size * size)]
        for vec in nullspace(matrix) if slots else []:
            grid = [[ZERO] * size for _ in range(size)]
            for (r, s), x in zip(slots, vec):
                grid[r][s] = x
            out.append((parity, grid))
    return out


def rank(matrix) -> int:
    if not matrix:
        return 0
    return len(rref(matrix)[1])


def solve(matrix, rhs) -> Optional[List[GaussianRational]]:
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


def in_span(vectors, target) -> bool:
    if all(t.is_zero() for t in target):
        return True
    if not vectors:
        return False
    columns = [[vec[i] for vec in vectors] for i in range(len(target))]
    return solve(columns, list(target)) is not None


def spans_equal(a, b) -> bool:
    """Exact equality of the spans of two vector lists."""
    ra = rank(list(a))
    if ra != rank(list(b)):
        return False
    return rank(list(a) + list(b)) == ra


def real_coordinates(coords: Dict[int, GaussianRational], count: int) -> List[GaussianRational]:
    """Dense real coordinates (real part at ``2p``, imaginary part at ``2p+1``)
    of a sparse complex coordinate dict on ``count`` complex coordinates."""
    vec = [ZERO] * (2 * count)
    for p, z in coords.items():
        vec[2 * p] = GaussianRational(z.re, 0, z.den)
        vec[2 * p + 1] = GaussianRational(z.im, 0, z.den)
    return vec


def layout_coords(layout: CoordLayout, t: TensorElement) -> List[GaussianRational]:
    """Dense real coordinates of a tensor element on a layout."""
    return real_coordinates(layout.complex_coords(t), layout.complex_dim)


def dense_fixed_vectors(matrix) -> List[List[GaussianRational]]:
    """Nullspace of the dense ``matrix - I``."""
    dim = len(matrix)
    delta = [
        [matrix[r][c] - (ONE if r == c else ZERO) for c in range(dim)]
        for r in range(dim)
    ]
    return nullspace(delta)


def dense_layout_fixed_vectors(layout: CoordLayout, func) -> List[List[GaussianRational]]:
    """Fixed points of a real-linear map on ``g(A)``: the dense matrix over
    the layout's real coordinates (columns = images of unit vectors), then
    its dense nullspace of ``M - I``."""
    dim = 2 * layout.complex_dim
    columns = []
    for i, key in layout.entries:
        for value in (ONE, I):
            unit = TensorElement(layout.kind, layout.sig, {i: SuperNumber(layout.sig, {key: value})}, check=False)
            columns.append(layout_coords(layout, func(unit)))
    matrix = [[columns[c][r] for c in range(dim)] for r in range(dim)]
    return dense_fixed_vectors(matrix)


def global_fixed_point_coords(desc, sig, own) -> Tuple[List[Dict[int, GaussianRational]], CoordLayout]:
    """``realforms.fixed_point_coords`` as one :func:`realforms.fixed_vectors`
    over every coordinate of the layout: the image of ``u t (x) v_i`` is
    ``u'`` times ``v_i``'s vector action entry, relabelled from ``t`` to
    ``conj^k(t) = c t'`` with the sign ``c``.  An entry of ``None`` raises
    MembershipError when its first coordinate is reached."""
    desc.require_conjugation(sig)
    kind = desc.kind
    layout = CoordLayout(kind, sig)
    conjugations, action = _vector_action(desc, own)
    relabel = {}

    def image(p: int, unit: GaussianRational) -> Dict[int, GaussianRational]:
        i, key = layout.entries[p]
        decomposition = action[i]
        if decomposition is None:
            raise MembershipError(f"not a point of {kind.display()}: image of basis vector {i} left the algebra")
        if (key, unit) not in relabel:
            image_key, sign = conjugate_monomial(sig, key, conjugations)
            scale = unit.conjugate() if conjugations & 1 else unit
            relabel[key, unit] = image_key, scale if sign > 0 else -scale
        image_key, scale = relabel[key, unit]
        return {layout.pos[(j, image_key)]: z * scale for j, z in decomposition}

    return fixed_vectors(layout.complex_dim, image), layout


def global_real_fixed_elements(sig, parity) -> List[SuperNumber]:
    """Real basis of the conjugation-fixed elements of one parity sector, as
    one :func:`realforms.fixed_vectors` over all of the parity's keys."""
    keys = basis_keys(sig, parity)
    pos = {key: idx for idx, key in enumerate(keys)}

    def image(p: int, unit: GaussianRational) -> Dict[int, GaussianRational]:
        return {pos[key]: z for key, z in SuperNumber(sig, {keys[p]: unit}).conjugate().items()}

    return [SuperNumber(sig, {keys[p]: z for p, z in vec.items()}) for vec in fixed_vectors(len(keys), image)]


def global_product_span(phi, sig, layout: CoordLayout) -> List[Dict[int, GaussianRational]]:
    """``realforms._product_span`` as one :func:`linalg.span_basis` over
    every product (real fixed coefficient) * (fixed vector), in sparse real
    coordinates on ``layout``, the coefficients from
    :func:`global_real_fixed_elements`."""
    products = []
    for parity in (EVEN, ODD):
        vectors = real_fixed_vectors(phi, parity)
        for r in global_real_fixed_elements(sig, parity):
            for u in vectors:
                products.append(to_real({
                    layout.pos[j, key]: z * c for j, c in u.items() for key, z in r.items()
                }))
    return linalg.span_basis(products)


def _join(re_part: GaussianRational, im_part: GaussianRational) -> GaussianRational:
    return GaussianRational(
        re_part.re * im_part.den, im_part.re * re_part.den, re_part.den * im_part.den,
    )


def dense_real_fixed_elements(sig, parity) -> List[SuperNumber]:
    keys = basis_keys(sig, parity)
    if not keys:
        return []
    pos = {key: idx for idx, key in enumerate(keys)}
    dim = 2 * len(keys)
    columns = []
    for key in keys:
        for value in (ONE, I):
            image = SuperNumber(sig, {key: value}).conjugate()
            vec = [ZERO] * dim
            for k2, z in image.items():
                p = pos[k2]
                vec[2 * p] = GaussianRational(z.re, 0, z.den)
                vec[2 * p + 1] = GaussianRational(z.im, 0, z.den)
            columns.append(vec)
    matrix = [[columns[c][r] for c in range(dim)] for r in range(dim)]
    out = []
    for vec in dense_fixed_vectors(matrix):
        terms = {key: _join(vec[2 * idx], vec[2 * idx + 1]) for idx, key in enumerate(keys)}
        out.append(SuperNumber(sig, terms))
    return out


def dense_real_fixed_vectors(phi, parity) -> List[Dict[int, GaussianRational]]:
    indices = [v.index for v in basis_of(phi.kind) if v.parity == parity]
    if not indices:
        return []
    pos = {i: idx for idx, i in enumerate(indices)}
    dim = 2 * len(indices)
    columns = []
    for i in indices:
        for value in (ONE, I):
            vec = [ZERO] * dim
            cc = value.conjugate()
            for j, p in phi.coords[i]:
                z = cc * p
                pj = pos[j]
                vec[2 * pj] = vec[2 * pj] + GaussianRational(z.re, 0, z.den)
                vec[2 * pj + 1] = vec[2 * pj + 1] + GaussianRational(z.im, 0, z.den)
            columns.append(vec)
    matrix = [[columns[c][r] for c in range(dim)] for r in range(dim)]
    out = []
    for vec in dense_fixed_vectors(matrix):
        coords = {}
        for idx, i in enumerate(indices):
            z = _join(vec[2 * idx], vec[2 * idx + 1])
            if not z.is_zero():
                coords[i] = z
        out.append(coords)
    return out


def solve_decompose(kind, grid, parity):
    """Coordinates of a constant grid over the basis vectors of one parity by
    one exact linear solve, or ``None`` outside their span."""
    flatten = lambda g: [g[i][j] for i in range(len(g)) for j in range(len(g))]
    basis = [v for v in basis_of(kind) if v.parity == parity]
    if not basis:
        return None if any(not c.is_zero() for c in flatten(grid)) else []
    columns = [flatten(v.grid) for v in basis]
    matrix = [[columns[c][r] for c in range(len(basis))] for r in range(len(columns[0]))]
    solution = solve(matrix, flatten(grid))
    if solution is None:
        return None
    return [(basis[c].index, coeff) for c, coeff in enumerate(solution) if not coeff.is_zero()]


def solve_tensor_of(kind, x) -> TensorElement:
    """Tensor form of a point, one solve per monomial of its entries."""
    require_member(kind, x)
    keys = sorted({k for row in x.rows for e in row for k, _ in e.items()})
    coeffs: Dict[int, SuperNumber] = {}
    for key in keys:
        grid = [[e.coefficient(key) for e in row] for row in x.rows]
        decomposition = solve_decompose(kind, grid, key_parity(key))
        if decomposition is None:
            raise MembershipError("matrix does not decompose over the basis")
        for index, coeff in decomposition:
            term = SuperNumber(x.sig, {key: coeff})
            cur = coeffs.get(index)
            coeffs[index] = term if cur is None else cur + term
    return TensorElement(kind, x.sig, coeffs)


def apply_constant(positional_map, grid) -> list:
    """A compiled positional map on a constant grid, cell by cell.
    Conjugation conjugates a constant, so the ``k`` conjugations are one when
    ``k`` is odd and none otherwise."""
    flip = positional_map.conjugations & 1
    out = []
    for cell_row in positional_map.cells:
        out_row = []
        for cell in cell_row:
            acc = ZERO
            for r, s, c in cell:
                x = grid[r][s]
                if not x.is_zero():
                    acc = acc + c * (x.conjugate() if flip else x)
            out_row.append(acc)
        out.append(out_row)
    return out


def scan_decompose(kind, grid, parity):
    """``decompose_in_basis`` by reading the slot of every basis vector of
    ``parity`` and comparing the rebuilt combination with every cell."""
    out = []
    for v in basis_of(kind):
        if v.parity == parity:
            i, j = v.slot
            if not grid[i][j].is_zero():
                out.append((v.index, grid[i][j]))
    nonzero = {(i, j): x for i, row in enumerate(grid) for j, x in enumerate(row) if not x.is_zero()}
    return out if nonzero == combination_cells(kind, out) else None


def dense_vector_action(desc):
    """``realforms._vector_action`` on whole grids: the compiled map applied
    to each basis vector's grid, decomposed by a scan."""
    own = desc.compiled
    return own.conjugations, [scan_decompose(desc.kind, apply_constant(own, v.grid), v.parity)
                              for v in basis_of(desc.kind)]


def dense_rebuild_matches(desc, phi, sig) -> CheckOutcome:
    """The exact branch of ``realforms.rebuild_matches`` on whole grids: the
    folded difference applied to each basis vector's grid, which must be
    zero, a failure lifted to ``t v`` as the witness."""
    difference = (desc.compiled - phi._rebuild_map).folded()
    tally = Tally("extraction-rebuild", False)
    units = {EVEN: one(sig)}
    if sig.odd_pairs or sig.odd_selfreal:
        units[ODD] = theta(sig, 0) if sig.odd_pairs else theta_selfreal(sig, 0)

    def witness(x):
        own, rebuilt = apply_expr(desc.compiled, x), phi.rebuild(x)
        return {"input": matrix_literal(x), "functorial": matrix_literal(own),
                "rebuilt": matrix_literal(rebuilt)}

    for v in basis_of(desc.kind):
        unit = units.get(v.parity)
        if unit is not None:
            image = apply_constant(difference, v.grid)
            tally.record(all(c.is_zero() for row in image for c in row),
                         lambda: witness(matrix_of(TensorElement(desc.kind, sig, {v.index: unit}))))
    outcome = tally.outcome()
    certified = f"certified on a basis of {outcome.samples}"
    return outcome._replace(note=f"{outcome.note}, {certified}" if outcome.note else certified)


def tensor_term(coefficient: SuperNumber, grid, m: int, n: int) -> SuperMatrix:
    """The matrix ``coefficient * grid`` (a single "a tensor v" term)."""
    return SuperMatrix(m, n, coefficient.sig, [[coefficient.scaled(c) for c in row] for row in grid],
                       check=False)


def apply_to_tensor(phi, t: TensorElement) -> TensorElement:
    """The rebuild of ``phi`` in tensor form: ``c (x) v_i`` goes to
    ``conj(c) (x) sum_j p_ij v_j`` for ``phi.coords[i] = [(j, p_ij), ...]``."""
    out: Dict[int, SuperNumber] = {}
    for i, c in t.coeffs.items():
        cc = c.conjugate()
        for j, p in phi.coords[i]:
            term = cc.scaled(p)
            out[j] = out[j] + term if j in out else term
    return TensorElement(phi.kind, t.sig, out, check=False)


def summed_matrix_of(t: TensorElement):
    """The matrix of a tensor element as a sum of full single-term matrices."""
    basis = basis_of(t.kind)
    acc = zero_matrix(t.kind.m, t.kind.n, t.sig)
    for i, c in t.coeffs.items():
        acc = acc + tensor_term(c, basis[i].grid_rows(), t.kind.m, t.kind.n)
    return acc


def dense_representability(desc, sig) -> Dict:
    """The representability dichotomy on dense real coordinates: the rank of
    the product span, span equality for standard structures, and for graded
    ones the witness ``t1 (x) v + t1~ (x) phi(v)`` tested with ``in_span``."""
    phi = extract_vector_conjugation(desc)
    points, layout, expected = fixed_point_data(desc, sig)
    fixed_coords = [layout_coords(layout, tensor_of(desc.kind, pt)) for pt in points]
    product_coords = []
    for parity in (EVEN, ODD):
        vectors = real_fixed_vectors(phi, parity)
        for r in dense_real_fixed_elements(sig, parity):
            for u in vectors:
                tensor = TensorElement(desc.kind, sig, {j: r.scaled(c) for j, c in u.items()}, check=False)
                product_coords.append(layout_coords(layout, tensor))
    result: Dict = {
        "descriptor": desc.display(),
        "conjugation": desc.conjugation,
        "fixed_dimension": len(points),
        "expected_fixed_dimension": expected,
        "product_span_rank": rank(product_coords),
    }
    if desc.conjugation == STANDARD:
        result["mode"] = "span-comparison"
        result["representable"] = spans_equal(fixed_coords, product_coords)
        return result
    if sig.odd_pairs < 1:
        raise ValueError("a graded witness needs a coefficient algebra with an odd pair")
    odd_vectors = [v for v in basis_of(desc.kind) if v.parity == ODD]
    if not odd_vectors:
        raise ValueError("the defining space has no odd vectors")
    v = odd_vectors[0]
    coeffs: Dict[int, SuperNumber] = {v.index: theta(sig, 0)}
    for j, c in phi.coords[v.index]:
        term = theta_bar(sig, 0).scaled(c)
        coeffs[j] = coeffs[j] + term if j in coeffs else term
    witness = TensorElement(desc.kind, sig, coeffs, check=False)
    w_matrix = matrix_of(witness)
    fixed_ok = apply_expr(desc.compiled, w_matrix) == w_matrix
    inside = in_span(product_coords, layout_coords(layout, witness))
    result["mode"] = "witness"
    result["witness"] = matrix_literal(w_matrix)
    result["witness_fixed"] = fixed_ok
    result["witness_in_product_span"] = inside
    result["representable"] = not (fixed_ok and not inside)
    return result


def loop_gram(cells) -> List[List[GaussianRational]]:
    """``realforms.gram_matrix`` as a double loop: for each pair of grids,
    each cell ``(a, b)`` of the first looks up ``(b, a)`` in the second and
    adds the product to a running ``GaussianRational`` trace."""
    dim = len(cells)
    gram = [[ZERO] * dim for _ in range(dim)]
    for r in range(dim):
        for s in range(r, dim):
            other = cells[s]
            trace = ZERO
            for (a, b), x in cells[r].items():
                y = other.get((b, a))
                if y is not None:
                    trace = trace + x * y
            gram[r][s] = gram[s][r] = GaussianRational(-trace.re, 0, trace.den)
    return gram


def dense_determinant(matrix: Sequence[Sequence[GaussianRational]]) -> GaussianRational:
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


def dense_leading_minors(matrix: Sequence[Sequence[GaussianRational]]) -> List[GaussianRational]:
    """Determinants of the leading k-by-k blocks, k = 1..n.

    One elimination without row swaps serves every size: it leaves each
    leading block's determinant unchanged, so minor k is the product of the
    first k pivots.  From the first zero pivot on, the remaining minors are
    computed one :func:`dense_determinant` each.
    """
    n = len(matrix)
    grid = [list(row) for row in matrix]
    minors: List[GaussianRational] = []
    det = ONE
    for c in range(n):
        pivot = grid[c][c]
        if pivot.is_zero():
            return minors + [
                dense_determinant([row[: k + 1] for row in matrix[: k + 1]]) for k in range(c, n)
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

"""Slow reference implementations kept as test oracles for the fast paths.

These are the dense, solve-based routines the package used before it read
coordinates off reading slots and took fixed points block by block:

* the fixed points of a real-linear map as the nullspace of one dense
  ``M - I`` over all real coordinates;
* ``decompose_in_basis`` / ``tensor_of`` by one linear solve per monomial;
* ``matrix_of`` as the sum of one full ``tensor_term`` matrix per basis vector.

The tests require the package to agree with them exactly, vector for vector
and in the same order.
"""

from typing import Dict, List

from superforms import linalg
from superforms.algebra import SuperNumber, basis_keys, key_parity
from superforms.liealg import MembershipError, TensorElement, basis_of, require_member
from superforms.matrices import tensor_term, zero_matrix
from superforms.realforms import CoordLayout
from superforms.scalars import GaussianRational, I, ONE, ZERO


def dense_fixed_vectors(matrix) -> List[List[GaussianRational]]:
    """Nullspace of the dense ``matrix - I``."""
    dim = len(matrix)
    delta = [
        [matrix[r][c] - (ONE if r == c else ZERO) for c in range(dim)]
        for r in range(dim)
    ]
    return linalg.nullspace(delta)


def dense_layout_fixed_vectors(layout: CoordLayout, func) -> List[List[GaussianRational]]:
    """Fixed points of a real-linear map on ``g(A)``: the dense matrix over
    the layout's real coordinates (columns = images of unit vectors), then
    its dense nullspace of ``M - I``."""
    dim = layout.real_dim
    columns = []
    for i, key in layout.entries:
        for value in (ONE, I):
            unit = TensorElement(layout.kind, layout.sig, {i: SuperNumber(layout.sig, {key: value})}, check=False)
            columns.append(layout.coords_of(func(unit)))
    matrix = [[columns[c][r] for c in range(dim)] for r in range(dim)]
    return dense_fixed_vectors(matrix)


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
        out.append(SuperNumber.from_terms(sig, terms))
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
    solution = linalg.solve(matrix, flatten(grid))
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


def summed_matrix_of(t: TensorElement):
    """The matrix of a tensor element as a sum of full single-term matrices."""
    basis = basis_of(t.kind)
    acc = zero_matrix(t.kind.m, t.kind.n, t.sig)
    for i, c in t.coeffs.items():
        acc = acc + tensor_term(c, basis[i].grid_rows(), t.kind.m, t.kind.n)
    return acc

"""Matrix Lie superalgebras as functors of points.

For a matrix family ``g`` (gl, sl, or osp) and a coefficient algebra ``A``,
the A-points ``g(A)`` are the *even* supermatrices satisfying the family's
linear conditions:

* ``gl(m|n)``: evenness only;
* ``sl(m|n)``: supertrace zero;
* ``osp(m|n)`` (n even): ``st(X) F + F X = 0`` with ``F = diag(1_m, J_n)``.

The bracket of points is the plain matrix commutator.  The underlying complex
vector space V has a distinguished homogeneous basis (computed once per family
by exact nullspace, even vectors first), and elements of ``g(A)`` can be moved
between their matrix form and their "sum of coefficient-tensor-basis-vector"
form without solving anything: every basis vector has a reading slot, a cell
where it alone is nonzero, with value 1, so coordinates are read off those
cells, and matrices are assembled from the vectors' sparse supports.  The
sign rules of that tensor form live in :func:`even_rules_bracket`, which the
tests check against the matrix commutator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from . import linalg
from .algebra import AlgebraSignature, EVEN, ODD, SuperNumber
from .exprs import PositionalMap
from .matrices import SuperMatrix, osp_form_grid, supertranspose_grid, supertrace
from .scalars import GaussianRational, MINUS_ONE, ONE, ZERO

GL, SL, OSP = "gl", "sl", "osp"


class MembershipError(ValueError):
    """Raised when a matrix does not belong to the claimed Lie superalgebra."""


@dataclass(frozen=True)
class MatrixKind:
    """A matrix Lie superalgebra family instance: (family, block sizes m, n)."""

    family: str
    m: int
    n: int

    def __post_init__(self):
        if self.family not in (GL, SL, OSP):
            raise ValueError(f"unknown family {self.family!r}")
        if self.m < 0 or self.n < 0 or self.m + self.n == 0:
            raise ValueError("block sizes must be non-negative and not both zero")
        if self.family == OSP and self.n % 2:
            raise ValueError("the odd block of an orthosymplectic family must have even size")

    @property
    def size(self) -> int:
        return self.m + self.n

    def display(self) -> str:
        return f"{self.family}({self.m}|{self.n})"

    @cached_property
    def _osp_defect_map(self) -> PositionalMap:
        """The map ``X -> st(X) F + F X`` as a positional map, built once per
        kind from the unit grids."""
        size = self.size
        cells = [[[] for _ in range(size)] for _ in range(size)]
        for r in range(size):
            for s in range(size):
                total = _osp_defect_of_unit(self.m, self.n, r, s)
                for a in range(size):
                    for b in range(size):
                        if not total[a][b].is_zero():
                            cells[a][b].append((r, s, total[a][b]))
        return PositionalMap(tuple(tuple(tuple(cell) for cell in row) for row in cells), 0)


Cell = Tuple[int, int]


@dataclass(frozen=True)
class BasisVector:
    """A basis vector of the underlying space, with its sparse form.

    ``support`` lists the nonzero cells of ``grid`` with their values, row by
    row; ``slot`` is a cell of the support where this vector is 1 and every
    other basis vector is 0, so a combination of basis vectors has this
    vector's coefficient in that cell.
    """

    index: int
    parity: int  # EVEN or ODD
    grid: Tuple[Tuple[GaussianRational, ...], ...]
    support: Tuple[Tuple[Cell, GaussianRational], ...]
    slot: Cell

    def grid_rows(self) -> List[List[GaussianRational]]:
        return [list(r) for r in self.grid]


# ---------------------------------------------------------------------------
# homogeneous basis of the underlying space
# ---------------------------------------------------------------------------

def _even_slots(m: int, n: int) -> List[Tuple[int, int]]:
    """Diagonal-block positions, upper block row-major then lower block."""
    slots = [(i, j) for i in range(m) for j in range(m)]
    slots += [(m + i, m + j) for i in range(n) for j in range(n)]
    return slots


def _odd_slots(m: int, n: int) -> List[Tuple[int, int]]:
    """Off-diagonal positions, upper-right block row-major then lower-left."""
    slots = [(i, m + j) for i in range(m) for j in range(n)]
    slots += [(m + i, j) for i in range(n) for j in range(m)]
    return slots


def _grid_from_coords(slots, coords, size) -> Tuple[Tuple[GaussianRational, ...], ...]:
    grid = [[ZERO] * size for _ in range(size)]
    for (i, j), c in zip(slots, coords):
        grid[i][j] = c
    return tuple(tuple(row) for row in grid)


def _osp_defect_of_unit(m: int, n: int, i: int, j: int) -> List[List[GaussianRational]]:
    """``st(U) F + F U`` for the unit grid ``U`` at ``(i, j)``."""
    size = m + n
    form = osp_form_grid(m, n)
    unit = [[ZERO] * size for _ in range(size)]
    unit[i][j] = ONE
    left = linalg.mat_mul(supertranspose_grid(unit, m), form)
    right = linalg.mat_mul(form, unit)
    return [[left[a][b] + right[a][b] for b in range(size)] for a in range(size)]


def _constraint_rows(kind: MatrixKind, slots, parity) -> List[List[GaussianRational]]:
    """Linear conditions on the coordinates in ``slots`` for membership."""
    m, n, size = kind.m, kind.n, kind.size
    count = len(slots)
    if kind.family == GL:
        return [[ZERO] * count]
    if kind.family == SL:
        if parity == ODD:
            return [[ZERO] * count]
        row = []
        for (i, j) in slots:
            if i != j:
                row.append(ZERO)
            else:
                row.append(ONE if i < m else MINUS_ONE)
        return [row]
    # osp: st(U) F + F U = 0 entrywise, one column per unit grid
    columns = []
    for (i, j) in slots:
        total = _osp_defect_of_unit(m, n, i, j)
        columns.append([total[a][b] for a in range(size) for b in range(size)])
    return [[columns[c][r] for c in range(count)] for r in range(size * size)]


_BASIS_CACHE: Dict[MatrixKind, List[BasisVector]] = {}


def basis_of(kind: MatrixKind) -> List[BasisVector]:
    """Homogeneous basis of the underlying space, even vectors first.

    The coordinate order (diagonal blocks row-major, then upper-right block,
    then lower-left block) together with the nullspace's free-variable
    convention makes the basis canonical and reproducible.  The same
    convention gives every vector its reading slot: the cell of its free
    coordinate, which is 1 there and 0 in every other vector of its parity
    (vectors of the other parity live in other blocks).
    """
    cached = _BASIS_CACHE.get(kind)
    if cached is not None:
        return cached
    size = kind.size
    grids: List[Tuple[int, Tuple[Tuple[GaussianRational, ...], ...]]] = []
    for parity, slots in ((EVEN, _even_slots(kind.m, kind.n)), (ODD, _odd_slots(kind.m, kind.n))):
        if not slots:
            continue
        for coords in linalg.nullspace(_constraint_rows(kind, slots, parity)):
            grids.append((parity, _grid_from_coords(slots, coords, size)))
    expected = _expected_dims(kind)
    got = (sum(1 for p, _ in grids if p == EVEN), sum(1 for p, _ in grids if p == ODD))
    if expected != got:
        raise AssertionError(f"basis dimension mismatch for {kind.display()}: expected {expected}, got {got}")
    supports = [
        tuple(((i, j), c) for i, row in enumerate(grid) for j, c in enumerate(row) if not c.is_zero())
        for _, grid in grids
    ]
    owners = Counter(cell for support in supports for cell, _ in support)
    vectors: List[BasisVector] = []
    for index, ((parity, grid), support) in enumerate(zip(grids, supports)):
        slot = next((cell for cell, c in support if c.is_one() and owners[cell] == 1), None)
        if slot is None:
            raise AssertionError(f"basis vector {index} of {kind.display()} has no reading slot")
        vectors.append(BasisVector(index, parity, grid, support, slot))
    _BASIS_CACHE[kind] = vectors
    return vectors


def _expected_dims(kind: MatrixKind) -> Tuple[int, int]:
    m, n = kind.m, kind.n
    if kind.family == GL:
        return (m * m + n * n, 2 * m * n)
    if kind.family == SL:
        return (m * m + n * n - 1, 2 * m * n)
    h = n // 2
    return (m * (m - 1) // 2 + h * (2 * h + 1), m * n)


def dimension(kind: MatrixKind) -> Tuple[int, int]:
    basis = basis_of(kind)
    return (sum(1 for v in basis if v.parity == EVEN), sum(1 for v in basis if v.parity == ODD))


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def membership_defect(kind: MatrixKind, x: SuperMatrix) -> Optional[str]:
    """``None`` if ``x`` is a point of the family, else a short description."""
    if (x.m, x.n) != (kind.m, kind.n):
        return "shape mismatch"
    if not x.is_even_matrix():
        return "matrix is not even"
    if kind.family == SL:
        tr = supertrace(x)
        if not tr.is_zero():
            return "supertrace is nonzero"
    elif kind.family == OSP:
        if not kind._osp_defect_map.vanishes(x):
            return "does not infinitesimally preserve the orthosymplectic form"
    return None


def contains(kind: MatrixKind, x: SuperMatrix) -> bool:
    return membership_defect(kind, x) is None


def require_member(kind: MatrixKind, x: SuperMatrix):
    defect = membership_defect(kind, x)
    if defect is not None:
        raise MembershipError(f"not a point of {kind.display()}: {defect}")


# ---------------------------------------------------------------------------
# structure constants and the tensor form
# ---------------------------------------------------------------------------

_STRUCTURE_CACHE: Dict[MatrixKind, Dict[Tuple[int, int], List[Tuple[int, GaussianRational]]]] = {}


def decompose_in_basis(kind: MatrixKind, grid, parity) -> Optional[List[Tuple[int, GaussianRational]]]:
    """Write a constant grid in the basis vectors of one parity, or ``None``.

    Returns ``[(basis_index, coefficient), ...]`` with zero coefficients
    dropped; ``None`` means the grid is not in the span (i.e. not a member).
    Each coefficient is read from its vector's slot; the combination is then
    rebuilt and compared with the grid cell by cell, exactly.
    """
    out = []
    rebuilt: Dict[Cell, GaussianRational] = {}
    for v in basis_of(kind):
        if v.parity != parity:
            continue
        i, j = v.slot
        coeff = grid[i][j]
        if coeff.is_zero():
            continue
        out.append((v.index, coeff))
        for cell, c in v.support:
            rebuilt[cell] = rebuilt.get(cell, ZERO) + coeff * c
    size = kind.size
    if any(grid[i][j] != rebuilt.get((i, j), ZERO) for i in range(size) for j in range(size)):
        return None
    return out


def vector_bracket(kind: MatrixKind, i: int, j: int) -> List[Tuple[int, GaussianRational]]:
    """Structure constants of the basis bracket ``[v_i, v_j]``.

    On constant basis grids the bracket is ``(-1)^{|v_i||v_j|} v_i v_j - v_j v_i``
    (for odd-odd pairs this is minus the anticommutator) — the unique choice
    that makes the tensor-form bracket agree entrywise with the matrix
    commutator of points; see :func:`even_rules_bracket`.
    """
    table = _STRUCTURE_CACHE.setdefault(kind, {})
    hit = table.get((i, j))
    if hit is not None:
        return hit
    basis = basis_of(kind)
    vi, vj = basis[i], basis[j]
    left = linalg.mat_mul(vi.grid_rows(), vj.grid_rows())
    right = linalg.mat_mul(vj.grid_rows(), vi.grid_rows())
    sign = MINUS_ONE if (vi.parity and vj.parity) else ONE
    combined = [
        [sign * left[a][b] - right[a][b] for b in range(kind.size)]
        for a in range(kind.size)
    ]
    parity = (vi.parity + vj.parity) & 1
    decomposition = decompose_in_basis(kind, combined, parity)
    if decomposition is None:
        raise AssertionError("bracket of basis vectors left the algebra — broken basis")
    table[(i, j)] = decomposition
    return decomposition


class TensorElement:
    """An element of ``g(A)`` in the form ``sum_i  c_i (tensor) v_i``.

    Coefficients must match the parity of their basis vector (that is what
    makes the matrix even).  Addition, scaling, and the sign-rule bracket are
    provided; :func:`matrix_of` and :func:`tensor_of` convert to and from the
    matrix picture.
    """

    __slots__ = ("kind", "sig", "coeffs")

    def __init__(self, kind: MatrixKind, sig: AlgebraSignature, coeffs: Dict[int, SuperNumber], check: bool = True):
        self.kind = kind
        self.sig = sig
        self.coeffs = {i: c for i, c in coeffs.items() if not c.is_zero()}
        if check:
            basis = basis_of(kind)
            for i, c in self.coeffs.items():
                if c.sig != sig:
                    raise ValueError("coefficient from a different algebra")
                ok = c.is_even() if basis[i].parity == EVEN else c.is_odd()
                if not ok:
                    raise ValueError(f"coefficient of basis vector {i} must have parity {basis[i].parity}")

    def __add__(self, other: "TensorElement") -> "TensorElement":
        if self.kind != other.kind or self.sig != other.sig:
            raise ValueError("mixing tensor elements of different types")
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            s = out.get(i)
            out[i] = c if s is None else s + c
        return TensorElement(self.kind, self.sig, out, check=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.kind == other.kind and self.sig == other.sig and self.coeffs == other.coeffs

    def __repr__(self):
        items = ", ".join(f"v{i}: {c!r}" for i, c in sorted(self.coeffs.items()))
        return f"TensorElement({self.kind.display()}, {{{items}}})"


def matrix_of(t: TensorElement) -> SuperMatrix:
    """The matrix of a tensor element, each entry summed in place from the
    sparse supports of the basis vectors."""
    basis = basis_of(t.kind)
    size = t.kind.size
    zero = SuperNumber.zero(t.sig)
    rows = [[zero] * size for _ in range(size)]
    for i, c in t.coeffs.items():
        for (a, b), value in basis[i].support:
            term = c if value.is_one() else c.scaled(value)
            cur = rows[a][b]
            rows[a][b] = term if cur.is_zero() else cur + term
    return SuperMatrix(t.kind.m, t.kind.n, t.sig, rows, check=False)


def tensor_of(kind: MatrixKind, x: SuperMatrix) -> TensorElement:
    """Decompose a point into tensor form (raises MembershipError if impossible).

    The coefficient of each basis vector is the point's entry at the vector's
    reading slot.  Membership is the only condition: the defining conditions
    are linear with constant coefficients, so a member's grid of every
    monomial lies in the span of the basis vectors of that monomial's parity.
    """
    require_member(kind, x)
    coeffs = {v.index: x.rows[v.slot[0]][v.slot[1]] for v in basis_of(kind)}
    return TensorElement(kind, x.sig, coeffs)


def even_rules_bracket(t1: TensorElement, t2: TensorElement) -> TensorElement:
    """Bracket in tensor form: ``[a (x) v, b (x) w] = (-1)^{|v||b|} ab (x) [v, w]``.

    With parity-homogeneous coefficients (|b| = |w|), the sign only depends on
    the basis parities.  Agreement of this formula with the matrix commutator
    is exactly the sign-rule consistency the test suite checks.
    """
    if t1.kind != t2.kind or t1.sig != t2.sig:
        raise ValueError("mixing tensor elements of different types")
    kind, sig = t1.kind, t1.sig
    basis = basis_of(kind)
    out: Dict[int, SuperNumber] = {}
    for i, a in t1.coeffs.items():
        pi = basis[i].parity
        for j, b in t2.coeffs.items():
            pj = basis[j].parity
            ab = a * b
            if ab.is_zero():
                continue
            if pi and pj:
                ab = -ab
            for k, coeff in vector_bracket(kind, i, j):
                term = ab.scaled(coeff)
                cur = out.get(k)
                out[k] = term if cur is None else cur + term
    return TensorElement(kind, sig, out, check=False)


def bracket(kind: MatrixKind, x: SuperMatrix, y: SuperMatrix) -> SuperMatrix:
    """Commutator of two points (checked to stay in the family)."""
    require_member(kind, x)
    require_member(kind, y)
    z = x * y - y * x
    require_member(MatrixKind(GL, kind.m, kind.n) if kind.family == GL else kind, z)
    return z

"""Matrix Lie superalgebra functors: bases, membership, both bracket routes."""

import pytest

from superforms.algebra import AlgebraSignature, EVEN, ODD, STANDARD, one, theta
from superforms.liealg import (
    GL, OSP, SL, MatrixKind, MembershipError, TensorElement, basis_of, bracket,
    contains, decompose_in_basis, dimension, even_rules_bracket, matrix_of,
    membership_defect, tensor_of, vector_bracket,
)
from superforms.matrices import (
    SuperMatrix, identity_matrix, osp_form_grid, supertranspose, supertrace,
    mul_const, const_matrix,
)
from superforms.sampling import random_point, random_tensor, rng_for
from superforms.scalars import ONE, ZERO

SIG = AlgebraSignature(2, 0, 0, STANDARD)


def test_kind_validation():
    with pytest.raises(ValueError):
        MatrixKind("sp", 2, 2)
    with pytest.raises(ValueError):
        MatrixKind(OSP, 2, 3)        # odd block must have even size
    with pytest.raises(ValueError):
        MatrixKind(OSP, 2, 2)._replace(n=3)
    assert MatrixKind(SL, 2, 1).display() == "sl(2|1)"
    assert MatrixKind(family=SL, m=2, n=1) == MatrixKind(SL, 2, 1)._replace(m=2)
    assert repr(MatrixKind(SL, 2, 1)) == "MatrixKind(family='sl', m=2, n=1)"


def test_dimensions():
    # sl(m|n): (m^2 + n^2 - 1 | 2mn); osp(m|2h): (m(m-1)/2 + h(2h+1) | 2mh)
    assert dimension(MatrixKind(SL, 1, 1)) == (1, 2)
    assert dimension(MatrixKind(SL, 2, 1)) == (4, 4)
    assert dimension(MatrixKind(SL, 2, 2)) == (7, 8)
    assert dimension(MatrixKind(SL, 3, 1)) == (9, 6)
    assert dimension(MatrixKind(OSP, 1, 2)) == (3, 2)
    assert dimension(MatrixKind(OSP, 2, 2)) == (4, 4)
    assert dimension(MatrixKind(GL, 2, 1)) == (5, 4)


def test_sl11_basis_is_frozen():
    basis = basis_of(MatrixKind(SL, 1, 1))
    assert [v.parity for v in basis] == [EVEN, ODD, ODD]
    assert basis[0].grid_rows() == [[ONE, ZERO], [ZERO, ONE]]     # E11 + E22
    assert basis[1].grid_rows() == [[ZERO, ONE], [ZERO, ZERO]]    # E12
    assert basis[2].grid_rows() == [[ZERO, ZERO], [ONE, ZERO]]    # E21


def test_gl11_basis_order():
    basis = basis_of(MatrixKind(GL, 1, 1))
    grids = [v.grid_rows() for v in basis]
    assert grids[0] == [[ONE, ZERO], [ZERO, ZERO]]
    assert grids[1] == [[ZERO, ZERO], [ZERO, ONE]]
    assert grids[2] == [[ZERO, ONE], [ZERO, ZERO]]
    assert grids[3] == [[ZERO, ZERO], [ONE, ZERO]]


def test_basis_vectors_are_members():
    t = theta(SIG, 0)
    for kind in (MatrixKind(SL, 2, 2), MatrixKind(OSP, 2, 2), MatrixKind(OSP, 1, 2)):
        for v in basis_of(kind):
            if v.parity == EVEN:
                x = const_matrix(kind.m, kind.n, SIG, v.grid_rows(), check=False)
            else:
                # odd vectors enter the A-points paired with an odd coefficient
                x = matrix_of(TensorElement(kind, SIG, {v.index: t}))
            assert membership_defect(kind, x) is None


def test_membership_conditions():
    kind = MatrixKind(SL, 2, 1)
    x = random_point(kind, SIG, rng_for(1, "member"))
    assert contains(kind, x)
    assert supertrace(x).is_zero()
    bad = x + identity_matrix(2, 1, SIG)     # supertrace 1 now
    assert membership_defect(kind, bad) is not None

    okind = MatrixKind(OSP, 2, 2)
    y = random_point(okind, SIG, rng_for(2, "member"))
    form = osp_form_grid(2, 2)
    lhs = mul_const(supertranspose(y), form) + const_matrix(2, 2, SIG, form, check=False) * y
    assert lhs.is_zero()


def test_vector_bracket_structure_constants():
    from superforms.scalars import MINUS_ONE
    kind = MatrixKind(SL, 1, 1)
    # odd-odd bracket is minus the matrix anticommutator: the unique sign that
    # makes the coefficient-first tensor rule match the commutator of points
    # (odd coefficients anticommute past each other when points multiply)
    assert vector_bracket(kind, 1, 2) == [(0, MINUS_ONE)]
    assert vector_bracket(kind, 2, 1) == [(0, MINUS_ONE)]     # symmetric in odd-odd
    # E11 + E22 is central in sl(1|1)
    assert vector_bracket(kind, 0, 1) == []
    assert vector_bracket(kind, 0, 2) == []


def test_even_rules_bracket_matches_matrix_commutator():
    for kindspec in ((SL, 2, 2), (GL, 2, 1), (OSP, 2, 2)):
        kind = MatrixKind(*kindspec)
        rng = rng_for(3, "bracket", kind.display())
        for _ in range(10):
            x = random_tensor(kind, SIG, rng)
            y = random_tensor(kind, SIG, rng)
            lhs = even_rules_bracket(x, y)
            mx, my = matrix_of(x), matrix_of(y)
            rhs = tensor_of(kind, mx * my - my * mx)
            assert lhs == rhs


def test_tensor_matrix_roundtrip():
    kind = MatrixKind(OSP, 2, 2)
    rng = rng_for(4, "roundtrip")
    for _ in range(10):
        t = random_tensor(kind, SIG, rng)
        assert tensor_of(kind, matrix_of(t)) == t
        x = random_point(kind, SIG, rng)
        assert matrix_of(tensor_of(kind, x)) == x


def test_tensor_of_rejects_nonmembers():
    kind = MatrixKind(SL, 2, 1)
    with pytest.raises(MembershipError):
        tensor_of(kind, identity_matrix(2, 1, SIG))    # supertrace 1 != 0
    # sl(1|1) does contain the identity (supertrace 1 - 1 = 0)
    t = tensor_of(MatrixKind(SL, 1, 1), identity_matrix(1, 1, SIG))
    assert matrix_of(t) == identity_matrix(1, 1, SIG)


def test_bracket_of_points():
    kind = MatrixKind(OSP, 1, 2)
    rng = rng_for(5, "ptbracket")
    x, y = random_point(kind, SIG, rng), random_point(kind, SIG, rng)
    z = bracket(kind, x, y)
    assert membership_defect(kind, z) is None
    assert z == x * y - y * x


def test_decompose_in_basis():
    kind = MatrixKind(SL, 2, 1)
    for v in basis_of(kind):
        coords = decompose_in_basis(kind, v.grid_rows(), v.parity)
        assert coords == [(v.index, ONE)]
    # a grid outside the family decomposes to None
    assert decompose_in_basis(kind, identity_matrix(2, 1, SIG).body_grid(), EVEN) is None

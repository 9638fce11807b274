"""The fast paths against their dense references (``dense_reference.py``):
block-by-block fixed points, slot-read coordinates, in-place matrix assembly."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import (
    dense_layout_fixed_vectors, dense_real_fixed_elements, dense_real_fixed_vectors,
    solve_decompose, solve_tensor_of, summed_matrix_of,
)
from superforms import linalg
from superforms.algebra import EVEN, GRADED, ODD, STANDARD, AlgebraSignature
from superforms.catalog import applicable_names, build
from superforms.exprs import apply_expr
from superforms.groups import fixed_span_maps
from superforms.liealg import (
    GL, OSP, SL, MatrixKind, MembershipError, basis_of, decompose_in_basis, matrix_of,
    tensor_of,
)
from superforms.matrices import identity_matrix
from superforms.realforms import (
    CoordLayout, extract_vector_conjugation, fixed_point_data, real_coordinates,
    real_fixed_elements, real_fixed_vectors,
)
from superforms.sampling import random_point, random_tensor
from superforms.scalars import GaussianRational, ONE, ZERO

SHAPES = [(SL, 1, 1), (SL, 2, 1), (SL, 2, 2), (OSP, 1, 2), (OSP, 2, 2)]


def one_pair(desc):
    return AlgebraSignature(1, 0, 0, desc.conjugation)


def catalog_descriptors():
    for fam, m, n in SHAPES:
        kind = MatrixKind(fam, m, n)
        for name in applicable_names(kind):
            yield build(name, kind)
    yield build("xi2", MatrixKind(OSP, 2, 2), strict=True)     # complex-linear, not antilinear


def as_real(layout, vectors):
    return [real_coordinates(v, layout.complex_dim) for v in vectors]


@pytest.mark.parametrize("desc", list(catalog_descriptors()),
                         ids=lambda d: d.display() + (" strict" if d.strict else ""))
def test_block_kernel_matches_dense_nullspace(desc):
    sig = one_pair(desc)
    layout = CoordLayout(desc.kind, sig)

    def act(t):
        return tensor_of(desc.kind, apply_expr(desc.steps, matrix_of(t)))

    expected = dense_layout_fixed_vectors(layout, act)
    vectors = layout.fixed_vectors(act)
    assert as_real(layout, vectors) == expected
    points, _, _ = fixed_point_data(desc, sig)
    assert points == [matrix_of(layout.tensor_from(v)) for v in vectors]


@pytest.mark.parametrize("desc", [
    build(name, MatrixKind(fam, m, n))
    for fam, m, n in SHAPES for name in applicable_names(MatrixKind(fam, m, n))
], ids=lambda d: d.display(group=True))
def test_block_kernel_matches_dense_on_fixed_span_maps(desc):
    layout, group_side, algebra_side = fixed_span_maps(desc, one_pair(desc))
    spans = [layout.fixed_vectors(side) for side in (group_side, algebra_side)]
    for side, vectors in zip((group_side, algebra_side), spans):
        assert as_real(layout, vectors) == dense_layout_fixed_vectors(layout, side)
    # lie_fixed_span_check compares the canonical bases as lists
    assert (spans[0] == spans[1]) == linalg.spans_equal(*(as_real(layout, v) for v in spans))


def test_real_fixed_elements_and_vectors_match_dense():
    for sig in (AlgebraSignature(2, 1, 1, STANDARD), AlgebraSignature(2, 0, 1, GRADED),
                AlgebraSignature(0, 0, 0, GRADED)):
        for parity in (EVEN, ODD):
            assert real_fixed_elements(sig, parity) == dense_real_fixed_elements(sig, parity)
    for desc in catalog_descriptors():
        if desc.strict:
            continue                     # the printed xi2 has no vector conjugation
        phi = extract_vector_conjugation(desc)
        for parity in (EVEN, ODD):
            assert real_fixed_vectors(phi, parity) == dense_real_fixed_vectors(phi, parity)


def test_block_nullspace_matches_dense_on_mixed_blocks():
    # blocks {0, 3} and {1, 2, 4}, a zero column, and pivots interleaved
    # across blocks
    g = GaussianRational
    dense = [
        [g(1), ZERO, ZERO, g(2), ZERO],
        [ZERO, g(1), g(-1), ZERO, g(3)],
        [ZERO, g(2), g(-2), ZERO, g(1, 1)],
        [g(2), ZERO, ZERO, g(4), ZERO],
        [ZERO, ZERO, ZERO, ZERO, ZERO],
    ]
    columns = [{r: dense[r][c] for r in range(5) if not dense[r][c].is_zero()} for c in range(5)]
    expected = linalg.nullspace(dense)
    got = linalg.block_nullspace(columns)
    assert [[v.get(c, ZERO) for c in range(5)] for v in got] == expected


SPARSE_POOL = [ZERO] * 5 + [ONE, GaussianRational(-1), GaussianRational(2), GaussianRational(0, 1)]


def sparse_grid(rng, size):
    grid = [[rng.choice(SPARSE_POOL) for _ in range(size)] for _ in range(size)]
    for i in rng.sample(range(size), rng.randrange(size)):      # rank drops, null spaces grow
        grid[i] = [ZERO] * size
    return grid


def invertible_grid(rng, size):
    """L U with L unit lower and U upper triangular with a nonzero diagonal."""
    lower = [[ONE if i == j else (rng.choice(SPARSE_POOL) if j < i else ZERO)
              for j in range(size)] for i in range(size)]
    upper = [[rng.choice(SPARSE_POOL[5:]) if i == j else (rng.choice(SPARSE_POOL) if j > i else ZERO)
              for j in range(size)] for i in range(size)]
    return linalg.mat_mul(lower, upper)


def null_basis(grid):
    size = len(grid)
    return linalg.block_nullspace(
        [{r: grid[r][c] for r in range(size) if not grid[r][c].is_zero()} for c in range(size)])


@given(st.integers(1, 6), st.integers(0, 10 ** 6))
@settings(max_examples=200, deadline=None)
def test_canonical_null_bases_are_equal_exactly_when_spans_are(size, seed):
    # A and G A have one null space, so their bases must be equal lists; for
    # an unrelated B (fresh, or A with one row replaced) list equality must
    # agree with the rank test
    rng = random.Random(seed)
    a = sparse_grid(rng, size)
    basis = null_basis(a)
    assert null_basis(linalg.mat_mul(invertible_grid(rng, size), a)) == basis
    if rng.random() < 0.5:
        b = sparse_grid(rng, size)
    else:
        b = [row[:] for row in a]
        b[rng.randrange(size)] = [rng.choice(SPARSE_POOL) for _ in range(size)]
    other = null_basis(b)
    dense = [[[v.get(c, ZERO) for c in range(size)] for v in vs] for vs in (basis, other)]
    assert (basis == other) == linalg.spans_equal(*dense)


KINDS = [
    MatrixKind(GL, 1, 0), MatrixKind(GL, 0, 2), MatrixKind(GL, 2, 1),
    MatrixKind(SL, 2, 0), MatrixKind(SL, 0, 1), MatrixKind(SL, 1, 1), MatrixKind(SL, 2, 2),
    MatrixKind(OSP, 3, 0), MatrixKind(OSP, 0, 2), MatrixKind(OSP, 1, 2), MatrixKind(OSP, 2, 2),
]
POOL = [ZERO, ZERO, ONE, GaussianRational(-1), GaussianRational(0, 1), GaussianRational(1, 0, 2),
        GaussianRational(2, -3, 5)]


@given(st.sampled_from(KINDS), st.sampled_from((EVEN, ODD)), st.integers(0, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_slot_decomposition_matches_solve(kind, parity, seed):
    rng = random.Random(seed)
    size = kind.size
    inside = [[ZERO] * size for _ in range(size)]
    for v in basis_of(kind):
        if v.parity != parity:
            continue
        c = rng.choice(POOL)
        for (i, j), value in v.support:
            inside[i][j] = inside[i][j] + c * value
    coords = decompose_in_basis(kind, inside, parity)
    assert coords is not None
    assert coords == solve_decompose(kind, inside, parity)

    # one cell off the span: the slots may read the same coefficients, so
    # only the exact rebuild can reject it
    outside = [row[:] for row in inside]
    i, j = rng.randrange(size), rng.randrange(size)
    outside[i][j] = outside[i][j] + rng.choice(POOL[2:])
    expected = solve_decompose(kind, outside, parity)
    assert decompose_in_basis(kind, outside, parity) == expected
    arbitrary = [[rng.choice(POOL) for _ in range(size)] for _ in range(size)]
    assert decompose_in_basis(kind, arbitrary, parity) == solve_decompose(kind, arbitrary, parity)


SIGS = [AlgebraSignature(0, 0, 0, STANDARD), AlgebraSignature(1, 1, 0, STANDARD),
        AlgebraSignature(2, 0, 1, GRADED)]


@given(st.sampled_from(KINDS), st.sampled_from(SIGS), st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_matrix_and_tensor_conversion_match_references(kind, sig, seed):
    rng = random.Random(seed)
    t = random_tensor(kind, sig, rng)
    assert matrix_of(t) == summed_matrix_of(t)
    x = random_point(kind, sig, rng)
    assert tensor_of(kind, x) == solve_tensor_of(kind, x)
    bad = x + identity_matrix(kind.m, kind.n, sig)
    try:
        expected = solve_tensor_of(kind, bad)
    except MembershipError:
        with pytest.raises(MembershipError):
            tensor_of(kind, bad)
    else:
        assert tensor_of(kind, bad) == expected

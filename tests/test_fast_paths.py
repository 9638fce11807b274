"""The fast paths against their dense references (``dense_reference.py``):
null spaces, fixed points and inverses read off sparse canonical bases, the
osp basis as the null space of ``id - sigma``,
slot-read coordinates, in-place matrix assembly, sparse canonical span bases
and the representability dichotomy built on them;
and against the routes they replace: fixed-point images relabelled across
monomials, the rebuild as one positional map, the rebuild check decided on a
basis of g against sampled direct comparison and against whole grids, the sl and osp membership
checks read off compiled cells, the difference of two positional maps, and
the zero test of a positional map without conjugating; and against the probe
evaluations (``probe_reference.py``) that extraction and fixed points made
before they read the vector action off the compiled map."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import (
    apply_to_tensor, dense_layout_fixed_vectors, dense_real_fixed_elements, dense_real_fixed_vectors,
    dense_rebuild_matches, dense_representability, in_span, nullspace, osp_basis_grids, rank, real_coordinates, rref,
    solve_decompose, solve_tensor_of, spans_equal, summed_matrix_of,
)
from group_reference import layout_fixed_vectors, reference_fixed_span_maps
from probe_reference import evaluated_fixed_point_coords, probe_extract_vector_conjugation
from superforms import linalg
from superforms.algebra import (
    EVEN, GRADED, ODD, STANDARD, AlgebraSignature, SuperNumber, basis_keys, conjugate_monomial, one, theta,
    theta_selfreal,
)
from superforms.catalog import applicable_names, build, param_choices
from superforms.exprs import PositionalMap, apply_expr, compile_expr
from superforms.groups import kernel_map
from superforms.liealg import (
    GL, OSP, SL, MatrixKind, MembershipError, TensorElement, basis_of, decompose_in_basis, matrix_of,
    membership_defect, tensor_of,
)
from superforms.literals import parse_matrix
from superforms.matrices import (
    SuperMatrix, const_mul, identity_matrix, mul_const, osp_form_grid, supertrace, supertranspose,
)
from superforms.realforms import (
    CoordLayout, VectorConjugation, _orbit_coefficients, extract_vector_conjugation, fixed_point_coords,
    fixed_point_data, matrix_literal, real_fixed_vectors, rebuild_matches, representability_check, to_real,
)
from superforms.sampling import random_point, random_tensor, rng_for
from superforms.scalars import GaussianRational, I, ONE, ZERO

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
    vectors = layout_fixed_vectors(layout, act)
    assert as_real(layout, vectors) == expected
    points, _, _ = fixed_point_data(desc, sig)
    assert points == [matrix_of(layout.tensor_from(v)) for v in vectors]


@pytest.mark.parametrize("desc", [
    build(name, MatrixKind(fam, m, n))
    for fam, m, n in SHAPES for name in applicable_names(MatrixKind(fam, m, n))
], ids=lambda d: d.display(group=True))
def test_block_kernel_matches_dense_on_fixed_span_maps(desc):
    sig = one_pair(desc)
    layout, group_side = reference_fixed_span_maps(desc, sig)

    def algebra_side(t):
        return tensor_of(desc.kind, apply_expr(desc.steps, matrix_of(t)))

    spans = [fixed_point_coords(desc, sig, own)[0] for own in (kernel_map(desc), desc.compiled)]
    for side, vectors in zip((group_side, algebra_side), spans):
        assert as_real(layout, vectors) == dense_layout_fixed_vectors(layout, side)
    # lie_fixed_span_check compares the canonical bases as lists
    assert (spans[0] == spans[1]) == spans_equal(*(as_real(layout, v) for v in spans))


def conj_orbits(sig, parity):
    """The orbits ``{t, conj(t)}`` of a parity's keys, each as its keys in
    increasing order and the signs of ``conj`` on them."""
    orbits = []
    for key in basis_keys(sig, parity):
        image = conjugate_monomial(sig, key, 1)[0]
        if image >= key:
            orbit = tuple(sorted({key, image}))
            orbits.append((orbit, tuple(conjugate_monomial(sig, t, 1)[1] for t in orbit)))
    return orbits


def test_real_fixed_elements_and_vectors_match_dense():
    # the coefficients' blocks, one per orbit of conj, relabelled to the keys
    # and ordered by last key, are the canonical basis of the dense null space
    for sig in (AlgebraSignature(2, 1, 1, STANDARD), AlgebraSignature(2, 0, 1, GRADED),
                AlgebraSignature(0, 0, 0, GRADED)):
        for parity in (EVEN, ODD):
            coefficients = [{orbit[s]: z for s, z in vec.items()}
                            for orbit, signs in conj_orbits(sig, parity) for vec in _orbit_coefficients(signs)]
            coefficients.sort(key=max)
            assert [SuperNumber(sig, c) for c in coefficients] == dense_real_fixed_elements(sig, parity)
    for desc in catalog_descriptors():
        if desc.strict:
            continue                     # the printed xi2 has no vector conjugation
        phi = extract_vector_conjugation(desc)
        for parity in (EVEN, ODD):
            assert real_fixed_vectors(phi, parity) == dense_real_fixed_vectors(phi, parity)


def representability_cases():
    """Every catalog descriptor and parameter choice at one pair; every
    default descriptor with a self-real odd generator (standard) and with an
    even nilpotent; two pairs on sl(2|2); and the degenerate shapes, where
    sl(1|0) has an empty product span and the graded descriptors of the
    purely even shapes have no odd vector."""
    for fam, m, n in SHAPES:
        kind = MatrixKind(fam, m, n)
        for name in applicable_names(kind):
            for p, q in param_choices(name, kind):
                desc = build(name, kind, p, q)
                yield desc, one_pair(desc)
            desc = build(name, kind)
            if desc.conjugation == STANDARD:
                yield desc, AlgebraSignature(1, 1, 0, STANDARD)
            yield desc, AlgebraSignature(1, 0, 1, desc.conjugation)
    yield build("xi2", MatrixKind(OSP, 2, 2), strict=True), AlgebraSignature(1, 0, 0, GRADED)
    for name in ("sigma1", "omega2"):
        desc = build(name, MatrixKind(SL, 2, 2))
        yield desc, AlgebraSignature(2, 0, 0, desc.conjugation)
    for fam, m, n in [(SL, 1, 0), (SL, 2, 0), (SL, 0, 2), (OSP, 2, 0), (OSP, 0, 2)]:
        kind = MatrixKind(fam, m, n)
        for name in applicable_names(kind):
            desc = build(name, kind)
            yield desc, one_pair(desc)


def outcome(check, desc, sig):
    try:
        return check(desc, sig)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


REPRESENTABILITY_CASES = list(representability_cases())


@pytest.mark.parametrize("desc, sig", REPRESENTABILITY_CASES, ids=[
    f"{d.display()}{' strict' if d.strict else ''} P{s.odd_pairs}S{s.odd_selfreal}E{s.even_nilpotents}"
    for d, s in REPRESENTABILITY_CASES])
def test_representability_matches_dense(desc, sig):
    assert outcome(representability_check, desc, sig) == outcome(dense_representability, desc, sig)


def test_representability_rejects_a_product_span_of_the_right_rank(monkeypatch):
    # i times the fixed vectors spans the anti-fixed vectors: the product
    # span keeps its rank but misses the fixed points, so only a comparison
    # of the spans themselves says "not representable"
    import dense_reference
    from superforms import realforms

    def rotated(phi, parity):
        return [{j: z * I for j, z in u.items()} for u in real_fixed_vectors(phi, parity)]

    monkeypatch.setattr(realforms, "real_fixed_vectors", rotated)
    monkeypatch.setattr(dense_reference, "real_fixed_vectors", rotated)
    desc = build("sigma1", MatrixKind(SL, 2, 1))
    result = representability_check(desc, one_pair(desc))
    assert result["product_span_rank"] == result["fixed_dimension"] > 0
    assert result["representable"] is False
    assert result == dense_representability(desc, one_pair(desc))


def test_witness_inside_an_enlarged_product_span(monkeypatch):
    # with every odd monomial times every odd vector and i times it, the
    # product span holds all of the odd part, the witness included
    import dense_reference
    from superforms import realforms

    def vectors(phi, parity):
        if parity == EVEN:
            return real_fixed_vectors(phi, parity)
        return [{v.index: unit} for v in basis_of(phi.kind) if v.parity == ODD for unit in (ONE, I)]

    def coefficients(sig, parity):
        if parity == EVEN:
            return dense_real_fixed_elements(sig, parity)
        return [SuperNumber(sig, {key: ONE}) for key in basis_keys(sig, ODD)]

    desc = build("omega2", MatrixKind(SL, 2, 1))
    # the package plants per orbit type; at one graded pair only the odd
    # orbit {t1, t1~} has the odd type, so each of its keys becomes a coefficient
    odd_types = {signs for _, signs in conj_orbits(one_pair(desc), ODD)}
    assert not odd_types & {signs for _, signs in conj_orbits(one_pair(desc), EVEN)}

    def orbit_coefficients(signs):
        if signs in odd_types:
            return [{s: ONE} for s in range(len(signs))]
        return _orbit_coefficients(signs)

    for module in (realforms, dense_reference):
        monkeypatch.setattr(module, "real_fixed_vectors", vectors)
    monkeypatch.setattr(realforms, "_orbit_coefficients", orbit_coefficients)
    monkeypatch.setattr(dense_reference, "dense_real_fixed_elements", coefficients)
    result = representability_check(desc, one_pair(desc))
    assert result["witness_fixed"] is True and result["witness_in_product_span"] is True
    assert result == dense_representability(desc, one_pair(desc))


def sparse_vectors(rng, width, count):
    """Random sparse vectors with zero vectors, duplicates and combinations
    of earlier ones mixed in."""
    vectors = []
    for _ in range(count):
        roll = rng.random()
        if vectors and roll < 0.2:
            vectors.append(dict(rng.choice(vectors)))
        elif vectors and roll < 0.45:
            acc = {}
            for vec in rng.sample(vectors, min(len(vectors), 3)):
                factor = rng.choice(SPARSE_POOL[5:])
                for k, x in vec.items():
                    acc[k] = acc.get(k, ZERO) + factor * x
            vectors.append({k: x for k, x in acc.items() if not x.is_zero()})
        elif roll < 0.55:
            vectors.append({})
        else:
            vectors.append({k: x for k in range(width) if not (x := rng.choice(SPARSE_POOL)).is_zero()})
    return vectors


@given(st.integers(1, 7), st.integers(0, 8), st.integers(0, 10 ** 6))
@settings(max_examples=300, deadline=None)
def test_span_basis_matches_dense_rank_spans_and_membership(width, count, seed):
    rng = random.Random(seed)
    dense = lambda vs: [[v.get(c, ZERO) for c in range(width)] for v in vs]
    vectors = sparse_vectors(rng, width, count)
    basis = linalg.span_basis(vectors)
    assert len(basis) == rank(dense(vectors))
    assert spans_equal(dense(basis), dense(vectors))
    lasts = [max(v) for v in basis]
    assert lasts == sorted(set(lasts))
    for f, v in zip(lasts, basis):
        assert v[f] == ONE and not any(g in v for g in lasts if g != f)
    assert linalg.span_basis(basis) == basis
    # equality of spans is equality of lists
    if rng.random() < 0.5:
        others = sparse_vectors(rng, width, rng.randrange(count + 2))
    else:                                   # the same span, other generators
        others = [{k: x * SPARSE_POOL[-1] for k, x in v.items()} for v in reversed(vectors)] + [{}]
    assert (linalg.span_basis(others) == basis) == spans_equal(dense(others), dense(vectors))
    # membership: adding a vector in the span does not lengthen the basis
    if rng.random() < 0.5:
        target = sparse_vectors(rng, width, 1)[0]
    else:
        target = {}
        for v in vectors[:2]:
            for k, x in v.items():
                target[k] = target.get(k, ZERO) + SPARSE_POOL[7] * x
    grows = len(linalg.span_basis(basis + [target])) > len(basis)
    assert grows == (not in_span(dense(vectors), dense([target])[0]))


@pytest.mark.parametrize("desc", list(catalog_descriptors()),
                         ids=lambda d: d.display() + (" strict" if d.strict else ""))
def test_span_basis_keeps_fixed_vectors(desc):
    # fixed_vectors already returns the canonical basis of its span
    vectors, _ = fixed_point_coords(desc, one_pair(desc), desc.compiled)
    real = [to_real(v) for v in vectors]
    assert linalg.span_basis(real) == real
    assert linalg.span_basis(reversed(real)) == real


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
    expected = nullspace(dense)
    got = linalg.nullspace(columns)
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
    return linalg.nullspace(
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
    assert (basis == other) == spans_equal(*dense)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10 ** 6))
@settings(max_examples=300, deadline=None)
def test_nullspace_and_invert_match_dense(rows, cols, seed):
    # rectangular grids, zero columns and singular squares included
    rng = random.Random(seed)
    grid = [[rng.choice(SPARSE_POOL) for _ in range(cols)] for _ in range(rows)]
    for c in rng.sample(range(cols), rng.randrange(cols)):
        for row in grid:
            row[c] = ZERO
    columns = [{r: grid[r][c] for r in range(rows) if not grid[r][c].is_zero()} for c in range(cols)]
    expected = [{k: x for k, x in enumerate(vec) if not x.is_zero()} for vec in nullspace(grid)]
    assert linalg.nullspace(columns) == expected
    n = cols
    for square in [invertible_grid(rng, n)] + ([grid] if rows == n else []):
        if rank(square) < n:
            with pytest.raises(linalg.SingularMatrix):
                linalg.invert(square)
            continue
        reduced, _ = rref([row + unit for row, unit in zip(square, linalg.identity(n))])
        inverse = linalg.invert(square)
        assert inverse == [row[n:] for row in reduced]
        assert linalg.mat_mul(square, inverse) == linalg.identity(n)


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


@pytest.mark.parametrize("sig", [AlgebraSignature(0, 0, 0, STANDARD), AlgebraSignature(2, 0, 1, STANDARD),
                                 AlgebraSignature(0, 0, 1, GRADED), AlgebraSignature(2, 0, 0, GRADED)],
                         ids=str)
def test_fixed_point_data_relabels_like_per_monomial_images(sig):
    # fixed_point_data evaluates one monomial per basis vector and unit; the
    # generic layout path evaluates every monomial
    for desc in catalog_descriptors():
        if desc.conjugation != sig.conjugation or desc.kind.size > 3:
            continue
        layout = CoordLayout(desc.kind, sig)

        def act(t):
            return tensor_of(desc.kind, apply_expr(desc.steps, matrix_of(t)))

        points, _, _ = fixed_point_data(desc, sig)
        assert points == [matrix_of(layout.tensor_from(v)) for v in layout_fixed_vectors(layout, act)]


def test_rebuild_map_matches_the_tensor_route():
    for desc in catalog_descriptors():
        if desc.strict:
            continue
        phi = extract_vector_conjugation(desc)
        sig = AlgebraSignature(2, 0, 1, desc.conjugation)
        rng = random.Random(desc.display())
        for _ in range(5):
            x = random_point(desc.kind, sig, rng)
            assert phi.rebuild(x) == matrix_of(apply_to_tensor(phi, tensor_of(desc.kind, x)))


def direct_rebuild_outcome(desc, phi, sig, samples, seed):
    """rebuild_matches as it was: both maps evaluated on every sample."""
    rng = rng_for(seed, "rebuild", desc.display(), f"P{sig.odd_pairs}")
    failures, witness = 0, None
    for _ in range(samples):
        x = random_point(desc.kind, sig, rng)
        lhs = apply_expr(desc.compiled, x)
        rhs = matrix_of(apply_to_tensor(phi, tensor_of(desc.kind, x)))
        if lhs != rhs:
            failures += 1
            if witness is None:
                witness = {"input": matrix_literal(x), "functorial": matrix_literal(lhs),
                           "rebuilt": matrix_literal(rhs)}
    return failures, witness


def planted(phi, index):
    """``phi`` with the image of basis vector ``index`` doubled: the rebuilt
    map reads that vector's coefficient at its slot, so it is wrong on that
    vector alone."""
    coords = list(phi.coords)
    coords[index] = tuple((j, c * GaussianRational(2)) for j, c in coords[index])
    return VectorConjugation(phi.kind, phi.conjugation, tuple(coords))


def assert_exact_witness(desc, phi, sig, outcome):
    """A failure names a point of ``g(A)`` on which the evaluator finds the
    two maps different, as the witness prints them; a pass names none."""
    if outcome.status == "pass":
        assert outcome.witness is None
        return
    m, n, rows = parse_matrix(outcome.witness["input"], sig)
    x = SuperMatrix(m, n, sig, rows)
    assert membership_defect(desc.kind, x) is None
    own, rebuilt = apply_expr(desc.compiled, x), phi.rebuild(x)
    assert own != rebuilt
    assert outcome.witness == {"input": matrix_literal(x), "functorial": matrix_literal(own),
                               "rebuilt": matrix_literal(rebuilt)}


def test_rebuild_difference_map_counts_like_direct_comparison():
    # a vector map with one image doubled fails the exact check exactly when
    # the sampled direct comparison fails, with a witness the evaluator confirms
    for fam, m, n, name in ((SL, 2, 1, "sigma1"), (OSP, 1, 2, "psi1"), (SL, 2, 2, "omega2")):
        desc = build(name, MatrixKind(fam, m, n))
        phi = extract_vector_conjugation(desc)
        bad = planted(phi, len(phi.coords) - 1)
        sig = one_pair(desc)
        for vectors, expect_failures in ((phi, False), (bad, True)):
            outcome = rebuild_matches(desc, vectors, sig, samples=30, seed=7)
            failures, _ = direct_rebuild_outcome(desc, vectors, sig, 30, 7)
            assert outcome.samples == len(basis_of(desc.kind))      # one pair: both parities count
            assert outcome.status == ("fail" if failures else "pass")
            assert bool(failures) == expect_failures
            assert_exact_witness(desc, vectors, sig, outcome)


@pytest.mark.parametrize("fam, m, n, name", [(SL, 2, 1, "sigma1"), (OSP, 1, 2, "psi1"), (SL, 2, 2, "omega2")],
                         ids=str)
def test_a_map_wrong_on_one_basis_vector_fails_at_that_vector(fam, m, n, name):
    desc = build(name, MatrixKind(fam, m, n))
    phi = extract_vector_conjugation(desc)
    sig = one_pair(desc)
    units = {EVEN: one(sig), ODD: theta(sig, 0)}
    for v in basis_of(desc.kind):
        bad = planted(phi, v.index)
        outcome = rebuild_matches(desc, bad, sig)
        assert (outcome.status, outcome.note) == ("fail", f"1 failure(s), certified on a basis of {outcome.samples}")
        lifted = matrix_of(TensorElement(desc.kind, sig, {v.index: units[v.parity]}))
        assert outcome.witness["input"] == matrix_literal(lifted)
        assert_exact_witness(desc, bad, sig, outcome)


def test_an_odd_only_defect_needs_an_odd_generator():
    desc = build("sigma1", MatrixKind(SL, 2, 1))
    phi = extract_vector_conjugation(desc)
    v = next(v for v in basis_of(desc.kind) if v.parity == ODD)
    bad = planted(phi, v.index)
    evens = sum(u.parity == EVEN for u in basis_of(desc.kind))
    for sig, status, samples in ((AlgebraSignature(0, 0, 1, STANDARD), "pass", evens),
                                 (AlgebraSignature(0, 1, 0, STANDARD), "fail", len(phi.coords))):
        outcome = rebuild_matches(desc, bad, sig, samples=30, seed=5)
        failures, _ = direct_rebuild_outcome(desc, bad, sig, 30, 5)
        assert (outcome.status, outcome.samples) == (status, samples)
        assert outcome.status == ("fail" if failures else "pass")
        assert_exact_witness(desc, bad, sig, outcome)
        if status == "fail":
            lifted = matrix_of(TensorElement(desc.kind, sig, {v.index: theta_selfreal(sig, 0)}))
            assert outcome.witness["input"] == matrix_literal(lifted)


def catalog_instances():
    """Every descriptor and parameter choice of the test shapes."""
    for fam, m, n in SHAPES:
        kind = MatrixKind(fam, m, n)
        for name in applicable_names(kind):
            for p, q in param_choices(name, kind):
                yield build(name, kind, p, q)


REBUILD_SIGNATURES = {
    STANDARD: [AlgebraSignature(0, 0, 1, STANDARD), AlgebraSignature(2, 0, 0, STANDARD),
               AlgebraSignature(0, 1, 0, STANDARD)],
    GRADED: [AlgebraSignature(0, 0, 1, GRADED), AlgebraSignature(2, 0, 0, GRADED)],
}


def test_exact_rebuild_agrees_with_sampling_on_the_catalog():
    # each catalog descriptor with its own vector map and with one planted on
    # its last (odd, where there is one) vector, over an even nilpotent, two
    # pairs and a self-real generator
    statuses = []
    for desc in catalog_instances():
        phi = extract_vector_conjugation(desc)
        for vectors in (phi, planted(phi, len(phi.coords) - 1)):
            for sig in REBUILD_SIGNATURES[desc.conjugation]:
                outcome = rebuild_matches(desc, vectors, sig, samples=10, seed=3)
                failures, _ = direct_rebuild_outcome(desc, vectors, sig, 10, 3)
                assert outcome.status == ("fail" if failures else "pass"), (desc.display(), sig)
                assert outcome.note.endswith(f"certified on a basis of {outcome.samples}")
                assert_exact_witness(desc, vectors, sig, outcome)
                statuses.append(outcome.status)
    assert len(statuses) >= 300 and set(statuses) == {"pass", "fail"}


def test_exact_rebuild_matches_the_dense_check_on_planted_maps():
    # the check reads each basis vector's support through the difference
    # map's source index; on whole grids it must give the same outcome,
    # witness and note, for the descriptor's own map and for maps planted
    # wrong on one even, one odd or every vector
    statuses = []
    for desc in list(catalog_instances()) + [build(name, MatrixKind(SL, 4, 2))
                                             for name in applicable_names(MatrixKind(SL, 4, 2))]:
        phi = extract_vector_conjugation(desc)
        basis = basis_of(desc.kind)
        wrong = {next(v.index for v in basis if v.parity == parity) for parity in (EVEN, ODD)
                 if any(v.parity == parity for v in basis)}
        maps = [phi] + [planted(phi, i) for i in sorted(wrong)]
        maps.append(VectorConjugation(phi.kind, phi.conjugation,
                                      tuple(tuple((j, -c) for j, c in row) for row in phi.coords)))
        for vectors in maps:
            for sig in REBUILD_SIGNATURES[desc.conjugation]:
                outcome = rebuild_matches(desc, vectors, sig)
                assert outcome == dense_rebuild_matches(desc, vectors, sig), (desc.display(), sig)
                statuses.append(outcome.status)
    assert len(statuses) >= 500 and set(statuses) == {"pass", "fail"}


def test_another_conjugation_count_keeps_the_sampled_check():
    # three conjugations square like one under the graded conjugation, so the
    # vector map extracts, but the difference with the rebuilt map (one
    # conjugation) cannot be formed
    from superforms.exprs import conj_step

    for name, kind in (("omega2", MatrixKind(SL, 2, 1)), ("psi1", MatrixKind(OSP, 1, 2))):
        base = build(name, kind)
        desc = base._replace(steps=(conj_step(),) * 2 + base.steps)
        phi = extract_vector_conjugation(desc)
        sig = one_pair(desc)
        outcome = rebuild_matches(desc, phi, sig, samples=12, seed=9)
        failures, witness = direct_rebuild_outcome(desc, phi, sig, 12, 9)
        assert outcome.samples == 12 and "certified" not in (outcome.note or "")
        assert (outcome.status == "fail", outcome.witness) == (failures > 0, witness)


def test_a_passing_rebuild_check_draws_and_evaluates_nothing(monkeypatch):
    from superforms import exprs, realforms, sampling

    def forbidden(*args, **kwargs):
        raise AssertionError("sampled or evaluated a point")

    for module, name in ((sampling, "random_point"), (realforms, "random_point"),
                         (exprs, "apply_expr"), (realforms, "apply_expr")):
        monkeypatch.setattr(module, name, forbidden)
    checked = 0
    for desc in catalog_instances():
        phi = extract_vector_conjugation(desc)
        outcome = rebuild_matches(desc, phi, AlgebraSignature(1, 0, 1, desc.conjugation))
        assert (outcome.status, outcome.samples) == ("pass", len(phi.coords)), desc.display()
        checked += 1
    assert checked >= 60


@given(st.sampled_from([(1, 2), (2, 2), (3, 2), (1, 4)]), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_osp_membership_matches_the_form_product(shape, seed):
    kind = MatrixKind(OSP, *shape)
    sig = AlgebraSignature(1, 0, 1, STANDARD)
    rng = random.Random(seed)
    x = random_point(kind, sig, rng)
    size = kind.size
    i, j = rng.randrange(size), rng.randrange(size)
    bump = random_point(MatrixKind(GL, *shape), sig, rng).rows[i][j]
    rows = [list(r) for r in x.rows]
    rows[i][j] = rows[i][j] + bump
    form = osp_form_grid(*shape)
    for point in (x, SuperMatrix(x.m, x.n, sig, rows)):
        defect = mul_const(supertranspose(point), form) + const_mul(form, point)
        assert const_mul(form, kind.conditions.apply(point)) == defect
        assert (membership_defect(kind, point) is None) == defect.is_zero()


@pytest.mark.parametrize("shape", [(1, 2), (2, 2), (3, 2), (2, 0), (0, 2), (0, 4), (2, 4)], ids=str)
def test_osp_basis_is_the_null_space_of_the_form_product(shape):
    basis = basis_of(MatrixKind(OSP, *shape))
    assert [(v.parity, v.grid_rows()) for v in basis] == osp_basis_grids(*shape)


@functools.lru_cache(maxsize=None)
def maps_by_shape():
    """Positional maps per shape ``(m, n)``: the identity, every catalog
    descriptor's, the rebuilt map of each extraction and the osp conditions."""
    maps = {}
    for desc in catalog_descriptors():
        kind = desc.kind
        found = maps.setdefault((kind.m, kind.n), [compile_expr((), kind.m, kind.n)])
        found.append(desc.compiled)
        if not desc.strict:
            found.append(extract_vector_conjugation(desc)._rebuild_map)
        if kind.family == OSP:
            found.append(kind.conditions)
    return maps


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_map_difference_applies_as_the_difference_of_the_maps(data):
    maps = maps_by_shape()
    shape = data.draw(st.sampled_from(sorted(maps)))
    a, b = (data.draw(st.sampled_from(maps[shape])) for _ in range(2))
    sig = AlgebraSignature(2, 0, 1, data.draw(st.sampled_from([STANDARD, GRADED])))
    x = random_point(MatrixKind(GL, *shape), sig, random.Random(data.draw(st.integers(0, 10 ** 6))))
    if a.conjugations != b.conjugations:
        with pytest.raises(ValueError, match="conjugation counts"):
            a - b
        b = b._replace(conjugations=a.conjugations)
    assert (a - b).apply(x) == a.apply(x) - b.apply(x)


def test_map_difference_drops_cancelled_terms_and_refuses_other_shapes():
    own = build("sigma1", MatrixKind(SL, 2, 1)).compiled
    assert own - own == PositionalMap(tuple(((),) * 3 for _ in range(3)), own.conjugations, 2)
    with pytest.raises(ValueError, match="shapes"):
        own - build("sigma1", MatrixKind(SL, 2, 2)).compiled


def test_map_algebra_refuses_other_block_sizes():
    # sl(2|1) and sl(1|2) maps have the same size but not the same blocks
    own = build("sigma1", MatrixKind(SL, 2, 1)).compiled
    other = build("sigma1", MatrixKind(SL, 1, 2)).compiled
    assert len(own.cells) == len(other.cells) and own.conjugations == other.conjugations
    with pytest.raises(ValueError, match="^positional maps of different shapes$"):
        own.compose(other)
    with pytest.raises(ValueError, match="^positional maps of different shapes or conjugation counts$"):
        own - other
    x = random_point(MatrixKind(SL, 1, 2), AlgebraSignature(1, 0, 0, STANDARD), random.Random(0))
    with pytest.raises(ValueError, match=r"^expression compiled for shape 2\|1, got 1\|2$"):
        apply_expr(own, x)
    assert apply_expr(other, x) == other.apply(x)


@given(st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 1), (1, 0)]), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_sl_membership_matches_the_supertrace(shape, seed):
    kind = MatrixKind(SL, *shape)
    sig = AlgebraSignature(1, 0, 1, STANDARD)
    rng = random.Random(seed)
    x = random_point(kind, sig, rng)
    i = rng.randrange(kind.size)
    j = i if rng.random() < 0.5 else rng.randrange(kind.size)
    bump = random_point(MatrixKind(GL, *shape), sig, rng).rows[i][j]
    rows = [list(r) for r in x.rows]
    rows[i][j] = rows[i][j] + bump
    for point in (x, SuperMatrix(x.m, x.n, sig, rows)):
        trace = supertrace(point)
        expected = [[trace if (a, b) == (0, 0) else SuperNumber.zero(sig) for b in range(kind.size)]
                    for a in range(kind.size)]
        assert kind.conditions.apply(point) == SuperMatrix(x.m, x.n, sig, expected)
        assert (membership_defect(kind, point) is None) == trace.is_zero()
    assert MatrixKind(GL, *shape).conditions is None


def test_vanishes_matches_applying_the_map():
    # difference maps conjugate once and vanish on members only, and their
    # folded maps conjugate nothing and vanish on the same points; the osp
    # defect map conjugates nothing
    for desc in catalog_descriptors():
        if desc.strict:
            continue
        kind = desc.kind
        maps = [desc.compiled - extract_vector_conjugation(desc)._rebuild_map]
        if kind.family == OSP:
            maps.append(kind.conditions)
        sig = AlgebraSignature(2, 0, 1, desc.conjugation)
        rng = random.Random(desc.display())
        points = [random_point(kind, sig, rng) for _ in range(3)]
        points += [random_point(MatrixKind(GL, kind.m, kind.n), sig, rng) for _ in range(3)]
        results = [(f.folded().vanishes(x), f.apply(x).is_zero()) for f in maps for x in points]
        assert all(fast == slow for fast, slow in results)
        with pytest.raises(ValueError):
            maps[0].vanishes(points[0])         # it conjugates: fold it first
        assert {slow for _, slow in results} == {True, False}


@given(st.lists(st.sampled_from([ZERO, ONE, GaussianRational(-1), GaussianRational(0, 1),
                                 GaussianRational(1, 0, 2), GaussianRational(2, -1, 3)]),
                min_size=8, max_size=8))
@settings(max_examples=300, deadline=None)
def test_block_nullspace_small_blocks_match_dense(entries):
    # two 2x2 blocks on {0, 2} and {1, 3} (or smaller ones when entries vanish)
    a, b, c, d, e, f, g, h = entries
    dense = [[a, ZERO, b, ZERO], [ZERO, e, ZERO, f], [c, ZERO, d, ZERO], [ZERO, g, ZERO, h]]
    columns = [{r: dense[r][col] for r in range(4) if not dense[r][col].is_zero()} for col in range(4)]
    expected = [{k: x for k, x in enumerate(vec) if not x.is_zero()} for vec in nullspace(dense)]
    assert linalg.nullspace(columns) == expected


def vector_action_cases():
    """Every descriptor and parameter choice of seven shapes, strict variants
    included.  The catalog conjugates once or never, so sl(2|1) and osp(1|2)
    add each default descriptor with one and with two more conjugations
    (``conj^k(t1)`` is then ``+-t1``, and ``-t1~`` for the graded ``k = 3``),
    and a map that trades an even and an odd index, whose images leave the
    algebra."""
    from superforms.catalog import Descriptor
    from superforms.exprs import ad_step, conj_step

    for fam, m, n in SHAPES + [(SL, 3, 1), (OSP, 2, 4)]:
        kind = MatrixKind(fam, m, n)
        for name in applicable_names(kind):
            for p, q in param_choices(name, kind):
                for strict in (False, True):
                    desc = build(name, kind, p, q, strict)
                    if desc.strict == strict:
                        yield desc.display() + " strict" * strict, desc
            if (fam, m, n) in ((SL, 2, 1), (OSP, 1, 2)):
                desc = build(name, kind)
                for extra in (1, 2):
                    yield f"{desc.display()} conj+{extra}", desc._replace(steps=(conj_step(),) * extra + desc.steps)
    swap = [[ONE, ZERO, ZERO], [ZERO, ZERO, ONE], [ZERO, ONE, ZERO]]
    yield "mixing", Descriptor("mixing", MatrixKind(SL, 2, 1), STANDARD, (ad_step("swap", swap), conj_step()))


VECTOR_ACTION_CASES = list(vector_action_cases())


@pytest.mark.parametrize("desc", [d for _, d in VECTOR_ACTION_CASES], ids=[i for i, _ in VECTOR_ACTION_CASES])
def test_vector_action_matches_probe_evaluations(desc):
    new, old = (outcome(lambda d, _: extract(d), desc, None)
                for extract in (extract_vector_conjugation, probe_extract_vector_conjugation))
    if isinstance(old, VectorConjugation):
        assert new == old
    else:
        assert new == old and old[0] == "ExtractionMismatch"
    for sig in (AlgebraSignature(1, 0, 1, STANDARD), AlgebraSignature(1, 0, 1, GRADED)):
        if sig.conjugation != desc.conjugation:     # the other conjugation is refused
            with pytest.raises(ValueError, match=f"needs {desc.conjugation} conjugation"):
                fixed_point_coords(desc, sig, desc.compiled)
            continue
        new, old = (outcome(fixed, desc, sig) for fixed in (
            lambda d, s: fixed_point_coords(d, s, d.compiled), evaluated_fixed_point_coords))
        if old[0] == "MembershipError":
            assert new[0] == "MembershipError"      # the messages name different defects
        else:
            assert new[0] == old[0]

"""Fixed points and product spans read off one block per monomial orbit type.

``realforms.fixed_point_coords`` solves one block per orbit type of the
monomial keys and relabels it into every orbit of that type.  The oracle is
``dense_reference.global_fixed_point_coords``, one null space on all real
coordinates of ``g(A)``: the two must give the same vectors in the same
order, each dict with its keys in the same order, and raise the same
``MembershipError`` where a basis vector's image leaves ``g``.

``realforms._product_span`` eliminates the products (real fixed coefficient)
x (fixed vector) once per orbit type of ``conj`` in the same way, against
the oracle ``dense_reference.global_product_span``, one elimination of all
products on all real coordinates.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import global_fixed_point_coords, global_product_span
from superforms import linalg, realforms
from superforms.algebra import EVEN, ODD, STANDARD, AlgebraSignature, basis_keys, conjugate_monomial
from superforms.catalog import applicable_names, build, param_choices
from superforms.exprs import ad_step
from superforms.liealg import MembershipError, MatrixKind, OSP, SL, basis_of
from superforms.realforms import (
    CoordLayout, _product_span, extract_vector_conjugation, fixed_point_coords, representability_check,
)
from superforms.scalars import GaussianRational, ONE, ZERO

SMALL_SHAPES = [MatrixKind(SL, 1, 1), MatrixKind(SL, 2, 1), MatrixKind(SL, 2, 2), MatrixKind(SL, 3, 1),
                MatrixKind(OSP, 1, 2), MatrixKind(OSP, 2, 2)]


def outcome(desc, sig, own, fixed):
    """The vectors with their keys in order, or the MembershipError message."""
    try:
        vectors, _ = fixed(desc, sig, own)
    except MembershipError as exc:
        return "MembershipError", str(exc)
    return [list(v.items()) for v in vectors]


def assert_matches_oracle(desc, sig, own=None):
    own = desc.compiled if own is None else own
    expected = outcome(desc, sig, own, global_fixed_point_coords)
    assert outcome(desc, sig, own, fixed_point_coords) == expected
    return expected


def roadmap_cases():
    """Every applicable descriptor of the small shapes, at up to two
    parameter choices, with the signatures ``(P, S, E)`` = (0,0,0), (1,0,0),
    (2,0,1), and (1,1,0) for standard rows."""
    for kind in SMALL_SHAPES:
        for name in applicable_names(kind):
            for p, q in list(param_choices(name, kind))[:2]:
                desc = build(name, kind, p, q)
                shapes = [(0, 0, 0), (1, 0, 0), (2, 0, 1)] + [(1, 1, 0)] * (desc.conjugation == STANDARD)
                for pairs, selfreal, nil in shapes:
                    yield desc, AlgebraSignature(pairs, selfreal, nil, desc.conjugation)


ROADMAP_CASES = list(roadmap_cases())


def test_the_roadmap_case_set_has_120_cases():
    assert len(ROADMAP_CASES) == 120


@pytest.mark.parametrize("case", ROADMAP_CASES, ids=lambda c: (
    f"{c[0].display()}-P{c[1].odd_pairs}S{c[1].odd_selfreal}E{c[1].even_nilpotents}"))
def test_orbit_blocks_equal_the_global_null_space(case):
    desc, sig = case
    vectors = assert_matches_oracle(desc, sig)
    assert len(vectors) == sum(len(basis_keys(sig, v.parity)) for v in basis_of(desc.kind))


SWEEP_DESCRIPTORS = [build(name, kind) for kind in SMALL_SHAPES if kind != MatrixKind(SL, 3, 1)
                     for name in applicable_names(kind)]


@given(st.sampled_from(SWEEP_DESCRIPTORS), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=100, deadline=None)
def test_orbit_blocks_equal_the_global_null_space_over_signatures(desc, pairs, selfreal, nil):
    selfreal = selfreal if desc.conjugation == STANDARD else 0
    assert_matches_oracle(desc, AlgebraSignature(pairs, selfreal, nil, desc.conjugation))


@pytest.mark.parametrize("shape", [(1, 0, 0), (2, 0, 1), (2, 1, 1)])
def test_orbit_blocks_on_the_strict_xi2(shape):
    # complex-linear: k = 0, so every monomial is its own orbit
    desc = build("xi2", MatrixKind(OSP, 2, 2), strict=True)
    sig = AlgebraSignature(*shape, desc.conjugation)
    assert desc.compiled.conjugations == 0
    assert all(conjugate_monomial(sig, key, 0)[0] == key for key in basis_keys(sig))
    assert_matches_oracle(desc, sig)


def conjugated(desc, k_grid):
    """``Ad(K) o f o Ad(K)^-1`` as a descriptor: its steps apply right to left."""
    k_inverse = linalg.invert(k_grid)
    return desc._replace(steps=(ad_step("K", k_grid),) + desc.steps + (ad_step("K^-1", k_inverse),))


def test_orbit_blocks_on_a_structure_conjugated_by_a_dense_group_element():
    g = lambda re, im=0: GaussianRational(re, im, 1)
    k_grid = [[g(2, 1), g(-1, 1), ZERO], [g(1), g(1, -1), ZERO], [ZERO, ZERO, g(-2, 1)]]
    desc = conjugated(build("sigma1", MatrixKind(SL, 2, 1)), k_grid)
    assert max(len(cell) for row in desc.compiled.cells for cell in row) > 2
    for shape in [(1, 0, 0), (2, 1, 1), (3, 0, 1)]:
        sig = AlgebraSignature(*shape, desc.conjugation)
        assert len(assert_matches_oracle(desc, sig)) == sum(
            len(basis_keys(sig, v.parity)) for v in basis_of(desc.kind))


def leaving_map():
    """The compiled sigma1 of sl(2|1), planted so that the last even vector
    (slot (2,2)) and the first odd vector (slot (0,2)) both leave sl(2|1):
    output cell (0,0) also reads the slots (2,2) and (0,2)."""
    desc = build("sigma1", MatrixKind(SL, 2, 1))
    own = desc.compiled
    cells = [list(row) for row in own.cells]
    cells[0][0] = tuple(cells[0][0]) + ((2, 2, ONE), (0, 2, ONE))
    planted = own._replace(cells=tuple(tuple(row) for row in cells))
    odd = [v.index for v in basis_of(desc.kind) if v.parity == ODD]
    even = [v.index for v in basis_of(desc.kind) if v.parity == EVEN]
    return desc, planted, even[-1], odd[0]


@pytest.mark.parametrize("shape", [(1, 0, 0), (2, 1, 1)])
def test_a_map_leaving_g_raises_the_oracle_error_for_the_first_vector_in_layout_order(shape):
    # the per-type solve may meet the odd offender first; the layout lists
    # even vectors first, so the message must name the even one
    desc, planted, even, odd = leaving_map()
    sig = AlgebraSignature(*shape, desc.conjugation)
    expected = assert_matches_oracle(desc, sig, planted)
    assert expected == ("MembershipError",
                        f"not a point of sl(2|1): image of basis vector {even} left the algebra")


def test_a_map_leaving_g_on_odd_vectors_only_raises_only_when_a_has_odd_keys():
    desc, planted, _, odd = leaving_map()
    cells = [list(row) for row in planted.cells]
    cells[0][0] = cells[0][0][:-2] + cells[0][0][-1:]        # the even offender's term removed
    odd_only = planted._replace(cells=tuple(tuple(row) for row in cells))
    raised = assert_matches_oracle(desc, AlgebraSignature(1, 0, 0, desc.conjugation), odd_only)
    assert raised == ("MembershipError", f"not a point of sl(2|1): image of basis vector {odd} left the algebra")
    # without odd generators no coordinate carries an odd vector
    assert assert_matches_oracle(desc, AlgebraSignature(0, 0, 1, desc.conjugation), odd_only) != raised


def orbit_types(desc, sig, k=None):
    """``(parity, signs)`` of each orbit ``{t, conj^k(t)}`` of the keys of a
    parity that has basis vectors, the signs of ``conj^k`` on the orbit's
    keys in increasing order; ``k`` is the structure's by default."""
    k = desc.compiled.conjugations if k is None else k
    parities = {v.parity for v in basis_of(desc.kind)}
    types = set()
    for parity in parities:
        for key in basis_keys(sig, parity):
            image, sign = conjugate_monomial(sig, key, k)
            back, back_sign = conjugate_monomial(sig, image, k)
            assert back == key
            orbit = dict([(key, sign), (image, back_sign)])
            types.add((parity, tuple(orbit[t] for t in sorted(orbit))))
    return types


@pytest.mark.parametrize("shape", [(3, 0, 0), (4, 0, 4)])
def test_one_null_space_per_orbit_type(monkeypatch, shape):
    desc = build("sigma1", MatrixKind(SL, 2, 2))
    sig = AlgebraSignature(*shape, desc.conjugation)
    calls = []
    nullspace = linalg.nullspace

    def counted(columns):
        calls.append(len(columns))
        return nullspace(columns)

    monkeypatch.setattr(linalg, "nullspace", counted)
    vectors, layout = fixed_point_coords(desc, sig, desc.compiled)
    assert len(vectors) == layout.complex_dim
    assert len(calls) == len(orbit_types(desc, sig)) == 6
    # each block has (vectors of a parity) x (orbit size) complex coordinates
    assert max(calls) <= 2 * 2 * len(basis_of(desc.kind))


def product_span_cases():
    """Every applicable descriptor of the small shapes, at up to two
    parameter choices, with 0-3 odd pairs, 0-2 self-real generators on
    standard rows and 0-2 even nilpotents."""
    for kind in SMALL_SHAPES:
        for name in applicable_names(kind):
            for p, q in list(param_choices(name, kind))[:2]:
                desc = build(name, kind, p, q)
                for pairs in range(4):
                    for selfreal in range(3 if desc.conjugation == STANDARD else 1):
                        for nil in range(3):
                            yield desc, AlgebraSignature(pairs, selfreal, nil, desc.conjugation)


PRODUCT_SPAN_CASES = list(product_span_cases())


def test_the_product_span_case_set_has_840_cases():
    assert len(PRODUCT_SPAN_CASES) == 840


@given(st.sampled_from(PRODUCT_SPAN_CASES))
@settings(max_examples=200, deadline=None)
def test_orbit_product_spans_equal_the_global_elimination(case):
    desc, sig = case
    phi = extract_vector_conjugation(desc)
    layout = CoordLayout(desc.kind, sig)
    expected = [list(v.items()) for v in global_product_span(phi, sig, layout)]
    assert [list(v.items()) for v in _product_span(phi, sig, layout)] == expected


def test_one_product_elimination_per_orbit_type_of_conj(monkeypatch):
    # the witness of sl(2|2) sigma1 at 4 pairs and 4 even nilpotents has
    # 30,720 products; each elimination takes one orbit type's few
    desc = build("sigma1", MatrixKind(SL, 2, 2))
    sig = AlgebraSignature(4, 0, 4, desc.conjugation)
    eliminations, solves = [], []
    span_basis, fixed_vectors = linalg.span_basis, realforms.fixed_vectors

    def counted_span_basis(vectors):
        vectors = list(vectors)
        eliminations.append((sys._getframe(1).f_code.co_name, len(vectors)))
        return span_basis(vectors)

    def counted_fixed_vectors(count, image):
        solves.append(sys._getframe(1).f_code.co_name)
        return fixed_vectors(count, image)

    monkeypatch.setattr(linalg, "span_basis", counted_span_basis)
    monkeypatch.setattr(realforms, "fixed_vectors", counted_fixed_vectors)
    result = representability_check(desc, sig)
    assert result["representable"] is True
    assert result["product_span_rank"] == result["expected_fixed_dimension"] == 30720
    products = [size for caller, size in eliminations if caller == "span"]
    assert len(products) == len(orbit_types(desc, sig, k=1)) > 1
    assert max(size for _, size in eliminations) < 30720
    assert solves and set(solves) == {"_orbit_block"}

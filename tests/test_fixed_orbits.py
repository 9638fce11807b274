"""Fixed points and product spans read off one block per orbit type of ``conj``.

``realforms.fixed_point_table`` solves one block per orbit type of ``conj``
on the monomial keys (``realforms.orbit_types``), for a map of any number
of conjugations, and ``realforms.fixed_point_coords`` relabels each block
into every orbit of its type.  The oracle is
``dense_reference.global_fixed_point_coords``, one null space on all real
coordinates of ``g(A)``: the two must give the same vectors in the same
order, each dict with its keys in the same order, and raise the same
``MembershipError`` where a basis vector's image leaves ``g``.

``realforms.representability_check`` eliminates the products (real fixed
coefficient) x (fixed vector) once per orbit type (``_product_block``).
Relabelled here into every orbit of the type, the blocks must equal the
oracle ``dense_reference.global_product_span``, one elimination of all
products on all real coordinates.  The decisions themselves relabel
nothing: they read their dimensions and verdicts off the blocks.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

import dense_reference
from dense_reference import global_fixed_point_coords, global_product_span, global_witness_in_span
from superforms import linalg, realforms
from superforms.algebra import (
    EVEN, GRADED, ODD, STANDARD, AlgebraSignature, SuperNumber, basis_keys, conjugate_monomial,
)
from superforms.catalog import applicable_names, build, param_choices
from superforms.exprs import ad_step, conj_step
from superforms.groups import lie_fixed_span_check
from superforms.liealg import MembershipError, MatrixKind, OSP, SL, basis_of
from superforms.realforms import (
    CoordLayout, extract_vector_conjugation, fixed_point_coords, representability_check,
)
from superforms.scalars import GaussianRational, I, ONE, ZERO

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
    # complex-linear: k = 0, so conj^0 keeps every key; each orbit of conj
    # is still one block, each of its keys mapped to itself
    desc = build("xi2", MatrixKind(OSP, 2, 2), strict=True)
    sig = AlgebraSignature(*shape, desc.conjugation)
    assert desc.compiled.conjugations == 0
    assert all(conjugate_monomial(sig, key, 0)[0] == key for key in basis_keys(sig))
    assert_matches_oracle(desc, sig)


@pytest.mark.parametrize("extra", [1, 2], ids=["k2", "k3"])
@pytest.mark.parametrize("name", ["sigma1", "omega2"])
def test_orbit_blocks_for_more_conjugations(name, extra):
    # conj^k maps each orbit of conj into itself, its signs fixed by conj's
    # there, so the orbit types of conj serve any number k of conjugations
    base = build(name, MatrixKind(SL, 2, 1))
    desc = base._replace(steps=(conj_step(),) * extra + base.steps)
    assert desc.compiled.conjugations == base.compiled.conjugations + extra == 1 + extra
    shapes = [(1, 0, 1), (2, 0, 1)] + [(1, 1, 1)] * (desc.conjugation == STANDARD)
    for shape in shapes:
        sig = AlgebraSignature(*shape, desc.conjugation)
        assert len(assert_matches_oracle(desc, sig)) > 0


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


def relabelled(layout, kind, parity, orbits, block, parts=1):
    """A type's block relabelled into every orbit of the type on a layout:
    its local coordinate ``a * size + s`` is ``(v_a, orbit[s])``, ``v_a``
    the ``a``-th basis vector of ``parity``, each complex coordinate taking
    ``parts`` real ones."""
    indices = [v.index for v in basis_of(kind) if v.parity == parity]
    vectors = []
    for orbit in orbits:
        embed = [parts * (layout.offsets[i] + layout.rank(key, parity)) + part
                 for i in indices for key in orbit for part in range(parts)]
        vectors += [{embed[p]: z for p, z in vec.items()} for vec in block]
    return vectors


@given(st.sampled_from(PRODUCT_SPAN_CASES))
@settings(max_examples=200, deadline=None)
def test_orbit_product_spans_equal_the_global_elimination(case):
    desc, sig = case
    phi = extract_vector_conjugation(desc)
    layout = CoordLayout(desc.kind, sig)
    span = []
    for parity in (EVEN, ODD):
        vectors = realforms.real_fixed_vectors(phi, parity)
        for signs, orbits in realforms.orbit_types(sig, parity).items():
            block = realforms._product_block(desc.kind, parity, signs, vectors)
            span += relabelled(layout, desc.kind, parity, orbits, block, parts=2)
    span.sort(key=max)
    expected = [list(v.items()) for v in global_product_span(phi, sig, layout)]
    assert [list(v.items()) for v in span] == expected


def record_eliminations(monkeypatch):
    """Record each :func:`linalg.span_basis` call as ``(stage, vectors)``:
    the stage is ``"solve"`` inside a :func:`linalg.nullspace` (a block of
    fixed points or coefficients), ``"products"`` inside a product block of
    :func:`realforms.representability_check`, and ``"membership"`` else."""
    calls, stage = [], ["membership"]
    span_basis = linalg.span_basis

    def staged(name, func):
        def wrapped(*args):
            stage.append(name)
            try:
                return func(*args)
            finally:
                stage.pop()
        return wrapped

    def counted(vectors):
        vectors = list(vectors)
        calls.append((stage[-1], len(vectors)))
        return span_basis(vectors)

    monkeypatch.setattr(linalg, "span_basis", counted)
    monkeypatch.setattr(linalg, "nullspace", staged("solve", linalg.nullspace))
    monkeypatch.setattr(realforms, "_product_block", staged("products", realforms._product_block))
    return calls


def test_one_product_elimination_per_orbit_type_of_conj(monkeypatch):
    # the witness of sl(2|2) sigma1 at 4 pairs and 4 even nilpotents has
    # 30,720 products; each elimination takes one orbit type's few
    desc = build("sigma1", MatrixKind(SL, 2, 2))
    sig = AlgebraSignature(4, 0, 4, desc.conjugation)
    solves = []
    fixed_vectors = realforms.fixed_vectors

    def counted_fixed_vectors(count, image):
        solves.append(sys._getframe(1).f_code.co_name)
        return fixed_vectors(count, image)

    eliminations = record_eliminations(monkeypatch)
    monkeypatch.setattr(realforms, "fixed_vectors", counted_fixed_vectors)
    result = representability_check(desc, sig)
    assert result["representable"] is True
    assert result["product_span_rank"] == result["expected_fixed_dimension"] == 30720
    products = [size for stage, size in eliminations if stage == "products"]
    assert len(products) == len(orbit_types(desc, sig, k=1)) > 1
    assert max(size for _, size in eliminations) < 30720
    assert "membership" not in {stage for stage, _ in eliminations}
    assert solves and set(solves) == {"_orbit_block"}


@pytest.mark.parametrize("name", ["sigma1", "omega2"])
def test_the_decisions_relabel_nothing(monkeypatch, name):
    # both decisions read dimensions and agreement off the tables of orbit
    # types, so neither reads a key's rank in the layout of g(A)
    desc = build(name, MatrixKind(SL, 2, 2))
    sig = AlgebraSignature(4, 0, 4, desc.conjugation)
    ranks = []
    rank = CoordLayout.rank

    def counted(layout, key, parity):
        ranks.append(key)
        return rank(layout, key, parity)

    monkeypatch.setattr(CoordLayout, "rank", counted)
    result = representability_check(desc, sig)
    spans = lie_fixed_span_check(desc, sig)
    assert ranks == []
    assert result["representable"] is (desc.conjugation == STANDARD)
    assert spans["spans_agree"] is True
    assert result["fixed_dimension"] == spans["group_fixed_dimension"] == spans["expected_dimension"] == 30720
    # relabelling into coordinates does read ranks, one per orbit key
    fixed_point_coords(desc, AlgebraSignature(1, 0, 0, desc.conjugation), desc.compiled)
    assert len(ranks) == 4


GRADED_ROWS = [build(name, kind, p, q) for kind in SMALL_SHAPES for name in applicable_names(kind)
               for p, q in param_choices(name, kind) if build(name, kind, p, q).conjugation == GRADED]
WITNESS_CASES = [(desc, AlgebraSignature(pairs, 0, nil, GRADED))
                 for desc in GRADED_ROWS for pairs in (1, 2) for nil in (0, 1)]


def plant_odd_span(monkeypatch, desc, sig, witness_only=False):
    """Plant the odd part of the product span, in the package and in the
    oracle.  By default it is all of the odd part: every odd vector and
    ``i`` times it are taken as fixed, and every key of an odd orbit as a
    fixed coefficient.  With ``witness_only`` the vectors are ``v`` and
    ``-i phi(v)``, ``v`` the first odd vector, and the coefficients of an
    odd orbit ``(t, t~)`` are ``t`` and ``i t~``: the span holds the witness
    ``t1 (x) v + t1~ (x) phi(v)`` but not the same with its keys swapped.
    The witness lies in the span either way."""
    odd_types = {signs for parity, signs in orbit_types(desc, sig, k=1) if parity == ODD}
    assert odd_types and not odd_types & {signs for parity, signs in orbit_types(desc, sig, k=1) if parity == EVEN}
    real_fixed_vectors, orbit_coefficients = realforms.real_fixed_vectors, realforms._orbit_coefficients
    global_real_fixed_elements = dense_reference.global_real_fixed_elements
    units = (ONE, I) if witness_only else (ONE, ONE)
    if witness_only:
        v = next(v.index for v in basis_of(desc.kind) if v.parity == ODD)
        odd_vectors = [{v: ONE}, {j: -(c * I) for j, c in extract_vector_conjugation(desc).coords[v]}]
    else:
        odd_vectors = [{v.index: unit} for v in basis_of(desc.kind) if v.parity == ODD for unit in (ONE, I)]

    def vectors(phi, parity):
        return real_fixed_vectors(phi, parity) if parity == EVEN else odd_vectors

    def coefficients(signs):
        return [{s: units[s]} for s in range(len(signs))] if signs in odd_types else orbit_coefficients(signs)

    def elements(sig, parity):
        if parity == EVEN:
            return global_real_fixed_elements(sig, parity)
        # a key is the second of its orbit when its partner lies below it
        return [SuperNumber(sig, {key: units[conjugate_monomial(sig, key, 1)[0] < key]}) for key in basis_keys(sig, ODD)]

    for module in (realforms, dense_reference):
        monkeypatch.setattr(module, "real_fixed_vectors", vectors)
    monkeypatch.setattr(realforms, "_orbit_coefficients", coefficients)
    monkeypatch.setattr(dense_reference, "global_real_fixed_elements", elements)


def test_the_witness_case_set_covers_the_graded_rows():
    assert {desc.kind for desc in GRADED_ROWS} == set(SMALL_SHAPES)
    assert len(WITNESS_CASES) == 4 * len(GRADED_ROWS) == 164


@pytest.mark.parametrize("planted", [None, "odd-part", "witness"], ids=["catalog", "planted", "witness-span"])
@pytest.mark.parametrize("case", WITNESS_CASES, ids=lambda c: (
    f"{c[0].display()}-P{c[1].odd_pairs}E{c[1].even_nilpotents}"))
def test_the_witness_in_its_orbit_matches_the_global_membership(monkeypatch, case, planted):
    # the witness-span planting tells the witness's keys apart on the
    # local coordinates of its orbit type
    desc, sig = case
    if planted:
        plant_odd_span(monkeypatch, desc, sig, witness_only=planted == "witness")
    result = representability_check(desc, sig)
    assert result["witness_in_product_span"] is global_witness_in_span(desc, sig) is (planted is not None)


@pytest.mark.parametrize("planted", [False, True], ids=["catalog", "planted"])
def test_the_witness_membership_reduces_one_orbit_block(monkeypatch, planted):
    # the graded witness of sl(2|2) omega2 at 4 pairs and 4 even nilpotents
    # faces a product span of rank 14,336, of which its orbit {t1, t1~}
    # holds no vector, or 2 keys x 2 parts x 8 odd vectors when planted
    desc = build("omega2", MatrixKind(SL, 2, 2))
    sig = AlgebraSignature(4, 0, 4, desc.conjugation)
    odd = sum(v.parity == ODD for v in basis_of(desc.kind))
    if planted:
        plant_odd_span(monkeypatch, desc, sig)
    eliminations = record_eliminations(monkeypatch)
    result = representability_check(desc, sig)
    assert result["product_span_rank"] >= 14336
    assert [size for stage, size in eliminations if stage == "membership"] == [2 * 2 * odd + 1 if planted else 1]
    assert result["witness_in_product_span"] is planted

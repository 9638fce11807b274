"""Real structures on the matrix families: the six axioms, extraction of the
underlying vector-level conjugation, fixed points, representability,
compactness."""

import pytest

from superforms.algebra import AlgebraSignature, GRADED, STANDARD
from superforms.catalog import build, corrupted_sigma1
from superforms.groups import lie_fixed_span_check, verify_group_structure
from superforms.liealg import MatrixKind, OSP, SL, combination_cells
from superforms.realforms import (
    ExtractionMismatch, compact_scan, compactness_data, extract_vector_conjugation,
    fixed_point_coords, fixed_point_data, rebuild_matches, representability_check,
    verify_structure,
)
from superforms.scalars import I, MINUS_I, MINUS_ONE, ONE, ZERO

SIG1S = AlgebraSignature(1, 0, 0, STANDARD)
SIG1G = AlgebraSignature(1, 0, 0, GRADED)
SIG2S = AlgebraSignature(2, 0, 0, STANDARD)
SIG2G = AlgebraSignature(2, 0, 0, GRADED)

SHAPES = [(SL, 1, 1), (SL, 2, 1), (SL, 2, 2), (OSP, 1, 2), (OSP, 2, 2)]


def sig_for(desc, pairs=1):
    std = SIG1S if pairs == 1 else SIG2S
    grd = SIG1G if pairs == 1 else SIG2G
    return std if desc.conjugation == STANDARD else grd


def all_descriptors():
    from superforms.catalog import applicable_names
    for fam, m, n in SHAPES:
        kind = MatrixKind(fam, m, n)
        for name in applicable_names(kind):
            yield build(name, kind)


def test_every_descriptor_passes_all_axioms():
    for desc in all_descriptors():
        checks = verify_structure(desc, sig_for(desc), samples=15, seed=10)
        statuses = {c.name: c.status for c in checks}
        assert set(statuses.values()) == {"pass"}, (desc.display(), statuses)


def test_axioms_with_richer_coefficients():
    # two odd pairs, a self-real generator (standard only), an even nilpotent
    cases = [
        (build("sigma1", MatrixKind(SL, 2, 1), p=1, q=0),
         AlgebraSignature(2, 1, 1, STANDARD)),
        (build("omega2", MatrixKind(SL, 2, 2), p=1, q=1),
         AlgebraSignature(2, 0, 1, GRADED)),
        (build("psi1", MatrixKind(OSP, 2, 2), p=1, q=0),
         AlgebraSignature(2, 0, 0, GRADED)),
    ]
    for desc, sig in cases:
        checks = verify_structure(desc, sig, samples=10, seed=11)
        assert all(c.status == "pass" for c in checks), desc.display()


@pytest.mark.parametrize("samples", [0, -3])
def test_sampled_checks_refuse_no_samples(samples):
    desc = build("sigma3", MatrixKind(SL, 1, 1))
    with pytest.raises(ValueError):
        verify_structure(desc, SIG1S, samples=samples)
    with pytest.raises(ValueError):
        rebuild_matches(desc, extract_vector_conjugation(desc), SIG1S, samples=samples)


def test_evenness_check_catches_a_block_mixing_map():
    from superforms.catalog import Descriptor
    from superforms.exprs import ad_step, conj_step

    swap = [[ONE, ZERO, ZERO], [ZERO, ZERO, ONE], [ZERO, ONE, ZERO]]     # trades an even and an odd index
    desc = Descriptor("mixing", MatrixKind(SL, 2, 1), STANDARD, (ad_step("swap", swap), conj_step()))
    statuses = {c.name: c.status for c in verify_structure(desc, SIG1S, samples=3)}
    assert statuses["evenness"] == "fail"
    assert statuses["antilinearity"] == "pass"


def test_extraction_rejects_a_complex_linear_map():
    # the printed xi2 keeps t1 where a pointwise conjugation must give t1~
    strict = build("xi2", MatrixKind(OSP, 2, 2), strict=True)
    with pytest.raises(ExtractionMismatch, match="odd vector 4 is not of conjugated-coefficient form"):
        extract_vector_conjugation(strict)


def test_group_only_descriptor_is_refused_everywhere():
    # one guard on the compiled map gives every algebra-level route the same error
    from superforms.catalog import Descriptor
    from superforms.exprs import conj_step, ginv_step
    from superforms.groups import lie_fixed_span_check
    from superforms.realforms import fixed_point_coords

    desc = Descriptor("x", MatrixKind(SL, 1, 1), STANDARD, (conj_step(), ginv_step()))
    for check in (extract_vector_conjugation, compactness_data,
                  lambda d: fixed_point_coords(d, SIG1S, d.compiled), lambda d: fixed_point_data(d, SIG1S),
                  lambda d: representability_check(d, SIG1S), lambda d: lie_fixed_span_check(d, SIG1S),
                  lambda d: verify_structure(d, SIG1S, samples=1)):
        with pytest.raises(ValueError, match="^matrix inverse is a group-level step$"):
            check(desc)


def test_strict_xi2_flagged_not_failed():
    strict = build("xi2", MatrixKind(OSP, 2, 2), p=1, strict=True)
    checks = verify_structure(strict, SIG1S, samples=10, seed=12)
    statuses = {c.name: c.status for c in checks}
    assert statuses["antilinearity"] == "flagged"
    assert statuses["involutivity"] == "flagged"
    assert statuses["naturality"] == "flagged"
    assert "fail" not in statuses.values()
    flagged = [c for c in checks if c.status == "flagged"]
    assert all(c.witness for c in flagged)        # counterexamples still reported


def test_corrupted_control_fails_bracket_with_witness():
    cor = corrupted_sigma1(MatrixKind(SL, 2, 1))
    checks = verify_structure(cor, SIG1S, samples=10, seed=13)
    statuses = {c.name: c.status for c in checks}
    # negating an antiautomorphism-style structure preserves involutivity and
    # antilinearity but breaks the bracket morphism
    assert statuses["bracket-morphism"] == "fail"
    assert statuses["involutivity"] == "pass"
    assert statuses["antilinearity"] == "pass"
    witness = [c for c in checks if c.name == "bracket-morphism"][0].witness
    assert witness and {"x", "y", "lhs", "rhs"} <= set(witness)


def grid_of(phi, index):
    cells = combination_cells(phi.kind, phi.coords[index])
    return [[cells.get((a, b), ZERO) for b in range(phi.kind.size)] for a in range(phi.kind.size)]


def test_extraction_oracle_sigma3_sl11():
    # the equal-blocks transpose-free structure swaps the two odd units
    phi = extract_vector_conjugation(build("sigma3", MatrixKind(SL, 1, 1)))
    assert grid_of(phi, 1) == [[ZERO, ZERO], [ONE, ZERO]]     # E12 -> E21
    assert grid_of(phi, 2) == [[ZERO, ONE], [ZERO, ZERO]]     # E21 -> E12
    assert grid_of(phi, 0) == [[ONE, ZERO], [ZERO, ONE]]      # fixes E11+E22


def test_extraction_oracle_omega3_sl11():
    # graded variant introduces +/- i on the odd part
    phi = extract_vector_conjugation(build("omega3", MatrixKind(SL, 1, 1)))
    assert grid_of(phi, 1) == [[ZERO, ZERO], [MINUS_I, ZERO]]  # E12 -> -i E21
    assert grid_of(phi, 2) == [[ZERO, I], [ZERO, ZERO]]       # E21 -> +i E12


def test_extraction_oracle_omega2_sl11():
    phi = extract_vector_conjugation(build("omega2", MatrixKind(SL, 1, 1), p=1, q=1))
    assert grid_of(phi, 1) == [[ZERO, ZERO], [MINUS_ONE, ZERO]]  # E12 -> -E21
    assert grid_of(phi, 2) == [[ZERO, ONE], [ZERO, ZERO]]        # E21 -> E12


def test_extraction_square_law_and_rebuild():
    # extract_vector_conjugation itself verifies the square law (phi^2 = id for
    # standard, parity sign for graded) on every basis vector and raises on
    # violation; here we extract every descriptor and check the rebuild matches
    # the structure on samples.
    for desc in all_descriptors():
        phi = extract_vector_conjugation(desc)
        assert phi.conjugation == desc.conjugation
        out = rebuild_matches(desc, phi, sig_for(desc), samples=10, seed=14)
        assert out.status == "pass", desc.display()


def test_fixed_point_dimension_formula():
    # an antilinear involution fixes a real subspace of real dimension equal
    # to the complex dimension of the ambient space
    for desc in all_descriptors():
        if desc.kind.size > 4:
            continue
        points, layout, expected = fixed_point_data(desc, sig_for(desc))
        assert len(points) == expected, desc.display()
        assert expected == layout.complex_dim


def test_representability_dichotomy():
    for desc in all_descriptors():
        result = representability_check(desc, sig_for(desc))
        if desc.conjugation == STANDARD:
            assert result["mode"] == "span-comparison"
            assert result["representable"] is True, desc.display()
        else:
            assert result["mode"] == "witness"
            assert result["witness_fixed"] is True, desc.display()
            assert result["witness_in_product_span"] is False, desc.display()
            assert result["representable"] is False


def test_graded_witness_needs_an_odd_pair(monkeypatch):
    # the preconditions are checked before any extraction or fixed point
    from superforms import realforms

    def forbidden(*args):
        raise AssertionError("work done before the graded preconditions")

    monkeypatch.setattr(realforms, "extract_vector_conjugation", forbidden)
    monkeypatch.setattr(realforms, "fixed_point_coords", forbidden)
    desc = build("omega3", MatrixKind(SL, 1, 1))
    with pytest.raises(ValueError, match="odd pair"):
        representability_check(desc, AlgebraSignature(0, 0, 0, GRADED))
    with pytest.raises(ValueError, match="no odd vectors"):
        representability_check(build("omega2", MatrixKind(SL, 2, 0)), SIG1G)


OTHER_CONJUGATION_CHECKS = {
    "verify_structure": lambda d, s: verify_structure(d, s, samples=1),
    "verify_group_structure": lambda d, s: verify_group_structure(d, s, samples=1),
    "rebuild_matches": lambda d, s: rebuild_matches(d, extract_vector_conjugation(d), s, samples=1),
    "fixed_point_coords": lambda d, s: fixed_point_coords(d, s, d.compiled),
    "fixed_point_data": fixed_point_data,
    "representability_check": representability_check,
    "lie_fixed_span_check": lie_fixed_span_check,
}


@pytest.mark.parametrize("check", OTHER_CONJUGATION_CHECKS.values(), ids=OTHER_CONJUGATION_CHECKS.keys())
@pytest.mark.parametrize("name", ["sigma1", "omega2"])
def test_a_coefficient_algebra_of_the_other_conjugation_is_refused(check, name):
    # the graded omega2 over a standard algebra used to give 8 fixed points
    # of 16 and still report agreeing spans and representability
    desc = build(name, MatrixKind(SL, 2, 1))
    other = GRADED if desc.conjugation == STANDARD else STANDARD
    with pytest.raises(ValueError, match=f"needs {desc.conjugation} conjugation, got {other}"):
        check(desc, AlgebraSignature(1, 0, 0, other))


def test_compactness_signature_dependence():
    # boundary parameters give the compact form; mixed signature does not
    compact = compactness_data(build("omega2", MatrixKind(SL, 2, 1), p=2, q=1))
    assert compact["compact"] is True
    mixed = compactness_data(build("omega2", MatrixKind(SL, 2, 1), p=1, q=1))
    assert mixed["compact"] is False
    assert compact["dimension"] == mixed["dimension"] > 0
    # minors of the compact row are all positive rationals
    for minor_text in compact["minors"]:
        assert not minor_text.startswith("-")


def test_compact_scan_summary():
    scan = compact_scan(MatrixKind(SL, 2, 1))
    summary = scan["summary"]
    assert "sl(2|1):omega2(2,1)" in summary["compact_graded"]
    assert summary["distinct_compact_graded_even_spans"] == 1
    rows = {r.get("display"): r for r in scan["rows"] if r["applicable"]}
    assert rows["sl(2|1):omega2(2,1)"]["compact"] is True
    assert rows["sl(2|1):omega2(1,1)"]["compact"] is False
    # inapplicable descriptors are reported with a reason, not dropped
    inapplicable = [r for r in scan["rows"] if not r["applicable"]]
    assert {r["descriptor"] for r in inapplicable} == {"sigma2", "sigma3", "sigma4", "omega1", "omega3"}
    assert all(r["reason"] for r in inapplicable)


def test_verify_refuses_an_algebra_without_room_for_the_dual_generator(monkeypatch):
    # the naturality battery adjoins one even generator; four are the most
    from superforms import realforms

    def no_sample(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(realforms, "random_point", no_sample)
    with pytest.raises(ValueError, match="at most 4 even nilpotent"):
        verify_structure(build("sigma1", MatrixKind(SL, 1, 1)), AlgebraSignature(1, 0, 4, STANDARD))

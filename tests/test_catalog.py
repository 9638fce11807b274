"""Descriptor catalog: applicability conditions, parameters, display names."""

import pytest

from superforms.algebra import GRADED, STANDARD
from superforms.catalog import (
    InapplicableDescriptor, OSP_NAMES, PARAM_ARITY, SL_NAMES, applicable_names, build,
    corrupted_sigma1, descriptor_summary, names_for, param_choices,
)
from superforms.liealg import MatrixKind, OSP, SL


def test_name_tables():
    assert names_for(MatrixKind(SL, 2, 1)) == SL_NAMES
    assert names_for(MatrixKind(OSP, 2, 2)) == OSP_NAMES


def test_applicability_conditions():
    assert applicable_names(MatrixKind(SL, 1, 1)) == ("sigma1", "sigma3", "omega2", "omega3")
    assert applicable_names(MatrixKind(SL, 2, 1)) == ("sigma1", "omega2")
    assert applicable_names(MatrixKind(SL, 2, 2)) == SL_NAMES
    assert applicable_names(MatrixKind(OSP, 1, 2)) == ("xi1", "psi1")
    assert applicable_names(MatrixKind(OSP, 2, 2)) == OSP_NAMES


def test_conjugation_families():
    # sigma/xi act over standard conjugation, omega/psi over graded
    for name in ("sigma1", "sigma3"):
        assert build(name, MatrixKind(SL, 1, 1)).conjugation == STANDARD
    for name in ("omega2", "omega3"):
        assert build(name, MatrixKind(SL, 1, 1)).conjugation == GRADED
    assert build("xi1", MatrixKind(OSP, 1, 2)).conjugation == STANDARD
    assert build("psi2", MatrixKind(OSP, 2, 2)).conjugation == GRADED


def test_parameter_defaults_and_ranges():
    desc = build("sigma1", MatrixKind(SL, 2, 1))
    assert desc.param_dict() == {"p": 2, "q": 1}
    desc = build("sigma1", MatrixKind(SL, 2, 1), p=1, q=0)
    assert desc.param_dict() == {"p": 1, "q": 0}
    with pytest.raises(InapplicableDescriptor):
        build("sigma1", MatrixKind(SL, 2, 1), p=3)
    with pytest.raises(InapplicableDescriptor):
        build("xi2", MatrixKind(OSP, 2, 2), p=2)     # p ranges over half the odd block
    desc = build("xi2", MatrixKind(OSP, 2, 2))
    assert desc.param_dict() == {"p": 1}


def test_param_choices_are_exactly_the_accepted_parameters():
    def accepts(name, kind, p, q):
        try:
            build(name, kind, p, q)
            return True
        except InapplicableDescriptor:
            return False

    for kind in (MatrixKind(SL, 2, 1), MatrixKind(SL, 2, 2), MatrixKind(OSP, 1, 2), MatrixKind(OSP, 2, 4)):
        for name in applicable_names(kind):
            arity = PARAM_ARITY.get(name, 0)
            ps = range(-1, 6) if arity >= 1 else (None,)
            qs = range(-1, 6) if arity == 2 else (None,)
            accepted = [(p, q) for p in ps for q in qs if accepts(name, kind, p, q)]
            assert param_choices(name, kind) == accepted, (kind, name)


def test_side_conditions():
    with pytest.raises(InapplicableDescriptor):
        build("sigma2", MatrixKind(SL, 2, 1))        # needs both blocks even-sized
    with pytest.raises(InapplicableDescriptor):
        build("sigma3", MatrixKind(SL, 2, 1))        # needs equal blocks
    with pytest.raises(InapplicableDescriptor):
        build("omega1", MatrixKind(SL, 2, 1))        # needs even lower block
    with pytest.raises(InapplicableDescriptor):
        build("xi2", MatrixKind(OSP, 1, 2))          # needs even upper block
    with pytest.raises(InapplicableDescriptor):
        build("psi2", MatrixKind(OSP, 1, 2))


def test_display():
    assert build("sigma1", MatrixKind(SL, 2, 1), p=1, q=1).display() == "sl(2|1):sigma1(1,1)"
    assert build("sigma1", MatrixKind(SL, 2, 1), p=1, q=1).display(group=True) == "SL(2|1):Sigma1(1,1)"
    assert build("omega3", MatrixKind(SL, 1, 1)).display() == "sl(1|1):omega3"
    assert build("xi1", MatrixKind(OSP, 2, 2), p=1).display(group=True) == "OSp(2|2):Xi1(1)"


def test_lift_forms():
    # antiautomorphism-based descriptors lift through negate-and-invert
    for name, expected in (("sigma1", "inverse-neg"), ("sigma2", "direct"),
                           ("sigma3", "direct"), ("sigma4", "inverse-neg"),
                           ("omega1", "direct"), ("omega2", "inverse-neg"),
                           ("omega3", "direct")):
        desc = build(name, MatrixKind(SL, 2, 2))
        assert desc.lift_form == expected, name
        steps = desc.lift_steps()
        if expected == "inverse-neg":
            assert steps[0] == ("ginv",) and steps[1] == ("neg",)
        else:
            assert steps == desc.steps


def test_strict_variant_only_for_xi2():
    strict = build("xi2", MatrixKind(OSP, 2, 2), strict=True)
    assert strict.strict
    assert strict.expected_flagged == frozenset({"antilinearity", "involutivity", "naturality",
                                                 "dual-equivariance"})
    assert strict.steps != build("xi2", MatrixKind(OSP, 2, 2)).steps
    for kind, names in ((MatrixKind(SL, 2, 2), SL_NAMES), (MatrixKind(OSP, 2, 2), OSP_NAMES)):
        for name in names:
            if name == "xi2":
                continue
            plain = build(name, kind)
            other = build(name, kind, strict=True)
            assert not other.strict, name
            assert other.expected_flagged == frozenset(), name
            assert other.steps == plain.steps, name
            # the permanent note, if any, comes first; the no-op note last
            assert other.notes[:-1] == plain.notes, name
            assert "no strict variant" in other.notes[-1], name


def test_permanent_notes():
    assert any("sigma1" in note for note in build("sigma1", MatrixKind(SL, 2, 1)).notes)
    assert any("psi1" in note for note in build("psi1", MatrixKind(OSP, 1, 2)).notes)


def test_corrupted_control_shape():
    cor = corrupted_sigma1(MatrixKind(SL, 2, 1))
    good = build("sigma1", MatrixKind(SL, 2, 1))
    assert cor.steps[0] == ("neg",)
    assert cor.steps[1:] == good.steps
    assert cor.name != good.name


def test_summary_is_json_friendly():
    import json
    desc = build("omega2", MatrixKind(SL, 2, 2), p=1, q=2)
    summary = descriptor_summary(desc, group=True)
    text = json.dumps(summary)
    assert "Omega2" in text and "inverse-neg" in text


def test_step_table_rejects_unknown_tags_and_algebra_level_inverse():
    from superforms.algebra import AlgebraSignature
    from superforms.exprs import apply_expr, expr_display, ginv_step
    from superforms.matrices import identity_matrix

    x = identity_matrix(1, 1, AlgebraSignature(1, 0, 0, STANDARD))
    with pytest.raises(ValueError, match="unknown step"):
        apply_expr([("bogus",)], x)
    with pytest.raises(ValueError, match="unknown step"):
        expr_display([("bogus",)])
    with pytest.raises(ValueError, match="group-level"):
        apply_expr([ginv_step()], x)

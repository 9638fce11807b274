"""Group checks read through ``N = Descriptor.lift_map``: the package's
outcomes equal the ``F``-form oracle's, every check can fail, an inverse-neg
lift inverts one matrix per sample, and a singular ``N`` image raises as the
lift does.  The group side of the fixed-span check reads the vector action
of ``N``, or ``-N`` for an inverse-neg lift, which is the compiled structure
for every catalog lift; its fixed vectors equal those of the ``F``-form
oracle, and a lift that leaves the kernel raises as the oracle does."""

import pytest

from group_reference import layout_fixed_vectors, reference_fixed_span_maps, reference_verify_group_structure
from superforms import groups, realforms
from superforms.algebra import AlgebraSignature, STANDARD
from superforms.catalog import Descriptor, applicable_names, build, corrupted_sigma1
from superforms.exprs import PositionalMap, delta_step
from superforms.liealg import MatrixKind, OSP, SL
from superforms.matrices import NotInvertibleMatrix, zero_matrix
from superforms.scalars import GaussianRational

SL_SHAPES = [MatrixKind(SL, 1, 1), MatrixKind(SL, 2, 1), MatrixKind(SL, 2, 2)]
OSP_SHAPES = [MatrixKind(OSP, 1, 2), MatrixKind(OSP, 2, 2)]


def unconjugated(desc):
    return desc._replace(name=desc.name + "-unconjugated",
                         steps=tuple(step for step in desc.steps if step[0] != "conj"))


def planted_lifts(kind):
    """Two inverse-neg lifts planted wrong: sigma1 without its conjugation,
    and sigma1 after a scaling of the off-diagonal blocks by 1+i."""
    sigma1 = build("sigma1", kind)
    return [
        unconjugated(sigma1),
        sigma1._replace(name="sigma1-scaled", steps=(delta_step(GaussianRational(1, 1)),) + sigma1.steps),
    ]


CASES = (
    [(build(name, kind), pairs) for kind in SL_SHAPES + OSP_SHAPES
     for name in applicable_names(kind) for pairs in (0, 1)]
    + [(corrupted_sigma1(kind), pairs) for kind in SL_SHAPES for pairs in (0, 1)]
    + [(desc, pairs) for kind in SL_SHAPES for desc in planted_lifts(kind) for pairs in (0, 1, 2)]
)


def case_id(case):
    desc, pairs = case
    return f"{desc.display(group=True)}-P{pairs}"


def sig_for(desc, pairs):
    return AlgebraSignature(pairs, 0, 0, desc.conjugation)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_outcomes_equal_the_f_form_oracle(case):
    desc, pairs = case
    sig = sig_for(desc, pairs)
    assert (groups.verify_group_structure(desc, sig, samples=4, seed=31)
            == reference_verify_group_structure(desc, sig, samples=4, seed=31))


def test_every_check_fails_somewhere_in_the_oracle_set():
    failed = {}
    for desc, pairs in CASES:
        for outcome in groups.verify_group_structure(desc, sig_for(desc, pairs), samples=4, seed=31):
            if outcome.status == "fail":
                assert outcome.witness, (case_id((desc, pairs)), outcome.name)
                failed.setdefault(outcome.name, case_id((desc, pairs)))
    assert set(failed) == set(groups.GROUP_CHECK_NAMES), failed


def count_inverses(monkeypatch, verify, desc, samples):
    calls = []
    inverse = groups.matrix_inverse

    def counted(x):
        calls.append(x)
        return inverse(x)

    monkeypatch.setattr(groups, "matrix_inverse", counted)
    verify(desc, sig_for(desc, 1), samples=samples, seed=5)
    return len(calls)


@pytest.mark.parametrize("samples", [1, 3])
def test_an_inverse_neg_lift_inverts_one_matrix_per_sample(monkeypatch, samples):
    kind = MatrixKind(SL, 2, 2)
    sigma1, sigma3 = build("sigma1", kind), build("sigma3", kind)
    assert (sigma1.lift_form, sigma3.lift_form) == ("inverse-neg", "direct")
    assert count_inverses(monkeypatch, groups.verify_group_structure, sigma1, samples) == samples
    assert count_inverses(monkeypatch, reference_verify_group_structure, sigma1, samples) == 6 * samples
    assert count_inverses(monkeypatch, groups.verify_group_structure, sigma3, samples) == 0


def plant_lift_map(monkeypatch, base, apply):
    """Make every descriptor's ``lift_map`` ``base`` with its ``apply``
    replaced by ``apply(base, x)``."""
    class Planted(PositionalMap):
        def apply(self, x):
            return apply(base, x)
    planted = Planted(*base)
    monkeypatch.setattr(Descriptor, "lift_map", property(lambda desc: planted))


@pytest.mark.parametrize("desc, sample", [
    (build("sigma1", MatrixKind(SL, 2, 1)), 0),
    # every check of this lift fails in its first sample at seed 8
    (unconjugated(corrupted_sigma1(MatrixKind(SL, 2, 1))), 1),
], ids=["sigma1-first-sample", "all-failing-second-sample"])
@pytest.mark.parametrize("position", range(6),
                         ids=["x", "y", "xy", "F(x)", "z", "D_a z"])
def test_a_singular_image_raises_as_the_lift_does(monkeypatch, desc, sample, position):
    # the F-form oracle applies N to x, y, xy, F(x), z and D_a z, in that
    # order, in each sample; N planted singular on one of them must make
    # both loops raise.  In the second sample of a lift whose every check
    # failed in the first, the witnesses are taken, so only the package's
    # own invertibility tests can raise.
    sig = sig_for(desc, 1)
    lift_map = desc.lift_map
    if sample:
        assert {c.status for c in groups.verify_group_structure(desc, sig, samples=1, seed=8)} == {"fail"}
    seen = []

    def recording(base, x):
        seen.append(x)
        return PositionalMap.apply(base, x)

    plant_lift_map(monkeypatch, lift_map, recording)
    reference_verify_group_structure(desc, sig, samples=2, seed=8)
    assert len(seen) == 12 and all(a != b for i, a in enumerate(seen) for b in seen[:i])
    target = seen[6 * sample + position]

    def singular_on_target(base, x):
        if x == target:
            return zero_matrix(x.m, x.n, x.sig)
        return PositionalMap.apply(base, x)

    plant_lift_map(monkeypatch, lift_map, singular_on_target)
    for verify in (reference_verify_group_structure, groups.verify_group_structure):
        with pytest.raises(NotInvertibleMatrix):
            verify(desc, sig, samples=2, seed=8)


def oracle_span(desc, sig):
    """The fixed vectors of the ``F``-form group side, or the exception it raised."""
    layout, group_side = reference_fixed_span_maps(desc, sig)
    try:
        return layout_fixed_vectors(layout, group_side)
    except (NotInvertibleMatrix, AssertionError) as exc:
        return type(exc), str(exc)


def group_span(monkeypatch, desc, sig):
    """The group side's fixed vectors in :func:`groups.lie_fixed_span_check`,
    the first of its :func:`realforms.fixed_point_coords` calls, or the
    exception the check raised.  It makes one call when the kernel map is
    the compiled structure, as for every catalog lift, and two otherwise."""
    spans = []

    def recorded(*args):
        result = realforms.fixed_point_coords(*args)
        spans.append(result[0])
        return result

    monkeypatch.setattr(groups, "fixed_point_coords", recorded)
    try:
        groups.lie_fixed_span_check(desc, sig)
    except (NotInvertibleMatrix, AssertionError) as exc:
        return type(exc), str(exc)
    assert len(spans) == (1 if groups.kernel_map(desc) == desc.compiled else 2)
    return spans[0]


def span_signatures(desc, pairs):
    """A case's signature, and the same at 2 odd pairs, with an even
    nilpotent, and with a self-real odd generator where the conjugation is
    standard."""
    conjugation = desc.conjugation
    sigs = [AlgebraSignature(pairs, 0, 0, conjugation), AlgebraSignature(2, 0, 0, conjugation),
            AlgebraSignature(pairs, 0, 1, conjugation)]
    if conjugation == STANDARD:
        sigs.append(AlgebraSignature(pairs, 1, 0, conjugation))
    return sigs


SPAN_CASES = list(dict.fromkeys((desc, sig) for desc, pairs in CASES for sig in span_signatures(desc, pairs)))


def span_case_id(case):
    desc, sig = case
    extra = "-S1" * sig.odd_selfreal + "-E1" * sig.even_nilpotents
    return f"{desc.display(group=True)}-P{sig.odd_pairs}{extra}"


@pytest.mark.parametrize("case", SPAN_CASES, ids=span_case_id)
def test_fixed_span_group_side_equals_the_f_form_oracle(monkeypatch, case):
    desc, sig = case
    vectors = group_span(monkeypatch, desc, sig)
    assert vectors == oracle_span(desc, sig)


def test_the_fixed_span_check_evaluates_one_matrix_and_no_kernel_point(monkeypatch):
    sigma1 = build("sigma1", MatrixKind(SL, 2, 2))
    assert sigma1.lift_form == "inverse-neg"
    applied, adjoined = [], []
    apply_expr, adjoin_dual = groups.apply_expr, groups.adjoin_dual
    monkeypatch.setattr(groups, "apply_expr", lambda *args: applied.append(args) or apply_expr(*args))
    monkeypatch.setattr(groups, "adjoin_dual", lambda *args: adjoined.append(args) or adjoin_dual(*args))
    assert groups.lie_fixed_span_check(sigma1, sig_for(sigma1, 1))["spans_agree"] is True
    assert (len(applied), adjoined) == (1, [])


def test_the_fixed_span_check_inverts_no_matrix(monkeypatch):
    sigma1 = build("sigma1", MatrixKind(SL, 2, 2))
    assert sigma1.lift_form == "inverse-neg"
    assert count_inverses(monkeypatch, lambda desc, sig, **_: groups.lie_fixed_span_check(desc, sig),
                          sigma1, 1) == 0
    assert count_inverses(monkeypatch, lambda desc, sig, **_: oracle_span(desc, sig), sigma1, 1) > 0


@pytest.mark.parametrize("name, planted, error", [
    ("sigma1", lambda x: zero_matrix(x.m, x.n, x.sig), NotInvertibleMatrix),
    ("sigma1", lambda x: x + x, AssertionError),
    ("sigma3", lambda x: zero_matrix(x.m, x.n, x.sig), AssertionError),
    ("sigma3", lambda x: x + x, AssertionError),
], ids=["inverse-neg-singular", "inverse-neg-off-kernel", "direct-singular", "direct-off-kernel"])
def test_an_image_off_the_kernel_raises_as_the_lift_does(monkeypatch, name, planted, error):
    # N(z) = 0 is singular, so an inverse-neg F = N^-1 cannot be formed, and
    # a direct F = 0 leaves the kernel; N(z) = 2 z is invertible, but its
    # eps-free part 2 Id leaves the kernel
    desc = build(name, MatrixKind(SL, 2, 2))
    plant_lift_map(monkeypatch, desc.lift_map, lambda base, x: planted(x))
    sig = sig_for(desc, 1)
    outcome = group_span(monkeypatch, desc, sig)
    assert outcome[0] is error
    assert outcome == oracle_span(desc, sig)

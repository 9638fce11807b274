"""Supergroup functors: membership, sampling, lifted structures, the
group-commutator bracket identity, fixed-span agreement."""

import pytest

from group_reference import eps_split, reference_group_commutator_identity
from superforms.algebra import AlgebraSignature, GRADED, STANDARD, adjoin_dual, epsilon, even_mask_of, one
from superforms.catalog import applicable_names, build
from superforms.groups import (
    SL_DRAWS_PER_FACTOR, SamplingFailed, group_contains, group_membership_defect,
    group_commutator_identity, kernel_map, kernel_point, lie_fixed_span_check, sample_group,
    sample_invertible, sample_osp, sample_sl, verify_group_structure,
)
from superforms.liealg import GL, MatrixKind, OSP, SL
from superforms.matrices import berezinian, identity_matrix, osp_form_grid, mul_const, const_matrix, supertranspose
from superforms.sampling import random_point, rng_for

SIG1S = AlgebraSignature(1, 0, 0, STANDARD)
SIG1G = AlgebraSignature(1, 0, 0, GRADED)
SIG0S = AlgebraSignature(0, 0, 0, STANDARD)
SIG0G = AlgebraSignature(0, 0, 0, GRADED)

SL_SHAPES = [MatrixKind(SL, 1, 1), MatrixKind(SL, 2, 1), MatrixKind(SL, 2, 2)]
OSP_SHAPES = [MatrixKind(OSP, 1, 2), MatrixKind(OSP, 2, 2)]


def sig_for(desc, pairs=1):
    if desc.conjugation == STANDARD:
        return SIG1S if pairs else SIG0S
    return SIG1G if pairs else SIG0G


def test_sl_sampling_lands_in_group():
    for kind in SL_SHAPES:
        rng = rng_for(21, "slsample", kind.display())
        for _ in range(6):
            g = sample_sl(kind, SIG1S, rng)
            assert group_membership_defect(kind, g) is None
            assert berezinian(g) == one(SIG1S)


def test_osp_sampling_lands_in_group():
    for kind in OSP_SHAPES:
        rng = rng_for(22, "ospsample", kind.display())
        form = osp_form_grid(kind.m, kind.n)
        for _ in range(6):
            g = sample_osp(kind, SIG1S, rng)
            assert group_contains(kind, g)
            lhs = mul_const(supertranspose(g), form) * g
            assert lhs == const_matrix(kind.m, kind.n, SIG1S, form, check=False)


def test_group_membership_rejections():
    from superforms.algebra import SuperNumber, scalar
    from superforms.scalars import integer
    kind = MatrixKind(SL, 1, 1)
    two, one_, zero = scalar(SIG1S, integer(2)), one(SIG1S), SuperNumber.zero(SIG1S)
    from superforms.matrices import SuperMatrix
    stretched = SuperMatrix(1, 1, SIG1S, [[two, zero], [zero, one_]])
    assert group_membership_defect(kind, stretched) == "Berezinian is not one"
    okind = MatrixKind(OSP, 2, 2)
    assert group_membership_defect(okind, sample_invertible(2, 2, SIG1S, rng_for(1, "rej"))) is not None


def test_sampling_failed_is_reported():
    with pytest.raises(SamplingFailed):
        sample_osp(MatrixKind(OSP, 2, 2), SIG1S, rng_for(1, "fail"), max_tries=0)


class DiagonalDraws:
    """A stub rng whose elementary factors always land on the diagonal; it
    fails the test instead of hanging when the sampler never gives up."""

    def __init__(self):
        self.draws = 0

    def random(self):
        self.draws += 1
        assert self.draws < 100_000, "sample_sl draws without bound"
        return 0.0

    def randrange(self, stop):
        return 0


def test_sl_sampling_gives_up_after_bounded_draws():
    rng = DiagonalDraws()
    with pytest.raises(SamplingFailed):
        sample_sl(MatrixKind(SL, 2, 1), SIG1S, rng, factors=3)
    assert rng.draws == SL_DRAWS_PER_FACTOR * 3


def test_kernel_points_and_eps_split():
    sig = SIG1S
    ext, include, _, eps = adjoin_dual(sig)
    kind = MatrixKind(SL, 2, 1)
    m_pt = random_point(kind, sig, rng_for(23, "kernel"))
    z = kernel_point(m_pt.map_entries(include.apply, ext), eps)
    free, coef = eps_split(z - identity_matrix(2, 1, ext), sig)
    assert free.is_zero()
    assert coef == m_pt
    # group membership of the kernel point: Ber(Id + eps M) = 1 + eps str M = 1
    assert group_membership_defect(kind, z) is None


def test_kernel_points_and_eps_split_over_an_even_nilpotent():
    # the base has an even nilpotent e1, so eps is even generator 1, not 0
    sig = AlgebraSignature(1, 0, 1, STANDARD)
    ext, include, _, eps = adjoin_dual(sig)
    assert eps == epsilon(ext, 1)
    kind = MatrixKind(SL, 2, 1)
    m_pt = random_point(kind, sig, rng_for(23, "kernel-e1"))
    assert any(even_mask_of(key) for row in m_pt.rows for e in row for key, _ in e.items())
    z = kernel_point(m_pt.map_entries(include.apply, ext), eps)
    free, coef = eps_split(z - identity_matrix(2, 1, ext), sig)
    assert free.is_zero()
    assert coef == m_pt
    assert group_membership_defect(kind, z) is None


@pytest.mark.parametrize("name", ["sigma1", "omega2"])
def test_group_checks_over_an_even_nilpotent(name):
    desc = build(name, MatrixKind(SL, 2, 1))
    sig = AlgebraSignature(1, 0, 1, desc.conjugation)
    res = lie_fixed_span_check(desc, sig)
    assert res["spans_agree"] is True
    assert res["group_fixed_dimension"] == res["algebra_fixed_dimension"] == res["expected_dimension"]
    checks = verify_group_structure(desc, sig, samples=3, seed=27)
    assert {c.status for c in checks} == {"pass"}


def test_all_group_lifts_pass():
    shapes = SL_SHAPES + OSP_SHAPES
    for kind in shapes:
        for name in applicable_names(kind):
            desc = build(name, kind)
            checks = verify_group_structure(desc, sig_for(desc), samples=10, seed=24)
            statuses = {c.name: c.status for c in checks}
            assert set(statuses.values()) == {"pass"}, (desc.display(group=True), statuses)


def test_printed_xi2_flags_its_twisted_naturality_at_group_level():
    # the complex-linear printed xi2 fails the dual scaling by i at the group
    # level as it fails naturality at the algebra level: both are flagged
    strict = build("xi2", MatrixKind(OSP, 2, 2), strict=True)
    for seed in range(4):
        checks = {c.name: c for c in verify_group_structure(strict, SIG1S, samples=3, seed=seed)}
        equivariance = checks["dual-equivariance"]
        assert equivariance.status == "flagged" and equivariance.witness, seed
        assert "fail" not in {c.status for c in checks.values()}, seed


def test_group_commutator_identity():
    for kind in (MatrixKind(SL, 1, 1), MatrixKind(SL, 2, 1), MatrixKind(OSP, 2, 2)):
        for sig in (SIG0S, SIG1S):
            out = group_commutator_identity(kind, sig, samples=10, seed=25)
            assert out.status == "pass", (kind.display(), sig)


CRITERION_6_KINDS = SL_SHAPES + OSP_SHAPES
COMMUTATOR_SIGS = [AlgebraSignature(pairs, 0, 0, STANDARD) for pairs in (0, 1, 2)] + [
    AlgebraSignature(1, 1, 1, STANDARD)]


def sig_id(sig):
    return f"P{sig.odd_pairs}S{sig.odd_selfreal}E{sig.even_nilpotents}"


@pytest.mark.parametrize("sig", COMMUTATOR_SIGS, ids=sig_id)
@pytest.mark.parametrize("kind", CRITERION_6_KINDS, ids=MatrixKind.display)
def test_group_commutator_identity_equals_the_four_factor_oracle(kind, sig):
    assert (group_commutator_identity(kind, sig, samples=3, seed=32)
            == reference_group_commutator_identity(kind, sig, samples=3, seed=32))


def test_a_reversed_commutator_fails_both_loops_on_the_same_sample(monkeypatch):
    # a commutator that returns [N, M] fails wherever [M, N] != 0; both loops
    # must fail on the same sample, with equal witnesses
    from superforms import groups
    from superforms.matrices import commutator

    monkeypatch.setattr(groups, "commutator", lambda x, y: commutator(y, x))
    failed = set()
    for kind in CRITERION_6_KINDS:
        for sig in COMMUTATOR_SIGS:
            out = group_commutator_identity(kind, sig, samples=3, seed=33)
            assert out == reference_group_commutator_identity(kind, sig, samples=3, seed=33)
            if out.status == "fail":
                assert out.witness["product"] != out.witness["expected"]
                failed.add((kind.display(), sig_id(sig)))
    # every case but sl(1|1) over the scalars, whose even points are diagonal
    # and commute; that includes a self-real generator with an even nilpotent
    assert failed == {(kind.display(), sig_id(sig)) for kind in CRITERION_6_KINDS
                      for sig in COMMUTATOR_SIGS} - {("sl(1|1)", "P0S0E0")}


@pytest.mark.parametrize("samples", [1, 3])
def test_group_commutator_identity_makes_two_grid_products_per_sample(monkeypatch, samples):
    from superforms.matrices import SuperMatrix

    sig = AlgebraSignature(1, 0, 0, STANDARD)
    calls = []
    mul = SuperMatrix.__mul__

    def counted(x, y):
        if x.sig.even_nilpotents == sig.even_nilpotents + 2:     # over A(e,h)
            calls.append(x)
        return mul(x, y)

    monkeypatch.setattr(SuperMatrix, "__mul__", counted)
    kind = MatrixKind(SL, 2, 1)
    assert group_commutator_identity(kind, sig, samples=samples, seed=34).status == "pass"
    assert len(calls) == 2 * samples
    calls.clear()
    reference_group_commutator_identity(kind, sig, samples=samples, seed=34)
    assert len(calls) == 3 * samples


def test_fixed_span_agreement_all_descriptors():
    for kind in (MatrixKind(SL, 1, 1), MatrixKind(SL, 2, 1), MatrixKind(OSP, 1, 2)):
        for name in applicable_names(kind):
            desc = build(name, kind)
            for pairs in (0, 1):
                res = lie_fixed_span_check(desc, sig_for(desc, pairs))
                assert res["spans_agree"] is True, (desc.display(group=True), pairs)
                assert res["group_fixed_dimension"] == res["expected_dimension"]
                assert res["algebra_fixed_dimension"] == res["expected_dimension"]


def count_fixed_point_tables(monkeypatch):
    """Count the :func:`realforms.fixed_point_table` calls that
    :func:`groups.lie_fixed_span_check` makes."""
    from superforms import groups, realforms

    calls = []

    def counted(*args):
        calls.append(args)
        return realforms.fixed_point_table(*args)

    monkeypatch.setattr(groups, "fixed_point_table", counted)
    return calls


@pytest.mark.parametrize("desc", [build("sigma1", MatrixKind(SL, 2, 1)), build("omega2", MatrixKind(SL, 2, 1)),
                                  build("xi1", MatrixKind(OSP, 1, 2)), build("psi1", MatrixKind(OSP, 1, 2))],
                         ids=lambda d: d.display(group=True))
def test_fixed_span_check_solves_once_for_a_catalog_lift(monkeypatch, desc):
    # the kernel map of a catalog lift, inverse-neg or direct, is its compiled
    # structure, so one table serves both sides
    assert kernel_map(desc) == desc.compiled
    calls = count_fixed_point_tables(monkeypatch)
    res = lie_fixed_span_check(desc, sig_for(desc))
    assert len(calls) == 1
    assert res["group_fixed_dimension"] == res["algebra_fixed_dimension"] == res["expected_dimension"]
    assert res["spans_agree"] is True


def test_fixed_span_check_tells_apart_spans_of_equal_dimension(monkeypatch):
    # -L is an antilinear involution too; its fixed points are i times those
    # of L, a different span of the same dimension.  Planted as the
    # algebra-level map of the inverse-neg sigma1, whose kernel map is -N = L
    from superforms.catalog import Descriptor

    desc = build("sigma1", MatrixKind(SL, 2, 1))
    assert desc.lift_form == "inverse-neg"
    minus = desc.lift_map
    assert minus != desc.compiled
    monkeypatch.setattr(Descriptor, "compiled", property(lambda d: minus))
    calls = count_fixed_point_tables(monkeypatch)
    res = lie_fixed_span_check(desc, SIG1S)
    assert len(calls) == 2
    assert res["group_fixed_dimension"] == res["algebra_fixed_dimension"] == res["expected_dimension"]
    assert res["spans_agree"] is False


def test_size_one_sl_samples_are_the_identity():
    for kind in (MatrixKind(SL, 1, 0), MatrixKind(SL, 0, 1)):
        g = sample_sl(kind, SIG1S, rng_for(23, "slsample", kind.display()))
        assert g == identity_matrix(kind.m, kind.n, SIG1S)
        assert group_membership_defect(kind, g) is None


@pytest.mark.parametrize("samples", [0, -3])
def test_group_checks_refuse_no_samples(samples):
    desc = build("sigma1", MatrixKind(SL, 1, 1))
    with pytest.raises(ValueError):
        verify_group_structure(desc, SIG1S, samples=samples)
    with pytest.raises(ValueError):
        group_commutator_identity(desc.kind, SIG1S, samples=samples)


def test_sample_group_dispatch():
    assert group_contains(MatrixKind(SL, 1, 1), sample_group(MatrixKind(SL, 1, 1), SIG1S, rng_for(26, "d1")))
    assert group_contains(MatrixKind(OSP, 1, 2), sample_group(MatrixKind(OSP, 1, 2), SIG1S, rng_for(26, "d2")))
    g = sample_group(MatrixKind(GL, 2, 1), SIG1S, rng_for(26, "d3"))
    assert group_membership_defect(MatrixKind(GL, 2, 1), g) is None


def test_group_checks_refuse_an_algebra_without_room_for_the_dual_generators(monkeypatch):
    # the group checks adjoin one even generator, the commutator identity two
    from superforms import groups

    def no_sample(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(groups, "random_point", no_sample)
    monkeypatch.setattr(groups, "sample_group", no_sample)
    desc = build("sigma1", MatrixKind(SL, 1, 1))
    with pytest.raises(ValueError, match="at most 4 even nilpotent"):
        group_commutator_identity(desc.kind, AlgebraSignature(1, 0, 3, STANDARD))
    with pytest.raises(ValueError, match="at most 4 even nilpotent"):
        verify_group_structure(desc, AlgebraSignature(1, 0, 4, STANDARD))

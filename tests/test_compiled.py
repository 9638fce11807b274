"""Compiled structure maps against their step-by-step references.

Descriptors evaluate through positional maps compiled once per descriptor
(``exprs.compile_expr``), monomial morphisms relabel keys instead of running
the product kernel, and leading minors come from one elimination.  Each
fast path must agree exactly with the slow one it replaced.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from expr_reference import reference_apply_expr
from superforms import catalog, exprs, linalg
from superforms.algebra import (
    GRADED, STANDARD, AlgebraSignature, SuperNumber, adjoin_dual, dual_scale_morphism,
    even_mask_of, include_pairs, kill_pair_projection, odd_mask_of, one, scalar,
    sum_of_products, theta, theta_bar,
)
from superforms.catalog import applicable_names, build, corrupted_sigma1, param_choices
from superforms.exprs import apply_expr, compile_expr, conj_step, negst_step
from superforms.groups import sample_group
from superforms.liealg import OSP, SL, MatrixKind
from superforms.realforms import verify_structure
from superforms.sampling import random_element, random_even, random_point
from superforms.scalars import GaussianRational, I, ONE, ZERO

SHAPES = [(SL, 1, 1), (SL, 2, 1), (SL, 2, 2), (OSP, 1, 2), (OSP, 2, 2),
          (SL, 2, 0), (SL, 0, 2), (OSP, 2, 0), (OSP, 0, 2)]


def every_descriptor():
    for fam, m, n in SHAPES:
        kind = MatrixKind(fam, m, n)
        for name in applicable_names(kind):
            for p, q in param_choices(name, kind):
                yield build(name, kind, p, q)
    yield build("xi2", MatrixKind(OSP, 2, 2), strict=True)
    yield build("xi2", MatrixKind(OSP, 2, 2), 0, strict=True)
    yield corrupted_sigma1(MatrixKind(SL, 2, 1))
    yield corrupted_sigma1(MatrixKind(SL, 2, 2), 1, 0)


def label(desc):
    return desc.display() + (" strict" if desc.strict else "")


def signatures(conjugation):
    sigs = [AlgebraSignature(1, 0, 1, conjugation), AlgebraSignature(2, 0, 0, conjugation)]
    if conjugation == STANDARD:
        sigs.append(AlgebraSignature(1, 1, 0, STANDARD))
    return sigs


@pytest.mark.parametrize("desc", list(every_descriptor()), ids=label)
def test_compiled_descriptor_matches_step_by_step(desc):
    rng = random.Random(label(desc))
    for conjugation in (STANDARD, GRADED):
        for sig in signatures(conjugation):
            for _ in range(2):
                x = random_point(desc.kind, sig, rng)
                assert apply_expr(desc.compiled, x) == reference_apply_expr(desc.steps, x)
                assert apply_expr(desc.steps, x) == reference_apply_expr(desc.steps, x)


@pytest.mark.parametrize("desc", list(every_descriptor()), ids=label)
def test_compiled_lift_matches_step_by_step(desc):
    rng = random.Random("lift " + label(desc))
    sig = AlgebraSignature(1, 0, 1, desc.conjugation)
    g = sample_group(desc.kind, sig, rng)
    lift = desc.lift_steps()
    expected = reference_apply_expr(lift, g, allow_inverse=True)
    assert apply_expr(desc.compiled_lift, g, allow_inverse=True) == expected
    assert (len(desc.compiled_lift.stages), desc.compiled_lift.group_only) == (
        (2, True) if desc.lift_form == "inverse-neg" else (1, False))


def test_conjugation_count_is_not_reduced():
    # graded conjugation squares to the parity sign, so two conj steps are
    # not the identity; a run records both
    kind = MatrixKind(SL, 2, 1)
    steps = (conj_step(), negst_step(), conj_step())
    compiled = compile_expr(steps, kind.m, kind.n)
    assert [stage.conjugations for stage in compiled.stages] == [2]
    rng = random.Random(5)
    for conjugation in (STANDARD, GRADED):
        x = random_point(kind, AlgebraSignature(2, 0, 0, conjugation), rng)
        assert apply_expr(compiled, x) == reference_apply_expr(steps, x)
    assert apply_expr(compile_expr((), kind.m, kind.n), x) == x


def test_compiled_expression_refuses_other_shapes_and_group_steps():
    desc = build("sigma1", MatrixKind(SL, 2, 1))
    x = random_point(MatrixKind(SL, 1, 1), AlgebraSignature(1, 0, 0, STANDARD), random.Random(0))
    with pytest.raises(ValueError):
        apply_expr(desc.compiled, x)
    g = random_point(desc.kind, AlgebraSignature(1, 0, 0, STANDARD), random.Random(0))
    with pytest.raises(ValueError):
        apply_expr(desc.compiled_lift, g)


def test_ad_descriptor_makes_no_grid_products(monkeypatch):
    for desc in (build("xi2", MatrixKind(OSP, 2, 2)), build("psi1", MatrixKind(OSP, 2, 2))):
        assert any(step[0] == "ad" for step in desc.steps)
        x = random_point(desc.kind, AlgebraSignature(1, 0, 1, desc.conjugation), random.Random(1))
        compiled = desc.compiled
        products = []
        real = linalg.mat_mul
        monkeypatch.setattr(linalg, "mat_mul", lambda *args: products.append(1) or real(*args))
        apply_expr(compiled, x)
        monkeypatch.setattr(linalg, "mat_mul", real)
        assert products == []


def test_verify_structure_compiles_each_descriptor_once(monkeypatch):
    compiles = Counter()
    real = exprs.compile_expr

    def counting(steps, m, n):
        compiles[steps] += 1
        return real(steps, m, n)

    monkeypatch.setattr(exprs, "compile_expr", counting)
    monkeypatch.setattr(catalog, "compile_expr", counting)
    desc = build("sigma1", MatrixKind(SL, 2, 1))
    outcomes = verify_structure(desc, AlgebraSignature(1, 0, 0, STANDARD), samples=4)
    assert {o.status for o in outcomes} == {"pass"}
    assert compiles == {desc.steps: 1}


# ---------------------------------------------------------------------------
# monomial morphisms
# ---------------------------------------------------------------------------

def kernel_apply(morph, x):
    """The general path: each monomial's image as a product of generator
    images, then one ``sum_of_products``."""
    pairs = []
    for key, c in x.items():
        image = one(morph.tgt)
        omask, emask = odd_mask_of(key), even_mask_of(key)
        for gid in range(8):
            if omask >> gid & 1:
                image = image * morph.odd_images[gid]
        for j in range(4):
            if emask >> j & 1:
                image = image * morph.even_images[j]
        pairs.append((image, c))
    return sum_of_products(morph.tgt, pairs)


def morphisms():
    for conjugation in (STANDARD, GRADED):
        sig = AlgebraSignature(2, 1 if conjugation == STANDARD else 0, 1, conjugation)
        for pair in range(sig.odd_pairs):
            kill = kill_pair_projection(sig, pair)
            yield "pair-projection", kill
            yield "pair-inclusion", include_pairs(kill.tgt, sig)
        ext, include, project, _ = adjoin_dual(sig)
        yield "adjoin-include", include
        yield "adjoin-project", project
        yield "dual-scale-I", dual_scale_morphism(ext, scalar(ext, I))
        yield "dual-scale-minus-I", dual_scale_morphism(ext, scalar(ext, I.conjugate()))


@pytest.mark.parametrize("label,morph", list(morphisms()), ids=lambda v: v if isinstance(v, str) else "")
def test_monomial_morphism_matches_kernel_path(label, morph):
    assert morph.monomial
    rng = random.Random(label)
    for _ in range(20):
        x = random_element(morph.src, rng)
        assert morph.apply(x) == kernel_apply(morph, x)


def test_colliding_monomials_are_summed_and_zeros_dropped():
    # t1 -> t1 and t1~ -> t1: t1 + t1~ goes to 2 t1, t1 - t1~ to zero
    from superforms.algebra import AlgebraMorphism
    sig = AlgebraSignature(1, 0, 0, STANDARD)
    t, tb = theta(sig, 0), theta_bar(sig, 0)
    fold = AlgebraMorphism(sig, sig, [t, t], [])
    assert fold.monomial and not fold.respects_conjugation
    assert fold.apply(t + tb) == t.scaled(GaussianRational(2)) == kernel_apply(fold, t + tb)
    assert fold.apply(t - tb).is_zero()
    assert fold.apply(t * tb).is_zero()


def test_general_dual_scaling_keeps_the_kernel_path():
    sig = AlgebraSignature(2, 0, 0, GRADED)
    ext, include, _, _ = adjoin_dual(sig)
    rng = random.Random(3)
    a = include.apply(random_even(sig, rng)) + scalar(ext, ONE)
    while len(a) < 2:
        a = a + include.apply(random_even(sig, rng))
    morph = dual_scale_morphism(ext, a)
    assert not morph.monomial
    for _ in range(10):
        x = random_element(ext, rng)
        assert morph.apply(x) == kernel_apply(morph, x)


# ---------------------------------------------------------------------------
# leading principal minors
# ---------------------------------------------------------------------------

MINOR_POOL = [ZERO, ZERO, ZERO, ONE, GaussianRational(-1), GaussianRational(2),
              GaussianRational(0, 1), GaussianRational(1, 0, 3), GaussianRational(1, -2, 5)]


@given(st.integers(1, 6), st.integers(0, 10 ** 6))
@settings(max_examples=200, deadline=None)
def test_leading_minors_match_per_size_determinants(size, seed):
    rng = random.Random(seed)
    grid = [[rng.choice(MINOR_POOL) for _ in range(size)] for _ in range(size)]
    if rng.random() < 0.3:                       # a singular leading block
        k = rng.randrange(size)
        grid[k][: k + 1] = [ZERO] * (k + 1)
    expected = [linalg.determinant([row[: k + 1] for row in grid[: k + 1]]) for k in range(size)]
    assert linalg.leading_principal_minors(grid) == expected


def test_leading_minors_after_a_zero_pivot():
    g = GaussianRational
    grid = [[ZERO, ONE, g(2)], [ONE, ZERO, ONE], [g(3), ONE, ZERO]]
    assert linalg.leading_principal_minors(grid) == [ZERO, g(-1), g(5)]
    assert linalg.leading_principal_minors([]) == []


def test_cells_with_several_terms_sum_exactly():
    # a non-monomial conjugating grid gives output cells with several terms
    from superforms.exprs import ad_step, delta_step
    g = GaussianRational
    kind = MatrixKind(SL, 2, 1)
    grid = [[ONE, g(1, 1), ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, g(2)]]
    steps = (ad_step("K", grid), conj_step(), delta_step(g(1, 0, 2)), negst_step())
    compiled = compile_expr(steps, kind.m, kind.n)
    assert max(len(cell) for row in compiled.stages[0].cells for cell in row) > 1
    rng = random.Random(7)
    for conjugation in (STANDARD, GRADED):
        x = random_point(kind, AlgebraSignature(2, 0, 1, conjugation), rng)
        assert apply_expr(compiled, x) == reference_apply_expr(steps, x)

"""Grassmann coefficient algebras: multiplication signs, conjugations, morphisms."""

import pytest

from product_reference import dual_scaling_morphism, parity_part, respects_conjugation
from superforms.algebra import (
    AlgebraMorphism, AlgebraSignature, GRADED, MorphismError, NotInvertible, STANDARD, SuperNumber,
    adjoin_dual, epsilon, generators, include_pairs, kill_pair_projection, odd_generator, one,
    scalar, theta, theta_bar, theta_selfreal,
)
from superforms.scalars import GaussianRational, HALF, I, MINUS_ONE, ONE, integer

STD2 = AlgebraSignature(2, 0, 0, STANDARD)
STD21 = AlgebraSignature(2, 1, 1, STANDARD)
GRD2 = AlgebraSignature(2, 0, 0, GRADED)


def test_signature_validation():
    with pytest.raises(ValueError):
        AlgebraSignature(-1, 0, 0, STANDARD)
    with pytest.raises(ValueError):
        AlgebraSignature(0, 1, 0, GRADED)       # graded needs paired generators
    with pytest.raises(ValueError):
        AlgebraSignature(0, 0, 0, "weird")
    with pytest.raises(ValueError):
        STD2._replace(odd_selfreal=1, conjugation=GRADED)
    assert STD2._replace(even_nilpotents=1) == AlgebraSignature(odd_pairs=2, even_nilpotents=1)
    assert repr(GRD2) == "AlgebraSignature(odd_pairs=2, odd_selfreal=0, even_nilpotents=0, conjugation='graded')"
    assert AlgebraSignature(1, 2, 0, STANDARD).odd_total == 4
    assert AlgebraSignature(1, 0, 2, STANDARD).dimension == 4 * 4


def test_odd_generators_anticommute_and_square_to_zero():
    for sig in (STD2, STD21):
        gens = [odd_generator(sig, g) for g in range(sig.odd_total)]
        for a in gens:
            assert (a * a).is_zero()
            assert a.is_odd() and not a.is_even()
        for i, a in enumerate(gens):
            for b in gens[i + 1:]:
                assert a * b == -(b * a)
                assert not (a * b).is_zero()


def test_even_nilpotents_square_to_zero_and_commute():
    e0 = epsilon(STD21, 0)
    t0 = theta(STD21, 0)
    assert (e0 * e0).is_zero()
    assert e0.is_even()
    assert e0 * t0 == t0 * e0


def test_product_ordering_sign():
    t0, t1 = theta(STD2, 0), theta(STD2, 1)
    tb0 = theta_bar(STD2, 0)
    # generators multiply into the sorted monomial with the merge parity
    assert t1 * t0 == -(t0 * t1)
    assert tb0 * t0 == -(t0 * tb0)
    x = (t0 + t1) * (t0 - t1)
    assert x == (t0 * t1).scaled(integer(-2))
    assert x.is_zero() is False


def test_standard_conjugation_is_homomorphism():
    t0, tb0, t1 = theta(STD2, 0), theta_bar(STD2, 0), theta(STD2, 1)
    assert t0.conjugate() == tb0
    assert tb0.conjugate() == t0
    x = t0 * t1 + one(STD2).scaled(I)
    y = tb0 * t1 + t0.scaled(HALF)
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x.conjugate().conjugate() == x


def test_selfreal_generator_fixed_by_conjugation():
    s = theta_selfreal(STD21, 0)
    assert s.conjugate() == s
    assert (s * s).is_zero()


def test_graded_conjugation_square_is_parity_sign():
    t0, tb0 = theta(GRD2, 0), theta_bar(GRD2, 0)
    assert t0.conjugate() == tb0
    assert tb0.conjugate() == -t0
    assert t0.conjugate().conjugate() == -t0
    ev = t0 * tb0 + one(GRD2).scaled(integer(3))
    assert ev.conjugate().conjugate() == ev          # even part: square is +id
    x = t0 * theta(GRD2, 1) + theta_bar(GRD2, 1)
    xc2 = x.conjugate().conjugate()
    assert xc2 == parity_part(x, 0) - parity_part(x, 1)


def test_graded_conjugation_is_homomorphism():
    t0, t1 = theta(GRD2, 0), theta(GRD2, 1)
    x = t0 + t0 * t1
    y = theta_bar(GRD2, 1) + one(GRD2).scaled(I)
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


def test_inverse_geometric_series():
    x = one(STD21) + theta(STD21, 0) * theta_bar(STD21, 0) + epsilon(STD21, 0).scaled(HALF)
    inv = x.inverse()
    assert x * inv == one(STD21)
    y = scalar(STD21, GaussianRational(0, 2, 3)) + theta(STD21, 0) * theta(STD21, 1)
    assert y * y.inverse() == one(STD21)
    with pytest.raises(NotInvertible):
        theta(STD21, 0).inverse()
    with pytest.raises(NotInvertible):
        (epsilon(STD21, 0) + theta(STD21, 0) * theta_bar(STD21, 0)).inverse()


def test_parity_queries():
    z = SuperNumber.zero(STD2)
    assert z.is_even() and z.is_odd()
    mixed = one(STD2) + theta(STD2, 0)
    assert not mixed.is_even() and not mixed.is_odd()
    assert mixed.parity() is None
    assert parity_part(mixed, 0) == one(STD2)
    assert parity_part(mixed, 1) == theta(STD2, 0)


def test_identity_morphism_and_composition_caching():
    ident = AlgebraMorphism(STD21, STD21, *generators(STD21))
    x = theta(STD21, 0) * theta_selfreal(STD21, 0) + epsilon(STD21, 0)
    assert ident.apply(x) == x
    assert respects_conjugation(ident)


def test_kill_pair_projection():
    proj = kill_pair_projection(STD2, 0)
    t0, tb0, t1, tb1 = (theta(STD2, 0), theta_bar(STD2, 0),
                        theta(STD2, 1), theta_bar(STD2, 1))
    small = proj.tgt
    assert small.odd_pairs == 1
    assert proj.apply(t0).is_zero() and proj.apply(tb0).is_zero()
    assert proj.apply(t1) == theta(small, 0)
    assert proj.apply(tb1) == theta_bar(small, 0)
    assert proj.apply(t0 * t1).is_zero()
    assert respects_conjugation(proj)


def test_include_pairs():
    small = AlgebraSignature(1, 0, 0, STANDARD)
    inc = include_pairs(small, STD2)
    assert inc.apply(theta(small, 0)) == theta(STD2, 0)
    assert inc.apply(theta_bar(small, 0)) == theta_bar(STD2, 0)
    assert respects_conjugation(inc)
    x = theta(small, 0) * theta_bar(small, 0)
    assert inc.apply(x) == theta(STD2, 0) * theta_bar(STD2, 0)


def test_adjoin_dual():
    ext, inc, proj, eps = adjoin_dual(STD2)
    assert ext.even_nilpotents == STD2.even_nilpotents + 1
    assert (eps * eps).is_zero()
    x = theta(STD2, 0) * theta_bar(STD2, 1) + one(STD2).scaled(HALF)
    assert proj.apply(inc.apply(x)) == x
    assert proj.apply(eps).is_zero()
    assert respects_conjugation(inc) and respects_conjugation(proj)


def test_inclusions_that_keep_keys_share_the_terms():
    ext, inc, proj, eps = adjoin_dual(STD21)
    assert inc.keeps_keys and AlgebraMorphism(STD21, STD21, *generators(STD21)).keeps_keys
    assert include_pairs(AlgebraSignature(1, 0, 0, STANDARD), STD2).keeps_keys
    # the self-real generator moves from id 1 to id 3
    assert not include_pairs(AlgebraSignature(0, 1, 0, STANDARD), AlgebraSignature(1, 1, 0, STANDARD)).keeps_keys
    assert not proj.keeps_keys and not kill_pair_projection(STD21, 0).keeps_keys
    assert not dual_scaling_morphism(ext, scalar(ext, MINUS_ONE)).keeps_keys
    x = (theta(STD21, 0) * theta_selfreal(STD21, 0) * epsilon(STD21, 0)
         + theta_bar(STD21, 1).scaled(HALF) + one(STD21).scaled(I))
    monomial = AlgebraMorphism(STD21, ext, inc.odd_images, inc.even_images)
    monomial.keeps_keys = False          # the relabelling rule on the same images
    image = inc.apply(x)
    assert image.sig == ext and list(image.items()) == list(x.items())
    assert image == monomial.apply(x)
    assert proj.apply(image) == x and proj.apply(eps * image).is_zero()


def test_dual_scale_morphism():
    ext, inc, _, eps = adjoin_dual(STD2)
    a = inc.apply(one(STD2).scaled(I) + theta(STD2, 0) * theta_bar(STD2, 0))
    v = dual_scaling_morphism(ext, a)
    # fixes the base, scales epsilon by a
    assert v.apply(inc.apply(theta(STD2, 0))) == inc.apply(theta(STD2, 0))
    assert v.apply(eps) == a * eps
    with pytest.raises(MorphismError):
        dual_scaling_morphism(ext, inc.apply(theta(STD2, 0)))  # odd scaling is not allowed


def test_dual_scale_morphism_scales_the_generator_adjoin_dual_adds():
    # STD21 has an even nilpotent of its own, so eps is even generator 1
    ext, inc, _, eps = adjoin_dual(STD21)
    assert eps == epsilon(ext, 1)
    a = inc.apply(one(STD21).scaled(I) + epsilon(STD21, 0))
    v = dual_scaling_morphism(ext, a)
    assert v.apply(epsilon(ext, 0)) == epsilon(ext, 0)
    assert v.apply(eps) == a * eps


def test_dual_scale_morphism_applies_nothing_until_asked(monkeypatch):
    from superforms.algebra import AlgebraMorphism
    ext, inc, _, _ = adjoin_dual(STD2)
    a = inc.apply(one(STD2).scaled(I))
    calls = []
    apply = AlgebraMorphism.apply
    monkeypatch.setattr(AlgebraMorphism, "apply", lambda self, x: calls.append(x) or apply(self, x))
    v = dual_scaling_morphism(ext, a)
    assert calls == []
    # the conjugation check applies the morphism: conj(a) != a here
    assert not respects_conjugation(v) and calls


def test_morphism_rejects_parity_violation():
    from superforms.algebra import AlgebraMorphism
    with pytest.raises(MorphismError):
        AlgebraMorphism(STD2, STD2,
                        [one(STD2)] * STD2.odd_total, [])  # even image for odd generator

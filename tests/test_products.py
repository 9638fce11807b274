"""The fused product kernel against the per-term reference (``product_reference.py``):
Grassmann products, sums of products, constant factors, grid products and
the amount of coefficient work one product does.  The group layer's short
cuts against their references too: the inverse series that skip products
known to vanish, the Cayley sample ``2 D - Id`` and the scaling of a
supermatrix as one batch.  And the algebra-level evaluations that build
each output cell once: the commutator and ``a x + b y`` as signed sums, a
positional map's cell as one conjugating pass, the tensor-form bracket that
skips empty brackets, and the dual scaling in closed form.  The one-pass
builds of the group layer keep the exact storage of the routes they
replaced (``product_reference.py``), key order included: kernel points
``Id + t M`` and the dual scaling as one kernel call.  And the element
arithmetic on stored numerators against the per-term oracle (``PerTerm``),
with the normal form it keeps and the coefficients it does not build."""

import itertools
import random
import sys
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from group_reference import eps_split, split_dual
from product_reference import (
    PerTerm, dual_scaling_morphism, per_term_apply, per_term_dual_scale, per_term_split_dual,
    per_term_sum_of_products, reference_cayley, reference_commutator, reference_conj_mask,
    reference_conjugate, reference_conjugated, reference_dual_scale, reference_element_inverse,
    reference_even_rules_bracket, reference_linear_combination, reference_mat_mul, reference_mul,
    reference_positional_apply, reference_product, reference_sample_sl, reference_scale,
    reference_scaled, reference_series_inverse, scale_plus_unit, sort_sign, split_dual_scale,
)
from superforms import algebra, liealg, linalg
from superforms.algebra import (
    EVEN, GRADED, MAX_ODD, ODD, STANDARD, AlgebraMorphism, AlgebraSignature, SuperNumber, adjoin_dual,
    basis_keys, conjugate_monomial, dual_scale, epsilon, generators,
    identity_plus_multiple, kill_pair_projection, mono_mul, odd_mask_of, one, scalar,
    sum_of_products, theta, theta_bar,
)
from superforms.catalog import applicable_names, build, param_choices
from superforms.exprs import PositionalMap
from superforms import matrices
from superforms.groups import kernel_point, sample_invertible, sample_osp, sample_sl
from superforms.liealg import (
    GL, OSP, SL, MatrixKind, TensorElement, basis_of, even_rules_bracket, vector_bracket,
)
from superforms.matrices import (
    SuperMatrix, commutator, const_matrix, const_mul, identity_matrix, inverse, linear_combination,
    mul_const,
)
from superforms.realforms import verify_structure
from superforms.sampling import random_element, random_point, random_scalar, random_tensor, rng_for
from superforms.scalars import GaussianRational, I, MINUS_I, MINUS_ONE, ONE, ZERO


@st.composite
def signatures(draw, max_generators: int = 6):
    """Random signatures: both conjugations, self-real odd generators (standard
    only) and even nilpotents, at most ``max_generators`` generators."""
    conjugation = draw(st.sampled_from([STANDARD, GRADED]))
    pairs = draw(st.integers(0, max_generators // 2))
    room = max_generators - 2 * pairs
    selfreal = draw(st.integers(0, min(2, room))) if conjugation == STANDARD else 0
    even = draw(st.integers(0, min(2, room - selfreal)))
    return AlgebraSignature(pairs, selfreal, even, conjugation)


# mixed, non-coprime denominators 1-6, zero included
coefficients = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 6))


def elements(sig: AlgebraSignature):
    keys = basis_keys(sig)
    return st.dictionaries(st.sampled_from(keys), coefficients, max_size=len(keys)).map(
        lambda terms: SuperNumber(sig, terms))


def factors(sig: AlgebraSignature):
    """An algebra element or a constant."""
    return st.one_of(elements(sig), coefficients)


def lift(sig, z):
    return scalar(sig, z) if isinstance(z, GaussianRational) else z


def no_zero_terms(x: SuperNumber) -> bool:
    return all(not c.is_zero() for _, c in x.items())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_product_matches_reference(data):
    sig = data.draw(signatures())
    x, y = data.draw(elements(sig)), data.draw(elements(sig))
    product = x * y
    assert product == reference_mul(x, y)
    assert no_zero_terms(product)
    assert x * y == product             # again, from the factors' kept numerator forms


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_constant_factors_scale(data):
    sig = data.draw(signatures())
    x, c, d = data.draw(elements(sig)), data.draw(coefficients), data.draw(coefficients)
    expected = reference_scaled(x, c)
    assert x * c == x.scaled(c) == c * x == expected
    assert sum_of_products(sig, [(c, x)]) == expected == sum_of_products(sig, [(x, c)])
    assert sum_of_products(sig, [(c, d)]) == scalar(sig, c * d)
    assert no_zero_terms(x * c)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sum_of_products_matches_sum_of_single_products(data):
    sig = data.draw(signatures())
    pairs = data.draw(st.lists(st.tuples(factors(sig), factors(sig)), max_size=5))
    expected = SuperNumber.zero(sig)
    for a, b in pairs:
        expected = expected + lift(sig, reference_product(a, b))
    total = sum_of_products(sig, pairs)
    assert total == expected
    assert no_zero_terms(total)


def test_mixing_algebras_is_refused():
    a, b = AlgebraSignature(1), AlgebraSignature(2)
    with pytest.raises(ValueError):
        theta(a, 0) * theta(b, 0)
    with pytest.raises(ValueError):
        sum_of_products(a, [(one(a), one(a)), (one(b), ONE)])
    with pytest.raises(ValueError):
        sum_of_products(a, [(theta(b, 0), I)])


def test_products_by_signed_units():
    sig = AlgebraSignature(2, 1, 1)
    x = theta(sig, 0) + scalar(sig, GaussianRational(1, 2, 3))
    assert one(sig) * x == x == x * ONE == ONE * x
    assert MINUS_ONE * x == -x == x * scalar(sig, MINUS_ONE)
    assert sum_of_products(sig, [(ONE, x), (x, MINUS_ONE)]).is_zero()


def test_mono_mul_signs_match_sorting():
    sig = AlgebraSignature(2, 1, 2)
    keys = basis_keys(sig)
    for k1 in keys:
        for k2 in keys:
            merged = mono_mul(k1, k2)
            if k1 & k2:
                assert merged is None
                continue
            ids = [g for g in range(8) if odd_mask_of(k1) >> g & 1] + \
                  [g for g in range(8) if odd_mask_of(k2) >> g & 1]
            assert merged == (k1 | k2, sort_sign(ids))


def test_conjugation_table_matches_the_generator_images():
    # every signature the algebra accepts: 0-4 pairs, self-real generators
    # up to MAX_ODD (standard only), both conjugations
    signatures = [AlgebraSignature(pairs, selfreal, 0, conjugation)
                  for conjugation in (STANDARD, GRADED)
                  for pairs in range(MAX_ODD // 2 + 1)
                  for selfreal in (range(MAX_ODD - 2 * pairs + 1) if conjugation == STANDARD else (0,))]
    assert len(signatures) == 30
    for sig in signatures:
        expected = [reference_conj_mask(sig, omask) for omask in range(1 << sig.odd_total)]
        assert sig.conjugation_table == expected, sig


@pytest.mark.parametrize("sig", [AlgebraSignature(2, 1, 1, STANDARD), AlgebraSignature(2, 0, 1, GRADED)])
def test_conjugate_monomial_is_repeated_conjugation(sig):
    for key in basis_keys(sig):
        x = SuperNumber(sig, {key: ONE})
        for times in range(5):
            image_key, sign = conjugate_monomial(sig, key, times)
            assert SuperNumber(sig, {image_key: ONE if sign > 0 else MINUS_ONE}) == x, (key, times)
            x = x.conjugate()


def grids(rows: int, cols: int, zero, entries):
    """Grids with about half their entries zero."""
    entry = st.one_of(st.just(zero), entries)
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_mat_mul_matches_reference(data):
    sig = data.draw(signatures(max_generators=5))
    rows, inner, cols = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
    kind = data.draw(st.sampled_from(["algebra x algebra", "constant x algebra",
                                      "algebra x constant", "constant x constant"]))
    left_const, right_const = kind.startswith("constant"), kind.endswith("constant")
    algebra_zero = SuperNumber.zero(sig)
    a = data.draw(grids(rows, inner, ZERO, coefficients) if left_const
                  else grids(rows, inner, algebra_zero, elements(sig)))
    b = data.draw(grids(inner, cols, ZERO, coefficients) if right_const
                  else grids(inner, cols, algebra_zero, elements(sig)))
    zero = ZERO if left_const and right_const else algebra_zero
    assert linalg.mat_mul(a, b, zero) == reference_mat_mul(a, b, zero)


SHAPES = [(2, 0), (0, 2), (1, 1), (2, 1), (1, 2)]
CONSTANTS = (ZERO, ZERO, ONE, MINUS_ONE, I, GaussianRational(1, 0, 2), GaussianRational(2, -1, 3))


@pytest.mark.parametrize("m,n", SHAPES)
def test_supermatrix_products_match_reference(m, n):
    sig = AlgebraSignature(1, 1, 1)
    rng = random.Random(f"products {m} {n}")
    kind = MatrixKind(GL, m, n)
    zero = SuperNumber.zero(sig)
    for _ in range(4):
        x, y = random_point(kind, sig, rng), random_point(kind, sig, rng)
        assert [list(r) for r in (x * y).rows] == reference_mat_mul(x.rows, y.rows, zero)
        g = sample_invertible(m, n, sig, rng)
        assert g * inverse(g) == identity_matrix(m, n, sig) == inverse(g) * g
        form = [[rng.choice(CONSTANTS) for _ in range(m + n)] for _ in range(m + n)]
        assert [list(r) for r in const_mul(form, x).rows] == reference_mat_mul(form, x.rows, zero)
        assert [list(r) for r in mul_const(x, form).rows] == reference_mat_mul(x.rows, form, zero)


def dense(sig: AlgebraSignature, offset: int) -> SuperNumber:
    """Every monomial present, with mixed denominators and imaginary parts."""
    return SuperNumber(sig, {
        key: GaussianRational(1 + (key + offset) % 5, (key * 7 + offset) % 3 - 1, 1 + (key + offset) % 4)
        for key in basis_keys(sig)
    })


def test_product_builds_no_coefficient(monkeypatch):
    """A work count, independent of wall time: the per-term product built
    about two coefficients per pair of terms (1,639 for these dense 3-pair
    elements); the kernel reads and writes numerators and builds none."""
    sig = AlgebraSignature(3)
    x, y = dense(sig, 0), dense(sig, 3)
    built = 0
    original = GaussianRational.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(GaussianRational, "__init__", counting)
    product = x * y
    monkeypatch.setattr(GaussianRational, "__init__", original)
    assert len(x) == len(y) == 64
    assert built == 0
    assert product == reference_mul(x, y)


def test_rmul_and_reflected_scalars():
    sig = AlgebraSignature(1)
    x = theta(sig, 0) + scalar(sig, GaussianRational(2, -1, 3))
    assert ONE * theta(sig, 0) == theta(sig, 0)
    assert I * x == x.scaled(I)
    with pytest.raises(TypeError):
        ONE + x
    with pytest.raises(TypeError):
        ONE - x
    with pytest.raises(TypeError):
        ONE / x


# ---------------------------------------------------------------------------
# the group layer's inverses, Cayley samples and monomial scalings
# ---------------------------------------------------------------------------

GROUP_SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]      # of sl and osp kinds


def entry_terms(x):
    """Every entry's terms in their order: equal values built the same way."""
    return [[list(e.items()) for e in row] for row in x.rows]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_element_inverse_matches_the_series_from_one(data):
    sig = data.draw(signatures())
    x = data.draw(elements(sig))
    if x.body().is_zero():
        x = x + one(sig)
    inv = x.inverse()
    assert list(inv.items()) == list(reference_element_inverse(x).items())
    assert inv * x == one(sig)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_series_inverse_matches_the_series_from_the_identity(data):
    # both conjugations, self-real odd generators and up to two even nilpotents
    sig = data.draw(signatures(max_generators=5))
    m, n = data.draw(st.sampled_from(GROUP_SHAPES))
    x = sample_invertible(m, n, sig, random.Random(data.draw(st.integers(0, 10 ** 6))))
    inv = inverse(x)
    assert entry_terms(inv) == entry_terms(reference_series_inverse(x))
    assert x * inv == identity_matrix(m, n, sig)


def catalog_lifts():
    for family, m, n in [(SL, 1, 1), (SL, 2, 1), (SL, 2, 2), (SL, 3, 1), (OSP, 1, 2), (OSP, 2, 2), (OSP, 3, 2)]:
        kind = MatrixKind(family, m, n)
        for name in applicable_names(kind):
            for p, q in param_choices(name, kind):
                yield build(name, kind, p, q)


def lift_stages(desc, z, invert):
    """The lift of ``desc`` on ``z``: its lift map, then for an inverse-neg
    lift the group inverse taken by ``invert``; returns the image and the
    matrices that were inverted."""
    z = desc.lift_map.apply(z)
    if desc.lift_form == "inverse-neg":
        return invert(z), [z]
    return z, []


@pytest.mark.parametrize("conjugation,selfreal,even", [(STANDARD, 1, 1), (GRADED, 0, 2)])
def test_kernel_point_lifts_match_the_series_and_the_closed_form(conjugation, selfreal, even):
    sig = AlgebraSignature(1, selfreal, even, conjugation)
    ext, include, _, eps = adjoin_dual(sig)
    lifts = 0
    for desc in catalog_lifts():
        if desc.conjugation != conjugation:
            continue
        rng = random.Random(desc.display(group=True))
        for _ in range(2):
            z = kernel_point(random_point(desc.kind, sig, rng).map_entries(include.apply, ext), eps)
            image, inverted = lift_stages(desc, z, inverse)
            assert entry_terms(image) == entry_terms(lift_stages(desc, z, reference_series_inverse)[0])
            for y in inverted:
                # (c + eps N)^-1 = c^-1 - eps c^-1 N c^-1
                c, n_part = eps_split(y, sig)
                c_inv = linalg.invert(c.body_grid())
                n_ext = n_part.map_entries(include.apply, ext)
                closed = (const_matrix(y.m, y.n, ext, c_inv, check=False)
                          - mul_const(const_mul(c_inv, n_ext), c_inv).scale(eps))
                assert c == const_matrix(y.m, y.n, sig, c.body_grid(), check=False)
                assert inverse(y) == closed
            lifts += bool(inverted)
    assert lifts >= 20


def test_a_kernel_point_lift_inverse_makes_no_element_grid_product(monkeypatch):
    """A work count: the series from the identity multiplies two grids of
    algebra elements per kernel-point inverse; the stop rule multiplies none,
    only grids of elements by constant grids."""
    sig = AlgebraSignature(1, 1, 1, STANDARD)
    ext, include, _, eps = adjoin_dual(sig)
    element_products = 0
    mat_mul = linalg.mat_mul

    def counting(a, b, zero=ZERO):
        nonlocal element_products
        element_products += isinstance(a[0][0], SuperNumber) and isinstance(b[0][0], SuperNumber)
        return mat_mul(a, b, zero)

    for desc in catalog_lifts():
        if desc.lift_form != "inverse-neg" or desc.conjugation != STANDARD:
            continue
        m_point = random_point(desc.kind, sig, random.Random(desc.display()))
        z = kernel_point(m_point.map_entries(include.apply, ext), eps)
        y = lift_stages(desc, z, lambda x: x)[1][0]
        monkeypatch.setattr(linalg, "mat_mul", counting)
        element_products = 0
        inverse(y)
        assert element_products == 0, desc.display(group=True)
        reference_series_inverse(y)
        assert element_products == 2, desc.display(group=True)
        monkeypatch.setattr(linalg, "mat_mul", mat_mul)


def test_a_descriptor_inverts_its_kernel_point_body_once(monkeypatch):
    """Every kernel-point lift of one descriptor has the body ``c = L(Id)``:
    its inverse is computed for the first and kept for the rest."""
    sig = AlgebraSignature(1, 1, 1, STANDARD)
    ext, include, _, eps = adjoin_dual(sig)
    invert = linalg.invert
    inverted = []
    monkeypatch.setattr(linalg, "invert", lambda grid: inverted.append(grid) or invert(grid))
    descriptors = 0
    for desc in catalog_lifts():
        if desc.lift_form != "inverse-neg" or desc.conjugation != STANDARD:
            continue
        matrices._body_inverse.cache_clear()
        inverted.clear()
        rng = random.Random(desc.display())
        for _ in range(5):
            z = kernel_point(random_point(desc.kind, sig, rng).map_entries(include.apply, ext), eps)
            image = lift_stages(desc, z, inverse)[0]
            assert image == lift_stages(desc, z, reference_series_inverse)[0]
        assert len(inverted) == 1 + 5, desc.display(group=True)     # the references invert each time
        descriptors += 1
    assert descriptors >= 5


def test_a_cached_body_inverse_builds_no_coefficient(monkeypatch):
    """The body-inverse cache is keyed by the bodies' numerators
    (``SuperNumber.body_parts``): a kernel-point lift whose body is cached
    inverts without building a coefficient (it built one per nonzero body
    entry to key the cache).  The key is in lowest terms, so equal bodies of
    elements with other denominators share it."""
    sig = AlgebraSignature(1, 1, 1, STANDARD)
    ext, include, _, eps = adjoin_dual(sig)
    original = GaussianRational.__init__
    built = 0

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        original(self, *args, **kwargs)

    descriptors = 0
    for desc in catalog_lifts():
        if desc.lift_form != "inverse-neg" or desc.conjugation != STANDARD:
            continue
        rng = random.Random(desc.display())
        lifts = []
        for _ in range(3):
            z = kernel_point(random_point(desc.kind, sig, rng).map_entries(include.apply, ext), eps)
            lifts.append(lift_stages(desc, z, lambda x: x)[1][0])
        matrices._body_inverse.cache_clear()
        first = inverse(lifts[0])
        monkeypatch.setattr(GaussianRational, "__init__", counting)
        built = 0
        rest = [inverse(y) for y in lifts[1:]]
        monkeypatch.setattr(GaussianRational, "__init__", original)
        assert built == 0, desc.display(group=True)
        assert matrices._body_inverse.cache_info().hits == 2
        assert [first] + rest == [reference_series_inverse(y) for y in lifts]
        descriptors += 1
    assert descriptors >= 5
    half = scalar(sig, GaussianRational(1, 0, 2)) + theta(sig, 0).scaled(GaussianRational(1, 0, 3))
    assert half.body_parts() == (1, 0, 2) and half.den == 6
    assert scalar(sig, GaussianRational(0, -2, 4)).body_parts() == (0, -1, 2)
    assert SuperNumber.zero(sig).body_parts() == (0, 0, 1)


def test_a_constant_grid_inverts_without_a_product(monkeypatch):
    sig = AlgebraSignature(1)
    rng = random.Random("constant inverse")
    mat_mul = linalg.mat_mul
    products = []
    for m, n in GROUP_SHAPES:
        x = sample_invertible(m, n, AlgebraSignature(0), rng)
        grid = const_matrix(m, n, sig, x.body_grid())
        monkeypatch.setattr(linalg, "mat_mul", lambda *args: products.append(args) or mat_mul(*args))
        inv = inverse(grid)
        monkeypatch.setattr(linalg, "mat_mul", mat_mul)
        assert products == []
        assert entry_terms(inv) == entry_terms(reference_series_inverse(grid))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sl_sample_matches_the_product_of_its_factors(data):
    sig = data.draw(signatures(max_generators=4))
    m, n = data.draw(st.sampled_from(GROUP_SHAPES + [(1, 0), (0, 2), (3, 0)]))
    kind = MatrixKind(SL, m, n)
    seed = data.draw(st.integers(0, 10 ** 6))
    rng, reference_rng = random.Random(seed), random.Random(seed)
    assert sample_sl(kind, sig, rng) == reference_sample_sl(kind, sig, reference_rng)
    assert rng.getstate() == reference_rng.getstate()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cayley_sample_matches_the_product_form(data):
    sig = data.draw(signatures(max_generators=4))
    m, n = data.draw(st.sampled_from([(1, 2), (2, 2), (3, 2)]))
    kind = MatrixKind(OSP, m, n)
    seed = data.draw(st.integers(0, 10 ** 6))
    rng, reference_rng = random.Random(seed), random.Random(seed)
    assert sample_osp(kind, sig, rng) == reference_cayley(kind, sig, reference_rng)
    assert rng.getstate() == reference_rng.getstate()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_scaling_by_an_even_monomial_matches_the_kernel(data):
    # eps is always there: the dual generator of the kernel points
    ext = adjoin_dual(data.draw(signatures(max_generators=4)))[0]
    key = data.draw(st.sampled_from(basis_keys(ext, EVEN)))
    c = data.draw(st.sampled_from([ONE, MINUS_ONE, I, GaussianRational(3, 0, 2)]))
    a = SuperNumber(ext, {key: c})
    m, n = data.draw(st.sampled_from(GROUP_SHAPES))
    x = random_point(MatrixKind(GL, m, n), ext, random.Random(data.draw(st.integers(0, 10 ** 6))))
    assert entry_terms(x.scale(a)) == entry_terms(reference_scale(x, a))


def test_scale_is_the_entrywise_product():
    sig = AlgebraSignature(2, 0, 1, STANDARD)
    ext, include, _, eps = adjoin_dual(sig)
    t1, t1b, t2 = (include.apply(g) for g in (theta(sig, 0), theta_bar(sig, 0), theta(sig, 1)))
    rows = [list(row) for row in random_point(MatrixKind(GL, 2, 1), ext, random.Random(7)).rows]
    rows[0][2] = t1b
    x = SuperMatrix(2, 1, ext, rows)
    # a constant, eps, an odd-odd monomial and an even element of several terms
    for a in (GaussianRational(3, 0, 2), eps, t1 * t2, scalar(ext, I) + t1 * t1b + epsilon(ext, 0)):
        scaled = x.scale(a)
        assert entry_terms(scaled) == [[list((a * e).items()) for e in row] for row in x.rows]
        factor = PerTerm(ext, {0: a}) if isinstance(a, GaussianRational) else PerTerm.of(a)
        assert all(matches(s, factor * PerTerm.of(e)) for rs, rx in zip(scaled.rows, x.rows) for s, e in zip(rs, rx))
    # t1~ passes t2 to reach its place after t1: the sign of the reordering
    assert x.scale(t1 * t2).rows[0][2] == -(t1 * t1b * t2) != (t1 * t1b * t2)


# ---------------------------------------------------------------------------
# algebra-level evaluations, one output cell at a time
# ---------------------------------------------------------------------------

def even_elements(sig: AlgebraSignature):
    return st.dictionaries(st.sampled_from(basis_keys(sig, EVEN)), coefficients).map(
        lambda terms: SuperNumber(sig, terms))


def supermatrices(sig: AlgebraSignature, m: int, n: int):
    """Grids of arbitrary elements (no evenness), about half their entries zero."""
    size = m + n
    return grids(size, size, SuperNumber.zero(sig), elements(sig)).map(
        lambda rows: SuperMatrix(m, n, sig, rows, check=False))


def no_zero_entry_terms(x: SuperMatrix) -> bool:
    return all(no_zero_terms(e) for row in x.rows for e in row)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_minus_pairs_subtract_their_products(data):
    sig = data.draw(signatures())
    pairs = data.draw(st.lists(st.tuples(factors(sig), factors(sig)), max_size=4))
    minus = data.draw(st.lists(st.tuples(factors(sig), factors(sig)), max_size=4))
    expected = SuperNumber.zero(sig)
    for a, b in pairs:
        expected = expected + lift(sig, reference_product(a, b))
    for a, b in minus:
        expected = expected - lift(sig, reference_product(a, b))
    total = sum_of_products(sig, pairs, minus)
    assert total == expected and no_zero_terms(total)
    assert sum_of_products(sig, pairs, pairs).is_zero()
    constants = data.draw(st.lists(st.tuples(coefficients, coefficients), max_size=4))
    subtracted = data.draw(st.lists(st.tuples(coefficients, coefficients), max_size=4))
    difference = sum((a * b for a, b in constants), ZERO) - sum((a * b for a, b in subtracted), ZERO)
    assert GaussianRational.sum_of_products(constants, subtracted) == difference


def test_minus_pairs_are_rescaled_to_the_common_denominator():
    sig = AlgebraSignature(1, 1, 1)
    half, third = GaussianRational(1, 0, 2), GaussianRational(0, 1, 3)
    x = theta(sig, 0).scaled(half) + scalar(sig, third)
    y = theta(sig, 0) + scalar(sig, GaussianRational(2))
    # x and y commute (their odd parts are multiples of one generator), so
    # the signed sum cancels to the ring zero across denominators 6 and 1
    assert sum_of_products(sig, [(x, y)], [(y, x)]) == reference_mul(x, y) - reference_mul(y, x)
    assert sum_of_products(sig, [(x, y)], [(y, x)]).is_zero()
    assert sum_of_products(sig, [(x, half)], [(y, ONE)]) == reference_scaled(x, half) - y
    assert GaussianRational.sum_of_products([(half, half)], [(third, ONE)]) == half * half - third


# denominators 1, 2, 3 and 5: the odd ones come from sample_invertible and Cayley points
batch_coefficients = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3), st.sampled_from([1, 2, 3, 5]))
BATCH_CONSTANTS = (ONE, MINUS_ONE, I, GaussianRational(-1, 0, 2), GaussianRational(2, 1, 3), GaussianRational(3, -1, 5))


def batch_factors(sig: AlgebraSignature):
    """Elements over denominators 1, 2, 3 and 5 (products of them too), the
    lone units 1 and -1 as elements and as constants, other constants, and
    zero."""
    keys = basis_keys(sig)
    terms = st.dictionaries(st.sampled_from(keys), batch_coefficients, max_size=len(keys))
    return st.one_of(terms.map(lambda t: SuperNumber(sig, t)), st.sampled_from(BATCH_CONSTANTS),
                     st.sampled_from([one(sig), -one(sig), SuperNumber.zero(sig)]))


def cell_pairs(grid_a, grid_b, i, j):
    """The pairs ``(a[i][k], b[k][j])`` with both factors nonzero, in the order of ``k``."""
    return [(x, grid_b[k][j]) for k, x in enumerate(grid_a[i]) if not x.is_zero() and not grid_b[k][j].is_zero()]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_batched_call_matches_the_per_cell_references(data):
    """One call of the batch kernel against the per-term oracle cell by cell,
    and against the kernel on each cell alone in storage, term order
    included: cells of one batch do not share a denominator or a term."""
    sig = data.draw(signatures(max_generators=5))
    pair = st.tuples(batch_factors(sig), batch_factors(sig))
    cell = st.one_of(st.tuples(st.lists(pair, min_size=1, max_size=1), st.just([])),     # a lone pair
                     st.tuples(st.lists(pair, max_size=3), st.lists(pair, max_size=3)))
    cells = data.draw(st.lists(cell, max_size=6))
    cells.insert(data.draw(st.integers(0, len(cells))), ([], []))                         # an empty cell
    batch = algebra.sums_of_products(sig, cells)
    assert len(batch) == len(cells)
    for (pairs, minus), x in zip(cells, batch):
        assert dict(x.items()) == per_term_sum_of_products(sig, pairs, minus).terms
        assert in_normal_form(x)
        assert storage(x) == storage(sum_of_products(sig, pairs, minus))
    # a grid product with minus pairs mixes all of these in one batch
    size = data.draw(st.integers(1, 3))
    a, b, c, d = (data.draw(grids(size, size, ZERO, batch_factors(sig))) for _ in range(4))
    zero = SuperNumber.zero(sig)
    product = linalg.mat_mul(a, b, zero, minus=(c, d))
    for i in range(size):
        for j in range(size):
            pairs, minus = cell_pairs(a, b, i, j), cell_pairs(c, d, i, j)
            if not (pairs or minus):
                assert product[i][j] is zero
                continue
            assert dict(product[i][j].items()) == per_term_sum_of_products(sig, pairs, minus).terms
            assert storage(product[i][j]) == storage(sum_of_products(sig, pairs, minus))
    # against the triple loop, where no cell multiplies two constants
    b_elements = [[lift(sig, x) for x in row] for row in b]
    assert linalg.mat_mul(a, b_elements, zero) == reference_mat_mul(a, b_elements, zero)
    # the constant ring's batch
    grid = data.draw(grids(size, size, ZERO, batch_coefficients))
    constants = linalg.mat_mul(grid, grid, ZERO, minus=(grid, grid))
    assert all(x == ZERO for row in constants for x in row)
    rational_cells = [(cell_pairs(grid, grid, i, j), cell_pairs(grid, grid, j, i))
                      for i in range(size) for j in range(size)]
    for (pairs, minus), x in zip(rational_cells, GaussianRational.sums_of_products(rational_cells)):
        assert x == sum((p * q for p, q in pairs), ZERO) - sum((p * q for p, q in minus), ZERO)


@pytest.mark.parametrize("kind,sig", [(MatrixKind(SL, 2, 2), AlgebraSignature(2, 0, 1, STANDARD)),
                                      (MatrixKind(OSP, 2, 2), AlgebraSignature(2, 0, 0, GRADED))],
                         ids=["sl", "osp"])
def test_each_built_object_is_one_kernel_call(monkeypatch, kind, sig):
    """A work count, in the style of the compile counts: a commutator, a
    supermatrix product, a linear combination and a tensor-form bracket each
    run the kernel loop ``algebra._accumulate`` once, for every cell."""
    rng = random.Random("one call " + kind.display())
    x, y = random_point(kind, sig, rng), random_point(kind, sig, rng)
    a, b = random_element(sig, rng, EVEN), random_element(sig, rng, EVEN)
    t1, t2 = random_tensor(kind, sig, rng), random_tensor(kind, sig, rng)
    zero = SuperNumber.zero(sig)
    even_rules_bracket(t1, t2)          # the structure constants are cached on first use
    cases = [
        ("commutator", lambda: commutator(x, y), lambda: reference_commutator(x, y)),
        ("product", lambda: (x * y).rows, lambda: tuple(map(tuple, reference_mat_mul(x.rows, y.rows, zero)))),
        ("linear_combination", lambda: linear_combination(a, x, b, y),
         lambda: reference_linear_combination(a, x, b, y)),
        ("even_rules_bracket", lambda: even_rules_bracket(t1, t2), lambda: reference_even_rules_bracket(t1, t2)),
    ]
    for name, run, reference in cases:
        calls = counting(monkeypatch, [(algebra, "_accumulate")])
        result = run()
        monkeypatch.undo()
        assert calls == Counter({"_accumulate": 1}), name
        assert result == reference(), name


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_commutator_matches_the_two_products(data):
    sig = data.draw(signatures(max_generators=4))
    m, n = data.draw(st.sampled_from(SHAPES))
    x, y = data.draw(supermatrices(sig, m, n)), data.draw(supermatrices(sig, m, n))
    bracket = commutator(x, y)
    assert bracket == reference_commutator(x, y)
    assert no_zero_entry_terms(bracket)
    size = m + n
    a, b = data.draw(grids(size, size, ZERO, coefficients)), data.draw(grids(size, size, ZERO, coefficients))
    expected = [[p - q for p, q in zip(rp, rq)]
                for rp, rq in zip(reference_mat_mul(a, b, ZERO), reference_mat_mul(b, a, ZERO))]
    assert linalg.mat_mul(a, b, ZERO, minus=(b, a)) == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_commuting_inputs_cancel_to_the_ring_zero(data):
    sig = data.draw(signatures(max_generators=4))
    m, n = data.draw(st.sampled_from(SHAPES))
    x = data.draw(supermatrices(sig, m, n))
    a = data.draw(even_elements(sig))
    for y in (x, x * x, identity_matrix(m, n, sig).scale(a) if not a.is_zero() else x):
        bracket = commutator(x, y)
        assert bracket == reference_commutator(x, y)
        assert all(e.is_zero() and len(e) == 0 for row in bracket.rows for e in row)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_linear_combination_matches_the_scaled_sum(data):
    sig = data.draw(signatures(max_generators=4))
    m, n = data.draw(st.sampled_from(SHAPES))
    x, y = data.draw(supermatrices(sig, m, n)), data.draw(supermatrices(sig, m, n))
    a, b = data.draw(even_elements(sig)), data.draw(even_elements(sig))
    combined = linear_combination(a, x, b, y)
    assert combined == reference_linear_combination(a, x, b, y)
    assert no_zero_entry_terms(combined)


CELL_CONSTANTS = (ONE, MINUS_ONE, I, MINUS_I, GaussianRational(1, 2, 2))


@pytest.mark.parametrize("c", CELL_CONSTANTS, ids=str)
@pytest.mark.parametrize("times", [0, 1, 2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_conjugated_matches_conjugated_copies_then_scaling(times, c, data):
    sig = data.draw(signatures())
    x = data.draw(elements(sig))
    once = x.conjugated(times, c)
    assert once == reference_conjugated(x, times, c)
    assert no_zero_terms(once)
    assert x.conjugate() == reference_conjugate(x)


@st.composite
def positional_maps(draw, m: int, n: int):
    """Cells of up to three distinct slots with unit and non-unit constants,
    conjugating 0 to 3 times."""
    size = m + n
    slot = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    cell = st.lists(st.tuples(slot, st.sampled_from(CELL_CONSTANTS + (GaussianRational(-3, 0, 2),))),
                    max_size=3, unique_by=lambda term: term[0])
    cells = tuple(tuple(tuple(sorted((r, s, c) for (r, s), c in draw(cell))) for _ in range(size))
                  for _ in range(size))
    return PositionalMap(cells, draw(st.integers(0, 3)), m)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_positional_map_matches_conjugate_then_scale(data):
    sig = data.draw(signatures(max_generators=4))
    m, n = data.draw(st.sampled_from(SHAPES))
    pmap = data.draw(positional_maps(m, n))
    x = data.draw(supermatrices(sig, m, n))
    image = pmap.apply(x)
    assert image == reference_positional_apply(pmap, x)
    assert no_zero_entry_terms(image)


def catalog_descriptors():
    for kind in (MatrixKind(SL, 2, 2), MatrixKind(OSP, 2, 2)):
        for name in applicable_names(kind):
            for p, q in param_choices(name, kind):
                yield build(name, kind, p, q)


@pytest.mark.parametrize("desc", list(catalog_descriptors()), ids=lambda desc: desc.display())
def test_catalog_maps_match_conjugate_then_scale(desc):
    rng = random.Random("cells " + desc.display())
    sigs = ([AlgebraSignature(1, 1, 1, STANDARD), AlgebraSignature(2, 0, 0, STANDARD)]
            if desc.conjugation == STANDARD else [AlgebraSignature(1, 0, 1, GRADED), AlgebraSignature(2, 0, 0, GRADED)])
    for sig in sigs:
        for _ in range(3):
            x = random_point(desc.kind, sig, rng)
            for pmap in (desc.compiled, desc.lift_map):
                assert pmap.apply(x) == reference_positional_apply(pmap, x)


@pytest.mark.parametrize("kind", [MatrixKind(SL, 2, 2), MatrixKind(OSP, 2, 2), MatrixKind(GL, 2, 1),
                                  MatrixKind(OSP, 1, 2)], ids=MatrixKind.display)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_even_rules_bracket_matches_the_term_by_term_loop(kind, data):
    if kind.family == OSP:      # structure constants 2 or -2 too, so a_i is scaled by more than one constant
        dim = len(basis_of(kind))
        assert {c for i in range(dim) for j in range(dim) for _, c in vector_bracket(kind, i, j)} - {ONE, MINUS_ONE}
    sig = data.draw(st.sampled_from([AlgebraSignature(1, 1, 1, STANDARD), AlgebraSignature(2, 0, 0, GRADED),
                                     AlgebraSignature(1, 0, 1, GRADED), AlgebraSignature(3, 0, 0, STANDARD),
                                     AlgebraSignature(3, 0, 0, GRADED)]))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    t1, t2 = random_tensor(kind, sig, rng), random_tensor(kind, sig, rng)
    assert even_rules_bracket(t1, t2) == reference_even_rules_bracket(t1, t2)


def test_a_coordinate_that_cancels_is_absent_from_the_bracket():
    """``t1 = a (x) v_i`` and ``t2 = c2 b (x) v_j + (-c1 b) (x) v_l``, where
    ``[v_i, v_j]`` and ``[v_i, v_l]`` hold the constants ``c1`` and ``c2`` at
    coordinate ``k``: both pairs are multiplied, and their terms at ``k``
    cancel, so ``k`` has no coefficient."""
    kind, sig = MatrixKind(SL, 2, 2), AlgebraSignature(2, 0, 0, STANDARD)
    basis = basis_of(kind)
    dim = len(basis)
    found = next((i, j, l, k, dict(vector_bracket(kind, i, j))[k], c2)
                 for i, j, l in itertools.product(range(dim), repeat=3) if j != l and basis[j].parity == basis[l].parity
                 for k, c2 in vector_bracket(kind, i, l) if k in dict(vector_bracket(kind, i, j)))
    i, j, l, k, c1, c2 = found
    rng = random.Random("cancel " + kind.display())
    a = random_element(sig, rng, basis[i].parity)
    b = random_element(sig, rng, basis[j].parity)
    assert not (a * b).is_zero()
    t1 = TensorElement(kind, sig, {i: a})
    t2 = TensorElement(kind, sig, {j: b.scaled(c2), l: b.scaled(-c1)})
    bracket = even_rules_bracket(t1, t2)
    assert k not in bracket.coeffs
    assert bracket == reference_even_rules_bracket(t1, t2)


@pytest.mark.parametrize("kind", [MatrixKind(SL, 2, 2), MatrixKind(OSP, 2, 2), MatrixKind(OSP, 1, 2)],
                         ids=MatrixKind.display)
def test_the_bracket_of_a_point_with_itself_has_no_coefficient(kind):
    """``[x, x] = 0`` for an even point: the pairs ``(i, j)`` and ``(j, i)``
    cancel at every coordinate, and no zero coefficient is kept."""
    sig = AlgebraSignature(2, 0, 0, GRADED)
    t = random_tensor(kind, sig, random.Random("self " + kind.display()))
    assert any(vector_bracket(kind, i, j) for i in t.coeffs for j in t.coeffs)
    assert even_rules_bracket(t, t).coeffs == {}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_dual_scale_matches_the_generator_images(data):
    sig = data.draw(signatures(max_generators=4))
    ext, include, _, _ = adjoin_dual(sig)
    a = include.apply(data.draw(even_elements(sig)))
    x = data.draw(elements(ext))
    image = dual_scale(x, a)
    assert image == reference_dual_scale(x, a) == dual_scaling_morphism(ext, a).apply(x)
    assert no_zero_terms(image)


# ---------------------------------------------------------------------------
# one-pass kernel points and dual scalings, storage for storage
# ---------------------------------------------------------------------------

# both conjugations, a self-real generator, and the even nilpotent of --even-nil 1
ONE_PASS_SIGNATURES = [AlgebraSignature(1, 1, 1, STANDARD), AlgebraSignature(1, 0, 1, GRADED),
                       AlgebraSignature(1, 1, 0, STANDARD), AlgebraSignature(2, 0, 0, GRADED)]


def storage(x: SuperNumber):
    """An element as stored: its denominator and its numerators in key order."""
    return x.den, list(x.numerators())


def grid_storage(x: SuperMatrix):
    return [[storage(e) for e in row] for row in x.rows]


def kernel_monomials(sig: AlgebraSignature):
    """``(name, algebra, t)`` for each ``t`` that :func:`identity_plus_multiple`
    builds in one pass: ``eps`` and ``-eps`` over ``A(eps)``, ``e h`` over
    ``A(e, h)``, and the base's own even generator when it has one."""
    ext, _, _, eps = adjoin_dual(sig)
    ext2, include2, _, h = adjoin_dual(ext)
    yield "eps", ext, eps
    yield "-eps", ext, -eps
    yield "e*h", ext2, include2.apply(eps) * h
    if sig.even_nilpotents:
        yield "e1", ext, epsilon(ext, 0)


def general_multipliers(ext: AlgebraSignature, eps: SuperNumber):
    """Multipliers that :func:`identity_plus_multiple` refuses, and so
    :func:`kernel_point` too: a non-unit coefficient, a unit that is not
    real, two terms, a monomial with odd generators, and 1."""
    yield GaussianRational(2) * eps
    yield I * eps
    yield eps + epsilon(ext, 0) if ext.even_nilpotents > 1 else eps.scaled(GaussianRational(1, 0, 2))
    if ext.odd_pairs:
        yield theta(ext, 0) * theta_bar(ext, 0) * eps
    yield one(ext)


def holding(t: SuperNumber, x: SuperNumber) -> SuperNumber:
    """``x`` plus ``t x``: an entry some of whose keys hold ``t``'s bits."""
    return x + t * x


@pytest.mark.parametrize("sig", ONE_PASS_SIGNATURES, ids=str)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_one_pass_kernel_points_keep_the_scaled_storage(sig, data):
    m, n = data.draw(st.sampled_from(SHAPES))
    for name, ext, t in kernel_monomials(sig):
        x = data.draw(supermatrices(ext, m, n))
        if data.draw(st.booleans()):
            x = x.map_entries(lambda e: holding(t, e))
        point = kernel_point(x, t)
        assert grid_storage(point) == grid_storage(scale_plus_unit(x, t)), name
        assert all(in_normal_form(e) for row in point.rows for e in row)


@pytest.mark.parametrize("sig", ONE_PASS_SIGNATURES, ids=str)
def test_other_multipliers_keep_the_general_route(sig):
    rng = random.Random(str(sig))
    ext, _, _, eps = adjoin_dual(sig)
    x = random_point(MatrixKind(GL, 2, 1), ext, rng)
    for t in general_multipliers(ext, eps):
        with pytest.raises(ValueError):
            identity_plus_multiple(x.rows, t)
        with pytest.raises(ValueError):
            kernel_point(x, t)


def test_a_kernel_point_drops_the_keys_that_hold_eps():
    sig = AlgebraSignature(1, 1, 1, STANDARD)
    ext, include, _, eps = adjoin_dual(sig)
    c = include.apply(theta(sig, 0) * theta_bar(sig, 0) + scalar(sig, GaussianRational(2, 0, 3)))
    rows = [[eps * c, c], [eps, eps * c + c]]
    x = SuperMatrix(1, 1, ext, rows, check=False)
    for t in (eps, -eps):
        point = kernel_point(x, t)
        # every key of the (0, 0) entry holds eps: only the unit is left
        assert storage(point.rows[0][0]) == (1, [(0, (1, 0))])
        assert point.rows[1][0].is_zero()
        assert grid_storage(point) == grid_storage(scale_plus_unit(x, t))
    assert kernel_point(x, -eps).rows[0][1] == -(eps * c)


@pytest.mark.parametrize("sig", ONE_PASS_SIGNATURES, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dual_scale_keeps_the_split_storage(sig, data):
    ext, _, _, eps = adjoin_dual(sig)
    x = data.draw(elements(ext))
    a = data.draw(even_elements(ext))
    if data.draw(st.booleans()):
        x = holding(eps, x)
    image = dual_scale(x, a)
    assert storage(image) == storage(split_dual_scale(x, a))
    assert image == reference_dual_scale(x, a)
    assert in_normal_form(image)


def test_dual_scale_drops_the_eps_terms_of_the_scale():
    sig = AlgebraSignature(1, 1, 1, STANDARD)
    ext, include, _, eps = adjoin_dual(sig)
    u = include.apply(theta(sig, 0) + scalar(sig, GaussianRational(1, 1, 2)))
    v = include.apply(theta_bar(sig, 0) * theta(sig, 0) + scalar(sig, GaussianRational(3)))
    x = u + eps * v
    # a term of a that holds eps multiplies v eps to zero
    assert dual_scale(x, eps) == u
    a = include.apply(scalar(sig, I)) + eps * include.apply(theta(sig, 0) * theta_bar(sig, 0))
    assert storage(dual_scale(x, a)) == storage(split_dual_scale(x, a))
    assert dual_scale(x, a) == u + eps * include.apply(scalar(sig, I)) * v


def counting(monkeypatch, targets):
    """Wrap each ``(owner, name)`` to count its calls; returns the counter."""
    calls = Counter()
    for owner, name in targets:
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _real=real, _name=name, **kwargs:
                            calls.update([_name]) or _real(*args, **kwargs))
    return calls


@pytest.mark.parametrize("desc,sig", [
    (build("sigma1", MatrixKind(SL, 2, 2)), AlgebraSignature(1, 1, 1, STANDARD)),
    (build("psi1", MatrixKind(OSP, 2, 2)), AlgebraSignature(2, 0, 1, GRADED)),
], ids=["sigma1", "psi1"])
def test_verify_structure_builds_no_difference_scaling_or_conjugated_copy(monkeypatch, desc, sig):
    """A work count: the bracket sides are commutators, the antilinearity
    sides one fused sum per cell, the evenness check compares diagonal parts,
    and the compiled map conjugates inside its one pass per cell."""
    desc.compiled        # compiling runs the steps on unit matrices, before counting
    calls = counting(monkeypatch, [(SuperMatrix, "__sub__"), (SuperMatrix, "scale"),
                                   (SuperNumber, "conjugate")])
    conjugated = counting(monkeypatch, [(SuperNumber, "conjugated")])
    outcomes = verify_structure(desc, sig, samples=8)
    assert [o.status for o in outcomes] == ["pass"] * 6
    assert calls == Counter()
    assert conjugated["conjugated"] > 0


def test_even_rules_bracket_multiplies_only_pairs_with_a_bracket(monkeypatch):
    kind = MatrixKind(SL, 2, 2)
    dim = len(basis_of(kind))
    empty = {(i, j) for i in range(dim) for j in range(dim) if not vector_bracket(kind, i, j)}
    assert (len(empty), dim * dim) == (113, 225)
    sig = AlgebraSignature(1, 1, 1, STANDARD)
    rng = random.Random(7)
    t1, t2 = random_tensor(kind, sig, rng), random_tensor(kind, sig, rng)
    bracketed = [(i, j) for i in t1.coeffs for j in t2.coeffs if (i, j) not in empty]
    assert len(bracketed) < len(t1.coeffs) * len(t2.coeffs)
    batches = []
    real = liealg.sums_of_products

    def recording(sig, cells):
        batches.append(list(cells))
        return real(sig, batches[-1])

    calls = counting(monkeypatch, [(SuperNumber, "__mul__"), (SuperNumber, "scaled")])
    monkeypatch.setattr(liealg, "sums_of_products", recording)
    bracket = even_rules_bracket(t1, t2)
    monkeypatch.undo()
    # one batch; one pair (c a_i, b_j) per structure constant of a pair with a bracket
    assert len(batches) == 1
    handed = [pair for pairs, minus in batches[0] for pair in pairs]
    assert len(handed) == sum(len(vector_bracket(kind, i, j)) for i, j in bracketed)
    # no product a_i b_j of its own, and each a_i scaled once per distinct signed constant
    signed = {(i, c if not (basis_of(kind)[i].parity and basis_of(kind)[j].parity) else -c)
              for i, j in bracketed for _, c in vector_bracket(kind, i, j)}
    assert calls == Counter({"scaled": len(signed)})
    assert bracket == reference_even_rules_bracket(t1, t2)


# ---------------------------------------------------------------------------
# numerator storage against the per-term oracle
# ---------------------------------------------------------------------------

def in_normal_form(x: SuperNumber) -> bool:
    """No zero numerator, and no factor common to the denominator and every
    numerator part (so zero has denominator 1)."""
    parts = [part for v in x._num.values() for part in v]
    return x.den > 0 and (0, 0) not in x._num.values() and gcd(x.den, *parts) == 1


def matches(result: SuperNumber, oracle: PerTerm) -> bool:
    return dict(result.items()) == oracle.terms and in_normal_form(result)


UNITS = (ONE, MINUS_ONE, I, MINUS_I)
constants = st.one_of(coefficients, st.sampled_from(UNITS))


def odd_elements(sig: AlgebraSignature):
    return st.dictionaries(st.sampled_from(basis_keys(sig, ODD)), coefficients).map(
        lambda terms: SuperNumber(sig, terms))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_element_arithmetic_matches_the_per_term_oracle(data):
    sig = data.draw(signatures())
    x, z = data.draw(elements(sig)), data.draw(elements(sig))
    # y cancels x on some of its keys, so sums meet zero across denominators
    cancelled = data.draw(st.sets(st.sampled_from(sorted(dict(x.items())))) if len(x) else st.just(set()))
    y_terms = {k: c for k, c in z.items() if k not in cancelled}
    y_terms.update((k, -x.coefficient(k)) for k in cancelled)
    y = SuperNumber(sig, y_terms)
    px, py = PerTerm.of(x), PerTerm.of(y)
    assert list(x.keys()) == [k for k, _ in x.items()] == list(px.terms)
    assert matches(x + y, px + py) and matches(y + x, py + px)
    assert matches(x - y, px - py) and matches(x - x, px - px)
    assert matches(-x, -px) and matches(x * y, px * py)
    pairs = data.draw(st.lists(st.tuples(factors(sig), factors(sig)), max_size=4))
    minus = data.draw(st.lists(st.tuples(factors(sig), factors(sig)), max_size=4))
    pairs, minus = pairs + [(x, ONE), (y, z)], minus + [(y, MINUS_ONE), (y, z)]
    assert matches(sum_of_products(sig, pairs, minus), per_term_sum_of_products(sig, pairs, minus))
    # equal values built by different routes are stored alike
    for other in ((x + y) - y, -(-x), SuperNumber(sig, dict(x.items())), sum_of_products(sig, [(x, ONE), (y, z)], [(y, z)])):
        assert other == x and hash(other) == hash(x)


@pytest.mark.parametrize("times", [0, 1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scalings_match_the_per_term_oracle(times, data):
    sig = data.draw(signatures())
    x, c = data.draw(elements(sig)), data.draw(constants)
    px = PerTerm.of(x)
    assert matches(x.scaled(c), px.scaled(c))
    assert matches(x.conjugated(times, c), px.conjugated(times, c))
    if not c.is_zero():
        back = x.scaled(c).scaled(c.inverse())
        assert back == x and hash(back) == hash(x)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_inverse_and_dual_maps_match_the_per_term_oracle(data):
    sig = data.draw(signatures(max_generators=5))
    x = data.draw(elements(sig))
    if not x.is_invertible():
        x = x + scalar(sig, data.draw(coefficients.filter(lambda c: not c.is_zero())))
    assert matches(x.inverse(), PerTerm.of(x).inverse())
    ext, include, _, _ = adjoin_dual(sig)
    e, a = data.draw(elements(ext)), include.apply(data.draw(even_elements(sig)))
    for part, oracle in zip(split_dual(e, sig), per_term_split_dual(e, sig)):
        assert part.sig == sig and matches(part, oracle)
    assert matches(dual_scale(e, a), per_term_dual_scale(e, a))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_morphism_images_match_the_per_term_oracle(data):
    sig = data.draw(signatures(max_generators=5))
    ext, include, project, _ = adjoin_dual(sig)
    key, c = data.draw(st.sampled_from(basis_keys(sig, EVEN))), data.draw(coefficients)
    monomial = [include, project, dual_scaling_morphism(ext, include.apply(SuperNumber(sig, {key: c})))]
    if sig.odd_pairs:
        monomial.append(kill_pair_projection(ext, 0))
    odd, even = generators(ext)
    general = [dual_scaling_morphism(ext, include.apply(data.draw(even_elements(sig)))),
               AlgebraMorphism(ext, ext, [data.draw(odd_elements(ext)) for _ in odd], even)]
    assert all(m.monomial for m in monomial)
    inputs = {sig: data.draw(elements(sig)), ext: data.draw(elements(ext))}
    for morphism in monomial + general:
        x = inputs[morphism.src]
        assert matches(morphism.apply(x), per_term_apply(morphism, x))


@pytest.mark.parametrize("parity", [None, EVEN, ODD])
@pytest.mark.parametrize("sig", [AlgebraSignature(2, 1, 1, STANDARD), AlgebraSignature(2, 0, 1, GRADED),
                                 AlgebraSignature(0)], ids=str)
def test_random_element_draws_what_the_scalar_pool_draws(sig, parity):
    for seed in range(20):
        rng, reference = rng_for(seed, "element"), rng_for(seed, "element")
        x = random_element(sig, rng, parity)
        expected = SuperNumber(sig, {key: random_scalar(reference) for key in basis_keys(sig, parity)})
        assert x == expected and list(x.items()) == list(expected.items())
        assert in_normal_form(x)
        assert rng.getstate() == reference.getstate()


def test_the_kernel_builds_no_coefficient_in_a_verify_run(monkeypatch):
    """A work count: inside ``sums_of_products`` and ``sum_of_products``,
    wherever the package calls them by name, no ``GaussianRational`` is
    built in a verify run; before, the kernel built one per output
    monomial.  The kernel's output cells are counted, one per
    ``sum_of_products`` call and one per cell of a batch, once also where
    one function enters the other."""
    desc, sig = build("sigma1", MatrixKind(SL, 2, 2)), AlgebraSignature(1, 1, 1, STANDARD)
    desc.compiled        # compiling runs the steps on unit matrices, before counting
    depth = cells = built = 0
    init, one_cell, batch = GaussianRational.__init__, algebra.sum_of_products, algebra.sums_of_products

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += depth > 0
        init(self, *args, **kwargs)

    def counted(kernel):
        def counted_kernel(sig, *args):
            nonlocal depth, cells
            if kernel is batch:
                args = (list(args[0]),)
            if depth == 0:
                cells += len(args[0]) if kernel is batch else 1
            depth += 1
            try:
                return kernel(sig, *args)
            finally:
                depth -= 1
        return counted_kernel

    for name, module in list(sys.modules.items()):
        if name.startswith("superforms"):
            for attr in ("sum_of_products", "sums_of_products"):
                if getattr(module, attr, None) in (one_cell, batch):
                    monkeypatch.setattr(module, attr, counted(getattr(module, attr)))
    monkeypatch.setattr(GaussianRational, "__init__", counting_init)
    x, y = dense(AlgebraSignature(3), 0), dense(AlgebraSignature(3), 3)
    product = algebra.sum_of_products(x.sig, [(x, y)])
    assert (cells, built) == (1, 0) and len(product) > 0
    c, d = GaussianRational(1, 2, 3), GaussianRational(3, -1, 5)
    assert algebra.sum_of_products(x.sig, [(c, d)]) == scalar(x.sig, c * d)
    assert (cells, built) == (2, 0)
    outcomes = verify_structure(desc, sig, samples=8)
    monkeypatch.undo()
    assert [o.status for o in outcomes] == ["pass"] * 6
    assert cells > 100 and built == 0

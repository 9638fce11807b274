"""Compiled structure maps against their step-by-step references.

Descriptors evaluate through positional maps compiled once per descriptor
(``exprs.compile_expr``) by composing per-step maps, which must equal the
maps found by tagged probe evaluations (``probe_reference.py``); each
structure's vector action reads basis vectors' sparse supports through a
source index, which must agree with whole grids (``dense_reference.py``);
maps that read one slot per cell are applied from a flat plan, which must
keep the storage of the general cell loop (``product_reference.py``);
monomial morphisms relabel keys instead of running the product kernel,
Gram matrices fuse each entry over transposed cells, and determinants and
leading minors are read off the sparse reduction under ``linalg.span_basis``.
Each fast path must agree exactly with the slow one it replaced.
"""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import (
    apply_constant, dense_determinant, dense_leading_minors, dense_vector_action, loop_gram,
)
from expr_reference import reference_apply_expr
from probe_reference import probe_compile_expr
from product_reference import dual_scaling_morphism, loop_positional_apply, respects_conjugation
from superforms import catalog, exprs, linalg
from superforms.algebra import (
    GRADED, STANDARD, AlgebraSignature, SuperNumber, adjoin_dual, even_mask_of, include_pairs,
    kill_pair_projection, odd_mask_of, one, scalar, sum_of_products, theta, theta_bar,
)
from superforms.catalog import Descriptor, applicable_names, build, corrupted_sigma1, param_choices
from superforms.exprs import (
    ad_step, apply_expr, compile_expr, conj_step, delta_step, neg_step, negst_step, pi_step,
)
from superforms.groups import kernel_map, lie_fixed_span_check, lift, sample_group, verify_group_structure
from superforms.liealg import OSP, SL, MatrixKind, combination_cells
from superforms.realforms import _vector_action, compactness_data, gram_matrix, verify_structure
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


def permutation_grid(size, swap):
    """The identity grid with rows ``swap[0]`` and ``swap[1]`` exchanged."""
    grid = [[ONE if i == j else ZERO for j in range(size)] for i in range(size)]
    a, b = swap
    grid[a], grid[b] = grid[b], grid[a]
    return grid


def oracle_descriptors():
    """Every descriptor of :data:`SHAPES`, every parameter choice of
    sl(4|2) and osp(2|4), the first and last choice of each sl(8|8) name,
    a map whose input slots each feed several output cells (conjugation by
    a grid that is not monomial), and two maps whose images leave the
    algebra: conjugation by a grid that swaps an even and an odd index."""
    yield from every_descriptor()
    for fam, m, n in ((SL, 4, 2), (OSP, 2, 4)):
        kind = MatrixKind(fam, m, n)
        for name in applicable_names(kind):
            for p, q in param_choices(name, kind):
                yield build(name, kind, p, q)
    kind = MatrixKind(SL, 8, 8)
    for name in applicable_names(kind):
        choices = list(param_choices(name, kind))
        for p, q in dict.fromkeys((choices[0], choices[-1])):
            yield build(name, kind, p, q)
    shear = [[ONE, GaussianRational(1, 1), ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, GaussianRational(2)]]
    yield Descriptor("shear", MatrixKind(SL, 2, 1), STANDARD, (ad_step("K", shear), conj_step()))
    for m, n in ((2, 1), (8, 8)):
        swap = ad_step("swap", permutation_grid(m + n, (m - 1, m)))
        yield Descriptor("mixing", MatrixKind(SL, m, n), STANDARD, (swap, conj_step()))


ORACLE_DESCRIPTORS = list(oracle_descriptors())


def lift_map_steps(desc):
    """The steps of ``desc.lift_map``: ``lift_steps()`` without the group
    inverse that leads an inverse-neg lift."""
    steps = desc.lift_steps()
    return steps[1:] if desc.lift_form == "inverse-neg" else steps


@pytest.mark.parametrize("desc", ORACLE_DESCRIPTORS, ids=label)
def test_composed_compile_matches_probe_compile(desc):
    m, n = desc.kind.m, desc.kind.n
    for steps, compiled in ((desc.steps, desc.compiled), (lift_map_steps(desc), desc.lift_map)):
        assert compiled == compile_expr(steps, m, n) == probe_compile_expr(steps, m, n)


def test_the_kernel_map_of_every_catalog_lift_is_the_compiled_structure():
    # the fixed-span group side reads N, or -N for an inverse-neg lift
    for desc in every_descriptor():
        assert kernel_map(desc) == desc.compiled, label(desc)


def test_compile_evaluates_no_matrix(monkeypatch):
    from superforms.matrices import SuperMatrix

    def forbidden(*args, **kwargs):
        raise AssertionError("built a supermatrix")

    monkeypatch.setattr(SuperMatrix, "__init__", forbidden)
    for fam, m, n in ((SL, 2, 2), (OSP, 2, 2), (SL, 3, 1)):
        kind = MatrixKind(fam, m, n)
        for name in applicable_names(kind):
            for p, q in param_choices(name, kind):
                desc = build(name, kind, p, q)
                compile_expr(desc.steps, m, n)
                compile_expr(lift_map_steps(desc), m, n)


def random_invertible(size, rng):
    """A lower unitriangular grid times an upper triangular one with nonzero
    diagonal, over small Gaussian rationals: invertible, and dense enough
    that most slots feed several output cells."""
    pool = [ZERO, ONE, GaussianRational(-1), I, GaussianRational(1, -2, 3)]
    lower = [[ONE if i == j else rng.choice(pool) if j < i else ZERO for j in range(size)] for i in range(size)]
    upper = [[rng.choice(pool[1:]) if i == j else rng.choice(pool) if j > i else ZERO for j in range(size)]
             for i in range(size)]
    return linalg.mat_mul(lower, upper)


@given(st.sampled_from([(2, 1), (1, 2), (2, 2), (3, 0), (0, 2), (1, 1)]), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_composed_compile_matches_probe_compile_on_random_runs(shape, seed):
    # complex constants before and after conj steps, so a conj that left the
    # constants composed so far unconjugated would show; pi on m != n is
    # refused by both compiles
    m, n = shape
    rng = random.Random(seed)
    scales = [GaussianRational(0, 2), GaussianRational(1, 1), GaussianRational(-3, 0, 2)]
    makers = [conj_step, conj_step, negst_step, neg_step, pi_step,
              lambda: delta_step(rng.choice(scales)), lambda: ad_step("K", random_invertible(m + n, rng))]
    steps = tuple(rng.choice(makers)() for _ in range(rng.randint(0, 5)))
    if any(step[0] == "pi" for step in steps) and m != n:
        for compile_ in (compile_expr, probe_compile_expr):
            with pytest.raises(ValueError, match="parity swap"):
                compile_(steps, m, n)
        return
    compiled = compile_expr(steps, m, n)
    assert compiled == probe_compile_expr(steps, m, n)
    index = compiled.source_index()
    for _ in range(3):
        grid = [[rng.choice([ZERO, ZERO, ONE, I, GaussianRational(2, -1)]) for _ in range(m + n)]
                for _ in range(m + n)]
        support = [((i, j), x) for i, row in enumerate(grid) for j, x in enumerate(row) if not x.is_zero()]
        dense = apply_constant(compiled, grid)
        expected = {(i, j): y for i, row in enumerate(dense) for j, y in enumerate(row) if not y.is_zero()}
        assert compiled.apply_support(support, index) == expected


@pytest.mark.parametrize("desc", ORACLE_DESCRIPTORS, ids=label)
def test_vector_action_reads_supports_like_dense_grids(desc):
    action = _vector_action(desc, desc.compiled)
    assert action == dense_vector_action(desc)
    assert (None in action[1]) == (desc.name == "mixing")


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
    expected = reference_apply_expr(desc.lift_steps(), g, allow_inverse=True)
    assert lift(desc, g) == expected
    # a direct lift applies L itself; an inverse-neg one inverts N = -L
    assert (desc.lift_map is desc.compiled) == (desc.lift_form == "direct")


def grid_storage(x):
    """Every entry as stored: denominator and numerators in key order."""
    return [[(e.den, list(e.numerators())) for e in row] for row in x.rows]


@pytest.mark.parametrize("desc", list(every_descriptor()), ids=label)
def test_flat_plan_matches_the_cell_loop(desc):
    maps = [desc.compiled, desc.lift_map]
    # every catalog map reads one slot per cell, so each is applied from its plan
    assert all(pmap.plan is not None for pmap in maps)
    rng = random.Random("plan " + label(desc))
    for conjugation in (STANDARD, GRADED):
        for sig in signatures(conjugation):
            ext = adjoin_dual(sig)[0]
            for x in (random_point(desc.kind, sig, rng), random_point(desc.kind, ext, rng)):
                for pmap in maps:
                    assert grid_storage(pmap.apply(x)) == grid_storage(loop_positional_apply(pmap, x))


def test_maps_with_several_terms_per_cell_keep_the_cell_loop():
    shear = next(desc for desc in ORACLE_DESCRIPTORS if desc.name == "shear")
    pmap = shear.compiled
    assert pmap.plan is None
    x = random_point(shear.kind, AlgebraSignature(1, 1, 1, STANDARD), random.Random(3))
    assert grid_storage(pmap.apply(x)) == grid_storage(loop_positional_apply(pmap, x))
    # an empty cell in a plan reads nothing
    empty = exprs.PositionalMap(((((0, 0, ONE),), ()), ((), ((1, 1, I),))), 1, 1)
    assert empty.plan == ((0, 0, ONE), (0, 0, ZERO), (0, 0, ZERO), (1, 1, I))
    y = random_point(MatrixKind(SL, 1, 1), AlgebraSignature(1, 0, 1, GRADED), random.Random(4))
    assert grid_storage(empty.apply(y)) == grid_storage(loop_positional_apply(empty, y))
    assert empty.apply(y).rows[0][1].is_zero()


def test_a_run_of_k_steps_composes_k_minus_1_times(monkeypatch):
    compose = exprs.PositionalMap.compose
    calls = []
    monkeypatch.setattr(exprs.PositionalMap, "compose",
                        lambda self, inner: calls.append(1) or compose(self, inner))
    kind = MatrixKind(SL, 2, 2)
    runs = [(), (conj_step(),), (negst_step(), conj_step()),
            build("sigma1", kind).steps, build("omega2", kind).steps,
            (neg_step(), delta_step(I), conj_step(), pi_step(), negst_step())]
    for run in runs:
        calls.clear()
        compiled = compile_expr(run, kind.m, kind.n)
        assert type(compiled) is exprs.PositionalMap
        assert len(calls) == max(len(run) - 1, 0), run
        assert compiled == probe_compile_expr(run, kind.m, kind.n)


def compact_descriptors():
    """Every descriptor of the shapes whose compact rows the benchmark pins,
    and the first and last choice of each sl(8|8) name."""
    for fam, m, n in ((SL, 2, 1), (SL, 3, 1), (OSP, 1, 2), (OSP, 2, 2), (SL, 4, 2), (OSP, 2, 4)):
        kind = MatrixKind(fam, m, n)
        for name in applicable_names(kind):
            for p, q in param_choices(name, kind):
                yield build(name, kind, p, q)
    kind = MatrixKind(SL, 8, 8)
    for name in applicable_names(kind):
        choices = list(param_choices(name, kind))
        for p, q in dict.fromkeys((choices[0], choices[-1])):
            yield build(name, kind, p, q)


def compact_grams(desc):
    """``(compactness data, fixed cells)`` of a descriptor's compact row."""
    data = compactness_data(desc)
    return data, [combination_cells(desc.kind, u.items()) for u in data["_even_fixed"]]


@pytest.mark.parametrize("desc", list(compact_descriptors()), ids=label)
def test_gram_matrix_matches_the_double_loop(desc):
    data, cells = compact_grams(desc)
    gram = loop_gram(cells)
    assert gram_matrix(cells) == gram
    minors = linalg.leading_principal_minors(gram) if gram else []
    assert minors == dense_leading_minors(gram)
    assert data["minors"] == [str(minor) for minor in minors]


def test_some_compact_grams_have_a_zero_pivot():
    # the minors' per-size fallback is reached on the grams above
    zero_pivots = []
    for desc in compact_descriptors():
        gram = loop_gram(compact_grams(desc)[1])
        if ZERO in dense_leading_minors(gram):
            zero_pivots.append(label(desc))
    assert {"osp(1|2):xi1(0)", "osp(2|2):psi2", "sl(4|2):omega1", "sl(8|8):sigma2"} <= set(zero_pivots)


def test_conjugation_count_is_not_reduced():
    # graded conjugation squares to the parity sign, so two conj steps are
    # not the identity; a run records both
    kind = MatrixKind(SL, 2, 1)
    steps = (conj_step(), negst_step(), conj_step())
    compiled = compile_expr(steps, kind.m, kind.n)
    assert compiled.conjugations == 2
    rng = random.Random(5)
    for conjugation in (STANDARD, GRADED):
        x = random_point(kind, AlgebraSignature(2, 0, 0, conjugation), rng)
        assert apply_expr(compiled, x) == reference_apply_expr(steps, x)
    assert apply_expr(compile_expr((), kind.m, kind.n), x) == x


def test_compiled_expression_refuses_other_shapes_and_group_steps():
    desc = build("sigma1", MatrixKind(SL, 2, 1))
    sig = AlgebraSignature(1, 0, 0, STANDARD)
    x = random_point(MatrixKind(SL, 1, 1), sig, random.Random(0))
    with pytest.raises(ValueError, match=r"^expression compiled for shape 2\|1, got 1\|1$"):
        apply_expr(desc.compiled, x)
    # the group inverse of an inverse-neg lift is no compiled step
    g = random_point(desc.kind, sig, random.Random(0))
    with pytest.raises(ValueError, match="^matrix inverse is a group-level step$"):
        apply_expr(desc.lift_steps(), g)


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
    sig = AlgebraSignature(1, 0, 0, STANDARD)
    desc = build("sigma1", MatrixKind(SL, 2, 1))
    outcomes = verify_structure(desc, sig, samples=4)
    assert {o.status for o in outcomes} == {"pass"}
    assert compiles == {desc.steps: 1}
    # the group level compiles the steps once, and an inverse-neg lift's N once more
    descs = (build("sigma1", MatrixKind(SL, 2, 1)), build("sigma3", MatrixKind(SL, 1, 1)))
    assert [desc.lift_form for desc in descs] == ["inverse-neg", "direct"]
    for desc in descs:
        compiles.clear()
        outcomes = verify_group_structure(desc, sig, samples=2)
        assert {o.status for o in outcomes} == {"pass"}
        assert lie_fixed_span_check(desc, sig)["spans_agree"]
        expected = Counter({desc.steps: 1})
        if desc.lift_form == "inverse-neg":
            expected[desc.lift_steps()[1:]] += 1
        assert compiles == expected, desc.display()


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
        yield "dual-scale-I", dual_scaling_morphism(ext, scalar(ext, I))
        yield "dual-scale-minus-I", dual_scaling_morphism(ext, scalar(ext, I.conjugate()))


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
    assert fold.monomial and not respects_conjugation(fold)
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
    morph = dual_scaling_morphism(ext, a)
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
    expected = [dense_determinant([row[: k + 1] for row in grid[: k + 1]]) for k in range(size)]
    assert linalg.leading_principal_minors(grid) == expected
    assert dense_leading_minors(grid) == expected


def leibniz_determinant(grid):
    """The sum over permutations ``p`` of ``sign(p) prod grid[i][p(i)]``,
    the sign read off the cycles of ``p``: ``(-1)^(n - cycles)``."""
    n = len(grid)
    total = ZERO
    for perm in itertools.permutations(range(n)):
        seen, cycles = set(), 0
        for start in range(n):
            if start not in seen:
                cycles += 1
                while start not in seen:
                    seen.add(start)
                    start = perm[start]
        term = ONE if (n - cycles) % 2 == 0 else -ONE
        for i, j in enumerate(perm):
            term = term * grid[i][j]
        total = total + term
    return total


@given(st.integers(0, 6), st.integers(0, 10 ** 6))
@settings(max_examples=300, deadline=None)
def test_determinant_matches_the_dense_and_leibniz_expansions(size, seed):
    rng = random.Random(seed)
    grid = [[rng.choice(MINOR_POOL) for _ in range(size)] for _ in range(size)]
    if size and rng.random() < 0.3:                 # zero leading entries
        for row in grid[: rng.randrange(size) + 1]:
            row[0] = ZERO
    if size and rng.random() < 0.2:                 # a zero row
        grid[rng.randrange(size)] = [ZERO] * size
    if size > 1 and rng.random() < 0.2:             # a row a multiple of another
        i, j = rng.sample(range(size), 2)
        c = rng.choice(MINOR_POOL[3:])
        grid[i] = [c * x for x in grid[j]]
    if size and rng.random() < 0.3:                 # a singular leading block
        k = rng.randrange(size)
        grid[k][: k + 1] = [ZERO] * (k + 1)
    det = linalg.determinant(grid)
    assert det == dense_determinant(grid)
    if size <= 5:
        assert det == leibniz_determinant(grid)


def test_determinant_stops_at_the_first_row_that_vanishes():
    """A work count: the second row repeats the first, so it vanishes in the
    reduction and the determinant is 0; no row after it is drawn."""
    grid = [[GaussianRational(1 + i + 2 * j, j - i) for j in range(5)] for i in range(5)]
    grid[1] = list(grid[0])
    drawn = []

    def rows():
        for i, row in enumerate(grid):
            drawn.append(i)
            yield row

    assert linalg.determinant(rows()) == ZERO == dense_determinant(grid)
    assert drawn == [0, 1]


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
    assert max(len(cell) for row in compiled.cells for cell in row) > 1
    rng = random.Random(7)
    for conjugation in (STANDARD, GRADED):
        x = random_point(kind, AlgebraSignature(2, 0, 1, conjugation), rng)
        assert apply_expr(compiled, x) == reference_apply_expr(steps, x)

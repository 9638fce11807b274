"""Algebraic supergroup functors and lifted real structures.

Group points over a coefficient algebra A:

* ``SL(m|n)``:  invertible even supermatrices of Berezinian one;
* ``OSp(m|n)`` (n even): even supermatrices with ``st(X) F X = F``,
  ``F = diag(1_m, J_n)``;
* plus plain invertible even matrices (the general linear points) used by the
  Berezinian tests.

A descriptor's group lift evaluates its expression on group points, composed
with negate-and-invert when the base expression is an antiautomorphism
(see :mod:`superforms.catalog`).  The checks here are the group-level axioms:
closure, multiplicativity, involutivity, equivariance under dual-number
scalings, consistency with the algebra-level map on the dual-number kernel,
the group-commutator recovery of the bracket, and exact agreement of the two
fixed-point pictures.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from . import linalg
from .algebra import (
    AlgebraSignature, SuperNumber, adjoin_dual, dual_scale_morphism, epsilon,
    even_mask_of, make_key, odd_mask_of, one, scalar,
)
from .catalog import Descriptor
from .exprs import apply_expr
from .liealg import GL, OSP, SL, MatrixKind
from .literals import format_number
from .matrices import (
    SuperMatrix, berezinian, const_matrix, identity_matrix,
    inverse as matrix_inverse, is_invertible, mul_const, osp_form_grid,
    supertranspose,
)
from .realforms import CoordLayout, matrix_literal
from .report import CheckOutcome, Tally
from .sampling import (
    random_even, random_invertible_even, random_odd, random_point, require_samples,
    rng_for,
)
from .scalars import I, integer


class SamplingFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def group_membership_defect(kind: MatrixKind, x: SuperMatrix) -> Optional[str]:
    if (x.m, x.n) != (kind.m, kind.n):
        return "shape mismatch"
    if not x.is_even_matrix():
        return "matrix is not even"
    if not is_invertible(x):
        return "matrix body is singular"
    if kind.family == SL:
        ber = berezinian(x)
        if ber != one(x.sig):
            return "Berezinian is not one"
    elif kind.family == OSP:
        form = osp_form_grid(kind.m, kind.n)
        lhs = mul_const(supertranspose(x), form) * x
        if lhs != const_matrix(kind.m, kind.n, x.sig, form, check=False):
            return "does not preserve the orthosymplectic form"
    return None


def group_contains(kind: MatrixKind, x: SuperMatrix) -> bool:
    return group_membership_defect(kind, x) is None


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_invertible(m: int, n: int, sig: AlgebraSignature, rng) -> SuperMatrix:
    """A random invertible even supermatrix (general linear point)."""
    x = random_point(MatrixKind(GL, m, n), sig, rng)
    shift = 0
    while True:
        body = x.body_grid()
        for k in range(m + n):
            body[k][k] = body[k][k] + integer(shift)
        if not linalg.determinant(body).is_zero():
            break
        shift += 1
    if shift:
        return x + identity_matrix(m, n, sig).scale(scalar(sig, integer(shift)))
    return x


def _unit_entry_matrix(m: int, n: int, sig: AlgebraSignature, i: int, j: int,
                       c: SuperNumber) -> SuperMatrix:
    size = m + n
    zero = SuperNumber.zero(sig)
    rows = [[zero] * size for _ in range(size)]
    rows[i][j] = c
    return SuperMatrix(m, n, sig, rows, check=False)


SL_DRAWS_PER_FACTOR = 64


def sample_sl(kind: MatrixKind, sig: AlgebraSignature, rng, factors: int = 4) -> SuperMatrix:
    """Product of elementary and balanced diagonal factors — Berezinian one
    holds exactly by construction.

    A draw that yields no factor is retried; after ``SL_DRAWS_PER_FACTOR *
    factors`` draws the sampler gives up with :class:`SamplingFailed`."""
    m, n, size = kind.m, kind.n, kind.size
    acc = identity_matrix(m, n, sig)
    if size == 1:
        return acc          # SL(1|0) and SL(0|1) are trivial: Ber = u^{+-1} = 1
    made = draws = 0
    while made < factors:
        if draws == SL_DRAWS_PER_FACTOR * factors:
            raise SamplingFailed(
                f"no {kind.display()} factor after {draws} draws ({made} of {factors} made)"
            )
        draws += 1
        if rng.random() < 0.65 and size > 1:
            i = rng.randrange(size)
            j = rng.randrange(size)
            if i == j:
                continue
            cross = (i < m) != (j < m)
            c = random_odd(sig, rng) if cross else random_even(sig, rng)
            if c.is_zero():
                continue
            factor = identity_matrix(m, n, sig) + _unit_entry_matrix(m, n, sig, i, j, c)
        else:
            u = random_invertible_even(sig, rng)
            u_inv = u.inverse()
            if m and n and rng.random() < 0.5:
                i = rng.randrange(m)
                j = m + rng.randrange(n)
                pairs = ((i, u), (j, u))           # Ber contribution u / u = 1
            else:
                block = 0 if (m > 1 or n <= 1) else 1
                span = m if block == 0 else n
                if span < 2:
                    continue
                i = rng.randrange(span)
                j = (i + 1 + rng.randrange(span - 1)) % span
                offset = 0 if block == 0 else m
                pairs = ((offset + i, u), (offset + j, u_inv))
            factor = identity_matrix(m, n, sig)
            rows = [list(r) for r in factor.rows]
            for pos, val in pairs:
                rows[pos][pos] = val
            factor = SuperMatrix(m, n, sig, rows, check=False)
        acc = acc * factor
        made += 1
    return acc


def sample_osp(kind: MatrixKind, sig: AlgebraSignature, rng, max_tries: int = 25) -> SuperMatrix:
    """Cayley transform ``(Id - X)(Id + X)^{-1}`` of a random algebra point."""
    ident = identity_matrix(kind.m, kind.n, sig)
    for _ in range(max_tries):
        x = random_point(kind, sig, rng)
        plus = ident + x
        if not is_invertible(plus):
            continue
        return (ident - x) * matrix_inverse(plus)
    raise SamplingFailed(
        f"no invertible Cayley denominator for {kind.display()} after {max_tries} tries"
    )


def sample_group(kind: MatrixKind, sig: AlgebraSignature, rng) -> SuperMatrix:
    if kind.family == SL:
        return sample_sl(kind, sig, rng)
    if kind.family == OSP:
        return sample_osp(kind, sig, rng)
    return sample_invertible(kind.m, kind.n, sig, rng)


# ---------------------------------------------------------------------------
# dual-number helpers
# ---------------------------------------------------------------------------

def eps_split(x: SuperMatrix, base: AlgebraSignature, eps_index: int) -> Tuple[SuperMatrix, SuperMatrix]:
    """Split a matrix over ``A(eps)`` as ``(eps-free part, eps-coefficient)``,
    both over the base algebra."""
    bit = 1 << eps_index
    free_rows, coef_rows = [], []
    for row in x.rows:
        free_row, coef_row = [], []
        for e in row:
            free_terms, coef_terms = {}, {}
            for key, c in e.items():
                emask = even_mask_of(key)
                stripped = make_key(odd_mask_of(key), emask & ~bit)
                if emask & bit:
                    coef_terms[stripped] = c
                else:
                    free_terms[stripped] = c
            free_row.append(SuperNumber.from_terms(base, free_terms))
            coef_row.append(SuperNumber.from_terms(base, coef_terms))
        free_rows.append(free_row)
        coef_rows.append(coef_row)
    return (SuperMatrix(x.m, x.n, base, free_rows, check=False),
            SuperMatrix(x.m, x.n, base, coef_rows, check=False))


def kernel_point(m_point: SuperMatrix, ext: AlgebraSignature, include, eps_index: int) -> SuperMatrix:
    """``Id + eps * M`` over the extended algebra."""
    m_ext = m_point.map_entries(include.apply, ext)
    eps = epsilon(ext, eps_index)
    return identity_matrix(m_point.m, m_point.n, ext) + m_ext.scale(eps)


# ---------------------------------------------------------------------------
# group-level verification of a lifted structure
# ---------------------------------------------------------------------------

GROUP_CHECK_NAMES = ("closure", "multiplicativity", "involutivity",
                     "dual-equivariance", "lift-consistency")


def verify_group_structure(desc: Descriptor, sig: AlgebraSignature, samples: int = 50,
                           seed: int = 0) -> List[CheckOutcome]:
    """Group axioms for the lifted structure, on ``samples`` (at least 1)
    deterministic samples."""
    require_samples(samples)
    if sig.conjugation != desc.conjugation:
        raise ValueError(
            f"descriptor {desc.name} needs {desc.conjugation} conjugation, "
            f"got {sig.conjugation}"
        )
    kind = desc.kind
    rng = rng_for(seed, "group-verify", desc.display(group=True),
                  f"P{sig.odd_pairs}", f"S{sig.odd_selfreal}", f"E{sig.even_nilpotents}")
    tallies = {name: Tally(name, name in desc.expected_flagged) for name in GROUP_CHECK_NAMES}

    ext, include, _, _ = adjoin_dual(sig)
    eps_index = sig.even_nilpotents

    evaluate = lambda g: apply_expr(desc.compiled_lift, g, allow_inverse=True)

    for idx in range(samples):
        x = sample_group(kind, sig, rng)
        y = sample_group(kind, sig, rng)
        sx = evaluate(x)
        sy = evaluate(y)

        defect = group_membership_defect(kind, sx)
        tallies["closure"].record(defect is None, lambda: {
            "input": matrix_literal(x), "image": matrix_literal(sx),
            "defect": defect or "",
        })

        lhs = evaluate(x * y)
        rhs = sx * sy
        tallies["multiplicativity"].record(lhs == rhs, lambda: {
            "x": matrix_literal(x), "y": matrix_literal(y),
            "lhs": matrix_literal(lhs), "rhs": matrix_literal(rhs),
        })

        back = evaluate(sx)
        tallies["involutivity"].record(back == x, lambda: {
            "input": matrix_literal(x), "twice": matrix_literal(back),
        })

        # kernel element Id + eps*M of the dual-number projection
        m_point = random_point(kind, sig, rng)
        z = kernel_point(m_point, ext, include, eps_index)

        if idx == 0:
            a = scalar(ext, I)
        else:
            a = include.apply(random_even(sig, rng))
        va = dual_scale_morphism(ext, a, eps_index)
        va_conj = dual_scale_morphism(ext, a.conjugate(), eps_index)
        lhs_e = evaluate(z.map_entries(va.apply))
        rhs_e = evaluate(z).map_entries(va_conj.apply)
        tallies["dual-equivariance"].record(lhs_e == rhs_e, lambda: {
            "a": format_number(a), "kernel-point": matrix_literal(z),
            "lhs": matrix_literal(lhs_e), "rhs": matrix_literal(rhs_e),
        })

        sz = evaluate(z)
        m_ext = m_point.map_entries(include.apply, ext)
        algebra_image = apply_expr(desc.compiled, m_ext)
        expected = identity_matrix(kind.m, kind.n, ext) + algebra_image.scale(epsilon(ext, eps_index))
        tallies["lift-consistency"].record(sz == expected, lambda: {
            "m": matrix_literal(m_point),
            "group-image": matrix_literal(sz), "expected": matrix_literal(expected),
        })

    return [tallies[name].outcome() for name in GROUP_CHECK_NAMES]


# ---------------------------------------------------------------------------
# bracket recovery by group commutators
# ---------------------------------------------------------------------------

def group_commutator_identity(kind: MatrixKind, sig: AlgebraSignature, samples: int = 50,
                              seed: int = 0) -> CheckOutcome:
    """``(Id+eM)(Id+hN)(Id-eM)(Id-hN) == Id + eh[M,N]`` over ``A(e,h)``, exactly,
    on ``samples`` (at least 1) samples."""
    require_samples(samples)
    ext1, include1, _, _ = adjoin_dual(sig)
    ext2, include2, _, _ = adjoin_dual(ext1)
    e_idx, h_idx = sig.even_nilpotents, sig.even_nilpotents + 1
    rng = rng_for(seed, "commutator", kind.display(),
                  f"P{sig.odd_pairs}", f"E{sig.even_nilpotents}")
    tally = Tally("group-commutator", False)
    ident = identity_matrix(kind.m, kind.n, ext2)
    e_gen, h_gen = epsilon(ext2, e_idx), epsilon(ext2, h_idx)
    lift = lambda m: m.map_entries(lambda c: include2.apply(include1.apply(c)), ext2)
    for _ in range(samples):
        m_point = random_point(kind, sig, rng)
        n_point = random_point(kind, sig, rng)
        em = lift(m_point).scale(e_gen)
        hn = lift(n_point).scale(h_gen)
        product = (ident + em) * (ident + hn) * (ident - em) * (ident - hn)
        bracket = lift(m_point * n_point - n_point * m_point)
        expected = ident + bracket.scale(e_gen * h_gen)
        tally.record(product == expected, lambda: {
            "m": matrix_literal(m_point), "n": matrix_literal(n_point),
            "product": matrix_literal(product), "expected": matrix_literal(expected),
        })
    return tally.outcome()


# ---------------------------------------------------------------------------
# fixed-span agreement between the group and algebra pictures
# ---------------------------------------------------------------------------

def fixed_span_maps(desc: Descriptor, sig: AlgebraSignature):
    """The two real-linear maps on ``g(A)`` whose fixed spans
    :func:`lie_fixed_span_check` compares: the lifted structure read on the
    dual-number kernel ``Id + eps M``, and the algebra-level structure.
    Returns ``(layout, group_side, algebra_side)``."""
    from .liealg import matrix_of, tensor_of

    kind = desc.kind
    layout = CoordLayout(kind, sig)
    ext, include, _, _ = adjoin_dual(sig)
    eps_index = sig.even_nilpotents

    def group_side(t):
        z = kernel_point(matrix_of(t), ext, include, eps_index)
        sz = apply_expr(desc.compiled_lift, z, allow_inverse=True)
        delta = sz - identity_matrix(kind.m, kind.n, ext)
        free, coef = eps_split(delta, sig, eps_index)
        if not free.is_zero():
            raise AssertionError("lifted image of a kernel point left the kernel")
        return tensor_of(kind, coef)

    def algebra_side(t):
        return tensor_of(kind, apply_expr(desc.compiled, matrix_of(t)))

    return layout, group_side, algebra_side


def lie_fixed_span_check(desc: Descriptor, sig: AlgebraSignature) -> Dict:
    """Compare the fixed span of the lifted structure on the dual-number
    kernel with the fixed span of the algebra-level structure, exactly.

    Both sides are computed as fixed vectors of real-linear maps on the same
    coordinate system; the result records both dimensions and whether the
    spans agree as Q-subspaces.  Each side is the canonical basis of its span
    (see :func:`superforms.realforms.fixed_vectors`), so the spans agree
    exactly when the two lists of vectors are equal.
    """
    layout, group_side, algebra_side = fixed_span_maps(desc, sig)
    group_span = layout.fixed_vectors(group_side)
    algebra_span = layout.fixed_vectors(algebra_side)
    return {
        "descriptor": desc.display(group=True),
        "group_fixed_dimension": len(group_span),
        "algebra_fixed_dimension": len(algebra_span),
        "expected_dimension": layout.complex_dim,
        "spans_agree": group_span == algebra_span,
    }

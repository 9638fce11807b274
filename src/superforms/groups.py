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

The sampled axioms read the lift through ``N = Descriptor.lift_map``: a
direct lift is ``F = N``, an inverse-neg lift ``F(g) = N(g)^-1``.  For an
inverse-neg lift each axiom is checked in an exactly equivalent form with
no inverse beyond ``F(x)`` itself, so a sample passes or fails as the axiom
does:

* multiplicativity ``N(xy) == N(y) N(x)``: inversion reverses products;
* involutivity ``N(F(x)) x == Id``: ``N(F(x))^-1 == x`` multiplied out;
* dual-equivariance ``N(D_a z) == D_ā(N(z))``, as for a direct lift: the
  dual scaling ``D_ā`` is an entrywise ring morphism, so it commutes with
  the matrix inverse;
* lift-consistency ``N(z) == Id - eps f(M)`` for ``z = Id + eps M``: that is
  the inverse of ``Id + eps f(M)``, because ``eps^2 = 0``.

The fixed-span group side reads ``N`` too, as a map on ``g(A)``.  ``N`` is
``k`` entrywise conjugations and a constant map, both additive;
conjugation fixes ``eps``, and the constant map commutes with multiplying
by the central ``eps``, so ``N(Id + eps M) = N(Id) + eps N(M)``.  When
``N(Id) == Id`` a direct lift sends the kernel point to ``Id + eps N(M)``,
and an inverse-neg one to its inverse ``Id - eps N(M)``: on the kernel the
lift acts as ``N`` or ``-N``.  Otherwise the eps-free part of every
lifted kernel point is ``N(Id)`` or its inverse, not ``Id``, and the lift
leaves the kernel.  The group-commutator identity
``(Id+eM)(Id+hN)(Id-eM)(Id-hN) == Id + eh[M,N]`` over ``A(e,h)`` is checked
as ``P - Q == eh[M,N]``, ``P = (Id+eM)(Id+hN)``, ``Q = (Id+hN)(Id+eM)``.  As
``e^2 = h^2 = 0``, ``Id-eM`` and ``Id-hN`` invert ``Id+eM`` and ``Id+hN``, so
the product is ``Id + eh[M,N]`` exactly when ``P = (Id + eh[M,N]) Q``; as
``eh e = eh h = 0``, that is ``Q + eh[M,N]``.

A kernel point ``Id + eps M`` lives over the dual numbers ``A(eps)`` of
:func:`~superforms.algebra.adjoin_dual`, ``eps`` the last even generator,
and :func:`kernel_point` builds it in one pass per entry.  The fixed-span
check builds none: both of its sides are vector actions of positional maps
(:func:`~superforms.realforms.fixed_point_coords`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from . import linalg
from .algebra import (
    AlgebraSignature, SuperNumber, adjoin_dual, dual_scale, epsilon, identity_plus_multiple,
    include_pairs, one, scalar,
)
from .catalog import Descriptor
from .exprs import PositionalMap, apply_expr, compile_expr, neg_step
from .liealg import GL, OSP, SL, MatrixKind
from .literals import format_number
from .matrices import (
    NotInvertibleMatrix, SuperMatrix, berezinian, commutator, const_matrix, identity_matrix,
    inverse as matrix_inverse, is_invertible, mul_const, osp_form_grid,
    supertranspose,
)
from .realforms import fixed_point_coords, matrix_literal
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
        return x + identity_matrix(m, n, sig).scale(integer(shift))
    return x


SL_DRAWS_PER_FACTOR = 64


def sample_sl(kind: MatrixKind, sig: AlgebraSignature, rng, factors: int = 4) -> SuperMatrix:
    """Product of elementary and balanced diagonal factors — Berezinian one
    holds exactly by construction.

    Each factor multiplies the product so far on the right, as the column
    operation it stands for: an elementary factor ``Id + c E_ij`` adds
    column ``i`` times ``c`` to column ``j``, and a diagonal one scales two
    columns, so only the changed entries are computed.

    A draw that yields no factor is retried; after ``SL_DRAWS_PER_FACTOR *
    factors`` draws the sampler gives up with :class:`SamplingFailed`."""
    m, n, size = kind.m, kind.n, kind.size
    rows = [list(r) for r in identity_matrix(m, n, sig).rows]
    if size == 1:
        return SuperMatrix(m, n, sig, rows, check=False)    # SL(1|0), SL(0|1): Ber = u^{+-1} = 1
    made = draws = 0
    while made < factors:
        if draws == SL_DRAWS_PER_FACTOR * factors:
            raise SamplingFailed(
                f"no {kind.display()} factor after {draws} draws ({made} of {factors} made)"
            )
        draws += 1
        if rng.random() < 0.65:
            i = rng.randrange(size)
            j = rng.randrange(size)
            if i == j:
                continue
            cross = (i < m) != (j < m)
            c = random_odd(sig, rng) if cross else random_even(sig, rng)
            if c.is_zero():
                continue
            for row in rows:
                if not row[i].is_zero():
                    row[j] = row[j] + row[i] * c
        else:
            u = random_invertible_even(sig, rng)
            u_inv = u.inverse()
            if m and n and rng.random() < 0.5:
                i = rng.randrange(m)
                j = m + rng.randrange(n)
                scales = ((i, u), (j, u))               # Ber contribution u / u = 1
            else:
                block = 0 if (m > 1 or n <= 1) else 1
                span = m if block == 0 else n
                if span < 2:
                    continue
                i = rng.randrange(span)
                j = (i + 1 + rng.randrange(span - 1)) % span
                offset = 0 if block == 0 else m
                scales = ((offset + i, u), (offset + j, u_inv))
            for row in rows:
                for k, v in scales:
                    row[k] = row[k] * v
        made += 1
    return SuperMatrix(m, n, sig, rows, check=False)


def sample_osp(kind: MatrixKind, sig: AlgebraSignature, rng, max_tries: int = 25) -> SuperMatrix:
    """Cayley transform ``(Id - X)(Id + X)^{-1}`` of a random algebra point,
    computed as ``2 D - Id`` with ``D = (Id + X)^{-1}``: ``Id - X`` is
    ``2 Id - (Id + X)``, so the product ``(Id - X) D`` is not needed."""
    ident = identity_matrix(kind.m, kind.n, sig)
    for _ in range(max_tries):
        x = random_point(kind, sig, rng)
        try:
            denominator = matrix_inverse(ident + x)
        except NotInvertibleMatrix:
            continue
        return denominator.scale(integer(2)) - ident
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
# dual-number kernel points
# ---------------------------------------------------------------------------

def kernel_point(m_ext: SuperMatrix, eps: SuperNumber) -> SuperMatrix:
    """``Id + eps * M`` over the extended algebra, with ``M`` already mapped
    into it (``m_ext``) and ``eps`` 1 or -1 times a monomial of even
    generators, such as :func:`algebra.adjoin_dual`'s: each entry is built
    in one pass (:func:`algebra.identity_plus_multiple`); any other ``eps``
    raises ``ValueError``."""
    return SuperMatrix(m_ext.m, m_ext.n, eps.sig, identity_plus_multiple(m_ext.rows, eps), check=False)


# ---------------------------------------------------------------------------
# group-level verification of a lifted structure
# ---------------------------------------------------------------------------

def lift(desc: Descriptor, g: SuperMatrix) -> SuperMatrix:
    """The lifted structure on the group point ``g``: ``L(g)`` for a direct
    lift, ``N(g)^-1`` for an inverse-neg one (:attr:`Descriptor.lift_map`)."""
    image = apply_expr(desc.lift_map, g)
    return matrix_inverse(image) if desc.lift_form == "inverse-neg" else image


GROUP_CHECK_NAMES = ("closure", "multiplicativity", "involutivity",
                     "dual-equivariance", "lift-consistency")


def _require_invertible(image: SuperMatrix) -> None:
    """Raise :class:`NotInvertibleMatrix`, as :func:`lift` would on inverting
    ``image``, unless its body is invertible."""
    if not is_invertible(image):
        raise NotInvertibleMatrix("matrix body is singular")


def verify_group_structure(desc: Descriptor, sig: AlgebraSignature, samples: int = 50,
                           seed: int = 0) -> List[CheckOutcome]:
    """Group axioms for the lifted structure ``F``, on ``samples`` (at least 1)
    deterministic samples, each drawing ``x``, ``y``, ``M`` and ``a`` in turn.

    The checks read ``N = desc.lift_map``.  For a direct lift ``F = N`` and
    each axiom is checked as stated.  For an inverse-neg lift ``F = N^-1``,
    ``F(x) = N(x)^-1`` is the one matrix inverse of a sample, and the other
    axioms are checked in their ``N`` forms (see the module notes):
    ``N(xy) == N(y) N(x)``, ``N(F(x)) x == Id``, ``N(D_a z) == D_ā(N(z))``
    and ``N(z) == Id - eps f(M)``.  Each is equivalent to its axiom when the
    ``N`` images are invertible, and ``F`` inverts each image it reads, so a
    singular one raises :class:`NotInvertibleMatrix` as :func:`lift` does.
    ``N(y)`` is tested every sample.  ``N(xy)``, ``N(F(x))``, ``N(D_a z)`` and
    ``N(z)`` are tested when multiplicativity, involutivity,
    dual-equivariance and lift-consistency fail, in turn: a pass proves its
    image invertible, given ``N(z)`` for dual-equivariance.  A failing
    sample's witness evaluates ``F`` itself (:func:`lift`), so reports do not
    depend on the form checked."""
    require_samples(samples)
    desc.require_conjugation(sig)
    kind = desc.kind
    rng = rng_for(seed, "group-verify", desc.display(group=True),
                  f"P{sig.odd_pairs}", f"S{sig.odd_selfreal}", f"E{sig.even_nilpotents}")
    tallies = {name: Tally(name, name in desc.expected_flagged) for name in GROUP_CHECK_NAMES}
    lift_map = desc.lift_map
    inverse_neg = desc.lift_form == "inverse-neg"
    ident = identity_matrix(kind.m, kind.n, sig)

    ext, include, _, eps = adjoin_dual(sig)

    for idx in range(samples):
        x = sample_group(kind, sig, rng)
        y = sample_group(kind, sig, rng)
        nx = apply_expr(lift_map, x)
        ny = apply_expr(lift_map, y)
        sx = matrix_inverse(nx) if inverse_neg else nx

        defect = group_membership_defect(kind, sx)
        tallies["closure"].record(defect is None, lambda: {
            "input": matrix_literal(x), "image": matrix_literal(sx),
            "defect": defect or "",
        })

        xy = x * y
        nxy = apply_expr(lift_map, xy)
        ok = nxy == (ny * nx if inverse_neg else nx * ny)
        if inverse_neg:
            _require_invertible(ny)
            if not ok:
                _require_invertible(nxy)
        tallies["multiplicativity"].record(ok, lambda: {
            "x": matrix_literal(x), "y": matrix_literal(y),
            "lhs": matrix_literal(lift(desc, xy)), "rhs": matrix_literal(sx * lift(desc, y)),
        })

        back = apply_expr(lift_map, sx)
        ok = back * x == ident if inverse_neg else back == x
        if inverse_neg and not ok:
            _require_invertible(back)
        tallies["involutivity"].record(ok, lambda: {
            "input": matrix_literal(x), "twice": matrix_literal(lift(desc, sx)),
        })

        # kernel element Id + eps*M of the dual-number projection
        m_point = random_point(kind, sig, rng)
        m_ext = m_point.map_entries(include.apply, ext)
        z = kernel_point(m_ext, eps)
        nz = apply_expr(lift_map, z)

        if idx == 0:
            a = scalar(ext, I)
        else:
            a = include.apply(random_even(sig, rng))
        a_conj = a.conjugate()
        z_scaled = z.map_entries(lambda e: dual_scale(e, a))
        lhs_e = apply_expr(lift_map, z_scaled)
        ok = lhs_e == nz.map_entries(lambda e: dual_scale(e, a_conj))
        if inverse_neg and not ok:
            _require_invertible(lhs_e)
        tallies["dual-equivariance"].record(ok, lambda: {
            "a": format_number(a), "kernel-point": matrix_literal(z),
            "lhs": matrix_literal(lift(desc, z_scaled)),
            "rhs": matrix_literal(lift(desc, z).map_entries(lambda e: dual_scale(e, a_conj))),
        })

        image = apply_expr(desc.compiled, m_ext)
        ok = nz == kernel_point(image, -eps if inverse_neg else eps)
        if inverse_neg and not ok:
            _require_invertible(nz)
        tallies["lift-consistency"].record(ok, lambda: {
            "m": matrix_literal(m_point),
            "group-image": matrix_literal(lift(desc, z)),
            "expected": matrix_literal(kernel_point(image, eps)),
        })

    return [tallies[name].outcome() for name in GROUP_CHECK_NAMES]


# ---------------------------------------------------------------------------
# bracket recovery by group commutators
# ---------------------------------------------------------------------------

def group_commutator_identity(kind: MatrixKind, sig: AlgebraSignature, samples: int = 50,
                              seed: int = 0) -> CheckOutcome:
    """``(Id+eM)(Id+hN)(Id-eM)(Id-hN) == Id + eh[M,N]`` over ``A(e,h)``, exactly,
    on ``samples`` (at least 1) samples, checked with two grid products as
    ``P - Q == eh[M,N]``, ``P = (Id+eM)(Id+hN)`` and ``Q = (Id+hN)(Id+eM)``:
    ``e^2 = h^2 = 0`` makes the product ``Id + eh[M,N]`` exactly when ``P =
    (Id + eh[M,N]) Q``, and ``eh e = eh h = 0`` makes that ``Q + eh[M,N]``.
    A failing sample's witness is the four-factor product."""
    require_samples(samples)
    ext2 = sig.extended(2)
    e_gen, h_gen = epsilon(ext2, sig.even_nilpotents), epsilon(ext2, sig.even_nilpotents + 1)
    eh = e_gen * h_gen
    include = include_pairs(sig, ext2)
    ident = identity_matrix(kind.m, kind.n, ext2)
    rng = rng_for(seed, "commutator", kind.display(),
                  f"P{sig.odd_pairs}", f"E{sig.even_nilpotents}")
    tally = Tally("group-commutator", False)
    lift = lambda m: m.map_entries(include.apply, ext2)
    for _ in range(samples):
        m_point = random_point(kind, sig, rng)
        n_point = random_point(kind, sig, rng)
        m_ext, n_ext = lift(m_point), lift(n_point)
        em, hn = kernel_point(m_ext, e_gen), kernel_point(n_ext, h_gen)
        expected = kernel_point(lift(commutator(m_point, n_point)), eh)
        p = em * hn
        tally.record(p - hn * em == expected - ident, lambda: {
            "m": matrix_literal(m_point), "n": matrix_literal(n_point),
            "product": matrix_literal(p * kernel_point(m_ext, -e_gen) * kernel_point(n_ext, -h_gen)),
            "expected": matrix_literal(expected),
        })
    return tally.outcome()


# ---------------------------------------------------------------------------
# fixed-span agreement between the group and algebra pictures
# ---------------------------------------------------------------------------

def kernel_map(desc: Descriptor) -> PositionalMap:
    """The lifted structure on the dual-number kernel, as a positional map
    on ``g(A)``: ``N = desc.lift_map`` for a direct lift, ``-N`` for an
    inverse-neg one (see the module notes), when ``N(Id) == Id``."""
    if desc.lift_form == "inverse-neg":
        return compile_expr((neg_step(),), desc.kind.m, desc.kind.n).compose(desc.lift_map)
    return desc.lift_map


def lie_fixed_span_check(desc: Descriptor, sig: AlgebraSignature) -> Dict:
    """Compare the fixed span of the lifted structure on the dual-number
    kernel with the fixed span of the algebra-level structure, exactly.

    The lift keeps the kernel exactly when ``N(Id) == Id`` (see the module
    notes), tested once over ``A = sig``.  Otherwise ``F(Id)`` is formed
    (:func:`lift`), which raises :class:`NotInvertibleMatrix` where ``F``
    cannot be formed, as on every kernel point, whose body is that of
    ``N(Id)``; where it can, ``AssertionError`` is raised.

    Both sides are fixed vectors of real-linear maps on the same coordinate
    system, read off a positional map's vector action by
    :func:`superforms.realforms.fixed_point_coords`: the group side off
    :func:`kernel_map`, and the algebra side off ``desc.compiled``.  The
    result records both dimensions and whether the spans agree as
    Q-subspaces.  Each side is the canonical basis of its span (see
    :func:`superforms.realforms.fixed_vectors`), so the spans agree exactly
    when the two lists of vectors are equal.  When the two maps are equal
    as tuples, as for every catalog lift, one basis serves both sides.
    """
    ident = identity_matrix(desc.kind.m, desc.kind.n, sig)
    if apply_expr(desc.lift_map, ident) != ident:
        lift(desc, ident)
        raise AssertionError("lifted image of a kernel point left the kernel")
    group_map = kernel_map(desc)
    group_span, layout = fixed_point_coords(desc, sig, group_map)
    algebra_span = (group_span if group_map == desc.compiled
                    else fixed_point_coords(desc, sig, desc.compiled)[0])
    return {
        "descriptor": desc.display(group=True),
        "group_fixed_dimension": len(group_span),
        "algebra_fixed_dimension": len(algebra_span),
        "expected_dimension": layout.complex_dim,
        "spans_agree": group_span == algebra_span,
    }

"""Group-level checks as the package ran them before they read through
``N = Descriptor.lift_map`` or checked a shorter equivalent form, kept as
test oracles.

* ``reference_verify_group_structure`` checks every axiom on ``F`` itself
  (``groups.lift``): an inverse-neg lift inverts six matrices per sample,
  ``F(x)``, ``F(y)``, ``F(xy)``, ``F(F(x))``, ``F(z)`` and ``F(D_a z)``.
* ``reference_group_commutator_identity`` multiplies out the four-factor
  product ``(Id+eM)(Id+hN)(Id-eM)(Id-hN)``: three grid products over
  ``A(e,h)`` per sample.  It reads ``groups.commutator`` at call time, so a
  test that replaces it there replaces it in both loops.
* ``reference_fixed_span_maps`` evaluates ``F`` on every kernel point, with
  a matrix inverse for an inverse-neg lift, and reads ``M`` back with
  ``eps_split``; ``layout_fixed_vectors`` takes the fixed vectors of such a
  map by evaluating it on every coordinate of ``g(A)``.

The random draws are those of the package's functions, in the same order,
so the tests require their outcomes (statuses, counts and witnesses, or
fixed vectors) to equal these exactly.
"""

from superforms import groups
from superforms.algebra import SuperNumber, adjoin_dual, dual_scale, epsilon, scalar
from superforms.exprs import apply_expr
from superforms.groups import (
    GROUP_CHECK_NAMES, group_membership_defect, kernel_point, lift, sample_group,
)
from superforms.liealg import TensorElement, matrix_of, tensor_of
from superforms.literals import format_number
from superforms.matrices import SuperMatrix, identity_matrix
from superforms.realforms import CoordLayout, fixed_vectors, matrix_literal
from superforms.report import Tally
from superforms.sampling import random_even, random_point, require_samples, rng_for
from superforms.scalars import I


def split_dual(x, base):
    """``x`` in ``A(eps)`` as ``(a, b)`` over ``base = A``, ``x = a + b eps``,
    ``eps`` the last even generator (:func:`superforms.algebra.adjoin_dual`'s).
    ``eps`` is even, so ``b eps`` keeps the keys of ``b`` with its bit set."""
    (bit, _), = epsilon(x.sig, x.sig.even_nilpotents - 1).items()
    free, held = {}, {}
    for key, c in x.items():
        if key & bit:
            held[key ^ bit] = c
        else:
            free[key] = c
    return SuperNumber(base, free), SuperNumber(base, held)


def eps_split(x, base):
    """Split a matrix over ``A(eps)`` as ``(eps-free part, eps-coefficient)``,
    both over ``base``, entry by entry (:func:`split_dual`)."""
    split = [[split_dual(e, base) for e in row] for row in x.rows]
    return tuple(SuperMatrix(x.m, x.n, base, [[pair[part] for pair in row] for row in split], check=False)
                 for part in (0, 1))


def reference_verify_group_structure(desc, sig, samples=50, seed=0):
    require_samples(samples)
    desc.require_conjugation(sig)
    kind = desc.kind
    rng = rng_for(seed, "group-verify", desc.display(group=True),
                  f"P{sig.odd_pairs}", f"S{sig.odd_selfreal}", f"E{sig.even_nilpotents}")
    tallies = {name: Tally(name, name in desc.expected_flagged) for name in GROUP_CHECK_NAMES}

    ext, include, _, eps = adjoin_dual(sig)

    for idx in range(samples):
        x = sample_group(kind, sig, rng)
        y = sample_group(kind, sig, rng)
        sx = lift(desc, x)
        sy = lift(desc, y)

        defect = group_membership_defect(kind, sx)
        tallies["closure"].record(defect is None, lambda: {
            "input": matrix_literal(x), "image": matrix_literal(sx),
            "defect": defect or "",
        })

        lhs = lift(desc, x * y)
        rhs = sx * sy
        tallies["multiplicativity"].record(lhs == rhs, lambda: {
            "x": matrix_literal(x), "y": matrix_literal(y),
            "lhs": matrix_literal(lhs), "rhs": matrix_literal(rhs),
        })

        back = lift(desc, sx)
        tallies["involutivity"].record(back == x, lambda: {
            "input": matrix_literal(x), "twice": matrix_literal(back),
        })

        # kernel element Id + eps*M of the dual-number projection
        m_point = random_point(kind, sig, rng)
        m_ext = m_point.map_entries(include.apply, ext)
        z = kernel_point(m_ext, eps)
        sz = lift(desc, z)

        if idx == 0:
            a = scalar(ext, I)
        else:
            a = include.apply(random_even(sig, rng))
        a_conj = a.conjugate()
        lhs_e = lift(desc, z.map_entries(lambda e: dual_scale(e, a)))
        rhs_e = sz.map_entries(lambda e: dual_scale(e, a_conj))
        tallies["dual-equivariance"].record(lhs_e == rhs_e, lambda: {
            "a": format_number(a), "kernel-point": matrix_literal(z),
            "lhs": matrix_literal(lhs_e), "rhs": matrix_literal(rhs_e),
        })

        expected = kernel_point(apply_expr(desc.compiled, m_ext), eps)
        tallies["lift-consistency"].record(sz == expected, lambda: {
            "m": matrix_literal(m_point),
            "group-image": matrix_literal(sz), "expected": matrix_literal(expected),
        })

    return [tallies[name].outcome() for name in GROUP_CHECK_NAMES]


def reference_group_commutator_identity(kind, sig, samples=50, seed=0):
    require_samples(samples)
    ext1, include1, _, e_gen = adjoin_dual(sig)
    ext2, include2, _, h_gen = adjoin_dual(ext1)
    e_gen = include2.apply(e_gen)
    rng = rng_for(seed, "commutator", kind.display(),
                  f"P{sig.odd_pairs}", f"E{sig.even_nilpotents}")
    tally = Tally("group-commutator", False)
    include = lambda m: m.map_entries(lambda c: include2.apply(include1.apply(c)), ext2)
    for _ in range(samples):
        m_point = random_point(kind, sig, rng)
        n_point = random_point(kind, sig, rng)
        m_ext, n_ext = include(m_point), include(n_point)
        product = (kernel_point(m_ext, e_gen) * kernel_point(n_ext, h_gen)
                   * kernel_point(m_ext, -e_gen) * kernel_point(n_ext, -h_gen))
        expected = kernel_point(include(groups.commutator(m_point, n_point)), e_gen * h_gen)
        tally.record(product == expected, lambda: {
            "m": matrix_literal(m_point), "n": matrix_literal(n_point),
            "product": matrix_literal(product), "expected": matrix_literal(expected),
        })
    return tally.outcome()


def reference_fixed_span_maps(desc, sig):
    desc.require_conjugation(sig)
    kind = desc.kind
    layout = CoordLayout(kind, sig)
    ext, include, _, eps = adjoin_dual(sig)

    def group_side(t):
        z = kernel_point(matrix_of(t).map_entries(include.apply, ext), eps)
        sz = lift(desc, z)
        delta = sz - identity_matrix(kind.m, kind.n, ext)
        free, coef = eps_split(delta, sig)
        if not free.is_zero():
            raise AssertionError("lifted image of a kernel point left the kernel")
        return tensor_of(kind, coef)

    return layout, group_side


def layout_fixed_vectors(layout, func):
    """Real basis, as complex coordinate dicts on ``layout``, of the fixed
    points of a real-linear map ``func`` on ``g(A)``, evaluated on the unit
    tensor of every coordinate."""
    def image(p, unit):
        i, key = layout.entries[p]
        unit_tensor = TensorElement(layout.kind, layout.sig, {i: SuperNumber(layout.sig, {key: unit})},
                                    check=False)
        return layout.complex_coords(func(unit_tensor))

    return fixed_vectors(layout.complex_dim, image)

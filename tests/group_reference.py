"""The group-level check loop as the package ran it before it read
inverse-neg lifts through ``N = Descriptor.lift_map``, kept as a test oracle.

Every axiom is checked on ``F`` itself (``groups.lift``): an inverse-neg
lift inverts six matrices per sample, ``F(x)``, ``F(y)``, ``F(xy)``,
``F(F(x))``, ``F(z)`` and ``F(D_a z)``.  The random draws are those of
``groups.verify_group_structure``, in the same order, so the tests require
its outcomes (statuses, counts and witnesses) to equal these exactly.
"""

from superforms.algebra import adjoin_dual, dual_scale, scalar
from superforms.exprs import apply_expr
from superforms.groups import (
    GROUP_CHECK_NAMES, group_membership_defect, kernel_point, lift, sample_group,
)
from superforms.literals import format_number
from superforms.realforms import matrix_literal
from superforms.report import Tally
from superforms.sampling import random_even, random_point, require_samples, rng_for
from superforms.scalars import I


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

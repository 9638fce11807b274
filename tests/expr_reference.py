"""The step-by-step expression evaluator, kept as a test oracle.

This is how the package evaluated an expression before it compiled each run
of algebra-level steps into one positional map (``exprs.compile_expr``):
each step's whole-matrix rule (``WHOLE_MATRIX_RULES``) is applied to the
matrix in turn, from the right end of the tuple to the left, so an ``ad``
step makes two grid products.  The tests require the compiled form to agree
with it exactly.
"""

from superforms.algebra import scalar
from superforms.exprs import step_rule
from superforms.matrices import (
    const_mul, inverse, mul_const, parity_swap, scale_offdiagonal, supertranspose,
)

# step tag -> the step evaluated on a whole matrix ``x``
WHOLE_MATRIX_RULES = {
    "conj": lambda x, step: x.conjugate_entries(),
    "negst": lambda x, step: -supertranspose(x),
    "pi": lambda x, step: parity_swap(x),
    "neg": lambda x, step: -x,
    "delta": lambda x, step: scale_offdiagonal(x, scalar(x.sig, step[1])),
    "ad": lambda x, step: const_mul(step[2], mul_const(x, step[3])),
    "ginv": lambda x, step: inverse(x),
}


def apply_step(x, step):
    """One step on the whole matrix ``x``."""
    return WHOLE_MATRIX_RULES[step[0]](x, step)


def reference_apply_expr(steps, x, allow_inverse=False):
    for step in reversed(steps):
        if step_rule(step).group_only and not allow_inverse:
            raise ValueError("matrix inverse is a group-level step")
        x = apply_step(x, step)
    return x

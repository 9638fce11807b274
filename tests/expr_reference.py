"""The step-by-step expression evaluator, kept as a test oracle.

This is how the package evaluated an expression before it compiled each run
of algebra-level steps into one positional map (``exprs.compile_expr``):
each step's rule is applied to the whole matrix in turn, from the right end
of the tuple to the left, so an ``ad`` step makes two grid products.  The
tests require the compiled form to agree with it exactly.
"""

from superforms.exprs import step_rule


def reference_apply_expr(steps, x, allow_inverse=False):
    for step in reversed(steps):
        rule = step_rule(step)
        if rule.group_only and not allow_inverse:
            raise ValueError("matrix inverse is a group-level step")
        x = rule.apply(x, step)
    return x

"""Composable matrix-level automorphism expressions.

An expression is a tuple of *steps written in composition order* (like
``f = step0 after step1 after ...``), so evaluation applies the steps from the
right end of the tuple to the left.  Steps:

* ``("conj",)``                 — entrywise coefficient conjugation;
* ``("negst",)``                — negated supertranspose;
* ``("pi",)``                   — parity swap (equal block sizes only);
* ``("neg",)``                  — negation;
* ``("delta", lam)``            — scale the B block by ``lam``, C by ``lam^-1``;
* ``("ad", label, K, K_inv)``   — conjugation by a constant invertible grid;
* ``("ginv",)``                 — matrix inverse (group-level expressions only).
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Sequence, Tuple

from . import linalg
from .matrices import (
    SuperMatrix, const_mul, inverse, mul_const, parity_swap, scale_offdiagonal,
    supertranspose,
)
from .algebra import scalar
from .scalars import GaussianRational, format_scalar

Step = Tuple


def ad_step(label: str, grid) -> Step:
    return ("ad", label, tuple(tuple(r) for r in grid), tuple(tuple(r) for r in linalg.invert(grid)))


def conj_step() -> Step:
    return ("conj",)


def negst_step() -> Step:
    return ("negst",)


def pi_step() -> Step:
    return ("pi",)


def neg_step() -> Step:
    return ("neg",)


def delta_step(lam: GaussianRational) -> Step:
    return ("delta", lam)


def ginv_step() -> Step:
    return ("ginv",)


class StepRule(NamedTuple):
    """How one step tag acts on a matrix and how it is displayed."""

    apply: Callable[[SuperMatrix, Step], SuperMatrix]
    display: Callable[[Step], str]
    group_only: bool = False


STEP_RULES: Dict[str, StepRule] = {
    "conj": StepRule(lambda x, step: x.conjugate_entries(), lambda step: "ConjugateEntries"),
    "negst": StepRule(lambda x, step: -supertranspose(x), lambda step: "NegateSupertranspose"),
    "pi": StepRule(lambda x, step: parity_swap(x), lambda step: "ParitySwap"),
    "neg": StepRule(lambda x, step: -x, lambda step: "Negate"),
    "delta": StepRule(lambda x, step: scale_offdiagonal(x, scalar(x.sig, step[1])),
                      lambda step: f"ScaleOffDiagonal({format_scalar(step[1])})"),
    "ad": StepRule(lambda x, step: const_mul(step[2], mul_const(x, step[3])),
                   lambda step: f"Ad({step[1]})"),
    "ginv": StepRule(lambda x, step: inverse(x), lambda step: "GroupInverse", group_only=True),
}


def step_rule(step: Step) -> StepRule:
    rule = STEP_RULES.get(step[0])
    if rule is None:
        raise ValueError(f"unknown step {step[0]!r}")
    return rule


def apply_expr(steps: Sequence[Step], x: SuperMatrix, allow_inverse: bool = False) -> SuperMatrix:
    for step in reversed(steps):
        rule = step_rule(step)
        if rule.group_only and not allow_inverse:
            raise ValueError("matrix inverse is a group-level step")
        x = rule.apply(x, step)
    return x


def step_display(step: Step) -> str:
    return step_rule(step).display(step)


def expr_display(steps: Sequence[Step]) -> list:
    return [step_display(s) for s in steps]

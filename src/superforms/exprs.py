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

Every step but ``conj`` and ``ginv`` is a constant map on the matrix slots:
output cell ``(i, j)`` is a fixed combination ``sum c x[r][s]`` of input
cells with constant ``c``.  Entrywise conjugation passes through such a map
and conjugates its constants, so a run of algebra-level steps is one
constant map ``L`` applied after ``k`` entrywise conjugations, ``k`` the
number of ``conj`` steps in the run.  ``k`` is kept as it is, not reduced
mod 2, because the graded conjugation squares to the parity sign.

:func:`compile_expr` finds ``L`` once per expression and shape by running
the step rules on the ``(m+n)^2`` unit matrices, where conjugation fixes the
unit; the image of unit ``(r, s)`` is column ``(r, s)`` of ``L``.  The steps
touch coefficients only through constants and conjugation, so the unit
matrices run sixteen to an evaluation, each tagged with its own even
monomial of an algebra of four even nilpotents (conjugation fixes those);
the tag of each output term names its unit.  A :class:`PositionalMap` holds
``L`` as sparse cells ``((r, s, c), ...)`` and evaluates it without any grid
product: each cell reads only the nonzero entries it needs.  A cell of one
term ``c x[r][s]``, as every cell of the catalog's maps is, is
``c conj^k(x[r][s])`` built in one pass over the entry's terms
(``SuperNumber.conjugated``: one read of the table of ``conj^k`` per key,
and for ``c`` in {1, -1, i, -i} the parts swapped or negated), with no
conjugated copy of the entry; the entries of a cell of several terms are
conjugated one pass each and summed by ``algebra.sum_of_products``.  Two
maps that conjugate equally often subtract, ``a - b``, into one positional
map: the osp conditions (``liealg.MatrixKind.conditions``) are the identity
minus the involution whose fixed points are osp, and the extraction-rebuild
check subtracts the rebuilt map from the descriptor's.  ``folded`` gives a
map with the same zeros that conjugates nothing, and ``vanishes`` tests
whether such a map sends a point to zero, as the osp membership check does.
Its ``apply_constant`` applies a map to a constant grid, where the ``k``
conjugations are one or none; :mod:`superforms.realforms` reads each
structure's action on the defining space off it, and decides the rebuild
check by applying the folded difference to each basis vector, so the
tagging above is the package's only probe evaluation.  A group-only step
splits the expression into runs and is applied by its own rule between
them, so an ``inverse-neg`` lift is ``inverse(-f(x))``;
``CompiledExpr.algebra_map`` refuses such an expression wherever one
positional map is needed.
:func:`apply_expr` evaluates a compiled expression, or compiles a step tuple
on the spot.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Sequence, Tuple, Union

from . import linalg
from .matrices import (
    SuperMatrix, const_mul, inverse, mul_const, parity_swap, scale_offdiagonal,
    supertranspose,
)
from .algebra import (
    MAX_EVEN_NILPOTENT, AlgebraSignature, SuperNumber, basis_keys, scalar, sum_of_products,
)
from .scalars import ONE, ZERO, GaussianRational, format_scalar

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
    conjugates: bool = False
    """The step is entrywise coefficient conjugation; every other step that
    is not ``group_only`` is a constant map on the matrix slots."""


STEP_RULES: Dict[str, StepRule] = {
    "conj": StepRule(lambda x, step: x.conjugate_entries(), lambda step: "ConjugateEntries",
                     conjugates=True),
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


class PositionalMap(NamedTuple):
    """A run of algebra-level steps: ``conjugations`` entrywise conjugations,
    then the constant map whose output cell ``(i, j)`` is ``sum c x[r][s]``
    over ``cells[i][j] = ((r, s, c), ...)``."""

    cells: Tuple[Tuple[Tuple[Tuple[int, int, GaussianRational], ...], ...], ...]
    conjugations: int

    def apply(self, x: SuperMatrix) -> SuperMatrix:
        sig = x.sig
        rows = x.rows
        k = self.conjugations
        zero = SuperNumber.zero(sig)
        out = []
        for cell_row in self.cells:
            out_row = []
            for cell in cell_row:
                # conjugate the entries a cell reads, not the whole grid
                terms = [(rows[r][s], c) for r, s, c in cell if not rows[r][s].is_zero()]
                if not terms:
                    out_row.append(zero)
                elif len(terms) == 1:
                    (e, c), = terms
                    out_row.append(e.conjugated(k, c))
                else:
                    if k:
                        terms = [(e.conjugated(k), c) for e, c in terms]
                    out_row.append(sum_of_products(sig, terms))
            out.append(out_row)
        return SuperMatrix(x.m, x.n, sig, out, check=False)

    def folded(self) -> "PositionalMap":
        """The map ``x -> sum c' x`` on the same cells, ``c'`` being ``c``
        conjugated ``k`` times: conjugation is additive, injective and
        conjugates constants, so it vanishes exactly where this map does."""
        flip = self.conjugations & 1
        return PositionalMap(tuple(tuple(tuple((r, s, c.conjugate() if flip else c) for r, s, c in cell)
                                         for cell in row) for row in self.cells), 0)

    def vanishes(self, x: SuperMatrix) -> bool:
        """Whether a map that conjugates nothing (see :meth:`folded`) sends
        ``x`` to zero; raises ``ValueError`` for one that conjugates.  A cell
        with one nonzero term does not vanish, and ``c1 x1 + c2 x2`` vanishes
        exactly when ``c1 x1 == -c2 x2``, that is ``x1 == x2`` if ``c1 == -c2``."""
        if self.conjugations:
            raise ValueError("fold the conjugations of a positional map before testing for zero")
        rows = x.rows
        for cell_row in self.cells:
            for cell in cell_row:
                terms = [(rows[r][s], c) for r, s, c in cell if not rows[r][s].is_zero()]
                if not terms:
                    continue
                if len(terms) == 1:
                    return False
                if len(terms) == 2:
                    (a, c1), (b, c2) = terms
                    if not (a == b if c1 == -c2 else a.scaled(c1) == b.scaled(-c2)):
                        return False
                elif not sum_of_products(x.sig, terms).is_zero():
                    return False
        return True

    def __sub__(self, other: "PositionalMap") -> "PositionalMap":
        """The map ``x -> self(x) - other(x)``: both maps conjugate ``x`` the
        same number of times, so the difference is one positional map, its
        cells the two maps' terms per input cell, cancelled terms dropped.
        Raises ``ValueError`` for another shape or conjugation count."""
        if len(self.cells) != len(other.cells) or self.conjugations != other.conjugations:
            raise ValueError("positional maps of different shapes or conjugation counts")
        cells = []
        for row, other_row in zip(self.cells, other.cells):
            out_row = []
            for cell, other_cell in zip(row, other_row):
                acc: Dict[Tuple[int, int], GaussianRational] = {}
                for r, s, c in cell + tuple((r, s, -c) for r, s, c in other_cell):
                    acc[r, s] = acc.get((r, s), ZERO) + c
                out_row.append(tuple((r, s, c) for (r, s), c in acc.items() if not c.is_zero()))
            cells.append(tuple(out_row))
        return PositionalMap(tuple(cells), self.conjugations)

    def apply_constant(self, grid) -> list:
        """The map on a constant grid.  Conjugation conjugates a constant, so
        the ``k`` conjugations are one when ``k`` is odd and none otherwise."""
        flip = self.conjugations & 1
        out = []
        for cell_row in self.cells:
            out_row = []
            for cell in cell_row:
                acc = ZERO
                for r, s, c in cell:
                    x = grid[r][s]
                    if not x.is_zero():
                        acc = acc + c * (x.conjugate() if flip else x)
                out_row.append(acc)
            out.append(out_row)
        return out


_PROBE = AlgebraSignature(even_nilpotents=MAX_EVEN_NILPOTENT)
"""The algebra the unit matrices are tagged in: its even monomials are
fixed by conjugation and the steps act on each of them separately, so one
evaluation carries as many unit matrices as it has monomials."""


def _compile_run(run: Sequence[Step], m: int, n: int) -> PositionalMap:
    """The positional map of ``run``, steps listed in the order they apply."""
    size = m + n
    tags = basis_keys(_PROBE)
    slots = [(r, s) for r in range(size) for s in range(size)]
    zero = SuperNumber.zero(_PROBE)
    cells = [[[] for _ in range(size)] for _ in range(size)]
    for start in range(0, len(slots), len(tags)):
        batch = dict(zip(tags, slots[start:start + len(tags)]))
        grid = [[zero] * size for _ in range(size)]
        for tag, (r, s) in batch.items():
            grid[r][s] = SuperNumber(_PROBE, {tag: ONE})
        x = SuperMatrix(m, n, _PROBE, grid, check=False)
        for step in run:
            x = step_rule(step).apply(x, step)
        for i, row in enumerate(x.rows):
            for j, e in enumerate(row):
                cells[i][j] += [batch[tag] + (c,) for tag, c in e.items()]
    return PositionalMap(
        tuple(tuple(tuple(sorted(cell)) for cell in row) for row in cells),
        sum(step_rule(step).conjugates for step in run),
    )


class CompiledExpr(NamedTuple):
    """An expression compiled for one shape ``m|n``: ``stages`` apply in
    order, each a :class:`PositionalMap` or a group-only step."""

    m: int
    n: int
    stages: Tuple[Union[PositionalMap, Step], ...]
    group_only: bool

    @property
    def algebra_map(self) -> PositionalMap:
        """The one positional map of an algebra-level expression; raises
        ``ValueError`` when a group-only step splits the expression."""
        if self.group_only:
            raise ValueError("matrix inverse is a group-level step")
        return self.stages[0]


def compile_expr(steps: Sequence[Step], m: int, n: int) -> CompiledExpr:
    """Compile ``steps`` for matrices of shape ``m|n`` (see the module notes).

    Raises ``ValueError`` for an unknown step, or for a step the shape does
    not admit (a parity swap needs ``m == n``)."""
    stages = []
    run = []
    group_only = False
    for step in reversed(steps):
        if step_rule(step).group_only:
            group_only = True
            if run:
                stages.append(_compile_run(run, m, n))
            stages.append(step)
            run = []
        else:
            run.append(step)
    if run or not stages:
        stages.append(_compile_run(run, m, n))
    return CompiledExpr(m, n, tuple(stages), group_only)


def apply_expr(expr: Union[CompiledExpr, Sequence[Step]], x: SuperMatrix,
               allow_inverse: bool = False) -> SuperMatrix:
    """Evaluate an expression on ``x``.  A step tuple is compiled for the
    shape of ``x`` first; pass a :class:`CompiledExpr` to compile once."""
    if not isinstance(expr, CompiledExpr):
        expr = compile_expr(expr, x.m, x.n)
    if (expr.m, expr.n) != (x.m, x.n):
        raise ValueError(f"expression compiled for shape {expr.m}|{expr.n}, got {x.m}|{x.n}")
    for stage in expr.stages if allow_inverse else (expr.algebra_map,):
        if type(stage) is PositionalMap:
            x = stage.apply(x)
        else:
            x = step_rule(stage).apply(x, stage)
    return x


def step_display(step: Step) -> str:
    return step_rule(step).display(step)


def expr_display(steps: Sequence[Step]) -> list:
    return [step_display(s) for s in steps]

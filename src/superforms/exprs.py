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
and conjugates its constants, so an expression of algebra-level steps is one
constant map ``L`` applied after ``k`` entrywise conjugations, ``k`` the
number of ``conj`` steps.  ``k`` is kept as it is, not reduced mod 2,
because the graded conjugation squares to the parity sign.

:func:`compile_expr` finds ``L`` once per expression and shape by composing
per-step maps, with no matrix evaluated.  Each step rule that is not
``group_only`` gives its constant map on the ``(m+n)^2`` slots
(``StepRule.constant``): ``neg`` negates every cell; ``negst`` reads cell
``(j, i)`` into ``(i, j)`` negated, except where it reads the C block, which
keeps its sign; ``pi`` swaps both block rows and block columns; ``delta``
scales the B block by ``lam`` and the C block by ``lam^-1``; ``ad`` writes
cell ``(i, j)`` of ``K x K^-1`` as ``sum K[i][a] K^-1[b][j] x[a][b]`` over the
nonzero entries of row ``i`` of ``K`` and column ``j`` of ``K^-1``.  The map
of a ``conj`` step is the identity after one conjugation.  The compile folds
these maps in the order the steps apply (:meth:`PositionalMap.compose`), from
the first step's map, and composition multiplies constants only where
neither is 1 or -1.  Composition moves conjugation inward past the maps
composed so far:
``conj(L(conj^k x)) = conj(L)(conj^(k+1) x)``, ``conj(L)`` being ``L`` with its
constants conjugated.  So a ``conj`` step conjugates the constants composed
so far and adds one to ``k``.  ``pi`` on ``m != n`` raises ``ValueError``.

A :class:`PositionalMap` holds ``L`` as sparse cells ``((r, s, c), ...)``
and evaluates it without any grid product: each cell reads only the nonzero
entries it needs.  A cell of one term ``c x[r][s]``, as every cell of the
catalog's maps is, is
``c conj^k(x[r][s])`` built in one pass over the entry's terms
(``SuperNumber.conjugated``: one read of the table of ``conj^k`` per key,
and for ``c`` in {1, -1, i, -i} the parts swapped or negated), with no
conjugated copy of the entry.  A map whose cells each read at most one
slot is applied from its flat :attr:`~PositionalMap.plan`, one ``(r, s,
c)`` per output cell, derived once per map; the entries of a cell of
several terms (``ad`` by a grid that is not monomial, a planted map) are
conjugated one pass each and summed by ``algebra.sum_of_products``.  Two
maps that conjugate equally often subtract, ``a - b``, into one positional
map: the osp conditions (``liealg.MatrixKind.conditions``) are the identity
minus the involution whose fixed points are osp, and the extraction-rebuild
check subtracts the rebuilt map from the descriptor's.  ``folded`` gives a
map with the same zeros that conjugates nothing, and ``vanishes`` tests
whether such a map sends a point to zero, as the osp membership check does.
On a constant grid the ``k`` conjugations are one or none.
``apply_support`` applies a map to the sparse support of such a grid (a
basis vector's ``support``) through the map's source index, which lists for
each input slot the output cells that read it, so it costs the support and
not the grid: :mod:`superforms.realforms` reads each structure's action on
the defining space this way, and decides the rebuild check by applying the
folded difference to each basis vector.  A group-only step has no constant
map, and :func:`compile_expr` refuses it: an ``inverse-neg`` lift is the map
of ``neg`` after the steps, then the matrix inverse
(:func:`superforms.groups.lift`).  A map records its upper block size, so
maps of one size but other block sizes neither combine nor apply to each
other's points.  :func:`apply_expr` evaluates a compiled map, or compiles a
step tuple on the spot.
"""

from __future__ import annotations

from functools import cached_property, reduce
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import linalg
from .matrices import SuperMatrix
from .algebra import SuperNumber, sum_of_products
from .scalars import MINUS_ONE, ONE, ZERO, GaussianRational, format_scalar

Step = Tuple
Cell = Tuple[int, int]
Term = Tuple[int, int, GaussianRational]


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


def _slot_map(m: int, n: int, terms: Callable[[int, int], Sequence[Term]],
              conjugations: int = 0) -> "PositionalMap":
    """The positional map whose output cell ``(i, j)`` is ``terms(i, j)``."""
    size = m + n
    return PositionalMap(tuple(tuple(tuple(terms(i, j)) for j in range(size)) for i in range(size)),
                         conjugations, m)


def _parity_swap_map(step: Step, m: int, n: int) -> "PositionalMap":
    if m != n:
        raise ValueError("parity swap needs equal block sizes")
    size = m + n
    return _slot_map(m, n, lambda i, j: (((i + m) % size, (j + m) % size, ONE),))


def _scale_offdiagonal_map(step: Step, m: int, n: int) -> "PositionalMap":
    lam = step[1]
    factors = {(True, False): lam, (False, True): lam.inverse()}     # keyed (i < m, j < m): B, C
    return _slot_map(m, n, lambda i, j: ((i, j, factors.get((i < m, j < m), ONE)),))


def _ad_map(step: Step, m: int, n: int) -> "PositionalMap":
    """``K x K^-1``: cell ``(i, j)`` reads ``x[a][b]`` with ``K[i][a] K^-1[b][j]``."""
    grid, grid_inv = step[2], step[3]
    rows = [[(a, c) for a, c in enumerate(row) if not c.is_zero()] for row in grid]
    cols = [[(b, row[j]) for b, row in enumerate(grid_inv) if not row[j].is_zero()]
            for j in range(m + n)]
    return _slot_map(m, n, lambda i, j: [(a, b, c * d) for a, c in rows[i] for b, d in cols[j]])


class StepRule(NamedTuple):
    """How one step tag is displayed, and its positional map for a shape
    ``m|n`` (``constant``, see the module notes), which a group-only step
    does not have."""

    display: Callable[[Step], str]
    constant: Optional[Callable[[Step, int, int], "PositionalMap"]] = None

    @property
    def group_only(self) -> bool:
        return self.constant is None


STEP_RULES: Dict[str, StepRule] = {
    "conj": StepRule(lambda step: "ConjugateEntries",
                     lambda step, m, n: _slot_map(m, n, lambda i, j: ((i, j, ONE),), 1)),
    "negst": StepRule(lambda step: "NegateSupertranspose",
                      lambda step, m, n: _slot_map(m, n, lambda i, j: (
                          (j, i, ONE if j >= m > i else MINUS_ONE),))),
    "pi": StepRule(lambda step: "ParitySwap", _parity_swap_map),
    "neg": StepRule(lambda step: "Negate",
                    lambda step, m, n: _slot_map(m, n, lambda i, j: ((i, j, MINUS_ONE),))),
    "delta": StepRule(lambda step: f"ScaleOffDiagonal({format_scalar(step[1])})", _scale_offdiagonal_map),
    "ad": StepRule(lambda step: f"Ad({step[1]})", _ad_map),
    "ginv": StepRule(lambda step: "GroupInverse"),
}


def step_rule(step: Step) -> StepRule:
    rule = STEP_RULES.get(step[0])
    if rule is None:
        raise ValueError(f"unknown step {step[0]!r}")
    return rule


class _MapFields(NamedTuple):
    cells: Tuple[Tuple[Tuple[Tuple[int, int, GaussianRational], ...], ...], ...]
    conjugations: int
    m: int


class PositionalMap(_MapFields):
    """An expression compiled for the shape ``m|n``, ``n`` the rest of the
    size: ``conjugations`` entrywise conjugations, then the constant map
    whose output cell ``(i, j)`` is ``sum c x[r][s]`` over
    ``cells[i][j] = ((r, s, c), ...)``.  Maps are tuples and compare as
    such; each keeps the :attr:`plan` it derives from its cells."""

    @property
    def shape(self) -> Tuple[int, int]:
        return self.m, len(self.cells) - self.m

    @cached_property
    def plan(self) -> Optional[Tuple[Term, ...]]:
        """The cells row by row as one flat tuple of ``(r, s, c)``, an empty
        cell as ``(0, 0, ZERO)``, which reads zero, when every cell reads at
        most one slot; ``None`` when some cell reads several."""
        plan = []
        for row in self.cells:
            for cell in row:
                if len(cell) > 1:
                    return None
                plan.append(cell[0] if cell else (0, 0, ZERO))
        return tuple(plan)

    def apply(self, x: SuperMatrix) -> SuperMatrix:
        sig = x.sig
        rows = x.rows
        k = self.conjugations
        plan = self.plan
        if plan is not None:
            flat = [rows[r][s].conjugated(k, c) for r, s, c in plan]
            size = len(rows)
            return SuperMatrix(x.m, x.n, sig, [flat[i:i + size] for i in range(0, len(flat), size)],
                               check=False)
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
                                         for cell in row) for row in self.cells), 0, self.m)

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
        if self.shape != other.shape or self.conjugations != other.conjugations:
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
        return PositionalMap(tuple(cells), self.conjugations, self.m)

    def compose(self, inner: "PositionalMap") -> "PositionalMap":
        """The map ``x -> self(inner(x))``.  ``self`` conjugates ``inner(x)``
        ``k`` times, and conjugation passes through ``inner`` conjugating its
        constants, so the result conjugates ``x`` as often as both maps do
        together, and its cell ``(i, j)`` sums ``c d'`` over the terms
        ``(a, b, c)`` of ``self``'s cell and ``(r, s, d)`` of ``inner``'s cell
        ``(a, b)``, ``d'`` being ``d`` conjugated ``k`` times.  Terms are
        merged per input slot, zeros dropped and slots sorted.  Raises
        ``ValueError`` for another shape."""
        if self.shape != inner.shape:
            raise ValueError("positional maps of different shapes")
        flip = self.conjugations & 1
        cells = []
        for row in self.cells:
            out_row = []
            for cell in row:
                acc: Dict[Cell, GaussianRational] = {}
                for a, b, c in cell:
                    for r, s, d in inner.cells[a][b]:
                        term = _times(c, d.conjugate() if flip else d)
                        prev = acc.get((r, s))
                        acc[r, s] = term if prev is None else prev + term
                out_row.append(tuple((r, s, c) for (r, s), c in sorted(acc.items()) if not c.is_zero()))
            cells.append(tuple(out_row))
        return PositionalMap(tuple(cells), self.conjugations + inner.conjugations, self.m)

    def source_index(self) -> Dict[Cell, List[Term]]:
        """Input slot ``(r, s)`` -> the output cells ``(i, j, c)`` whose sums
        read it with constant ``c``: the map read by columns, for
        :meth:`apply_support`.  Build it once per map and pass it to every call."""
        index: Dict[Cell, List[Term]] = {}
        for i, row in enumerate(self.cells):
            for j, cell in enumerate(row):
                for r, s, c in cell:
                    index.setdefault((r, s), []).append((i, j, c))
        return index

    def apply_support(self, support, index) -> Dict[Cell, GaussianRational]:
        """The map on the constant grid whose nonzero cells are ``support``
        (``((r, s), x), ...``, as :attr:`liealg.BasisVector.support`), as its
        nonzero output cells ``{(i, j): y}``; ``index`` is this map's
        :meth:`source_index`.  Conjugation conjugates a constant, so the
        ``k`` conjugations are one when ``k`` is odd and none otherwise."""
        flip = self.conjugations & 1
        out: Dict[Cell, GaussianRational] = {}
        for slot, x in support:
            if flip:
                x = x.conjugate()
            for i, j, c in index.get(slot, ()):
                out[i, j] = out.get((i, j), ZERO) + c * x
        return {cell: y for cell, y in out.items() if not y.is_zero()}


def _times(c: GaussianRational, d: GaussianRational) -> GaussianRational:
    """``c d``, with no product built when either factor is 1 or -1."""
    if d.den == 1 and not d.im and d.re in (1, -1):
        return c if d.re == 1 else -c
    if c.den == 1 and not c.im and c.re in (1, -1):
        return d if c.re == 1 else -d
    return c * d


def compile_expr(steps: Sequence[Step], m: int, n: int) -> PositionalMap:
    """The positional map of ``steps`` on matrices of shape ``m|n`` (see the
    module notes): each step's constant map composed after those of the
    steps that apply before it, starting from the first step's map, so ``k``
    steps compose ``k - 1`` times.  A step's map already has its cells' slots
    sorted and merged and no zero constant, as a composition leaves them; no
    steps give the identity.

    Raises ``ValueError`` for an unknown step, a group-only step, or a step
    the shape does not admit (a parity swap needs ``m == n``)."""
    if any(step_rule(step).group_only for step in steps):
        raise ValueError("matrix inverse is a group-level step")
    maps = [step_rule(step).constant(step, m, n) for step in reversed(steps)]
    if not maps:
        return _slot_map(m, n, lambda i, j: ((i, j, ONE),))
    return reduce(lambda inner, outer: outer.compose(inner), maps)


def apply_expr(expr: Union[PositionalMap, Sequence[Step]], x: SuperMatrix) -> SuperMatrix:
    """Evaluate an expression on ``x``.  A step tuple is compiled for the
    shape of ``x`` first; pass the map of :func:`compile_expr` to compile
    once.  Raises ``ValueError`` for a map of another shape."""
    if not isinstance(expr, PositionalMap):
        expr = compile_expr(expr, x.m, x.n)
    elif expr.shape != (x.m, x.n):
        m, n = expr.shape
        raise ValueError(f"expression compiled for shape {m}|{n}, got {x.m}|{x.n}")
    return expr.apply(x)


def step_display(step: Step) -> str:
    return step_rule(step).display(step)


def expr_display(steps: Sequence[Step]) -> list:
    return [step_display(s) for s in steps]

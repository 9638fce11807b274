"""Catalog of real-structure descriptors for the sl and osp families.

Each descriptor packages one antilinear involution of a matrix Lie
superalgebra functor: a composable expression (see :mod:`superforms.exprs`),
the conjugation kind of the coefficient algebras it acts over, parameter data,
applicability conditions, and how the map lifts to the supergroup.

The rows of :data:`CATALOG`, one per name (h = half the odd block size for osp):

========  ======  ==========  =====================================  =======
name      family  params      conditions                             lift
========  ======  ==========  =====================================  =======
sigma1    sl      p<=m, q<=n  —                                      inv-neg
sigma2    sl      —           m, n even                               direct
sigma3    sl      —           m == n                                  direct
sigma4    sl      —           m == n, m even                          inv-neg
omega1    sl      —           n even                                  direct
omega2    sl      p<=m, q<=n  —                                      inv-neg
omega3    sl      —           m == n                                  direct
xi1       osp     p<=m        —                                       direct
xi2       osp     p<=h        m even                                  direct
psi1      osp     p<=m, q<=h  —                                       direct
psi2      osp     —           m even                                  direct
========  ======  ==========  =====================================  =======

sigma/xi descriptors act over standard-conjugation coefficient algebras,
omega/psi over graded-conjugation ones.  ``inv-neg`` lifts compose the base
expression with negation and the matrix inverse, which turns the base
antiautomorphism into a multiplicative map on group points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from .algebra import GRADED, STANDARD
from .exprs import (
    CompiledExpr, Step, ad_step, compile_expr, conj_step, delta_step, expr_display,
    ginv_step, neg_step, negst_step, pi_step,
)
from .liealg import OSP, SL, MatrixKind
from .matrices import block_diag_grid, signature_grid, symplectic_grid
from .scalars import I, ZERO


class InapplicableDescriptor(ValueError):
    """The named descriptor does not exist for this family/shape/parameters."""


NOTE_SIGMA1 = (
    "sigma1: the inner conjugating matrix is diag(I_m^p, I_n^q); "
    "the q-signed block is sized to the lower-right block."
)
NOTE_XI2_DEFAULT = (
    "xi2: stored form Ad(diag(J_m, S)) * conj with S the p-signed symplectic "
    "twist of the odd block; this is the antilinear involutive completion of "
    "the linear strict variant (available via strict mode)."
)
NOTE_XI2_STRICT = (
    "xi2 strict variant: complex-linear Ad(diag(J_m, I_h^p, I_h^p)) with no "
    "conjugation; its antilinearity, involutivity, and twisted-naturality "
    "failures are reported as flagged, not failed."
)
NOTE_PSI1 = (
    "psi1: the odd-block twist is read as diag(I_h^q, I_h^q) composed with the "
    "symplectic unit; other readings of the same data exist, so psi1 results "
    "carry this note."
)


@dataclass(frozen=True)
class Descriptor:
    name: str
    kind: MatrixKind
    conjugation: str
    steps: Tuple[Step, ...]
    params: Tuple[Tuple[str, int], ...] = ()
    notes: Tuple[str, ...] = ()
    strict: bool = False
    expected_flagged: frozenset = frozenset()
    lift_form: str = "direct"

    def display(self, group: bool = False) -> str:
        shape = f"({self.kind.m}|{self.kind.n})"
        fam = {SL: "SL", OSP: "OSp"}[self.kind.family] if group else self.kind.family
        name = self.name.capitalize() if group else self.name
        params = ""
        if self.params:
            params = "(" + ",".join(str(v) for _, v in self.params) + ")"
        return f"{fam}{shape}:{name}{params}"

    def param_dict(self) -> Dict[str, int]:
        return dict(self.params)

    def lift_steps(self) -> Tuple[Step, ...]:
        if self.lift_form == "inverse-neg":
            return (ginv_step(), neg_step()) + self.steps
        return self.steps

    @cached_property
    def compiled(self) -> CompiledExpr:
        """``steps`` compiled for the kind's shape, once per descriptor."""
        return compile_expr(self.steps, self.kind.m, self.kind.n)

    @cached_property
    def compiled_lift(self) -> CompiledExpr:
        """``lift_steps()`` compiled for the kind's shape, once per descriptor."""
        return compile_expr(self.lift_steps(), self.kind.m, self.kind.n)


# ---------------------------------------------------------------------------
# the catalog table
# ---------------------------------------------------------------------------

def _sig_label(n: int, p: int) -> str:
    return f"I_{n}^{p}" if 0 < p < n else ("1_" + str(n) if p == n else f"-1_{n}")


Block = Tuple[str, list]
"""A diagonal block of a conjugating matrix: its label and its grid."""


def _signed(size: int, p: int) -> Block:
    """``I_size^p = diag(1_p, -1_{size-p})``; ``p = size`` gives the unit."""
    return _sig_label(size, p), signature_grid(size, p)


def _symplectic(size: int) -> Block:
    return f"J_{size}", symplectic_grid(size)


def _twist(h: int, p: int) -> Block:
    """The odd-block twist ``[[0, S], [-S, 0]]`` with ``S = I_h^p`` (xi2, psi1).

    Its label prints the lower-left block without the sign."""
    label, s = _signed(h, p)
    grid = [[ZERO] * h + row for row in s] + [[-c for c in row] + [ZERO] * h for row in s]
    return f"[[0, {label}], [{label}, 0]]", grid


def _ad_diag(*blocks: Block) -> Step:
    """Conjugation by the block-diagonal matrix of ``blocks``."""
    return ad_step("diag(" + ", ".join(label for label, _ in blocks) + ")",
                   block_diag_grid(*(grid for _, grid in blocks)))


class Entry(NamedTuple):
    """One catalog row.

    ``steps(m, n, h, *params)`` builds the expression.  ``params`` pairs each
    parameter with the size (``m``, ``n`` or ``h = n/2``) that is its upper
    bound and default; lower bounds are 0.  ``applies(m, n)`` decides
    applicability and ``reason`` explains a refusal.  ``flagged`` names the
    checks the structure is expected to fail.
    """

    family: str
    conjugation: str
    steps: Callable[..., Tuple[Step, ...]]
    params: Tuple[Tuple[str, str], ...] = ()
    applies: Callable[[int, int], bool] = lambda m, n: True
    reason: str = ""
    note: Optional[str] = None
    lift_form: str = "direct"
    flagged: FrozenSet[str] = frozenset()


CATALOG: Dict[str, Entry] = {
    "sigma1": Entry(SL, STANDARD, lambda m, n, h, p, q: (
        negst_step(), _ad_diag(_signed(m, p), _signed(n, q)), conj_step(), delta_step(I)),
        params=(("p", "m"), ("q", "n")), note=NOTE_SIGMA1, lift_form="inverse-neg"),
    "sigma2": Entry(SL, STANDARD, lambda m, n, h: (_ad_diag(_symplectic(m), _symplectic(n)), conj_step()),
                    applies=lambda m, n: m % 2 == 0 and n % 2 == 0,
                    reason="sigma2 needs both block sizes even"),
    "sigma3": Entry(SL, STANDARD, lambda m, n, h: (pi_step(), conj_step()),
                    applies=lambda m, n: m == n, reason="sigma3 needs equal block sizes"),
    "sigma4": Entry(SL, STANDARD, lambda m, n, h: (negst_step(), pi_step(), conj_step()),
                    applies=lambda m, n: m == n and m % 2 == 0,
                    reason="sigma4 needs equal even block sizes", lift_form="inverse-neg"),
    "omega1": Entry(SL, GRADED, lambda m, n, h: (conj_step(), _ad_diag(_signed(m, m), _symplectic(n))),
                    applies=lambda m, n: n % 2 == 0, reason="omega1 needs an even lower block size"),
    "omega2": Entry(SL, GRADED, lambda m, n, h, p, q: (
        negst_step(), conj_step(), _ad_diag(_signed(m, p), _signed(n, q))),
        params=(("p", "m"), ("q", "n")), lift_form="inverse-neg"),
    "omega3": Entry(SL, GRADED, lambda m, n, h: (conj_step(), pi_step(), delta_step(I)),
                    applies=lambda m, n: m == n, reason="omega3 needs equal block sizes"),
    "xi1": Entry(OSP, STANDARD, lambda m, n, h, p: (_ad_diag(_signed(m, p), _signed(n, n)), conj_step()),
                 params=(("p", "m"),)),
    "xi2": Entry(OSP, STANDARD, lambda m, n, h, p: (_ad_diag(_symplectic(m), _twist(h, p)), conj_step()),
                 params=(("p", "h"),), applies=lambda m, n: m % 2 == 0,
                 reason="xi2 needs an even upper block size", note=NOTE_XI2_DEFAULT),
    "psi1": Entry(OSP, GRADED, lambda m, n, h, p, q: (conj_step(), _ad_diag(_signed(m, p), _twist(h, q))),
                  params=(("p", "m"), ("q", "h")), note=NOTE_PSI1),
    "psi2": Entry(OSP, GRADED, lambda m, n, h: (conj_step(), _ad_diag(_symplectic(m), _signed(n, n))),
                  applies=lambda m, n: m % 2 == 0, reason="psi2 needs an even upper block size"),
}

STRICT_VARIANTS: Dict[str, Entry] = {
    # the literally printed xi2: complex-linear, no conjugation
    "xi2": CATALOG["xi2"]._replace(
        steps=lambda m, n, h, p: (_ad_diag(_symplectic(m), _signed(h, p), _signed(h, p)),),
        note=NOTE_XI2_STRICT, flagged=frozenset({"antilinearity", "involutivity", "naturality"})),
}

SL_NAMES = tuple(name for name, entry in CATALOG.items() if entry.family == SL)
OSP_NAMES = tuple(name for name, entry in CATALOG.items() if entry.family == OSP)
PARAM_ARITY = {name: len(entry.params) for name, entry in CATALOG.items() if entry.params}


def names_for(kind: MatrixKind) -> Tuple[str, ...]:
    return SL_NAMES if kind.family == SL else OSP_NAMES


def applicable_names(kind: MatrixKind) -> Tuple[str, ...]:
    out = []
    for name in names_for(kind):
        try:
            build(name, kind)
            out.append(name)
        except InapplicableDescriptor:
            pass
    return tuple(out)


def _upper(size: str, kind: MatrixKind) -> int:
    return {"m": kind.m, "n": kind.n, "h": kind.n // 2}[size]


def param_choices(name: str, kind: MatrixKind) -> List[Tuple[Optional[int], Optional[int]]]:
    """Every parameter choice of ``name`` on ``kind`` as ``(p, q)``, with
    ``None`` for a parameter the descriptor does not take."""
    ranges = [range(_upper(size, kind) + 1) for _, size in CATALOG[name].params]
    return [values + (None,) * (2 - len(values)) for values in product(*ranges)]


def build(name: str, kind: MatrixKind, p: Optional[int] = None, q: Optional[int] = None,
          strict: bool = False) -> Descriptor:
    """Construct a descriptor, validating applicability; raises otherwise.

    Parameters default to their maximal values (p = m and q = n style).  The
    ``strict`` flag selects the literal catalog variant where one exists
    (only xi2), and only that variant has ``Descriptor.strict`` set; elsewhere
    the flag is accepted and recorded as a no-op note after the permanent one.
    """
    family = kind.family
    if family not in (SL, OSP):
        raise InapplicableDescriptor(f"descriptors are defined for sl and osp, not {family}")
    entry = CATALOG.get(name)
    if entry is None or entry.family != family:
        raise InapplicableDescriptor(f"{name}: not a descriptor of the {family} family")
    arity = len(entry.params)
    if any(value is not None for value in (p, q)[arity:]):
        raise InapplicableDescriptor(f"{name} takes " + ("no parameters", "a single parameter p")[arity])
    if not entry.applies(kind.m, kind.n):
        raise InapplicableDescriptor(entry.reason)
    params = []
    for (what, size), value in zip(entry.params, (p, q)):
        high = _upper(size, kind)
        value = high if value is None else value
        if not 0 <= value <= high:
            raise InapplicableDescriptor(f"{name}: parameter {what}={value} out of range [0, {high}]")
        params.append((what, value))

    variant = STRICT_VARIANTS.get(name) if strict else None
    form = variant or entry
    notes = (form.note,) if form.note else ()
    if strict and variant is None:
        notes += (f"{name}: no strict variant exists; strict flag has no effect.",)
    return Descriptor(
        name, kind, form.conjugation,
        form.steps(kind.m, kind.n, kind.n // 2, *(value for _, value in params)),
        params=tuple(params), notes=notes, strict=variant is not None,
        expected_flagged=form.flagged, lift_form=form.lift_form,
    )


def corrupted_sigma1(kind: MatrixKind, p: Optional[int] = None, q: Optional[int] = None) -> Descriptor:
    """Negative control: sigma1 with its leading negation dropped.

    The result is still antilinear and involutive (squaring cancels the global
    sign), but the supertranspose without the compensating negation is an
    antiautomorphism, so the bracket-morphism identity must fail — the harness
    is expected to detect exactly that.
    """
    base = build("sigma1", kind, p, q)
    steps = (neg_step(),) + base.steps  # -(-st(...)) = +st(...)
    return Descriptor(
        "sigma1-corrupted", kind, STANDARD, steps,
        params=base.params,
        notes=("negative control: leading negation removed from sigma1",),
        lift_form="inverse-neg",
    )


def descriptor_summary(desc: Descriptor, group: bool = False) -> Dict:
    """Stable JSON-friendly description of a descriptor."""
    return {
        "name": desc.name,
        "display": desc.display(group=group),
        "family": desc.kind.family,
        "m": desc.kind.m,
        "n": desc.kind.n,
        "params": desc.param_dict(),
        "conjugation": desc.conjugation,
        "strict": desc.strict,
        "lift_form": desc.lift_form if group else None,
        "steps": expr_display(desc.lift_steps() if group else desc.steps),
    }

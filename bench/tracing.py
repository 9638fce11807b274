"""Per-layer tracing, installed from outside the package inside one child.

The child wraps public functions of ``superforms`` before it runs its op.
Modules import each other's functions by name (``from .liealg import
matrix_of``), so a wrapper is rebound in every ``superforms.*`` namespace
that holds the original; methods are wrapped on their class.  A target the
package no longer has is skipped and listed under ``missing``.

Two passes, each in its own child:

* ``spans`` wraps the coarse layer boundaries.  Each call is a span with a
  name, start, end and parent (the enclosing span); a child traces one op,
  so the op id is the trace id.  Spans are folded in memory into
  per-(parent, name) calls, total and self time as they close, where self
  time is the duration minus the time covered by child spans, and written
  when the child exits.
* ``counts`` wraps the hot leaves (scalar construction, Grassmann products
  and sums, monomial products).  That wrapper costs more than the work it
  counts, so this pass reports call counts only.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Tuple

# (module, attribute, layer metric name)
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("algebra", "AlgebraMorphism.apply", "algebra.morphism_apply"),
    ("algebra", "SuperNumber.inverse", "algebra.inverse"),
    ("matrices", "SuperMatrix.__mul__", "matrices.mul"),
    ("matrices", "const_mul", "matrices.const_mul"),
    ("matrices", "mul_const", "matrices.mul_const"),
    ("matrices", "supertranspose", "matrices.supertranspose"),
    ("matrices", "inverse", "matrices.inverse"),
    ("matrices", "berezinian", "matrices.berezinian"),
    ("matrices", "det_even", "matrices.det_even"),
    ("exprs", "apply_expr", "exprs.apply_expr"),
    ("liealg", "matrix_of", "liealg.matrix_of"),
    ("liealg", "tensor_of", "liealg.tensor_of"),
    ("liealg", "decompose_in_basis", "liealg.decompose_in_basis"),
    ("liealg", "even_rules_bracket", "liealg.even_rules_bracket"),
    ("liealg", "membership_defect", "liealg.membership_defect"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "determinant", "linalg.determinant"),
    ("sampling", "random_point", "sampling.random_point"),
    ("groups", "sample_group", "groups.sample_group"),
    ("groups", "sample_osp", "groups.sample_osp"),
    ("groups", "group_membership_defect", "groups.group_membership_defect"),
    ("groups", "lie_fixed_span_check", "groups.lie_fixed_span_check"),
    ("groups", "group_commutator_identity", "groups.group_commutator_identity"),
    ("realforms", "verify_structure", "realforms.verify_structure"),
    ("realforms", "fixed_point_data", "realforms.fixed_point_data"),
    ("realforms", "representability_check", "realforms.representability_check"),
    ("realforms", "extract_vector_conjugation", "realforms.extract_vector_conjugation"),
    ("realforms", "rebuild_matches", "realforms.rebuild_matches"),
    ("realforms", "compactness_data", "realforms.compactness_data"),
    ("literals", "format_matrix", "literals.format_matrix"),
    ("report", "render", "report.render"),
)

COUNT_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("scalars", "GaussianRational.__init__", "scalars.new"),
    ("algebra", "SuperNumber.__mul__", "algebra.mul"),
    ("algebra", "SuperNumber.__add__", "algebra.add"),
    ("algebra", "SuperNumber.conjugate", "algebra.conjugate"),
    ("algebra", "mono_mul", "algebra.mono_mul"),
)

# (module, private cache, layer metric name): sizes read when the op ends
CACHES: Tuple[Tuple[str, str, str], ...] = (
    ("algebra", "_MUL_CACHE", "algebra.mul_cache.entries"),
    ("algebra", "_CONJ_CACHE", "algebra.conj_cache.entries"),
    ("liealg", "_BASIS_CACHE", "liealg.basis_cache.entries"),
    ("liealg", "_STRUCTURE_CACHE", "liealg.structure_cache.entries"),
)

ROOT_SPAN = "op"


class Tracer:
    """Span bookkeeping for one child.  ``edges[(parent, name)]`` holds
    ``[calls, total_s, self_s]``; ``stats`` holds the extra figures some
    layers report (rref sizes, osp sampling attempts, mono_mul survivors)."""

    def __init__(self):
        self.stack: List[list] = []          # [name, start, time covered by children]
        self.edges: Dict[Tuple[str, str], list] = {}
        self.stats: Counter = Counter()
        self.tickers: Dict[str, "itertools.count"] = {}
        self.missing: List[str] = []

    def enter(self, name: str):
        self.stack.append([name, perf_counter(), 0.0])

    def leave(self):
        name, start, covered = self.stack.pop()
        duration = perf_counter() - start
        parent = self.stack[-1][0] if self.stack else ""
        if self.stack:
            self.stack[-1][2] += duration
        edge = self.edges.get((parent, name))
        if edge is None:
            edge = self.edges[(parent, name)] = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += duration
        edge[2] += duration - covered

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "superforms" or name.startswith("superforms."))]


def _wrap(module: str, attr: str, make: Callable[[Callable], Callable], missing: List[str]):
    """Replace ``superforms.<module>.<attr>`` by ``make(original)`` everywhere
    the package holds it."""
    mod = sys.modules.get("superforms." + module)
    owner_name, _, method = attr.rpartition(".")
    if mod is None:
        missing.append(f"{module}.{attr}")
        return
    if owner_name:
        owner = getattr(mod, owner_name, None)
        original = owner.__dict__.get(method) if owner is not None else None
        if original is None:
            missing.append(f"{module}.{attr}")
            return
        setattr(owner, method, make(original))
        return
    original = getattr(mod, attr, None)
    if original is None:
        missing.append(f"{module}.{attr}")
        return
    wrapper = make(original)
    for namespace in _package_modules():
        for key, value in list(vars(namespace).items()):
            if value is original:
                setattr(namespace, key, wrapper)


def install_spans(tracer: Tracer):
    def span(name: str):
        def make(fn):
            def traced(*args, **kwargs):
                tracer.enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.leave()
            return traced
        return make

    def rref_span(fn):
        inner = span("linalg.rref")(fn)

        def traced(matrix, *args, **kwargs):
            rows = len(matrix)
            cols = len(matrix[0]) if rows else 0
            tracer.stats["linalg.rref.cells"] += rows * cols
            tracer.stats["linalg.rref.max_cols"] = max(tracer.stats["linalg.rref.max_cols"], cols)
            return inner(matrix, *args, **kwargs)
        return traced

    def random_point_span(fn):
        inner = span("sampling.random_point")(fn)

        def traced(*args, **kwargs):
            if tracer.inside("groups.sample_osp"):
                tracer.stats["groups.sample_osp.attempts"] += 1
            return inner(*args, **kwargs)
        return traced

    special = {"linalg.rref": rref_span, "sampling.random_point": random_point_span}
    for module, attr, name in SPAN_TARGETS:
        _wrap(module, attr, special.get(name) or span(name), tracer.missing)


def install_counts(tracer: Tracer):
    """Wrap the hot leaves with counters.  A counter is an ``itertools.count``
    advanced with ``next``, the cheapest tick Python offers; ``read_counts``
    folds them into ``tracer.stats`` when the op is done."""
    def count(name: str):
        tick = tracer.tickers[name] = itertools.count()

        def make(fn):
            def counted(*args, **kwargs):
                next(tick)
                return fn(*args, **kwargs)
            return counted
        return make

    def mono_mul_count(fn):
        tick = tracer.tickers["algebra.mono_mul.calls"] = itertools.count()
        survivor = tracer.tickers["algebra.mono_mul.nonzero"] = itertools.count()

        def counted(k1, k2):
            next(tick)
            result = fn(k1, k2)
            if result is not None:
                next(survivor)
            return result
        return counted

    for module, attr, name in COUNT_TARGETS:
        make = mono_mul_count if name == "algebra.mono_mul" else count(name + ".calls")
        _wrap(module, attr, make, tracer.missing)


def read_counts(tracer: Tracer):
    for name, tick in tracer.tickers.items():
        tracer.stats[name] = next(tick)


def cache_sizes() -> Dict[str, int]:
    sizes = {}
    for module, attr, name in CACHES:
        cache = getattr(sys.modules.get("superforms." + module), attr, None)
        sizes[name] = len(cache) if cache is not None else 0
    return sizes

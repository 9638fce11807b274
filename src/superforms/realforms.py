"""Verification, extraction, fixed points, representability, compactness.

This module houses the substance of the package:

* :func:`verify_structure` — sampled identity checks that a descriptor truly
  defines a functorial antilinear involution (closure, antilinearity,
  involutivity, bracket morphism, evenness, naturality);
* :func:`extract_vector_conjugation` — recover the underlying antilinear map
  on the defining space from the functorial data; :func:`rebuild_matches`
  checks that the functorial map is conj-coefficients + that map on all of
  ``g(A)``, decided exactly on a basis of ``g`` (its docstring has the
  lemma);
* :func:`fixed_point_table` — the fixed-point set over a given coefficient
  algebra, one block per orbit type; :func:`fixed_point_data` /
  :func:`fixed_point_coords` — its exact basis, relabelled into coordinates;
* :func:`representability_check` — the standard/graded dichotomy: standard
  structures have fixed sets spanned by real-coefficient combinations of
  fixed vectors; graded ones admit an explicit fixed point outside that span;
* :func:`compactness_data` / :func:`compact_scan` — positive definiteness of
  the -Re tr(XY) form on the even fixed part, by exact leading minors of its
  Gram matrix (:func:`gram_matrix`, one fused sum per entry).

Extraction, fixed points and a passing rebuild check evaluate no
supermatrix.  A descriptor's map is ``k`` entrywise conjugations followed by
one constant map ``L`` (its compiled :class:`~superforms.exprs.PositionalMap`),
so extraction and fixed points read one table, the *vector action*:
``L(v)`` for each basis vector ``v`` (``v`` conjugated when ``k`` is odd),
read from ``v``'s sparse support through the source index of ``L`` and
written in the basis vectors of its parity.  The coefficients only pick up
``conj^k``, which sends a monomial to plus or minus one monomial
(:func:`algebra.conjugate_monomial`).
Every check over a coefficient algebra refuses one whose conjugation kind is
not the descriptor's (:meth:`Descriptor.require_conjugation`).
Every fixed set over ``A`` is one table (:func:`fixed_point_table`): a
block per orbit type of ``conj`` (:func:`orbit_types` has the lemma), each
one :func:`_orbit_block`, plus the orbits of the type.  The decisions read
the tables; only :func:`fixed_point_coords` relabels blocks into the
coordinates of ``g(A)``, an offset per basis vector plus a key's rank among
its parity's keys (:class:`CoordLayout`).
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import accumulate
from math import prod
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import linalg
from .algebra import (
    EVEN, GRADED, ODD, STANDARD, AlgebraSignature, SuperNumber, adjoin_dual, basis_keys,
    conjugate_monomial, dual_scale, even_mask_of, include_pairs, key_parity, kill_pair_projection,
    odd_mask_of, one, scalar, theta, theta_selfreal,
)
from .catalog import Descriptor, InapplicableDescriptor, build, names_for, param_choices
from .exprs import PositionalMap, apply_expr
from .liealg import (
    MatrixKind, MembershipError, TensorElement, basis_of, combination_cells,
    decompose_cells, matrix_of, membership_defect, require_member, tensor_of,
)
from .literals import format_matrix, format_number
from .matrices import SuperMatrix, commutator, linear_combination
from .report import CheckOutcome, Tally
from .sampling import (
    random_even, random_point, random_self_conjugate_even, require_samples, rng_for,
)
from .scalars import GaussianRational, I, ONE, ZERO


class ExtractionMismatch(ValueError):
    """The functorial map is not of the expected pointwise-conjugation shape."""


def matrix_literal(x: SuperMatrix) -> str:
    return format_matrix(x.m, x.n, [list(r) for r in x.rows])


# ---------------------------------------------------------------------------
# sampled identity checks
# ---------------------------------------------------------------------------

def _diagonal_part(x: SuperMatrix) -> SuperMatrix:
    zero = SuperNumber.zero(x.sig)
    m = x.m
    return SuperMatrix(x.m, x.n, x.sig, [
        [e if (i < m) == (j < m) else zero for j, e in enumerate(row)]
        for i, row in enumerate(x.rows)
    ], check=False)


CHECK_NAMES = ("closure", "antilinearity", "involutivity", "bracket-morphism",
               "evenness", "naturality")


def verify_structure(desc: Descriptor, sig: AlgebraSignature, samples: int = 100,
                     seed: int = 0) -> List[CheckOutcome]:
    """Run the six identity checks on ``samples`` deterministic samples each.

    Each sample draws fresh points/coefficients; the expensive evaluations are
    shared between checks.  The naturality check rotates through its morphism
    battery (pair projection, pair inclusion, real dual scaling, twisted
    imaginary dual scaling) sample by sample.  ``samples`` must be at least 1.
    """
    require_samples(samples)
    desc.require_conjugation(sig)
    kind = desc.kind
    rng = rng_for(seed, "verify", desc.display(), f"P{sig.odd_pairs}",
                  f"S{sig.odd_selfreal}", f"E{sig.even_nilpotents}")
    tallies = {name: Tally(name, name in desc.expected_flagged) for name in CHECK_NAMES}

    evaluate = lambda x: apply_expr(desc.compiled, x)

    # naturality battery, built once
    battery = []
    if sig.odd_pairs >= 1:
        kill = kill_pair_projection(sig, sig.odd_pairs - 1)
        inc = include_pairs(kill.tgt, sig)
        battery.append(("pair-projection", kill))
        battery.append(("pair-inclusion", inc))
    ext, ext_include, _, _ = adjoin_dual(sig)
    battery.append(("dual-scale-real", None))
    battery.append(("dual-scale-imaginary", (scalar(ext, I), scalar(ext, I.conjugate()))))

    i_const = scalar(sig, I)

    for idx in range(samples):
        x = random_point(kind, sig, rng)
        y = random_point(kind, sig, rng)
        if idx == 0:
            a, b = i_const, one(sig)
        else:
            a, b = random_even(sig, rng), random_even(sig, rng)
        fx = evaluate(x)
        fy = evaluate(y)

        defect = membership_defect(kind, fx)
        tallies["closure"].record(defect is None, lambda: {
            "input": matrix_literal(x), "image": matrix_literal(fx),
            "defect": defect or "",
        })

        lhs = evaluate(linear_combination(a, x, b, y))
        rhs = linear_combination(a.conjugated(1), fx, b.conjugated(1), fy)
        tallies["antilinearity"].record(lhs == rhs, lambda: {
            "a": format_number(a), "b": format_number(b),
            "x": matrix_literal(x), "y": matrix_literal(y),
            "lhs": matrix_literal(lhs), "rhs": matrix_literal(rhs),
        })

        back = evaluate(fx)
        tallies["involutivity"].record(back == x, lambda: {
            "input": matrix_literal(x), "twice": matrix_literal(back),
        })

        lhs_b = evaluate(commutator(x, y))
        rhs_b = commutator(fx, fy)
        tallies["bracket-morphism"].record(lhs_b == rhs_b, lambda: {
            "x": matrix_literal(x), "y": matrix_literal(y),
            "lhs": matrix_literal(lhs_b), "rhs": matrix_literal(rhs_b),
        })

        d = evaluate(_diagonal_part(x))
        tallies["evenness"].record(
            _diagonal_part(d) == d and _diagonal_part(fx) == d,
            lambda: {
                "input": matrix_literal(x),
                "image-of-diagonal-part": matrix_literal(d),
                "image": matrix_literal(fx),
            },
        )

        label, morph = battery[idx % len(battery)]
        if label == "pair-projection":
            lhs_n = fx.map_entries(morph.apply, morph.tgt)
            rhs_n = evaluate(x.map_entries(morph.apply, morph.tgt))
        elif label == "pair-inclusion":
            small = random_point(kind, morph.src, rng)
            lhs_n = evaluate(small.map_entries(morph.apply, morph.tgt))
            rhs_n = evaluate(small).map_entries(morph.apply, morph.tgt)
        else:
            xe = random_point(kind, ext, rng)
            fxe = evaluate(xe)
            if label == "dual-scale-real":
                a_scale = a_conj = ext_include.apply(random_self_conjugate_even(sig, rng))
            else:
                a_scale, a_conj = morph
            lhs_n = evaluate(xe.map_entries(lambda e: dual_scale(e, a_scale)))
            rhs_n = fxe.map_entries(lambda e: dual_scale(e, a_conj))
        tallies["naturality"].record(lhs_n == rhs_n, lambda: {
            "morphism": label,
            "lhs": matrix_literal(lhs_n), "rhs": matrix_literal(rhs_n),
        })

    return [tallies[name].outcome() for name in CHECK_NAMES]


# ---------------------------------------------------------------------------
# extraction of the underlying antilinear map on the defining space
# ---------------------------------------------------------------------------

class _ConjugationFields(NamedTuple):
    kind: MatrixKind
    conjugation: str
    coords: Tuple[Tuple[Tuple[int, GaussianRational], ...], ...]


class VectorConjugation(_ConjugationFields):
    """The antilinear map on the defining space induced by a descriptor.

    ``coords[i]`` is the image of basis vector ``i``, decomposed
    ``[(j, c), ...]`` over the basis; its grid is
    ``liealg.combination_cells(kind, coords[i])``.  For standard descriptors
    the map squares to the identity; for graded ones it squares to the parity
    sign (+1 on even vectors, -1 on odd ones).
    """

    def rebuild(self, x: SuperMatrix) -> SuperMatrix:
        """The functorial map reconstituted as conj-coefficients + vector map:
        each tensor-form term ``c (x) v_i`` of ``x`` goes to
        ``conj(c) (x) phi(v_i)``, evaluated as one positional map."""
        require_member(self.kind, x)
        return self._rebuild_map.apply(x)

    @cached_property
    def _rebuild_map(self) -> PositionalMap:
        """The coefficient of ``v_i`` sits at its slot; conjugated, it goes to
        ``sum_j p_ij v_j``.  So output cell ``(a, b)`` is ``sum_i conj(x[slot_i])
        sum_j p_ij v_j[a][b]``."""
        size = self.kind.size
        cells = [[[] for _ in range(size)] for _ in range(size)]
        for v in basis_of(self.kind):
            for (a, b), c in combination_cells(self.kind, self.coords[v.index]).items():
                cells[a][b].append((*v.slot, c))
        return PositionalMap(tuple(tuple(tuple(cell) for cell in row) for row in cells), 1, self.kind.m)

    def square_sign(self, parity: int) -> int:
        return -1 if (self.conjugation == GRADED and parity == ODD) else 1


def _vector_action(desc: Descriptor, own: PositionalMap
                   ) -> Tuple[int, List[Optional[List[Tuple[int, GaussianRational]]]]]:
    """The action on the defining space of ``own``, a positional map on the
    descriptor's shape: ``k`` entrywise conjugations, then the constant map
    ``L``.

    Returns ``k`` and one entry per basis vector: entry ``i`` decomposes
    ``L(v_i)``, ``v_i`` conjugated when ``k`` is odd, in the basis vectors of
    ``v_i``'s parity, or is ``None`` when that image leaves the algebra.
    Each image is read from ``v_i``'s sparse support through the map's source
    index (:meth:`PositionalMap.apply_support`)."""
    index = own.source_index()
    return own.conjugations, [decompose_cells(desc.kind, own.apply_support(v.support, index), v.parity)
                              for v in basis_of(desc.kind)]


def extract_vector_conjugation(desc: Descriptor) -> VectorConjugation:
    """Recover the descriptor's action on the defining space from its vector
    action (:func:`_vector_action`), validating the expected shape.

    An even vector maps to its action entry.  An odd vector ``v`` is carried
    by the first generator ``t1`` of a conjugate pair: the image of
    ``t1 (x) v`` is ``conj^k(t1) (x) L(v)``, and it must be
    ``t1~ (x) (image vector)``.  So when ``conj^k(t1) = s t1~`` the image
    vector is ``s`` times the action entry; when ``k`` is even,
    ``conj^k(t1)`` is ``+-t1``, the map is not a pointwise conjugation, and
    ExtractionMismatch is raised on the first odd vector.
    """
    kind = desc.kind
    conjugations, action = _vector_action(desc, desc.compiled)
    sig = AlgebraSignature(1, 0, 0, desc.conjugation)
    t1, t1bar = basis_keys(sig, ODD)
    image_key, sign = conjugate_monomial(sig, t1, conjugations)
    coords = []
    for v, decomposition in zip(basis_of(kind), action):
        if v.parity == ODD and image_key != t1bar:
            raise ExtractionMismatch(
                f"{desc.display()}: image of odd vector {v.index} is not of conjugated-coefficient form"
            )
        if decomposition is None:
            raise ExtractionMismatch(
                f"{desc.display()}: image of vector {v.index} left the algebra"
            )
        if v.parity == ODD:
            decomposition = [(j, c if sign > 0 else -c) for j, c in decomposition]
        coords.append(tuple(decomposition))

    result = VectorConjugation(kind, desc.conjugation, tuple(coords))
    _validate_square(result)
    return result


def _validate_square(phi: VectorConjugation):
    basis = basis_of(phi.kind)
    for v in basis:
        acc: Dict[int, GaussianRational] = {}
        for j, c in phi.coords[v.index]:
            cc = c.conjugate()
            for k, d in phi.coords[j]:
                acc[k] = acc.get(k, ZERO) + cc * d
        expected_sign = phi.square_sign(v.parity)
        for k, val in acc.items():
            expected = (ONE if expected_sign > 0 else -ONE) if k == v.index else ZERO
            if val != expected:
                raise ExtractionMismatch(
                    f"square of extracted map is not the expected parity sign "
                    f"(vector {v.index})"
                )
        if v.index not in acc:
            raise ExtractionMismatch(
                f"square of extracted map vanishes on vector {v.index}"
            )


def rebuild_matches(desc: Descriptor, phi: VectorConjugation, sig: AlgebraSignature,
                    samples: int = 100, seed: int = 0) -> CheckOutcome:
    """Whether the descriptor's map ``own`` equals conj-coefficients + phi
    (``rebuilt``, see :meth:`VectorConjugation.rebuild`) on all of ``g(A)``,
    decided on a basis of ``g``.

    Lemma.  Let ``D`` be ``own - rebuilt`` with its conjugation folded into
    its constants (:meth:`PositionalMap.folded`); it vanishes exactly where
    ``own - rebuilt`` does.  ``D`` conjugates nothing and its cells are
    constant, so it is A-linear: ``D(a v) = a D(v)`` for ``a`` in ``A`` and
    ``v`` in ``g``, where ``D(v)`` is the constant grid of ``D`` applied to
    ``v``'s support (:meth:`PositionalMap.apply_support`).  A point of
    ``g(A)`` is ``sum_v a_v v`` over the basis vectors ``v``, with ``a_v`` of
    ``v``'s parity, and the coefficient of a monomial ``u`` in its image is
    ``sum_v a_v[u] D(v)``.  Distinct monomials are independent, so ``D`` vanishes on ``g(A)``
    exactly when ``D(v)`` is the zero grid for every ``v`` of a parity that
    ``A`` has: every even ``v`` (``A`` has ``1``), and every odd ``v`` when
    ``A`` has an odd generator.

    The outcome counts the basis vectors decided as its samples.  A failing
    ``v`` is lifted to the point ``t v``, ``t`` being ``1`` for an even
    ``v`` and otherwise the first odd generator; its image under ``D`` is
    ``t D(v)``, not zero, and both maps are evaluated on it for the witness,
    which must show them different.

    When the two maps conjugate a different number of times, the difference
    cannot be formed: then ``samples`` random points are compared instead.
    ``samples`` must be at least 1 either way.
    """
    require_samples(samples)
    desc.require_conjugation(sig)
    tally = Tally("extraction-rebuild", False)
    own_map = desc.compiled

    def witness(x: SuperMatrix) -> Dict[str, str]:
        own, rebuilt = apply_expr(own_map, x), phi.rebuild(x)
        if own == rebuilt:
            raise AssertionError(f"{desc.display()}: no mismatch at the witness {matrix_literal(x)}")
        return {"input": matrix_literal(x), "functorial": matrix_literal(own),
                "rebuilt": matrix_literal(rebuilt)}

    try:
        difference = (own_map - phi._rebuild_map).folded()
    except ValueError:          # another conjugation count
        difference = None
    if difference is None:
        rng = rng_for(seed, "rebuild", desc.display(), f"P{sig.odd_pairs}")
        for _ in range(samples):
            x = random_point(desc.kind, sig, rng)
            tally.record(apply_expr(own_map, x) == phi.rebuild(x), lambda: witness(x))
        return tally.outcome()

    units = {EVEN: one(sig)}
    if sig.odd_pairs or sig.odd_selfreal:
        units[ODD] = theta(sig, 0) if sig.odd_pairs else theta_selfreal(sig, 0)
    index = difference.source_index()
    for v in basis_of(desc.kind):
        unit = units.get(v.parity)
        if unit is None:
            continue
        tally.record(not difference.apply_support(v.support, index),
                     lambda: witness(matrix_of(TensorElement(desc.kind, sig, {v.index: unit}))))
    outcome = tally.outcome()
    certified = f"certified on a basis of {outcome.samples}"
    return outcome._replace(note=f"{outcome.note}, {certified}" if outcome.note else certified)


# ---------------------------------------------------------------------------
# coordinates, fixed points
# ---------------------------------------------------------------------------

def to_real(coords: Dict[int, GaussianRational]) -> Dict[int, GaussianRational]:
    """Sparse real coordinates (real part at ``2p``, imaginary part at
    ``2p+1``) of a sparse complex coordinate dict."""
    vec = {}
    for p, z in coords.items():
        if z.re:
            vec[2 * p] = GaussianRational(z.re, 0, z.den)
        if z.im:
            vec[2 * p + 1] = GaussianRational(z.im, 0, z.den)
    return vec


def from_real(vec: Dict[int, GaussianRational]) -> Dict[int, GaussianRational]:
    """The complex coordinate dict of sparse real coordinates (inverse of
    :func:`to_real`)."""
    coords: Dict[int, GaussianRational] = {}
    for c, x in vec.items():
        p = c // 2
        coords[p] = coords.get(p, ZERO) + (x * I if c & 1 else x)
    return coords


def fixed_vectors(count: int, image: Callable[[int, GaussianRational], Dict[int, GaussianRational]]
                  ) -> List[Dict[int, GaussianRational]]:
    """Real basis of the fixed points of a real-linear map on ``count`` complex
    coordinates.

    ``image(p, u)`` returns the complex coordinates ``{q: z}`` of the image of
    ``u`` times the ``p``-th unit vector, for ``u`` = 1 and ``u`` = i.  On the
    real coordinates (real part ``2p``, imaginary part ``2p+1``) the fixed
    points are the null space of ``M - I``, given to :func:`linalg.nullspace`
    as sparse columns: its elimination (:func:`linalg.span_basis`, the one
    Gauss-Jordan of the package) meets only the nonzero entries, so the map's
    small independent blocks fill in only inside themselves.  Each vector is
    returned as complex coordinates ``{p: z}``.

    The basis is canonical: it depends only on the fixed space, not on the
    map.  In a subspace ``U``, the last nonzero indices of the vectors of
    ``U`` form a set ``F`` of ``dim U`` indices, and for each ``f`` in ``F``
    exactly one vector of ``U`` is 1 at ``f``, 0 at the rest of ``F`` and 0
    after ``f`` (the difference of two such vectors would have its last
    nonzero index outside ``F``).  :func:`linalg.nullspace` returns these
    vectors, in increasing order of ``f``, and going to complex coordinates
    is one-to-one.  So two fixed spaces on the same coordinates are equal
    exactly when their lists of vectors are equal.
    """
    columns = []
    for p in range(count):
        for part, unit in enumerate((ONE, I)):
            column = to_real(image(p, unit))
            c = 2 * p + part
            diagonal = column.get(c, ZERO) - ONE
            if diagonal.is_zero():
                del column[c]
            else:
                column[c] = diagonal
            columns.append(column)
    return [from_real(vec) for vec in linalg.nullspace(columns)]


class CoordLayout:
    """Complex coordinates on ``g(A)``, one per (basis vector, monomial key of
    the vector's parity), numbered by arithmetic: no table of them is kept.

    The coordinates run through the basis vectors in order, and through
    each vector's keys (:func:`algebra.basis_keys` of its parity, kept per
    vector as ``keys[i]``) in increasing order.  So ``(v_i, t)`` sits at
    ``offsets[i]``, the sum of the key counts of the vectors before ``v_i``,
    plus the rank of ``t`` among its parity's keys (:meth:`rank`);
    ``offsets[-1]`` is the complex dimension.  With ``n`` odd generators,
    and ``o`` and ``e`` the odd and even masks of ``t``, that rank is
    ``e 2^(n-1) + (o >> 1)``, or ``e`` when ``n = 0`` (both are
    ``(e 2^n + o) >> min(n, 1)``): keys are ordered by even mask, then odd
    mask, and each pair of odd masks ``2j``, ``2j+1`` differs only in
    generator 0, so it holds exactly one mask of each parity (when ``n = 0``
    every key is even).  The inverse (:meth:`entry`) bisects the offsets.
    """

    def __init__(self, kind: MatrixKind, sig: AlgebraSignature):
        self.kind = kind
        self.sig = sig
        self.keys = tuple(basis_keys(sig, v.parity) for v in basis_of(kind))
        self.offsets = tuple(accumulate(map(len, self.keys), initial=0))

    @property
    def complex_dim(self) -> int:
        return self.offsets[-1]

    def rank(self, key: int, parity: int) -> int:
        """The index of ``key`` among the keys of ``parity``; ValueError when
        it is not one of them."""
        n, o, e = self.sig.odd_total, odd_mask_of(key), even_mask_of(key)
        if key_parity(key) != parity or o >> n or e >> self.sig.even_nilpotents:
            raise ValueError(f"key {key} is not a monomial of parity {parity} of {self.sig}")
        return (e << n | o) >> min(n, 1)

    def entry(self, p: int) -> Tuple[int, int]:
        """The ``(i, key)`` at coordinate ``p``: ``v_i`` is the last vector
        whose offset is at most ``p`` (a vector with no keys shares its
        offset with the next one)."""
        i = bisect_right(self.offsets, p) - 1
        return i, self.keys[i][p - self.offsets[i]]

    def tensor_from(self, coords: Dict[int, GaussianRational]) -> TensorElement:
        terms: Dict[int, Dict[int, GaussianRational]] = {}
        for p, z in coords.items():
            i, key = self.entry(p)
            terms.setdefault(i, {})[key] = z
        coeffs = {i: SuperNumber(self.sig, t) for i, t in terms.items()}
        return TensorElement(self.kind, self.sig, coeffs, check=False)


def fixed_point_data(desc: Descriptor, sig: AlgebraSignature):
    """Exact fixed-point basis of the structure over ``A``.

    Returns ``(points, layout, expected_count)`` where ``points`` are
    matrices spanning the fixed set over the rationals and ``expected_count``
    is the complex dimension of ``g(A)`` (an antilinear involution always has
    a real fixed form of exactly that real dimension).  The points are the
    vectors of :func:`fixed_point_coords`, as matrices.
    """
    vectors, layout = fixed_point_coords(desc, sig, desc.compiled)
    points = [matrix_of(layout.tensor_from(v)) for v in vectors]
    return points, layout, layout.complex_dim


def orbit_types(sig: AlgebraSignature, parity: int) -> Dict[Tuple[int, ...], List[Tuple[int, ...]]]:
    """The orbits ``{t, conj(t)}`` of the keys of ``parity``, each as its keys
    in increasing order, grouped by the signs of ``conj`` on those keys:
    ``{signs: orbits}``, the types in the order of their first keys.

    Lemma.  Number an orbit's keys ``t_s``, so that ``conj(t_s) = c_s
    t_{s+1}`` (indices modulo the size, 1 or 2).  Then ``conj^k(t_s) = c_s
    ... c_{s+k-1} t_{s+k}`` for every ``k``: ``conj^k`` maps the orbit into
    itself, with signs fixed by the ``c_s``.  So a map of ``k`` entrywise
    conjugations and a constant map keeps the coordinates ``(v_i, t)``, ``t``
    in one orbit of one parity's keys, within the orbit, and there depends
    only on the orbit's type.  Its fixed set is block diagonal over the
    orbits, and so is the span of (real fixed coefficient) x (fixed vector).
    A block's coordinates embed in the layout monotonically, the canonical
    basis of a direct sum on disjoint coordinates is the union of the
    summands', and a monotone relabelling keeps a basis canonical.  So one
    block per type, relabelled into every orbit of the type and ordered by
    last index, is the canonical basis of the whole (no elimination mixes
    blocks, so each vector's keys come in the order of one elimination on
    all coordinates), and two such sets are equal exactly when their blocks
    are, type by type.
    """
    types: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
    for key in basis_keys(sig, parity):
        image_key = conjugate_monomial(sig, key, 1)[0]
        if image_key >= key:            # a partner below lists the orbit
            orbit = (key,) if image_key == key else (key, image_key)
            types.setdefault(tuple(conjugate_monomial(sig, t, 1)[1] for t in orbit), []).append(orbit)
    return types


def _orbit_block(action, indices: List[int], signs: Tuple[int, ...], conjugations: int
                 ) -> List[Dict[int, GaussianRational]]:
    """The canonical fixed basis (:func:`fixed_vectors`) of one orbit block on
    its local coordinates ``a * size + s``, ``a`` numbering ``indices`` and
    ``s`` the keys ``t_s`` of an orbit of ``conj`` with signs ``c_s``
    (:func:`orbit_types`): ``u t_s (x) v_a`` goes to ``c_s ... c_{s+k-1}
    conj^k(u) t_{s+k} (x) action[v_a]``, with ``k = conjugations``, indices
    modulo the size and ``action[i]`` as ``[(j, z), ...]``."""
    size = len(signs)
    local = {i: a for a, i in enumerate(indices)}
    scales = {unit: unit.conjugate() if conjugations & 1 else unit for unit in (ONE, I)}

    def image(p: int, unit: GaussianRational) -> Dict[int, GaussianRational]:
        a, s = divmod(p, size)
        scale = scales[unit] if prod(signs[(s + j) % size] for j in range(conjugations)) > 0 else -scales[unit]
        return {local[j] * size + (s + conjugations) % size: z * scale for j, z in action[indices[a]]}

    return fixed_vectors(len(indices) * size, image)


class OrbitType(NamedTuple):
    """A fixed set's row for one orbit type of ``conj``: its parity, signs
    and orbits, and its block on the local coordinates of :func:`_orbit_block`."""
    parity: int
    signs: Tuple[int, ...]
    orbits: List[Tuple[int, ...]]
    block: List[Dict[int, GaussianRational]]


def fixed_point_table(desc: Descriptor, sig: AlgebraSignature, own: PositionalMap) -> List[OrbitType]:
    """The fixed points over ``A`` of ``own``, a positional map on the
    descriptor's shape (the structure's is ``desc.compiled``): one
    :func:`_orbit_block` of its vector action (:func:`_vector_action`) per
    orbit type of ``conj`` on each parity's keys (:func:`orbit_types`), and
    no matrix is evaluated.  An action entry of ``None`` means the image
    left ``g(A)``: the first such basis vector in layout order that has a
    coordinate raises MembershipError."""
    desc.require_conjugation(sig)
    kind = desc.kind
    conjugations, action = _vector_action(desc, own)
    for v in basis_of(kind):
        if action[v.index] is None and basis_keys(sig, v.parity):
            raise MembershipError(f"not a point of {kind.display()}: image of basis vector {v.index} left the algebra")
    indices = {parity: [v.index for v in basis_of(kind) if v.parity == parity] for parity in (EVEN, ODD)}
    return [OrbitType(parity, signs, orbits, _orbit_block(action, indices[parity], signs, conjugations))
            for parity in (EVEN, ODD) for signs, orbits in orbit_types(sig, parity).items()]


def fixed_dimension(table: List[OrbitType]) -> int:
    """The real dimension of a fixed set from its table: each block stands
    once in every orbit of its type."""
    return sum(len(row.block) * len(row.orbits) for row in table)


def fixed_point_coords(desc: Descriptor, sig: AlgebraSignature, own: PositionalMap
                       ) -> Tuple[List[Dict[int, GaussianRational]], CoordLayout]:
    """The canonical real basis (:func:`fixed_vectors`) of the fixed points
    of :func:`fixed_point_table`, as complex coordinate dicts on the returned
    layout of ``g(A)``: each block relabelled into every orbit of its type
    (:meth:`CoordLayout.rank` per orbit key), ordered by last index."""
    layout = CoordLayout(desc.kind, sig)
    vectors: List[Dict[int, GaussianRational]] = []
    for row in fixed_point_table(desc, sig, own):
        indices = [v.index for v in basis_of(desc.kind) if v.parity == row.parity]
        for orbit in row.orbits:
            ranks = [layout.rank(key, row.parity) for key in orbit]
            embed = [layout.offsets[i] + r for i in indices for r in ranks]
            vectors += [{embed[p]: z for p, z in vec.items()} for vec in row.block]
    vectors.sort(key=max)
    return vectors, layout


# ---------------------------------------------------------------------------
# representability dichotomy
# ---------------------------------------------------------------------------

def _orbit_coefficients(signs: Tuple[int, ...]) -> List[Dict[int, GaussianRational]]:
    """Real basis of the conjugation-fixed coefficients on one orbit of
    ``conj`` with these signs, on the orbit's keys ``{s: z}``."""
    return _orbit_block(([(0, ONE)],), [0], signs, 1)


def real_fixed_vectors(phi: VectorConjugation, parity: int) -> List[Dict[int, GaussianRational]]:
    """Real basis of the phi-fixed vectors of one parity of the defining space,
    as complex coordinate dicts over the basis: one :func:`_orbit_block` on an
    orbit ``(1,)`` of ``conj``.  Empty for the odd sector of a graded map (its
    square is -1 there)."""
    indices = [v.index for v in basis_of(phi.kind) if v.parity == parity]
    return [{indices[p]: z for p, z in vec.items()} for vec in _orbit_block(phi.coords, indices, (1,), 1)]


def _product_block(kind: MatrixKind, parity: int, signs: Tuple[int, ...],
                   vectors: List[Dict[int, GaussianRational]]) -> List[Dict[int, GaussianRational]]:
    """Canonical basis (:func:`linalg.span_basis`), in real coordinates on an
    orbit type's local coordinates, of the products (real fixed coefficient
    of one orbit, :func:`_orbit_coefficients`) x (fixed vector of ``parity``)."""
    size = len(signs)
    local = {i: a for a, i in enumerate(v.index for v in basis_of(kind) if v.parity == parity)}
    return linalg.span_basis(
        to_real({local[j] * size + s: z * c for j, c in u.items() for s, z in r.items()})
        for r in _orbit_coefficients(signs) for u in vectors)


def representability_check(desc: Descriptor, sig: AlgebraSignature) -> Dict:
    """The dichotomy: span equality for standard, verified witness for graded.

    Both sides are read per orbit type of ``conj`` (:func:`orbit_types`):
    the fixed set as its table (:func:`fixed_point_table`), the span of
    (conjugation-fixed coefficients) x (phi-fixed vectors) as one product
    block per type on the same local coordinates.  Nothing is relabelled.

    Standard: the fixed set of the structure over A equals that span
    exactly when each type's fixed block, in real coordinates, equals its
    product block.

    Graded: the element ``x + phi.rebuild(x)`` with ``x = t1 (x) v`` (v the
    first odd basis vector), that is ``t1 (x) v + t1~ (x) phi(v)``, is fixed
    by the structure but lies outside that span, because the graded
    conjugation has no fixed odd coefficients; both facts are verified.  It
    needs an odd pair in ``A`` and an odd vector, which are checked first.
    The witness has coordinates only in the orbit ``{t1, t1~}`` of ``conj``,
    so it lies in the span exactly when it lies in the product block of
    that orbit's type: one elimination of the block plus the witness.
    """
    odd_vectors = [v for v in basis_of(desc.kind) if v.parity == ODD]
    if desc.conjugation == GRADED:
        if sig.odd_pairs < 1:
            raise ValueError("a graded witness needs a coefficient algebra with an odd pair")
        if not odd_vectors:
            raise ValueError("the defining space has no odd vectors")
    phi = extract_vector_conjugation(desc)
    table = fixed_point_table(desc, sig, desc.compiled)
    fixed = {parity: real_fixed_vectors(phi, parity) for parity in (EVEN, ODD)}
    spans = [_product_block(desc.kind, row.parity, row.signs, fixed[row.parity]) for row in table]

    result: Dict = {
        "descriptor": desc.display(),
        "conjugation": desc.conjugation,
        "fixed_dimension": fixed_dimension(table),
        "expected_fixed_dimension": CoordLayout(desc.kind, sig).complex_dim,
        "product_span_rank": sum(len(span) * len(row.orbits) for row, span in zip(table, spans)),
    }

    if desc.conjugation == STANDARD:
        result.update(mode="span-comparison", representable=all(
            [to_real(u) for u in row.block] == span for row, span in zip(table, spans)))
        return result

    x = matrix_of(TensorElement(desc.kind, sig, {odd_vectors[0].index: theta(sig, 0)}))
    w_matrix = x + phi.rebuild(x)
    fixed_ok = apply_expr(desc.compiled, w_matrix) == w_matrix
    orbit = basis_keys(sig, ODD)[:2]                # the first odd keys: t1, t1~
    span = next(span for row, span in zip(table, spans) if orbit in row.orbits)
    local = {v.index: a for a, v in enumerate(odd_vectors)}
    witness = to_real({2 * local[i] + orbit.index(key): z
                       for i, c in tensor_of(desc.kind, w_matrix).coeffs.items() for key, z in c.items()})
    inside = len(linalg.span_basis(span + [witness])) == len(span)
    result.update(mode="witness", witness=matrix_literal(w_matrix), witness_fixed=fixed_ok,
                  witness_in_product_span=inside, representable=not (fixed_ok and not inside))
    return result


# ---------------------------------------------------------------------------
# compactness
# ---------------------------------------------------------------------------

def gram_matrix(cells: List[Dict[Tuple[int, int], GaussianRational]]) -> List[List[GaussianRational]]:
    """The Gram matrix of -Re tr(XY) on constant grids given by their nonzero
    cells ``{(a, b): x}``.  ``tr(X Y)`` sums ``X[a][b] Y[b][a]``, so each grid
    is transposed once into one index, ``(b, a)`` -> the grids ``s`` with
    ``y`` at ``(a, b)``, and each nonzero entry is one
    ``GaussianRational.sum_of_products`` over the cells two grids share; an
    entry with none is zero.  ``tr(XY) = tr(YX)`` for constant grids, so the
    matrix is symmetric and only its upper triangle is summed."""
    transposed: Dict[Tuple[int, int], List[Tuple[int, GaussianRational]]] = {}
    for s, grid in enumerate(cells):
        for (a, b), y in grid.items():
            transposed.setdefault((b, a), []).append((s, y))
    dim = len(cells)
    gram = [[ZERO] * dim for _ in range(dim)]
    for r, grid in enumerate(cells):
        shared: Dict[int, list] = {}
        for cell, x in grid.items():
            for s, y in transposed.get(cell, ()):
                if s >= r:
                    shared.setdefault(s, []).append((x, y))
        for s, pairs in shared.items():
            trace = GaussianRational.sum_of_products(pairs)
            gram[r][s] = gram[s][r] = GaussianRational(-trace.re, 0, trace.den)
    return gram


def compactness_data(desc: Descriptor) -> Dict:
    """Gram data of -Re tr(XY) on the even fixed part of the defining space."""
    phi = extract_vector_conjugation(desc)
    even_fixed = real_fixed_vectors(phi, EVEN)
    cells = [combination_cells(phi.kind, u.items()) for u in even_fixed]
    dim = len(cells)
    gram = gram_matrix(cells)
    minors = linalg.leading_principal_minors(gram) if dim else []
    compact = all(minor.re > 0 for minor in minors)
    return {
        "dimension": dim,
        "minors": [str(minor) for minor in minors],
        "compact": compact,
        "_even_fixed": even_fixed,
        "_phi": phi,
    }


def compact_scan(kind: MatrixKind) -> Dict:
    """Sweep every descriptor and parameter choice; report Gram data per row.

    The summary lists the compact rows, the graded compact rows, and how many
    distinct underlying vector maps / even fixed spans the graded compact rows
    represent (duplicate parameter choices can induce literally the same map).
    """
    rows = []
    graded_compact = []
    notes = []
    for name in names_for(kind):
        try:
            build(name, kind)
        except InapplicableDescriptor as exc:
            rows.append({
                "descriptor": name, "params": {}, "applicable": False,
                "reason": str(exc), "conjugation": None, "dimension": None,
                "minors": [], "compact": None,
            })
            continue
        for p, q in param_choices(name, kind):
            desc = build(name, kind, p, q)
            data = compactness_data(desc)
            row = {
                "descriptor": name,
                "display": desc.display(),
                "params": desc.param_dict(),
                "applicable": True,
                "conjugation": desc.conjugation,
                "dimension": data["dimension"],
                "minors": data["minors"],
                "compact": data["compact"],
            }
            rows.append(row)
            if data["compact"] and desc.conjugation == GRADED:
                graded_compact.append((desc, data))

    distinct_actions = len({data["_phi"].coords for _, data in graded_compact})
    # distinct real spans of the even fixed parts; each is a canonical basis on
    # the same coordinates (see fixed_vectors), so equal spans are equal lists
    # of equal dicts, that is equal tuples of the dicts' item sets
    even_spans = {tuple(frozenset(u.items()) for u in data["_even_fixed"]) for _, data in graded_compact}

    if kind.family == "sl" and kind.m == kind.n:
        notes.append(
            "equal block sizes: i*Id is central and fixed by compact structures; "
            "uniqueness statements are up to that center."
        )
    if kind.family == "osp":
        notes.append(
            "psi1 rows depend on the recorded reading of its conjugating matrix; "
            "rows differing only by that reading share their even fixed span."
        )

    return {
        "rows": rows,
        "summary": {
            "compact": [r["display"] for r in rows if r.get("compact")],
            "compact_graded": [d.display() for d, _ in graded_compact],
            "distinct_compact_graded_actions": distinct_actions,
            "distinct_compact_graded_even_spans": len(even_spans),
        },
        "notes": notes,
    }

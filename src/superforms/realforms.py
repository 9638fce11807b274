"""Verification, extraction, fixed points, representability, compactness.

This module houses the substance of the package:

* :func:`verify_structure` — sampled identity checks that a descriptor truly
  defines a functorial antilinear involution (closure, antilinearity,
  involutivity, bracket morphism, evenness, naturality);
* :func:`extract_vector_conjugation` — recover the underlying antilinear map
  on the defining space from the functorial data, and rebuild the functorial
  map from it;
* :func:`fixed_point_data` — exact basis of the fixed-point set over a given
  coefficient algebra;
* :func:`representability_check` — the standard/graded dichotomy: standard
  structures have fixed sets spanned by real-coefficient combinations of
  fixed vectors; graded ones admit an explicit fixed point outside that span;
* :func:`compactness_data` / :func:`compact_scan` — positive definiteness of
  the -Re tr(XY) form on the even fixed part, by exact leading minors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

from . import linalg
from .algebra import (
    EVEN, GRADED, MAX_EVEN_NILPOTENT, ODD, STANDARD, AlgebraSignature, SuperNumber,
    adjoin_dual, basis_keys, dual_scale_morphism, even_mask_of, include_pairs,
    kill_pair_projection, make_key, odd_mask_of, one, scalar, theta, theta_bar,
)
from .catalog import Descriptor, InapplicableDescriptor, build, names_for, param_choices
from .exprs import PositionalMap, apply_expr
from .liealg import (
    MatrixKind, TensorElement, basis_of, decompose_in_basis, matrix_of,
    membership_defect, require_member, tensor_of,
)
from .literals import format_matrix, format_number
from .matrices import SuperMatrix
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
    if sig.conjugation != desc.conjugation:
        raise ValueError(
            f"descriptor {desc.name} needs {desc.conjugation} conjugation, "
            f"got {sig.conjugation}"
        )
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
    battery.append(("dual-scale-imaginary", None))

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

        lhs = evaluate(x.scale(a) + y.scale(b))
        rhs = fx.scale(a.conjugate()) + fy.scale(b.conjugate())
        tallies["antilinearity"].record(lhs == rhs, lambda: {
            "a": format_number(a), "b": format_number(b),
            "x": matrix_literal(x), "y": matrix_literal(y),
            "lhs": matrix_literal(lhs), "rhs": matrix_literal(rhs),
        })

        back = evaluate(fx)
        tallies["involutivity"].record(back == x, lambda: {
            "input": matrix_literal(x), "twice": matrix_literal(back),
        })

        lhs_b = evaluate(x * y - y * x)
        rhs_b = fx * fy - fy * fx
        tallies["bracket-morphism"].record(lhs_b == rhs_b, lambda: {
            "x": matrix_literal(x), "y": matrix_literal(y),
            "lhs": matrix_literal(lhs_b), "rhs": matrix_literal(rhs_b),
        })

        d = evaluate(_diagonal_part(x))
        tallies["evenness"].record(
            _diagonal_part(d) == d and _diagonal_part(fx - d).is_zero(),
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
                a_scale = ext_include.apply(random_self_conjugate_even(sig, rng))
                va = dual_scale_morphism(ext, a_scale)
                lhs_n = evaluate(xe.map_entries(va.apply))
                rhs_n = fxe.map_entries(va.apply)
            else:
                vi = dual_scale_morphism(ext, scalar(ext, I))
                vi_conj = dual_scale_morphism(ext, scalar(ext, I.conjugate()))
                lhs_n = evaluate(xe.map_entries(vi.apply))
                rhs_n = fxe.map_entries(vi_conj.apply)
        tallies["naturality"].record(lhs_n == rhs_n, lambda: {
            "morphism": label,
            "lhs": matrix_literal(lhs_n), "rhs": matrix_literal(rhs_n),
        })

    return [tallies[name].outcome() for name in CHECK_NAMES]


# ---------------------------------------------------------------------------
# extraction of the underlying antilinear map on the defining space
# ---------------------------------------------------------------------------

@dataclass
class VectorConjugation:
    """The antilinear map on the defining space induced by a descriptor.

    ``images[i]`` is the constant grid of the image of basis vector ``i``;
    ``coords[i]`` is its decomposition ``[(j, c), ...]`` over the basis.  For
    standard descriptors the map squares to the identity; for graded ones it
    squares to the parity sign (+1 on even vectors, -1 on odd ones).
    """

    kind: MatrixKind
    conjugation: str
    images: Tuple[Tuple[Tuple[GaussianRational, ...], ...], ...]
    coords: Tuple[Tuple[Tuple[int, GaussianRational], ...], ...]

    def apply_to_tensor(self, t: TensorElement) -> TensorElement:
        out: Dict[int, SuperNumber] = {}
        for i, c in t.coeffs.items():
            cc = c.conjugate()
            for j, p in self.coords[i]:
                term = cc.scaled(p)
                cur = out.get(j)
                out[j] = term if cur is None else cur + term
        return TensorElement(self.kind, t.sig, out, check=False)

    def rebuild(self, x: SuperMatrix) -> SuperMatrix:
        """The functorial map reconstituted as conj-coefficients + vector map:
        ``matrix_of(apply_to_tensor(tensor_of(kind, x)))``, evaluated as one
        positional map."""
        require_member(self.kind, x)
        return self._rebuild_map.apply(x)

    @cached_property
    def _rebuild_map(self) -> PositionalMap:
        """The coefficient of ``v_i`` sits at its slot; conjugated, it goes to
        ``sum_j p_ij v_j``.  So output cell ``(a, b)`` is ``sum_i conj(x[slot_i])
        sum_j p_ij v_j[a][b]``."""
        basis = basis_of(self.kind)
        size = self.kind.size
        cells = [[[] for _ in range(size)] for _ in range(size)]
        for v in basis:
            image: Dict[Tuple[int, int], GaussianRational] = {}
            for j, p in self.coords[v.index]:
                for cell, value in basis[j].support:
                    image[cell] = image.get(cell, ZERO) + p * value
            for (a, b), c in image.items():
                if not c.is_zero():
                    cells[a][b].append((*v.slot, c))
        return PositionalMap(tuple(tuple(tuple(cell) for cell in row) for row in cells), 1)

    def square_sign(self, parity: int) -> int:
        return -1 if (self.conjugation == GRADED and parity == ODD) else 1


def extract_vector_conjugation(desc: Descriptor) -> VectorConjugation:
    """Evaluate the descriptor on constant and one-odd-coefficient points to
    recover its action on the defining space, validating the expected shape.

    Even basis vectors are probed with constant coefficients; odd ones with
    the first generator ``t1`` of a conjugate pair, where the image of
    ``t1 (x) v`` must be exactly ``t1~ (x) (image vector)`` — any other
    monomial in the image means the map is not a pointwise conjugation, and
    ExtractionMismatch is raised.

    The vectors of one parity are probed sixteen to an evaluation, each
    tagged with its own monomial of four even nilpotents, as in
    :func:`superforms.exprs.compile_expr`: the map is additive and fixes the
    tags, so the tag of each image term names its vector.
    """
    kind = desc.kind
    size = kind.size
    basis = basis_of(kind)
    tags = 1 << MAX_EVEN_NILPOTENT
    found = {}      # vector index -> (image grid, whether another monomial appeared)
    for parity, odd_pairs, probe_mask, image_mask in ((EVEN, 0, 0, 0), (ODD, 1, 1, 2)):
        sig = AlgebraSignature(odd_pairs, 0, MAX_EVEN_NILPOTENT, desc.conjugation)
        vectors = [v for v in basis if v.parity == parity]
        for start in range(0, len(vectors), tags):
            batch = vectors[start:start + tags]
            terms = [[{} for _ in range(size)] for _ in range(size)]
            for tag, v in enumerate(batch):
                for (a, b), c in v.support:
                    terms[a][b][make_key(probe_mask, tag)] = c
            point = SuperMatrix(kind.m, kind.n, sig, [[SuperNumber(sig, t) for t in row] for row in terms],
                                check=False)
            grids = [[[ZERO] * size for _ in range(size)] for _ in batch]
            other = [False] * len(batch)
            for a, row in enumerate(apply_expr(desc.compiled, point).rows):
                for b, e in enumerate(row):
                    for key, c in e.items():
                        tag = even_mask_of(key)
                        if odd_mask_of(key) == image_mask:
                            grids[tag][a][b] = c
                        else:
                            other[tag] = True
            for v, grid, bad in zip(batch, grids, other):
                found[v.index] = (grid, bad)

    images = []
    coords = []
    for v in basis:
        grid, bad = found[v.index]
        if bad:
            parity, shape = (("even", "constant") if v.parity == EVEN
                             else ("odd", "of conjugated-coefficient form"))
            raise ExtractionMismatch(
                f"{desc.display()}: image of {parity} vector {v.index} is not {shape}"
            )
        decomposition = decompose_in_basis(kind, grid, v.parity)
        if decomposition is None:
            raise ExtractionMismatch(
                f"{desc.display()}: image of vector {v.index} left the algebra"
            )
        images.append(tuple(tuple(row) for row in grid))
        coords.append(tuple(decomposition))

    result = VectorConjugation(kind, desc.conjugation, tuple(images), tuple(coords))
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
        if v.index not in acc and expected_sign:
            raise ExtractionMismatch(
                f"square of extracted map vanishes on vector {v.index}"
            )


def rebuild_matches(desc: Descriptor, phi: VectorConjugation, sig: AlgebraSignature,
                    samples: int = 100, seed: int = 0) -> CheckOutcome:
    """Sampled equality of the descriptor's map and conj-coefficients + phi
    (``samples`` at least 1).

    Both maps are a constant map after one conjugation, so a sample passes
    when their difference (:func:`_difference_map`) vanishes on it; the two
    sides are evaluated in full only for the witness.  The conjugation is
    folded into the constants (see :meth:`PositionalMap.vanishes`), so no
    entry is conjugated.
    """
    require_samples(samples)
    rng = rng_for(seed, "rebuild", desc.display(), f"P{sig.odd_pairs}")
    tally = Tally("extraction-rebuild", False)
    difference = _difference_map(desc.compiled.stages, phi._rebuild_map)
    if difference is not None:
        difference = PositionalMap(tuple(tuple(tuple((r, s, c.conjugate()) for r, s, c in cell)
                                               for cell in row) for row in difference.cells),
                                   difference.conjugations - 1)
    for _ in range(samples):
        x = random_point(desc.kind, sig, rng)
        if difference is not None:
            equal = difference.vanishes(x)
        else:
            equal = apply_expr(desc.compiled, x) == phi.rebuild(x)
        tally.record(equal, lambda: {
            "input": matrix_literal(x),
            "functorial": matrix_literal(apply_expr(desc.compiled, x)),
            "rebuilt": matrix_literal(phi.rebuild(x)),
        })
    return tally.outcome()


def _difference_map(stages, rebuilt: PositionalMap) -> Optional[PositionalMap]:
    """The descriptor's map minus the rebuilt one as one positional map, or
    ``None`` unless the descriptor is one positional map that conjugates
    once, like the rebuilt map.  The two maps agree on a point exactly when
    the difference sends it to zero."""
    own = stages[0] if len(stages) == 1 else None
    if type(own) is not PositionalMap or own.conjugations != rebuilt.conjugations:
        return None
    cells = []
    for own_row, rebuilt_row in zip(own.cells, rebuilt.cells):
        row = []
        for own_cell, rebuilt_cell in zip(own_row, rebuilt_row):
            acc: Dict[Tuple[int, int], GaussianRational] = {}
            for r, s, c in own_cell:
                acc[r, s] = acc.get((r, s), ZERO) + c
            for r, s, c in rebuilt_cell:
                acc[r, s] = acc.get((r, s), ZERO) - c
            row.append(tuple((r, s, c) for (r, s), c in acc.items() if not c.is_zero()))
        cells.append(tuple(row))
    return PositionalMap(tuple(cells), rebuilt.conjugations)


# ---------------------------------------------------------------------------
# coordinates, fixed points
# ---------------------------------------------------------------------------

def _real_parts(z: GaussianRational) -> Tuple[GaussianRational, GaussianRational]:
    return GaussianRational(z.re, 0, z.den), GaussianRational(z.im, 0, z.den)


def real_coordinates(coords: Dict[int, GaussianRational], count: int) -> List[GaussianRational]:
    """Dense real coordinates (real part at ``2p``, imaginary part at ``2p+1``)
    of a sparse complex coordinate dict on ``count`` complex coordinates."""
    vec = [ZERO] * (2 * count)
    for p, z in coords.items():
        vec[2 * p], vec[2 * p + 1] = _real_parts(z)
    return vec


def fixed_vectors(count: int, image: Callable[[int, GaussianRational], Dict[int, GaussianRational]]
                  ) -> List[Dict[int, GaussianRational]]:
    """Real basis of the fixed points of a real-linear map on ``count`` complex
    coordinates.

    ``image(p, u)`` returns the complex coordinates ``{q: z}`` of the image of
    ``u`` times the ``p``-th unit vector, for ``u`` = 1 and ``u`` = i.  On the
    real coordinates (real part ``2p``, imaginary part ``2p+1``) the fixed
    points are the nullspace of ``M - I``; it is taken block by block
    (:func:`linalg.block_nullspace`), which gives the basis and order of the
    dense nullspace.  Each vector is returned as complex coordinates ``{p: z}``.

    The basis is canonical: it depends only on the fixed space, not on the
    map.  In a subspace ``U``, the last nonzero indices of the vectors of
    ``U`` form a set ``F`` of ``dim U`` indices, and for each ``f`` in ``F``
    exactly one vector of ``U`` is 1 at ``f``, 0 at the rest of ``F`` and 0
    after ``f`` (the difference of two such vectors would have its last
    nonzero index outside ``F``).  The nullspace's vector of free column
    ``f`` is that vector: a column is free when it is a combination of the
    columns before it, that is when some null vector ends there, so the free
    columns are ``F``; and the vector is 1 at ``f``, 0 at the other free
    columns and, the reduced form having no entry left of a pivot, 0 after
    ``f``.  Going to complex coordinates is one-to-one.  So
    two fixed spaces on the same coordinates are equal exactly when their
    lists of vectors are equal.
    """
    columns = []
    for p in range(count):
        for part, unit in enumerate((ONE, I)):
            column: Dict[int, GaussianRational] = {}
            for q, z in image(p, unit).items():
                re_part, im_part = _real_parts(z)
                if not re_part.is_zero():
                    column[2 * q] = re_part
                if not im_part.is_zero():
                    column[2 * q + 1] = im_part
            c = 2 * p + part
            diagonal = column.get(c, ZERO) - ONE
            if diagonal.is_zero():
                del column[c]
            else:
                column[c] = diagonal
            columns.append(column)
    out = []
    for vec in linalg.block_nullspace(columns):
        coords: Dict[int, GaussianRational] = {}
        for c, x in vec.items():
            p = c // 2
            coords[p] = coords.get(p, ZERO) + (x * I if c & 1 else x)
        out.append(coords)
    return out


class CoordLayout:
    """Complex coordinates on ``g(A)``, one per (basis vector, monomial key)."""

    def __init__(self, kind: MatrixKind, sig: AlgebraSignature):
        self.kind = kind
        self.sig = sig
        self.entries: List[Tuple[int, int]] = []
        for v in basis_of(kind):
            for key in basis_keys(sig, v.parity):
                self.entries.append((v.index, key))
        self.pos = {entry: idx for idx, entry in enumerate(self.entries)}

    @property
    def complex_dim(self) -> int:
        return len(self.entries)

    @property
    def real_dim(self) -> int:
        return 2 * len(self.entries)

    def complex_coords(self, t: TensorElement) -> Dict[int, GaussianRational]:
        return {self.pos[(i, key)]: z for i, c in t.coeffs.items() for key, z in c.items()}

    def coords_of(self, t: TensorElement) -> List[GaussianRational]:
        """Dense real coordinates of a tensor element."""
        return real_coordinates(self.complex_coords(t), self.complex_dim)

    def tensor_from(self, coords: Dict[int, GaussianRational]) -> TensorElement:
        coeffs: Dict[int, SuperNumber] = {}
        for p, z in coords.items():
            i, key = self.entries[p]
            term = SuperNumber(self.sig, {key: z})
            cur = coeffs.get(i)
            coeffs[i] = term if cur is None else cur + term
        return TensorElement(self.kind, self.sig, coeffs, check=False)

    def fixed_vectors(self, func: Callable[[TensorElement], TensorElement]) -> List[Dict[int, GaussianRational]]:
        """Real basis, as complex coordinate dicts, of the fixed points of a
        real-linear map on ``g(A)``."""
        def image(p: int, unit: GaussianRational) -> Dict[int, GaussianRational]:
            i, key = self.entries[p]
            unit_tensor = TensorElement(self.kind, self.sig, {i: SuperNumber(self.sig, {key: unit})}, check=False)
            return self.complex_coords(func(unit_tensor))

        return fixed_vectors(self.complex_dim, image)


def fixed_point_data(desc: Descriptor, sig: AlgebraSignature):
    """Exact fixed-point basis of the structure over ``A``.

    Returns ``(points, layout, expected_count)`` where ``points`` are
    matrices spanning the fixed set over the rationals and ``expected_count``
    is the complex dimension of ``g(A)`` (an antilinear involution always has
    a real fixed form of exactly that real dimension).

    The structure map is a constant map after ``k`` entrywise conjugations
    (see :mod:`superforms.exprs`), and ``k`` conjugations send a monomial
    ``t`` to ``c t'`` with ``c = +-1``.  So the image of ``u t (x) v_i`` is
    the image of ``u t0 (x) v_i``, for any monomial ``t0`` of the same
    parity, with ``c0 t0'`` read as ``c t'``: each basis vector and unit
    ``u`` in {1, i} is evaluated once, on the first monomial of its parity,
    and the other monomials relabel its coordinates.  Membership of that one
    image is checked; the others differ from it by a monomial factor.
    """
    kind = desc.kind
    layout = CoordLayout(kind, sig)
    conjugations = desc.compiled.stages[0].conjugations   # one positional map

    def conj_power(key: int) -> Tuple[int, GaussianRational]:
        t = SuperNumber(sig, {key: ONE})
        for _ in range(conjugations):
            t = t.conjugate()
        (image_key, c), = t.items()
        return image_key, c

    images = {}
    for v in basis_of(kind):
        keys = basis_keys(sig, v.parity)
        if not keys:
            continue
        probe_key, probe_c = conj_power(keys[0])
        for unit in (ONE, I):
            point = TensorElement(kind, sig, {v.index: SuperNumber(sig, {keys[0]: unit})}, check=False)
            image = tensor_of(kind, apply_expr(desc.compiled, matrix_of(point)))
            images[v.index, unit] = [(j, c.coefficient(probe_key) * probe_c) for j, c in image.coeffs.items()]
    relabel = {}

    def image(p: int, unit: GaussianRational) -> Dict[int, GaussianRational]:
        i, key = layout.entries[p]
        if key not in relabel:
            relabel[key] = conj_power(key)
        image_key, c = relabel[key]
        return {layout.pos[(j, image_key)]: z * c for j, z in images[i, unit]}

    points = [matrix_of(layout.tensor_from(v)) for v in fixed_vectors(layout.complex_dim, image)]
    return points, layout, layout.complex_dim


# ---------------------------------------------------------------------------
# representability dichotomy
# ---------------------------------------------------------------------------

def real_fixed_elements(sig: AlgebraSignature, parity: int) -> List[SuperNumber]:
    """Real basis of the conjugation-fixed elements of one parity sector."""
    keys = basis_keys(sig, parity)
    pos = {key: idx for idx, key in enumerate(keys)}

    def image(p: int, unit: GaussianRational) -> Dict[int, GaussianRational]:
        return {pos[key]: z for key, z in SuperNumber(sig, {keys[p]: unit}).conjugate().items()}

    return [
        SuperNumber(sig, {keys[p]: z for p, z in vec.items()})
        for vec in fixed_vectors(len(keys), image)
    ]


def real_fixed_vectors(phi: VectorConjugation, parity: int) -> List[Dict[int, GaussianRational]]:
    """Real basis of the phi-fixed vectors of one parity of the defining space.

    Each element is a complex coordinate dict over the basis; the real span of
    the returned vectors is the fixed set.  Empty for the odd sector of a
    graded map (its square is -1 there).
    """
    indices = [v.index for v in basis_of(phi.kind) if v.parity == parity]
    pos = {i: idx for idx, i in enumerate(indices)}

    def image(p: int, unit: GaussianRational) -> Dict[int, GaussianRational]:
        cc = unit.conjugate()
        return {pos[j]: cc * c for j, c in phi.coords[indices[p]]}

    return [
        {indices[p]: z for p, z in vec.items()}
        for vec in fixed_vectors(len(indices), image)
    ]


def _product_span_coords(desc: Descriptor, phi: VectorConjugation, sig: AlgebraSignature,
                         layout: CoordLayout) -> List[List[GaussianRational]]:
    """Coordinates of all products (real fixed coefficient) * (fixed vector)."""
    coords = []
    for parity in (EVEN, ODD):
        reals = real_fixed_elements(sig, parity)
        vectors = real_fixed_vectors(phi, parity)
        for r in reals:
            for u in vectors:
                tensor = TensorElement(
                    desc.kind, sig,
                    {j: r.scaled(c) for j, c in u.items()},
                    check=False,
                )
                coords.append(layout.coords_of(tensor))
    return coords


def representability_check(desc: Descriptor, sig: AlgebraSignature) -> Dict:
    """The dichotomy: span equality for standard, verified witness for graded.

    Standard: the fixed set of the structure over A equals the span of
    (conjugation-fixed coefficients) x (phi-fixed vectors), compared exactly.

    Graded: the element ``t1 (x) v + t1~ (x) phi(v)`` (v any odd basis vector)
    is fixed by the structure but lies outside that span, because the graded
    conjugation has no fixed odd coefficients; both facts are verified.
    """
    phi = extract_vector_conjugation(desc)
    points, layout, expected = fixed_point_data(desc, sig)
    fixed_coords = [layout.coords_of(tensor_of(desc.kind, pt)) for pt in points]
    product_coords = _product_span_coords(desc, phi, sig, layout)

    result: Dict = {
        "descriptor": desc.display(),
        "conjugation": desc.conjugation,
        "fixed_dimension": len(points),
        "expected_fixed_dimension": expected,
        "product_span_rank": linalg.rank(product_coords) if product_coords else 0,
    }

    if desc.conjugation == STANDARD:
        equal = linalg.spans_equal(fixed_coords, product_coords)
        result["mode"] = "span-comparison"
        result["representable"] = equal
        return result

    # graded: exhibit a witness (needs at least one odd pair in A)
    if sig.odd_pairs < 1:
        raise ValueError("a graded witness needs a coefficient algebra with an odd pair")
    odd_vectors = [v for v in basis_of(desc.kind) if v.parity == ODD]
    if not odd_vectors:
        raise ValueError("the defining space has no odd vectors")
    v = odd_vectors[0]
    t1 = theta(sig, 0)
    t1bar = theta_bar(sig, 0)
    coeffs: Dict[int, SuperNumber] = {v.index: t1}
    for j, c in phi.coords[v.index]:
        term = t1bar.scaled(c)
        cur = coeffs.get(j)
        coeffs[j] = term if cur is None else cur + term
    witness = TensorElement(desc.kind, sig, coeffs, check=False)
    w_matrix = matrix_of(witness)
    fixed_ok = apply_expr(desc.compiled, w_matrix) == w_matrix
    inside = linalg.in_span(product_coords, layout.coords_of(witness))
    result["mode"] = "witness"
    result["witness"] = matrix_literal(w_matrix)
    result["witness_fixed"] = fixed_ok
    result["witness_in_product_span"] = inside
    result["representable"] = not (fixed_ok and not inside)
    return result


# ---------------------------------------------------------------------------
# compactness
# ---------------------------------------------------------------------------

def _vector_grid(phi: VectorConjugation, coords: Dict[int, GaussianRational]):
    basis = basis_of(phi.kind)
    size = phi.kind.size
    grid = [[ZERO] * size for _ in range(size)]
    for j, c in coords.items():
        for (a, b), value in basis[j].support:
            grid[a][b] = grid[a][b] + c * value
    return grid


def compactness_data(desc: Descriptor) -> Dict:
    """Gram data of -Re tr(XY) on the even fixed part of the defining space."""
    phi = extract_vector_conjugation(desc)
    even_fixed = real_fixed_vectors(phi, EVEN)
    grids = [_vector_grid(phi, u) for u in even_fixed]
    supports = [[(a, b, x) for a, row in enumerate(grid) for b, x in enumerate(row) if not x.is_zero()]
                for grid in grids]
    dim = len(grids)
    # tr(XY) = tr(YX) for constant grids, so the Gram matrix is symmetric
    gram = [[ZERO] * dim for _ in range(dim)]
    for r in range(dim):
        for s in range(r, dim):
            other = grids[s]
            trace = ZERO
            for a, b, x in supports[r]:
                y = other[b][a]
                if not y.is_zero():
                    trace = trace + x * y
            gram[r][s] = gram[s][r] = GaussianRational(-trace.re, 0, trace.den)
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

    distinct_actions = len({
        data["_phi"].images for _, data in graded_compact
    })
    # distinct real spans of the even fixed parts; each is a canonical basis
    # on the same coordinates (see fixed_vectors), so equal spans are equal lists
    even_spans: List[List[Dict[int, GaussianRational]]] = []
    for _, data in graded_compact:
        if data["_even_fixed"] not in even_spans:
            even_spans.append(data["_even_fixed"])

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

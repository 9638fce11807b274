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
from typing import Callable, Dict, List, Tuple

from . import linalg
from .algebra import (
    EVEN, GRADED, ODD, STANDARD, AlgebraSignature, SuperNumber, adjoin_dual,
    basis_keys, dual_scale_morphism, include_pairs, kill_pair_projection, one,
    scalar, theta, theta_bar,
)
from .catalog import Descriptor, InapplicableDescriptor, build, names_for, param_choices
from .exprs import apply_expr
from .liealg import (
    MatrixKind, TensorElement, basis_of, decompose_in_basis, matrix_of,
    membership_defect, tensor_of,
)
from .literals import format_matrix, format_number
from .matrices import SuperMatrix, const_matrix, tensor_term
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

    evaluate = lambda x: apply_expr(desc.steps, x)

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
        """The functorial map reconstituted as conj-coefficients + vector map."""
        return matrix_of(self.apply_to_tensor(tensor_of(self.kind, x)))

    def square_sign(self, parity: int) -> int:
        return -1 if (self.conjugation == GRADED and parity == ODD) else 1


def extract_vector_conjugation(desc: Descriptor) -> VectorConjugation:
    """Evaluate the descriptor on constant and one-odd-coefficient points to
    recover its action on the defining space, validating the expected shape.

    Even basis vectors are probed over the trivial coefficient algebra; odd
    ones over a single conjugate pair, where the image of ``t1 (x) v`` must be
    exactly ``t1~ (x) (image vector)`` — any other monomial in the image means
    the map is not a pointwise conjugation, and ExtractionMismatch is raised.
    """
    kind = desc.kind
    trivial = AlgebraSignature(0, 0, 0, desc.conjugation)
    pair_sig = AlgebraSignature(1, 0, 0, desc.conjugation)
    tbar_key = 2    # monomial key of t1~

    images = []
    coords = []
    for v in basis_of(kind):
        if v.parity == EVEN:
            point = const_matrix(kind.m, kind.n, trivial, v.grid_rows(), check=False)
            key, parity, shape = 0, "even", "constant"
        else:
            point = tensor_term(theta(pair_sig, 0), v.grid_rows(), kind.m, kind.n)
            key, parity, shape = tbar_key, "odd", "of conjugated-coefficient form"
        image = apply_expr(desc.steps, point)
        if any(k != key for row in image.rows for e in row for k, _ in e.items()):
            raise ExtractionMismatch(
                f"{desc.display()}: image of {parity} vector {v.index} is not {shape}"
            )
        grid = [[e.coefficient(key) for e in row] for row in image.rows]
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
    (``samples`` at least 1)."""
    require_samples(samples)
    rng = rng_for(seed, "rebuild", desc.display(), f"P{sig.odd_pairs}")
    tally = Tally("extraction-rebuild", False)
    for _ in range(samples):
        x = random_point(desc.kind, sig, rng)
        lhs = apply_expr(desc.steps, x)
        rhs = phi.rebuild(x)
        tally.record(lhs == rhs, lambda: {
            "input": matrix_literal(x),
            "functorial": matrix_literal(lhs),
            "rebuilt": matrix_literal(rhs),
        })
    return tally.outcome()


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
    """
    layout = CoordLayout(desc.kind, sig)

    def act(t: TensorElement) -> TensorElement:
        return tensor_of(desc.kind, apply_expr(desc.steps, matrix_of(t)))

    points = [matrix_of(layout.tensor_from(v)) for v in layout.fixed_vectors(act)]
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
    fixed_ok = apply_expr(desc.steps, w_matrix) == w_matrix
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
        rows = basis[j].grid_rows()
        for a in range(size):
            for b in range(size):
                if not rows[a][b].is_zero():
                    grid[a][b] = grid[a][b] + c * rows[a][b]
    return grid


def compactness_data(desc: Descriptor) -> Dict:
    """Gram data of -Re tr(XY) on the even fixed part of the defining space."""
    phi = extract_vector_conjugation(desc)
    even_fixed = real_fixed_vectors(phi, EVEN)
    grids = [_vector_grid(phi, u) for u in even_fixed]
    size = desc.kind.size
    dim = len(grids)
    gram = []
    for r in range(dim):
        row = []
        for s in range(dim):
            trace = ZERO
            for a in range(size):
                for b in range(size):
                    x, y = grids[r][a][b], grids[s][b][a]
                    if not x.is_zero() and not y.is_zero():
                        trace = trace + x * y
            row.append(GaussianRational(-trace.re, 0, trace.den))
        gram.append(row)
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

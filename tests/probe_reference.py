"""The probe-evaluation routes the package used before it composed per-step
maps and read each structure's action on the defining space off its compiled
map, kept as test oracles:

* ``probe_compile_expr`` compiles an expression by running the step rules on
  the ``(m+n)^2`` unit matrices, sixteen to an evaluation, each tagged with
  its own even monomial of an algebra of four even nilpotents (conjugation
  fixes those); the tag of each output term names its unit, and the image of
  unit ``(r, s)`` is column ``(r, s)`` of the map;
* ``probe_extract_vector_conjugation`` evaluates the descriptor on
  supermatrices whose basis vectors are tagged sixteen at a time with even
  nilpotent monomials (constants for even vectors, ``t1`` times a tag for odd
  ones) and reads each image grid off the tags;
* ``evaluated_fixed_point_coords`` evaluates the descriptor on ``u t0 (x) v``
  for every basis vector ``v`` and unit ``u`` in {1, i}, ``t0`` the first
  monomial of ``v``'s parity, and decomposes each image with ``tensor_of``.

The tests require the package to agree with them exactly.
"""

from typing import Dict, List, Tuple

from dense_reference import dict_layout
from expr_reference import apply_step
from superforms.algebra import (
    EVEN, MAX_EVEN_NILPOTENT, ODD, AlgebraSignature, SuperNumber, basis_keys, even_mask_of,
    make_key, odd_mask_of,
)
from superforms.exprs import PositionalMap, apply_expr, step_rule
from superforms.liealg import TensorElement, basis_of, decompose_in_basis, matrix_of, tensor_of
from superforms.matrices import SuperMatrix
from superforms.realforms import (
    CoordLayout, ExtractionMismatch, VectorConjugation, _validate_square, fixed_vectors,
)
from superforms.scalars import GaussianRational, I, ONE, ZERO


_PROBE = AlgebraSignature(even_nilpotents=MAX_EVEN_NILPOTENT)


def probe_compile_expr(steps, m: int, n: int) -> PositionalMap:
    """``exprs.compile_expr`` from tagged evaluations of the unit matrices,
    the steps applied from the right end of the tuple to the left."""
    if any(step_rule(step).group_only for step in steps):
        raise ValueError("matrix inverse is a group-level step")
    run = tuple(reversed(steps))
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
            x = apply_step(x, step)
        for i, row in enumerate(x.rows):
            for j, e in enumerate(row):
                cells[i][j] += [batch[tag] + (c,) for tag, c in e.items()]
    return PositionalMap(
        tuple(tuple(tuple(sorted(cell)) for cell in row) for row in cells),
        sum(step[0] == "conj" for step in run),
        m,
    )


def probe_extract_vector_conjugation(desc) -> VectorConjugation:
    """The extraction by tagged probe evaluations."""
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
        coords.append(tuple(decomposition))
    result = VectorConjugation(kind, desc.conjugation, tuple(coords))
    _validate_square(result)
    return result


def evaluated_fixed_point_coords(desc, sig) -> Tuple[List[Dict[int, GaussianRational]], CoordLayout]:
    """The fixed-point basis from two evaluations per basis vector, the other
    monomials relabelled by ``conj^k``."""
    kind = desc.kind
    layout = CoordLayout(kind, sig)
    entries, pos = dict_layout(kind, sig)
    conjugations = desc.compiled.conjugations

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

    def image(p: int, unit: GaussianRational) -> Dict[int, GaussianRational]:
        i, key = entries[p]
        image_key, c = conj_power(key)
        return {pos[(j, image_key)]: z * c for j, z in images[i, unit]}

    return fixed_vectors(layout.complex_dim, image), layout

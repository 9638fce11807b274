"""Coordinates of ``g(A)`` by arithmetic against their old table.

``realforms.CoordLayout`` computes the coordinate of ``(v_i, t)`` from one
offset per basis vector and the rank of the key ``t`` among its parity's
keys (``offsets[i] + rank(t, parity)``), and finds ``(v_i, t)`` again by
bisecting the offsets.  The oracle is ``dense_reference.dict_layout``, the
list of every ``(i, key)`` and the dict over it that the layout kept before.
"""

import pytest

from dense_reference import complex_coords, dict_layout
from superforms.algebra import EVEN, GRADED, MAX_ODD, ODD, STANDARD, AlgebraSignature, basis_keys, make_key
from superforms.liealg import OSP, SL, MatrixKind, basis_of
from superforms.realforms import CoordLayout
from superforms.scalars import GaussianRational

SHAPES = [MatrixKind(SL, 1, 1), MatrixKind(SL, 2, 1), MatrixKind(SL, 2, 2), MatrixKind(SL, 3, 1),
          MatrixKind(OSP, 1, 2), MatrixKind(OSP, 2, 2), MatrixKind(SL, 2, 0)]

# every signature with P <= 4 odd pairs, S <= 2 self-real generators and
# E <= 4 even nilpotents within the caps, n = 0 odd generators included
def position(layout, i, key):
    return layout.offsets[i] + layout.rank(key, basis_of(layout.kind)[i].parity)


SIGNATURES = [AlgebraSignature(pairs, selfreal, nil, conjugation)
              for conjugation in (STANDARD, GRADED) for pairs in range(5)
              for selfreal in range(3 if conjugation == STANDARD else 1) for nil in range(5)
              if 2 * pairs + selfreal <= MAX_ODD]


def sweep():
    """Every shape on the signatures of at most 2^8 monomials; the two
    shapes of three basis vectors, one of them with no odd vectors, on
    every signature."""
    for kind in SHAPES:
        for sig in SIGNATURES:
            if sig.dimension <= 1 << 8 or kind.size == 2:
                yield kind, sig


def test_the_sweep_covers_every_signature_and_shape():
    assert len(SIGNATURES) == 90
    cases = list(sweep())
    assert {sig for _, sig in cases} == set(SIGNATURES)
    assert {kind for kind, _ in cases} == set(SHAPES)


@pytest.mark.parametrize("kind", SHAPES, ids=MatrixKind.display)
def test_positions_match_the_table(kind):
    for sig in (sig for k, sig in sweep() if k == kind):
        layout = CoordLayout(kind, sig)
        entries, pos = dict_layout(kind, sig)
        assert layout.complex_dim == len(entries)
        assert [position(layout, i, key) for i, key in entries] == list(range(len(entries)))
        assert [layout.entry(p) for p in range(len(entries))] == entries
        assert layout.keys == tuple(basis_keys(sig, v.parity) for v in basis_of(kind))
        if not sig.odd_total:
            assert [len(keys) for keys in layout.keys] == [
                1 << sig.even_nilpotents if v.parity == EVEN else 0 for v in basis_of(kind)]
        coords = {p: GaussianRational(p + 1, -p, 1 + p % 3) for p in range(len(entries))}
        assert complex_coords(layout, layout.tensor_from(coords)) == coords


def test_a_key_of_the_other_parity_is_refused():
    # the table raised KeyError on (i, key) with key not of v_i's parity;
    # the arithmetic would give another vector's coordinate
    kind, sig = MatrixKind(SL, 2, 1), AlgebraSignature(1, 0, 1, STANDARD)
    layout = CoordLayout(kind, sig)
    pos = dict_layout(kind, sig)[1]
    even, odd = (next(v.index for v in basis_of(kind) if v.parity == parity) for parity in (EVEN, ODD))
    t1, t1t1bar = make_key(0b01, 0), make_key(0b11, 0)
    assert position(layout, even, t1t1bar) == pos[even, t1t1bar]
    assert position(layout, odd, t1) == pos[odd, t1]
    for i, key in [(even, t1), (odd, t1t1bar), (odd, make_key(0, 1))]:
        assert (i, key) not in pos
        with pytest.raises(ValueError, match="not a monomial"):
            position(layout, i, key)
    # keys outside the signature: a third odd generator, a second even one
    for key in (make_key(0b100, 0), make_key(0b101, 0), make_key(0, 0b10)):
        with pytest.raises(ValueError, match="not a monomial"):
            position(layout, even, key)
        with pytest.raises(ValueError, match="not a monomial"):
            position(layout, odd, key)

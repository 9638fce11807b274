"""Property-based checks of the coefficient-algebra laws on random elements."""

import random

from hypothesis import given, settings, strategies as st

from product_reference import parity_part
from superforms.algebra import AlgebraSignature, GRADED, STANDARD, one
from superforms.literals import format_number, parse_number
from superforms.sampling import random_element, random_even

SIGS = [
    AlgebraSignature(1, 0, 0, STANDARD),
    AlgebraSignature(2, 1, 0, STANDARD),
    AlgebraSignature(1, 0, 1, STANDARD),
    AlgebraSignature(1, 0, 0, GRADED),
    AlgebraSignature(2, 0, 1, GRADED),
]


def element(sig, seed, tag=0):
    return random_element(sig, random.Random(f"prop|{seed}|{tag}"))


@given(st.integers(0, len(SIGS) - 1), st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_associativity_and_distributivity(idx, seed):
    sig = SIGS[idx]
    x, y, z = (element(sig, seed, t) for t in range(3))
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(st.integers(0, len(SIGS) - 1), st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_supercommutativity(idx, seed):
    """Homogeneous parts commute up to the parity sign."""
    sig = SIGS[idx]
    x, y = element(sig, seed, 0), element(sig, seed, 1)
    for px in (0, 1):
        for py in (0, 1):
            a, b = parity_part(x, px), parity_part(y, py)
            ab, ba = a * b, b * a
            assert ab == (-ba if px and py else ba)


@given(st.integers(0, len(SIGS) - 1), st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_conjugation_homomorphism_property(idx, seed):
    sig = SIGS[idx]
    x, y = element(sig, seed, 0), element(sig, seed, 1)
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


@given(st.integers(0, len(SIGS) - 1), st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_conjugation_square_law(idx, seed):
    sig = SIGS[idx]
    x = element(sig, seed)
    twice = x.conjugate().conjugate()
    if sig.conjugation == STANDARD:
        assert twice == x
    else:
        assert twice == parity_part(x, 0) - parity_part(x, 1)


@given(st.integers(0, len(SIGS) - 1), st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_invertible_iff_nonzero_body(idx, seed):
    sig = SIGS[idx]
    x = element(sig, seed)
    if x.is_invertible():
        assert x * x.inverse() == one(sig)
    else:
        assert x.body().is_zero()


@given(st.integers(0, len(SIGS) - 1), st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_literal_roundtrip(idx, seed):
    sig = SIGS[idx]
    x = element(sig, seed)
    assert parse_number(format_number(x), sig) == x


@given(st.integers(0, len(SIGS) - 1), st.integers(0, 10 ** 6))
@settings(max_examples=40)
def test_even_elements_are_central(idx, seed):
    sig = SIGS[idx]
    a = random_even(sig, random.Random(f"prop-central|{seed}"))
    x = element(sig, seed, 1)
    assert a * x == x * a

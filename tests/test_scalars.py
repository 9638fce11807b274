"""Exact complex rational arithmetic, cross-checked against fractions.Fraction."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from superforms.scalars import (
    GaussianRational, HALF, I, MINUS_I, MINUS_ONE, ONE, ZERO, format_parts, format_scalar, integer,
)


def as_fractions(z: GaussianRational):
    return Fraction(z.re, z.den), Fraction(z.im, z.den)


def from_fractions(re: Fraction, im: Fraction) -> GaussianRational:
    den = re.denominator * im.denominator
    return GaussianRational(re.numerator * im.denominator,
                            im.numerator * re.denominator, den)


small = st.integers(min_value=-12, max_value=12)
denom = st.integers(min_value=1, max_value=9)
scalars = st.builds(GaussianRational, small, small, denom)
nonzero = scalars.filter(lambda z: not z.is_zero())


def test_normalization():
    assert GaussianRational(2, 4, 6) == GaussianRational(1, 2, 3)
    assert GaussianRational(1, 0, -2) == GaussianRational(-1, 0, 2)
    assert GaussianRational(0, 0, 17) == ZERO
    z = GaussianRational(-3, 6, -9)
    assert (z.re, z.im, z.den) == (1, -2, 3)
    assert z.den > 0


def test_constants():
    assert ONE == integer(1)
    assert MINUS_ONE == integer(-1)
    assert I * I == MINUS_ONE
    assert I * MINUS_I == ONE
    assert HALF + HALF == ONE
    assert ZERO.is_zero() and not ONE.is_zero()
    assert ONE.is_one() and ONE.im == 0
    assert I.im != 0


@given(scalars, scalars)
def test_add_matches_fraction_oracle(a, b):
    re_a, im_a = as_fractions(a)
    re_b, im_b = as_fractions(b)
    assert a + b == from_fractions(re_a + re_b, im_a + im_b)


@given(scalars, scalars)
def test_mul_matches_fraction_oracle(a, b):
    re_a, im_a = as_fractions(a)
    re_b, im_b = as_fractions(b)
    assert a * b == from_fractions(re_a * re_b - im_a * im_b,
                                   re_a * im_b + im_a * re_b)


@given(scalars, scalars, scalars)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(nonzero)
def test_inverse(a):
    assert a * a.inverse() == ONE
    assert a.inverse().inverse() == a


@given(scalars, nonzero)
def test_division(a, b):
    assert (a / b) * b == a


@given(scalars)
def test_conjugation(a):
    c = a.conjugate()
    assert c.conjugate() == a
    assert (c.re, c.im, c.den) == (a.re, -a.im, a.den)
    norm = a * c
    assert norm.im == 0
    assert norm.re >= 0


@given(scalars, scalars)
def test_conjugation_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_format():
    assert format_scalar(ZERO) == "0"
    assert format_scalar(ONE) == "1"
    assert format_scalar(integer(-3)) == "-3"
    assert format_scalar(HALF) == "1/2"
    assert format_scalar(I) == "0+1i"
    assert format_scalar(MINUS_I) == "0-1i"
    assert format_scalar(GaussianRational(3, -1, 2)) == "3/2-1/2i"
    assert format_scalar(GaussianRational(0, 3, 4)) == "0+3/4i"


@given(scalars, st.integers(min_value=1, max_value=6))
def test_format_parts_reads_any_multiple_of_the_lowest_terms(z, k):
    assert format_parts(z.re * k, z.im * k, z.den * k) == format_scalar(z)


@given(scalars)
def test_hash_consistent_with_eq(a):
    b = GaussianRational(a.re * 3, a.im * 3, a.den * 3)
    assert a == b and hash(a) == hash(b)


@given(st.lists(st.tuples(scalars, scalars), max_size=6))
def test_sum_of_products_matches_fraction_oracle(pairs):
    total = GaussianRational.sum_of_products(pairs)
    re = sum((as_fractions(a)[0] * as_fractions(b)[0] - as_fractions(a)[1] * as_fractions(b)[1]
              for a, b in pairs), Fraction(0))
    im = sum((as_fractions(a)[0] * as_fractions(b)[1] + as_fractions(a)[1] * as_fractions(b)[0]
              for a, b in pairs), Fraction(0))
    assert total == from_fractions(re, im)


def test_other_operand_types_are_not_implemented():
    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        assert getattr(ONE, op)("1") is NotImplemented

"""Plain-text literal format: parsing, printing, error reporting."""

import pytest

from superforms.algebra import (
    AlgebraSignature, GRADED, STANDARD, one, theta, theta_bar, theta_selfreal,
)
from superforms.literals import (
    LiteralError, format_matrix, format_number, parse_matrix, parse_number,
)
from superforms.scalars import GaussianRational, HALF, I, ONE

SIG = AlgebraSignature(2, 1, 1, STANDARD)


def test_parse_basic_forms():
    assert parse_number("(0)", SIG).is_zero()
    assert parse_number("(1)", SIG) == one(SIG)
    assert parse_number("(-1/2)", SIG) == one(SIG).scaled(-HALF)
    assert parse_number("(0+1i)", SIG) == one(SIG).scaled(I)
    assert parse_number("(3/2-1/2i)", SIG) == one(SIG).scaled(GaussianRational(3, -1, 2))


def test_parse_generators():
    t1 = parse_number("t1", SIG)
    assert t1 == theta(SIG, 0)
    assert parse_number("t1~", SIG) == theta_bar(SIG, 0)
    assert parse_number("t2", SIG) == theta(SIG, 1)
    assert parse_number("(1)*t3", SIG) == theta_selfreal(SIG, 0)   # self-real generator
    e = parse_number("e1", SIG)
    assert e.is_even() and (e * e).is_zero()


def test_parse_products_and_sums():
    x = parse_number("(1/2)*t1*t2~ + (0-1i) + (2)*e1", SIG)
    expected = (theta(SIG, 0) * theta_bar(SIG, 1)).scaled(HALF) \
        + one(SIG).scaled(GaussianRational(0, -1, 1)) \
        + parse_number("e1", SIG).scaled(GaussianRational(2, 0, 1))
    assert x == expected


def test_format_is_sorted_and_parseable():
    x = parse_number("(1)*t2*t1", SIG)       # unsorted input, canonical output
    text = format_number(x)
    assert text == "(-1)*t1*t2"
    assert parse_number(text, SIG) == x


def test_parse_errors():
    with pytest.raises(LiteralError):
        parse_number("t9", SIG)              # out of range
    with pytest.raises(LiteralError):
        parse_number("(1", SIG)              # unbalanced
    with pytest.raises(LiteralError):
        parse_number("x1", SIG)              # unknown generator name
    with pytest.raises(LiteralError):
        parse_number("e2", SIG)              # only one even nilpotent
    grd = AlgebraSignature(1, 0, 0, GRADED)
    with pytest.raises(LiteralError):
        parse_number("t2", grd)


@pytest.mark.parametrize("text", ["(1/0)", "(1+1/0i)"])
def test_a_zero_denominator_is_a_literal_error(text):
    with pytest.raises(LiteralError, match="zero denominator"):
        parse_number(text, SIG)
    with pytest.raises(LiteralError, match="zero denominator"):
        parse_matrix(f"shape 1|1 [[{text}, (0)], [(0), (1)]]", SIG)


def test_matrix_roundtrip():
    text = "shape 1|1 [[(1), (1/2)*t1], [(0+1i)*t1~, (0)]]"
    m, n, rows = parse_matrix(text, SIG)
    assert (m, n) == (1, 1)
    assert rows[0][0] == one(SIG)
    assert format_matrix(m, n, rows) == text


def test_matrix_shape_errors():
    with pytest.raises(LiteralError):
        parse_matrix("shape 1|1 [[(1)], [(0)]]", SIG)        # ragged row
    with pytest.raises(LiteralError):
        parse_matrix("[[(1)]]", SIG)                         # missing shape header

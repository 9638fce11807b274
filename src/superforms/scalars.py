"""Exact scalar arithmetic over the Gaussian rationals Q(i).

Every coefficient this package hands out or takes in is a ``GaussianRational``:
the complex number ``(re + im*i) / den`` stored as three integers with
``den > 0`` and ``gcd(re, im, den) == 1``.  This is the whole numeric tower —
there are no floats anywhere, and equality is exact structural equality of
the normalized triple.  An algebra element keeps its coefficients as
Gaussian-integer numerators over one shared denominator instead
(``algebra.SuperNumber``), and builds a ``GaussianRational`` only when a
caller reads a coefficient.

The class is small (``__slots__``, no ``__dict__``).  Arithmetic with any
other type returns ``NotImplemented``, so that type gets its turn: ``c * x``
for an algebra element ``x`` reaches ``x.__rmul__``.
:meth:`GaussianRational.sums_of_products` sums many products, less the
products of its minus pairs, as integer numerators and normalises once per
cell of a batch.
"""

from __future__ import annotations

from math import gcd


class GaussianRational:
    """A Gaussian rational (re + im*i)/den in lowest terms, den > 0."""

    __slots__ = ("re", "im", "den")

    def __init__(self, re: int = 0, im: int = 0, den: int = 1, _normalized: bool = False):
        if _normalized:
            self.re = re
            self.im = im
            self.den = den
            return
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            re, im, den = -re, -im, -den
        g = gcd(gcd(re, im), den)
        if g > 1:
            re //= g
            im //= g
            den //= g
        self.re = re
        self.im = im
        self.den = den

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_one(self) -> bool:
        return self.re == 1 and self.im == 0 and self.den == 1

    # -- arithmetic ----------------------------------------------------------

    # Each binary operator reads the other operand's parts first; an operand
    # without them is another type, which gets its turn via NotImplemented.

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        try:
            c, d, oden = other.re, other.im, other.den
        except AttributeError:
            return NotImplemented
        if self.den == oden:
            return GaussianRational(self.re + c, self.im + d, oden)
        return GaussianRational(self.re * oden + c * self.den, self.im * oden + d * self.den, self.den * oden)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        try:
            c, d, oden = other.re, other.im, other.den
        except AttributeError:
            return NotImplemented
        if self.den == oden:
            return GaussianRational(self.re - c, self.im - d, oden)
        return GaussianRational(self.re * oden - c * self.den, self.im * oden - d * self.den, self.den * oden)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im, self.den, _normalized=True)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        try:
            c, d, oden = other.re, other.im, other.den
        except AttributeError:
            return NotImplemented
        a, b = self.re, self.im
        return GaussianRational(a * c - b * d, a * d + b * c, self.den * oden)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        try:
            c, d, oden = other.re, other.im, other.den
        except AttributeError:
            return NotImplemented
        norm = c * c + d * d
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a, b = self.re, self.im
        # (a+bi)/(c+di) = (a+bi)(c-di)/|c+di|^2, denominators folded in.
        return GaussianRational((a * c + b * d) * oden, (b * c - a * d) * oden, self.den * norm)

    @staticmethod
    def sums_of_products(cells) -> list:
        """One ``sum a_k b_k - sum c_k d_k`` per cell ``(pairs, minus)``, summed
        as integer numerators over a running common denominator and normalised
        once: ``linalg.mat_mul``'s fused product for this ring.  The running
        sum is negated before each group, and once more at the end of two."""
        out = []
        for pairs, minus in cells:
            re = im = 0
            den = 1
            for group in (pairs, minus) if minus else (pairs,):
                re, im = -re, -im
                for a, b in group:
                    ar, ai, br, bi = a.re, a.im, b.re, b.im
                    d = a.den * b.den
                    if d != den:
                        common = den // gcd(den, d) * d
                        re, im = re * (common // den), im * (common // den)
                        scale = common // d
                        ar, ai = ar * scale, ai * scale
                        den = common
                    re += ar * br - ai * bi
                    im += ar * bi + ai * br
            out.append(GaussianRational(-re, -im, den) if minus else GaussianRational(re, im, den))
        return out

    @staticmethod
    def sum_of_products(pairs, minus=()) -> "GaussianRational":
        """The one-cell case of :meth:`sums_of_products`."""
        return GaussianRational.sums_of_products(((pairs, minus),))[0]

    def inverse(self) -> "GaussianRational":
        return ONE / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im, self.den, _normalized=True)

    def scale(self, num: int, den: int = 1) -> "GaussianRational":
        return GaussianRational(self.re * num, self.im * num, self.den * den)

    # -- comparison / hashing --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.re, self.im, self.den))

    # -- display ---------------------------------------------------------------

    def __repr__(self) -> str:
        return f"GaussianRational({self.re}, {self.im}, {self.den})"

    def __str__(self) -> str:
        return format_scalar(self)


def format_scalar(z: GaussianRational) -> str:
    """Render in the literal grammar's coefficient form, without parentheses.

    Pure rationals render as ``a`` or ``a/b``; anything with an imaginary part
    renders as ``re+im i`` / ``re-im i`` with both parts explicit, e.g.
    ``0+1i``, ``3/2-1/2i``.
    """
    return format_parts(z.re, z.im, z.den)


def format_parts(re: int, im: int, den: int) -> str:
    """:func:`format_scalar` of ``(re + im i) / den`` for any ints with
    ``den > 0``, in lowest terms or not: each part is reduced for display."""
    def rat(num: int, den: int) -> str:
        return f"{num}/{den}" if den != 1 else str(num)

    if im == 0:
        g = gcd(re, den)
        return rat(re // g, den // g)
    gre = gcd(re, den) or 1
    gim = gcd(im, den) or 1
    re_s = rat(re // gre, den // gre) if re else "0"
    im_num, im_den = im // gim, den // gim
    sign = "+" if im_num >= 0 else "-"
    return f"{re_s}{sign}{rat(abs(im_num), im_den)}i"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
MINUS_ONE = GaussianRational(-1)
I = GaussianRational(0, 1)
MINUS_I = GaussianRational(0, -1)
HALF = GaussianRational(1, 0, 2)


def integer(n: int) -> GaussianRational:
    return GaussianRational(n)

"""Finite-dimensional Grassmann coefficient algebras with conjugation.

A coefficient algebra here is generated over Q(i) by

* ``odd_pairs`` conjugate pairs of odd generators  (written ``t1, t1~, t2, ...``),
* ``odd_selfreal`` self-conjugate odd generators   (only with standard conjugation),
* ``even_nilpotents`` square-zero even generators  (written ``e1, e2, ...``),

subject to supercommutativity (odd generators anticommute, odd squares vanish)
and ``e_j^2 = 0``.  Two antilinear conjugations are supported, both extended to
products as algebra homomorphisms (``conj(ab) = conj(a) conj(b)``):

* ``standard``:  swaps each pair ``t_k <-> t_k~``, fixes self-real odd and even
  generators; it is involutive.
* ``graded``:    ``t_k -> t_k~``, ``t_k~ -> -t_k``, fixes even generators; its
  square is the parity sign (``+`` on even elements, ``-`` on odd ones).

Internally a monomial is a single int key: the low 8 bits are the odd-generator
mask (ids ``2k``/``2k+1`` for the k-th pair, then self-real ids), the bits above
are the even-nilpotent mask.  Reordering signs come from inversion counts of the
odd masks; the product kernel reads them from one flat table per odd-generator
count (:func:`_product_signs`), since they do not depend on anything else.
This module owns the key layout: other modules walk a key with :func:`bits`
and build keys only through the functions here.

A map that sends each generator to one term sends each monomial to one term,
the ordered product of its generators' terms (:func:`monomial_image`, the one
monomial rule).  Conjugation permutes the generators up to sign, so a
signature's *conjugation table*, built by that rule once on first use, is a
list indexed by the odd mask that holds the image mask and its sign;
the table of ``conj^k`` reads it ``k`` times from each mask and is kept per
``k`` (:meth:`AlgebraSignature.conjugation_power`), so
:func:`conjugate_monomial` and ``SuperNumber.conjugated`` read one entry
per key.  The signature also keeps its tuples of basis keys, whole and by
parity.

The dual numbers ``A(eps)`` of :func:`adjoin_dual` put ``eps`` last among
the even generators.  :func:`dual_scale` applies the endomorphism
``eps -> a eps`` in closed form: it partitions an element's terms by the
bit of ``eps`` and makes one kernel call on the two parts.
:func:`identity_plus_multiple` builds
the grid ``Id + t M`` of a dual-number kernel point in one pass per entry,
for ``t`` one of ``eps``, ``-eps`` or ``e h``: such a monomial only sets
bits on the keys of ``M``.  Any other ``t`` raises ``ValueError`` there.

An element is stored as Gaussian-integer numerators over one denominator,
in a unique normal form (see :class:`SuperNumber`), so equality and hashing
compare ints.  Every product goes through one fused, exact multiply-accumulate
kernel, :func:`sums_of_products`: it takes a batch of output cells and
returns one element per cell, ``sum a_k b_k - sum c_k d_k`` over the cell's
pairs and minus pairs of elements (a ``GaussianRational`` factor is a
constant term).  The sign table is read once per batch.  Each factor's
numerators are read as the element keeps them.  The first factor of each
pair is rescaled to its cell's common denominator, and negated in a minus
pair; the products are summed as plain ints per output monomial, and each
cell's sums are reduced by one gcd when its denominator is not 1.  A cell of
one pair keeps the short cuts for 1, -1 and constant factors.  No
``GaussianRational`` is built on the way: one is built only where a caller
asks for a coefficient (``items``, ``coefficient``, ``body``).
:func:`sum_of_products` and ``SuperNumber.__mul__`` are the kernel on one
cell; ``linalg.mat_mul`` hands it every cell of a grid product, and of a
commutator with minus pairs, in one call, as ``matrices.linear_combination``
and ``liealg.even_rules_bracket`` do theirs.  ``SuperMatrix.scale`` is the one
scaling path: each entry is a cell of one pair, so a constant scales every
entry by the short cut and an element is multiplied in one kernel call.
``SuperNumber.conjugated`` gives ``c conj^k(x)`` in one pass over the terms.

An :class:`AlgebraMorphism` is *monomial* when every generator image has at
most one term, as for the pair projections and inclusions and the
dual-number inclusion and projection.  It then sends each monomial to at
most one monomial by the monomial rule, and applying it relabels keys and
scales numerators, summing keys that meet and dropping zeros, without the
kernel.  A monomial morphism that sends every
generator to the generator of the same key, as the dual-number inclusion does,
*keeps keys*: it hands each element's numerators to the target unchanged.
Other morphisms sum the images of their monomials, times the element's
numerators, in the product kernel.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import chain
from math import gcd
from typing import Dict, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

from .scalars import GaussianRational, ONE, ZERO

STANDARD = "standard"
GRADED = "graded"

EVEN = 0
ODD = 1

MAX_ODD = 8
MAX_EVEN_NILPOTENT = 4

_ODD_BITS = 8  # odd mask lives in the low 8 bits of a monomial key


class NotInvertible(ValueError):
    """Raised when inverting an element whose body (constant term) is zero."""


class MorphismError(ValueError):
    """Raised when generator images do not define a valid algebra morphism."""


class _SignatureFields(NamedTuple):
    odd_pairs: int = 0
    odd_selfreal: int = 0
    even_nilpotents: int = 0
    conjugation: str = STANDARD


class AlgebraSignature(_SignatureFields):
    """Shape of a coefficient algebra: generator counts plus conjugation kind.
    Signatures are tuples and compare as such; each keeps the tables it
    derives from its fields."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.odd_pairs < 0 or self.odd_selfreal < 0 or self.even_nilpotents < 0:
            raise ValueError("negative generator count")
        if self.conjugation not in (STANDARD, GRADED):
            raise ValueError(f"unknown conjugation kind {self.conjugation!r}")
        if self.conjugation == GRADED and self.odd_selfreal:
            raise ValueError("graded conjugation admits no self-real odd generators")
        if 2 * self.odd_pairs + self.odd_selfreal > MAX_ODD:
            raise ValueError(f"at most {MAX_ODD} odd generators supported")
        if self.even_nilpotents > MAX_EVEN_NILPOTENT:
            raise ValueError(f"at most {MAX_EVEN_NILPOTENT} even nilpotent generators supported")
        return self

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``, so a changed copy is validated too
        return cls(*iterable)

    @property
    def odd_total(self) -> int:
        return 2 * self.odd_pairs + self.odd_selfreal

    @property
    def dimension(self) -> int:
        """Dimension over Q(i)."""
        return 1 << (self.odd_total + self.even_nilpotents)

    def extended(self, extra_even: int = 1) -> "AlgebraSignature":
        """The same signature with ``extra_even`` more even nilpotent generators."""
        return AlgebraSignature(
            self.odd_pairs, self.odd_selfreal, self.even_nilpotents + extra_even, self.conjugation
        )

    @cached_property
    def conjugation_table(self) -> list:
        """The conjugation table: entry ``omask`` is the image ``(odd mask,
        sign)`` of the odd monomial ``omask``, built once per signature by
        :func:`monomial_image` from the generators' images.  Both kinds send
        the pair member ``2k`` or ``2k+1`` to the other one, ``gid ^ 1``, with
        sign ``-`` only for graded ``t_k~ -> -t_k``; self-real generators are
        fixed."""
        pairs = 2 * self.odd_pairs
        graded = self.conjugation == GRADED
        images = [(1 << (gid ^ 1), -1 if graded and gid & 1 else 1) if gid < pairs else (1 << gid, 1)
                  for gid in range(self.odd_total)]
        return [monomial_image(omask, images, (), 1) for omask in range(1 << self.odd_total)]

    @cached_property
    def product_signs(self) -> Tuple[int, Tuple[int, ...]]:
        """``(odd_total, table)``: the product sign table of this signature's
        odd-generator count (:func:`_product_signs`), shared by every
        signature with that count and looked up once per signature."""
        return self.odd_total, _product_signs(self.odd_total)

    @cached_property
    def _conjugation_powers(self) -> Dict[int, list]:
        return {1: self.conjugation_table}

    def conjugation_power(self, times: int) -> list:
        """The table of ``conj^times`` in the form of the conjugation table:
        each entry is the conjugation table read ``times`` times from its odd
        mask, with the product of the signs.  Built once per ``times``;
        ``times`` 0 gives the identity."""
        powers = self._conjugation_powers
        table = powers.get(times)
        if table is None:
            base = self.conjugation_table
            table = []
            for omask in range(len(base)):
                sign = 1
                for _ in range(times):
                    omask, s = base[omask]
                    sign *= s
                table.append((omask, sign))
            powers[times] = table
        return table

    @cached_property
    def _keys_by_parity(self) -> Dict[Optional[int], Tuple[int, ...]]:
        keys = tuple(
            make_key(omask, emask)
            for emask in range(1 << self.even_nilpotents)
            for omask in range(1 << self.odd_total)
        )
        return {
            None: keys,
            EVEN: tuple(k for k in keys if key_parity(k) == EVEN),
            ODD: tuple(k for k in keys if key_parity(k) == ODD),
        }


# ---------------------------------------------------------------------------
# monomial keys
# ---------------------------------------------------------------------------

def make_key(odd_mask: int, even_mask: int) -> int:
    return odd_mask | (even_mask << _ODD_BITS)


def odd_mask_of(key: int) -> int:
    return key & 0xFF


def even_mask_of(key: int) -> int:
    return key >> _ODD_BITS


def key_parity(key: int) -> int:
    return (key & 0xFF).bit_count() & 1


def mono_mul(k1: int, k2: int) -> Optional[Tuple[int, int]]:
    """Product of two monomial keys: ``None`` if zero, else ``(key, sign)``.

    The product vanishes exactly when the keys share a generator; otherwise
    its key is ``k1 | k2`` and its sign is the parity of merging the two
    ascending odd-generator lists, i.e. the number of pairs (i in k1, j in k2)
    with i > j.
    """
    if k1 & k2:
        return None
    o1 = k1 & 0xFF
    inversions = 0
    rest = k2 & 0xFF
    while rest:
        low = rest & -rest
        # bits of o1 strictly above this bit of o2
        inversions += (o1 & ~(low | (low - 1))).bit_count()
        rest ^= low
    return k1 | k2, -1 if (inversions & 1) else 1


@cache
def _product_signs(odd_total: int) -> Tuple[int, ...]:
    """The :func:`mono_mul` signs of the odd masks below ``1 << odd_total``,
    flat: entry ``o1 << odd_total | o2`` is the sign of ``o1 o2`` (and
    meaningless where they share a generator).  One table per odd-generator
    count, at most ``2 ** (2 * MAX_ODD)`` entries.  A row is built from the
    row of ``o1`` without its lowest generator, which passes the generators
    of ``o2`` below it."""
    size = 1 << odd_total
    rows = [[1] * size]
    for o1 in range(1, size):
        low = o1 & -o1
        below = low - 1
        rows.append([-s if (o2 & below).bit_count() & 1 else s for o2, s in enumerate(rows[o1 ^ low])])
    return tuple(chain.from_iterable(rows))


def products_vanish(keys1: Iterable[int], keys2: Sequence[int]) -> bool:
    """Whether every product of a monomial of ``keys1`` by one of ``keys2``
    is zero, that is every pair of keys shares a generator (:func:`mono_mul`),
    so any sum of such products is zero term by term."""
    return all(k1 & k2 for k1 in keys1 for k2 in keys2)


def bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def monomial_image(key: int, odd_terms: Sequence[tuple], even_terms: Sequence[tuple], unit):
    """The image of the monomial ``key`` under a map that sends each
    generator to one term or to zero: ``odd_terms[gid]`` and
    ``even_terms[j]`` are ``(key', coefficient)``, or ``()`` for zero.

    The image is the product of the generators' terms in the monomial's
    order, odd generators ascending, then even ones: the keys merge with the
    :func:`mono_mul` signs and the coefficients multiply, starting from
    ``unit``.  Returns ``(key', coefficient)``, or ``()`` when it vanishes.
    """
    out_key, coef = 0, unit
    factors = [odd_terms[g] for g in bits(key & 0xFF)] + [even_terms[j] for j in bits(key >> _ODD_BITS)]
    for term in factors:
        merged = mono_mul(out_key, term[0]) if term else None
        if merged is None:
            return ()
        out_key, sign = merged
        coef = coef * term[1] if sign > 0 else -(coef * term[1])
    return out_key, coef


def conjugate_monomial(sig: AlgebraSignature, key: int, times: int) -> Tuple[int, int]:
    """``conj^times`` of the monomial ``key`` as ``(key', sign)``, read off
    the table of ``conj^times``; even generators are fixed."""
    omask, sign = sig.conjugation_power(times)[key & 0xFF]
    return omask | (key & ~0xFF), sign


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

_new = object.__new__


def _element(sig: AlgebraSignature, den: int, num: Dict[int, tuple]) -> "SuperNumber":
    """The element with numerators ``num`` over ``den``, already in the
    normal form; the package's hot paths build elements through it."""
    x = _new(SuperNumber)
    x.sig = sig
    x.den = den
    x._num = num
    return x


def _normal(sig: AlgebraSignature, den: int, num: Dict[int, tuple]) -> "SuperNumber":
    """The element ``num / den`` for nonzero numerators ``num`` and ``den >
    0``, reduced by the gcd of ``den`` and every numerator part: none when
    ``den`` is 1, and the scan stops at the first part that leaves 1."""
    if den != 1:
        g = den
        for re, im in num.values():
            g = gcd(g, re, im)
            if g == 1:
                break
        else:
            den //= g
            num = {k: (re // g, im // g) for k, (re, im) in num.items()}
    x = _new(SuperNumber)           # as _element does, without a second call on the hot path
    x.sig = sig
    x.den = den
    x._num = num
    return x


class SuperNumber:
    """An element of a coefficient algebra: ``sum (re_k + im_k i) / den``
    times the monomial ``k``.

    It is stored as one int ``den > 0`` and a dict ``{key: (re, im)}`` of
    Gaussian-integer numerators, in a unique normal form: no entry is
    ``(0, 0)``, and ``gcd(den, every re, every im) == 1`` (so zero has
    ``den == 1``).  Equal elements therefore have equal storage, and ``==``
    and ``hash`` compare it directly.  Instances are treated as immutable.

    Construct with the module helpers (``scalar``, ``theta``, ``epsilon``,
    ...), or from Gaussian-rational coefficients as ``SuperNumber(sig,
    {key: c})``; zero coefficients are dropped.
    ``items``, ``coefficient`` and ``body`` hand coefficients out as
    ``GaussianRational``; ``numerators`` and ``body_parts`` hand out ints,
    and the arithmetic works on the numerators.
    """

    __slots__ = ("sig", "den", "_num")

    def __init__(self, sig: AlgebraSignature, terms: Dict[int, GaussianRational]):
        # the least common denominator of coefficients in lowest terms leaves
        # no common factor in the rescaled numerators
        den = 1
        for c in terms.values():
            if den % c.den:
                den = den // gcd(den, c.den) * c.den
        num = {}
        for k, c in terms.items():
            if c.re or c.im:
                scale = den // c.den
                num[k] = (c.re * scale, c.im * scale)
        self.sig = sig
        self.den = den
        self._num = num

    # -- construction --------------------------------------------------------

    _from_numerators = staticmethod(_normal)      # the private constructor from numerators

    @staticmethod
    def zero(sig: AlgebraSignature) -> "SuperNumber":
        return _element(sig, 1, {})

    # -- inspection -----------------------------------------------------------

    def items(self) -> Iterator[Tuple[int, GaussianRational]]:
        den = self.den
        if den == 1:
            return iter([(k, GaussianRational(re, im, 1, True)) for k, (re, im) in self._num.items()])
        return iter([(k, GaussianRational(re, im, den)) for k, (re, im) in self._num.items()])

    def keys(self) -> Iterable[int]:
        """The monomial keys of the nonzero terms, without their coefficients."""
        return self._num.keys()

    def numerators(self) -> Iterable[Tuple[int, Tuple[int, int]]]:
        """The stored ``(key, (re, im))`` pairs: the coefficient of ``key``
        is ``(re + im i) / den``, not reduced term by term."""
        return self._num.items()

    def coefficient(self, key: int) -> GaussianRational:
        v = self._num.get(key)
        if v is None:
            return ZERO
        return GaussianRational(v[0], v[1], self.den, self.den == 1)

    def body(self) -> GaussianRational:
        """The constant (degree-zero) coefficient."""
        v = self._num.get(0)
        if v is None:
            return ZERO
        return GaussianRational(v[0], v[1], self.den, self.den == 1)

    def body_parts(self) -> Tuple[int, int, int]:
        """The constant coefficient as ``(re, im, den)`` in lowest terms: the
        parts of :meth:`body`, without building it."""
        re, im = self._num.get(0, (0, 0))
        den = self.den
        if den != 1:
            g = gcd(gcd(re, im), den)
            if g > 1:
                re, im, den = re // g, im // g, den // g
        return re, im, den

    def soul(self) -> "SuperNumber":
        """The nilpotent part: everything except the constant term."""
        if 0 not in self._num:
            return self
        num = dict(self._num)
        del num[0]
        return _normal(self.sig, self.den, num)

    def is_zero(self) -> bool:
        return not self._num

    def is_even(self) -> bool:
        return all(key_parity(k) == EVEN for k in self._num)

    def is_odd(self) -> bool:
        return all(key_parity(k) == ODD for k in self._num)

    def parity(self) -> Optional[int]:
        """EVEN, ODD, or ``None`` for mixed.  The zero element counts as even."""
        if not self._num:
            return EVEN
        parities = {key_parity(k) for k in self._num}
        if len(parities) > 1:
            return None
        return parities.pop()

    def is_invertible(self) -> bool:
        return 0 in self._num

    def __len__(self) -> int:
        return len(self._num)

    # -- arithmetic ------------------------------------------------------------

    def _check_sig(self, other: "SuperNumber"):
        if self.sig != other.sig:
            raise ValueError("mixing elements of different coefficient algebras")

    def __add__(self, other: "SuperNumber") -> "SuperNumber":
        return self._plus(other, 1)

    def __sub__(self, other: "SuperNumber") -> "SuperNumber":
        return self._plus(other, -1)

    def _plus(self, other: "SuperNumber", sign: int) -> "SuperNumber":
        """``self + sign other`` over the least common denominator; a key
        whose sum cancels is dropped where it cancels."""
        if self.sig is not other.sig:
            self._check_sig(other)
        if not other._num:
            return self
        da, db = self.den, other.den
        if da == db:
            den, sa, sb = da, 1, sign
        else:
            den = da // gcd(da, db) * db
            sa, sb = den // da, sign * (den // db)
        out = dict(self._num) if sa == 1 else {k: (re * sa, im * sa) for k, (re, im) in self._num.items()}
        for k, v in other._num.items():
            cur = out.get(k)
            re, im = v
            if cur is None:
                out[k] = v if sb == 1 else (re * sb, im * sb)
            else:
                re, im = cur[0] + re * sb, cur[1] + im * sb
                if re or im:
                    out[k] = (re, im)
                else:
                    del out[k]
        return _normal(self.sig, den, out)

    def __neg__(self) -> "SuperNumber":
        return _element(self.sig, self.den, {k: (-re, -im) for k, (re, im) in self._num.items()})

    def __mul__(self, other):
        if isinstance(other, (SuperNumber, GaussianRational)):
            hit = _pair(self.sig, self, other)
            return _accumulate(self.sig, (hit,))[0] if type(hit) is tuple else hit
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, GaussianRational):
            return self.scaled(other)           # constants commute
        return NotImplemented

    def sums_of_products(self, cells) -> list:
        """One element per cell ``(pairs, minus)`` of this element's algebra,
        in one kernel call (see the module function); any element, its zero
        say, stands for the ring."""
        return sums_of_products(self.sig, cells)

    def scaled(self, c: GaussianRational) -> "SuperNumber":
        """``c x`` for a constant ``c``: one product of numerators per term,
        and none at all for 0 and the units 1, -1, i and -i."""
        return self._times(c.re, c.im, c.den)

    def _times(self, cr: int, ci: int, cd: int) -> "SuperNumber":
        """``(cr + ci i) / cd`` times ``x``, for any ints with ``cd > 0``."""
        if cd == 1 and abs(cr) + abs(ci) <= 1:
            if ci:
                # (re + im i) (s i) = -s im + s re i keeps the normal form
                return _element(self.sig, self.den, {k: (-ci * im, ci * re) for k, (re, im) in self._num.items()})
            if cr == 1:
                return self
            return -self if cr else _element(self.sig, 1, {})
        return _normal(self.sig, self.den * cd,
                       {k: (re * cr - im * ci, re * ci + im * cr) for k, (re, im) in self._num.items()})

    def conjugate(self) -> "SuperNumber":
        return self.conjugated(1)

    def conjugated(self, times: int, c: GaussianRational = ONE) -> "SuperNumber":
        """``c conj^times(x)`` in one pass over the terms.  Each key is read
        off the table of ``conj^times``
        (:meth:`AlgebraSignature.conjugation_power`): conjugation permutes
        the generators, so distinct monomials have distinct images and no two
        terms meet.  Each numerator is conjugated when ``times`` is odd and
        multiplied by the table's sign and by ``c``; for ``c`` in
        {1, -1, i, -i} the denominator and the normal form stay.  With
        ``times`` 0 this is :meth:`scaled`."""
        if not times:
            return self.scaled(c)
        cr, ci, cd = c.re, c.im, c.den
        if not (cr or ci):
            return _element(self.sig, 1, {})
        table = self.sig.conjugation_power(times)
        flip = times & 1
        out: Dict[int, tuple] = {}
        if cd == 1 and cr == 1 and not ci:
            # c is 1: only the table's sign and the conjugation touch the parts
            isign = -1 if flip else 1
            for k, (re, im) in self._num.items():
                omask, sign = table[k & 0xFF]
                out[omask | (k & ~0xFF)] = (re, im * isign) if sign > 0 else (-re, -im * isign)
            return _element(self.sig, self.den, out)
        for k, (re, im) in self._num.items():
            omask, sign = table[k & 0xFF]
            if flip:
                im = -im
            if sign < 0:
                re, im = -re, -im
            out[omask | (k & ~0xFF)] = (re * cr - im * ci, re * ci + im * cr)
        if cd == 1 and abs(cr) + abs(ci) == 1:
            return _element(self.sig, self.den, out)
        return _normal(self.sig, self.den * cd, out)

    def inverse(self) -> "SuperNumber":
        """Exact inverse via the geometric series of the nilpotent part,
        which stops once the next power is zero (:func:`products_vanish`).
        The body ``(br + bi i) / d`` has the inverse ``d (br - bi i) /
        (br^2 + bi^2)``."""
        body = self._num.get(0)
        if body is None:
            raise NotInvertible("element has zero body")
        br, bi = body
        d, norm = self.den, br * br + bi * bi
        # self = b (1 + n) with n nilpotent; inverse = b^-1 sum (-n)^k
        minus_n = self.soul()._times(-br * d, bi * d, norm)
        acc, power = one(self.sig) + minus_n, minus_n
        keys = tuple(minus_n._num)
        while not products_vanish(power._num, keys):
            power = power * minus_n
            if power.is_zero():
                break
            acc = acc + power
        return acc._times(br * d, -bi * d, norm)

    # -- comparison / display ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SuperNumber):
            return NotImplemented
        return (self.den == other.den and self._num == other._num
                and (self.sig is other.sig or self.sig == other.sig))

    def __hash__(self):
        return hash((self.sig, self.den, frozenset(self._num.items())))

    def __repr__(self) -> str:
        from .literals import format_number
        return f"<{format_number(self)}>"


# ---------------------------------------------------------------------------
# the fused multiply-accumulate kernel
# ---------------------------------------------------------------------------

def _accumulate(sig: AlgebraSignature, cells: Iterable[tuple]) -> list:
    """The kernel loop: per cell ``(den, forms)``, the sum over the forms
    ``(sign, d, ta, tb)`` of ``sign ta tb / d``, numerator dicts over a
    divisor ``d`` of the cell's denominator ``den``, summed as ints per output
    monomial with the signs of the product sign table, read once per batch;
    each cell is reduced once at the end."""
    shift, signs = sig.product_signs
    out = []
    for den, forms in cells:
        acc: Dict[int, list] = {}
        for sign, d, ta, tb in forms:
            scale = sign * (den // d)
            for k1, (r1, i1) in ta.items():
                if scale != 1:
                    r1, i1 = r1 * scale, i1 * scale
                row = (k1 & 0xFF) << shift
                for k2, (r2, i2) in tb.items():
                    if k1 & k2:
                        continue
                    key = k1 | k2
                    cell = acc.get(key)
                    if signs[row | (k2 & 0xFF)] > 0:
                        if cell is None:
                            acc[key] = [r1 * r2 - i1 * i2, r1 * i2 + i1 * r2]
                        else:
                            cell[0] += r1 * r2 - i1 * i2
                            cell[1] += r1 * i2 + i1 * r2
                    elif cell is None:
                        acc[key] = [i1 * i2 - r1 * r2, -r1 * i2 - i1 * r2]
                    else:
                        cell[0] -= r1 * r2 - i1 * i2
                        cell[1] -= r1 * i2 + i1 * r2
        out.append(_normal(sig, den, {key: (re, im) for key, (re, im) in acc.items() if re or im}))
    return out


def _operand(x, sig: AlgebraSignature) -> Tuple[int, Dict[int, tuple]]:
    """A kernel factor as ``(den, numerators)``: an element's own, or a
    ``GaussianRational`` as a constant term at key 0."""
    if type(x) is GaussianRational:
        return x.den, ({0: (x.re, x.im)} if x.re or x.im else {})
    if x.sig is not sig and x.sig != sig:
        raise ValueError("mixing elements of different coefficient algebras")
    return x.den, x._num


_SIGNED_UNITS = ((1, 0), (-1, 0))


def _pair(sig: AlgebraSignature, a, b):
    """The product ``a b`` of one pair as an element where it needs no kernel
    loop: a product by a constant is a scaling, a product by 1 or -1 is the
    other factor or its negative, and by zero is zero.  Otherwise its cell
    ``(den, forms)`` for :func:`_accumulate`, over the product of the
    denominators; two constants are one constant term each, as numerators."""
    if type(a) is GaussianRational:
        a, b = b, a                     # constants commute
    if type(b) is GaussianRational:
        if type(a) is GaussianRational:
            (da, ta), (db, tb) = _operand(a, sig), _operand(b, sig)
            return da * db, ((1, da * db, ta, tb),)
        if a.sig is not sig and a.sig != sig:
            raise ValueError("mixing elements of different coefficient algebras")
        return a.scaled(b)
    if a.sig is not sig and a.sig != sig or b.sig is not sig and b.sig != sig:
        raise ValueError("mixing elements of different coefficient algebras")
    ta, tb = a._num, b._num
    if not ta or not tb:
        return _element(sig, 1, {})
    if a.den == 1 and len(ta) == 1 and ta.get(0) in _SIGNED_UNITS:
        return b if ta[0][0] > 0 else -b
    if b.den == 1 and len(tb) == 1 and tb.get(0) in _SIGNED_UNITS:
        return a if tb[0][0] > 0 else -a
    return a.den * b.den, ((1, a.den * b.den, ta, tb),)


def sums_of_products(sig: AlgebraSignature, cells: Iterable[tuple]) -> list:
    """One element per cell ``(pairs, minus)``: ``sum a_k b_k - sum c_k d_k``
    over its ``pairs`` ``(a_k, b_k)`` and ``minus`` pairs ``(c_k, d_k)`` of
    elements of ``sig``'s algebra or constants, exactly, in one call of the
    kernel loop, :func:`_accumulate`.  A cell of one pair goes through
    :func:`_pair`, as a product does; in the others each pair's first factor
    is rescaled to the cell's common denominator, and negated in a minus pair.
    """
    out, work = [], []                  # per cell its element, or None where the loop sums it; the loop's cells
    for pairs, minus in cells:
        if not minus and len(pairs) == 1:
            a, b = pairs[0]
            hit = _pair(sig, a, b)
            if type(hit) is not tuple:
                out.append(hit)
                continue
            work.append(hit)
        else:
            forms = []
            den = 1
            for sign, group in ((1, pairs), (-1, minus)):
                for a, b in group:
                    da, ta = (a.den, a._num) if type(a) is SuperNumber and a.sig is sig else _operand(a, sig)
                    db, tb = (b.den, b._num) if type(b) is SuperNumber and b.sig is sig else _operand(b, sig)
                    if ta and tb:
                        d = da * db
                        if den % d:
                            den = den // gcd(den, d) * d
                        forms.append((sign, d, ta, tb))
            work.append((den, forms))
        out.append(None)
    sums = iter(_accumulate(sig, work) if work else ())     # no loop call when every cell took a short cut
    return [next(sums) if x is None else x for x in out]


def sum_of_products(sig: AlgebraSignature, pairs: Sequence[tuple], minus: Sequence[tuple] = ()) -> SuperNumber:
    """``sum a_k b_k - sum c_k d_k`` over ``pairs`` and ``minus`` pairs: the
    one-cell case of :func:`sums_of_products`."""
    return sums_of_products(sig, ((pairs, minus),))[0]


# ---------------------------------------------------------------------------
# generator accessors
# ---------------------------------------------------------------------------

def scalar(sig: AlgebraSignature, value: GaussianRational) -> SuperNumber:
    if value.is_zero():
        return _element(sig, 1, {})
    return _element(sig, value.den, {0: (value.re, value.im)})


def one(sig: AlgebraSignature) -> SuperNumber:
    return _element(sig, 1, {0: (1, 0)})


def _generator(sig: AlgebraSignature, key: int) -> SuperNumber:
    return _element(sig, 1, {key: (1, 0)})


def theta(sig: AlgebraSignature, pair: int) -> SuperNumber:
    """The first member ``t_{pair+1}`` of an odd conjugate pair (0-indexed)."""
    if not 0 <= pair < sig.odd_pairs:
        raise IndexError("pair index out of range")
    return _generator(sig, make_key(1 << (2 * pair), 0))


def theta_bar(sig: AlgebraSignature, pair: int) -> SuperNumber:
    """The second member ``t_{pair+1}~`` of an odd conjugate pair (0-indexed)."""
    if not 0 <= pair < sig.odd_pairs:
        raise IndexError("pair index out of range")
    return _generator(sig, make_key(1 << (2 * pair + 1), 0))


def theta_selfreal(sig: AlgebraSignature, index: int) -> SuperNumber:
    """The ``index``-th self-conjugate odd generator (0-indexed)."""
    if not 0 <= index < sig.odd_selfreal:
        raise IndexError("self-real index out of range")
    return _generator(sig, make_key(1 << (2 * sig.odd_pairs + index), 0))


def epsilon(sig: AlgebraSignature, index: int = 0) -> SuperNumber:
    """The ``index``-th even square-zero generator (0-indexed)."""
    if not 0 <= index < sig.even_nilpotents:
        raise IndexError("even nilpotent index out of range")
    return _generator(sig, make_key(0, 1 << index))


def odd_generator(sig: AlgebraSignature, gid: int) -> SuperNumber:
    """Odd generator by raw id (pairs first at ``2k``/``2k+1``, then self-real)."""
    if not 0 <= gid < sig.odd_total:
        raise IndexError("odd generator id out of range")
    return _generator(sig, make_key(1 << gid, 0))


def basis_keys(sig: AlgebraSignature, parity: Optional[int] = None) -> Tuple[int, ...]:
    """All monomial keys of the algebra, optionally restricted to one parity.

    Keys are listed in increasing numeric order, which makes every
    coordinate-based computation in the package deterministic: the odd mask
    sits below the even one, so the even mask varies slowest.  The tuples
    are built once per signature.
    """
    return sig._keys_by_parity[parity]


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

class AlgebraMorphism:
    """A Q(i)-linear algebra homomorphism determined by generator images.

    Images must preserve parity and the square-zero relations.  Whether a
    morphism intertwines the conjugations is not checked; the constructors
    below say which of theirs do.

    A morphism is *monomial* when every generator image has at most one
    term; then every monomial goes to at most one monomial, and
    :meth:`apply` relabels keys and scales numerators instead of running
    the product kernel.  A monomial's coefficient is a product of distinct
    generator coefficients, so it is kept as numerators over the product
    of their denominators.  It *keeps keys* when every generator goes to
    the generator of the same key with coefficient 1; then :meth:`apply`
    only moves the numerators into the target algebra.
    """

    __slots__ = ("src", "tgt", "odd_images", "even_images", "monomial", "keeps_keys", "_generator_terms",
                 "_den", "_cache")

    def __init__(
        self,
        src: AlgebraSignature,
        tgt: AlgebraSignature,
        odd_images: Iterable[SuperNumber],
        even_images: Iterable[SuperNumber],
    ):
        self.src = src
        self.tgt = tgt
        self.odd_images = list(odd_images)
        self.even_images = list(even_images)
        if len(self.odd_images) != src.odd_total:
            raise MorphismError("wrong number of odd generator images")
        if len(self.even_images) != src.even_nilpotents:
            raise MorphismError("wrong number of even generator images")
        for img in self.odd_images:
            if img.sig != tgt or not img.is_odd():
                raise MorphismError("odd generator image must be an odd element of the target")
        for img in self.even_images:
            if img.sig != tgt or not img.is_even():
                raise MorphismError("even generator image must be an even element of the target")
            if not (img * img).is_zero():
                raise MorphismError("even generator image must square to zero")
        self._cache: Dict[int, object] = {}    # per key: _image_of_key or _term_of_key
        self.monomial = all(len(img) <= 1 for img in self.odd_images + self.even_images)
        self._generator_terms = tuple(
            [next(img.items(), ()) for img in images]
            for images in (self.odd_images, self.even_images)
        ) if self.monomial else None
        self._den = 1           # the denominator of every monomial coefficient
        for img in self.odd_images + self.even_images:
            self._den *= img.den
        self.keeps_keys = self.monomial and self._generator_terms == (
            [(make_key(1 << gid, 0), ONE) for gid in range(src.odd_total)],
            [(make_key(0, 1 << j), ONE) for j in range(src.even_nilpotents)],
        )

    def _factors(self, key: int) -> list:
        """The generator images whose product, in this order, is the image
        of the monomial ``key``: odd generators ascending, then even ones."""
        return ([self.odd_images[gid] for gid in bits(odd_mask_of(key))]
                + [self.even_images[j] for j in bits(even_mask_of(key))])

    def _image_of_key(self, key: int) -> SuperNumber:
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        img = one(self.tgt)
        for factor in self._factors(key):
            img = img * factor
        self._cache[key] = img
        return img

    def _term_of_key(self, key: int) -> tuple:
        """A monomial morphism's image of the monomial ``key`` by
        :func:`monomial_image`: its one term as ``(key', re, im)``, the
        coefficient's numerators over the morphism's denominator, or ``()``
        for zero."""
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        term = monomial_image(key, *self._generator_terms, ONE)
        if term:
            k, c = term
            term = (k, c.re * (self._den // c.den), c.im * (self._den // c.den))
        self._cache[key] = term
        return term

    def apply(self, x: SuperNumber) -> SuperNumber:
        if x.sig is not self.src and x.sig != self.src:
            raise ValueError("element does not belong to the morphism's source algebra")
        if self.keeps_keys:
            return _element(self.tgt, x.den, x._num)    # elements are immutable: the numerators are shared
        if not self.monomial:
            # sum over keys of image(key) (re + im i), over x.den times the
            # images' common denominator
            images = [(self._image_of_key(key), v) for key, v in x._num.items()]
            den = 1
            for img, _ in images:
                if den % img.den:
                    den = den // gcd(den, img.den) * img.den
            forms = [(1, x.den * img.den, img._num, {0: v}) for img, v in images]
            return _accumulate(self.tgt, ((x.den * den, forms),))[0]
        # each key goes to one term or to zero; distinct keys may meet
        out: Dict[int, tuple] = {}
        for key, (re, im) in x._num.items():
            term = self._term_of_key(key)
            if not term:
                continue
            k, cr, ci = term
            re, im = re * cr - im * ci, re * ci + im * cr
            cur = out.get(k)
            if cur is None:
                out[k] = (re, im)
            else:
                re, im = cur[0] + re, cur[1] + im
                if re or im:
                    out[k] = (re, im)
                else:
                    del out[k]
        return _normal(self.tgt, x.den * self._den, out)


def generators(sig: AlgebraSignature) -> Tuple[list, list]:
    """The odd generators by raw id and the even ones by index."""
    return ([odd_generator(sig, g) for g in range(sig.odd_total)],
            [epsilon(sig, j) for j in range(sig.even_nilpotents)])


def adjoin_dual(sig: AlgebraSignature):
    """Adjoin one even square-zero generator: ``A -> A(eps)``.

    Returns ``(ext, include, project, eps)`` where ``include: A -> A(eps)`` is
    the inclusion, ``project: A(eps) -> A`` kills the new generator, and ``eps``
    is the new generator, the last even one, as an element of the extension.
    Both morphisms intertwine the conjugations (the new generator is
    self-conjugate).
    """
    ext = sig.extended(1)
    odd_ext, even_ext = generators(ext)
    odd, even = generators(sig)
    include = AlgebraMorphism(sig, ext, odd_ext, even_ext[:-1])
    project = AlgebraMorphism(ext, sig, odd, even + [SuperNumber.zero(sig)])
    return ext, include, project, even_ext[-1]


_UNIT_TERMS = {0: (1, 0)}


def dual_scale(x: SuperNumber, a: SuperNumber) -> SuperNumber:
    """The image of ``x`` under the endomorphism of ``A(eps) = x.sig`` that
    fixes every generator except ``eps -> a eps``, for ``a`` even, in closed
    form: ``x = u + v eps`` goes to ``u + a (v eps)``, one kernel call on the
    pairs ``(u, 1)`` and ``(a, v eps)``, ``u`` and ``v eps`` being the terms of
    ``x`` without and with the bit of ``eps``, keys and numerators as
    stored.  A term of ``a`` that holds ``eps`` shares that bit with every
    term of ``v eps``, so it vanishes by the kernel's rule; the keys of
    ``a (v eps)`` hold ``eps`` and those of ``u`` do not, so no two terms
    meet."""
    bit = 1 << (_ODD_BITS + x.sig.even_nilpotents - 1)
    free: Dict[int, tuple] = {}
    held: Dict[int, tuple] = {}
    for key, v in x._num.items():
        (held if key & bit else free)[key] = v
    if not held:
        return x
    if a.sig is not x.sig:
        x._check_sig(a)
    d = a.den * x.den
    return _accumulate(x.sig, ((d, ((1, x.den, free, _UNIT_TERMS), (1, d, a._num, held))),))[0]


def identity_plus_multiple(rows: Sequence[Sequence[SuperNumber]], t: SuperNumber) -> list:
    """The rows of ``Id + t M`` for the square grid ``rows`` of ``M``, in one
    pass per entry, for ``t`` 1 or -1 times a monomial of even generators
    alone (``eps``, ``-eps``, ``e h``); any other ``t`` raises
    ``ValueError``.  Such a monomial is central and passes no odd generator,
    so each key of ``M_ij`` gains its bits with no sign, a key that already
    holds one of them vanishes, and the numerators are kept or negated;
    dropping terms can leave a common factor, which is reduced.  The
    diagonal then gains the unit, at key 0, which no key of ``t M`` is."""
    num = t._num
    key, (cr, ci) = next(iter(num.items()), (0, (0, 0)))
    if t.den != 1 or len(num) != 1 or ci or cr not in (1, -1) or not key or key & 0xFF:
        raise ValueError("a kernel point needs its multiplier to be 1 or -1 times a monomial of even generators")
    sig = t.sig
    out = []
    for i, row in enumerate(rows):
        out_row = []
        for j, x in enumerate(row):
            if x.sig is not sig:
                x._check_sig(t)
            src, den = x._num, x.den
            if cr > 0:
                terms = {k | key: v for k, v in src.items() if not k & key}
            else:
                terms = {k | key: (-v[0], -v[1]) for k, v in src.items() if not k & key}
            if len(terms) != len(src):
                y = _normal(sig, den, terms)
                den, terms = y.den, y._num
            if i == j:
                terms[0] = (den, 0)
            out_row.append(_element(sig, den, terms))
        out.append(out_row)
    return out


def kill_pair_projection(sig: AlgebraSignature, pair: int) -> AlgebraMorphism:
    """Project onto the algebra with one fewer odd pair (the last-index pair
    re-labelled), sending both members of the given pair to zero.

    The target keeps all other generators, the later ones two ids down; the
    map intertwines conjugation because conjugation permutes each pair
    separately.
    """
    if not 0 <= pair < sig.odd_pairs:
        raise IndexError("pair index out of range")
    tgt = AlgebraSignature(sig.odd_pairs - 1, sig.odd_selfreal, sig.even_nilpotents, sig.conjugation)
    odd, even = generators(tgt)
    return AlgebraMorphism(sig, tgt, odd[:2 * pair] + [SuperNumber.zero(tgt)] * 2 + odd[2 * pair:], even)


def include_pairs(src: AlgebraSignature, tgt: AlgebraSignature) -> AlgebraMorphism:
    """Inclusion of a smaller signature into a larger one (same conjugation),
    matching pairs, self-real generators and even generators by index."""
    if (src.conjugation != tgt.conjugation or src.odd_pairs > tgt.odd_pairs
            or src.odd_selfreal > tgt.odd_selfreal or src.even_nilpotents > tgt.even_nilpotents):
        raise MorphismError("source signature does not embed in target")
    odd, even = generators(tgt)
    selfreal = 2 * tgt.odd_pairs
    return AlgebraMorphism(src, tgt, odd[:2 * src.odd_pairs] + odd[selfreal:selfreal + src.odd_selfreal],
                           even[:src.even_nilpotents])

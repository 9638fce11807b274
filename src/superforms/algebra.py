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
odd masks and are cached globally, since they do not depend on the signature.
Conjugation permutes the generators up to sign, so it maps each monomial to
one monomial: a signature's *conjugation table*, built once on first use, is
a list indexed by the odd mask that holds the image mask and its sign.  The
signature also keeps its tuples of basis keys, whole and by parity.

Every product goes through one fused, exact multiply-accumulate kernel,
:func:`sum_of_products`: ``sum a_k b_k`` over pairs of elements (a
``GaussianRational`` factor is a constant term).  Each factor is read once as
Gaussian-integer numerators over its common denominator, kept on the element;
the products are summed as plain ints per output monomial, and one normalised
coefficient is built per nonzero output monomial at the end.
``SuperNumber.__mul__`` is the kernel on one pair (a product by a constant is
a per-term scaling), and ``linalg.mat_mul`` hands it the nonzero factor pairs
of each cell of a grid product.

An :class:`AlgebraMorphism` is *monomial* when every generator image has at
most one term, as for the pair projections and inclusions, the dual-number
inclusion and projection, and scaling the dual generator by a constant.  It
then sends each monomial to at most one monomial, and applying it relabels
keys and scales coefficients, summing keys that meet and dropping zeros,
without the kernel.  Other morphisms sum the images of their monomials with
:func:`sum_of_products`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class AlgebraSignature:
    """Shape of a coefficient algebra: generator counts plus conjugation kind."""

    odd_pairs: int = 0
    odd_selfreal: int = 0
    even_nilpotents: int = 0
    conjugation: str = STANDARD

    def __post_init__(self):
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
        sign)`` of the odd monomial ``omask``; built once per signature."""
        return [_conj_mask(self, omask) for omask in range(1 << self.odd_total)]

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


_KEY_BITS = _ODD_BITS + MAX_EVEN_NILPOTENT     # bits of a monomial key

_MUL_CACHE: Dict[int, int] = {}
"""Sign of each nonzero monomial product, keyed by ``k1 << _KEY_BITS | k2``."""


def mono_mul(k1: int, k2: int) -> Optional[Tuple[int, int]]:
    """Product of two monomial keys: ``None`` if zero, else ``(key, sign)``.

    The product vanishes exactly when the keys share a generator; otherwise
    its key is ``k1 | k2`` and its sign is the parity of merging the two
    ascending odd-generator lists, i.e. the number of pairs (i in k1, j in k2)
    with i > j.
    """
    if k1 & k2:
        return None
    pair = k1 << _KEY_BITS | k2
    sign = _MUL_CACHE.get(pair)
    if sign is None:
        o1 = k1 & 0xFF
        inversions = 0
        rest = k2 & 0xFF
        while rest:
            low = rest & -rest
            # bits of o1 strictly above this bit of o2
            inversions += (o1 & ~(low | (low - 1))).bit_count()
            rest ^= low
        sign = _MUL_CACHE[pair] = -1 if (inversions & 1) else 1
    return k1 | k2, sign


def _sort_sign(ids: list) -> int:
    """Parity sign for sorting a list of distinct odd-generator ids ascending."""
    inversions = 0
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            if ids[a] > ids[b]:
                inversions += 1
    return -1 if (inversions & 1) else 1


def _conj_mask(sig: AlgebraSignature, omask: int) -> Tuple[int, int]:
    """Image (odd mask, sign) of an odd monomial mask under conjugation."""
    pair_ids = 2 * sig.odd_pairs
    mapped = []
    sign = 1
    rest = omask
    while rest:
        low = rest & -rest
        gid = low.bit_length() - 1
        rest ^= low
        if gid >= pair_ids:           # self-real: fixed (standard conjugation only)
            mapped.append(gid)
        elif sig.conjugation == STANDARD:
            mapped.append(gid ^ 1)    # swap t_k <-> t_k~
        else:                         # graded: t -> t~, t~ -> -t
            if gid & 1:
                mapped.append(gid - 1)
                sign = -sign
            else:
                mapped.append(gid + 1)
    sign *= _sort_sign(mapped)
    out_mask = 0
    for gid in mapped:
        out_mask |= 1 << gid
    return out_mask, sign


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class SuperNumber:
    """An element of a coefficient algebra: monomial-key -> Q(i) coefficient.

    Instances are treated as immutable; the term dict never contains zero
    coefficients.  Construct with the module helpers (``scalar``, ``theta``,
    ``epsilon``, ...) or :meth:`from_terms`.
    """

    __slots__ = ("sig", "_terms", "_form")

    def __init__(self, sig: AlgebraSignature, terms: Dict[int, GaussianRational]):
        self.sig = sig
        self._terms = terms
        self._form = None       # numerator form, filled in by the product kernel

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_terms(sig: AlgebraSignature, terms: Dict[int, GaussianRational]) -> "SuperNumber":
        return SuperNumber(sig, {k: c for k, c in terms.items() if not c.is_zero()})

    @staticmethod
    def zero(sig: AlgebraSignature) -> "SuperNumber":
        return SuperNumber(sig, {})

    # -- inspection -----------------------------------------------------------

    def items(self) -> Iterator[Tuple[int, GaussianRational]]:
        return iter(self._terms.items())

    def coefficient(self, key: int) -> GaussianRational:
        return self._terms.get(key, ZERO)

    def body(self) -> GaussianRational:
        """The constant (degree-zero) coefficient."""
        return self._terms.get(0, ZERO)

    def soul(self) -> "SuperNumber":
        """The nilpotent part: everything except the constant term."""
        return SuperNumber(self.sig, {k: c for k, c in self._terms.items() if k != 0})

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(k == 0 for k in self._terms)

    def is_even(self) -> bool:
        return all(key_parity(k) == EVEN for k in self._terms)

    def is_odd(self) -> bool:
        return all(key_parity(k) == ODD for k in self._terms)

    def parity(self) -> Optional[int]:
        """EVEN, ODD, or ``None`` for mixed.  The zero element counts as even."""
        if not self._terms:
            return EVEN
        parities = {key_parity(k) for k in self._terms}
        if len(parities) > 1:
            return None
        return parities.pop()

    def parity_part(self, parity: int) -> "SuperNumber":
        return SuperNumber(self.sig, {k: c for k, c in self._terms.items() if key_parity(k) == parity})

    def is_invertible(self) -> bool:
        return not self.body().is_zero()

    def __len__(self) -> int:
        return len(self._terms)

    # -- arithmetic ------------------------------------------------------------

    def _check_sig(self, other: "SuperNumber"):
        if self.sig != other.sig:
            raise ValueError("mixing elements of different coefficient algebras")

    def __add__(self, other: "SuperNumber") -> "SuperNumber":
        if self.sig is not other.sig:
            self._check_sig(other)
        out = dict(self._terms)
        for k, c in other._terms.items():
            cur = out.get(k)
            s = c if cur is None else cur + c
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return SuperNumber(self.sig, out)

    def __sub__(self, other: "SuperNumber") -> "SuperNumber":
        if self.sig is not other.sig:
            self._check_sig(other)
        out = dict(self._terms)
        for k, c in other._terms.items():
            cur = out.get(k)
            s = -c if cur is None else cur - c
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return SuperNumber(self.sig, out)

    def __neg__(self) -> "SuperNumber":
        return SuperNumber(self.sig, {k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (SuperNumber, GaussianRational)):
            return _product(self.sig, self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, GaussianRational):
            return _product(self.sig, other, self)
        return NotImplemented

    def sum_of_products(self, pairs) -> "SuperNumber":
        """``sum a_k b_k`` over ``pairs`` in this element's algebra (see the
        module function); any element, its zero say, stands for the ring."""
        return sum_of_products(self.sig, pairs)

    def scaled(self, c: GaussianRational) -> "SuperNumber":
        """``c x`` for a constant ``c``: one coefficient product per term, and
        none at all for 0 and the units 1, -1, i and -i."""
        if c.den != 1 or abs(c.re) + abs(c.im) > 1:
            return SuperNumber(self.sig, {k: v * c for k, v in self._terms.items()})
        if c.im:
            # (re + im i) (s i) = -s im + s re i keeps the normal form
            s = c.im
            return SuperNumber(self.sig, {
                k: GaussianRational(-s * v.im, s * v.re, v.den, True) for k, v in self._terms.items()
            })
        if c.re == 1:
            return self
        return -self if c.re else SuperNumber(self.sig, {})

    def conjugate(self) -> "SuperNumber":
        # conjugation permutes the generators, so distinct monomials have
        # distinct images and no two terms meet
        table = self.sig.conjugation_table
        out: Dict[int, GaussianRational] = {}
        for k, c in self._terms.items():
            omask, sign = table[k & 0xFF]
            out[omask | (k & ~0xFF)] = (
                GaussianRational(c.re, -c.im, c.den, True) if sign > 0
                else GaussianRational(-c.re, c.im, c.den, True)
            )
        return SuperNumber(self.sig, out)

    def inverse(self) -> "SuperNumber":
        """Exact inverse via the geometric series of the nilpotent part."""
        b = self.body()
        if b.is_zero():
            raise NotInvertible("element has zero body")
        binv = b.inverse()
        # self = b (1 + n) with n nilpotent; inverse = b^-1 sum (-n)^k
        minus_n = self.soul().scaled(-binv)
        acc = scalar(self.sig, ONE)
        power = acc
        while True:
            power = power * minus_n
            if power.is_zero():
                break
            acc = acc + power
        return acc.scaled(binv)

    # -- comparison / display ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SuperNumber):
            return NotImplemented
        return self.sig == other.sig and self._terms == other._terms

    def __hash__(self):
        return hash((self.sig, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        from .literals import format_number
        return f"<{format_number(self)}>"


# ---------------------------------------------------------------------------
# the fused multiply-accumulate kernel
# ---------------------------------------------------------------------------

_ZERO_FORM = (1, ())
_UNIT_FORM = (1, ((0, 1, 0),))
_MINUS_UNIT_FORM = (1, ((0, -1, 0),))


def _numerators(x, sig: AlgebraSignature) -> Tuple[int, tuple]:
    """``x`` as ``(den, ((key, re, im), ...))``: Gaussian-integer numerators
    over the least common denominator of its coefficients, zeros left out.
    A ``GaussianRational`` is a constant term at key 0, and zero gets
    ``_ZERO_FORM``.  An element is immutable, so its form is computed once
    and kept on it; the elements 0, 1 and -1 get ``_ZERO_FORM``,
    ``_UNIT_FORM`` and ``_MINUS_UNIT_FORM``."""
    if type(x) is GaussianRational:
        return (x.den, ((0, x.re, x.im),)) if x.re or x.im else _ZERO_FORM
    if x.sig is not sig and x.sig != sig:
        raise ValueError("mixing elements of different coefficient algebras")
    form = x._form
    if form is not None:
        return form
    terms = x._terms
    if len(terms) == 1:
        (key, c), = terms.items()
        form = (c.den, ((key, c.re, c.im),))
        if form == _UNIT_FORM:
            form = _UNIT_FORM
        elif form == _MINUS_UNIT_FORM:
            form = _MINUS_UNIT_FORM
    elif terms:
        den = 1
        for c in terms.values():
            if den % c.den:
                den = den // gcd(den, c.den) * c.den
        form = (den, tuple([(k, c.re * (den // c.den), c.im * (den // c.den)) for k, c in terms.items()]))
    else:
        form = _ZERO_FORM
    x._form = form
    return form


def _accumulate(sig: AlgebraSignature, products: Iterable[tuple], den: int) -> SuperNumber:
    """The sum of the products of the numerator tuples ``(ta, tb)``, all
    over the common denominator ``den``, summed as ints per output monomial."""
    signs = _MUL_CACHE
    acc: Dict[int, list] = {}
    for ta, tb in products:
        for k1, r1, i1 in ta:
            high = k1 << _KEY_BITS
            for k2, r2, i2 in tb:
                if k1 & k2:
                    continue
                key = k1 | k2
                cell = acc.get(key)
                if (signs.get(high | k2) or mono_mul(k1, k2)[1]) > 0:
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
    normalized = den == 1       # then no gcd can reduce a coefficient
    return SuperNumber(sig, {
        key: GaussianRational(re, im, den, normalized) for key, (re, im) in acc.items() if re or im
    })


def _product(sig: AlgebraSignature, a, b) -> SuperNumber:
    """The kernel on one pair.  A product by a constant is a scaling, and a
    product by 1 or -1 is the other factor or its negative."""
    if type(a) is GaussianRational:
        a, b = b, a                     # constants commute
    if type(b) is GaussianRational:
        if type(a) is GaussianRational:
            return scalar(sig, a * b)
        if a.sig is not sig and a.sig != sig:
            raise ValueError("mixing elements of different coefficient algebras")
        return a.scaled(b)
    fa, fb = _numerators(a, sig), _numerators(b, sig)
    if fa is _ZERO_FORM or fb is _ZERO_FORM:
        return SuperNumber(sig, {})
    if fa is _UNIT_FORM or fa is _MINUS_UNIT_FORM:
        return b if fa is _UNIT_FORM else -b
    if fb is _UNIT_FORM or fb is _MINUS_UNIT_FORM:
        return a if fb is _UNIT_FORM else -a
    (da, ta), (db, tb) = fa, fb
    return _accumulate(sig, ((ta, tb),), da * db)


def sum_of_products(sig: AlgebraSignature, pairs: Sequence[tuple]) -> SuperNumber:
    """``sum a_k b_k`` over ``pairs`` of elements of ``sig``'s algebra, exactly.

    Each factor may also be a ``GaussianRational`` (a constant).  Every
    factor is read as Gaussian-integer numerators over its own common
    denominator; the products are scaled to one common denominator and summed
    as plain ints per output monomial, and one normalised coefficient is
    built per nonzero output monomial at the end.  Two monomials multiply to
    zero when they share a generator; otherwise the product's key is their
    union and its sign comes from ``_MUL_CACHE``, filled by :func:`mono_mul`.
    """
    if len(pairs) == 1:
        return _product(sig, *pairs[0])
    forms = []
    den = 1
    for a, b in pairs:
        (da, ta), (db, tb) = _numerators(a, sig), _numerators(b, sig)
        if ta and tb:
            d = da * db
            if den % d:
                den = den // gcd(den, d) * d
            forms.append((d, ta, tb))
    return _accumulate(sig, [
        (ta if d == den else [(k, re * (den // d), im * (den // d)) for k, re, im in ta], tb)
        for d, ta, tb in forms
    ], den)


# ---------------------------------------------------------------------------
# generator accessors
# ---------------------------------------------------------------------------

def scalar(sig: AlgebraSignature, value: GaussianRational) -> SuperNumber:
    if value.is_zero():
        return SuperNumber(sig, {})
    return SuperNumber(sig, {0: value})


def one(sig: AlgebraSignature) -> SuperNumber:
    return scalar(sig, ONE)


def theta(sig: AlgebraSignature, pair: int) -> SuperNumber:
    """The first member ``t_{pair+1}`` of an odd conjugate pair (0-indexed)."""
    if not 0 <= pair < sig.odd_pairs:
        raise IndexError("pair index out of range")
    return SuperNumber(sig, {make_key(1 << (2 * pair), 0): ONE})


def theta_bar(sig: AlgebraSignature, pair: int) -> SuperNumber:
    """The second member ``t_{pair+1}~`` of an odd conjugate pair (0-indexed)."""
    if not 0 <= pair < sig.odd_pairs:
        raise IndexError("pair index out of range")
    return SuperNumber(sig, {make_key(1 << (2 * pair + 1), 0): ONE})


def theta_selfreal(sig: AlgebraSignature, index: int) -> SuperNumber:
    """The ``index``-th self-conjugate odd generator (0-indexed)."""
    if not 0 <= index < sig.odd_selfreal:
        raise IndexError("self-real index out of range")
    return SuperNumber(sig, {make_key(1 << (2 * sig.odd_pairs + index), 0): ONE})


def epsilon(sig: AlgebraSignature, index: int = 0) -> SuperNumber:
    """The ``index``-th even square-zero generator (0-indexed)."""
    if not 0 <= index < sig.even_nilpotents:
        raise IndexError("even nilpotent index out of range")
    return SuperNumber(sig, {make_key(0, 1 << index): ONE})


def odd_generator(sig: AlgebraSignature, gid: int) -> SuperNumber:
    """Odd generator by raw id (pairs first at ``2k``/``2k+1``, then self-real)."""
    if not 0 <= gid < sig.odd_total:
        raise IndexError("odd generator id out of range")
    return SuperNumber(sig, {make_key(1 << gid, 0): ONE})


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

def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class AlgebraMorphism:
    """A Q(i)-linear algebra homomorphism determined by generator images.

    Images must preserve parity and the square-zero relations; whether the
    morphism intertwines the conjugations is checked on generators (it then
    propagates to the whole algebra by multiplicativity and antilinearity of
    the conjugations).

    A morphism is *monomial* when every generator image has at most one
    term; then every monomial goes to at most one monomial, and
    :meth:`apply` relabels keys and scales coefficients instead of running
    the product kernel.
    """

    __slots__ = ("src", "tgt", "odd_images", "even_images", "respects_conjugation", "monomial",
                 "_cache")

    def __init__(
        self,
        src: AlgebraSignature,
        tgt: AlgebraSignature,
        odd_images: Iterable[SuperNumber],
        even_images: Iterable[SuperNumber],
        require_conjugation: bool = False,
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
        self.respects_conjugation = self._conjugation_ok()
        if require_conjugation and not self.respects_conjugation:
            raise MorphismError("generator images do not intertwine the conjugations")

    def _conjugation_ok(self) -> bool:
        if self.src.conjugation != self.tgt.conjugation:
            return False
        for gid in range(self.src.odd_total):
            g = odd_generator(self.src, gid)
            if self.apply(g.conjugate()) != self.apply(g).conjugate():
                return False
        for j in range(self.src.even_nilpotents):
            e = epsilon(self.src, j)
            if self.apply(e.conjugate()) != self.apply(e).conjugate():
                return False
        return True

    def _factors(self, key: int) -> list:
        """The generator images whose product, in this order, is the image
        of the monomial ``key``: odd generators ascending, then even ones."""
        return ([self.odd_images[gid] for gid in _bits(odd_mask_of(key))]
                + [self.even_images[j] for j in _bits(even_mask_of(key))])

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
        """A monomial morphism's image of the monomial ``key``: its one term
        ``(key', coefficient)``, with a coefficient of 1 as ``ONE`` itself,
        or ``()`` for zero.  The single terms multiply without the kernel."""
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        out_key, coef = 0, ONE
        for factor in self._factors(key):
            if not factor._terms:
                term = ()
                break
            (k, c), = factor._terms.items()
            merged = mono_mul(out_key, k)
            if merged is None:
                term = ()
                break
            out_key, sign = merged
            coef = coef * c if sign > 0 else -(coef * c)
        else:
            term = (out_key, ONE if coef == ONE else coef)
        self._cache[key] = term
        return term

    def apply(self, x: SuperNumber) -> SuperNumber:
        if x.sig is not self.src and x.sig != self.src:
            raise ValueError("element does not belong to the morphism's source algebra")
        if not self.monomial:
            return sum_of_products(self.tgt, [(self._image_of_key(key), c) for key, c in x.items()])
        # each key goes to one term or to zero; distinct keys may meet
        out: Dict[int, GaussianRational] = {}
        for key, c in x._terms.items():
            term = self._term_of_key(key)
            if not term:
                continue
            k, coef = term
            v = c if coef is ONE else c * coef
            cur = out.get(k)
            if cur is None:
                out[k] = v
            else:
                v = cur + v
                if v.is_zero():
                    del out[k]
                else:
                    out[k] = v
        return SuperNumber(self.tgt, out)


def identity_morphism(sig: AlgebraSignature) -> AlgebraMorphism:
    return AlgebraMorphism(
        sig, sig,
        [odd_generator(sig, g) for g in range(sig.odd_total)],
        [epsilon(sig, j) for j in range(sig.even_nilpotents)],
    )


def adjoin_dual(sig: AlgebraSignature):
    """Adjoin one even square-zero generator: ``A -> A(eps)``.

    Returns ``(ext, include, project, eps)`` where ``include: A -> A(eps)`` is
    the inclusion, ``project: A(eps) -> A`` kills the new generator, and ``eps``
    is the new generator as an element of the extension.  Both morphisms
    intertwine the conjugations (the new generator is self-conjugate).
    """
    ext = sig.extended(1)
    new_index = sig.even_nilpotents
    include = AlgebraMorphism(
        sig, ext,
        [odd_generator(ext, g) for g in range(sig.odd_total)],
        [epsilon(ext, j) for j in range(sig.even_nilpotents)],
    )
    project = AlgebraMorphism(
        ext, sig,
        [odd_generator(sig, g) for g in range(sig.odd_total)],
        [epsilon(sig, j) for j in range(sig.even_nilpotents)] + [SuperNumber.zero(sig)],
    )
    return ext, include, project, epsilon(ext, new_index)


def dual_scale_morphism(sig: AlgebraSignature, a: SuperNumber, eps_index: Optional[int] = None) -> AlgebraMorphism:
    """The endomorphism of ``A(eps)`` fixing every generator except ``eps -> a*eps``.

    ``sig`` is the extended signature; ``a`` may live in it (its coefficient on
    monomials involving the scaled generator must vanish) and must be even.
    The morphism intertwines conjugation exactly when ``conj(a) == a``.
    """
    if eps_index is None:
        eps_index = sig.even_nilpotents - 1
    if a.sig != sig:
        raise ValueError("scaling element must live in the extended algebra")
    if not a.is_even():
        raise MorphismError("scaling element must be even")
    eps = epsilon(sig, eps_index)
    even_images = [
        a * eps if j == eps_index else epsilon(sig, j)
        for j in range(sig.even_nilpotents)
    ]
    return AlgebraMorphism(
        sig, sig,
        [odd_generator(sig, g) for g in range(sig.odd_total)],
        even_images,
    )


def kill_pair_projection(sig: AlgebraSignature, pair: int) -> AlgebraMorphism:
    """Project onto the algebra with one fewer odd pair (the last-index pair
    re-labelled), sending both members of the given pair to zero.

    The target keeps all other generators; the map intertwines conjugation
    because conjugation permutes each pair separately.
    """
    if not 0 <= pair < sig.odd_pairs:
        raise IndexError("pair index out of range")
    tgt = AlgebraSignature(sig.odd_pairs - 1, sig.odd_selfreal, sig.even_nilpotents, sig.conjugation)
    odd_images = []
    for gid in range(sig.odd_total):
        k, member = divmod(gid, 2)
        if gid >= 2 * sig.odd_pairs:  # self-real block shifts down one pair
            odd_images.append(odd_generator(tgt, gid - 2))
        elif k == pair:
            odd_images.append(SuperNumber.zero(tgt))
        elif k > pair:
            odd_images.append(odd_generator(tgt, 2 * (k - 1) + member))
        else:
            odd_images.append(odd_generator(tgt, gid))
    return AlgebraMorphism(
        sig, tgt, odd_images,
        [epsilon(tgt, j) for j in range(sig.even_nilpotents)],
    )


def include_pairs(src: AlgebraSignature, tgt: AlgebraSignature) -> AlgebraMorphism:
    """Inclusion of a smaller signature into a larger one (same conjugation),
    matching pairs, self-real generators and even generators by index."""
    if (src.conjugation != tgt.conjugation or src.odd_pairs > tgt.odd_pairs
            or src.odd_selfreal > tgt.odd_selfreal or src.even_nilpotents > tgt.even_nilpotents):
        raise MorphismError("source signature does not embed in target")
    odd_images = []
    for gid in range(src.odd_total):
        if gid < 2 * src.odd_pairs:
            odd_images.append(odd_generator(tgt, gid))
        else:
            odd_images.append(odd_generator(tgt, 2 * tgt.odd_pairs + (gid - 2 * src.odd_pairs)))
    return AlgebraMorphism(
        src, tgt, odd_images,
        [epsilon(tgt, j) for j in range(src.even_nilpotents)],
    )

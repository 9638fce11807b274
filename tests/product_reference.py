"""Reference products kept as test oracles for the fused product kernel.

These are the per-term routines the package used before it summed products
as integer numerators (``algebra.sum_of_products``) and stored elements as
numerators over one denominator:

* the element arithmetic on ``{key: GaussianRational}`` terms
  (:class:`PerTerm`): sums, differences, negatives, products, sums of
  products with minus pairs, scalings, conjugated copies, inverses, the
  dual split and scaling, and morphism images as sums of products of
  generator images, one coefficient operation per term;
* the Grassmann product as one ``GaussianRational`` product, sign and sum
  per pair of terms, with the reordering sign found by counting the
  inversions of the two odd-generator lists;
* the grid product as the triple loop that adds one ``a[i][k] * b[k][j]``
  at a time;
* the conjugation of an odd monomial as the list of its generators' images,
  with the sign of sorting that list, from before the conjugation table was
  built by the monomial rule (``algebra.monomial_image``);
* the inverses of an element and of a supermatrix as the geometric series
  started at the identity and stopped at the first computed power that is
  zero, the Cayley sample as the product ``(Id - X)(Id + X)^-1``, and the
  scaling of a supermatrix by an element as one kernel call per entry,
  from before the series skipped products known to vanish, the sample took
  ``2 D - Id`` and the scaling became one batch;
* the ``SL`` sample as the product of its factor matrices, from before each
  factor became the column operation it stands for;
* the algebra-level evaluations from before each output cell was built in
  one pass: the commutator as two grid products and a difference, the
  combination ``a x + b y`` as two scaled matrices and a sum, a positional
  map's cell as ``k`` conjugated copies of each entry followed by a scaling,
  the tensor-form bracket as a negate, scale and add per term over every
  pair of coefficients, and the dual scaling applied through its generator
  images (``eps -> a eps``), with no closed form;
* the one-pass short cuts of the group layer as they were before it: a
  kernel point ``Id + t M`` as a scaling by ``t`` and a sum with the unit on
  the diagonal (``scale_plus_unit``), the dual scaling as two
  ``split_dual`` normalisations, a product, a relabelling and a merge
  (``split_dual_scale``), and a positional map applied by its general cell
  loop, which lists the terms of every cell (``loop_positional_apply``).
  These must match the package's storage exactly: denominator, numerators
  and key order.

``respects_conjugation`` checks on generators whether a morphism intertwines
the conjugations (it then does on the whole algebra, by multiplicativity and
antilinearity); the package itself never asks.

``parity_part`` gives the homogeneous parts that the supercommutativity and
graded conjugation laws are stated on.

The tests require the package to agree with them exactly.
"""

from math import gcd

from group_reference import split_dual
from superforms import linalg
from superforms.algebra import (
    STANDARD, AlgebraMorphism, SuperNumber, even_mask_of, generators, key_parity, make_key,
    odd_mask_of, one, sum_of_products,
)
from superforms.liealg import TensorElement, basis_of, vector_bracket
from superforms.matrices import NotInvertibleMatrix, SuperMatrix, identity_matrix
from superforms.sampling import random_even, random_invertible_even, random_odd, random_point
from superforms.scalars import ONE, GaussianRational


def parity_part(x: SuperNumber, parity: int) -> SuperNumber:
    """The terms of ``x`` of one parity."""
    return SuperNumber(x.sig, {k: c for k, c in x.items() if key_parity(k) == parity})


def _odd_ids(key: int) -> list:
    mask = odd_mask_of(key)
    return [gid for gid in range(8) if mask >> gid & 1]


def sort_sign(ids: list) -> int:
    """Sign of the permutation that sorts distinct ids ascending."""
    inversions = sum(1 for a in range(len(ids)) for b in range(a + 1, len(ids)) if ids[a] > ids[b])
    return -1 if inversions % 2 else 1


class PerTerm:
    """An algebra element as its ``{key: GaussianRational}`` terms, zeros
    left out, with one coefficient operation per term.  ``PerTerm.of(x)``
    reads a ``SuperNumber`` through ``items``; a test compares
    ``dict(result.items())`` with the oracle's ``terms``."""

    def __init__(self, sig, terms):
        self.sig = sig
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    @staticmethod
    def of(x) -> "PerTerm":
        return x if isinstance(x, PerTerm) else PerTerm(x.sig, dict(x.items()))

    def _merge(self, other, sign: int) -> "PerTerm":
        if self.sig != other.sig:
            raise ValueError("mixing elements of different coefficient algebras")
        out = dict(self.terms)
        for k, c in other.terms.items():
            c = c if sign > 0 else -c
            s = c if k not in out else out[k] + c
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return PerTerm(self.sig, out)

    def __add__(self, other: "PerTerm") -> "PerTerm":
        return self._merge(other, 1)

    def __sub__(self, other: "PerTerm") -> "PerTerm":
        return self._merge(other, -1)

    def __neg__(self) -> "PerTerm":
        return PerTerm(self.sig, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other) -> "PerTerm":
        """``x y`` term by term: monomials sharing a generator vanish, the
        rest merge with the sign of sorting the concatenated odd generators;
        a ``GaussianRational`` scales."""
        if isinstance(other, GaussianRational):
            return self.scaled(other)
        if self.sig != other.sig:
            raise ValueError("mixing elements of different coefficient algebras")
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                if odd_mask_of(k1) & odd_mask_of(k2) or even_mask_of(k1) & even_mask_of(k2):
                    continue
                c = c1 * c2
                if sort_sign(_odd_ids(k1) + _odd_ids(k2)) < 0:
                    c = -c
                key = k1 | k2
                s = c if key not in out else out[key] + c
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        return PerTerm(self.sig, out)

    def scaled(self, c: GaussianRational) -> "PerTerm":
        return PerTerm(self.sig, {k: v * c for k, v in self.terms.items()})

    def conjugated(self, times: int, c: GaussianRational) -> "PerTerm":
        """``c conj^times(x)``: ``times`` conjugated copies, each odd mask
        mapped by :func:`reference_conj_mask`, then a scaling."""
        x = self
        for _ in range(times):
            out = {}
            for k, v in x.terms.items():
                omask, sign = reference_conj_mask(x.sig, odd_mask_of(k))
                out[make_key(omask, even_mask_of(k))] = v.conjugate() if sign > 0 else -v.conjugate()
            x = PerTerm(x.sig, out)
        return x.scaled(c)

    def body(self) -> GaussianRational:
        return self.terms.get(0, GaussianRational())

    def soul(self) -> "PerTerm":
        return PerTerm(self.sig, {k: c for k, c in self.terms.items() if k != 0})

    def inverse(self) -> "PerTerm":
        """``b^-1 sum (-n)^k`` for ``x = b (1 + n)``, the powers multiplied
        from 1 on until one comes out zero."""
        binv = self.body().inverse()
        minus_n = self.soul().scaled(-binv)
        acc = power = PerTerm(self.sig, {0: ONE})
        while True:
            power = power * minus_n
            if not power.terms:
                return acc.scaled(binv)
            acc = acc + power


def per_term_sum_of_products(sig, pairs, minus=()) -> PerTerm:
    """``sum a_k b_k - sum c_k d_k`` one product and one sum at a time; a
    ``GaussianRational`` factor is a constant term."""
    def lift(z):
        return PerTerm(sig, {0: z}) if isinstance(z, GaussianRational) else PerTerm.of(z)

    acc = PerTerm(sig, {})
    for sign, group in ((1, pairs), (-1, minus)):
        for a, b in group:
            acc = acc._merge(lift(a) * lift(b), sign)
    return acc


def per_term_apply(morphism: AlgebraMorphism, x) -> PerTerm:
    """A morphism's image of ``x``: each monomial's image is the product of
    its generators' images in order, odd ones ascending then even ones,
    summed against the coefficients."""
    odd = [PerTerm.of(img) for img in morphism.odd_images]
    even = [PerTerm.of(img) for img in morphism.even_images]
    acc = PerTerm(morphism.tgt, {})
    for key, c in PerTerm.of(x).terms.items():
        image = PerTerm(morphism.tgt, {0: ONE})
        for gid in _odd_ids(key):
            image = image * odd[gid]
        for j in range(4):
            if even_mask_of(key) >> j & 1:
                image = image * even[j]
        acc = acc + image.scaled(c)
    return acc


def per_term_split_dual(x, base) -> tuple:
    """``x = a + b eps`` as ``(a, b)``, ``eps`` the last even generator."""
    bit = make_key(0, 1 << (x.sig.even_nilpotents - 1))
    terms = PerTerm.of(x).terms
    return (PerTerm(base, {k: c for k, c in terms.items() if not k & bit}),
            PerTerm(base, {k ^ bit: c for k, c in terms.items() if k & bit}))


def per_term_dual_scale(x, a) -> PerTerm:
    """``u + v eps -> u + (a v) eps`` with per-term products."""
    u, v = per_term_split_dual(x, x.sig)
    eps = PerTerm(x.sig, {make_key(0, 1 << (x.sig.even_nilpotents - 1)): ONE})
    return u + PerTerm.of(a) * v * eps


def reference_mul(x: SuperNumber, y: SuperNumber) -> SuperNumber:
    """``x y`` term by term (:class:`PerTerm`)."""
    return SuperNumber(x.sig, (PerTerm.of(x) * PerTerm.of(y)).terms)


def reference_scaled(x: SuperNumber, c: GaussianRational) -> SuperNumber:
    """``c x``: one ``GaussianRational`` product per term."""
    return SuperNumber(x.sig, PerTerm.of(x).scaled(c).terms)


def reference_product(a, b):
    """One product of two ring entries: algebra elements or constants."""
    a_const, b_const = isinstance(a, GaussianRational), isinstance(b, GaussianRational)
    if a_const and b_const:
        return a * b
    if a_const:
        return reference_scaled(b, a)
    if b_const:
        return reference_scaled(a, b)
    return reference_mul(a, b)


def reference_mat_mul(a, b, zero):
    """The triple loop ``out[i][j] += a[i][k] * b[k][j]`` over nonzero factors."""
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[zero] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if aik.is_zero():
                continue
            for j in range(cols):
                bkj = b[k][j]
                if not bkj.is_zero():
                    out[i][j] = out[i][j] + reference_product(aik, bkj)
    return out


def reference_conj_mask(sig, omask: int):
    """Image ``(odd mask, sign)`` of the odd monomial ``omask`` under
    conjugation: standard swaps ``t_k <-> t_k~``, graded sends ``t_k -> t_k~``
    and ``t_k~ -> -t_k``, self-real generators are fixed."""
    pair_ids = 2 * sig.odd_pairs
    mapped = []
    sign = 1
    for gid in [g for g in range(8) if omask >> g & 1]:
        if gid >= pair_ids:
            mapped.append(gid)
        elif sig.conjugation == STANDARD:
            mapped.append(gid ^ 1)
        elif gid & 1:
            mapped.append(gid - 1)
            sign = -sign
        else:
            mapped.append(gid + 1)
    return sum(1 << gid for gid in mapped), sign * sort_sign(mapped)


def respects_conjugation(morphism) -> bool:
    """Whether ``morphism`` intertwines the conjugations of its source and
    target, checked on the generators."""
    odd, even = generators(morphism.src)
    return morphism.src.conjugation == morphism.tgt.conjugation and all(
        morphism.apply(g.conjugate()) == morphism.apply(g).conjugate() for g in odd + even)


def reference_element_inverse(x: SuperNumber) -> SuperNumber:
    """``x^-1`` as ``b^-1 sum (-n)^k``, ``x = b (1 + n)``: the powers are
    multiplied from 1 on and summed until one comes out zero."""
    binv = x.body().inverse()
    minus_n = x.soul().scaled(-binv)
    acc = power = one(x.sig)
    while True:
        power = power * minus_n
        if power.is_zero():
            return acc.scaled(binv)
        acc = acc + power


def reference_series_inverse(x: SuperMatrix) -> SuperMatrix:
    """``x^-1`` as ``(I + T)^-1 M0^-1``, ``M0`` the body grid and ``T =
    M0^-1 (x - M0)``: the powers of ``-T`` are multiplied from the identity
    on and summed until one comes out zero."""
    sig, size = x.sig, x.size
    zero = SuperNumber.zero(sig)
    try:
        body_inv = linalg.invert(x.body_grid())
    except linalg.SingularMatrix:
        raise NotInvertibleMatrix("matrix body is singular")
    soul = [[e.soul() for e in row] for row in x.rows]
    minus_t = [[-e for e in row] for row in linalg.mat_mul(body_inv, soul, zero)]
    acc = [[one(sig) if i == j else zero for j in range(size)] for i in range(size)]
    power = acc
    while True:
        power = linalg.mat_mul(power, minus_t, zero)
        if all(e.is_zero() for row in power for e in row):
            break
        acc = [[a + p for a, p in zip(ra, rp)] for ra, rp in zip(acc, power)]
    return SuperMatrix(x.m, x.n, sig, linalg.mat_mul(acc, body_inv, zero), check=False)


def reference_cayley(kind, sig, rng, max_tries: int = 25):
    """``(Id - X)(Id + X)^-1`` of the first random algebra point whose
    denominator is invertible, drawing as ``groups.sample_osp`` does; ``None``
    after ``max_tries`` draws."""
    ident = identity_matrix(kind.m, kind.n, sig)
    for _ in range(max_tries):
        x = random_point(kind, sig, rng)
        try:
            denominator = reference_series_inverse(ident + x)
        except NotInvertibleMatrix:
            continue
        return (ident - x) * denominator
    return None


def reference_scale(x: SuperMatrix, a: SuperNumber) -> SuperMatrix:
    """``a`` times every entry of ``x``, one kernel product per entry."""
    return SuperMatrix(x.m, x.n, x.sig, [[a * e for e in row] for row in x.rows], check=False)


def _edited_identity(m, n, sig, entries) -> SuperMatrix:
    rows = [list(r) for r in identity_matrix(m, n, sig).rows]
    for (i, j), value in entries:
        rows[i][j] = value
    return SuperMatrix(m, n, sig, rows, check=False)


def reference_sample_sl(kind, sig, rng, factors: int = 4):
    """The product of ``factors`` elementary and balanced diagonal factor
    matrices, drawn as ``groups.sample_sl`` draws them, each multiplied onto
    the product so far by a grid product; ``None`` where the sampler gives up."""
    m, n, size = kind.m, kind.n, kind.size
    acc = identity_matrix(m, n, sig)
    if size == 1:
        return acc
    made = draws = 0
    while made < factors:
        if draws == 64 * factors:
            return None
        draws += 1
        if rng.random() < 0.65:
            i, j = rng.randrange(size), rng.randrange(size)
            if i == j:
                continue
            c = random_odd(sig, rng) if (i < m) != (j < m) else random_even(sig, rng)
            if c.is_zero():
                continue
            factor = _edited_identity(m, n, sig, (((i, j), c),))
        else:
            u = random_invertible_even(sig, rng)
            u_inv = u.inverse()
            if m and n and rng.random() < 0.5:
                i, j = rng.randrange(m), m + rng.randrange(n)
                entries = (((i, i), u), ((j, j), u))
            else:
                block = 0 if (m > 1 or n <= 1) else 1
                span = m if block == 0 else n
                if span < 2:
                    continue
                i = rng.randrange(span)
                j = (i + 1 + rng.randrange(span - 1)) % span
                offset = 0 if block == 0 else m
                entries = (((offset + i, offset + i), u), ((offset + j, offset + j), u_inv))
            factor = _edited_identity(m, n, sig, entries)
        acc = acc * factor
        made += 1
    return acc


def reference_commutator(x: SuperMatrix, y: SuperMatrix) -> SuperMatrix:
    """``x y - y x`` as two grid products and an entrywise difference."""
    return x * y - y * x


def reference_linear_combination(a: SuperNumber, x: SuperMatrix, b: SuperNumber, y: SuperMatrix) -> SuperMatrix:
    """``a x + b y`` as two scaled matrices and an entrywise sum."""
    return x.scale(a) + y.scale(b)


def reference_conjugate(x: SuperNumber) -> SuperNumber:
    """``conj(x)`` term by term (:meth:`PerTerm.conjugated`)."""
    return reference_conjugated(x, 1, ONE)


def reference_conjugated(x: SuperNumber, times: int, c: GaussianRational) -> SuperNumber:
    """``c conj^times(x)``: ``times`` conjugated copies, then a scaling."""
    return SuperNumber(x.sig, PerTerm.of(x).conjugated(times, c).terms)


def reference_positional_apply(pmap, x: SuperMatrix) -> SuperMatrix:
    """A positional map cell by cell: the nonzero entries a cell reads,
    conjugated ``k`` times one copy at a time, then scaled and summed."""
    zero = SuperNumber.zero(x.sig)
    out = []
    for cell_row in pmap.cells:
        out_row = []
        for cell in cell_row:
            acc = zero
            for r, s, c in cell:
                if not x.rows[r][s].is_zero():
                    acc = acc + reference_conjugated(x.rows[r][s], pmap.conjugations, c)
            out_row.append(acc)
        out.append(out_row)
    return SuperMatrix(x.m, x.n, x.sig, out, check=False)


def reference_even_rules_bracket(t1: TensorElement, t2: TensorElement) -> TensorElement:
    """``[a (x) v, b (x) w] = (-1)^{|v||b|} ab (x) [v, w]`` summed over every
    pair of coefficients, one negate, scale and add per term."""
    kind, sig = t1.kind, t1.sig
    basis = basis_of(kind)
    out = {}
    for i, a in t1.coeffs.items():
        for j, b in t2.coeffs.items():
            ab = a * b
            if ab.is_zero():
                continue
            if basis[i].parity and basis[j].parity:
                ab = -ab
            for k, coeff in vector_bracket(kind, i, j):
                term = ab.scaled(coeff)
                out[k] = term if k not in out else out[k] + term
    return TensorElement(kind, sig, out, check=False)


def dual_scaling_morphism(ext, a: SuperNumber) -> AlgebraMorphism:
    """The endomorphism of ``A(eps) = ext`` that fixes every generator except
    ``eps -> a eps``, ``eps`` the last even generator, by the general
    constructor, which refuses an ``a eps`` that is not even."""
    odd, even = generators(ext)
    return AlgebraMorphism(ext, ext, odd, even[:-1] + [a * even[-1]])


def reference_dual_scale(x: SuperNumber, a: SuperNumber) -> SuperNumber:
    """The dual scaling ``eps -> a eps`` of ``A(eps) = x.sig`` applied through
    its generator images: each monomial's image is the product of its
    generators' images, and the images are summed against the coefficients."""
    sig = x.sig
    morphism = dual_scaling_morphism(sig, a)
    pairs = []
    for key, c in x.items():
        image = one(sig)
        for gid in range(8):
            if odd_mask_of(key) >> gid & 1:
                image = image * morphism.odd_images[gid]
        for j in range(4):
            if even_mask_of(key) >> j & 1:
                image = image * morphism.even_images[j]
        pairs.append((image, c))
    return sum_of_products(sig, pairs)


def scale_plus_unit(m_ext: SuperMatrix, t: SuperNumber) -> SuperMatrix:
    """``Id + t M``: every entry scaled by ``t`` (``SuperMatrix.scale``), then
    the unit added to each diagonal entry."""
    rows = [list(row) for row in m_ext.scale(t).rows]
    unit = one(t.sig)
    for i, row in enumerate(rows):
        row[i] = row[i] + unit
    return SuperMatrix(m_ext.m, m_ext.n, t.sig, rows, check=False)


def split_dual_scale(x: SuperNumber, a: SuperNumber) -> SuperNumber:
    """The dual scaling ``u + v eps -> u + (a v) eps`` from the split
    ``split_dual(x) = (u, v)``: the product ``a v`` relabelled by setting
    the bit of ``eps`` on its keys (a term of it that holds ``eps``
    vanishes), then merged with ``u`` over the common denominator."""
    u, v = split_dual(x, x.sig)
    if v.is_zero():
        return x
    bit = make_key(0, 1 << (x.sig.even_nilpotents - 1))
    w = a * v
    w = SuperNumber._from_numerators(x.sig, w.den, {k | bit: c for k, c in w.numerators() if not k & bit})
    den = u.den // gcd(u.den, w.den) * w.den
    su, sw = den // u.den, den // w.den
    terms = {k: (re * su, im * su) for k, (re, im) in u.numerators()}
    terms.update((k, (re * sw, im * sw)) for k, (re, im) in w.numerators())
    return SuperNumber._from_numerators(x.sig, den, terms)


def loop_positional_apply(pmap, x: SuperMatrix) -> SuperMatrix:
    """A positional map by its general cell loop: the nonzero entries each
    cell reads, one conjugating pass for a single term, a fused sum of
    conjugated entries for several."""
    sig, rows, k = x.sig, x.rows, pmap.conjugations
    zero = SuperNumber.zero(sig)
    out = []
    for cell_row in pmap.cells:
        out_row = []
        for cell in cell_row:
            terms = [(rows[r][s], c) for r, s, c in cell if not rows[r][s].is_zero()]
            if not terms:
                out_row.append(zero)
            elif len(terms) == 1:
                (e, c), = terms
                out_row.append(e.conjugated(k, c))
            else:
                if k:
                    terms = [(e.conjugated(k), c) for e, c in terms]
                out_row.append(sum_of_products(sig, terms))
        out.append(out_row)
    return SuperMatrix(x.m, x.n, sig, out, check=False)

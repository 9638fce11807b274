"""Reference products kept as test oracles for the fused product kernel.

These are the per-term routines the package used before it summed products
as integer numerators (``algebra.sum_of_products``):

* the Grassmann product as one ``GaussianRational`` product, sign and sum
  per pair of terms, with the reordering sign found by counting the
  inversions of the two odd-generator lists;
* the grid product as the triple loop that adds one ``a[i][k] * b[k][j]``
  at a time;
* the conjugation of an odd monomial as the list of its generators' images,
  with the sign of sorting that list, from before the conjugation table was
  built by the monomial rule (``algebra.monomial_image``).

``parity_part`` gives the homogeneous parts that the supercommutativity and
graded conjugation laws are stated on.

The tests require the package to agree with them exactly.
"""

from superforms.algebra import STANDARD, SuperNumber, even_mask_of, key_parity, odd_mask_of
from superforms.scalars import GaussianRational


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


def reference_mul(x: SuperNumber, y: SuperNumber) -> SuperNumber:
    """``x y`` term by term: monomials sharing a generator vanish, the rest
    merge with the sign of sorting the concatenated odd generators."""
    if x.sig != y.sig:
        raise ValueError("mixing elements of different coefficient algebras")
    out = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
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
    return SuperNumber(x.sig, out)


def reference_scaled(x: SuperNumber, c: GaussianRational) -> SuperNumber:
    """``c x``: one ``GaussianRational`` product per term."""
    return SuperNumber.from_terms(x.sig, {k: v * c for k, v in x.items()})


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

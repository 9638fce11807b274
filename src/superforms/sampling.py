"""Deterministic sampling of algebra elements and Lie-superalgebra points.

All randomness flows through :func:`rng_for`, which seeds ``random.Random``
with a string (string seeding hashes with SHA-512 internally, so streams are
stable across processes and do not depend on ``PYTHONHASHSEED``).  Every
consumer derives its stream from ``(seed, *tags)``, which is what makes the
whole suite byte-reproducible.

Coefficients are drawn from the small exact pool {0, +-1, +-i, +-1/2},
weighted toward zero so sampled elements stay sparse.
"""

from __future__ import annotations

import random
from typing import Optional

from .algebra import AlgebraSignature, EVEN, ODD, SuperNumber, basis_keys, scalar
from .liealg import MatrixKind, TensorElement, basis_of, matrix_of
from .matrices import SuperMatrix
from .scalars import GaussianRational, HALF, I, MINUS_I, MINUS_ONE, ONE, ZERO

MINUS_HALF = GaussianRational(-1, 0, 2)

# zero is deliberately over-weighted
_POOL = (ZERO, ZERO, ZERO, ZERO, ONE, MINUS_ONE, I, MINUS_I, HALF, MINUS_HALF)
_NONZERO_POOL = (ONE, MINUS_ONE, I, MINUS_I, HALF, MINUS_HALF)
_POOL_HALVES = tuple((2 * c.re // c.den, 2 * c.im // c.den) for c in _POOL)
"""``_POOL`` entry by entry as Gaussian-integer numerators over 2: ``choice``
reads only the length of what it picks from, so it draws the same
coefficients from either."""


def require_samples(samples: int):
    """Refuse a sample count below one: a check that draws no samples would
    pass without testing anything."""
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")


def rng_for(seed: int, *tags: str) -> random.Random:
    return random.Random(f"{seed}|" + "|".join(tags))


def random_scalar(rng: random.Random) -> GaussianRational:
    return rng.choice(_POOL)


def random_nonzero_scalar(rng: random.Random) -> GaussianRational:
    return rng.choice(_NONZERO_POOL)


def random_element(sig: AlgebraSignature, rng: random.Random, parity: Optional[int] = None) -> SuperNumber:
    """One ``random_scalar`` draw per basis key of ``parity``, in key order,
    drawn straight into numerators over 2."""
    choice = rng.choice
    num = {}
    for key in basis_keys(sig, parity):
        v = choice(_POOL_HALVES)
        if v[0] or v[1]:
            num[key] = v
    return SuperNumber._from_numerators(sig, 2, num)


def random_even(sig: AlgebraSignature, rng: random.Random) -> SuperNumber:
    return random_element(sig, rng, EVEN)


def random_odd(sig: AlgebraSignature, rng: random.Random) -> SuperNumber:
    return random_element(sig, rng, ODD)


def random_invertible_even(sig: AlgebraSignature, rng: random.Random) -> SuperNumber:
    x = random_even(sig, rng)
    if not x.is_invertible():
        x = x + scalar(sig, random_nonzero_scalar(rng))
    return x


def random_self_conjugate_even(sig: AlgebraSignature, rng: random.Random) -> SuperNumber:
    """A random even element fixed by the conjugation (b + conj(b) form)."""
    b = random_even(sig, rng)
    return b + b.conjugated(1)


def random_tensor(kind: MatrixKind, sig: AlgebraSignature, rng: random.Random) -> TensorElement:
    """A random point of ``g(A)`` in tensor form (parity-matched coefficients)."""
    coeffs = {}
    for v in basis_of(kind):
        c = random_element(sig, rng, v.parity)
        if not c.is_zero():
            coeffs[v.index] = c
    return TensorElement(kind, sig, coeffs, check=False)


def random_point(kind: MatrixKind, sig: AlgebraSignature, rng: random.Random) -> SuperMatrix:
    """A random point of ``g(A)`` as a matrix (exact member by construction)."""
    return matrix_of(random_tensor(kind, sig, rng))

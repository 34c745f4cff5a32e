"""Exact expansion of Gaussian binomial coefficients.

``gaussian(ell, m)`` returns the coefficient vector of the q-binomial
coefficient binom(m+ell, m)_q; coefficient k counts the partitions of k
that fit in an ell x m box.  With a = min(ell, m), b = max(ell, m) and
n = a*b, the computation evaluates the product formula

    binom(a+b, a)_q = prod_{i=1..a} (1 - q^{b+i}) / (1 - q^i)

at q = 2^L, packing the polynomial into one big integer with L-bit limbs
(Kronecker substitution).  Every coefficient is below comb(a+b, a), so
L >= comb(a+b, a).bit_length() holds each one exactly.

The vector is palindromic, so only its rising half, the lowest h+1
coefficients with h = floor(n/2), is computed, modulo 2^K with
K = (h+1)*L.  Reduction mod 2^K is a ring map and each 1 - 2^{Li} is
odd, hence a unit: multiplying by a numerator factor is one
shift-and-subtract, and dividing by 1 - 2^{Li} multiplies by the 2-adic
series prod_j (1 + 2^{Li*2^j}), one shift-and-add per factor until the
shift reaches K.  Intermediate values wrap, but the result is the
polynomial's value mod 2^K, whose limbs are exactly the lowest h+1
coefficients; the upper half is their mirror image.

The independent oracle ``gaussian_by_enumeration`` counts box partitions
one by one and shares no arithmetic with the packed product formula.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import comb

from .partitions import Partition, partitions_inside

# gaussian_by_enumeration refuses boxes with more cells than this: the
# oracle exists for cross-checks, not for production work.
ENUMERATION_GUARD = 64


class QPolynomial:
    """Dense polynomial in q with non-negative integer coefficients.

    ``coeffs[k]`` is the coefficient of q^k.  The vector never carries a
    trailing zero beyond the declared degree (the constant polynomial is
    the single exception, as a vector of length one).
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: "tuple[int, ...] | list[int]"):
        cs = tuple(map(operator.index, coeffs))
        if not cs:
            raise ValueError("a polynomial needs at least its constant coefficient")
        if any(c < 0 for c in cs):
            raise ValueError("coefficients must be non-negative")
        if len(cs) > 1 and cs[-1] == 0:
            raise ValueError("trailing zero beyond the declared degree")
        self.coeffs = cs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        """Coefficient of q^k, zero outside 0..degree (so k = -1 gives 0)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __repr__(self) -> str:
        return f"QPolynomial({list(self.coeffs)})"


def _product_coeffs(ell: int, m: int) -> tuple[int, ...]:
    """Coefficient vector of binom(m+ell, m)_q via the packed product formula."""
    a, b = min(ell, m), max(ell, m)
    n = a * b
    h = n // 2
    limb = max(8, ((comb(a + b, a).bit_length() + 7) // 8) * 8)  # byte-aligned limbs
    x = 1
    for i in range(1, a + 1):
        # x is binom(b+i-1, i-1)_q at q = 2^limb.  The next box, (i, b), has
        # degree i*b: while that is below h its value fits in i*b+1 limbs,
        # so the narrower modulus still yields it exactly.
        width = limb * (min(h, i * b) + 1)
        mask = (1 << width) - 1
        x = (x - (x << (limb * (b + i)))) & mask
        shift = limb * i
        while shift < width:
            x = (x + (x << shift)) & mask
            shift <<= 1
    nbytes = limb // 8
    raw = x.to_bytes(nbytes * (h + 1), "little")
    half = tuple(
        int.from_bytes(raw[o : o + nbytes], "little") for o in range(0, len(raw), nbytes)
    )
    return half + half[n - h - 1 :: -1]


@lru_cache(maxsize=1024)
def gaussian(ell: int, m: int) -> QPolynomial:
    """Gaussian binomial binom(m+ell, m)_q as a QPolynomial of degree ell*m.

    ``ell`` and ``m`` are the box sides; either may be 0, in which case
    the result is the constant 1.
    """
    if ell < 0 or m < 0:
        raise ValueError(f"box sides must be non-negative: ell={ell} m={m}")
    if ell == 0 or m == 0:
        return QPolynomial((1,))
    return QPolynomial(_product_coeffs(ell, m))


def gaussian_by_enumeration(ell: int, m: int) -> QPolynomial:
    """Same vector as :func:`gaussian`, by counting box partitions directly.

    Exists solely as an independent oracle; guarded to ell*m <= 64.
    """
    if ell < 0 or m < 0:
        raise ValueError(f"box sides must be non-negative: ell={ell} m={m}")
    if ell == 0 or m == 0:
        return QPolynomial((1,))
    if ell * m > ENUMERATION_GUARD:
        raise ValueError(
            f"enumeration oracle is limited to ell*m <= {ENUMERATION_GUARD}: got {ell * m}"
        )
    box = Partition((m,) * ell)
    return QPolynomial(tuple(len(partitions_inside(box, k)) for k in range(ell * m + 1)))

"""Exact expansion of Gaussian binomial coefficients.

``gaussian(ell, m)`` returns the coefficient vector of the q-binomial
coefficient binom(m+ell, m)_q; coefficient k counts the partitions of k
that fit in an ell x m box.  With a = min(ell, m), b = max(ell, m) and
n = a*b, the computation evaluates the product formula

    binom(a+b, a)_q = prod_{i=1..a} (1 - q^{b+i}) / (1 - q^i)

at q = 2^L, packing the polynomial into one big integer with L-bit limbs
(Kronecker substitution).  The vector is palindromic, so only its rising
half, the lowest h+1 coefficients with h = floor(n/2), is computed: the
packed value is kept modulo 2^K with K = (h+1)L, and the upper half is
the mirror image of the lower.  Reduction mod 2^K is a ring map and each
1 - 2^{Ld} is odd, hence a unit: multiplying by a numerator factor is
one shift-and-subtract, and dividing by 1 - 2^{Ld} multiplies by the
2-adic series prod_j (1 + 2^{Ld*2^j}), one shift-and-add per factor
until the shift reaches K.

The limbs widen as the box grows.  For i = 1..i0, i0 = ceil(h/b), step i
takes binom(b+i-1, i-1)_q to binom(b+i, i)_q, of degree i*b, in
min(h, i*b)+1 limbs.  Its coefficients are below comb(b+i, i), so L is
that bit length rounded up to whole bytes; when a step needs a wider
limb, the packed value is re-laid once by strided byte copies
(``out[j::new] = raw[j::old]``), which is exact because after a whole
step every limb holds a true, non-negative coefficient.  After step i0
the limbs widen once more, to hold coefficients below comb(a+b, a).

From then on the width stays at h+1 limbs, so every remaining factor is
a unit of the one ring Z[q]/(q^{h+1}); the factors commute, only the
final product must be a polynomial with coefficients that fit a limb,
and intermediate values may wrap.  A remaining numerator N = d*2^t meets
a remaining denominator d as (1 - q^N)/(1 - q^d) = prod_{s<t} (1 +
q^{d*2^s}): t shift-and-adds, where the two apart cost one
shift-and-subtract and about log2(h/d) + 1 shift-and-adds.  Each
numerator takes the first unused such d, halving N while it stays even;
the numerators and denominators left over are applied one by one.

Unpacking widens limbs of up to 8 bytes to 8 by the same strided copy
and reads them as unsigned 64-bit words with ``struct``; wider limbs are
read one by one with ``int.from_bytes``.

The independent oracle ``gaussian_by_enumeration`` counts box partitions
one by one and shares no arithmetic with the packed product formula.
"""

from __future__ import annotations

import operator
import struct
from functools import lru_cache
from itertools import repeat
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
        if min(cs) < 0:
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


def _widen(raw: bytes, old: int, new: int, count: int) -> bytearray:
    """The ``count`` little-endian limbs of ``old`` bytes in ``raw``, laid
    out again as limbs of ``new >= old`` bytes: one strided copy per byte."""
    out = bytearray(new * count)
    for j in range(old):
        out[j::new] = raw[j::old]
    return out


def _unpack(raw: bytes, nbytes: int, count: int) -> tuple[int, ...]:
    """The ``count`` little-endian limbs of ``nbytes`` bytes in ``raw``, as ints.

    Limbs of up to 8 bytes are widened to 8 and read as unsigned 64-bit
    words.  Wider limbs are cut one at a time by a lazy iterator: holding
    all of them as bytes objects at once leaves the small-object heap
    fragmented, and peak memory grows with every expansion memoised.
    """
    if nbytes > 8:
        limbs = map(operator.itemgetter(0), struct.iter_unpack(f"{nbytes}s", raw))
        return tuple(map(int.from_bytes, limbs, repeat("little")))
    return struct.unpack(f"<{count}Q", _widen(raw, nbytes, 8, count))


def _repack(x: int, nbytes: int, count: int, bound: int) -> tuple[int, int]:
    """``x``, ``count`` limbs of ``nbytes`` bytes, re-laid with limbs wide
    enough for values below ``bound``; returns it with the new limb bytes."""
    need = (bound.bit_length() + 7) // 8
    if need <= nbytes:
        return x, nbytes
    raw = x.to_bytes(nbytes * count, "little")
    return int.from_bytes(_widen(raw, nbytes, need, count), "little"), need


def _series(x: int, shift: int, stop: int, mask: int) -> int:
    """x * prod (1 + 2^s) over s = shift, 2*shift, 4*shift, ... below stop, modulo mask + 1."""
    while shift < stop:
        x = (x + (x << shift)) & mask
        shift <<= 1
    return x


def _product_coeffs(ell: int, m: int) -> tuple[int, ...]:
    """Coefficient vector of binom(m+ell, m)_q via the packed product formula."""
    a, b = min(ell, m), max(ell, m)
    n = a * b
    h = n // 2
    grow = -(-h // b)
    x, nbytes, size, bound = 1, 1, 1, 1
    for i in range(1, grow + 1):
        # x is binom(b+i-1, i-1)_q; the next box, (i, b), has degree i*b
        # and every coefficient below comb(b+i, i).
        bound = bound * (b + i) // i
        x, nbytes = _repack(x, nbytes, size, bound)
        size = min(h, i * b) + 1
        limb = 8 * nbytes
        mask = (1 << (limb * size)) - 1
        x = (x - (x << (limb * (b + i)))) & mask
        x = _series(x, limb * i, limb * size, mask)
    # The width is now h+1 limbs, so the remaining factors act on
    # Z[q]/(q^(h+1)) and commute.  A numerator N = d*2^t over a remaining
    # denominator d is the product of the 1 + q^(d*2^s) with s < t.
    x, nbytes = _repack(x, nbytes, h + 1, comb(a + b, a))
    limb = 8 * nbytes
    width = limb * (h + 1)
    mask = (1 << width) - 1
    dens = set(range(grow + 1, a + 1))
    for num in range(b + grow + 1, b + a + 1):
        d = num
        while not d & 1:
            d >>= 1
            if d in dens:
                dens.remove(d)
                x = _series(x, limb * d, min(limb * num, width), mask)
                break
        else:
            x = (x - (x << (limb * num))) & mask
    for d in dens:
        x = _series(x, limb * d, width, mask)
    half = _unpack(x.to_bytes(nbytes * (h + 1), "little"), nbytes, h + 1)
    return half + half[n - h - 1 :: -1]


@lru_cache(maxsize=1024, typed=True)
def gaussian(ell: int, m: int) -> QPolynomial:
    """Gaussian binomial binom(m+ell, m)_q as a QPolynomial of degree ell*m.

    ``ell`` and ``m`` are the box sides; either may be 0, in which case
    the result is the constant 1.  A side that is not an integer raises
    ``TypeError``; the memo is typed, so a cached ``(2, 3)`` never
    answers ``(2.0, 3)``.
    """
    ell, m = operator.index(ell), operator.index(m)
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

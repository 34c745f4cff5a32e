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
until the shift reaches K.  Each pass works on non-negative values of
about K bits: a numerator pass subtracts the shifted value cut to K
bits, x - ((x << s) mod 2^K), and adds 2^K back when that is negative,
so no difference is wider than K bits and no negative value is masked (a
bitwise and of a negative int works on a two's complement copy); a
series, like each geometric sum below, cuts only each shifted term to K
bits, lets the running sum carry a few bits past K, and masks it once
when it returns.  The modulus 2^K and the mask are computed once per
width.

The partial boxes grow at half width, in limbs that widen as they go.
For i = 1..i0, i0 = ceil(h/b), step i takes binom(b+i-1, i-1)_q to
binom(b+i, i)_q, of degree i*b, but only modulo q^(c+1) with c =
floor(i*b/2), up to its centre; this is exact for the same reason as the
final half.  Its coefficients are below comb(b+i, i), so L is that bit
length rounded up to whole bytes; when a step needs a wider limb, the
packed value is re-laid once by strided byte copies (``out[j::new] =
raw[j::old]``).  The next step reads up to its own centre, so the vector
is first extended by its mirror image, p_j = p_{i*b-j}: those limbs are
cut out of the known part, put in reverse order (one strided copy per
byte, then a big-endian read) and ORed in above it.  Re-laying and
mirroring are exact because after a whole step every limb holds a true,
non-negative coefficient.  After step i0 the mirror extends the vector
to h+1 limbs, and the limbs widen once more, to hold coefficients below
comb(a+b, a).  Against steps at full degree, this cuts the bytes that
the series passes touch by about a fifth on squares.

From then on the width stays at h+1 limbs, so every remaining factor is
a unit of the one ring Z[q]/(q^{h+1}); the factors commute, only the
final product must be a polynomial with coefficients that fit a limb,
and intermediate values may wrap.  A numerator above h is 1 there and is
dropped.  A remaining numerator N meets a remaining denominator d that
divides it as the geometric sum (1 - q^N)/(1 - q^d) = 1 + q^d + ... +
q^{(k-1)d}, k = N/d, computed by doubling on the bits of k:
S_{2j} = S_j (1 + q^{jd}) and S_{2j+1} = 1 + q^d S_{2j}, so
bitlen(k) - 1 + popcount(k) - 1 shift-and-adds.  Apart, the two cost one
shift-and-subtract for N and the series for d, which is the same sum
with k at ceil((h+1)/d), beyond which every term vanishes, rounded up
to a power of two: about log2(h/d) + 1 shift-and-adds; a pair's
k = N/d <= h/d stays below that cap.  Each numerator, from the largest
down, takes the unused divisor with the largest saving over leaving the
two apart, and none when no saving is positive: on (5, 247), N = 252
over d = 4 gives k = 63, which costs 10 shift-and-adds where the two
apart cost 9.  The numerators and denominators left over are applied
one by one.

Unpacking reads limbs of 1, 2, 4 or 8 bytes with ``struct`` as
unsigned words of their own width; a limb of 3 or 5 to 7 bytes is first
widened to the next of these widths by the same strided copy, and wider
limbs are read one by one with ``int.from_bytes``.

The independent oracle ``gaussian_by_enumeration`` counts box partitions
one by one and shares no arithmetic with the packed product formula.
"""

from __future__ import annotations

import operator
import struct
from itertools import repeat
from math import comb

from .partitions import parts_inside

# gaussian_by_enumeration refuses boxes with more cells than this: the
# oracle exists for cross-checks, not for production work.
ENUMERATION_GUARD = 64

# gaussian refuses a box whose packed rising half, h+1 limbs of the byte
# length of comb(a+b, a), would take more bytes than this; (200, 200)
# takes 1,000,050 and expands in about 0.4 s (2-vCPU x86_64 VM, Python 3.11).
EXPANSION_GUARD = 1 << 22


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

    @classmethod
    def _of(cls, coeffs: tuple[int, ...]) -> "QPolynomial":
        """Wrap a tuple of non-negative ints with no trailing zero, as
        :func:`gaussian` builds it, without copying or scanning it again."""
        poly = object.__new__(cls)
        poly.coeffs = coeffs
        return poly

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

    Limbs of up to 8 bytes are widened to the next width of 1, 2, 4 or
    8 bytes, if they are not that wide already, and read as unsigned
    words of that width.  Wider limbs are cut one at a time by a lazy
    iterator: holding all of them as bytes objects at once leaves the
    small-object heap fragmented, which raises peak memory across
    expansions.
    """
    if nbytes > 8:
        limbs = map(operator.itemgetter(0), struct.iter_unpack(f"{nbytes}s", raw))
        return tuple(map(int.from_bytes, limbs, repeat("little")))
    width = 1 << (nbytes - 1).bit_length()
    if width != nbytes:
        raw = _widen(raw, nbytes, width, count)
    return struct.unpack(f"<{count}{'BHIQ'[width.bit_length() - 1]}", raw)


def _repack(x: int, nbytes: int, count: int, bound: int) -> tuple[int, int]:
    """``x``, ``count`` limbs of ``nbytes`` bytes, re-laid with limbs wide
    enough for values below ``bound``; returns it with the new limb bytes."""
    need = (bound.bit_length() + 7) // 8
    if need <= nbytes:
        return x, nbytes
    raw = x.to_bytes(nbytes * count, "little")
    return int.from_bytes(_widen(raw, nbytes, need, count), "little"), need


def _mirror(x: int, nbytes: int, known: int, degree: int, size: int) -> int:
    """``x``, the lowest ``known`` limbs of ``nbytes`` bytes of a palindrome
    of the given degree, extended to ``size`` limbs by limb j = limb
    degree-j; needs known > degree/2 and size <= degree+1."""
    count = size - known
    low = degree - size + 1
    # limbs low..degree-known, the bytes of each reversed (no copy for
    # one-byte limbs), read as one big-endian number come out in reverse
    # order
    raw = (x >> (8 * nbytes * low)).to_bytes(nbytes * (known - low), "little")
    if nbytes > 1:
        out = bytearray(nbytes * count)
        for j in range(nbytes):
            out[nbytes - 1 - j :: nbytes] = raw[j : nbytes * count : nbytes]
        raw = out
    return x | int.from_bytes(raw[: nbytes * count], "big") << (8 * nbytes * known)


def _passes(k: int) -> int:
    """Shift-and-adds that :func:`_geometric` spends on a sum of k terms."""
    return k.bit_length() + k.bit_count() - 2


def _numerator(x: int, shift: int, mask: int, modulus: int) -> int:
    """x * (1 - 2^shift) modulo ``modulus`` = mask + 1, for 0 <= x <= mask:
    the masked shift is subtracted, and the modulus added back if that
    went below zero, so no negative value is masked."""
    x -= (x << shift) & mask
    return x + modulus if x < 0 else x


def _geometric(x: int, shift: int, k: int, mask: int) -> int:
    """x * (1 + 2^shift + ... + 2^((k-1)*shift)) modulo mask + 1, by
    doubling on the bits of k: S_2j = S_j (1 + 2^(j*shift)) and
    S_2j+1 = 1 + 2^shift S_2j.  Only the shifted term is masked, so the
    sum may carry a few bits past the mask until the one mask at the end."""
    y, j = x, 1
    for bit in bin(k)[3:]:
        y += (y << (shift * j)) & mask
        j *= 2
        if bit == "1":
            y = x + ((y << shift) & mask)
            j += 1
    return y & mask


def _factors(a: int, b: int, h: int, grow: int) -> list[tuple[int, int]]:
    """The factors left after the grow phase, as (d, k): the sum 1 + q^d +
    ... + q^((k-1)d) for k >= 1, and the numerator 1 - q^d for k = 0.

    Each numerator N from b+a down to b+grow+1, those above h dropped,
    takes the unused denominator d = N/k with the largest saving over
    the shift-and-subtract plus the series for d, if that saving is
    positive, and the largest such d on a tie; the unpaired denominators
    follow as series.
    """
    # 1/(1 - q^d) needs the terms q^(jd) with jd <= h; their count, rounded
    # up to a power of two, costs no more than the count itself
    series = {d: 1 << (h // d).bit_length() for d in range(grow + 1, a + 1)}
    out = []
    for num in range(min(b + a, h), b + grow, -1):
        save, pair = 0, 0
        for k in range(-(-num // a), num // (grow + 1) + 1):
            d, r = divmod(num, k)
            if r == 0 and d in series:
                gain = 1 + _passes(series[d]) - _passes(k)
                if gain > save:
                    save, pair = gain, d
        if pair:
            del series[pair]
            out.append((pair, num // pair))
        else:
            out.append((num, 0))
    out.extend(series.items())
    return out


def _product_coeffs(ell: int, m: int) -> tuple[int, ...]:
    """Coefficient vector of binom(m+ell, m)_q via the packed product formula."""
    a, b = min(ell, m), max(ell, m)
    n = a * b
    h = n // 2
    grow = -(-h // b)
    x, nbytes, size, bound = 1, 1, b // 2 + 1, 1
    for i in range(1, grow + 1):
        # x is binom(b+i-1, i-1)_q in size limbs, up to the centre of the
        # next box, (i, b), which has every coefficient below comb(b+i, i)
        bound = bound * (b + i) // i
        x, nbytes = _repack(x, nbytes, size, bound)
        limb = 8 * nbytes
        modulus = 1 << (limb * size)
        mask = modulus - 1
        x = _numerator(x, limb * (b + i), mask, modulus)
        x = _geometric(x, limb * i, 1 << ((size - 1) // i).bit_length(), mask)
        # mirrored out to the centre of the next box, or to h after the last
        top = (i + 1) * b // 2 + 1 if i < grow else h + 1
        x = _mirror(x, nbytes, size, i * b, top)
        size = top
    # The width is now h+1 limbs, so the remaining factors act on
    # Z[q]/(q^(h+1)) and commute.
    x, nbytes = _repack(x, nbytes, h + 1, comb(a + b, a))
    limb = 8 * nbytes
    modulus = 1 << (limb * (h + 1))
    mask = modulus - 1
    for d, k in _factors(a, b, h, grow):
        if k:
            x = _geometric(x, limb * d, k, mask)
        else:
            x = _numerator(x, limb * d, mask, modulus)
    half = _unpack(x.to_bytes(nbytes * (h + 1), "little"), nbytes, h + 1)
    return half + half[n - h - 1 :: -1]


def gaussian(ell: int, m: int) -> QPolynomial:
    """Gaussian binomial binom(m+ell, m)_q as a QPolynomial of degree ell*m.

    ``ell`` and ``m`` are the box sides; either may be 0, in which case
    the result is the constant 1.  A side that is not an integer raises
    ``TypeError``; a box whose packed rising half would take more than
    ``EXPANSION_GUARD`` bytes raises ``ValueError`` before any expansion.
    """
    ell, m = operator.index(ell), operator.index(m)
    if ell < 0 or m < 0:
        raise ValueError(f"box sides must be non-negative: ell={ell} m={m}")
    if ell == 0 or m == 0:
        return QPolynomial((1,))
    # every limb takes a byte or more, so the first test bounds ell+m, and
    # with it the work of comb, before the second one calls it
    limbs = ell * m // 2 + 1
    if limbs > EXPANSION_GUARD or (
        limbs * ((comb(ell + m, m).bit_length() + 7) // 8) > EXPANSION_GUARD
    ):
        raise ValueError(
            f"box too large to expand: ell={ell} m={m} packs its rising half "
            f"in more than {EXPANSION_GUARD} bytes"
        )
    return QPolynomial._of(_product_coeffs(ell, m))


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
    return QPolynomial(tuple(len(parts_inside((m,) * ell, k)) for k in range(ell * m + 1)))

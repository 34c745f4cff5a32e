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
about K bits, with a mask M and a bias C that make the limb layout; this
exact layout has M = 2^K - 1 and C = 2^K.  A numerator pass is one
subtraction, (x | C) - ((x << s) & M), masked by M.  It never borrows:
x | C is congruent to x modulo 2^K and at least 2^K, and the masked
shift is below 2^K, so the difference is positive, and the mask leaves
x (1 - 2^s) modulo 2^K.  No negative value is ever masked (a bitwise and
of a negative int works on a two's complement copy).  A series, like
each geometric sum below, cuts only each shifted term to K bits, lets
the running sum carry a few bits past K, and masks it once when it
returns.  So every factor hands on a masked value.  The mask and the
bias are computed once per stage.

The half is built in stages.  Stage (a, b), a > 2, starts from the
rising half of binom(g+b, g)_q with g = ceil(a/2), which is ceil(h/b),
the smallest side whose box reaches degree h: that half, extended by its
mirror image p_j = p_{g*b-j}, fills the h+1 limbs, and the factors
(1 - q^{b+i})/(1 - q^i), i = g+1..a, are then applied modulo q^(h+1).
Each stage halves the side, down to the side 2, whose half is h+1 ones
times the series for 1/(1 - q^2) (h = b, so both numerators are 1):
p_j = floor(j/2) + 1.  There are ceil(log2 a) stages, and each pairs
about a/2 numerators with as many denominators at its own width.  Splits
from 0.35a to 0.65a were measured no faster.

One helper, ``_relay``, moves limbs between stages: it writes the known
limbs of a palindrome out as bytes once and copies them, one strided
copy per byte (``out[i:top:new] = raw[i::old]``), into limbs of the new
width, and copies the mirror limbs the same way from the reversed bytes
of the limbs they mirror.  Mirroring and widening are exact because after
a whole stage every limb holds a true, non-negative coefficient.
``_half(a, b, nbytes)`` packs its half in limbs of the ``nbytes`` bytes
that its caller sizes, so each stage makes one ``_relay`` call that
mirrors and widens together.  The stage below is packed for B(g, b)
(defined below), which is no wider (proved below); ``gaussian`` sizes
its limbs for B(a, b), and the exact rung of ``rising_stalls`` for
2 B(a, b), the spare top bit its compare takes as a guard bit.
Unpacking reads limbs of 1, 2, 4 or 8 bytes with ``struct`` as unsigned
words of their own width; a limb of 3 or 5 to 7 bytes is first widened
by ``_relay`` to the next of these widths, and wider limbs are read one
by one with ``int.from_bytes``.

The limbs of stage (a, b) are as many whole bytes as the bound

    B(a, b) = (comb(a+b-1, a-1) + (a-1) comb(floor((a+b)/2), floor(a/2))) // a

takes, which no coefficient exceeds:

1. binom(a+b, a)_q = P (1 - q^{a+b})/(1 - q^a) with P = binom(a-1+b, a-1)_q,
   and P/(1 - q^a) has non-negative coefficients, so coefficient k is at
   most that of P/(1 - q^a): the sum of p_j over j <= k, j = k mod a, and
   so at most one residue-class sum of P modulo a.
2. By the roots-of-unity filter that sum is (1/a) sum_{t=0..a-1}
   w^(-tk) P(w^t), w = exp(2 pi i/a), which is at most (P(1) +
   sum_{t=1..a-1} |P(w^t)|)/a, and P(1) = comb(a+b-1, a-1).
3. By the q-Lucas theorem, at a primitive d-th root of unity with d > 1
   dividing a, binom(a+b-1, a-1)_q = binom(floor((a+b-1)/d),
   floor((a-1)/d)) binom((a+b-1) mod d, d-1)_q.  Since a-1 = d-1 modulo
   d, the second factor is 0 unless d divides b, and then 1, so the
   term is comb((a+b)/d - 1, a/d - 1) <= comb(floor((a+b)/2),
   floor(a/2)): comb(k+r, k) grows with k and with r, and here k =
   a/d - 1 <= floor(a/2) and r = b/d <= floor((a+b)/2) - floor(a/2).

B <= comb(a+b, a) = comb(a+b-1, a-1) (a+b)/a, since the second
binomial in B is at most comb(a+b-1, a-1) (by the same monotonicity) and
a-1 <= b, so B never takes more bytes.  That estimate gives B <=
comb(a+b-1, a-1), so 2B <= comb(a+b, a) as well, since (a+b)/a >= 2:
limbs with a spare bit above B take no more bytes either.  B is within
3 bits of the largest coefficient on every box the tests check it on,
where comb(a+b, a) is further above: 7 bits on (20, 20) against B's 1,
and 12 on (200, 200) against 3.

B(a, b) <= B(a+1, b) for a < b, so B(ceil(a/2), b) <= B(a, b): B is the
floor of (a+b-1)!/(a! b!) + (a-1)/a comb(N, k), N = floor((a+b)/2), k =
floor(a/2), and from a to a+1 the first term grows by (a+b)/(a+1) >= 1,
(a-1)/a grows, and N and k grow by 0 or 1 each, to N' >= a+1 and k' =
floor((a+1)/2) <= N'/2, so comb(N, k) <= comb(N', k) <= comb(N', k').

Within a stage the width stays at h+1 limbs, so every factor is a unit
of the one ring Z[q]/(q^{h+1}); the factors commute, only the final
product must be a polynomial with coefficients that fit a limb, and
intermediate values may wrap.  A numerator above h is 1 there and is
dropped.  A numerator N meets a denominator d that divides it as the
geometric sum (1 - q^N)/(1 - q^d) = 1 + q^d + ... + q^{(k-1)d}, k =
N/d, computed by doubling on the bits of k: S_{2j} = S_j (1 + q^{jd})
and S_{2j+1} = 1 + q^d S_{2j}, so bitlen(k) - 1 + popcount(k) - 1
shift-and-adds.  Apart, the two cost one shift-and-subtract for N and
the series for d, which is the same sum with k at ceil((h+1)/d), beyond
which every term vanishes, rounded up to a power of two: about
log2(h/d) + 1 shift-and-adds; a pair's k = N/d <= h/d stays below that
cap.  The numerators b+g+1..b+a are at most a - g consecutive integers,
and each denominator d is above g >= a - g, so d divides at most one of
them, ceil((b+g+1)/d) d if that is a numerator: no two numerators
compete for a divisor.  Each numerator takes the divisor with the
largest saving over leaving the two apart, the largest on a tie, and
none when no saving is positive: on (5, 247), N = 252 over d = 4 gives
k = 63, which costs 10 shift-and-adds where the two apart cost 9.  On
(55, 110) the top stage builds on g = 28, and 144 = 36 * 4 = 48 * 3
takes 36, which saves more.  The numerators and denominators left over
are applied one by one.

``rising_stalls`` reads the strictness chain off packed halves by one
limb-wise compare, ``_agreeing`` (broadword arithmetic, Knuth, TAOCP 4A,
7.1.3).  Gaussian binomials are unimodal (Sylvester, 1878; O'Hara's
combinatorial proof, J. Combin. Theory Ser. A, 1990), so each stall is
an equality p_{k-1} = p_k, and the compare asks only where neighbours
agree.  Let x hold v_0, ..., v_h in L-bit limbs, P the low ``bits`` < L
bits and G the bit 2^bits of each limb.  Limb k of (x ^ (x << L)) & P is
v_k xor v_{k-1} cut to ``bits`` bits; adding P sets its bit 2^bits
exactly where it is not zero, and never carries into the next limb (the
sum is below 2^(bits+1)).  So G ^ ((((x ^ (x << L)) & P) + P) & G) marks
limb k exactly where v_k = v_{k-1} modulo 2^bits; limbs 0 and 1 are
shifted out, and a strict box leaves zero.

``rising_stalls`` climbs a ladder of rungs, each a half packed by
``_half`` and that one compare; the first rung on which no neighbours
agree proves the box strict.  The residue rungs, (W, R) in
``RESIDUE_RUNGS`` = ((3, 18), (4, 26)), hold the coefficients modulo 2^R
in limbs of W bytes: an equality survives the reduction, so agreement
modulo 2^R is necessary for a stall.  The exact rung, in limbs of the E
bytes of 2 B(a, b), compares with bits = 8E - 1: every coefficient is
below 2^(8E-1), so the spare top bit is the guard bit, agreement is the
stall, and the top byte of each limb is read back.  Where B has a whole
number of bytes, as on (7, 163) and (45, 45), the spare bit packs the
last stage one byte wider than ``gaussian``'s.  Two rules choose where
the residue rungs run and what they compare; neither can change an
answer, since the exact rung decides whatever they leave open:

1. A residue rung runs only where a >= 5 and the exact limbs take more
   than its W bytes.  Every box with a side of 3 or 4 stalls (the
   ``ell34`` claim of ``repro``; (4, b) at k = 2b - 1), so no residue
   rung could clear it: (4, 30000), whose exact limbs take 6 bytes,
   would climb both residue rungs and then the exact one.
2. A residue rung compares only limbs b+1..h.  For k <= b, p_k counts
   the partitions of k into parts of at most a (by conjugation: into at
   most a parts, none above k <= b), and those with a part 1 are
   p_{k-1}'s with a 1 added, so p_k - p_{k-1} counts the partitions of
   k into parts 2..a: at least 1 for k >= 2 and a >= 3 (2s, or one 3 and
   2s), so no stall has k <= b.  Those counts depend on (a, k) alone;
   2^18 divides them first at k = 1910 for a = 6, 4574 for a = 8 and
   5097 for a = 30, so every box (6, b >= 1910), (8, b >= 4574) or (30,
   b >= 5097) would agree on the 18-bit rung if it compared them.

A false collision, residues that agree where no stall is, costs the
next rung and nothing else.  Of the 14,115 boxes with 5 <= a <= b and ab
<= 6,000, 406 take the exact rung alone, all with exact limbs of 3
bytes or fewer (the nine exceptional pairs among them), 13,632 are
proved strict on the 18-bit rung, and 77 agree there and are proved
strict on the 26-bit rung, among them (9, 632), (20, 197) and (27,
214), whose residues agree modulo 2^22 too, (7, 460), and (5, 776),
whose exact limbs take 5 bytes.  None goes from the 18-bit rung to the
exact one, as a box whose exact limbs take 4 bytes would on a false
collision.  Agreement at 18 bits has odds of about (h - b)/2^18 on a
strict box: (30, 5200), with h = 78,000, agrees at k = 77,352 and climbs
to the 26-bit rung.

Against the exact rung alone the ladder takes, median per stratum of
the benchmark's boxes (40 rounds of the seed-11 op list, best of 7
in-process calls per box, 2-vCPU Intel Xeon VM, Python 3.11.7), 0.89 of
the time on exact limbs of 4 to 5 bytes, 0.69 to 0.74 on 5 to 6, 0.65 to
0.67 on 6 to 8, 0.45 to 0.52 on 8 to 11, 0.35 to 0.40 on 11 to 14, 0.30
on 14 to 16, 0.19 to 0.25 on 17 to 22 and 0.13 on 26 to 27.  On the
1,022 boxes of the census above whose exact limbs take 4 bytes it takes
0.90 (quartiles 0.89 to 0.93, best of 5).

One stage loop, ``_half``, packs every rung's half and ``gaussian``'s,
over the same ``_factors``, ``_relay`` and ``_geometric``;
``_half(a, b, W, R)`` differs only in its limb layout.  There M = P,
the pattern 2^R - 1 in each of the h+1 limbs, and C the guard bit 2^R in
each: ``& P`` cuts to the h+1 limbs and reduces each limb modulo 2^R
together, so it is both the mask of the geometric sums and the reduction.
The numerator ((x | C) - ((x << s) & P)) & P works limb-wise: limb j of
x | C is at least 2^R and the subtracted limb is below 2^R, so no limb
borrows from the next, and the mask leaves limb j at x_j - x_{j-d}
modulo 2^R, reduced.  So every factor hands on reduced limbs, and each
stage starts reduced, ``& P`` after ``_relay``; a stage below whose exact
limbs take at most W bytes (always the side 2, as B(2, b) <= b < 2^22 in
an admitted box) is expanded exactly, relayed into residue limbs and
reduced by that mask.  Within a geometric sum of c shift-and-adds each
pass adds a term below 2^R to a limb, so no limb reaches (1 + c) 2^R.
Guard headroom: a box admitted by ``EXPANSION_GUARD`` has h+1 <= 2^22
limbs, so k <= h < 2^22 in every sum and c <= 2*22 - 2 = 42.  Then 1 + c
<= 43 < 2^6: six guard bits serve every rung, R = 8W - 6, and no limb
reaches 2^(8W).  On the largest square and thin boxes the guard admits,
(322, 322) and (3, 399457) to (20, 14979), c is at most 18.

The independent oracle ``gaussian_by_enumeration`` counts box partitions
one by one and shares no arithmetic with the packed product formula.
"""

from __future__ import annotations

import operator
import struct
from itertools import compress, repeat
from math import comb

# gaussian_by_enumeration refuses boxes with more cells than this: the
# oracle exists for cross-checks, not for production work.
ENUMERATION_GUARD = 64

# gaussian and rising_stalls refuse a box whose rising half, h+1 limbs of
# the byte length of comb(a+b, a), would take more bytes than this.  The
# limbs are packed no wider than that, since neither B(a, b) nor 2 B(a, b)
# takes more bytes, so the same boxes are refused as when comb(a+b, a)
# sized them; (200, 200) counts 1,000,050, packs 980,049 and expands in
# about 0.33 s (median of 5 in-process calls of gaussian(200, 200), 2-vCPU
# Intel Xeon VM, Python 3.11.7).
EXPANSION_GUARD = 1 << 22

# the residue rungs of rising_stalls, climbed in this order, as (W, R):
# each holds a box's coefficients modulo 2^R in limbs of W bytes.  The
# 8W - R = 6 bits above R are guard bits, which take up the carries
# within a geometric sum (the module docstring bounds them).
RESIDUE_RUNGS = ((3, 18), (4, 26))


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


def _relay(x: int, old: int, known: int, degree: int, count: int, new: int) -> bytes:
    """The lowest ``count`` limbs of a palindrome of the given degree, laid
    out as little-endian limbs of ``new >= old`` bytes.

    ``x`` holds its lowest ``known`` limbs of ``old`` bytes; limb j at
    ``known`` and above is the mirror, limb degree-j, which needs degree/2
    < known <= count <= degree+1.  One ``to_bytes``, then strided byte
    copies.
    """
    raw = x.to_bytes(old * known, "little")
    # limbs degree-known down to degree-count+1, the bytes of each reversed
    rev = raw[old * (degree - count + 1) : old * (degree - known + 1)][::-1]
    out = bytearray(new * count)
    top = new * known
    for i in range(old):
        out[i:top:new] = raw[i::old]
        out[top + i :: new] = rev[old - 1 - i :: old]
    return out


def _unpack(x: int, nbytes: int, count: int) -> tuple[int, ...]:
    """The ``count`` little-endian limbs of ``nbytes`` bytes in ``x``, as ints.

    Limbs of up to 8 bytes are re-laid by :func:`_relay` to the next width
    of 1, 2, 4 or 8 bytes, if they are not that wide already, and read as
    unsigned words of that width.  Wider limbs are cut one at a time by a
    lazy iterator: holding all of them as bytes objects at once leaves the
    small-object heap fragmented, which raises peak memory across
    expansions.
    """
    if nbytes > 8:
        raw = x.to_bytes(nbytes * count, "little")
        limbs = map(operator.itemgetter(0), struct.iter_unpack(f"{nbytes}s", raw))
        return tuple(map(int.from_bytes, limbs, repeat("little")))
    width = 1 << (nbytes - 1).bit_length()
    if width == nbytes:
        raw = x.to_bytes(nbytes * count, "little")
    else:
        raw = _relay(x, nbytes, count, count - 1, count, width)
    return struct.unpack(f"<{count}{'BHIQ'[width.bit_length() - 1]}", raw)


def _passes(k: int) -> int:
    """Shift-and-adds that :func:`_geometric` spends on a sum of k terms."""
    return k.bit_length() + k.bit_count() - 2


def _numerator(x: int, shift: int, mask: int, bias: int) -> int:
    """x * (1 - 2^shift) in the limb layout of ``mask`` and ``bias``, by one
    subtraction that never borrows: the bias is ORed into x before the
    masked shift, which is below it, is taken away; the result is masked,
    so it is reduced (the module docstring has both layouts)."""
    return ((x | bias) - ((x << shift) & mask)) & mask


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
    """The factors of the stage (a, b) over the box (grow, b), as (d, k):
    the sum 1 + q^d + ... + q^((k-1)d) for k >= 1, and the numerator
    1 - q^d for k = 0.

    The numerators b+grow+1..b+a, those above h dropped, are at most
    a - grow consecutive integers, and every denominator d is above
    grow >= a - grow (grow = ceil(a/2)): fewer than d consecutive
    integers hold at most one multiple of d, so each d has one candidate
    numerator and no two numerators compete for it.  A numerator takes
    the candidate d that saves the most over the shift-and-subtract plus
    the series for d, if that saving is positive, and the largest such d
    on a tie.  The numerators come from the top down, then the unpaired
    denominators as series.  So the last factor is a sum: a pair takes
    one numerator and one denominator, and there are no more numerators
    than denominators (a - grow of each before those above h are
    dropped), so where every denominator is paired, so is every
    numerator.
    """
    # 1/(1 - q^d) needs the terms q^(jd) with jd <= h; their count, rounded
    # up to a power of two, costs no more than the count itself
    series = {d: 1 << (h // d).bit_length() for d in range(grow + 1, a + 1)}
    low, top = b + grow + 1, min(b + a, h)
    pair, save = {}, {}
    for d in range(a, grow, -1):
        num = -(-low // d) * d  # the only multiple of d that can be a numerator
        if num <= top:
            gain = 1 + _passes(series[d]) - _passes(num // d)
            if gain > save.get(num, 0):
                pair[num], save[num] = d, gain
    for d in pair.values():
        del series[d]
    out = []
    for num in range(top, low - 1, -1):
        out.append((pair[num], num // pair[num]) if num in pair else (num, 0))
    out.extend(series.items())
    return out


def _bound(a: int, b: int) -> int:
    """B(a, b), 1 <= a <= b: no coefficient of binom(a+b, a)_q exceeds it."""
    return (comb(a + b - 1, a - 1) + (a - 1) * comb((a + b) // 2, a // 2)) // a


def _limb_bytes(bound: int) -> int:
    """The whole bytes that a limb holding values up to ``bound`` takes."""
    return (bound.bit_length() + 7) // 8


def _spread(value: int, nbytes: int, count: int) -> int:
    """``count`` limbs of ``nbytes`` bytes that each hold ``value``."""
    return int.from_bytes(value.to_bytes(nbytes, "little") * count, "little")


def _half(a: int, b: int, nbytes: int, bits: int = 0) -> int:
    """The rising half of binom(a+b, a)_q, 1 <= a <= b, packed in
    floor(ab/2)+1 limbs of ``nbytes`` bytes: the exact coefficients, in limbs
    wide enough for B(a, b), or for ``bits`` > 0 each coefficient modulo
    2^bits, which needs 8*nbytes - bits >= 6 guard bits.

    The two limb layouts differ only in the mask and the bias of the
    numerator ((x | bias) - ((x << s) & mask)) & mask.  A residue stage builds on
    an exact stage below where that stage's exact limbs take no more than
    ``nbytes`` bytes.
    """
    h = a * b // 2
    limb = 8 * nbytes
    if bits:
        bias = _spread(1 << bits, nbytes, h + 1)
        mask = bias - (bias >> bits)
    else:
        bias = 1 << limb * (h + 1)
        mask = bias - 1
    if a <= 2:
        # h+1 ones, times 1/(1 - q^2) for a = 2, by the count _factors takes
        x = _spread(1, nbytes, h + 1)
        if a == 2:
            x = _geometric(x, 2 * limb, 1 << (h // 2).bit_length(), mask)
        return x
    # the box (g, b) has degree g*b >= h, so its half, mirrored, covers
    # the h+1 limbs
    g = (a + 1) // 2
    exact = _limb_bytes(_bound(g, b))
    old = min(exact, nbytes)
    x = _half(g, b, old, bits if exact > old else 0)
    x = int.from_bytes(_relay(x, old, g * b // 2 + 1, g * b, h + 1, nbytes), "little") & mask
    for d, k in _factors(a, b, h, g):
        if k:
            x = _geometric(x, limb * d, k, mask)
        else:
            x = _numerator(x, limb * d, mask, bias)
    return x


def _product_coeffs(ell: int, m: int) -> tuple[int, ...]:
    """Coefficient vector of binom(m+ell, m)_q via the packed product formula."""
    a, b = min(ell, m), max(ell, m)
    n = a * b
    h = n // 2
    nbytes = _limb_bytes(_bound(a, b))
    half = _unpack(_half(a, b, nbytes), nbytes, h + 1)
    return half + half[n - h - 1 :: -1]


def _check_size(ell: int, m: int) -> None:
    """Raise ``ValueError`` for a box, ell, m >= 1, whose packed rising half
    would take more than ``EXPANSION_GUARD`` bytes."""
    # every limb takes a byte or more, so the first test bounds ell+m, and
    # with it the work of comb, before the second one calls it
    limbs = ell * m // 2 + 1
    if limbs > EXPANSION_GUARD or limbs * _limb_bytes(comb(ell + m, m)) > EXPANSION_GUARD:
        raise ValueError(
            f"box too large to expand: ell={ell} m={m} packs its rising half "
            f"in more than {EXPANSION_GUARD} bytes"
        )


def _agreeing(x: int, nbytes: int, bits: int, count: int) -> int:
    """Bit 2^bits of each limb k >= 2 of the ``count`` limbs of ``nbytes``
    bytes in ``x`` whose low ``bits`` < 8*nbytes bits equal limb k-1's,
    shifted past limbs 0 and 1; zero where no neighbours agree."""
    guard = _spread(1 << bits, nbytes, count)
    low = guard - (guard >> bits)
    limb = 8 * nbytes
    return (guard ^ ((((x ^ (x << limb)) & low) + low) & guard)) >> 2 * limb


def rising_stalls(ell: int, m: int) -> list[int]:
    """The k, 2 <= k <= floor(ell*m/2), where p_{k-1} = p_k in
    binom(m+ell, m)_q, for ell, m >= 1; by Sylvester's theorem the rising
    half never falls, so these are exactly its stalls.

    Each rung packs the rising half and marks the neighbours that agree
    in their low ``bits`` bits.  The residue rungs, modulo 2^R in limbs
    of W bytes for (W, R) in ``RESIDUE_RUNGS``, run in turn on boxes with
    sides of 5 or more, while the exact limbs take more than W bytes,
    and compare only limbs b+1..h; the first that marks none
    proves the box strict.  The exact rung marks the stalls themselves,
    which are read back.  No coefficient is unpacked.  A box that
    :func:`gaussian` refuses raises the same ``ValueError`` before any
    expansion.
    """
    _check_size(ell, m)
    a, b = min(ell, m), max(ell, m)
    h = a * b // 2
    # every coefficient stays below 2^(L-1): the spare top bit is the
    # exact rung's guard bit
    exact = _limb_bytes(2 * _bound(a, b))
    for nbytes, bits in RESIDUE_RUNGS:
        # every box with a side of 3 or 4 stalls: no residue rung clears it
        if a < 5 or exact <= nbytes:
            break
        # p_{k-1} < p_k for 2 <= k <= b, so only limbs b+1..h are
        # compared: limbs b-1..h shifted down to limb 0
        x = _half(a, b, nbytes, bits) >> 8 * nbytes * (b - 1)
        if not _agreeing(x, nbytes, bits, h - b + 2):
            return []
    agree = _agreeing(_half(a, b, exact), exact, 8 * exact - 1, h + 1)
    if not agree:
        return []
    # the top byte of each limb 2..h holds its mark
    marks = agree.to_bytes(exact * (h - 1), "little")[exact - 1 :: exact]
    return list(compress(range(2, h + 1), marks))


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
    _check_size(ell, m)
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
    # the oracle alone needs the partition layer, so the package loads it
    # only here
    from .partitions import parts_inside

    return QPolynomial(tuple(len(parts_inside((m,) * ell, k)) for k in range(ell * m + 1)))

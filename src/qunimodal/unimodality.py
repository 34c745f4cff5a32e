"""Strict unimodality of Gaussian binomial coefficient vectors.

Write p_k for coefficient k of binom(m+ell, m)_q and n = ell*m.  The
sequence is *strictly unimodal* when

    p_1 < p_2 < ... < p_{floor(n/2)} = p_{ceil(n/2)} > ... > p_{n-1},

i.e. strictly rising from index 1 to the middle and strictly falling
afterwards, with the middle equality required only for odd n (where it
is automatic, the vector being palindromic).  The chain starts at index
1 because p_0 = p_1 = 1 always.

``classify`` answers with a coarse class for every pair:

* min(ell, m) = 1: all coefficients equal 1 (``Trivial``);
* ell = m = 2: strict (``StrictSmall``);
* min = 2 otherwise: consecutive equal pairs p_{2i} = p_{2i+1} (``EllTwo``);
* min in {3, 4}: never strict (``EllThreeFour``);
* min >= 5: strict (``Strict``) except for exactly nine pairs where the
  chain stalls at the middle (``Exception``): eight have three equal
  middle coefficients, and (6, 6) has p_16 = p_17 = 55 < p_18 = 58 >
  p_19 = p_20 = 55, two equal pairs flanking a larger centre.

The min >= 5 answer is a registry lookup, not a per-pair certificate:
the nine exceptions are the window pairs the base registry build finds
non-strict, and every other pair is strict by the paper's recipe, which
the ``theorem``, ``leaves``, ``lemma12``, ``semigroup`` and
``certify-sweep`` claims check once.  So ``classify`` verifies nothing
per pair, and answers ``Strict`` also where ``certify`` refuses a table
of over ``MAX_NODES`` entries, as for (5, 2**5000 - 3).

``check_strict`` never unpacks the vector.  It takes the k with
p_{k-1} = p_k on the rising half from ``qbinomial.rising_stalls``, which
by Sylvester's theorem are exactly its stalls and are also the plateaus;
that docstring, and the ``qbinomial`` module docstring, say how they are
decided.

Behaviour for min(ell, m) = 1 is this library's own extension: the
boundary cases ell*m <= 3 make the defining chain vacuous and
``check_strict`` reports them as strict, while ``classify`` still
answers ``Trivial`` for every such pair.
"""

from __future__ import annotations

import enum
import operator
from typing import NamedTuple

# Not used in this module: perfbench/tracing.py wraps
# ``unimodality.gaussian``, and its traced run fails on a layer it cannot
# find.  Drop this import with the next change to the benchmark.
from .qbinomial import gaussian  # noqa: F401
from .qbinomial import rising_stalls

# The nine non-strict pairs with min(ell, m) >= 5, in (min, max) order.
# Used only as the expected failure set when building the certificate
# base registry, which raises if its direct checks disagree, and in
# reproduction harnesses; classification never reads it.
EXCEPTION_PAIRS: frozenset[tuple[int, int]] = frozenset(
    {(5, 6), (5, 10), (5, 14), (6, 6), (6, 7), (6, 9), (6, 11), (6, 13), (7, 10)}
)

# scan refuses a rectangle of more pairs than this, counted before any
# list or pair set is built.  On a 2-vCPU VM the 196 x 196 rectangle
# 5..200 x 5..200 takes about 0.2 s (median 0.18 s of five fresh
# processes, Python 3.11.7), and a full rectangle of 65,536 distinct
# pairs 0.6 to 0.8 s with a peak RSS of 33 MB.
SCAN_GUARD = 1 << 16


class PairClass(enum.Enum):
    Trivial = "Trivial"
    EllTwo = "EllTwo"
    StrictSmall = "StrictSmall"
    EllThreeFour = "EllThreeFour"
    Exception = "Exception"
    Strict = "Strict"


class UnimodalityReport(NamedTuple):
    """Outcome of a strictness check.

    ``plateaus`` lists the maximal intervals [a, b] with b > a and equal
    coefficients, restricted to indices 1..n-1.  ``first_violation`` is
    the smallest k >= 2 with p_{k-1} >= p_k on the rising side, or None
    when the rise is strict.
    """

    ell: int
    m: int
    n: int
    strict: bool
    plateaus: tuple[tuple[int, int], ...]
    first_violation: int | None


def check_strict(ell: int, m: int) -> UnimodalityReport:
    """Evaluate the strict unimodality chain for binom(m+ell, m)_q, reading
    the plateaus off the stalls too (equalities: Sylvester, O'Hara)."""
    ell, m = operator.index(ell), operator.index(m)
    if ell < 1 or m < 1:
        raise ValueError(f"need ell, m >= 1: got ell={ell} m={m}")
    n = ell * m
    half = n // 2

    # The vector is palindromic, so the middle equality for odd n and the
    # strict fall mirror the rise: the rising half decides the chain, by
    # its stalls p[k-1] >= p[k], 2 <= k <= half.
    stalls = rising_stalls(ell, m)
    first_violation = stalls[0] if stalls else None

    # Equal neighbours p[k] = p[k+1], 1 <= k <= n-2: palindromy maps k to
    # n-1-k, so the rising half's equalities (its stalls), the middle pair
    # forced equal for odd n, and their mirror images are all.
    low = [k - 1 for k in stalls]
    if n % 2 and half:
        low.append(half)
    plateaus: list[tuple[int, int]] = []
    for k in low + [n - 1 - k for k in reversed(low) if 2 * k < n - 1]:
        if plateaus and plateaus[-1][1] == k:
            plateaus[-1] = (plateaus[-1][0], k + 1)
        else:
            plateaus.append((k, k + 1))

    return UnimodalityReport(
        ell=ell,
        m=m,
        n=n,
        strict=first_violation is None,
        plateaus=tuple(plateaus),
        first_violation=first_violation,
    )


def classify(ell: int, m: int) -> PairClass:
    """Classify the pair; symmetric in ell and m.  A pair with min >= 5 is
    looked up in the registry window, with no certificate built: the
    ``theorem``, ``leaves``, ``lemma12``, ``semigroup`` and
    ``certify-sweep`` claims prove the recipe once."""
    ell, m = operator.index(ell), operator.index(m)
    if ell < 1 or m < 1:
        raise ValueError(f"need ell, m >= 1: got ell={ell} m={m}")
    a, b = min(ell, m), max(ell, m)
    if a == 1:
        return PairClass.Trivial
    if a == 2:
        return PairClass.StrictSmall if b == 2 else PairClass.EllTwo
    if a in (3, 4):
        return PairClass.EllThreeFour
    # Import here to avoid a module cycle (the certificate engine checks
    # its leaves with check_strict).
    from .certify import _exceptional, default_registry

    return PairClass.Exception if _exceptional(a, b, default_registry()) else PairClass.Strict


def _length(span: "range | list[int]") -> int:
    """len(span) in O(1), also for a range longer than sys.maxsize, where
    len raises OverflowError."""
    if isinstance(span, range):
        return max(0, -((span.start - span.stop) // span.step))
    return len(span)


def scan(
    ell_range: "range | list[int]", m_range: "range | list[int]"
) -> list[tuple[int, int, PairClass]]:
    """Classify every pair in the Cartesian product of the two ranges.

    Pairs are normalised to ell <= m, deduplicated, and returned sorted,
    so the output is deterministic regardless of range order.  A
    rectangle of more than ``SCAN_GUARD`` pairs raises ``ValueError``
    before any work.
    """
    rows, cols = _length(ell_range), _length(m_range)
    if rows * cols > SCAN_GUARD:
        raise ValueError(
            f"scan rectangle too large: {rows} x {cols} = {rows * cols} pairs, "
            f"more than {SCAN_GUARD}"
        )
    ells = list(ell_range)
    ms = list(m_range)
    if not ells or not ms:
        raise ValueError("scan ranges must be non-empty")
    pairs = sorted({(min(l, mm), max(l, mm)) for l in ells for mm in ms})
    return [(l, mm, classify(l, mm)) for l, mm in pairs]

"""Kronecker coefficients for symmetric group characters.

Two independent routes are implemented and kept separate on purpose.

The *two-row formula* computes g(lam, mu, (n-k, k)) as a_k - a_{k-1},
where a_k(lam, mu) sums c^lam_{alpha,beta} * c^mu_{alpha,beta} over all
alpha of size k and beta of size n-k, with a_{-1} = 0.  Since
s_{lam/alpha} = sum_beta c^lam_{alpha,beta} s_beta, only the alphas
inside both shapes count, and a_k is one sparse dot product of two
memoized tables, one per (shape, k), each mapping a small int id of
(alpha, beta) to c^shape_{alpha,beta}.  A table keeps the set of the
alphas inside its shape still to merge, listed as part tuples by
``partitions.parts_inside`` on its first call.  A call merges into each
table the skew tables of ``lr.skew`` for those inside lam and mu, and
no others: filling every alpha inside a wide shape would cost a narrow
partner many times its own work.  A table with no alpha left to merge
is complete, and a call on it is one dict lookup.  The dot product is
exact, as a pair in both tables has its alpha inside both shapes.  The
route builds no ``Partition`` object.  Only two-row third arguments are
reachable this way.

The *character oracle* evaluates

    g(lam, mu, nu) = (1/n!) * sum_rho |C_rho| chi^lam(rho) chi^mu(rho) chi^nu(rho)

with irreducible characters computed by the border strip recursion
(remove a strip whose size is the largest remaining cycle length, with
sign (-1)^(height-1), and recurse).  Strips are located on the abacus
of beta numbers, the first-column hook lengths b_i = lam_i + (L-1-i),
computed once per shape: removing a strip of size t moves one bead b
to a free place b - t >= 0, the sign is the parity of the beads it
passes, and the smaller shape is read off the moved beads.  Characters
are memoized once per shape, as the vector of chi^shape on every class
of S_n, aligned with ``partitions_of(n)``.  There the classes with
first part t form one block, and their remainders, rho minus its first
part, are in the same order the tail of ``partitions_of(n - t)`` with
no part above t.  So the block is the signed sum of that slice of each
smaller shape's vector, one per strip of size t, or zeros when there is
none.  One table per n, built in one pass over ``partitions_of(n)``,
holds these blocks and, in the same order as the classes, their sizes
by the centralizer order formula |C_rho| = n! / prod(i^{m_i} m_i!).

A character vector is a tuple of Python ints, memoized with its
support: an int whose byte i is 1 exactly when entry i is nonzero.  On
random triples each character is zero on about 36-39% of the classes,
and only about a third of the classes have all three nonzero (n = 12 to
18), so the sum ANDs the three supports, turns the result into
bytes once, and multiplies only on the classes ``itertools.compress``
keeps: the class size times the three characters, for every nu.
Python ints set no width limit; at n <= 18 the largest |chi| has 24
bits, and a process that fills every vector of every n <= 18 peaks at
about 20.7 MB resident.

The oracle refuses n above ``DEFAULT_ORACLE_BOUND`` (18).  For
rectangles the two routes are tied together by exact identities:
g(m^ell, m^ell, (n-k, k)) equals the difference p_k - p_{k-1} of
Gaussian binomial coefficients, which ``repro.repro_lemma12`` confirms
box by box.  ``semigroup_check`` samples pairs of positive triples and
confirms g is positive and monotone under part-wise addition; it works
on part tuples, builds ``Partition`` objects only for a violation, and
returns its counterexamples as a plain list, empty when the claim
holds.  A sample needs both of its triples positive, so the sampler
evaluates the triple of smaller size first, whose character sum runs
over fewer classes, and skips the larger one when the smaller reads 0.
Its draws are defined by ``getrandbits`` with rejection, which on
Python 3.10 to 3.12 gives the values ``randint`` and ``choice`` give
on the same ``random.Random`` stream.  Each shape is one such draw of
an index into the part tuples of the class table of n, the one table
per n that also holds the class sizes and blocks of the character
oracle; its tuples are those of ``partitions_of(n)``, in that order.
Every triple the sampler evaluates, the smaller, the larger and their
sum, goes through one LRU memo of the 4,096 triples used most
recently, which calls ``_g`` on a miss.  Over size-18 samples about
half of the evaluations are answered from it, nearly all of them at
n <= 7, where small triples recur across samples and seeds.
"""

from __future__ import annotations

import operator
import random
from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache
from itertools import compress, count, groupby, repeat
from math import factorial, prod
from operator import add, mul, sub

# Not used in this module: perfbench/tracing.py wraps ``kronecker.lr``
# and ``kronecker.gaussian``, and its traced run fails on a layer it
# cannot find.  Drop these two imports with the next change to the
# benchmark.
from .lr import lr  # noqa: F401
from .lr import check_size, skew
from .partitions import Partition, partitions_of, parts_inside
from .qbinomial import gaussian  # noqa: F401

# Largest n for which the character oracle will build rows; the full
# class list for S_18 is still comfortable, and every shipped check
# stays at or below it.
DEFAULT_ORACLE_BOUND = 18

# semigroup_check refuses more samples than this before drawing any; on a
# 2-vCPU Intel Xeon VM (Python 3.11.7) 10,000 samples at total size 18
# take 0.95-1.4 s in a fresh process (median 1.0 s of five).
MAX_SAMPLES = 10_000

_CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


class InternalConsistencyError(RuntimeError):
    """A mathematically guaranteed invariant failed inside a computation.

    Raised when exact arithmetic contradicts something that must hold
    (a negative two-row difference, a character sum not divisible by
    n!).  Reaching this means a bug, not a bad input.
    """


@lru_cache(maxsize=None)
def _char(shape: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """chi^shape on every class of S_n, aligned with ``partitions_of(n)``,
    and its support: an int whose byte i is 1 exactly when entry i is
    nonzero."""
    if not shape:
        return (1,), 1
    length = len(shape)
    # beta numbers in ascending order, the beads of the shape's abacus
    beads = [part + i for i, part in enumerate(reversed(shape))]
    places = range(length - 1, -1, -1)
    values = []
    for t, start, stop in _classes(sum(shape))[1]:
        block = repeat(0, stop - start)
        # a strip of size t: bead i moves down to a free place c, past
        # the beads j..i-1, and the sign is the parity of their count
        for i in range(bisect_left(beads, t), length):
            c = beads[i] - t
            j = bisect_left(beads, c)
            if beads[j] == c:
                continue
            moved = beads[:j] + [c] + beads[j:i] + beads[i + 1 :]
            smaller = tuple(filter(None, map(sub, reversed(moved), places)))
            block = map(sub if (i - j) % 2 else add, block, _char(smaller)[0][start:stop])
        values.extend(block)
    return tuple(values), int.from_bytes(bytes(map(bool, values)), "little")


@lru_cache(maxsize=64)
def _classes(
    n: int,
) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...], tuple[tuple[int, ...], ...]]:
    """The class sizes |C_rho| for rho in ``partitions_of(n)``, in that
    order; the blocks (t, start, stop) for t = n, ..., 1: the classes
    with first part t are consecutive, and their remainders (rho_2,
    rho_3, ...) are, in the same order, the entries [start, stop) of
    ``partitions_of(n - t)``: the suffix with no part above t; and the
    classes' part tuples, shared with ``partitions_of(n)``: the pool the
    sampler draws a shape from."""
    sizes, blocks, shapes = [], [], []
    for head, group in groupby(partitions_of(n), key=lambda rho: rho.parts[:1]):
        begin = len(sizes)
        for rho in group:
            shapes.append(rho.parts)
            z = 1
            for part in set(rho.parts):
                mult = rho.parts.count(part)
                z *= part**mult * factorial(mult)
            sizes.append(factorial(n) // z)
        # n = 0 has one class, the empty one, and no block
        for t in head:
            stop = len(partitions_of(n - t))
            blocks.append((t, stop - (len(sizes) - begin), stop))
    return tuple(sizes), tuple(blocks), tuple(shapes)


def g_oracle(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Kronecker coefficient by the character sum; exact or an error."""
    n = lam.size
    if mu.size != n or nu.size != n:
        raise ValueError(
            f"size mismatch: |{lam}| = {lam.size}, |{mu}| = {mu.size}, |{nu}| = {nu.size}"
        )
    if n > DEFAULT_ORACLE_BOUND:
        raise ValueError(f"character oracle limited to n <= {DEFAULT_ORACLE_BOUND}: got {n}")
    return _g(lam.parts, mu.parts, nu.parts)


def _g(lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]) -> int:
    """The character sum on the parts of three partitions of one n no
    larger than the oracle bound; the callers check both."""
    n = sum(lam)
    (a, a_support), (b, b_support), (c, c_support) = _char(lam), _char(mu), _char(nu)
    # only the classes where all three characters are nonzero add a term;
    # prod multiplies in machine words while the product fits in one
    keep = (a_support & b_support & c_support).to_bytes(len(a), "little")
    total = sum(map(prod, compress(zip(a, b, c, _classes(n)[0]), keep)))
    value, rem = divmod(total, factorial(n))
    if rem or value < 0:
        lam, mu, nu = map(Partition, (lam, mu, nu))
    if rem:
        raise InternalConsistencyError(
            f"character sum for g({lam},{mu},{nu}) is not divisible by {n}!"
        )
    if value < 0:
        raise InternalConsistencyError(f"negative g({lam},{mu},{nu}) = {value}")
    return value


def a_k(lam: Partition, mu: Partition, k: int) -> int:
    """sum over |alpha| = k, |beta| = n - k of c^lam_{alpha,beta} c^mu_{alpha,beta}."""
    n, k = lam.size, operator.index(k)
    if mu.size != n:
        raise ValueError(f"size mismatch: |{lam}| = {lam.size}, |{mu}| = {mu.size}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}: got {k}")
    check_size(lam)
    # a pair in both tables has its alpha inside both shapes, and every
    # alpha inside their intersection is merged into both
    lam, mu = lam.parts, mu.parts
    left, right = _tables(lam, k, mu), _tables(mu, k, lam)
    if len(left) > len(right):
        left, right = right, left
    return sum(map(mul, left.values(), map(right.get, left, repeat(0))))


class _PairTables:
    """The memo of ``a_k``: per (shape, k), {pair id of (alpha, beta):
    c^shape_{alpha,beta}} over the alphas of size k merged so far and the
    betas of each skew table.

    A table's state is one snapshot (coefficients, to-do), where to-do
    is the frozenset of the alphas of size k inside the shape still to
    merge, listed once, on the table's first call.  A call merges the
    to-do alphas inside both its shape and another, and no others; a
    table whose to-do set is empty is complete, and a call on it lists
    nothing: its coefficients are also published alone, under the same
    key, so the call is one dict lookup.

    A merge replaces the snapshot with a single assignment, never
    changing it in place, and a call returns the coefficients of the
    snapshot it read or merged into.  So no dot product sees a dict
    change under it, and of two merges that race on one table the
    published snapshot may still list the other's alphas as to do, which
    a later call merges again.  Pair ids are small ints, given once per
    (alpha, beta) and kept by ``cache_clear``, so a table built before a
    clear still agrees with one built after.  A hit is a call that
    publishes nothing, a miss one that publishes a snapshot; the counts
    are not locked and may lose a step when threads race.
    """

    def __init__(self) -> None:
        self._snapshots: dict = {}
        self._complete: dict = {}
        self._ids: dict = {}
        self._count = count()
        self._hits = self._misses = 0

    def __call__(self, shape: tuple[int, ...], k: int, other: tuple[int, ...]) -> dict[int, int]:
        coeffs = self._complete.get((shape, k))
        if coeffs is not None:
            self._hits += 1
            return coeffs
        snapshot = self._snapshots.get((shape, k))
        coeffs, todo = snapshot or ({}, frozenset(parts_inside(shape, k)))
        merging = todo and todo.intersection(parts_inside(tuple(map(min, shape, other)), k))
        if snapshot and not merging:
            self._hits += 1
            return coeffs
        self._misses += 1
        coeffs = dict(coeffs)
        for alpha in merging:
            table = skew(shape, alpha)
            # ids by alpha, then by beta, each given by one atomic
            # setdefault, so two threads keep one id; a pair seen before
            # spends a number of the count, unused
            ids = map(self._ids.setdefault(alpha, {}).setdefault, table, self._count)
            coeffs.update(zip(ids, table.values()))
        todo -= merging
        self._snapshots[shape, k] = (coeffs, todo)
        if not todo:
            self._complete[shape, k] = coeffs
        return coeffs

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, None, len(self._snapshots))

    def cache_clear(self) -> None:
        self._snapshots, self._complete = {}, {}
        self._hits = self._misses = 0


_tables = _PairTables()


def two_row(n: int, k: int) -> Partition:
    """The two-row partition (n-k, k); requires 0 <= k <= n/2."""
    k = operator.index(k)
    if not 0 <= 2 * k <= n:
        raise ValueError(f"need 0 <= k <= n/2 = {n / 2}: got k={k}")
    return Partition((n - k, k))


def g_two_row(lam: Partition, mu: Partition, k: int) -> int:
    """Kronecker coefficient g(lam, mu, (n-k, k)) = a_k - a_{k-1}."""
    n, k = lam.size, operator.index(k)
    if not 0 <= 2 * k <= n:
        raise ValueError(f"need 0 <= k <= n/2 = {n / 2}: got k={k}")
    value = a_k(lam, mu, k) - (a_k(lam, mu, k - 1) if k else 0)
    if value < 0:
        raise InternalConsistencyError(
            f"negative two-row difference g({lam},{mu},(n-{k},{k})) = {value}"
        )
    return value


def _below(getrandbits, n: int) -> int:
    """A value in [0, n), n >= 1, by ``getrandbits(n.bit_length())`` with
    rejection: the rule by which ``random.Random`` draws inside
    ``randrange``, ``randint`` and ``choice`` on Python 3.10 to 3.12, so
    one stream gives the same values either way."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


@lru_cache(maxsize=4096)
def _sampled(lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]) -> int:
    """``_g`` on a triple the sampler evaluates, kept for the 4,096
    triples used most recently.  A miss calls the module's ``_g`` by
    name, so a patched ``_g`` is reached once this memo is cleared.
    ``g_oracle`` and the two-row route do not read it."""
    return _g(lam, mu, nu)


def semigroup_check(
    samples: int, seed: int, max_total_size: int
) -> list[tuple[tuple[Partition, ...], tuple[Partition, ...], int, int, int]]:
    """Sample pairs of triples with positive Kronecker coefficient and
    check positivity and monotonicity of the part-wise sum triple.

    A sample is a pair of triples (lam, mu, nu) and (alpha, beta, gamma)
    with g > 0 for both and combined size at most ``max_total_size``,
    which the character oracle bounds by ``DEFAULT_ORACLE_BOUND``.
    More than ``MAX_SAMPLES`` samples raise ValueError before any is drawn.
    For each, g(lam+alpha, mu+beta, nu+gamma) must be at least
    max(g1, g2), in particular positive.  Returns the violations as
    (first, second, g_first, g_second, g_sum); expected empty.

    Each attempt draws both triples before any coefficient, then
    evaluates the triple of smaller size first (the second when
    n2 <= n1) and skips the larger when the smaller reads 0; the memo
    ``_sampled`` answers each triple.  The sizes n1, n2 and each
    shape's index in the part tuples of the class table ``_classes(n)``
    are drawn by ``getrandbits`` with rejection, as ``randint`` and
    ``choice`` draw on Python 3.10 to 3.12, so a seed gives the same
    samples as a loop written with them.
    """
    samples, max_total_size = operator.index(samples), operator.index(max_total_size)
    if not 0 <= samples <= MAX_SAMPLES:
        raise ValueError(f"need 0 <= samples <= {MAX_SAMPLES}: got {samples}")
    if not 2 <= max_total_size <= DEFAULT_ORACLE_BOUND:
        raise ValueError(
            f"need 2 <= max_total_size <= {DEFAULT_ORACLE_BOUND}: got {max_total_size}"
        )
    bits = random.Random(seed).getrandbits
    violations = []
    accepted = 0
    attempts = 0
    max_attempts = max(1, samples) * 400
    while accepted < samples:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError(
                f"sampling stalled: {accepted} accepted in {attempts} attempts"
            )
        n1 = 1 + _below(bits, max_total_size - 1)
        n2 = 1 + _below(bits, max_total_size - n1)
        pool1, pool2 = _classes(n1)[2], _classes(n2)[2]
        size1, size2 = len(pool1), len(pool2)
        first = pool1[_below(bits, size1)], pool1[_below(bits, size1)], pool1[_below(bits, size1)]
        second = pool2[_below(bits, size2)], pool2[_below(bits, size2)], pool2[_below(bits, size2)]
        # a sample needs both coefficients positive: the smaller triple's
        # sum is the cheaper one, so it goes first, and a 0 there skips
        # the larger
        if n2 <= n1:
            g2 = _sampled(*second)
            g1 = g2 and _sampled(*first)
        else:
            g1 = _sampled(*first)
            g2 = g1 and _sampled(*second)
        if g1 == 0 or g2 == 0:
            continue
        accepted += 1
        summed = (
            tuple(map(add, a, b)) + (a[len(b) :] or b[len(a) :]) for a, b in zip(first, second)
        )
        gs = _sampled(*summed)
        if gs <= 0 or gs < max(g1, g2):
            first, second = (tuple(map(Partition, triple)) for triple in (first, second))
            violations.append((first, second, g1, g2, gs))
    return violations

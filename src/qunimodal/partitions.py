"""Integer partitions.

A partition is a weakly decreasing tuple of positive parts; trailing
zeros are stripped on construction so that equal partitions compare and
hash equal.  ``Partition`` is the type of the public API; inside the
package the computations work on plain part tuples, and an ell x m box
is the cap ``(m,) * ell``.

One enumerator, ``parts_inside``, lists the part tuples of the
partitions of k inside a given cap.  The public ``partitions_inside``
and ``partitions_of`` (the n x n square, memoized per n) wrap its
results as ``Partition`` objects.
"""

from __future__ import annotations

import operator
from functools import lru_cache, total_ordering
from itertools import accumulate
from typing import Iterable, Iterator


@total_ordering
class Partition:
    """Weakly decreasing sequence of positive integer parts.

    ``Partition(())`` is the empty partition.  Parts are exposed as a
    plain tuple via ``.parts``; ``.size`` is the sum of the parts.
    """

    __slots__ = ("parts", "size")

    parts: tuple[int, ...]
    size: int

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(map(operator.index, parts))
        while ps and ps[-1] == 0:
            ps = ps[:-1]
        for i, p in enumerate(ps):
            if p < 1:
                raise ValueError(f"parts must be positive integers: {ps!r}")
            if i and ps[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing: {ps!r}")
        self.parts = ps
        self.size = sum(ps)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts == other.parts

    def __lt__(self, other: "Partition") -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts < other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def __str__(self) -> str:
        return format_partition(self)

    def contains(self, other: "Partition") -> bool:
        """Containment of Young diagrams, part by part."""
        if len(other.parts) > len(self.parts):
            return False
        return all(o <= s for s, o in zip(self.parts, other.parts))

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)


def parts_inside(cap: tuple[int, ...], k: int) -> tuple[tuple[int, ...], ...]:
    """The parts of every partition of ``k`` whose Young diagram lies
    inside the partition with parts ``cap``.

    The order is deterministic: lexicographically decreasing on the
    zero-padded part vectors, so e.g. (2,) precedes (1, 1).  A branch is
    cut as soon as the rows left cannot hold the cells still to place,
    either under ``cap`` or with no part above the one just placed.
    """
    if k < 0:
        raise ValueError(f"cannot partition a negative number: {k}")
    room = list(accumulate(reversed(cap), initial=0))[::-1]  # room[i] = sum(cap[i:])
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def rec(remaining: int, row: int, max_part: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if room[row] < remaining:
            return
        rows_left = len(cap) - row
        for part in range(min(max_part, cap[row], remaining), 0, -1):
            if part * rows_left < remaining:
                break
            prefix.append(part)
            rec(remaining - part, row + 1, part)
            prefix.pop()

    rec(k, 0, k)
    return tuple(out)


def partitions_inside(outer: Partition, k: int) -> list[Partition]:
    """All partitions of ``k`` inside ``outer``, in the order of :func:`parts_inside`."""
    return list(map(Partition, parts_inside(outer.parts, k)))


@lru_cache(maxsize=64)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of ``n``, lexicographically decreasing; memoized
    per ``n``, which is why the result is an immutable tuple."""
    return tuple(map(Partition, parts_inside((n,) * n, n)))


def parse_partition(text: str) -> Partition:
    """Parse the bracket syntax ``[4,2,1]``; ``[]`` is the empty partition."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"partition syntax is [a,b,...]: got {text!r}")
    inner = s[1:-1].strip()
    if not inner:
        return Partition()
    try:
        parts = [int(tok) for tok in inner.split(",")]
    except ValueError:
        raise ValueError(f"partition syntax is [a,b,...]: got {text!r}") from None
    return Partition(parts)


def format_partition(p: Partition) -> str:
    """Inverse of :func:`parse_partition`."""
    return "[" + ",".join(str(x) for x in p.parts) + "]"

"""Littlewood-Richardson coefficients by skew tableau enumeration.

``lr`` counts the LR skew tableaux of shape outer/left with content
right: fillings whose rows weakly increase left to right, whose columns
strictly increase top to bottom, and whose reverse reading word (rows
top to bottom, each row read right to left) is a lattice word, meaning
every prefix contains at least as many i's as (i+1)'s.

The search fills cells in reverse reading order, so the lattice
condition is checked incrementally and failing branches die early; the
multiset of still-unplaced values prunes the rest.  Results are
memoized on the (outer, left, right) triple.  Outer shapes of more than
``DEFAULT_SIZE_BOUND`` (60) cells are refused with ``ValueError``.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import Partition

# Refuse outer shapes with more cells than this; enumeration beyond it
# is not what this module is for.
DEFAULT_SIZE_BOUND = 60


def lr(outer: Partition, left: Partition, right: Partition) -> int:
    """The Littlewood-Richardson coefficient c^outer_{left,right}."""
    if outer.size > DEFAULT_SIZE_BOUND:
        raise ValueError(
            f"instance too large: size(outer) = {outer.size} exceeds bound {DEFAULT_SIZE_BOUND}"
        )
    if left.size + right.size != outer.size:
        return 0
    if not outer.contains(left):
        return 0
    return _lr_count(outer.parts, left.parts, right.parts)


@lru_cache(maxsize=None)
def _lr_count(outer: tuple[int, ...], left: tuple[int, ...], right: tuple[int, ...]) -> int:
    if not right:
        # empty content: only the empty filling, which exists iff the
        # skew shape has no cells; sizes were checked by the caller
        return 1
    nrows = len(outer)
    inner = left + (0,) * (nrows - len(left))
    # cells in reverse reading order: top row first, right to left
    cells = [(r, c) for r in range(nrows) for c in range(outer[r] - 1, inner[r] - 1, -1)]
    nvals = len(right)
    remaining = list(right)
    counts = [0] * (nvals + 2)  # counts[v] = placed copies of v; counts[0] unused
    grid = [dict() for _ in range(nrows)]  # grid[r][c] = value

    def fill(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        lo = 1
        if r > 0 and c < outer[r - 1] and c >= inner[r - 1]:
            lo = grid[r - 1][c] + 1  # column strictly increases
        hi = nvals
        if c + 1 < outer[r]:
            hi = grid[r][c + 1]  # rows weakly increase; right neighbour filled first
        total = 0
        for v in range(lo, hi + 1):
            if remaining[v - 1] == 0:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue  # placing v here would break the lattice prefix
            grid[r][c] = v
            counts[v] += 1
            remaining[v - 1] -= 1
            total += fill(idx + 1)
            remaining[v - 1] += 1
            counts[v] -= 1
        if c in grid[r]:
            del grid[r][c]
        return total

    return fill(0)

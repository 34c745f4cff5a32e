"""Littlewood-Richardson coefficients by skew tableau enumeration.

``lr`` counts the LR skew tableaux of shape outer/left with content
right: fillings whose rows weakly increase left to right, whose columns
strictly increase top to bottom, and whose reverse reading word (rows
top to bottom, each row read right to left) is a lattice word, meaning
every prefix contains at least as many i's as (i+1)'s.

One filler, ``_fill``, fills cells in reverse reading order, so the
lattice condition is checked incrementally and failing branches die
early.  It first lists each cell's neighbour above and to the right,
both filled before it, which bound its value from below and above.  A
value goes in only while fewer copies of it are placed than its cap.
Given a content, the caps are the content, which prunes every other
content; given none, each value up to the number of rows may fill every
cell, so the filler enumerates each lattice-word filling of the skew
shape once and counts them by content, which is the skew expansion
s_{outer/inner} = sum_beta c^outer_{inner,beta} s_beta.  Neither ``lr``
nor ``skew`` keeps a memo: the two-row formula reads each skew table
once, into its own tables per (shape, k) (see ``kronecker``).  Outer
shapes of more than ``DEFAULT_SIZE_BOUND`` (60) cells are refused with
``ValueError`` by ``lr`` and by ``check_size``, which callers of
``skew`` run first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .partitions import Partition

# Refuse outer shapes with more cells than this; enumeration beyond it
# is not what this module is for.
DEFAULT_SIZE_BOUND = 60


def check_size(outer: Partition) -> None:
    """Refuse an outer shape of more than ``DEFAULT_SIZE_BOUND`` cells."""
    if outer.size > DEFAULT_SIZE_BOUND:
        raise ValueError(
            f"instance too large: size(outer) = {outer.size} exceeds bound {DEFAULT_SIZE_BOUND}"
        )


def lr(outer: Partition, left: Partition, right: Partition) -> int:
    """The Littlewood-Richardson coefficient c^outer_{left,right}."""
    check_size(outer)
    if left.size + right.size != outer.size:
        return 0
    if not outer.contains(left):
        return 0
    return _fill(outer.parts, left.parts, right.parts).get(right.parts, 0)


def skew(outer: tuple[int, ...], inner: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """{beta: c^outer_{inner,beta}} over the beta whose coefficient is
    nonzero, all as parts tuples, for ``inner`` inside ``outer``: the skew
    expansion of outer/inner.  The caller keeps to ``check_size``."""
    return _fill(outer, inner, None)


def _fill(
    outer: tuple[int, ...], inner: tuple[int, ...], content: tuple[int, ...] | None
) -> dict[tuple[int, ...], int]:
    """The LR fillings of outer/inner counted by content; only ``content``
    when one is given, every content when it is None.  Value v goes in a
    cell while fewer than cap[v-1] copies of it are placed and the lattice
    prefix holds, where cap is the content, or the number of cells for each
    value up to the number of rows when there is none.  Sizes and containment were checked
    by the caller."""
    nrows = len(outer)
    inner = inner + (0,) * (nrows - len(inner))
    # cells in reverse reading order: top row first, right to left
    cells = [(r, c) for r in range(nrows) for c in range(outer[r] - 1, inner[r] - 1, -1)]
    index = {cell: i for i, cell in enumerate(cells)}
    # each cell's (cell above, right neighbour), -1 where outside outer/inner
    links = [(index.get((r - 1, c), -1), index.get((r, c + 1), -1)) for r, c in cells]
    cap = (len(cells),) * nrows if content is None else content
    values = [0] * len(cells)
    # counts[v] = placed copies of v; counts[0] exceeds every count, so the
    # lattice test counts[v] < counts[v-1] always admits a 1
    counts = [len(cells) + 1] + [0] * (len(cap) + 1)
    table: dict[tuple[int, ...], int] = {}

    def fill(idx: int) -> None:
        if idx == len(cells):
            # a lattice word: counts[1:] is weakly decreasing, so the
            # content ends at the first zero
            key = tuple(counts[1 : counts.index(0, 1)])
            table[key] = table.get(key, 0) + 1
            return
        up, right = links[idx]
        lo = values[up] + 1 if up >= 0 else 1  # columns strictly increase
        hi = values[right] if right >= 0 else len(cap)  # rows weakly increase
        for v in range(lo, hi + 1):
            if counts[v] < cap[v - 1] and counts[v] < counts[v - 1]:
                values[idx] = v
                counts[v] += 1
                fill(idx + 1)
                counts[v] -= 1

    fill(0)
    return table

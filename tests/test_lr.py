import importlib
from math import comb, factorial

import pytest

from qunimodal import Partition, lr, partitions_inside, partitions_of
from qunimodal.lr import _fill, skew


def _hook_dimension(p: Partition) -> int:
    """Number of standard tableaux of shape p, by the hook length product."""
    n = p.size
    if n == 0:
        return 1
    conj = p.conjugate().parts
    hooks = 1
    for r, row in enumerate(p.parts):
        for c in range(row):
            hooks *= (row - c) + (conj[c] - r) - 1
    q, rem = divmod(factorial(n), hooks)
    assert rem == 0
    return q


def _complement_by_rotation(p: Partition, rows: int, cols: int) -> Partition:
    # take the cell set, rotate the unused cells 180 degrees in the box
    cells = {(r, c) for r, row in enumerate(p.parts) for c in range(row)}
    rest = {
        (rows - 1 - r, cols - 1 - c)
        for r in range(rows)
        for c in range(cols)
        if (r, c) not in cells
    }
    counts = [0] * rows
    for r, _ in rest:
        counts[r] += 1
    return Partition(counts)


def _check_rectangle_rule(rows: int, cols: int) -> None:
    # c^{rect}_{left,right} is 1 exactly when right is the complement of
    # left in the rows x cols box, and 0 otherwise
    rect = Partition((cols,) * rows)
    for k in range(rect.size + 1):
        for left in partitions_of(k):
            fits = len(left) <= rows and (not left or left[0] <= cols)
            comp = _complement_by_rotation(left, rows, cols) if fits else None
            for right in partitions_of(rect.size - k):
                assert lr(rect, left, right) == (right == comp), (left, right)


def _reference_fill(outer, inner, content):
    """The LR filler as it was before cells were linked to their
    neighbours: per-row grids of placed values, a geometry test per cell
    and a count of the values still to place."""
    nrows = len(outer)
    inner = inner + (0,) * (nrows - len(inner))
    cells = [(r, c) for r in range(nrows) for c in range(outer[r] - 1, inner[r] - 1, -1)]
    ncells = len(cells)
    if content is None:
        nvals, remaining = nrows, [ncells] * nrows
    else:
        nvals, remaining = len(content), list(content)
    counts = [0] * (nvals + 2)
    grid = [dict() for _ in range(nrows)]
    table = {}

    def fill(idx):
        if idx == ncells:
            key = tuple(counts[1 : counts.index(0, 1)])
            table[key] = table.get(key, 0) + 1
            return
        r, c = cells[idx]
        lo = 1
        if r > 0 and c < outer[r - 1] and c >= inner[r - 1]:
            lo = grid[r - 1][c] + 1
        hi = nvals
        if c + 1 < outer[r]:
            hi = grid[r][c + 1]
        for v in range(lo, hi + 1):
            if remaining[v - 1] == 0:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue
            grid[r][c] = v
            counts[v] += 1
            remaining[v - 1] -= 1
            fill(idx + 1)
            remaining[v - 1] += 1
            counts[v] -= 1

    fill(0)
    return table


def _count(outer, left, right) -> int:
    return lr(Partition(outer), Partition(left), Partition(right))


def test_frozen_values():
    assert _count((4, 2), (2, 1), (2, 1)) == 1
    assert _count((3, 2, 1), (2, 1), (2, 1)) == 2
    assert _count((2, 1), (1,), (1, 1)) == 1
    assert _count((6,), (3,), (3,)) == 1
    assert _count((3, 3), (2, 1), (2, 1)) == 1
    # complementary pair inside a rectangle counts once, otherwise zero
    assert _count((2, 2), (1,), (2, 1)) == 1
    assert _count((2, 2), (2,), (1, 1)) == 0


def test_zero_when_sizes_mismatch():
    assert _count((4, 2), (2, 1), (1,)) == 0


def test_zero_when_inner_not_contained():
    assert _count((2, 2, 2), (3,), (3,)) == 0


def test_trivial_cases():
    assert _count((), (), ()) == 1
    assert _count((3, 1), (3, 1), ()) == 1
    assert _count((3, 1), (), (3, 1)) == 1


def test_single_row_pieri():
    # adding a single row: coefficient is 1 exactly on horizontal strips
    assert _count((4, 2), (3, 2), (1,)) == 1
    assert _count((3, 3), (3, 2), (1,)) == 1
    assert _count((2, 1, 1), (1,), (2,)) == 0  # added cells stack in one column
    assert _count((4, 1), (2, 1), (2,)) == 1


def test_symmetric_in_the_two_inner_shapes():
    for n in range(0, 7):
        outers = partitions_of(n)
        for k in range(n + 1):
            for left in partitions_of(k):
                for right in partitions_of(n - k):
                    for outer in outers:
                        assert _count(outer.parts, left.parts, right.parts) == _count(
                            outer.parts, right.parts, left.parts
                        )


def test_conjugation_invariance():
    for n in range(0, 7):
        for k in range(n + 1):
            for left in partitions_of(k):
                for right in partitions_of(n - k):
                    for outer in partitions_of(n):
                        direct = _count(outer.parts, left.parts, right.parts)
                        flipped = lr(outer.conjugate(), left.conjugate(), right.conjugate())
                        assert direct == flipped


@pytest.mark.parametrize("k,n", [(1, 4), (2, 5), (3, 6), (2, 7)])
def test_dimension_identity(k, n):
    # sum over outer of c * dim(outer) = binom(n, k) dim(left) dim(right)
    for left in partitions_of(k):
        for right in partitions_of(n - k):
            total = sum(
                _count(outer.parts, left.parts, right.parts) * _hook_dimension(outer)
                for outer in partitions_of(n)
            )
            expected = comb(n, k) * _hook_dimension(left) * _hook_dimension(right)
            assert total == expected


def test_rectangle_complement_rule():
    _check_rectangle_rule(3, 4)


def test_rectangle_rule_frozen_values():
    assert lr(Partition((2, 2)), Partition((1,)), Partition((2, 1))) == 1
    assert lr(Partition((2, 2)), Partition((1,)), Partition((1, 1, 1))) == 0
    assert lr(Partition((3, 3, 3)), Partition((3, 1)), Partition((3, 2))) == 1
    assert lr(Partition((4, 4, 4)), Partition((3, 1)), Partition((4, 3, 1))) == 1


def test_rectangle_rule_matches_general_count():
    _check_rectangle_rule(2, 3)


def test_size_bound_guard():
    big = Partition((20, 20, 20, 1))
    with pytest.raises(ValueError, match="size\\(outer\\) = 61 exceeds bound 60$"):
        lr(big, Partition((30, 1)), Partition((30,)))
    # the bound itself is allowed
    assert lr(Partition((20, 20, 20)), Partition((20, 20)), Partition((20,))) == 1


def test_skew_tables_match_fixed_content_counts():
    # second route to each skew table: the fixed-content count of every
    # beta of the right size, so a beta missing from a table has lr == 0
    for n in range(10):
        for outer in partitions_of(n):
            for k in range(n + 1):
                betas = partitions_of(n - k)
                for inner in partitions_inside(outer, k):
                    table = skew(outer.parts, inner.parts)
                    assert set(table) <= {beta.parts for beta in betas}
                    assert all(count > 0 for count in table.values())
                    for beta in betas:
                        assert table.get(beta.parts, 0) == lr(outer, inner, beta)


def test_fill_matches_the_reference_filler():
    # every skew shape outer/inner with |outer| <= 11, with no content;
    # then every second shape with each content its table lists, and one
    # content of the right size that it lacks, whose count is none
    shapes = [
        (outer.parts, inner.parts)
        for n in range(12)
        for outer in partitions_of(n)
        for k in range(n + 1)
        for inner in partitions_inside(outer, k)
    ]
    assert len(shapes) == 5089
    tables = []
    for outer, inner in shapes:
        table = _reference_fill(outer, inner, None)
        assert _fill(outer, inner, None) == table, (outer, inner)
        tables.append(table)
    absent = 0
    for (outer, inner), table in list(zip(shapes, tables))[::2]:
        for content, count in table.items():
            assert _fill(outer, inner, content) == {content: count}, (outer, inner, content)
            assert _reference_fill(outer, inner, content) == {content: count}
        size = sum(outer) - sum(inner)
        lacking = [beta.parts for beta in partitions_of(size) if beta.parts not in table]
        if lacking:
            absent += 1
            assert _fill(outer, inner, lacking[0]) == {} == _reference_fill(outer, inner, lacking[0])
    assert absent == 2057


def test_single_queries_keep_the_fixed_content_count(monkeypatch):
    # one lr query counts its own content, not the whole skew table
    lr_module = importlib.import_module("qunimodal.lr")
    fill, contents = lr_module._fill, []

    def recording(outer, inner, content):
        contents.append(content)
        return fill(outer, inner, content)

    monkeypatch.setattr(lr_module, "_fill", recording)
    assert lr(Partition((5, 4, 3, 2, 1)), Partition((3, 2, 1)), Partition((4, 3, 2))) == 6
    assert contents == [(4, 3, 2)]

import pytest

from qunimodal import (
    Box,
    Partition,
    add,
    complement_in_box,
    enumerate_in_box,
    fits_in_box,
    format_partition,
    parse_partition,
    partitions_inside,
    partitions_of,
    rectangle,
)


def test_constructor_strips_trailing_zeros():
    assert Partition((3, 1, 0, 0)).parts == (3, 1)
    assert Partition(()).parts == ()
    assert Partition((0, 0)).parts == ()


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((3, -1))


def test_size_and_len():
    p = Partition((4, 2, 1))
    assert p.size == 7
    assert len(p.parts) == 3
    assert Partition(()).size == 0


def test_ordering_is_lexicographic_on_padded_parts():
    assert Partition((3, 1)) > Partition((2, 2))
    assert Partition((2, 2)) > Partition((2, 1, 1))
    assert sorted([Partition((1, 1)), Partition((2,))]) == [
        Partition((1, 1)),
        Partition((2,)),
    ]


def test_padded():
    assert Partition((3, 1)).padded(4) == (3, 1, 0, 0)
    with pytest.raises(ValueError):
        Partition((3, 1, 1)).padded(2)


def test_contains():
    assert Partition((4, 2)).contains(Partition((3, 2)))
    assert Partition((4, 2)).contains(Partition(()))
    assert not Partition((4, 2)).contains(Partition((4, 3)))
    assert not Partition((4, 2)).contains(Partition((1, 1, 1)))


def test_conjugate():
    assert Partition((4, 2, 1)).conjugate() == Partition((3, 2, 1, 1))
    assert Partition(()).conjugate() == Partition(())
    # conjugation is an involution
    for p in partitions_of(6):
        assert p.conjugate().conjugate() == p


def test_str_round_trip():
    for text in ("[]", "[5]", "[4,2,1]"):
        assert format_partition(parse_partition(text)) == text


def test_parse_rejects_garbage():
    for text in ("", "4,2", "[4,2", "[2,4]", "[a]", "[4, -2]"):
        with pytest.raises(ValueError):
            parse_partition(text)


def test_rectangle_and_fits():
    box = Box(3, 4)
    assert rectangle(box) == Partition((4, 4, 4))
    assert fits_in_box(Partition((4, 2)), box)
    assert not fits_in_box(Partition((5,)), box)
    assert not fits_in_box(Partition((1, 1, 1, 1)), box)


def test_box_rejects_degenerate():
    with pytest.raises(ValueError):
        Box(0, 4)
    with pytest.raises(ValueError):
        Box(3, -1)


def _complement_by_rotation(p: Partition, box: Box) -> Partition:
    # independent route: take the cell set, rotate 180 degrees in the box
    cells = {(r, c) for r in range(box.rows) for c in range(p.padded(box.rows)[r])}
    rest = {
        (box.rows - 1 - r, box.cols - 1 - c)
        for r in range(box.rows)
        for c in range(box.cols)
        if (r, c) not in cells
    }
    rows = [0] * box.rows
    for r, _ in rest:
        rows[r] += 1
    return Partition(tuple(rows))


@pytest.mark.parametrize("rows,cols", [(2, 2), (3, 4), (4, 3), (1, 5)])
def test_complement_matches_rotation_oracle(rows, cols):
    box = Box(rows, cols)
    for k in range(rows * cols + 1):
        for p in enumerate_in_box(box, k):
            assert complement_in_box(p, box) == _complement_by_rotation(p, box)


def test_complement_frozen_value():
    assert complement_in_box(Partition((3, 1)), Box(3, 4)) == Partition((4, 3, 1))


def test_complement_requires_fit():
    with pytest.raises(ValueError):
        complement_in_box(Partition((5,)), Box(2, 4))


def test_complement_is_involution_and_size_balanced():
    box = Box(3, 3)
    for k in range(10):
        for p in enumerate_in_box(box, k):
            comp = complement_in_box(p, box)
            assert p.size + comp.size == box.cells
            assert complement_in_box(comp, box) == p


def test_add_partwise():
    assert add(Partition((3, 1)), Partition((2, 2, 1))) == Partition((5, 3, 1))
    assert add(Partition(()), Partition((2,))) == Partition((2,))


def test_enumerate_in_box_counts_and_order():
    got = enumerate_in_box(Box(2, 2), 2)
    assert got == [Partition((2,)), Partition((1, 1))]
    # all results distinct, inside the box, of the right size
    box = Box(3, 4)
    for k in range(box.cells + 1):
        items = enumerate_in_box(box, k)
        assert len(set(items)) == len(items)
        for p in items:
            assert p.size == k and fits_in_box(p, box)


def test_enumerate_in_box_out_of_range():
    assert enumerate_in_box(Box(2, 2), 5) == []
    with pytest.raises(ValueError):
        enumerate_in_box(Box(2, 2), -1)


def test_partitions_of_counts():
    # partition numbers 1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, count in enumerate(expected):
        assert len(partitions_of(n)) == count


def test_partitions_of_five_frozen():
    assert [format_partition(p) for p in partitions_of(5)] == [
        "[5]",
        "[4,1]",
        "[3,2]",
        "[3,1,1]",
        "[2,2,1]",
        "[2,1,1,1]",
        "[1,1,1,1,1]",
    ]


def test_partitions_inside_is_the_filtered_enumeration():
    for size in range(11):
        for outer in partitions_of(size):
            for k in range(size + 2):
                expected = [p for p in partitions_of(k) if outer.contains(p)]
                assert partitions_inside(outer, k) == expected


def test_partitions_inside_rejects_negative_size():
    with pytest.raises(ValueError):
        partitions_inside(Partition((3, 1)), -1)

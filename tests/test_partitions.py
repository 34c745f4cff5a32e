import pytest

from qunimodal import (
    Partition,
    format_partition,
    parse_partition,
    partitions_inside,
    partitions_of,
)
from qunimodal.partitions import parts_inside


def test_constructor_strips_trailing_zeros():
    assert Partition((3, 1, 0, 0)).parts == (3, 1)
    assert Partition(()).parts == ()
    assert Partition((0, 0)).parts == ()


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((3, -1))


def test_constructor_rejects_non_integers():
    # parts are coerced by operator.index, so nothing is truncated or parsed
    for parts in ((2.7, 1.2), (2.0,), ("3",)):
        with pytest.raises(TypeError):
            Partition(parts)


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
    # a 3 x 4 box is the rectangle (4, 4, 4); fitting in it is containment
    box = Partition((4,) * 3)
    assert box.parts == (4, 4, 4)
    assert box.contains(Partition((4, 2)))
    assert not box.contains(Partition((5,)))
    assert not box.contains(Partition((1, 1, 1, 1)))


def test_enumerate_in_box_counts_and_order():
    # an ell x m box is the rectangular partition (m,) * ell
    got = partitions_inside(Partition((2, 2)), 2)
    assert got == [Partition((2,)), Partition((1, 1))]
    # all results distinct, inside the 3 x 4 box, of the right size
    for k in range(13):
        items = partitions_inside(Partition((4, 4, 4)), k)
        assert len(set(items)) == len(items)
        for p in items:
            assert p.size == k and len(p) <= 3 and (not p or p[0] <= 4)


def test_enumerate_in_box_out_of_range():
    assert partitions_inside(Partition((2, 2)), 5) == []
    with pytest.raises(ValueError):
        partitions_inside(Partition((2, 2)), -1)


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


def test_parts_inside_is_the_filtered_enumeration_on_tuples():
    # every cap of size <= 7, the empty cap and k = 0 included; the public
    # enumerator is the tuple one with each result wrapped
    for size in range(8):
        for outer in partitions_of(size):
            for k in range(size + 2):
                got = parts_inside(outer.parts, k)
                assert type(got) is tuple and all(type(p) is tuple for p in got)
                assert got == tuple(p.parts for p in partitions_of(k) if outer.contains(p))
                assert partitions_inside(outer, k) == [Partition(p) for p in got]
    assert parts_inside((), 0) == ((),)
    assert parts_inside((), 1) == ()
    with pytest.raises(ValueError):
        parts_inside((3, 1), -1)

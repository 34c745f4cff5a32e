import importlib
import operator
import random
import tracemalloc
from itertools import compress

import pytest

from qunimodal import (
    EXCEPTION_PAIRS,
    NotCertifiableError,
    PairClass,
    certify,
    check_strict,
    classify,
    default_registry,
    gaussian,
    scan,
    unimodality,
    verify,
)
from qunimodal.qbinomial import rising_stalls
from qunimodal.unimodality import UnimodalityReport

NINE = sorted(
    [(5, 6), (5, 10), (5, 14), (6, 6), (6, 7), (6, 9), (6, 11), (6, 13), (7, 10)]
)


def test_exception_constant_matches_frozen_list():
    assert sorted(EXCEPTION_PAIRS) == NINE


def test_strict_small_case():
    rep = check_strict(2, 2)
    assert rep.strict
    assert rep.plateaus == ()
    assert rep.first_violation is None


def test_five_six_report():
    rep = check_strict(5, 6)
    assert not rep.strict
    assert rep.n == 30
    assert rep.plateaus == ((14, 16),)
    assert rep.first_violation == 15


def test_six_six_report():
    # the one exceptional pair whose equalities flank a strictly larger centre
    rep = check_strict(6, 6)
    assert not rep.strict
    assert rep.plateaus == ((16, 17), (19, 20))
    assert rep.first_violation == 17
    coeffs = gaussian(6, 6).coeffs
    assert coeffs[16] == coeffs[17] == 55
    assert coeffs[18] == 58
    assert coeffs[19] == coeffs[20] == 55


def test_other_exceptions_fail_at_middle_three():
    for ell, m in NINE:
        if (ell, m) == (6, 6):
            continue
        rep = check_strict(ell, m)
        half = rep.n // 2
        assert not rep.strict
        assert rep.plateaus == ((half - 1, half + 1),)
        assert rep.first_violation == half


def test_odd_degree_middle_equality_is_required_not_flagged():
    # for odd n the equality p_{(n-1)/2} = p_{(n+1)/2} is forced by symmetry
    rep = check_strict(5, 5)
    assert rep.n == 25
    assert rep.strict
    assert rep.plateaus == ((12, 13),)
    assert rep.first_violation is None


def test_report_matches_raw_coefficients():
    # the whole defining chain (strict rise, middle equality for odd n,
    # strict fall) against check_strict, which reads only the rise
    for ell in range(1, 41):
        for m in range(1, 41):
            coeffs = gaussian(ell, m).coeffs
            n = ell * m
            rising = all(coeffs[k - 1] < coeffs[k] for k in range(2, n // 2 + 1))
            falling = all(coeffs[k - 1] > coeffs[k] for k in range(n // 2 + 1 + (n % 2), n))
            middle = n % 2 == 0 or coeffs[n // 2] == coeffs[n // 2 + 1]
            assert check_strict(ell, m).strict == (rising and falling and middle), (ell, m)


def _reference_report(coeffs):
    """first_violation and plateaus by plain loops over the whole vector."""
    n = len(coeffs) - 1
    first_violation = None
    for k in range(2, n // 2 + 1):
        if coeffs[k - 1] >= coeffs[k]:
            first_violation = k
            break
    plateaus = []
    k = 1
    while k < n - 1:
        j = k
        while j + 1 <= n - 1 and coeffs[j + 1] == coeffs[k]:
            j += 1
        if j > k:
            plateaus.append((k, j))
        k = j + 1
    return first_violation is None, tuple(plateaus), first_violation


@pytest.mark.parametrize(
    "boxes",
    [
        [(ell, m) for ell in range(1, 41) for m in range(1, 41)],
        [(2, 500), (3, 400), (4, 300), (5, 400), (6, 6)],
    ],
    ids=["grid-40", "thin-and-six-six"],
)
def test_report_matches_reference_loops(boxes):
    for ell, m in boxes:
        rep = check_strict(ell, m)
        expected = _reference_report(gaussian(ell, m).coeffs)
        assert (rep.strict, rep.plateaus, rep.first_violation) == expected, (ell, m)


def _two_scan_report(ell, m):
    """check_strict as it was before its single scan: a >= scan of the
    rising half for the first violation, then a second == scan for the
    equal neighbours."""
    c = gaussian(ell, m).coeffs
    n = ell * m
    half = n // 2
    stalls = map(operator.ge, c[1:half], c[2 : half + 1])
    first_violation = next(compress(range(2, half + 1), stalls), None)
    mid = (n - 1) // 2
    low = list(compress(range(1, mid + 1), map(operator.eq, c[1 : mid + 1], c[2 : mid + 2])))
    plateaus = []
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


# the pairs that repro_exceptions checks directly, (6, 6) among them
REPRO_WINDOW = [(l, m) for l in range(5, 8) for m in range(l, 21)] + [
    (l, m) for l in range(8, 16) for m in range(l, 16)
]


@pytest.mark.parametrize(
    "boxes",
    [
        [(ell, m) for ell in range(1, 41) for m in range(1, 41)],
        REPRO_WINDOW,
        [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)],
    ],
    ids=["grid-40", "repro-window", "area-at-most-3"],
)
def test_single_scan_matches_the_two_scan_reference(boxes):
    for ell, m in boxes:
        assert check_strict(ell, m) == _two_scan_report(ell, m), (ell, m)


def _unpack_and_scan_report(ell, m):
    """check_strict as it was before the limb-wise compares: the whole
    vector unpacked, then one scan of its rising half."""
    c = gaussian(ell, m).coeffs
    n = ell * m
    half = n // 2
    stalls = list(compress(range(2, half + 1), map(operator.ge, c[1:half], c[2 : half + 1])))
    first_violation = stalls[0] if stalls else None
    low = [k - 1 for k in stalls if c[k - 1] == c[k]]
    if n % 2 and half:
        low.append(half)
    plateaus = []
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


# boxes of side 1 or 2 stall at every index or every second one, those of
# side 3 or 4 at their centre; (7, 163) and (45, 45) are among the boxes
# whose B(a, b) fills whole bytes, so the compare widens their limbs for a
# spare bit
@pytest.mark.parametrize(
    "boxes",
    [
        [(ell, m) for ell in range(1, 61) for m in range(1, 61)],
        [(1, 999), (1, 5000), (2, 2001), (2, 20000), (3, 400), (4, 300), (4, 3000)],
        NINE,
        [(6, 8), (45, 8), (7, 163), (40, 41), (45, 45), (41, 42), (9, 730)],
        [(5, 400), (109, 110), (12, 1175)],
    ],
    ids=["grid-60", "min-at-most-4", "nine-exceptions", "limb-edge", "large"],
)
def test_limb_compares_match_the_unpack_and_scan_reference(boxes):
    for ell, m in boxes:
        assert check_strict(ell, m) == _unpack_and_scan_report(ell, m), (ell, m)


def test_plateaus_are_real_equal_runs():
    for ell, m in [(3, 5), (4, 7), (6, 6)]:
        rep = check_strict(ell, m)
        coeffs = gaussian(ell, m).coeffs
        for a, b in rep.plateaus:
            assert b > a
            assert len({coeffs[k] for k in range(a, b + 1)}) == 1
            # maximal: neighbours outside the run differ
            if a > 1:
                assert coeffs[a - 1] != coeffs[a]
            if b < ell * m - 1:
                assert coeffs[b + 1] != coeffs[b]


def test_min_one_is_vacuously_strict_for_tiny_boxes():
    # ell = 1 gives the all-ones vector; the chain between index 1 and
    # n-1 is empty for n <= 3, so the predicate holds vacuously
    assert check_strict(1, 2).strict
    assert check_strict(1, 3).strict
    assert not check_strict(1, 4).strict


def test_classify_small_families():
    assert classify(1, 17) is PairClass.Trivial
    assert classify(17, 1) is PairClass.Trivial
    assert classify(2, 2) is PairClass.StrictSmall
    assert classify(2, 11) is PairClass.EllTwo
    assert classify(11, 2) is PairClass.EllTwo
    assert classify(3, 19) is PairClass.EllThreeFour
    assert classify(4, 4) is PairClass.EllThreeFour


def test_classify_exceptions_and_strict():
    for ell, m in NINE:
        assert classify(ell, m) is PairClass.Exception
        assert classify(m, ell) is PairClass.Exception
    for ell, m in [(5, 5), (5, 7), (8, 8), (7, 20), (25, 25), (5, 21), (16, 16), (60, 60)]:
        assert classify(ell, m) is PairClass.Strict
        assert classify(m, ell) is PairClass.Strict


def test_classify_expands_nothing_beyond_the_registry_window(monkeypatch, fresh_verdicts):
    # once the registry is built, classify is a lookup: it expands no
    # pair, inside the window or beyond it
    default_registry()
    expanded = []

    def recording(ell, m):
        expanded.append((ell, m))
        return rising_stalls(ell, m)

    monkeypatch.setattr("qunimodal.unimodality.rising_stalls", recording)
    for ell, m in [(16, 16), (5, 21), (60, 60), (5, 6), (7, 20)]:
        classify(ell, m)
    assert expanded == []


def test_expansions_hold_no_memory_afterwards():
    # nothing keeps a coefficient vector once its check is done: 30
    # distinct boxes near 60 x 60, about 100 KB of vector each, hold
    # under 1 MB between them afterwards
    boxes = [(ell, ell + k) for ell in range(56, 62) for k in range(5)]
    check_strict(5, 5)  # first-call allocations happen before tracing
    tracemalloc.start()
    try:
        for ell, m in boxes:
            assert check_strict(ell, m).strict
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1 << 20, held


def test_classify_raises_when_the_registry_contradicts_the_exceptions(
    monkeypatch, fresh_registry
):
    # with (6, 6) missing from the expected exceptions, the registry
    # build finds (6, 6) non-strict and must not settle on any class
    cert_module = importlib.import_module("qunimodal.certify")
    monkeypatch.setattr(cert_module, "EXCEPTION_PAIRS", EXCEPTION_PAIRS - {(6, 6)})
    with pytest.raises(RuntimeError, match=r"contradiction at \(6,6\)"):
        classify(6, 6)


def test_classify_large_pair_agrees_with_the_direct_check():
    # outside the registry window the answer comes from the recipe; it
    # must agree with the direct computation
    assert classify(61, 61) is PairClass.Strict
    assert check_strict(61, 61).strict


def _classify_by_certificate(ell, m):
    """The reference route: for min >= 5, Strict by a built and verified
    certificate, Exception when certify refuses the pair."""
    if min(ell, m) < 5:
        return classify(ell, m)
    try:
        cert = certify(ell, m)
    except NotCertifiableError:
        return PairClass.Exception
    assert verify(cert).ok, (ell, m)
    return PairClass.Strict


def test_classify_equals_the_certificate_route_up_to_200():
    for ell in range(1, 201):
        for m in range(1, 201):
            assert classify(ell, m) is _classify_by_certificate(ell, m), (ell, m)


def test_classify_equals_the_certificate_route_on_seeded_pairs():
    rng = random.Random(2013)
    for _ in range(2000):
        ell, m = rng.randint(1, 10**6), rng.randint(1, 10**6)
        for pair in ((ell, m), (m, ell)):
            assert classify(*pair) is _classify_by_certificate(*pair), pair


def test_classify_rejects_nonpositive():
    with pytest.raises(ValueError):
        classify(0, 5)
    with pytest.raises(ValueError):
        check_strict(3, 0)


def test_ell_two_even_odd_pairing():
    for m in range(2, 21):
        poly = gaussian(2, m)
        n = 2 * m
        for i in range(n // 4 + 1):
            if 4 * i >= n:
                break
            assert poly.coefficient(2 * i) == poly.coefficient(2 * i + 1)


def test_scan_normalises_and_sorts():
    rows = scan(range(5, 8), range(5, 8))
    pairs = [(l, m) for l, m, _ in rows]
    assert pairs == sorted(set(pairs))
    assert all(l <= m for l, m in pairs)
    as_map = dict(((l, m), cls) for l, m, cls in rows)
    assert as_map[(5, 6)] is PairClass.Exception
    assert as_map[(5, 7)] is PairClass.Strict


def test_scan_rejects_empty_range():
    with pytest.raises(ValueError):
        scan(range(5, 5), range(1, 3))


def _no_classify(monkeypatch):
    def unreachable(ell, m):
        raise AssertionError("classified a pair of a refused rectangle")

    monkeypatch.setattr(unimodality, "classify", unreachable)


def test_scan_refuses_an_oversize_rectangle_before_any_work(monkeypatch):
    _no_classify(monkeypatch)
    with pytest.raises(ValueError, match=r"99996 x 99996 = 9999200016 pairs, more than 65536"):
        scan(range(5, 100001), range(5, 100001))
    # longer than sys.maxsize, where len() itself raises OverflowError
    with pytest.raises(ValueError, match=r"1 x 100000000000000000000 = "):
        scan(range(5, 6), range(1, 10**20 + 1))


def test_scan_guard_counts_pairs_before_deduplication(monkeypatch):
    monkeypatch.setattr(unimodality, "SCAN_GUARD", 6)
    assert len(scan(range(5, 7), range(5, 8))) == 5
    assert len(scan([5, 6], [5, 6, 7])) == 5
    _no_classify(monkeypatch)
    # 9 pairs before deduplication, 6 after: refused
    for ells, ms in ((range(5, 8), range(5, 8)), ([5, 6, 7], [5, 6, 7])):
        with pytest.raises(ValueError, match="3 x 3 = 9 pairs, more than 6"):
            scan(ells, ms)


def test_scan_guard_admits_the_largest_scan_in_use(monkeypatch):
    # 5..200 x 5..200, 196 x 196 = 38,416 pairs and 19,306 after
    # deduplication, with every pair classified as Strict
    monkeypatch.setattr(unimodality, "classify", lambda ell, m: PairClass.Strict)
    assert len(scan(range(5, 201), range(5, 201))) == 19_306


def test_scan_length_matches_len_on_ranges():
    for start in range(-4, 5):
        for stop in range(-4, 5):
            for step in (1, 2, 3, -1, -2, -3):
                r = range(start, stop, step)
                assert unimodality._length(r) == len(r), r
    assert unimodality._length([3, 1, 2]) == 3

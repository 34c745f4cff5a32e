import random
from itertools import compress
from math import comb

import hypothesis
import pytest

from qunimodal import QPolynomial, check_strict, gaussian, gaussian_by_enumeration, qbinomial
from qunimodal.qbinomial import (
    _bound,
    _factors,
    _geometric,
    _numerator,
    _passes,
    _relay,
    _spread,
    _unpack,
    rising_stalls,
)
from qunimodal.unimodality import EXCEPTION_PAIRS


def _polymul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _divide_by_one_minus_qk(num, k):
    """Exact division by (1 - q^k); raises if the division leaves a remainder."""
    quot = [0] * (len(num) - k)
    for d in range(len(quot)):
        quot[d] = num[d] + (quot[d - k] if d >= k else 0)
    check = [0] * len(num)
    for d, c in enumerate(quot):
        check[d] += c
        check[d + k] -= c
    if check != num:
        raise AssertionError(f"(1 - q^{k}) does not divide the numerator")
    return quot


def _pascal_rows(ell: int, m: int, limb: int):
    """The rows i = 0..ell of the q-Pascal recurrence G(i, j) = G(i, j-1) +
    q^j G(i-1, j): row i is the list of G(i, j) for j = 0..m, each packed
    into a big integer with ``limb``-bit limbs, so a step is one shift-and-add."""
    prev = [1] * (m + 1)  # G(0, j) = 1 for every j
    yield prev
    for _ in range(ell):
        cur = [1]  # G(i, 0) = 1
        for j in range(1, m + 1):
            cur.append(cur[j - 1] + (prev[j] << (limb * j)))
        yield cur
        prev = cur


def _limbs(x: int, nbytes: int, count: int) -> tuple:
    raw = x.to_bytes(nbytes * count, "little")
    return tuple(
        int.from_bytes(raw[o : o + nbytes], "little") for o in range(0, len(raw), nbytes)
    )


def packed_recurrence(ell: int, m: int) -> tuple:
    """Reference: G(ell, m) by the q-Pascal recurrence, in byte-aligned
    limbs of at least comb(ell+m, ell).bit_length() bits."""
    nbytes = max(1, (comb(ell + m, ell).bit_length() + 7) // 8)
    *_, last = _pascal_rows(ell, m, 8 * nbytes)
    return _limbs(last[m], nbytes, ell * m + 1)


def product_formula(ell: int, m: int) -> tuple:
    """Oracle: expand prod (1 - q^{m+i}) / (1 - q^i) for i = 1..ell exactly."""
    num = [1]
    for i in range(1, ell + 1):
        factor = [0] * (m + i + 1)
        factor[0], factor[m + i] = 1, -1
        num = _polymul(num, factor)
    for i in range(1, ell + 1):
        num = _divide_by_one_minus_qk(num, i)
    return tuple(num)


def test_frozen_small_expansions():
    assert gaussian(2, 2).coeffs == (1, 1, 2, 1, 1)
    assert gaussian(2, 3).coeffs == (1, 1, 2, 2, 2, 1, 1)
    assert gaussian(1, 4).coeffs == (1, 1, 1, 1, 1)
    assert gaussian(0, 7).coeffs == (1,)
    assert gaussian(3, 0).coeffs == (1,)


def test_enumeration_refuses_a_negative_side():
    for ell, m in ((-1, 3), (3, -1)):
        with pytest.raises(ValueError, match="box sides must be non-negative"):
            gaussian_by_enumeration(ell, m)


def test_qpolynomial_is_its_coefficients():
    p = QPolynomial([1, 1, 2, 1, 1])
    assert p == gaussian(2, 2) and hash(p) == hash(gaussian(2, 2))
    assert p != QPolynomial([1, 1, 1])
    assert len({p, gaussian(2, 2), QPolynomial((1,))}) == 2
    assert p.__eq__((1, 1, 2, 1, 1)) is NotImplemented and p != (1, 1, 2, 1, 1)
    assert len(p) == 5 and len(QPolynomial((1,))) == 1
    assert repr(p) == "QPolynomial([1, 1, 2, 1, 1])"


@pytest.mark.parametrize("ell,m", [(1, 1), (2, 5), (3, 3), (4, 6), (5, 5), (6, 6), (7, 4)])
def test_matches_product_formula(ell, m):
    assert gaussian(ell, m).coeffs == product_formula(ell, m)


def test_matches_packed_recurrence_grid():
    for ell in range(1, 41):
        for m in range(1, 41):
            assert gaussian(ell, m).coeffs == packed_recurrence(ell, m), (ell, m)


# (63, 64) to (110, 110) widen their limbs at many stages, and each stage
# pairs numerators with denominators a half or a third their size;
# (45, 45) pairs the odd quotient 3, and (5, 247) and (5, 311) decline the
# pairs that would cost more than the two factors apart.  The last four
# cross the seams between stages (see test_seams_of_the_stages).
@pytest.mark.parametrize(
    "ell,m",
    [(60, 60), (12, 1175), (1175, 12), (10, 2000),
     (63, 64), (89, 90), (40, 100), (75, 107), (110, 110),
     (5, 247), (5, 311), (45, 45),
     (33, 67), (2, 2001), (21, 300), (9, 730)],
)
def test_matches_packed_recurrence_large(ell, m):
    assert gaussian(ell, m).coeffs == packed_recurrence(ell, m)


def _limb_bytes(bound):
    return (bound.bit_length() + 7) // 8


def _stages(a, b):
    """The sides 2, ..., a of the boxes (g, b) that build (a, b), 2 <= a <= b."""
    sides = [a]
    while sides[-1] > 2:
        sides.append(-(-(sides[-1] * b // 2) // b))
    return sides[::-1]


def test_seams_of_the_stages(monkeypatch):
    # box (a, b), a > 2, is built from the half of (g, b), g = ceil(h/b),
    # mirrored out to h+1 limbs; each stage above side 2 re-lays its limbs
    # once, mirror and widening together, for values up to B(a, b)
    widths = []
    relay = qbinomial._relay

    def spy(x, old, known, degree, count, new):
        widths.append((old, new))
        return relay(x, old, known, degree, count, new)

    monkeypatch.setattr(qbinomial, "_relay", spy)

    def seams(ell, m):
        widths.clear()
        assert qbinomial._product_coeffs(ell, m) == packed_recurrence(ell, m)
        a, b = sorted((ell, m))
        assert [new for _, new in widths] == [
            _limb_bytes(_bound(g, b)) for g in _stages(a, b)[1:]
        ]
        return widths[:]

    # (33, 67): stages 3, 5, 9, 17, 33 over stage 2, of odd degree g*b at
    # every odd g, so the centre of the box below falls between two
    # coefficients; every seam widens
    assert _stages(33, 67) == [2, 3, 5, 9, 17, 33] and 67 % 2 == 1
    assert seams(33, 67) == [(1, 2), (2, 3), (3, 4), (4, 7), (7, 11)]
    # (2, 2001): no seam; the half is packed at once in 2-byte limbs, where
    # comb(2003, 2) takes 3 bytes
    assert seams(2, 2001) == []
    assert _limb_bytes(_bound(2, 2001)) == 2
    assert _unpack(qbinomial._half(2, 2001, 2), 2, 2002) == packed_recurrence(2, 2001)[:2002]
    assert _limb_bytes(comb(2003, 2)) == 3
    # (21, 300): stage 11 widens 4-byte limbs to 8, which unpack would read
    # as words, and stage 21 widens them to 13, where comb(321, 21) takes 14
    assert seams(21, 300) == [(1, 2), (2, 4), (4, 8), (8, 13)]
    assert _limb_bytes(comb(321, 21)) == 14
    # (9, 730): stage 9 widens 4-byte limbs to 8, where comb(739, 9) takes
    # 9, so the whole expansion is read as words
    assert seams(9, 730) == [(2, 3), (3, 4), (4, 8)]
    assert _limb_bytes(comb(739, 9)) == 9
    # (7, 163): stage 4 widens the one-byte limbs of stage 2 to 3 at once,
    # stage 7 widens them to 4, and its largest coefficient has all 32 bits
    # of them
    assert _stages(7, 163) == [2, 4, 7]
    assert seams(7, 163) == [(1, 3), (3, 4)]
    assert max(packed_recurrence(7, 163)).bit_length() == 32


def test_bound_grows_with_the_side():
    # B(a-1, b) <= B(a, b), as the module docstring proves, and so
    # B(ceil(a/2), b) <= B(a, b): no stage packs narrower limbs than the
    # stage below it, and _relay only ever widens
    for a in range(2, 301):
        for b in range(a, 301):
            assert _bound(a - 1, b) <= _bound(a, b), (a, b)
            assert _bound(-(-a // 2), b) <= _bound(a, b), (a, b)


def test_bound_holds_on_a_grid():
    # every coefficient of binom(a+b, a)_q, a <= 40 and a <= b <= 120, read
    # off the recurrence, is at most B(a, b), and B is within 3 bits of
    # the largest
    nbytes = _limb_bytes(comb(160, 40))
    rows = _pascal_rows(40, 120, 8 * nbytes)
    next(rows)  # G(0, j) = 1
    for a, row in enumerate(rows, 1):
        for b in range(a, 121):
            largest = max(_limbs(row[b], nbytes, a * b + 1))
            bound = _bound(a, b)
            assert largest <= bound, (a, b)
            assert bound.bit_length() - largest.bit_length() <= 3, (a, b)


def test_bound_never_takes_more_bytes_than_comb():
    # so the packed half never outgrows what EXPANSION_GUARD counts, nor
    # does it with the spare bit of rising_stalls
    for a in range(1, 201):
        for b in range(a, 401):
            assert _limb_bytes(_bound(a, b)) <= _limb_bytes(comb(a + b, a)), (a, b)
            assert _limb_bytes(2 * _bound(a, b)) <= _limb_bytes(comb(a + b, a)), (a, b)


@pytest.mark.parametrize("old,new", [(1, 1), (1, 3), (2, 2), (3, 3), (4, 8), (8, 13), (9, 9)])
def test_relay_matches_list_reference(old, new):
    # the known part of a palindrome, mirrored out to count limbs and laid
    # out new bytes wide, equals the first count entries of the whole
    # coefficient list, each written in new bytes
    rng = random.Random(100 * old + new)
    for degree in range(0, 30):
        rising = [rng.getrandbits(8 * old) for _ in range(degree // 2 + 1)]
        coeffs = rising + rising[: (degree + 1) // 2][::-1]
        assert coeffs == coeffs[::-1]
        for known in range(degree // 2 + 1, degree + 2):
            x = _pack(coeffs[:known], 8 * old)
            for count in range(known, degree + 2):
                expected = b"".join(c.to_bytes(new, "little") for c in coeffs[:count])
                assert bytes(_relay(x, old, known, degree, count, new)) == expected, (
                    degree, known, count,
                )


def _pack(coeffs, limb=16):
    return sum(c << (limb * i) for i, c in enumerate(coeffs))


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7])
def test_geometric_matches_list_reference(d):
    # x * (1 + q^d + ... + q^((k-1)d)) truncated to q^(h+1), for sums that
    # stop short of q^(h+1) and sums that run past it.  Small coefficients
    # never fill a limb; full 16-bit ones wrap, as intermediate values of
    # an expansion may, and the packed result is then the sum modulo 2^width
    size = 41  # h + 1
    rng = random.Random(d)
    mask = (1 << (16 * size)) - 1
    for top in (16, 1 << 16):
        x = [rng.randrange(top) for _ in range(size)]
        for k in range(1, 71):
            ref = [sum(x[i - j * d] for j in range(k) if 0 <= i - j * d) for i in range(size)]
            y = _geometric(_pack(x), 16 * d, k, mask)
            assert y == _pack(ref) & mask, (d, k, top)
            # every doubling step is masked, so every result is below
            # 2^width
            assert 0 <= y <= mask, (d, k, top)
        # a series: every term below q^(h+1), as 1/(1 - q^d) truncated, with
        # the count of terms rounded up to a power of two
        ref = [sum(x[i - j * d] for j in range(size) if 0 <= i - j * d) for i in range(size)]
        k = 1 << ((size - 1) // d).bit_length()
        y = _geometric(_pack(x), 16 * d, k, mask)
        assert y == _pack(ref) & mask, (d, top)
        assert 0 <= y <= mask, (d, top)


@pytest.mark.parametrize("width", [1, 8, 64, 65, 1000])
def test_numerator_matches_the_masked_reference(width):
    # the exact layout: x * (1 - 2^s) modulo 2^width against
    # (x - (x << s)) & mask, which builds a negative temporary.  x may have
    # the bit 2^width set, and every result is reduced, below 2^width
    modulus = 1 << width
    mask = modulus - 1
    rng = random.Random(width)
    xs = [0, mask, modulus, 2 * modulus - 1] + [rng.getrandbits(width + 1) for _ in range(30)]
    shifts = [0, 1, width // 2, width - 1, width, width + 1, 3 * width]
    shifts += [rng.randrange(1, width + 1) for _ in range(10)]
    for x in xs:
        for s in shifts:
            y = _numerator(x, s, mask, modulus)
            assert y == (x - (x << s)) & mask, (x, s)
    # the residue layout of each rung, in as many W-byte limbs as the width
    # spans: for a shift by d limbs, limb j of the result is x_j - x_{j-d}
    # modulo 2^R, reduced, where limbs hold any value below 2^(8W), with
    # or without the guard bit 2^R; the result reads as the same number of
    # limbs, so the top one did not borrow either
    for nbytes, bits in qbinomial.RESIDUE_RUNGS:
        count, mod = -(-width // (8 * nbytes)), 1 << bits
        bias = _spread(mod, nbytes, count)
        mask = bias - (bias >> bits)
        top = 1 << 8 * nbytes
        edges = [0, mod - 1, mod, top - 1]
        rows = [[edge] * count for edge in edges]
        rows += [[rng.choice(edges + [rng.randrange(top)]) for _ in range(count)]
                 for _ in range(30)]
        for limbs in rows:
            x = _pack(limbs, 8 * nbytes)
            for d in range(count + 2):
                out = _unpack(_numerator(x, 8 * nbytes * d, mask, bias), nbytes, count)
                for j, (before, after) in enumerate(zip(limbs, out)):
                    below = limbs[j - d] if j >= d else 0
                    assert after == (before - below) % mod, (limbs, d, j)


def _plan(a, b):
    h = a * b // 2
    return _factors(a, b, h, -(-h // b))


@pytest.mark.parametrize(
    "a,b,passes",
    [(63, 64, 102), (89, 90, 151), (110, 110, 190), (45, 45, 70), (5, 247, 17), (5, 311, 18)],
)
def test_full_width_passes(a, b, passes):
    # each numerator alone is one shift-and-subtract (k = 0); the counts
    # without pairing by odd quotients were 127, 193, 244, 85, 17 and 18
    assert sum(_passes(k) if k else 1 for _, k in _plan(a, b)) == passes


def test_pairs_are_declined_when_they_save_nothing():
    # 252 = 4 * 63, 316 = 4 * 79 and 315 = 5 * 63 each cost 10 passes as a
    # pair and 1 + 8 apart
    assert _plan(5, 247) == [(252, 0), (251, 0), (4, 256), (5, 128)]
    assert _plan(5, 311) == [(316, 0), (315, 0), (4, 256), (5, 256)]
    # the numerator 7 is above h = 6, so it is 1 modulo q^7 and dropped
    assert _plan(3, 4) == [(3, 4)]
    # 87 = 3 * 29, 81 = 3 * 27 and 75 = 3 * 25 pair with an odd quotient
    assert {(29, 3), (27, 3), (25, 3)} <= set(_plan(45, 45))


def _searched_factors(a, b, h, grow):
    """Reference planner: each numerator, from the top down, searches its
    quotients k for a divisor d = N/k among the denominators still unused
    and takes the one with the largest positive saving, the largest d on
    a tie; the unpaired denominators follow as series."""
    series = {d: 1 << (h // d).bit_length() for d in range(grow + 1, a + 1)}
    out = []
    for num in range(min(b + a, h), b + grow, -1):
        save, pair = 0, 0
        for k in range(-(-num // a), num // (grow + 1) + 1):
            d, r = divmod(num, k)
            if r == 0 and d in series:
                gain = 1 + _passes(series[d]) - _passes(k)
                if gain > save:
                    save, pair = gain, d
        if pair:
            del series[pair]
            out.append((pair, num // pair))
        else:
            out.append((num, 0))
    out.extend(series.items())
    return out


def test_plan_matches_the_divisor_search():
    # every stage (s, b) above side 2 of the near-square boxes and of thin
    # ones; its numerators b+g+1..min(b+s, h), g = ceil(s/2), are fewer
    # than its smallest denominator g+1, so no denominator divides two of
    # them and the plan needs no search.  Its last factor is a sum, whose
    # mask leaves the stage's result reduced
    boxes = [(a, b) for a in range(3, 121) for b in range(a, a + 61)]
    boxes += [(a, b) for a in range(5, 13) for b in range(300, 1201)]
    stages = {(s, b) for a, b in boxes for s in _stages(a, b) if s > 2}
    for s, b in stages:
        h, g = s * b // 2, (s + 1) // 2
        assert g == -(-h // b), (s, b)
        assert min(b + s, h) - (b + g) < g + 1, (s, b)
        plan = _factors(s, b, h, g)
        assert plan == _searched_factors(s, b, h, g), (s, b)
        assert plan[-1][1] >= 1, (s, b)


def test_a_numerator_with_two_divisors():
    # the top stage of (55, 110) builds on (28, 110): 144 = 36 * 4 = 48 * 3
    # and 156 = 39 * 4 = 52 * 3, and the quotient 4 saves more, so 48 and
    # 52 stay series
    assert _stages(55, 110)[-2:] == [28, 55]
    assert {(36, 4), (39, 4), (48, 64), (52, 64)} <= set(_plan(55, 110))
    p = packed_recurrence(55, 110)
    assert qbinomial._product_coeffs(55, 110) == p
    assert rising_stalls(55, 110) == [k for k in range(2, 55 * 110 // 2 + 1) if p[k - 1] >= p[k]]


def test_no_doubling_step_shifts_past_the_width(monkeypatch):
    # a shift by the whole width or more adds nothing modulo 2^K: every
    # sum, at every stage, stops where its terms vanish
    calls = []

    def spy(x, shift, k, mask):
        calls.append((shift, k, mask.bit_length()))
        return _geometric(x, shift, k, mask)

    monkeypatch.setattr(qbinomial, "_geometric", spy)
    for ell, m in [(63, 64), (45, 45), (5, 247), (12, 1175), (3, 4)]:
        assert qbinomial._product_coeffs(ell, m) == packed_recurrence(ell, m)
    assert calls
    for shift, k, width in calls:
        assert shift * max(1, k // 2) < width, (shift, k, width)


def test_stages_start_reduced_and_no_pass_goes_negative(monkeypatch):
    # each stage starts reduced: its first pass takes an x that its mask
    # leaves unchanged, also in residue limbs over a stage expanded exactly
    # whose largest coefficient fills them, as the side 4 of (7, 104), 16
    # bits, in 2-byte limbs and the side 5 of (9, 200), 24 bits, in 3-byte
    # ones, and in residue limbs over residues.  And the bias keeps every
    # numerator's result positive in both layouts, so no pass masks a
    # negative int, which Python does on a two's complement copy.  Over
    # expansions, and every rung of (9, 632)
    firsts, seen = [], []
    factors, numerator, geometric = qbinomial._factors, qbinomial._numerator, qbinomial._geometric

    def spy_factors(*args):
        firsts.append(None)
        return factors(*args)

    def record(x, mask):
        if firsts and firsts[-1] is None:
            firsts[-1] = x & mask == x
        seen.append(x)

    def spy_numerator(x, shift, mask, bias):
        record(x, mask)
        y = numerator(x, shift, mask, bias)
        seen.append(y)
        return y

    def spy_geometric(x, shift, k, mask):
        record(x, mask)
        return geometric(x, shift, k, mask)

    monkeypatch.setattr(qbinomial, "_factors", spy_factors)
    monkeypatch.setattr(qbinomial, "_numerator", spy_numerator)
    monkeypatch.setattr(qbinomial, "_geometric", spy_geometric)
    for ell, m in [(63, 64), (5, 247), (12, 1175), (33, 67)]:
        assert qbinomial._product_coeffs(ell, m) == packed_recurrence(ell, m)
    for a, b in [(7, 104), (9, 200)]:
        for nbytes, bits in qbinomial.RESIDUE_RUNGS:
            qbinomial._half(a, b, nbytes, bits)
    assert check_strict(9, 632).strict
    assert len(firsts) > 20 and all(firsts)
    assert len(seen) > 100 and min(seen) >= 0


def test_series_bytes_at_half_width(monkeypatch):
    # bytes touched by the shift-and-adds of every series, summed over an
    # expansion, against a grow phase at full degree and against one at
    # half width that applied one unpaired denominator per step, in limbs
    # of the byte length of comb(b+i, i)
    full_degree = [4_943_557, 19_818_672, 45_428_854, 6_440_005]
    one_step = [3_808_048, 15_346_312, 35_529_084, 5_650_318]
    total = []

    def spy(x, shift, k, mask):
        total[-1] += _passes(k) * (mask.bit_length() // 8)
        return _geometric(x, shift, k, mask)

    monkeypatch.setattr(qbinomial, "_geometric", spy)
    for ell, m in [(63, 64), (89, 90), (110, 110), (12, 1175)]:
        total.append(0)
        qbinomial._product_coeffs(ell, m)
    assert total == [3_504_360, 14_693_237, 35_448_326, 5_287_189]
    assert all(map(int.__lt__, total, full_degree))
    assert all(map(int.__lt__, total, one_step))


def test_gaussian_refuses_an_oversize_box_before_any_work(monkeypatch):
    def unreachable(*args):
        raise AssertionError("expanded or sized a box above the guard")

    monkeypatch.setattr(qbinomial, "_product_coeffs", unreachable)
    monkeypatch.setattr(qbinomial, "comb", unreachable)
    # more limbs than the guard has bytes: refused before comb is called
    for ell, m in [(5, 10**10), (10**10, 5), (10**40, 10**40), (1, 2 * qbinomial.EXPANSION_GUARD)]:
        with pytest.raises(ValueError, match="too large"):
            gaussian(ell, m)


def test_expansion_guard_counts_the_packed_bytes(monkeypatch):
    # (8, 8) packs h+1 = 33 limbs of 2 bytes (comb(16, 8) = 12,870)
    monkeypatch.setattr(qbinomial, "EXPANSION_GUARD", 66)
    assert gaussian(8, 8).coeffs == packed_recurrence(8, 8)
    monkeypatch.setattr(qbinomial, "EXPANSION_GUARD", 65)
    with pytest.raises(ValueError, match="too large"):
        gaussian(8, 8)
    assert gaussian(5, 6).coeffs == packed_recurrence(5, 6)


def test_expansion_guard_admits_the_largest_box_in_use(monkeypatch):
    # `expand --ell 200 --m 200` packs 20,001 limbs of 50 bytes
    seen = []
    monkeypatch.setattr(qbinomial, "_product_coeffs", lambda ell, m: seen.append((ell, m)) or (1,))
    gaussian(200, 200)
    assert seen == [(200, 200)]
    assert 20_001 * _limb_bytes(comb(400, 200)) == 1_000_050


@pytest.mark.parametrize("nbytes", range(1, 34))
def test_unpack_matches_from_bytes(monkeypatch, nbytes):
    # limbs of 1, 2, 4 and 8 bytes are read as they are; 3 widens to 4 and
    # 5 to 7 widen to 8; wider limbs are never widened
    widened = []
    relay = qbinomial._relay

    def spy(x, old, known, degree, count, new):
        widened.append(new)
        return relay(x, old, known, degree, count, new)

    monkeypatch.setattr(qbinomial, "_relay", spy)
    rng = random.Random(nbytes)
    limbs = [0, 1, (1 << (8 * nbytes)) - 1] + [rng.getrandbits(8 * nbytes) for _ in range(20)]
    raw = b"".join(v.to_bytes(nbytes, "little") for v in limbs)
    expected = tuple(
        int.from_bytes(raw[o : o + nbytes], "little") for o in range(0, len(raw), nbytes)
    )
    assert expected == tuple(limbs)
    assert _unpack(int.from_bytes(raw, "little"), nbytes, len(limbs)) == expected
    assert widened == {3: [4], 5: [8], 6: [8], 7: [8]}.get(nbytes, [])


@pytest.mark.parametrize(
    "ell,m", [(41, 42), (42, 41), (6, 8), (45, 8), (7, 163), (40, 41), (45, 45)]
)
def test_matches_packed_recurrence_at_limb_edge(ell, m):
    # comb(83, 41) has exactly 80 bits; in the other boxes B(a, b) has a
    # whole number of bytes, so the limb is as wide as the bound with no
    # byte-rounding slack above it.  The largest coefficient of (6, 8) and
    # of (7, 163) fills its limb: one byte, and the 32 bits that unpack
    # reads as words; (8, 45) has 3-byte limbs and (40, 41) and (45, 45)
    # the narrowest ones read one by one
    a, b = sorted((ell, m))
    if (a, b) == (41, 42):
        assert comb(83, 41).bit_length() == 80
    else:
        assert _bound(a, b).bit_length() in (8, 24, 32, 72, 80)
    assert gaussian(ell, m).coeffs == packed_recurrence(ell, m)


@pytest.mark.parametrize(
    "ell,m,extra",
    [(7, 163, 1), (45, 45, 1), (8, 45, 1), (6, 8, 1),
     (41, 42, 0), (12, 1175, 0), (1, 5000, 0), (2, 2001, 0), (2, 200, 1)],
)
def test_rising_stalls_match_a_scan_of_the_recurrence(monkeypatch, ell, m, extra):
    # the exact route: a limb holds 2 B(a, b): where B fills whole bytes
    # the last stage packs one byte wider than B needs, for the spare top
    # bit that keeps every limb's difference from borrowing, and otherwise
    # as wide as B needs; the halves of sides 1 and 2 are packed at once,
    # re-laid by no stage
    p = packed_recurrence(ell, m)
    rise = range(2, ell * m // 2 + 1)
    assert rising_stalls(ell, m) == [k for k in rise if p[k - 1] >= p[k]]
    widths, relays = [], []
    half, relay = qbinomial._half, qbinomial._relay

    def spy_half(a, b, nbytes, bits=0):
        if bits:
            # residues that all agree: every box goes on to the exact rung
            return 0
        x = half(a, b, nbytes)
        widths.append(nbytes)
        return x

    def spy_relay(*args):
        relays.append(args[-1])
        return relay(*args)

    monkeypatch.setattr(qbinomial, "_half", spy_half)
    monkeypatch.setattr(qbinomial, "_relay", spy_relay)
    a, b = sorted((ell, m))
    assert rising_stalls(ell, m) == [k for k in rise if p[k - 1] >= p[k]]
    assert widths[-1] - _limb_bytes(_bound(a, b)) == extra
    assert (relays == []) == (a <= 2)


@pytest.mark.parametrize(
    "nbytes,bits", [(3, 18), (4, 26), (4, 22), (1, 7), (2, 15), (5, 39), (9, 71), (3, 23)]
)
def test_agreeing_matches_a_list_reference(nbytes, bits):
    # limbs of W bytes holding values below 2^bits <= 2^(8W-1), as every
    # rung's do: the residue rungs' (W, 8W - 1), the exact rung's, whose
    # coefficients may fill every bit but the spare top one, and limbs
    # whose values leave higher bits clear.  The marks are the top bit of
    # limb k, limbs 0 and 1 shifted out, at each k >= 2 where limbs k-1 and
    # k are equal
    limb, top = 8 * nbytes, 1 << bits
    rng = random.Random(limb)

    def reference(values):
        return sum(1 << (k - 1) * limb - 1 for k in range(2, len(values))
                   if values[k] == values[k - 1])

    vectors = [[top - 1] * 40, [top - 1, 0] * 20]
    for count in (1, 2, 3, 4, 40):
        for _ in range(20):
            values = [rng.choice([0, top - 1, rng.randrange(top)]) for _ in range(count)]
            # equal neighbours at limb 2, at the last limb, or anywhere,
            # and neighbours that differ in their highest value bit alone
            for k in (2, count - 1, rng.randrange(count)):
                if 1 <= k < count and rng.random() < 0.5:
                    values[k] = values[k - 1] ^ rng.choice([0, 0, top >> 1])
            vectors.append(values)
    for values in vectors:
        got = qbinomial._agreeing(_pack(values, limb), nbytes, len(values))
        assert got == reference(values), values
    # strictly rising, and equal limbs 0 and 1, which are never marked
    no_pair = [top - 40 + k for k in range(40)]
    for values in (no_pair, [0, 0] + no_pair[2:]):
        assert qbinomial._agreeing(_pack(values, limb), nbytes, 40) == 0


def _two_compares(ell, m):
    """The stalls p_{k-1} >= p_k and the equalities p_{k-1} = p_k of the
    rising half, each by its own limb-wise compare on the packed half: the
    stalls from ((x << L) | T) - x, whose limb k is 2^(L-1) + p_{k-1} - p_k,
    and the equalities from the mirrored compare (x | T) - ((x << L) mod
    2^K), whose limb k is 2^(L-1) + p_k - p_{k-1}, ANDed with the stalls."""
    a, b = sorted((ell, m))
    h = a * b // 2
    nbytes = _limb_bytes(2 * _bound(a, b))
    x = qbinomial._half(a, b, nbytes)
    limb = 8 * nbytes
    tops = int.from_bytes((bytes(nbytes - 1) + b"\x80") * (h + 1), "little")
    ge = ((((x << limb) | tops) - x) & tops) >> 2 * limb
    # x << L cut to the h+1 limbs, so that the difference is not negative
    cut = (x << limb) & ((1 << limb * (h + 1)) - 1)
    le = (((x | tops) - cut) >> 2 * limb) & ge

    def marked(y):
        if not y:
            return []
        marks = y.to_bytes(nbytes * (h - 1), "little")[nbytes - 1 :: nbytes]
        return list(compress(range(2, h + 1), marks))

    return marked(ge), marked(le)


def test_stalls_are_equalities():
    # the rising half never falls (Sylvester), so the equalities that a
    # second, mirrored compare reads are the stalls themselves, and both
    # are the one list rising_stalls returns
    boxes = [(ell, m) for ell in range(1, 61) for m in range(1, 61)]
    boxes += [(2, 2001), (3, 400), (4, 3000), (109, 110), (12, 1175), (6, 6), (5, 14)]
    for ell, m in boxes:
        stalls, equal = _two_compares(ell, m)
        assert stalls == equal == rising_stalls(ell, m), (ell, m)


def test_check_strict_refuses_an_oversize_box_before_any_work(monkeypatch):
    # the same boxes as gaussian, with the same message, before the half
    # is built or comb sizes it
    def unreachable(*args):
        raise AssertionError("expanded or sized a box above the guard")

    for ell, m in [(5, 10**10), (10**10, 5), (1, 2 * qbinomial.EXPANSION_GUARD)]:
        with pytest.raises(ValueError, match="too large") as expected:
            gaussian(ell, m)
        with monkeypatch.context() as patch:
            patch.setattr(qbinomial, "_half", unreachable)
            patch.setattr(qbinomial, "comb", unreachable)
            with pytest.raises(ValueError) as refused:
                check_strict(ell, m)
        assert str(refused.value) == str(expected.value)
    # (8, 8) packs 66 bytes: admitted at a guard of 66 and refused at 65
    monkeypatch.setattr(qbinomial, "EXPANSION_GUARD", 66)
    assert check_strict(8, 8).strict
    monkeypatch.setattr(qbinomial, "EXPANSION_GUARD", 65)
    with pytest.raises(ValueError, match="too large"):
        check_strict(8, 8)


def _spied_passes(monkeypatch):
    """Record each outermost call of qbinomial._half as (a, b, bits): a
    residue rung passes its R, the exact rung 0.  The calls for the
    stages below are not recorded."""
    calls, real, depth = [], qbinomial._half, [0]

    def spy(a, b, nbytes, bits=0):
        if not depth[0]:
            calls.append((a, b, bits))
        depth[0] += 1
        try:
            return real(a, b, nbytes, bits)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(qbinomial, "_half", spy)
    return calls


@pytest.mark.parametrize(
    "a,b",
    [(3, 5), (7, 163), (9, 632), (33, 67), (45, 45), (12, 1175), (89, 90), (14, 163),
     (7, 104), (9, 200)],
)
def test_residues_are_the_coefficients_modulo_the_residue_width(a, b):
    # on every rung (W, R) each limb, below 2^(8W) (to_bytes would overflow
    # otherwise), is the coefficient modulo 2^R, with the stages below in
    # residues as on (89, 90) and (12, 1175), or expanded exactly as on
    # the side 3 of (12, 1175); the stage returns its limbs reduced.
    # (7, 104) builds on the side 4, whose largest coefficient has 16
    # bits: in 2-byte limbs that stage is exact, and only reducing it
    # after the relay clears the guard bit, as on the side 5 of (9, 200),
    # 24 bits, in 3-byte limbs
    h = a * b // 2
    for nbytes, bits in qbinomial.RESIDUE_RUNGS:
        residues = _unpack(qbinomial._half(a, b, nbytes, bits), nbytes, h + 1)
        mod = 1 << bits
        assert [r % mod for r in residues] == [p % mod for p in gaussian(a, b).coeffs[: h + 1]]
        assert max(residues) < mod


@hypothesis.strategies.composite
def _residue_boxes(draw):
    a = draw(hypothesis.strategies.integers(3, 141))
    return a, draw(hypothesis.strategies.integers(a, 20_000 // a))


@hypothesis.settings(max_examples=40, derandomize=True, deadline=None, database=None)
@hypothesis.given(_residue_boxes())
def test_residue_limbs_hold_the_coefficients_on_random_boxes(box):
    # 3 <= a <= b and ab <= 20,000: on every rung (W, R) the h+1 residue
    # limbs read back without overflow, so each is below 2^(8W), and each
    # is its coefficient modulo 2^R, whichever stages below run in
    # residues and which exactly
    a, b = box
    h = a * b // 2
    coeffs = gaussian(a, b).coeffs[: h + 1]
    for nbytes, bits in qbinomial.RESIDUE_RUNGS:
        residues = _unpack(qbinomial._half(a, b, nbytes, bits), nbytes, h + 1)
        assert list(residues) == [p % (1 << bits) for p in coeffs], (nbytes, bits)


@pytest.mark.parametrize(
    "a,b,sides",
    [(12, 1175, [[3, 6, 12], [6, 12]]), (89, 90, [[6, 12, 23, 45, 89], [12, 23, 45, 89]])],
)
def test_both_passes_plan_the_same_stages(monkeypatch, a, b, sides):
    # one stage loop serves every rung: every stage that a residue rung
    # runs in residues is planned on the same (a, b, h, g) as the exact
    # rung's stage of that side, and so is every stage below them, which
    # both run exactly.  (12, 1175) builds its side 3 in residues on an
    # exact side 2 in 2-byte limbs, and its side 6 on an exact side 3 in
    # 3-byte limbs
    plans, in_residues = [], []
    factors, half = qbinomial._factors, qbinomial._half

    def spy_factors(*args):
        plans.append(args)
        return factors(*args)

    def spy_half(side, b, size, residue_bits=0):
        if residue_bits:
            in_residues.append(side)
        return half(side, b, size, residue_bits)

    monkeypatch.setattr(qbinomial, "_factors", spy_factors)
    monkeypatch.setattr(qbinomial, "_half", spy_half)
    qbinomial._half(a, b, _limb_bytes(2 * _bound(a, b)))
    exact_plans = plans[:]
    for (nbytes, bits), rung_sides in zip(qbinomial.RESIDUE_RUNGS, sides, strict=True):
        plans.clear()
        in_residues.clear()
        qbinomial._half(a, b, nbytes, bits)
        assert sorted(in_residues) == rung_sides, (nbytes, bits)
        assert plans == exact_plans, (nbytes, bits)


def _parts_from_2(a, top):
    """The partitions of k into parts 2..a, k = 0..top, by a plain-list DP."""
    counts = [1] + [0] * top
    for part in range(2, a + 1):
        for k in range(part, top + 1):
            counts[k] += counts[k - part]
    return counts


def test_the_rise_up_to_the_longer_side_never_stalls(monkeypatch):
    # for k <= b, p_k counts the partitions of k into parts of at most a
    # (conjugate: at most a parts, none above k <= b), and those with a
    # part 1 are p_{k-1}'s with a 1 added, so p_k - p_{k-1} counts the
    # partitions of k into parts 2..a: at least 1 for k >= 2 and a >= 3,
    # all 2s or a 3 and 2s.  So a residue rung compares only limbs
    # b+1..h.  Those counts depend on (a, k) alone, and the first that
    # 2^15 divides for a = 6 is at k = 950: without that window every box
    # (6, b >= 950) would agree on the 15-bit rung
    for a in range(3, 13):
        assert min(_parts_from_2(a, 3000)[2:]) >= 1, a
    grid = [(a, b) for a in range(3, 9) for b in range(a, 80)] + [(6, 2000), (9, 632)]
    for a, b in grid:
        p = gaussian(a, b).coeffs
        assert _parts_from_2(a, b) == [1] + [p[k] - p[k - 1] for k in range(1, b + 1)], (a, b)
    counts = _parts_from_2(6, 4000)
    assert min(k for k in range(2, 4001) if counts[k] % (1 << 15) == 0) == 950
    passes = _spied_passes(monkeypatch)
    assert check_strict(6, 4000).strict
    assert passes == [(6, 4000, 15)]


def test_a_residue_rung_compares_limbs_b_plus_1_to_h(monkeypatch):
    # residues planted equal at k = b, below the window, are never marked,
    # and the 15-bit rung proves the box strict; planted equal at k = b+1
    # or at k = h, the window's ends, they send the box up both residue
    # rungs, and the exact rung, with the true half, finds no stall
    a, b = 8, 380
    h = a * b // 2
    half, rungs = qbinomial._half, []

    def planted(side, width, nbytes, bits=0):
        if not bits:
            return half(side, width, nbytes)
        rungs.append(bits)
        values = list(range(h + 1))
        values[k] = values[k - 1]
        return _pack(values, 8 * nbytes)

    monkeypatch.setattr(qbinomial, "_half", planted)
    for k, climbed in ((b, [15]), (b + 1, [15, 23]), (h, [15, 23])):
        rungs.clear()
        assert rising_stalls(a, b) == []
        assert rungs == climbed, k


@pytest.mark.parametrize(
    "ell,m,k",
    [(9, 632, 1690), (20, 197, 1171), (27, 214, 676), (7, 460, 1603), (5, 776, 1484)],
)
def test_a_false_collision_falls_back_to_the_exact_route(monkeypatch, ell, m, k):
    # strict boxes whose residues agree modulo 2^15 at one k in b+1..h:
    # p_{k-1} and p_k differ by a multiple of 2^18 (of 2^21 but for
    # (7, 460), and of 2^25 for (20, 197)).  Each climbs from the 15-bit
    # rung to the 23-bit one, which proves it strict: (5, 776) too, whose
    # exact limbs take 5 bytes.  (20, 197) agrees modulo 2^23 as well, so
    # it climbs on to the exact rung, which finds no stall.  With the
    # 15-bit rung alone each falls back to the exact route, which finds no
    # stall
    p = gaussian(ell, m).coeffs
    window = range(m + 1, ell * m // 2 + 1)
    assert [j for j in window if (p[j] - p[j - 1]) % (1 << 15) == 0] == [k]
    both = [j for j in window if (p[j] - p[j - 1]) % (1 << 23) == 0]
    assert both == ([k] if (ell, m) == (20, 197) else [])
    assert p[k - 1] < p[k]
    assert _limb_bytes(2 * _bound(ell, m)) >= 5
    passes = _spied_passes(monkeypatch)
    assert check_strict(ell, m).strict
    assert passes == [(ell, m, 15), (ell, m, 23)] + [(ell, m, 0)] * len(both)
    passes.clear()
    monkeypatch.setattr(qbinomial, "RESIDUE_RUNGS", ((2, 15),))
    assert rising_stalls(ell, m) == []
    assert passes == [(ell, m, 15), (ell, m, 0)]


def test_a_strict_box_with_wide_limbs_is_decided_by_its_residues(monkeypatch):
    # the 15-bit rung alone, and never the exact rung: (5, 42) has 3-byte
    # exact limbs, the narrowest that take it, (5, 176) and (5, 400)
    # 4-byte ones, the narrowest where the 23-bit rung could follow, (6,
    # 600) and (7, 163) 5-byte ones, and (8, 380) 6-byte ones
    passes = _spied_passes(monkeypatch)
    boxes = [(5, 42), (5, 176), (5, 400), (6, 600), (7, 163), (8, 380), (12, 1175), (89, 90),
             (110, 110)]
    assert [_limb_bytes(2 * _bound(a, b)) for a, b in boxes[:6]] == [3, 4, 4, 5, 5, 6]
    for ell, m in boxes:
        passes.clear()
        assert check_strict(ell, m).strict
        assert passes == [(ell, m, 15)]


def test_narrow_limbs_take_the_exact_route_alone(monkeypatch):
    # the exact rung alone, and never a residue rung: exact limbs of 2
    # bytes or fewer, no wider than the 15-bit rung's, as (5, 41), the
    # last such box with five rows; every box with a side of 3 or 4,
    # whose limbs are wider, since such a box always stalls and no
    # residue rung could clear it; and every exceptional pair
    passes = _spied_passes(monkeypatch)
    boxes = [(5, 41), (5, 14), (6, 6), (2, 300), (4, 23627), (3, 150000)]
    assert [_limb_bytes(2 * _bound(a, b)) for a, b in boxes] == [2, 2, 1, 2, 5, 5]
    for ell, m in boxes:
        check_strict(ell, m)
    for a, b in sorted(EXCEPTION_PAIRS):
        assert not check_strict(a, b).strict
    assert passes == [(a, b, 0) for a, b in boxes + sorted(EXCEPTION_PAIRS)]


@pytest.mark.parametrize("m,stall", [(23628, 47255), (30000, 59999)])
def test_four_rows_with_wide_limbs_take_the_exact_rung_alone(monkeypatch, m, stall):
    # (4, 23628) is the first box with four rows whose exact limbs take 6
    # bytes; it stalls once, just below its centre, as (4, 30000) does,
    # and the exact rung alone reads the same stall as a scan of the
    # unpacked expansion
    p = gaussian(4, m).coeffs
    scan = [k for k in range(2, 2 * m + 1) if p[k - 1] >= p[k]]
    assert scan == [stall]
    assert _limb_bytes(2 * _bound(4, m)) == 6
    passes = _spied_passes(monkeypatch)
    assert rising_stalls(4, m) == scan
    assert passes == [(4, m, 0)]


@pytest.mark.parametrize("bits", [1, 8])
def test_stalls_do_not_depend_on_the_residue_width(monkeypatch, bits):
    # each residue rung's true half, with every limb cut to 1 or 8 bits:
    # modulo 2 or 2^8 the residues of these boxes agree somewhere on both
    # rungs, so every box with a side of 5 or more climbs both and the
    # exact rung decides it, with the same answer.  Every box here with a
    # side of 5 or more has 3(h - b) < 2^15, so it skips no rung
    boxes = [(8, 380), (12, 1175), (45, 45), (20, 197), (7, 460), (6, 4000), (4, 23628)]
    expected = [rising_stalls(ell, m) for ell, m in boxes]
    assert all(3 * (a * b // 2 - b) < 1 << 15 for a, b in boxes[:-1])
    half, depth = qbinomial._half, [0]

    def cut(a, b, nbytes, residue_bits=0):
        depth[0] += 1
        try:
            x = half(a, b, nbytes, residue_bits)
        finally:
            depth[0] -= 1
        if residue_bits and not depth[0]:
            x &= _spread((1 << bits) - 1, nbytes, a * b // 2 + 1)
        return x

    monkeypatch.setattr(qbinomial, "_half", cut)
    passes = _spied_passes(monkeypatch)
    assert [rising_stalls(ell, m) for ell, m in boxes] == expected
    rungs = [bits for _, bits in qbinomial.RESIDUE_RUNGS]
    assert passes == [(a, b, r) for a, b in boxes[:-1] for r in rungs + [0]] + [(4, 23628, 0)]


def test_a_box_with_many_compares_starts_on_the_23_bit_rung(monkeypatch):
    # a rung of R bits expects about (h - b)/2^R false agreements on a
    # strict box, so where 3(h - b) >= 2^15 the 15-bit rung is skipped:
    # (5, 7282) and (6, 5462), with h - b = 10,923 and 10,924, start on
    # the 23-bit rung, as (20, 2000) does, and (6, 5460) and (5, 7281),
    # with 10,920 and 10,921, still start on the 15-bit one.  (6, 5461),
    # with 10,922, agrees modulo 2^15 and climbs to the 23-bit rung
    passes = _spied_passes(monkeypatch)
    boxes = [(6, 5460, [15]), (5, 7281, [15]), (6, 5461, [15, 23]), (5, 7282, [23]),
             (6, 5462, [23]), (20, 2000, [23])]
    assert [a * b // 2 - b for a, b, _ in boxes] == [10920, 10921, 10922, 10923, 10924, 18000]
    for ell, m, rungs in boxes:
        passes.clear()
        assert check_strict(ell, m).strict
        assert passes == [(ell, m, bits) for bits in rungs]


def test_residue_limbs_never_reach_their_top(monkeypatch):
    # every pass of a residue rung masks what it returns, a shift-and-add
    # of a geometric sum as well as a numerator: each pass adds or
    # subtracts two reduced limbs, so no limb reaches 2^(R+1) = 2^(8W),
    # the guard bit takes the one carry, and every pass hands on limbs
    # below 2^R.  Spied on every mask of every pass, on both rungs of thin
    # and square boxes, each of whose residues is its coefficient
    masked = []

    class Spy(int):
        def __rand__(self, other):
            out = int(other) & int(self)
            masked.append(out)
            return out

    def residue(mask):
        # the exact stages below a residue stage mask by 2^K - 1
        return mask & (mask + 1) != 0

    geometric, numerator = qbinomial._geometric, qbinomial._numerator

    def spy_geometric(x, shift, k, mask):
        if not residue(mask):
            return geometric(x, shift, k, mask)
        before = len(masked)
        y = geometric(x, shift, k, Spy(mask))
        # one mask per shift-and-add, on the sum, and one more on the
        # shifted term of each doubling step that shifts by a quarter of
        # the width or more
        j, wide = 1, 0
        for bit in bin(k)[3:]:
            wide += 4 * shift * j >= mask.bit_length()
            j = 2 * j + (bit == "1")
        assert len(masked) - before == _passes(k) + wide, k
        return y

    def spy_numerator(x, shift, mask, bias):
        return numerator(x, shift, Spy(mask) if residue(mask) else mask, bias)

    monkeypatch.setattr(qbinomial, "_geometric", spy_geometric)
    monkeypatch.setattr(qbinomial, "_numerator", spy_numerator)
    for a, b in [(5, 400), (6, 4000), (12, 1175), (45, 45), (89, 90)]:
        h = a * b // 2
        coeffs = gaussian(a, b).coeffs[: h + 1]
        for nbytes, bits in qbinomial.RESIDUE_RUNGS:
            assert bits == 8 * nbytes - 1
            masked.clear()
            residues = _unpack(qbinomial._half(a, b, nbytes, bits), nbytes, h + 1)
            assert list(residues) == [p % (1 << bits) for p in coeffs], (a, b, nbytes)
            assert len(masked) > 10, (a, b, nbytes)
            for y in masked:
                assert y < 1 << 8 * nbytes * (h + 1), (a, b, nbytes)
                assert max(_unpack(y, nbytes, h + 1)) < 1 << bits, (a, b, nbytes)


def test_matches_enumeration_oracle():
    for ell in range(0, 7):
        for m in range(0, 7):
            assert gaussian(ell, m).coeffs == gaussian_by_enumeration(ell, m).coeffs
    assert gaussian(8, 8).coeffs == gaussian_by_enumeration(8, 8).coeffs


def test_enumeration_oracle_guard():
    with pytest.raises(ValueError):
        gaussian_by_enumeration(9, 9)


def test_degree_and_sum():
    for ell in range(0, 9):
        for m in range(0, 9):
            poly = gaussian(ell, m)
            assert poly.degree == ell * m
            assert sum(poly.coeffs) == comb(ell + m, ell)


def test_palindromic():
    for ell in range(0, 10):
        for m in range(0, 10):
            coeffs = gaussian(ell, m).coeffs
            assert coeffs == coeffs[::-1]


def test_symmetry_in_arguments():
    for ell in range(0, 13):
        for m in range(ell, 13):
            assert gaussian(ell, m).coeffs == gaussian(m, ell).coeffs


def test_pascal_recurrence():
    # G(i, j) = G(i, j-1) + q^j G(i-1, j), checked on a grid
    for i in range(1, 7):
        for j in range(1, 7):
            big = gaussian(i, j)
            left = gaussian(i, j - 1)
            up = gaussian(i - 1, j)
            for k in range(big.degree + 1):
                expected = left.coefficient(k) + up.coefficient(k - j)
                assert big.coefficient(k) == expected, (i, j, k)


def test_coefficient_out_of_range_is_zero():
    poly = gaussian(2, 2)
    assert poly.coefficient(-1) == 0
    assert poly.coefficient(5) == 0
    assert poly.coefficient(10**9) == 0


def test_rejects_negative_arguments():
    with pytest.raises(ValueError):
        gaussian(-1, 3)
    with pytest.raises(ValueError):
        gaussian(3, -2)


def test_qpolynomial_validation():
    with pytest.raises(ValueError):
        QPolynomial((1, 2, 0))
    with pytest.raises(ValueError):
        QPolynomial((1, -1, 1))
    with pytest.raises(ValueError):
        QPolynomial(())


def test_qpolynomial_rejects_non_integers():
    # coefficients are coerced by operator.index, so nothing is truncated
    for coeffs in ((1, 2.5), (1.0,), ("1",)):
        with pytest.raises(TypeError):
            QPolynomial(coeffs)


def test_big_expansion_against_oracle():
    # one medium-large spot check of the packed evaluation
    assert gaussian(12, 17).coeffs == product_formula(12, 17)


def test_gaussian_refuses_a_non_integer_side():
    # (2.0, 3) raises before and after the integer pair is expanded
    for _ in range(2):
        with pytest.raises(TypeError):
            gaussian(2.0, 3)
        assert gaussian(2, 3).coeffs == (1, 1, 2, 2, 2, 1, 1)

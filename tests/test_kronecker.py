import hashlib
import importlib
import random
import sys
import threading
from collections import Counter
from functools import lru_cache
from itertools import product, repeat, zip_longest
from math import factorial
from operator import mul

import pytest

from qunimodal import (
    InternalConsistencyError,
    Partition,
    a_k,
    g_oracle,
    g_two_row,
    gaussian,
    lr,
    partitions_of,
    semigroup_check,
    two_row,
)
from qunimodal import kronecker
from qunimodal.cli import run
from qunimodal.kronecker import (
    DEFAULT_ORACLE_BOUND,
    MAX_SAMPLES,
    _char,
    _below,
    _classes,
    _sampled,
)
from qunimodal import partitions_inside, repro
from qunimodal.lr import skew
from qunimodal.partitions import parts_inside
from qunimodal.repro import repro_lemma12, repro_routes

P = Partition


def _strip_removals(shape: tuple[int, ...], t: int) -> list[tuple[tuple[int, ...], int]]:
    # every way to remove a border strip of size t, as (smaller shape, sign):
    # the border strip reference for _char_at and _char_by_class, sharing no
    # strip code with the library's abacus
    length = len(shape)
    if length == 0:
        return []
    beta = [shape[i] + (length - 1 - i) for i in range(length)]
    bset = set(beta)
    out = []
    for b in beta:
        nb = b - t
        if nb < 0 or nb in bset:
            continue
        crossed = sum(1 for x in beta if nb < x < b)
        nbeta = sorted([x for x in beta if x != b] + [nb], reverse=True)
        smaller = []
        for i, x in enumerate(nbeta):
            part = x - (length - 1 - i)
            if part:
                smaller.append(part)
        out.append((tuple(smaller), -1 if crossed % 2 else 1))
    return out


@lru_cache(maxsize=None)
def _char_at(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    # one character value by the border strip recursion, memoized per
    # (shape, cycle type): the library's vectors must agree entry by entry
    if not cycles:
        return 1
    t = cycles[0]
    rest = cycles[1:]
    return sum(sign * _char_at(smaller, rest) for smaller, sign in _strip_removals(shape, t))


def _table(n: int) -> tuple[dict, dict]:
    # the character table of S_n read from the library's vectors:
    # chi[(lam, rho)] and the class sizes |C_rho|
    shapes = partitions_of(n)
    chi = {(lam, rho): v for lam in shapes for rho, v in zip(shapes, _char(lam.parts)[0])}
    return chi, dict(zip(shapes, _classes(n)[0]))


def _hook_dimension(p: Partition) -> int:
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


def test_two_row_shapes():
    assert two_row(7, 2) == P((5, 2))
    assert two_row(6, 3) == P((3, 3))
    assert two_row(5, 0) == P((5,))
    with pytest.raises(ValueError):
        two_row(5, 3)
    with pytest.raises(ValueError):
        two_row(5, -1)


def test_character_dimensions_match_hooks():
    for n in range(1, 9):
        chi, _ = _table(n)
        ones = P((1,) * n)
        for lam in partitions_of(n):
            assert chi[lam, ones] == _hook_dimension(lam)


def test_character_frozen_row():
    chi, _ = _table(3)
    lam = P((2, 1))
    assert chi[lam, P((1, 1, 1))] == 2
    assert chi[lam, P((2, 1))] == 0
    assert chi[lam, P((3,))] == -1


def test_character_sign_and_trivial_rows():
    for n in range(1, 8):
        chi, _ = _table(n)
        trivial = P((n,))
        sign = P((1,) * n)
        for rho in partitions_of(n):
            assert chi[trivial, rho] == 1
            # sign character: parity of n minus the number of cycles
            expected = (-1) ** (n - len(rho.parts))
            assert chi[sign, rho] == expected


def test_row_orthogonality():
    for n in range(1, 8):
        chi, sizes = _table(n)
        order = factorial(n)
        shapes = partitions_of(n)
        for i, lam in enumerate(shapes):
            for mu in shapes[i:]:
                inner = sum(sizes[rho] * chi[lam, rho] * chi[mu, rho] for rho in shapes)
                assert inner == (order if lam == mu else 0)


def test_class_sizes_sum_to_group_order():
    for n in range(1, 9):
        _, sizes = _table(n)
        assert sum(sizes.values()) == factorial(n)


def test_character_vectors_match_per_class_recursion():
    for n in range(13):
        classes = partitions_of(n)
        for lam in classes:
            vector, _ = _char(lam.parts)
            assert len(vector) == len(classes)
            for rho, value in zip(classes, vector):
                assert value == _char_at(lam.parts, rho.parts), (lam, rho)


@lru_cache(maxsize=None)
def _class_steps(n: int) -> tuple[tuple[int, int], ...]:
    # (t, j) for each rho in partitions_of(n): t is the first part of rho
    # and j the index of (rho_2, rho_3, ...) in partitions_of(n - t), found
    # by lookup rather than by the block structure the library relies on
    index: dict[int, dict[tuple[int, ...], int]] = {}
    steps = []
    for rho in partitions_of(n):
        t = rho.parts[0]
        if t not in index:
            index[t] = {p.parts: j for j, p in enumerate(partitions_of(n - t))}
        steps.append((t, index[t][rho.parts[1:]]))
    return tuple(steps)


@lru_cache(maxsize=None)
def _char_by_class(shape: tuple[int, ...]) -> tuple[int, ...]:
    # the vector built one class at a time from the steps above: a second
    # route to the library's block-built vectors
    if not shape:
        return (1,)
    strips: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    values = []
    for t, j in _class_steps(sum(shape)):
        if t not in strips:
            strips[t] = [
                (sign, _char_by_class(smaller)) for smaller, sign in _strip_removals(shape, t)
            ]
        values.append(sum(sign * vec[j] for sign, vec in strips[t]))
    return tuple(values)


def test_class_blocks_expand_to_the_per_class_steps():
    for n in range(1, DEFAULT_ORACLE_BOUND + 1):
        steps = tuple((t, j) for t, start, stop in _classes(n)[1] for j in range(start, stop))
        assert steps == _class_steps(n), n


def _reference_class_sizes(n: int) -> tuple[int, ...]:
    # |C_rho| = n! / z_rho by the centralizer formula, one class at a time
    sizes = []
    for rho in partitions_of(n):
        z = 1
        for part, mult in Counter(rho.parts).items():
            z *= part**mult * factorial(mult)
        sizes.append(factorial(n) // z)
    return tuple(sizes)


def _reference_class_blocks(n: int) -> tuple[tuple[int, int, int], ...]:
    # (t, start, stop) for t = n, ..., 1, each start found by a scan of
    # partitions_of(n - t) for its first entry with no part above t
    blocks = []
    for t in range(n, 0, -1):
        pool = partitions_of(n - t)
        start = next(j for j, rho in enumerate(pool) if rho.parts[:1] <= (t,))
        blocks.append((t, start, len(pool)))
    return tuple(blocks)


def test_one_class_table_matches_the_two_reference_tables():
    for n in range(DEFAULT_ORACLE_BOUND + 1):
        shapes = tuple(rho.parts for rho in partitions_of(n))
        assert _classes(n) == (_reference_class_sizes(n), _reference_class_blocks(n), shapes), n
    # n = 0: the empty class, of size 1, and no block
    assert _classes(0) == ((1,), (), ((),))


def test_block_built_vectors_match_the_per_class_build():
    shapes = [lam.parts for n in range(1, DEFAULT_ORACLE_BOUND + 1) for lam in partitions_of(n)]
    assert len(shapes) == 1596
    for shape in shapes:
        assert _char(shape)[0] == _char_by_class(shape), shape


def _reference_draws(seed, max_total_size):
    # the draws of the sampling loop by randint and choice, one pair of
    # triples of Partition objects per attempt
    rng = random.Random(seed)
    while True:
        n1 = rng.randint(1, max_total_size - 1)
        n2 = rng.randint(1, max_total_size - n1)
        pool1 = partitions_of(n1)
        pool2 = partitions_of(n2)
        first = tuple(rng.choice(pool1) for _ in range(3))
        second = tuple(rng.choice(pool2) for _ in range(3))
        yield first, second


def _semigroup_by_partitions(samples, seed, max_total_size, g, every=False):
    # the sampling loop on Partition objects, as it was before the library
    # moved to part tuples: same draws, same triples, and g evaluated on
    # the first triple, the second and their sum in that order; with
    # every=True each accepted sample is returned, not only violations
    draws = _reference_draws(seed, max_total_size)
    violations = []
    accepted = 0
    while accepted < samples:
        first, second = next(draws)
        g1 = g(*first)
        if g1 == 0:
            continue
        g2 = g(*second)
        if g2 == 0:
            continue
        accepted += 1
        gs = g(*(P(map(sum, zip_longest(a, b, fillvalue=0))) for a, b in zip(first, second)))
        if every or gs <= 0 or gs < max(g1, g2):
            violations.append((first, second, g1, g2, gs))
    return violations


def test_semigroup_sampling_matches_the_partition_loop(monkeypatch, fresh_samples):
    expected = []

    def by_partitions(lam, mu, nu):
        value = g_oracle(lam, mu, nu)
        expected.append(((lam.parts, mu.parts, nu.parts), value))
        return value

    seen = []
    inner = kronecker._g

    def by_parts(*triple):
        value = inner(*triple)
        seen.append((triple, value))
        return value

    reference = [
        _semigroup_by_partitions(3, seed, 18, by_partitions, every=True) for seed in range(300)
    ]
    # the reference's calls, as the library made them on Partition objects
    # before it moved to part tuples
    assert len(expected) == 5199
    digest = hashlib.sha256(repr(expected).encode()).hexdigest()
    assert digest == "47191e07692248b582c9dd35c569f4923790c6ae8c58aa6706857a9497bca557"
    # a max that no sum reaches makes every accepted sample a violation,
    # so the library returns all of them: the same pairs of triples and
    # the same three coefficients, in the same order
    monkeypatch.setattr(kronecker, "_g", by_parts)
    monkeypatch.setattr(kronecker, "max", lambda *values: float("inf"), raising=False)
    assert [semigroup_check(3, seed, 18) for seed in range(300)] == reference
    assert all(len(accepted) == 3 for accepted in reference)
    # the library evaluates the smaller triple first and skips the larger
    # when it reads 0, and answers a triple it has met from its memo: from
    # a cleared memo, 2,194 calls fewer, most of them at small sizes
    assert len(seen) == 3005 < len(expected)
    assert len(set(triple for triple, _ in seen)) == len(seen)
    classes = [
        sum(len(partitions_of(sum(triple[0]))) for triple, _ in calls) for calls in (seen, expected)
    ]
    assert classes == [351421, 410161]


def test_draws_follow_the_random_module():
    # the sampler draws by getrandbits with rejection; on the running
    # interpreter that is the same stream randrange, randint and choice
    # read, value for value and word for word
    sizes = [*range(1, 71), *(2**j + d for j in range(7, 12) for d in (-1, 0, 1))]
    for seed in range(50):
        ours, by_randrange, by_randint, by_choice = (random.Random(seed) for _ in range(4))
        for n in sizes:
            value = _below(ours.getrandbits, n)
            assert 0 <= value < n
            assert value == by_randrange.randrange(n), (seed, n)
            assert value == by_randint.randint(1, n) - 1, (seed, n)
            assert value == by_choice.choice(range(n)), (seed, n)


def _parts(triple):
    return tuple(p.parts for p in triple)


def _summed(first, second):
    return tuple(tuple(map(sum, zip_longest(a, b, fillvalue=0))) for a, b in zip(first, second))


@pytest.mark.parametrize("second_smaller", [True, False])
def test_semigroup_sampler_skips_the_larger_triple_after_a_zero(
    second_smaller, monkeypatch, fresh_samples
):
    # a seed whose first attempt has the wanted order of sizes, and whose
    # second attempt draws neither of its triples again
    for seed in range(100):
        draws = _reference_draws(seed, 18)
        (first, second), (first2, second2) = map(_parts, next(draws)), map(_parts, next(draws))
        in_order = (sum(second[0]) <= sum(first[0])) == second_smaller
        if in_order and not {first, second} & {first2, second2}:
            break
    else:
        pytest.fail("no seed below 100 draws such a first attempt")
    smaller, larger = (second, first) if second_smaller else (first, second)
    if sum(second2[0]) <= sum(first2[0]):
        smaller2, larger2 = second2, first2
    else:
        smaller2, larger2 = first2, second2
    summed2 = _summed(first2, second2)
    calls = []

    def recording(*triple):
        calls.append(triple)
        return 0 if triple == smaller else 1

    monkeypatch.setattr(kronecker, "_g", recording)
    assert semigroup_check(samples=1, seed=seed, max_total_size=18) == []
    # the first attempt ends at its smaller triple; the larger one never
    # reaches the oracle, and the second attempt is accepted
    assert calls == [smaller, smaller2, larger2, summed2]
    assert larger not in calls


def test_character_tables_unchanged():
    digest = hashlib.sha256()
    for n in range(9):
        chi, class_sizes = _table(n)
        shapes = partitions_of(n)
        assert chi == {
            (lam, rho): _char_at(lam.parts, rho.parts) for lam in shapes for rho in shapes
        }
        values = sorted((a.parts, b.parts, v) for (a, b), v in chi.items())
        sizes = sorted((a.parts, v) for a, v in class_sizes.items())
        digest.update(repr((values, sizes)).encode())
    # the tables for n <= 8 as built by the per-(shape, class) memo
    expected = "0421effed20238e3fe8ed11fa8404e452b664c4e1cd81ace62e5ff9e92c0fefd"
    assert digest.hexdigest() == expected


def test_character_memo_holds_one_entry_per_shape(fresh_samples):
    _char.cache_clear()
    assert semigroup_check(samples=200, seed=0, max_total_size=18) == []
    shapes = sum(len(partitions_of(k)) for k in range(19))
    assert shapes == 1597
    assert _char.cache_info().currsize <= shapes


def test_memoized_vectors_fit_in_64_bits():
    # the vectors hold Python ints, so no width bounds them; up to the
    # oracle bound the largest |chi| has 24 bits, a fact pinned here for
    # any move back to fixed-width arrays
    peak_chi = 0
    for n in range(DEFAULT_ORACLE_BOUND + 1):
        for lam in partitions_of(n):
            values, _ = _char(lam.parts)
            assert type(values) is tuple
            peak_chi = max(peak_chi, *map(abs, values))
    assert peak_chi.bit_length() == 24


def _nonzero_pattern(values: tuple[int, ...]) -> int:
    # bit 8i set exactly when entry i is nonzero, one class at a time
    return sum(1 << 8 * i for i, value in enumerate(values) if value)


def test_each_support_is_the_nonzero_pattern_of_its_vector():
    nonzero = total = 0
    for n in range(DEFAULT_ORACLE_BOUND + 1):
        for lam in partitions_of(n):
            values, support = _char(lam.parts)
            assert support == _nonzero_pattern(values), lam
            nonzero += sum(map(bool, values))
            total += len(values)
    # some entries are zero and some are not, so the masks skip classes
    assert 0 < nonzero < total


def _reference_g(lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]) -> int:
    # the unmasked character sum: every class, three multiplications each
    n = sum(lam)
    vectors = (_char(lam)[0], _char(mu)[0], _char(nu)[0])
    total = sum(size * a * b * c for size, a, b, c in zip(_classes(n)[0], *vectors))
    value, rem = divmod(total, factorial(n))
    assert rem == 0 and value >= 0
    return value


def test_the_masked_sum_matches_the_unmasked_reference():
    for n in range(8):
        shapes = [lam.parts for lam in partitions_of(n)]
        for triple in product(shapes, repeat=3):
            assert kronecker._g(*triple) == _reference_g(*triple), triple
    rng = random.Random(40)
    for n in range(8, DEFAULT_ORACLE_BOUND + 1):
        shapes = [lam.parts for lam in partitions_of(n)]
        two_rows = [two_row(n, k).parts for k in range(n // 2 + 1)]
        for i in range(2000):
            # every other third shape has two rows, so both sums are drawn
            nu = rng.choice(two_rows if i % 2 else shapes)
            triple = (rng.choice(shapes), rng.choice(shapes), nu)
            assert kronecker._g(*triple) == _reference_g(*triple), triple


def test_the_two_row_path_matches_the_general_path():
    # every nu takes the one masked sum, which is symmetric in its three
    # shapes: a two-row nu last must read the same as the triple turned
    # so that a shape of more than two rows comes last; a pair of two-row
    # shapes has no such order, and is checked against the reference
    for n in range(1, 13):
        shapes = [lam.parts for lam in partitions_of(n)]
        for lam, mu in product(shapes, repeat=2):
            for k in range(n // 2 + 1):
                nu = two_row(n, k).parts
                if len(mu) > 2:
                    general = kronecker._g(lam, nu, mu)
                elif len(lam) > 2:
                    general = kronecker._g(nu, mu, lam)
                else:
                    general = _reference_g(lam, mu, nu)
                assert kronecker._g(lam, mu, nu) == general, (lam, mu, k)


# the class sizes of S_3 are (2, 3, 1), chi^(2,1) is (-1, 0, 2) and
# chi^(1,1,1) is (1, -1, 1), so g([2,1],[2,1],nu) sums 2*(-1) + 3*0 + 1*8 for
# nu = (2,1) and 2*1 + 3*0 + 1*4 for nu = (1,1,1), each 6 = 3!; each size
# tuple below breaks one invariant of the sum for both nu, of two rows and
# of three
_BROKEN_SIZES = [
    ((2, 3, 2), "character sum for g([2,1],[2,1],{}) is not divisible by 3!"),
    ((-2, 3, -1), "negative g([2,1],[2,1],{}) = -1"),
]


@pytest.mark.parametrize("sizes,message", _BROKEN_SIZES, ids=("indivisible", "negative"))
def test_a_broken_character_sum_is_an_internal_consistency_error(
    sizes, message, monkeypatch, capsys
):
    assert _classes(3)[0] == (2, 3, 1)
    # only the sizes break: a cold character vector still reads true blocks
    monkeypatch.setattr(kronecker, "_classes", lambda n: (sizes, _classes(n)[1]))
    for nu in ((2, 1), (1, 1, 1)):
        expected = message.format(P(nu))
        with pytest.raises(InternalConsistencyError) as err:
            g_oracle(P((2, 1)), P((2, 1)), P(nu))
        assert str(err.value) == expected
        # through the CLI: exit 2, one line on stderr and nothing on stdout
        assert run(["kron", "--lambda", "[2,1]", "--mu", "[2,1]", "--nu", str(P(nu))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal consistency error: {expected}\n"


def test_oracle_frozen_values():
    assert g_oracle(P((2, 2)), P((2, 2)), P((1, 1, 1, 1))) == 1
    assert g_oracle(P((3, 1)), P((3, 1)), P((3, 1))) == 1
    assert g_oracle(P((2, 1)), P((2, 1)), P((2, 1))) == 1
    assert g_oracle(P((3,)), P((3,)), P((3,))) == 1
    assert g_oracle(P((3,)), P((2, 1)), P((3,))) == 0


def test_oracle_symmetric_in_all_three_arguments():
    import itertools

    shapes = [P((3, 1)), P((2, 2)), P((2, 1, 1))]
    for lam, mu, nu in itertools.product(shapes, repeat=3):
        base = g_oracle(lam, mu, nu)
        for perm in itertools.permutations((lam, mu, nu)):
            assert g_oracle(*perm) == base


def test_oracle_tensor_square_dimension():
    # sum over nu of g(lam, mu, nu) dim(nu) = dim(lam) dim(mu)
    for n in range(1, 8):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                total = sum(
                    g_oracle(lam, mu, nu) * _hook_dimension(nu) for nu in partitions_of(n)
                )
                assert total == _hook_dimension(lam) * _hook_dimension(mu)


def test_oracle_with_trivial_factor():
    # tensoring with the trivial representation: g(lam, (n), nu) = [lam == nu]
    for n in range(1, 8):
        for lam in partitions_of(n):
            for nu in partitions_of(n):
                expected = 1 if lam == nu else 0
                assert g_oracle(lam, P((n,)), nu) == expected


def test_oracle_size_mismatch_rejected():
    with pytest.raises(ValueError):
        g_oracle(P((2, 1)), P((2, 2)), P((2, 1)))


def test_oracle_bound_guard():
    big = P((DEFAULT_ORACLE_BOUND + 1,))
    with pytest.raises(ValueError, match=rf"limited to n <= {DEFAULT_ORACLE_BOUND}: got 19$"):
        g_oracle(big, big, big)
    # the bound itself is allowed
    top = P((DEFAULT_ORACLE_BOUND,))
    assert g_oracle(top, top, top) == 1


def test_a_k_frozen_values():
    assert a_k(P((2, 2)), P((2, 2)), 0) == 1
    assert a_k(P((2, 2)), P((2, 2)), 1) == 1
    assert a_k(P((2, 2)), P((2, 2)), 2) == 2


def a_k_by_pairs(lam: Partition, mu: Partition, k: int) -> int:
    # the double loop over (alpha, beta) inside both shapes, one lr call
    # per coefficient: a second route to the skew-table dot products
    cap = Partition(map(min, lam, mu))
    betas = partitions_inside(cap, lam.size - k)
    total = 0
    for alpha in partitions_inside(cap, k):
        for beta in betas:
            c1 = lr(lam, alpha, beta)
            if c1:
                total += c1 * lr(mu, alpha, beta)
    return total


def test_a_k_matches_the_pairwise_lr_sum():
    for n in range(10):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for k in range(n + 1):
                    assert a_k(lam, mu, k) == a_k_by_pairs(lam, mu, k), (lam, mu, k)


def test_a_k_keeps_the_lr_size_bound():
    big = P((31, 30))
    with pytest.raises(ValueError, match="size\\(outer\\) = 61 exceeds bound 60$"):
        a_k(big, big, 1)


def test_a_k_matches_the_unrestricted_double_sum():
    # no cap on alpha and beta: the pruning in a_k must lose no term
    for n in range(1, 8):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for k in range(n + 1):
                    expected = sum(
                        lr(lam, alpha, beta) * lr(mu, alpha, beta)
                        for alpha in partitions_of(k)
                        for beta in partitions_of(n - k)
                    )
                    assert a_k(lam, mu, k) == expected


def test_g_two_row_frozen_values():
    assert g_two_row(P((2, 2)), P((2, 2)), 0) == 1
    assert g_two_row(P((2, 2)), P((2, 2)), 1) == 0
    assert g_two_row(P((2, 2)), P((2, 2)), 2) == 1


def test_g_two_row_rejects_bad_k():
    with pytest.raises(ValueError):
        g_two_row(P((2, 2)), P((2, 2)), 3)
    with pytest.raises(ValueError):
        g_two_row(P((2, 2)), P((2, 2)), -1)
    with pytest.raises(ValueError):
        g_two_row(P((2, 1)), P((2, 2)), 1)


def test_shapes_of_different_sizes_are_refused_by_a_k():
    # g_two_row leaves the size check to a_k, which raises the same error
    lam, mu = P((3, 1)), P((2, 2, 1))
    for route in (a_k, g_two_row):
        with pytest.raises(ValueError, match=r"size mismatch: \|\[3,1\]\| = 4, \|\[2,2,1\]\| = 5"):
            route(lam, mu, 1)
    with pytest.raises(ValueError, match=r"need 0 <= k <= 4: got 5"):
        a_k(lam, lam, 5)


def test_staircase_tensor_squares_by_both_routes():
    # g(delta_r, delta_r, (n - k, k)) for delta_r = (r, ..., 1), n = r(r+1)/2
    for r, want in ((4, (1, 3, 8, 15, 15, 6)), (5, (1, 4, 15, 44, 92, 141, 154, 103))):
        d = P(tuple(range(r, 0, -1)))
        n = d.size
        ks = range(n // 2 + 1)
        assert tuple(g_two_row(d, d, k) for k in ks) == want
        assert tuple(g_oracle(d, d, two_row(n, k)) for k in ks) == want


def test_hook_row_of_a_tensor_square_counts_distinct_parts():
    # g(lam, lam, (n - 1, 1)) is the number of distinct parts of lam, less 1
    for n in range(2, 13):
        for lam in partitions_of(n):
            want = len(set(lam.parts)) - 1
            assert g_two_row(lam, lam, 1) == want, lam
            assert g_oracle(lam, lam, two_row(n, 1)) == want, lam


def test_float_k_is_refused_cold_and_warm():
    # a float k once missed a memo of alpha listings (TypeError) on a
    # cold process and hit it (an answer) once k = 2 had filled it
    lam, mu = P((3, 2, 1)), P((4, 2))
    kronecker._tables.cache_clear()
    for _ in ("cold", "warm"):
        with pytest.raises(TypeError):
            g_two_row(lam, mu, 2.0)
        with pytest.raises(TypeError):
            a_k(lam, mu, 2.0)
        with pytest.raises(TypeError):
            two_row(6, 2.0)
        assert g_two_row(lam, mu, 2) == 2


@lru_cache(maxsize=None)
def _reference_skew(shape: tuple[int, ...], alpha: tuple[int, ...]) -> dict:
    return skew(shape, alpha)


def _reference_a_k(lam: Partition, mu: Partition, k: int) -> int:
    # the per-alpha route: for each alpha inside both shapes, the dot
    # product of the two skew tables keyed by beta, memoized per
    # (shape, alpha)
    total = 0
    for alpha in parts_inside(tuple(map(min, lam.parts, mu.parts)), k):
        left, right = _reference_skew(lam.parts, alpha), _reference_skew(mu.parts, alpha)
        total += sum(map(mul, left.values(), map(right.get, left, repeat(0))))
    return total


def test_a_k_matches_the_reference_route_in_both_orders():
    kronecker._tables.cache_clear()
    for n in range(10):
        shapes = partitions_of(n)
        for i, lam in enumerate(shapes):
            for mu in shapes[i:]:
                for k in range(n + 1):
                    expected = _reference_a_k(lam, mu, k)
                    assert a_k(lam, mu, k) == expected == a_k(mu, lam, k), (lam, mu, k)


def test_a_k_replays_a_partial_fill_then_a_complete_one():
    # the narrow pair leaves the wide shape's table partial, the wide
    # shape against itself completes it (its to-do set empties), and the
    # narrow pair then reads the complete table
    narrow, wide, k = P((3, 3, 3, 2, 1)), P((5, 4, 3)), 4
    kronecker._tables.cache_clear()
    steps = ((narrow, wide, False), (wide, wide, True), (narrow, wide, True), (wide, narrow, True))
    for lam, mu, complete in steps:
        expected = _reference_a_k(lam, mu, k)
        assert expected > 0
        assert a_k(lam, mu, k) == expected, (lam, mu)
        assert (not kronecker._tables._snapshots[wide.parts, k][1]) is complete, (lam, mu)
    assert kronecker._tables._snapshots[narrow.parts, k][1]


def test_a_call_on_a_complete_table_is_one_lookup_and_a_hit(monkeypatch):
    lam, k = P((4, 3, 1)), 3
    kronecker._tables.cache_clear()
    assert a_k(lam, lam, k) == _reference_a_k(lam, lam, k)
    # against itself the shape merges every alpha, so its table is complete
    assert not kronecker._tables._snapshots[lam.parts, k][1]
    info = kronecker._tables.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    # a complete table answers before the snapshot is read or anything listed
    with monkeypatch.context() as patch:
        patch.setattr(kronecker._tables, "_snapshots", None)
        patch.setattr(kronecker, "parts_inside", lambda *args: pytest.fail("listed"))
        assert kronecker._tables(lam.parts, k, (1,)) is kronecker._tables._complete[lam.parts, k]
        assert a_k(lam, lam, k) == _reference_a_k(lam, lam, k)
    assert kronecker._tables.cache_info() == (info.hits + 3, info.misses, None, 1)


def test_a_cold_a_k_fills_only_the_alphas_inside_both_shapes(monkeypatch):
    stair, wide, k = P(range(7, 0, -1)), P((14, 14)), 6
    expected = _reference_a_k(stair, wide, k)
    lr_module = importlib.import_module("qunimodal.lr")
    fill, filled = lr_module._fill, []

    def counting(outer, inner, content):
        if content is None:
            filled.append((outer, inner))
        return fill(outer, inner, content)

    monkeypatch.setattr(lr_module, "_fill", counting)
    kronecker._tables.cache_clear()
    assert a_k(stair, wide, k) == expected
    alphas = parts_inside((7, 6), k)
    # every alpha of 6 inside the staircase would be 11 tables, not 4
    assert len(alphas) == 4 < len(parts_inside(stair.parts, k)) == 11
    assert sorted(filled) == sorted((shape.parts, a) for shape in (stair, wide) for a in alphas)


def test_a_table_lists_its_shape_once_and_a_complete_one_nothing(monkeypatch):
    listed = []

    def counting(cap, k):
        listed.append(cap)
        return parts_inside(cap, k)

    monkeypatch.setattr(kronecker, "parts_inside", counting)
    kronecker._tables.cache_clear()
    cases = [
        (lam.parts, mu.parts, k)
        for n in (6, 7)
        for lam in partitions_of(n)
        for mu in partitions_of(n)
        for k in range(n + 1)
    ]
    random.Random(5).shuffle(cases)
    for shape, other, k in cases:
        # a table's shape is listed on its first call only; later calls
        # list the intersection while alphas remain to merge, then nothing
        before = kronecker._tables._snapshots.get((shape, k))
        cap = tuple(map(min, shape, other))
        listed.clear()
        kronecker._tables(shape, k, other)
        expected = [shape, cap] if before is None else [cap] if before[1] else []
        assert listed == expected, (shape, other, k)
    # the intersection (1,) holds no alpha of 3, so neither table merges
    # and a repeat lists only the intersection, not the shapes again
    line, column = P((5,)), P((1,) * 5)
    kronecker._tables.cache_clear()
    listed.clear()
    assert a_k(line, column, 3) == 0
    assert listed == [(5,), (1,), (1,) * 5, (1,)]
    listed.clear()
    assert a_k(line, column, 3) == a_k(column, line, 3) == 0
    assert listed == [(1,)] * 4


def test_g_two_row_matches_the_rectangle_identity_above_the_oracle_bound():
    # every ell <= m with 19 <= ell * m <= 40: no oracle to compare with,
    # so the two-row route is checked against p_k - p_{k-1} of gaussian
    boxes = [(ell, m) for ell in range(1, 7) for m in range(ell, 41) if 19 <= ell * m <= 40]
    assert len(boxes) == 51
    for ell, m in boxes:
        rect, poly = P((m,) * ell), gaussian(ell, m)
        for k in range(ell * m // 2 + 1):
            diff = poly.coefficient(k) - poly.coefficient(k - 1)
            assert g_two_row(rect, rect, k) == diff, (ell, m, k)


def test_shared_tables_hold_under_racing_threads():
    # for each n and k, eight threads start together on cleared tables and
    # take every pair of partitions of n in their own order, with a thread
    # switch as often as the interpreter allows, so merges into one table
    # race with each other and with dot products over it.  A race is
    # chance: a variant that merged in place failed here with "dictionary
    # changed size during iteration" in each of 8 runs, and one that
    # published the coefficients and the merged alphas in two assignments
    # lost alphas in each of 8
    groups = [
        [(lam, mu, k) for lam in partitions_of(n) for mu in partitions_of(n)]
        for n in (6, 7, 8)
        for k in range(1, n)
    ]
    expected = {case: _reference_a_k(*case) for group in groups for case in group}
    errors = []

    def work(group: list, seed: int, start: threading.Barrier) -> None:
        order = random.Random(seed).sample(group, len(group))
        start.wait()
        try:
            for case in order:
                if a_k(*case) != expected[case]:
                    errors.append(case)
        except Exception as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(3):
            for group in groups:
                kronecker._tables.cache_clear()
                start = threading.Barrier(8)
                threads = [
                    threading.Thread(target=work, args=(group, 8 * round_ + i, start), daemon=True)
                    for i in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


def test_routes_agree_small():
    ok, lines = repro_routes(7)
    assert ok, lines


def test_routes_agree_on_rectangles():
    # the application driving everything: both rows equal to a rectangle
    for rows, cols in [(2, 3), (3, 2), (2, 4), (4, 2), (3, 3)]:
        rect = P((cols,) * rows)
        n = rect.size
        for k in range(n // 2 + 1):
            via_formula = g_two_row(rect, rect, k)
            via_chars = g_oracle(rect, rect, two_row(n, k))
            assert via_formula == via_chars, (rows, cols, k)


def test_difference_identity_small_boxes():
    # up to the oracle bound itself, which the claim accepts
    ok, lines = repro_lemma12(DEFAULT_ORACLE_BOUND)
    assert ok, lines
    assert lines == ["checked the difference identity on 58 boxes with ell*m <= 18"]


def test_rectangle_difference_matches_expansion():
    ell, m = 3, 4
    rect = P((m,) * ell)
    poly = gaussian(ell, m)
    n = ell * m
    for k in range(n // 2 + 1):
        diff = poly.coefficient(k) - poly.coefficient(k - 1)
        assert g_two_row(rect, rect, k) == diff


def test_sum_of_positive_triples_stays_positive():
    # doubling the 2x2 rectangle triple keeps a positive coefficient
    small = P((2, 2))
    doubled = P((4, 4))
    g_small = g_oracle(small, small, small)
    g_doubled = g_oracle(doubled, doubled, doubled)
    assert g_small == 1
    assert g_doubled == 1
    assert g_doubled >= g_small  # doubling never drops below the original
    # trivial representations: sums of one-row triples stay at exactly 1
    assert g_oracle(P((9,)), P((9,)), P((9,))) == 1


def test_semigroup_sampler_finds_no_violations():
    assert semigroup_check(samples=60, seed=7, max_total_size=12) == []


@pytest.mark.parametrize("size", [1, DEFAULT_ORACLE_BOUND + 1])
def test_semigroup_sampler_keeps_to_the_oracle_bound(size, monkeypatch, fresh_samples):
    # refused before any sample is drawn, so the oracle guard is never lifted
    for name in ("g_oracle", "_g"):
        monkeypatch.setattr(kronecker, name, lambda *triple: pytest.fail("sampled"))
    with pytest.raises(ValueError, match=rf"max_total_size <= {DEFAULT_ORACLE_BOUND}: got {size}$"):
        semigroup_check(samples=5, seed=0, max_total_size=size)


def test_semigroup_sampler_refuses_more_than_max_samples(monkeypatch, fresh_samples):
    # refused before any sample is drawn
    with monkeypatch.context() as patch:
        patch.setattr(kronecker, "_g", lambda *triple: pytest.fail("sampled"))
        too_many = MAX_SAMPLES + 1
        with pytest.raises(ValueError, match=rf"^need 0 <= samples <= {MAX_SAMPLES}: got {too_many}$"):
            semigroup_check(samples=too_many, seed=0, max_total_size=10)
    # the bound itself is admitted
    monkeypatch.setattr(kronecker, "MAX_SAMPLES", 2)
    assert semigroup_check(samples=2, seed=0, max_total_size=10) == []
    with pytest.raises(ValueError, match=r"^need 0 <= samples <= 2: got 3$"):
        semigroup_check(samples=3, seed=0, max_total_size=10)


def test_semigroup_sampler_refuses_non_integer_sizes(monkeypatch, fresh_samples):
    monkeypatch.setattr(kronecker, "_g", lambda *triple: pytest.fail("sampled"))
    with pytest.raises(TypeError):
        semigroup_check(samples=1.5, seed=0, max_total_size=10)
    with pytest.raises(TypeError):
        semigroup_check(samples=2, seed=0, max_total_size=10.0)


def test_semigroup_sampler_is_deterministic():
    first = semigroup_check(samples=25, seed=3, max_total_size=10)
    second = semigroup_check(samples=25, seed=3, max_total_size=10)
    assert first == second


def test_the_sampler_draws_from_the_parts_of_partitions_of():
    # the pool is the class table's part tuples: the very tuples of
    # partitions_of(n), in its order
    for n in range(DEFAULT_ORACLE_BOUND + 1):
        pool = _classes(n)[2]
        assert pool == tuple(p.parts for p in partitions_of(n))
        assert all(shape is p.parts for shape, p in zip(pool, partitions_of(n)))


def test_the_sampler_memo_keeps_at_most_maxsize_triples(monkeypatch, fresh_samples):
    # a cheap g of 1 accepts every attempt, so each sample evaluates its
    # two triples and their sum: far more distinct triples than the memo
    # may keep
    monkeypatch.setattr(kronecker, "_g", lambda *triple: 1)
    assert semigroup_check(samples=MAX_SAMPLES, seed=0, max_total_size=18) == []
    info = _sampled.cache_info()
    assert info.misses > 2 * info.maxsize
    assert info.currsize <= info.maxsize


def test_a_warm_memo_returns_the_samples_of_a_cold_one(monkeypatch, fresh_samples):
    # a max that no sum reaches makes every accepted sample a violation,
    # so each list holds every sample with its three values
    monkeypatch.setattr(kronecker, "max", lambda *values: float("inf"), raising=False)
    cold = [semigroup_check(5, seed, 18) for seed in range(40)]
    misses = _sampled.cache_info().misses
    assert misses < _sampled.cache_info().maxsize
    warm = [semigroup_check(5, seed, 18) for seed in range(40)]
    # the second pass is answered from the memo alone
    assert _sampled.cache_info().misses == misses
    assert warm == cold
    assert [len(samples) for samples in cold] == [5] * 40


def test_claim_checks_return_plain_counterexample_lists(monkeypatch, fresh_samples):
    # an oracle that reads 0 everywhere breaks the identity wherever the
    # difference p_k - p_{k-1} is positive: for (2, 2), whose differences
    # are 1, 0, 1, at k = 0 and k = 2, and the claim fails without raising
    monkeypatch.setattr(repro, "g_oracle", lambda *triple: 0)
    ok, lines = repro_lemma12(4)
    assert not ok
    assert "(2,2) failed at k=0,2" in lines
    assert "(1,1) failed at k=0" in lines
    # g1 = 2, g2 = 3 and a sum of 1 is one violation, as a plain tuple;
    # the stub reads each value off its triple, not off the call order
    first, second = map(_parts, next(_reference_draws(0, 10)))
    values = {first: 2, second: 3, _summed(first, second): 1}
    assert len(values) == 3
    monkeypatch.setattr(kronecker, "_g", lambda *triple: values[triple])
    [violation] = semigroup_check(samples=1, seed=0, max_total_size=10)
    assert type(violation) is tuple
    first, second, g_first, g_second, g_sum = violation
    assert (g_first, g_second, g_sum) == (2, 3, 1)
    for triple in (first, second):
        assert type(triple) is tuple and len(triple) == 3
        assert all(isinstance(p, Partition) for p in triple)
    assert first[0].size + second[0].size <= 10
    assert (_parts(first), _parts(second)) == tuple(values)[:2]


def test_internal_consistency_error_is_runtime_error():
    assert issubclass(InternalConsistencyError, RuntimeError)

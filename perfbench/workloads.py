"""Seeded op lists for the three benchmark workloads, and how each op is
run and checked.

An op is ``(round, kind, stratum, params)``.  ``generate`` builds the
whole list before any timing starts and calls nothing in ``qunimodal``
that could fill a memo table.  The list is a sequence of *rounds*:
every round draws one op from each stratum of the workload, in a fixed
order, and the seed only picks the inputs inside each stratum.  Strata
are narrow in cost wherever the cost matters (the costly ones, and the
ones where the median and 90th percentile fall), so the mix and every
reported figure stay put from seed to seed while the inputs change.  A
run measures whole rounds.

For every op the module gives three things:

* ``prepare(lib, kind, stratum, params, tmp)``: untimed input materialisation (the
  text of a foreign certificate, the path of a round-trip file);
* ``run(lib, kind, params, prepared, stage)``: the timed call into the
  library, through the module attributes that the traced run wraps;
  ``stage[0]`` names the step in progress so a failure can say where it
  died;
* ``check(lib, kind, stratum, params, result)``: the answer checked by a second
  route; ``True`` when it is right.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

# Mersenne prime for the evaluation check of a Gaussian binomial.
_P = (1 << 61) - 1

WORKLOADS = ("boxes", "certificates", "kronecker")


def _square(lo: int, hi: int, aspect: float = 1.5):
    """Near-square box (aspect at most ``aspect``) with area in [lo, hi];
    the expansion cost depends on the area, hardly on the aspect."""

    def draw(rng: random.Random) -> tuple[int, int]:
        area = rng.uniform(lo, hi)
        ell = round(math.sqrt(area / rng.uniform(1.0, aspect)))
        m = round(area / ell)
        return min(ell, m), max(ell, m)

    return draw


def _thin(ell_lo: int, ell_hi: int, m_lo: int, m_hi: int):
    return lambda rng: (rng.randint(ell_lo, ell_hi), rng.randint(m_lo, m_hi))


def _fresh(rng: random.Random, draw, seen: set):
    """A draw not seen before in this op list, or None once the stratum
    has run dry (then the op is left out of its round; that happens only
    far beyond the op counts a run reaches at the defining commit)."""
    for _ in range(100):
        value = draw(rng)
        if value not in seen:
            seen.add(value)
            return value
    return None


# ---------------------------------------------------------------------------
# boxes: check_strict on boxes that never repeat, so every expansion misses
# the gaussian memo.  Cheap strata are wide, costly ones narrow.  Of the
# twenty-one slots of a round, sq4000 takes five (the ninth to thirteenth
# cheapest), where the median falls, and sq8000 two (nineteenth and
# twentieth), where the 90th percentile falls, so that both rest on many
# ops; sq4000 boxes may be 2.5 times as long as wide, so that there are
# enough distinct ones.  Both cost well apart from their neighbours, and
# both are squares, whose cost varies less from op to op than that of a
# thin box.
# The costliest slot takes sq12000 and thin12 in turn: both cost more than
# sq8000, and an op of half a second or more spans changes in the host's
# speed that the samples between ops cannot see, so neither holds a
# percentile.

_SQ4000 = ("sq4000", _square(3700, 4300, aspect=2.5))
_SQ8000 = ("sq8000", _square(7760, 8240))
_BOX_ROUND = (
    ("sq1000", _square(950, 1300)),
    _SQ4000,
    None,
    ("thin5", _thin(5, 6, 300, 500)),
    _SQ8000,
    ("sq1800", _square(1600, 2000)),
    _SQ4000,
    ("thin9", _thin(9, 9, 680, 780)),
    ("thin6", _thin(6, 6, 500, 700)),
    ("thin7", _thin(7, 8, 300, 450)),
    _SQ4000,
    ("sq6500", _square(6300, 6700)),
    ("sq2500", _square(2300, 2700)),
    ("thin11", _thin(11, 11, 680, 780)),
    _SQ4000,
    _SQ8000,
    ("sq3100", _square(2900, 3300)),
    ("sq5000", _square(4850, 5150)),
    ("thin10", _thin(10, 10, 580, 680)),
    ("thin8", _thin(8, 8, 380, 480)),
    _SQ4000,
)
_BOX_COSTLIEST = (("sq12000", _square(11640, 12360)), ("thin12", _thin(12, 12, 1150, 1200)))


def _boxes(rng: random.Random, rounds: int) -> list:
    seen: set = set()
    ops = []
    for r in range(rounds):
        for slot in _BOX_ROUND:
            stratum, draw = slot or _BOX_COSTLIEST[r % 2]
            box = _fresh(rng, draw, seen)
            if box is not None:
                ops.append((r, "check", stratum, box + (rng.randrange(2, _P - 1),)))
    return ops


def _gaussian_at(ell: int, m: int, x: int) -> int | None:
    """prod_{i=1..ell} (1 - x^{m+i}) / (1 - x^i) mod P, or None if a
    denominator vanishes at x."""
    num = den = 1
    for i in range(1, ell + 1):
        d = (1 - pow(x, i, _P)) % _P
        if d == 0:
            return None
        num = num * (1 - pow(x, m + i, _P)) % _P
        den = den * d % _P
    return num * pow(den, -1, _P) % _P


def _check_box(lib, ell: int, m: int, x: int, report) -> bool:
    coeffs = lib.Q.gaussian(ell, m).coeffs
    if report.n != ell * m or len(coeffs) != ell * m + 1:
        return False
    if sum(coeffs) != math.comb(ell + m, ell) or coeffs != coeffs[::-1]:
        return False
    expected = _gaussian_at(ell, m, x)
    if expected is not None:
        value = 0
        for c in reversed(coeffs):
            value = (value * x + c) % _P
        if value != expected:
            return False
    return report.strict == ((min(ell, m), max(ell, m)) not in lib.Q.EXCEPTION_PAIRS)


# ---------------------------------------------------------------------------
# certificates: build, write, read, parse and verify; classify above the
# direct bound (every pair has area above 3600, DIRECT_BOUND when this
# benchmark was defined); verify forged foreign certificates.  Certificate size, and
# so cost, follows m on thin chains and the area on squares.  The two
# thin_deep round trips are the deepest certificates and fail to parse at
# the defining commit, so they rank at the top and hold the 90th percentile.


def _sq_area(lo: int, hi: int, a_lo: int, a_hi: int):
    def draw(rng: random.Random) -> tuple[int, int]:
        a = rng.randint(a_lo, a_hi)
        return a, round(rng.uniform(lo, hi) / a)

    return draw


def _sides(lo: int, hi: int):
    return lambda rng: (rng.randint(lo, hi), rng.randint(lo, hi))


_EXCEPTIONS_BY_ELL = {5: (6, 10, 14), 6: (7, 9, 11, 13), 7: (10,)}


def _exception_leaf(rng: random.Random) -> tuple:
    ell = rng.choice(sorted(_EXCEPTIONS_BY_ELL))
    return ell, rng.choice(_EXCEPTIONS_BY_ELL[ell]), rng.randint(240, 260)


def _odd_chain(rng: random.Random) -> tuple:
    # odd ell, so "ell" never names the even member
    return rng.choice((7, 9)), 8, rng.randint(240, 260)


def _outside_window(rng: random.Random) -> tuple:
    ell = rng.randint(9, 10)
    return ell, round(rng.uniform(5900, 6100) / ell)


# Verifying a thin chain re-checks its (ell, 8) step leaf at every level,
# at a cost that grows with ell, so each thin stratum keeps ell in a
# narrow band; together they cover ell 5..15.
_CERT_ROUND = (
    ("roundtrip", "thin_short", _thin(5, 7, 1000, 1100)),
    ("classify", "sq_small", _sq_area(9000, 9600, 20, 40)),
    ("foreign", "exception_leaf", _exception_leaf),
    ("roundtrip", "thin_deep", _thin(11, 12, 29000, 30000)),
    ("classify", "thin_mid", _thin(9, 10, 6000, 6200)),
    ("roundtrip", "sq_small", _sq_area(9000, 9600, 20, 40)),
    ("foreign", "wrong_witness", _odd_chain),
    ("roundtrip", "thin_long", _thin(13, 15, 3000, 3300)),
    ("foreign", "wrong_conclusion", _odd_chain),
    ("roundtrip", "thin_deep", _thin(11, 12, 29000, 30000)),
    ("classify", "sq_large", _sides(540, 560)),
    ("foreign", "outside_window", _outside_window),
    ("roundtrip", "sq_large", _sides(540, 560)),
    ("classify", "thin_deep", _thin(11, 12, 29000, 30000)),
    ("classify", "thin_long", _thin(13, 15, 3000, 3300)),
)


def _certificates(rng: random.Random, rounds: int) -> list:
    # a true base outside the registry should miss the memo every time
    seen: set = set()
    ops = []
    for r in range(rounds):
        for kind, stratum, draw in _CERT_ROUND:
            if stratum == "outside_window":
                base = _fresh(rng, draw, seen)
                if base is None:
                    continue
                params = base + (rng.randint(40, 60),)
            else:
                params = draw(rng)
            ops.append((r, kind, stratum, params))
    return ops


def _forge(lib, mutation: str, ell: int, base_m: int, steps: int):
    """Build a chain certificate from the public dataclasses and apply one
    mutation at its deepest node, so that verify must walk the whole chain
    before it can decide."""
    C = lib.Q
    step = C.Certificate(ell=ell, m=8, node=C.BaseNode(ell=ell, m=8), transposed=False)
    claimed = base_m + 1 if mutation == "wrong_conclusion" else base_m
    cert = C.Certificate(ell=ell, m=claimed, node=C.BaseNode(ell=ell, m=base_m), transposed=False)
    for i in range(steps):
        even = "ell" if (mutation == "wrong_witness" and i == 0) else "m2"
        node = C.AddNode(ell=ell, left=cert, right=step, even_witness=even, geq3_witness="ell")
        cert = C.Certificate(ell=ell, m=cert.m + 8, node=node, transposed=False)
    return cert


# ---------------------------------------------------------------------------
# kronecker: two routes to g, and the semigroup property by sampling

_KRON_ROUND = (("routes", 8), ("semigroup", 18), ("routes", 9), ("routes", 10),
               ("semigroup", 18), ("routes", 11), ("routes", 12), ("semigroup", 18))


def _partitions(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n, enumerated here so that generating ops leaves the
    library's own tables untouched."""
    if n == 0:
        return [()]
    top = n if max_part is None else min(n, max_part)
    return [(p,) + rest for p in range(top, 0, -1) for rest in _partitions(n - p, p)]


def _kronecker(rng: random.Random, rounds: int) -> list:
    shapes = {n: _partitions(n) for n in range(8, 13)}
    ops = []
    for r in range(rounds):
        for kind, n in _KRON_ROUND:
            if kind == "routes":
                lam, mu = rng.choice(shapes[n]), rng.choice(shapes[n])
                ops.append((r, kind, f"n{n}", (lam, mu, rng.randint(0, n // 2))))
            else:
                ops.append((r, kind, f"size{n}", (rng.getrandbits(32), n)))
    return ops


# ---------------------------------------------------------------------------

_GENERATORS = {"boxes": _boxes, "certificates": _certificates, "kronecker": _kronecker}


def generate(workload: str, seed: int, rounds: int) -> list:
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), rounds)


def prepare(lib, kind: str, stratum: str, params: tuple, tmp: Path):
    if kind == "foreign":
        return lib.CERT.serialize_certificate(_forge(lib, stratum, *params))
    if kind == "roundtrip":
        return tmp / "roundtrip.json"
    return None


def run(lib, kind: str, params: tuple, prepared, stage: list):
    if kind == "check":
        ell, m, _ = params
        stage[0] = "check_strict"
        return lib.UNI.check_strict(ell, m)
    if kind == "roundtrip":
        ell, m = params
        stage[0] = "certify"
        cert = lib.CERT.certify(ell, m)
        stage[0] = "serialize"
        text = lib.CERT.serialize_certificate(cert)
        stage[0] = "write"
        prepared.write_text(text)
        stage[0] = "read"
        text = prepared.read_text()
        stage[0] = "parse"
        parsed = lib.CERT.parse_certificate(text)
        stage[0] = "verify"
        return lib.CERT.verify(parsed)
    if kind == "classify":
        ell, m = params
        stage[0] = "classify"
        return lib.UNI.classify(ell, m)
    if kind == "foreign":
        stage[0] = "parse"
        parsed = lib.CERT.parse_certificate(prepared)
        stage[0] = "verify"
        return lib.CERT.verify(parsed)
    if kind == "routes":
        lam, mu, k = params
        lam, mu = lib.Q.Partition(lam), lib.Q.Partition(mu)
        stage[0] = "g_two_row"
        via_lr = lib.KRON.g_two_row(lam, mu, k)
        stage[0] = "g_oracle"
        via_chars = lib.KRON.g_oracle(lam, mu, lib.KRON.two_row(lam.size, k))
        return via_lr, via_chars
    if kind == "semigroup":
        s, size = params
        stage[0] = "semigroup_check"
        return lib.KRON.semigroup_check(samples=1, seed=s, max_total_size=size)
    raise ValueError(kind)


def check(lib, kind: str, stratum: str, params: tuple, result) -> bool:
    if kind == "check":
        return _check_box(lib, *params, result)
    if kind == "roundtrip":
        return bool(result.ok) and (result.ell, result.m) == params
    if kind == "classify":
        return result == lib.Q.PairClass.Strict
    if kind == "foreign":
        # a true chain on a base outside the registry may go either way
        return stratum == "outside_window" or not result.ok
    if kind == "routes":
        return result[0] == result[1]
    if kind == "semigroup":
        return result == []
    raise ValueError(kind)

"""Additivity certificates for strict unimodality.

The additivity step: if the coefficient vectors for (ell, m1) and
(ell, m2) are both strictly unimodal, all of ell, m1, m2 are at least 2,
at least one of them is at least 3, and at least one of them is even,
then the vector for (ell, m1 + m2) is strictly unimodal as well.  The
step never asks that m1 and m2 differ, so a certificate is a DAG whose
leaves are directly verified pairs and whose internal nodes are
additivity steps; a transposition flag lets a sub-certificate conclude
the mirrored pair, which is how the step is applied in the ell direction.

Construction is deterministic:

* base pairs: 8..15 x 8..15, and ell in {5,6,7} with m in 5..20, minus
  the nine exceptional pairs, plus (5,22) and (6,21), plus transposes.
  Every base pair is re-verified coefficient by coefficient when the
  registry is built.  (5,22) and (6,21) must be bases: every two-part
  split of them lands on an exceptional pair or has no even member.
* min(ell, m) <= 15: keep ell fixed, start from the largest registered
  (ell, s) with s <= m and s = m mod 8 (read from a table of starts per
  (ell, m mod 8), built once per registry), and add (m - s) / 8 steps of
  (ell, 8) by binary doubling: the step added to itself (both halves one
  entry) gives (ell, 16), (ell, 32), ..., and the powers named
  by the binary digits of (m - s) / 8 are added onto the base.  Steps of
  8 dodge every exceptional pair, which steps of 10 would not (ell = 5
  and 7 have exceptions at m = 10 itself).
* min(ell, m) >= 16: grow the smaller side the same way, larger side
  fixed, from transposed certificates for (8 + (min - 8) % 8, max) and
  (8, max).

So a certificate has O(log m) distinct sub-certificates, and its wire
form lists each once, children before parents and the root last, in
the order of a depth-first walk from the root (left before right):
{"version": 2, "conclusion": {"ell", "m"}, "nodes": [{"base": [l, m]} |
{"add": [ell, i, j], "even": w, "geq3": w} | {"t": i}, ...]}, where i
and j index earlier entries, {"t": i} concludes the mirror of entry i,
and each witness w is "ell", "m1" or "m2".  Serialization writes the
canonical JSON text (sorted keys, no whitespace) straight from the
table, one format string per entry kind; ``parse_certificate`` is its
one reader, and it and the constructor refuse any other witness name.

A ``Certificate`` is its claim and its table, ``(ell, m, entries)``,
and nothing else.  ``certify`` builds the table directly, doubling on
indices, and its builder already interns entries in canonical order.
``parse_certificate`` validates each wire entry into its table entry in
one forward loop, then checks canonical order in one reverse loop over
the table (``_canonical``).  One built by hand from ``BaseNode``/``AddNode``
objects splices its children's tables when it is made and keeps no
object.  Every constructor refuses a claim other than two ``int``, so
each certificate is one that parse could return.  Serialization,
``verify``, ``==``, ``hash`` and ``repr`` read the table and the claim.
``BaseNode``, ``AddNode`` and ``VerificationResult`` are ``NamedTuple``
classes and ``Certificate`` is a frozen plain class; none is a dataclass,
and ``json`` is imported only to read a certificate, so
importing the package loads neither ``dataclasses`` nor ``json``.

``verify`` replays the table on every call, re-testing every additivity
entry's side conditions and witnesses, and checks each distinct leaf
directly once per process (``_leaf_strict``), so it accepts foreign
certificates and rejects tampered ones regardless of origin.
No certificate holds over ``MAX_NODES`` entries, and ``verify`` rejects,
without expanding anything, one of over ``MAX_LEAVES`` distinct leaves
and any leaf of area above ``MAX_LEAF_AREA``; ``parse_certificate``
rejects a document of over ``MAX_BYTES`` (2 MiB) before reading it,
counted in bytes for ``bytes`` and in characters for ``str``.
"""

from __future__ import annotations

import operator
from functools import cache
from typing import NamedTuple

from .unimodality import EXCEPTION_PAIRS, check_strict

_CHAIN_STEP = 8
_VERSION = 2

# Bounds on what verify will replay.  certify refuses a pair whose
# table would exceed MAX_NODES and uses at most four distinct leaves,
# all inside the registry window (largest area 225).
MAX_NODES = 4096
MAX_LEAVES = 64
MAX_LEAF_AREA = 3600
# The longest document parse_certificate reads, above all that certify
# writes: bytes of a bytes document, characters of a str (len() of each).
# certify writes ASCII, where the two agree; the CLI reads bytes.
# Only the x entries of the outer chain of a min >= 16 pair carry a large
# side, and that side's y binary digits take y entries of its own chain,
# so x + y <= MAX_NODES and the output peaks near x = y = 2048:
# 1,451,805 bytes for (8 * 2^2046, 8 * 2^2046 + 8), the largest found.
MAX_BYTES = 1 << 21
# what a claim must be, in the constructor and in parse
_CLAIM = 'expected {"ell": int, "m": int}'
# the names a witness may take, in the constructor and in parse
_WITNESSES = ("ell", "m1", "m2")


class NotCertifiableError(Exception):
    """The pair is outside the certifiable region.

    ``reason`` is one of "trivial" (min = 1), "small" (min in 2..4), or
    "exception" (one of the nine non-strict pairs with min >= 5).
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class CertificateFormatError(Exception):
    """A serialized certificate does not match the schema."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


class BaseNode(NamedTuple):
    """Leaf: the pair (ell, m) is claimed strictly unimodal outright."""

    ell: int
    m: int


class AddNode(NamedTuple):
    """Additivity step at fixed ``ell`` combining two sub-certificates.

    ``left`` and ``right`` must conclude (ell, m1) and (ell, m2); the
    node concludes (ell, m1 + m2).  The witnesses name which member of
    {ell, m1, m2} is even and which is >= 3.  ``left`` and ``right`` may
    be the same object.
    """

    ell: int
    left: "Certificate"
    right: "Certificate"
    even_witness: str
    geq3_witness: str


class Certificate:
    """A claimed conclusion (ell, m) plus the table that supports it.

    Its only fields are the claim ``ell`` and ``m``, two ``int``, and
    ``entries``, the canonical table, root last; a mirrored root is an
    entry ``("t", i)``.  Only the root's claim is read by ``verify`` and
    the serializer; sub-certificates conclude what their entries derive.

    ``certify`` and ``parse_certificate`` return one that holds just these.
    One built by hand reads ``node`` and ``transposed`` once, when it is
    made, and keeps neither: its table is the left child's entries as they
    are, then the right child's, renumbered and appended where new, then
    its own entry and, when ``transposed`` is true, the mirror of it.  That
    is the order of a depth-first walk of the objects from the root.  A
    claim other than two ``int`` raises ``CertificateFormatError`` at
    ``$.conclusion``, as parse does; a node or flag that is not a
    certificate's, or a table of over ``MAX_NODES`` entries, raises it at a
    path under ``$.nodes``.  So does an ``AddNode`` whose witnesses are not
    each the ``str`` "ell", "m1" or "m2", at the entry it would take, as
    parse refuses such a wire entry.  So every certificate is one that
    parse could return, and ``parse_certificate(serialize_certificate(c)) == c``.

    It is frozen: assigning or deleting an attribute raises
    ``AttributeError``.  Its fields live in its ``__dict__``, which is what
    ``vars``, ``pickle`` and ``copy`` read and write.
    """

    ell: int
    m: int
    entries: tuple[tuple, ...]

    def __init__(self, ell: int, m: int, node: "BaseNode | AddNode", transposed: bool) -> None:
        if not (type(ell) is type(m) is int):
            raise CertificateFormatError("$.conclusion", _CLAIM)
        table, extra, own = (), [], None
        if type(node) is AddNode:
            left, right = node.left, node.right
            if not (_holds_table(left) and _holds_table(right)):
                raise CertificateFormatError("$.nodes", "not a certificate")
            # the right child's entries are distinct, and stay so when
            # renumbered: each is found in the left child's table or is new
            table, new = left.entries, []  # new: entry of right -> its entry here
            for key in right.entries:
                if key[0] == "add":
                    key = ("add", key[1], new[key[2]], new[key[3]], key[4], key[5])
                elif key[0] == "t":
                    key = ("t", new[key[1]])
                try:
                    new.append(table.index(key))
                except ValueError:
                    new.append(len(table) + len(extra))
                    extra.append(key)
            ew, gw = node.even_witness, node.geq3_witness
            # exactly str: a subclass could bring its own == and __str__
            if type(node.ell) is int and type(ew) is type(gw) is str:
                if ew in _WITNESSES and gw in _WITNESSES:
                    own = ("add", node.ell, len(table) - 1, new[-1], ew, gw)
        elif type(node) is BaseNode and type(node.ell) is type(node.m) is int:
            own = ("base", node.ell, node.m)
        at = len(table) + len(extra)
        if own is None or type(transposed) is not bool:
            raise CertificateFormatError(f"$.nodes[{at}]", "not a certificate")
        extra.append(own)
        if transposed:
            extra.append(("t", at))
        entries = table + tuple(extra)
        if len(entries) > MAX_NODES:
            raise CertificateFormatError("$.nodes", f"over MAX_NODES = {MAX_NODES} entries")
        vars(self).update(ell=ell, m=m, entries=entries)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.ell, self.m, self.entries) == (other.ell, other.m, other.entries)

    def __hash__(self) -> int:
        return hash((self.ell, self.m, self.entries))

    def __repr__(self) -> str:
        return f"Certificate(ell={self.ell!r}, m={self.m!r}, entries={len(self.entries)})"


def _holds_table(obj: object) -> bool:
    """Whether ``obj`` is a certificate holding a table (``object.__new__`` makes none)."""
    return type(obj) is Certificate and "entries" in vars(obj)


class VerificationResult(NamedTuple):
    ok: bool
    ell: int | None = None
    m: int | None = None
    reason: str | None = None
    path: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _registry_candidates() -> set[tuple[int, int]]:
    cands = {(l, m) for l in range(8, 16) for m in range(l, 16)}
    for l in range(5, 8):
        for m in range(5, 21):
            cands.add((min(l, m), max(l, m)))
    cands.add((5, 22))
    cands.add((6, 21))
    return cands


@cache
def _leaf_strict(a: int, b: int) -> bool:
    """Whether leaf (a, b), a <= b, is strict, checked once per process.
    Callers keep to ``MAX_LEAF_AREA``, so at most 15,060 pairs are held."""
    return check_strict(a, b).strict


def build_base_registry() -> frozenset[tuple[int, int]]:
    """The pairs certificates may use as leaves, each verified directly.

    A candidate that fails the direct check must be one of the nine
    expected exceptional pairs; any other disagreement aborts, because
    it would mean the construction recipe itself is wrong.
    """
    verified: set[tuple[int, int]] = set()
    for a, b in sorted(_registry_candidates()):
        strict = _leaf_strict(a, b)
        expected_exception = (a, b) in EXCEPTION_PAIRS
        if strict and not expected_exception:
            verified.add((a, b))
        elif not strict and expected_exception:
            continue
        else:
            raise RuntimeError(
                f"base registry contradiction at ({a},{b}): "
                f"strict={strict}, expected_exception={expected_exception}"
            )
    return frozenset(verified | {(b, a) for a, b in verified})


@cache
def default_registry() -> frozenset[tuple[int, int]]:
    return build_base_registry()


def _exceptional(a: int, b: int, reg: frozenset[tuple[int, int]]) -> bool:
    """Whether (a, b), 5 <= a <= b, is one of the nine non-strict pairs:
    inside the directly computed window (a <= 7, b <= 20) but not
    registered.  The ``theorem`` claim checks that these are exactly
    ``EXCEPTION_PAIRS`` and that the recipe reaches every other pair."""
    return a <= 7 and b <= 20 and (a, b) not in reg


@cache
def _chain_starts(reg: frozenset[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """(a, r) -> the largest registered (a, s) with a <= 15 and s = r mod 8:
    where the chain for (a, b), b = r mod 8, starts."""
    starts: dict[tuple[int, int], int] = {}
    for a, s in sorted(reg):
        if a <= 15:
            starts[a, s % _CHAIN_STEP] = s
    return starts


def _witnesses(ell: int, m1: int, m2: int) -> tuple[str, str]:
    """The names of the first even member of (ell, m1, m2) and of the first
    other member >= 3, or of the even one itself when no other is >= 3."""
    if ell % 2 == 0:
        even, geq3 = "ell", "m1" if m1 >= 3 else "m2" if m2 >= 3 else "ell" if ell >= 3 else ""
    elif m1 % 2 == 0:
        even, geq3 = "m1", "ell" if ell >= 3 else "m2" if m2 >= 3 else "m1" if m1 >= 3 else ""
    elif m2 % 2 == 0:
        even, geq3 = "m2", "ell" if ell >= 3 else "m1" if m1 >= 3 else "m2" if m2 >= 3 else ""
    else:
        even = geq3 = ""
    if not geq3:
        raise ValueError(f"({ell},{m1},{m2}) lacks an even member or a member >= 3")
    return even, geq3


class _Builder:
    """A table under construction: entries merged by key, each kept with
    the pair it concludes; ``position`` lists the entries in insertion
    order, each with its index."""

    def __init__(self) -> None:
        self.pairs: list[tuple[int, int]] = []
        self.position: dict[tuple, int] = {}

    def _intern(self, key: tuple, pair: tuple[int, int]) -> int:
        at = self.position.setdefault(key, len(self.pairs))
        if at == len(self.pairs):
            if at == MAX_NODES:
                raise ValueError(f"the certificate would need over MAX_NODES = {MAX_NODES} entries")
            self.pairs.append(pair)
        return at

    def base(self, ell: int, m: int) -> int:
        return self._intern(("base", ell, m), (ell, m))

    def add(self, i: int, j: int) -> int:
        (ell, m1), (_, m2) = self.pairs[i], self.pairs[j]
        return self._intern(("add", ell, i, j, *_witnesses(ell, m1, m2)), (ell, m1 + m2))

    def mirror(self, i: int) -> int:
        ell, m = self.pairs[i]
        return self._intern(("t", i), (m, ell))


def _chain(table: _Builder, acc: int, step: int, count: int) -> int:
    """Entry ``acc`` plus ``count`` copies of entry ``step``, by binary doubling."""
    while count:
        if count & 1:
            acc = table.add(acc, step)
        count >>= 1
        if count:
            step = table.add(step, step)
    return acc


def _build(ell: int, m: int, reg: frozenset[tuple[int, int]], table: _Builder) -> int:
    """The entry concluding (ell, m), for min side >= 5, pair not
    exceptional; choosing the orientation here means no entry is a
    mirror of a mirror or unreachable from the root."""
    a, b = min(ell, m), max(ell, m)
    if (a, b) in reg:
        at = table.base(a, b)
    elif a <= 15:
        if _exceptional(a, b, reg):
            raise NotCertifiableError(
                "exception", f"({a},{b}) is one of the nine non-strict pairs"
            )
        # for every b that reaches this branch the start found is below b,
        # as the ``theorem`` claim checks
        start = _chain_starts(reg).get((a, b % _CHAIN_STEP))
        if start is None:
            raise RuntimeError(f"no chain base found for ({a},{b})")
        count = (b - start) // _CHAIN_STEP
        at = _chain(table, table.base(a, start), table.base(a, _CHAIN_STEP), count)
    else:
        # both sides beyond the base window: grow the smaller side in
        # steps of 8, larger side fixed, from mirrored children; the
        # chain concludes (b, a)
        a0 = 8 + (a - 8) % _CHAIN_STEP
        acc, step = _build(b, a0, reg, table), _build(b, _CHAIN_STEP, reg, table)
        grown = _chain(table, acc, step, (a - a0) // _CHAIN_STEP)
        return grown if ell > m else table.mirror(grown)
    return table.mirror(at) if ell > m else at


def certify(ell: int, m: int) -> Certificate:
    """Build the canonical certificate that (ell, m) is strictly unimodal.

    Deterministic: the same pair always yields the same table.  Refuses
    pairs outside the certifiable region (min < 5 or one of the nine
    exceptional pairs) with a reasoned error, and raises ``ValueError``
    as soon as the table would exceed ``MAX_NODES`` entries.
    """
    ell, m = operator.index(ell), operator.index(m)
    if ell < 1 or m < 1:
        raise ValueError(f"need ell, m >= 1: got ell={ell} m={m}")
    a, b = min(ell, m), max(ell, m)
    if a == 1:
        raise NotCertifiableError("trivial", f"({ell},{m}) is trivial: all coefficients are 1")
    if a <= 4:
        raise NotCertifiableError(
            "small", f"({ell},{m}) has min side {a} < 5, below the certifiable region"
        )
    table = _Builder()
    _build(ell, m, default_registry(), table)
    return _tabled(ell, m, tuple(table.position))


# ---------------------------------------------------------------------------
# the table: what serialize, parse and verify read
#
# Each entry is a key tuple: ("base", l, m), ("add", ell, i, j, even,
# geq3) or ("t", i), with i and j indexing earlier entries.


def _canonical(entries: tuple[tuple, ...]) -> bool:
    """Whether ``entries`` (references name earlier entries) is the
    canonical table of its last entry: distinct, no mirror of a mirror, in
    depth-first order, children before parents and left before right.  In
    that order the root brings in the block [0, n - 1], and an entry with
    block [s, p] hands [s, i] to a left child i >= s, then what follows,
    up to j, to a right child j at or above that.  Blocks nest, so none is
    handed twice; an entry handed none is unreachable or out of order."""
    n = len(entries)
    if len(set(entries)) != n:
        return False
    start = [-1] * n  # entry -> the first entry of its block
    start[-1] = 0
    for p in range(n - 1, -1, -1):
        s, key = start[p], entries[p]
        if s < 0:
            return False
        kind = key[0]
        if kind == "add":
            i, j = key[2], key[3]
            if i >= s:
                start[i], s = s, i + 1
            if j >= s:
                start[j] = s
        elif kind == "t":
            i = key[1]
            if entries[i][0] == "t":
                return False
            if i >= s:
                start[i] = s
    return True


def _tabled(ell: int, m: int, table: tuple[tuple, ...]) -> Certificate:
    """A certificate for the claim (ell, m), two ``int``, that holds ``table``."""
    cert = object.__new__(Certificate)
    vars(cert).update(ell=ell, m=m, entries=table)
    return cert


def verify(cert: Certificate) -> VerificationResult:
    """Replay a certificate: re-check every leaf and every side condition.

    One loop over the table the certificate holds; every call re-checks
    every side condition and witness, and each distinct leaf pair is
    computed directly once per process.  Never raises: anything that is
    not a certificate holding a table is rejected at its first entry.
    """

    def reject(reason: str, at: "int | str") -> VerificationResult:
        path = at if type(at) is str else f"$.nodes[{at}]"
        return VerificationResult(ok=False, reason=reason, path=path)

    if not _holds_table(cert):
        return reject("not a certificate", 0)
    table = cert.entries
    leaves = sum(1 for entry in table if entry[0] == "base")
    if leaves > MAX_LEAVES:
        return reject(f"{leaves} distinct leaves, more than MAX_LEAVES = {MAX_LEAVES}", "$.nodes")
    concluded: list[tuple[int, int]] = []
    for at, entry in enumerate(table):
        kind = entry[0]
        if kind == "base":
            _, ell, m = entry
            if ell < 1 or m < 1:
                return reject("base pair sides must be positive", at)
            if ell * m > MAX_LEAF_AREA:
                return reject(f"base pair area exceeds MAX_LEAF_AREA = {MAX_LEAF_AREA}", at)
            if not _leaf_strict(min(ell, m), max(ell, m)):
                return reject(f"base pair ({ell},{m}) is not strictly unimodal", at)
            concluded.append((ell, m))
            continue
        if kind == "t":
            ell, m = concluded[entry[1]]
            concluded.append((m, ell))
            continue
        _, ell, i, j, ew, gw = entry
        (l1, m1), (l2, m2) = concluded[i], concluded[j]
        if l1 != ell or l2 != ell:
            return reject(f"children conclude ell {l1}/{l2}, not the node's ell", at)
        if min(ell, m1, m2) < 2:
            return reject(f"side condition failed: ell={ell} m1={m1} m2={m2} must be >= 2", at)
        # a name that is no member reads as 1, which is odd and below 3
        if (ell if ew == "ell" else m1 if ew == "m1" else m2 if ew == "m2" else 1) % 2:
            return reject(f"even witness {ew!r} does not name an even member", at)
        if (ell if gw == "ell" else m1 if gw == "m1" else m2 if gw == "m2" else 1) < 3:
            return reject(f"size witness {gw!r} does not name a member >= 3", at)
        concluded.append((ell, m1 + m2))
    if concluded[-1] != (cert.ell, cert.m):
        ell, m = concluded[-1]
        return reject(f"conclusion differs from the table's ({ell},{m})", "$.conclusion")
    return VerificationResult(ok=True, ell=cert.ell, m=cert.m)


# ---------------------------------------------------------------------------
# serialization


def serialize_certificate(cert: Certificate) -> str:
    """Canonical JSON (sorted keys, no whitespace, byte-stable), written
    straight from the table, one format string per entry kind."""
    if not _holds_table(cert):
        raise CertificateFormatError("$.nodes[0]", "not a certificate")
    nodes = []
    for entry in cert.entries:
        kind = entry[0]
        if kind == "add":
            nodes.append('{"add":[%d,%d,%d],"even":"%s","geq3":"%s"}' % entry[1:])
        elif kind == "base":
            nodes.append('{"base":[%d,%d]}' % (entry[1], entry[2]))
        else:
            nodes.append('{"t":%d}' % entry[1])
    return '{"conclusion":{"ell":%d,"m":%d},"nodes":[%s],"version":%d}' % (
        cert.ell, cert.m, ",".join(nodes), _VERSION
    )


def parse_certificate(text: "str | bytes") -> Certificate:
    """The certificate a canonical document states, or ``CertificateFormatError``
    at the path of the first thing wrong.  A witness other than "ell", "m1"
    or "m2" is refused here, at its entry; ``verify`` decides whether a
    named member is even or at least 3."""
    if len(text) > MAX_BYTES:
        unit = "characters" if isinstance(text, str) else "bytes"
        raise CertificateFormatError("$", f"over MAX_BYTES = {MAX_BYTES} {unit}")
    import json
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as err:
        raise CertificateFormatError("$", f"not valid JSON: {err}") from None
    if type(obj) is not dict or set(obj) != {"version", "conclusion", "nodes"}:
        raise CertificateFormatError("$", 'expected keys ["conclusion", "nodes", "version"]')
    if type(obj["version"]) is not int or obj["version"] != _VERSION:
        raise CertificateFormatError("$.version", f"expected {_VERSION}")
    concl, nodes = obj["conclusion"], obj["nodes"]
    if type(concl) is not dict or set(concl) != {"ell", "m"} or not (
        type(concl["ell"]) is type(concl["m"]) is int
    ):
        raise CertificateFormatError("$.conclusion", _CLAIM)
    if type(nodes) is not list or not 1 <= len(nodes) <= MAX_NODES:
        raise CertificateFormatError("$.nodes", f"expected 1 to {MAX_NODES} entries")
    # each wire entry into its key; an entry of one or three keys whose
    # values all check has exactly the keys named
    entries: list[tuple] = []
    for at, item in enumerate(nodes):
        if type(item) is dict:
            if len(item) == 3:
                add, ew, gw = item.get("add"), item.get("even"), item.get("geq3")
                if type(add) is list and len(add) == 3 and ew in _WITNESSES and gw in _WITNESSES:
                    ell, i, j = add
                    if type(ell) is type(i) is type(j) is int and 0 <= i < at and 0 <= j < at:
                        entries.append(("add", ell, i, j, ew, gw))
                        continue
            elif len(item) == 1:
                base, t = item.get("base"), item.get("t")
                if type(base) is list and len(base) == 2 and type(base[0]) is type(base[1]) is int:
                    entries.append(("base", base[0], base[1]))
                    continue
                if type(t) is int and 0 <= t < at:
                    entries.append(("t", t))
                    continue
        raise CertificateFormatError(
            f"$.nodes[{at}]",
            'expected {"base": [l, m]}, {"add": [ell, i, j], "even": w, "geq3": w} or {"t": i}, '
            'where i and j index earlier entries and w is "ell", "m1" or "m2"',
        )
    table = tuple(entries)
    if not _canonical(table):
        raise CertificateFormatError("$.nodes", "not canonical: distinct, in walk order")
    return _tabled(concl["ell"], concl["m"], table)

"""Additivity certificates for strict unimodality.

The additivity step: if the coefficient vectors for (ell, m1) and
(ell, m2) are both strictly unimodal, all of ell, m1, m2 are at least 2,
at least one of them is at least 3, and at least one of them is even,
then the vector for (ell, m1 + m2) is strictly unimodal as well.  A
certificate is a tree whose leaves are directly verified pairs and
whose internal nodes are additivity steps; a transposition flag lets a
subtree certify the mirrored pair, which is how the step is applied in
the ell direction.

Construction is deterministic:

* base pairs: 8..15 x 8..15, and ell in {5,6,7} with m in 5..20, minus
  the nine exceptional pairs, plus (5,22) and (6,21), plus transposes.
  Every base pair is re-verified coefficient by coefficient when the
  registry is built.  (5,22) and (6,21) must be bases: every two-part
  split of them lands on an exceptional pair or has no even member.
* min(ell, m) <= 15: keep ell fixed and walk m down in steps of 8 until
  a registered base pair is reached; each step is one additivity node
  with m2 = 8.  Steps of 8 dodge every exceptional pair, which steps of
  10 would not (ell = 5 and 7 have exceptions at m = 10 itself).
* min(ell, m) >= 16: reduce the smaller side in steps of 8 the same
  way, with the larger side fixed; the two children are transposed
  sub-certificates.

``verify`` replays a certificate from scratch: every base leaf is
re-checked by direct computation and every additivity node's side
conditions and witnesses are re-tested, so it accepts foreign
certificates and rejects tampered ones regardless of origin.
Serialization is canonical JSON (sorted keys, no whitespace), so equal
certificates serialize byte-identically.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass

from .unimodality import EXCEPTION_PAIRS, check_strict

_CHAIN_STEP = 8


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


@dataclass(frozen=True)
class BaseNode:
    """Leaf: the pair (ell, m) is claimed strictly unimodal outright."""

    ell: int
    m: int


@dataclass(frozen=True)
class AddNode:
    """Additivity step at fixed ``ell`` combining two sub-certificates.

    ``left`` and ``right`` must conclude (ell, m1) and (ell, m2); the
    node concludes (ell, m1 + m2).  The witnesses name which member of
    {ell, m1, m2} is even and which is >= 3.
    """

    ell: int
    left: "Certificate"
    right: "Certificate"
    even_witness: str
    geq3_witness: str


@dataclass(frozen=True)
class Certificate:
    """A claimed conclusion (ell, m) plus the tree that supports it.

    When ``transposed`` is false the node concludes (ell, m) directly;
    when true the node concludes (m, ell) and the claim is its mirror.
    """

    ell: int
    m: int
    node: "BaseNode | AddNode"
    transposed: bool


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    ell: int | None = None
    m: int | None = None
    reason: str | None = None
    path: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class BaseRegistry:
    """The directly verified pairs certificates may use as leaves."""

    pairs: frozenset[tuple[int, int]]

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self.pairs


def _registry_candidates() -> set[tuple[int, int]]:
    cands = {(l, m) for l in range(8, 16) for m in range(l, 16)}
    for l in range(5, 8):
        for m in range(5, 21):
            cands.add((min(l, m), max(l, m)))
    cands.add((5, 22))
    cands.add((6, 21))
    return cands


def build_base_registry() -> BaseRegistry:
    """Build the registry, re-verifying every candidate pair directly.

    A candidate that fails the direct check must be one of the nine
    expected exceptional pairs; any other disagreement aborts, because
    it would mean the construction recipe itself is wrong.
    """
    verified: set[tuple[int, int]] = set()
    for a, b in sorted(_registry_candidates()):
        strict = check_strict(a, b).strict
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
    pairs = frozenset(verified | {(b, a) for a, b in verified})
    return BaseRegistry(pairs=pairs)


_default_registry: "BaseRegistry | None" = None


def default_registry() -> BaseRegistry:
    global _default_registry
    if _default_registry is None:
        _default_registry = build_base_registry()
    return _default_registry


def _witnesses(ell: int, m1: int, m2: int) -> tuple[str, str]:
    members = (("ell", ell), ("m1", m1), ("m2", m2))
    even = next(name for name, v in members if v % 2 == 0)
    geq3 = next(
        (name for name, v in members if v >= 3 and name != even),
        next(name for name, v in members if v >= 3),
    )
    return even, geq3


def _base_cert(ell: int, m: int) -> Certificate:
    return Certificate(ell=ell, m=m, node=BaseNode(ell=ell, m=m), transposed=False)


def _add_cert(ell: int, left: Certificate, right: Certificate) -> Certificate:
    even, geq3 = _witnesses(ell, left.m, right.m)
    node = AddNode(ell=ell, left=left, right=right, even_witness=even, geq3_witness=geq3)
    return Certificate(ell=ell, m=left.m + right.m, node=node, transposed=False)


def _transposed(cert: Certificate) -> Certificate:
    return Certificate(ell=cert.m, m=cert.ell, node=cert.node, transposed=not cert.transposed)


def _build(a: int, b: int, reg: BaseRegistry) -> Certificate:
    """Certificate concluding (a, b) for 5 <= a <= b, pair not exceptional."""
    if (a, b) in reg:
        return _base_cert(a, b)
    if a <= 15:
        if a <= 7 and b <= 20:
            # inside the directly-computed window but not registered:
            # one of the nine exceptional pairs
            raise NotCertifiableError(
                "exception", f"({a},{b}) is one of the nine non-strict pairs"
            )
        start = b
        while (a, start) not in reg:
            start -= _CHAIN_STEP
            if start < 5:
                raise RuntimeError(f"no chain base found for ({a},{b})")
        step = _base_cert(a, _CHAIN_STEP)
        cert = _base_cert(a, start)
        while cert.m < b:
            cert = _add_cert(a, cert, step)
        return cert
    # both sides beyond the base window: reduce the smaller side in
    # steps of 8, larger side fixed, via transposed children
    a0 = 8 + (a - 8) % _CHAIN_STEP
    acc = _transposed(_build(a0, b, reg))
    step = _transposed(_build(_CHAIN_STEP, b, reg))
    while acc.m < a:
        acc = _add_cert(b, acc, step)
    return Certificate(ell=a, m=b, node=acc.node, transposed=True)


def certify(ell: int, m: int, *, registry: "BaseRegistry | None" = None) -> Certificate:
    """Build the canonical certificate that (ell, m) is strictly unimodal.

    Deterministic: the same pair always yields the same tree.  Refuses
    pairs outside the certifiable region (min < 5 or one of the nine
    exceptional pairs) with a reasoned error.
    """
    if ell < 1 or m < 1:
        raise ValueError(f"need ell, m >= 1: got ell={ell} m={m}")
    a, b = min(ell, m), max(ell, m)
    if a == 1:
        raise NotCertifiableError("trivial", f"({ell},{m}) is trivial: all coefficients are 1")
    if a <= 4:
        raise NotCertifiableError(
            "small", f"({ell},{m}) has min side {a} < 5, below the certifiable region"
        )
    reg = registry if registry is not None else default_registry()
    cert = _build(a, b, reg)
    if ell <= m:
        return cert
    return _transposed(cert)


def _node_conclusion(node: "BaseNode | AddNode") -> tuple[int, int]:
    if isinstance(node, BaseNode):
        return node.ell, node.m
    return node.ell, node.left.m + node.right.m


def verify(cert: Certificate) -> VerificationResult:
    """Replay a certificate: re-check every leaf and every side condition.

    Independent of how the certificate was produced; iterative, so
    arbitrarily long chains verify without recursion limits.
    """
    if not isinstance(cert, Certificate):
        return VerificationResult(ok=False, reason="not a certificate", path="$")
    stack: list[tuple[Certificate, str]] = [(cert, "$")]
    while stack:
        cur, path = stack.pop()
        node = cur.node
        if isinstance(node, BaseNode):
            if node.ell < 1 or node.m < 1:
                return VerificationResult(
                    ok=False, reason=f"base pair ({node.ell},{node.m}) is not a pair of positive sides", path=path
                )
            if not check_strict(node.ell, node.m).strict:
                return VerificationResult(
                    ok=False,
                    reason=f"base pair ({node.ell},{node.m}) is not strictly unimodal",
                    path=path,
                )
        elif isinstance(node, AddNode):
            if not isinstance(node.left, Certificate) or not isinstance(node.right, Certificate):
                return VerificationResult(ok=False, reason="additivity children must be certificates", path=path)
            if node.left.ell != node.ell or node.right.ell != node.ell:
                return VerificationResult(
                    ok=False,
                    reason=f"children conclude ell {node.left.ell}/{node.right.ell}, node has ell {node.ell}",
                    path=path,
                )
            m1, m2 = node.left.m, node.right.m
            members = {"ell": node.ell, "m1": m1, "m2": m2}
            if min(members.values()) < 2:
                return VerificationResult(
                    ok=False,
                    reason=f"side condition failed: ell={node.ell} m1={m1} m2={m2} must all be >= 2",
                    path=path,
                )
            ew, gw = node.even_witness, node.geq3_witness
            if ew not in members or members[ew] % 2 != 0:
                return VerificationResult(
                    ok=False, reason=f"even witness {ew!r} does not name an even member", path=path
                )
            if gw not in members or members[gw] < 3:
                return VerificationResult(
                    ok=False, reason=f"size witness {gw!r} does not name a member >= 3", path=path
                )
            stack.append((node.left, path + ".add.left"))
            stack.append((node.right, path + ".add.right"))
        else:
            return VerificationResult(ok=False, reason="unknown node kind", path=path)
        natural = _node_conclusion(node)
        claimed = (cur.m, cur.ell) if cur.transposed else (cur.ell, cur.m)
        if natural != claimed:
            return VerificationResult(
                ok=False,
                reason=f"conclusion ({cur.ell},{cur.m}) does not match the tree",
                path=path,
            )
    return VerificationResult(ok=True, ell=cert.ell, m=cert.m)


# ---------------------------------------------------------------------------
# serialization

_TOP_KEYS = {"conclusion", "node", "transposed"}
_ADD_KEYS = {"ell", "left", "right", "even_witness", "geq3_witness"}


def _node_to_obj(node: "BaseNode | AddNode") -> dict:
    if isinstance(node, BaseNode):
        return {"base": {"ell": node.ell, "m": node.m}}
    return {
        "add": {
            "ell": node.ell,
            "left": _child_to_obj(node.left),
            "right": _child_to_obj(node.right),
            "even_witness": node.even_witness,
            "geq3_witness": node.geq3_witness,
        }
    }


def _child_to_obj(cert: Certificate) -> dict:
    # untransposed children serialize as bare nodes; transposed ones
    # need the full wrapper to carry their flag
    if cert.transposed:
        return certificate_to_obj(cert)
    return _node_to_obj(cert.node)


def certificate_to_obj(cert: Certificate) -> dict:
    return {
        "conclusion": {"ell": cert.ell, "m": cert.m},
        "node": _node_to_obj(cert.node),
        "transposed": cert.transposed,
    }


def _tree_depth(cert: Certificate) -> int:
    depth = 0
    stack: list[tuple[Certificate, int]] = [(cert, 1)]
    while stack:
        cur, d = stack.pop()
        depth = max(depth, d)
        if isinstance(cur.node, AddNode):
            stack.append((cur.node.left, d + 1))
            stack.append((cur.node.right, d + 1))
    return depth


@contextmanager
def _recursion_headroom(depth: int):
    needed = depth * 6 + 200
    old = sys.getrecursionlimit()
    if needed > old:
        sys.setrecursionlimit(min(needed, 100_000))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def serialize_certificate(cert: Certificate) -> str:
    """Canonical JSON: sorted keys, no whitespace, byte-stable."""
    with _recursion_headroom(_tree_depth(cert)):
        return json.dumps(certificate_to_obj(cert), sort_keys=True, separators=(",", ":"))


def _require_int(obj: dict, key: str, path: str) -> int:
    v = obj.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise CertificateFormatError(f"{path}.{key}", "expected an integer")
    return v


def _node_from_obj(obj: object, path: str) -> "BaseNode | AddNode":
    if not isinstance(obj, dict):
        raise CertificateFormatError(path, "expected an object")
    if set(obj) == {"base"}:
        body = obj["base"]
        if not isinstance(body, dict) or set(body) != {"ell", "m"}:
            raise CertificateFormatError(f"{path}.base", 'expected {"ell", "m"}')
        return BaseNode(
            ell=_require_int(body, "ell", f"{path}.base"),
            m=_require_int(body, "m", f"{path}.base"),
        )
    if set(obj) == {"add"}:
        body = obj["add"]
        if not isinstance(body, dict) or set(body) != _ADD_KEYS:
            raise CertificateFormatError(f"{path}.add", f"expected keys {sorted(_ADD_KEYS)}")
        ew, gw = body["even_witness"], body["geq3_witness"]
        if not isinstance(ew, str) or not isinstance(gw, str):
            raise CertificateFormatError(f"{path}.add", "witnesses must be strings")
        return AddNode(
            ell=_require_int(body, "ell", f"{path}.add"),
            left=_child_from_obj(body["left"], f"{path}.add.left"),
            right=_child_from_obj(body["right"], f"{path}.add.right"),
            even_witness=ew,
            geq3_witness=gw,
        )
    raise CertificateFormatError(path, 'expected a {"base": ...} or {"add": ...} node')


def _child_from_obj(obj: object, path: str) -> Certificate:
    if isinstance(obj, dict) and _TOP_KEYS <= set(obj):
        return certificate_from_obj(obj, path)
    node = _node_from_obj(obj, path)
    ell, m = _node_conclusion(node)
    return Certificate(ell=ell, m=m, node=node, transposed=False)


def certificate_from_obj(obj: object, path: str = "$") -> Certificate:
    if not isinstance(obj, dict):
        raise CertificateFormatError(path, "expected an object")
    if set(obj) != _TOP_KEYS:
        raise CertificateFormatError(path, f"expected keys {sorted(_TOP_KEYS)}")
    concl = obj["conclusion"]
    if not isinstance(concl, dict) or set(concl) != {"ell", "m"}:
        raise CertificateFormatError(f"{path}.conclusion", 'expected {"ell", "m"}')
    transposed = obj["transposed"]
    if not isinstance(transposed, bool):
        raise CertificateFormatError(f"{path}.transposed", "expected a boolean")
    node = _node_from_obj(obj["node"], f"{path}.node")
    return Certificate(
        ell=_require_int(concl, "ell", f"{path}.conclusion"),
        m=_require_int(concl, "m", f"{path}.conclusion"),
        node=node,
        transposed=transposed,
    )


def parse_certificate(text: str) -> Certificate:
    try:
        obj = json.loads(text)
    except ValueError as err:
        raise CertificateFormatError("$", f"not valid JSON: {err}") from None
    return certificate_from_obj(obj)

"""Property test: verify decides every mutation of a valid certificate.

Each example takes the serialized certificate of one pair and applies
one mutation: an int replaced, a witness replaced, a reference
replaced, an entry's kind replaced, a key or an item dropped or added,
or the table truncated.  Whatever comes out, ``verify`` must not raise,
and it may accept only a conclusion that ``classify`` reports as Strict.

A reference parse, which builds the objects entry by entry and then
compares their walked wire table with the document, must reach the
same decision as the library's parse on every such example and on
every malformed document of ``test_certify``.
"""

import atexit
import copy
import json
import shutil
import tempfile

import pytest

from qunimodal import (
    AddNode,
    BaseNode,
    Certificate,
    CertificateFormatError,
    PairClass,
    certify,
    classify,
    parse_certificate,
    serialize_certificate,
    verify,
)
from qunimodal.certify import MAX_NODES
from test_certify import _ENTRY, MALFORMED_DOCUMENTS, WITNESS_NAMES, _made

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Hypothesis caches constants it mines from source files, from test
# collection on; keep them in a temporary directory, not the checkout.
_HOME = tempfile.mkdtemp(prefix="qunimodal-hypothesis-")
atexit.register(shutil.rmtree, _HOME, True)
hypothesis.configuration.set_hypothesis_home_dir(_HOME)

PAIRS = [(5, 17), (5, 25), (8, 24), (16, 16), (24, 8), (33, 47), (100, 7)]
DOCS = [json.loads(serialize_certificate(certify(ell, m))) for ell, m in PAIRS]

VALUES = st.one_of(
    st.integers(-3, 60),
    st.integers(2**40, 2**70),
    st.sampled_from([True, False, None, 2.0, "8", [], {}, "ell", "m1", "m2"]),
)


def _slots(doc):
    """(container, key) for every place in the document that holds an int."""
    found = []
    stack = [doc]
    while stack:
        cur = stack.pop()
        items = cur.items() if isinstance(cur, dict) else enumerate(cur)
        for key, value in items:
            if isinstance(value, (dict, list)):
                stack.append(value)
            elif isinstance(value, int) and not isinstance(value, bool):
                found.append((cur, key))
    return found


def _containers(doc):
    """Every non-empty dict and list in the document."""
    found, stack = [], [doc]
    while stack:
        cur = stack.pop()
        if cur:
            found.append(cur)
        children = cur.values() if isinstance(cur, dict) else cur
        stack.extend(c for c in children if isinstance(c, (dict, list)))
    return found


@st.composite
def mutated(draw):
    doc = copy.deepcopy(draw(st.sampled_from(DOCS)))
    nodes = doc["nodes"]
    kind = draw(st.sampled_from(["int", "witness", "reference", "kind", "drop", "add", "truncate"]))
    if kind == "int":
        slots = _slots(doc)
        cur, key = slots[draw(st.integers(0, len(slots) - 1))]
        cur[key] = draw(VALUES)
    elif kind in ("witness", "reference"):
        adds = [e for e in nodes if e[0] == "add"] or nodes
        entry = adds[draw(st.integers(0, len(adds) - 1))]
        if kind == "witness" and entry[0] == "add":
            entry[draw(st.integers(4, 5))] = draw(
                st.one_of(st.sampled_from(["ell", "m1", "m2", "m3", ""]), VALUES)
            )
        elif entry[0] == "add":
            entry[draw(st.integers(2, 3))] = draw(st.integers(-2, len(nodes) + 1))
        else:
            nodes[draw(st.integers(0, len(nodes) - 1))] = ["t", draw(st.integers(-1, len(nodes)))]
    elif kind == "kind":
        entry = nodes[draw(st.integers(0, len(nodes) - 1))]
        entry[0] = draw(st.one_of(st.sampled_from(["base", "add", "t", "x", "even"]), VALUES))
    elif kind in ("drop", "add"):
        containers = _containers(doc)
        target = containers[draw(st.integers(0, len(containers) - 1))]
        if isinstance(target, list):
            at = draw(st.integers(0, len(target) - (kind == "drop")))
            if kind == "drop":
                target.pop(at)
            else:
                target.insert(at, draw(VALUES))
        elif kind == "drop":
            target.pop(draw(st.sampled_from(sorted(target))))
        else:
            target[draw(st.sampled_from(["x", "t", "base", "add", "even", "node"]))] = draw(VALUES)
    else:
        doc["nodes"] = nodes[: draw(st.integers(0, len(nodes)))]
    return json.dumps(doc)


@hypothesis.settings(max_examples=400, derandomize=True, deadline=None, database=None)
@hypothesis.given(mutated())
def test_verify_decides_every_mutation(text):
    try:
        cert = parse_certificate(text)
    except CertificateFormatError:
        return
    outcome = verify(cert)
    if outcome.ok:
        assert (outcome.ell, outcome.m) == (cert.ell, cert.m)
        assert classify(outcome.ell, outcome.m) == PairClass.Strict
    else:
        assert outcome.path.startswith("$") and outcome.reason


# ---------------------------------------------------------------------------
# reference parse: each wire entry becomes an object, then the objects
# are walked back into wire lists, which must equal the document's


def _reference_table(cert, sides):
    """The wire table of a walk of the objects from ``cert``.  A certificate
    keeps no node or flag, so ``sides`` holds those of each certificate
    made by hand (``_made``) under its id; the walk reaches only
    certificates that are alive, and each was recorded when it was made."""
    entries, position, done = [], {}, {}

    def intern(key, entry):
        if key not in position:
            if len(entries) == MAX_NODES:
                raise CertificateFormatError("$.nodes", f"over MAX_NODES = {MAX_NODES} entries")
            position[key] = len(entries)
            entries.append(entry)
        return position[key]

    stack = [cert]
    while stack:
        cur = stack[-1]
        if id(cur) in done:
            stack.pop()
            continue
        made = type(cur) is Certificate and sides.get(id(cur))
        node, transposed = made or (None, False)
        if type(node) is AddNode:
            # children first: a broken step is refused at the entry it would take
            i, j = done.get(id(node.left)), done.get(id(node.right))
            if i is None or j is None:
                stack += (node.right, node.left)
                continue
        if type(transposed) is not bool:
            raise CertificateFormatError(f"$.nodes[{len(entries)}]", "not a certificate")
        if type(node) is BaseNode and type(node.ell) is type(node.m) is int:
            at = intern(("base", node.ell, node.m), ["base", node.ell, node.m])
        elif type(node) is AddNode and type(node.ell) is int and all(
            type(w) is str and w in WITNESS_NAMES for w in (node.even_witness, node.geq3_witness)
        ):
            ell, ew, gw = node.ell, node.even_witness, node.geq3_witness
            at = intern(("add", ell, i, j, ew, gw), ["add", ell, i, j, ew, gw])
        else:
            raise CertificateFormatError(f"$.nodes[{len(entries)}]", "not a certificate")
        done[id(cur)] = intern(("t", at), ["t", at]) if transposed else at
        stack.pop()
    return entries


def _ints(v, n):
    return type(v) is list and len(v) == n and all(type(x) is int for x in v)


def _reference_entry_cert(obj, certs, sides, path):
    kind = obj[0] if type(obj) is list and obj and type(obj[0]) is str else None
    at = len(certs)
    if kind == "base" and _ints(obj[1:], 2):
        ell, m = obj[1:]
        return _made(sides, ell, m, BaseNode(ell, m), False)
    if kind == "t" and _ints(obj[1:], 1) and 0 <= obj[1] < at:
        sub = certs[obj[1]]
        node, transposed = sides[id(sub)]
        return _made(sides, sub.m, sub.ell, node, not transposed)
    if kind == "add" and len(obj) == 6 and _ints(obj[1:4], 3):
        _, ell, i, j, ew, gw = obj
        if 0 <= i < at and 0 <= j < at and ew in WITNESS_NAMES and gw in WITNESS_NAMES:
            node = AddNode(ell, certs[i], certs[j], ew, gw)
            return _made(sides, ell, certs[i].m + certs[j].m, node, False)
    raise CertificateFormatError(path, _ENTRY)


def _reference_parse(text):
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as err:
        raise CertificateFormatError("$", f"not valid JSON: {err}") from None
    if type(obj) is not dict or set(obj) != {"version", "conclusion", "nodes"}:
        raise CertificateFormatError("$", 'expected keys ["conclusion", "nodes", "version"]')
    if type(obj["version"]) is not int or obj["version"] != 3:
        raise CertificateFormatError("$.version", "expected 3")
    concl, nodes = obj["conclusion"], obj["nodes"]
    if type(concl) is not dict or set(concl) != {"ell", "m"} or not _ints(list(concl.values()), 2):
        raise CertificateFormatError("$.conclusion", 'expected {"ell": int, "m": int}')
    if type(nodes) is not list or not 1 <= len(nodes) <= MAX_NODES:
        raise CertificateFormatError("$.nodes", f"expected 1 to {MAX_NODES} entries")
    certs, sides = [], {}
    for at, item in enumerate(nodes):
        certs.append(_reference_entry_cert(item, certs, sides, f"$.nodes[{at}]"))
    root = _made(sides, concl["ell"], concl["m"], *sides[id(certs[-1])])
    if _reference_table(root, sides) != nodes:
        raise CertificateFormatError("$.nodes", "not canonical: distinct, in walk order")
    return root


def _decision(parse, text):
    """What a reader learns from a document: the parse error, or the
    conclusion, the verify outcome and the canonical bytes."""
    try:
        cert = parse(text)
    except CertificateFormatError as err:
        return "rejected", err.path, err.message
    outcome = verify(cert)
    return (cert.ell, cert.m), outcome.ok, outcome.reason, outcome.path, serialize_certificate(cert)


@hypothesis.settings(max_examples=400, derandomize=True, deadline=None, database=None)
@hypothesis.given(mutated())
def test_parse_matches_the_reference_on_every_mutation(text):
    assert _decision(parse_certificate, text) == _decision(_reference_parse, text)


def test_parse_matches_the_reference_on_malformed_and_valid_documents():
    for text in [text for text, _ in MALFORMED_DOCUMENTS] + [json.dumps(doc) for doc in DOCS]:
        assert _decision(parse_certificate, text) == _decision(_reference_parse, text), text

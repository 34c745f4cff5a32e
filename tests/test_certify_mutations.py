"""Property test: verify decides every mutation of a valid certificate.

Each example takes the serialized certificate of one pair and applies
one mutation: an int replaced, a witness replaced, a reference
replaced, a key dropped or added, or the table truncated.  Whatever
comes out, ``verify`` must not raise, and it may accept only a
conclusion that ``classify`` reports as Strict.
"""

import atexit
import copy
import json
import shutil
import tempfile

import pytest

from qunimodal import (
    CertificateFormatError,
    PairClass,
    certify,
    classify,
    parse_certificate,
    serialize_certificate,
    verify,
)

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
    found, stack = [], [doc]
    while stack:
        cur = stack.pop()
        if isinstance(cur, dict):
            found.append(cur)
        children = cur.values() if isinstance(cur, dict) else cur
        stack.extend(c for c in children if isinstance(c, (dict, list)))
    return found


@st.composite
def mutated(draw):
    doc = copy.deepcopy(draw(st.sampled_from(DOCS)))
    nodes = doc["nodes"]
    kind = draw(st.sampled_from(["int", "witness", "reference", "drop", "add", "truncate"]))
    if kind == "int":
        slots = _slots(doc)
        cur, key = slots[draw(st.integers(0, len(slots) - 1))]
        cur[key] = draw(VALUES)
    elif kind in ("witness", "reference"):
        adds = [e for e in nodes if "add" in e] or nodes
        entry = adds[draw(st.integers(0, len(adds) - 1))]
        if kind == "witness" and "add" in entry:
            entry[draw(st.sampled_from(["even", "geq3"]))] = draw(
                st.one_of(st.sampled_from(["ell", "m1", "m2", "m3", ""]), VALUES)
            )
        elif "add" in entry:
            entry["add"][draw(st.integers(1, 2))] = draw(st.integers(-2, len(nodes) + 1))
        else:
            nodes[draw(st.integers(0, len(nodes) - 1))] = {"t": draw(st.integers(-1, len(nodes)))}
    elif kind in ("drop", "add"):
        containers = _containers(doc)
        target = containers[draw(st.integers(0, len(containers) - 1))]
        if kind == "drop":
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

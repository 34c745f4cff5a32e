import atexit
import collections
import copy
import hashlib
import importlib
import json
import pickle
import random
import shutil
import tempfile
import time
import tracemalloc

import hypothesis
import pytest

from qunimodal import (
    AddNode,
    BaseNode,
    Certificate,
    CertificateFormatError,
    EXCEPTION_PAIRS,
    NotCertifiableError,
    build_base_registry,
    certify,
    check_strict,
    classify,
    default_registry,
    parse_certificate,
    serialize_certificate,
    verify,
)
from qunimodal.certify import (
    MAX_BYTES,
    MAX_LEAF_AREA,
    MAX_LEAVES,
    MAX_NODES,
    _canonical,
    _chain_starts,
    _leaf_strict,
    _witnesses,
)

st = hypothesis.strategies

# Hypothesis caches constants it mines from source files, from test
# collection on; keep them in a temporary directory, not the checkout.
_HOME = tempfile.mkdtemp(prefix="qunimodal-hypothesis-")
atexit.register(shutil.rmtree, _HOME, True)
hypothesis.configuration.set_hypothesis_home_dir(_HOME)


def test_registry_contains_verified_bases_only():
    reg = build_base_registry()
    for ell, m in [(5, 5), (8, 8), (5, 17), (6, 8), (7, 20), (5, 22), (6, 21)]:
        assert (ell, m) in reg
        assert (m, ell) in reg
    for pair in EXCEPTION_PAIRS:
        assert pair not in reg


def test_registry_and_certificates_write_nothing_to_home(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    build_base_registry()
    serialize_certificate(certify(9, 41))
    assert list(tmp_path.iterdir()) == []


def test_certify_base_pair():
    cert = certify(5, 17)
    assert json.loads(serialize_certificate(cert))["nodes"] == [{"base": [5, 17]}]
    assert not hasattr(cert, "node") and not hasattr(cert, "transposed")
    assert verify(cert).ok


def test_certify_chain_structure():
    # (8,24) = (8,8) + (8,16), and (8,16) is the step (8,8) doubled
    cert = certify(8, 24)
    assert (cert.ell, cert.m) == (8, 24)
    assert json.loads(serialize_certificate(cert))["nodes"] == [
        {"base": [8, 8]},
        {"add": [8, 0, 0], "even": "ell", "geq3": "m1"},
        {"add": [8, 0, 1], "even": "ell", "geq3": "m1"},
    ]


def test_certificates_grow_logarithmically():
    # doubling: a chain of 3,687 steps of 8 needs 20 table entries
    obj = json.loads(serialize_certificate(certify(11, 29500)))
    assert len(obj["nodes"]) == 20
    assert len(json.loads(serialize_certificate(certify(550, 550)))["nodes"]) == 34


def test_certify_refusals():
    with pytest.raises(NotCertifiableError) as info:
        certify(1, 9)
    assert info.value.reason == "trivial"
    with pytest.raises(NotCertifiableError) as info:
        certify(4, 11)
    assert info.value.reason == "small"
    for ell, m in sorted(EXCEPTION_PAIRS):
        with pytest.raises(NotCertifiableError) as info:
            certify(ell, m)
        assert info.value.reason == "exception"
    # a side below 1 is no box at all: a plain ValueError, not a refusal
    for ell, m in ((0, 8), (8, 0), (-5, 9)):
        with pytest.raises(ValueError, match=f"need ell, m >= 1: got ell={ell} m={m}"):
            certify(ell, m)


def test_non_integer_sides_are_refused():
    # floats, strings and other non-integers are not truncated or compared
    # as sides: they raise TypeError, as Partition and QPolynomial do
    for call, ell, m in [
        (classify, 5.5, 6),
        (classify, 2.0, 7),
        (check_strict, 5.5, 6),
        (check_strict, 8, "8"),
        (certify, 5, 8.5),
        (certify, 8.0, 24),
    ]:
        with pytest.raises(TypeError):
            call(ell, m)


def test_certify_is_symmetric_via_transpose():
    cert = certify(24, 8)
    assert cert.ell == 24 and cert.m == 8
    assert verify(cert).ok
    outcome = verify(certify(8, 24))
    assert (outcome.ell, outcome.m) == (8, 24)


def test_certify_large_both_directions():
    for ell, m in [(16, 16), (40, 23), (23, 40), (61, 61), (100, 7)]:
        cert = certify(ell, m)
        outcome = verify(cert)
        assert outcome.ok, (ell, m, outcome.reason, outcome.path)
        assert (outcome.ell, outcome.m) == (ell, m)


def test_verify_rejects_unregistered_weak_base():
    # a base leaf is re-checked computationally, not looked up: a pair
    # that is not strictly unimodal must be rejected
    bad = Certificate(6, 6, BaseNode(6, 6), False)
    outcome = verify(bad)
    assert not outcome.ok
    assert "strict" in outcome.reason


def test_verify_accepts_true_base_outside_registry():
    # strictness is what is checked, registry membership is not required
    outcome = verify(Certificate(9, 10, BaseNode(9, 10), False))
    assert outcome.ok


def test_verify_rejects_missing_even_witness():
    left = Certificate(5, 5, BaseNode(5, 5), False)
    right = Certificate(5, 5, BaseNode(5, 5), False)
    node = AddNode(5, left, right, "ell", "m1")
    outcome = verify(Certificate(5, 10, node, False))
    assert not outcome.ok
    assert "even" in outcome.reason


def test_verify_rejects_wrong_conclusion():
    base = Certificate(8, 8, BaseNode(8, 8), False)
    double = Certificate(8, 16, AddNode(8, base, base, "ell", "m1"), False)
    node = AddNode(8, base, double, "ell", "m1")
    assert Certificate(8, 24, node, False) == certify(8, 24)
    outcome = verify(Certificate(8, 25, node, False))
    assert not outcome.ok
    assert "conclusion" in outcome.reason


def test_verify_rejects_mismatched_ell():
    left = Certificate(5, 8, BaseNode(5, 8), False)
    right = Certificate(6, 8, BaseNode(6, 8), False)
    node = AddNode(5, left, right, "m1", "m2")
    outcome = verify(Certificate(5, 16, node, False))
    assert not outcome.ok


def _rejected(nodes, ell, m):
    """The reason and path of verify's rejection of a wire table."""
    doc = {"version": 2, "conclusion": {"ell": ell, "m": m}, "nodes": nodes}
    outcome = verify(parse_certificate(json.dumps(doc)))
    assert not outcome.ok
    return outcome.reason, outcome.path


def _doubled(ell, m, even, geq3):
    return [{"base": [ell, m]}, {"add": [ell, 0, 0], "even": even, "geq3": geq3}]


WITNESS_NAMES = ("ell", "m1", "m2")
_ENTRY = (
    'expected {"base": [l, m]}, {"add": [ell, i, j], "even": w, "geq3": w} or {"t": i}, '
    'where i and j index earlier entries and w is "ell", "m1" or "m2"'
)


def test_verify_pins_the_reasons_of_the_add_branch():
    # a witness other than the three names is refused by parse, at its
    # entry, before verify reads it
    for name in ("x", "", "M1", "m3", "ell ", "\u00e9"):
        for nodes in (_doubled(8, 8, name, "ell"), _doubled(8, 8, "ell", name)):
            doc = {"version": 2, "conclusion": {"ell": 8, "m": 16}, "nodes": nodes}
            with pytest.raises(CertificateFormatError) as err:
                parse_certificate(json.dumps(doc))
            assert (err.value.path, err.value.message) == ("$.nodes[1]", _ENTRY)
    # a named member that is odd, or below 3: (5, 5) and (2, 2) are strict
    reason = "even witness 'm2' does not name an even member"
    assert _rejected(_doubled(5, 5, "m2", "ell"), 5, 10) == (reason, "$.nodes[1]")
    reason = "size witness 'm1' does not name a member >= 3"
    assert _rejected(_doubled(2, 2, "ell", "m1"), 2, 4) == (reason, "$.nodes[1]")
    # a side of 1, as ell and as both parts: (1, 2) is strict by the direct check
    reason = "side condition failed: ell=1 m1=2 m2=2 must be >= 2"
    assert _rejected(_doubled(1, 2, "m1", "m1"), 1, 4) == (reason, "$.nodes[1]")
    reason = "side condition failed: ell=2 m1=1 m2=1 must be >= 2"
    assert _rejected(_doubled(2, 1, "ell", "ell"), 2, 2) == (reason, "$.nodes[1]")
    # children of mismatched ell, on either side
    for left, right in (([5, 8], [6, 8]), ([6, 8], [5, 8])):
        nodes = [{"base": left}, {"base": right}, {"add": [5, 0, 1], "even": "m2", "geq3": "ell"}]
        reason = f"children conclude ell {left[0]}/{right[0]}, not the node's ell"
        assert _rejected(nodes, 5, 16) == (reason, "$.nodes[2]")
    # a witness that is not one of the three names as a plain str is
    # refused when the certificate is made, at the entry it would take,
    # after the sound leaf; a str subclass is refused even when it equals
    # a name, as it could write itself otherwise
    class Name(str):
        def __str__(self):
            return '"'

    leaf = Certificate(8, 8, BaseNode(8, 8), False)
    for witness in (1, None, ["ell"], "x", "", "M1", Name("ell")):
        for node in (AddNode(8, leaf, leaf, witness, "ell"), AddNode(8, leaf, leaf, "ell", witness)):
            with pytest.raises(CertificateFormatError) as err:
                Certificate(8, 16, node, False)
            assert (err.value.path, err.value.message) == ("$.nodes[1]", "not a certificate")
    # verify keeps its own guard for a table rewritten in place, past both
    # makers: a name that is no member reads as odd and below 3
    forged = certify(8, 16)
    for ew, gw, reason in (
        ("x", "ell", "even witness 'x' does not name an even member"),
        ("ell", "m3", "size witness 'm3' does not name a member >= 3"),
    ):
        vars(forged)["entries"] = (("base", 8, 8), ("add", 8, 0, 0, ew, gw))
        outcome = verify(forged)
        assert (outcome.ok, outcome.reason, outcome.path) == (False, reason, "$.nodes[1]")


def test_verify_reports_path_of_failure():
    obj = json.loads(serialize_certificate(certify(5, 25)))
    # (5,25) = (5,17) + (5,8); keep the total at 25 so the failure
    # surfaces inside the table: (5,19) is strict, (5,6) is not
    assert obj["nodes"] == [
        {"base": [5, 17]},
        {"base": [5, 8]},
        {"add": [5, 0, 1], "even": "m2", "geq3": "ell"},
    ]
    obj["nodes"][0] = {"base": [5, 19]}
    obj["nodes"][1] = {"base": [5, 6]}
    tampered_text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    tampered = parse_certificate(tampered_text)
    outcome = verify(tampered)
    assert not outcome.ok
    assert outcome.path == "$.nodes[1]"
    assert "(5,6)" in outcome.reason
    assert serialize_certificate(tampered) == tampered_text


def test_serialization_round_trip_and_determinism():
    for ell, m in [(5, 17), (8, 24), (16, 16), (40, 40), (7, 100)]:
        cert = certify(ell, m)
        text = serialize_certificate(cert)
        again = parse_certificate(text)
        assert again == cert
        assert serialize_certificate(again) == text


def _references(entry):
    if "add" in entry:
        return entry["add"][1:]
    return [entry["t"]] if "t" in entry else []


def test_serialized_form_uses_bare_nodes_for_plain_children():
    # entries are bare: no conclusion or flag of their own; a transposed
    # sub-certificate is a {"t": i} entry naming the untransposed one
    obj = json.loads(serialize_certificate(certify(16, 16)))
    assert set(obj) == {"version", "conclusion", "nodes"}
    assert obj["version"] == 2
    assert obj["conclusion"] == {"ell": 16, "m": 16}
    kinds = set()
    for entry in obj["nodes"]:
        assert set(entry) in ({"base"}, {"add", "even", "geq3"}, {"t"}), entry
        kinds.add(min(entry))
    assert kinds == {"base", "add", "t"}
    # children before parents; every entry but the root is used by a
    # later one, and the root, last, by none
    nodes = obj["nodes"]
    for at, entry in enumerate(nodes):
        assert all(ref < at for ref in _references(entry))
        users = [later for later in nodes[at + 1 :] if at in _references(later)]
        assert bool(users) == (at < len(nodes) - 1)


_V2 = '{"version":2,"conclusion":{"ell":8,"m":%s},"nodes":[%s]}'
_BASE, _DOUBLE = '{"base":[8,8]}', '{"add":[8,0,0],"even":"ell","geq3":"ell"}'
MALFORMED_DOCUMENTS = [
    # the version-1 nested form of certify(5, 17)
    '{"conclusion":{"ell":5,"m":17},"node":{"base":{"ell":5,"m":17}},"transposed":false}',
    # forward and self references
    _V2 % (16, '{"add":[8,1,1],"even":"ell","geq3":"ell"},' + _BASE),
    _V2 % (16, _BASE + ',{"add":[8,0,1],"even":"ell","geq3":"ell"}'),
    _V2 % (8, '{"t":0}'),
    _V2 % (16, _BASE + ',{"add":[8,-1,0],"even":"ell","geq3":"ell"}'),
    # wrong version
    _V2.replace('"version":2', '"version":1') % (8, _BASE),
    _V2.replace('"version":2', '"version":3') % (8, _BASE),
    _V2.replace('"version":2', '"version":"2"') % (8, _BASE),
    _V2.replace('"version":2', '"version":2.0') % (8, _BASE),
    '{"conclusion":{"ell":8,"m":8},"nodes":[{"base":[8,8]}]}',
    # non-list fields
    '{"version":2,"conclusion":{"ell":8,"m":8},"nodes":{"0":{"base":[8,8]}}}',
    _V2 % (8, '{"base":{"ell":8,"m":8}}'),
    _V2 % (16, _BASE + ',{"add":{"ell":8,"left":0,"right":0},"even":"ell","geq3":"ell"}'),
    _V2 % (8, '{"base":[8,8,8]}'),
    _V2 % (8, ""),
    # true where an int belongs
    _V2 % (8, '{"base":[true,8]}'),
    _V2 % ("true", _BASE),
    _V2 % (16, _BASE + ',{"add":[8,0,true],"even":"ell","geq3":"ell"}'),
    _V2 % (8, _BASE + ',{"t":true}'),
    # witnesses must be one of the three names, and keys exact
    _V2 % (16, _BASE + ',{"add":[8,0,0],"even":1,"geq3":"ell"}'),
    _V2 % (16, _BASE + ',{"add":[8,0,0],"even":"x","geq3":"m1"}'),
    _V2 % (16, _BASE + ',{"add":[8,0,0],"even":"ell","geq3":"\\"\\u00e9"}'),
    _V2 % (16, _BASE + ',{"add":[8,0,0],"even":"ell"}'),
    _V2 % (8, '{"base":[8,8],"x":1}'),
    # not the canonical table: a duplicate, an unused entry, a
    # transpose of a transpose, children in the wrong walk order
    _V2 % (16, _BASE + "," + _BASE + ',{"add":[8,0,1],"even":"ell","geq3":"ell"}'),
    _V2 % (16, _BASE + ',{"base":[8,9]},' + _DOUBLE),
    _V2 % (8, _BASE + ',{"t":0},{"t":1}'),
    '{"version":2,"conclusion":{"ell":8,"m":17},"nodes":[{"base":[8,9]},{"base":[8,8]},'
    '{"add":[8,1,0],"even":"ell","geq3":"m1"}]}',
    "not json",
    "[]",
    '{"conclusion":{"ell":5,"m":25},"transposed":false}',
    '{"conclusion":{"ell":5},"node":{"base":{"ell":5,"m":5}},"transposed":false}',
    '{"conclusion":{"ell":5,"m":5},"node":{"base":{"ell":5}},"transposed":false}',
    '{"conclusion":{"ell":5,"m":5},"node":{"base":{"ell":5,"m":5,"x":1}},"transposed":false}',
    '{"conclusion":{"ell":5,"m":5},"node":{"base":{"ell":5,"m":5}},"transposed":"no"}',
    '{"conclusion":{"ell":5,"m":5},"node":{"base":{"ell":5,"m":5.5}},"transposed":false}',
]


def test_parse_rejects_malformed_documents():
    for text in MALFORMED_DOCUMENTS:
        with pytest.raises(CertificateFormatError):
            parse_certificate(text)


def test_parse_error_carries_a_path():
    text = '{"conclusion":{"ell":5,"m":25},"node":{"add":{}},"transposed":false}'
    with pytest.raises(CertificateFormatError) as info:
        parse_certificate(text)
    assert info.value.path.startswith("$")


def test_each_certificate_object_is_walked_once(monkeypatch):
    # certify runs no check (its builder interns in canonical order) and
    # parse checks canonical order once; nothing after them checks it
    # again or keeps an object besides the claim and the table
    cert_module = importlib.import_module("qunimodal.certify")
    checked = []
    real_canonical = cert_module._canonical
    monkeypatch.setattr(cert_module, "_canonical", lambda t: checked.append(t) or real_canonical(t))
    cert = certify(33, 4700)
    assert len(checked) == 0
    parsed = parse_certificate(serialize_certificate(cert))
    assert len(checked) == 1
    for held in (cert, parsed):
        assert verify(held).ok
        serialize_certificate(held)
        repr(held)
    assert cert == parsed and hash(cert) == hash(parsed)
    for held in (cert, parsed):
        assert list(vars(held)) == ["ell", "m", "entries"]


def test_default_registry_is_cached_instance():
    assert default_registry() is default_registry()


def test_complete_over_region_to_one_hundred():
    # every non-exceptional pair with both sides in 5..100, and five far
    # ones, goes through certify -> serialize -> parse -> verify, keeps
    # its bytes and its conclusion; exceptions are refused.  Each text,
    # or "refused", on a line: the digest pins the bytes of the format
    pairs = [(ell, m) for ell in range(5, 101) for m in range(5, 101)]
    pairs += [(11, 29500), (550, 550), (8, 30000), (29500, 11), (100, 7)]
    digest = hashlib.sha256()
    for ell, m in pairs:
        if (min(ell, m), max(ell, m)) in EXCEPTION_PAIRS:
            with pytest.raises(NotCertifiableError):
                certify(ell, m)
            digest.update(b"refused\n")
            continue
        text = serialize_certificate(certify(ell, m))
        digest.update(text.encode() + b"\n")
        parsed = parse_certificate(text)
        assert serialize_certificate(parsed) == text
        outcome = verify(parsed)
        assert outcome.ok, (ell, m, outcome.reason, outcome.path)
        assert (outcome.ell, outcome.m) == (ell, m)
    assert len(pairs) == 9221
    assert digest.hexdigest() == "d7d0271a2c12777d2d6045e1f36287d905f1e4b985846f4102c8c6fb97c98116"


def test_serialized_add_nodes_carry_valid_witnesses():
    # structural check on the wire format, independent of the verifier:
    # walk the table, deriving each entry's conclusion from earlier ones
    for ell, m in [(5, 25), (8, 24), (16, 16), (33, 47), (6, 29)]:
        obj = json.loads(serialize_certificate(certify(ell, m)))
        concluded = []
        for entry in obj["nodes"]:
            if "base" in entry:
                concluded.append(tuple(entry["base"]))
            elif "t" in entry:
                concluded.append(concluded[entry["t"]][::-1])
            else:
                e, i, j = entry["add"]
                (l1, m1), (l2, m2) = concluded[i], concluded[j]
                assert l1 == l2 == e, entry
                parts = {"ell": e, "m1": m1, "m2": m2}
                assert all(v >= 2 for v in parts.values()), entry
                assert parts[entry["even"]] % 2 == 0, entry
                assert parts[entry["geq3"]] >= 3, entry
                concluded.append((e, m1 + m2))
        assert concluded[-1] == (ell, m)


def test_serialization_is_stable_across_registry_rebuilds(fresh_registry):
    first = serialize_certificate(certify(9, 41))
    default_registry.cache_clear()
    second = serialize_certificate(certify(9, 41))
    assert first == second


def test_certificates_support_very_wide_pairs():
    cert = certify(5, 1_000)
    assert verify(cert).ok
    text = serialize_certificate(cert)
    assert serialize_certificate(parse_certificate(text)) == text


def _chain(ell, base_m, steps):
    """A foreign chain from the public record types: (ell, base_m) plus
    ``steps`` additions of one shared (ell, 8) leaf, nothing else shared."""
    step = Certificate(ell=ell, m=8, node=BaseNode(ell=ell, m=8), transposed=False)
    cert = Certificate(ell=ell, m=base_m, node=BaseNode(ell=ell, m=base_m), transposed=False)
    for _ in range(steps):
        node = AddNode(ell=ell, left=cert, right=step, even_witness="m2", geq3_witness="ell")
        cert = Certificate(ell=ell, m=cert.m + 8, node=node, transposed=False)
    return cert


def test_foreign_chain_of_3000_steps_round_trips_and_is_decided():
    cert = _chain(9, 10, 3000)
    text = serialize_certificate(cert)
    parsed = parse_certificate(text)
    assert serialize_certificate(parsed) == text
    outcome = verify(parsed)
    assert outcome.ok, outcome
    assert (outcome.ell, outcome.m) == (9, 24_010)
    assert verify(cert) == outcome


def test_verify_rejects_oversized_leaf_without_expanding_it(monkeypatch):
    def expanding(ell, m):
        raise AssertionError(f"expanded ({ell},{m})")

    monkeypatch.setattr(importlib.import_module("qunimodal.certify"), "check_strict", expanding)
    # (9,600) is strictly unimodal, but its area 5400 is above the bound too
    for ell, m in [(1000, 1000), (9, 600)]:
        outcome = verify(Certificate(ell, m, BaseNode(ell, m), False))
        assert not outcome.ok
        assert outcome.path == "$.nodes[0]"
        assert "MAX_LEAF_AREA" in outcome.reason


def test_leaf_verdicts_are_kept_by_min_max_within_the_area_bound(monkeypatch, fresh_verdicts):
    # leaves that fail the sides or area check never reach the memo, and
    # a leaf and its mirror share one direct check
    checked = []

    def counting(ell, m):
        checked.append((ell, m))
        return check_strict(ell, m)

    monkeypatch.setattr(importlib.import_module("qunimodal.certify"), "check_strict", counting)
    for (ell, m), ok in [((13, 277), False), ((-8, -1), False), ((450, 8), True), ((8, 450), True)]:
        doc = {"version": 2, "conclusion": {"ell": ell, "m": m}, "nodes": [{"base": [ell, m]}]}
        assert verify(parse_certificate(json.dumps(doc))).ok is ok, (ell, m)
    assert checked == [(8, 450)]
    assert _leaf_strict.cache_info().currsize == len(checked)
    assert all(a <= b and a * b <= MAX_LEAF_AREA for a, b in checked)


def test_verify_rejects_tables_over_max_nodes():
    # base, step and MAX_NODES - 1 chain entries: one entry too many, which
    # a certificate built by hand refuses when it is made, as parse does
    with pytest.raises(CertificateFormatError) as err:
        _chain(9, 10, MAX_NODES - 1)
    assert (err.value.path, err.value.message) == ("$.nodes", f"over MAX_NODES = {MAX_NODES} entries")
    # one entry fewer is made, and holds its table alone: no step of the
    # chain keeps the one before it, which held a table of its own
    tracemalloc.start()
    try:
        cert = _chain(9, 10, MAX_NODES - 2)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 4 << 20, held
    assert len(cert.entries) == MAX_NODES and verify(cert).ok


def test_verify_rejects_too_many_distinct_leaves():
    leaves = [Certificate(8, m, BaseNode(8, m), False) for m in range(2, MAX_LEAVES + 3)]
    cert = leaves[0]
    for leaf in leaves[1:]:
        node = AddNode(8, cert, leaf, "ell", "ell")
        cert = Certificate(8, cert.m + leaf.m, node, False)
    outcome = verify(cert)
    assert not outcome.ok
    assert "MAX_LEAVES" in outcome.reason


def test_self_doubling_table_is_decided_quickly():
    # the last entry added to itself 2,000 times: m = 8 * 2^2000
    nodes = [{"base": [8, 8]}]
    for i in range(2000):
        nodes.append({"add": [8, i, i], "even": "ell", "geq3": "ell"})
    doc = {"version": 2, "conclusion": {"ell": 8, "m": 8 << 2000}, "nodes": nodes}
    start = time.perf_counter()
    outcome = verify(parse_certificate(json.dumps(doc)))
    assert time.perf_counter() - start < 1.0
    assert outcome.ok
    assert outcome.m == 8 << 2000


def test_certify_refuses_pairs_whose_table_exceeds_max_nodes():
    # (8, 12 + 8c) is (8,12) plus c steps (8,8): two leaves, one entry per
    # doubling of the step and one per binary digit 1 of c; c = 2^k - 2
    # gives 2 + (k - 1) + (k - 1) entries, and c = 2^k - 1 one more
    k = MAX_NODES // 2
    m = 12 + 8 * (2**k - 2)
    text = serialize_certificate(certify(8, m))
    assert len(json.loads(text)["nodes"]) == MAX_NODES
    outcome = verify(parse_certificate(text))
    assert outcome.ok and outcome.m == m
    with pytest.raises(ValueError, match="MAX_NODES"):
        certify(8, m + 8)


def test_largest_certify_output_round_trips_under_max_bytes():
    # the outer chain and the large side's own chain share MAX_NODES
    # entries about equally: the largest output found by search
    side = 8 * 2**2046
    text = serialize_certificate(certify(side, side + 8))
    assert len(text) == 1_451_805 <= MAX_BYTES
    assert len(json.loads(text)["nodes"]) == MAX_NODES
    assert serialize_certificate(parse_certificate(text)) == text
    with pytest.raises(ValueError, match="MAX_NODES"):
        certify(2 * side, 2 * side + 8)


def test_parse_rejects_documents_over_max_bytes():
    # trailing whitespace is valid JSON, so only the bound can reject it
    text = serialize_certificate(certify(9, 41))
    padded = text + " " * (MAX_BYTES - len(text))
    for doc in (padded, padded.encode()):
        assert parse_certificate(doc) == certify(9, 41)
        with pytest.raises(CertificateFormatError) as err:
            parse_certificate(doc + doc[-1:])
        unit = "characters" if type(doc) is str else "bytes"
        assert (err.value.path, err.value.message) == ("$", f"over MAX_BYTES = {MAX_BYTES} {unit}")


def test_max_bytes_counts_characters_of_a_str_and_bytes_of_bytes():
    # the bound is len() of the document: a str of two-byte characters
    # passes it at nearly twice MAX_BYTES bytes of UTF-8 and is refused
    # for its keys, while the same document as bytes is refused for its size
    text = '{"pad":"' + "\u00e9" * 1_500_000 + '"}'
    assert len(text) <= MAX_BYTES < len(text.encode())
    keys = 'expected keys ["conclusion", "nodes", "version"]'
    for doc, message in ((text, keys), (text.encode(), f"over MAX_BYTES = {MAX_BYTES} bytes")):
        with pytest.raises(CertificateFormatError) as err:
            parse_certificate(doc)
        assert (err.value.path, err.value.message) == ("$", message)


def test_verify_never_raises_on_malformed_objects():
    # anything that is not a certificate holding a table is rejected at its
    # first entry, and the serializer raises for it
    for bad in ("certificate", None, {"ell": 8, "m": 8}, object.__new__(Certificate)):
        outcome = verify(bad)
        assert (outcome.ok, outcome.reason, outcome.path) == (False, "not a certificate", "$.nodes[0]")
        with pytest.raises(CertificateFormatError):
            serialize_certificate(bad)
    # a node or flag that is not a certificate's is refused when the
    # certificate is made: at the entry it would take, or at $.nodes for a
    # child that is not a Certificate
    leaf = Certificate(8, 8, BaseNode(8, 8), False)
    for args, path in [
        ((8, 8, BaseNode("8", 8), False), "$.nodes[0]"),
        ((8, 8, BaseNode(True, 8), False), "$.nodes[0]"),
        ((8, 8, BaseNode(8, 8), 0), "$.nodes[0]"),
        ((8, 8, "node", False), "$.nodes[0]"),
        ((8, 8, None, False), "$.nodes[0]"),
        ((8, 16, AddNode(8, leaf, "leaf", "ell", "ell"), False), "$.nodes"),
        ((8, 16, AddNode(8, object.__new__(Certificate), leaf, "ell", "ell"), False), "$.nodes"),
        ((8, 16, AddNode(8, leaf, leaf, ["ell"], "ell"), False), "$.nodes[1]"),
        ((8, 16, AddNode("8", leaf, leaf, "ell", "ell"), False), "$.nodes[1]"),
        ((8, 16, AddNode(8, leaf, leaf, "ell", "ell"), None), "$.nodes[1]"),
    ]:
        with pytest.raises(CertificateFormatError) as err:
            Certificate(*args)
        assert (err.value.path, err.value.message) == (path, "not a certificate"), args
    # sound nodes with a false claim or side are made, and verify rejects them
    for bad in (Certificate(8, 8, BaseNode(-8, -1), False), Certificate(8, 9, BaseNode(8, 8), False)):
        outcome = verify(bad)
        assert not outcome.ok, bad
        assert outcome.path.startswith("$"), bad


def test_repr_and_eq_read_the_table_not_the_expanded_tree():
    cert = certify(8, 24)
    assert repr(cert) == "Certificate(ell=8, m=24, entries=3)"
    again = parse_certificate(serialize_certificate(cert))
    assert cert == again and hash(cert) == hash(again)
    assert cert != certify(24, 8) and cert != certify(8, 32)
    # a DAG of 61 entries whose expanded tree has about 2^60 leaves
    start = time.perf_counter()
    big = certify(8, 8 * 2**60)
    text = repr(big)
    same = big == certify(8, 8 * 2**60)
    assert time.perf_counter() - start < 1.0
    assert text == f"Certificate(ell=8, m={8 * 2**60}, entries=61)"
    assert same
    # a certificate built by hand holds its table too, and compares by it
    leaf = Certificate(8, 8, BaseNode(8, 8), False)
    hand = Certificate(8, 16, AddNode(8, leaf, leaf, "ell", "m1"), False)
    assert repr(hand) == "Certificate(ell=8, m=16, entries=2)"
    assert hand == certify(8, 16) and hash(hand) == hash(certify(8, 16))


# ---------------------------------------------------------------------------
# a second route to certify: the builder that made the DAG from objects,
# each step a new Certificate, before certify built the table on indices.
# A certificate keeps no node or flag, so each step returns the triple
# (certificate, node, transposed) it was made from


def _oracle_base(ell, m):
    node = BaseNode(ell=ell, m=m)
    return Certificate(ell=ell, m=m, node=node, transposed=False), node, False


def _oracle_add(ell, left, right):
    (left, _, _), (right, _, _) = left, right
    even, geq3 = _ref_witnesses(ell, left.m, right.m)
    node = AddNode(ell=ell, left=left, right=right, even_witness=even, geq3_witness=geq3)
    return Certificate(ell=ell, m=left.m + right.m, node=node, transposed=False), node, False


def _oracle_transposed(made):
    cert, node, transposed = made
    cert = Certificate(ell=cert.m, m=cert.ell, node=node, transposed=not transposed)
    return cert, node, not transposed


def _oracle_chain(base, step, count):
    acc = base
    while count:
        if count & 1:
            acc = _oracle_add(base[0].ell, acc, step)
        count >>= 1
        if count:
            step = _oracle_add(base[0].ell, step, step)
    return acc


def _scanned_start(a, b, reg):
    # the chain start by a full scan of the registry: the largest
    # registered (a, s) with s <= b and s = b mod 8
    return max(s for l, s in reg if l == a and s <= b and (b - s) % 8 == 0)


def _oracle_build(a, b, reg):
    if (a, b) in reg:
        return _oracle_base(a, b)
    if a <= 15:
        start = _scanned_start(a, b, reg)
        return _oracle_chain(_oracle_base(a, start), _oracle_base(a, 8), (b - start) // 8)
    a0 = 8 + (a - 8) % 8
    acc = _oracle_transposed(_oracle_build(a0, b, reg))
    step = _oracle_transposed(_oracle_build(8, b, reg))
    return _oracle_transposed(_oracle_chain(acc, step, (a - a0) // 8))


def _oracle_certify(ell, m):
    made = _oracle_build(min(ell, m), max(ell, m), default_registry())
    return (_oracle_transposed(made) if ell > m else made)[0]


def test_certify_matches_the_object_builder():
    pairs = [(ell, m) for ell in range(5, 61) for m in range(5, 61)]
    for ell, m in pairs + [(11, 29500), (29500, 11), (550, 550), (8, 30000)]:
        if (min(ell, m), max(ell, m)) in EXCEPTION_PAIRS:
            continue
        cert, want = certify(ell, m), _oracle_certify(ell, m)
        assert serialize_certificate(cert) == serialize_certificate(want), (ell, m)
        assert cert == want, (ell, m)
        # certify checks nothing: its builder interns in canonical order
        assert _canonical(cert.entries), (ell, m)


# ---------------------------------------------------------------------------
# a second route to parse's canonical-order check: the index walk that
# rebuilt a table from its root, which the table must then equal


def _ref_walk(table, root):
    """The entries that entry ``root`` of ``table`` reaches, in canonical order.

    Depth-first, children before parents, left before right; equal
    entries are merged and a mirror of a mirror folds back to its inner
    entry.  Every reference in ``table`` must name an earlier entry.
    """
    out, position = [], {}
    new = [-1] * len(table)  # entry of table -> its entry of out
    stack = [root]
    while stack:
        at = stack[-1]
        if new[at] >= 0:
            stack.pop()
            continue
        key = table[at]
        if key[0] == "add":
            i, j = new[key[2]], new[key[3]]
            if i < 0 or j < 0:
                stack += (key[3], key[2])
                continue
            key = ("add", key[1], i, j, key[4], key[5])
        elif key[0] == "t":
            i = new[key[1]]
            if i < 0:
                stack.append(key[1])
                continue
            key = out[out[i][1]] if out[i][0] == "t" else ("t", i)
        stack.pop()
        new[at] = position.setdefault(key, len(out))
        if new[at] == len(out):
            out.append(key)
    return tuple(out)


def _random_table(rng, n):
    """n entries over few keys, each referring to earlier entries only."""
    table = [("base", 8, rng.choice((8, 9)))]
    for at in range(1, n):
        roll = rng.random()
        if roll < 0.3:
            table.append(("base", 8, rng.choice((8, 9))))
        elif roll < 0.75:
            table.append(("add", 8, rng.randrange(at), rng.randrange(at), "ell", "ell"))
        else:
            table.append(("t", rng.randrange(at)))
    return tuple(table)


def _children(key):
    return key[2:4] if key[0] == "add" else key[1:] if key[0] == "t" else ()


def _features(table):
    users = collections.Counter(i for key in table for i in set(_children(key)))
    reached, stack = set(), [len(table) - 1]
    while stack:
        at = stack.pop()
        if at not in reached:
            reached.add(at)
            stack += _children(table[at])
    found = {
        "duplicate": len(set(table)) < len(table),
        "mirror of a mirror": any(key[0] == "t" and table[key[1]][0] == "t" for key in table),
        "unreachable": len(reached) < len(table),
        "i == j": any(key[0] == "add" and key[2] == key[3] for key in table),
        "shared child": any(count > 1 for count in users.values()),
        "swapped order": any(key[0] == "add" and key[2] > key[3] for key in table),
    }
    return {name for name, present in found.items() if present}


def test_canonical_check_matches_the_reference_walk_on_random_tables():
    rng = random.Random(19)
    seen = collections.Counter()
    for _ in range(100_000):
        table = _random_table(rng, rng.randint(1, 8))
        canonical = _ref_walk(table, len(table) - 1) == table
        assert _canonical(table) == canonical, table
        seen.update((name, canonical) for name in _features(table) | {"any"})
    # each feature shows up in tables the check must reject, and those a
    # canonical table can have show up in canonical ones too
    for name in ("duplicate", "mirror of a mirror", "unreachable"):
        assert seen[name, False] >= 1000 and seen[name, True] == 0, name
    for name in ("any", "i == j", "shared child", "swapped order"):
        assert seen[name, False] >= 1000 and seen[name, True] >= 1000, name


def _chain_gaps(reg):
    """What keeps the chain recipe from reaching every pair with min side
    in 5..15: a residue with no start, or no step (a, 8)."""
    starts = _chain_starts(reg)
    gaps = [("no start", a, r) for a in range(5, 16) for r in range(8) if (a, r) not in starts]
    return gaps + [("no step", a, 8) for a in range(5, 16) if (a, 8) not in reg]


def test_chain_starts_are_total():
    assert _chain_gaps(default_registry()) == []
    # (5, 22) is the only start for ell = 5 and m = 6 mod 8
    assert _chain_gaps(default_registry() - {(5, 22), (22, 5)}) == [("no start", 5, 6)]


def test_chain_start_lookup_matches_the_registry_scan():
    reg = default_registry()
    for a in range(5, 16):
        for b in range(a, 401):
            if (a, b) in reg or (a, b) in EXCEPTION_PAIRS or (a <= 7 and b <= 20):
                continue
            assert _chain_starts(reg)[a, b % 8] == _scanned_start(a, b, reg), (a, b)
    for ell in range(5, 16):
        for m in range(5, 401):
            if (min(ell, m), max(ell, m)) in EXCEPTION_PAIRS:
                continue
            for pair in ((ell, m), (m, ell)):
                want = serialize_certificate(_oracle_certify(*pair))
                assert serialize_certificate(certify(*pair)) == want, pair


def _held(ell, m):
    cert = certify(ell, m)
    return cert, parse_certificate(serialize_certificate(cert))


def test_mirrored_root_certificates_hold_only_their_table():
    # (33, 470) is the mirror of a chain at ell = 470 that concludes
    # (470, 33); (470, 33) is that chain, grown from mirrored leaves
    for ell, m, transposed in [(33, 470, True), (470, 33, False)]:
        for cert in _held(ell, m):
            nodes = json.loads(serialize_certificate(cert))["nodes"]
            assert (cert.entries[-1][0] == "t") is transposed
            assert list(vars(cert)) == ["ell", "m", "entries"]
            if transposed:
                assert nodes[-1] == {"t": len(nodes) - 2}
                nodes.pop()
            assert nodes[-1]["add"][0] == 470
            assert verify(cert).ok


def test_certificates_holding_a_table_copy_pickle_and_replace():
    # the longest chain built by hand holds no object chain to recurse into
    for cert in (*_held(33, 470), _chain(9, 10, MAX_NODES - 2)):
        text = serialize_certificate(cert)
        for twin in (pickle.loads(pickle.dumps(cert)), copy.copy(cert), copy.deepcopy(cert)):
            assert vars(twin) == vars(cert)
            assert twin == cert and hash(twin) == hash(cert)
            assert serialize_certificate(twin) == text
            assert verify(twin).ok
        # the constructor takes a node, not a table: a certificate's
        # fields do not rebuild it
        with pytest.raises(CertificateFormatError) as err:
            Certificate(cert.ell, cert.m, cert.entries, False)
        assert (err.value.path, err.value.message) == ("$.nodes[0]", "not a certificate")


def test_add_nodes_take_certificates_that_hold_only_a_table():
    # the results of certify and parse are children like any other: their
    # tables are spliced in, and the whole equals the canonical certificate
    for child in _held(8, 8):
        cert = Certificate(8, 16, AddNode(8, child, child, "ell", "m1"), False)
        assert cert == certify(8, 16) and hash(cert) == hash(certify(8, 16))
        assert serialize_certificate(cert) == serialize_certificate(certify(8, 16))
        assert verify(cert).ok
    # a hand-built step over a mirrored root, mirrored in turn
    for child in _held(33, 470):
        n = len(child.entries)
        cert = Certificate(940, 33, AddNode(33, child, child, "m1", "ell"), True)
        assert cert.entries == child.entries + (("add", 33, n - 1, n - 1, "m1", "ell"), ("t", n))
        assert parse_certificate(serialize_certificate(cert)) == cert
        assert verify(cert).ok


def test_reading_a_hand_built_certificate_leaves_it_unchanged():
    cert = Certificate(8, 8, BaseNode(8, 8), False)
    before = dict(vars(cert))
    assert verify(cert).ok
    assert serialize_certificate(cert) == serialize_certificate(certify(8, 8))
    assert cert == Certificate(8, 8, BaseNode(8, 8), False)
    assert hash(cert) == hash(certify(8, 8))
    assert vars(cert) == before


# ---------------------------------------------------------------------------
# the witness names and the wire text against the routes they replaced:
# names found by generators, and every entry turned into a dict that
# json.dumps wrote with sorted keys


def _ref_witnesses(ell, m1, m2):
    members = (("ell", ell), ("m1", m1), ("m2", m2))
    even = next(name for name, v in members if v % 2 == 0)
    geq3 = next(
        (name for name, v in members if v >= 3 and name != even),
        next(name for name, v in members if v >= 3),
    )
    return even, geq3


def test_witness_names_match_the_generator_reference():
    for ell in range(1, 13):
        for m1 in range(1, 13):
            for m2 in range(1, 13):
                members = (ell, m1, m2)
                if any(v % 2 == 0 for v in members) and max(members) >= 3:
                    assert _witnesses(ell, m1, m2) == _ref_witnesses(ell, m1, m2), members
                else:
                    with pytest.raises(ValueError, match=rf"\({ell},{m1},{m2}\)"):
                        _witnesses(ell, m1, m2)


def _ref_wire(entry):
    if entry[0] == "base":
        return {"base": [entry[1], entry[2]]}
    if entry[0] == "t":
        return {"t": entry[1]}
    _, ell, i, j, ew, gw = entry
    return {"add": [ell, i, j], "even": ew, "geq3": gw}


def _ref_obj(cert):
    nodes = [_ref_wire(entry) for entry in cert.entries]
    return {"version": 2, "conclusion": {"ell": cert.ell, "m": cert.m}, "nodes": nodes}


def _ref_text(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# st.text() over all of Unicode costs seconds of set-up per process;
# every plane below the emoji block, controls included, is enough here
_TEXT = st.text(st.characters(max_codepoint=0x1F7FF), max_size=6)
_PICK, _ONE_IN_20 = st.integers(0, 5), st.integers(0, 19)
# a witness name: one in ten is outside the three, which makes the
# node or document that holds it one that is refused
_OUTSIDER = st.one_of(
    st.sampled_from(["", "M1", '"', "\\", '\\"', "\x00", "\x1f\x7f", "\u00e9", "\u2028", "\U0001f600"]),
    _TEXT,
)
_NAME = st.integers(0, 9).flatmap(
    lambda pick: _OUTSIDER if pick == 0 else st.sampled_from(WITNESS_NAMES)
)
_SIDE = st.one_of(st.integers(-20, 40), st.integers(-(10**300), 10**300))
_CONCLUSION = st.one_of(
    _SIDE,
    st.sampled_from([True, False, None, 2.0, -0.0, float("inf"), "8", "\u00e9\"", [], {}]),
    st.floats(allow_nan=False),
    _TEXT,
    st.lists(st.integers(), max_size=3),
    st.dictionaries(_TEXT, st.integers(), max_size=3),
)
_FACTOR = st.sampled_from([-3, -2, -1, 1, 2, 3, 10**299 + 7, -(10**300)])
_PAIR = st.one_of(
    st.tuples(st.integers(5, 60), st.integers(5, 60)),
    st.tuples(st.integers(5, 10**40), st.integers(5, 10**40)),
).filter(lambda pair: (min(pair), max(pair)) not in EXCEPTION_PAIRS)


@st.composite
def _document(draw):
    """A table of certify's as a document whose witnesses are drawn names,
    taken in turn, and whose sides are scaled by a drawn factor."""
    k = draw(_FACTOR)
    names = draw(st.lists(_NAME, min_size=1, max_size=4))
    obj = _ref_obj(certify(*draw(_PAIR)))
    for at, node in enumerate(obj["nodes"]):
        if "base" in node:
            node["base"] = [v * k for v in node["base"]]
        elif "add" in node:
            node["add"][0] *= k
            node["even"], node["geq3"] = names[at % len(names)], names[(at + 1) % len(names)]
    obj["conclusion"] = {"ell": draw(_SIDE), "m": draw(_SIDE)}
    return obj


# nodes and flags that are not a certificate's
_BROKEN = st.sampled_from([
    ("node", False),
    (None, True),
    (BaseNode("8", 8), False),
    (BaseNode(True, 8), False),
    (BaseNode(8, 8.0), True),
    (BaseNode(8, 8), 0),
])


def _made(sides, ell, m, node, transposed):
    """A certificate built by hand, recording in ``sides`` under its id the
    node and flag it was made from, which it does not keep."""
    cert = Certificate(ell, m, node, transposed)
    sides[id(cert)] = node, transposed
    return cert


@st.composite
def _hand_built(draw):
    """The arguments of a certificate from objects, whether its node or
    flag is broken, and the ``sides`` of the certificates made on the way:
    leaves, add steps over earlier certificates and mirrors, with drawn
    names, sides and claims; now and then one node or flag that is not a
    certificate's, or an add step naming a witness outside the three,
    which ends the draw."""
    certs, sides = [], {}
    for last in range(draw(_PICK), -1, -1):
        broken = False
        if certs and draw(st.booleans()):
            left, right = certs[draw(_PICK) % len(certs)], certs[draw(_PICK) % len(certs)]
            node = AddNode(draw(_SIDE), left, right, draw(_NAME), draw(_NAME))
            broken = not {node.even_witness, node.geq3_witness} <= set(WITNESS_NAMES)
        else:
            node = BaseNode(draw(_SIDE), draw(_SIDE))
        flag = draw(st.booleans())
        if not broken and draw(_ONE_IN_20) == 0:
            broken, (node, flag) = True, draw(_BROKEN)
        args = (draw(_SIDE), draw(_SIDE), node, flag)
        if broken or not last:
            return args, broken, sides
        certs.append(_made(sides, *args))


_HAND_MADE = _hand_built().filter(lambda drawn: not drawn[1]).map(lambda drawn: Certificate(*drawn[0]))


@hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
@hypothesis.given(st.one_of(_PAIR.map(lambda pair: certify(*pair)), _document(), _HAND_MADE))
def test_serializer_matches_the_dict_route(cert):
    if type(cert) is dict:
        # a document is refused at its first add entry that names a
        # witness outside the three, and otherwise read back
        text = _ref_text(cert)
        outside = [
            at
            for at, node in enumerate(cert["nodes"])
            if "add" in node and not {node["even"], node["geq3"]} <= set(WITNESS_NAMES)
        ]
        if outside:
            with pytest.raises(CertificateFormatError) as err:
                parse_certificate(text)
            assert (err.value.path, err.value.message) == (f"$.nodes[{outside[0]}]", _ENTRY)
            return
        cert = parse_certificate(text)
    want = _ref_obj(cert)
    assert serialize_certificate(cert) == _ref_text(want)
    assert parse_certificate(serialize_certificate(cert)) == cert


@hypothesis.settings(max_examples=200, derandomize=True, deadline=None, database=None)
@hypothesis.given(_CONCLUSION, _CONCLUSION)
@hypothesis.example(8.0, 8)
@hypothesis.example(True, True)
@hypothesis.example(True, False)
@hypothesis.example(None, 2.0)
@hypothesis.example("8", {"m": [8]})
def test_claims_other_than_two_ints_are_refused(ell, m):
    # when the certificate is made, before its node is read, and by parse,
    # at the same path with the same message
    hypothesis.assume(not (type(ell) is type(m) is int))
    refusal = ("$.conclusion", 'expected {"ell": int, "m": int}')
    for node in (BaseNode(8, 8), BaseNode(1, 1), "node"):
        with pytest.raises(CertificateFormatError) as err:
            Certificate(ell, m, node, False)
        assert (err.value.path, err.value.message) == refusal
    doc = {"version": 2, "conclusion": {"ell": ell, "m": m}, "nodes": [{"base": [8, 8]}]}
    with pytest.raises(CertificateFormatError) as err:
        parse_certificate(json.dumps(doc))
    assert (err.value.path, err.value.message) == refusal

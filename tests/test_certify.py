import pytest

from qunimodal import (
    AddNode,
    BaseNode,
    Certificate,
    CertificateFormatError,
    EXCEPTION_PAIRS,
    NotCertifiableError,
    build_base_registry,
    certificate_from_obj,
    certificate_to_obj,
    certify,
    check_strict,
    default_registry,
    parse_certificate,
    serialize_certificate,
    verify,
)


def test_registry_contains_verified_bases_only():
    reg = build_base_registry()
    for ell, m in [(5, 5), (8, 8), (5, 17), (6, 8), (7, 20), (5, 22), (6, 21)]:
        assert (ell, m) in reg
        assert (m, ell) in reg
    for pair in EXCEPTION_PAIRS:
        assert pair not in reg


def test_registry_and_certificates_write_nothing_to_home(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.delenv("QUNIMODAL_CACHE_DIR", raising=False)
    build_base_registry()
    serialize_certificate(certify(9, 41))
    assert list(tmp_path.iterdir()) == []


def test_certify_base_pair():
    cert = certify(5, 17)
    assert cert.node == BaseNode(5, 17)
    assert not cert.transposed
    assert verify(cert).ok


def test_certify_chain_structure():
    cert = certify(8, 24)
    assert cert.ell == 8 and cert.m == 24
    node = cert.node
    assert isinstance(node, AddNode)
    assert node.even_witness == "ell"
    assert node.geq3_witness == "m1"
    base = Certificate(8, 8, BaseNode(8, 8), False)
    assert node.right == base
    inner = node.left.node
    assert isinstance(inner, AddNode)
    assert inner.left == base
    assert inner.right == base


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
    inner = certify(8, 24)
    lying = Certificate(8, 25, inner.node, False)
    outcome = verify(lying)
    assert not outcome.ok
    assert "conclusion" in outcome.reason


def test_verify_rejects_mismatched_ell():
    left = Certificate(5, 8, BaseNode(5, 8), False)
    right = Certificate(6, 8, BaseNode(6, 8), False)
    node = AddNode(5, left, right, "m1", "m2")
    outcome = verify(Certificate(5, 16, node, False))
    assert not outcome.ok


def test_verify_reports_path_of_failure():
    good = certify(5, 25)
    obj = certificate_to_obj(good)
    # keep the total at 25 so the failure surfaces inside the tree:
    # (5,19) is strict, (5,6) is not
    obj["node"]["add"]["left"] = {"base": {"ell": 5, "m": 19}}
    obj["node"]["add"]["right"] = {"base": {"ell": 5, "m": 6}}
    tampered = certificate_from_obj(obj)
    outcome = verify(tampered)
    assert not outcome.ok
    assert outcome.path is not None and "right" in outcome.path


def test_serialization_round_trip_and_determinism():
    for ell, m in [(5, 17), (8, 24), (16, 16), (40, 40), (7, 100)]:
        cert = certify(ell, m)
        text = serialize_certificate(cert)
        again = parse_certificate(text)
        assert again == cert
        assert serialize_certificate(again) == text


def test_serialized_form_uses_bare_nodes_for_plain_children():
    obj = certificate_to_obj(certify(8, 24))
    add = obj["node"]["add"]
    assert set(add) == {"ell", "left", "right", "even_witness", "geq3_witness"}
    assert set(add["right"]) == {"base"}  # no envelope on an untransposed child
    assert obj["conclusion"] == {"ell": 8, "m": 24}
    assert obj["transposed"] is False


def test_parse_rejects_malformed_documents():
    cases = [
        "not json",
        "[]",
        '{"conclusion":{"ell":5,"m":25},"transposed":false}',
        '{"conclusion":{"ell":5},"node":{"base":{"ell":5,"m":5}},"transposed":false}',
        '{"conclusion":{"ell":5,"m":5},"node":{"base":{"ell":5}},"transposed":false}',
        '{"conclusion":{"ell":5,"m":5},"node":{"base":{"ell":5,"m":5,"x":1}},"transposed":false}',
        '{"conclusion":{"ell":5,"m":5},"node":{"base":{"ell":5,"m":5}},"transposed":"no"}',
        '{"conclusion":{"ell":5,"m":5},"node":{"base":{"ell":5,"m":5.5}},"transposed":false}',
    ]
    for text in cases:
        with pytest.raises(CertificateFormatError):
            parse_certificate(text)


def test_parse_error_carries_a_path():
    text = '{"conclusion":{"ell":5,"m":25},"node":{"add":{}},"transposed":false}'
    with pytest.raises(CertificateFormatError) as info:
        parse_certificate(text)
    assert info.value.path.startswith("$")


def test_default_registry_is_cached_instance():
    assert default_registry() is default_registry()


def test_complete_over_region_to_one_hundred():
    # every non-exceptional pair with both sides in 5..100 certifies and
    # verifies; exceptions are refused
    for ell in range(5, 101):
        for m in range(ell, 101):
            if (ell, m) in EXCEPTION_PAIRS:
                with pytest.raises(NotCertifiableError):
                    certify(ell, m)
                continue
            outcome = verify(certify(ell, m))
            assert outcome.ok, (ell, m, outcome.reason, outcome.path)
            assert (outcome.ell, outcome.m) == (ell, m)


def _walk_add_nodes(obj):
    if "add" in obj:
        add = obj["add"]
        yield add
        for key in ("left", "right"):
            child = add[key]
            yield from _walk_add_nodes(child.get("node", child))


def test_serialized_add_nodes_carry_valid_witnesses():
    # structural check on the wire format, independent of the verifier
    def conclusion_m(child):
        if "conclusion" in child:  # nested full certificate, already oriented
            return child["conclusion"]["m"]
        if "base" in child:
            return child["base"]["m"]
        return sum(conclusion_m(child["add"][k]) for k in ("left", "right"))

    for ell, m in [(5, 25), (8, 24), (16, 16), (33, 47), (6, 29)]:
        obj = certificate_to_obj(certify(ell, m))
        for add in _walk_add_nodes(obj["node"]):
            parts = {
                "ell": add["ell"],
                "m1": conclusion_m(add["left"]),
                "m2": conclusion_m(add["right"]),
            }
            assert all(v >= 2 for v in parts.values()), add
            assert parts[add["even_witness"]] % 2 == 0, add
            assert parts[add["geq3_witness"]] >= 3, add


def test_serialization_is_stable_across_registry_rebuilds():
    first = serialize_certificate(certify(9, 41, registry=build_base_registry()))
    second = serialize_certificate(certify(9, 41, registry=build_base_registry()))
    assert first == second


def test_certificates_support_very_wide_pairs():
    cert = certify(5, 1_000)
    assert verify(cert).ok
    text = serialize_certificate(cert)
    assert parse_certificate(text) == cert

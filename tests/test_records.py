"""The record types and what importing the package loads.

``UnimodalityReport``, ``VerificationResult``, ``BaseNode`` and
``AddNode`` are ``NamedTuple`` classes and ``Certificate`` a frozen plain
class, so that ``import qunimodal`` needs neither ``dataclasses`` nor
(through it) ``inspect``; ``json`` is imported where a certificate is
written or read.  Their reprs, equality, immutability and copies are
pinned here."""

import copy
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import qunimodal
from qunimodal import (
    AddNode,
    BaseNode,
    Certificate,
    UnimodalityReport,
    VerificationResult,
    certify,
    check_strict,
    verify,
)

_SRC = str(Path(qunimodal.__file__).resolve().parent.parent)

_FIELDS = {
    UnimodalityReport: ("ell", "m", "n", "strict", "plateaus", "first_violation"),
    VerificationResult: ("ok", "ell", "m", "reason", "path"),
    BaseNode: ("ell", "m"),
    AddNode: ("ell", "left", "right", "even_witness", "geq3_witness"),
}


def _fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter with no site
    hooks that writes no byte code, importing the package from this tree."""
    code = f"import sys; sys.path.insert(0, {_SRC!r})\n{code}"
    out = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True, text=True, check=True)
    return out.stdout


def _added_modules(statement: str) -> set:
    """The modules that ``statement`` adds to ``sys.modules`` in a fresh
    interpreter."""
    code = f"before = set(sys.modules)\n{statement}\nprint(' '.join(sorted(set(sys.modules) - before)))"
    return set(_fresh(code).split())


def test_import_and_registry_load_no_dataclasses_inspect_or_json():
    added = _added_modules("import qunimodal; qunimodal.default_registry()")
    assert "qunimodal.certify" in added
    assert added.isdisjoint({"dataclasses", "inspect", "json"}), sorted(added)


def test_kronecker_and_partitions_load_on_first_use():
    # strictness and certificates never call the Kronecker route, so the
    # package and the registry load neither of its modules; a name of one
    # loads it, and lr and certify, exported under the names of their own
    # submodules, stay the functions
    out = _fresh(
        textwrap.dedent(
            """
            import qunimodal
            qunimodal.default_registry()
            print(sorted(n for n in sys.modules if n.partition(".")[0] == "qunimodal"))
            print(set(qunimodal.__all__) <= set(dir(qunimodal)))
            qunimodal.g_oracle
            print("qunimodal.kronecker" in sys.modules)
            print(qunimodal.lr is sys.modules["qunimodal.lr"].lr)
            print(qunimodal.certify is sys.modules["qunimodal.certify"].certify)
            names = {}
            exec("from qunimodal import *", names)
            del names["__builtins__"]
            print(sorted(names) == sorted(qunimodal.__all__), len(names))
            # every submodule that binds an exported name binds the same object
            homes = [m for n, m in sys.modules.items() if n.startswith("qunimodal.")]
            print(sorted(n for n, v in names.items() if not any(getattr(m, n, None) is v for m in homes)))
            print(sorted(n for n, v in names.items() for m in homes if getattr(m, n, v) is not v))
            """
        )
    )
    assert out.splitlines() == [
        "['qunimodal', 'qunimodal.certify', 'qunimodal.lr', 'qunimodal.qbinomial', 'qunimodal.unimodality']",
        "True",
        "True",
        "True",
        "True",
        "True 33",
        "[]",
        "[]",
    ]
    with pytest.raises(AttributeError, match="'no_such_name'"):
        qunimodal.no_such_name  # noqa: B018


def test_cli_import_loads_no_dataclasses():
    # the CLI still needs inspect (repro) and json (the envelope)
    added = _added_modules("import qunimodal.cli")
    assert "qunimodal.cli" in added
    assert "dataclasses" not in added


def _records():
    leaf = certify(8, 8)
    return [
        (
            check_strict(6, 6),
            "UnimodalityReport(ell=6, m=6, n=36, strict=False, "
            "plateaus=((16, 17), (19, 20)), first_violation=17)",
        ),
        (
            check_strict(8, 9),
            "UnimodalityReport(ell=8, m=9, n=72, strict=True, plateaus=(), first_violation=None)",
        ),
        (verify(certify(8, 24)), "VerificationResult(ok=True, ell=8, m=24, reason=None, path=None)"),
        (
            verify(Certificate(8, 9, BaseNode(8, 8), False)),
            "VerificationResult(ok=False, ell=None, m=None, "
            "reason=\"conclusion differs from the table's (8,8)\", path='$.conclusion')",
        ),
        (BaseNode(8, 8), "BaseNode(ell=8, m=8)"),
        (
            AddNode(8, leaf, leaf, "ell", "m1"),
            "AddNode(ell=8, left=Certificate(ell=8, m=8, entries=1), "
            "right=Certificate(ell=8, m=8, entries=1), "
            "even_witness='ell', geq3_witness='m1')",
        ),
    ]


def test_record_reprs_are_unchanged():
    for record, text in _records():
        assert repr(record) == text


def test_records_are_immutable():
    for record, _ in _records():
        for name in _FIELDS[type(record)]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = 1
    for cert in (certify(8, 8), certify(33, 470), Certificate(8, 8, BaseNode(8, 8), False)):
        before = dict(vars(cert))
        for name in ("ell", "m", "node", "transposed", "entries", "extra"):
            with pytest.raises(AttributeError):
                setattr(cert, name, None)
        for name in ("ell", "entries"):
            with pytest.raises(AttributeError):
                delattr(cert, name)
        assert vars(cert) == before


def test_records_compare_and_hash_by_value():
    for (record, _), (again, _) in zip(_records(), _records()):
        assert record is not again
        assert record == again and hash(record) == hash(again)
    assert BaseNode(8, 8) != BaseNode(8, 9)
    assert check_strict(8, 9) != check_strict(9, 8)
    assert VerificationResult(ok=True) != VerificationResult(ok=True, ell=8, m=8)
    # certificates equal by table: test_add_nodes_take_certificates_that_hold_only_a_table
    hand = Certificate(8, 16, AddNode(8, certify(8, 8), certify(8, 8), "ell", "m1"), False)
    assert hand != certify(8, 24) and hand != Certificate(8, 16, BaseNode(8, 16), False)
    assert hand.__eq__((8, 16, hand.entries)) is NotImplemented
    assert hand != (8, 16, hand.entries)


def test_records_copy_and_pickle():
    # certificates: test_certificates_holding_a_table_copy_pickle_and_replace
    for record, _ in _records():
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(twin) is type(record)
            assert twin == record and hash(twin) == hash(record)
            assert repr(twin) == repr(record)


def test_record_fields_defaults_and_truth():
    for cls, fields in _FIELDS.items():
        assert cls._fields == fields
    assert VerificationResult(ok=False) == VerificationResult(False, None, None, None, None)
    # truth is ok, not the tuple's length
    assert not VerificationResult(ok=False) and VerificationResult(ok=True)
    assert check_strict(8, 9)._asdict()["plateaus"] == ()
    assert BaseNode(8, 8)._replace(m=9) == BaseNode(8, 9)
    assert UnimodalityReport.__doc__.startswith("Outcome of a strictness check.")
    assert BaseNode.__doc__.startswith("Leaf:") and AddNode.__doc__.startswith("Additivity step")
    for cert in (certify(8, 8), certify(33, 470), Certificate(8, 8, BaseNode(8, 8), True)):
        assert list(vars(cert)) == ["ell", "m", "entries"]

"""The package's export list: every name resolves, none is listed twice,
and names removed from the API stay removed."""

import qunimodal


def test_every_exported_name_resolves():
    for name in qunimodal.__all__:
        assert hasattr(qunimodal, name), name


def test_export_list_has_no_duplicates():
    assert len(set(qunimodal.__all__)) == len(qunimodal.__all__)


def test_removed_carriers_are_not_exported():
    for name in ("LRQuery", "KroneckerValue", "Route"):
        assert name not in qunimodal.__all__
        assert not hasattr(qunimodal, name)

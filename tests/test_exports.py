"""The package's export list: every name resolves, none is listed twice,
and names removed from the API stay removed."""

import qunimodal


def test_every_exported_name_resolves():
    for name in qunimodal.__all__:
        assert hasattr(qunimodal, name), name


def test_export_list_has_no_duplicates():
    assert len(set(qunimodal.__all__)) == len(qunimodal.__all__)


def test_removed_carriers_are_not_exported():
    removed = (
        "LRQuery",
        "KroneckerValue",
        "Route",
        "Box",
        "rectangle",
        "fits_in_box",
        "complement_in_box",
        "enumerate_in_box",
        "lr_rectangle",
        "CharacterTable",
        "character_table",
        "Lemma12Result",
        "SemigroupViolation",
        "routes_check",
    )
    for name in removed:
        assert name not in qunimodal.__all__
        assert not hasattr(qunimodal, name)

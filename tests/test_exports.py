"""The package's export list: every name resolves, none is listed twice,
and names removed from the API stay removed.  The number of exports and
of settable values (CLI options and keyword defaults of exported
functions) is pinned, so a new one is a deliberate change, and so are
the memo tables the package keeps."""

import argparse
import importlib
import inspect
import pkgutil

import qunimodal
from qunimodal.cli import _build_parser


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
        "lemma12_check",
        "add",
        "certificate_to_obj",
        "certificate_from_obj",
    )
    for name in removed:
        assert name not in qunimodal.__all__
        assert not hasattr(qunimodal, name)
    assert not hasattr(qunimodal.Partition, "padded")


def test_export_count_is_pinned():
    assert len(qunimodal.__all__) == 33


def test_cli_option_count_is_pinned():
    [subcommands] = [
        action
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = [
        f"{name} {action.option_strings[0]}"
        for name, sub in subcommands.choices.items()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
    ]
    assert len(options) == 28, options


def test_exported_functions_have_no_keyword_defaults():
    defaults = [
        (name, param.name)
        for name in qunimodal.__all__
        if callable(obj := getattr(qunimodal, name)) and not isinstance(obj, type)
        for param in inspect.signature(obj).parameters.values()
        if param.default is not param.empty
    ]
    assert defaults == []


def test_memo_tables_are_pinned():
    # the submodules in import order, each after those it imports, so a
    # memo is named by the module that defines it, not by one importing it
    order = ("partitions", "qbinomial", "unimodality", "certify", "lr", "kronecker", "repro", "cli")
    submodules = {info.name for info in pkgutil.iter_modules(qunimodal.__path__)}
    assert submodules - {"__main__"} == set(order)
    # a class whose instances are memos has the method too, and is no memo
    seen = {}
    for name in order:
        module = importlib.import_module(f"qunimodal.{name}")
        for attr, obj in vars(module).items():
            if hasattr(obj, "cache_info") and not isinstance(obj, type):
                seen.setdefault(id(obj), (f"{name}.{attr}", obj))
    assert [name for name, _ in seen.values()] == [
        "partitions.partitions_of",
        "certify._leaf_strict",
        "certify.default_registry",
        "certify._chain_starts",
        "kronecker._char",
        "kronecker._classes",
        "kronecker._tables",
        "kronecker._sampled",
    ]
    for name, memo in seen.values():
        assert memo.cache_info()._fields == ("hits", "misses", "maxsize", "currsize"), name

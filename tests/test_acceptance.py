"""Acceptance gate: one test per shipped criterion, each printing a
single PASS/FAIL line with its measured runtime against the budget.

Run with ``pytest -v tests/test_acceptance.py``.  The summary lines
bypass output capture so they appear in piped output too.
"""

import time

from qunimodal import check_strict, classify, gaussian, scan
from qunimodal.repro import (
    repro_certify_sweep,
    repro_ell2,
    repro_ell34,
    repro_exceptions,
    repro_leaves,
    repro_lemma12,
    repro_routes,
    repro_semigroup,
    repro_theorem,
)


def _announce(capsys, num, name, ok, elapsed, budget, note=""):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"ACCEPTANCE {num} ({name}): {verdict} ({elapsed:.2f}s, budget {budget:g}s)"
    if note:
        line += f" -- {note}"
    with capsys.disabled():
        print(line, flush=True)
    return verdict == "PASS"


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def test_01_exception_scan(capsys):
    (ok, lines), elapsed = _timed(repro_exceptions)
    passed = _announce(
        capsys,
        1,
        "exception scan",
        ok,
        elapsed,
        10.0,
        "middle-three shape holds for eight pairs; (6,6) provably fails at "
        "indices 16,17 and 19,20 around a strictly larger centre",
    )
    assert passed, lines


def test_02_ell_two_pairing(capsys):
    (ok, lines), elapsed = _timed(repro_ell2, 50)
    assert _announce(capsys, 2, "ell=2 coefficient pairing", ok, elapsed, 1.0), lines


def test_03_ell_three_four_non_strict(capsys):
    (ok, lines), elapsed = _timed(repro_ell34, 30)
    assert _announce(capsys, 3, "ell in {3,4} never strict", ok, elapsed, 5.0), lines


def test_04_rectangle_difference_identity(capsys):
    (ok, lines), elapsed = _timed(repro_lemma12, 16)
    assert _announce(capsys, 4, "rectangle difference identity", ok, elapsed, 120.0), lines


def test_05_route_equivalence(capsys):
    (ok, lines), elapsed = _timed(repro_routes, 10)
    assert _announce(capsys, 5, "two-row route equals oracle", ok, elapsed, 300.0), lines


def test_06_semigroup_properties(capsys):
    (ok, lines), elapsed = _timed(repro_semigroup, 1000, 0, 18)
    assert _announce(
        capsys, 6, "semigroup and monotonicity sampling", ok, elapsed, 600.0
    ), lines


def test_07_certificate_sweep(capsys):
    (ok, lines), elapsed = _timed(repro_certify_sweep, 40)
    assert _announce(capsys, 7, "certificate soundness sweep", ok, elapsed, 120.0), lines


def test_08_performance_budget(capsys):
    start = time.perf_counter()
    poly = gaussian(60, 60)
    report = check_strict(60, 60)
    expand_elapsed = time.perf_counter() - start
    shape_ok = len(poly.coeffs) == 3601 and report.strict

    start = time.perf_counter()
    rows = scan(range(2, 31), range(2, 31))
    scan_elapsed = time.perf_counter() - start
    scan_ok = len(rows) == 435 and all(classify(l, m) is cls for l, m, cls in rows[:5])

    ok = shape_ok and expand_elapsed < 1.0 and scan_ok
    assert _announce(
        capsys,
        8,
        "performance budget",
        ok,
        scan_elapsed,
        30.0,
        f"expand+check 60x60 took {expand_elapsed:.3f}s (budget 1s), "
        f"scan 2..30 took {scan_elapsed:.2f}s",
    ), (expand_elapsed, scan_elapsed)


def test_09_leaf_second_route(capsys):
    (ok, lines), elapsed = _timed(repro_leaves)
    assert _announce(
        capsys, 9, "registry leaves by the q-Pascal recurrence", ok, elapsed, 1.0
    ), lines


def test_10_theorem(capsys):
    (ok, lines), elapsed = _timed(repro_theorem)
    assert _announce(
        capsys, 10, "the recipe reaches every pair with min >= 5", ok, elapsed, 1.0
    ), lines

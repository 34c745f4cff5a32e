"""Reproduction harness: one function per shipped claim of the paper.

Each ``repro_*`` function re-derives its claim by computation and
returns ``(ok, printable lines)``: through ``_report``, its head lines,
then its first 20 failures and one line counting the rest.  Its
signature holds the claim's only defaults: a size bound ``max_n`` (its
docstring says what n bounds) and, for sampling claims, ``samples`` and
``seed``.  ``CLAIMS`` maps the names accepted by ``qunimodal repro
--claim`` to these functions, and the CLI passes each claim only the
options its signature names; the acceptance tests call the functions
directly.
"""

from __future__ import annotations

from .certify import (
    NotCertifiableError,
    _chain_starts,
    _exceptional,
    _leaf_strict,
    _registry_candidates,
    certify,
    default_registry,
    verify,
)
from .kronecker import DEFAULT_ORACLE_BOUND, g_oracle, g_two_row, semigroup_check, two_row
from .partitions import Partition, partitions_of
from .qbinomial import gaussian
from .unimodality import EXCEPTION_PAIRS, PairClass, check_strict, classify


def _pairs(pairs) -> str:
    return " ".join(f"({a},{b})" for a, b in pairs)


def _versus_listed(label: str, found: list[tuple[int, int]]) -> tuple[str, list[str]]:
    """The line naming the non-strict pairs ``found`` after ``label``
    and, unless they are ``EXCEPTION_PAIRS``, a failure line listing
    those, aligned under them."""
    listed = sorted(EXCEPTION_PAIRS)
    mismatch = [] if found == listed else ["expected:".ljust(len(label) + 2) + _pairs(listed)]
    return f"{label}: {_pairs(found)}", mismatch


def _report(head: list[str], failures: list[str]) -> tuple[bool, list[str]]:
    """A claim's verdict and lines: its head lines, then its first 20
    failures and one line counting the rest, so no claim prints without
    bound."""
    lines = head + failures[:20]
    if len(failures) > 20:
        lines.append(f"and {len(failures) - 20} more")
    return not failures, lines


# The largest max_n each sweep admits; a larger one raises ValueError
# before any work.  On a 2-vCPU VM the largest admitted run of ell2 and
# ell34 takes about 0.3 s, of certify-sweep about 1.5 s (100 took 18 s).
ELL2_MAX_N = 1000
ELL34_MAX_N = 400
CERTIFY_SWEEP_MAX_N = 60


def _check_max_n(max_n: int, bound: int, what: str, least: int = 1) -> None:
    """Raise ValueError before any work unless least <= max_n <= bound:
    below ``least`` the claim would check nothing and still pass."""
    if max_n < least:
        raise ValueError(f"{what} needs n >= {least}, or it checks nothing: got max_n={max_n}")
    if max_n > bound:
        raise ValueError(f"{what} limited to n <= {bound}: got max_n={max_n}")


def repro_exceptions() -> tuple[bool, list[str]]:
    """Re-derive the nine exceptional pairs by direct checks over the two
    windows, and check that ``classify`` agrees on every window pair."""
    window = {(l, m) for l in range(5, 8) for m in range(l, 21)}
    window |= {(l, m) for l in range(8, 16) for m in range(l, 16)}
    reports = {p: check_strict(*p) for p in sorted(window)}
    found = [p for p, rep in reports.items() if not rep.strict]
    found_line, failures = _versus_listed("exceptions found", found)
    misclassified = [
        p
        for p in reports
        if classify(*p) is not (PairClass.Exception if p in found else PairClass.Strict)
    ]
    if misclassified:
        failures.append("classify disagrees with the direct check on: " + _pairs(misclassified))
    for a, b in found:
        rep = reports[(a, b)]
        half = rep.n // 2
        if (a, b) == (6, 6):
            # (6, 6) is the one pair whose equalities flank a strict peak:
            # p_16 = p_17 < p_18 > p_19 = p_20.  Three independent
            # computations of the coefficients agree on this shape.
            flanks = ((half - 2, half - 1), (half + 1, half + 2))
            shape_ok = rep.plateaus == flanks and rep.first_violation == half - 1
        else:
            shape_ok = rep.plateaus == ((half - 1, half + 1),) and rep.first_violation == half
        if not shape_ok:
            failures.append(f"({a},{b}): unexpected failure shape: {rep}")
    head = ["scanned ell in 5..7 x m in 5..20 and 8..15 x 8..15", found_line]
    if not failures:
        head.append(
            "middle-three plateau confirmed for all but (6,6), "
            "whose equal pairs flank a strictly larger centre"
        )
    return _report(head, failures)


def _pascal_table(rows: int, cols: int) -> list[list[list[int]]]:
    """G[i][j], the coefficient list of binom(i+j, i)_q for i <= rows and
    j <= cols, by the q-Pascal recurrence G(i, j) = G(i, j-1) + q^j G(i-1, j)
    on plain lists."""
    table = [[[1]] * (cols + 1)]
    for i in range(1, rows + 1):
        row = [[1]]
        for j in range(1, cols + 1):
            coeffs = row[j - 1] + [0] * i
            for k, c in enumerate(table[i - 1][j], j):
                coeffs[k] += c
            row.append(coeffs)
        table.append(row)
    return table


def repro_leaves() -> tuple[bool, list[str]]:
    """Re-derive the verdict on every base registry candidate by a route
    that shares no code with ``qbinomial``: the q-Pascal recurrence on
    plain lists, then a scan of each rise.  The non-strict candidates must
    be ``EXCEPTION_PAIRS``, and every verdict must match the leaf check
    that certificates rely on."""
    cands = sorted(_registry_candidates())
    table = _pascal_table(max(a for a, _ in cands), max(b for _, b in cands))
    verdicts = {}
    for a, b in cands:
        p = table[a][b]
        verdicts[(a, b)] = all(p[k - 1] < p[k] for k in range(2, a * b // 2 + 1))
    found = [pair for pair, strict in verdicts.items() if not strict]
    found_line, failures = _versus_listed("non-strict", found)
    differ = [pair for pair, strict in verdicts.items() if strict != _leaf_strict(*pair)]
    if differ:
        failures.append("the leaf check disagrees on: " + _pairs(differ))
    head = [f"expanded {len(cands)} registry candidates by the q-Pascal recurrence", found_line]
    return _report(head, failures)


def repro_theorem() -> tuple[bool, list[str]]:
    """Every pair with min(ell, m) >= 5 is strict except the nine
    ``EXCEPTION_PAIRS``: a finite check that ``certify``'s recipe reaches
    every other pair from directly checked leaves.

    The proof is the paper's (Pak-Panova, arXiv:1306.5085).  By the
    rectangle identity (the ``lemma12`` claim), g(m^ell, m^ell, (n-k, k))
    = p_k - p_{k-1}: 1 at k = 0, and positive for 2 <= k <= n/2 exactly
    when (ell, m) is strict.  Rectangles and two-row shapes add row-wise,
    so the semigroup property of Kronecker coefficients (Christandl,
    Harrow and Mitchison, CMP 2007; sampled by the ``semigroup`` claim)
    makes (ell, m1 + m2) strict when (ell, m1) and (ell, m2) are and every
    k in 2..n/2 splits as k1 + k2 with each k_i in {0} or 2..n_i/2, which
    holds when ell, m1 and m2 are >= 2, one is >= 3 and one is even: the
    additivity step.  Every step of the recipe adds (ell, 8 * 2^j), j >= 0,
    to a registered pair, to an earlier sum or to itself, so a multiple of
    8 is the even member, ell >= 5 is the member >= 3, and every member is
    >= 5; a mirror is free, (ell, m) and (m, ell) having one vector.  The
    leaves are the base registry, each pair checked directly (a second
    route: ``leaves``).

    What is left is the reach of the recipe, checked here:

    * (a, 8) is registered for every a in 5..15: the step of each chain;
    * for a in 5..15 every residue r mod 8 has a chain start, the largest
      registered (a, s) with s = r mod 8, and for a >= 8 it is <= 15; so
      the min >= 16 branch, which grows (b, a0) by steps (b, 8) with a0 in
      8..15 and b >= 16, builds both from a start below b;
    * below each start, every b >= a with b = r mod 8 is registered or in
      the exception window (a <= 7, b <= 20), and above it the chain
      reaches every b;
    * the unregistered registry candidates and window pairs are exactly
      ``EXCEPTION_PAIRS``, so ``classify`` answers ``Exception`` on
      these nine pairs only.
    """
    reg = default_registry()
    starts = _chain_starts(reg)
    gaps = [f"({a},8) is not registered" for a in range(5, 16) if (a, 8) not in reg]
    for a in range(5, 16):
        for r in range(8):
            start = starts.get((a, r))
            if start is None:
                gaps.append(f"no chain start for ({a}, m = {r} mod 8)")
                continue
            if a >= 8 and start > 15:
                gaps.append(f"the chain start ({a},{start}) is above 15")
            gaps.extend(
                f"({a},{b}) is below its chain start ({a},{start}), "
                "neither registered nor in the exception window"
                for b in range(a + (r - a) % 8, start, 8)
                if (a, b) not in reg and not _exceptional(a, b, reg)
            )
    # the registry candidates hold the whole exception window
    refused = sorted(_registry_candidates() - reg)
    refused_line, mismatch = _versus_listed("unregistered candidates", refused)
    gaps += mismatch
    head = [
        "checked the steps (ell,8) and the chain starts of ell = 5..15, residues 0..7 mod 8",
        refused_line,
    ]
    if not gaps:
        head.append("the recipe reaches every pair with min >= 5 but these nine")
    return _report(head, gaps)


def repro_ell2(max_n: int = 50) -> tuple[bool, list[str]]:
    """p_{2i}(2, m) = p_{2i+1}(2, m) for all i < 2m/4, for every m <= max_n
    <= ``ELL2_MAX_N``; a ``max_n`` below 3 raises ValueError, since below
    m = 3 only p_0 = p_1 is checked, which holds for every box."""
    _check_max_n(max_n, ELL2_MAX_N, "ell2 claim", least=3)
    bad: list[str] = []
    for m in range(1, max_n + 1):
        poly = gaussian(2, m)
        n = 2 * m
        for i in range(0, (n + 3) // 4):
            if poly.coefficient(2 * i) != poly.coefficient(2 * i + 1):
                bad.append(f"m={m} i={i}")
    return _report([f"checked even/odd coefficient pairing for ell=2, m=1..{max_n}"], bad)


def repro_ell34(max_n: int = 30) -> tuple[bool, list[str]]:
    """ell in {3, 4} is never strict, with a plateau beyond the forced
    middle, for every 3 <= m <= max_n <= ``ELL34_MAX_N``; a ``max_n``
    below 3 raises ValueError."""
    _check_max_n(max_n, ELL34_MAX_N, "ell34 claim", least=3)
    bad: list[str] = []
    for ell in (3, 4):
        for m in range(3, max_n + 1):
            rep = check_strict(ell, m)
            forced = ((rep.n // 2, rep.n // 2 + 1),) if rep.n % 2 else ()
            witness = any(p not in forced for p in rep.plateaus)
            if rep.strict or not witness:
                bad.append(f"({ell},{m}): strict={rep.strict} plateaus={rep.plateaus}")
    head = f"checked ell in {{3,4}}, m=3..{max_n} for non-strictness with a witness plateau"
    return _report([head], bad)


def repro_lemma12(max_n: int = 16) -> tuple[bool, list[str]]:
    """Rectangle difference identity on every box of area n = ell*m <= max_n:
    g(m^ell, m^ell, (n-k, k)) = p_k - p_{k-1} for every 0 <= k <= n/2.

    A ``max_n`` above ``DEFAULT_ORACLE_BOUND`` raises ValueError before
    any box is computed.
    """
    _check_max_n(max_n, DEFAULT_ORACLE_BOUND, "character oracle")
    bad: list[str] = []
    boxes = 0
    for ell in range(1, max_n + 1):
        for m in range(1, max_n // ell + 1):
            boxes += 1
            n = ell * m
            rect = Partition((m,) * ell)
            poly = gaussian(ell, m)
            failed = [
                k
                for k in range(n // 2 + 1)
                if g_oracle(rect, rect, two_row(n, k))
                != poly.coefficient(k) - poly.coefficient(k - 1)
            ]
            if failed:
                bad.append(f"({ell},{m}) failed at k={','.join(map(str, failed))}")
    head = f"checked the difference identity on {boxes} boxes with ell*m <= {max_n}"
    return _report([head], bad)


def repro_routes(max_n: int = 10) -> tuple[bool, list[str]]:
    """Two-row formula == character oracle on all pairs of partitions of n <= max_n.

    A ``max_n`` above ``DEFAULT_ORACLE_BOUND`` raises ValueError before
    any pair is compared.
    """
    _check_max_n(max_n, DEFAULT_ORACLE_BOUND, "character oracle")
    mismatches = []
    for n in range(1, max_n + 1):
        shapes = partitions_of(n)
        for i, lam in enumerate(shapes):
            for mu in shapes[i:]:
                for k in range(n // 2 + 1):
                    via_lr = g_two_row(lam, mu, k)
                    via_chars = g_oracle(lam, mu, two_row(n, k))
                    if via_lr != via_chars:
                        mismatches.append(
                            f"g({lam},{mu},k={k}): two-row {via_lr} != oracle {via_chars}"
                        )
    return _report([f"compared the two routes on all partition pairs up to n={max_n}"], mismatches)


def repro_semigroup(
    samples: int = 1000, seed: int = 0, max_n: int = 18
) -> tuple[bool, list[str]]:
    """Positivity and monotonicity of g under part-wise sums, sampled from
    pairs of triples whose total size n is at most max_n, where
    2 <= max_n <= ``DEFAULT_ORACLE_BOUND`` and samples <= ``kronecker.MAX_SAMPLES``."""
    _check_max_n(max_n, DEFAULT_ORACLE_BOUND, "semigroup claim", least=2)
    violations = [
        f"violation: {first} + {second}: g={g_first},{g_second} sum gives {g_sum}"
        for first, second, g_first, g_second, g_sum in semigroup_check(
            samples=samples, seed=seed, max_total_size=max_n
        )
    ]
    head = f"sampled {samples} pairs of positive triples (seed={seed}, total size <= {max_n})"
    return _report([head], violations)


def repro_certify_sweep(max_n: int = 40) -> tuple[bool, list[str]]:
    """Certificates and direct checks agree on every 5 <= ell <= m <= max_n
    <= ``CERTIFY_SWEEP_MAX_N``; a ``max_n`` below 5 raises ValueError."""
    _check_max_n(max_n, CERTIFY_SWEEP_MAX_N, "certify-sweep claim", least=5)
    bad: list[str] = []
    certified = 0
    refused = 0
    for ell in range(5, max_n + 1):
        for m in range(ell, max_n + 1):
            direct = check_strict(ell, m).strict
            if (ell, m) in EXCEPTION_PAIRS:
                try:
                    certify(ell, m)
                    bad.append(f"({ell},{m}): exceptional pair was certified")
                except NotCertifiableError as err:
                    if err.reason != "exception":
                        bad.append(f"({ell},{m}): refused with wrong reason {err.reason}")
                if direct:
                    bad.append(f"({ell},{m}): exceptional pair checks strict directly")
                refused += 1
                continue
            certified += 1
            try:
                cert = certify(ell, m)
            except NotCertifiableError as err:
                bad.append(f"({ell},{m}): refused: {err}")
                continue
            outcome = verify(cert)
            if not outcome.ok:
                bad.append(f"({ell},{m}): verification failed: {outcome.reason}")
            if not direct:
                bad.append(f"({ell},{m}): certificate exists but direct check is not strict")
    head = (
        f"built and verified {certified} certificates, confirmed {refused} refusals, "
        f"5 <= ell <= m <= {max_n}"
    )
    return _report([head], bad)


CLAIMS = {
    "exceptions": repro_exceptions,
    "leaves": repro_leaves,
    "theorem": repro_theorem,
    "ell2": repro_ell2,
    "ell34": repro_ell34,
    "lemma12": repro_lemma12,
    "routes": repro_routes,
    "semigroup": repro_semigroup,
    "certify-sweep": repro_certify_sweep,
}

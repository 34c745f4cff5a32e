"""Command line interface.

Subcommands: expand, check, scan, lr, kron, certify, verify, repro.
Exit code 0 means a computed answer (including negative answers such as
"not strict" or a refused certificate), 1 a usage error or a reader that
closed stdout early, and 2 an internal failure.  The CLI only parses
arguments and formats results; ``repro`` runs the claims in
``repro.py``, passing each claim only the options its signature names,
with the defaults that signature holds.

``--format json`` wraps every result in a stable envelope
{"command", "params", "result", "version"}; values that can be large
(coefficients, counts) are serialized as decimal strings.  Each
subcommand body returns ``(params, result, text)`` and prints nothing;
``run`` alone prints: the envelope under ``--format json``, else each
line of ``text`` (plain, or csv for ``expand`` and ``scan``, which
``expand`` streams; ``certify`` has no ``--format``).
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import re
import sys
from collections.abc import Iterable

from . import __version__
from .certify import (
    MAX_BYTES,
    CertificateFormatError,
    NotCertifiableError,
    certify,
    parse_certificate,
    serialize_certificate,
    verify,
)
from .kronecker import InternalConsistencyError, g_oracle, g_two_row, two_row
from .lr import lr
from .partitions import format_partition, parse_partition
from .qbinomial import gaussian
from .repro import CLAIMS
from .unimodality import UnimodalityReport, check_strict, scan


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage problems, not argparse's 2
        raise _UsageError(message)


def _parse_span(text: str) -> range:
    """Parse 'A' or 'A..B' into an inclusive range."""
    m = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text.strip())
    if not m:
        raise _UsageError(f"range syntax is A or A..B: got {text!r}")
    a = int(m.group(1))
    b = int(m.group(2)) if m.group(2) else a
    if a < 1 or b < a:
        raise _UsageError(f"need 1 <= A <= B in range: got {text!r}")
    return range(a, b + 1)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"need an integer >= 1: got {value}")
    return value


def _envelope(command: str, params: dict, result) -> str:
    payload = {
        "command": command,
        "params": params,
        "result": result,
        "version": __version__,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _report_lines(rep: UnimodalityReport) -> list[str]:
    fv = rep.first_violation
    plateaus = " ".join(f"[{a},{b}]" for a, b in rep.plateaus)
    return [
        f"ell={rep.ell} m={rep.m} n={rep.n}",
        f"strict: {'true' if rep.strict else 'false'}",
        f"first_violation: {fv if fv is not None else 'none'}",
        f"plateaus: {plateaus or 'none'}",
    ]


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="qunimodal",
        description="Strict unimodality of Gaussian binomial coefficients, with "
        "Littlewood-Richardson and Kronecker coefficients and additivity "
        "certificates.  Exit status: 0 a computed answer, a negative one such as "
        '"not strict" or REJECTED included; 1 a usage error or a reader that '
        "closed stdout early; 2 an internal failure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="coefficient vector of binom(m+ell, m)_q")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")

    p = sub.add_parser("check", help="strict unimodality report for one pair")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("plain", "json"), default="plain")

    p = sub.add_parser("scan", help="classify every pair in a rectangle of pairs")
    p.add_argument("--ell", required=True, help="range A..B (inclusive)")
    p.add_argument("--m", required=True, help="range A..B (inclusive)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("lr", help="Littlewood-Richardson coefficient")
    p.add_argument("--outer", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--format", choices=("plain", "json"), default="plain")

    p = sub.add_parser("kron", help="Kronecker coefficient (two-row or oracle route)")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--k", type=int, help="two-row route: third partition (n-k, k)")
    p.add_argument("--nu", help="character oracle route: any third partition")
    p.add_argument("--format", choices=("plain", "json"), default="plain")

    p = sub.add_parser("certify", help="build an additivity certificate")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", help="write the certificate JSON to this file")

    p = sub.add_parser("verify", help="verify a certificate file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=("plain", "json"), default="plain")

    p = sub.add_parser("repro", help="re-run a shipped reproduction claim")
    p.add_argument("--claim", choices=tuple(CLAIMS), required=True)
    p.add_argument("--max-n", type=_positive, help="size bound n; the claim says what n bounds")
    p.add_argument("--samples", type=_positive)
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=("plain", "json"), default="plain")

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies: each returns the envelope's params and result and the
# lines printed without --format json, and prints nothing

_Output = tuple[dict | None, object, Iterable]


def _run_expand(args) -> _Output:
    coeffs = gaussian(args.ell, args.m).coeffs
    params = {"ell": args.ell, "m": args.m}
    if args.format == "json":
        return params, {**params, "coeffs": [str(c) for c in coeffs]}, ()
    if args.format == "csv":
        return params, None, (f"{k},{c}" for k, c in enumerate(coeffs))
    return params, None, coeffs


def _run_check(args) -> _Output:
    rep = check_strict(args.ell, args.m)
    return {"ell": args.ell, "m": args.m}, rep._asdict(), _report_lines(rep)


def _run_scan(args) -> _Output:
    rows = scan(_parse_span(args.ell), _parse_span(args.m))
    result = [{"ell": l, "m": m, "class": cls.value} for l, m, cls in rows]
    text = (f"{l},{m},{cls.value}" for l, m, cls in rows)
    return {"ell": args.ell, "m": args.m}, result, text


def _run_lr(args) -> _Output:
    outer = parse_partition(args.outer)
    left = parse_partition(args.left)
    right = parse_partition(args.right)
    value = lr(outer, left, right)
    result = {
        "outer": format_partition(outer),
        "left": format_partition(left),
        "right": format_partition(right),
        "coefficient": str(value),
    }
    params = {"outer": args.outer, "left": args.left, "right": args.right}
    return params, result, [value]


def _run_kron(args) -> _Output:
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    if (args.k is None) == (args.nu is None):
        raise _UsageError("pass one of --k (two-row formula) or --nu (character oracle)")
    if args.nu is not None:
        nu = parse_partition(args.nu)
        value = g_oracle(lam, mu, nu)
        route = "CharacterOracle"
    else:
        nu = two_row(lam.size, args.k)
        value = g_two_row(lam, mu, args.k)
        route = "TwoRowFormula"
    result = {
        "lambda": format_partition(lam),
        "mu": format_partition(mu),
        "nu": format_partition(nu),
        "value": str(value),
        "route": route,
    }
    if args.k is not None:
        result["k"] = args.k
    params = {"lambda": args.lam, "mu": args.mu, "k": args.k, "nu": args.nu}
    return params, result, [value]


def _run_certify(args) -> _Output:
    try:
        cert = certify(args.ell, args.m)
    except NotCertifiableError as err:
        return None, None, [f"REFUSED ({err.reason}): {err}"]
    text = serialize_certificate(cert)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as err:
            raise _UsageError(f"cannot write {args.out}: {err}") from None
        text = f"wrote certificate for ({args.ell},{args.m}) to {args.out}"
    return None, None, [text]


def _run_verify(args) -> _Output:
    try:
        with open(args.infile, "rb") as fh:
            # one byte over the bound is enough for parse to reject it
            data = fh.read(MAX_BYTES + 1)
    except OSError as err:
        raise _UsageError(f"cannot read {args.infile}: {err}") from None
    params = {"in": args.infile}
    try:
        cert = parse_certificate(data)
    except CertificateFormatError as err:
        result = {"accepted": False, "reason": str(err), "path": err.path}
        return params, result, [f"REJECTED: malformed certificate ({err})"]
    outcome = verify(cert)
    result = {
        "accepted": outcome.ok,
        "ell": outcome.ell,
        "m": outcome.m,
        "reason": outcome.reason,
        "path": outcome.path,
    }
    if outcome.ok:
        line = f"ACCEPTED: ({outcome.ell},{outcome.m}) is strictly unimodal per certificate"
    else:
        line = f"REJECTED at {outcome.path}: {outcome.reason}"
    return params, result, [line]


_CLAIM_FLAGS = {"max_n": "--max-n", "samples": "--samples", "seed": "--seed"}


def _run_repro(args) -> _Output:
    claim = CLAIMS[args.claim]
    signature = inspect.signature(claim)
    given = {name: value for name in _CLAIM_FLAGS if (value := getattr(args, name)) is not None}
    refused = [_CLAIM_FLAGS[name] for name in given if name not in signature.parameters]
    if refused:
        accepted = [flag for name, flag in _CLAIM_FLAGS.items() if name in signature.parameters]
        raise _UsageError(
            f"--claim {args.claim} does not take {' '.join(refused)}; "
            f"it takes {' '.join(accepted) or 'no options'}"
        )
    bound = signature.bind(**given)
    bound.apply_defaults()
    ok, lines = claim(**bound.arguments)
    params = {"claim": args.claim, **bound.arguments}
    text = [f"claim: {args.claim}", *lines, "PASS" if ok else "FAIL"]
    return params, {"pass": ok, "detail": lines}, text


_DISPATCH = {
    "expand": _run_expand,
    "check": _run_check,
    "scan": _run_scan,
    "lr": _run_lr,
    "kron": _run_kron,
    "certify": _run_certify,
    "verify": _run_verify,
    "repro": _run_repro,
}


def run(argv: "list[str] | None" = None) -> int:
    """Parse and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        params, result, text = _DISPATCH[args.command](args)
        if getattr(args, "format", None) == "json":  # certify has no --format
            print(_envelope(args.command, params, result))
        else:
            for line in text:
                print(line)
        return 0
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except InternalConsistencyError as err:
        print(f"internal consistency error: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 2
    except SystemExit as err:  # argparse --help
        return int(err.code or 0)


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (as `| head -n 1` does): point stdout at
        # devnull so that the flush at shutdown writes nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)

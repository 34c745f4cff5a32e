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
(coefficients, counts) are serialized as decimal strings.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import re
import sys

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


def _print_report(rep: UnimodalityReport) -> None:
    print(f"ell={rep.ell} m={rep.m} n={rep.n}")
    print(f"strict: {'true' if rep.strict else 'false'}")
    fv = rep.first_violation
    print(f"first_violation: {fv if fv is not None else 'none'}")
    if rep.plateaus:
        print("plateaus: " + " ".join(f"[{a},{b}]" for a, b in rep.plateaus))
    else:
        print("plateaus: none")


def _build_parser() -> _Parser:
    parser = _Parser(prog="qunimodal", description=__doc__)
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
# subcommand bodies


def _run_expand(args) -> int:
    poly = gaussian(args.ell, args.m)
    if args.format == "plain":
        for c in poly.coeffs:
            print(c)
    elif args.format == "csv":
        for k, c in enumerate(poly.coeffs):
            print(f"{k},{c}")
    else:
        result = {"ell": args.ell, "m": args.m, "coeffs": [str(c) for c in poly.coeffs]}
        print(_envelope("expand", {"ell": args.ell, "m": args.m}, result))
    return 0


def _run_check(args) -> int:
    rep = check_strict(args.ell, args.m)
    if args.format == "plain":
        _print_report(rep)
    else:
        print(_envelope("check", {"ell": args.ell, "m": args.m}, dataclasses.asdict(rep)))
    return 0


def _run_scan(args) -> int:
    rows = scan(_parse_span(args.ell), _parse_span(args.m))
    if args.format == "csv":
        for l, m, cls in rows:
            print(f"{l},{m},{cls.value}")
    else:
        result = [{"ell": l, "m": m, "class": cls.value} for l, m, cls in rows]
        params = {"ell": args.ell, "m": args.m}
        print(_envelope("scan", params, result))
    return 0


def _run_lr(args) -> int:
    outer = parse_partition(args.outer)
    left = parse_partition(args.left)
    right = parse_partition(args.right)
    value = lr(outer, left, right)
    if args.format == "plain":
        print(value)
    else:
        result = {
            "outer": format_partition(outer),
            "left": format_partition(left),
            "right": format_partition(right),
            "coefficient": str(value),
        }
        params = {"outer": args.outer, "left": args.left, "right": args.right}
        print(_envelope("lr", params, result))
    return 0


def _run_kron(args) -> int:
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
    if args.format == "plain":
        print(value)
    else:
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
        print(_envelope("kron", params, result))
    return 0


def _run_certify(args) -> int:
    try:
        cert = certify(args.ell, args.m)
    except NotCertifiableError as err:
        print(f"REFUSED ({err.reason}): {err}")
        return 0
    text = serialize_certificate(cert)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as err:
            raise _UsageError(f"cannot write {args.out}: {err}") from None
        print(f"wrote certificate for ({args.ell},{args.m}) to {args.out}")
    else:
        print(text)
    return 0


def _run_verify(args) -> int:
    try:
        with open(args.infile, "rb") as fh:
            # one byte over the bound is enough for parse to reject it
            text = fh.read(MAX_BYTES + 1)
    except OSError as err:
        raise _UsageError(f"cannot read {args.infile}: {err}") from None
    try:
        cert = parse_certificate(text)
    except CertificateFormatError as err:
        if args.format == "plain":
            print(f"REJECTED: malformed certificate ({err})")
        else:
            result = {"accepted": False, "reason": str(err), "path": err.path}
            print(_envelope("verify", {"in": args.infile}, result))
        return 0
    outcome = verify(cert)
    if args.format == "plain":
        if outcome.ok:
            print(f"ACCEPTED: ({outcome.ell},{outcome.m}) is strictly unimodal per certificate")
        else:
            print(f"REJECTED at {outcome.path}: {outcome.reason}")
    else:
        result = {
            "accepted": outcome.ok,
            "ell": outcome.ell,
            "m": outcome.m,
            "reason": outcome.reason,
            "path": outcome.path,
        }
        print(_envelope("verify", {"in": args.infile}, result))
    return 0


_CLAIM_FLAGS = {"max_n": "--max-n", "samples": "--samples", "seed": "--seed"}


def _run_repro(args) -> int:
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
    if args.format == "json":
        params = {"claim": args.claim, **bound.arguments}
        print(_envelope("repro", params, {"pass": ok, "detail": lines}))
        return 0
    print(f"claim: {args.claim}")
    for line in lines:
        print(line)
    print("PASS" if ok else "FAIL")
    return 0


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
        return _DISPATCH[args.command](args)
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

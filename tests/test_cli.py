import importlib
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from qunimodal import qbinomial, unimodality
from qunimodal.cli import run
from qunimodal.kronecker import DEFAULT_ORACLE_BOUND


def _lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def test_expand_plain(capsys):
    assert run(["expand", "--ell", "2", "--m", "2"]) == 0
    assert _lines(capsys) == ["1", "1", "2", "1", "1"]


def test_expand_csv(capsys):
    assert run(["expand", "--ell", "2", "--m", "2", "--format", "csv"]) == 0
    assert _lines(capsys) == ["0,1", "1,1", "2,2", "3,1", "4,1"]


def test_expand_json_envelope(capsys):
    assert run(["expand", "--ell", "2", "--m", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "expand"
    assert doc["params"] == {"ell": 2, "m": 3}
    assert doc["result"]["coeffs"] == ["1", "1", "2", "2", "2", "1", "1"]
    assert "version" in doc


def test_expand_rejects_negative(capsys):
    assert run(["expand", "--ell", "-1", "--m", "3"]) == 1
    assert "error" in capsys.readouterr().err


def test_closed_stdout_ends_quietly_with_exit_1():
    # `qunimodal expand ... | head -n 1`: the reader closes the pipe long
    # before the 40,001 rows are written
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    argv = [sys.executable, "-m", "qunimodal", "expand", "--ell", "200", "--m", "200"]
    argv += ["--format", "csv"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"0,1\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 1


def test_check_plain(capsys):
    assert run(["check", "--ell", "5", "--m", "6"]) == 0
    out = _lines(capsys)
    assert out[0] == "ell=5 m=6 n=30"
    assert out[1] == "strict: false"
    assert out[2] == "first_violation: 15"
    assert out[3] == "plateaus: [14,16]"


def test_check_exception_pair_names_middle_plateau(capsys):
    assert run(["check", "--ell", "6", "--m", "7"]) == 0
    out = _lines(capsys)
    assert out[1] == "strict: false"
    assert out[3] == "plateaus: [20,22]"  # indices 20,21,22 are the middle three


def test_check_json(capsys):
    assert run(["check", "--ell", "2", "--m", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == {
        "ell": 2,
        "m": 2,
        "n": 4,
        "strict": True,
        "plateaus": [],
        "first_violation": None,
    }


def test_oversize_box_is_one_line_and_exit_1(monkeypatch, capsys):
    # refused before any expansion, in one line on stderr
    def unreachable(*args):
        raise AssertionError("expanded a box above the guard")

    monkeypatch.setattr(qbinomial, "_product_coeffs", unreachable)
    for command in ("check", "expand"):
        assert run([command, "--ell", "5", "--m", "10000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: box too large to expand: ell=5 m=10000000000 ")


def test_scan_csv(capsys):
    assert run(["scan", "--ell", "5..6", "--m", "5..7"]) == 0
    assert _lines(capsys) == [
        "5,5,Strict",
        "5,6,Exception",
        "5,7,Strict",
        "6,6,Exception",
        "6,7,Exception",
    ]


def test_oversize_scan_is_one_line_and_exit_1(monkeypatch, capsys):
    # refused before any pair is listed or classified
    def unreachable(ell, m):
        raise AssertionError("classified a pair of a refused rectangle")

    monkeypatch.setattr(unimodality, "classify", unreachable)
    for m in ("5..100000", "1..100000000000000000000"):
        assert run(["scan", "--ell", "5..100000", "--m", m]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: scan rectangle too large: 99996 x ")


def test_scan_bad_range(capsys):
    assert run(["scan", "--ell", "7..3", "--m", "2"]) == 1
    assert run(["scan", "--ell", "x", "--m", "2"]) == 1
    capsys.readouterr()


def test_lr_plain(capsys):
    assert run(["lr", "--outer", "[4,2]", "--left", "[2,1]", "--right", "[2,1]"]) == 0
    assert _lines(capsys) == ["1"]


def test_lr_bad_partition(capsys):
    assert run(["lr", "--outer", "[2,4]", "--left", "[2,1]", "--right", "[2,1]"]) == 1
    capsys.readouterr()


def test_kron_two_row(capsys):
    assert run(["kron", "--lambda", "[2,2]", "--mu", "[2,2]", "--k", "2"]) == 0
    assert _lines(capsys) == ["1"]


def test_kron_oracle_json(capsys):
    code = run(
        [
            "kron",
            "--lambda",
            "[3,1]",
            "--mu",
            "[3,1]",
            "--nu",
            "[3,1]",
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["value"] == "1"
    assert doc["result"]["route"] == "CharacterOracle"


def test_kron_requires_route_choice(capsys):
    # the route follows from the input: --nu alone is the character oracle
    assert run(["kron", "--lambda", "[2,2]", "--mu", "[2,2]", "--nu", "[2,2]"]) == 0
    assert _lines(capsys) == ["1"]
    # neither or both is one usage error
    for extra in ([], ["--k", "1", "--nu", "[2,2]"]):
        assert run(["kron", "--lambda", "[2,2]", "--mu", "[2,2]", *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: pass one of --k (two-row formula) or --nu (character oracle)\n"
        )


def test_kron_two_row_includes_derived_nu(capsys):
    assert run(["kron", "--lambda", "[2,2]", "--mu", "[2,2]", "--k", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["nu"] == "[3,1]"
    assert doc["result"]["k"] == 1
    assert doc["result"]["value"] == "0"
    assert doc["result"]["route"] == "TwoRowFormula"


def test_kron_two_row_bad_k_is_usage_error(capsys):
    assert run(["kron", "--lambda", "[2,2]", "--mu", "[2,2]", "--k", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need 0 <= k <= n/2 = 2.0: got k=3\n"


# (argv, stdout) pairs for every subcommand and format; each runs in an
# empty directory holding GOLDEN_FILES, exits 0 and writes nothing to
# stderr.  The envelopes are pinned byte for byte, params included.
GOLDEN_FILES = {
    "accepted.json": '{"conclusion":{"ell":8,"m":24},"nodes":[["base",8,8],["add",8,0,0,"ell","m1"],["add",8,0,1,"ell","m1"]],"version":3}\n',
    # (5,25) = (5,19) + (5,6): the second leaf is not strict
    "rejected.json": '{"conclusion":{"ell":5,"m":25},"nodes":[["base",5,19],["base",5,6],["add",5,0,1,"m2","ell"]],"version":3}\n',
    # what certify wrote for (8,24) in version 2, whose entries were objects
    "malformed.json": '{"conclusion":{"ell":8,"m":24},"nodes":[{"base":[8,8]},{"add":[8,0,0],"even":"ell","geq3":"m1"},{"add":[8,0,1],"even":"ell","geq3":"m1"}],"version":2}\n',
}
GOLDEN = [
    (["lr", "--outer", "[4,2]", "--left", "[2,1]", "--right", "[2,1]"],
     '1\n'),
    (["lr", "--outer", "[3,2,1]", "--left", "[2,1]", "--right", "[2,1]", "--format", "json"],
     '{"command":"lr","params":{"left":"[2,1]","outer":"[3,2,1]","right":"[2,1]"},"result":{"coefficient":"2","left":"[2,1]","outer":"[3,2,1]","right":"[2,1]"},"version":"0.1.0"}\n'),
    (["lr", "--outer", "[ 5, 3, 2, 0 ]", "--left", "[3,1]", "--right", "[3,2,1]", "--format", "json"],
     '{"command":"lr","params":{"left":"[3,1]","outer":"[ 5, 3, 2, 0 ]","right":"[3,2,1]"},"result":{"coefficient":"2","left":"[3,1]","outer":"[5,3,2]","right":"[3,2,1]"},"version":"0.1.0"}\n'),
    (["lr", "--outer", "[2,2]", "--left", "[2]", "--right", "[1,1]", "--format", "json"],
     '{"command":"lr","params":{"left":"[2]","outer":"[2,2]","right":"[1,1]"},"result":{"coefficient":"0","left":"[2]","outer":"[2,2]","right":"[1,1]"},"version":"0.1.0"}\n'),
    (["kron", "--lambda", "[2,2]", "--mu", "[2,2]", "--k", "2"],
     '1\n'),
    (["kron", "--lambda", "[4,2]", "--mu", "[3,2,1]", "--k", "2", "--format", "json"],
     '{"command":"kron","params":{"k":2,"lambda":"[4,2]","mu":"[3,2,1]","nu":null},"result":{"k":2,"lambda":"[4,2]","mu":"[3,2,1]","nu":"[4,2]","route":"TwoRowFormula","value":"2"},"version":"0.1.0"}\n'),
    (["kron", "--lambda", "[ 3, 3 ]", "--mu", "[2,2,1,1]", "--k", "0", "--format", "json"],
     '{"command":"kron","params":{"k":0,"lambda":"[ 3, 3 ]","mu":"[2,2,1,1]","nu":null},"result":{"k":0,"lambda":"[3,3]","mu":"[2,2,1,1]","nu":"[6]","route":"TwoRowFormula","value":"0"},"version":"0.1.0"}\n'),
    (["kron", "--lambda", "[3,2,1]", "--mu", "[3,2,1]", "--nu", "[3,2,1]"],
     '5\n'),
    (["kron", "--lambda", "[3,2,1]", "--mu", "[3,2,1]", "--nu", "[3,2,1]", "--format", "json"],
     '{"command":"kron","params":{"k":null,"lambda":"[3,2,1]","mu":"[3,2,1]","nu":"[3,2,1]"},"result":{"lambda":"[3,2,1]","mu":"[3,2,1]","nu":"[3,2,1]","route":"CharacterOracle","value":"5"},"version":"0.1.0"}\n'),
    (["kron", "--lambda", "[3,1]", "--mu", "[2,1,1]", "--nu", "[ 2,2 ]", "--format", "json"],
     '{"command":"kron","params":{"k":null,"lambda":"[3,1]","mu":"[2,1,1]","nu":"[ 2,2 ]"},"result":{"lambda":"[3,1]","mu":"[2,1,1]","nu":"[2,2]","route":"CharacterOracle","value":"1"},"version":"0.1.0"}\n'),
    (["expand", "--ell", "2", "--m", "3"],
     '1\n1\n2\n2\n2\n1\n1\n'),
    (["expand", "--ell", "2", "--m", "3", "--format", "csv"],
     '0,1\n1,1\n2,2\n3,2\n4,2\n5,1\n6,1\n'),
    (["expand", "--ell", "2", "--m", "3", "--format", "json"],
     '{"command":"expand","params":{"ell":2,"m":3},"result":{"coeffs":["1","1","2","2","2","1","1"],"ell":2,"m":3},"version":"0.1.0"}\n'),
    (["check", "--ell", "5", "--m", "7"],
     'ell=5 m=7 n=35\nstrict: true\nfirst_violation: none\nplateaus: [17,18]\n'),
    (["check", "--ell", "5", "--m", "7", "--format", "json"],
     '{"command":"check","params":{"ell":5,"m":7},"result":{"ell":5,"first_violation":null,"m":7,"n":35,"plateaus":[[17,18]],"strict":true},"version":"0.1.0"}\n'),
    (["check", "--ell", "6", "--m", "7"],
     'ell=6 m=7 n=42\nstrict: false\nfirst_violation: 21\nplateaus: [20,22]\n'),
    (["check", "--ell", "6", "--m", "7", "--format", "json"],
     '{"command":"check","params":{"ell":6,"m":7},"result":{"ell":6,"first_violation":21,"m":7,"n":42,"plateaus":[[20,22]],"strict":false},"version":"0.1.0"}\n'),
    (["scan", "--ell", "5..6", "--m", "5..7"],
     '5,5,Strict\n5,6,Exception\n5,7,Strict\n6,6,Exception\n6,7,Exception\n'),
    (["scan", "--ell", "5..6", "--m", "5..7", "--format", "json"],
     '{"command":"scan","params":{"ell":"5..6","m":"5..7"},"result":[{"class":"Strict","ell":5,"m":5},{"class":"Exception","ell":5,"m":6},{"class":"Strict","ell":5,"m":7},{"class":"Exception","ell":6,"m":6},{"class":"Exception","ell":6,"m":7}],"version":"0.1.0"}\n'),
    (["certify", "--ell", "8", "--m", "24"],
     GOLDEN_FILES["accepted.json"]),
    (["certify", "--ell", "6", "--m", "6"],
     'REFUSED (exception): (6,6) is one of the nine non-strict pairs\n'),
    (["certify", "--ell", "8", "--m", "24", "--out", "cert.json"],
     'wrote certificate for (8,24) to cert.json\n'),
    (["verify", "--in", "accepted.json"],
     'ACCEPTED: (8,24) is strictly unimodal per certificate\n'),
    (["verify", "--in", "accepted.json", "--format", "json"],
     '{"command":"verify","params":{"in":"accepted.json"},"result":{"accepted":true,"ell":8,"m":24,"path":null,"reason":null},"version":"0.1.0"}\n'),
    (["verify", "--in", "rejected.json"],
     'REJECTED at $.nodes[1]: base pair (5,6) is not strictly unimodal\n'),
    (["verify", "--in", "rejected.json", "--format", "json"],
     '{"command":"verify","params":{"in":"rejected.json"},"result":{"accepted":false,"ell":null,"m":null,"path":"$.nodes[1]","reason":"base pair (5,6) is not strictly unimodal"},"version":"0.1.0"}\n'),
    (["verify", "--in", "malformed.json"],
     'REJECTED: malformed certificate ($.version: expected 3)\n'),
    (["verify", "--in", "malformed.json", "--format", "json"],
     '{"command":"verify","params":{"in":"malformed.json"},"result":{"accepted":false,"path":"$.version","reason":"$.version: expected 3"},"version":"0.1.0"}\n'),
    (["repro", "--claim", "ell34", "--max-n", "5"],
     'claim: ell34\nchecked ell in {3,4}, m=3..5 for non-strictness with a witness plateau\nPASS\n'),
    (["repro", "--claim", "ell2", "--max-n", "4", "--format", "json"],
     '{"command":"repro","params":{"claim":"ell2","max_n":4},"result":{"detail":["checked even/odd coefficient pairing for ell=2, m=1..4"],"pass":true},"version":"0.1.0"}\n'),
]


@pytest.mark.parametrize("argv,expected", GOLDEN)
def test_lr_and_kron_output_is_byte_stable(argv, expected, tmp_path, monkeypatch, capsys):
    # every subcommand is pinned here, not only lr and kron
    monkeypatch.chdir(tmp_path)
    for name, content in GOLDEN_FILES.items():
        (tmp_path / name).write_text(content)
    assert run(argv) == 0
    assert capsys.readouterr() == (expected, "")


def test_repro_lemma12_with_max_n(capsys):
    assert run(["repro", "--claim", "lemma12", "--max-n", "8"]) == 0
    out = _lines(capsys)
    assert out[1] == "checked the difference identity on 20 boxes with ell*m <= 8"
    assert out[-1] == "PASS"


def test_repro_semigroup_json(capsys):
    argv = ["repro", "--claim", "semigroup", "--samples", "20", "--seed", "5", "--max-n", "10"]
    assert run(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == (
        '{"command":"repro","params":{"claim":"semigroup","max_n":10,"samples":20,"seed":5},'
        '"result":{"detail":["sampled 20 pairs of positive triples (seed=5, total size <= 10)"],'
        '"pass":true},"version":"0.1.0"}\n'
    )


def test_repro_json_params_hold_the_signature_defaults(capsys):
    assert run(["repro", "--claim", "ell2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "repro"
    assert doc["params"] == {"claim": "ell2", "max_n": 50}
    assert doc["result"]["pass"] is True
    assert doc["result"]["detail"] == ["checked even/odd coefficient pairing for ell=2, m=1..50"]


@pytest.mark.parametrize(
    "argv",
    [
        ["props", "--suite", "lemma12"],
        ["repro", "--claim", "exceptions", "--seed", "3"],
        ["repro", "--claim", "routes", "--samples", "5"],
        ["repro", "--claim", "routes", "--max-n", "0"],
        ["repro", "--claim", "lemma12", "--max-n", "-3"],
        ["repro", "--claim", "semigroup", "--samples", "0"],
        ["repro", "--claim", "lemma12", "--max-n", "19"],
    ],
    ids=[
        "props-is-gone",
        "exceptions-takes-no-seed",
        "routes-takes-no-samples",
        "routes-max-n-zero",
        "lemma12-max-n-negative",
        "semigroup-no-samples",
        "lemma12-over-oracle-bound",
    ],
)
def test_repro_usage_errors(argv, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_repro_routes_refuses_max_n_above_the_oracle_bound_at_once(monkeypatch, capsys):
    from qunimodal import repro

    # the guard comes before the sweep: not one pair is compared
    monkeypatch.setattr(repro, "partitions_of", lambda n: pytest.fail("swept before refusing"))
    assert run(["repro", "--claim", "routes", "--max-n", "19"]) == 1
    assert capsys.readouterr().err == (
        f"error: character oracle limited to n <= {DEFAULT_ORACLE_BOUND}: got max_n=19\n"
    )


def test_repro_lemma12_refuses_max_n_above_the_oracle_bound_at_once(monkeypatch, capsys):
    from qunimodal import repro

    # the guard comes before the sweep: not one box is expanded
    monkeypatch.setattr(repro, "gaussian", lambda ell, m: pytest.fail("swept before refusing"))
    assert run(["repro", "--claim", "lemma12", "--max-n", "19"]) == 1
    assert capsys.readouterr().err == (
        f"error: character oracle limited to n <= {DEFAULT_ORACLE_BOUND}: got max_n=19\n"
    )


@pytest.mark.parametrize("max_n", ["1", "19"])
def test_repro_semigroup_reports_max_n_out_of_range(max_n, capsys):
    # the same rule and messages as every other sized claim
    argv = ["repro", "--claim", "semigroup", "--samples", "5", "--max-n", max_n]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: " + {
        "1": "semigroup claim needs n >= 2, or it checks nothing: got max_n=1",
        "19": f"semigroup claim limited to n <= {DEFAULT_ORACLE_BOUND}: got max_n=19",
    }[max_n] + "\n"


@pytest.mark.parametrize(
    "claim,flag,layer,expected",
    [
        ("ell2", "--max-n", "repro.gaussian", "ell2 claim limited to n <= 1000: got max_n="),
        ("ell34", "--max-n", "repro.check_strict", "ell34 claim limited to n <= 400: got max_n="),
        ("certify-sweep", "--max-n", "repro.check_strict",
         "certify-sweep claim limited to n <= 60: got max_n="),
        ("semigroup", "--samples", "kronecker._g", "need 0 <= samples <= 10000: got "),
    ],
)
def test_repro_oversize_claim_is_one_line_and_exit_1(
    claim, flag, layer, expected, monkeypatch, capsys
):
    # refused before any work: the claim's first computation is never reached
    monkeypatch.setattr(f"qunimodal.{layer}", lambda *args: pytest.fail("worked before refusing"))
    assert run(["repro", "--claim", claim, flag, "100000000000000"]) == 1
    assert capsys.readouterr() == ("", f"error: {expected}100000000000000\n")


@pytest.mark.parametrize(
    "claim,max_n,least",
    [("ell34", "1", 3), ("ell34", "2", 3), ("certify-sweep", "1", 5), ("certify-sweep", "4", 5),
     ("ell2", "1", 3), ("ell2", "2", 3)],
)
@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_repro_claim_below_its_floor_is_one_line_and_exit_1(
    claim, max_n, least, fmt, monkeypatch, capsys
):
    # below its floor the sweep would check no box and still print PASS
    # (ell2 below m = 3 checks only p_0 = p_1, which every box has); it is
    # refused before any work instead
    for layer in ("check_strict", "gaussian"):
        monkeypatch.setattr(
            f"qunimodal.repro.{layer}", lambda *args: pytest.fail("worked before refusing")
        )
    assert run(["repro", "--claim", claim, "--max-n", max_n, "--format", fmt]) == 1
    assert capsys.readouterr() == (
        "", f"error: {claim} claim needs n >= {least}, or it checks nothing: got max_n={max_n}\n"
    )


@pytest.mark.parametrize(
    "claim,least,detail",
    [("ell34", "3", "checked ell in {3,4}, m=3..3 for non-strictness with a witness plateau"),
     ("certify-sweep", "5",
      "built and verified 1 certificates, confirmed 0 refusals, 5 <= ell <= m <= 5"),
     ("ell2", "3", "checked even/odd coefficient pairing for ell=2, m=1..3")],
    ids=["ell34", "certify-sweep", "ell2"],
)
def test_repro_floors_admit_the_first_box(claim, least, detail, capsys):
    assert run(["repro", "--claim", claim, "--max-n", least]) == 0
    assert capsys.readouterr().out == f"claim: {claim}\n{detail}\nPASS\n"


def test_repro_bounds_admit_the_defaults_and_refuse_one_above(monkeypatch, capsys):
    from qunimodal import repro

    for name, bound in [
        ("repro_ell2", repro.ELL2_MAX_N),
        ("repro_ell34", repro.ELL34_MAX_N),
        ("repro_certify_sweep", repro.CERTIFY_SWEEP_MAX_N),
    ]:
        assert inspect.signature(getattr(repro, name)).parameters["max_n"].default <= bound
    monkeypatch.setattr(repro, "ELL2_MAX_N", 3)
    assert run(["repro", "--claim", "ell2", "--max-n", "3"]) == 0
    assert capsys.readouterr().out.endswith("PASS\n")
    assert run(["repro", "--claim", "ell2", "--max-n", "4"]) == 1
    assert capsys.readouterr().err == "error: ell2 claim limited to n <= 3: got max_n=4\n"


def test_repro_refused_flag_names_the_accepted_ones(capsys):
    assert run(["repro", "--claim", "routes", "--seed", "1"]) == 1
    assert capsys.readouterr().err == "error: --claim routes does not take --seed; it takes --max-n\n"


def test_repro_exceptions_fails_on_a_wrong_list(monkeypatch):
    from qunimodal import repro

    monkeypatch.setattr(repro, "EXCEPTION_PAIRS", repro.EXCEPTION_PAIRS - {(6, 6)})
    ok, lines = repro.repro_exceptions()
    assert ok is False
    # the expected pairs start in the column of the found ones
    assert lines[2] == "expected:         " + " ".join(
        f"({a},{b})" for a, b in sorted(repro.EXCEPTION_PAIRS)
    )
    assert lines[2].index("(") == lines[1].index("(")


def test_repro_exceptions_checks_classify_against_direct_checks(monkeypatch):
    from qunimodal import repro

    monkeypatch.setattr(repro, "classify", lambda ell, m: repro.PairClass.Strict)
    ok, lines = repro.repro_exceptions()
    assert ok is False
    assert lines[1] == "exceptions found: (5,6) (5,10) (5,14) (6,6) (6,7) (6,9) (6,11) (6,13) (7,10)"
    assert lines[2] == "classify disagrees with the direct check on: " + lines[1][18:]


def test_repro_leaves_fails_on_a_perturbed_coefficient_or_a_dropped_pair(monkeypatch, capsys):
    # each fault gives a FAIL line and exit 0, never a traceback
    from qunimodal import repro

    pascal = repro._pascal_table

    def perturbed(rows, cols):
        table = pascal(rows, cols)
        table[8][8][31] = table[8][8][32]  # a stall at the centre of (8, 8)
        return table

    monkeypatch.setattr(repro, "_pascal_table", perturbed)
    assert run(["repro", "--claim", "leaves"]) == 0
    out = _lines(capsys)
    assert out[2].endswith("(7,10) (8,8)")
    assert out[-2:] == ["the leaf check disagrees on: (8,8)", "FAIL"]

    monkeypatch.setattr(repro, "_pascal_table", pascal)
    candidates = repro._registry_candidates
    monkeypatch.setattr(repro, "_registry_candidates", lambda: candidates() - {(6, 6)})
    assert run(["repro", "--claim", "leaves"]) == 0
    out = _lines(capsys)
    assert out[1] == "expanded 82 registry candidates by the q-Pascal recurrence"
    assert out[-2:] == [
        "expected:   (5,6) (5,10) (5,14) (6,6) (6,7) (6,9) (6,11) (6,13) (7,10)",
        "FAIL",
    ]


def test_repro_theorem_passes_and_names_each_gap_of_a_thinned_registry(monkeypatch, capsys):
    # each dropped pair gives FAIL lines that name the gap and exit 0,
    # never a traceback
    from qunimodal import repro

    assert run(["repro", "--claim", "theorem"]) == 0
    assert _lines(capsys)[-1] == "PASS"
    registry = repro.default_registry()
    for dropped, gaps in (
        ({(5, 22), (22, 5)}, ["no chain start for (5, m = 6 mod 8)"]),
        (
            {(9, 8), (8, 9)},
            [
                "(9,8) is not registered",
                "no chain start for (8, m = 1 mod 8)",
                "no chain start for (9, m = 0 mod 8)",
            ],
        ),
    ):
        monkeypatch.setattr(repro, "default_registry", lambda d=dropped: registry - d)
        assert run(["repro", "--claim", "theorem"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        out = captured.out.splitlines()
        assert out[-1] == "FAIL"
        assert out[-2] == "expected:                " + repro._pairs(sorted(repro.EXCEPTION_PAIRS))
        assert out[-2 - len(gaps):-2] == gaps
        assert "unregistered candidates: " in out[2]
        assert all(f"({min(p)},{max(p)})" in out[2] for p in dropped)


def _failing_everywhere():
    # (claim, options, name in repro to stub, stub, head lines, first
    # failure line, number of failures): each stub makes every check of
    # its claim fail
    from qunimodal import repro
    from qunimodal.partitions import Partition, partitions_of

    routes = sum(
        len(partitions_of(n)) * (len(partitions_of(n)) + 1) // 2 * (n // 2 + 1)
        for n in range(1, 11)
    )
    violation = ((Partition((1,)),) * 3, (Partition((1,)),) * 3, 1, 1, 0)
    return [
        (
            "ell2",
            {"max_n": 1000},
            "gaussian",
            lambda ell, m: SimpleNamespace(coefficient=lambda k: k),
            ["checked even/odd coefficient pairing for ell=2, m=1..1000"],
            "m=1 i=0",
            sum((m + 1) // 2 for m in range(1, 1001)),
        ),
        (
            "ell34",
            {"max_n": 400},
            "check_strict",
            lambda ell, m: unimodality.check_strict(5, 5),
            ["checked ell in {3,4}, m=3..400 for non-strictness with a witness plateau"],
            "(3,3): strict=True plateaus=((12, 13),)",
            2 * 398,
        ),
        (
            "lemma12",
            {"max_n": 16},
            "g_oracle",
            lambda *shapes: -1,
            ["checked the difference identity on 50 boxes with ell*m <= 16"],
            "(1,1) failed at k=0",
            50,
        ),
        (
            "routes",
            {"max_n": 10},
            "g_oracle",
            lambda *shapes: -1,
            ["compared the two routes on all partition pairs up to n=10"],
            "g([1],[1],k=0): two-row 1 != oracle -1",
            routes,
        ),
        (
            "semigroup",
            {"samples": 30, "seed": 0, "max_n": 18},
            "semigroup_check",
            lambda samples, seed, max_total_size: [violation] * samples,
            ["sampled 30 pairs of positive triples (seed=0, total size <= 18)"],
            f"violation: {violation[0]} + {violation[1]}: g=1,1 sum gives 0",
            30,
        ),
        (
            "certify-sweep",
            {"max_n": 40},
            "check_strict",
            lambda ell, m: unimodality.check_strict(6, 6),
            [
                "built and verified 657 certificates, confirmed 9 refusals, "
                "5 <= ell <= m <= 40"
            ],
            "(5,5): certificate exists but direct check is not strict",
            657,
        ),
        (
            "theorem",
            {},
            "default_registry",
            lambda: frozenset(),
            [
                "checked the steps (ell,8) and the chain starts of ell = 5..15, residues 0..7 mod 8",
                "unregistered candidates: " + repro._pairs(sorted(repro._registry_candidates())),
            ],
            "(5,8) is not registered",
            # 11 steps (ell,8), 88 chain starts, and the expected: line
            11 + 88 + 1,
        ),
    ]


_FAILING_EVERYWHERE = _failing_everywhere()


@pytest.mark.parametrize(
    "claim,options,name,stub,head,first,failures",
    _FAILING_EVERYWHERE,
    ids=[case[0] for case in _FAILING_EVERYWHERE],
)
def test_repro_fail_detail_is_capped_at_20_lines(
    claim, options, name, stub, head, first, failures, monkeypatch, capsys
):
    # a claim that fails everywhere keeps its head lines, shows its first
    # 20 failures and counts the rest in one line; the CLI prints them
    # and FAIL with exit 0, nothing on stderr
    from qunimodal import repro

    monkeypatch.setattr(repro, name, stub)
    ok, lines = repro.CLAIMS[claim](**options)
    assert ok is False
    assert lines[: len(head)] == head
    assert lines[len(head)] == first
    assert len(lines) == len(head) + 20 + 1
    assert lines[-1] == f"and {failures - 20} more"
    argv = ["repro", "--claim", claim]
    for option, value in options.items():
        argv += ["--" + option.replace("_", "-"), str(value)]
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [f"claim: {claim}", *lines, "FAIL"]
    if claim == "ell2":
        # a broken expansion once printed all 250,500 failures, 3.15 MB
        assert len(captured.out) < 2048


def test_scan_answers_a_pair_that_certify_refuses(capsys):
    # the certificate would need over MAX_NODES entries: certify refuses
    # the pair with exit 1, while scan answers it from the recipe
    m = str(2**5000 - 3)
    assert run(["scan", "--ell", "5", "--m", m]) == 0
    assert capsys.readouterr().out == f"5,{m},Strict\n"
    assert run(["certify", "--ell", "5", "--m", m]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "MAX_NODES" in captured.err


def test_certify_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert run(["certify", "--ell", "8", "--m", "24", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["verify", "--in", str(out)]) == 0
    assert _lines(capsys) == ["ACCEPTED: (8,24) is strictly unimodal per certificate"]


def test_certify_stdout_is_parseable(capsys):
    assert run(["certify", "--ell", "5", "--m", "25"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["conclusion"] == {"ell": 5, "m": 25}


def test_certify_refusal_is_exit_zero(capsys):
    assert run(["certify", "--ell", "6", "--m", "6"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("REFUSED (exception)")


def test_verify_rejects_tampered_file(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert run(["certify", "--ell", "5", "--m", "25", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    # (5,25) = (5,17) + (5,8): the tampered table still sums to 25, and
    # its second leaf (5,6) is not strict
    assert doc["nodes"][:2] == [["base", 5, 17], ["base", 5, 8]]
    doc["nodes"][0] = ["base", 5, 19]
    doc["nodes"][1] = ["base", 5, 6]
    out.write_text(json.dumps(doc))
    assert run(["verify", "--in", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("REJECTED at $.nodes[1]: base pair (5,6)")


def test_long_thin_certificate_verifies(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert run(["certify", "--ell", "8", "--m", "30000", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["verify", "--in", str(out)]) == 0
    assert _lines(capsys) == ["ACCEPTED: (8,30000) is strictly unimodal per certificate"]


@pytest.mark.parametrize(
    "content",
    [
        b"[" * 100_000,
        b"\xff\xfe not utf-8",
        b'{"version":3,"conclusion":{"ell":8,"m":8},"nodes":[["base",8,8]]}\xff',
    ],
    ids=["deeply-nested", "undecodable", "undecodable-tail"],
)
def test_verify_hostile_bytes_are_rejected(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert run(["verify", "--in", str(bad)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("REJECTED: malformed certificate ($: not valid JSON")
    assert captured.err == ""


def test_verify_rejects_table_over_max_nodes(tmp_path, capsys):
    from qunimodal.certify import MAX_NODES

    nodes = [["base", 8, 8]]
    nodes += [["add", 8, i, i, "ell", "ell"] for i in range(MAX_NODES)]
    doc = {"version": 3, "conclusion": {"ell": 8, "m": 8 << MAX_NODES}, "nodes": nodes}
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", "--in", str(bad), "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["accepted"] is False
    assert result["path"] == "$.nodes"


def test_verify_rejects_input_over_max_bytes(tmp_path, capsys):
    # read no further than one byte past the bound; both formats give the
    # same reason and path
    from qunimodal.certify import MAX_BYTES

    big = tmp_path / "big.json"
    big.write_bytes(b" " * (MAX_BYTES + 1))
    reason = f"$: over MAX_BYTES = {MAX_BYTES} bytes"
    assert run(["verify", "--in", str(big)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"REJECTED: malformed certificate ({reason})\n"
    assert captured.err == ""
    assert run(["verify", "--in", str(big), "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["result"] == {"accepted": False, "reason": reason, "path": "$"}
    assert captured.err == ""


def test_certify_too_large_pair_is_usage_error(capsys):
    from qunimodal.certify import MAX_NODES

    m = 12 + 8 * (2 ** (MAX_NODES // 2) - 1)
    assert run(["certify", "--ell", "8", "--m", str(m)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "MAX_NODES" in captured.err
    assert captured.out == ""


def test_verify_malformed_json_is_exit_zero(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run(["verify", "--in", str(bad)]) == 0
    assert capsys.readouterr().out.startswith("REJECTED")


def test_verify_missing_file_is_usage_error(tmp_path, capsys):
    assert run(["verify", "--in", str(tmp_path / "absent.json")]) == 1
    capsys.readouterr()


def test_certify_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "f.json"
    assert run(["certify", "--ell", "5", "--m", "25", "--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {target}")
    assert "Traceback" not in captured.err
    assert not target.exists()


def test_runtime_error_is_exit_two(monkeypatch, capsys):
    def broken_classify(ell, m):
        raise RuntimeError("classifier broke")

    monkeypatch.setattr("qunimodal.unimodality.classify", broken_classify)
    assert run(["scan", "--ell", "5", "--m", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "internal error: classifier broke\n"
    assert captured.out == ""


def test_registry_contradiction_is_exit_two(monkeypatch, capsys, fresh_registry):
    cert_module = importlib.import_module("qunimodal.certify")
    monkeypatch.setattr(cert_module, "EXCEPTION_PAIRS", cert_module.EXCEPTION_PAIRS - {(6, 6)})
    assert run(["scan", "--ell", "6", "--m", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_removed_options_are_usage_errors(capsys):
    for argv in (
        ["scan", "--ell", "5..6", "--m", "5..7", "--threads", "2"],
        ["certify", "--ell", "9", "--m", "41", "--no-cache"],
        ["kron", "--lambda", "[3,1]", "--mu", "[3,1]", "--nu", "[3,1]", "--oracle"],
        ["lr", "--outer", "[4,2]", "--left", "[2,1]", "--right", "[2,1]", "--size-bound", "70"],
    ):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""


def test_repro_exceptions(capsys):
    assert run(["repro", "--claim", "exceptions"]) == 0
    out = _lines(capsys)
    assert out[0] == "claim: exceptions"
    assert out[-1] == "PASS"


def test_repro_ell2(capsys):
    assert run(["repro", "--claim", "ell2"]) == 0
    assert _lines(capsys)[-1] == "PASS"


def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "expand" in capsys.readouterr().out


def test_help_states_the_exit_codes_and_no_implementation_notes(capsys):
    assert run(["--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    for code in ("0 a computed answer", "1 a usage error", "2 an internal failure"):
        assert code in out
    assert "``" not in out
    assert "(params, result, text)" not in out


def _readme_cli_lines() -> list[list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"\n## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    argvs = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in argvs if argv and argv[0] == "qunimodal"]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argvs = _readme_cli_lines()
    assert ["verify", "--in", "cert.json"] in argvs
    for argv in argvs:
        assert run(argv) == 0, argv
        out = capsys.readouterr().out
        if argv[0] == "verify":
            assert out.startswith("ACCEPTED"), out


def test_readme_certificate_example_is_what_certify_writes():
    # the README's (8, 24) document, spaced for reading, is the table that
    # certify builds and the text it writes once the spaces go
    from qunimodal.certify import certify, parse_certificate, serialize_certificate

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"\n## Certificates\n.*?```json\n(.*?)```", readme, re.S).group(1)
    assert parse_certificate(block) == certify(8, 24)
    assert "".join(block.split()) == serialize_certificate(certify(8, 24))

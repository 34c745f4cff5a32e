"""Property test: the CLI answers every mutated certificate with one line.

The mutated documents of ``test_certify_mutations`` go through
``cli.run(["verify", "--in", path])`` from files in a temporary
directory.  Whatever the document, the command must exit 0 and print
exactly one line on stdout and nothing on stderr.
"""

import contextlib
import io
import os
import tempfile

import pytest

from qunimodal.cli import run

from test_certify_mutations import mutated

hypothesis = pytest.importorskip("hypothesis")


@hypothesis.settings(max_examples=400, derandomize=True, deadline=None, database=None)
@hypothesis.given(mutated())
def test_cli_verify_answers_every_mutation_in_one_line(text):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory(prefix="qunimodal-verify-") as tmp:
        path = os.path.join(tmp, "cert.json")
        with open(path, "w") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["verify", "--in", path])
    assert code == 0
    assert err.getvalue() == ""
    lines = out.getvalue().splitlines()
    assert len(lines) == 1 and out.getvalue().endswith("\n")
    assert lines[0].startswith(("ACCEPTED", "REJECTED"))

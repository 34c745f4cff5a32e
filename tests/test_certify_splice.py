"""Property test: a certificate built by hand holds the table that a walk
of its objects gives.

``Certificate`` splices its children's tables when it is made.  The
reference is the object walk that read such a certificate on every use
before it held its table: depth-first from the root, left before right,
equal entries merged.
"""

import hypothesis
import pytest

from qunimodal import Certificate, CertificateFormatError
from test_certify import _hand_built, _made, _ref_wire
from test_certify_mutations import _reference_table


@hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
@hypothesis.given(_hand_built())
def test_hand_built_tables_match_the_object_walk(drawn):
    args, broken, sides = drawn
    if broken:
        # refused at the entry it would take: the first for a broken leaf,
        # the one after its children's for an add step naming an outsider
        with pytest.raises(CertificateFormatError) as err:
            Certificate(*args)
        root = object.__new__(Certificate)
        sides[id(root)] = args[2:]
        with pytest.raises(CertificateFormatError) as walked:
            _reference_table(root, sides)
        assert (err.value.path, err.value.message) == (walked.value.path, "not a certificate")
        return
    cert = _made(sides, *args)
    assert [_ref_wire(entry) for entry in cert.entries] == _reference_table(cert, sides)

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
        # the drawn broken nodes are never add steps: their entry would be the first
        with pytest.raises(CertificateFormatError) as err:
            Certificate(*args)
        assert (err.value.path, err.value.message) == ("$.nodes[0]", "not a certificate")
        return
    cert = _made(sides, *args)
    assert [_ref_wire(entry) for entry in cert.entries] == _reference_table(cert, sides)

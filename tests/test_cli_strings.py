"""Property test: the CLI decides every partition and range string.

``lr --outer/--left/--right``, ``kron --lambda/--mu/--nu`` and
``scan --ell/--m`` get arbitrary text.  Each run must end in exit 0
printing what the library computes for the parsed arguments, or in
exit 1 with a single ``error:`` line on stderr; never in exit 2 or an
uncaught exception.
"""

import contextlib
import io
import re

import hypothesis

from qunimodal import format_partition, g_oracle, lr, parse_partition, partitions_of, scan
from qunimodal.cli import run

st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=150, derandomize=True, deadline=None, database=None)

_PAD = st.sampled_from(["", " ", "\t", "\n"])

# Any text over the characters the two syntaxes use, their near misses,
# non-ASCII digits and blanks, a NUL and a lone surrogate.  A fixed
# alphabet spares Hypothesis building its Unicode tables in every run.
ANY_TEXT = st.text(
    "[](),;.-+_ 0123456789xe\t\n\u00a0\u0663\u00b2\u00e9\x00\ud800", max_size=12
)

# Bracketed lists that break the partition rules as often as not: zero,
# negative or increasing parts, doubled or wrong separators.
BRACKETED = st.builds(
    lambda pad, parts, sep: pad + "[" + sep.join(map(str, parts)) + "]" + pad,
    _PAD,
    st.lists(st.integers(-1, 4), max_size=4),
    st.sampled_from([",", ", ", " ,", ",,", ";"]),
)


@st.composite
def partition_texts(draw, sizes):
    """One string per size: any text, a bracketed list, or, two times in
    three, a partition of that size with stray blanks around it."""
    texts = []
    for size in sizes:
        kind = draw(st.integers(0, 5))
        if kind == 0:
            texts.append(draw(ANY_TEXT))
        elif kind == 1:
            texts.append(draw(BRACKETED))
        else:
            shape = draw(st.sampled_from(partitions_of(size)))
            texts.append(draw(_PAD) + format_partition(shape) + draw(_PAD))
    return texts


@st.composite
def lr_texts(draw):
    n = draw(st.integers(0, 8))
    k = draw(st.integers(0, n))
    return draw(partition_texts((n, k, n - k)))


@st.composite
def kron_texts(draw):
    n = draw(st.integers(0, 7))
    return draw(partition_texts((n, n, n)))


# Any text, a bare integer, two integers joined by a separator that may
# be wrong, or a well-formed range that may run backwards.
RANGE_TEXT = st.one_of(
    ANY_TEXT,
    st.integers(-1, 7).map(str),
    st.builds(
        lambda pad, a, sep, b: f"{pad}{a}{sep}{b}{pad}",
        _PAD,
        st.integers(0, 7),
        st.sampled_from([".", "...", "-", ".. "]),
        st.integers(0, 7),
    ),
    st.builds(lambda a, b: f"{a}..{b}", st.integers(1, 5), st.integers(1, 5)),
)


def _small(*texts):
    """Skip inputs naming a number above 9, so every run stays cheap."""
    hypothesis.assume(all(int(d) <= 9 for t in texts for d in re.findall(r"\d+", t)))


def _expected(compute):
    """The library's answer, or None where it refuses the input."""
    try:
        return compute()
    except ValueError:
        return None


def _check(argv, expected_out):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    if expected_out is None:
        assert code == 1
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert code == 0
        assert out.getvalue() == expected_out
        assert err.getvalue() == ""


def _span(text):
    """'A' or 'A..B' with 1 <= A <= B, as an inclusive range."""
    match = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text.strip())
    if not match:
        raise ValueError(text)
    a = int(match.group(1))
    b = int(match.group(2)) if match.group(2) else a
    if a < 1 or b < a:
        raise ValueError(text)
    return range(a, b + 1)


@SETTINGS
@hypothesis.given(lr_texts())
def test_lr_decides_every_partition_string(texts):
    outer, left, right = texts
    _small(outer, left, right)
    value = _expected(
        lambda: lr(parse_partition(outer), parse_partition(left), parse_partition(right))
    )
    _check(
        ["lr", f"--outer={outer}", f"--left={left}", f"--right={right}"],
        None if value is None else f"{value}\n",
    )


@SETTINGS
@hypothesis.given(kron_texts())
def test_kron_oracle_decides_every_partition_string(texts):
    lam, mu, nu = texts
    _small(lam, mu, nu)
    value = _expected(
        lambda: g_oracle(parse_partition(lam), parse_partition(mu), parse_partition(nu))
    )
    _check(
        ["kron", f"--lambda={lam}", f"--mu={mu}", f"--nu={nu}"],
        None if value is None else f"{value}\n",
    )


@SETTINGS
@hypothesis.given(RANGE_TEXT, RANGE_TEXT)
def test_scan_decides_every_range_string(ell, m):
    _small(ell, m)
    rows = _expected(lambda: scan(_span(ell), _span(m)))
    _check(
        ["scan", f"--ell={ell}", f"--m={m}"],
        None if rows is None else "".join(f"{l},{mm},{c.value}\n" for l, mm, c in rows),
    )

import atexit
import shutil
import tempfile

import hypothesis
import pytest

from qunimodal import default_registry
from qunimodal.certify import _leaf_strict
from qunimodal.kronecker import _sampled

# Hypothesis caches constants it mines from source files, from test
# collection on; keep them in a temporary directory, not the checkout,
# whichever test files run.
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="qunimodal-hypothesis-")
atexit.register(shutil.rmtree, _HYPOTHESIS_HOME, True)
hypothesis.configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME)


@pytest.fixture
def fresh_registry():
    """Empty the registry cache before and after the test: the test builds
    its own, and a registry built under a patched ``EXCEPTION_PAIRS`` must
    not outlive it."""
    default_registry.cache_clear()
    yield
    default_registry.cache_clear()


@pytest.fixture
def fresh_verdicts():
    """Empty the leaf-verdict memo before and after the test: the test
    counts the leaves that are checked directly, which a verdict kept
    from an earlier test would hide."""
    _leaf_strict.cache_clear()
    yield
    _leaf_strict.cache_clear()


@pytest.fixture
def fresh_samples():
    """Empty the sampler's memo before and after the test: a test that
    patches ``kronecker._g`` must see every call the sampler makes, not a
    value kept from an earlier test, and no value its stub returns may
    outlive it."""
    _sampled.cache_clear()
    yield
    _sampled.cache_clear()

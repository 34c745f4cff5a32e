import pytest

from qunimodal import default_registry


@pytest.fixture
def fresh_registry():
    """Empty the registry cache before and after the test: the test builds
    its own, and a registry built under a patched ``EXCEPTION_PAIRS`` must
    not outlive it."""
    default_registry.cache_clear()
    yield
    default_registry.cache_clear()

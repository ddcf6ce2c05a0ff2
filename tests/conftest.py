"""Import covspec before any test module loads numpy, so the tests in this
process run OpenBLAS on one thread, as the covspec command does."""

import covspec  # noqa: F401
import pytest
from covspec import workers


@pytest.fixture
def one_worker(monkeypatch):
    """The main stage on one CPU: every date runs in this process, so the
    test sees each call through a function patched into the runner."""
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)

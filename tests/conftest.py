"""Import covspec before any test module loads numpy, so the tests in this
process run OpenBLAS on one thread, as the covspec command does."""

import covspec  # noqa: F401

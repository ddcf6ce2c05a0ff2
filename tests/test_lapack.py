"""covspec._lapack, the ctypes binding of the four LAPACK routines of the
tridiagonal eigensolve, against SciPy's wrappers of the same routines: the
same INFO and the same bits. ``scripts/lapack_soak.py`` runs the same
comparison over random matrices; here it runs on fixed sizes and on the
cases a binding gets wrong first."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from covspec import _lapack

SOAK = Path(__file__).resolve().parents[1] / "scripts" / "lapack_soak.py"
_spec = importlib.util.spec_from_file_location("lapack_soak", SOAK)
soak = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(soak)
# the first routine whose INFO or bits differ from SciPy's, or None
compare = soak.compare


@pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 80, 150])
def test_binding_matches_scipy(n):
    rng = np.random.default_rng(n)
    # full rank, rank-deficient (N > L) and zero
    for length in (n + 3, max(n // 3, 1), 0):
        w = rng.standard_normal((n, length))
        sym = w @ w.T
        for k in sorted({0, 1, min(5, n), n}):
            assert compare(sym, k) is None, (length, k)


def test_dstemr_keeps_no_state_between_calls():
    # dstemr clears its in-and-out TRYRAC for a matrix that does not warrant
    # high relative accuracy (a Gaussian one); for a matrix with a triple
    # eigenvalue, the vectors then come out as another basis of its
    # eigenspace than SciPy's, which asks for high accuracy at every call
    gaussian = np.random.default_rng(0).standard_normal((5, 5))
    gaussian = gaussian + gaussian.T
    q = np.linalg.qr(np.random.default_rng(2).standard_normal((4, 4)))[0]
    clustered = (q * np.array([1.0, 1.0, 1.0, 2.0])) @ q.T
    clustered = clustered + clustered.T
    assert compare(gaussian, 2) is None
    assert compare(clustered, 4) is None


def test_arrays_must_be_in_fortran_order():
    with pytest.raises(TypeError):
        _lapack.dsytrd(np.arange(9.0).reshape(3, 3))
    with pytest.raises(TypeError, match="float64"):
        _lapack.dsytrd(np.eye(3, dtype=np.float32, order="F"))
    c = np.eye(4, order="F")
    d, e, tau, _ = _lapack.dsytrd(c)
    with pytest.raises(TypeError, match="unit row stride"):
        _lapack.dormqr(c[1:, :-1], tau[:-1], np.ones((3, 2)))


def test_missing_routine_raises_import_error_naming_numpys_lapack():
    with pytest.raises(ImportError, match="scipy_dnosuch_64_") as err:
        _lapack._bind(("dnosuch", 1, 0))
    assert _lapack._lapack_name() in str(err.value)
    assert _lapack._lapack_name() != "unknown"

"""covspec._lapack, the ctypes binding of the five LAPACK routines of the
tridiagonal eigensolve and its Sturm counts: the first four against SciPy's
wrappers of the same routines, the same INFO and the same bits, and the
counts of dlaebz (``spectral.eigenvalue_counts``) against the number of
dsterf values at or below each point. ``scripts/lapack_soak.py`` runs the
same comparisons over random matrices; here they run on fixed sizes and on
the cases a binding gets wrong first."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from covspec import _lapack
from covspec.spectral import eigenvalue_counts
from testutil import correlation_from_iid

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


def dsterf_values(sym):
    """The ascending dsterf values of ``sym``'s tridiagonal form."""
    d, e, _, info = _lapack.dsytrd(sym.T.copy(order="F"))
    assert info == 0
    assert _lapack.dsterf(d, e) == 0
    return d


def sturm_cases():
    rng = np.random.default_rng(11)
    q = np.linalg.qr(rng.standard_normal((9, 9)))[0]
    clustered = (q * np.array([1.0, 1.0, 1.0 + 1e-12, 1.0, 2.0, 2.0, 0.0, 0.0, 3.0])) @ q.T
    return {
        "N=1": np.array([[2.5]]),
        "N=2": np.array([[1.0, 0.3], [0.3, -2.0]]),
        "zero": np.zeros((6, 6)),
        # N = 30 > L = 7: 23 eigenvalues at rounding noise about 0
        "rank-deficient correlation": correlation_from_iid(30, 7, seed=11).matrices[0],
        "clustered": clustered + clustered.T,
    }


@pytest.mark.parametrize("case", sorted(sturm_cases()))
def test_sturm_counts_equal_the_dsterf_values_at_or_below_each_point(case):
    """At random points over the Gerschgorin interval (none within rounding
    of an eigenvalue), at every eigenvalue the rounding leaves exact (the
    zero matrix's 0), and at points outside the interval on either side."""
    sym = sturm_cases()[case]
    values = dsterf_values(sym)
    d, e, _, _ = _lapack.dsytrd(sym.T.copy(order="F"))
    points = soak.sturm_points(np.random.default_rng(3), d, e, values)
    scale = max(1.0, float(np.abs(values).max()))
    outside = np.array([-1e300, -10.0 * scale - 1.0, 10.0 * scale + 1.0, 1e300])
    exact = values[values == 0.0] if case == "zero" else []
    points = np.concatenate((points, outside, exact))
    assert np.array_equal(eigenvalue_counts(sym, points),
                          np.searchsorted(values, points, side="right"))
    assert eigenvalue_counts(sym, outside).tolist() == [0, 0, len(sym), len(sym)]


def test_sturm_counts_of_one_point_and_of_an_odd_number():
    """The points are the ends of ceil(P/2) intervals; an odd P repeats the
    last one."""
    sym = np.diag([1.0, 2.0, 3.0])
    assert eigenvalue_counts(sym, [2.5]).tolist() == [2]
    assert eigenvalue_counts(sym, [0.5, 1.5, 2.5, 3.5, 0.0]).tolist() == [0, 1, 2, 3, 0]


def test_arrays_must_be_in_fortran_order():
    with pytest.raises(TypeError):
        _lapack.dsytrd(np.arange(9.0).reshape(3, 3))
    with pytest.raises(TypeError, match="float64"):
        _lapack.dsytrd(np.eye(3, dtype=np.float32, order="F"))
    c = np.eye(4, order="F")
    d, e, tau, _ = _lapack.dsytrd(c)
    with pytest.raises(TypeError, match="unit row stride"):
        _lapack.dormqr(c[1:, :-1], tau[:-1], np.ones((3, 2)))


def test_dlaebz_arguments_of_mismatched_shapes_raise():
    d, e2 = np.ones(4), np.zeros(4)
    with pytest.raises(ValueError, match="mismatched shapes"):
        _lapack.dlaebz(d, e2[:3], 1e-300, np.zeros(2))
    with pytest.raises(ValueError, match="mismatched shapes"):
        _lapack.dlaebz(d, e2, 1e-300, np.zeros(0))
    with pytest.raises(TypeError, match="float64"):
        _lapack.dlaebz(d.astype(np.float32), e2, 1e-300, np.zeros(2))


def test_missing_routine_raises_import_error_naming_numpys_lapack():
    with pytest.raises(ImportError, match="scipy_dnosuch_64_") as err:
        _lapack._bind(("dnosuch", 1, 0))
    assert _lapack._lapack_name() in str(err.value)
    assert _lapack._lapack_name() != "unknown"

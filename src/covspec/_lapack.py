"""The five LAPACK routines of the tridiagonal eigensolve and its Sturm counts,
bound through ctypes from the OpenBLAS that numpy's wheels bundle.

numpy's wheels link ``numpy.linalg`` against scipy-openblas64, an ILP64
OpenBLAS that exports all of LAPACK under the prefix ``scipy_`` and the
suffix ``64_``: every integer argument is 64 bits wide. Binding dsytrd,
dsterf, dstemr, dormqr and dlaebz (the Sturm-count loop dstebz runs) from it
spares each covspec process SciPy's LAPACK wrappers, a second OpenBLAS and
about 25 MB of peak resident memory (x86-64 Linux, SciPy 1.17). A numpy
built on another LAPACK (Accelerate, MKL, a distribution's shared library)
exports no such symbols, and importing this module raises ImportError.

Each routine takes float64 arrays the caller owns and works in place, as
LAPACK does. A matrix must have unit row stride (Fortran order); a view into a
larger such matrix is passed as a pointer with the larger matrix's leading
dimension, not copied. Each returns LAPACK's INFO, 0 on success (dsytrd and
dlaebz with their outputs). Work space is allocated per call, so calls from
several threads do not share it.
"""

from __future__ import annotations

import ctypes
from functools import cache

import numpy as np
from numpy.linalg import _umath_linalg

_INT = ctypes.c_int64
_DOUBLE = ctypes.c_double
_PTR = ctypes.c_void_p
# gfortran appends the length of each CHARACTER argument, by value
_LEN = ctypes.c_size_t


def _lapack_name() -> str:
    try:
        lapack = np.__config__.CONFIG["Build Dependencies"]["lapack"]
        return f"{lapack['name']} {lapack['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _bind(*signatures):
    """The routines named in ``signatures``, (name, pointer arguments, string
    arguments) each, from the library numpy.linalg runs on."""
    try:
        library = ctypes.CDLL(_umath_linalg.__file__)
        routines = [getattr(library, f"scipy_{name}_64_") for name, _, _ in signatures]
    except (OSError, AttributeError) as exc:
        raise ImportError(
            f"covspec runs its eigensolves on the ILP64 LAPACK that numpy's wheels "
            f"bundle (scipy-openblas64), and this numpy's LAPACK, {_lapack_name()}, "
            f"does not export it: {exc}"
        ) from None
    for routine, (_, pointers, strings) in zip(routines, signatures):
        routine.argtypes = [_PTR] * pointers + [_LEN] * strings
        routine.restype = None
    return routines


_DSYTRD, _DSTERF, _DSTEMR, _DORMQR, _DLAEBZ = _bind(
    ("dsytrd", 10, 1), ("dsterf", 4, 0), ("dstemr", 21, 2), ("dormqr", 13, 2),
    ("dlaebz", 20, 0),
)
# dstemr's VL and VU, not read for RANGE = 'I', and dlaebz's ABSTOL and
# RELTOL, not read for IJOB = 1
_ZERO = ctypes.byref(_DOUBLE(0.0))


@cache
def _int(value: int):
    """A reference to an INTEGER argument LAPACK only reads."""
    return ctypes.byref(_INT(value))


def _address(array: np.ndarray) -> int:
    """The address of a writable float64 array that is one contiguous block
    in Fortran order: its transpose is one in C order, whose buffer ctypes
    maps faster than numpy's ``ctypes`` attribute reads an address. Any other
    array raises TypeError."""
    if array.dtype != np.float64:
        raise TypeError(f"expected a float64 array, got {array.dtype}")
    return ctypes.addressof(ctypes.c_char.from_buffer(array.T))


def _view(matrix: np.ndarray):
    """The address and leading dimension of a float64 matrix with unit row
    stride, a view into a larger one among them."""
    rows, columns = matrix.strides
    if matrix.dtype != np.float64 or rows != 8 or columns % 8:
        raise TypeError(f"expected a float64 matrix with unit row stride, got "
                        f"strides {matrix.strides} of {matrix.dtype}")
    return matrix.ctypes.data, _int(max(columns // 8, matrix.shape[0], 1))


def _check(ok: bool, what: str) -> None:
    """LAPACK cannot see an array's extent: a short one is read past its end."""
    if not ok:
        raise ValueError(f"LAPACK arguments of mismatched shapes: {what}")


@cache
def _dsytrd_lwork(n: int) -> int:
    """dsytrd's optimal work space for the lower triangle of an N x N matrix,
    as its workspace query reports it: the blocked reduction's."""
    work, info = _DOUBLE(), _INT()
    _DSYTRD(b"L", _int(n), None, _int(max(n, 1)), None, None, None,
            ctypes.byref(work), _int(-1), ctypes.byref(info), 1)
    if info.value != 0:
        raise ValueError(f"dsytrd workspace query for N={n} failed (info {info.value})")
    return int(work.value)


def dsytrd(a: np.ndarray):
    """Reduce the lower triangle of the symmetric N x N Fortran-ordered ``a``
    to tridiagonal form in place: Q' A Q = T, with Q's reflectors below the
    first subdiagonal of ``a``. Returns (d, e, tau, info): T's diagonal, its N-1
    subdiagonal entries followed by a 0 (the N entries dstemr takes), and the
    N-1 reflector scales followed by a 0."""
    n = a.shape[0]
    _check(a.shape == (n, n), f"dsytrd of a {a.shape} matrix")
    lwork = _dsytrd_lwork(n)
    # d, e, tau and the work space in one allocation
    out = np.zeros(3 * n + lwork)
    at = _address(out)
    info = _INT()
    _DSYTRD(b"L", _int(n), _address(a), _int(max(n, 1)), at, at + 8 * n, at + 16 * n,
            at + 24 * n, _int(lwork), ctypes.byref(info), 1)
    return out[:n], out[n : 2 * n], out[2 * n : 3 * n], info.value


def dsterf(d: np.ndarray, e: np.ndarray) -> int:
    """All eigenvalues of the tridiagonal matrix with diagonal ``d`` and
    subdiagonal ``e`` (N-1 entries read), ascending, into ``d``; ``e`` is
    destroyed."""
    _check(e.size >= d.size - 1, f"dsterf with {d.size} d and {e.size} e")
    info = _INT()
    _DSTERF(_int(d.size), _address(d), _address(e), ctypes.byref(info))
    return info.value


def dstemr(d: np.ndarray, e: np.ndarray, il: int, iu: int, z: np.ndarray) -> int:
    """Eigenvectors il..iu (1-based, ascending) of the tridiagonal matrix with
    diagonal ``d`` and subdiagonal ``e`` (N entries, the last one work space)
    by MRRR, into the N x (iu-il+1) Fortran-ordered ``z``; ``d`` and ``e``
    are destroyed. Asks for high relative accuracy where the matrix warrants
    it, as SciPy's wrapper does."""
    n, count = d.size, iu - il + 1
    _check(1 <= il <= iu <= n and e.size >= n and z.shape == (n, count),
           f"dstemr of vectors {il}..{iu} with {n} d, {e.size} e and a {z.shape} z")
    lwork, liwork = max(18 * n, 1), max(10 * n, 1)
    # w, work, iwork and isuppz in one allocation: the integers are 64 bits
    scratch = np.empty(n + lwork + liwork + 2 * count)
    at = _address(scratch)
    iwork = at + 8 * (n + lwork)
    # TRYRAC is in and out: dstemr clears it where the matrix does not warrant
    # high relative accuracy. LOGICAL is as wide as INTEGER in an ILP64 build.
    m, tryrac, info = _INT(), _INT(1), _INT()
    _DSTEMR(b"V", b"I", _int(n), _address(d), _address(e), _ZERO, _ZERO, _int(il),
            _int(iu), ctypes.byref(m), at, _address(z), _int(n), _int(count),
            iwork + 8 * liwork, ctypes.byref(tryrac), at + 8 * n, _int(lwork), iwork,
            _int(liwork), ctypes.byref(info), 1, 1)
    return info.value


def dormqr(a: np.ndarray, tau: np.ndarray, c: np.ndarray) -> int:
    """C := Q C in place, for the M x N ``c`` and the product Q = H_1 ... H_K
    of the K = ``tau.size`` reflectors held below the diagonal of ``a``
    (M x K, as dgeqrf leaves them). ``a`` and ``c`` need only unit row
    stride: views into larger Fortran-ordered matrices are not copied. The
    work space is the minimal one, N, so the product runs unblocked."""
    m, n = c.shape
    _check(a.shape[0] == m and a.shape[1] >= tau.size and m >= tau.size,
           f"dormqr of a {a.shape} a with {tau.size} tau on a {c.shape} c")
    work = np.empty(n)
    info = _INT()
    _DORMQR(b"L", b"N", _int(m), _int(n), _int(tau.size), *_view(a), _address(tau),
            *_view(c), _address(work), _int(n), ctypes.byref(info), 1, 1)
    return info.value


def dlaebz(d: np.ndarray, e2: np.ndarray, pivmin: float, points: np.ndarray):
    """Sturm counts (IJOB = 1): the number of eigenvalues at or below each of
    the P ``points`` of the tridiagonal matrix with diagonal ``d`` and squared
    subdiagonal ``e2`` (N entries, the last one not read; a zero one splits
    the matrix), a pivot of magnitude below ``pivmin`` taken as -pivmin. The
    points are the ends of ceil(P/2) intervals, counted in one call. Returns
    (the P counts as int64, info)."""
    n, p = d.size, points.size
    _check(e2.size >= n and p >= 1, f"dlaebz with {n} d, {e2.size} e2 and {p} points")
    m = (p + 1) // 2
    # AB, NAB, C, WORK and IWORK in one allocation: AB and NAB are M x 2 in
    # Fortran order, AB's first column the first M points and its second the
    # rest, the last point twice for odd P; the integers are 64 bits
    scratch = np.empty(7 * m)
    scratch[:p] = points
    scratch[p : 2 * m] = points[-1]
    at = _address(scratch)
    mout, info = _INT(), _INT()
    # IJOB = 1 reads none of NITMAX, NBMIN, E, NVAL, C, WORK and IWORK; E is
    # passed as E2 and NVAL as C
    _DLAEBZ(_int(1), _int(0), _int(n), _int(m), _int(m), _int(0), _ZERO, _ZERO,
            ctypes.byref(_DOUBLE(pivmin)), _address(d), _address(e2), _address(e2),
            at + 32 * m, at, at + 32 * m, ctypes.byref(mout), at + 16 * m, at + 40 * m,
            at + 48 * m, ctypes.byref(info))
    return scratch[2 * m : 4 * m].view(np.int64)[:p].copy(), info.value

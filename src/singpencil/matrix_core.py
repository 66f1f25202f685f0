"""Dense complex matrix primitives and the generalized eigensolver.

All matrices in this package are dense ``numpy.ndarray`` objects of dtype
``complex128`` in C (row-major) order.  :func:`as_cmatrix` is the single
validating entry point that enforces this representation together with the
finiteness invariant; every public constructor funnels its matrix arguments
through it.

Eigenvalues of matrix pencils are kept as arrays, only in
:class:`EigDecomposition`: homogeneous pairs ``(alpha, beta)`` with
``lambda = alpha / beta``, so that infinite eigenvalues (``beta = 0``)
are first-class citizens, and :meth:`EigDecomposition.values` turns them
into complex numbers, ``inf`` where infinite.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "EPS",
    "NumericalError",
    "as_cmatrix",
    "EigDecomposition",
    "generalized_eig",
    "rank_with_tol",
    "random_orthonormal",
    "greedy_match",
]

EPS = float(np.finfo(np.float64).eps)


class NumericalError(Exception):
    """An underlying dense iteration failed to converge.

    Carries the diagnostics supplied by the failing routine in ``details``.
    """

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = dict(details or {})


def as_cmatrix(a, name="matrix"):
    """Coerce ``a`` to a dense complex128 2-d array, validating finiteness.

    Parameters
    ----------
    a : array_like
        Anything ``numpy.asarray`` accepts, interpreted as a 2-d matrix.
    name : str
        Identifier used in error messages.

    Returns
    -------
    numpy.ndarray
        C-contiguous complex128 array of shape (rows, cols); ``a`` itself
        when it already is one.

    Raises
    ------
    ValueError
        If the input is not 2-dimensional or contains NaN/Inf entries.
    """
    return _checked(np.ascontiguousarray(np.asarray(a, dtype=np.complex128)), name)


def _checked(m, name):
    """The complex128 array ``m``, after the 2-d and finiteness checks of :func:`as_cmatrix`."""
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def greedy_match(xs, ys, d):
    """Greedy nearest matching of two lists by the distances ``d[i, j]``, which it overwrites.

    Repeatedly takes the globally closest unmatched pair (ties broken by
    index order) and returns ``(x, y, d)`` triples sorted by ascending
    distance ``d``; the output length is ``min(len(xs), len(ys))``.
    """
    out = []
    for _ in range(min(d.shape)):
        i, j = np.unravel_index(np.argmin(d), d.shape)
        out.append((xs[i], ys[j], float(d[i, j])))
        d[i, :] = np.inf
        d[:, j] = np.inf
    out.sort(key=lambda t: t[2])
    return out


def _lambda_order(lams):
    """Indices that sort the complex values ``lams`` on a grid of their real parts.

    By real part on a grid of 1e-10 of the largest finite ``|lambda|``
    (at least 1), then by imaginary part, non-finite values last, ties in
    input order.  The grid keeps roundoff in the real parts from deciding
    the order, so that last-bit changes in a spectrum leave it unchanged.
    """
    z = np.asarray(lams, dtype=np.complex128)
    finite = np.isfinite(z)
    grid = 1e-10 * max(1.0, float(np.max(np.abs(z[finite]), initial=0.0)))
    return np.lexsort((z.imag, np.round(z.real / grid), ~finite)).tolist()


@dataclass
class EigDecomposition:
    """Full eigendecomposition of a regular pencil (A, B).

    Attributes
    ----------
    alpha, beta : ndarray, shape (n,)
        Homogeneous eigenvalues, normalized per pair.
    right : ndarray, shape (n, n)
        Right eigenvectors as unit 2-norm columns: ``(beta_i A - alpha_i B) x_i = 0``;
        no column (shape (n, 0)) from :func:`generalized_eig`'s eigenvalues-only mode.
    left : ndarray, shape (n, n)
        Left eigenvectors as unit 2-norm columns: ``y_i^H (beta_i A - alpha_i B) = 0``;
        no column from the eigenvalues-only mode.
    """

    alpha: np.ndarray
    beta: np.ndarray
    right: np.ndarray
    left: np.ndarray

    @property
    def n(self):
        return self.alpha.shape[0]

    def unit_pairs(self, scale=(1.0, 1.0)):
        """The pairs ``(scale[0] alpha, scale[1] beta)``, each divided by its 2-norm."""
        a, b = scale[0] * self.alpha, scale[1] * self.beta
        h = np.hypot(np.abs(a), np.abs(b))
        return a / h, b / h

    def values(self, scale=(1.0, 1.0)):
        """The eigenvalues a / b of the pairs ``(a, b) = (scale[0] alpha, scale[1] beta)``.

        A complex128 array, ``inf`` where ``|b| <= EPS * |a|``; the test
        and the quotient do not depend on the length of the pair, so no
        pair is normalized.
        """
        return _quotients(scale[0] * self.alpha, scale[1] * self.beta)


def _quotients(a, b):
    """The values a / b of homogeneous pairs, elementwise; ``inf`` where ``|b| <= EPS * |a|``."""
    infinite = np.abs(b) <= EPS * np.abs(a)
    return np.divide(a, b, out=np.full(a.shape, np.inf + 0j), where=~infinite)


_ZGGEV3_NAMES = ("scipy_zggev3_64_", "zggev3_64_", "scipy_zggev3_", "zggev3_")


@functools.cache
def _zggev3(path=_umath_linalg.__file__):
    """LAPACK's Fortran ``zggev3`` bound with ``ctypes``, or None to call ``zggev``.

    Looked up with ``dlsym`` in ``path`` and the libraries it links, by
    default numpy's ``_umath_linalg`` extension: numpy's wheels export
    ``scipy_zggev3_64_`` from their bundled OpenBLAS, other builds
    ``zggev3_64_`` or ``zggev3_``.  A ``*_64_`` name takes 64-bit
    integers and any other name 32-bit ones, so a 32-bit library never
    gets 64-bit integers.  The two trailing arguments are the lengths of
    the ``jobvl`` and ``jobvr`` strings; ``workspace(n)`` is the cached
    optimal ``lwork`` for order n.  None where the library has no
    ``zggev3`` (e.g. numpy on Accelerate) or does not load.
    """
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    name = next((name for name in _ZGGEV3_NAMES if hasattr(lib, name)), None)
    if name is None:
        return None
    fn = getattr(lib, name)
    i = ctypes.POINTER(ctypes.c_int64 if name.endswith("_64_") else ctypes.c_int32)
    c, p, length = ctypes.c_char_p, ctypes.c_void_p, ctypes.c_size_t  # p: an array's address
    fn.argtypes = [c, c, i, p, i, p, i, p, p, p, i, p, i, p, i, p, i, length, length]
    fn.restype = None
    fn.workspace = functools.cache(functools.partial(_workspace, fn))
    return fn


def _zggev():
    """scipy's ``zggev``, the QZ driver where numpy's LAPACK has no ``zggev3``.

    Raises
    ------
    ImportError
        If scipy is not installed; the message names the extra that brings it.
    """
    try:
        from scipy.linalg import lapack
    except ImportError:
        raise ImportError(
            "numpy's LAPACK exports no zggev3, and the zggev fallback needs scipy: "
            "pip install 'singpencil[scipy]'"
        ) from None
    return lapack.zggev


def _workspace(zggev3, n):
    """The optimal ``lwork`` of ``zggev3`` (of ``zggev`` when None) for order n, from one query.

    The query asks for both eigenvector sets of the whole matrix, so its
    answer depends on n alone, not on the entries: each driver keeps it
    in a ``functools.cache`` keyed by n (``zggev3.workspace``).  The
    eigenvalues-only mode of :func:`generalized_eig` passes the same
    ``lwork``, at least the 2n that mode needs.
    """
    if zggev3 is None:
        z = np.zeros((n, n), np.complex128)
        return int(_zggev()(z, z, lwork=-1)[-2][0].real)
    integer = zggev3.argtypes[2]._type_
    dim, info = integer(n), integer(0)
    matrix, vector = np.zeros((n, n), np.complex128), np.zeros(n, np.complex128)
    work, rwork = np.zeros(1, np.complex128), np.zeros(8 * n)
    m, v = matrix.ctypes.data, vector.ctypes.data  # every array stays referenced until the call returns
    zggev3(b"V", b"V", dim, m, dim, m, dim, v, v, m, dim, m, dim,
           work.ctypes.data, integer(-1), rwork.ctypes.data, info, 1, 1)
    return int(work[0].real)


_zggev_workspace = functools.cache(functools.partial(_workspace, None))


def generalized_eig(A, B, *, _vectors=True):
    """Eigenvalues and left/right eigenvectors of the pencil A - lambda B.

    Calls LAPACK's QZ-based dense solver directly and normalizes its
    output once: eigenvectors to unit 2-norm, homogeneous eigenvalue pairs
    to the unit sphere.  The driver is ``zggev3`` (blocked reduction to
    Hessenberg-triangular form and multishift QZ with aggressive early
    deflation) in the LAPACK numpy links, as :func:`_zggev3` binds it, so
    no scipy module is imported; where numpy's LAPACK exports no
    ``zggev3``, the unblocked single-shift ``zggev`` through
    ``scipy.linalg.lapack`` (:func:`_zggev`).  Each matrix is converted
    and checked once, into the Fortran-order copy LAPACK overwrites, the
    workspace size is cached per order (:func:`_workspace`), and a call
    makes one LAPACK call.  The copies and the workspace (``work`` and
    ``rwork``, in an array of their own) are freed right after it, so
    none is alive when the normalization allocates.  LAPACK writes both
    eigenvector sets into one Fortran-order n x 2n array, left then
    right, which is normalized in place: the result's ``left`` and
    ``right`` are Fortran-contiguous views of it, with no second copy
    and no workspace kept alive behind them.

    The private eigenvalues-only mode (``_vectors=False``) asks LAPACK
    for no eigenvector (``jobvl = jobvr = "N"``; ``compute_vl =
    compute_vr = 0`` for ``zggev``), which skips the back-transformation
    and the eigenvector solves.  Its pairs are normalized and checked the
    same way, and ``left`` and ``right`` have no column.

    Parameters
    ----------
    A, B : array_like, shape (n, n)
        Square matrices of equal size.  The pencil is expected to be
        regular; a singular pencil produces meaningless output that the
        caller has to guard against (see ``pencil.normal_rank``).

    Returns
    -------
    EigDecomposition
        ``left`` and ``right`` are the two halves of one n x 2n array
        (n x 0 in the eigenvalues-only mode).

    Raises
    ------
    ValueError
        On a matrix that :func:`as_cmatrix` rejects, and on shape mismatch.
    ImportError
        Where numpy's LAPACK has no ``zggev3`` and scipy is not installed.
    NumericalError
        If LAPACK reports a failure (``info != 0``, e.g. the QZ iteration
        did not converge), or an eigenvalue comes back as the
        indeterminate pair (0, 0).
    """
    # ndmin=1: a scalar is reported with the shape as_cmatrix gives it
    a = _checked(np.array(A, dtype=np.complex128, order="F", ndmin=1), "A")
    b = _checked(np.array(B, dtype=np.complex128, order="F", ndmin=1), "B")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"A must be square, got {a.shape}")
    if a.shape != b.shape:
        raise ValueError(f"A and B must have equal shape, got {a.shape} and {b.shape}")
    n = a.shape[0]
    # the left then the right eigenvectors: one Fortran-order n x 2n matrix, n x 0 without them
    vectors = np.empty((n, 2 * n if _vectors else 0), np.complex128, order="F")
    pairs = np.empty((2, n), np.complex128)
    if n == 0:  # LAPACK rejects n = 0 as an illegal argument
        return EigDecomposition(pairs[0], pairs[1], right=vectors, left=vectors)
    zggev3 = _zggev3()
    lwork = (_zggev_workspace if zggev3 is None else zggev3.workspace)(n)
    if zggev3 is None:
        pairs[0], pairs[1], vl, vr, _, info = _zggev()(
            a, b, compute_vl=_vectors, compute_vr=_vectors, lwork=lwork, overwrite_a=1, overwrite_b=1)
        if _vectors:
            vectors[:, :n], vectors[:, n:] = vl, vr
        del vl, vr
    else:
        integer = zggev3.argtypes[2]._type_
        dim, info = integer(n), integer(0)
        work = np.empty(lwork + 4 * n, np.complex128)  # the workspace, then the 8n reals of rwork
        # raw addresses: numpy's ndpointer checks on every call cost more than a small QZ
        w, ab, v = work.ctypes.data, pairs.ctypes.data, vectors.ctypes.data
        job = b"V" if _vectors else b"N"  # "N": LAPACK reads neither eigenvector address
        zggev3(job, job, dim, a.ctypes.data, dim, b.ctypes.data, dim, ab, ab + 16 * n,
               v, dim, v + 16 * n * n, dim, w, integer(lwork), w + 16 * lwork, info, 1, 1)
        info = info.value
        del work  # like a and b below, freed before the normalization allocates
    del a, b  # overwritten by LAPACK: freed before the normalization allocates
    if info != 0:
        raise NumericalError(
            f"generalized eigenvalue iteration failed: LAPACK info = {info}",
            details={"n": n, "lapack_info": int(info)},
        )
    scale = np.hypot(*np.abs(pairs))
    if not scale.all():
        raise NumericalError(
            "indeterminate eigenvalues returned; pencil is numerically singular",
            details={"indices": np.nonzero(scale == 0.0)[0].tolist()},
        )
    pairs /= scale
    for v in (vectors[:, :n], vectors[:, n:]):  # a half at a time: temporaries of n^2 entries
        v /= np.linalg.norm(v, axis=0)
    return EigDecomposition(pairs[0], pairs[1], right=vectors[:, n:], left=vectors[:, :n])


def _rank_tolerance(s, shape, tol="auto"):
    """Rank cut for the singular values ``s`` (along the last axis) of a ``shape`` matrix.

    ``"auto"`` gives ``max(rows, cols) * EPS * sigma_max``, the usual
    dense-rank convention (0 without singular values), as an array over
    the leading axes of ``s``; a number must be nonnegative and is
    returned as a float.
    """
    if tol == "auto":
        return max(shape) * EPS * np.max(s, axis=-1, initial=0.0)
    tol = float(tol)
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    return tol


def rank_with_tol(M, tol="auto"):
    """Numerical rank of M: the number of singular values above ``tol``.

    ``tol`` follows :func:`_rank_tolerance`.
    """
    M = as_cmatrix(M, "M")
    if M.size == 0:
        raise ValueError("rank of an empty matrix is undefined")
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > _rank_tolerance(s, M.shape, tol)))


def random_orthonormal(n, k, rng):
    """Random n x k matrix with orthonormal columns.

    The distribution is the orthonormal factor of a complex Gaussian
    matrix (QR with the R diagonal rotated positive), i.e. Haar measure
    on the Stiefel manifold.  Fully determined by ``rng``.

    Raises
    ------
    ValueError
        If k > n.
    """
    if k > n:
        raise ValueError(f"cannot build {k} orthonormal columns in dimension {n}")
    if k == 0:
        return np.zeros((n, 0), dtype=np.complex128)
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return np.ascontiguousarray(q * (d / np.abs(d)).conj())

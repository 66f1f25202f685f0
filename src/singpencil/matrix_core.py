"""Dense complex matrix primitives and the generalized eigensolver.

All matrices in this package are dense ``numpy.ndarray`` objects of dtype
``complex128`` in C (row-major) order.  :func:`as_cmatrix` is the single
validating entry point that enforces this representation together with the
finiteness invariant; every public constructor funnels its matrix arguments
through it.

Eigenvalues of matrix pencils are kept in homogeneous form ``(alpha, beta)``
with ``lambda = alpha / beta`` so that infinite eigenvalues (``beta = 0``)
are first-class citizens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "EPS",
    "NumericalError",
    "as_cmatrix",
    "HomogeneousEigenvalue",
    "EigDecomposition",
    "generalized_eig",
    "rank_tolerance",
    "rank_with_tol",
    "random_orthonormal",
    "kron",
    "chordal_distance",
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
        C-contiguous complex128 array of shape (rows, cols).

    Raises
    ------
    ValueError
        If the input is not 2-dimensional or contains NaN/Inf entries.
    """
    m = np.ascontiguousarray(np.asarray(a, dtype=np.complex128))
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class HomogeneousEigenvalue:
    """Eigenvalue of a pencil in homogeneous coordinates.

    Stored normalized so that ``|alpha|**2 + |beta|**2 == 1``; the pair
    (0, 0) is rejected.  ``lambda = alpha / beta`` and the eigenvalue is
    reported infinite when ``|beta| <= EPS * |alpha|``.
    """

    alpha: complex
    beta: complex

    def __post_init__(self):
        a, b = complex(self.alpha), complex(self.beta)
        h = math.hypot(abs(a), abs(b))
        if h == 0.0:
            raise ValueError("homogeneous eigenvalue (0, 0) is indeterminate")
        object.__setattr__(self, "alpha", a / h)
        object.__setattr__(self, "beta", b / h)

    @property
    def is_infinite(self):
        return abs(self.beta) <= EPS * abs(self.alpha)

    @property
    def value(self):
        """The eigenvalue as a complex number, ``inf`` when infinite."""
        if self.is_infinite:
            return complex(math.inf, 0.0)
        return self.alpha / self.beta

    def rescaled(self, num, den):
        """Map the eigenvalue to ``(num/den) * lambda`` in homogeneous form."""
        return HomogeneousEigenvalue(num * self.alpha, den * self.beta)


def chordal_distance(e1, e2):
    """Chordal distance between two eigenvalues on the Riemann sphere.

    Accepts :class:`HomogeneousEigenvalue` instances or plain complex
    numbers (``inf`` allowed).  Finite values z are embedded as (z, 1).
    The distance is ``|a1 b2 - a2 b1|`` for unit-normalized pairs, which
    is bounded by 1 and treats the infinite eigenvalue like any other
    point of the sphere.
    """
    p1, p2 = (_as_homog(e) for e in (e1, e2))
    return abs(p1.alpha * p2.beta - p2.alpha * p1.beta)


def greedy_match(xs, ys, metric):
    """Greedy nearest matching of two lists under ``metric``.

    Repeatedly takes the globally closest unmatched pair (ties broken by
    index order) and returns ``(x, y, d)`` triples sorted by ascending
    distance ``d``; the output length is ``min(len(xs), len(ys))``.
    """
    d = np.array([[metric(a, b) for b in ys] for a in xs], dtype=float)
    out = []
    for _ in range(min(d.shape)):
        i, j = np.unravel_index(np.argmin(d), d.shape)
        out.append((xs[i], ys[j], float(d[i, j])))
        d[i, :] = np.inf
        d[:, j] = np.inf
    out.sort(key=lambda t: t[2])
    return out


def _as_homog(e):
    if isinstance(e, HomogeneousEigenvalue):
        return e
    z = complex(e)
    if math.isinf(z.real) or math.isinf(z.imag):
        return HomogeneousEigenvalue(1.0, 0.0)
    return HomogeneousEigenvalue(z, 1.0)


@dataclass
class EigDecomposition:
    """Full eigendecomposition of a regular pencil (A, B).

    Attributes
    ----------
    alpha, beta : ndarray, shape (n,)
        Homogeneous eigenvalues, normalized per pair.
    right : ndarray, shape (n, n)
        Right eigenvectors as unit 2-norm columns: ``(beta_i A - alpha_i B) x_i = 0``.
    left : ndarray, shape (n, n)
        Left eigenvectors as unit 2-norm columns: ``y_i^H (beta_i A - alpha_i B) = 0``.
    """

    alpha: np.ndarray
    beta: np.ndarray
    right: np.ndarray
    left: np.ndarray

    @property
    def n(self):
        return self.alpha.shape[0]

    def eigenvalue(self, i):
        return HomogeneousEigenvalue(self.alpha[i], self.beta[i])

    def eigenvalues(self):
        return [self.eigenvalue(i) for i in range(self.n)]


def generalized_eig(A, B):
    """Eigenvalues and left/right eigenvectors of the pencil A - lambda B.

    Wraps LAPACK's QZ-based dense solver (via ``scipy.linalg.eig``) and
    re-normalizes its output: eigenvectors to unit 2-norm, homogeneous
    eigenvalue pairs to the unit sphere.

    Parameters
    ----------
    A, B : array_like, shape (n, n)
        Square matrices of equal size.  The pencil is expected to be
        regular; a singular pencil produces meaningless output that the
        caller has to guard against (see ``pencil.normal_rank``).

    Returns
    -------
    EigDecomposition

    Raises
    ------
    ValueError
        On shape mismatch.
    NumericalError
        If the QZ iteration fails to converge, or an eigenvalue comes
        back as the indeterminate pair (0, 0).
    """
    A = as_cmatrix(A, "A")
    B = as_cmatrix(B, "B")
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got {A.shape}")
    if A.shape != B.shape:
        raise ValueError(f"A and B must have equal shape, got {A.shape} and {B.shape}")
    try:
        (alpha, beta), vl, vr = scipy.linalg.eig(
            A, B, left=True, right=True, homogeneous_eigvals=True
        )
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"generalized eigenvalue iteration failed: {exc}",
            details={"n": A.shape[0], "lapack_error": str(exc)},
        ) from exc
    scale = np.hypot(np.abs(alpha), np.abs(beta))
    bad = np.nonzero(scale == 0.0)[0]
    if bad.size:
        raise NumericalError(
            "indeterminate eigenvalues returned; pencil is numerically singular",
            details={"indices": bad.tolist()},
        )
    alpha = alpha / scale
    beta = beta / scale
    vr = vr / np.linalg.norm(vr, axis=0)
    vl = vl / np.linalg.norm(vl, axis=0)
    return EigDecomposition(alpha=alpha, beta=beta, right=vr, left=vl)


def rank_tolerance(s, shape, tol="auto"):
    """Rank cut for the singular values ``s`` (largest first) of a ``shape`` matrix.

    ``"auto"`` gives ``max(rows, cols) * EPS * sigma_max``, the usual
    dense-rank convention (0 without singular values); a number must be
    nonnegative.
    """
    if tol == "auto":
        return max(shape) * EPS * (s[0] if s.size else 0.0)
    tol = float(tol)
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return tol


def rank_with_tol(M, tol="auto"):
    """Numerical rank of M: the number of singular values above ``tol``.

    ``tol`` follows :func:`rank_tolerance`.
    """
    M = as_cmatrix(M, "M")
    if M.size == 0:
        raise ValueError("rank of an empty matrix is undefined")
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > rank_tolerance(s, M.shape, tol)))


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


def kron(A, B):
    """Kronecker product with the package's matrix coercion applied."""
    return np.kron(as_cmatrix(A, "A"), as_cmatrix(B, "B"))

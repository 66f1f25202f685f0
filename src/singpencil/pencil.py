"""The matrix pencil data model: scaling, squarification, normal rank.

A pencil is the one-parameter matrix family ``A - lambda B``.  It is
*singular* when it is rectangular, or square with ``det(A - lambda B)``
identically zero.  The solver pipeline normalizes every input through
:func:`squarify` and :func:`scale` before doing anything else, and
estimates the normal rank ``max_zeta rank(A - zeta B)`` from random
probe points.

Pencils are read and written as pairs of Matrix Market files (one file
per matrix, complex "array" or "coordinate" kind); results are written
as CSV by :func:`csv_text`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

import numpy as np

from .matrix_core import EPS, as_cmatrix, rank_tolerance

__all__ = [
    "Pencil",
    "NormalRankReport",
    "scale",
    "squarify",
    "normal_rank",
    "read_matrix",
    "write_matrix",
    "read_pencil",
    "write_pencil",
    "csv_text",
]


@dataclass
class Pencil:
    """A dense matrix pencil A - lambda B with scaling metadata.

    ``scale_alpha`` and ``scale_beta`` record the original 1-norms after
    :func:`scale`, so eigenvalues of the scaled pencil map back to the
    original ones through the factor ``scale_alpha / scale_beta``.
    """

    A: np.ndarray
    B: np.ndarray
    scale_alpha: float = 1.0
    scale_beta: float = 1.0

    def __post_init__(self):
        self.A = as_cmatrix(self.A, "A")
        self.B = as_cmatrix(self.B, "B")
        if self.A.shape != self.B.shape:
            raise ValueError(
                f"A and B must have equal shape, got {self.A.shape} and {self.B.shape}"
            )

    @property
    def shape(self):
        return self.A.shape

    @property
    def is_square(self):
        return self.A.shape[0] == self.A.shape[1]

    @property
    def back_factor(self):
        """Multiplier mapping scaled eigenvalues back to the original pencil."""
        return self.scale_alpha / self.scale_beta


@dataclass
class NormalRankReport:
    """Outcome of the probe-based normal rank estimate.

    ``k = size - nrank`` is the rank defect that the rank-completing
    perturbation has to fill (size is the squarified dimension).  The
    probe points and the tolerance in force are recorded so a surprising
    rank decision can be audited after the fact.
    """

    nrank: int
    k: int
    zeta_samples: list = field(default_factory=list)
    tol_used: float = 0.0


def scale(p: Pencil) -> Pencil:
    """Scale both matrices to unit 1-norm, recording the original norms.

    A zero matrix is left as it is with factor 1.0, so the valid pencils
    (I, 0), (0, I) and (0, 0) keep a finite back-scale factor.
    """
    alpha = float(np.linalg.norm(p.A, 1)) or 1.0
    beta = float(np.linalg.norm(p.B, 1)) or 1.0
    return Pencil(
        A=p.A / alpha,
        B=p.B / beta,
        scale_alpha=p.scale_alpha * alpha,
        scale_beta=p.scale_beta * beta,
    )


def squarify(p: Pencil) -> Pencil:
    """Embed a rectangular pencil into a square one by zero padding.

    The original entries sit in the leading block; the added zero rows
    (or columns) extend the Kronecker structure by trivial singular
    blocks and leave the eigenvalues untouched.  Square pencils pass
    through unchanged.
    """
    if p.is_square:
        return p
    pad = [(0, max(p.shape) - d) for d in p.shape]
    return replace(p, A=np.pad(p.A, pad), B=np.pad(p.B, pad))


def normal_rank(p: Pencil, rng, tol="auto", probes=2) -> NormalRankReport:
    """Estimate nrank(A, B) = max_zeta rank(A - zeta B) by random probes.

    Probe points are drawn uniformly from the unit circle (the pencil is
    scaled to unit norms first, so that radius is well conditioned), and
    the maximum rank over ``probes`` draws is taken.  A single probe can
    in principle land on an eigenvalue and under-report; two independent
    probes make that a non-event in practice while the report keeps the
    values for auditing.  A pencil whose 1-norms are already 0 or within
    ``10 * EPS * max(1, rows)`` of 1 (as :func:`scale` leaves them) is
    probed as it is.  An empty (0 x 0) pencil and a negative ``tol`` are
    rejected with ``ValueError``.
    """
    if max(p.shape) == 0:
        raise ValueError("empty pencil")
    unit = 10 * EPS * max(1, p.shape[0])
    norms = (np.linalg.norm(p.A, 1), np.linalg.norm(p.B, 1))
    ps = p if all(nrm == 0.0 or abs(nrm - 1.0) <= unit for nrm in norms) else scale(p)
    zetas = []
    best = 0
    tol_used = 0.0
    for _ in range(max(1, int(probes))):
        zeta = complex(np.exp(2j * np.pi * rng.uniform()))
        zetas.append(zeta)
        m = ps.A - zeta * ps.B
        s = np.linalg.svd(m, compute_uv=False)
        t = rank_tolerance(s, m.shape, tol)
        tol_used = max(tol_used, t)
        best = max(best, int(np.sum(s > t)))
    k = max(p.shape) - best
    return NormalRankReport(nrank=best, k=k, zeta_samples=zetas, tol_used=tol_used)


# the banners of the files _read_array parses, with the numbers per entry
_PLAIN_BANNERS = {
    b"%%MatrixMarket matrix array real general": 1,
    b"%%MatrixMarket matrix array complex general": 2,
}


def _read_array(path):
    r"""The matrix in a plain ``array real|complex general`` file, else None.

    Plain: the banner as ``mmwrite`` writes it, whole-line ``%`` comments,
    a ``rows cols`` line, then one entry per ``\n``-ended line, the two
    parts of a complex entry split by one space, each value matching
    ``-?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?``.  Python's ``float`` and
    ``mmread`` both round such values correctly; ``mmread`` reads every zero
    as ``+0.0``, hence the ``+ 0.0``.  A leading ``+`` or a ``_`` digit
    separator, on which the two disagree, gives None.
    """
    try:
        with open(path, "rb") as f:
            text = f.read()
    except (OSError, TypeError):
        return None
    banner, _, text = text.partition(b"\n")
    width = _PLAIN_BANNERS.get(banner)
    if width is None:
        return None
    while text.startswith(b"%"):
        text = text.partition(b"\n")[2]
    size, _, body = text.partition(b"\n")
    dims = re.fullmatch(rb"(\d+) (\d+)", size)
    if dims is None:
        return None
    rows, cols = int(dims[1]), int(dims[2])
    body = body.rstrip(b"\n")
    tokens = body.split()
    # with the number bytes deleted, a plain body leaves one line's separators per entry
    line = b" " * (width - 1) + b"\n"
    if (len(tokens) != width * rows * cols
            or body.translate(None, b"0123456789.eE+-") != (line * (rows * cols))[:-1]
            or b"+" in body and body.count(b"+") != body.count(b"e+") + body.count(b"E+")):
        return None
    try:
        values = np.array(tokens, dtype=np.float64) + 0.0
    except ValueError:
        return None
    if width == 2:
        values = values.view(np.complex128)
    return values.reshape(cols, rows).T


def read_matrix(path):
    """Read one dense complex matrix from a Matrix Market file.

    A plainly laid out ``array real`` or ``array complex`` ``general`` file,
    as :func:`write_matrix` writes it, is parsed with numpy, bit for bit as
    ``scipy.io.mmread`` reads it (see :func:`_read_array`).  Every other
    file goes through ``scipy.io``, imported only then, which also gives
    the error for a file it cannot read.
    """
    m = _read_array(path)
    if m is None:
        import scipy.io
        import scipy.sparse

        try:
            rows, cols, _, kind, _, _ = scipy.io.mminfo(path)
            if kind == "array" and rows * cols == 0:  # mmread of a 0 x n array dies with SIGFPE
                return np.zeros((rows, cols), dtype=np.complex128)
            m = scipy.io.mmread(path)
        except Exception as exc:
            raise ValueError(f"{path}: not a readable Matrix Market file ({exc})") from exc
        if scipy.sparse.issparse(m):
            m = m.toarray()
    return as_cmatrix(m, str(path))


def write_matrix(path, m):
    """Write one matrix to a Matrix Market file (complex array format).

    A matrix with no rows is written in coordinate format instead,
    because ``scipy.io.mmwrite`` of a complex 0 x n array never returns.
    """
    import scipy.io
    import scipy.sparse

    m = as_cmatrix(m, str(path))
    scipy.io.mmwrite(path, scipy.sparse.coo_matrix(m) if m.shape[0] == 0 else m, field="complex")


def read_pencil(path_a, path_b) -> Pencil:
    """Read a pencil from two Matrix Market files."""
    return Pencil(A=read_matrix(path_a), B=read_matrix(path_b))


def write_pencil(p: Pencil, path_a, path_b):
    """Write a pencil to two Matrix Market files."""
    write_matrix(path_a, p.A)
    write_matrix(path_b, p.B)


def _csv_field(x):
    if isinstance(x, complex):
        return f"{float(x.real)!r},{float(x.imag)!r}"
    if isinstance(x, float):
        return repr(float(x))
    return str(int(x) if isinstance(x, bool) else x)


def csv_text(header, rows) -> str:
    """CSV text of ``rows`` under the field names ``header``, in full precision.

    A float is written as ``repr(float(x))``, a bool as 0 or 1, and a
    complex number fills two fields, its real and imaginary parts.
    """
    return "".join(",".join(line) + "\n" for line in [header, *(map(_csv_field, r) for r in rows)])

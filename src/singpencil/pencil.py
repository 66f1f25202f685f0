"""The matrix pencil data model: scaling, squarification, normal rank.

A pencil is the one-parameter matrix family ``A - lambda B``.  It is
*singular* when it is rectangular, or square with ``det(A - lambda B)``
identically zero.  The solver pipeline normalizes every input through
:func:`squarify` and :func:`scale` before doing anything else, and
estimates the normal rank ``max_zeta rank(A - zeta B)`` from random
probe points.

Pencils are read and written as pairs of Matrix Market files, one file
per matrix; :func:`read_matrix` parses every kind with numpy.  Results
are written as CSV by :func:`csv_text`.
"""

from __future__ import annotations

import bz2
import gzip
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


def normal_rank(p: Pencil, rng, tol="auto") -> NormalRankReport:
    """Estimate nrank(A, B) = max_zeta rank(A - zeta B) by random probes.

    Probe points are drawn uniformly from the unit circle (the pencil is
    scaled to unit norms first, so that radius is well conditioned), and
    the maximum rank over two draws is taken.  A single probe can
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
    for _ in range(2):
        zeta = complex(np.exp(2j * np.pi * rng.uniform()))
        zetas.append(zeta)
        m = ps.A - zeta * ps.B
        s = np.linalg.svd(m, compute_uv=False)
        t = rank_tolerance(s, m.shape, tol)
        tol_used = max(tol_used, t)
        best = max(best, int(np.sum(s > t)))
    k = max(p.shape) - best
    return NormalRankReport(nrank=best, k=k, zeta_samples=zetas, tol_used=tol_used)


_WIDTHS = {b"pattern": 0, b"real": 1, b"integer": 1, b"complex": 2}  # numbers per value


def _parse(text):
    """The matrix in the bytes of a Matrix Market file; a ValueError says what is wrong."""
    banner, _, text = text.partition(b"\n")
    words = banner.lower().split()
    if len(words) != 5 or words[:2] != [b"%%matrixmarket", b"matrix"]:
        raise ValueError("no '%%MatrixMarket matrix' banner")
    fmt, kind, sym = words[2:]
    width, coo = _WIDTHS.get(kind), fmt == b"coordinate"
    if (fmt not in (b"array", b"coordinate") or width is None or fmt == b"array" and width == 0
            or sym not in (b"general", b"symmetric", b"skew-symmetric", b"hermitian")):
        raise ValueError("unsupported type " + b" ".join(words[2:]).decode(errors="replace"))
    header = re.match(rb"(?:%[^\n]*\n|[ \t\r]*\n)*([^\n]*)", text)  # comments, then the sizes
    dims, body = header[1].split(), text[header.end():]
    if len(dims) != 2 + coo or not b"".join(dims).isdigit():
        raise ValueError(f"bad size line {header[1].decode(errors='replace')!r}")
    rows, cols, *nnz = map(int, dims)
    if sym != b"general" and rows != cols:
        raise ValueError(f"a {sym.decode()} matrix of shape {rows} x {cols}")
    # numpy's float() reads 1_0 as 10, and an integer field must not round
    if b"_" in body or kind == b"integer" and re.search(rb"[.eE]", body):
        raise ValueError(f"a value that is not {kind.decode()}")
    tokens = body.split()
    skew = sym == b"skew-symmetric"
    # array: column by column, only the lower triangle unless general; coordinate: "i j value"
    size = nnz[0] if coo else rows * cols if sym == b"general" else rows * (rows + 1 - 2 * skew) // 2
    stride = width + 2 * coo
    if len(tokens) != size * stride:
        raise ValueError(f"the size line asks for {size * stride} numbers, the file has {len(tokens)}")
    numbers = np.array(tokens, dtype=np.float64) + 0.0  # every zero reads as +0.0
    if coo:
        entries = numbers.reshape(size, stride)
        ij = entries[:, :2]
        if size and not (b"".join(tokens[0::stride] + tokens[1::stride]).isdigit()
                         and (ij >= 1).all() and (ij <= (rows, cols)).all()):
            raise ValueError("an index that is not an integer in range")
        r, c = ij.T.astype(np.intp) - 1
        numbers = entries[:, 2:].ravel() if width else np.ones(size)
    values = numbers.view(np.complex128) if width == 2 else numbers
    if not coo:
        if sym == b"general":
            return values.reshape(cols, rows).T
        c, r = np.triu_indices(rows, skew)
    if sym != b"general":
        off = r != c
        mirror = -values if skew else values.conj() if sym == b"hermitian" else values
        r, c, values = np.r_[r, c[off]], np.r_[c, r[off]], np.r_[values, mirror[off]]
    m = np.zeros((rows, cols), values.dtype)
    np.add.at(m, (r, c), values)  # duplicate entries are summed
    return m


def _opener(name):
    """``gzip.open`` for a ``.gz`` file, ``bz2.open`` for a ``.bz2`` file, else ``open``."""
    return gzip.open if name.endswith(".gz") else bz2.open if name.endswith(".bz2") else open


def read_matrix(path):
    """Read one dense complex matrix from a Matrix Market file.

    Every ``matrix`` kind is read: ``array`` or ``coordinate`` format, of
    any field and symmetry (``pattern`` in ``coordinate`` only), also from
    a ``.gz`` or ``.bz2`` file.  Every zero reads as ``+0.0`` and duplicate
    entries are summed; a malformed file raises ``ValueError``.
    """
    name = str(path)
    try:
        with _opener(name)(path, "rb") as f:
            m = _parse(f.read())
    except Exception as exc:
        raise ValueError(f"{name}: not a readable Matrix Market file ({exc})") from exc
    return as_cmatrix(m, name)


def write_matrix(path, m):
    """Write one matrix to the Matrix Market file ``path``, under exactly that name.

    The file is ``array complex general``, one ``repr(re) repr(im)`` line
    per entry, column by column, compressed as :func:`read_matrix` reads it.
    """
    m = as_cmatrix(m, str(path))
    parts = tuple(np.ravel(m, order="F").view(np.float64).tolist())
    with _opener(str(path))(path, "wt") as f:
        f.write(f"%%MatrixMarket matrix array complex general\n{m.shape[0]} {m.shape[1]}\n")
        f.write("%r %r\n" * m.size % parts)


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

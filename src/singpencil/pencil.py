"""The matrix pencil data model: scaling, squarification, normal rank.

A pencil is the one-parameter matrix family ``A - lambda B``.  It is
*singular* when it is rectangular, or square with ``det(A - lambda B)``
identically zero.  The solver pipeline normalizes every input through
:func:`squarify` and :func:`scale` before doing anything else, and
estimates the normal rank ``max_zeta rank(A - zeta B)`` from random
probe points.

Pencils are read and written as pairs of Matrix Market files, one file
per matrix; :func:`read_matrix` parses every kind with numpy.
"""

from __future__ import annotations

import bz2
import gzip
import json
import re
from dataclasses import dataclass, field

import numpy as np

from .matrix_core import _rank_tolerance, as_cmatrix

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


def _stack(matrices):
    """Same-shaped matrices as one (m, rows, cols) stack in their own memory layout.

    Each slice is Fortran-ordered where the matrices are (LAPACK's
    eigenvectors), so every pencil's products see the strides a stack of
    one sees; a stack of one is a view, which copies nothing at large n.
    """
    if len(matrices) == 1:
        return matrices[0][None]
    if len({m.shape for m in matrices}) > 1:
        raise ValueError("the matrices of a stack must have equal shape")
    if matrices[0].flags.f_contiguous and not matrices[0].flags.c_contiguous:
        return np.stack([m.T for m in matrices]).swapaxes(-1, -2)
    return np.stack(matrices)


def _stacks(ps):
    """The A and B matrices of same-shaped pencils as two stacked arrays (views for one)."""
    return _stack([q.A for q in ps]), _stack([q.B for q in ps])


def scale(p):
    """Scale both matrices to unit 1-norm, recording the original norms.

    A zero matrix is left as it is with factor 1.0, so the valid pencils
    (I, 0), (0, I) and (0, 0) keep a finite back-scale factor.  A list of
    same-shaped pencils is scaled as one stack, into a list.
    """
    return _scale([p])[0] if isinstance(p, Pencil) else _scale(p)


def _scale(ps):
    """:func:`scale` of a list of same-shaped pencils, as one stack."""
    if not ps:
        return []
    A, B = _stacks(ps)
    norms = np.array([np.linalg.norm(M, 1, axis=(-2, -1)) for M in (A, B)])  # shape (2, m)
    norms[norms == 0.0] = 1.0
    # the float64 parts times 1 / norm: the bits of the complex quotient (a + b*0) / norm,
    # which multiplies by 1 / norm too, except that no -0.0 turns into +0.0
    A, B = ((M.view(np.float64) * (1.0 / r)[:, None, None]).view(np.complex128)
            for M, r in zip((A, B), norms))
    for M, name in ((A, "A"), (B, "B")):  # a subnormal norm's reciprocal overflows
        if not np.isfinite(M).all():
            raise ValueError(f"{name} contains non-finite entries")
    return [
        _derived(q, A=a, B=b, scale_alpha=q.scale_alpha * alpha, scale_beta=q.scale_beta * beta)
        for q, a, b, alpha, beta in zip(ps, A, B, *norms.tolist())
    ]


def _derived(p, **changes):
    """``dataclasses.replace(p, **changes)`` without checking the arrays again.

    For matrices computed from ``p``'s own, which :class:`Pencil` has
    validated already: complex128, C-contiguous, of equal shape and finite.
    """
    q = object.__new__(type(p))
    q.__dict__.update(p.__dict__, **changes)
    return q


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
    return _derived(p, A=np.pad(p.A, pad), B=np.pad(p.B, pad))


def normal_rank(p, rng, tol="auto"):
    """Estimate nrank(A, B) = max_zeta rank(A - zeta B) by random probes.

    Each probe point comes from one draw u = ``rng.uniform()``, and the
    maximum rank over two probes is taken (the pencil is scaled to unit
    norms first, so that points of modulus at most one are well
    conditioned).  A complex pencil is probed on the unit circle,
    zeta = exp(2 pi i u).  A pencil whose A and B have zero imaginary
    parts is probed at the real point zeta = 2u - 1 in [-1, 1], where
    A - zeta B is real and takes a float64 SVD at about half the cost.
    Both kinds use the same draws, so every later draw from ``rng`` is
    the same.  A single probe can land close to an eigenvalue and
    under-report, and the segment crosses every real eigenvalue in
    [-1, 1]: on the ill-conditioned ``staircase_sensitive_pencil`` of the
    gallery 4 of 20000 real probes fell below the cut, and none of 20000
    on the circle.  The maximum over two independent probes makes that a
    non-event in practice, while the report keeps the values (floats for
    a real pencil) for auditing.  Whether a pencil is scaled is read from
    its record: one whose factors ``scale_alpha`` and ``scale_beta`` are
    both 1.0 is scaled first, any other (one :func:`scale` returned) is
    probed as it is.  An empty (0 x 0) pencil and a negative ``tol`` are
    rejected with ``ValueError``.

    A list of same-shaped pencils with a list of as many generators gives
    the list of reports, each equal to that of its pencil alone: every
    pencil draws its probes from its own generator, one float64 SVD call
    covers every probe of the real pencils and one complex SVD call
    those of the others, at most two calls for the stack.
    """
    if isinstance(p, Pencil):
        return normal_rank([p], [rng], tol)[0]
    if len(rng) != len(p):
        raise ValueError("a stack of pencils needs one generator per pencil")
    if not p:
        return []
    shape = p[0].shape
    if max(shape) == 0:
        raise ValueError("empty pencil")
    A, B = _stacks([scale(q) if q.scale_alpha == q.scale_beta == 1.0 else q for q in p])
    u = np.array([r.uniform(size=2) for r in rng])  # the draws of two uniform() calls
    real = ~(A.imag.any(axis=(1, 2)) | B.imag.any(axis=(1, 2)))
    zetas = np.where(real[:, None], 2.0 * u - 1.0, np.exp(2j * np.pi * u))
    s = np.empty((len(p), 2, min(shape)))
    for group, part in ((real, np.real), (~real, np.asarray)):  # one float64, one complex SVD
        if group.any():
            rows = slice(None) if group.all() else group  # a whole stack as it is, uncopied
            probes = part(zetas[rows])[:, :, None, None] * part(B[rows])[:, None]
            s[rows] = np.linalg.svd(np.subtract(part(A[rows])[:, None], probes, out=probes),
                                    compute_uv=False)
    cut = _rank_tolerance(s, shape, tol)  # (m, 2) np.float64 under "auto", else one float
    nranks = (s > np.asarray(cut)[..., None]).sum(axis=-1).max(axis=-1).tolist()
    used = cut.max(axis=-1) if tol == "auto" else [cut] * len(p)
    return [  # tol_used = max(0.0, *cuts): the float 0.0 unless a cut is positive
        NormalRankReport(nrank=r, k=max(shape) - r, zeta_samples=(z.real if re else z).tolist(),
                         tol_used=t if t > 0.0 else 0.0)
        for r, z, re, t in zip(nranks, zetas, real.tolist(), used)
    ]


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


def _read_json(path):
    """The JSON document in the file ``path``; ValueError ``path:line:col: invalid JSON (...)``."""
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") from exc


def _write_json(path, doc):
    """Write ``doc`` to the file ``path`` as JSON: indent 2, sorted keys and one final newline."""
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def read_pencil(path_a, path_b) -> Pencil:
    """Read a pencil from two Matrix Market files."""
    return Pencil(A=read_matrix(path_a), B=read_matrix(path_b))


def write_pencil(p: Pencil, path_a, path_b):
    """Write a pencil to two Matrix Market files."""
    write_matrix(path_a, p.A)
    write_matrix(path_b, p.B)

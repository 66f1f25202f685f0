"""Synthesize pencils with a prescribed Kronecker canonical form.

Every square pencil is strictly equivalent to a direct sum of four block
types: Jordan blocks ``J_r(lam0) - lambda I`` carrying finite
eigenvalues, nilpotent blocks ``I - lambda N`` carrying the infinite
eigenvalue, and the singular blocks ``L_m`` (size m x (m+1), right
minimal index m) and ``L_n^T`` (size (n+1) x n, left minimal index n).
Assembling chosen blocks and hiding them behind random equivalence
transformations yields test pencils whose eigenvalues, normal rank and
block counts are known exactly; that ground truth is the oracle every
property test in this package leans on.  :func:`oracle_eigenvalues`
derives it from the block fields alone, by the identities of the form.

``_BLOCK_KINDS`` is the one list of block kinds: :class:`KcfSpec`
accepts a block only of one of its four exact types, and each block
stores its size or index as an int, checked when it is built.

The block list plus transform is serializable as a small JSON document
so any generated test pencil can be reproduced from its printed spec and
seed (see ``spec_to_json`` / ``spec_from_json`` and the CLI ``gen``
subcommand).
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from .matrix_core import random_orthonormal
from .pencil import Pencil

__all__ = [
    "Jordan",
    "Nilpotent",
    "RightSingular",
    "LeftSingular",
    "KcfSpec",
    "GroundTruth",
    "oracle_eigenvalues",
    "build",
    "spec_to_json",
    "spec_from_json",
]


def _integer(x):
    """``x`` as an int; TypeError unless it is an integral number (a bool is not one)."""
    if isinstance(x, numbers.Integral) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise TypeError(f"not an integer: {x!r}")


def _store_integer(block, name, low, what):
    """Store the field ``name`` of ``block`` as :func:`_integer` reads it; ValueError below low."""
    value = _integer(getattr(block, name))
    if value < low:
        raise ValueError(f"{what} must be >= {low}")
    object.__setattr__(block, name, value)


@dataclass(frozen=True)
class Jordan:
    """Jordan block J_size(eigenvalue) - lambda I."""

    size: int
    eigenvalue: complex

    def __post_init__(self):
        _store_integer(self, "size", 1, "Jordan block size")
        if not isinstance(self.eigenvalue, numbers.Number) or isinstance(self.eigenvalue, bool):
            raise TypeError(f"Jordan eigenvalue must be a number, got {self.eigenvalue!r}")
        if not cmath.isfinite(self.eigenvalue):
            raise ValueError(f"Jordan eigenvalue must be finite, got {self.eigenvalue!r}")

    def matrices(self):
        A = np.eye(self.size, dtype=np.complex128) * complex(self.eigenvalue)
        A += np.diag(np.ones(self.size - 1), 1)
        return A, np.eye(self.size, dtype=np.complex128)


@dataclass(frozen=True)
class Nilpotent:
    """Block I - lambda N with N a single nilpotent Jordan block (infinite eigenvalue).

    Its matrices are those of ``Jordan(size, 0)`` with A and B swapped.
    """

    size: int

    def __post_init__(self):
        _store_integer(self, "size", 1, "nilpotent block size")

    def matrices(self):
        J, I = Jordan(self.size, 0).matrices()
        return I, J


@dataclass(frozen=True)
class RightSingular:
    """Singular block L_index = [0 I] - lambda [I 0], size index x (index + 1)."""

    index: int

    def __post_init__(self):
        _store_integer(self, "index", 0, "minimal index")

    def matrices(self):
        m = self.index
        A = np.zeros((m, m + 1), dtype=np.complex128)
        B = np.zeros((m, m + 1), dtype=np.complex128)
        A[:, 1:] = np.eye(m)
        B[:, :m] = np.eye(m)
        return A, B


@dataclass(frozen=True)
class LeftSingular:
    """Transposed singular block L_index^T, size (index + 1) x index.

    Its matrices are the transposes of those of ``RightSingular(index)``.
    """

    index: int

    def __post_init__(self):
        _store_integer(self, "index", 0, "minimal index")

    def matrices(self):
        A, B = RightSingular(self.index).matrices()
        return A.T, B.T


_BLOCK_KINDS = {
    "jordan": Jordan,
    "nilpotent": Nilpotent,
    "right_singular": RightSingular,
    "left_singular": LeftSingular,
}
_KIND_OF = {cls: kind for kind, cls in _BLOCK_KINDS.items()}


@dataclass(frozen=True)
class KcfSpec:
    """A block list plus the equivalence transform hiding it.

    Every block must be of one of the four block types exactly (a
    subclass is not one); another entry raises TypeError.  transform is
    one of "none" (return the canonical form itself), "unitary" (random
    unitary P, Q) or "general" (random P, Q with 2-norm condition number
    exactly ``cond_bound``, which must be a finite number >= 1 for every
    transform).
    """

    blocks: tuple
    transform: str = "unitary"
    cond_bound: float = 1e3

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ValueError("spec must contain at least one block")
        for b in self.blocks:
            if type(b) not in _KIND_OF:
                raise TypeError(f"unknown block type {type(b).__name__}")
        if self.transform not in ("none", "unitary", "general"):
            raise ValueError(f"unknown transform {self.transform!r}")
        if not 1 <= self.cond_bound <= np.finfo(float).max:  # false for NaN
            raise ValueError("cond_bound must be a finite number >= 1")
        object.__setattr__(self, "cond_bound", float(self.cond_bound))


@dataclass
class GroundTruth:
    """Exact spectral data implied by a block list.

    finite holds the finite eigenvalues with multiplicity, sorted by real
    then imaginary part; n_infinite the number of infinite eigenvalues;
    r the size of the regular part; k the number of singular block
    pairs; M and N the sums of right and left minimal indices; nrank
    the normal rank; rows and cols the shape of the pencil.  For a
    square pencil of size n the perturbed-spectrum counts are r true,
    k prescribed, M random-right and N random-left eigenvalues with
    r + k + M + N = n.
    """

    finite: list
    n_infinite: int
    r: int
    k: int
    M: int
    N: int
    nrank: int
    rows: int
    cols: int


def oracle_eigenvalues(spec: KcfSpec) -> GroundTruth:
    """Derive the exact spectral data from the block fields, no numerics involved.

    No matrix is built.  A Jordan block J_s(lam0) adds lam0 s times to
    ``finite``, a nilpotent block of size s adds s to ``n_infinite``,
    and r = len(finite) + n_infinite.  With k_R right and k_L left
    singular blocks, k = max(k_R, k_L).  L_m is m x (m + 1) of rank m
    and L_n^T is (n + 1) x n of rank n, so

        nrank = r + M + N,  rows = nrank + k_L,  cols = nrank + k_R,

    and nrank = min(rows - k_L, cols - k_R).
    """
    of = {cls: [b for b in spec.blocks if type(b) is cls] for cls in _KIND_OF}
    finite = [complex(b.eigenvalue) for b in of[Jordan] for _ in range(b.size)]
    finite.sort(key=lambda z: (z.real, z.imag))
    n_infinite = sum(b.size for b in of[Nilpotent])
    M = sum(b.index for b in of[RightSingular])
    N = sum(b.index for b in of[LeftSingular])
    k_right, k_left = len(of[RightSingular]), len(of[LeftSingular])
    r = len(finite) + n_infinite
    nrank = r + M + N
    return GroundTruth(finite=finite, n_infinite=n_infinite, r=r, k=max(k_right, k_left),
                       M=M, N=N, nrank=nrank, rows=nrank + k_left, cols=nrank + k_right)


def build(spec: KcfSpec, rng):
    """Assemble the canonical pencil and hide it behind the transform.

    Blocks are laid out block-diagonally in list order (the transform
    destroys any ordering information, so callers must not rely on it).
    Returns the pencil together with its :class:`GroundTruth`.
    """
    truth = oracle_eigenvalues(spec)
    A = np.zeros((truth.rows, truth.cols), dtype=np.complex128)
    B = np.zeros((truth.rows, truth.cols), dtype=np.complex128)
    r0 = c0 = 0
    for b in spec.blocks:
        Ab, Bb = b.matrices()
        h, w = Ab.shape
        A[r0 : r0 + h, c0 : c0 + w] = Ab
        B[r0 : r0 + h, c0 : c0 + w] = Bb
        r0 += h
        c0 += w
    if spec.transform != "none":
        P = _transform_matrix(truth.rows, spec, rng)
        Q = _transform_matrix(truth.cols, spec, rng)
        A = P @ A @ Q
        B = P @ B @ Q
    return Pencil(A=A, B=B), truth


def _transform_matrix(n, spec: KcfSpec, rng):
    if spec.transform == "unitary":
        return random_orthonormal(n, n, rng)
    # general: unitary * logspaced diagonal * unitary, 2-norm condition == cond_bound
    d = np.logspace(0.0, np.log10(spec.cond_bound), n)
    return (random_orthonormal(n, n, rng) * d) @ random_orthonormal(n, n, rng).conj().T


def spec_to_json(spec: KcfSpec) -> dict:
    """Serialize a spec to a plain JSON-compatible dictionary."""
    blocks = []
    for b in spec.blocks:
        doc = {"kind": _KIND_OF[type(b)], **asdict(b)}
        if "eigenvalue" in doc:
            z = complex(doc["eigenvalue"])
            doc["eigenvalue"] = [z.real, z.imag]
        blocks.append(doc)
    return {"blocks": blocks, "transform": spec.transform, "cond_bound": spec.cond_bound}


def _number(x):
    """Whether ``x`` is a JSON number: an int or a float, not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def spec_from_json(doc: dict) -> KcfSpec:
    """Parse the dictionary produced by :func:`spec_to_json`; another shape raises ValueError.

    A block's error names its index: ``block 1: Jordan block size must be >= 1``.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("blocks"), list):
        raise ValueError("KCF spec document must contain a 'blocks' list")
    blocks = []
    for i, rb in enumerate(doc["blocks"]):
        if not isinstance(rb, dict):
            raise ValueError(f"block {i}: expected an object, got {rb!r}")
        kind = rb.get("kind")
        cls = _BLOCK_KINDS.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ValueError(f"block {i}: unknown kind {kind!r}")
        try:
            args = {f.name: rb[f.name] for f in fields(cls) if f.name != "eigenvalue"}
        except KeyError as exc:
            raise ValueError(f"block {i}: {kind} needs an integer {exc.args[0]!r}") from None
        if cls is Jordan:
            ev = rb.get("eigenvalue", [0.0, 0.0])
            ev = [ev, 0.0] if _number(ev) else ev
            if not (isinstance(ev, list) and len(ev) == 2 and all(map(_number, ev))):
                raise ValueError(f"block {i}: eigenvalue must be a number or an [re, im] pair")
            args["eigenvalue"] = complex(ev[0], ev[1])
        try:
            blocks.append(cls(**args))
        except TypeError:
            raise ValueError(f"block {i}: {kind} sizes and indices must be integers") from None
        except ValueError as exc:
            raise ValueError(f"block {i}: {exc}") from None
    cond_bound = doc.get("cond_bound", KcfSpec.cond_bound)
    if not _number(cond_bound):
        raise ValueError(f"cond_bound must be a number, got {cond_bound!r}")
    return KcfSpec(blocks=tuple(blocks), transform=doc.get("transform", KcfSpec.transform),
                   cond_bound=cond_bound)

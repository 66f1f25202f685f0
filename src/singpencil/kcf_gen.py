"""Synthesize pencils with a prescribed Kronecker canonical form.

Every square pencil is strictly equivalent to a direct sum of four block
types: Jordan blocks ``J_r(lam0) - lambda I`` carrying finite
eigenvalues, nilpotent blocks ``I - lambda N`` carrying the infinite
eigenvalue, and the singular blocks ``L_m`` (size m x (m+1), right
minimal index m) and ``L_n^T`` (size (n+1) x n, left minimal index n).
Assembling chosen blocks and hiding them behind random equivalence
transformations yields test pencils whose eigenvalues, normal rank and
block counts are known exactly; that ground truth is the oracle every
property test in this package leans on.

The block list plus transform is serializable as a small JSON document
so any generated test pencil can be reproduced from its printed spec and
seed (see ``spec_to_json`` / ``spec_from_json`` and the CLI ``gen``
subcommand).
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class Jordan:
    """Jordan block J_size(eigenvalue) - lambda I."""

    size: int
    eigenvalue: complex

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("Jordan block size must be >= 1")

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
        if self.size < 1:
            raise ValueError("nilpotent block size must be >= 1")

    def matrices(self):
        J, I = Jordan(self.size, 0).matrices()
        return I, J


@dataclass(frozen=True)
class RightSingular:
    """Singular block L_index = [0 I] - lambda [I 0], size index x (index + 1)."""

    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("minimal index must be >= 0")

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
        if self.index < 0:
            raise ValueError("minimal index must be >= 0")

    def matrices(self):
        A, B = RightSingular(self.index).matrices()
        return A.T, B.T


@dataclass(frozen=True)
class KcfSpec:
    """A block list plus the equivalence transform hiding it.

    transform is one of "none" (return the canonical form itself),
    "unitary" (random unitary P, Q) or "general" (random P, Q with
    2-norm condition number exactly ``cond_bound``, which must be a
    finite number >= 1 for every transform).
    """

    blocks: tuple
    transform: str = "unitary"
    cond_bound: float = 1e3

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ValueError("spec must contain at least one block")
        if self.transform not in ("none", "unitary", "general"):
            raise ValueError(f"unknown transform {self.transform!r}")
        if not 1 <= self.cond_bound <= np.finfo(float).max:  # false for NaN
            raise ValueError("cond_bound must be a finite number >= 1")
        object.__setattr__(self, "cond_bound", float(self.cond_bound))


@dataclass
class GroundTruth:
    """Exact spectral data implied by a block list.

    finite holds the finite eigenvalues with multiplicity; r is the size
    of the regular part; k the number of singular block pairs; M and N
    the sums of right and left minimal indices.  For a square pencil of
    size n the perturbed-spectrum counts are r true, k prescribed,
    M random-right and N random-left eigenvalues with r + k + M + N = n.
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
    """Read the exact spectral data off the block list, no numerics involved."""
    finite = []
    n_inf = 0
    r = M = N = 0
    n_right = n_left = 0
    rows = cols = 0
    for b in spec.blocks:
        A, _ = b.matrices()
        rows += A.shape[0]
        cols += A.shape[1]
        if isinstance(b, Jordan):
            finite.extend([complex(b.eigenvalue)] * b.size)
            r += b.size
        elif isinstance(b, Nilpotent):
            n_inf += b.size
            r += b.size
        elif isinstance(b, RightSingular):
            M += b.index
            n_right += 1
        elif isinstance(b, LeftSingular):
            N += b.index
            n_left += 1
        else:
            raise TypeError(f"unknown block type {type(b).__name__}")
    k = max(n_right, n_left)
    nrank = min(rows - n_left, cols - n_right)
    finite.sort(key=lambda z: (z.real, z.imag))
    return GroundTruth(
        finite=finite,
        n_infinite=n_inf,
        r=r,
        k=k,
        M=M,
        N=N,
        nrank=nrank,
        rows=rows,
        cols=cols,
    )


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


_BLOCK_KINDS = {
    "jordan": Jordan,
    "nilpotent": Nilpotent,
    "right_singular": RightSingular,
    "left_singular": LeftSingular,
}
_KIND_OF = {cls: kind for kind, cls in _BLOCK_KINDS.items()}


def spec_to_json(spec: KcfSpec) -> dict:
    """Serialize a spec to a plain JSON-compatible dictionary."""
    blocks = []
    for b in spec.blocks:
        kind = _KIND_OF.get(type(b))
        if kind is None:
            raise TypeError(f"unknown block type {type(b).__name__}")
        doc = {"kind": kind, **asdict(b)}
        if "eigenvalue" in doc:
            z = complex(doc["eigenvalue"])
            doc["eigenvalue"] = [z.real, z.imag]
        blocks.append(doc)
    return {"blocks": blocks, "transform": spec.transform, "cond_bound": spec.cond_bound}


def _integer(x):
    """``x`` as an int; TypeError unless it is an integral number (a bool is not one)."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise TypeError(f"not an integer: {x!r}")


def spec_from_json(doc: dict) -> KcfSpec:
    """Parse the dictionary produced by :func:`spec_to_json`; another shape raises ValueError."""
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
            args = {f.name: _integer(rb[f.name]) for f in fields(cls) if f.name != "eigenvalue"}
        except KeyError as exc:
            raise ValueError(f"block {i}: {kind} needs an integer {exc.args[0]!r}") from None
        except TypeError:
            raise ValueError(f"block {i}: {kind} sizes and indices must be integers") from None
        if cls is Jordan:
            ev = rb.get("eigenvalue", [0.0, 0.0])
            ev = [ev, 0.0] if isinstance(ev, (int, float)) else ev
            if not (isinstance(ev, list) and len(ev) == 2
                    and all(isinstance(x, (int, float)) for x in ev)):
                raise ValueError(f"block {i}: eigenvalue must be a number or an [re, im] pair")
            args["eigenvalue"] = complex(ev[0], ev[1])
        blocks.append(cls(**args))
    cond_bound = doc.get("cond_bound", KcfSpec.cond_bound)
    if isinstance(cond_bound, bool) or not isinstance(cond_bound, (int, float)):
        raise ValueError(f"cond_bound must be a number, got {cond_bound!r}")
    return KcfSpec(blocks=tuple(blocks), transform=doc.get("transform", KcfSpec.transform),
                   cond_bound=cond_bound)

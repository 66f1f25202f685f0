"""Eigenvalues of singular pencils through one rank-completing perturbation.

For a square pencil of normal rank ``n - k`` the solver adds the rank-k
perturbation ``tau * U (D_A - lambda D_B) V^H`` with random orthonormal
U, V and a random regular diagonal pencil (D_A, D_B).  Generically the
perturbed pencil is regular while the original regular part survives
untouched, and the spectrum splits into three groups that the left and
right eigenvectors of the perturbed pencil identify:

* true eigenvalues (the originals): ``V^H x = 0`` and ``U^H y = 0``,
* prescribed eigenvalues ``gamma_i = dA_i / dB_i``: both products nonzero,
* random eigenvalues from the singular part: exactly one product zero.

True eigenvalues are further split into finite and infinite by the size
of ``s_i = y_i^H B~ x_i``, which is O(1) for a well-conditioned simple
finite eigenvalue and collapses to roundoff for an infinite one.

:func:`solve` runs the whole pipeline; :func:`solve_by_intersection`
implements the classical two-perturbation baseline for comparison.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .matrix_core import (
    EPS,
    EigDecomposition,
    HomogeneousEigenvalue,
    as_cmatrix,
    chordal_distance,
    generalized_eig,
    greedy_match,
    random_orthonormal,
)
from .pencil import NormalRankReport, Pencil, normal_rank, scale, squarify

__all__ = [
    "EigenClass",
    "PerturbationSpec",
    "EigenRecord",
    "SolveOptions",
    "GapReport",
    "SolveResult",
    "IntersectionResult",
    "make_perturbation",
    "perturb",
    "classify",
    "solve",
    "solve_by_intersection",
]

DEFAULT_DELTA1 = math.sqrt(EPS)
DEFAULT_DELTA2 = 100.0 * EPS
DEFAULT_MATCH_TOL = math.sqrt(EPS)


class EigenClass(enum.Enum):
    """Classification of one eigenvalue of the perturbed pencil."""

    FINITE_TRUE = "finite_true"
    INFINITE_TRUE = "infinite_true"
    PRESCRIBED = "prescribed"
    RANDOM_RIGHT = "random_right"
    RANDOM_LEFT = "random_left"
    UNCLASSIFIED = "unclassified"

    @property
    def is_true(self):
        return self in (EigenClass.FINITE_TRUE, EigenClass.INFINITE_TRUE)


@dataclass
class SolveOptions:
    """Tunable parameters of the perturb-and-classify pipeline.

    Defaults: ``tau = 1e-2``, ``delta1 = sqrt(EPS)`` (eigenvector
    orthogonality threshold), ``delta2 = 100 * EPS`` (finite/infinite
    split on ``|s|``).  ``gamma`` may hold an explicit pair of diagonal
    vectors (dA, dB); by default both are drawn uniformly from [1, 2] so
    the prescribed eigenvalues land in [1/2, 2].
    """

    tau: float = 1e-2
    delta1: float = DEFAULT_DELTA1
    delta2: float = DEFAULT_DELTA2
    seed: int | None = None
    gamma: tuple | None = None
    max_retries: int = 3
    rank_tol: object = "auto"

    def __post_init__(self):
        if not (self.delta1 > 0 and self.delta2 > 0):
            raise ValueError("delta1 and delta2 must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be nonnegative")


@dataclass
class PerturbationSpec:
    """The rank-completing perturbation tau * U (D_A - lambda D_B) V^H."""

    U: np.ndarray
    V: np.ndarray
    dA: np.ndarray
    dB: np.ndarray
    tau: float = SolveOptions.tau

    def __post_init__(self):
        self.U = as_cmatrix(self.U, "U")
        self.V = as_cmatrix(self.V, "V")
        self.dA = np.asarray(self.dA, dtype=np.complex128).ravel()
        self.dB = np.asarray(self.dB, dtype=np.complex128).ravel()
        n, k = self.U.shape
        if self.V.shape != (n, k):
            raise ValueError("U and V must have identical shape")
        if self.dA.shape != (k,) or self.dB.shape != (k,):
            raise ValueError(f"dA and dB must have k = {k} entries, one per column of U")
        if self.tau == 0:
            raise ValueError("tau must be nonzero")
        for m, name in ((self.U, "U"), (self.V, "V")):
            g = m.conj().T @ m
            if np.linalg.norm(g - np.eye(k)) > 10 * n * EPS:
                raise ValueError(f"{name} does not have orthonormal columns")
        if np.any((self.dA == 0) & (self.dB == 0)):
            raise ValueError("diagonal pencil (D_A, D_B) must be regular")

    @property
    def k(self):
        return self.U.shape[1]

    @property
    def gammas(self):
        """Prescribed eigenvalues dA_i / dB_i (inf where dB_i = 0)."""
        out = np.full(self.k, complex(np.inf), dtype=np.complex128)
        nz = self.dB != 0
        out[nz] = self.dA[nz] / self.dB[nz]
        return out


@dataclass
class EigenRecord:
    """One eigenvalue of the perturbed pencil with its diagnostics.

    ``lam`` is back-scaled to the original pencil; the diagnostics
    ``s_abs = |y^H B~ x|``, ``vx_norm = ||V^H x||`` and
    ``uy_norm = ||U^H y||`` refer to the scaled perturbed problem that
    was actually solved.  ``zeta = max(vx_norm, uy_norm)``.
    """

    lam: HomogeneousEigenvalue
    x: np.ndarray
    y: np.ndarray
    s_abs: float
    vx_norm: float
    uy_norm: float
    zeta: float = field(init=False)
    label: EigenClass = EigenClass.UNCLASSIFIED

    def __post_init__(self):
        self.zeta = max(self.vx_norm, self.uy_norm)

    @property
    def value(self):
        return self.lam.value

    @property
    def is_infinite(self):
        return self.lam.is_infinite


@dataclass
class GapReport:
    """Threshold-free separation diagnostics of one classified spectrum.

    A clear gap between ``max_true_zeta`` and ``min_nontrue_zeta`` (and
    between ``max_infinite_s`` and ``min_finite_s``) means the
    classification did not depend on the particular thresholds.  Entries
    are None when the corresponding group is empty.
    """

    max_true_zeta: float | None
    min_nontrue_zeta: float | None
    max_infinite_s: float | None
    min_finite_s: float | None


@dataclass
class SolveResult:
    """Everything :func:`solve` learned about one pencil."""

    records: list
    finite_true: list
    nrank_report: NormalRankReport
    spec_used: PerturbationSpec | None
    gap_report: GapReport
    collision_warning: bool = False

    @property
    def finite_true_values(self):
        return [r.value for r in self.finite_true]


def make_perturbation(n, k, opts: SolveOptions, rng) -> PerturbationSpec:
    """Draw a fresh rank-k perturbation specification.

    U and V are independent Haar orthonormal n x k factors; the diagonal
    entries are i.i.d. uniform on [1, 2] unless ``opts.gamma`` supplies
    them explicitly.
    """
    if k <= 0:
        raise ValueError("perturbation rank k must be positive; a regular pencil needs none")
    if k > n:
        raise ValueError(f"perturbation rank {k} exceeds dimension {n}")
    U = random_orthonormal(n, k, rng)
    V = random_orthonormal(n, k, rng)
    if opts.gamma is None:
        dA = rng.uniform(1.0, 2.0, k)
        dB = rng.uniform(1.0, 2.0, k)
    else:
        dA, dB = opts.gamma
    return PerturbationSpec(U=U, V=V, dA=dA, dB=dB, tau=opts.tau)


def perturb(p: Pencil, spec: PerturbationSpec) -> Pencil:
    """Apply the rank-completing perturbation to a square pencil."""
    if not p.is_square:
        raise ValueError("perturb requires a square pencil; squarify first")
    n = p.shape[0]
    if spec.U.shape[0] != n:
        raise ValueError(f"perturbation built for dimension {spec.U.shape[0]}, pencil has {n}")
    E = (spec.U * spec.dA) @ spec.V.conj().T
    F = (spec.U * spec.dB) @ spec.V.conj().T
    return replace(p, A=p.A + spec.tau * E, B=p.B + spec.tau * F)


_CLASSES = list(EigenClass)
_FINITE, _INFINITE = _CLASSES.index(EigenClass.FINITE_TRUE), _CLASSES.index(EigenClass.INFINITE_TRUE)
# class of each sign pattern (||V^H x|| < delta1, ||U^H y|| < delta1) at 2 * vx_small + uy_small
_PATTERN_CLASS = np.array(
    [_CLASSES.index(EigenClass[c]) for c in ("PRESCRIBED", "RANDOM_LEFT", "RANDOM_RIGHT", "FINITE_TRUE")]
)


def _class_index(s_abs, vx, uy, delta1, delta2):
    """Class of every eigenpair as an index into ``list(EigenClass)``.

    The four sign patterns of (||V^H x|| < delta1, ||U^H y|| < delta1)
    decide true / prescribed / random-from-right-block /
    random-from-left-block; |s| > delta2 splits true into finite and
    infinite.
    """
    cls = _PATTERN_CLASS[2 * (vx < delta1) + (uy < delta1)]
    cls[(cls == _FINITE) & ~(s_abs > delta2)] = _INFINITE
    return cls


def classify(records, delta1=DEFAULT_DELTA1, delta2=DEFAULT_DELTA2):
    """Assign an :class:`EigenClass` to each record in place.

    Applies the rule of :func:`solve` to the records' ``s_abs``,
    ``vx_norm`` and ``uy_norm``.  Returns the same list.
    """
    diag = np.array([(r.s_abs, r.vx_norm, r.uy_norm) for r in records], dtype=float)
    cls = _class_index(*diag.reshape(-1, 3).T, delta1, delta2)
    for r, c in zip(records, cls.tolist()):
        r.label = _CLASSES[c]
    return records


def _diagnostics(dec: EigDecomposition, Bt, U, V):
    """Arrays |y^H B~ x|, ||V^H x|| and ||U^H y|| over the eigenpairs.

    Three matrix products (B~ X, V^H X, U^H Y) cover every eigenpair at
    once, followed by column-wise reductions.
    """
    X, Y = dec.right, dec.left
    return np.stack(
        [
            np.abs(np.einsum("ij,ij->j", Y.conj(), Bt @ X)),
            np.linalg.norm(V.conj().T @ X, axis=0),
            np.linalg.norm(U.conj().T @ Y, axis=0),
        ]
    )


def _has_collision(lams, cls, spec, delta1):
    """True when a prescribed gamma collides with another eigenvalue.

    Two symptoms are checked.  A near collision leaves the true
    eigenvalue classified and within 10*delta1 of some gamma.  An exact
    (or very close) collision instead contaminates the eigenvectors of
    both copies, so no finite-true eigenvalue survives near gamma; that
    case shows up as more eigenvalues clustering at gamma than the
    multiplicity of gamma among the prescribed values.  ``hypot`` of the
    parts matches scalar complex ``abs`` bit for bit; ``np.abs`` does not.
    """
    tol = 10 * delta1
    values = np.array([e.value for e in lams], dtype=np.complex128)
    gammas = spec.gammas
    for g in gammas[~np.isinf(gammas)]:
        d = values - g
        near = np.hypot(d.real, d.imag) < tol
        if np.any(near & (cls == _FINITE)) or np.sum(near) > np.sum(np.abs(gammas - g) < tol):
            return True
    return False


def _extreme(values, mask, pick):
    return float(pick(values[mask])) if mask.any() else None


def with_defaults(opts: SolveOptions | None, rng):
    """``opts`` or the default options, and ``rng`` or a generator seeded by ``opts.seed``."""
    opts = opts or SolveOptions()
    return opts, np.random.default_rng(opts.seed) if rng is None else rng


def _prepare(p: Pencil, opts: SolveOptions | None, rng):
    """Default ``opts`` and ``rng``, squarify and scale ``p`` and estimate its normal rank."""
    opts, rng = with_defaults(opts, rng)
    ps = scale(squarify(p))
    return opts, rng, ps, normal_rank(ps, rng, tol=opts.rank_tol)


def solve(p: Pencil, opts: SolveOptions | None = None, rng=None) -> SolveResult:
    """Compute and classify the eigenvalues of a (possibly singular) pencil.

    The pipeline squarifies and scales the input, estimates the normal
    rank, applies one rank-completing perturbation, solves the perturbed
    regular pencil with a dense QZ-based solver, classifies every
    eigenvalue from the eigenvector orthogonality diagnostics, and
    back-scales the eigenvalues to the original pencil.

    A regular input (rank defect k = 0) is solved unperturbed: with no
    U and V every eigenvector passes the orthogonality test, so its
    eigenvalues are split into finite/infinite by |s| alone.

    When a prescribed eigenvalue happens to land within ``10 * delta1``
    of a finite true eigenvalue the perturbation is re-randomized (up to
    ``opts.max_retries`` times); if the collision persists the result is
    returned with ``collision_warning`` set.  The check runs whenever
    k > 0, so ``max_retries=0`` checks once and flags a collision.
    """
    opts, rng, ps, report = _prepare(p, opts, rng)
    n, k = ps.shape[0], report.k
    spec, pt = None, ps
    U = V = np.zeros((n, 0), dtype=np.complex128)
    collision_warning = False
    for _ in range(opts.max_retries + 1):
        if k:
            spec = make_perturbation(n, k, opts, rng)
            pt, U, V = perturb(ps, spec), spec.U, spec.V
        dec = generalized_eig(pt.A, pt.B)
        diag = _diagnostics(dec, pt.B, U, V)
        cls = _class_index(*diag, opts.delta1, opts.delta2)
        lams = dec.eigenvalues()
        if not k or not _has_collision(lams, cls, spec, opts.delta1):
            break
    else:
        collision_warning = True

    s_abs, vx, uy = diag
    lams = [e.rescaled(ps.scale_alpha, ps.scale_beta) for e in lams]
    values = np.array([e.value for e in lams], dtype=np.complex128)
    rows, labels = diag.T.tolist(), [_CLASSES[c] for c in cls.tolist()]
    records = [
        EigenRecord(lams[i], dec.right[:, i], dec.left[:, i], *rows[i], label=labels[i])
        for i in np.lexsort((values.imag, values.real, cls)).tolist()
    ]
    zeta = np.maximum(vx, uy)
    true = (cls == _FINITE) | (cls == _INFINITE)
    return SolveResult(
        records=records,
        finite_true=[r for r in records if r.label is EigenClass.FINITE_TRUE],
        nrank_report=report,
        spec_used=spec,
        gap_report=GapReport(
            max_true_zeta=_extreme(zeta, true, np.max),
            min_nontrue_zeta=_extreme(zeta, ~true, np.min),
            max_infinite_s=_extreme(s_abs, cls == _INFINITE, np.max),
            min_finite_s=_extreme(s_abs, cls == _FINITE, np.min),
        ),
        collision_warning=collision_warning,
    )


@dataclass
class IntersectionResult:
    """Outcome of the two-perturbation intersection baseline.

    ``matches`` holds every greedily matched pair of eigenvalues from
    the two independently perturbed solves together with its chordal
    distance; ``eigenvalues`` extracts the midpoints of the finite
    matches below ``tol``.  The finite/infinite discrimination of this
    historical method is known to be unreliable, which is exactly why
    the eigenvector-based classification of :func:`solve` supersedes it.
    """

    eigenvalues: list
    matches: list
    tol: float


def solve_by_intersection(
    p: Pencil, opts: SolveOptions | None = None, rng=None, match_tol=None
) -> IntersectionResult:
    """Classical baseline: intersect the spectra of two perturbed pencils.

    Two independent rank-completing perturbations are applied; every
    eigenvalue of the first perturbed pencil is greedily matched to the
    nearest unmatched eigenvalue of the second in the chordal metric.
    Pairs closer than ``match_tol`` (default sqrt(EPS)) are accepted.
    """
    opts, rng, ps, report = _prepare(p, opts, rng)
    if match_tol is None:
        match_tol = DEFAULT_MATCH_TOL
    k = report.k
    spectra = []
    for _ in range(2):
        pt = perturb(ps, make_perturbation(ps.shape[0], k, opts, rng)) if k else ps
        dec = generalized_eig(pt.A, pt.B)
        spectra.append(
            [e.rescaled(ps.scale_alpha, ps.scale_beta) for e in dec.eigenvalues()]
        )

    matches = greedy_match(*spectra, chordal_distance)
    eigenvalues = [
        (a.value + b.value) / 2.0
        for a, b, d in matches
        if d < match_tol and not a.is_infinite and not b.is_infinite
    ]
    return IntersectionResult(eigenvalues=eigenvalues, matches=matches, tol=float(match_tol))

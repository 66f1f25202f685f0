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
import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .matrix_core import (
    EPS,
    EigDecomposition,
    _lambda_order,
    _quotients,
    as_cmatrix,
    generalized_eig,
    greedy_match,
    random_orthonormal,
)
from .pencil import NormalRankReport, Pencil, _derived, _stack, normal_rank, scale, squarify

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
    "solve",
    "solve_by_intersection",
]

DEFAULT_DELTA1 = math.sqrt(EPS)
DEFAULT_DELTA2 = 100.0 * EPS
DEFAULT_MATCH_TOL = math.sqrt(EPS)


def _match_tol(value, name):
    """The matching tolerance ``value``, ``DEFAULT_MATCH_TOL`` for None; NaN or negative raises."""
    if value is None:
        return DEFAULT_MATCH_TOL
    if not value >= 0:
        raise ValueError(f"{name} must be a nonnegative number")
    return value


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
    the prescribed eigenvalues land in [1/2, 2].  A field of the wrong
    type or range raises ``ValueError`` naming it; that the two ``gamma``
    vectors have k entries each is checked by :func:`make_perturbation`,
    which knows k.
    """

    tau: float = 1e-2
    delta1: float = DEFAULT_DELTA1
    delta2: float = DEFAULT_DELTA2
    seed: int | None = None
    gamma: tuple | None = None
    max_retries: int = 3
    rank_tol: object = "auto"

    def __post_init__(self):
        if not (isinstance(self.tau, numbers.Complex) and np.isfinite(self.tau) and self.tau != 0):
            raise ValueError("tau must be finite and nonzero")
        for name in ("delta1", "delta2"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 0 < value < math.inf):
                raise ValueError(f"{name} must be a positive real number")
        if not isinstance(self.max_retries, numbers.Integral) or self.max_retries < 0:
            raise ValueError("max_retries must be a nonnegative integer")
        if not (self.rank_tol == "auto" if isinstance(self.rank_tol, str) else
                isinstance(self.rank_tol, numbers.Real) and 0 <= self.rank_tol < math.inf):
            raise ValueError('rank_tol must be "auto" or a finite nonnegative real number')
        if not (self.gamma is None or isinstance(self.gamma, (tuple, list, np.ndarray))
                and len(self.gamma) == 2 and all(np.ndim(g) == 1 for g in self.gamma)):
            raise ValueError("gamma must be None or a pair (dA, dB) of 1-D vectors")
        if not (self.seed is None or isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError("seed must be None or a nonnegative integer")


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

    ``value`` is the eigenvalue of the original pencil, ``inf`` where
    infinite; the diagnostics ``s_abs = |y^H B~ x|``,
    ``vx_norm = ||V^H x||`` and ``uy_norm = ||U^H y||`` refer to the
    scaled perturbed problem that was actually solved.
    ``zeta = max(vx_norm, uy_norm)``.
    """

    value: complex
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
    def is_infinite(self):
        return math.isinf(self.value.real)


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


_CLASSES = list(EigenClass)
_FINITE, _INFINITE = _CLASSES.index(EigenClass.FINITE_TRUE), _CLASSES.index(EigenClass.INFINITE_TRUE)
# class of each sign pattern (||V^H x|| < delta1, ||U^H y|| < delta1) at 2 * vx_small + uy_small
_PATTERN_CLASS = np.array(
    [_CLASSES.index(EigenClass[c]) for c in ("PRESCRIBED", "RANDOM_LEFT", "RANDOM_RIGHT", "FINITE_TRUE")]
)


@dataclass
class SolveResult:
    """Everything :func:`solve` learned about one pencil.

    The classified spectrum is held as arrays, in record order (by class,
    then by the real and imaginary parts of the value):

    * ``eig``: the eigenvalues and eigenvectors of the scaled perturbed
      pencil that was solved, as :func:`generalized_eig` returned them;
    * ``back_scale``: the factors ``(scale_alpha, scale_beta)`` that map
      those homogeneous pairs to the original pencil;
    * ``values``: the eigenvalues of the original pencil, ``inf`` where
      infinite;
    * ``diagnostics``: the rows ``|s|``, ``||V^H x||`` and ``||U^H y||``;
    * ``classes``: each eigenpair's index into ``list(EigenClass)``.

    ``records`` and ``finite_true`` are built from these arrays on first
    use.
    """

    eig: EigDecomposition
    back_scale: tuple
    values: np.ndarray
    diagnostics: np.ndarray
    classes: np.ndarray
    nrank_report: NormalRankReport
    spec_used: PerturbationSpec | None
    gap_report: GapReport
    collision_warning: bool = False

    @functools.cached_property
    def records(self):
        """One :class:`EigenRecord` per eigenpair, in record order."""
        e, rows = self.eig, self.diagnostics.T.tolist()
        return [
            EigenRecord(v, e.right[:, i], e.left[:, i], *rows[i], label=_CLASSES[c])
            for i, (v, c) in enumerate(zip(self.values.tolist(), self.classes.tolist()))
        ]

    @functools.cached_property
    def finite_true(self):
        return [r for r in self.records if r.label is EigenClass.FINITE_TRUE]

    @property
    def finite_true_values(self):
        return self.values[self.classes == _FINITE].tolist()


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
    """Apply the rank-completing perturbation to a square pencil.

    The sums are not validated again; :func:`generalized_eig` rejects a
    non-finite one (a ``tau`` or ``gamma`` near overflow).
    """
    if not p.is_square:
        raise ValueError("perturb requires a square pencil; squarify first")
    n = p.shape[0]
    if spec.U.shape[0] != n:
        raise ValueError(f"perturbation built for dimension {spec.U.shape[0]}, pencil has {n}")
    E = (spec.U * spec.dA) @ spec.V.conj().T
    F = (spec.U * spec.dB) @ spec.V.conj().T
    return _derived(p, A=p.A + spec.tau * E, B=p.B + spec.tau * F)


def _perturbed_eig(p: Pencil, k, opts: SolveOptions, rng):
    """One perturb-and-QZ step on the square pencil ``p`` of rank defect k.

    Returns the perturbation drawn from ``rng`` (None when k = 0, where
    ``p`` is solved as it is), the :func:`generalized_eig` decomposition
    of the perturbed pencil and its B~.  :func:`make_perturbation`,
    :func:`perturb` and :func:`generalized_eig` are looked up in this
    module when the step runs, where a tracer may have wrapped them.
    """
    spec = make_perturbation(p.shape[0], k, opts, rng) if k else None
    pt = perturb(p, spec) if k else p
    return spec, generalized_eig(pt.A, pt.B), pt.B


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


def _diagnostics(X, Y, Bt, U, V):
    """Arrays |y^H B~ x|, ||V^H x|| and ||U^H y|| over the eigenpairs, shape (m, 3, n).

    Each argument stacks one matrix per pencil: the right and left
    eigenvector columns, the perturbed B and the factors U and V.  Three
    stacked matrix products (B~ X, V^H X, U^H Y) cover every eigenpair
    at once, followed by column-wise reductions.
    """
    return np.stack(
        [
            np.abs(np.einsum("...ij,...ij->...j", Y.conj(), Bt @ X)),
            np.linalg.norm(V.conj().swapaxes(-1, -2) @ X, axis=-2),
            np.linalg.norm(U.conj().swapaxes(-1, -2) @ Y, axis=-2),
        ],
        axis=-2,
    )


def _has_collision(values, cls, spec, delta1):
    """True when a prescribed gamma collides with another eigenvalue.

    Two symptoms are checked.  A near collision leaves the true
    eigenvalue classified and within 10*delta1 of some gamma.  An exact
    (or very close) collision instead contaminates the eigenvectors of
    both copies, so no finite-true eigenvalue survives near gamma; that
    case shows up as more eigenvalues clustering at gamma than the
    multiplicity of gamma among the prescribed values.
    """
    tol = 10 * delta1
    gammas = spec.gammas
    finite = gammas[~np.isinf(gammas), None]  # one row per finite gamma
    near = np.abs(values - finite) < tol
    copies = (np.abs(gammas - finite) < tol).sum(axis=1)
    return bool(np.any(near & (cls == _FINITE)) or np.any(near.sum(axis=1) > copies))


def _extremes(values, mask, pick, initial):
    """Per row, ``pick`` of the entries under ``mask`` as a float, None where there are none."""
    got = pick(values, axis=-1, where=mask, initial=initial).tolist()
    return [x if any_ else None for x, any_ in zip(got, mask.any(axis=-1).tolist())]


def _gap_reports(diag, cls):
    """One :class:`GapReport` per pencil, from (m, 3, n) diagnostics and (m, n) classes."""
    s_abs, zeta = diag[:, 0], np.maximum(diag[:, 1], diag[:, 2])
    true = (cls == _FINITE) | (cls == _INFINITE)
    columns = (
        _extremes(zeta, true, np.max, -np.inf),
        _extremes(zeta, ~true, np.min, np.inf),
        _extremes(s_abs, cls == _INFINITE, np.max, -np.inf),
        _extremes(s_abs, cls == _FINITE, np.min, np.inf),
    )
    return [GapReport(*row) for row in zip(*columns)]


def with_defaults(opts: SolveOptions | None, rng):
    """``opts`` or the default options, and ``rng`` or a generator seeded by ``opts.seed``."""
    opts = opts or SolveOptions()
    return opts, np.random.default_rng(opts.seed) if rng is None else rng


def _prepare(pencils, opts: SolveOptions | None, rngs):
    """Default ``opts`` and each generator, squarify and scale the pencils, probe their ranks."""
    opts = opts or SolveOptions()
    rngs = [with_defaults(opts, r)[1] for r in rngs]
    if len(rngs) != len(pencils) or len({id(r) for r in rngs}) < len(rngs):
        raise ValueError("a stack of pencils needs one distinct generator per pencil")
    ps = scale([squarify(q) for q in pencils])
    return opts, rngs, ps, normal_rank(ps, rngs, tol=opts.rank_tol)


def solve(p, opts: SolveOptions | None = None, rng=None):
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

    ``p`` may also be a list of same-shaped pencils, with ``rng`` a list
    of as many distinct generators (or None: each pencil gets a generator
    seeded by ``opts.seed``).  The result is then a list with one
    :class:`SolveResult` per pencil, equal bit for bit to
    ``solve(p[i], opts, rng[i])``: each pencil draws its probes, its
    perturbations and its retries from its own generator, in the order a
    solve of that pencil alone draws them.  Scaling, the rank probes (one
    SVD call), the diagnostics and the classification run once over the
    whole stack; the perturbation and the QZ run pencil by pencil.  A
    single pencil is solved as a stack of one.
    """
    if isinstance(p, Pencil):
        return solve([p], opts, [rng])[0]
    pencils = list(p)
    if not pencils:
        return []
    rngs = [None] * len(pencils) if rng is None else list(rng)
    opts, rngs, ps, reports = _prepare(pencils, opts, rngs)
    m, n = len(ps), ps[0].shape[0]
    ks = [r.k for r in reports]
    specs, decs, Bts = [None] * m, [None] * m, [None] * m
    empty = np.zeros((n, 0), dtype=np.complex128)
    UV = [(empty, empty)] * m
    diag, cls = np.empty((m, 3, n)), np.empty((m, n), dtype=int)
    todo = list(range(m))
    for _ in range(opts.max_retries + 1):
        for i in todo:
            specs[i], decs[i], Bts[i] = _perturbed_eig(ps[i], ks[i], opts, rngs[i])
            if ks[i]:
                UV[i] = (specs[i].U, specs[i].V)
        for k in sorted({ks[i] for i in todo}):  # an equal k gives U and V one width
            group = [i for i in todo if ks[i] == k]
            diag[group] = _diagnostics(
                *map(_stack, zip(*((decs[i].right, decs[i].left, Bts[i], *UV[i]) for i in group)))
            )
        cls[todo] = _class_index(*diag[todo].transpose(1, 0, 2), opts.delta1, opts.delta2)
        todo = [i for i in todo
                if ks[i] and _has_collision(decs[i].values(), cls[i], specs[i], opts.delta1)]
        if not todo:
            break
    # back-scale and sort every pencil's spectrum at once, by class, then value
    back = [(q.scale_alpha, q.scale_beta) for q in ps]
    scales = np.array(back)[:, :, None]
    alpha, beta = np.array([e.alpha for e in decs]), np.array([e.beta for e in decs])
    values = _quotients(scales[:, 0] * alpha, scales[:, 1] * beta)
    order = np.lexsort((values.imag, values.real, cls))  # row by row
    alpha, beta, values, cls = (np.take_along_axis(x, order, 1) for x in (alpha, beta, values, cls))
    diag = np.take_along_axis(diag, order[:, None], 2)
    return [
        SolveResult(
            eig=EigDecomposition(alpha[i], beta[i], e.right[:, order[i]], e.left[:, order[i]]),
            back_scale=back[i],
            values=values[i],
            diagnostics=diag[i],
            classes=cls[i],
            nrank_report=reports[i],
            spec_used=specs[i],
            gap_report=gaps,
            collision_warning=i in todo,
        )
        for i, (e, gaps) in enumerate(zip(decs, _gap_reports(diag, cls)))
    ]


@dataclass
class IntersectionResult:
    """Outcome of the two-perturbation intersection baseline.

    ``matches`` holds every greedily matched pair of eigenvalues from
    the two independently perturbed solves, as complex numbers (``inf``
    where infinite), together with its chordal distance, in the order of
    the first value by :func:`~singpencil.matrix_core._lambda_order`,
    rows of equal rank there (every infinite first value) by the second
    value (the distances of accepted matches are roundoff, so they would
    not give a stable order); ``eigenvalues`` extracts the midpoints of the
    finite matches below ``tol``, in the same order.  The finite/infinite
    discrimination of this historical method is known to be unreliable,
    which is exactly why the eigenvector-based classification of
    :func:`solve` supersedes it.
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
    match_tol = _match_tol(match_tol, "match_tol")
    opts, (rng,), (ps,), (report,) = _prepare([p], opts, [rng])
    decs = [_perturbed_eig(ps, report.k, opts, rng)[1] for _ in range(2)]  # both from rng, in turn
    back = (ps.scale_alpha, ps.scale_beta)
    (a1, b1), (a2, b2) = (dec.unit_pairs(back) for dec in decs)
    # chordal distance |a1 b2 - a2 b1| of the unit pairs, every pair of the two spectra at once
    chordal = np.abs(np.multiply.outer(a1, b2) - np.multiply.outer(b1, a2))
    matches = greedy_match(*(dec.values(back).tolist() for dec in decs), chordal)
    for column in (1, 0):  # by the first value, ties (every infinite one) by the second
        matches = [matches[i] for i in _lambda_order([row[column] for row in matches])]
    eigenvalues = [
        (a + b) / 2.0
        for a, b, d in matches
        if d < match_tol and not math.isinf(a.real) and not math.isinf(b.real)
    ]
    return IntersectionResult(eigenvalues=eigenvalues, matches=matches, tol=float(match_tol))

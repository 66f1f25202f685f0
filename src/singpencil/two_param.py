"""Singular two-parameter eigenvalue problems and their applications.

A two-parameter eigenvalue problem (2EP) couples two matrix families

    (A1 + lambda B1 + mu C1) x1 = 0,
    (A2 + lambda B2 + mu C2) x2 = 0,

and asks for the pairs (lambda, mu) admitting nonzero x1, x2.  The
operator determinants

    Delta0 = B1 (x) C2 - C1 (x) B2,
    Delta1 = C1 (x) A2 - A1 (x) C2,
    Delta2 = A1 (x) B2 - B1 (x) A2,

turn the 2EP into the coupled pencils Delta1 z = lambda Delta0 z and
Delta2 z = mu Delta0 z on decomposable tensors z = x1 (x) x2.  For the
problems of interest here both pencils are singular, so the lambda
components come out of the rank-completing-perturbation solver.  For
each lambda the mu candidates are the eigenvalues of the one-parameter
pencil (A_1 + lambda B_1) + mu C_1; the eigenvectors x, y of that
lambda in the (Delta1, Delta0) solve pick one of them when y^H Delta2 x
= mu y^H Delta0 x holds for it alone, and otherwise the candidates are
matched with those of the second equation.  When every matrix is real
the solutions come in conjugate pairs, and only one member of each pair
is searched; the other takes its conjugate.

Two applications are layered on top: finding all lambda where A + lambda B
has a double eigenvalue (via a linear 2EP whose second equation holds a
Jordan chain of length 2), and solving systems of two bivariate
polynomials given in determinantal form.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import solver
from .matrix_core import EPS, _lambda_order, as_cmatrix, greedy_match, rank_with_tol
from .pencil import Pencil, _derived, _read_json, _write_json, read_matrix, write_matrix
from .solver import _FINITE, _INFINITE, DEFAULT_MATCH_TOL, SolveOptions, _match_tol, solve, with_defaults

__all__ = [
    "TwoParamProblem",
    "DeltaTriple",
    "Eigenpair2EP",
    "DoubleEigResult",
    "operator_determinants",
    "pair_mu_candidates",
    "solve_2ep",
    "double_eig_linearization",
    "double_eig",
    "read_problem",
    "write_problem",
]


@dataclass
class TwoParamProblem:
    """Six matrices defining the coupled system (A_i + lambda B_i + mu C_i) x_i = 0."""

    A1: np.ndarray
    B1: np.ndarray
    C1: np.ndarray
    A2: np.ndarray
    B2: np.ndarray
    C2: np.ndarray

    def __post_init__(self):
        for name in _MANIFEST_KEYS:
            setattr(self, name, as_cmatrix(getattr(self, name), name))
        for i in (1, 2):
            a, b, c = self.equation(i)
            if not (a.shape == b.shape == c.shape) or a.shape[0] != a.shape[1]:
                raise ValueError(
                    f"equation {i}: A{i}, B{i}, C{i} must be square and of equal size"
                )

    def equation(self, i):
        """The matrices (A_i, B_i, C_i) of equation i, 1 or 2; any other i raises ValueError."""
        if i not in (1, 2):
            raise ValueError(f"equation index i must be 1 or 2, got {i!r}")
        return (self.A1, self.B1, self.C1) if i == 1 else (self.A2, self.B2, self.C2)

    def evaluate(self, i, lam, mu):
        """The matrix A_i + lambda B_i + mu C_i."""
        a, b, c = self.equation(i)
        return a + lam * b + mu * c


# the six matrix names, which a manifest maps to its files
_MANIFEST_KEYS = tuple(f.name for f in fields(TwoParamProblem))


def _residuals(p: TwoParamProblem, lams, mus):
    """Smallest singular value of each evaluated matrix at every pair (lams[t], mus[t]).

    That is the norm of the best residual over unit vectors, how far the
    pair is from solving each equation; one SVD call per equation, on the
    stack of every pair's :meth:`TwoParamProblem.evaluate` matrix.
    """
    lam, mu = lams[:, None, None], mus[:, None, None]
    return [np.linalg.svd(a + lam * b + mu * c, compute_uv=False)[:, -1]
            for a, b, c in (p.equation(1), p.equation(2))]


@dataclass
class DeltaTriple:
    """Operator determinants Delta0, Delta1, Delta2 of one 2EP."""

    D0: np.ndarray
    D1: np.ndarray
    D2: np.ndarray


@dataclass
class Eigenpair2EP:
    """One accepted eigenvalue pair with its acceptance diagnostics.

    mu_discrepancy is the distance |mu^(1) - mu^(2)| between the two
    independently computed mu candidates that were averaged into mu.  For
    a lambda whose mu the core eigenvectors decided (see
    :func:`solve_2ep`) it is the largest distance between the equation-1
    candidates averaged into mu, the copies of a multiple mu, and 0.0 for
    a single one.  residual1/residual2 are the smallest singular values
    of the two evaluated matrices at (lam, mu).
    """

    lam: complex
    mu: complex
    mu_discrepancy: float
    residual1: float
    residual2: float


def operator_determinants(p: TwoParamProblem) -> DeltaTriple:
    """The Kronecker-product operator determinants of the 2EP.

    Each Kronecker product X (x) Y is the broadcast outer product
    X[i, j] Y[k, l] that ``np.kron`` forms, so the bits are those of
    ``np.kron``.  Each determinant is formed in its own array and every
    subtracted product in one more: four large arrays in place of the
    nine of six ``np.kron`` calls and three differences.
    """
    return DeltaTriple(*_kron_differences(
        (p.B1, p.C2, p.C1, p.B2), (p.C1, p.A2, p.A1, p.C2), (p.A1, p.B2, p.B1, p.A2)))


def _kron_differences(*factors):
    """X1 (x) Y2 - Y1 (x) X2 for each (X1, Y2, Y1, X2) of ``factors``, as a list.

    Formed as :func:`operator_determinants` describes; X1 and Y1 are
    n1 x n1, Y2 and X2 n2 x n2.
    """
    n1, n2 = factors[0][0].shape[0], factors[0][1].shape[0]
    term = np.empty((n1, n2, n1, n2), np.complex128)
    out = []
    for X1, Y2, Y1, X2 in factors:
        D = np.multiply(X1[:, None, :, None], Y2[None, :, None, :])
        np.subtract(D, np.multiply(Y1[:, None, :, None], X2[None, :, None, :], out=term), out=D)
        out.append(D.reshape(n1 * n2, n1 * n2))
    return out


def pair_mu_candidates(mus1, mus2):
    """Greedy nearest matching of two candidate lists by ``|mu1 - mu2|``.

    Returns ``(mu1, mu2, discrepancy)`` triples, the candidates as Python
    complex numbers, sorted by ascending discrepancy, as
    :func:`~singpencil.matrix_core.greedy_match` does.  The distances are
    :func:`_abs`'s, with the bits of Python's complex ``abs``, for the
    whole outer array at once.
    """
    xs, ys = [complex(m) for m in mus1], [complex(m) for m in mus2]
    d = np.subtract.outer(np.array(xs, dtype=np.complex128), np.array(ys, dtype=np.complex128))
    return greedy_match(xs, ys, _abs(d))


def _abs(z):
    """``|z|`` with the bits of Python's complex ``abs`` (``np.abs`` may differ in the last bit)."""
    return np.hypot(z.real, z.imag)


def _cluster_values(values, tol):
    """Collapse numerically repeated values, keeping one representative each.

    In the order of the real, then the imaginary parts, a value is kept
    unless it lies within tol max(1, |r|) of a representative r kept
    before it.  One array of distances covers every pair; only the rows
    with a close earlier value are walked in order.
    """
    z = np.asarray(values, dtype=np.complex128)
    order = np.lexsort((z.imag, z.real))
    z = z[order]
    close = _abs(np.subtract.outer(z, z)) <= tol * np.maximum(1.0, _abs(z))
    close &= np.tri(len(z), k=-1, dtype=bool)  # row v, column r: r sorts before v
    keep = np.ones(len(z), dtype=bool)
    for i in np.flatnonzero(close.any(axis=1)).tolist():
        keep[i] = not (close[i] & keep).any()
    return [values[i] for i in order[keep].tolist()]


def _conjugate_partners(values, tol, inputs):
    """Conjugate pairs among ``values`` as {partner index: representative index}.

    A problem whose ``inputs`` matrices are all real is solved by z
    exactly when it is solved by conj(z), so one member of each pair
    stands for both.  Only finite values take part.  A value with
    |Im z| <= tol max(1, |z|) is real and stands for itself; each value
    below the real axis is matched one to one, closest first, with a
    value above it whose conjugate lies within tol max(1, |z|) of it, and
    the upper value is the representative.  A value left unmatched
    stands for itself.  ``inputs`` are the matrices of the problem, and a
    nonzero imaginary part in any of them gives no partners.
    """
    if any(np.any(m.imag) for m in inputs):
        return {}
    z = np.asarray(values, dtype=np.complex128)
    bound = tol * np.maximum(1.0, np.abs(z))
    off = np.isfinite(z) & (np.abs(z.imag) > bound)
    lower, upper = np.flatnonzero(off & (z.imag < 0)), np.flatnonzero(off & (z.imag > 0))
    d = np.abs(np.subtract.outer(z[lower], z[upper].conj()))
    d[d > bound[lower, None]] = np.inf
    matched = greedy_match(lower.tolist(), upper.tolist(), d)
    return {lo: up for lo, up, dist in matched if dist < math.inf}


# The bounds of _scored_mus.  On double_eig_problem seeds 1-20 the best scores were
# <= 1.4e-5 and the rivals >= 7.2e4 times worse; on the bivariate cubic the best
# scores are 0.83-1.0 with rivals within 1.2x, so the cubic falls back to the match.
_SCORE_BOUND = 1e-3
_SCORE_MARGIN = 1e3
_MU_COPY_TOL = 1e-4


def _scored_mus(core, deltas, lams, mus1, tol):
    """Per lambda, (mu, discrepancy) where the core eigenvectors decide mu, else None.

    A lambda takes part when it is the only finite true value of the
    core solve ``core`` within ``tol`` max(1, |lambda|) of itself.  Its
    record's eigenvectors x, y give a = y^H Delta2 x and b = y^H Delta0 x
    (one product per Delta for all lambdas), and each of its equation-1
    candidates the score |a - mu b| / (|a| + |mu b|), which vanishes at
    the mu of the regular part.  When the lambda is decided, mu is the
    mean of the candidates within _MU_COPY_TOL max(1, |best|) of the
    best one, and the discrepancy their largest pairwise distance.  The
    candidates of all lambdas are scored as the rows of one array.
    """
    values = np.asarray(core.finite_true_values, dtype=np.complex128)
    z = np.asarray(lams, dtype=np.complex128)
    near = np.abs(np.subtract.outer(z, values)) <= tol * np.maximum(1.0, np.abs(z))[:, None]
    decided = [None] * len(lams)
    take = [t for t, m1s in enumerate(mus1) if m1s and near[t].sum() == 1]
    if not take:
        return decided
    cols = np.flatnonzero(core.classes == _FINITE)[near[take].argmax(axis=1)]
    X, Y = core.eig.right[:, cols], core.eig.left[:, cols]
    a, b = np.einsum("ij,kij->kj", Y.conj(), np.stack([deltas.D2 @ X, deltas.D0 @ X]))[:, :, None]
    # every lambda's candidates as one row, padded with NaN, whose scores are set to inf
    width = max(len(mus1[t]) for t in take)
    mus = np.full((len(take), width), np.nan, dtype=np.complex128)
    for row, t in enumerate(take):
        mus[row, :len(mus1[t])] = mus1[t]
    pad = np.isnan(mus)
    with np.errstate(invalid="ignore"):
        score = np.abs(a - mus * b) / (_abs(a) + np.abs(mus * b))
    score[pad] = np.inf
    rows = np.arange(len(take))
    best = np.argmin(score, axis=1)  # a NaN score is picked first, as for a lone row
    top, low = mus[rows, best][:, None], score[rows, best][:, None]
    copy = np.abs(mus - top) <= _MU_COPY_TOL * np.maximum(1.0, _abs(top))
    won = (low[:, 0] <= _SCORE_BOUND) & ((score >= _SCORE_MARGIN * low) | copy | pad).all(axis=1)
    for row in np.flatnonzero(won).tolist():
        copies = [mus1[take[row]][j] for j in np.flatnonzero(copy[row]).tolist()]
        spread = max((abs(u - v) for u, v in itertools.combinations(copies, 2)), default=0.0)
        decided[take[row]] = (sum(copies) / len(copies), spread)
    return decided


def _mu_candidates(p: TwoParamProblem, i, lams, opts, streams):
    """Per lambda, the finite mu with (A_i + lambda B_i + mu C_i) x = 0, or None when mu is free.

    The pencils (A_i + lambda B_i, -C_i) of every lambda go through one
    stacked :func:`solve`, each drawing from its lambda's stream.  They
    are derived from one checked pencil (A_i, -C_i), so no matrix is
    checked again; an overflowing A_i + lambda B_i stops in
    :func:`~singpencil.pencil.scale`.  A zero C_i makes equation i
    independent of mu: at a lambda where the fixed matrix is singular
    every mu works (None), elsewhere no mu works (an empty list).
    """
    a, b, c = p.equation(i)
    fixed = a + np.array(lams, dtype=np.complex128)[:, None, None] * b  # one matrix per lambda
    if np.linalg.norm(c, 1) == 0.0:
        return [None if rank_with_tol(f) < f.shape[0] else [] for f in fixed]
    base = Pencil(A=a, B=-c)
    return [r.finite_true_values for r in solve([_derived(base, A=f) for f in fixed], opts, streams)]


def solve_2ep(
    p: TwoParamProblem,
    delta=None,
    opts: SolveOptions | None = None,
    rng=None,
    unique_lambda=False,
):
    """Finite regular eigenvalues of a (possibly singular) 2EP.

    The lambda components are the finite true eigenvalues of the pencil
    (Delta1, Delta0).  For each distinct lambda the mu candidates of
    equation 1 are scored with the eigenvectors x, y of lambda's record
    in that solve: with a = y^H Delta2 x and b = y^H Delta0 x,
    score(mu) = |a - mu b| / (|a| + |mu b|), which vanishes at the mu of
    the regular part (Muhic & Plestenjak, ELA 2009).  A lambda is
    decided when it is the only finite true value within ``delta``
    max(1, |lambda|) of itself, its best score is at most 1e-3, and every
    candidate more than 1e-4 max(1, |mu|) from the best one scores at
    least 1e3 times worse.  A decided lambda gets exactly one pair, in
    both modes: the mean of the candidates within that distance of the
    best one (the copies of a multiple mu).

    For every other lambda the candidates of the two fixed-lambda
    pencils are matched greedily by :func:`pair_mu_candidates`; a pair
    is accepted when its discrepancy is below ``delta`` (default
    sqrt(EPS)) and contributes the midpoint.  With ``unique_lambda`` only
    the first pair of that matching, the closest, is accepted, and
    unconditionally (appropriate when each eigenvalue is known to have a
    distinct lambda component).  A NaN or negative ``delta`` raises
    ``ValueError``.

    Each accepted pair carries the smallest singular values of the two
    evaluated matrices as residuals.  They certify that (lambda, mu)
    nearly solves each equation, not that mu belongs to lambda: on a
    singular 2EP a whole curve of pairs solves both equations (every
    eigenvalue of A + lambda B in :func:`double_eig_linearization`'s
    2EP), and there only the score singles out the regular mu.

    When all six matrices are real, (lambda, mu) solves the 2EP exactly
    when its conjugate does, so the lambdas are split by
    :func:`_conjugate_partners` (tolerance ``delta``): only the
    representatives are searched, and each partner gets its
    representative's pairs with lambda and mu conjugated and the same
    discrepancy and residuals.  The result of a real problem is thus
    closed under conjugation, bit for bit; a complex problem has no
    partners.

    The per-lambda searches run on independent RNG streams spawned from
    ``rng``, one per lambda, so results do not depend on evaluation
    order.  Each representative's stream serves equation 1, retries
    included, then, if the score left it undecided, equation 2; a
    decided lambda's stream serves equation 1 only, and a partner's
    stream is not used.

    Cost: one solve of the n1 n2 x n1 n2 pencil (Delta1, Delta0), one
    stacked solve of the n1 x n1 mu pencils of the representative
    lambdas (one QZ each), one product per Delta for their scores, a
    stacked solve of the n2 x n2 mu pencils of the undecided ones only
    (none when all are decided), and one stacked SVD per equation for
    the residuals of the accepted pairs.  On ``double_eig_problem(1)``
    that is 1 + 18 QZ calls.
    """
    delta = _match_tol(delta, "delta")
    opts, rng = with_defaults(opts, rng)
    deltas = operator_determinants(p)
    lam_result = solve(Pencil(A=deltas.D1, B=deltas.D0), opts, rng)
    lams = _cluster_values(lam_result.finite_true_values, delta)
    partners = _conjugate_partners(lams, delta, [getattr(p, k) for k in _MANIFEST_KEYS])
    streams = rng.spawn(len(lams))
    reps = [r for r in range(len(lams)) if r not in partners]
    rep_lams = [lams[r] for r in reps]
    mus1 = _mu_candidates(p, 1, rep_lams, opts, [streams[r] for r in reps])
    decided = _scored_mus(lam_result, deltas, rep_lams, mus1, delta)
    undecided = [t for t, d in enumerate(decided) if d is None]
    mus2 = {}
    if undecided:  # no equation-2 solve at all when the scores decide every lambda
        mus2 = dict(zip(undecided, _mu_candidates(
            p, 2, [rep_lams[t] for t in undecided], opts, [streams[reps[t]] for t in undecided])))
    accepted = []
    for t, (r, lam, m1s) in enumerate(zip(reps, rep_lams, mus1)):
        if decided[t] is not None:
            accepted.append((r, lam, *decided[t]))
            continue
        m2s = mus2[t]
        if m1s is None and m2s is None:
            continue
        # a mu-free equation accepts every mu of the other one: match that list with itself
        lists = (m2s if m1s is None else m1s, m1s if m2s is None else m2s)
        matched = pair_mu_candidates(*lists)[:1 if unique_lambda else None]
        accepted += [(r, lam, (m1 + m2) / 2.0, disc) for m1, m2, disc in matched
                     if unique_lambda or not disc >= delta]
    if not accepted:
        return []
    rows, *columns = (np.array(column) for column in zip(*accepted))  # lam, mu, discrepancy
    columns += _residuals(p, *columns[:2])
    # each partner of a representative takes its pairs with lambda and mu conjugated
    mirror = np.isin(rows, list(partners.values()))
    columns = [np.concatenate([c, c[mirror].conj()]) for c in columns]
    lam, mu = columns[:2]
    order = np.lexsort((mu.imag, mu.real, lam.imag, lam.real))
    return [Eigenpair2EP(*row) for row in zip(*(c[order].tolist() for c in columns))]


def double_eig_linearization(A, B):
    """Singular pencil whose finite regular eigenvalues are the double-eigenvalue lambdas.

    A + lambda B has a double eigenvalue mu exactly when M = A + lambda B
    - mu I has a Jordan chain of length 2 or a kernel of dimension 2, that
    is a nonzero z = (z1, z2) with M z1 = z2 and M z2 = 0 beyond the
    (x, 0) of a simple eigenvalue.  Both conditions are linear in lambda
    and mu, which gives the 2EP

        (A + lambda B - mu I) x = 0,
        ([[A, -I], [0, A]] + lambda diag(B, B) - mu I_2n) z = 0.

    The returned pair (D1, D0) consists of its operator determinants
    (Delta2, which no caller uses, is not formed); it is of size
    2 n^2 x 2 n^2 and generically has normal rank 2 n^2 - n.
    The 2EP is singular, because the second matrix is singular wherever
    the first one is (its determinant is det(M)^2): every (lambda, mu) on
    the curve det M = 0 solves both equations.  Along the curve the
    common kernel of the two equations, in the tensor space the Delta
    pencils act on, is x (x) (x, 0), of dimension one, since a simple
    eigenvalue's x is not in the range of M.  It grows exactly where
    the eigenvalue is double: there x = M z1 for some z1 (a Jordan
    chain) or M has two kernel vectors, and the extra kernel vectors are
    what the regular part of (D1, D0) holds.  So its finite eigenvalues
    are the double-eigenvalue lambdas, generically n(n-1) of them, and a
    semisimple crossing, where the eigenvalue curves of A + lambda B
    meet without a Jordan block, comes back as a cluster of lambdas.

    Jarlebring, Kvaal & Michiels (SIMAX 2011) hold the two colliding
    eigenvalues at a small fixed relative distance, which gives a 2EP
    whose solutions only approximate the double-eigenvalue lambdas and
    need an iterative refinement (the role :func:`_polish` plays here).
    Muhič & Plestenjak (LAA 2014) solve the problem exactly as a
    singular 2EP reduced to its regular part, as done here.  The squared
    condition M^2 y = 0, linearized on (y, lambda y, mu y), gives the
    3n x 3n second equation of :func:`~singpencil.gallery._double_eig_2ep` and a 3 n^2 x
    3 n^2 pencil; the chain z = (z1, z2) states the same condition with
    a 2n x 2n equation that is linear already, so the QZ works on
    (2/3)^3 of the flops, and the count of lambdas is the same.

    The pencil has an exact symmetry.  Index C^n (x) C^2n as (i, b, j),
    the flat index 2n i + n b + j of ``np.kron``; then D1 = A (x) I_2 (x)
    I - I (x) I_2 (x) A + I (x) E_01 (x) I and D0 = I (x) I_2 (x) B - B
    (x) I_2 (x) I.  The signed swap S e_(i,b,j) = (-1)^b e_(j,b,i) is an
    orthogonal involution with S D1 S = -D1 and S D0 S = -D0 exactly:
    the swap negates the Kronecker differences, and the sign (-1)^b
    negates the coupling E_01.  So each matrix maps either eigenspace of
    S into the other.  With orthonormal bases Q+ and Q- of the +1 and
    -1 eigenspaces (n^2 columns each, see :func:`_swap_basis`) the pencil
    is orthogonally equivalent to X (+) Y, with X = Q-^T (D1, D0) Q+ and
    Y = Q+^T (D1, D0) Q-, Kronecker structure included.  Generically X
    holds the whole singular part (rank defect n: n prescribed and
    n(n-1)/2 random-right and random-left values in a rank-completing
    solve) and Y is regular, with the n(n-1) double-eigenvalue lambdas
    and n infinite eigenvalues.  :func:`double_eig` solves the halves.
    """
    A = as_cmatrix(A, "A")
    B = as_cmatrix(B, "B")
    if A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise ValueError("A and B must be square and of equal size")
    I, Z = np.eye(len(A), dtype=A.dtype), np.zeros_like(A)
    C1, A2, B2 = -I, np.block([[A, -I], [Z, A]]), np.block([[B, Z], [Z, B]])
    C2 = as_cmatrix(-np.eye(2 * len(A)))  # -1 + 0j, not the -1 - 0j of -I_2n in complex
    return tuple(_kron_differences((C1, A2, A, C2), (B, C2, C1, B2)))  # Delta1, Delta0


def _swap_basis(n, sign):
    """Orthonormal basis of the ``sign`` eigenspace of the swap S of order n, as arrays (p, q, w, c).

    Column t of the basis is w[t] e_p[t] + c[t] e_q[t], in the indexing of
    :func:`double_eig_linearization`: e_p for a fixed index p = (i, b, i)
    with (-1)^b = sign (q = p, c = 0), and (e_p + sign (-1)^b e_q) /
    sqrt(2) for each p = (i, b, j) with i < j and its swap q = (j, b, i).
    """
    i, b, j = np.indices((n, 2, n)).reshape(3, -1)
    parity = 1 - 2 * b  # (-1)^b
    p = np.flatnonzero((i < j) | ((i == j) & (parity == sign)))
    pair = i[p] < j[p]
    w = np.where(pair, math.sqrt(0.5), 1.0)
    return p, ((j * 2 + b) * n + i)[p], w, np.where(pair, sign * parity[p], 0) * w


def _swap_halves(p: Pencil, n):
    """The halves [X, Y] of the linearization ``p`` of an n x n pair, as two n^2 x n^2 pencils.

    X = Q-^T p Q+ and Y = Q+^T p Q- (see :func:`double_eig_linearization`).
    Each basis column has at most two entries, so each product is a sum
    of two gathered columns, then of two gathered rows; no dense Q is
    formed.
    """
    D = np.stack([p.A, p.B])
    plus, minus = _swap_basis(n, 1), _swap_basis(n, -1)
    halves = []
    for (cp, cq, cw, cc), (rp, rq, rw, rc) in ((plus, minus), (minus, plus)):
        T = D[:, :, cp] * cw + D[:, :, cq] * cc
        H = T[:, rp] * rw[:, None] + T[:, rq] * rc[:, None]
        halves.append(Pencil(A=H[0], B=H[1]))
    return halves


def _double_eig_candidates(A, B, opts, rng):
    """The lambdas :func:`double_eig` polishes, and a thunk giving the solve of the full linearization.

    Three generators are spawned from ``rng`` on every call.  The
    singular half X of the linearization takes the paper's perturbed
    :func:`solve` on the first; the regular half Y is scaled and probed
    on the second, and its values come from one eigenvalues-only QZ
    (:func:`_regular_values`).  The halves are certified when X has no
    true value and Y has rank defect 0 and exactly n values of chordal
    size at most ``_Y_INFINITE``; the candidates are then the other
    n(n-1), the thunk solves the full linearization on the third
    generator, and ``rng``'s own stream is not advanced.  Otherwise the
    full linearization is solved with ``rng`` itself and its finite true
    values are the candidates: spawning draws nothing from ``rng``'s
    stream, so these are the values of a request that never tried the
    halves.
    """
    n = A.shape[0]
    full = Pencil(*double_eig_linearization(A, B))
    streams = rng.spawn(3)
    X, Y = _swap_halves(full, n)
    if not np.isin(solve(X, opts, streams[0]).classes, (_FINITE, _INFINITE)).any():
        values = _regular_values(Y, n, opts, streams[1])
        if values is not None:
            return values, functools.partial(solve, full, opts, streams[2])
    result = solve(full, opts, rng)
    return result.finite_true_values, lambda: result


# Y's values of chordal size |beta| / hypot(|alpha|, |beta|) at most EPS^(1/4) (1.2e-4)
# are infinite.  A defective B adds Jordan chains at infinity to Y; roundoff splits a
# chain of length m to about EPS^(1/m), which this bound still counts as infinite.
# Measured: such split values at <= 2.2e-8; Y's n true infinite values at <= 5.5e-5
# (s = 1e12 of double_eig(s A, B)); its smallest finite ones at 5.5e-4 over 300 random
# 8 x 8 pairs.
_Y_INFINITE = EPS ** 0.25


def _regular_values(Y, n, opts, rng):
    """The n(n-1) finite values of the half Y in the order of ``finite_true_values``, or None.

    Y is scaled and its normal rank probed as :func:`solve` does, with
    draws from ``rng``; a rank defect gives None.  Its pairs come from
    the eigenvalues-only mode of :func:`~singpencil.solver`'s
    ``generalized_eig`` (looked up there, where a tracer may have
    wrapped it).  The pairs of chordal size |beta| / hypot(|alpha|,
    |beta|) at most ``_Y_INFINITE`` are Y's infinite values; when there
    are not exactly n of them, as for a defective B, whose Jordan chains
    at infinity roundoff splits into small values, the result is None.
    The others are back-scaled into values as :func:`solve` does
    (:meth:`~singpencil.matrix_core.EigDecomposition.values`) and sorted
    by real, then imaginary part, ties in QZ order, as :func:`solve`
    sorts a finite true class, so that they are the values that class
    would hold.
    """
    _, _, (y,), (report,) = solver._prepare([Y], opts, [rng])
    if report.k:
        return None
    dec = solver.generalized_eig(y.A, y.B, _vectors=False)
    finite = np.abs(dec.beta) > _Y_INFINITE * np.hypot(np.abs(dec.alpha), np.abs(dec.beta))
    if finite.size - np.count_nonzero(finite) != n:
        return None
    values = dec.values((y.scale_alpha, y.scale_beta))[finite]
    return values[np.lexsort((values.imag, values.real))].tolist()


@dataclass
class DoubleEigResult:
    """Double-eigenvalue locations with their verification gaps.

    ``lambdas`` are Python complex numbers in the order of
    :func:`~singpencil.matrix_core._lambda_order`, so the two members of a
    conjugate pair of a real pencil come as (-im, +im) whichever way the
    last bits fall.
    ``gaps[i]`` is the minimal eigenvalue gap of A + lambdas[i] B
    relative to the spectral scale of that matrix; a value near zero
    certifies the double eigenvalue, a value of order one flags a
    spurious or degenerate answer.  ``solve_result`` exposes the full
    classified spectrum of the 2n^2 x 2n^2 linearization, including its
    separation diagnostics; it is computed when first read (see
    :func:`double_eig`).  ``count_warning`` is set
    when more than n(n-1) lambdas came back, more than an n x n pencil
    can have, so some are spurious.
    """

    lambdas: list
    gaps: list
    _full: object = field(repr=False)  # thunk returning solve_result
    count_warning: bool = False

    @functools.cached_property
    def solve_result(self):
        return self._full()


def double_eig(A, B, opts: SolveOptions | None = None, rng=None, refine=True):
    """All lambda such that A + lambda B has a double eigenvalue.

    Solves the two n^2 x n^2 halves of the linearization from
    :func:`double_eig_linearization`: the singular half X takes the
    rank-completing perturbation, and the regular half Y, which holds
    the generically n(n-1) finite eigenvalues, needs none, so it takes
    one eigenvalues-only QZ (Muhič & Plestenjak, LAA 2014, likewise
    solve only the regular part of the singular 2EP).  The halves are
    certified when X has no true value and Y has full normal rank and
    exactly n values within EPS^(1/4) of infinity in the chordal metric;
    the other n(n-1) are the candidates (see
    :func:`_double_eig_candidates`).  Any other outcome, as at a
    semisimple crossing, where X labels some lambdas infinite true, or
    for a defective B, whose Y has more than n infinite values, sends the request to the solve of the full
    2n^2 x 2n^2 linearization with ``rng``.  Every candidate is
    verified by recomputing the spectrum of A + lambda B.  With ``refine``
    (default) each lambda is polished by Newton steps on the squared gap
    of the colliding eigenvalue pair, which is analytic across the
    collision, until its gap is below 1e-7 of the spectral scale (at
    most 12 steps).  The
    core solve alone often gets close: at n = 8, seed 1 the unpolished
    gaps of the 31 representatives have a median of 7.2e-8 and reach
    1.9e-7, and 7 of them are above 1e-7.

    When A and B are real, A + conj(lambda) B is the conjugate of
    A + lambda B, so the lambdas are split by :func:`_conjugate_partners`
    (tolerance sqrt(EPS)): only the representatives are polished, and
    each partner gets the conjugate of its representative's lambda
    (polished or not) and the same gap.

    The result's ``solve_result`` is always the classified spectrum of
    the full linearization.  After certified halves it is computed when
    first read, from a generator spawned from ``rng`` at call time, so a
    caller that reads it pays the full QZ too, and its diagnostics
    describe that solve, not the halves that gave the lambdas.

    Every call spawns three generators from ``rng`` (advancing the
    spawn counter of its seed sequence, so a later ``rng.spawn`` gives
    other children than without this call).  Certified halves draw
    nothing from ``rng``'s own stream; a fallback draws what the full
    solve draws.

    Cost: two dense QZs of order n^2 (a quarter of the flops of one of
    order 2n^2): X's with both eigenvector sets and the diagnostics of
    :func:`solve`, Y's without eigenvectors (at n = 8 in less than half
    the time of a full solve of Y); plus the QZ of order 2n^2 after a
    failed certification, plus stacked
    n x n ``eigvals`` calls over the representative lambdas in
    lockstep: one without ``refine``, and with it two more per Newton
    step until the last lambda stops: 3 when one step suffices for
    every lambda, at most 25.  A step solves each of its lambdas twice,
    once at a shifted lambda and once at the new iterate, so at n = 8,
    seed 1 the three calls hold 93 eigensolves (31 each).
    """
    opts, rng = with_defaults(opts, rng)
    A = as_cmatrix(A, "A")
    B = as_cmatrix(B, "B")
    values, full = _double_eig_candidates(A, B, opts, rng)
    partners = _conjugate_partners(values, DEFAULT_MATCH_TOL, (A, B))
    reps = [r for r in range(len(values)) if r not in partners]
    lambdas, gaps = _polish(A, B, [values[r] for r in reps], refine)
    mirrored = [reps.index(r) for r in partners.values()]
    lambdas += [lambdas[t].conjugate() for t in mirrored]
    gaps += [gaps[t] for t in mirrored]
    order = _lambda_order(lambdas)
    return DoubleEigResult(
        lambdas=[complex(lambdas[i]) for i in order],
        gaps=[gaps[i] for i in order],
        _full=full,
        count_warning=len(order) > A.shape[0] * (A.shape[0] - 1),
    )


def _closest_pairs(W):
    """Per row of W, the indices i < j of its closest two entries, the first such (i, j) on ties.

    Returned as two index arrays; the distances are :func:`_abs`'s, those
    of Python's complex ``abs``, for the whole stack at once.
    """
    n = W.shape[1]
    d = _abs(W[:, :, None] - W[:, None, :])
    d[:, np.tri(n, dtype=bool)] = np.inf
    return np.divmod(d.reshape(len(W), -1).argmin(axis=1), n)


def _spectra(A, B, lams):
    """Eigenvalues of A + lam B for each lam, from one stacked eigensolve.

    The stack ``A + lams[:, None, None] * B`` has the bits of the per-lambda
    sums ``A + lam * B``.
    """
    return np.linalg.eigvals(A + np.array(lams, dtype=np.complex128)[:, None, None] * B)


def _track(W, mu):
    """Per row of W, the two eigenvalues closest to the pair in that row of mu."""
    rows = np.arange(len(W))
    ia = np.argmin(np.abs(W - mu[:, :1]), axis=1)
    rest = np.abs(W - mu[:, 1:])
    rest[rows, ia] = np.inf
    return np.stack([W[rows, ia], W[rows, np.argmin(rest, axis=1)]], axis=1)


def _polish(A, B, lams, refine, iters=12):
    """Verification gaps of candidate lambdas, Newton-polished first with ``refine``.

    Each finite lambda iterates on g(lambda) = (mu_a - mu_b)^2 for the
    colliding eigenvalue pair, tracked across evaluations by continuity.
    g is analytic with a simple root at the exact collision, so Newton
    converges fast; the best iterate is kept (the computed gap bottoms
    out at the eigensolver's own noise floor).  The derivative is the
    forward difference (g(lambda + h) - g(lambda)) / h, where g(lambda)
    comes from the pair already tracked at lambda.  A lambda stops once
    its best tracked gap is below 1e-7 of its best spectrum's scale
    max(1, max |w|); one that never gets there (a near-triple collision
    converges only linearly) runs all ``iters`` steps.  All lambdas step
    in lockstep: one stacked solve at lambda + h and one for the new
    iterates, whose tracked pair gives g at the next step, so a step
    costs two eigensolves per active lambda (with the first stack, 93
    for the 31 representatives of n = 8, seed 1, where a central
    difference took 124).  Closest pairs, stop bounds and gaps are
    formed on whole stacks; the Newton update of each lambda stays
    scalar, because numpy's array complex multiply and square can differ
    from the scalar ones in the last bit.  The gap is the closest-pair
    distance on the best iterate's spectrum over its spectral scale,
    never more than the best tracked gap over that scale; non-finite
    lambdas pass through with gap inf.
    """
    lams = list(lams)
    gaps = [math.inf] * len(lams)
    live = [r for r, lam in enumerate(lams) if np.isfinite(lam)]
    if not live or A.shape[0] < 2:
        return lams, gaps
    cur = [lams[r] for r in live]
    spectra = _spectra(A, B, cur)
    rows = np.arange(len(live))
    mu = np.stack([spectra[rows, i] for i in _closest_pairs(spectra)], axis=1)
    best = _abs(mu[:, 0] - mu[:, 1])
    scale = np.maximum(1.0, np.abs(spectra).max(axis=1))
    h = [1e-5 * max(1.0, abs(x)) for x in cur]
    active = list(range(len(live))) if refine else []
    for _ in range(iters):
        if not active:
            break
        pm = _track(_spectra(A, B, [cur[k] + h[k] for k in active]), mu[active])
        stepped = []
        for t, k in enumerate(active):
            g = (mu[k, 0] - mu[k, 1]) ** 2
            dg = ((pm[t, 0] - pm[t, 1]) ** 2 - g) / h[k]
            if dg != 0.0:
                cur[k] = cur[k] - g / dg
                stepped.append(k)
        if not stepped:
            break
        stepped = np.array(stepped)
        W = _spectra(A, B, [cur[k] for k in stepped])
        mu[stepped] = _track(W, mu[stepped])
        gap = _abs(mu[stepped, 0] - mu[stepped, 1])
        better = gap < best[stepped]
        ks = stepped[better]
        best[ks], spectra[ks] = gap[better], W[better]
        scale[ks] = np.maximum(1.0, np.abs(W[better]).max(axis=1))
        for k in ks.tolist():
            lams[live[k]] = cur[k]
        active = stepped[best[stepped] >= 1e-7 * scale[stepped]].tolist()
    i, j = _closest_pairs(spectra)
    for k, gap in enumerate((_abs(spectra[rows, i] - spectra[rows, j]) / scale).tolist()):
        gaps[live[k]] = gap
    return lams, gaps


def read_problem(manifest_path) -> TwoParamProblem:
    """Read a 2EP from a JSON manifest referencing six Matrix Market files.

    The manifest maps each of A1, B1, C1, A2, B2, C2 to a file path,
    resolved relative to the manifest's own directory.
    """
    doc = _read_json(manifest_path)
    if not isinstance(doc, dict):
        raise ValueError(f"{manifest_path}: manifest must be a JSON object")
    missing = [k for k in _MANIFEST_KEYS if k not in doc]
    if missing:
        raise ValueError(f"{manifest_path}: manifest missing entries {missing}")
    if not all(isinstance(doc[k], str) for k in _MANIFEST_KEYS):
        raise ValueError(f"{manifest_path}: every manifest entry must be a string path")
    base = os.path.dirname(os.path.abspath(manifest_path))
    mats = {k: read_matrix(os.path.join(base, doc[k])) for k in _MANIFEST_KEYS}
    return TwoParamProblem(**mats)


def write_problem(p: TwoParamProblem, directory, manifest_name="problem.json"):
    """Write a 2EP as six Matrix Market files plus a JSON manifest."""
    os.makedirs(directory, exist_ok=True)
    doc = {}
    for k in _MANIFEST_KEYS:
        fname = f"{k}.mtx"
        write_matrix(os.path.join(directory, fname), getattr(p, k))
        doc[k] = fname
    path = os.path.join(directory, manifest_name)
    _write_json(path, doc)
    return path

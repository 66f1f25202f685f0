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
components come out of the rank-completing-perturbation solver, and for
each lambda the matching mu is found by intersecting the mu-spectra of
the two one-parameter pencils (A_i + lambda B_i) + mu C_i.

Two applications are layered on top: finding all lambda where A + lambda B
has a double eigenvalue (via a quadratic 2EP linearization), and solving
systems of two bivariate polynomials given in determinantal form.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .matrix_core import as_cmatrix, greedy_match, kron, rank_with_tol
from .pencil import Pencil, csv_text, read_matrix, write_matrix
from .solver import DEFAULT_MATCH_TOL, SolveOptions, solve, with_defaults

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
    "solutions_to_csv",
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
        for name in ("A1", "B1", "C1", "A2", "B2", "C2"):
            setattr(self, name, as_cmatrix(getattr(self, name), name))
        for i, (a, b, c) in enumerate(((self.A1, self.B1, self.C1), (self.A2, self.B2, self.C2)), 1):
            if not (a.shape == b.shape == c.shape) or a.shape[0] != a.shape[1]:
                raise ValueError(
                    f"equation {i}: A{i}, B{i}, C{i} must be square and of equal size"
                )

    @property
    def n1(self):
        return self.A1.shape[0]

    @property
    def n2(self):
        return self.A2.shape[0]

    def evaluate(self, i, lam, mu):
        """The matrix A_i + lambda B_i + mu C_i."""
        a, b, c = ((self.A1, self.B1, self.C1), (self.A2, self.B2, self.C2))[i - 1]
        return a + lam * b + mu * c

    def residuals(self, lam, mu):
        """Smallest singular value of each evaluated matrix at (lambda, mu).

        Equals the norm of the best achievable residual over unit
        vectors, i.e. how far the pair is from exactly solving each
        equation.
        """
        return tuple(
            float(np.linalg.svd(self.evaluate(i, lam, mu), compute_uv=False)[-1])
            for i in (1, 2)
        )


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
    independently computed mu candidates that were averaged into mu;
    residual1/residual2 are the smallest singular values of the two
    evaluated matrices at (lam, mu).
    """

    lam: complex
    mu: complex
    mu_discrepancy: float
    residual1: float
    residual2: float


def operator_determinants(p: TwoParamProblem) -> DeltaTriple:
    """The Kronecker-product operator determinants of the 2EP."""
    return DeltaTriple(
        D0=kron(p.B1, p.C2) - kron(p.C1, p.B2),
        D1=kron(p.C1, p.A2) - kron(p.A1, p.C2),
        D2=kron(p.A1, p.B2) - kron(p.B1, p.A2),
    )


def pair_mu_candidates(mus1, mus2):
    """Greedy nearest matching of two candidate lists by ``|mu1 - mu2|``.

    Returns ``(mu1, mu2, discrepancy)`` triples sorted by ascending
    discrepancy, as :func:`~singpencil.matrix_core.greedy_match` does.
    """
    return greedy_match(
        [complex(m) for m in mus1], [complex(m) for m in mus2], lambda a, b: abs(a - b)
    )


def _cluster_values(values, tol):
    """Collapse numerically repeated values, keeping one representative each."""
    reps = []
    for v in sorted(values, key=lambda z: (z.real, z.imag)):
        if not any(abs(v - r) <= tol * max(1.0, abs(r)) for r in reps):
            reps.append(v)
    return reps


def _mu_candidates(a_fixed, c, opts, rng):
    """Finite mu with (a_fixed + mu c) x = 0, or None when mu is unconstrained.

    A zero C makes the equation independent of mu: if the fixed matrix
    is singular every mu works (wildcard, returns None), otherwise no mu
    works (empty list).
    """
    if np.linalg.norm(c, 1) == 0.0:
        if rank_with_tol(a_fixed) < a_fixed.shape[0]:
            return None
        return []
    res = solve(Pencil(A=a_fixed, B=-c), opts, rng)
    return res.finite_true_values


def solve_2ep(
    p: TwoParamProblem,
    delta=None,
    opts: SolveOptions | None = None,
    rng=None,
    unique_lambda=False,
):
    """Finite regular eigenvalues of a (possibly singular) 2EP.

    The lambda components are the finite true eigenvalues of the pencil
    (Delta1, Delta0).  For each distinct lambda the mu candidates of the
    two fixed-lambda pencils are matched greedily; a pair is accepted
    when its discrepancy is below ``delta`` (default sqrt(EPS)) and
    contributes the midpoint.  With ``unique_lambda`` the closest pair
    is accepted unconditionally (appropriate when each eigenvalue is
    known to have a distinct lambda component).

    Each accepted pair carries the smallest singular values of the two
    evaluated matrices as residuals; callers should treat pairs with
    large residuals as suspect rather than silently trusting the
    discrepancy test.

    The per-lambda searches run on independent RNG streams spawned from
    ``rng``, so results do not depend on evaluation order.
    """
    opts, rng = with_defaults(opts, rng)
    if delta is None:
        delta = DEFAULT_MATCH_TOL
    deltas = operator_determinants(p)
    lam_result = solve(Pencil(A=deltas.D1, B=deltas.D0), opts, rng)
    lams = _cluster_values(lam_result.finite_true_values, delta)
    pairs = []
    for lam, stream in zip(lams, rng.spawn(len(lams))):
        mus1 = _mu_candidates(p.A1 + lam * p.B1, p.C1, opts, stream)
        mus2 = _mu_candidates(p.A2 + lam * p.B2, p.C2, opts, stream)
        if mus1 is None and mus2 is None:
            continue
        # a mu-free equation accepts every mu of the other one: match that list with itself
        matched = pair_mu_candidates(mus2 if mus1 is None else mus1, mus1 if mus2 is None else mus2)
        if unique_lambda:
            matched = matched[:1]
        for m1, m2, disc in matched:
            if not unique_lambda and disc >= delta:
                continue
            mu = (m1 + m2) / 2.0
            r1, r2 = p.residuals(lam, mu)
            pairs.append(
                Eigenpair2EP(lam=lam, mu=mu, mu_discrepancy=disc, residual1=r1, residual2=r2)
            )
    pairs.sort(key=lambda e: (e.lam.real, e.lam.imag, e.mu.real, e.mu.imag))
    return pairs


def double_eig_linearization(A, B):
    """Singular pencil whose finite eigenvalues are the double-eigenvalue lambdas.

    The quadratic condition that A + lambda B has a repeated eigenvalue
    mu (a nonzero x with (A + lambda B - mu I) x = 0 and a second vector
    in the kernel of the square) is linearized into a 2EP whose second
    equation uses the 3n x 3n block matrices

        P = [[A^2, AB + BA, -2A], [0, I, 0], [0, 0, I]],
        Q = [[0, B^2, -B], [-I, 0, 0], [0, 0, 0]],
        R = [[0, -B, I], [0, 0, 0], [-I, 0, 0]],

    acting on (y, lambda y, mu y).  The returned pair (D1, D0) consists
    of the operator determinants of that 2EP; it is of size
    3 n^2 x 3 n^2 and generically has normal rank 3 n^2 - n.
    """
    A = as_cmatrix(A, "A")
    B = as_cmatrix(B, "B")
    if A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise ValueError("A and B must be square and of equal size")
    n = A.shape[0]
    I = np.eye(n, dtype=np.complex128)
    Z = np.zeros((n, n), dtype=np.complex128)
    P = np.block([[A @ A, A @ B + B @ A, -2.0 * A], [Z, I, Z], [Z, Z, I]])
    Q = np.block([[Z, B @ B, -B], [-I, Z, Z], [Z, Z, Z]])
    R = np.block([[Z, -B, I], [Z, Z, Z], [-I, Z, Z]])
    problem = TwoParamProblem(A1=A, B1=B, C1=-I, A2=P, B2=Q, C2=R)
    deltas = operator_determinants(problem)
    return deltas.D1, deltas.D0


@dataclass
class DoubleEigResult:
    """Double-eigenvalue locations with their verification gaps.

    ``lambdas`` are Python complex numbers in the order of
    :func:`_lambda_order`: by real part on a grid of 1e-10 of the largest
    finite ``|lambda|`` (at least 1), then by imaginary part, non-finite
    last.  The grid keeps roundoff in the real parts from deciding the
    order, so the two members of a conjugate pair of a real pencil come
    as (-im, +im) whichever way the last bits fall.
    ``gaps[i]`` is the minimal eigenvalue gap of A + lambdas[i] B
    relative to the spectral scale of that matrix; a value near zero
    certifies the double eigenvalue, a value of order one flags a
    spurious or degenerate answer.  ``solve_result`` exposes the full
    classified spectrum of the linearization, including its separation
    diagnostics.
    """

    lambdas: list
    gaps: list
    solve_result: object


def double_eig(A, B, opts: SolveOptions | None = None, rng=None, refine=True):
    """All lambda such that A + lambda B has a double eigenvalue.

    Runs the rank-completing-perturbation solver on the linearization
    from :func:`double_eig_linearization` (generically n(n-1) finite
    true eigenvalues) and verifies every candidate by recomputing the
    spectrum of A + lambda B.  With ``refine`` (default) each lambda is
    polished by Newton steps on the squared gap of the colliding
    eigenvalue pair, which is analytic across the collision, until its
    gap is below 1e-7 of the spectral scale (at most 12 steps); this
    typically improves the verification gap from about 1e-4 to below
    1e-7.

    Cost: one dense QZ of the 3n^2 x 3n^2 linearization plus stacked
    n x n ``eigvals`` calls over all lambdas in lockstep: one without
    ``refine``, and with it two more per Newton step until the last
    lambda stops: 3 when one step suffices for every lambda, at most 25.
    """
    opts, rng = with_defaults(opts, rng)
    A = as_cmatrix(A, "A")
    B = as_cmatrix(B, "B")
    D1, D0 = double_eig_linearization(A, B)
    result = solve(Pencil(A=D1, B=D0), opts, rng)
    lambdas, gaps = _polish(A, B, result.finite_true_values, refine)
    order = _lambda_order(lambdas)
    return DoubleEigResult(
        lambdas=[complex(lambdas[i]) for i in order],
        gaps=[gaps[i] for i in order],
        solve_result=result,
    )


def _lambda_order(lams):
    """Indices that sort ``lams`` as :class:`DoubleEigResult` lists them."""
    z = np.asarray(lams, dtype=np.complex128)
    finite = np.isfinite(z)
    grid = 1e-10 * max(1.0, float(np.max(np.abs(z[finite]), initial=0.0)))
    return np.lexsort((z.imag, np.round(z.real / grid), ~finite)).tolist()


def _closest_pair(w):
    """Indices i < j of the closest two entries of ``w``, the first such (i, j) on ties."""
    d = w[:, None] - w
    d = np.hypot(d.real, d.imag)
    d[np.tri(len(w), dtype=bool)] = np.inf
    return divmod(int(d.argmin()), len(w))


def _spectra(A, B, lams):
    """Eigenvalues of A + lam B for each lam, from one stacked eigensolve."""
    return np.linalg.eigvals(np.stack([A + lam * B for lam in lams]))


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
    out at the eigensolver's own noise floor).  A lambda stops once its
    best tracked gap is below 1e-7 of its best spectrum's scale
    max(1, max |w|); one that never gets there (a near-triple collision
    converges only linearly) runs all ``iters`` steps.  All lambdas step
    in lockstep: one stacked solve for the central differences and one
    for the new iterates, whose tracked pair gives g at the next step.
    The gap is the closest-pair distance on the best iterate's spectrum
    over its spectral scale, never more than the best tracked gap over
    that scale; non-finite lambdas pass through with gap inf.
    """
    lams = list(lams)
    gaps = [math.inf] * len(lams)
    live = [r for r, lam in enumerate(lams) if np.isfinite(lam)]
    if not live or A.shape[0] < 2:
        return lams, gaps
    cur = [lams[r] for r in live]
    spectra = list(_spectra(A, B, cur))
    mu = np.array([w[list(_closest_pair(w))] for w in spectra])
    best = [abs(a - b) for a, b in mu]
    h = [1e-5 * max(1.0, abs(x)) for x in cur]
    active = list(range(len(live))) if refine else []
    for _ in range(iters):
        if not active:
            break
        m = len(active)
        shifted = [cur[k] + h[k] for k in active] + [cur[k] + -h[k] for k in active]
        pm = _track(_spectra(A, B, shifted), mu[active + active])
        stepped = []
        for t, k in enumerate(active):
            dg = ((pm[t, 0] - pm[t, 1]) ** 2 - (pm[m + t, 0] - pm[m + t, 1]) ** 2) / (2.0 * h[k])
            if dg != 0.0:
                cur[k] = cur[k] - (mu[k, 0] - mu[k, 1]) ** 2 / dg
                stepped.append(k)
        if not stepped:
            break
        W = _spectra(A, B, [cur[k] for k in stepped])
        mu[stepped] = _track(W, mu[stepped])
        active = []
        for t, k in enumerate(stepped):
            gap = abs(mu[k, 0] - mu[k, 1])
            if gap < best[k]:
                best[k] = gap
                lams[live[k]], spectra[k] = cur[k], W[t]
            if best[k] >= 1e-7 * max(1.0, float(np.max(np.abs(spectra[k])))):
                active.append(k)
    for k, w in enumerate(spectra):
        i, j = _closest_pair(w)
        gaps[live[k]] = float(abs(w[i] - w[j]) / max(1.0, float(np.max(np.abs(w)))))
    return lams, gaps


_MANIFEST_KEYS = ("A1", "B1", "C1", "A2", "B2", "C2")


def read_problem(manifest_path) -> TwoParamProblem:
    """Read a 2EP from a JSON manifest referencing six Matrix Market files.

    The manifest maps each of A1, B1, C1, A2, B2, C2 to a file path,
    resolved relative to the manifest's own directory.
    """
    with open(manifest_path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{manifest_path}: invalid JSON ({exc})") from exc
    missing = [k for k in _MANIFEST_KEYS if k not in doc]
    if missing:
        raise ValueError(f"{manifest_path}: manifest missing entries {missing}")
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
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def solutions_to_csv(pairs) -> str:
    """Render accepted eigenpairs as CSV with full-precision columns."""
    return csv_text(
        ["lambda_re", "lambda_im", "mu_re", "mu_im", "discrepancy", "residual1", "residual2"],
        [(e.lam, e.mu, e.mu_discrepancy, e.residual1, e.residual2) for e in pairs],
    )

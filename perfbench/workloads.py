"""The four closed-loop workloads and the correctness gate of each request.

Every workload has one client that waits for each result, as a library
caller or a CLI user does.  ``setup(seed, ctx)`` builds the inputs from
the seed alone; ``call(state, i)`` is the timed request; ``check(state,
result)`` is its correctness gate and returns ``(certified, failure)``,
where ``certified`` counts the results that passed and ``failure`` names
the first check that failed (None when all passed).

The program is always reached through module attributes looked up at
call time (``sp.solve``, ``sp.kcf_gen.build``, ``sp.cli.main``), so the
tracer's wrappers see the benchmark's own calls.
"""

from __future__ import annotations

import csv
import io
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

import singpencil as sp
import singpencil.cli  # noqa: F401  (binds sp.cli)
from singpencil.kcf_gen import Jordan, KcfSpec, LeftSingular, Nilpotent, RightSingular

VALUE_RTOL = 1e-8  # criterion 7: finite true eigenvalues recovered to 1e-8
GAP_TOL = 1e-6  # criterion 5: double-eigenvalue gap
CUBIC_TOL = 1e-6  # criterion 6: bivariate cubic residuals
CLI_TIMEOUT_S = 120


class SetupError(RuntimeError):
    """A set-up check failed; the run cannot produce meaningful numbers."""


def request_seed(seed, i):
    """Independent per-request seed, a pure function of (seed, i)."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


# --- gates ------------------------------------------------------------------


def worst_relative_match(got, want):
    """Largest |a - b| / max(1, |b|) over an optimal one-to-one matching."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.size == 0:
        return 0.0
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols] / np.maximum(1.0, np.abs(want[cols]))))


def check_kcf(counts, finite_values, truth):
    """Class counts equal the KCF oracle and finite true values match it."""
    want = {
        "finite_true": len(truth.finite),
        "infinite_true": truth.n_infinite,
        "prescribed": truth.k,
        "random_right": truth.M,
        "random_left": truth.N,
    }
    for name, n in want.items():
        if counts.get(name, 0) != n:
            return f"count.{name}"
    if sum(counts.values()) != sum(want.values()):
        return "count.unclassified"
    if worst_relative_match(finite_values, truth.finite) > VALUE_RTOL:
        return "finite_values"
    return None


def check_double_eig(lambdas, gaps, n):
    """Exactly n(n-1) lambdas, every verification gap within criterion 5."""
    if len(lambdas) != n * (n - 1):
        return "lambda_count"
    if max(gaps) > GAP_TOL:
        return "gap"
    return None


def check_twoparam(lams, reference):
    """Exactly one pair per reference lambda, each lambda matching it to 1e-8."""
    if len(lams) != len(reference):
        return "pair_count"
    if worst_relative_match(lams, reference) > VALUE_RTOL:
        return "lambda_values"
    return None


def parse_solve_csv(text):
    """Class counts and finite true values from ``singpencil solve --format csv``."""
    counts = Counter()
    finite = []
    for row in csv.DictReader(io.StringIO(text)):
        counts[row["class"]] += 1
        if row["class"] == "finite_true":
            finite.append(complex(float(row["lambda_re"]), float(row["lambda_im"])))
    return dict(counts), finite


# --- inputs -------------------------------------------------------------------


def kcf_pencil(seed, n_jordan, k):
    """Seeded KCF pencil: n_jordan x J1(z), k each of N2, L2, L2^T, unitary transform.

    n = n_jordan + 7k; z is uniform in the square [-2, 2]^2.
    """
    rng = np.random.default_rng(seed)
    z = rng.uniform(-2.0, 2.0, (n_jordan, 2))
    blocks = [Jordan(1, complex(a, b)) for a, b in z]
    blocks += [Nilpotent(2)] * k + [RightSingular(2)] * k + [LeftSingular(2)] * k
    return sp.kcf_gen.build(KcfSpec(tuple(blocks), transform="unitary"), rng)


def double_eig_problem(A, B):
    """The 2EP (A, B, -I; P, Q, R) of the ``double_eig_linearization`` docstring."""
    n = A.shape[0]
    I = np.eye(n)
    Z = np.zeros((n, n))
    P = np.block([[A @ A, A @ B + B @ A, -2.0 * A], [Z, I, Z], [Z, Z, I]])
    Q = np.block([[Z, B @ B, -B], [-I, Z, Z], [Z, Z, Z]])
    R = np.block([[Z, -B, I], [Z, Z, Z], [-I, Z, Z]])
    return sp.TwoParamProblem(A1=A, B1=B, C1=-I, A2=P, B2=Q, C2=R)


def check_bivariate_cubic(seed):
    """Criterion 6 on the gallery cubic: 9 roots, |p1|, |p2| <= 1e-6 at each."""
    problem, c1, c2 = sp.gallery.bivariate_cubic_system()
    pairs = sp.solve_2ep(problem, opts=sp.SolveOptions(seed=seed), rng=np.random.default_rng(seed))
    if len(pairs) != 9:
        raise SetupError(f"bivariate cubic: {len(pairs)} roots, expected 9")
    worst = max(
        max(abs(sp.gallery.evaluate_bivariate(c, e.lam, e.mu)) for c in (c1, c2)) for e in pairs
    )
    if worst > CUBIC_TOL:
        raise SetupError(f"bivariate cubic: residual {worst:.2e} > {CUBIC_TOL}")


# --- workloads ----------------------------------------------------------------


@dataclass
class Context:
    """What a workload needs from the launcher: where to write, how to start Python."""

    workdir: str
    child_env: dict
    in_process: bool = False  # cli: call cli.main here instead of a fresh process


@dataclass
class State:
    seed: int
    ctx: Context
    data: dict = field(default_factory=dict)


def _setup_solve_large(seed, ctx):
    p, truth = kcf_pencil(seed, n_jordan=170, k=17)
    return State(seed, ctx, {"pencil": p, "truth": truth})


def _call_solve_large(state, i):
    return sp.solve(state.data["pencil"], sp.SolveOptions(seed=request_seed(state.seed, i)))


def _check_solve_large(state, res):
    counts = Counter(r.label.value for r in res.records)
    failure = check_kcf(counts, res.finite_true_values, state.data["truth"])
    return (0, failure) if failure else (len(res.finite_true_values), None)


DOUBLE_EIG_N = 8
TWOPARAM_N = 6


def _setup_double_eig(seed, ctx):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((DOUBLE_EIG_N, DOUBLE_EIG_N))
    B = rng.standard_normal((DOUBLE_EIG_N, DOUBLE_EIG_N))
    return State(seed, ctx, {"A": A, "B": B})


def _call_double_eig(state, i):
    return sp.double_eig(
        state.data["A"], state.data["B"], opts=sp.SolveOptions(seed=request_seed(state.seed, i))
    )


def _check_double_eig(state, res):
    failure = check_double_eig(res.lambdas, res.gaps, DOUBLE_EIG_N)
    return (0, failure) if failure else (len(res.lambdas), None)


def _setup_twoparam(seed, ctx):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((TWOPARAM_N, TWOPARAM_N))
    B = rng.standard_normal((TWOPARAM_N, TWOPARAM_N))
    oracle = sp.double_eig(A, B, opts=sp.SolveOptions(seed=seed))
    failure = check_double_eig(oracle.lambdas, oracle.gaps, TWOPARAM_N)
    if failure:
        raise SetupError(f"double_eig oracle failed its gate: {failure}")
    check_bivariate_cubic(seed)
    return State(seed, ctx, {"problem": double_eig_problem(A, B), "reference": oracle.lambdas})


def _call_twoparam(state, i):
    s = request_seed(state.seed, i)
    return sp.solve_2ep(
        state.data["problem"],
        opts=sp.SolveOptions(seed=s),
        rng=np.random.default_rng(s),
        unique_lambda=True,
    )


def _check_twoparam(state, pairs):
    failure = check_twoparam([e.lam for e in pairs], state.data["reference"])
    return (0, failure) if failure else (len(pairs), None)


CLI_LAUNCH = "from singpencil.cli import entry; entry()"


def _setup_cli(seed, ctx):
    p, truth = kcf_pencil(seed, n_jordan=50, k=5)
    path_a = os.path.join(ctx.workdir, "A.mtx")
    path_b = os.path.join(ctx.workdir, "B.mtx")
    sp.write_pencil(p, path_a, path_b)
    return State(seed, ctx, {"paths": (path_a, path_b), "truth": truth})


def _call_cli(state, i):
    """One ``singpencil solve`` invocation: a fresh process, or ``cli.main`` in-process."""
    argv = ["solve", *state.data["paths"], "--seed", str(request_seed(state.seed, i))]
    argv += ["--format", "csv"]
    if state.ctx.in_process:
        out, err = io.StringIO(), io.StringIO()
        code = sp.cli.main(argv, out=out, err=err)
        text = out.getvalue()
    else:
        proc = subprocess.run(
            [sys.executable, "-c", CLI_LAUNCH, *argv],
            env=state.ctx.child_env,
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        code, text = proc.returncode, proc.stdout
    return code, text


def _check_cli(state, result):
    code, text = result
    if code != 0:
        return 0, "exit_code"
    counts, finite = parse_solve_csv(text)
    failure = check_kcf(counts, finite, state.data["truth"])
    return (0, failure) if failure else (len(finite), None)


@dataclass(frozen=True)
class Workload:
    setup: object
    call: object
    check: object
    # per-layer metrics the traced run must see nonzero on this workload
    predicted: tuple
    # certified results are lambdas (the base of two_param.eigvals_per_lambda)
    lambda_results: bool = False
    # requests run in child processes, whose CPU time and RSS are the ones to report
    children: bool = False


_SOLVER_LAYERS = (
    "matrix_core.qz.calls",
    "pencil.normal_rank.calls",
    "pencil.prep.s",
    "solver.solve.calls",
    "solver.perturb.s",
)

WORKLOADS = {
    "solve-large": Workload(
        _setup_solve_large,
        _call_solve_large,
        _check_solve_large,
        _SOLVER_LAYERS + ("kcf_gen.build.s",),
    ),
    "double-eig": Workload(
        _setup_double_eig,
        _call_double_eig,
        _check_double_eig,
        _SOLVER_LAYERS
        + (
            "two_param.delta_build.s",
            "two_param.core_solve.s",
            "two_param.polish.s",
            "two_param.eigvals.calls",
        ),
        lambda_results=True,
    ),
    "twoparam": Workload(
        _setup_twoparam,
        _call_twoparam,
        _check_twoparam,
        _SOLVER_LAYERS
        + (
            "two_param.delta_build.s",
            "two_param.core_solve.s",
            "two_param.mu_solve.calls",
            "two_param.self.s",
        ),
    ),
    "cli": Workload(
        _setup_cli,
        _call_cli,
        _check_cli,
        _SOLVER_LAYERS
        + (
            "pencil.io.s",
            "pencil.io.bytes",
            "cli.import_s",
            "cli.main.s",
            "cli.self.s",
            "kcf_gen.build.s",
        ),
        children=True,
    ),
}

"""The batched double-eigenvalue polish against a frozen per-lambda oracle.

``_oracle`` is the per-lambda Newton polish and verification gap that
``double_eig`` used before the polish was batched, with its stop rule
changed to the relative one of the batched polish: a lambda stops once
its best gap is below 1e-7 of its best spectrum's scale.  The batched
polish must reproduce it bit for bit (compared by ``repr`` of each value
as a Python complex, which ``double_eig`` returns) and must not fall back
to one ``eigvals`` call per lambda.
"""

import math
import types

import numpy as np
import pytest

import singpencil.two_param as tp
from singpencil import SolveOptions, double_eig


def _closest_pair(w):
    n = len(w)
    best = math.inf
    pair = (0, 1)
    for i in range(n):
        for j in range(i + 1, n):
            d = abs(w[i] - w[j])
            if d < best:
                best, pair = d, (i, j)
    return pair


def _track_pair(w, mu_a, mu_b):
    ia = int(np.argmin(np.abs(w - mu_a)))
    rest = np.abs(w - mu_b)
    rest[ia] = np.inf
    ib = int(np.argmin(rest))
    return w[ia], w[ib]


def _relative_gap(A, B, lam):
    w = np.linalg.eigvals(A + lam * B)
    if len(w) < 2:
        return math.inf
    i, j = _closest_pair(w)
    scale = max(1.0, float(np.max(np.abs(w))))
    return float(abs(w[i] - w[j]) / scale)


def _refine_double(A, B, lam, iters=12):
    w = np.linalg.eigvals(A + lam * B)
    if len(w) < 2:
        return lam
    i, j = _closest_pair(w)
    mu_a, mu_b = w[i], w[j]
    best = (abs(mu_a - mu_b), lam, max(1.0, float(np.max(np.abs(w)))))
    h = 1e-5 * max(1.0, abs(lam))
    for _ in range(iters):
        vals = []
        for shift in (0.0, h, -h):
            w = np.linalg.eigvals(A + (lam + shift) * B)
            a, b = _track_pair(w, mu_a, mu_b)
            if shift == 0.0:
                mu_a, mu_b = a, b
            vals.append((a - b) ** 2)
        g, gp, gm = vals
        dg = (gp - gm) / (2.0 * h)
        if dg == 0.0:
            break
        lam = lam - g / dg
        w = np.linalg.eigvals(A + lam * B)
        mu_a, mu_b = _track_pair(w, mu_a, mu_b)
        gap = abs(mu_a - mu_b)
        if gap < best[0]:
            best = (gap, lam, max(1.0, float(np.max(np.abs(w)))))
        if best[0] < 1e-7 * best[2]:
            break
    return best[1]


def _oracle(A, B, candidates, refine):
    """Sorted (lambdas, gaps) exactly as the per-lambda double_eig loop produced them."""
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    lambdas = []
    gaps = []
    for lam in candidates:
        if not np.isfinite(lam):
            lambdas.append(lam)
            gaps.append(math.inf)
            continue
        if refine:
            lam = _refine_double(A, B, lam)
        lambdas.append(lam)
        gaps.append(_relative_gap(A, B, lam))
    order = sorted(range(len(lambdas)), key=lambda i: (lambdas[i].real, lambdas[i].imag))
    return [lambdas[i] for i in order], [gaps[i] for i in order]


def _problem(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


@pytest.mark.parametrize("refine", [True, False])
@pytest.mark.parametrize("n,seed", [(n, s) for n in (2, 3, 5, 8) for s in (1, 7, 2024)])
def test_batched_polish_is_bit_identical_to_per_lambda_oracle(n, seed, refine):
    A, B = _problem(n, seed)
    res = double_eig(A, B, opts=SolveOptions(seed=seed), refine=refine)
    assert len(res.lambdas) == n * (n - 1)
    want_lams, want_gaps = _oracle(A, B, res.solve_result.finite_true_values, refine)
    assert all(type(x) is complex for x in res.lambdas)
    assert [repr(complex(x)) for x in res.lambdas] == [repr(complex(x)) for x in want_lams]
    assert [repr(g) for g in res.gaps] == [repr(g) for g in want_gaps]


@pytest.mark.parametrize("refine", [True, False])
def test_non_finite_candidate_passes_through_unrefined(monkeypatch, refine):
    A, B = _problem(3, 4)
    real_solve = tp.solve
    seen = {}

    def solve_with_inf(pencil, opts, rng):
        values = real_solve(pencil, opts, rng).finite_true_values
        seen["values"] = values[:2] + [complex(math.inf, 0.0)] + values[2:]
        return types.SimpleNamespace(finite_true_values=seen["values"])

    monkeypatch.setattr(tp, "solve", solve_with_inf)
    res = double_eig(A, B, opts=SolveOptions(seed=4), refine=refine)
    want_lams, want_gaps = _oracle(A, B, seen["values"], refine)
    assert [repr(complex(x)) for x in res.lambdas] == [repr(complex(x)) for x in want_lams]
    assert [repr(g) for g in res.gaps] == [repr(g) for g in want_gaps]
    assert res.lambdas[-1] == complex(math.inf, 0.0) and res.gaps[-1] == math.inf
    assert all(g < math.inf for g in res.gaps[:-1])


def test_near_triple_collision_gaps_within_criterion_5():
    # A + lambda B with A, B from seed 6 has double eigenvalues close to a
    # triple one, where the Newton polish converges only linearly: every
    # lambda must still end below criterion 5's 1e-6 relative gap.
    A, B = _problem(4, 6)
    for seed in range(6):
        res = double_eig(A, B, opts=SolveOptions(seed=seed))
        assert len(res.lambdas) == 12
        assert max(res.gaps) <= 1e-6


@pytest.mark.parametrize("refine,bound", [(True, 5), (False, 1)])
def test_polish_makes_stacked_eigvals_calls(monkeypatch, refine, bound):
    calls = []
    real_eigvals = np.linalg.eigvals

    def counting_eigvals(a):
        calls.append(np.shape(a))
        return real_eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    A, B = _problem(8, 1)
    res = double_eig(A, B, opts=SolveOptions(seed=1), refine=refine)
    assert len(res.lambdas) == 56
    if refine:
        assert len(calls) <= bound
    else:
        assert len(calls) == bound
    assert calls[0] == (56, 8, 8)

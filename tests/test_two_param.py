"""Tests for the two-parameter solver, double-eigenvalue finder and fixtures."""

import itertools
import math

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

import singpencil.two_param as tp
from singpencil import (
    Pencil,
    SolveOptions,
    TwoParamProblem,
    double_eig,
    double_eig_linearization,
    normal_rank,
    operator_determinants,
    pair_mu_candidates,
    read_problem,
    solutions_to_csv,
    solve_2ep,
    write_problem,
)
from singpencil.gallery import bivariate_cubic_system, evaluate_bivariate

from helpers import assert_multiset_close, random_complex


class TestOperatorDeterminants:
    def test_identity_case(self):
        n = 3
        I = np.eye(n)
        Z = np.zeros((n, n))
        p = TwoParamProblem(A1=I, B1=I, C1=Z, A2=I, B2=Z, C2=I)
        d = operator_determinants(p)
        np.testing.assert_array_equal(d.D0, np.eye(n * n))

    def test_scalar_cramer_consistency(self):
        # 1x1 problem: operator determinants reduce to the 2x2 Cramer formulas
        rng = np.random.default_rng(0)
        for _ in range(5):
            a1, b1, c1, a2, b2, c2 = random_complex(rng, (6,))
            p = TwoParamProblem(
                A1=[[a1]], B1=[[b1]], C1=[[c1]], A2=[[a2]], B2=[[b2]], C2=[[c2]]
            )
            d = operator_determinants(p)
            lam, mu = np.linalg.solve(
                np.array([[b1, c1], [b2, c2]]), np.array([-a1, -a2])
            )
            assert abs(d.D1[0, 0] / d.D0[0, 0] - lam) < 1e-12
            assert abs(d.D2[0, 0] / d.D0[0, 0] - mu) < 1e-12

    def test_cubic_system_deltas_singular(self):
        p, _, _ = bivariate_cubic_system()
        d = operator_determinants(p)
        assert d.D0.shape == (25, 25)
        rep = normal_rank(Pencil(A=d.D1, B=d.D0), np.random.default_rng(0))
        assert rep.nrank < 25
        assert rep.nrank == 21  # four trivial singular pairs


class TestCubicFixture:
    def test_determinant_matches_coefficients(self):
        # the gallery matrices are a determinantal representation of the
        # two published coefficient vectors; verify at random points
        p, c1, c2 = bivariate_cubic_system()
        rng = np.random.default_rng(42)
        for _ in range(6):
            x = complex(rng.standard_normal(), rng.standard_normal())
            y = complex(rng.standard_normal(), rng.standard_normal())
            d1 = np.linalg.det(p.A1 + x * p.B1 + y * p.C1)
            d2 = np.linalg.det(p.A2 + x * p.B2 + y * p.C2)
            assert abs(d1 - evaluate_bivariate(c1, x, y)) < 1e-10
            assert abs(d2 - evaluate_bivariate(c2, x, y)) < 1e-10


class TestPairMuCandidates:
    def test_basic_matching(self):
        out = pair_mu_candidates([1.0, 5.0], [5.0001, 0.9999])
        got = sorted((round(a.real, 4), round(b.real, 4)) for a, b, _ in out)
        assert got == [(1.0, 0.9999), (5.0, 5.0001)]
        assert all(abs(d - 1e-4) < 1e-9 for _, _, d in out)
        assert out[0][2] <= out[1][2]

    def test_empty_side(self):
        assert pair_mu_candidates([], [3.0]) == []
        assert pair_mu_candidates([1.0], []) == []

    def test_greedy_against_enumeration(self):
        # all matchings of {2, 2.1} x {2.05}: greedy must pick the global min
        mus1, mus2 = [2.0, 2.1], [2.05]
        out = pair_mu_candidates(mus1, mus2)
        assert len(out) == 1
        best = min(
            (abs(a - b), a, b) for a, b in itertools.product(mus1, mus2)
        )
        assert out[0][0] == best[1]
        assert out[0][2] == pytest.approx(best[0])

    def test_sorted_by_discrepancy(self):
        out = pair_mu_candidates([0.0, 10.0], [10.5, 0.001])
        assert out[0][2] <= out[1][2]


class TestSolve2EP:
    def test_decoupled_regular_problem(self):
        # lambda determined by equation 1 alone, mu by equation 2 alone
        p = TwoParamProblem(
            A1=np.diag([1.0, 2.0]), B1=-np.eye(2), C1=np.zeros((2, 2)),
            A2=np.diag([3.0, 4.0]), B2=np.zeros((2, 2)), C2=-np.eye(2),
        )
        pairs = solve_2ep(p, opts=SolveOptions(seed=0), rng=np.random.default_rng(0))
        got = sorted((round(e.lam.real, 6), round(e.mu.real, 6)) for e in pairs)
        assert got == [(1.0, 3.0), (1.0, 4.0), (2.0, 3.0), (2.0, 4.0)]
        assert all(e.residual1 < 1e-8 and e.residual2 < 1e-8 for e in pairs)

    def test_scalar_cramer_solution(self):
        rng = np.random.default_rng(5)
        a1, b1, c1, a2, b2, c2 = (complex(z) for z in random_complex(rng, (6,)))
        p = TwoParamProblem(A1=[[a1]], B1=[[b1]], C1=[[c1]], A2=[[a2]], B2=[[b2]], C2=[[c2]])
        lam, mu = np.linalg.solve(np.array([[b1, c1], [b2, c2]]), np.array([-a1, -a2]))
        pairs = solve_2ep(p, opts=SolveOptions(seed=1), rng=np.random.default_rng(1))
        assert len(pairs) == 1
        assert abs(pairs[0].lam - lam) < 1e-8
        assert abs(pairs[0].mu - mu) < 1e-8

    def test_cubic_system_nine_roots(self):
        p, c1, c2 = bivariate_cubic_system()
        pairs = solve_2ep(p, opts=SolveOptions(seed=7), rng=np.random.default_rng(7))
        assert len(pairs) == 9
        for e in pairs:
            assert abs(evaluate_bivariate(c1, e.lam, e.mu)) <= 1e-6
            assert abs(evaluate_bivariate(c2, e.lam, e.mu)) <= 1e-6
            assert e.residual1 <= 1e-6 and e.residual2 <= 1e-6
            assert e.mu_discrepancy < math.sqrt(np.finfo(float).eps)

    def test_nonsingular_delta0_matches_coupled_pencils(self):
        # Atkinson case: with Delta0 invertible the eigenpairs are read off
        # the commuting pair (Delta0^-1 Delta1, Delta0^-1 Delta2)
        rng = np.random.default_rng(3)
        p = TwoParamProblem(*(random_complex(rng, (2, 2)) for _ in range(6)))
        d = operator_determinants(p)
        assert np.linalg.cond(d.D0) < 1e6
        w, z = np.linalg.eig(np.linalg.solve(d.D0, d.D1))
        oracle = []
        for i in range(4):
            zi = z[:, i]
            mu = (np.linalg.solve(d.D0, d.D2) @ zi) @ zi.conj() / (zi @ zi.conj())
            oracle.append((w[i], complex(mu)))
        pairs = solve_2ep(p, opts=SolveOptions(seed=9), rng=np.random.default_rng(9))
        assert len(pairs) == 4
        got = sorted(((e.lam, e.mu) for e in pairs), key=lambda t: (t[0].real, t[0].imag))
        want = sorted(oracle, key=lambda t: (t[0].real, t[0].imag))
        for (l1, m1), (l2, m2) in zip(got, want):
            assert abs(l1 - l2) < 1e-8
            assert abs(m1 - m2) < 1e-8

    @pytest.mark.parametrize("free", [1, 2])
    def test_mu_free_equation_takes_every_mu_of_the_other(self, monkeypatch, free):
        # the mu-free side mirrors the other list: one pair per mu, in order,
        # each with discrepancy 0.0
        a, b = complex(-1.5, 0.25), complex(2.0, -1.0)
        rng = np.random.default_rng(3)
        p = TwoParamProblem(*(random_complex(rng, (2, 2)) for _ in range(6)))
        free_c = p.C1 if free == 1 else p.C2
        monkeypatch.setattr(
            tp, "_mu_candidates", lambda a_fixed, c, opts, rng: None if c is free_c else [a, a, b]
        )
        for unique in (False, True):
            pairs = solve_2ep(p, opts=SolveOptions(seed=2), unique_lambda=unique)
            lams = sorted({e.lam for e in pairs}, key=lambda z: (z.real, z.imag))
            assert len(lams) == 4
            for lam in lams:
                got = [(e.mu, e.mu_discrepancy) for e in pairs if e.lam == lam]
                assert got == ([(a, 0.0)] if unique else [(a, 0.0), (a, 0.0), (b, 0.0)])

    def test_unique_lambda_accepts_closest(self):
        p = TwoParamProblem(
            A1=np.diag([1.0, 2.0]), B1=-np.eye(2), C1=np.zeros((2, 2)),
            A2=np.diag([3.0, 4.0]), B2=np.zeros((2, 2)), C2=-np.eye(2),
        )
        pairs = solve_2ep(
            p, opts=SolveOptions(seed=0), rng=np.random.default_rng(0), unique_lambda=True
        )
        # one pair per distinct lambda
        assert sorted(round(e.lam.real, 6) for e in pairs) == [1.0, 2.0]


def _discriminant_roots(A, B):
    """Oracle: lambdas where det(A + lam B - mu I) has a double root in mu (n = 2)."""
    t0 = A[0, 0] + A[1, 1]
    t1 = B[0, 0] + B[1, 1]
    det_a = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    det_b = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
    det_cross = (
        A[0, 0] * B[1, 1] + B[0, 0] * A[1, 1] - A[0, 1] * B[1, 0] - B[0, 1] * A[1, 0]
    )
    disc = npp.polysub(npp.polymul([t0, t1], [t0, t1]), 4 * np.array([det_a, det_cross, det_b]))
    return npp.polyroots(disc)


class TestDoubleEig:
    def test_closest_pair_keeps_the_first_of_a_tie(self):
        assert tp._closest_pair(np.array([0, 1, 2, 4], dtype=complex)) == (0, 1)
        assert tp._closest_pair(np.array([5, 0, 3, 2.5], dtype=complex)) == (2, 3)

    def test_linearization_shapes_and_rank(self):
        rng = np.random.default_rng(11)
        A = random_complex(rng, (2, 2))
        B = random_complex(rng, (2, 2))
        D1, D0 = double_eig_linearization(A, B)
        assert D1.shape == D0.shape == (12, 12)
        rep = normal_rank(Pencil(A=D1, B=D0), np.random.default_rng(0))
        assert rep.nrank == 10  # 3 n^2 - n

    def test_scalar_case_has_no_solutions(self):
        D1, D0 = double_eig_linearization([[2.0]], [[1.0]])
        assert D1.shape == (3, 3)
        res = double_eig([[2.0]], [[1.0]], opts=SolveOptions(seed=0))
        assert res.lambdas == []

    def test_empty_matrices_rejected(self):
        with pytest.raises(ValueError, match="empty pencil"):
            double_eig(np.zeros((0, 0)), np.zeros((0, 0)), opts=SolveOptions(seed=0))

    def test_hand_constructed_double_at_zero(self):
        # A + lam B has eigenvalues +-lam: double exactly at lam = 0
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[1.0, 0.0], [0.0, -1.0]])
        res = double_eig(A, B, opts=SolveOptions(seed=3))
        assert len(res.lambdas) == 2  # the double point counts with multiplicity 2
        for lam in res.lambdas:
            assert abs(lam) <= 1e-6
        assert all(g <= 1e-6 for g in res.gaps)

    def test_random_2x2_matches_discriminant_oracle(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 2))
        res = double_eig(A, B, opts=SolveOptions(seed=5))
        oracle = _discriminant_roots(A, B)
        assert len(res.lambdas) == 2
        assert_multiset_close(res.lambdas, list(oracle), atol=1e-6, rtol=1e-6)
        assert all(g <= 1e-6 for g in res.gaps)

    def test_degenerate_pair_flagged_or_empty(self):
        # eigenvalue gap of diag(0,1) + lam I is 1 for every lam
        res = double_eig(np.diag([0.0, 1.0]), np.eye(2), opts=SolveOptions(seed=2))
        assert res.lambdas == [] or all(g > 1e-3 for g in res.gaps)

    def test_n3_count_and_unitary_invariance(self):
        from singpencil import random_orthonormal

        rng = np.random.default_rng(8)
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3))
        res = double_eig(A, B, opts=SolveOptions(seed=4))
        assert len(res.lambdas) == 6  # n (n - 1)
        assert all(g <= 1e-6 for g in res.gaps)
        Q = random_orthonormal(3, 3, np.random.default_rng(12))
        res_u = double_eig(Q.conj().T @ A @ Q, Q.conj().T @ B @ Q, opts=SolveOptions(seed=4))
        assert_multiset_close(res_u.lambdas, res.lambdas, atol=1e-8, rtol=1e-8)


class TestProblemIO:
    def test_manifest_roundtrip(self, tmp_path):
        p, _, _ = bivariate_cubic_system()
        manifest = write_problem(p, tmp_path / "prob")
        q = read_problem(manifest)
        for name in ("A1", "B1", "C1", "A2", "B2", "C2"):
            np.testing.assert_allclose(getattr(q, name), getattr(p, name))

    def test_missing_manifest_keys(self, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text('{"A1": "a.mtx"}')
        with pytest.raises(ValueError, match="missing"):
            read_problem(bad)

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text("{nope")
        with pytest.raises(ValueError, match="invalid JSON"):
            read_problem(bad)

    def test_csv_round_trips_numbers(self):
        from singpencil import Eigenpair2EP

        pairs = [
            Eigenpair2EP(
                lam=0.1234567890123456 - 2.5j,
                mu=1e-300 + 1j,
                mu_discrepancy=3.14e-10,
                residual1=1.1e-12,
                residual2=2.2e-12,
            )
        ]
        text = solutions_to_csv(pairs)
        header, row = text.strip().split("\n")
        vals = row.split(",")
        assert float(vals[0]) == pairs[0].lam.real
        assert float(vals[1]) == pairs[0].lam.imag
        assert float(vals[2]) == pairs[0].mu.real
        assert float(vals[4]) == pairs[0].mu_discrepancy

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="equation 1"):
            TwoParamProblem(
                A1=np.eye(2), B1=np.eye(3), C1=np.eye(2),
                A2=np.eye(2), B2=np.eye(2), C2=np.eye(2),
            )

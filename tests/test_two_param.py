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
    solve_2ep,
    write_problem,
)
from singpencil.cli import csv_text
from singpencil.gallery import (
    _double_eig_2ep,
    bivariate_cubic_system,
    double_eig_problem,
    evaluate_bivariate,
)
from singpencil.matrix_core import rank_with_tol
from singpencil.solver import DEFAULT_MATCH_TOL, EigenClass, solve, with_defaults

from helpers import (
    assert_multiset_close,
    greedy_match_by,
    random_complex,
    result_fields,
    unit_circle_normal_rank,
)


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


    @pytest.mark.parametrize("make", [
        lambda: double_eig_problem(1),
        lambda: bivariate_cubic_system()[0],
        lambda: _padded_cubic(),
        lambda: TwoParamProblem(*(random_complex(np.random.default_rng(i), (2, 2) if i < 3 else (3, 3))
                                  for i in range(6))),
    ], ids=["double_eig_problem", "cubic", "padded_cubic", "complex_2x3"])
    def test_bits_equal_np_kron(self, make):
        p = make()
        d = operator_determinants(p)
        want = (np.kron(p.B1, p.C2) - np.kron(p.C1, p.B2), np.kron(p.C1, p.A2) - np.kron(p.A1, p.C2),
                np.kron(p.A1, p.B2) - np.kron(p.B1, p.A2))
        for got, ref in zip((d.D0, d.D1, d.D2), want):
            assert got.shape == ref.shape and got.flags.c_contiguous and got.tobytes() == ref.tobytes()


class TestClusterValues:
    @staticmethod
    def _loop(values, tol):
        """The rule written as a loop: keep v unless a kept r lies within tol max(1, |r|)."""
        reps = []
        for v in sorted(values, key=lambda z: (z.real, z.imag)):
            if not any(abs(v - r) <= tol * max(1.0, abs(r)) for r in reps):
                reps.append(v)
        return reps

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_the_loop(self, seed):
        rng = np.random.default_rng(seed)
        base = random_complex(rng, (12,)) * 10.0 ** rng.integers(-3, 4, 12)
        # copies within and just beyond the tolerance, a chain of close values, ties
        values = np.concatenate([base, base[:6] * (1 + 1e-9 * random_complex(rng, (6,))),
                                 base[:4] + 3e-8, base[0] + 7e-9 * np.arange(5), base[:3]])
        values = rng.permutation(values).tolist()
        for tol in (1e-8, 1e-12, 0.0):
            assert repr(tp._cluster_values(values, tol)) == repr(self._loop(values, tol))

    def test_empty(self):
        assert tp._cluster_values([], 1e-8) == []


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

    @staticmethod
    def _candidate_lists():
        """Random lists with exact duplicates, an empty side, extreme magnitudes and ties."""
        rng = np.random.default_rng(31)
        for m, n in ((6, 18), (18, 6), (5, 5), (1, 1), (0, 4), (4, 0), (0, 0)):
            for scale in (1.0, 1e-160, 1e150):
                xs = [complex(z) * scale for z in random_complex(rng, (m,))]
                ys = [complex(z) * scale for z in random_complex(rng, (n,))]
                if m > 1 and n > 1:
                    # a double eigenvalue twice on each side: four tied zero distances
                    xs[1] = xs[0]
                    ys[0], ys[1] = xs[0], xs[0]
                yield xs, ys
        yield [0.0, 2.0, 4.0], [1.0, 3.0]  # every distance to a neighbour is 1.0
        yield list(np.array([1 + 2j, 1 + 2j], dtype=np.complex128)), [1 + 2j, -1j]

    def test_equals_greedy_match_on_python_abs_bit_for_bit(self):
        for xs, ys in self._candidate_lists():
            want = greedy_match_by([complex(x) for x in xs], [complex(y) for y in ys],
                                   lambda a, b: abs(a - b))
            assert repr(pair_mu_candidates(xs, ys)) == repr(want)


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
        monkeypatch.setattr(
            tp, "_mu_candidates",
            lambda p, i, lams, opts, streams: [None if i == free else [a, a, b] for _ in lams],
        )
        for unique in (False, True):
            pairs = solve_2ep(p, opts=SolveOptions(seed=2), unique_lambda=unique)
            lams = sorted({e.lam for e in pairs}, key=lambda z: (z.real, z.imag))
            assert len(lams) == 4
            for lam in lams:
                got = [(e.mu, e.mu_discrepancy) for e in pairs if e.lam == lam]
                assert got == ([(a, 0.0)] if unique else [(a, 0.0), (a, 0.0), (b, 0.0)])

    @pytest.mark.parametrize("delta", [math.nan, -1e-6])
    def test_delta_must_be_nonnegative(self, delta):
        # a NaN delta used to accept every matched pair (27 on the cubic),
        # a negative one to return no pair at all
        with pytest.raises(ValueError, match="delta"):
            solve_2ep(bivariate_cubic_system()[0], delta=delta, opts=SolveOptions(seed=0))

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
        # each spectrum of a stack on its own, and the stack of both in one pass
        ties = np.array([[0, 1, 2, 4], [5, 0, 3, 2.5]], dtype=complex)
        for rows, want in (([0], ([0], [1])), ([1], ([2], [3])), ([0, 1], ([0, 2], [1, 3]))):
            i, j = tp._closest_pairs(ties[rows])
            assert (i.tolist(), j.tolist()) == want

    def test_linearization_shapes_and_rank(self):
        rng = np.random.default_rng(11)
        A = random_complex(rng, (2, 2))
        B = random_complex(rng, (2, 2))
        D1, D0 = double_eig_linearization(A, B)
        assert D1.shape == D0.shape == (8, 8)
        rep = normal_rank(Pencil(A=D1, B=D0), np.random.default_rng(0))
        assert rep.nrank == 6  # 2 n^2 - n

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_linearization_is_two_of_the_operator_determinants(self, n, real):
        rng = np.random.default_rng(300 + n)
        A, B = (rng.standard_normal((n, n)) if real else random_complex(rng, (n, n)) for _ in "AB")
        A, B = A.astype(complex), B.astype(complex)  # as the linearization converts them
        I, Z = np.eye(n, dtype=complex), np.zeros((n, n), complex)
        deltas = operator_determinants(TwoParamProblem(
            A1=A, B1=B, C1=-I, A2=np.block([[A, -I], [Z, A]]), B2=np.block([[B, Z], [Z, B]]),
            C2=-np.eye(2 * n)))
        D1, D0 = double_eig_linearization(A, B)
        assert D1.tobytes() == deltas.D1.tobytes() and D0.tobytes() == deltas.D0.tobytes()

    def test_linearization_does_not_form_delta2(self):
        # the traced peak of the linearization stays one (2 n^2)^2 array below that
        # of operator_determinants of its 2EP, which forms Delta2 as well
        import tracemalloc

        def peak(f, *args):
            tracemalloc.start()
            try:
                f(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rng = np.random.default_rng(8)
        A, B = random_complex(rng, (8, 8)), random_complex(rng, (8, 8))
        I, Z = np.eye(8, dtype=complex), np.zeros((8, 8), complex)
        problem = TwoParamProblem(
            A1=A, B1=B, C1=-I, A2=np.block([[A, -I], [Z, A]]), B2=np.block([[B, Z], [Z, B]]),
            C2=-np.eye(16))
        array = 16 * (2 * 8 * 8) ** 2
        assert peak(double_eig_linearization, A, B) < peak(operator_determinants, problem) - 0.9 * array

    def test_scalar_case_has_no_solutions(self):
        D1, D0 = double_eig_linearization([[2.0]], [[1.0]])
        assert D1.shape == (2, 2)
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

    def test_count_warning_flags_more_lambdas_than_n_n_minus_1(self):
        # the 1e150 pencil's overflowing linearization returns 8 lambdas for n = 3
        res = double_eig(np.diag([1e150, 1.0, 2.0]), np.diag([1.0, 1e-150, 1.0]),
                         opts=SolveOptions(seed=1))
        assert len(res.lambdas) > 6 and res.count_warning
        rng = np.random.default_rng(8)
        res = double_eig(random_complex(rng, (3, 3)), random_complex(rng, (3, 3)),
                         opts=SolveOptions(seed=4))
        assert len(res.lambdas) == 6 and not res.count_warning

    @pytest.mark.parametrize("n,seed", [(n, s) for n in (3, 4, 5, 6) for s in (1, 2)])
    def test_linearization_class_counts_are_closed_form(self, n, seed):
        # n(n-1) double-eigenvalue lambdas, n infinite, k = n prescribed and
        # M = N = n(n-1)/2 random eigenvalues of the 2 n^2 x 2 n^2 pencil
        rng = np.random.default_rng(seed)
        A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        res = double_eig(A, B, opts=SolveOptions(seed=seed))
        counts = np.bincount(res.solve_result.classes, minlength=len(EigenClass))
        expected = {
            EigenClass.FINITE_TRUE: n * (n - 1),
            EigenClass.INFINITE_TRUE: n,
            EigenClass.PRESCRIBED: n,
            EigenClass.RANDOM_RIGHT: n * (n - 1) // 2,
            EigenClass.RANDOM_LEFT: n * (n - 1) // 2,
        }
        assert {c: int(counts[i]) for i, c in enumerate(EigenClass) if counts[i]} == expected
        assert len(res.lambdas) == n * (n - 1) and not res.count_warning

    @pytest.mark.parametrize("similar", [False, True])
    def test_semisimple_crossings_come_back_as_clusters(self, similar):
        # the eigenvalue curves 1, 2 + lam and 3 + 3 lam of this pair cross
        # (without a Jordan block) at lam = -1, -2/3 and -1/2
        A, B = np.diag([1.0, 2.0, 3.0]), np.diag([0.0, 1.0, 3.0])
        if similar:
            S = np.random.default_rng(0).standard_normal((3, 3))
            A, B = S @ A @ np.linalg.inv(S), S @ B @ np.linalg.inv(S)
        crossings = np.array([-1.0, -2.0 / 3.0, -0.5])
        res = double_eig(A, B, opts=SolveOptions(seed=0))
        dist = np.abs(np.subtract.outer(res.lambdas, crossings))
        assert np.all(dist.min(axis=1) <= 5e-8)
        assert set(dist.argmin(axis=1).tolist()) == {0, 1, 2}

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


def _sweep_problems():
    """n = 2..8 with 8 seeds each (odd seeds complex), plus criterion 5's near-triple problem."""
    for n in range(2, 9):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            draw = random_complex if seed % 2 else (lambda r, shape: r.standard_normal(shape))
            yield f"n{n}-s{seed}", draw(rng, (n, n)), draw(rng, (n, n)), seed
    rng = np.random.default_rng(6)
    yield "near-triple", rng.standard_normal((4, 4)), rng.standard_normal((4, 4)), 0


@pytest.mark.slow
def test_chain_linearization_matches_the_squared_one():
    # double_eig's 2 n^2 form against the 3 n^2 form of _double_eig_2ep, both
    # solved and polished the same way: the lambdas match one to one
    for name, A, B, seed in _sweep_problems():
        A, B = np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)
        squared = operator_determinants(_double_eig_2ep(A, B))
        lams = []
        for D1, D0 in (double_eig_linearization(A, B), (squared.D1, squared.D0)):
            found = solve(Pencil(A=D1, B=D0), SolveOptions(seed=seed)).finite_true_values
            lams.append(tp._polish(A, B, found, True)[0])
        n = A.shape[0]
        assert len(lams[0]) == len(lams[1]) == n * (n - 1), name
        matched = greedy_match_by(*lams, lambda a, b: abs(a - b) / abs(b))
        assert max(d for _, _, d in matched) <= 1e-12, name


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
        text = csv_text(
            ["lambda_re", "lambda_im", "mu_re", "mu_im", "discrepancy", "residual1", "residual2"],
            [(e.lam, e.mu, e.mu_discrepancy, e.residual1, e.residual2) for e in pairs],
        )
        header, row = text.strip().split("\n")
        e = pairs[0]
        assert [float(v) for v in row.split(",")] == [
            e.lam.real, e.lam.imag, e.mu.real, e.mu.imag, e.mu_discrepancy, e.residual1, e.residual2
        ]

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="equation 1"):
            TwoParamProblem(
                A1=np.eye(2), B1=np.eye(3), C1=np.eye(2),
                A2=np.eye(2), B2=np.eye(2), C2=np.eye(2),
            )

    @pytest.mark.parametrize("i", [0, 3])
    def test_equation_index_must_be_1_or_2(self, i):
        # equation(0) used to return equation 2's matrices, equation(3) a bare IndexError
        p = bivariate_cubic_system()[0]
        with pytest.raises(ValueError, match=f"equation index i must be 1 or 2, got {i}"):
            p.equation(i)
        with pytest.raises(ValueError, match=f"equation index i must be 1 or 2, got {i}"):
            p.evaluate(i, 0.5, 0.25)


def _per_lambda_solve_2ep(p, opts, rng, unique_lambda):
    """:func:`solve_2ep` written out with one ``solve`` per lambda and equation.

    The reference for the stacked mu solves: each lambda's stream serves
    equation 1; a lambda whose core record scores one equation-1 candidate
    (with its copies) far better than the rest takes their mean, and any
    other lambda's stream then serves equation 2.  Every score and residual
    comes from its own product or SVD.  A conjugate partner of a real
    problem uses no stream and takes its representative's pairs with
    lambda and mu conjugated.
    """
    opts, rng = with_defaults(opts, rng)
    delta = DEFAULT_MATCH_TOL
    d = operator_determinants(p)
    core = solve(Pencil(A=d.D1, B=d.D0), opts, rng)
    lams = tp._cluster_values(core.finite_true_values, delta)
    partners = tp._conjugate_partners(lams, delta, (p.A1, p.B1, p.C1, p.A2, p.B2, p.C2))
    own = {}
    for r, (lam, stream) in enumerate(zip(lams, rng.spawn(len(lams)))):
        if r in partners:
            continue
        own[r] = []
        mus1 = _mu_list(p, 1, lam, opts, stream)
        scored = _scored_mu(core, d, lam, mus1, delta)
        if scored is not None:
            matched = [scored]
        else:
            mus2 = _mu_list(p, 2, lam, opts, stream)
            if mus1 is None and mus2 is None:
                continue
            matched = pair_mu_candidates(mus2 if mus1 is None else mus1,
                                         mus1 if mus2 is None else mus2)
            if unique_lambda:
                matched = matched[:1]
            matched = [((m1 + m2) / 2.0, disc) for m1, m2, disc in matched
                       if unique_lambda or disc < delta]
        for mu, disc in matched:
            r1, r2 = (float(np.linalg.svd(p.evaluate(i, lam, mu), compute_uv=False)[-1])
                      for i in (1, 2))
            own[r].append(tp.Eigenpair2EP(lam, mu, disc, r1, r2))
    pairs = [e for found in own.values() for e in found]
    pairs += [tp.Eigenpair2EP(e.lam.conjugate(), e.mu.conjugate(), e.mu_discrepancy,
                              e.residual1, e.residual2) for up in partners.values() for e in own[up]]
    pairs.sort(key=lambda e: (e.lam.real, e.lam.imag, e.mu.real, e.mu.imag))
    return pairs


def _mu_list(p, i, lam, opts, stream):
    """The finite mu of equation i at ``lam``, or None when equation i is free of mu."""
    a, b, c = p.equation(i)
    fixed = a + lam * b
    if np.linalg.norm(c, 1) == 0.0:
        return None if rank_with_tol(fixed) < fixed.shape[0] else []
    return solve(Pencil(A=fixed, B=-c), opts, stream).finite_true_values


def _scored_mu(core, d, lam, mus1, delta):
    """(mu, discrepancy) of ``lam`` when its core record's score decides it, else None."""
    near = [rec for rec in core.finite_true if abs(rec.value - lam) <= delta * max(1.0, abs(lam))]
    if not mus1 or len(near) != 1:
        return None
    x, y = near[0].x, near[0].y
    a, b = y.conj() @ (d.D2 @ x), y.conj() @ (d.D0 @ x)
    scores = [abs(a - mu * b) / (abs(a) + abs(mu * b)) for mu in mus1]
    best = min(range(len(mus1)), key=scores.__getitem__)
    tol = 1e-4 * max(1.0, abs(mus1[best]))
    copies = [mu for mu in mus1 if abs(mu - mus1[best]) <= tol]
    rivals = [s for mu, s in zip(mus1, scores) if abs(mu - mus1[best]) > tol]
    if not (scores[best] <= 1e-3 and all(s >= 1e3 * scores[best] for s in rivals)):
        return None
    spread = max((abs(u - v) for u, v in itertools.combinations(copies, 2)), default=0.0)
    return sum(copies) / len(copies), spread


def _padded_cubic():
    """The bivariate cubic with a zero row and column added to A1, B1, C1.

    Its equation-1 mu pencils are singular (k = 1), so every one of them
    is perturbed, and the nine roots stay the same.
    """
    p = bivariate_cubic_system()[0]
    pad = lambda m: np.pad(m, ((0, 1), (0, 1)))  # noqa: E731
    return TwoParamProblem(pad(p.A1), pad(p.B1), pad(p.C1), p.A2, p.B2, p.C2)


def _counting_solve(calls):
    """``solve`` that appends 1 for a pencil, and the stack size for a list, to ``calls``."""
    def counting(q, opts=None, rng=None):
        calls.append(1 if isinstance(q, Pencil) else len(q))
        return solve(q, opts, rng)
    return counting


class TestStackedMuSolves:
    """The stacked mu solves and the scores give the pairs of a per-lambda loop, bit for bit."""

    @pytest.mark.parametrize(
        "name,make,unique,seeds",
        [
            ("double_eig_2ep_1", lambda: double_eig_problem(1), True, (11,)),
            ("double_eig_2ep_2", lambda: double_eig_problem(2), True, (12,)),
            ("double_eig_2ep_13", lambda: double_eig_problem(13), True, (13,)),
            ("cubic", lambda: bivariate_cubic_system()[0], False, (0, 1)),
            ("cubic_unique", lambda: bivariate_cubic_system()[0], True, (0,)),
            ("padded_cubic", _padded_cubic, False, (0, 1)),
        ],
    )
    def test_equals_per_lambda_loop(self, name, make, unique, seeds):
        p = make()
        for seed in seeds:
            opts = SolveOptions(seed=seed)
            got = solve_2ep(p, opts=opts, rng=np.random.default_rng(seed), unique_lambda=unique)
            want = _per_lambda_solve_2ep(p, opts, np.random.default_rng(seed), unique)
            assert repr(got) == repr(want)
            assert got

    def test_padded_cubic_mu_pencils_are_singular_and_keep_the_roots(self):
        p = _padded_cubic()
        pairs = solve_2ep(p, opts=SolveOptions(seed=0))
        lam = pairs[0].lam
        report = normal_rank(Pencil(A=p.A1 + lam * p.B1, B=-p.C1), np.random.default_rng(0))
        assert report.k == 1
        _, c1, c2 = bivariate_cubic_system()
        assert len(pairs) == 9
        assert max(abs(evaluate_bivariate(c, e.lam, e.mu)) for e in pairs for c in (c1, c2)) < 1e-6

    def test_each_matrix_is_checked_once(self, monkeypatch):
        # matrix_core._checked runs twice per QZ call, twice per pencil built outside
        # solve (the core pencil and the base of the equation-1 mu pencils) and twice
        # per perturbation; the mu pencils derived from a base are not checked again.
        # The problem is real: 18 of its 30 lambdas are representatives, and the core
        # eigenvectors decide every mu, so equation 2 is not solved: 18 + 1 QZ
        import singpencil.matrix_core as mc
        import singpencil.solver as solver_module

        p = double_eig_problem(1)
        counts = {"checked": 0, "qz": 0, "perturbations": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(mc, "_checked", counting("checked", mc._checked))
        monkeypatch.setattr(solver_module, "generalized_eig", counting("qz", solver_module.generalized_eig))
        monkeypatch.setattr(solver_module, "make_perturbation",
                            counting("perturbations", solver_module.make_perturbation))
        solve_2ep(p, opts=SolveOptions(seed=1), rng=np.random.default_rng(1), unique_lambda=True)
        assert counts == {"checked": 44, "qz": 19, "perturbations": 1}
        assert counts["checked"] == 2 * counts["qz"] + 2 * 2 + 2 * counts["perturbations"]

    def test_overflowing_mu_pencil_stops_in_scale(self):
        p = bivariate_cubic_system()[0]
        streams = np.random.default_rng(0).spawn(1)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="A contains non-finite entries"):
            tp._mu_candidates(p, 1, [1e308 + 0j], SolveOptions(seed=0), streams)

    def test_two_stacked_mu_solves_per_call(self, monkeypatch):
        # one solve for lambda, then one for equation 1 over the representative
        # lambdas (one per real lambda and per conjugate pair, 18 of the 30); the
        # core eigenvectors decide every mu, so equation 2's stack is not solved
        calls = []
        monkeypatch.setattr(tp, "solve", _counting_solve(calls))
        pairs = solve_2ep(double_eig_problem(1), opts=SolveOptions(seed=1), unique_lambda=True)
        reps = len({(e.lam.real, abs(e.lam.imag)) for e in pairs})
        assert calls == [1, reps] and reps == 18 and len(pairs) == 30


def _complex_double_eig_problem(seed):
    """``double_eig_problem(seed)`` with equation 1 times 1j: the same solutions, complex input."""
    p = double_eig_problem(seed)
    return TwoParamProblem(1j * p.A1, 1j * p.B1, 1j * p.C1, p.A2, p.B2, p.C2)


def _assert_closed_under_conjugation(items, tol=DEFAULT_MATCH_TOL):
    """Every non-real entry's exact conjugate is in ``items``; returns how many are non-real.

    ``items`` are tuples whose first two entries are conjugated (lambda and
    mu, or lambda and a dummy) and whose remaining entries are copied.
    """
    conj = {(a.conjugate(), b.conjugate()) + tuple(rest) for a, b, *rest in items}
    off = [t for t in items if abs(t[0].imag) > tol * max(1.0, abs(t[0]))]
    assert all(t in conj for t in off)
    return len(off)


class TestConjugatePartners:
    """One member of each conjugate pair of a real problem is solved, the other mirrors it."""

    tol = 1e-8

    def test_pair_maps_lower_to_upper(self):
        assert tp._conjugate_partners([1 + 2j, 1 - 2j], self.tol, ()) == {1: 0}
        assert tp._conjugate_partners([1 - 2j, 1 + 2j + 1e-12], self.tol, ()) == {0: 1}

    def test_real_value_stands_for_itself(self):
        assert tp._conjugate_partners([3.0 + 1e-12j, -2.0 - 1e-12j, 5.0], self.tol, ()) == {}

    def test_lone_upper_value_stands_for_itself(self):
        assert tp._conjugate_partners([1 + 2j, 4 - 1j], self.tol, ()) == {}

    def test_non_finite_values_take_no_part(self):
        values = [complex(math.inf, 1.0), complex(math.inf, -1.0), complex(math.nan, 1.0)]
        assert tp._conjugate_partners(values, self.tol, ()) == {}

    def test_close_pairs_match_closest_first(self):
        # two pairs 2e-9 apart, closer than tol to each other: each lower value
        # takes the upper value whose conjugate is nearest to it
        a, b = 1 + 2j, 1 + 2e-9 + 2j
        values = [a, b, b.conjugate() + 1e-13, a.conjugate() - 1e-13]
        assert tp._conjugate_partners(values, self.tol, ()) == {2: 1, 3: 0}

    def test_complex_input_gives_no_partners(self):
        values = [1 + 2j, 1 - 2j]
        assert tp._conjugate_partners(values, self.tol, (np.eye(2), np.eye(2))) == {1: 0}
        assert tp._conjugate_partners(values, self.tol, (np.eye(2), 1j * np.eye(2))) == {}

    @pytest.mark.parametrize(
        "make,unique,count",
        [(lambda: double_eig_problem(1), True, 30), (lambda: bivariate_cubic_system()[0], False, 9)],
    )
    def test_solve_2ep_partners_mirror_their_representatives(self, make, unique, count):
        pairs = solve_2ep(make(), opts=SolveOptions(seed=1), rng=np.random.default_rng(1),
                          unique_lambda=unique)
        assert len(pairs) == count
        items = [(e.lam, e.mu, e.mu_discrepancy, e.residual1, e.residual2) for e in pairs]
        assert _assert_closed_under_conjugation(items) >= count // 3

    def test_double_eig_partners_mirror_their_representatives(self):
        rng = np.random.default_rng(1)
        A, B = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
        for refine in (True, False):
            res = double_eig(A, B, opts=SolveOptions(seed=1), refine=refine)
            assert len(res.lambdas) == 56
            items = [(lam, 0j, gap) for lam, gap in zip(res.lambdas, res.gaps)]
            assert _assert_closed_under_conjugation(items) >= 40

    def test_complex_problem_is_not_paired(self, monkeypatch):
        # equation 1 times 1j keeps the solutions of the real problem, but no lambda
        # may mirror another: every one gets its own equation-1 mu solve, as in the
        # loop, and the core eigenvectors decide every mu
        p = _complex_double_eig_problem(1)
        opts = SolveOptions(seed=1)
        want = _per_lambda_solve_2ep(p, opts, np.random.default_rng(1), True)
        calls = []
        monkeypatch.setattr(tp, "solve", _counting_solve(calls))
        got = solve_2ep(p, opts=opts, rng=np.random.default_rng(1), unique_lambda=True)
        assert repr(got) == repr(want)
        assert calls == [1, 30] and len(got) == 30
        real = solve_2ep(double_eig_problem(1), opts=opts, rng=np.random.default_rng(1),
                         unique_lambda=True)
        assert_multiset_close([e.lam for e in got], [e.lam for e in real], rtol=1e-6, atol=1e-6)


class TestScoredMu:
    """The core eigenvectors pick mu where the two equations cannot tell the candidates apart."""

    @pytest.mark.parametrize("unique", [False, True])
    @pytest.mark.parametrize("complex_input", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 13])
    def test_mu_is_the_double_eigenvalue(self, seed, complex_input, unique):
        # every eigenvalue of A + lambda B solves both equations at a double-eigenvalue
        # lambda; only the double one (the midpoint of the closest pair) is its mu
        real = double_eig_problem(seed)
        p = _complex_double_eig_problem(seed) if complex_input else real
        pairs = solve_2ep(p, opts=SolveOptions(seed=seed), unique_lambda=unique)
        assert len(pairs) == 30
        for e in pairs:
            w = np.linalg.eigvals(real.A1 + e.lam * real.B1)
            (i,), (j,) = tp._closest_pairs(w[None])
            mid = (w[i] + w[j]) / 2
            assert abs(e.mu - mid) <= 1e-8 * max(1.0, abs(mid))

    @pytest.mark.parametrize("make", [lambda: bivariate_cubic_system()[0], _padded_cubic])
    def test_equation_2_is_solved_where_the_score_cannot_decide(self, monkeypatch, make):
        # on the cubic every best score is of order one, so each representative's
        # equation-2 mu pencil is solved and matched, as without the score
        calls = []
        monkeypatch.setattr(tp, "solve", _counting_solve(calls))
        pairs = solve_2ep(make(), opts=SolveOptions(seed=0))
        reps = len({(e.lam.real, abs(e.lam.imag)) for e in pairs})
        assert calls == [1, reps, reps] and reps == 5 and len(pairs) == 9


class TestProbePointsDecideOnlyTheRank:
    """Real pencils are probed on [-1, 1]; the unit circle of before gives the same results.

    ``solver.normal_rank`` is patched to :func:`unit_circle_normal_rank`;
    both runs draw the same numbers, so every value, class, lambda, mu,
    discrepancy, residual and gap agrees bit for bit.
    """

    @staticmethod
    def _both(monkeypatch, run):
        import singpencil.solver as solver_mod

        now = run()
        with monkeypatch.context() as m:
            m.setattr(solver_mod, "normal_rank", unit_circle_normal_rank)
            before = run()
        return now, before

    @staticmethod
    def _fields(res):
        fields = result_fields(res)
        report = fields.pop("nrank_report")  # its probe points are the change
        return fields, (res.nrank_report.nrank, res.nrank_report.k), report

    @pytest.mark.parametrize("name", ["showcase", "diagonal", "control", "staircase", "linearization_5",
                                      "double_eig_problem_1"])
    def test_solve(self, monkeypatch, name):
        from singpencil.gallery import (
            control_benchmark_pencil,
            diagonal_demo_pencil,
            showcase_pencil,
            staircase_sensitive_pencil,
        )

        rng = np.random.default_rng(5)
        d = operator_determinants(double_eig_problem(1))
        p = {"showcase": showcase_pencil, "diagonal": diagonal_demo_pencil,
             "control": control_benchmark_pencil, "staircase": staircase_sensitive_pencil,
             "linearization_5": lambda: Pencil(*double_eig_linearization(
                 rng.standard_normal((5, 5)), rng.standard_normal((5, 5)))),
             "double_eig_problem_1": lambda: Pencil(A=d.D1, B=d.D0)}[name]()
        for seed in range(3):
            now, before = self._both(monkeypatch, lambda: solve(p, SolveOptions(seed=seed)))
            (got, rank, report), (want, want_rank, old_report) = self._fields(now), self._fields(before)
            assert got == want and rank == want_rank
            assert report != old_report  # real probes against unit-circle ones

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_double_eig(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        A, B = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
        now, before = self._both(monkeypatch, lambda: double_eig(A, B, SolveOptions(seed=seed)))
        assert repr((now.lambdas, now.gaps)) == repr((before.lambdas, before.gaps))
        assert self._fields(now.solve_result)[:2] == self._fields(before.solve_result)[:2]

    @pytest.mark.parametrize("seed", [1, 2, 13])
    def test_solve_2ep(self, monkeypatch, seed):
        p = double_eig_problem(seed)
        now, before = self._both(monkeypatch, lambda: solve_2ep(
            p, opts=SolveOptions(seed=seed), rng=np.random.default_rng(seed), unique_lambda=True))
        assert repr(now) == repr(before) and now

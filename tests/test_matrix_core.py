"""Tests for the dense matrix primitives and the generalized eigensolver."""

import numpy as np
import pytest

from singpencil import (
    EPS,
    HomogeneousEigenvalue,
    as_cmatrix,
    chordal_distance,
    generalized_eig,
    greedy_match,
    kron,
    random_orthonormal,
    rank_with_tol,
)

from helpers import assert_multiset_close, greedy_chordal_match, random_complex


class TestAsCMatrix:
    def test_coerces_real_input(self):
        m = as_cmatrix([[1, 2], [3, 4]])
        assert m.dtype == np.complex128
        assert m.flags.c_contiguous

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_cmatrix([[np.nan, 0], [0, 1]])

    def test_rejects_inf_imag(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_cmatrix(np.array([[1j * np.inf, 0], [0, 1]]))

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            as_cmatrix([1, 2, 3])


class TestHomogeneousEigenvalue:
    def test_normalized(self):
        e = HomogeneousEigenvalue(3.0, 4.0)
        assert abs(abs(e.alpha) ** 2 + abs(e.beta) ** 2 - 1.0) < 10 * EPS
        assert abs(e.value - 0.75) < 1e-15

    def test_zero_pair_rejected(self):
        with pytest.raises(ValueError):
            HomogeneousEigenvalue(0.0, 0.0)

    def test_infinite_flag(self):
        e = HomogeneousEigenvalue(1.0, 0.0)
        assert e.is_infinite
        assert np.isinf(e.value.real)
        assert not HomogeneousEigenvalue(0.0, 1.0).is_infinite

    def test_rescaled(self):
        e = HomogeneousEigenvalue(1.0, 2.0)
        assert abs(e.rescaled(6.0, 3.0).value - 1.0) < 1e-15

    def test_chordal_distance(self):
        inf = HomogeneousEigenvalue(1.0, 0.0)
        assert chordal_distance(inf, complex(np.inf)) == 0.0
        assert chordal_distance(1.0, 1.0) == 0.0
        d = chordal_distance(0.0, complex(np.inf))
        assert abs(d - 1.0) < 1e-15


class TestGeneralizedEig:
    def test_diagonal_case(self):
        dec = generalized_eig(np.diag([1.0, 2.0]), np.eye(2))
        vals = sorted(e.value.real for e in dec.eigenvalues())
        np.testing.assert_allclose(vals, [1.0, 2.0], atol=1e-14)
        # eigenvectors are the standard basis up to phase
        for i in range(2):
            x = dec.right[:, i]
            assert max(abs(x)) > 1.0 - 1e-12

    def test_singular_b_regular_pencil(self):
        dec = generalized_eig(np.eye(2), np.diag([1.0, 0.0]))
        flags = sorted(e.is_infinite for e in dec.eigenvalues())
        assert flags == [False, True]
        finite = [e.value for e in dec.eigenvalues() if not e.is_infinite]
        np.testing.assert_allclose(finite, [1.0], atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            generalized_eig(np.eye(2), np.eye(3))
        with pytest.raises(ValueError):
            generalized_eig(np.ones((2, 3)), np.ones((2, 3)))

    def test_residual_contract_random_pencils(self):
        # backward-stability proxy: residuals of both eigenvector sides
        rng = np.random.default_rng(7)
        c = 100.0
        for trial in range(100):
            n = int(rng.integers(2, 31))
            A = random_complex(rng, (n, n))
            B = random_complex(rng, (n, n))
            dec = generalized_eig(A, B)
            bound = c * n * EPS * (np.linalg.norm(A, 2) + np.linalg.norm(B, 2))
            for i in range(n):
                m = dec.beta[i] * A - dec.alpha[i] * B
                right = np.linalg.norm(m @ dec.right[:, i])
                left = np.linalg.norm(dec.left[:, i].conj() @ m)
                assert right <= bound and left <= bound

    def test_equivalence_invariance(self):
        # multiset of eigenvalues is invariant under P A Q, P B Q
        rng = np.random.default_rng(21)
        for n in (3, 5, 8, 12, 20):
            A = random_complex(rng, (n, n))
            B = random_complex(rng, (n, n))
            P = random_complex(rng, (n, n))
            Q = random_complex(rng, (n, n))
            e1 = generalized_eig(A, B).eigenvalues()
            e2 = generalized_eig(P @ A @ Q, P @ B @ Q).eigenvalues()
            finite1 = sorted(
                (e.value for e in e1 if not e.is_infinite), key=lambda z: (z.real, z.imag)
            )
            finite2 = sorted(
                (e.value for e in e2 if not e.is_infinite), key=lambda z: (z.real, z.imag)
            )
            assert len(finite1) == len(finite2)
            for a, b, _ in greedy_chordal_match(finite1, finite2):
                assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


class TestRankWithTol:
    def test_zero_matrix(self):
        assert rank_with_tol(np.zeros((3, 4))) == 0

    def test_identity(self):
        assert rank_with_tol(np.eye(5)) == 5

    def test_tiny_singular_value_below_auto_tol(self):
        m = np.diag([1.0, 1e-20])
        # independent check of the threshold: sigma = {1, 1e-20}, auto tol = 2 eps
        s = np.linalg.svd(m, compute_uv=False)
        assert s[1] < 2 * EPS * s[0]
        assert rank_with_tol(m) == 1
        assert rank_with_tol(m, tol=0.0) == 2

    def test_explicit_tol(self):
        assert rank_with_tol(np.diag([1.0, 1e-3]), tol=1e-2) == 1

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            rank_with_tol(np.eye(2), tol=-1.0)


class TestGreedyMatch:
    def test_matches_reference_loop_in_distance_order(self):
        rng = np.random.default_rng(4)
        for m, n in ((5, 5), (3, 6), (6, 2)):
            xs = [complex(z) for z in random_complex(rng, (m,))] + [complex(np.inf)]
            ys = [complex(z) for z in random_complex(rng, (n,))]
            ref = sorted(greedy_chordal_match(xs, ys), key=lambda t: t[2])
            assert greedy_match(xs, ys, chordal_distance) == ref

    def test_ties_break_by_index(self):
        out = greedy_match(["a", "b"], ["c", "d", "e"], lambda a, b: 0.0)
        assert out == [("a", "c", 0.0), ("b", "d", 0.0)]


class TestRandomOrthonormal:
    def test_square_is_unitary(self):
        q = random_orthonormal(5, 5, np.random.default_rng(0))
        assert np.linalg.norm(q.conj().T @ q - np.eye(5)) <= 5e-15

    def test_single_column_unit_vector(self):
        q = random_orthonormal(7, 1, np.random.default_rng(1))
        assert abs(np.linalg.norm(q) - 1.0) <= 10 * EPS

    def test_deterministic(self):
        a = random_orthonormal(6, 3, np.random.default_rng(42))
        b = random_orthonormal(6, 3, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_orthonormality_bound_various_shapes(self):
        rng = np.random.default_rng(3)
        for n, k in [(2, 1), (5, 3), (10, 10), (30, 7), (50, 20)]:
            q = random_orthonormal(n, k, rng)
            assert np.linalg.norm(q.conj().T @ q - np.eye(k)) <= 10 * n * EPS

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            random_orthonormal(3, 4, np.random.default_rng(0))


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_block_placement(self):
        n = np.array([[0, 1], [0, 0]])
        k = kron(n, np.eye(2))
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, 2:] = np.eye(2)
        np.testing.assert_array_equal(k, expected)

    def test_mixed_product_on_vectors(self):
        rng = np.random.default_rng(11)
        A = random_complex(rng, (2, 2))
        B = random_complex(rng, (2, 2))
        x = random_complex(rng, (2, 1))
        y = random_complex(rng, (2, 1))
        lhs = kron(A, B) @ kron(x, y)
        rhs = kron(A @ x, B @ y)
        assert np.linalg.norm(lhs - rhs) <= 1e-14

    def test_bilinearity_and_mixed_product(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            A = random_complex(rng, (3, 2))
            A2 = random_complex(rng, (3, 2))
            B = random_complex(rng, (2, 3))
            C = random_complex(rng, (2, 4))
            D = random_complex(rng, (3, 2))
            assert np.linalg.norm(kron(A + A2, B) - kron(A, B) - kron(A2, B)) <= 1e-13
            # (A (x) B)(C (x) D) = AC (x) BD
            lhs = kron(A, B) @ kron(C, D)
            rhs = kron(A @ C, B @ D)
            assert np.linalg.norm(lhs - rhs) <= 1e-13


def test_eigenvalue_multiset_match_helper():
    assert_multiset_close([1.0 + 0j, 2.0 + 0j], [2.0 + 1e-12j, 1.0 + 0j])

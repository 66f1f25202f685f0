"""Tests for scaling, squarification, normal rank and Matrix Market I/O."""

import numpy as np
import pytest
import scipy.sparse

from singpencil import (
    Pencil,
    SolveOptions,
    generalized_eig,
    normal_rank,
    scale,
    solve,
    squarify,
)
from singpencil.gallery import (
    control_benchmark_pencil,
    diagonal_demo_pencil,
    showcase_pencil,
    staircase_sensitive_pencil,
)
from singpencil.pencil import read_matrix, read_pencil, write_matrix, write_pencil

from helpers import random_complex, run_python


class TestScale:
    def test_diagonal_factors(self):
        p = scale(Pencil(A=2 * np.eye(2), B=4 * np.eye(2)))
        assert np.linalg.norm(p.A, 1) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.norm(p.B, 1) == pytest.approx(1.0, abs=1e-15)
        assert p.scale_alpha == pytest.approx(2.0)
        assert p.scale_beta == pytest.approx(4.0)
        assert p.back_factor == pytest.approx(0.5)

    def test_unit_norm_is_identity(self):
        p0 = Pencil(A=np.eye(3), B=np.eye(3))
        p = scale(p0)
        assert p.scale_alpha == pytest.approx(1.0)
        assert p.scale_beta == pytest.approx(1.0)
        np.testing.assert_allclose(p.A, p0.A)

    def test_showcase_factors_and_backmapping(self):
        p = showcase_pencil()
        alpha = np.linalg.norm(p.A, 1)
        beta = np.linalg.norm(p.B, 1)
        ps = scale(p)
        assert ps.scale_alpha == pytest.approx(alpha)
        assert ps.scale_beta == pytest.approx(beta)
        # eigenvalues of the original pencil survive the scale/back-map round trip
        res = solve(p, SolveOptions(seed=5))
        vals = sorted(v.real for v in res.finite_true_values)
        np.testing.assert_allclose(vals, [1 / 3, 1 / 2], atol=1e-8)

    def test_zero_matrix_keeps_unit_factor(self):
        for a, b in ((0.0, 3.0), (3.0, 0.0), (0.0, 0.0)):
            p = scale(Pencil(A=a * np.eye(2), B=b * np.eye(2)))
            assert p.scale_alpha == (a or 1.0) and p.scale_beta == (b or 1.0)
            assert np.linalg.norm(p.A, 1) == (1.0 if a else 0.0)
            assert np.linalg.norm(p.B, 1) == (1.0 if b else 0.0)
            assert np.isfinite(p.back_factor)

    def test_spectrum_preserved_on_regular_pencils(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            A = random_complex(rng, (6, 6))
            B = random_complex(rng, (6, 6))
            base = sorted(
                (e.value for e in generalized_eig(A, B).eigenvalues() if not e.is_infinite),
                key=lambda z: (z.real, z.imag),
            )
            ps = scale(Pencil(A=A, B=B))
            mapped = sorted(
                (
                    e.rescaled(ps.scale_alpha, ps.scale_beta).value
                    for e in generalized_eig(ps.A, ps.B).eigenvalues()
                    if not e.is_infinite
                ),
                key=lambda z: (z.real, z.imag),
            )
            for a, b in zip(base, mapped):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


class TestSquarify:
    def test_square_unchanged(self):
        p = diagonal_demo_pencil()
        assert squarify(p) is p

    def test_rectangular_adds_zero_rows(self):
        p = Pencil(A=np.ones((4, 5)), B=np.ones((4, 5)))
        q = squarify(p)
        assert q.shape == (5, 5)
        np.testing.assert_array_equal(q.A[:4, :], p.A)
        np.testing.assert_array_equal(q.A[4, :], np.zeros(5))

    def test_1x3(self):
        q = squarify(Pencil(A=np.ones((1, 3)), B=np.ones((1, 3))))
        assert q.shape == (3, 3)
        np.testing.assert_array_equal(q.A[1:, :], np.zeros((2, 3)))


class TestNormalRank:
    def test_diagonal_demo(self):
        rep = normal_rank(diagonal_demo_pencil(), np.random.default_rng(0))
        assert rep.nrank == 3
        assert rep.k == 3
        assert len(rep.zeta_samples) == 2
        assert rep.tol_used > 0

    def test_showcase(self):
        rep = normal_rank(showcase_pencil(), np.random.default_rng(0))
        assert rep.nrank == 6
        assert rep.k == 1

    def test_regular_pencil(self):
        rng = np.random.default_rng(2)
        rep = normal_rank(Pencil(A=np.eye(4), B=random_complex(rng, (4, 4))), rng)
        assert rep.nrank == 4
        assert rep.k == 0

    def test_unitary_invariance(self):
        from singpencil import random_orthonormal

        p = showcase_pencil()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            P = random_orthonormal(7, 7, rng)
            Q = random_orthonormal(7, 7, rng)
            rep = normal_rank(Pencil(A=P @ p.A @ Q, B=P @ p.B @ Q), rng)
            assert (rep.nrank, rep.k) == (6, 1)

    def test_probe_count_respected(self):
        rep = normal_rank(diagonal_demo_pencil(), np.random.default_rng(1), probes=4)
        assert len(rep.zeta_samples) == 4

    def test_empty_pencil_rejected(self):
        with pytest.raises(ValueError, match="empty pencil"):
            normal_rank(Pencil(A=np.zeros((0, 0)), B=np.zeros((0, 0))), np.random.default_rng(0))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_zero_by_n_has_rank_zero(self, shape):
        p = Pencil(A=np.zeros(shape), B=np.zeros(shape))
        rep = normal_rank(p, np.random.default_rng(0))
        assert (rep.nrank, rep.k) == (0, 3)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            normal_rank(diagonal_demo_pencil(), np.random.default_rng(0), tol=-1.0)


class TestMatrixMarketIO:
    def test_roundtrip_array(self, tmp_path):
        rng = np.random.default_rng(0)
        m = random_complex(rng, (3, 4))
        path = tmp_path / "m.mtx"
        write_matrix(path, m)
        np.testing.assert_allclose(read_matrix(path), m, atol=0, rtol=1e-15)

    def test_reads_coordinate_format(self, tmp_path):
        m = np.array([[1 + 2j, 0], [0, 3 - 1j]])
        path = tmp_path / "coo.mtx"
        scipy.io = __import__("scipy.io", fromlist=["mmwrite"])
        scipy.io.mmwrite(path, scipy.sparse.coo_matrix(m), field="complex")
        np.testing.assert_allclose(read_matrix(path), m)

    def test_pencil_roundtrip(self, tmp_path):
        p = showcase_pencil()
        write_pencil(p, tmp_path / "A.mtx", tmp_path / "B.mtx")
        q = read_pencil(tmp_path / "A.mtx", tmp_path / "B.mtx")
        np.testing.assert_allclose(q.A, p.A)
        np.testing.assert_allclose(q.B, p.B)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_pencil_roundtrip(self, tmp_path, shape):
        # in a child process: scipy's mmwrite of a complex 0 x n array
        # never returns and its mmread of one dies with SIGFPE
        proc = run_python(
            "import numpy as np\n"
            "from singpencil import Pencil, read_pencil, write_pencil\n"
            f"z = np.zeros({shape!r})\n"
            "write_pencil(Pencil(A=z, B=z), 'A.mtx', 'B.mtx')\n"
            "q = read_pencil('A.mtx', 'B.mtx')\n"
            "print(q.A.shape, q.B.shape, q.A.dtype)\n",
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"{shape} {shape} complex128"

    def test_unreadable_file_raises_value_error(self, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text("this is not a matrix market file\n")
        with pytest.raises(ValueError, match="bad.mtx"):
            read_matrix(bad)


class TestPencilInvariants:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Pencil(A=np.eye(2), B=np.eye(3))

    def test_normal_rank_probes_a_scaled_pencil_as_it_is(self, monkeypatch):
        # a pencil that scale() produced is probed without a second scaling,
        # any other pencil is scaled first: both give the very same report
        import singpencil.pencil as pencil_module

        calls = []
        monkeypatch.setattr(pencil_module, "scale", lambda p: calls.append(p) or scale(p))
        pencils = [
            showcase_pencil(),
            diagonal_demo_pencil(),
            control_benchmark_pencil(),
            staircase_sensitive_pencil(),
            Pencil(A=np.eye(3), B=np.zeros((3, 3))),
        ]
        for p in pencils:
            ps = scale(p)
            unit = (ps.scale_alpha, ps.scale_beta) == (1.0, 1.0)
            for seed in range(3):
                want = normal_rank(p, np.random.default_rng(seed))
                assert len(calls) == (0 if unit else 1)
                calls.clear()
                assert repr(normal_rank(ps, np.random.default_rng(seed))) == repr(want)
                assert not calls

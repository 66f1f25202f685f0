"""Tests for scaling, squarification, normal rank and Matrix Market I/O."""

import bz2
import dataclasses
import gzip
import re

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from singpencil import (
    EPS,
    NormalRankReport,
    Pencil,
    SolveOptions,
    double_eig_linearization,
    generalized_eig,
    normal_rank,
    operator_determinants,
    scale,
    solve,
    squarify,
)
from singpencil.gallery import (
    control_benchmark_pencil,
    diagonal_demo_pencil,
    double_eig_problem,
    showcase_pencil,
    staircase_sensitive_pencil,
)
from singpencil.matrix_core import as_cmatrix
from singpencil.pencil import read_matrix, read_pencil, write_matrix, write_pencil

from helpers import random_complex


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
            ps = scale(Pencil(A=A, B=B))
            base, mapped = (
                sorted(v[np.isfinite(v)].tolist(), key=lambda z: (z.real, z.imag))
                for v in (generalized_eig(A, B).values(),
                          generalized_eig(ps.A, ps.B).values((ps.scale_alpha, ps.scale_beta)))
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


def _nearly_unit_pencil():
    """A raw 3 x 3 pencil whose two 1-norms are both one ulp above 1."""
    u = np.nextafter(1.0, 2.0)
    p = Pencil(A=np.diag([u, 0.5, 0.25]), B=u * np.array([[0, 0, 0.5], [0, 0, 0.5], [0.25, 0.5, 0]]))
    assert np.linalg.norm(p.A, 1) == np.linalg.norm(p.B, 1) == u
    return p


def _times_1j(p):
    """``p`` with both matrices times 1j: a complex pencil of the same rank and scale record."""
    return dataclasses.replace(p, A=1j * p.A, B=1j * p.B)


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
        # two probes, recorded; the count is no longer a parameter.  A complex pencil
        # is probed on the unit circle, a real one (see TestRealProbes) on [-1, 1]
        p = diagonal_demo_pencil()
        rep = normal_rank(Pencil(A=1j * p.A, B=1j * p.B), np.random.default_rng(1))
        assert len(rep.zeta_samples) == 2 and rep.zeta_samples[0] != rep.zeta_samples[1]
        assert all(abs(abs(z) - 1.0) < 1e-15 for z in rep.zeta_samples)
        with pytest.raises(TypeError):
            normal_rank(diagonal_demo_pencil(), np.random.default_rng(1), probes=4)

    def test_empty_pencil_rejected(self):
        with pytest.raises(ValueError, match="empty pencil"):
            normal_rank(Pencil(A=np.zeros((0, 0)), B=np.zeros((0, 0))), np.random.default_rng(0))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_zero_by_n_has_rank_zero(self, shape):
        p = Pencil(A=np.zeros(shape), B=np.zeros(shape))
        rep = normal_rank(p, np.random.default_rng(0))
        assert (rep.nrank, rep.k) == (0, 3)

    @pytest.mark.parametrize(
        "make",
        [
            showcase_pencil,
            diagonal_demo_pencil,
            control_benchmark_pencil,
            staircase_sensitive_pencil,
            lambda: Pencil(A=np.zeros((3, 3)), B=np.zeros((3, 3))),
            _nearly_unit_pencil,
        ],
    )
    def test_equals_the_report_of_the_scaled_pencil(self, make, monkeypatch):
        # whether a pencil is scaled is read from its record alone: a raw pencil is
        # scaled first, one from scale() with factors other than 1.0 is probed as it is
        import singpencil.pencil as pencil_module

        p, ps = make(), scale(make())
        for seed in range(3):
            want = normal_rank(ps, np.random.default_rng(seed))
            assert repr(normal_rank(p, np.random.default_rng(seed))) == repr(want)
        calls = []
        monkeypatch.setattr(pencil_module, "scale", lambda q: calls.append(q) or scale(q))
        normal_rank(ps, np.random.default_rng(0))
        assert len(calls) == ((ps.scale_alpha, ps.scale_beta) == (1.0, 1.0))

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            normal_rank(diagonal_demo_pencil(), np.random.default_rng(0), tol=-1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            normal_rank(diagonal_demo_pencil(), np.random.default_rng(0), tol=float("nan"))


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

    @pytest.mark.parametrize(
        "pencil",
        [showcase_pencil(), Pencil(A=np.zeros((0, 3)), B=np.zeros((0, 3))),
         Pencil(A=np.zeros((3, 0)), B=np.zeros((3, 0)))],
        ids=["showcase", "0x3", "3x0"],
    )
    @pytest.mark.parametrize("name", ["A.mtx", "A.txt", "A", "A.mtx.gz", "A.mtx.bz2"])
    def test_pencil_roundtrip(self, tmp_path, name, pencil):
        # exactly the files asked for, compressed as read_matrix expects
        a, b = tmp_path / name, tmp_path / name.replace("A", "B")
        write_pencil(pencil, a, b)
        assert sorted(tmp_path.iterdir()) == [a, b]
        q = read_pencil(a, b)
        assert q.shape == pencil.shape
        np.testing.assert_array_equal(q.A, pencil.A)
        np.testing.assert_array_equal(q.B, pencil.B)

    def test_unreadable_file_raises_value_error(self, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text("this is not a matrix market file\n")
        with pytest.raises(ValueError, match="bad.mtx"):
            read_matrix(bad)


def _array_file(path, field, rows, cols, tokens, comments=("%",)):
    """An ``array`` Matrix Market file: one entry per line, a complex entry's parts on one line."""
    width = 2 if field == "complex" else 1
    entries = [" ".join(tokens[i:i + width]) for i in range(0, len(tokens), width)]
    banner = f"%%MatrixMarket matrix array {field} general"
    path.write_text("\n".join([banner, *comments, f"{rows} {cols}", *entries]) + "\n")
    return path


def _outcome(read, path):
    """The bytes ``read(path)`` returns, or the text of the ValueError it raises."""
    try:
        return read(path).tobytes()
    except ValueError as exc:
        return str(exc)


def _mmread(path):
    """``read_matrix`` as it was when every file went through ``scipy.io.mmread``."""
    try:
        m = scipy.io.mmread(path)
    except ValueError as exc:
        raise ValueError(f"{path}: not a readable Matrix Market file ({exc})") from exc
    return as_cmatrix(m.toarray() if scipy.sparse.issparse(m) else m, str(path))


# every (format, field, symmetry) that read_matrix accepts
_KINDS = [
    (fmt, field, sym)
    for fmt in ("array", "coordinate")
    for field in ("real", "integer", "complex", "pattern")
    for sym in ("general", "symmetric", "skew-symmetric", "hermitian")
    if (fmt, field) != ("array", "pattern")
]


def _kind_matrix(rng, fmt, field, sym, rows, cols):
    """A random matrix that ``mmwrite`` can store as the given kind, entries 1e-300 to 1e300 or 0."""
    if field == "integer":
        a = rng.integers(-10**6, 10**6, (rows, cols))
    else:
        a, b = (10.0 ** rng.uniform(-300, 300, (rows, cols)) * rng.choice([-1, 0, 1], (rows, cols))
                for _ in range(2))
        a = a + 1j * b if field == "complex" else a
    low = np.tril(a, -1)
    if sym == "symmetric":
        a = np.tril(a) + low.T
    elif sym == "skew-symmetric":
        a = low - low.T
    elif sym == "hermitian":
        a = np.tril(a) + low.conj().T
    return scipy.sparse.coo_matrix(a) if fmt == "coordinate" else a


class TestNumpyReader:
    """``read_matrix`` gives ``scipy.io.mmread``'s bits; its departures from ``mmread`` are pinned."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("digits", range(5, 18))
    def test_bits_equal_mmread(self, tmp_path, field, digits):
        rng = np.random.default_rng(digits)
        rows, cols = 4, 3
        width = 2 if field == "complex" else 1
        mags = 10.0 ** rng.uniform(-300, 300, rows * cols * width)
        values = mags * rng.choice([-1.0, 1.0], mags.size)
        values[:4] = [5e-324, -3 * 5e-324, 2.2250738585072014e-308 / 3, -0.0]  # subnormals, -0
        tokens = [f"{x:.{digits - 1}e}" for x in values]
        tokens[4:9] = ["-0", "-0.0", "-1e-400", "0", "1e-400"]
        path = _array_file(tmp_path / "m.mtx", field, rows, cols, tokens,
                           comments=("% a comment", "%", "%%"))
        got = read_matrix(path)
        assert got.shape == (rows, cols)
        assert got.tobytes() == _mmread(path).tobytes()
        zeros = got.view(np.float64)[got.view(np.float64) == 0.0]
        assert zeros.size >= 5 and not np.signbit(zeros).any()

    def test_bits_equal_mmread_on_written_files(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "w.mtx"
        matrices = [random_complex(rng, s) * 10.0 ** rng.uniform(-200, 200, s)
                    for s in [(5, 2), (2, 7), (3, 3), (1, 1)]]
        signed_zeros = np.array([[-0.0, complex(1.5, -0.0)], [complex(-0.0, -0.0), -2.0]])
        for m in [*matrices, np.diag(random_complex(rng, 4)), np.eye(3), signed_zeros]:
            write_matrix(path, m)
            rows, cols = m.shape
            entries = [f"{z.real!r} {z.imag!r}" for z in np.ravel(m, order="F").astype(complex).tolist()]
            assert path.read_text().splitlines() == [
                "%%MatrixMarket matrix array complex general", f"{rows} {cols}", *entries]
            assert read_matrix(path).tobytes() == _mmread(path).tobytes()
            np.testing.assert_array_equal(read_matrix(path), m)

    @pytest.mark.parametrize("fmt,field,sym", _KINDS)
    def test_every_kind_bits_equal_mmread(self, tmp_path, fmt, field, sym):
        rng = np.random.default_rng(_KINDS.index((fmt, field, sym)))
        plain = tmp_path / "plain.mtx"
        # a 0 x n coordinate file (mmread of a 0 x n array dies with SIGFPE), then gzip, bzip2, plain
        for n, suffix in [(0, ""), (4, ".gz"), (5, ".bz2"), (6, "")][fmt == "array":]:
            cols = n + 1 if sym == "general" else n
            scipy.io.mmwrite(plain, _kind_matrix(rng, fmt, field, sym, n, cols), field=field, symmetry=sym)
            compress = {"": bytes, ".gz": gzip.compress, ".bz2": bz2.compress}[suffix]
            path = tmp_path / f"m.mtx{suffix}"
            path.write_bytes(compress(plain.read_bytes()))
            assert read_matrix(path).tobytes() == _mmread(path).tobytes()
        assert plain.read_text().partition("\n")[0] == f"%%MatrixMarket matrix {fmt} {field} {sym}"

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_zero_size_array(self, tmp_path, field, shape):
        path = _array_file(tmp_path / "z.mtx", field, *shape, [])
        m = read_matrix(path)
        assert m.shape == shape and m.dtype == np.complex128

    @pytest.mark.parametrize(
        "text,as_mmread",
        [
            ("3 1\n1\n2\n3\n", True),
            ("03 1\n1\n2.\n.3\n\n\n", True),
            ("3 1\n1\n2\n3", True),
            ("3 1\n1\n1e+5\n3\n", True),
            ("3 1\n1\n2\n", False),  # too few entries; mmread words the error differently
            ("3 1\n1\n2\n3\n4\n", False),  # too many
            ("3 1\n1\n+1.5\n3\n", False),  # a leading + that float() accepts and mmread does not
            ("3 1\n1\n1_0\n3\n", False),  # mmread reads 1, float() reads 10
            ("3 1\n1\n2 5\n3\n", False),  # mmread ignores the second number
            ("3 1\n1\n1d5\n3\n", False),  # mmread reads 1
            ("3 1\n1\n0x1\n3\n", False),  # mmread reads 0
            ("3 1\n1\n1-2\n3\n", False),  # mmread reads 1
            ("3 1\n1\n2\n0x1", False),  # mmread dies with SIGSEGV
            ("%%MatrixMarket matrix array integer general\n1 1\n-1e-400\n", False),  # SIGSEGV too
            ("%%MatrixMarket matrix array integer general\n2 1\n1\n2.5\n", False),  # mmread reads 2
            ("3 1\n1\n\t2\n3\n", True),
            ("3 1\r\n1\r\n2\r\n3\r\n", True),
            ("3 1\n1\n\n2\n3\n", True),
            ("% a comment\n\n%\n3 1\n1 \n 2\n3\n", True),
            ("3 1\n1\nnan\n3\n", True),
            ("3 1\n1\n1e400\n3\n", True),
            ("3  1\n1\n2\n3\n\n", True),  # two spaces in the size line
        ],
    )
    def test_other_layouts_read_as_mmread_reads_them(self, tmp_path, text, as_mmread):
        path = tmp_path / "m.mtx"
        banner = "" if text.startswith("%%") else "%%MatrixMarket matrix array real general\n"
        path.write_text(banner + text)
        if as_mmread:
            assert _outcome(read_matrix, path) == _outcome(_mmread, path)
        elif "+1.5" in text:
            assert read_matrix(path).tobytes() == np.array([[1], [1.5], [3]], complex).tobytes()
        else:
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not a readable "
                                                 r"Matrix Market file \(.+\)$"):
                read_matrix(path)

    @pytest.mark.parametrize(
        "text,reason",
        [
            ("array pattern general\n1 1\n", "unsupported type array pattern general"),
            ("array real general\n2 x\n1\n2\n", "bad size line '2 x'"),
            ("array real symmetric\n2 3\n1\n2\n3\n", "a symmetric matrix of shape 2 x 3"),
            ("coordinate real general\n2 2 1\n3 1 1.0\n", "an index that is not an integer in range"),
            ("coordinate real general\n2 2 1\n1.5 1 1.0\n", "an index that is not an integer in range"),
        ],
    )
    def test_rejection_names_its_reason(self, tmp_path, text, reason):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix " + text)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not a readable "
                                             rf"Matrix Market file \({re.escape(reason)}\)$"):
            read_matrix(path)

    @pytest.mark.parametrize(
        "banner,body",
        [
            ("array complex symmetric", "2 2\n1 0\n2 0\n4 0\n"),
            ("array integer general", "2 2\n1\n2\n3\n4\n"),
            ("coordinate complex general", "2 2 1\n1 1 1 0\n"),
            ("ARRAY COMPLEX GENERAL", "1 2\n1 0\n2 0\n"),
            (" array complex general", "1 2\n1 0\n2 0\n"),
        ],
    )
    def test_other_headers_go_to_scipy(self, tmp_path, banner, body):
        # headers that once went to scipy.io.mmread still read as it reads them
        path = tmp_path / "m.mtx"
        path.write_text(f"%%MatrixMarket matrix {banner}\n{body}")
        assert read_matrix(path).tobytes() == _mmread(path).tobytes()


class TestPencilInvariants:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Pencil(A=np.eye(2), B=np.eye(3))

    def test_normal_rank_probes_a_scaled_pencil_as_it_is(self, monkeypatch):
        # a pencil is scaled first exactly when its recorded factors are both 1.0,
        # so a raw one always is and one that scale() produced only if its norms were
        # 1 or 0, where a second scaling changes no bit: both give the very same report
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
                assert len(calls) == 1
                calls.clear()
                assert repr(normal_rank(ps, np.random.default_rng(seed))) == repr(want)
                assert len(calls) == (1 if unit else 0)
                calls.clear()


class TestStackedPencilStages:
    """``scale`` and ``normal_rank`` of a list equal the calls on each member."""

    def _pencils(self):
        rng = np.random.default_rng(4)
        big = Pencil(A=1e3 * rng.standard_normal((5, 5)), B=rng.standard_normal((5, 5)))
        return [big, Pencil(A=np.eye(5), B=np.zeros((5, 5))), scale(big),
                Pencil(A=np.zeros((5, 5)), B=np.zeros((5, 5)))]

    def test_scale_of_a_list(self):
        pencils = self._pencils()
        for got, p in zip(scale(pencils), pencils):
            want = scale(p)
            assert got.A.tobytes() == want.A.tobytes() and got.B.tobytes() == want.B.tobytes()
            assert (got.scale_alpha, got.scale_beta) == (want.scale_alpha, want.scale_beta)

    def test_normal_rank_of_a_list(self):
        # raw and already scaled members mix in one stack
        pencils = self._pencils()
        got = normal_rank(pencils, [np.random.default_rng(s) for s in range(4)], tol="auto")
        want = [normal_rank(p, np.random.default_rng(s)) for s, p in enumerate(pencils)]
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("tol", ["auto", 1e-10, 0, np.float64(0.5)])
    def test_normal_rank_reports_equal_the_per_probe_loop(self, monkeypatch, tol):
        # the bookkeeping written as a loop over the probes, on the singular values
        # the stacked call computed; the digest prints tol_used's repr, so its type
        # counts: np.float64 under "auto", float for a number, 0.0 when no cut is positive
        # every stack real or every one complex, so that one SVD call covers it
        stacks = [self._pencils(), [Pencil(A=np.zeros((3, 5)), B=np.ones((3, 5)))],
                  [_times_1j(p) for p in self._pencils()[:3]],
                  [Pencil(A=np.zeros((3, 5)), B=1j * np.ones((3, 5)))],
                  [Pencil(A=np.zeros((3, 0)), B=np.zeros((3, 0)))]]
        svd, captured = np.linalg.svd, []

        def capturing(*args, **kwargs):
            captured.append(svd(*args, **kwargs))
            return captured[-1]

        monkeypatch.setattr(np.linalg, "svd", capturing)
        for pencils in stacks:
            got = normal_rank(pencils, [np.random.default_rng(s) for s in range(len(pencils))], tol=tol)
            want = []
            for seed, sv, p in zip(range(len(pencils)), captured.pop(), pencils):
                rng = np.random.default_rng(seed)
                if p.A.imag.any() or p.B.imag.any():
                    zetas = [complex(np.exp(2j * np.pi * rng.uniform())) for _ in range(2)]
                else:  # a real pencil: the same draws, mapped to [-1, 1]
                    zetas = [2.0 * rng.uniform() - 1.0 for _ in range(2)]
                n = max(p.shape)
                ts = [(n * EPS * (x[0] if x.size else 0.0)) if tol == "auto" else float(tol) for x in sv]
                best = max(int(np.sum(x > t)) for x, t in zip(sv, ts))
                want.append(NormalRankReport(nrank=best, k=n - best, zeta_samples=zetas,
                                             tol_used=max(0.0, *ts)))
            assert repr(got) == repr(want)
            assert [type(r.tol_used) for r in got] == [type(r.tol_used) for r in want]
        assert type(want[0].tol_used) is float  # the 3 x 0 pencil has no singular values

    def test_normal_rank_needs_one_generator_per_pencil(self):
        with pytest.raises(ValueError, match="one generator per pencil"):
            normal_rank(self._pencils(), [np.random.default_rng(0)])

    def test_stack_needs_equal_shapes(self):
        with pytest.raises(ValueError, match="equal shape"):
            scale([Pencil(A=np.eye(2), B=np.eye(2)), Pencil(A=np.eye(3), B=np.eye(3))])


def _real_pencils():
    """Real pencils by name: the gallery's, double_eig linearizations and 2EP Delta pencils."""
    pencils = {f.__name__: f() for f in (showcase_pencil, diagonal_demo_pencil,
                                         control_benchmark_pencil, staircase_sensitive_pencil)}
    for n in range(3, 9):
        rng = np.random.default_rng(n)
        D1, D0 = double_eig_linearization(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
        pencils[f"double_eig_linearization_{n}"] = Pencil(A=D1, B=D0)
    for seed in range(1, 6):
        d = operator_determinants(double_eig_problem(seed))
        pencils[f"double_eig_problem_{seed}"] = Pencil(A=d.D1, B=d.D0)
    return pencils


class TestRealProbes:
    """A real pencil is probed at real points 2u - 1 in one float64 SVD call."""

    @pytest.mark.parametrize("name", list(_real_pencils()))
    def test_same_rank_as_the_complex_pencil_times_1j(self, name):
        p = _real_pencils()[name]
        assert not (p.A.imag.any() or p.B.imag.any())
        for seed in range(3):
            real = normal_rank(p, np.random.default_rng(seed))
            cplx = normal_rank(_times_1j(p), np.random.default_rng(seed))
            assert (real.nrank, real.k) == (cplx.nrank, cplx.k)

    def test_real_probes_lie_in_the_unit_interval(self):
        p = showcase_pencil()
        for seed in range(50):
            rng, draws = np.random.default_rng(seed), np.random.default_rng(seed).uniform(size=3)
            zetas = normal_rank(p, rng).zeta_samples
            assert all(type(z) is float and -1.0 <= z <= 1.0 for z in zetas)
            assert zetas == (2.0 * draws[:2] - 1.0).tolist()  # a complex pencil's draws
            assert rng.uniform() == draws[2]  # and every later draw is unchanged

    @staticmethod
    def _svd_inputs(monkeypatch):
        svd, dtypes = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: dtypes.append(a.dtype) or svd(a, **kw))
        return dtypes

    def test_one_svd_call_per_kind_of_stack(self, monkeypatch):
        dtypes = self._svd_inputs(monkeypatch)
        real = [showcase_pencil(), scale(showcase_pencil()), Pencil(A=np.eye(7), B=np.zeros((7, 7)))]
        rngs = lambda: [np.random.default_rng(s) for s in range(3)]  # noqa: E731
        normal_rank(real, rngs())
        assert dtypes == [np.float64]
        dtypes.clear()
        normal_rank([_times_1j(p) for p in real], rngs())
        assert dtypes == [np.complex128]
        dtypes.clear()
        normal_rank([real[0], _times_1j(real[1]), real[2]], rngs())
        assert sorted(map(str, dtypes)) == ["complex128", "float64"]

    def test_mixed_stack_gives_each_member_its_lone_report(self):
        rng = np.random.default_rng(6)
        members = [showcase_pencil(), _times_1j(showcase_pencil()), scale(showcase_pencil()),
                   Pencil(A=random_complex(rng, (7, 7)), B=random_complex(rng, (7, 7))),
                   Pencil(A=np.zeros((7, 7)), B=np.zeros((7, 7)))]
        for tol in ("auto", 1e-10):
            got = normal_rank(members, [np.random.default_rng(s) for s in range(len(members))], tol)
            want = [normal_rank(p, np.random.default_rng(s), tol) for s, p in enumerate(members)]
            assert repr(got) == repr(want)
            assert [isinstance(r.zeta_samples[0], float) for r in got] == [True, False, True, False, True]

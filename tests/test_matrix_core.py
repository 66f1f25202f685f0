"""Tests for the dense matrix primitives and the generalized eigensolver."""

import _ctypes
import ctypes
import functools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.cython_lapack
from scipy.optimize import linear_sum_assignment

import singpencil.matrix_core as mc
import singpencil.two_param as tp
from singpencil import (
    EPS,
    EigDecomposition,
    NumericalError,
    Pencil,
    as_cmatrix,
    double_eig_linearization,
    generalized_eig,
    greedy_match,
    random_orthonormal,
    rank_with_tol,
    scale,
)

from helpers import (
    assert_multiset_close,
    chordal,
    greedy_chordal_match,
    random_complex,
    run_python,
)


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


def _pairs(alpha, beta):
    """An ``EigDecomposition`` of the homogeneous pairs alone, without eigenvectors."""
    none = np.zeros((0, 0), np.complex128)
    return EigDecomposition(np.array(alpha, np.complex128), np.array(beta, np.complex128), none, none)


class TestHomogeneousEigenvalue:
    """The homogeneous pairs of an ``EigDecomposition`` and their values."""

    def test_normalized(self):
        e = _pairs([3.0, 1.0], [4.0, 0.0])
        a, b = e.unit_pairs()
        np.testing.assert_allclose(np.abs(a) ** 2 + np.abs(b) ** 2, 1.0, rtol=10 * EPS)
        values = e.values()
        assert values.dtype == np.complex128 and values.shape == (2,)
        assert abs(values[0] - 0.75) < 1e-15
        # scaled before the normalization: (2 * 3, 4) = (6, 4) over sqrt(52)
        a, b = e.unit_pairs((2.0, 1.0))
        np.testing.assert_allclose(a, [6 / np.sqrt(52), 1.0], rtol=1e-15)
        np.testing.assert_allclose(b, [4 / np.sqrt(52), 0.0], rtol=1e-15)

    def test_infinite_flag(self):
        # |beta| <= EPS |alpha| is infinite, and the first beta above the bound is not
        above = np.nextafter(EPS, 1.0)
        values = _pairs([1.0, 1.0, 1.0, 0.0], [0.0, EPS, above, 1.0]).values()
        assert values[:2].tolist() == [complex(np.inf, 0.0)] * 2
        assert np.isfinite(values[2:]).all()
        assert values[2] == 1.0 / above and values[3] == 0.0

    def test_rescaled(self):
        e = _pairs([1.0, 1.0], [2.0, EPS])
        values = e.values((6.0, 3.0))
        assert abs(values[0] - 1.0) < 1e-15
        # the bound applies to the scaled pair: (6, 3 EPS) is infinite, (1, 2 EPS) finite
        assert np.isinf(values[1].real)
        assert np.isfinite(e.values((1.0, 2.0))[1])

    def test_values_match_the_scalar_quotient_of_unit_pairs(self):
        # the reference loop: each scaled pair divided by its length, then a / b in
        # Python complex arithmetic; numpy's division rounds differently in the last bits
        rng = np.random.default_rng(3)
        alpha, beta = random_complex(rng, (20,)), random_complex(rng, (20,))
        beta[0] = 0.0
        for scale in ((1.0, 1.0), (1e-3, 7.0)):
            want = []
            for a, b in zip((scale[0] * alpha).tolist(), (scale[1] * beta).tolist()):
                h = math.hypot(abs(a), abs(b))
                a, b = a / h, b / h
                want.append(complex(math.inf, 0.0) if abs(b) <= EPS * abs(a) else a / b)
            np.testing.assert_allclose(_pairs(alpha, beta).values(scale), want, rtol=4 * EPS)


class TestGeneralizedEig:
    def test_diagonal_case(self):
        dec = generalized_eig(np.diag([1.0, 2.0]), np.eye(2))
        vals = sorted(dec.values().real)
        np.testing.assert_allclose(vals, [1.0, 2.0], atol=1e-14)
        # eigenvectors are the standard basis up to phase
        for i in range(2):
            x = dec.right[:, i]
            assert max(abs(x)) > 1.0 - 1e-12

    def test_singular_b_regular_pencil(self):
        dec = generalized_eig(np.eye(2), np.diag([1.0, 0.0]))
        values = dec.values()
        assert sorted(np.isinf(values).tolist()) == [False, True]
        np.testing.assert_allclose(values[np.isfinite(values)], [1.0], atol=1e-14)

    def test_empty_pencil(self):
        dec = generalized_eig(np.zeros((0, 0)), np.zeros((0, 0)))
        assert dec.n == 0 and dec.right.shape == dec.left.shape == (0, 0)

    def test_lapack_failure_raises_numerical_error(self, monkeypatch):
        # a nonzero info from whichever LAPACK call runs: zggev3 when numpy's
        # LAPACK exports it, and the zggev fallback
        zggev3 = mc._zggev3()
        real_zggev = scipy.linalg.lapack.zggev

        def failing_zggev(a, b, **kwargs):
            *out, info = real_zggev(a, b, **kwargs)
            return (*out, 2 if kwargs.get("lwork") != -1 else info)

        def failing_zggev3(*args):
            zggev3(*args)
            lwork, info = args[14], args[16]
            assert info.value == 0
            if lwork.value != -1:  # the solve, not the workspace query
                info.value = 2

        monkeypatch.setattr(scipy.linalg.lapack, "zggev", failing_zggev)
        resolvers = [lambda: None]
        if zggev3:
            failing_zggev3.argtypes, failing_zggev3.workspace = zggev3.argtypes, zggev3.workspace
            resolvers.append(lambda: failing_zggev3)
        for resolve in resolvers:
            monkeypatch.setattr(mc, "_zggev3", resolve)
            with pytest.raises(NumericalError, match="LAPACK info = 2") as exc:
                generalized_eig(np.diag([1.0, 2.0]), np.eye(2))
            assert exc.value.details == {"n": 2, "lapack_info": 2}

    def test_indeterminate_pairs_raise_numerical_error(self):
        # every eigenvalue of the zero pencil is 0 / 0
        with pytest.raises(NumericalError, match="indeterminate eigenvalues") as exc:
            generalized_eig(np.zeros((2, 2)), np.zeros((2, 2)))
        assert exc.value.details == {"indices": [0, 1]}

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
            e1 = generalized_eig(A, B).values()
            e2 = generalized_eig(P @ A @ Q, P @ B @ Q).values()
            finite1 = sorted(e1[np.isfinite(e1)].tolist(), key=lambda z: (z.real, z.imag))
            finite2 = sorted(e2[np.isfinite(e2)].tolist(), key=lambda z: (z.real, z.imag))
            assert len(finite1) == len(finite2)
            for a, b, _ in greedy_chordal_match(finite1, finite2):
                assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


@pytest.fixture(params=["zggev3", "zggev"])
def qz_driver(request, monkeypatch):
    """Runs a test on each LAPACK driver ``generalized_eig`` can call."""
    if request.param == "zggev":
        monkeypatch.setattr(mc, "_zggev3", lambda: None)
    elif mc._zggev3() is None:
        pytest.skip("this LAPACK exports no zggev3")
    return request.param


# in a child process with one BLAS thread: numpy's and scipy's OpenBLAS builds
# split threaded kernels differently, so their bits agree only single-threaded
_WIDTH_CHECK = """
import numpy as np, scipy.linalg.cython_lapack
import singpencil.matrix_core as mc
from singpencil import generalized_eig
wide, narrow = mc._zggev3(), mc._zggev3(scipy.linalg.cython_lapack.__file__)
print(wide.__name__, narrow.__name__)
for n in (1, 2, 31, 33, 48, 76, 130):
    for real in (True, False):
        rng = np.random.default_rng(n)
        A, B = (rng.standard_normal((n, n)) + (0 if real else 1j * rng.standard_normal((n, n)))
                for _ in "AB")
        runs = []
        for fn in (wide, narrow):
            mc._zggev3 = lambda fn=fn: fn
            dec = generalized_eig(A, B)
            runs.append(b"".join(x.tobytes() for x in (dec.alpha, dec.beta, dec.right, dec.left)))
        print(n, real, runs[0] == runs[1])
"""


class TestZggev3Binding:
    def test_numpy_library_resolves_a_64_bit_integer_zggev3(self):
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        if "USE64BITINT" not in lapack.get("openblas configuration", ""):
            pytest.skip("numpy's LAPACK is not a 64-bit-integer OpenBLAS")
        fn = mc._zggev3()
        assert fn is not None and fn.__name__.endswith("_64_")
        assert fn.argtypes[2]._type_ is ctypes.c_int64

    def test_32_bit_width_gives_the_same_bits(self, tmp_path):
        narrow = mc._zggev3(scipy.linalg.cython_lapack.__file__)
        if mc._zggev3() is None or narrow is None or narrow.__name__.endswith("_64_"):
            pytest.skip("needs a zggev3 in numpy's LAPACK and a 32-bit-integer one in scipy's")
        assert narrow.argtypes[2]._type_ is ctypes.c_int32
        proc = run_python(_WIDTH_CHECK, cwd=tmp_path, env={"OPENBLAS_NUM_THREADS": "1"})
        assert proc.returncode == 0, proc.stderr
        names, *cases = proc.stdout.splitlines()
        assert names.split()[1] == narrow.__name__
        assert cases == [f"{n} {real} True" for n in (1, 2, 31, 33, 48, 76, 130) for real in (True, False)]

    def test_library_without_zggev3_falls_back_to_zggev(self, tmp_path, monkeypatch):
        fake = tmp_path / "liblapack.so"
        fake.write_bytes(b"not a shared library")
        for path in (str(fake), _ctypes.__file__):
            assert mc._zggev3.__wrapped__(path) is None
        monkeypatch.setattr(mc, "_zggev3", functools.partial(mc._zggev3.__wrapped__, _ctypes.__file__))
        rng = np.random.default_rng(5)
        A, B = random_complex(rng, (40, 40)), random_complex(rng, (40, 40))
        dec = generalized_eig(A, B)
        for got, want in zip((dec.alpha, dec.beta, dec.right, dec.left), _parent_generalized_eig(A, B)):
            np.testing.assert_array_equal(got, want)


def _parent_generalized_eig(A, B):
    """Reference for the fallback: the zggev call and normalization written out."""
    lwork = int(scipy.linalg.lapack.zggev(A, B, lwork=-1)[-2][0].real)
    alpha, beta, vl, vr, _, info = scipy.linalg.lapack.zggev(A, B, lwork=lwork)
    assert info == 0
    scale = np.hypot(np.abs(alpha), np.abs(beta))
    return alpha / scale, beta / scale, vr / np.linalg.norm(vr, axis=0), vl / np.linalg.norm(vl, axis=0)


class TestQzDrivers:
    # sizes on both sides of zggev3's blocking and multishift thresholds
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 31, 33, 48, 74, 76, 130])
    def test_matches_scipy_eig(self, qz_driver, n, real):
        rng = np.random.default_rng(1000 + n)
        A, B = (rng.standard_normal((n, n)) if real else random_complex(rng, (n, n)) for _ in "AB")
        A, B = as_cmatrix(A), as_cmatrix(B)
        dec = generalized_eig(A, B)

        w, _, _ = scipy.linalg.eig(A, B, left=True, right=True, homogeneous_eigvals=True)
        a, b = w / np.hypot(np.abs(w[0]), np.abs(w[1]))
        chordal = np.abs(dec.alpha[:, None] * b[None, :] - a[None, :] * dec.beta[:, None])
        rows, cols = linear_sum_assignment(chordal)
        assert chordal[rows, cols].max() <= 1e-12

        bound = 2 * n * EPS * np.linalg.norm(np.hstack([A, B]), 2)
        right = np.linalg.norm(A @ dec.right * dec.beta - B @ dec.right * dec.alpha, axis=0)
        left = np.linalg.norm(dec.left.conj().T @ A * dec.beta[:, None]
                              - dec.left.conj().T @ B * dec.alpha[:, None], axis=1)
        assert right.max() <= bound and left.max() <= bound

        if qz_driver == "zggev":
            for got, want in zip((dec.alpha, dec.beta, dec.right, dec.left),
                                 _parent_generalized_eig(A, B)):
                np.testing.assert_array_equal(got, want)


def _queried_generalized_eig(A, B):
    """Reference: the zggev3 call with a workspace query on every call, and the normalization."""
    zggev3 = mc._zggev3()
    a, b = np.array(as_cmatrix(A), order="F"), np.array(as_cmatrix(B), order="F")
    n = a.shape[0]
    alpha, beta = np.empty(n, np.complex128), np.empty(n, np.complex128)
    vl, vr = np.empty((n, n), np.complex128, order="F"), np.empty((n, n), np.complex128, order="F")
    work, rwork = np.zeros(1, np.complex128), np.empty(8 * n)
    integer = zggev3.argtypes[2]._type_
    dim, info = integer(n), integer(0)
    args = [x.ctypes.data if isinstance(x, np.ndarray) else x
            for x in (b"V", b"V", dim, a, dim, b, dim, alpha, beta, vl, dim, vr, dim)]
    zggev3(*args, work.ctypes.data, integer(-1), rwork.ctypes.data, info, 1, 1)
    work = np.empty(int(work[0].real), np.complex128)
    zggev3(*args, work.ctypes.data, integer(work.size), rwork.ctypes.data, info, 1, 1)
    assert info.value == 0
    scale = np.hypot(np.abs(alpha), np.abs(beta))
    return alpha / scale, beta / scale, vr / np.linalg.norm(vr, axis=0), vl / np.linalg.norm(vl, axis=0)


class TestLeanGeneralizedEig:
    """One validated copy per matrix, a workspace size cached per order, one LAPACK call."""

    SIZES = (1, 2, 5, 18, 64)

    @pytest.mark.parametrize("order", [SIZES, SIZES[::-1], (18, 1, 64, 18, 2, 5, 1, 64)])
    def test_bits_equal_a_workspace_query_on_every_call(self, order):
        zggev3 = mc._zggev3()
        if zggev3 is None:
            pytest.skip("this LAPACK exports no zggev3")
        zggev3.workspace.cache_clear()  # the first call of each order fills the cache
        for n in order:
            rng = np.random.default_rng(n)
            A, B = random_complex(rng, (n, n)), random_complex(rng, (n, n))
            dec = generalized_eig(A, B)
            for got, want in zip((dec.alpha, dec.beta, dec.right, dec.left),
                                 _queried_generalized_eig(A, B)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert zggev3.workspace.cache_info().currsize == len(set(order))

    def test_workspace_query_of_a_large_order_in_a_fresh_process(self, tmp_path):
        # a fresh process returns a freed multi-megabyte array to the system at
        # once, so a query handed the address of an array no longer referenced crashes
        if mc._zggev3() is None:
            pytest.skip("this LAPACK exports no zggev3")
        proc = run_python("import singpencil.matrix_core as mc; print(mc._zggev3().workspace(400))",
                          cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) == mc._zggev3().workspace(400)

    @pytest.mark.parametrize("A, B, message", [
        ([[np.nan, 0], [0, 1]], np.eye(2), "A contains non-finite entries"),
        (np.eye(2), [[1, 0], [0, complex(0, np.inf)]], "B contains non-finite entries"),
        ([1.0, 2.0], np.eye(2), r"A must be 2-dimensional, got shape \(2,\)"),
        (3.0, np.eye(2), r"A must be 2-dimensional, got shape \(1,\)"),
        (np.eye(2), np.ones((2, 2, 2)), r"B must be 2-dimensional, got shape \(2, 2, 2\)"),
        (np.ones((2, 3)), np.ones((2, 3)), r"A must be square, got \(2, 3\)"),
        (np.eye(2), np.eye(3), r"A and B must have equal shape, got \(2, 2\) and \(3, 3\)"),
    ])
    def test_rejects_bad_input_with_the_messages_of_as_cmatrix(self, A, B, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            generalized_eig(A, B)

    def test_accepts_lists_and_real_or_integer_arrays_and_leaves_them_alone(self):
        A, B = [[2, 1, 0], [0, 3, 1], [1, 0, 4]], [[1, 0, 0], [0, 2, 0], [1, 0, 1]]
        want = generalized_eig(np.array(A, np.complex128), np.array(B, np.complex128))
        fortran = np.asfortranarray(np.array(A, np.complex128))
        for a, b in ((A, B), (np.array(A), np.array(B)), (np.array(A, float), np.array(B, np.float32)),
                     (fortran, np.array(B, np.complex128))):
            got = generalized_eig(a, b)
            for x, y in zip((got.alpha, got.beta, got.right, got.left),
                            (want.alpha, want.beta, want.right, want.left)):
                assert x.tobytes() == y.tobytes()
        np.testing.assert_array_equal(fortran, A)  # LAPACK overwrote a copy

    def test_zggev_fallback_agrees_to_roundoff(self, monkeypatch):
        rng = np.random.default_rng(17)
        A, B = random_complex(rng, (12, 12)), random_complex(rng, (12, 12))
        want = generalized_eig(A, B)
        monkeypatch.setattr(mc, "_zggev3", lambda: None)
        got = generalized_eig(A, B)
        chordal = np.abs(got.alpha[:, None] * want.beta[None, :] - want.alpha[None, :] * got.beta[:, None])
        rows, cols = linear_sum_assignment(chordal)
        assert chordal[rows, cols].max() <= 1e-12
        for x, y in ((got.right, want.right), (got.left, want.left)):  # equal up to a unit factor
            overlap = np.abs(np.einsum("ij,ij->j", x[:, rows].conj(), y[:, cols]))
            np.testing.assert_allclose(overlap, 1.0, atol=1e-9)


class TestValuesOnlyGeneralizedEig:
    """The eigenvalues-only mode: the pairs of the full call, bit for bit, and no eigenvector column."""

    @staticmethod
    def assert_pairs_of_the_full_call(A, B):
        want, got = generalized_eig(A, B), generalized_eig(A, B, _vectors=False)
        assert got.right.shape == got.left.shape == (got.n, 0)
        assert got.alpha.tobytes() == want.alpha.tobytes()
        assert got.beta.tobytes() == want.beta.tobytes()

    @pytest.mark.parametrize("complex_input", [False, True])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_double_eig_regular_halves(self, qz_driver, n, complex_input):
        # the scaled half Y that double_eig hands to the mode, n^2 x n^2
        rng = np.random.default_rng(n)
        draw = random_complex if complex_input else (lambda r, shape: r.standard_normal(shape))
        full = Pencil(*double_eig_linearization(draw(rng, (n, n)), draw(rng, (n, n))))
        y = scale(tp._swap_halves(full, n)[1])
        self.assert_pairs_of_the_full_call(y.A, y.B)

    @pytest.mark.parametrize("complex_input", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 31, 64, 76])
    def test_random_pencils(self, qz_driver, n, complex_input):
        rng = np.random.default_rng(n)
        draw = random_complex if complex_input else (lambda r, shape: r.standard_normal(shape))
        self.assert_pairs_of_the_full_call(draw(rng, (n, n)), draw(rng, (n, n)))

    def test_empty_pencil(self, qz_driver):
        dec = generalized_eig(np.zeros((0, 0)), np.zeros((0, 0)), _vectors=False)
        assert dec.n == 0 and dec.right.shape == dec.left.shape == (0, 0)

    def test_indeterminate_pairs_raise_numerical_error(self, qz_driver):
        with pytest.raises(NumericalError, match="indeterminate eigenvalues") as exc:
            generalized_eig(np.zeros((2, 2)), np.zeros((2, 2)), _vectors=False)
        assert exc.value.details == {"indices": [0, 1]}


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
        with pytest.raises(ValueError, match="nonnegative"):
            rank_with_tol(np.eye(3), tol=float("nan"))


class TestGreedyMatch:
    def test_matches_reference_loop_in_distance_order(self):
        rng = np.random.default_rng(4)
        for m, n in ((5, 5), (3, 6), (6, 2)):
            xs = [complex(z) for z in random_complex(rng, (m,))] + [complex(np.inf)]
            ys = [complex(z) for z in random_complex(rng, (n,))]
            # an independent reference: take the closest unmatched pair, first in index order
            d = np.array([[chordal(a, b) for b in ys] for a in xs])
            got = greedy_match(xs, ys, d.copy())
            ref = []
            for _ in range(min(len(xs), len(ys))):
                i, j = np.unravel_index(np.argmin(d), d.shape)
                ref.append((xs[i], ys[j], float(d[i, j])))
                d[i, :] = d[:, j] = np.inf
            assert got == sorted(ref, key=lambda t: t[2])

    def test_ties_break_by_index(self):
        out = greedy_match(["a", "b"], ["c", "d", "e"], np.zeros((2, 3)))
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


def test_eigenvalue_multiset_match_helper():
    assert_multiset_close([1.0 + 0j, 2.0 + 0j], [2.0 + 1e-12j, 1.0 + 0j])

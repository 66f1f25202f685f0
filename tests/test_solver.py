"""Tests for the rank-completing perturbation solver and its classification."""

import cmath
import math

import numpy as np
import pytest

from singpencil import (
    EPS,
    EigenClass,
    EigenRecord,
    EigDecomposition,
    GapReport,
    Pencil,
    PerturbationSpec,
    SolveOptions,
    generalized_eig,
    make_perturbation,
    perturb,
    scale,
    solve,
    solve_by_intersection,
    squarify,
)
from singpencil.gallery import (
    control_benchmark_pencil,
    diagonal_demo_pencil,
    showcase_pencil,
    staircase_sensitive_pencil,
)
from singpencil.kcf_gen import Jordan, KcfSpec, LeftSingular, Nilpotent, RightSingular, build
from singpencil.solver import DEFAULT_DELTA2, _class_index

from helpers import (
    assert_multiset_close,
    chordal,
    greedy_chordal_match,
    random_complex,
    result_fields,
)


def class_counts(result):
    out = {}
    for r in result.records:
        out[r.label] = out.get(r.label, 0) + 1
    return out


class TestMakePerturbation:
    def test_gamma_range(self):
        opts = SolveOptions()
        spec = make_perturbation(7, 1, opts, np.random.default_rng(0))
        g = spec.gammas[0]
        assert 0.5 <= abs(g) <= 2.0
        assert g.imag == 0

    def test_explicit_diagonals(self):
        opts = SolveOptions(gamma=([1.0], [2.0]))
        spec = make_perturbation(4, 1, opts, np.random.default_rng(0))
        assert spec.gammas[0] == pytest.approx(0.5)

    def test_reproducible(self):
        opts = SolveOptions()
        a = make_perturbation(6, 2, opts, np.random.default_rng(9))
        b = make_perturbation(6, 2, opts, np.random.default_rng(9))
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.V, b.V)
        assert np.array_equal(a.dA, b.dA)
        assert np.array_equal(a.dB, b.dB)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            make_perturbation(4, 0, SolveOptions(), np.random.default_rng(0))

    def test_explicit_gamma_of_wrong_length_names_k(self):
        for gamma in (([1.0], [1.0]), ([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]), ([1.0, 2.0], [1.0])):
            with pytest.raises(ValueError, match="k = 2"):
                make_perturbation(5, 2, SolveOptions(gamma=gamma), np.random.default_rng(0))

    def test_spec_invariants_enforced(self):
        with pytest.raises(ValueError, match="tau"):
            PerturbationSpec(
                U=np.eye(3)[:, :1], V=np.eye(3)[:, :1], dA=[1.0], dB=[1.0], tau=0.0
            )
        with pytest.raises(ValueError, match="regular"):
            PerturbationSpec(
                U=np.eye(3)[:, :1], V=np.eye(3)[:, :1], dA=[0.0], dB=[0.0], tau=1.0
            )
        with pytest.raises(ValueError, match="orthonormal"):
            PerturbationSpec(
                U=2 * np.eye(3)[:, :1], V=np.eye(3)[:, :1], dA=[1.0], dB=[1.0], tau=1.0
            )


class TestPerturb:
    def test_tiny_tau_continuity(self):
        p = scale(diagonal_demo_pencil())
        opts = SolveOptions(tau=1e-300)
        spec = make_perturbation(6, 3, opts, np.random.default_rng(0))
        q = perturb(p, spec)
        assert np.linalg.norm(q.A - p.A) <= 1e-298
        assert np.linalg.norm(q.B - p.B) <= 1e-298

    def test_hand_computed_2x2(self):
        # classic unstable 2x2 pencil; rank-1 completion through e2 makes it
        # diag(1,1) - lambda diag(1,2) with eigenvalues {1, 1/2}
        p = Pencil(A=[[1, 0], [0, 0]], B=[[1, 0], [0, 0]])
        e2 = np.array([[0.0], [1.0]])
        spec = PerturbationSpec(U=e2, V=e2, dA=[1.0], dB=[2.0], tau=1.0)
        q = perturb(p, spec)
        np.testing.assert_allclose(q.A, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(q.B, np.diag([1.0, 2.0]), atol=1e-15)
        vals = sorted(generalized_eig(q.A, q.B).values().real)
        np.testing.assert_allclose(vals, [0.5, 1.0], atol=1e-14)

    def test_rank_of_update_is_k(self):
        from singpencil import rank_with_tol

        rng = np.random.default_rng(4)
        p = scale(Pencil(A=random_complex(rng, (6, 6)), B=random_complex(rng, (6, 6))))
        for k in (1, 2, 3):
            spec = make_perturbation(6, k, SolveOptions(), rng)
            q = perturb(p, spec)
            # the update's singular values are ~tau; 1e-8 clears the
            # cancellation noise of (p.A + tau E) - p.A without touching them
            assert rank_with_tol(q.A - p.A, tol=1e-8) == k
            assert rank_with_tol(q.B - p.B, tol=1e-8) == k

    def test_requires_square(self):
        p = Pencil(A=np.ones((2, 3)), B=np.ones((2, 3)))
        spec = make_perturbation(3, 1, SolveOptions(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            perturb(p, spec)


def _record(s_abs, vx, uy):
    return EigenRecord(
        value=1.0 + 0j,
        x=np.zeros(2),
        y=np.zeros(2),
        s_abs=s_abs,
        vx_norm=vx,
        uy_norm=uy,
    )


def _label(s_abs, vx, uy):
    """The class the rule of ``solve`` gives one diagnostic triple at the default thresholds."""
    opts = SolveOptions()
    cls = _class_index(*np.array([[s_abs], [vx], [uy]]), opts.delta1, opts.delta2)
    return list(EigenClass)[cls[0]]


class TestClassify:
    # diagnostic triples as printed for the showcase pencil's spectrum
    def test_finite_true_row(self):
        assert _label(1.5e-2, 1.3e-15, 1.3e-14) is EigenClass.FINITE_TRUE

    def test_infinite_true_row(self):
        assert _label(3.8e-19, 2.8e-15, 1.3e-14) is EigenClass.INFINITE_TRUE

    def test_random_right_row(self):
        assert _label(2.6e-4, 9.2e-15, 5.2e-1) is EigenClass.RANDOM_RIGHT

    def test_random_left_row(self):
        assert _label(7.8e-3, 5.8e-2, 5.6e-15) is EigenClass.RANDOM_LEFT

    def test_prescribed_row(self):
        assert _label(2.1e-4, 2.6e-2, 4.2e-1) is EigenClass.PRESCRIBED

    def test_zeta_invariant(self):
        r = _record(1.0, 0.25, 0.5)
        assert r.zeta == 0.5


class TestSolveShowcase:
    def test_finite_true_and_counts(self):
        res = solve(showcase_pencil(), SolveOptions(seed=1))
        vals = sorted(v.real for v in res.finite_true_values)
        np.testing.assert_allclose(vals, [1 / 3, 1 / 2], atol=1e-8)
        counts = class_counts(res)
        assert counts[EigenClass.FINITE_TRUE] == 2
        assert counts[EigenClass.INFINITE_TRUE] == 1
        assert counts[EigenClass.PRESCRIBED] == 1
        assert counts[EigenClass.RANDOM_RIGHT] == 1
        assert counts[EigenClass.RANDOM_LEFT] == 2
        assert res.nrank_report.nrank == 6
        assert not res.collision_warning

    def test_perturbed_spectrum_has_seven_eigenvalues(self):
        # the perturbed pencil itself: n eigenpairs, one infinite, 1/3 and 1/2 present
        ps = scale(squarify(showcase_pencil()))
        rng = np.random.default_rng(1)
        from singpencil.pencil import normal_rank

        rep = normal_rank(ps, rng)
        spec = make_perturbation(7, rep.k, SolveOptions(), rng)
        dec = generalized_eig(*(lambda q: (q.A, q.B))(perturb(ps, spec)))
        assert dec.n == 7
        back = dec.values((ps.scale_alpha, ps.scale_beta))
        assert np.isinf(back).sum() == 1
        finite = back[np.isfinite(back)]
        for target in (1 / 3, 1 / 2):
            assert min(abs(v - target) for v in finite) < 1e-6


class TestSolveBasics:
    def test_diagonal_demo(self):
        res = solve(diagonal_demo_pencil(), SolveOptions(seed=3))
        vals = sorted(v.real for v in res.finite_true_values)
        np.testing.assert_allclose(vals, [0.5, 2 / 3, 0.75], atol=1e-8)
        counts = class_counts(res)
        assert counts[EigenClass.PRESCRIBED] == 3
        assert EigenClass.RANDOM_RIGHT not in counts
        assert EigenClass.RANDOM_LEFT not in counts

    def test_no_regular_part(self):
        # one right singular block of index 1 plus one left of index 0
        p = Pencil(A=[[0, 1], [0, 0]], B=[[1, 0], [0, 0]])
        res = solve(p, SolveOptions(seed=2))
        assert res.finite_true == []
        counts = class_counts(res)
        assert counts[EigenClass.PRESCRIBED] == 1
        assert counts[EigenClass.RANDOM_RIGHT] == 1

    def test_regular_pencil_skips_perturbation(self):
        rng = np.random.default_rng(5)
        p = Pencil(A=random_complex(rng, (5, 5)), B=random_complex(rng, (5, 5)))
        res = solve(p, SolveOptions(seed=5))
        assert res.spec_used is None
        assert res.nrank_report.k == 0
        assert len(res.finite_true) == 5
        base = generalized_eig(p.A, p.B).values().tolist()
        for a, b, d in greedy_chordal_match(base, [r.value for r in res.records]):
            assert d <= 1e-10

    def test_rectangular_input_squarified(self):
        res = solve(control_benchmark_pencil(), SolveOptions(seed=3))
        vals = sorted(v.real for v in res.finite_true_values)
        np.testing.assert_allclose(vals, [1.0, 2.0], atol=1e-6)
        assert len(res.records) == 5

    def test_zero_b_matrix_gives_infinite_eigenvalues(self):
        res = solve(Pencil(A=np.eye(4), B=np.zeros((4, 4))), SolveOptions(seed=1))
        assert [r.label for r in res.records] == [EigenClass.INFINITE_TRUE] * 4

    def test_records_sorted_and_consistent(self):
        res = solve(showcase_pencil(), SolveOptions(seed=1))
        order = [r.label for r in res.records]
        ranks = [list(EigenClass).index(lbl) for lbl in order]
        assert ranks == sorted(ranks)
        for r in res.records:
            assert r.zeta == max(r.vx_norm, r.uy_norm)


class TestSolveOptions:
    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            SolveOptions(max_retries=-1)

    @pytest.mark.parametrize("retries", [1.5, 2.0, "2", None])
    def test_non_integral_retries_rejected(self, retries):
        with pytest.raises(ValueError, match="max_retries must be a nonnegative integer"):
            SolveOptions(max_retries=retries)

    @pytest.mark.parametrize("value", ["bogus", math.inf, -1.0])
    def test_rank_tol_must_be_auto_or_finite_nonnegative(self, value):
        with pytest.raises(ValueError, match='rank_tol must be "auto" or a finite nonnegative'):
            SolveOptions(rank_tol=value)

    @pytest.mark.parametrize("gamma", [([1.0],), ([[1.0]], [1.0]), "ab"])
    def test_gamma_must_be_a_pair_of_vectors(self, gamma):
        with pytest.raises(ValueError, match="gamma must be None or a pair"):
            SolveOptions(gamma=gamma)

    @pytest.mark.parametrize("seed", [1.5, -1, "1"])
    def test_seed_must_be_none_or_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be None or a nonnegative integer"):
            SolveOptions(seed=seed)

    @pytest.mark.parametrize("name", ["delta1", "delta2"])
    def test_thresholds_must_be_real(self, name):
        with pytest.raises(ValueError, match=f"{name} must be a positive real number"):
            SolveOptions(**{name: None})

    def test_checked_fields_accept_numpy_scalars_and_arrays(self):
        opts = SolveOptions(seed=np.int64(1), rank_tol=np.float64(0.0), delta1=np.float32(1e-8),
                            gamma=np.array([[1.0, 2.0], [1.0, 1.0]]))
        spec = make_perturbation(4, 2, opts, np.random.default_rng(0))
        np.testing.assert_array_equal(spec.gammas, [1.0, 2.0])

    def test_numpy_integer_retries_accepted(self):
        opts = SolveOptions(seed=1, max_retries=np.int64(2))
        assert repr(solve(showcase_pencil(), opts).records) == repr(
            solve(showcase_pencil(), SolveOptions(seed=1, max_retries=2)).records)

    @pytest.mark.parametrize("name", ["delta1", "delta2"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_thresholds_must_be_positive(self, name, value):
        with pytest.raises(ValueError, match="positive"):
            SolveOptions(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    def test_tau_must_be_finite_and_nonzero(self, value):
        # a NaN or infinite tau used to fail later as "A contains non-finite
        # entries" (k > 0), or go unnoticed (k = 0)
        with pytest.raises(ValueError, match="tau must be finite and nonzero"):
            SolveOptions(tau=value)

    @pytest.mark.parametrize("value", ["x", None])
    def test_tau_of_the_wrong_type_names_tau(self, value):
        # used to raise numpy's TypeError from np.isfinite, which names no field
        with pytest.raises(ValueError, match="tau must be finite and nonzero"):
            SolveOptions(tau=value)


class TestCollisionRetry:
    def test_explicit_gamma_collision_warns(self):
        # prescribe gamma exactly on a true eigenvalue; explicit diagonals
        # cannot be re-randomized away, so the warning flag must be raised
        p = showcase_pencil()
        ps = scale(squarify(p))
        gamma_true = (1 / 3) / ps.back_factor  # scaled-domain value of the true 1/3
        opts = SolveOptions(seed=0, gamma=([gamma_true], [1.0]), max_retries=2)
        res = solve(p, opts)
        assert res.collision_warning

    @pytest.mark.parametrize("retries", [0, 2])
    def test_attempt_count_and_flag(self, monkeypatch, retries):
        # the check runs whenever k > 0: max_retries=0 makes one attempt
        # and flags the collision instead of skipping the check
        import singpencil.solver as solver_mod

        calls = []
        real = solver_mod.generalized_eig

        def counting(A, B):
            calls.append(1)
            return real(A, B)

        monkeypatch.setattr(solver_mod, "generalized_eig", counting)
        p = showcase_pencil()
        gamma_true = (1 / 3) / scale(squarify(p)).back_factor
        opts = SolveOptions(seed=0, gamma=([gamma_true], [1.0]), max_retries=retries)
        res = solve(p, opts)
        assert len(calls) == retries + 1
        assert res.collision_warning

    @pytest.mark.parametrize("retries", [0, 2])
    def test_stack_calls_each_traced_name_in_solver(self, monkeypatch, retries):
        # perfbench's tracer wraps these names where solver looks them up, and counts
        # the QZ of an n x n pencil as n**3: a stack of m pencils must make m
        # generalized_eig calls per attempt, each on 2-d n x n arrays
        import singpencil.solver as solver_mod

        calls = []

        def traced(name, fn):
            def wrapper(*args, **kwargs):
                shapes = [a.shape for a in args] if name == "generalized_eig" else None
                calls.append((name, shapes))
                return fn(*args, **kwargs)
            return wrapper

        for name in ("generalized_eig", "normal_rank", "scale", "make_perturbation", "perturb"):
            monkeypatch.setattr(solver_mod, name, traced(name, getattr(solver_mod, name)))
        p = showcase_pencil()
        n = max(p.shape)
        gamma_true = (1 / 3) / scale(squarify(p)).back_factor  # a collision on every attempt
        opts = SolveOptions(gamma=([gamma_true], [1.0]), max_retries=retries)
        results = solve([p] * 3, opts, [np.random.default_rng(s) for s in range(3)])
        assert all(r.collision_warning for r in results)
        qz = [shapes for name, shapes in calls if name == "generalized_eig"]
        assert qz == [[(n, n), (n, n)]] * (3 * (retries + 1))
        counts = {name: sum(c == name for c, _ in calls) for name, _ in calls}
        attempts = 3 * (retries + 1)
        assert counts == {"scale": 1, "normal_rank": 1, "make_perturbation": attempts,
                          "perturb": attempts, "generalized_eig": attempts}

    def test_retry_option_removed(self):
        with pytest.raises(TypeError):
            SolveOptions(retry_on_collision=False)

    def test_probes_option_removed(self):
        with pytest.raises(TypeError):
            SolveOptions(probes=2)


class TestTauProperties:
    def _kcf_pencil(self):
        spec = KcfSpec(
            (Jordan(1, 0.7), Jordan(1, -1.2), Nilpotent(2), RightSingular(2), LeftSingular(1)),
            transform="unitary",
        )
        return build(spec, np.random.default_rng(5))

    def test_tau_invariance(self):
        p, truth = self._kcf_pencil()
        sets = {}
        for tau in (1e-3, 1e-2, 1e-1):
            res = solve(p, SolveOptions(seed=77, tau=tau))
            sets[tau] = sorted(res.finite_true_values, key=lambda z: (z.real, z.imag))
        for tau in (1e-2, 1e-1):
            assert len(sets[tau]) == len(sets[1e-3]) == len(truth.finite)
            for a, b in zip(sets[1e-3], sets[tau]):
                assert abs(a - b) <= 1e-8 * max(1.0, abs(a))

    def test_s_scales_linearly_in_tau(self):
        p, _ = self._kcf_pencil()
        res1 = solve(p, SolveOptions(seed=77, tau=1e-2))
        res2 = solve(p, SolveOptions(seed=77, tau=1e-3))
        nontrue1 = [r for r in res1.records if not r.label.is_true]
        nontrue2 = [r for r in res2.records if not r.label.is_true]
        assert len(nontrue1) == len(nontrue2) > 0
        pairs = greedy_chordal_match([r.value for r in nontrue1], [r.value for r in nontrue2])
        # prescribed and random eigenvalues are tau-independent, so the greedy
        # chordal matching pairs the same eigenvalue across the two runs
        for (lam1, lam2, d) in pairs:
            assert d < 1e-6
        s1 = sorted(r.s_abs for r in nontrue1)
        s2 = sorted(r.s_abs for r in nontrue2)
        for a, b in zip(s1, s2):
            ratio = a / b
            assert 5.0 <= ratio <= 20.0  # tau ratio is 10, constants within 2x

    def test_orthogonality_separation(self):
        p, _ = self._kcf_pencil()
        res = solve(p, SolveOptions(seed=12))
        for r in res.records:
            if r.label.is_true:
                assert r.zeta <= 1e-8
            if r.label is EigenClass.PRESCRIBED:
                assert min(r.vx_norm, r.uy_norm) >= 1e-4


class TestCountingProperty:
    def test_counts_match_block_structure(self):
        for trial in range(30):
            rng = np.random.default_rng(trial)
            from helpers import random_singular_spec

            spec = random_singular_spec(rng, max_size=25)
            p, truth = build(spec, rng)
            res = solve(p, SolveOptions(seed=1000 + trial))
            counts = class_counts(res)
            n = p.shape[0]
            assert truth.rows == truth.cols == n
            assert counts.get(EigenClass.FINITE_TRUE, 0) == len(truth.finite)
            assert counts.get(EigenClass.INFINITE_TRUE, 0) == truth.n_infinite
            assert counts.get(EigenClass.PRESCRIBED, 0) == truth.k
            assert counts.get(EigenClass.RANDOM_RIGHT, 0) == truth.M
            assert counts.get(EigenClass.RANDOM_LEFT, 0) == truth.N
            assert truth.r + truth.k + truth.M + truth.N == n


class TestArrayContract:
    """The classified spectrum ``solve`` builds from arrays, read back from its records."""

    @staticmethod
    def _pencils():
        from helpers import random_singular_spec

        for trial in range(30):
            rng = np.random.default_rng(50_000 + trial)
            yield build(random_singular_spec(rng, max_size=20), rng)[0], trial
        yield Pencil(A=random_complex(np.random.default_rng(1), (5, 5)), B=np.eye(5)), 30
        yield Pencil(A=np.zeros((4, 4)), B=np.zeros((4, 4))), 31

    def test_labels_gaps_and_order(self):
        order = list(EigenClass)

        def extreme(pick, values):
            return pick(values) if values else None

        for p, seed in self._pencils():
            opts = SolveOptions(seed=seed)
            res = solve(p, opts)
            recs = res.records
            labels = [r.label for r in recs]
            assert np.array_equal(_class_index(*res.diagnostics, opts.delta1, opts.delta2), res.classes)
            true_z = [r.zeta for r in recs if r.label.is_true]
            assert res.gap_report == GapReport(
                max_true_zeta=extreme(max, true_z),
                min_nontrue_zeta=extreme(min, [r.zeta for r in recs if not r.label.is_true]),
                max_infinite_s=extreme(
                    max, [r.s_abs for r in recs if r.label is EigenClass.INFINITE_TRUE]
                ),
                min_finite_s=extreme(
                    min, [r.s_abs for r in recs if r.label is EigenClass.FINITE_TRUE]
                ),
            )
            keys = [
                (order.index(r.label), math.inf if r.is_infinite else r.value.real,
                 0.0 if r.is_infinite else r.value.imag)
                for r in recs
            ]
            assert keys == sorted(keys)
            assert res.finite_true == [r for r in recs if r.label is EigenClass.FINITE_TRUE]

    def test_record_order_does_not_depend_on_s(self, monkeypatch):
        # records tied on label and value (the infinite ones) keep the QZ
        # order: shrinking every |s| below delta2 by a random factor, which
        # changes no label, must leave the record order as it is
        import singpencil.solver as solver_module

        blocks = [Jordan(1, complex(0.1 * i, -0.2 * i)) for i in range(1, 9)]
        blocks += [Nilpotent(2)] * 3 + [RightSingular(2)] * 3 + [LeftSingular(2)] * 3
        p = build(KcfSpec(tuple(blocks), transform="unitary"), np.random.default_rng(7))[0]
        want = solve(p, SolveOptions(seed=0)).records
        assert sum(r.label is EigenClass.INFINITE_TRUE for r in want) > 1
        real_diagnostics = solver_module._diagnostics
        for seed in range(3):
            rng = np.random.default_rng(seed)

            def shrunk_s(*args):
                diag = real_diagnostics(*args)
                small = diag[0] < DEFAULT_DELTA2
                diag[0, small] *= rng.uniform(0.25, 1.0, int(small.sum()))
                return diag

            monkeypatch.setattr(solver_module, "_diagnostics", shrunk_s)
            got = solve(p, SolveOptions(seed=0)).records
            assert [r.label for r in got] == [r.label for r in want]
            assert np.array_equal(np.stack([r.x for r in got]), np.stack([r.x for r in want]))

    def test_batched_diagnostics_match_per_column_loop(self):
        # the per-eigenpair loop the batched kernel replaced: the products
        # sum in another order, so they agree to 10 EPS, not bit for bit
        from singpencil.pencil import normal_rank
        from singpencil.solver import _diagnostics

        for p, seed in self._pencils():
            rng = np.random.default_rng(seed)
            ps = scale(squarify(p))
            n, k = ps.shape[0], normal_rank(ps, rng).k
            pt, U, V = ps, np.zeros((n, 0)), np.zeros((n, 0))
            if k:
                spec = make_perturbation(n, k, SolveOptions(), rng)
                pt, U, V = perturb(ps, spec), spec.U, spec.V
            dec = generalized_eig(pt.A, pt.B)
            want = np.array(
                [
                    (abs(y.conj() @ (pt.B @ x)), np.linalg.norm(V.conj().T @ x),
                     np.linalg.norm(U.conj().T @ y))
                    for x, y in zip(dec.right.T, dec.left.T)
                ]
            ).T
            got = _diagnostics(*(m[None] for m in (dec.right, dec.left, pt.B, U, V)))[0]
            np.testing.assert_allclose(got, want, rtol=0, atol=10 * EPS)


def _strided_view(m):
    """``m`` as a non-contiguous complex view into a larger array."""
    big = np.zeros((2 * m.shape[0], 3 * m.shape[1]), dtype=np.complex128)
    big[::2, ::3] = m
    return big[::2, ::3]


class TestInputRepresentations:
    """Integer, real and non-contiguous inputs solve like their complex128 C-order copy."""

    @pytest.mark.parametrize(
        "convert",
        [
            lambda m: m,
            lambda m: m.astype(np.float64),
            lambda m: np.asfortranarray(m.astype(np.complex128)),
            lambda m: np.asfortranarray(m.astype(np.float64)),
            _strided_view,
        ],
        ids=["int64", "float64", "complex_fortran", "float_fortran", "strided_slice"],
    )
    def test_same_records_as_complex_c_contiguous_copy(self, convert):
        # A = X Ca, B = X Cb with a 5 x 4 integer X: singular, normal rank 4
        rng = np.random.default_rng(8)
        X = rng.integers(-3, 4, (5, 4))
        A, B = X @ rng.integers(-3, 4, (4, 5)), X @ rng.integers(-3, 4, (4, 5))
        want = solve(Pencil(A=A.astype(np.complex128), B=B.astype(np.complex128)),
                     SolveOptions(seed=3))
        got = solve(Pencil(A=convert(A), B=convert(B)), SolveOptions(seed=3))
        assert got.nrank_report.k == 1
        assert repr(got.nrank_report) == repr(want.nrank_report)

        def key(r):
            diag = (r.value, r.label, r.s_abs, r.vx_norm, r.uy_norm)
            return repr(diag), r.x.tobytes(), r.y.tobytes()

        assert [key(r) for r in got.records] == [key(r) for r in want.records]


class TestUnitaryInvariance:
    def test_same_finite_true_under_unitary_equivalence(self):
        from singpencil import random_orthonormal

        p = showcase_pencil()
        base = solve(p, SolveOptions(seed=4)).finite_true_values
        rng = np.random.default_rng(10)
        P = random_orthonormal(7, 7, rng)
        Q = random_orthonormal(7, 7, rng)
        q = Pencil(A=P.conj().T @ p.A @ Q, B=P.conj().T @ p.B @ Q)
        other = solve(q, SolveOptions(seed=4)).finite_true_values
        assert len(base) == len(other) == 2
        for a, b, _ in greedy_chordal_match(base, other):
            assert abs(a - b) <= 1e-8


class TestNoiseRobustness:
    def test_control_pencil_with_noise_and_loosened_delta1(self):
        p = control_benchmark_pencil()
        noise = np.random.default_rng(1000)
        An = p.A + 1e-6 * noise.uniform(size=p.shape)
        Bn = p.B + 1e-6 * noise.uniform(size=p.shape)
        res = solve(Pencil(A=An, B=Bn), SolveOptions(seed=3, delta1=1e-4))
        vals = sorted(v.real for v in res.finite_true_values)
        assert len(vals) == 2
        assert abs(vals[0] - 1.0) <= 1e-4
        assert abs(vals[1] - 2.0) <= 1e-4

    def test_double_eigenvalue_splitting_law(self):
        # noise eta on the staircase-sensitive pencil splits the double zero
        # eigenvalue by ~ sqrt(eta / eps_scale); survival at every noise level
        eps_scale = 1.5e-8
        p = staircase_sensitive_pencil(eps_scale)
        for eta in (1e-11, 1e-12, 1e-14):
            noise = np.random.default_rng(42)
            An = p.A + eta * noise.uniform(size=p.shape)
            Bn = p.B + eta * noise.uniform(size=p.shape)
            res = solve(Pencil(A=An, B=Bn), SolveOptions(seed=3))
            vals = res.finite_true_values
            assert len(vals) == 2
            predicted = math.sqrt(eta / eps_scale)
            for v in vals:
                assert predicted / 3 <= abs(v) <= 3 * predicted


class TestHardCases:
    def test_defective_true_eigenvalue_recovered(self):
        # a Jordan block of size 2 in the regular part: the value carries the
        # usual sqrt(eps) sensitivity but both copies stay classified true
        spec = KcfSpec(
            (Jordan(2, 0.5), Jordan(1, -1.0), RightSingular(1), LeftSingular(1)),
            transform="unitary",
        )
        p, _ = build(spec, np.random.default_rng(3))
        res = solve(p, SolveOptions(seed=3))
        assert len(res.finite_true) == 3
        near = sorted(abs(v - 0.5) for v in res.finite_true_values)[:2]
        assert all(e <= 1e-6 for e in near)

    @pytest.mark.parametrize("seed", range(20))
    def test_true_eigenvalues_on_the_unit_circle(self, seed):
        # the rank probes sample on the unit circle, where these eigenvalues lie
        roots = [cmath.exp(2j * math.pi * j / 6) for j in range(6)]
        blocks = (*(Jordan(1, z) for z in roots), Nilpotent(1), RightSingular(1), LeftSingular(2))
        p, truth = build(KcfSpec(blocks, transform="unitary"), np.random.default_rng(seed))
        res = solve(p, SolveOptions(seed=seed))
        assert res.nrank_report.k == truth.k
        assert_multiset_close(res.finite_true_values, roots, rtol=0.0, atol=1e-8)

    def test_one_by_one_regular(self):
        res = solve(Pencil(A=[[2.0]], B=[[1.0]]), SolveOptions(seed=0))
        assert res.nrank_report.k == 0
        np.testing.assert_allclose(res.finite_true_values, [2.0], atol=1e-14)

    def test_zero_a_matrix_gives_zero_eigenvalues(self):
        res = solve(Pencil(A=[[0.0]], B=[[1.0]]), SolveOptions(seed=0))
        assert res.finite_true_values == [0.0]
        res = solve(Pencil(A=np.zeros((4, 4)), B=np.eye(4)), SolveOptions(seed=1))
        assert [r.label for r in res.records] == [EigenClass.FINITE_TRUE] * 4
        assert res.finite_true_values == [0.0] * 4

    def test_empty_pencil_rejected(self):
        empty = Pencil(A=np.zeros((0, 0)), B=np.zeros((0, 0)))
        for run in (solve, solve_by_intersection):
            with pytest.raises(ValueError, match="empty pencil"):
                run(empty, SolveOptions(seed=0))

    def test_zero_by_three_is_fully_singular(self):
        res = solve(Pencil(A=np.zeros((0, 3)), B=np.zeros((0, 3))), SolveOptions(seed=0))
        assert [r.label for r in res.records] == [EigenClass.PRESCRIBED] * 3

    def test_negative_rank_tol_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            solve(showcase_pencil(), SolveOptions(seed=0, rank_tol=-1.0))

    def test_zero_pencil_is_fully_singular(self):
        res = solve(Pencil(A=np.zeros((4, 4)), B=np.zeros((4, 4))), SolveOptions(seed=1))
        assert res.nrank_report.nrank == 0
        assert [r.label for r in res.records] == [EigenClass.PRESCRIBED] * 4

    def test_extreme_scaling_recovered(self):
        res = solve(Pencil(A=[[3e5]], B=[[1e-5]]), SolveOptions(seed=0))
        assert len(res.finite_true) == 1
        v = res.finite_true_values[0]
        assert abs(v - 3e10) <= 1e-4

    def test_magnitude_beyond_eps_reciprocal_reports_infinite_view(self):
        # back-scaled lambda above 1/eps: |beta| <= eps |alpha|, so the value
        # view says infinite while |s| still classifies the record finite-true
        res = solve(Pencil(A=[[3e150]], B=[[1e-150]]), SolveOptions(seed=0))
        assert len(res.finite_true) == 1
        assert res.finite_true[0].is_infinite


class TestIntersectionBaseline:
    def test_control_pencil_matches_solve(self):
        p = control_benchmark_pencil()
        oracle = sorted(
            v.real for v in solve(p, SolveOptions(seed=3)).finite_true_values
        )
        inter = solve_by_intersection(p, SolveOptions(seed=11), match_tol=1e-6)
        got = sorted(v.real for v in inter.eigenvalues)
        assert len(got) == 2
        np.testing.assert_allclose(got, oracle, atol=1e-6)

    def test_regular_pencil_full_spectrum(self):
        rng = np.random.default_rng(6)
        p = Pencil(A=random_complex(rng, (5, 5)), B=random_complex(rng, (5, 5)))
        inter = solve_by_intersection(p, SolveOptions(seed=6))
        base = generalized_eig(p.A, p.B).values()
        base = base[np.isfinite(base)].tolist()
        assert len(inter.eigenvalues) == len(base)
        for a, b, _ in greedy_chordal_match(inter.eigenvalues, base):
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_diagonal_demo_certain_matches(self):
        inter = solve_by_intersection(diagonal_demo_pencil(), SolveOptions(seed=9))
        certain = sorted(v.real for v in inter.eigenvalues)
        np.testing.assert_allclose(certain, [0.5, 2 / 3, 0.75], atol=1e-8)


class TestIntersectionDistance:
    """The chordal distances ``solve_by_intersection`` matches by, on chosen spectra."""

    @staticmethod
    def _intersect(monkeypatch, *spectra):
        import singpencil.solver as solver_mod

        # a regular 1 x 1 pencil is solved unperturbed: each QZ returns the next spectrum
        decs = iter(EigDecomposition(np.asarray(a, complex), np.asarray(b, complex), None, None)
                    for a, b in spectra)
        monkeypatch.setattr(solver_mod, "generalized_eig", lambda A, B: next(decs))
        return solve_by_intersection(Pencil(A=[[1.0]], B=[[1.0]]), SolveOptions(seed=0))

    def test_two_infinite_values_are_at_distance_zero(self, monkeypatch):
        inter = self._intersect(monkeypatch, ([1.0], [0.0]), ([-2.0], [0.0]))
        assert inter.matches == [(complex(math.inf, 0.0), complex(math.inf, 0.0), 0.0)]
        assert inter.eigenvalues == []

    def test_zero_and_infinity_are_at_distance_one(self, monkeypatch):
        inter = self._intersect(monkeypatch, ([0.0], [1.0]), ([1.0], [0.0]))
        assert inter.matches == [(0j, complex(math.inf, 0.0), 1.0)]

    def test_closed_form_on_random_pairs(self, monkeypatch):
        rng = np.random.default_rng(8)
        spectra = [(random_complex(rng, (6,)), random_complex(rng, (6,))) for _ in range(2)]
        spectra[1][1][0] = 0.0  # one infinite value
        inter = self._intersect(monkeypatch, *spectra)
        assert len(inter.matches) == 6
        assert sum(math.isinf(a.real) or math.isinf(b.real) for a, b, _ in inter.matches) == 1
        for a, b, d in inter.matches:
            assert abs(d - chordal(a, b)) <= 1e-14

    def test_rows_keep_their_order_under_last_bit_noise(self, monkeypatch):
        # the matched distances are roundoff, so they must not order the rows: noisy
        # copies of one spectrum (conjugate pairs, a value on the real axis below one
        # of them and an infinite value) list their matches in one order; so do two
        # more infinite first values, matched to the second values -w and w at
        # distances 1 / hypot(1, |w|) that differ in the last bits, by the second value
        rng = np.random.default_rng(3)
        z = random_complex(rng, (5,))
        z = np.concatenate([z, z.conj(), [z[0].real, 1.0]])
        beta = np.append(np.ones(len(z) - 1), 0.0)
        w = 7.05e7
        spectra = [(np.append(z, [1.0, 1.0]), np.append(beta, [0.0, 0.0])),
                   (np.append(z, [w, -w]), np.append(beta, [1.0, 1.0]))]
        seconds = np.append(z[:-1], [np.inf, w, -w])  # row i's second value
        orders, closer = set(), set()
        for _ in range(20):
            noisy = [(a * (1 + 4 * EPS * rng.standard_normal(len(a))), b) for a, b in spectra]
            matches = self._intersect(monkeypatch, *noisy).matches
            orders.add(tuple(len(z) - 1 if math.isinf(b.real) else int(np.argmin(np.abs(b - seconds)))
                             for _, b, _ in matches))
            closer.add(matches[-3][2] < matches[-2][2])
        finite = sorted(range(len(z) - 1), key=lambda i: (round(z[i].real, 8), z[i].imag))
        assert orders == {tuple(finite) + (len(z) + 1, len(z), len(z) - 1)}
        assert closer == {True, False}  # ordered by distance, the rows of -w and w would swap


def _kcf_stack(seed, m, regular_at=()):
    """m KCF pencils of one shape (7 x 7): two finite eigenvalues, N2, L1 and L1^T (k = 1).

    At the indices in ``regular_at`` three more finite eigenvalues take the
    place of L1 and L1^T, so those pencils are regular (k = 0).
    """
    rng = np.random.default_rng(seed)
    pencils = []
    for i in range(m):
        z = rng.uniform(-2.0, 2.0, (5, 2))
        blocks = [Jordan(1, complex(a, b)) for a, b in z[:2]] + [Nilpotent(2)]
        if i in regular_at:
            blocks += [Jordan(1, complex(a, b)) for a, b in z[2:]]
        else:
            blocks += [RightSingular(1), LeftSingular(1)]
        pencils.append(build(KcfSpec(tuple(blocks), transform="general"), rng)[0])
    return pencils


class TestStackedSolve:
    """``solve`` of a list of pencils equals the solves of its members, bit for bit."""

    @staticmethod
    def _check(pencils, opts, seeds):
        got = solve(pencils, opts, [np.random.default_rng(s) for s in seeds])
        assert len(got) == len(pencils)
        for p, seed, res in zip(pencils, seeds, got):
            assert result_fields(res) == result_fields(solve(p, opts, np.random.default_rng(seed)))
        return got

    def test_regular_stack(self):
        rng = np.random.default_rng(21)
        pencils = [Pencil(A=random_complex(rng, (5, 5)), B=random_complex(rng, (5, 5)))
                   for _ in range(4)]
        got = self._check(pencils, SolveOptions(), [3, 1, 4, 1])
        assert all(res.nrank_report.k == 0 and len(res.finite_true) == 5 for res in got)

    def test_singular_stack_with_a_collision_retry(self):
        # gamma sits on a true eigenvalue of pencil 0 only: that pencil uses
        # every retry and warns, the others pass at once; pencil 2 is regular,
        # so the stack also mixes perturbation ranks
        pencils = _kcf_stack(8, 4, regular_at=(2,))
        first = solve(pencils[0], SolveOptions(seed=0))
        lam = first.finite_true_values[0]
        gamma = lam / scale(squarify(pencils[0])).back_factor
        opts = SolveOptions(gamma=([gamma], [1.0]), max_retries=2)
        got = self._check(pencils, opts, [5, 6, 7, 8])
        assert [res.collision_warning for res in got] == [True, False, False, False]
        assert [res.nrank_report.k for res in got] == [1, 1, 0, 1]

    def test_default_generators_follow_the_seed(self):
        pencils = _kcf_stack(9, 3)
        opts = SolveOptions(seed=12)
        for p, res in zip(pencils, solve(pencils, opts)):
            assert result_fields(res) == result_fields(solve(p, opts))

    def test_empty_stack(self):
        assert solve([]) == []

    def test_stack_needs_one_distinct_generator_per_pencil(self):
        pencils = _kcf_stack(10, 2)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="distinct generator"):
            solve(pencils, SolveOptions(), [rng, rng])
        with pytest.raises(ValueError, match="distinct generator"):
            solve(pencils, SolveOptions(), [rng])

    def test_stack_needs_equal_shapes(self):
        with pytest.raises(ValueError, match="equal shape"):
            solve([showcase_pencil(), diagonal_demo_pencil()])

    def test_records_are_built_once(self):
        res = solve(showcase_pencil(), SolveOptions(seed=0))
        assert res.records is res.records
        assert all(any(r is t for t in res.records) for r in res.finite_true)
        assert res.finite_true_values == [r.value for r in res.finite_true]


class TestIntersectionTolerance:
    @pytest.mark.parametrize("value", [math.nan, -1e-6])
    def test_match_tol_must_be_nonnegative(self, value):
        with pytest.raises(ValueError, match="match_tol"):
            solve_by_intersection(showcase_pencil(), SolveOptions(seed=0), match_tol=value)

"""Tests for the canonical-form test pencil generator and its oracle."""

import json
import math

import numpy as np
import pytest

from singpencil import SolveOptions, normal_rank, solve
from singpencil.kcf_gen import (
    Jordan,
    KcfSpec,
    LeftSingular,
    Nilpotent,
    RightSingular,
    build,
    oracle_eigenvalues,
    spec_from_json,
    spec_to_json,
)

from helpers import assert_multiset_close, random_singular_spec


class TestOracle:
    def test_single_jordan_block(self):
        truth = oracle_eigenvalues(KcfSpec((Jordan(3, 5.0),)))
        assert truth.finite == [5.0, 5.0, 5.0]
        assert truth.r == 3
        assert truth.k == 0
        assert truth.nrank == 3

    def test_trivial_singular_pair(self):
        truth = oracle_eigenvalues(KcfSpec((RightSingular(0), LeftSingular(0))))
        assert (truth.rows, truth.cols) == (1, 1)
        assert truth.nrank == 0
        assert truth.finite == []
        assert truth.n_infinite == 0

    def test_mixed_block_sizes_cross_checked_against_normal_rank(self):
        spec = KcfSpec((Nilpotent(2), RightSingular(1), LeftSingular(1)), transform="unitary")
        truth = oracle_eigenvalues(spec)
        assert truth.n_infinite == 2
        assert truth.M == truth.N == 1
        assert (truth.rows, truth.cols) == (5, 5)
        p, _ = build(spec, np.random.default_rng(0))
        rep = normal_rank(p, np.random.default_rng(1))
        assert rep.nrank == truth.nrank

    def test_rectangular_structure(self):
        # a Jordan pair at 0 plus one right singular block: 3 x 4
        truth = oracle_eigenvalues(KcfSpec((Jordan(2, 0.0), RightSingular(1))))
        assert (truth.rows, truth.cols) == (3, 4)
        assert truth.M == 1 and truth.N == 0
        assert truth.k == 1
        assert truth.nrank == 3


    def test_builds_no_matrix(self, monkeypatch):
        def fail(self):
            raise AssertionError("the oracle built a block's matrices")

        for cls in (Jordan, Nilpotent, RightSingular, LeftSingular):
            monkeypatch.setattr(cls, "matrices", fail)
        truth = oracle_eigenvalues(KcfSpec((Jordan(2, 1j), Jordan(1, -1.0), Nilpotent(3),
                                            RightSingular(2), RightSingular(0), LeftSingular(1))))
        assert truth.finite == [-1.0, 1j, 1j]
        assert (truth.n_infinite, truth.r, truth.k, truth.M, truth.N) == (3, 6, 2, 2, 1)
        assert (truth.nrank, truth.rows, truth.cols) == (9, 10, 11)


class TestBuild:
    def test_full_block_zoo(self):
        spec = KcfSpec(
            (Jordan(1, 0.5), Jordan(1, 1 / 3), Nilpotent(1), RightSingular(1), LeftSingular(2)),
            transform="unitary",
        )
        p, truth = build(spec, np.random.default_rng(7))
        assert p.shape == (7, 7)
        assert truth.nrank == 6
        rep = normal_rank(p, np.random.default_rng(0))
        assert rep.nrank == 6
        res = solve(p, SolveOptions(seed=3))
        assert_multiset_close(res.finite_true_values, [1 / 3, 0.5])
        assert truth.n_infinite == 1

    def test_control_structure_canonical(self):
        spec = KcfSpec(
            (RightSingular(2), Jordan(1, 1.0), Jordan(1, 2.0), LeftSingular(0)),
            transform="none",
        )
        p, truth = build(spec, np.random.default_rng(0))
        assert p.shape == (5, 5)
        assert truth.finite == [1.0, 2.0]
        # transform "none" returns the canonical block diagonal itself
        assert np.array_equal(p.A[:2, :3], np.array([[0, 1, 0], [0, 0, 1]], dtype=complex))
        res = solve(p, SolveOptions(seed=1))
        assert_multiset_close(res.finite_true_values, [1.0, 2.0])

    def test_double_zero_structure(self):
        spec = KcfSpec((Jordan(2, 0.0), RightSingular(1)), transform="none")
        p, truth = build(spec, np.random.default_rng(0))
        assert p.shape == (3, 4)
        assert truth.finite == [0.0, 0.0]

    def test_general_transform_condition_bound(self):
        spec = KcfSpec((Jordan(1, 1.0), RightSingular(1), LeftSingular(1)),
                       transform="general", cond_bound=1e3)
        p, _ = build(spec, np.random.default_rng(3))
        # the pencil is an equivalence image; its matrices stay finite and nonzero
        assert np.all(np.isfinite(p.A.view(float)))
        assert np.linalg.norm(p.A) > 0


class TestDualBlocks:
    """L_m^T and N_k, derived from L_m and J_k(0), equal the blocks written out."""

    @pytest.mark.parametrize("m", range(5))
    def test_left_singular(self, m):
        A, B = LeftSingular(m).matrices()
        # L_m^T = [0; I] - lambda [I; 0], of size (m + 1) x m
        want_A = np.vstack([np.zeros((1, m)), np.eye(m)]).astype(complex)
        want_B = np.vstack([np.eye(m), np.zeros((1, m))]).astype(complex)
        assert A.dtype == B.dtype == np.complex128
        np.testing.assert_array_equal(A, want_A)
        np.testing.assert_array_equal(B, want_B)

    @pytest.mark.parametrize("k", range(1, 5))
    def test_nilpotent(self, k):
        A, B = Nilpotent(k).matrices()
        N = np.zeros((k, k), dtype=complex)
        for i in range(k - 1):
            N[i, i + 1] = 1.0
        assert A.dtype == B.dtype == np.complex128
        np.testing.assert_array_equal(A, np.eye(k))
        np.testing.assert_array_equal(B, N)


class TestBlockFields:
    """Each block checks and normalizes its size or index where it is built."""

    def test_numpy_integer_is_stored_as_an_int(self):
        spec = KcfSpec((Jordan(np.int64(2), 1), RightSingular(np.int32(1)), LeftSingular(1.0)))
        assert [type(getattr(b, f)) for b, f in zip(spec.blocks, ("size", "index", "index"))] \
            == [int, int, int]
        assert spec_from_json(json.loads(json.dumps(spec_to_json(spec)))) == spec

    @pytest.mark.parametrize("cls,args", [(Jordan, (2.5, 0)), (RightSingular, (1.5,)),
                                          (Nilpotent, (True,)), (LeftSingular, ("1",)),
                                          (Nilpotent, (np.True_,))],
                             ids=["Jordan-2.5", "RightSingular-1.5", "Nilpotent-True",
                                  "LeftSingular-str", "Nilpotent-np.True_"])
    def test_non_integral_sizes_raise_type_error(self, cls, args):
        with pytest.raises(TypeError, match="not an integer"):
            cls(*args)

    @pytest.mark.parametrize("value,error", [(None, TypeError), ("1", TypeError), (True, TypeError),
                                             (math.nan, ValueError), (math.inf, ValueError),
                                             (-math.inf, ValueError),
                                             (complex(0.0, math.nan), ValueError)],
                             ids=["None", "str", "bool", "nan", "inf", "-inf", "nan-imag"])
    def test_jordan_eigenvalue_must_be_a_finite_number(self, value, error):
        with pytest.raises(error, match="^Jordan eigenvalue must be"):
            Jordan(1, value)

    def test_non_blocks_raise_type_error(self):
        class Subclass(Jordan):
            pass

        with pytest.raises(TypeError, match="^unknown block type str$"):
            KcfSpec(("x",))
        with pytest.raises(TypeError, match="^unknown block type Subclass$"):
            KcfSpec((Jordan(1, 0.0), Subclass(1, 0.0)))


class TestNormalRankProperty:
    def test_oracle_matches_probe_on_random_specs(self):
        for trial in range(100):
            rng = np.random.default_rng(20_000 + trial)
            spec = random_singular_spec(rng, max_size=40)
            p, truth = build(spec, rng)
            rep = normal_rank(p, np.random.default_rng(trial))
            assert rep.nrank == truth.nrank, f"trial {trial}: {spec}"
            assert rep.k == truth.k
            # the oracle's rows and cols come from the block fields, not the matrices
            assert p.shape == (truth.rows, truth.cols)


class TestSolveRecovery:
    def test_finite_eigenvalues_recovered_unitary(self):
        for trial in range(15):
            rng = np.random.default_rng(31_000 + trial)
            spec = random_singular_spec(rng, max_size=30)
            p, truth = build(spec, rng)
            res = solve(p, SolveOptions(seed=500 + trial))
            assert_multiset_close(res.finite_true_values, truth.finite)

    def test_unitary_vs_general_transform_agree(self):
        for trial in range(8):
            rng1 = np.random.default_rng(41_000 + trial)
            spec_u = random_singular_spec(rng1, max_size=25, transform="unitary")
            spec_g = KcfSpec(spec_u.blocks, transform="general", cond_bound=1e3)
            p_u, truth = build(spec_u, np.random.default_rng(trial))
            p_g, _ = build(spec_g, np.random.default_rng(trial))
            res_u = solve(p_u, SolveOptions(seed=trial))
            res_g = solve(p_g, SolveOptions(seed=trial))
            assert_multiset_close(res_u.finite_true_values, truth.finite, atol=1e-6, rtol=1e-6)
            assert_multiset_close(res_g.finite_true_values, truth.finite, atol=1e-6, rtol=1e-6)


class TestJsonRoundTrip:
    def test_roundtrip(self):
        spec = KcfSpec(
            (Jordan(2, 1.5 - 0.5j), Nilpotent(1), RightSingular(0), LeftSingular(3)),
            transform="general",
            cond_bound=100.0,
        )
        doc = spec_to_json(spec)
        back = spec_from_json(doc)
        assert back == spec

    def test_real_eigenvalue_shorthand(self):
        spec = spec_from_json({"blocks": [{"kind": "jordan", "size": 1, "eigenvalue": 2.0}]})
        assert spec.blocks[0] == Jordan(1, 2.0 + 0j)

    def test_bad_documents_rejected(self):
        with pytest.raises(ValueError):
            spec_from_json({})
        with pytest.raises(ValueError):
            spec_from_json({"blocks": [{"kind": "whatever"}]})
        with pytest.raises(ValueError):
            spec_from_json({"blocks": []})

    @pytest.mark.parametrize("block,message", [
        ({"kind": "jordan", "size": 0}, "Jordan block size must be >= 1"),
        ({"kind": "nilpotent", "size": -1.0}, "nilpotent block size must be >= 1"),
        ({"kind": "left_singular", "index": -2}, "minimal index must be >= 0"),
    ])
    def test_range_errors_name_their_block(self, block, message):
        doc = {"blocks": [{"kind": "jordan", "size": 1}, block]}
        with pytest.raises(ValueError, match=f"^block 1: {message}$"):
            spec_from_json(doc)

    @pytest.mark.parametrize("size", [2.7, True, "2", float("inf")])
    def test_sizes_must_be_integral_numbers(self, size):
        doc = {"blocks": [{"kind": "jordan", "size": 1}, {"kind": "nilpotent", "size": size}]}
        with pytest.raises(ValueError, match="block 1: nilpotent sizes and indices must be integers"):
            spec_from_json(doc)
        doc["blocks"][1]["size"] = 2.0
        assert spec_from_json(doc).blocks[1] == Nilpotent(2)

    def test_validation(self):
        with pytest.raises(ValueError):
            KcfSpec((), transform="unitary")
        with pytest.raises(ValueError):
            KcfSpec((Jordan(1, 0.0),), transform="sideways")
        with pytest.raises(ValueError):
            Jordan(0, 1.0)
        with pytest.raises(ValueError):
            RightSingular(-1)

"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and nothing is deferred to later
calibration.
"""

import functools
import json
import time

import numpy as np
import pytest

from singpencil import (
    EigenClass,
    Pencil,
    SolveOptions,
    double_eig,
    solve,
    solve_2ep,
    write_pencil,
    write_problem,
)
from singpencil.cli import main as cli_main
from singpencil.gallery import (
    bivariate_cubic_system,
    control_benchmark_pencil,
    diagonal_demo_pencil,
    evaluate_bivariate,
    showcase_pencil,
    staircase_sensitive_pencil,
)
from singpencil.kcf_gen import build

from helpers import chordal, greedy_match_by, random_singular_spec


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"[criterion {num}] FAIL - {desc}: {exc}")
                raise
            suffix = f" ({detail})" if detail else ""
            print(f"[criterion {num}] PASS - {desc}{suffix}")

        return wrapper

    return deco


def counts_by_class(result):
    out = {}
    for r in result.records:
        out[r.label] = out.get(r.label, 0) + 1
    return out


@criterion(1, "showcase 7x7 pencil: values, classes, zeta separation, runtime < 1 s")
def test_criterion_1_showcase():
    start = time.perf_counter()
    res = solve(showcase_pencil(), SolveOptions(seed=1))
    elapsed = time.perf_counter() - start
    vals = sorted(v.real for v in res.finite_true_values)
    assert len(vals) == 2
    assert abs(vals[0] - 1 / 3) <= 1e-8
    assert abs(vals[1] - 1 / 2) <= 1e-8
    counts = counts_by_class(res)
    assert counts.get(EigenClass.INFINITE_TRUE, 0) == 1
    assert counts.get(EigenClass.PRESCRIBED, 0) == 1
    n_random = counts.get(EigenClass.RANDOM_RIGHT, 0) + counts.get(EigenClass.RANDOM_LEFT, 0)
    assert n_random == 3
    for r in res.records:
        if r.label.is_true:
            assert r.zeta <= 1e-10, f"true row zeta {r.zeta}"
        else:
            assert r.zeta >= 1e-4, f"non-true row zeta {r.zeta}"
    assert elapsed < 1.0
    return f"max|err|={max(abs(vals[0] - 1 / 3), abs(vals[1] - 0.5)):.1e}, {elapsed:.2f}s"


@criterion(2, "diagonal warm-up pencil: finite true {0.5, 0.6667, 0.75} to 1e-8")
def test_criterion_2_diagonal_demo():
    res = solve(diagonal_demo_pencil(), SolveOptions(seed=3))
    vals = sorted(v.real for v in res.finite_true_values)
    expected = [0.5, 2 / 3, 0.75]
    assert len(vals) == 3
    errs = [abs(a - b) for a, b in zip(vals, expected)]
    assert max(errs) <= 1e-8
    return f"max|err|={max(errs):.1e}"


@criterion(3, "control benchmark: clean {1,2} to 1e-6; 1e-6 noise + delta1=1e-4 to 1e-4")
def test_criterion_3_control_benchmark():
    p = control_benchmark_pencil()
    res = solve(p, SolveOptions(seed=3))
    vals = sorted(v.real for v in res.finite_true_values)
    assert len(vals) == 2
    assert abs(vals[0] - 1.0) <= 1e-6 and abs(vals[1] - 2.0) <= 1e-6
    noise = np.random.default_rng(1000)
    An = p.A + 1e-6 * noise.uniform(size=p.shape)
    Bn = p.B + 1e-6 * noise.uniform(size=p.shape)
    res_n = solve(Pencil(A=An, B=Bn), SolveOptions(seed=3, delta1=1e-4))
    vals_n = sorted(v.real for v in res_n.finite_true_values)
    assert len(vals_n) == 2
    errs = [abs(vals_n[0] - 1.0), abs(vals_n[1] - 2.0)]
    assert max(errs) <= 1e-4
    return f"noisy errs={errs[0]:.1e},{errs[1]:.1e}"


@criterion(4, "staircase-failure pencil + seeded 1e-11 noise: two finite true, |lambda| <= 1e-2")
def test_criterion_4_staircase_survival():
    p = staircase_sensitive_pencil(1.5e-8)
    noise = np.random.default_rng(17)
    g1 = noise.standard_normal(p.shape)
    g2 = noise.standard_normal(p.shape)
    An = p.A + 1e-11 * g1 / np.linalg.norm(g1, "fro")
    Bn = p.B + 1e-11 * g2 / np.linalg.norm(g2, "fro")
    res = solve(Pencil(A=An, B=Bn), SolveOptions(seed=0))
    vals = res.finite_true_values
    assert len(vals) == 2, f"expected exactly two finite true, got {len(vals)}"
    for v in vals:
        assert abs(v) <= 1e-2, f"|lambda| = {abs(v)}"
    return "lambdas " + ", ".join(f"{abs(v):.2e}" for v in vals)


@criterion(5, "double-eigenvalue run at n=5: 20 values, gaps <= 1e-6, separation >= 1e4, < 60 s")
def test_criterion_5_double_eig_n5():
    start = time.perf_counter()
    rng0 = np.random.default_rng(2024)
    A = rng0.standard_normal((5, 5))
    B = rng0.standard_normal((5, 5))
    res = double_eig(A, B, opts=SolveOptions(seed=5))
    elapsed = time.perf_counter() - start
    assert len(res.lambdas) == 20, f"expected n(n-1)=20, got {len(res.lambdas)}"
    assert max(res.gaps) <= 1e-6, f"max gap {max(res.gaps)}"
    gr = res.solve_result.gap_report
    separation = gr.min_nontrue_zeta / gr.max_true_zeta
    assert separation >= 1e4, f"separation {separation:.1e}"
    assert elapsed < 60.0
    return f"max gap={max(res.gaps):.1e}, separation={separation:.1e}, {elapsed:.1f}s"


@criterion(6, "bivariate cubic system: exactly 9 roots, |p1|,|p2| <= 1e-6 at each")
def test_criterion_6_bivariate_system():
    problem, c1, c2 = bivariate_cubic_system()
    pairs = solve_2ep(problem, opts=SolveOptions(seed=7), rng=np.random.default_rng(7))
    assert len(pairs) == 9, f"expected 9 roots, got {len(pairs)}"
    worst = 0.0
    for e in pairs:
        r1 = abs(evaluate_bivariate(c1, e.lam, e.mu))
        r2 = abs(evaluate_bivariate(c2, e.lam, e.mu))
        worst = max(worst, r1, r2)
        assert r1 <= 1e-6 and r2 <= 1e-6
    return f"worst residual={worst:.1e}"


@criterion(7, "property suite over 50 seeded canonical-form pencils (size <= 40, cond <= 1e3)")
def test_criterion_7_property_suite():
    n_specs = 50
    worst_recover = worst_prescribed = worst_tau = 0.0
    for trial in range(n_specs):
        rng = np.random.default_rng(70_000 + trial)
        transform = "unitary" if trial % 2 == 0 else "general"
        spec = random_singular_spec(rng, max_size=40, transform=transform, cond_bound=1e3)
        p, truth = build(spec, rng)
        n = p.shape[0]
        res = solve(p, SolveOptions(seed=trial))
        counts = counts_by_class(res)

        # exact counting: r true, k prescribed, M random-right, N random-left
        assert counts.get(EigenClass.FINITE_TRUE, 0) == len(truth.finite), spec
        assert counts.get(EigenClass.INFINITE_TRUE, 0) == truth.n_infinite, spec
        assert counts.get(EigenClass.PRESCRIBED, 0) == truth.k, spec
        assert counts.get(EigenClass.RANDOM_RIGHT, 0) == truth.M, spec
        assert counts.get(EigenClass.RANDOM_LEFT, 0) == truth.N, spec
        assert truth.r + truth.k + truth.M + truth.N == n

        # finite true multiset recovery to 1e-8
        got = sorted(res.finite_true_values, key=lambda z: (z.real, z.imag))
        want = sorted(truth.finite, key=lambda z: (z.real, z.imag))
        for a, b in zip(got, want):
            err = abs(a - b) / max(1.0, abs(b))
            worst_recover = max(worst_recover, err)
            assert err <= 1e-8, f"{a} vs {b} in {spec}"

        # prescribed eigenvalues match gamma_i back-scaled, to 1e-8
        back = float(np.linalg.norm(p.A, 1) / np.linalg.norm(p.B, 1))
        expected = sorted((back * g for g in res.spec_used.gammas), key=lambda z: z.real)
        prescribed = sorted(
            (r.value for r in res.records if r.label is EigenClass.PRESCRIBED),
            key=lambda z: z.real,
        )
        for a, b in zip(prescribed, expected):
            err = abs(a - b) / max(1.0, abs(b))
            worst_prescribed = max(worst_prescribed, err)
            assert err <= 1e-8, f"prescribed {a} vs {b} in {spec}"

        # tau invariance of the finite true set across three decades
        ft_by_tau = {}
        for tau in (1e-3, 1e-2, 1e-1):
            r_tau = solve(p, SolveOptions(seed=trial, tau=tau))
            ft_by_tau[tau] = sorted(
                r_tau.finite_true_values, key=lambda z: (z.real, z.imag)
            )
        for tau in (1e-2, 1e-1):
            assert len(ft_by_tau[tau]) == len(ft_by_tau[1e-3])
            for a, b in zip(ft_by_tau[1e-3], ft_by_tau[tau]):
                err = abs(a - b) / max(1.0, abs(b))
                worst_tau = max(worst_tau, err)
                assert err <= 1e-8, f"tau drift {a} vs {b} in {spec}"

        # |s| of prescribed/random eigenvalues scales linearly in tau (2x slack).
        # Checked on the unitary-transform members: ill-conditioned general
        # transforms can push per-eigenvalue constants below the eigenvector
        # accuracy floor, where the computed |s| no longer tracks tau.
        if transform == "unitary":
            res_lo = solve(p, SolveOptions(seed=trial, tau=1e-3))
            non_hi = [r for r in res.records if not r.label.is_true]
            non_lo = [r for r in res_lo.records if not r.label.is_true]
            assert len(non_hi) == len(non_lo)
            matched = greedy_match_by(non_hi, non_lo, lambda r, t: chordal(r.value, t.value))
            for r_hi, r_lo, d in matched:
                assert d < 1e-6
                ratio = r_hi.s_abs / r_lo.s_abs
                assert 5.0 <= ratio <= 20.0, f"s ratio {ratio} in {spec}"
    return (
        f"{n_specs} specs; worst recover={worst_recover:.1e}, "
        f"prescribed={worst_prescribed:.1e}, tau drift={worst_tau:.1e}"
    )


@criterion(8, "determinism: fixed seed gives byte-identical output for every subcommand")
def test_criterion_8_determinism(tmp_path):
    import io

    write_pencil(showcase_pencil(), tmp_path / "A.mtx", tmp_path / "B.mtx")
    rng = np.random.default_rng(11)
    write_pencil(
        Pencil(A=rng.standard_normal((2, 2)), B=rng.standard_normal((2, 2))),
        tmp_path / "dA.mtx",
        tmp_path / "dB.mtx",
    )
    problem, _, _ = bivariate_cubic_system()
    manifest = write_problem(problem, tmp_path / "prob")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "blocks": [
                    {"kind": "jordan", "size": 1, "eigenvalue": [1.0, 0.0]},
                    {"kind": "right_singular", "index": 1},
                    {"kind": "left_singular", "index": 1},
                ]
            }
        )
    )
    a, b = str(tmp_path / "A.mtx"), str(tmp_path / "B.mtx")
    da, db = str(tmp_path / "dA.mtx"), str(tmp_path / "dB.mtx")
    commands = [
        ["solve", a, b, "--seed", "1", "--format", "csv"],
        ["solve", a, b, "--seed", "1", "--format", "json"],
        ["solve", a, b, "--seed", "1", "--format", "table"],
        ["nrank", a, b, "--seed", "4"],
        ["twoparam", manifest, "--seed", "7", "--format", "csv"],
        ["doubleeig", da, db, "--seed", "2", "--format", "csv"],
        ["intersect", a, b, "--seed", "3", "--format", "json"],
    ]
    for argv in commands:
        outs = []
        for _ in range(2):
            buf, err = io.StringIO(), io.StringIO()
            code = cli_main(argv, out=buf, err=err)
            assert code == 0, f"{argv}: {err.getvalue()}"
            outs.append(buf.getvalue())
        assert outs[0] == outs[1], f"output differs across reruns: {argv}"
    # gen writes identical files on rerun
    file_sets = []
    for d in ("g1", "g2"):
        outdir = tmp_path / d
        buf, err = io.StringIO(), io.StringIO()
        code = cli_main(["gen", str(spec_path), "-o", str(outdir), "--seed", "5"],
                        out=buf, err=err)
        assert code == 0, err.getvalue()
        file_sets.append(
            {f: (outdir / f).read_bytes() for f in ("A.mtx", "B.mtx", "ground_truth.json")}
        )
    assert file_sets[0] == file_sets[1]
    return f"{len(commands)} commands + gen"


@pytest.mark.slow
@criterion("5-slow", "full-scale double-eigenvalue run at n=10: 90 finite true values")
def test_criterion_5_slow_full_scale():
    rng0 = np.random.default_rng(2024)
    A = rng0.standard_normal((10, 10))
    B = rng0.standard_normal((10, 10))
    start = time.perf_counter()
    res = double_eig(A, B, opts=SolveOptions(seed=5))
    elapsed = time.perf_counter() - start
    assert len(res.lambdas) == 90, f"expected 90, got {len(res.lambdas)}"
    assert max(res.gaps) <= 1e-6
    return f"max gap={max(res.gaps):.1e}, {elapsed:.0f}s"

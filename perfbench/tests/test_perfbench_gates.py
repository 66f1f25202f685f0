import os
from collections import Counter

import numpy as np
import pytest

import singpencil as sp
import workloads as wl


@pytest.fixture(scope="module")
def kcf_case():
    p, truth = wl.kcf_pencil(3, n_jordan=10, k=1)
    res = sp.solve(p, sp.SolveOptions(seed=4))
    counts = Counter(r.label.value for r in res.records)
    return truth, counts, res.finite_true_values


def test_kcf_gate_accepts_a_correct_solve(kcf_case):
    truth, counts, finite = kcf_case
    assert wl.check_kcf(counts, finite, truth) is None


def test_kcf_gate_rejects_one_flipped_label(kcf_case):
    truth, counts, finite = kcf_case
    flipped = dict(counts, finite_true=counts["finite_true"] - 1)
    flipped["infinite_true"] += 1
    assert wl.check_kcf(flipped, finite, truth) == "count.finite_true"


def test_kcf_gate_rejects_one_shifted_value(kcf_case):
    truth, counts, finite = kcf_case
    shifted = list(finite)
    shifted[3] += 1e-6
    assert wl.check_kcf(counts, shifted, truth) == "finite_values"


def test_cli_gate_on_real_csv_and_on_one_flipped_class(tmp_path):
    ctx = wl.Context(workdir=str(tmp_path), child_env=dict(os.environ), in_process=True)
    state = wl._setup_cli(5, ctx)
    result = wl._call_cli(state, 0)
    assert wl._check_cli(state, result) == (50, None)
    code, text = result
    flipped = text.replace("finite_true", "prescribed", 1)
    assert wl._check_cli(state, (code, flipped))[1] == "count.finite_true"
    assert wl._check_cli(state, (2, text))[1] == "exit_code"


def test_parse_solve_csv():
    text = (
        "index,lambda_re,lambda_im,infinite,s_abs,vx_norm,uy_norm,zeta,class\n"
        "1,1.5,-0.5,0,1.0,0.0,0.0,0.0,finite_true\n"
        "2,inf,0.0,1,0.0,0.0,0.0,0.0,infinite_true\n"
    )
    counts, finite = wl.parse_solve_csv(text)
    assert counts == {"finite_true": 1, "infinite_true": 1}
    assert finite == [complex(1.5, -0.5)]


@pytest.fixture(scope="module")
def small_ab():
    rng = np.random.default_rng(11)
    return rng.standard_normal((3, 3)), rng.standard_normal((3, 3))


def test_double_eig_gate(small_ab):
    A, B = small_ab
    res = sp.double_eig(A, B, opts=sp.SolveOptions(seed=1))
    assert wl.check_double_eig(res.lambdas, res.gaps, 3) is None
    assert wl.check_double_eig(res.lambdas[1:], res.gaps[1:], 3) == "lambda_count"
    gaps = list(res.gaps)
    gaps[0] = 2e-6
    assert wl.check_double_eig(res.lambdas, gaps, 3) == "gap"


def test_twoparam_gate(small_ab):
    A, B = small_ab
    reference = sp.double_eig(A, B, opts=sp.SolveOptions(seed=1)).lambdas
    pairs = sp.solve_2ep(
        wl.double_eig_problem(A, B),
        opts=sp.SolveOptions(seed=2),
        rng=np.random.default_rng(2),
        unique_lambda=True,
    )
    lams = [e.lam for e in pairs]
    assert wl.check_twoparam(lams, reference) is None
    shifted = list(lams)
    shifted[0] += 1e-6
    assert wl.check_twoparam(shifted, reference) == "lambda_values"
    assert wl.check_twoparam(lams[:-1], reference) == "pair_count"


def test_bivariate_cubic_setup_check_passes():
    wl.check_bivariate_cubic(1)


def test_request_seed_is_a_pure_function():
    assert wl.request_seed(1, 2) == wl.request_seed(1, 2)
    assert wl.request_seed(1, 2) != wl.request_seed(1, 3)
    assert wl.request_seed(1, 2) != wl.request_seed(2, 2)


def test_loop_counts_failures_without_raising():
    import run

    def fail_check(state, result):
        raise KeyError("class")

    raising = wl.Workload(setup=None, call=lambda s, i: 1 / 0, check=None, predicted=())
    loop = run.Loop(raising, state=None, probe=lambda: 0.02)
    samples, certified = loop.run(0.0)
    assert (loop.attempted, certified) == (1, 0)
    assert dict(loop.failures) == {"raised.ZeroDivisionError": 1}

    malformed = wl.Workload(setup=None, call=lambda s, i: None, check=fail_check, predicted=())
    loop = run.Loop(malformed, state=None, probe=lambda: 0.02)
    loop.run(0.0)
    assert dict(loop.failures) == {"check_raised.KeyError": 1}


def test_loop_scales_each_request_by_the_probes_around_it():
    import run
    import speed

    # before, right after the request, right after that probe
    probes = iter([0.030, 0.050, 0.045])
    noop = wl.Workload(
        setup=None, call=lambda s, i: None, check=lambda s, r: (1, None), predicted=()
    )
    loop = run.Loop(noop, state=None, probe=lambda: next(probes))
    samples, certified = loop.run(0.0)
    assert certified == 1 and samples["probe"] == [0.050]
    assert (samples["pair_after"], samples["pair_clean"]) == ([0.050], [0.045])
    assert samples["ref_wall"][0] == pytest.approx(samples["wall"][0] * speed.REF_S / 0.040)
    assert samples["ref_cpu"][0] == pytest.approx(samples["cpu"][0] * speed.REF_S / 0.040)


def test_probe_disturbance_is_the_median_paired_ratio():
    import speed

    assert speed.disturbance([1.0, 2.2, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)
    assert speed.disturbance([1.1, 2.2, 3.3], [1.0, 2.0, 3.0]) == pytest.approx(1.1)


def test_metric_and_workload_lists_match_benchmark_json():
    import json
    from pathlib import Path

    import run
    import tracer

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(wl.WORKLOADS)
    for w in wl.WORKLOADS.values():
        assert set(w.predicted) <= {name for name, _ in tracer.PER_LAYER}

"""Run one singpencil benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22

Each workload is a closed loop with one client.  ``--trace 0`` measures
the end-to-end metrics with tracing off; ``--trace 1`` runs half the
time untraced and half traced and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Samples, the
environment, failures by check and (traced) spans go to
``perfbench/out/``.  See ``perfbench/README.md`` for what each metric
means and which layer should move it.
"""

import os
import sys

# The BLAS pool must be sized before numpy is first imported.  One thread:
# on the 2-core reference machine a second OpenBLAS thread made the QZ
# requests slower and far noisier (see README), and a caller waiting on one
# dense solve gains nothing from it here.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 5
IMPORT_REPS = 3
# The probe check's second probe is taken at most this often, so that it
# costs short requests (twoparam) few samples and long ones none.
PAIR_INTERVAL_S = 0.25
WORKLOAD_NAMES = ("solve-large", "double-eig", "twoparam", "cli")

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("certified_per_s", "1/s"),
    ("cpu_ms_per_req", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def fresh_import_s(env, module):
    """Seconds a fresh interpreter spends in ``import <module>``."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout)


def fresh_setup_s(workload, seed, ctx):
    """Seconds a fresh interpreter spends on one set-up (see setup_child.py)."""
    cmd = [sys.executable, str(HERE / "setup_child.py"), workload, str(seed), ctx.workdir]
    proc = subprocess.run(cmd, env=ctx.child_env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr}")
    return float(proc.stdout.splitlines()[-1])


def thread_count():
    """Threads of this process now (Linux)."""
    return len(os.listdir("/proc/self/task"))


def environment(args):
    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "commit": commit,
    }


class Loop:
    """Closed-loop client: one request at a time until the deadline passes.

    A speed probe runs between consecutive requests and scales them.
    At most every PAIR_INTERVAL_S a second probe follows it; the pair
    shows whether the request left behind anything that slows the probe.
    Every request's wall and CPU time are also kept at the reference
    speed (see speed.py).
    """

    def __init__(self, wl, state, probe):
        self.wl = wl
        self.state = state
        self.probe = probe
        self.failures = Counter()
        self.attempted = 0

    def request(self, i):
        """One timed call plus its gate; returns (wall_s, cpu_s, certified, failure)."""
        c0 = cpu_seconds(self.wl.children)
        t0 = time.perf_counter()
        try:
            result = self.wl.call(self.state, i)
        except Exception as exc:  # a failed request is counted, never raised
            wall = time.perf_counter() - t0
            return wall, cpu_seconds(self.wl.children) - c0, 0, f"raised.{type(exc).__name__}"
        wall = time.perf_counter() - t0
        cpu = cpu_seconds(self.wl.children) - c0
        try:
            certified, failure = self.wl.check(self.state, result)
        except Exception as exc:  # a malformed result fails its gate
            certified, failure = 0, f"check_raised.{type(exc).__name__}"
        return wall, cpu, certified, failure

    def run(self, seconds, tracer=None):
        """Requests until ``seconds`` have passed; returns (samples, certified)."""
        keys = ("wall", "cpu", "ref_wall", "ref_cpu", "probe", "pair_after", "pair_clean")
        samples = {k: [] for k in keys}
        last_pair = -PAIR_INTERVAL_S
        certified = 0
        before = self.probe()
        deadline = time.perf_counter() + seconds
        i = 0
        while i == 0 or time.perf_counter() < deadline:
            if tracer is not None:
                tracer.request = i
            wall, cpu, n, failure = self.request(i)
            after = self.probe()
            f = speed.factor(before, after)
            samples["wall"].append(wall)
            samples["cpu"].append(cpu)
            samples["ref_wall"].append(wall * f)
            samples["ref_cpu"].append(cpu * f)
            samples["probe"].append(after)
            before = after
            if time.perf_counter() - last_pair >= PAIR_INTERVAL_S:
                before = self.probe()
                samples["pair_after"].append(after)
                samples["pair_clean"].append(before)
                last_pair = time.perf_counter()
            certified += n
            self.attempted += 1
            if failure:
                self.failures[failure] += 1
            i += 1
        return samples, certified


def cpu_seconds(children):
    if children:
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime
    return time.process_time()


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def probe_check(samples):
    """What the requests leave behind that could move the probe (see speed.py)."""
    return {
        "probe_median_ms": statistics.median(samples["probe"]) * 1e3,
        "probe_pairs": len(samples["pair_clean"]),
        "probe_disturbance": speed.disturbance(samples["pair_after"], samples["pair_clean"]),
        "threads": thread_count(),
    }


def run_untraced(wl, args, ctx, probe):
    state = wl.setup(args.seed, ctx)
    loop = Loop(wl, state, probe)
    loop.request(0)  # warm-up: caches, lazy imports, page faults
    samples, certified = loop.run(args.seconds)
    # Read before the set-up children below, whose RSS would count for cli.
    rss = peak_rss_mb(wl.children)
    checked = probe_check(samples)
    # Each set-up runs in a fresh interpreter, so each pays the first-use costs.
    setups, ref_setups = [], []
    for _ in range(SETUP_REPS):
        before = probe()
        took = fresh_setup_s(args.workload, args.seed, ctx)
        setups.append(took)
        ref_setups.append(took * speed.factor(before, probe()))
    ref = samples["ref_wall"]
    tail, pct, beyond = stats.tail(ref)
    metrics = {
        "latency_p50_ms": statistics.median(ref) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "certified_per_s": certified / sum(ref),
        "cpu_ms_per_req": statistics.mean(samples["ref_cpu"]) * 1e3,
        "setup_s": statistics.median(ref_setups),
        "peak_rss_mb": rss,
    }
    detail = {
        "raw_latency_p50_ms": statistics.median(samples["wall"]) * 1e3,
        "raw_cpu_ms_per_req": statistics.mean(samples["cpu"]) * 1e3,
        "raw_setup_s": statistics.median(setups),
        **checked,
        "tail_percentile": pct,
        "tail_samples": len(ref),
        "tail_beyond": beyond,
        "samples": samples,
        "setup_samples_s": setups,
        "ref_setup_samples_s": ref_setups,
    }
    return loop, metrics, END_TO_END, detail


def run_traced(wl, args, ctx, probe):
    tr = tracing.Tracer()
    tr.request = "setup"
    with tr:
        state = wl.setup(args.seed, ctx)
    ctx.in_process = True  # the trace sees cli.main only when it runs in this process
    loop = Loop(wl, state, probe)
    loop.request(0)
    untraced, _ = loop.run(args.seconds / 2)
    with tr:
        traced, certified = loop.run(args.seconds / 2, tracer=tr)
    import_s = 0.0
    if "cli.import_s" in wl.predicted:
        import_s = statistics.median(
            fresh_import_s(ctx.child_env, "singpencil.cli") for _ in range(IMPORT_REPS)
        )
    metrics = tracing.layer_metrics(
        tr.spans,
        walls=dict(enumerate(traced["wall"])),
        lambdas=certified if wl.lambda_results else 0,
        import_s=import_s,
        overhead=statistics.median(traced["ref_wall"]) / statistics.median(untraced["ref_wall"]),
    )
    tracing.check_predicted(metrics, wl.predicted)
    tr.dump(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    detail = {
        **probe_check(traced),
        "traced_samples": traced,
        "untraced_samples": untraced,
    }
    return loop, metrics, tracing.PER_LAYER, detail


def run_one(args):
    # One CPU for the requests, their child processes and the speed probe, so
    # the probe measures the core the work ran on (see speed.py).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}"
    workdir.mkdir(exist_ok=True)
    child_env = dict(os.environ, PYTHONPATH=str(SRC))
    ctx = workloads.Context(workdir=str(workdir), child_env=child_env)
    wl = workloads.WORKLOADS[args.workload]
    runner = run_traced if args.trace else run_untraced
    try:
        loop, metrics, spec, detail = runner(wl, args, ctx, speed.SpeedProbe())
    except workloads.SetupError as exc:
        print(f"error: set-up check failed: {exc}", file=sys.stderr)
        return 1

    env = environment(args)
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, unit in spec:
        line = f"  {name:<30} {metrics[name]:>14.6g} {unit}"
        if name == "latency_tail_ms":
            line += (
                f"  (p{detail['tail_percentile']:.1f} of {detail['tail_samples']} samples,"
                f" {detail['tail_beyond']} beyond)"
            )
        print(line)
    print(
        f"  host speed: probe median {detail['probe_median_ms']:.2f} ms"
        f" (reference {speed.REF_S * 1e3:g} ms); times above are at the reference speed"
    )
    if "raw_latency_p50_ms" in detail:
        print(
            f"  raw: latency p50 {detail['raw_latency_p50_ms']:.6g} ms,"
            f" cpu {detail['raw_cpu_ms_per_req']:.6g} ms/req, setup {detail['raw_setup_s']:.6g} s"
        )
    # Only a slowed probe hides work: it shrinks the scaled request times.
    disturbed = detail["probe_disturbance"] > 1.0 + speed.DISTURBANCE_TOLERANCE
    print(
        f"  probe check: after-request / after-probe {detail['probe_disturbance']:.4f}"
        f" (tolerance {speed.DISTURBANCE_TOLERANCE}), {detail['threads']} thread(s) after the loop"
    )
    if disturbed or detail["threads"] > 1:
        print(
            "warning: the program may move the speed probe; compare the raw figures",
            file=sys.stderr,
        )
    error_rate = sum(loop.failures.values()) / loop.attempted
    print(
        f"  {'error_rate':<30} {error_rate:>14.6g} ratio"
        f"  ({sum(loop.failures.values())} failed of {loop.attempted} attempted)"
    )
    print("  failures by check: " + (json.dumps(dict(loop.failures)) if loop.failures else "none"))
    record = {
        "environment": env,
        "metrics": metrics,
        "error_rate": error_rate,
        "failures": dict(loop.failures),
        **detail,
    }
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": sum(loop.failures.values()),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))  # the report without its JSON line; out/ keeps the record
        status = status or proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "singpencil" / "__init__.py").is_file():
        print(f"error: no singpencil sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""Repeat the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --seeds 1-10 [--trace] [--output perfbench/baseline.json]

Every workload of ``BENCHMARK.json`` runs once per seed, for its
``run_seconds``.  For every workload and end-to-end metric it prints the
median of the per-run values and their spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.
Each run's raw (unscaled) times and probe check are kept beside its
metrics.  With ``--trace`` it also makes one traced run per workload
(first seed) and keeps its per-layer breakdown.  ``--output`` writes
everything as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
# Per-run figures from run.py's record that are not metrics but show what
# the probe scaling did: raw times and the probe check.
RUN_DETAIL = (
    "raw_latency_p50_ms",
    "raw_cpu_ms_per_req",
    "raw_setup_s",
    "probe_median_ms",
    "probe_pairs",
    "probe_disturbance",
    "threads",
    "tail_percentile",
    "tail_samples",
)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(int(trace))]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    result = dict(json.loads(proc.stdout.splitlines()[-1]), run_wall_s=time.perf_counter() - t0)
    record = json.loads((HERE / "out" / f"result-{workload}-{seed}-trace{int(trace)}.json").read_text())
    result["detail"] = {k: record[k] for k in RUN_DETAIL if k in record}
    return result, record["environment"]


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--output")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"seeds": args.seeds, "seconds": seconds, "workloads": {}}
    worst = (0.0, None)
    for name in (w["name"] for w in spec["workloads"]):
        runs, envs = zip(*(run(name, seed, seconds, False) for seed in args.seeds))
        entry = {"environment": envs[0], "runs": list(runs), "end_to_end": {}}
        disturbance = [r["detail"]["probe_disturbance"] for r in runs]
        print(f"{name}: {sum(r['attempted'] for r in runs)} requests, "
              f"{sum(r['failed'] for r in runs)} failed, "
              f"correct in {sum(r['correct'] for r in runs)}/{len(runs)} runs, "
              f"{statistics.mean(r['run_wall_s'] for r in runs):.1f} s per run, "
              f"probe disturbance {min(disturbance):.4f}-{max(disturbance):.4f}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            spread = stats.relative_iqr(values)
            unit = runs[0]["metrics"][metric]["unit"]
            flag = "" if spread < bound / 3 else "  <-- not below a third of the bound"
            worst = max(worst, (spread / bound, f"{name} {metric}"))
            print(f"  {metric:<18} median {statistics.median(values):>12.6g} {unit:<5}"
                  f" spread {spread:7.4f}  bound {bound}{flag}")
            entry["end_to_end"][metric] = {
                "unit": unit,
                "median": statistics.median(values),
                "spread": spread,
                "bound": bound,
                "values": values,
            }
        if args.trace:
            traced, _ = run(name, args.seeds[0], seconds, True)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["traced_detail"] = traced["detail"]
        record["workloads"][name] = entry
    print(f"largest spread as a share of its bound: {worst[0]:.3f} ({worst[1]})")
    if args.output:
        Path(args.output).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

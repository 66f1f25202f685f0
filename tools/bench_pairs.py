"""Compare two checkouts on one benchmark workload and write a ``BENCH_*.json``.

Usage, from anywhere::

    python3 tools/bench_pairs.py --workload double-eig --parent ../parent --change . \\
        --seeds 11-20 --trace-seed 1 --log pairs.txt --out BENCH_double-eig.json

For every seed it runs ``perfbench/run.py --workload W --seed S --seconds 22``
in the parent checkout and in the change checkout, one after the other;
odd seeds run the parent first and even seeds the change first, so a
drift of the host's speed does not favour one side.  Each run's JSON
line is appended to the ``--log`` file as ``<side> <seed> <json>``; runs
already in the log are not repeated, so an interrupted comparison
resumes where it stopped.

The output records, per end-to-end metric, each side's median and
quartiles (``statistics.quantiles(n=4)``, the definition of
``perfbench/stats.py``), every run, and the number of pairs the change
wins.  With ``--trace-seed`` one ``--trace 1`` run per side adds the
per-layer metrics.  The comparison rule is the benchmark's: a gain needs
wins in at least 9 of 10 pairs and a median difference larger than the
parent's interquartile range.

``commits`` holds each side's git commit, or null when the checkout is
not a git tree or has uncommitted changes under ``src/``.  So that a
record always says which code it measured, ``src_sha256`` holds, per
side, a sha256 over the sorted relative paths and bytes of the
checkout's ``src/**/*.py`` files (``__pycache__`` skipped); two
checkouts with equal source get equal digests.

Cached bytecode (``src/**/__pycache__/*.pyc``) spares a run the
compilation of the package, which shows in ``setup_s`` and in every
fresh process of the ``cli`` workload.  So the comparison stops before
any run when exactly one checkout holds such a file, and names it;
``bytecode`` records, per side, how many there were at the start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
SECONDS = 22


def run_bench(checkout, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_head(checkout):
    """Commit of ``checkout``, or None outside git or with uncommitted changes."""
    try:
        head = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", checkout, "status", "--porcelain", "--", "src"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return None if dirty else head


def src_sha256(checkout):
    """sha256 over the sorted relative paths and bytes of ``src/**/*.py`` in ``checkout``."""
    root = Path(checkout, "src")
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*.py") if "__pycache__" not in p.parts):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def bytecode(checkout):
    """The ``src/**/__pycache__/*.pyc`` files of ``checkout``, as sorted relative paths."""
    root = Path(checkout)
    return sorted(p.relative_to(root).as_posix() for p in root.glob("src/**/__pycache__/*.pyc"))


def read_log(path):
    runs = {}
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                side, seed, doc = line.split(" ", 2)
                runs[side, int(seed)] = json.loads(doc)
    return runs


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def compare(runs, seeds, better):
    out = {}
    for name, spec in runs["parent", seeds[0]]["metrics"].items():
        per = {side: [runs[side, s]["metrics"][name]["value"] for s in seeds] for side in SIDES}
        lower = better[name] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(per["parent"], per["change"]))
        par, chg = summary(per["parent"]), summary(per["change"])
        out[name] = {
            "unit": spec["unit"],
            "better": better[name],
            "parent": par,
            "change": chg,
            "change_wins": wins,
            "pairs": len(seeds),
            "median_change": chg["median"] / par["median"] - 1.0,
            "parent_iqr": par["q3"] - par["q1"],
        }
    return out


def seed_range(text):
    """The seeds of ``first-last`` (inclusive); the quartiles need at least two."""
    try:
        first, last = (int(x) for x in text.split("-"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected first-last, got {text!r}") from None
    if last <= first:
        raise argparse.ArgumentTypeError(f"{text!r} names fewer than two seeds")
    return list(range(first, last + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--seeds", type=seed_range, default="11-20",
                        help="first-last, inclusive, at least two seeds")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--log", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seeds = args.seeds
    checkouts = {"parent": args.parent, "change": args.change}
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    cached = {side: bytecode(checkouts[side]) for side in SIDES}
    lone = [side for side in SIDES if cached[side]]
    if len(lone) == 1:
        side = lone[0]
        raise SystemExit(f"{os.path.join(checkouts[side], cached[side][0])}: the {side} checkout"
                         " holds cached bytecode and the other does not; remove it or give both")

    runs = read_log(args.log)
    for seed in seeds:
        for side in SIDES if seed % 2 else SIDES[::-1]:
            if (side, seed) not in runs:
                runs[side, seed] = run_bench(checkouts[side], args.workload, seed, 0)
                with open(args.log, "a") as f:
                    f.write(f"{side} {seed} {json.dumps(runs[side, seed])}\n")

    doc = {
        "workload": args.workload,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed S"
        f" --seconds {SECONDS} --trace 0",
        "seeds": seeds,
        "order": "odd seeds run the parent first, even seeds the change first",
        "commits": {side: git_head(checkouts[side]) for side in SIDES},
        "src_sha256": {side: src_sha256(checkouts[side]) for side in SIDES},
        "bytecode": {side: len(cached[side]) for side in SIDES},
        "host": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "failed": {
            side: {
                "failed": sum(runs[side, s]["failed"] for s in seeds),
                "attempted": sum(runs[side, s]["attempted"] for s in seeds),
            }
            for side in SIDES
        },
        "end_to_end": compare(runs, seeds, better),
    }
    if args.trace_seed is not None:
        traced = {side: run_bench(checkouts[side], args.workload, args.trace_seed, 1)
                  for side in SIDES}
        doc["per_layer"] = {
            "seed": args.trace_seed,
            "command": f"python3 perfbench/run.py --workload {args.workload}"
            f" --seed {args.trace_seed} --seconds {SECONDS} --trace 1",
            "metrics": {
                name: {"unit": spec["unit"]}
                | {side: traced[side]["metrics"][name]["value"] for side in SIDES}
                for name, spec in traced["parent"]["metrics"].items()
            },
        }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for name, m in doc["end_to_end"].items():
        print(
            f"{name:<18} parent {m['parent']['median']:10.4g}"
            f"  change {m['change']['median']:10.4g}  ({m['median_change']:+.1%},"
            f" wins {m['change_wins']}/{m['pairs']}, parent IQR {m['parent_iqr']:.3g})"
        )


if __name__ == "__main__":
    main()

"""Tests for ``tools/bench_pairs.py``: the seed range, the source digest that names
the code a record measured, and the check that both sides start with or without
cached bytecode."""

import importlib.util
import json
import os
import shutil

import pytest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools", "bench_pairs.py")


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root):
    pkg = root / "src" / "pkg"
    (pkg / "__pycache__").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "core.py").write_text("X = 1\n")
    (pkg / "notes.txt").write_text("not source\n")
    return root


def test_src_digest_names_the_source(bench_pairs, tmp_path):
    one = _tree(tmp_path / "one")
    two = tmp_path / "two"
    shutil.copytree(one, two)
    assert bench_pairs.src_sha256(one) == bench_pairs.src_sha256(two)
    # caches and non-source files do not count
    (two / "src" / "pkg" / "__pycache__" / "core.py").write_text("stale\n")
    (two / "src" / "pkg" / "notes.txt").write_text("edited\n")
    assert bench_pairs.src_sha256(one) == bench_pairs.src_sha256(two)
    # a one-byte change under src/ does
    (two / "src" / "pkg" / "core.py").write_text("X = 2\n")
    assert bench_pairs.src_sha256(one) != bench_pairs.src_sha256(two)


@pytest.mark.parametrize("seeds", ["11-11", "12-11", "11", "a-b"])
def test_seed_range_is_checked_before_any_run(bench_pairs, tmp_path, monkeypatch, seeds):
    # the quartiles of the summary need two runs per side
    def no_run(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pairs, "run_bench", no_run)
    argv = ["--workload", "cli", "--parent", str(tmp_path), "--change", str(tmp_path),
            "--seeds", seeds, "--log", str(tmp_path / "log"), "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert not (tmp_path / "log").exists()


def test_seed_range(bench_pairs):
    assert bench_pairs.seed_range("11-20") == list(range(11, 21))
    assert bench_pairs.seed_range("3-4") == [3, 4]


def _pair(tmp_path, pyc_sides):
    """Parent and change trees with a BENCHMARK.json, a .pyc in each of ``pyc_sides``, and argv."""
    trees = {side: _tree(tmp_path / side) for side in ("parent", "change")}
    bench = {"end_to_end": [{"name": "latency_p50_ms", "better": "lower"}]}
    for side, tree in trees.items():
        (tree / "BENCHMARK.json").write_text(json.dumps(bench))
        if side in pyc_sides:
            (tree / "src" / "pkg" / "__pycache__" / "core.cpython-311.pyc").write_bytes(b"")
    argv = ["--workload", "cli", "--parent", str(trees["parent"]), "--change", str(trees["change"]),
            "--seeds", "11-12", "--log", str(tmp_path / "log"), "--out", str(tmp_path / "out")]
    return trees, argv


@pytest.mark.parametrize("side", ["parent", "change"])
def test_bytecode_on_one_side_stops_before_any_run(bench_pairs, tmp_path, monkeypatch, side):
    # a cache on one side alone spares only that side the compilation of src/
    def no_run(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pairs, "run_bench", no_run)
    trees, argv = _pair(tmp_path, {side})
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert str(trees[side] / "src" / "pkg" / "__pycache__" / "core.cpython-311.pyc") in str(exc.value)
    assert not (tmp_path / "log").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("pyc_sides,count", [(set(), 0), ({"parent", "change"}, 1)])
def test_bytecode_is_recorded_when_both_sides_agree(bench_pairs, tmp_path, monkeypatch,
                                                      pyc_sides, count):
    def fake_run(checkout, workload, seed, trace):
        value = float(seed) if checkout.endswith("parent") else seed - 0.5
        return {"metrics": {"latency_p50_ms": {"value": value, "unit": "ms"}},
                "failed": 0, "attempted": 1}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    _, argv = _pair(tmp_path, pyc_sides)
    bench_pairs.main(argv)
    doc = json.loads((tmp_path / "out").read_text())
    assert doc["bytecode"] == {"parent": count, "change": count}
    assert doc["end_to_end"]["latency_p50_ms"]["change_wins"] == 2

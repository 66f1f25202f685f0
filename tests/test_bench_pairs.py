"""Tests for ``tools/bench_pairs.py``: the seed range, and the source digest that names
the code a record measured."""

import importlib.util
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

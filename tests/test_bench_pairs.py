"""Tests for ``tools/bench_pairs.py``: the source digest that names the code a record measured."""

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

"""Shared helpers for the test suite."""

import os
import subprocess
import sys

import numpy as np

import singpencil
from singpencil import chordal_distance
from singpencil.kcf_gen import Jordan, KcfSpec, LeftSingular, Nilpotent, RightSingular


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def run_python(code, cwd, timeout=60):
    """Run ``code`` in a fresh interpreter that imports this singpencil.

    A child process turns a hang or a crash inside a dependency into a
    failed test instead of a stuck or killed test run.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(singpencil.__file__)))
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def greedy_chordal_match(xs, ys):
    """Greedy nearest pairing of two eigenvalue lists in the chordal metric."""
    d = np.array([[chordal_distance(a, b) for b in ys] for a in xs], dtype=float)
    pairs = []
    for _ in range(min(len(xs), len(ys))):
        i, j = np.unravel_index(np.argmin(d), d.shape)
        pairs.append((xs[i], ys[j], float(d[i, j])))
        d[i, :] = np.inf
        d[:, j] = np.inf
    return pairs


def assert_multiset_close(got, expected, rtol=1e-8, atol=1e-8):
    """Match two complex multisets greedily and bound the matched distances."""
    assert len(got) == len(expected), f"sizes differ: {len(got)} vs {len(expected)}"
    pairs = greedy_chordal_match(list(got), list(expected))
    for a, b, _ in pairs:
        a = complex(a)
        b = complex(b)
        assert abs(a - b) <= atol + rtol * max(abs(a), abs(b)), f"{a} vs {b}"


def random_singular_spec(rng, max_size=40, transform="unitary", cond_bound=1e3):
    """A random KCF spec with simple, well-separated finite eigenvalues.

    Always includes at least one singular block pair and stays within
    ``max_size``; suitable for exact count/recovery property tests.
    """
    while True:
        n_j = int(rng.integers(0, 5))
        lams = []
        while len(lams) < n_j:
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if all(abs(z - w) > 0.05 for w in lams):
                lams.append(z)
        blocks = [Jordan(1, z) for z in lams]
        blocks += [Nilpotent(int(rng.integers(1, 3))) for _ in range(int(rng.integers(0, 3)))]
        n_pairs = int(rng.integers(1, 4))
        blocks += [RightSingular(int(rng.integers(0, 4))) for _ in range(n_pairs)]
        blocks += [LeftSingular(int(rng.integers(0, 4))) for _ in range(n_pairs)]
        spec = KcfSpec(tuple(blocks), transform=transform, cond_bound=cond_bound)
        size = sum(b.size for b in blocks if isinstance(b, (Jordan, Nilpotent)))
        size += sum(b.index for b in blocks if isinstance(b, (RightSingular, LeftSingular)))
        size += n_pairs  # each singular pair adds one row and one column beyond its indices
        # blocks made only of size-1 nilpotents and index-0 singular pairs
        # assemble a zero B matrix, which the solver rejects by design
        b_nonzero = any(isinstance(b, Jordan) for b in blocks)
        b_nonzero = b_nonzero or any(isinstance(b, Nilpotent) and b.size >= 2 for b in blocks)
        b_nonzero = b_nonzero or any(
            isinstance(b, (RightSingular, LeftSingular)) and b.index >= 1 for b in blocks
        )
        if size <= max_size and b_nonzero:
            return spec

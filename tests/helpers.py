"""Shared helpers for the test suite."""

import cmath
import math
import os
import subprocess
import sys

import numpy as np

import singpencil
from singpencil import NormalRankReport, greedy_match, scale
from singpencil.kcf_gen import Jordan, KcfSpec, LeftSingular, Nilpotent, RightSingular
from singpencil.matrix_core import _rank_tolerance
from singpencil.pencil import _stacks


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _python(code, env):
    """The argv and environment of a fresh interpreter that runs ``code`` on this singpencil."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(singpencil.__file__)))
    return [sys.executable, "-c", code], dict(os.environ, **(env or {}), PYTHONPATH=src)


def run_python(code, cwd, timeout=60, env=None):
    """Run ``code`` in a fresh interpreter that imports this singpencil.

    A child process turns a hang or a crash inside a dependency into a
    failed test instead of a stuck or killed test run, and gets the
    environment variables in ``env`` on top of this one's.
    """
    argv, env = _python(code, env)
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)


def start_python(code, cwd, env=None):
    """``run_python``'s child, started with piped stdout and stderr and not waited for."""
    argv, env = _python(code, env)
    return subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def result_fields(res):
    """Every field of a ``SolveResult`` in a form that compares bit for bit.

    Arrays become their dtype, shape and bytes (so -0.0 and NaN payloads
    count), everything else its ``repr``; the records and the
    perturbation are expanded field by field.
    """

    def raw(a):
        a = np.asarray(a)
        return a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes()

    e, spec = res.eig, res.spec_used
    return {
        "eig": [raw(a) for a in (e.alpha, e.beta, e.right, e.left)],
        "back_scale": repr(res.back_scale),
        "values": raw(res.values),
        "diagnostics": raw(res.diagnostics),
        "classes": raw(res.classes),
        "records": [
            (repr((r.value, r.s_abs, r.vx_norm, r.uy_norm, r.zeta, r.label)), raw(r.x), raw(r.y))
            for r in res.records
        ],
        "finite_true": repr([(r.value, r.label) for r in res.finite_true]),
        "finite_true_values": repr(res.finite_true_values),
        "nrank_report": repr(res.nrank_report),
        "spec_used": None if spec is None
        else (repr(spec.tau), [raw(a) for a in (spec.U, spec.V, spec.dA, spec.dB)]),
        "gap_report": repr(res.gap_report),
        "collision_warning": res.collision_warning,
    }


def unit_circle_normal_rank(p, rng, tol="auto"):
    """``normal_rank`` with every pencil probed on the unit circle, real ones included.

    The rule before real pencils were probed on [-1, 1]: the same draw u
    per probe gives zeta = exp(2 pi i u), and one complex SVD call covers
    the stack.  A reference that shows the probe points decide nothing
    but the rank.
    """
    if isinstance(p, singpencil.Pencil):
        return unit_circle_normal_rank([p], [rng], tol)[0]
    shape = p[0].shape
    A, B = _stacks([scale(q) if q.scale_alpha == q.scale_beta == 1.0 else q for q in p])
    zetas = np.array([[complex(np.exp(2j * np.pi * r.uniform())) for _ in range(2)] for r in rng])
    probes = zetas[:, :, None, None] * B[:, None]
    s = np.linalg.svd(np.subtract(A[:, None], probes, out=probes), compute_uv=False)
    cut = _rank_tolerance(s, shape, tol)
    nranks = (s > np.asarray(cut)[..., None]).sum(axis=-1).max(axis=-1).tolist()
    used = cut.max(axis=-1) if tol == "auto" else [cut] * len(p)
    return [
        NormalRankReport(nrank=r, k=max(shape) - r, zeta_samples=z, tol_used=t if t > 0.0 else 0.0)
        for r, z, t in zip(nranks, zetas.tolist(), used)
    ]


def chordal(z, w):
    """Chordal distance of two complex numbers (``inf`` allowed) on the Riemann sphere.

    The closed form |z - w| / (sqrt(1 + |z|^2) sqrt(1 + |w|^2)), and
    1 / sqrt(1 + |z|^2) from z to infinity.
    """
    z, w = complex(z), complex(w)
    if cmath.isinf(z) and cmath.isinf(w):
        return 0.0
    if cmath.isinf(z) or cmath.isinf(w):
        return 1.0 / math.hypot(1.0, abs(w if cmath.isinf(z) else z))
    return abs(z - w) / (math.hypot(1.0, abs(z)) * math.hypot(1.0, abs(w)))


def greedy_match_by(xs, ys, metric):
    """``greedy_match`` of two lists under ``metric(x, y)``, called once per pair."""
    d = np.array([[metric(a, b) for b in ys] for a in xs], dtype=float)
    return greedy_match(xs, ys, d.reshape(len(xs), len(ys)))


def greedy_chordal_match(xs, ys):
    """Greedy nearest pairing of two eigenvalue lists in the chordal metric."""
    return greedy_match_by(xs, ys, chordal)


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

"""Print one ``case sha256`` line per fixed singpencil output case.

Usage (no options)::

    python3 tools/output_digest.py

The case list is fixed.  CLI cases run ``singpencil.cli.main`` in
process on pencils written to a temporary directory: every subcommand in
table, csv and json format (``nrank`` and ``gen`` have no format), seeds
0 and 1, and the flags ``--retries 0/1``, ``--tol``, ``--delta1``,
``--delta2``, ``--tau``, ``--delta``, ``--no-refine`` and
``--unique-lambda``, and the ``doubleeig`` table and json of the 3 x 3
pencil ``(diag(1e150, 1, 2), diag(1, 1e-150, 1))``, which carry the
count warning.  Library cases digest the exact ``repr`` of
``solve`` records (eigenvectors by their bytes), gap reports, rank
reports and perturbations, forced-collision retries,
``solve_by_intersection``, ``double_eig`` with and without refine (also
on a random real 8 x 8 pair, the benchmark's size, and on two
semisimple-crossing pairs, where the halves of the linearization are not
certified and the full one is solved) and
``solve_2ep`` (on the bivariate cubic and on the benchmark's
double-eigenvalue 2EP, whose mu pencils are 6 x 6 and 18 x 18, in both
``unique_lambda`` modes, also with equation 1 times 1j, a complex
problem whose lambdas are not paired with their conjugates).  The
``twoparam`` CLI cases run on the written cubic and, once, on the
written double-eigenvalue 2EP of seed 1.

The package is imported from the ``src`` directory next to this file, so
running the script of two checkouts and diffing the output compares
their results line for line::

    diff <(python3 old/tools/output_digest.py) <(python3 new/tools/output_digest.py)
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from singpencil import (  # noqa: E402
    Pencil,
    SolveOptions,
    TwoParamProblem,
    double_eig,
    scale,
    solve,
    solve_2ep,
    solve_by_intersection,
    squarify,
    write_pencil,
    write_problem,
)
from singpencil.cli import main  # noqa: E402
from singpencil.gallery import (  # noqa: E402
    bivariate_cubic_system,
    control_benchmark_pencil,
    diagonal_demo_pencil,
    double_eig_problem,
    showcase_pencil,
    staircase_sensitive_pencil,
)
from singpencil.kcf_gen import (  # noqa: E402
    Jordan,
    KcfSpec,
    LeftSingular,
    Nilpotent,
    RightSingular,
    build,
    spec_to_json,
)

SEEDS = (0, 1)
FORMATS = ("table", "csv", "json")
SOLVE_FLAGS = (
    (),
    ("--retries", "0"),
    ("--retries", "1"),
    ("--tol", "1e-10"),
    ("--delta1", "1e-6"),
    ("--delta2", "1e-10"),
    ("--tau", "0.1"),
)
INTERSECT_FLAGS = ((), ("--delta", "1e-6"), ("--tau", "0.1"), ("--tol", "1e-10"))
DOUBLEEIG_FLAGS = ((), ("--no-refine",), ("--tau", "0.1"))
TWOPARAM_FLAGS = ((), ("--delta", "1e-6"), ("--unique-lambda",), ("--retries", "0"))
# the benchmark's twoparam 2EP; seed 13 misses its lambda gate on some requests
DOUBLE_EIG_2EP_SEEDS = (1, 2, 13)
COMPLEX_2EP_SEEDS = (1, 2)


def _kcf(blocks, seed, transform="unitary"):
    return build(KcfSpec(tuple(blocks), transform=transform), np.random.default_rng(seed))[0]


def _random(rows, cols, seed):
    rng = np.random.default_rng(seed)
    return Pencil(
        A=rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)),
        B=rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)),
    )


def pencils():
    """The named pencils of the solve, nrank and intersect cases."""
    mixed = (Jordan(1, 0.7), Jordan(1, -1.2), Nilpotent(2), RightSingular(2), LeftSingular(1))
    return {
        "showcase": showcase_pencil(),
        "diagonal": diagonal_demo_pencil(),
        "control": control_benchmark_pencil(),
        "staircase": staircase_sensitive_pencil(),
        "regular5": _random(5, 5, 3),
        "inf_only": Pencil(A=np.eye(4), B=np.zeros((4, 4))),
        "zero_only": Pencil(A=np.zeros((4, 4)), B=np.eye(4)),
        "zero": Pencil(A=np.zeros((4, 4)), B=np.zeros((4, 4))),
        "three_by_zero": Pencil(A=np.zeros((3, 0)), B=np.zeros((3, 0))),
        "rect3x5": _random(3, 5, 4),
        "rect5x3": _random(5, 3, 5),
        "kcf_mixed": _kcf(mixed, 5),
        "kcf_general": _kcf(mixed + (Jordan(2, 0.3),), 6, transform="general"),
        "kcf_larger": _kcf(
            [Jordan(1, complex(0.1 * i, -0.2 * i)) for i in range(1, 9)]
            + [Nilpotent(2)] * 3 + [RightSingular(2)] * 3 + [LeftSingular(2)] * 3,
            7,
        ),
    }


def double_eig_pencils():
    """The square pencils (A, B) of the doubleeig and double_eig cases."""
    real = [np.random.default_rng(seed).standard_normal((4, 4)) for seed in (13, 14)]
    return {"rand2": _random(2, 2, 11), "rand3": _random(3, 3, 12), "real4": Pencil(*real)}


def semisimple_pencils():
    """diag(1, 2, 3), diag(0, 1, 3) and a similar pair: double_eig solves the full linearization."""
    A, B = np.diag([1.0, 2.0, 3.0]), np.diag([0.0, 1.0, 3.0])
    S = np.random.default_rng(0).standard_normal((3, 3))
    return {"semisimple": Pencil(A, B),
            "semisimple_similar": Pencil(S @ A @ np.linalg.inv(S), S @ B @ np.linalg.inv(S))}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _arrays(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _cli(argv, tmp):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}".replace(tmp, "<tmp>")


def _solve_text(res):
    lines = [
        repr((r.value, r.s_abs, r.vx_norm, r.uy_norm, r.zeta, r.label, _arrays(r.x, r.y)))
        for r in res.records
    ]
    lines.append(repr([(r.value, r.label) for r in res.finite_true]))
    lines.append(repr(res.nrank_report))
    lines.append(repr(res.gap_report))
    lines.append(repr(res.collision_warning))
    spec = res.spec_used
    if spec is not None:
        lines.append(repr(spec.tau) + _arrays(spec.U, spec.V, spec.dA, spec.dB))
    return "\n".join(lines)


def cli_cases(tmp):
    files = {}
    for name, p in pencils().items():
        files[name] = tuple(os.path.join(tmp, f"{name}_{m}.mtx") for m in "AB")
        write_pencil(p, *files[name])
    for name, p in double_eig_pencils().items():
        files["de_" + name] = tuple(os.path.join(tmp, f"de_{name}_{m}.mtx") for m in "AB")
        write_pencil(p, *files["de_" + name])
    manifest = write_problem(bivariate_cubic_system()[0], os.path.join(tmp, "cubic"))
    manifest_2ep = write_problem(double_eig_problem(1), os.path.join(tmp, "double_eig_2ep"))
    spec_path = os.path.join(tmp, "spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec_to_json(KcfSpec((Jordan(1, 0.5), Nilpotent(2), RightSingular(1),
                                        LeftSingular(2)))), f)

    for seed in SEEDS:
        s = ("--seed", str(seed))
        for name in pencils():
            a, b = files[name]
            for tol in ((), ("--tol", "1e-10")):
                yield f"nrank/{name}/{seed}/{'_'.join(tol) or 'default'}", ("nrank", a, b) + s + tol
            for fmt in FORMATS:
                for flags in SOLVE_FLAGS:
                    yield (f"solve/{name}/{seed}/{fmt}/{'_'.join(flags) or 'default'}",
                           ("solve", a, b, "--format", fmt) + s + flags)
                for flags in INTERSECT_FLAGS:
                    yield (f"intersect/{name}/{seed}/{fmt}/{'_'.join(flags) or 'default'}",
                           ("intersect", a, b, "--format", fmt) + s + flags)
        for name in double_eig_pencils():
            a, b = files["de_" + name]
            for fmt in FORMATS:
                for flags in DOUBLEEIG_FLAGS:
                    yield (f"doubleeig/{name}/{seed}/{fmt}/{'_'.join(flags) or 'default'}",
                           ("doubleeig", a, b, "--format", fmt) + s + flags)
        for fmt in FORMATS:
            for flags in TWOPARAM_FLAGS:
                yield (f"twoparam/cubic/{seed}/{fmt}/{'_'.join(flags) or 'default'}",
                       ("twoparam", manifest, "--format", fmt) + s + flags)
        yield f"gen/{seed}", ("gen", spec_path, "-o", os.path.join(tmp, f"gen{seed}")) + s
    yield ("twoparam/double_eig_2ep/1/table/default",
           ("twoparam", manifest_2ep, "--format", "table", "--seed", "1"))
    # more lambdas than n(n-1) = 6: the table ends with the count warning, the json has it true
    overflow = tuple(os.path.join(tmp, f"overflow_{m}.mtx") for m in "AB")
    write_pencil(Pencil(A=np.diag([1e150, 1.0, 2.0]), B=np.diag([1.0, 1e-150, 1.0])), *overflow)
    for fmt in ("table", "json"):
        yield (f"doubleeig/overflow/1/{fmt}/default",
               ("doubleeig", *overflow, "--format", fmt, "--seed", "1"))


def library_cases():
    for name, p in pencils().items():
        for seed in SEEDS:
            yield f"lib/solve/{name}/{seed}", lambda p=p, seed=seed: _solve_text(
                solve(p, SolveOptions(seed=seed)))
            yield f"lib/intersect/{name}/{seed}", lambda p=p, seed=seed: repr(
                solve_by_intersection(p, SolveOptions(seed=seed)))
    p = showcase_pencil()
    gamma_true = (1 / 3) / scale(squarify(p)).back_factor
    for retries in (1, 2, 3):
        yield f"lib/collision/showcase/retries{retries}", lambda retries=retries: _solve_text(
            solve(p, SolveOptions(seed=0, gamma=([gamma_true], [1.0]), max_retries=retries)))
    rng = np.random.default_rng(1)  # the benchmark's size: certified halves of order 64
    real8 = Pencil(rng.standard_normal((8, 8)), rng.standard_normal((8, 8)))
    for name, p in {**double_eig_pencils(), "real8": real8, **semisimple_pencils()}.items():
        for refine in (True, False):
            def run(p=p, refine=refine):
                res = double_eig(p.A, p.B, opts=SolveOptions(seed=1), refine=refine)
                return "\n".join([repr(res.lambdas), repr(res.gaps), _solve_text(res.solve_result)])
            yield f"lib/double_eig/{name}/refine{int(refine)}", run
    problem = bivariate_cubic_system()[0]
    for seed in SEEDS:
        for unique in (False, True):
            yield f"lib/solve_2ep/cubic/{seed}/unique{int(unique)}", (
                lambda seed=seed, unique=unique: repr(
                    solve_2ep(problem, opts=SolveOptions(seed=seed), unique_lambda=unique)))
    for seed in DOUBLE_EIG_2EP_SEEDS:
        yield f"lib/solve_2ep/double_eig_2ep/{seed}", lambda seed=seed: repr(solve_2ep(
            double_eig_problem(seed), opts=SolveOptions(seed=seed), unique_lambda=True))
    for seed in DOUBLE_EIG_2EP_SEEDS:
        yield f"lib/solve_2ep/double_eig_2ep/{seed}/unique0", lambda seed=seed: repr(solve_2ep(
            double_eig_problem(seed), opts=SolveOptions(seed=seed)))
    for seed in COMPLEX_2EP_SEEDS:
        yield f"lib/solve_2ep/double_eig_2ep_complex/{seed}", lambda seed=seed: repr(solve_2ep(
            _times_1j_in_equation_1(double_eig_problem(seed)), opts=SolveOptions(seed=seed),
            unique_lambda=True))


def _times_1j_in_equation_1(p):
    """The 2EP ``p`` with equation 1 multiplied by 1j: the same solutions, complex matrices."""
    return TwoParamProblem(1j * p.A1, 1j * p.B1, 1j * p.C1, p.A2, p.B2, p.C2)


def main_digest():
    with tempfile.TemporaryDirectory() as tmp:
        for case, argv in cli_cases(tmp):
            text = _cli(argv, tmp)
            if argv[0] == "gen":
                outdir = argv[argv.index("-o") + 1]
                for fname in ("A.mtx", "B.mtx", "ground_truth.json"):
                    with open(os.path.join(outdir, fname)) as f:
                        text += f.read()
            print(case, _sha(text))
    for case, make in library_cases():
        print(case, _sha(make()))


if __name__ == "__main__":
    main_digest()

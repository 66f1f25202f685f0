"""Command line front end.

Subcommands
-----------
solve      classify the spectrum of a pencil given as two Matrix Market files
nrank      report the estimated normal rank and rank defect
gen        synthesize a test pencil from a JSON Kronecker block spec
twoparam   solve a two-parameter eigenvalue problem given by a JSON manifest
doubleeig  find all lambda where A + lambda B has a double eigenvalue
intersect  the historical two-perturbation intersection baseline

All randomness is controlled by ``--seed`` (falling back to the
``SINGPENCIL_SEED`` environment variable, then to 0), so every command
is byte-reproducible for a fixed seed.

``--format`` selects one of three writers, shared by every subcommand:

table  6 significant digits; an infinite value reads ``inf``
csv    full-precision floats (``repr``); a complex value fills the two
       fields ``<name>_re`` and ``<name>_im``
json   full-precision floats; a complex value is ``{"re": .., "im": ..}``
       (flat ``solve`` records split it like csv) and a non-finite
       number is ``null`` (both parts of a complex one)

Exit codes: 0 success, 2 argument or input-file errors (and a QZ that
needs the missing ``zggev`` fallback), 3 numerical failure inside a solver.

``main(argv, out=None, err=None)`` is the in-process entry point: it
runs one command line and returns the exit status without exiting.  The
parsed arguments are the invocation's only configuration; each
subcommand's handler reads them, and ``_solve_options`` turns them into
the ``SolveOptions`` every solver takes.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .matrix_core import NumericalError
from .pencil import _read_json, normal_rank, read_pencil, write_pencil
from .solver import SolveOptions, solve, solve_by_intersection

__all__ = ["main", "entry"]


def _text(x):
    """Table text of one value: 6 significant digits, a list as its comma-separated items."""
    if isinstance(x, list):
        return ", ".join(map(_text, x))
    if not isinstance(x, complex):
        return f"{x:.6g}" if isinstance(x, float) else str(x)
    # chop imaginary roundoff dust on real eigenvalues
    if abs(x.imag) <= 1e-10 * max(1.0, abs(x.real)):
        return _text(x.real)
    return f"{x.real:.6g}{'+' if x.imag >= 0 else '-'}{abs(x.imag):.6g}j"


def _jsonable(x):
    """``x`` with complex as {"re", "im"} and non-finite numbers (complex: both parts) as None."""
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_jsonable(v) for v in x]
    if isinstance(x, complex):
        finite = cmath.isfinite(x)
        return {"re": x.real if finite else None, "im": x.imag if finite else None}
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _csv_field(x):
    if isinstance(x, complex):
        return f"{float(x.real)!r},{float(x.imag)!r}"
    if isinstance(x, float):
        return repr(float(x))
    return str(int(x) if isinstance(x, bool) else x)


def csv_text(header, rows) -> str:
    """CSV text of ``rows`` under the field names ``header``, in full precision.

    A float is written as ``repr(float(x))``, a bool as 0 or 1, and a
    complex number fills two fields, its real and imaginary parts.
    """
    return "".join(",".join(line) + "\n" for line in [header, *(map(_csv_field, r) for r in rows)])


def _record(columns, row):
    """One row as a flat JSON object; a complex cell fills its two fields."""
    rec = {}
    for (fields, _, _), x in zip(columns, row):
        v = _jsonable(x)
        rec.update(zip(fields.split(), v.values() if isinstance(v, dict) else (v,)))
    return rec


def _emit(fmt, out, columns, rows, footer, doc):
    """Write one result as a table, as csv or as the JSON document ``doc()``.

    Each column is (csv fields, table title, table width): a complex cell
    fills two fields, and a column without a title is left out of the
    table.  ``footer`` holds the table's closing lines as (template, *values).
    ``doc`` is called for json output only, so the other formats skip it.
    """
    if fmt == "table":
        shown = [(i, title, width) for i, (_, title, width) in enumerate(columns) if title]
        lines = [[t for _, t, _ in shown]] + [[_text(r[i]) for i, _, _ in shown] for r in rows]
        for line in lines:
            out.write("  ".join(t.rjust(w) for t, (_, _, w) in zip(line, shown)) + "\n")
        for template, *values in footer:
            out.write(template.format(*map(_text, values)) + "\n")
    elif fmt == "csv":
        out.write(csv_text([f for fields, _, _ in columns for f in fields.split()], rows))
    else:
        json.dump(_jsonable(doc()), out, indent=2, sort_keys=True, allow_nan=False)
        out.write("\n")


_SOLVE_COLUMNS = (
    ("index", "k", 3),
    ("lambda_re lambda_im", "lambda", 24),
    ("infinite", None, 0),
    ("s_abs", "|s|", 12),
    ("vx_norm", "||V*x||", 12),
    ("uy_norm", "||U*y||", 12),
    ("zeta", None, 0),
    ("class", "class", 0),
)


def _cmd_solve(args, opts, out):
    result = solve(read_pencil(args.matrix_a, args.matrix_b), opts)
    rows = [
        (i, r.value, r.is_infinite, r.s_abs, r.vx_norm, r.uy_norm, r.zeta, r.label.value)
        for i, r in enumerate(result.records, 1)
    ]
    footer = [("finite true eigenvalues: [{}]", result.finite_true_values)]
    if result.collision_warning:
        footer.append(("warning: prescribed/true eigenvalue collision persisted after retries",))
    _emit(args.fmt, out, _SOLVE_COLUMNS, rows, footer, lambda: {
        "nrank": result.nrank_report.nrank,
        "k": result.nrank_report.k,
        "records": [_record(_SOLVE_COLUMNS, row) for row in rows],
        "finite_true": result.finite_true_values,
        "gap_report": dataclasses.asdict(result.gap_report),
        "collision_warning": result.collision_warning,
    })
    return 0


def _cmd_nrank(args, opts, out):
    p = read_pencil(args.matrix_a, args.matrix_b)
    report = normal_rank(p, np.random.default_rng(opts.seed), tol=opts.rank_tol)
    out.write(f"nrank={report.nrank} k={report.k}\n")
    return 0


def _cmd_gen(args, opts, out):
    from .kcf_gen import build, spec_from_json, spec_to_json

    spec = spec_from_json(_read_json(args.spec))
    pencil, truth = build(spec, np.random.default_rng(opts.seed))
    os.makedirs(args.output_dir, exist_ok=True)
    path_a = os.path.join(args.output_dir, "A.mtx")
    path_b = os.path.join(args.output_dir, "B.mtx")
    write_pencil(pencil, path_a, path_b)
    truth_doc = {
        "spec": spec_to_json(spec),
        "seed": opts.seed,
        "rows": truth.rows,
        "cols": truth.cols,
        "nrank": truth.nrank,
        "k": truth.k,
        "regular_size": truth.r,
        "n_infinite": truth.n_infinite,
        "sum_right_indices": truth.M,
        "sum_left_indices": truth.N,
        "finite_eigenvalues": [[z.real, z.imag] for z in truth.finite],
    }
    path_t = os.path.join(args.output_dir, "ground_truth.json")
    with open(path_t, "w") as f:
        json.dump(truth_doc, f, indent=2, sort_keys=True)
        f.write("\n")
    out.write(f"wrote {path_a} {path_b} {path_t}\n")
    return 0


_TWOPARAM_COLUMNS = (
    ("lambda_re lambda_im", "lambda", 24),
    ("mu_re mu_im", "mu", 24),
    ("discrepancy", "discrepancy", 12),
    ("residual1", "res1", 10),
    ("residual2", "res2", 10),
)


def _cmd_twoparam(args, opts, out):
    from .two_param import read_problem, solve_2ep

    problem = read_problem(args.manifest)
    pairs = solve_2ep(problem, delta=args.delta, opts=opts, unique_lambda=args.unique_lambda)
    rows = [(e.lam, e.mu, e.mu_discrepancy, e.residual1, e.residual2) for e in pairs]
    footer = [("{} eigenvalue pairs", len(rows))]
    _emit(args.fmt, out, _TWOPARAM_COLUMNS, rows, footer, lambda: [
        {"lambda": lam, "mu": mu, "discrepancy": d, "residual1": r1, "residual2": r2}
        for lam, mu, d, r1, r2 in rows
    ])
    return 0


_DOUBLEEIG_COLUMNS = (("lambda_re lambda_im", "lambda", 28), ("min_gap", "min eig gap", 12))


def _cmd_doubleeig(args, opts, out):
    from .two_param import double_eig

    p = read_pencil(args.matrix_a, args.matrix_b)
    if not p.is_square:
        raise ValueError("doubleeig requires square matrices")
    result = double_eig(p.A, p.B, opts=opts, refine=args.refine)
    rows = list(zip(result.lambdas, result.gaps))
    footer = [("{} double-eigenvalue locations", len(rows))]
    if result.count_warning:
        n = p.shape[0]
        footer.append(("warning: an n = {} pencil has at most n(n-1) = {} such locations",
                       n, n * (n - 1)))
    _emit(args.fmt, out, _DOUBLEEIG_COLUMNS, rows, footer, lambda: {
        "lambdas": result.lambdas,
        "gaps": result.gaps,
        "gap_report": dataclasses.asdict(result.solve_result.gap_report),
    })
    return 0


_INTERSECT_COLUMNS = (
    ("e1_re e1_im", "eig 1", 24),
    ("e1_inf", None, 0),
    ("e2_re e2_im", "eig 2", 24),
    ("e2_inf", None, 0),
    ("chordal_dist", "chordal dist", 12),
)


def _cmd_intersect(args, opts, out):
    p = read_pencil(args.matrix_a, args.matrix_b)
    result = solve_by_intersection(p, opts, match_tol=args.delta)
    rows = [(a, cmath.isinf(a), b, cmath.isinf(b), d) for a, b, d in result.matches]
    footer = [("matched eigenvalues within tol {}: [{}]", result.tol, result.eigenvalues)]
    _emit(args.fmt, out, _INTERSECT_COLUMNS, rows, footer, lambda: {
        "tol": result.tol,
        "eigenvalues": result.eigenvalues,
        "matches": [{"e1": a, "e2": b, "dist": d} for a, b, d in result.matches],
    })
    return 0


def _solve_options(args) -> SolveOptions:
    """The solver settings and seed of one invocation.

    Argparse destinations are named after the ``SolveOptions`` fields
    they set, and a flag a subcommand lacks keeps the dataclass default.
    No ``--seed`` falls back to ``$SINGPENCIL_SEED``, then to 0.
    """
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(SolveOptions)
             if hasattr(args, f.name)}
    if given["seed"] is None:
        env = os.environ.get("SINGPENCIL_SEED", "0")
        try:
            given["seed"] = int(env)
        except ValueError:
            raise ValueError(f"SINGPENCIL_SEED must be an integer, got {env!r}") from None
    return SolveOptions(**given)


def tolerance(text):
    """A ``--tol`` value: ``auto`` or a number (argparse names this type in its errors)."""
    return text if text == "auto" else float(text)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="singpencil",
        description="Eigenvalues of singular matrix pencils by a rank-completing perturbation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    defaults = SolveOptions()

    def group(*parents):
        return argparse.ArgumentParser(add_help=False, parents=parents)

    pencil = group()
    pencil.add_argument("matrix_a")
    pencil.add_argument("matrix_b")
    seed = group()
    seed.add_argument("--seed", type=int, default=None,
                      help="RNG seed (default: $SINGPENCIL_SEED or 0)")
    tol = group()
    tol.add_argument("--tol", dest="rank_tol", metavar="TOL", type=tolerance,
                     default=defaults.rank_tol,
                     help="rank decision tolerance (number or 'auto')")
    solver = group(seed, tol)
    solver.add_argument("--tau", type=float, default=defaults.tau, help="perturbation strength")
    solver.add_argument("--delta1", type=float, default=defaults.delta1,
                        help="eigenvector orthogonality threshold")
    solver.add_argument("--delta2", type=float, default=defaults.delta2,
                        help="finite/infinite split threshold on |s|")
    solver.add_argument("--format", dest="fmt", choices=("table", "csv", "json"), default="table")
    solver.add_argument("--retries", dest="max_retries", metavar="RETRIES", type=int,
                        default=defaults.max_retries,
                        help="re-randomizations allowed on prescribed/true collisions")

    def command(name, handler, parents, summary):
        sp = sub.add_parser(name, parents=parents, help=summary)
        sp.set_defaults(handler=handler)
        return sp

    command("solve", _cmd_solve, [pencil, solver], "classify the spectrum of a singular pencil")
    command("nrank", _cmd_nrank, [pencil, seed, tol], "estimate the normal rank")
    sp = command("gen", _cmd_gen, [seed], "generate a test pencil from a JSON block spec")
    sp.add_argument("spec")
    sp.add_argument("-o", "--output-dir", default=".")
    sp = command("twoparam", _cmd_twoparam, [solver], "solve a two-parameter eigenvalue problem")
    sp.add_argument("manifest")
    sp.add_argument("--delta", type=float, default=None, help="mu matching tolerance")
    sp.add_argument("--unique-lambda", action="store_true",
                    help="for a lambda whose mu the core eigenvectors leave undecided, "
                         "accept the closest mu pair unconditionally")
    sp = command("doubleeig", _cmd_doubleeig, [pencil, solver],
                 "lambdas where A + lambda B has a double eigenvalue")
    sp.add_argument("--no-refine", dest="refine", action="store_false",
                    help="skip the Newton polish of each lambda")
    sp = command("intersect", _cmd_intersect, [pencil, solver],
                 "two-perturbation intersection baseline")
    sp.add_argument("--delta", type=float, default=None, help="chordal matching tolerance")
    return parser


def main(argv=None, out=None, err=None) -> int:
    """Parse ``argv``, run its subcommand and return the exit status without exiting.

    ``out`` and ``err`` default to ``sys.stdout`` and ``sys.stderr``.  They
    also receive argparse's output: ``--help`` text goes to ``out``, and a
    usage error to ``err``.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args, _solve_options(args), out)
    except (ValueError, OSError, ImportError) as exc:
        err.write(f"error: {exc}\n")
        return 2
    except NumericalError as exc:
        err.write(f"numerical failure: {exc}\n")
        if exc.details:
            err.write(f"details: {exc.details}\n")
        return 3


def entry():
    """Console-script entry point."""
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

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
is byte-reproducible for a fixed seed.  Table output rounds to 6
significant digits; csv and json emit full precision.

Exit codes: 0 success, 2 argument or input-file errors, 3 numerical
failure inside a solver.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .kcf_gen import build, spec_from_json, spec_to_json
from .matrix_core import NumericalError
from .pencil import normal_rank, read_pencil, write_matrix
from .solver import SolveOptions, solve, solve_by_intersection
from .two_param import (
    double_eig,
    read_problem,
    solutions_to_csv,
    solve_2ep,
)

__all__ = ["RunConfig", "run", "main", "entry"]


@dataclass
class RunConfig:
    """Parsed invocation: one subcommand plus every tunable it honors.

    ``opts`` carries the solver settings and the seed; ``delta`` None
    leaves the matching tolerance to the solver's own default.
    """

    subcommand: str
    inputs: list = field(default_factory=list)
    output_dir: str = "."
    opts: SolveOptions = field(default_factory=lambda: SolveOptions(seed=0))
    delta: float | None = None
    fmt: str = "table"
    unique_lambda: bool = False
    refine: bool = True


def _fmt6(x):
    return f"{x:.6g}"


def _fmt_complex(z, fmt=_fmt6):
    if isinstance(z, complex) and (math.isinf(z.real) or math.isinf(z.imag)):
        return "inf"
    z = complex(z)
    # table display only: chop imaginary roundoff dust on real eigenvalues
    if abs(z.imag) <= 1e-10 * max(1.0, abs(z.real)):
        return fmt(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{fmt(z.real)}{sign}{fmt(abs(z.imag))}j"


def _record_rows(result):
    rows = []
    for i, r in enumerate(result.records, 1):
        rows.append(
            {
                "index": i,
                "lambda_re": r.value.real if not r.is_infinite else math.inf,
                "lambda_im": r.value.imag if not r.is_infinite else 0.0,
                "infinite": r.is_infinite,
                "s_abs": r.s_abs,
                "vx_norm": r.vx_norm,
                "uy_norm": r.uy_norm,
                "zeta": r.zeta,
                "class": r.label.value,
            }
        )
    return rows


def _emit_solve(result, fmt, out):
    rows = _record_rows(result)
    if fmt == "table":
        out.write(f"{'k':>3}  {'lambda':>24}  {'|s|':>12}  {'||V*x||':>12}  {'||U*y||':>12}  class\n")
        for row, rec in zip(rows, result.records):
            lam = "inf" if row["infinite"] else _fmt_complex(rec.value)
            out.write(
                f"{row['index']:>3}  {lam:>24}  {_fmt6(row['s_abs']):>12}  "
                f"{_fmt6(row['vx_norm']):>12}  {_fmt6(row['uy_norm']):>12}  {row['class']}\n"
            )
        finite = ", ".join(_fmt_complex(v) for v in result.finite_true_values)
        out.write(f"finite true eigenvalues: [{finite}]\n")
        if result.collision_warning:
            out.write("warning: prescribed/true eigenvalue collision persisted after retries\n")
    elif fmt == "csv":
        out.write("index,lambda_re,lambda_im,infinite,s_abs,vx_norm,uy_norm,zeta,class\n")
        for row in rows:
            out.write(
                f"{row['index']},{row['lambda_re']!r},{row['lambda_im']!r},"
                f"{int(row['infinite'])},{row['s_abs']!r},{row['vx_norm']!r},"
                f"{row['uy_norm']!r},{row['zeta']!r},{row['class']}\n"
            )
    else:
        for row in rows:
            if row["infinite"]:
                row["lambda_re"] = row["lambda_im"] = None  # keep the JSON RFC-valid
        doc = {
            "nrank": result.nrank_report.nrank,
            "k": result.nrank_report.k,
            "records": rows,
            "finite_true": [
                {"re": v.real, "im": v.imag} for v in result.finite_true_values
            ],
            "gap_report": dataclasses.asdict(result.gap_report),
            "collision_warning": result.collision_warning,
        }
        json.dump(doc, out, indent=2, sort_keys=True)
        out.write("\n")


def _cmd_solve(cfg: RunConfig, out):
    p = read_pencil(cfg.inputs[0], cfg.inputs[1])
    result = solve(p, cfg.opts)
    _emit_solve(result, cfg.fmt, out)
    return 0


def _cmd_nrank(cfg: RunConfig, out):
    p = read_pencil(cfg.inputs[0], cfg.inputs[1])
    opts = cfg.opts
    report = normal_rank(p, np.random.default_rng(opts.seed), tol=opts.rank_tol, probes=opts.probes)
    out.write(f"nrank={report.nrank} k={report.k}\n")
    return 0


def _cmd_gen(cfg: RunConfig, out):
    with open(cfg.inputs[0]) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{cfg.inputs[0]}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})"
            ) from exc
    spec = spec_from_json(doc)
    pencil, truth = build(spec, np.random.default_rng(cfg.opts.seed))
    os.makedirs(cfg.output_dir, exist_ok=True)
    path_a = os.path.join(cfg.output_dir, "A.mtx")
    path_b = os.path.join(cfg.output_dir, "B.mtx")
    write_matrix(path_a, pencil.A)
    write_matrix(path_b, pencil.B)
    truth_doc = {
        "spec": spec_to_json(spec),
        "seed": cfg.opts.seed,
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
    path_t = os.path.join(cfg.output_dir, "ground_truth.json")
    with open(path_t, "w") as f:
        json.dump(truth_doc, f, indent=2, sort_keys=True)
        f.write("\n")
    out.write(f"wrote {path_a} {path_b} {path_t}\n")
    return 0


def _cmd_twoparam(cfg: RunConfig, out):
    problem = read_problem(cfg.inputs[0])
    pairs = solve_2ep(
        problem,
        delta=cfg.delta,
        opts=cfg.opts,
        unique_lambda=cfg.unique_lambda,
    )
    if cfg.fmt == "table":
        out.write(
            f"{'lambda':>24}  {'mu':>24}  {'discrepancy':>12}  {'res1':>10}  {'res2':>10}\n"
        )
        for e in pairs:
            out.write(
                f"{_fmt_complex(e.lam):>24}  {_fmt_complex(e.mu):>24}  "
                f"{_fmt6(e.mu_discrepancy):>12}  {_fmt6(e.residual1):>10}  {_fmt6(e.residual2):>10}\n"
            )
        out.write(f"{len(pairs)} eigenvalue pairs\n")
    elif cfg.fmt == "csv":
        out.write(solutions_to_csv(pairs))
    else:
        doc = [
            {
                "lambda": {"re": e.lam.real, "im": e.lam.imag},
                "mu": {"re": e.mu.real, "im": e.mu.imag},
                "discrepancy": e.mu_discrepancy,
                "residual1": e.residual1,
                "residual2": e.residual2,
            }
            for e in pairs
        ]
        json.dump(doc, out, indent=2, sort_keys=True)
        out.write("\n")
    return 0


def _cmd_doubleeig(cfg: RunConfig, out):
    p = read_pencil(cfg.inputs[0], cfg.inputs[1])
    if not p.is_square:
        raise ValueError("doubleeig requires square matrices")
    result = double_eig(p.A, p.B, opts=cfg.opts, refine=cfg.refine)
    if cfg.fmt == "table":
        out.write(f"{'lambda':>28}  {'min eig gap':>12}\n")
        for lam, gap in zip(result.lambdas, result.gaps):
            out.write(f"{_fmt_complex(lam):>28}  {_fmt6(gap):>12}\n")
        out.write(f"{len(result.lambdas)} double-eigenvalue locations\n")
    elif cfg.fmt == "csv":
        out.write("lambda_re,lambda_im,min_gap\n")
        for lam, gap in zip(result.lambdas, result.gaps):
            out.write(f"{lam.real!r},{lam.imag!r},{gap!r}\n")
    else:
        doc = {
            "lambdas": [{"re": z.real, "im": z.imag} for z in result.lambdas],
            "gaps": list(result.gaps),
            "gap_report": dataclasses.asdict(result.solve_result.gap_report),
        }
        json.dump(doc, out, indent=2, sort_keys=True)
        out.write("\n")
    return 0


def _cmd_intersect(cfg: RunConfig, out):
    p = read_pencil(cfg.inputs[0], cfg.inputs[1])
    result = solve_by_intersection(p, cfg.opts, match_tol=cfg.delta)
    if cfg.fmt == "table":
        out.write(f"{'eig 1':>24}  {'eig 2':>24}  {'chordal dist':>12}\n")
        for a, b, d in result.matches:
            out.write(
                f"{_fmt_complex(a.value):>24}  {_fmt_complex(b.value):>24}  {_fmt6(d):>12}\n"
            )
        vals = ", ".join(_fmt_complex(v) for v in result.eigenvalues)
        out.write(f"matched eigenvalues within tol {_fmt6(result.tol)}: [{vals}]\n")
    elif cfg.fmt == "csv":
        out.write("e1_re,e1_im,e1_inf,e2_re,e2_im,e2_inf,chordal_dist\n")
        for a, b, d in result.matches:
            va = a.value if not a.is_infinite else complex(math.inf, 0)
            vb = b.value if not b.is_infinite else complex(math.inf, 0)
            out.write(
                f"{va.real!r},{va.imag!r},{int(a.is_infinite)},"
                f"{vb.real!r},{vb.imag!r},{int(b.is_infinite)},{d!r}\n"
            )
    else:
        doc = {
            "tol": result.tol,
            "eigenvalues": [{"re": z.real, "im": z.imag} for z in result.eigenvalues],
            "matches": [
                {
                    "e1": "inf" if a.is_infinite else {"re": a.value.real, "im": a.value.imag},
                    "e2": "inf" if b.is_infinite else {"re": b.value.real, "im": b.value.imag},
                    "dist": d,
                }
                for a, b, d in result.matches
            ],
        }
        json.dump(doc, out, indent=2, sort_keys=True)
        out.write("\n")
    return 0


_HANDLERS = {
    "solve": _cmd_solve,
    "nrank": _cmd_nrank,
    "gen": _cmd_gen,
    "twoparam": _cmd_twoparam,
    "doubleeig": _cmd_doubleeig,
    "intersect": _cmd_intersect,
}


def run(cfg: RunConfig, out=None, err=None) -> int:
    """Execute one parsed invocation; returns the process exit status."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    handler = _HANDLERS.get(cfg.subcommand)
    if handler is None:
        err.write(f"error: unknown subcommand {cfg.subcommand!r}\n")
        return 2
    try:
        return handler(cfg, out)
    except (ValueError, OSError, KeyError) as exc:
        err.write(f"error: {exc}\n")
        return 2
    except NumericalError as exc:
        err.write(f"numerical failure: {exc}\n")
        if exc.details:
            err.write(f"details: {exc.details}\n")
        return 3


def _default_seed():
    env = os.environ.get("SINGPENCIL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"SINGPENCIL_SEED must be an integer, got {env!r}") from None
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="singpencil",
        description="Eigenvalues of singular matrix pencils by a rank-completing perturbation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    defaults = SolveOptions()

    def add_common(sp):
        sp.add_argument("--tau", type=float, default=defaults.tau, help="perturbation strength")
        sp.add_argument("--delta1", type=float, default=defaults.delta1,
                        help="eigenvector orthogonality threshold")
        sp.add_argument("--delta2", type=float, default=defaults.delta2,
                        help="finite/infinite split threshold on |s|")
        sp.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: $SINGPENCIL_SEED or 0)")
        sp.add_argument("--tol", dest="rank_tol", metavar="TOL", default=defaults.rank_tol,
                        help="rank decision tolerance (number or 'auto')")
        sp.add_argument("--format", dest="fmt", choices=("table", "csv", "json"), default="table")
        sp.add_argument("--retries", dest="max_retries", metavar="RETRIES", type=int,
                        default=defaults.max_retries,
                        help="re-randomizations allowed on prescribed/true collisions")

    sp = sub.add_parser("solve", help="classify the spectrum of a singular pencil")
    sp.add_argument("matrix_a")
    sp.add_argument("matrix_b")
    add_common(sp)

    sp = sub.add_parser("nrank", help="estimate the normal rank")
    sp.add_argument("matrix_a")
    sp.add_argument("matrix_b")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--tol", dest="rank_tol", metavar="TOL", default=defaults.rank_tol)

    sp = sub.add_parser("gen", help="generate a test pencil from a JSON block spec")
    sp.add_argument("spec")
    sp.add_argument("-o", "--output-dir", default=".")
    sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("twoparam", help="solve a two-parameter eigenvalue problem")
    sp.add_argument("manifest")
    add_common(sp)
    sp.add_argument("--delta", type=float, default=None,
                    help="mu matching tolerance")
    sp.add_argument("--unique-lambda", action="store_true",
                    help="accept the closest mu pair per lambda unconditionally")

    sp = sub.add_parser("doubleeig", help="lambdas where A + lambda B has a double eigenvalue")
    sp.add_argument("matrix_a")
    sp.add_argument("matrix_b")
    add_common(sp)
    sp.add_argument("--no-refine", dest="refine", action="store_false",
                    help="skip the Newton polish of each lambda")

    sp = sub.add_parser("intersect", help="two-perturbation intersection baseline")
    sp.add_argument("matrix_a")
    sp.add_argument("matrix_b")
    add_common(sp)
    sp.add_argument("--delta", type=float, default=None,
                    help="chordal matching tolerance")

    return parser


def _config_from_args(args) -> RunConfig:
    """Map parsed arguments onto :class:`RunConfig`.

    Argparse destinations are named after the ``SolveOptions`` and
    ``RunConfig`` fields they set; a flag a subcommand lacks keeps the
    dataclass default, so every default lives in one place.
    """
    given = dict(vars(args))
    if given["seed"] is None:
        given["seed"] = _default_seed()
    if given.get("rank_tol", "auto") != "auto":
        given["rank_tol"] = float(given["rank_tol"])
    opts = SolveOptions(
        **{f.name: given[f.name] for f in dataclasses.fields(SolveOptions) if f.name in given}
    )
    inputs = [given[k] for k in ("matrix_a", "matrix_b", "spec", "manifest") if k in given]
    return RunConfig(
        inputs=inputs,
        opts=opts,
        **{f.name: given[f.name] for f in dataclasses.fields(RunConfig) if f.name in given},
    )


def main(argv=None, out=None, err=None) -> int:
    """Parse arguments and run; returns the exit status without exiting."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        (err if err is not None else sys.stderr).write(f"error: {exc}\n")
        return 2
    return run(cfg, out=out, err=err)


def entry():
    """Console-script entry point."""
    raise SystemExit(main())

"""Outside-in span tracer and the per-layer metrics derived from its spans.

The tracer replaces module attributes by timing wrappers and puts the
originals back afterwards; nothing inside ``src/`` changes.  A wrapper
must sit on the name the *caller* looks up: ``solver`` binds
``from .matrix_core import generalized_eig``, so patching
``singpencil.matrix_core.generalized_eig`` would record nothing.  That is
why ``CALL_SITES`` names call sites, and why :func:`check_predicted`
refuses a traced run in which a layer the workload is known to use
recorded zero calls.

Spans live in memory (one list, one request id and one parent each) and
are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


def _qz_attrs(args, kwargs):
    n = args[0].shape[0]
    return {"n3": n**3}


def _io_attrs(args, kwargs):
    return {"bytes": sum(os.path.getsize(p) for p in args[:2])}


# (module, attribute, span name, attribute hook).  Each entry is the name a
# caller looks up at call time; the benchmark's own workloads call through
# ``singpencil.<name>`` and ``singpencil.kcf_gen.build`` for the same reason.
CALL_SITES = (
    ("singpencil", "solve", "solve", None),
    ("singpencil.two_param", "solve", "solve", None),
    ("singpencil.cli", "solve", "solve", None),
    ("singpencil.solver", "generalized_eig", "qz", _qz_attrs),
    ("singpencil.solver", "normal_rank", "normal_rank", None),
    ("singpencil.solver", "squarify", "prep", None),
    ("singpencil.solver", "scale", "prep", None),
    ("singpencil.solver", "make_perturbation", "perturb", None),
    ("singpencil.solver", "perturb", "perturb", None),
    ("singpencil", "double_eig", "double_eig", None),
    ("singpencil", "solve_2ep", "solve_2ep", None),
    ("singpencil.two_param", "double_eig_linearization", "delta_build", None),
    ("singpencil.two_param", "operator_determinants", "delta_build", None),
    ("numpy.linalg", "eigvals", "eigvals", None),
    ("singpencil.cli", "read_pencil", "io", _io_attrs),
    ("singpencil.cli", "main", "cli.main", None),
    ("singpencil.kcf_gen", "build", "build", None),
)


@dataclass
class Span:
    id: int
    name: str
    req: object
    parent: int | None
    t0: float
    t1: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self):
        return self.t1 - self.t0


class Tracer:
    """Collects nested spans from wrapped call sites; single-threaded."""

    def __init__(self, sites=CALL_SITES, clock=time.perf_counter):
        self.sites = sites
        self.clock = clock
        self.spans = []
        self.request = None
        self._stack = []
        self._saved = []

    def install(self):
        for module, attr, name, hook in self.sites:
            owner = importlib.import_module(module)
            original = getattr(owner, attr)  # AttributeError if a call site was renamed
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, hook(args, kwargs) if hook else {})
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return traced

    def open(self, name, attrs=None):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.request, parent, self.clock(), attrs=attrs or {})
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.t1 = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def dump(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")


def self_times(spans):
    """Each span's duration minus the part of its interval its children cover."""
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        end = s.t0
        for c in sorted(kids[s.id], key=lambda c: c.t0):
            lo, hi = max(c.t0, end, s.t0), min(c.t1, s.t1)
            if hi > lo:
                covered += hi - lo
                end = hi
        out[s.id] = s.dur - covered
    return out


def _outermost(spans, by_id, name):
    """Spans called ``name`` that are not nested in another span of that name."""
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and by_id[p].name != name:
            p = by_id[p].parent
        if p is None:
            out.append(s)
    return out


PER_LAYER = (
    ("matrix_core.qz.calls", "count"),
    ("matrix_core.qz.s", "s"),
    ("matrix_core.qz.n3", "count"),
    ("pencil.normal_rank.calls", "count"),
    ("pencil.normal_rank.s", "s"),
    ("pencil.prep.s", "s"),
    ("pencil.io.s", "s"),
    ("pencil.io.bytes", "bytes"),
    ("solver.solve.calls", "count"),
    ("solver.solve.s", "s"),
    ("solver.perturb.s", "s"),
    ("solver.self.s", "s"),
    ("solver.qz_per_solve", "ratio"),
    ("two_param.delta_build.s", "s"),
    ("two_param.core_solve.s", "s"),
    ("two_param.mu_solve.calls", "count"),
    ("two_param.mu_solve.s", "s"),
    ("two_param.polish.s", "s"),
    ("two_param.eigvals.calls", "count"),
    ("two_param.eigvals.s", "s"),
    ("two_param.eigvals_per_lambda", "ratio"),
    ("two_param.self.s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.s", "s"),
    ("cli.self.s", "s"),
    ("kcf_gen.build.s", "s"),
    ("trace.overhead", "ratio"),
    ("unattributed.s", "s"),
)


def layer_metrics(spans, walls, lambdas, import_s=0.0, overhead=0.0):
    """Per-request layer metrics from the spans of traced requests.

    ``walls`` maps each traced request id to its wall time as the loop
    measured it; ``lambdas`` is the number of certified lambdas over
    those requests (the base of ``eigvals_per_lambda``).  ``import_s``
    and ``overhead`` are measured by the caller and passed through.  Spans whose
    request id is ``"setup"`` feed ``kcf_gen.build.s`` only.  Times and
    calls are means per request; a layer a workload does not reach
    reads 0.
    """
    setup = [s for s in spans if s.req == "setup"]
    spans = [s for s in spans if s.req in walls]
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    n_req = len(walls)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(ss):
        return sum(s.dur for s in ss) / n_req

    qz = named("qz")
    solves = _outermost(spans, by_id, "solve")
    under = defaultdict(list)
    for s in solves:
        if s.parent is not None:
            under[s.parent].append(s)
    core, mu = [], []
    for parent_id, ss in under.items():
        if by_id[parent_id].name in ("double_eig", "solve_2ep"):
            ss.sort(key=lambda s: s.t0)
            core.append(ss[0])
            mu.extend(ss[1:])
    polish = 0.0
    for d in named("double_eig"):
        inner = sum(
            s.dur for s in spans if s.parent == d.id and s.name in ("delta_build", "solve")
        )
        polish += d.dur - inner
    eigvals = named("eigvals")
    roots = [s for s in spans if s.parent is None]
    unattributed = sum(walls.values()) - sum(s.dur for s in roots)
    return {
        "matrix_core.qz.calls": len(qz) / n_req,
        "matrix_core.qz.s": total(qz),
        "matrix_core.qz.n3": sum(s.attrs["n3"] for s in qz) / n_req,
        "pencil.normal_rank.calls": len(named("normal_rank")) / n_req,
        "pencil.normal_rank.s": total(named("normal_rank")),
        "pencil.prep.s": total(named("prep")),
        "pencil.io.s": total(named("io")),
        "pencil.io.bytes": sum(s.attrs["bytes"] for s in named("io")) / n_req,
        "solver.solve.calls": len(solves) / n_req,
        "solver.solve.s": total(solves),
        "solver.perturb.s": total(named("perturb")),
        "solver.self.s": sum(selfs[s.id] for s in solves) / n_req,
        "solver.qz_per_solve": len(qz) / len(solves) if solves else 0.0,
        "two_param.delta_build.s": total(_outermost(spans, by_id, "delta_build")),
        "two_param.core_solve.s": total(core),
        "two_param.mu_solve.calls": len(mu) / n_req,
        "two_param.mu_solve.s": total(mu),
        "two_param.polish.s": polish / n_req,
        "two_param.eigvals.calls": len(eigvals) / n_req,
        "two_param.eigvals.s": total(eigvals),
        "two_param.eigvals_per_lambda": len(eigvals) / lambdas if lambdas else 0.0,
        "two_param.self.s": sum(selfs[s.id] for s in named("solve_2ep")) / n_req,
        "cli.import_s": import_s,
        "cli.main.s": total(named("cli.main")),
        "cli.self.s": sum(selfs[s.id] for s in named("cli.main")) / n_req,
        "kcf_gen.build.s": sum(s.dur for s in setup if s.name == "build"),
        "trace.overhead": overhead,
        "unattributed.s": unattributed / n_req,
    }


def check_predicted(metrics, predicted):
    """Raise when a layer the workload is known to reach recorded no calls."""
    dead = [name for name in predicted if not metrics[name] > 0]
    if dead:
        raise RuntimeError(
            "traced run recorded nothing for " + ", ".join(dead)
            + "; a call site in tracer.CALL_SITES no longer matches the program"
        )


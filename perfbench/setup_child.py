"""Time one set-up of a workload in a fresh interpreter.

run.py starts this once per set-up repetition, with ``PYTHONPATH=src``
and the BLAS and CPU pinning of the run::

    python3 perfbench/setup_child.py <workload> <seed> <workdir>

A set-up is ``import singpencil``, the workload's input generation and
one warm-up request, so every repetition pays the first-use costs
(lazy imports, page faults, LAPACK start-up) that a user pays once.
The last line of standard output is the set-up time in seconds.  The
benchmark's own imports (``workloads`` and what it needs beyond
singpencil) are not timed.
"""

import sys
import time


def main(argv):
    name, seed, workdir = argv[0], int(argv[1]), argv[2]
    t0 = time.perf_counter()
    import singpencil  # noqa: F401

    import_s = time.perf_counter() - t0

    import os

    import workloads

    wl = workloads.WORKLOADS[name]
    ctx = workloads.Context(workdir=workdir, child_env=dict(os.environ))
    t0 = time.perf_counter()
    state = wl.setup(seed, ctx)
    wl.check(state, wl.call(state, 0))
    print(import_s + time.perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

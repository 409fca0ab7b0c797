#!/usr/bin/env python3
"""Replay every benchmark op in one process and print one line per op.

    python3 tools/replay_ops.py SRC

SRC is the ``src`` directory of a discalc checkout.  The ops are those of the
three workloads in ``perfbench/workloads.py`` at seeds 1 and 2, with their
inputs written to a temporary directory.  Each op runs once through
``discalc.cli.main`` from SRC.  Its line gives the workload, seed, position
and label of the op, then its exit code, the outcome of the op's own check
(``ok``, ``known`` or ``failed``) and the sha256 of its stdout, in which the
temporary directory's path reads ``<tmp>``.  Two checkouts that print the same
lines gave the same stdout and exit code on every op.  numpy runs with one BLAS
thread unless ``OPENBLAS_NUM_THREADS`` is set, so two runs with different
counts show whether any output depends on it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
import traceback

# one BLAS thread, as the benchmark runs the ops, unless the environment sets another count; set
# before anything loads numpy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/ or SRC

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
SEEDS = (1, 2)


def replay(main, argv) -> tuple:
    """(exit code, stdout, stderr) of one op run through ``cli.main``, an uncaught error exiting 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # what an uncaught error does to the real CLI
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not os.path.isfile(os.path.join(argv[0], "discalc", "cli.py")):
        print("usage: python3 tools/replay_ops.py SRC, the src directory of a discalc checkout", file=sys.stderr)
        return 1
    src = os.path.abspath(argv[0])
    sys.path[:0] = [src, PERFBENCH]
    from discalc import cli
    from workloads import WORKLOADS, Inputs, classify_outcome

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"discalc was loaded from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        for name, build in WORKLOADS.items():
            for seed in SEEDS:
                ops = build(Inputs(os.path.join(tmp, f"{name}-{seed}"), random.Random(f"{name}:{seed}")), False)
                for i, op in enumerate(ops):
                    rc, stdout, stderr = replay(cli.main, op.argv)
                    outcome, _ = classify_outcome(op, rc, stdout, stderr)
                    digest = hashlib.sha256(stdout.replace(tmp, "<tmp>").encode()).hexdigest()
                    print(f"{name}\t{seed}\t{i}\t{op.label}\t{rc}\t{outcome}\t{digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

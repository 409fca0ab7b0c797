#!/usr/bin/env python3
"""Benchmark of the ``discalc`` command line.

    python3 perfbench/run.py --workload exact_topology --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The program is run from ``src`` as
``python -m discalc ...`` (it need not be installed).  A workload is a
fixed list of CLI invocations built from the seed; one client runs them
one after another (a closed loop), so at most one op runs at a time.

``--trace 0`` repeats the list as often as ``--seconds`` allows, one
subprocess per op, and reports the end-to-end metrics, with times scaled
to a reference host speed measured during the run (see REFERENCE_ARGV).
``--trace 1`` runs the list once the same way, then replays it in this
process through ``discalc.cli.main``, each op once with spans recorded
around every public function of the package (see ``spans.py``) and once
without, and reports the per-layer metrics.  Every op's output is checked
each time.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A summary goes to stderr;
details and spans go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

# One BLAS thread per op: with two, the first eigh in a fresh process
# sometimes stalls for most of a second.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

sys.path.insert(0, HERE)
from workloads import WORKLOADS, Inputs, classify_outcome  # noqa: E402

STARTUP_SAMPLES = 5
# bounds the spans kept in memory: a scalar_cli replay makes about 20 000
MAX_REPLAY_PASSES = 5
# set-ups after every pass, besides the one before the first: spread over
# the run, they see the same host speed as the reference processes
SETUPS_PER_PASS = 2
# On a machine shared with other tenants the speed drifts by 20-40 % over
# minutes (measured on a 2-core Xeon VM), and a run cannot outlast that.  So a reference process
# that does not touch the program runs after every REFERENCE_EVERY-th op,
# and every end-to-end time is scaled by REFERENCE_NOMINAL_S over the
# run's median reference time: it reads in seconds of a host on which the
# reference takes REFERENCE_NOMINAL_S.  Raw times go to the result file.
# The reference imports numpy, as every op does, and then runs a
# fraction-free integer elimination, the kind of work exact rank does.
REFERENCE_ARGV = [sys.executable, "-c", """
import numpy
n = 40
m = [[(i * 7 + j * 13) % 7 - 3 for j in range(n)] for i in range(n)]
prev = 1
for k in range(n - 1):
    piv = m[k][k] or 1
    for i in range(k + 1, n):
        for j in range(k + 1, n):
            m[i][j] = (m[i][j] * piv - m[i][k] * m[k][j]) // prev
    prev = piv
"""]
REFERENCE_EVERY = 4
REFERENCE_NOMINAL_S = 0.15
OP_TIMEOUT_S = 120
# exit code when the benchmark itself cannot run (no sources, warm-up failed)
HARNESS_ERROR = 2

END_TO_END = [
    ("wall_s", "s"), ("op_p50_s", "s"), ("op_p90_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
]
PER_LAYER = [
    ("cli.startup_s", "s"), ("cli.main_self_s", "s"), ("cli.format_s", "s"), ("cli.output_bytes", "bytes"),
    ("complexes.build_s", "s"), ("complexes.build_calls", "count"), ("complexes.simplices_enumerated", "count"),
    ("complexes.neighbors_calls", "count"), ("complexes.classify_s", "s"), ("complexes.graph_s", "s"),
    ("forms.assemble_s", "s"), ("forms.assemble_calls", "count"), ("forms.dense_entries", "count"),
    ("forms.nnz_ratio", "ratio"), ("forms.integrate_s", "s"), ("forms.solve_s", "s"),
    ("topology.betti_s", "s"), ("topology.rank_s", "s"), ("topology.rank_calls", "count"),
    ("topology.rank_entries", "count"), ("topology.curvature_s", "s"), ("topology.index_s", "s"),
    ("evolution.eigen_s", "s"), ("evolution.eigh_calls", "count"), ("evolution.eigh_dim_max", "count"),
    ("evolution.flow_s", "s"),
    ("expr.parse_s", "s"), ("expr.symbolic_s", "s"), ("expr.evaluate_s", "s"), ("expr.evaluate_calls", "count"),
    ("expr.definite_sum_s", "s"),
    ("numcore.kernel_s", "s"), ("interpolate.fit_s", "s"),
    ("trace.overhead_s", "s"),
]


class HarnessError(Exception):
    pass


def reference_env() -> dict:
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def child_env() -> dict:
    env = reference_env()
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list, out_path: str, err_path: str, env: dict) -> tuple:
    """Run one child to completion: (seconds, exit code, peak RSS in KiB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss


def read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


class Run:
    """One benchmark run: the op list, its outcomes and its timings."""

    def __init__(self, workload: str, seed: int, small: bool):
        self.workload, self.seed, self.small = workload, seed, small
        self.dir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.env = child_env()
        self.ops = []
        self.digests = {}  # op index -> (hash of its first exit code and stdout, outcome of its check)
        self.outcomes = {"ok": 0, "known": 0, "failed": 0}
        self.problems = {}  # op label -> message (failures and known defects)
        self.op_seconds = []  # one list of seconds per op, one entry per subprocess pass
        self.reference_seconds = []
        self.peak_rss_kib = 0

    # -- set-up --------------------------------------------------------------

    def setup(self) -> float:
        """Generate the inputs and warm the interpreter; returns seconds.

        Repeating it rewrites the same files, so op command lines and
        outputs stay the same across set-ups."""
        t0 = time.perf_counter()
        inputs_dir = os.path.join(self.dir, "inputs")
        shutil.rmtree(inputs_dir, ignore_errors=True)
        inputs = Inputs(inputs_dir, random.Random(f"{self.workload}:{self.seed}"))
        self.ops = WORKLOADS[self.workload](inputs, self.small)
        if not self.op_seconds:
            self.op_seconds = [[] for _ in self.ops]
        out, err = os.path.join(self.dir, "warm.out"), os.path.join(self.dir, "warm.err")
        _, rc, _ = spawn([sys.executable, "-m", "discalc", "eval", "x", "--at", "0"], out, err, self.env)
        if rc != 0 or read(out) != "0\n":
            raise HarnessError(f"warm-up op failed (exit {rc}): {read(err).strip()[-300:]}")
        return time.perf_counter() - t0

    # -- outcomes ------------------------------------------------------------

    def record(self, i: int, rc: int, stdout: str, stderr: str):
        """Check one op execution; repeats must match the first stdout byte for byte."""
        op = self.ops[i]
        digest = hashlib.sha256(f"{rc}:{'Traceback' in stderr}:{stdout}".encode()).hexdigest()
        first = self.digests.setdefault(i, (digest, None))
        if first[0] != digest:
            outcome, msg = "failed", "output or exit code differs from an earlier run of the same op"
        elif first[1] is not None:
            outcome, msg = first[1]
        else:
            outcome, msg = classify_outcome(op, rc, stdout, stderr)
            self.digests[i] = (digest, (outcome, msg))
        self.outcomes[outcome] += 1
        if outcome != "ok":
            self.problems[op.label] = f"{outcome}: {msg}"

    # -- subprocess passes ----------------------------------------------------

    def subprocess_pass(self, reference: bool = False) -> float:
        """Run every op once as a fresh process; returns the pass wall time,
        less the time of the reference processes run between ops."""
        runs = []
        reference_total = 0.0
        t0 = time.perf_counter()
        for i, op in enumerate(self.ops):
            out, err = os.path.join(self.dir, f"op{i}.out"), os.path.join(self.dir, f"op{i}.err")
            seconds, rc, rss = spawn([sys.executable, "-m", "discalc", *op.argv], out, err, self.env)
            runs.append((i, rc, seconds, rss))
            if reference and i % REFERENCE_EVERY == REFERENCE_EVERY - 1:
                reference_total += self.reference()
        wall = time.perf_counter() - t0 - reference_total
        for i, rc, seconds, rss in runs:
            self.op_seconds[i].append(seconds)
            self.peak_rss_kib = max(self.peak_rss_kib, rss)
            self.record(i, rc, read(os.path.join(self.dir, f"op{i}.out")), read(os.path.join(self.dir, f"op{i}.err")))
        return wall

    def reference(self) -> float:
        out, err = os.path.join(self.dir, "reference.out"), os.path.join(self.dir, "reference.err")
        seconds, rc, _ = spawn(REFERENCE_ARGV, out, err, reference_env())
        if rc != 0:
            raise HarnessError(f"reference process failed: {read(err).strip()[-300:]}")
        self.reference_seconds.append(seconds)
        return seconds

    def startup_seconds(self) -> float:
        """Median wall time of a fresh process that only imports discalc.cli."""
        out, err = os.path.join(self.dir, "startup.out"), os.path.join(self.dir, "startup.err")
        samples = []
        for _ in range(STARTUP_SAMPLES):
            seconds, rc, _ = spawn([sys.executable, "-c", "import discalc.cli"], out, err, self.env)
            if rc != 0:
                raise HarnessError(f"import discalc.cli failed: {read(err).strip()[-300:]}")
            samples.append(seconds)
        return statistics.median(samples)

    # -- traced in-process passes --------------------------------------------

    def replay(self, main, op) -> tuple:
        """Run one op through cli.main in this process: (seconds, exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = main(list(op.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # what an uncaught error does to the real CLI
                traceback.print_exc()
                rc = 1
            seconds = time.perf_counter() - t0
        return seconds, rc, out.getvalue(), err.getvalue()

    def replay_pass(self, cli, tracer, pass_no: int) -> dict:
        """Replay every op in this process twice, once with spans and once
        without.  The two runs of an op are back to back, in alternating
        order, so that the host's drift cancels out of their difference."""
        totals = {False: 0.0, True: 0.0}
        nbytes, op_ids = 0, []
        for i, op in enumerate(self.ops):
            op_id = f"{pass_no}:{i}"
            op_ids.append(op_id)
            for traced in ((False, True) if (i + pass_no) % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                    tracer.begin_op(op_id)
                try:
                    seconds, rc, stdout, stderr = self.replay(cli.main, op)
                finally:
                    if traced:
                        tracer.end_op()
                        tracer.uninstall()
                totals[traced] += seconds
                self.record(i, rc, stdout, stderr)
            nbytes += len(stdout.encode())
        return {"untraced_s": totals[False], "traced_s": totals[True], "output_bytes": nbytes, "op_ids": op_ids}


def end_to_end(run: Run, seconds: float, one_pass: bool) -> tuple:
    """Repeat subprocess passes while the next one still fits in the budget.

    Set-up is repeated after every pass so that its median, like the
    pass and op medians, spans the whole run: the host's speed drifts in
    phases of seconds to minutes.  Times are scaled to the reference host
    speed (see REFERENCE_ARGV)."""
    setups = [run.setup()]
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(run.subprocess_pass(reference=True))
        if one_pass:
            break
        setups += [run.setup() for _ in range(SETUPS_PER_PASS)]
        if time.perf_counter() - start + max(walls) > seconds:
            break
    if not run.reference_seconds:
        run.reference()
    host_reference = statistics.median(run.reference_seconds)
    scale = REFERENCE_NOMINAL_S / host_reference
    ops = [s for per_op in run.op_seconds for s in per_op]
    p90 = statistics.quantiles(ops, n=10)[-1] if len(ops) > 1 else ops[0]
    raw = {
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(ops),
        "op_p90_s": p90,
        "setup_s": statistics.median(setups),
    }
    info = {"passes": len(walls), "op_samples": len(ops), "ops_beyond_p90": sum(1 for s in ops if s > p90),
            "host_reference_s": host_reference, "reference_samples": len(run.reference_seconds),
            "raw_s": raw, "pass_walls_s": walls, "setup_runs_s": setups, "op_seconds": run.op_seconds,
            "reference_runs_s": run.reference_seconds}
    metrics = {name: value * scale for name, value in raw.items()}
    metrics["peak_rss_mb"] = run.peak_rss_kib / 1024
    return metrics, info


def per_layer(run: Run, seconds: float, one_pass: bool) -> tuple:
    """One untraced subprocess pass and the start-up samples, then
    in-process replay passes (see Run.replay_pass) while time allows, up to
    MAX_REPLAY_PASSES.  Each metric is a median over the replay passes;
    trace.overhead_s is the median of traced minus untraced replay time."""
    from spans import Tracer

    run.setup()
    start = time.perf_counter()
    startup = run.startup_seconds()
    untraced_wall = run.subprocess_pass()
    sys.path.insert(0, SRC)
    cli = importlib.import_module("discalc.cli")
    tracer = Tracer()
    passes = []
    while True:
        passes.append(run.replay_pass(cli, tracer, len(passes)))
        last = passes[-1]["untraced_s"] + passes[-1]["traced_s"]
        if one_pass or len(passes) == MAX_REPLAY_PASSES or time.perf_counter() - start + last > seconds:
            break
    tracer.write_jsonl(os.path.join(WORK, f"spans-{run.workload}-{run.seed}.jsonl"))

    per_pass = []
    for p in passes:
        m = tracer.layer_metrics(p["op_ids"])
        m["cli.output_bytes"] = p["output_bytes"]
        m["trace.overhead_s"] = p["traced_s"] - p["untraced_s"]
        per_pass.append(m)
    metrics = {}
    for name, unit in PER_LAYER:
        value = statistics.median(m.get(name, 0) for m in per_pass)
        metrics[name] = round(value) if unit in ("count", "bytes") else value
    metrics["cli.startup_s"] = startup * len(run.ops)
    # Start-up plus the layer self times, less the overhead, should account
    # for the untraced wall time.  What they miss is a process's cost
    # beyond a bare import (runpy, teardown) and the host's drift between
    # the subprocess pass and the replays.
    self_sum = sum(metrics[name] for name, unit in PER_LAYER
                   if unit == "s" and name not in ("cli.startup_s", "trace.overhead_s"))
    accounted = metrics["cli.startup_s"] + self_sum - metrics["trace.overhead_s"]
    info = {"replay_passes": len(passes), "startup_per_op_s": startup, "spans": len(tracer.records),
            "accounting": {"untraced_wall_s": untraced_wall, "startup_total_s": metrics["cli.startup_s"],
                           "replay_untraced_s": statistics.median(p["untraced_s"] for p in passes),
                           "replay_traced_s": statistics.median(p["traced_s"] for p in passes),
                           "self_sum_s": self_sum, "accounted_s": accounted,
                           "unaccounted_share": (untraced_wall - accounted) / untraced_wall}}
    return metrics, info


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version, "cores": os.cpu_count(),
            "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest rungs, one pass")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "discalc", "cli.py")):
        print(f"perfbench: no discalc sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return HARNESS_ERROR
    run = Run(args.workload, args.seed, args.smoke)
    try:
        if args.trace:
            values, info = per_layer(run, args.seconds, args.smoke)
            units = PER_LAYER
        else:
            values, info = end_to_end(run, args.seconds, args.smoke)
            units = END_TO_END
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return HARNESS_ERROR
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    attempted = sum(run.outcomes.values())
    result = {
        "correct": run.outcomes["failed"] == 0,
        "attempted": attempted,
        "failed": run.outcomes["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "ops": len(run.ops), "outcomes": run.outcomes, "problems": run.problems,
              "environment": environment(), **info, "result": result}
    with open(os.path.join(WORK, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    for label, msg in sorted(run.problems.items()):
        print(f"perfbench: {label}: {msg}", file=sys.stderr)
    summary = {k: v for k, v in detail.items() if k not in ("problems", "result", "op_seconds", "reference_runs_s")}
    print("perfbench: " + json.dumps(summary), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-process tracing of ``discalc`` from outside the library.

``Tracer.install`` rebinds every public function of the eight ``discalc``
modules (plus the ``Graph`` methods and ``numpy.linalg.eigh``) to a wrapper
that records a span, wherever the name is bound: module globals, names
imported with ``from .x import f`` and the CLI's command table.
``uninstall`` puts the originals back.  Nothing inside the library changes.

Spans stay in memory, one record ``[name, parent, op, start, end]`` per
call; ``parent`` is the index of the enclosing record or -1.  A call of a
function that is already open on the stack (recursion) runs untraced
inside the outer span.  ``cli.fmt`` is left unwrapped: it runs once per
printed number, and a span per call would cost more than the call.  The
matrix printer ``cli._print_matrix`` gets one span per matrix instead.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter

MODULES = ("cli", "complexes", "forms", "topology", "evolution", "expr", "numcore", "interpolate")

# span name -> per-layer self-time metric; unnamed functions fall to DEFAULT_BUCKET
BUCKET = {
    "cli._print_matrix": "cli.format_s",
    "complexes.build_complex": "complexes.build_s",
    "complexes.classify": "complexes.classify_s",
    "complexes.is_path_graph": "complexes.classify_s",
    "complexes.is_cycle_graph": "complexes.classify_s",
    "complexes.connected_components": "complexes.classify_s",
    "forms.integrate": "forms.integrate_s",
    "forms.apply_d": "forms.integrate_s",
    "forms.stokes_residual": "forms.integrate_s",
    "forms.boundary_faces": "forms.integrate_s",
    "forms.line_integral": "forms.integrate_s",
    "forms.edge_value": "forms.integrate_s",
    "forms.poisson_maxwell": "forms.solve_s",
    "forms.pinv_apply": "forms.solve_s",
    "forms.kernel_projection": "forms.solve_s",
    "forms.potential": "forms.solve_s",
    "topology.betti": "topology.betti_s",
    "topology.euler_characteristic": "topology.betti_s",
    "topology.integer_rank": "topology.rank_s",
    "topology.index": "topology.index_s",
    "topology.poincare_hopf": "topology.index_s",
    "topology.classify_critical": "topology.index_s",
    "topology.sub_level_sphere": "topology.index_s",
    "topology.index_expectation": "topology.index_s",
    "evolution.sym_eigen": "evolution.eigen_s",
    "numpy.linalg.eigh": "evolution.eigen_s",
    "expr.parse": "expr.parse_s",
    "expr.evaluate": "expr.evaluate_s",
    "expr.definite_sum": "expr.definite_sum_s",
}
DEFAULT_BUCKET = {
    "cli": "cli.main_self_s",
    "complexes": "complexes.graph_s",
    "forms": "forms.assemble_s",
    "topology": "topology.curvature_s",
    "evolution": "evolution.flow_s",
    "expr": "expr.symbolic_s",
    "numcore": "numcore.kernel_s",
    "interpolate": "interpolate.fit_s",
}
ASSEMBLERS = {"forms." + n for n in ("exterior_derivative", "codifferential", "gradient", "curl",
                                       "divergence", "dirac", "laplacian", "laplacian_block")}
GRAPH_METHODS = ("neighbors", "adjacency", "induced")
UNTRACED = {"cli.fmt"}
PRIVATE_TRACED = {"cli._print_matrix"}


def layer_of(name: str) -> str:
    return "evolution" if name == "numpy.linalg.eigh" else name.split(".", 1)[0]


def bucket_of(name: str) -> str:
    return BUCKET.get(name) or DEFAULT_BUCKET[layer_of(name)]


class Tracer:
    def __init__(self):
        self.records = []  # [name, parent, op, start, end]
        self.stack = []
        self.open = Counter()
        self.op = None
        self.work = {}  # op -> Counter of work counts made by the hooks
        self.operators = []  # matrices built during the current op, counted at op end
        self._restore = []

    # -- recording -----------------------------------------------------------

    def begin_op(self, op_id):
        self.op = op_id
        self.work[op_id] = Counter()

    def end_op(self):
        import numpy as np

        for data in self.operators:
            self.work[self.op]["forms.nonzeros"] += int(np.count_nonzero(data))
        self.operators = []

    def wrap(self, name: str, fn, after=None):
        records, stack, active = self.records, self.stack, self.open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if active[name]:
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0]
            stack.append(len(records))
            records.append(rec)
            active[name] += 1
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                active[name] -= 1
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- hooks that record work counts --------------------------------------

    def _after_build(self, args, result):
        self.work[self.op]["complexes.simplices_enumerated"] += sum(len(level) for level in result.simplices)

    def _after_assemble(self, args, result):
        self.work[self.op]["forms.dense_entries"] += result.data.size
        self.operators.append(result.data)

    def _after_rank(self, args, result):
        mat = args[0]
        self.work[self.op]["topology.rank_entries"] += len(mat) * (len(mat[0]) if len(mat) else 0)

    def _after_eigh(self, args, result):
        work = self.work[self.op]
        work["evolution.eigh_dim_max"] = max(work["evolution.eigh_dim_max"], len(args[0]))

    # -- installation --------------------------------------------------------

    def install(self):
        import importlib

        import numpy.linalg

        modules = {m: importlib.import_module(f"discalc.{m}") for m in MODULES}
        hooks = {"complexes.build_complex": self._after_build, "topology.integer_rank": self._after_rank}
        hooks.update({n: self._after_assemble for n in ASSEMBLERS})
        wrapped = {}  # original function -> wrapper
        for short, mod in modules.items():
            for attr, value in vars(mod).items():
                name = f"{short}.{attr}"
                public = not attr.startswith("_") or name in PRIVATE_TRACED
                if inspect.isfunction(value) and value.__module__ == mod.__name__ and public and name not in UNTRACED:
                    wrapped[value] = self.wrap(name, value, hooks.get(name))
        graph = modules["complexes"].Graph
        for meth in GRAPH_METHODS:
            orig = vars(graph)[meth]
            self._set(graph, meth, self.wrap(f"complexes.Graph.{meth}", orig))
        self._set(numpy.linalg, "eigh", self.wrap("numpy.linalg.eigh", numpy.linalg.eigh, self._after_eigh))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if callable(value) and value in wrapped:
                    self._set(mod, attr, wrapped[value])
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if callable(item) and item in wrapped:
                            value[key] = wrapped[item]
                            self._restore.append((value.__setitem__, key, item))

    def _set(self, owner, attr, value):
        self._restore.append((functools.partial(setattr, owner), attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for setter, key, original in reversed(self._restore):
            setter(key, original)
        self._restore = []

    # -- analysis ------------------------------------------------------------

    def self_seconds(self) -> list:
        """Each span's duration minus the durations of its child spans."""
        selfs = [rec[4] - rec[3] for rec in self.records]
        for rec in self.records:
            if rec[1] >= 0:
                selfs[rec[1]] -= rec[4] - rec[3]
        return selfs

    def layer_metrics(self, op_ids) -> dict:
        """Self time per bucket and per layer, plus call counts, over some ops."""
        ops = set(op_ids)
        selfs = self.self_seconds()
        out = Counter()
        calls = Counter()
        for rec, s in zip(self.records, selfs):
            if rec[2] not in ops:
                continue
            out[bucket_of(rec[0])] += s
            calls[rec[0]] += 1
        out["complexes.build_calls"] = calls["complexes.build_complex"]
        out["complexes.neighbors_calls"] = calls["complexes.Graph.neighbors"]
        out["forms.assemble_calls"] = sum(calls[n] for n in ASSEMBLERS)
        out["topology.rank_calls"] = calls["topology.integer_rank"]
        out["evolution.eigh_calls"] = calls["numpy.linalg.eigh"]
        out["expr.evaluate_calls"] = calls["expr.evaluate"]
        for op in ops:
            for key, value in self.work.get(op, {}).items():
                out[key] = max(out[key], value) if key.endswith("_max") else out[key] + value
        nonzeros = out.pop("forms.nonzeros", 0)
        out["forms.nnz_ratio"] = nonzeros / out["forms.dense_entries"] if out["forms.dense_entries"] else 0.0
        return out

    def write_jsonl(self, path: str):
        keys = ("name", "parent", "op", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.records):
                fh.write(json.dumps(dict(zip(("id",) + keys, [i] + rec))) + "\n")

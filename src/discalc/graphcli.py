"""The ``graph`` handler and the loader of its vertex functions.

``discalc.cli`` imports this module only when ``graph`` runs, so no other command compiles it.  ``info`` and
``betti`` read ``discalc.homology`` alone; ``curvature``, ``indices`` and ``classify`` import
``discalc.topology``.
"""

from __future__ import annotations

from . import DomainError
from .cli import _csv_rows, _load_graph, _parsed, _rational, fmt


def _load_vertex_fn(path: str, n: int) -> list:
    values = [None] * n
    for row in _csv_rows(path, "vertex", 2):
        v = _parsed(int, row[0], path)
        if not 0 <= v < n:
            raise DomainError(f"vertex {v} out of range")
        if values[v] is not None:
            raise DomainError(f"vertex {v} given twice")
        values[v] = _parsed(_rational, row[1], path)
    if any(v is None for v in values):
        raise DomainError("function file does not cover every vertex")
    return values


def cmd_graph(args, out):
    from . import complexes as cx

    g = _load_graph(args)
    c = cx.build_complex(g)
    if args.action in ("info", "betti"):
        from . import homology

        if args.action == "info":
            out.write("counts: " + " ".join(str(v) for v in c.counts()) + "\n")
            out.write(f"chi: {homology.euler_characteristic(c)}\n")
        else:
            out.write("betti: " + " ".join(str(b) for b in homology.betti(c)) + "\n")
        return 0
    from . import topology as tp

    if args.action == "curvature":
        curvatures = tp.curvature_vector(c)
        out.write("vertex,curvature\n")
        out.writelines(f"{v},{fmt(k)}\n" for v, k in enumerate(curvatures))
        out.write(f"total,{fmt(sum(curvatures))}\n")
        return 0
    if args.action == "indices":
        f = _load_vertex_fn(args.fn, g.vertex_count) if args.fn else list(range(g.vertex_count))
        report = tp.poincare_hopf(c, f)
        out.write("vertex,index,class,curvature\n")
        for v, k in enumerate(tp.curvature_vector(c)):
            out.write(f"{v},{report.indices[v]},{report.classes[v]},{fmt(k)}\n")
        out.write(f"total,{report.total},,\n")
        return 0
    cls = tp.classify(c)  # classify, the last action the command line admits
    boundary = " ".join(str(v) for v in cls.boundary)
    out.write(f"kind: {cls.kind}\n")
    out.write(f"boundary: {boundary}\n")
    out.write(f"flat: {'yes' if cls.flat else 'no'}\n")
    return 0

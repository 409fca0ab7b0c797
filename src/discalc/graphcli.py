"""The ``graph`` handler and the loader of its vertex functions.

``discalc.cli`` imports this module only when ``graph`` runs, so no other command compiles it.  ``info`` and
``betti`` read ``discalc.homology`` alone; ``curvature``, ``indices`` and ``classify`` import
``discalc.topology``.
"""

from __future__ import annotations

from . import DomainError
from .cli import _csv_table, _load_graph, _parsed, _rational, fmt


def _load_vertex_fn(path: str, g) -> list:
    """The values of a vertex function on the graph g, one for each vertex."""
    values = _csv_table(path, "vertex", 2, lambda row: (_parsed(int, row[0], path), _parsed(_rational, row[1], path)),
                        "vertex {}".format)
    for v in values:
        g.neighbors(v)  # DomainError for a vertex out of range
    if len(values) != g.vertex_count:
        raise DomainError("function file does not cover every vertex")
    return [values[v] for v in range(g.vertex_count)]


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
        f = _load_vertex_fn(args.fn, g) if args.fn else list(range(g.vertex_count))
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

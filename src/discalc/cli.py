"""Command-line front door for the difference-calculus engine.

Subcommands cover expression evaluation, definite sums, Newton-Gregory
interpolation, graph/topology reports, operator matrices and integral
theorems, PDE flows, and SVG comparison plots of the deformed functions
against their classical counterparts.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .numcore import DomainError, ParseError, Sequence, exp_h, exp_h_complex, log_discrete, sin_h

# Each subcommand imports the library modules it uses, and none loads numpy but a `pde` flow past
# evolution.DENSE_CROSSOVER; the annotations name two of the modules without importing them.
if TYPE_CHECKING:
    from . import complexes as cx
    from . import forms


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def fmt(value) -> str:
    """Deterministic scalar formatting: exact integers/rationals as such,
    floats with 12 significant digits."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return fmt(value.numerator)
        return f"{fmt(value.numerator)}/{fmt(value.denominator)}"
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, complex):
        return f"{format(value.real, '.12g')}{'+' if value.imag >= 0 else '-'}{format(abs(value.imag), '.12g')}i"
    try:
        return str(value)
    except ValueError:  # an integer past the int-to-str digit limit, which guards input only
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(value)
        finally:
            sys.set_int_max_str_digits(limit)


def _finite(text: str) -> float:
    """A float that is neither infinite nor nan."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _parsed(kind, text, where: str):
    """kind(text); malformed input is a UsageError, a DomainError stays one."""
    try:
        return kind(text)
    except DomainError:
        raise
    except (ValueError, KeyError, TypeError, ZeroDivisionError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"cannot read {where}: {type(exc).__name__}: {exc}") from None


def _csv_rows(path: str, header: str, width: int):
    """The data rows of a CSV file: blank, '#' comment and header rows are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            first = row[0].strip() if row else ""
            if first.startswith("#") or first == header or not "".join(row).strip():
                continue
            if len(row) < width:
                raise UsageError(f"{path}: row {','.join(row)!r} needs {width} columns")
            yield row


def _load_graph(args) -> cx.Graph:
    from . import complexes as cx

    if args.gen:
        return _parsed(cx.parse_generator, args.gen, "--gen")
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            return _parsed(cx.Graph.from_json, fh.read(), args.file)
    raise UsageError("need --gen NAME[:N] or --file PATH")


def _load_vertex_fn(path: str, n: int) -> list:
    values = [None] * n
    for row in _csv_rows(path, "vertex", 2):
        v = _parsed(int, row[0], path)
        if not 0 <= v < n:
            raise DomainError(f"vertex {v} out of range")
        if values[v] is not None:
            raise DomainError(f"vertex {v} given twice")
        values[v] = _parsed(Fraction, row[1], path)
    if any(v is None for v in values):
        raise DomainError("function file does not cover every vertex")
    return values


def _parse_simplex(text: str) -> tuple:
    simplex = tuple(int(p) for p in text.split("-"))
    if list(simplex) != sorted(set(simplex)):
        raise ValueError(f"simplex {text!r} is not in ascending vertex order")
    return simplex


def _load_form_rows(path: str, c: cx.GraphComplex) -> list:
    """(degree, position in c.simplices[degree], value) for each row."""
    rows, seen = [], set()
    for row in _csv_rows(path, "degree", 3):
        d, simplex = _parsed(int, row[0], path), _parsed(_parse_simplex, row[1], path)
        value = _parsed(Fraction if "/" in row[2] or "." not in row[2] else _finite, row[2], path)
        rows.append((d, c.positions(d, [simplex])[0], value))
        if simplex in seen:
            raise DomainError(f"simplex {_simplex_name(simplex)} given twice")
        seen.add(simplex)
    return rows


def _load_form(path: str, c: cx.GraphComplex, degree: int) -> forms.Form:
    from . import forms

    if not 0 <= degree <= c.top_dim:
        raise DomainError(f"the complex has no {degree}-simplices")
    values = [0] * c.count(degree)
    for d, i, value in _load_form_rows(path, c):
        if d != degree:
            raise DomainError(f"expected degree-{degree} rows, found degree {d}")
        values[i] = value
    return forms.Form(c, degree, values)


def _load_state_vector(path: str, c: cx.GraphComplex) -> list:
    from . import forms

    offsets = forms.block_offsets(c)
    vec = [0.0] * forms.total_dim(c)
    for d, i, value in _load_form_rows(path, c):
        vec[offsets[d] + i] = float(value)
    return vec


def _load_samples(path: str) -> Sequence:
    pairs = []
    for row in _csv_rows(path, "x", 2):
        text = row[1].strip()
        value = _parsed(_finite if ("." in text or "e" in text or "E" in text) else Fraction, text, path)
        if isinstance(value, Fraction) and value.denominator == 1:
            value = value.numerator
        pairs.append((_parsed(int, row[0], path), value))
    pairs.sort()
    if not pairs:
        raise DomainError("no samples in file")
    base = pairs[0][0]
    if [x for x, _ in pairs] != list(range(base, base + len(pairs))):
        raise DomainError("samples must cover consecutive integers")
    return Sequence(base, tuple(v for _, v in pairs))


def _simplex_name(simplex: tuple) -> str:
    return "-".join(str(v) for v in simplex)


def _print_matrix(op: forms.OperatorMatrix, out):
    n = op.shape[1]
    for row in op.rows:
        cells = ["0"] * n
        for j, v in row.items():
            cells[j] = str(v)
        out.write(" ".join(cells) + "\n")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_eval(args, out):
    from . import expr

    tree = expr.parse(args.expression)
    if args.op == "diff":
        tree = expr.derivative(tree)
    elif args.op == "sum":
        tree = expr.antiderivative(tree)
    out.write(fmt(expr.evaluate(tree, args.at)) + "\n")
    return 0


def cmd_sum(args, out):
    from . import expr

    # inclusive bounds, the usual convention for written-out finite sums
    tree = expr.parse(args.expression)
    out.write(fmt(expr.definite_sum(tree, args.lo, args.hi + 1)) + "\n")
    return 0


def cmd_taylor(args, out):
    from . import expr
    from . import interpolate as ip

    samples = _load_samples(args.samples)
    print_form = args.print_form or args.eval is None
    if print_form and samples.base != 0:  # checked before the first write: an error leaves stdout empty
        raise DomainError("--print needs samples anchored at x = 0")
    if args.eval is not None:
        # a nonzero window start is handled by shifting the variable
        table = ip.forward_differences(Sequence(0, samples.values))
        out.write(fmt(ip.newton_gregory_eval(table, args.eval - samples.base)) + "\n")
    if print_form:
        out.write(expr.to_string(ip.interpolate_fit(samples)) + "\n")
    return 0


def cmd_graph(args, out):
    from . import complexes as cx
    from . import topology as tp

    g = _load_graph(args)
    c = cx.build_complex(g)
    if args.action == "info":
        counts = c.counts()
        out.write("counts: " + " ".join(str(v) for v in counts) + "\n")
        out.write(f"chi: {tp.euler_characteristic(c)}\n")
        return 0
    if args.action == "betti":
        out.write("betti: " + " ".join(str(b) for b in tp.betti(c)) + "\n")
        return 0
    if args.action == "curvature":
        curvatures = tp.curvature_vector(c)
        out.write("vertex,curvature\n")
        out.writelines(f"{v},{fmt(k)}\n" for v, k in enumerate(curvatures))
        out.write(f"total,{fmt(sum(curvatures, Fraction(0)))}\n")
        return 0
    if args.action == "indices":
        f = _load_vertex_fn(args.fn, g.vertex_count) if args.fn else list(range(g.vertex_count))
        report = tp.poincare_hopf(c, f)
        out.write("vertex,index,class,curvature\n")
        for v, k in enumerate(tp.curvature_vector(c)):
            out.write(f"{v},{report.indices[v]},{report.classes[v]},{fmt(k)}\n")
        out.write(f"total,{report.total},,\n")
        return 0
    cls = cx.classify(c)  # classify, the last action argparse admits
    boundary = " ".join(str(v) for v in cls.boundary)
    out.write(f"kind: {cls.kind}\n")
    out.write(f"boundary: {boundary}\n")
    out.write(f"flat: {'yes' if cls.flat else 'no'}\n")
    return 0


def cmd_forms(args, out):
    from . import complexes as cx
    from . import forms

    g = _load_graph(args)
    c = cx.build_complex(g)
    if args.action == "dirac":
        _print_matrix(forms.dirac(c), out)
        return 0
    if args.action == "laplacian":
        if args.degree is not None:
            _print_matrix(forms.laplacian_block(c, args.degree), out)
        else:
            _print_matrix(forms.laplacian(c), out)
        return 0
    if args.action == "stokes":
        if not args.form:
            raise UsageError("stokes needs --form PATH")
        degree = args.degree if args.degree is not None else 1
        if not 0 <= degree < c.top_dim:
            raise DomainError(f"stokes needs a degree from 0 to {c.top_dim - 1}")
        F = _load_form(args.form, c, degree)
        lhs, rhs = forms.stokes_sides(c, list(c.simplices[degree + 1]), F)
        out.write(f"surface_integral: {fmt(lhs)}\n")
        out.write(f"boundary_integral: {fmt(rhs)}\n")
        out.write(f"residual: {fmt(lhs - rhs)}\n")
        return 0
    from . import evolution as ev  # poisson, the last action argparse admits

    if not args.current:
        raise UsageError("poisson needs --current PATH")
    A, F = ev.poisson_maxwell(c, _load_form(args.current, c, 1))
    out.write("degree,simplex,value\n")
    for i, s in enumerate(c.simplices[1]):
        out.write(f"1,{_simplex_name(s)},{fmt(float(A.values[i]))}\n")
    for i, s in enumerate(c.simplices[2] if c.top_dim >= 2 else ()):
        out.write(f"2,{_simplex_name(s)},{fmt(float(F.values[i]))}\n")
    return 0


def cmd_pde(args, out):
    from . import complexes as cx
    from . import evolution as ev
    from . import forms

    c = cx.build_complex(_load_graph(args))

    def write_state(degrees, vec):
        out.write("t,simplex,value\n")
        names = (f"{k}:{_simplex_name(s)}" for k in degrees for s in c.simplices[k])
        for name, value in zip(names, vec):
            out.write(f"{fmt(args.t)},{name},{fmt(value)}\n")

    if args.action == "heat":
        degree = args.degree if args.degree is not None else 0
        write_state([degree], ev.heat_flow(c, degree, _load_form(args.form, c, degree), args.t).values)
        return 0
    if args.action == "schrodinger":
        write_state(range(c.top_dim + 1), ev.schrodinger_flow(c, _load_state_vector(args.form, c), args.t))
        return 0
    f0 = _load_state_vector(args.form, c)  # wave, the last action argparse admits
    g0 = _load_state_vector(args.velocity, c) if args.velocity else [0.0] * forms.total_dim(c)
    write_state(range(c.top_dim + 1), ev.wave_flow(c, f0, g0, args.t))
    return 0


# ---------------------------------------------------------------------------
# Plotting (dependency-free SVG)

_SVG_W, _SVG_H = 800, 500
_MARGIN = 40


def _polyline(points, color):
    coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in points)
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'


def _plot_functions(fn: str, a: float, h: float):
    """Return (discrete, classical) callables for the named function."""
    if fn == "sin":
        return (lambda x: sin_h(a, h, x), lambda x: math.sin(a * x))
    if fn == "cos":
        return (lambda x: exp_h_complex(a, h, x).real, lambda x: math.cos(a * x))
    if fn == "exp":
        return (lambda x: exp_h(a, h, x), lambda x: math.exp(a * x))
    if fn == "log":
        return (lambda x: log_discrete(x), lambda x: math.log(x))
    if fn.startswith("pow:"):
        from . import expr

        n = _parsed(int, fn.split(":", 1)[1], "--fn pow:N")
        if not 0 <= n <= expr.MAX_POWER:
            raise DomainError(f"pow:N needs 0 <= N <= {expr.MAX_POWER}")
        return (lambda x: math.prod((x - j * h for j in range(n)), start=1.0), lambda x: x ** n)
    raise UsageError(f"unknown plot function {fn!r}")


def cmd_plot(args, out):
    lo_text, _, hi_text = args.range.partition(":")
    lo, hi = _parsed(_finite, lo_text, "--range LO:HI"), _parsed(_finite, hi_text, "--range LO:HI")
    steps = 400
    if not 0 < (hi - lo) * steps < math.inf:  # every sample point stays finite
        raise UsageError("range needs LO < HI, at most 4e305 apart")
    discrete, classical = _plot_functions(args.fn, args.a, args.h)
    xs = [lo + (hi - lo) * i / steps for i in range(steps + 1)]
    if args.fn == "log":
        xs = [x for x in xs if x > 0]
        if not xs:
            raise DomainError("log needs a positive range")
    series = [[(x, discrete(x)) for x in xs], [(x, classical(x)) for x in xs]]
    ys = [y for points in series for _, y in points]
    ymin, ymax = min(ys), max(ys)
    if not (all(map(math.isfinite, ys)) and math.isfinite(ymax - ymin)):
        raise DomainError("the plotted values leave the float range")
    if ymax == ymin:
        ymax = ymin + 1.0

    def to_px(x, y):
        px = _MARGIN + (x - lo) / (hi - lo) * (_SVG_W - 2 * _MARGIN)
        py = _SVG_H - _MARGIN - (y - ymin) / (ymax - ymin) * (_SVG_H - 2 * _MARGIN)
        return px, py

    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" y2="{_SVG_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_SVG_H - _MARGIN}" stroke="black"/>',
        _polyline([to_px(x, y) for x, y in series[0]], "steelblue"),
        _polyline([to_px(x, y) for x, y in series[1]], "firebrick"),
        "</svg>",
    ]
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(body) + "\n")
    out.write(f"wrote {args.out}\n")
    return 0


# ---------------------------------------------------------------------------
# Argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="discalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression at an integer point")
    p.add_argument("expression")
    p.add_argument("--at", type=int, required=True)
    p.add_argument("--op", choices=["none", "diff", "sum"], default="none")

    p = sub.add_parser("sum", help="definite sum with inclusive bounds")
    p.add_argument("expression")
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)

    p = sub.add_parser("taylor", help="Newton-Gregory interpolation of samples")
    p.add_argument("--samples", required=True)
    p.add_argument("--eval", type=int, default=None)
    p.add_argument("--print", dest="print_form", action="store_true")

    p = sub.add_parser("graph", help="graph and topology reports")
    p.add_argument("action", choices=["info", "betti", "curvature", "indices", "classify"])
    p.add_argument("--gen", default=None)
    p.add_argument("--file", default=None)
    p.add_argument("--fn", default=None)

    p = sub.add_parser("forms", help="operator matrices and integral theorems")
    p.add_argument("action", choices=["dirac", "laplacian", "stokes", "poisson"])
    p.add_argument("--gen", default=None)
    p.add_argument("--file", default=None)
    p.add_argument("--form", default=None)
    p.add_argument("--current", default=None)
    p.add_argument("--degree", type=int, default=None)

    p = sub.add_parser("pde", help="heat, wave and Schroedinger flows")
    p.add_argument("action", choices=["heat", "wave", "schrodinger"])
    p.add_argument("--t", type=_finite, required=True)
    p.add_argument("--form", required=True)
    p.add_argument("--velocity", default=None)
    p.add_argument("--gen", default=None)
    p.add_argument("--file", default=None)
    p.add_argument("--degree", type=int, default=None)

    p = sub.add_parser("plot", help="SVG comparison of deformed vs classical")
    p.add_argument("--fn", required=True)
    p.add_argument("--a", type=_finite, default=1.0)
    p.add_argument("--h", type=_finite, default=1.0)
    p.add_argument("--range", required=True)
    p.add_argument("--out", required=True)

    return parser


_COMMANDS = {
    "eval": cmd_eval,
    "sum": cmd_sum,
    "taylor": cmd_taylor,
    "graph": cmd_graph,
    "forms": cmd_forms,
    "pde": cmd_pde,
    "plot": cmd_plot,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, OverflowError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

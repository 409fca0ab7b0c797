"""Command-line front door for the difference-calculus engine.

Subcommands cover expression evaluation, definite sums, Newton-Gregory
interpolation, graph/topology reports, operator matrices and integral
theorems, PDE flows, and SVG comparison plots of the deformed functions
against their classical counterparts.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from typing import TYPE_CHECKING

from . import DomainError, ParseError

# Each subcommand imports the library modules it runs, and a reader of exact input imports fractions:
# a graph command loads neither numcore nor forms, and only a `pde` flow past
# evolution.DENSE_CROSSOVER loads discalc.spectral and numpy.  The annotations name modules
# without importing them.
if TYPE_CHECKING:
    from . import complexes as cx
    from . import forms
    from .numcore import Sequence


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def fmt(value) -> str:
    """Deterministic scalar formatting: exact integers/rationals as such,
    floats with 12 significant digits."""
    if getattr(value, "denominator", 1) != 1:  # a rational p/q with q > 1; an integer prints as itself
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
    """The data rows of a CSV file: blank, '#' comment and header rows are skipped; a malformed file
    (a field past csv.field_size_limit(), say) is a UsageError."""
    import csv

    with open(path, "r", encoding="utf-8") as fh:
        try:
            for row in csv.reader(fh):
                first = row[0].strip() if row else ""
                if first.startswith("#") or first == header or not "".join(row).strip():
                    continue
                if len(row) < width:
                    raise UsageError(f"{path}: row {','.join(row)!r} needs {width} columns")
                yield row
        except csv.Error as exc:
            raise UsageError(str(exc)) from None


def _load_graph(args) -> cx.Graph:
    from . import complexes as cx

    if args.gen:
        return _parsed(cx.parse_generator, args.gen, "--gen")
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            return _parsed(cx.Graph.from_json, fh.read(), args.file)
    raise UsageError("need --gen NAME[:N] or --file PATH")


def _rational(text: str):
    """The exact rational that text spells (3, -2/3, 1e-11).  fractions is imported here, by the first
    exact value a command reads, so a command that reads none never loads it."""
    from fractions import Fraction

    return Fraction(text)


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
        value = _parsed(_rational if "/" in row[2] or "." not in row[2] else _finite, row[2], path)
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
    from .numcore import Sequence

    pairs = []
    for row in _csv_rows(path, "x", 2):
        text = row[1].strip()
        value = _parsed(_finite if ("." in text or "e" in text or "E" in text) else _rational, text, path)
        if not isinstance(value, float) and value.denominator == 1:
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
    from .numcore import Sequence

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
    cls = tp.classify(c)  # classify, the last action argparse admits
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
        from . import vector

        F = _load_form(args.form, c, degree)
        lhs, rhs = vector.stokes_sides(c, list(c.simplices[degree + 1]), F)
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


def cmd_plot(args, out):
    from . import plot

    lo_text, _, hi_text = args.range.partition(":")
    lo, hi = _parsed(_finite, lo_text, "--range LO:HI"), _parsed(_finite, hi_text, "--range LO:HI")
    if not 0 < (hi - lo) * plot.STEPS < math.inf:  # every sample point stays finite
        raise UsageError("range needs LO < HI, at most 4e305 apart")
    curves = _parsed(lambda fn: plot.curves(fn, args.a, args.h), args.fn, "--fn pow:N")
    if curves is None:
        raise UsageError(f"unknown plot function {args.fn!r}")
    text = plot.svg(*curves, lo, hi, positive=args.fn == "log")
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    out.write(f"wrote {args.out}\n")
    return 0


# ---------------------------------------------------------------------------
# Argument wiring


# subcommand -> (help, arguments), each argument a pair (names, add_argument keywords), in help order
_SUBCOMMANDS = {
    "eval": ("evaluate an expression at an integer point", [
        (["expression"], {}),
        (["--at"], {"type": int, "required": True}),
        (["--op"], {"choices": ["none", "diff", "sum"], "default": "none"}),
    ]),
    "sum": ("definite sum with inclusive bounds", [
        (["expression"], {}),
        (["--from"], {"dest": "lo", "type": int, "required": True}),
        (["--to"], {"dest": "hi", "type": int, "required": True}),
    ]),
    "taylor": ("Newton-Gregory interpolation of samples", [
        (["--samples"], {"required": True}),
        (["--eval"], {"type": int, "default": None}),
        (["--print"], {"dest": "print_form", "action": "store_true"}),
    ]),
    "graph": ("graph and topology reports", [
        (["action"], {"choices": ["info", "betti", "curvature", "indices", "classify"]}),
        (["--gen"], {"default": None}),
        (["--file"], {"default": None}),
        (["--fn"], {"default": None}),
    ]),
    "forms": ("operator matrices and integral theorems", [
        (["action"], {"choices": ["dirac", "laplacian", "stokes", "poisson"]}),
        (["--gen"], {"default": None}),
        (["--file"], {"default": None}),
        (["--form"], {"default": None}),
        (["--current"], {"default": None}),
        (["--degree"], {"type": int, "default": None}),
    ]),
    "pde": ("heat, wave and Schroedinger flows", [
        (["action"], {"choices": ["heat", "wave", "schrodinger"]}),
        (["--t"], {"type": _finite, "required": True}),
        (["--form"], {"required": True}),
        (["--velocity"], {"default": None}),
        (["--gen"], {"default": None}),
        (["--file"], {"default": None}),
        (["--degree"], {"type": int, "default": None}),
    ]),
    "plot": ("SVG comparison of deformed vs classical", [
        (["--fn"], {"required": True}),
        (["--a"], {"type": _finite, "default": 1.0}),
        (["--h"], {"type": _finite, "default": 1.0}),
        (["--range"], {"required": True}),
        (["--out"], {"required": True}),
    ]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with only the subparser of ``command`` when that names a subcommand, else with all of them.

    An argv whose first word is a subcommand parses the same either way: everything after that word
    goes to its subparser.  Any other argv (none, ``-h``, an unknown command) needs every subparser,
    for the command list in the help and in the error."""
    parser = _Parser(prog="discalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in _SUBCOMMANDS.items():
        if command in _SUBCOMMANDS and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        for names, options in arguments:
            p.add_argument(*names, **options)
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
    """Run one command; with no ``argv``, the command of ``sys.argv`` as the process entry.

    The process entry freezes the garbage collector's objects once the command has run, so that
    interpreter shutdown does not walk them again; a call with an ``argv``, from a test or a
    replay that goes on running, leaves the collector as it is."""
    if argv is not None:
        return _run(list(argv))
    try:
        return _run(sys.argv[1:])
    finally:
        gc.freeze()


def _run(argv: list) -> int:
    parser = build_parser(argv[0] if argv else None)
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
    except (OSError, UnicodeDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

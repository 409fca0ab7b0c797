"""Command-line front door for the difference-calculus engine.

Subcommands cover expression evaluation, definite sums, Newton-Gregory
interpolation, graph/topology reports, operator matrices and integral
theorems, PDE flows, and SVG comparison plots of the deformed functions
against their classical counterparts.
"""

from __future__ import annotations

import gc
import importlib
import math
import os
import sys
import types

from . import DomainError, ParseError, full_str, normalized

# Each subcommand imports the library modules it runs, and a reader of exact input imports fractions:
# a scalar command loads no graph module, a graph command loads neither numcore nor forms, graph info and
# betti load discalc.homology but not discalc.topology, and only a `pde` flow past
# evolution.DENSE_CROSSOVER loads discalc.spectral and numpy.  The graph handler lives in discalc.graphcli,
# the forms and pde handlers in discalc.formscli; both read their graphs and CSV files through the loaders
# here.  argparse is loaded only for a command line that _read_argv declines.
# The annotations name modules without importing them.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse

    from . import complexes as cx
    from . import forms
    from .numcore import Sequence


class UsageError(Exception):
    pass


def fmt(value) -> str:
    """Deterministic scalar formatting: exact integers and rationals (p/q) in full,
    floats with 12 significant digits."""
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, complex):
        return f"{format(value.real, '.12g')}{'+' if value.imag >= 0 else '-'}{format(abs(value.imag), '.12g')}i"
    return full_str(value)


def _finite(text: str) -> float:
    """A float that is neither infinite nor nan; argparse, whose error names the failure, is imported to raise it."""
    value = float(text)
    if not math.isfinite(value):
        from argparse import ArgumentTypeError

        raise ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _parsed(kind, text, where: str):
    """kind(text); malformed input is a UsageError, a DomainError stays one."""
    try:
        return kind(text)
    except DomainError:
        raise
    except Exception as exc:
        from argparse import ArgumentTypeError  # what _finite raises; loaded here only on a failing read

        if not isinstance(exc, (ValueError, KeyError, TypeError, ZeroDivisionError, ArgumentTypeError)):
            raise
        raise UsageError(f"cannot read {where}: {type(exc).__name__}: {exc}") from None


def _csv_table(path: str, header: str, width: int, read, name) -> dict:
    """{key: value} in row order, from the (key, value) pair that ``read`` makes of each data row of a CSV file;
    blank, '#' comment and header rows are skipped.  Every row is read before any is judged, so a malformed file
    (a short row, an unreadable cell, a field past csv.field_size_limit()) is a UsageError even after a key
    given twice, which is otherwise a DomainError naming the key as ``name(key)``."""
    import csv

    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for row in csv.reader(fh):
                first = row[0].strip() if row else ""
                if first.startswith("#") or first == header or not "".join(row).strip():
                    continue
                if len(row) < width:
                    raise UsageError(f"{path}: row {','.join(row)!r} needs {width} columns")
                pairs.append(read(row))
        except csv.Error as exc:
            raise UsageError(str(exc)) from None
    table = {}
    for key, value in pairs:
        if key in table:
            raise DomainError(f"{name(key)} given twice")
        table[key] = value
    return table


def _rational(text: str):
    """The exact rational that text spells (3, -2/3, 1e-11), an ``int`` when it is integral: int
    comparisons and sums cost less.  fractions is imported here, by the first exact value a command reads,
    so a command that reads none never loads it."""
    from fractions import Fraction

    return normalized(Fraction(text))


def _csv_value(text: str, path: str):
    """A value of a samples or form file: exact when it has no '.' or has a '/' (3, -2/3, 1e-3), else a
    finite float (0.5, 1.5e-3)."""
    return _parsed(_rational if "/" in text or "." not in text else _finite, text, path)


def _load_graph(args) -> cx.Graph:
    from . import complexes as cx

    if args.gen:
        return _parsed(cx.parse_generator, args.gen, "--gen")
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            return _parsed(cx.Graph.from_json, fh.read(), args.file)
    raise UsageError("need --gen NAME[:N] or --file PATH")


def _load_samples(path: str) -> Sequence:
    from .numcore import Sequence

    table = _csv_table(path, "x", 2, lambda row: (_parsed(int, row[0], path), _csv_value(row[1].strip(), path)),
                       "x = {}".format)
    if not table:
        raise DomainError("no samples in file")
    xs = sorted(table)
    if xs[-1] - xs[0] != len(xs) - 1:  # the xs are distinct
        raise DomainError("samples must cover consecutive integers")
    return Sequence(xs[0], tuple(table[x] for x in xs))


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
    from . import interpolate as ip
    from .numcore import Sequence

    samples = _load_samples(args.samples)
    print_form = args.print_form or args.eval is None
    if print_form and samples.base != 0:  # checked before the first write: an error leaves stdout empty
        raise DomainError("--print needs samples anchored at x = 0")
    # built once for both answers; a nonzero window start is handled by shifting the variable
    table = ip.forward_differences(Sequence(0, samples.values))
    if args.eval is not None:
        out.write(fmt(ip.newton_gregory_eval(table, args.eval - samples.base)) + "\n")
    if print_form:
        from . import expr  # only the fitted form is an expression: --eval alone never loads the language

        out.write(expr.to_string(ip.interpolate_fit(table)) + "\n")
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


# subcommand -> (module of its handler cmd_<subcommand>, help, arguments), each argument a pair (names,
# add_argument keywords), in help order
_SUBCOMMANDS = {
    "eval": ("cli", "evaluate an expression at an integer point", [
        (["expression"], {}),
        (["--at"], {"type": int, "required": True}),
        (["--op"], {"choices": ["none", "diff", "sum"], "default": "none"}),
    ]),
    "sum": ("cli", "definite sum with inclusive bounds", [
        (["expression"], {}),
        (["--from"], {"dest": "lo", "type": int, "required": True}),
        (["--to"], {"dest": "hi", "type": int, "required": True}),
    ]),
    "taylor": ("cli", "Newton-Gregory interpolation of samples", [
        (["--samples"], {"required": True}),
        (["--eval"], {"type": int, "default": None}),
        (["--print"], {"dest": "print_form", "action": "store_true"}),
    ]),
    "graph": ("graphcli", "graph and topology reports", [
        (["action"], {"choices": ["info", "betti", "curvature", "indices", "classify"]}),
        (["--gen"], {"default": None}),
        (["--file"], {"default": None}),
        (["--fn"], {"default": None}),
    ]),
    "forms": ("formscli", "operator matrices and integral theorems", [
        (["action"], {"choices": ["dirac", "laplacian", "stokes", "poisson"]}),
        (["--gen"], {"default": None}),
        (["--file"], {"default": None}),
        (["--form"], {"default": None}),
        (["--current"], {"default": None}),
        (["--degree"], {"type": int, "default": None}),
    ]),
    "pde": ("formscli", "heat, wave and Schroedinger flows", [
        (["action"], {"choices": ["heat", "wave", "schrodinger"]}),
        (["--t"], {"type": _finite, "required": True}),
        (["--form"], {"required": True}),
        (["--velocity"], {"default": None}),
        (["--gen"], {"default": None}),
        (["--file"], {"default": None}),
        (["--degree"], {"type": int, "default": None}),
    ]),
    "plot": ("cli", "SVG comparison of deformed vs classical", [
        (["--fn"], {"required": True}),
        (["--a"], {"type": _finite, "default": 1.0}),
        (["--h"], {"type": _finite, "default": 1.0}),
        (["--range"], {"required": True}),
        (["--out"], {"required": True}),
    ]),
}


def _negative_number(word: str) -> bool:
    """word is -N, -N.N or -.N in ASCII digits: a strict subset of the words argparse reads as a negative
    number, so as a value and not an option, in a parser with no option that looks like one."""
    if not (word.startswith("-") and word.isascii()):
        return False
    whole, dot, fraction = word[1:].partition(".")
    if dot:
        return (not whole or whole.isdigit()) and fraction.isdigit()
    return whole.isdigit()


def _read_argv(argv: list) -> types.SimpleNamespace | None:
    """The arguments of a plain command line, read by the table _SUBCOMMANDS; None when argparse must read it.

    A plain command line is a command word, then its positional argument and its options, by their exact
    names, as ``--opt value`` or ``--opt=value``, in any order.  Each value is converted by its ``type`` and
    must be one of its ``choices``; an option given twice keeps its last value, as in argparse.  A separate
    value may start with ``-`` only as a plain negative number.  Anything else is None: help, ``--``, an
    abbreviation, an unknown word, a second positional, a failed conversion, a value outside the choices or a
    missing required argument.  argparse reads those, so help and every usage error keep its text."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    values, options, required, given, positional = {"command": argv[0]}, {}, set(), set(), None
    for (name,), spec in _SUBCOMMANDS[argv[0]][2]:
        dest = spec.get("dest", name.lstrip("-"))
        if not name.startswith("-"):
            positional = dest, spec
            required.add(dest)
            continue
        options[name] = dest, spec
        values[dest] = spec.get("default", False if spec.get("action") == "store_true" else None)
        if spec.get("required"):
            required.add(dest)
    words = iter(argv[1:])
    for word in words:
        if word.startswith("-") and not _negative_number(word):
            name, eq, text = word.partition("=")
            if name not in options:  # help, '--', an abbreviation or an unknown option
                return None
            dest, spec = options[name]
            if spec.get("action") == "store_true":
                if eq:
                    return None
                values[dest] = True
                continue
            if not eq:
                text = next(words, None)
                if text is None or (text.startswith("-") and not _negative_number(text)):
                    return None
        elif positional is None or positional[0] in given:
            return None
        else:
            (dest, spec), text = positional, word
        try:
            value = spec["type"](text) if "type" in spec else text
        except Exception:  # argparse reports the failure in its own words
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[dest] = value
        given.add(dest)
    return types.SimpleNamespace(**values) if required <= given else None


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of all seven subcommands, which reads only a command line that _read_argv declines:
    help, abbreviations and every usage error."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

    parser = _Parser(prog="discalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for names, options in arguments:
            p.add_argument(*names, **options)
    return parser


def _handler(command: str):
    """cmd_<command> in the module that _SUBCOMMANDS names for it, looked up as it runs so that a rebound name
    is called; a handler module loads for its own commands only."""
    return getattr(importlib.import_module(f"{__package__}.{_SUBCOMMANDS[command][0]}"), f"cmd_{command}")


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
    try:
        args = _read_argv(argv) or build_parser().parse_args(argv)
        code = _handler(args.command)(args, sys.stdout)
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
    except (DomainError, OverflowError, RecursionError) as exc:  # RecursionError: an expression nested too deeply
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

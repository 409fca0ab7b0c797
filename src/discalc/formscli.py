"""The ``forms`` and ``pde`` handlers and the loaders of their inputs: forms and state vectors.

``discalc.cli`` imports this module when one of the two commands runs, so neither a scalar nor a ``graph``
command compiles it.  Matrices print through ``cli._print_matrix``, looked up on the module at each call, so
that a wrapper bound there (the benchmark's tracer books matrix printing as ``cli.format_s``) sees every matrix.
"""

from __future__ import annotations

from . import DomainError, cli
from .cli import UsageError, _csv_rows, _csv_value, _load_graph, _parsed, fmt

TYPE_CHECKING = False
if TYPE_CHECKING:
    from . import complexes as cx
    from . import forms

# Most cells forms dirac and forms laplacian print, checked from the simplex counts before any row is built.
# A cell prints as two bytes: on a 2-core VM, forms dirac --gen hexpatch:20 printed 53.6e6 cells (107 MB) in
# 1.1 s and forms laplacian --gen hexpatch:30 --degree 1 67.1e6 cells (134 MB) in 1.5 s, so the bound is about
# 200 MB and 2 s of output.  Past it, forms dirac --gen hexpatch:24 (110.5e6 cells) is refused in 0.09 s.
# The largest matrices the tests and the benchmark print, D and L of hexpatch:5 (481 x 481), have 0.23e6 cells.
MAX_PRINTED_CELLS = 10**8


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
        value = _csv_value(row[2], path)
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


def _simplex_name(simplex: tuple) -> str:
    return "-".join(str(v) for v in simplex)


def _check_printable(side: int):
    """DomainError when a side x side matrix has more than MAX_PRINTED_CELLS cells."""
    if side * side > MAX_PRINTED_CELLS:
        raise DomainError(f"a {side} x {side} matrix has {side * side} cells; "
                          f"forms prints at most {MAX_PRINTED_CELLS}")


def cmd_forms(args, out):
    from . import complexes as cx
    from . import forms

    g = _load_graph(args)
    c = cx.build_complex(g)
    if args.action == "dirac":
        _check_printable(forms.total_dim(c))
        cli._print_matrix(forms.dirac(c), out)
        return 0
    if args.action == "laplacian":
        if args.degree is not None:
            _check_printable(c.count(args.degree))
            cli._print_matrix(forms.laplacian_block(c, args.degree), out)
        else:
            _check_printable(forms.total_dim(c))
            cli._print_matrix(forms.laplacian(c), out)
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
    from . import evolution as ev  # poisson, the last action the command line admits

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
    f0 = _load_state_vector(args.form, c)  # wave, the last action the command line admits
    g0 = _load_state_vector(args.velocity, c) if args.velocity else [0.0] * forms.total_dim(c)
    write_state(range(c.top_dim + 1), ev.wave_flow(c, f0, g0, args.t)[0])
    return 0

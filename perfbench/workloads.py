"""The three workloads: seeded inputs, fixed op lists and output checks.

An op is one ``discalc`` command line.  Its check reads the op's stdout
and returns ``None`` when the output is right or a message saying what is
wrong.  Checks compare against the independent oracles in ``graphs`` and
against exact integer arithmetic done here, never against ``discalc``.

Two documented defects of the program stay in the op lists as probes.
A probe passes when the program gives the true answer, and is reported as
a known defect when it shows exactly the documented wrong output; any
other output is a failure.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import graphs as G


@dataclass
class Op:
    argv: list
    check: Callable[[str], Optional[str]]
    rc: int = 0
    # (rc, stdout, stderr) -> True when the documented defect shows
    known_defect: Optional[Callable[[int, str, str], bool]] = None
    label: str = ""


@contextlib.contextmanager
def _unlimited_int_str():
    """Allow exact expected values longer than the interpreter's default
    4300-digit conversion limit, for this process's checks only."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def classify_outcome(op: Op, rc: int, stdout: str, stderr: str) -> tuple:
    """('ok' | 'known' | 'failed', message)."""
    problem = None
    if "Traceback" in stderr:
        problem = "traceback: " + stderr.strip().splitlines()[-1][:200]
    elif rc != op.rc:
        problem = f"exit {rc}, expected {op.rc}: {stderr.strip()[:200]}"
    else:
        try:
            with _unlimited_int_str():
                problem = op.check(stdout)
        except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            problem = f"unparsable output ({type(exc).__name__}: {exc})"
    if problem is None:
        return "ok", ""
    if op.known_defect is not None and op.known_defect(rc, stdout, stderr):
        return "known", problem
    return "failed", problem


# ---------------------------------------------------------------------------
# Input files


class Inputs:
    """Writes seeded input files into one directory."""

    def __init__(self, root: str, rng: random.Random):
        self.root = root
        self.rng = rng
        self.graphs = 0
        os.makedirs(root, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def write(self, name: str, text: str) -> str:
        p = self.path(name)
        with open(p, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        return p

    def graph(self, spec: str) -> tuple:
        """Seeded relabelling of a reference graph, written as JSON."""
        base = G.build(spec)
        perm = list(range(base.n))
        self.rng.shuffle(perm)
        g = base.relabel(perm)
        self.graphs += 1
        return g, self.write(f"graph{self.graphs}_{spec.replace(':', '')}.json", g.to_json())

    def value(self) -> Fraction:
        """Small exact value: an integer or a fraction with denominator <= 4."""
        return Fraction(self.rng.randint(-9, 9), self.rng.randint(1, 4))


def _fmt_exact(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _simplex(s) -> str:
    return "-".join(str(v) for v in s)


def _form_csv(rows) -> str:
    return "degree,simplex,value\n" + "".join(f"{k},{_simplex(s)},{v}\n" for k, s, v in rows)


# ---------------------------------------------------------------------------
# Output parsers


def _csv_rows(text: str, header: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return [line.split(",") for line in lines[1:]]


def _keyed_values(text: str, header: str, kind=float) -> dict:
    """simplex name -> value from 't,k:simplex,value' or 'degree,simplex,value'."""
    out = {}
    for row in _csv_rows(text, header):
        out[row[1].split(":")[-1]] = kind(row[2])
    return out


def _matrix(text: str) -> list:
    return [[int(t) for t in line.split()] for line in text.splitlines()]


def _complex_value(text: str) -> complex:
    return complex(text.replace("i", "j"))


# ---------------------------------------------------------------------------
# Graph checks (exact_topology)


def _check_betti(spec: str):
    want = G.expected_betti(spec)
    counts = G.build(spec).counts()

    def check(out):
        got = tuple(int(t) for t in out.removeprefix("betti: ").split())
        if got != want:
            return f"betti {got}, expected {want}"
        if G.euler(got) != G.euler(counts):
            return "Euler-Poincare fails"
        return None
    return check


def _check_info(spec: str):
    counts = G.build(spec).counts()
    want = "counts: " + " ".join(map(str, counts)) + f"\nchi: {G.euler(counts)}\n"
    return lambda out: None if out == want else f"info {out!r}, expected {want!r}"


def _check_curvature(spec: str):
    g = G.build(spec)
    want = sorted(G.curvature(g, x) for x in range(g.n))
    chi = G.euler(g.counts())

    def check(out):
        rows = _csv_rows(out, "vertex,curvature")
        values = [Fraction(r[1]) for r in rows[:-1]]
        if rows[-1][0] != "total" or Fraction(rows[-1][1]) != chi or sum(values) != chi:
            return "Gauss-Bonnet total differs from chi"
        return None if sorted(values) == want else "per-vertex curvatures differ"
    return check


def _check_indices(g: G.RefGraph, f: list):
    want = [G.index(g, f, x) for x in range(g.n)]
    curv = [G.curvature(g, x) for x in range(g.n)]
    chi = G.euler(g.counts())

    def check(out):
        rows = _csv_rows(out, "vertex,index,class,curvature")
        got = [int(r[1]) for r in rows[:-1]]
        if got != want:
            return "indices differ from 1 - chi(S^-(x))"
        if [Fraction(r[3]) for r in rows[:-1]] != curv:
            return "curvature column differs"
        if rows[-1][0] != "total" or int(rows[-1][1]) != chi or sum(got) != chi:
            return "Poincare-Hopf total differs from chi"
        return None
    return check


# (kind, flat) of the families the classify ops use
_KIND = {"hexpatch": ("surface", True), "annulus": ("surface", True)}


def _check_classify(spec: str):
    kind, flat = _KIND[G.family(spec)[0]]
    g = G.build(spec)
    boundary = sum(1 for x in range(g.n) if G.is_path(g.induced(g.adj[x])))

    def check(out):
        lines = out.splitlines()
        if lines[0] != f"kind: {kind}" or lines[2] != f"flat: {'yes' if flat else 'no'}":
            return f"classification {lines[0]!r}/{lines[2]!r}"
        got = len(lines[1].removeprefix("boundary:").split())
        return None if got == boundary else f"{got} boundary vertices, expected {boundary}"
    return check


def _boundary_circulation(g: G.RefGraph, form: dict):
    """Circulation of a 1-form around the single boundary cycle of a disc."""
    tri_count = {e: 0 for e in g.edges()}
    for a, b, c in g.cliques()[2]:
        for e in ((a, b), (a, c), (b, c)):
            tri_count[e] += 1
    nbr = {}
    for (a, b), n in tri_count.items():
        if n == 1:
            nbr.setdefault(a, []).append(b)
            nbr.setdefault(b, []).append(a)
    start = min(nbr)
    prev, cur, total = None, start, Fraction(0)
    while True:
        nxt = nbr[cur][0] if nbr[cur][0] != prev else nbr[cur][1]
        total += form[(cur, nxt)] if cur < nxt else -form[(nxt, cur)]
        prev, cur = cur, nxt
        if cur == start:
            return total


def _check_stokes(g: G.RefGraph, form: dict, closed: bool):
    expected = Fraction(0) if closed else abs(_boundary_circulation(g, form))

    def check(out):
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        lhs, rhs = Fraction(lines["surface_integral"]), Fraction(lines["boundary_integral"])
        if lines["residual"] != "0" or lhs != rhs:
            return f"Stokes residual {lines['residual']}"
        return None if abs(rhs) == expected else f"boundary integral {rhs}, expected +-{expected}"
    return check


def _expect_domain_error(out):
    return None if out == "" else "stdout not empty on a domain error"


def _betti_cap_defect(spec: str):
    """complete:n for n >= 10 hits the max_dim=8 cap in the CLI: the complex
    is cut after dimension 8, whose Betti number then carries chi - 1."""
    counts = G.build(spec).counts()[:9]
    wrong = "betti: 1 " + "0 " * 7 + f"{G.euler(counts) - 1}\n"
    return lambda rc, out, err: rc == 0 and out == wrong


def _info_cap_defect(spec: str):
    counts = G.build(spec).counts()[:9]
    wrong = "counts: " + " ".join(map(str, counts)) + f"\nchi: {G.euler(counts)}\n"
    return lambda rc, out, err: rc == 0 and out == wrong


def exact_topology(inputs: Inputs, small: bool) -> list:
    rng = inputs.rng
    wheel = f"wheel:{rng.randint(5, 9)}"
    if small:
        betti = ["hexpatch:2", "complete:4", "icosahedron", "moebius", wheel]
        info, curv, indices, classify = ["hexpatch:2"], ["octahedron"], ["octahedron"], ["hexpatch:2"]
        stokes = ["hexpatch:2"]
    else:
        # hexpatch:8 and up are left out: betti takes 7.5 s and more there at baseline
        betti = ["hexpatch:2", "hexpatch:4", "hexpatch:5", "hexpatch:6", "hexpatch:7", "complete:6",
                 "complete:8", "complete:9", "icosahedron", "octahedron", "annulus:3", "moebius", wheel]
        info, curv, indices, classify = ["hexpatch:6"], ["hexpatch:12"], ["hexpatch:12", "annulus:3"], ["hexpatch:12"]
        stokes = ["hexpatch:6", wheel]
    ops = [Op(["graph", "betti", "--gen", s], _check_betti(s), label=f"betti {s}") for s in betti]
    ops += [Op(["graph", "info", "--gen", s], _check_info(s), label=f"info {s}") for s in info]
    ops += [Op(["graph", "curvature", "--gen", s], _check_curvature(s), label=f"curvature {s}") for s in curv]
    for s in indices:
        g, path = inputs.graph(s)
        values = list(range(g.n))
        rng.shuffle(values)
        f = [3 * v - g.n for v in values]
        fn = inputs.write(f"fn_{s.replace(':', '')}.csv", "vertex,value\n" + "".join(f"{v},{f[v]}\n" for v in range(g.n)))
        ops.append(Op(["graph", "indices", "--file", path, "--fn", fn], _check_indices(g, f), label=f"indices {s}"))
    ops += [Op(["graph", "classify", "--gen", s], _check_classify(s), label=f"classify {s}") for s in classify]
    for s in stokes + ["icosahedron", "moebius"]:
        g, path = inputs.graph(s)
        form = {e: inputs.value() for e in g.edges()}
        csv = inputs.write(f"stokes_{s.replace(':', '')}.csv", _form_csv((1, e, _fmt_exact(v)) for e, v in form.items()))
        if s == "moebius":
            ops.append(Op(["forms", "stokes", "--file", path, "--form", csv], _expect_domain_error, rc=2,
                          label="stokes moebius (non-orientable)"))
        else:
            ops.append(Op(["forms", "stokes", "--file", path, "--form", csv],
                          _check_stokes(g, form, closed=s == "icosahedron"), label=f"stokes {s}"))
    # max_dim=8 cap: from complete:10 on, betti and chi are wrong
    ops.append(Op(["graph", "betti", "--gen", "complete:10"], _check_betti("complete:10"),
                  known_defect=_betti_cap_defect("complete:10"), label="betti complete:10 (cap probe)"))
    ops.append(Op(["graph", "info", "--gen", "complete:10"], _check_info("complete:10"),
                  known_defect=_info_cap_defect("complete:10"), label="info complete:10 (cap probe)"))
    return ops


# ---------------------------------------------------------------------------
# Flow and operator checks (spectral_flows)

FLOAT_TOL = 1e-8


def _norm2(values) -> float:
    return sum(abs(v) ** 2 for v in values)


def _check_heat0(g: G.RefGraph, f0: list):
    mass = sum(f0)

    def check(out):
        vals = _keyed_values(out, "t,simplex,value")
        got = [vals[str(v)] for v in range(g.n)]
        if abs(sum(got) - mass) > FLOAT_TOL * (1 + sum(abs(v) for v in f0)):
            return f"heat k=0 mass {sum(got)!r}, expected {mass}"
        if min(got) < min(f0) - FLOAT_TOL or max(got) > max(f0) + FLOAT_TOL:
            return "heat k=0 leaves the range of its initial values"
        return None
    return check


def _check_contracting(names: list, start: dict, label: str):
    """Norm of a heat (k=1) or wave (zero velocity) state never grows."""
    limit = _norm2(start.values()) * (1 + FLOAT_TOL) + FLOAT_TOL

    def check(out):
        vals = _keyed_values(out, "t,simplex,value")
        if sorted(vals) != sorted(names):
            return f"{label}: rows do not cover the simplices"
        return None if _norm2(vals.values()) <= limit else f"{label}: norm grew"
    return check


def _check_unitary(names: list, start: dict):
    want = _norm2(start.values())

    def check(out):
        vals = _keyed_values(out, "t,simplex,value", _complex_value)
        if sorted(vals) != sorted(names):
            return "schrodinger: rows do not cover the simplices"
        got = _norm2(vals.values())
        return None if abs(got - want) <= FLOAT_TOL * want else f"schrodinger norm {got!r}, expected {want}"
    return check


def _check_poisson(g: G.RefGraph, j: dict):
    edges, tris = g.edges(), g.cliques()[2]
    scale = 1 + max(abs(v) for v in j.values())

    def check(out):
        rows = _csv_rows(out, "degree,simplex,value")
        A = {tuple(map(int, r[1].split("-"))): float(r[2]) for r in rows if r[0] == "1"}
        F = {tuple(map(int, r[1].split("-"))): float(r[2]) for r in rows if r[0] == "2"}
        if sorted(A) != edges or sorted(F) != tris:
            return "poisson: rows do not cover edges and triangles"
        div = [0.0] * g.n
        for (a, b), v in A.items():
            div[a] -= v
            div[b] += v
        if max(map(abs, div)) > FLOAT_TOL * scale:
            return "poisson: Coulomb gauge d0* A = 0 fails"
        curl_t = {j_: 0.0 for j_ in j}
        for (a, b, c), v in F.items():
            if abs(A[(b, c)] - A[(a, c)] + A[(a, b)] - v) > FLOAT_TOL * scale:
                return "poisson: F != dA"
            curl_t[(b, c)] += v
            curl_t[(a, c)] -= v
            curl_t[(a, b)] += v
        if max(abs(curl_t[e] - j[e]) for e in edges) > FLOAT_TOL * scale:
            return "poisson: d1* F != j"
        return None
    return check


def _check_dirac(counts: tuple):
    n = sum(counts)
    nnz = 2 * sum((k + 2) * counts[k + 1] for k in range(len(counts) - 1))

    def check(out):
        m = _matrix(out)
        if len(m) != n or any(len(r) != n for r in m):
            return f"dirac is not {n}x{n}"
        if any(m[i][k] != m[k][i] for i in range(n) for k in range(i)):
            return "dirac is not symmetric"
        flat = [v for r in m for v in r]
        if any(v not in (-1, 0, 1) for v in flat) or sum(1 for v in flat if v) != nnz:
            return "dirac entries are not the signed incidences"
        return None
    return check


def _check_laplacian(counts: tuple):
    n = sum(counts)
    offsets = [sum(counts[:k]) for k in range(len(counts) + 1)]
    degree = [k for k in range(len(counts)) for _ in range(counts[k])]
    trace = 2 * sum((k + 2) * counts[k + 1] for k in range(len(counts) - 1))

    def check(out):
        m = _matrix(out)
        if len(m) != n or any(len(r) != n for r in m):
            return f"laplacian is not {n}x{n}"
        for i in range(n):
            for k in range(n):
                if m[i][k] != m[k][i] or (m[i][k] and degree[i] != degree[k]):
                    return "laplacian is not symmetric and block diagonal"
        if sum(m[i][i] for i in range(n)) != trace:
            return "trace(D^2) differs from |D|_F^2"
        if any(sum(m[i][offsets[0]:offsets[1]]) for i in range(offsets[1])):
            return "L_0 rows do not sum to zero"
        return None
    return check


def _check_laplacian1(spec: str):
    g = G.build(spec)
    tri_count = {e: 0 for e in g.edges()}
    for a, b, c in g.cliques()[2]:
        for e in ((a, b), (a, c), (b, c)):
            tri_count[e] += 1
    diag = sorted(2 + t for t in tri_count.values())
    m_edges = len(tri_count)

    def check(out):
        m = _matrix(out)
        if len(m) != m_edges or any(len(r) != m_edges for r in m):
            return f"L_1 is not {m_edges}x{m_edges}"
        if any(m[i][k] != m[k][i] for i in range(m_edges) for k in range(i)):
            return "L_1 is not symmetric"
        return None if sorted(m[i][i] for i in range(m_edges)) == diag else "L_1 diagonal is not 2 + #triangles"
    return check


def _state(inputs: Inputs, g: G.RefGraph, degrees) -> tuple:
    """Random real state on the simplices of the given degrees."""
    levels = g.cliques()
    rows = [(k, s, round(inputs.rng.uniform(-5, 5), 3)) for k in degrees if k < len(levels) for s in levels[k]]
    names = [_simplex(s) for _, s, _ in rows]
    return rows, names, {_simplex(s): v for _, s, v in rows}


def spectral_flows(inputs: Inputs, small: bool) -> list:
    rng = inputs.rng
    if small:
        heat0, heat1, wave, schrod = ["hexpatch:2"], ["hexpatch:2"], ["hexpatch:2"], ["icosahedron"]
        poisson, lap, lap1, dirac = ["complete:6"], ["hexpatch:2"], ["hexpatch:2"], ["complete:6"]
    else:
        heat0, heat1 = ["hexpatch:6", "icosahedron"], ["hexpatch:5", "hexpatch:6"]
        wave, schrod = ["hexpatch:5", "icosahedron"], ["hexpatch:5", "hexpatch:6", "icosahedron"]
        poisson = ["hexpatch:5", "icosahedron", "annulus:3"]
        lap, lap1 = ["hexpatch:4", "hexpatch:5"], ["hexpatch:5", "hexpatch:6"]
        dirac = ["hexpatch:4", "hexpatch:5", "complete:6"]
    t = lambda: f"{rng.uniform(0.1, 2.0):.3f}"  # noqa: E731
    ops = []
    for s in heat0:
        g, path = inputs.graph(s)
        f0 = [rng.randint(-9, 9) for _ in range(g.n)]
        csv = inputs.write(f"heat0_{s.replace(':', '')}.csv", _form_csv((0, (v,), f0[v]) for v in range(g.n)))
        ops.append(Op(["pde", "heat", "--file", path, "--t", t(), "--form", csv], _check_heat0(g, f0), label=f"heat k=0 {s}"))
    for s in heat1:
        g, path = inputs.graph(s)
        rows, names, start = _state(inputs, g, [1])
        csv = inputs.write(f"heat1_{s.replace(':', '')}.csv", _form_csv(rows))
        ops.append(Op(["pde", "heat", "--file", path, "--t", t(), "--form", csv, "--degree", "1"],
                      _check_contracting(names, start, "heat k=1"), label=f"heat k=1 {s}"))
    for s in wave:
        g, path = inputs.graph(s)
        rows, names, start = _state(inputs, g, [0, 1, 2])
        csv = inputs.write(f"wave_{s.replace(':', '')}.csv", _form_csv(rows))
        ops.append(Op(["pde", "wave", "--file", path, "--t", t(), "--form", csv],
                      _check_contracting(names, start, "wave"), label=f"wave {s}"))
    for s in schrod:
        g, path = inputs.graph(s)
        rows, names, start = _state(inputs, g, [0, 1, 2])
        csv = inputs.write(f"psi_{s.replace(':', '')}.csv", _form_csv(rows))
        ops.append(Op(["pde", "schrodinger", "--file", path, "--t", t(), "--form", csv],
                      _check_unitary(names, start), label=f"schrodinger {s}"))
    for s in poisson:
        g, path = inputs.graph(s)
        j = {e: 0 for e in g.edges()}
        for a, b, c in g.cliques()[2]:  # j = d1* g for a random 2-form g
            w = rng.randint(-3, 3)
            j[(b, c)] += w
            j[(a, c)] -= w
            j[(a, b)] += w
        csv = inputs.write(f"current_{s.replace(':', '')}.csv", _form_csv((1, e, v) for e, v in j.items()))
        ops.append(Op(["forms", "poisson", "--file", path, "--current", csv], _check_poisson(g, j), label=f"poisson {s}"))
    ops += [Op(["forms", "laplacian", "--gen", s], _check_laplacian(G.build(s).counts()), label=f"laplacian {s}") for s in lap]
    ops += [Op(["forms", "laplacian", "--gen", s, "--degree", "1"], _check_laplacian1(s), label=f"laplacian L_1 {s}")
            for s in lap1]
    ops += [Op(["forms", "dirac", "--gen", s], _check_dirac(G.build(s).counts()), label=f"dirac {s}") for s in dirac]
    return ops


# ---------------------------------------------------------------------------
# Scalar calculus (scalar_cli)


def _falling(x: int, n: int) -> int:
    return math.prod(x - j for j in range(n))


def _gauss_pow(a: int, x: int) -> tuple:
    """(re, im) of (1 + a i)^x for x >= 0."""
    re, im, br, bi = 1, 0, 1, a
    while x:
        if x & 1:
            re, im = re * br - im * bi, re * bi + im * br
        br, bi = br * br - bi * bi, 2 * br * bi
        x >>= 1
    return re, im


def _expect(value) -> Callable[[str], Optional[str]]:
    with _unlimited_int_str():
        want = f"{value}\n"
    return lambda out: None if out == want else f"got {out.strip()[:60]!r}, expected {want.strip()[:60]!r}"


def _sum_range(f, lo: int, hi: int) -> int:
    return sum(f(k) for k in range(lo, hi + 1))


def _trig_sum(a: int, kind: str, lo: int, hi: int) -> int:
    """sum of Im/Re (1 + a i)^k for lo <= k <= hi by running products."""
    re, im = _gauss_pow(a, lo)
    total = 0
    for _ in range(lo, hi + 1):
        total += im if kind == "sin" else re
        re, im = re - a * im, im + a * re
    return total


def _check_taylor_form(coeffs: list):
    def check(out):
        got = {}
        for term in out.strip().split(" + "):
            c, _, power = term.rpartition("*") if "[x]" in term else (term, "", "")
            k = 0 if not power else (1 if power == "[x]" else int(power.removeprefix("[x]^")))
            got[k] = int(c) if c else 1
        want = {k: c for k, c in enumerate(coeffs) if c}
        return None if got == want else f"interpolant {out.strip()!r}"
    return check


def _check_plot(path: str, positive_only: bool):
    number = re.compile(r"^-?\d+\.\d{3}$")

    def check(out):
        if out != f"wrote {path}\n":
            return f"plot said {out!r}"
        with open(path, encoding="utf-8") as fh:
            svg = fh.read()
        lines = re.findall(r'points="([^"]*)"', svg)
        if len(lines) != 2:
            return "plot: expected two polylines"
        for pts in lines:
            coords = [c.split(",") for c in pts.split()]
            if not positive_only and len(coords) != 401:
                return f"plot: {len(coords)} points, expected 401"
            if any(not (number.match(x) and number.match(y)) or not (0 <= float(x) <= 800 and 0 <= float(y) <= 500)
                   for x, y in coords):
                return "plot: point outside the canvas"
        return None
    return check


def _traceback_on_long_int(rc, out, err):
    """Exact outputs over 4300 digits hit the int-to-str limit."""
    return rc != 0 and out == "" and "Traceback" in err and "4300 digits" in err


def scalar_cli(inputs: Inputs, small: bool) -> list:
    rng = inputs.rng
    c1, b, c2, c3 = rng.randint(1, 9), rng.randint(2, 5), rng.randint(1, 9), rng.randint(1, 9)
    poly = f"{c1}*[x]^5 + {b}^x - {c2}*x + {c3}"
    f_poly = lambda x: c1 * _falling(x, 5) + b ** x - c2 * x + c3  # noqa: E731
    p, c4 = rng.randint(5, 8), rng.randint(2, 9)
    plain = f"x^{p} + {c4}*x^3"
    f_plain = lambda x: x ** p + c4 * x ** 3  # noqa: E731
    a = rng.randint(2, 4)
    at = lambda lo, hi: rng.randint(lo, hi)  # noqa: E731

    ops = []

    def ev(expr, x, op, value):
        argv = ["eval", expr, "--at", str(x)] + (["--op", op] if op != "none" else [])
        ops.append(Op(argv, _expect(value), label=f"eval {expr} {op}"))

    x = at(10, 60)
    ev(poly, x, "none", f_poly(x))
    x = at(10, 60)
    ev(poly, x, "diff", f_poly(x + 1) - f_poly(x))
    x = at(10, 60)
    ev(poly, x, "sum", _sum_range(f_poly, 0, x - 1))
    x = at(100, 999)
    ev(plain, x, "diff", f_plain(x + 1) - f_plain(x))
    x = at(150, 250)
    ev(f"sin({a}.x)", x, "sum", _trig_sum(a, "sin", 0, x - 1))
    x = at(150, 250)
    ev(f"cos({a}.x)", x, "diff", _gauss_pow(a, x + 1)[0] - _gauss_pow(a, x)[0])
    if not small:
        x = at(2000, 3000)
        ev("3^x", x, "none", 3 ** x)
        x = at(20, 40)
        ev(f"[x]^{x // 4}", x, "none", _falling(x, x // 4))
        x = at(500, 900)
        ev(f"sin({a}.x)", x, "none", _gauss_pow(a, x)[1])

    def sm(expr, lo, hi, value):
        ops.append(Op(["sum", expr, "--from", str(lo), "--to", str(hi)], _expect(value), label=f"sum {expr}"))

    lo = at(0, 9)
    sm(poly, lo, 300, _sum_range(f_poly, lo, 300))
    lo = at(0, 9)
    sm("cos(2.x)", lo, 1000, _trig_sum(2, "cos", lo, 1000))
    if not small:
        lo = at(0, 9)
        sm("sin(3.x)", lo, 5000, _trig_sum(3, "sin", lo, 5000))
        lo = at(0, 9)
        sm(plain, lo, 2000, _sum_range(f_plain, lo, 2000))

    coeffs = [rng.randint(1, 9) for _ in range(rng.randint(4, 6))]
    samples = [sum(c * _falling(x, k) for k, c in enumerate(coeffs)) for x in range(len(coeffs) + 2)]
    csv = inputs.write("samples.csv", "x,value\n" + "".join(f"{x},{v}\n" for x, v in enumerate(samples)))
    for _ in range(1 if small else 3):
        x = at(10, 40)
        ops.append(Op(["taylor", "--samples", csv, "--eval", str(x)],
                      _expect(sum(c * _falling(x, k) for k, c in enumerate(coeffs))), label="taylor eval"))
    ops.append(Op(["taylor", "--samples", csv, "--print"], _check_taylor_form(coeffs), label="taylor print"))

    plots = [("sin", "0:12.566"), ("exp", "0:4")] if small else [
        ("sin", "0:12.566"), ("cos", "0:12.566"), ("exp", "0:4"), ("pow:3", "-2:3"), ("log", "0:8")]
    for i, (fn, span) in enumerate(plots):
        svg = inputs.path(f"plot{i}.svg")
        argv = ["plot", "--fn", fn, "--a", f"{rng.uniform(0.5, 1.5):.2f}", "--h", f"{rng.choice([0.1, 0.25, 0.5])}",
                f"--range={span}", "--out", svg]
        ops.append(Op(argv, _check_plot(svg, fn == "log"), label=f"plot {fn}"))

    ops.append(Op(["graph", "info", "--gen", "octahedron"], _check_info("octahedron"), label="info octahedron"))
    ops.append(Op(["forms", "dirac", "--gen", "complete:2"], _expect("0 0 -1\n0 0 1\n-1 1 0"), label="dirac complete:2"))
    # exact outputs over 4300 digits end in a traceback
    x = at(10000, 10100)
    ops.append(Op(["eval", "3^x", "--at", str(x)], _expect(3 ** x), known_defect=_traceback_on_long_int,
                  label="eval 3^x long (digit-limit probe)"))
    return ops


WORKLOADS = {
    "exact_topology": exact_topology,
    "spectral_flows": spectral_flows,
    "scalar_cli": scalar_cli,
}

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion checks go through public interfaces only; criterion 9 drives the
command-line layer via subprocess and re-verifies golden answers there.
"""

import functools
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np

from discalc import (
    complexes as cx,
    evolution as ev,
    expr,
    forms as fm,
    interpolate as ip,
    numcore as nc,
    spectral as sp,
    topology as tp,
    vector as vc,
)

from conftest import random_connected_graph, random_graph


def _report(label):
    """Decorator printing a criterion verdict that survives output capture."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                sys.__stdout__.write(f"{label}: FAIL\n")
                raise
            sys.__stdout__.write(f"{label}: PASS\n")
        return run
    return wrap


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "discalc", *args], capture_output=True, text=True
    )


@_report("criterion 1 (golden single-variable values)")
def test_criterion_1_golden_values():
    assert nc.sin_exact(1, 10) == 32
    assert nc.cos_exact(1, 10) == 0
    g = expr.derivative(expr.parse("3*[x]^5 + 3^x - 2*x + 7"))
    assert expr.evaluate(g, 10) == 193696
    assert expr.definite_sum(expr.parse("sin(3.x)"), 0, 10) == -33237
    # Abel value by both routes: direct summation and summation by parts
    direct = sum(k * nc.sin_exact(1, k) for k in range(103))
    n = 103
    by_parts = n * sum(nc.sin_exact(1, k) for k in range(n)) - sum(
        sum(nc.sin_exact(1, j) for j in range(k + 1)) for k in range(n)
    )
    assert direct == by_parts == -231935380809580545
    table = ip.DifferenceTable((1, 1, 1, 1, 1))
    assert ip.newton_gregory_eval(table, 4) == 16
    assert [nc.tan_discrete(x) for x in range(4)] == [0, 1, nc.INFINITY, -1]


@_report("criterion 2 (FTC / Leibniz / Abel on 500 random sequences)")
def test_criterion_2_ftc_suite():
    rng = random.Random(101)
    for _ in range(500):
        m = rng.randint(2, 12)
        fs = [rng.randint(-50, 50) for _ in range(m)]
        gs = [rng.randint(-50, 50) for _ in range(m)]
        f = nc.Sequence(0, tuple(fs))
        assert nc.diff(nc.sum_prefix(f)).values == f.values
        s = nc.sum_prefix(nc.diff(f))
        assert all(s[x] == fs[x] - fs[0] for x in range(m))
        for x in range(m - 1):
            lhs = fs[x + 1] * gs[x + 1] - fs[x] * gs[x]
            rhs = (fs[x + 1] - fs[x]) * gs[x] + fs[x + 1] * (gs[x + 1] - gs[x])
            assert lhs == rhs
        n = m - 1
        lhs = sum((fs[k + 1] - fs[k]) * gs[k] for k in range(n))
        rhs = (fs[n] * gs[n] - fs[0] * gs[0]) - sum(
            fs[k + 1] * (gs[k + 1] - gs[k]) for k in range(n)
        )
        assert lhs == rhs


@_report("criterion 3 (Newton-Gregory reproduction and continuation)")
def test_criterion_3_newton_gregory():
    rng = random.Random(102)
    for _ in range(200):
        values = tuple(rng.randint(-100, 100) for _ in range(rng.randint(1, 10)))
        table = ip.forward_differences(nc.Sequence(0, values))
        for x, v in enumerate(values):
            assert ip.newton_gregory_eval(table, x) == v
    table = ip.forward_differences(nc.Sequence(0, (2, 10, 30, 68)))
    assert ip.newton_gregory_eval(table, 10) == 1342
    assert ip.newton_gregory_eval(table, 11) == 1740


@_report("criterion 4 (K_2 operators and d.d = 0)")
def test_criterion_4_operators():
    c = cx.build_complex(cx.generate("complete", 2))
    assert fm.dirac(c).data.tolist() == [[0, 0, -1], [0, 0, 1], [-1, 1, 0]]
    assert fm.laplacian(c).data.tolist() == [[1, -1, 0], [-1, 1, 0], [0, 0, 2]]
    w = np.linalg.eigvalsh(fm.laplacian(c).data.astype(float))
    assert np.abs(np.sort(w) - np.array([0.0, 2.0, 2.0])).max() < 1e-10

    def check_dd(complex_):
        for k in range(complex_.top_dim):
            prod = (fm.exterior_derivative(complex_, k + 1).data
                    @ fm.exterior_derivative(complex_, k).data)
            assert not prod.size or np.all(prod == 0)

    for spec in ("octahedron", "icosahedron", "cube", "wheel:6", "complete:5",
                 "cycle:7", "star:4", "hexpatch:2", "annulus", "moebius"):
        check_dd(cx.build_complex(cx.parse_generator(spec)))
    rng = random.Random(103)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 12), rng.uniform(0.2, 0.9))
        check_dd(cx.build_complex(g))


@_report("criterion 5 (Stokes and line-integral FTC)")
def test_criterion_5_integral_theorems():
    # W_6: spokes valued 1, rim edge y_i -> y_{i+1} valued i; both sides 21
    c = cx.build_complex(cx.generate("wheel", 6))
    values = np.full(12, 0, dtype=object)
    for i in range(6):
        a, b = i, (i + 1) % 6
        key = (min(a, b), max(a, b))
        values[c.index[1][key]] = (i + 1) if a < b else -(i + 1)
    for i in range(6):
        values[c.index[1][(i, 6)]] = 1
    F = fm.Form(c, 1, values)
    region = list(c.simplices[2])
    orientation = vc.orient_region(c, 2, region)
    lhs = vc.integrate(vc.apply_d(F), region, orientation)
    rhs = sum(sign * F.values[c.index[1][f]]
              for f, sign in orientation.boundary_signs.items())
    assert abs(lhs) == abs(rhs) == 21
    assert lhs == rhs

    rng = random.Random(104)
    ico = cx.build_complex(cx.generate("icosahedron"))
    triangles = ico.simplices[2]
    for _ in range(100):
        patch = [rng.choice(triangles)]
        while len(patch) < rng.randint(1, 10):
            frontier = [t for t in triangles if t not in patch
                        and any(len(set(t) & set(s)) == 2 for s in patch)]
            if not frontier:
                break
            patch.append(rng.choice(frontier))
        F = fm.Form(ico, 1, np.array([rng.randint(-9, 9) for _ in range(30)], dtype=object))
        assert vc.stokes_residual(ico, patch, F) == 0

    for _ in range(100):
        g = random_connected_graph(rng, rng.randint(3, 10))
        cc = cx.build_complex(g)
        f = [rng.randint(-20, 20) for _ in range(g.vertex_count)]
        F = fm.Form(cc, 1, fm.gradient(cc).data @ np.array(f, dtype=object))
        path = [rng.randrange(g.vertex_count)]
        for _ in range(rng.randint(1, 12)):
            path.append(rng.choice(sorted(g.neighbors(path[-1]))))
        assert vc.line_integral(F, path) == f[path[-1]] - f[path[0]]


@_report("criterion 6 (topology: chi, Betti, Gauss-Bonnet, Poincare-Hopf)")
def test_criterion_6_topology():
    assert tp.euler_characteristic(cx.build_complex(cx.generate("cube"))) == -4
    assert tp.betti(cx.build_complex(cx.generate("octahedron"))) == (1, 0, 1)
    assert tp.betti(cx.build_complex(cx.generate("cycle", 7))) == (1, 1)

    specs = ("octahedron", "icosahedron", "cube", "wheel:6", "complete:5",
             "cycle:7", "star:4", "hexpatch:2", "annulus", "moebius")
    for spec in specs:
        c = cx.build_complex(cx.parse_generator(spec))
        assert sum(tp.curvature_vector(c)) == tp.euler_characteristic(c)
    octa = cx.build_complex(cx.generate("octahedron"))
    assert tp.curvature_vector(octa) == (Fraction(1, 3),) * 6
    assert sum(tp.curvature_vector(octa)) == 2
    ico = cx.build_complex(cx.generate("icosahedron"))
    assert tp.curvature_vector(ico) == (Fraction(1, 6),) * 12
    assert sum(tp.curvature_vector(ico)) == 2

    rng = random.Random(105)
    for spec in specs:
        c = cx.build_complex(cx.parse_generator(spec))
        n = c.graph.vertex_count
        chi = tp.euler_characteristic(c)
        for _ in range(100):
            values = list(range(n))
            rng.shuffle(values)
            assert tp.poincare_hopf(c, values).total == chi

    for spec in ("path:3", "complete:4", "cycle:5"):
        c = cx.build_complex(cx.parse_generator(spec))
        assert tp.index_expectation(c) == tp.curvature_vector(c)


@_report("criterion 7 (flows: Schrodinger, heat, wave, Feynman)")
def test_criterion_7_flows():
    rng = random.Random(106)
    octa = cx.build_complex(cx.generate("octahedron"))
    n = fm.total_dim(octa)

    psi0 = np.array([rng.random() for _ in range(n)])
    for t in (0.5, 2.0, 11.0):
        out = ev.schrodinger_flow(octa, psi0, t)
        assert abs(np.linalg.norm(out) - np.linalg.norm(psi0)) < 1e-10

    f0 = fm.Form(octa, 1, np.array([rng.randint(-9, 9) for _ in range(12)], dtype=object))
    one = np.asarray(ev.heat_flow(octa, 1, ev.heat_flow(octa, 1, f0, 0.7), 0.5).values, dtype=float)
    two = np.asarray(ev.heat_flow(octa, 1, f0, 1.2).values, dtype=float)
    assert np.abs(one - two).max() < 1e-9

    d = fm.dirac(octa).data.astype(float)
    w0 = np.array([rng.random() for _ in range(n)])
    g0 = d @ np.array([rng.random() for _ in range(n)])

    def energy(t):
        f, v = ev.wave_flow(octa, w0, g0, t)
        return float(np.dot(v, v) + np.dot(d @ f, d @ f))

    e0 = energy(0.0)
    for t in (0.25, 1.0, 4.0, 9.0):
        assert abs(energy(t) - e0) < 1e-8 * max(e0, 1.0)

    for spec in ("complete:2", "complete:3", "cycle:4"):
        c = cx.build_complex(cx.parse_generator(spec))
        mat = fm.dirac(c).data
        m = mat.shape[0]
        power = np.eye(m, dtype=object)
        for steps in range(6):
            if steps > 0:
                power = mat @ power
            for start in range(m):
                for end in range(m):
                    assert sp.feynman_path_sum(mat, start, end, steps) == power[end, start]


@_report("criterion 8 (Poisson/Maxwell on K_5)")
def test_criterion_8_poisson():
    c = cx.build_complex(cx.generate("complete", 5))
    jv = np.full(10, 0, dtype=object)
    jv[c.index[1][(0, 1)]] = 1
    jv[c.index[1][(1, 2)]] = 1
    jv[c.index[1][(0, 2)]] = -1
    j = fm.Form(c, 1, jv)
    A, F = ev.poisson_maxwell(c, j)
    d1 = fm.exterior_derivative(c, 1).data.astype(float)
    d0 = fm.exterior_derivative(c, 0).data.astype(float)
    av = np.asarray(A.values, dtype=float)
    residual = np.abs(d1.T @ (d1 @ av) - np.asarray(jv, dtype=float)).max()
    gauge = np.abs(d0.T @ av).max()
    assert residual < 1e-10
    assert gauge < 1e-10


@_report("criterion 9 (CLI determinism and golden answers)")
def test_criterion_9_cli(tmp_path):
    samples = tmp_path / "samples.csv"
    samples.write_text("1,2\n2,10\n3,30\n4,68\n")
    w6 = tmp_path / "w6.csv"
    rows = []
    for i in range(6):
        a, b = i, (i + 1) % 6
        rows.append(f"1,{min(a, b)}-{max(a, b)},{(i + 1) if a < b else -(i + 1)}")
    rows += [f"1,{i}-6,1" for i in range(6)]
    w6.write_text("\n".join(rows) + "\n")
    current = tmp_path / "current.csv"
    current.write_text("1,0-1,1\n1,1-2,1\n1,0-2,-1\n")
    f0 = tmp_path / "f0.csv"
    f0.write_text("0,0,1\n")
    svg = tmp_path / "plot.svg"

    goldens = [
        (("eval", "3*[x]^5 + 3^x - 2*x + 7", "--at", "10", "--op", "diff"), "193696\n"),
        (("eval", "sin(1.x)", "--at", "10"), "32\n"),
        (("eval", "cos(1.x)", "--at", "10"), "0\n"),
        (("eval", "exp(1.x)", "--at", "4"), "16\n"),
        (("sum", "sin(3.x)", "--from", "0", "--to", "9"), "-33237\n"),
        (("sum", "x*sin(1.x)", "--from", "0", "--to", "102"), "-231935380809580545\n"),
        (("taylor", "--samples", str(samples), "--eval", "11"), "1342\n"),
        (("taylor", "--samples", str(samples), "--eval", "12"), "1740\n"),
        (("graph", "info", "--gen", "cube"), "counts: 8 12\nchi: -4\n"),
        (("graph", "betti", "--gen", "octahedron"), "betti: 1 0 1\n"),
        (("forms", "dirac", "--gen", "complete:2"), "0 0 -1\n0 0 1\n-1 1 0\n"),
        (("forms", "laplacian", "--gen", "complete:2"), "1 -1 0\n-1 1 0\n0 0 2\n"),
    ]
    for args, expected in goldens:
        r = run_cli(*args)
        assert r.returncode == 0, (args, r.stderr)
        assert r.stdout == expected, (args, r.stdout)

    curv = run_cli("graph", "curvature", "--gen", "octahedron")
    assert curv.stdout.splitlines()[-1] == "total,2"
    stokes = run_cli("forms", "stokes", "--gen", "wheel:6", "--form", str(w6))
    lines = stokes.stdout.splitlines()
    assert lines[2] == "residual: 0"
    assert abs(int(lines[0].split()[1])) == 21

    matrix = [
        ("eval", "sin(3.x)", "--at", "10"),
        ("sum", "x*sin(1.x)", "--from", "0", "--to", "20"),
        ("taylor", "--samples", str(samples), "--eval", "11"),
        ("graph", "indices", "--gen", "icosahedron"),
        ("forms", "poisson", "--gen", "complete:5", "--current", str(current)),
        ("pde", "heat", "--gen", "cycle:5", "--t", "0.25", "--form", str(f0)),
        ("pde", "schrodinger", "--gen", "complete:3", "--t", "0.5", "--form", str(f0)),
        ("plot", "--fn", "sin", "--a", "1", "--h", "0.1", "--range", "0:12.566",
         "--out", str(svg)),
    ]
    for args in matrix:
        first = run_cli(*args)
        blob1 = svg.read_bytes() if args[0] == "plot" else b""
        second = run_cli(*args)
        blob2 = svg.read_bytes() if args[0] == "plot" else b""
        assert first.returncode == second.returncode == 0, (args, first.stderr)
        assert first.stdout == second.stdout
        assert blob1 == blob2


@_report("supplementary (11-point cosine interpolation within 1e-9)")
def test_supplementary_cosine_interpolation():
    import math

    samples = tuple(math.cos(x * x / 2) for x in range(11))
    table = ip.forward_differences(nc.Sequence(0, samples))
    for x in range(11):
        assert abs(ip.newton_gregory_eval(table, x) - samples[x]) <= 1e-9

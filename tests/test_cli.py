import ast
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import discalc
from discalc import DomainError, cli, complexes as cx, evolution as ev, expr, forms as fm, vector as vc
from discalc import interpolate as ip
from discalc.numcore import Sequence


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "discalc", *args],
        capture_output=True, text=True, cwd=cwd,
    )


# runs the command line sys.argv[1:] with at most 1 GiB of address space, a limit it sets on itself
BOUNDED_MAIN = """if True:
    import resource, sys
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    limit = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    from discalc.cli import main
    sys.exit(main())
"""

# runs the command line sys.argv[1:] in a process where importing numpy fails
NO_NUMPY_MAIN = """if True:
    import sys
    sys.modules["numpy"] = None
    from discalc.cli import main
    sys.exit(main())
"""


def imported_modules(module):
    """(line, module names) of each import statement in ``discalc/<module>.py``, read without importing it."""
    source = (Path(discalc.__file__).parent / f"{module}.py").read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, [node.module or ""]


class TestEval:
    def test_plain(self):
        r = run_cli("eval", "x^2", "--at", "7")
        assert r.returncode == 0
        assert r.stdout == "49\n"

    def test_diff(self):
        r = run_cli("eval", "3*[x]^5 + 3^x - 2*x + 7", "--at", "10", "--op", "diff")
        assert r.returncode == 0
        assert r.stdout == "193696\n"

    def test_sum_op(self):
        r = run_cli("eval", "exp(1.x)", "--at", "5", "--op", "sum")
        assert r.returncode == 0
        assert r.stdout == "31\n"  # 2^5 - 1

    def test_fraction_output(self):
        r = run_cli("eval", "sin(1.x)", "--at", "-1")
        assert r.returncode == 0
        assert r.stdout == "-1/2\n"

    def test_parse_error_exit1(self):
        r = run_cli("eval", "[x]^", "--at", "0")
        assert r.returncode == 1
        assert "parse error" in r.stderr

    def test_long_exact_result(self):
        # 3^10000 has 4772 digits, past the interpreter's int-to-str limit
        r = run_cli("eval", "3^x", "--at", "10000")
        assert r.returncode == 0 and "Traceback" not in r.stderr
        assert r.stdout.strip().isdigit() and len(r.stdout.strip()) == 4772
        assert int(r.stdout[:20]) == 3 ** 10000 // 10 ** 4752

    def test_result_at_bound_prints(self):
        # 2^(2^20 - 1) has exactly expr.MAX_RESULT_BITS bits; one more step of x exits 2
        r = run_cli("eval", "2^x", "--at", str(expr.MAX_RESULT_BITS - 1))
        assert r.returncode == 0 and "Traceback" not in r.stderr
        assert len(r.stdout.strip()) == 315653
        assert r.stdout.endswith(f"{pow(2, expr.MAX_RESULT_BITS - 1, 1000)}\n")

    def test_no_closed_form_exit2(self):
        r = run_cli("eval", "log(x)", "--at", "4", "--op", "sum")
        assert r.returncode == 2
        assert "domain error" in r.stderr


class TestSum:
    def test_inclusive_bounds(self):
        r = run_cli("sum", "1", "--from", "0", "--to", "9")
        assert r.returncode == 0
        assert r.stdout == "10\n"

    def test_sin3(self):
        r = run_cli("sum", "sin(3.x)", "--from", "0", "--to", "9")
        assert r.stdout == "-33237\n"

    def test_abel(self):
        r = run_cli("sum", "x*sin(1.x)", "--from", "0", "--to", "102")
        assert r.stdout == "-231935380809580545\n"


class TestTaylor:
    def test_continuation(self, tmp_path):
        f = tmp_path / "samples.csv"
        f.write_text("1,2\n2,10\n3,30\n4,68\n")
        assert run_cli("taylor", "--samples", str(f), "--eval", "11").stdout == "1342\n"
        assert run_cli("taylor", "--samples", str(f), "--eval", "12").stdout == "1740\n"

    def test_print_form(self, tmp_path):
        f = tmp_path / "samples.csv"
        f.write_text("0,1\n1,2\n2,4\n3,8\n4,16\n")
        r = run_cli("taylor", "--samples", str(f), "--print")
        assert r.returncode == 0
        # the all-ones difference table of 2^x
        assert r.stdout.strip() != ""

    def test_print_form_past_the_digit_limit(self, tmp_path):
        # the top coefficients have numerators and denominators past the interpreter's 4300-digit int-to-str
        # limit; exact integers print in full
        rng = random.Random(1)
        values = tuple(rng.randint(-9, 9) for _ in range(1700))
        f = tmp_path / "samples.csv"
        f.write_text("".join(f"{x},{v}\n" for x, v in enumerate(values)))
        r = run_cli("taylor", "--samples", str(f), "--print")
        assert r.returncode == 0 and "Traceback" not in r.stderr, r.stderr
        top = Fraction(ip.forward_differences(Sequence(0, values)).coeffs[-1], math.factorial(1699))
        assert r.stdout.endswith(f"{discalc.full_str(abs(top.numerator))}/{discalc.full_str(top.denominator)}*[x]^1699\n")

    def test_value_without_dot_is_exact(self, tmp_path):
        # the rule of form files too: 1e-3 has no '.', so it is read as 1/1000
        f = tmp_path / "samples.csv"
        f.write_text("0,1e-3\n1,2e-3\n")
        assert run_cli("taylor", "--samples", str(f), "--eval", "2", "--print").stdout == "3/1000\n1/1000 + 1/1000*[x]\n"

    def test_missing_file_exit1(self):
        r = run_cli("taylor", "--samples", "/nonexistent.csv", "--eval", "3")
        assert r.returncode == 1

    def test_gap_rejected(self, tmp_path):
        f = tmp_path / "samples.csv"
        f.write_text("0,1\n2,3\n")
        assert run_cli("taylor", "--samples", str(f), "--eval", "1").returncode == 2

    def test_repeated_x_is_named(self, tmp_path):
        f = tmp_path / "samples.csv"
        f.write_text("0,1\n1,2\n2,4\n1,3\n")
        r = run_cli("taylor", "--samples", str(f), "--eval", "3")
        assert r.returncode == 2 and "x = 1 given twice" in r.stderr, r.stderr
        # an unreadable row is a usage error, exit 1, wherever it is
        f.write_text("0,1\n1,2\n1,3\n2,x\n")
        assert run_cli("taylor", "--samples", str(f), "--eval", "3").returncode == 1

    @pytest.mark.parametrize("text, value", [("6/3", 2), ("-4", -4), ("1e3", 1000), ("1/2", Fraction(1, 2))])
    def test_integral_exact_value_is_an_int(self, text, value):
        got = cli._rational(text)
        assert got == value and type(got) is type(value)


class TestGraph:
    def test_info(self):
        r = run_cli("graph", "info", "--gen", "octahedron")
        assert r.stdout == "counts: 6 12 8\nchi: 2\n"

    def test_betti(self):
        assert run_cli("graph", "betti", "--gen", "cycle:7").stdout == "betti: 1 1\n"
        assert run_cli("graph", "betti", "--gen", "octahedron").stdout == "betti: 1 0 1\n"

    def test_curvature(self):
        lines = run_cli("graph", "curvature", "--gen", "octahedron").stdout.splitlines()
        assert lines[0] == "vertex,curvature"
        assert lines[1:] == [f"{v},1/3" for v in range(6)] + ["total,2"]

    def test_indices_with_fn(self, tmp_path):
        f = tmp_path / "fn.csv"
        f.write_text("0,0\n1,9\n2,1\n3,2\n4,3\n5,4\n")
        lines = run_cli("graph", "indices", "--gen", "octahedron", "--fn", str(f)).stdout.splitlines()
        assert lines[0] == "vertex,index,class,curvature"
        assert lines[-1] == "total,2,,"

    def test_classify(self):
        out = run_cli("graph", "classify", "--gen", "moebius").stdout
        assert "kind: surface" in out

    def test_file_input(self, tmp_path):
        f = tmp_path / "g.json"
        f.write_text('{"vertices": 3, "edges": [[0,1],[1,2],[0,2]]}')
        r = run_cli("graph", "info", "--file", str(f))
        assert r.stdout == "counts: 3 3 1\nchi: 1\n"

    def test_complete10_not_truncated(self):
        # K_10 is one 9-simplex: contractible, with simplices up to dimension 9
        r = run_cli("graph", "betti", "--gen", "complete:10")
        assert r.stdout == "betti: 1 0 0 0 0 0 0 0 0 0\n"
        r = run_cli("graph", "info", "--gen", "complete:10")
        assert r.stdout == "counts: 10 45 120 210 252 210 120 45 10 1\nchi: 1\n"

    def test_missing_source_exit1(self):
        assert run_cli("graph", "info").returncode == 1

    def test_bad_generator_exit2(self):
        assert run_cli("graph", "info", "--gen", "nope").returncode == 2


class TestForms:
    def test_dirac_k2(self):
        r = run_cli("forms", "dirac", "--gen", "complete:2")
        assert r.stdout == "0 0 -1\n0 0 1\n-1 1 0\n"

    def test_laplacian_k2(self):
        r = run_cli("forms", "laplacian", "--gen", "complete:2")
        assert r.stdout == "1 -1 0\n-1 1 0\n0 0 2\n"

    def test_laplacian_block(self):
        r = run_cli("forms", "laplacian", "--gen", "cycle:4", "--degree", "0")
        rows = [line.split() for line in r.stdout.splitlines()]
        assert [row[i] for i, row in enumerate(rows)] == ["2"] * 4

    def test_stokes_w6(self, tmp_path):
        f = tmp_path / "form.csv"
        rows = []
        for i in range(6):
            a, b = i, (i + 1) % 6
            value = i + 1 if a < b else -(i + 1)
            rows.append(f"1,{min(a, b)}-{max(a, b)},{value}")
        for i in range(6):
            rows.append(f"1,{i}-6,1")
        f.write_text("\n".join(rows) + "\n")
        r = run_cli("forms", "stokes", "--gen", "wheel:6", "--form", str(f))
        lines = r.stdout.splitlines()
        assert lines[2] == "residual: 0"
        lhs = abs(int(lines[0].split()[1]))
        rhs = abs(int(lines[1].split()[1]))
        assert lhs == rhs == 21

    def test_stokes_moebius_exit2(self, tmp_path):
        f = tmp_path / "form.csv"
        f.write_text("1,0-1,1\n")
        r = run_cli("forms", "stokes", "--gen", "moebius", "--form", str(f))
        assert r.returncode == 2

    def test_poisson_k5(self, tmp_path):
        f = tmp_path / "current.csv"
        # unit circulation around the triangle (0,1,2)
        f.write_text("1,0-1,1\n1,1-2,1\n1,0-2,-1\n")
        r = run_cli("forms", "poisson", "--gen", "complete:5", "--current", str(f))
        assert r.returncode == 0
        assert r.stdout.splitlines()[0] == "degree,simplex,value"

    def test_poisson_harmonic_exit2(self, tmp_path):
        f = tmp_path / "current.csv"
        f.write_text("1,0-1,1\n1,1-2,1\n1,2-3,1\n1,0-3,-1\n")
        r = run_cli("forms", "poisson", "--gen", "cycle:4", "--current", str(f))
        assert r.returncode == 2

    # sha256 of stdout recorded while the operators were object-dtype arrays of
    # Python ints; the int64 operators must print byte for byte the same
    GOLDEN = {
        ("dirac", "wheel:6"): "a5fcc711f0fbc7547476efae37e888f905a4f4a03ac21d8a6c1fa560db119d24",
        ("laplacian", "wheel:6"): "9c97f4a4b96c82c69fae401434a7f44b5d72b602a6f232f8589b72ca68de3677",
        ("laplacian", "wheel:6", "--degree", "1"): "4dcd33bbc25a5ea1add22e4f1e8e89089806c6fac2716d9c29fd30d33db9c5d5",
        ("dirac", "hexpatch:2"): "e63b2ab0562fb7d4d5eeec2dcfdc9c6276b491a4592cffc0726fe729ea2d2c75",
        ("laplacian", "hexpatch:2"): "39efcb317e4bfe30c35cfac1689c1096fded9afa846c69d00a3ce41022f0cdec",
        ("laplacian", "hexpatch:2", "--degree", "1"): "8534f08627584edead532a19881bca69ee5a250a6dbfdd4818765dca01de68b2",
        # the empty graph, a single vertex, a non-orientable surface and blocks whose down part has 3-4 faces per row
        ("dirac", "empty.json"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ("laplacian", "empty.json"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ("laplacian", "empty.json", "--degree", "0"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ("dirac", "complete:1"): "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
        ("laplacian", "moebius"): "22149a63dc80a201bbbb4e578765f342bce5e8dfc5f832e34512f7cdf01948d3",
        ("laplacian", "complete:5", "--degree", "2"): "3e49b2d3562ced250b02ee31e66ac34c250dd4c9b0d2b05e59ffd79848b18625",
        ("laplacian", "complete:5", "--degree", "3"): "be9b29de86fe4df1b24927ae522e16f1a7c4b1b235ba7ddf56755c943a43efcc",
        ("stokes", "wheel:6", "--form", "stokes.csv"): "13febe9f55fae45fa1aa9c227da8b1ee8b831a7e7bf35a1e7f65caa69daa72f0",
        ("poisson", "complete:5", "--current", "current.csv"):
            "0189c2b8eed5677d27eb1d3d94baab642f8894ec03174cbab1e8b466017b50f3",
        ("heat", "cycle:5", "--t", "0.5", "--form", "f0.csv"):
            "e42cb9337d0cdd3aeb22dde905849942b948c6ad669525178bba5390a7815af3",
        # re-recorded for the two-pass MINRES solve: 8 lines moved, all F entries that are exactly 0 and
        # print rounding of at most 1.3e-15; the largest difference is 1.0e-15
        ("poisson", "annulus:3", "--current", "annulus_current.csv"):
            "ec7d059914a0a1060046165f70b44a3a6513295f91d9937b757e4c8b5d62f7aa",
        ("wave", "annulus:3", "--t", "0.3", "--form", "annulus_state.csv"):
            "8416e91ab663045312d99e2fe1022bdac4ca47819bb1cdee88a0f146ef15803c",
        # a generic velocity: annulus:3 has a harmonic 1-form besides the constants, and both drift
        ("wave", "annulus:3", "--t", "0.3", "--form", "annulus_state.csv", "--velocity", "annulus_velocity.csv"):
            "ad6b2ae48016f3726e3ee3f11ddd2a82d76882b39b6d71c320d25829d26db238",
    }

    def test_golden_stdout(self, tmp_path):
        rim = [(i, (i + 1) % 6, i + 1) for i in range(6)]
        stokes = [f"1,{min(a, b)}-{max(a, b)},{v if a < b else -v}" for a, b, v in rim]
        (tmp_path / "stokes.csv").write_text("\n".join(stokes + [f"1,{i}-6,1" for i in range(6)]) + "\n")
        (tmp_path / "current.csv").write_text("1,0-1,1\n1,1-2,1\n1,0-2,-1\n")
        (tmp_path / "f0.csv").write_text("0,0,1\n")
        (tmp_path / "empty.json").write_text('{"vertices": 0, "edges": []}')
        annulus = cx.build_complex(cx.parse_generator("annulus:3"))
        current = {e: 0 for e in annulus.simplices[1]}
        for i, (a, b, c) in enumerate(annulus.simplices[2]):  # d1* of a 2-form: no divergence, no harmonic part
            current[(b, c)] += i % 5 - 2
            current[(a, c)] -= i % 5 - 2
            current[(a, b)] += i % 5 - 2
        (tmp_path / "annulus_current.csv").write_text("".join(f"1,{a}-{b},{v}\n" for (a, b), v in current.items()))
        state = [(k, s) for k in range(3) for s in annulus.simplices[k]]
        (tmp_path / "annulus_state.csv").write_text(
            "".join(f"{k},{'-'.join(map(str, s))},{3 * i % 11 - 5}\n" for i, (k, s) in enumerate(state)))
        (tmp_path / "annulus_velocity.csv").write_text(
            "".join(f"{k},{'-'.join(map(str, s))},{7 * i % 13 - 6}\n" for i, (k, s) in enumerate(state)))
        for (action, gen, *rest), digest in self.GOLDEN.items():
            command = "pde" if action in ("heat", "wave") else "forms"
            rest = [str(tmp_path / a) if a.endswith(".csv") else a for a in rest]
            source = ("--file", str(tmp_path / gen)) if gen.endswith(".json") else ("--gen", gen)
            r = run_cli(command, action, *source, *rest)
            assert r.returncode == 0, (action, gen, r.stderr)
            assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest, (action, gen, *rest)


class TestPde:
    def test_heat_header_and_rows(self, tmp_path):
        f = tmp_path / "f0.csv"
        f.write_text("0,0,1\n")
        r = run_cli("pde", "heat", "--gen", "cycle:5", "--t", "0.5", "--form", str(f))
        lines = r.stdout.splitlines()
        assert lines[0] == "t,simplex,value"
        assert len(lines) == 6
        assert lines[1].startswith("0.5,0:0,")

    def test_schrodinger(self, tmp_path):
        f = tmp_path / "f0.csv"
        f.write_text("0,0,1\n")
        r = run_cli("pde", "schrodinger", "--gen", "complete:2", "--t", "1.0", "--form", str(f))
        assert r.returncode == 0
        assert len(r.stdout.splitlines()) == 4  # header + 3 simplices

    @pytest.mark.parametrize("gen, t, velocity, drift", [
        ("cycle:4", "1.5", "1", "1.5"),
        # a harmonic velocity, however small, is answered: nothing is compared with the source's size
        ("hexpatch:2", "2", "1e-10", "2e-10"),
        ("complete:1", "2", "-0.5", "-1"),  # no edges: u = f + t g
    ], ids=["cycle-4", "wave-tiny-harmonic-velocity", "complete-1"])
    def test_wave_harmonic_velocity_drifts(self, tmp_path, gen, t, velocity, drift):
        # f = 0 and a constant velocity on the vertices, which lies in ker D: u = t g on the vertices, 0 elsewhere
        f0 = tmp_path / "f0.csv"
        f0.write_text("0,0,0\n")
        g0 = tmp_path / "g0.csv"
        c = cx.build_complex(cx.parse_generator(gen))
        g0.write_text("".join(f"0,{v},{velocity}\n" for v in range(c.count(0))))
        r = run_cli("pde", "wave", "--gen", gen, "--t", t, "--form", str(f0), "--velocity", str(g0))
        assert r.returncode == 0, r.stderr
        rows = [line.split(",") for line in r.stdout.splitlines()[1:]]
        assert len(rows) == fm.total_dim(c) and {row[0] for row in rows} == {t}
        assert [v for _, s, v in rows if s.startswith("0:")] == [drift] * c.count(0)
        assert {v for _, s, v in rows if not s.startswith("0:")} <= {"0"}


class TestFrontDoor:
    @pytest.mark.parametrize("args, files, code", [
        (("graph", "info", "--gen", "cycle:abc"), {}, 1),
        (("graph", "info", "--file", "{g}"), {"g": "not json"}, 1),
        (("graph", "info", "--file", "{g}"), {"g": '{"vertices": 3}'}, 1),
        (("graph", "info", "--file", "{g}"), {"g": '{"vertices": -1, "edges": []}'}, 2),
        (("graph", "info", "--file", "{g}"), {"g": '{"vertices": true, "edges": []}'}, 1),
        (("graph", "info", "--file", "{g}"), {"g": '{"vertices": 2, "edges": [[0, true]]}'}, 1),
        (("forms", "stokes", "--gen", "wheel:6", "--form", "{f}"), {"f": "1,1-0,3\n"}, 1),
        (("forms", "stokes", "--gen", "wheel:6", "--form", "{f}"), {"f": "1,0-1,abc\n"}, 1),
        (("forms", "stokes", "--gen", "wheel:6", "--form", "{f}"), {"f": "1,0-1\n"}, 1),
        (("graph", "indices", "--gen", "path:2", "--fn", "{f}"), {"f": "0,0\n1,x\n"}, 1),
        (("taylor", "--samples", "{f}", "--eval", "3"), {"f": "0\n1\n"}, 1),
        (("plot", "--fn", "pow:x", "--range", "0:1", "--out", "{o}"), {}, 1),
        (("forms", "stokes", "--gen", "wheel:6", "--form", "{f}"), {"f": "1,0-3,1\n"}, 2),
        (("pde", "wave", "--gen", "cycle:4", "--t", "1", "--form", "{f}"), {"f": "7,0-1,1\n"}, 2),
        (("graph", "indices", "--gen", "path:2", "--fn", "{f}"), {"f": "0,0\n1,1\n9,2\n"}, 2),
        (("graph", "indices", "--gen", "path:2", "--fn", "{f}"), {"f": "0,0\n1,1\n-1,2\n"}, 2),
        (("forms", "laplacian", "--degree", "9", "--gen", "cycle:4"), {}, 2),
        (("pde", "heat", "--gen", "cycle:5", "--t", "inf", "--form", "{f}"), {"f": "0,0,1\n"}, 1),
        (("pde", "heat", "--gen", "cycle:5", "--t", "nan", "--form", "{f}"), {"f": "0,0,1\n"}, 1),
        (("plot", "--fn", "sin", "--a", "nan", "--range", "0:1", "--out", "{o}"), {}, 1),
        (("plot", "--fn", "sin", "--h=-inf", "--range", "0:1", "--out", "{o}"), {}, 1),
        (("plot", "--fn", "sin", "--range", "0:inf", "--out", "{o}"), {}, 1),
        (("plot", "--fn", "sin", "--range", "0:nan", "--out", "{o}"), {}, 1),
        (("plot", "--fn", "exp", "--h", "0", "--range", "0:1", "--out", "{o}"), {}, 2),
        (("plot", "--fn", "sin", "--h", "0", "--range", "0:1", "--out", "{o}"), {}, 2),
        (("plot", "--fn", "exp", "--a", "-2", "--h", "1", "--range", "0:1", "--out", "{o}"), {}, 2),
        (("plot", "--fn", "exp", "--a", "1e308", "--range", "0:10", "--out", "{o}"), {}, 2),
        (("plot", "--fn", "pow:-3", "--range", "0:1", "--out", "{o}"), {}, 2),
        (("pde", "heat", "--gen", "cycle:5", "--t", "1", "--form", "{f}"), {"f": "0,0,1e400\n"}, 2),
        (("pde", "schrodinger", "--gen", "cycle:5", "--t", "1", "--form", "{f}"), {"f": "0,0,1e400\n"}, 2),
        (("forms", "poisson", "--gen", "cycle:5", "--current", "{f}"), {"f": "1,0-1,1e400\n"}, 2),
        (("pde", "schrodinger", "--gen", "cycle:4", "--t", "1.7e308", "--form", "{f}"), {"f": "0,0,1\n"}, 2),
        (("pde", "wave", "--gen", "cycle:4", "--t", "1e308", "--form", "{f}"), {"f": "0,0,1\n"}, 2),
        (("sum", "x^100000", "--from", "0", "--to", "3"), {}, 2),
        (("plot", "--fn", "pow:100000", "--range", "0:1", "--out", "{o}"), {}, 2),
        (("sum", "log(x)", "--from", "1", "--to", "1000000"), {}, 2),
        (("sum", "x*sin(1.x)", "--from", "0", "--to", "20000"), {}, 2),
        (("sum", "x*2^x", "--from", "1000000", "--to", "1001000"), {}, 2),
        (("eval", "x^100000", "--at", "1000000000"), {}, 2),
        (("eval", "x^300000", "--at", "1000000000"), {}, 2),
        (("sum", "2^x", "--from", "0", "--to", "1000000000"), {}, 2),
        (("eval", "2^x", "--at", "1048576"), {}, 2),
        (("eval", "2^1000000000", "--at", "0"), {}, 2),
        (("eval", "x*sin(1.x)", "--at", "3", "--op", "sum"), {}, 2),
        (("forms", "stokes", "--gen", "moebius", "--form", "{f}"), {"f": "1,0-1,1\n"}, 2),
        # unit circulation around the hole, through the six neighbours of the removed centre
        (("forms", "poisson", "--gen", "annulus:2", "--current", "{f}"),
         {"f": "1,4-5,1\n1,5-9,1\n1,9-13,1\n1,12-13,-1\n1,8-12,-1\n1,4-8,-1\n"}, 2),
        # a divergence counts against the current's own size, however small
        (("forms", "poisson", "--gen", "hexpatch:2", "--current", "{f}"), {"f": "1,0-1,1e-11\n"}, 2),
        # an exact current's divergence, 1e-13 here, is decided exactly, below SOURCE_TOL too
        (("forms", "poisson", "--gen", "complete:3", "--current", "{f}"),
         {"f": "1,0-1,10000000000001/10000000000000\n1,1-2,1\n1,0-2,-1\n"}, 2),
        # a harmonic velocity drifts as t times itself, here to 1e310
        (("pde", "wave", "--gen", "complete:1", "--t", "1e300", "--form", "{f}", "--velocity", "{g}"),
         {"f": "0,0,0\n", "g": "0,0,1e10\n"}, 2),
        (("graph", "indices", "--gen", "path:2", "--fn", "{f}"), {"f": "0,1\n0,5\n1,2\n"}, 2),
        (("forms", "stokes", "--gen", "path:2", "--degree", "0", "--form", "{f}"), {"f": "0,0,3\n0,0,4\n"}, 2),
        (("taylor", "--samples", "{f}", "--eval", "3", "--print"), {"f": "1,1\n2,4\n3,9\n4,16\n"}, 2),
        # one field longer than csv.field_size_limit() (131072 by default): csv.Error, a usage error
        (("taylor", "--samples", "{f}", "--eval", "3"), {"f": "0," + "1" * 200_000 + "\n"}, 1),
        # graphs past complexes.MAX_SIMPLICES and MAX_VERTICES, refused before they are built
        (("graph", "info", "--gen", "complete:30"), {}, 2),
        (("graph", "info", "--gen", "hexpatch:100000"), {}, 2),
        (("graph", "info", "--file", "{g}"), {"g": '{"vertices": 10000000000, "edges": []}'}, 2),
        # 10 513^2 cells, past formscli.MAX_PRINTED_CELLS: refused before any row is built or printed
        (("forms", "dirac", "--gen", "hexpatch:24"), {}, 2),
        # t ||D||_1 = 600 is past the crossover and D is 10 513 x 10 513, past evolution.MAX_DENSE_DIM
        (("pde", "schrodinger", "--gen", "hexpatch:24", "--t", "100", "--form", "{f}"), {"f": "0,0,1\n"}, 2),
        (("pde", "wave", "--gen", "hexpatch:24", "--t", "100", "--form", "{f}"), {"f": "0,0,1\n"}, 2),
        # a literal past the interpreter's 4300-digit int-to-str limit is a parse error
        (("eval", "1" * 5000 + "*x", "--at", "2"), {}, 1),
        (("sum", "1" * 5000, "--from", "0", "--to", "3"), {}, 1),
        # nesting past the interpreter's recursion limit, in the parser and in the derivative of a product
        (("eval", "(" * 300 + "x" + ")" * 300, "--at", "2"), {}, 2),
        (("eval", "*".join(["x"] * 1200), "--at", "2", "--op", "diff"), {}, 2),
    ], ids=["gen-not-int", "file-not-json", "file-no-edges", "file-negative-vertex-count", "file-bool-vertex-count",
            "file-bool-endpoint", "simplex-descending",
            "value-not-number", "form-two-columns", "fn-value-not-number", "samples-one-column", "plot-pow-not-int",
            "simplex-not-in-complex", "degree-not-in-complex", "vertex-past-end", "vertex-negative",
            "laplacian-degree-past-top", "t-inf", "t-nan", "a-nan", "h-inf", "range-inf", "range-nan",
            "exp-h-zero", "sin-h-zero", "exp-negative-base", "exp-overflow", "pow-negative",
            "heat-value-past-float", "schrodinger-value-past-float", "poisson-value-past-float",
            "schrodinger-t-past-float", "wave-t-past-float", "sum-power-past-bound", "plot-pow-past-bound",
            "sum-log-past-direct-bound", "sum-abel-past-direct-bound",
            "sum-terms-past-direct-bits", "eval-power-past-result-bound",
            "eval-power-far-past-result-bound", "sum-exp-past-result-bound", "eval-exp-just-past-result-bound",
            "eval-literal-power-past-result-bound", "eval-no-closed-form",
            "stokes-non-orientable", "poisson-harmonic-current", "poisson-tiny-divergence",
            "poisson-exact-tiny-divergence",
            "wave-drift-past-float", "fn-vertex-twice", "form-simplex-twice",
            "taylor-print-unanchored", "samples-field-past-csv-limit", "complete-past-simplex-bound",
            "hexpatch-past-vertex-bound", "file-past-vertex-bound", "dirac-past-printed-cells",
            "schrodinger-past-dense-bound", "wave-past-dense-bound", "eval-literal-past-digit-limit",
            "sum-literal-past-digit-limit", "eval-nested-past-recursion-limit", "diff-product-past-recursion-limit"])
    def test_malformed_input_exit_code(self, tmp_path, args, files, code):
        paths = {"o": str(tmp_path / "out.svg")}
        for key, text in files.items():
            (tmp_path / key).write_text(text)
            paths[key] = str(tmp_path / key)
        argv = [a.format(**paths) for a in args]
        if args[0] == "graph":
            # a graph command bounds its own address space, so a size bound that stops holding ends in a
            # MemoryError within seconds instead of filling the machine
            r = subprocess.run([sys.executable, "-c", BOUNDED_MAIN, *argv], capture_output=True, text=True)
        elif "hexpatch:24" in args and args[0] == "pde":
            # a flow past the dense bound is refused before discalc.spectral is imported, so without numpy
            r = subprocess.run([sys.executable, "-c", NO_NUMPY_MAIN, *argv], capture_output=True, text=True)
            assert "MAX_DENSE_DIM" in r.stderr
        else:
            r = run_cli(*argv)
        assert r.returncode == code, r.stderr
        assert "Traceback" not in r.stderr
        assert r.stdout == ""

    def test_closed_stdout_pipe_exits_quietly(self):
        # the matrix is far larger than a pipe buffer, so the writer meets the closed pipe
        with subprocess.Popen([sys.executable, "-m", "discalc", "forms", "dirac", "--gen", "hexpatch:5"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            assert proc.stdout.readline().startswith("0 ")
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait() == 1
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr

    def test_cli_import_leaves_scipy_unloaded(self):
        # scipy costs a third of a second at start-up; it may only be imported lazily
        code = "import sys, discalc.cli\nif 'scipy' in sys.modules: raise SystemExit('scipy imported eagerly')"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr

    def test_scalar_modules_leave_numpy_unloaded(self):
        code = ("import sys, discalc, discalc.numcore, discalc.expr, discalc.interpolate, discalc.complexes, "
                "discalc.homology, discalc.topology, discalc.forms, discalc.vector, discalc.evolution, discalc.cli, "
                "discalc.graphcli, discalc.formscli\n"
                "for m in ('numpy', 'dataclasses'):\n"
                "    if m in sys.modules: raise SystemExit(m + ' imported by a plain-Python module')")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr

    def test_cli_import_loads_no_library_module(self):
        # every library module is imported by the subcommand that runs it, and argparse by a command line
        # that the reader declines
        code = ("import sys, discalc.cli\n"
                "print(' '.join(sorted(m for m in sys.modules if m.startswith('discalc') or m == 'argparse')))")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.split() == ["discalc", "discalc.cli"]

    @pytest.mark.parametrize("args", [
        ("eval", "3*[x]^5 + sin(2.x)", "--at", "10", "--op", "diff"),
        ("sum", "x^2", "--from", "1", "--to", "100"),
        ("taylor", "--samples", "{s}", "--eval", "11"),
        ("taylor", "--samples", "{s}", "--print"),
        ("plot", "--fn", "sin", "--range", "0:10", "--out", "{o}"),
        ("plot", "--fn", "pow:3", "--range", "0:10", "--out", "{o}"),
        ("graph", "info", "--gen", "octahedron"),
        ("graph", "betti", "--gen", "moebius"),
        ("graph", "curvature", "--gen", "icosahedron"),
        ("graph", "indices", "--gen", "octahedron", "--fn", "{f}"),
        ("graph", "classify", "--gen", "annulus:2"),
        ("forms", "stokes", "--gen", "wheel:6", "--form", "{w}"),
        ("forms", "dirac", "--gen", "wheel:6"),
        ("forms", "laplacian", "--gen", "wheel:6"),
        ("forms", "laplacian", "--gen", "wheel:6", "--degree", "1"),
        ("forms", "poisson", "--gen", "wheel:6", "--current", "{j}"),
        ("pde", "heat", "--gen", "wheel:6", "--t", "0.5", "--form", "{h}"),
        ("pde", "heat", "--gen", "wheel:6", "--t", "0.5", "--form", "{w}", "--degree", "1"),
        ("pde", "wave", "--gen", "wheel:6", "--t", "0.5", "--form", "{w}"),
        ("pde", "wave", "--gen", "wheel:6", "--t", "0.5", "--form", "{w}", "--velocity", "{v}"),
        ("pde", "schrodinger", "--gen", "wheel:6", "--t", "0.5", "--form", "{w}"),
        ("pde", "schrodinger", "--gen", "wheel:6", "--t", "0.5", "--form", "{x}"),
        # no edges: L = 0 and u = f + t g, answered without the dense route however long the time
        ("pde", "wave", "--gen", "complete:1", "--t", "100", "--form", "{p}", "--velocity", "{p}"),
    ], ids=["eval", "sum", "taylor-eval", "taylor-print", "plot-sin", "plot-pow", "graph-info", "graph-betti",
            "graph-curvature", "graph-indices", "graph-classify", "forms-stokes", "forms-dirac", "forms-laplacian",
            "forms-laplacian-block", "forms-poisson", "pde-heat", "pde-heat-degree-1", "pde-wave",
            "pde-wave-velocity", "pde-schrodinger", "pde-schrodinger-float-input", "pde-wave-edgeless"])
    def test_scalar_and_graph_commands_leave_numpy_unloaded(self, tmp_path, args):
        reads_exact = any(a in ("{s}", "{f}", "{w}", "{h}", "{j}", "{v}", "{p}") for a in args)
        reads_file = reads_exact or "{x}" in args
        # json is imported only by Graph.to_json and Graph.from_json, which a --gen graph never calls; csv only
        # by the reader of an input file, and discalc.plot only by plot.  argparse, with the gettext and locale
        # it loads, only reads a command line the reader declines, and none of these is declined
        unloaded = ["numpy", "dataclasses", "json", "discalc.spectral", "argparse", "gettext", "locale"]
        if not reads_file:
            unloaded.append("csv")
        if args[0] != "plot":
            unloaded.append("discalc.plot")
        # graph info and betti read discalc.homology alone, the other graph actions discalc.topology, and the
        # forms and pde handlers, in discalc.formscli, read neither
        if args[0] in ("graph", "forms", "pde"):
            unloaded.append("discalc.numcore")
        if args[0] != "graph" or args[1] in ("info", "betti"):
            unloaded.append("discalc.topology")
        if args[0] != "graph":
            unloaded += ["discalc.graphcli", "discalc.homology"]
        if args[0] not in ("forms", "pde"):
            unloaded.append("discalc.formscli")
        if args[0] == "taylor" and "--print" not in args:
            unloaded.append("discalc.expr")  # only the printed form is an expression
        if args[:2] != ("forms", "stokes"):
            unloaded.append("discalc.vector")
        # fractions is loaded by the first exact value read (every input file here but {x} has one), by the
        # scalar commands, by an exact curvature and by the bound of pow:N in discalc.expr
        if not (reads_exact or args[0] in ("eval", "sum", "taylor") or "curvature" in args or "pow:3" in args):
            unloaded.append("fractions")
        self.assert_modules(tmp_path, args, unloaded=unloaded)

    def test_pde_past_the_crossover_loads_spectral(self, tmp_path):
        # ||L_0||_1 = 12 at the hub of wheel:6, so t = 6 costs 72 > DENSE_CROSSOVER: the dense route
        assert 6 * 12 > ev.DENSE_CROSSOVER
        self.assert_modules(tmp_path, ("pde", "heat", "--gen", "wheel:6", "--t", "6", "--form", "{h}"),
                            unloaded=["discalc.numcore", "discalc.vector"], loaded=["discalc.spectral", "numpy"])

    @staticmethod
    def assert_modules(tmp_path, args, unloaded, loaded=()):
        """Run one command in a fresh process through cli.main; it must exit 0 and print, with none of the
        ``unloaded`` modules imported and all of the ``loaded`` ones."""
        (tmp_path / "samples.csv").write_text("0,1\n1,2\n2,4\n3,8\n4,16\n")
        (tmp_path / "fn.csv").write_text("0,0\n1,9\n2,1\n3,2\n4,3\n5,4\n")
        (tmp_path / "form.csv").write_text("1,0-1,3\n1,1-6,2/3\n1,5-6,-1.5\n")
        (tmp_path / "heat.csv").write_text("0,0,1\n0,6,-2\n")
        (tmp_path / "current.csv").write_text("1,0-1,1\n1,1-6,1\n1,0-6,-1\n")  # d1* of the triangle 0-1-6
        (tmp_path / "velocity.csv").write_text("1,0-1,-1\n1,0-5,-1\n1,0-6,-1\n")  # D of the vertex 0: in im D
        (tmp_path / "float.csv").write_text("0,0,1.5\n1,0-1,-0.25\n")
        (tmp_path / "point.csv").write_text("0,0,3\n")
        paths = {"s": tmp_path / "samples.csv", "f": tmp_path / "fn.csv", "w": tmp_path / "form.csv",
                 "h": tmp_path / "heat.csv", "j": tmp_path / "current.csv", "v": tmp_path / "velocity.csv",
                 "x": tmp_path / "float.csv", "p": tmp_path / "point.csv", "o": tmp_path / "out.svg"}
        code = ("import sys\nfrom discalc import cli\ncode = cli.main(sys.argv[1:])\n"
                "if code: raise SystemExit(f'exit {code}')\n"
                f"for m in {list(unloaded)!r}:\n"
                "    if m in sys.modules: raise SystemExit(m + ' loaded by ' + sys.argv[1])\n"
                f"for m in {list(loaded)!r}:\n"
                "    if m not in sys.modules: raise SystemExit(m + ' not loaded by ' + sys.argv[1])")
        r = subprocess.run([sys.executable, "-c", code, *(a.format(**paths) for a in args)],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout

    @pytest.mark.parametrize("module", sorted(p.stem for p in Path(discalc.__file__).parent.glob("*.py")))
    def test_no_module_imports_dataclasses(self, module):
        # records use numcore.record: dataclasses, with the inspect it loads, costs every command start-up time
        for line, names in imported_modules(module):
            assert "dataclasses" not in names, f"{module}.py line {line} imports dataclasses"

    @pytest.mark.parametrize("module", sorted(p.stem for p in Path(discalc.__file__).parent.glob("*.py")))
    def test_no_module_imports_typing(self, module):
        # TYPE_CHECKING = False stands in for typing's, so no command pays for typing where site does not load it
        for line, names in imported_modules(module):
            assert "typing" not in names, f"{module}.py line {line} imports typing"

    @pytest.mark.parametrize("module", ["cli", "graphcli", "formscli", "numcore", "expr", "interpolate", "__init__",
                                        "complexes", "homology", "topology", "plot", "evolution", "vector"])
    def test_import_boundary_names_no_numpy(self, module):
        # read, not imported: cli.py reaches numpy only through discalc.spectral, past the crossover of evolution
        for line, names in imported_modules(module):
            if any(name.split(".")[0] == "numpy" for name in names):
                pytest.fail(f"{module}.py line {line} imports numpy")

    def test_every_import_is_used(self):
        here = Path(__file__).parent
        for path in (sorted(Path(discalc.__file__).parent.glob("*.py")) + sorted(here.glob("*.py"))
                     + sorted((here.parent / "demos").glob("*.py")) + sorted((here.parent / "tools").glob("*.py"))):
            imported, used = {}, set()
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                    for alias in node.names:
                        imported[alias.asname or alias.name.split(".")[0]] = node.lineno
                elif isinstance(node, ast.Name):
                    used.add(node.id)
            unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
            assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"

    @pytest.mark.parametrize("error", [expr.NoClosedFormError, vc.NonOrientableError,
                                       vc.NotGradientFieldError, ev.HarmonicComponentError])
    def test_exit_2_errors_are_domain_errors(self, error):
        assert issubclass(error, DomainError)

    def test_comment_blank_and_header_rows_skipped(self, tmp_path):
        f = tmp_path / "fn.csv"
        f.write_text("vertex,value\n# comment\n\n0,1\n  \n1,0\n")
        r = run_cli("graph", "indices", "--gen", "path:2", "--fn", str(f))
        assert r.returncode == 0 and r.stdout.startswith("vertex,index,class,curvature\n")


class TestPlot:
    def test_svg_output(self, tmp_path):
        out = tmp_path / "s.svg"
        r = run_cli("plot", "--fn", "sin", "--a", "1", "--h", "0.1",
                    "--range", "0:12.566", "--out", str(out))
        assert r.returncode == 0
        text = out.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2
        assert "steelblue" in text and "firebrick" in text

    def test_bad_range_exit1(self, tmp_path):
        r = run_cli("plot", "--fn", "sin", "--range", "5:1", "--out", str(tmp_path / "x.svg"))
        assert r.returncode == 1

    def test_unknown_fn_exit1(self, tmp_path):
        r = run_cli("plot", "--fn", "sinh", "--range", "0:1", "--out", str(tmp_path / "x.svg"))
        assert r.returncode == 1

    def test_log_plot(self, tmp_path):
        out = tmp_path / "log.svg"
        r = run_cli("plot", "--fn", "log", "--range", "0:8", "--out", str(out))
        assert r.returncode == 0
        assert out.exists()


class TestUsage:
    def test_no_command_exit1(self):
        assert run_cli().returncode == 1

    def test_unknown_flag_exit1(self):
        assert run_cli("eval", "x", "--at", "1", "--frobnicate").returncode == 1

    def test_determinism(self, tmp_path):
        f = tmp_path / "samples.csv"
        f.write_text("1,2\n2,10\n3,30\n4,68\n")
        invocations = [
            ("eval", "sin(3.x)", "--at", "10"),
            ("sum", "x*sin(1.x)", "--from", "0", "--to", "20"),
            ("taylor", "--samples", str(f), "--eval", "11"),
            ("graph", "curvature", "--gen", "icosahedron"),
            ("forms", "laplacian", "--gen", "octahedron"),
            ("pde", "heat", "--gen", "cycle:5", "--t", "0.25", "--form", str(f)),
        ]
        # pde heat needs a form file; reuse of samples.csv would fail, so swap it
        form = tmp_path / "f0.csv"
        form.write_text("0,0,1\n")
        invocations[-1] = ("pde", "heat", "--gen", "cycle:5", "--t", "0.25", "--form", str(form))
        for args in invocations:
            first = run_cli(*args)
            second = run_cli(*args)
            assert first.returncode == second.returncode == 0
            assert first.stdout == second.stdout


# ---------------------------------------------------------------------------
# Fuzzing the front door in-process: argv from the subcommand grammar, input
# files with random contents.  Graphs stay small (generator n <= 6); --at,
# --from and --to reach +-10^12 and x^N, [x]^N reach N = 10^9, so that every
# documented bound must answer within the per-example deadline.

SPECIAL_FLOATS = ["nan", "inf", "-inf", "0", "-0.0", "-1", "-2.5", "1e400", "1e308", "-1e308", "5e-324"]
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats().map(repr),
                   st.integers(-99, 99).map(str), st.integers(-400, 400).map(lambda n: str(n / 8)))
small_ints = st.integers(-3, 99).map(str)
wide_ints = st.one_of(small_ints, st.integers(-10 ** 12, 10 ** 12).map(str))
generators = st.one_of(
    st.builds("{}:{}".format, st.sampled_from(["cycle", "wheel", "complete", "star", "linear", "path"]),
              st.integers(-1, 6)),
    st.builds("{}:{}".format, st.sampled_from(["hexpatch", "annulus"]), st.integers(-1, 2)),
    st.sampled_from(["octahedron", "icosahedron", "cube", "moebius", "hexpatch", "cycle", "cycle:abc", "nosuch:3", ""]),
)
simplices = st.one_of(st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True).map(sorted),
                      st.lists(st.integers(-1, 12), min_size=1, max_size=4)).map(lambda vs: "-".join(map(str, vs)))
values = st.one_of(floats, st.sampled_from(["1/2", "-3/4", "1/0", "x", "", " 7 "]))


def rows(*columns, max_size=8):
    return st.lists(st.tuples(*columns).map(lambda r: ",".join(map(str, r))), max_size=max_size).map("\n".join)


junk_csv = rows(st.one_of(small_ints, values), st.one_of(small_ints, simplices, values))
sample_csv = st.one_of(junk_csv, st.builds(lambda base, ys: "\n".join(f"{base + i},{y}" for i, y in enumerate(ys)),
                                           st.integers(-3, 3), st.lists(st.one_of(small_ints, values), max_size=6)))
vertex_csv = st.one_of(junk_csv, st.permutations(range(12)).map(
    lambda p: "vertex,value\n" + "\n".join(f"{v},{p[v]}" for v in range(12))))
form_csv = rows(st.integers(-1, 3), simplices, values, max_size=6).map("degree,simplex,value\n".__add__)
graph_json = st.one_of(
    st.builds(lambda n, edges: json.dumps({"vertices": n, "edges": edges}), st.integers(-1, 6),
              st.lists(st.lists(st.integers(-1, 6), min_size=0, max_size=3), max_size=10)),
    st.sampled_from(['{"vertices": "a", "edges": []}', '{"vertices": 3.5, "edges": []}', '{"edges": 5}',
                     '[1, 2]', 'null', '{"vertices": 2, "edges": [[0, 1]], "labels": 5}', 'not json']),
)
expressions = st.one_of(
    st.lists(st.one_of(st.sampled_from(["x", "[x]^3", "x^2", "2^x", "1/2^x", "sin(2.x)", "cos(-1.x)", "exp(1.x)",
                                        "log(x)", "3", "1/3", "(x+1)", "0^x", "exp(-1.x)", "x^0"]),
                       st.builds("{}^{}".format, st.sampled_from(["x", "[x]"]), st.integers(0, 10 ** 9))),
             min_size=1, max_size=3)
    .flatmap(lambda terms: st.sampled_from(["+", "-", "*"]).map(lambda op: op.join(terms))),
    st.text(alphabet="x[]^()+-*/.0123 sinco", max_size=5),
)


@st.composite
def cli_cases(draw, commands=("eval", "sum", "taylor", "graph", "forms", "pde", "plot")):
    """(argv, files): '{name}' in argv is the path of files[name] in a scratch directory."""
    files = {}

    def file(contents):
        name = f"f{len(files)}"
        files[name] = draw(contents)
        return draw(st.sampled_from(["{%s}" % name] * 8 + ["{dir}", "{dir}/missing.csv"]))

    def option(name, value, present=0.5):
        # '--name value', '--name=value' (needed for a value with a leading '-') or left out
        if draw(st.floats(0, 1)) >= present:
            return []
        value = draw(value)
        return [name, value] if draw(st.booleans()) else [f"{name}={value}"]

    def graph():
        return ["--gen", draw(generators)] if draw(st.booleans()) else ["--file", file(graph_json)]

    degree = st.integers(-2, 4).map(str)
    command = draw(st.sampled_from(commands))
    if command == "eval":
        argv = ["eval", draw(expressions), *option("--at", wide_ints, 0.9),
                *option("--op", st.sampled_from(["none", "diff", "sum", "x"]))]
    elif command == "sum":
        argv = ["sum", draw(expressions), *option("--from", wide_ints, 0.9), *option("--to", wide_ints, 0.9)]
    elif command == "taylor":
        argv = ["taylor", "--samples", file(sample_csv), *option("--eval", small_ints)]
        argv += draw(st.sampled_from([["--print"], []]))
    elif command == "graph":
        action = draw(st.sampled_from(["info", "betti", "curvature", "indices", "classify", "bogus"]))
        argv = ["graph", action, *graph()]
        if action == "indices" and draw(st.booleans()):
            argv += ["--fn", file(vertex_csv)]
    elif command == "forms":
        action = draw(st.sampled_from(["dirac", "laplacian", "stokes", "poisson"]))
        argv = ["forms", action, *graph(), *option("--degree", degree)]
        argv += draw(st.sampled_from([["--form", file(form_csv)], ["--current", file(form_csv)], []]))
    elif command == "pde":
        action = draw(st.sampled_from(["heat", "wave", "schrodinger"]))
        argv = ["pde", action, *graph(), "--form", file(form_csv), *option("--t", floats, 0.9),
                *option("--degree", degree)]
        if action == "wave" and draw(st.booleans()):
            argv += ["--velocity", file(form_csv)]
    else:
        fn = draw(st.one_of(st.sampled_from(["sin", "cos", "exp", "log", "sinh"]),
                            st.integers(-3, 30).map("pow:{}".format)))
        argv = ["plot", "--fn", fn, *option("--a", floats), *option("--h", floats),
                *option("--range", st.tuples(floats, floats).map(":".join), 0.9), "--out", "{dir}/out.svg"]
    if draw(st.integers(0, 19)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["--bogus", "1", "--gen"])))
    return argv, files


def run_case(case) -> int:
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"dir": tmp}
        for name, text in files.items():
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main([a.format(**paths) for a in argv])


class TestFuzz:
    @settings(max_examples=150, deadline=timedelta(seconds=5), derandomize=True)
    @given(case=cli_cases())
    def test_every_input_exits_0_1_or_2(self, case):
        assert run_case(case) in (0, 1, 2)

    # eval and sum alone, so that the wide --at, --from, --to and exponents are drawn often
    @settings(max_examples=150, deadline=timedelta(seconds=5), derandomize=True)
    @given(case=cli_cases(commands=("eval", "sum")))
    def test_scalar_inputs_exit_0_1_or_2(self, case):
        assert run_case(case) in (0, 1, 2)


class TestHelp:
    # argparse reads only what cli._read_argv declines; its parser holds a subparser for each entry of cli._SUBCOMMANDS

    def test_every_subcommand_resolves_to_a_handler(self):
        for command in cli._SUBCOMMANDS:
            handler = cli._handler(command)
            assert callable(handler) and handler.__name__ == f"cmd_{command}"

    @pytest.mark.parametrize("command", list(cli._SUBCOMMANDS))
    def test_subcommand_help_is_unchanged(self, command):
        r = run_cli(command, "-h")
        assert r.returncode == 0 and r.stdout.startswith(f"usage: discalc {command} "), r.stderr
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_:
            cli.build_parser().parse_args([command, "-h"])
        assert exit_.value.code == 0
        assert out.getvalue() == r.stdout

    @pytest.mark.parametrize("argv, code, listing", [
        ((), 1, "usage error: the following arguments are required: command\n"),
        (("-h",), 0, "{eval,sum,taylor,graph,forms,pde,plot}"),
        (("nosuch",), 1, "(choose from 'eval', 'sum', 'taylor', 'graph', 'forms', 'pde', 'plot')"),
    ], ids=["none", "help", "unknown"])
    def test_no_command_builds_every_subparser(self, argv, code, listing):
        r = run_cli(*argv)
        assert r.returncode == code and "Traceback" not in r.stderr
        assert listing in r.stdout + r.stderr
        # argparse prints no usage line for a missing command, but its parser too holds all seven
        assert "{eval,sum,taylor,graph,forms,pde,plot}" in cli.build_parser().format_usage()


class TestArgvReader:
    # main reads a plain command line with cli._read_argv and hands argparse only what that declines

    @settings(max_examples=300, derandomize=True)
    @given(case=cli_cases())
    def test_reader_matches_argparse(self, case):
        argv, files = case
        argv = [a.format(dir="/nonexistent", **{name: f"/nonexistent/{name}" for name in files}) for a in argv]
        args = cli._read_argv(argv)
        if args is not None:
            assert vars(args) == vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv, expected", [
        (["eval", "x", "--at", "-5"], {"expression": "x", "at": -5, "op": "none"}),
        (["eval", "-5", "--at", "3"], {"expression": "-5", "at": 3, "op": "none"}),
        (["pde", "heat", "--gen", "cycle:4", "--t", "-0.5", "--form", "f"],
         {"action": "heat", "t": -0.5, "form": "f", "velocity": None, "gen": "cycle:4", "file": None, "degree": None}),
        (["pde", "wave", "--t", "-.5", "--form=f", "--file", "g"],
         {"action": "wave", "t": -0.5, "form": "f", "velocity": None, "gen": None, "file": "g", "degree": None}),
        (["plot", "--fn", "sin", "--range=-2:3", "--out", "o"],
         {"fn": "sin", "a": 1.0, "h": 1.0, "range": "-2:3", "out": "o"}),
        (["eval", "x", "--at", "1", "--op", "sum", "--at", "2"], {"expression": "x", "at": 2, "op": "sum"}),
        (["taylor", "--samples", "a", "--print", "--print", "--samples", "b"],
         {"samples": "b", "eval": None, "print_form": True}),
        (["forms", "laplacian", "--degree=-1", "--gen="], {"action": "laplacian", "gen": "", "file": None,
                                                           "form": None, "current": None, "degree": -1}),
        # a value that is no plain negative number: argparse 3.11 reads it as an option, an error
        (["plot", "--fn", "sin", "--range", "-2:3", "--out", "o"], None),
        (["eval", "x", "--at=-1e5"], None),  # a failed conversion
        (["eval", "x", "--at", "-\u0663"], None),  # argparse reads the Arabic-Indic digit as a number, the reader not
        (["forms", "poisson", "--gen", "cycle:3", "--cur", "f"], None),  # an abbreviation
        (["taylor", "--samples", "f", "--print=x"], None),  # a value for a flag
        (["eval", "--", "x", "--at", "3"], None),
        (["eval", "x", "--at", "3", "--"], None),
        (["eval", "x", "-h"], None),
        (["eval", "x", "--help"], None),
        (["eval", "x", "y", "--at", "3"], None),  # a second positional
        (["eval", "x", "--at", "3", "--op", "integrate"], None),  # outside the choices
        (["eval", "x"], None),  # a required option missing
        (["eval", "--at", "3"], None),  # the positional missing
        (["eval", "x", "--at"], None),  # an option with no value
        (["eval", "x", "--at", "--op", "sum"], None),
        (["eval", "x", "--at", "3", "--bogus"], None),
        (["plot", "--fn", "sin", "--a", "inf", "--range", "0:1", "--out", "o"], None),  # _finite refuses it
        (["nosuch", "x"], None),
        (["-h"], None),
        ([], None),
    ])
    def test_reader_rows(self, argv, expected):
        args = cli._read_argv(argv)
        if expected is None:
            assert args is None
            return
        assert vars(args) == {"command": argv[0], **expected}
        assert vars(args) == vars(cli.build_parser().parse_args(argv))


class TestProcessExit:
    def test_in_process_calls_freeze_nothing(self, tmp_path):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["eval", "x^2", "--at", "3"]) == 0
            assert cli.main(["graph", "betti", "--gen", "octahedron"]) == 0
            assert cli.main(["plot", "--fn", "sin", "--range", "0:1", "--out", str(tmp_path / "p.svg")]) == 0
            assert cli.main(["eval", "x^", "--at", "3"]) == 1
            with pytest.raises(SystemExit):
                cli.main(["eval", "-h"])
        assert gc.get_freeze_count() == 0

    def test_process_entry_freezes(self):
        # what the console script and python -m discalc do: main() reads sys.argv
        code = ("import gc, sys\nfrom discalc import cli\nsys.argv = ['discalc', 'eval', 'x^2', '--at', '3']\n"
                "code = cli.main()\nprint(gc.get_freeze_count())\nsys.exit(code)")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        result, count = r.stdout.split()
        assert result == "9" and int(count) > 0

    def test_plot_file_is_complete_after_exit(self, tmp_path):
        argv = ["plot", "--fn", "cos", "--a", "2", "--h", "0.3", "--range=-3:7"]
        r = run_cli(*argv, "--out", str(tmp_path / "process.svg"))
        assert r.returncode == 0 and r.stdout == f"wrote {tmp_path / 'process.svg'}\n"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*argv, "--out", str(tmp_path / "in-process.svg")]) == 0
        text = (tmp_path / "process.svg").read_text(encoding="utf-8")
        assert text.endswith("</svg>\n") and text == (tmp_path / "in-process.svg").read_text(encoding="utf-8")

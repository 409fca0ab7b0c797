import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import discalc
from discalc import cli, complexes as cx, evolution as ev, expr, forms
from discalc.numcore import DomainError


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "discalc", *args],
        capture_output=True, text=True, cwd=cwd,
    )


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

    def test_missing_file_exit1(self):
        r = run_cli("taylor", "--samples", "/nonexistent.csv", "--eval", "3")
        assert r.returncode == 1

    def test_gap_rejected(self, tmp_path):
        f = tmp_path / "samples.csv"
        f.write_text("0,1\n2,3\n")
        assert run_cli("taylor", "--samples", str(f), "--eval", "1").returncode == 2


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
        ("stokes", "wheel:6", "--form", "stokes.csv"): "13febe9f55fae45fa1aa9c227da8b1ee8b831a7e7bf35a1e7f65caa69daa72f0",
        ("poisson", "complete:5", "--current", "current.csv"):
            "0189c2b8eed5677d27eb1d3d94baab642f8894ec03174cbab1e8b466017b50f3",
        ("heat", "cycle:5", "--t", "0.5", "--form", "f0.csv"):
            "e42cb9337d0cdd3aeb22dde905849942b948c6ad669525178bba5390a7815af3",
        # these two change in their last digits when sym_eigen hands the flows a C-ordered q
        ("poisson", "annulus:3", "--current", "annulus_current.csv"):
            "a8c86f8f98b40cc0714066235b044adc06ed8607e75c6c77f22380109fe27a05",
        ("wave", "annulus:3", "--t", "0.3", "--form", "annulus_state.csv"):
            "b0fe62968b06d02149c5efc3a1e99955f6c684d61eb27323c3695fb5f3451503",
    }

    def test_golden_stdout(self, tmp_path):
        rim = [(i, (i + 1) % 6, i + 1) for i in range(6)]
        stokes = [f"1,{min(a, b)}-{max(a, b)},{v if a < b else -v}" for a, b, v in rim]
        (tmp_path / "stokes.csv").write_text("\n".join(stokes + [f"1,{i}-6,1" for i in range(6)]) + "\n")
        (tmp_path / "current.csv").write_text("1,0-1,1\n1,1-2,1\n1,0-2,-1\n")
        (tmp_path / "f0.csv").write_text("0,0,1\n")
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
        for (action, gen, *rest), digest in self.GOLDEN.items():
            command = "pde" if action in ("heat", "wave") else "forms"
            rest = [str(tmp_path / a) if a.endswith(".csv") else a for a in rest]
            r = run_cli(command, action, "--gen", gen, *rest)
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

    def test_wave_harmonic_velocity_exit2(self, tmp_path):
        f0 = tmp_path / "f0.csv"
        f0.write_text("0,0,0\n")
        g0 = tmp_path / "g0.csv"
        g0.write_text("0,0,1\n0,1,1\n0,2,1\n0,3,1\n")
        r = run_cli("pde", "wave", "--gen", "cycle:4", "--t", "1.0",
                    "--form", str(f0), "--velocity", str(g0))
        assert r.returncode == 2


class TestFrontDoor:
    @pytest.mark.parametrize("args, files, code", [
        (("graph", "info", "--gen", "cycle:abc"), {}, 1),
        (("graph", "info", "--file", "{g}"), {"g": "not json"}, 1),
        (("graph", "info", "--file", "{g}"), {"g": '{"vertices": 3}'}, 1),
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
    ], ids=["gen-not-int", "file-not-json", "file-no-edges", "simplex-descending", "value-not-number",
            "form-two-columns", "fn-value-not-number", "samples-one-column", "plot-pow-not-int",
            "simplex-not-in-complex", "degree-not-in-complex", "vertex-past-end", "vertex-negative",
            "laplacian-degree-past-top", "t-inf", "t-nan", "a-nan", "h-inf", "range-inf", "range-nan",
            "exp-h-zero", "sin-h-zero", "exp-negative-base", "exp-overflow", "pow-negative",
            "heat-value-past-float", "schrodinger-value-past-float", "poisson-value-past-float",
            "schrodinger-t-past-float", "wave-t-past-float", "sum-power-past-bound", "plot-pow-past-bound",
            "sum-log-past-direct-bound", "sum-abel-past-direct-bound",
            "sum-terms-past-direct-bits", "eval-power-past-result-bound",
            "eval-power-far-past-result-bound", "sum-exp-past-result-bound", "eval-exp-just-past-result-bound",
            "eval-literal-power-past-result-bound", "eval-no-closed-form",
            "stokes-non-orientable", "poisson-harmonic-current"])
    def test_malformed_input_exit_code(self, tmp_path, args, files, code):
        paths = {"o": str(tmp_path / "out.svg")}
        for key, text in files.items():
            (tmp_path / key).write_text(text)
            paths[key] = str(tmp_path / key)
        r = run_cli(*(a.format(**paths) for a in args))
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
                "discalc.topology\nif 'numpy' in sys.modules: raise SystemExit('numpy imported by a plain-Python module')")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr

    @pytest.mark.parametrize("module", ["cli", "numcore", "expr", "interpolate", "__init__", "complexes", "topology"])
    def test_import_boundary_names_no_numpy(self, module):
        # read, not imported: cli.py reaches numpy only through the graph modules
        source = (Path(discalc.__file__).parent / f"{module}.py").read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                pytest.fail(f"{module}.py line {node.lineno} imports numpy")

    @pytest.mark.parametrize("error", [expr.NoClosedFormError, cx.NonOrientableError,
                                       forms.NotGradientFieldError, ev.HarmonicComponentError])
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

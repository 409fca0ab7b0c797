import subprocess
import sys


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

import itertools
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from discalc import DomainError, complexes as cx, evolution as ev, forms as fm, homology as hm, topology as tp
from discalc import vector as vc

from conftest import random_connected_graph, random_graph


def cone(g: cx.Graph) -> cx.Graph:
    """Join a new apex vertex to every vertex of g."""
    apex = g.vertex_count
    edges = set(g.edges) | {(v, apex) for v in range(apex)}
    return cx.Graph(apex + 1, frozenset(edges))


def random_form(rng: random.Random, c: cx.GraphComplex, k: int) -> fm.Form:
    return fm.Form(c, k, np.array([rng.randint(-9, 9) for _ in range(c.count(k))], dtype=object))


class TestExteriorDerivative:
    def test_k2_gradient(self):
        c = cx.build_complex(cx.generate("complete", 2))
        d0 = fm.exterior_derivative(c, 0)
        assert d0.data.tolist() == [[-1, 1]]

    def test_k2_dirac_and_laplacian(self):
        c = cx.build_complex(cx.generate("complete", 2))
        D = fm.dirac(c).data
        assert D.tolist() == [[0, 0, -1], [0, 0, 1], [-1, 1, 0]]
        L = fm.laplacian(c).data
        assert L.tolist() == [[1, -1, 0], [-1, 1, 0], [0, 0, 2]]

    def test_k2_spectrum(self):
        c = cx.build_complex(cx.generate("complete", 2))
        w = np.linalg.eigvalsh(fm.laplacian(c).data.astype(float))
        assert np.allclose(sorted(w), [0, 2, 2], atol=1e-10)

    def test_triangle_d1(self):
        c = cx.build_complex(cx.generate("complete", 3))
        d1 = fm.exterior_derivative(c, 1)
        # edges (0,1), (0,2), (1,2); triangle (0,1,2)
        assert d1.data.tolist() == [[1, -1, 1]]

    def test_dd_zero_generated(self):
        for spec in ("octahedron", "icosahedron", "wheel:6", "complete:5", "hexpatch:2"):
            c = cx.build_complex(cx.parse_generator(spec))
            for k in range(c.top_dim):
                dk1 = fm.exterior_derivative(c, k + 1).data
                dk = fm.exterior_derivative(c, k).data
                prod = dk1 @ dk
                assert not prod.size or np.all(prod == 0)

    def test_dd_zero_random(self):
        rng = random.Random(42)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 12), rng.uniform(0.2, 0.9))
            c = cx.build_complex(g)
            for k in range(c.top_dim):
                prod = fm.exterior_derivative(c, k + 1).data @ fm.exterior_derivative(c, k).data
                assert not prod.size or np.all(prod == 0)

    def test_dirac_symmetric_and_squares_to_laplacian(self):
        rng = random.Random(1)
        graphs = [random_connected_graph(rng, rng.randint(3, 12)) for _ in range(30)]
        for g in graphs + [cx.generate("complete", 12), cx.parse_generator("hexpatch:6")]:
            c = cx.build_complex(g)
            L = fm.laplacian(c).data
            D = fm.dirac(c).data
            assert np.all(D == D.T)
            if len(L) < 1000:  # numpy has no int64 BLAS: D @ D on the 4095 simplices of complete:12 takes ~2 min
                assert np.all(L == D @ D)
            # L is block diagonal per degree, each block the int64 product d_k^T d_k + d_{k-1} d_{k-1}^T
            offsets, ds = fm.block_offsets(c), [fm.exterior_derivative(c, k).data for k in range(c.top_dim + 1)]
            nonzero = 0
            for k in range(c.top_dim + 1):
                blk = ds[k].T @ ds[k] + (ds[k - 1] @ ds[k - 1].T if k else 0)
                assert np.all(L[offsets[k]:offsets[k + 1], offsets[k]:offsets[k + 1]] == blk)
                assert np.all(fm.laplacian_block(c, k).data == blk)
                nonzero += np.count_nonzero(blk)
            assert np.count_nonzero(L) == nonzero

    def test_laplacian_builds_each_d_once(self, monkeypatch):
        c = cx.build_complex(cx.generate("icosahedron"))
        calls = []
        build = fm.exterior_derivative
        monkeypatch.setattr(fm, "exterior_derivative", lambda c, k: calls.append(k) or build(c, k))
        fm.laplacian(c)
        assert sorted(calls) == list(range(c.top_dim))

    def test_d_is_the_face_table(self):
        for spec in ("icosahedron", "complete:5", "moebius"):
            c = cx.build_complex(cx.parse_generator(spec))
            assert all(fm.exterior_derivative(c, k).rows is c.faces[k + 1] for k in range(c.top_dim))
            snapshot = [[dict(row) for row in level] for level in c.faces]
            # the readers that share the rows leave them as they were
            fm.laplacian(c)
            fm.laplacian_block(c, 1)
            hm.betti(c)
            vc.apply_d(random_form(random.Random(1), c, 1))
            assert [[dict(row) for row in level] for level in c.faces] == snapshot

    def test_operators_are_int64(self):
        c = cx.build_complex(cx.generate("icosahedron"))
        ops = [fm.exterior_derivative(c, k) for k in range(c.top_dim + 1)]
        ops += [fm.codifferential(c, 1), fm.dirac(c), fm.laplacian(c), fm.laplacian_block(c, 1)]
        assert all(op.data.dtype == np.int64 for op in ops)

    def test_operators_leave_numpy_unloaded_until_data(self):
        # a fresh interpreter: this one has numpy loaded already
        code = ("import sys\nfrom discalc import complexes as cx, forms as fm\n"
                "c = cx.build_complex(cx.generate('icosahedron'))\n"
                "ops = [fm.exterior_derivative(c, 1), fm.codifferential(c, 2), fm.dirac(c), fm.laplacian(c), "
                "fm.laplacian_block(c, 1)]\n"
                "if 'numpy' in sys.modules: raise SystemExit('numpy loaded by an operator builder')\n"
                "ops[3].data\n"
                "if 'numpy' not in sys.modules: raise SystemExit('numpy not loaded by .data')")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr

    def test_sparse_rows_hold_only_nonzeros(self):
        for spec in ("icosahedron", "complete:5", "moebius"):
            c = cx.build_complex(cx.parse_generator(spec))
            for op in (fm.dirac(c), fm.laplacian(c), fm.laplacian_block(c, 1), fm.codifferential(c, 1)):
                assert len(op.rows) == op.shape[0]
                assert all(v != 0 and 0 <= j < op.shape[1] for row in op.rows for j, v in row.items())
                assert sum(map(len, op.rows)) == np.count_nonzero(op.data)

    def test_laplacian_block_past_top_dim_rejected(self):
        c = cx.build_complex(cx.generate("cycle", 4))
        assert fm.laplacian_block(c, 1).data.shape == (4, 4)
        with pytest.raises(DomainError):
            fm.laplacian_block(c, 2)

    def test_block0_is_kirchhoff(self):
        g = cx.generate("wheel", 5)
        c = cx.build_complex(g)
        L0 = fm.laplacian_block(c, 0).data
        for v in range(g.vertex_count):
            assert L0[v, v] == len(g.neighbors(v))
        for a in range(g.vertex_count):
            for b in range(g.vertex_count):
                if a != b:
                    assert L0[a, b] == (-1 if (min(a, b), max(a, b)) in g.edges else 0)
        assert np.all(L0.sum(axis=1) == 0)


class TestApplyD:
    def test_matches_dense_d_on_fraction_forms(self):
        rng = random.Random(8)
        for _ in range(40):
            c = cx.build_complex(random_graph(rng, rng.randint(1, 9), rng.uniform(0.3, 0.9)))
            for k in range(c.top_dim + 1):
                values = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(c.count(k))]
                F = fm.Form(c, k, np.array(values, dtype=object))
                dF = vc.apply_d(F)
                assert dF.degree == k + 1
                assert list(dF.values) == list(fm.exterior_derivative(c, k).data @ F.values)

    def test_matches_dense_d_on_float_forms(self):
        # magnitudes far apart, so a sum in any other order rounds differently
        rng = random.Random(9)
        for spec in ("hexpatch:4", "icosahedron", "complete:6", "annulus:3"):
            c = cx.build_complex(cx.parse_generator(spec))
            for k in range(c.top_dim + 1):
                values = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8) for _ in range(c.count(k))]
                dF = vc.apply_d(fm.Form(c, k, values))
                # the object product adds in ascending column order; @ on floats would go through BLAS
                assert dF.values == tuple(fm.exterior_derivative(c, k).data @ np.array(values, dtype=object))

    def test_negative_degree_rejected(self):
        c = cx.build_complex(cx.generate("complete", 3))
        with pytest.raises(DomainError):
            vc.apply_d(fm.Form(c, -1, np.zeros(0, dtype=object)))


class TestIntegration:
    def test_int64_array_form_integrates_exactly(self):
        # int64 entries would wrap past 2^63; the form holds them as Python ints
        c = cx.build_complex(cx.generate("complete", 3))
        F = fm.Form(c, 1, np.array([2**62, -2**62, 2**62], dtype=np.int64))
        total = vc.line_integral(F, [0, 1, 2])
        assert total == 2**63 and type(total) is int
        lhs, rhs = vc.stokes_sides(c, c.simplices[2], F)
        assert lhs == rhs == 3 * 2**62 and type(lhs) is int and type(rhs) is int

    def test_line_integral_of_gradient(self):
        rng = random.Random(8)
        for _ in range(100):
            g = random_connected_graph(rng, rng.randint(3, 10))
            c = cx.build_complex(g)
            f = [rng.randint(-20, 20) for _ in range(g.vertex_count)]
            F = fm.Form(c, 1, fm.gradient(c).data @ np.array(f, dtype=object))
            # random walk along edges
            path = [rng.randrange(g.vertex_count)]
            for _ in range(rng.randint(1, 12)):
                path.append(rng.choice(sorted(g.neighbors(path[-1]))))
            assert vc.line_integral(F, path) == f[path[-1]] - f[path[0]]

    def test_edge_value_antisymmetry(self):
        c = cx.build_complex(cx.generate("cycle", 4))
        F = fm.Form(c, 1, np.array([3, -1, 5, 7], dtype=object))
        for a, b in c.graph.edges:
            assert vc.edge_value(F, a, b) == -vc.edge_value(F, b, a)

    def test_closed_loop_integral_zero_for_gradient(self):
        c = cx.build_complex(cx.generate("cycle", 5))
        f = [0, 3, 1, 4, 2]
        F = fm.Form(c, 1, fm.gradient(c).data @ np.array(f, dtype=object))
        assert vc.line_integral(F, [0, 1, 2, 3, 4, 0]) == 0


class TestStokes:
    def test_wheel_full_disc(self):
        c = cx.build_complex(cx.generate("wheel", 6))
        rng = random.Random(2)
        for _ in range(20):
            F = random_form(rng, c, 1)
            assert vc.stokes_residual(c, c.simplices[2], F) == 0

    def test_random_icosahedron_patches(self):
        c = cx.build_complex(cx.generate("icosahedron"))
        triangles = c.simplices[2]
        rng = random.Random(3)
        done = 0
        while done < 100:
            # grow a random connected patch of triangles
            patch = [rng.choice(triangles)]
            while len(patch) < rng.randint(1, 12):
                frontier = [
                    t for t in triangles
                    if t not in patch and any(len(set(t) & set(s)) == 2 for s in patch)
                ]
                if not frontier:
                    break
                patch.append(rng.choice(frontier))
            F = random_form(rng, c, 1)
            assert vc.stokes_residual(c, patch, F) == 0
            done += 1

    def test_vertex_form_over_edge_path(self):
        # degree-0 Stokes: sum of df over a path of edges telescopes
        c = cx.build_complex(cx.generate("path", 6))
        rng = random.Random(4)
        f = fm.Form(c, 0, np.array([rng.randint(-9, 9) for _ in range(6)], dtype=object))
        region = c.simplices[1]
        assert vc.stokes_residual(c, region, f) == 0

    def test_gauss_on_solid_ball(self):
        # cone over the octahedron: eight tetrahedra filling a 3-ball
        g = cone(cx.generate("octahedron"))
        c = cx.build_complex(g)
        assert c.count(3) == 8
        assert tp.classify(c).kind == "solid"
        rng = random.Random(5)
        for _ in range(20):
            F = random_form(rng, c, 2)
            assert vc.stokes_residual(c, c.simplices[3], F) == 0

    def test_boundary_faces_mod2(self):
        c = cx.build_complex(cx.generate("wheel", 6))
        faces = vc.boundary_faces(c, 2, c.simplices[2])
        assert sorted(faces) == sorted(
            tuple(sorted((i, (i + 1) % 6))) for i in range(6)
        )

    @pytest.mark.parametrize("k, region", [(2, [(0, 1, 6), (0, 2, 6)]), (1, [(0, 1), (7, 8)]), (3, [])],
                             ids=["not-a-triangle", "vertex-out-of-range", "degree-past-top"])
    def test_boundary_faces_outside_complex_rejected(self, k, region):
        with pytest.raises(DomainError):
            vc.boundary_faces(cx.build_complex(cx.generate("wheel", 6)), k, region)


class TestProducts:
    def test_dot_and_length(self):
        c = cx.build_complex(cx.generate("complete", 3))
        F = fm.Form(c, 1, np.array([1, 2, 2], dtype=object))
        assert vc.dot_at_vertex(F, F, 0) == 1 + 4
        assert vc.form_length(F, 0) == pytest.approx(5 ** 0.5)

    def test_angle_of_orthogonal_forms(self):
        c = cx.build_complex(cx.generate("complete", 3))
        F = fm.Form(c, 1, np.array([1, 0, 0], dtype=object))
        G = fm.Form(c, 1, np.array([0, 1, 0], dtype=object))
        assert vc.form_angle(F, G, 0) == pytest.approx(np.pi / 2)

    def test_cross_antisymmetry(self):
        c = cx.build_complex(cx.generate("complete", 4))
        rng = random.Random(6)
        F = random_form(rng, c, 1)
        G = random_form(rng, c, 1)
        for tri in c.simplices[2]:
            assert vc.cross_on_triangle(F, G, tri) == -vc.cross_on_triangle(G, F, tri)
            assert vc.cross_on_triangle(F, F, tri) == 0

    def test_gradient_cross_magnitude_anchor_independent(self):
        # for exact forms df x dg is a 2x2 determinant of differences, so its
        # magnitude does not depend on the anchoring vertex
        c = cx.build_complex(cx.generate("complete", 4))
        rng = random.Random(7)
        d0 = fm.gradient(c).data
        for _ in range(20):
            f = np.array([rng.randint(-9, 9) for _ in range(4)], dtype=object)
            g_vals = np.array([rng.randint(-9, 9) for _ in range(4)], dtype=object)
            F = fm.Form(c, 1, d0 @ f)
            G = fm.Form(c, 1, d0 @ g_vals)
            for tri in c.simplices[2]:
                x, y, z = tri
                values = {
                    abs(vc.cross_on_triangle(F, G, anchor))
                    for anchor in ((x, y, z), (y, z, x), (z, x, y))
                }
                assert len(values) == 1

    def test_triple_product_is_alternating(self):
        c = cx.build_complex(cx.generate("complete", 4))
        rng = random.Random(8)
        F, G, H = (random_form(rng, c, 1) for _ in range(3))
        tet = (0, 1, 2, 3)
        base = vc.triple_product(F, G, H, tet)
        assert vc.triple_product(G, F, H, tet) == -base
        assert vc.triple_product(F, F, H, tet) == 0

    def test_triple_product_permutation_oracle(self):
        # determinant = signed sum over permutations of edge values
        c = cx.build_complex(cx.generate("complete", 4))
        rng = random.Random(9)
        F, G, H = (random_form(rng, c, 1) for _ in range(3))
        x, y, z, w = 0, 1, 2, 3
        cols = (y, z, w)
        forms = (F, G, H)

        def parity(p):
            inv = sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j])
            return -1 if inv % 2 else 1

        oracle = sum(
            parity(p) * np.prod([vc.edge_value(forms[i], x, cols[p[i]]) for i in range(3)])
            for p in itertools.permutations(range(3))
        )
        assert vc.triple_product(F, G, H, (x, y, z, w)) == oracle


class TestAscentAndPotential:
    def test_ascent_reaches_local_maximum(self):
        rng = random.Random(10)
        for _ in range(100):
            g = random_connected_graph(rng, rng.randint(2, 10))
            c = cx.build_complex(g)
            f = {v: rng.random() for v in range(g.vertex_count)}
            start = rng.randrange(g.vertex_count)
            path = vc.gradient_ascent(c, f, start)
            end = path[-1]
            assert all(f[w] <= f[end] for w in g.neighbors(end))
            # values strictly increase along the path
            assert all(f[a] < f[b] for a, b in zip(path, path[1:]))

    def test_directional_derivative(self):
        c = cx.build_complex(cx.generate("cycle", 4))
        f = {0: 1, 1: 5, 2: 2, 3: 0}
        assert vc.directional_derivative(c, f, (0, 1)) == 4
        assert vc.directional_derivative(c, f, (1, 0)) == -4
        with pytest.raises(DomainError):
            vc.directional_derivative(c, f, (0, 2))

    def test_potential_recovers_function(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_connected_graph(rng, rng.randint(2, 10))
            c = cx.build_complex(g)
            f = [rng.randint(-20, 20) for _ in range(g.vertex_count)]
            F = fm.Form(c, 1, fm.gradient(c).data @ np.array(f, dtype=object))
            got = vc.potential(c, F)
            assert all(got[v] == f[v] - f[0] for v in range(g.vertex_count))

    def test_potential_rejects_circulation(self):
        c = cx.build_complex(cx.generate("cycle", 4))
        F = fm.Form(c, 1, np.array([1, -1, 1, 1], dtype=object))
        # edges (0,1),(0,3),(1,2),(2,3): circulation 1+1+1+1 around the loop
        with pytest.raises(vc.NotGradientFieldError) as err:
            vc.potential(c, F)
        witness = err.value.witness
        # witness is a closed walk along graph edges
        assert witness[0] == witness[-1]
        for a, b in zip(witness, witness[1:]):
            assert (min(a, b), max(a, b)) in c.graph.edges


class TestPoissonMaxwell:
    def test_k5_exact(self):
        c = cx.build_complex(cx.generate("complete", 5))
        # a divergence-free current: the curl of a random 2-form
        rng = random.Random(12)
        B = random_form(rng, c, 2)
        jv = fm.exterior_derivative(c, 1).data.T @ B.values
        j = fm.Form(c, 1, jv)
        A, F = ev.poisson_maxwell(c, j)
        d1 = fm.exterior_derivative(c, 1).data.astype(float)
        residual = np.abs(d1.T @ (d1 @ np.asarray(A.values, dtype=float))
                          - np.asarray(jv, dtype=float)).max()
        assert residual < 1e-10
        gauge = np.abs(fm.exterior_derivative(c, 0).data.T.astype(float)
                       @ np.asarray(A.values, dtype=float)).max()
        assert gauge < 1e-10

    def test_kirchhoff_violation_rejected(self):
        c = cx.build_complex(cx.generate("complete", 3))
        j = fm.Form(c, 1, np.array([1, 0, 0], dtype=object))
        with pytest.raises(DomainError):
            ev.poisson_maxwell(c, j)

    def test_harmonic_current_rejected(self):
        c = cx.build_complex(cx.generate("cycle", 4))
        # constant circulation around C4 is divergence-free but harmonic
        jv = np.array([0, 0, 0, 0], dtype=object)
        idx = c.index[1]
        for a, b in [(0, 1), (1, 2), (2, 3), (0, 3)]:
            key = (min(a, b), max(a, b))
            jv[idx[key]] = 1 if a < b else -1
        jv[idx[(0, 3)]] = -1
        with pytest.raises(ev.HarmonicComponentError):
            ev.poisson_maxwell(c, fm.Form(c, 1, jv))

    def test_faraday_dF_zero(self):
        g = cone(cx.generate("octahedron"))
        c = cx.build_complex(g)
        rng = random.Random(13)
        B = random_form(rng, c, 2)
        jv = fm.exterior_derivative(c, 1).data.T @ B.values
        A, F = ev.poisson_maxwell(c, fm.Form(c, 1, jv))
        d2 = fm.exterior_derivative(c, 2).data.astype(float)
        assert np.abs(d2 @ np.asarray(F.values, dtype=float)).max() < 1e-8

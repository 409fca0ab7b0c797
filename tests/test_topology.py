import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from discalc import DomainError, complexes as cx, forms as fm, homology as hm, topology as tp

from conftest import random_connected_graph, random_graph


def complex_of(spec: str) -> cx.GraphComplex:
    return cx.build_complex(cx.parse_generator(spec))


class TestEulerCharacteristic:
    def test_named_values(self):
        assert hm.euler_characteristic(complex_of("octahedron")) == 2
        assert hm.euler_characteristic(complex_of("icosahedron")) == 2
        assert hm.euler_characteristic(complex_of("cube")) == -4
        assert hm.euler_characteristic(complex_of("complete:5")) == 1
        assert hm.euler_characteristic(complex_of("cycle:7")) == 0
        assert hm.euler_characteristic(complex_of("wheel:6")) == 1


def integer_rank(mat) -> int:
    """Rank over the rationals via fraction-free (Bareiss) elimination."""
    rows = [list(int(x) for x in row) for row in mat]
    if not rows or not rows[0]:
        return 0
    m, n = len(rows), len(rows[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(n):
        pivot = None
        for r in range(row, m):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        for r in range(row + 1, m):
            for cc in range(col + 1, n):
                rows[r][cc] = (rows[row][col] * rows[r][cc] - rows[r][col] * rows[row][cc]) // prev
            rows[r][col] = 0
        prev = rows[row][col]
        row += 1
        rank += 1
        if row == m:
            break
    return rank


class TestIntegerRank:
    def test_simple(self):
        assert integer_rank([[1, 2], [2, 4]]) == 1
        assert integer_rank([[1, 0], [0, 1]]) == 2
        assert integer_rank([[0, 0], [0, 0]]) == 0

    def test_rectangular(self):
        assert integer_rank([[1, 2, 3]]) == 1
        assert integer_rank([[1], [2], [3]]) == 1

    def test_large_entries_stay_exact(self):
        # Bareiss keeps everything integral; a Hilbert-like matrix scaled up
        n = 6
        scale = 2 * 3 * 5 * 7 * 11
        mat = [[scale // (i + j + 1) for j in range(n)] for i in range(n)]
        assert integer_rank(mat) == n


def as_rows(mat) -> list:
    """The nonzero entries of each row as {column: value}."""
    return [{j: v for j, v in enumerate(row) if v} for row in mat]


class TestSparseRank:
    def test_q_rank_not_z2_rank(self):
        # ranks over Q that reduction mod 2 would get wrong
        for mat, rank in (([[1, 1], [1, -1]], 2), ([[2]], 1), ([[2, 4], [3, 6]], 1), ([[0, 2], [2, 0]], 2)):
            assert len(hm._echelon(as_rows(mat))) == integer_rank(mat) == rank

    def test_random_integer_matrices(self):
        rng = random.Random(5)
        for _ in range(300):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            mat = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 6, 12)) for _ in range(n)] for _ in range(m)]
            if rng.random() < 0.3:  # force a dependent row
                mat.append([rng.randint(-3, 3) * a + rng.randint(-3, 3) * b for a, b in zip(mat[0], mat[-1])])
            assert len(hm._echelon(as_rows(mat))) == integer_rank(mat)

    def test_every_d_k_of_random_complexes(self):
        rng = random.Random(13)
        for _ in range(60):
            c = cx.build_complex(random_graph(rng, rng.randint(1, 9), rng.uniform(0.2, 0.9)))
            for k in range(c.top_dim):
                assert len(hm._echelon(c.faces[k + 1])) == integer_rank(fm.exterior_derivative(c, k).data)


class TestBetti:
    def test_large_complexes(self):
        assert hm.betti(complex_of("hexpatch:12")) == (1, 0, 0)
        assert hm.betti(complex_of("complete:11")) == (1,) + (0,) * 10

    def test_named_values(self):
        assert hm.betti(complex_of("octahedron")) == (1, 0, 1)
        assert hm.betti(complex_of("icosahedron")) == (1, 0, 1)
        assert hm.betti(complex_of("cycle:7")) == (1, 1)
        assert hm.betti(complex_of("complete:5")) == (1, 0, 0, 0, 0)
        assert hm.betti(complex_of("wheel:6")) == (1, 0, 0)

    def test_cube_has_five_independent_loops(self):
        assert hm.betti(complex_of("cube")) == (1, 5)

    def test_annulus(self):
        assert hm.betti(cx.build_complex(cx.hex_annulus(2)))[:2] == (1, 1)

    def test_euler_poincare(self):
        rng = random.Random(21)
        for _ in range(50):
            c = cx.build_complex(random_graph(rng, rng.randint(1, 10), rng.uniform(0.2, 0.8)))
            b = hm.betti(c)
            assert sum((-1) ** k * v for k, v in enumerate(b)) == hm.euler_characteristic(c)

    def test_disconnected_b0(self):
        g = cx.Graph(5, frozenset({(0, 1), (2, 3)}))
        assert hm.betti(cx.build_complex(g))[0] == 3

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32), n=st.integers(0, 9), p=st.floats(0, 1))
    def test_clearing_matches_the_bareiss_ranks(self, seed, n, p):
        # every level at once: b_k = n_k - rank d_k - rank d_{k-1}, each rank from the dense oracle
        c = cx.build_complex(random_graph(random.Random(seed), n, p))
        ranks = [0] + [integer_rank(fm.exterior_derivative(c, k).data) for k in range(c.top_dim)] + [0]
        assert hm.betti(c) == tuple(c.count(k) - ranks[k + 1] - ranks[k] for k in range(c.top_dim + 1))

    def test_cleared_rows_keep_the_rank(self):
        # the rows of the pivots of the level above are skipped, and the rank of each level is unchanged
        for spec in ("hexpatch:6", "icosahedron", "complete:7", "moebius", "annulus:2"):
            c = complex_of(spec)
            for k in range(1, c.top_dim):
                cleared = hm._echelon(c.faces[k + 1])
                assert cleared and len(hm._echelon(c.faces[k], cleared)) == len(hm._echelon(c.faces[k]))


class TestCurvature:
    def test_octahedron_uniform_third(self):
        c = complex_of("octahedron")
        assert tp.curvature_vector(c) == (Fraction(1, 3),) * 6

    def test_icosahedron_uniform_sixth(self):
        c = complex_of("icosahedron")
        assert tp.curvature_vector(c) == (Fraction(1, 6),) * 12

    def test_surface_shortcut_agrees(self):
        # on a surface with cycle unit spheres, K(x) = 1 - |S(x)|/6
        for spec in ("octahedron", "icosahedron"):
            c = complex_of(spec)
            for x in range(c.graph.vertex_count):
                sphere = tp.unit_sphere(c, x)
                assert tp.is_cycle_graph(sphere)
                assert tp.curvature(c, x) == 1 - Fraction(sphere.vertex_count, 6)

    def test_flat_interior(self):
        c = cx.build_complex(cx.hex_patch(2))
        cls = tp.classify(c)
        for x in range(c.graph.vertex_count):
            if x not in cls.boundary:
                assert tp.curvature(c, x) == 0

    def test_matches_unit_sphere_formula(self):
        # the sphere route, as an oracle: K(x) = 1 + sum_k (-1)^(k+1) V_k(S(x))/(k+2)
        rng = random.Random(23)
        graphs = [random_graph(rng, rng.randint(0, 11), rng.uniform(0.1, 1.0)) for _ in range(40)]
        graphs += [cx.parse_generator(spec) for spec in ("complete:8", "hexpatch:4", "moebius")]
        for g in graphs:
            c = cx.build_complex(g)
            want = []
            for x in range(g.vertex_count):
                counts = cx.build_complex(tp.unit_sphere(c, x)).counts()
                want.append(1 + sum(Fraction((-1) ** (k + 1) * v, k + 2) for k, v in enumerate(counts)))
            assert tp.curvature_vector(c) == tuple(want)
            assert [tp.curvature(c, x) for x in range(g.vertex_count)] == want

    def test_reads_the_complex_only(self, monkeypatch):
        c = complex_of("icosahedron")

        def refuse(*args):
            raise AssertionError("curvature built a sub-complex or an induced graph")

        monkeypatch.setattr(tp, "build_complex", refuse)
        monkeypatch.setattr(tp.Graph, "induced", refuse)
        assert tp.curvature_vector(c) == (Fraction(1, 6),) * 12
        assert tp.curvature(c, 3) == Fraction(1, 6)

    @pytest.mark.parametrize("x", [-1, 12])
    def test_vertex_out_of_range(self, x):
        with pytest.raises(DomainError):
            tp.curvature(complex_of("icosahedron"), x)

    def test_gauss_bonnet_named(self):
        for spec in ("octahedron", "icosahedron", "cube", "wheel:6", "cycle:9",
                     "complete:5", "star:4", "hexpatch:2", "moebius"):
            c = complex_of(spec)
            assert sum(tp.curvature_vector(c)) == hm.euler_characteristic(c)

    def test_gauss_bonnet_random(self):
        rng = random.Random(22)
        for _ in range(50):
            c = cx.build_complex(random_graph(rng, rng.randint(1, 11), rng.uniform(0.2, 0.8)))
            assert sum(tp.curvature_vector(c)) == hm.euler_characteristic(c)


class TestIndices:
    def test_octahedron_height_function(self):
        c = complex_of("octahedron")
        # pole 0 lowest, pole 1 highest, ring in between
        f = {0: 0, 1: 9, 2: 1, 3: 2, 4: 3, 5: 4}
        report = tp.poincare_hopf(c, f)
        assert report.total == 2
        assert report.classes[0] == "min"
        assert report.classes[1] == "max"
        assert report.indices[0] == report.indices[1] == 1

    def test_star_hub_index(self):
        n = 6
        c = complex_of(f"star:{n}")
        f = {v: v for v in range(n + 1)}  # hub (vertex n) is the maximum
        assert tp.index(c, f, n) == 1 - n

    def test_monkey_saddle(self):
        # hub of a C6 wheel with three alternating lower rim vertices
        c = complex_of("wheel:6")
        f = {0: 1, 1: 10, 2: 2, 3: 11, 4: 3, 5: 12, 6: 5}
        # S^-(hub) = rim vertices {0, 2, 4}: three isolated points, chi = 3
        assert tp.index(c, f, 6) == -2
        assert tp.classify_critical(c, f, 6) == "monkey"

    def test_regular_point(self):
        c = complex_of("wheel:6")
        f = {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6}
        # rim vertex 3 has lower neighbors {2, hub?no} forming a contractible set
        assert tp.classify_critical(c, f, 2) == "regular"

    def test_injectivity_enforced(self):
        c = complex_of("cycle:4")
        with pytest.raises(DomainError):
            tp.index(c, {0: 1, 1: 1, 2: 2, 3: 3}, 0)

    def test_poincare_hopf_random(self):
        rng = random.Random(23)
        for spec in ("octahedron", "icosahedron", "cube", "wheel:6", "complete:5"):
            c = complex_of(spec)
            n = c.graph.vertex_count
            chi = hm.euler_characteristic(c)
            for _ in range(100):
                values = list(range(n))
                rng.shuffle(values)
                f = {v: values[v] for v in range(n)}
                assert tp.poincare_hopf(c, f).total == chi

    def test_poincare_hopf_random_graphs(self):
        rng = random.Random(24)
        for _ in range(30):
            c = cx.build_complex(random_connected_graph(rng, rng.randint(2, 9)))
            chi = hm.euler_characteristic(c)
            values = list(range(c.graph.vertex_count))
            rng.shuffle(values)
            assert tp.poincare_hopf(c, values).total == chi

    def test_matches_sub_level_sphere_route(self):
        rng = random.Random(31)
        seen = set()
        for _ in range(60):
            c = cx.build_complex(random_graph(rng, rng.randint(1, 11), rng.uniform(0.2, 0.9)))
            n = c.graph.vertex_count
            for ordering in range(3):
                values = rng.sample(range(-50, 50), n)
                f = values if ordering < 2 else {v: Fraction(value, 7) for v, value in enumerate(values)}
                want = [sphere_route(c, f, x) for x in range(n)]
                report = tp.poincare_hopf(c, f)
                assert list(zip(report.indices, report.classes)) == want
                assert [(tp.index(c, f, x), tp.classify_critical(c, f, x)) for x in range(n)] == want
                seen.update(kind.split("(")[0] for _, kind in want)
        assert seen == {"min", "max", "monkey", "saddle", "regular", "critical"}

    @pytest.mark.parametrize("x", [-1, 12])
    def test_vertex_out_of_range(self, x):
        c = complex_of("icosahedron")
        f = list(range(12))
        with pytest.raises(DomainError):
            tp.index(c, f, x)
        with pytest.raises(DomainError):
            tp.classify_critical(c, f, x)

    def test_indices_read_the_complex_only(self, monkeypatch):
        c = complex_of("octahedron")
        f = {0: 0, 1: 9, 2: 1, 3: 2, 4: 3, 5: 4}

        def refuse(*args):
            raise AssertionError("an index built a sub-complex or an induced graph")

        monkeypatch.setattr(tp, "build_complex", refuse)
        assert tp.poincare_hopf(c, f).indices == (1, 1, 0, 0, 0, 0)
        monkeypatch.setattr(tp.Graph, "induced", refuse)
        assert [tp.index(c, f, x) for x in range(6)] == [1, 1, 0, 0, 0, 0]


def sphere_route(c: cx.GraphComplex, f, x: int) -> tuple:
    """(1 - chi(S^-(x)), critical class) from S^-(x) and its own complex: the oracle for the one-pass indices."""
    sub = c.graph.induced({y for y in c.graph.neighbors(x) if f[y] < f[x]})
    if sub.vertex_count == 0:
        return 1, "min"
    i = 1 - hm.euler_characteristic(cx.build_complex(sub))
    if tp.is_cycle_graph(sub):
        return i, "max"
    if i == -2:
        return i, "monkey"
    if i < 0:
        return i, f"saddle({len(tp.connected_components(sub))})"
    return i, "regular" if i == 0 else "critical"


def index_expectation_by_orderings(c: cx.GraphComplex) -> tuple:
    """The mean of i_f(x) over all |V|! orderings f: the exhaustive oracle, for <= 7 vertices."""
    n = c.graph.vertex_count
    assert n <= 7, "the oracle walks |V|! orderings"
    perms = list(itertools.permutations(range(n)))
    totals = [sum(column) for column in zip(*(tp.poincare_hopf(c, f).indices for f in perms))]
    return tuple(Fraction(total, len(perms)) for total in totals)


class TestIndexExpectation:
    def test_path3(self):
        c = complex_of("path:3")
        assert tp.index_expectation(c) == (Fraction(1, 2), Fraction(0), Fraction(1, 2))

    def test_k4(self):
        c = complex_of("complete:4")
        assert tp.index_expectation(c) == (Fraction(1, 4),) * 4

    def test_c5(self):
        c = complex_of("cycle:5")
        assert tp.index_expectation(c) == (Fraction(0),) * 5

    def test_totals_to_chi(self):
        rng = random.Random(25)
        for _ in range(5):
            c = cx.build_complex(random_connected_graph(rng, rng.randint(2, 6)))
            expectation = tp.index_expectation(c)
            assert sum(expectation) == hm.euler_characteristic(c)

    def test_matches_all_orderings(self):
        for spec in ("wheel:6", "octahedron", "star:5"):
            c = complex_of(spec)
            assert tp.index_expectation(c) == index_expectation_by_orderings(c)
        rng = random.Random(26)
        for n in (2, 3, 4, 5, 5, 6, 6, 7):
            c = cx.build_complex(random_connected_graph(rng, n, rng.uniform(0.2, 0.8)))
            assert tp.index_expectation(c) == index_expectation_by_orderings(c)

    def test_equals_curvature_past_the_orderings(self):
        # Gauss-Bonnet by two routes, on graphs with 12 and 61 vertices
        for spec in ("icosahedron", "hexpatch:4"):
            c = complex_of(spec)
            assert tp.index_expectation(c) == tp.curvature_vector(c)

    def test_degree_cap(self):
        cap = tp.MAX_EXPECTATION_DEGREE
        c = complex_of(f"wheel:{cap}")  # the hub has degree cap
        assert tp.index_expectation(c) == tp.curvature_vector(c)
        with pytest.raises(DomainError):
            tp.index_expectation(complex_of(f"wheel:{cap + 1}"))


class TestUmlaufsatz:
    def test_wheel_disc(self):
        assert tp.umlaufsatz_sum(complex_of("wheel:6")) == 1

    def test_hexpatch_disc(self):
        assert tp.umlaufsatz_sum(cx.build_complex(cx.hex_patch(2))) == 1

    def test_annulus_zero(self):
        assert tp.umlaufsatz_sum(cx.build_complex(cx.hex_annulus(2))) == 0

    def test_rejects_closed_surface(self):
        with pytest.raises(DomainError):
            tp.umlaufsatz_sum(complex_of("octahedron"))

import dataclasses
import itertools
import random

import pytest

from discalc import complexes as cx, forms as fm
from discalc.numcore import DomainError

from conftest import random_graph


def brute_force_cliques(g: cx.Graph):
    """All complete subgraphs, found by checking every vertex subset."""
    levels = {}
    for size in range(1, g.vertex_count + 1):
        found = []
        for subset in itertools.combinations(range(g.vertex_count), size):
            if all((a, b) in g.edges for a, b in itertools.combinations(subset, 2)):
                found.append(subset)
        if not found:
            break
        levels[size - 1] = found
    return levels


class TestGraph:
    def test_edge_normalization(self):
        g = cx.Graph(3, frozenset({(2, 0), (1, 2)}))
        assert g.edges == frozenset({(0, 2), (1, 2)})

    def test_loop_rejected(self):
        with pytest.raises(DomainError):
            cx.Graph(3, frozenset({(1, 1)}))

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            cx.Graph(2, frozenset({(0, 2)}))

    def test_neighbors(self):
        g = cx.generate("cycle", 5)
        assert g.neighbors(0) == {1, 4}

    def test_adjacency_matches_edge_scan(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 10))
            for v in range(g.vertex_count):
                scan = {b if a == v else a for a, b in g.edges if v in (a, b)}
                assert g.neighbors(v) == g.adjacency()[v] == scan

    def test_neighbors_out_of_range_rejected(self):
        g = cx.generate("path", 2)
        for v in (-1, 2):
            with pytest.raises(DomainError):
                g.neighbors(v)

    def test_json_round_trip(self):
        g = cx.generate("wheel", 6)
        assert cx.Graph.from_json(g.to_json()) == g

    def test_induced(self):
        g = cx.generate("complete", 5)
        sub, order = g.induced({1, 3, 4})
        assert order == (1, 3, 4)
        assert sub == cx.generate("complete", 3)

    def test_induced_matches_edge_scan(self):
        rng = random.Random(4)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.2, 0.8))
            chosen = {v for v in range(g.vertex_count) if rng.random() < 0.6}
            sub, order = g.induced(chosen)
            back = {old: new for new, old in enumerate(order)}
            assert sub.edges == {(back[a], back[b]) for a, b in g.edges if a in back and b in back}

    def test_induced_out_of_range_rejected(self):
        g = cx.generate("cycle", 4)
        for vertices in ({0, 4}, {-1, 2}):
            with pytest.raises(DomainError):
                g.induced(vertices)


class TestBuildComplex:
    def test_octahedron_counts(self):
        c = cx.build_complex(cx.generate("octahedron"))
        assert c.counts() == (6, 12, 8)

    def test_icosahedron_counts(self):
        c = cx.build_complex(cx.generate("icosahedron"))
        assert c.counts() == (12, 30, 20)

    def test_complete_graph_counts(self):
        c = cx.build_complex(cx.generate("complete", 5))
        assert c.counts() == (5, 10, 10, 5, 1)

    def test_cube_has_no_triangles(self):
        c = cx.build_complex(cx.generate("cube"))
        assert c.top_dim == 1

    def test_ascending_tuples(self):
        c = cx.build_complex(cx.generate("wheel", 5))
        for level in c.simplices:
            for s in level:
                assert list(s) == sorted(s)

    def test_matches_brute_force(self):
        # each level in table order: every position, face row and golden digest relies on it
        rng = random.Random(5)
        for _ in range(30):
            g = random_graph(rng, rng.randint(0, 9), rng.uniform(0.2, 1.0))
            c = cx.build_complex(g)
            oracle = brute_force_cliques(g)
            assert c.top_dim == max(oracle) if oracle else c.counts() == (0,)
            for k, level in oracle.items():
                assert list(c.simplices[k]) == sorted(level)

    def test_index_is_positions_built_once(self):
        c = cx.build_complex(cx.generate("complete", 5))
        assert c.index is c.index
        assert all(c.index[k][s] == i for k, level in enumerate(c.simplices) for i, s in enumerate(level))
        assert [f.name for f in dataclasses.fields(c)] == ["graph", "simplices"]


    def test_faces_match_tuple_oracle(self):
        rng = random.Random(11)
        for _ in range(30):
            c = cx.build_complex(random_graph(rng, rng.randint(1, 10), rng.uniform(0.2, 0.9)))
            assert c.faces[0] == ((),) * c.count(0)
            for k in range(1, c.top_dim + 1):
                table = c.faces[k]
                assert len(table) == c.count(k)
                assert all(len(row) == k + 1 and all(type(f) is int for f in row) for row in table)
                for r, s in enumerate(c.simplices[k]):
                    for i in range(k + 1):
                        assert table[r][i] == c.index[k - 1][s[:i] + s[i + 1:]]
            assert c.faces is c.faces  # built once per complex


class TestGenerators:
    def test_wheel_shape(self):
        g = cx.generate("wheel", 6)
        assert g.vertex_count == 7
        assert len(g.neighbors(6)) == 6

    def test_star_shape(self):
        g = cx.generate("star", 5)
        assert g.vertex_count == 6
        assert len(g.edges) == 5

    def test_linear_convention(self):
        # 'linear' counts edges, 'path' counts vertices
        assert cx.generate("linear", 4).vertex_count == 5
        assert cx.generate("path", 4).vertex_count == 4

    def test_parse_generator(self):
        assert cx.parse_generator("cycle:7") == cx.generate("cycle", 7)
        assert cx.parse_generator("octahedron") == cx.generate("octahedron")

    def test_unknown_rejected(self):
        with pytest.raises(DomainError):
            cx.generate("dodecahedron")

    def test_hexpatch_radius_one(self):
        g = cx.hex_patch(1)
        assert g.vertex_count == 7
        c = cx.build_complex(g)
        assert c.counts() == (7, 12, 6)

    def test_annulus_has_hole(self):
        g = cx.hex_annulus(2)
        assert g.vertex_count == 18
        cls = cx.classify(cx.build_complex(g))
        assert cls.kind == "surface"
        assert cls.flat

    @pytest.mark.parametrize("radius", [2, 3, 4])
    def test_annulus_hole_is_central(self, radius):
        # the six vertices around the hole all lie radius - 1 steps inside the outer boundary
        g = cx.hex_annulus(radius)
        boundary = cx.classify(cx.build_complex(g)).boundary
        # the hole's rim lost one of six neighbours; the outer rim keeps three or four
        inner = [v for v in boundary if len(g.neighbors(v)) == 5]
        outer = [v for v in boundary if len(g.neighbors(v)) < 5]
        assert (len(inner), len(outer)) == (6, 6 * radius)
        distance, frontier, step = {}, set(outer), 0
        while frontier:
            distance.update(dict.fromkeys(frontier, step))
            frontier = {w for v in frontier for w in g.neighbors(v) if w not in distance}
            step += 1
        assert [distance[v] for v in inner] == [radius - 1] * 6

    def test_moebius_counts(self):
        c = cx.build_complex(cx.moebius_strip())
        assert c.counts() == (9, 18, 9)


class TestSpheresAndClassify:
    def test_octahedron_spheres_are_c4(self):
        c = cx.build_complex(cx.generate("octahedron"))
        for v in range(6):
            s, _ = cx.unit_sphere(c, v)
            assert cx.is_cycle_graph(s)
            assert s.vertex_count == 4

    def test_icosahedron_spheres_are_c5(self):
        c = cx.build_complex(cx.generate("icosahedron"))
        for v in range(12):
            s, _ = cx.unit_sphere(c, v)
            assert cx.is_cycle_graph(s)
            assert s.vertex_count == 5

    def test_cycle_is_boundaryless_curve(self):
        cls = cx.classify(cx.build_complex(cx.generate("cycle", 7)))
        assert cls == cx.Classification("curve", ())

    def test_path_is_curve_with_two_ends(self):
        cls = cx.classify(cx.build_complex(cx.generate("path", 5)))
        assert cls.kind == "curve"
        assert cls.boundary == (0, 4)

    def test_octahedron_is_surface(self):
        cls = cx.classify(cx.build_complex(cx.generate("octahedron")))
        assert cls.kind == "surface"
        assert cls.boundary == ()
        assert not cls.flat  # C_4 spheres carry curvature

    def test_hexpatch_is_flat_disc(self):
        cls = cx.classify(cx.build_complex(cx.hex_patch(2)))
        assert cls.kind == "surface"
        assert len(cls.boundary) == 12
        assert cls.flat

    def test_k4_is_solid_ball(self):
        # every unit sphere is a triangle, i.e. a disc, so all 4 vertices
        # are boundary points of a 3-ball
        cls = cx.classify(cx.build_complex(cx.generate("complete", 4)))
        assert cls.kind == "solid"
        assert cls.boundary == (0, 1, 2, 3)

    def test_k5_is_other(self):
        # spheres are K_4, which is a solid, not a surface
        cls = cx.classify(cx.build_complex(cx.generate("complete", 5)))
        assert cls.kind == "other"

    def test_wheel_is_surface_with_rim_boundary(self):
        cls = cx.classify(cx.build_complex(cx.generate("wheel", 6)))
        assert cls.kind == "surface"
        assert cls.boundary == (0, 1, 2, 3, 4, 5)
        assert cls.flat  # hub sphere is C_6

    def test_moebius_is_surface(self):
        cls = cx.classify(cx.build_complex(cx.moebius_strip()))
        assert cls.kind == "surface"
        assert len(cls.boundary) == 9


class TestOrientation:
    def test_octahedron_orientable(self):
        c = cx.build_complex(cx.generate("octahedron"))
        o = cx.orient_region(c, 2, c.simplices[2])
        assert set(o.signs.values()) <= {1, -1}
        assert o.boundary_signs == {}

    def test_moebius_not_orientable(self):
        c = cx.build_complex(cx.moebius_strip())
        with pytest.raises(cx.NonOrientableError):
            cx.orient_region(c, 2, c.simplices[2])

    def test_wheel_boundary_is_rim(self):
        c = cx.build_complex(cx.generate("wheel", 6))
        o = cx.orient_region(c, 2, c.simplices[2])
        assert sorted(o.boundary_signs) == sorted(
            ((i, (i + 1) % 6) if i < (i + 1) % 6 else ((i + 1) % 6, i)) for i in range(6)
        )

    def test_boundary_signs_form_consistent_cycle(self):
        # walking the wheel rim, each vertex appears once as head, once as tail
        c = cx.build_complex(cx.generate("wheel", 8))
        o = cx.orient_region(c, 2, c.simplices[2])
        heads = []
        tails = []
        for (a, b), sign in o.boundary_signs.items():
            # sign +1 means the edge is traversed a -> b
            heads.append(b if sign == 1 else a)
            tails.append(a if sign == 1 else b)
        assert sorted(heads) == sorted(tails) == list(range(8))

    def test_disconnected_region_rejected(self):
        c = cx.build_complex(cx.generate("octahedron"))
        region = [c.simplices[2][0], c.simplices[2][-1]]
        if set(region[0]) & set(region[1]):
            region[1] = next(
                s for s in c.simplices[2] if not set(s) & set(region[0])
            )
        with pytest.raises(DomainError):
            cx.orient_region(c, 2, region)

    def test_single_edge_region(self):
        c = cx.build_complex(cx.generate("path", 3))
        o = cx.orient_region(c, 1, [(0, 1)])
        assert o.signs == {(0, 1): 1}
        assert o.boundary_signs == {(0,): -1, (1,): 1}


    @staticmethod
    def random_patch(rng, c):
        """A connected set of triangles grown from a random one, in random order."""
        triangles = list(c.simplices[2])
        patch = [rng.choice(triangles)]
        for _ in range(rng.randint(0, len(triangles) - 1)):
            frontier = [t for t in triangles if t not in patch and any(len(set(t) & set(p)) == 2 for p in patch)]
            if not frontier:
                break
            patch.append(rng.choice(frontier))
        rng.shuffle(patch)
        return patch

    def test_orientation_sums_on_random_discs(self):
        # every face: sum over region simplices s of signs[s] * (-1)^i, with i the
        # dropped vertex, is 0 inside and the induced sign on the boundary
        rng = random.Random(17)
        ico = cx.build_complex(cx.generate("icosahedron"))
        for n in range(40):
            c = ico if n % 2 else cx.build_complex(cx.generate("wheel", rng.randint(4, 9)))
            region = self.random_patch(rng, c)
            o = cx.orient_region(c, 2, region)
            assert set(o.signs) == set(region)
            sums, incident = {}, {}
            for s in region:
                for i in range(3):
                    f = s[:i] + s[i + 1:]
                    sums[f] = sums.get(f, 0) + o.signs[s] * (-1) ** i
                    incident[f] = incident.get(f, 0) + 1
            for f, total in sums.items():
                assert total == (o.boundary_signs[f] if incident[f] == 1 else 0)
            assert set(o.boundary_signs) == {f for f, m in incident.items() if m == 1}
            assert fm.boundary_faces(c, 2, region) == sorted(o.boundary_signs)


class TestLevelCurve:
    def test_octahedron_level_curve_is_cycle(self):
        c = cx.build_complex(cx.generate("octahedron"))
        f = {v: [0, 10, 3, 4, 5, 6][v] for v in range(6)}
        curve = cx.level_curve(c, f, 3.5)
        assert cx.is_cycle_graph(curve)

    def test_icosahedron_random_cuts(self):
        c = cx.build_complex(cx.generate("icosahedron"))
        rng = random.Random(13)
        for _ in range(100):
            values = list(range(12))
            rng.shuffle(values)
            f = {v: values[v] for v in range(12)}
            cut = rng.randint(0, 10) + 0.5
            curve = cx.level_curve(c, f, cut)
            if curve.vertex_count == 0:
                continue
            # a disjoint union of cycles: every vertex has degree 2
            assert all(len(curve.neighbors(v)) == 2 for v in range(curve.vertex_count))

    def test_injectivity_required(self):
        c = cx.build_complex(cx.generate("octahedron"))
        with pytest.raises(DomainError):
            cx.level_curve(c, {v: 1 for v in range(6)}, 0.5)

    def test_cut_must_miss_values(self):
        c = cx.build_complex(cx.generate("octahedron"))
        with pytest.raises(DomainError):
            cx.level_curve(c, {v: v for v in range(6)}, 3)

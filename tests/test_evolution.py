import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_graph
from discalc import DomainError, complexes as cx, evolution as ev, forms as fm, spectral as sp


def complex_of(spec: str) -> cx.GraphComplex:
    return cx.build_complex(cx.parse_generator(spec))


class TestSymEigen:
    def test_c4_vertex_spectrum(self):
        dec = sp.sym_eigen(fm.laplacian_block(complex_of("cycle:4"), 0))
        assert np.allclose(dec.eigenvalues, [0, 2, 2, 4], atol=1e-10)

    def test_k2_dirac_spectrum(self):
        dec = sp.sym_eigen(fm.dirac(complex_of("complete:2")))
        assert np.allclose(dec.eigenvalues, [-math.sqrt(2), 0, math.sqrt(2)], atol=1e-10)

    def test_deterministic(self):
        m = fm.laplacian(complex_of("octahedron"))
        a = sp.sym_eigen(m)
        b = sp.sym_eigen(m)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            sp.sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("corrupt", [
        lambda w, q: (w, 2 * q),
        lambda w, q: (w + 1.0, q),
    ], ids=["not-orthonormal", "not-reconstructing"])
    def test_failed_checks_raise(self, monkeypatch, corrupt):
        # explicit raises, so the checks also run under python -O
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: corrupt(*eigh(a)))
        with pytest.raises(ArithmeticError):
            sp.sym_eigen(fm.laplacian_block(complex_of("cycle:4"), 0))

    def test_kernel_eigenvalues_exactly_zero(self):
        for spec in ("cycle:5", "octahedron", "annulus:2"):
            dec = sp.sym_eigen(fm.dirac(complex_of(spec)))
            assert dec.kernel.any() and (dec.eigenvalues[dec.kernel] == 0.0).all()

    def test_reconstruct(self):
        m = fm.laplacian_block(complex_of("wheel:5"), 1).data.astype(float)
        dec = sp.sym_eigen(m)
        assert np.abs(dec.reconstruct() - m).max() < 1e-9


class TestHeatFlow:
    def test_identity_at_t0(self):
        c = complex_of("cycle:5")
        f0 = fm.Form(c, 0, np.array([3, -1, 4, 1, -5], dtype=object))
        out = ev.heat_flow(c, 0, f0, 0.0)
        assert np.abs(np.asarray(out.values, dtype=float) - np.asarray(f0.values, dtype=float)).max() < 1e-12

    def test_converges_to_mean(self):
        c = complex_of("cycle:5")
        f0 = fm.Form(c, 0, np.array([3, -1, 4, 1, -5], dtype=object))
        out = np.asarray(ev.heat_flow(c, 0, f0, 50.0).values, dtype=float)
        mean = sum(float(v) for v in f0.values) / 5
        assert np.abs(out - mean).max() < 1e-8

    def test_long_time_is_the_mean(self):
        # a rounding-error kernel eigenvalue such as -4e-16 would grow as exp(4e-16 t)
        c = complex_of("cycle:5")
        f0 = fm.Form(c, 0, np.array([1, 0, 0, 0, 0], dtype=object))
        for t in (1e15, 1e17):
            assert np.abs(np.asarray(ev.heat_flow(c, 0, f0, t).values, dtype=float) - 0.2).max() < 1e-12

    def test_total_mass_conserved(self):
        c = complex_of("wheel:6")
        rng = random.Random(1)
        f0 = fm.Form(c, 0, np.array([rng.randint(-9, 9) for _ in range(7)], dtype=object))
        for t in (0.1, 1.0, 7.5):
            out = np.asarray(ev.heat_flow(c, 0, f0, t).values, dtype=float)
            assert out.sum() == pytest.approx(float(np.asarray(f0.values, dtype=float).sum()), abs=1e-9)

    def test_semigroup(self):
        c = complex_of("octahedron")
        rng = random.Random(2)
        f0 = fm.Form(c, 1, np.array([rng.randint(-9, 9) for _ in range(12)], dtype=object))
        one = np.asarray(ev.heat_flow(c, 1, ev.heat_flow(c, 1, f0, 0.7), 0.5).values, dtype=float)
        two = np.asarray(ev.heat_flow(c, 1, f0, 1.2).values, dtype=float)
        assert np.abs(one - two).max() < 1e-9

    def test_infinite_time_rejected(self):
        # e^(-tw) is nan on the kernel at t = inf, where -inf * 0 has no value
        c = complex_of("cycle:5")
        with pytest.raises(DomainError, match="float range"):
            ev.heat_flow(c, 0, fm.Form(c, 0, [1, 0, 0, 0, 0]), math.inf)

    def test_negative_time_rejected(self):
        c = complex_of("cycle:4")
        f0 = fm.Form(c, 0, np.zeros(4, dtype=object))
        with pytest.raises(DomainError):
            ev.heat_flow(c, 0, f0, -1.0)

    def test_degree_mismatch_rejected(self):
        c = complex_of("cycle:4")
        f0 = fm.Form(c, 0, np.zeros(4, dtype=object))
        with pytest.raises(DomainError):
            ev.heat_flow(c, 1, f0, 1.0)


class TestSchrodingerFlow:
    def test_identity_at_t0(self):
        c = complex_of("octahedron")
        rng = random.Random(3)
        f0 = np.array([rng.randint(-5, 5) for _ in range(fm.total_dim(c))], dtype=float)
        out = ev.schrodinger_flow(c, f0, 0.0)
        assert np.abs(out - f0).max() < 1e-12

    def test_unitary(self):
        c = complex_of("octahedron")
        rng = random.Random(4)
        f0 = np.array([rng.random() for _ in range(fm.total_dim(c))])
        for t in (0.5, 2.0, 13.0):
            out = ev.schrodinger_flow(c, f0, t)
            assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(f0), abs=1e-10)

    def test_truncated_series_oracle(self):
        c = complex_of("wheel:4")
        rng = random.Random(5)
        n = fm.total_dim(c)
        f0 = np.array([rng.randint(-3, 3) for _ in range(n)], dtype=float)
        t = 0.5
        d = fm.dirac(c).data.astype(float)
        series = np.zeros(n, dtype=complex)
        term = f0.astype(complex)
        for k in range(31):
            if k > 0:
                term = (1j * t) / k * (d @ term)
            series += term
        out = ev.schrodinger_flow(c, f0, t)
        assert np.abs(out - series).max() < 1e-8


class TestWaveFlow:
    def test_zero_velocity_t0(self):
        c = complex_of("cycle:5")
        rng = random.Random(6)
        f0 = np.array([rng.random() for _ in range(fm.total_dim(c))])
        u, ut = ev.wave_flow(c, f0, np.zeros_like(f0), 0.0)
        assert np.abs(u - f0).max() < 1e-12 and not any(ut)

    def test_k2_closed_form(self):
        # on K2 the nonzero Dirac eigenvalues are +-sqrt(2), so with zero
        # velocity w(t) = P_ker f0 + cos(sqrt(2) t) (f0 - P_ker f0)
        c = complex_of("complete:2")
        f0 = np.array([1.0, -2.0, 0.5])
        dec = sp.sym_eigen(fm.dirac(c))
        kernel = dec.apply(dec.kernel, f0)
        for t in (0.0, 0.3, 1.7, 6.0):
            out = ev.wave_flow(c, f0, np.zeros(3), t)[0]
            expected = kernel + math.cos(math.sqrt(2) * t) * (f0 - kernel)
            assert np.abs(out - expected).max() < 1e-10

    def test_energy_conserved(self):
        c = complex_of("octahedron")
        rng = random.Random(7)
        n = fm.total_dim(c)
        d = fm.dirac(c).data.astype(float)
        f0 = np.array([rng.random() for _ in range(n)])
        g0 = d @ np.array([rng.random() for _ in range(n)])  # range of D: no kernel part

        def energy(t):
            f, v = ev.wave_flow(c, f0, g0, t)
            return float(np.dot(v, v) + np.dot(d @ f, d @ f))

        e0 = energy(0.0)
        for t in (0.25, 1.0, 3.5, 9.0):
            assert abs(energy(t) - e0) < 1e-8 * max(e0, 1.0)

    def test_velocity_is_time_derivative(self):
        c = complex_of("cycle:4")
        rng = random.Random(8)
        n = fm.total_dim(c)
        d = fm.dirac(c).data.astype(float)
        f0 = np.array([rng.random() for _ in range(n)])
        g0 = d @ np.array([rng.random() for _ in range(n)])
        t, h = 0.9, 1e-6
        numeric = (np.asarray(ev.wave_flow(c, f0, g0, t + h)[0]) - np.asarray(ev.wave_flow(c, f0, g0, t - h)[0])) / (2 * h)
        assert np.abs(numeric - ev.wave_flow(c, f0, g0, t)[1]).max() < 1e-5

    @pytest.mark.parametrize("flow, f_len, g_len", [(ev.wave_flow, 11, 12), (ev.wave_flow, 12, 11)])
    def test_state_length_checked(self, flow, f_len, g_len):
        c = complex_of("cycle:6")  # 12 simplices
        with pytest.raises(DomainError):
            flow(c, np.zeros(f_len), np.zeros(g_len), 1.0)

    def test_harmonic_velocity_drifts(self):
        # a constant vertex function lies in ker D: it moves as t times itself, and its velocity stays
        c = complex_of("cycle:4")
        g0 = [1.0] * 4 + [0.0] * 4
        for t in (0.0, 1.5, 40.0):  # t ||D||_1 past DENSE_CROSSOVER at the last
            u, ut = ev.wave_flow(c, [0.0] * 8, g0, t)
            assert np.abs(np.asarray(u) - t * np.asarray(g0)).max() <= 1e-12 * (1 + t)
            assert np.abs(np.asarray(ut) - g0).max() <= 1e-12

    @pytest.mark.parametrize("graph", ['{"vertices": 1, "edges": []}', '{"vertices": 0, "edges": []}'],
                             ids=["complete-1", "empty"])
    def test_edgeless_complex_drifts(self, graph):
        # L = 0: u = f + t g, and the velocity is g
        c = cx.build_complex(cx.Graph.from_json(graph))
        f, g = [3.0] * c.count(0), [-0.5] * c.count(0)
        for t in (0.0, 2.0, 1e300):
            assert ev.wave_flow(c, f, g, t) == ([3.0 + t * -0.5] * c.count(0), g)

    @pytest.mark.parametrize("spec, t", [("complete:1", 1e300), ("cycle:4", 8e307)])  # no edges; the dense route
    def test_drift_past_the_float_range(self, spec, t):
        c = complex_of(spec)
        g0 = [1e10] * c.count(0) + [0.0] * (fm.total_dim(c) - c.count(0))
        with pytest.raises(DomainError, match="float range"):
            ev.wave_flow(c, [0.0] * len(g0), g0, t)


def with_entry(n: int, x) -> list:
    """[1, 0, x, 0, ...] of length n: x is neither the first entry nor, if nan, the largest."""
    return [1.0, 0.0, x] + [0.0] * (n - 3)


NON_FINITE_CALLS = {
    "heat": lambda c, x: ev.heat_flow(c, 0, fm.Form(c, 0, with_entry(c.count(0), x)), 1.0),
    "schrodinger": lambda c, x: ev.schrodinger_flow(c, with_entry(fm.total_dim(c), x), 1.0),
    "schrodinger-complex": lambda c, x: ev.schrodinger_flow(c, with_entry(fm.total_dim(c), complex(1.0, x)), 1.0),
    "wave-f": lambda c, x: ev.wave_flow(c, with_entry(fm.total_dim(c), x), [0.0] * fm.total_dim(c), 1.0),
    "wave-g": lambda c, x: ev.wave_flow(c, [0.0] * fm.total_dim(c), with_entry(fm.total_dim(c), x), 1.0),
    "poisson": lambda c, x: ev.poisson_maxwell(c, fm.Form(c, 1, with_entry(c.count(1), x))),
}


class TestNonFiniteInput:
    """An infinite or nan entry given to a flow or the solve is a DomainError, not a nan or inf answer."""

    @pytest.mark.parametrize("x", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("call", list(NON_FINITE_CALLS))
    def test_refused(self, call, x):
        with pytest.raises(DomainError, match="float range"):
            NON_FINITE_CALLS[call](complex_of("cycle:5"), x)

    @pytest.mark.parametrize("t", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("flow", ["schrodinger", "wave"])
    def test_time_refused(self, flow, t):
        # a cost t ||A||_1 that is not finite takes the dense route, whose answer _ldexp refuses
        c = complex_of("cycle:5")
        v = [1.0] * fm.total_dim(c)
        with pytest.raises(DomainError, match="float range"):
            ev.schrodinger_flow(c, v, t) if flow == "schrodinger" else ev.wave_flow(c, v, v, t)


class TestFeynmanPathSum:
    def test_matches_matrix_powers(self):
        for spec in ("complete:2", "complete:3", "cycle:4"):
            c = complex_of(spec)
            d = fm.dirac(c).data
            n = d.shape[0]
            power = np.eye(n, dtype=object)
            for steps in range(6):
                if steps > 0:
                    power = d @ power
                for start in range(n):
                    for end in range(n):
                        assert sp.feynman_path_sum(d, start, end, steps) == power[end, start]

    def test_zero_steps(self):
        d = fm.dirac(complex_of("complete:2")).data
        assert sp.feynman_path_sum(d, 0, 0, 0) == 1
        assert sp.feynman_path_sum(d, 0, 1, 0) == 0

    def test_bounds(self):
        d = fm.dirac(complex_of("complete:2")).data
        with pytest.raises(DomainError):
            sp.feynman_path_sum(d, 0, 0, 9)
        with pytest.raises(DomainError):
            sp.feynman_path_sum(d, 0, 0, -1)
        big = fm.dirac(complex_of("icosahedron")).data
        with pytest.raises(DomainError):
            sp.feynman_path_sum(big, 0, 0, 2)


# ---------------------------------------------------------------------------
# The matrix-free flows and solves against the dense sym_eigen route


FLOAT_MAX = sys.float_info.max
TIMES = st.floats(0, 5)


@st.composite
def clique_complexes(draw):
    """Clique complexes of random graphs on at most 12 vertices, with any edge probability; the
    empty graph included."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return cx.build_complex(random_graph(rng, draw(st.integers(0, 12)), draw(st.floats(0, 1))))


@st.composite
def vectors(draw, n: int):
    """n floats, either all moderate or of magnitudes spread up to +-1e308."""
    elements = draw(st.sampled_from([st.floats(-10, 10), st.floats(-1e308, 1e308)]))
    return draw(st.lists(elements, min_size=n, max_size=n))


def down(x: float, e: int) -> float:
    """x 2^-e; inf past the float range."""
    try:
        return math.ldexp(x, -e)
    except OverflowError:
        return math.inf


def at_scale(a, e: int) -> np.ndarray:
    """The entries of a times 2^-e; a power of two rounds nothing."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return np.ldexp(a.real, -e) + 1j * np.ldexp(a.imag, -e)
    return np.ldexp(a.astype(float), -e)


def scale_of(*vs) -> int:
    """The e with max |v| in [2^(e-1), 2^e) over the vectors vs: the oracle works at the scale 2^-e,
    where none of its products overflows."""
    return math.frexp(max((abs(x) for v in vs for x in v), default=0.0))[1]


def outcome(call):
    try:
        return call(), None
    except DomainError as exc:
        return None, exc


def assert_dense_answer(result, dense, e: int, bound: float):
    """result, an (answer, DomainError) outcome of the library, against the dense route's answer
    2^e dense: within the bound at the scale 2^-e, or a DomainError when that answer leaves the
    float range."""
    got, exc = result
    peak = max(np.abs(np.real(dense)).max(initial=0.0), np.abs(np.imag(dense)).max(initial=0.0))
    if exc is not None:
        assert "float range" in str(exc) and peak >= down(FLOAT_MAX, e) - bound, exc
        return
    assert peak <= down(FLOAT_MAX, e) + bound
    assert np.abs(at_scale(got, e) - dense).max(initial=0.0) <= bound


def bound_at_scale(e: int, *units) -> float:
    """1e-11 (1 + ||v||_inf), at the scale 2^-e of the inputs v."""
    return 1e-11 * (down(1.0, e) + max((np.abs(u).max(initial=0.0) for u in units), default=0.0))


def pinv_spectrum(dec) -> np.ndarray:
    return np.where(dec.kernel, 0.0, 1.0 / np.where(dec.kernel, 1.0, dec.eigenvalues))


def wave_oracle(dec, t: float, f, g) -> np.ndarray:
    """u || u_t from the spectrum of D: cos(wt) f + t sinc(wt) g and -w sin(wt) f + cos(wt) g, where
    t sinc(wt) = sin(wt) / w is t on the kernel."""
    w = dec.eigenvalues
    tsinc = np.where(dec.kernel, t, np.sin(w * t) / np.where(dec.kernel, 1.0, w))
    return np.concatenate([dec.apply(np.cos(w * t), f) + dec.apply(tsinc, g),
                           dec.apply(-w * np.sin(w * t), f) + dec.apply(np.cos(w * t), g)])


class TestDenseOracle:
    """Every flow and solve, bounded by 1e-11 (1 + ||v||_inf) against the dense sym_eigen route."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(c=clique_complexes(), data=st.data())
    def test_heat_every_degree(self, c, data):
        k = data.draw(st.integers(0, c.top_dim))
        v, t = data.draw(vectors(c.count(k))), data.draw(TIMES)
        dec = sp.sym_eigen(fm.laplacian_block(c, k))
        e = scale_of(v)
        u = at_scale(v, e)
        result = outcome(lambda: ev.heat_flow(c, k, fm.Form(c, k, v), t).values)
        assert_dense_answer(result, dec.apply(np.exp(-t * dec.eigenvalues), u), e, bound_at_scale(e, u))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(c=clique_complexes(), data=st.data())
    def test_schrodinger(self, c, data):
        v, t = data.draw(vectors(fm.total_dim(c))), data.draw(TIMES)
        dec = sp.sym_eigen(fm.dirac(c))
        e = scale_of(v)
        u = at_scale(v, e)
        result = outcome(lambda: ev.schrodinger_flow(c, v, t))
        assert_dense_answer(result, dec.apply(np.exp(1j * t * dec.eigenvalues), u), e, bound_at_scale(e, u))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(c=clique_complexes(), data=st.data())
    def test_wave_and_velocity(self, c, data):
        # g = D r plus a multiple of a harmonic form, which drifts as t times itself
        d = fm.dirac(c)
        dec = sp.sym_eigen(d)
        f, r, h = (data.draw(vectors(d.shape[0])) for _ in range(3))
        t = data.draw(TIMES)
        harmonic = data.draw(st.sampled_from([0.0, 1e-12, 1.0])) * dec.apply(dec.kernel, at_scale(h, scale_of(h)))
        g = [Fraction(x) + sum((a * Fraction(r[j]) for j, a in row.items()), Fraction(0))
             for x, row in zip(harmonic.tolist(), d.rows)]
        try:
            gf = [float(x) for x in g]
        except OverflowError:
            with pytest.raises(OverflowError):
                ev.wave_flow(c, f, g, t)
            return
        e = scale_of(f, gf)
        fu, gu = at_scale(f, e), at_scale(gf, e)
        result = outcome(lambda: sum(ev.wave_flow(c, f, g, t), []))
        assert_dense_answer(result, wave_oracle(dec, t, fu, gu), e, bound_at_scale(e, fu, gu))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(c=clique_complexes(), data=st.data())
    def test_poisson_maxwell(self, c, data):
        if c.top_dim < 1:
            with pytest.raises(DomainError):
                ev.poisson_maxwell(c, fm.Form(c, 1, []))
            return
        # j = d1* B plus a multiple of a harmonic 1-form: divergence-free
        dec = sp.sym_eigen(fm.laplacian_block(c, 1))
        B, w = data.draw(vectors(c.count(2))), data.draw(vectors(c.count(1)))
        harmonic = data.draw(st.sampled_from([0.0, 1e-12, 1.0])) * dec.apply(dec.kernel, at_scale(w, scale_of(w)))
        j = [Fraction(h) for h in harmonic.tolist()]
        for row, b in zip(c.faces[2] if c.top_dim >= 2 else (), B):
            for f, s in row.items():
                j[f] += s * Fraction(b)
        try:
            jf = [float(x) for x in j]
        except OverflowError:
            with pytest.raises(OverflowError):
                ev.poisson_maxwell(c, fm.Form(c, 1, j))
            return
        # an exact current's divergence is decided exactly, a float current's up to the tolerance
        exact = data.draw(st.booleans())
        divergence = [Fraction(0)] * c.count(0)
        for row, x in zip(c.faces[1], j):
            for v, s in row.items():
                divergence[v] += s * x
        exact_divergence = exact and any(divergence)
        e = scale_of(jf)
        ju = at_scale(jf, e)
        peak = np.abs(ju).max(initial=0.0)
        bound, tol = bound_at_scale(e, ju), ev.SOURCE_TOL * peak
        d0, d1 = fm.exterior_derivative(c, 0).data, fm.exterior_derivative(c, 1).data
        a = dec.apply(pinv_spectrum(dec), ju)
        div, gauge = np.abs(d0.T @ ju).max(initial=0.0), np.abs(d0.T @ a).max(initial=0.0)
        hnorm = np.linalg.norm(dec.apply(dec.kernel, ju))
        try:
            A, F = ev.poisson_maxwell(c, fm.Form(c, 1, j if exact else jf))
        except ev.HarmonicComponentError as exc:
            assert not exact_divergence and div <= tol + bound and hnorm >= tol - bound
            assert abs(exc.norm * peak - hnorm) <= bound  # the norm is relative to max |j|
            return
        except DomainError as exc:  # Kirchhoff, before the solve or in the gauge after it
            assert "Kirchhoff" in str(exc), exc
            assert exact_divergence or (gauge if exact else max(div, gauge)) >= tol - bound, exc
            return
        assert not exact_divergence and max(div, gauge) <= tol + bound and hnorm <= tol + bound
        assert np.abs(at_scale(A.values, e) - a).max(initial=0.0) <= bound
        assert np.abs(at_scale(F.values, e) - d1 @ a).max(initial=0.0) <= bound

    @pytest.mark.parametrize("scale", [1, 10 ** 4, 10 ** 8, 10 ** 12])
    def test_large_exact_current_has_no_harmonic_part(self, scale):
        # j = d1* B exactly, on a disk (no harmonic 1-forms) and an annulus (one, orthogonal to j):
        # the rounding of the input and the solve is no harmonic part, however large the current
        for spec in ("hexpatch:5", "annulus:3"):
            c = complex_of(spec)
            rng = random.Random(10)
            j = [0] * c.count(1)
            for row in c.faces[2]:
                b = scale * rng.randint(-3, 3)
                for f, s in row.items():
                    j[f] += s * b
            A, F = ev.poisson_maxwell(c, fm.Form(c, 1, j))
            dec = sp.sym_eigen(fm.laplacian_block(c, 1))
            dense = dec.apply(pinv_spectrum(dec), np.asarray(j, dtype=float))
            assert np.abs(np.asarray(A.values) - dense).max() <= 1e-11 * (1 + max(map(abs, j))), spec

    @pytest.mark.parametrize("size", [1e-11, 1e-9], ids=["accepted", "refused"])
    def test_harmonic_part_near_the_tolerance(self, size):
        # annulus:6 has one harmonic 1-form.  A float current d1* B plus a harmonic part of 2-norm
        # 1e-11 max |j| is answered with L_1+ j, whose harmonic part is 0; the solve for A x_1 must
        # not keep the part of the first solution x_1 in ker L_1.  At 1e-9 max |j| it is refused
        c = complex_of("annulus:6")
        dec = sp.sym_eigen(fm.laplacian_block(c, 1))
        rng = random.Random(6)
        j = np.zeros(c.count(1))
        for row in c.faces[2]:
            b = rng.uniform(-1, 1)
            for f, s in row.items():
                j[f] += s * b
        h = dec.apply(dec.kernel, np.asarray([rng.uniform(-1, 1) for _ in j]))
        j += size * np.abs(j).max() / np.linalg.norm(h) * h
        dense_norm = np.linalg.norm(dec.apply(dec.kernel, j)) / np.abs(j).max()
        if size > ev.SOURCE_TOL:
            with pytest.raises(ev.HarmonicComponentError) as exc:
                ev.poisson_maxwell(c, fm.Form(c, 1, j.tolist()))
            assert exc.value.norm == pytest.approx(dense_norm, rel=1e-6)
            return
        A, _ = ev.poisson_maxwell(c, fm.Form(c, 1, j.tolist()))
        dense = dec.apply(pinv_spectrum(dec), j)
        assert np.abs(np.asarray(A.values) - dense).max() <= 1e-11 * (1 + np.abs(dense).max())

    def test_large_exact_velocity_has_no_harmonic_part(self):
        # g = D r exactly; ker D holds the constants (and on the annulus a harmonic 1-form), and
        # the rounding of the input is none of them, so nothing drifts
        for spec in ("hexpatch:5", "annulus:3"):
            c = complex_of(spec)
            d = fm.dirac(c)
            dec = sp.sym_eigen(d)
            for scale in (10 ** 4, 10 ** 8, 10 ** 12):
                g = [sum(a * scale * (k % 7 - 3) for k, a in row.items()) for row in d.rows]
                zero = [0.0] * d.shape[0]
                dense = wave_oracle(dec, 1.0, zero, np.asarray(g, dtype=float))
                got = sum(ev.wave_flow(c, zero, g, 1.0), [])
                assert np.abs(np.asarray(got) - dense).max() <= 1e-11 * (1 + max(map(abs, g))), (spec, scale)

    @pytest.mark.parametrize("side", [0.99, 1.01], ids=["series", "dense"])
    @pytest.mark.parametrize("flow", ["heat", "schrodinger", "wave"])
    def test_each_side_of_the_crossover(self, flow, side):
        # the wave's cost is t sqrt(||L||_1); its velocity is generic, so it has a part in ker D
        c = complex_of("icosahedron")
        op = {"heat": fm.laplacian_block(c, 0), "schrodinger": fm.dirac(c), "wave": fm.laplacian(c)}[flow]
        norm = max(sum(map(abs, row.values())) for row in op.rows)
        t = side * ev.DENSE_CROSSOVER / (math.sqrt(norm) if flow == "wave" else norm)
        rng = random.Random(9)
        v = [rng.uniform(-5, 5) for _ in range(op.shape[0])]
        dec = sp.sym_eigen(op)
        if flow == "heat":
            got, dense = ev.heat_flow(c, 0, fm.Form(c, 0, v), t).values, dec.apply(np.exp(-t * dec.eigenvalues), v)
        elif flow == "schrodinger":
            got, dense = ev.schrodinger_flow(c, v, t), dec.apply(np.exp(1j * t * dec.eigenvalues), v)
        else:
            g = [rng.uniform(-5, 5) for _ in v]
            got, dense = sum(ev.wave_flow(c, v, g, t), []), wave_oracle(sp.sym_eigen(fm.dirac(c)), t, v, g)
        assert np.abs(np.asarray(got) - dense).max() <= 1e-11 * (1 + max(map(abs, v)))

    @pytest.mark.parametrize("flow, most", [("heat", 60), ("schrodinger", 120), ("wave", 120)])
    def test_series_work_below_the_crossover(self, monkeypatch, flow, most):
        # the series' degree at 0.99 x DENSE_CROSSOVER on icosahedron: 50, 108 and 108 operator applications
        c = complex_of("icosahedron")
        op = {"heat": fm.laplacian_block(c, 0), "schrodinger": fm.dirac(c), "wave": fm.laplacian(c)}[flow]
        norm = max(sum(map(abs, row.values())) for row in op.rows)
        t = 0.99 * ev.DENSE_CROSSOVER / (math.sqrt(norm) if flow == "wave" else norm)
        rng = random.Random(9)
        v, g = ([rng.uniform(-5, 5) for _ in range(op.shape[0])] for _ in range(2))
        calls, matvec = [], ev._matvec
        monkeypatch.setattr(ev, "_matvec", lambda *a: calls.append(1) or matvec(*a))
        if flow == "heat":
            ev.heat_flow(c, 0, fm.Form(c, 0, v), t)
        elif flow == "schrodinger":
            ev.schrodinger_flow(c, v, t)
        else:
            ev.wave_flow(c, v, g, t)
        assert 0 < len(calls) <= most

    def test_heat_past_the_crossover_loads_numpy(self):
        # ||L_0||_1 = 4 on a cycle; the dense route's answer, bit for bit
        code = """if True:
            import sys
            from discalc import complexes as cx, evolution as ev, forms as fm
            c = cx.build_complex(cx.parse_generator("cycle:5"))
            f0 = fm.Form(c, 0, [3, -1, 4, 1, -5])
            ev.heat_flow(c, 0, f0, 0.99 * ev.DENSE_CROSSOVER / 4)
            if "numpy" in sys.modules:
                raise SystemExit("numpy loaded below the crossover")
            t = 1.01 * ev.DENSE_CROSSOVER / 4
            out = ev.heat_flow(c, 0, f0, t).values
            if "numpy" not in sys.modules:
                raise SystemExit("numpy not loaded past the crossover")
            import numpy as np
            from discalc import spectral as sp
            dec = sp.sym_eigen(fm.laplacian_block(c, 0))
            dense = dec.apply(np.exp(-t * dec.eigenvalues), np.asarray(f0.values, dtype=float))
            if out != tuple(dense.tolist()):
                raise SystemExit(f"{out} is not the dense route's {dense}")
        """
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr


# ---------------------------------------------------------------------------
# One scale: every flow and solve decides and answers at the scale its input is moved to


@st.composite
def grid_vectors(draw, n: int):
    """n multiples of 2^-16 in [-16, 16]: times 2^k, |k| <= 900, every entry is still an exact float."""
    return [x / 2 ** 16 for x in draw(st.lists(st.integers(-2 ** 20, 2 ** 20), min_size=n, max_size=n))]


def to_grid(v) -> list:
    """v rounded to multiples of 2^-40, so that 2^-900 v is exact."""
    return [round(x * 2 ** 40) / 2 ** 40 for x in v]


def assert_equivariant(call, parts, k: int):
    """call on the vectors parts and on 2^k times them: the same decision, and the answer at the
    larger scale times 2^-|k| is the other answer bit for bit (it is rounded once, if at all)."""
    a, exc_a = outcome(lambda: call(*parts))
    b, exc_b = outcome(lambda: call(*[at_scale(p, -k).tolist() for p in parts]))
    assert repr(exc_a) == repr(exc_b)
    if exc_a is None:
        small, large = (a, b) if k >= 0 else (b, a)
        assert np.array_equal(at_scale(large, abs(k)), np.asarray(small))


SCALES = st.integers(-900, 900)
# random clique complexes seldom have a hole, so harmonic 1-forms come from these as well
WITH_HOLES = st.one_of(clique_complexes(), st.sampled_from(["cycle:5", "annulus:2", "moebius"]).map(complex_of))


class TestOneScale:
    """v and 2^k v give the same decision and answers 2^k times each other."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(c=clique_complexes(), data=st.data())
    def test_heat_every_degree(self, c, data):
        deg = data.draw(st.integers(0, c.top_dim))
        v, t, k = data.draw(grid_vectors(c.count(deg))), data.draw(TIMES), data.draw(SCALES)
        assert_equivariant(lambda u: ev.heat_flow(c, deg, fm.Form(c, deg, u), t).values, [v], k)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(c=clique_complexes(), data=st.data())
    def test_schrodinger(self, c, data):
        v, t, k = data.draw(grid_vectors(fm.total_dim(c))), data.draw(TIMES), data.draw(SCALES)
        assert_equivariant(lambda u: ev.schrodinger_flow(c, u, t), [v], k)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(c=WITH_HOLES, data=st.data())
    def test_wave_and_velocity(self, c, data):
        # the velocity D r is in range; any other has a harmonic part, the constants at least, which drifts
        d = fm.dirac(c)
        f, r = data.draw(grid_vectors(d.shape[0])), data.draw(grid_vectors(d.shape[0]))
        g = r if data.draw(st.booleans()) else [sum(a * r[j] for j, a in row.items()) for row in d.rows]
        t, k = data.draw(TIMES), data.draw(SCALES)
        assert_equivariant(lambda f, g: sum(ev.wave_flow(c, f, g, t), []), [f, g], k)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(c=WITH_HOLES, data=st.data())
    def test_poisson_maxwell(self, c, data):
        if c.top_dim < 1:
            return
        # d1* B, in range, plus a harmonic 1-form or a gradient d0 phi, which has a divergence
        B = data.draw(grid_vectors(c.count(2)))
        j = [0.0] * c.count(1)
        for row, b in zip(c.faces[2] if c.top_dim >= 2 else (), B):
            for f, s in row.items():
                j[f] += s * b
        source = data.draw(st.sampled_from(["in range", "harmonic", "divergence"]))
        if source == "harmonic":
            dec = sp.sym_eigen(fm.laplacian_block(c, 1))
            j = [a + b for a, b in zip(j, to_grid(dec.apply(dec.kernel, data.draw(grid_vectors(c.count(1))))))]
        elif source == "divergence":
            phi = data.draw(grid_vectors(c.count(0)))
            j = [a + sum(s * phi[v] for v, s in row.items()) for a, row in zip(j, c.faces[1])]

        def solve(u):
            A, F = ev.poisson_maxwell(c, fm.Form(c, 1, u))
            return A.values + F.values

        assert_equivariant(solve, [j], data.draw(SCALES))

    def test_amplified_divergence_is_a_kirchhoff_violation(self):
        # the square of the path P_300, edges (i, i+1) and (i, i+2), has lambda_1(L_0) = 5.5e-4.  A
        # divergence of 1e-11 max |j| along its eigenvector passes the check before the solve, and
        # L_0+ amplifies it in the gauge d0* A = L_0+ d0* j to about 2e-8 max |j|
        n = 300
        c = cx.build_complex(cx.Graph(n, frozenset([(i, i + 1) for i in range(n - 1)]
                                                  + [(i, i + 2) for i in range(n - 2)])))
        phi = sp.sym_eigen(fm.laplacian_block(c, 0)).eigenvectors[:, 1]
        d0 = fm.exterior_derivative(c, 0).data.astype(float)
        j = np.zeros(c.count(1))
        for i, row in enumerate(c.faces[2]):
            for f, s in row.items():
                j[f] += s * (i % 5 - 2)
        grad = d0 @ phi
        j += 1e-11 * np.abs(j).max() / np.abs(d0.T @ grad).max() * grad
        assert np.abs(d0.T @ j).max() < ev.SOURCE_TOL * np.abs(j).max()
        with pytest.raises(DomainError, match="Kirchhoff"):
            ev.poisson_maxwell(c, fm.Form(c, 1, j.tolist()))

    def test_exact_divergence_is_decided_exactly(self):
        # a divergence of 1e-13, below SOURCE_TOL: the float current passes, the exact one does not
        c = complex_of("complete:3")  # edges 0-1, 0-2, 1-2
        j = [Fraction(10000000000001, 10000000000000), -1, 1]
        ev.poisson_maxwell(c, fm.Form(c, 1, [float(x) for x in j]))
        with pytest.raises(DomainError, match="Kirchhoff"):
            ev.poisson_maxwell(c, fm.Form(c, 1, j))
        assert ev.poisson_maxwell(c, fm.Form(c, 1, [Fraction(1, 3), Fraction(-1, 3), Fraction(1, 3)]))

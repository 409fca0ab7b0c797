import math
import random

import numpy as np
import pytest

from discalc import complexes as cx, evolution as ev, forms as fm
from discalc.numcore import DomainError


def complex_of(spec: str) -> cx.GraphComplex:
    return cx.build_complex(cx.parse_generator(spec))


class TestSymEigen:
    def test_c4_vertex_spectrum(self):
        dec = ev.sym_eigen(fm.laplacian_block(complex_of("cycle:4"), 0))
        assert np.allclose(dec.eigenvalues, [0, 2, 2, 4], atol=1e-10)

    def test_k2_dirac_spectrum(self):
        dec = ev.sym_eigen(fm.dirac(complex_of("complete:2")))
        assert np.allclose(dec.eigenvalues, [-math.sqrt(2), 0, math.sqrt(2)], atol=1e-10)

    def test_deterministic(self):
        m = fm.laplacian(complex_of("octahedron"))
        a = ev.sym_eigen(m)
        b = ev.sym_eigen(m)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            ev.sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("corrupt", [
        lambda w, q: (w, 2 * q),
        lambda w, q: (w + 1.0, q),
    ], ids=["not-orthonormal", "not-reconstructing"])
    def test_failed_checks_raise(self, monkeypatch, corrupt):
        # explicit raises, so the checks also run under python -O
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: corrupt(*eigh(a)))
        with pytest.raises(ArithmeticError):
            ev.sym_eigen(fm.laplacian_block(complex_of("cycle:4"), 0))

    def test_kernel_eigenvalues_exactly_zero(self):
        for spec in ("cycle:5", "octahedron", "annulus:2"):
            dec = ev.sym_eigen(fm.dirac(complex_of(spec)))
            assert dec.kernel.any() and (dec.eigenvalues[dec.kernel] == 0.0).all()

    def test_reconstruct(self):
        m = fm.laplacian_block(complex_of("wheel:5"), 1).data.astype(float)
        dec = ev.sym_eigen(m)
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
        out = ev.wave_flow(c, f0, np.zeros_like(f0), 0.0)
        assert np.abs(out - f0).max() < 1e-12

    def test_k2_closed_form(self):
        # on K2 the nonzero Dirac eigenvalues are +-sqrt(2), so with zero
        # velocity w(t) = P_ker f0 + cos(sqrt(2) t) (f0 - P_ker f0)
        c = complex_of("complete:2")
        f0 = np.array([1.0, -2.0, 0.5])
        dec = ev.sym_eigen(fm.dirac(c))
        kernel = dec.apply(dec.kernel, f0)
        for t in (0.0, 0.3, 1.7, 6.0):
            out = ev.wave_flow(c, f0, np.zeros(3), t)
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
            f = ev.wave_flow(c, f0, g0, t)
            v = ev.wave_velocity(c, f0, g0, t)
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
        numeric = (ev.wave_flow(c, f0, g0, t + h) - ev.wave_flow(c, f0, g0, t - h)) / (2 * h)
        assert np.abs(numeric - ev.wave_velocity(c, f0, g0, t)).max() < 1e-5

    @pytest.mark.parametrize("flow, f_len, g_len", [
        (ev.wave_flow, 11, 12), (ev.wave_flow, 12, 11),
        (ev.wave_velocity, 11, 12), (ev.wave_velocity, 12, 11),
    ])
    def test_state_length_checked(self, flow, f_len, g_len):
        c = complex_of("cycle:6")  # 12 simplices
        with pytest.raises(DomainError):
            flow(c, np.zeros(f_len), np.zeros(g_len), 1.0)

    def test_harmonic_velocity_rejected(self):
        c = complex_of("cycle:4")
        g0 = np.zeros(fm.total_dim(c))
        g0[:4] = 1.0  # constant vertex component lies in ker D
        with pytest.raises(DomainError):
            ev.wave_flow(c, np.zeros_like(g0), g0, 1.0)


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
                        assert ev.feynman_path_sum(d, start, end, steps) == power[end, start]

    def test_zero_steps(self):
        d = fm.dirac(complex_of("complete:2")).data
        assert ev.feynman_path_sum(d, 0, 0, 0) == 1
        assert ev.feynman_path_sum(d, 0, 1, 0) == 0

    def test_bounds(self):
        d = fm.dirac(complex_of("complete:2")).data
        with pytest.raises(DomainError):
            ev.feynman_path_sum(d, 0, 0, 9)
        with pytest.raises(DomainError):
            ev.feynman_path_sum(d, 0, 0, -1)
        big = fm.dirac(complex_of("icosahedron")).data
        with pytest.raises(DomainError):
            ev.feynman_path_sum(big, 0, 0, 2)

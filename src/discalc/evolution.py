"""Spectral heat, Schroedinger and wave flows, the Poisson/Maxwell solve
and a path-sum oracle.

Every flow and solve acts by a function of one symmetric eigendecomposition
(``sym_eigen``); the Feynman path enumerator is the independent exact
route used in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import GraphComplex
from .forms import Form, OperatorMatrix, dirac, exterior_derivative, laplacian_block, total_dim
from .numcore import DomainError


SYMMETRY_TOL = 1e-12
RECONSTRUCT_TOL = 1e-9
ORTHONORMAL_TOL = 1e-10
# eigenvalues within this fraction of max(|w|, 1) count as zero
KERNEL_RELATIVE_CUTOFF = 1e-9
WAVE_HARMONIC_TOL = 1e-9
POISSON_TOL = 1e-10


@dataclass(frozen=True)
class SpectralDecomposition:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, orthonormal

    @property
    def kernel(self) -> np.ndarray:
        """Mask of the eigenvalues that count as zero (the harmonic part)."""
        w = np.abs(self.eigenvalues)
        return w <= KERNEL_RELATIVE_CUTOFF * w.max(initial=1.0)

    @property
    def pinv(self) -> np.ndarray:
        """Spectrum of the pseudoinverse: 1/w off the kernel, 0 on it."""
        kernel = self.kernel
        return np.where(kernel, 0.0, 1.0 / np.where(kernel, 1.0, self.eigenvalues))

    def apply(self, spectrum, v) -> np.ndarray:
        """g(M) v = Q (g(w) * Q^T v) for the values g(w) given as ``spectrum``."""
        q = self.eigenvectors
        return q @ (spectrum * (q.T @ v))

    def reconstruct(self) -> np.ndarray:
        return self.eigenvectors @ (self.eigenvalues[:, None] * self.eigenvectors.T)


def sym_eigen(m) -> SpectralDecomposition:
    """Full eigendecomposition of a symmetric matrix, deterministic ordering.

    Eigenvalues ascend, those in the kernel exactly 0.0 (no flow drifts on the
    harmonic part); each eigenvector is sign-fixed so its first component of
    nonnegligible size is positive.  Raises ArithmeticError when the
    eigenvectors are not orthonormal or do not reconstruct m.
    """
    if isinstance(m, OperatorMatrix):
        m = m.data
    a = np.asarray(m, dtype=float)
    if not a.size:  # 0x0, from an empty graph
        return SpectralDecomposition(*np.linalg.eigh(a))
    if np.abs(a - a.T).max() > SYMMETRY_TOL:
        raise DomainError("matrix is not symmetric")
    w, q = np.linalg.eigh(a)  # eigenvalues ascend
    # the flows' BLAS products round differently on the C-ordered q that eigh returns; their
    # outputs (and the golden digests) are those of a Fortran-ordered q
    q = np.asfortranarray(q)
    q[:, q[(np.abs(q) > 1e-9).argmax(axis=0), np.arange(len(w))] < 0] *= -1
    dec = SpectralDecomposition(w, q)
    orthonormal = np.abs(q.T @ q - np.eye(len(w))).max()
    if not orthonormal < ORTHONORMAL_TOL:
        raise ArithmeticError(f"eigenvectors not orthonormal (residual {orthonormal:.3e})")
    reconstruct = np.abs(dec.reconstruct() - a).max()
    if not reconstruct < RECONSTRUCT_TOL * max(np.abs(a).max(), 1.0):
        raise ArithmeticError(f"eigenvectors do not reconstruct the matrix (residual {reconstruct:.3e})")
    return SpectralDecomposition(np.where(dec.kernel, 0.0, w), q)


def _state(c: GraphComplex, v, dtype) -> np.ndarray:
    """v as a vector on the full form space, one entry per simplex."""
    v = np.asarray(v, dtype=dtype)
    if v.shape != (total_dim(c),):
        raise DomainError("state length must equal the total number of simplices")
    return v


def heat_flow(c: GraphComplex, k: int, f0: Form, t: float) -> Form:
    """e^(-L_k t) f0; degree-preserving."""
    if not t >= 0:
        raise DomainError("heat flow needs t >= 0")
    if f0.degree != k:
        raise DomainError("form degree mismatch")
    dec = sym_eigen(laplacian_block(c, k))
    v = np.asarray(f0.values, dtype=float)
    return Form(c, k, dec.apply(np.exp(-dec.eigenvalues * t), v))


def _phases(dec: SpectralDecomposition, t: float) -> np.ndarray:
    """w t for the eigenvalues w; DomainError when a product leaves the float range."""
    with np.errstate(over="ignore"):
        wt = dec.eigenvalues * t
    if not np.isfinite(wt).all():
        raise DomainError(f"eigenvalue * t leaves the float range at t = {t!r}")
    return wt


def schrodinger_flow(c: GraphComplex, f0, t: float) -> np.ndarray:
    """e^(itD) f0 on the full form space; unitary."""
    v = _state(c, f0, complex)
    dec = sym_eigen(dirac(c))
    return dec.apply(np.exp(1j * _phases(dec, t)), v)


def wave_flow(c: GraphComplex, f0, g0, t: float) -> np.ndarray:
    """cos(Dt) f0 + sin(Dt) D+ g0 for initial value f0 and velocity g0.

    g0 must have no harmonic (ker D) component; its harmonic norm is
    reported otherwise.
    """
    f, g = _state(c, f0, float), _state(c, g0, float)
    dec = sym_eigen(dirac(c))
    hnorm = float(np.linalg.norm(dec.apply(dec.kernel, g)))
    if hnorm > WAVE_HARMONIC_TOL:
        raise DomainError(f"initial velocity has harmonic component of norm {hnorm:.3e}")
    wt = _phases(dec, t)
    return dec.apply(np.cos(wt), f) + dec.apply(np.sin(wt) * dec.pinv, g)


def wave_velocity(c: GraphComplex, f0, g0, t: float) -> np.ndarray:
    """Time derivative of the wave flow: -D sin(Dt) f0 + cos(Dt) g0."""
    f, g = _state(c, f0, float), _state(c, g0, float)
    dec = sym_eigen(dirac(c))
    w, wt = dec.eigenvalues, _phases(dec, t)
    return dec.apply(-w * np.sin(wt), f) + dec.apply(np.cos(wt), g)


class HarmonicComponentError(DomainError):
    """Right-hand side has a harmonic component the Laplacian cannot reach."""

    def __init__(self, message: str, norm: float):
        super().__init__(f"{message} (harmonic norm {norm:.3e})")
        self.norm = norm


def poisson_maxwell(c: GraphComplex, j: Form):
    """Solve L A = j for a divergence-free current, return (A, F = dA).

    Checks Kirchhoff (d0* j = 0) and rejects currents with a harmonic
    component; asserts the Coulomb gauge d0* A = 0 and d1* F = j.
    """
    if j.degree != 1:
        raise DomainError("current must be a 1-form")
    d0 = exterior_derivative(c, 0).data
    jv = np.asarray(j.values, dtype=float)
    div_j = d0.T @ jv
    if len(div_j) and np.abs(div_j).max() > POISSON_TOL:
        raise DomainError("Kirchhoff violated: current has nonzero divergence")
    dec = sym_eigen(laplacian_block(c, 1))
    hnorm = float(np.linalg.norm(dec.apply(dec.kernel, jv)))
    if hnorm > POISSON_TOL:
        raise HarmonicComponentError("current has a harmonic component", hnorm)
    av = dec.apply(dec.pinv, jv)
    A = Form(c, 1, av)
    gauge = d0.T @ av
    if len(gauge) and np.abs(gauge).max() > 1e-8:
        raise ArithmeticError("Coulomb gauge violated beyond tolerance")
    fv = exterior_derivative(c, 1).data @ av
    F = Form(c, 2, fv)
    if c.top_dim >= 3:
        d2 = exterior_derivative(c, 2).data
        if len(fv) and d2.size and np.abs(d2 @ fv).max() > 1e-8:
            raise ArithmeticError("dF != 0 beyond tolerance")
    return A, F


def feynman_path_sum(m, start: int, end: int, steps: int):
    """Sum over all length-n index paths of the product of the entries of the square array m.

    Equals the (end, start) entry of m^n exactly; enumeration is bounded
    to keep the search desk-scale.
    """
    mat = np.asarray(m, dtype=object)
    n = mat.shape[0]
    if steps < 0:
        raise DomainError("steps must be >= 0")
    if steps > 8 or n > 40:
        raise DomainError("path enumeration bounded to steps <= 8, dimension <= 40")

    def walk(position: int, remaining: int):
        if remaining == 0:
            return 1 if position == end else 0
        total = 0
        for nxt in range(n):
            weight = mat[nxt, position]
            if weight != 0:
                total += weight * walk(nxt, remaining - 1)
        return total

    return walk(start, steps)

"""The dense spectral route: one eigendecomposition of a symmetric operator, and a path-sum oracle.

``sym_eigen`` diagonalises a symmetric matrix with numpy and checks the result;
``dense_exp_action`` takes every flow from it.  ``discalc.evolution`` imports
this module only for a flow past its ``DENSE_CROSSOVER``, so no other command
loads numpy.  The Feynman path enumerator is the independent exact route used
in tests.
"""

from __future__ import annotations

import numpy as np

from . import DomainError, record
from .forms import OperatorMatrix


SYMMETRY_TOL = 1e-12
RECONSTRUCT_TOL = 1e-9
ORTHONORMAL_TOL = 1e-10
# eigenvalues within this fraction of max(|w|, 1) count as zero
KERNEL_RELATIVE_CUTOFF = 1e-9


@record
class SpectralDecomposition:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, orthonormal

    @property
    def kernel(self) -> np.ndarray:
        """Mask of the eigenvalues that count as zero (the harmonic part)."""
        w = np.abs(self.eigenvalues)
        return w <= KERNEL_RELATIVE_CUTOFF * w.max(initial=1.0)

    def apply(self, spectrum, v) -> np.ndarray:
        """g(M) v = Q (g(w) * Q^T v) for the values g(w) given as ``spectrum``."""
        q = self.eigenvectors
        return q @ (spectrum * (q.T @ v))

    def reconstruct(self) -> np.ndarray:
        return self.eigenvectors @ (self.eigenvalues[:, None] * self.eigenvectors.T)


def sym_eigen(m) -> SpectralDecomposition:
    """Full eigendecomposition of a symmetric matrix, deterministic ordering.

    Eigenvalues ascend, those in the kernel exactly 0.0 (so a rounding error
    there moves no flow); each eigenvector is sign-fixed so its first component
    of nonnegligible size is positive.  Raises ArithmeticError when the
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
    q[:, q[(np.abs(q) > 1e-9).argmax(axis=0), np.arange(len(w))] < 0] *= -1
    dec = SpectralDecomposition(w, q)
    orthonormal = np.abs(q.T @ q - np.eye(len(w))).max()
    if not orthonormal < ORTHONORMAL_TOL:
        raise ArithmeticError(f"eigenvectors not orthonormal (residual {orthonormal:.3e})")
    reconstruct = np.abs(dec.reconstruct() - a).max()
    if not reconstruct < RECONSTRUCT_TOL * max(np.abs(a).max(), 1.0):
        raise ArithmeticError(f"eigenvectors do not reconstruct the matrix (residual {reconstruct:.3e})")
    return SpectralDecomposition(np.where(dec.kernel, 0.0, w), q)


def dense_exp_action(op: OperatorMatrix, alpha, u: list, g: list | None = None) -> list:
    """e^(alpha A) u from one dense eigendecomposition of A.  With a velocity g, A is the Dirac
    operator D and the action is the wave's at t = alpha: cos(Dt) u + sin(Dt) D^-1 g followed by
    -D sin(Dt) u + cos(Dt) g, with sin(wt)/w = t on the kernel."""
    dec = sym_eigen(op)
    w = dec.eigenvalues
    with np.errstate(all="ignore"):  # e^(iwt), cos(wt): nan past the float range, refused by evolution._ldexp
        if g is None:
            x = dec.apply(np.exp(alpha * w), np.asarray(u))
        else:
            cos, sin = np.cos(w * alpha), np.sin(w * alpha)
            tsinc = np.where(w == 0, alpha, sin / np.where(w == 0, 1.0, w))
            x = np.concatenate([dec.apply(cos, u) + dec.apply(tsinc, g), dec.apply(cos, g) - dec.apply(w * sin, u)])
    return x.tolist()


def feynman_path_sum(m, start: int, end: int, steps: int):
    """Sum over all length-n index paths of the product of the entries of the square array m.

    Equals the (end, start) entry of m^n exactly; enumeration is bounded
    to keep the search desk-scale.
    """
    # an ndarray gives up its entries as Python numbers, so the products cannot wrap
    mat = m.tolist() if hasattr(m, "tolist") else [list(row) for row in m]
    n = len(mat)
    if steps < 0:
        raise DomainError("steps must be >= 0")
    if steps > 8 or n > 40:
        raise DomainError("path enumeration bounded to steps <= 8, dimension <= 40")

    def walk(position: int, remaining: int):
        if remaining == 0:
            return 1 if position == end else 0
        total = 0
        for nxt in range(n):
            weight = mat[nxt][position]
            if weight != 0:
                total += weight * walk(nxt, remaining - 1)
        return total

    return walk(start, steps)

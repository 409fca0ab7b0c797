"""k-forms and the exterior calculus operators on a clique complex.

A form is a tuple of Python numbers indexed by the k-simplices.  The
operators d, d* = d^T, D = d + d* and L = D^2 are ``OperatorMatrix`` values:
sparse integer rows, one ``{column: nonzero}`` dict per row.  d wraps the
rows of the signed face table ``GraphComplex.faces`` as they are, and the
others are built from them.  Every entry of d and D is 0 or +-1, and L and
its blocks are Gram products m^T m summed in Python ints, so d.d = 0 and
L = D^2 hold exactly.  Numpy is imported only by ``OperatorMatrix.data``, the
dense int64 array that the dense route of ``discalc.spectral`` reads.  The
integrals, Stokes and ``potential`` live in ``discalc.vector``, the flows and
the Poisson/Maxwell solve in ``discalc.evolution``.
"""

from __future__ import annotations

from functools import cached_property

from . import DomainError, record
from .complexes import GraphComplex

TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np


@record
class OperatorMatrix:
    """Sparse integer matrix: ``rows[r]`` maps the column of each nonzero entry of row r to it.
    Rows may be shared with the face table, so none may change one."""

    shape: tuple
    rows: tuple

    @cached_property
    def data(self) -> np.ndarray:
        """The dense C-ordered int64 array, scattered from the rows on first read."""
        import numpy as np

        mat = np.zeros(self.shape, dtype=np.int64)
        mat[[r for r, row in enumerate(self.rows) for _ in row],
            [j for row in self.rows for j in row]] = [v for row in self.rows for v in row.values()]
        return mat

    def transpose(self) -> OperatorMatrix:
        rows = [{} for _ in range(self.shape[1])]
        for r, row in enumerate(self.rows):
            for j, v in row.items():
                rows[j][r] = v
        return OperatorMatrix(self.shape[::-1], tuple(rows))


@record
class Form:
    """Value tuple indexed by the k-simplices in reference orientation."""

    complex_ref: GraphComplex
    degree: int
    values: tuple

    def __post_init__(self):
        # an ndarray gives up its entries as Python numbers: np.int64 entries would wrap in the sums
        values = self.values.tolist() if hasattr(self.values, "tolist") else self.values
        object.__setattr__(self, "values", tuple(values))
        expected = self.complex_ref.count(self.degree)
        if len(self.values) != expected:
            raise DomainError(f"degree-{self.degree} form needs {expected} values")


def exterior_derivative(c: GraphComplex, k: int) -> OperatorMatrix:
    """Signed face-sum matrix d_k: k-forms -> (k+1)-forms, whose rows are ``c.faces[k+1]``."""
    if k < 0:
        raise DomainError("degree must be >= 0")
    rows = c.faces[k + 1] if k < c.top_dim else ()
    return OperatorMatrix((len(rows), c.count(k)), rows)


def codifferential(c: GraphComplex, k: int) -> OperatorMatrix:
    """Adjoint d*: k-forms -> (k-1)-forms (plain transpose of d_{k-1})."""
    if k < 1:
        raise DomainError("codifferential needs degree >= 1")
    return exterior_derivative(c, k - 1).transpose()


def gradient(c: GraphComplex) -> OperatorMatrix:
    return exterior_derivative(c, 0)


def curl(c: GraphComplex) -> OperatorMatrix:
    return exterior_derivative(c, 1)


def divergence(c: GraphComplex) -> OperatorMatrix:
    return codifferential(c, 1)


def total_dim(c: GraphComplex) -> int:
    return sum(c.counts())


def block_offsets(c: GraphComplex) -> list:
    offsets = [0]
    for k in range(c.top_dim + 1):
        offsets.append(offsets[-1] + c.count(k))
    return offsets


def dirac(c: GraphComplex) -> OperatorMatrix:
    """Block matrix D = d + d* on the direct sum of all form spaces."""
    n = total_dim(c)
    offsets = block_offsets(c)
    rows = [{} for _ in range(n)]
    for k in range(c.top_dim):
        r0, c0 = offsets[k + 1], offsets[k]
        for r, row in enumerate(exterior_derivative(c, k).rows, r0):
            for j, v in row.items():
                rows[r][c0 + j] = v
                rows[c0 + j][r] = v
    return OperatorMatrix((n, n), tuple(rows))


def laplacian(c: GraphComplex) -> OperatorMatrix:
    """L = D^2 = d d* + d* d; D is symmetric, so D^2 = D^T D."""
    return _gram(dirac(c))


def laplacian_block(c: GraphComplex, k: int) -> OperatorMatrix:
    """The degree-k block L_k = d_k* d_k + d_{k-1} d_{k-1}*: the Gram matrix of the rows of d_k
    stacked on those of d_{k-1}^T."""
    c.positions(k, ())  # DomainError for a degree with no simplices
    m = exterior_derivative(c, k)
    if k:
        down = exterior_derivative(c, k - 1).transpose()
        m = OperatorMatrix((m.shape[0] + down.shape[0], m.shape[1]), m.rows + down.rows)
    return _gram(m)


def _gram(m: OperatorMatrix) -> OperatorMatrix:
    """m^T m in Python ints: each row adds the outer product of its nonzeros; zero sums are dropped."""
    out = [{} for _ in range(m.shape[1])]
    for row in m.rows:
        items = row.items()
        for i, a in items:
            acc = out[i]
            for j, b in items:
                acc[j] = acc.get(j, 0) + a * b
    return OperatorMatrix((m.shape[1],) * 2, tuple({j: v for j, v in acc.items() if v} for acc in out))

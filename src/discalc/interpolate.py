"""Newton-Gregory machinery: forward-difference tables and exact interpolation.

The discrete Taylor formula f(x) = sum_k D^k f(0) [x]^k / k! reproduces any
sampled function exactly on its window and extrapolates beyond it.
"""

from __future__ import annotations

from fractions import Fraction

from . import DomainError, expr, record
from .numcore import Sequence, binomial_exact, diff


@record
class DifferenceTable:
    """coeffs[k] = D^k f(0), the k-th iterated forward difference at 0."""

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise DomainError("DifferenceTable must be non-empty")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    def __len__(self) -> int:
        return len(self.coeffs)


def forward_differences(samples: Sequence) -> DifferenceTable:
    """Difference table of a sample window anchored at 0."""
    if samples.base != 0:
        raise DomainError("forward_differences requires base 0")
    coeffs = [samples.values[0]]
    current = samples
    while len(current) > 1:
        current = diff(current)
        coeffs.append(current.values[0])
    return DifferenceTable(tuple(coeffs))


def newton_gregory_eval(table: DifferenceTable, x: int):
    """sum_k coeffs[k] C(x, k); exact on the sample window, extrapolates beyond."""
    exact = all(isinstance(c, (int, Fraction)) for c in table.coeffs)
    total = Fraction(0) if exact else 0.0
    for k, c in enumerate(table.coeffs):
        binom = binomial_exact(x, k)
        total += c * binom if exact else c * float(binom)
    if exact:
        if total.denominator == 1:
            return total.numerator
        return total
    return total


def interpolate_fit(samples: Sequence):
    """Closed-form interpolant sum_k coeffs[k] [x]^k / k! matching every sample.

    Returns an expression tree (see :mod:`discalc.expr`); its evaluation
    agrees with the samples exactly for integer/rational data.
    """
    table = forward_differences(samples)
    return expr.from_difference_table(table.coeffs)

"""Newton-Gregory machinery: forward-difference tables and exact interpolation.

The discrete Taylor formula f(x) = sum_k D^k f(0) [x]^k / k! reproduces any
sampled function exactly on its window and extrapolates beyond it.  At an
integer x each weight [x]^k / k! is the binomial C(x, k), an integer, and the
evaluation carries it from one term to the next.
"""

from __future__ import annotations

from fractions import Fraction

from . import DomainError, normalized, record
from .numcore import Sequence, diff


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
    """sum_k coeffs[k] C(x, k); exact on the sample window, extrapolates beyond.

    C(x, k + 1) = C(x, k) (x - k) / (k + 1) is an exact integer quotient, so each binomial costs one
    multiplication and one division of the last.  A float coefficient makes the sum a float."""
    exact = all(isinstance(c, (int, Fraction)) for c in table.coeffs)
    total, binom = (0 if exact else 0.0), 1
    for k, c in enumerate(table.coeffs):
        total += c * binom if exact else c * float(binom)
        binom = binom * (x - k) // (k + 1)
    return normalized(total)


def interpolate_fit(table: DifferenceTable):
    """Closed-form interpolant sum_k coeffs[k] [x]^k / k! of a difference table, matching every sample.

    Returns an expression tree (see :mod:`discalc.expr`); its evaluation
    agrees with the samples exactly for integer/rational data.
    """
    from . import expr  # the one function here that builds an expression: evaluation never loads the language

    return expr.from_difference_table(table.coeffs)

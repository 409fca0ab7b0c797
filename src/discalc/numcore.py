"""Exact scalar kernels for step-1 difference calculus on the integers.

Everything here is computed in integer / rational / Gaussian-integer
arithmetic; floats appear only in the deformed (h != 1) variants.  The
functions that build a rational import ``fractions`` themselves, so the
float-only ``plot`` command never loads it.
"""

from __future__ import annotations

import math

from . import DomainError, normalized, record


#: Marker returned by :func:`tan_discrete` where cos vanishes.
INFINITY = math.inf


@record
class GaussianInteger:
    """Gaussian integer a + bi with arbitrary-precision components."""

    re: int
    im: int

    def __sub__(self, other: "GaussianInteger") -> "GaussianInteger":
        return GaussianInteger(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianInteger") -> "GaussianInteger":
        return GaussianInteger(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __pow__(self, n: int) -> "GaussianInteger":
        if n < 0:
            raise DomainError("negative power of a GaussianInteger is not integral")
        # square and multiply on the components; a square (a + bi)^2 = (a + b)(a - b) + 2abi takes two products
        re, im, a, b = 1, 0, self.re, self.im
        while n:
            if n & 1:
                re, im = re * a - im * b, re * b + im * a
            n >>= 1
            if n:
                a, b = (a + b) * (a - b), 2 * a * b
        return GaussianInteger(re, im)


@record
class Sequence:
    """Tabulated values of an integer-indexed function on a window.

    ``values[i - base]`` is the function value at integer index ``i``.
    """

    base: int
    values: tuple

    def __post_init__(self):
        if len(self.values) == 0:
            raise DomainError("Sequence must be non-empty")
        object.__setattr__(self, "values", tuple(self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int):
        if not self.base <= index < self.base + len(self.values):
            raise IndexError(f"index {index} outside window [{self.base}, {self.base + len(self.values)})")
        return self.values[index - self.base]


def diff(f: Sequence) -> Sequence:
    """Forward difference: result[i] = f[i+1] - f[i], one entry shorter."""
    if len(f) < 2:
        raise DomainError("diff needs at least 2 values")
    vals = f.values
    return Sequence(f.base, tuple(vals[i + 1] - vals[i] for i in range(len(vals) - 1)))


def sum_prefix(f: Sequence) -> Sequence:
    """Prefix sums anchored at 0: result[x] = sum of f[0..x-1], result[0] = 0.

    Requires the window to start at 0.  Result is one entry longer, so that
    ``diff(sum_prefix(f)) == f`` and ``sum_prefix(diff(f))[x] == f[x] - f[0]``.
    """
    if f.base != 0:
        raise DomainError("sum_prefix requires a window anchored at 0")
    out = [0]
    acc = 0
    for v in f.values:
        acc = acc + v
        out.append(acc)
    return Sequence(0, tuple(out))


def falling_power(x: int, n: int) -> int:
    """x (x-1) ... (x-n+1); the empty product for n = 0, and 0 for 0 <= x < n (factor x - x)."""
    if n < 0:
        raise DomainError("falling_power needs n >= 0")
    if 0 <= x < n:
        return 0
    result = 1
    for j in range(n):
        result *= x - j
    return result


def exp_trig_exact(a: int, x: int) -> GaussianInteger:
    """(1 + ia)^x for x >= 0; cos(a.x) is the real part, sin(a.x) the imaginary."""
    if x < 0:
        raise DomainError("exp_trig_exact needs x >= 0")
    return GaussianInteger(1, a) ** x


def cos_exact(a: int, x: int) -> int:
    return exp_trig_exact(a, x).re


def sin_exact(a: int, x: int) -> int:
    return exp_trig_exact(a, x).im


def exp_exact(a: int, x: int):
    """(1 + a)^x exactly; integer for x >= 0, Fraction for x < 0."""
    if x >= 0:
        return (1 + a) ** x
    if 1 + a == 0:
        raise DomainError("exp base 0 has no negative powers")
    from fractions import Fraction

    return Fraction(1, (1 + a) ** (-x))


def _steps(x: float, h: float) -> float:
    """x/h, the number of steps of size h up to x."""
    if h == 0 or not math.isfinite(x / h):
        raise DomainError("x/h needs h != 0 and a finite quotient")
    return x / h


def exp_h(a: float, h: float, x: float) -> float:
    """Deformed exponential (1 + a h)^(x/h); approaches e^(ax) as h -> 0."""
    base, power = 1 + a * h, _steps(x, h)
    if base <= 0 and power % 1 != 0 or base == 0 and power < 0:
        raise DomainError("1 + a h <= 0 needs an integer x/h, and 1 + a h = 0 a nonnegative one")
    return base ** power


def exp_h_complex(a: float, h: float, x: float) -> complex:
    """Deformed complex exponential (1 + i a h)^(x/h)."""
    return (1 + 1j * a * h) ** _steps(x, h)


def sin_h(a: float, h: float, x: float) -> float:
    return exp_h_complex(a, h, x).imag


def tan_discrete(x: int):
    """sin(x)/cos(x) as an exact Fraction, or INFINITY where cos vanishes.

    4-periodic on the non-negative integers: 0, 1, inf, -1, 0, ...
    """
    if x < 0:
        raise DomainError("tan_discrete needs x >= 0")
    z = exp_trig_exact(1, x)
    if z.re == 0:
        return INFINITY
    from fractions import Fraction

    return Fraction(z.im, z.re)


def log_discrete(x: float) -> float:
    """Base-2 logarithm: the inverse of exp(1 . x) = 2^x."""
    if x <= 0:
        raise DomainError("log_discrete needs x > 0")
    return math.log2(x)


def reciprocal(x: float) -> float:
    """The deformed 1/x: D log(x) = Log(1 + 1/x)/Log(2)."""
    if x <= 0:
        raise DomainError("reciprocal needs x > 0")
    return log_discrete(x + 1) - log_discrete(x)


def solve_harmonic(a: int, f0, f1):
    """Coefficients (c_cos, c_sin) with f = c_cos cos(a.x) + c_sin sin(a.x),
    f(0) = f0 and f(1) = f1.

    Since cos(a.1) = 1 and sin(a.1) = a, the solution is c_cos = f0 and
    c_sin = (f1 - f0)/a.  The returned pair determines a solution of the
    oscillator recurrence f(x+2) = 2 f(x+1) - (1 + a^2) f(x).
    """
    if a == 0:
        raise DomainError("solve_harmonic needs a != 0")
    from fractions import Fraction

    c_cos = Fraction(f0)
    c_sin = Fraction(f1 - f0, a)
    return c_cos, c_sin


def harmonic_eval(a: int, c_cos, c_sin, x: int):
    """Evaluate c_cos cos(a.x) + c_sin sin(a.x) exactly at integer x >= 0."""
    from fractions import Fraction

    z = exp_trig_exact(a, x)
    return normalized(Fraction(c_cos) * z.re + Fraction(c_sin) * z.im)

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from discalc import expr, interpolate as ip
from discalc import DomainError
from discalc.numcore import Sequence, falling_power


class TestForwardDifferences:
    def test_cubic_plus_linear(self):
        # n^3 + n sampled at 1..4 after re-anchoring at 0
        samples = Sequence(0, (2, 10, 30, 68))
        assert ip.forward_differences(samples).coeffs == (2, 8, 12, 6)

    def test_exponential_all_ones(self):
        samples = Sequence(0, tuple(2 ** k for k in range(5)))
        assert ip.forward_differences(samples).coeffs == (1, 1, 1, 1, 1)

    def test_square(self):
        samples = Sequence(0, (0, 1, 4, 9))
        assert ip.forward_differences(samples).coeffs == (0, 1, 2, 0)

    def test_requires_base_zero(self):
        with pytest.raises(DomainError):
            ip.forward_differences(Sequence(1, (1, 2, 3)))


class TestNewtonGregoryEval:
    def test_exp_row_sum(self):
        table = ip.DifferenceTable((1, 1, 1, 1, 1))
        assert ip.newton_gregory_eval(table, 4) == 16

    def test_cubic_extrapolation(self):
        # 2, 10, 30, 68 re-anchored at 0; x = 10 here is n = 11 there
        table = ip.DifferenceTable((2, 8, 12, 6))
        assert ip.newton_gregory_eval(table, 10) == 1342
        assert ip.newton_gregory_eval(table, 11) == 1740

    def test_reproduces_samples(self):
        rng = random.Random(3)
        for _ in range(200):
            values = tuple(rng.randint(-100, 100) for _ in range(rng.randint(2, 10)))
            table = ip.forward_differences(Sequence(0, values))
            for x, v in enumerate(values):
                assert ip.newton_gregory_eval(table, x) == v

    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=8))
    def test_extension_has_vanishing_top_difference(self, values):
        # extending m samples by Newton-Gregory keeps the m-th difference zero
        m = len(values)
        table = ip.forward_differences(Sequence(0, tuple(values)))
        extended = [ip.newton_gregory_eval(table, x) for x in range(m + 4)]
        row = extended
        for _ in range(m):
            row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
        assert all(v == 0 for v in row)

    @given(st.lists(st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=50),
                              st.floats(-1e6, 1e6)), min_size=1, max_size=40),
           st.integers(-10**6, 10**6))
    def test_running_binomial_matches_falling_power(self, coeffs, x):
        # the oracle builds each C(x, k) afresh as [x]^k / k!; a float coefficient makes the sum a float,
        # added from 0.0 in the same order, so it agrees bit for bit
        table = ip.DifferenceTable(tuple(coeffs))
        binoms = [Fraction(falling_power(x, k), math.factorial(k)) for k in range(len(coeffs))]
        value = ip.newton_gregory_eval(table, x)
        if any(isinstance(c, float) for c in coeffs):
            expected = 0.0
            for c, b in zip(coeffs, binoms):
                expected += c * float(b)
            assert value.hex() == expected.hex()
        else:
            expected = sum((c * b for c, b in zip(coeffs, binoms)), Fraction(0))
            assert value == expected and type(value) is (int if expected.denominator == 1 else Fraction)

    def test_rational_table(self):
        table = ip.DifferenceTable((Fraction(1, 2), Fraction(1, 3)))
        assert ip.newton_gregory_eval(table, 3) == Fraction(3, 2)


class TestInterpolateFit:
    def test_closed_form_cubic(self):
        fit = ip.interpolate_fit(ip.forward_differences(Sequence(0, (2, 10, 30, 68))))
        assert expr.evaluate(fit, 10) == 1342
        # the fit equals (x+1)^3 + (x+1) on the shifted axis
        for x in range(8):
            assert expr.evaluate(fit, x) == (x + 1) ** 3 + (x + 1)

    def test_exact_reproduction(self):
        rng = random.Random(11)
        for _ in range(50):
            values = tuple(rng.randint(-20, 20) for _ in range(rng.randint(1, 8)))
            fit = ip.interpolate_fit(ip.forward_differences(Sequence(0, values)))
            for x, v in enumerate(values):
                assert expr.evaluate(fit, x) == v

    def test_fit_of_falling_power(self):
        values = tuple(falling_power(x, 3) for x in range(5))
        fit = ip.interpolate_fit(ip.forward_differences(Sequence(0, values)))
        assert fit == expr.FallingPower(3)

    def test_transport_consistency(self):
        # f(x + t) expanded by Newton-Gregory in t agrees with a direct shift
        values = tuple(x ** 3 - 2 * x for x in range(12))
        for x0 in range(6):
            window = Sequence(0, values[x0:x0 + 5])
            table = ip.forward_differences(window)
            for t in range(5):
                assert ip.newton_gregory_eval(table, t) == values[x0 + t]

    def test_float_cos_deformed(self):
        # 11 samples of Cos(x^2/2) determine a degree-10 interpolant that
        # reproduces the data to near machine precision
        samples = tuple(math.cos(x * x / 2) for x in range(11))
        table = ip.forward_differences(Sequence(0, samples))
        for x in range(11):
            got = ip.newton_gregory_eval(table, x)
            assert type(got) is float and abs(got - samples[x]) <= 1e-9

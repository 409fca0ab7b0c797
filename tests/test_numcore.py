import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from discalc import DomainError, complexes as cx, expr, numcore as nc, topology as tp

from conftest import exp_trig_rational


int_lists = st.lists(st.integers(-50, 50), min_size=2, max_size=12)


class TestDiff:
    def test_squares(self):
        f = nc.Sequence(0, (0, 1, 4, 9, 16))
        assert nc.diff(f).values == (1, 3, 5, 7)
        assert nc.diff(f).base == 0

    def test_falling_power_four(self):
        f = nc.Sequence(0, tuple(nc.falling_power(x, 4) for x in range(9)))
        expected = tuple(4 * nc.falling_power(x, 3) for x in range(8))
        assert nc.diff(f).values == expected

    def test_constant(self):
        assert nc.diff(nc.Sequence(0, (7, 7, 7))).values == (0, 0)

    def test_too_short(self):
        with pytest.raises(DomainError):
            nc.diff(nc.Sequence(0, (1,)))


class TestSumPrefix:
    def test_ones(self):
        assert nc.sum_prefix(nc.Sequence(0, (1, 1, 1, 1))).values == (0, 1, 2, 3, 4)

    def test_fibonacci(self):
        fib = nc.Sequence(0, (1, 1, 2, 3, 5, 8))
        s = nc.sum_prefix(fib)
        # S f(x) = f(x+1) - 1 for the Fibonacci sequence
        assert s[4] == 7 == 8 - 1

    def test_squares(self):
        assert nc.sum_prefix(nc.Sequence(0, (0, 1, 4, 9))).values == (0, 0, 1, 5, 14)

    def test_requires_base_zero(self):
        with pytest.raises(DomainError):
            nc.sum_prefix(nc.Sequence(1, (1, 2)))

    @given(int_lists)
    def test_ftc_both_parts(self, values):
        f = nc.Sequence(0, tuple(values))
        # DS f = f
        assert nc.diff(nc.sum_prefix(f)).values == f.values
        # SD f = f - f(0)
        s = nc.sum_prefix(nc.diff(f))
        assert all(s[x] == f[x] - f[0] for x in range(len(values)))

    @given(int_lists, int_lists)
    def test_leibniz(self, fs, gs):
        n = min(len(fs), len(gs))
        for x in range(n - 1):
            lhs = fs[x + 1] * gs[x + 1] - fs[x] * gs[x]
            rhs = (fs[x + 1] - fs[x]) * gs[x] + fs[x + 1] * (gs[x + 1] - gs[x])
            assert lhs == rhs

    @given(int_lists, int_lists)
    def test_abel_summation(self, fs, gs):
        n = min(len(fs), len(gs)) - 1
        lhs = sum((fs[k + 1] - fs[k]) * gs[k] for k in range(n))
        rhs = (fs[n] * gs[n] - fs[0] * gs[0]) - sum(
            fs[k + 1] * (gs[k + 1] - gs[k]) for k in range(n)
        )
        assert lhs == rhs


class TestFallingPower:
    def test_values(self):
        assert nc.falling_power(5, 3) == 60
        assert nc.falling_power(4, 0) == 1
        assert nc.falling_power(3, 5) == 0
        assert nc.falling_power(3, 10 ** 12) == 0  # the factor 3 - 3, found without a loop
        assert nc.falling_power(-1, 3) == -6 and nc.falling_power(0, 0) == 1

    def test_derivative_rule(self):
        for n in range(1, 6):
            for x in range(-5, 10):
                d = nc.falling_power(x + 1, n) - nc.falling_power(x, n)
                assert d == n * nc.falling_power(x, n - 1)


class TestExpTrig:
    def test_known_values(self):
        z = nc.exp_trig_exact(1, 10)
        assert (z.re, z.im) == (0, 32)
        z = nc.exp_trig_exact(1, 2)
        assert (z.re, z.im) == (0, 2)

    def test_a3(self):
        z = nc.exp_trig_exact(3, 10)
        assert (z.re, z.im) == (99712, -7584)
        # consistent with the sum (1 - cos(3.10))/3
        assert (1 - z.re) // 3 == -33237

    def test_d_exp_identity(self):
        for a in (-2, -1, 1, 2, 3):
            for x in range(41):
                z = nc.exp_trig_exact(a, x)
                dz = nc.exp_trig_exact(a, x + 1) - z
                assert dz == z * nc.GaussianInteger(0, a)

    def test_trig_derivative_rules(self):
        for a in (1, 2, 5):
            for x in range(30):
                assert nc.sin_exact(a, x + 1) - nc.sin_exact(a, x) == a * nc.cos_exact(a, x)
                assert nc.cos_exact(a, x + 1) - nc.cos_exact(a, x) == -a * nc.sin_exact(a, x)

    def test_roots(self):
        for k in range(11):
            assert nc.sin_exact(1, 4 * k) == 0
            assert nc.cos_exact(1, 2 + 4 * k) == 0

    def test_decay_at_minus_infinity(self):
        # the modulus of (1+i)^(-x) decreases strictly; sin vanishes in the limit
        previous = None
        for x in range(2, 40):
            re, im = exp_trig_rational(1, -x)
            modulus_sq = re * re + im * im
            if previous is not None:
                assert modulus_sq < previous
            previous = modulus_sq
            assert abs(im) <= Fraction(2) ** (-(x - 2) // 2)

    @given(st.integers(-9, 9), st.integers(0, 200))
    def test_power_is_repeated_multiplication(self, a, x):
        z = nc.GaussianInteger(1, 0)
        for _ in range(x):
            z = z * nc.GaussianInteger(1, a)
        assert nc.exp_trig_exact(a, x) == z

    def test_negative_power_raises(self):
        with pytest.raises(DomainError):
            nc.GaussianInteger(1, 1) ** -1

    def test_negative_power_matches_inverse(self):
        re, im = exp_trig_rational(1, -3)
        w = nc.exp_trig_exact(1, 3)
        assert re * w.re - im * w.im == 1
        assert re * w.im + im * w.re == 0

    def test_real_exponential(self):
        # exp(a.x) = (1 + a)^x: an int at x >= 0, a Fraction below, and base 0 has no negative powers
        assert [nc.exp_exact(1, x) for x in range(6)] == [1, 2, 4, 8, 16, 32]
        assert type(nc.exp_exact(2, 3)) is int and nc.exp_exact(-1, 0) == 1
        value = nc.exp_exact(2, -2)
        assert value == Fraction(1, 9) and type(value) is Fraction
        assert nc.exp_exact(-3, -3) == Fraction(-1, 8)
        with pytest.raises(DomainError):
            nc.exp_exact(-1, -1)


class TestRecord:
    def test_equality_depends_on_the_type(self):
        assert expr.FallingPower(2) != expr.PlainPower(2)
        assert expr.Const(Fraction(1)) != expr.FallingPower(1)
        assert expr.Log() != expr.Reciprocal()
        assert expr.Trig("sin", 2) == expr.Trig("sin", 2) != expr.Trig("cos", 2)

    def test_equal_records_hash_equal(self):
        pairs = [(expr.Sum((expr.ONE, expr.FallingPower(3))), expr.Sum((expr.Const(Fraction(1)), expr.FallingPower(3)))),
                 (nc.GaussianInteger(2, -1), nc.GaussianInteger(2, -1)), (expr.Log(), expr.Log()),
                 (cx.Graph(3, frozenset({(1, 0)})), cx.Graph(3, frozenset({(0, 1)}), None))]
        for a, b in pairs:
            assert a == b and a is not b and hash(a) == hash(b)

    def test_fields_are_frozen(self):
        z = nc.GaussianInteger(1, 2)
        with pytest.raises(AttributeError):
            z.re = 5
        with pytest.raises(AttributeError):
            del z.im
        with pytest.raises(AttributeError):
            z.extra = 0
        assert (z.re, z.im) == (1, 2)

    def test_repr_is_in_the_dataclass_format(self):
        assert repr(expr.Trig("sin", 2)) == "Trig(kind='sin', a=2)"
        assert repr(expr.Log()) == "Log()"
        assert repr(tp.Classification("curve", (0, 3))) == "Classification(kind='curve', boundary=(0, 3), flat=False)"

    def test_keyword_and_default_arguments(self):
        assert nc.GaussianInteger(im=3, re=1) == nc.GaussianInteger(1, im=3) == nc.GaussianInteger(1, 3)
        assert cx.Graph(2, frozenset()).labels is None
        assert tp.Classification("surface", (), flat=True).flat is True
        assert tp.Classification(boundary=(), kind="solid").flat is False

    @pytest.mark.parametrize("args, kwargs", [((1,), {}), ((1, 2, 3), {}), ((1,), {"re": 2}), ((1, 2), {"x": 0}), ((), {})])
    def test_wrong_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            nc.GaussianInteger(*args, **kwargs)

    def test_post_init_normalises(self):
        s = nc.Sequence(0, [1, 2, 3])
        assert s.values == (1, 2, 3) and s == nc.Sequence(0, (1, 2, 3))
        with pytest.raises(DomainError):
            nc.Sequence(0, [])


class TestExpH:
    def test_compound_interest(self):
        assert nc.exp_h(1, 0.1, 1) == pytest.approx(1.1 ** 10, abs=1e-12)

    def test_h_one_exp(self):
        assert nc.exp_h(1, 1, 4) == 16

    def test_sin_h_close_to_classical(self):
        h = 1e-3
        for x in [0.5, 1.0, 2.0, 4 * math.pi]:
            assert abs(nc.sin_h(1, h, x) - math.sin(x)) <= x * h

    def test_degenerate_base(self):
        with pytest.raises(DomainError):
            nc.exp_h(-1, 1, 0.5)

    @pytest.mark.parametrize("fn, a, h, x", [
        (nc.exp_h, -3, 1, 0.5), (nc.exp_h, -1, 1, -2), (nc.exp_h, 1, 0, 1), (nc.exp_h, 1, 5e-324, -1.0),
        (nc.exp_h_complex, 1, 0, 1), (nc.exp_h_complex, 1, 5e-324, -1.0),
    ], ids=["negative-base", "zero-base-negative-power", "h-zero", "steps-past-float",
            "complex-h-zero", "complex-steps-past-float"])
    def test_step_and_base_rejected(self, fn, a, h, x):
        with pytest.raises(DomainError):
            fn(a, h, x)

    def test_negative_base_integer_power(self):
        assert nc.exp_h(-3, 1, 3) == -8
        assert nc.exp_h(-1, 1, 2) == 0


class TestTan:
    def test_period_start(self):
        assert [nc.tan_discrete(x) for x in range(4)] == [0, 1, nc.INFINITY, -1]

    def test_periodicity(self):
        assert nc.tan_discrete(7) == -1
        assert nc.tan_discrete(4) == 0
        for x in range(20):
            assert nc.tan_discrete(x) == nc.tan_discrete(x + 4)


class TestLog:
    def test_log_one(self):
        assert nc.log_discrete(1) == 0

    def test_log_multiplicative(self):
        assert nc.log_discrete(2 * 4) == pytest.approx(nc.log_discrete(2) + nc.log_discrete(4))
        assert nc.log_discrete(8) == pytest.approx(3)

    def test_reciprocal_one(self):
        assert nc.reciprocal(1) == pytest.approx(1)

    def test_reciprocal_formula(self):
        for x in (1, 2, 3, 10):
            assert nc.reciprocal(x) == pytest.approx(math.log(1 + 1 / x) / math.log(2))

    def test_domain(self):
        with pytest.raises(DomainError):
            nc.log_discrete(0)
        with pytest.raises(DomainError):
            nc.reciprocal(-1)


class TestHarmonic:
    def oracle(self, a, f0, f1, steps):
        # brute-force recurrence f(x+2) = 2 f(x+1) - (1 + a^2) f(x)
        values = [Fraction(f0), Fraction(f1)]
        for _ in range(steps):
            values.append(2 * values[-1] - (1 + a * a) * values[-2])
        return values

    def test_matches_recurrence_oracle(self):
        c_cos, c_sin = nc.solve_harmonic(3, 2, 5)
        assert (c_cos, c_sin) == (2, 1)
        expected = self.oracle(3, 2, 5, 10)
        for x in range(12):
            assert nc.harmonic_eval(3, c_cos, c_sin, x) == expected[x]
        assert expected[2] == -10

    def test_rational_start_matches_recurrence_oracle(self):
        # f(0) = 1/2 is the one non-integral value: every later one is an int
        c_cos, c_sin = nc.solve_harmonic(3, Fraction(1, 2), 1)
        values = [nc.harmonic_eval(3, c_cos, c_sin, x) for x in range(12)]
        assert values == self.oracle(3, Fraction(1, 2), 1, 10)
        assert [type(v) for v in values] == [Fraction] + [int] * 11

    def test_pure_cos(self):
        assert nc.solve_harmonic(1, 1, 1) == (1, 0)

    def test_pure_sin(self):
        assert nc.solve_harmonic(2, 0, 2) == (0, 1)

    def test_zero_frequency_rejected(self):
        with pytest.raises(DomainError):
            nc.solve_harmonic(0, 1, 2)

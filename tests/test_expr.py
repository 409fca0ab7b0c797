import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from discalc import expr, interpolate as ip
from discalc.expr import (
    Const,
    ExpBase,
    FallingPower,
    Log,
    NoClosedFormError,
    PlainPower,
    Trig,
    make_product,
    make_sum,
)
from discalc import DomainError, ParseError
from discalc.numcore import Sequence

from conftest import exp_trig_rational


class TestParse:
    def test_mixed_polynomial_expression(self):
        tree = expr.parse("3*[x]^5 + 3^x - 2*x + 7")
        assert isinstance(tree, expr.Sum)
        assert len(tree.terms) == 4

    def test_single_trig(self):
        assert expr.parse("sin(3.x)") == Trig("sin", 3)
        assert expr.parse("sin(3·x)") == Trig("sin", 3)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            expr.parse("[x]^")
        assert err.value.position == 4

    def test_star_in_trig_rejected(self):
        with pytest.raises(ParseError):
            expr.parse("sin(3*x)")

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            expr.parse("tanh(2.x)")

    def test_empty(self):
        with pytest.raises(ParseError):
            expr.parse("   ")

    def test_exp_is_shifted_base(self):
        assert expr.parse("exp(1.x)") == ExpBase(Fraction(2))
        assert expr.parse("exp(2.x)") == ExpBase(Fraction(3))

    def test_falling_power(self):
        assert expr.parse("[x]^4") == FallingPower(4)
        assert expr.parse("[x]") == FallingPower(1)


class TestEval:
    def test_plain_square(self):
        assert expr.evaluate(expr.parse("x^2"), 5) == 25

    def test_mixed_polynomial_derivative_value(self):
        g = expr.derivative(expr.parse("3*[x]^5 + 3^x - 2*x + 7"))
        assert expr.evaluate(g, 10) == 193696

    def test_sin_at_ten(self):
        assert expr.evaluate(expr.parse("sin(1.x)"), 10) == 32

    def test_negative_argument_trig(self):
        assert expr.evaluate(expr.parse("sin(1.x)"), -1) == Fraction(-1, 2)

    def test_trig_matches_gaussian_rational_power(self):
        # evaluate reduces only the part it returns; exp_trig_rational reduces both
        for a in (-9, -3, -2, -1, 1, 2, 3, 7, 9):
            for x in range(-300, 301):
                re, im = exp_trig_rational(a, x)
                for kind, want in (("sin", im), ("cos", re)):
                    want = want.numerator if want.denominator == 1 else want
                    got = expr.evaluate(Trig(kind, a), x)
                    assert got == want and type(got) is type(want)


class TestFallingRewrite:
    def test_matches_newton_gregory(self):
        # the Stirling recurrence against the forward-difference table of k^n at 0
        for n in range(40):
            table = ip.forward_differences(Sequence(0, tuple(k ** n for k in range(n + 1))))
            assert expr.plain_to_falling(n) == expr.from_difference_table(table.coeffs)

    def test_bound(self):
        assert expr.evaluate(expr.plain_to_falling(expr.MAX_POWER), 2) == 2 ** expr.MAX_POWER
        with pytest.raises(DomainError):
            expr.plain_to_falling(expr.MAX_POWER + 1)
        # evaluating a bare x^N needs no rewrite, so MAX_POWER does not bound it (MAX_RESULT_BITS does)
        assert expr.evaluate(expr.parse(f"x^{10 * expr.MAX_POWER}"), 2) == 2 ** (10 * expr.MAX_POWER)


BITS = expr.MAX_RESULT_BITS


class TestResultBound:
    @pytest.mark.parametrize("text, last, exact", [
        ("2^x", BITS - 1, lambda x: 2 ** x),
        ("3^x", (BITS - 1) // 2, lambda x: 3 ** x),
        ("1/2^x", -(BITS - 1), lambda x: 2 ** -x),
        ("x^2", -(1 << (BITS - 1) // 2), lambda x: x * x),
        ("[x]^3", 2 - (1 << (BITS - 1) // 3), lambda x: x * (x - 1) * (x - 2)),
        ("sin(1.x)", BITS - 1, None),
        ("cos(2.x)", (BITS - 1) // 3, None),
    ], ids=["2^x", "3^x", "1/2^x", "x^2", "[x]^3", "sin(1.x)", "cos(2.x)"])
    def test_last_admitted_point(self, text, last, exact):
        # the last x whose bit bound fits is evaluated exactly; one step further from 0 raises
        tree = expr.parse(text)
        value = expr.evaluate(tree, last)
        assert abs(value).bit_length() <= BITS and (exact is None or value == exact(last))
        with pytest.raises(DomainError, match="bounded"):
            expr.evaluate(tree, last + (1 if last > 0 else -1))

    def test_product_of_admitted_factors_is_bounded(self):
        x = BITS // 2
        assert expr.evaluate(expr.parse("2^x"), x) == 2 ** x
        with pytest.raises(DomainError, match="bounded"):
            expr.evaluate(expr.parse("2^x*2^x*2^x"), x)

    def test_literal_power_is_bounded(self):
        assert expr.parse("2^20") == Const(Fraction(2 ** 20))
        with pytest.raises(DomainError, match="bounded"):
            expr.parse(f"2^{expr.MAX_RESULT_BITS}")

    def test_falling_power_inside_its_zeros(self):
        assert expr.evaluate(FallingPower(10 ** 9), 10 ** 9 - 1) == 0
        with pytest.raises(DomainError, match="bounded"):
            expr.evaluate(FallingPower(10 ** 9), 10 ** 9)


class TestDerivative:
    def test_falling_power(self):
        assert expr.derivative(FallingPower(4)) == make_product([Const(Fraction(4)), FallingPower(3)])

    def test_exp_base_three(self):
        assert expr.derivative(ExpBase(Fraction(3))) == make_product([Const(Fraction(2)), ExpBase(Fraction(3))])

    def test_constant(self):
        assert expr.derivative(Const(Fraction(7))) == expr.ZERO

    def test_trig_pair(self):
        assert expr.derivative(Trig("sin", 3)) == make_product([Const(Fraction(3)), Trig("cos", 3)])
        assert expr.derivative(Trig("cos", 3)) == make_product([Const(Fraction(-3)), Trig("sin", 3)])

    def test_plain_power_via_falling_basis(self):
        # x^2 = [x]^2 + [x], so Dx^2 = 2[x] + 1 = 2x - 1... checked by value
        d = expr.derivative(PlainPower(2))
        for x in range(-5, 10):
            assert expr.evaluate(d, x) == (x + 1) ** 2 - x ** 2

    def test_product_rule_matches_forward_difference(self):
        f = expr.parse("x*sin(1.x)")
        d = expr.derivative(f)
        for x in range(0, 15):
            assert expr.evaluate(d, x) == expr.evaluate(f, x + 1) - expr.evaluate(f, x)

    def test_no_chain_rule_conflation(self):
        # sin(2.x) is not sin evaluated at 2x
        inner = expr.evaluate(expr.parse("sin(1.x)"), 4)
        deformed = expr.evaluate(expr.parse("sin(2.x)"), 2)
        assert inner != deformed


class TestAntiderivative:
    def test_plain_square(self):
        F = expr.antiderivative(expr.parse("x^2"))
        # [x]^3/3 + [x]^2/2
        expected = make_sum([
            make_product([Const(Fraction(1, 2)), FallingPower(2)]),
            make_product([Const(Fraction(1, 3)), FallingPower(3)]),
        ])
        for x in range(12):
            assert expr.evaluate(F, x) == expr.evaluate(expected, x)

    def test_sin3(self):
        F = expr.antiderivative(Trig("sin", 3))
        assert expr.evaluate(F, 0) == 0
        assert expr.evaluate(F, 10) == -33237

    def test_exp(self):
        F = expr.antiderivative(expr.parse("exp(1.x)"))
        for x in range(10):
            assert expr.evaluate(F, x) == 2 ** x - 1
        assert expr.antiderivative(expr.parse("1^x")) == FallingPower(1)  # the constant 1, summed

    def test_log_has_no_closed_form(self):
        with pytest.raises(NoClosedFormError):
            expr.antiderivative(expr.parse("log(x)"))

    def test_normalized_at_zero(self):
        for text in ("x^2", "sin(2.x)", "cos(5.x)", "3^x", "[x]^4", "7"):
            assert expr.evaluate(expr.antiderivative(expr.parse(text)), 0) == 0


class TestDefiniteSum:
    def test_sin3_window(self):
        assert expr.definite_sum(expr.parse("sin(3.x)"), 0, 10) == -33237

    def test_abel_value(self):
        assert expr.definite_sum(expr.parse("x*sin(1.x)"), 0, 103) == -231935380809580545

    def test_count(self):
        assert expr.definite_sum(expr.parse("1"), 0, 17) == 17

    def test_random_windows_match_brute_force(self):
        rng = random.Random(7)
        basis = ["[x]^3", "sin(2.x)", "cos(1.x)", "3^x", "x^2", "5"]
        for _ in range(200):
            pieces = [f"{rng.randint(-4, 4)}*{rng.choice(basis)}" for _ in range(2)]
            text = pieces[0] + "".join(
                f" - {p[1:]}" if p.startswith("-") else f" + {p}" for p in pieces[1:]
            )
            tree = expr.parse(text)
            lo = rng.randint(-10, 10)
            hi = lo + rng.randint(0, 20)
            brute = sum(expr.evaluate(tree, k) for k in range(lo, hi))
            assert expr.definite_sum(tree, lo, hi) == brute

    def test_closed_form_cost_does_not_grow_with_the_window(self, monkeypatch):
        calls = []
        evaluate = expr.evaluate
        monkeypatch.setattr(expr, "evaluate", lambda node, x: calls.append(x) or evaluate(node, x))
        tree = expr.parse("3*x^2 - sin(2.x) + 2^x")
        counts = []
        for hi in (10, 10 ** 5):
            calls.clear()
            expr.definite_sum(tree, -3, hi)
            counts.append(len(calls))
        assert counts[0] == counts[1]
        assert expr.definite_sum(expr.parse("x^2"), 0, 10 ** 8 + 1) == 333333338333333350000000

    def test_term_by_term_window_is_bounded(self):
        tree, hi = expr.parse("log(x)"), 1 + expr.MAX_DIRECT_TERMS
        total = 0.0
        for k in range(1, hi):
            total += math.log2(k)
        assert expr.definite_sum(tree, 1, hi) == total
        with pytest.raises(DomainError, match="bounded"):
            expr.definite_sum(tree, 1, hi + 1)
        with pytest.raises(DomainError):
            expr.definite_sum(expr.parse("x*sin(1.x)"), -5, expr.MAX_DIRECT_TERMS)
        # 100 terms of about 2^20 bits each fit in MAX_DIRECT_BITS; sum_{k<n} k 2^k = (n - 2) 2^n + 2
        lo, hi = 10**6, 10**6 + 100
        assert expr.definite_sum(expr.parse("x*2^x"), lo, hi) == (hi - 2) * 2**hi - (lo - 2) * 2**lo

    def test_bit_budget_is_checked_before_any_term(self, monkeypatch):
        # about 1035 terms of 690k bits each: refused from the tree, with no power built
        calls = []
        monkeypatch.setattr(expr, "evaluate", lambda node, x: calls.append(x))
        with pytest.raises(DomainError, match="term bits"):
            expr.definite_sum(expr.parse("x^68312*x^0*sin(2.x)"), 50, 1085)
        assert calls == []


# strategy for parseable, canonically constructed trees
_atoms = st.one_of(
    st.integers(-20, 20).map(lambda n: Const(Fraction(n))),
    st.integers(0, 6).map(FallingPower),
    st.integers(1, 4).map(PlainPower),
    st.integers(2, 5).map(lambda c: ExpBase(Fraction(c))),
    st.tuples(st.sampled_from(["sin", "cos"]), st.integers(1, 5)).map(lambda t: Trig(*t)),
)
_products = st.one_of(
    _atoms,
    st.tuples(st.integers(-9, 9).filter(lambda n: n != 0), _atoms).map(
        lambda t: make_product([Const(Fraction(t[0])), t[1]])
    ),
    # a parenthesised sum as a factor, after a constant of either sign: -3*(x + [x]^2)*2^x
    st.tuples(st.integers(-9, 9).filter(lambda n: n != 0), st.lists(_atoms, min_size=2, max_size=3), _atoms).map(
        lambda t: make_product([Const(Fraction(t[0])), make_sum(t[1]), t[2]])
    ),
)
_trees = st.one_of(_products, st.lists(_products, min_size=1, max_size=4).map(make_sum))
# atoms of the term-by-term sums: rational constants and bases, both signs of the trig frequency, log
_bit_atoms = st.one_of(
    _atoms,
    st.tuples(st.integers(-20, 20), st.integers(1, 6)).map(lambda t: Const(Fraction(*t))),
    st.tuples(st.integers(-6, 9), st.integers(1, 7)).map(lambda t: ExpBase(Fraction(*t))),
    st.tuples(st.sampled_from(["sin", "cos"]), st.integers(-7, -1)).map(lambda t: Trig(*t)),
    st.integers(7, 40).map(PlainPower),
    st.just(Log()),
)


class TestRoundTrip:
    @given(_trees)
    def test_parse_print_identity(self, tree):
        assert expr.parse(expr.to_string(tree)) == tree

    @given(_trees)
    def test_derivative_antiderivative_inverse(self, tree):
        try:
            F = expr.antiderivative(tree)
        except NoClosedFormError:
            return
        dF = expr.derivative(F)
        for x in range(0, 21):
            assert expr.evaluate(dF, x) == expr.evaluate(tree, x)

    @given(st.lists(_atoms, min_size=2, max_size=4), st.integers(-30, 30))
    def test_product_rule_is_the_forward_difference_exactly(self, factors, x):
        # D(f g) = Df g + (f + Df) Dg on products of exact basis factors
        p = make_product(factors)
        assert expr.evaluate(expr.derivative(p), x) == expr.evaluate(p, x + 1) - expr.evaluate(p, x)

    @given(_trees, st.integers(-30, 30), st.integers(0, 30))
    def test_definite_sum_is_the_brute_force_sum(self, tree, lo, width):
        brute = sum(expr.evaluate(tree, k) for k in range(lo, lo + width))
        assert expr.definite_sum(tree, lo, lo + width) == brute

    @given(st.lists(st.lists(_bit_atoms, min_size=1, max_size=3).map(make_product), min_size=1, max_size=3)
           .map(make_sum), st.integers(-300, 300))
    def test_value_bits_bound_the_term(self, tree, x):
        # the bound definite_sum sums before building its terms: log2 of the numerator and denominator
        try:
            value = expr.evaluate(tree, x)
        except (DomainError, OverflowError):  # log(x) at x <= 0, a power past MAX_RESULT_BITS, a float overflow
            return
        bound = expr._value_bits(tree, x)
        if bound is None:
            assert isinstance(value, float)
        else:
            value = Fraction(value)
            assert value.numerator.bit_length() + value.denominator.bit_length() <= sum(bound) + 2

    def test_negative_exp_base_round_trip(self):
        node = ExpBase(Fraction(-2))
        assert expr.parse(expr.to_string(node)) == node

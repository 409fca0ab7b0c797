"""A small closed-form language over the deformed basis.

Basis nodes are the falling powers [x]^n, exponentials c^x, the deformed
trig pair sin(a.x)/cos(a.x), log, plus sums and products.  The dotted
argument in ``sin(3.x)`` marks the deformed frequency; ``sin(3*x)`` is
deliberately rejected because the two are different functions.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import DomainError, ParseError, full_str, normalized, record
from .numcore import exp_trig_exact, falling_power, log_discrete, reciprocal


class NoClosedFormError(DomainError):
    """Raised when no closed-form antiderivative exists in the basis."""


# largest n of plain_to_falling and plot --fn pow:N; x^1000 rewrites in about 0.3 s, growing faster than n^2
MAX_POWER = 1000

# most bits of an exact power (x^n, [x]^n, c^x, (1 + ia)^x) or product that evaluate returns; a power is
# refused from its bit-length bound before it is taken.  2^(2^20 - 1) prints its 315653 digits in about
# 1.8 s, and the time grows with the square of the length (int -> str is quadratic)
MAX_RESULT_BITS = 1 << 20

# longest window definite_sum adds term by term; x*sin(1.x) over 10^4 terms takes about 0.4 s,
# growing faster than the window because the terms are big rationals
MAX_DIRECT_TERMS = 10_000

# most bits (numerator plus denominator) of the exact terms definite_sum adds term by term.  x*3^x over
# [0, 10^4) needs 76 * 2^20 of them; x*2^x over 127 terms at 10^6 sums in 0.7 s.  Terms slow to build are
# bounded in size only: the worst window measured within it, x*sin(7.x) over [-10^4, -8700), takes 14 s
MAX_DIRECT_BITS = 128 * MAX_RESULT_BITS


# ---------------------------------------------------------------------------
# Tree nodes


@record
class Const:
    value: object  # Fraction (exact path) or float


@record
class FallingPower:
    n: int


@record
class PlainPower:
    n: int


@record
class ExpBase:
    c: Fraction


@record
class Trig:
    kind: str  # "sin" or "cos"
    a: int


@record
class Log:
    pass


@record
class Reciprocal:
    """Derivative of log; float-valued."""


@record
class Sum:
    terms: tuple


@record
class Product:
    factors: tuple


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def make_sum(terms) -> object:
    flat = []
    for t in terms:
        if isinstance(t, Sum):
            flat.extend(t.terms)
        elif isinstance(t, Const) and t.value == 0:
            continue
        else:
            flat.append(t)
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def make_product(factors) -> object:
    coeff = Fraction(1)
    rest = []
    for f in factors:
        if isinstance(f, Product):
            fs = f.factors
        else:
            fs = (f,)
        for g in fs:
            if isinstance(g, Const):
                coeff *= g.value
            else:
                rest.append(g)
    if coeff == 0:
        return ZERO
    if not rest:
        return Const(coeff)
    if coeff != 1:
        rest = [Const(coeff)] + rest
    if len(rest) == 1:
        return rest[0]
    return Product(tuple(rest))


def scale(c, node) -> object:
    return make_product([Const(Fraction(c)), node])


# ---------------------------------------------------------------------------
# Parser

_SYMBOLS = "+-*^()[]./"


def _tokenize(text: str):
    tokens = []  # (kind, value, position)
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            try:
                tokens.append(("number", int(text[i:j]), i))
            except ValueError as exc:  # past the int-to-str digit limit, or digits that are not decimal
                raise ParseError(f"unreadable number: {str(exc).partition(';')[0]}", i) from None
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        if ch in ".·":  # '·', the middle dot, reads as '.'
            tokens.append(("dot", ".", i))
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        if not text.strip():
            raise ParseError("empty expression", 0)
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, got {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self):
        negated = False
        if self.peek()[0] == "-":
            self.next()
            negated = True
        terms = [self.term()]
        if negated:
            terms[0] = scale(-1, terms[0])
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            t = self.term()
            terms.append(scale(-1, t) if op == "-" else t)
        return make_sum(terms)

    def term(self):
        factors = [self.factor()]
        while self.peek()[0] == "*":
            self.next()
            factors.append(self.factor())
        return make_product(factors)

    def number(self):
        tok = self.expect("number")
        value = Fraction(tok[1])
        if self.peek()[0] == "/" and self.tokens[self.pos + 1][0] == "number":
            self.next()
            den = self.next()[1]
            if den == 0:
                raise ParseError("zero denominator", tok[2])
            value = Fraction(tok[1], den)
        return value, tok[2]

    def factor(self):
        tok = self.peek()
        if tok[0] == "number":
            value, pos = self.number()
            if self.peek()[0] == "^":
                self.next()
                nxt = self.next()
                if nxt[0] == "ident" and nxt[1] == "x":
                    return ExpBase(value)
                if nxt[0] == "number":  # bounded like c^x at x = the exponent
                    return Const(Fraction(evaluate(ExpBase(value), nxt[1])))
                raise ParseError("expected exponent after '^'", nxt[2])
            return Const(value)
        atom = self.atom()
        if self.peek()[0] == "^":
            self.next()
            nxt = self.next()
            if nxt[0] != "number":
                raise ParseError("expected integer exponent", nxt[2])
            n = nxt[1]
            if isinstance(atom, FallingPower):
                return FallingPower(n)
            if isinstance(atom, PlainPower):
                return PlainPower(n) if n >= 1 else Const(Fraction(1))
            raise ParseError("'^' only applies to x, [x] or a number", nxt[2])
        return atom

    def atom(self):
        tok = self.next()
        if tok[0] == "(":
            node = self.expr()
            self.expect(")")
            return node
        if tok[0] == "[":
            nxt = self.next()
            if nxt[0] != "ident" or nxt[1] != "x":
                raise ParseError("expected 'x' inside brackets", nxt[2])
            self.expect("]")
            return FallingPower(1)
        if tok[0] == "ident":
            name = tok[1]
            if name == "x":
                return PlainPower(1)
            if name in ("sin", "cos", "exp"):
                self.expect("(")
                negative = False
                if self.peek()[0] == "-":
                    self.next()
                    negative = True
                num = self.next()
                if num[0] != "number":
                    raise ParseError(f"{name} needs a dotted argument like {name}(2.x)", num[2])
                dot = self.next()
                if dot[0] != "dot":
                    raise ParseError(f"{name}({num[1]}*x) is not {name}({num[1]}.x); use the dotted form", dot[2])
                var = self.next()
                if var[0] != "ident" or var[1] != "x":
                    raise ParseError("expected 'x' after the dot", var[2])
                self.expect(")")
                a = -num[1] if negative else num[1]
                if name == "exp":
                    return ExpBase(Fraction(1 + a))
                if a == 0:
                    raise ParseError("trig frequency must be nonzero", num[2])
                return Trig(name, a)
            if name == "log":
                self.expect("(")
                var = self.next()
                if var[0] != "ident" or var[1] != "x":
                    raise ParseError("log takes the bare variable x", var[2])
                self.expect(")")
                return Log()
            raise ParseError(f"unknown identifier {name!r}", tok[2])
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def parse(text: str):
    """Parse the surface grammar into an expression tree."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printing (inverse of parse for all parseable trees)


def _print_factor(node) -> str:
    if isinstance(node, Sum):
        return "(" + to_string(node) + ")"
    return to_string(node)


def to_string(node) -> str:
    if isinstance(node, Const):
        return full_str(node.value) if isinstance(node.value, Fraction) else repr(node.value)  # p/q, or p when q = 1
    if isinstance(node, FallingPower):
        return "[x]" if node.n == 1 else f"[x]^{node.n}"
    if isinstance(node, PlainPower):
        return "x" if node.n == 1 else f"x^{node.n}"
    if isinstance(node, ExpBase):
        c = node.c
        if c < 0 and c.denominator == 1:
            return f"exp({c.numerator - 1}.x)"  # negative base has no '^x' spelling
        return f"{full_str(c)}^x"
    if isinstance(node, Trig):
        return f"{node.kind}({node.a}.x)"
    if isinstance(node, Log):
        return "log(x)"
    if isinstance(node, Reciprocal):
        return "recip(x)"
    if isinstance(node, Product):
        factors = list(node.factors)
        if isinstance(factors[0], Const):
            c = factors[0].value
            if isinstance(c, Fraction) and c < 0:
                pos = make_product([Const(-c)] + factors[1:])
                return "-" + _print_factor(pos)
        return "*".join(_print_factor(f) for f in factors)
    if isinstance(node, Sum):
        parts = []
        for i, t in enumerate(node.terms):
            s = to_string(t)
            if i == 0:
                parts.append(s)
            elif s.startswith("-"):
                parts.append(" - " + s[1:])
            else:
                parts.append(" + " + s)
        return "".join(parts)
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Evaluation


def _bound_power(node, v: int, n: int) -> None:
    """DomainError unless v^n, at most n * ceil(log2 |v|) + 1 bits, fits in MAX_RESULT_BITS."""
    bits = n * max(abs(v) - 1, 0).bit_length() + 1
    if bits > MAX_RESULT_BITS:
        raise DomainError(f"{to_string(node)} may need {bits} bits at this x; exact results are bounded to {MAX_RESULT_BITS}")


def _log2(v: int) -> float:
    return math.log2(v) if v > 1 else 0.0


def _value_bits(node, x: int):
    """(N, D): upper bounds on log2 |numerator| and log2 denominator of evaluate(node, x), read from the
    tree without evaluating it, or None where the value is a float."""
    if isinstance(node, Const):
        v = node.value
        return (_log2(abs(v.numerator)), _log2(v.denominator)) if isinstance(v, Fraction) else None
    if isinstance(node, FallingPower):
        return (0.0, 0.0) if 0 <= x < node.n else (node.n * _log2(max(abs(x), abs(x - node.n + 1))), 0.0)
    if isinstance(node, PlainPower):
        return node.n * _log2(abs(x)), 0.0
    if isinstance(node, ExpBase):  # (p/q)^x = p^x / q^x, and q^-x / p^-x below 0
        p, q = _log2(abs(node.c.numerator)), _log2(node.c.denominator)
        return (x * p, x * q) if x >= 0 else (-x * q, -x * p)
    if isinstance(node, Trig):  # |(1 + ia)^x| = (1 + a^2)^(x/2), over (1 + a^2)^-x below 0
        half = abs(x) * _log2(1 + node.a * node.a) / 2
        if x >= 0:
            return half, 0.0
        # for an odd a, 1 + ia = (1 + i)((1 + a) + (a - 1) i)/2 and (1 - i)^2 = -2i: each part of (1 - ia)^-x
        # shares the factor 2^(-x // 2) with the denominator, which the reduced fraction drops
        common = -x // 2 if node.a % 2 else 0
        return half - common, 2 * half - common
    if isinstance(node, (Log, Reciprocal)):
        return None
    parts = [_value_bits(t, x) for t in (node.terms if isinstance(node, Sum) else node.factors)]
    if None in parts:
        return None
    den = sum(d for _, d in parts)
    if isinstance(node, Product):
        return sum(n for n, _ in parts), den
    # sum_i n_i / d_i = (sum_i n_i prod_{j != i} d_j) / prod_j d_j, k terms of at most the largest size
    return max(n + den - d for n, d in parts) + math.log2(len(parts)), den


def evaluate(node, x: int):
    """Exact evaluation at an integer point (floats only via log/recip).

    A power or product that could pass MAX_RESULT_BITS raises DomainError, a power before it is computed.
    """
    if isinstance(node, Const):
        return normalized(node.value)
    if isinstance(node, FallingPower):
        _bound_power(node, max(abs(x), abs(x - node.n + 1)), 0 if 0 <= x < node.n else node.n)
        return falling_power(x, node.n)
    if isinstance(node, PlainPower):
        _bound_power(node, x, node.n)
        return x ** node.n
    if isinstance(node, ExpBase):
        if node.c == 0 and x < 0:
            raise DomainError("0^x undefined for negative x")
        _bound_power(node, max(abs(node.c.numerator), node.c.denominator), abs(x))
        return normalized(node.c ** x)
    if isinstance(node, Trig):
        # |1 + ia|^2 = 1 + a^2 bounds each part of (1 + ia)^x and the denominator at x < 0
        _bound_power(node, 1 + node.a * node.a, abs(x))
        z = exp_trig_exact(node.a if x >= 0 else -node.a, abs(x))  # (1 + ia)^-n = (1 - ia)^n / (1 + a^2)^n
        part = z.im if node.kind == "sin" else z.re
        return part if x >= 0 else normalized(Fraction(part, (1 + node.a * node.a) ** -x))
    if isinstance(node, Log):
        return log_discrete(x)
    if isinstance(node, Reciprocal):
        return reciprocal(x)
    if isinstance(node, Sum):
        total = 0
        for t in node.terms:
            total = total + evaluate(t, x)
        return normalized(total)
    if isinstance(node, Product):
        total = 1
        for f in node.factors:
            total = total * evaluate(f, x)
        if isinstance(total, (int, Fraction)):  # bounded factors multiply fast, but their product may not print fast
            _bound_power(node, max(abs(total.numerator), total.denominator), 1)
        return normalized(total)
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Falling-power basis rewrite


def from_difference_table(coeffs):
    """Build sum_k coeffs[k] [x]^k / k! from a difference table."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        weight = Fraction(c) / math.factorial(k) if not isinstance(c, float) else c / math.factorial(k)
        if k == 0:
            terms.append(Const(weight))
        else:
            terms.append(make_product([Const(weight), FallingPower(k)]))
    return make_sum(terms)


def plain_to_falling(n: int):
    """x^n = sum_k S(n, k) [x]^k, e.g. x^2 = [x]^2 + [x], for n <= MAX_POWER."""
    if n > MAX_POWER:
        raise DomainError(f"x^{n}: the falling-basis rewrite is bounded to exponents <= {MAX_POWER}")
    row = [1]  # Stirling numbers S(m, k), k = 0..m, by S(m, k) = k S(m-1, k) + S(m-1, k-1)
    for _ in range(n):
        row = [k * s + t for k, (s, t) in enumerate(zip(row + [0], [0] + row))]
    return make_sum(make_product([Const(Fraction(s)), FallingPower(k)]) if k else Const(Fraction(s))
                    for k, s in enumerate(row) if s)


# ---------------------------------------------------------------------------
# Symbolic derivative


def derivative(node):
    """The forward-difference derivative, applied symbolically."""
    if isinstance(node, Const):
        return ZERO
    if isinstance(node, FallingPower):
        if node.n == 0:
            return ZERO
        if node.n == 1:
            return ONE
        return scale(node.n, FallingPower(node.n - 1))
    if isinstance(node, PlainPower):
        return derivative(plain_to_falling(node.n))
    if isinstance(node, ExpBase):
        return scale(node.c - 1, node)
    if isinstance(node, Trig):
        if node.kind == "sin":
            return scale(node.a, Trig("cos", node.a))
        return scale(-node.a, Trig("sin", node.a))
    if isinstance(node, Log):
        return Reciprocal()
    if isinstance(node, Sum):
        return make_sum([derivative(t) for t in node.terms])
    if isinstance(node, Product):
        f, g = node.factors[0], make_product(list(node.factors[1:]))
        df = derivative(f)
        # D(f g) = Df g + f(x+1) Dg, and f(x+1) = f + Df
        return make_sum([make_product([df, g]), make_product([make_sum([f, df]), derivative(g)])])
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Antiderivative (normalized so that F(0) = 0)


def antiderivative(node):
    """Closed-form F with DF = f and F(0) = 0, when the basis admits one."""
    if isinstance(node, Const):
        return make_product([node, FallingPower(1)])
    if isinstance(node, FallingPower):
        return scale(Fraction(1, node.n + 1), FallingPower(node.n + 1))
    if isinstance(node, PlainPower):
        return antiderivative(plain_to_falling(node.n))
    if isinstance(node, ExpBase):
        if node.c == 1:
            return FallingPower(1)
        w = Fraction(1) / (node.c - 1)
        return make_sum([scale(w, node), Const(-w)])
    if isinstance(node, Trig):
        a = Fraction(node.a)
        if node.kind == "sin":
            # S sin(a.x) = (1 - cos(a.x))/a
            return make_sum([Const(1 / a), scale(-1 / a, Trig("cos", node.a))])
        return scale(1 / a, Trig("sin", node.a))
    if isinstance(node, Sum):
        return make_sum([antiderivative(t) for t in node.terms])
    if isinstance(node, Product):
        consts = [f for f in node.factors if isinstance(f, Const)]
        rest = [f for f in node.factors if not isinstance(f, Const)]
        if len(rest) == 1:
            return make_product(consts + [antiderivative(rest[0])])
    raise NoClosedFormError(f"no closed-form antiderivative for {to_string(node)}")


def definite_sum(node, lo: int, hi: int):
    """sum_{k=lo}^{hi-1} f(k) = F(hi) - F(lo) for the closed-form antiderivative F.

    The closed form costs two evaluations whatever hi - lo is.  Only a tree
    with no closed form in the basis, such as log(x) or x*sin(1.x), is summed
    term by term, over at most MAX_DIRECT_TERMS terms of at most
    MAX_DIRECT_BITS exact bits in all, a bound checked from the tree before
    the first term is built.
    """
    if lo > hi:
        raise DomainError("definite_sum needs lo <= hi")
    if lo == hi:
        return 0
    try:
        anti = antiderivative(node)
    except NoClosedFormError as exc:
        if hi - lo > MAX_DIRECT_TERMS:
            raise DomainError(f"{exc}; a term-by-term sum is bounded to {MAX_DIRECT_TERMS} terms") from None
        # a reduced p/q has at most log2 |p| + log2 q + 2 bits; the bound is summed before any term is built
        bits = sum(n + d + 2 for n, d in filter(None, (_value_bits(node, k) for k in range(lo, hi))))
        if bits > MAX_DIRECT_BITS:
            raise DomainError(f"{to_string(node)}: a term-by-term sum is bounded to {MAX_DIRECT_BITS} term bits")
        total = 0  # a plain left-to-right loop: sum() compensates float sums on Python >= 3.12
        for k in range(lo, hi):
            total = total + evaluate(node, k)
        return normalized(total)
    return normalized(evaluate(anti, hi) - evaluate(anti, lo))

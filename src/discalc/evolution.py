"""Heat, Schroedinger and wave flows and the Poisson/Maxwell solve.

Every flow is the action of one matrix exponential on one vector, computed in
plain Python floats and complexes from the sparse rows of an ``OperatorMatrix``
by one Chebyshev series with Bessel coefficients, whose degree is known before
its first matvec (Tal-Ezer & Kosloff, J. Chem. Phys. 1984): heat e^(-tL_k) f,
Schroedinger e^(itD) f, and the wave u'' = -Lu as the J series of its first-order
system (u, u')' = [[0, 1], [-L, 0]] (u, u').  The coefficients come from Miller's
backward recurrence in + - * / and fsum: the same bits on every host.  The
Poisson solve L_1+ j takes two MINRES passes (Paige & Saunders); the residual of
the first is, up to rounding, the harmonic part of the current, which no solve
reaches.  Each public entry scales its input by a power of two once (``_unit``)
and decides there: a divergence, gauge residual or harmonic norm is rounding
when it is at most ``SOURCE_TOL`` times max |current|, so no decision depends on
the input's size.  The divergence of an exact current, of ints and Fractions, is
decided exactly.  Non-finite values are refused in one place, ``_ldexp``, which
every vector passes on the way in and on the way out: an infinite or nan entry,
given or made, and a result past the float range are each a DomainError.

One rule, ``_route``, sends a flow past ``DENSE_CROSSOVER`` in t ||A||_1 to a
dense eigendecomposition in ``discalc.spectral``, imported with numpy on that
route alone, and refuses a matrix of over ``MAX_DENSE_DIM`` rows before then.
It answers long times, such as heat at t = 1e15, and past the float range a nan.
"""

from __future__ import annotations

import cmath
import math

from . import DomainError
from .complexes import GraphComplex
from .forms import Form, OperatorMatrix, _gram, dirac, exterior_derivative, laplacian_block, total_dim

# exact sources on the size ladder and random clique complexes left at most 1.6e-15 of max |source|
SOURCE_TOL = 1e-10

# t ||A||_1 up to which the Taylor loop the series replaced cost less than one dense eigendecomposition, numpy
# import included, on every rung of the size ladder (hexpatch:2..12, complete:4..10, icosahedron, annulus, moebius;
# closest near 73 and 76); the series is cheaper (108 against 252 matvecs for D of icosahedron at 63): conservative
DENSE_CROSSOVER = 64
# Largest n whose n x n matrix the dense route decomposes; past it a flow past DENSE_CROSSOVER is refused
# before numpy is imported.  sym_eigen holds about six n x n float64 arrays at once: with one BLAS thread on a
# 2-core VM, pde schrodinger at t = 11 took 13.6 s and 635 MB on hexpatch:14 (n = 3613) and 19.0 s and 825 MB
# on hexpatch:15 (n = 4141), also under a 1.2 GB address-space limit.  hexpatch:24 (n = 10 513) would need
# two 0.9 GB arrays before eigh.
MAX_DENSE_DIM = 4096
UNIT_ROUNDOFF = 2.0 ** -53
# ||A r|| / (||A||_1 ||r||) below which a MINRES residual r counts as the part of b in ker A.  Once
# it is, Lanczos loses orthogonality and the iterates blow up.  Only the first pass of the Poisson solve
# on a current with a harmonic part reaches it: for L_1 of annulus:2..8, moebius and random clique
# complexes, with a harmonic part of 1e-11 to 1 times max |j|, the ratio bottomed out at 8e-9 or below
MINRES_KERNEL_RESIDUAL = 1e-7


# ---------------------------------------------------------------------------
# Vectors are lists of Python floats or complexes; sums run left to right in a loop, not through
# sum(), which compensates float sums on Python 3.12+ and would move the printed digits.


def _pairs(op: OperatorMatrix) -> list:
    """The rows of op as tuples of (column, entry) pairs, which iterate faster than the dicts."""
    return [tuple(row.items()) for row in op.rows]


def _matvec(pairs, v, coeff=1.0) -> list:
    """coeff * (M v) for the matrix M with the given rows of (column, entry) pairs."""
    out = []
    for row in pairs:
        acc = 0.0
        for j, a in row:
            acc += a * v[j]
        out.append(coeff * acc)
    return out


def _dot(u, v) -> float:
    acc = 0.0
    for a, b in zip(u, v):
        acc += a * b
    return acc


def _norm1(op: OperatorMatrix) -> int:
    """The largest row sum of |entries|: ||A||_1 for a symmetric A, and a bound on ||A||_2."""
    return max((sum(map(abs, row.values())) for row in op.rows), default=0)


def _max_abs(v) -> float:
    return max(map(abs, v), default=0.0)


def _unit(v: list) -> tuple:
    """(u, e) with v = u * 2^e and max |u| in [1/2, 1).  The power of two rounds nothing (bar
    subnormal entries), and no series or MINRES step on u can overflow, whatever the size of v."""
    e = math.frexp(_max_abs(v))[1]
    return _ldexp(v, -e), e


def _ldexp(v: list, e: int) -> list:
    """v * 2^e entrywise; DomainError when an entry, real or complex, is infinite or nan or leaves the
    float range.  Every flow and solve vector passes here on the way in (``_unit``) and on the way out."""
    try:
        out = [complex(math.ldexp(x.real, e), math.ldexp(x.imag, e)) if isinstance(x, complex)
               else math.ldexp(x, e) for x in v]
        if all(map(cmath.isfinite, out)):
            return out
    except OverflowError:
        pass
    raise DomainError("a value is infinite or nan, or leaves the float range")


def _route(cost: float, series, op: OperatorMatrix, *dense_args) -> list:
    """series() for a cost t ||A||_1 up to DENSE_CROSSOVER; past it, or nan, ``spectral.dense_exp_action(op,
    *dense_args)``, which loads numpy, and a DomainError before that when op has over MAX_DENSE_DIM rows."""
    if cost <= DENSE_CROSSOVER:
        return series()
    n = op.shape[0]
    if n > MAX_DENSE_DIM:
        raise DomainError(f"the flow is past DENSE_CROSSOVER, and its {n} x {n} matrix is past "
                          f"MAX_DENSE_DIM = {MAX_DENSE_DIM} for a dense eigendecomposition")
    from .spectral import dense_exp_action

    return dense_exp_action(op, *dense_args)


def _series(step, x: float, u: list, imaginary: bool) -> list:
    """e^(x(B - 1)) u, or e^(xB) u when imaginary, as sum c_k P_k u for step(v, a) = a B v and B with its
    spectrum in [-1, 1], or [-i, i]: P_0 = 1, P_1 = B and P_k+1 = 2B P_k -+ P_k-1, so T_k(B) or i^k T_k(-iB).
    c_k = (2 - [k = 0]) e^-x I_k(x), or (2 - [k = 0]) J_k(x), by Miller's backward recurrence from
    n = floor(x + 9 sqrt x) + 30, past where either falls below rounding, normalised by sum c_k = 1, or
    sum c_2k = 1 (Gautschi, SIAM Rev. 1967); the tail below the unit roundoff is dropped."""
    sign = 1.0 if imaginary else -1.0
    c = [1.0]
    if x > UNIT_ROUNDOFF:
        b = [0.0, 1.0]  # b_n+1, b_n, ..., b_0: I_k-1 = (2k / x) I_k + I_k+1 and J_k-1 = (2k / x) J_k - J_k+1
        for k in range(math.floor(x + 9 * math.sqrt(x)) + 30, 0, -1):
            b.append(2 * k / x * b[-1] - sign * b[-2])
            if abs(b[-1]) > 1e250:
                b = [y * 1e-250 for y in b]
        c = [b[-1]] + [2 * y for y in b[-2:0:-1]]
        norm = math.fsum(c[::2] if imaginary else c)
        tail = 0.0
        while tail + abs(c[-1]) <= UNIT_ROUNDOFF * abs(norm):
            tail += abs(c.pop())
        c = [y / norm for y in c]
    out, prev, p = [c[0] * y for y in u], None, u
    for ck in c[1:]:
        prev, p = p, step(p, 1.0) if prev is None else [y + sign * z for y, z in zip(step(p, 2.0), prev)]
        out = [y + ck * z for y, z in zip(out, p)]
    return out


def _minres(op: OperatorMatrix, b: list) -> list:
    """A+ b for the symmetric, possibly singular system A x = b, by two MINRES passes (Paige &
    Saunders, SIAM J. Numer. Anal. 1975); HarmonicComponentError when the part h of b in ker A,
    which no x reaches, is more than rounding.

    The residual r = b - A x_1 of the first pass is h plus that pass's rounding error, which lies in
    the range of A and so is orthogonal to h: ||r|| is ||h|| to second order in it.  x_1 also
    carries a part in ker A, so the second pass solves for A x_1, which is in the range of A; its
    iterates from x = 0 stay there and converge to A+ b.  b has max-norm below 1.
    """
    pairs, anorm = _pairs(op), _norm1(op)
    ax = _matvec(pairs, _minres_run(pairs, anorm, b))
    r = [a - c for a, c in zip(b, ax)]
    hnorm, peak = math.sqrt(_dot(r, r)), _max_abs(b)
    if hnorm > SOURCE_TOL * peak:
        raise HarmonicComponentError("current has a harmonic component", hnorm / peak)
    return _minres_run(pairs, anorm, ax)


def _minres_run(pairs, anorm: float, b: list) -> list:
    """The MINRES solution of A x = b from x = 0, for ||A||_2 <= anorm: the iterate whose residual
    estimate is rounding error, or whose residual is b's part in ker A."""
    n = len(b)
    x = [0.0] * n
    beta = phibar = math.sqrt(_dot(b, b))
    r1 = r2 = b
    w = w2 = [0.0] * n
    oldb, dbar, epsln, cs, sn = 0.0, 0.0, 0.0, -1.0, 0.0
    for itn in range(10 * n + 20):
        if not beta:  # the Krylov space is invariant: x is exact
            break
        v = [a / beta for a in r2]
        y = _matvec(pairs, v)
        if itn:
            k = beta / oldb
            y = [a - k * c for a, c in zip(y, r1)]
        alfa = _dot(v, y)
        k = alfa / beta
        y = [a - k * c for a, c in zip(y, r2)]
        r1, r2, oldb = r2, y, beta
        beta = math.sqrt(_dot(y, y))
        # apply the previous rotation, then make the one that zeroes beta
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        # ||A r|| / ||r|| for the residual r of x, which bounds the next gamma from below
        if math.sqrt(gbar * gbar + dbar * dbar) <= MINRES_KERNEL_RESIDUAL * anorm:
            break
        gamma = math.sqrt(gbar * gbar + beta * beta)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = [(a - oldeps * c - delta * d) / gamma for a, c, d in zip(v, w1, w2)]
        x = [a + phi * c for a, c in zip(x, w)]
        if phibar <= UNIT_ROUNDOFF * anorm * math.sqrt(_dot(x, x)):  # the residual estimate is rounding error
            break
    return x


# ---------------------------------------------------------------------------
# Flows and the Poisson/Maxwell solve


def _state(c: GraphComplex, v, kind) -> list:
    """v as a list of Python floats or complexes on the full form space, one entry per simplex."""
    if len(v) != total_dim(c):
        raise DomainError("state length must equal the total number of simplices")
    return [kind(x) for x in v]


def heat_flow(c: GraphComplex, k: int, f0: Form, t: float) -> Form:
    """e^(-L_k t) f0; degree-preserving."""
    if not t >= 0:
        raise DomainError("heat flow needs t >= 0")
    if f0.degree != k:
        raise DomainError("form degree mismatch")
    u, e = _unit([float(x) for x in f0.values])
    t, lap = float(t), laplacian_block(c, k)
    rho, pairs = _norm1(lap), _pairs(lap)

    def step(v, a):  # a B v for B = 1 - 2 L_k / rho
        return [a * y + z for y, z in zip(v, _matvec(pairs, v, -2 * a / rho))]

    return Form(c, k, _ldexp(_route(t * rho, lambda: _series(step, t * rho / 2, u, False), lap, -t, u), e))


def schrodinger_flow(c: GraphComplex, f0, t: float) -> list:
    """e^(itD) f0 on the full form space; unitary."""
    u, e = _unit(_state(c, f0, complex))
    t, d = float(t), dirac(c)
    rho, pairs = _norm1(d), _pairs(d)

    def step(v, a):  # a B v for B = i sgn(t) D / rho
        return _matvec(pairs, v, complex(0.0, math.copysign(a / rho, t)))

    return _ldexp(_route(abs(t) * rho, lambda: _series(step, abs(t) * rho, u, True), d, complex(0.0, t), u), e)


def wave_flow(c: GraphComplex, f0, g0, t: float) -> tuple:
    """(u, u_t) at time t for u'' = -Lu, u(0) = f0 and u_t(0) = g0: u = cos(Dt) f0 + sin(Dt) D^-1 g0
    and u_t = -D sin(Dt) f0 + cos(Dt) g0, where sin(wt)/w is t at w = 0, so the harmonic part of g0
    drifts as t times itself.  With no edges L = 0, and u = f0 + t g0 at any t."""
    n = total_dim(c)
    x, e = _unit(_state(c, f0, float) + _state(c, g0, float))  # f || g, then u || u_t
    t, d = float(t), dirac(c)
    lap = _gram(d)  # L = D^2 = D^T D, with D kept for the dense route
    sigma, pairs = math.sqrt(_norm1(lap)), _pairs(lap)
    if not sigma:  # no edges: L = 0, so u = f + t g and u_t = g
        return _ldexp([a + t * b for a, b in zip(x[:n], x[n:])], e), _ldexp(x[n:], e)

    def step(v, a):  # a B v for B = sgn(t) [[0, 1], [-L, 0]] / sigma on u || u_t, spectrum in [-i, i]
        a = math.copysign(a / sigma, t)
        return [a * y for y in v[n:]] + _matvec(pairs, v[:n], -a)

    x = _route(abs(t) * sigma, lambda: _series(step, abs(t) * sigma, x, True), d, t, x[:n], x[n:])
    return _ldexp(x[:n], e), _ldexp(x[n:], e)


class HarmonicComponentError(DomainError):
    """A current has a harmonic component no solve reaches; norm is its 2-norm over max |current|."""

    def __init__(self, message: str, norm: float):
        super().__init__(f"{message} (harmonic norm {norm:.3e} times the largest source entry)")
        self.norm = norm


def _check_kirchhoff(c: GraphComplex, v, tol):
    """DomainError unless every entry of d_0^T v is at most tol; each vertex adds the signed values
    of its edges, in edge order."""
    div = [0] * c.count(0)
    for row, x in zip(c.faces[1] if c.top_dim >= 1 else (), v):
        for i, sign in row.items():
            div[i] += sign * x
    if _max_abs(div) > tol:
        raise DomainError("Kirchhoff violated: current has nonzero divergence")


def poisson_maxwell(c: GraphComplex, j: Form):
    """Solve L A = j for a divergence-free current, return (A, F = dA).

    Rejects a divergence (Kirchhoff, d0* j = 0) or a harmonic component
    beyond rounding; an exact current, of ints and Fractions, must have no
    divergence at all, decided in Python ints once every value is scaled by
    the lcm of the denominators.  The Coulomb gauge d0* A = L_0+ d0* j is the
    same check after the solve: L_0+ can amplify a divergence the first one
    lets through.  On a complex with tetrahedra, asserts dF = 0.
    """
    import numbers

    if j.degree != 1:
        raise DomainError("current must be a 1-form")
    ju, e = _unit([float(x) for x in j.values])
    tol = SOURCE_TOL * _max_abs(ju)
    if all(isinstance(x, numbers.Rational) for x in j.values):
        scale = math.lcm(*(x.denominator for x in j.values))
        _check_kirchhoff(c, [x.numerator * (scale // x.denominator) for x in j.values], 0)
    else:
        _check_kirchhoff(c, ju, tol)
    av = _minres(laplacian_block(c, 1), ju)
    _check_kirchhoff(c, av, tol)
    fv = _matvec(_pairs(exterior_derivative(c, 1)), av)
    # d2 d1 = 0 exactly on the integer rows: dF is the rounding of F = dA
    if _max_abs(_matvec(_pairs(exterior_derivative(c, 2)), fv)) > SOURCE_TOL * _max_abs(av):
        raise ArithmeticError("dF != 0 beyond tolerance")
    return Form(c, 1, _ldexp(av, e)), Form(c, 2, _ldexp(fv, e))

"""Heat, Schroedinger and wave flows and the Poisson/Maxwell solve.

Every flow is the action of one matrix exponential on one vector, computed in
plain Python floats and complexes from the sparse rows of an
``OperatorMatrix`` by one truncated Taylor loop with scaling steps and an early
stop (Al-Mohy & Higham, "Computing the action of the matrix exponential",
SIAM J. Sci. Comput. 2011): heat e^(-tL_k) f, Schroedinger e^(itD) f, and the
wave u'' = -Lu as the first-order system (u, w)' = [[0, s], [-L/s, 0]] (u, w),
with w = u'/s and s = sqrt(||L||_1).  The Poisson solve L_1+ j takes two MINRES
passes (Paige & Saunders); the residual of the first is, up to rounding, the
harmonic part of the current, the part no solve reaches.  Each public entry
scales its input by a power of two once (``_unit``) and decides there: a
divergence, gauge residual or harmonic norm is rounding when it is at most
``SOURCE_TOL`` times max |current|, so no decision depends on the input's size.
The divergence of an exact current, of ints and Fractions, is decided exactly.
Non-finite values are refused in one place, ``_ldexp``, which every vector
passes on the way in and on the way out: an infinite or nan entry, given or
made, and a result past the float range are each a DomainError.

The Taylor cost grows with t ||A||_1.  Past ``DENSE_CROSSOVER`` the action is
taken from one dense eigendecomposition instead, in ``discalc.spectral``; only
that route imports it, and numpy with it.  It also answers very long times,
such as heat at t = 1e15; a t * eigenvalue past the float range makes a nan.
A matrix of more than ``MAX_DENSE_DIM`` rows is refused before that import.
"""

from __future__ import annotations

import cmath
import math

from . import DomainError
from .complexes import GraphComplex
from .forms import Form, OperatorMatrix, _gram, dirac, exterior_derivative, laplacian_block, total_dim

# exact sources on the size ladder and random clique complexes left at most 1.6e-15 of max |source|
SOURCE_TOL = 1e-10

# t ||A||_1 up to which the Taylor action costs less than one dense eigendecomposition, numpy import
# included, on every rung of the size ladder (hexpatch:2..12, complete:4..10, icosahedron, annulus,
# moebius); the closest rungs cross near 73 (D of complete:10) and 76 (D of hexpatch:6)
DENSE_CROSSOVER = 64
# Largest n whose n x n matrix the dense route decomposes; past it a flow past DENSE_CROSSOVER is refused
# before numpy is imported.  sym_eigen holds about six n x n float64 arrays at once: with one BLAS thread on a
# 2-core VM, pde schrodinger at t = 11 took 13.6 s and 635 MB on hexpatch:14 (n = 3613) and 19.0 s and 825 MB
# on hexpatch:15 (n = 4141), also under a 1.2 GB address-space limit.  hexpatch:24 (n = 10 513) would need
# two 0.9 GB arrays before eigh.
MAX_DENSE_DIM = 4096
# theta_m of Al-Mohy & Higham (2011), Table 3.1, for double precision: m Taylor terms of
# e^(alpha A / s) meet the unit roundoff as a backward error once ||alpha A||_1 / s <= theta_m
TAYLOR_THETA = {5: 2.4e-3, 10: 1.4e-1, 15: 6.4e-1, 20: 1.4, 25: 2.4, 30: 3.5, 35: 4.7, 40: 6.0,
                45: 7.2, 50: 8.5, 55: 9.9}
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
    subnormal entries), and no Taylor or MINRES step on u can overflow, whatever the size of v."""
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


def _exp_action(op: OperatorMatrix, alpha, u: list) -> list:
    """e^(alpha A) u for the symmetric operator A, a real or complex alpha and a vector u of
    moderate size, such as one scaled by _unit."""
    cost = abs(alpha) * _norm1(op)
    if cost <= DENSE_CROSSOVER:
        pairs = _pairs(op)
        return _taylor_action(lambda b, k: _matvec(pairs, b, alpha / k), cost, u)
    _check_dense(op.shape[0])
    from .spectral import dense_exp_action

    return dense_exp_action(op, alpha, u)  # also a cost past the float range, or nan


def _check_dense(n: int):
    """DomainError when the dense route would decompose an n x n matrix with n past MAX_DENSE_DIM."""
    if n > MAX_DENSE_DIM:
        raise DomainError(f"the flow is past DENSE_CROSSOVER, and its {n} x {n} matrix is past "
                          f"MAX_DENSE_DIM = {MAX_DENSE_DIM} for a dense eigendecomposition")


def _taylor_action(step, cost: float, u: list) -> list:
    """e^A u as s steps of the degree-m Taylor polynomial of e^(A / s), stopping a step early once
    two terms in a row are below the unit roundoff; step(b, k) is A b / k, cost = ||A||_1, and
    (m, s) has the fewest products m s with cost / s <= theta_m (Al-Mohy & Higham, Algorithm 3.2)."""
    m, s = min(((m, math.ceil(cost / theta)) for m, theta in TAYLOR_THETA.items()), key=lambda p: p[0] * p[1])
    for _ in range(s):
        f = b = u
        c1 = _max_abs(b)
        for j in range(1, m + 1):
            b = step(b, s * j)
            c2 = _max_abs(b)
            f = [x + y for x, y in zip(f, b)]
            if c1 + c2 <= UNIT_ROUNDOFF * _max_abs(f):
                break
            c1 = c2
        u = f
    return u


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
    return Form(c, k, _ldexp(_exp_action(laplacian_block(c, k), -float(t), u), e))


def schrodinger_flow(c: GraphComplex, f0, t: float) -> list:
    """e^(itD) f0 on the full form space; unitary."""
    u, e = _unit(_state(c, f0, complex))
    return _ldexp(_exp_action(dirac(c), complex(0.0, t), u), e)


def wave_flow(c: GraphComplex, f0, g0, t: float) -> tuple:
    """(u, u_t) at time t for u'' = -Lu, u(0) = f0 and u_t(0) = g0: u = cos(Dt) f0 + sin(Dt) D^-1 g0
    and u_t = -D sin(Dt) f0 + cos(Dt) g0, where sin(wt)/w is t at w = 0, so the harmonic part of g0
    drifts as t times itself.  With no edges L = 0, and u = f0 + t g0 at any t."""
    n = total_dim(c)
    x, e = _unit(_state(c, f0, float) + _state(c, g0, float))  # f || g, then u || u_t
    d = dirac(c)
    lap = _gram(d)  # L = D^2 = D^T D, with D kept for the dense route
    sigma = math.sqrt(_norm1(lap))  # balances u and w
    if not sigma:  # no edges: L = 0, so u = f + t g and u_t = g
        return _ldexp([a + t * b for a, b in zip(x[:n], x[n:])], e), _ldexp(x[n:], e)
    cost = abs(t) * sigma
    if cost <= DENSE_CROSSOVER:
        pairs = _pairs(lap)

        def step(b, k):  # t A b / k for A = [[0, sigma], [-L / sigma, 0]] on the list u || w, w = u_t / sigma
            coeff = t / k
            return [sigma * coeff * y for y in b[n:]] + _matvec(pairs, b[:n], -(coeff / sigma))

        x = _taylor_action(step, cost, x[:n] + [b / sigma for b in x[n:]])
        x[n:] = [sigma * b for b in x[n:]]
    else:  # also a t past the float range, or nan
        _check_dense(n)
        from .spectral import dense_exp_action

        x = dense_exp_action(d, t, x[:n], x[n:])
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

import random
from fractions import Fraction

from discalc import complexes as cx
from discalc.numcore import exp_trig_exact


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> cx.Graph:
    edges = {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    }
    return cx.Graph(n, frozenset(edges))


def random_connected_graph(rng: random.Random, n: int, p: float = 0.5) -> cx.Graph:
    # a random spanning tree plus random extra edges
    edges = set()
    for v in range(1, n):
        edges.add(tuple(sorted((v, rng.randrange(v)))))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((i, j))
    return cx.Graph(n, frozenset(edges))


def exp_trig_rational(a: int, x: int) -> tuple:
    """(re, im) of (1 + ia)^x for any integer x, as exact Fractions."""
    if x >= 0:
        z = exp_trig_exact(a, x)
        return Fraction(z.re), Fraction(z.im)
    z = exp_trig_exact(-a, -x)  # (1 + ia)^-n = (1 - ia)^n / (1 + a^2)^n
    n = (1 + a * a) ** -x
    return Fraction(z.re, n), Fraction(z.im, n)

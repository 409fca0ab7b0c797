"""SVG comparison plots of the deformed functions against their classical counterparts.

Plain Python, no dependency: ``curves`` picks the pair of functions by name,
``svg`` samples both on a grid of ``STEPS`` intervals, scales them into one
viewport and returns the document's text.
"""

from __future__ import annotations

import math

from . import DomainError
from .numcore import exp_h, exp_h_complex, log_discrete, sin_h

WIDTH, HEIGHT = 800, 500
MARGIN = 40
STEPS = 400


def curves(fn: str, a: float, h: float):
    """(discrete, classical) callables of x for 'sin', 'cos', 'exp', 'log' and 'pow:N', None for any other name.

    A malformed N is a ValueError, an N outside 0..expr.MAX_POWER a DomainError."""
    if fn == "sin":
        return (lambda x: sin_h(a, h, x), lambda x: math.sin(a * x))
    if fn == "cos":
        return (lambda x: exp_h_complex(a, h, x).real, lambda x: math.cos(a * x))
    if fn == "exp":
        return (lambda x: exp_h(a, h, x), lambda x: math.exp(a * x))
    if fn == "log":
        return (lambda x: log_discrete(x), lambda x: math.log(x))
    if fn.startswith("pow:"):
        from .expr import MAX_POWER

        n = int(fn.split(":", 1)[1])
        if not 0 <= n <= MAX_POWER:
            raise DomainError(f"pow:N needs 0 <= N <= {MAX_POWER}")
        return (lambda x: math.prod((x - j * h for j in range(n)), start=1.0), lambda x: x ** n)
    return None


def _polyline(points, color):
    coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in points)
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'


def svg(discrete, classical, lo: float, hi: float, positive: bool = False) -> str:
    """Both functions on STEPS + 1 points from lo to hi (only x > 0 if ``positive``), as one SVG document.

    (hi - lo) * STEPS must be finite and positive, so that every sample point is."""
    xs = [lo + (hi - lo) * i / STEPS for i in range(STEPS + 1)]
    if positive:
        xs = [x for x in xs if x > 0]
        if not xs:
            raise DomainError("log needs a positive range")
    series = [[(x, discrete(x)) for x in xs], [(x, classical(x)) for x in xs]]
    ys = [y for points in series for _, y in points]
    ymin, ymax = min(ys), max(ys)
    if not (all(map(math.isfinite, ys)) and math.isfinite(ymax - ymin)):
        raise DomainError("the plotted values leave the float range")
    if ymax == ymin:
        ymax = ymin + 1.0

    def to_px(x, y):
        px = MARGIN + (x - lo) / (hi - lo) * (WIDTH - 2 * MARGIN)
        py = HEIGHT - MARGIN - (y - ymin) / (ymax - ymin) * (HEIGHT - 2 * MARGIN)
        return px, py

    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" stroke="black"/>',
        _polyline([to_px(x, y) for x, y in series[0]], "steelblue"),
        _polyline([to_px(x, y) for x, y in series[1]], "firebrick"),
        "</svg>",
    ]
    return "\n".join(body) + "\n"

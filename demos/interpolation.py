"""
Newton-Gregory interpolation and sequence continuation
======================================================

A difference table turns samples into a closed-form polynomial in the
falling-power basis.  The discrete Taylor formula reproduces every sample
exactly and extrapolates the underlying rule.
"""

import math

from discalc import expr, interpolate as ip
from discalc.numcore import Sequence

# Continue the sequence 2, 10, 30, 68 (sampled at x = 1..4)
samples = Sequence(0, (2, 10, 30, 68))
table = ip.forward_differences(samples)
print("difference table:", table.coeffs)
print("continuation to x = 11, 12:",
      ip.newton_gregory_eval(table, 10), ip.newton_gregory_eval(table, 11))

# The closed form itself, in the expression language
fit = ip.interpolate_fit(table)
print("closed form:", expr.to_string(fit))

# The exponential 2^x has the all-ones difference table, so its Taylor
# series is the row sum of binomials: sum_k C(x, k) = 2^x
exp_table = ip.forward_differences(Sequence(0, tuple(2 ** k for k in range(6))))
print("\n2^x difference table:", exp_table.coeffs)
print("row sum at x = 4:", ip.newton_gregory_eval(exp_table, 4))

# Float samples work too: eleven points of cos(x^2/2) pin down a degree-10
# interpolant that reproduces the data to machine precision
wave = tuple(math.cos(x * x / 2) for x in range(11))
wave_table = ip.forward_differences(Sequence(0, wave))
worst = max(abs(ip.newton_gregory_eval(wave_table, x) - wave[x]) for x in range(11))
print("\ncos(x^2/2) reproduction error over 11 samples:", worst)

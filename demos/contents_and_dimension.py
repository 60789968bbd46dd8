"""Tube volumes, generalized contents and dimension recovery.

Walks through the three string families: a string with inverse-square
length decay (measurable), the middle-thirds lattice string (bounded
oscillation), and a profile built from a log-corrected gauge.
"""

import math

import numpy as np

from fractal_strings import (ScaleGrid, cantor_grid, content_estimates,
                             dimension_estimate, make_a_string, make_cantor,
                             make_derived, make_profile, power_log)

# --- measurable case: l_j = 1/(j(j+1)), gauge sqrt(y) ---------------------

s = make_a_string(1.0)
g = power_log(0.5)
grid = ScaleGrid.geometric(2.0 ** -10, 0.5, 31)

m, se = content_estimates(s, g, grid)
print("inverse-square string, h(y) = sqrt(y)")
print("  Minkowski content: [%.6f, %.6f]  verdict=%s" % (m.lower, m.upper, m.verdict))
print("  S content:         [%.6f, %.6f]  verdict=%s" % (se.lower, se.upper, se.verdict))
print("  closed-form limit 2^(3/2) = %.6f" % 2.0 ** 1.5)

# --- lattice case: oscillation, no limit ----------------------------------

D = math.log(2) / math.log(3)
c = make_cantor()
mc, _ = content_estimates(c, power_log(1.0 - D), cantor_grid())
print("\nmiddle-thirds string, h(y) = y^(1-D), D = log2/log3")
print("  sampled band [%.4f, %.4f], spread %.4f -> %s"
      % (mc.lower, mc.upper, mc.upper / mc.lower, mc.verdict))
u = (1.0 - D) / D
print("  true oscillation band [%.4f, %.4f]"
      % (2 ** (1 - D) * (1 + u) * u ** (D - 1), 2 ** (2 - D)))

# --- log-corrected gauge --------------------------------------------------

gauge = power_log(0.5, [1.0])
derived = make_derived(gauge, 0.5)
p = make_profile(1.0, derived)
deep = ScaleGrid(scales=2.0 ** -np.arange(50, 81, dtype=float))
mp, _ = content_estimates(p, gauge, deep)
print("\nprofile string for h(y) = sqrt(y) ln(1/y)")
print("  content midpoint %.4f (limit %.4f, 1/log corrections decay slowly)"
      % (mp.midpoint, 2.0 ** 1.5))

# --- dimension from the tube-volume slope ---------------------------------

print("\nlog-log dimension estimates")
print("  inverse-square string: %.4f (exact 0.5)"
      % dimension_estimate(s, ScaleGrid.geometric(0.01, 0.5, 15)))
print("  middle-thirds string:  %.4f (exact %.4f)"
      % (dimension_estimate(c, ScaleGrid.geometric(0.01, 0.6, 25)), D))

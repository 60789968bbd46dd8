"""Dirichlet eigenvalue counting and the packing-defect identity.

For a disjoint union of intervals, phi(lambda) - N(lambda) equals the sum
of fractional parts sum_j {l_j x} at x = sqrt(lambda)/pi, exactly.  The
demo checks the identity and then follows the normalized remainder toward
its zeta-side limit.
"""

import math

import numpy as np

from fractal_strings import (ZetaContext, eigen_count, make_a_string,
                             make_derived, packing_defect, power_log,
                             second_term_probe, weyl_term)

s = make_a_string(1.0)

print("exact remainder identity, l_j = 1/(j(j+1)):")
for lam in (1e3, 1e5, 31337.5):
    x = math.sqrt(lam) / math.pi
    phi = weyl_term(s, lam)
    n = eigen_count(s, lam)
    delta = packing_defect(s, x)
    print("  lambda=%10.1f  N=%7d  phi-N=%10.6f  delta=%10.6f  diff=%.2e"
          % (lam, n, phi - n, delta, abs(phi - n - delta)))

ctx = ZetaContext(D=0.5, L=1.0)
print("\nsecond-term constants for D=1/2, L=1:")
print("  -zeta(1/2)        = %.10f  (delta(x)/f(x) limit)" % ctx.target_delta_ratio)
print("  pi^-D * -zeta(D)  = %.10f  ((phi-N)/f(sqrt(lambda)) limit)" % ctx.target_remainder)

derived = make_derived(power_log(0.5), 0.5)
records = second_term_probe(s, derived, np.geomspace(1e4, 1e10, 13))
print("\n  lambda        delta(x)/f(x)   (phi-N)/f(sqrt(lambda))")
for r in records:
    print("  %.3e   %.6f        %.6f" % (r.lam, r.delta_ratio, r.remainder_ratio))
print("(the remainder column oscillates around its limit; the defect "
      "column converges)")

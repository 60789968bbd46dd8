"""Workload inputs.

``build`` is the set-up.  This module imports only the standard library,
and nothing from the program until ``build`` runs, so ``setup_probe.py``
can time a fresh interpreter's whole import and build.  The seed draws the
lambda set and the order of the operations; the program receives only the
generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VERIFY_LOG = ("profile_log_D0.3", "profile_log_D0.5", "profile_log_D0.7")
VERIFY_POWER = ("a_string_0.5", "a_string_1", "a_string_2", "cantor",
                "profile_power_D0.3", "profile_power_D0.5", "profile_power_D0.7")
WORKLOADS = ("verify-log", "verify-power", "spectrum-sweep")

# spectrum-sweep: (string, number of seeded lambdas, log10 range).  One
# lambda is drawn log-uniformly inside each of the equal-width strata of the
# range, so every seed spreads its lambdas over the whole range.  The top of
# each range is evaluated too, unseeded: it holds the longest head, so a
# round's cost and the peak memory do not depend on the seed.
EXPLICIT_N = 10 ** 5
SWEEP = (
    # Cantor counts reach 3e11 at 1e24, far below 2^53; above 1e24 the
    # float floor of l_j x disagrees with the exact count for some seeds.
    ("cantor", 24, (2.0, 24.0)),
    # l_j = 1/(j(j+1)) for j <= 10^5; the whole string is in the head from
    # lambda = (pi/l_min)^2 = 9.9e20 up.
    ("explicit", 16, (10.0, 22.0)),
    # l_j = j^-2: heads of sqrt(x) lengths, up to 5.6e5 at 1e24
    ("profile", 16, (4.0, 24.0)),
)
# The Cantor count fault: fl(3.0^-1 x) rounds up to an integer here, so
# eigen_count returns one more than the exact floor sum.  Fixed, not seeded.
CANTOR_FAULT_LAMBDA = 2.6210350237577547e25
PROFILE_D = 0.5


@dataclass
class Inputs:
    ops: list        # the round's operations, in the seeded order
    objects: dict    # the program's strings, gauges and derived functions


def _stratified_lambdas(rng: random.Random, count: int, lo: float, hi: float):
    width = (hi - lo) / count
    return [10.0 ** (lo + width * (k + rng.random())) for k in range(count)]


def build(workload: str, seed: int) -> Inputs:
    """Import the program and build the workload's strings, gauges and
    derived functions.  This is what ``setup_s`` times."""
    from fractal_strings import gauge, harness, strings

    rng = random.Random(seed)
    if workload in ("verify-log", "verify-power"):
        names = list(VERIFY_LOG if workload == "verify-log" else VERIFY_POWER)
        rng.shuffle(names)
        examples = harness.bundled_examples()
        objects = {}
        for name in names:
            cfg = examples[name]
            g = gauge.gauge_from_json(cfg.gauge_spec)
            objects[name] = (g, gauge.make_derived(g, cfg.D),
                             strings.string_from_json(cfg.string_spec))
        return Inputs(names, objects)
    if workload != "spectrum-sweep":
        raise ValueError("unknown workload %r" % workload)
    profile_gauge = gauge.power_log(1.0 - PROFILE_D)
    objects = {
        "cantor": strings.make_cantor(),
        "explicit": strings.make_a_string(1.0).truncate(EXPLICIT_N),
        "profile": strings.make_profile(
            1.0, gauge.make_derived(profile_gauge, PROFILE_D)),
    }
    ops = [(name, lam) for name, count, (lo, hi) in SWEEP
           for lam in _stratified_lambdas(rng, count, lo, hi) + [10.0 ** hi]]
    ops.append(("cantor", CANTOR_FAULT_LAMBDA))
    rng.shuffle(ops)
    return Inputs(ops, objects)

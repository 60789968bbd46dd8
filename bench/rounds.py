"""Rounds of the timed loop and the checks of their outputs."""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import oracles
from inputs import CANTOR_FAULT_LAMBDA, PROFILE_D, Inputs

# lengths per block of the exact-count check
EXACT_CHUNK = 1 << 16


@dataclass
class Tally:
    """Operations attempted, operations that failed, and outputs of the
    other operations that a check rejected (message -> occurrences)."""

    attempted: int = 0
    failures: dict = field(default_factory=dict)
    wrong: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, message: str) -> None:
        self.failures[message] = self.failures.get(message, 0) + 1

    def reject(self, message: str) -> None:
        self.wrong[message] = self.wrong.get(message, 0) + 1


class VerifyRunner:
    """One round calls ``fstring verify <name> --example --out <file>`` once
    per example, in process through ``fractal_strings.cli.main``."""

    def __init__(self, inputs: Inputs, out_path: str):
        self.inputs = inputs
        self.out_path = out_path
        self.oracles = {}

    def round(self, tally: Tally) -> dict:
        from fractal_strings import cli

        times = {}
        for name in self.inputs.ops:
            tally.attempted += 1
            argv = ["verify", name, "--example", "--out", self.out_path]
            if os.path.exists(self.out_path):
                os.remove(self.out_path)
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an operation that fails is counted
                code = repr(exc)
            times[name] = time.perf_counter() - t0
            if code != 0:
                tally.fail("%s: fstring verify failed: %s" % (name, code))
                continue
            with open(self.out_path) as fh:
                payload = json.load(fh)
            if name not in self.oracles:
                self.oracles[name] = oracles.VerifyOracle(name, payload["config"])
            for check in self.oracles[name].checks(payload):
                if not check.ok:
                    tally.reject("%s: %s" % (name, check.describe()))
        return times


class SweepRunner:
    """One round evaluates eigen_count, weyl_term and packing_defect once
    per (string, lambda) pair."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.exact = self._exact_counts()

    def _exact_counts(self) -> dict:
        cantor_blocks = [(3.0 ** -n, 2 ** (n - 1)) for n in range(1, 97)]
        exact = {}
        for name, lam in self.inputs.ops:
            x = math.sqrt(lam) / math.pi
            if name == "cantor":
                exact[name, lam] = oracles.exact_count_blocks(cantor_blocks, x)
            else:
                exact[name, lam] = sum(oracles.exact_count_lengths(chunk, x)
                                       for chunk in self._length_chunks(name, x))
        return exact

    def _length_chunks(self, name: str, x: float):
        """The lengths of ``name`` that can have floor(l_j x) > 0, at most
        EXACT_CHUNK at a time, so the check's arrays stay far smaller than
        the program's heads and do not set the peak memory."""
        if name == "explicit":
            lengths = self.inputs.objects["explicit"].runs_above(0.0)[0]
            for lo in range(0, len(lengths), EXACT_CHUNK):
                yield np.array(lengths[lo:lo + EXACT_CHUNK], dtype=float)
            return
        # profile lengths l_j = (1/j)^(1/D) up to the first below half of
        # 1/x, so every length left out has floor(l_j x) = 0
        j_max = int(math.ceil((2.0 * x) ** PROFILE_D)) + 2
        for lo in range(1, j_max + 1, EXACT_CHUNK):
            j = np.arange(lo, min(lo + EXACT_CHUNK, j_max + 1), dtype=float)
            yield (1.0 / j) ** (1.0 / PROFILE_D)

    def round(self, tally: Tally) -> dict:
        from fractal_strings import spectral

        busy = 0.0
        for name, lam in self.inputs.ops:
            string = self.inputs.objects[name]
            tally.attempted += 1
            x = math.sqrt(lam) / math.pi
            t0 = time.perf_counter()
            try:
                count = spectral.eigen_count(string, lam)
                weyl = spectral.weyl_term(string, lam)
                delta = spectral.packing_defect(string, x)
            except Exception as exc:  # an operation that fails is counted
                busy += time.perf_counter() - t0
                tally.fail("%s at lambda=%r raised %r" % (name, lam, exc))
                continue
            busy += time.perf_counter() - t0
            identity, exact_count = oracles.spectral_checks(
                count, weyl, delta, self.exact[name, lam])
            if not identity.ok:
                tally.reject("%s at lambda=%r: %s" % (name, lam, identity.describe()))
            if not exact_count.ok:
                message = "%s at lambda=%r: %s" % (name, lam, exact_count.describe())
                if name == "cantor" and lam == CANTOR_FAULT_LAMBDA:
                    # the float floor fault in eigen_count: a failed operation
                    tally.fail(message)
                else:
                    tally.reject(message)
        return {"busy_s": busy}

"""Spans and counts around the program's public names, recorded from outside.

The program's modules import each other's names with ``from .x import y``,
so a name is wrapped where the calling module looks it up: a class
attribute for methods, and every module namespace that holds a function.
Spans live in memory and are written out once, at the end of a run.  A
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# Bytes the spectral floor/fraction kernel reads per head element: one
# float64 length and one float64 multiplicity.  Computed, not measured.
HEAD_BYTES_PER_ELEMENT = 16


def _h_inv_counts(args, kwargs, result):
    z = args[1]
    return {"elements": int(np.size(z)), "scalar_calls": int(np.size(z) == 1)}


def _runs_above_counts(args, kwargs, result):
    return {"elements": int(np.size(result[0]))}


def targets():
    """(owner, attribute, span name, counter) for every wrapped name."""
    from fractal_strings import (cli, gauge, geometry, harness, spectral,
                                 strings)

    out = [
        (gauge.DerivedFunctions, "H_inv", "gauge.H_inv", _h_inv_counts),
        (gauge.GaugeFunction, "h", "gauge.h", None),
        (spectral, "zeta", "spectral.zeta", None),
        (geometry, "tube_volume", "geometry.tube_volume", None),
        (cli, "main", "cli.main", None),
        (cli, "run_verify", "harness.run_verify", None),
        (strings.FractalString, "truncate", "strings.build", None),
        (strings.ExplicitString, "truncate", "strings.build", None),
        (strings.RunLengthString, "truncate", "strings.build", None),
    ]
    for cls in (strings.ExplicitString, strings.RunLengthString,
                strings.AnalyticString):
        out.append((cls, "J", "strings.J", None))
        out.append((cls, "tail_sum_beyond", "strings.tail_sum_beyond", None))
        out.append((cls, "runs_above", "strings.runs_above", _runs_above_counts))
    for mod in (gauge, strings, harness, cli):
        out.append((mod, "make_derived", "gauge.make_derived", None))
    for mod in (strings, harness, cli):
        out.append((mod, "string_from_json", "strings.build", None))
    for fn in ("make_cantor", "make_a_string", "make_profile"):
        out.append((strings, fn, "strings.build", None))
    for mod in (harness, cli):
        out.append((mod, "minkowski_estimate", "geometry.minkowski_estimate", None))
        out.append((mod, "s_estimate", "geometry.s_estimate", None))
    for fn in ("eigen_count", "packing_defect"):
        for mod in (spectral, harness):
            out.append((mod, fn, "spectral." + fn, None))
    out.append((harness, "classify_ratio", "karamata.classify_ratio", None))
    return out


class Tracer:
    """Records spans while installed; ``phase`` labels the spans recorded."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._stack = []     # [span id, child time] of the open spans
        self._depth = defaultdict(int)
        self._next_id = 0

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [sid, 0.0]
            tracer._stack.append(frame)
            tracer._depth[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer._depth[name] -= 1
                dur = t1 - t0
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                outer = tracer._depth[name] == 0
            counts = counter(args, kwargs, result) if counter else {}
            counts["outer"] = outer
            tracer.spans.append((sid, parent, name, tracer.phase, t0, t1,
                                 dur - frame[1], counts))
            return result
        return spanned

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, counter in targets():
                if attr not in vars(owner):
                    print("trace: %s.%s not found, not traced"
                          % (getattr(owner, "__name__", owner), attr),
                          file=sys.stderr)
                    continue
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self, phase: str) -> dict:
        """Per span name: calls, outer inclusive seconds, self seconds and
        the summed counters of the spans recorded in ``phase``."""
        out = defaultdict(lambda: defaultdict(float))
        for sid, parent, name, ph, t0, t1, self_s, counts in self.spans:
            if ph != phase:
                continue
            agg = out[name]
            agg["calls"] += 1
            agg["self_s"] += self_s
            if counts.get("outer"):
                agg["s"] += t1 - t0
            for key, val in counts.items():
                if key != "outer":
                    agg[key] += val
        return out

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for sid, parent, name, ph, t0, t1, self_s, counts in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "phase": ph,
                    "start": t0, "end": t1, "self_s": self_s,
                    "counts": {k: v for k, v in counts.items() if k != "outer"},
                }) + "\n")


PER_LAYER = (
    # (metric, span name, field, phase) -- loop fields are per traced round
    ("gauge.H_inv.calls", "gauge.H_inv", "calls", "loop"),
    ("gauge.H_inv.scalar_calls", "gauge.H_inv", "scalar_calls", "loop"),
    ("gauge.H_inv.elements", "gauge.H_inv", "elements", "loop"),
    ("gauge.H_inv.self_s", "gauge.H_inv", "self_s", "loop"),
    ("gauge.h.calls", "gauge.h", "calls", "loop"),
    ("gauge.h.self_s", "gauge.h", "self_s", "loop"),
    ("gauge.make_derived.s", "gauge.make_derived", "s", "setup"),
    ("strings.J.calls", "strings.J", "calls", "loop"),
    ("strings.J.self_s", "strings.J", "self_s", "loop"),
    ("strings.tail_sum_beyond.calls", "strings.tail_sum_beyond", "calls", "loop"),
    ("strings.tail_sum_beyond.self_s", "strings.tail_sum_beyond", "self_s", "loop"),
    ("strings.runs_above.calls", "strings.runs_above", "calls", "loop"),
    ("strings.runs_above.elements", "strings.runs_above", "elements", "loop"),
    ("strings.runs_above.self_s", "strings.runs_above", "self_s", "loop"),
    ("strings.build_s", "strings.build", "s", "setup"),
    ("geometry.minkowski_estimate.s", "geometry.minkowski_estimate", "s", "loop"),
    ("geometry.s_estimate.s", "geometry.s_estimate", "s", "loop"),
    ("geometry.tube_volume.calls", "geometry.tube_volume", "calls", "loop"),
    ("spectral.eigen_count.calls", "spectral.eigen_count", "calls", "loop"),
    ("spectral.eigen_count.self_s", "spectral.eigen_count", "self_s", "loop"),
    ("spectral.packing_defect.calls", "spectral.packing_defect", "calls", "loop"),
    ("spectral.packing_defect.self_s", "spectral.packing_defect", "self_s", "loop"),
    ("spectral.zeta.self_s", "spectral.zeta", "self_s", "loop"),
    ("karamata.classify_ratio.calls", "karamata.classify_ratio", "calls", "loop"),
    ("karamata.classify_ratio.self_s", "karamata.classify_ratio", "self_s", "loop"),
    ("harness.run_verify.s", "harness.run_verify", "s", "loop"),
    ("harness.run_verify.self_s", "harness.run_verify", "self_s", "loop"),
    ("cli.main.self_s", "cli.main", "self_s", "loop"),
)


def per_layer_values(tracer: Tracer, traced_rounds: int) -> dict:
    """Per-layer metric values: loop figures per traced round, set-up
    figures for the one in-process set-up."""
    loop = tracer.totals("loop")
    setup = tracer.totals("setup")
    out = {}
    for metric, span, field, phase in PER_LAYER:
        if phase == "loop":
            out[metric] = loop[span][field] / traced_rounds
        else:
            out[metric] = setup[span][field]
    # eigen_count and packing_defect are the only callers of runs_above,
    # and each passes the whole head to the floor/fraction kernel
    out["spectral.head_elements"] = out["strings.runs_above.elements"]
    out["spectral.head_bytes"] = out["spectral.head_elements"] * HEAD_BYTES_PER_ELEMENT
    return out

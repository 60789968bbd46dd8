"""Benchmark of fractal_strings: `fstring verify` and the spectral sweep.

    python3 bench/run.py --workload verify-log --seed 1 --seconds 15 --trace 0

Run it from the repository root.  It needs only the standard library,
numpy, scipy and mpmath; it puts ``src`` on the path itself, pins BLAS to
one thread and installs nothing.  One closed loop with one caller runs
whole rounds of the workload's operations until ``--seconds`` have passed
and at least three rounds are done.
Every output is checked (see oracles.py).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  README.md describes the workloads, metrics
and tolerances.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = BENCH / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# fresh interpreters timed per run for setup_s
SETUP_PROBES = 5
# a verify-log round takes about 14 s; three rounds let the per-example
# median set aside one round slowed by another process on the machine
MIN_ROUNDS = 3
PROBE_TIMEOUT_S = 60


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _setup_seconds(workload: str, seed: int) -> list:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"),
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _environment() -> dict:
    import mpmath
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _summarise(workload, inputs, results) -> dict:
    """round_s and ops_per_s from the rounds in ``results``."""
    n_ops = len(inputs.ops)
    if workload == "spectrum-sweep":
        round_s = statistics.median(r["busy_s"] for r in results)
    else:
        # median time of each example's call, summed over the examples
        round_s = sum(statistics.median(r[name] for r in results)
                      for name in inputs.ops)
    return {"round_s": round_s, "ops_per_s": n_ops / round_s}


def run(args):
    """Set up, run the timed loop, and return the tally and metric values."""
    for var in THREAD_VARS:
        os.environ[var] = "1"    # before numpy is first imported
    sys.path[:0] = [str(SRC), str(BENCH)]
    # setup_s is an end-to-end metric, so a traced run does not measure it
    setup_times = [] if args.trace else _setup_seconds(args.workload, args.seed)

    import inputs
    t0 = time.perf_counter()
    import fractal_strings.cli  # noqa: F401  (first, so numpy's import counts)
    import_s = time.perf_counter() - t0
    import rounds
    import spans

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        with tracer.installed():
            built = inputs.build(args.workload, args.seed)
        tracer.phase = "loop"
    else:
        built = inputs.build(args.workload, args.seed)

    OUT.mkdir(exist_ok=True)
    out_file = OUT / ("verify-%d.json" % os.getpid())
    if args.workload == "spectrum-sweep":
        runner = rounds.SweepRunner(built)
    else:
        runner = rounds.VerifyRunner(built, str(out_file))
    tally = rounds.Tally()

    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        # a traced run alternates plain and traced rounds, for the overhead
        if tracer and len(plain) > len(traced):
            with tracer.installed():
                traced.append(runner.round(tally))
        else:
            plain.append(runner.round(tally))
        if (time.perf_counter() >= deadline and len(plain) + len(traced) >= MIN_ROUNDS
                and (not tracer or traced)):
            break
    if out_file.exists():
        out_file.unlink()

    env = _environment()
    summary = _summarise(args.workload, built, plain)
    detail = {"workload": args.workload, "seed": args.seed,
              "rounds": len(plain), "traced_rounds": len(traced),
              "ops_per_round": len(built.ops),
              "setup_probe_s": setup_times, "import_s": import_s}
    if args.workload == "spectrum-sweep":
        detail["round_s_each"] = [r["busy_s"] for r in plain]
    else:
        detail["round_s_each"] = [sum(r.values()) for r in plain]
        detail["call_s_median"] = {
            name: statistics.median(r[name] for r in plain) for name in built.ops}
    print("# env " + json.dumps(env))
    print("# detail " + json.dumps(detail))
    for kind, messages in (("failed", tally.failures), ("rejected", tally.wrong)):
        for message, count in sorted(messages.items()):
            print("%s x%d: %s" % (kind, count, message), file=sys.stderr)

    if tracer:
        values = spans.per_layer_values(tracer, len(traced))
        values["cli.import_s"] = import_s
        traced_summary = _summarise(args.workload, built, traced)
        values["trace.overhead.round_s"] = traced_summary["round_s"] - summary["round_s"]
        values["trace.overhead.ops_per_s"] = (traced_summary["ops_per_s"]
                                             - summary["ops_per_s"])
        tracer.write(OUT / ("trace-%s-seed%d.jsonl" % (args.workload, args.seed)),
                     {"env": env, "detail": detail, "per_layer": values})
    else:
        values = dict(summary)
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = _peak_rss_mb()
    return tally, values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "fractal_strings" / "__init__.py").is_file() or not spec_path.is_file():
        print("bench: run from a checkout that holds src/fractal_strings and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print("bench: unknown workload %r" % args.workload, file=sys.stderr)
        return 2

    tally, values = run(args)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": not tally.wrong, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

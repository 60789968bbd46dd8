"""Command line front end.

Subcommands:
    verify    run the joint verification suite on a config file
    spectrum  tabulate N, phi, delta and ratios over the config's lambda grid
    content   estimate Minkowski and S contents for a string/gauge pair
    zeta      zeta-side constants for a given dimension
    string    inspect a string spec (lengths, counting function, tail sums)

Exit codes: 0 success, 2 usage or malformed input, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .errors import ConstructionError, DomainError, NumericError
from .geometry import ScaleGrid, content_estimates
from .harness import ExperimentConfig, bundled_example, run_verify
from .spectral import (ZetaContext, _positive, records_to_csv, second_term_probe,
                       w_k, zeta, zeta_from_wk)
from .strings import string_from_json


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(2, "cannot read config %r: %s" % (path, exc))


def _fail(code: int, message: str):
    json.dump({"error": message}, sys.stderr)
    sys.stderr.write("\n")
    sys.exit(code)


def _write(text: str, out_path=None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload, out_path=None):
    """One line of sorted-key JSON: without indent, json uses its C encoder."""
    _write(json.dumps(payload, sort_keys=True, allow_nan=False) + "\n", out_path)


def cmd_verify(args) -> int:
    if args.example:
        config = bundled_example(args.config)
    else:
        config = ExperimentConfig.from_json(_load_json(args.config))
    report = run_verify(config)
    _emit({"config": config.to_json(), "report": report.to_json()}, args.out)
    return 0


def cmd_spectrum(args) -> int:
    config = ExperimentConfig.from_json(_load_json(args.config))
    _, derived, string = config.build()
    records = second_term_probe(string, derived, config.lam_grid())
    if args.format == "csv":
        _write(records_to_csv(records), args.out)
    else:
        _emit([r.to_json() for r in records], args.out)
    return 0


def cmd_content(args) -> int:
    config = ExperimentConfig.from_json(_load_json(args.config))
    gauge, _, string = config.build()
    mink, sest = content_estimates(string, gauge, config.eps_grid(),
                                   band=config.band)
    _emit({kind: {"lower": v.lower, "upper": v.upper, "verdict": v.verdict,
                  "kind": kind, "grid": ScaleGrid(scales=v.scales).to_json()}
           for kind, v in (("minkowski", mink), ("s", sest))}, args.out)
    return 0


def cmd_zeta(args) -> int:
    D = args.D
    if not 0.0 < D < 1.0:
        _fail(2, "D must lie in (0, 1), not %r" % D)
    _positive(args.L, "L")
    ctx = ZetaContext(D=D, L=args.L)
    table = {str(k): {"w_k": w_k(D, k), "zeta_extrapolated": zeta_from_wk(D, k)}
             for k in (100, 10000, 1000000)}
    _emit({"D": D, "L": args.L, "zeta_D": zeta(D), "c1D": ctx.c1D,
           "content": ctx.content,
           "remainder_constant": ctx.target_remainder,
           "delta_ratio_constant": ctx.target_delta_ratio,
           "identity_residual": ctx.identity_residual(),
           "w_k_table": table}, args.out)
    return 0


def cmd_string(args) -> int:
    spec = _load_json(args.config)
    if isinstance(spec, dict) and "string" not in spec:  # a bare string spec
        string = string_from_json(spec)
    else:
        _, _, string = ExperimentConfig.from_json(spec).build()
    count = string.count()
    n = args.n if count is None else min(args.n, count)
    eps_probe = 2.0 ** -np.arange(2, 22, 2)
    J = string.J(eps_probe)
    keys = ["%g" % e for e in eps_probe.tolist()]
    _emit({"total_length": string.total_length(),
           "count": count,
           "first_lengths": string.length(np.arange(1, n + 1)).tolist(),
           "J": dict(zip(keys, J.tolist())),
           "tail_beyond": dict(zip(keys, string.tail_sum_beyond_index(J).tolist()))},
          args.out)
    return 0


@functools.cache  # one parser per process
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fstring",
                                description="fractal string numerics")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        parser = sub.add_parser(name, help=help)
        parser.add_argument("--out", default=None)
        parser.set_defaults(fn=fn)
        return parser

    pv = command("verify", cmd_verify, "run the verification suite")
    pv.add_argument("config", help="config JSON path, or example name with --example")
    pv.add_argument("--example", action="store_true",
                    help="treat CONFIG as a bundled example name")
    ps = command("spectrum", cmd_spectrum, "tabulate the spectral remainder")
    ps.add_argument("config")
    ps.add_argument("--format", choices=("csv", "json"), default="csv")
    command("content", cmd_content, "estimate contents").add_argument("config")
    pz = command("zeta", cmd_zeta, "zeta-side constants")
    pz.add_argument("--D", type=float, required=True)
    pz.add_argument("--L", type=float, default=1.0)
    pstr = command("string", cmd_string, "inspect a string spec")
    pstr.add_argument("config")
    pstr.add_argument("-n", type=int, default=12)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, DomainError, ConstructionError) as exc:
        _fail(2, str(exc))
    except (NumericError, ArithmeticError) as exc:
        _fail(3, str(exc))


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Subcommands:
    verify    run the joint verification suite on a config file
    spectrum  tabulate N, phi, delta and remainder ratios over a lambda grid
    content   estimate Minkowski and S contents for a string/gauge pair
    zeta      zeta-side constants for a given dimension
    string    inspect a string spec (lengths, counting function, tail sums)

Exit codes: 0 success, 2 usage or malformed input, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import ConstructionError, DomainError, NumericError
from .gauge import gauge_from_json
from .geometry import ScaleGrid, content_estimates
from .harness import ExperimentConfig, bundled_examples, run_verify
from .spectral import (ZetaContext, records_to_csv, second_term_probe, w_k,
                       zeta, zeta_from_wk)
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
    _write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                      default=_jsonable) + "\n", out_path)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError("not JSON serializable: %r" % type(obj))


def cmd_verify(args) -> int:
    if args.example:
        examples = bundled_examples()
        if args.config not in examples:
            _fail(2, "unknown example %r (have: %s)"
                  % (args.config, ", ".join(sorted(examples))))
        config = examples[args.config]
    else:
        config = ExperimentConfig.from_json(_load_json(args.config))
    report = run_verify(config)
    _emit({"config": config.to_json(), "report": report.to_json()}, args.out)
    return 0


def cmd_spectrum(args) -> int:
    config = ExperimentConfig.from_json(_load_json(args.config))
    if args.lmax <= args.lmin or args.lmin <= 0:
        _fail(2, "need 0 < lmin < lmax")
    _, derived, string = config.build()
    lams = np.geomspace(args.lmin, args.lmax, args.steps)
    records = second_term_probe(string, derived, lams)
    if args.format == "csv":
        _write(records_to_csv(records), args.out)
    else:
        _emit([r.to_json() for r in records], args.out)
    return 0


def cmd_content(args) -> int:
    config = ExperimentConfig.from_json(_load_json(args.config))
    string = string_from_json(config.string_spec)
    gauge = gauge_from_json(config.gauge_spec)
    mink, sest = content_estimates(string, gauge, config.eps_grid(),
                                   band=config.band)
    _emit({kind: {"lower": v.lower, "upper": v.upper, "verdict": v.verdict,
                  "kind": kind, "grid": ScaleGrid(scales=v.scales).to_json()}
           for kind, v in (("minkowski", mink), ("s", sest))}, args.out)
    return 0


def cmd_zeta(args) -> int:
    D = args.D
    if not 0.0 < D < 1.0:
        _fail(2, "D must lie in (0, 1)")
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
    string = string_from_json(spec["string"] if "string" in spec else spec)
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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fstring",
                                description="fractal string numerics")
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the verification suite")
    pv.add_argument("config", help="config JSON path, or example name with --example")
    pv.add_argument("--example", action="store_true",
                    help="treat CONFIG as a bundled example name")
    pv.add_argument("--out", default=None)
    pv.set_defaults(fn=cmd_verify)

    ps = sub.add_parser("spectrum", help="tabulate the spectral remainder")
    ps.add_argument("config")
    ps.add_argument("--lmin", type=float, default=1e3)
    ps.add_argument("--lmax", type=float, default=1e9)
    ps.add_argument("--steps", type=int, default=25)
    ps.add_argument("--format", choices=("csv", "json"), default="csv")
    ps.add_argument("--out", default=None)
    ps.set_defaults(fn=cmd_spectrum)

    pc = sub.add_parser("content", help="estimate contents")
    pc.add_argument("config")
    pc.add_argument("--out", default=None)
    pc.set_defaults(fn=cmd_content)

    pz = sub.add_parser("zeta", help="zeta-side constants")
    pz.add_argument("--D", type=float, required=True)
    pz.add_argument("--L", type=float, default=1.0)
    pz.add_argument("--out", default=None)
    pz.set_defaults(fn=cmd_zeta)

    pstr = sub.add_parser("string", help="inspect a string spec")
    pstr.add_argument("config")
    pstr.add_argument("-n", type=int, default=12)
    pstr.add_argument("--out", default=None)
    pstr.set_defaults(fn=cmd_string)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SystemExit:
        raise
    except (KeyError, ValueError, DomainError, ConstructionError) as exc:
        _fail(2, str(exc))
    except (NumericError, ArithmeticError) as exc:
        _fail(3, str(exc))


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: every pipeline behind one binary with
machine-readable output.

Exit codes: 0 pass, 1 verification failure, 2 usage error, 3 resource bound
exceeded.  Only input the user typed is a usage error: each subcommand
turns the ValueError of a parser or a range check into UsageError, and any
other exception is a bug and propagates.  Identical configurations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import List, Optional

from . import edcalc, qforms
from .chartab import count_min_faithful, dixon_character_table, min_faithful_irrep_dim
from .covers import (
    DEFAULT_SIZE_BOUND,
    CoverSpec,
    SizeBoundExceeded,
    VerificationError,
    get_cover,
    subgroup_table,
    verify_presentation,
)
from .polyq import format_poly, parse_poly

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

SIZE_BOUND_ENV = "SCHUR_ED_SIZE_BOUND"


@dataclass
class RunConfig:
    seed: int = 0
    size_bound: int = DEFAULT_SIZE_BOUND
    format: str = "json"


class UsageError(ValueError):
    pass


def _emit(config: RunConfig, payload) -> None:
    if config.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        if isinstance(payload, str):
            print(payload, end="" if payload.endswith("\n") else "\n")
        else:
            for key in sorted(payload) if isinstance(payload, dict) else []:
                print(f"{key}\t{payload[key]}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


def _parse(parser, *args):
    """Call a parser of user input; its ValueError is a usage error."""
    try:
        return parser(*args)
    except (ValueError, ZeroDivisionError) as err:
        raise UsageError(str(err)) from err


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_cover_verify(args, config: RunConfig) -> int:
    _require(4 <= args.n <= 12, "cover verify supports 4 <= n <= 12")
    spec = CoverSpec(args.n, args.variant)
    report = verify_presentation(spec, size_bound=config.size_bound)
    payload = {
        "n": args.n,
        "variant": args.variant,
        "relations": [{"relation": r.relation, "ok": r.ok}
                      for r in report.relations],
        "order": report.order,
        "order_expected": report.order_expected,
        "order_method": report.order_method,
        "ok": report.all_ok,
    }
    if config.format == "tsv":
        lines = [f"{r.relation}\t{'pass' if r.ok else 'FAIL'}"
                 for r in report.relations]
        lines.append(f"order\t{report.order}")
        lines.append(f"ok\t{'pass' if report.all_ok else 'FAIL'}")
        _emit(config, "\n".join(lines))
    else:
        _emit(config, payload)
    if not report.all_ok:
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_chartab(args, config: RunConfig) -> int:
    cov = _parse(lambda: get_cover(CoverSpec(args.n, args.variant)))
    table = subgroup_table(cov.spec, args.subgroup, config.size_bound)
    ct = dixon_character_table(table, seed=config.seed)
    payload = ct.to_json()
    payload["group"] = {"n": args.n, "variant": args.variant,
                        "subgroup": args.subgroup}
    payload["min_faithful_dim"] = min_faithful_irrep_dim(table, cov.z, ct)
    payload["min_faithful_count"] = count_min_faithful(table, cov.z, ct)
    if config.format == "tsv":
        lines = ["degrees\t" + ",".join(str(d) for d in payload["degrees"]),
                 f"order\t{payload['order']}",
                 f"prime\t{payload['prime']}",
                 f"min_faithful_dim\t{payload['min_faithful_dim']}",
                 f"min_faithful_count\t{payload['min_faithful_count']}"]
        _emit(config, "\n".join(lines))
    else:
        _emit(config, payload)
    return EXIT_OK


_COMPUTED_CAP = f"computed values are capped at n = {edcalc.COMPUTED_MAX_N}"


def cmd_ed2(args, config: RunConfig) -> int:
    _require(args.n >= 4, "formulas assume n >= 4")
    if args.computed:
        _require(args.n <= edcalc.COMPUTED_MAX_N, _COMPUTED_CAP)
    formula = edcalc.ed2_formula(args.n, args.which)
    try:
        report = edcalc.ed_report(args.n, args.which, args.variant,
                                  compute=args.computed,
                                  size_bound=config.size_bound)
    except edcalc.FormulaMismatch:
        print(f"verification failure: computed != formula ({formula}) "
              f"at n={args.n}", file=sys.stderr)
        return EXIT_VERIFICATION
    payload = report.to_json()
    payload["which"] = args.which
    _emit(config, payload)
    return EXIT_OK


def cmd_table1(args, config: RunConfig) -> int:
    _require(4 <= args.n_max <= edcalc.TABLE_MAX_N,
             f"table1 supports 4 <= n_max <= {edcalc.TABLE_MAX_N}")
    _require(args.verify_max <= edcalc.COMPUTED_MAX_N, _COMPUTED_CAP)
    try:
        tab = edcalc.table1(args.n_max, verify_max=args.verify_max,
                            variant=args.variant,
                            size_bound=config.size_bound)
    except edcalc.FormulaMismatch as err:
        print(f"verification failed at n={err.n}: computed {err.computed}, "
              f"formula {err.formula}", file=sys.stderr)
        return EXIT_VERIFICATION
    if config.format == "tsv":
        _emit(config, tab.to_tsv())
    else:
        _emit(config, tab.to_json())
    return EXIT_OK


def cmd_qform(args, config: RunConfig) -> int:
    q = _parse(qforms.QuadFormQ.parse, args.diag)
    _emit(config, q.to_json())
    return EXIT_OK


def cmd_trace_form(args, config: RunConfig) -> int:
    f = _parse(parse_poly, args.poly)
    _require(1 <= len(f) - 1 <= 24, "polynomial degree must be in 1..24")
    E = _parse(qforms.EtaleAlgebraQ.from_polynomial, f)
    q = qforms.trace_form(E)
    s = (len(f) - 1).bit_count()
    payload = q.to_json()
    payload["polynomial"] = format_poly(f)
    payload["etale_disc"] = qforms.etale_discriminant(E).representative
    payload["contains_s_ones"] = {"s": s, "holds": qforms.contains_ones(q, s)}
    payload["hasse_index"] = qforms.brauer_index(q.hasse)
    _emit(config, payload)
    return EXIT_OK


def cmd_trace_check(args, config: RunConfig) -> int:
    _require(4 <= args.n <= 24, "trace-check supports 4 <= n <= 24")
    _require(args.trials >= 0, "--trials must be nonnegative")
    rng = random.Random(config.seed)
    s = args.n.bit_count()
    passed = disc_ok = 0
    for _ in range(args.trials):
        E = qforms.random_etale_algebra(args.n, rng)
        q = qforms.trace_form(E)
        if qforms.contains_ones(q, s):
            passed += 1
        if qforms.discriminant(q) == qforms.etale_discriminant(E):
            disc_ok += 1
    payload = {
        "n": args.n,
        "s": s,
        "trials": args.trials,
        "contains_s_ones": passed,
        "disc_matches": disc_ok,
    }
    _emit(config, payload)
    if passed != args.trials or disc_ok != args.trials:
        return EXIT_VERIFICATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _add_globals(p: argparse.ArgumentParser, root: bool) -> None:
    """Run-config flags, accepted both before and after the subcommand."""
    d = (lambda v: v) if root else (lambda v: argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=d(0))
    p.add_argument("--size-bound", type=int, default=d(None),
                   help=f"element-count cap (default 2^18; env "
                        f"{SIZE_BOUND_ENV} overrides)")
    p.add_argument("--format", choices=("json", "tsv"), default=d("json"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schur-ed",
        description="Double covers of symmetric/alternating groups: "
                    "presentations, character degrees, essential-dimension "
                    "tables, and rational quadratic-form invariants.")
    _add_globals(parser, root=True)
    sub = parser.add_subparsers(dest="command", required=True)

    cover = sub.add_parser("cover", help="double-cover group checks")
    cover_sub = cover.add_subparsers(dest="subcommand", required=True)
    cv = cover_sub.add_parser("verify", help="verify a presentation")
    cv.add_argument("-n", type=int, required=True)
    cv.add_argument("--variant", choices=("plus", "minus"), default="plus")
    cv.set_defaults(func=cmd_cover_verify)

    ch = sub.add_parser("chartab", help="character degrees and central signs")
    ch.add_argument("-n", type=int, required=True)
    ch.add_argument("--variant", choices=("plus", "minus"), default="plus")
    ch.add_argument("--subgroup", choices=("sylow2", "alt", "full"),
                    default="sylow2")
    ch.set_defaults(func=cmd_chartab)

    ed2 = sub.add_parser("ed2", help="2-local essential dimension")
    ed2.add_argument("-n", type=int, required=True)
    ed2.add_argument("--which", choices=("sym", "alt"), default="alt")
    ed2.add_argument("--variant", choices=("plus", "minus"), default="plus")
    ed2.add_argument("--computed", action="store_true",
                     help="also run the character pipeline and compare")
    ed2.set_defaults(func=cmd_ed2)

    t1 = sub.add_parser("table1", help="the three-row summary table")
    t1.add_argument("--n-max", type=int, default=edcalc.TABLE_MAX_N)
    t1.add_argument("--verify-max", type=int, default=0,
                    help="re-derive row 2 computationally for n up to this")
    t1.add_argument("--variant", choices=("plus", "minus"), default="plus")
    t1.set_defaults(func=cmd_table1)

    qf = sub.add_parser("qform", help="invariants of a diagonal form")
    qf.add_argument("diag", help="comma-separated rationals, e.g. '1,-1,2/3'")
    qf.set_defaults(func=cmd_qform)

    tf = sub.add_parser("trace-form", help="trace form of an etale algebra")
    tf.add_argument("poly", help="monic squarefree polynomial, e.g. 'x^3 - 2'")
    tf.set_defaults(func=cmd_trace_form)

    tc = sub.add_parser("trace-check",
                        help="random trace forms: subform and disc checks")
    tc.add_argument("-n", type=int, required=True)
    tc.add_argument("--trials", type=int, default=100)
    tc.set_defaults(func=cmd_trace_check)

    for leaf in (cv, ch, ed2, t1, qf, tf, tc):
        _add_globals(leaf, root=False)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        size_bound = args.size_bound
        if size_bound is None:
            env = os.environ.get(SIZE_BOUND_ENV)
            size_bound = _parse(int, env) if env else DEFAULT_SIZE_BOUND
        _require(size_bound > 0, "the size bound must be positive")
        config = RunConfig(seed=args.seed, size_bound=size_bound,
                           format=args.format)
        return args.func(args, config)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SizeBoundExceeded as err:
        print(f"resource bound exceeded: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except (VerificationError, AssertionError) as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())

"""Command line entry points: presolve, postsolve, report.

Exit codes: 0 success, 1 error, 2 infeasible detected, 3 unbounded
detected.  Parameters resolve with precedence flags > environment
(PREMIP_*) > parameter file > defaults.
"""
from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from .logs import MessageLog
from .mps import MpsError, read_mps, read_sol, write_mps, write_sol
from .options import PresolveOptions, read_param_file
from .postsolve import PostsolveError, _ctx_for, postsolve_primal
from .presolvers import PRESOLVER_NAMES
from .records import read_record, write_record
from .report import build_report, parse_log, render_report, shifted_geomean
from .scheduler import Verdict, presolve

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="premip",
        description="solver-independent presolving for MIP/LP")
    sub = parser.add_subparsers(dest="command", required=True)

    pre = sub.add_parser("presolve", help="reduce an MPS instance")
    pre.add_argument("input", help="MPS file to presolve")
    pre.add_argument("-r", "--reduced", help="reduced MPS output path")
    pre.add_argument("-v", "--record", dest="record",
                     help="postsolve record output path")
    pre.add_argument("--record-text", action="store_true",
                     help="write the record in the text format")
    pre.add_argument("--stats", help="statistics output file (default stdout)")
    pre.add_argument("--log", help="message/transaction log file")
    pre.add_argument("--threads", type=int)
    pre.add_argument("--abortfac", type=float)
    pre.add_argument("--apply-immediately", action="store_true", default=None)
    pre.add_argument("--verbosity", type=int)
    pre.add_argument("--rational", action="store_true", default=None,
                     help="exact rational arithmetic")
    pre.add_argument("--disable", action="append", default=[],
                     metavar="PRESOLVER", choices=PRESOLVER_NAMES)
    pre.add_argument("--enable", action="append", default=[],
                     metavar="PRESOLVER", choices=PRESOLVER_NAMES)
    pre.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                     help="set any named parameter")
    pre.add_argument("--params", help="parameter file (key = value lines)")

    post = sub.add_parser("postsolve",
                          help="map a reduced solution back to the original")
    post.add_argument("--record", required=True)
    post.add_argument("--solution", required=True,
                      help="solution of the reduced problem (.sol)")
    post.add_argument("-o", "--output", help="original-space solution path")
    post.add_argument("--problem",
                      help="original MPS for a feasibility cross-check")

    rep = sub.add_parser("report",
                         help="conflict matrices from verbosity-4 logs")
    rep.add_argument("logs", nargs="+", help="log files")
    rep.add_argument("-o", "--output", help="report output file")
    return parser


def _collect_options(args) -> PresolveOptions:
    flag_params: Dict[str, str] = {}
    for kv in args.set:
        if "=" not in kv:
            raise ValueError(f"--set expects KEY=VALUE, got {kv!r}")
        key, val = kv.split("=", 1)
        flag_params[key.strip()] = val.strip()
    if args.threads is not None:
        flag_params["presolve.threads"] = str(args.threads)
    if args.abortfac is not None:
        flag_params["presolve.abortfac"] = str(args.abortfac)
    if args.apply_immediately:
        flag_params["presolve.apply_results_immediately_if_run_sequentially"] \
            = "true"
    if args.verbosity is not None:
        flag_params["message.verbosity"] = str(args.verbosity)
    if args.rational:
        flag_params["numerics.mode"] = "rational"
    for name in args.disable:
        flag_params[f"presolve.{name}.enabled"] = "false"
    for name in args.enable:
        flag_params[f"presolve.{name}.enabled"] = "true"
    file_params = read_param_file(args.params) if args.params else None
    return PresolveOptions.from_sources(flag_params, None, file_params)


def _cmd_presolve(args) -> int:
    options = _collect_options(args)
    ctx = options.make_ctx()
    warnings: List[str] = []
    problem = read_mps(args.input, ctx, warnings=warnings)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    for w in problem.validate():
        print(f"warning: {w}", file=sys.stderr)

    log_fh = open(args.log, "w", encoding="utf-8") if args.log else None
    log = MessageLog(options.verbosity, log_fh) if log_fh else (
        MessageLog(options.verbosity, sys.stderr) if options.verbosity >= 2
        else None)
    nnz_before = problem.nnz
    rows_before = len(problem.active_rows())
    cols_before = len(problem.active_cols())
    try:
        result = presolve(problem, options, log)
    finally:
        if log_fh:
            log_fh.close()

    reduced_path = args.reduced or args.input + ".reduced.mps"
    record_path = args.record or args.input + ".postsolve"
    if result.verdict in (Verdict.REDUCED, Verdict.UNCHANGED):
        write_mps(result.problem, reduced_path)
    write_record(result.record, record_path, text=args.record_text)

    stats = result.stats.as_dict()
    lines = [f"verdict={result.verdict.value}",
             f"rows.before={rows_before}",
             f"rows.after={len(result.problem.active_rows())}",
             f"cols.before={cols_before}",
             f"cols.after={len(result.problem.active_cols())}",
             f"nnz.before={nnz_before}",
             f"nnz.after={result.problem.nnz}"]
    lines += [f"{k}={v}" for k, v in stats.items()]
    lines.append(f"presolve.seconds={result.stats.presolve_seconds:.6f}")
    text = "\n".join(lines) + "\n"
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if result.verdict is Verdict.INFEASIBLE:
        return EXIT_INFEASIBLE
    if result.verdict is Verdict.UNBOUNDED:
        return EXIT_UNBOUNDED
    return EXIT_OK


def _cmd_postsolve(args) -> int:
    record = read_record(args.record)
    ctx = _ctx_for(record)
    by_name, _ = read_sol(args.solution, ctx)
    name_to_col = {name: j for j, name in enumerate(record.col_names)}
    reduced_values = {}
    for name, v in by_name.items():
        if name not in name_to_col:
            print(f"warning: unknown column {name!r} in solution",
                  file=sys.stderr)
            continue
        reduced_values[name_to_col[name]] = v
    solution = postsolve_primal(record, reduced_values)
    out_path = args.output or args.solution + ".original.sol"
    write_sol(out_path, record.col_names, solution.values,
              solution.objective, ctx)
    if args.problem:
        original = read_mps(args.problem, ctx)
        violations = _check_feasible(original, solution.values)
        if violations:
            for v in violations[:20]:
                print(f"infeasible: {v}", file=sys.stderr)
            return EXIT_ERROR
    print(f"objective={ctx.format(solution.objective)}")
    return EXIT_OK


def _check_feasible(problem, values) -> List[str]:
    ctx = problem.ctx
    out = []
    for j in range(problem.ncols):
        v = values[j]
        if not (ctx.feas_leq(problem.col_lower[j], v)
                and ctx.feas_leq(v, problem.col_upper[j])):
            out.append(f"column {problem.col_names[j]} out of bounds")
        if problem.col_integral[j] and not ctx.is_integral(v):
            out.append(f"column {problem.col_names[j]} not integral")
    for i in range(problem.nrows):
        if not problem.row_is_active(i):
            continue
        val = ctx.number(0)
        for j, a in problem.rows[i].items():
            val = val + a * values[j]
        if not (ctx.feas_leq(problem.row_lhs[i], val)
                and ctx.feas_leq(val, problem.row_rhs[i])):
            out.append(f"row {problem.row_names[i]} violated")
    return out


def _cmd_report(args) -> int:
    summaries = [parse_log(path) for path in args.logs]
    report = build_report(summaries)
    text = render_report(report)
    totals = [sum(s.found.values()) for s in summaries]
    if totals:
        text += (f"instances={len(summaries)}\n"
                 f"transactions.shifted_geomean="
                 f"{shifted_geomean(totals, 1.0):.4f}\n")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "presolve":
            return _cmd_presolve(args)
        if args.command == "postsolve":
            return _cmd_postsolve(args)
        if args.command == "report":
            return _cmd_report(args)
        parser.error(f"unknown command {args.command}")
    except (MpsError, PostsolveError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point for batch what-if analysis.

Exit status: 0 on success, 1 on usage or parse errors, 2 when a share plan
is infeasible or a monitored deviation exceeds the threshold.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import functools
import os
import sys
from pathlib import Path

from .errors import FairshareError, InfeasiblePlanError, ScenarioParseError
from .planning import (
    allocate_topdown,
    goal_deviation,
    parse_ps_log,
    parse_slo_file,
    render_deviation,
    render_plan,
)
from .report import DEFAULT_SIM, cross_compare, entitlement_lines, render_report, run_scenario
from .scenario import SOLVERS, parse_scenario
from .shares import (
    ENTITLEMENT_MODES,
    FLAT_POOL,
    apply_events,
    compute_entitlements,
    least_upper_bounds,
)
from .sim import SIM_MODES, SimConfig, convergence_time, export_trace, run_sim


@contextlib.contextmanager
def _open(path: str):
    """Open an input file as UTF-8 text; errors opening, decoding or parsing it name the file."""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise FairshareError(f"{path}: {exc.strerror or exc}") from exc
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise FairshareError(
                f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
            ) from exc
        except ScenarioParseError as exc:
            raise ScenarioParseError(f"{path}: {exc}") from exc


def _load_scenario(path: str):
    with _open(path) as fh:
        return parse_scenario(fh.read(), label=Path(path).stem)


def _sim_config(args) -> SimConfig:
    return SimConfig(
        duration=args.duration,
        warmup=args.warmup,
        quantum=args.quantum,
        usage_half_life=args.half_life,
        window=args.window,
        seed=args.seed,
        mode=args.sim_mode,
        think_jitter=args.jitter_think,
    )


def _add_sim_options(parser):
    d = DEFAULT_SIM
    parser.add_argument("--duration", type=float, default=d.duration, help="simulated seconds")
    parser.add_argument("--warmup", type=float, default=d.warmup, help="seconds discarded before measuring")
    parser.add_argument("--quantum", type=float, default=d.quantum, help="scheduler quantum in seconds")
    parser.add_argument("--half-life", type=float, default=d.usage_half_life,
                        help="usage decay half-life in seconds")
    parser.add_argument("--window", type=float, default=d.window,
                        help="utilization sampling window in seconds")
    parser.add_argument("--seed", type=int, default=d.seed, help="simulation seed")
    parser.add_argument("--sim-mode", choices=SIM_MODES, default=d.mode, help="dispatch discipline")
    parser.add_argument("--jitter-think", action="store_true",
                        help="draw think times from an exponential instead of fixed values")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every later one.

    Building it costs more than a small command's work, and ``main`` may run
    many times in one process.  Callers must not mutate it.  Parsing does
    not, and argparse reads the output streams and terminal width only when
    it prints, so a shared parser behaves as a fresh one would.
    """
    parser = argparse.ArgumentParser(
        prog="fairshare",
        description="Capacity planning for fair-share CPU scheduling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    p = add("entitle", help="print the entitlement table for a scenario")
    p.add_argument("scenario")
    p.add_argument("--mode", choices=ENTITLEMENT_MODES, default=FLAT_POOL)
    p.add_argument("--lub", action="store_true", help="show guaranteed minimums (all users active)")

    p = add("report", help="run a scenario and print its capacity report")
    p.add_argument("scenario")
    p.add_argument("--mode", choices=ENTITLEMENT_MODES, default=FLAT_POOL)
    p.add_argument("--solver", choices=SOLVERS, default=None,
                   help="override the scenario's solver line")
    _add_sim_options(p)

    p = add("compare", help="ratio tables across two or more scenarios")
    p.add_argument("scenarios", nargs="+")
    p.add_argument("--mode", choices=ENTITLEMENT_MODES, default=FLAT_POOL)

    p = add("simulate", help="run the scheduler simulator on a scenario")
    p.add_argument("scenario")
    p.add_argument("--mode-entitle", dest="entitle_mode", choices=ENTITLEMENT_MODES,
                   default=FLAT_POOL, help="entitlement mode used for the convergence check")
    _add_sim_options(p)
    p.add_argument("--epsilon", type=float, default=0.05,
                   help="per-window tolerance for the convergence check")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="export per-window fractions as CSV")

    p = add("advise", help="derive a share plan from measured targets")
    p.add_argument("slo_file")
    p.add_argument("--total-shares", type=int, required=True)

    p = add("monitor", help="check a ps log against entitlements")
    p.add_argument("ps_log")
    p.add_argument("scenario")
    p.add_argument("--mode", choices=ENTITLEMENT_MODES, default=FLAT_POOL)
    p.add_argument("--window", type=float, default=60.0, help="monitoring window in seconds")
    p.add_argument("--threshold", type=float, default=0.05,
                   help="absolute deviation that raises a flag")

    return parser


def _cmd_entitle(args) -> int:
    scenario = _load_scenario(args.scenario)
    if args.lub:
        table = least_upper_bounds(scenario.hierarchy)
        title = "Guaranteed minimum entitlements (all users active)"
    else:
        table = compute_entitlements(scenario.hierarchy, args.mode)
        title = f"Entitlements (mode: {table.mode})"
    print(title)
    print(f"Active user shares: {table.active_user_shares} / "
          f"{scenario.hierarchy.total_allocated_shares} allocated")
    print()
    for line in entitlement_lines(scenario.hierarchy, table):
        print(line)
    return 0


def _cmd_report(args) -> int:
    scenario = _load_scenario(args.scenario)
    if args.solver:
        scenario = dataclasses.replace(scenario, solver=args.solver)
    report = run_scenario(scenario, mode=args.mode, sim_config=_sim_config(args))
    for note in report.srm.notes:
        print(f"note: {note}", file=sys.stderr)
    sys.stdout.write(render_report(report))
    return 0


def _cmd_compare(args) -> int:
    if len(args.scenarios) < 2:
        raise FairshareError("compare needs at least two scenario files")
    reports = [run_scenario(_load_scenario(path), mode=args.mode) for path in args.scenarios]
    sys.stdout.write(cross_compare(reports))
    return 0


def _check_trace_path(path: str) -> None:
    """Refuse a trace path that cannot be a file before the run, not after it.

    The file itself is opened only once the run has succeeded, so a failed
    run neither creates nor truncates it.
    """
    target = Path(path)
    if target.is_dir():
        code = errno.EISDIR
    elif not target.parent.is_dir():
        code = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
    else:
        return
    raise FairshareError(f"{path}: {os.strerror(code)}")


def _cmd_simulate(args) -> int:
    """Print the result table only once every step, the trace file included, has succeeded."""
    scenario = _load_scenario(args.scenario)
    config = _sim_config(args)
    if args.trace:
        _check_trace_path(args.trace)
    trace = run_sim(scenario.hierarchy, scenario.workload, scenario.timeline, config)
    for warning in trace.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    final_hierarchy = apply_events(scenario.hierarchy, trace.events_applied)
    table = compute_entitlements(final_hierarchy, args.entitle_mode)
    t_star = convergence_time(trace, table, args.epsilon)

    if args.trace:
        try:
            with open(args.trace, "w") as fh:
                export_trace(trace, fh)
        except OSError as exc:
            raise FairshareError(f"{args.trace}: {exc.strerror or exc}") from exc
        print(f"Trace written to {args.trace}", file=sys.stderr)

    print(f"Simulation: {scenario.label} ({config.mode}, {config.duration:g}s, seed {config.seed})")
    print()
    print("User Ucpu Entitled Thru RTime")
    for user in trace.users:
        row = trace.perf.rows.get(user)
        thru = f"{row.throughput:.4f}" if row else "n/a"
        rtime = f"{row.response:.4f}" if row else "n/a"
        print(f"{user} {trace.utilization(user):.4f} {table.entitlements[user]:.4f} {thru} {rtime}")
    for note in trace.perf.notes:
        print(f"note: {note}")
    if t_star is None:
        print(f"Convergence (epsilon {args.epsilon:g}): not converged")
    else:
        print(f"Convergence (epsilon {args.epsilon:g}): t={t_star:g}s")
    return 0


def _cmd_advise(args) -> int:
    with _open(args.slo_file) as fh:
        targets = parse_slo_file(fh.read())
    plan = allocate_topdown(targets, args.total_shares)
    sys.stdout.write(render_plan(plan))
    return 0


def _cmd_monitor(args) -> int:
    scenario = _load_scenario(args.scenario)
    table = compute_entitlements(scenario.hierarchy, args.mode)
    with _open(args.ps_log) as fh:
        log = parse_ps_log(fh)
    if log.skipped:
        print(f"note: skipped {log.skipped} malformed line(s)", file=sys.stderr)
    report = goal_deviation(log.samples, table, args.window, threshold=args.threshold)
    sys.stdout.write(render_deviation(report))
    return 2 if report.exceeded else 0


_COMMANDS = {
    "entitle": _cmd_entitle,
    "report": _cmd_report,
    "compare": _cmd_compare,
    "simulate": _cmd_simulate,
    "advise": _cmd_advise,
    "monitor": _cmd_monitor,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the toolkit reserves 2 for
        # infeasible plans and exceeded thresholds.
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except FairshareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InfeasiblePlanError) else 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

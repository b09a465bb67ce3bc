"""Spans around the program's layers, recorded from outside the program.

``Tracer.patched()`` wraps each layer's public functions and rebinds every
module global that names them (``fairshare.report.solve_ts``,
``fairshare.cli.parse_scenario`` ...), so calls between layers pass
through a wrapper; it restores the originals on exit.  Spans live in
memory until ``write`` dumps them at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
from dataclasses import asdict, dataclass, field
from time import perf_counter_ns

LAYERS = ("cli", "scenario", "shares", "mva", "sim", "planning", "report")

TRACED = (
    "scenario.parse_scenario",
    "shares.compute_entitlements",
    "shares.least_upper_bounds",
    "shares.apply_events",
    "mva.solve_ts",
    "mva.solve_srm_partition",
    "mva.solve_srm_conserving",
    "sim.run_sim",
    "sim.trace_perf",
    "sim.convergence_time",
    "planning.parse_ps_log",
    "planning.goal_deviation",
    "planning.allocate_topdown",
    "planning.parse_slo_file",
    "report.run_scenario",
    "report.render_report",
    "report.cross_compare",
)
FUNCTIONS = ("cli.main",) + TRACED  # cli.main is wrapped where the benchmark calls it

QUANTIZED_MODES = ("fairshare-flat", "fairshare-hierarchical", "ts-roundrobin")
FLUID_MODE = "ts-ps-reference"


@dataclass
class Span:
    name: str
    op: int
    parent: int
    start_ns: int
    end_ns: int = 0
    raised: bool = False
    work: dict = field(default_factory=dict)


def _states(args, kwargs, result) -> dict:
    workload = args[0] if args else kwargs["w"]
    return {"states": math.prod(c.procs + 1 for c in workload.classes)}


def _sim_work(args, kwargs, result) -> dict:
    config = args[3] if len(args) > 3 else kwargs["config"]
    return {"mode": config.mode, "quanta": int(round(config.duration / config.quantum)),
            "sim_s": config.duration}


def _ps_lines(args, kwargs, result) -> dict:
    return {"lines": len(result.samples) + result.skipped, "skipped": result.skipped}


def _pid_windows(args, kwargs, result) -> dict:
    samples = args[0] if args else kwargs["samples"]
    pids = len({(s.user, s.pid) for s in samples})
    return {"pid_windows": pids * len(result.windows)}


WORK = {
    "mva.solve_ts": _states,
    "sim.run_sim": _sim_work,
    "planning.parse_ps_log": _ps_lines,
    "planning.goal_deviation": _pid_windows,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1
        self._bindings = self._bind()

    def wrap(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.op, self._stack[-1] if self._stack else -1, 0)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start_ns = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end_ns = perf_counter_ns()
                self._stack.pop()
            if work:
                span.work = work(args, kwargs, result)
            return result

        return traced

    def _bind(self):
        """(module, attribute, original, wrapper) for every global naming a traced function."""
        modules = [importlib.import_module("fairshare")]
        modules += [importlib.import_module(f"fairshare.{layer}") for layer in LAYERS]
        wrappers = {}
        for name in TRACED:
            layer, fn_name = name.split(".")
            fn = getattr(importlib.import_module(f"fairshare.{layer}"), fn_name)
            wrappers[id(fn)] = (fn, self.wrap(name, fn))
        bindings = []
        for module in modules:
            for attr, value in vars(module).items():
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    bindings.append((module, attr) + wrappers[id(value)])
        return bindings

    @contextlib.contextmanager
    def patched(self):
        """Route calls to the traced functions through spans, then restore them."""
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._bindings:
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def layer_metrics(spans: list[Span], scales: list[float]) -> dict[str, float]:
    """Per-function calls, self time and raises, plus work counts and unit costs.

    Times are scaled by ``scales[span.op]``, the speed scale of the op.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.end_ns - span.start_ns
    out: dict[str, float] = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.raised"] = 0
    mode_self = dict.fromkeys(QUANTIZED_MODES + (FLUID_MODE,), 0.0)
    mode_work = dict.fromkeys(QUANTIZED_MODES + (FLUID_MODE,), 0.0)
    work = {"states": 0, "lines": 0, "skipped": 0, "pid_windows": 0}
    work_s = dict.fromkeys(work, 0.0)  # self time of the spans that did the work
    for i, span in enumerate(spans):
        self_s = scales[span.op] * (span.end_ns - span.start_ns - child_ns[i]) / 1e9
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.self_s"] += self_s
        out[f"{span.name}.raised"] += span.raised
        if "mode" in span.work:
            mode = span.work["mode"]
            mode_self[mode] += self_s
            mode_work[mode] += span.work["sim_s" if mode == FLUID_MODE else "quanta"]
        for key in work:
            if key in span.work:
                work[key] += span.work[key]
                work_s[key] += self_s

    def per_unit(seconds, count):
        return 1e6 * seconds / count if count else 0.0

    for mode in mode_self:
        out[f"sim.run_sim.{mode}.self_s"] = mode_self[mode]
    for mode in QUANTIZED_MODES:
        out[f"sim.run_sim.{mode}.us_per_quantum"] = per_unit(mode_self[mode], mode_work[mode])
    out[f"sim.run_sim.{FLUID_MODE}.us_per_sim_s"] = per_unit(
        mode_self[FLUID_MODE], mode_work[FLUID_MODE])
    out["mva.solve_ts.states"] = work["states"]
    out["mva.solve_ts.us_per_state"] = per_unit(work_s["states"], work["states"])
    out["planning.parse_ps_log.lines"] = work["lines"]
    out["planning.parse_ps_log.skipped"] = work["skipped"]
    out["planning.parse_ps_log.us_per_line"] = per_unit(work_s["lines"], work["lines"])
    out["planning.goal_deviation.pid_windows"] = work["pid_windows"]
    out["planning.goal_deviation.us_per_pid_window"] = per_unit(
        work_s["pid_windows"], work["pid_windows"])
    return out


def inclusive_share(spans: list[Span]) -> dict[str, float]:
    """Each function's inclusive time as a share of all traced op time."""
    ops_ns = sum(s.end_ns - s.start_ns for s in spans if s.name == "cli.main")
    totals: dict[str, int] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0) + span.end_ns - span.start_ns
    return {name: ns / ops_ns for name, ns in totals.items()} if ops_ns else {}

"""Time library layers in one or more checkouts and write BENCH records.

    python3 scripts/bench_mva.py --tree before=PARENT_CHECKOUT --tree after=. \\
        --e2e sim-crowd --out BENCH_10.json

Each ``--tree LABEL=PATH`` names a checkout.  Each layer is timed from that
checkout's ``src`` in a fresh interpreter:

- ``cli.main`` on ``entitle report5.fsp``: its first call in the
  interpreter, and later calls, reported apart;
- ``cli.build_parser``, the uncached build where the checkout caches it;
- ``scenario.parse_scenario`` on ``report1..5`` and on the ``sim-crowd``
  workload's 251-line scenario at seed 1 (``bench_crowd`` below);
- ``planning.parse_slo_file`` on ``slo-example.txt``;
- ``mva.solve_ts`` on the shipped scenarios ``report1..5`` and on synthetic
  workloads of about 1e4, 1e6 and 4.8e6 population vectors;
- ``planning.parse_ps_log`` on a seeded day-long ps log (``day_log`` below);
- ``planning.goal_deviation`` on that log at 300, 60 and 10 s windows;
- ``sim.run_sim`` in every mode on ``report4`` for 300 s and on a
  synthetic crowd of 200 users with 2 processes each in 20 groups for 60 s
  (``crowd`` in ``TIMER``: even users CPU bound, odd users thinking);
- ``shares.apply_events`` and ``sim.validate_timeline`` on that crowd with
  30 activity events and on 2000 users in 200 groups with 1000 events;
- ``report.render_report`` on the reports of ``report1..5``;
- cold starts (``COLD_STARTS``): the wall time of a fresh interpreter that
  imports ``fairshare.cli``, and of one-shot ``python -m fairshare.cli``
  commands, ``COLD_REPEATS`` of each per round.

Each case is called once untimed (counted as a sample when it takes over a
second) and then enough times to fill about 1 s, up to 2000 calls.  The
trees take turns for ROUNDS rounds, so that a drift in the host's speed
falls on every tree alike.

Each ``--e2e WORKLOAD`` adds end-to-end records from the results that
``python3 bench/run.py --workload WORKLOAD --seed N --trace 0`` left in the
checkout's ``.bench_work/results``: per metric, the median, minimum and
quartiles over the seeds found there.  Only results of the checkout's
current source count: those whose ``meta.src_sha256`` is the digest of
its ``src/fairshare/*.py``, taken as ``bench/run.py`` takes it.

Every record has the fields ``case, layer, size, repeats, median_s, min_s,
per_unit, work_counters, python, numpy, commit``; ``per_unit`` is µs per
population vector for ``solve_ts``, per log line (samples and skipped lines)
for ``parse_ps_log``, per window for ``goal_deviation``, and for ``run_sim``
per quantum in the quantized modes and per simulated second in
``ts-ps-reference``, per output line for ``render_report``, per user
plus event for ``apply_events`` and ``validate_timeline``, per call for
``cli.main``, per build for ``cli.build_parser``, per input line for
``parse_scenario`` and ``parse_slo_file`` and per process for the cold starts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

# (label, procs per class) of the synthetic cases; class i thinks
# (0, 1.5, 4)[i % 3] s and demands 0.2 + 0.15 i s.
SYNTHETIC = (("3x21", (21,) * 3), ("3x99", (99,) * 3), ("6x12", (12,) * 6))
SCENARIOS = ("report1", "report2", "report3", "report4", "report5")
WINDOWS = (300, 60, 10)
E2E_METRICS = ("setup_s", "op_p50_s", "op_p90_s", "cpu_per_op_s")
ROUNDS = 3
# (case, interpreter arguments); {s} is the checkout's scenario directory.
COLD_STARTS = (
    ("import fairshare.cli", ("-c", "import fairshare.cli")),
    ("entitle report5", ("-m", "fairshare.cli", "entitle", "{s}/report5.fsp")),
    ("advise slo-example", ("-m", "fairshare.cli", "advise", "{s}/slo-example.txt",
                            "--total-shares", "100")),
    ("simulate report4 30s", ("-m", "fairshare.cli", "simulate", "{s}/report4.fsp",
                              "--duration", "30", "--warmup", "5")),
    ("report report5", ("-m", "fairshare.cli", "report", "{s}/report5.fsp")),
)
COLD_REPEATS = 4


def day_log() -> str:
    """A day of once-a-minute ``ps aux`` blocks of 20 pids of 8 users, each
    block under a column header.

    Every process is replaced every two hours, at staggered minutes, by a
    new one on the same pid whose TIME restarts at 0, so the monitor sees
    pid reuse all day: 240 processes in all.
    """
    rng = random.Random(1)
    procs = [[f"u{rng.randrange(8)}", 1000 + 7 * n, rng.randrange(100_000)]
             for n in range(20)]  # user, pid, cumulative CPU in centiseconds
    lines = []
    for minute in range(1440):
        lines.append(f"T {1_700_000_000 + 60 * minute}")
        lines.append("USER PID %CPU %MEM SZ RSS TT S START TIME COMMAND")
        for n, proc in enumerate(procs):
            if minute and minute % 120 == 6 * n:
                proc[2] = 0
            else:
                proc[2] += rng.randrange(600)
            user, pid, cs = proc
            lines.append(f"{user} {pid} 1.0 0.4 81234 5120 ?? S 10:00AM "
                         f"{cs // 6000}:{cs % 6000 / 100:05.2f} /usr/bin/job-{n}")
    return "\n".join(lines) + "\n"


def bench_crowd() -> str:
    """The ``sim-crowd`` workload's scenario at seed 1: 200 users, 20 groups, 30 events."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    sys.path.insert(0, str(bench))
    import gen

    with tempfile.TemporaryDirectory() as work:
        gen.sim_crowd(1, Path(work), bench.parent)
        return (Path(work) / "crowd.fsp").read_text()


# Runs in the checkout's interpreter, with ``day_log()`` on stdin; prints
# one JSON object per case.
TIMER = r"""
import contextlib, json, math, os, random, sys, time
from importlib import metadata
from pathlib import Path
from fairshare import cli
from fairshare.mva import ClassLoad, WorkloadSpec, solve_ts
from fairshare.planning import goal_deviation, parse_ps_log, parse_slo_file
from fairshare.report import render_report, run_scenario
from fairshare.scenario import parse_scenario
from fairshare.shares import (GroupAlloc, ShareHierarchy, UserAlloc, apply_events,
                              compute_entitlements)
from fairshare.sim import SIM_MODES, SimConfig, TimelineEvent, run_sim, validate_timeline

def timed(call):
    t = time.perf_counter(); result = call(); first = time.perf_counter() - t
    samples = [first] if first > 1.0 else []
    for _ in range(min(2000, round(1.0 / first)) - len(samples)):
        t = time.perf_counter(); call(); samples.append(time.perf_counter() - t)
    return result, samples

def emit(case, layer, timings, size, **work):
    print(json.dumps({
        "case": case, "layer": layer, "samples": timings, "size": size, "work": work,
        "python": sys.version.split()[0], "numpy": metadata.version("numpy"),
    }))

root = Path(sys.argv[1])
# The first cli.main call in this interpreter pays for anything built on
# first use; later calls show the fixed cost of each small command.
argv = ["entitle", str(root / "scenarios" / "report5.fsp")]
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    t = time.perf_counter(); cli.main(argv); first = time.perf_counter() - t
    _, samples = timed(lambda: cli.main(argv))
emit("main entitle report5 first", "cli.main", [first], 1)
emit("main entitle report5 later", "cli.main", samples, 1)
build = getattr(cli.build_parser, "__wrapped__", cli.build_parser)  # bypass a cache
_, samples = timed(build)
emit("build_parser", "cli.build_parser", samples, 1)

texts = {name: (root / "scenarios" / f"{name}.fsp").read_text()
         for name in json.loads(sys.argv[2])}
texts["crowd"] = sys.argv[5]
for name, text in texts.items():
    _, samples = timed(lambda: parse_scenario(text))
    lines = text.count("\n")
    emit(f"parse_scenario {name}", "scenario.parse_scenario", samples, lines, lines=lines)
text = (root / "scenarios" / "slo-example.txt").read_text()
_, samples = timed(lambda: parse_slo_file(text))
lines = text.count("\n")
emit("parse_slo_file slo-example", "planning.parse_slo_file", samples, lines, lines=lines)

cases = [(name, parse_scenario((root / "scenarios" / f"{name}.fsp").read_text()).workload)
         for name in json.loads(sys.argv[2])]
for name, procs in json.loads(sys.argv[3]):
    cases.append((name, WorkloadSpec(tuple(
        ClassLoad(f"u{i}", n, (0.0, 1.5, 4.0)[i % 3], 0.2 + 0.15 * i)
        for i, n in enumerate(procs)))))
for name, w in cases:
    _, samples = timed(lambda: solve_ts(w))
    states = math.prod(c.procs + 1 for c in w.classes)
    emit(f"solve_ts {name}", "mva.solve_ts", samples, states, states=states,
         classes=len(w.classes), levels=sum(c.procs for c in w.classes))

# 200 users in 20 groups of 10, 2 processes each; even users are CPU bound,
# odd ones think 1-5 s; demands run from 0.05 to 1 s.
users = [UserAlloc(f"u{i:03d}", 1 + i % 7, True) for i in range(200)]
crowd = (ShareHierarchy(sum(u.shares for u in users), tuple(
    GroupAlloc(f"G{g:02d}", sum(u.shares for u in users[10 * g:10 * g + 10]),
               tuple(users[10 * g:10 * g + 10]))
    for g in range(20))), WorkloadSpec(tuple(
    ClassLoad(u.name, 2, 0.0 if i % 2 == 0 else 1.0 + i % 5, 0.05 + 0.05 * (i % 20))
    for i, u in enumerate(users))))
report4 = parse_scenario((root / "scenarios" / "report4.fsp").read_text())
for name, (h, w), duration in (("crowd", crowd, 60.0),
                               ("report4", (report4.hierarchy, report4.workload), 300.0)):
    for mode in SIM_MODES:
        config = SimConfig(duration=duration, mode=mode)
        trace, samples = timed(lambda: run_sim(h, w, (), config))
        quanta = round(duration / config.quantum)
        emit(f"run_sim {name} {mode}", "sim.run_sim", samples,
             duration if mode == "ts-ps-reference" else quanta,
             users=len(w.classes), procs=sum(c.procs for c in w.classes),
             cycles=sum(map(len, trace.cycles.values())), quanta=quanta,
             sim_seconds=duration)

# Activity events at sorted times, each naming a random user and action.
many = [UserAlloc(f"v{i:04d}", 1 + i % 7, True) for i in range(2000)]
many = ShareHierarchy(sum(u.shares for u in many), tuple(
    GroupAlloc(f"H{g:03d}", sum(u.shares for u in many[10 * g:10 * g + 10]),
               tuple(many[10 * g:10 * g + 10]))
    for g in range(200)))
for name, h, n_events in (("crowd", crowd[0], 30), ("2000x1000", many, 1000)):
    rng = random.Random(12)
    names = h.user_names()
    events = [TimelineEvent(t, rng.choice(("activate", "deactivate")), rng.choice(names))
              for t in sorted(rng.uniform(0.0, 60.0) for _ in range(n_events))]
    for layer, call in (("shares.apply_events", lambda: apply_events(h, events)),
                        ("sim.validate_timeline", lambda: validate_timeline(events, h))):
        _, samples = timed(call)
        emit(f"{layer.partition('.')[2]} {name}", layer, samples, len(names) + n_events,
             users=len(names), events=n_events)

for name in json.loads(sys.argv[2]):
    report = run_scenario(parse_scenario((root / "scenarios" / f"{name}.fsp").read_text(), name))
    out, samples = timed(lambda: render_report(report))
    lines = out.count("\n")
    emit(f"render_report {name}", "report.render_report", samples, lines, lines=lines,
         users=len(report.hierarchy.user_names()), groups=len(report.hierarchy.groups))

text = sys.stdin.read()
log, samples = timed(lambda: parse_ps_log(text))
lines = len(log.samples) + log.skipped
emit("parse_ps_log day", "planning.parse_ps_log", samples, lines, lines=lines,
     skipped=log.skipped)
# Entitlements by user number; the last user is in no group, so its
# processes pool under "unallocated".
users = sorted({s.user for s in log.samples})
table = compute_entitlements(ShareHierarchy(sum(range(1, len(users))), tuple(
    GroupAlloc(f"G{i}", i, (UserAlloc(user, i, True),))
    for i, user in enumerate(users[:-1], start=1))))
pids = len({(s.user, s.pid) for s in log.samples})
for window in json.loads(sys.argv[4]):
    report, samples = timed(lambda: goal_deviation(log.samples, table, float(window)))
    emit(f"goal_deviation day w{window}", "planning.goal_deviation", samples,
         len(report.windows), windows=len(report.windows), pids=pids,
         samples=len(log.samples))
"""


def describe(tree: Path) -> str:
    out = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def time_layers(tree: Path, log_text: str, crowd_text: str) -> list[dict]:
    """One round of every case in a fresh interpreter on ``tree``'s src."""
    proc = subprocess.run(
        [sys.executable, "-c", TIMER, str(tree), json.dumps(SCENARIOS), json.dumps(SYNTHETIC),
         json.dumps(WINDOWS), crowd_text],
        env=dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0"),
        input=log_text, stdout=subprocess.PIPE, text=True, check=True,
    )
    return [json.loads(line) for line in proc.stdout.splitlines()]


def time_cold_starts(tree: Path) -> list[dict]:
    """One round of fresh-interpreter wall times on ``tree``'s src, in TIMER's record shape."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    cases = []
    for case, args in COLD_STARTS:
        argv = [sys.executable, *(a.format(s=tree / "scenarios") for a in args)]
        samples = []
        for _ in range(COLD_REPEATS):
            t = time.perf_counter()
            subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True)
            samples.append(time.perf_counter() - t)
        cases.append({"case": f"cold {case}", "layer": "process", "samples": samples, "size": 1,
                      "work": {}, "python": sys.version.split()[0],
                      "numpy": metadata.version("numpy")})
    return cases


def layer_records(label: str, tree: Path, rounds: list[list[dict]]) -> list[dict]:
    commit = describe(tree)
    records = []
    for cases in zip(*rounds):
        case = cases[0]
        samples = [t for c in cases for t in c["samples"]]
        median = statistics.median(samples)
        records.append({
            "case": f"{case['case']} {label}",
            "layer": case["layer"],
            "size": case["size"],
            "repeats": len(samples),
            "median_s": median,
            "min_s": min(samples),
            "per_unit": median / case["size"] * 1e6,
            "work_counters": case["work"],
            "python": case["python"],
            "numpy": case["numpy"],
            "commit": commit,
        })
    return records


def src_digest(tree: Path) -> str:
    """The digest ``bench/run.py`` records as ``meta.src_sha256`` for ``tree``'s source."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "fairshare").glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def e2e_records(label: str, tree: Path, workload: str) -> list[dict]:
    found = [json.loads(path.read_text()) for path in
             sorted((tree / ".bench_work" / "results").glob(f"{workload}-seed*-trace0.json"))]
    digest = src_digest(tree)
    runs = [run for run in found if run["meta"].get("src_sha256") == digest]
    if not runs:
        raise SystemExit(f"no {workload} results of this source ({digest}) under "
                         f"{tree}/.bench_work/results; skipped {len(found)} of other source")
    meta = runs[0]["meta"]
    records = []
    for metric in E2E_METRICS:
        values = [run["result"]["metrics"][metric]["value"] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        records.append({
            "case": f"{workload} {metric} {label}",
            "layer": "end-to-end",
            "size": sum(run["result"]["attempted"] for run in runs),
            "repeats": len(runs),
            "median_s": statistics.median(values),
            "min_s": min(values),
            "per_unit": None,
            "work_counters": {
                "seeds": [run["meta"]["seed"] for run in runs],
                "failed": sum(run["result"]["failed"] for run in runs),
                "skipped": len(found) - len(runs),
                "q1_s": q1,
                "q3_s": q3,
            },
            "python": meta["python"],
            "numpy": meta["numpy"],
            "commit": describe(tree),
        })
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=PATH")
    parser.add_argument("--e2e", action="append", default=[], metavar="WORKLOAD")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    trees = [(label, Path(path).resolve()) for label, _, path in
             (spec.partition("=") for spec in args.tree)]
    log_text = day_log()
    crowd_text = bench_crowd()
    rounds = {label: [] for label, _ in trees}
    for _ in range(ROUNDS):
        for label, tree in trees:
            rounds[label].append(time_layers(tree, log_text, crowd_text)
                                 + time_cold_starts(tree))
    records = []
    for label, tree in trees:
        records += layer_records(label, tree, rounds[label])
        for workload in args.e2e:
            records += e2e_records(label, tree, workload)
    Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    units = {"mva.solve_ts": "state", "planning.parse_ps_log": "line",
             "planning.goal_deviation": "window", "report.render_report": "line",
             "shares.apply_events": "user+event", "sim.validate_timeline": "user+event",
             "cli.main": "call", "cli.build_parser": "build", "scenario.parse_scenario": "line",
             "planning.parse_slo_file": "line",
             "process": "process"}
    for r in records:
        per = units.get(r["layer"]) or ("sim s" if "ts-ps-reference" in r["case"] else "quantum")
        unit = "" if r["per_unit"] is None else f"  {r['per_unit']:.3f} us/{per}"
        print(f"{r['case']:40s} {r['median_s']:.6g} s (min {r['min_s']:.6g}, n={r['repeats']}){unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

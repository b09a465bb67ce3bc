"""Time ``mva.solve_ts`` in one or more checkouts and write BENCH records.

    python3 scripts/bench_mva.py --tree before=PARENT_CHECKOUT --tree after=. \\
        --e2e mva-population --e2e admin-session --out BENCH_5.json

Each ``--tree LABEL=PATH`` names a checkout.  ``solve_ts`` is timed from
that checkout's ``src`` in a fresh interpreter, on the shipped scenarios
``report1..5`` and on synthetic workloads of about 1e4, 1e6 and 4.8e6
population vectors.  Each case is called once untimed (counted as a sample
when it takes over a second) and then enough times to fill about 1 s, up
to 2000 calls.  The trees take turns for ROUNDS rounds, so that a drift in
the host's speed falls on every tree alike.

Each ``--e2e WORKLOAD`` adds end-to-end records from the results that
``python3 bench/run.py --workload WORKLOAD --seed N --trace 0`` left in the
checkout's ``.bench_work/results``: per metric, the median, minimum and
quartiles over the seeds found there.

Every record has the fields ``case, layer, size, repeats, median_s, min_s,
per_unit, work_counters, python, numpy, commit``; ``per_unit`` is µs per
population vector for solver cases.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# (label, procs per class) of the synthetic cases; class i thinks
# (0, 1.5, 4)[i % 3] s and demands 0.2 + 0.15 i s.
SYNTHETIC = (("3x21", (21,) * 3), ("3x99", (99,) * 3), ("6x12", (12,) * 6))
SCENARIOS = ("report1", "report2", "report3", "report4", "report5")
E2E_METRICS = ("setup_s", "op_p50_s", "op_p90_s", "cpu_per_op_s")
ROUNDS = 3

# Runs in the checkout's interpreter; prints one JSON object per case.
TIMER = r"""
import json, math, sys, time
from importlib import metadata
from pathlib import Path
from fairshare.mva import ClassLoad, WorkloadSpec, solve_ts
from fairshare.scenario import parse_scenario

root = Path(sys.argv[1])
cases = [(name, parse_scenario((root / "scenarios" / f"{name}.fsp").read_text()).workload)
         for name in json.loads(sys.argv[2])]
for name, procs in json.loads(sys.argv[3]):
    cases.append((name, WorkloadSpec(tuple(
        ClassLoad(f"u{i}", n, (0.0, 1.5, 4.0)[i % 3], 0.2 + 0.15 * i)
        for i, n in enumerate(procs)))))
for name, w in cases:
    t = time.perf_counter(); solve_ts(w); first = time.perf_counter() - t
    samples = [first] if first > 1.0 else []
    for _ in range(min(2000, round(1.0 / first)) - len(samples)):
        t = time.perf_counter(); solve_ts(w); samples.append(time.perf_counter() - t)
    print(json.dumps({
        "case": name, "samples": samples,
        "states": math.prod(c.procs + 1 for c in w.classes),
        "classes": len(w.classes), "levels": sum(c.procs for c in w.classes),
        "python": sys.version.split()[0], "numpy": metadata.version("numpy"),
    }))
"""


def describe(tree: Path) -> str:
    out = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def time_solver(tree: Path) -> list[dict]:
    """One round of the solver cases in a fresh interpreter on ``tree``'s src."""
    proc = subprocess.run(
        [sys.executable, "-c", TIMER, str(tree), json.dumps(SCENARIOS), json.dumps(SYNTHETIC)],
        env=dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0"),
        capture_output=True, text=True, check=True,
    )
    return [json.loads(line) for line in proc.stdout.splitlines()]


def solver_records(label: str, tree: Path, rounds: list[list[dict]]) -> list[dict]:
    commit = describe(tree)
    records = []
    for cases in zip(*rounds):
        case = cases[0]
        samples = [t for c in cases for t in c["samples"]]
        median = statistics.median(samples)
        records.append({
            "case": f"solve_ts {case['case']} {label}",
            "layer": "mva.solve_ts",
            "size": case["states"],
            "repeats": len(samples),
            "median_s": median,
            "min_s": min(samples),
            "per_unit": median / case["states"] * 1e6,
            "work_counters": {k: case[k] for k in ("states", "classes", "levels")},
            "python": case["python"],
            "numpy": case["numpy"],
            "commit": commit,
        })
    return records


def e2e_records(label: str, tree: Path, workload: str) -> list[dict]:
    runs = [json.loads(path.read_text()) for path in
            sorted((tree / ".bench_work" / "results").glob(f"{workload}-seed*-trace0.json"))]
    if not runs:
        raise SystemExit(f"no {workload} results under {tree}/.bench_work/results")
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
    rounds = {label: [] for label, _ in trees}
    for _ in range(ROUNDS):
        for label, tree in trees:
            rounds[label].append(time_solver(tree))
    records = []
    for label, tree in trees:
        records += solver_records(label, tree, rounds[label])
        for workload in args.e2e:
            records += e2e_records(label, tree, workload)
    Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    for r in records:
        unit = "" if r["per_unit"] is None else f"  {r['per_unit']:.3f} us/state"
        print(f"{r['case']:40s} {r['median_s']:.6g} s (min {r['min_s']:.6g}, n={r['repeats']}){unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

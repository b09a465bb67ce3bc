"""Benchmark of the fairshare command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Generates the workload's inputs from the seed, then runs ``cli.main``
in-process in a fresh interpreter: one thread, one closed-loop client, each
op starting when the previous one has returned.  Every output is checked.
The last stdout line is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from spans recorded around each
layer's public functions) with ``--trace 1``.  ``--workload all`` runs
every workload both ways and prints each metric by name with its unit.

Workloads: admin-session (every subcommand on the shipped scenarios),
mva-population (time-share MVA on 1e4-1e6 population states), sim-crowd
(the simulator on a 200-user hierarchy in all four modes) and monitor-day
(the ps-log monitor on day-long logs).  Inputs are written under
``.bench_work/`` and removed after the run; spans and full results stay in
``.bench_work/spans`` and ``.bench_work/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import probes  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = tuple(gen.GENERATORS)
SETUP_RUNS = 7  # fresh interpreters timed per run; setup_s is their median

# Set-up is mostly imports, whose speed on a shared host drifts with file
# system and memory load as well as with the CPU.  Each set-up sample is
# bracketed by two runs of a fixed import of numpy and some stdlib packages,
# and scaled to the speed at which that import takes REF_IMPORT_S.
REF_IMPORT = ("import time; t = time.perf_counter(); "
              "import numpy, decimal, email.parser, xml.dom.minidom; "
              "print(time.perf_counter() - t)")
REF_IMPORT_S = 0.095
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "ops_per_s": "ops/s",
    "cpu_per_op_s": "s",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracing.FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.raised"] = "count"
    units["mva.solve_ts.states"] = "count"
    units["mva.solve_ts.us_per_state"] = "us"
    for mode in tracing.QUANTIZED_MODES + (tracing.FLUID_MODE,):
        units[f"sim.run_sim.{mode}.self_s"] = "s"
    for mode in tracing.QUANTIZED_MODES:
        units[f"sim.run_sim.{mode}.us_per_quantum"] = "us"
    units[f"sim.run_sim.{tracing.FLUID_MODE}.us_per_sim_s"] = "us"
    units["planning.parse_ps_log.lines"] = "count"
    units["planning.parse_ps_log.skipped"] = "count"
    units["planning.parse_ps_log.us_per_line"] = "us"
    units["planning.goal_deviation.pid_windows"] = "count"
    units["planning.goal_deviation.us_per_pid_window"] = "us"
    units["trace.overhead_frac"] = "ratio"
    for name in ("probe.bad_input.rejected", "probe.bad_input.total",
                 "probe.monitor_pid_reuse.ok", "selfcheck.caught", "selfcheck.total"):
        units[name] = "count"
    return units


PER_LAYER = per_layer_units()


def run_metadata() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fairshare").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
    }


def _python(args: list[str], deadline: float) -> str:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable] + args, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def _worker(manifest: Path, result: Path, extra: list[str], deadline: float) -> dict:
    _python([str(BENCH / "worker.py"), str(manifest), str(result)] + extra, deadline)
    return json.loads(result.read_text())


def _setup_times(manifest: Path, work: Path, deadline: float) -> list[float]:
    """Scaled set-up time of SETUP_RUNS fresh interpreters."""
    refs = [float(_python(["-c", REF_IMPORT], deadline))]
    times = []
    for i in range(SETUP_RUNS):
        setup = _worker(manifest, work / f"setup{i}.json", ["--setup-only"], deadline)["setup_s"]
        refs.append(float(_python(["-c", REF_IMPORT], deadline)))
        times.append(setup * 2 * REF_IMPORT_S / (refs[-2] + refs[-1]))
    return times


def e2e_metrics(walls, cpus, setups, failed: int, peak_rss_mb: float) -> dict[str, float]:
    attempted = len(walls)
    return {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(walls),
        "op_p90_s": statistics.quantiles(walls, n=10)[-1],
        "ops_per_s": (attempted - failed) / sum(walls),
        "cpu_per_op_s": sum(cpus) / attempted,
        "ok_rate": 1.0 - failed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Generate inputs, run the worker(s), and return the result object."""
    deadline = time.monotonic() + DEADLINE_S
    out_dir = ROOT / ".bench_work"
    work = out_dir / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    for sub in ("spans", "results"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    try:
        manifest = gen.GENERATORS[workload](seed, work, ROOT)
        manifest["inputs"] = sorted({a for op in manifest["ops"] for a in op["argv"]
                                     if Path(a).is_file()})
        manifest["probes"] = probes.write_inputs(work)
        manifest["spans"] = str(out_dir / "spans" / f"{workload}-seed{seed}.jsonl")
        manifest_path = work / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))

        extra = ["--seconds", str(seconds), "--trace", str(trace)]
        main = _worker(manifest_path, work / "result.json", extra, deadline)
        setup = [] if trace else _setup_times(manifest_path, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [w * k for w, k in zip(main["walls"], main["scales"])]
    failed = len(main["failures"])
    attempted = len(walls)
    if trace:
        values = dict(main["layers"])
        values["selfcheck.caught"] = main["selfcheck.caught"]
        values["selfcheck.total"] = main["selfcheck.total"]
        units = PER_LAYER
    else:
        values = e2e_metrics(walls, [c * k for c, k in zip(main["cpus"], main["scales"])],
                             setup, failed, main["peak_rss_mb"])
        raw = e2e_metrics(main["walls"], main["cpus"], [main["setup_s"]], failed,
                          main["peak_rss_mb"])
        units = END_TO_END
    correct = failed == 0 and main["selfcheck.caught"] == main["selfcheck.total"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    p90 = statistics.quantiles(walls, n=10)[-1]
    meta = dict(run_metadata(), workload=workload, seed=seed, seconds=seconds, trace=trace,
                passes=main["passes"], samples=attempted,
                samples_above_p90=sum(w > p90 for w in walls),
                calibration_s={kind: statistics.median(c[kind] for c in main["calibrations"])
                               for kind in main["calibrations"][0]},
                unscaled=raw if not trace else {}, failures=main["failures"][:20],
                layer_shares=main.get("shares", {}))
    (out_dir / "results" / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"meta": meta, "result": result}, indent=1))
    return {"meta": meta, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/fairshare/cli.py", "scenarios/report4.fsp", "tests/golden")
               if not (ROOT / p).exists()]
    if missing:
        print(f"cannot benchmark: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2

    if args.workload != "all":
        out = run_one(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps({"meta": out["meta"]}))
        print(json.dumps(out["result"]))
        return 0

    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = run_one(workload, args.seed, args.seconds, trace)
            res = out["result"]
            ok &= res["correct"]
            print(f"== {workload} trace={trace} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                print(f"{workload:15s} {name:45s} {m['value']:14.6g} {m['unit']}")
            top = sorted(out["meta"]["layer_shares"].items(), key=lambda kv: -kv[1])[1:4]
            if top:
                print(f"{workload:15s} inclusive share of op time: "
                      + ", ".join(f"{name} {share:.1%}" for name, share in top))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Summarize ``bench/run.py`` results of one or more checkouts as BENCH records.

    python3 -m compileall -q PARENT_CHECKOUT/src src    # the same bytecode state in both trees
    for seed in 1 2 3; do
        trees="PARENT_CHECKOUT ."    # the other tree runs first on even seeds
        [ $((seed % 2)) = 0 ] && trees=". PARENT_CHECKOUT"
        for tree in $trees; do
            for trace in 0 1; do
                (cd $tree && python3 bench/run.py --workload sim-crowd --seed $seed --trace $trace)
            done
        done
    done
    python3 scripts/bench_mva.py --tree parent=PARENT_CHECKOUT --tree change=. \\
        --workload sim-crowd --out BENCH_N.json

Before the pairs run, both checkouts hold the same bytecode state: both
compiled, as above, or both cleaned of ``__pycache__``.  A run imports
the toolkit several times faster from bytecode, so ``setup_s`` of trees
in different states compares their caches, not their code.

This script times nothing.  It reads the results that ``bench/run.py``
left in each ``--tree LABEL=PATH`` checkout's ``.bench_work/results``, and
only those of the checkout's current source: results whose
``meta.src_sha256`` is the digest of its ``src/fairshare/*.py``, taken as
``bench/run.py`` takes it.  Results of other source are skipped and
counted.

For each ``--workload``, the ``--trace 0`` results give one end-to-end
record per metric they carry, every one that ``bench/run.py`` reports: the
median, minimum and quartiles over the seeds found, in the metric's own
unit, which ``work_counters['unit']`` names.  So the ``median_s``,
``min_s``, ``q1_s`` and ``q3_s`` of ``ops_per_s``, ``ok_rate`` and
``peak_rss_mb`` hold ops/s, a ratio and MB.  The ``--trace 1`` results, where there are any,
give one layer record per traced function that was called and per
``sim.run_sim`` mode that ran.  Its times are the layer's self time per
benchmark op (``self_s / cli.main.calls`` of each seed), so trees that run
a different number of ops in the same time stay comparable, and their unit
is s.  Its
``per_unit`` is the median of the tracer's own ``us_per_*`` metric where it
reports one (µs per population state, quantum, simulated second, log line
or pid-window), and otherwise µs per call; ``work_counters['per']`` names
the unit.  Its ``size`` is the number of calls over the seeds, or None for a
``sim.run_sim`` mode, whose calls the tracer does not count.

Every record has the fields ``case, layer, size, repeats, median_s, min_s,
per_unit, work_counters, python, numpy, commit``.

Given two ``--tree``s, the first the base, it also prints a pair summary
for each workload and each end-to-end metric that ``BENCHMARK.json``
names, over the ``--trace 0`` results of the two trees that share a
``meta.seed``: the second tree's wins in the metric's ``better`` direction,
where a tie counts for neither; both medians; and the first tree's q3 - q1,
with whether the medians are more than that apart.  It only reads
``BENCHMARK.json``, and the records are the same with one tree or two.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path


def describe(tree: Path) -> str:
    """``tree``'s commit, with ``-dirty`` only when ``src/`` has uncommitted edits:
    the records are of ``src/fairshare``, so an edit elsewhere does not change them."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(tree), *args],
                              capture_output=True, text=True).stdout.strip()

    commit = git("rev-parse", "--short", "HEAD")
    if not commit:
        return "unknown"
    return commit + ("-dirty" if git("status", "--porcelain", "--", "src") else "")


def src_digest(tree: Path) -> str:
    """The digest ``bench/run.py`` records as ``meta.src_sha256`` for ``tree``'s source."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "fairshare").glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def own_runs(tree: Path, workload: str, trace: int) -> tuple[list[dict], int]:
    """The workload's results of ``tree``'s current source, and how many others were skipped."""
    found = [json.loads(path.read_text()) for path in sorted(
        (tree / ".bench_work" / "results").glob(f"{workload}-seed*-trace{trace}.json"))]
    digest = src_digest(tree)
    runs = [run for run in found if run["meta"].get("src_sha256") == digest]
    return runs, len(found) - len(runs)


def quartiles(values: list[float]) -> tuple[float, float]:
    """(q1, q3) of ``values``; both are the value itself when there is one."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q3


def record(case: str, layer: str, size, values: list[float], unit: str, per_unit,
           runs: list[dict], skipped: int, commit: str) -> dict:
    """One BENCH record of ``values``, one per run, in ``unit``."""
    q1, q3 = quartiles(values)
    return {
        "case": case,
        "layer": layer,
        "size": size,
        "repeats": len(values),
        "median_s": statistics.median(values),
        "min_s": min(values),
        "per_unit": per_unit,
        "work_counters": {
            "seeds": [run["meta"]["seed"] for run in runs],
            "failed": sum(run["result"]["failed"] for run in runs),
            "skipped": skipped,
            "q1_s": q1,
            "q3_s": q3,
            "unit": unit,
        },
        "python": runs[0]["meta"]["python"],
        "numpy": runs[0]["meta"]["numpy"],
        "commit": commit,
    }


def e2e_records(label: str, tree: Path, workload: str) -> list[dict]:
    runs, skipped = own_runs(tree, workload, 0)
    if not runs:
        raise SystemExit(f"no {workload} results of this source ({src_digest(tree)}) under "
                         f"{tree}/.bench_work/results; skipped {skipped} of other source")
    size = sum(run["result"]["attempted"] for run in runs)
    commit = describe(tree)
    return [record(f"{workload} {metric} {label}", "end-to-end", size,
                   [run["result"]["metrics"][metric]["value"] for run in runs], m["unit"], None,
                   runs, skipped, commit)
            for metric, m in runs[0]["result"]["metrics"].items()]


def layer_records(label: str, tree: Path, workload: str) -> list[dict]:
    runs, skipped = own_runs(tree, workload, 1)
    if not runs:
        return []  # an untraced workload gives end-to-end records only
    metrics = [{name: m["value"] for name, m in run["result"]["metrics"].items()}
               for run in runs]
    commit = describe(tree)
    records = []
    for key in metrics[0]:
        name, _, stat = key.rpartition(".")
        # A function's or a run_sim mode's self time; skip it if it never ran.
        if stat != "self_s" or not any(m[key] for m in metrics):
            continue
        per_op = [m[key] / m["cli.main.calls"] for m in metrics]
        calls = sum(m[f"{name}.calls"] for m in metrics) if f"{name}.calls" in metrics[0] else None
        unit = next((k for k in metrics[0] if k.startswith(f"{name}.us_per_")), None)
        per = unit.partition(".us_per_")[2] if unit else "call"
        per_unit = (statistics.median(m[unit] for m in metrics) if unit
                    else 1e6 * sum(m[key] for m in metrics) / calls)
        records.append(record(f"{workload} {name} {label}", name, calls, per_op, "s", per_unit,
                              runs, skipped, commit))
        records[-1]["work_counters"]["per"] = per
    return records


def directions() -> dict[str, str]:
    """Each end-to-end metric's better direction, ``lower`` or ``higher``, from BENCHMARK.json."""
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["better"] for metric in spec["end_to_end"]}


def pair_summary(base: list[dict], change: list[dict], better: dict[str, str]) -> list[dict]:
    """Per end-to-end metric, how the ``change`` runs fare against the ``base`` runs
    of the same ``meta.seed``: wins in the ``better`` direction (a tie counts for
    neither), both medians, and whether they differ by more than the base's q3 - q1."""
    by_seed = [{run["meta"]["seed"]: run["result"]["metrics"] for run in runs}
               for runs in (base, change)]
    seeds = sorted(by_seed[0].keys() & by_seed[1].keys())
    rows = []
    for metric, direction in better.items():
        if not seeds or metric not in by_seed[0][seeds[0]]:
            continue
        before, after = ([tree[seed][metric]["value"] for seed in seeds] for tree in by_seed)
        sign = 1 if direction == "higher" else -1
        median_base, median_change = statistics.median(before), statistics.median(after)
        q1, q3 = quartiles(before)
        rows.append({
            "metric": metric,
            "pairs": len(seeds),
            "wins": sum(sign * (b - a) > 0 for a, b in zip(before, after)),
            "ties": sum(a == b for a, b in zip(before, after)),
            "median_base": median_base,
            "median_change": median_change,
            "spread": q3 - q1,
            "beyond": abs(median_change - median_base) > q3 - q1,
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=PATH")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    trees = [(label, Path(path).resolve())
             for label, _, path in (spec.partition("=") for spec in args.tree)]
    records = []
    for label, tree in trees:
        for workload in args.workload:
            records += e2e_records(label, tree, workload) + layer_records(label, tree, workload)
    Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    for r in records:
        cost = ("" if r["per_unit"] is None
                else f"  {r['per_unit']:.3f} us/{r['work_counters']['per']}")
        print(f"{r['case']:56s} {r['median_s']:.6g} {r['work_counters']['unit']} "
              f"(min {r['min_s']:.6g}, n={r['repeats']}){cost}")
    if len(trees) == 2:
        (base, base_tree), (change, change_tree) = trees
        for workload in args.workload:
            for p in pair_summary(own_runs(base_tree, workload, 0)[0],
                                  own_runs(change_tree, workload, 0)[0], directions()):
                print(f"{workload} {p['metric']}: {change} wins {p['wins']} of {p['pairs']} pairs "
                      f"({p['ties']} tied), median {p['median_base']:.6g} -> {p['median_change']:.6g}, "
                      f"{base} q3-q1 {p['spread']:.3g}, "
                      f"{'more' if p['beyond'] else 'not more'} than that apart")
    return 0


if __name__ == "__main__":
    sys.exit(main())

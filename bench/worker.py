"""One benchmark process: import fairshare, load the inputs, run the ops.

    python3 bench/worker.py MANIFEST RESULT [--setup-only] [--seconds S] [--trace 0|1]

Set-up time runs from the first statement below to just before the first
timed op.  With ``--setup-only`` the process stops there.  Otherwise it
runs whole passes over the manifest's ops, one ``cli.main`` call at a time,
until another pass would end further from ``--seconds`` than stopping now,
checks every output, and writes its measurements to RESULT as JSON.

On a shared host the CPU's speed can drift by a factor of two within
minutes, and not all code slows alike: tight dict and float loops (the
solvers, the simulator, the monitor's windowing) follow one pattern, and
object-heavy per-call work (argparse, parsing a tiny file) another.  So two
fixed calibration loops, one of each kind, run between ops at least every
``CAL_EVERY_S``, and each op's times are scaled to the reference speed at
which its kind of loop (the manifest's ``speed`` for the op) takes its
``CAL_REF_S``.  Set-up time, mostly imports, is scaled by the caller.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

CAL_EVERY_S = 0.2


def _loop() -> None:
    usage = {}
    for i in range(20000):
        key = i % 61
        usage[key] = usage.get(key, 0.0) * 0.999 + i
        if i % 20 == 0:
            min(usage, key=usage.__getitem__)


def _cli() -> None:
    for _ in range(3):
        parser = argparse.ArgumentParser(prog="calibrate")
        sub = parser.add_subparsers(dest="command")
        for name in ("alpha", "beta", "gamma", "delta"):
            p = sub.add_parser(name, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
            p.add_argument("path")
            for flag in ("--one", "--two", "--three", "--four", "--five", "--six"):
                p.add_argument(flag, type=float, default=1.0, help="a number")
        parser.parse_args(["beta", "x", "--two", "3"])


CALIBRATIONS = {"loop": _loop, "cli": _cli}
CAL_REF_S = {"loop": 0.008, "cli": 0.004}  # each loop's time at reference speed


def calibrate() -> dict[str, float]:
    """Wall time of each calibration loop."""
    times = {}
    for kind, loop in CALIBRATIONS.items():
        t0 = time.perf_counter()
        loop()
        times[kind] = time.perf_counter() - t0
    return times


def run_op(main, argv):
    """(exit status, stdout, wall s, cpu s); an escaping exception is a failed op."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            rc = main(argv)
        except Exception as exc:  # the op failed; the run goes on and counts it
            rc = f"raised {type(exc).__name__}: {exc}"
        c1, w1 = time.process_time(), time.perf_counter()
    return rc, out.getvalue(), w1 - w0, c1 - c0


def self_check(samples, run_check, corrupters) -> tuple[int, int]:
    """Feed every check a corrupted copy of a good output and a wrong exit status."""
    caught = total = 0
    for kind, (rc, out, expect) in samples.items():
        total += 2
        caught += run_check(kind, rc, corrupters[kind](out, expect), expect) is not None
        caught += run_check(kind, 1 if rc != 1 else 0, out, expect) is not None
    return caught, total


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("manifest")
    parser.add_argument("result")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    manifest = json.loads(Path(args.manifest).read_text())
    from fairshare.cli import main as cli_main

    ops = manifest["ops"]
    for path in manifest["inputs"]:
        Path(path).read_bytes()
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    import fairshare

    from checks import CORRUPTERS, run_check

    if not Path(fairshare.__file__).resolve().is_relative_to(BENCH.parent / "src"):
        raise SystemExit(f"fairshare imported from {fairshare.__file__}, not this checkout")

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        traced_main = tracer.wrap("cli.main", cli_main)

    walls, cpus, traced_flags, op_cal, failures, good = [], [], [], [], [], {}
    cals = [calibrate()]
    cal_at = time.perf_counter()
    passes = []
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        for i, op in enumerate(ops):
            order = (False, True) if (len(passes) + i) % 2 == 0 else (True, False)
            for traced in order if tracer else (False,):
                if time.perf_counter() - cal_at >= CAL_EVERY_S:
                    cals.append(calibrate())
                    cal_at = time.perf_counter()
                op_cal.append((len(cals) - 1, op.get("speed", "loop")))
                if traced:
                    tracer.op = len(walls)
                    with tracer.patched():
                        rc, out, wall, cpu = run_op(traced_main, op["argv"])
                else:
                    rc, out, wall, cpu = run_op(cli_main, op["argv"])
                walls.append(wall)
                cpus.append(cpu)
                traced_flags.append(traced)
                why = run_check(op["check"], rc, out, op["expect"])
                if why:
                    failures.append(f"{' '.join(op['argv'])}: {why}")
                else:
                    good.setdefault(op["check"], (rc, out, op["expect"]))
        passes.append(time.perf_counter() - p0)
        if args.seconds - (time.perf_counter() - start) <= statistics.mean(passes) / 2:
            break
    cals.append(calibrate())
    # Each op is scaled by the mean of the calibrations on either side of it.
    scales = [2 * CAL_REF_S[kind] / (cals[k][kind] + cals[k + 1][kind])
              for k, kind in op_cal]

    caught, total = self_check(good, run_check, CORRUPTERS)
    result.update({
        "walls": walls,
        "cpus": cpus,
        "scales": scales,
        "calibrations": cals,
        "failures": failures,
        "passes": len(passes),
        "selfcheck.caught": caught,
        "selfcheck.total": total,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer:
        import probes
        from tracing import inclusive_share, layer_metrics

        paired = [0.0, 0.0]  # untraced and traced scaled wall time of the same ops
        for wall, scale, traced in zip(walls, scales, traced_flags):
            paired[traced] += wall * scale
        result["layers"] = layer_metrics(tracer.spans, scales)
        result["layers"]["trace.overhead_frac"] = paired[1] / paired[0] - 1.0
        result["layers"].update(probes.run(cli_main, manifest["probes"]))
        result["shares"] = inclusive_share(tracer.spans)
        tracer.write(manifest["spans"])
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

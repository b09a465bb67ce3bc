"""Untimed correctness probes: inputs the CLI must reject or survive.

A bad input is rejected correctly when ``cli.main`` returns 1 and no
exception escapes it (nothing that would print a traceback).  Probes are
reported as counts and never enter the timed ops or the error rate.
"""

from __future__ import annotations

import contextlib
import io
import warnings
from pathlib import Path

BASE = """total_shares 100
group A shares=50
group B shares=50
user alice group=A shares=50 procs=2 think={think} demand={demand} active=yes
user bob group=B shares=50 procs=1 think=0 demand=1 active=yes
{event}
"""

PS_LINE = "{user} {pid} 50.0 0.4 81234 5120 ?? S 10:00AM {time} /usr/bin/job"


def _cputime(seconds: int) -> str:
    return f"{seconds // 60}:{seconds % 60:02d}.00"


def write_inputs(work: Path) -> dict[str, str]:
    """Probe input files; returns their paths by role."""
    paths = {}
    for role, fields in {
        "good": dict(think="1", demand="0.5", event=""),
        "think_nan": dict(think="nan", demand="0.5", event=""),
        "demand_inf": dict(think="1", demand="inf", event=""),
        "event_nan": dict(think="1", demand="0.5", event="event t=nan deactivate=alice"),
    }.items():
        path = work / f"probe_{role}.fsp"
        path.write_text(BASE.format(**fields))
        paths[role] = str(path)

    # Two users at 30 s of CPU a minute each, for two hours.  In the reuse
    # log alice's pid 4242 exits after an hour and a new process of hers
    # takes the same pid, starting again from 0:00.
    for role, reuse in (("steady_log", False), ("reuse_log", True)):
        lines = []
        for k in range(120):
            lines.append(f"T {1_700_000_000 + 60 * k}")
            alice = 30 * (k - 60) if reuse and k >= 60 else 3000 + 30 * k
            lines.append(PS_LINE.format(user="alice", pid=4242, time=_cputime(alice)))
            lines.append(PS_LINE.format(user="bob", pid=5151, time=_cputime(30 * k)))
        path = work / f"probe_{role}.log"
        path.write_text("\n".join(lines) + "\n")
        paths[role] = str(path)
    return paths


def _bad_inputs(p: dict[str, str]) -> list[list[str]]:
    short = ["--duration", "20", "--warmup", "5"]
    return [
        ["report", p["think_nan"]],
        ["report", p["demand_inf"]],
        ["simulate", p["event_nan"]] + short,
        ["simulate", p["good"], "--quantum", "nan"] + short,
        ["simulate", p["good"], "--duration", "inf"],
        ["monitor", p["steady_log"], p["good"], "--window", "nan"],
        ["monitor", p["steady_log"], p["good"], "--threshold", "nan"],
    ]


def _call(main, argv):
    """(exit status or None if an exception escaped, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            rc = main(argv)
        except Exception:  # an escaping exception is what the probe looks for
            rc = None
    return rc, out.getvalue()


def run(main, paths: dict[str, str]) -> dict[str, int]:
    bad = _bad_inputs(paths)
    rejected = sum(_call(main, argv)[0] == 1 for argv in bad)
    # Treated as a new process, the reused pid leaves both users at their
    # 50% entitlement in every window that sees them.
    rc, out = _call(main, ["monitor", paths["reuse_log"], paths["good"], "--window", "60"])
    reuse_ok = rc == 0 and out.endswith("max |deviation| 0.0000 -> OK\n")
    return {
        "probe.bad_input.rejected": rejected,
        "probe.bad_input.total": len(bad),
        "probe.monitor_pid_reuse.ok": int(reuse_ok),
    }

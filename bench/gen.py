"""Seeded inputs for the benchmark workloads.

Each generator writes the files the program reads (scenario files and ps
logs) into a work directory and returns a manifest: the ``cli.main`` argv
of every op in one pass, and what each op's output must show.  The
expectations come from the generator's own knowledge of the inputs (or
from the checked-in golden tables), never from running the program.  The
same seed always gives the same files and manifest.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

SIM_MODES = ("fairshare-flat", "fairshare-hierarchical", "ts-roundrobin", "ts-ps-reference")

# sim-crowd: simulated seconds per op, warmup, and how far a CPU-bound
# user's post-warmup Ucpu may sit from its entitlement in the fair-share
# modes (entitlements are 0.002-0.02 of the CPU with 200 users).
CROWD_DURATION = 30.0
CROWD_WARMUP = 15.0
CROWD_EPS = 0.003

# admin-session: tolerance on report4's Ucpu in the 300 s default run.
ADMIN_EPS = 0.005

MONITOR_BLOCKS = 1440  # one day of once-a-minute ps samples
MONITOR_PIDS = 20
MONITOR_WINDOWS = (60, 300, 600)
CHURN_MINUTES = 120
PS_HEADER = "USER PID %CPU %MEM VSZ RSS TT STAT STARTED TIME COMMAND"


# --------------------------------------------------------------------------
# A minimal scenario model, independent of the program's parser.


def read_scenario(text: str) -> dict:
    """Groups and users of a scenario file, as plain dicts in file order."""
    total = None
    groups: dict[str, dict] = {}
    users: list[dict] = []
    events: list[tuple[float, str, str]] = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        kv = dict(t.split("=", 1) for t in tokens[1:] if "=" in t)
        if tokens[0] == "total_shares":
            total = int(tokens[1])
        elif tokens[0] == "group":
            groups[tokens[1]] = {"name": tokens[1], "shares": int(kv["shares"]), "users": []}
        elif tokens[0] == "user":
            user = {
                "name": tokens[1],
                "group": kv["group"],
                "shares": int(kv["shares"]),
                "procs": int(kv["procs"]),
                "think": float(kv["think"]),
                "demand": float(kv["demand"]),
                "active": kv["active"] == "yes",
            }
            users.append(user)
            groups[user["group"]]["users"].append(user)
        elif tokens[0] == "event":
            action = "activate" if "activate" in kv else "deactivate"
            events.append((float(kv["t"]), action, kv[action]))
    return {"total": total, "groups": list(groups.values()), "users": users, "events": events}


def write_scenario(path: Path, total: int, groups, events=()) -> None:
    lines = [f"total_shares {total}"]
    lines += [f"group {g['name']} shares={g['shares']}" for g in groups]
    for g in groups:
        for u in g["users"]:
            lines.append(
                f"user {u['name']} group={g['name']} shares={u['shares']} procs={u['procs']} "
                f"think={u['think']:g} demand={u['demand']:g} "
                f"active={'yes' if u['active'] else 'no'}"
            )
    lines += [f"event t={t:g} {action}={user}" for t, action, user in events]
    path.write_text("\n".join(lines) + "\n")


def entitlements(groups, mode: str, active=None) -> tuple[dict, dict]:
    """(user fraction, group fraction) by the documented share arithmetic.

    ``active`` overrides each user's own flag (a set of active names).
    """
    is_active = (lambda u: u["name"] in active) if active is not None else (lambda u: u["active"])
    pool = sum(u["shares"] for g in groups for u in g["users"] if is_active(u))
    live_pool = sum(g["shares"] for g in groups if any(is_active(u) for u in g["users"]))
    users, group_frac = {}, {}
    for g in groups:
        g_active = sum(u["shares"] for u in g["users"] if is_active(u))
        if mode == "flat-pool":
            group_frac[g["name"]] = g_active / pool
            for u in g["users"]:
                users[u["name"]] = u["shares"] / pool if is_active(u) else 0.0
        else:
            frac = g["shares"] / live_pool if g_active else 0.0
            group_frac[g["name"]] = frac
            for u in g["users"]:
                users[u["name"]] = frac * u["shares"] / g_active if is_active(u) else 0.0
    return users, group_frac


def entitlement_rows(groups, users: dict, group_frac: dict) -> list[str]:
    width = max(len(g["users"]) for g in groups)
    rows = ["Group %Active " + " ".join(f"%User{chr(65 + i)}" for i in range(width))]
    for g in groups:
        cells = [g["name"], f"{100.0 * group_frac[g['name']]:.2f}"]
        cells += [f"{100.0 * users[u['name']]:.2f}" for u in g["users"]]
        cells += ["0.00"] * (width - len(g["users"]))
        rows.append(" ".join(cells))
    return rows


# --------------------------------------------------------------------------
# admin-session: the shipped scenarios, every subcommand.


def _entitle_op(path: str, flags: list[str], title: str, active: int, total: int,
                rows: list[str]) -> dict:
    text = "\n".join([title, f"Active user shares: {active} / {total} allocated", ""] + rows)
    return {"argv": ["entitle", path] + flags, "check": "entitle", "expect": {"text": text + "\n"}}


def admin_session(seed: int, work: Path, root: Path) -> dict:
    scen = root / "scenarios"
    golden = root / "tests" / "golden"
    ops = []
    models = {}
    ts_rtime = {}
    for n in range(1, 6):
        path = str(scen / f"report{n}.fsp")
        model = read_scenario(Path(path).read_text())
        models[n] = model
        groups, total = model["groups"], model["total"]
        ent_golden = (golden / f"report{n}_entitlements.txt").read_text()
        ts_golden = (golden / f"report{n}_ts.txt").read_text()
        active = sum(u["shares"] for u in model["users"] if u["active"])
        everyone = {u["name"] for u in model["users"]}
        ops += [
            _entitle_op(path, [], "Entitlements (mode: flat-pool)", active, total,
                        ent_golden.split("\n\n", 1)[1].rstrip("\n").split("\n")),
            _entitle_op(path, ["--lub"], "Guaranteed minimum entitlements (all users active)",
                        total, total,
                        entitlement_rows(groups, *entitlements(groups, "flat-pool", everyone))),
            _entitle_op(path, ["--mode", "hierarchical"], "Entitlements (mode: hierarchical)",
                        active, total,
                        entitlement_rows(groups, *entitlements(groups, "hierarchical"))),
        ]
        for solver in ("partition", "conserving"):
            ops.append({
                "argv": ["report", path, "--solver", solver],
                "check": "report",
                "expect": {"entitlements": ent_golden, "ts": ts_golden, "solver": solver},
            })
        ts_rows = ts_golden.split("\n\n", 1)[1].split("\n")[1:]
        ts_rtime[f"report{n}"] = {r.split()[0]: r.split()[2] for r in ts_rows if r}
    ops.append({
        "argv": ["compare"] + [str(scen / f"report{n}.fsp") for n in range(1, 6)],
        "check": "compare",
        "expect": {"labels": [f"report{n}" for n in range(1, 6)], "rts": ts_rtime},
    })
    slo = [line.split() for line in (scen / "slo-example.txt").read_text().splitlines()
           if line.strip() and not line.startswith("#")]
    required = {}
    for tokens in slo:
        kv = {k: float(v) for k, v in (t.split("=") for t in tokens[2:])}
        need = kv["umax"]
        if "rslo" in kv:
            need = max(need, kv["demand"] / kv["rslo"])
        required[tokens[1]] = need
    ops.append({
        "argv": ["advise", str(scen / "slo-example.txt"), "--total-shares", "100"],
        "check": "advise",
        "expect": {"total": 100, "required": required},
    })
    ex = read_scenario((scen / "example-2-2.fsp").read_text())
    ops.append({
        "argv": ["simulate", str(scen / "example-2-2.fsp")],
        "check": "simulate",
        "expect": _sim_expect(ex, "flat-pool", fair=False, loophole=False, eps=ADMIN_EPS,
                              converged=True),
    })
    for mode in SIM_MODES:
        fair = mode.startswith("fairshare")
        ops.append({
            "argv": ["simulate", str(scen / "report4.fsp"), "--sim-mode", mode],
            "check": "simulate",
            "expect": _sim_expect(models[4], "flat-pool", fair=fair, loophole=not fair,
                                  eps=ADMIN_EPS, converged=None),
        })
    # The analytic ops cost mostly argparse and tiny-file parsing, whose
    # speed follows the object-heavy calibration loop.
    for op in ops:
        if op["argv"][0] != "simulate":
            op["speed"] = "cli"
    random.Random(seed).shuffle(ops)
    return {"ops": ops}


def _sim_expect(model, entitle_mode, fair, loophole, eps, converged) -> dict:
    """Expectations for a ``simulate`` op, from the hierarchy after all events."""
    active = {u["name"] for u in model["users"] if u["active"]}
    for _, action, user in sorted(model["events"], key=lambda e: e[0]):
        (active.add if action == "activate" else active.discard)(user)
    entitled, _ = entitlements(model["groups"], entitle_mode, active)
    return {
        "users": [u["name"] for u in model["users"]],
        "entitled": entitled,
        "procs": {u["name"]: u["procs"] for u in model["users"]},
        "cpu_bound": [u["name"] for u in model["users"] if u["think"] == 0.0],
        "active": sorted(active),
        "fair": fair,
        "loophole": loophole,
        "eps": eps,
        "converged": converged,
    }


# --------------------------------------------------------------------------
# mva-population: synthetic closed workloads sized by population states.


def _split_dims(target: float, k: int, index: int) -> list[int]:
    """k dimensions (procs + 1, each >= 2) whose product is close to target.

    The split depends on the grid index, not on the seed.
    """
    rng = random.Random(index)
    weights = [rng.uniform(0.5, 1.5) for _ in range(k)]
    total = sum(weights)
    dims = [max(2, round(target ** (w / total))) for w in weights[:-1]]
    dims.append(max(2, round(target / math.prod(dims))))
    return dims


def mva_population(seed: int, work: Path, root: Path) -> dict:
    rng = random.Random(seed)
    # Report ops span 1e4-8e4 states on a fixed log grid, with the class
    # count cycling 2..5 and a fixed split of procs, so that op cost depends
    # on the grid and not on the seed, which draws think times, demands,
    # shares and offline users.  Six equal 1.5e5-state ops and one 1e6-state
    # op top each pass, so that op_p90_s falls inside a cluster of equal ops.
    grid = [(1e4 * 8 ** (i / 19), 2 + i % 4, i) for i in range(20)]
    top = [(1.5e5, 3, 100)] * 3 + [(1e6, 3, 101)]
    specs = []
    for i, (target, k, split) in enumerate(grid + top):
        dims = _split_dims(target, k, split)
        n_groups = k + (1 if rng.random() < 0.5 else 0)  # sometimes an offline user
        groups = []
        for j in range(n_groups):
            active = j < k
            user = {
                "name": f"c{j}",
                "shares": rng.randint(1, 10),
                "procs": dims[j] - 1 if active else 1,
                "think": 0.0 if rng.random() < 0.25 else round(rng.uniform(0.1, 5.0), 2),
                "demand": round(rng.uniform(0.05, 1.0), 3),
                "active": active,
            }
            groups.append({"name": f"G{j}", "shares": user["shares"], "users": [user]})
        label = f"mva{i:02d}"
        path = work / f"{label}.fsp"
        write_scenario(path, sum(g["shares"] for g in groups), groups)
        classes = [u for g in groups for u in g["users"] if u["active"]]
        specs.append({"label": label, "path": str(path), "classes": classes})
    ops = []
    for i, spec in enumerate(specs):
        for solver in ("partition", "conserving") if i < len(specs) - 1 else ("partition",):
            ops.append({
                "argv": ["report", spec["path"], "--solver", solver],
                "check": "mva-report",
                "expect": {"classes": spec["classes"], "solver": solver},
            })
    for a in range(8):
        b = a + 10
        ops.append({
            "argv": ["compare", specs[a]["path"], specs[b]["path"]],
            "check": "mva-compare",
            "expect": {"labels": [specs[a]["label"], specs[b]["label"]],
                       "classes": [specs[a]["classes"], specs[b]["classes"]]},
        })
    rng.shuffle(ops)
    return {"ops": ops}


# --------------------------------------------------------------------------
# sim-crowd: a 200-user hierarchy in every simulator mode.


def _spread(rng: random.Random, lo: float, hi: float, n: int, digits: int) -> list[float]:
    """n evenly spaced values from lo to hi in random order."""
    values = [round(lo + (hi - lo) * i / (n - 1), digits) for i in range(n)]
    rng.shuffle(values)
    return values


def sim_crowd(seed: int, work: Path, root: Path) -> dict:
    rng = random.Random(seed)
    # Procs, demands and think times are fixed multisets dealt out by the
    # seed, and exactly 10 CPU-bound and 10 thinking users start offline,
    # so that every seed offers the dispatcher the same amount of work.
    procs = [1, 2, 3, 4] * 50
    rng.shuffle(procs)
    demands = [_spread(rng, 0.05, 1.0, 100, 3) for _ in range(2)]
    thinks = _spread(rng, 0.5, 5.0, 100, 2)
    offline = set(rng.sample(range(0, 200, 2), 10)) | set(rng.sample(range(1, 200, 2), 10))
    groups = []
    for g in range(20):
        users = []
        for j in range(10):
            k = 10 * g + j
            cpu_bound = k % 2 == 0
            users.append({
                "name": f"g{g:02d}u{j}",
                "shares": rng.randint(1, 10),
                "procs": procs[k],
                "think": 0.0 if cpu_bound else thinks[k // 2],
                "demand": demands[k % 2][k // 2],
                "active": k not in offline,
            })
        groups.append({"name": f"G{g:02d}", "shares": sum(u["shares"] for u in users),
                       "users": users})
    everyone = [u for g in groups for u in g["users"]]
    half = CROWD_DURATION / 2
    events = [(round(rng.uniform(0.0, half), 2), "activate", u["name"])
              for u in everyone if not u["active"]]
    for parity in (0, 1):
        online = [u for k, u in enumerate(everyone) if u["active"] and k % 2 == parity]
        events += [(round(rng.uniform(0.0, half), 2), "deactivate", u["name"])
                   for u in rng.sample(online, 5)]
    events.sort()
    path = work / "crowd.fsp"
    write_scenario(path, sum(g["shares"] for g in groups), groups, events)
    model = read_scenario(path.read_text())
    common = ["--duration", f"{CROWD_DURATION:g}", "--warmup", f"{CROWD_WARMUP:g}"]
    ops = []
    variants = [(mode, []) for mode in SIM_MODES]
    # The fair-share modes also run with jittered think times, so that they
    # are two thirds of the ops: the median op is a fair-share dispatch run.
    variants += [(mode, ["--jitter-think", "--seed", str(seed)]) for mode in SIM_MODES[:2]]
    for mode, extra in variants:
        entitle = "hierarchical" if mode == "fairshare-hierarchical" else "flat-pool"
        fair = mode.startswith("fairshare")
        ops.append({
            "argv": ["simulate", str(path), "--sim-mode", mode, "--mode-entitle", entitle]
            + common + extra,
            "check": "simulate",
            "expect": _sim_expect(model, entitle, fair=fair, loophole=False, eps=CROWD_EPS,
                                  converged=None),
        })
    return {"ops": ops}


# --------------------------------------------------------------------------
# monitor-day: day-long once-a-minute ps logs with a known deviation.


def _cputime(cs: int) -> str:
    return f"{cs // 6000}:{(cs % 6000) / 100:05.2f}"


def _day_log(rng: random.Random, path: Path, tag: str, n_users: int, n_absent: int) -> dict:
    """Write one log; return per-pid cumulative CPU (centiseconds) per block."""
    users = [f"{tag}u{i}" for i in range(n_users)]
    absent = set(rng.sample(users, n_absent))  # not in the scenario
    slot_user = users + [rng.choice(users) for _ in range(MONITOR_PIDS - n_users)]
    churn = set(rng.sample(range(MONITOR_PIDS), 6))  # slots whose process turns over
    weight = [rng.lognormvariate(0.0, 1.0) for _ in range(MONITOR_PIDS)]
    idle = set()
    for half in (0, MONITOR_BLOCKS // 2):  # one 45-minute idle stretch in each half
        start = half + rng.randrange(MONITOR_BLOCKS // 2 - 45)
        idle.update(range(start, start + 45))

    next_pid = 1000 + rng.randrange(1000)
    pids = []  # one dict per process: user, pid, first block, cumulative cs per block
    current = []
    for s in range(MONITOR_PIDS):
        proc = {"user": slot_user[s], "pid": next_pid, "first": 0,
                "cum": [rng.randrange(0, 3_000_000) if s not in churn else 0]}
        next_pid += rng.randint(1, 50)
        pids.append(proc)
        current.append(proc)
    # A turnover slot's process lives two hours; the slots' first turnovers
    # are 20 minutes apart, so every log has the same number of pids.
    lifetime = {s: 1 + 20 * i for i, s in enumerate(sorted(churn))}

    base = 1_700_000_000
    lines = []
    for k in range(MONITOR_BLOCKS):
        if k > 0:
            for s in churn:
                lifetime[s] -= 1
                if lifetime[s] <= 0:
                    proc = {"user": slot_user[s], "pid": next_pid, "first": k, "cum": [0]}
                    next_pid += rng.randint(1, 50)
                    pids.append(proc)
                    current[s] = proc
                    lifetime[s] = CHURN_MINUTES
            budget = 0 if k in idle else round(6000 * rng.uniform(0.3, 1.0))
            live = [s for s in range(MONITOR_PIDS) if current[s]["first"] < k]
            w = {s: weight[s] * rng.random() if rng.random() > 0.3 else 0.0 for s in live}
            total_w = sum(w.values())
            for s in live:
                share = int(budget * w[s] / total_w) if total_w > 0 else 0
                current[s]["cum"].append(current[s]["cum"][-1] + share)
        lines.append(f"T {base + 60 * k}")
        lines.append(PS_HEADER)
        for s in range(MONITOR_PIDS):
            proc = current[s]
            lines.append(
                f"{proc['user']} {proc['pid']} {rng.uniform(0, 99):.1f} 0.4 81234 5120 ?? S "
                f"10:00AM {_cputime(proc['cum'][-1])} /usr/bin/job-{s}"
            )
    path.write_text("\n".join(lines) + "\n")
    return {"users": users, "absent": absent, "pids": pids}


def _cum_at(proc: dict, block: int) -> int:
    """A process's cumulative CPU at a block, clamped to the blocks it was listed in."""
    listed = min(max(block, proc["first"]), proc["first"] + len(proc["cum"]) - 1)
    return proc["cum"][listed - proc["first"]]


def _max_deviation(log: dict, entitled: dict, window: int) -> tuple[float, int, int]:
    """(max |deviation|, windows, idle windows) by the documented windowing rule.

    Windows tile the log from its first sample; a pid's value at a window
    edge is its last sample at or before it, or its first sample if it
    started later; users outside the scenario pool as ``unallocated``.
    """
    step = window // 60
    n_windows = (MONITOR_BLOCKS - 1) // step
    max_abs, idle = 0.0, 0
    for w in range(n_windows):
        lo, hi = w * step, (w + 1) * step
        busy: dict[str, int] = {}
        for proc in log["pids"]:
            delta = _cum_at(proc, hi) - _cum_at(proc, lo)
            if delta > 0:
                label = "unallocated" if proc["user"] in log["absent"] else proc["user"]
                busy[label] = busy.get(label, 0) + delta
        total = sum(busy.values())
        if not total:
            idle += 1
            continue
        pool = sum(entitled[u] for u in busy if u != "unallocated")
        for label, cs in busy.items():
            share = entitled[label] / pool if label != "unallocated" and pool > 0 else 0.0
            max_abs = max(max_abs, abs(cs / total - share))
    return max_abs, n_windows, idle


def monitor_day(seed: int, work: Path, root: Path) -> dict:
    rng = random.Random(seed)
    ops = []
    # Both logs have 8 users, so that their ops cost alike; one has one user
    # outside the scenario, the other two.
    for n, n_absent in enumerate((1, 2)):
        log_path = work / f"day{n}.log"
        log = _day_log(rng, log_path, "ab"[n], 8, n_absent)
        known = [u for u in log["users"] if u not in log["absent"]]
        groups = []
        for i, name in enumerate(known):
            user = {"name": name, "shares": rng.randint(1, 10), "procs": 1, "think": 1.0,
                    "demand": 1.0, "active": True}
            groups.append({"name": f"G{i}", "shares": user["shares"], "users": [user]})
        scen_path = work / f"day{n}.fsp"
        write_scenario(scen_path, sum(g["shares"] for g in groups), groups)
        entitled, _ = entitlements(groups, "flat-pool")
        # The 60 s window costs about four times the others, so only the
        # first log runs it: op_p90_s then falls in the middle of the 60 s
        # ops, and a run holds more ops.
        for j, window in enumerate(MONITOR_WINDOWS if n == 0 else MONITOR_WINDOWS[1:]):
            max_abs, n_windows, idle = _max_deviation(log, entitled, window)
            # Alternate thresholds well above and below the known maximum so
            # that both exit statuses occur.
            factor = 1.25 if (n + j) % 2 else 0.8
            threshold = f"{max_abs * factor:.6f}"
            ops.append({
                "argv": ["monitor", str(log_path), str(scen_path), "--window", str(window),
                         "--threshold", threshold],
                "check": "monitor",
                "expect": {"max_dev": f"{max_abs:.4f}",
                           "exit": 2 if max_abs > float(threshold) else 0,
                           "windows": n_windows, "idle": idle},
            })
    return {"ops": ops}


GENERATORS = {
    "admin-session": admin_session,
    "mva-population": mva_population,
    "sim-crowd": sim_crowd,
    "monitor-day": monitor_day,
}

"""Output checks: each returns None when an op's output is right, else why not.

A check sees the op's exit status, its stdout and the generator's
expectations.  Printed values are rounded, so numeric checks allow exactly
the error that rounding to the printed number of decimals can introduce.
``CORRUPTERS`` damages a known-good output of each kind, so that the
benchmark can prove every check is able to fail.
"""

from __future__ import annotations

import re

from fairshare.report import extract_section

HALF_2DP = 0.005  # largest rounding error of a value printed with 2 decimals
HALF_4DP = 0.00005


def _table(section: str) -> list[list[str]]:
    """Data rows of a 'heading / blank / header / rows' report section."""
    lines = section.split("\n\n", 1)[1].strip("\n").split("\n")
    return [line.split() for line in lines[1:]]


def check_entitle(rc, out, expect):
    if rc != 0:
        return f"exit {rc}"
    if out != expect["text"]:
        return "entitlement table differs from the expected bytes"
    return None


def check_report(rc, out, expect):
    if rc != 0:
        return f"exit {rc}"
    if extract_section(out, "Group Entitlements") != expect["entitlements"]:
        return "entitlement section differs from golden"
    if extract_section(out, "Comparative TS Performance") != expect["ts"]:
        return "TS section differs from golden"
    if f"\nSolver: {expect['solver']}\n" not in out:
        return "solver line missing"
    return None


def _compare_blocks(out: str) -> list[tuple[str, list[list[str]]]]:
    blocks = []
    for block in out.strip("\n").split("\n\n"):
        lines = block.split("\n")
        if lines[0].startswith("Scenario "):
            blocks.append((lines[0].split(": ", 1)[1], []))
        elif lines[0].startswith("User Rsm"):
            blocks[-1][1].extend(line.split() for line in lines[1:])
    return blocks


def _ratio_ok(num: str, den: str, printed: str) -> bool:
    """Does `printed` round num/den, given num and den are themselves rounded?"""
    if "N/A" in (num, den):
        return printed == "N/A"
    n, d, r = float(num), float(den), float(printed)
    if d <= HALF_2DP:
        return True
    lo = max(n - HALF_2DP, 0.0) / (d + HALF_2DP)
    hi = (n + HALF_2DP) / (d - HALF_2DP)
    return lo - HALF_2DP <= r <= hi + HALF_2DP


def check_compare(rc, out, expect):
    if rc != 0:
        return f"exit {rc}"
    blocks = _compare_blocks(out)
    if [label for label, _ in blocks] != expect["labels"]:
        return "scenario blocks missing or out of order"
    for label, rows in blocks:
        rts = expect["rts"][label]
        for row in rows:
            if row[2] != rts.get(row[0]):
                return f"{label} {row[0]}: Rts {row[2]} differs from golden"
            if not _ratio_ok(row[1], row[2], row[3]):
                return f"{label} {row[0]}: Rsm/Rts {row[3]} inconsistent"
    return None


def check_advise(rc, out, expect):
    if rc != 0:
        return f"exit {rc}"
    head = re.match(r"Share plan: (\d+) total shares, (\d+) residual \(feasible\)\n", out)
    if not head:
        return "no share plan header"
    shares = dict(
        (m.group(2), int(m.group(1)))
        for m in re.finditer(r"^limadm set cpu\.shares=(\d+) (\S+)$", out, re.M)
    )
    total = expect["total"]
    if list(shares) != list(expect["required"]):
        return "plan does not cover every target in order"
    if int(head.group(1)) != total or sum(shares.values()) + int(head.group(2)) != total:
        return "shares and residual do not add up to the total"
    for name, need in expect["required"].items():
        if shares[name] < need * total - 1e-9:
            return f"{name}: {shares[name]} shares below its required entitlement"
    return None


def _sim_rows(out: str) -> dict[str, tuple[float, float]]:
    lines = out.split("\n")
    start = lines.index("User Ucpu Entitled Thru RTime") + 1
    rows = {}
    for line in lines[start:]:
        cells = line.split()
        if len(cells) != 5 or line.startswith(("note:", "Convergence")):
            break
        rows[cells[0]] = (float(cells[1]), float(cells[2]))
    return rows


def check_simulate(rc, out, expect):
    if rc != 0:
        return f"exit {rc}"
    rows = _sim_rows(out)
    if list(rows) != expect["users"]:
        return "user rows missing or out of order"
    if sum(u for u, _ in rows.values()) > 1.0 + HALF_4DP * len(rows):
        return "utilizations sum above 1"
    for user, (_, entitled) in rows.items():
        if abs(entitled - expect["entitled"][user]) > HALF_4DP + 1e-12:
            return f"{user}: entitled {entitled} but shares give {expect['entitled'][user]:.6f}"
    eps = expect["eps"]
    if expect["fair"]:
        for user in expect["cpu_bound"]:
            ucpu, entitled = rows[user]
            if entitled > 0 and abs(ucpu - entitled) > eps:
                return f"{user}: CPU-bound Ucpu {ucpu} not within {eps} of entitled {entitled}"
    if expect["loophole"]:
        active = expect["active"]
        procs = sum(expect["procs"][u] for u in active)
        for user in active:
            share = expect["procs"][user] / procs
            if abs(rows[user][0] - share) > eps:
                return f"{user}: round robin gave {rows[user][0]}, procs give {share:.4f}"
    if expect["converged"] and not re.search(r"^Convergence \(epsilon [^)]*\): t=", out, re.M):
        return "run did not converge"
    return None


def _little_violation(rows, classes) -> str | None:
    """Per-class N = X (R + Z), R >= D, and total utilization <= 100%."""
    by_user = {row[0]: row for row in rows}
    if list(by_user) != [c["name"] for c in classes]:
        return "class rows missing or out of order"
    for c in classes:
        x, r = float(by_user[c["name"]][1]), float(by_user[c["name"]][2])
        n, z = c["procs"], c["think"]
        slack = HALF_2DP * (r + HALF_2DP + z) + (x + HALF_2DP) * HALF_2DP + 1e-9
        if abs(x * (r + z) - n) > slack:
            return f"{c['name']}: X(R+Z) = {x * (r + z):.4f}, N = {n}"
        if r < c["demand"] - HALF_2DP:
            return f"{c['name']}: R {r} below demand {c['demand']}"
    if sum(float(row[3]) for row in rows) > 100.0 + HALF_2DP * len(rows):
        return "utilizations sum above 100%"
    return None


def check_mva_report(rc, out, expect):
    if rc != 0:
        return f"exit {rc}"
    for heading in ("Estimated SRM Performance", "Comparative TS Performance"):
        rows = [r for r in _table(extract_section(out, heading)) if r[0] != "Solver:"]
        why = _little_violation(rows, expect["classes"])
        if why:
            return f"{heading}: {why}"
    if f"\nSolver: {expect['solver']}\n" not in out:
        return "solver line missing"
    return None


def check_mva_compare(rc, out, expect):
    if rc != 0:
        return f"exit {rc}"
    blocks = _compare_blocks(out)
    if [label for label, _ in blocks] != expect["labels"]:
        return "scenario blocks missing or out of order"
    for (label, rows), classes in zip(blocks, expect["classes"]):
        if [row[0] for row in rows] != [c["name"] for c in classes]:
            return f"{label}: class rows missing or out of order"
        for row, c in zip(rows, classes):
            for r in (row[1], row[2]):
                if float(r) < c["demand"] - HALF_2DP:
                    return f"{label} {row[0]}: R {r} below demand {c['demand']}"
            if not _ratio_ok(row[1], row[2], row[3]):
                return f"{label} {row[0]}: Rsm/Rts {row[3]} inconsistent"
    return None


def check_monitor(rc, out, expect):
    if rc != expect["exit"]:
        return f"exit {rc}, expected {expect['exit']}"
    tail = re.search(r"^max \|deviation\| (\S+) -> (OK|EXCEEDED)\n\Z", out, re.M)
    if not tail:
        return "no verdict line"
    if tail.group(1) != expect["max_dev"]:
        return f"max |deviation| {tail.group(1)}, generator says {expect['max_dev']}"
    if (tail.group(2) == "EXCEEDED") != (expect["exit"] == 2):
        return "verdict disagrees with exit status"
    spans = {line.split()[0] for line in out.split("\n")[3:-3] if line.strip()}
    if len(spans) != expect["windows"]:
        return f"{len(spans)} windows, expected {expect['windows']}"
    if out.count("(idle)") != expect["idle"]:
        return f"{out.count('(idle)')} idle windows, expected {expect['idle']}"
    return None


CHECKS = {
    "entitle": check_entitle,
    "report": check_report,
    "compare": check_compare,
    "advise": check_advise,
    "simulate": check_simulate,
    "mva-report": check_mva_report,
    "mva-compare": check_mva_compare,
    "monitor": check_monitor,
}


def run_check(kind: str, rc, out: str, expect) -> str | None:
    """The check's verdict; a check that cannot parse the output fails it."""
    try:
        return CHECKS[kind](rc, out, expect)
    except (ValueError, IndexError, KeyError, AttributeError) as exc:
        return f"unparseable output ({type(exc).__name__}: {exc})"


# --------------------------------------------------------------------------
# Corruptions for the self-check: each turns a correct output wrong in a way
# its check exists to catch.


def _bump_number(line: str, index: int, delta: float) -> str:
    cells = line.split(" ")
    numeric = [i for i, c in enumerate(cells) if re.fullmatch(r"[-+]?\d+(\.\d+)?", c)]
    i = numeric[index]
    decimals = len(cells[i].split(".")[1]) if "." in cells[i] else 0
    cells[i] = f"{float(cells[i]) + delta:.{decimals}f}"
    return " ".join(cells)


def _edit_line(out: str, pattern: str, index: int, delta: float) -> str:
    lines = out.split("\n")
    k = next(i for i, line in enumerate(lines) if re.search(pattern, line))
    lines[k] = _bump_number(lines[k], index, delta)
    return "\n".join(lines)


def _corrupt_sim(out: str, expect) -> str:
    # Move a CPU-bound user's Ucpu (or, for round robin, any user's) far off.
    targets = expect["cpu_bound"] if expect["fair"] else expect["active"]
    return _edit_line(out, rf"^{re.escape(targets[0])} ", 0, 0.25)


def _corrupt_mva_report(out: str, expect) -> str:
    # Double one class's TS throughput: Little's law no longer holds.
    head = out.index("Comparative TS Performance")
    body = out[head:].split("\n")
    body[3] = _bump_number(body[3], 0, max(float(body[3].split()[1]), 0.5))
    return out[:head] + "\n".join(body)


CORRUPTERS = {
    "entitle": lambda out, e: _edit_line(out, r"^\S+ \d+\.\d\d", -1, 1.0),
    "report": lambda out, e: out.replace(
        "Comparative TS Performance\n\nUser Thru RTime %Ucpu\n",
        "Comparative TS Performance\n\nUser Thru RTime %Ucpu\nghost 0.01 1.00 1.00\n"),
    "compare": lambda out, e: _edit_line(out, r"^\S+ \d+\.\d\d \d", 1, 0.5),
    "advise": lambda out, e: re.sub(
        r"cpu\.shares=(\d+)", lambda m: f"cpu.shares={int(m.group(1)) + 1}", out, count=1),
    "simulate": _corrupt_sim,
    "mva-report": _corrupt_mva_report,
    "mva-compare": lambda out, e: _edit_line(out, r"^\S+ \d+\.\d\d \d", 2, 0.5),
    "monitor": lambda out, e: _edit_line(out, r"^max \|deviation\|", 0, 0.01),
}

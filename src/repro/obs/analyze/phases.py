"""Phase timelines: migration lifecycle spans and fault-degraded windows.

The hypervisor records every migration's phases as complete (``ph: "X"``)
spans on a ``migration:<vm>`` thread lane: ``request/setup`` →
``memory + push`` (the hybrid scheme's pre-push window) → ``sync`` →
``downtime`` (control transfer) → ``pull / post-control`` (prefetch
drain).  The fault injector brackets degraded periods with
``fault.inject`` / ``fault.clear`` instants; overlapping a migration's
phases with those windows shows *which part* of a migration ran
degraded.
"""

from __future__ import annotations

__all__ = ["migration_timelines", "fault_windows", "phase_report"]

#: Canonical phase order (wall order as the hypervisor records them).
PHASE_ORDER = [
    "request/setup",
    "memory + push",
    "sync",
    "downtime",
    "pull / post-control",
]


def migration_timelines(events: list, tid_names: dict) -> list[dict]:
    """One timeline per migration attempt found in this run's events.

    Attempts are separated in time on the same ``migration:<vm>`` lane
    (abort-and-restart re-records the lifecycle); phases are grouped
    into attempts by strictly increasing start time per lane.
    """
    lanes: dict[str, list[dict]] = {}
    aborts: dict[str, list[dict]] = {}
    # Unnamed tids fall back to "tid-<n>", never a migration lane.
    migration_lanes = {t: n for t, n in tid_names.items() if n.startswith("migration:")}
    for ev in events:
        lane = migration_lanes.get(ev.get("tid"))
        if lane is None:
            continue
        if ev.get("ph") == "X" and ev.get("cat") == "migration":
            lanes.setdefault(lane, []).append(ev)
        elif ev.get("ph") == "i" and ev.get("name") == "migration.aborted":
            aborts.setdefault(lane, []).append(ev)
    out = []
    for lane in sorted(lanes):
        vm = lane.split(":", 1)[1]
        def _order(e: dict) -> tuple:
            name = e.get("name", "")
            idx = PHASE_ORDER.index(name) if name in PHASE_ORDER else len(PHASE_ORDER)
            return (e.get("ts", 0.0), idx, name)

        spans = sorted(lanes[lane], key=_order)
        # Split into attempts: a phase starting before the previous
        # attempt's last phase ended on the same lane cannot happen, so a
        # "request/setup" span starts a fresh attempt.
        attempts: list[list[dict]] = []
        for ev in spans:
            if ev.get("name") == PHASE_ORDER[0] or not attempts:
                attempts.append([])
            attempts[-1].append(ev)
        abort_marks = sorted(aborts.get(lane, []), key=lambda e: e.get("ts", 0.0))
        for idx, group in enumerate(attempts):
            phases = [
                {
                    "name": ev.get("name", ""),
                    "start_s": ev.get("ts", 0.0) / 1e6,
                    "end_s": (ev.get("ts", 0.0) + ev.get("dur", 0.0)) / 1e6,
                    "duration_s": ev.get("dur", 0.0) / 1e6,
                }
                for ev in group
            ]
            t0 = min(p["start_s"] for p in phases)
            t1 = max(p["end_s"] for p in phases)
            abort = next(
                (a for a in abort_marks if t0 <= a.get("ts", 0.0) / 1e6 <= t1 + 1e-9),
                None,
            )
            out.append({
                "vm": vm,
                "attempt": idx,
                "start_s": t0,
                "end_s": t1,
                "phases": phases,
                "aborted": abort is not None,
                "abort_cause": (abort or {}).get("args", {}).get("cause"),
            })
    return out


def fault_windows(events: list) -> list[dict]:
    """Pair ``fault.inject`` with ``fault.clear`` into degraded windows.

    Unpaired injections (permanent faults, or a run ending mid-window)
    stay open: ``end_s`` is None.
    """
    open_by_key: dict[tuple, list[dict]] = {}
    windows: list[dict] = []
    for ev in events:
        name = ev.get("name")
        if name not in ("fault.inject", "fault.clear") or ev.get("ph") != "i":
            continue
        args = ev.get("args", {})
        key = (args.get("kind"), args.get("target"))
        if name == "fault.inject":
            win = {
                "kind": args.get("kind"),
                "target": args.get("target"),
                "severity": args.get("severity"),
                "start_s": ev.get("ts", 0.0) / 1e6,
                "end_s": None,
            }
            open_by_key.setdefault(key, []).append(win)
            windows.append(win)
        else:
            pending = open_by_key.get(key)
            if pending:
                pending.pop(0)["end_s"] = ev.get("ts", 0.0) / 1e6
    return windows


def _overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def phase_report(events: list, tid_names: dict) -> dict:
    """Timelines + fault windows + per-phase degraded overlap."""
    timelines = migration_timelines(events, tid_names)
    faults = fault_windows(events)
    horizon = max(
        [ev.get("ts", 0.0) / 1e6 for ev in events], default=0.0
    )
    for tl in timelines:
        for phase in tl["phases"]:
            degraded = 0.0
            for win in faults:
                end = win["end_s"] if win["end_s"] is not None else horizon
                degraded += _overlap(
                    phase["start_s"], phase["end_s"], win["start_s"], end
                )
            phase["degraded_s"] = min(degraded, phase["duration_s"])
    return {"migrations": timelines, "fault_windows": faults}

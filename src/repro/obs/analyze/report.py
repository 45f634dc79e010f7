"""Render an analysis summary: fixed-width text and single-file HTML.

The HTML report is fully self-contained — inline SVG and CSS, no script,
no external assets — so it can ride along as a CI artifact and open
anywhere.  Styling follows the repo's chart conventions: a fixed
categorical slot order per cause (color follows the cause, never its
rank), a single-hue sequential ramp for the heatmap, light/dark via CSS
custom properties keyed off ``prefers-color-scheme``, text always in ink
tokens, and a table view under every chart.
"""

from __future__ import annotations

from html import escape

from repro.obs.analyze.heatmap import FATE_COLUMNS, render_ascii

__all__ = ["render_text", "render_html", "cause_table"]

# -- shared formatting ---------------------------------------------------------

#: Fixed cause → categorical slot assignment (never cycled; a cause keeps
#: its color across reports regardless of which causes appear).
_CAUSE_SLOTS = {
    "push": 1,
    "prefetch": 2,
    "pull.demand": 3,
    "repo.fetch": 4,
    "memory": 5,
    "workload": 6,
    "control": 7,
}
_RETRY_SLOT = 8  # every retry.* cause shares the red slot


def _slot(cause: str) -> int | None:
    if cause in _CAUSE_SLOTS:
        return _CAUSE_SLOTS[cause]
    if cause.startswith("retry."):
        return _RETRY_SLOT
    return None  # folds to the muted "other" color


def _fmt_bytes(b: float) -> str:
    for unit, scale in (("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if abs(b) >= scale:
            return f"{b / scale:.2f} {unit}"
    return f"{b:.0f} B"


def _fmt_s(t: float) -> str:
    return f"{t:.2f} s"


def cause_table(run: dict) -> list[tuple[str, float, float, int, float]]:
    """Rows ``(cause, bytes, share, flows, busy_s)`` in slot-then-size order."""
    att = run["attribution"]
    metered = att["metered"]
    flows = att["flows_by_cause"]
    by_cause = (metered or {}).get("by_cause") or {
        c: st["bytes"] for c, st in flows.items()
    }
    total = sum(by_cause.values())
    rows = []
    for cause, nbytes in by_cause.items():
        st = flows.get(cause, {})
        rows.append((
            cause,
            nbytes,
            nbytes / total if total > 0 else 0.0,
            st.get("flows", 0),
            st.get("busy_s", 0.0),
        ))
    rows.sort(key=lambda r: (_slot(r[0]) or 99, -r[1], r[0]))
    return rows


# -- text ----------------------------------------------------------------------

def render_text(summary: dict) -> str:
    """The analysis as fixed-width text (CLI default, example output)."""
    out = []
    for run in summary["runs"]:
        out.append(f"== run: {run['label']} ({run['events']} events)")
        rows = cause_table(run)
        if rows:
            out.append(
                "  cause".ljust(22) + "bytes".rjust(12) + "share".rjust(8)
                + "flows".rjust(7) + "busy".rjust(10)
            )
            out.extend(
                f"  {cause}".ljust(22)
                + _fmt_bytes(nbytes).rjust(12)
                + f"{100 * share:.1f}%".rjust(8)
                + str(nflows).rjust(7)
                + _fmt_s(busy).rjust(10)
                for cause, nbytes, share, nflows, busy in rows
            )
        metered = run["attribution"]["metered"]
        if metered is not None:
            cons = metered["conservation"]
            verdict = "exact" if cons["exact"] else (
                f"VIOLATED (residual {cons['residual_bytes']:g} B)"
            )
            out.append(
                f"  conservation: {verdict} — causes sum to "
                f"{_fmt_bytes(cons['total_bytes'])} meter total"
            )
        else:
            out.append("  conservation: no traffic.snapshot in this lane")
        for tl in run["phases"]["migrations"]:
            head = f"  migration {tl['vm']}"
            if tl["attempt"]:
                head += f" (attempt {tl['attempt'] + 1})"
            if tl["aborted"]:
                head += f" — ABORTED ({tl['abort_cause']})"
            out.append(head)
            for ph in tl["phases"]:
                line = (
                    f"    {ph['name']}".ljust(26)
                    + f"{ph['start_s']:.2f} → {ph['end_s']:.2f}"
                    + f"  ({_fmt_s(ph['duration_s'])})"
                )
                if ph.get("degraded_s"):
                    line += f"  [{_fmt_s(ph['degraded_s'])} degraded]"
                out.append(line)
        for win in run["phases"]["fault_windows"]:
            end = "open" if win["end_s"] is None else f"{win['end_s']:.2f}"
            out.append(
                f"  fault {win['kind']} on {win['target']}: "
                f"{win['start_s']:.2f} → {end}"
            )
        for att in run.get("critical_path") or []:
            cons = att["conservation"]
            verdict = "exact" if cons["exact"] else (
                f"VIOLATED (residual {cons['residual_s']:g} s)"
            )
            out.append(
                f"  critical path {att['vm']} attempt {att['attempt']}: "
                f"{_fmt_s(att['wall_s'])} wall, conservation {verdict}"
            )
            out.extend(
                f"    {row['resource']}".ljust(26)
                + _fmt_s(row["seconds"]).rjust(10)
                + f"{100 * row['share']:.1f}%".rjust(8)
                for row in att["by_resource"]
            )
        out.extend(
            "  " + render_ascii(hm).replace("\n", "\n  ")
            for hm in run["heatmaps"]
        )
        out.append("")
    status = "exact" if summary["conservation_ok"] else "VIOLATED"
    out.append(f"byte-attribution conservation across all runs: {status}")
    return "\n".join(out)


# -- HTML ----------------------------------------------------------------------

_CSS = """
:root { margin: 0; }
body {
  margin: 0; padding: 24px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--text-primary);
}
.viz-root {
  color-scheme: light;
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --border: rgba(11,11,11,0.10);
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a; --s4: #eda100;
  --s5: #e87ba4; --s6: #008300; --s7: #4a3aa7; --s8: #e34948;
  --good: #0ca30c; --critical: #d03b3b; --serious: #ec835a;
  --seq1: #cde2fb; --seq2: #9ec5f4; --seq3: #6da7ec; --seq4: #3987e5;
  --seq5: #256abf; --seq6: #184f95; --seq7: #0d366b;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    color-scheme: dark;
    --page: #0d0d0d; --surface-1: #1a1a19;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
    --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
    --s5: #d55181; --s6: #008300; --s7: #9085e9; --s8: #e66767;
  }
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
h3 { font-size: 13px; margin: 18px 0 6px; color: var(--text-secondary); }
.sub { color: var(--text-secondary); font-size: 13px; margin-bottom: 20px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 18px; margin-bottom: 16px;
}
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 12px 0; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 16px; min-width: 120px;
}
.tile .v { font-size: 22px; font-weight: 600; }
.tile .k { font-size: 12px; color: var(--text-secondary); }
.badge {
  display: inline-flex; align-items: center; gap: 6px;
  font-size: 13px; font-weight: 600;
}
.badge .dot { font-size: 15px; }
.badge.good { color: var(--good); }
.badge.bad { color: var(--critical); }
svg text { font-family: inherit; }
table { border-collapse: collapse; font-size: 13px; margin-top: 8px; }
th, td { padding: 3px 12px 3px 0; text-align: right; }
th:first-child, td:first-child { text-align: left; }
td { font-variant-numeric: tabular-nums; }
th { color: var(--text-secondary); font-weight: 500; }
tr { border-bottom: 1px solid var(--grid); }
details { margin-top: 8px; }
summary { cursor: pointer; font-size: 12px; color: var(--text-muted); }
.legend { display: flex; flex-wrap: wrap; gap: 14px; font-size: 12px;
          color: var(--text-secondary); margin: 6px 0; }
.legend .sw { display: inline-block; width: 10px; height: 10px;
              border-radius: 2px; margin-right: 5px; vertical-align: -1px; }
"""


def _color(cause: str) -> str:
    slot = _slot(cause)
    return f"var(--s{slot})" if slot else "var(--text-muted)"


def _bar(x: float, y: float, w: float, h: float, fill: str,
         title: str) -> str:
    # Square at the baseline, 4px-rounded at the data end.
    r = min(4.0, w / 2, h / 2)
    d = (
        f"M{x:.1f},{y:.1f} h{max(w - r, 0):.1f} "
        f"a{r:.1f},{r:.1f} 0 0 1 {r:.1f},{r:.1f} v{max(h - 2 * r, 0):.1f} "
        f"a{r:.1f},{r:.1f} 0 0 1 {-r:.1f},{r:.1f} h{-max(w - r, 0):.1f} z"
    )
    return f'<path d="{d}" fill="{fill}"><title>{escape(title)}</title></path>'


def _cause_chart(rows: list) -> str:
    """Horizontal per-cause bars with direct labels and a table view."""
    if not rows:
        return "<p class='sub'>no attributed bytes</p>"
    width, label_w, value_w = 720, 150, 90
    bar_h, gap = 20, 8
    plot_w = width - label_w - value_w
    vmax = max(r[1] for r in rows) or 1.0
    height = len(rows) * (bar_h + gap) + 4
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="bytes by cause">'
    ]
    # hairline gridlines at quarters
    for q in (0.25, 0.5, 0.75, 1.0):
        gx = label_w + plot_w * q
        parts.append(
            f'<line x1="{gx:.1f}" y1="0" x2="{gx:.1f}" y2="{height - 4}" '
            f'stroke="var(--grid)" stroke-width="1"/>'
        )
    for i, (cause, nbytes, share, nflows, busy) in enumerate(rows):
        y = i * (bar_h + gap)
        w = max(plot_w * nbytes / vmax, 2.0)
        title = (f"{cause}: {_fmt_bytes(nbytes)} ({100 * share:.1f}%), "
                 f"{nflows} flows, {busy:.2f}s on the wire")
        parts.append(
            f'<text x="{label_w - 10}" y="{y + bar_h - 6}" text-anchor="end" '
            f'font-size="12" fill="var(--text-primary)">{escape(cause)}</text>'
        )
        parts.append(_bar(label_w, y, w, bar_h, _color(cause), title))
        parts.append(
            f'<text x="{label_w + w + 8}" y="{y + bar_h - 6}" font-size="12" '
            f'fill="var(--text-secondary)">{_fmt_bytes(nbytes)} '
            f'({100 * share:.0f}%)</text>'
        )
    parts.append("</svg>")
    table = [
        "<details><summary>table view</summary><table>",
        "<tr><th>cause</th><th>bytes</th><th>share</th>"
        "<th>flows</th><th>wire time</th></tr>",
    ]
    table.extend(
        f"<tr><td>{escape(cause)}</td><td>{_fmt_bytes(nbytes)}</td>"
        f"<td>{100 * share:.1f}%</td><td>{nflows}</td>"
        f"<td>{busy:.2f} s</td></tr>"
        for cause, nbytes, share, nflows, busy in rows
    )
    table.append("</table></details>")
    return "".join(parts) + "".join(table)


#: Phase → slot in recorded wall order (adjacent slots are the palette's
#: validated adjacency).
_PHASE_SLOTS = {
    "request/setup": 1,
    "memory + push": 2,
    "sync": 3,
    "downtime": 4,
    "pull / post-control": 5,
}


def _phase_chart(run: dict) -> str:
    """One gantt row per migration attempt, degraded windows overlaid."""
    migrations = run["phases"]["migrations"]
    if not migrations:
        return "<p class='sub'>no migration recorded in this lane</p>"
    t0 = min(tl["start_s"] for tl in migrations)
    t1 = max(tl["end_s"] for tl in migrations)
    for win in run["phases"]["fault_windows"]:
        t1 = max(t1, win["end_s"] if win["end_s"] is not None else t1)
    span = max(t1 - t0, 1e-9)
    width, label_w = 720, 150
    row_h, gap = 22, 10
    plot_w = width - label_w - 10
    height = len(migrations) * (row_h + gap) + 22

    def sx(t: float) -> float:
        return label_w + plot_w * (t - t0) / span

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="migration phases">'
    ]
    for q in range(5):
        gx = label_w + plot_w * q / 4
        tq = t0 + span * q / 4
        parts.append(
            f'<line x1="{gx:.1f}" y1="0" x2="{gx:.1f}" '
            f'y2="{height - 18}" stroke="var(--grid)" stroke-width="1"/>'
            f'<text x="{gx:.1f}" y="{height - 5}" text-anchor="middle" '
            f'font-size="11" fill="var(--text-muted)">{tq:.1f}s</text>'
        )
    for i, tl in enumerate(migrations):
        y = i * (row_h + gap)
        label = tl["vm"] + (f" #{tl['attempt'] + 1}" if tl["attempt"] else "")
        if tl["aborted"]:
            label += " ✕"
        parts.append(
            f'<text x="{label_w - 10}" y="{y + row_h - 7}" text-anchor="end" '
            f'font-size="12" fill="var(--text-primary)">{escape(label)}</text>'
        )
        for ph in tl["phases"]:
            x = sx(ph["start_s"])
            w = max(sx(ph["end_s"]) - x, 1.0)
            slot = _PHASE_SLOTS.get(ph["name"])
            fill = f"var(--s{slot})" if slot else "var(--text-muted)"
            title = (f"{ph['name']}: {ph['start_s']:.2f}–{ph['end_s']:.2f}s "
                     f"({ph['duration_s']:.2f}s)")
            if ph.get("degraded_s"):
                title += f", {ph['degraded_s']:.2f}s under injected faults"
            # 2px surface gap between adjacent segments.
            parts.append(
                f'<rect x="{x + 1:.1f}" y="{y}" width="{max(w - 2, 1):.1f}" '
                f'height="{row_h}" rx="2" fill="{fill}">'
                f"<title>{escape(title)}</title></rect>"
            )
        for win in run["phases"]["fault_windows"]:
            wx = sx(win["start_s"])
            wend = win["end_s"] if win["end_s"] is not None else t1
            ww = max(sx(wend) - wx, 1.0)
            wt = (f"fault {win['kind']} on {win['target']} "
                  f"({win['start_s']:.2f}s → "
                  + ("open" if win["end_s"] is None else f"{wend:.2f}s") + ")")
            parts.append(
                f'<rect x="{wx:.1f}" y="{y - 3}" width="{ww:.1f}" height="3" '
                f'fill="var(--serious)"><title>{escape(wt)}</title></rect>'
            )
    parts.append("</svg>")
    legend = ['<div class="legend">']
    legend.extend(
        f'<span><span class="sw" style="background:var(--s{slot})"></span>'
        f"{escape(name)}</span>"
        for name, slot in _PHASE_SLOTS.items()
    )
    if run["phases"]["fault_windows"]:
        legend.append(
            '<span><span class="sw" style="background:var(--serious)"></span>'
            "fault window</span>"
        )
    legend.append("</div>")
    table = [
        "<details><summary>table view</summary><table>",
        "<tr><th>migration</th><th>phase</th><th>start</th><th>end</th>"
        "<th>duration</th><th>degraded</th></tr>",
    ]
    for tl in migrations:
        who = tl["vm"] + (f" #{tl['attempt'] + 1}" if tl["attempt"] else "")
        table.extend(
            f"<tr><td>{escape(who)}</td><td>{escape(ph['name'])}</td>"
            f"<td>{ph['start_s']:.2f} s</td><td>{ph['end_s']:.2f} s</td>"
            f"<td>{ph['duration_s']:.2f} s</td>"
            f"<td>{ph.get('degraded_s', 0.0):.2f} s</td></tr>"
            for ph in tl["phases"]
        )
    table.append("</table></details>")
    return "".join(legend) + "".join(parts) + "".join(table)


def _heatmap_chart(hm: dict) -> str:
    """Write-count × fate cells on the sequential ramp, plus the table."""
    cells = {(wc, fate): n for wc, fate, n in hm["cells"]}
    rows = sorted({wc for wc, _f, _n in hm["cells"]})
    if not rows:
        return "<p class='sub'>no transferred chunks recorded</p>"
    vmax = max(cells.values())
    cap, thr = hm.get("wc_cap"), hm.get("threshold")
    cell_w, cell_h, gap = 110, 26, 2
    label_w = 70
    width = label_w + len(FATE_COLUMNS) * (cell_w + gap) + 10
    height = (len(rows) + 1) * (cell_h + gap) + 6

    def ramp(n: int) -> str:
        if n == 0:
            return "var(--surface-1)"
        step = 1 + int(6 * (n / vmax) ** 0.5 + 1e-9)
        return f"var(--seq{min(step, 7)})"

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="chunk fate heatmap">'
    ]
    for j, fate in enumerate(FATE_COLUMNS):
        x = label_w + j * (cell_w + gap)
        parts.append(
            f'<text x="{x + cell_w / 2:.1f}" y="{cell_h - 9}" '
            f'text-anchor="middle" font-size="12" '
            f'fill="var(--text-secondary)">{escape(fate)}</text>'
        )
    for i, wc in enumerate(rows):
        y = (i + 1) * (cell_h + gap)
        lab = f"{wc}+" if cap is not None and wc == cap else str(wc)
        if thr is not None and wc == thr:
            lab += " ⏷"
        parts.append(
            f'<text x="{label_w - 8}" y="{y + cell_h - 8}" text-anchor="end" '
            f'font-size="12" fill="var(--text-primary)">{escape(lab)}</text>'
        )
        for j, fate in enumerate(FATE_COLUMNS):
            x = label_w + j * (cell_w + gap)
            n = cells.get((wc, fate), 0)
            title = f"{n} chunks written {lab} time(s) → {fate}"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_w}" height="{cell_h}" '
                f'rx="2" fill="{ramp(n)}" stroke="var(--grid)" '
                f'stroke-width="1"><title>{escape(title)}</title></rect>'
            )
    parts.append("</svg>")
    table = [
        "<details><summary>table view</summary><table>",
        "<tr><th>writes</th>"
        + "".join(f"<th>{escape(f)}</th>" for f in FATE_COLUMNS) + "</tr>",
    ]
    for wc in rows:
        lab = f"{wc}+" if cap is not None and wc == cap else str(wc)
        table.append(
            f"<tr><td>{escape(lab)}</td>"
            + "".join(
                f"<td>{cells.get((wc, f), 0)}</td>" for f in FATE_COLUMNS
            )
            + "</tr>"
        )
    table.append("</table></details>")
    note = ""
    if thr is not None:
        note = (
            f"<p class='sub'>⏷ Threshold = {thr}: chunks written at least "
            "that often were excluded from the active push and could only "
            "be prefetched or pulled on demand.</p>"
        )
    return "".join(parts) + note + "".join(table)


#: Resource class → categorical slot for the critical-path lane.  Network
#: classes reuse the matching cause colors (push is always s1, prefetch
#: always s2, ...); stalls/backoff get the alarm hue via a direct color.
_RESOURCE_SLOTS = {
    "net.push": 1,
    "net.prefetch": 2,
    "net.demand": 3,
    "net.repo": 4,
    "net.memory": 5,
    "net.workload": 6,
    "net.control": 7,
    "net.retry": 8,
    "disk": 4,
    "pagecache": 3,
    "codec": 6,
}


def _resource_color(resource: str) -> str:
    slot = _RESOURCE_SLOTS.get(resource)
    if slot is not None:
        return f"var(--s{slot})"
    if resource.startswith("stall.") or resource == "retry.backoff":
        return "var(--serious)"
    return "var(--text-muted)"


def _critical_chart(run: dict) -> str:
    """Critical-path lane per attempt + the bottleneck ranking table."""
    attempts = run.get("critical_path") or []
    if not attempts:
        return ""
    t0 = min(att["start_s"] for att in attempts)
    t1 = max(att["end_s"] for att in attempts)
    span = max(t1 - t0, 1e-9)
    width, label_w = 720, 150
    row_h, gap = 22, 10
    plot_w = width - label_w - 10
    height = len(attempts) * (row_h + gap) + 22

    def sx(t: float) -> float:
        return label_w + plot_w * (t - t0) / span

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="critical path">'
    ]
    for q in range(5):
        gx = label_w + plot_w * q / 4
        tq = t0 + span * q / 4
        parts.append(
            f'<line x1="{gx:.1f}" y1="0" x2="{gx:.1f}" '
            f'y2="{height - 18}" stroke="var(--grid)" stroke-width="1"/>'
            f'<text x="{gx:.1f}" y="{height - 5}" text-anchor="middle" '
            f'font-size="11" fill="var(--text-muted)">{tq:.1f}s</text>'
        )
    for i, att in enumerate(attempts):
        y = i * (row_h + gap)
        label = att["vm"] + (f" #{att['attempt'] + 1}" if att["attempt"] else "")
        if att["aborted"]:
            label += " ✕"
        parts.append(
            f'<text x="{label_w - 10}" y="{y + row_h - 7}" text-anchor="end" '
            f'font-size="12" fill="var(--text-primary)">{escape(label)}</text>'
        )
        for seg in att["segments"]:
            x = sx(seg["t0"])
            w = max(sx(seg["t1"]) - x, 0.5)
            dur = seg["t1"] - seg["t0"]
            title = (f"{seg['resource']}: {seg['t0']:.3f}–{seg['t1']:.3f}s "
                     f"({dur:.3f}s)")
            parts.append(
                f'<rect x="{x:.2f}" y="{y}" width="{w:.2f}" '
                f'height="{row_h}" fill="{_resource_color(seg["resource"])}">'
                f"<title>{escape(title)}</title></rect>"
            )
    parts.append("</svg>")
    seen = list(dict.fromkeys(
        row["resource"] for att in attempts for row in att["by_resource"]
    ))
    legend = ['<div class="legend">']
    legend.extend(
        f'<span><span class="sw" '
        f'style="background:{_resource_color(resource)}"></span>'
        f"{escape(resource)}</span>"
        for resource in seen
    )
    legend.append("</div>")
    table = [
        "<table>",
        "<tr><th>attempt</th><th>resource</th><th>on critical path</th>"
        "<th>share</th></tr>",
    ]
    for att in attempts:
        who = att["vm"] + (f" #{att['attempt'] + 1}" if att["attempt"] else "")
        table.extend(
            f"<tr><td>{escape(who)}</td><td>{escape(row['resource'])}</td>"
            f"<td>{row['seconds']:.3f} s</td>"
            f"<td>{100 * row['share']:.1f}%</td></tr>"
            for row in att["by_resource"]
        )
    table.append("</table>")
    badges = []
    for att in attempts:
        cons = att["conservation"]
        who = att["vm"] + (f" #{att['attempt'] + 1}" if att["attempt"] else "")
        if cons["exact"]:
            badges.append(
                '<span class="badge good"><span class="dot">✓</span>'
                f"{escape(who)}: segments sum exactly to "
                f"{escape(_fmt_s(cons['wall_s']))} wall</span>"
            )
        else:
            badges.append(
                '<span class="badge bad"><span class="dot">✗</span>'
                f"{escape(who)}: residual {cons['residual_s']:g} s</span>"
            )
    return (
        "".join(legend) + "".join(parts)
        + "<br>".join(badges) + "".join(table)
    )


def _conservation_badge(run: dict) -> str:
    metered = run["attribution"]["metered"]
    if metered is None:
        return (
            '<span class="badge"><span class="dot">○</span>'
            "no traffic snapshot</span>"
        )
    cons = metered["conservation"]
    if cons["exact"]:
        return (
            '<span class="badge good"><span class="dot">✓</span>'
            f"conservation exact — causes sum to "
            f"{escape(_fmt_bytes(cons['total_bytes']))}</span>"
        )
    return (
        '<span class="badge bad"><span class="dot">✗</span>'
        f"conservation violated — residual "
        f"{escape(_fmt_bytes(cons['residual_bytes']))}</span>"
    )


def _run_tiles(run: dict) -> str:
    metered = run["attribution"]["metered"]
    total = metered["total_bytes"] if metered else sum(
        st["bytes"] for st in run["attribution"]["flows_by_cause"].values()
    )
    tiles = [("total traffic", _fmt_bytes(total))]
    migrations = run["phases"]["migrations"]
    done = [tl for tl in migrations if not tl["aborted"]]
    if done:
        tl = done[-1]
        tiles.append(
            ("migration time", _fmt_s(tl["end_s"] - tl["start_s"]))
        )
        downtime = sum(
            ph["duration_s"] for ph in tl["phases"] if ph["name"] == "downtime"
        )
        tiles.append(("downtime", f"{1000 * downtime:.0f} ms"))
    aborted = sum(1 for tl in migrations if tl["aborted"])
    if aborted:
        tiles.append(("aborted attempts", str(aborted)))
    nflows = sum(
        st.get("flows", 0)
        for st in run["attribution"]["flows_by_cause"].values()
    )
    tiles.append(("completed flows", f"{nflows:,}"))
    return '<div class="tiles">' + "".join(
        f'<div class="tile"><div class="v">{escape(v)}</div>'
        f'<div class="k">{escape(k)}</div></div>'
        for k, v in tiles
    ) + "</div>"


def _profile_rows(node: dict, depth: int, total: float, rows: list) -> None:
    share = 100.0 * node["exclusive_s"] / total if total > 0 else 0.0
    pad = depth * 14
    bar = max(share, 0.0)
    rows.append(
        "<tr>"
        f"<td style='padding-left:{pad + 6}px'>{escape(node['name'])}</td>"
        f"<td class='num'>{node['inclusive_s']:.4f}</td>"
        f"<td class='num'>{node['exclusive_s']:.4f}</td>"
        f"<td class='num'>{share:.1f}%</td>"
        f"<td class='num'>{node['calls']:,}</td>"
        f"<td><div style='background:var(--accent,#6a6af4);height:9px;"
        f"width:{bar:.1f}%;min-width:1px;border-radius:2px'></div></td>"
        "</tr>"
    )
    for child in node.get("children", []):
        _profile_rows(child, depth + 1, total, rows)


def _profile_panel(profile: dict) -> str:
    """The self-profiler card: host-time subsystem tree + work counters."""
    if not profile.get("enabled"):
        return ""
    total = profile["total_wall_s"]
    rows: list = []
    for root in profile.get("tree", []):
        _profile_rows(root, 0, total, rows)
    cons = profile["conservation"]
    badge = (
        '<span class="badge good"><span class="dot">✓</span>'
        f"exclusive times sum to wall (residual {cons['residual_s']:+.2e} s)"
        "</span>"
        if cons["ok"] else
        '<span class="badge bad"><span class="dot">✗</span>'
        f"profile NOT conserved — residual {cons['residual_s']:+.2e} s</span>"
    )
    counters = profile.get("counters", {})
    counter_rows = "".join(
        f"<tr><td>{escape(k)}</td><td class='num'>{v:,}</td></tr>"
        for k, v in counters.items()
    )
    counter_html = (
        "<h3>Work counters</h3><table class='tbl'>"
        "<tr><th>counter</th><th class='num'>value</th></tr>"
        f"{counter_rows}</table>"
        if counter_rows else ""
    )
    return (
        '<div class="card">'
        "<h2>Host self-profile</h2>"
        f"<p class='sub'>total attributed wall {total:.4f} s · {badge}</p>"
        "<table class='tbl'>"
        "<tr><th>subsystem</th><th class='num'>incl s</th>"
        "<th class='num'>excl s</th><th class='num'>excl %</th>"
        "<th class='num'>calls</th><th></th></tr>"
        + "".join(rows)
        + "</table>"
        + counter_html
        + "</div>"
    )


# -- time-resolved telemetry (repro.obs.series) --------------------------------

#: Traffic tag → categorical slot; tags reuse the color of the cause that
#: dominates them so the bandwidth chart reads against the cause chart.
_TAG_SLOTS = {
    "storage-push": 1,
    "storage-pull": 2,
    "storage-mirror": 3,
    "repo": 4,
    "memory": 5,
    "workload": 6,
    "control": 7,
}

#: Gauge-name prefixes that make up the remaining-set drain curve.
_DRAIN_PREFIXES = (
    "push.remaining:", "pull.pending:", "precopy.dirty:",
    "mirror.outstanding:",
)

_DRAIN_SLOTS = {"push.remaining": 1, "pull.pending": 3,
                "precopy.dirty": 5, "mirror.outstanding": 2}


def _tag_color(tag: str) -> str:
    slot = _TAG_SLOTS.get(tag)
    return f"var(--s{slot})" if slot else "var(--text-muted)"


def _fmt_value(v: float) -> str:
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:.3g}"


def _step_points(points: list) -> list:
    """Step-after interpolation: hold each sample until the next one."""
    out = []
    for i, (t, v) in enumerate(points):
        if i:
            out.append((t, points[i - 1][1]))
        out.append((t, v))
    return out


def _line_chart(series: list, unit: str, aria: str) -> str:
    """Multi-line step chart; ``series`` is ``[(name, color, points)]``."""
    series = [(n, c, p) for n, c, p in series if p]
    if not series:
        return ""
    t0 = min(p[0][0] for _n, _c, p in series)
    t1 = max(p[-1][0] for _n, _c, p in series)
    vmax = max(max(v for _t, v in p) for _n, _c, p in series) or 1.0
    span = max(t1 - t0, 1e-9)
    width, height, left, bottom = 720, 150, 56, 18
    plot_w, plot_h = width - left - 10, height - bottom - 8

    def sx(t: float) -> float:
        return left + plot_w * (t - t0) / span

    def sy(v: float) -> float:
        return 8 + plot_h * (1.0 - v / vmax)

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="{escape(aria)}">'
    ]
    for q in range(5):
        gx = left + plot_w * q / 4
        tq = t0 + span * q / 4
        parts.append(
            f'<line x1="{gx:.1f}" y1="8" x2="{gx:.1f}" '
            f'y2="{height - bottom}" stroke="var(--grid)" stroke-width="1"/>'
            f'<text x="{gx:.1f}" y="{height - 4}" text-anchor="middle" '
            f'font-size="11" fill="var(--text-muted)">{tq:.1f}s</text>'
        )
    top_label = _fmt_value(vmax) + (f" {unit}" if unit else "")
    parts.append(
        f'<text x="{left - 6}" y="16" text-anchor="end" font-size="11" '
        f'fill="var(--text-muted)">{escape(top_label)}</text>'
        f'<text x="{left - 6}" y="{height - bottom}" text-anchor="end" '
        f'font-size="11" fill="var(--text-muted)">0</text>'
    )
    for name, color, pts in series:
        coords = " ".join(
            f"{sx(t):.1f},{sy(v):.1f}" for t, v in _step_points(pts)
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.6"><title>{escape(name)}</title></polyline>'
        )
    parts.append("</svg>")
    legend = ['<div class="legend">']
    legend.extend(
        f'<span><span class="sw" style="background:{color}"></span>'
        f"{escape(name)}</span>"
        for name, color, _pts in series
    )
    legend.append("</div>")
    return "".join(legend) + "".join(parts)


def _rate_on_grid(rate_points: list, t: float) -> float:
    """The rate in effect at time ``t`` (0 outside the recorded range)."""
    for pt, pv in rate_points:
        if pt >= t:
            return pv
    return 0.0


def _stacked_bandwidth(run: dict) -> str:
    """Per-tag bandwidth as a stacked area chart (rates from the exact
    cumulative ``net.*`` curves)."""
    from repro.obs.series.agg import rates_from_cumulative

    tags = []
    for name, sig in run["signals"].items():
        if name.startswith("net.") and sig["kind"] == "rate" \
                and not name.startswith("net.rate.") and sig["points"]:
            tag = name[len("net."):]
            tags.append((tag, rates_from_cumulative(sig["points"],
                                                    sig["bin_width"])))
    tags = [(tag, pts) for tag, pts in tags if pts]
    if not tags:
        return ""
    tags.sort(key=lambda tp: (_TAG_SLOTS.get(tp[0], 99), tp[0]))
    t0 = min(p[0][0] for _t, p in tags)
    t1 = max(p[-1][0] for _t, p in tags)
    span = max(t1 - t0, 1e-9)
    n_grid = 120
    grid = [t0 + span * k / n_grid for k in range(n_grid + 1)]
    layers = [[_rate_on_grid(pts, t) for t in grid] for _tag, pts in tags]
    stacked = []
    running = [0.0] * len(grid)
    for layer in layers:
        base = list(running)
        running = [b + v for b, v in zip(running, layer)]
        stacked.append((base, list(running)))
    vmax = max(running) or 1.0
    width, height, left, bottom = 720, 170, 56, 18
    plot_w, plot_h = width - left - 10, height - bottom - 8

    def sx(t: float) -> float:
        return left + plot_w * (t - t0) / span

    def sy(v: float) -> float:
        return 8 + plot_h * (1.0 - v / vmax)

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="bandwidth by tag">'
    ]
    for q in range(5):
        gx = left + plot_w * q / 4
        tq = t0 + span * q / 4
        parts.append(
            f'<line x1="{gx:.1f}" y1="8" x2="{gx:.1f}" '
            f'y2="{height - bottom}" stroke="var(--grid)" stroke-width="1"/>'
            f'<text x="{gx:.1f}" y="{height - 4}" text-anchor="middle" '
            f'font-size="11" fill="var(--text-muted)">{tq:.1f}s</text>'
        )
    parts.append(
        f'<text x="{left - 6}" y="16" text-anchor="end" font-size="11" '
        f'fill="var(--text-muted)">{escape(_fmt_bytes(vmax))}/s</text>'
        f'<text x="{left - 6}" y="{height - bottom}" text-anchor="end" '
        f'font-size="11" fill="var(--text-muted)">0</text>'
    )
    for (tag, _pts), (base, top) in zip(tags, stacked):
        fwd = " ".join(f"{sx(t):.1f},{sy(v):.1f}"
                       for t, v in zip(grid, top))
        back = " ".join(f"{sx(t):.1f},{sy(v):.1f}"
                        for t, v in zip(reversed(grid), reversed(base)))
        parts.append(
            f'<polygon points="{fwd} {back}" fill="{_tag_color(tag)}" '
            f'fill-opacity="0.85"><title>{escape(tag)}</title></polygon>'
        )
    parts.append("</svg>")
    legend = ['<div class="legend">']
    legend.extend(
        f'<span><span class="sw" style="background:{_tag_color(tag)}">'
        f"</span>{escape(tag)}</span>"
        for tag, _pts in tags
    )
    legend.append("</div>")
    return "".join(legend) + "".join(parts)


def _dirty_vs_write_chart(run: dict) -> str:
    """Dirty-rate vs guest write-rate, each normalized to its own peak
    (different units; the shapes are what the comparison is about)."""
    from repro.obs.series.agg import rates_from_cumulative

    series = []
    for name, sig in sorted(run["signals"].items()):
        if name.startswith("mem.dirty_rate:") and sig["points"]:
            series.append((f"{name} (peak "
                           f"{_fmt_bytes(sig['max'] or 0.0)}/s)",
                           "var(--s5)", sig["points"], sig["max"]))
        elif name.startswith("writes.chunks:") and sig["points"]:
            rates = rates_from_cumulative(sig["points"], sig["bin_width"])
            peak = max(v for _t, v in rates)
            series.append((f"{name} (peak {_fmt_value(peak)} chunks/s)",
                           "var(--s6)", rates, peak))
    norm = [
        (name, color, [[t, v / peak] for t, v in pts] if peak else pts)
        for name, color, pts, peak in series
    ]
    return _line_chart(norm, "× peak", "dirty rate vs write rate")


def _series_conservation_badges(run: dict) -> str:
    cons = run.get("conservation")
    if cons is None:
        return (
            '<span class="badge"><span class="dot">○</span>'
            "no traffic meter snapshot in this run</span>"
        )
    badges = []
    for tag, row in sorted(cons["by_tag"].items()):
        if row["exact"]:
            badges.append(
                '<span class="badge good"><span class="dot">✓</span>'
                f"net.{escape(tag)} integral = meter total "
                f"({escape(_fmt_bytes(row['meter_total']))})</span>"
            )
        else:
            badges.append(
                '<span class="badge bad"><span class="dot">✗</span>'
                f"net.{escape(tag)} integral "
                f"{escape(_fmt_bytes(row['series_total']))} ≠ meter "
                f"{escape(_fmt_bytes(row['meter_total']))}</span>"
            )
    return "<br>".join(badges)


def _series_table(run: dict) -> str:
    rows = [
        "<details><summary>table view</summary><table>",
        "<tr><th>signal</th><th>kind</th><th>unit</th><th>samples</th>"
        "<th>min</th><th>max</th><th>total</th></tr>",
    ]
    for name, sig in sorted(run["signals"].items()):
        if sig["kind"] == "distribution":
            n = len(sig["snapshots"])
            cells = (f"{n} snapshot{'s' if n != 1 else ''}")
            rows.append(
                f"<tr><td>{escape(name)}</td><td>distribution</td>"
                f"<td>{escape(sig['unit'])}</td><td>{cells}</td>"
                "<td></td><td></td><td></td></tr>"
            )
            continue
        vmin = _fmt_value(sig["min"]) if sig.get("min") is not None else ""
        vmax = _fmt_value(sig["max"]) if sig.get("max") is not None else ""
        total = _fmt_value(sig["total"]) if "total" in sig else ""
        rows.append(
            f"<tr><td>{escape(name)}</td><td>{escape(sig['kind'])}</td>"
            f"<td>{escape(sig['unit'])}</td><td>{sig['samples']}</td>"
            f"<td>{vmin}</td><td>{vmax}</td><td>{total}</td></tr>"
        )
    rows.append("</table></details>")
    return "".join(rows)


def _series_panel(series: dict) -> str:
    """Time-series cards (one per recorded run): drain curve, stacked
    per-tag bandwidth, dirty-vs-write overlay, conservation badges."""
    if not series.get("enabled") or not series.get("runs"):
        return ""
    cards = []
    for run in series["runs"]:
        if not run["signals"]:
            continue
        blocks = [
            '<div class="card">',
            f"<h2>Time-resolved telemetry — {escape(run['label'])}</h2>",
            _series_conservation_badges(run),
        ]
        drain = _line_chart(
            [
                (name, f"var(--s{_DRAIN_SLOTS[name.split(':', 1)[0]]})",
                 sig["points"])
                for name, sig in sorted(run["signals"].items())
                if name.startswith(_DRAIN_PREFIXES) and sig["kind"] == "gauge"
            ],
            "chunks", "remaining-set drain",
        )
        if drain:
            blocks.append("<h3>Remaining-set drain</h3>")
            blocks.append(drain)
        bandwidth = _stacked_bandwidth(run)
        if bandwidth:
            blocks.append("<h3>Bandwidth by tag (stacked)</h3>")
            blocks.append(bandwidth)
        overlay = _dirty_vs_write_chart(run)
        if overlay:
            blocks.append("<h3>Dirty rate vs guest write rate</h3>")
            blocks.append(overlay)
        blocks.append(_series_table(run))
        blocks.append("</div>")
        cards.append("".join(blocks))
    return "".join(cards)


def render_html(summary: dict, title: str = "Migration flight report",
                profile: dict | None = None,
                series: dict | None = None) -> str:
    """The whole summary as one dependency-free HTML document.

    ``profile`` optionally embeds a host self-profile card
    (:meth:`repro.obs.prof.Profiler.summary`) after the run cards;
    ``series`` embeds time-resolved telemetry cards
    (:meth:`repro.obs.series.SeriesRecorder.summary`).
    """
    body = []
    for run in summary["runs"]:
        body.append('<div class="card">')
        body.append(f"<h2>{escape(run['label'])}</h2>")
        body.append(_run_tiles(run))
        body.append(_conservation_badge(run))
        body.append("<h3>Bytes by cause</h3>")
        body.append(_cause_chart(cause_table(run)))
        body.append("<h3>Phase timeline</h3>")
        body.append(_phase_chart(run))
        critical = _critical_chart(run)
        if critical:
            body.append("<h3>Critical path (why migration took this long)</h3>")
            body.append(critical)
        for hm in run["heatmaps"]:
            vm = hm.get("vm") or "vm"
            body.append(
                f"<h3>Chunk write-count × fate ({escape(str(vm))})</h3>"
            )
            body.append(_heatmap_chart(hm))
        body.append("</div>")
    if profile is not None:
        body.append(_profile_panel(profile))
    if series is not None:
        body.append(_series_panel(series))
    ok = summary["conservation_ok"]
    overall = (
        '<span class="badge good"><span class="dot">✓</span>'
        "all byte attribution conserved</span>"
        if ok else
        '<span class="badge bad"><span class="dot">✗</span>'
        "byte attribution NOT conserved — see runs below</span>"
    )
    return "".join([  # one join: + would copy the multi-MB page each time
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        f"<title>{escape(title)}</title>"
        f"<style>{_CSS}</style></head>"
        "<body class='viz-root'>"
        f"<h1>{escape(title)}</h1>"
        f"<p class='sub'>{len(summary['runs'])} run(s) · "
        f"schema {escape(summary['schema'])} · {overall}</p>",
        *body,
        "</body></html>\n",
    ])

"""Result containers and paper-style text rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

__all__ = ["SeriesResult", "render_table", "render_series"]


@dataclass
class SeriesResult:
    """One line of a paper figure: y-values of one approach over the x-axis."""

    approach: str
    x: list[float] = field(default_factory=list)
    y: list[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.x.append(x)
        self.y.append(y)


def _fmt(v) -> str:
    # String cells pass through verbatim (e.g. "aborted (2 retries)").
    if isinstance(v, str):
        return v
    if v == 0:
        return "0"
    if abs(v) >= 1000:
        return f"{v:,.0f}"
    if abs(v) >= 10:
        return f"{v:.1f}"
    return f"{v:.3g}"


def _fmt_x(x) -> str:
    # Axis ticks such as migration counts are whole numbers: print 10, not
    # 10.0.
    if isinstance(x, int):
        return str(x)
    return _fmt(x)


def render_table(
    title: str,
    columns: Sequence[str],
    rows: Mapping[str, Sequence[object]],
    unit: str = "",
) -> str:
    """A bar-chart figure as text: one row per approach, one column per
    benchmark (the shape of Figure 3's grouped bars).  Cells are numbers,
    or pre-rendered strings for non-numeric outcomes."""
    width = max([len(r) for r in rows] + [len("approach")]) + 2
    cells = {name: [_fmt(v) for v in values] for name, values in rows.items()}
    colw = max(
        [len(c) for c in columns]
        + [len(c) for row in cells.values() for c in row]
        + [10]
    ) + 2
    out = [f"== {title}" + (f" [{unit}]" if unit else "")]
    header = "approach".ljust(width) + "".join(c.rjust(colw) for c in columns)
    out.append(header)
    out.append("-" * len(header))
    out.extend(
        name.ljust(width) + "".join(c.rjust(colw) for c in row)
        for name, row in cells.items()
    )
    return "\n".join(out)


def render_series(
    title: str,
    x_label: str,
    series: Iterable[SeriesResult],
    unit: str = "",
) -> str:
    """A line-plot figure as text: x values as columns, approaches as rows
    (the shape of Figures 4 and 5)."""
    series = list(series)
    if not series:
        return f"== {title} (no data)"
    xs = series[0].x
    width = max([len(s.approach) for s in series] + [len(x_label)]) + 2
    colw = 12
    out = [f"== {title}" + (f" [{unit}]" if unit else "")]
    header = x_label.ljust(width) + "".join(_fmt_x(x).rjust(colw) for x in xs)
    out.append(header)
    out.append("-" * len(header))
    out.extend(
        s.approach.ljust(width) + "".join(_fmt(y).rjust(colw) for y in s.y)
        for s in series
    )
    return "\n".join(out)

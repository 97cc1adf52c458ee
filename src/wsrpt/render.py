"""Standalone SVG views of schedules: Gantt bars and weight profiles.

Both renderers emit self-contained SVG documents with coordinates printed
to three decimals, so figures can be diffed structurally (element counts
plus rounded coordinates) instead of pixel-by-pixel.
"""

from __future__ import annotations

from pathlib import Path

from .core import Instance, Schedule

_PALETTE = (
    "#4c72b0",
    "#dd8452",
    "#55a868",
    "#c44e52",
    "#8172b3",
    "#937860",
    "#da8bc3",
    "#8c8c8c",
    "#ccb974",
    "#64b5cd",
)

_WIDTH = 800.0
_MARGIN_LEFT = 60.0
_MARGIN_RIGHT = 20.0
_MARGIN_TOP = 30.0
_MARGIN_BOTTOM = 40.0
_LANE_HEIGHT = 24.0
_LANE_GAP = 6.0
_PROFILE_HEIGHT = 220.0
_TICKS = 8


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _color(job_id: int) -> str:
    return _PALETTE[job_id % len(_PALETTE)]


def _check(schedule: Schedule) -> None:
    if not schedule.slices:
        raise ValueError("cannot render an empty schedule")


def _axis(x0: float, x1: float, y: float, t_max: float) -> list[str]:
    parts = [
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y)}" x2="{_fmt(x1)}" '
        f'y2="{_fmt(y)}" stroke="#333" stroke-width="1"/>'
    ]
    for i in range(_TICKS + 1):
        t = t_max * i / _TICKS
        x = x0 + (x1 - x0) * i / _TICKS
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(y)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(y + 4)}" stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y + 16)}" font-size="10" '
            f'text-anchor="middle" fill="#333">{_fmt(t)}</text>'
        )
    return parts


def _document(width: float, height: float, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def render_gantt(schedule: Schedule, instance: Instance, path) -> str:
    """Write a Gantt chart — one lane per job, one bar per slice."""
    _check(schedule)
    ids = sorted(instance._grid.ids)
    lane = {jid: i for i, jid in enumerate(ids)}
    t_max = float(schedule.makespan)
    x0, x1 = _MARGIN_LEFT, _WIDTH - _MARGIN_RIGHT
    scale = (x1 - x0) / t_max
    height = _MARGIN_TOP + len(ids) * (_LANE_HEIGHT + _LANE_GAP) + _MARGIN_BOTTOM

    body = []
    for jid in ids:
        y = _MARGIN_TOP + lane[jid] * (_LANE_HEIGHT + _LANE_GAP)
        body.append(
            f'<text x="{_fmt(x0 - 8)}" y="{_fmt(y + _LANE_HEIGHT - 8)}" '
            f'font-size="11" text-anchor="end" fill="#333">J{jid}</text>'
        )
    for s in schedule.slices:
        y = _MARGIN_TOP + lane[s.job] * (_LANE_HEIGHT + _LANE_GAP)
        x = x0 + float(s.start) * scale
        w = float(s.length) * scale
        body.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(_LANE_HEIGHT)}" fill="{_color(s.job)}" '
            f'stroke="#222" stroke-width="0.5"/>'
        )
    body.extend(_axis(x0, x1, height - _MARGIN_BOTTOM + 8, t_max))

    text = _document(_WIDTH, height, body)
    Path(path).write_text(text, encoding="utf-8")
    return text


def render_profile(schedule: Schedule, instance: Instance, path) -> str:
    """Write the weight profile: w/p of the executing job versus time.

    The profile is a step function — one horizontal segment per slice at
    the executing job's weight-over-processing ratio, with risers between
    consecutive slices and gaps across idle time.
    """
    _check(schedule)
    # The quotient of the correctly rounded floats of w and p, read off the
    # grid as ``float(w) / float(p)`` would read them off the jobs.
    ids, _, procs, den_t, weights = instance._grid
    ratio = {i: (num / den) / (p / den_t) for i, p, (num, den) in zip(ids, procs, weights)}
    t_max = float(schedule.makespan)
    r_max = max(ratio[s.job] for s in schedule.slices)
    x0, x1 = _MARGIN_LEFT, _WIDTH - _MARGIN_RIGHT
    y0 = _MARGIN_TOP + _PROFILE_HEIGHT
    scale_x = (x1 - x0) / t_max
    scale_y = _PROFILE_HEIGHT / (1.1 * r_max)
    height = y0 + _MARGIN_BOTTOM

    def pt(t: float, r: float) -> str:
        return f"{_fmt(x0 + t * scale_x)},{_fmt(y0 - r * scale_y)}"

    body = [
        f'<line x1="{_fmt(x0)}" y1="{_fmt(_MARGIN_TOP)}" x2="{_fmt(x0)}" '
        f'y2="{_fmt(y0)}" stroke="#333" stroke-width="1"/>'
    ]
    for frac in (0.5, 1.0):
        r = r_max * frac
        y = y0 - r * scale_y
        body.append(
            f'<line x1="{_fmt(x0 - 4)}" y1="{_fmt(y)}" x2="{_fmt(x0)}" '
            f'y2="{_fmt(y)}" stroke="#333" stroke-width="1"/>'
        )
        body.append(
            f'<text x="{_fmt(x0 - 8)}" y="{_fmt(y + 3)}" font-size="10" '
            f'text-anchor="end" fill="#333">{_fmt(r)}</text>'
        )

    run: list[str] = []
    prev_end = None
    for s in schedule.slices:
        start, end = float(s.start), float(s.end)
        r = ratio[s.job]
        if prev_end is not None and start > prev_end and run:
            body.append(
                f'<polyline points="{" ".join(run)}" fill="none" '
                f'stroke="#4c72b0" stroke-width="1.5"/>'
            )
            run = []
        run.append(pt(start, r))
        run.append(pt(end, r))
        prev_end = end
    if run:
        body.append(
            f'<polyline points="{" ".join(run)}" fill="none" '
            f'stroke="#4c72b0" stroke-width="1.5"/>'
        )
    body.extend(_axis(x0, x1, y0, t_max))

    text = _document(_WIDTH, height, body)
    Path(path).write_text(text, encoding="utf-8")
    return text


__all__ = ["render_gantt", "render_profile"]

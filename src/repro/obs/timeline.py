"""ASCII Gantt rendering of traces (``python -m repro timeline``).

Turns a trace — straight from a :class:`~repro.sim.trace.Tracer` or
loaded back from an exported file — into a terminal timeline: one row
per (hypernode, CPU) track, span letters for activities (threads,
sends, receives, modelled phases), markers for instants (barrier
arrivals/releases, message posts).  The quick-look equivalent of
opening the Chrome trace in Perfetto.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

__all__ = ["render_timeline", "timeline_from_tracer"]

_SPAN_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"

#: instant-event name -> timeline marker
_MARKERS = {
    "barrier.arrive": "+",
    "barrier.open": "v",
    "barrier.release": "^",
    "pvm.post": "*",
    "thread.spawn": ">",
}
_DEFAULT_MARKER = "."


def timeline_from_tracer(tracer) -> List[Dict]:
    """Event dicts (Chrome-shaped, ts in us) from a live tracer."""
    from .export import _event_dict

    return [_event_dict(ev) for ev in tracer.events]


def render_timeline(events: Iterable[Dict], width: int = 72,
                    title: str = "timeline") -> str:
    """Render Chrome-shaped event dicts as an ASCII Gantt chart.

    Accepts the ``traceEvents`` of an exported file (or
    :func:`timeline_from_tracer` output); metadata and counter events
    are ignored.  Times may be in any consistent unit; the scale line
    reports the observed range verbatim.
    """
    spans: List[Tuple[int, int, str, float, float]] = []
    instants: List[Tuple[int, int, str, float]] = []
    open_stacks: Dict[Tuple[int, int], List[Tuple[str, float]]] = {}
    for ev in events:
        ph = ev.get("ph")
        if ph in ("M", "C", None):
            continue
        pid = int(ev.get("pid", 0))
        tid = int(ev.get("tid", 0))
        ts = float(ev.get("ts", 0.0))
        name = str(ev.get("name", "?"))
        if ph == "B":
            open_stacks.setdefault((pid, tid), []).append((name, ts))
        elif ph == "E":
            stack = open_stacks.get((pid, tid))
            if stack:
                sname, t0 = stack.pop()
                spans.append((pid, tid, sname, t0, ts))
        elif ph == "X":
            spans.append((pid, tid, name, ts,
                          ts + float(ev.get("dur", 0.0))))
        elif ph in ("i", "I"):
            instants.append((pid, tid, name, ts))

    if not spans and not instants:
        return f"{title}: (no events)"

    times = ([t for *_x, t0, t1 in spans for t in (t0, t1)]
             + [t for *_x, t in instants])
    t_lo, t_hi = min(times), max(times)
    extent = max(t_hi - t_lo, 1e-12)

    def col(t: float) -> int:
        return min(width - 1, int((t - t_lo) / extent * width))

    letters: Dict[str, str] = {}
    for _pid, _tid, sname, _t0, _t1 in spans:
        if sname not in letters:
            letters[sname] = (_SPAN_LETTERS[len(letters)]
                              if len(letters) < len(_SPAN_LETTERS) else "#")

    tracks = sorted({(p, t) for p, t, *_r in spans}
                    | {(p, t) for p, t, *_r in instants})
    rows: Dict[Tuple[int, int], List[str]] = {
        key: [" "] * width for key in tracks}
    # Longest spans first so shorter (nested/inner) spans overwrite them
    # and stay visible.
    for pid, tid, sname, t0, t1 in sorted(
            spans, key=lambda s: s[4] - s[3], reverse=True):
        row = rows[(pid, tid)]
        for c in range(col(t0), col(t1) + 1):
            row[c] = letters[sname]
    used_markers: Dict[str, str] = {}
    for pid, tid, iname, t in instants:
        mark = _MARKERS.get(iname, _DEFAULT_MARKER)
        used_markers[iname] = mark
        rows[(pid, tid)][col(t)] = mark

    label_w = max((len(f"hn{p}/cpu{t}") for p, t in tracks), default=0)
    lines = [f"== {title}: {t_lo:.1f} .. {t_hi:.1f} us "
             f"({extent:.1f} us across {width} cols) =="]
    for pid, tid in tracks:
        label = f"hn{pid}/cpu{tid}".ljust(label_w)
        lines.append(f"{label} |{''.join(rows[(pid, tid)])}|")
    if letters:
        lines.append("spans:   " + "  ".join(
            f"{letter}={name}" for name, letter in letters.items()))
    if used_markers:
        lines.append("markers: " + "  ".join(
            f"{mark}={name}" for name, mark in sorted(
                used_markers.items())))
    return "\n".join(lines)

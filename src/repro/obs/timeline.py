"""ASCII Gantt timelines from span trees: who ran when, for how long.

The trace outline (:func:`repro.obs.dashboard.render_trace_tree`) answers
"how long did each span take"; the timeline answers the *concurrency*
question — did the scoring micro-batches actually run in parallel, which
one straggled, where is the driver-side gap.  Each span becomes one row whose
bar is positioned by its wall-clock ``started_at`` offset from the root and
sized by its ``seconds``, so a 4-worker run shows its tasks stacked four
deep and a straggler at a glance.

A ``sharded.worker`` span carries the ``started_at`` stamp its worker took
with ``time.time()`` in its own process; those clocks are comparable on one
machine, which is all the sharded driver/worker topology needs.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

__all__ = ["render_timeline", "render_timelines", "timeline_roots"]

_BAR_WIDTH = 48
_LABEL_WIDTH = 30


def _contains(node: Mapping[str, object], name: str) -> bool:
    if node.get("name") == name:
        return True
    return any(_contains(child, name) for child in node.get("children") or ())


def timeline_roots(traces: Sequence[Mapping[str, object]],
                   max_roots: int = 3) -> List[Mapping[str, object]]:
    """Pick the root trees worth a timeline, newest first.

    Preference order: roots containing ``sharded.worker`` spans (the
    per-chunk story the timeline exists for), then ``pipeline.run`` roots,
    then simply the longest root.  An
    export from ``--export`` also carries training-epoch and per-request
    roots; rendering hundreds of those as Gantts would bury the answer.
    """
    roots = list(traces)
    if not roots:
        return []
    sharded = [r for r in roots if _contains(r, "sharded.worker")]
    if sharded:
        return sharded[-max_roots:][::-1]
    pipelines = [r for r in roots if r.get("name") == "pipeline.run"]
    if pipelines:
        return pipelines[-max_roots:][::-1]
    return [max(roots, key=lambda r: float(r.get("seconds", 0.0)))]


def _label(node: Mapping[str, object], depth: int) -> str:
    name = str(node.get("name", ""))
    attrs = node.get("attributes") or {}
    if "shard" in attrs:
        name = f"{name}[shard={attrs['shard']}]"
    text = "  " * depth + name
    if len(text) > _LABEL_WIDTH:
        text = text[:_LABEL_WIDTH - 1] + "…"
    return text


def render_timeline(root: Mapping[str, object],
                    width: int = _BAR_WIDTH,
                    max_depth: int = 4) -> str:
    """One span tree as an ASCII Gantt (one row per span, preorder).

    The time axis spans the root's wall-clock extent; every row's bar is
    clamped into it (a child that started before the root's ``started_at``
    — clock skew — clamps to the left edge rather than disappearing).
    """
    t0 = float(root.get("started_at", 0.0))
    total = max(float(root.get("seconds", 0.0)), 1e-9)
    lines = [f"{str(root.get('name', ''))}  — total {total:.4f}s "
             f"(one row per span; bar = wall-clock extent)"]
    lines.append(f"  {'span':<{_LABEL_WIDTH}} {'start':>8} {'wall':>9}  "
                 f"|{'-' * width}|")

    def walk(node: Mapping[str, object], depth: int) -> None:
        offset = float(node.get("started_at", t0)) - t0
        seconds = float(node.get("seconds", 0.0))
        left = min(max(int(round(offset / total * width)), 0), width - 1)
        length = max(int(round(seconds / total * width)), 1)
        length = min(length, width - left)
        bar = " " * left + "#" * length + " " * (width - left - length)
        lines.append(f"  {_label(node, depth):<{_LABEL_WIDTH}} "
                     f"{max(offset, 0.0):>7.3f}s {seconds:>8.4f}s  |{bar}|")
        if depth + 1 < max_depth:
            for child in node.get("children") or ():
                walk(child, depth + 1)
        elif node.get("children"):
            lines.append(f"  {'  ' * (depth + 1)}… "
                         f"({len(node['children'])} deeper spans elided)")

    walk(root, 0)
    return "\n".join(lines)


def render_timelines(traces: Sequence[Mapping[str, object]],
                     width: int = _BAR_WIDTH,
                     max_roots: int = 3) -> str:
    """Timelines for every root :func:`timeline_roots` selects."""
    roots = timeline_roots(traces, max_roots=max_roots)
    if not roots:
        return "(no trace trees to render)"
    return "\n\n".join(render_timeline(root, width=width) for root in roots)

"""Plain-text timeline rendering of reconstructed spans and link queues.

Same presentation philosophy as :mod:`repro.metrics.report`: fixed
width, dependency-free, directly quotable in docs.  Each span is one
table row whose last column is a bar positioned on a shared time axis,
so a run reads as a Gantt chart in a terminal.  The congestion heatmap
reads the QUEUE records a flow-controlled link writes on each change of
a direction's queue, live or replayed alike; the summary table reads
the totals the links keep, and each heatmap peak equals its ``peak occ``.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..metrics.report import format_table
from ..sim.trace import TraceKind, TraceRecord
from .spans import Span, span_counts

#: Rendering order and glyph per category.
_GLYPHS = {"packet": "=", "hop": "-", "ncu": "#", "phase": "~", "alert": "!"}

#: Intensity ramp for the congestion heatmap: index scales with the
#: bucket's peak occupancy relative to the global maximum.
_HEAT_RAMP = " .:-=+*#%@"


def render_timeline(
    spans: Iterable[Span],
    *,
    width: int = 56,
    categories: Sequence[str] = ("packet", "ncu", "phase", "alert"),
    limit: int | None = 40,
    title: str | None = None,
) -> str:
    """Render spans as a fixed-width text Gantt chart.

    ``width`` is the number of character cells the full simulated time
    range maps onto; ``categories`` filters which span kinds get rows
    (hops are noisy, so they are off by default); ``limit`` truncates
    the table (a trailing note says how many rows were dropped).
    """
    chosen = [s for s in spans if s.category in categories]
    chosen.sort(key=lambda s: (s.start, s.end, repr(s.node)))
    if not chosen:
        return "(no spans in the selected categories)"

    t0 = min(s.start for s in chosen)
    t1 = max(s.end for s in chosen)
    extent = max(t1 - t0, 1e-12)

    dropped = 0
    if limit is not None and len(chosen) > limit:
        dropped = len(chosen) - limit
        chosen = chosen[:limit]

    def bar(span: Span) -> str:
        offset = int((span.start - t0) / extent * (width - 1))
        length = max(1, round(span.duration / extent * width))
        length = min(length, width - offset)
        glyph = _GLYPHS.get(span.category, "#")
        return " " * offset + glyph * length + " " * (width - offset - length)

    rows = [
        [span.category, span.name, span.node, span.start, span.end, bar(span)]
        for span in chosen
    ]
    axis = f"t=[{t0:g}..{t1:g}]"
    out = format_table(
        ["cat", "span", "node", "start", "end", axis],
        rows,
        title=title,
    )
    if dropped:
        out += f"\n... {dropped} more spans not shown"
    return out


def render_congestion_heatmap(
    records: "Iterable[TraceRecord]",
    *,
    width: int = 56,
    title: str | None = None,
    limit: int | None = 40,
) -> str:
    """Render QUEUE records as a per-link-direction text heatmap.

    One row per link direction with a record; the last column maps
    the simulated time range onto ``width`` character cells, each cell
    showing the *peak* occupancy recorded in that time bucket on the
    :data:`_HEAT_RAMP` intensity scale (space = no record / empty
    queue, ``@`` = the global peak).  Non-QUEUE records are ignored,
    so a full trace can be passed as-is.

    ``limit`` keeps the table readable on fabric-scale runs: only the
    ``limit`` hottest directions (by peak occupancy, ties broken by the
    usual repr order) are shown, with a ``… k links omitted`` footer
    for the rest.  ``None`` shows every direction.  The time axis and
    the intensity scale still cover *all* samples, so the shown rows
    render identically with or without truncation.
    """
    samples: dict[tuple[Any, Any], list[tuple[float, int]]] = {}
    for rec in records:
        if rec.kind is not TraceKind.QUEUE:
            continue
        key = (rec.detail.get("link"), rec.node)
        samples.setdefault(key, []).append(
            (rec.time, int(rec.detail.get("occupancy", 0)))
        )
    if not samples:
        return "(no queue samples)"

    t0 = min(t for series in samples.values() for t, _ in series)
    t1 = max(t for series in samples.values() for t, _ in series)
    extent = max(t1 - t0, 1e-12)
    peak = max(occ for series in samples.values() for _, occ in series)
    peak = max(peak, 1)
    top = len(_HEAT_RAMP) - 1

    ordered = sorted(samples.items(), key=lambda kv: repr(kv[0]))
    omitted = 0
    if limit is not None and len(ordered) > limit:
        # Keep the ``limit`` hottest directions; a stable sort on
        # descending peak preserves the repr order within equal peaks,
        # and the survivors are re-sorted back into repr order.
        by_heat = sorted(
            ordered,
            key=lambda kv: max(o for _, o in kv[1]),
            reverse=True,
        )
        keep = {id(series) for _, series in by_heat[:limit]}
        omitted = len(ordered) - limit
        ordered = [kv for kv in ordered if id(kv[1]) in keep]

    rows = []
    for (link, sender), series in ordered:
        cells = [0] * width
        for t, occ in series:
            cell = min(int((t - t0) / extent * width), width - 1)
            if occ > cells[cell]:
                cells[cell] = occ
        heat = "".join(
            _HEAT_RAMP[min(top, (occ * top + peak - 1) // peak)] for occ in cells
        )
        rows.append([str(link), str(sender), max(o for _, o in series), heat])

    axis = f"t=[{t0:g}..{t1:g}] peak={peak}"
    table = format_table(["link", "from", "peak", axis], rows, title=title)
    if omitted:
        table += f"\n… {omitted} links omitted (showing the {limit} hottest)"
    return table


def render_congestion_summary(
    directions: "Iterable[tuple[Any, Any]]", *, title: str = "link congestion"
) -> str:
    """Per-direction congestion totals as a text table.

    ``directions`` are the ``(link, LinkFlowState)`` pairs of
    :meth:`Network.flow_states <repro.network.network.Network.flow_states>`:
    one row per flow-controlled direction, with its transmits, stalls,
    stalled simulated time, occupancy watermark and largest link delay.
    """
    rows = [
        [f"{link.key} from {state.sender}", state.xmits, state.stalls,
         f"{state.stall_time:g}", state.max_occupancy, f"{state.max_delay:g}"]
        for link, state in directions
    ]
    if not rows:
        return "(no flow-controlled links)"
    return format_table(
        ["direction", "xmits", "stalls", "stall time", "peak occ", "max delay"],
        rows,
        title=title,
    )


def span_summary_table(spans: Iterable[Span], *, title: str | None = None) -> str:
    """Per-category span counts and busy totals, as a text table."""
    spans = list(spans)
    counts = span_counts(spans)
    rows: list[list[Any]] = []
    for category in sorted(counts):
        members = [s for s in spans if s.category == category]
        rows.append(
            [
                category,
                counts[category],
                sum(s.duration for s in members),
                max((s.duration for s in members), default=0.0),
            ]
        )
    return format_table(
        ["category", "spans", "total_duration", "max_duration"],
        rows,
        title=title,
    )

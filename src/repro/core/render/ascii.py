"""Terminal (plain-text) rendering of DFGs.

For quick inspection without an SVG viewer: a node table with the
Fig. 3a statistics lines, followed by the directly-follows edges sorted
by observation count. Partition coloring renders as ``[G]`` / ``[R]``
tags; statistics coloring as a bar of ``#`` proportional to the metric.
"""

from __future__ import annotations

from repro.core.activity import END_ACTIVITY, SENTINELS, START_ACTIVITY
from repro.core.coloring import PartitionColoring, StatisticsColoring, Styler
from repro.core.dfg import DFG
from repro.core.statistics import IOStatistics

_BAR_WIDTH = 20


def render_ascii(
    dfg: DFG,
    stats: IOStatistics | None = None,
    styler: Styler | None = None,
    *,
    show_ranks: bool = False,
) -> str:
    """Render a DFG as readable plain text."""
    lines: list[str] = []
    lines.append(f"DFG: {dfg.n_nodes} nodes, {dfg.n_edges} edges, "
                 f"{dfg.total_observations()} observations")
    lines.append("")
    lines.append("NODES")

    def tag(activity: str) -> str:
        if isinstance(styler, PartitionColoring):
            kind = styler.classify_node(activity)
            return {"green": "[G] ", "red": "[R] ", "shared": "    "}[kind]
        return ""

    shade_bars = isinstance(styler, StatisticsColoring) and stats is not None
    if shade_bars:
        peak = max(
            (stats.metric(a, styler.metric) for a in stats.activities()),
            default=0.0)

    def bar(activity: str) -> str:
        if shade_bars and activity in stats:
            value = stats.metric(activity, styler.metric)
            filled = round(_BAR_WIDTH * value / peak) if peak > 0 else 0
            return " |" + "#" * filled + "." * (_BAR_WIDTH - filled) + "|"
        return ""

    ordering = sorted(
        dfg.nodes(),
        key=lambda a: (a != START_ACTIVITY, a == END_ACTIVITY,
                       -(stats[a].relative_duration
                         if stats is not None and a in stats else 0.0), a))
    for activity in ordering:
        if activity in SENTINELS:
            lines.append(f"  {tag(activity)}{activity}  "
                         f"(x{dfg.node_frequency(activity)})")
            continue
        suffix = ""
        if stats is not None and activity in stats:
            activity_stats = stats[activity]
            suffix = f"  {activity_stats.load_label}"
            if activity_stats.dr_label:
                suffix += f"  {activity_stats.dr_label}"
            if show_ranks:
                suffix += f"  Ranks: {activity_stats.ranks}"
        display = activity.replace("\n", " ")
        lines.append(f"  {tag(activity)}{display}"
                     f"  (x{dfg.node_frequency(activity)}){suffix}"
                     f"{bar(activity)}")

    lines.append("")
    lines.append("EDGES (count desc)")
    for (a1, a2), count in sorted(
            dfg.edges().items(), key=lambda kv: (-kv[1], kv[0])):
        edge_tag = ""
        if isinstance(styler, PartitionColoring):
            kind = styler.classify_edge((a1, a2))
            edge_tag = {"green": "[G] ", "red": "[R] ",
                        "shared": "    "}[kind]
        display1 = a1.replace("\n", " ")
        display2 = a2.replace("\n", " ")
        lines.append(f"  {edge_tag}{display1} -[{count}]-> {display2}")
    return "\n".join(lines) + "\n"

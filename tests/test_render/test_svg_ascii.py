"""Self-contained SVG and ASCII rendering."""

import re

import pytest

from repro.core.activity import END_ACTIVITY, START_ACTIVITY
from repro.core.coloring import PartitionColoring, StatisticsColoring
from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.mapping import CallTopDirs
from repro.core.partition import PartitionEL
from repro.core.render.ascii import render_ascii
from repro.core.render.svg import render_svg
from repro.core.statistics import IOStatistics, StatsAccumulator


@pytest.fixture()
def pipeline(fig1_dir):
    log = EventLog.from_source(fig1_dir)
    log.apply_mapping_fn(CallTopDirs(levels=2))
    return log, DFG(log), IOStatistics(log)


class TestSvg:
    def test_wellformed_xml(self, pipeline):
        import xml.etree.ElementTree as ET
        _, dfg, stats = pipeline
        text = render_svg(dfg, stats)
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")

    def test_every_activity_labelled(self, pipeline):
        _, dfg, stats = pipeline
        text = render_svg(dfg, stats)
        # Activities render as call + path text lines.
        assert ">read<" in text
        assert ">/usr/lib<" in text
        assert "Load:" in text
        assert "DR:" in text

    def test_edge_counts_rendered(self, pipeline):
        _, dfg, _ = pipeline
        text = render_svg(dfg)
        assert ">6<" in text  # the /usr/lib self-loop weight

    def test_title(self, pipeline):
        _, dfg, _ = pipeline
        assert "my title" in render_svg(dfg, title="my title")

    def test_xml_escaping(self):
        dfg = DFG.from_counts({("a<b>&c", "d"): 1})
        text = render_svg(dfg)
        assert "a&lt;b&gt;&amp;c" in text

    def test_partition_colors_in_svg(self, pipeline):
        log, dfg, stats = pipeline
        green_log, red_log = PartitionEL(log)
        coloring = PartitionColoring(DFG(green_log), DFG(red_log))
        text = render_svg(dfg, stats, coloring)
        assert "#fc9272" in text  # red fill present

    def test_empty_dfg(self):
        text = render_svg(DFG())
        assert "<svg" in text


class TestAscii:
    def test_all_nodes_and_edges_listed(self, pipeline):
        _, dfg, stats = pipeline
        text = render_ascii(dfg, stats)
        assert "read:/usr/lib" in text
        assert "-[6]->" in text
        assert START_ACTIVITY in text
        assert END_ACTIVITY in text

    def test_stats_lines(self, pipeline):
        _, dfg, stats = pipeline
        text = render_ascii(dfg, stats)
        assert "Load:" in text
        assert "MB/s" in text

    def test_partition_tags(self, pipeline):
        log, dfg, stats = pipeline
        green_log, red_log = PartitionEL(log)
        coloring = PartitionColoring(DFG(green_log), DFG(red_log))
        text = render_ascii(dfg, stats, coloring)
        assert "[R] read:/etc/passwd" in text
        assert "[G] read:/etc/locale.alias -[3]-> write:/dev/pts" in text

    def test_statistics_bars(self, pipeline):
        _, dfg, stats = pipeline
        text = render_ascii(dfg, stats, StatisticsColoring(stats))
        assert "|####" in text  # heaviest activity bar

    def test_show_ranks(self, pipeline):
        _, dfg, stats = pipeline
        assert "Ranks: 3" in render_ascii(dfg, stats, show_ranks=True)

    def test_edges_sorted_by_count_desc(self, pipeline):
        _, dfg, _ = pipeline
        text = render_ascii(dfg)
        edge_lines = [l for l in text.splitlines() if "-[" in l]
        counts = [int(l.split("-[")[1].split("]")[0])
                  for l in edge_lines]
        assert counts == sorted(counts, reverse=True)


def counted_stats(counts: dict[str, int]) -> IOStatistics:
    """Statistics where activity ``a`` has ``counts[a]`` events."""
    accumulator = StatsAccumulator()
    for activity, n in counts.items():
        for i in range(n):
            accumulator.feed_event(activity, "c0", rid=0, start_us=i,
                                   dur_us=1, size=None)
    return accumulator.statistics()


def chain_dfg(activities: list[str]) -> DFG:
    """● → a0 → a1 → … → ■ with unit counts."""
    path = [START_ACTIVITY, *activities, END_ACTIVITY]
    return DFG.from_counts({edge: 1 for edge in zip(path, path[1:])})


class TestAsciiStatisticsBars:
    def test_metric_calls_stay_linear(self, monkeypatch):
        """The bar peak is computed once per render, not once per node:
        at most one ``metric`` call per activity for the peak and one
        per rendered node."""
        n = 600
        activities = [f"a{i}" for i in range(n)]
        stats = counted_stats({a: 1 + i % 7
                               for i, a in enumerate(activities)})
        coloring = StatisticsColoring(stats, metric="event_count")
        calls = 0
        metric = IOStatistics.metric

        def spy(self, activity, name):
            nonlocal calls
            calls += 1
            return metric(self, activity, name)

        monkeypatch.setattr(IOStatistics, "metric", spy)
        text = render_ascii(chain_dfg(activities), stats, coloring)
        assert calls <= 2 * n + 2
        assert len(re.findall(r" \|[#.]{20}\|$", text, re.M)) == n

    def test_bars_match_hand_computed_widths(self):
        """event_count 8 / 3 / 1 against a peak of 8 on a 20-wide bar:
        20, round(7.5) = 8 and round(2.5) = 2 filled cells."""
        stats = counted_stats({"big": 8, "mid": 3, "low": 1})
        text = render_ascii(chain_dfg(["big", "mid", "low"]), stats,
                            StatisticsColoring(stats, metric="event_count"))
        bars = {line.split()[0]: line[line.index(" |"):]
                for line in text.splitlines()
                if line.startswith("  ") and " |" in line}
        assert bars == {
            "big": " |" + "#" * 20 + "|",
            "mid": " |" + "#" * 8 + "." * 12 + "|",
            "low": " |" + "#" * 2 + "." * 18 + "|",
        }

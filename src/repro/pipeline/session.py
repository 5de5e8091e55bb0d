"""The end-to-end inspection session.

One object that walks the paper's full pipeline (Fig. 6) — load, filter,
map, synthesize, compute statistics, color, render — while keeping all
intermediate artifacts accessible:

>>> session = InspectionSession.from_source("strace:traces/")  # doctest: +SKIP
>>> session.filter_fp("/usr/lib")                           # doctest: +SKIP
>>> session.map(CallTopDirs(levels=2))                      # doctest: +SKIP
>>> print(session.render("ascii"))                          # doctest: +SKIP
>>> session.compare_cids(green=["b"]).render("dot")         # doctest: +SKIP
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Iterable

from repro._util.errors import MappingError
from repro.core.coloring import (
    PartitionColoring,
    PlainColoring,
    StatisticsColoring,
    Styler,
)
from repro.core.dfg import DFG
from repro.core.event import Event
from repro.core.eventlog import EventLog
from repro.core.mapping import CallTopDirs, Mapping
from repro.core.render.viewer import DFGViewer
from repro.core.statistics import IOStatistics
from repro.pipeline.query import Query


class InspectionSession:
    """Mutable pipeline state: event-log → DFG → styled rendering.

    Derived artifacts (DFG, statistics) are computed lazily and
    invalidated whenever the log or mapping changes.
    """

    def __init__(self, event_log: EventLog) -> None:
        self._log = event_log
        self._dfg: DFG | None = None
        self._stats: IOStatistics | None = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_source(cls, source, *,
                    cids: set[str] | None = None,
                    strict: bool = True,
                    recursive: bool = False,
                    workers: int | None = None) -> "InspectionSession":
        """Start a session from any trace source.

        ``source`` is a :class:`~repro.sources.TraceSource` or a spec
        resolved by :func:`~repro.sources.open_source` —
        ``"strace:traces/"``, ``"elog:run.elog"``, ``"csv:log.csv"``,
        ``"sim:ior?ranks=4"``, or a bare path (autodetected).

        >>> session = InspectionSession.from_source("sim:ls")
        >>> session.map_default()           # the paper's f̂ mapping
        InspectionSession(75 events, 6 cases, mapping='call+top2dirs')
        >>> len(session.dfg.activities()) > 0
        True
        """
        return cls(EventLog.from_source(
            source, cids=cids, strict=strict, recursive=recursive,
            workers=workers))

    @classmethod
    def from_live(cls, engine) -> "InspectionSession":
        """Session over the current snapshot of a live ingestion engine
        (:class:`~repro.live.engine.LiveIngest`).

        The DFG and statistics are seeded from the engine's standing
        incremental state — O(graph + delta), full history even after
        a checkpoint restart or under ``keep_records=False``, where
        the snapshot log covers less than the graph. The session holds
        a point-in-time copy — take a fresh one after later polls.
        Applying a further filter or mapping recomputes from the
        snapshot log and therefore narrows to the records the engine
        kept in memory.
        """
        session = cls(engine.snapshot_log().with_mapping(engine.mapping))
        session._dfg = engine.snapshot_dfg()
        session._stats = engine.statistics()
        return session

    # -- pipeline steps -------------------------------------------------------

    def filter_fp(self, substring: str) -> "InspectionSession":
        """Keep only events whose path contains ``substring``."""
        self._log = self._log.filtered_fp(substring)
        self._invalidate()
        return self

    def filter(self, query: Query) -> "InspectionSession":
        """Apply a composed :class:`~repro.pipeline.query.Query`."""
        self._log = query.apply(self._log)
        self._invalidate()
        return self

    def map(self, mapping: Mapping | Callable[[Event], str | None],
            ) -> "InspectionSession":
        """Apply the mapping f : E ⇀ A_f (defaults available via
        :meth:`map_default`)."""
        self._log = self._log.with_mapping(mapping)
        self._invalidate()
        return self

    def map_default(self) -> "InspectionSession":
        """Apply the paper's f̂ (call + top-2 directories, Eq. 4)."""
        return self.map(CallTopDirs(levels=2))

    # -- derived artifacts ---------------------------------------------------------

    @property
    def event_log(self) -> EventLog:
        return self._log

    @property
    def dfg(self) -> DFG:
        """The DFG of the current (filtered, mapped) log."""
        if self._dfg is None:
            self._require_mapping()
            self._dfg = DFG(self._log)
        return self._dfg

    @property
    def stats(self) -> IOStatistics:
        """Activity statistics of the current log."""
        if self._stats is None:
            self._require_mapping()
            self._stats = IOStatistics(self._log)
        return self._stats

    def _require_mapping(self) -> None:
        if self._log.mapping is None:
            raise MappingError(
                "no mapping applied; call .map(...) or .map_default()")

    def _invalidate(self) -> None:
        self._dfg = None
        self._stats = None

    # -- rendering -----------------------------------------------------------------

    def viewer(self, styler: Styler | None = None, *,
               show_ranks: bool = False,
               title: str | None = None) -> DFGViewer:
        """A viewer over the session's DFG; default styler shades by
        relative duration (the paper's Fig. 3/8 presentation)."""
        if styler is None:
            styler = StatisticsColoring(self.stats)
        return DFGViewer(self.dfg, self.stats, styler,
                         show_ranks=show_ranks, title=title)

    def render(self, fmt: str = "ascii", *,
               styler: Styler | None = None) -> str:
        """Shortcut: render the statistics-colored DFG."""
        return self.viewer(styler).render(fmt)

    def save(self, path: str | os.PathLike[str], *,
             styler: Styler | None = None) -> Path:
        """Render to a file (format from suffix)."""
        return self.viewer(styler).save(path)

    # -- comparison (Sec. IV-C) ---------------------------------------------------------

    def compare_cids(self, green: Iterable[str],
                     red: Iterable[str] | None = None) -> DFGViewer:
        """Partition-colored viewer: G = given cids, R = the rest (or
        the explicit ``red`` cids).

        This is the paper's Fig. 9 workflow in one call: partition the
        log, build both sub-DFGs, color exclusive elements green/red.
        """
        self._require_mapping()
        from repro.core.partition import partition_by_cid

        green_log, red_log = partition_by_cid(
            self._log, list(green),
            list(red) if red is not None else None)
        coloring = PartitionColoring(DFG(green_log), DFG(red_log),
                                     self.stats)
        return DFGViewer(self.dfg, self.stats, coloring)

    def timeline(self, activity: str, fmt: str = "ascii") -> str:
        """Fig. 5 timeline plot for one activity."""
        from repro.core.render.timeline import (
            render_timeline_ascii,
            render_timeline_svg,
        )
        rows = self.stats.timeline(activity)
        if fmt == "svg":
            return render_timeline_svg(rows, activity=activity)
        return render_timeline_ascii(rows, activity=activity)

    def profile(self, activity: str, fmt: str = "ascii") -> str:
        """Concurrency-over-time profile (mc_f explained visually)."""
        from repro.core.render.profile import (
            render_profile_ascii,
            render_profile_svg,
        )
        rows = self.stats.timeline(activity)
        if fmt == "svg":
            return render_profile_svg(rows, activity=activity)
        return render_profile_ascii(rows, activity=activity)

    def counters(self) -> str:
        """Darshan-style per-case counter table."""
        from repro.pipeline.counters import counters_report

        return counters_report(self._log)

    def html_report(self, path: str | os.PathLike[str], *,
                    title: str = "st_inspector report",
                    styler: Styler | None = None,
                    timeline_activities: list[str] | None = None) -> Path:
        """Write a standalone HTML report of the session state."""
        from repro.pipeline.html import save_html_report

        if styler is None:
            styler = StatisticsColoring(self.stats)
        return save_html_report(
            self._log, path, title=title, styler=styler,
            timeline_activities=timeline_activities)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"InspectionSession({self._log.n_events} events, "
                f"{self._log.n_cases} cases, "
                f"mapping={getattr(self._log.mapping, 'name', None)!r})")

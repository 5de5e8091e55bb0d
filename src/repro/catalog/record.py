"""What one catalog entry holds: the :class:`RunRecord` value object.

A record bundles everything the store persists for one run — DFG,
statistics, fired alerts, metadata — plus the deterministic content
fingerprint. The fingerprint reuses the golden-test machinery's shape
(:func:`repro.ingest.summary.cases_summary`): the same compact,
JSON-stable summary dict golden regression tests pin, hashed. Two runs
over identical trace content get identical fingerprints no matter
which entry layer recorded them (batch ``report --catalog`` or a live
watcher's finalize), because the summary is derived purely from the
DFG and statistics — the quantities batch and live are already
bit-identical on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import __version__
from repro.core.dfg import DFG
from repro.core.statistics import IOStatistics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.alerts.model import Alert
    from repro.core.eventlog import EventLog


def run_fingerprint(dfg: DFG, stats: IOStatistics, *,
                    n_events: int, n_cases: int, top: int = 5) -> str:
    """Deterministic content fingerprint of one run.

    The hashed dict mirrors the golden ingestion summary
    (:func:`~repro.ingest.summary.cases_summary`): event/case counts,
    DFG shape, the top activities by node frequency, and the Eq. 8
    duration denominator. Serialized with sorted keys and compact
    separators so the hash is stable across Python versions.
    """
    frequencies = sorted(
        ((activity, dfg.node_frequency(activity))
         for activity in dfg.activities()),
        key=lambda item: (-item[1], item[0]))
    summary = {
        "n_cases": n_cases,
        "n_events": n_events,
        "dfg": {
            "nodes": dfg.n_nodes,
            "edges": dfg.n_edges,
            "observations": dfg.total_observations(),
        },
        "top_activities": [[activity, freq]
                           for activity, freq in frequencies[:top]],
        "total_dur_us": stats.total_duration_us,
    }
    payload = json.dumps(summary, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class RunRecord:
    """One run, ready to commit to a :class:`~repro.catalog.RunCatalog`.

    Build through :meth:`create` (computes the fingerprint) or
    :meth:`from_log` (derives DFG and statistics from a mapped
    event-log — the batch entry layer's path).
    """

    name: str
    source: str
    mapping: str
    levels: int
    dfg: DFG
    stats: IOStatistics
    n_events: int
    n_cases: int
    fingerprint: str
    alerts: "tuple[Alert, ...]" = ()
    window: int | None = None
    n_polls: int | None = None
    wall_span_s: float | None = None
    tool_version: str = field(default=__version__)

    @classmethod
    def create(cls, *, name: str, source: str, mapping: str,
               levels: int, dfg: DFG, stats: IOStatistics,
               n_events: int, n_cases: int,
               alerts: "tuple[Alert, ...] | list[Alert]" = (),
               window: int | None = None,
               n_polls: int | None = None,
               wall_span_s: float | None = None) -> "RunRecord":
        return cls(
            name=name, source=source, mapping=mapping, levels=levels,
            dfg=dfg, stats=stats, n_events=n_events, n_cases=n_cases,
            fingerprint=run_fingerprint(dfg, stats, n_events=n_events,
                                        n_cases=n_cases),
            alerts=tuple(alerts), window=window, n_polls=n_polls,
            wall_span_s=wall_span_s)

    @classmethod
    def from_log(cls, log: "EventLog", *, name: str, source: str,
                 mapping: str, levels: int,
                 alerts: "tuple[Alert, ...] | list[Alert]" = (),
                 wall_span_s: float | None = None,
                 stats: IOStatistics | None = None) -> "RunRecord":
        """Derive a record from a mapped event-log (batch layer).

        ``stats``, when given, are the caller's, already computed over
        ``log``; otherwise they are computed here.
        """
        return cls.create(
            name=name, source=source, mapping=mapping, levels=levels,
            dfg=DFG(log),
            stats=IOStatistics(log) if stats is None else stats,
            n_events=log.n_events, n_cases=log.n_cases,
            alerts=alerts, wall_span_s=wall_span_s)

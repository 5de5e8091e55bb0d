"""Shared low-level helpers for the st_inspector reproduction.

This subpackage hosts the small, dependency-free building blocks used
across the library:

- :mod:`repro._util.errors` — the exception hierarchy.
- :mod:`repro._util.sizes` — byte/rate formatting exactly as rendered in
  the paper's DFG node labels (``Load: 0.22 (14.98 KB)``,
  ``DR: 2x10.15 MB/s``).
- :mod:`repro._util.timefmt` — wall-clock (``HH:MM:SS.ffffff``) and
  duration (``<0.000203>``) parsing/formatting used by the strace layer.
- :mod:`repro._util.multiset` — the :class:`~repro._util.multiset.Bag`
  used to represent activity-logs ``L_f(C) ∈ B(A_f*)``.
- :mod:`repro._util.intervals` — interval arithmetic incl. the
  max-concurrency sweep-line (Eq. 16 of the paper).
- :mod:`repro._util.strings` — interned string pools backing the
  columnar :class:`~repro.core.frame.EventFrame`.
- :mod:`repro._util.durable` — the one durable-write sequence (temp
  fsync → replace → directory fsync) behind every live rewrite.
- :mod:`repro._util.jsontext` — compact sorted-key JSON spliced from
  pre-encoded members (the checkpoint sidecar's O(delta) encoding).
"""

from repro._util.errors import (
    ReproError,
    TraceParseError,
    StoreFormatError,
    MappingError,
    PartitionError,
    SimulationError,
    RenderError,
)
from repro._util.sizes import format_bytes, format_rate, parse_size
from repro._util.timefmt import (
    parse_wallclock,
    format_wallclock,
    parse_duration,
    format_duration,
)
from repro._util.multiset import Bag
from repro._util.intervals import (
    max_concurrency,
    max_concurrency_naive,
    total_covered,
    merge_intervals,
)
from repro._util.strings import StringPool

__all__ = [
    "ReproError",
    "TraceParseError",
    "StoreFormatError",
    "MappingError",
    "PartitionError",
    "SimulationError",
    "RenderError",
    "format_bytes",
    "format_rate",
    "parse_size",
    "parse_wallclock",
    "format_wallclock",
    "parse_duration",
    "format_duration",
    "Bag",
    "max_concurrency",
    "max_concurrency_naive",
    "total_covered",
    "merge_intervals",
    "StringPool",
]

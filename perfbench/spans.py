"""Span recorder for the benchmark's traced runs.

The benchmark traces from its own code: it wraps a span around each
call it makes into a layer's public function. A span records its name,
start, end, parent span and op id; counts are recorded at the same
boundaries. Everything stays in memory until :meth:`SpanRecorder.dump`
writes it out at exit, so recording costs two clock reads and one
append per span.

An *op* is one timed unit of the workload (a compare, an analysis, a
poll, a finalize). Its root span is named ``op:<kind>``; every layer
span opened inside it is a descendant. A span's self time is its
duration minus the time covered by its children; the op root's self
time is the part of the op no layer span covers (``untraced.s``).
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

_clock = time.perf_counter


class _Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: float, parent: int | None,
                 op: int | None) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op


class _Open:
    """Context manager closing one span (reused shape, no generator)."""

    __slots__ = ("_recorder", "_index")

    def __init__(self, recorder: "SpanRecorder", index: int) -> None:
        self._recorder = recorder
        self._index = index

    def __enter__(self) -> int:
        return self._index

    def __exit__(self, *exc_info) -> None:
        self._recorder.spans[self._index].end = _clock()
        self._recorder._stack.pop()


class SpanRecorder:
    """In-memory spans and counts of one traced run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[_Span] = []
        self.op_kinds: dict[int, str] = {}
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self._stack: list[int] = []

    def op(self, kind: str) -> _Open:
        """Open the root span of a new op of ``kind``."""
        op_id = len(self.op_kinds)
        self.op_kinds[op_id] = kind
        return _Open(self, self._open(f"op:{kind}", op_id))

    def span(self, name: str) -> _Open:
        """Open a layer span under the innermost open span (it belongs
        to that span's op)."""
        return _Open(self, self._open(name, None))

    def _open(self, name: str, op_id: int | None) -> int:
        parent = self._stack[-1] if self._stack else None
        if op_id is None and parent is not None:
            op_id = self.spans[parent].op
        index = len(self.spans)
        self.spans.append(_Span(name, _clock(), parent, op_id))
        self._stack.append(index)
        return index

    def count(self, op_id: int, name: str, amount: float) -> None:
        """Add ``amount`` to counter ``name`` of op ``op_id``."""
        self.counts[(op_id, name)] += amount

    @property
    def span_names(self) -> set[str]:
        """Layer names seen, plus ``untraced`` (the ops' self time)."""
        return {span.name for span in self.spans} | {"untraced"}

    @property
    def last_op(self) -> int:
        return len(self.op_kinds) - 1

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, index-aligned with :attr:`spans`."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        return [span.end - span.start - covered[i]
                for i, span in enumerate(self.spans)]

    def per_op(self) -> dict[int, dict[str, float]]:
        """``op id → {layer name: self seconds}`` plus, under the keys
        ``"op"`` and ``"untraced"``, the op's wall time and the part of
        it no layer span covers."""
        result: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for span, self_s in zip(self.spans, self.self_times()):
            if span.op is None:
                continue
            layers = result[span.op]
            if span.name.startswith("op:"):
                layers["op"] += span.end - span.start
                layers["untraced"] += self_s
            else:
                layers[span.name] += self_s
        return result

    def layer_table(self, kinds: list[str]) -> dict[str, float]:
        """One value per layer and per counter.

        A layer's value is the median, over ops, of its self seconds
        per op; a counter's is its mean per op. Both are taken over the
        ops of the first kind in ``kinds`` that touches the layer or
        counter, so a layer called by the timed op is reported for
        that op and not mixed with side passes.
        """
        seconds: dict[str, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(list))
        for op, layers in self.per_op().items():
            for name, value in layers.items():
                seconds[name][self.op_kinds[op]].append(value)
        counts: dict[str, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(list))
        for (op, name), value in self.counts.items():
            counts[name][self.op_kinds[op]].append(value)
        table: dict[str, float] = {}
        for source, reduce in ((seconds, statistics.median),
                               (counts, statistics.fmean)):
            for name, by_kind in source.items():
                kind = next((k for k in kinds if k in by_kind), None)
                if kind is not None:
                    table[name] = reduce(by_kind[kind])
        return table

    def worst_untraced_share(self) -> float:
        """The largest share of any op's wall time no span covers."""
        return max((layers["untraced"] / layers["op"]
                    for layers in self.per_op().values()
                    if layers["op"] > 0), default=0.0)

    def dump(self, path: Path) -> None:
        """Write spans and counts as JSON (name, start, end, parent,
        op — times in seconds from the first span)."""
        origin = self.spans[0].start if self.spans else 0.0
        payload = {
            "ops": {str(op): kind for op, kind in self.op_kinds.items()},
            "spans": [[span.name, span.start - origin, span.end - origin,
                       span.parent, span.op] for span in self.spans],
            "counts": [[op, name, value]
                       for (op, name), value in self.counts.items()],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")


class _NullOpen:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_OPEN = _NullOpen()


class NullRecorder:
    """Tracing off: every call is a no-op (one shared context)."""

    enabled = False
    last_op = -1

    def op(self, kind: str) -> _NullOpen:
        return _NULL_OPEN

    def span(self, name: str) -> _NullOpen:
        return _NULL_OPEN

    def count(self, op_id: int, name: str, amount: float) -> None:
        return None


NULL_RECORDER = NullRecorder()

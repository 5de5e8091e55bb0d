"""The sidecar is byte-identical to the full-dict reference encoding.

``save_checkpoint`` does not build :func:`engine_state`'s dict: it
splices per-timeline JSON fragments cached across saves into the
small sections it encodes fresh. These properties pin the result to
the reference — after *every* poll of a randomized growth schedule,
``sidecar.read_bytes()`` equals ``json.dumps(engine_state(engine),
sort_keys=True, separators=(",", ":"))`` — under exact and windowed
buffers, the auto-window budget, and kill/restart (which starts the
caches cold), plus pinned cases where coarsening rewrites a cached
buffer and appends grow it back to its old length.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.statistics import StatsAccumulator
from repro.live.checkpoint import engine_state
from repro.live.engine import LiveIngest
from tests.strategies import growth_steps, replay_schedule

steps = growth_steps(n_files=4, max_steps=20)

#: Engine settings the cache must be exact under: exact buffers,
#: tight windows (2 and 3 coarsen constantly), and an auto-window
#: budget small enough to re-cap the buffers as cases arrive.
SETTINGS = ({}, {"window": 2}, {"window": 3}, {"memory_budget": 4096})


def reference_bytes(engine: LiveIngest) -> bytes:
    return json.dumps(engine_state(engine), sort_keys=True,
                      separators=(",", ":")).encode()


def replay_checking(file_bytes: dict[str, bytes], schedule, *,
                    live_dir: Path, sidecar: Path, options: dict,
                    restart_after: int | None = None) -> int:
    """Replay ``schedule``, saving and byte-checking after every poll;
    optionally kill + revive the engine from its sidecar after one
    step. Returns the number of saves checked."""
    holder = {"engine": LiveIngest(live_dir, checkpoint=sidecar,
                                   **options),
              "saves": 0}

    def poll() -> None:
        engine = holder["engine"]
        engine.poll()
        engine.save_checkpoint()
        assert sidecar.read_bytes() == reference_bytes(engine)
        holder["saves"] += 1

    def on_step(step_index: int) -> None:
        if step_index == restart_after:
            holder["engine"].save_checkpoint()
            holder["engine"] = LiveIngest(live_dir, checkpoint=sidecar,
                                          **options)

    replay_schedule(file_bytes, schedule, live_dir=live_dir, poll=poll,
                    on_step=on_step)
    return holder["saves"]


class TestSidecarEqualsReference:
    @pytest.mark.parametrize("options", SETTINGS,
                             ids=["exact", "window2", "window3",
                                  "budget"])
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(schedule=steps)
    def test_every_poll(self, schedule, options, ior_file_bytes):
        with tempfile.TemporaryDirectory() as scratch:
            live_dir = Path(scratch) / "traces"
            live_dir.mkdir()
            saves = replay_checking(
                ior_file_bytes, schedule, live_dir=live_dir,
                sidecar=Path(scratch) / "ckpt.json", options=options)
            assert saves >= 1

    @pytest.mark.parametrize("options", SETTINGS,
                             ids=["exact", "window2", "window3",
                                  "budget"])
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(schedule=steps,
           restart_after=st.integers(min_value=0, max_value=19))
    def test_kill_restart_starts_cold(self, schedule, restart_after,
                                      options, ior_file_bytes):
        with tempfile.TemporaryDirectory() as scratch:
            live_dir = Path(scratch) / "traces"
            live_dir.mkdir()
            replay_checking(
                ior_file_bytes, schedule, live_dir=live_dir,
                sidecar=Path(scratch) / "ckpt.json", options=options,
                restart_after=min(restart_after, len(schedule) - 1))


def _reference(accumulator: StatsAccumulator) -> str:
    return json.dumps(accumulator.to_state(), sort_keys=True,
                      separators=(",", ":"))


def _feed(accumulator: StatsAccumulator, start: int,
          case: str = "c1") -> None:
    accumulator.feed_event("read", case, rid=0, start_us=start,
                           dur_us=5, size=10)


class TestCoarseningInvalidatesTheCache:
    @pytest.mark.parametrize("window", [2, 3])
    def test_shrink_then_regrow_to_the_cached_length(self, window):
        """Encode a full buffer, overflow it (coarsening rewrites it
        in place, to no more entries), then append until it is back at
        the length the cache recorded: the cached text must not be
        reused."""
        accumulator = StatsAccumulator(window=window)
        _feed(accumulator, 0, case="other")
        for i in range(window):
            _feed(accumulator, 100 * i)
        assert accumulator.encode_state() == _reference(accumulator)
        buffer = accumulator._activities["read"]._case_timelines["c1"]
        cached_length = len(buffer)
        start = 100 * window
        _feed(accumulator, start)  # overflow → coarsened in place
        assert len(buffer) <= cached_length
        while len(buffer) < cached_length:
            start += 100
            _feed(accumulator, start)
        assert len(buffer) == cached_length
        assert accumulator.encode_state() == _reference(accumulator)

    def test_set_window_shrink_then_regrow(self):
        accumulator = StatsAccumulator()
        for i in range(6):
            _feed(accumulator, 100 * i)
        assert accumulator.encode_state() == _reference(accumulator)
        accumulator.set_window(4)  # 6 → 3 entries, in place
        for i in range(6, 9):
            _feed(accumulator, 100 * i)  # 3 → 4 → coarsened → 3 ...
        accumulator.set_window(None)
        buffer = accumulator._activities["read"]._case_timelines["c1"]
        while len(buffer) < 6:
            _feed(accumulator, 100 * (len(buffer) + 20))
        assert accumulator.encode_state() == _reference(accumulator)

    def test_restored_accumulator_encodes_from_cold(self):
        accumulator = StatsAccumulator(window=3)
        for i in range(7):
            _feed(accumulator, 100 * i, case=f"c{i % 2}")
        text = accumulator.encode_state()
        revived = StatsAccumulator.from_state(json.loads(text),
                                              window=2)
        assert revived.encode_state() == _reference(revived)
        _feed(revived, 10_000)
        assert revived.encode_state() == _reference(revived)

"""Checkpoint durability: a kill at *any* instant of a save leaves a
loadable sidecar.

``save_checkpoint`` writes a temp file, fsyncs it, ``os.replace``s it
over the target, then fsyncs the directory entry. These tests kill the
writer at every step boundary (by making the step raise, which aborts
the save exactly where a SIGKILL would) and assert the invariant: the
sidecar on disk is always one of the two *complete* states — never
torn, never empty — and a fresh engine restores from it. A stale
``.tmp`` left by a kill between write and replace is cleaned on load.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro._util.errors import ReproError
from repro.live import checkpoint as checkpoint_module
from repro.live.engine import LiveIngest
from tests.faultinject import CHECKPOINT_KILL_POINTS, kill_checkpoint_at


def _grown(tmp_path: Path, ls_file_bytes) -> tuple[Path, Path]:
    """A trace dir with the first half of the files, checkpointed."""
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    items = sorted(ls_file_bytes.items())
    for name, content in items[:3]:
        (trace_dir / name).write_bytes(content)
    sidecar = tmp_path / "ckpt.json"
    engine = LiveIngest(trace_dir, checkpoint=sidecar)
    engine.poll()
    engine.save_checkpoint()
    for name, content in items[3:]:
        (trace_dir / name).write_bytes(content)
    return trace_dir, sidecar


#: Which os-level step of save_checkpoint the simulated kill hits
#: (re-exported so parametrized ids read locally; the harness lives in
#: ``tests/faultinject.py``).
KILL_POINTS = CHECKPOINT_KILL_POINTS
_kill_at = kill_checkpoint_at


class TestKillDuringSave:
    @pytest.mark.parametrize("point", KILL_POINTS)
    def test_sidecar_is_always_a_complete_state(self, tmp_path,
                                                ls_file_bytes,
                                                monkeypatch, point):
        trace_dir, sidecar = _grown(tmp_path, ls_file_bytes)
        old_state = json.loads(sidecar.read_text())
        engine = LiveIngest(trace_dir, checkpoint=sidecar)
        engine.poll()  # absorb the new files
        new_state = checkpoint_module.engine_state(engine)
        with monkeypatch.context() as patched:
            seam = _kill_at(patched, point)
            with pytest.raises(OSError):
                engine.save_checkpoint()
        assert seam.fired
        # Invariant: the surviving sidecar parses and equals one of
        # the two complete states (which one depends on the point).
        survivor = json.loads(sidecar.read_text())
        assert survivor in (old_state, new_state)
        if point in ("temp_fsync", "replace"):
            assert survivor == old_state
        else:  # replace happened; only the dir fsync was lost
            assert survivor == new_state
        # And a fresh life restores from it without complaint.
        revived = LiveIngest(trace_dir, checkpoint=sidecar)
        assert revived.total_events == survivor["total_events"]

    @pytest.mark.parametrize("point", KILL_POINTS)
    def test_next_save_recovers(self, tmp_path, ls_file_bytes,
                                monkeypatch, point):
        """After an aborted save, the *next* save (same process or a
        revived one) lands the full new state."""
        trace_dir, sidecar = _grown(tmp_path, ls_file_bytes)
        engine = LiveIngest(trace_dir, checkpoint=sidecar)
        engine.poll()
        with monkeypatch.context() as patched:
            seam = _kill_at(patched, point)
            with pytest.raises(OSError):
                engine.save_checkpoint()
        assert seam.fired
        engine.save_checkpoint()  # unpatched: succeeds
        state = json.loads(sidecar.read_text())
        assert state["total_events"] == engine.total_events
        assert not sidecar.with_name(sidecar.name + ".tmp").exists()


class TestStaleTempCleanup:
    def test_stale_tmp_is_removed_on_load(self, tmp_path,
                                          ls_file_bytes):
        trace_dir, sidecar = _grown(tmp_path, ls_file_bytes)
        stale = sidecar.with_name(sidecar.name + ".tmp")
        stale.write_text("{torn garbage")  # kill between write+replace
        revived = LiveIngest(trace_dir, checkpoint=sidecar)
        assert revived.total_events > 0  # loaded the sidecar proper
        assert not stale.exists()

    def test_corrupt_sidecar_still_names_itself(self, tmp_path):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        sidecar = tmp_path / "ckpt.json"
        sidecar.write_text("{not json")
        with pytest.raises(ReproError, match="corrupt checkpoint"):
            LiveIngest(trace_dir, checkpoint=sidecar)


class TestDurabilitySteps:
    def test_save_fsyncs_temp_and_directory(self, tmp_path,
                                            ls_file_bytes,
                                            monkeypatch):
        """The save path really performs both fsyncs, in order:
        temp-file fsync strictly before replace, directory fsync
        strictly after."""
        trace_dir, sidecar = _grown(tmp_path, ls_file_bytes)
        engine = LiveIngest(trace_dir, checkpoint=sidecar)
        engine.poll()
        calls: list[str] = []
        real_fsync, real_replace = os.fsync, os.replace

        def traced_fsync(fd):
            calls.append("fsync")
            return real_fsync(fd)

        def traced_replace(src, dst):
            calls.append("replace")
            return real_replace(src, dst)

        monkeypatch.setattr(checkpoint_module.os, "fsync", traced_fsync)
        monkeypatch.setattr(checkpoint_module.os, "replace",
                            traced_replace)
        engine.save_checkpoint()
        assert calls == ["fsync", "replace", "fsync"]


class TestKillWithEmitAttached:
    @pytest.mark.parametrize("point", KILL_POINTS)
    def test_kill_lands_on_the_sidecar_step(self, tmp_path,
                                            ls_file_bytes, monkeypatch,
                                            point):
        """With an emit journal attached, ``engine_state`` fsyncs the
        journal before the sidecar is written. The kill must still
        land on the sidecar's own durability step, not on that
        journal fsync, and the sidecar must obey the same invariant
        as without the journal."""
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        items = sorted(ls_file_bytes.items())
        for name, content in items[:3]:
            (trace_dir / name).write_bytes(content)
        sidecar = tmp_path / "ckpt.json"
        elog = tmp_path / "run.elog"
        engine = LiveIngest(trace_dir, checkpoint=sidecar, emit=elog)
        engine.poll()
        engine.save_checkpoint()
        old_state = json.loads(sidecar.read_text())
        for name, content in items[3:]:
            (trace_dir / name).write_bytes(content)
        engine.poll()
        with monkeypatch.context() as patched:
            seam = _kill_at(patched, point)
            with pytest.raises(OSError):
                engine.save_checkpoint()
        assert seam.fired and seam.calls == 1
        survivor = json.loads(sidecar.read_text())
        if point in ("temp_fsync", "replace"):
            assert survivor == old_state
        else:
            assert survivor["total_events"] == engine.total_events
        engine.close()
        revived = LiveIngest(trace_dir, checkpoint=sidecar, emit=elog)
        assert revived.total_events == survivor["total_events"]
        revived.close()

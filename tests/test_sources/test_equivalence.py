"""Cross-source equivalence: every route into an EventLog agrees.

The acceptance bar of the source redesign: ``StraceDirSource`` (and
with it ``EventLog.from_source``) is byte-identical to the record
route (``EventLog.from_cases`` over ``read_trace_dir``) at every
worker count, the simulator source
is byte-identical to write-files-then-ingest, and the store/CSV
sources reproduce their legacy readers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.mapping import CallTopDirs
from repro.strace.reader import read_trace_dir
from repro.sources import (
    ElstoreSource,
    SimulationSource,
    StraceDirSource,
    combine_merge_stats,
    open_source,
)


def _legacy_from_strace_dir(directory, workers=None) -> EventLog:
    """The record route: parsed ``TraceCase`` objects, then columns —
    independent of the source's column builder."""
    return EventLog.from_cases(read_trace_dir(directory,
                                              workers=workers))


class TestStraceDirSource:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_byte_identical_to_legacy(self, ls_traces, workers,
                                      logs_identical):
        legacy = _legacy_from_strace_dir(ls_traces, workers=workers)
        via_source = StraceDirSource(
            ls_traces, workers=workers).event_log()
        via_uri = open_source(f"strace:{ls_traces}",
                              workers=workers).event_log()
        logs_identical(via_source, legacy)
        logs_identical(via_uri, legacy)

    def test_from_source_bare_path(self, ls_traces, logs_identical):
        logs_identical(EventLog.from_source(str(ls_traces)),
                       _legacy_from_strace_dir(ls_traces))

    def test_iter_cases_matches_event_log(self, ls_traces,
                                          logs_identical):
        from repro.ingest.parallel import frame_from_case_columns

        source = StraceDirSource(ls_traces)
        assembled = EventLog(
            frame_from_case_columns(list(source.iter_cases())))
        logs_identical(assembled, source.event_log())

    def test_cids_filter(self, ls_traces):
        log = EventLog.from_source(str(ls_traces), cids={"a"})
        assert log.cids() == ["a"]
        assert log.n_cases == 3

    def test_merge_stats_exposed_per_case(self, ls_traces):
        cases = list(StraceDirSource(ls_traces).iter_cases())
        total = combine_merge_stats(c.merge_stats for c in cases)
        assert total.merged_pairs == 0  # ls traces have no splits
        assert len(cases) == 6


class TestElstoreSource:
    def test_event_log_matches_legacy_reader(self, ls_store,
                                             logs_identical):
        from repro.elstore.reader import read_event_log

        logs_identical(ElstoreSource(ls_store).event_log(),
                       read_event_log(ls_store))

    def test_repack_is_byte_identical(self, ls_store, tmp_path):
        """elog → iter_cases → writer reproduces the container bytes."""
        from repro.elstore.convert import convert_source

        out = convert_source(f"elog:{ls_store}", tmp_path / "re.elog")
        assert out.read_bytes() == ls_store.read_bytes()

    def test_store_equals_dir_after_mapping(self, ls_traces, ls_store):
        mapping = CallTopDirs(levels=2)
        from_dir = EventLog.from_source(
            f"strace:{ls_traces}").with_mapping(mapping)
        from_store = EventLog.from_source(
            f"elog:{ls_store}").with_mapping(mapping)
        assert DFG(from_dir) == DFG(from_store)

    def test_cids_filter(self, ls_store):
        log = EventLog.from_source(str(ls_store), cids={"b"})
        assert log.cids() == ["b"]


class TestSimulationSource:
    def test_sim_ls_byte_identical_to_dir_ingest(self, ls_traces,
                                                 logs_identical):
        logs_identical(SimulationSource("ls").event_log(),
                       EventLog.from_source(f"strace:{ls_traces}"))

    @pytest.mark.parametrize("spec", [
        "sim:ior?ranks=4&ranks_per_node=2&segments=1",
        "sim:ior?ranks=4&ranks_per_node=2&segments=1&fpp=1&trace_lseek=1",
        "sim:checkpoint?ranks=4&ranks_per_node=2&steps=2",
    ])
    def test_sim_equals_write_then_ingest(self, spec, tmp_path,
                                          logs_identical):
        """The no-temp-dir path reproduces the files-on-disk path."""
        from repro.simulate.strace_writer import write_trace_files

        source = open_source(spec)
        recorders, trace_calls = source._runner(source.options)
        write_trace_files(recorders, tmp_path / "sim",
                          trace_calls=trace_calls)
        logs_identical(source.event_log(),
                       EventLog.from_source(str(tmp_path / "sim")))

    def test_deterministic_across_calls(self, logs_identical):
        source = open_source("sim:ior?ranks=4&ranks_per_node=2&segments=1")
        logs_identical(source.event_log(), source.event_log())

    def test_cids_filter(self):
        log = EventLog.from_source("sim:ls", cids={"a"})
        assert log.cids() == ["a"]
        assert log.n_cases == 3

    def test_full_pipeline_runs(self):
        log = EventLog.from_source(
            "sim:ior?ranks=4&ranks_per_node=2&segments=1")
        log.apply_mapping_fn(CallTopDirs(levels=2))
        dfg = DFG(log)
        assert dfg.n_nodes > 0


class TestConvertSource:
    def test_convert_accepts_every_scheme(self, ls_traces, ls_store,
                                          tmp_path, logs_identical):
        from repro.elstore.convert import convert_source
        from repro.sources.csv_log import write_csv_log

        base = EventLog.from_source(f"strace:{ls_traces}")
        write_csv_log(base, tmp_path / "ls.csv")

        for i, spec in enumerate([f"strace:{ls_traces}",
                                  f"elog:{ls_store}",
                                  f"csv:{tmp_path / 'ls.csv'}",
                                  "sim:ls"]):
            out = convert_source(spec, tmp_path / f"out{i}.elog")
            converted = EventLog.from_source(f"elog:{out}")
            assert converted.n_events == base.n_events
            assert converted.case_ids() == base.case_ids()
            np.testing.assert_array_equal(
                converted.frame.column("start"),
                base.frame.column("start"))

    def test_strace_convert_unchanged_by_redesign(self, ls_traces,
                                                  ls_store, tmp_path):
        """convert_strace_dir (the wrapped legacy path) still produces
        the same bytes as convert_source over the strace scheme."""
        from repro.elstore.convert import convert_source

        out = convert_source(f"strace:{ls_traces}", tmp_path / "x.elog",
                             workers=2)
        assert out.read_bytes() == ls_store.read_bytes()


class TestSessionFromSource:
    def test_session_from_source_all_schemes(self, ls_traces, ls_store):
        from repro.pipeline.session import InspectionSession

        for spec in (f"strace:{ls_traces}", f"elog:{ls_store}",
                     "sim:ls"):
            session = InspectionSession.from_source(spec)
            session.map_default()
            assert session.dfg.n_nodes > 0

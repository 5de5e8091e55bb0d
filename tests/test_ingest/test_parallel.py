"""Process-pool fan-out: policy, determinism, and exact equivalence."""

from __future__ import annotations

import dataclasses

import pytest

from repro._util.errors import ReproError, TraceParseError
from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.mapping import CallTopDirs
from repro.ingest.parallel import (
    MAX_AUTO_WORKERS,
    available_cpus,
    resolve_workers,
)
from repro.strace.reader import read_trace_dir

WORKLOADS = ("ls", "ior", "ckpt")


class TestResolveWorkers:
    def test_auto_is_bounded_by_cpus_and_cap(self):
        auto = resolve_workers(None)
        assert 1 <= auto <= min(available_cpus(), MAX_AUTO_WORKERS)

    def test_never_more_workers_than_tasks(self):
        assert resolve_workers(8, 3) == 3
        assert resolve_workers(None, 1) == 1

    def test_explicit_value_taken_as_is(self):
        assert resolve_workers(5, 100) == 5
        assert resolve_workers(1, 100) == 1

    def test_zero_tasks_still_one_worker(self):
        assert resolve_workers(None, 0) == 1

    def test_invalid_count_rejected(self):
        with pytest.raises(ReproError):
            resolve_workers(0)
        with pytest.raises(ReproError):
            resolve_workers(-2)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_list_shaped_entry_points_reject_bad_counts(self, workers):
        """read_cases / iter_case_columns take a concrete count and
        must not silently degrade 0/-1 to the sequential loop."""
        from repro.ingest.parallel import iter_case_columns, read_cases

        with pytest.raises(ReproError, match="workers must be >= 1"):
            read_cases([], workers=workers)
        with pytest.raises(ReproError, match="workers must be >= 1"):
            # At the call boundary — not deferred to the first next().
            iter_case_columns([], workers=workers)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("workers", [1, 2, 4])
class TestParallelEquivalence:
    """Acceptance property: for every simulate workload, parallel
    ingestion with workers ∈ {1, 2, 4} is byte-identical to the
    sequential path — same cases, same merge stats, same frame arrays,
    same pools, same DFG."""

    def test_cases_identical(self, workload_dirs, workload, workers):
        directory = workload_dirs[workload]
        sequential = read_trace_dir(directory, workers=1)
        parallel = read_trace_dir(directory, workers=workers)
        assert [c.case_id for c in parallel] == \
            [c.case_id for c in sequential]
        for par, seq in zip(parallel, sequential):
            assert par.name == seq.name
            assert par.records == seq.records
            assert dataclasses.asdict(par.merge_stats) == \
                dataclasses.asdict(seq.merge_stats)

    def test_event_log_byte_identical(self, workload_dirs, workload,
                                      workers, logs_identical):
        directory = workload_dirs[workload]
        sequential = EventLog.from_source(directory, workers=1)
        parallel = EventLog.from_source(directory, workers=workers)
        logs_identical(parallel, sequential)

    def test_dfg_identical(self, workload_dirs, workload, workers):
        directory = workload_dirs[workload]
        mapping = CallTopDirs(levels=2)
        sequential = DFG(EventLog.from_source(directory, workers=1)
                         .with_mapping(mapping))
        parallel = DFG(EventLog.from_source(directory,
                                                workers=workers)
                       .with_mapping(mapping))
        assert parallel == sequential


class TestParallelErrors:
    def test_parse_error_propagates_from_workers(self, tmp_path):
        (tmp_path / "a_h_1.st").write_text(
            "1  00:00:00.000001 close(3</x>) = 0 <0.000001>\n")
        (tmp_path / "b_h_2.st").write_text("garbage, not strace\n")
        with pytest.raises(TraceParseError):
            read_trace_dir(tmp_path, workers=2)

    def test_cids_filter_respected(self, workload_dirs):
        directory = workload_dirs["ls"]
        cases = read_trace_dir(directory, cids={"a"}, workers=2)
        assert [c.case_id for c in cases] == ["a9042", "a9043", "a9045"]


class TestCliWorkersFlag:
    def test_synthesize_output_identical_across_workers(
            self, workload_dirs, capsys):
        from repro.cli import main

        directory = str(workload_dirs["ls"])
        assert main(["synthesize", directory, "--workers", "1"]) == 0
        sequential = capsys.readouterr().out
        assert main(["synthesize", directory, "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == sequential

    def test_convert_accepts_workers(self, workload_dirs, tmp_path,
                                     capsys):
        from repro.cli import main

        out = tmp_path / "ls.elog"
        assert main(["convert", str(workload_dirs["ls"]), str(out),
                     "--workers", "2"]) == 0
        assert out.exists()
        assert "6 cases" in capsys.readouterr().out


@pytest.mark.parametrize("workload", WORKLOADS)
class TestConvertEquivalence:
    def test_elog_bytes_identical_across_workers(self, workload_dirs,
                                                 workload, tmp_path):
        """The .elog container is append-ordered, so conversion must
        produce the same bytes for every worker count."""
        from repro.elstore.convert import convert_strace_dir

        sequential = convert_strace_dir(
            workload_dirs[workload], tmp_path / "seq.elog", workers=1)
        parallel = convert_strace_dir(
            workload_dirs[workload], tmp_path / "par.elog", workers=3)
        assert parallel.read_bytes() == sequential.read_bytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("workload", WORKLOADS)
class TestColumnarWireFormat:
    def test_frame_from_case_columns_matches_from_cases(
            self, workload_dirs, workload, workers, logs_identical):
        """The columnar wire format reassembles to the exact frame the
        sequential record path builds — same arrays, same pools.
        ``workers=1`` is the in-process column builder route."""
        from repro.core.frame import EventFrame
        from repro.ingest.parallel import (
            frame_from_case_columns,
            iter_case_columns,
        )
        from repro.strace.reader import discover_trace_files

        found = discover_trace_files(workload_dirs[workload])
        columnar = EventLog(frame_from_case_columns(list(
            iter_case_columns(found, workers=workers))))
        recorded = EventLog(EventFrame.from_cases(
            read_trace_dir(workload_dirs[workload], workers=1)))
        logs_identical(columnar, recorded)

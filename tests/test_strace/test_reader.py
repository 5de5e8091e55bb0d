"""Trace file/directory reading (cases per Sec. IV)."""

import pytest

from repro._util.errors import TraceParseError
from repro.core.eventlog import EventLog
from repro.strace.naming import TraceFileName
from repro.strace.reader import read_trace_dir, read_trace_file


class TestReadFile:
    def test_fig2a_file(self, fig1_dir):
        case = read_trace_file(fig1_dir / "a_host1_9042.st")
        assert case.case_id == "a9042"
        assert len(case) == 8
        assert case.records[0].call == "read"
        assert case.records[-1].call == "write"
        assert case.records[-1].fp == "/dev/pts/7"

    def test_records_sorted_by_start(self, fig1_dir):
        case = read_trace_file(fig1_dir / "b_host1_9157.st")
        starts = [r.start_us for r in case.records]
        assert starts == sorted(starts)

    def test_name_override(self, tmp_path):
        path = tmp_path / "weird-name.log"
        path.write_text(
            "1  00:00:00.000001 close(3</x>) = 0 <0.000001>\n")
        case = read_trace_file(
            path, name=TraceFileName("z", "h", 1))
        assert case.case_id == "z1"

    def test_unnamed_nonconvention_file_rejected(self, tmp_path):
        path = tmp_path / "weird-name.log"
        path.write_text("")
        with pytest.raises(TraceParseError):
            read_trace_file(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "a_h_1.st"
        path.write_text(
            "\n1  00:00:00.000001 close(3</x>) = 0 <0.000001>\n\n")
        case = read_trace_file(path)
        assert len(case) == 1

    def test_merge_stats_exposed(self, tmp_path):
        path = tmp_path / "a_h_1.st"
        path.write_text(
            "1  00:00:00.000001 read(3</x>, <unfinished ...>\n"
            "1  00:00:00.000900 <... read resumed> ..., 5) = 5 "
            "<0.000899>\n")
        case = read_trace_file(path)
        assert case.merge_stats.merged_pairs == 1
        assert len(case) == 1


class TestReadDir:
    def test_all_six_cases(self, fig1_dir):
        cases = read_trace_dir(fig1_dir)
        assert len(cases) == 6
        assert [c.case_id for c in cases] == [
            "a9042", "a9043", "a9045", "b9157", "b9158", "b9160"]

    def test_cid_filter(self, fig1_dir):
        cases = read_trace_dir(fig1_dir, cids={"a"})
        assert [c.case_id for c in cases] == ["a9042", "a9043", "a9045"]

    def test_empty_cid_filter_rejected(self, fig1_dir):
        with pytest.raises(TraceParseError):
            read_trace_dir(fig1_dir, cids={"zzz"})

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(TraceParseError):
            read_trace_dir(tmp_path / "nope")

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(TraceParseError):
            read_trace_dir(tmp_path)

    def test_non_st_files_ignored(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hello")
        (tmp_path / "a_h_1.st").write_text(
            "1  00:00:00.000001 close(3</x>) = 0 <0.000001>\n")
        cases = read_trace_dir(tmp_path)
        assert len(cases) == 1


class TestParseErrorLocation:
    """A parse error names the file *and* the line it stems from."""

    GOOD = "1  00:00:00.000001 close(3</x>) = 0 <0.000001>\n"

    def _error(self, tmp_path, text: str) -> TraceParseError:
        directory = tmp_path / "dir"
        directory.mkdir()
        (directory / "a_node01_1.st").write_text(text)
        with pytest.raises(TraceParseError) as excinfo:
            EventLog.from_source(str(directory), workers=1)
        return excinfo.value

    def test_complete_line(self, tmp_path):
        error = self._error(tmp_path, self.GOOD + (
            "1  00:00:00.000002 read(3</a>, ..., 832) = banana "
            "<0.000016>\n"))
        assert "unparseable return clause" in str(error)
        assert error.lineno == 2
        assert str(error).endswith("a_node01_1.st:2]")

    def test_merged_pair_names_the_resumed_line(self, tmp_path):
        error = self._error(tmp_path, (
            "1  00:00:00.000001 read(3</a>, <unfinished ...>\n"
            + self.GOOD.replace("1  ", "2  ")
            + "1  00:00:00.000900 <... read resumed> ..., 5) = banana\n"))
        assert str(error).endswith("a_node01_1.st:3]")

    def test_orphan_resumed_names_its_line(self, tmp_path):
        error = self._error(tmp_path, self.GOOD + (
            "1  00:00:00.000900 <... read resumed> ..., 5) = 5 "
            "<0.000899>\n"))
        assert "without a matching" in str(error)
        assert str(error).endswith("a_node01_1.st:2]")



class TestOutOfRangeIntegers:
    """pid, size and dur land in int64 columns: a 20-digit value is a
    parse error naming ``path:line`` on the batch column route, the
    record route and the live route alike — never an OverflowError."""

    GOOD = "100  10:00:00.000001 close(3</x>) = 0 <0.000001>\n"
    HUGE = "99999999999999999999"
    LINES = {
        "size": f'100  10:00:00.000002 read(3</tmp/x>, "a", 1) = {HUGE} '
                f"<0.000001>\n",
        "pid": f'{HUGE}  10:00:00.000002 read(3</tmp/x>, "a", 1) = 1 '
               f"<0.000001>\n",
        "dur": f'100  10:00:00.000002 read(3</tmp/x>, "a", 1) = 1 '
               f"<{HUGE}.000001>\n",
        "merged size": (
            "100  10:00:00.000002 read(3</tmp/x>, <unfinished ...>\n"
            f"100  10:00:00.000003 <... read resumed> \"a\", 1) = {HUGE} "
            "<0.000001>\n"),
    }

    def _dir(self, tmp_path, bad: str):
        directory = tmp_path / "dir"
        directory.mkdir()
        (directory / "a_node01_1.st").write_text(self.GOOD)
        (directory / "a_node01_2.st").write_text(self.GOOD + bad)
        return directory

    @pytest.mark.parametrize("field", sorted(LINES))
    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_routes(self, tmp_path, field, workers):
        directory = self._dir(tmp_path, self.LINES[field])
        lineno = self.LINES[field].count("\n") + 1
        with pytest.raises(TraceParseError) as excinfo:
            EventLog.from_source(str(directory), workers=workers)
        message = str(excinfo.value)
        assert "does not fit a signed 64-bit column" in message
        assert message.startswith(field.split()[-1] + " ")
        assert message.endswith(f"a_node01_2.st:{lineno}]")
        with pytest.raises(TraceParseError) as excinfo:
            read_trace_file(directory / "a_node01_2.st")
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("field", sorted(LINES))
    def test_live_poll(self, tmp_path, field):
        from repro.live.engine import LiveIngest

        directory = self._dir(tmp_path, self.LINES[field])
        with pytest.raises(TraceParseError,
                           match="does not fit a signed 64-bit") as excinfo:
            LiveIngest(directory).poll()
        lineno = self.LINES[field].count("\n") + 1
        assert str(excinfo.value).endswith(f"a_node01_2.st:{lineno}]")

    def test_report_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        directory = self._dir(tmp_path, self.LINES["size"])
        assert main(["report", f"strace:{directory}"]) == 2
        err = capsys.readouterr().err
        assert "does not fit a signed 64-bit column" in err
        assert "Traceback" not in err

    def test_largest_int64_is_accepted(self, tmp_path):
        limit = str((1 << 63) - 1)
        directory = self._dir(tmp_path, self.LINES["size"].replace(
            self.HUGE, limit))
        log = EventLog.from_source(str(directory), workers=1)
        assert int(log.frame.column("size").max()) == (1 << 63) - 1

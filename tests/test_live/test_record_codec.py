"""Pins the record codec shared by the emit journal and the sidecar.

``_record_to_state`` reads the :class:`ParsedRecord` fields directly
instead of going through ``dataclasses.asdict``. The journal lines and
the sidecar's merge-buffer entries it produces must stay the exact
bytes the ``asdict`` encoding wrote — absent (``None``) fields, a
non-ASCII path and multi-element ``args`` included — or journals and
sidecars written by earlier builds would no longer match.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.live.checkpoint import (
    _record_from_state,
    _record_to_state,
    _tail_to_state,
)
from repro.live.emit import EmitJournal
from repro.live.tail import FileTail
from repro.strace.naming import TraceFileName
from repro.strace.parser import ParsedRecord
from repro.strace.resume import MergeStats

RECORDS = [
    ParsedRecord(pid=4711, start_us=36000123456, call="close", fp=None,
                 size=None, dur_us=None, retval=None, errno=None,
                 requested=None, args=("3",)),
    ParsedRecord(pid=4712, start_us=36000123999, call="write",
                 fp="/p/daten/größe_α.dat", size=4096, dur_us=27,
                 retval=4096, errno=None, requested=4096,
                 args=("5</p/daten/größe_α.dat>", '"\\0\\0"...', "4096")),
    ParsedRecord(pid=4712, start_us=36000124100, call="openat",
                 fp="/p/daten/fehlt", size=None, dur_us=9, retval=-1,
                 errno="ENOENT", requested=None,
                 args=("AT_FDCWD", '"/p/daten/fehlt"', "O_RDONLY")),
]

NAME = TraceFileName(cid="run", host="node01", rid=3)

_CLOSE = ('{"args":["3"],"call":"close","dur_us":null,"errno":null,'
          '"fp":null,"pid":4711,"requested":null,"retval":null,'
          '"size":null,"start_us":36000123456}')
_WRITE = ('{"args":["5</p/daten/gr\\u00f6\\u00dfe_\\u03b1.dat>",'
          '"\\"\\\\0\\\\0\\"...","4096"],"call":"write","dur_us":27,'
          '"errno":null,"fp":"/p/daten/gr\\u00f6\\u00dfe_\\u03b1.dat",'
          '"pid":4712,"requested":4096,"retval":4096,"size":4096,'
          '"start_us":36000123999}')
_OPENAT = ('{"args":["AT_FDCWD","\\"/p/daten/fehlt\\"","O_RDONLY"],'
           '"call":"openat","dur_us":9,"errno":"ENOENT",'
           '"fp":"/p/daten/fehlt","pid":4712,"requested":null,'
           '"retval":-1,"size":null,"start_us":36000124100}')

#: The journal line for one sealed batch of ``RECORDS``.
JOURNAL_LINE = ('{"cid":"run","host":"node01","records":['
                + ",".join((_CLOSE, _WRITE, _OPENAT))
                + '],"rid":3}\n').encode()

#: The sidecar ``buffer`` of a tail holding ``RECORDS`` at seq 10-12.
SIDECAR_BUFFER = ("[" + ",".join(f"[{seq},{text}]" for seq, text in
                                 ((10, _CLOSE), (11, _WRITE),
                                  (12, _OPENAT))) + "]")


def _compact(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _asdict_state(record: ParsedRecord) -> dict:
    state = dataclasses.asdict(record)
    state["args"] = list(state["args"])
    return state


class TestJournalLine:
    def test_fixed_bytes(self, tmp_path: Path):
        journal = EmitJournal(tmp_path / "run.elog")
        journal.append(NAME, RECORDS)
        journal.sync()
        journal.close()
        assert journal.journal_path.read_bytes() == JOURNAL_LINE

    def test_equals_the_asdict_encoding(self):
        reference = _compact(
            {"cid": NAME.cid, "host": NAME.host, "rid": NAME.rid,
             "records": [_asdict_state(r) for r in RECORDS]})
        assert (reference + "\n").encode() == JOURNAL_LINE


class TestSidecarBufferEntry:
    def test_fixed_bytes(self, tmp_path: Path):
        tail = FileTail(tmp_path / "run_node01_3.st", NAME)
        tail.merger.restore(pending=[], buffered=list(enumerate(
            RECORDS, start=10)), next_seq=13, stats=MergeStats())
        state = _tail_to_state(tail, "run_node01_3.st")
        assert _compact(state["buffer"]) == SIDECAR_BUFFER
        assert state["stats"] == dataclasses.asdict(MergeStats())

    def test_equals_the_asdict_encoding(self):
        reference = _compact([[seq, _asdict_state(r)] for seq, r in
                              enumerate(RECORDS, start=10)])
        assert reference == SIDECAR_BUFFER

    def test_round_trips(self):
        for record in RECORDS:
            state = json.loads(_compact(_record_to_state(record)))
            assert _record_from_state(state) == record

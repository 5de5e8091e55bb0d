"""The three workloads: their ops, untraced and traced.

Each workload is driven closed-loop by one client in one process: the
next op starts only after the previous one returned and was checked.
Every op is timed with tracing off except in the traced run, where
cycles alternate between the untraced form and a traced form that
makes the same calls into each layer's public functions one by one,
each under a span (:mod:`perfbench.spans`). Both forms must produce the
same output; every op's output is checked (:mod:`perfbench.oracle`)
outside its timed region, and a mismatch or an exception counts as a
failed op without stopping the run. The host-speed reference task
(:mod:`perfbench.calibrate`) runs between ops; each sample keeps the
epoch of the reference run before it.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from perfbench import oracle
from perfbench.calibrate import Calibration
from perfbench.setup_probe import LIVE_RULES, live_job_spec
from perfbench.spans import NULL_RECORDER

from repro import (DFG, CallTopDirs, DFGViewer, EventLog, IOStatistics,
                   PartitionColoring, PartitionEL, StatisticsColoring,
                   convert_source, open_source)
from repro.catalog import RunCatalog, RunRecord
from repro.core.diff import DFGDiff
from repro.elstore.writer import EventLogWriter
from repro.ingest.parallel import case_to_columns, frame_from_case_columns
from repro.ingest.streaming import TokenStream
from repro.pipeline.report import comparison_report
from repro.pipeline.serialize import stats_payload
from repro.strace.parser import parse_body
from repro.strace.reader import TraceCase, discover_trace_files
from repro.strace.resume import merge_unfinished
from repro.strace.tokenizer import RecordKind

_clock = time.perf_counter

#: Experiment cid pairs compared inside the combined ``.elog``.
ELOG_PAIRS = (("fpp", "ssf"), ("mpiio", "posix"))

#: Telemetry phases of a live poll reported per layer.
LIVE_PHASES = ("scan", "tail", "decode", "seal", "fold", "emit", "stats")


def digest(texts) -> str:
    """Fingerprint of an op's textual output."""
    sha = hashlib.sha256()
    for text in texts:
        sha.update(text.encode())
        sha.update(b"\0")
    return sha.hexdigest()


@dataclass(frozen=True, slots=True)
class Sample:
    """One timed op: its parts as ``(seconds, calibration epoch before
    the part)``, the throughput group it belongs to, and its work."""

    parts: tuple[tuple[float, int], ...]
    group: int
    events: int = 0
    size: int = 0

    @property
    def seconds(self) -> float:
        return sum(seconds for seconds, _ in self.parts)


class OpClock:
    """Times one op, optionally in parts with a reference-task run
    between them, so each part is scaled by the runs either side of
    it rather than by runs several seconds away."""

    def __init__(self, calibration: Calibration) -> None:
        self.calibration = calibration
        self.parts: list[tuple[float, int]] = []
        self._epoch = calibration.epoch
        self._start = _clock()

    def split(self) -> None:
        """End a part, run the reference task, start the next part."""
        self.parts.append((_clock() - self._start, self._epoch))
        self._epoch = self.calibration.mark()
        self._start = _clock()

    def stop(self) -> tuple[tuple[float, int], ...]:
        self.parts.append((_clock() - self._start, self._epoch))
        return tuple(self.parts)


class Workload:
    """Samples, op accounting and the failure policy shared by all
    workloads. Subclasses implement :meth:`warmup` and :meth:`cycle`."""

    #: Name of the main op kind (the one ``op_p50_ms`` times).
    op_kind = "op"

    def __init__(self, inputs: Path, work: Path, shape: dict,
                 expected: dict, recorder=NULL_RECORDER) -> None:
        self.inputs = inputs
        self.work = work
        self.shape = shape
        self.expected = expected
        self.recorder = recorder
        self.calibration = Calibration()
        #: ``op``/``convert``/``finalize`` samples of untraced ops;
        #: ``op_traced`` those of traced main ops.
        self.samples: dict[str, list[Sample]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._reference: dict[str, str] = {}
        self._cycle = 0
        self._groups = 0

    @property
    def cycles(self) -> int:
        """Cycles run so far."""
        return self._cycle

    @property
    def traced_now(self) -> bool:
        """Traced runs alternate untraced and traced cycles."""
        return self.recorder.enabled and self._cycle % 2 == 1

    def rec(self):
        return self.recorder if self.traced_now else NULL_RECORDER

    def run_cycle(self) -> None:
        if not self.calibration.runs:
            self.calibration.mark()
        self.cycle()
        self._cycle += 1

    def fail(self, problems: list[str], ops: int = 1) -> None:
        """Count ``ops`` failed ops and keep the first messages."""
        self.failed += ops
        self.problems.extend(problems[:3])

    def check_same(self, key: str, value: str) -> list[str]:
        """Every op of one kind must produce the same output as the
        first one (traced or not)."""
        first = self._reference.setdefault(key, value)
        return [] if first == value else [f"{key}: output differs from "
                                          f"the first op's"]

    def add(self, key: str, parts, *, group: int | None = None,
            events: int = 0, size: int = 0) -> None:
        """Record a correct op's sample (traced main ops under
        ``op_traced``; other traced ops are not timed)."""
        if self.traced_now:
            if key != "op":
                return
            key = "op_traced"
        if group is None:
            group = self._groups
            self._groups += 1
        self.samples[key].append(Sample(parts, group, events, size))

    def normalized(self, key: str) -> list[Sample]:
        """The samples of ``key`` with seconds at the reference speed."""
        factor = self.calibration.factor
        return [Sample(tuple((seconds * factor(epoch), epoch)
                             for seconds, epoch in s.parts),
                       s.group, s.events, s.size)
                for s in self.samples[key]]

    def guarded(self, fn, ops: int = 1):
        """Run ``fn``; an exception fails ``ops`` ops and returns None."""
        try:
            return fn()
        except Exception:  # an op failure must not end the run
            self.fail([traceback.format_exc(limit=4)], ops)
            return None

    def run_op(self, key: str, op, check, *, events: int = 0,
               size: int = 0):
        """Run one op, then the reference task; check the op's result
        and record it. ``op()`` returns ``(result, parts)`` (see
        :class:`OpClock`); ``check(result)`` returns problems. Returns
        the result, or None if the op failed."""
        self.attempted += 1
        done = self.guarded(op)
        self.calibration.mark()
        if done is None:
            return None
        result, parts = done
        problems = self.guarded(lambda: check(result)) if check else []
        if problems is None:
            return None
        if problems:
            self.fail(problems)
            return None
        self.add(key, parts, events=events, size=size)
        return result

    def timed(self, rec, kind: str, fn):
        """``fn()`` as one op of ``kind``; returns ``(result, parts)``."""
        clock = OpClock(self.calibration)
        with rec.op(kind):
            result = fn()
        return result, clock.stop()


# -- strace directory layers --------------------------------------------------


def traced_cases(directory: Path, rec, op: int, token_lists: list):
    """``StraceDirSource.iter_cases`` with ``workers=1``, one layer call
    at a time: discover, then per file tokenize → merge → columns.

    Appends ``(path, tokens)`` to ``token_lists`` for the parser pass.
    """
    with rec.span("sources.open"):
        source = open_source(str(directory), workers=1)
        found = discover_trace_files(source.directory)
    for path, name in found:
        with rec.span("strace.tokenize"):
            stream = TokenStream(path)
            tokens = list(stream)
        with rec.span("strace.resume"):
            records, stats = merge_unfinished(tokens, path=str(path))
        stats.decode_replacements = stream.decode_replacements
        with rec.span("ingest.columns"):
            columns = case_to_columns(TraceCase(
                name=name, records=records, merge_stats=stats,
                source=path))
        rec.count(op, "strace.tokenize.lines", stream.n_lines)
        rec.count(op, "strace.resume.records", len(records))
        rec.count(op, "strace.resume.merged_pairs", stats.merged_pairs)
        rec.count(op, "strace.resume.tokens", len(tokens))
        token_lists.append((str(path), tokens))
        yield columns


def ingest_dir(directory: Path, rec, op: int, token_lists: list,
               n_bytes: int) -> EventLog:
    """``EventLog.from_source(directory, workers=1)``; traced, the same
    pipeline through each layer's public function."""
    if not rec.enabled:
        return EventLog.from_source(str(directory), workers=1)
    columns = list(traced_cases(directory, rec, op, token_lists))
    with rec.span("ingest.frame"):
        log = EventLog(frame_from_case_columns(columns))
    rec.count(op, "strace.tokenize.bytes", n_bytes)
    rec.count(op, "ingest.frame.events", log.n_events)
    return log


def parser_pass(token_lists: list, recorder) -> None:
    """A separate ``parse_body`` pass over every complete-syscall body
    the traced ingest tokenized, so the parser's share can be read
    without instrumenting inside the merger. Its own op (``parse``),
    outside the timed op."""
    with recorder.op("parse"):
        op = recorder.last_op
        with recorder.span("strace.parser"):
            for path, tokens in token_lists:
                for token in tokens:
                    if token.kind is RecordKind.SYSCALL:
                        parse_body(token.pid, token.start_us, token.body,
                                   path=path)
    bodies = [token.body for _, tokens in token_lists for token in tokens
              if token.kind is RecordKind.SYSCALL]
    recorder.count(op, "strace.parser.calls", len(bodies))
    recorder.count(op, "strace.parser.quoted",
                   sum('"' in body for body in bodies))


def convert_dir(directory: Path, dest: Path, rec, op: int) -> None:
    """``convert_source(directory, dest, workers=1)``; traced, the
    same stream of cases into an :class:`EventLogWriter`."""
    if not rec.enabled:
        convert_source(str(directory), dest, workers=1)
        return
    with rec.span("elstore.write"):
        writer = EventLogWriter(dest)
    with writer:
        for case in traced_cases(directory, rec, op, []):
            with rec.span("elstore.write"):
                writer.add_case_arrays(
                    case_id=case.name.case_id, cid=case.name.cid,
                    host=case.name.host, rid=case.name.rid,
                    columns=case.columns(), call_strings=case.calls,
                    path_strings=case.paths)
        with rec.span("elstore.write"):
            writer.close()
    rec.count(op, "elstore.write.bytes", dest.stat().st_size)


# -- the analysis shared by both batch workloads ------------------------------


def compare_pair(log: EventLog, stats: IOStatistics, rec,
                 cids=None) -> tuple[PartitionColoring, list[str]]:
    """Partition by cid, diff, and the green/red comparison report."""
    with rec.span("core.partition"):
        green, red = PartitionEL(
            log if cids is None else log.filtered_cids(cids))
    with rec.span("core.diff"):
        diff_text = DFGDiff.between(green, red).report()
    with rec.span("pipeline.report"):
        coloring = PartitionColoring(DFG(green), DFG(red), stats)
        report_text = comparison_report(coloring, stats)
    return coloring, [diff_text, report_text]


def analyse(log: EventLog, levels: int, rec):
    """Map, then build the DFG and the Sec. IV-B statistics."""
    with rec.span("core.mapping"):
        log.apply_mapping_fn(CallTopDirs(levels=levels))
    with rec.span("core.dfg"):
        dfg = DFG(log)
    with rec.span("core.statistics"):
        stats = IOStatistics(log)
    return dfg, stats


def count_analysis(rec, op: int, dfg: DFG, stats: IOStatistics) -> None:
    rec.count(op, "core.mapping.activities", len(stats))
    rec.count(op, "core.dfg.edges", dfg.n_edges)
    rec.count(op, "core.render.nodes", dfg.n_nodes)


def finalize_batch(logs, catalog: Path, name: str, rec) -> None:
    """Close out a batch run as ``report --catalog`` does: record its
    DFG and statistics in the run catalog."""
    for label, log in logs:
        with rec.span("catalog.record"):
            record = RunRecord.from_log(
                log, name=f"{name}-{label}", source=label,
                mapping=log.mapping.name, levels=0)
            RunCatalog(catalog).record_run(record)


# -- ior-compare --------------------------------------------------------------


class IorCompare(Workload):
    """Sec. V's two comparisons from strace text, plus ``convert``."""

    op_kind = "compare"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.dirs = [self.inputs / name for name in ("A", "B")]
        self.bytes = {name: self.shape["sets"][name]["bytes"]
                      for name in ("A", "B")}
        self.events = sum(self.shape["sets"][name]["events"]
                          for name in ("A", "B"))
        self.catalog = self.work / "runs.db"
        self.logs: list = []

    def compare(self, rec, dirs=None):
        """One op: ingest and compare both experiment directories.
        Returns the outputs and the op's timed parts (split between
        the directories when untraced)."""
        token_lists: list = []
        outputs = []
        clock = OpClock(self.calibration)
        with rec.op(self.op_kind):
            op = rec.last_op
            for i, directory in enumerate(dirs or self.dirs):
                if i and not rec.enabled:  # spans would time the split
                    clock.split()
                log = ingest_dir(directory, rec, op, token_lists,
                                 self.bytes[directory.name])
                dfg, stats = analyse(log, 2, rec)
                coloring, texts = compare_pair(log, stats, rec)
                with rec.span("core.render"):
                    texts.append(DFGViewer(dfg, stats, coloring)
                                 .render("ascii"))
                outputs.append((directory.name, log, dfg, stats, texts))
        parts = clock.stop()
        if rec.enabled:
            for _, _, dfg, stats, _ in outputs:
                count_analysis(rec, op, dfg, stats)
            parser_pass(token_lists, rec)
        return outputs, parts

    def check_compare(self, outputs) -> list[str]:
        problems = []
        for name, log, _, _, texts in outputs:
            problems += oracle.check_log(log, self.expected[name], name)
            problems += self.check_same(f"compare {name}", digest(texts))
        return problems

    def check_convert(self, directory: Path, dest: Path) -> list[str]:
        """The first conversion of a directory is read back and held to
        the oracle; later ones must reproduce it byte for byte."""
        key = f"convert {directory.name}"
        value = hashlib.sha256(dest.read_bytes()).hexdigest()
        if key in self._reference:
            return self.check_same(key, value)
        problems = oracle.check_log(
            EventLog.from_source(str(dest)), self.expected[directory.name],
            f"{directory.name}.elog")
        if not problems:
            self._reference[key] = value
        return problems

    def warmup(self) -> None:
        """One compare of the smaller directory and one conversion, so
        lazy imports and file caches are done before timing."""
        self.compare(NULL_RECORDER, self.dirs[:1])
        convert_source(str(self.dirs[0]), self.work / "warmup.elog",
                       workers=1)

    def cycle(self) -> None:
        rec = self.rec()
        outputs = self.run_op(
            "op", lambda: self.compare(rec), self.check_compare,
            events=self.events, size=sum(self.bytes.values()))
        if outputs is not None:
            self.logs = [(name, log) for name, log, *_ in outputs]
        # One conversion per cycle, alternating the two directories (in
        # pairs of cycles in a traced run, whose cycles alternate too).
        pace = 2 if self.recorder.enabled else 1
        directory = self.dirs[self._cycle // pace % 2]
        dest = self.work / f"convert-{directory.name}.elog"
        self.run_op(
            "convert",
            lambda: self.timed(rec, "convert", lambda: convert_dir(
                directory, dest, rec, rec.last_op)),
            lambda _: self.check_convert(directory, dest),
            size=self.bytes[directory.name])
        if self.logs:
            self.run_op("finalize", lambda: self.timed(
                rec, "finalize", lambda: finalize_batch(
                    self.logs, self.catalog, f"cycle{self._cycle}", rec)),
                None)


# -- elog-analysis ------------------------------------------------------------


class ElogAnalysis(Workload):
    """The same analysis over a converted ``.elog`` (no parsing)."""

    op_kind = "analysis"
    repacks_per_cycle = 3

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.elog = self.inputs / "all.elog"
        self.elog_bytes = self.shape["elog_bytes"]
        self.events = sum(s["events"] for s in self.shape["sets"].values())
        self.expected_all = oracle.expected_union(self.expected,
                                                  ("A", "B", "C"))
        self.catalog = self.work / "runs.db"
        self.log = None

    def analyse_store(self, rec):
        """One op: read the store, then map, analyse, compare the two
        experiments and render. Returns the log and outputs, and the
        op's timed parts."""
        clock = OpClock(self.calibration)
        with rec.op(self.op_kind):
            op = rec.last_op
            if rec.enabled:
                with rec.span("sources.open"):
                    source = open_source(str(self.elog))
                with rec.span("elstore.read"):
                    log = source.event_log()
            else:
                log = EventLog.from_source(str(self.elog))
            dfg, stats = analyse(log, 4, rec)
            texts = []
            for cids in ELOG_PAIRS:
                texts += compare_pair(log, stats, rec, cids)[1]
            with rec.span("core.render"):
                viewer = DFGViewer(dfg, stats, StatisticsColoring(stats))
                texts.append(viewer.render("ascii"))
                texts.append(viewer.render("svg"))
            with rec.span("pipeline.report"):
                texts.append(json.dumps(stats_payload(stats)))
        parts = clock.stop()
        count_analysis(rec, op, dfg, stats)
        return (log, texts), parts

    def check_analysis(self, result) -> list[str]:
        log, texts = result
        return (oracle.check_log(log, self.expected_all, "all.elog")
                + self.check_same("analysis", digest(texts)))

    def warmup(self) -> None:
        self.analyse_store(NULL_RECORDER)
        # A repack must reproduce the store byte for byte.
        self._reference["repack"] = hashlib.sha256(
            self.elog.read_bytes()).hexdigest()

    def repack(self, dest: Path, rec) -> None:
        """``convert_source`` of the ``.elog`` into a new one; traced,
        the same stream of stored cases into an EventLogWriter."""
        if not rec.enabled:
            convert_source(str(self.elog), dest)
            return
        with rec.span("sources.open"):
            source = open_source(str(self.elog))
        with rec.span("elstore.write"):
            writer = EventLogWriter(dest)
        with writer:
            cases = iter(source.iter_cases())
            while True:
                with rec.span("elstore.read"):
                    case = next(cases, None)
                if case is None:
                    break
                with rec.span("elstore.write"):
                    writer.add_case_arrays(
                        case_id=case.name.case_id, cid=case.name.cid,
                        host=case.name.host, rid=case.name.rid,
                        columns=case.columns(), call_strings=case.calls,
                        path_strings=case.paths)
            with rec.span("elstore.write"):
                writer.close()
        rec.count(rec.last_op, "elstore.write.bytes", dest.stat().st_size)

    def cycle(self) -> None:
        rec = self.rec()
        result = self.run_op(
            "op", lambda: self.analyse_store(rec), self.check_analysis,
            events=self.events, size=self.elog_bytes)
        if result is not None:
            self.log = result[0]
        # A repack is short, so a cycle times several.
        dest = self.work / "repack.elog"
        for _ in range(self.repacks_per_cycle):
            self.run_op(
                "convert",
                lambda: self.timed(rec, "convert",
                                   lambda: self.repack(dest, rec)),
                lambda _: self.check_same("repack", hashlib.sha256(
                    dest.read_bytes()).hexdigest()),
                size=self.elog_bytes)
        if self.log is not None:
            self.run_op("finalize", lambda: self.timed(
                rec, "finalize", lambda: finalize_batch(
                    [("all", self.log)], self.catalog,
                    f"cycle{self._cycle}", rec)), None)


# -- live-checkpoint ----------------------------------------------------------


class LiveCheckpoint(Workload):
    """Replay the checkpoint traces as a growing directory under a
    durable watch job (checkpoint + emit + rules + alert log +
    catalog). One op is one poll; a cycle is one whole replay, then
    its finalize, then the end-state check."""

    op_kind = "poll"
    #: Polls between two runs of the host-speed reference task.
    polls_per_epoch = 20
    converts_per_cycle = 2

    def __init__(self, *args, polls: int = 200, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        source = self.inputs / "C"
        self.blobs = {path.name: path.read_bytes()
                      for path in sorted(source.iterdir())}
        self.bytes = sum(len(blob) for blob in self.blobs.values())
        self.polls = polls
        self.rules = self.work / "rules.toml"
        self.rules.write_text(LIVE_RULES, encoding="utf-8")
        self.job = None  # the latest replay's watch job

    def spec(self, directory: Path, *, telemetry: bool):
        return live_job_spec(directory, self.rules, telemetry=telemetry)

    def append(self, traces: Path, step: int, steps: int) -> int:
        """Append the ``step``-th of ``steps`` byte slices of every file
        (cut mid-line); return the bytes appended."""
        total = 0
        for name, blob in self.blobs.items():
            lo = len(blob) * step // steps
            hi = len(blob) * (step + 1) // steps
            with open(traces / name, "ab") as handle:
                handle.write(blob[lo:hi])
            total += hi - lo
        return total

    def fresh_dir(self, label: str) -> Path:
        directory = self.work / label
        shutil.rmtree(directory, ignore_errors=True)
        (directory / "traces").mkdir(parents=True)
        return directory

    def warmup(self) -> None:
        directory = self.fresh_dir("warmup")
        job = self.spec(directory, telemetry=False).build()
        for step in range(10):  # the whole directory in ten polls
            self.append(directory / "traces", step, 10)
            job.poll_once()
        job.engine.finalize()
        job.finalize()
        job.close()
        shutil.rmtree(directory)

    def poll_traced(self, job, rec):
        """``WatchJob.poll_once``'s steps as separate public calls."""
        engine = job.engine
        telemetry = engine.telemetry
        with rec.op(self.op_kind):
            op = rec.last_op
            telemetry.begin_poll()
            with rec.span("live.poll"):
                result = engine.poll()
            with rec.span("alerts.evaluate"):
                fired = engine.alerts.evaluate(engine, result)
            saved = bool(result.state_moved
                         or not engine.checkpoint_path.exists() or fired)
            if saved:
                with rec.span("live.checkpoint"):
                    engine.save_checkpoint()
            telemetry.end_poll(result)
            with rec.span("live.render"):
                job.view.refresh(result, fired)
        rec.count(op, "live.poll.bytes", result.n_bytes)
        rec.count(op, "live.poll.sealed", result.n_sealed)
        rec.count(op, "alerts.evaluate.fired", len(fired))
        rec.count(op, "live.checkpoint.saves", int(saved))
        if saved:
            rec.count(op, "live.checkpoint.bytes",
                      engine.checkpoint_path.stat().st_size)
        return result, fired

    def finalize_traced(self, job, rec) -> None:
        """``LiveIngest.finalize`` + ``WatchJob.finalize`` as separate
        public calls (the catalog commit rebuilt from public state)."""
        engine = job.engine
        with rec.span("live.finalize"):
            engine.finalize()
        engine.alerts.shutdown()
        with rec.span("live.pack_emit"):
            engine.pack_emit()
        with rec.span("catalog.record"):
            record = RunRecord.create(
                name=job.spec.name, source=str(job.spec.source),
                mapping=engine.mapping.name, levels=job.spec.levels,
                dfg=engine.snapshot_dfg(), stats=engine.statistics(),
                n_events=engine.total_events,
                n_cases=engine.incremental.n_cases,
                alerts=engine.alerts.export_hook.full_history(
                    engine.alerts.history),
                window=job.spec.window, n_polls=engine.n_polls,
                wall_span_s=0.0)
            RunCatalog(job.spec.catalog).record_run(record)

    def replay(self, rec, directory: Path) -> list:
        """Grow ``directory/traces`` poll by poll under one watch job,
        then finalize it. Returns per-poll outcome signatures."""
        traces = directory / "traces"
        job = self.spec(directory, telemetry=rec.enabled).build()
        self.job = job
        phases = {}
        if rec.enabled:
            registry = job.engine.telemetry.registry
            phases = {name: registry.histogram("phase_seconds", phase=name)
                      for name in LIVE_PHASES}
        group = self._groups
        self._groups += 1
        signatures = []
        appended = tailed = 0
        try:
            for step in range(self.polls):
                if step and step % self.polls_per_epoch == 0:
                    self.calibration.mark()
                appended += self.append(traces, step, self.polls)
                before = {name: h.merged_sum for name, h in phases.items()}
                start = _clock()
                if rec.enabled:
                    result, fired = self.poll_traced(job, rec)
                else:
                    outcome = job.poll_once()
                    result, fired = outcome.result, outcome.fired
                seconds = _clock() - start
                self.attempted += 1
                self.add("op", ((seconds, self.calibration.epoch),),
                         group=group,
                         events=result.n_sealed, size=result.n_bytes)
                tailed += result.n_bytes
                signatures.append((
                    result.n_sealed, result.n_bytes, result.total_events,
                    tuple(sorted(alert.identity for alert in fired))))
                if rec.enabled:
                    op = rec.last_op
                    for name, histogram in phases.items():
                        rec.count(op, f"live.phase.{name}.s",
                                  histogram.merged_sum - before[name])
                    rec.count(op, "live.lag_bytes", appended - tailed)
                    rec.count(op, "live.watermark_age_us",
                              max(job.engine.watermark_ages().values(),
                                  default=0))
            self.calibration.mark()
            self.run_op("finalize", lambda: self.timed(
                rec, "finalize",
                (lambda: self.finalize_traced(job, rec)) if rec.enabled
                else (lambda: (job.engine.finalize(), job.finalize()))),
                None)
        finally:
            job.close()
        return signatures

    def verify(self, rec, directory: Path, signatures) -> list[str]:
        """The replay's end state against the simulator, batch
        ingestion and ``convert_source`` of the final directory; the
        conversions are this cycle's timed ``convert`` ops."""
        traces = directory / "traces"
        token_lists: list = []
        with rec.op("verify"):
            log = ingest_dir(traces, rec, rec.last_op, token_lists,
                             self.bytes)
        if rec.enabled:
            parser_pass(token_lists, rec)
        problems = oracle.check_log(log, self.expected["C"], "final dir")
        log.apply_mapping_fn(CallTopDirs(levels=2))
        dest = directory / "batch.elog"
        for _ in range(self.converts_per_cycle):
            self.run_op(
                "convert",
                lambda: self.timed(rec, "convert",
                                   lambda: convert_dir(traces, dest, rec,
                                                       rec.last_op)),
                lambda _: self.check_same("convert", hashlib.sha256(
                    dest.read_bytes()).hexdigest()),
                size=self.bytes)
        problems += oracle.check_live(
            self.job.engine, log, Path(self.job.spec.emit).read_bytes(),
            dest.read_bytes())
        runs = RunCatalog(self.job.spec.catalog).list_runs()
        problems += self.check_same("catalog fingerprint",
                                    runs[-1].fingerprint)
        problems += self.check_same("poll outcomes", repr(signatures))
        return problems

    def cycle(self) -> None:
        rec = self.rec()
        directory = self.fresh_dir(f"replay{self._cycle}")
        failed_before = self.failed
        group = self._groups
        try:
            signatures = self.guarded(lambda: self.replay(rec, directory))
            if signatures is not None:
                problems = self.guarded(
                    lambda: self.verify(rec, directory, signatures))
                if problems:
                    # A wrong end state makes every poll of it wrong.
                    self.fail(problems, self.polls)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        if self.failed > failed_before:  # drop the replay's poll times
            for key in ("op", "op_traced"):
                self.samples[key] = [s for s in self.samples[key]
                                     if s.group != group]


WORKLOAD_CLASSES = {
    "ior-compare": IorCompare,
    "elog-analysis": ElogAnalysis,
    "live-checkpoint": LiveCheckpoint,
}

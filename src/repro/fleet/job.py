"""The job layer: one watched trace directory as a schedulable unit.

A :class:`WatchJob` owns one :class:`~repro.live.engine.LiveIngest`
plus everything ``run_watch`` used to wire around it — the alert
engine, the checkpoint sidecar, the emit journal, per-job telemetry,
the stateful :class:`~repro.live.watch.WatchView` — with an explicit
lifecycle::

    create (JobSpec.build) → restore (checkpoint, inside the engine)
        → poll_once, repeatedly (the scheduler's unit of work)
        → finalize (pack the --emit .elog)

:class:`JobSpec` is the declarative half: the watch-argument wiring
extracted from ``cli.py`` (engine construction from a source spec,
rules loading, checkpoint restore) as a value object, so the same
recipe builds a job for ``st-inspector watch``, one entry of a
``fleet.toml``, or a *rebuild* after the scheduler isolated a failure
— a rebuilt job re-restores from its own checkpoint exactly like a
killed-and-restarted watch process.

``poll_once`` is the body of the old ``run_watch`` loop, verbatim in
ordering: poll → alert evaluation → checkpoint save → engine gauges →
span end → render. The scheduler owns everything between polls
(cadence, sleeping, output); the job owns everything within one.
"""

from __future__ import annotations

import os
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from repro._util.errors import ReproError
from repro.live.engine import LiveIngest, PollResult
from repro.live.watch import WatchView

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.alerts import Alert
    from repro.telemetry.spans import PollSpan

#: Source schemes a fleet job can follow live. Only strace directories
#: grow in place today; elog/csv/sim sources are complete artifacts
#: with nothing to poll.
_WATCHABLE_SCHEMES = ("strace",)

#: The names ``--mapping`` / a fleet ``mapping`` key accept.
MAPPINGS = ("topdirs", "path", "call", "site")


def mapping_from_name(name: str, levels: int = 2):
    """The event→activity mapping behind ``--mapping NAME`` — shared
    by the batch subcommands, the watch CLI and fleet job specs."""
    from repro.core.mapping import (CallOnly, CallPath, CallTopDirs,
                                    SiteVariables)

    if name == "topdirs":
        return CallTopDirs(levels=levels)
    if name == "path":
        return CallPath()
    if name == "call":
        return CallOnly()
    if name == "site":
        from repro.simulate.workloads.ior import JUWELS_SITE_VARIABLES

        return SiteVariables(JUWELS_SITE_VARIABLES,
                             extra_levels=levels - 1)
    raise ReproError(f"unknown mapping {name!r}")


class Check:
    """One option's value rule, shared by its ``watch`` flag and its
    fleet key so both report the same "must be ..." text.

    :meth:`check` validates a typed value (a fleet key, straight from
    TOML/JSON — ``top = "5"`` is rejected, not converted); :meth:`parse`
    converts a flag's text first (the argparse ``type=``). Both raise
    :class:`ValueError` and return the value as ``kinds[0]``.
    """

    def __init__(self, want: str, *kinds: type,
                 ok: Callable[[Any], bool] | None = None,
                 choices: tuple[str, ...] | None = None) -> None:
        self.want = want
        self.kinds = kinds
        self.ok = ok
        self.choices = choices

    def check(self, value):
        # bool is an int subclass: a numeric option must not accept it.
        if not isinstance(value, self.kinds) \
                or (isinstance(value, bool) and bool not in self.kinds) \
                or (self.ok is not None and not self.ok(value)) \
                or (self.choices is not None
                    and value not in self.choices):
            raise ValueError(f"must be {self.want} (got {value!r})")
        return self.kinds[0](value)

    def parse(self, text: str):
        try:
            value = self.kinds[0](text)
        except ValueError:
            raise ValueError(
                f"must be {self.want} (got {text!r})") from None
        return self.check(value)


def _at_least(low: int, unit: str = "") -> Check:
    return Check(f"an integer >= {low}{unit}", int,
                 ok=lambda value: value >= low)


_STRING = Check("a string", str)
_BOOLEAN = Check("a boolean", bool)

#: Option scopes. A ``DEFAULT`` option is a ``watch`` flag and a fleet
#: key allowed at the top level (fanning out to every job) and in a
#: ``[jobs.NAME]`` table; a ``JOB`` option is a ``watch`` flag and a
#: job-table-only key; a ``CLI`` option is a ``watch`` flag only.
DEFAULT, JOB, CLI = "default", "job", "cli"


def _option(default, scope: str, check: Check, help: str, *,
            key: str | None = None, metavar: str | None = None,
            path: str | None = None):
    """A :class:`JobSpec` field declaring one watch option.

    ``key`` is the fleet key (default: the field name); the ``watch``
    flag spells it ``--key-with-dashes``, or ``--no-KEY`` for a bool
    that defaults to True, and a field without a default is the
    positional argument. ``path`` is ``"file"`` or ``"source"`` for
    values a fleet config resolves against its own directory.
    """
    return field(default=default, metadata={
        "scope": scope, "check": check, "help": help, "key": key,
        "metavar": metavar, "path": path})


@dataclass(frozen=True)
class JobSpec:
    """Everything needed to (re)build one watch job — and the one
    declaration of the watch options: the ``watch`` flags
    (``cli.py``), the fleet keys and their validation
    (:mod:`repro.fleet.config`) are all derived from the field
    metadata (:data:`OPTIONS`).

    Frozen so a spec can be shared between the scheduler (which
    rebuilds failed jobs from it) and whoever constructed it; derive
    variants with :func:`dataclasses.replace`.
    """

    source: str | os.PathLike[str] = _option(
        MISSING, JOB, _STRING,
        "trace directory being written (may still be empty)",
        metavar="directory", path="source")
    name: str = "watch"
    interval: float = _option(
        2.0, DEFAULT, Check("a number >= 0", float, int,
                            ok=lambda value: value >= 0),
        "seconds between polls (default: 2)", metavar="SEC")
    polls: int | None = _option(
        None, CLI, _at_least(1),
        "stop after N polls (default: run until ^C)", metavar="N")
    checkpoint: str | os.PathLike[str] | None = _option(
        None, JOB, _STRING,
        "JSON sidecar making ingestion resumable: loaded if present, "
        "rewritten after every poll", metavar="FILE", path="file")
    window: int | None = _option(
        None, DEFAULT, _at_least(2),
        "bound per-case statistics memory: coarsen interval/rate "
        "buffers past N entries (scalar stats stay exact; merge "
        "counts and timelines become upper bounds, marked '~'; "
        "default: unbounded)", metavar="N")
    memory_budget: int | None = _option(
        None, DEFAULT, _at_least(1, " (bytes)"),
        "adaptive --window: derive and re-derive the per-case "
        "interval-buffer cap each poll so the measured buffer "
        "footprint stays under BYTES (mutually exclusive with "
        "--window)", metavar="BYTES")
    emit: str | os.PathLike[str] | None = _option(
        None, JOB, _STRING,
        "stream sealed records to a durable journal next to FILE and "
        "pack FILE as an .elog on exit — byte-identical to batch "
        "`convert` of the directory, surviving kill/restart cycles "
        "(combine with --checkpoint)", metavar="FILE", path="file")
    compact_emit: int | None = _option(
        None, JOB, _at_least(1, " (bytes)"),
        "rolling journal compaction: whenever the checkpointed part "
        "of the --emit journal exceeds BYTES, pack it into FILE and "
        "truncate the journal, keeping disk usage O(window) over a "
        "week-long watch (requires --emit and --checkpoint; the "
        "final .elog stays byte-identical to batch `convert`)",
        metavar="BYTES")
    rules: str | os.PathLike[str] | None = _option(
        None, DEFAULT, _STRING,
        "alerting rules file (TOML, or *.json): threshold rules over "
        "the refresh deltas, evaluated every poll (see "
        "docs/rules.md); fired alerts render as a pane and route to "
        "the configured sinks", metavar="FILE", path="file")
    alert_log: str | os.PathLike[str] | None = _option(
        None, JOB, _STRING,
        "append fired alerts as JSON lines to FILE (adds a jsonl "
        "sink on top of the rules file's [sinks]); requires --rules",
        metavar="FILE", path="file")
    baseline: str | None = _option(
        None, DEFAULT, _STRING,
        "reference run for against='baseline' and "
        "absent_from_baseline rules — any trace source "
        "(elog:good.elog, sim:ior?ranks=4, a bare path); overrides "
        "the rules file's baseline entry; requires --rules",
        metavar="SOURCE", path="source")
    recursive: bool = _option(
        False, DEFAULT, _BOOLEAN,
        "also discover .st files in nested subdirectories (per-host "
        "trace layouts)")
    lenient: bool = _option(
        False, DEFAULT, _BOOLEAN,
        "tolerate corrupt input: undecodable bytes become U+FFFD "
        "(counted, warned) and orphan resumed records are skipped "
        "instead of aborting the parse")
    mapping: str = _option(
        "topdirs", DEFAULT,
        Check(f"one of {MAPPINGS}", str, choices=MAPPINGS),
        "event→activity mapping (default: the paper's "
        "call+top-2-dirs)")
    levels: int = _option(
        2, DEFAULT, _at_least(1), "directory levels for the mapping")
    show_dfg: bool = _option(
        True, DEFAULT, _BOOLEAN,
        "print the status/diff summary only, skip the ASCII DFG",
        key="dfg")
    top: int = _option(
        5, DEFAULT, _at_least(1), "rows in the change-diff summary")
    telemetry: bool = False
    metrics_log: str | os.PathLike[str] | None = _option(
        None, CLI, _STRING,
        "append one JSON telemetry snapshot per poll to FILE (the "
        "offline twin of --metrics-port for hosts nothing scrapes); "
        "turns telemetry on", metavar="FILE")
    #: Run catalog the job commits its finished run into (shared
    #: between fleet jobs — the catalog is multi-writer).
    catalog: str | os.PathLike[str] | None = _option(
        None, DEFAULT, _STRING,
        "record this run (DFG, per-activity statistics, metadata, "
        "fingerprint) into a run catalog (created if missing; see "
        "docs/catalog.md and `st-inspector runs`)", metavar="FILE",
        path="file")
    #: Name the cataloged run is recorded under; ``runs list --app
    #: NAME`` and ``catalog:...?app=NAME`` filter on it.
    run_name: str | None = _option(
        None, JOB, _STRING,
        "name the cataloged run is recorded under (default: the "
        "source's basename; a fleet job's name); `runs list --app "
        "NAME` and catalog: baselines filter on it", metavar="NAME")

    def with_overrides(self, **changes) -> "JobSpec":
        return replace(self, **changes)

    def check(self) -> None:
        """Reject option combinations no job can honour — the one home
        of the cross-option rules, for ``watch`` and fleet alike
        (:meth:`build_engine` runs it; a fleet config runs it at load,
        naming the job)."""
        if self.window is not None and self.memory_budget is not None:
            raise ReproError(
                "window and memory_budget are mutually exclusive "
                "(--window, --memory-budget): the budget derives the "
                "window, pick one")
        for keys, needs, why in _NEEDS:
            for key in keys:
                if getattr(self, key) is not None \
                        and not getattr(self, needs):
                    flags = " and ".join(OPTION_BY_NAME[k].flag
                                         for k in keys)
                    verb = "require" if len(keys) > 1 else "requires"
                    raise ReproError(
                        f"{key} but no {needs}: {flags} {verb} "
                        f"{OPTION_BY_NAME[needs].flag} ({why})")

    def resolve_directory(self) -> Path:
        """The trace directory behind ``source`` — a bare path or a
        ``strace:`` URI (:func:`~repro.sources.parse_source_spec`
        grammar); complete-artifact schemes are rejected."""
        from repro.sources import parse_source_spec

        spec = parse_source_spec(str(self.source))
        if spec.scheme is None:
            return Path(spec.target)
        if spec.scheme in _WATCHABLE_SCHEMES:
            if spec.options:
                raise ReproError(
                    f"job {self.name!r}: source {spec.raw!r} takes no "
                    f"?options for live watching")
            return Path(spec.target)
        raise ReproError(
            f"job {self.name!r}: cannot watch source {spec.raw!r} — "
            f"live ingestion follows growing strace directories "
            f"(a bare path or strace:DIR), not {spec.scheme}: sources")

    def build_engine(self) -> LiveIngest:
        """Construct the engine — the ``cmd_watch`` wiring, extracted.

        Raises :class:`~repro._util.errors.ReproError` for anything a
        startup should reject (conflicting options, missing
        directory, malformed rules) so callers can keep configuration
        errors (exit 2) apart from runtime failures (exit 1).
        """
        self.check()
        directory = self.resolve_directory()
        if not directory.is_dir():
            raise ReproError(
                f"no such trace directory: {directory} (job "
                f"{self.name!r} watches a directory that must exist, "
                f"even if still empty)")
        alerts = None
        if self.rules:
            from repro.alerts import AlertEngine, JsonlSink

            # A malformed rules file raises AlertConfigError (a
            # ReproError) naming the offending rule.
            extra = [JsonlSink(self.alert_log)] if self.alert_log else None
            alerts = AlertEngine.from_rules_file(
                self.rules, baseline=self.baseline, extra_sinks=extra)
        if self.catalog:
            from repro.catalog import AlertExportBuffer, RunCatalog

            # Create/validate the catalog now so a bad path or an
            # unsupported schema version is a startup (exit 2) error,
            # not a surprise at finalize after a week of watching.
            RunCatalog(self.catalog)
            if alerts is not None:
                # Capture full alert detail before history_limit
                # compaction folds it into counts (the finalize-time
                # catalog commit stores exported + surviving history).
                alerts.export_hook = AlertExportBuffer()
        telemetry = None
        if self.telemetry:
            from repro.telemetry import Telemetry

            telemetry = Telemetry()
        return LiveIngest(
            directory,
            mapping=mapping_from_name(self.mapping, self.levels),
            strict=not self.lenient,
            recursive=self.recursive,
            # The graph and statistics are both maintained
            # incrementally, so a watcher never needs the raw records.
            keep_records=False,
            window=self.window,
            memory_budget=self.memory_budget,
            emit=self.emit,
            compact_emit=self.compact_emit,
            checkpoint=self.checkpoint,
            # Attached before checkpoint load so a resumed sidecar
            # restores rule latches, alert history and telemetry
            # counter bases into this life.
            alerts=alerts,
            telemetry=telemetry,
        )

    def build(self) -> "WatchJob":
        return WatchJob(self.build_engine(), spec=self)


#: Cross-option dependencies: (options, the option they need, why).
_NEEDS = (
    (("compact_emit",), "emit", "there is no journal to compact"),
    (("compact_emit",), "checkpoint",
     "compaction only packs journal bytes a durable sidecar already "
     "accounts for"),
    (("alert_log", "baseline"), "rules",
     "no rules, nothing to fire or compare"),
    (("run_name",), "catalog", "run names label cataloged runs"),
)


class Option(NamedTuple):
    """One watch option, derived from its :class:`JobSpec` field."""

    name: str           #: the JobSpec field (and argparse ``dest``)
    key: str            #: the fleet key
    flag: str           #: the ``watch`` flag, or the positional's name
    default: Any
    scope: str          #: DEFAULT, JOB or CLI
    check: Check
    help: str
    metavar: str | None
    path: str | None    #: "file"/"source" when a fleet resolves it


def _options() -> tuple[Option, ...]:
    options = []
    for spec_field in fields(JobSpec):
        meta = spec_field.metadata
        if not meta:
            continue
        key = meta["key"] or spec_field.name
        if spec_field.default is MISSING:
            flag = meta["metavar"]
        elif spec_field.default is True:
            flag = "--no-" + key.replace("_", "-")
        else:
            flag = "--" + key.replace("_", "-")
        options.append(Option(
            spec_field.name, key, flag, spec_field.default,
            meta["scope"], meta["check"], meta["help"], meta["metavar"],
            meta["path"]))
    return tuple(options)


#: Every watch option, in declaration (``watch --help``) order.
OPTIONS = _options()
OPTION_BY_NAME = {option.name: option for option in OPTIONS}


@dataclass
class PollOutcome:
    """What one ``poll_once`` produced, for the scheduler to present."""

    result: PollResult
    fired: "list[Alert] | None"
    span: "PollSpan | None"
    text: str


class WatchJob:
    """One engine + policy/IO, driven one poll at a time.

    The scheduler reads/writes the bookkeeping attributes (``state``,
    ``deadline``, ``failures``); the job itself only knows how to do
    one poll, how to rebuild itself after a failure, and how to
    finalize its emit destination.
    """

    def __init__(self, engine: LiveIngest,
                 spec: JobSpec | None = None) -> None:
        self.engine = engine
        #: The job's settings. A job wrapped around a bare engine runs
        #: with the defaults and cannot be rebuilt.
        self.spec = (spec if spec is not None
                     else JobSpec(source=engine.directory))
        self._bare = spec is None
        self.view = self._new_view()
        #: pending → running → done; failed/stopped via the scheduler.
        self.state = "pending"
        self.completed = 0
        self.failures = 0
        self.restarts = 0
        self.deadline = 0.0
        self._order = 0
        self._emit_packed = False
        self._cataloged = False
        self._started = time.monotonic()

    @classmethod
    def from_spec(cls, spec: JobSpec) -> "WatchJob":
        return spec.build()

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def interval(self) -> float:
        return self.spec.interval

    @property
    def exhausted(self) -> bool:
        """Poll budget spent (``polls=None`` never exhausts)."""
        polls = self.spec.polls
        return polls is not None and self.completed >= polls

    def _new_view(self) -> WatchView:
        return WatchView(self.engine, show_dfg=self.spec.show_dfg,
                         top=self.spec.top)

    def poll_once(self) -> PollOutcome:
        """One refresh: the old ``run_watch`` body, order preserved.

        Alert evaluation runs *before* the checkpoint save so the
        sidecar always holds the latches of the alerts it has seen
        fire; the render phase sits outside the span so the TELEMETRY
        row describes the poll it belongs to.
        """
        engine = self.engine
        telemetry = engine.telemetry
        telemetry.begin_poll()
        result = engine.poll()
        fired = (engine.alerts.evaluate(engine, result)
                 if engine.alerts is not None else None)
        if engine.checkpoint_path is not None \
                and (result.state_moved
                     or not engine.checkpoint_path.exists()
                     or fired):
            engine.save_checkpoint()
        if telemetry.enabled:
            record_engine_gauges(telemetry, engine)
        span = telemetry.end_poll(result)
        with telemetry.phase("render"):
            text = self.view.refresh(result, fired)
        self.completed += 1
        return PollOutcome(result=result, fired=fired, span=span,
                           text=text)

    def record_snapshot(self) -> None:
        """Append one telemetry snapshot line (``--metrics-log``)."""
        if self.spec.metrics_log is not None:
            from repro.telemetry.exposition import append_snapshot

            append_snapshot(self.spec.metrics_log,
                            self.engine.telemetry.snapshot())

    def rebuild(self) -> None:
        """Replace the engine with a freshly built one — the in-process
        equivalent of kill/restart: the old engine's resources are
        released first (so the new engine is the emit journal's only
        appender), the new engine restores from the job's checkpoint,
        and the view baseline resets exactly as a restarted watch
        process would."""
        if self._bare:
            raise ReproError(
                f"job {self.name!r} was built from a bare engine — "
                f"only spec-built jobs can be rebuilt after a failure")
        self.engine.close()
        self.engine = self.spec.build_engine()
        self.view = self._new_view()
        self._emit_packed = False
        self._cataloged = False

    def finalize(self) -> Path | None:
        """Drain background alert delivery, pack the ``--emit``
        destination and commit the run to the catalog, each once
        (idempotent); returns the packed path the first time, None
        after (or with no emit)."""
        if self.engine.alerts is not None:
            # Queued alerts must reach their sinks before the run is
            # declared finished (late submits deliver inline).
            self.engine.alerts.shutdown()
        packed = None
        if self.engine.emit_journal is not None and not self._emit_packed:
            packed = self.engine.pack_emit()
            self._emit_packed = True
        self._commit_catalog()
        return packed

    def _commit_catalog(self) -> int | None:
        """Record the finished run (DFG, statistics, alert history —
        exported pre-compaction detail included) into the job's
        catalog; returns the run id, or None without a catalog."""
        spec = self.spec
        if not spec.catalog or self._cataloged:
            return None
        from repro.catalog import AlertExportBuffer, RunCatalog, RunRecord

        engine = self.engine
        alerts: tuple = ()
        if engine.alerts is not None:
            hook = engine.alerts.export_hook
            if isinstance(hook, AlertExportBuffer):
                alerts = hook.full_history(engine.alerts.history)
            else:
                alerts = tuple(engine.alerts.history)
        record = RunRecord.create(
            name=spec.run_name or spec.name,
            source=str(spec.source),
            mapping=engine.mapping.name,
            levels=spec.levels,
            dfg=engine.snapshot_dfg(),
            stats=engine.statistics(),
            n_events=engine.total_events,
            n_cases=engine.incremental.n_cases,
            alerts=alerts,
            window=spec.window,
            n_polls=engine.n_polls,
            wall_span_s=time.monotonic() - self._started)
        run_id = RunCatalog(spec.catalog).record_run(record)
        self._cataloged = True
        return run_id

    def close(self) -> None:
        self.engine.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WatchJob({self.name!r}, state={self.state!r}, "
                f"completed={self.completed})")


def record_engine_gauges(telemetry, engine: LiveIngest) -> None:
    """Point-in-time engine gauges, refreshed once per poll (after the
    checkpoint save, so they describe the state the sidecar holds)."""
    ages = engine.watermark_ages()
    telemetry.gauge_set("starving_files", len(ages))
    telemetry.gauge_set(
        "watermark_age_seconds",
        max(ages.values()) / 1e6 if ages else 0.0)
    telemetry.gauge_set("interval_buffer_entries",
                        engine.stats.n_buffered_intervals())
    telemetry.gauge_set("interval_buffer_window", engine.window or 0)
    telemetry.update_rss()

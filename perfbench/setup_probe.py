"""Set-up time of one workload, measured in a fresh process.

Run as a script, it times what a user waits for before the first op:
importing ``repro`` and opening the workload's sources (for the live
workload, building the watch job: rules, checkpoint, emit journal and
catalog on an empty directory). It prints the seconds on stdout.
``run.py`` starts it several times per run and reports the median as
``setup_s``. Interpreter start-up is not included.

    PYTHONPATH=src python3 perfbench/setup_probe.py WORKLOAD INPUTS SCRATCH
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: Live rule set: new relations, a Sec. IV-B threshold, starvation.
LIVE_RULES = """\
[[rule]]
name = "new-relations"
type = "new_edge"

[[rule]]
name = "fsync-heavy"
type = "stat_threshold"
metric = "relative_duration"
op = ">"
value = 0.3
pattern = "fsync"

[[rule]]
name = "sealing-starved"
type = "watermark_age"
max_age = 0.05
"""


def live_job_spec(directory: Path, rules: Path, *, telemetry: bool):
    """The watch job of the live workload, writing under ``directory``
    and following ``directory/traces``."""
    from repro.fleet.job import JobSpec

    return JobSpec(
        source=str(directory / "traces"), name="replay", interval=0.0,
        checkpoint=str(directory / "watch.ckpt.json"),
        emit=str(directory / "watch.elog"), rules=str(rules),
        alert_log=str(directory / "alerts.jsonl"),
        catalog=str(directory / "runs.db"), telemetry=telemetry)


def open_inputs(workload: str, inputs: Path, scratch: Path) -> None:
    """Import ``repro`` and open what the workload's ops read."""
    from repro import open_source

    if workload == "ior-compare":
        for name in ("A", "B"):
            open_source(str(inputs / name), workers=1)
    elif workload == "elog-analysis":
        open_source(str(inputs / "all.elog"))
    else:
        rules = scratch / "rules.toml"
        rules.write_text(LIVE_RULES, encoding="utf-8")
        (scratch / "traces").mkdir(parents=True)
        live_job_spec(scratch, rules, telemetry=False).build().close()


if __name__ == "__main__":
    open_inputs(sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3]))
    print(time.perf_counter() - START)

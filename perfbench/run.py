#!/usr/bin/env python3
"""The repository's benchmark: end-to-end and per-layer numbers for
batch compare, ``.elog`` analysis and a durable live watch.

    python3 perfbench/run.py --workload ior-compare --seed 1 \\
        --seconds 25 --trace 0

Run from the root of a checkout (the benchmark imports ``repro`` from
``src/``). It generates the workload's inputs from ``--seed`` in a
child process, times set-up in fresh processes, then drives the
workload closed-loop for ``--seconds`` and checks every op's output.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics from a traced run and
writes the spans to ``.bench_out/spans-<workload>.json``. The last
line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name → value and unit). The exit code is
0 when every op was correct. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh processes timed per run for ``setup_s``.
SETUP_REPEATS = 5
#: A traced run fails if any op has more untraced time than this share.
MAX_UNTRACED_SHARE = 0.10
#: Percentiles tried, highest first, for ``op_tail_ms``.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
#: Samples that must lie above the reported tail percentile.
TAIL_MIN_BEYOND = 10
#: Seconds any child process may take.
CHILD_TIMEOUT = 170


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), env["PYTHONPATH"]] if env.get("PYTHONPATH")
        else [str(SRC)])
    return env


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples above it
    (nearest rank), and its label. With fewer than twenty samples no
    percentile above the median qualifies, and the median is used."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = -(-pct * n // 100)  # ceil
        if n - rank >= TAIL_MIN_BEYOND:
            return ordered[int(rank) - 1], f"p{pct:g}"
    return statistics.median(ordered), "p50"


def time_setup(workload: str, inputs: Path, work: Path) -> list[float]:
    """``SETUP_REPEATS`` fresh-process set-up times, each at the
    reference host speed of the reference-task runs either side."""
    from perfbench.calibrate import Calibration

    calibration = Calibration()
    times = []
    for i in range(SETUP_REPEATS):
        epoch = calibration.mark()
        scratch = work / f"setup{i}"
        scratch.mkdir()
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
             workload, str(inputs), str(scratch)],
            env=child_env(), capture_output=True, text=True, check=True,
            timeout=CHILD_TIMEOUT)
        times.append((float(done.stdout.strip().splitlines()[-1]), epoch))
    calibration.mark()
    return [seconds * calibration.factor(epoch) for seconds, epoch in times]


def generate_inputs(workload: str, seed: int, out: Path,
                    scale: str) -> None:
    """Inputs are made in a child so the simulator's memory and time
    stay out of this process."""
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "inputs.py"),
         "--workload", workload, "--seed", str(seed), "--out", str(out),
         "--scale", scale],
        env=child_env(), check=True, timeout=CHILD_TIMEOUT)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def measure(workload: str, inputs: Path, work: Path, seconds: float,
            trace: bool, scale: str = "paper"):
    """Drive one workload for ``seconds`` (whole cycles) over the
    inputs in ``inputs``; return the workload object and the span
    recorder."""
    from perfbench import inputs as inputs_mod
    from perfbench.spans import NULL_RECORDER, SpanRecorder
    from perfbench.workloads import WORKLOAD_CLASSES, LiveCheckpoint

    shape = json.loads((inputs / "inputs.json").read_text("utf-8"))
    expected = inputs_mod.load_expected(inputs)
    recorder = SpanRecorder() if trace else NULL_RECORDER
    cls = WORKLOAD_CLASSES[workload]
    kwargs = ({"polls": inputs_mod.SCALES[scale].live_polls}
              if cls is LiveCheckpoint else {})
    work.mkdir(parents=True, exist_ok=True)
    runner = cls(inputs, work, shape, expected, recorder, **kwargs)
    runner.warmup()
    # A traced run alternates untraced and traced cycles: it needs at
    # least one of each for trace.overhead.
    min_cycles = 2 if trace else 1
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or runner.cycles < min_cycles:
        runner.run_cycle()
    return runner, recorder


def throughput(samples, attribute: str, scale: float) -> float:
    """Median over groups of the group's work per second."""
    work: dict[int, float] = {}
    seconds: dict[int, float] = {}
    for sample in samples:
        work[sample.group] = work.get(sample.group, 0) + getattr(
            sample, attribute)
        seconds[sample.group] = (seconds.get(sample.group, 0)
                                 + sample.seconds)
    return statistics.median(work[g] * scale / seconds[g] for g in work)


def end_to_end(runner, setup: list[float]) -> dict[str, float]:
    """Every end-to-end metric, times at the reference host speed."""
    values = {"setup_s": statistics.median(setup),
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024}
    ops = runner.normalized("op")
    if ops:  # else every op failed, and the run is incorrect anyway
        seconds = [sample.seconds for sample in ops]
        values.update(
            op_p50_ms=statistics.median(seconds) * 1e3,
            op_tail_ms=tail(seconds)[0] * 1e3,
            events_per_s=throughput(ops, "events", 1),
            mb_per_s=throughput(ops, "size", 1e-6))
    converts = runner.normalized("convert")
    if converts:
        values["convert_mb_s"] = throughput(converts, "size", 1e-6)
    finals = runner.normalized("finalize")
    if finals:
        values["finalize_s"] = statistics.median(
            sample.seconds for sample in finals)
    return values


#: Op kinds in the order a layer's numbers are taken from (see
#: SpanRecorder.layer_table); the workload's timed op comes first.
SIDE_KINDS = ["verify", "parse", "convert", "finalize"]


def per_layer(runner, recorder) -> dict[str, float]:
    table = recorder.layer_table([runner.op_kind, *SIDE_KINDS])
    # Span names are layer names; their seconds are reported as <layer>.s.
    values = {f"{name}.s" if name in recorder.span_names else name: value
              for name, value in table.items()}
    tokens = table.get("strace.resume.tokens", 0.0)
    values["strace.resume.kept_ratio"] = (
        table.get("strace.resume.records", 0.0) / tokens if tokens else 0.0)
    calls = table.get("strace.parser.calls", 0.0)
    values["strace.parser.quoted_ratio"] = (
        table.get("strace.parser.quoted", 0.0) / calls if calls else 0.0)
    traced = [sample.seconds for sample in runner.normalized("op_traced")]
    plain = [sample.seconds for sample in runner.normalized("op")]
    values["trace.overhead"] = (
        statistics.median(traced) / statistics.median(plain) - 1
        if traced and plain else 0.0)
    return values


def report(workload: str, runner, recorder, setup: list[float],
           trace: bool) -> tuple[dict, bool]:
    """The final JSON object and whether the run is correct."""
    from perfbench.calibrate import REFERENCE_S

    spec = load_spec()
    correct = runner.failed == 0
    if trace:
        values = per_layer(runner, recorder)
        wanted = spec["per_layer"]
        worst = recorder.worst_untraced_share()
        print(f"worst untraced share of an op: {worst:.2%}")
        if worst > MAX_UNTRACED_SHARE:
            print(f"untraced time {worst:.1%} of an op exceeds "
                  f"{MAX_UNTRACED_SHARE:.0%}", file=sys.stderr)
            correct = False
        recorder.dump(ROOT / ".bench_out" / f"spans-{workload}.json")
    else:
        values = end_to_end(runner, setup)
        wanted = spec["end_to_end"]
        ops = [sample.seconds for sample in runner.samples["op"]]
        runs = runner.calibration.runs
        raw = f"{statistics.median(ops) * 1e3:.1f} ms" if ops else "-"
        print(f"samples: op={len(ops)} (tail {tail(ops)[1] if ops else '-'},"
              f" measured p50 {raw})"
              f" convert={len(runner.samples['convert'])}"
              f" finalize={len(runner.samples['finalize'])}"
              f" setup={len(setup)}; reference task median "
              f"{statistics.median(runs) * 1e3:.1f} ms over {len(runs)} "
              f"runs (reference speed: {REFERENCE_S * 1e3:.0f} ms)")
    # A layer the workload never calls reads 0 in a traced run; an
    # end-to-end metric must always have a value.
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not trace:
        print(f"no value for {missing}", file=sys.stderr)
        correct = False
    for problem in runner.problems[:5]:
        print(problem, file=sys.stderr)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    return {"correct": correct, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}, correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ior-compare", "elog-analysis",
                                 "live-checkpoint"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "tiny"),
                        default="paper",
                        help="input size (tiny: the self-tests)")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC}/repro not found; run from the root of a "
              f"full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = work / "inputs"
        generate_inputs(args.workload, args.seed, inputs, args.scale)
        setup = time_setup(args.workload, inputs, work)
        runner, recorder = measure(args.workload, inputs, work / "run",
                                   args.seconds, bool(args.trace),
                                   args.scale)
        payload, correct = report(args.workload, runner, recorder, setup,
                                  bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print(json.dumps(payload))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Self-tests of the benchmark, at tiny scale.

    PYTHONPATH=src python3 -m pytest perfbench -q

They check the contract of ``run.py`` (each workload runs end to end
and prints exactly the metrics ``BENCHMARK.json`` names, with their
units), that the oracle catches a single corrupted duration, that
inputs are a pure function of ``(workload, seed)`` with a stable shape,
and the span recorder's self-time arithmetic.
"""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import inputs
from perfbench.run import ROOT, child_env, measure, tail
from perfbench.spans import SpanRecorder

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(workload: str, trace: int) -> tuple[int, dict]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=300)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_prints_exactly_the_named_metrics(workload, trace):
    code, result = run_benchmark(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in wanted}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in values.values()), values
    elif workload == "elog-analysis":
        assert values["strace.parser.calls"] == 0
        assert values["elstore.read.s"] > 0
    elif workload == "ior-compare":
        assert values["strace.tokenize.s"] > 0
        assert values["strace.parser.calls"] > 0
    else:
        assert values["live.poll.s"] > 0 and values["live.checkpoint.s"] > 0


def test_every_layer_is_measured_on_some_workload():
    seen: set[str] = set()
    for workload in WORKLOADS:
        code, result = run_benchmark(workload, 1)
        assert code == 0
        seen |= {name for name, m in result["metrics"].items()
                 if m["value"] != 0}
    never = {m["name"] for m in SPEC["per_layer"]} - seen
    # Lag and starvation are zero when the watcher keeps up; the rest
    # must be measured by at least one workload.
    assert never <= {"live.lag_bytes", "live.watermark_age_us"}, never


_DURATION = re.compile(rb"<(\d+\.\d{6})>\n")


def corrupt_one_duration(directory: Path) -> None:
    """Change the last digit of the first ``<dur>`` in the directory."""
    path = sorted(directory.iterdir())[0]
    data = path.read_bytes()
    match = _DURATION.search(data)
    digit = data[match.end(1) - 1] - ord("0")
    fixed = str((digit + 1) % 10).encode()
    path.write_bytes(data[:match.end(1) - 1] + fixed
                     + data[match.end(1):])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_duration_fails_ops(workload, tmp_path):
    out = tmp_path / "inputs"
    inputs.generate(workload, 5, out, inputs.TINY)
    corrupt_one_duration(out / inputs.SETS[workload][0])
    if workload == "elog-analysis":
        (out / "all.elog").unlink()
        inputs.convert_sets(out, inputs.SETS[workload])
    runner, _ = measure(workload, out, tmp_path / "work", 0.2, False,
                        "tiny")
    assert runner.attempted >= 1
    assert runner.failed > 0
    assert any("dur column differs" in p for p in runner.problems)


def digest_tree(directory: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        sha.update(path.name.encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(workload, tmp_path):
    first = inputs.generate(workload, 7, tmp_path / "a", inputs.TINY)
    again = inputs.generate(workload, 7, tmp_path / "b", inputs.TINY)
    other = inputs.generate(workload, 8, tmp_path / "c", inputs.TINY)
    assert digest_tree(tmp_path / "a") == digest_tree(tmp_path / "b")
    assert first == again
    assert digest_tree(tmp_path / "a") != digest_tree(tmp_path / "c")
    for name, shape in first["sets"].items():
        assert other["sets"][name]["files"] == shape["files"]
        assert abs(other["sets"][name]["events"] - shape["events"]) \
            <= 0.03 * shape["events"]


def test_paper_scale_checkpoint_shape_is_seed_stable(tmp_path):
    one = inputs.generate("live-checkpoint", 1, tmp_path / "a")["sets"]["C"]
    two = inputs.generate("live-checkpoint", 2, tmp_path / "b")["sets"]["C"]
    assert one["files"] == two["files"] == 100
    assert abs(one["events"] - two["events"]) <= 0.03 * one["events"]


def test_self_time_and_untraced_share():
    recorder = SpanRecorder()
    with recorder.op("compare"):
        with recorder.span("core.dfg"):
            with recorder.span("core.statistics"):
                pass
        with recorder.span("core.dfg"):
            pass
    with recorder.op("convert"):
        with recorder.span("core.dfg"):
            pass
    spans = recorder.spans
    self_times = recorder.self_times()
    assert [s.op for s in spans] == [0, 0, 0, 0, 1, 1]
    assert spans[2].parent == 1 and spans[1].parent == 0
    assert self_times[1] == pytest.approx(
        spans[1].end - spans[1].start - (spans[2].end - spans[2].start))
    per_op = recorder.per_op()
    assert per_op[0]["core.dfg"] == pytest.approx(
        self_times[1] + self_times[3])
    assert per_op[0]["untraced"] == pytest.approx(self_times[0])
    table = recorder.layer_table(["compare", "convert"])
    assert table["core.dfg"] == pytest.approx(per_op[0]["core.dfg"])
    assert 0 <= recorder.worst_untraced_share() <= 1


def test_tail_needs_ten_samples_beyond():
    assert tail([float(i) for i in range(19)]) == (9.0, "p50")
    assert tail([float(i) for i in range(1, 201)]) == (190.0, "p95")
    assert tail([float(i) for i in range(1, 1001)]) == (990.0, "p99")

"""Benchmark inputs as a pure function of ``(workload, seed)``.

Every trace comes from the repository's simulator, which writes the
exact text ``strace -f -tt -T -y`` writes. The simulator also keeps
the :class:`~repro.simulate.recording.SyscallRecord` it rendered each
line from; those records, filtered to the traced calls, are the
oracle's expected values (:mod:`perfbench.oracle`). They are produced
here, before any measured layer runs, and never by the code under
measurement.

Sets of traces (file and event counts at paper scale):

* ``A`` — the paper's experiment A (Sec. V-A): IOR SSF vs FPP, 96
  ranks on 2 nodes, read/write/open variants traced (192 files).
* ``B`` — experiment B (Sec. V-B): IOR POSIX vs MPI-IO on one shared
  file, lseek traced too (192 files).
* ``C`` — a checkpoint/restart job: 100 ranks, 20 steps of small
  shards, every call traced, so ``openat`` lines with quoted paths are
  a larger share of the text than in IOR (100 files).

In every set 10% of the calls are split into ``<unfinished ...>`` /
``<... resumed>`` pairs, which the merger must join. Generation runs
outside every timed region; ``run.py`` calls it in a child process
so the simulator's memory does not count toward ``peak_rss_mb``.

Run directly to generate one workload's inputs::

    PYTHONPATH=src python3 perfbench/inputs.py --workload ior-compare \\
        --seed 1 --out /tmp/inputs
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("ior-compare", "elog-analysis", "live-checkpoint")

#: Trace sets each workload reads.
SETS = {
    "ior-compare": ("A", "B"),
    "elog-analysis": ("A", "B", "C"),
    "live-checkpoint": ("C",),
}

#: Share of calls written as unfinished/resumed pairs.
UNFINISHED_SHARE = 0.1


@dataclass(frozen=True)
class Scale:
    """Size of the simulated runs."""

    ior_ranks: int
    ior_ranks_per_node: int
    ckpt_ranks: int
    ckpt_ranks_per_node: int
    ckpt_steps: int
    #: Polls per live replay (each appends 1/live_polls of every file).
    live_polls: int


#: The paper's scale (Sec. V: 96 ranks on 2 nodes).
PAPER = Scale(ior_ranks=96, ior_ranks_per_node=48, ckpt_ranks=100,
              ckpt_ranks_per_node=25, ckpt_steps=20, live_polls=200)
#: For the benchmark's self-tests.
TINY = Scale(ior_ranks=4, ior_ranks_per_node=2, ckpt_ranks=4,
             ckpt_ranks_per_node=2, ckpt_steps=3, live_polls=20)
SCALES = {"paper": PAPER, "tiny": TINY}


def derive_seed(seed: int, role: str) -> int:
    """A 32-bit seed for one simulated run, from the benchmark seed.

    Depends on ``role`` rather than the workload, so one seed yields
    the same experiment-A traces in every workload that reads them.
    """
    digest = hashlib.sha256(f"{seed}:{role}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _ior_runs(scale: Scale, experiment: str):
    """``(role, IORConfig kwargs)`` of the two runs of one experiment."""
    common = dict(ranks=scale.ior_ranks,
                  ranks_per_node=scale.ior_ranks_per_node)
    if experiment == "A":
        return [("ssf", dict(common, cid="ssf",
                             test_file="/p/scratch/ssf/test")),
                ("fpp", dict(common, cid="fpp", file_per_process=True,
                             test_file="/p/scratch/fpp/test",
                             base_rid=30000))]
    return [("posix", dict(common, cid="posix",
                           test_file="/p/scratch/ssf/test")),
            ("mpiio", dict(common, cid="mpiio", api="mpiio",
                           test_file="/p/scratch/ssf/test2",
                           base_rid=40000))]


def _simulate_set(name: str, scale: Scale, seed: int):
    """``[(recorders, trace_calls, role)]`` of one trace set."""
    from repro.simulate.filesystem import FSConfig
    from repro.simulate.strace_writer import (EXPERIMENT_A_CALLS,
                                              EXPERIMENT_B_CALLS)

    if name == "C":
        from repro.simulate.workloads.checkpoint import (
            CheckpointConfig, simulate_checkpoint)

        config = CheckpointConfig(
            ranks=scale.ckpt_ranks,
            ranks_per_node=scale.ckpt_ranks_per_node,
            steps=scale.ckpt_steps, shard_bytes=128 << 10,
            transfer_bytes=64 << 10, cid="ckpt",
            seed=derive_seed(seed, "ckpt"))
        result = simulate_checkpoint(
            config, FSConfig(seed=derive_seed(seed, "ckpt-fs")))
        return [(result.recorders, None, "ckpt")]
    from repro.simulate.workloads.ior import IORConfig, simulate_ior

    calls = EXPERIMENT_A_CALLS if name == "A" else EXPERIMENT_B_CALLS
    runs = []
    for role, kwargs in _ior_runs(scale, name):
        result = simulate_ior(
            IORConfig(seed=derive_seed(seed, role), **kwargs),
            FSConfig(seed=derive_seed(seed, f"{role}-fs")))
        runs.append((result.recorders, calls, role))
    return runs


def expected_columns(recorders, trace_calls) -> dict[str, dict]:
    """The oracle's expectation per case: what strace recorded.

    ``case id → {"call", "start", "dur", "size"}`` arrays, one entry
    per record of a traced call (strace's ``-e`` selection), sorted by
    start. ``size`` is -1 for calls that transfer no bytes.
    """
    expected = {}
    for recorder in recorders:
        records = [record for record in recorder.sorted_records()
                   if trace_calls is None or record.call in trace_calls]
        expected[recorder.case_id] = {
            "call": np.array([r.call for r in records], dtype=str),
            "start": np.array([r.start_us for r in records],
                              dtype=np.int64),
            "dur": np.array([r.dur_us for r in records], dtype=np.int64),
            "size": np.array([-1 if r.size is None else r.size
                              for r in records], dtype=np.int64),
        }
    return expected


def generate(workload: str, seed: int, out: Path,
             scale: Scale = PAPER) -> dict:
    """Write one workload's inputs under ``out``; return their shape.

    Layout: one directory of ``.st`` files per trace set
    (``out/A`` ...), ``out/expected.npz`` with the oracle's arrays
    (keys ``<set>/<case>/<column>``), ``out/all.elog`` for
    ``elog-analysis``, and ``out/inputs.json`` with the shape.
    """
    from repro.simulate.strace_writer import write_trace_files

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    shape = {"workload": workload, "seed": seed, "sets": {}}
    for name in SETS[workload]:
        directory = out / name
        n_files = n_events = n_bytes = 0
        for recorders, calls, role in _simulate_set(name, scale, seed):
            paths = write_trace_files(
                recorders, directory, trace_calls=calls,
                unfinished_probability=UNFINISHED_SHARE,
                seed=derive_seed(seed, f"{role}-split"))
            n_files += len(paths)
            n_bytes += sum(path.stat().st_size for path in paths)
            for case, columns in expected_columns(recorders,
                                                  calls).items():
                n_events += len(columns["start"])
                for column, values in columns.items():
                    arrays[f"{name}/{case}/{column}"] = values
        shape["sets"][name] = {"files": n_files, "events": n_events,
                               "bytes": n_bytes}
    np.savez(out / "expected.npz", **arrays)
    if workload == "elog-analysis":
        shape["elog_bytes"] = convert_sets(out, SETS[workload])
    (out / "inputs.json").write_text(json.dumps(shape, indent=1),
                                     encoding="utf-8")
    return shape


def convert_sets(out: Path, names) -> int:
    """Convert the trace sets into one ``.elog`` (``out/all.elog``)."""
    from repro.elstore import convert_source

    merged = out / "all-traces"
    merged.mkdir()
    for name in names:
        for path in sorted((out / name).iterdir()):
            shutil.copyfile(path, merged / path.name)
    convert_source(str(merged), out / "all.elog", workers=1)
    shutil.rmtree(merged)
    return (out / "all.elog").stat().st_size


def load_expected(out: Path) -> dict[str, dict[str, dict]]:
    """``set → case → column → array`` from ``expected.npz``."""
    result: dict[str, dict[str, dict]] = {}
    with np.load(out / "expected.npz") as data:
        for key in data.files:
            name, case, column = key.split("/")
            result.setdefault(name, {}).setdefault(case, {})[column] = \
                data[key]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--scale", choices=sorted(SCALES),
                        default="paper")
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out, SCALES[args.scale])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

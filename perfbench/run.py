"""Repo benchmark: simulator host cost and simulated outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: server_hot, slo_search, fleet_serve, fleet_fluid (see
``perfbench/README.md``). Every measurement runs in a fresh process
(``perfbench/child.py``), one at a time, so set-up time and peak RSS
belong to that process alone.

``--trace 0`` spends about ``S`` seconds: several set-up-only
processes, then as many whole executions of the workload's fixed task
as fit (at least two). It reports medians of the host-time metrics,
scaled to a reference host speed, and the deterministic simulated
outputs, which must repeat exactly across the executions. ``--trace 1`` runs the task untraced, with kernel
profiling only, and traced, and reports the per-layer metrics; every
count must agree between the three, and the Chrome trace lands in
``perfbench/out/``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The command exits non-zero
when a correctness or determinism check fails, and without a result
when the program under ``src/`` is missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"

#: Names the workloads and the metrics, with their units:
#: ``end_to_end`` for untraced runs, ``per_layer`` for traced ones.
SPEC = ROOT / "BENCHMARK.json"
#: Set-up-only processes per untraced run (set-up is sampled from
#: these and from every task process).
SETUP_SAMPLES = 8
#: Task executions per untraced run, at least.
MIN_TASKS = 2
#: Every process must be done by then (the whole command has 180 s).
DEADLINE_S = 170.0
#: Duration of one ``tracing.SpeedProbe`` loop at the reference speed:
#: its mean on the 2-core x86_64 VM (Python 3.11) the bounds were set
#: on. Each process's host times are scaled by this over the probe's
#: mean in the same stretch of time, so that host-speed drift cancels.
PROBE_LOOP_S = 1.15e-3

class Runner:
    """Spawns the child processes of one run, one at a time."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def _run(self, command: list, mode: str):
        """Run one process to its end; its last stdout line as JSON."""
        self.attempted += 1
        try:
            done = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True,
                timeout=max(self.remaining(), 1.0),
            )
        except subprocess.TimeoutExpired:
            self.failed += 1
            print(f"{mode} process timed out", file=sys.stderr)
            return None
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            self.failed += 1
            sys.stderr.write(done.stderr[-4000:])
            print(f"{mode} process exited with {done.returncode}", file=sys.stderr)
            return None
        for line in lines[:-1]:
            print(line)
        return json.loads(lines[-1])

    def spawn(self, mode: str):
        """Run one child process; its record, or None if it failed."""
        command = [sys.executable, str(CHILD), "--workload", self.workload,
                   "--seed", str(self.seed), "--mode", mode]
        spawned = time.monotonic()
        record = self._run(command, mode)
        if record is None:
            return None
        # Host times less the probe's own, and scaled to the reference
        # speed when the process sampled it.
        record["setup_s"] = record["first"] - spawned
        if "end" in record:
            record["wall_s"] = record["end"] - record["first"]
        for name, probe in (("setup_s", "setup_probe"), ("wall_s", "task_probe")):
            if probe in record:
                record[name] -= record[probe]["spent_s"]
                record[f"scaled_{name}"] = (
                    record[name] * PROBE_LOOP_S / record[probe]["mean_s"]
                )
        if record.get("failures"):
            self.failed += 1
            for failure in record["failures"]:
                print(f"check failed: {failure}", file=sys.stderr)
        return record

    def check_same(self, reference: dict, record: dict) -> None:
        """Deterministic outputs and kernel counts must repeat exactly
        across processes (compared where both processes have them)."""
        differing = []
        for part in ("outputs", "kernel"):
            if part not in reference or part not in record:
                continue
            ours, theirs = reference[part], record[part]
            # Only profiled processes report some outputs (the search's
            # settled share); kernel counts must match group for group.
            keys = set(ours) | set(theirs) if part == "kernel" else set(ours) & set(theirs)
            differing += [f"{part}.{key}" for key in sorted(keys)
                          if ours.get(key) != theirs.get(key)]
        if differing:
            self.failed += 1
            print(f"determinism check failed: {', '.join(differing)} differ "
                  f"between runs with seed {self.seed}", file=sys.stderr)


def measure(runner: Runner, seconds: float, units: dict) -> dict:
    """Untraced run: end-to-end metrics (medians over processes)."""
    setups = []
    for _ in range(SETUP_SAMPLES):
        record = runner.spawn("setup")
        if record is not None:
            setups.append(record)
    tasks = []
    while True:
        spawned = time.monotonic()
        record = runner.spawn("task")
        if record is None:
            break
        setups.append(record)
        if tasks:
            runner.check_same(tasks[0], record)
        tasks.append(record)
        # Start another execution only if it is likely to end in time.
        each = time.monotonic() - spawned
        elapsed = time.monotonic() - runner.start
        if len(tasks) >= MIN_TASKS and elapsed + each > seconds:
            break
        if 1.5 * each > runner.remaining():
            break
    if not tasks:
        return {}
    outputs = tasks[0]["outputs"]
    values = {
        "setup_s": statistics.median(r["scaled_setup_s"] for r in setups),
        "wall_s": statistics.median(r["scaled_wall_s"] for r in tasks),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in tasks),
        **{name: outputs[name] for name in units if name in outputs},
    }
    probe_ms = statistics.median(r["task_probe"]["mean_s"] for r in tasks) * 1e3
    print(f"== {runner.workload} seed {runner.seed}: {len(tasks)} task runs, "
          f"{len(setups)} set-ups")
    print(f"  host: unscaled setup {statistics.median(r['setup_s'] for r in setups):.4f} s, "
          f"wall {statistics.median(r['wall_s'] for r in tasks):.4f} s; "
          f"speed probe {probe_ms:.4f} ms (reference {PROBE_LOOP_S * 1e3} ms)")
    for name, unit in units.items():
        if name in values:
            note = ""
            if name in ("sim_p50_us", "sim_p99_us"):
                note = f"  ({outputs.get('sim_samples', 0)} post-warm-up samples)"
            print(f"  {name:<14} {values[name]:.6g} {unit}{note}")
    for name in sorted(set(outputs) - set(units)):
        print(f"  [{name}] {outputs[name]}")
    return values


def trace(runner: Runner) -> dict:
    """Traced run: per-layer metrics, plus the untraced run they pair with.

    A process with kernel profiling alone repeats the traced run's
    kernel counts, so those counts are checked for determinism too.
    """
    untraced = runner.spawn("task")
    profiled = runner.spawn("profiled") if untraced is not None else None
    traced = runner.spawn("traced") if profiled is not None else None
    if traced is None:
        return {}
    runner.check_same(untraced, profiled)
    runner.check_same(profiled, traced)
    values = dict(traced["layers"])
    values["sim.ns_per_event"] = (
        untraced["wall_s"] / untraced["outputs"]["sim_events"] * 1e9
    )
    values["trace.overhead_x"] = traced["wall_s"] / untraced["wall_s"]
    print(f"  sim.ns_per_event (untraced) {values['sim.ns_per_event']:.6g} ns")
    print(f"  trace.overhead_x {values['trace.overhead_x']:.4g}x "
          f"(traced {traced['wall_s']:.3f} s / untraced {untraced['wall_s']:.3f} s)")
    return values


def main() -> int:
    with open(SPEC) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    if args.trace:
        values = trace(runner)
    else:
        values = measure(runner, args.seconds, units)
    missing = [name for name in units if name not in values]
    if missing:
        runner.failed += 1
        print(f"metrics missing: {', '.join(missing)}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items() if name in values
        },
    }))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""One fresh benchmark process: set up a workload and run its task once.

Usage (from the root of a checkout; ``run.py`` spawns this)::

    python3 perfbench/child.py --workload NAME --seed N --mode MODE

``MODE`` is ``setup`` (exit at the first simulated arrival), ``task``
(untraced; these two sample the host's speed), ``profiled`` (kernel profiling and the request log on,
so the kernel counts can be compared with a traced run's) or
``traced`` (spans, cProfile, kernel profiling and the request log on).
The last stdout line is one JSON record for ``run.py``; a traced run
prints its per-layer tables above it and writes its spans as Chrome
trace-event JSON under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Layers only some workloads build; their metrics elsewhere are absent.
OPTIONAL_LAYERS = ("cluster", "faults", "obs", "serve")


def _import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"imported repro from {repro.__file__}, not {SRC}")


def _install_spans(spans, workloads_module) -> None:
    """Spans around each layer's public entry points."""
    import repro.server.driver as server_driver
    from repro.cluster import AdmissionController, SimulatedCluster
    from repro.cluster import balancer
    from repro.obs.telemetry import TelemetryBus
    from repro.serve import ServiceFacade, SimClock
    from repro.server import SimulatedServer
    from repro.sim import Environment

    def request_rid(_self, request, *args, **kwargs):
        return request.rid

    spans.patch(SimulatedServer, "__init__", "SimulatedServer.build", "server")
    spans.patch(SimulatedServer, "submit", "SimulatedServer.submit", "server",
                request_rid)
    spans.patch(Environment, "run", "Environment.run", "sim")
    spans.patch(server_driver, "run_experiment", "run_experiment", "server")
    spans.patch(server_driver, "max_throughput_search", "max_throughput_search",
                "server")
    spans.patch(SimulatedCluster, "submit", "SimulatedCluster.submit", "cluster",
                request_rid)
    for cls in vars(balancer).values():
        if isinstance(cls, type) and "pick" in cls.__dict__:
            spans.patch(cls, "pick", "LoadBalancer.pick", "cluster",
                        lambda _self, _machines, request: request.rid)
    spans.patch(AdmissionController, "decide", "AdmissionController.decide",
                "cluster", request_rid)
    spans.patch(ServiceFacade, "submit_nowait", "ServiceFacade.submit_nowait",
                "serve", adopt=True)
    spans.patch(SimClock, "advance_to", "SimClock.advance_to", "serve")
    spans.patch(TelemetryBus, "publish", "TelemetryBus.publish", "obs",
                lambda _self, event: getattr(event, "rid", None))
    spans.patch(workloads_module, "run_cluster", "run_cluster", "cluster")


def _log_requests(log: list) -> None:
    """Keep every request handed to a server (traced slo_search)."""
    from repro.server import SimulatedServer

    submit = SimulatedServer.__dict__["submit"]

    def logged_submit(self, request):
        log.append(request)
        return submit(self, request)

    SimulatedServer.submit = logged_submit


def _hw_orch(outcome) -> dict:
    transfers = 0.0
    wait_weighted = ops = 0.0
    for stats in outcome.hardware:
        transfers += stats["dma"]["transfers"]
        for accel in stats["accelerators"].values():
            ops += accel["ops_completed"]
            wait_weighted += accel["ops_completed"] * accel["mean_queue_wait_ns"]
    managers = [s["manager_utilization"] for s in outcome.orchestrators
                if "manager_utilization" in s]
    return {
        "hw.dma.transfers_per_req": (
            transfers / outcome.exact_completed if outcome.exact_completed else 0.0
        ),
        "hw.accel.queue_wait_us": wait_weighted / ops / 1e3 if ops else 0.0,
        "orchestration.fallbacks": sum(s["fallbacks"] for s in outcome.orchestrators),
        "orchestration.manager_util": (
            sum(managers) / len(managers) if managers else 0.0
        ),
    }


def layer_metrics(outcome, events, groups, peak, self_rows, spans) -> tuple:
    """Per-layer metrics of a traced run, and the names that are absent."""
    from tracing import layer_of_group

    served = outcome.served
    out = outcome.outputs
    arrivals = out.get("arrivals", 0)

    def per_req(value):
        return value / served if served else 0.0

    def per_arrival(value):
        return value / arrivals if arrivals else 0.0

    layer_events = {}
    for group, count in groups.items():
        layer = layer_of_group(group)
        layer_events[layer] = layer_events.get(layer, 0) + count

    metrics = {
        "sim.events_per_req": per_req(events),
        "sim.peak_queue": peak,
        "hw.events_per_req": per_req(layer_events.get("hw", 0)),
        "orchestration.events_per_req": per_req(layer_events.get("orchestration", 0)),
        **_hw_orch(outcome),
        "server.builds": out["server_builds"],
        "server.build_ms": spans.mean_us("SimulatedServer.build") / 1e3,
        "server.search.probes": out.get("probes", 0),
        "server.search.probe_reqs": out.get("probe_reqs", 0),
        "server.search.settled_share": out.get("settled_share", 0.0),
        "cluster.pick_us": spans.mean_us("LoadBalancer.pick"),
        "cluster.shed_share": per_arrival(out.get("shed", 0)),
        "cluster.lost": out.get("lost", 0),
        "cluster.rerouted": out.get("rerouted", 0),
        "cluster.health.ejections": out.get("health_ejections", 0),
        "cluster.fluid.fraction": per_arrival(out.get("fluid_absorbed", 0.0)),
        "cluster.fluid.steps": out.get("fluid_steps", 0),
        "faults.injected": out.get("faults_injected", 0),
        "faults.retries_per_req": per_req(out.get("fault_retries", 0)),
        "obs.bus.events_per_req": per_arrival(out.get("bus_published", 0)),
        "obs.bus.overwritten": out.get("bus_overwritten", 0),
        "obs.alerts_fired": out.get("alerts_fired", 0),
        "serve.submit_us": spans.mean_us("ServiceFacade.submit_nowait"),
        "serve.advance_per_req": per_arrival(out["advance_calls"]),
        "serve.censored": out.get("censored", 0),
    }
    for layer in ("sim", "hw", "orchestration", "core", "workloads",
                  "cluster", "faults", "obs", "serve"):
        metrics[f"{layer}.self_s"] = self_rows.get(layer, 0.0)

    absent = []
    for name in metrics:
        layer = name.split(".", 1)[0]
        # Self time is measured whatever the workload builds: a layer's
        # helpers may run without the layer being built.
        if name.endswith(".self_s") and metrics[name] > 0:
            continue
        if layer in OPTIONAL_LAYERS and layer not in outcome.layers:
            absent.append(name)
    if "probes" not in out:
        absent += [n for n in metrics if n.startswith("server.search.")]
    if "fluid_absorbed" not in out:
        absent += [n for n in metrics if n.startswith("cluster.fluid.")]
    if not any("manager_utilization" in s for s in outcome.orchestrators):
        absent.append("orchestration.manager_util")
    return metrics, sorted(set(absent))


def _print_tables(workload, rows, groups, metrics, absent) -> None:
    from tracing import layer_of_group

    total = sum(rows.values())
    print(f"== {workload}: traced self time by layer (cProfile, whole run)")
    small = []
    for row, value in sorted(rows.items(), key=lambda item: -item[1]):
        if value < 0.001 * total:
            small.append(value)
        else:
            print(f"  {row:<28} {value:9.3f} s  {100 * value / total:5.1f}%")
    print(f"  {f'{len(small)} rows under 0.1% each':<28} {sum(small):9.3f} s  "
          f"{100 * sum(small) / total:5.1f}%")
    print(f"  {'total':<28} {total:9.3f} s")
    events = sum(groups.values())
    print(f"== {workload}: processed kernel events by layer")
    by_layer = {}
    for group, count in groups.items():
        by_layer.setdefault(layer_of_group(group), []).append((count, group))
    for layer, items in sorted(by_layer.items(), key=lambda kv: -sum(c for c, _ in kv[1])):
        count = sum(c for c, _ in items)
        top = ", ".join(g for _, g in sorted(items, reverse=True)[:6])
        print(f"  {layer:<14} {count:10d}  {100 * count / events:5.1f}%  ({top})")
    print(f"== {workload}: per-layer metrics")
    for name in sorted(metrics):
        note = "  (absent: layer not built by this workload)" if name in absent else ""
        print(f"  {name:<32} {metrics[name]:.6g}{note}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "task", "profiled", "traced"),
                        required=True)
    args = parser.parse_args()
    # Host times of untraced processes are scaled by the host's speed,
    # sampled from before the imports to the end of the task.
    probe = None
    if args.mode in ("setup", "task"):
        from tracing import SpeedProbe

        probe = SpeedProbe()
        probe.start()
    begun = (0, 0.0)

    _import_program()
    import workloads
    from repro.cluster import SimulatedCluster
    from repro.serve import SimClock
    from repro.server import SimulatedServer
    from repro.sim import Environment
    from tracing import (
        EnvLedger,
        SpanRecorder,
        count_calls,
        install_first_arrival,
        self_time_by_layer,
    )

    workload = workloads.WORKLOADS[args.workload]
    traced = args.mode == "traced"
    profiled = args.mode in ("profiled", "traced")
    ledger = EnvLedger(Environment, profile=profiled)
    ledger.install()
    calls = {}
    count_calls(SimulatedServer, "__init__", calls, "server_builds")
    count_calls(SimClock, "advance_to", calls, "advance_calls")
    spans = SpanRecorder()
    request_log = None
    profiler = None
    if profiled and getattr(workload, "logs_requests", False):
        request_log = []
        _log_requests(request_log)
    if traced:
        _install_spans(spans, workloads)
        profiler = cProfile.Profile()
        profiler.enable()

    state = workload.setup(args.seed)
    marks = {}

    def on_first_arrival() -> None:
        marks["first"] = time.monotonic()
        if probe is not None:
            marks["probe"] = probe.mark()
        if args.mode == "setup":
            probe.stop()
            print(json.dumps({
                "first": marks["first"],
                "setup_probe": probe.period(begun, marks["probe"]),
            }), flush=True)
            os._exit(0)

    install_first_arrival(
        [(SimulatedServer, "submit"), (SimulatedCluster, "submit"),
         (SimulatedCluster, "submit_batch")],
        on_first_arrival,
    )
    if request_log is not None:
        outcome = workload.run(state, request_log=request_log)
    else:
        outcome = workload.run(state)
    end = time.monotonic()
    if probe is not None:
        at_end = probe.mark()
        probe.stop()
    if profiler is not None:
        profiler.disable()
    gc.collect()
    events, groups, peak = ledger.totals()
    outcome.outputs["sim_events"] = events
    outcome.outputs.update(calls)

    record = {
        "first": marks["first"],
        "end": end,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outcome.outputs,
        "failures": outcome.failures,
    }
    if probe is not None:
        record["setup_probe"] = probe.period(begun, marks["probe"])
        record["task_probe"] = probe.period(marks["probe"], at_end)
    if profiled:
        record["kernel"] = {"peak_queue": peak, **groups}
    if traced:
        import pstats

        rows = self_time_by_layer(
            pstats.Stats(profiler).stats, str(SRC), str(BENCH_DIR)
        )
        metrics, absent = layer_metrics(outcome, events, groups, peak, rows, spans)
        path = OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json"
        spans.write_chrome(str(path))
        _print_tables(args.workload, rows, groups, metrics, absent)
        print(f"== {workload.name}: {len(spans.tracer.spans)} spans written to "
              f"{path.relative_to(ROOT)} ({spans.tracer.dropped} dropped)")
        record["layers"] = metrics
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

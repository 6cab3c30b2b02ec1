"""Experiment driver: open-loop load generation and measurement runs.

The driver builds a :class:`SimulatedServer`, plays an arrival process
per service, and collects per-service latency distributions plus
hardware statistics. :func:`open_loop` is the one open-loop driver:
every measured run, here, in the chaos experiments and in the cluster,
starts its sources and its completion watcher through it, and ends by
the same drain rule (:func:`watch_completion`). Two deployment modes
match the paper's setups:

* dedicated — each service measured on its own server instance
  (Figures 11-14, 18-20); results are merged across services.
* colocated — all services share one server (the serverless study,
  Figure 16).

``run_unloaded`` executes requests one at a time (Figure 17 and the
SLO reference latencies), and ``max_throughput_search`` binary-searches
the highest per-service load whose P99 stays within the SLO (Fig 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..faults import FaultConfig
from ..hw.accelerator import QueuePolicy
from ..hw.params import MachineParams
from ..obs import ObsConfig
from ..sim import Process
from ..workloads.arrivals import make_arrivals
from ..workloads.calibration import (
    BranchProbabilities,
    OrchestrationCosts,
    RemoteLatencies,
)
from ..core.registry import TraceRegistry
from ..workloads.spec import ServiceSpec
from .machine import SimulatedServer
from .metrics import ExperimentResult, ServiceResult

__all__ = [
    "RunConfig",
    "make_server",
    "open_loop",
    "watch_completion",
    "run_experiment",
    "run_dedicated_service",
    "combine_dedicated",
    "run_unloaded",
    "max_throughput_search",
]

@dataclass(frozen=True)
class RunConfig:
    """Parameters of one measurement run."""

    architecture: str
    requests_per_service: int = 300
    seed: int = 0
    queue_policy: str = QueuePolicy.FIFO
    machine_params: Optional[MachineParams] = None
    #: "poisson" (Fig 12 sweeps) or "alibaba"/"azure" (MMPP bursty).
    arrival_mode: str = "alibaba"
    #: Overrides every service's own rate when set (RPS per service).
    rate_rps: Optional[float] = None
    rate_scale: float = 1.0
    #: True: all services share one server. False: one server each.
    colocated: bool = False
    warmup_fraction: float = 0.1
    #: Run at most this much simulated time past the last arrival: the
    #: drain starts when every source is done (see ``watch_completion``).
    drain_ns: float = 200e6
    #: Multiplies mean unloaded latency to set the per-request soft
    #: deadline when the EDF queue policy is active.
    slo_multiplier: float = 5.0
    #: Reference unloaded latency per service (for EDF deadlines).
    unloaded_reference_ns: Dict[str, float] = field(default_factory=dict)
    orch_costs: Optional[OrchestrationCosts] = None
    remotes: Optional[RemoteLatencies] = None
    branch_probs: Optional[BranchProbabilities] = None
    #: Custom trace catalogue (defaults to the standard T1-T12 set).
    registry: Optional[TraceRegistry] = None
    #: Observability switchboard (tracing / metrics / kernel profiling).
    #: Dedicated-mode runs create one server per service, each appending
    #: its own session to this config; use colocated or single-service
    #: runs for one consolidated trace.
    obs: Optional[ObsConfig] = None
    #: Fault injection + recovery knobs (None or all-zero rates = the
    #: fault-free simulator, bit for bit).
    faults: Optional[FaultConfig] = None


def make_server(config: RunConfig, seed_offset: int = 0) -> SimulatedServer:
    """The server a run of ``config`` measures (seed + ``seed_offset``)."""
    return SimulatedServer(
        config.architecture,
        machine_params=config.machine_params,
        registry=config.registry,
        seed=config.seed + seed_offset,
        queue_policy=config.queue_policy,
        orch_costs=config.orch_costs,
        remotes=config.remotes,
        branch_probs=config.branch_probs,
        obs=config.obs,
        faults=config.faults,
    )


def _arrivals_for(target, spec: ServiceSpec, config, shape):
    rate = config.rate_rps if config.rate_rps is not None else spec.rate_rps
    rate *= config.rate_scale
    stream = target.streams.stream(f"arrivals/{spec.name}")
    return make_arrivals(config.arrival_mode, rate, stream, **shape)


def _edf_budgets(config: RunConfig) -> Dict[str, float]:
    """Soft-deadline budget per service, under EDF queueing only."""
    if config.queue_policy != QueuePolicy.EDF:
        return {}
    return {
        name: config.slo_multiplier * reference
        for name, reference in config.unloaded_reference_ns.items()
        if reference
    }


def open_loop(
    target,
    services: List[ServiceSpec],
    config,
    shape: Optional[Dict[str, float]] = None,
    budgets_ns: Optional[Dict[str, float]] = None,
    settle=None,
) -> Tuple[Process, List]:
    """Start one open-loop run on ``target``; return ``(stop, in_flight)``.

    ``target`` is anything with ``env``, ``streams``, ``make_request``
    and ``submit``: a :class:`SimulatedServer` or a cluster. Each
    service gets one ``src-<service>`` source playing
    ``config.requests_per_service`` arrivals of ``config.arrival_mode``
    at its rate (``shape`` is the burst shape of the ``mmpp`` mode) and
    appending ``(request, process)`` to ``in_flight``. A service in
    ``budgets_ns`` stamps each request with the soft deadline arrival +
    budget (EDF queueing). ``stop`` is :func:`watch_completion`'s
    watcher: step the environment to it, and whatever is unfinished
    then is censored.
    """
    env = target.env
    budgets_ns = budgets_ns or {}
    in_flight: List = []
    sources = [
        env.process(
            _source(
                target,
                spec,
                _arrivals_for(target, spec, config, shape or {}),
                config.requests_per_service,
                budgets_ns.get(spec.name),
                in_flight,
            ),
            name=f"src-{spec.name}",
        )
        for spec in services
    ]
    return watch_completion(env, sources, in_flight, config.drain_ns, settle), in_flight


def _source(target, spec: ServiceSpec, arrivals, requests: int,
            budget_ns: Optional[float], in_flight: List):
    """Process: open-loop arrivals for one service."""
    env = target.env
    for _ in range(requests):
        yield env.timeout(arrivals.next_gap_ns())
        request = target.make_request(spec)
        if budget_ns is not None:
            request.slo_deadline_ns = env.now + budget_ns
        in_flight.append((request, target.submit(request)))


def watch_completion(env, sources: List[Process], in_flight: List,
                     drain_ns: float, settle=None) -> Process:
    """Start the watcher that ends an open-loop run (the drain rule).

    It waits for every source to finish, then until every submitted
    request completes or ``drain_ns`` passes, whichever comes first: the
    drain starts at the last arrival, and a source is never cut short.
    ``in_flight`` holds the sources' ``(request, process)`` pairs.
    ``settle``, given the all-completed event, is a generator function
    run as one more process that the run also waits for, within the
    same drain.
    """
    return env.process(_watch_completion(env, sources, in_flight, drain_ns, settle))


def _watch_completion(env, sources, in_flight, drain_ns, settle):
    for source in sources:
        yield source
    done = env.all_of([proc for _, proc in in_flight])
    if settle is not None:
        done = env.process(settle(done))
    yield env.any_of([done, env.timeout(drain_ns)])


def _run_on_server(
    server: SimulatedServer, services: List[ServiceSpec], config: RunConfig
) -> Dict[str, ServiceResult]:
    if server.bus is not None:
        from ..obs.telemetry import Marker

        server.bus.publish(
            Marker(
                t_ns=server.env.now,
                name="run-start",
                args={
                    "architecture": config.architecture,
                    "services": [spec.name for spec in services],
                    "requests_per_service": config.requests_per_service,
                },
            )
        )
    stop, in_flight = open_loop(
        server, services, config, budgets_ns=_edf_budgets(config)
    )
    server.env.run(until=stop)

    if server.bus is not None:
        from ..obs.telemetry import Marker

        completed = sum(1 for request, _ in in_flight if request.completed)
        server.bus.publish(
            Marker(
                t_ns=server.env.now,
                name="run-end",
                args={"submitted": len(in_flight), "completed": completed},
            )
        )
    results = {
        spec.name: ServiceResult(spec.name, warmup_fraction=config.warmup_fraction)
        for spec in services
    }
    for request, _process in in_flight:
        result = results[request.spec.name]
        if request.completed:
            result.record(request)
        else:
            result.record_censored(server.env.now - request.arrival_ns)
    return results


def run_dedicated_service(
    spec: ServiceSpec, config: RunConfig, seed_offset: int = 0
) -> Dict[str, object]:
    """Measure one service on its own server (one dedicated-mode cell).

    Returns a plain picklable dict so parallel experiment shards can
    ship it across process boundaries; :func:`combine_dedicated` folds
    any number of such cells back into an :class:`ExperimentResult`.
    """
    server = make_server(config, seed_offset=seed_offset)
    per_service = _run_on_server(server, [spec], config)
    return {
        "service": per_service[spec.name],
        "elapsed_ns": server.env.now,
        "hardware_stats": server.hardware.stats(),
        "orchestrator_stats": server.orchestrator.stats(),
        "utilizations": server.hardware.accelerator_utilizations(),
        "offered_rps": (config.rate_rps or spec.rate_rps) * config.rate_scale,
    }


def combine_dedicated(
    architecture: str, cells: Dict[str, Dict[str, object]]
) -> ExperimentResult:
    """Merge per-service dedicated cells (service name -> cell dict)."""
    return ExperimentResult(
        architecture=architecture,
        services={name: cell["service"] for name, cell in cells.items()},
        elapsed_ns=max((cell["elapsed_ns"] for cell in cells.values()), default=0.0),
        hardware_stats={
            "per_service": {
                name: cell["hardware_stats"] for name, cell in cells.items()
            }
        },
        orchestrator_stats={
            "per_service": {
                name: cell["orchestrator_stats"] for name, cell in cells.items()
            }
        },
        utilizations={
            name: cell["utilizations"] for name, cell in cells.items()
        },
        offered_rps={
            name: cell["offered_rps"] for name, cell in cells.items()
        },
    )


def run_experiment(
    services: List[ServiceSpec], config: RunConfig
) -> ExperimentResult:
    """Run one measurement; merges per-service servers unless colocated."""
    if config.colocated:
        server = make_server(config)
        return ExperimentResult(
            architecture=config.architecture,
            services=_run_on_server(server, services, config),
            elapsed_ns=server.env.now,
            hardware_stats=server.hardware.stats(),
            orchestrator_stats=server.orchestrator.stats(),
            utilizations=server.hardware.accelerator_utilizations(),
            offered_rps={
                spec.name: (config.rate_rps or spec.rate_rps) * config.rate_scale
                for spec in services
            },
        )

    cells = {
        spec.name: run_dedicated_service(spec, config, seed_offset=index)
        for index, spec in enumerate(services)
    }
    return combine_dedicated(config.architecture, cells)


def run_unloaded(
    architecture: str,
    spec: ServiceSpec,
    requests: int = 20,
    seed: int = 0,
    machine_params: Optional[MachineParams] = None,
    orch_costs: Optional[OrchestrationCosts] = None,
    remotes: Optional[RemoteLatencies] = None,
    registry: Optional[TraceRegistry] = None,
    obs: Optional[ObsConfig] = None,
) -> ServiceResult:
    """Run requests one at a time (no contention; Fig 17 methodology)."""
    server = SimulatedServer(
        architecture,
        machine_params=machine_params,
        registry=registry,
        seed=seed,
        orch_costs=orch_costs,
        remotes=remotes,
        obs=obs,
    )
    result = ServiceResult(spec.name, warmup_fraction=0.0)

    def closed_loop(env):
        for _ in range(requests):
            request = server.make_request(spec)
            yield server.submit(request)
            result.record(request)

    server.env.process(closed_loop(server.env))
    server.env.run()
    return result


def saturation_throughput(
    architecture: str,
    spec: ServiceSpec,
    requests: int = 300,
    seed: int = 0,
    machine_params: Optional[MachineParams] = None,
    queue_policy: str = QueuePolicy.FIFO,
    registry: Optional[TraceRegistry] = None,
) -> float:
    """Sustainable completion rate (RPS) under a closed burst.

    All requests arrive almost at once; the completion span measures the
    server's drain rate, i.e. its saturation throughput.
    """
    server = SimulatedServer(
        architecture,
        machine_params=machine_params,
        registry=registry,
        seed=seed,
        queue_policy=queue_policy,
    )
    in_flight = []

    def burst(env):
        for _ in range(requests):
            yield env.timeout(50.0)  # effectively simultaneous
            request = server.make_request(spec)
            in_flight.append((request, server.submit(request)))

    server.env.process(burst(server.env))
    server.env.run()
    last_completion = max(r.complete_ns for r, _ in in_flight)
    if last_completion <= 0:
        return 0.0
    return requests / (last_completion * 1e-9)


def max_throughput_search(
    architecture: str,
    spec: ServiceSpec,
    slo_ns: float,
    requests: int = 250,
    seed: int = 0,
    lo_rps: float = 200.0,
    hi_rps: Optional[float] = None,
    iterations: int = 7,
    machine_params: Optional[MachineParams] = None,
    queue_policy: str = QueuePolicy.FIFO,
    unloaded_reference_ns: Optional[float] = None,
    probe_duration_s: float = 0.05,
    probe_cap: int = 1500,
    registry: Optional[TraceRegistry] = None,
) -> float:
    """Highest per-service load (RPS) whose P99 stays within the SLO.

    Two phases: a closed burst measures the saturation throughput to
    bracket the search; duration-based open-loop probes then binary
    search the SLO knee. A probe violates the SLO when its P99 exceeds
    ``slo_ns`` or any request is still unfinished at the horizon.
    """
    if hi_rps is None:
        capacity = saturation_throughput(
            architecture,
            spec,
            requests=max(100, requests // 2),
            seed=seed,
            machine_params=machine_params,
            queue_policy=queue_policy,
            registry=registry,
        )
        hi_rps = max(capacity * 1.2, lo_rps * 2)

    def violates(rate: float) -> bool:
        probe_requests = int(
            min(probe_cap, max(requests, rate * probe_duration_s))
        )
        config = RunConfig(
            architecture=architecture,
            requests_per_service=probe_requests,
            seed=seed,
            arrival_mode="poisson",
            rate_rps=rate,
            machine_params=machine_params,
            queue_policy=queue_policy,
            drain_ns=20e6,
            registry=registry,
            unloaded_reference_ns=(
                {spec.name: unloaded_reference_ns} if unloaded_reference_ns else {}
            ),
        )
        result = run_experiment([spec], config)
        if result.total_censored() > 0:
            return True
        return result.p99_ns(spec.name) > slo_ns

    if violates(lo_rps):
        return lo_rps
    lo, hi = lo_rps, hi_rps
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        if violates(mid):
            hi = mid
        else:
            lo = mid
    return lo

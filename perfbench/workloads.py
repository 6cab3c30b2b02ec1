"""The four benchmark workloads, built only from public functions.

Each workload has a ``setup(seed)`` that runs before the first
simulated arrival and a ``run(state)`` that does the workload's fixed
task. ``run`` returns an :class:`Outcome`: the deterministic outputs
(simulated latencies, counts), the failed correctness checks, and the
public stats the per-layer metrics are read from. Why each workload
exists is in ``README.md`` beside this file.

Only ``repro.server``, ``repro.cluster``, ``repro.serve`` and the
layers beneath them are called: never ``repro.experiments.runner``, so
no result cache can serve a run.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import repro.server.driver as server_driver
from repro.cluster import (
    PROPORTIONAL,
    AdmissionConfig,
    ClusterConfig,
    FluidConfig,
    HealthConfig,
    MachineFailure,
    run_cluster,
)
from repro.faults import FaultConfig
from repro.obs import ObsConfig
from repro.obs.slo import SLOMonitorConfig, SLOTarget
from repro.serve import ServiceFacade
from repro.serve.replay import replay_trace, synthetic_trace
from repro.server import ServiceResult, SimulatedServer, run_unloaded
from repro.sim import derive_seed, percentile
from repro.workloads import MmppArrivals, social_network_services

#: Share of each sample list dropped as warm-up (the drivers' default).
WARMUP_FRACTION = 0.1
#: A pooled P99 must rest on this many post-warm-up samples, so that
#: at least ten fall beyond it.
MIN_SAMPLES = 1000
#: Allowed gap in the fluid tier's arrival balance: materialisation
#: rounds fractional mass to whole requests (floor + Bernoulli).
FLUID_ROUNDING = 0.05
#: Simulated time an open-loop cell may run past its expected arrival
#: span (the server driver's ``RunConfig.drain_ns``).
DRAIN_NS = 200e6


#: Layers every workload builds; the optional ones are added per workload.
BASE_LAYERS = ("sim", "hw", "orchestration", "core", "workloads", "server")


def _specs(names) -> list:
    catalog = {spec.name: spec for spec in social_network_services()}
    return [catalog[name] for name in names]


def _post_warmup(samples: List[float]) -> List[float]:
    return samples[int(len(samples) * WARMUP_FRACTION):]


@dataclass
class Outcome:
    """What one execution of a workload's task produced."""

    #: Deterministic outputs: identical on every run with one seed.
    outputs: Dict[str, float] = field(default_factory=dict)
    #: Failed correctness checks, one line each.
    failures: List[str] = field(default_factory=list)
    #: Public per-server stats dicts the hw/orchestration rows read.
    hardware: List[dict] = field(default_factory=list)
    orchestrators: List[dict] = field(default_factory=list)
    #: Requests completed by the runs ``hardware`` covers.
    exact_completed: int = 0
    #: Requests served over the whole workload (events/request base).
    served: float = 0.0
    #: The ``src/repro/<layer>`` packages the workload built.
    layers: tuple = BASE_LAYERS

    def pool(self, samples: List[float]) -> None:
        """Record the pooled P50/P99 of post-warm-up ``samples``."""
        ordered = sorted(samples)
        self.outputs["sim_samples"] = len(ordered)
        if len(ordered) < MIN_SAMPLES:
            self.failures.append(
                f"pooled P99 rests on {len(ordered)} post-warm-up samples "
                f"(< {MIN_SAMPLES})"
            )
        if not ordered:
            return
        self.outputs["sim_p50_us"] = percentile(ordered, 50.0) / 1e3
        self.outputs["sim_p99_us"] = percentile(ordered, 99.0) / 1e3

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def _ok_count(service_result) -> int:
    # ``error`` is set on every timed-out or lost request as well.
    return service_result.completed - service_result.errors


# ----------------------------------------------------------------------
# server_hot
# ----------------------------------------------------------------------
class ServerHot:
    """Dedicated servers per service, AccelFlow and RELIEF."""

    name = "server_hot"
    #: Architecture -> service -> requests. AccelFlow cells carry the
    #: gated latency outputs: together they give MIN_SAMPLES pooled
    #: post-warm-up samples, with ReadH (the middle latency) the largest
    #: share so the pooled median sits inside one service's
    #: distribution, and CPost (10x StoreP's host cost per request) the
    #: smallest. RELIEF cells measure its manager path's host cost and
    #: counters; their P99 is printed, not gated (it swings several-fold
    #: across seeds under MMPP bursts).
    requests = {
        "accelflow": {"CPost": 200, "ReadH": 560, "StoreP": 420},
        "relief": {"CPost": 30, "ReadH": 30, "StoreP": 30},
    }
    #: The Alibaba MMPP shape (``make_arrivals("alibaba")``: bursts at
    #: 5x the calm rate, 10% of the time) with 2 ms regimes instead of
    #: 20 ms. A cell spans 20-80 ms of simulated time, so at 20 ms it
    #: sees two or three regimes, and whether ReadH meets a long burst
    #: decides the pooled P99: 2.2 ms on most seeds, 3.2-3.5 ms on about
    #: one in eight. At 2 ms every cell sees tens of regimes.
    burst_factor = 5.0
    burst_share = 0.10
    mean_dwell_ns = 2e6

    def setup(self, seed: int):
        return {"seed": derive_seed(seed, self.name)}

    def run(self, state) -> Outcome:
        out = Outcome()
        arrivals = ok = 0
        gated: List[float] = []
        relief: List[float] = []
        goodput = 0.0
        for architecture, counts in self.requests.items():
            for index, spec in enumerate(_specs(counts)):
                count = counts[spec.name]
                server = SimulatedServer(architecture, seed=state["seed"] + index)
                result = self._serve(server, spec, count)
                out.check(
                    result.completed + result.censored == count,
                    f"{architecture}/{spec.name}: {count} arrivals but "
                    f"{result.completed} completed + {result.censored} censored",
                )
                arrivals += count
                ok += _ok_count(result)
                samples = _post_warmup(result.recorder.samples)
                if architecture == "accelflow":
                    gated += samples
                    goodput += _ok_count(result) / count * spec.rate_rps
                else:
                    relief += samples
                out.hardware.append(server.hardware.stats())
                out.orchestrators.append(server.orchestrator.stats())
                out.exact_completed += result.completed
        out.pool(gated)
        if relief:
            out.outputs["relief_p99_us"] = percentile(sorted(relief), 99.0) / 1e3
        out.outputs["arrivals"] = arrivals
        out.outputs["ok"] = ok
        out.outputs["availability"] = ok / arrivals
        out.outputs["sim_max_krps"] = goodput / 1e3
        out.served = out.exact_completed
        return out

    def _serve(self, server, spec, count: int) -> ServiceResult:
        """Open-loop MMPP arrivals of ``count`` requests to one server,
        run until all complete or the drain horizon (as the server
        driver's dedicated cells run)."""
        env = server.env
        arrivals = MmppArrivals(
            spec.rate_rps,
            server.streams.stream(f"arrivals/{spec.name}"),
            burst_factor=self.burst_factor,
            burst_share=self.burst_share,
            mean_dwell_ns=self.mean_dwell_ns,
        )
        in_flight = []

        def source(env):
            for _ in range(count):
                yield env.timeout(arrivals.next_gap_ns())
                request = server.make_request(spec)
                in_flight.append((request, server.submit(request)))

        def watch(env, source):
            yield source
            yield env.all_of([process for _, process in in_flight])

        feeder = env.process(source(env), name=f"src-{spec.name}")
        watcher = env.process(watch(env, feeder), name="_watch_completion")
        horizon_ns = count / spec.rate_rps * 1e9 + DRAIN_NS
        env.run(until=env.any_of([watcher, env.timeout(horizon_ns)]))
        result = ServiceResult(spec.name, warmup_fraction=WARMUP_FRACTION)
        for request, _ in in_flight:
            if request.completed:
                result.record(request)
            else:
                result.record_censored(env.now - request.arrival_ns)
        return result


# ----------------------------------------------------------------------
# slo_search
# ----------------------------------------------------------------------
def settled_requests(requests, slo_ns: float) -> int:
    """Requests of one probe simulated before its verdict was settled.

    A probe fails when its post-warm-up P99 exceeds ``slo_ns`` (or a
    request is censored, which is known only at the horizon). Once
    enough post-warm-up requests have spent longer than ``slo_ns`` in
    the system to force the interpolated P99 over it, the verdict can
    no longer change: that happens at the k-th smallest
    ``arrival + slo_ns`` among them. Everything arriving later was
    simulated in vain. A passing probe needs all of its requests.
    """
    post = requests[int(len(requests) * WARMUP_FRACTION):]
    m = len(post)
    if m == 0:
        return len(requests)
    need = m - int(math.floor(0.99 * (m - 1)))
    over = sorted(
        r.arrival_ns + slo_ns
        for r in post
        if not r.completed or r.latency_ns > slo_ns
    )
    if len(over) < need:
        return len(requests)
    settled_at = over[need - 1]
    return sum(1 for r in requests if r.arrival_ns <= settled_at)


@dataclass
class Probe:
    """One ``run_experiment`` call made by the throughput search."""

    service: str
    rate: float
    requests: int
    result: object
    #: The probe's requests in arrival order (traced runs only).
    logged: Optional[list]


class SloSearch:
    """``max_throughput_search`` for AccelFlow on two services.

    The SLO is fig14's (5x the unloaded mean), and so is the search's
    first phase (a closed-burst saturation measurement). The bracket is
    not: fig14 lets the search cap it at 1.2x the saturation throughput,
    where no probe of this size fails, so every bisection step passes
    and the knee is the cap. Here the benchmark measures the saturation
    throughput itself and passes ``hi_rps`` at ``bracket``x it, and each
    probe is long enough that an overloaded one builds a backlog and
    fails. The knee then lies inside the bracket. The bracket's bottom,
    ``lo_rps``, departs from fig14's too (see there).
    """

    name = "slo_search"
    architecture = "accelflow"
    #: SLO = 5x the unloaded mean (fig14). Service -> unloaded
    #: requests: enough that the reference is steady across seeds
    #: (UniqId's latency varies most and costs least).
    slo_multiplier = 5.0
    unloaded_requests = {"UniqId": 300, "CUrls": 100}
    #: Service -> requests in every probe (the probe cap as well, so
    #: each probe of a search is the same size). The two ``lo_rps``
    #: probes give the pooled latency outputs MIN_SAMPLES post-warm-up
    #: samples; the unequal split puts the pooled median near UniqId's own median
    #: (an even mix of two separated distributions puts it in the gap
    #: between them, where it flips from seed to seed).
    probe_requests = {"UniqId": 900, "CUrls": 300}
    #: Bracket top as a multiple of the closed-burst saturation
    #: throughput. UniqId's knee falls near 1x it and CUrls' near 2x,
    #: so UniqId's first probe, at 1.5x, overloads the server and its
    #: verdict settles well before its last request (``settled_share``
    #: below 1).
    bracket = 3.0
    #: Bisection steps: the knee to 1/32 of the bracket, 9% of the
    #: saturation throughput.
    iterations = 5
    #: Bracket bottom. fig14 uses 200 rps, where a probe's Poisson
    #: arrival span varies by more than the search's 20 ms drain, so
    #: the source can run up to the horizon and a request arriving just
    #: before it is still in flight there: the search then counts the
    #: first probe as an SLO violation and returns ``lo_rps`` as the
    #: knee (CUrls on seed 10). At 10 krps the span varies by under
    #: 2 ms, so no probe is cut at its horizon.
    lo_rps = 10000.0
    #: Profiled and traced runs hand ``run`` every request submitted to
    #: a server.
    logs_requests = True

    def setup(self, seed: int):
        state = {"specs": _specs(self.probe_requests), "seeds": {}, "slo_ns": {}}
        for spec in state["specs"]:
            sub_seed = derive_seed(seed, self.name, spec.name)
            state["seeds"][spec.name] = sub_seed
            unloaded = run_unloaded(
                self.architecture,
                spec,
                requests=self.unloaded_requests[spec.name],
                seed=sub_seed,
            )
            state["slo_ns"][spec.name] = self.slo_multiplier * unloaded.mean_ns()
        return state

    def run(self, state, request_log: Optional[list] = None) -> Outcome:
        """``request_log``, when given, collects each probe's requests
        (appended by a ``SimulatedServer.submit`` hook)."""
        out = Outcome()
        probes: List[Probe] = []
        original_probe = server_driver.run_experiment

        def probe(services, config):
            if request_log is not None:
                request_log.clear()
            result = original_probe(services, config)
            logged = list(request_log) if request_log is not None else None
            probes.append(Probe(services[0].name, config.rate_rps,
                                config.requests_per_service, result, logged))
            return result

        server_driver.run_experiment = probe
        burst_requests = 0
        try:
            knees = {}
            for spec in state["specs"]:
                requests = self.probe_requests[spec.name]
                seed = state["seeds"][spec.name]
                # The search's own first phase, with its default size.
                burst = max(100, requests // 2)
                capacity = server_driver.saturation_throughput(
                    self.architecture, spec, requests=burst, seed=seed
                )
                burst_requests += burst
                hi_rps = max(capacity * self.bracket, self.lo_rps * 2)
                first_probe = len(probes)
                knees[spec.name] = server_driver.max_throughput_search(
                    self.architecture,
                    spec,
                    slo_ns=state["slo_ns"][spec.name],
                    requests=requests,
                    seed=seed,
                    lo_rps=self.lo_rps,
                    hi_rps=hi_rps,
                    iterations=self.iterations,
                    probe_cap=requests,
                )
                self._check_knee(out, spec.name, knees[spec.name], state,
                                 probes[first_probe:], hi_rps)
        finally:
            server_driver.run_experiment = original_probe

        # The latency outputs come from each search's first probe, at
        # ``lo_rps``: it always runs to completion and must pass. (The
        # last passing probe's P99 lands anywhere below the SLO,
        # depending on where the bisection grid falls, so it is checked
        # against the SLO but not gated.)
        pooled: List[float] = []
        ok = arrivals = 0
        for spec in state["specs"]:
            first = [p for p in probes
                     if p.service == spec.name and p.rate == self.lo_rps]
            if first:
                result = first[0].result.services[spec.name]
                pooled += _post_warmup(result.recorder.samples)
                ok += _ok_count(result)
                arrivals += result.completed + result.censored
        out.pool(pooled)
        out.outputs["availability"] = ok / arrivals if arrivals else 0.0
        out.outputs["sim_max_krps"] = sum(knees.values()) / len(knees) / 1e3
        out.outputs["probes"] = len(probes)
        out.outputs["probe_reqs"] = sum(p.requests for p in probes)
        # Probes that violated the SLO, as the search judges them.
        out.outputs["failed_probes"] = sum(
            p.result.total_censored() > 0
            or p.result.p99_ns(p.service) > state["slo_ns"][p.service]
            for p in probes
        )
        for p in probes:
            result = p.result
            (per_service_hw,) = result.hardware_stats["per_service"].values()
            (per_service_orch,) = result.orchestrator_stats["per_service"].values()
            out.hardware.append(per_service_hw)
            out.orchestrators.append(per_service_orch)
            out.exact_completed += result.total_completed()
            # The driver stops a probe's source at its horizon, so fewer
            # than ``requests`` may arrive; a logged run counts them all.
            arrived = len(p.logged) if p.logged is not None else p.requests
            recorded = result.total_completed() + result.total_censored()
            out.check(
                recorded == arrived if p.logged is not None else recorded <= arrived,
                f"{p.service} probe at {p.rate:.0f} rps: {arrived} arrivals "
                f"but {result.total_completed()} completed + "
                f"{result.total_censored()} censored",
            )
        if request_log is not None:
            settled = sum(
                settled_requests(p.logged, state["slo_ns"][p.service])
                for p in probes
            )
            out.outputs["settled_share"] = settled / sum(len(p.logged) for p in probes)
        # Closed-loop unloaded references and capacity bursts run every
        # request to completion.
        out.served = (
            out.exact_completed
            + burst_requests
            + sum(self.unloaded_requests.values())
        )
        return out

    def _check_knee(self, out, name, knee, state, probes, hi_rps) -> None:
        out.check(
            self.lo_rps <= knee < hi_rps,
            f"{name}: knee {knee:.0f} rps outside the bracket "
            f"[{self.lo_rps:.0f}, {hi_rps:.0f})",
        )
        at_knee = [p for p in probes if p.rate == knee]
        if not at_knee:
            out.failures.append(f"{name}: no probe ran at the knee {knee:.0f} rps")
            return
        result = at_knee[-1].result
        p99 = result.p99_ns(name)
        out.check(
            result.total_censored() == 0 and p99 <= state["slo_ns"][name],
            f"{name}: P99 {p99 / 1e3:.1f} us at the knee exceeds the SLO "
            f"{state['slo_ns'][name] / 1e3:.1f} us (or requests were censored)",
        )


# ----------------------------------------------------------------------
# fleet_serve
# ----------------------------------------------------------------------
class FleetServe:
    """Unpaced façade replay of a chaos fleet with telemetry on."""

    name = "fleet_serve"
    services = ("UniqId", "StoreP", "CUrls")
    rate_rps = 30000.0
    requests = 600
    machines = 4
    slo_ns = 1e6
    #: MMPP regimes short against the trace, so one seed's burst
    #: placement does not decide the outcome.
    mmpp_dwell_ns = 0.5e6
    #: Machine 1 dies this far into the trace, and requests in flight
    #: on it are lost (no reroute): with proportional shedding capped
    #: at 15% this holds availability near 0.9, a partial outage.
    failure_at = 0.3

    def setup(self, seed: int):
        specs = _specs(self.services)
        trace = synthetic_trace(
            specs,
            mode="mmpp",
            rate_rps=self.rate_rps,
            requests_per_service=self.requests,
            seed=derive_seed(seed, self.name, "trace"),
            mean_dwell_ns=self.mmpp_dwell_ns,
        )
        slo = SLOMonitorConfig(
            targets=tuple(
                SLOTarget(service=name, availability=0.99, latency_ns=self.slo_ns)
                for name in self.services
            ),
            fast_window_ns=20e6,
            slow_window_ns=200e6,
            burn_threshold=2.0,
        )
        config = ClusterConfig(
            architecture="accelflow",
            policy="power-of-two",
            machines=self.machines,
            seed=derive_seed(seed, self.name, "fleet"),
            max_reroutes=0,
            admission=AdmissionConfig(
                slo_ns=self.slo_ns,
                mode=PROPORTIONAL,
                window=128,
                sustain_decisions=64,
                shed_step=0.05,
                max_shed_fraction=0.15,
            ),
            health=HealthConfig(),
            # Many short slow-but-alive windows: the tail rests on many
            # slowed requests, not on where a few long windows fall.
            faults=FaultConfig(
                gray_slowdown_interval_ns=1e6,
                gray_slowdown_ns=0.5e6,
                gray_slowdown_factor=4.0,
                gray_slowdown_max=64,
            ),
            failures=(MachineFailure(at_ns=self.failure_at * trace[-1][0], machine=1),),
            obs=ObsConfig(telemetry=True, slo=slo),
        )
        return {
            "specs": specs,
            "trace": trace,
            "config": config,
            "facade": ServiceFacade.build(specs, config),
        }

    def run(self, state) -> Outcome:
        out = Outcome(layers=BASE_LAYERS + ("cluster", "faults", "obs", "serve"))
        facade = state["facade"]
        config = state["config"]
        scorecard = asyncio.run(replay_trace(facade, state["trace"], drain_ns=200e6))
        folded = facade.fold(config)
        cluster = facade.cluster

        # Every arrival ends as exactly one of ok, shed, lost, censored.
        for key, expected in (
            ("submitted", folded.arrivals),
            ("shed", folded.shed),
            ("lost", folded.lost),
            ("censored", folded.total_censored()),
        ):
            out.check(
                scorecard[key] == expected,
                f"scorecard {key} {scorecard[key]} != fold {expected}",
            )
        completed = len([r for r in facade.responses if r.status == "ok"])
        out.check(
            completed == folded.completed,
            f"façade completions {completed} != fold {folded.completed}",
        )
        out.check(
            folded.completed + folded.shed + folded.lost + folded.total_censored()
            == folded.arrivals == len(state["trace"]),
            f"{len(state['trace'])} trace arrivals, fold counts "
            f"{folded.arrivals} = {folded.completed} ok + {folded.shed} shed + "
            f"{folded.lost} lost + {folded.total_censored()} censored",
        )

        ok = sorted(
            (r for r in facade.responses if r.ok),
            key=lambda r: (r.arrival_ns, r.rid),
        )
        out.pool(_post_warmup([r.latency_ns for r in ok]))
        availability = len(ok) / folded.arrivals
        offered = self.rate_rps * len(self.services)
        out.outputs.update({
            "arrivals": folded.arrivals,
            "ok": len(ok),
            "availability": availability,
            "sim_max_krps": availability * offered / 1e3,
            "shed": folded.shed,
            "lost": folded.lost,
            "rerouted": folded.rerouted,
            "censored": scorecard["censored"],
            "health_ejections": folded.health_stats["ejections"],
            "alerts_fired": scorecard["alerts_fired"],
            "bus_published": cluster.bus.published,
            "bus_overwritten": cluster.bus.overwritten,
        })
        _harvest_fleet(out, cluster)
        out.served = folded.completed
        return out


def _harvest_fleet(out: Outcome, cluster) -> None:
    """Per-machine public stats of a fleet."""
    injected = retries = 0
    for machine in cluster.machines:
        server = machine.server
        out.hardware.append(server.hardware.stats())
        out.orchestrators.append(server.orchestrator.stats())
        out.exact_completed += machine.completed
        if server.fault_plane is not None:
            injected += server.fault_plane.total_injected()
        recovery = server.orchestrator.recovery
        if recovery is not None:
            retries += recovery.step_retries + recovery.dma_retries
    out.outputs["faults_injected"] = injected
    out.outputs["fault_retries"] = retries


# ----------------------------------------------------------------------
# fleet_fluid
# ----------------------------------------------------------------------
class FleetFluid:
    """Batch ``run_cluster``: 10 machines, 9 on the batched fluid tier."""

    name = "fleet_fluid"
    services = ("UniqId", "StoreP", "Login")
    machines = 10
    rate_rps = 60000.0
    #: Only a few percent of arrivals reach the exact machine, so this
    #: many per service gives MIN_SAMPLES exact post-warm-up samples.
    requests = 36000

    def setup(self, seed: int):
        config = ClusterConfig(
            policy="round-robin",
            machines=self.machines,
            requests_per_service=self.requests,
            rate_rps=self.rate_rps,
            seed=derive_seed(seed, self.name),
            arrival_mode="poisson",
            fluid=FluidConfig(
                policy="static",
                fluid_machines=tuple(range(1, self.machines)),
                calibrate_requests=30,
                batched=True,
            ),
        )
        return {"specs": _specs(self.services), "config": config}

    def run(self, state) -> Outcome:
        out = Outcome(layers=BASE_LAYERS + ("cluster",))
        result = run_cluster(state["specs"], state["config"])
        fluid = result.fluid_stats
        fluid_mass = result.fluid_completed_mass()
        rounding = fluid["materialized"] - fluid["materialized_mass"]
        accounted = (
            result.completed + result.shed + result.lost + result.total_censored()
            + fluid_mass + fluid["residual_mass"] + fluid["lost_mass"] - rounding
        )
        out.check(
            abs(accounted - result.arrivals) <= FLUID_ROUNDING,
            f"{result.arrivals} arrivals but {accounted:.3f} accounted "
            f"(ok + shed + lost + censored + fluid mass)",
        )
        ok = sum(_ok_count(s) for s in result.services.values())
        out.pool(_post_warmup(result.recorder.samples))
        availability = (ok + fluid_mass) / result.arrivals
        offered = self.rate_rps * len(self.services)
        out.outputs.update({
            "arrivals": result.arrivals,
            "ok": ok,
            "fluid_mass": fluid_mass,
            "availability": availability,
            "sim_max_krps": availability * offered / 1e3,
            "shed": result.shed,
            "lost": result.lost,
            "fluid_absorbed": fluid["absorbed"],
            "fluid_steps": fluid["steps"],
        })
        _harvest_fleet(out, result.cluster)
        out.served = ok + fluid_mass
        return out


WORKLOADS = {w.name: w for w in (ServerHot(), SloSearch(), FleetServe(), FleetFluid())}

"""The request-level front door of the simulated fleet.

:class:`ServiceFacade` wraps a :class:`~repro.cluster.SimulatedCluster`
behind an asyncio request API: ``await facade.submit("UniqId")`` injects
an arrival at the cluster front door, lets the :class:`SimClock` pace
the kernel, and resolves with a :class:`Response` when the *matching*
:class:`~repro.obs.telemetry.RequestEnd` comes off the telemetry bus —
carrying shed / degraded / lost / failed outcomes, not just latencies.

The façade requires the cluster's streaming telemetry plane
(``ObsConfig(telemetry=True)``): terminal events are how responses are
matched (by front-door request id), which is also what makes the same
bus drive the live dashboard and SLO alerting during a soak run.

Determinism contract: with an unpaced clock (``dilation=inf``) nothing
here reads the wall clock and the submission order fully determines the
event order, so a façade-driven run is as reproducible as a batch
:func:`~repro.cluster.run_cluster` run.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cluster import ClusterConfig, SimulatedCluster, fold_cluster_result
from ..cluster.cluster import RequestStatus
from ..obs.telemetry import AdmissionEvent, RequestEnd, TelemetryEvent
from ..workloads.request import Request
from ..workloads.spec import ServiceSpec
from .clock import SimClock

__all__ = ["Response", "ServiceFacade", "build_scorecard"]

_SECOND_NS = 1e9

#: Terminal status of a request that was still unresolved when the
#: driver gave up waiting (the wall-clock analogue of a horizon cut).
CENSORED = "censored"


@dataclass(frozen=True)
class Response:
    """Outcome of one façade submission."""

    service: str
    #: ``"ok"`` / ``"shed"`` / ``"lost"`` / ``"fluid"`` / ``"censored"``.
    status: str
    #: Completed without error or timeout (sheds and losses are False).
    ok: bool
    latency_ns: float
    arrival_ns: float
    rid: int
    #: The front door admitted this request in degraded (brown-out) mode.
    degraded: bool = False
    error: bool = False
    timed_out: bool = False
    fell_back: bool = False


class ServiceFacade:
    """Async request API over one simulated cluster."""

    def __init__(
        self,
        cluster: SimulatedCluster,
        services: List[ServiceSpec],
        clock: Optional[SimClock] = None,
    ):
        if cluster.bus is None:
            raise ValueError(
                "ServiceFacade needs the streaming telemetry plane: build "
                "the cluster with ClusterConfig(obs=ObsConfig(telemetry=True))"
            )
        self.cluster = cluster
        self.env = cluster.env
        self.clock = clock if clock is not None else SimClock(
            cluster.env, dilation=float("inf")
        )
        self.specs: Dict[str, ServiceSpec] = {s.name: s for s in services}
        #: ``(service, arrival_ns, process)`` per submission — the same
        #: shape run_cluster folds, so :meth:`fold` can reuse it.
        self.sink: List[Tuple[Request, object]] = []
        self.submitted = 0
        self.responses: List[Response] = []
        #: rid -> (future, service, arrival_ns) for in-flight requests.
        self._waiters: Dict[int, Tuple[asyncio.Future, str, float]] = {}
        self._degraded: Dict[int, bool] = {}
        cluster.bus.subscribe(self._on_event, kinds=(RequestEnd, AdmissionEvent))

    @classmethod
    def build(
        cls,
        services: List[ServiceSpec],
        config: ClusterConfig,
        clock: Optional[SimClock] = None,
    ) -> "ServiceFacade":
        """Construct the cluster from ``config`` and wrap it."""
        return cls(SimulatedCluster(config), list(services), clock=clock)

    # -- bus intake --------------------------------------------------------
    def _on_event(self, event: TelemetryEvent) -> None:
        if isinstance(event, AdmissionEvent):
            if event.rid is not None and event.decision == "degrade":
                self._degraded[event.rid] = True
            return
        rid = event.rid
        if rid is None:
            return
        waiter = self._waiters.pop(rid, None)
        if waiter is None:
            return
        future = waiter[0]
        if future.done():
            return
        self._resolve(
            future,
            Response(
                service=event.service,
                status=event.status,
                ok=event.ok,
                latency_ns=event.latency_ns,
                arrival_ns=event.t_ns - event.latency_ns,
                rid=rid,
                degraded=self._degraded.pop(rid, False),
                error=event.error,
                timed_out=event.timed_out,
                fell_back=event.fell_back,
            ),
        )

    # -- submission --------------------------------------------------------
    def submit_nowait(
        self, service: str, payload: Optional[object] = None
    ) -> "asyncio.Future":
        """Inject one arrival now; the future resolves to a :class:`Response`.

        ``payload`` overrides the sampled wire size: an int is taken as
        bytes, ``bytes``/``str`` payloads contribute their length.
        Requires a running asyncio event loop.
        """
        spec = self.specs.get(service)
        if spec is None:
            raise KeyError(
                f"unknown service {service!r}; known: {sorted(self.specs)}"
            )
        request = self.cluster.make_request(spec)
        if payload is not None:
            if isinstance(payload, (bytes, str)):
                request.wire_size = max(len(payload), 1)
            else:
                request.wire_size = max(int(payload), 1)
        future = asyncio.get_running_loop().create_future()
        self._waiters[request.rid] = (future, service, request.arrival_ns)
        proc = self.cluster.submit(request)
        self.sink.append((request, proc))
        self.submitted += 1
        # Fallback terminal: a fluid-tier absorption ends the lifecycle
        # without a per-request RequestEnd on the bus.
        proc.callbacks.append(
            lambda event, rid=request.rid: self._on_proc_done(rid, event)
        )
        return future

    def _on_proc_done(self, rid: int, proc) -> None:
        waiter = self._waiters.pop(rid, None)
        if waiter is None:
            return
        future = waiter[0]
        if future.done():
            return
        if not proc.ok:
            return  # lifecycle crashed; the failure propagates from run()
        status, request = proc.value
        self._resolve(
            future,
            Response(
                service=request.spec.name,
                status=status,
                ok=False,
                latency_ns=float("nan"),
                arrival_ns=request.arrival_ns,
                rid=rid,
                degraded=self._degraded.pop(rid, False),
            ),
        )

    def _resolve(self, future: "asyncio.Future", response: Response) -> None:
        # Collect synchronously: an asyncio done-callback would only run
        # once the loop cycles, and an unpaced replay never yields to it
        # before folding the scorecard.
        self.responses.append(response)
        future.set_result(response)

    async def submit(
        self, service: str, payload: Optional[object] = None, drive: bool = True
    ) -> Response:
        """Submit one request and await its outcome.

        With ``drive=True`` (the default) the façade advances the sim —
        paced by its clock — until the response lands; pass
        ``drive=False`` when a separate pump task (the soak runner's
        open-loop injectors) is advancing the clock.
        """
        future = self.submit_nowait(service, payload)
        if drive:
            await self.drive_until(future.done)
            if not future.done():
                raise RuntimeError(
                    f"simulation ran out of events before request to "
                    f"{service!r} resolved"
                )
        return await future

    # -- driving -----------------------------------------------------------
    async def drive_until(
        self,
        done,
        horizon_ns: Optional[float] = None,
        quantum_ns: float = 0.0,
    ) -> bool:
        """Advance the sim until ``done()`` (or horizon).

        Steps event-by-event by default, so the sim stops exactly where
        the condition first holds; a positive ``quantum_ns`` advances in
        strides of at least that much sim time instead (much cheaper for
        bulk drains, at the cost of overshooting by up to one stride).
        Returns True when ``done()`` held, False when the calendar ran
        dry or the sim clock hit ``horizon_ns`` first.
        """
        env = self.env
        while not done():
            next_at = env.peek()
            if next_at == float("inf"):
                return done()
            target = max(next_at, env.now + quantum_ns) if quantum_ns else next_at
            if horizon_ns is not None and target > horizon_ns:
                if next_at > horizon_ns:
                    await self.clock.advance_to(horizon_ns)
                    return done()
                target = horizon_ns
            await self.clock.advance_to(target)
        return True

    async def drain(
        self, drain_ns: float = 200e6, horizon_ns: Optional[float] = None
    ) -> int:
        """Run until every pending submission resolves (bounded).

        Waits at most ``drain_ns`` past the current sim time (or to the
        explicit ``horizon_ns``); whatever is still unresolved is then
        finalized as censored. Returns the number censored.
        """
        deadline = (
            horizon_ns if horizon_ns is not None else self.env.now + drain_ns
        )
        await self.drive_until(
            lambda: not self._waiters, horizon_ns=deadline, quantum_ns=1e6
        )
        return self.finalize_pending()

    def finalize_pending(self) -> int:
        """Resolve every still-pending future as censored."""
        pending = list(self._waiters.items())
        self._waiters.clear()
        for rid, (future, service, arrival_ns) in pending:
            if future.done():
                continue
            self._resolve(
                future,
                Response(
                    service=service,
                    status=CENSORED,
                    ok=False,
                    latency_ns=float("nan"),
                    arrival_ns=arrival_ns,
                    rid=rid,
                    degraded=self._degraded.pop(rid, False),
                ),
            )
        return len(pending)

    # -- folding -----------------------------------------------------------
    def fold(self, config: ClusterConfig):
        """The standard :class:`~repro.cluster.ClusterResult` over
        everything submitted through the façade so far."""
        return fold_cluster_result(
            self.cluster, list(self.specs.values()), config, self.sink
        )


# ----------------------------------------------------------------------
# Scorecard
# ----------------------------------------------------------------------
def build_scorecard(
    responses: List[Response],
    elapsed_ns: float,
    alerts_fired: int = 0,
    title: str = "Serving scorecard",
) -> Dict[str, object]:
    """Fold façade responses into the fleet scorecard.

    Same fixed-width :func:`~repro.experiments.common.format_table`
    rendering as ``fig_campaign``; the headline footer carries the
    soak/replay acceptance numbers (achieved RPS, P99, availability,
    alert count). Deterministic for a deterministic response list.
    """
    from ..experiments.common import format_table
    from ..sim import summarize

    per_service: Dict[str, List[Response]] = {}
    for response in responses:
        per_service.setdefault(response.service, []).append(response)

    def _fold(name: str, group: List[Response]) -> List[object]:
        ok = [r for r in group if r.ok]
        latencies = [r.latency_ns for r in ok if math.isfinite(r.latency_ns)]
        stats = summarize(latencies)
        shed = sum(1 for r in group if r.status == RequestStatus.SHED)
        lost = sum(1 for r in group if r.status == RequestStatus.LOST)
        censored = sum(1 for r in group if r.status == CENSORED)
        degraded = sum(1 for r in group if r.degraded)
        avail = 100.0 * len(ok) / len(group) if group else 0.0
        rps = (
            len(ok) / (elapsed_ns * 1e-9) if elapsed_ns > 0 else 0.0
        )
        return [
            name,
            len(group),
            len(ok),
            shed,
            lost,
            censored,
            degraded,
            avail,
            stats.get("p50", 0.0) / 1e3,
            stats.get("p99", 0.0) / 1e3,
            rps,
        ]

    rows = [
        _fold(name, per_service[name]) for name in sorted(per_service)
    ]
    total_row = _fold("TOTAL", responses) if responses else None
    if total_row is not None and len(per_service) > 1:
        rows.append(total_row)
    table = format_table(
        [
            "Service",
            "Submitted",
            "OK",
            "Shed",
            "Lost",
            "Censored",
            "Degraded",
            "Avail%",
            "P50(us)",
            "P99(us)",
            "RPS",
        ],
        rows,
        title=title,
    )
    totals = total_row or ["TOTAL", 0, 0, 0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0]
    headline = (
        f"Achieved RPS {totals[10]:,.1f}  P99 {totals[9]:,.1f} us  "
        f"availability {totals[7]:.1f}%  alerts fired {alerts_fired}"
    )
    table += "\n\n" + headline
    return {
        "table": table,
        "submitted": totals[1],
        "ok": totals[2],
        "shed": totals[3],
        "lost": totals[4],
        "censored": totals[5],
        "degraded": totals[6],
        "availability": totals[7] / 100.0,
        "p50_us": totals[8],
        "p99_us": totals[9],
        "achieved_rps": totals[10],
        "alerts_fired": alerts_fired,
        "elapsed_ns": elapsed_ns,
    }

"""Server assembly, experiment driver and metrics."""

from .driver import (
    RunConfig,
    combine_dedicated,
    make_server,
    max_throughput_search,
    open_loop,
    run_dedicated_service,
    run_experiment,
    run_unloaded,
    saturation_throughput,
)
from .machine import SimulatedServer
from .metrics import ExperimentResult, ServiceResult, energy_summary
from ..workloads.request import Buckets, Request

__all__ = [
    "Buckets",
    "ExperimentResult",
    "Request",
    "RunConfig",
    "ServiceResult",
    "SimulatedServer",
    "combine_dedicated",
    "energy_summary",
    "make_server",
    "max_throughput_search",
    "open_loop",
    "run_dedicated_service",
    "run_experiment",
    "saturation_throughput",
    "run_unloaded",
]

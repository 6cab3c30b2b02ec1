"""The open-loop driver's drain rule.

A run ends when every submitted request has completed, or ``drain_ns``
after the last arrival. The drain never starts before the last arrival:
a horizon counted from the *expected* arrival span stops slow Poisson
sources early and censors requests that arrived just before it, which
made the throughput search reject its own bracket bottom.
"""

from repro.server import RunConfig, max_throughput_search, run_experiment, run_unloaded
from repro.sim import derive_seed
from repro.workloads import social_network_services

CURLS = next(s for s in social_network_services() if s.name == "CUrls")


def test_low_rate_probe_receives_every_arrival():
    config = RunConfig(
        architecture="accelflow",
        requests_per_service=300,
        seed=derive_seed(0, "slo_search", "CUrls"),
        arrival_mode="poisson",
        rate_rps=200.0,
        drain_ns=20e6,
    )
    result = run_experiment([CURLS], config).services["CUrls"]
    assert result.completed + result.censored == 300
    assert result.censored == 0


def test_search_passes_its_bracket_bottom():
    seed = derive_seed(10, "slo_search", "CUrls")
    unloaded = run_unloaded("accelflow", CURLS, requests=100, seed=seed)
    knee = max_throughput_search(
        "accelflow",
        CURLS,
        slo_ns=5.0 * unloaded.mean_ns(),
        requests=300,
        seed=seed,
        lo_rps=200.0,
        iterations=1,
    )
    assert knee > 200.0

"""Measurement plumbing that wraps the simulator from outside.

Nothing here edits ``src/``. Every hook is a wrapper installed on a
public class or module attribute for the lifetime of one benchmark
process:

* :class:`EnvLedger` sums ``Environment.scheduled_events`` over every
  environment a workload builds, and in traced runs turns on the
  kernel's own ``enable_profiling()`` for each of them.
* :func:`install_first_arrival` marks the host time of the first
  simulated arrival (the end of set-up) and then removes itself.
* :class:`SpanRecorder` keeps host-time spans around calls into each
  layer's public entry points and writes them, through the program's
  own span tracer and exporter, as Chrome trace-event JSON that
  Perfetto loads.
* :func:`count_calls` counts calls of a public method in every mode.
* :class:`SpeedProbe` samples the host's speed while the program runs,
  so that host times can be scaled to a reference speed.
* :func:`self_time_by_layer` folds a cProfile run into one row per
  ``src/repro/<layer>/`` package, plus named rows for builtins and the
  standard library, so the rows add up to the whole profiled time.
"""

from __future__ import annotations

import functools
import inspect
import os
import signal
import statistics
import sysconfig
import time
import weakref
from typing import Callable, Dict, List, Tuple

#: Kernel process-name group (``KernelProfile.by_process`` key) -> layer.
#: A group is a process name with trailing digits and dashes stripped,
#: or the generator's function name for an unnamed process; callbacks
#: that belong to no process are keyed by event class name. The layer
#: is the ``src/repro/<layer>/`` package whose file defines the process.
GROUP_LAYERS: Dict[str, str] = {
    # hw: DMA/NoC/placement legs, TLB and IOMMU, ATM, CPU cores.
    "transfer": "hw",
    "translate": "hw",
    "walk": "hw",
    "read": "hw",
    "execute": "hw",
    "handle_interrupt": "hw",
    # orchestration: request execution, chains, manager retire hooks.
    "req": "orchestration",
    "run_chain": "orchestration",
    "_run_arm": "orchestration",
    "_retire": "orchestration",
    # drivers (server/driver.py and cluster/driver.py share names).
    "_watch_completion": "driver",
    "closed_loop": "driver",
    "burst": "driver",
    # cluster: front-door lifecycles and control-plane processes.
    "clreq": "cluster",
    "machine-failure": "cluster",
    "autoscaler": "cluster",
    "health-prober": "cluster",
    # sim: the fluid stepper (sim/fluid.py) and kernel-internal
    # callbacks (conditions, stop hooks, bare timeouts).
    "fluid-stepper": "sim",
    "Process": "sim",
    "Timeout": "sim",
    "Initialize": "sim",
    "Event": "sim",
    "Condition": "sim",
    "AllOf": "sim",
    "AnyOf": "sim",
    # obs: the metrics sampler.
    "obs-metrics": "obs",
}

#: Prefix rules for groups that carry a kind or a service in their name.
GROUP_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("in-dispatch-", "hw"),
    ("step-", "orchestration"),
    ("src-", "driver"),
    ("fault-", "faults"),
)

#: Accelerator PE processes are named ``<kind>-pe<index>``.
PE_SUFFIX = "-pe"


def layer_of_group(group: str) -> str:
    """The layer a kernel process group belongs to (``other`` if unknown)."""
    layer = GROUP_LAYERS.get(group)
    if layer is not None:
        return layer
    if group.endswith(PE_SUFFIX):
        return "hw"
    for prefix, layer in GROUP_PREFIXES:
        if group.startswith(prefix):
            return layer
    return "other"


class EnvLedger:
    """Counts kernel work over every :class:`Environment` ever built.

    Live environments are read at :meth:`totals` time; collected ones
    hand their counters over in ``__del__``, so the ledger never keeps a
    finished simulation (and its memory) alive.
    """

    def __init__(self, env_cls, profile: bool):
        self.env_cls = env_cls
        self.profile = profile
        self._live: "weakref.WeakSet" = weakref.WeakSet()
        self._dead_events = 0
        self._dead_groups: Dict[str, int] = {}
        self._dead_peak = 0

    def install(self) -> None:
        cls = self.env_cls
        original_init = cls.__init__
        ledger = self

        @functools.wraps(original_init)
        def __init__(env, *args, **kwargs):
            original_init(env, *args, **kwargs)
            ledger._live.add(env)
            if ledger.profile:
                env.enable_profiling()

        def __del__(env):
            ledger._absorb(env)

        cls.__init__ = __init__
        cls.__del__ = __del__

    def _absorb(self, env) -> None:
        self._dead_events += env.scheduled_events
        profile = env.profile
        if profile is not None:
            self._dead_peak = max(self._dead_peak, profile.peak_queue)
            for group, row in profile.by_process.items():
                self._dead_groups[group] = (
                    self._dead_groups.get(group, 0) + int(row["events"])
                )

    def totals(self) -> Tuple[int, Dict[str, int], int]:
        """(scheduled events, processed events per group, peak queue)."""
        events = self._dead_events
        groups = dict(self._dead_groups)
        peak = self._dead_peak
        for env in list(self._live):
            events += env.scheduled_events
            profile = env.profile
            if profile is not None:
                peak = max(peak, profile.peak_queue)
                for group, row in profile.by_process.items():
                    groups[group] = groups.get(group, 0) + int(row["events"])
        return events, groups, peak


def install_first_arrival(
    targets: List[Tuple[type, str]], on_first: Callable[[], None]
) -> None:
    """Call ``on_first`` at the first call of any target method, once.

    The hook restores every original method on that first call, so the
    measured run pays for it exactly once.
    """
    saved = [(owner, name, owner.__dict__[name]) for owner, name in targets]

    def restore() -> None:
        for owner, name, function in saved:
            setattr(owner, name, function)

    for owner, name, function in saved:

        def hook(*args, _function=function, **kwargs):
            restore()
            on_first()
            return _function(*args, **kwargs)

        setattr(owner, name, hook)


class HostClock:
    """Host nanoseconds since construction, read as ``now``.

    A :class:`~repro.obs.span.SpanTracer` reads the current time from
    its environment's ``now``; this stands in for the environment when
    the spans measure host time instead of simulated time.
    """

    def __init__(self):
        self.origin = time.perf_counter_ns()

    @property
    def now(self) -> int:
        return time.perf_counter_ns() - self.origin


class SpanRecorder:
    """Host-time spans around layer entry points, keyed by request id.

    Finished spans go to a :class:`~repro.obs.span.SpanTracer`, one
    track per layer, which :func:`repro.obs.export.write_chrome_trace`
    writes as Chrome trace-event JSON. The recorder itself keeps the
    stack of open spans, so that each span names its parent and a
    front-door span that creates its request (``adopt``) takes the id of
    the first child span that reports one, plus per-name call counts
    and total host time.
    """

    def __init__(self, max_spans: int = 5_000_000):
        from repro.obs.span import SpanTracer

        self.clock = HostClock()
        self.tracer = SpanTracer(self.clock, max_spans=max_spans)
        #: Open spans: [name, layer, start_ns, rid, adopt, id, parent id].
        self._stack: List[list] = []
        self._opened = 0
        self.counts: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}

    def _open(self, name: str, layer: str, rid, adopt: bool) -> list:
        parent = self._stack[-1][5] if self._stack else None
        frame = [name, layer, self.clock.now, rid, adopt, self._opened, parent]
        self._opened += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = self.clock.now
        self._stack.pop()
        name, layer, start, rid, _adopt, span_id, parent = frame
        self.counts[name] = self.counts.get(name, 0) + 1
        self.total_ns[name] = self.total_ns.get(name, 0) + end - start
        if rid is not None and self._stack:
            outer = self._stack[-1]
            if outer[4] and outer[3] is None:
                outer[3] = rid
        args = {"span": span_id, "parent": parent}
        if rid is not None:
            args["rid"] = rid
        self.tracer.complete(name, layer, start, end, cat=layer, args=args)

    def wrap(self, function, name: str, layer: str, rid_of=None, adopt=False):
        """A wrapper that records one span per call of ``function``."""
        recorder = self
        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def async_wrapper(*args, **kwargs):
                frame = recorder._open(name, layer, None, adopt)
                try:
                    return await function(*args, **kwargs)
                finally:
                    recorder._close(frame)

            return async_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            rid = rid_of(*args, **kwargs) if rid_of is not None else None
            frame = recorder._open(name, layer, rid, adopt)
            try:
                return function(*args, **kwargs)
            finally:
                recorder._close(frame)

        return wrapper

    def patch(self, owner, attr: str, name: str, layer: str, rid_of=None,
              adopt=False):
        """Replace ``owner.attr`` with its span-recording wrapper."""
        setattr(owner, attr, self.wrap(_attribute(owner, attr), name, layer,
                                       rid_of, adopt))

    def mean_us(self, name: str) -> float:
        count = self.counts.get(name, 0)
        return self.total_ns.get(name, 0) / count / 1e3 if count else 0.0

    def write_chrome(self, path: str) -> None:
        """Chrome trace-event JSON (Perfetto / chrome://tracing)."""
        from repro.obs.export import write_chrome_trace

        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_chrome_trace(self.tracer, path)


def _attribute(owner, attr: str):
    """``owner.attr`` as defined on ``owner`` itself (class or module)."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def count_calls(owner, attr: str, counts: Dict[str, int], key: str) -> None:
    """Count the calls of ``owner.attr`` into ``counts[key]``.

    Installed in every mode, so the counts are outputs that must repeat
    across processes like any other deterministic output.
    """
    function = _attribute(owner, attr)
    counts.setdefault(key, 0)
    if inspect.iscoroutinefunction(function):

        @functools.wraps(function)
        async def async_counted(*args, **kwargs):
            counts[key] += 1
            return await function(*args, **kwargs)

        setattr(owner, attr, async_counted)
        return

    @functools.wraps(function)
    def counted(*args, **kwargs):
        counts[key] += 1
        return function(*args, **kwargs)

    setattr(owner, attr, counted)


class SpeedProbe:
    """Samples the host's speed while the program runs.

    The shared host this benchmark was built on changes speed by up to
    2x within seconds and by a third over tens of minutes, and every
    kind of work slows down together. So every ``INTERVAL_S`` of real
    time a ``SIGALRM`` handler times a fixed arithmetic loop. The loop
    allocates nothing the garbage collector tracks and touches no
    program state, so the program cannot move it, and it runs in the
    same stretches of time as the program. Its mean duration over a
    period measures the host's speed over that period; its total is
    subtracted from the period's host time.
    """

    INTERVAL_S = 0.05
    LOOP = 20_000

    def __init__(self):
        self.samples: List[float] = []
        self.spent = 0.0

    def _tick(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(self.LOOP):
            total += i & 7
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def start(self) -> None:
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self) -> Tuple[int, float]:
        return len(self.samples), self.spent

    def period(self, since: Tuple[int, float], until: Tuple[int, float]) -> dict:
        """Samples taken and probe time spent between two marks."""
        taken = self.samples[since[0]:until[0]] or self.samples[-1:]
        return {
            "mean_s": statistics.fmean(taken),
            "samples": len(taken),
            "spent_s": until[1] - since[1],
        }


def _builtin_row(function_name: str) -> str:
    """A named row for a C function as cProfile labels it."""
    # "<built-in method _heapq.heappush>" / "<method 'append' of 'list' objects>"
    text = function_name.strip("<>{}")
    if text.startswith("built-in method "):
        qualified = text[len("built-in method "):]
        module = qualified.rsplit(".", 1)[0] if "." in qualified else "builtins"
        return f"builtins:{module}"
    if text.startswith("method ") and " of '" in text:
        owner = text.split(" of '", 1)[1].split("'", 1)[0]
        return f"builtins:{owner}"
    return "builtins:other"


def self_time_by_layer(
    profile_stats: Dict, src_dir: str, bench_dir: str
) -> Dict[str, float]:
    """Sum cProfile self time per layer row; rows cover the whole run."""
    stdlib = os.path.realpath(sysconfig.get_paths()["stdlib"])
    src_dir = os.path.realpath(src_dir)
    bench_dir = os.path.realpath(bench_dir)
    rows: Dict[str, float] = {}
    for (filename, _line, function_name), stat in profile_stats.items():
        self_s = stat[2]
        if filename == "~":
            row = _builtin_row(function_name)
        else:
            path = os.path.realpath(filename)
            if path.startswith(src_dir + os.sep):
                parts = os.path.relpath(path, src_dir).split(os.sep)
                # repro/<layer>/<module>.py, or a module directly in repro/.
                row = parts[1] if len(parts) > 2 else "repro"
            elif path.startswith(bench_dir + os.sep):
                row = "perfbench"
            elif path.startswith(stdlib + os.sep):
                module = os.path.relpath(path, stdlib).split(os.sep)[0]
                row = "stdlib:" + module.removesuffix(".py")
            else:
                row = "other"
        rows[row] = rows.get(row, 0.0) + self_s
    return rows

"""Outside-in layer timers for the traced benchmark run.

The program is not edited: :func:`install` replaces the public
functions each layer exposes with wrappers that time every call and
count it.  Wrappers nest through one stack, so each layer gets both an
inclusive time and a *self* time (its duration minus the wrapped calls
beneath it).  The sum of all self times is the time spent inside
wrapped calls; whatever the traced wall time holds beyond that is
reported as ``unattributed_s``.

Everything runs in the calling process.  Pool workers would inherit
the wrappers through ``fork`` but their totals would die with them, so
the traced run keeps every workload in one process (``workers=1``).
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List


class LayerClock:
    """Per-layer inclusive time, self time and call count."""

    def __init__(self) -> None:
        self.incl: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.extra: Dict[str, float] = {}
        # one frame per open call: [layer, time spent in wrapped children]
        self._stack: List[list] = []

    def record(self, layer: str, seconds: float) -> None:
        """Book a call timed outside any wrapper (e.g. an import)."""
        self._add(layer, seconds, seconds)

    def _add(self, layer: str, incl: float, own: float) -> None:
        self.incl[layer] = self.incl.get(layer, 0.0) + incl
        self.self_s[layer] = self.self_s.get(layer, 0.0) + own
        self.calls[layer] = self.calls.get(layer, 0) + 1

    def wrap(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [layer, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dt
                self._add(layer, dt, dt - frame[1])

        return timed


def _patch(clock: LayerClock, owner, attr: str, layer: str) -> None:
    setattr(owner, attr, clock.wrap(layer, getattr(owner, attr)))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _routing_wrapper(clock: LayerClock, fn: Callable) -> Callable:
    """``build_routing`` booked under ``faults.routing_build`` when the
    spec carries a fault axis, else under ``routing.build``."""
    healthy = clock.wrap("routing.build", fn)
    degraded = clock.wrap("faults.routing_build", fn)

    def build_routing(spec, system):
        return (degraded if spec.faults else healthy)(spec, system)

    return build_routing


def install(clock: LayerClock) -> None:
    """Wrap every layer boundary the benchmark traces (once per process).

    Module-level functions are patched in each module that bound them
    by name, because ``from x import f`` copies the reference.
    """
    from repro.api import scenario
    from repro.engine import executor, spec
    from repro.metrics import probes  # noqa: F401  (registers the kinds)
    from repro.metrics.probe import Probe
    from repro.network import native
    from repro.service.client import ServiceClient
    from repro.workload import driver

    _patch(clock, scenario.Study, "run", "api.run")
    _patch(clock, scenario, "run_experiments", "engine.run")

    for mod in (spec, executor):
        _patch(clock, mod, "build_system", "topology.build")
        _patch(clock, mod, "build_experiment", "traffic.build")
        mod.build_routing = _routing_wrapper(clock, mod.build_routing)

    _patch(clock, native.NativeBatch, "__init__", "network.prepare")
    _patch(clock, native.NativeBatch, "run", "network.resolve")
    lib = native.load_native()
    if lib is not None:
        kernel = lib.sim_run_batch

        def sim_run_batch(states, n, threads, _fn=kernel):
            clock.extra["network.kernel_lanes"] = (
                clock.extra.get("network.kernel_lanes", 0) + int(n)
            )
            return _fn(states, n, threads)

        lib.sim_run_batch = clock.wrap("network.kernel", sim_run_batch)

    _patch(clock, driver, "run_closed_loop", "workload.closed_loop")
    _patch(clock, driver.PhasePlan, "__init__", "workload.plan")
    for cls in (Probe, *_subclasses(Probe)):
        if "collect" in vars(cls):
            _patch(clock, cls, "collect", "metrics.probe_collect")

    _patch(clock, ServiceClient, "submit_study", "service.submit")
    _patch(clock, ServiceClient, "watch", "service.watch")

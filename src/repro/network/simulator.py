"""Cycle-accurate flit-level network simulator with virtual channels.

This is the reproduction's substitute for CNSim [72]: an input-buffered,
credit-flow-controlled, wormhole virtual-channel simulator.  The model
per cycle is:

1. *Credit return* — credits released ``link latency`` cycles ago arrive
   back at the upstream arbiter.
2. *Flit arrival* — flits that finished traversing a link (+ router
   pipeline) are appended to the downstream input buffer of their
   ``(link, VC)`` pair.
3. *Injection* — every active terminal starts a packet as a Bernoulli
   process with probability ``rate / (packet_length * nodes_per_chip)``
   per cycle (rate in the paper's flits/cycle/chip unit).  The process
   is sampled up front into an injection schedule (geometric
   inter-arrival gaps — same law, vectorized; see
   :mod:`repro.network.schedule`).
4. *Arbitration* — for every router with pending input flits, head flits
   request their next output.  Each output link grants up to
   ``capacity`` flits per cycle, round-robin over requesting inputs,
   subject to downstream credits and wormhole VC ownership (an output VC
   is owned by one packet from head-flit grant until tail-flit grant,
   which keeps packets contiguous per VC).  Ejection ports grant up to
   ``ejection_width`` flits per cycle.

Packets are source routed (see :mod:`repro.network.packet`): contention,
buffer occupancy, credit stalls and VC ownership — the phenomena the
paper's latency/throughput figures measure — are fully simulated, while
route *choice* is made at injection, exactly as the paper's oblivious
minimal/non-minimal algorithms do.

Fault handling: every core drops a packet-start event whose traffic
pattern returns ``dest(...) is None`` — the hook
:class:`repro.faults.FaultMaskedTraffic` uses to mask failed endpoints
(dead terminals are additionally absent from ``active_nodes()``, so the
injection schedule samples no events for them).  Failed *links* never
appear in routes because :class:`repro.faults.FaultAwareRouting` routes
around them; the simulator arrays keep the healthy graph's link ids, so
degraded and healthy runs share the same core machinery.

:class:`Simulator` is a thin facade over two cores:

* :class:`~repro.network.native.NativeCore` (default when a C compiler
  is present) — flat int64 state with its hot loop compiled on demand
  from ``_simcore.c``; runs open-loop points, alone or packed into
  batches (:func:`run_batch`).
* :class:`~repro.network.refcore.ReferenceCore` (fallback on hosts
  without a compiler) — the object-based implementation, kept as the
  semantic reference.  It is also the only core that runs closed-loop
  plans (:class:`~repro.workload.driver.PhasePlan`).

Select explicitly with ``Simulator(..., core="reference")`` or globally
via the ``REPRO_SIM_CORE`` environment variable.  Both cores sample an
un-pinned run's injection schedule the same way and then simulate it
identically, so results are bit-identical across cores whether or not
the schedule is pinned (``tests/network/test_core_equivalence.py``).
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple, Union

from ..metrics import Probe, build_probe
from ..metrics.record import RunRecord
from ..topology.graph import NetworkGraph
from .native import NativeBatch, NativeCore, native_available
from .params import SimParams
from .refcore import ReferenceCore
from .schedule import InjectionSchedule
from .stats import SimResult

__all__ = ["CORE_ENV", "Simulator", "run_batch", "run_simulation"]

#: environment override for the default simulation core.
CORE_ENV = "REPRO_SIM_CORE"

_CORES = {
    "native": NativeCore,
    "reference": ReferenceCore,
    "ref": ReferenceCore,
}


def _resolve_core(core: Optional[str]) -> str:
    """Canonical core name: ``core``, else ``REPRO_SIM_CORE``, else
    native when the kernel compiles, else reference."""
    if core is None:
        core = os.environ.get(CORE_ENV) or None
    if core is None:
        core = "native" if native_available() else "reference"
    try:
        return _CORES[core].core_id
    except KeyError:
        raise ValueError(
            f"unknown simulation core {core!r}; "
            f"expected one of {sorted(_CORES)}"
        ) from None


def _build_probes(probes) -> List[Probe]:
    """Probe instances from instances, kind names or (name, options)
    pairs (the spec metrics axis uses pairs)."""
    built: List[Probe] = []
    for p in probes or ():
        if isinstance(p, Probe):
            built.append(p)
        elif isinstance(p, str):
            built.append(build_probe(p))
        else:
            name, opts = p
            built.append(build_probe(name, **dict(opts)))
    return built


class Simulator:
    """One simulation instance binding a graph, routing and traffic.

    Parameters
    ----------
    graph:
        The router network.
    routing:
        Object exposing ``num_vcs`` and ``route(src, dst, rng) ->
        [(link_id, vc), ...]``.
    traffic:
        Object exposing ``active_nodes()``, ``dest(src, rng)`` and
        ``num_active_chips()`` (see :mod:`repro.traffic.base`).
    params:
        Router/measurement knobs (Table IV defaults).
    core:
        ``"native"`` or ``"reference"`` (alias ``"ref"``); ``None``
        reads the ``REPRO_SIM_CORE`` environment variable, then picks
        the native core when it can be compiled, else the reference
        core.
    probes:
        Optional metric probes (see :mod:`repro.metrics`): a sequence
        of :class:`~repro.metrics.Probe` instances and/or registered
        kind names.  With probes attached, :meth:`run` additionally
        decodes the core's post-run record into typed channels stored
        on ``SimResult.channels`` (and keeps the record itself on
        :attr:`last_record`).  Without probes nothing is recorded and
        results are bit-identical to a probe-less build.

        A probed simulator is **single-run**: the cores accumulate
        measurement state across repeated ``run()`` calls, but probes
        decode the record against one measurement window, so a second
        probed ``run()`` raises instead of producing channels that mix
        windows.  Build a fresh ``Simulator`` per probed point (the
        engine always does).
    """

    def __init__(
        self,
        graph: NetworkGraph,
        routing,
        traffic,
        params: SimParams,
        *,
        core: Optional[str] = None,
        probes: Optional[Sequence[Union[Probe, str]]] = None,
    ) -> None:
        self.core_name = _resolve_core(core)
        self._core = _CORES[self.core_name](graph, routing, traffic, params)
        self.probes: List[Probe] = _build_probes(probes)
        #: the most recent run's :class:`~repro.metrics.RunRecord`
        #: (``None`` until a probed run happened).
        self.last_record: Optional[RunRecord] = None
        if self.probes:
            self._core.enable_probes()
        self._probed_runs = 0

    # -- construction-time bindings (read-only conveniences) -----------
    @property
    def graph(self) -> NetworkGraph:
        return self._core.graph

    @property
    def routing(self):
        return self._core.routing

    @property
    def traffic(self):
        return self._core.traffic

    @property
    def params(self) -> SimParams:
        return self._core.params

    @property
    def num_vcs(self) -> int:
        return self._core.num_vcs

    # -- the simulation -------------------------------------------------
    def make_schedule(self, rate: float) -> InjectionSchedule:
        """Sample the injection schedule ``run(rate)`` would use.

        Consumes the core's numpy RNG, so either pass the result back
        into :meth:`run` (pinned mode) or use a fresh ``Simulator``.
        """
        return self._core.make_schedule(rate)

    def run(
        self,
        rate: float,
        schedule: Optional[InjectionSchedule] = None,
        plan=None,
    ) -> SimResult:
        """Run the full warmup+measure+drain window at ``rate``.

        ``rate`` is offered load in flits/cycle/chip over the traffic
        pattern's active chips.  ``schedule`` pins the packet-start
        events (used by the cross-core equivalence harness); by default
        the core samples its own.  ``plan`` switches to closed-loop
        mode (see :class:`~repro.workload.driver.PhasePlan`): injections
        follow the plan's phase releases and the run ends when the last
        phase drains.  Only the reference core runs plans; a native
        simulator raises :class:`ValueError` for one.

        With probes attached, each probe decodes the run's record into
        one channel on the returned result — strictly after the core
        finished, so the simulated numbers are unaffected.
        """
        if plan is not None and self.core_name != "reference":
            raise ValueError(
                f"the {self.core_name} core cannot run closed-loop "
                "plans; build the Simulator with core='reference'"
            )
        if self.probes:
            if self._probed_runs:
                raise RuntimeError(
                    "a probed Simulator is single-run: probes decode "
                    "one measurement window, but repeated run() calls "
                    "accumulate across windows — build a fresh "
                    "Simulator per probed point"
                )
            self._probed_runs = 1
        if plan is None:
            result = self._core.run(rate, schedule=schedule)
        else:
            result = self._core.run(rate, schedule=schedule, plan=plan)
        if self.probes:
            record = self._core.run_record(rate)
            self.last_record = record
            for probe in self.probes:
                channel = probe.collect(record)
                result.channels[channel.name] = channel
        return result

    # -- conservation bookkeeping ---------------------------------------
    @property
    def total_flits_injected(self) -> int:
        return self._core.total_flits_injected

    @property
    def total_flits_ejected(self) -> int:
        return self._core.total_flits_ejected

    def flits_in_flight(self) -> int:
        """Flits currently buffered or on wires (conservation checks)."""
        return self._core.flits_in_flight()


def run_simulation(
    graph: NetworkGraph,
    routing,
    traffic,
    rate: float,
    params: Optional[SimParams] = None,
) -> SimResult:
    """Convenience wrapper: build a fresh :class:`Simulator` and run it."""
    sim = Simulator(graph, routing, traffic, params or SimParams())
    return sim.run(rate)


def _attach_probe_channels(core, rate, probes, result) -> None:
    for p in probes:
        channel = p.collect(core.run_record(rate))
        result.channels[channel.name] = channel


def run_batch(
    graph: NetworkGraph,
    routing,
    traffic,
    params: SimParams,
    lanes: Sequence[Tuple[int, float]],
    *,
    core: Optional[str] = None,
    threads: Optional[int] = None,
    probes: Optional[Sequence[Union[Probe, str]]] = None,
    schedules: Optional[Sequence[InjectionSchedule]] = None,
) -> List[SimResult]:
    """Simulate N replica lanes of one configuration as a batch.

    ``lanes`` is a sequence of ``(seed, rate)`` pairs; lane ``i`` runs
    a fresh simulator over the shared ``graph``/``routing``/``traffic``
    with ``params`` reseeded to ``lanes[i][0]``.  Results are
    **bit-identical** to running each lane through its own
    :class:`Simulator` — the batch only amortises setup (shared route
    resolution, vectorized destination pre-resolution, one kernel call)
    and, on multi-core hosts, threads lanes via ``REPRO_SIM_THREADS``
    / ``threads`` (see :func:`repro.network.native.resolve_threads`).

    ``core`` resolves exactly as in :class:`Simulator`; the packed
    native batch runs when the native core is selected, the reference
    core falls back to an equivalent serial per-lane loop (same
    results, no amortisation).  ``probes`` build fresh per-lane probe
    instances; channels land on each lane's ``SimResult.channels``.
    """
    lanes = list(lanes)
    if schedules is not None and len(schedules) != len(lanes):
        raise ValueError(
            f"{len(schedules)} schedules for {len(lanes)} lanes"
        )
    core = _resolve_core(core)
    if core == "native":
        batch = NativeBatch(
            graph,
            routing,
            traffic,
            params,
            [seed for seed, _ in lanes],
            probes=bool(probes),
        )
        results = batch.run(
            [rate for _, rate in lanes],
            schedules=schedules,
            threads=threads,
        )
        if probes:
            for i, (res, lane_core) in enumerate(
                zip(results, batch.lanes)
            ):
                _attach_probe_channels(
                    lane_core, lanes[i][1], _build_probes(probes), res
                )
        return results

    # serial fallback: per-lane simulators, same per-lane seeds and
    # probe semantics, so results match the packed path bit-for-bit
    results = []
    for i, (seed, rate) in enumerate(lanes):
        sim = Simulator(
            graph,
            routing,
            traffic,
            params.scaled(seed=int(seed)),
            core=core,
            probes=_build_probes(probes) if probes else None,
        )
        results.append(
            sim.run(
                rate,
                schedule=(
                    schedules[i] if schedules is not None else None
                ),
            )
        )
    return results

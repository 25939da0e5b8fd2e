"""The narrow bulk surface between simulator cores and probes.

Probes never run inside a core's hot loop.  Instead every core — when
probing was enabled before its first ``run()`` — keeps a handful of
flat per-packet arrays (source, destination, creation cycle, measured
flag, completion cycle, route slice) it already mostly had, and exports
them after the run as one :class:`RunRecord`.  The probe layer then
*decodes* the record post-run: per-link traversal counts, latency
distributions, completion time series and hop accounting are all pure
functions of these arrays, so every probe is automatically

* **bit-identical across cores** — given the same injection schedule,
  both cores build the same packet table, hence the same record,
  hence the same channels; and
* **zero-cost when disabled** — the compiled native kernel and the
  reference core's per-cycle loop contain no probe callbacks at all,
  just a few per-*packet* (not per-cycle) branches behind a flag.

Event replay: :meth:`RunRecord.events` re-emits the run as a canonical
packet-major event stream (inject, per-hop, eject) for generic
:class:`~repro.metrics.Probe` subclasses; hop events carry route
positions, not cycle stamps — per-hop timing is the one thing the bulk
surface deliberately does not record (it would require per-flit event
logging in the hot loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["HopEvent", "PacketView", "RunRecord", "failed_links_of"]


def failed_links_of(routing) -> frozenset:
    """Failed link ids of a (possibly fault-wrapped) routing.

    Cores call this while building their record: a
    :class:`~repro.faults.FaultAwareRouting` exposes its
    ``degraded.failed_links`` set; anything else means a healthy run.
    Probes that reason about the graph (BFS floors, load maps) must
    treat these links as nonexistent — no route ever crosses them.
    """
    degraded = getattr(routing, "degraded", None)
    if degraded is None:
        return frozenset()
    return frozenset(degraded.failed_links)


@dataclass(frozen=True)
class HopEvent:
    """One hop of a packet's route: link id and virtual channel."""

    link: int
    vc: int


@dataclass(frozen=True)
class PacketView:
    """Read-only view of one packet in a :class:`RunRecord`."""

    pid: int
    src: int
    dst: int
    t_create: int
    measured: bool
    #: tail-ejection cycle; ``-1`` while undelivered.
    t_done: int
    #: route hop count (0 = src and dst share a router).
    hops: int
    #: flattened ``link * num_vcs + vc`` route indices.
    route_lv: Tuple[int, ...]

    @property
    def delivered(self) -> bool:
        return self.t_done >= 0

    @property
    def latency(self) -> int:
        return self.t_done - self.t_create if self.t_done >= 0 else -1


@dataclass
class RunRecord:
    """Bulk per-packet measurement state of one simulation run.

    All arrays are indexed by packet id; packets span every ``run()``
    call of the producing core instance (the engine uses one instance
    per point, so in practice: one run).
    """

    #: producing core ("native" or "reference").
    core: str
    #: offered rate of the run (flits/cycle/chip).
    rate: float
    num_nodes: int
    num_links: int
    num_vcs: int
    packet_length: int
    #: absolute cycle bounds of the measurement window.
    measure_start: int
    measure_end: int
    measure_cycles: int
    active_chips: int
    # -- per-packet arrays (aligned, length = packet count) ------------
    p_src: List[int] = field(default_factory=list)
    p_dst: List[int] = field(default_factory=list)
    p_t0: List[int] = field(default_factory=list)
    p_meas: List[int] = field(default_factory=list)
    #: tail-ejection cycle per packet, -1 while undelivered.  Only
    #: *measured* packets are guaranteed to be tracked (warmup packets
    #: may stay -1 even when delivered) — probes restrict themselves to
    #: the measured population, like ``SimResult`` does.
    p_done: List[int] = field(default_factory=list)
    p_hops: List[int] = field(default_factory=list)
    #: per-packet offset into :attr:`route_lv`.
    p_off: List[int] = field(default_factory=list)
    #: shared flattened route array (``link * num_vcs + vc`` per hop).
    route_lv: Sequence[int] = field(default_factory=list)
    #: node id -> chip id (ejection-fairness accounting).
    node_chip: Dict[int, int] = field(default_factory=dict)
    #: directed link id -> (src node, dst node), for reporting.  Spans
    #: the *healthy* graph (the cores' arrays do too); degraded runs
    #: list the dead subset in :attr:`failed_links`.
    link_ends: List[Tuple[int, int]] = field(default_factory=list)
    #: link ids failed by the run's fault axis (empty when healthy).
    failed_links: frozenset = frozenset()
    #: closed-loop phase records (``()`` for open-loop runs): one dict
    #: per workload phase with name/release/comm_start/done/compute/
    #: packets/flits/masked, in workload order.  The application-level
    #: probes (cct, bubble, overlap) read these.
    phases: Tuple[Dict, ...] = ()

    # ------------------------------------------------------------------
    @property
    def num_packets(self) -> int:
        return len(self.p_t0)

    def packet(self, pid: int) -> PacketView:
        off = self.p_off[pid]
        hops = self.p_hops[pid]
        return PacketView(
            pid=pid,
            src=self.p_src[pid],
            dst=self.p_dst[pid],
            t_create=self.p_t0[pid],
            measured=bool(self.p_meas[pid]),
            t_done=self.p_done[pid],
            hops=hops,
            route_lv=tuple(self.route_lv[off: off + hops]),
        )

    def route(self, pid: int) -> Sequence[int]:
        """Flattened lv route of one packet (empty for 0-hop pairs)."""
        off = self.p_off[pid]
        return self.route_lv[off: off + self.p_hops[pid]]

    def measured_pids(self) -> List[int]:
        """Packet ids created inside the measurement window."""
        return [pid for pid, m in enumerate(self.p_meas) if m]

    def measured_delivered_pids(self) -> List[int]:
        """Measured packets that reported a tail ejection."""
        return [
            pid
            for pid, m in enumerate(self.p_meas)
            if m and self.p_done[pid] >= 0
        ]

    def latency(self, pid: int) -> int:
        return self.p_done[pid] - self.p_t0[pid]

    # ------------------------------------------------------------------
    def events(
        self, measured_only: bool = True
    ) -> Iterator[Tuple[str, PacketView, Optional[HopEvent]]]:
        """Canonical packet-major event replay for generic probes.

        Yields ``("inject", pkt, None)``, then one ``("hop", pkt,
        HopEvent)`` per route hop, then — for delivered packets —
        ``("eject", pkt, None)``, packet by packet in creation order.
        """
        num_vcs = self.num_vcs
        for pid in range(self.num_packets):
            if measured_only and not self.p_meas[pid]:
                continue
            pkt = self.packet(pid)
            yield "inject", pkt, None
            if pkt.delivered:
                for lv in pkt.route_lv:
                    yield "hop", pkt, HopEvent(lv // num_vcs, lv % num_vcs)
                yield "eject", pkt, None

"""Reference (object-based) simulator core.

This is the original, heap-object implementation of the cycle-accurate
VC simulator: flits are small mutable lists, packets are
:class:`~repro.network.packet.Packet` objects, VC ownership is object
identity.  It is the semantic reference for
:class:`~repro.network.native.NativeCore` (the compiled production
core): both cores sample an un-pinned run's
:class:`~repro.network.schedule.InjectionSchedule` from the same numpy
stream and simulate it identically, so their results are
*bit-identical*, which the cross-core equivalence tests assert.  It is
also the core that runs closed-loop plans and the fallback on hosts
without a C compiler.

The per-cycle model (see :mod:`repro.network.simulator` for the full
description):

1. *Credit return* — credits released ``link latency`` cycles ago
   arrive back at the upstream arbiter.
2. *Flit arrival* — flits that finished traversing a link (+ router
   pipeline) are appended to the downstream input buffer of their
   ``(link, VC)`` pair.
3. *Injection* — packet starts come from an injection schedule (pinned
   by the caller, else sampled by :meth:`ReferenceCore.make_schedule`)
   or, in closed-loop mode, from a plan's event arrays.
4. *Arbitration* — head flits request outputs; each output link grants
   up to ``capacity`` flits per cycle, round-robin over requesting
   inputs, subject to downstream credits and wormhole VC ownership.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Optional

import numpy as np

from ..metrics.record import RunRecord, failed_links_of
from ..topology.graph import NetworkGraph
from .packet import Packet
from .params import SimParams
from .schedule import InjectionSchedule, build_injection_schedule
from .stats import SimResult

__all__ = ["ReferenceCore"]


class ReferenceCore:
    """Object-based simulation core (see module docstring)."""

    #: name reported in :class:`~repro.metrics.RunRecord.core`.
    core_id = "reference"

    def __init__(
        self,
        graph: NetworkGraph,
        routing,
        traffic,
        params: SimParams,
    ) -> None:
        self.graph = graph
        self.routing = routing
        self.traffic = traffic
        self.params = params

        num_links = graph.num_links
        num_nodes = graph.num_nodes
        num_vcs = routing.num_vcs
        self.num_vcs = num_vcs

        # Per-link constants (flattened for the hot loop).
        self._link_dst = [l.dst for l in graph.links]
        # effective in-flight time: wire latency + router pipeline
        self._hop_delay = [
            l.latency + params.router_latency for l in graph.links
        ]
        # credit return time models the reverse wire of the same channel
        self._credit_delay = [max(1, l.latency) for l in graph.links]
        self._cap = [l.capacity for l in graph.links]

        # Per-(link, vc) state, flattened to one index lv = link*V + vc:
        # integer indexing and hashing beat (link, vc) tuples in the hot
        # loop by a wide margin.
        num_lv = num_links * num_vcs
        self._buf: List[deque] = [deque() for _ in range(num_lv)]
        self._credits: List[int] = [params.vc_buffer_size] * num_lv
        self._owner: List[Optional[Packet]] = [None] * num_lv

        # Per-lv copies of the per-link constants (avoids lv // V).
        self._lv_dst = [self._link_dst[lv // num_vcs] for lv in range(num_lv)]
        self._cap_lv = [self._cap[lv // num_vcs] for lv in range(num_lv)]
        self._credit_delay_lv = [
            self._credit_delay[lv // num_vcs] for lv in range(num_lv)
        ]

        # Per-router dispatch state.  ``_nonempty[r]`` maps lv -> True
        # (int keys, insertion ordered) for every non-empty input of
        # router r; the hot set is a flag array + compact active list.
        self._nonempty: List[Dict[int, bool]] = [
            {} for _ in range(num_nodes)
        ]
        self._srcq: List[deque] = [deque() for _ in range(num_nodes)]
        self._hot_flag = bytearray(num_nodes)
        self._hot_list: List[int] = []

        # Event wheels.
        max_delay = max(self._hop_delay, default=1)
        max_delay = max(max_delay, max(self._credit_delay, default=1))
        self._wheel_size = max_delay + 1
        self._arrivals: List[list] = [[] for _ in range(self._wheel_size)]
        self._credit_ret: List[list] = [[] for _ in range(self._wheel_size)]

        # Round-robin pointers: one per output link, one per ejection port.
        self._rr_link = [0] * num_links
        self._rr_eject = [0] * num_nodes

        # RNGs: numpy for the injection process, stdlib for route choices.
        self._np_rng = np.random.default_rng(params.seed)
        self._py_rng = random.Random(params.seed ^ 0x5EED)

        # RoutingAlgorithm subclasses provide flattened (and, when
        # deterministic, memoised) routes; duck-typed routings need only
        # expose route().
        self._route_flat = getattr(routing, "route_flat", None)

        # Traffic bookkeeping.
        self._active_nodes = list(traffic.active_nodes())
        self._active_chips = traffic.num_active_chips()
        chips = graph.chips()
        self._nodes_per_chip = {
            nid: len(chips[graph.nodes[nid].chip]) for nid in self._active_nodes
        }

        # Measurement.
        self._pid = 0
        # Probe surface (repro.metrics): when enabled, every created
        # Packet is retained so run_record() can rebuild the flat
        # per-packet arrays post-run.  Object retention has no effect
        # on simulation state or RNG consumption.
        self._probe_mode = False
        self._packets: List[Packet] = []
        self._latencies: List[int] = []
        self._hops: List[int] = []
        self._packets_measured = 0
        self._flits_ejected_window = 0
        self.total_flits_injected = 0
        self.total_flits_ejected = 0
        #: cycles simulated by previous run() calls; keeps leftover
        #: in-flight events aligned with their wheel slots and packet
        #: timestamps monotonic across repeated run() calls.  0 for a
        #: fresh instance, where behaviour is bit-identical to the
        #: original single-run implementation.
        self._clock = 0
        #: the closed-loop PhasePlan of the most recent run (None for
        #: open-loop runs); run_record() reads its phase records and
        #: measurement window.
        self._plan = None

    # ------------------------------------------------------------------
    def injection_probs(self, rate: float) -> List[float]:
        """Per-active-node packet-start probability per cycle."""
        pkt_len = self.params.packet_length
        return [
            rate / (pkt_len * self._nodes_per_chip[nid])
            for nid in self._active_nodes
        ]

    def make_schedule(self, rate: float) -> InjectionSchedule:
        """Sample this run's injection schedule (consumes the numpy RNG).

        Same sampling as the native core's, so an un-pinned run on
        either core starts the same packets.
        """
        probs = self._checked_probs(rate)
        p = self.params
        return build_injection_schedule(
            self._active_nodes,
            probs,
            p.warmup_cycles + p.measure_cycles,
            self._np_rng,
        )

    def _checked_probs(self, rate: float) -> List[float]:
        if rate < 0:
            raise ValueError("rate must be >= 0")
        probs = self.injection_probs(rate)
        if any(pr > 1.0 for pr in probs):
            raise ValueError(
                f"offered rate {rate} exceeds 1 packet/node/cycle; "
                "increase packet_length or lower the rate"
            )
        return probs

    def _make_packet(
        self, t: int, src: int, measured: bool, dst: Optional[int] = None
    ) -> Optional[Packet]:
        # a caller-provided destination (closed-loop plan events) skips
        # the traffic draw, so no RNG is consumed — matching the array
        # core's plan-mode stream
        if dst is None:
            dst = self.traffic.dest(src, self._py_rng)
        if dst is None or dst == src:
            return None
        if self._route_flat is not None:
            path, path_lv = self._route_flat(src, dst, self._py_rng)
        else:
            path = tuple(self.routing.route(src, dst, self._py_rng))
            num_vcs = self.num_vcs
            path_lv = tuple(l * num_vcs + v for l, v in path)
        pkt = Packet(
            self._pid, src, dst, self.params.packet_length, path, t, measured
        )
        pkt.path_lv = path_lv
        self._pid += 1
        if self._probe_mode:
            self._packets.append(pkt)
        return pkt

    # ------------------------------------------------------------------
    def enable_probes(self) -> None:
        """Start retaining packets for the probe surface."""
        if self._clock:
            raise RuntimeError(
                "probes must be enabled before the first run()"
            )
        self._probe_mode = True

    def run_record(self, rate: float) -> RunRecord:
        """Bulk measurement record of this core's runs so far."""
        if not self._probe_mode:
            raise RuntimeError(
                "probing was not enabled on this core; pass probes= to "
                "Simulator (or call enable_probes() before run())"
            )
        p = self.params
        graph = self.graph
        plan = self._plan
        if plan is not None:
            # closed-loop: the window is the measured makespan, not the
            # (huge) horizon the params carried as a safety bound
            measure_start = plan._t0
            measure_cycles = plan.elapsed()
            measure_end = measure_start + measure_cycles
            phases = plan.phase_records()
        else:
            measure_start = self._clock - p.drain_cycles - p.measure_cycles
            measure_cycles = p.measure_cycles
            measure_end = measure_start + measure_cycles
            phases = ()
        p_src, p_dst, p_t0, p_meas = [], [], [], []
        p_done, p_hops, p_off = [], [], []
        route_lv: List[int] = []
        for pkt in self._packets:
            p_src.append(pkt.src)
            p_dst.append(pkt.dst)
            p_t0.append(pkt.t_create)
            p_meas.append(1 if pkt.measured else 0)
            p_done.append(pkt.t_done)
            p_hops.append(pkt.path_len)
            p_off.append(len(route_lv))
            route_lv.extend(pkt.path_lv)
        return RunRecord(
            core=self.core_id,
            rate=rate,
            num_nodes=graph.num_nodes,
            num_links=graph.num_links,
            num_vcs=self.num_vcs,
            packet_length=p.packet_length,
            measure_start=measure_start,
            measure_end=measure_end,
            measure_cycles=measure_cycles,
            active_chips=self._active_chips,
            p_src=p_src,
            p_dst=p_dst,
            p_t0=p_t0,
            p_meas=p_meas,
            p_done=p_done,
            p_hops=p_hops,
            p_off=p_off,
            route_lv=route_lv,
            node_chip={
                nid: node.chip for nid, node in enumerate(graph.nodes)
            },
            link_ends=[(l.src, l.dst) for l in graph.links],
            failed_links=failed_links_of(self.routing),
            phases=phases,
        )

    def _finish_flit(self, pkt: Packet, fidx: int, t: int, in_window: bool) -> None:
        """Account one flit leaving the network at its destination."""
        self.total_flits_ejected += 1
        if in_window:
            self._flits_ejected_window += 1
        if fidx == pkt.size - 1:
            pkt.t_done = t
            if pkt.measured:
                self._latencies.append(t - pkt.t_create)
                self._hops.append(len(pkt.path))
            if self._plan is not None:
                self._plan.packet_done(pkt.pid, t)

    # ------------------------------------------------------------------
    def run(
        self,
        rate: float,
        schedule: Optional[InjectionSchedule] = None,
        plan=None,
    ) -> SimResult:
        """Run the full warmup+measure+drain schedule at ``rate``.

        ``rate`` is offered load in flits/cycle/chip over the traffic
        pattern's active chips.  Packet starts come from ``schedule``
        (in order) when given, else from :meth:`make_schedule`.
        ``plan`` switches to closed-loop mode: events come from a
        :class:`~repro.workload.driver.PhasePlan` whose phase releases
        feed back from tail-flit ejections, and the loop ends when the
        last phase drains.
        """
        if plan is not None and schedule is not None:
            raise ValueError("pass either a schedule or a plan, not both")
        p = self.params
        if rate < 0:
            raise ValueError("rate must be >= 0")
        self._plan = plan
        meas = p.measure_cycles
        # absolute cycle stamps: this run covers [t0, t_end)
        t0 = self._clock
        warm = t0 + p.warmup_cycles
        meas_end = warm + meas
        t_end = meas_end + p.drain_cycles
        pkt_len = p.packet_length

        if plan is not None:
            if rate <= 0:
                raise ValueError("closed-loop rate must be > 0")
            # nothing is offered open-loop: the plan injects on demand
            effective_offered = 0.0
            ev_cycles = plan.ev_cycles
            ev_nodes = plan.ev_nodes
            ev_dests = plan.ev_dests
            n_ev = plan.begin(t0)
        else:
            probs = self._checked_probs(rate)
            # patterns with inactive nodes offer less than the nominal
            # rate
            effective_offered = (
                float(np.array(probs, dtype=np.float64).sum())
                * pkt_len
                / self._active_chips
                if self._active_chips
                else 0.0
            )
            if schedule is None:
                schedule = self.make_schedule(rate)
            # schedule cycles are run-local; shift onto the clock
            ev_cycles = (
                [c + t0 for c in schedule.cycles] if t0 else schedule.cycles
            )
            ev_nodes = schedule.nodes
            ev_dests = None
            n_ev = len(ev_cycles)
        ev_ptr = 0

        wheel_size = self._wheel_size
        arrivals = self._arrivals
        credit_ret = self._credit_ret
        buf = self._buf
        credits = self._credits
        owner = self._owner
        nonempty = self._nonempty
        srcq = self._srcq
        hot_flag = self._hot_flag
        hot_list = self._hot_list
        rr_link = self._rr_link
        rr_eject = self._rr_eject
        lv_dst = self._lv_dst
        cap_lv = self._cap_lv
        credit_delay_lv = self._credit_delay_lv
        hop_delay = self._hop_delay
        cap = self._cap
        inj_w = p.injection_width
        ej_w = p.ejection_width
        finish_flit = self._finish_flit

        for t in range(t0, t_end):
            slot = t % wheel_size
            in_window = warm <= t < meas_end

            # --- 1. credit returns -------------------------------------
            crs = credit_ret[slot]
            if crs:
                for lv in crs:
                    credits[lv] += 1
                credit_ret[slot] = []

            # --- 2. flit arrivals --------------------------------------
            arr_list = arrivals[slot]
            if arr_list:
                for f, lv in arr_list:
                    b = buf[lv]
                    if not b:
                        r = lv_dst[lv]
                        nonempty[r][lv] = True
                        if not hot_flag[r]:
                            hot_flag[r] = 1
                            hot_list.append(r)
                    b.append(f)
                arrivals[slot] = []

            # --- 3. packet generation ----------------------------------
            if t < meas_end:
                while ev_ptr < n_ev and ev_cycles[ev_ptr] == t:
                    nid = ev_nodes[ev_ptr]
                    # plan events carry pre-drawn destinations (never
                    # None/self), so their packets always materialise
                    # and pid stays equal to the event index (the plan
                    # relies on that)
                    dst = ev_dests[ev_ptr] if ev_dests is not None else None
                    ev_ptr += 1
                    pkt = self._make_packet(t, nid, in_window, dst=dst)
                    if pkt is None:
                        continue
                    if in_window:
                        self._packets_measured += 1
                    if not pkt.path:
                        # src and dst share a router: deliver instantly
                        for fidx in range(pkt.size):
                            self.total_flits_injected += 1
                            finish_flit(pkt, fidx, t, in_window)
                        continue
                    srcq[nid].append([pkt, 0])
                    if not hot_flag[nid]:
                        hot_flag[nid] = 1
                        hot_list.append(nid)

            # --- 4. arbitration ----------------------------------------
            # hot_list is rebuilt each cycle: routers that stay busy are
            # re-appended, idle ones drop out.  Phases 2-3 of the *next*
            # cycle append new arrivals to the rebuilt list.
            active_routers = hot_list
            hot_list = []
            for r in active_routers:
                ne = nonempty[r]
                sq = srcq[r]
                if not ne and not sq:
                    hot_flag[r] = 0
                    continue

                # Fast paths for the overwhelmingly common single-input
                # router on unit-budget outputs: no request dict, no
                # rotation, no pass loop.  Semantics are identical to
                # the general path below with one candidate and
                # budget == 1.
                if not sq and len(ne) == 1:
                    lv = next(iter(ne))
                    b = buf[lv]
                    f = b[0]
                    pkt = f[0]
                    nh = f[2] + 1
                    if nh == pkt.path_len:
                        if ej_w == 1:
                            b.popleft()
                            if not b:
                                del ne[lv]
                            credit_ret[
                                (t + credit_delay_lv[lv]) % wheel_size
                            ].append(lv)
                            finish_flit(pkt, f[1], t, in_window)
                            if ne:
                                hot_list.append(r)
                            else:
                                hot_flag[r] = 0
                            continue
                    else:
                        out_link = pkt.path[nh][0]
                        if cap[out_link] == 1:
                            nlv = pkt.path_lv[nh]
                            fidx = f[1]
                            if credits[nlv] > 0:
                                own = owner[nlv]
                                if (own is None) if fidx == 0 else (own is pkt):
                                    b.popleft()
                                    if not b:
                                        del ne[lv]
                                    credit_ret[
                                        (t + credit_delay_lv[lv]) % wheel_size
                                    ].append(lv)
                                    credits[nlv] -= 1
                                    if fidx == 0:
                                        owner[nlv] = pkt
                                    if fidx == pkt.size - 1:
                                        owner[nlv] = None
                                    f[2] = nh
                                    arrivals[
                                        (t + hop_delay[out_link]) % wheel_size
                                    ].append((f, nlv))
                            if ne:
                                hot_list.append(r)
                            else:
                                hot_flag[r] = 0
                            continue
                elif not ne:
                    entry = sq[0]
                    pkt, fidx = entry[0], entry[1]
                    out_link = pkt.path[0][0]
                    if cap[out_link] == 1:
                        nlv = pkt.path_lv[0]
                        if credits[nlv] > 0:
                            own = owner[nlv]
                            if (own is None) if fidx == 0 else (own is pkt):
                                self.total_flits_injected += 1
                                entry[1] = fidx + 1
                                if entry[1] == pkt.size:
                                    sq.popleft()
                                credits[nlv] -= 1
                                if fidx == 0:
                                    owner[nlv] = pkt
                                if fidx == pkt.size - 1:
                                    owner[nlv] = None
                                arrivals[
                                    (t + hop_delay[out_link]) % wheel_size
                                ].append(([pkt, fidx, 0], nlv))
                        if sq:
                            hot_list.append(r)
                        else:
                            hot_flag[r] = 0
                        continue

                # Collect requests: out_key -> list of input descriptors.
                # Descriptor: lv index for buffered inputs, -1 for the
                # source queue.  Key -1 is the router's ejection port
                # (link ids are >= 0).
                reqs: Dict = {}
                for lv in ne:
                    f = buf[lv][0]
                    pkt = f[0]
                    nh = f[2] + 1
                    if nh == pkt.path_len:
                        key = -1
                    else:
                        key = pkt.path[nh][0]
                    lst = reqs.get(key)
                    if lst is None:
                        reqs[key] = [lv]
                    else:
                        lst.append(lv)
                if sq:
                    pkt = sq[0][0]
                    key = pkt.path[0][0]
                    lst = reqs.get(key)
                    if lst is None:
                        reqs[key] = [-1]
                    else:
                        lst.append(-1)

                for key, cand in reqs.items():
                    if key < 0:  # ejection port
                        budget = ej_w
                        out_link = -1
                    else:
                        out_link = key
                        budget = cap[out_link]
                    # rotate candidates for round-robin fairness
                    if len(cand) > 1:
                        if key < 0:
                            off = rr_eject[r]
                            rr_eject[r] = off + 1
                        else:
                            off = rr_link[key]
                            rr_link[key] = off + 1
                        off %= len(cand)
                        if off:
                            cand = cand[off:] + cand[:off]

                    granted = 0
                    in_used: Dict = {}
                    # multiple passes allow capacity>1 links to move
                    # several flits per cycle
                    for _pass in range(budget):
                        progressed = False
                        for desc in cand:
                            if granted >= budget:
                                break
                            # ---- fetch head flit ----
                            if desc < 0:
                                if not sq:
                                    continue
                                entry = sq[0]
                                pkt, fidx = entry[0], entry[1]
                                hopi = -1
                                in_cap = inj_w
                            else:
                                b = buf[desc]
                                if not b:
                                    continue
                                f = b[0]
                                pkt, fidx, hopi = f[0], f[1], f[2]
                                in_cap = cap_lv[desc]
                            if budget > 1 and in_used.get(desc, 0) >= in_cap:
                                continue
                            nh = hopi + 1
                            if nh == pkt.path_len:
                                # eject (key must match; source never here)
                                if out_link >= 0:
                                    continue
                                b.popleft()
                                if not b:
                                    del ne[desc]
                                credit_ret[
                                    (t + credit_delay_lv[desc]) % wheel_size
                                ].append(desc)
                                finish_flit(pkt, fidx, t, in_window)
                                if budget > 1:
                                    in_used[desc] = in_used.get(desc, 0) + 1
                                granted += 1
                                progressed = True
                                continue
                            if pkt.path[nh][0] != out_link:
                                continue
                            nlv = pkt.path_lv[nh]
                            if credits[nlv] <= 0:
                                continue
                            own = owner[nlv]
                            if fidx == 0:
                                if own is not None:
                                    continue
                            elif own is not pkt:
                                continue
                            # ---- grant ----
                            if desc < 0:
                                # take flit from the source queue
                                self.total_flits_injected += 1
                                entry[1] = fidx + 1
                                if entry[1] == pkt.size:
                                    sq.popleft()
                                f = [pkt, fidx, hopi]
                            else:
                                b.popleft()
                                if not b:
                                    del ne[desc]
                                credit_ret[
                                    (t + credit_delay_lv[desc]) % wheel_size
                                ].append(desc)
                            credits[nlv] -= 1
                            if fidx == 0:
                                owner[nlv] = pkt
                            if fidx == pkt.size - 1:
                                owner[nlv] = None
                            f[2] = nh
                            arrivals[
                                (t + hop_delay[out_link]) % wheel_size
                            ].append((f, nlv))
                            if budget > 1:
                                in_used[desc] = in_used.get(desc, 0) + 1
                            granted += 1
                            progressed = True
                        if not progressed or granted >= budget:
                            break

                if ne or sq:
                    hot_list.append(r)
                else:
                    hot_flag[r] = 0

            # --- 5. closed-loop phase releases -------------------------
            # Completions recorded this cycle release dependent phases
            # at t+1; materialise their events before the next cycle's
            # generation pass so the strict == t match never misses.
            if plan is not None:
                if plan.dirty:
                    n_ev = plan.flush(ev_ptr)
                if plan.finished:
                    break

        self._hot_list = hot_list
        self._clock = t_end

        return SimResult.from_samples(
            offered_rate=rate,
            effective_offered=effective_offered,
            latencies=self._latencies,
            hops=self._hops,
            packets_measured=self._packets_measured,
            flits_ejected=self._flits_ejected_window,
            active_chips=self._active_chips,
            measure_cycles=plan.elapsed() if plan is not None else meas,
        )

    # ------------------------------------------------------------------
    def flits_in_flight(self) -> int:
        """Flits currently buffered or on wires (conservation checks)."""
        buffered = sum(len(b) for b in self._buf)
        flying = sum(len(slot) for slot in self._arrivals)
        return buffered + flying

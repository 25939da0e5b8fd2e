"""Compiled simulation core: the production data plane.

This module compiles ``_simcore.c`` on demand (plain ``cc -O3 -shared
-fPIC``; no Python headers, no build-system dependency), loads it via
:mod:`ctypes`, and wraps it as :class:`NativeCore`.  The kernel lays
every piece of hot state out as flat int64 arrays — packet tables,
flattened routes, packed flits ``(pid << 22) | (flit_idx << 11) | hop``,
integer VC ownership, timing wheels — so a core instance can run()
repeatedly and Python can inspect the buffers between runs.

The enabling observation is that the stdlib RNG stream is consumed
*only* by destination and route choice, in injection-schedule order —
so the whole packet table (destinations, flattened routes, creation
cycles) can be resolved in Python before the hot loop starts, and the
C kernel runs the entire warmup+measure+drain window without a single
callback.  Given the same schedule the kernel replicates the cycle
semantics of :class:`~repro.network.refcore.ReferenceCore` exactly,
and both cores sample an un-pinned run's schedule the same way, so
``NativeCore`` produces **bit-identical**
:class:`~repro.network.stats.SimResult`\\ s to the reference core
(asserted by ``tests/network/test_core_equivalence.py``).  Closed-loop
plans need per-cycle feedback the kernel does not have; they run on
the reference core.

When no C compiler is available the loader returns ``None`` and
:class:`~repro.network.simulator.Simulator` falls back to the
reference core; nothing in the public API changes.  Set
``REPRO_SIM_CORE=native`` (or ``reference``) to pin a core, and
``REPRO_NATIVE_CACHE`` to relocate the compiled-object cache.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import random
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from ..metrics.record import RunRecord, failed_links_of
from .schedule import InjectionSchedule, build_injection_schedule
from .stats import SimResult
from .vecrandom import VecRandom

__all__ = [
    "NativeBatch",
    "NativeCore",
    "THREADS_ENV",
    "load_native",
    "native_available",
    "resolve_threads",
]

_C_SOURCE = Path(__file__).with_name("_simcore.c")

#: environment override for batch-lane kernel threads (default: auto =
#: the CPU count; ``1`` forces serial lanes).
THREADS_ENV = "REPRO_SIM_THREADS"


def resolve_threads(lanes: int, threads: Optional[int] = None) -> int:
    """Kernel threads for a batch of ``lanes``: explicit argument, else
    ``REPRO_SIM_THREADS``, else the CPU count — clamped to the lane
    count (extra threads would only spin on the empty work queue)."""
    if threads is None:
        env = os.environ.get(THREADS_ENV)
        if env:
            threads = int(env)
        else:
            threads = os.cpu_count() or 1
    return max(1, min(int(threads), max(1, lanes)))

# Flit word layout, shared with ``_simcore.c``:
# (pid << _PID_SHIFT) | (flit_idx << _HOP_BITS) | hop.
_HOP_BITS = 11
_PID_SHIFT = 22
_FIDX_MASK = (1 << (_PID_SHIFT - _HOP_BITS)) - 1
_MAX_HOPS = (1 << _HOP_BITS) - 1  # longest representable route

_i64p = ctypes.POINTER(ctypes.c_int64)
_u8p = ctypes.POINTER(ctypes.c_uint8)


class _SimState(ctypes.Structure):
    """Mirror of ``struct S`` in ``_simcore.c`` (same field order)."""

    _fields_ = [
        ("num_nodes", ctypes.c_int64),
        ("num_links", ctypes.c_int64),
        ("num_lv", ctypes.c_int64),
        ("wheel_size", ctypes.c_int64),
        ("slot_cap", ctypes.c_int64),
        ("buf_cap", ctypes.c_int64),
        ("max_in", ctypes.c_int64),
        ("pkt_len", ctypes.c_int64),
        ("inj_w", ctypes.c_int64),
        ("ej_w", ctypes.c_int64),
        ("warm", ctypes.c_int64),
        ("meas_end", ctypes.c_int64),
        ("t_end", ctypes.c_int64),
        ("t0", ctypes.c_int64),
        ("n_ev", ctypes.c_int64),
        ("n_lat", ctypes.c_int64),
        ("tfi", ctypes.c_int64),
        ("tfe", ctypes.c_int64),
        ("pm", ctypes.c_int64),
        ("few", ctypes.c_int64),
        ("hot_n", ctypes.c_int64),
        ("error", ctypes.c_int64),
        ("cap", _i64p),
        ("lv_dst", _i64p),
        ("cap_lv", _i64p),
        ("cdel_lv", _i64p),
        ("credits", _i64p),
        ("owner", _i64p),
        ("buf", _i64p),
        ("b_head", _i64p),
        ("b_len", _i64p),
        ("ne_arr", _i64p),
        ("ne_len", _i64p),
        ("sq_arena", _i64p),
        ("sq_off", _i64p),
        ("sq_head", _i64p),
        ("sq_len", _i64p),
        ("s_fidx", _i64p),
        ("aw_f", _i64p),
        ("aw_lv", _i64p),
        ("aw_n", _i64p),
        ("cw_lv", _i64p),
        ("cw_n", _i64p),
        ("rr_link", _i64p),
        ("rr_eject", _i64p),
        ("hot_a", _i64p),
        ("hot_b", _i64p),
        ("hot_flag", _u8p),
        ("p_off", _i64p),
        ("p_hops", _i64p),
        ("p_t0", _i64p),
        ("p_meas", _i64p),
        ("route_lv", _i64p),
        ("route_link", _i64p),
        ("route_delay", _i64p),
        ("ev_cycle", _i64p),
        ("ev_src", _i64p),
        ("ev_pid", _i64p),
        ("lat_out", _i64p),
        ("hops_out", _i64p),
        ("pid_out", _i64p),
        ("sc_desc", _i64p),
        ("sc_key", _i64p),
        ("sc_cand", _i64p),
        ("sc_used", _i64p),
    ]


def _find_cc() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_NATIVE_CACHE")
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-dragonfly"


#: preferred flag set first; the plain serial build is the fallback for
#: toolchains without pthread support (sim_run_batch then loops lanes
#: serially, which is bit-identical anyway).
_FLAG_SETS = (
    ["-O3", "-shared", "-fPIC", "-pthread", "-DREPRO_HAVE_PTHREADS"],
    ["-O3", "-shared", "-fPIC"],
)


def _compile_library() -> Optional[Path]:
    """Compile ``_simcore.c`` into the cache, reusing prior builds."""
    cc = _find_cc()
    if cc is None or not _C_SOURCE.is_file():
        return None
    source = _C_SOURCE.read_bytes()
    for flags in _FLAG_SETS:
        tag = hashlib.sha256(
            source
            + " ".join(flags).encode()
            + sysconfig.get_platform().encode()
        ).hexdigest()[:16]
        cache = _cache_dir()
        out = cache / f"_simcore-{tag}.so"
        if out.is_file():
            return out
        tmp = None
        try:
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            cmd = [cc, *flags, str(_C_SOURCE), "-o", tmp]
            res = subprocess.run(
                cmd,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=120,
            )
            if res.returncode != 0:
                continue
            os.replace(tmp, out)  # atomic: concurrent builders race safely
            tmp = None
            return out
        except (OSError, subprocess.SubprocessError):
            continue
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
    return None


_LIB = None
_LIB_TRIED = False


def load_native():
    """Compile (once) and load the kernel; ``None`` if unavailable."""
    global _LIB, _LIB_TRIED
    if _LIB_TRIED:
        return _LIB
    _LIB_TRIED = True
    path = _compile_library()
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(str(path))
        lib.sim_run.argtypes = [ctypes.POINTER(_SimState)]
        lib.sim_run.restype = ctypes.c_int64
        lib.sim_run_batch.argtypes = [
            ctypes.POINTER(_SimState),
            ctypes.c_int64,
            ctypes.c_int64,
        ]
        lib.sim_run_batch.restype = ctypes.c_int64
    except OSError:
        return None
    except AttributeError:
        # a pre-batch cached build is stale; one-shot rebuilds are not
        # worth the complexity — clearing the cache dir fixes it
        return None
    _LIB = lib
    return _LIB


def native_available() -> bool:
    """True when the compiled kernel can be (or has been) loaded."""
    return load_native() is not None


#: largest num_nodes**2 for which the route-pair mirror also keeps a
#: dense direct-index table (2 x int64 -> 16 MiB at the cap); bigger
#: graphs fall back to binary search on the sorted key mirror.
_DENSE_PAIRS_MAX = 1 << 20


def _zeros(n: int) -> np.ndarray:
    return np.zeros(max(1, int(n)), dtype=np.int64)


def _as_i64(values) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.int64)
    return arr if arr.size else _zeros(0)


def _ptr(arr: np.ndarray):
    return arr.ctypes.data_as(_i64p)


class _LaneCtx:
    """Per-run staging between prepare, kernel call and finish.

    Holds the run's window bookkeeping plus references to every numpy
    buffer the packed ``struct S`` points into — the batch path keeps
    one of these per lane alive for the duration of the (possibly
    threaded) kernel call.
    """

    __slots__ = (
        "rate",
        "meas",
        "t0",
        "warm",
        "meas_end",
        "effective_offered",
        "np_ev_cycle",
        "np_ev_src",
        "np_ev_pid",
        "n_new",
        "lat_out",
        "hops_out",
        "pid_out",
        "keepalive",
        "st",
    )


class NativeCore:
    """Simulation core whose hot loop runs in the compiled kernel.

    Construction, route resolution, scheduling and measurement stay in
    Python; only the per-cycle loop is delegated.  Routes are flattened
    into one shared trio of int lists (``_route_lv``/``_route_link``/
    ``_route_delay``) that a packet references as an ``(offset, hops)``
    slice; deterministic routings share one slice per (src, dst) pair
    via a core-level memo.

    Probing (see :mod:`repro.metrics`) needs no kernel callbacks: the
    kernel already reports every delivered measured packet's latency,
    and alongside it writes the packet id (``pid_out``) — a bulk
    counter the probe layer decodes post-run.  Source/destination are
    captured in the Python pre-pass (:meth:`_resolve_packets`).
    Raises :class:`RuntimeError` when the kernel cannot be compiled —
    callers that want a fallback should check :func:`native_available`
    first (as :class:`~repro.network.simulator.Simulator` does).

    Measurement state accumulates across ``run()`` calls and the cycle
    clock keeps counting, so leftover in-flight state from a truncated
    drain stays consistent.  The engine builds a fresh instance per
    simulated point.
    """

    #: name reported in :class:`~repro.metrics.RunRecord.core`.
    core_id = "native"

    def __init__(self, graph, routing, traffic, params) -> None:
        self.graph = graph
        self.routing = routing
        self.traffic = traffic
        self.params = params

        if params.packet_length > _FIDX_MASK:
            raise ValueError(
                f"packet_length {params.packet_length} exceeds the native "
                f"core's flit-index field ({_FIDX_MASK}); use "
                "core='reference'"
            )
        lib = load_native()
        if lib is None:
            raise RuntimeError(
                "native simulation core unavailable "
                "(no C compiler or compilation failed); "
                "use core='reference' instead"
            )
        self._lib = lib

        num_vcs = routing.num_vcs
        self.num_vcs = num_vcs
        links = graph.links
        self._hop_delay = [l.latency + params.router_latency for l in links]
        self._cap = [l.capacity for l in links]
        credit_delay = [max(1, l.latency) for l in links]
        self._wheel_size = 1 + max(
            max(self._hop_delay, default=1), max(credit_delay, default=1)
        )
        self._num_lv = len(links) * num_vcs

        self._np_rng = np.random.default_rng(params.seed)
        self._py_rng = random.Random(params.seed ^ 0x5EED)

        self._route_flat = getattr(routing, "route_flat", None)
        self._deterministic = bool(
            getattr(routing, "is_deterministic", False)
        )
        self._slice_memo_max = getattr(routing, "route_memo_max", 1 << 19)
        #: (src, dst) -> (offset, hops) into the shared route arrays.
        self._slice_memo: Dict = {}
        # Shared flattened route arrays: per hop, the (link*V + vc)
        # index, the link id (arbitration key) and the in-flight delay.
        self._route_lv: List[int] = []
        self._route_link: List[int] = []
        self._route_delay: List[int] = []

        self._active_nodes = list(traffic.active_nodes())
        self._active_chips = traffic.num_active_chips()
        chips = graph.chips()
        self._nodes_per_chip = {
            nid: len(chips[graph.nodes[nid].chip]) for nid in self._active_nodes
        }

        # Per-packet state, indexed by packet id.
        self._p_off: List[int] = []
        self._p_hops: List[int] = []
        self._p_t0: List[int] = []
        self._p_meas: List[int] = []
        self._num_packets = 0

        self._latencies: List[int] = []
        self._hops: List[int] = []
        # Probe bookkeeping (see repro.metrics), off by default.  When
        # enabled (before the first run) the pre-pass keeps per-packet
        # source/destination and the finish step keeps the delivered
        # packet ids, aligned with ``_latencies``.
        self._probe_mode = False
        self._p_src: List[int] = []
        self._p_dst: List[int] = []
        self._eject_pid: List[int] = []
        self._packets_measured = 0
        self._flits_ejected_window = 0
        self.total_flits_injected = 0
        self.total_flits_ejected = 0
        #: cycles simulated by previous run() calls.  The clock keeps
        #: counting across runs so that leftover in-flight events stay
        #: aligned with their wheel slots and leftover packets report
        #: non-negative latencies.
        self._clock = 0

        #: packet-table segments kept as numpy arrays by the vectorized
        #: pre-pass (non-probed cores only — ``run_record`` reads the
        #: scalar lists).  List entries always precede part entries in
        #: pid order: the scalar pre-pass flushes parts before
        #: appending.
        self._p_parts: list = []

        num_nodes = graph.num_nodes
        num_lv = self._num_lv
        B = params.vc_buffer_size

        indeg = [0] * num_nodes
        for link in graph.links:
            indeg[link.dst] += 1
        self._max_in = max(1, max(indeg, default=0) * self.num_vcs)

        # Per-wheel-slot capacity.  Arrivals delivered in one cycle are
        # bounded by the sum of link capacities (one issuing cycle per
        # link and slot).  Credit returns fold *different* issuing
        # cycles into one slot when links have different latencies, but
        # per issuing cycle each of a link's num_vcs buffers pops at
        # most `capacity` flits, so num_vcs * sum(cap) bounds both.
        slot_cap = self.num_vcs * sum(self._cap) + num_nodes * max(
            params.ejection_width, params.injection_width
        ) + 8
        self._slot_cap = slot_cap
        W = self._wheel_size

        # per-(link, vc) copies of the per-link constants
        lv_link = np.arange(num_lv, dtype=np.int64) // self.num_vcs

        def per_lv(values) -> np.ndarray:
            return _as_i64(np.asarray(values, dtype=np.int64)[lv_link])

        self._n_cap = _as_i64(self._cap)
        self._n_lv_dst = per_lv([l.dst for l in links])
        self._n_cap_lv = per_lv(self._cap)
        self._n_cdel_lv = per_lv(credit_delay)
        self._n_credits = np.full(num_lv, B, dtype=np.int64)
        self._n_owner = np.full(num_lv, -1, dtype=np.int64)
        self._n_buf = _zeros(num_lv * B)
        self._n_b_head = _zeros(num_lv)
        self._n_b_len = _zeros(num_lv)
        self._n_ne_arr = _zeros(num_nodes * self._max_in)
        self._n_ne_len = _zeros(num_nodes)
        self._n_sq_arena = _zeros(0)
        self._n_sq_off = _zeros(num_nodes)
        self._n_sq_head = _zeros(num_nodes)
        self._n_sq_len = _zeros(num_nodes)
        self._n_s_fidx = _zeros(num_nodes)
        self._n_aw_f = _zeros(W * slot_cap)
        self._n_aw_lv = _zeros(W * slot_cap)
        self._n_aw_n = _zeros(W)
        self._n_cw_lv = _zeros(W * slot_cap)
        self._n_cw_n = _zeros(W)
        self._n_rr_link = _zeros(graph.num_links)
        self._n_rr_eject = _zeros(num_nodes)
        self._n_hot_a = _zeros(num_nodes)
        self._n_hot_b = _zeros(num_nodes)
        self._n_hot_flag = np.zeros(max(1, num_nodes), dtype=np.uint8)
        self._n_hot_n = 0
        scratch = self._max_in + 1
        self._n_sc = [_zeros(scratch) for _ in range(4)]

        # Numpy mirror of the (src, dst) -> (offset, hops) route memo
        # for bulk lookup: [sorted pair keys, offsets, hops, memo size
        # at build time].  A shared mutable holder so batch lanes that
        # adopt this core's route plane see one mirror (see
        # :meth:`_adopt_route_plane`).  Slots 4/5 hold an optional
        # dense (src*nn+dst)-indexed offset/hops table (-1 offset =
        # unresolved) — valid because the slice memo is insert-only.
        self._pair_mirror: list = [None, None, None, -1, None, None]
        # Converted int64 route arena [(lv, link, delay) arrays, arena
        # length at conversion] — shared like the mirror, so a batch
        # only re-converts when new routes were appended.
        self._np_routes: list = [None, -1]

    # ------------------------------------------------------------------
    def enable_probes(self) -> None:
        """Start recording the per-packet probe surface.

        Must be called before the first ``run()`` — packets injected
        earlier have no recorded source/destination, which would
        misalign the arrays.
        """
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
        npk = self._num_packets
        p_done = [-1] * npk
        p_t0 = self._p_t0
        latencies = self._latencies
        for i, pid in enumerate(self._eject_pid):
            p_done[pid] = p_t0[pid] + latencies[i]
        p = self.params
        graph = self.graph
        measure_end = self._clock - p.drain_cycles
        return RunRecord(
            core=self.core_id,
            rate=rate,
            num_nodes=graph.num_nodes,
            num_links=graph.num_links,
            num_vcs=self.num_vcs,
            packet_length=p.packet_length,
            measure_start=measure_end - p.measure_cycles,
            measure_end=measure_end,
            measure_cycles=p.measure_cycles,
            active_chips=self._active_chips,
            p_src=list(self._p_src),
            p_dst=list(self._p_dst),
            p_t0=list(p_t0[:npk]),
            p_meas=list(self._p_meas[:npk]),
            p_done=p_done,
            p_hops=list(self._p_hops[:npk]),
            p_off=list(self._p_off[:npk]),
            route_lv=self._route_lv,
            node_chip={
                nid: node.chip for nid, node in enumerate(graph.nodes)
            },
            link_ends=[(l.src, l.dst) for l in graph.links],
            failed_links=failed_links_of(self.routing),
        )

    # ------------------------------------------------------------------
    def injection_probs(self, rate: float) -> List[float]:
        """Per-active-node packet-start probability per cycle."""
        pkt_len = self.params.packet_length
        return [
            rate / (pkt_len * self._nodes_per_chip[nid])
            for nid in self._active_nodes
        ]

    def make_schedule(self, rate: float) -> InjectionSchedule:
        """Sample this run's injection schedule (consumes the numpy RNG)."""
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

    def _route_slice(self, nid: int, dst: int):
        """``(offset, hops)`` into the shared route arrays for a route
        ``nid -> dst``, resolving (and memoising, for deterministic
        routings) on demand.

        Single point of truth for route resolution: the scalar and the
        vectorized pre-pass both call it, so the stdlib RNG sees route
        draws in the same order as the reference core's injection
        phase — the invariant behind cross-core bit-identity.
        """
        sl = (
            self._slice_memo.get((nid, dst))
            if self._deterministic
            else None
        )
        if sl is not None:
            return sl
        if self._route_flat is not None:
            path, path_lv = self._route_flat(nid, dst, self._py_rng)
        else:
            path = tuple(self.routing.route(nid, dst, self._py_rng))
            num_vcs = self.num_vcs
            path_lv = tuple(l * num_vcs + v for l, v in path)
        nhops = len(path_lv)
        if nhops > _MAX_HOPS:
            raise ValueError(
                f"route with {nhops} hops exceeds the native core's hop "
                f"field ({_MAX_HOPS}); use core='reference'"
            )
        route_lv = self._route_lv
        off = len(route_lv)
        route_lv.extend(path_lv)
        route_link = self._route_link
        route_delay = self._route_delay
        hop_delay = self._hop_delay
        for l, _v in path:
            route_link.append(l)
            route_delay.append(hop_delay[l])
        sl = (off, nhops)
        if (
            self._deterministic
            and len(self._slice_memo) < self._slice_memo_max
        ):
            self._slice_memo[(nid, dst)] = sl
        return sl

    # ------------------------------------------------------------------
    def _adopt_route_plane(self, donor: "NativeCore") -> None:
        """Share ``donor``'s route arena, memo and pair mirror.

        Only valid for deterministic routings (a route is a pure
        function of the pair, so lanes can pool resolutions) and only
        before any route was resolved on this core.  Lists are shared
        *by reference*: any lane resolving a new pair extends the one
        arena every lane's packet table points into.
        """
        if not (self._deterministic and donor._deterministic):
            return
        if self._route_lv or self._num_packets:
            raise RuntimeError(
                "route plane adoption must happen before any route is "
                "resolved on this core"
            )
        self._slice_memo = donor._slice_memo
        self._route_lv = donor._route_lv
        self._route_link = donor._route_link
        self._route_delay = donor._route_delay
        self._pair_mirror = donor._pair_mirror
        self._np_routes = donor._np_routes

    def _pair_table(self):
        """Current numpy view of the route memo (rebuilt when stale)."""
        memo = self._slice_memo
        mirror = self._pair_mirror
        if mirror[3] != len(memo):
            nn = self.graph.num_nodes
            n = len(memo)
            keys = np.fromiter(
                (s * nn + d for s, d in memo.keys()),
                dtype=np.int64,
                count=n,
            )
            offs = np.fromiter(
                (v[0] for v in memo.values()), dtype=np.int64, count=n
            )
            hops = np.fromiter(
                (v[1] for v in memo.values()), dtype=np.int64, count=n
            )
            order = np.argsort(keys)
            mirror[0] = keys[order]
            mirror[1] = offs[order]
            mirror[2] = hops[order]
            mirror[3] = n
            if nn * nn <= _DENSE_PAIRS_MAX:
                if mirror[4] is None:
                    mirror[4] = np.full(nn * nn, -1, dtype=np.int64)
                    mirror[5] = np.empty(nn * nn, dtype=np.int64)
                mirror[4][keys] = offs
                mirror[5][keys] = hops
        return mirror

    def _route_slices_bulk(self, srcs: np.ndarray, dsts: np.ndarray):
        """Vectorized ``_route_slice`` over aligned pair arrays.

        Missing pairs are resolved through the scalar single point of
        truth (appending to the shared arena and memo), then looked up
        via the sorted mirror.  Returns ``None`` when the memo cap
        keeps pairs out of the mirror — callers fall back to the
        scalar pre-pass.
        """
        nn = self.graph.num_nodes
        keys = srcs * nn + dsts
        tab = self._pair_table()
        # probe the mirror first: on a warmed route plane every pair
        # hits, and the np.unique pass only runs for actual misses.
        # Small graphs probe a dense table (one gather); larger ones
        # binary-search the sorted key mirror.
        if tab[4] is not None:
            off = tab[4][keys]
            miss = off < 0
            if not miss.any():
                return off, tab[5][keys]
            missing = np.unique(keys[miss])
        elif tab[0] is not None and tab[0].size:
            tk = tab[0]
            pos = np.searchsorted(tk, keys)
            clip = np.minimum(pos, tk.size - 1)
            miss = (pos >= tk.size) | (tk[clip] != keys)
            if not miss.any():
                return tab[1][clip], tab[2][clip]
            missing = np.unique(keys[miss])
        else:
            missing = np.unique(keys)
        route_slice = self._route_slice
        for k in missing.tolist():
            route_slice(int(k // nn), int(k % nn))
        tab = self._pair_table()
        if tab[4] is not None:
            off = tab[4][keys]
            if (off < 0).any():
                return None  # memo cap hit: resolved but unmirrored
            return off, tab[5][keys]
        tk = tab[0]
        pos = np.searchsorted(tk, keys)
        clip = np.minimum(pos, tk.size - 1)
        if ((pos >= tk.size) | (tk[clip] != keys)).any():
            return None  # memo cap hit: pairs resolved but unmirrored
        return tab[1][clip], tab[2][clip]

    # ------------------------------------------------------------------
    def _resolve_packets_vec(
        self, schedule: InjectionSchedule, t0, horizon
    ):
        """Vectorized twin of :meth:`_resolve_packets`.

        Destinations come from the traffic pattern's ``dest_batch``
        hook over a :class:`VecRandom` replica of the stdlib stream,
        routes from the bulk memo mirror — both bit-exact with the
        scalar pre-pass.  Returns ``None`` to decline (non-deterministic
        routing, no/declining hook, un-mirrorable memo); nothing is
        consumed from the RNG in that case, so the scalar path can take
        over from the exact same state.
        """
        if not self._deterministic:
            return None
        dest_batch = getattr(self.traffic, "dest_batch", None)
        if dest_batch is None:
            return None
        vr = VecRandom.for_rng(self._py_rng)
        if vr is None:
            return None
        cycles = schedule.np_cycles
        nodes = schedule.np_nodes
        n_ev = int(np.searchsorted(cycles, horizon, side="left"))
        cycles = cycles[:n_ev]
        nodes = nodes[:n_ev]
        if n_ev == 0:
            return [], [], []
        dsts = dest_batch(nodes, vr)
        if dsts is None:
            return None
        keep = (dsts >= 0) & (dsts != nodes)
        k_src = nodes[keep]
        k_dst = dsts[keep]
        k_t = cycles[keep] + t0
        if k_src.size:
            bulk = self._route_slices_bulk(k_src, k_dst)
            if bulk is None:
                return None  # pre-commit: the RNG was never advanced
            off, nhops = bulk
        else:
            off = nhops = np.empty(0, dtype=np.int64)
        vr.commit()
        warm = t0 + self.params.warmup_cycles
        meas_end = warm + self.params.measure_cycles
        meas = ((k_t >= warm) & (k_t < meas_end)).astype(np.int64)
        pid0 = self._num_packets
        if self._probe_mode:
            # run_record reads the scalar tables; keep them canonical
            self._p_off.extend(off.tolist())
            self._p_hops.extend(nhops.tolist())
            self._p_t0.extend(k_t.tolist())
            self._p_meas.extend(meas.tolist())
            self._p_src.extend(k_src.tolist())
            self._p_dst.extend(k_dst.tolist())
        elif k_src.size:
            self._p_parts.append((off, nhops, k_t, meas))
        n_new = int(k_src.size)
        self._num_packets = pid0 + n_new
        ev_pid = np.arange(pid0, pid0 + n_new, dtype=np.int64)
        return k_t, k_src, ev_pid

    # ------------------------------------------------------------------
    def _resolve_packets(self, schedule: InjectionSchedule, t0, horizon):
        """Resolve every scheduled event into the packet table.

        Consumes the stdlib RNG exactly as the reference core's injection
        phase does (destination draw, then route draw for packets that
        are actually created), so results stay bit-identical.  Events
        at or past the injection window (``horizon`` run-local cycles)
        are dropped *before* any RNG draw, matching the reference
        core's injection gate; stamps are absolute (``t0``-shifted).
        """
        self._flush_packet_parts()
        dest = self.traffic.dest
        py_rng = self._py_rng
        route_slice = self._route_slice
        p_off = self._p_off
        p_hops = self._p_hops
        p_t0 = self._p_t0
        p_meas = self._p_meas
        probing = self._probe_mode
        p_src = self._p_src
        p_dst = self._p_dst

        warm = t0 + self.params.warmup_cycles
        meas_end = warm + self.params.measure_cycles
        ev_cycle: List[int] = []
        ev_src: List[int] = []
        ev_pid: List[int] = []
        npk = self._num_packets
        for t, nid in zip(schedule.cycles, schedule.nodes):
            if t >= horizon:
                break  # cycles are sorted; no RNG consumed past the gate
            t += t0
            dst = dest(nid, py_rng)
            if dst is None or dst == nid:
                continue
            off, nhops = route_slice(nid, dst)
            pid = npk
            npk += 1
            if probing:
                p_src.append(nid)
                p_dst.append(dst)
            p_off.append(off)
            p_hops.append(nhops)
            p_t0.append(t)
            p_meas.append(1 if warm <= t < meas_end else 0)
            ev_cycle.append(t)
            ev_src.append(nid)
            ev_pid.append(pid)
        self._num_packets = npk
        return ev_cycle, ev_src, ev_pid

    def _flush_packet_parts(self) -> None:
        """Fold vectorized packet-table parts back into the scalar
        lists (before a scalar pre-pass appends behind them)."""
        for off, nhops, t, meas in self._p_parts:
            self._p_off.extend(off.tolist())
            self._p_hops.extend(nhops.tolist())
            self._p_t0.extend(t.tolist())
            self._p_meas.extend(meas.tolist())
        self._p_parts.clear()

    def _rebuild_srcq_arena(self, ev_src) -> None:
        """Re-lay the per-node source-queue slices for this run.

        Heads are rewound to slice starts; leftovers from a previous
        run (drain may not empty saturated queues) are copied over, and
        each slice gets room for this run's new events.
        """
        num_nodes = self.graph.num_nodes
        ev_src = np.asarray(ev_src, dtype=np.int64)
        sq_len = self._n_sq_len
        need = sq_len + (
            np.bincount(ev_src, minlength=num_nodes)
            if ev_src.size
            else 0
        )
        off = np.zeros(num_nodes, dtype=np.int64)
        if num_nodes > 1:
            off[1:] = np.cumsum(need[:-1])
        arena = _zeros(int(need.sum()))
        old = self._n_sq_arena
        old_off = self._n_sq_off
        old_head = self._n_sq_head
        for r in np.flatnonzero(sq_len).tolist():
            n = int(sq_len[r])
            start = int(old_off[r] + old_head[r])
            arena[int(off[r]): int(off[r]) + n] = old[start: start + n]
        self._n_sq_arena = arena
        self._n_sq_off = off
        self._n_sq_head = np.zeros(num_nodes, dtype=np.int64)

    # ------------------------------------------------------------------
    def _prepare(
        self,
        rate: float,
        schedule: Optional[InjectionSchedule] = None,
        *,
        vec: bool = False,
    ) -> "_LaneCtx":
        """Everything before the kernel call, minus the state struct:
        schedule sampling, packet pre-resolution (vectorized when
        ``vec`` and the config supports it) and the source-queue arena.
        """
        p = self.params
        probs = self._checked_probs(rate)
        meas = p.measure_cycles
        horizon = p.warmup_cycles + meas
        # absolute cycle stamps: this run covers [t0, t_end)
        t0 = self._clock
        warm = t0 + p.warmup_cycles
        meas_end = warm + meas

        effective_offered = (
            float(np.array(probs, dtype=np.float64).sum())
            * p.packet_length
            / self._active_chips
            if self._active_chips
            else 0.0
        )

        if schedule is None:
            schedule = build_injection_schedule(
                self._active_nodes, probs, horizon, self._np_rng
            )

        ev = self._resolve_packets_vec(schedule, t0, horizon) if vec else None
        if ev is None:
            ev = self._resolve_packets(schedule, t0, horizon)
        ev_cycle, ev_src, ev_pid = ev
        self._rebuild_srcq_arena(ev_src)

        ctx = _LaneCtx()
        ctx.rate = rate
        ctx.meas = meas
        ctx.t0 = t0
        ctx.warm = warm
        ctx.meas_end = meas_end
        ctx.effective_offered = effective_offered
        ctx.np_ev_cycle = _as_i64(ev_cycle)
        ctx.np_ev_src = _as_i64(ev_src)
        ctx.np_ev_pid = _as_i64(ev_pid)
        ctx.n_new = len(ev_pid)
        return ctx

    def _build_state(self, ctx: "_LaneCtx", routes=None) -> _SimState:
        """Pack the kernel's ``struct S`` for a prepared run.

        ``routes`` passes pre-converted shared route arrays (batch
        lanes convert the common arena once); every numpy buffer the
        struct points into is pinned on ``ctx`` until :meth:`_finish`.
        """
        p = self.params
        t0 = ctx.t0
        warm = ctx.warm
        meas_end = ctx.meas_end
        # sized for every latency the kernel may report this run: new
        # packets plus measured leftovers still in flight from earlier
        # runs (each delivered packet reports exactly once)
        out_cap = self._num_packets - len(self._latencies)
        lat_out = ctx.lat_out = _zeros(out_cap)
        hops_out = ctx.hops_out = _zeros(out_cap)
        pid_out = ctx.pid_out = _zeros(out_cap)
        parts = self._p_parts
        if parts and not self._p_off:
            # pure-vectorized history: the parts are already
            # contiguous int64 arrays — no list round-trip
            if len(parts) == 1:
                cols = parts[0]
            else:
                cols = tuple(
                    np.concatenate([pt[i] for pt in parts])
                    for i in range(4)
                )
            np_p_off, np_p_hops, np_p_t0, np_p_meas = (
                _as_i64(c) for c in cols
            )
        else:
            self._flush_packet_parts()
            np_p_off = _as_i64(self._p_off)
            np_p_hops = _as_i64(self._p_hops)
            np_p_t0 = _as_i64(self._p_t0)
            np_p_meas = _as_i64(self._p_meas)
        if routes is None:
            routes = (
                _as_i64(self._route_lv),
                _as_i64(self._route_link),
                _as_i64(self._route_delay),
            )
        np_route_lv, np_route_link, np_route_delay = routes
        np_ev_cycle = ctx.np_ev_cycle
        np_ev_src = ctx.np_ev_src
        np_ev_pid = ctx.np_ev_pid
        n_new = ctx.n_new
        ctx.keepalive = (
            np_p_off, np_p_hops, np_p_t0, np_p_meas,
            np_route_lv, np_route_link, np_route_delay,
        )

        st = _SimState(
            num_nodes=self.graph.num_nodes,
            num_links=self.graph.num_links,
            num_lv=self._num_lv,
            wheel_size=self._wheel_size,
            slot_cap=self._slot_cap,
            buf_cap=p.vc_buffer_size,
            max_in=self._max_in,
            pkt_len=p.packet_length,
            inj_w=p.injection_width,
            ej_w=p.ejection_width,
            warm=warm,
            meas_end=meas_end,
            t_end=meas_end + p.drain_cycles,
            t0=t0,
            n_ev=n_new,
            n_lat=0,
            tfi=self.total_flits_injected,
            tfe=self.total_flits_ejected,
            pm=self._packets_measured,
            few=self._flits_ejected_window,
            hot_n=self._n_hot_n,
            error=0,
            cap=_ptr(self._n_cap),
            lv_dst=_ptr(self._n_lv_dst),
            cap_lv=_ptr(self._n_cap_lv),
            cdel_lv=_ptr(self._n_cdel_lv),
            credits=_ptr(self._n_credits),
            owner=_ptr(self._n_owner),
            buf=_ptr(self._n_buf),
            b_head=_ptr(self._n_b_head),
            b_len=_ptr(self._n_b_len),
            ne_arr=_ptr(self._n_ne_arr),
            ne_len=_ptr(self._n_ne_len),
            sq_arena=_ptr(self._n_sq_arena),
            sq_off=_ptr(self._n_sq_off),
            sq_head=_ptr(self._n_sq_head),
            sq_len=_ptr(self._n_sq_len),
            s_fidx=_ptr(self._n_s_fidx),
            aw_f=_ptr(self._n_aw_f),
            aw_lv=_ptr(self._n_aw_lv),
            aw_n=_ptr(self._n_aw_n),
            cw_lv=_ptr(self._n_cw_lv),
            cw_n=_ptr(self._n_cw_n),
            rr_link=_ptr(self._n_rr_link),
            rr_eject=_ptr(self._n_rr_eject),
            hot_a=_ptr(self._n_hot_a),
            hot_b=_ptr(self._n_hot_b),
            hot_flag=self._n_hot_flag.ctypes.data_as(_u8p),
            p_off=_ptr(np_p_off),
            p_hops=_ptr(np_p_hops),
            p_t0=_ptr(np_p_t0),
            p_meas=_ptr(np_p_meas),
            route_lv=_ptr(np_route_lv),
            route_link=_ptr(np_route_link),
            route_delay=_ptr(np_route_delay),
            ev_cycle=_ptr(np_ev_cycle),
            ev_src=_ptr(np_ev_src),
            ev_pid=_ptr(np_ev_pid),
            lat_out=_ptr(lat_out),
            hops_out=_ptr(hops_out),
            pid_out=_ptr(pid_out),
            sc_desc=_ptr(self._n_sc[0]),
            sc_key=_ptr(self._n_sc[1]),
            sc_cand=_ptr(self._n_sc[2]),
            sc_used=_ptr(self._n_sc[3]),
        )
        ctx.st = st
        return st

    def _finish(self, ctx: "_LaneCtx", st: _SimState) -> SimResult:
        """Read the kernel's outputs back and build the result.

        ``st`` is the struct the kernel actually ran (for batches, the
        lane's slot in the packed array — not the ``ctx.st`` template
        it was copied from).
        """
        p = self.params
        self._n_hot_n = int(st.hot_n)
        self._clock = ctx.meas_end + p.drain_cycles
        self.total_flits_injected = int(st.tfi)
        self.total_flits_ejected = int(st.tfe)
        self._packets_measured = int(st.pm)
        self._flits_ejected_window = int(st.few)
        n_lat = int(st.n_lat)
        self._latencies.extend(ctx.lat_out[:n_lat].tolist())
        self._hops.extend(ctx.hops_out[:n_lat].tolist())
        if self._probe_mode:
            self._eject_pid.extend(ctx.pid_out[:n_lat].tolist())

        return SimResult.from_samples(
            offered_rate=ctx.rate,
            effective_offered=ctx.effective_offered,
            latencies=self._latencies,
            hops=self._hops,
            packets_measured=self._packets_measured,
            flits_ejected=self._flits_ejected_window,
            active_chips=self._active_chips,
            measure_cycles=ctx.meas,
        )

    def run(
        self,
        rate: float,
        schedule: Optional[InjectionSchedule] = None,
    ) -> SimResult:
        """Run the full warmup+measure+drain schedule at ``rate``."""
        ctx = self._prepare(rate, schedule)
        st = self._build_state(ctx)
        err = self._lib.sim_run(ctypes.byref(st))
        if err:
            raise RuntimeError(
                f"native simulation kernel failed (error code {err})"
            )
        return self._finish(ctx, st)

    @classmethod
    def run_batch(
        cls,
        graph,
        routing,
        traffic,
        params,
        lanes,
        *,
        threads: Optional[int] = None,
        probes: bool = False,
        schedules=None,
    ):
        """Run N replica lanes through one packed kernel call.

        ``lanes`` is a sequence of ``(seed, rate)`` pairs; each lane is
        a fresh core over the shared graph/routing/traffic with
        ``params`` reseeded per lane.  Returns ``(cores, results)`` —
        the cores so probed callers can pull :meth:`run_record`.
        """
        batch = NativeBatch(
            graph,
            routing,
            traffic,
            params,
            [seed for seed, _ in lanes],
            probes=probes,
        )
        results = batch.run(
            [rate for _, rate in lanes],
            schedules=schedules,
            threads=threads,
        )
        return batch.lanes, results

    # ------------------------------------------------------------------
    def flits_in_flight(self) -> int:
        """Flits currently buffered or on wires (conservation checks)."""
        return int(self._n_b_len.sum()) + int(self._n_aw_n.sum())


class NativeBatch:
    """N replica lanes of one configuration, run as one kernel call.

    Each lane is an isolated :class:`NativeCore` (own seed-derived RNG
    streams, flit/VC/credit/latency state); what the lanes *share* is
    the read-only route plane: for deterministic routings every lane
    adopts the first lane's route arena, (src, dst) memo and numpy pair
    mirror, so each route slice is resolved once per batch instead of
    once per lane.  Packet pre-resolution uses the vectorized pre-pass
    when the traffic pattern offers ``dest_batch`` (falling back to the
    scalar resolve per lane otherwise), the per-lane ``struct S``
    states are packed into one contiguous ctypes array, and a single
    ``sim_run_batch`` call walks the lanes — threaded over
    :func:`resolve_threads` workers pulling lanes from an atomic
    cursor, which is bit-identical to the serial loop because lanes
    share no mutable state.

    A batch is **one-shot**: lanes accumulate measurement state, so
    ``run()`` raises on reuse.  Build a fresh batch per lane set (as
    :func:`repro.network.simulator.run_batch` and the engine do).  To
    amortise route resolution *across* batches of the same
    configuration, pass a previous batch's :attr:`route_donor` as
    ``route_donor`` — the new lanes adopt its already-resolved route
    plane instead of starting from an empty memo (the arena is
    append-only, so a stale donor is never wrong, just partial).
    """

    def __init__(
        self,
        graph,
        routing,
        traffic,
        params,
        seeds,
        *,
        probes: bool = False,
        route_donor: Optional[NativeCore] = None,
    ) -> None:
        self.lanes: List[NativeCore] = []
        donor: Optional[NativeCore] = None
        if (
            route_donor is not None
            and route_donor.graph is graph
            and route_donor.routing is routing
            and route_donor._deterministic
        ):
            donor = route_donor
        for seed in seeds:
            core = NativeCore(
                graph, routing, traffic, params.scaled(seed=int(seed))
            )
            if probes:
                core.enable_probes()
            if donor is None:
                donor = core
            else:
                core._adopt_route_plane(donor)
            self.lanes.append(core)
        self._shared_routes = (
            donor is not None
            and donor._deterministic
            and all(
                core._route_lv is donor._route_lv for core in self.lanes
            )
        )
        #: lane whose route plane a follow-up batch of the same
        #: (graph, routing) can adopt via the ``route_donor`` argument.
        self.route_donor: Optional[NativeCore] = (
            self.lanes[0] if self._shared_routes else None
        )
        self._ran = False

    def __len__(self) -> int:
        return len(self.lanes)

    def run(
        self,
        rates,
        schedules=None,
        *,
        threads: Optional[int] = None,
    ) -> List[SimResult]:
        """Run lane ``i`` at ``rates[i]`` (optionally pinning
        ``schedules[i]``); returns per-lane results in lane order."""
        if self._ran:
            raise RuntimeError(
                "NativeBatch is one-shot: lanes accumulate measurement "
                "state — build a fresh batch per lane set"
            )
        self._ran = True
        n = len(self.lanes)
        if len(rates) != n:
            raise ValueError(
                f"{len(rates)} rates for {n} lanes"
            )
        if schedules is not None and len(schedules) != n:
            raise ValueError(
                f"{len(schedules)} schedules for {n} lanes"
            )
        if n == 0:
            return []
        ctxs = [
            core._prepare(
                rates[i],
                schedules[i] if schedules is not None else None,
                vec=True,
            )
            for i, core in enumerate(self.lanes)
        ]
        # all lanes resolved: the shared arena is final, convert once
        # (and keep the conversion on the shared plane so a follow-up
        # batch adopting it re-converts only if routes were appended)
        routes = None
        if self._shared_routes:
            donor = self.lanes[0]
            cached = donor._np_routes
            if cached[1] != len(donor._route_lv):
                cached[0] = (
                    _as_i64(donor._route_lv),
                    _as_i64(donor._route_link),
                    _as_i64(donor._route_delay),
                )
                cached[1] = len(donor._route_lv)
            routes = cached[0]
        states = (_SimState * n)()
        for i, (core, ctx) in enumerate(zip(self.lanes, ctxs)):
            states[i] = core._build_state(ctx, routes)
        lib = self.lanes[0]._lib
        err = lib.sim_run_batch(states, n, resolve_threads(n, threads))
        if err:
            codes = [int(states[i].error) for i in range(n)]
            raise RuntimeError(
                "native batch kernel failed "
                f"(first error {err}; per-lane codes {codes})"
            )
        return [
            core._finish(ctx, states[i])
            for i, (core, ctx) in enumerate(zip(self.lanes, ctxs))
        ]

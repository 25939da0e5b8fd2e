"""Execution of experiment specs: one scheduler over lane chunks.

The unit of *result* is one ``(spec, rate)`` point.  Points are
simulated with :func:`~repro.engine.spec.point_seed`-derived seeds, so
a point's result is a pure function of the spec and rate — identical
whether it runs in this process, in a pool worker, packed into a
batched kernel call, or in a previous session whose result is replayed
from the :class:`~repro.engine.cache.ResultCache`.

The unit of *work* is a task: the next missing rates of one sweep, in
cutoff order.  The lane kind follows from what the session can run:

* an open-loop spec on a native-core session packs up to
  ``max(_BATCH_CHUNK_MIN, threads)`` rates into one
  :class:`~repro.network.native.NativeBatch` kernel call, handing the
  resolved route plane from chunk to chunk through a worker-local LRU;
* every other spec (closed-loop workloads, reference-core sessions)
  runs one rate per task through :func:`simulate_point`.

Rates are walked in order and each sweep is cut off after
``stop_after_saturation`` saturated points.  Tasks in flight when a
cutoff is decided run *speculatively*: their points are cached but
excluded from the returned sweep.  That is what lets one sweep's
points run concurrently (and a whole chunk share one kernel call).
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import sys
import time
from collections import OrderedDict
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..network.native import THREADS_ENV, NativeBatch
from ..obs import REGISTRY
from ..obs import trace as obs_trace
from ..network.simulator import (
    Simulator,
    _attach_probe_channels,
    _resolve_core,
)
from ..network.stats import SimResult
from ..network.sweep import LoadSweep, assemble_sweep, cutoff_walk
from .cache import ResultCache
from .spec import (
    ENGINE_VERSION,
    ExperimentSpec,
    build_experiment,
    build_metrics,
    build_routing,
    build_system,
    point_key,
    point_seed,
)

__all__ = [
    "PointCallback",
    "PointFailure",
    "run_experiments",
    "simulate_point",
    "spec_saturation",
]


class PointFailure(RuntimeError):
    """A task (one point, or one packed chunk) that keeps killing its
    worker process.

    Raised after a crash suspect re-ran solo and crashed again through
    its retry budget — a *poison* input.  A dead worker only ever fails
    the tasks it was carrying: everything else in the run completes (or
    is retried) normally.
    """

#: signature of the optional per-point completion hook of
#: :func:`run_experiments`: ``on_point(spec_index, rate_index, rate,
#: result, source)`` where ``source`` is ``"cache"`` for replayed
#: points and ``"fresh"`` for newly simulated ones.  Exceptions raised
#: by the hook abort the run (the point it was called for is already
#: in the cache).
PointCallback = Callable[[int, int, float, SimResult, str], None]

logger = logging.getLogger("repro.engine")

# runtime telemetry (repro.obs).  Counters/histograms are recorded in
# the *parent* process only — pool workers have their own (discarded)
# registry copies; their spans still land via the REPRO_SPANLOG file.
_M_POINTS = REGISTRY.counter(
    "engine_points_total",
    "Points delivered by run_experiments "
    "(source=cache replayed, source=fresh simulated)",
    ("source",),
)
_M_POINT_SECONDS = REGISTRY.histogram(
    "engine_point_seconds",
    "Wall time per freshly simulated point where it ran "
    "(a packed chunk's time is split evenly over its lanes)",
)
_M_CRASHES = REGISTRY.counter(
    "engine_worker_crashes_total",
    "Engine pool crashes (a worker died mid-task)",
)
_M_BATCH_LANES = REGISTRY.histogram(
    "engine_batch_lanes",
    "Lanes packed per batched kernel dispatch (occupancy)",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128),
)

#: environment override for the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: environment override for the per-task retry budget: how many times
#: a task that *raised* (not crashed) is re-attempted before its error
#: propagates.  Crash retries (dead worker) use the same budget.
POINT_RETRIES_ENV = "REPRO_POINT_RETRIES"

#: minimum lanes per batch dispatch.  Each chunk is one packed kernel
#: call; points past a saturation cutoff inside the final chunk are
#: speculative (cached but excluded from the sweep), exactly like
#: in-flight pool tasks — so the chunk size bounds speculation the same
#: way ``workers`` does.  Eight lanes amortize per-chunk setup (batch
#: construction, route-plane lookups) measurably better than four while
#: still keeping at most seven speculative points past a cutoff.
_BATCH_CHUNK_MIN = 8

# Worker-local reuse of built topologies and routings: building a graph
# can cost as much as simulating a low-rate point, every point of a
# sweep shares one, and a reused deterministic routing carries its
# (src, dst) -> path memo from point to point.  Keyed by the spec
# fields that define each object.
_SYSTEM_LRU_SIZE = 4
_systems: "OrderedDict[Tuple, object]" = OrderedDict()
_routings: "OrderedDict[Tuple, object]" = OrderedDict()
# Packed lanes only: the donor core carrying a routing's resolved route
# plane (arena + memo + numpy mirrors), keyed like _routings, so
# consecutive chunks of one configuration skip route resolution
# entirely.  Per-point lanes keep a fresh core that resolves lazily.
_route_planes: "OrderedDict[Tuple, object]" = OrderedDict()

#: a task: ``(spec index, rate indices)`` — one sweep's next missing
#: rates in cutoff order, computed together by one lane runner.
Task = Tuple[int, Tuple[int, ...]]


def _lru_put(table: "OrderedDict[Tuple, object]", key: Tuple, obj) -> None:
    table[key] = obj
    table.move_to_end(key)
    while len(table) > _SYSTEM_LRU_SIZE:
        table.popitem(last=False)


def _lru_get(table: "OrderedDict[Tuple, object]", key: Tuple, build):
    obj = table.get(key)
    if obj is None:
        obj = build()
    _lru_put(table, key, obj)
    return obj


def _realise(spec: ExperimentSpec):
    """``(graph, routing, traffic, routing_key)`` for a spec, reusing
    the worker-local system and routing.

    The fault axis is part of the routing identity: a fault-aware
    wrapper (and its repair trees / route memo) must never be reused
    for a different fault instance, nor for the healthy system.
    """
    topo_key = (spec.topology, spec.topology_opts)
    system = _lru_get(_systems, topo_key, lambda: build_system(spec))
    routing_key = topo_key + (spec.routing, spec.routing_opts, spec.faults)
    routing = _lru_get(
        _routings, routing_key, lambda: build_routing(spec, system)
    )
    graph, routing, traffic = build_experiment(
        spec, system=system, routing=routing
    )
    return graph, routing, traffic, routing_key


def _chaos_point(spec: ExperimentSpec, rate: float) -> None:
    if os.environ.get("REPRO_CHAOS"):
        # fault injection (tests only): lazy so the production path
        # never imports the service layer; see repro.service.chaos
        from ..service import chaos

        chaos.engine_point(f"{spec.label or spec.describe()}@{rate:g}")


def simulate_point(spec: ExperimentSpec, rate: float) -> SimResult:
    """Simulate one point with its deterministic derived seed."""
    _chaos_point(spec, rate)
    graph, routing, traffic, _ = _realise(spec)
    if spec.workload:
        # closed-loop: phase-scheduled injection, window = makespan
        from ..workload.driver import run_closed_loop

        return run_closed_loop(spec, graph, routing, traffic, rate)
    params = spec.params.scaled(seed=point_seed(spec, rate))
    return Simulator(
        graph, routing, traffic, params, probes=build_metrics(spec)
    ).run(rate)


def _packed_lanes(
    spec: ExperimentSpec, rates: Sequence[float], threads: int
) -> List[SimResult]:
    """One packed native kernel call over ``rates``.

    Each lane keeps the :func:`~repro.engine.spec.point_seed` value
    :func:`simulate_point` would use, so every result is bit-identical
    to the per-point path.  The resolved route plane is handed from
    chunk to chunk (``route_donor``), so each (src, dst) route is
    resolved once per configuration, not once per chunk.
    """
    label = spec.label or spec.describe()
    with obs_trace.span("route.resolve", label=label):
        graph, routing, traffic, routing_key = _realise(spec)
    for rate in rates:
        _chaos_point(spec, rate)
    probes = build_metrics(spec)
    # NativeBatch validates the donor (same graph/routing objects,
    # deterministic) and silently ignores a stale one, so a plane
    # whose routing was rebuilt after LRU eviction is never misused.
    donor = _route_planes.get(routing_key)
    with obs_trace.span(
        "kernel.prepare", lanes=len(rates), donor=donor is not None
    ):
        batch = NativeBatch(
            graph,
            routing,
            traffic,
            spec.params,
            [point_seed(spec, rate) for rate in rates],
            probes=bool(probes),
            route_donor=donor,
        )
    with obs_trace.span("kernel.run", lanes=len(rates), threads=threads):
        results = batch.run(list(rates), threads=threads)
    donor = batch.route_donor or donor
    if donor is not None:
        _lru_put(_route_planes, routing_key, donor)
    if probes:
        with obs_trace.span("probe.decode", lanes=len(rates)):
            for rate, core, res in zip(rates, batch.lanes, results):
                _attach_probe_channels(core, rate, probes, res)
    return results


def _point_lanes(
    spec: ExperimentSpec, rates: Sequence[float]
) -> List[SimResult]:
    """One :func:`simulate_point` per lane (closed-loop and
    reference-core tasks, whose chunk width is 1)."""
    out = []
    for rate in rates:
        with obs_trace.span(
            "engine.point",
            label=spec.label or spec.describe(),
            rate=rate,
            worker=os.getpid(),
        ):
            out.append(simulate_point(spec, rate))
    return out


def _point_retries() -> int:
    env = os.environ.get(POINT_RETRIES_ENV)
    if env:
        return max(0, int(env))
    return 1


def _run_task(
    spec: ExperimentSpec, ris: Tuple[int, ...], threads: int
) -> Tuple[List[SimResult], float]:
    """The lane runner: compute one task, in this process or a worker.

    ``threads > 0`` packs the task into one native kernel call with
    that many lane threads; ``0`` runs its lanes one by one.  A raising
    task is re-attempted up to ``REPRO_POINT_RETRIES`` extra times
    (results are pure functions of ``(spec, rate)``, so a retry is
    exact); the last error propagates.  Worker *crashes* cannot be
    handled here — the scheduler contains those.  Returns the results
    and the task's wall seconds.

    Spans parent to the ``REPRO_TRACEPARENT`` carrier and land in the
    ``REPRO_SPANLOG`` file (both inherited through the pool), so
    worker-side timings join the submitting job's trace.
    """
    rates = [spec.rates[ri] for ri in ris]
    t0 = time.perf_counter()
    attempt = 0
    while True:
        attempt += 1
        try:
            if threads:
                results = _packed_lanes(spec, rates, threads)
            else:
                results = _point_lanes(spec, rates)
            return results, time.perf_counter() - t0
        except Exception as exc:
            if attempt > _point_retries():
                raise
            logger.warning(
                "%s rates=%s attempt %d failed (%s: %s); retrying",
                spec.describe(),
                _fmt_rates(rates),
                attempt,
                type(exc).__name__,
                exc,
            )


def _fmt_rates(rates: Sequence[float]) -> str:
    return ",".join(f"{rate:.3f}" for rate in rates)


def _resolve_workers(
    workers: Optional[int],
    total_points: int,
    kernel_threads: int = 1,
) -> int:
    """Pool size: explicit/env/cpu-count default, clamped to both the
    amount of work and the machine.  Oversubscribing a CPU-bound
    simulation only adds pool overhead — an early benchmark forced 4
    workers onto a 1-CPU host and reported the resulting 0.7x slowdown
    as a parallel 'speedup'.

    ``kernel_threads`` is how many threads each worker's kernel calls
    will spin up (packed lanes' threads); the clamp keeps
    ``workers x kernel_threads <= cpu_count`` so process- and
    thread-level parallelism never multiply into oversubscription.
    """
    cpus = os.cpu_count() or 1
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        workers = int(env) if env else cpus
    budget = max(1, cpus // max(1, kernel_threads))
    return max(1, min(workers, total_points, budget))


def _kernel_threads() -> int:
    """Lane threads per packed kernel call (``REPRO_SIM_THREADS`` or
    the CPU count; :func:`repro.network.native.resolve_threads` clamps
    to the actual lane count per call)."""
    env = os.environ.get(THREADS_ENV)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _pool_context():
    # fork is the cheap path but is only reliably safe on Linux; macOS
    # made spawn the default because forking a process with Objective-C
    # / Accelerate state aborts or hangs in the child.
    if sys.platform.startswith("linux"):
        methods = mp.get_all_start_methods()
        if "fork" in methods:
            return mp.get_context("fork")
    return mp.get_context("spawn")


class _Inline:
    """Executor stand-in for ``workers <= 1``: each task runs in this
    process when it is submitted and comes back as a finished future,
    so the inline and pooled runs share one scheduling loop."""

    def __enter__(self) -> "_Inline":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------
def run_experiments(
    specs: Sequence[ExperimentSpec],
    *,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    stop_after_saturation: int = 1,
    on_point: Optional[PointCallback] = None,
) -> List[LoadSweep]:
    """Run every spec's sweep and assemble one :class:`LoadSweep` each.

    Parameters
    ----------
    specs:
        Experiments to run; one :class:`LoadSweep` is returned per spec,
        in order.
    workers:
        Pool size.  ``None`` reads ``REPRO_WORKERS`` and falls back to
        the CPU count; ``<= 1`` runs tasks inline in this process, one
        sweep after another in rate order.  When every spec runs packed
        native lanes, workers parallelise *sweeps* while kernel threads
        parallelise lanes within a chunk, clamped together so
        ``workers x threads <= cpu_count``; otherwise every task is one
        lane and workers parallelise points (native chunks of a mixed
        study then get one kernel thread each).
    cache:
        Optional on-disk store; previously simulated points are loaded
        instead of re-run, and fresh points are written back.
    stop_after_saturation:
        Cut each sweep off after this many saturated points (past
        saturation the latency is unbounded anyway).
    on_point:
        Optional :data:`PointCallback` invoked in *this* process as each
        point completes — cache replays first (``source="cache"``), then
        fresh points in completion order (``source="fresh"``).  Its
        events may be a superset of the returned sweeps: speculative
        points past a saturation cutoff are reported (and cached) but
        excluded from the assembled results.  Raising from the hook
        aborts the run; already-completed points stay cached, which is
        how the service layer implements job cancellation.
    """
    if stop_after_saturation < 1:
        raise ValueError("stop_after_saturation must be >= 1")
    specs = list(specs)
    have: List[Dict[int, SimResult]] = [{} for _ in specs]

    with obs_trace.span("engine.run", specs=len(specs)) as run_span:
        # Replay every cached point first: cutoffs may be decided.
        if cache is not None:
            with obs_trace.span("engine.cache_replay") as replay_span:
                replayed = 0
                for si, spec in enumerate(specs):
                    for ri, rate in enumerate(spec.rates):
                        res = cache.get(point_key(spec, rate))
                        if res is not None:
                            have[si][ri] = res
                            replayed += 1
                            if on_point is not None:
                                on_point(si, ri, rate, res, "cache")
                if replayed:
                    _M_POINTS.inc(replayed, source="cache")
                replay_span.set(points=replayed)

        total_missing = sum(
            1
            for si, spec in enumerate(specs)
            for ri in range(len(spec.rates))
            if ri not in have[si]
        )
        workers, threads = _plan(
            specs, have, workers, stop_after_saturation, total_missing
        )
        run_span.set(missing=total_missing, workers=workers)
        t0 = time.perf_counter()

        # Advertise the ambient context to pool workers: the pool is
        # created inside this window, so forked and spawned children
        # alike inherit the carrier and parent their spans correctly
        # (spans land via REPRO_SPANLOG).
        ctx = obs_trace.current_context()
        saved = os.environ.get(obs_trace.TRACEPARENT_ENV)
        saved_pid = os.environ.get(obs_trace.TRACEPARENT_PID_ENV)
        if ctx is not None and obs_trace.tracing_active():
            os.environ[obs_trace.TRACEPARENT_ENV] = (
                obs_trace.format_traceparent(ctx)
            )
            # mark the carrier as ours: only *child* processes read it
            os.environ[obs_trace.TRACEPARENT_PID_ENV] = str(os.getpid())
        try:
            if total_missing:
                _schedule(
                    specs, have, cache, stop_after_saturation, workers,
                    threads, on_point,
                )
        finally:
            if saved is None:
                os.environ.pop(obs_trace.TRACEPARENT_ENV, None)
            else:
                os.environ[obs_trace.TRACEPARENT_ENV] = saved
            if saved_pid is None:
                os.environ.pop(obs_trace.TRACEPARENT_PID_ENV, None)
            else:
                os.environ[obs_trace.TRACEPARENT_PID_ENV] = saved_pid

        sweeps = [
            assemble_sweep(
                spec.label or spec.describe(),
                spec.rates,
                have[si],
                stop_after_saturation,
            )
            for si, spec in enumerate(specs)
        ]
        logger.info(
            "ran %d spec(s) (%d points missing of %d) with %d "
            "worker(s) in %.2fs",
            len(specs),
            total_missing,
            sum(len(s.rates) for s in specs),
            workers,
            time.perf_counter() - t0,
        )
    return sweeps


def _plan(
    specs: Sequence[ExperimentSpec],
    have: List[Dict[int, SimResult]],
    workers: Optional[int],
    stop_after_saturation: int,
    total_missing: int,
) -> Tuple[int, int]:
    """Pool size and the kernel threads of packed lanes (0: no packed
    lanes — a reference-core session runs every task per point)."""
    if not total_missing:
        return 1, 0
    if _resolve_core(None) != "native":
        return _resolve_workers(workers, total_missing), 0
    if any(spec.workload for spec in specs):
        # closed-loop specs run per point: size the pool per lane and
        # give the open-loop chunks one kernel thread each
        return _resolve_workers(workers, total_missing), 1
    # all packed: a worker per incomplete sweep at most, and kernel
    # threads fill the rest of the machine
    threads = _kernel_threads()
    incomplete = sum(
        1
        for si, spec in enumerate(specs)
        if not cutoff_walk(len(spec.rates), have[si], stop_after_saturation)[0]
    )
    return (
        _resolve_workers(workers, incomplete, kernel_threads=threads),
        threads,
    )


def _store(
    cache: Optional[ResultCache],
    spec: ExperimentSpec,
    rate: float,
    res: SimResult,
) -> None:
    if cache is not None:
        cache.put(
            point_key(spec, rate),
            res,
            # the engine version is hashed into the key, so stamping it
            # here is redundant for lookups — but it lets the store's
            # stats scan report the version mix of a long-lived
            # directory (see ``repro-dragonfly cache stats``)
            meta={
                "label": spec.label,
                "rate": rate,
                "engine": ENGINE_VERSION,
            },
        )


def _schedule(
    specs: Sequence[ExperimentSpec],
    have: List[Dict[int, SimResult]],
    cache: Optional[ResultCache],
    stop_after_saturation: int,
    workers: int,
    threads: int,
    on_point: Optional[PointCallback] = None,
) -> None:
    """Completion-driven scheduler over tasks: workers never idle on a
    barrier.

    Up to ``workers`` tasks are in flight at once, drawn round-robin
    across incomplete sweeps in rate order; each completion immediately
    refills the freed slot.  With ``threads > 0`` an open-loop sweep's
    task packs ``max(_BATCH_CHUNK_MIN, threads)`` rates into one kernel
    call on that many threads; every other task is one rate.
    Saturation cutoffs are re-evaluated on every completion, so a sweep
    that saturates stops feeding new tasks (in-flight ones finish, are
    cached, and are simply excluded by the final assembly — results are
    order-independent thanks to the per-point derived seeds).  With
    ``workers <= 1`` the same loop runs each task inline, so sweeps
    complete one after another.

    **Crash containment.**  A worker dying (SIGKILL, segfault, OOM)
    breaks the whole ``ProcessPoolExecutor``; every in-flight task is
    lost but nothing tells us *which* task killed it.  The lost tasks
    go on **probation**: a fresh pool re-runs them one at a time, so a
    poison task crashes solo and is blamed definitively — after the
    retry budget it raises :class:`PointFailure`; innocent casualties
    complete on their first probation pass and the scheduler resumes
    full-width.  Completed points are already cached, so a crash never
    loses finished work.
    """
    max_crashes = 1 + _point_retries()
    crashes: Dict[Task, int] = {}
    probation: List[Task] = []
    packed = [bool(threads) and not spec.workload for spec in specs]
    width = max(_BATCH_CHUNK_MIN, threads)

    def submit(pool, task: Task) -> Future:
        si, ris = task
        return pool.submit(
            _run_task, specs[si], ris, threads if packed[si] else 0
        )

    def record(task: Task, future: Future) -> None:
        results, elapsed = future.result()
        si, ris = task
        spec = specs[si]
        logger.debug(
            "%s rates=%s done in %.2fs",
            spec.describe(), _fmt_rates(spec.rates[ri] for ri in ris),
            elapsed,
        )
        if packed[si]:
            _M_BATCH_LANES.observe(len(ris))
        for ri, res in zip(ris, results):
            have[si][ri] = res
            _M_POINTS.inc(source="fresh")
            _M_POINT_SECONDS.observe(elapsed / len(ris))
            if cache is not None:
                with obs_trace.span("store.write", rate=spec.rates[ri]):
                    _store(cache, spec, spec.rates[ri], res)
            if on_point is not None:
                on_point(si, ri, spec.rates[ri], res, "fresh")

    def next_tasks(inflight: Set[Tuple[int, int]], limit: int) -> List[Task]:
        """Tasks to submit, round-robin across incomplete sweeps."""
        queues = []
        for si, spec in enumerate(specs):
            complete, first = cutoff_walk(
                len(spec.rates), have[si], stop_after_saturation
            )
            if complete:
                continue
            pending = [
                ri
                for ri in range(first, len(spec.rates))
                if ri not in have[si] and (si, ri) not in inflight
            ]
            step = width if packed[si] else 1
            queue = [
                (si, tuple(pending[i:i + step]))
                for i in range(0, len(pending), step)
            ]
            if queue:
                queues.append(queue)
        picked: List[Task] = []
        depth = 0
        while len(picked) < limit and queues:
            progressed = False
            for queue in queues:
                if depth >= len(queue) or len(picked) >= limit:
                    continue
                picked.append(queue[depth])
                progressed = True
            if not progressed:
                break
            depth += 1
        return picked

    while True:
        inflight_now: List[Task] = []
        try:
            with (
                _Inline() if workers <= 1
                else ProcessPoolExecutor(
                    max_workers=workers, mp_context=_pool_context()
                )
            ) as pool:
                # probation: crash suspects re-run solo for blame
                while probation:
                    task = probation[0]
                    inflight_now = [task]
                    record(task, submit(pool, task))
                    probation.pop(0)
                    crashes.pop(task, None)
                futures: Dict[Future, Task] = {}

                def refill() -> None:
                    inflight = {
                        (si, ri)
                        for si, ris in futures.values()
                        for ri in ris
                    }
                    for task in next_tasks(inflight, workers - len(futures)):
                        futures[submit(pool, task)] = task

                refill()
                while futures:
                    inflight_now = list(futures.values())
                    done, _ = wait(set(futures), return_when=FIRST_COMPLETED)
                    for future in done:
                        record(futures.pop(future), future)
                    refill()
                return
        except BrokenProcessPool:
            _M_CRASHES.inc()
            lost = [
                (si, ris)
                for si, ris in inflight_now
                if any(ri not in have[si] for ri in ris)
            ]
            if len(lost) == 1:
                task = lost[0]
                crashes[task] = crashes.get(task, 0) + 1
                if crashes[task] >= max_crashes:
                    si, ris = task
                    raise PointFailure(
                        f"{specs[si].describe()} rates="
                        f"{_fmt_rates(specs[si].rates[ri] for ri in ris)}"
                        f" crashed its worker process {crashes[task]} "
                        "time(s); giving up on this task (other tasks "
                        "completed normally)"
                    ) from None
            probation = lost + [p for p in probation if p not in lost]
            logger.warning(
                "engine pool crashed (worker died); re-running %d "
                "lost task(s) under probation",
                len(lost),
            )


def spec_saturation(
    spec: ExperimentSpec,
    *,
    lo: float = 0.05,
    hi: float = 4.0,
    tol: float = 0.05,
    max_iter: int = 12,
    cache: Optional[ResultCache] = None,
) -> float:
    """Bisect a spec's saturation rate (flits/cycle/chip): the highest
    probed rate that is *not* saturated, within ``tol``.

    Returns ``0.0`` when ``lo`` already saturates and ``hi`` when even
    ``hi`` does not.  Probes reuse the worker-local system and, when a
    ``cache`` is given, are persisted like any other point, so repeated
    searches converge from cached probes.
    """

    def probe(rate: float) -> bool:
        res = None
        if cache is not None:
            res = cache.get(point_key(spec, rate))
        if res is None:
            res = simulate_point(spec, rate)
            _store(cache, spec, rate, res)
        return res.saturated

    if probe(lo):
        return 0.0
    if not probe(hi):
        return hi
    good, bad = lo, hi
    for _ in range(max_iter):
        if bad - good <= tol:
            break
        mid = 0.5 * (good + bad)
        if probe(mid):
            bad = mid
        else:
            good = mid
    return good

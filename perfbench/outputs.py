"""Workload inputs from a seed, and digests of what the program returns.

A digest covers only simulated statistics, never host timings, so it
must not move for a change that only makes the simulator faster.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import replace
from typing import Dict, List, Tuple

#: bundled study and scale behind each workload (for ``service_mix``,
#: the hot study its client resubmits).
STUDIES = {
    "fig10_local_full": ("fig10_local", "full"),
    "fig11_global": ("fig11_global", "default"),
    "allreduce_closed_loop": ("workload", "default"),
    "service_mix": ("smoke", "default"),
}


def reseed(study, seed: int):
    """The study with ``SimParams.seed`` replaced in every spec.

    The seed is part of each spec's hash, so every point gets a new
    derived RNG stream and a new cache key.
    """
    return replace(
        study,
        scenarios=tuple(
            replace(
                scn,
                specs=tuple(
                    replace(s, params=s.params.scaled(seed=int(seed)))
                    for s in scn.specs
                ),
            )
            for scn in study.scenarios
        ),
    )


def _num(value) -> str:
    value = float(value)
    return "nan" if math.isnan(value) else repr(value)


def point_stats(res) -> Tuple:
    """The simulated statistics of one point, as exact strings.

    Closed-loop points add the makespan and every phase's completion
    time from their ``cct`` channel.
    """
    stats = [
        _num(res.accepted_rate),
        _num(res.avg_latency),
        _num(res.p50_latency),
        _num(res.p99_latency),
        str(int(res.packets_measured)),
        str(int(res.packets_delivered)),
        _num(res.avg_hops),
    ]
    cct = res.channels.get("cct")
    if cct is not None:
        col = cct.columns.index("cct")
        stats.append(_num(cct.summary["makespan"]))
        stats.extend(str(row[col]) for row in cct.rows)
    return tuple(stats)


def study_points(result) -> Dict[Tuple, Tuple]:
    """``(scenario, curve, rate) -> point_stats`` over a StudyResult."""
    return {
        (scn.name, curve.label, _num(p.rate)): point_stats(p.result)
        for scn in result.scenarios
        for curve in scn.curves
        for p in curve.points
    }


def digest_points(points: Dict[Tuple, Tuple]) -> str:
    h = hashlib.sha256()
    for key in sorted(points):
        h.update(("|".join(key + points[key]) + "\n").encode())
    return h.hexdigest()[:20]


def count_mismatches(
    points: Dict[Tuple, Tuple], reference: Dict[Tuple, Tuple]
) -> int:
    """Points that differ from ``reference`` or are missing from one
    side."""
    keys = set(points) | set(reference)
    return sum(1 for k in keys if points.get(k) != reference.get(k))


def canonical(result) -> str:
    """A StudyResult as canonical JSON, ignoring its ``meta`` block."""
    data = result.to_dict()
    data.pop("meta", None)
    return json.dumps(data, sort_keys=True)


def flit_hops(result, packet_length: Dict[Tuple, int]) -> float:
    """Sum of ``packets_delivered x avg_hops x packet_length`` over the
    open-loop points of a StudyResult (the kernel's useful work in the
    measured windows; computed, not counted by the kernel)."""
    total = 0.0
    for scn in result.scenarios:
        for curve in scn.curves:
            for p in curve.points:
                res = p.result
                if "cct" in res.channels or math.isnan(res.avg_hops):
                    continue
                total += (
                    res.packets_delivered
                    * res.avg_hops
                    * packet_length[(scn.name, curve.label)]
                )
    return total


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    vals = sorted(values)
    if not vals:
        return float("nan")
    pos = (len(vals) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def pool_workers(study, requested, native: bool) -> int:
    """The pool size ``run_experiments`` picks for ``study``, by the
    engine's own rule with no ``REPRO_*`` override: the batched native
    path gives each worker a kernel thread per CPU and so runs one
    worker; the per-point path runs one per CPU.  (The engine also
    clamps to the points left to run, which every bundled study
    exceeds.)"""
    cpus = os.cpu_count() or 1
    batched = native and not any(
        s.workload for scn in study.scenarios for s in scn.specs
    )
    return max(1, min(requested or cpus, 1 if batched else cpus))


# ----------------------------------------------------------------------
# host speed (``service_mix``)
# ----------------------------------------------------------------------
#: the fixed stdlib-only document behind :func:`host_probe_ms`.
_PROBE_DOC = {
    "points": [
        {"rate": i / 7, "lat": [i * 1.5, i * 2.25], "name": f"p{i}"}
        for i in range(300)
    ]
}
#: a probe counts only if the measured program used at most this share
#: of the probe's own time on the CPU meanwhile; it is retaken up to
#: ``PROBE_TRIES`` times, then given up.
PROBE_IDLE_SHARE = 0.02
PROBE_TRIES = 5


def host_probe_ms() -> float:
    """Time a fixed JSON round trip and sort (~3 ms on a 2-vCPU VM).

    The shared host's speed swings by up to 1.5x over seconds, per
    vCPU; the probe slows with it, so a time divided by probes taken
    around it is steady.  The probe runs no repository code, but a
    program that keeps the CPU busy meanwhile would slow it too: see
    :func:`idle_host_speed_ms`.
    """
    t = time.perf_counter()
    for _ in range(2):
        doc = json.loads(json.dumps(_PROBE_DOC))
        sorted((p["rate"], p["name"]) for p in doc["points"])
    return (time.perf_counter() - t) * 1e3


def host_speed_ms() -> float:
    """Mean :func:`host_probe_ms` with this thread pinned in turn to
    each of the first two allowed vCPUs (the service's client and
    server share both)."""
    allowed = os.sched_getaffinity(0)
    probes = []
    try:
        for cpu in sorted(allowed)[:2]:
            os.sched_setaffinity(0, {cpu})
            probes.append(host_probe_ms())
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(probes) / len(probes)


def cpu_ns(pid: int) -> int:
    """CPU time of every thread of process ``pid``, in ns
    (``/proc/<pid>/task/*/schedstat``)."""
    total = 0
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                total += int(fh.read().split()[0])
        except (OSError, ValueError, IndexError):
            pass  # the thread ended meanwhile
    return total


def idle_host_speed_ms(pid: int):
    """:func:`host_speed_ms` taken while process ``pid`` and this
    process's other threads stay idle, so the divisor measures the host
    and not the program: ``(ms, tries)``, with ``ms`` None when every
    try saw them busy (a program that keeps the CPU busy in the
    background then reads at its raw speed)."""
    for tries in range(1, PROBE_TRIES + 1):
        busy = cpu_ns(pid) + time.process_time_ns() - time.thread_time_ns()
        t = time.perf_counter_ns()
        ms = host_speed_ms()
        wall = time.perf_counter_ns() - t
        busy = (
            cpu_ns(pid) + time.process_time_ns() - time.thread_time_ns()
            - busy
        )
        if busy <= PROBE_IDLE_SHARE * wall:
            return ms, tries
    return None, PROBE_TRIES

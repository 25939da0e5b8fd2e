"""One sweep workload in a fresh process (started by ``run.py``).

Prints one JSON object on its last stdout line.  Modes:

* ``--setup-only``: import ``repro.cli`` and load the native kernel,
  then report the set-up time since ``--t0`` (the parent's spawn time);
* ``--cold-only``: set up, run the study once into an empty result
  store (as a cold ``repro-dragonfly run`` does) and report its wall
  time and digest (``--trace`` adds the per-layer clock);
* default: the cold pass, then warm passes (each into another empty
  store, with topology, routing and route planes resident) while under
  ``WARM_SHARE`` of ``--seconds`` (at least one), and a second-path
  re-run of one sampled point.

Every pass records when each point arrives (``on_point``), in ms from
the start of its ``run()``: the sweeps' ``fresh_*`` (cold) and
``hot_*`` (warm) latencies.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path

#: warm passes continue while the post-cold phase is under this share
#: of ``--seconds``.
WARM_SHARE = 0.6


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _empty_store(path: Path) -> str:
    shutil.rmtree(path, ignore_errors=True)
    return str(path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--workers", type=int, default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--cold-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    t = time.perf_counter()
    import repro.cli  # noqa: F401  (what a cold CLI run pays)

    import_s = time.perf_counter() - t
    from repro.network.native import load_native

    t = time.perf_counter()
    native = load_native() is not None
    native_s = time.perf_counter() - t
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps(
            {"setup_s": setup_s, "native": native, "native_s": native_s}
        ))
        return 0

    clock = None
    if args.trace:
        from layers import LayerClock, install

        clock = LayerClock()
        clock.record("cli.import", import_s)
        clock.record("network.native_load", native_s)
        install(clock)

    from outputs import (
        STUDIES,
        count_mismatches,
        digest_points,
        flit_hops,
        percentile,
        point_stats,
        pool_workers,
        reseed,
        study_points,
    )
    from repro.api import build_study
    from repro.engine import simulate_point
    from repro.obs import REGISTRY

    study_name, scale = STUDIES[args.workload]
    study = reseed(build_study(study_name, scale), args.seed)
    work = Path(args.work)
    fresh_events = [0]

    def timed_pass(store, workers=None):
        """One ``run()`` into ``store``: the result, its wall seconds
        and each point's arrival in ms from the start."""
        arrivals = []

        def on_point(scenario, curve, rate, res, source):
            arrivals.append((time.perf_counter() - t) * 1e3)
            if source == "fresh":
                fresh_events[0] += 1

        t = time.perf_counter()
        res = study.run(workers=workers, cache=store, on_point=on_point)
        return res, time.perf_counter() - t, arrivals

    result, wall_s, cold_arrivals = timed_pass(
        _empty_store(work / "cold"), args.workers
    )
    since_spawn_s = time.time() - args.t0
    cold = study_points(result)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "since_spawn_s": since_spawn_s,
        "digest": digest_points(cold),
        "points": len(cold),
        "native": native,
        "workers": pool_workers(study, args.workers, native),
        "fresh_ms": cold_arrivals,
    }
    if study_name == "fig10_local":
        uniform = result.scenario("uniform")
        out["model_ratio_uniform"] = (
            uniform.curve("SW-less").max_accepted
            / uniform.curve("SW-based").max_accepted
        )

    if clock is not None:
        packet_length = {
            (scn.name, s.label): s.params.packet_length
            for scn in study.scenarios
            for s in scn.specs
        }
        hops = flit_hops(result, packet_length)
        kernel_s = clock.incl.get("network.kernel", 0.0)
        calls = clock.calls.get("network.kernel", 0)
        lanes = clock.extra.get("network.kernel_lanes", 0)
        crashes = REGISTRY.get("engine_worker_crashes_total")
        out["layers"] = {
            "incl": clock.incl,
            "self": clock.self_s,
            "calls": clock.calls,
            "network.kernel_lanes": lanes,
            "network.lanes_per_call": lanes / calls if calls else 0.0,
            "network.flit_hops": hops,
            "network.kernel_ns_per_flit_hop": (
                kernel_s * 1e9 / hops if hops and kernel_s else 0.0
            ),
            "engine.points_fresh": fresh_events[0],
            "engine.useful_frac": (
                len(cold) / fresh_events[0] if fresh_events[0] else 0.0
            ),
            "engine.worker_crashes": crashes.value() if crashes else 0,
        }
    if args.cold_only:
        out["peak_rss_mb"] = _peak_rss_mb()
        shutil.rmtree(work, ignore_errors=True)
        print(json.dumps(out))
        return 0

    checked = [len(cold), 0]  # attempted, failed

    def check(points) -> None:
        checked[0] += len(points)
        checked[1] += count_mismatches(points, cold)

    hot_ms, warm_rates = [], []
    t_phase = time.perf_counter()
    while not warm_rates or (
        time.perf_counter() - t_phase < WARM_SHARE * args.seconds
    ):
        res, dt, arrivals = timed_pass(
            _empty_store(work / f"warm{len(warm_rates)}")
        )
        points = study_points(res)
        warm_rates.append(len(points) / dt)
        hot_ms += arrivals
        check(points)

    # one sampled point through a second core: the reference core for
    # closed-loop specs, the per-point native path for open-loop ones
    rng = random.Random(args.seed)
    scn = rng.choice(study.scenarios)
    spec = rng.choice(scn.specs)
    key = rng.choice(
        sorted(k for k in cold if k[:2] == (scn.name, spec.label))
    )
    if spec.workload:
        os.environ["REPRO_SIM_CORE"] = "reference"
    try:
        res = simulate_point(spec, float(key[2]))
    finally:
        os.environ.pop("REPRO_SIM_CORE", None)
    recheck_ok = point_stats(res) == cold[key]
    checked[0] += 1
    checked[1] += int(not recheck_ok)

    shutil.rmtree(work, ignore_errors=True)
    out.update(
        attempted=checked[0],
        failed=checked[1],
        warm_points_per_s=percentile(warm_rates, 50),
        warm_passes=len(warm_rates),
        hot_ms=hot_ms,
        recheck={"point": list(key), "ok": recheck_ok},
        peak_rss_mb=_peak_rss_mb(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

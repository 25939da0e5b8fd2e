"""Simulator-core micro-benchmark: old vs new serial wall-clock.

Times the object-based ``reference`` core against the core that
:class:`repro.network.Simulator` selects by default (``native`` when a
C compiler is available, else the reference core itself) on the
Fig. 10(c) local-uniform workload, one run per offered load from low
load to past saturation.

It also emits the cross-core equivalence report, a hard gate (exit
code 1 on any mismatch): with a pinned injection schedule, and run
free over several seeds, both cores must produce *identical* results.

Since the batched-kernel PR the headline metric is **fleet
points-per-second**: the engine sweep (``run_experiments``) timed
batched (one packed ``sim_run_batch`` call per chunk of rates, shared
route plane, vectorized destination pre-resolution) against a
per-point ``simulate_point`` loop over the same rates, single-threaded
so the speedup is pure amortisation + vectorization, not thread
parallelism.  A third section times a full saturation sweep (cutoff
included) both ways, and the batched path
joins the hard equivalence gate: batched sweep results must be
bit-identical to per-point results.

Usage::

    python benchmarks/bench_simcore.py [--scale quick|default|full]
        [--seeds 11,12,13] [--out BENCH_simcore.json]

The committed ``BENCH_simcore.json`` is produced with ``--scale full``
(paper Table IV windows) for the timing section; the equivalence
sections use reduced windows so the whole script stays minutes-free.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api.library import sim_params, switchless_arch  # noqa: E402
from repro.engine.executor import (  # noqa: E402
    run_experiments,
    simulate_point,
)
from repro.engine.spec import ExperimentSpec, build_experiment  # noqa: E402
from repro.network import (  # noqa: E402
    THREADS_ENV,
    Simulator,
    assemble_sweep,
    cutoff_walk,
    native_available,
)

#: offered loads (flits/cycle/chip): low, mid, high, past saturation
#: for the SW-less W-group (saturation sits near 1.1).
RATE_POINTS = {"low": 0.3, "mid": 0.6, "high": 0.9, "sat": 1.2}

#: the fleet sweep: non-saturating loads only, so the batched and
#: per-point paths simulate the exact same point set (no cutoff).
#: A dense 12-point grid — batching amortizes per-point setup, so the
#: fleet metric is measured where sweeps actually spend their points.
FLEET_RATES = [round(0.05 * i, 2) for i in range(1, 13)]

#: the saturation-sweep grid: past the ~1.1 knee, so the cutoff fires.
SWEEP_RATES = [0.3, 0.6, 0.9, 1.2, 1.5]


def fig10_local_uniform_spec(params) -> ExperimentSpec:
    """The Fig. 10(c) SW-less arch under local uniform traffic."""
    return ExperimentSpec.create(
        traffic="uniform",
        traffic_opts={"scope": ("group", 0)},
        params=params,
        rates=sorted(RATE_POINTS.values()),
        label="SW-less",
        **switchless_arch(
            preset="radix16_equiv", num_wgroups=2, cgroups_per_wafer=1
        ),
    )


def build(spec):
    return build_experiment(spec)


def timed_run(graph, routing, traffic, params, rate, core):
    sim = Simulator(graph, routing, traffic, params, core=core)
    t0 = time.perf_counter()
    res = sim.run(rate)
    return time.perf_counter() - t0, res


def timing_section(scale: str, new_core: str):
    params = sim_params(scale)
    spec = fig10_local_uniform_spec(params)
    graph, routing, traffic = build(spec)
    # warm the routing's shared route memo (and the native-kernel
    # compilation cache) at full measurement scale so the first-timed
    # core doesn't pay one-off costs the others then reuse for free
    for rate in RATE_POINTS.values():
        Simulator(graph, routing, traffic, params).run(rate)
    rows = []
    for label, rate in RATE_POINTS.items():
        row = {"label": label, "rate": rate}
        for core in ("reference", new_core):
            dt, res = timed_run(graph, routing, traffic, params, rate, core)
            row[f"{core}_seconds"] = round(dt, 3)
            row.setdefault("accepted", {})[core] = round(
                res.accepted_rate, 4
            )
        row["speedup"] = round(
            row["reference_seconds"] / row[f"{new_core}_seconds"], 2
        )
        rows.append(row)
        print(
            f"  {label:4s} rate={rate:4.1f}: "
            f"old={row['reference_seconds']:7.2f}s "
            f"new({new_core})={row[f'{new_core}_seconds']:7.2f}s "
            f"-> {row['speedup']:.1f}x"
        )
    return rows


def _per_point_sweep(spec):
    """One ``simulate_point`` per rate, walked in order with the
    engine's saturation cutoff: the per-point column."""
    results = {}
    while True:
        complete, ri = cutoff_walk(len(spec.rates), results, 1)
        if complete:
            break
        results[ri] = simulate_point(spec, spec.rates[ri])
    return assemble_sweep(spec.label, spec.rates, results, 1)


def _timed_sweep(spec, batch: bool, reps: int = 2):
    """Best-of-``reps`` wall-clock for one sweep, batched through the
    engine or per point (no cache, so every point simulates every
    rep); returns (seconds, sweep)."""
    best, sweep = math.inf, None
    for _ in range(reps):
        t0 = time.perf_counter()
        if batch:
            out = run_experiments([spec], workers=1)[0]
        else:
            out = _per_point_sweep(spec)
        best = min(best, time.perf_counter() - t0)
        sweep = out
    return best, sweep


def fleet_section(scale: str, threads: int = 1):
    """Fleet points-per-second: batched vs per-point engine sweeps.

    Single-threaded by construction (``REPRO_SIM_THREADS=1``): the
    reported speedup is amortisation (one route plane, one packed
    kernel call per chunk) plus the vectorized destination pre-pass —
    kernel threads would only add to it on multi-core hosts.
    """
    params = sim_params(scale)
    spec = fig10_local_uniform_spec(params).with_rates(FLEET_RATES)
    saved = os.environ.get(THREADS_ENV)
    os.environ[THREADS_ENV] = str(threads)
    try:
        # warm: compiles the kernel, fills the worker-local system /
        # routing caches and the shared route memo for both paths
        run_experiments([spec], workers=1)
        # best-of-4: single-point wall-clocks on shared hosts are
        # noisy enough to swing the ratio by ~20%
        t_point, sw_p = _timed_sweep(spec, batch=False, reps=4)
        t_batch, sw_b = _timed_sweep(spec, batch=True, reps=4)
    finally:
        if saved is None:
            os.environ.pop(THREADS_ENV, None)
        else:
            os.environ[THREADS_ENV] = saved
    n = len(FLEET_RATES)
    identical = all(
        rb.to_dict() == rp.to_dict()
        for rb, rp in zip(sw_b.results, sw_p.results)
    )
    section = {
        "rates": FLEET_RATES,
        "threads": threads,
        "points": n,
        "per_point_seconds": round(t_point, 3),
        "batched_seconds": round(t_batch, 3),
        "per_point_pps": round(n / t_point, 3),
        "batched_pps": round(n / t_batch, 3),
        "batched_speedup": round(t_point / t_batch, 2),
        "identical": identical,
    }
    print(
        f"  fleet ({n} points, {threads} thread(s)): "
        f"per-point {section['per_point_pps']:.2f} pts/s, "
        f"batched {section['batched_pps']:.2f} pts/s "
        f"-> {section['batched_speedup']:.2f}x "
        f"(identical={identical})"
    )
    return section


def sweep_wallclock_section(scale: str):
    """Wall-clock of a realistic saturation sweep, cutoff included."""
    params = sim_params(scale)
    spec = fig10_local_uniform_spec(params).with_rates(SWEEP_RATES)
    run_experiments([spec], workers=1)  # warm
    t_point, sw_p = _timed_sweep(spec, batch=False, reps=1)
    t_batch, sw_b = _timed_sweep(spec, batch=True, reps=1)
    section = {
        "rates": SWEEP_RATES,
        "per_point_seconds": round(t_point, 3),
        "batched_seconds": round(t_batch, 3),
        "batched_speedup": round(t_point / t_batch, 2),
        "swept_points_per_point": len(sw_p.rates),
        "swept_points_batched": len(sw_b.rates),
    }
    print(
        f"  saturation sweep: per-point {t_point:.2f}s, "
        f"batched {t_batch:.2f}s -> {section['batched_speedup']:.2f}x "
        f"({len(sw_b.rates)} rates kept)"
    )
    return section


def batched_equivalence() -> bool:
    """Batched engine sweep bit-identical to the per-point sweep."""
    params = sim_params("quick", seed=23)
    spec = fig10_local_uniform_spec(params)
    sw_b = run_experiments([spec], workers=1)[0]
    sw_p = _per_point_sweep(spec)
    same = sw_b.rates == sw_p.rates and all(
        rb.to_dict() == rp.to_dict()
        for rb, rp in zip(sw_b.results, sw_p.results)
    )
    print(f"  batched sweep identical to per-point: {same}")
    return same


def pinned_equivalence(new_core: str) -> bool:
    """Both cores identical under a pinned injection schedule."""
    params = sim_params("quick", seed=17)
    spec = fig10_local_uniform_spec(params)
    graph, routing, traffic = build(spec)
    ok = True
    for rate in (RATE_POINTS["mid"], RATE_POINTS["sat"]):
        schedule = Simulator(graph, routing, traffic, params).make_schedule(
            rate
        )
        outs = {}
        for core in ("reference", new_core):
            sim = Simulator(graph, routing, traffic, params, core=core)
            outs[core] = sim.run(rate, schedule=schedule).to_dict()
        same = outs["reference"] == outs[new_core]
        print(f"  pinned rate={rate}: identical={same}")
        ok &= same
    return ok


def unpinned_equivalence(seeds, new_core: str) -> bool:
    """Both cores identical run free: they sample the same injection
    schedule from the same seeded numpy stream."""
    ok = True
    for seed in seeds:
        params = sim_params("quick", seed=seed)
        graph, routing, traffic = build(fig10_local_uniform_spec(params))
        same = True
        for rate in RATE_POINTS.values():
            outs = [
                timed_run(graph, routing, traffic, params, rate, core)[1]
                for core in ("reference", new_core)
            ]
            same &= outs[0].to_dict() == outs[1].to_dict()
        print(f"  unpinned seed={seed}: identical={same}")
        ok &= same
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--scale",
        choices=["quick", "default", "full"],
        default="full",
        help="simulation windows for the timing section",
    )
    ap.add_argument("--seeds", default="11,12,13")
    ap.add_argument("--out", default="BENCH_simcore.json")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s]

    new_core = "native" if native_available() else "reference"
    print(
        f"new core: {new_core} (native available: {native_available()})"
    )

    print(f"timing (scale={args.scale}):")
    timing = timing_section(args.scale, new_core)
    print(f"fleet points-per-second (scale={args.scale}):")
    fleet = fleet_section(args.scale)
    print(f"saturation-sweep wall-clock (scale={args.scale}):")
    sweep_wc = sweep_wallclock_section(args.scale)
    print("pinned-schedule equivalence:")
    pinned_ok = pinned_equivalence(new_core)
    print("batched-sweep equivalence:")
    batched_ok = batched_equivalence()
    print(f"unpinned equivalence over seeds {seeds}:")
    unpinned_ok = unpinned_equivalence(seeds, new_core)

    mid = next(r for r in timing if r["label"] == "mid")
    payload = {
        "benchmark": "simcore_fig10_local_uniform",
        "scale": args.scale,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "old_core": "reference (object-based simulator)",
        "new_core": new_core,
        "native_available": native_available(),
        "timing": timing,
        "mid_load_speedup": mid["speedup"],
        "fleet": fleet,
        "fleet_points_per_second": fleet["batched_pps"],
        "fleet_batched_speedup": fleet["batched_speedup"],
        "sweep_wallclock": sweep_wc,
        "equivalence": {
            "pinned_identical": pinned_ok,
            "batched_identical": batched_ok and fleet["identical"],
            "unpinned_identical": unpinned_ok,
        },
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"wrote {args.out}: mid-load speedup {mid['speedup']}x, "
        f"fleet {fleet['batched_pps']:.2f} pts/s "
        f"({fleet['batched_speedup']}x batched), "
        f"pinned identical: {pinned_ok}, batched identical: "
        f"{batched_ok and fleet['identical']}, "
        f"unpinned identical: {unpinned_ok}"
    )
    if mid["speedup"] < 2.0:
        print("WARNING: mid-load speedup below the 2x target")
    if native_available() and fleet["batched_speedup"] < 2.0:
        print("WARNING: fleet batched speedup below the 2x target")
    return (
        0
        if pinned_ok and batched_ok and fleet["identical"] and unpinned_ok
        else 1
    )


if __name__ == "__main__":
    sys.exit(main())

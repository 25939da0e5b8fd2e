"""Probe-layer overhead benchmark: probe-off vs baseline, probe-on cost.

The observability layer's contract is that *not* using it is free: a
probe-off run must be bit-identical to — and within noise as fast as —
the pre-metrics simulator (the PR 4 code path, whose timings on this
workload are the ``BENCH_simcore.json`` numbers; PRs since then did not
touch the hot loop).  This benchmark measures, on the same Fig. 10(c)
local-uniform workload ``bench_simcore.py`` times:

* **probe-off** wall-clock per offered load, compared against the
  committed baseline file when it matches the current scale/platform
  (gate: median ratio <= 1.0 + ``--tolerance``, default 3%);
* **probe-on** wall-clock with the full built-in probe bundle,
  reported honestly as a ratio over probe-off (the post-run decode is
  *expected* to cost something — it walks every route);
* a hard correctness gate at every point: the probe-on run's
  ``SimResult`` aggregates must equal the probe-off run's bit for bit
  (probes may never perturb the simulation).

Usage::

    python benchmarks/bench_metrics_overhead.py
        [--scale quick|default|full] [--reps 3]
        [--baseline BENCH_simcore.json] [--tolerance 0.03]
        [--out BENCH_metrics.json]

The committed ``BENCH_metrics.json`` is produced with ``--scale full``
(the scale of the committed baseline); CI runs ``--scale quick``, where
no stored baseline applies and the bit-identity + reported ratios are
the gate.  Exit code 1 on any gate failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api.library import sim_params, switchless_arch  # noqa: E402
from repro.engine.spec import ExperimentSpec, build_experiment  # noqa: E402
from repro.metrics import list_probes  # noqa: E402
from repro.network import Simulator, native_available  # noqa: E402

#: same points as bench_simcore.py: low, mid, high, past saturation.
RATE_POINTS = {"low": 0.3, "mid": 0.6, "high": 0.9, "sat": 1.2}

#: the full built-in bundle — the honest worst case for probe-on cost.
PROBE_BUNDLE = [
    "link_util", "vc_util", "latency_hist", "timeseries", "misroute",
    "ejection_fairness",
]


def workload_spec(params) -> ExperimentSpec:
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


def timed_run(graph, routing, traffic, params, rate, core, probes=None):
    sim = Simulator(graph, routing, traffic, params, core=core,
                    probes=probes)
    t0 = time.perf_counter()
    res = sim.run(rate)
    return time.perf_counter() - t0, res


def best_time(graph, routing, traffic, params, rate, core, reps,
              probes=None):
    """Best-of-``reps`` wall-clock: the standard de-noising statistic
    for single-machine micro-benchmarks (scheduler preemption and
    cache pollution only ever add time, never subtract it)."""
    times, last = [], None
    for _ in range(reps):
        dt, last = timed_run(
            graph, routing, traffic, params, rate, core, probes=probes
        )
        times.append(dt)
    return min(times), last


def load_baseline(path: Path, scale: str):
    """Per-rate baseline seconds from BENCH_simcore.json, when usable.

    Usable means: the file exists, was produced at the same scale on
    the same platform, and carries timings for the core we default to.
    Anything else returns ``None`` with a reason — the gate is then
    skipped (and said so in the output) rather than compared against
    numbers from a different machine.
    """
    if not path.is_file():
        return None, f"no baseline file at {path}"
    try:
        data = json.loads(path.read_text())
    except ValueError:
        return None, f"unreadable baseline file {path}"
    if data.get("scale") != scale:
        return None, (
            f"baseline scale {data.get('scale')!r} != current {scale!r}"
        )
    if data.get("platform") != platform.platform():
        return None, "baseline was recorded on a different platform"
    core = "native" if native_available() else "reference"
    key = f"{core}_seconds"
    per_rate = {}
    for row in data.get("timing", ()):
        if key in row:
            per_rate[float(row["rate"])] = float(row[key])
    if len(per_rate) != len(RATE_POINTS):
        return None, f"baseline lacks {key} timings"
    return per_rate, f"BENCH_simcore.json {core} timings ({scale} scale)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="full",
                        choices=("quick", "default", "full"))
    parser.add_argument("--reps", type=int, default=5,
                        help="runs per point; the best (min) is reported")
    parser.add_argument(
        "--baseline",
        default=str(Path(__file__).resolve().parent.parent
                    / "BENCH_simcore.json"),
        help="pre-metrics timing baseline (BENCH_simcore.json)",
    )
    parser.add_argument("--tolerance", type=float, default=0.03,
                        help="allowed probe-off overhead vs baseline")
    parser.add_argument("--out", default="BENCH_metrics.json")
    args = parser.parse_args(argv)

    core = "native" if native_available() else "reference"
    params = sim_params(args.scale, seed=11)
    spec = workload_spec(params)
    graph, routing, traffic = build_experiment(spec)
    # warm the route memo so neither side pays first-run resolution
    timed_run(graph, routing, traffic, params, RATE_POINTS["low"], core)

    baseline, baseline_note = load_baseline(
        Path(args.baseline), args.scale
    )

    rows = []
    identical = True
    for label, rate in RATE_POINTS.items():
        t_off, res_off = best_time(
            graph, routing, traffic, params, rate, core, args.reps
        )
        t_on, res_on = best_time(
            graph, routing, traffic, params, rate, core, args.reps,
            probes=list(PROBE_BUNDLE),
        )
        d_on = res_on.to_dict()
        d_on.pop("channels", None)
        point_identical = d_on == res_off.to_dict()
        identical = identical and point_identical
        row = {
            "label": label,
            "rate": rate,
            "probe_off_seconds": round(t_off, 4),
            "probe_on_seconds": round(t_on, 4),
            "probe_on_ratio": round(t_on / t_off, 3) if t_off else None,
            "probe_on_identical_aggregates": point_identical,
        }
        if baseline:
            row["baseline_seconds"] = round(baseline[rate], 4)
            row["vs_baseline"] = round(t_off / baseline[rate], 3)
        rows.append(row)
        print(
            f"{label:5s} rate={rate:.1f}  off={t_off:.3f}s  "
            f"on={t_on:.3f}s ({row['probe_on_ratio']}x)"
            + (f"  vs baseline {row['vs_baseline']}x" if baseline else "")
        )

    report = {
        "benchmark": "metrics_probe_overhead",
        "workload": "fig10_local_uniform (bench_simcore workload)",
        "scale": args.scale,
        "core": core,
        "probe_bundle": PROBE_BUNDLE,
        "registered_probes": list_probes(),
        "reps": args.reps,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "baseline": baseline_note,
        "timing_statistic": (
            f"best of {args.reps} (baseline was one post-warmup run; "
            "noise only ever adds time, so best-of-N vs that single "
            "sample is the least-noise comparison available)"
        ),
        "timing": rows,
        "probe_on_aggregates_identical": identical,
    }

    ok = identical
    if not identical:
        print("FAIL: probe-on run diverged from probe-off aggregates")
    if baseline:
        ratios = [r["vs_baseline"] for r in rows]
        med = statistics.median(ratios)
        report["probe_off_vs_baseline_median"] = round(med, 3)
        report["probe_off_gate_tolerance"] = args.tolerance
        gate_ok = med <= 1.0 + args.tolerance
        report["probe_off_gate_passed"] = gate_ok
        print(
            f"probe-off vs baseline: median {med:.3f}x "
            f"(gate <= {1.0 + args.tolerance:.2f}x: "
            f"{'ok' if gate_ok else 'FAIL'})"
        )
        ok = ok and gate_ok
    else:
        report["probe_off_gate_passed"] = None
        print(f"baseline gate skipped: {baseline_note}")
    on_med = statistics.median(
        r["probe_on_ratio"] for r in rows if r["probe_on_ratio"]
    )
    report["probe_on_ratio_median"] = round(on_med, 3)
    print(f"probe-on cost (full bundle): median {on_med:.2f}x probe-off")

    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

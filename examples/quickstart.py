#!/usr/bin/env python3
"""Quickstart: build a switch-less Dragonfly, route, simulate, analyse.

Walks the whole public API in five steps:

1. configure and build a wafer-based switch-less Dragonfly;
2. inspect its structure (W-groups, C-groups, ports);
3. verify the routing algorithm is deadlock free;
4. run the cycle-accurate simulator on uniform traffic;
5. compare the measured saturation against the paper's closed-form
   throughput bounds (Eqs. 2/4/5).

Run:  python examples/quickstart.py
"""

from repro.analysis import (
    global_throughput_bound,
    intra_cgroup_throughput_bound,
    local_throughput_bound,
    switchless_diameter,
)
from repro.core import SwitchlessConfig, build_switchless
from repro.engine import ExperimentSpec, run_experiments
from repro.network import SimParams
from repro.routing import SwitchlessRouting, verify_deadlock_free


def main() -> None:
    # 1. configure: the CI-scale twin of the paper's radix-16 system —
    #    4x4-node C-groups (4 chips), 3 local + 2 global ports, 9 W-groups.
    cfg = SwitchlessConfig.small_equiv()
    print("configuration")
    print(f"  C-groups per W-group (a*b): {cfg.cgroups_per_wgroup}")
    print(f"  external ports per C-group (k): {cfg.num_ports}")
    print(f"  W-groups (g): {cfg.num_wgroups_effective}")
    print(f"  chips (N): {cfg.num_chips} ({cfg.num_nodes} on-chip nodes)")

    # 2. build the system graph
    system = build_switchless(cfg)
    print(f"\nbuilt {system.graph}")
    print(f"  link classes: {system.graph.link_class_counts()}")
    d = switchless_diameter(cfg)
    print(f"  worst-case route (Eq. 7): {d.describe()}"
          f"  (~{d.latency_ns():.0f} ns at Table II costs)")

    # 3. deadlock-free minimal routing (baseline 4-VC policy)
    routing = SwitchlessRouting(system, "minimal")
    report = verify_deadlock_free(system.graph, routing, max_pairs=500)
    print(f"\nrouting: {report.describe()}")

    # 4. simulate a short latency-vs-load sweep: the same system,
    #    routing and traffic, described as a spec the engine rebuilds
    spec = ExperimentSpec.create(
        topology="switchless",
        topology_opts={"preset": "small_equiv"},
        routing="switchless",
        routing_opts={"mode": "minimal"},
        traffic="uniform",
        params=SimParams(
            warmup_cycles=300, measure_cycles=1000, drain_cycles=400,
            seed=0,
        ),
        rates=[0.1, 0.25, 0.4, 0.55],
        label="uniform / global",
    )
    [sweep] = run_experiments([spec])
    print()
    print(sweep.format_table())

    # 5. compare against the analytical bounds
    print("\nclosed-form bounds (flits/cycle/chip):")
    print(f"  T_global (Eq. 2) < {global_throughput_bound(cfg):.2f}"
          f"   measured max accepted: {sweep.max_accepted:.2f}")
    print(f"  T_local  (Eq. 4) < {local_throughput_bound(cfg):.2f}")
    print(f"  T_cgroup (Eq. 5) < {intra_cgroup_throughput_bound(cfg):.2f}")


if __name__ == "__main__":
    main()

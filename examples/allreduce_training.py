#!/usr/bin/env python3
"""AI-training collective: ring AllReduce on wafers vs switches.

The paper's motivating workload (Sec. III-B4, Fig. 4, Fig. 14): data-
parallel training spends its communication time in AllReduce, and the
single terminal-to-switch channel of a classic Dragonfly caps the ring
at 1 flit/cycle/chip.  The switch-less C-group gives every chip four
injection ports into the on-wafer mesh.

This example measures ring saturation bandwidth for both architectures
and converts it into AllReduce completion time for a model-gradient
exchange using the ring step model.

Run:  python examples/allreduce_training.py
"""

from repro.engine import ExperimentSpec, run_experiments
from repro.network import SimParams
from repro.traffic import ring_allreduce_steps

PARAMS = SimParams(
    warmup_cycles=300, measure_cycles=1200, drain_cycles=400, seed=3
)

# intra-C-group ring over 4 chips: mesh vs switch (Fig. 14(a))
SWITCH = {
    "topology": "switch",
    "topology_opts": {"num_terminals": 4, "terminal_latency": 1},
    "routing": "switch_star",
}
MESH = {
    "topology": "mesh",
    "topology_opts": {"dim": 4, "chiplet_dim": 2},
    "routing": "xy_mesh",
}


def ring_spec(system, bidirectional, rates, label, scope=None):
    opts = {"bidirectional": bidirectional}
    if scope is not None:
        opts["scope"] = scope
    return ExperimentSpec.create(
        **system,
        traffic="ring_allreduce",
        traffic_opts=opts,
        params=PARAMS,
        rates=rates,
        label=label,
    )


def main() -> None:
    names_specs = {
        "switch / unidirectional": ring_spec(
            SWITCH, False, [0.5, 0.9, 1.2], "sw-uni"),
        "switch / bidirectional": ring_spec(
            SWITCH, True, [0.5, 0.9, 1.2], "sw-bi"),
        "wafer mesh / unidirectional": ring_spec(
            MESH, False, [1.0, 1.7, 2.2], "sl-uni", "snake"),
        "wafer mesh / bidirectional": ring_spec(
            MESH, True, [2.0, 3.0, 4.0], "sl-bi", "snake"),
    }
    print("measuring ring saturation bandwidth (flits/cycle/chip)...")
    sweeps = run_experiments(list(names_specs.values()))
    results = {
        name: sweep.max_accepted
        for name, sweep in zip(names_specs, sweeps)
    }
    for name, bw in results.items():
        print(f"  {name:30s} {bw:5.2f}")

    # convert to AllReduce completion time: 1 GiB of gradients over a
    # 512-chip W-group-sized ring, 256-bit flits -> 32 Mi flits
    message_flits = 32 * 1024 * 1024
    ranks = 512
    print(f"\nAllReduce of 1 GiB over {ranks} ranks "
          f"({message_flits / 1e6:.0f}M flits):")
    for name, bw in results.items():
        if bw <= 0:
            continue
        model = ring_allreduce_steps(ranks, message_flits, bw)
        print(
            f"  {name:30s} {model.completion_cycles/1e6:8.1f} Mcycles "
            f"({model.steps} steps)"
        )
    speedup = (
        results["wafer mesh / bidirectional"]
        / results["switch / bidirectional"]
    )
    print(f"\nwafer-mesh bidirectional ring speedup vs switch: "
          f"{speedup:.1f}x (paper: 4x at intra-C-group scale)")


if __name__ == "__main__":
    main()

"""Ablation A1 (DESIGN.md): VC policies and C-group styles.

Not a paper figure: quantifies the design choices behind Sec. IV —
baseline (4-VC) vs reduced (3-VC) schemes and mesh vs IO-router C-groups
— by measured saturation under uniform traffic, plus the deadlock
verdicts of the CDG checker (the reproduction's Sec. IV-B finding).
"""

from conftest import once, pick_rates, print_figure, run_curves, sim_params

from repro.engine import ExperimentSpec, build_routing, build_system
from repro.routing import verify_deadlock_free


def _spec(policy: str, cgroup_style: str = "mesh") -> ExperimentSpec:
    return ExperimentSpec.create(
        topology="switchless",
        topology_opts={"preset": "small_equiv", "cgroup_style": cgroup_style},
        routing="switchless",
        routing_opts={"mode": "minimal", "policy": policy},
        traffic="uniform",
    )


def _run():
    configs = {
        "mesh / baseline (4 VC)": _spec("baseline"),
        "mesh / reduced (3 VC)": _spec("reduced"),
        "io-router / reduced (3 VC)": _spec("reduced", "io-router"),
    }
    sweeps = run_curves(
        configs, pick_rates([0.15, 0.3, 0.45, 0.6]), params=sim_params()
    )
    verdicts = {}
    for label, spec in configs.items():
        system = build_system(spec)
        verdicts[label] = verify_deadlock_free(
            system.graph, build_routing(spec, system), max_pairs=1200
        ).acyclic
    return sweeps, verdicts


def bench_ablation_vc_schemes(benchmark):
    sweeps, verdicts = once(benchmark, _run)
    print_figure(
        "Ablation A1: VC schemes and C-group styles", sweeps,
        "reduced saves one VC; CDG verdicts quantify its safety domain",
    )
    print("CDG acyclic verdicts:")
    for label, ok in verdicts.items():
        print(f"  {label:28s} {'ACYCLIC' if ok else 'CYCLIC (documented)'}")
    assert verdicts["mesh / baseline (4 VC)"]
    assert verdicts["io-router / reduced (3 VC)"]
    assert not verdicts["mesh / reduced (3 VC)"]

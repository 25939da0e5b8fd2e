"""Fixed-seed degraded-run equivalence across the simulator cores.

The fault wrappers (fault-aware routing, masked traffic) are shared
Python objects consulted identically by the native and reference
cores, so with a pinned injection schedule (or unpinned, since both
cores sample the same schedule) a degraded run must be bit-identical
across both — the degraded counterpart of
``tests/network/test_core_equivalence.py``.  CI runs this module in the
``resilience-smoke`` job.
"""

import pytest

from repro.engine import ExperimentSpec, build_experiment
from repro.network import SimParams, Simulator, native_available

CORES = ["reference"] + (
    ["native"] if native_available() else []
)

FAULTS = {"model": "random", "link_rate": 0.06, "die_rate": 0.02, "seed": 9}


def degraded_spec(**faults):
    return ExperimentSpec.create(
        topology="switchless",
        topology_opts={"preset": "radix8_equiv"},
        routing="switchless",
        routing_opts={"mode": "minimal"},
        traffic="uniform",
        params=SimParams(
            warmup_cycles=120, measure_cycles=350, drain_cycles=200,
            seed=17,
        ),
        rates=[0.25],
        label="degraded",
        faults=faults or FAULTS,
    )


def test_pinned_degraded_results_identical_across_cores():
    spec = degraded_spec()
    graph, routing, traffic = build_experiment(spec)
    rate = spec.rates[0]
    schedule = Simulator(graph, routing, traffic, spec.params).make_schedule(
        rate
    )
    results = {}
    injected = {}
    for core in CORES:
        sim = Simulator(graph, routing, traffic, spec.params, core=core)
        results[core] = sim.run(rate, schedule=schedule).to_dict()
        injected[core] = sim.total_flits_injected
    ref = results["reference"]
    for core, res in results.items():
        assert res == ref, f"{core} core diverged on the degraded run"
    assert len(set(injected.values())) == 1, injected


def test_pinned_yield_model_identical_across_cores():
    spec = degraded_spec(
        model="yield", defects_per_wafer=1.5, defect_radius_mm=12.0, seed=3
    )
    graph, routing, traffic = build_experiment(spec)
    rate = spec.rates[0]
    schedule = Simulator(graph, routing, traffic, spec.params).make_schedule(
        rate
    )
    results = {
        core: Simulator(graph, routing, traffic, spec.params, core=core)
        .run(rate, schedule=schedule)
        .to_dict()
        for core in CORES
    }
    ref = results["reference"]
    for core, res in results.items():
        assert res == ref, f"{core} core diverged on the yield-model run"


@pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native core"
)
def test_unpinned_native_matches_reference_on_degraded_run():
    spec = degraded_spec()
    graph, routing, traffic = build_experiment(spec)
    rate = spec.rates[0]
    res = {
        core: Simulator(graph, routing, traffic, spec.params, core=core)
        .run(rate)
        .to_dict()
        for core in ("native", "reference")
    }
    assert res["native"] == res["reference"]


def test_degraded_run_differs_from_healthy():
    """The fault axis really changes the simulated numbers (no silent
    fall-through to the healthy path)."""
    healthy = degraded_spec().with_faults(None)
    faulty = degraded_spec()
    out = []
    for spec in (healthy, faulty):
        graph, routing, traffic = build_experiment(spec)
        out.append(
            Simulator(graph, routing, traffic, spec.params)
            .run(spec.rates[0])
            .to_dict()
        )
    assert out[0] != out[1]

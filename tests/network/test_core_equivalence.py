"""Cross-core equivalence: native and reference cores agree.

With a pinned :class:`~repro.network.schedule.InjectionSchedule` the
only randomness left (destination and route choice) is drawn from the
same stdlib RNG stream in the same order by every core, so all
``SimResult`` fields must be *identical* — these tests pin the smoke
scenario's configurations plus a wafer-scale switchless one.

Unpinned, both cores sample the same schedule from the same numpy
stream, so they must also agree bit-for-bit: one run, repeated runs on
one instance, and a truncated drain.
"""

from pathlib import Path

import pytest

from repro.api import load_study
from repro.engine.spec import ExperimentSpec, build_experiment
from repro.network import SimParams, Simulator, native_available

REPO = Path(__file__).resolve().parents[2]

CORES = ["reference"] + (
    ["native"] if native_available() else []
)


def smoke_specs():
    study = load_study(REPO / "scenarios" / "smoke.json")
    return [
        pytest.param(spec, id=spec.label or spec.topology)
        for scenario in study.scenarios
        for spec in scenario.specs
    ]


def switchless_spec():
    return ExperimentSpec.create(
        topology="switchless",
        topology_opts={
            "preset": "radix16_equiv",
            "num_wgroups": 2,
            "cgroups_per_wafer": 1,
        },
        routing="switchless",
        routing_opts={"mode": "minimal"},
        traffic="uniform",
        traffic_opts={"scope": ("group", 0)},
        params=SimParams(
            warmup_cycles=150,
            measure_cycles=400,
            drain_cycles=250,
            seed=13,
        ),
        rates=[0.4],
        label="SW-less",
    )


def run_cores(spec, rate, *, pinned):
    graph, routing, traffic = build_experiment(spec)
    schedule = None
    if pinned:
        schedule = Simulator(
            graph, routing, traffic, spec.params
        ).make_schedule(rate)
    sims = {
        core: Simulator(graph, routing, traffic, spec.params, core=core)
        for core in CORES
    }
    results = {
        core: sim.run(rate, schedule=schedule)
        for core, sim in sims.items()
    }
    return sims, results


class TestPinnedSchedule:
    @pytest.mark.parametrize("spec", smoke_specs())
    def test_smoke_scenario_results_identical(self, spec):
        for rate in spec.rates:
            sims, results = run_cores(spec, rate, pinned=True)
            ref = results["reference"].to_dict()
            for core, res in results.items():
                assert res.to_dict() == ref, (
                    f"{core} core diverged at rate {rate}"
                )
            base = sims["reference"]
            for core, sim in sims.items():
                assert (
                    sim.total_flits_injected == base.total_flits_injected
                ), core
                assert (
                    sim.total_flits_ejected == base.total_flits_ejected
                ), core

    def test_switchless_results_identical(self):
        spec = switchless_spec()
        _, results = run_cores(spec, spec.rates[0], pinned=True)
        ref = results["reference"].to_dict()
        for core, res in results.items():
            assert res.to_dict() == ref, f"{core} core diverged"

    def test_events_past_measurement_window_ignored_everywhere(self):
        """No core injects schedule events at or past warmup+measure
        (the reference core's injection gate) even when a hand-built
        schedule's horizon extends into the drain window."""
        from repro.network import InjectionSchedule

        study = load_study(REPO / "scenarios" / "smoke.json")
        spec = study.scenarios[0].specs[1]
        graph, routing, traffic = build_experiment(spec)
        params = spec.params
        base = Simulator(graph, routing, traffic, params).make_schedule(
            0.5
        )
        window = params.warmup_cycles + params.measure_cycles
        late = InjectionSchedule(
            list(base.cycles) + [window + 5, window + 9],
            list(base.nodes) + list(base.nodes[:2]),
            horizon=window + params.drain_cycles,
        )
        sims, results = {}, {}
        for core in CORES:
            sims[core] = Simulator(
                graph, routing, traffic, params, core=core
            )
            results[core] = sims[core].run(0.5, schedule=late)
        ref = results["reference"].to_dict()
        for core, res in results.items():
            assert res.to_dict() == ref, f"{core} core diverged"
        injected = {c: s.total_flits_injected for c, s in sims.items()}
        assert len(set(injected.values())) == 1, injected


@pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native core"
)
class TestNativeMatchesReference:
    def test_unpinned_results_identical(self):
        """Free-running native and reference cores share the schedule
        sampler and RNG streams, so they agree without pinning."""
        spec = switchless_spec()
        graph, routing, traffic = build_experiment(spec)
        rate = spec.rates[0]
        res_n = Simulator(
            graph, routing, traffic, spec.params, core="native"
        ).run(rate)
        res_r = Simulator(
            graph, routing, traffic, spec.params, core="reference"
        ).run(rate)
        assert res_n.to_dict() == res_r.to_dict()

    def test_repeated_runs_accumulate_identically(self):
        """run() twice on one instance (drain leftovers persist)."""
        study = load_study(REPO / "scenarios" / "smoke.json")
        spec = study.scenarios[0].specs[1]  # the mesh config
        graph, routing, traffic = build_experiment(spec)
        sims = [
            Simulator(graph, routing, traffic, spec.params, core=c)
            for c in ("native", "reference")
        ]
        for rate in (0.6, 0.3):
            res = [sim.run(rate) for sim in sims]
            assert res[0].to_dict() == res[1].to_dict(), f"rate {rate}"
        assert sims[0].flits_in_flight() == sims[1].flits_in_flight()

    def test_leftover_packets_survive_truncated_drain(self):
        """A zero-cycle drain strands measured packets in flight; the
        next run() must deliver them with sane (non-negative) latencies
        and identical results across cores — regression test for an
        out-of-bounds latency buffer and run-local clock restarts."""
        study = load_study(REPO / "scenarios" / "smoke.json")
        spec = study.scenarios[0].specs[1]
        params = spec.params.scaled(drain_cycles=0)
        graph, routing, traffic = build_experiment(spec)
        sims = [
            Simulator(graph, routing, traffic, params, core=c)
            for c in ("native", "reference")
        ]
        first = [sim.run(0.9) for sim in sims]
        assert first[0].to_dict() == first[1].to_dict()
        assert sims[0].flits_in_flight() > 0  # drain really truncated
        second = [sim.run(0.0) for sim in sims]
        assert second[0].to_dict() == second[1].to_dict()
        for res in second:
            assert res.avg_latency >= 0
            assert res.p50_latency >= 0


def test_unknown_core_rejected():
    study = load_study(REPO / "scenarios" / "smoke.json")
    spec = study.scenarios[0].specs[0]
    graph, routing, traffic = build_experiment(spec)
    with pytest.raises(ValueError, match="unknown simulation core"):
        Simulator(graph, routing, traffic, spec.params, core="turbo")

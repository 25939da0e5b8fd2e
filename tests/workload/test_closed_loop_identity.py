"""Closed-loop results pinned by golden digests on the reference core.

Closed-loop plans run on the reference core only: the native kernel has
no per-cycle callback surface for phase releases.  Instead of a second
core to agree with, every golden point's canonical
``SimResult.to_dict()`` (channels included) must hash to the sha256
recorded in ``closed_loop_golden.json``: each ``workload_smoke`` point,
a healthy and a degraded switchless ring, and two mesh workloads that
exercise compute delays and pipeline chains.

Regenerate the fixture only for a change that is meant to alter
closed-loop results::

    PYTHONPATH=src python -m tests.workload.test_closed_loop_identity
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.api.library import build_study, switchless_arch
from repro.engine import ExperimentSpec, build_experiment
from repro.network import SimParams, native_available
from repro.network.simulator import Simulator
from repro.workload import PhasePlan, run_closed_loop, workload_for_traffic

GOLDEN = Path(__file__).with_name("closed_loop_golden.json")
RATE = 0.5


def digest(result) -> str:
    blob = json.dumps(
        result.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def switchless_spec(**kw):
    return ExperimentSpec.create(
        traffic="uniform", traffic_opts={"scope": ("group", 0)},
        params=SimParams(seed=11), rates=[RATE],
        workload="ring_allreduce", workload_opts={"volume": 64},
        metrics=("cct",),
        **switchless_arch(
            preset="radix16_equiv", num_wgroups=2, cgroups_per_wafer=1
        ),
        **kw,
    )


def degraded_switchless_spec():
    return switchless_spec(
        faults={"model": "random", "link_rate": 0.05, "die_rate": 0.15,
                "seed": 7},
    )


def mesh_spec(workload, opts):
    return ExperimentSpec.create(
        topology="mesh", topology_opts={"dim": 4, "chiplet_dim": 2},
        routing="xy_mesh", traffic="uniform",
        params=SimParams(seed=11), rates=[RATE],
        metrics=("cct", "bubble", "overlap"),
        workload=workload, workload_opts=opts,
    )


def golden_points():
    """``(name, spec, rate)`` for every point in the fixture."""
    study = build_study("workload_smoke", scale="quick")
    points = [
        (f"smoke/{spec.label}@{rate:g}", spec, rate)
        for scn in study.scenarios
        for spec in scn.specs
        for rate in spec.rates
    ]
    points += [
        ("switchless_ring", switchless_spec(), RATE),
        ("degraded_switchless_ring", degraded_switchless_spec(), RATE),
        ("mesh_all_to_all",
         mesh_spec("all_to_all", {"volume": 32, "compute": 40}), RATE),
        ("mesh_pipeline",
         mesh_spec("pipeline", {"volume": 16, "microbatches": 2}), RATE),
    ]
    return points


def golden():
    return json.loads(GOLDEN.read_text())


def closed_loop(spec, rate):
    graph, routing, traffic = build_experiment(spec)
    return run_closed_loop(spec, graph, routing, traffic, rate)


@pytest.mark.parametrize(
    "name,spec,rate",
    [pytest.param(*p, id=p[0]) for p in golden_points()],
)
def test_golden_digest(name, spec, rate):
    assert digest(closed_loop(spec, rate)) == golden()[name]


def test_golden_fixture_covers_every_point():
    assert sorted(golden()) == sorted(p[0] for p in golden_points())


def test_closed_loop_ignores_session_core(monkeypatch):
    """run_closed_loop always builds the reference core, so a session
    pinned to native gets the same answer."""
    spec = golden_points()[0][1]
    baseline = digest(closed_loop(spec, RATE))
    monkeypatch.setenv("REPRO_SIM_CORE", "native")
    assert digest(closed_loop(spec, RATE)) == baseline


@pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native core"
)
def test_native_simulator_rejects_plans():
    spec = mesh_spec("ring_allreduce", {"volume": 32})
    graph, routing, traffic = build_experiment(spec)
    workload = workload_for_traffic(
        spec.workload, dict(spec.workload_opts), traffic
    )
    plan = PhasePlan(
        workload, traffic, params=spec.params, rate=RATE, seed=1
    )
    sim = Simulator(graph, routing, traffic, spec.params, core="native")
    with pytest.raises(ValueError, match="core='reference'"):
        sim.run(RATE, plan=plan)


def test_degraded_fabric_identity_and_masking():
    degraded = closed_loop(degraded_switchless_spec(), RATE)
    assert digest(degraded) == golden()["degraded_switchless_ring"]
    cct = degraded.channels["cct"]
    assert cct.summary["masked_packets"] > 0
    healthy = closed_loop(switchless_spec(), RATE).channels["cct"]
    # dead dies mask traffic; rerouting around failed links costs time
    assert healthy.summary["masked_packets"] == 0.0
    assert cct.summary["makespan"] != healthy.summary["makespan"]


def main() -> int:
    """Rewrite the fixture from the current reference core."""
    digests = {name: digest(closed_loop(spec, rate))
               for name, spec, rate in golden_points()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Load sweeps and saturation search through the engine."""

from repro.engine import ExperimentSpec, run_experiments, spec_saturation
from repro.network import LoadSweep, SimParams

PARAMS = SimParams(
    warmup_cycles=200, measure_cycles=2500, drain_cycles=400, seed=1
)


def tiny_spec(rates=(), label="pair"):
    """2x2 mesh of single-node chips under uniform traffic."""
    return ExperimentSpec.create(
        topology="mesh",
        topology_opts={"dim": 2},
        routing="xy_mesh",
        traffic="uniform",
        params=PARAMS,
        rates=rates,
        label=label,
    )


def sweep(rates, label="pair", **kw):
    return run_experiments([tiny_spec(rates, label)], workers=1, **kw)[0]


def test_sweep_collects_results():
    out = sweep([0.1, 0.3, 0.5])
    assert out.rates == [0.1, 0.3, 0.5]
    assert len(out.results) == 3
    assert out.label == "pair"


def test_sweep_stops_after_saturation():
    # the 2x2 mesh saturates near 1.1 flits/cycle/chip
    out = sweep([0.5, 2.0, 2.5, 3.0], stop_after_saturation=1)
    assert len(out.results) < 4
    assert out.saturation_rate <= 2.0


def test_zero_load_latency_and_rows():
    out = sweep([0.1])
    assert out.zero_load_latency() > 0
    rows = out.rows()
    assert len(rows) == 1 and len(rows[0]) == 3
    table = out.format_table()
    assert "offered" in table


def test_find_saturation_brackets_link_capacity():
    sat = spec_saturation(
        tiny_spec(), lo=0.1, hi=3.0, tol=0.2, max_iter=8
    )
    # each chip's links support ~1 flit/cycle/chip minus protocol losses
    assert 0.5 < sat < 1.6


def test_loadsweep_dict_round_trip():
    out = sweep([0.1, 0.3])
    data = out.to_dict()
    assert data["schema"] == "repro.load-sweep/v1"
    clone = LoadSweep.from_dict(data)
    assert clone.label == out.label
    assert clone.rates == out.rates
    assert [res.to_dict() for res in clone.results] == [
        res.to_dict() for res in out.results
    ]

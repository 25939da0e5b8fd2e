"""Engine crash containment: a dead worker process fails only the
tasks it was carrying — retried under probation, then blamed as a
poison point or chunk — never the whole run.  Per-point cases run on a
reference-core session (one lane per task); batched cases pack native
lane chunks."""

import os

import pytest

from repro.engine.cache import ResultCache
from repro.engine.executor import (
    PointFailure,
    run_experiments,
)
from repro.engine.spec import ExperimentSpec
from repro.network import SimParams, native_available
from repro.service import chaos

PARAMS = SimParams(
    warmup_cycles=100, measure_cycles=200, drain_cycles=150, seed=9
)

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native core"
)


def mesh_spec(rates, label="m", **over):
    kw = dict(
        topology="mesh",
        topology_opts={"dim": 4, "chiplet_dim": 2},
        routing="xy_mesh",
        traffic="uniform",
        params=PARAMS,
        rates=list(rates),
        label=label,
    )
    kw.update(over)
    return ExperimentSpec.create(**kw)


def sweeps_equal(a, b):
    assert a.rates == b.rates
    for ra, rb in zip(a.results, b.results):
        assert ra.to_dict() == rb.to_dict()


@pytest.fixture()
def arm_chaos(monkeypatch):
    def arm(directives):
        monkeypatch.setenv("REPRO_CHAOS", directives)
        chaos.reset()

    yield arm
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    chaos.reset()


@pytest.fixture()
def pool_cpus(monkeypatch):
    """Crash containment needs a real worker pool; on a single-CPU box
    ``_resolve_workers`` would clamp ``workers=2`` down to the serial
    path and ``crash-worker`` (child-only) could never fire."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setenv("REPRO_SIM_THREADS", "1")


@pytest.fixture()
def per_point(monkeypatch):
    """A reference-core session: every task is one lane, as for
    closed-loop specs and compiler-less hosts."""
    monkeypatch.setenv("REPRO_SIM_CORE", "reference")


@pytest.mark.usefixtures("per_point")
class TestParallelCrashContainment:
    def test_single_worker_crash_is_contained(
        self, tmp_path, arm_chaos, pool_cpus
    ):
        """One worker SIGKILLs itself mid-point; the run completes and
        every point is bit-identical to the crash-free baseline."""
        spec = mesh_spec([0.1, 0.2, 0.3, 0.4])
        [baseline] = run_experiments([spec], workers=1)

        arm_chaos(f"crash-worker:once={tmp_path}/crash.marker")
        [survived] = run_experiments([spec], workers=2)
        sweeps_equal(survived, baseline)

    def test_poison_point_blamed_not_the_run(
        self, tmp_path, arm_chaos, pool_cpus
    ):
        """A point that crashes its worker on every attempt raises
        PointFailure naming it — and the innocent points' results are
        already in the cache."""
        spec = mesh_spec([0.1, 0.2, 0.3])
        arm_chaos("crash-worker:match=m@0.3")
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(PointFailure, match="crashed its worker"):
            run_experiments(
                [spec], workers=2, cache=cache
            )
        assert len(cache) == 2  # 0.1 and 0.2 landed before the blame

    def test_transient_point_error_retried_in_worker(
        self, tmp_path, arm_chaos
    ):
        """A raising (not crashing) point is retried inside the worker
        via the per-point retry budget."""
        spec = mesh_spec([0.1, 0.2])
        [baseline] = run_experiments([spec], workers=1)

        arm_chaos(f"fail-point:once={tmp_path}/fail.marker")
        [survived] = run_experiments([spec], workers=1)
        sweeps_equal(survived, baseline)

    def test_retry_budget_exhaustion_propagates(
        self, monkeypatch, arm_chaos
    ):
        """With retries disabled, an injected point failure surfaces."""
        from repro.service.chaos import ChaosError

        monkeypatch.setenv("REPRO_POINT_RETRIES", "0")
        spec = mesh_spec([0.1])
        arm_chaos("fail-point:match=m@0.1")
        with pytest.raises(ChaosError):
            run_experiments([spec], workers=1)


@needs_native
class TestBatchedCrashContainment:
    def test_transient_chunk_error_retried(self, tmp_path, arm_chaos):
        """The retry budget covers packed chunks too: with default
        arguments on a native session, an injected point failure is
        retried and the sweep matches the clean run bit for bit."""
        spec = mesh_spec([0.1, 0.2])
        [baseline] = run_experiments([spec], workers=1)

        arm_chaos(f"fail-point:once={tmp_path}/fail.marker")
        [survived] = run_experiments([spec], workers=1)
        sweeps_equal(survived, baseline)
        assert os.path.exists(f"{tmp_path}/fail.marker")

    def test_sweep_crash_retried_solo(self, tmp_path, arm_chaos, pool_cpus):
        """Batched pooled path: a worker crash re-runs the lost sweeps
        one at a time; results stay bit-identical to the baseline."""
        specs = [
            mesh_spec([0.1, 0.2], label="a"),
            mesh_spec([0.1, 0.2], label="b", traffic="bit_reverse"),
        ]
        baseline = run_experiments(specs, workers=1)

        arm_chaos(f"crash-worker:once={tmp_path}/crash.marker")
        survived = run_experiments(specs, workers=2)
        for s, b in zip(survived, baseline):
            sweeps_equal(s, b)

    def test_poison_sweep_blamed(self, tmp_path, arm_chaos, pool_cpus):
        specs = [
            mesh_spec([0.1], label="a"),
            mesh_spec([0.1], label="b", traffic="bit_reverse"),
        ]
        arm_chaos("crash-worker:match=b@")
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(PointFailure, match="crashed its worker"):
            run_experiments(specs, workers=2, cache=cache)
        assert len(cache) == 1  # sweep 'a' completed and landed

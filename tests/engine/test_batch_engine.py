"""Engine packed lanes: parity with one-point-at-a-time simulation.

On a native-core session ``run_experiments`` packs each open-loop
sweep's missing rates into batched kernel calls.  That must be a pure
performance feature: identical sweeps, identical per-point seeds,
cache entries interchangeable with a reference-core session's, and the
same saturation-cutoff semantics, inline or on a process pool.
"""

import os

import pytest

from repro.engine import executor as ex
from repro.engine.cache import ResultCache
from repro.engine.executor import run_experiments, simulate_point
from repro.engine.spec import ExperimentSpec, point_key
from repro.network import SimParams, native_available

PARAMS = SimParams(
    warmup_cycles=150, measure_cycles=300, drain_cycles=300, seed=7
)

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native core"
)


def mesh_spec(rates, label="mesh", **over):
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
        assert set(ra.channels) == set(rb.channels)
        for name in ra.channels:
            assert (
                ra.channels[name].to_dict() == rb.channels[name].to_dict()
            )


@pytest.fixture()
def reference_run(monkeypatch):
    """``run_experiments`` on a reference-core session: one
    ``simulate_point`` per lane, no packed kernel."""

    def run(specs, **kw):
        with monkeypatch.context() as m:
            m.setenv("REPRO_SIM_CORE", "reference")
            return run_experiments(specs, **kw)

    return run


@pytest.fixture()
def pool_cpus(monkeypatch):
    """A real two-worker pool even on a small host: four CPUs reported
    and one kernel thread per packed lane chunk."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setenv("REPRO_SIM_THREADS", "1")


@pytest.fixture()
def tasks(monkeypatch):
    """Record every inline task as ``(label, rate indices, threads)``."""
    seen = []
    run_task = ex._run_task

    def spy(spec, ris, threads):
        seen.append((spec.label, ris, threads))
        return run_task(spec, ris, threads)

    monkeypatch.setattr(ex, "_run_task", spy)
    return seen


@needs_native
class TestBatchedSweepParity:
    @pytest.fixture(autouse=True)
    def native_session(self, monkeypatch):
        """Packed lanes even on a ``REPRO_SIM_CORE=reference`` run."""
        monkeypatch.delenv("REPRO_SIM_CORE", raising=False)

    def test_batched_equals_per_point(self, tmp_path, reference_run):
        specs = [
            mesh_spec([0.1, 0.2, 0.3], label="a"),
            mesh_spec([0.1, 0.25], label="b", traffic="bit_reverse"),
        ]
        c_b = ResultCache(tmp_path / "batched")
        c_r = ResultCache(tmp_path / "reference")
        sw_b = run_experiments(specs, cache=c_b, workers=1)
        sw_r = reference_run(specs, cache=c_r, workers=1)
        for spec, b, r in zip(specs, sw_b, sw_r):
            sweeps_equal(b, r)
            for rate, res in zip(b.rates, b.results):
                assert (
                    res.to_dict() == simulate_point(spec, rate).to_dict()
                )

    def test_per_point_seeds_unchanged(self):
        """Every batched point is simulate_point's exact result — the
        lane seed is the same point_seed-derived value."""
        spec = mesh_spec([0.15, 0.3])
        sw = run_experiments([spec], workers=1)[0]
        for rate, res in zip(sw.rates, sw.results):
            assert res.to_dict() == simulate_point(spec, rate).to_dict()

    def test_cache_entries_interchangeable(
        self, tmp_path, reference_run, tasks
    ):
        """A cache written by packed lanes replays into a reference-core
        run untouched, and vice versa."""
        spec = mesh_spec([0.1, 0.2])
        cache = ResultCache(tmp_path / "cache")
        sw_b = run_experiments([spec], cache=cache, workers=1)
        sw_r = reference_run([spec], cache=cache, workers=1)
        sweeps_equal(sw_b[0], sw_r[0])
        assert len(tasks) == 1  # the replay run simulated nothing

        other = ResultCache(tmp_path / "other")
        sw_r2 = reference_run([spec], cache=other, workers=1)
        sw_b2 = run_experiments([spec], cache=other, workers=1)
        sweeps_equal(sw_b[0], sw_b2[0])
        sweeps_equal(sw_r2[0], sw_b2[0])
        assert len(tasks) == 3  # two reference lanes, then pure replay

    def test_probed_batched_sweep(self, reference_run):
        spec = mesh_spec(
            [0.1, 0.2], metrics=["link_util", "latency_hist"]
        )
        sw_b = run_experiments([spec], workers=1)[0]
        sw_r = reference_run([spec], workers=1)[0]
        assert sw_b.results[0].channels
        sweeps_equal(sw_b, sw_r)

    def test_saturation_cutoff_short_circuits(
        self, tmp_path, reference_run
    ):
        """Rates far past saturation must not all be simulated: the
        chunked walk re-checks the cutoff between batch dispatches, so
        at most one speculative chunk runs past it."""
        rates = [0.05, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0]
        spec = mesh_spec(rates, label="cutoff")
        cache = ResultCache(tmp_path / "cutoff")
        sw = run_experiments([spec], cache=cache, workers=1)[0]
        simulated = sum(
            1 for r in rates if cache.get(point_key(spec, r)) is not None
        )
        assert simulated < len(rates)
        assert len(sw.rates) < len(rates)
        # the assembled sweep matches the one-point-at-a-time walk
        sw_r = reference_run([spec], workers=1)[0]
        sweeps_equal(sw, sw_r)

    def test_pool_branch_matches_inline(self, tmp_path, pool_cpus):
        """Packed sweeps over a two-worker pool and inline produce the
        same points and cache writes."""
        specs = [
            mesh_spec([0.1, 0.2], label="p1"),
            mesh_spec([0.1, 0.2], label="p2", traffic="bit_shuffle"),
        ]
        c_pool = ResultCache(tmp_path / "pool")
        c_inline = ResultCache(tmp_path / "inline")
        sw_pool = run_experiments(specs, cache=c_pool, workers=2)
        sw_inline = run_experiments(specs, cache=c_inline, workers=1)
        for p, i in zip(sw_pool, sw_inline):
            sweeps_equal(p, i)
        for spec in specs:
            for rate in spec.rates:
                key = point_key(spec, rate)
                assert (
                    c_pool.get(key).to_dict() == c_inline.get(key).to_dict()
                )

    def test_mixed_study_pool_matches_inline(self, tmp_path, pool_cpus):
        """A closed-loop spec next to an open-loop one: the pool runs
        both lane kinds side by side and matches the inline run."""
        specs = [
            mesh_spec([0.1, 0.2], label="open"),
            mesh_spec(
                [0.5, 1.0],
                label="ring",
                workload="ring_allreduce",
                workload_opts={"volume": 32},
            ),
        ]
        c_pool = ResultCache(tmp_path / "pool")
        c_inline = ResultCache(tmp_path / "inline")
        sw_pool = run_experiments(specs, cache=c_pool, workers=2)
        sw_inline = run_experiments(specs, cache=c_inline, workers=1)
        for p, i in zip(sw_pool, sw_inline):
            assert p.results
            sweeps_equal(p, i)
        assert len(c_pool) == len(c_inline) == 4


class TestWorkerThreadBudget:
    def test_resolve_workers_counts_kernel_threads(self, monkeypatch):
        monkeypatch.delenv(ex.WORKERS_ENV, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        # default: all CPUs when the kernel is single-threaded
        assert ex._resolve_workers(None, 100) == 8
        # workers x threads <= cpu_count
        assert ex._resolve_workers(None, 100, kernel_threads=4) == 2
        assert ex._resolve_workers(None, 100, kernel_threads=8) == 1
        assert ex._resolve_workers(None, 100, kernel_threads=16) == 1
        # explicit workers still respect the thread budget
        assert ex._resolve_workers(6, 100, kernel_threads=4) == 2
        # and the amount of work
        assert ex._resolve_workers(None, 1, kernel_threads=1) == 1

    def test_kernel_threads_env(self, monkeypatch):
        monkeypatch.setenv(ex.THREADS_ENV, "3")
        assert ex._kernel_threads() == 3
        monkeypatch.delenv(ex.THREADS_ENV)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert ex._kernel_threads() == 5


class TestBatchEnable:
    """The lane kind follows from the session, with no user option."""

    def test_non_native_core_disables_auto(self, monkeypatch, tasks):
        monkeypatch.setenv("REPRO_SIM_CORE", "reference")
        run_experiments([mesh_spec([0.1, 0.2])], workers=1)
        assert tasks == [("mesh", (0,), 0), ("mesh", (1,), 0)]

    @needs_native
    def test_auto_on_with_native(self, monkeypatch, tasks):
        monkeypatch.delenv("REPRO_SIM_CORE", raising=False)
        monkeypatch.setenv(ex.THREADS_ENV, "2")
        run_experiments([mesh_spec([0.1, 0.2, 0.3])], workers=1)
        assert tasks == [("mesh", (0, 1, 2), 2)]

    @needs_native
    def test_closed_loop_runs_one_lane_per_task(self, monkeypatch, tasks):
        """A study with a closed-loop spec gives its open-loop sweeps
        single-threaded packed chunks and the workload one lane per
        task."""
        monkeypatch.delenv("REPRO_SIM_CORE", raising=False)
        monkeypatch.setenv(ex.THREADS_ENV, "4")
        run_experiments(
            [
                mesh_spec([0.1, 0.2], label="open"),
                mesh_spec(
                    [0.5, 1.0],
                    label="ring",
                    workload="ring_allreduce",
                    workload_opts={"volume": 32},
                ),
            ],
            workers=1,
        )
        assert tasks == [
            ("open", (0, 1), 1),
            ("ring", (0,), 0),
            ("ring", (1,), 0),
        ]

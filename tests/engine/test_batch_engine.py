"""Engine batched fast path: parity with the per-point schedulers.

``run_experiments(batch=True)`` must be a pure performance feature:
identical sweeps, identical per-point seeds, interchangeable cache
entries, and the same saturation-cutoff semantics as the serial and
parallel per-point paths.
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


@needs_native
class TestBatchedSweepParity:
    def test_batched_equals_per_point(self, tmp_path):
        specs = [
            mesh_spec([0.1, 0.2, 0.3], label="a"),
            mesh_spec([0.1, 0.25], label="b", traffic="bit_reverse"),
        ]
        c_b = ResultCache(tmp_path / "batched")
        c_p = ResultCache(tmp_path / "perpoint")
        sw_b = run_experiments(specs, cache=c_b, batch=True, workers=1)
        sw_p = run_experiments(specs, cache=c_p, batch=False, workers=1)
        for b, p in zip(sw_b, sw_p):
            sweeps_equal(b, p)

    def test_per_point_seeds_unchanged(self):
        """Every batched point is simulate_point's exact result — the
        lane seed is the same point_seed-derived value."""
        spec = mesh_spec([0.15, 0.3])
        sw = run_experiments([spec], batch=True, workers=1)[0]
        for rate, res in zip(sw.rates, sw.results):
            assert res.to_dict() == simulate_point(spec, rate).to_dict()

    def test_cache_entries_interchangeable(self, tmp_path):
        """A cache written by the batched path replays into a
        batch=False run untouched, and vice versa."""
        spec = mesh_spec([0.1, 0.2])
        cache = ResultCache(tmp_path / "cache")
        sw_b = run_experiments([spec], cache=cache, batch=True, workers=1)
        sw_r = run_experiments([spec], cache=cache, batch=False, workers=1)
        sweeps_equal(sw_b[0], sw_r[0])
        # the replay run simulated nothing: every point was a cache hit
        sw_b2 = run_experiments([spec], cache=cache, batch=True, workers=1)
        sweeps_equal(sw_b[0], sw_b2[0])

    def test_probed_batched_sweep(self):
        spec = mesh_spec(
            [0.1, 0.2], metrics=["link_util", "latency_hist"]
        )
        sw_b = run_experiments([spec], batch=True, workers=1)[0]
        sw_p = run_experiments([spec], batch=False, workers=1)[0]
        assert sw_b.results[0].channels
        sweeps_equal(sw_b, sw_p)

    def test_saturation_cutoff_short_circuits(self, tmp_path):
        """Rates far past saturation must not all be simulated: the
        chunked walk re-checks the cutoff between batch dispatches, so
        at most one speculative chunk runs past it."""
        rates = [0.05, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0]
        spec = mesh_spec(rates, label="cutoff")
        cache = ResultCache(tmp_path / "cutoff")
        sw = run_experiments(
            [spec], cache=cache, batch=True, workers=1
        )[0]
        simulated = sum(
            1 for r in rates if cache.get(point_key(spec, r)) is not None
        )
        assert simulated < len(rates)
        assert len(sw.rates) < len(rates)
        # the assembled sweep matches the per-point walk exactly
        sw_p = run_experiments([spec], batch=False, workers=1)[0]
        sweeps_equal(sw, sw_p)

    def test_pool_branch_matches_inline(self, tmp_path):
        """_run_batched over a pool (workers > 1, several specs) and
        inline produce the same points and cache writes."""
        specs = [
            mesh_spec([0.1, 0.2], label="p1"),
            mesh_spec([0.1, 0.2], label="p2", traffic="bit_shuffle"),
        ]
        c_pool = ResultCache(tmp_path / "pool")
        c_inline = ResultCache(tmp_path / "inline")
        have_pool = [{}, {}]
        have_inline = [{}, {}]
        ex._run_batched(specs, have_pool, c_pool, 1, workers=2, threads=1)
        ex._run_batched(
            specs, have_inline, c_inline, 1, workers=1, threads=1
        )
        for hp, hi in zip(have_pool, have_inline):
            assert set(hp) == set(hi)
            for ri in hp:
                assert hp[ri].to_dict() == hi[ri].to_dict()
        for spec in specs:
            for rate in spec.rates:
                key = point_key(spec, rate)
                assert (
                    c_pool.get(key).to_dict() == c_inline.get(key).to_dict()
                )


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
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CORE", "reference")
        assert ex._batch_enabled(True) is True
        monkeypatch.delenv("REPRO_SIM_CORE")
        assert ex._batch_enabled(False) is False

    def test_non_native_core_disables_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CORE", "reference")
        assert ex._batch_enabled(None) is False

    @needs_native
    def test_auto_on_with_native(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_CORE", raising=False)
        assert ex._batch_enabled(None) is True

    def test_forced_batch_works_on_reference_core(self, monkeypatch):
        """batch=True on a non-native session uses the serial fallback
        of run_batch — same results, no packed kernel."""
        monkeypatch.setenv("REPRO_SIM_CORE", "reference")
        spec = mesh_spec([0.1, 0.2])
        sw_b = run_experiments([spec], batch=True, workers=1)[0]
        sw_p = run_experiments([spec], batch=False, workers=1)[0]
        sweeps_equal(sw_b, sw_p)

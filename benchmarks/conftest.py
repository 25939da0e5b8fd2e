"""Shared benchmark harness.

Every bench regenerates one table or figure of the paper and prints the
measured series next to the paper's reference values.  The figure
benches are thin wrappers over the bundled ``repro.api`` scenario
library (:func:`run_library_study`); the ablation bench sweeps its own
specs via :func:`run_curves`.

Because the substrate is a pure-Python cycle-accurate simulator, the
default scale trades simulated cycles / system size for wall-clock
(documented per bench and in EXPERIMENTS.md); set ``REPRO_SCALE=full``
for paper-exact configurations and Table IV cycle counts, or
``REPRO_SCALE=quick`` for a smoke-level pass.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Dict, Sequence

from repro.api import StudyResult, build_study
from repro.api import pick_rates as _pick_rates
from repro.api import sim_params as _sim_params
from repro.engine import ExperimentSpec, ResultCache, run_experiments
from repro.network import LoadSweep, SimParams

SCALE = os.environ.get("REPRO_SCALE", "default")

#: worker processes for engine-backed benches (None = engine default:
#: REPRO_WORKERS env, then CPU count).
WORKERS = None

#: point-result cache shared by all engine-backed benches when
#: ``REPRO_CACHE_DIR`` is set (re-running a figure then only simulates
#: missing points).
CACHE_DIR = os.environ.get("REPRO_CACHE_DIR")


def sim_params(seed: int = 11) -> SimParams:
    return _sim_params(SCALE, seed=seed)


def pick_rates(rates: Sequence[float], quick_count: int = 3):
    return _pick_rates(rates, SCALE, quick_count=quick_count)


def run_library_study(name: str) -> StudyResult:
    """Run one bundled study at the session scale and print its report."""
    study = build_study(name, scale=SCALE)
    cache = ResultCache(CACHE_DIR) if CACHE_DIR else None
    result = study.run(workers=WORKERS, cache=cache)
    print()
    print(f"(scale={SCALE})")
    print(result.render())
    return result


def run_curves(
    configs: Dict[str, ExperimentSpec],
    rates: Sequence[float],
    *,
    params: SimParams,
    stop_after_saturation: int = 1,
) -> Dict[str, LoadSweep]:
    """Sweep each labeled spec over ``rates`` with ``params``.

    For benches whose knobs (VC policy ablations) are not in the
    scenario library; the figure benches run bundled studies instead.
    """
    specs = [
        replace(spec, rates=tuple(rates), params=params, label=label)
        for label, spec in configs.items()
    ]
    cache = ResultCache(CACHE_DIR) if CACHE_DIR else None
    sweeps = run_experiments(
        specs,
        workers=WORKERS,
        cache=cache,
        stop_after_saturation=stop_after_saturation,
    )
    return dict(zip(configs, sweeps))


def print_figure(title: str, sweeps: Dict[str, LoadSweep], notes: str = "") -> None:
    print()
    print(f"==== {title} (scale={SCALE}) ====")
    if notes:
        print(notes)
    for sweep in sweeps.values():
        print(sweep.format_table())
        print(
            f"-> saturation ~{sweep.saturation_rate:.2f}, "
            f"max accepted {sweep.max_accepted:.2f} flits/cycle/chip"
        )


def once(benchmark, fn):
    """Run a whole-figure regeneration exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)

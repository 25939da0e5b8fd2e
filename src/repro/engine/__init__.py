"""Declarative experiment engine: specs, parallel execution, caching.

The engine decouples *describing* an experiment from *running* it:

* :class:`~repro.engine.spec.ExperimentSpec` is a picklable, hashable
  description of one latency-vs-load curve (topology + routing +
  traffic + :class:`~repro.network.params.SimParams` + rate list) that
  can be rebuilt from scratch inside a worker process;
* :func:`~repro.engine.executor.run_experiments` runs each sweep's
  missing ``(spec, rate)`` points — packed into native kernel calls
  or one at a time, inline or over a ``multiprocessing`` pool — with
  deterministic per-point seeds;
* :class:`~repro.engine.cache.ResultCache` is an on-disk JSON store so
  re-running a benchmark only simulates the missing points.
"""

from .cache import ResultCache
from .executor import (
    PointCallback,
    run_experiments,
    simulate_point,
    spec_saturation,
)
from .spec import (
    ExperimentSpec,
    build_experiment,
    build_faults,
    build_metrics,
    build_routing,
    build_system,
    build_traffic,
    list_presets,
    list_routings,
    list_topologies,
    list_traffics,
    point_key,
    point_seed,
    register_routing,
    register_topology,
    register_traffic,
    suggest,
)

__all__ = [
    "ExperimentSpec",
    "PointCallback",
    "ResultCache",
    "build_experiment",
    "build_faults",
    "build_metrics",
    "build_routing",
    "build_system",
    "build_traffic",
    "list_presets",
    "list_routings",
    "list_topologies",
    "list_traffics",
    "point_key",
    "point_seed",
    "register_routing",
    "register_topology",
    "register_traffic",
    "run_experiments",
    "simulate_point",
    "spec_saturation",
    "suggest",
]

"""The ``service_mix`` client, in a fresh process (started by ``run.py``).

One closed-loop client (one request in flight) drives a running
``serve`` process: the first job computes the hot ``smoke`` study,
then each job is, by a seeded draw, a resubmission of that study (90%,
replayed from the store) or ``smoke`` with a seed never used before
(10%, computes 4 points and writes them).  Each job is ``submit`` then
``watch`` until ``done``.  Prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

#: share of jobs that submit a never-seen seed.
FRESH_SHARE = 0.1
#: jobs between host-speed probes.
PROBE_EVERY = 10
#: fresh jobs re-computed locally and compared with the service's answer.
LOCAL_CHECKS = 5


def _totals(payload) -> dict:
    """``name -> value`` over a ``repro.metrics/v1`` document: counters
    and gauges summed over labels, histograms as ``name.sum`` and
    ``name.count``."""
    out = {}
    for metric in payload["metrics"]:
        name = metric["name"]
        for sample in metric["samples"]:
            if "value" in sample:
                out[name] = out.get(name, 0.0) + sample["value"]
            else:
                for part in ("sum", "count"):
                    key = f"{name}.{part}"
                    out[key] = out.get(key, 0.0) + sample[part]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--url", required=True)
    ap.add_argument("--server-pid", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    clock = None
    if args.trace:
        from layers import LayerClock, install

        clock = LayerClock()
        install(clock)

    from outputs import (
        canonical,
        digest_points,
        idle_host_speed_ms,
        reseed,
        study_points,
    )
    from repro.api import build_study
    from repro.service import ServiceClient, ServiceError

    smoke = build_study("smoke")
    hot = reseed(smoke, args.seed)
    rng = random.Random(args.seed)
    kinds = ["first"] + [
        "fresh" if rng.random() < FRESH_SHARE else "hot"
        for _ in range(args.jobs - 1)
    ]
    client = ServiceClient(args.url, timeout=60.0)

    before = _totals(client.metrics())
    # latencies as [ms, host probe ms]; the probe (both vCPUs, since the
    # client and the server share them) is taken every PROBE_EVERY jobs
    # while the server is idle, and each job gets the mean of the probes
    # around its group (None when either probe never saw it idle)
    hot_ms, fresh_ms, fresh_seeds, chunks, group = [], [], [], [], []
    reference = None
    first = first_ms = None
    failed = 0
    tries = []

    def probe_idle():
        ms, n = idle_host_speed_ms(args.server_pid)
        tries.append(n)
        return ms

    probe = probe_idle()
    t_group = time.perf_counter()
    for i, kind in enumerate(kinds):
        if kind == "fresh":
            seed = 1_000_000 * (args.seed + 1) + i
            study = reseed(smoke, seed)
        else:
            study = hot
        t = time.perf_counter()
        try:
            status = client.submit_study(study)
            result = client.watch(status["id"])
        except ServiceError:
            failed += 1
        else:
            ms = (time.perf_counter() - t) * 1e3
            if kind == "first":  # the server's cold start: not sampled
                first_ms = ms
                first = result
                reference = canonical(result)
            elif kind == "hot":
                group.append((hot_ms, ms))
                failed += int(canonical(result) != reference)
            else:
                group.append((fresh_ms, ms))
                fresh_seeds.append((seed, canonical(result)))
        if (i + 1) % PROBE_EVERY == 0 or i + 1 == len(kinds):
            wall = time.perf_counter() - t_group
            after = probe_idle()
            mean = None if None in (probe, after) else (probe + after) / 2
            for samples, ms in group:
                samples.append([ms, mean])
            chunks.append([wall, mean])
            probe, group = after, []
            t_group = time.perf_counter()
    after = _totals(client.metrics())
    layers = None
    if clock is not None:
        layers = {
            "incl": dict(clock.incl),
            "self": dict(clock.self_s),
            "calls": dict(clock.calls),
        }

    # outside the timed loop: a few fresh answers against a local run
    for seed, answer in rng.sample(
        fresh_seeds, min(LOCAL_CHECKS, len(fresh_seeds))
    ):
        local = reseed(smoke, seed).run(workers=1)
        failed += int(canonical(local) != answer)

    delta = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}
    out = {
        "wall_s": sum(wall for wall, _ in chunks),
        "chunks": chunks,
        "attempted": len(kinds) + min(LOCAL_CHECKS, len(fresh_seeds)),
        "failed": failed,
        "digest": digest_points(study_points(first)) if first else None,
        "hot_points": len(study_points(first)) if first else 0,
        "first_ms": first_ms,
        "hot_ms": hot_ms,
        "fresh_ms": fresh_ms,
        "server": delta,
        "probe_tries": tries,
    }
    if layers is not None:
        out["layers"] = layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Repository benchmark: one workload per call, result on the last line.

    python3 perfbench/run.py --workload fig11_global --seed 3 \\
        --seconds 16 --trace 0

Run from the root of a checkout.  Every measured part runs in a fresh
Python process (``sweep_child.py`` or ``service_child.py``) with an
environment stripped of every ``REPRO_*`` variable, ``PYTHONPATH``
pointing at ``src/`` and the native kernel's compile cache in
``.perfbench/native``.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics of a separate traced run.
The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it (``{"perfbench": ...}``) records the
host, the program version and the checks behind ``correct``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from outputs import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SWEEPS = ("fig10_local_full", "fig11_global", "allreduce_closed_loop")
WORKLOADS = SWEEPS + ("service_mix",)
#: set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 9
#: cold passes (each in a fresh process) per run; ``wall_s`` is their
#: median.  The host's speed drifts over seconds, so the shorter passes
#: repeat; ``fig10_local_full``'s one pass is long enough to average it.
COLD_PASSES = {"fig11_global": 2, "allreduce_closed_loop": 3}
#: host-probe time that defines the reference host speed the service's
#: times are reported at (about the probe's time on the 2-vCPU box the
#: bounds were set on; see ``outputs.host_probe_ms``).
PROBE_REF_MS = 3.0
#: seeds recorded in ``digests.json``; every ``--seed`` maps onto one
#: of them (``seed % RECORDED_SEEDS``), so every run's output is checked
#: against a recorded digest.
RECORDED_SEEDS = 32
#: ``service_mix`` jobs per second of ``--seconds``.
JOBS_PER_SECOND = 65
#: wall-clock cap on any one child process.
CHILD_TIMEOUT = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "warm_points_per_s": "points/s",
    "peak_rss_mb": "MB",
    "hot_p50_ms": "ms",
    "hot_p90_ms": "ms",
    "fresh_p50_ms": "ms",
    "fresh_p90_ms": "ms",
}

#: timed layers, each reported as ``<layer>_s`` (self time: the call's
#: duration minus the timed calls beneath it) and ``<layer>_calls``.
TIMED_LAYERS = (
    "cli.import",
    "network.native_load",
    "topology.build",
    "routing.build",
    "faults.routing_build",
    "traffic.build",
    "network.prepare",
    "network.resolve",
    "network.kernel",
    "workload.closed_loop",
    "workload.plan",
    "metrics.probe_collect",
    "engine.run",
    "api.run",
)


#: kernel and engine figures the sweep child computes from its results.
ENGINE_COUNTS = {
    "network.kernel_lanes": "count",
    "network.lanes_per_call": "lanes/call",
    "network.flit_hops": "flit-hops",
    "network.kernel_ns_per_flit_hop": "ns/flit-hop",
    "engine.points_fresh": "count",
    "engine.useful_frac": "ratio",
    "engine.worker_crashes": "count",
}


class BenchError(RuntimeError):
    pass


def child_env(native_cache: Path = None) -> dict:
    """The environment every measured process gets: no ambient
    ``REPRO_*`` knob (workers, threads, core, batching, chaos, retries,
    span log, trace parents, cache dirs) and no foreign PYTHONPATH."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONPATH"
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_NATIVE_CACHE"] = str(native_cache or WORK / "native")
    return env


def run_child(script: str, args, env=None) -> dict:
    """Run a child script; returns the JSON object on its last line."""
    cmd = [sys.executable, str(HERE / script), *map(str, args)]
    cmd += ["--t0", repr(time.time())] if script == "sweep_child.py" else []
    try:
        proc = subprocess.run(
            cmd,
            env=env or child_env(),
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} exited with {proc.returncode}")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------
class Server:
    """A ``serve`` subprocess with its own empty store."""

    def __init__(self, directory: Path) -> None:
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        self.log = directory / "serve.log"
        t0 = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--port", "0", "--cache-dir", str(directory / "store")],
                env=child_env(),
                cwd=ROOT,
                stdout=subprocess.DEVNULL,
                stderr=log,
            )
        try:
            self.url = self._wait_url()
            self._wait_health()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _wait_url(self) -> str:
        marker = "# simulation service on "
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            for line in self.log.read_text().splitlines():
                if line.startswith(marker):
                    return line[len(marker):].strip()
            if self.proc.poll() is not None:
                raise BenchError("serve exited during start-up")
            time.sleep(0.002)
        raise BenchError("serve printed no URL within 60 s")

    def _wait_health(self) -> None:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(
                    self.url + "/api/health", timeout=5
                ) as resp:
                    if resp.status == 200:
                        return
            except OSError:
                time.sleep(0.002)
        raise BenchError("serve did not answer /api/health within 60 s")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                req = urllib.request.Request(
                    self.url + "/api/shutdown", data=b"{}", method="POST"
                )
                urllib.request.urlopen(req, timeout=10).close()
            except (OSError, AttributeError):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)


def _server_setup_s() -> float:
    server = Server(WORK / "setup")
    server.stop()
    return server.setup_s


def service_pass(name: str, seed: int, jobs: int, trace: bool):
    """Start a server, drive it with one client, stop it."""
    server = Server(WORK / name)
    try:
        args = ["--url", server.url, "--server-pid", server.proc.pid,
                "--seed", seed, "--jobs", jobs]
        out = run_child(
            "service_child.py", args + (["--trace"] if trace else [])
        )
        out["peak_rss_mb"] = server.peak_rss_mb()
        out["setup_s"] = server.setup_s
    finally:
        server.stop()
    return out


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(workload: str, seed: int, seconds: int, info: dict):
    if workload in SWEEPS:
        args = _sweep_args(workload, seed, seconds)
        n_cold = COLD_PASSES.get(workload, 1)

        def probe():
            return run_child(
                "sweep_child.py", ["--setup-only", *args]
            )["setup_s"]

        # set-up probes on both sides of the measured work, so their
        # median spans the run rather than one moment of the host
        n_probes = SETUP_SAMPLES - n_cold
        setups = [probe() for _ in range(n_probes // 2)]
        colds = [
            run_child("sweep_child.py", ["--cold-only", *args])
            for _ in range(n_cold - 1)
        ]
        out = run_child("sweep_child.py", args)
        colds.append(out)
        setups += [c["setup_s"] for c in colds]
        setups += [probe() for _ in range(n_probes - n_probes // 2)]
        wall = statistics.median(c["wall_s"] for c in colds)
        out["failed"] += sum(c["digest"] != out["digest"] for c in colds)
        out["attempted"] += len(colds) - 1
        warm = out["warm_points_per_s"]
        hot = out["hot_ms"]
        fresh = [ms for c in colds for ms in c["fresh_ms"]]
        info.update(
            workers=out["workers"],
            cold_passes=len(colds),
            warm_passes=out["warm_passes"],
            recheck=out["recheck"],
        )
        if "model_ratio_uniform" in out:
            info["model_accuracy"] = {
                "sw_less_over_sw_based_max_accepted_uniform":
                    out["model_ratio_uniform"],
                "paper_fig10c": "~1.5x",
                "note": "checked only against the paper's approximate "
                "figure values, not against hardware; not gated",
            }
    else:
        n_probes = SETUP_SAMPLES - 1
        setups = [_server_setup_s() for _ in range(n_probes // 2)]
        out = service_pass("service", seed, JOBS_PER_SECOND * seconds, False)
        setups.append(out["setup_s"])
        setups += [_server_setup_s() for _ in range(n_probes - n_probes // 2)]
        if not (out["hot_ms"] and out["fresh_ms"]):
            raise BenchError("no service job of a kind completed")
        wall = sum(_normalized(out["chunks"]))
        hot, fresh = _normalized(out["hot_ms"]), _normalized(out["fresh_ms"])
        warm = out["hot_points"] * len(hot) / (sum(hot) / 1e3)
        raw = {
            "wall_s": out["wall_s"],
            "hot_p50_ms": percentile([x for x, _ in out["hot_ms"]], 50),
            "fresh_p50_ms": percentile([x for x, _ in out["fresh_ms"]], 50),
        }
        tries = out["probe_tries"]
        info.update(
            raw=raw,
            # normalized / raw: a change that makes this ratio drift is
            # moving the host probe and should be read from the raw values
            normalized_over_raw={
                "wall_s": wall / raw["wall_s"],
                "hot_p50_ms": percentile(hot, 50) / raw["hot_p50_ms"],
                "fresh_p50_ms": percentile(fresh, 50) / raw["fresh_p50_ms"],
            },
            probes={
                "taken": len(tries),
                "retaken": sum(n - 1 for n in tries),
                "busy_groups": sum(
                    p is None for _, p in out["chunks"]
                ),
            },
            workers=1,
            first_job_ms=out["first_ms"],
            server=out["server"],
        )
    info.update(
        digest=out["digest"],
        samples={"setup": len(setups), "hot": len(hot), "fresh": len(fresh)},
    )
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "warm_points_per_s": warm,
        "peak_rss_mb": out["peak_rss_mb"],
        "hot_p50_ms": percentile(hot, 50),
        "hot_p90_ms": percentile(hot, 90),
        "fresh_p50_ms": percentile(fresh, 50),
        "fresh_p90_ms": percentile(fresh, 90),
    }
    metrics = {
        k: {"value": values[k], "unit": u}
        for k, u in END_TO_END_UNITS.items()
    }
    return out, metrics


def _normalized(pairs) -> list:
    """``[time, probe ms]`` pairs as times at the reference host speed
    (where the probe takes ``PROBE_REF_MS``); a pair whose probe never
    saw the server idle (``None``) keeps its raw time."""
    return [
        x if probe is None else x * PROBE_REF_MS / probe
        for x, probe in pairs
    ]


def _sweep_args(workload, seed, seconds, *extra):
    work = WORK / f"{workload}-work"
    return ["--workload", workload, "--seed", seed, "--seconds", seconds,
            "--work", work, *extra]


def layer_metrics(layers: dict, wall: float) -> dict:
    """Per-layer figures from a child's clock; ``unattributed_s`` is the
    traced wall time minus every layer's self time."""
    incl, own, calls = layers["incl"], layers["self"], layers["calls"]
    out = {}
    for key in TIMED_LAYERS:
        out[f"{key}_s"] = (own.get(key, 0.0), "s")
        out[f"{key}_calls"] = (calls.get(key, 0), "count")
    out["engine.self_s"] = out.pop("engine.run_s")
    out["engine.run_s"] = (incl.get("engine.run", 0.0), "s")
    out["api.self_s"] = out.pop("api.run_s")
    for key in ("service.submit", "service.watch"):
        n = calls.get(key, 0)
        out[f"{key}_ms"] = (incl.get(key, 0.0) * 1e3 / n if n else 0.0,
                            "ms")
        out[f"{key}_calls"] = (n, "count")
    out["unattributed_s"] = (wall - sum(own.values()), "s")
    return out


def traced(workload: str, seed: int, seconds: float, info: dict):
    """Untraced then traced run of the same input; per-layer metrics."""
    m = {}
    failed = 0
    if workload in SWEEPS:
        empty = WORK / "compile-probe"
        shutil.rmtree(empty, ignore_errors=True)
        probe = run_child(
            "sweep_child.py",
            ["--setup-only", *_sweep_args(workload, seed, seconds)],
            env=child_env(empty),
        )
        shutil.rmtree(empty, ignore_errors=True)
        m["network.compile_s"] = (probe["native_s"], "s")
        m["network.compile_calls"] = (1, "count")
        args = _sweep_args(workload, seed, seconds, "--cold-only",
                           "--workers", 1)
        plain = run_child("sweep_child.py", args)
        out = run_child("sweep_child.py", args + ["--trace"])
        wall_plain, wall = plain["since_spawn_s"], out["since_spawn_s"]
        lay = out["layers"]
        m.update(layer_metrics(lay, wall))
        for key, unit in ENGINE_COUNTS.items():
            m[key] = (lay[key], unit)
        attempted = out["points"] + plain["points"]
        info["workers"] = 1
    else:
        jobs = JOBS_PER_SECOND * seconds
        plain = service_pass("plain", seed, jobs, False)
        out = service_pass("traced", seed, jobs, True)
        wall_plain, wall = plain["wall_s"], out["wall_s"]
        m["network.compile_s"] = (0.0, "s")
        m["network.compile_calls"] = (0, "count")
        m.update(layer_metrics(out["layers"], wall))
        for key, unit in ENGINE_COUNTS.items():
            m[key] = (0, unit)
        failed += plain["failed"] + out["failed"]
        attempted = plain["attempted"] + out["attempted"]
        info["workers"] = 1
    server = out.get("server", {})
    waits = server.get("service_queue_wait_seconds.count", 0.0)
    hits = server.get("store_hits_total", 0.0)
    misses = server.get("store_misses_total", 0.0)
    jobs_done = server.get("service_jobs_submitted_total", 0.0)
    m.update({
        "service.queue_wait_s": (
            server.get("service_queue_wait_seconds.sum", 0.0), "s"),
        "service.queue_waits": (waits, "count"),
        "service.retries": (server.get("service_retries_total", 0.0),
                            "count"),
        "service.http_requests_per_job": (
            server.get("http_requests_total", 0.0) / jobs_done
            if jobs_done else 0.0, "requests/job"),
        "store.hits": (hits, "count"),
        "store.misses": (misses, "count"),
        "store.hit_frac": (hits / (hits + misses) if hits + misses else 0.0,
                           "ratio"),
        "cache.writes": (server.get("cache_writes_total", 0.0), "count"),
        "cache.write_bytes": (server.get("cache_write_bytes_total", 0.0),
                              "bytes"),
        "obs.traced_wall_s": (wall, "s"),
        "obs.untraced_wall_s": (wall_plain, "s"),
        "obs.trace_overhead": (wall / wall_plain, "ratio"),
    })
    if out["digest"] != plain["digest"]:
        failed += 1
        info["trace_digest_mismatch"] = [plain["digest"], out["digest"]]
    if m["unattributed_s"][0] < 0:
        failed += 1
        info["negative_unattributed_s"] = m["unattributed_s"][0]
    info["digest"] = plain["digest"]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())}
    return attempted, failed, metrics


# ----------------------------------------------------------------------
def host_info() -> dict:
    src = ROOT / "src"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    commit = None
    try:
        top, _, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.partition("\n")
        if top and Path(top).resolve() == ROOT:
            commit = head.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "kernel_threads": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": h.hexdigest()[:20],
    }


def known_digest(workload: str, seed: int):
    table = json.loads((HERE / "digests.json").read_text())
    return table.get(workload, {}).get(str(seed))


def input_seed(seed: int) -> int:
    """The recorded seed a ``--seed`` maps onto (see ``RECORDED_SEEDS``)."""
    return seed % RECORDED_SEEDS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    seed = input_seed(args.seed)
    info = {"workload": args.workload, "seed": args.seed,
            "input_seed": seed, "seconds": args.seconds,
            "trace": args.trace, **host_info()}
    try:
        warmup = run_child("sweep_child.py", ["--setup-only", *_sweep_args(
            args.workload, seed, args.seconds)])
        info["native"] = warmup["native"]
        if args.trace:
            attempted, failed, metrics = traced(
                args.workload, seed, args.seconds, info)
        else:
            out, metrics = end_to_end(
                args.workload, seed, args.seconds, info)
            attempted, failed = out["attempted"], out["failed"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    bad = [k for k, v in metrics.items() if not math.isfinite(v["value"])]
    if bad:
        print(f"error: no value for {', '.join(bad)}", file=sys.stderr)
        return 1
    expected = known_digest(args.workload, seed)
    if expected != info["digest"]:
        failed += 1
        info["digest_expected"] = expected
    print(json.dumps({"perfbench": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the expected output digest of each workload for a seed range.

    python3 perfbench/record_digests.py --seeds 0-31 [--workload NAME]

Runs each workload's study once per seed (cold, engine defaults; for
``service_mix`` its hot ``smoke`` study) and merges the digests into
``digests.json``.  ``run.py`` maps every ``--seed`` onto seeds
0-31 and compares every run against this table; a digest missing from
it counts as a failure.  Re-record only when a change is meant to
alter simulated results.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, WORKLOADS, _sweep_args, run_child


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", required=True, help="e.g. 0-31")
    ap.add_argument("--workload", choices=WORKLOADS, action="append")
    args = ap.parse_args(argv)
    path = HERE / "digests.json"
    table = json.loads(path.read_text())
    for workload in args.workload or WORKLOADS:
        for seed in _seeds(args.seeds):
            digest = run_child("sweep_child.py", _sweep_args(
                workload, seed, 0, "--cold-only"))["digest"]
            table.setdefault(workload, {})[str(seed)] = digest
            path.write_text(json.dumps(table, indent=1, sort_keys=True)
                            + "\n")
            print(workload, seed, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

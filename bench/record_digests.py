#!/usr/bin/env python3
"""Record the stdout digests of every job with fixed inputs.

    python3 bench/record_digests.py

Run it only at a commit whose outputs are trusted (the first recording was
made at the seed commit); every later run compares against digests.json.
Each job must still pass its own content check to be recorded.
"""

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import jobs  # noqa: E402
import workloads  # noqa: E402

FIXED = ("presentations", "sylow-n12", "table-sweep")


def main() -> int:
    digests = {}
    cold = jobs.ColdStart()
    for name in FIXED:
        for job in workloads.build(name, seed=0, record=True):
            res = jobs.run_job(job, cold)
            if res.status != "ok":
                print(f"{job.name}: {res.status} {res.detail}", file=sys.stderr)
                return 1
            digests[job.name] = res.digest
    with open(workloads.DIGESTS_PATH, "w") as f:
        json.dump(digests, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(digests)} digests in {workloads.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

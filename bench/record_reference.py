"""Rewrite bench/reference.json from the code in this checkout.

    python3 bench/record_reference.py

Runs one untraced sample of each workload per seed and stores the ordered
(case, verdict) list, which must not depend on the seed, and the report md5
for each of the seeds 0 to SEEDS-1.  Run it only on the commit whose output
is the reference.
"""

import json
import sys

import run

SEEDS = 12


def main():
    reference = {}
    for workload in run.WORKLOADS:
        entry = {"cases": None, "md5": {}}
        for seed in range(SEEDS):
            s = run.sample(workload, seed, False, run.RUN_LIMIT_S)
            if "error" in s or s["code"] != 0 or s["failed"]:
                sys.exit("%s seed %d did not pass: %s" % (workload, seed, s.get("error")))
            if entry["cases"] is None:
                entry["cases"] = s["cases"]
            elif s["cases"] != entry["cases"]:
                sys.exit("%s: (case, verdict) list depends on the seed" % workload)
            entry["md5"][str(seed)] = s["md5"]
            print(workload, seed, s["md5"], "%.2f s" % s["wall_s"], flush=True)
        reference[workload] = entry
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

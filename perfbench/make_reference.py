"""Write reference.json: the expected verdict of every decision for seeds 1-10.

    python3 perfbench/make_reference.py

Run it from the repository root, outside any timed run, whenever a workload's
generation changes.  Only workloads whose answers do not all hold by
construction are listed.  Each entry holds a digest of the generated inputs
and one letter per decision (Y or N).  A run
with a listed seed takes its verdicts from here when the digest matches and
computes them otherwise.
"""

from __future__ import annotations

import json

import run

SEEDS = range(1, 11)


def main() -> None:
    run._load_library()
    from workloads import WORKLOADS, inputs_digest

    out = {}
    for name, workload in WORKLOADS.items():
        if workload.reference is None:  # every answer holds by construction
            continue
        out[name] = {}
        for seed in SEEDS:
            decisions = workload.build(seed, workload.count)
            verdicts = "".join("Y" if workload.reference(d) else "N" for d in decisions)
            out[name][str(seed)] = {"digest": inputs_digest(decisions), "verdicts": verdicts}
            print(name, seed, verdicts.count("Y"), "YES", verdicts.count("N"), "NO", flush=True)
    (run.HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()

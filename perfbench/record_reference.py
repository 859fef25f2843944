"""Record ``reference.json``: the verdicts the benchmark checks against.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record_reference.py

Every workload runs once per seed in ``SEEDS``.  The exit codes and the
non-config manifest entries of the first seed become the reference; keys
whose values differ between the seeds are marked ``seeded`` and are then
checked through the verdict only.
"""

from __future__ import annotations

import json
import sys

import run
from verdicts import ATOL, REFERENCE, RTOL, headline
from workloads import WORKLOADS

SEEDS = (1, 2, 3)


def main() -> int:
    run.pin_threads()
    cli = run.import_cli()
    reference = {"rtol": RTOL, "atol": ATOL, "seeds": list(SEEDS),
                 "environment": run.environment(SEEDS[0]), "workloads": {}}
    for name, workload in WORKLOADS.items():
        runs = [run.run_pass(cli.main, workload, seed)[2] for seed in SEEDS]
        entries = []
        for argv, outcomes in zip(workload.invocations, zip(*runs)):
            codes = {code for code, _ in outcomes}
            if len(codes) != 1:
                raise RuntimeError(f"{argv}: exit code depends on the seed")
            manifests = [headline(manifest) for _, manifest in outcomes]
            values = manifests[0]
            seeded = sorted(k for k in values
                            if any(m.get(k) != values[k] for m in manifests))
            entries.append({"argv": list(argv), "exit": codes.pop(),
                            "values": values, "seeded": seeded})
        reference["workloads"][name] = entries
        print(f"{name}: {len(entries)} invocations recorded", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the outputs the benchmark checks against into ``expected.json``.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/record.py

It runs every schedule of the default chaos campaign under a tracer (the
summary and incidents-report digests) and one ``paper`` pass (the digests
of its seed-independent outputs).  Re-record only for a change that is
meant to alter simulated statistics or the paper's values.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import workloads

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def main() -> int:
    pool = workloads.pool_size()
    blank = {"chaos": [{} for _ in range(pool)], "paper": {}}
    recorded: dict = {"chaos": [], "paper": {}}
    os.makedirs(".perfbench_tmp", exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".perfbench_tmp") as tmp:
        observed = workloads.setup("chaos-observed", blank, tmp)
        for idx in range(pool):
            res = observed.run_op(idx)
            recorded["chaos"].append(res.recorded)
            print(f"schedule {idx}: {res.recorded}", file=sys.stderr)
        res = workloads.setup("paper", blank, tmp).run_op(0)
        recorded["paper"] = res.recorded
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {EXPECTED}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

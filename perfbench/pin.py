"""Pin the output digest of every pool member into pinned.json.

    python3 perfbench/pin.py

Run from the repository root, and only after a deliberate change to the
program's output (the same rule as a ledger fingerprint bump): the
benchmark counts every member whose digest differs as a failed run.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    run.STATE.mkdir(exist_ok=True)
    digests = {}
    for name in workloads.WORKLOADS:
        digests[name] = {}
        for member in range(workloads.POOL_SIZE[name]):
            report = run.spawn(name, member, False)
            if "error" in report or report["problems"]:
                print(f"{name} member {member}: {report.get('error') or report['problems']}",
                      file=sys.stderr)
                return 1
            digests[name][str(member)] = report["digest"]
            print(f"{name} member {member}: {report['digest']}", file=sys.stderr)
    payload = {"bench_seed": workloads.BENCH_SEED, "digests": digests}
    run.PINNED.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one pool member of one workload in this (fresh) process.

Usage: python3 perfbench/child.py WORKLOAD MEMBER TRACE SPAWNED_NS WORKDIR

``SPAWNED_NS`` is the parent's ``time.monotonic_ns()`` just before it
started this process, so ``setup_s`` covers interpreter start, imports
and the workload's set-up.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed probe that
    depends on nothing in the repository (a diagnostic, never a divisor)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


def steal_seconds() -> float:
    """Host-wide CPU time stolen by the hypervisor so far (0 if unknown)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def main(argv) -> int:
    name, member, trace, spawned_ns, workdir = argv
    member, trace, spawned_ns = int(member), trace == "1", int(spawned_ns)
    workdir = Path(workdir)
    report = {"workload": name, "member": member, "trace": trace}
    try:
        import numpy

        setup, timed, outcome = workloads.WORKLOADS[name]
        recorder = originals = None
        if trace:
            import layers

            recorder = layers.Recorder()
            originals = layers.install(recorder)
        seed = workloads.member_seed(name, member)
        state = setup(seed, workdir)
        report["setup_s"] = (time.monotonic_ns() - spawned_ns) / 1e9
        if isinstance(state, dict) and "cold_s" in state:
            report["cold_s"] = state["cold_s"]

        report["calibration_before_s"] = calibrate()
        steal0 = steal_seconds()
        if recorder is not None:
            # Set-up is traced too (the rerun-warm cold fill writes the
            # store there); keep its figures apart from the timed phase's.
            report["setup_put_s"] = layers.layer_metrics(recorder)["exec.store.put_s"]
            report["setup_target_calls"] = dict(recorder.target_calls)
            recorder.clear()
        t0 = time.perf_counter()
        result = timed(state)
        report["timed_s"] = time.perf_counter() - t0
        report["steal_s"] = steal_seconds() - steal0
        report["calibration_after_s"] = calibrate()
        if recorder is not None:
            report["layers"] = layers.layer_metrics(recorder)
            report["target_calls"] = dict(recorder.target_calls)
            report["unwrapped"] = layers.unwrapped_copies(originals)

        work, digest, problems = outcome(state, result)
        report.update(work=work, digest=digest, problems=problems)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report["numpy"] = numpy.__version__
    except Exception:
        report["error"] = traceback.format_exc(limit=8)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

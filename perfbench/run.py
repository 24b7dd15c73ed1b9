"""The repository's benchmark: three workloads of the differential-testing
pipeline, each run member by member in fresh child processes.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` runs untraced passes over the workload's pool until
``--seconds`` have gone by (at least one pass) and prints the end-to-end
metrics.  ``--trace 1`` runs one pass in which every member runs twice,
untraced then traced, traces the quickest member once more to check
that its counts repeat, and prints the per-layer metrics.  ``--workload
all`` runs that traced pass for every workload, members round-robin
across workloads, checks that ``BENCHMARK.json`` lists exactly the
metrics printed here, and prints every metric with its unit.  The last
line of standard output is one JSON object; see README.md for the
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
STATE = ROOT / ".perfbench"
PINNED = HERE / "pinned.json"
CHILD_TIMEOUT_S = 60

END_TO_END_UNITS = {"throughput": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "devices.batch_s": "s",
    "devices.batch_calls": "count",
    "devices.batch_rows": "count",
    "devices.scalar_s": "s",
    "devices.scalar_calls": "count",
    "compilers.compile_s": "s",
    "compilers.kernels": "count",
    "exec.artifacts_s": "s",
    "exec.artifacts.hits": "count",
    "exec.artifacts.hit_ratio": "ratio",
    "exec.store.hits": "count",
    "exec.store.hit_ratio": "ratio",
    "exec.store.get_s": "s",
    "exec.store.put_s": "s",
    "exec.store.setup_put_s": "s",
    "exec.cold_fill_s": "s",
    "exec.warm_speedup": "x",
    "exec.dispatch_s": "s",
    "harness.sweep_s": "s",
    "harness.classify_s": "s",
    "harness.run_single_s": "s",
    "harness.run_single_calls": "count",
    "analysis.triage_s": "s",
    "analysis.triage_calls": "count",
    "analysis.reduce_s": "s",
    "analysis.reduce_calls": "count",
    "analysis.inclusive_s": "s",
    "analysis.reduce_node_ratio": "ratio",
    "fp.nextafter_s": "s",
    "fp.nextafter_calls": "count",
    "fp.nextafter_steps": "count",
    "varity.generate_s": "s",
    "varity.programs": "count",
    "fuzz.mutate_s": "s",
    "fuzz.ledger_append_s": "s",
    "traced_s": "s",
    "unattributed_s": "s",
    "trace_overhead_s": "s",
}

#: Counts that must read the same in every traced run of one source tree.
REPEATING_COUNTS = (
    "devices.batch_rows",
    "compilers.kernels",
    "analysis.triage_calls",
    "fp.nextafter_steps",
    "exec.store.hits",
    "exec.artifacts.hits",
)

#: Workloads that bypass triage and minimisation entirely.
NO_ANALYSIS = ("campaign", "rerun-warm")


# ------------------------------------------------------------------ children
def spawn(workload: str, member: int, trace: bool) -> dict:
    """One pool member in a fresh process; returns the child's report."""
    workdir = STATE / "tmp" / f"{workload}-{member}-{os.getpid()}-{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable, str(HERE / "child.py"), workload, str(member),
        str(int(trace)), str(time.monotonic_ns()), str(workdir),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        report = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not lines:
            report["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    except subprocess.TimeoutExpired:
        report = {"error": f"no result within {CHILD_TIMEOUT_S} s"}
    except json.JSONDecodeError:
        report = {"error": f"unreadable result: {lines[-1][:200]!r}"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.update(workload=workload, member=member, trace=trace)
    return report


def run_child(workload: str, member: int, trace: bool, pinned: dict) -> dict:
    """:func:`spawn` plus the output checks; ``ok`` says whether they held."""
    report = spawn(workload, member, trace)
    report["ok"] = _check(report, pinned)
    _log(report)
    return report


def _check(report: dict, pinned: dict) -> bool:
    problems = report.setdefault("problems", [])
    if "error" in report:
        problems.append(report["error"])
        return False
    want = pinned.get(report["workload"], {}).get(str(report["member"]))
    if report["digest"] != want:
        problems.append(f"output digest {report['digest']} != pinned {want}")
    if report.get("unwrapped"):
        problems.append(f"names the wrappers missed: {report['unwrapped']}")
    return not problems


def _log(report: dict) -> None:
    if report["ok"]:
        print(
            f"[perfbench] {report['workload']} member {report['member']}"
            f"{' traced' if report['trace'] else ''}: timed {report['timed_s']:.3f} s, "
            f"setup {report['setup_s']:.3f} s, work {report['work']}, "
            f"probe {report['calibration_before_s']:.4f}/"
            f"{report['calibration_after_s']:.4f} s, steal {report['steal_s']:.2f} s",
            file=sys.stderr,
        )
    else:
        print(
            f"[perfbench] {report['workload']} member {report['member']} FAILED: "
            + "; ".join(report["problems"]),
            file=sys.stderr,
        )


def pool_order(workload: str, seed: int) -> list:
    size = workloads.POOL_SIZE[workload]
    return random.Random(f"{seed}:{workload}").sample(range(size), size)


def run_passes(names, seed: int, trace: bool, seconds: float):
    """Children per workload, members round-robin across ``names``;
    returns ``(passes, repeats)``.

    Untraced: whole passes until ``seconds`` have gone by.  Traced: one
    pass where each member runs untraced and then traced, then the
    quickest traced member traced again (``repeats``), whose counts must
    equal its first traced run's."""
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))["digests"]
    orders = {name: pool_order(name, seed) for name in names}
    passes = {name: [] for name in names}
    start = time.monotonic()
    while True:
        current = {name: [] for name in names}
        for k in range(max(len(o) for o in orders.values())):
            for name in names:
                if k < len(orders[name]):
                    member = orders[name][k]
                    current[name].append(run_child(name, member, False, pinned))
                    if trace:
                        current[name].append(run_child(name, member, True, pinned))
        for name in names:
            passes[name].append(current[name])
        if trace or time.monotonic() - start >= seconds:
            break
    repeats = {}
    if trace:
        for name in names:
            # The quickest traced member: the check costs the least time.
            traced = [c for c in current[name] if c["trace"] and c["ok"]]
            quickest = min(traced, key=lambda c: c["timed_s"], default=None)
            member = quickest["member"] if quickest else orders[name][0]
            repeats[name] = run_child(name, member, True, pinned)
    return passes, repeats


# ------------------------------------------------------------------- metrics
def _median(values, default=0.0):
    return statistics.median(values) if values else default


def end_to_end(passes) -> dict:
    untraced = [[c for c in p if not c["trace"] and c["ok"]] for p in passes]
    rates = [
        sum(c["work"] for c in p) / sum(c["timed_s"] for c in p)
        for p in untraced if p
    ]
    children = [c for p in untraced for c in p]
    return {
        "throughput": _median(rates),
        "setup_s": _median([c["setup_s"] for c in children]),
        "peak_rss_mb": _median([c["peak_rss_mb"] for c in children]),
    }


def per_layer(passes) -> dict:
    children = [c for p in passes for c in p if c["ok"]]
    traced = [c for c in children if c["trace"]]
    plain = [c for c in children if not c["trace"]]
    raw = {}
    for c in traced:
        for key, value in c["layers"].items():
            raw[key] = raw.get(key, 0) + value

    def ratio(num, den):
        return num / den if den else 0.0

    traced_s = sum(c["timed_s"] for c in traced)
    cold_s = sum(c.get("cold_s", 0.0) for c in plain)
    out = {key: raw.get(key, 0) for key in PER_LAYER_UNITS}
    out.update({
        "exec.artifacts.hit_ratio": ratio(raw.get("exec.artifacts.hits", 0),
                                          raw.get("exec.artifacts.lookups", 0)),
        "exec.store.hit_ratio": ratio(raw.get("exec.store.hits", 0),
                                      raw.get("exec.store.gets", 0)),
        "exec.store.setup_put_s": sum(c.get("setup_put_s", 0.0) for c in traced),
        "exec.cold_fill_s": cold_s,
        # A rerun-warm child times RERUN_WARM_PASSES warm passes.
        "exec.warm_speedup": ratio(
            cold_s * workloads.RERUN_WARM_PASSES, sum(c["timed_s"] for c in plain)
        ) if cold_s else 0.0,
        "analysis.reduce_node_ratio": ratio(raw.get("analysis.reduced_nodes", 0),
                                            raw.get("analysis.original_nodes", 0)),
        "traced_s": traced_s,
        "unattributed_s": traced_s - raw.get("attributed_s", 0.0),
        "trace_overhead_s": traced_s - sum(c["timed_s"] for c in plain),
    })
    return out


def prediction_problems(name: str, children, metrics: dict) -> list:
    """Each wrapper predicted for ``name`` saw a call; the bypass holds."""
    calls = {}
    for c in children:
        if c["trace"] and c["ok"]:
            for target, n in c["target_calls"].items():
                calls[target] = calls.get(target, 0) + n
    problems = [
        f"{target} recorded no call on {name}"
        for target in layers.predicted_calls(name) if not calls.get(target)
    ]
    for target in layers.SETUP_TARGETS.get(name, ()):
        if not any(c.get("setup_target_calls", {}).get(target)
                   for c in children if c["trace"] and c["ok"]):
            problems.append(f"{target} recorded no call in {name} set-up")
    if name in NO_ANALYSIS:
        for key in ("analysis.triage_calls", "analysis.reduce_calls"):
            if metrics[key] != 0:
                problems.append(f"{key} = {metrics[key]} on {name} (want 0)")
    return problems


def repeat_problems(name: str, passes, repeat: dict, metrics: dict) -> list:
    """The repeating counts hold within this run and across runs.

    Within: ``repeat``, a second traced run of one member, reads the same
    counts as that member's first traced run.  Across: the pass's totals
    equal those of every earlier traced run of this source in this
    checkout (kept in ``.perfbench/counts.json``)."""
    if not repeat["ok"]:
        return []  # already counted as a failed child
    first = next(
        c for p in passes for c in p
        if c["trace"] and c["member"] == repeat["member"]
    )
    problems = []
    if first["ok"]:
        for key in REPEATING_COUNTS:
            if first["layers"][key] != repeat["layers"][key]:
                problems.append(
                    f"{key} of member {repeat['member']} read {first['layers'][key]}, "
                    f"then {repeat['layers'][key]}"
                )
    counts_file = STATE / "counts.json"
    known = json.loads(counts_file.read_text()) if counts_file.exists() else {}
    counts = {key: metrics[key] for key in REPEATING_COUNTS}
    entry = known.setdefault(source_digest(), {})
    if name in entry and entry[name] != counts:
        problems.append(f"counts differ from an earlier traced run: {entry[name]} vs {counts}")
    entry[name] = counts
    counts_file.write_text(json.dumps(known, indent=1, sort_keys=True))
    return problems


def benchmark_problems() -> list:
    """``BENCHMARK.json`` lists exactly the metrics and units printed here."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return [f"{path.name} not found"]
    bench = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    for key, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in bench[key]}
        for name in sorted(listed.keys() | units.keys()):
            if listed.get(name) != units.get(name):
                problems.append(f"{key} {name}: unit {listed.get(name)} in "
                                f"BENCHMARK.json, {units.get(name)} in run.py")
    return problems


# ---------------------------------------------------------------------- host
def source_digest() -> str:
    """Digest of the program and benchmark sources: the commit's identity
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def host_facts(children) -> dict:
    ok = [c for c in children if c["ok"]]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": ok[0]["numpy"] if ok else None,
        "commit": git_commit(),
        "source": source_digest(),
        "probe_before_s": _median([c["calibration_before_s"] for c in ok]),
        "probe_after_s": _median([c["calibration_after_s"] for c in ok]),
        "steal_s": sum(c["steal_s"] for c in ok),
    }


def _metrics(values: dict, units: dict) -> dict:
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def result(name: str, passes, repeat=None) -> dict:
    """The result line: end-to-end metrics untraced, per-layer ones traced
    (when there is a ``repeat`` child)."""
    children = [c for p in passes for c in p]
    problems = []
    if repeat is not None:
        values = per_layer(passes)
        problems = (prediction_problems(name, children, values)
                    + repeat_problems(name, passes, repeat, values))
        children.append(repeat)
        metrics = _metrics(values, PER_LAYER_UNITS)
    else:
        metrics = _metrics(end_to_end(passes), END_TO_END_UNITS)
    failed = sum(not c["ok"] for c in children)
    for problem in problems:
        print(f"[perfbench] {name}: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(children),
        "failed": failed,
        "metrics": metrics,
    }


def print_table(name: str, passes) -> None:
    e2e = end_to_end(passes)
    work = workloads.WORK_NAME[name]
    rows = [(work, e2e["throughput"], "1/s")]
    rows += [(key, e2e[key], END_TO_END_UNITS[key]) for key in ("setup_s", "peak_rss_mb")]
    for metric, value, unit in rows:
        print(f"{name + '/' + metric:<32} {value:>14.4f} {unit}")
    for key, value in per_layer(passes).items():
        print(f"  {key:<30} {value:>14.4f} {PER_LAYER_UNITS[key]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    STATE.mkdir(exist_ok=True)

    if args.workload == "all":
        problems = benchmark_problems()
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        if problems:
            return 1
        names = list(workloads.WORKLOADS)
        passes, repeats = run_passes(names, args.seed, True, args.seconds)
        children = [c for n in names for p in passes[n] for c in p]
        print(json.dumps({"host": host_facts(children)}))
        for name in names:
            print_table(name, passes[name])
        summary = {}
        for name in names:
            summary[name] = result(name, passes[name], repeats[name])
            summary[name]["metrics"].update(
                _metrics(end_to_end(passes[name]), END_TO_END_UNITS)
            )
        print(json.dumps(summary))
        return 0

    passes, repeats = run_passes([args.workload], args.seed, bool(args.trace), args.seconds)
    passes = passes[args.workload]
    print(json.dumps({"host": host_facts([c for p in passes for c in p])}))
    print(json.dumps(result(args.workload, passes, repeats.get(args.workload))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

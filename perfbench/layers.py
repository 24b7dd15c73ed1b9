"""Per-layer timing taken from outside the program.

:func:`install` wraps the public entry point of each layer module under
``src/repro`` and records, per layer, the calls, the self time (time in
the layer minus time in any nested wrapped call) and a few work counts.
Nothing under ``src/`` changes: the wrappers are set on the defining
module or class *and* on every other loaded ``repro`` module that holds
its own imported copy of the function (``repro.fuzz.engine`` imports
``triage_discrepancy`` and ``reduce_testcase`` by name, for example), so
every caller reaches the wrapper whichever name it looks up.

The wrappers cost a few microseconds per call, which is why end-to-end
metrics come from untraced children and the traced child only supplies
the per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class LayerStats:
    calls: int = 0
    self_ns: int = 0
    counts: Dict[str, int] = field(default_factory=dict)

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


class Recorder:
    """Self-time accounting for nested wrapped calls (one thread)."""

    def __init__(self) -> None:
        self.layers: Dict[str, LayerStats] = {}
        self.target_calls: Dict[str, int] = {}
        #: Wall ns with at least one frame of a layer group (the name up to
        #: its first dot, such as ``analysis``) open, nested layers included.
        self.inclusive_ns: Dict[str, int] = {}
        # Open frames: [layer, start_ns, ns spent in nested wrapped calls].
        self._stack: List[list] = []
        self._open: Dict[str, int] = {}

    def clear(self) -> None:
        self.layers = {}
        self.target_calls = {}
        self.inclusive_ns = {}

    def stats(self, layer: str) -> LayerStats:
        entry = self.layers.get(layer)
        if entry is None:
            entry = self.layers[layer] = LayerStats()
        return entry

    def enter(self, layer: str) -> None:
        group = layer.partition(".")[0]
        self._open[group] = self._open.get(group, 0) + 1
        self._stack.append([layer, time.perf_counter_ns(), 0])

    def leave(self) -> None:
        layer, start, nested = self._stack.pop()
        duration = time.perf_counter_ns() - start
        group = layer.partition(".")[0]
        self._open[group] -= 1
        if not self._open[group]:
            self.inclusive_ns[group] = self.inclusive_ns.get(group, 0) + duration
        entry = self.stats(layer)
        entry.calls += 1
        entry.self_ns += duration - nested
        if self._stack:
            self._stack[-1][2] += duration

    def called(self, target: str) -> None:
        self.target_calls[target] = self.target_calls.get(target, 0) + 1

    def wrap(
        self, layer: str, target: str, fn: Callable, count: Optional[Callable] = None
    ) -> Callable:
        """``fn`` timed as ``layer``; ``count(stats, args, kwargs, result)``
        adds work counts after each call that returns."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(layer, target, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.called(target)
            self.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave()
            if count is not None:
                count(self.stats(layer), args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, layer: str, target: str, fn: Callable) -> Callable:
        # Each resumption is one span, so the caller's work between items
        # is not charged to the layer.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.called(target)
            inner = fn(*args, **kwargs)
            try:
                while True:
                    self.enter(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.leave()
                    yield item
            finally:
                inner.close()

        return wrapper


# ----------------------------------------------------------------- counts
def _rows(stats, args, kwargs, result):
    stats.add("rows", len(args[2] if len(args) > 2 else kwargs["input_rows"]))


def _one_kernel(stats, args, kwargs, result):
    stats.add("kernels", 1)


def _sweep_kernels(stats, args, kwargs, result):
    stats.add("kernels", len(result))


def _artifact_lookups(stats, args, kwargs, result):
    stats.add("lookups", len(result))


def _store_get(stats, args, kwargs, result):
    stats.add("gets", 1)
    stats.add("hits", result is not None)


def _steps(stats, args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs["n"]
    stats.add("steps", abs(n))


def _reduction(stats, args, kwargs, result):
    stats.add("original_nodes", result.original_size)
    stats.add("reduced_nodes", result.reduced_size)


def _program(stats, args, kwargs, result):
    stats.add("programs", 1)


def _artifact_hits(recorder: Recorder, fn: Callable) -> Callable:
    """``ArtifactCache.compile_sweep`` with its hit count read off the cache."""

    @functools.wraps(fn)
    def wrapper(cache, *args, **kwargs):
        hits = cache.hits
        result = fn(cache, *args, **kwargs)
        recorder.stats("exec.artifacts").add("hits", cache.hits - hits)
        return result

    return wrapper


ALL = ("campaign", "fuzz", "rerun-warm")
FUZZ = ("fuzz",)

#: (layer, module, attribute path, counter, workloads predicted to call
#: it).  An attribute path with a dot names a method on a class of that
#: module.  The traced run checks the prediction: each target records at
#: least one call on every workload named here.
TARGETS = (
    ("devices.batch", "repro.devices.device", "Device.execute_batch", _rows, ALL),
    ("devices.scalar", "repro.devices.device", "Device.execute", None, FUZZ),
    ("compilers", "repro.compilers.compiler", "Compiler.compile", _one_kernel, FUZZ),
    ("compilers", "repro.compilers.compiler", "Compiler.compile_sweep", _sweep_kernels, ALL),
    ("exec.artifacts", "repro.exec.artifacts", "ArtifactCache.compile_sweep",
     _artifact_lookups, ALL),
    ("exec.store.get", "repro.exec.store", "RunStore.get", _store_get, ALL),
    # rerun-warm writes the store in set-up: see SETUP_TARGETS.
    ("exec.store.put", "repro.exec.store", "RunStore.put", None, ("campaign", "fuzz")),
    ("exec.dispatch", "repro.exec.service", "ExecutionService.run_sweeps", None,
     ("fuzz", "rerun-warm")),
    ("exec.dispatch", "repro.exec.service", "ExecutionService.run_sweeps_unordered", None,
     ("campaign",)),
    ("harness.sweep", "repro.harness.runner", "DifferentialRunner.run_sweep", None, ALL),
    ("harness.classify", "repro.harness.runner", "pair_discrepancies", None, ALL),
    ("harness.run_single", "repro.harness.runner", "DifferentialRunner.run_single", None,
     FUZZ),
    ("analysis.triage", "repro.analysis.triage", "triage_discrepancy", None, FUZZ),
    ("analysis.reduce", "repro.analysis.reduce", "reduce_testcase", _reduction, FUZZ),
    ("fp.nextafter", "repro.fp.ulp", "nextafter_n", _steps, ALL),
    ("varity", "repro.varity.generator", "ProgramGenerator.generate", _program,
     ("campaign", "fuzz")),
    ("varity", "repro.varity.inputs", "InputGenerator.generate_many", None,
     ("campaign", "fuzz")),
    ("fuzz.mutate", "repro.fuzz.mutators", "apply_mutation", None, FUZZ),
    ("fuzz.ledger", "repro.fuzz.ledger", "FindingsLedger.append_baseline", None, FUZZ),
    ("fuzz.ledger", "repro.fuzz.ledger", "FindingsLedger.append_batch", None, FUZZ),
)


#: Targets a workload must call during its set-up, checked the same way.
SETUP_TARGETS = {"rerun-warm": ("repro.exec.store.RunStore.put",)}


def install(recorder: Recorder) -> Dict[str, Callable]:
    """Wrap every target; returns ``{target: original}`` for :func:`unwrapped_copies`."""
    originals: Dict[str, Callable] = {}
    for layer, module_name, path, count, _ in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attr]
        target = f"{module_name}.{path}"
        wrapped = recorder.wrap(layer, target, original, count)
        if path == "ArtifactCache.compile_sweep":
            wrapped = _artifact_hits(recorder, wrapped)
        setattr(owner, attr, wrapped)
        originals[target] = original
        # Modules loaded by now may hold their own copy of a function;
        # modules loaded later copy the wrapper from its defining module.
        if not owner_name:
            for other in _repro_modules():
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)
    return originals


def predicted_calls(workload: str) -> List[str]:
    """The targets the traced run of ``workload`` must see called."""
    return [f"{m}.{path}" for _, m, path, _, seen_on in TARGETS if workload in seen_on]


def _repro_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


def unwrapped_copies(originals: Dict[str, Callable]) -> List[str]:
    """Names in loaded ``repro`` modules that still hold an unwrapped
    target, at module level or on a class (should be none)."""
    target_of = {id(fn): target for target, fn in originals.items()}
    found = []
    for module in _repro_modules():
        for key, value in vars(module).items():
            members = [(key, value)]
            if inspect.isclass(value):
                members += [(f"{key}.{a}", m) for a, m in vars(value).items()]
            for name, member in members:
                target = target_of.get(id(member))
                if target is not None and member is originals[target]:
                    found.append(f"{module.__name__}.{name} -> {target}")
    return sorted(set(found))


def layer_metrics(recorder: Recorder) -> Dict[str, float]:
    """The per-layer figures of one traced timed phase (times in seconds)."""
    def get(layer: str) -> LayerStats:
        return recorder.layers.get(layer, LayerStats())

    def seconds(*layers: str) -> float:
        return sum(get(layer).self_ns for layer in layers) / 1e9

    batch, scalar, comp = get("devices.batch"), get("devices.scalar"), get("compilers")
    art, get_ = get("exec.artifacts"), get("exec.store.get")
    reduce_, fp, varity = get("analysis.reduce"), get("fp.nextafter"), get("varity")
    return {
        "devices.batch_s": seconds("devices.batch"),
        "devices.batch_calls": batch.calls,
        "devices.batch_rows": batch.counts.get("rows", 0),
        "devices.scalar_s": seconds("devices.scalar"),
        "devices.scalar_calls": scalar.calls,
        "compilers.compile_s": seconds("compilers"),
        "compilers.kernels": comp.counts.get("kernels", 0),
        "exec.artifacts_s": seconds("exec.artifacts"),
        "exec.artifacts.lookups": art.counts.get("lookups", 0),
        "exec.artifacts.hits": art.counts.get("hits", 0),
        "exec.store.gets": get_.counts.get("gets", 0),
        "exec.store.hits": get_.counts.get("hits", 0),
        "exec.store.get_s": seconds("exec.store.get"),
        "exec.store.put_s": seconds("exec.store.put"),
        "exec.dispatch_s": seconds("exec.dispatch"),
        "harness.sweep_s": seconds("harness.sweep"),
        "harness.classify_s": seconds("harness.classify"),
        "harness.run_single_s": seconds("harness.run_single"),
        "harness.run_single_calls": get("harness.run_single").calls,
        "analysis.triage_s": seconds("analysis.triage"),
        "analysis.triage_calls": get("analysis.triage").calls,
        "analysis.reduce_s": seconds("analysis.reduce"),
        "analysis.inclusive_s": recorder.inclusive_ns.get("analysis", 0) / 1e9,
        "analysis.reduce_calls": reduce_.calls,
        "analysis.original_nodes": reduce_.counts.get("original_nodes", 0),
        "analysis.reduced_nodes": reduce_.counts.get("reduced_nodes", 0),
        "fp.nextafter_s": seconds("fp.nextafter"),
        "fp.nextafter_calls": fp.calls,
        "fp.nextafter_steps": fp.counts.get("steps", 0),
        "varity.generate_s": seconds("varity"),
        "varity.programs": varity.counts.get("programs", 0),
        "fuzz.mutate_s": seconds("fuzz.mutate"),
        "fuzz.ledger_append_s": seconds("fuzz.ledger"),
        "attributed_s": sum(s.self_ns for s in recorder.layers.values()) / 1e9,
    }

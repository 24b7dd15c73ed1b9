"""Nested timed spans with deterministic cross-process merge.

A ``Tracer`` hands out ``span("compile", stack="nvcc")`` context
managers; each records a ``SpanRecord`` with monotonic start/duration
nanoseconds (``time.perf_counter_ns`` — CLOCK_MONOTONIC on Linux, so
parent- and worker-recorded timestamps share one clock).  The default
active tracer is a ``NullTracer`` whose ``span``/``record`` are no-ops,
so instrumented hot paths pay one attribute lookup
(``get_tracer().enabled``) when tracing is off.

Determinism contract: every traced chunk — in a pool worker or in
process — runs under its own local tracer, ``drain()``s its records, and
hands them back alongside the chunk's results; the parent calls
``merge(chunk_index, records)``.  Export order is
``(chunk, seq)`` — submission order — never arrival order, so the same
run traced at any worker count yields the same span sequence (only the
timestamps differ).
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Soft cap on retained records; past it new records are counted in
#: ``dropped`` instead of stored, so a runaway loop cannot eat the heap.
DEFAULT_MAX_RECORDS = 1_000_000


@dataclass(frozen=True)
class SpanRecord:
    """One completed span.

    ``args`` is a sorted tuple of ``(key, value)`` pairs rather than a
    dict: picklable, hashable, and deterministic in iteration order.
    ``chunk`` is -1 for spans recorded directly in the parent process
    and the submission-order chunk index for merged chunk spans;
    ``seq`` is the record's position within its origin tracer.
    """

    name: str
    start_ns: int
    dur_ns: int
    pid: int
    tid: int = 0
    depth: int = 0
    args: Tuple[Tuple[str, object], ...] = ()
    chunk: int = -1
    seq: int = 0


class _NullSpan:
    """The no-op context manager ``NullTracer.span`` returns."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Default tracer: every operation is a no-op.

    ``enabled`` is False so call sites can guard even the argument
    construction: ``if tracer.enabled: tracer.record(...)``.
    """

    enabled = False

    def span(self, name: str, **args):
        return _NULL_SPAN

    def record(self, name, start_ns, end_ns, *, chunk=-1, pid=None, **args):
        return None

    def merge(self, chunk, records) -> None:
        return None

    def drain(self) -> List[SpanRecord]:
        return []

    def records(self) -> List[SpanRecord]:
        return []


class Tracer:
    """Collects nested timed spans; thread-safe record/merge.

    The lock matters: ``mp.Pool.imap`` consumes its payload iterable on
    a feeder thread, so pickle-measurement spans arrive from a thread
    other than the one absorbing results.
    """

    enabled = True

    def __init__(self, max_records: int = DEFAULT_MAX_RECORDS) -> None:
        self._records: List[SpanRecord] = []
        self._lock = threading.Lock()
        self._depth = 0
        self._seq = 0
        self._max_records = max_records
        self.dropped = 0

    @contextmanager
    def span(self, name: str, **args) -> Iterator[None]:
        depth = self._depth
        self._depth = depth + 1
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._depth = depth
            self._append(
                SpanRecord(
                    name=name,
                    start_ns=start,
                    dur_ns=end - start,
                    pid=os.getpid(),
                    depth=depth,
                    args=tuple(sorted(args.items())),
                )
            )

    def record(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        *,
        chunk: int = -1,
        pid: Optional[int] = None,
        **args,
    ) -> None:
        """Record a span from explicit timestamps (no nesting tracking)."""
        self._append(
            SpanRecord(
                name=name,
                start_ns=start_ns,
                dur_ns=end_ns - start_ns,
                pid=os.getpid() if pid is None else pid,
                depth=self._depth,
                args=tuple(sorted(args.items())),
                chunk=chunk,
            )
        )

    def merge(self, chunk: int, records: Sequence[SpanRecord]) -> None:
        """Absorb a worker's span batch, stamping its chunk index.

        Callers pass the *submission-order* chunk index; export sorts by
        it, which is what makes traces worker-count-invariant.
        """
        with self._lock:
            for rec in records:
                self._store(replace(rec, chunk=chunk, seq=self._seq))

    def drain(self) -> List[SpanRecord]:
        """Return and clear all records (worker → parent shipping)."""
        with self._lock:
            out, self._records = self._records, []
            return out

    def records(self) -> List[SpanRecord]:
        """All records in deterministic ``(chunk, seq)`` order.

        Parent-local records (``chunk == -1``) sort first; merged worker
        batches follow in submission order.  ``seq`` is assigned at
        append/merge time, so within a chunk the worker's own recording
        order is preserved.
        """
        with self._lock:
            return sorted(self._records, key=lambda r: (r.chunk, r.seq))

    def totals_by_name(self) -> Dict[str, float]:
        """Total seconds per span name (overlap not deduplicated)."""
        totals: Dict[str, float] = {}
        for rec in self.records():
            totals[rec.name] = totals.get(rec.name, 0.0) + rec.dur_ns / 1e9
        return totals

    def seconds_by_chunk(self, name: str = "exec.chunk") -> Dict[int, float]:
        """Seconds per chunk index for spans called ``name``."""
        out: Dict[int, float] = {}
        for rec in self.records():
            if rec.name == name and rec.chunk >= 0:
                out[rec.chunk] = out.get(rec.chunk, 0.0) + rec.dur_ns / 1e9
        return out

    # -- internals ---------------------------------------------------

    def _append(self, rec: SpanRecord) -> None:
        with self._lock:
            self._store(replace(rec, seq=self._seq))

    def _store(self, rec: SpanRecord) -> None:
        # Caller holds the lock.
        self._seq += 1
        if len(self._records) >= self._max_records:
            self.dropped += 1
            return
        self._records.append(rec)


_NULL_TRACER = NullTracer()
_active: "Tracer | NullTracer" = _NULL_TRACER


def get_tracer() -> "Tracer | NullTracer":
    """The active tracer (the shared ``NullTracer`` by default)."""
    return _active


def set_tracer(tracer: "Tracer | NullTracer | None"):
    """Install ``tracer`` (None restores the null tracer); returns the
    previous one so callers can restore it in a ``finally``."""
    global _active
    previous = _active
    _active = _NULL_TRACER if tracer is None else tracer
    return previous

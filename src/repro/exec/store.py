"""The content-keyed run store: memory tier + optional on-disk JSONL.

:class:`RunStore` promotes the old per-program ``RunCache`` (keyed by
``(test_id, opt_label)``, lifetime one arm walk) to a store keyed by
``(content id, opt_label)``: structurally identical kernels with the same
inputs hit the cache across arms, fuzz lineages, and — through the disk
tier — resumed sessions.  Entries are stored *test-id-neutral* (per-input
printed line + IEEE-754 bit pattern, or ``None`` for a trapped input) and
rebound to the requesting test's id on the way out, so a replayed
:class:`~repro.harness.outcomes.RunRecord` is bit-identical to what a
fresh execution would produce regardless of which test populated the
entry.

Tiers:

* **memory** — an LRU-bounded dict (``max_entries``); eviction keeps long
  fuzz sessions flat instead of leaking every sweep ever run;
* **disk** (optional ``path``) — an append-only JSONL file indexed by
  byte offset at open.  A memory miss consults the index, reads one
  line, and promotes the entry; evicted entries therefore stay
  servable, and a store reopened on the same path starts warm.

Counters are entry-level (``hits`` / ``misses`` / ``disk_hits`` /
``evictions``); per-*input* replay counts — the numbers surfaced as
``nvcc_cache_hits`` — live on the :class:`BoundRunCache` views handed to
the differential runner.

The disk tier is **single-writer**: the append-only JSONL format has no
way to interleave two writers' lines safely, so opening a path that
another live store already writes raises :class:`~repro.errors.HarnessError`
(via an advisory ``flock`` on a ``.lock`` sidecar) instead of silently
corrupting the ledger.  Fleets that need concurrent writers use the
SQLite tier (:class:`repro.bridge.sqlstore.SqliteRunStore`).
"""

from __future__ import annotations

import json
import struct
from collections import OrderedDict
from pathlib import Path
from typing import Dict, IO, List, Optional, Sequence, Tuple, Union

try:  # POSIX only; on other platforms the guard degrades to unlocked.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from repro.errors import HarnessError
from repro.harness.outcomes import RunRecord
from repro.varity.testcase import TestCase

__all__ = ["RunStore", "BoundRunCache"]

#: test-id-neutral form of one input's outcome: None (trapped) or
#: (input_index, printed, value_bits, flags-or-None).
_Neutral = Optional[Tuple[int, str, int, Optional[Tuple[Tuple[str, int], ...]]]]


def _float_bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", float(value)))[0]


def _bits_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _neutralize(record: Optional[RunRecord]) -> _Neutral:
    if record is None:
        return None
    flags = tuple(sorted(record.flags.items())) if record.flags is not None else None
    return (record.input_index, record.printed, _float_bits(record.value), flags)


def _rebind(
    entry: _Neutral, test_id: str, opt_label: str, compiler: str = "nvcc"
) -> Optional[RunRecord]:
    if entry is None:
        return None
    input_index, printed, bits, flags = entry
    return RunRecord(
        test_id=test_id,
        input_index=input_index,
        opt_label=opt_label,
        compiler=compiler,
        printed=printed,
        value=_bits_float(bits),
        flags=dict(flags) if flags is not None else None,
    )


def _encode_runs(entry: Sequence[_Neutral]) -> List[Optional[Dict[str, object]]]:
    """Neutral entry → the ``{"i","p","b","f"}`` runs-JSON wire form.

    Shared by the JSONL tier here and the SQLite tier in
    :mod:`repro.bridge.sqlstore`, so entries migrate between tiers
    byte-compatibly.
    """
    runs: List[Optional[Dict[str, object]]] = []
    for item in entry:
        if item is None:
            runs.append(None)
            continue
        input_index, printed, bits, flags = item
        run: Dict[str, object] = {"i": input_index, "p": printed, "b": bits}
        if flags is not None:
            run["f"] = list(list(pair) for pair in flags)
        runs.append(run)
    return runs


def _decode_runs(runs: Sequence[Optional[Dict[str, object]]]) -> Tuple[_Neutral, ...]:
    """Inverse of :func:`_encode_runs`."""
    entry: List[_Neutral] = []
    for run in runs:
        if run is None:
            entry.append(None)
            continue
        flags = run.get("f")
        entry.append(
            (
                int(run["i"]),  # type: ignore[arg-type]
                str(run["p"]),
                int(run["b"]),  # type: ignore[arg-type]
                tuple((str(k), int(v)) for k, v in flags)  # type: ignore[union-attr]
                if flags is not None
                else None,
            )
        )
    return tuple(entry)


class RunStore:
    """Two-tier content-keyed store of a pair's left-side run outcomes."""

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        max_entries: int = 1024,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.path = Path(path) if path is not None else None
        self.max_entries = max_entries
        self._mem: "OrderedDict[Tuple[str, str], Tuple[_Neutral, ...]]" = OrderedDict()
        self._disk_index: Dict[Tuple[str, str], int] = {}
        self._fh: Optional[IO[str]] = None
        self._lock_fh: Optional[IO[str]] = None
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.puts = 0
        self.evictions = 0
        if self.path is not None:
            self._acquire_writer_lock()
            self._load_disk_index()

    # ------------------------------------------------------------------ api
    def put(
        self,
        key: str,
        opt_label: str,
        outcomes: Sequence[Optional[RunRecord]],
    ) -> None:
        """Store one (content, opt) entry; trapped inputs stay ``None``."""
        entry = tuple(_neutralize(r) for r in outcomes)
        mkey = (key, opt_label)
        known = mkey in self._mem or mkey in self._disk_index
        self._insert_mem(mkey, entry)
        self.puts += 1
        if self.path is not None and not known:
            self._append_disk(mkey, entry)

    def get(
        self, key: str, opt_label: str, *, test_id: str, compiler: str = "nvcc"
    ) -> Optional[Tuple[Optional[RunRecord], ...]]:
        """Look an entry up and rebind it to ``test_id`` on the way out.

        ``compiler`` names the stack a replayed record is attributed to
        (the default predates the stack registry: entries historically
        held the pair's nvcc side).
        """
        mkey = (key, opt_label)
        entry = self._mem.get(mkey)
        if entry is not None:
            self._mem.move_to_end(mkey)
        elif mkey in self._disk_index:
            entry = self._read_disk(mkey)
            if entry is not None:
                self.disk_hits += 1
                self._insert_mem(mkey, entry)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return tuple(_rebind(e, test_id, opt_label, compiler) for e in entry)

    def view_for(self, test: TestCase) -> "BoundRunCache":
        """A runner-compatible view bound to ``test``'s content id."""
        from repro.exec.content import content_id_for

        return BoundRunCache(self, content_id_for(test))

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._mem),
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "puts": self.puts,
            "evictions": self.evictions,
        }

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        if self._lock_fh is not None:
            # Closing drops the flock; the sidecar file itself stays (a
            # stale empty .lock is harmless and racy to delete safely).
            self._lock_fh.close()
            self._lock_fh = None

    def __len__(self) -> int:
        return len(self._mem)

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- memory
    def _insert_mem(
        self, mkey: Tuple[str, str], entry: Tuple[_Neutral, ...]
    ) -> None:
        self._mem[mkey] = entry
        self._mem.move_to_end(mkey)
        while len(self._mem) > self.max_entries:
            self._mem.popitem(last=False)
            self.evictions += 1

    # --------------------------------------------------------------- disk
    def _acquire_writer_lock(self) -> None:
        """Enforce the disk tier's single-writer contract up front.

        An advisory non-blocking ``flock`` on a ``<path>.lock`` sidecar:
        the second store attaching to a live path gets a clear error
        instead of interleaving appends into an unparseable ledger.
        The flock dies with the holding process, so a crashed writer
        never wedges the path.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX
            return
        assert self.path is not None
        lock_path = self.path.with_name(self.path.name + ".lock")
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        fh = lock_path.open("a")
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            fh.close()
            raise HarnessError(
                f"run store {self.path} is already open for writing in another "
                "process; the on-disk JSONL tier is single-writer (append-only "
                "lines cannot interleave safely). Point each writer at its own "
                "path, or use the concurrent-writer SQLite tier "
                "(repro.bridge.sqlstore.SqliteRunStore)."
            ) from None
        self._lock_fh = fh

    def _load_disk_index(self) -> None:
        """Index existing entries by byte offset (torn lines skipped)."""
        if not self.path.exists():
            return
        offset = 0
        with self.path.open("rb") as fh:
            for raw in fh:
                line_at = offset
                offset += len(raw)
                if not raw.endswith(b"\n"):
                    break  # torn tail from a killed writer; entry re-runs
                try:
                    data = json.loads(raw)
                except (json.JSONDecodeError, UnicodeDecodeError):
                    continue
                if data.get("kind") != "entry":
                    continue
                self._disk_index[(str(data["k"]), str(data["o"]))] = line_at

    def _append_disk(self, mkey: Tuple[str, str], entry: Tuple[_Neutral, ...]) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fresh = not self.path.exists()
            if not fresh:
                # A writer killed mid-append leaves a torn final line; trim
                # it so the next entry starts on its own line instead of
                # merging into the fragment (which would make *both* lines
                # unparseable at the next reopen).
                data = self.path.read_bytes()
                if data and not data.endswith(b"\n"):
                    with self.path.open("wb") as fh:
                        fh.write(data[: data.rfind(b"\n") + 1])
            self._fh = self.path.open("a", encoding="utf-8")
            if fresh:
                self._fh.write(
                    json.dumps({"kind": "header", "format": "repro-runstore-v1"})
                    + "\n"
                )
        runs = _encode_runs(entry)
        self._fh.flush()
        self._disk_index[mkey] = self._fh.tell()
        self._fh.write(
            json.dumps({"kind": "entry", "k": mkey[0], "o": mkey[1], "r": runs}) + "\n"
        )
        self._fh.flush()

    def _read_disk(self, mkey: Tuple[str, str]) -> Optional[Tuple[_Neutral, ...]]:
        offset = self._disk_index.get(mkey)
        if offset is None or offset < 0 or not self.path.exists():
            return None
        self.flush()
        with self.path.open("r", encoding="utf-8") as fh:
            fh.seek(offset)
            line = fh.readline()
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            return None
        if data.get("kind") != "entry" or (str(data["k"]), str(data["o"])) != mkey:
            return None
        return _decode_runs(data["r"])


class BoundRunCache:
    """A store view bound to one content key, duck-compatible with the
    cache arguments of :meth:`~repro.harness.runner.DifferentialRunner.run_sweep`.

    The runner counts each replayed input on :attr:`hits` — the number
    surfaced as ``nvcc_cache_hits`` — and calls :meth:`get`/:meth:`put`
    with ``(test_id, opt_label)``; the view routes both through the
    content key, rebinding replayed records to the requesting test's id.
    """

    def __init__(self, store: RunStore, key: str, compiler: str = "nvcc") -> None:
        self.store = store
        self.key = key
        self.compiler = compiler
        self.hits = 0

    def get(
        self, test_id: str, opt_label: str
    ) -> Optional[Tuple[Optional[RunRecord], ...]]:
        return self.store.get(
            self.key, opt_label, test_id=test_id, compiler=self.compiler
        )

    def put(
        self, test_id: str, opt_label: str, outcomes: Sequence[Optional[RunRecord]]
    ) -> None:
        self.store.put(self.key, opt_label, outcomes)

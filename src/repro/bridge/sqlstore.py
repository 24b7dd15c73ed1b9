"""SqliteRunStore — the concurrent-writer-safe run-store tier.

The JSONL disk tier of :class:`~repro.exec.store.RunStore` is
single-writer by construction (appended lines cannot interleave); this
tier keeps the same duck-typed protocol — ``put`` / ``get`` /
``view_for`` / ``stats`` / ``flush`` / ``close`` and the entry-level
counters — while letting a whole fleet share one warm store:

* **SQLite WAL shards.**  Entries live in ``shards`` database files
  under one directory, the shard chosen by a deterministic 64-bit hash
  of the content key (:func:`~repro.utils.hashing.hash_bytes` — never
  Python's salted ``hash``), so every process maps a key to the same
  file and write contention divides by the shard count.
* **First writer wins.**  ``INSERT OR IGNORE`` on the ``(key, opt)``
  primary key: two workers racing to commit the same content-keyed
  entry cannot corrupt anything, and — entries being content-keyed and
  deterministic — whichever lands is byte-equivalent to the loser.
* **Same wire form.**  Rows store the JSONL tier's ``{"i","p","b","f"}``
  runs-JSON (via the shared codec in :mod:`repro.exec.store`), so
  :meth:`migrate_jsonl` is a line-for-line import of an existing store
  and a migrated entry replays bit-identically.

A memory LRU (same ``max_entries`` policy as :class:`RunStore`) fronts
the shards, so the counters keep their meanings: ``disk_hits`` counts
memory misses served by a shard, ``evictions`` counts LRU drops.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import HarnessError
from repro.exec.store import (
    BoundRunCache,
    _decode_runs,
    _encode_runs,
    _Neutral,
    _neutralize,
    _rebind,
)
from repro.harness.outcomes import RunRecord
from repro.utils.hashing import hash_bytes
from repro.varity.testcase import TestCase

__all__ = ["SqliteRunStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    k TEXT NOT NULL,
    o TEXT NOT NULL,
    r TEXT NOT NULL,
    PRIMARY KEY (k, o)
);
"""


class SqliteRunStore:
    """Sharded SQLite (WAL) run store, protocol-compatible with RunStore."""

    def __init__(
        self,
        root: Union[str, Path],
        max_entries: int = 1024,
        shards: int = 4,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.root = Path(root)
        self.max_entries = max_entries
        self.shards = shards
        self.root.mkdir(parents=True, exist_ok=True)
        self._mem: "OrderedDict[Tuple[str, str], Tuple[_Neutral, ...]]" = OrderedDict()
        self._lock = threading.Lock()
        self._conns: List[sqlite3.Connection] = []
        for index in range(shards):
            conn = sqlite3.connect(
                str(self.root / f"runs-{index:02d}of{shards:02d}.sqlite"),
                check_same_thread=False,
            )
            conn.executescript(_SCHEMA)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=30000")
            conn.commit()
            self._conns.append(conn)
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.puts = 0
        self.evictions = 0

    def _shard(self, key: str) -> sqlite3.Connection:
        return self._conns[hash_bytes(key.encode("utf-8")) % self.shards]

    # ------------------------------------------------------------------ api
    def put(
        self,
        key: str,
        opt_label: str,
        outcomes: Sequence[Optional[RunRecord]],
    ) -> None:
        """Store one (content, opt) entry; concurrent writers race safely."""
        entry = tuple(_neutralize(r) for r in outcomes)
        mkey = (key, opt_label)
        runs_json = json.dumps(_encode_runs(entry))
        with self._lock:
            self._insert_mem(mkey, entry)
            self.puts += 1
            conn = self._shard(key)
            conn.execute(
                "INSERT OR IGNORE INTO runs (k, o, r) VALUES (?, ?, ?)",
                (key, opt_label, runs_json),
            )
            conn.commit()

    def get(
        self, key: str, opt_label: str, *, test_id: str, compiler: str = "nvcc"
    ) -> Optional[Tuple[Optional[RunRecord], ...]]:
        mkey = (key, opt_label)
        with self._lock:
            entry = self._mem.get(mkey)
            if entry is not None:
                self._mem.move_to_end(mkey)
            else:
                row = self._shard(key).execute(
                    "SELECT r FROM runs WHERE k=? AND o=?", (key, opt_label)
                ).fetchone()
                if row is not None:
                    entry = _decode_runs(json.loads(row[0]))
                    self.disk_hits += 1
                    self._insert_mem(mkey, entry)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
        return tuple(_rebind(e, test_id, opt_label, compiler) for e in entry)

    def view_for(self, test: TestCase) -> BoundRunCache:
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

    # -------------------------------------------------------------- extras
    def total_entries(self) -> int:
        """Entries across every shard (not just the memory tier)."""
        with self._lock:
            return sum(
                int(conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0])
                for conn in self._conns
            )

    def migrate_jsonl(self, path: Union[str, Path]) -> int:
        """Import an existing JSONL RunStore ledger; returns entries added.

        Torn or unparseable lines are skipped exactly as the JSONL
        tier's own index pass skips them; existing SQLite entries win
        over imported ones (first writer wins, as everywhere).
        """
        src = Path(path)
        if not src.exists():
            raise HarnessError(f"no JSONL run store at {src}")
        added = 0
        with self._lock, src.open("rb") as fh:
            for raw in fh:
                if not raw.endswith(b"\n"):
                    break  # torn tail from a killed writer
                try:
                    data = json.loads(raw)
                except (json.JSONDecodeError, UnicodeDecodeError):
                    continue
                if data.get("kind") != "entry":
                    continue
                key, opt = str(data["k"]), str(data["o"])
                conn = self._shard(key)
                cur = conn.execute(
                    "INSERT OR IGNORE INTO runs (k, o, r) VALUES (?, ?, ?)",
                    (key, opt, json.dumps(data["r"])),
                )
                added += cur.rowcount
            for conn in self._conns:
                conn.commit()
        return added

    # ----------------------------------------------------------- plumbing
    def flush(self) -> None:
        pass  # every put commits; nothing is buffered

    def close(self) -> None:
        with self._lock:
            for conn in self._conns:
                conn.close()
            self._conns = []

    def __len__(self) -> int:
        return len(self._mem)

    def __enter__(self) -> "SqliteRunStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _insert_mem(
        self, mkey: Tuple[str, str], entry: Tuple[_Neutral, ...]
    ) -> None:
        self._mem[mkey] = entry
        self._mem.move_to_end(mkey)
        while len(self._mem) > self.max_entries:
            self._mem.popitem(last=False)
            self.evictions += 1

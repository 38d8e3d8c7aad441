"""Content-addressed on-disk cache for experiment results.

A cache *key* is the SHA-256 of a canonical JSON rendering of a
run's spec plus the package version: a sweep cell's tag and grid
point (for Figure 4, tag ``figure4`` and every ``run_cell`` argument),
a replication's tag and seed.  Everything else a run depends on --
the task set built from the spec, the simulator code -- is a pure
function of the spec and the package version, so it is not hashed
separately; a change that alters results bumps ``repro.__version__``
and thereby every key.  Identical specs hash identically across
processes and sessions; any change produces a new key, which is the
entire invalidation story -- stale entries are simply never
addressed again.  :func:`repro.perf.executor.cached_pmap` is the one
loop that looks keys up, computes the misses and stores them.

Layout on disk (JSON, one file per entry, fanned out by key prefix)::

    <root>/<key[:2]>/<key>.json    {"key": ..., "value": ...}

Writes go through a temporary file and ``os.replace`` so a crashed
run never leaves a torn entry.  Values must be JSON-serialisable
(the experiment rows are plain dict/float/int data).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro import __version__

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Default cache root when no directory is given.
DEFAULT_CACHE_DIR = ".repro-cache"


def canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a deterministic JSON-able structure.

    Dicts are key-sorted at serialisation time; dataclasses carry
    their type name so two configs with coincidentally equal fields
    do not collide; tuples and lists are equivalent; anything exotic
    falls back to ``repr``.
    """
    if isinstance(obj, dict):
        return {str(key): canonical(value) for key, value in obj.items()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: canonical(getattr(obj, f.name))
                  for f in dataclasses.fields(obj)}
        return {"__dataclass__": type(obj).__name__, **fields}
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def cache_key(**parts: Any) -> str:
    """Stable content hash of keyword parts (package version included).

    ``cache_key(n_cpus=2, seed=0)`` == ``cache_key(seed=0, n_cpus=2)``;
    any differing part (or a different ``repro`` version) changes the
    key.
    """
    parts.setdefault("version", __version__)
    payload = json.dumps(canonical(parts), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fingerprint(obj: Any) -> str:
    """Short content hash of an arbitrary structure (e.g. a swept grid)."""
    payload = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class RunCache:
    """On-disk result cache with hit/miss accounting.

    Parameters
    ----------
    root:
        Cache directory; defaults to ``$REPRO_CACHE_DIR`` or
        ``.repro-cache`` under the current directory.
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.put_errors = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def lookup(self, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; a miss returns ``(False, None)``.

        An entry that is unreadable, not JSON, not an object, lacks a
        ``value`` or was written under another key is a miss, so the
        caller recomputes and its :meth:`put` repairs the file.
        """
        path = self._path(key)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            entry = None
        if not (isinstance(entry, dict) and entry.get("key") == key
                and "value" in entry):
            self.misses += 1
            return False, None
        try:
            # Touch the entry so LRU eviction (see :meth:`gc`) ranks it
            # as recently used; best-effort on read-only mounts.
            os.utime(path)
        except OSError:
            pass
        self.hits += 1
        return True, entry["value"]

    def get(self, key: str, default: Any = None) -> Any:
        hit, value = self.lookup(key)
        return value if hit else default

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (atomic replace, last write wins).

        A concurrent LRU GC can rmdir the shard between our mkdir and
        the replace; one retry (re-creating the directory) wins that
        race.  A second failure is counted in ``put_errors`` and
        swallowed -- the cache is an accelerator, and the caller's
        freshly computed value is still returned to it, so dropping
        the store must never fail the run.
        """
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w") as handle:
                json.dump({"key": key, "value": value}, handle)
        except OSError:
            self.put_errors += 1
            return
        try:
            os.replace(tmp, path)
        except OSError:
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                os.replace(tmp, path)
            except OSError:
                self.put_errors += 1
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                return
        self.stores += 1

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def disk_usage(self) -> int:
        """Total bytes held by cache entries (excludes directories)."""
        if not self.root.is_dir():
            return 0
        total = 0
        for path in self.root.glob("*/*.json"):
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Evict least-recently-used entries until under the limits.

        Entries are ranked by mtime (refreshed on every hit, so mtime
        is last *use*, not last write).  Orphaned temporary files from
        crashed runs are always removed.  With no limits given this is
        a pure report plus tmp-file cleanup.  Returns a summary dict.
        """
        entries = []
        removed_tmp = 0
        if self.root.is_dir():
            for path in self.root.glob("*/*"):
                name = path.name
                if name.endswith(".json"):
                    try:
                        stat = path.stat()
                    except OSError:
                        continue
                    entries.append((stat.st_mtime, stat.st_size, path))
                elif ".tmp." in name:
                    try:
                        path.unlink()
                        removed_tmp += 1
                    except OSError:
                        pass
        entries.sort()  # oldest use first
        total_bytes = sum(size for _, size, _ in entries)
        bytes_before, entries_before = total_bytes, len(entries)
        evicted = 0
        remaining = len(entries)
        for mtime, size, path in entries:
            over_bytes = max_bytes is not None and total_bytes > max_bytes
            over_count = max_entries is not None and remaining > max_entries
            if not over_bytes and not over_count:
                break
            try:
                path.unlink()
            except OSError:
                continue
            evicted += 1
            remaining -= 1
            total_bytes -= size
        # Drop fan-out directories emptied by the eviction.
        if evicted and self.root.is_dir():
            for sub in self.root.iterdir():
                if sub.is_dir():
                    try:
                        sub.rmdir()  # fails (harmlessly) unless empty
                    except OSError:
                        pass
        return {
            "entries_before": entries_before,
            "entries_after": remaining,
            "bytes_before": bytes_before,
            "bytes_after": total_bytes,
            "evicted": evicted,
            "removed_tmp": removed_tmp,
            "root": str(self.root),
        }

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 with no lookups)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "put_errors": self.put_errors,
            "hit_rate": round(self.hit_rate, 4),
            "entries": len(self),
            "root": str(self.root),
        }

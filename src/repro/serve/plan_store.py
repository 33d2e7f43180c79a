"""The on-disk plan store: compiled plans that survive process restarts.

A :class:`~repro.relational.compile.CompiledQuery` is a pure function of its
plan-cache key — ``(formula, schema, domain name)`` — and contains
only frozen dataclasses, so it pickles cleanly and can be reloaded by a
different process.  :class:`PlanStore` keeps one pickle file per key under a
directory; :class:`PersistentPlanCache` layers it *under* the in-memory
:class:`~repro.engine.plan_cache.PlanCache` so that

* a memory hit costs what it always did (one dict lookup under a lock);
* a memory miss consults the store before compiling — a **warm restart**
  (populated store, empty memory) skips compilation entirely;
* every compile is written through, so the store converges to the workload's
  distinct-plan set.

Keying
------

In-memory keys are hashable Python objects; on disk they become a
**fingerprint**: the SHA-256 of the ``repr`` of each key component, joined —
deterministic across processes (``repr`` of frozen dataclasses of ints and
strings is canonical, unlike ``hash()``, which is salted per process for
strings).  A fingerprint collision would require a SHA-256 collision, so the
stored payload also records the fingerprint and is rejected on mismatch.

Durability posture
------------------

The store is a *cache*, not a database: every entry is re-derivable by
compiling again.  It is therefore aggressively corruption-tolerant — a
truncated, unreadable, version-skewed, or wrong-key file is treated as a
miss and deleted; writes go to a temp file and ``os.replace`` into place so
readers never observe a half-written pickle; any OS error degrades to
"no persistence" rather than failing the query.  ``STORE_VERSION`` is bumped
whenever the pickled plan representation changes shape, invalidating old
stores wholesale.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from typing import Any, Hashable, List, Optional

from ..engine.plan_cache import PlanCache
from ..testing import faults

__all__ = ["PlanStore", "PersistentPlanCache", "STORE_VERSION", "fingerprint_key"]

#: bump when the pickled payload shape (or plan IR) changes incompatibly
STORE_VERSION = 1

_SUFFIX = ".plan"


def fingerprint_key(key: Hashable) -> str:
    """A stable hex fingerprint of an in-memory plan-cache key.

    >>> fp = fingerprint_key(("formula-repr", "schema-repr", "nat<", "compiled"))
    >>> len(fp), fp == fingerprint_key(("formula-repr", "schema-repr", "nat<", "compiled"))
    (64, True)
    >>> fp != fingerprint_key(("formula-repr", "schema-repr", "nat<", "vectorized"))
    True
    """
    if isinstance(key, tuple):
        text = "|".join(repr(part) for part in key)
    else:
        text = repr(key)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class PlanStore:
    """A directory of pickled plan-cache values, keyed by fingerprint."""

    def __init__(self, path: str):
        self._path = path
        os.makedirs(path, exist_ok=True)
        #: values that failed to pickle or write (persistence skipped)
        self.store_errors = 0
        #: files dropped as corrupt / version-skewed / mis-keyed
        self.corrupt_dropped = 0

    @property
    def path(self) -> str:
        return self._path

    def _file_for(self, fingerprint: str) -> str:
        return os.path.join(self._path, fingerprint + _SUFFIX)

    def load(self, key: Hashable) -> Optional[Any]:
        """The stored value for ``key``, or ``None`` (never raises).

        Anything that prevents a faithful reload — missing file, unpickling
        error of any kind, version or fingerprint mismatch — is a miss; the
        offending file is deleted so it is not re-read on every lookup.
        """
        fingerprint = fingerprint_key(key)
        filename = self._file_for(fingerprint)
        try:
            with open(filename, "rb") as handle:
                faults.fire("plan-store-io")
                blob = handle.read()
            # Injected bit-flips take the same path a truncated disk write
            # would: unpickle fails (or the payload mismatches) and the file
            # is dropped as corrupt.
            blob = faults.corrupt("plan-store-io", blob)
            payload = pickle.loads(blob)
        except FileNotFoundError:
            return None
        except Exception:
            self._drop(filename)
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != STORE_VERSION
            or payload.get("fingerprint") != fingerprint
        ):
            self._drop(filename)
            return None
        return payload.get("value")

    def store(self, key: Hashable, value: Any) -> bool:
        """Persist ``value`` under ``key``; False (never raises) on failure."""
        fingerprint = fingerprint_key(key)
        payload = {
            "version": STORE_VERSION,
            "fingerprint": fingerprint,
            "value": value,
        }
        try:
            blob = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        except Exception:
            self.store_errors += 1
            return False
        try:
            faults.fire("plan-store-io")
            fd, tmp_name = tempfile.mkstemp(dir=self._path, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp_name, self._file_for(fingerprint))
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except (OSError, faults.InjectedFault):
            # An injected I/O fault degrades exactly like an OS error:
            # persistence is skipped, the query is unaffected.
            self.store_errors += 1
            return False
        return True

    def _drop(self, filename: str) -> None:
        self.corrupt_dropped += 1
        try:
            os.unlink(filename)
        except OSError:
            pass

    def fingerprints(self) -> List[str]:
        """The fingerprints currently stored (one per ``.plan`` file)."""
        try:
            names = os.listdir(self._path)
        except OSError:
            return []
        return sorted(
            name[: -len(_SUFFIX)] for name in names if name.endswith(_SUFFIX)
        )

    def __len__(self) -> int:
        return len(self.fingerprints())

    def clear(self) -> None:
        """Delete every stored plan (the error counters survive)."""
        for fingerprint in self.fingerprints():
            try:
                os.unlink(self._file_for(fingerprint))
            except OSError:
                pass

    def __repr__(self) -> str:
        return f"PlanStore(path={self._path!r}, entries={len(self)})"


class PersistentPlanCache(PlanCache):
    """A :class:`PlanCache` backed by a :class:`PlanStore`.

    Lookups fall through memory → disk → (caller compiles); inserts write
    through to both tiers.  Disk promotion happens outside the parent's
    lock — two threads missing the same key concurrently both read the
    store, and the second in-memory ``put`` is idempotent, so the race only
    duplicates one unpickle.
    """

    def __init__(self, maxsize: int = 1024, store: Optional[PlanStore] = None):
        super().__init__(maxsize=maxsize)
        self._store = store
        self._disk_hits = 0
        self._disk_misses = 0
        self._stats_lock = threading.Lock()

    @property
    def store(self) -> Optional[PlanStore]:
        return self._store

    @property
    def disk_hits(self) -> int:
        """Memory misses served from the on-disk store (compiles skipped)."""
        return self._disk_hits

    @property
    def disk_misses(self) -> int:
        """Lookups that missed both tiers (the caller compiled)."""
        return self._disk_misses

    def get(self, key: Hashable) -> Optional[Any]:
        value = super().get(key)
        if value is not None or self._store is None:
            return value
        stored = self._store.load(key)
        with self._stats_lock:
            if stored is None:
                self._disk_misses += 1
            else:
                self._disk_hits += 1
        if stored is not None:
            super().put(key, stored)
        return stored

    def put(self, key: Hashable, value: Any) -> None:
        super().put(key, value)
        if self._store is not None:
            self._store.store(key, value)

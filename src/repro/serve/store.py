"""The process-wide evaluation store behind the planning server.

:class:`PersistentEvaluationStore` extends
:class:`~repro.autotune.cache.EvaluationCache` with the three properties
a long-lived, shared service needs and a per-process memo does not:

* **Bounded capacity with LRU eviction** — entries are kept in
  recency order (every hit refreshes); once ``max_entries`` is exceeded
  the least-recently-used evaluation is dropped and counted in
  ``evictions``.
* **Disk persistence + warm-start** — :meth:`save` writes an atomic
  JSON-lines snapshot (versioned header line, one ``{key, evaluation}``
  record per line, ``os.replace`` so readers never see a torn file);
  :meth:`load` warm-starts a fresh process from it. A file that fails
  the header or any record check is *quarantined* (renamed to
  ``<path>.corrupt-<n>``) instead of crashing the server — the valid
  prefix is kept.
* **Single-flight request coalescing** — :meth:`acquire` hands each
  missing key to exactly one caller (the *owner*, who must
  :meth:`fulfil` or :meth:`abandon` it); every other concurrent caller
  gets a :class:`Flight` to wait on. A thundering herd of identical
  requests therefore prices each candidate exactly once; coalesced
  waits are counted in ``coalesced``.

Cache keys (see :func:`~repro.autotune.cache.evaluation_cache_key`) are
tuples over strings, numbers, ``None``, the frozen
:class:`~repro.cluster.calibration.SummitCalibration` and
:class:`~repro.parallel.scenarios.ClusterScenario` value objects —
:func:`encode_key`/:func:`decode_key` round-trip them through JSON such
that a decoded key compares (and hashes) equal to a freshly computed
one, which is what makes warm-start serve the same answers.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import threading
from collections import OrderedDict

from ..autotune.cache import EvaluationCache, Flight
from ..autotune.estimator import Evaluation
from ..cluster.calibration import SummitCalibration
from ..parallel.scenarios import ClusterScenario

__all__ = [
    "STORE_FORMAT",
    "STORE_VERSION",
    "encode_key",
    "decode_key",
    "Flight",
    "PersistentEvaluationStore",
]

#: magic + schema version of the snapshot header line
STORE_FORMAT = "repro-eval-store"
STORE_VERSION = 1


# ---------------------------------------------------------------------------
# key codec
# ---------------------------------------------------------------------------

def encode_key(obj):
    """JSON-encodable form of one cache-key element (or a whole key).

    Tuples, calibrations and scenarios are tagged so :func:`decode_key`
    can rebuild value-equal objects; scalars pass through (JSON floats
    round-trip exactly, so decoded keys hash identically).
    """
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    if isinstance(obj, tuple):
        return {"__tuple__": [encode_key(x) for x in obj]}
    if isinstance(obj, SummitCalibration):
        return {
            "__calibration__": {
                f: getattr(obj, f) for f in obj.__dataclass_fields__
            }
        }
    if isinstance(obj, ClusterScenario):
        return {"__scenario__": obj.to_dict()}
    raise TypeError(f"cannot encode cache-key element of type {type(obj).__name__}")


def decode_key(data):
    """Inverse of :func:`encode_key`."""
    if isinstance(data, dict):
        if "__tuple__" in data:
            return tuple(decode_key(x) for x in data["__tuple__"])
        if "__calibration__" in data:
            return SummitCalibration(**data["__calibration__"])
        if "__scenario__" in data:
            return ClusterScenario.from_dict(data["__scenario__"])
        raise ValueError(f"unknown key tag {sorted(data)!r}")
    return data


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------

class PersistentEvaluationStore(EvaluationCache):
    """Shared evaluation store: LRU bounds, persistence, single-flight.

    Drop-in for any :class:`~repro.api.Session` ``cache=``; planners
    detect ``supports_single_flight`` and route cache misses through
    :meth:`acquire`/:meth:`fulfil` so concurrent identical searches
    coalesce.

    ``max_entries=0`` means unbounded. ``autosave_every=N`` snapshots to
    ``path`` after every N puts (0 disables; :meth:`save` is always
    available explicitly).
    """

    #: planners reroute their miss path through acquire/fulfil when True
    supports_single_flight = True

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        max_entries: int = 0,
        autosave_every: int = 0,
    ):
        super().__init__()
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        if autosave_every < 0:
            raise ValueError(f"autosave_every must be >= 0, got {autosave_every}")
        # recency-ordered entries (oldest first) make eviction O(1)
        self._entries = OrderedDict()
        self.path = os.fspath(path) if path is not None else None
        self.max_entries = max_entries
        self.autosave_every = autosave_every
        self.evictions = 0
        self.coalesced = 0
        #: entries warm-started from disk by the last :meth:`load`
        self.loaded = 0
        #: where a corrupt snapshot was moved, if one was quarantined
        self.quarantined: str | None = None
        self._inflight: dict[tuple, Flight] = {}
        self._puts_since_save = 0

    # -- the memo interface (LRU-aware) --------------------------------
    def get(self, key: tuple) -> Evaluation | None:
        with self._lock:
            ev = self._entries.get(key)
            if ev is None:
                self.misses += 1
            else:
                self.hits += 1
                self._entries.move_to_end(key)
            return ev

    def put(self, key: tuple, evaluation: Evaluation) -> None:
        with self._lock:
            if key in self._entries:
                self.dedup += 1
            self._entries[key] = evaluation
            self._entries.move_to_end(key)
            if self.max_entries:
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.evictions += 1
            self._puts_since_save += 1
            autosave = (
                self.path is not None
                and self.autosave_every
                and self._puts_since_save >= self.autosave_every
            )
            if autosave:
                self._puts_since_save = 0
        if autosave:
            self.save()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.dedup = 0
            self.evictions = 0
            self.coalesced = 0

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "dedup": self.dedup,
                "max_entries": self.max_entries,
                "evictions": self.evictions,
                "coalesced": self.coalesced,
                "inflight": len(self._inflight),
                "loaded": self.loaded,
            }

    # -- single-flight --------------------------------------------------
    def acquire(self, keys) -> tuple[list, dict, dict]:
        """Partition ``keys`` into owned / waiting / already-cached.

        Returns ``(owned, flights, ready)``: the caller must evaluate
        every key in ``owned`` and :meth:`fulfil` (or :meth:`abandon`)
        it; ``flights`` maps keys another caller is already pricing to
        their :class:`Flight`; ``ready`` holds evaluations that landed
        in the cache since the caller's miss scan (counted as hits).
        """
        owned: list = []
        flights: dict = {}
        ready: dict = {}
        with self._lock:
            for key in keys:
                ev = self._entries.get(key)
                if ev is not None:
                    self.hits += 1
                    self._entries.move_to_end(key)
                    ready[key] = ev
                elif key in self._inflight:
                    self.coalesced += 1
                    flights[key] = self._inflight[key]
                else:
                    self._inflight[key] = Flight()
                    owned.append(key)
        return owned, flights, ready

    def fulfil(self, key: tuple, evaluation: Evaluation) -> None:
        """Publish an owned evaluation and wake every coalesced waiter."""
        self.put(key, evaluation)
        with self._lock:
            flight = self._inflight.pop(key, None)
        if flight is not None:
            flight.set(evaluation)

    def abandon(self, key: tuple, error: BaseException) -> None:
        """Release an owned key after a failure; waiters re-raise."""
        with self._lock:
            flight = self._inflight.pop(key, None)
        if flight is not None:
            flight.fail(error)

    # -- persistence ----------------------------------------------------
    def save(self, path: str | os.PathLike | None = None) -> int:
        """Atomic JSON-lines snapshot; returns the entry count written.

        Written to a temporary file in the target directory and
        ``os.replace``d into place, so a concurrent :meth:`load` (or a
        kill mid-save) sees either the old snapshot or the new one,
        never a torn file.
        """
        path = os.fspath(path) if path is not None else self.path
        if path is None:
            raise ValueError("no snapshot path: pass one or construct with path=")
        with self._lock:
            records = [
                (encode_key(key), ev.to_dict()) for key, ev in self._entries.items()
            ]
        header = {"format": STORE_FORMAT, "version": STORE_VERSION, "entries": len(records)}
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(prefix=".eval-store-", dir=directory)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(header) + "\n")
                for key, ev in records:
                    fh.write(json.dumps({"key": key, "evaluation": ev}) + "\n")
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        return len(records)

    def load(self, path: str | os.PathLike | None = None) -> int:
        """Warm-start from a snapshot; returns the entry count loaded.

        A missing file loads nothing (a fresh server starts cold). A
        corrupt file — wrong magic, unsupported version, or a malformed
        record — is quarantined by renaming it next to the snapshot
        (``<path>.corrupt-<n>``) and the valid prefix is kept, so a
        crash mid-save or a hand-edited file can never take the server
        down with it.
        """
        path = os.fspath(path) if path is not None else self.path
        if path is None:
            raise ValueError("no snapshot path: pass one or construct with path=")
        if not os.path.exists(path):
            return 0
        loaded: list[tuple[tuple, Evaluation]] = []
        corrupt: str | None = None
        with open(path) as fh:
            try:
                header = json.loads(fh.readline())
                if not (
                    isinstance(header, dict)
                    and header.get("format") == STORE_FORMAT
                    and header.get("version") == STORE_VERSION
                ):
                    raise ValueError(f"unrecognised snapshot header: {header!r}")
                for line in fh:
                    if not line.strip():
                        continue
                    record = json.loads(line)
                    loaded.append(
                        (
                            decode_key(record["key"]),
                            Evaluation.from_dict(record["evaluation"]),
                        )
                    )
            except (ValueError, KeyError, TypeError) as err:
                corrupt = str(err)
        if corrupt is not None:
            self.quarantined = self._quarantine(path)
        with self._lock:
            for key, ev in loaded:
                self._entries[key] = ev
                self._entries.move_to_end(key)
                if self.max_entries:
                    while len(self._entries) > self.max_entries:
                        self._entries.popitem(last=False)
                        self.evictions += 1
            self.loaded = len(loaded)
        return len(loaded)

    @staticmethod
    def _quarantine(path: str) -> str:
        n = 0
        while True:
            target = f"{path}.corrupt-{n}"
            if not os.path.exists(target):
                try:
                    os.replace(path, target)
                except OSError:
                    return path  # unmovable: leave it; we already start cold
                return target
            n += 1

"""Content-addressed on-disk cache for experiment records.

A sweep cell is identified by four coordinates: the scenario's content hash
(:meth:`~repro.orchestration.registry.ScenarioSpec.spec_hash`), the cell
seed, the simulation engine, and the code version.  The cache maps the
SHA-256 of those coordinates to a JSON file holding the cell's
:class:`~repro.analysis.experiments.ExperimentRecord` list, so

* re-running a sweep is incremental -- only cells whose spec, seed, engine
  or code changed are recomputed;
* CI can gate on sweeps cheaply -- a warm cache turns a sweep into file
  reads;
* results are *invalidated automatically*: editing a scenario spec changes
  its hash, editing the package source changes the code version, and either
  moves the cell to a fresh key (stale entries are simply never read again).

Records round-trip through JSON exactly (Python floats serialise via
``repr`` and parse back to the identical double), which is what makes the
"parallel run is byte-identical to serial run" guarantee testable: compare
:func:`records_to_bytes` of the two record streams.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

import repro
from repro.analysis.experiments import ExperimentRecord

__all__ = [
    "DEFAULT_CACHE_DIR",
    "CACHE_SCHEMA_VERSION",
    "code_version",
    "cache_key",
    "record_to_dict",
    "record_from_dict",
    "records_to_bytes",
    "CacheStats",
    "ResultCache",
]

#: Cache location when neither the constructor argument nor the
#: ``REPRO_CACHE_DIR`` environment variable says otherwise.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Bumped when the on-disk payload layout changes; part of every key.
CACHE_SCHEMA_VERSION = 1

_RECORD_FIELDS = [f.name for f in fields(ExperimentRecord)]

T = TypeVar("T")

#: A record entry as :meth:`ResultCache.get_entry` returns it: ``(records, meta)``.
CacheEntry = Tuple[List[ExperimentRecord], Dict[str, object]]

_code_version: Optional[str] = None


def code_version() -> str:
    """A digest of the installed ``repro`` sources (plus the package version).

    Any edit to the package source changes this value and therefore every
    cache key, so stale results can never be served across code changes.
    Computed once per process; override with the ``REPRO_CODE_VERSION``
    environment variable (useful to share a cache across checkouts that are
    known to be equivalent).
    """
    global _code_version
    override = os.environ.get("REPRO_CODE_VERSION")
    if override:
        return override
    if _code_version is None:
        digest = hashlib.sha256()
        digest.update(repro.__version__.encode("utf-8"))
        package_root = Path(repro.__file__).parent
        for source in sorted(package_root.rglob("*.py")):
            digest.update(str(source.relative_to(package_root)).encode("utf-8"))
            digest.update(source.read_bytes())
        _code_version = digest.hexdigest()[:16]
    return _code_version


def cache_key(
    spec_hash: str, seed: int, engine: Optional[str], version: Optional[str] = None
) -> str:
    """The content address of one (scenario, seed, engine, code version) cell."""
    coordinates = json.dumps(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "spec": spec_hash,
            "seed": seed,
            "engine": engine or "default",
            "code": version if version is not None else code_version(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(coordinates.encode("utf-8")).hexdigest()


def record_to_dict(record: ExperimentRecord) -> Dict[str, object]:
    """Flatten a record into a JSON-ready dict (stable field order)."""
    return {name: getattr(record, name) for name in _RECORD_FIELDS}


def record_from_dict(payload: Dict[str, object]) -> ExperimentRecord:
    return ExperimentRecord(**{name: payload[name] for name in _RECORD_FIELDS})


def records_to_bytes(records: Sequence[ExperimentRecord]) -> bytes:
    """Canonical byte serialisation of a record stream (for parity checks)."""
    payload = [record_to_dict(record) for record in records]
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


@dataclass
class CacheStats:
    """Hit/miss/write counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ResultCache:
    """Content-addressed store of experiment record lists.

    Entries are sharded into two-character prefix directories and written
    atomically (temp file + :func:`os.replace`), so concurrent writers --
    e.g. two sweep processes sharing one cache directory -- can never leave
    a torn entry behind.  A corrupt or unreadable entry is treated as a
    miss, never an error.
    """

    def __init__(self, root: Union[str, Path, None] = None):
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        self.root = Path(root)
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[List[ExperimentRecord]]:
        """Return the cached records for ``key``, or ``None`` on a miss."""
        entry = self.get_entry(key)
        return None if entry is None else entry[0]

    def get_entry(self, key: str) -> Optional[CacheEntry]:
        """Return ``(records, meta)`` for ``key``, or ``None`` on a miss.

        ``meta`` is the sidecar dict :meth:`put` stored alongside the
        records -- the sweep runner keeps per-cell execution telemetry
        there (``elapsed_s``, ``maxrss_kb``) so cache hits can still
        report how long the cell originally took to compute.
        """
        return self._read(key, _records_entry)

    def put(
        self,
        key: str,
        records: Sequence[ExperimentRecord],
        meta: Optional[Dict[str, object]] = None,
    ) -> Path:
        """Store ``records`` under ``key`` atomically; returns the entry path."""
        return self._write(key, meta, records=[record_to_dict(record) for record in records])

    def get_payload(self, key: str) -> Optional[Dict[str, object]]:
        """Return a generic JSON payload stored under ``key``, or ``None``.

        The payload entries are what ``repro serve`` stores its response
        bodies in -- same content-addressed root, same atomic-write and
        corrupt-entry-as-miss semantics as the record entries, but holding
        an opaque JSON object instead of an ``ExperimentRecord`` list.
        The two entry shapes never collide: their keys hash different
        coordinate tuples.
        """
        return self._read(key, lambda entry: _json_object(entry["payload"], "payload"))

    def put_payload(
        self,
        key: str,
        payload: Dict[str, object],
        meta: Optional[Dict[str, object]] = None,
    ) -> Path:
        """Store a generic JSON payload under ``key`` atomically."""
        return self._write(key, meta, payload=payload)

    def _read(self, key: str, parse: Callable[[Dict[str, object]], T]) -> Optional[T]:
        """``parse`` the entry under ``key``; an absent, unreadable or
        malformed entry counts as a miss and returns ``None``."""
        try:
            value = parse(json.loads(self.path_for(key).read_text()))
        except (OSError, ValueError, KeyError, TypeError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def _write(self, key: str, meta: Optional[Dict[str, object]], **body: object) -> Path:
        """Write ``body`` plus the schema and ``meta`` under ``key``
        atomically (temp file + :func:`os.replace`); returns the path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"schema": CACHE_SCHEMA_VERSION, "meta": dict(meta or {}), **body}
        handle, temp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(handle, "w") as stream:
                json.dump(entry, stream, sort_keys=True)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        self.stats.writes += 1
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def entry_count(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for entry in self.root.glob("*/*.json"):
            entry.unlink()
            removed += 1
        return removed


def _json_object(value: object, what: str) -> Dict[str, object]:
    if not isinstance(value, dict):
        raise TypeError(f"{what} entry is not an object")
    return value


def _records_entry(entry: Dict[str, object]) -> CacheEntry:
    records = [record_from_dict(record) for record in entry["records"]]
    return records, _json_object(entry.get("meta") or {}, "meta")

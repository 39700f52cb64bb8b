"""The segmented index lifecycle: memtable → WAL → segments → compaction.

An index under this package is a **set of immutable segments plus one
in-memory memtable** (the Lucene/LSM shape every compact-index paper
assumes):

* writes — document adds *and* tombstone-based deletes — go to the
  memtable and an append-only JSON-lines WAL
  (:class:`~repro.lifecycle.wal.WriteAheadLog`);
* :meth:`~repro.lifecycle.index.SegmentedIndex.flush` seals the memtable
  into an immutable :class:`~repro.lifecycle.segment.Segment` with
  precompiled postings and per-segment statistics;
* :meth:`~repro.lifecycle.index.SegmentedIndex.compact` merges segments
  size-tiered and physically drops tombstoned documents;
* reads execute against an immutable
  :class:`~repro.lifecycle.snapshot.Snapshot` (segment list + tombstone
  set + monotonic version), so concurrent serving never observes a
  half-applied mutation;
* the snapshot version — one
  :class:`~repro.core.backend.VersionClock` per index — is the
  single epoch source every cache in the system consumes.

Exports resolve lazily (PEP 562).  ``VersionClock`` lives in
:mod:`repro.core.backend` and is re-exported through the index module.
"""

from __future__ import annotations

_EXPORTS = {
    "VersionClock": "index",
    "WriteAheadLog": "wal",
    "replay_wal": "wal",
    "Memtable": "memtable",
    "Segment": "segment",
    "Snapshot": "snapshot",
    "SegmentedIndex": "index",
    "CompactionReport": "index",
    "SegmentStorage": "storage",
    "LifecycleEngine": "engine",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value

"""The growable, generation-versioned shared object store.

The zero-copy data plane of the mutable sharded engine
(:mod:`repro.engine.mutable_sharded`), and the segment
:class:`~repro.core.parallel.DatasetTransport` ships a static vector
store through.  One process — the engine parent
— *owns* a POSIX shared-memory segment holding the prepared vector log;
every shard worker *attaches* the same pages by name and serves queries
over a zero-copy :meth:`~repro.data.Dataset.from_prepared` view.
Mutations then broadcast **metadata only** (segment name, length,
generation) instead of shipping raw vectors to every worker.

Segment layout (one mapping)::

    [ header: 5 x int64, padded to 64 bytes ][ row data: capacity x dim ]
      magic  generation  length  capacity  dim

POSIX shared memory cannot grow in place, so growth and compaction
*relocate*: the owner allocates a fresh segment (fresh name), copies the
surviving rows, bumps the **generation**, stamps the old segment's
header as moved, and unlinks it.  Existing worker mappings of the old
segment stay valid until the workers re-attach — the generation
protocol makes the hand-off explicit:

* every mutation broadcast carries :meth:`SharedObjectStore.meta`;
* a worker calls :meth:`SharedObjectStore.sync` with that metadata —
  same name means the mapping is current (only the length moved),
  a new name triggers a re-attach;
* a broadcast older than what the worker already mapped, or an attach
  to a stamped/vanished segment, raises
  :class:`~repro.exceptions.GraphError` — stale reads are rejected,
  never silently served.

Deletes never touch the data plane: the engine tombstones offsets
(:meth:`SharedObjectStore.tombstone` is pure bookkeeping) and reclaims
them in a compaction epoch behind
:meth:`~repro.core.parallel.ShardPool.barrier`
(:meth:`SharedObjectStore.compact`).

A mapping outlives its side's use of it while any view of it does:
every array :meth:`SharedObjectStore.rows` hands out is a view of one
array per mapping, and a relocated or closed mapping is unmapped only
once that array is garbage (a ``weakref.finalize``).  A view held across
an append, a compaction or a close reads the rows as they were, never
unmapped pages.

Ownership is pid-guarded: a forked child inherits the owner object but
must never unlink the parent's segment, so :meth:`unlink` (and the
best-effort ``__del__``) act only in the creating process.  All
lifecycle methods are idempotent.  Segment names carry the
:data:`STORE_NAME_PREFIX` so tests can assert ``/dev/shm`` holds no
leaked ``repro_*`` entries.
"""

from __future__ import annotations

import os
import secrets
import threading
import weakref

import numpy as np

from ..exceptions import GraphError, ParameterError

#: ``/dev/shm`` name prefix of every segment this module creates (the
#: leak-check fixtures key on ``repro_``).
STORE_NAME_PREFIX = "repro_store_"

#: header magic of a live segment ("REPROSOS" packed big-endian).
_MAGIC = 0x524550524F534F53
#: header magic stamped into a segment that has been relocated away
#: from (grow/compact) — attaching to it is a stale read.
_MOVED = 0x5245504D4F564544

#: header field count / reserved bytes before the row data.
_HEADER_FIELDS = 5  # magic, generation, length, capacity, dim
_HEADER_BYTES = 64

_H_MAGIC, _H_GEN, _H_LEN, _H_CAP, _H_DIM = range(_HEADER_FIELDS)


_attach_lock = threading.Lock()


def _attach_segment(name: str):
    """Map an existing segment by name, outside the resource tracker.

    ``multiprocessing.shared_memory`` registers *every* mapping with the
    process's resource tracker, which would tear segments down when an
    attaching worker exits; only the owner may unlink.  Registration is
    *suppressed* for the attach (rather than undone afterwards): with
    forked workers the tracker daemon is shared, and a register +
    unregister pair per attaching worker races other workers' pairs
    into double-removes — a KeyError traceback inside the tracker at
    exit.  (Python 3.13's ``track=False`` is this, portably.)
    """
    from multiprocessing import shared_memory

    try:  # pragma: no cover - tracker internals differ across versions
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _skip_shm(rname, rtype):
            if rtype != "shared_memory":
                original(rname, rtype)

        with _attach_lock:
            resource_tracker.register = _skip_shm
            try:
                return shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original
    except FileNotFoundError:
        raise
    except Exception:  # pragma: no cover - tracker internals vary
        return shared_memory.SharedMemory(name=name)


class SharedObjectStore:
    """A growable shared-memory vector log with generation-versioned maps.

    Constructing the class creates an **owner** (empty, with room for
    ``capacity`` rows of ``dim`` values of any numeric ``dtype``: the
    dtype a metric's ``prepare`` returns, float64 or Hamming's uint8);
    :meth:`attach` creates a worker-side handle onto
    an owner's segment from a :meth:`meta` broadcast.  The owner appends,
    tombstones, compacts and eventually :meth:`unlink`\\ s; handles
    :meth:`sync` and read :meth:`rows`.
    """

    def __init__(self, dim: int, dtype=np.float64, capacity: int = 64):
        dim = int(dim)
        if dim < 1:
            raise ParameterError(f"store dim must be >= 1, got {dim}")
        self.dim = dim
        self.dtype = np.dtype(dtype)
        if not np.issubdtype(self.dtype, np.number):
            raise ParameterError(
                f"store dtype must be a numeric type, got {self.dtype}"
            )
        self._owner = True
        self._owner_pid = os.getpid()
        self._unlinked = False
        self._generation = 1
        self._length = 0
        self._tombstoned: set[int] = set()
        self._shm = None
        self.name = ""
        self._allocate(max(1, int(capacity)))

    # -- construction ------------------------------------------------------

    @classmethod
    def attach(cls, meta: dict) -> "SharedObjectStore":
        """A non-owner handle mapped from a :meth:`meta` broadcast.

        Raises :class:`GraphError` when the named segment is gone or has
        been relocated away from (its header is stamped moved), or when
        the broadcast disagrees with the mapped header — a stale handle
        must never serve reads.
        """
        handle = object.__new__(cls)
        handle.dim = int(meta["dim"])
        handle.dtype = np.dtype(meta["dtype"])
        handle._owner = False
        handle._owner_pid = -1
        handle._unlinked = False
        handle._tombstoned = set()
        handle._shm = None
        handle.name = ""
        handle._generation = 0
        handle._length = 0
        handle._map(str(meta["name"]), int(meta["generation"]))
        handle._length = int(meta["length"])
        if handle._length > handle._capacity:
            raise GraphError(
                f"shared store {handle.name}: broadcast length "
                f"{handle._length} exceeds segment capacity "
                f"{handle._capacity}"
            )
        return handle

    def _segment_nbytes(self, capacity: int) -> int:
        return _HEADER_BYTES + capacity * self.dim * self.dtype.itemsize

    def _bind(self, shm, capacity: int) -> None:
        """Adopt ``shm`` as this side's mapping: its header and row views."""
        self._release()
        self._shm = shm
        self._capacity = int(capacity)
        self._header = np.ndarray(
            (_HEADER_FIELDS,), dtype=np.int64, buffer=shm.buf
        )
        self._data = np.ndarray(
            (self._capacity, self.dim),
            dtype=self.dtype,
            buffer=shm.buf,
            offset=_HEADER_BYTES,
        )

    def _release(self) -> None:
        """Drop this side's mapping; it is unmapped once no view is left.

        Every view :meth:`rows` returns derives from ``_data``, so the
        mapping closes when the last of them (and ``_data``) is gone.
        """
        if self._shm is not None:
            weakref.finalize(self._data, self._shm.close)
        self._shm = self._header = self._data = None

    def _allocate(self, capacity: int) -> None:
        """Owner: create a fresh named segment and write its header."""
        from multiprocessing import shared_memory

        size = self._segment_nbytes(capacity)
        while True:
            name = STORE_NAME_PREFIX + secrets.token_hex(8)
            try:
                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=size
                )
                break
            except FileExistsError:  # pragma: no cover - 64-bit collision
                continue
        self._bind(shm, capacity)
        self.name = shm.name.lstrip("/")
        header = self._header
        header[_H_MAGIC] = _MAGIC
        header[_H_GEN] = self._generation
        header[_H_LEN] = self._length
        header[_H_CAP] = self._capacity
        header[_H_DIM] = self.dim

    def _map(self, name: str, generation: int) -> None:
        """Handle: map ``name`` and validate its header against ``meta``."""
        try:
            shm = _attach_segment(name)
        except FileNotFoundError:
            raise GraphError(
                f"shared store {name}: segment is gone (stale handle? the "
                f"owner relocated or unlinked it)"
            ) from None
        header = np.ndarray((_HEADER_FIELDS,), dtype=np.int64, buffer=shm.buf)
        # Copy every field out *before* any close(): closing unmaps the
        # pages, and a dangling header view dereferences freed memory.
        magic, mapped_gen, capacity, seg_dim = (
            int(header[_H_MAGIC]), int(header[_H_GEN]),
            int(header[_H_CAP]), int(header[_H_DIM]),
        )
        del header
        if magic == _MOVED:
            shm.close()
            raise GraphError(
                f"shared store {name}: segment was relocated (generation "
                f"moved on to {mapped_gen}); re-sync from a fresh broadcast"
            )
        if magic != _MAGIC:
            shm.close()
            raise GraphError(
                f"shared store {name}: not a repro object store "
                f"(bad magic {magic:#x})"
            )
        if seg_dim != self.dim:
            shm.close()
            raise GraphError(
                f"shared store {name}: segment holds dim "
                f"{seg_dim} rows, broadcast says {self.dim}"
            )
        if mapped_gen != generation:
            shm.close()
            raise GraphError(
                f"shared store {name}: mapped generation "
                f"{mapped_gen} does not match broadcast "
                f"generation {generation}"
            )
        self._bind(shm, capacity)
        self.name = name.lstrip("/")
        self._generation = generation

    # -- introspection -----------------------------------------------------

    @property
    def length(self) -> int:
        """Rows appended so far (tombstoned rows included)."""
        return self._length

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def n_tombstoned(self) -> int:
        return len(self._tombstoned)

    @property
    def nbytes(self) -> int:
        """Bytes held by the shared segment (header + full capacity)."""
        return self._segment_nbytes(self._capacity)

    def meta(self) -> dict:
        """The metadata-only broadcast payload (what workers ``sync`` on)."""
        return {
            "name": self.name,
            "dim": self.dim,
            "dtype": self.dtype.str,
            "length": self._length,
            "generation": self._generation,
            "capacity": self._capacity,
        }

    def stats(self) -> dict:
        """Counters for ``/stats`` and the benchmarks."""
        return {
            "kind": "shm",
            "name": self.name,
            "length": self._length,
            "capacity": self._capacity,
            "generation": self._generation,
            "tombstones": len(self._tombstoned),
            "nbytes": self.nbytes,
        }

    def rows(self, length: "int | None" = None) -> np.ndarray:
        """A zero-copy ``(length, dim)`` view of the mapped segment.

        ``length`` defaults to everything this side knows about; a
        handle passes the length from the broadcast it last synced.
        The view keeps its mapping alive: after a relocation or a close
        it still reads the rows it was taken over.
        """
        if self._shm is None:
            raise ParameterError(f"shared store {self.name}: used after close")
        n = self._length if length is None else int(length)
        if not 0 <= n <= self._capacity:
            raise ParameterError(
                f"shared store {self.name}: rows({n}) outside capacity "
                f"{self._capacity}"
            )
        return self._data[:n]

    # -- owner mutations ---------------------------------------------------

    def _require_owner(self, verb: str) -> None:
        if not self._owner:
            raise ParameterError(
                f"shared store {self.name}: only the owner may {verb}"
            )
        if self._shm is None:
            raise ParameterError(f"shared store {self.name}: {verb} after close")

    def append(self, rows: np.ndarray) -> int:
        """Copy prepared rows into the log; returns the first offset.

        Grows (relocates, generation bump) when the batch exceeds the
        remaining capacity.  ``rows`` must already be prepared data —
        a 2-D array of matching dim and dtype.
        """
        self._require_owner("append")
        arr = np.ascontiguousarray(rows, dtype=self.dtype)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise GraphError(
                f"shared store {self.name}: append of shape {arr.shape} "
                f"onto dim-{self.dim} rows"
            )
        first = self._length
        needed = first + arr.shape[0]
        if needed > self._capacity:
            self._relocate(max(needed, 2 * self._capacity))
        self._data[first:needed] = arr
        self._length = needed
        self._header[_H_LEN] = needed
        return first

    def tombstone(self, offsets) -> None:
        """Mark offsets dead (bookkeeping only; data stays until compact)."""
        self._require_owner("tombstone")
        for off in np.asarray(offsets, dtype=np.int64).ravel():
            off = int(off)
            if not 0 <= off < self._length:
                raise ParameterError(
                    f"shared store {self.name}: tombstone offset {off} "
                    f"outside log length {self._length}"
                )
            self._tombstoned.add(off)

    def compact(self, keep) -> None:
        """Relocate to a segment holding exactly the ``keep`` rows, in order.

        The compaction epoch: the engine drains in-flight work on the
        shard-pool barrier, compacts, and broadcasts the new generation;
        workers re-attach on :meth:`sync`.  Offsets are renumbered to
        ``0..len(keep)-1`` and the tombstone set is cleared.
        """
        self._require_owner("compact")
        keep = np.asarray(keep, dtype=np.int64).ravel()
        if keep.size and (keep.min() < 0 or keep.max() >= self._length):
            raise ParameterError(
                f"shared store {self.name}: compact keeps offsets outside "
                f"the log (length {self._length})"
            )
        # Always pass the gathered rows — an empty keep must compact to
        # an empty log, not fall into _relocate's carry-everything
        # growth path (rows=None).
        kept = np.ascontiguousarray(self._data[keep])
        self._relocate(max(1, keep.size), rows=kept)
        self._tombstoned.clear()

    def _relocate(self, new_capacity: int, rows: "np.ndarray | None" = None) -> None:
        """Move the log to a fresh segment; bump generation; stamp the old.

        ``rows=None`` carries the current log across (growth);
        otherwise ``rows`` *becomes* the log (compaction).
        """
        # Holding the old row array keeps the old mapping alive until
        # its header is stamped below.
        old_name, old_header, old_data = self.name, self._header, self._data
        if rows is None:
            rows = old_data[: self._length]
        self._generation += 1
        self._length = int(rows.shape[0])
        self._allocate(int(new_capacity))
        self._data[: self._length] = rows
        # Stamp the old header so a handle that missed the broadcast and
        # re-attaches (or reads its mapped header) sees the relocation
        # instead of silently serving superseded pages.
        old_header[_H_MAGIC] = _MOVED
        old_header[_H_GEN] = self._generation
        from multiprocessing import shared_memory

        try:
            shared_memory.SharedMemory(name=old_name).unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    # -- handle synchronisation --------------------------------------------

    def sync(self, meta: dict) -> None:
        """Bring a handle up to date with a metadata broadcast.

        Same segment name: only the length advances (zero work).  New
        name: the owner relocated — re-attach and validate the new
        header.  A broadcast whose generation is *behind* what this
        handle already mapped raises :class:`GraphError`: applying it
        would rewind the log and serve stale reads.
        """
        generation = int(meta["generation"])
        if generation < self._generation:
            raise GraphError(
                f"shared store {self.name}: stale broadcast (generation "
                f"{generation} < mapped generation {self._generation})"
            )
        if int(meta["dim"]) != self.dim:
            raise GraphError(
                f"shared store {self.name}: broadcast dim {meta['dim']} "
                f"does not match mapped dim {self.dim}"
            )
        name = str(meta["name"])
        if name != self.name or self._shm is None:
            self._map(name, generation)
        elif generation != self._generation:
            # Same name but a newer generation cannot happen: every
            # generation bump relocates to a fresh name.
            raise GraphError(
                f"shared store {self.name}: broadcast generation "
                f"{generation} on an unmoved segment (mapped "
                f"{self._generation})"
            )
        length = int(meta["length"])
        if not 0 <= length <= self._capacity:
            raise GraphError(
                f"shared store {self.name}: broadcast length {length} "
                f"outside segment capacity {self._capacity}"
            )
        self._length = length

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Detach this process's mapping (idempotent).

        Views still held keep the pages mapped until they are gone.
        """
        self._release()

    def unlink(self) -> None:
        """Destroy the segment (owner only, idempotent, safe after close).

        A forked child inherits the owner object but not ownership: the
        pid guard keeps it from tearing down the parent's segment.
        """
        if not self._owner or os.getpid() != self._owner_pid or self._unlinked:
            return
        self._unlinked = True
        self.close()
        from multiprocessing import shared_memory

        try:
            shared_memory.SharedMemory(name=self.name).unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            if self._owner:
                self.unlink()
            else:
                self.close()
        except Exception:
            pass

    def __enter__(self) -> "SharedObjectStore":
        return self

    def __exit__(self, *exc) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        side = "owner" if self._owner else "handle"
        return (
            f"SharedObjectStore({side} {self.name!r}, n={self._length}/"
            f"{self._capacity}, dim={self.dim}, gen={self._generation})"
        )

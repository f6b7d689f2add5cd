"""Shared-memory buffer substrate: one mapped segment, many processes.

Every multi-process layer of the repo — frozen-view serving, query
workers, checkpoint publication — moves data through the same
primitive: a POSIX shared-memory segment
(:class:`multiprocessing.shared_memory.SharedMemory`) holding a small
versioned header, a pickle (protocol 5) of an arbitrary object graph,
and the graph's numpy buffers laid out out-of-band.  Writing costs one
memcpy per array; :func:`read_object` reconstructs the arrays as
**zero-copy views over the mapped buffer**, so N attached processes
share one physical copy of the data no matter how many attach.

Ownership and lifecycle (the rules every user of this module follows)::

    * The CREATOR of a segment is its sole owner: only the owner calls
      unlink().  Owned segments are tracked in a module registry and
      unlinked at interpreter exit as a safety net, so a crashed owner
      leaks nothing (the stdlib resource tracker backstops a kill -9).
    * ATTACHERS call attach() -> read_object() -> close(); they never
      unlink.  Attaching deregisters the segment from this process's
      resource tracker, so an attacher exiting (or dying) can never
      tear down a segment the owner still serves.
    * POSIX semantics do the rest: an unlinked segment stays fully
      valid for every process still attached; the kernel frees the
      pages at last detach.  Cutover therefore never waits on readers.

``repro-shm-<pid>-...`` naming makes leak checks trivial:
:func:`leaked_segments` lists every live segment this process family
created, and the chaos suite asserts the list is empty after teardown.
"""

from __future__ import annotations

import atexit
import os
import pickle
import struct
import threading
from multiprocessing import shared_memory
from typing import Any, Iterator

#: Segment header: magic, format version, reserved flags, pickle byte
#: length, out-of-band buffer count.  Buffer lengths (u64 each) follow,
#: then the pickle bytes, then the buffers themselves, 64-byte aligned.
_HEADER = struct.Struct("<4sHHQI")

_MAGIC = b"RSHM"
_VERSION = 1
_ALIGN = 64

#: Default name prefix of every segment this module creates; leak
#: checks and the CI smoke job glob /dev/shm for it.
NAME_PREFIX = "repro-shm"

#: Where POSIX shared memory surfaces as files on Linux.
_SHM_DIR = "/dev/shm"


class ShmError(RuntimeError):
    """A shared-memory segment is malformed or unusable."""


class _Mapping(shared_memory.SharedMemory):
    """``SharedMemory`` whose finalizer tolerates still-exported views.

    A mapping whose zero-copy views outlive its handle cannot be closed
    (the buffer protocol forbids it); the kernel reclaims the pages at
    process exit instead, and the name is unlinked separately by the
    owner.  The stdlib finalizer raises ``BufferError`` in that state —
    pure noise under this module's lifecycle, so it is swallowed here.
    """

    def __del__(self) -> None:
        try:
            super().__del__()
        except BufferError:
            pass  # views pin the mapping; the kernel frees it at exit


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


# --------------------------------------------------------------------- #
# Owned-segment registry (leak safety net)
# --------------------------------------------------------------------- #

_registry_lock = threading.Lock()
_owned: dict[str, "ShmSegment"] = {}


def _register_owned(segment: "ShmSegment") -> None:
    with _registry_lock:
        _owned[segment.name] = segment


def _forget_owned(name: str) -> None:
    with _registry_lock:
        _owned.pop(name, None)


def owned_segment_names() -> list[str]:
    """Names of segments this process created and has not yet unlinked."""
    with _registry_lock:
        return sorted(_owned)


def _reset_after_fork() -> None:
    """Drop inherited ownership in a forked child.

    A fork inherits the parent's owned-segment registry copy-on-write;
    without this reset the child's exit hook would unlink segments the
    parent still serves.  Ownership never crosses a fork.
    """
    global _registry_lock
    _registry_lock = threading.Lock()
    _owned.clear()


os.register_at_fork(after_in_child=_reset_after_fork)


@atexit.register
def _unlink_owned_at_exit() -> None:
    """Interpreter-exit safety net: unlink every still-owned segment.

    Normal paths unlink explicitly (serving cutover, query-worker close,
    runtime close); this catches an owner that exits through an
    unhandled exception.  Attached readers in other processes keep
    their mappings — unlink only removes the name.
    """
    with _registry_lock:
        leftovers = list(_owned.values())
        _owned.clear()
    for segment in leftovers:
        segment.close()
        try:
            segment._shm.unlink()
        except FileNotFoundError:
            pass  # already gone: owner double-cleanup is benign


def shm_available() -> bool:
    """Whether POSIX shared memory works on this platform.

    The probe also starts the stdlib resource tracker as a side effect,
    which matters for lifecycle accounting: the query-worker pool calls
    this *before* forking, so the whole process family inherits one
    tracker (see :meth:`ShmSegment.attach`).
    """
    global _SHM_PROBE
    if _SHM_PROBE is None:
        try:
            probe = _Mapping(create=True, size=16)
            try:
                _SHM_PROBE = True
            finally:
                probe.unlink()
                probe.close()
        except Exception:  # sketchlint: disable=SL004,SL016 — capability probe; failure is the degrade signal (callers fall back to in-process serving) and is memoized, not lost
            _SHM_PROBE = False
    return _SHM_PROBE


_SHM_PROBE: bool | None = None


# --------------------------------------------------------------------- #
# Segment handle
# --------------------------------------------------------------------- #


class ShmSegment:
    """Handle to one shared-memory segment, owner- or attacher-side.

    Construct through :meth:`create` (owner) or :meth:`attach`
    (reader); the plain constructor is their shared plumbing.  Usable
    as a context manager: ``__exit__`` closes the local mapping and,
    for the owner, unlinks the name — the guaranteed
    unlink-on-close lifecycle the substrate promises.
    """

    __slots__ = ("_shm", "name", "size", "owner", "_closed")

    def __init__(
        self, shm: shared_memory.SharedMemory, *, owner: bool
    ) -> None:
        self._shm = shm
        self.name = shm.name
        self.size = shm.size
        self.owner = owner
        self._closed = False

    @classmethod
    def create(cls, size: int, *, prefix: str = NAME_PREFIX) -> "ShmSegment":
        """Create (and own) a fresh segment of at least ``size`` bytes."""
        if size < 1:
            raise ValueError(f"segment size must be >= 1, got {size}")
        counter = 0
        while True:
            name = f"{prefix}-{os.getpid()}-{os.urandom(4).hex()}"
            try:
                raw = _Mapping(
                    name=name, create=True, size=size
                )
                break
            except FileExistsError:
                counter += 1
                if counter >= 16:
                    raise
        segment = cls(raw, owner=True)
        _register_owned(segment)
        return segment

    @classmethod
    def attach(cls, name: str) -> "ShmSegment":
        """Attach to an existing segment by name (reader-side).

        Resource-tracker accounting stays with the owner: every process
        in this codebase that attaches is a fork descendant of the
        creator, so they share one tracker and the attach-side
        ``register`` is an idempotent no-op (the tracker keys by name).
        The owner's ``unlink`` performs the single matching
        ``unregister``; attachers never touch the registration, which
        is what keeps a dying reader from tearing the segment down
        under its siblings.  (:func:`shm_available`'s probe starts the
        tracker before any worker forks, so the whole family shares it.)
        """
        try:
            raw = _Mapping(name=name, create=False)
        except FileNotFoundError as exc:
            raise ShmError(
                f"shared segment {name!r} does not exist (owner unlinked "
                "it, or it was never published)"
            ) from exc
        return cls(raw, owner=False)

    @property
    def buf(self) -> memoryview:
        """The mapped buffer (writable for the owner)."""
        if self._closed:
            raise ShmError(f"segment {self.name!r} is closed")
        return self._shm.buf

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has released the local mapping."""
        return self._closed

    def close(self) -> bool:
        """Release this process's mapping (idempotent).

        Returns ``False`` when live zero-copy views still pin the
        mapping (numpy arrays from :func:`read_object` that the caller
        has not dropped yet) — the close is refused by the kernel
        buffer protocol, and the caller should retry after releasing
        the views.  Owners keep the name alive either way; only
        :meth:`unlink` removes it.
        """
        if self._closed:
            return True
        try:
            self._shm.close()
        except BufferError:
            return False  # exported views pin the mapping; retry later
        self._closed = True
        return True

    def unlink(self) -> None:
        """Remove the segment name (owner only; idempotent).

        Already-attached readers keep a valid mapping until they close
        — POSIX keeps the pages alive until last detach — but no new
        attach can succeed afterwards.
        """
        if not self.owner:
            raise ShmError(
                f"segment {self.name!r} is attached, not owned; only the "
                "creator may unlink"
            )
        _forget_owned(self.name)
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass  # already unlinked: double-cleanup is benign

    def release(self) -> None:
        """Owner teardown in one call: close the mapping and unlink."""
        self.close()
        if self.owner:
            self.unlink()

    def __enter__(self) -> "ShmSegment":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release() if self.owner else self.close()


# --------------------------------------------------------------------- #
# Object <-> segment codec (pickle protocol 5, out-of-band buffers)
# --------------------------------------------------------------------- #


def write_object(obj: Any, *, prefix: str = NAME_PREFIX) -> ShmSegment:
    """Serialize ``obj`` into a fresh owned segment.

    Pickle protocol 5 externalizes every contiguous numpy array in the
    object graph as an out-of-band buffer; the pickle itself holds only
    the graph structure.  Cost: one pickling pass plus one memcpy per
    buffer.  The caller owns the returned segment and must eventually
    ``unlink()`` (or ``release()``) it.
    """
    buffers: list[pickle.PickleBuffer] = []
    payload = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    views = [buffer.raw() for buffer in buffers]
    lengths = [view.nbytes for view in views]
    table = struct.pack(f"<{len(views)}Q", *lengths)
    data_start = _align(_HEADER.size + len(table) + len(payload))
    total = data_start
    for length in lengths:
        total = _align(total + length)
    segment = ShmSegment.create(max(total, 1), prefix=prefix)
    try:
        buf = segment.buf
        buf[: _HEADER.size] = _HEADER.pack(
            _MAGIC, _VERSION, 0, len(payload), len(views)
        )
        cursor = _HEADER.size
        buf[cursor : cursor + len(table)] = table
        cursor += len(table)
        buf[cursor : cursor + len(payload)] = payload
        cursor = data_start
        for view, length in zip(views, lengths):
            buf[cursor : cursor + length] = view
            cursor = _align(cursor + length)
    except BaseException:
        segment.release()  # never leak a half-written segment
        raise
    finally:
        for view in views:
            view.release()
        for buffer in buffers:
            buffer.release()
    return segment


def _layout(segment: ShmSegment) -> tuple[int, list[int], int]:
    """Validated ``(pickle_len, buffer_lengths, data_start)``."""
    buf = segment.buf
    if len(buf) < _HEADER.size:
        raise ShmError(f"segment {segment.name!r} is too small for a header")
    magic, version, _flags, payload_len, nbufs = _HEADER.unpack_from(buf, 0)
    if magic != _MAGIC:
        raise ShmError(
            f"segment {segment.name!r} is not a repro shm segment "
            f"(bad magic {magic!r})"
        )
    if version != _VERSION:
        raise ShmError(
            f"segment {segment.name!r} has layout version {version}; "
            f"this build reads version {_VERSION}"
        )
    lengths = list(
        struct.unpack_from(f"<{nbufs}Q", buf, _HEADER.size)
    )
    data_start = _align(_HEADER.size + 8 * nbufs + payload_len)
    return payload_len, lengths, data_start


def read_object(segment: ShmSegment) -> Any:
    """Reconstruct the object written by :func:`write_object`.

    Numpy arrays come back as read-only zero-copy views over the mapped
    buffer, so an attached reader cannot scribble on state other
    processes share.  The views pin the segment's mapping:
    ``segment.close()`` reports ``False`` until the caller drops them.
    """
    payload_len, lengths, data_start = _layout(segment)
    buf = segment.buf
    pickle_off = _HEADER.size + 8 * len(lengths)
    payload = bytes(buf[pickle_off : pickle_off + payload_len])
    views = []
    cursor = data_start
    for length in lengths:
        view = buf[cursor : cursor + length]
        views.append(view.toreadonly())
        cursor = _align(cursor + length)
    return pickle.loads(payload, buffers=views)


def read_attached(name: str) -> tuple[Any, ShmSegment]:
    """Attach to ``name`` and decode it: ``(object, segment)``.

    The returned segment must outlive every array view inside the
    object; callers close it once they are done with the object.
    """
    segment = ShmSegment.attach(name)
    try:
        return read_object(segment), segment
    except BaseException:
        segment.close()
        raise


# --------------------------------------------------------------------- #
# Leak auditing
# --------------------------------------------------------------------- #


def leaked_segments(prefix: str = NAME_PREFIX) -> list[str]:
    """Live ``/dev/shm`` entries carrying ``prefix`` (any pid).

    The substrate's invariant is that this list is empty once every
    owner has closed: tests and the CI smoke job call it after
    teardown.  Returns ``[]`` on platforms without a /dev/shm.
    """
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:  # sketchlint: disable=SL016 — no /dev/shm means no POSIX segments can exist, so "no leaks" is the truthful answer
        return []
    return sorted(entry for entry in entries if entry.startswith(prefix))


def iter_owned() -> Iterator[ShmSegment]:
    """Snapshot iterator over currently owned segments (diagnostics)."""
    with _registry_lock:
        snapshot = list(_owned.values())
    return iter(snapshot)

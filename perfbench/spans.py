"""In-memory span tracing installed from outside the program.

A :class:`Tracer` replaces public functions and methods of the
``repro`` package with thin wrappers that record one span per call:
name, start, end, parent span and request id.  Spans stay in memory
until :meth:`Tracer.dump` writes them out as JSON lines at the end of a
run; :func:`summarize` folds them into per-name totals, self time
(duration minus the time covered by child spans) and counts.

Nothing here changes the program: :meth:`Tracer.uninstall` restores
every patched attribute, so an untraced phase runs the unmodified code.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, NamedTuple

class Span(NamedTuple):
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    request: Any
    thread: int
    size: int


def _records(args: tuple, kwargs: dict, result: Any) -> int:
    """Row count of a ``(..., times, items, counts)`` batch call."""
    return len(args[2]) if len(args) > 2 else 0


def _file_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    try:
        return os.stat(result).st_size
    except (OSError, TypeError):
        return 0


def _len_result(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result) if isinstance(result, (bytes, str)) else 0


def _len_first(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[0]) if args and isinstance(args[0], (bytes, str)) else 0


def _int_result(args: tuple, kwargs: dict, result: Any) -> int:
    return int(result) if isinstance(result, int) else 0


def _swapped(args: tuple, kwargs: dict, result: Any) -> int:
    return int(bool(isinstance(result, dict) and result.get("swapped")))


class Tracer:
    """Records spans around patched callables; thread-aware."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[tuple[int, str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: Any) -> None:
        """Tag later root spans on this thread with ``request``."""
        self._local.request = request

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[[str | None, tuple], str],
        size: Callable[[tuple, dict, Any], int] | None = None,
        on_result: Callable[["Tracer", Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` may be a callable of the parent span's name and the
        call's arguments, so one callable can report under different
        names by context.  ``size`` maps ``(args, kwargs, result)`` to a
        count stored on the span; ``on_result`` sees the return value
        (used to pick up a request id as soon as a frame is decoded).
        """
        original = inspect.getattr_static(owner, attr)
        kind = type(original) if isinstance(
            original, (classmethod, staticmethod)
        ) else None
        func = original.__func__ if kind is not None else original
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            label = (
                name(parent[1] if parent else None, args)
                if callable(name)
                else name
            )
            span_id = next(tracer._ids)
            if parent is not None:
                request = parent[2]
            else:
                request = getattr(tracer._local, "request", None) or span_id
            stack.append((span_id, label, request))
            result = None
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                if on_result is not None:
                    on_result(tracer, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if parent is None and on_result is not None:
                    request = getattr(tracer._local, "request", None) or span_id
                tracer.spans.append(
                    Span(
                        span_id,
                        parent[0] if parent else None,
                        label,
                        start,
                        end,
                        request,
                        threading.get_ident(),
                        size(args, kwargs, result) if size else 0,
                    )
                )

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        replacement = kind(traced) if kind is not None else traced
        had_own = attr in vars(owner)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original if had_own else None))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path: Path) -> None:
        """Write every recorded span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(list(span)) + "\n")


def load_spans(path: Path, id_offset: int = 0) -> list[Span]:
    """Read spans written by :meth:`Tracer.dump`, shifting span ids by
    ``id_offset`` so spans of several processes can be merged."""
    out = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            span = Span(*json.loads(line))
            out.append(
                span._replace(
                    span_id=span.span_id + id_offset,
                    parent=None if span.parent is None else span.parent + id_offset,
                )
            )
    return out


@contextmanager
def installed(tracer: Tracer | None) -> Iterator[None]:
    """Trace the enclosed block with ``tracer`` (no-op for ``None``)."""
    if tracer is None:
        yield
        return
    install(tracer)
    try:
        yield
    finally:
        tracer.uninstall()


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark names."""
    from repro.analysis import contracts
    from repro.core.heavy_hitters import PersistentHeavyHitters
    from repro.core.persistent_ams import PersistentAMS
    from repro.core.persistent_countmin import PersistentCountMin
    from repro.engine import frozen, replay
    from repro.hashing.families import BucketHashFamily, SignHashFamily
    from repro.pla.orourke import OnlinePLA
    from repro.runtime import runtime as runtime_mod
    from repro.runtime.wal import WriteAheadLog
    from repro.server import protocol
    from repro.server import serving as serving_mod
    from repro.server.client import Client
    from repro.server.daemon import SketchServer
    from repro.server.serving import ServingRuntime
    from repro.store import store as store_mod

    rt = runtime_mod.IngestRuntime
    for attr in ("ingest_batch", "checkpoint", "recover", "close", "frozen_view"):
        tracer.wrap(rt, attr, f"runtime.{attr}")
    tracer.wrap(runtime_mod, "run_fsck", "runtime.fsck")
    tracer.wrap(contracts, "check_store", "runtime.check_store")
    tracer.wrap(WriteAheadLog, "append_many", "runtime.wal.append_many")
    tracer.wrap(
        os,
        "fsync",
        lambda parent, args: "runtime.wal.fsync"
        if parent and parent.startswith("runtime.wal")
        else "io.fsync",
    )

    store_cls = store_mod.SketchStore
    tracer.wrap(store_cls, "update_batch", "store.update_batch", size=_records)
    tracer.wrap(store_cls, "save", "store.save")
    tracer.wrap(store_cls, "open", "store.open")
    tracer.wrap(store_mod, "save_sketch", "io.save", size=_file_bytes)
    tracer.wrap(store_mod, "load_sketch", "io.load")

    # The heavy-hitter hierarchy is a stack of Count-Min levels; name
    # those nested calls apart so core.countmin is the point sketches.
    tracer.wrap(
        PersistentCountMin,
        "ingest_batch",
        lambda parent, args: "core.heavy_hitters.level.ingest_batch"
        if parent and parent.startswith("core.heavy_hitters")
        else "core.countmin.ingest_batch",
    )
    tracer.wrap(PersistentHeavyHitters, "ingest_batch", "core.heavy_hitters.ingest_batch")
    tracer.wrap(PersistentAMS, "ingest_batch", "core.ams.ingest_batch")
    tracer.wrap(BucketHashFamily, "buckets_many", "hashing.buckets_many")
    tracer.wrap(SignHashFamily, "signs_many", "hashing.signs_many")
    tracer.wrap(OnlinePLA, "feed_many", "pla.feed_many")

    tracer.wrap(replay, "replay_records", "engine.replay", size=_int_result)
    tracer.wrap(frozen, "freeze_store", "engine.freeze_store")
    tracer.wrap(serving_mod, "freeze_store", "engine.freeze_store")
    for verb in ("point", "point_many", "heavy_hitters", "self_join_size"):
        tracer.wrap(frozen.FrozenStoreView, verb, f"engine.frozen.{verb}")

    for verb in ("point", "point_many", "heavy_hitters", "self_join_size", "ingest_batch"):
        tracer.wrap(ServingRuntime, verb, f"server.serving.{verb}")
        tracer.wrap(Client, verb, f"client.{verb}")
    tracer.wrap(ServingRuntime, "maybe_cutover", "server.serving.maybe_cutover", size=_swapped)
    tracer.wrap(
        SketchServer,
        "dispatch",
        lambda parent, args: f"server.dispatch.{args[1].get('verb')}",
    )
    tracer.wrap(
        protocol,
        "decode",
        "server.protocol.decode",
        size=_len_first,
        on_result=lambda tracer, message: tracer.set_request(
            (threading.get_ident(), message.get("id"))
        ),
    )
    tracer.wrap(protocol, "encode", "server.protocol.encode", size=_len_result)


class Summary(NamedTuple):
    calls: int
    total_s: float
    self_s: float
    size: int


def summarize(spans: list[Span]) -> dict[str, Summary]:
    """Per-name call count, inclusive time, self time and size sum.

    Inclusive time counts only the outermost span of a name on its
    thread, so recursion never counts an interval twice.
    """
    by_id = {span.span_id: span for span in spans}
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + (
                span.end - span.start
            )
    out: dict[str, list[float]] = {}
    for span in spans:
        duration = span.end - span.start
        nested = False
        parent = by_id.get(span.parent) if span.parent is not None else None
        while parent is not None:
            if parent.name == span.name:
                nested = True
                break
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        entry = out.setdefault(span.name, [0, 0.0, 0.0, 0])
        entry[0] += 1
        if not nested:
            entry[1] += duration
        entry[2] += duration - child_time.get(span.span_id, 0.0)
        entry[3] += span.size
    return {
        name: Summary(int(c), float(t), float(s), int(n))
        for name, (c, t, s, n) in out.items()
    }

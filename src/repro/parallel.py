"""One-shot fork fan-out for read-only work.

:func:`parallel_map` evaluates a closure over a task list in ephemeral
forked children (frozen table construction, ``point_many`` slabs) and
falls back to an in-process loop when ``workers <= 1``, the platform
lacks ``fork``, or the task list is tiny.  Results are bit-identical to
the serial loop.  Ingestion has no parallel path: every sketch applies
its updates serially, in arrival order.
"""

from __future__ import annotations

import multiprocessing
import traceback
from multiprocessing.connection import Connection
from typing import Any, Callable, Sequence

_JOIN_TIMEOUT_S = 10.0


class ParallelMapError(RuntimeError):
    """A :func:`parallel_map` child died or raised before returning.

    There is no partial result and nothing to replay: the fan-out is
    read-only, so the caller re-runs the whole map (or runs it serially).
    """


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms  # sketchlint: disable=SL004,SL016 — capability probe, any failure means "no fork"
        return False


def _map_child(
    conn: Connection,
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    index: int,
    nworkers: int,
) -> None:
    try:
        out = [fn(tasks[pos]) for pos in range(index, len(tasks), nworkers)]
    except BaseException:  # sketchlint: disable=SL004 — forwarded to master as an ("err", traceback) reply
        try:
            conn.send(("err", traceback.format_exc()))
        except Exception:  # sketchlint: disable=SL004 — master gone; nothing left to report to
            pass
    else:
        try:
            conn.send(("ok", out))
        except Exception:  # sketchlint: disable=SL004 — master gone; nothing left to report to
            pass
    finally:
        conn.close()


def parallel_map(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    workers: int,
    *,
    min_tasks: int = 2,
) -> list[Any]:
    """``[fn(t) for t in tasks]`` over forked children, order preserved.

    ``fn`` and ``tasks`` reach the children by fork inheritance (never
    pickled), so closures over big read-only state — frozen tables, live
    tracker dicts — cost nothing to ship; only each ``fn(t)`` result
    crosses a pipe.  Runs in-process (bit-identically) when ``workers``
    is 1, the platform lacks fork, or there are fewer than ``min_tasks``
    tasks.  ``fn`` must not mutate shared state: children are discarded,
    so only returned values survive.  A child that dies or raises fails
    the whole map with :class:`ParallelMapError`.
    """
    tasks = list(tasks)
    if workers <= 1 or len(tasks) < max(2, min_tasks) or not fork_available():
        return [fn(task) for task in tasks]
    workers = min(workers, len(tasks))
    ctx = multiprocessing.get_context("fork")
    conns: list[Connection] = []
    procs: list[multiprocessing.process.BaseProcess] = []
    for index in range(workers):
        parent, child = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_map_child,
            args=(child, fn, tasks, index, workers),
            daemon=True,
        )
        proc.start()
        child.close()
        conns.append(parent)
        procs.append(proc)
    results: list[Any] = [None] * len(tasks)
    try:
        for index, conn in enumerate(conns):
            try:
                status, value = conn.recv()
            except (EOFError, OSError) as exc:
                raise ParallelMapError(
                    f"parallel map worker {index} (pid {procs[index].pid}) "
                    f"died before returning results"
                ) from exc
            if status != "ok":
                raise ParallelMapError(
                    f"parallel map worker {index} raised:\n{value}"
                )
            for pos, item in zip(
                range(index, len(tasks), workers), value
            ):
                results[pos] = item
    finally:
        for conn in conns:
            try:
                conn.close()
            except Exception:  # sketchlint: disable=SL004,SL016 — best-effort fd cleanup on shutdown
                pass
        for proc in procs:
            proc.join(timeout=_JOIN_TIMEOUT_S)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=_JOIN_TIMEOUT_S)
    return results

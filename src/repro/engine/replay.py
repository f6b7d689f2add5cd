"""Same-stream grouping shared by live ingest and WAL-tail replay.

Recovery must reproduce the exact state an uninterrupted run would
have: the sampled AMS sketch draws from its serialized RNG state in
offer order, so replay order matters bit-for-bit.  The columnar batch
planners are bit-identical to scalar ingestion for every sketch type —
including the sampled AMS, whose batch path pre-draws its Bernoulli
acceptances from the same seeded generator in scalar order — so both
:meth:`~repro.runtime.IngestRuntime.ingest_batch` and recovery cut
their records into contiguous same-stream runs with :func:`stream_runs`
and apply each run through
:meth:`~repro.store.store.SketchStore.update_batch`.
"""

from __future__ import annotations

from itertools import groupby
from typing import Any, Iterable, Iterator

import numpy as np

from repro.store.store import SketchStore


def stream_runs(
    records: Iterable[tuple[str, int, int, int]],
) -> Iterator[tuple[str, np.ndarray, np.ndarray, np.ndarray]]:
    """Cut ``(stream, item, count, time)`` records into same-stream runs.

    Yields ``(stream, times, items, counts)`` per run of *consecutive*
    records for one stream, in arrival order, as int64 columns.
    """
    for name, run_iter in groupby(records, key=lambda record: record[0]):
        run = list(run_iter)
        times = np.array([record[3] for record in run], dtype=np.int64)
        items = np.array([record[1] for record in run], dtype=np.int64)
        counts = np.array([record[2] for record in run], dtype=np.int64)
        yield name, times, items, counts


def replay_records(
    store: SketchStore, records: Iterable[dict[str, Any]]
) -> int:
    """Apply WAL wire records to ``store`` in order; returns the count.

    Records are dicts with ``stream``, ``item``, ``count`` and a
    *resolved* ``time`` (the runtime resolves auto-ticks before the WAL
    append, so replay never re-derives timestamps).  Timestamp
    monotonicity is still enforced by the sketches' batch validation — a
    WAL that violates it is corrupt and the error should surface.
    """
    applied = 0
    for name, times, items, counts in stream_runs(
        (record["stream"], record["item"], record["count"], record["time"])
        for record in records
    ):
        store.update_batch(name, times, items, counts)
        applied += len(times)
    return applied

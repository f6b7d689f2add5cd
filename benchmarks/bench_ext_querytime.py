"""Extension: query latency scaling (the Sections 3.3 / 4.2 analysis).

The paper analyses query time — ``O(d log m)`` for point queries,
``O(w d log m)`` for joins — but plots no figure for it.  This extension
measures point-query and self-join latency as the stream length grows at
fixed Delta.  Expected shape: point latency grows at most
logarithmically in m (binary searches over per-counter histories), far
slower than the linear growth of the history itself.
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.core.persistent_ams import PersistentAMS
from repro.core.persistent_countmin import PersistentCountMin
from repro.eval import harness
from repro.eval.reporting import report
from repro.streams.generators import zipf_stream

LENGTHS = tuple(harness.scaled(base) for base in (10_000, 40_000, 160_000))
DELTA = 20
POINT_QUERIES = 400


def _measure(length: int) -> tuple[float, float, int]:
    stream = zipf_stream(length, exponent=1.5, seed=17)
    cm = PersistentCountMin(width=1024, depth=5, delta=DELTA, seed=2)
    ams = PersistentAMS(width=1024, depth=5, delta=DELTA, seed=2)
    for sketch in (cm, ams):
        sketch.ingest_batch(stream.times, stream.items, stream.counts)
    items = [int(stream.items[i]) for i in range(0, length, length // 50)]
    s, t = length // 5, 4 * length // 5

    start = time.perf_counter()
    for i in range(POINT_QUERIES):
        cm.point(items[i % len(items)], s - i, t - i)
    point_us = (time.perf_counter() - start) / POINT_QUERIES * 1e6

    start = time.perf_counter()
    for i in range(10):
        ams.self_join_size(s - i, t - i)
    join_ms = (time.perf_counter() - start) / 10 * 1e3
    return point_us, join_ms, cm.persistence_words()


def run_extension() -> dict:
    rows = []
    for length in LENGTHS:
        point_us, join_ms, words = _measure(length)
        rows.append(
            (length, round(point_us, 1), round(join_ms, 2), words)
        )
    report(
        f"Extension: query latency vs stream length (delta={DELTA})",
        ["m", "point query (us)", "self-join (ms)", "PLA words"],
        rows,
        json_name="ext_querytime",
    )
    return {"rows": rows}


def test_ext_querytime(benchmark):
    result = run_once(benchmark, run_extension)
    rows = result["rows"]
    assert len(rows) == len(LENGTHS)
    # Point query latency grows far slower than the stream (16x more
    # data should cost well under 8x the latency; log m predicts ~1.3x).
    first, last = rows[0], rows[-1]
    growth = last[1] / max(first[1], 1e-9)
    data_growth = last[0] / first[0]
    assert growth < data_growth / 2

"""Seeded inputs: three streams, their arrival order, and the probe set.

Every input is a pure function of the benchmark's ``--seed``.  The
streams come from :mod:`repro.streams`:

* ``urls`` — ObjectID-like (``object_id_stream``), remapped onto a
  compact universe so the heavy-hitter hierarchy stays shallow;
* ``clients`` — ClientID-like (``client_id_stream``), joinable;
* ``ads`` — the paper's Zipf_3 (``zipf_stream``).

Records carry one global clock shared by all streams (tick = arrival
position), so each stream's timestamps increase strictly, with gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.eval.harness import compact_items
from repro.store import SketchStore, StreamSpec
from repro.streams import (
    GroundTruth,
    Stream,
    client_id_stream,
    object_id_stream,
    zipf_stream,
)

STREAMS = ("urls", "clients", "ads")

#: Compact URL universe: 500 hot plus 3,500 tail objects fit in 2^12.
URL_UNIVERSE = 4096
URL_TAIL = 3500
DELTA = 16.0
#: Per-stream blocks are whole multiples of this many records, the bulk
#: workload's batch size, so every bulk batch holds a single stream.
BLOCK_UNIT = 250


def round_seed(seed: int, k: int) -> int:
    """Seed of round ``k``'s inputs.  Every round draws fresh inputs from
    the same distributions, so a run's figures average over several
    draws instead of inheriting one draw's quirks (space, say, varies by
    about a tenth between draws)."""
    return seed * 1000 + k


def make_store() -> SketchStore:
    """The store every workload ingests into (default sketch shapes)."""
    store = SketchStore()
    store.create(
        StreamSpec("urls", delta=DELTA, universe=URL_UNIVERSE, heavy_hitters=True)
    )
    store.create(StreamSpec("clients", delta=DELTA, joinable=True))
    store.create(StreamSpec("ads", delta=DELTA))
    return store


def _stream_items(seed: int, length: int) -> dict[str, np.ndarray]:
    urls = compact_items(
        object_id_stream(length, tail_items=URL_TAIL, seed=seed * 3 + 1)
    ).items
    return {
        "urls": urls,
        "clients": client_id_stream(length, seed=seed * 3 + 2).items,
        "ads": zipf_stream(length, seed=seed * 3 + 3).items,
    }


def _arrival(rng: np.random.Generator, n: int, blocks: bool) -> np.ndarray:
    """Stream index of each arriving record; every stream gets n/3.

    Interleaved: a seeded shuffle of the balanced sequence, so the mean
    same-stream run is about 1.5 records.  Blocks: each stream's share
    cut into runs of 1,000-2,000 records, whole multiples of
    :data:`BLOCK_UNIT`, the streams taking turns in a fixed order, so
    every seed gives the same shape of work.  The shares must then be
    multiples of :data:`BLOCK_UNIT` too.
    """
    shares = [n // len(STREAMS) + (k < n % len(STREAMS)) for k in range(len(STREAMS))]
    if not blocks:
        order = np.repeat(np.arange(len(STREAMS)), shares)
        rng.shuffle(order)
        return order
    if any(share % BLOCK_UNIT for share in shares):
        raise ValueError(f"per-stream shares {shares} are not multiples of {BLOCK_UNIT}")
    runs: list[list[int]] = []
    for share in shares:
        cuts = []
        while share > 2000:
            top = min(2000, share - 1000) // BLOCK_UNIT
            size = BLOCK_UNIT * int(rng.integers(1000 // BLOCK_UNIT, top + 1))
            cuts.append(size)
            share -= size
        runs.append(cuts + [share])
    order = [
        np.full(runs[stream][i], stream)
        for i in range(max(map(len, runs)))
        for stream in range(len(STREAMS))
        if i < len(runs[stream])
    ]
    return np.concatenate(order)


@dataclass
class Inputs:
    """Records in arrival order plus the writer's later batches."""

    records: list[dict]
    writes: list[list[dict]] = field(default_factory=list)

    def truth(self, upto: int) -> dict[str, GroundTruth]:
        """Exact per-stream answers over the first ``upto`` records of
        ``records`` followed by the writer batches."""
        flat = self.records + [rec for batch in self.writes for rec in batch]
        out = {}
        for name in STREAMS:
            rows = [rec for rec in flat[:upto] if rec["stream"] == name]
            out[name] = GroundTruth(
                Stream(
                    items=[rec["item"] for rec in rows],
                    times=[rec["time"] for rec in rows],
                )
            )
        return out


def make_inputs(
    seed: int,
    n_records: int,
    blocks: bool,
    write_batches: int = 0,
    write_batch: int = 0,
) -> Inputs:
    """Generate ``n_records`` arrivals and ``write_batches`` single-stream
    writer batches of ``write_batch`` records that continue the streams."""
    n_writes = write_batches * write_batch
    items = _stream_items(seed, n_records + n_writes)
    rng = np.random.default_rng(seed)
    cursor = dict.fromkeys(STREAMS, 0)

    def take(stream: str, time: int) -> dict:
        item = int(items[stream][cursor[stream]])
        cursor[stream] += 1
        return {"stream": stream, "item": item, "count": 1, "time": time}

    records = [
        take(STREAMS[index], tick)
        for tick, index in enumerate(
            _arrival(rng, n_records, blocks).tolist(), start=1
        )
    ]
    writes = []
    tick = n_records
    for index in range(write_batches):
        stream = STREAMS[index % len(STREAMS)]
        batch = []
        for _ in range(write_batch):
            tick += 1
            batch.append(take(stream, tick))
        writes.append(batch)
    return Inputs(records=records, writes=writes)


@dataclass
class Probes:
    """Fixed query set: per-stream items and windows ending at ``t``."""

    items: dict[str, list[int]]
    windows: dict[str, list[tuple[int, int]]]


def make_probes(
    seed: int, records: list[dict], upto: int, per_stream: int = 24
) -> Probes:
    """Probe items (heaviest first, then seeded random seen items) and
    three windows per stream ending at its clock after ``upto`` records."""
    rng = np.random.default_rng(seed + 1_000_003)
    items, windows = {}, {}
    for name in STREAMS:
        rows = [rec for rec in records[:upto] if rec["stream"] == name]
        seen, counts = np.unique(
            np.array([rec["item"] for rec in rows], dtype=np.int64),
            return_counts=True,
        )
        heavy = seen[np.argsort(-counts, kind="stable")][: per_stream // 2]
        rest = rng.choice(seen, size=per_stream - len(heavy), replace=True)
        items[name] = [int(i) for i in np.concatenate((heavy, rest))]
        horizon = rows[-1]["time"]
        windows[name] = [
            (0, horizon),
            (horizon // 4, 3 * horizon // 4),
            (horizon // 2, horizon),
        ]
    return Probes(items=items, windows=windows)

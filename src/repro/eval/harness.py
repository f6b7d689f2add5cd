"""Datasets, cached sketch builders and experiment scaffolding.

The paper's study (Section 6.1) uses three workloads — ``Zipf_3``,
``ClientID`` and ``ObjectID`` — and sweeps the persistence error ``Delta``
for four persistent sketches at fixed ephemeral shape (w = 20000, d = 7,
1M-7M updates).  Pure Python ingests roughly two orders of magnitude
slower than the paper's testbed, so the default scale here is tens of
thousands of updates with ``Delta`` sweeps scaled down proportionally;
set the environment variable ``REPRO_BENCH_SCALE`` (a float multiplier)
to run larger instances.  All comparisons are relative between methods at
equal parameters, which preserves the plots' shapes.

Builders are memoised per process so the figure-3/4/5 benchmarks (which
share sketch builds) and the figure-9/10 benchmarks pay for each
(dataset, sketch, Delta) combination once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.core.heavy_hitters import PersistentHeavyHitters
from repro.core.persistent_ams import PersistentAMS
from repro.core.persistent_countmin import PersistentCountMin, PWCCountMin
from repro.core.pwc_ams import PWCAMS
from repro.streams.generators import zipf_stream
from repro.streams.model import Stream
from repro.streams.truth import GroundTruth
from repro.streams.worldcup import client_id_stream, object_id_stream


def bench_scale() -> float:
    """The ``REPRO_BENCH_SCALE`` multiplier (default 1.0)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(base: int) -> int:
    """Scale a base workload size by the bench multiplier."""
    return max(1000, int(base * bench_scale()))


@dataclass(frozen=True)
class DatasetSpec:
    """A named workload: generator plus its paper description."""

    name: str
    factory: Callable[[int], Stream]
    description: str


DATASETS: dict[str, DatasetSpec] = {
    "Zipf_3": DatasetSpec(
        name="Zipf_3",
        factory=lambda n: zipf_stream(n, exponent=3.0, seed=42),
        description="highly skewed synthetic stream (Zipf coefficient 3)",
    ),
    "ObjectID": DatasetSpec(
        name="ObjectID",
        factory=lambda n: object_id_stream(n, seed=43),
        description="WorldCup-like URL stream (~500 hot items, long tail)",
    ),
    "ClientID": DatasetSpec(
        name="ClientID",
        factory=lambda n: client_id_stream(n, seed=44),
        description="WorldCup-like client-IP stream (near uniform)",
    ),
}

#: Ephemeral sketch shape used by all benchmarks (the paper uses
#: w = 20000, d = 7; scaled down with the workloads).
BENCH_WIDTH_CM = 2048
BENCH_WIDTH_AMS = 2048
BENCH_DEPTH = 5
BENCH_SEED = 7


@lru_cache(maxsize=None)
def get_dataset(name: str, length: int) -> Stream:
    """The named dataset materialized at the given length (cached)."""
    return DATASETS[name].factory(length)


@lru_cache(maxsize=None)
def get_truth(name: str, length: int) -> GroundTruth:
    """Ground truth for a dataset (cached)."""
    return GroundTruth(get_dataset(name, length))


@lru_cache(maxsize=None)
def get_compact_dataset(name: str, length: int) -> Stream:
    """Dataset remapped onto a compact universe (for heavy hitters)."""
    return compact_items(get_dataset(name, length))


@lru_cache(maxsize=None)
def get_compact_truth(name: str, length: int) -> GroundTruth:
    """Ground truth for the compact remapping (cached)."""
    return GroundTruth(get_compact_dataset(name, length))


def compact_items(stream: Stream) -> Stream:
    """Remap items onto ``[0, distinct)`` to shrink the dyadic hierarchy.

    Heavy-hitter identity is preserved (the mapping is a bijection on the
    items that occur), so precision/recall are unaffected while the level
    count drops from ``log2(2^24)`` to ``log2(distinct)``.
    """
    unique, inverse = np.unique(np.asarray(stream.items), return_inverse=True)
    return Stream(
        items=inverse.astype(np.int64),
        times=stream.times,
        counts=stream.counts,
        universe=int(len(unique)),
    )


def paper_window(length: int) -> tuple[int, int]:
    """The fixed query window of Section 6.3: ``(0.2 m, 0.6 m]``."""
    return int(0.2 * length), int(0.6 * length)


# --------------------------------------------------------------------- #
# Cached sketch builders
# --------------------------------------------------------------------- #


@lru_cache(maxsize=None)
def build_pla_cm(
    name: str,
    length: int,
    delta: float,
    width: int = BENCH_WIDTH_CM,
    depth: int = BENCH_DEPTH,
) -> PersistentCountMin:
    """PLA persistent Count-Min over a dataset (cached)."""
    sketch = PersistentCountMin(
        width=width, depth=depth, delta=delta, seed=BENCH_SEED
    )
    sketch.ingest(get_dataset(name, length))
    return sketch


@lru_cache(maxsize=None)
def build_pwc_cm(
    name: str,
    length: int,
    delta: float,
    width: int = BENCH_WIDTH_CM,
    depth: int = BENCH_DEPTH,
) -> PWCCountMin:
    """PWC_CountMin baseline over a dataset (cached)."""
    sketch = PWCCountMin(
        width=width, depth=depth, delta=delta, seed=BENCH_SEED
    )
    sketch.ingest(get_dataset(name, length))
    return sketch


@lru_cache(maxsize=None)
def build_pwc_ams(
    name: str,
    length: int,
    delta: float,
    width: int = BENCH_WIDTH_AMS,
    depth: int = BENCH_DEPTH,
) -> PWCAMS:
    """PWC_AMS baseline over a dataset (cached)."""
    sketch = PWCAMS(width=width, depth=depth, delta=delta, seed=BENCH_SEED)
    sketch.ingest(get_dataset(name, length))
    return sketch


@lru_cache(maxsize=None)
def build_sample(
    name: str,
    length: int,
    delta: float,
    copies: int = 2,
    sampling_seed: int = 1,
    width: int = BENCH_WIDTH_AMS,
    depth: int = BENCH_DEPTH,
) -> PersistentAMS:
    """Sampling-based persistent AMS over a dataset (cached).

    ``sampling_seed`` varies across repetitions of the randomized
    experiments while the hash functions stay fixed.
    """
    sketch = PersistentAMS(
        width=width,
        depth=depth,
        delta=delta,
        seed=BENCH_SEED,
        independent_copies=copies,
        sampling_seed=sampling_seed * 97 + 5,
    )
    sketch.ingest(get_dataset(name, length))
    return sketch


@lru_cache(maxsize=None)
def build_paper_shape_cm(
    name: str,
    length: int,
    delta: float,
    width: int = 20000,
    depth: int = 7,
) -> PersistentCountMin:
    """Paper-shape (w=20000, d=7) PLA Count-Min, bulk-ingested (cached).

    The query-serving benchmark uses the paper's ephemeral shape rather
    than the scaled-down default, so ingest goes through the columnar
    batch plan (bit-identical to sequential ingest).
    """
    sketch = PersistentCountMin(
        width=width, depth=depth, delta=delta, seed=BENCH_SEED
    )
    stream = get_dataset(name, length)
    sketch.ingest_batch(stream.times, stream.items, stream.counts)
    return sketch


def query_workload(
    name: str, length: int, count: int, seed: int = BENCH_SEED
) -> tuple[list[int], list[tuple[float, float]]]:
    """Deterministic historical point-query workload over a dataset.

    Items are drawn from the stream's own empirical distribution (so hot
    and cold counters are both probed) and windows ``(s, t]`` are uniform
    random sub-intervals of the stream's time span — the mix of recent
    and deep-history windows the paper's query-time discussion assumes.
    """
    stream = get_dataset(name, length)
    rng = np.random.default_rng(seed * 1009 + 17)
    items = [
        int(item)
        for item in rng.choice(np.asarray(stream.items), size=count)
    ]
    endpoints = rng.integers(0, length + 1, size=(count, 2))
    lo = endpoints.min(axis=1)
    hi = endpoints.max(axis=1)
    hi = np.minimum(np.maximum(hi, lo + 1), length)
    lo = np.minimum(lo, hi - 1)
    windows = [
        (float(s), float(t)) for s, t in zip(lo.tolist(), hi.tolist())
    ]
    return items, windows


@lru_cache(maxsize=None)
def build_hh(
    name: str,
    length: int,
    delta: float,
    kind: str = "pla",
    width: int = 1024,
    depth: int = 3,
) -> PersistentHeavyHitters:
    """Dyadic heavy-hitter structure over the compact dataset (cached).

    ``kind`` selects the per-level sketch: ``"pla"`` (the paper's PLA) or
    ``"pwc"`` (the PWC_CountMin baseline).
    """
    stream = get_compact_dataset(name, length)
    if kind == "pla":
        factory = lambda w, d, dl, sd, hashes=None: PersistentCountMin(  # noqa: E731
            width=w, depth=d, delta=dl, seed=sd, hashes=hashes
        )
    elif kind == "pwc":
        factory = lambda w, d, dl, sd, hashes=None: PWCCountMin(  # noqa: E731
            width=w, depth=d, delta=dl, seed=sd, hashes=hashes
        )
    else:
        raise ValueError(f"unknown heavy-hitter sketch kind: {kind}")
    structure = PersistentHeavyHitters(
        universe=stream.universe or int(stream.items.max()) + 1,
        width=width,
        depth=depth,
        delta=delta,
        seed=BENCH_SEED,
        sketch_factory=factory,
    )
    structure.ingest(stream)
    return structure

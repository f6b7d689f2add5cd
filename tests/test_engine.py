"""Tests for the columnar batch-ingest plan and vectorized hashing."""

import time

import numpy as np
import pytest

from repro.core.historical_countmin import HistoricalCountMin
from repro.core.persistent_ams import PersistentAMS
from repro.core.persistent_countmin import PersistentCountMin, PWCCountMin
from repro.core.pwc_ams import PWCAMS
from repro.engine.frozen import batch_hash_columns
from repro.streams.generators import turnstile_stream, zipf_stream
from repro.streams.truth import GroundTruth


@pytest.fixture(scope="module")
def stream():
    return zipf_stream(5000, universe=2**16, exponent=1.8, seed=141)


def ingest_columns(sketch, stream):
    """The columnar path: the whole stream as one ``ingest_batch``."""
    sketch.ingest_batch(stream.times, stream.items, stream.counts)


def scalar_ingest(sketch, stream):
    """Reference baseline: one ``update()`` call per record.

    ``ingest()`` itself routes through the batch planner now, so the
    scalar loop is spelled out wherever a test needs the pre-columnar
    behaviour as its baseline.
    """
    for time_, item, count in zip(
        stream.times.tolist(), stream.items.tolist(), stream.counts.tolist()
    ):
        sketch.update(item, count=count, time=time_)


class TestHashColumns:
    def test_matches_per_item_hashing(self, stream):
        sketch = PersistentCountMin(width=512, depth=4, delta=10, seed=3)
        columns = batch_hash_columns(sketch.hashes, np.asarray(stream.items))
        for idx in range(0, len(stream), 531):
            expected = sketch.hashes.buckets(int(stream.items[idx]))
            assert tuple(columns[idx]) == expected


class TestDeterministicEquivalence:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: PersistentCountMin(width=256, depth=4, delta=10, seed=2),
            lambda: PWCCountMin(width=256, depth=4, delta=10, seed=2),
            lambda: PWCAMS(width=256, depth=4, delta=10, seed=2),
        ],
        ids=["PLA", "PWC_CM", "PWC_AMS"],
    )
    def test_bit_identical_to_sequential(self, factory, stream):
        sequential = factory()
        scalar_ingest(sequential, stream)
        batched = factory()
        ingest_columns(batched, stream)
        assert batched.now == sequential.now
        assert batched.total == sequential.total
        assert batched._counters == sequential._counters
        assert batched.persistence_words() == sequential.persistence_words()
        truth = GroundTruth(stream)
        for item, _ in truth.top_k(25):
            for s, t in [(0, 5000), (1000, 4000), (4900, 5000)]:
                assert batched.point(item, s, t) == sequential.point(item, s, t)

    def test_turnstile_equivalence(self):
        stream = turnstile_stream(2000, universe=128, seed=9)
        sequential = PersistentCountMin(width=256, depth=3, delta=5, seed=1)
        batched = PersistentCountMin(width=256, depth=3, delta=5, seed=1)
        scalar_ingest(sequential, stream)
        ingest_columns(batched, stream)
        assert batched._counters == sequential._counters
        assert batched.persistence_words() == sequential.persistence_words()


class TestSampleEquivalence:
    def test_bit_identical_sampling(self, stream):
        """Batch-built Sample sketches are *bit-identical* to scalar ones.

        The batch path pre-draws the Bernoulli acceptances from the same
        seeded ``random.Random`` stream in scalar order (see
        ``repro.persistence.sampling.bulk_uniforms``), so the sampled
        histories — not just their distribution — coincide exactly.
        """
        truth = GroundTruth(stream)
        s, t = 1000, 4000
        actual = truth.self_join_size(s, t)
        sequential = PersistentAMS(width=512, depth=5, delta=10, seed=2)
        scalar_ingest(sequential, stream)
        batched = PersistentAMS(width=512, depth=5, delta=10, seed=2)
        ingest_columns(batched, stream)
        assert batched._components == sequential._components
        assert batched.now == sequential.now
        assert batched._rng.getstate() == sequential._rng.getstate()
        for sketch in (sequential, batched):
            assert sketch.self_join_size(s, t) == pytest.approx(
                actual, rel=0.15
            )
        assert batched.persistence_words() == sequential.persistence_words()
        assert batched.self_join_size(s, t) == sequential.self_join_size(s, t)

    def test_deterministic_given_seed(self, stream):
        a = PersistentAMS(width=128, depth=3, delta=8, seed=4, sampling_seed=7)
        b = PersistentAMS(width=128, depth=3, delta=8, seed=4, sampling_seed=7)
        ingest_columns(a, stream)
        ingest_columns(b, stream)
        assert a.persistence_words() == b.persistence_words()
        assert a.self_join_size(0, 5000) == b.self_join_size(0, 5000)


class TestEdgesAndFallback:
    def test_empty_stream(self):
        sketch = PersistentCountMin(width=16, depth=2, delta=4)
        ingest_columns(sketch, zipf_stream(0))
        assert sketch.now == 0

    def test_clock_conflict_rejected(self, stream):
        sketch = PersistentCountMin(width=16, depth=2, delta=4)
        ingest_columns(sketch, stream)
        with pytest.raises(ValueError):
            ingest_columns(sketch, stream)  # same times again

    def test_sequential_then_batch(self, stream):
        sketch = PersistentCountMin(width=256, depth=3, delta=8, seed=1)
        half = len(stream) // 2
        scalar_ingest(sketch, stream.prefix(half))
        from repro.streams.model import Stream

        rest = Stream(
            stream.items[half:], stream.times[half:], stream.counts[half:]
        )
        ingest_columns(sketch, rest)
        reference = PersistentCountMin(width=256, depth=3, delta=8, seed=1)
        scalar_ingest(reference, stream)
        assert sketch._counters == reference._counters
        assert sketch.persistence_words() == reference.persistence_words()

    def test_historical_sketch_batch(self, stream):
        sketch = HistoricalCountMin(width=128, depth=3, eps=0.05, seed=1)
        ingest_columns(sketch, stream.prefix(500))
        assert sketch.now == 500
        reference = HistoricalCountMin(width=128, depth=3, eps=0.05, seed=1)
        scalar_ingest(reference, stream.prefix(500))
        assert sketch._epochs.current.index == reference._epochs.current.index
        assert sketch.persistence_words() == reference.persistence_words()


class TestShuffledFeedContracts:
    """Satellite: a mis-ordered feed must be rejected on *both* ingest
    paths.  The batch path is the dangerous one — it records sampled-AMS
    offers via ``force_sample``, which deliberately bypasses the
    ``@monotone_timestamps`` contract — so ``ingest_batch`` has to
    reject a shuffled feed before any state is touched."""

    def _shuffled(self, n=500, seed=3):
        stream = zipf_stream(n, universe=2**12, exponent=1.5, seed=7)
        rng = np.random.default_rng(seed)
        # Stream validates monotone times at construction; a shuffled
        # feed can only arise via in-place mutation (or a buggy duck-
        # typed source), which is exactly what the batch guard catches.
        rng.shuffle(stream.times)
        return stream

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: PersistentCountMin(width=256, depth=3, delta=8, seed=3),
            lambda: PersistentAMS(width=256, depth=3, delta=8, seed=3),
        ],
    )
    def test_batch_ingest_rejects_shuffled_feed(self, factory):
        from repro.analysis.contracts import ContractViolation

        sketch = factory()
        with pytest.raises(ContractViolation, match="strictly increasing"):
            ingest_columns(sketch, self._shuffled())
        assert sketch.now == 0  # nothing ingested

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: PersistentCountMin(width=256, depth=3, delta=8, seed=3),
            lambda: PersistentAMS(width=256, depth=3, delta=8, seed=3),
        ],
    )
    def test_sequential_ingest_rejects_shuffled_feed(self, factory):
        sketch = factory()
        stream = self._shuffled()
        with pytest.raises(ValueError, match="strictly increasing"):
            for time_, item, count in zip(
                stream.times.tolist(),
                stream.items.tolist(),
                stream.counts.tolist(),
            ):
                sketch.update(item, count=count, time=time_)


class TestSpeed:
    def test_batch_is_faster(self):
        """The columnar plan must clearly beat the scalar update loop;
        typically several-fold, require a clear win."""
        stream = zipf_stream(30_000, universe=2**16, exponent=1.5, seed=5)

        start = time.perf_counter()
        sequential = PersistentAMS(width=1024, depth=5, delta=20, seed=3)
        scalar_ingest(sequential, stream)
        sequential_time = time.perf_counter() - start

        start = time.perf_counter()
        batched = PersistentAMS(width=1024, depth=5, delta=20, seed=3)
        ingest_columns(batched, stream)
        batch_time = time.perf_counter() - start

        assert batched._components == sequential._components
        assert batch_time < sequential_time / 1.3

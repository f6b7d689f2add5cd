"""Crash-recovery property tests: kill-and-recover vs an uninterrupted twin.

The acceptance property (ISSUE 2): killing ingestion at *any* injected
fault point and recovering must yield a runtime whose query answers are
identical to an uninterrupted twin that ingested the same records with
the same checkpoint cadence — including the sampled AMS sketches, whose
RNG state rides along in the snapshot.  The twin is an
:class:`IngestRuntime` (not a bare store) because snapshotting finalizes
open PLA runs, so checkpoint positions shape future segmentation.
"""

import random

import pytest

from repro.core.persistent_countmin import PWCCountMin
from repro.runtime import (
    FaultPlan,
    IngestRuntime,
    RecoveryError,
    SimulatedCrash,
)
from repro.store import SketchStore, StreamSpec

pytestmark = pytest.mark.faults

UNIVERSE = 64
N_RECORDS = 260
CHECKPOINT_EVERY = 50  # boundaries at records 50, 100, 150, 200, 250


def make_store():
    store = SketchStore(width=64, depth=3, join_width=64, seed=11)
    store.create(
        StreamSpec(
            name="urls",
            delta=4,
            universe=UNIVERSE,
            heavy_hitters=True,
            joinable=True,
            quantiles=True,
        )
    )
    store.create(StreamSpec(name="ads", delta=4, joinable=True))
    return store


def make_pwc_store():
    """Same shape, but the point sketches use PWC (baseline) trackers."""
    store = make_store()
    for name in store.streams():
        state = store._streams[name]
        state.point_sketch = PWCCountMin(
            width=64, depth=3, delta=4, seed=11
        )
    return store


def make_records(n=N_RECORDS):
    rng = random.Random(1234)
    records = []
    for i in range(n):
        records.append(
            {
                "stream": "urls" if i % 3 else "ads",
                "item": rng.randrange(UNIVERSE),
                "count": rng.choice([1, 1, 1, 2, 3]),
            }
        )
    return records


def run_uninterrupted(root, records, store_factory=make_store):
    twin = IngestRuntime.create(
        root / "twin", store_factory(), checkpoint_every=CHECKPOINT_EVERY
    )
    for raw in records:
        assert twin.ingest(raw) is True
    return twin


def crash_and_recover(root, plan, records, store_factory=make_store):
    """Ingest until the scripted crash, recover, re-send the tail.

    Records past ``applied_seq`` were never acknowledged, so re-sending
    them is the client's exactly-once responsibility, not a duplicate.
    """
    runtime = IngestRuntime.create(
        root / "victim",
        store_factory(),
        checkpoint_every=CHECKPOINT_EVERY,
        faults=plan,
        sleep=lambda _t: None,
    )
    crashed = False
    for raw in records:
        try:
            runtime.ingest(raw)
        except SimulatedCrash:
            crashed = True
            break
    assert crashed, "fault plan never fired"
    recovered = IngestRuntime.recover(
        root / "victim", checkpoint_every=CHECKPOINT_EVERY
    )
    assert recovered.applied_seq < len(records)
    for raw in records[recovered.applied_seq:]:
        assert recovered.ingest(raw) is True
    return recovered


def assert_identical_answers(twin, recovered):
    """Bit-identical query answers across every sketch family."""
    for stream in ("urls", "ads"):
        assert recovered.clock(stream) == twin.clock(stream)
    t = twin.clock("urls")
    windows = [(0, None), (t // 3, 2 * t // 3), (t // 2, None)]
    for item in range(0, UNIVERSE, 7):
        for s, e in windows:
            assert recovered.store.point("urls", item, s, e) == twin.store.point(
                "urls", item, s, e
            )
    assert recovered.store.heavy_hitters("urls", 0.05) == twin.store.heavy_hitters(
        "urls", 0.05
    )
    assert recovered.store.top_k("urls", 5) == twin.store.top_k("urls", 5)
    assert recovered.store.quantile("urls", 0.5) == twin.store.quantile(
        "urls", 0.5
    )
    for s, e in windows:
        assert recovered.store.self_join_size(
            "urls", s, e
        ) == twin.store.self_join_size("urls", s, e)
    assert recovered.store.join_size("urls", "ads") == twin.store.join_size(
        "urls", "ads"
    )


# Record-level fault points straddle the checkpoint boundaries (B-1, B,
# B+1 around records 50 and 100) plus an arbitrary mid-interval point.
RECORD_FAULT_POINTS = [49, 50, 51, 100, 101, 130]


class TestCrashAtEveryFaultPoint:
    @pytest.mark.parametrize("at", RECORD_FAULT_POINTS)
    def test_crash_before_wal_append(self, tmp_path, at):
        records = make_records()
        twin = run_uninterrupted(tmp_path, records)
        recovered = crash_and_recover(
            tmp_path, FaultPlan(crash_before_record=at), records
        )
        assert_identical_answers(twin, recovered)

    @pytest.mark.parametrize("at", RECORD_FAULT_POINTS)
    def test_torn_wal_write(self, tmp_path, at):
        records = make_records()
        twin = run_uninterrupted(tmp_path, records)
        recovered = crash_and_recover(
            tmp_path, FaultPlan(torn_write_at_record=at), records
        )
        assert_identical_answers(twin, recovered)

    @pytest.mark.parametrize("at", RECORD_FAULT_POINTS)
    def test_crash_after_durable_before_apply(self, tmp_path, at):
        records = make_records()
        twin = run_uninterrupted(tmp_path, records)
        recovered = crash_and_recover(
            tmp_path, FaultPlan(crash_after_record=at), records
        )
        assert_identical_answers(twin, recovered)

    @pytest.mark.parametrize("at", [1, 3])
    def test_crash_during_checkpoint(self, tmp_path, at):
        records = make_records()
        twin = run_uninterrupted(tmp_path, records)
        recovered = crash_and_recover(
            tmp_path, FaultPlan(crash_at_checkpoint=at), records
        )
        assert_identical_answers(twin, recovered)


class TestTruncatedSnapshotFallback:
    @pytest.mark.parametrize("at", [2, 4])
    def test_falls_back_to_previous_checkpoint(self, tmp_path, at):
        """A truncated committed snapshot must not error: recovery falls
        back to the previous checkpoint and replays a longer WAL tail."""
        records = make_records()
        twin = run_uninterrupted(tmp_path, records)
        recovered = crash_and_recover(
            tmp_path,
            FaultPlan(truncate_snapshot_at_checkpoint=at),
            records,
        )
        # The damaged snapshot covered `at` intervals; falling back one
        # checkpoint forces a replay of at least a full interval.
        assert recovered.stats.replayed >= CHECKPOINT_EVERY
        assert_identical_answers(twin, recovered)


class TestPWCVariant:
    """The recovery protocol is tracker-agnostic: PWC baselines too."""

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(torn_write_at_record=120),
            FaultPlan(crash_at_checkpoint=2),
        ],
        ids=["torn120", "ckpt2"],
    )
    def test_pwc_store_recovers_identically(self, tmp_path, plan):
        records = make_records()
        twin = run_uninterrupted(tmp_path, records, make_pwc_store)
        recovered = crash_and_recover(
            tmp_path, plan, records, make_pwc_store
        )
        assert_identical_answers(twin, recovered)


class TestBatchAndParallelFaultPoints:
    """The same kill-and-recover property, through the batch feed path.

    ``ingest_batch`` frames chunks with one fsync — the acceptance
    property must survive it: crash anywhere, recover, re-send the
    unacknowledged tail, and every query answer is bit-identical to the
    scalar uninterrupted twin.
    """

    BATCH = 37  # deliberately coprime with the checkpoint cadence

    def _crash_recover_batched(self, root, plan, records):
        victim = IngestRuntime.create(
            root / "victim",
            make_store(),
            checkpoint_every=CHECKPOINT_EVERY,
            faults=plan,
            sleep=lambda _t: None,
        )
        with pytest.raises(SimulatedCrash):
            for lo in range(0, len(records), self.BATCH):
                victim.ingest_batch(records[lo : lo + self.BATCH])
        victim.close()
        recovered = IngestRuntime.recover(
            root / "victim",
            checkpoint_every=CHECKPOINT_EVERY,
        )
        durable = recovered.applied_seq
        assert durable < len(records)
        assert recovered.ingest_batch(records[durable:]) == len(records) - durable
        return recovered

    @pytest.mark.parametrize("at", [50, 101, 130])
    def test_batch_crash_recovers_to_identical_answers(self, tmp_path, at):
        records = make_records()
        twin = run_uninterrupted(tmp_path, records)
        recovered = self._crash_recover_batched(
            tmp_path, FaultPlan(torn_write_at_record=at), records
        )
        assert_identical_answers(twin, recovered)


class TestRecoverEdgeCases:
    def test_recover_empty_directory_raises(self, tmp_path):
        with pytest.raises(RecoveryError):
            IngestRuntime.recover(tmp_path / "nothing-here")

    def test_recover_clean_shutdown_resumes(self, tmp_path):
        records = make_records(80)
        runtime = IngestRuntime.create(
            tmp_path / "rt", make_store(), checkpoint_every=CHECKPOINT_EVERY
        )
        for raw in records:
            runtime.ingest(raw)
        runtime.close()
        recovered = IngestRuntime.recover(
            tmp_path / "rt", checkpoint_every=CHECKPOINT_EVERY
        )
        assert recovered.applied_seq == 80
        # 80 records, last checkpoint covered 50: 30 replayed.
        assert recovered.stats.replayed == 30
        twin = run_uninterrupted(tmp_path, records)
        assert_identical_answers(twin, recovered)

    def test_create_refuses_existing_runtime(self, tmp_path):
        IngestRuntime.create(tmp_path / "rt", make_store())
        with pytest.raises(FileExistsError):
            IngestRuntime.create(tmp_path / "rt", make_store())

    def test_recovery_revalidates_contracts(self, tmp_path):
        """Recovery validates timelines even with REPRO_CONTRACTS off."""
        from repro.analysis import contracts

        records = make_records(60)
        runtime = IngestRuntime.create(
            tmp_path / "rt", make_store(), checkpoint_every=CHECKPOINT_EVERY
        )
        for raw in records:
            runtime.ingest(raw)
        runtime.close()
        with contracts.enforced(False):
            recovered = IngestRuntime.recover(
                tmp_path / "rt", checkpoint_every=CHECKPOINT_EVERY
            )
        assert recovered.applied_seq == 60

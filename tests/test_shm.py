"""Shared-memory substrate: codec, lifecycle, shared views, leaks.

Two layers under test.  First the :mod:`repro.shm` primitive itself —
header validation, zero-copy reconstruction, owner/attacher lifecycle,
POSIX valid-until-last-detach semantics, and the ``/dev/shm`` leak
audit.  Second the shared frozen views built on it: published, attached,
recovered into, and served by query workers, bit-equal to the
in-process view and leak-free.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import shm
from repro.parallel import fork_available

pytestmark = pytest.mark.skipif(
    not shm.shm_available(), reason="POSIX shared memory unavailable"
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="query workers require os.fork"
)


def assert_no_leaks():
    __tracebackinfo__ = "every repro-shm segment must be unlinked"
    assert shm.leaked_segments() == []


# --------------------------------------------------------------------- #
# Codec: write_object / read_object
# --------------------------------------------------------------------- #


def test_round_trip_zero_copy_views():
    obj = {
        "counts": np.arange(1000, dtype=np.uint64),
        "slopes": np.linspace(0.0, 1.0, 7),
        "nested": [np.ones((3, 5), dtype=np.float32), "label", 42, None],
    }
    with shm.write_object(obj) as segment:
        got, attached = shm.read_attached(segment.name)
        assert np.array_equal(got["counts"], obj["counts"])
        assert np.array_equal(got["slopes"], obj["slopes"])
        assert np.array_equal(got["nested"][0], obj["nested"][0])
        assert got["nested"][1:] == ["label", 42, None]
        # Zero-copy: the arrays are views over the mapping, read-only.
        assert not got["counts"].flags.writeable
        with pytest.raises(ValueError):
            got["counts"][0] = 1
        # Views pin the mapping; close succeeds once they are dropped.
        assert attached.close() is False
        del got
        assert attached.close() is True
    assert_no_leaks()


def test_non_contiguous_arrays_fall_back_in_band():
    cube = np.arange(60).reshape(3, 4, 5)
    with shm.write_object({"slice": cube[:, 2, :]}) as segment:
        got = shm.read_object(segment)
        assert np.array_equal(got["slice"], cube[:, 2, :])
    assert_no_leaks()


def test_plain_objects_need_no_buffers():
    with shm.write_object({"a": [1, 2, 3], "b": "text"}) as segment:
        assert shm.read_object(segment) == {"a": [1, 2, 3], "b": "text"}
    assert_no_leaks()


def test_header_rejects_garbage_and_wrong_version():
    with shm.ShmSegment.create(256) as segment:
        segment.buf[:4] = b"NOPE"
        with pytest.raises(shm.ShmError, match="bad magic"):
            shm.read_object(segment)
        good = pickle.dumps(None, protocol=5)
        segment.buf[: shm._HEADER.size] = shm._HEADER.pack(
            shm._MAGIC, 99, 0, len(good), 0
        )
        with pytest.raises(shm.ShmError, match="version"):
            shm.read_object(segment)
    assert_no_leaks()


# --------------------------------------------------------------------- #
# Lifecycle: ownership, POSIX detach semantics
# --------------------------------------------------------------------- #


def test_attacher_cannot_unlink_owner_can():
    segment = shm.write_object([1, 2, 3])
    attached = shm.ShmSegment.attach(segment.name)
    with pytest.raises(shm.ShmError, match="attached, not owned"):
        attached.unlink()
    attached.close()
    assert segment.name in shm.owned_segment_names()
    segment.release()
    assert segment.name not in shm.owned_segment_names()
    with pytest.raises(shm.ShmError, match="does not exist"):
        shm.ShmSegment.attach(segment.name)
    assert_no_leaks()


def test_unlinked_segment_stays_valid_until_last_detach():
    segment = shm.write_object({"v": np.arange(64)})
    got, attached = shm.read_attached(segment.name)
    segment.release()  # name gone from /dev/shm...
    assert_no_leaks()
    assert np.array_equal(got["v"], np.arange(64))  # ...mapping still valid
    del got
    assert attached.close() is True


def test_create_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        shm.ShmSegment.create(0)


# --------------------------------------------------------------------- #
# Shared frozen views: publish, attach, recover-into, serve
# --------------------------------------------------------------------- #

#: Query spread used by every bit-equality check below: every 7th item
#: of the recovery suite's universe, over full-history and interior
#: windows.
_PROBE_STEP = 7


def _frozen_probe(view, stream, t):
    """One deterministic answer vector across every frozen verb.

    The heavy-hitter-backed verbs (heavy_hitters, window_mass) only
    probe "urls" — the recovery suite's "ads" stream is created without
    that sketch and raises the usual typed error.
    """
    items = list(range(0, 64, _PROBE_STEP))
    windows = [(0.0, float(t)), (float(t) // 3, 2 * float(t) // 3)]
    answers = [view.point(stream, item, s, e)
               for item in items for s, e in windows]
    many = view.point_many(stream, items, [(0.0, float(t))] * len(items))
    answers.append([float(x) for x in many])
    if stream == "urls":
        answers.append(sorted(view.heavy_hitters(stream, 0.05, 0, t).items()))
        answers.append(view.window_mass(stream, 0, t))
    answers.append(view.self_join_size(stream, 0, t))
    return answers


def test_shared_frozen_view_attach_is_bit_equal(tmp_path):
    from repro.engine.frozen import attach_view
    from repro.runtime import IngestRuntime
    from tests.test_runtime_recovery import make_records, make_store

    runtime = IngestRuntime.create(
        tmp_path / "rt", make_store(), checkpoint_every=50
    )
    try:
        for raw in make_records():
            runtime.ingest(raw)
        view, segment = runtime.shared_frozen_view()
        # Memoized while applied_seq is unchanged: a cutover tick that
        # finds no new records must not republish.
        again_view, again_segment = runtime.shared_frozen_view()
        assert again_view is view and again_segment.name == segment.name

        twin, attached = attach_view(segment.name)
        try:
            for stream in ("urls", "ads"):
                t = view.clock(stream)
                assert twin.clock(stream) == t
                assert _frozen_probe(twin, stream, t) == _frozen_probe(
                    view, stream, t
                )
        finally:
            attached.close()
    finally:
        runtime.close()
    assert_no_leaks()


def test_recover_publish_shared_and_checkpoint_fast_path(tmp_path):
    from repro.engine.frozen import attach_view
    from repro.runtime import IngestRuntime
    from tests.test_runtime_recovery import make_records, make_store

    first = IngestRuntime.create(
        tmp_path / "rt", make_store(), checkpoint_every=50
    )
    for raw in make_records():
        first.ingest(raw)
    applied = first.applied_seq
    first.close()
    assert_no_leaks()  # a closed runtime releases its published segment

    # recover(publish_shared=True): the replayed state is already in a
    # segment when recover() returns, and it is the memoized one.
    recovered = IngestRuntime.recover(
        tmp_path / "rt", checkpoint_every=50, publish_shared=True
    )
    try:
        view, segment = recovered.shared_frozen_view()
        twin, attached = tuple(attach_view(segment.name))
        try:
            t = view.clock("urls")
            assert _frozen_probe(twin, "urls", t) == _frozen_probe(
                view, "urls", t
            )
        finally:
            attached.close()

        # Checkpoint fast path: a read-only process publishes the newest
        # checkpoint without recovering a runtime.  Its answers must be
        # bit-equal to the recovered view at the checkpoint's coverage.
        covered_seq, ckpt_view, ckpt_segment = (
            IngestRuntime.open_checkpoint_shared(tmp_path / "rt")
        )
        try:
            assert 0 < covered_seq <= applied
            reader, reader_segment = attach_view(ckpt_segment.name)
            try:
                for stream in ("urls", "ads"):
                    t = ckpt_view.clock(stream)
                    assert _frozen_probe(reader, stream, t) == _frozen_probe(
                        ckpt_view, stream, t
                    )
            finally:
                reader_segment.close()
        finally:
            ckpt_segment.release()
    finally:
        recovered.close()
    assert_no_leaks()


@needs_fork
def test_serving_query_workers_bit_equal_to_inline(tmp_path):
    from repro.runtime import IngestRuntime
    from repro.server import ServingRuntime
    from tests.test_runtime_recovery import make_records, make_store

    records = make_records()
    servings = {}
    try:
        for label, query_workers in (("inline", 0), ("pooled", 2)):
            runtime = IngestRuntime.create(
                tmp_path / label, make_store(), checkpoint_every=50
            )
            serving = ServingRuntime(runtime, query_workers=query_workers)
            servings[label] = serving
            serving.ingest_batch(records)
            assert serving.maybe_cutover(force=True)["swapped"]
        pool = servings["pooled"].query_pool()
        assert pool is not None and len(pool.pids) == 2
        assert servings["inline"].query_pool() is None

        for stream in ("urls", "ads"):
            t = servings["inline"].view().clock(stream)
            want = _frozen_probe(servings["inline"], stream, t)
            assert _frozen_probe(servings["pooled"], stream, t) == want
    finally:
        for serving in servings.values():
            serving.close()
    assert_no_leaks()

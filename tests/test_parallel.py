"""Read-side fork fan-out: parallel freeze, ``point_many`` slabs, and
:func:`repro.parallel.parallel_map` itself.

Ingestion is serial; these tests pin that a frozen snapshot compiled and
queried over forked children answers bit-identically to the serial
snapshot, and that a failed fan-out surfaces as one error type.
"""

import numpy as np
import pytest

from repro.engine import frozen as frozen_mod
from repro.engine.frozen import freeze
from repro.parallel import ParallelMapError, fork_available, parallel_map
from tests.test_batch_ingest import FACTORIES, build_stream, scalar_ingest

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="fork fan-out requires os.fork"
)

#: Sketch types whose snapshots the frozen engine can compile.
FREEZABLE = ("PLA_CM", "PWC_CM", "PWC_AMS", "Sample_AMS", "PLA_HH", "Sharded")


@pytest.mark.parametrize("name", FREEZABLE)
def test_parallel_freeze_and_fanout_bit_equal(name, monkeypatch):
    # Force the fan-out even for tiny probe batches.
    monkeypatch.setattr(frozen_mod, "_FANOUT_MIN", 8)
    stream = build_stream([(i % 11, 1, 1) for i in range(160)])
    serial_sketch = FACTORIES[name]()
    scalar_ingest(serial_sketch, stream)
    serial_frozen = freeze(serial_sketch)

    batched_sketch = FACTORIES[name]()
    batched_sketch.ingest(stream, batch_size=64)
    parallel_frozen = freeze(batched_sketch, workers=3)

    end = int(stream.times[-1])
    items = np.tile(np.arange(11, dtype=np.int64), 4)
    windows = [(0, end), (end // 3, 2 * end // 3)] * (len(items) // 2)
    got = parallel_frozen.point_many(items, windows)
    want = serial_frozen.point_many(items, windows)
    np.testing.assert_array_equal(got, want)
    # Scalar fast path answers exactly like the serial snapshot.
    for item in (0, 5, 10):
        for s, t in ((0, end), (end // 3, 2 * end // 3)):
            assert parallel_frozen.point(item, s, t) == serial_frozen.point(
                item, s, t
            )


def test_parallel_map_scatter_and_errors():
    # Order-preserving scatter across strides.
    assert parallel_map(lambda x: x * x, list(range(17)), 3) == [
        x * x for x in range(17)
    ]
    # Small task lists run inline (no fork cost), same results.
    assert parallel_map(lambda x: -x, [4], 4) == [-4]

    # A raising task surfaces as ParallelMapError, not a hang.
    def boom(x):
        raise RuntimeError(f"task {x} failed")

    with pytest.raises(ParallelMapError, match="task"):
        parallel_map(boom, list(range(6)), 2)
    # A child that dies before returning is covered by
    # tests/test_pool_healing.py.

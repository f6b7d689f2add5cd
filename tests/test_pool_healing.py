"""A :func:`repro.parallel.parallel_map` child that dies mid-map.

The fan-out is one-shot and read-only, so there is no respawn or replay:
a child killed before it returns fails the whole map with the single
fan-out error type, :class:`~repro.parallel.ParallelMapError`, rather
than hanging or returning a partial result.  The test keeps its original
name from when the failure type was ``WorkerUnavailable``.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.parallel import ParallelMapError, fork_available, parallel_map

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="fork fan-out requires os.fork"
)


def test_parallel_map_child_death_raises_worker_unavailable():
    def die(x):
        if x == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(ParallelMapError, match="died"):
        parallel_map(die, list(range(8)), 2)
    # Callers catch one type for both failure modes: a dead child and a
    # raising task.
    assert issubclass(ParallelMapError, RuntimeError)

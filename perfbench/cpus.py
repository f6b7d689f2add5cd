"""CPU placement for timed phases.

On a virtual machine each vCPU's speed can drift on its own, by up to
a third, over seconds to minutes.  A single-threaded phase stays on the vCPU the scheduler first gave it,
so a whole run can inherit one vCPU's slow spell.  :func:`hopping`
moves the calling thread to the next allowed CPU every :data:`HOP_S`
seconds, so every timed phase samples all of them.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

HOP_S = 0.05


@contextmanager
def hopping() -> Iterator[None]:
    """Rotate the calling thread over the allowed CPUs while inside."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        yield
        return
    tid = threading.get_native_id()
    stop = threading.Event()

    def rotate() -> None:
        k = 0
        while not stop.wait(HOP_S):
            k += 1
            os.sched_setaffinity(tid, {cpus[k % len(cpus)]})

    mover = threading.Thread(target=rotate, name="perfbench-hop", daemon=True)
    mover.start()
    try:
        yield
    finally:
        stop.set()
        mover.join()
        os.sched_setaffinity(tid, cpus)


def pin_process(pid: int, cpu: int) -> None:
    """Pin every thread of process ``pid`` to ``cpu``; threads it starts
    later inherit the placement."""
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            os.sched_setaffinity(int(task.name), {cpu})
        except ProcessLookupError:
            pass  # the thread ended meanwhile

"""Shared machinery for the persistent sketches.

All persistent sketches ingest a stream of ``(item, count, time)`` updates
with strictly increasing integer timestamps (the discrete time model of
Section 1.2: update ``e_t`` arrives at time ``t``; ticks may be skipped).
When the caller does not supply timestamps, updates are assigned
consecutive ticks starting at 1.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.analysis import contracts
from repro.core.buffer import DEFAULT_WINDOW, UpdateBuffer
from repro.streams.model import Stream

if TYPE_CHECKING:  # repro.engine depends on repro.core; import lazily.
    from repro.engine.frozen import (
        FrozenAMS,
        FrozenCountMin,
        FrozenHeavyHitters,
        FrozenPWCAMS,
    )


class PersistentSketch(ABC):
    """Base class: clock management, bulk ingest, update-buffer tier."""

    def __init__(self) -> None:
        self._clock = 0
        self._buffer: UpdateBuffer | None = None
        self._buffer_flushing = False

    @property
    def now(self) -> int:
        """Timestamp of the most recent update (0 before any update)."""
        return self._clock

    # ------------------------------------------------------------------ #
    # Update-buffer tier (two-stage ingest; see repro.core.buffer)
    # ------------------------------------------------------------------ #

    def configure_buffer(
        self, window: int | None = DEFAULT_WINDOW, mode: str = "exact"
    ) -> None:
        """Enable (or, with ``window=None``, disable) the update buffer.

        With a buffer configured, validated updates are absorbed at
        array-append cost and fed to the batch plan one ``window`` at a
        time; ``mode="coalesce"`` additionally merges same-item touches
        per window (lossy — see :mod:`repro.core.buffer` for the widened
        error bound).  Any staged updates are flushed before the
        configuration changes, so switching is always safe mid-stream.
        """
        self.flush_buffer()
        if window is None:
            self._buffer = None
        else:
            self._buffer = UpdateBuffer(window=window, mode=mode)

    @property
    def buffered(self) -> bool:
        """Whether the update-buffer tier is enabled."""
        return self._buffer is not None

    def flush_buffer(self) -> None:
        """Feed staged buffered updates through the normal batch plan.

        Every query, freeze and serialization funnels through here, so
        callers never observe a sketch that lags its absorbed stream.
        The sketch clock is *not* rewound by the replayed tail: absorbed
        updates already advanced it at absorption time.
        """
        buffer = self._buffer
        if buffer is None or self._buffer_flushing or len(buffer) == 0:
            return
        self._buffer_flushing = True
        clock = self._clock
        try:
            buffer.flush(self._ingest_batch)
        finally:
            self._buffer_flushing = False
            self._clock = clock

    def buffer_stats(self) -> dict | None:
        """Buffer accounting (``None`` when unbuffered); see
        :meth:`repro.core.buffer.UpdateBuffer.stats`."""
        buffer = self._buffer
        return None if buffer is None else buffer.stats()

    def update(self, item: int, count: int = 1, time: int | None = None) -> None:
        """Ingest one update.

        Parameters
        ----------
        item:
            Element identifier (any non-negative integer).
        count:
            Frequency change; ``+1`` in the cash-register model, ``+/-1``
            in the turnstile model.
        time:
            Integer timestamp, strictly greater than all previous ones.
            Auto-incremented when omitted.
        """
        if time is None:
            time = self._clock + 1
        elif time <= self._clock:
            raise ValueError(
                f"timestamps must be strictly increasing: {time} <= "
                f"{self._clock}"
            )
        if self._buffer is not None:
            # The eventual flush goes through the same batch plan a
            # direct batch would.
            self._buffer.absorb_scalar(time, item, count, self._ingest_batch)
            self._clock = time
            return
        # Apply before advancing the clock: a rejected update (bad item,
        # turnstile violation, ...) must not leave the clock pointing at
        # a time no structure ever recorded, or every later default-
        # window query would ask the sub-sketches about their future.
        self._ingest(item, count, time)
        self._clock = time

    def ingest(self, stream: Stream, batch_size: int = 8192) -> None:
        """Ingest a whole :class:`~repro.streams.model.Stream`.

        A thin wrapper over the chunked batch planner: the stream is cut
        into ``batch_size`` chunks and each chunk goes through
        :meth:`ingest_batch`.  Bit-identical to a loop of scalar
        :meth:`update` calls for every chunk size.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        n = len(stream)
        times = np.asarray(stream.times, dtype=np.int64)
        items = np.asarray(stream.items, dtype=np.int64)
        counts = np.asarray(stream.counts, dtype=np.int64)
        for lo in range(0, n, batch_size):
            hi = min(lo + batch_size, n)
            self.ingest_batch(times[lo:hi], items[lo:hi], counts[lo:hi])

    def ingest_batch(
        self,
        times: np.ndarray,
        items: np.ndarray,
        counts: np.ndarray | None = None,
    ) -> None:
        """Ingest a column of updates at once.

        Validates the whole batch up front — equal lengths, first time
        beyond the clock (:class:`ValueError`, as scalar :meth:`update`
        raises), strictly increasing times inside the batch
        (:class:`~repro.analysis.contracts.ContractViolation`) — then
        hands the columns to the sketch's batch plan.  State after the
        call is bit-identical to the scalar :meth:`update` loop; no state
        is touched when validation fails.  ``counts`` defaults to
        all-ones (the cash-register model).
        """
        times = np.asarray(times, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        n = times.shape[0]
        if counts is None:
            counts = np.ones(n, dtype=np.int64)
        else:
            counts = np.asarray(counts, dtype=np.int64)
        if items.shape[0] != n or counts.shape[0] != n:
            raise ValueError(
                "times, items and counts must have equal lengths, got "
                f"{n}/{items.shape[0]}/{counts.shape[0]}"
            )
        if n == 0:
            return
        if int(times[0]) <= self._clock:
            raise ValueError(
                f"stream starts at {int(times[0])} but the sketch "
                f"clock is already at {self._clock}"
            )
        if n > 1:
            gaps = np.diff(times)
            if int(gaps.min()) <= 0:
                bad = int(np.argmax(gaps <= 0))
                raise contracts.ContractViolation(
                    f"batch stream timestamps must be strictly increasing: "
                    f"times[{bad + 1}]={int(times[bad + 1])} <= "
                    f"times[{bad}]={int(times[bad])}"
                )
        if self._buffer is not None:
            self._buffer.absorb(times, items, counts, self._ingest_batch)
        else:
            self._ingest_batch(times, items, counts)
        self._clock = int(times[-1])

    def __getstate__(self) -> dict[str, Any]:
        # A pickled sketch carries its flushed state, never staged updates.
        self.flush_buffer()
        return dict(self.__dict__)

    def _ingest_batch(
        self, times: np.ndarray, items: np.ndarray, counts: np.ndarray
    ) -> None:
        """Apply one clock-validated batch; override with a columnar plan.

        Unbuffered batches arrive from :meth:`ingest_batch`, buffered ones
        from :meth:`flush_buffer`: one plan either way, which is what
        keeps exact-mode buffering bit-identical to unbuffered ingestion.
        The fallback replays the batch through :meth:`_ingest` one record
        at a time, advancing the clock per record so nested sketches see
        exactly the sequence scalar :meth:`update` calls would produce.
        """
        for t, i, c in zip(times.tolist(), items.tolist(), counts.tolist()):  # sketchlint: disable=SL010 — scalar reference fallback
            self._ingest(i, c, t)
            self._clock = t

    @abstractmethod
    def _ingest(self, item: int, count: int, time: int) -> None:
        """Apply one clock-validated update."""

    @abstractmethod
    def point(self, item: int, s: float = 0, t: float | None = None) -> float:
        """Estimate ``f_item(s, t]``; ``t`` defaults to :attr:`now`."""

    @abstractmethod
    def persistence_words(self) -> int:
        """Extra space (machine words) used to make the sketch persistent.

        This is the quantity Section 6.2 plots: the recorded histories,
        excluding the ephemeral counter array.
        """

    def freeze(
        self, workers: int | None = None
    ) -> FrozenCountMin | FrozenPWCAMS | FrozenAMS | FrozenHeavyHitters:
        """Compile this sketch into a frozen columnar query snapshot.

        Delegates to :func:`repro.engine.frozen.freeze` (imported lazily:
        ``repro.engine`` depends on ``repro.core``, not the other way
        around).  The snapshot answers ``point`` / ``point_many`` /
        holistic queries bit-equal to the live path; see
        :mod:`repro.engine.frozen`.  ``workers`` sets the fork fan-out
        for table construction and ``point_many``.
        """
        from repro.engine.frozen import freeze

        return freeze(self, workers=workers)

    def _resolve_window(self, s: float, t: float | None) -> tuple[float, float]:
        # Every query funnels through here: land any buffered updates
        # first so answers never lag the ingested stream.
        self.flush_buffer()
        if t is None:
            t = self._clock
        elif t > self._clock:
            raise ValueError(
                f"window end {t} lies beyond the last update at "
                f"{self._clock}; queries cannot extrapolate past now"
            )
        if s < 0:
            s = 0  # nothing precedes time 0; clamp instead of extrapolating
        if s > t:
            raise ValueError(f"empty window: s={s} > t={t}")
        return s, t

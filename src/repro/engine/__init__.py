"""Frozen query serving over finalized persistent sketches.

Ingestion is the sketches' own columnar batch plan
(:meth:`~repro.core.base.PersistentSketch.ingest_batch`, bit-identical
to a loop of scalar updates).  This package is the read side:
:mod:`repro.engine.frozen`'s ``freeze(sketch)`` compiles a finalized
sketch into an immutable columnar snapshot that answers ``point`` /
``point_many`` / holistic queries bit-equal to the live path (asserted
in ``tests/test_frozen.py``) via vectorized predecessor search, and
:mod:`repro.engine.replay` applies WAL tails to a store during
recovery.
"""

from __future__ import annotations

from repro.engine.frozen import (
    FrozenAMS,
    FrozenCountMin,
    FrozenHeavyHitters,
    FrozenPWCAMS,
    FrozenShardedSketch,
    FrozenStoreView,
    attach_view,
    freeze,
    freeze_store,
    share_view,
)

__all__ = [
    "freeze",
    "freeze_store",
    "FrozenCountMin",
    "FrozenPWCAMS",
    "FrozenAMS",
    "FrozenHeavyHitters",
    "FrozenShardedSketch",
    "FrozenStoreView",
    "share_view",
    "attach_view",
]

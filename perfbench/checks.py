"""Correctness checks; every failed check counts toward ``error_rate``.

* :func:`answers` runs the fixed probe set against anything with the
  store's query signatures (a live :class:`~repro.store.SketchStore`, a
  :class:`~repro.engine.frozen.FrozenStoreView`, or a served client
  pinned to a routing mode), so two sides can be compared bit for bit.
* :func:`thm31_failures` checks point answers against exact truth with
  Theorem 3.1's bound ``eps * ||f_{s,t}||_1 + Delta``, where ``Delta``
  applies once per reconstructed window end (twice when ``s > 0``).

Joinable (AMS) answers are compared only within one process: the store
seeds the sampled AMS with ``hash(stream name)``, which Python salts per
process, so two processes fed the same input disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.eval import theory
from repro.streams import GroundTruth

from inputs import DELTA, Probes

#: Count-Min width of the default store (``SketchStore().width``).
WIDTH = 2048
DEPTH = 5
EPS = theory.eps_for_countmin_width(WIDTH)
PHI = 0.01


@dataclass
class Tally:
    """Operations attempted and failed, with the Thm 3.1 share apart."""

    attempted: int = 0
    failed: int = 0
    thm31_checked: int = 0
    thm31_failed: int = 0
    mismatches: int = 0
    late: int = 0  # writes over the latency limit while a backlog grew

    def add(self, other: "Tally") -> None:
        for key in vars(self):
            setattr(self, key, getattr(self, key) + getattr(other, key))

    def run(self, probe: Callable[[], list]) -> list:
        """Run one probe-set pass; every answer is one operation."""
        out = probe()
        self.attempted += len(out)
        return out

    def compare(self, left: list, right: list) -> None:
        """Unequal answer pairs fail (the operations are already counted)."""
        bad = sum(1 for a, b in zip(left, right) if a != b) + abs(
            len(left) - len(right)
        )
        self.failed += bad
        self.mismatches += bad

    def correct(self) -> bool:
        """No mismatch or error, and Thm 3.1 misses within ``e^-depth``;
        late writes lower ``ok_rate`` but are not wrong answers."""
        thm_ok = self.thm31_failed <= max(1, self.thm31_checked) * 2.718281828 ** -DEPTH
        return self.failed == self.thm31_failed + self.late and thm_ok


def answers(
    point: Callable[..., Any],
    heavy_hitters: Callable[..., Any],
    self_join_size: Callable[..., Any],
    probes: Probes,
) -> list:
    """Probe-set answers in a fixed order: points, then the urls heavy
    hitters and the clients self-join on every probe window."""
    out: list = []
    for name, items in probes.items.items():
        for s, t in probes.windows[name]:
            out.extend(("point", name, i, s, t, float(point(name, i, s, t))) for i in items)
    for s, t in probes.windows["urls"]:
        hits = heavy_hitters("urls", PHI, s, t)
        out.append(("hh", s, t, sorted((int(k), float(v)) for k, v in hits.items())))
    for s, t in probes.windows["clients"]:
        out.append(("sj", s, t, float(self_join_size("clients", s, t))))
    return out


def pinned(router: Any, mode: str, probes: Probes) -> list:
    """Probe-set answers through ``router`` (a ``ServingRuntime``, or a
    ``Client`` of a served one) pinned to routing ``mode``."""
    return answers(
        lambda n, i, s, t: router.point(n, i, s, t, mode=mode),
        lambda n, phi, s, t: router.heavy_hitters(n, phi, s, t, mode=mode),
        lambda n, s, t: router.self_join_size(n, s, t, mode=mode),
        probes,
    )


def thm31_failures(points: list, truth: dict[str, GroundTruth], tally: Tally) -> None:
    """Check ``("point", stream, item, s, t, answer)`` rows against truth.

    The rows' operations were counted when sent; a miss marks one of
    them failed."""
    for row in points:
        if row[0] != "point":
            continue
        _, name, item, s, t, answer = row
        exact = truth[name]
        bound = theory.countmin_point_error_bound(
            EPS, DELTA * (2 if s > 0 else 1), exact.window_l1(s, t)
        )
        tally.thm31_checked += 1
        if abs(answer - exact.frequency(item, s, t)) > bound:
            tally.failed += 1
            tally.thm31_failed += 1

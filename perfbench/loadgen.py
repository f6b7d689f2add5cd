"""Out-of-process serving: the daemon in a child process, two client threads.

:func:`serve_phase` starts ``serve_child.py`` on a runtime directory and
drives it over TCP from this process with two threads:

* a closed-loop reader cycling through a fixed, seeded mix: ``point``
  on historical windows (frozen-routed) and, a quarter of the time, at
  the live tail; ``point_many`` with 1,000 probes; ``heavy_hitters`` on
  ``urls`` and ``self_join_size`` on ``clients``;
* an open-loop writer sending single-stream ``ingest_batch`` calls on a
  fixed schedule.  Each batch is timed from when it was *due*, and the
  writer records how late it sent.  A backlog that keeps growing is
  flagged and its batches count as failed instead of being averaged.

For the phase, this process and the server are pinned to different
CPUs when the host allows more than one: the server gets a CPU of its
own, because checkpoints and cutovers need it.  Unpinned, threads
moving between CPUs made the read tail vary several-fold between runs.

After the load, a forced cutover moves the frozen view to the newest
checkpoint and the probe set is answered twice over the wire, pinned
``mode="frozen"`` and ``mode="live"``; the answers must be bit-equal,
and point answers must meet Theorem 3.1 against exact truth.  The
server must also have cut over in the background once per checkpoint
written while serving, with no background cutover error.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import cpus
from inputs import STREAMS, Inputs, Probes
from repro.server import Client

HERE = Path(__file__).resolve().parent

#: Writer schedule: WRITE_BATCH records every WRITE_INTERVAL_S seconds.
WRITE_BATCH = 5
WRITE_INTERVAL_S = 0.05
#: A batch acknowledged later than this after it was due missed the limit.
WRITE_LIMIT_S = 1.0
POINT_MANY_PROBES = 1000
CHILD_TIMEOUT_S = 60.0
#: ``SketchServer``'s default background cutover poll interval.
CUTOVER_POLL_S = 0.25


def writer_batches(seconds: float) -> int:
    """Writer batches a phase of ``seconds`` can send, with headroom."""
    return int(seconds / WRITE_INTERVAL_S) + 20


@dataclass
class ServeResult:
    """What one serve phase measured.  Its timings are per-layer figures:
    the reader's and writer's calls are spans, the writer's lateness is
    ``late_s``."""

    write_s: list[float] = field(default_factory=list)  # each batch, from when it was due
    late_s: list[float] = field(default_factory=list)
    backlog_growing: bool = False
    child_ready: dict = field(default_factory=dict)
    child_final: dict = field(default_factory=dict)
    tally: checks.Tally = field(default_factory=checks.Tally)


def _read_line(proc: subprocess.Popen, timeout: float) -> dict:
    """One JSON line from the child's stdout, or an error on timeout."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise TimeoutError("serving child did not answer in time")
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"serving child exited with code {proc.wait()}")
    return json.loads(line)


def horizons(flat: list[dict], upto: int) -> dict[str, int]:
    """Each stream's clock after the first ``upto`` records."""
    out: dict[str, int] = {}
    for rec in flat[:upto]:
        out[rec["stream"]] = rec["time"]
    return out


def ending_at(probes: Probes, clocks: dict[str, int]) -> Probes:
    """The probe set with every window cut to end at the stream's clock."""
    return Probes(
        items=probes.items,
        windows={
            name: [(min(s, clocks[name] // 2), clocks[name]) for s, _ in probes.windows[name]]
            for name in STREAMS
        },
    )


def covered_seq(directory: Path) -> int:
    pointer = json.loads((directory / "CHECKPOINT").read_text(encoding="utf-8"))
    return int(pointer["covered_seq"])


def reader_ops(seed: int, probes: Probes, seen: dict[str, np.ndarray]) -> list:
    """The reader's 200-op cycle: 147 historical points, 49 live-tail
    points, 2 ``point_many``, 1 ``heavy_hitters``, 1 ``self_join_size``."""
    rng = np.random.default_rng(seed + 7)
    ops: list = []
    for k in range(196):
        name = STREAMS[k % len(STREAMS)]
        item = probes.items[name][int(rng.integers(len(probes.items[name])))]
        s, t = probes.windows[name][k % len(probes.windows[name])]
        ops.append(("point", name, item, s, None if k % 4 == 3 else t))
    for name in ("urls", "ads"):
        probe_items = rng.choice(seen[name], size=POINT_MANY_PROBES).tolist()
        ops.append(("point_many", name, probe_items, probes.windows[name][0]))
    ops.append(("heavy_hitters", "urls", *probes.windows["urls"][0]))
    ops.append(("self_join_size", "clients", *probes.windows["clients"][0]))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _reader(
    port: int,
    ops: list,
    stop: threading.Event,
    samples: list,
    tally: checks.Tally,
) -> None:
    with Client(port=port, timeout=30.0) as client:
        k = 0
        while not stop.is_set():
            op = ops[k % len(ops)]
            k += 1
            verb = op[0]
            try:
                if verb == "point":
                    answer = client.point(op[1], op[2], op[3], op[4])
                elif verb == "point_many":
                    answer = client.point_many(op[1], op[2], op[3])
                elif verb == "heavy_hitters":
                    answer = client.heavy_hitters(op[1], checks.PHI, op[2], op[3])
                else:
                    answer = client.self_join_size(op[1], op[2], op[3])
            except Exception as exc:  # noqa: BLE001 — a failed read is counted, not fatal
                tally.attempted += 1
                tally.failed += 1
                print(f"perfbench: {verb} failed: {exc!r}", file=sys.stderr)
                continue
            tally.attempted += 1
            if verb == "point" and op[4] is not None and k % 7 == 0:
                samples.append(("point", op[1], op[2], op[3], op[4], answer))


def _writer(
    port: int,
    batches: list,
    stop: threading.Event,
    result: ServeResult,
    sent: list,
    tally: checks.Tally,
) -> None:
    with Client(port=port, timeout=30.0) as client:
        start = time.perf_counter()
        for k, batch in enumerate(batches):
            due = start + k * WRITE_INTERVAL_S
            pause = due - time.perf_counter()
            if pause > 0 and stop.wait(pause):
                break
            if stop.is_set():
                break
            sent_at = time.perf_counter()
            tally.attempted += 1
            try:
                applied = client.ingest_batch(batch)
            except Exception as exc:  # noqa: BLE001 — a failed write is counted, not fatal
                tally.failed += 1
                print(f"perfbench: ingest_batch failed: {exc!r}", file=sys.stderr)
                sent.append(None)
                continue
            acked_at = time.perf_counter()
            sent.append(batch)
            if applied != len(batch):
                tally.failed += 1
            result.late_s.append(sent_at - due)
            result.write_s.append(acked_at - due)


def _flag_backlog(result: ServeResult) -> None:
    """A writer still falling behind at the end had a growing backlog:
    its over-limit batches fail rather than being averaged in."""
    late = result.late_s
    if len(late) < 4:
        return
    half = len(late) // 2
    if late[-1] > WRITE_LIMIT_S and late[-1] > max(late[:half]):
        result.backlog_growing = True
        over = sum(1 for w in result.write_s if w > WRITE_LIMIT_S)
        result.tally.failed += over
        result.tally.late += over
        print(
            f"perfbench: BACKLOG GROWING — writer {late[-1]:.2f}s late at the end; "
            f"{over} batches over the {WRITE_LIMIT_S}s limit count as failed",
            file=sys.stderr,
        )


def serve_phase(
    root: Path,
    directory: Path,
    checkpoint_every: int,
    inputs: Inputs,
    seed: int,
    probes: Probes,
    seconds: float,
    spans_path: Path | None = None,
) -> ServeResult:
    """Serve ``directory`` from a child process and load it for ``seconds``.

    ``inputs.records`` must be exactly the records already durable in
    ``directory``; ``inputs.writes`` supplies the writer's batches.
    """
    result = ServeResult()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable,
        str(HERE / "serve_child.py"),
        str(directory),
        "--checkpoint-every",
        str(checkpoint_every),
    ]
    if spans_path is not None:
        command += ["--spans", str(spans_path)]
    base = len(inputs.records)
    hist = ending_at(probes, horizons(inputs.records, covered_seq(directory)))
    seen = {
        name: np.array([r["item"] for r in inputs.records if r["stream"] == name])
        for name in STREAMS
    }
    affinity = os.sched_getaffinity(0)
    proc = subprocess.Popen(
        command, cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    os.sched_setaffinity(0, {min(affinity)})
    try:
        result.child_ready = _read_line(proc, CHILD_TIMEOUT_S)
        cpus.pin_process(proc.pid, max(affinity))
        port = int(result.child_ready["port"])
        stop = threading.Event()
        samples: list = []
        sent: list = []
        tallies = [checks.Tally(), checks.Tally()]
        ops = reader_ops(seed, hist, seen)
        threads = [
            threading.Thread(
                target=_reader, args=(port, ops, stop, samples, tallies[0])
            ),
            threading.Thread(
                target=_writer,
                args=(port, inputs.writes, stop, result, sent, tallies[1]),
            ),
        ]
        for thread in threads:
            thread.start()
        stop.wait(seconds)
        stop.set()
        for thread in threads:
            thread.join(CHILD_TIMEOUT_S)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("client threads did not stop")
        for tally in tallies:
            result.tally.add(tally)
        _flag_backlog(result)
        # Let the background ticker pick up the last checkpoint, so the
        # forced cutover below finds nothing new in a healthy server.
        time.sleep(2 * CUTOVER_POLL_S)
        forced = _check_over_wire(port, inputs, base, sent, probes, samples, result.tally)
        proc.stdin.write("stop\n")
        proc.stdin.flush()
        result.child_final = _read_line(proc, CHILD_TIMEOUT_S)
        _check_cutovers(result, forced)
        proc.stdin.close()
        if proc.wait(CHILD_TIMEOUT_S) != 0:
            raise RuntimeError("serving child exited with an error")
    finally:
        os.sched_setaffinity(0, affinity)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for stream in (proc.stdin, proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()
    return result


def _check_cutovers(result: ServeResult, forced: bool) -> None:
    """One operation: besides the cutover at start and the forced one
    (``forced``: it swapped), the server cut over once per checkpoint
    written while serving, and no background cutover failed."""
    final = result.child_final
    expected = 1 + final["checkpoints"] + forced
    result.tally.attempted += 1
    if final["cutover_error"] is not None or final["cutovers"] < expected:
        result.tally.failed += 1
        print(
            f"perfbench: cutover check failed: {final['cutovers']} cutovers, "
            f"{expected} expected; last error {final['cutover_error']}",
            file=sys.stderr,
        )


def _check_over_wire(
    port: int,
    inputs: Inputs,
    base: int,
    sent: list,
    probes: Probes,
    samples: list,
    tally: checks.Tally,
) -> bool:
    """Frozen == live over the wire at the new frozen horizon, and every
    checked point answer within Theorem 3.1 of exact truth.  Returns
    whether the forced cutover swapped in a new view."""
    if any(batch is None for batch in sent):
        return False  # a lost write leaves seq -> record unknown; already failed
    flat = inputs.records + [rec for batch in sent for rec in batch]
    with Client(port=port, timeout=60.0) as client:
        tally.attempted += 1
        status = client.cutover()
        view_seq = int(status["view_seq"])
        at_view = ending_at(probes, horizons(flat, view_seq))
        frozen = tally.run(lambda: checks.pinned(client, "frozen", at_view))
        live = tally.run(lambda: checks.pinned(client, "live", at_view))
        tally.compare(frozen, live)
    truth = Inputs(records=flat).truth(view_seq)
    checks.thm31_failures(frozen, truth, tally)
    checks.thm31_failures(samples, Inputs(records=flat).truth(base), tally)
    return bool(status["swapped"])

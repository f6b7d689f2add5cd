"""End-to-end benchmark: durable ingest, restart, and served reads.

Run from the repository root::

    python3 perfbench/run.py --workload ingest_interleaved --seed 1 \\
        --seconds 55 --trace 0

Workloads (see ``README.md`` in this directory for why each exists):

* ``ingest_interleaved`` / ``ingest_bulk`` — rounds of durable
  ``IngestRuntime.ingest_batch`` over the same three streams (records
  mixed record by record, or in per-stream blocks), then ``close``,
  ``recover`` and ``frozen_view``, then reads through the server's
  router (``ServingRuntime``) on the recovered runtime, in process.

Every round draws its own inputs from a seed derived from ``--seed``
and the round number, so the same seed gives the same inputs, and a
run makes as many rounds as fit in ``--seconds`` (at least three).  Figures are medians over rounds (times), means over rounds
(space, disk) or pooled over rounds (latency percentiles).  With
``--trace 0`` the last stdout line is the end-to-end metrics; with
``--trace 1`` rounds alternate untraced/traced, one served phase
follows (the server in a child process, a reader and a writer over
TCP), and the last line holds the per-layer metrics, the tracing
overhead and the share of wall time the top-level spans leave
uncovered.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if not (ROOT / "src" / "repro").is_dir():
    print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import cpus  # noqa: E402
import loadgen  # noqa: E402
import spans  # noqa: E402
from inputs import BLOCK_UNIT, STREAMS, make_inputs, make_probes, make_store, round_seed  # noqa: E402
from repro.runtime import IngestRuntime  # noqa: E402
from repro.server import ServingRuntime  # noqa: E402


@dataclass(frozen=True)
class Workload:
    records: int  # ingested per round
    blocks: bool  # per-stream blocks of >= 1,000 records, else interleaved
    batch: int  # records per ingest_batch call
    checkpoint_every: int


WORKLOADS = {
    "ingest_interleaved": Workload(2300, blocks=False, batch=40, checkpoint_every=1000),
    "ingest_bulk": Workload(7500, blocks=True, batch=BLOCK_UNIT, checkpoint_every=3500),
}
#: Restarts per round (``recover``, then ``frozen_view``), each timed.
RESTARTS = 3
#: Timed ``frozen_view`` calls per restart: a restart costs 10-20 freezes,
#: and one sample each left the freeze median the noisiest figure.
FREEZES = 3
#: Seconds of reads per round.
READ_S = 1.0
MIN_ROUNDS = 3
#: A traced run alternates untraced and traced rounds: at least two pairs.
MIN_TRACED_ROUNDS = 4
#: The traced run's served phase: seconds of load, and the checkpoint
#: cadence while serving, so that checkpoints and cutovers fall in it
#: at the writer's fixed rate.
SERVE_S = 8.0
SERVE_CHECKPOINT_EVERY = 300
#: Rough seconds the served phase takes, set-up and checks included.
SERVE_BUDGET_S = 15.0


def more_rounds(done: int, begin: float, seconds: float, traced: bool) -> bool:
    """Whether to start another round: while half the mean round so far
    still fits before ``seconds`` are up, so a run ends within about
    half a round of ``seconds`` however fast the host is.  A traced run
    ends on a traced round."""
    if done < (MIN_TRACED_ROUNDS if traced else MIN_ROUNDS) or (traced and done % 2):
        return True
    elapsed = time.perf_counter() - begin
    return elapsed + elapsed / (2 * done) <= seconds


def dir_bytes(directory: Path) -> int:
    """Bytes of every regular file under ``directory``."""
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def stream_words(store) -> dict[str, int]:
    """§6.2 persistence words per stream, over all of its sketches."""
    out = {}
    for name in store.streams():
        state = store._state(name)
        out[name] = sum(
            sketch.persistence_words()
            for sketch in (state.point_sketch, state.hh_sketch, state.join_sketch)
            if sketch is not None
        )
    return out


def pct(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass
class RoundResult:
    setup_s: float
    ingest_s: float = 0.0
    acks: list[float] = field(default_factory=list)
    close_s: float = 0.0
    recover_s: list[float] = field(default_factory=list)
    freeze_s: list[float] = field(default_factory=list)
    space_words: int = 0
    stream_words: dict = field(default_factory=dict)
    disk_bytes: int = 0
    records: int = 0
    windows: list[tuple[float, float]] = field(default_factory=list)
    latencies: dict[str, list[float]] = field(default_factory=dict)
    reads: int = 0
    read_s: float = 0.0
    tally: checks.Tally = field(default_factory=checks.Tally)


def _timed(windows: list, fn, *args, **kwargs):
    """Call ``fn``, note its interval in ``windows``; returns (value, s)."""
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    end = time.perf_counter()
    windows.append((start, end))
    return value, end - start


def read_loop(ops: list, serving: ServingRuntime, seconds: float, out: RoundResult) -> list:
    """Closed-loop reads for ``seconds`` through the server's router on
    a recovered runtime: windowed reads end at the frozen horizon and
    are frozen-routed, live-tail points (``t=None``) are live-routed.
    Returns every 7th windowed point as a Theorem 3.1 sample."""
    samples = []
    k = 0
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds:
        op = ops[k % len(ops)]
        k += 1
        verb = op[0]
        start = time.perf_counter()
        if verb == "point":
            answer = serving.point(*op[1:])
        elif verb == "point_many":
            answer = serving.point_many(*op[1:])
        elif verb == "heavy_hitters":
            answer = serving.heavy_hitters(op[1], checks.PHI, op[2], op[3])
        else:
            answer = serving.self_join_size(*op[1:])
        out.latencies.setdefault(verb, []).append(time.perf_counter() - start)
        if verb == "point" and op[4] is not None and k % 7 == 0:
            samples.append(("point", *op[1:], float(answer)))
    out.read_s = time.perf_counter() - begin
    out.reads = k
    out.tally.attempted += k
    return samples


def ingest_round(
    work: Path, name: str, spec: Workload, seed: int
) -> RoundResult:
    """One round: set up, ingest durably, close, recover, freeze, check,
    then read through the server's router."""
    start = time.perf_counter()
    inputs = make_inputs(seed, spec.records, spec.blocks)
    probes = make_probes(seed, inputs.records, spec.records)
    directory = work / name
    runtime = IngestRuntime.create(
        directory, make_store(), checkpoint_every=spec.checkpoint_every
    )
    out = RoundResult(setup_s=time.perf_counter() - start, records=spec.records)
    tally = out.tally

    records = inputs.records
    begin = time.perf_counter()
    for lo in range(0, len(records), spec.batch):
        chunk = records[lo : lo + spec.batch]
        sent = time.perf_counter()
        applied = runtime.ingest_batch(chunk)
        out.acks.append(time.perf_counter() - sent)
        tally.attempted += 1
        if applied != len(chunk):
            tally.failed += 1
    out.ingest_s = time.perf_counter() - begin
    out.windows.append((begin, begin + out.ingest_s))

    store = runtime.store
    live = tally.run(lambda: checks.answers(store.point, store.heavy_hitters, store.self_join_size, probes))
    _, out.close_s = _timed(out.windows, runtime.close)
    for restart in range(RESTARTS):
        if restart:
            _, took = _timed(out.windows, recovered.close)
            out.close_s += took
        recovered, took = _timed(
            out.windows, IngestRuntime.recover, directory,
            checkpoint_every=spec.checkpoint_every,
        )
        out.recover_s.append(took)
        for k in range(FREEZES):
            # frozen_view() is memoized on (applied_seq, workers): asking
            # in turn for the default width and for workers=1, the same
            # serial freeze, rebuilds the view every time.
            view, took = _timed(out.windows, recovered.frozen_view, workers=1 if k % 2 else None)
            out.freeze_s.append(took)

    rstore = recovered.store
    again = tally.run(lambda: checks.answers(rstore.point, rstore.heavy_hitters, rstore.self_join_size, probes))
    tally.compare(live, again)
    frozen = tally.run(lambda: checks.answers(view.point, view.heavy_hitters, view.self_join_size, probes))
    tally.compare(again, frozen)
    many = []
    for stream in STREAMS:
        for window in probes.windows[stream]:
            items = probes.items[stream]
            values = view.point_many(stream, items, [window] * len(items))
            many.extend(("point", stream, i, *window, float(v)) for i, v in zip(items, values))
    tally.attempted += len(many)
    tally.compare([row for row in live if row[0] == "point"], many)
    truth = inputs.truth(spec.records)
    checks.thm31_failures(live, truth, tally)

    seen = {
        stream: np.array([r["item"] for r in records if r["stream"] == stream])
        for stream in STREAMS
    }
    # The server's start-up cutover: open the newest checkpoint, freeze
    # it.  Windowed reads end at its horizon, so they are frozen-routed,
    # and there frozen answers must equal live ones.
    serving = ServingRuntime(recovered)
    tally.attempted += 1
    if not serving.maybe_cutover(force=True)["swapped"]:
        tally.failed += 1
    at_view = loadgen.ending_at(probes, loadgen.horizons(records, loadgen.covered_seq(directory)))
    tally.compare(
        tally.run(lambda: checks.pinned(serving, "frozen", at_view)),
        tally.run(lambda: checks.pinned(serving, "live", at_view)),
    )
    ops = loadgen.reader_ops(seed, at_view, seen)
    checks.thm31_failures(read_loop(ops, serving, READ_S, out), truth, tally)

    out.space_words = rstore.persistence_words()
    out.stream_words = stream_words(rstore)
    serving.close()
    out.disk_bytes = dir_bytes(directory)
    return out


def serve_round(
    work: Path, spec: Workload, seed: int, tracer: spans.Tracer, spans_path: Path
) -> loadgen.ServeResult:
    """The traced run's served phase: durably ingest one round's records,
    then serve the directory from a child process and load it."""
    inputs = make_inputs(
        seed, spec.records, spec.blocks,
        write_batches=loadgen.writer_batches(SERVE_S), write_batch=loadgen.WRITE_BATCH,
    )
    probes = make_probes(seed, inputs.records, spec.records)
    directory = work / "served"
    runtime = IngestRuntime.create(directory, make_store(), checkpoint_every=spec.checkpoint_every)
    for lo in range(0, spec.records, spec.batch):
        runtime.ingest_batch(inputs.records[lo : lo + spec.batch])
    runtime.close()
    with spans.installed(tracer):
        return loadgen.serve_phase(
            ROOT, directory, SERVE_CHECKPOINT_EVERY, inputs, seed, probes, SERVE_S, spans_path,
        )


# --------------------------------------------------------------------- #
# End-to-end metrics
# --------------------------------------------------------------------- #


def tails(label: str, values: list[float]) -> None:
    """Print a latency distribution's upper percentiles to stderr."""
    marks = (50, 90, 95, 98, 99, 99.9)
    shown = " ".join(f"p{m}={pct(values, m) * 1e3:.3f}" for m in marks)
    print(f"perfbench: {label} ms ({len(values)} samples): {shown}", file=sys.stderr)


def end_to_end(rounds: list[RoundResult]) -> tuple[dict[str, float], checks.Tally]:
    """End-to-end figures and the run's operation tally."""
    median = statistics.median
    tally = checks.Tally()
    for r in rounds:
        tally.add(r.tally)
    acks = [a for r in rounds for a in r.acks]
    # A round's p99 ack is its slowest checkpoint's: pooled over the run
    # it would be one of a handful of such acks, so take it per round
    # and report the median round.
    ack_p99 = median(pct(r.acks, 99) for r in rounds) * 1e3
    points = [x for r in rounds for x in r.latencies["point"]]
    many = [x for r in rounds for x in r.latencies["point_many"]]
    tails("ack", acks)
    tails("point", points)
    metrics = {
        "setup_s": median(r.setup_s for r in rounds),
        "ingest_rps": sum(r.records for r in rounds) / sum(r.ingest_s for r in rounds),
        "ack_p50_ms": pct(acks, 50) * 1e3,
        "ack_p99_ms": ack_p99,
        "recover_s": median(x for r in rounds for x in r.recover_s),
        "freeze_s": median(x for r in rounds for x in r.freeze_s),
        "space_words": statistics.fmean(r.space_words for r in rounds),
        "disk_bytes_per_record": statistics.fmean(r.disk_bytes / r.records for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "read_qps": qps(rounds),
        "point_p50_ms": pct(points, 50) * 1e3,
        "point_p99_ms": pct(points, 99) * 1e3,
        "point_many_p50_ms": pct(many, 50) * 1e3,
        # Closed loop: each batch is due when the previous one is acked.
        "write_p50_ms": pct(acks, 50) * 1e3,
        "write_p99_ms": ack_p99,
        "ok_rate": 1.0 - tally.failed / max(tally.attempted, 1),
    }
    return metrics, tally


# --------------------------------------------------------------------- #
# Per-layer metrics (traced run)
# --------------------------------------------------------------------- #

#: Ingest-side spans reported as "<span>.s", seconds per round.
TIMED = (
    "runtime.wal.append_many", "runtime.checkpoint", "runtime.recover",
    "runtime.fsck", "runtime.check_store", "store.update_batch", "store.save",
    "store.open", "io.save", "io.load", "core.countmin.ingest_batch",
    "core.heavy_hitters.ingest_batch", "core.ams.ingest_batch",
    "hashing.buckets_many", "hashing.signs_many", "pla.feed_many",
    "engine.replay", "engine.freeze_store", "engine.frozen.point_many",
)
#: Ingest-side spans also reported as "<span>.calls" per round.
COUNTED = (
    "runtime.ingest_batch", "store.update_batch", "core.countmin.ingest_batch",
    "core.heavy_hitters.ingest_batch", "core.ams.ingest_batch",
    "hashing.buckets_many", "pla.feed_many",
)
READ_VERBS = ("point", "point_many", "heavy_hitters", "self_join_size")
VERBS = READ_VERBS + ("ingest_batch",)


def layer_metrics(
    core: list, rounds: int, server: list, client: list, serve: loadgen.ServeResult, words: dict
) -> dict[str, float]:
    """Per-layer figures: ingest-side layers per traced round of the
    process holding the store (``core`` spans); server-side layers over
    the served phase (``server`` spans from the child, ``client`` spans
    from the load generator)."""
    summary = spans.summarize(core)
    zero = spans.Summary(0, 0.0, 0.0, 0)

    def get(name: str) -> spans.Summary:
        return summary.get(name, zero)

    out: dict[str, float] = {}
    for span in TIMED:
        out[f"{span}.s"] = get(span).total_s / rounds
    for span in COUNTED:
        out[f"{span}.calls"] = get(span).calls / rounds
    out["runtime.ingest_batch.self_s"] = get("runtime.ingest_batch").self_s / rounds
    out["runtime.wal.fsyncs"] = get("runtime.wal.fsync").calls / rounds
    out["io.fsyncs"] = get("io.fsync").calls / rounds
    out["runtime.checkpoint.count"] = get("runtime.checkpoint").calls / rounds
    batches = get("store.update_batch")
    out["store.update_batch.records_per_call"] = batches.size / max(batches.calls, 1)
    out["io.checkpoint_bytes"] = get("io.save").size / rounds
    out["engine.replay.records"] = get("engine.replay").size / rounds
    for stream in STREAMS:
        out[f"persistence.words.{stream}"] = words[stream]

    served = spans.summarize(server)
    by_id = {s.span_id: s for s in server}
    for verb in VERBS:
        out[f"server.serving.{verb}.s"] = served.get(f"server.serving.{verb}", zero).total_s
    cutover = served.get("server.serving.maybe_cutover", zero)
    out["server.serving.maybe_cutover.s"] = cutover.total_s
    out["server.cutover.swapped_share"] = cutover.size / max(cutover.calls, 1)
    reads = sum(served.get(f"server.serving.{v}", zero).calls for v in READ_VERBS)
    frozen = sum(
        1
        for s in server
        if s.name.startswith("engine.frozen.")
        and s.parent in by_id
        and by_id[s.parent].name.startswith("server.serving.")
    )
    out["server.route.frozen_share"] = frozen / max(reads, 1)
    decode = served.get("server.protocol.decode", zero)
    encode = served.get("server.protocol.encode", zero)
    out["server.protocol.decode.s"] = decode.total_s
    out["server.protocol.encode.s"] = encode.total_s
    out["server.protocol.bytes"] = decode.size + encode.size

    durations: dict[str, list[float]] = {}
    for s in client:
        durations.setdefault(s.name, []).append(s.end - s.start)
    for s in server:
        if s.name.startswith("server.dispatch."):
            durations.setdefault(s.name, []).append(s.end - s.start)
    for verb in VERBS:
        rtt = durations.get(f"client.{verb}", [0.0])
        dispatch = durations.get(f"server.dispatch.{verb}", [0.0])
        out[f"server.wait_s.{verb}"] = statistics.fmean(rtt) - statistics.fmean(dispatch)
    for verb in ("heavy_hitters", "self_join_size"):
        out[f"client.{verb}.p50_ms"] = pct(durations.get(f"client.{verb}", [0.0]), 50) * 1e3
    late = serve.late_s
    out["loadgen.write_late_ms"] = statistics.fmean(late) * 1e3 if late else 0.0
    return out


def covered(tracer_spans: list, windows: list[tuple[float, float]]) -> float:
    """Seconds of root spans that fall inside the timed windows."""
    total = 0.0
    for s in tracer_spans:
        if s.parent is not None:
            continue
        if any(lo <= s.start and s.end <= hi for lo, hi in windows):
            total += s.end - s.start
    return total


# --------------------------------------------------------------------- #
# Workload runners
# --------------------------------------------------------------------- #


def run(work: Path, name: str, args) -> tuple[dict, checks.Tally]:
    spec = WORKLOADS[name]
    tracer = spans.Tracer() if args.trace else None
    rounds, flags, covered_s = [], [], 0.0
    # The traced run's served phase comes on top of its rounds.
    budget = args.seconds - (SERVE_BUDGET_S if tracer else 0.0)
    begin = time.perf_counter()
    k = 0
    while more_rounds(k, begin, budget, tracer is not None):
        trace_round = tracer is not None and k % 2 == 1
        # A traced round repeats the inputs of the untraced round before
        # it, so the tracing overhead compares like with like.
        seed = round_seed(args.seed, k // 2 if tracer else k)
        with spans.installed(tracer if trace_round else None), cpus.hopping():
            result = ingest_round(work, f"round-{k}", spec, seed)
        if trace_round:
            covered_s += covered(tracer.spans, result.windows)
        shutil.rmtree(work / f"round-{k}", ignore_errors=True)
        rounds.append(result)
        flags.append(trace_round)
        print(f"perfbench: {name} round {k + 1}: {result.records / result.ingest_s:.0f} rec/s, "
              f"ack p99 {pct(result.acks, 99) * 1e3:.0f} ms, "
              f"recover {statistics.median(result.recover_s):.2f}s, freeze "
              f"{' '.join(f'{x * 1e3:.0f}' for x in result.freeze_s)} ms, "
              f"{qps([result]):.0f} reads/s", file=sys.stderr)
        k += 1

    metrics, tally = end_to_end(rounds)
    if tracer is None:
        return metrics, tally
    # The server-side layers need a served phase over TCP.
    core = list(tracer.spans)
    path = work / "spans-served.jsonl"
    served = serve_round(work, spec, round_seed(args.seed, 0), tracer, path)
    tally.add(served.tally)
    walls = [r.ingest_s + r.close_s + sum(r.recover_s) + sum(r.freeze_s) for r in rounds]
    traced_walls = [w for w, f in zip(walls, flags) if f]
    plain_walls = [w for w, f in zip(walls, flags) if not f]
    layers = layer_metrics(
        core, len(traced_walls), spans.load_spans(path), tracer.spans[len(core):],
        served, rounds[-1].stream_words,
    )
    layers["trace.overhead_share"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1
    layers["trace.uncovered_share"] = 1 - covered_s / sum(traced_walls)
    return layers, tally


def qps(phases: list) -> float:
    """Reads per second of reading, over rounds."""
    return sum(p.reads for p in phases) / sum(p.read_s for p in phases)


def main() -> int:
    parser = argparse.ArgumentParser(description="End-to-end ingest/restart/read benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = config["per_layer" if args.trace else "end_to_end"]
    work = ROOT / ".perfbench_work" / f"run-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        values, tally = run(work, args.workload, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(
        f"perfbench: {tally.attempted} operations, {tally.failed} failed "
        f"({tally.mismatches} mismatches, {tally.thm31_failed}/{tally.thm31_checked} "
        f"Thm 3.1 misses); joinable AMS sampling seed this process: "
        f"{hash('clients') & 0x7FFFFFFF}",
        file=sys.stderr,
    )
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": tally.correct(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

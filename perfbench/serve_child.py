"""Benchmark-owned server launcher: recover a runtime directory and serve it.

Mirrors ``repro serve DIR --resume`` with the default settings users get
(``query_workers=0``, no update buffer, default cutover cadence), plus
what the benchmark needs to see inside the serving process:

* one JSON line on stdout once listening: the ``port``;
* on a ``stop`` line (or EOF) on stdin: a graceful stop, then one JSON
  line with the checkpoints written while serving, the number of
  cutovers and the last background cutover error, if any.

With ``--spans PATH`` the launcher installs :mod:`spans` wrappers before
recovering and writes every span to ``PATH`` after stopping.

Usage: ``python perfbench/serve_child.py DIR --checkpoint-every N
[--spans PATH]`` with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", type=Path)
    parser.add_argument("--checkpoint-every", type=int, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    tracer = None
    if args.spans is not None:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    from repro.runtime import IngestRuntime
    from repro.server import ServingRuntime, SketchServer

    runtime = IngestRuntime.recover(args.directory, checkpoint_every=args.checkpoint_every)
    serving = ServingRuntime(runtime)
    serving.maybe_cutover(force=True)
    base_checkpoints = runtime.stats.checkpoints
    server = SketchServer(serving)
    server.start()
    print(json.dumps({"port": server.address[1]}), flush=True)
    for line in sys.stdin:
        if line.strip() == "stop":
            break
    checkpoints = runtime.stats.checkpoints - base_checkpoints
    server.stop()
    result = {
        "checkpoints": checkpoints,
        "cutovers": serving.cutovers,
        "cutover_error": repr(server.last_cutover_error)
        if server.last_cutover_error
        else None,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

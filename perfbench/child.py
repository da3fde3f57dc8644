"""One benchmark job in a fresh interpreter.

Usage: python3 perfbench/child.py '<json spec>'

The spec names the commands to run through ``trailsum.cli.main``, the input
graph files to write first, and whether to trace.  The child imports the
package from the checkout's ``src``, writes the inputs, notes when it is
ready, then runs each command with stdout going to a SHA-256 sink and
stderr captured.  Its last stdout line is one JSON object: the ready time on
the monotonic clock, per-command exit code, digest, first and last stdout
line and wall time, the peak RSS, and with tracing the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class DigestSink(io.RawIOBase):
    """A write-only byte stream that keeps the SHA-256 and the edge lines."""

    def __init__(self):
        super().__init__()
        self.sha = hashlib.sha256()
        self.size = 0
        self.head = b""
        self.tail = b""

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        data = bytes(data)
        self.sha.update(data)
        self.size += len(data)
        if b"\n" not in self.head:
            self.head += data[:512]
        self.tail = (self.tail + data)[-512:]
        return len(data)

    def lines(self) -> tuple[str, str]:
        first = self.head.split(b"\n", 1)[0]
        rest = self.tail.rstrip(b"\n").rsplit(b"\n", 1)
        return first.decode("utf-8", "replace"), rest[-1].decode("utf-8", "replace")


def run_command(main, argv: list[str]) -> dict:
    sink = DigestSink()
    out = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        start = time.perf_counter()
        rc = main(argv)
        out.flush()
        seconds = time.perf_counter() - start
    finally:
        sys.stdout, sys.stderr = saved
    first, last = sink.lines()
    return {"argv": argv, "rc": rc, "sha256": sink.sha.hexdigest(), "bytes": sink.size,
            "first": first, "last": last, "seconds": seconds,
            "stderr": err.getvalue()[-2000:] if rc else ""}


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    import trailsum
    from trailsum import cli, digraph
    if Path(trailsum.__file__).resolve().parent != SRC / "trailsum":
        print(f"imported trailsum from {trailsum.__file__}, not {SRC}", file=sys.stderr)
        return 2
    for path, (n, mbar) in spec["inputs"].items():
        digraph.write_graph_file(digraph.make_gn(n, mbar), path)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    tracer = None
    entry = cli.main
    if spec["trace"]:
        from tracing import LAYERS, ROOT_SPAN, Tracer
        tracer = Tracer(spec["run_id"])
        tracer.install({name: importlib.import_module(f"trailsum.{name}") for name in LAYERS})

        def entry(argv):
            return tracer.timed(ROOT_SPAN, cli.main, argv)

    commands = [run_command(entry, argv) for argv in spec["commands"]]
    result = {"ready": ready, "commands": commands,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_spans(spec["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

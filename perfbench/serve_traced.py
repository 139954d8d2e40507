"""``repro serve`` with the benchmark's layer spans installed.

Usage (from the repository root, ``PYTHONPATH=src``)::

    PERFBENCH_TRACE_DIR=DIR python3 perfbench/serve_traced.py serve ARGS...

Wraps the layer boundaries listed in ``tracing.install``, then hands the
arguments to the CLI's ``main``.  SIGTERM ends the server through the
CLI's own shutdown path, so the spans are written to
``DIR/server-<pid>.json`` at exit (pool workers write their own files).
"""

import time

ENTRY = time.monotonic()

import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Recorder, install  # noqa: E402


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    rec = Recorder()
    install(rec)
    imported = time.monotonic()
    rec.record("python.import", ENTRY, imported, imported - ENTRY)
    from repro.cli import main as cli_main

    # the single-process server has no SIGTERM handler of its own (the
    # default action would skip the dump); the pool path installs its own
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return cli_main(sys.argv[1:])
    finally:
        trace_dir = Path(os.environ["PERFBENCH_TRACE_DIR"])
        rec.dump(trace_dir / f"server-{os.getpid()}.json", "server")


if __name__ == "__main__":
    raise SystemExit(main())

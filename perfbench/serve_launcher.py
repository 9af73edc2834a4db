"""Run the ``repro`` command line in this process, optionally traced.

``python3 -m perfbench.serve_launcher [--trace-out FILE] serve --http ...``
behaves exactly like ``python -m repro serve --http ...``.  With
``--trace-out`` it first wraps the serving layer's public functions (see
``layers.SERVER``) and, once the server has drained and returned (SIGINT),
writes the spans it kept in memory to ``FILE`` as one JSON list.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    # The benchmark stops the server with SIGINT.  A process started with
    # SIGINT ignored (as background jobs of a non-interactive shell are)
    # passes that on, and Python then never raises KeyboardInterrupt, so the
    # server would not drain; take the default handler back.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = Path(argv[1]), argv[2:]

    from repro.cli import main as repro_main

    if trace_out is None:
        return repro_main(argv)

    from perfbench import layers, tracing

    tracer = tracing.Tracer()
    restore = layers.install(tracer, layers.SERVER)
    try:
        return repro_main(argv)
    finally:
        restore()
        trace_out.write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

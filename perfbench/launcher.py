"""Start a ``repro serve`` daemon for the ``ops-fleet`` workload.

Usage::

    python3 perfbench/launcher.py ROOT SOCKET TRACE STATE_OUT

Runs :func:`repro.service.server.serve` over *ROOT* (``max_active=8``,
default slice and checkpoint cadence) bound to *SOCKET*.  With
``TRACE=1`` the benchmark's span wrappers are installed first, and when
the daemon stops after a ``shutdown`` verb the span aggregates are
written to *STATE_OUT* (JSON) and the spans to ``STATE_OUT`` + ``.npz``.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    root, socket_path, trace, state_out = argv
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    store = None
    if trace == "1":
        import tracing

        store = tracing.SpanStore()
        tracing.install(store)
    from repro.service.server import serve

    t0 = time.perf_counter()
    serve(root, max_active=8, socket_path=socket_path)
    wall_s = time.perf_counter() - t0
    if store is not None:
        state = store.state()
        state["wall_s"] = wall_s
        store.dump(state_out + ".npz")
        tmp = state_out + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(state, fh)
        os.replace(tmp, state_out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

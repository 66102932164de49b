"""Traced ``repro-serve``: the real entry point with layer wrappers installed.

Usage::

    python3 perfbench/bench_server.py SPANS_JSON [repro-serve arguments ...]

Installs the timing wrappers of :mod:`bench_layers` (serving layers
included), runs :func:`repro.service.server.main` unchanged, and after the
graceful SIGTERM drain writes every recorded span to *SPANS_JSON*.  The
untraced runs launch ``python -m repro.service`` directly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import bench_layers
    from bench_trace import Tracer
    from repro.service import server

    spans_path, serve_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    bench_layers.install(tracer, serving=True)
    try:
        code = server.main(serve_args)
    finally:
        tracer.restore()
        spans_path.write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

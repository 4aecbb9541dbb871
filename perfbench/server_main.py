"""The benchmark's server launcher: ``create_server`` in its own process.

Usage::

    python3 perfbench/server_main.py --store DIR --policy FILE [--trace-out FILE --hot FILE]

Prints the bound URL as its first stdout line, serves until its stdin closes,
then stops the server and prints one JSON line with its peak RSS.  With
``--trace-out`` the span wrappers are installed first (the store behind a
delegating traced backend, the serving entry points wrapped, one root span
per request tagged with its request class) and the spans are written to that
file on exit.  Without it the server is exactly ``create_server(store, policy)``
with default caches.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from urllib.parse import unquote, urlsplit

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from common import peak_rss_mb  # noqa: E402


def request_class(path: str, hot: set) -> str:
    """``metadata``, ``healthz``, ``view_hot``, ``view_cold`` or ``other``."""
    segments = [unquote(part) for part in urlsplit(path).path.split("/") if part]
    if segments == ["healthz"]:
        return "healthz"
    if len(segments) == 2 and segments[0] == "releases":
        return "metadata"
    if len(segments) == 4 and segments[0] == "releases" and segments[2] == "views":
        return "view_hot" if segments[1] in hot else "view_cold"
    return "other"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", required=True)
    parser.add_argument("--policy", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--hot")
    args = parser.parse_args()

    from repro.serving.server import create_server

    tracer = None
    store = args.store
    if args.trace_out:
        import itertools

        from spans import Tracer, install_serving_wrappers, traced_backend

        from repro.core.store import DirectoryBackend, ReleaseStore
        from repro.serving.server import DEFAULT_CACHE_SIZE, ReleaseRequestHandler

        tracer = Tracer()
        install_serving_wrappers(tracer)
        store = ReleaseStore(
            traced_backend(DirectoryBackend(args.store), tracer, "dir"), cache_size=DEFAULT_CACHE_SIZE
        )
        hot = set(json.loads(Path(args.hot).read_text()))
        sequence = itertools.count()
        handle_get = ReleaseRequestHandler.do_GET

        def traced_get(handler) -> None:
            phase = handler.headers.get("X-Bench-Phase", "load")
            op = f"{phase}:{request_class(handler.path, hot)}:{next(sequence)}"
            with tracer.operation(op):
                handle_get(handler)

        ReleaseRequestHandler.do_GET = traced_get

    server = create_server(store, args.policy).start()
    print(server.url, flush=True)
    try:
        sys.stdin.read()
    finally:
        server.stop()
        if tracer is not None:
            Path(args.trace_out).write_text(json.dumps(tracer.export()))
        print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``python -m repro.serve`` — run the evaluation server from the shell.

Example::

    python -m repro.serve --port 0 --workers 1 --max-models 2 \
        --cache-dir /tmp/serve_cache

``--port 0`` binds an ephemeral port; the actual address is announced on
stdout as ``serving on HOST:PORT`` (and flushed immediately) so wrapping
harnesses — the serve benchmark, shell scripts — can parse it.  The server
runs until interrupted (Ctrl-C) or terminated (SIGTERM); either way it stops
the service and terminates and joins its worker processes before exiting.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys
from typing import Optional, Sequence

from repro.serve.server import EvalServer, EvalService, ServeConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Long-lived concurrent evaluation server over repro.api",
    )
    defaults = ServeConfig()
    parser.add_argument("--host", default=defaults.host)
    parser.add_argument(
        "--port", type=int, default=defaults.port, help="0 binds an ephemeral port"
    )
    parser.add_argument(
        "--workers", type=int, default=defaults.workers,
        help="worker processes, each with its own execution context; "
        "N distinct requests run min(N, workers) at a time",
    )
    parser.add_argument(
        "--max-models", type=int, default=defaults.max_models,
        help="LRU bound on resident pre-trained models (one per profile) "
        "in each worker process",
    )
    parser.add_argument(
        "--queue-size", type=int, default=defaults.queue_size,
        help="execution queue bound; submits beyond it are rejected",
    )
    parser.add_argument(
        "--timeout", type=float, default=defaults.default_timeout_s,
        help="default blocking-wait bound in seconds",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="cache directory (sets REPRO_CACHE_DIR: pre-trained checkpoints "
        "and the content-addressed result store live here)",
    )
    return parser


async def _run(config: ServeConfig) -> None:
    server = EvalServer(EvalService(config))
    await server.start()
    # SIGTERM cancels serving the way Ctrl-C does, so the finally below
    # still stops the service and joins its worker processes.
    asyncio.get_running_loop().add_signal_handler(
        signal.SIGTERM, asyncio.current_task().cancel
    )
    for sock in server.sockets:
        host, port = sock.getsockname()[:2]
        print(f"serving on {host}:{port}", flush=True)
    try:
        await server.serve_forever()
    finally:
        await server.stop()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.cache_dir:
        os.environ["REPRO_CACHE_DIR"] = args.cache_dir
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_models=args.max_models,
        queue_size=args.queue_size,
        default_timeout_s=args.timeout,
    )
    try:
        asyncio.run(_run(config))
    except (KeyboardInterrupt, asyncio.CancelledError):
        print("interrupted, shutting down", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One distributed grid worker as a process: ``python -m repro.distributed``.

Start N of these (any mix of hosts sharing/syncing the store directory)
and they cooperatively drain the suite::

    python -m repro.distributed --experiments table1 fig2 --profile fast \\
        --store /shared/store --num-shards 4 --shard-index 0

    python -m repro.distributed --specs suite.json --store ./store

The worker exits 0 once every scenario of the suite has a result in the
store — no matter which worker produced it — and 1 when the remaining
scenarios have all failed locally with no live claimant left.  See
:mod:`repro.distributed` for the lease/steal protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.worker_env import pin_worker_threads


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.distributed",
        description="Run one lease-based work-stealing worker over a shared result store.",
    )
    suite = parser.add_argument_group("suite (one of)")
    suite.add_argument(
        "--experiments",
        nargs="+",
        metavar="ID",
        default=None,
        help="registered experiment identifiers (see `python -m repro.experiments list`), or `all`",
    )
    suite.add_argument(
        "--specs",
        default=None,
        metavar="FILE",
        help="JSON file holding a list of scenario-spec dicts (ScenarioSpec.as_dict form)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="shared store directory (default: <cache-dir>/runner)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="override the cache directory (default: $REPRO_CACHE_DIR or ./.repro_cache)",
    )
    parser.add_argument("--profile", "-p", default=None, help="experiment profile (default: fast)")
    parser.add_argument(
        "--engine",
        "-e",
        default=None,
        help="simulation engine pin for every scenario (reference | vectorized)",
    )
    parser.add_argument("--owner", default=None, help="worker identity recorded in lease files")
    parser.add_argument(
        "--ttl",
        type=float,
        default=None,
        metavar="S",
        help="lease time-to-live; a worker silent this long is presumed dead (default: 60)",
    )
    parser.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="S",
        help="sleep between passes while other workers hold all remaining leases",
    )
    parser.add_argument(
        "--shard-index",
        type=int,
        default=None,
        help="this worker's shard (0-based); its affine scenarios are visited first",
    )
    parser.add_argument(
        "--num-shards",
        type=int,
        default=None,
        help="total shard count for deterministic affinity (give with --shard-index)",
    )
    parser.add_argument(
        "--max-scenarios",
        type=int,
        default=None,
        metavar="K",
        help="stop after executing K scenarios (testing/budgeting; default: drain fully)",
    )
    return parser


def _build_grid(args: argparse.Namespace):
    from repro.experiments.runner.spec import ScenarioGrid, ScenarioSpec

    if (args.specs is None) == (args.experiments is None):
        raise SystemExit("give exactly one of --specs FILE or --experiments ID...")
    if args.specs is not None:
        with open(args.specs, encoding="utf-8") as handle:
            payloads = json.load(handle)
        if not isinstance(payloads, list):
            raise SystemExit(f"{args.specs}: expected a JSON list of spec dicts")
        specs = tuple(ScenarioSpec.from_dict(payload) for payload in payloads)
        return ScenarioGrid(name=os.path.basename(args.specs), specs=specs)

    from repro.experiments.profiles import get_profile
    from repro.experiments.registry import suite_grid

    try:
        return suite_grid(
            args.experiments,
            profile=get_profile(args.profile),
            engine=args.engine,
            name="work-suite",
        )
    except KeyError as error:
        raise SystemExit(str(error).strip('"').strip("'"))


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.cache_dir:
        os.environ["REPRO_CACHE_DIR"] = os.path.abspath(args.cache_dir)

    from repro.distributed.lease import DEFAULT_TTL_S
    from repro.distributed.worker import GridWorker
    from repro.experiments.runner.executor import GridExecutionError
    from repro.experiments.runner.store import ResultStore

    grid = _build_grid(args)
    store = ResultStore(os.path.abspath(args.store) if args.store else None)
    worker = GridWorker(
        grid,
        store,
        owner=args.owner,
        ttl=args.ttl if args.ttl is not None else DEFAULT_TTL_S,
        poll_s=args.poll,
        shard_index=args.shard_index,
        num_shards=args.num_shards,
    )
    print(
        f"worker {worker.owner}: draining {len(grid)} scenario(s) of {grid.name!r} "
        f"in {store.root}",
        flush=True,
    )
    try:
        report = worker.drain(max_scenarios=args.max_scenarios)
    except GridExecutionError as error:
        print(f"worker {worker.owner}: {error}", file=sys.stderr, flush=True)
        return 1
    print(report.summary(), flush=True)
    return 0


if __name__ == "__main__":
    # Before main() imports the worker, and with it numpy.
    pin_worker_threads()
    sys.exit(main())

"""Command-line interface to the experiment registry and scenario runner.

Usage (module form, with ``src`` on ``PYTHONPATH``)::

    python -m repro.experiments list
    python -m repro.experiments run all --profile fast --workers 4
    python -m repro.experiments run table1 table2 --engine vectorized
    python -m repro.experiments run fig2 --no-resume
    python -m repro.experiments work all --profile fast --store /shared/store
    python -m repro.experiments merge hostA/store hostB/store --into combined
    python -m repro.experiments gc --dry-run
    python -m repro.experiments report --out report.md
    python -m repro.experiments report --follow --interval 5

``run`` executes each experiment's scenario grid through the runner:
completed scenarios resume from the content-addressed result store under
``<cache-dir>/runner`` (so an interrupted suite continues where it stopped)
and ``--workers N`` drains the remaining scenarios with N local
lease-based worker processes over that store (the protocol of ``work``,
below), bit-identically to the serial run.  ``work`` joins (or starts)
a *distributed* drain of the same suite as one lease-based work-stealing
worker — run it N times, on one host or many sharing a synced store
directory, and the workers cooperatively finish the suite (see
:mod:`repro.distributed`).  It replaces its own process with
``python -m repro.distributed``, the one worker entry point (which also
takes ``--specs``), so BLAS threads are pinned before numpy loads, and
passes every option after the experiment IDs on to it.
``merge`` unions content-addressed stores produced on different hosts
(same key with a differing payload is a hard error).  ``gc`` prunes store
entries whose spec hashes no registered grid produces any more (changed
grids and retired spec schemas hash elsewhere, so their old entries are
dead weight); entries under a live worker lease are never pruned.  ``report``
renders a markdown report purely from the store, recomputing nothing;
``report --follow`` keeps re-rendering it with a done/claimed/pending
banner while a suite runs, stopping when the suite completes.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper's experiments through the scenario runner.",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="override the cache directory (default: $REPRO_CACHE_DIR or ./.repro_cache)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the registered experiments")

    run_parser = subparsers.add_parser("run", help="run experiments via the scenario runner")
    run_parser.add_argument(
        "experiments",
        nargs="+",
        metavar="ID",
        help="registry identifiers (see `list`), or `all`",
    )
    run_parser.add_argument("--profile", "-p", default=None, help="experiment profile (default: fast)")
    run_parser.add_argument(
        "--workers",
        "-w",
        type=int,
        default=0,
        help="local lease-based worker processes draining the pending scenarios "
        "through the result store (<=1: serial oracle)",
    )
    run_parser.add_argument(
        "--engine",
        "-e",
        default=None,
        help="simulation engine pin for every scenario (reference | vectorized)",
    )
    run_parser.add_argument(
        "--no-resume",
        action="store_true",
        help="recompute scenarios even when the result store already has them",
    )
    run_parser.add_argument(
        "--no-store",
        action="store_true",
        help="do not read or write the persistent result store",
    )
    run_parser.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write a markdown report of the run's results to PATH",
    )

    work_parser = subparsers.add_parser(
        "work",
        help="join a distributed drain of the suite as one work-stealing worker",
        description=(
            "Run one lease-based worker over the shared result store: claims "
            "scenarios via atomic lease files, heartbeats while executing, "
            "steals expired claims of crashed workers, and exits when the "
            "whole suite is in the store.  Start any number of these against "
            "one store directory; results are bit-identical to a serial run.  "
            "Every option after the IDs is passed on to `python -m "
            "repro.distributed` (see its --help: --profile, --engine, --store, "
            "--owner, --ttl, --poll, --shard-index, --num-shards, --max-scenarios)."
        ),
    )
    work_parser.add_argument(
        "experiments",
        nargs="+",
        metavar="ID",
        help="registry identifiers (see `list`), or `all`",
    )

    merge_parser = subparsers.add_parser(
        "merge",
        help="union content-addressed result stores from several hosts into one",
        description=(
            "Copy result and stage entries missing from the destination store; "
            "entries present on both sides must be identical (same key with a "
            "differing payload aborts the merge — content-addressed stores can "
            "only conflict through corruption or diverging code)."
        ),
    )
    merge_parser.add_argument(
        "sources", nargs="+", metavar="SRC", help="source store directories"
    )
    merge_parser.add_argument(
        "--into", required=True, metavar="DST", help="destination store directory"
    )
    merge_parser.add_argument(
        "--dry-run", action="store_true",
        help="scan and report (including conflict detection) without copying",
    )

    gc_parser = subparsers.add_parser(
        "gc",
        help="prune result-store entries whose spec hashes no registered grid produces",
        description=(
            "Prune result-store entries outside the registered grids "
            "(profile x engine).  NOTE: results of grids built with "
            "non-default arguments (custom sigmas, profile overrides) are "
            "not part of any registered grid and count as stale — use "
            "--dry-run first if you keep such results."
        ),
    )
    gc_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be pruned without deleting anything",
    )
    gc_parser.add_argument(
        "--profile",
        "-p",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict the live set to these profiles (default: all registered; repeatable)",
    )

    report_parser = subparsers.add_parser(
        "report", help="build a markdown report from the result store (no recompute)"
    )
    report_parser.add_argument("--profile", "-p", default=None, help="experiment profile (default: fast)")
    report_parser.add_argument(
        "--engine",
        "-e",
        default=None,
        help="render results of a suite that ran under this engine pin",
    )
    report_parser.add_argument("--out", "-o", default=None, metavar="PATH", help="write to PATH instead of stdout")
    report_parser.add_argument(
        "--follow",
        "-f",
        action="store_true",
        help=(
            "re-render the report while a suite runs: print a done/claimed/"
            "pending banner each poll, emit the report whenever it changes "
            "(or atomically rewrite --out PATH), stop when the suite completes"
        ),
    )
    report_parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="poll interval for --follow (default: 2s)",
    )
    return parser


def _resolve_experiments(requested: List[str]) -> List[str]:
    from repro.experiments.registry import EXPERIMENTS

    if any(identifier == "all" for identifier in requested):
        return list(EXPERIMENTS)
    unknown = [identifier for identifier in requested if identifier not in EXPERIMENTS]
    if unknown:
        raise SystemExit(
            f"unknown experiment(s): {', '.join(unknown)}; available: {', '.join(EXPERIMENTS)}"
        )
    return requested


def _command_list() -> int:
    from repro.experiments.registry import describe_experiments

    print(describe_experiments())
    return 0


def _command_run(args: argparse.Namespace) -> int:
    from repro.experiments.profiles import get_profile
    from repro.experiments.registry import EXPERIMENTS, format_result, run_experiment
    from repro.experiments.runner.store import default_store

    identifiers = _resolve_experiments(args.experiments)
    profile = get_profile(args.profile)
    store = None if args.no_store else default_store()
    results = {}
    for identifier in identifiers:
        spec = EXPERIMENTS[identifier]
        start = time.perf_counter()
        assembled, outcome = run_experiment(
            identifier,
            profile=profile,
            workers=args.workers,
            store=store,
            engine=args.engine,
            resume=not args.no_resume,
        )
        elapsed = time.perf_counter() - start
        results[identifier] = assembled
        print("=" * 72)
        print(
            f"{identifier} — {spec.paper_reference}  "
            f"[{outcome.executed} run, {outcome.cached} cached, "
            f"{outcome.workers or 1} worker(s), {elapsed:.1f}s]"
        )
        print("=" * 72)
        print(format_result(spec, assembled))
        print()
    if args.report:
        from repro.experiments.report import full_report

        text = full_report(title=f"Reproduction report — profile {profile.name}", **results)
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"report written to {args.report}")
    return 0


def _command_work(args: argparse.Namespace, options: List[str]) -> int:
    from repro.worker_env import pin_worker_threads

    # Importing this package has loaded numpy, and with it BLAS at its
    # default thread count, so the worker cannot run in this process.
    # Replace it with the worker entry point, pinned before the new
    # interpreter starts (and so before anything in it loads numpy).
    pin_worker_threads()
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(
        sys.executable,
        [sys.executable, "-m", "repro.distributed", "--experiments", *args.experiments, *options],
    )


def _command_merge(args: argparse.Namespace) -> int:
    from repro.distributed.merge import MergeConflictError, merge_stores

    try:
        report = merge_stores(args.sources, into=args.into, dry_run=args.dry_run)
    except MergeConflictError as error:
        print(f"merge aborted: {error}", file=sys.stderr)
        return 1
    for source, copied in report.per_source.items():
        print(f"{'would copy' if args.dry_run else 'copied'} {copied} entr(y/ies) from {source}")
    print(report.summary())
    return 0


def _command_gc(args: argparse.Namespace) -> int:
    from repro.experiments.profiles import get_profile
    from repro.experiments.registry import registered_spec_hashes
    from repro.experiments.runner.store import default_store

    profiles = None
    if args.profile:
        profiles = [get_profile(name) for name in args.profile]
    store = default_store()
    live = registered_spec_hashes(profiles=profiles)
    report = store.gc(live, dry_run=args.dry_run)
    for path in report.pruned:
        print(f"{'would prune' if args.dry_run else 'pruned'}: {path}")
    print(f"{store.root}: {report.summary()} ({len(live)} live spec hash(es))")
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from repro.experiments.profiles import get_profile
    from repro.experiments.report import build_report_from_store, follow_report
    from repro.experiments.runner.store import default_store
    from repro.utils.serialization import atomic_write

    profile = get_profile(args.profile)
    store = default_store()
    title = f"Reproduction report — profile {profile.name}"

    if args.follow:
        # Stream: banner every poll; the full report only when it changed
        # (to stdout) or as an atomic rewrite of --out (safe to read/serve
        # while workers are still draining the suite).
        last_text: Optional[str] = None
        try:
            for text, status in follow_report(
                store, profile=profile, engine=args.engine, title=title,
                interval=args.interval,
            ):
                print(status.banner(), flush=True)
                if text != last_text:
                    if args.out:
                        def write(tmp: str, _text: str = text) -> None:
                            with open(tmp, "w", encoding="utf-8") as handle:
                                handle.write(_text)

                        atomic_write(args.out, write)
                        print(f"report updated: {args.out}", flush=True)
                    else:
                        print(text, flush=True)
                    last_text = text
        except KeyboardInterrupt:
            print("follow interrupted", file=sys.stderr)
            return 130
        print("suite complete", flush=True)
        return 0

    text = build_report_from_store(
        store,
        profile=profile,
        title=title,
        engine=args.engine,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    # ``work`` passes the options it does not know on to its worker.
    args, options = parser.parse_known_args(argv)
    if options and args.command != "work":
        parser.error(f"unrecognized arguments: {' '.join(options)}")
    if args.cache_dir:
        # get_cache_dir() resolves lazily, so setting the env here is enough
        # for the whole process tree (worker processes inherit it).
        os.environ["REPRO_CACHE_DIR"] = os.path.abspath(args.cache_dir)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    if args.command == "work":
        return _command_work(args, options)
    if args.command == "merge":
        return _command_merge(args)
    if args.command == "gc":
        return _command_gc(args)
    if args.command == "report":
        return _command_report(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())

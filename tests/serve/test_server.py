"""Socket-protocol and CLI tests for the evaluation server.

The in-process tests run an :class:`EvalServer` on an ephemeral port inside
a private event-loop thread and speak the JSON-lines protocol over a real
TCP socket; the CLI test drives ``python -m repro.serve`` as a subprocess,
which is exactly how a user deploys it.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading

import pytest

from repro.experiments.runner.store import ResultStore
from repro.serve import EvalServer, EvalService, ServeConfig


def selftest_spec(value=1, **params):
    return {"experiment": "selftest", "method": "probe",
            "params": {"value": value, **params}}


class ServerHarness:
    """An EvalServer on an ephemeral port, owned by a background loop thread."""

    def __init__(self, tmp_path, workers=1):
        self.service = EvalService(
            ServeConfig(
                host="127.0.0.1", port=0, workers=workers, default_timeout_s=30.0
            ),
            store=ResultStore(str(tmp_path / "store")),
        )
        self.server = EvalServer(self.service)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)

    def __enter__(self):
        self.thread.start()
        asyncio.run_coroutine_threadsafe(self.server.start(), self.loop).result(10.0)
        self.address = self.server.sockets[0].getsockname()[:2]
        return self

    def __exit__(self, *exc_info):
        asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop).result(10.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)
        self.loop.close()

    def connect(self):
        sock = socket.create_connection(self.address, timeout=30.0)
        return sock, sock.makefile("rw", encoding="utf-8")


@pytest.fixture
def harness(tmp_path):
    with ServerHarness(tmp_path) as running:
        yield running


def call(stream, message):
    stream.write(json.dumps(message) + "\n")
    stream.flush()
    line = stream.readline()
    assert line, "server closed the connection unexpectedly"
    return json.loads(line)


class TestProtocol:
    def test_submit_roundtrip(self, harness):
        sock, stream = harness.connect()
        try:
            response = call(stream, {"op": "submit", "spec": selftest_spec(value=11)})
            assert response["ok"]
            assert response["state"] == "done"
            assert response["origin"] == "executed"
            assert response["result"]["value"] == 11
            assert response["latency_s"] >= 0
        finally:
            sock.close()

    def test_nowait_submit_then_status_then_result(self, harness):
        sock, stream = harness.connect()
        try:
            submitted = call(
                stream,
                {"op": "submit", "spec": selftest_spec(value=2, sleep_s=0.2),
                 "wait": False},
            )
            assert submitted["ok"]
            assert submitted["state"] in ("queued", "running")
            key = submitted["key"]

            status = call(stream, {"op": "status", "key": key})
            assert status["ok"]
            assert "result" not in status  # status never ships the body

            result = call(stream, {"op": "result", "key": key, "timeout_s": 30})
            assert result["ok"]
            assert result["state"] == "done"
            assert result["result"]["value"] == 2
        finally:
            sock.close()

    def test_concurrent_clients_coalesce_over_the_wire(self, harness):
        spec = selftest_spec(value=5, sleep_s=0.3)
        responses = []
        lock = threading.Lock()

        def client():
            sock, stream = harness.connect()
            try:
                response = call(stream, {"op": "submit", "spec": spec})
                with lock:
                    responses.append(response)
            finally:
                sock.close()

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(responses) == 4
        assert all(r["ok"] and r["result"]["value"] == 5 for r in responses)
        stats = harness.service.stats()
        assert stats["counters"]["executed"] == 1
        assert stats["counters"]["coalesced"] == 3

    def test_stats_and_gc_ops(self, harness):
        sock, stream = harness.connect()
        try:
            call(stream, {"op": "submit", "spec": selftest_spec(value=1)})
            stats = call(stream, {"op": "stats"})
            assert stats["ok"]
            assert stats["stats"]["counters"]["executed"] == 1
            assert "pool" in stats["stats"]
            workers = stats["stats"]["workers"]
            assert workers["count"] == 1
            assert workers["configured"] == 1
            assert workers["dispatch"] == "inline"
            assert sum(workers["executed_per_worker"].values()) == 1
            report = call(stream, {"op": "gc", "dry_run": True})
            assert report["ok"]
            assert report["gc"]["pruned"] == 0  # live request protects it
        finally:
            sock.close()

    def test_malformed_requests_get_error_responses_not_disconnects(self, harness):
        sock, stream = harness.connect()
        try:
            assert not call(stream, {"op": "unknown"})["ok"]
            assert not call(stream, {"op": "status"})["ok"]  # missing key
            assert not call(stream, {"op": "status", "key": "nope"})["ok"]
            assert not call(stream, {"op": "submit"})["ok"]  # no spec/sim
            stream.write("not json\n")
            stream.flush()
            assert "malformed JSON" in json.loads(stream.readline())["error"]
            # Connection still usable after all of the above.
            assert call(stream, {"op": "stats"})["ok"]
        finally:
            sock.close()

    def test_failed_scenario_reported_as_failed_state(self, harness):
        sock, stream = harness.connect()
        try:
            response = call(
                stream, {"op": "submit", "spec": selftest_spec(value=1, fail=True)}
            )
            assert response["ok"]  # protocol-level ok; request-level failure
            assert response["state"] == "failed"
            assert "selftest scenario failed" in response["error"]
        finally:
            sock.close()


class TestParallelDispatch:
    """Distinct concurrent requests genuinely overlap with ``workers > 1``.

    The selftest scenarios *sleep* rather than compute, so two of them can
    only finish in ~one sleep's wall time if they really ran concurrently
    in the engine's worker processes — even on a single-core host.  This is
    the overlap that used to be impossible behind the global execution
    lock.
    """

    def test_distinct_requests_overlap_across_worker_processes(self, tmp_path):
        import time

        sleep_s = 1.5
        with ServerHarness(tmp_path, workers=2) as harness:
            specs = [
                selftest_spec(value=index, sleep_s=sleep_s) for index in range(2)
            ]
            responses = []
            lock = threading.Lock()

            def client(spec):
                sock, stream = harness.connect()
                try:
                    response = call(
                        stream, {"op": "submit", "spec": spec, "timeout_s": 120}
                    )
                    with lock:
                        responses.append(response)
                finally:
                    sock.close()

            # Warm the spawn pool outside the measured window (process
            # startup is paid once per server lifetime, not per request).
            client(selftest_spec(value=99, sleep_s=0.0))
            responses.clear()

            start = time.perf_counter()
            threads = [threading.Thread(target=client, args=(s,)) for s in specs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start

            assert len(responses) == 2
            assert all(r["ok"] and r["state"] == "done" for r in responses)
            assert {r["result"]["value"] for r in responses} == {0, 1}
            # Serial execution would need >= 2 * sleep_s.
            assert elapsed < 2 * sleep_s, (
                f"two {sleep_s}s requests took {elapsed:.2f}s — "
                f"they did not overlap"
            )

            stats = harness.service.stats()
            workers = stats["workers"]
            assert workers["dispatch"] == "spawn-pool"
            assert workers["count"] == 2
            assert stats["counters"]["executed"] == 3  # warm-up + the pair
            assert sum(workers["executed_per_worker"].values()) == 3


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")])
    )
    return env


def _child_pids(pid):
    """PIDs whose parent is ``pid``, read from ``/proc``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def _running(pid):
    """Whether ``pid`` exists and has not exited (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


@pytest.mark.slow
class TestCLI:
    def test_module_cli_serves_on_ephemeral_port(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--cache-dir", str(tmp_path / "cache"), "--queue-size", "4"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_cli_env(),
        )
        try:
            announce = proc.stdout.readline().strip()
            assert announce.startswith("serving on ")
            host, port = announce.split()[-1].rsplit(":", 1)
            sock = socket.create_connection((host, int(port)), timeout=30.0)
            stream = sock.makefile("rw", encoding="utf-8")
            try:
                first = call(stream, {"op": "submit", "spec": selftest_spec(value=8)})
                assert first["ok"] and first["origin"] == "executed"
                # Identical resubmission is answered without re-execution.
                again = call(stream, {"op": "submit", "spec": selftest_spec(value=8)})
                assert again["ok"] and again["state"] == "done"
                stats = call(stream, {"op": "stats"})
                assert stats["stats"]["counters"]["executed"] == 1
            finally:
                sock.close()
        finally:
            proc.terminate()
            proc.wait(timeout=15.0)

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads the process table")
    def test_sigterm_shuts_the_worker_pool_down(self, tmp_path):
        """terminate() takes the Ctrl-C shutdown path, so no worker process
        of a ``--workers 2`` server outlives it."""
        import time

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0", "--workers", "2",
             "--cache-dir", str(tmp_path / "cache")],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=_cli_env(),
        )
        children = []
        try:
            host, port = proc.stdout.readline().split()[-1].rsplit(":", 1)
            sock = socket.create_connection((host, int(port)), timeout=60.0)
            stream = sock.makefile("rw", encoding="utf-8")
            try:
                # The pool spawns with the first dispatched request.
                assert call(stream, {"op": "submit", "spec": selftest_spec(value=4)})["ok"]
            finally:
                sock.close()
            children = _child_pids(proc.pid)
            assert children, "the --workers 2 server started no worker process"
            proc.terminate()
            assert proc.wait(timeout=60.0) == 0
            deadline = time.monotonic() + 30.0
            while any(_running(pid) for pid in children) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not [pid for pid in children if _running(pid)]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for pid in children:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)

    @pytest.mark.parametrize("workers", ["1", "2"], ids=["workers1", "workers2"])
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
    def test_signal_with_an_open_connection_exits_without_traceback(
        self, tmp_path, workers, signum
    ):
        """Stopping the server while a client is still connected cancels
        that client's handler; the shutdown must stay quiet and exit 0."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0", "--workers", workers,
             "--cache-dir", str(tmp_path / "cache")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_cli_env(),
        )
        try:
            host, port = proc.stdout.readline().split()[-1].rsplit(":", 1)
            sock = socket.create_connection((host, int(port)), timeout=60.0)
            try:
                stream = sock.makefile("rw", encoding="utf-8")
                assert call(stream, {"op": "stats"})["ok"]
                proc.send_signal(signum)
                _, stderr = proc.communicate(timeout=60.0)
            finally:
                sock.close()
            assert proc.returncode == 0
            assert "Traceback" not in stderr, stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_cli_help_mentions_knobs(self):
        output = subprocess.run(
            [sys.executable, "-m", "repro.serve", "--help"],
            capture_output=True, text=True, env=_cli_env(), timeout=60,
        )
        assert output.returncode == 0
        for flag in ("--workers", "--max-models", "--queue-size", "--cache-dir"):
            assert flag in output.stdout

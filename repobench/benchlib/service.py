"""The ``serve`` workload: a miss-heavy closed loop against ``repro serve``.

One *round* starts the service with its default worker count and a
fresh cache directory, sends the request sequence of
:func:`~benchlib.inputs.serve_requests` over two keep-alive connections
(each sends its next request when its previous answer is in), and
stops the service with SIGTERM, as a process supervisor would.

The shutdown is an operation of its own.  It fails when a pool worker
outlives the server or the port stays bound: ``repro serve`` has no
SIGTERM path, so its forked workers survive as orphans holding the
inherited listening socket.  The round then kills the survivors itself,
and every round binds a port the kernel has just handed out, so one
round cannot poison the next.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .inputs import relabelled

__all__ = ["Server", "Record", "RoundResult", "run_round", "counter_delta",
           "server_p50", "response_map"]

HOST = "127.0.0.1"
#: Generous: a cold report request on a large program takes seconds.
REQUEST_TIMEOUT_S = 300.0
CLIENTS = 2


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


def _port_listening(port: int) -> bool:
    """Is some socket still listening on *port*?  ``SO_REUSEADDR`` lets
    the bind succeed past TIME_WAIT leftovers of closed connections, so
    only a live listener makes it fail."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            probe.bind((HOST, port))
        except OSError:
            return True
    return False


def _group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes of process group *pgid*."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        # fields[0] is the state, fields[2] the process group
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


class Server:
    """One ``repro serve`` process in its own process group."""

    def __init__(self, root: Path, workdir: Path, tag: str):
        self.root = root
        self.cache = workdir / f"serve-cache-{tag}"
        self.log_path = workdir / f"serve-{tag}.log"
        self.port = _free_port()
        self.proc: Optional[subprocess.Popen] = None

    def start(self, timeout: float = 60.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port",
                 str(self.port), "--cache", str(self.cache)],
                cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with code "
                                   f"{self.proc.returncode}; see "
                                   f"{self.log_path}")
            try:
                if self.get("/v1/health")["status"] == "ok":
                    return
            except (OSError, http.client.HTTPException, ValueError):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve did not become healthy")
            time.sleep(0.01)

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection(HOST, self.port, timeout=10)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM missing from /proc status")

    def shutdown(self) -> Optional[str]:
        """SIGTERM the server; the problem with the shutdown, or None."""
        problems = []
        os.kill(self.proc.pid, signal.SIGTERM)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            problems.append("the server ignored SIGTERM for 10 s")
        survivors = [pid for pid in _group_members(self.proc.pid)
                     if pid != self.proc.pid]
        if survivors:
            problems.append(f"{len(survivors)} worker(s) outlived the "
                            f"server")
        if _port_listening(self.port):
            problems.append(f"port {self.port} is still bound")
        self.kill()
        return "; ".join(problems) or None

    def kill(self) -> None:
        """SIGKILL the whole process group and wait until it is gone."""
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        # orphaned workers are not our children: wait for init to
        # reap them, or at least for them to turn into zombies
        deadline = time.monotonic() + 10
        while _group_members(self.proc.pid) and time.monotonic() < deadline:
            time.sleep(0.01)


@dataclass
class Record:
    index: int
    latency_ms: float
    status: int
    cache: str
    body: bytes
    #: sent under another label (see :func:`benchlib.inputs.relabelled`)
    relabelled: bool = False


@dataclass
class RoundResult:
    #: the round's distinct ``(endpoint, payload)`` requests
    distinct: List[Tuple[str, dict]] = field(default_factory=list)
    #: every answer, in send order
    records: List[Record] = field(default_factory=list)
    load_s: float = 0.0
    peak_rss_mb: float = 0.0
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    shutdown_problem: Optional[str] = None
    window_s: float = 0.0


def _post(conn: http.client.HTTPConnection, endpoint: str,
          body: bytes) -> Tuple[int, str, bytes]:
    conn.request("POST", f"/v1/{endpoint}", body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    data = response.read()
    return response.status, response.getheader("X-Repro-Cache", "none"), data


def _client(port: int, bodies: List[Tuple[str, Tuple[bytes, bytes]]],
            sends: List[Tuple[int, bool]], cursor: List[int],
            lock: threading.Lock, out: List[Tuple[int, Record]]) -> None:
    conn = http.client.HTTPConnection(HOST, port, timeout=REQUEST_TIMEOUT_S)
    try:
        while True:
            with lock:
                position = cursor[0]
                if position >= len(sends):
                    return
                cursor[0] += 1
            index, relabelled = sends[position]
            endpoint, variants = bodies[index]
            body = variants[relabelled]
            started = time.perf_counter()
            try:
                status, cache, data = _post(conn, endpoint, body)
            except (OSError, http.client.HTTPException) as error:
                conn.close()
                conn = http.client.HTTPConnection(
                    HOST, port, timeout=REQUEST_TIMEOUT_S)
                status, cache, data = 0, "error", repr(error).encode()
            latency = (time.perf_counter() - started) * 1e3
            out.append((position, Record(index, latency, status, cache,
                                         data, relabelled)))
    finally:
        conn.close()


def run_round(root: Path, workdir: Path, tag: str,
              prepare, tracer=None) -> RoundResult:
    """One service lifecycle (see the module docstring).

    *prepare* returns ``(distinct, sends)`` as
    :func:`~benchlib.inputs.serve_requests` does.  The measured window runs
    from *prepare* to the last answer; *tracer* records it and marks the
    round's phases."""
    phase = (tracer.phase if tracer is not None
             else lambda name: nullcontext())
    result = RoundResult()
    server = Server(root, workdir, tag)
    try:
        with (tracer.window() if tracer is not None else nullcontext()):
            window_start = time.perf_counter()
            result.distinct, sends = prepare()
            bodies = [(endpoint, (json.dumps(payload).encode("utf-8"),
                                  json.dumps(relabelled(payload))
                                  .encode("utf-8")))
                      for endpoint, payload in result.distinct]
            with phase("serve.start"):
                server.start()
            result.stats_before = server.get("/v1/stats")
            with phase("serve.load"):
                cursor, lock = [0], threading.Lock()
                outputs: List[List[Tuple[int, Record]]] = [
                    [] for _ in range(CLIENTS)]
                threads = [threading.Thread(
                    target=_client,
                    args=(server.port, bodies, sends, cursor, lock, out))
                    for out in outputs]
                started = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                result.load_s = time.perf_counter() - started
            result.window_s = time.perf_counter() - window_start
        result.records = [record for _, record in
                          sorted(pair for out in outputs for pair in out)]
        result.stats_after = server.get("/v1/stats")
        result.peak_rss_mb = server.peak_rss_mb()
        result.shutdown_problem = server.shutdown()
    finally:
        server.kill()
    return result


def counter_delta(result: RoundResult, name: str) -> float:
    before = result.stats_before["metrics"]["counters"].get(name, 0)
    after = result.stats_after["metrics"]["counters"].get(name, 0)
    return after - before


def server_p50(result: RoundResult, histogram: str) -> float:
    summary = result.stats_after["metrics"]["histograms"].get(histogram, {})
    return float(summary.get("p50", 0.0))


def response_map(result: RoundResult) -> Dict[int, List[Record]]:
    by_index: Dict[int, List[Record]] = {}
    for record in result.records:
        by_index.setdefault(record.index, []).append(record)
    return by_index

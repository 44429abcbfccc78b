"""``repro serve`` under SIGTERM, as a process supervisor stops it: the
server exits 0, its pool workers exit with it, and the port is freed —
also after a worker crash broke and replaced the pool."""

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
SOURCE = "int main() { print(3); return 0; }\n"

pytestmark = pytest.mark.skipif(
    not hasattr(os, "killpg") or not Path("/proc/self/stat").exists(),
    reason="needs POSIX process groups and /proc")


def group_members(pgid: int):
    """Live (non-zombie) processes of process group *pgid*."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        # fields[0] is the state, fields[2] the process group
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def accepting(port: int) -> bool:
    with socket.socket() as probe:
        probe.settimeout(2)
        return probe.connect_ex(("127.0.0.1", port)) == 0


def compile_status(port: int, label: str) -> int:
    """POST one cold compile (a cache miss runs in a pool worker)."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/compile",
        data=json.dumps({"source": SOURCE, "label": label}).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status
    except urllib.error.HTTPError as error:
        return error.code


def stop_with_sigterm(tmp_path, env_extra, drive):
    """Start ``repro serve --jobs 2``, run *drive(port)*, send SIGTERM
    and assert a clean exit, an empty process group and a free port."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **env_extra)
    log = open(tmp_path / "serve.log", "wb")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs",
         "2", "--cache", str(tmp_path / "cache")],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=log, start_new_session=True)
    try:
        banner = proc.stdout.readline().decode()
        assert "listening on" in banner, (tmp_path / "serve.log").read_text()
        port = int(banner.split("127.0.0.1:")[1].split("/")[0])
        drive(port)
        assert len(group_members(proc.pid)) >= 2

        os.kill(proc.pid, signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
        deadline = time.monotonic() + 5
        while group_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert group_members(proc.pid) == []
        assert not accepting(port)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()
        log.close()


def test_sigterm_stops_server_and_workers(tmp_path):
    def drive(port):
        assert compile_status(port, "warm") == 200

    stop_with_sigterm(tmp_path, {}, drive)


def test_sigterm_after_worker_crash(tmp_path):
    # the crash breaks the pool, whose survivors are then terminated;
    # the server must neither stop on that nor hang on SIGTERM later
    def drive(port):
        assert compile_status(port, "doomed") == 500
        assert compile_status(port, "survivor") == 200

    stop_with_sigterm(tmp_path, {"REPRO_SERVE_INJECT": "crash:doomed"},
                      drive)

"""Server processes and the closed-loop HTTP client of one session.

A :class:`Server` is one ``repro serve`` process tree (the parent plus
any pool workers).  The client side is plain ``http.client`` over
keep-alive connections, one connection per thread; every request is
timed on ``time.monotonic``, the clock the trace spans use.
"""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from oracle import body_version

READY = re.compile(r"serving snapshot v(\d+) .* on http://([\d.]+):(\d+)")
BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


class BenchError(RuntimeError):
    """A session step that cannot continue (the run reports it failed)."""


def tree_pids(root: int) -> list[int]:
    """``root`` and every live descendant, from ``/proc``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    pids, todo = [], [root]
    while todo:
        pid = todo.pop()
        pids.append(pid)
        todo.extend(children.get(pid, []))
    return pids


def peak_rss_kb(root: int) -> int:
    """Sum of ``VmHWM`` (peak resident set) over the process tree."""
    total = 0
    for pid in tree_pids(root):
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            pass
    return total


class Server:
    """One ``repro serve`` process tree; ``boot_s`` is spawn -> first 200."""

    def __init__(self, argv: list[str], env: dict, log: Path):
        self.argv = argv
        self.log = log
        started = time.monotonic()
        self.spawned_at = started
        with open(log, "ab") as stderr:
            self.proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=stderr, env=env, text=True
            )
        # a server that hangs before printing its ready line is killed,
        # which ends the blocking readline below with EOF
        watchdog = threading.Timer(BOOT_TIMEOUT_S, self._kill_tree)
        watchdog.start()
        try:
            self.version, self.port = self._await_ready()
            client = Client(self.port)
            try:
                status, _body = client.get("/healthz")
            finally:
                client.close()
            if status != 200:
                raise BenchError(f"/healthz answered {status}")
        except BaseException:
            # not yet known to the caller, so nobody else would stop it
            # (a failed boot, or a run interrupted while it booted)
            self.kill()
            raise
        finally:
            watchdog.cancel()
        self.boot_s = time.monotonic() - started
        # drain the rest of stdout so the server can never block on it
        self._drain = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self._drain.start()

    def _await_ready(self) -> tuple[int, int]:
        for line in self.proc.stdout:
            match = READY.search(line)
            if match:
                return int(match.group(1)), int(match.group(3))
        raise BenchError(f"server did not come up: {' '.join(self.argv[2:])} (see {self.log})")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """SIGTERM, then wait for the whole tree to exit."""
        pids = tree_pids(self.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
        _reap(pids[1:])

    def _kill_tree(self) -> list[int]:
        pids = tree_pids(self.pid)
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return pids

    def kill(self) -> None:
        pids = self._kill_tree()
        self.proc.wait()
        _reap(pids[1:])


def _reap(pids: list[int]) -> None:
    """Wait until descendants (not our children) are gone; kill stragglers."""
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while pids and time.monotonic() < deadline:
        pids = [p for p in pids if os.path.exists(f"/proc/{p}")]
        if pids:
            time.sleep(0.02)
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


class Client:
    """One blocking keep-alive connection, for the untimed requests."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def get(self, path: str) -> tuple[int, bytes]:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


@dataclass
class ReadLog:
    """Every read of a phase: latency, status, and body identity."""

    latencies_s: list[float] = field(default_factory=list)
    paths: list[str] = field(default_factory=list)
    #: completion time of each read, on ``time.monotonic``
    ends: list[float] = field(default_factory=list)
    failed: int = 0
    #: (path, version) -> first body seen
    bodies: dict[tuple[str, int], bytes] = field(default_factory=dict)
    #: (path, version) -> set of body digests seen
    digests: dict[tuple[str, int], set] = field(default_factory=dict)

    def add(self, path: str, status: int, body: bytes, latency_s: float) -> None:
        self.latencies_s.append(latency_s)
        self.paths.append(path)
        self.ends.append(time.monotonic())
        if status != 200:
            self.failed += 1
            return
        key = (path, body_version(body))
        digest = hashlib.blake2b(body, digest_size=16).digest()
        if key not in self.bodies:
            self.bodies[key] = body
        self.digests.setdefault(key, set()).add(digest)

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)

    def inconsistent(self) -> list[tuple[str, int]]:
        """(path, version) keys answered with more than one body."""
        return [key for key, seen in self.digests.items() if len(seen) > 1]


class Connection:
    """One keep-alive HTTP/1.1 connection driven from an asyncio loop.

    The client's connections share one thread: with a thread each, a
    connection that finished waiting could sit up to the interpreter's
    5 ms switch interval behind the other one, and that wait would be
    measured as server latency.
    """

    def __init__(self, port: int):
        self.port = port
        self.reader = self.writer = None

    async def request(self, method: str, path: str, payload: dict | None = None):
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)
        body = json.dumps(payload).encode() if payload is not None else b""
        head = f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        if body:
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        self.writer.write(head.encode("latin-1") + b"\r\n" + body)
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("connection closed by the server")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.reader = self.writer = None


async def placed_connections(port: int, workers: int, count: int) -> list[Connection]:
    """``count`` open connections, on as many distinct serving processes
    as there are.  The kernel places each new connection on a pool worker
    at random (SO_REUSEPORT); one placed on a worker already taken is
    closed and opened again."""
    conns: list[Connection] = []
    taken: set = set()
    try:
        for _attempt in range(100):
            conn = Connection(port)
            conns.append(conn)
            status, body = await conn.request("GET", "/metrics")
            worker = json.loads(body).get("worker_id") if status == 200 else None
            if status != 200 or (worker in taken and len(taken) < min(count, workers)):
                await conns.pop().close()
                continue
            taken.add(worker)
            if len(conns) == count:
                return conns
        raise BenchError(f"could not open {count} connections on distinct workers")
    except BaseException:
        for conn in conns:
            await conn.close()
        raise


async def read_loop(conn: Connection, paths, log: ReadLog, deadline: float):
    """A closed loop on ``conn``: the next read goes out when the previous
    returns, until ``paths`` ends or the deadline passes."""
    for path in paths:
        if time.monotonic() >= deadline:
            break
        started = time.monotonic()
        try:
            status, body = await conn.request("GET", path)
        except (OSError, ValueError, asyncio.IncompleteReadError):
            status, body = 0, b""
            await conn.close()
        log.add(path, status, body, time.monotonic() - started)


def pin_tree(root: int, cpus: set[int]) -> None:
    """Set the CPU affinity of every thread of a process tree."""
    for pid in tree_pids(root):
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except FileNotFoundError:
            continue
        for tid in tids:
            try:
                os.sched_setaffinity(int(tid), cpus)
            except (ProcessLookupError, PermissionError):
                pass


def python_env(root: Path, extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.update(extra or {})
    return env


def serve_argv(root: Path, traced: bool, args: list[str]) -> list[str]:
    if traced:
        return [sys.executable, str(root / "perfbench" / "serve_traced.py"), "serve", *args]
    return [sys.executable, "-m", "repro", "serve", *args]

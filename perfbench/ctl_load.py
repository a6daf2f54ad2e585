"""The serve-ctl client: spawn a daemon, submit the fleet, drive an open loop.

Load comes from this one process over at most one connection at a time.
Requests go out on a Poisson schedule at a fixed mean rate, whether or
not earlier replies have arrived (an open loop), so a stalled daemon
builds a queue instead of slowing the client down.  Each request is timed from when it was *due*,
which charges a stall to every request queued behind it, and the
client's own lateness (sent minus due) is recorded separately.

A reply is wrong when it is not one JSON object, carries another id
than the oldest outstanding request, or does not answer the command.
When the daemon closes the connection mid-reply (a cut-off), the
client reconnects and sends every request still outstanding again, as
a ctl user would; each lost reply is counted as a cut-off, and the
retried request keeps its original due time, so the loss also shows in
its latency.  A request *fails* when it gets a wrong reply, or no
complete reply within :data:`REPLY_TIMEOUT_S` of when it was due.  A
request is *disrupted* when it failed or lost at least one reply to a
cut-off.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Optional

#: Request rate of the open loop (requests per second).  The daemon
#: keeps up with 5 and 10 req/s; 20 req/s saturates it.
RATE_RPS = 10.0

#: The command mix: shares of status reads, budget writes, audit tails.
MIX = (("status", 0.80), ("budget", 0.15), ("audit", 0.05))

#: The two budgets the writes alternate between (watts).  Both sit above
#: the fleet's draw (about 160 W at 20 qps), so the moves go through the
#: guard and controller paths without forcing step-downs.
BUDGETS_W = (1000.0, 600.0)

#: Audit entries one ``audit`` request asks for; replies run to a few
#: hundred KB once the log holds this many entries.
AUDIT_TAIL = 100

REPLY_TIMEOUT_S = 10.0

#: How long a spawned daemon may take to open its socket.
SPAWN_TIMEOUT_S = 60.0

RUN_NAME = "fleet"


def daemon_command(root: str, socket_path: str, stats_path: Optional[str]) -> list[str]:
    """``repro serve --turbo`` with daemon defaults, or the traced launcher."""
    if stats_path is None:
        return [sys.executable, "-m", "repro", "serve", "--turbo", "--socket", socket_path]
    launcher = os.path.join(root, "perfbench", "serve_launcher.py")
    return [sys.executable, launcher, "--socket", socket_path, "--stats", stats_path]


class Connection:
    """One client connection with a line buffer."""

    def __init__(self, path: str) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.sock.setblocking(False)
        self.buffer = b""
        self.closed = False

    def send(self, payload: dict[str, Any]) -> None:
        data = json.dumps(payload, separators=(",", ":")).encode() + b"\n"
        self.sock.setblocking(True)
        try:
            self.sock.sendall(data)
        finally:
            self.sock.setblocking(False)

    def read_lines(self) -> list[bytes]:
        """Complete lines received so far; marks the connection closed on EOF."""
        while True:
            try:
                chunk = self.sock.recv(1 << 20)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self.closed = True
                break
            if not chunk:
                self.closed = True
                break
            self.buffer += chunk
        lines = self.buffer.split(b"\n")
        self.buffer = lines.pop()
        return lines

    def close(self) -> None:
        self.sock.close()


def connect(path: str, deadline: float, proc: subprocess.Popen) -> Connection:
    while True:
        try:
            return Connection(path)
        except (FileNotFoundError, ConnectionRefusedError):
            if proc.poll() is not None:
                raise RuntimeError(f"daemon exited with code {proc.returncode} before listening")
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not open its socket in time")
            time.sleep(0.005)


def call(conn: Connection, request_id: int, cmd: str, **args: Any) -> dict[str, Any]:
    """One blocking request/reply (set-up and shutdown only)."""
    conn.send({"id": request_id, "cmd": cmd, "args": args})
    deadline = time.monotonic() + REPLY_TIMEOUT_S
    while time.monotonic() < deadline:
        for line in conn.read_lines():
            reply = json.loads(line)
            if reply.get("id") != request_id or not reply.get("ok"):
                raise RuntimeError(f"{cmd} failed: {line[:300]!r}")
            return reply["result"]
        if conn.closed:
            break
        time.sleep(0.001)
    raise RuntimeError(f"no reply to {cmd}")


class Daemon:
    """A spawned daemon hosting the fleet run, and its set-up time."""

    def __init__(self, root: str, env: dict[str, str], socket_path: str,
                 spec: dict[str, Any], stats_path: Optional[str] = None) -> None:
        self.socket_path = socket_path
        if os.path.exists(socket_path):
            os.unlink(socket_path)
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            daemon_command(root, socket_path, stats_path),
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            self.conn = connect(socket_path, time.monotonic() + SPAWN_TIMEOUT_S, self.proc)
            call(self.conn, 0, "submit", spec=spec, name=RUN_NAME)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def shutdown(self) -> None:
        """Ask the daemon to stop on a fresh connection and wait for it."""
        try:
            conn = self.conn if not self.conn.closed else Connection(self.socket_path)
            call(conn, 1 << 30, "shutdown")
            conn.close()
            self.proc.wait(timeout=30)
        except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired):
            self.kill()
        if self.proc.stderr is not None:
            self.stderr = self.proc.stderr.read().decode(errors="replace")
            self.proc.stderr.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"daemon exited with {self.proc.returncode}: {self.stderr[-500:]}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait()


def _check_reply(cmd: str, reply: Any, request_id: int) -> Optional[str]:
    """Why a complete reply line is wrong, or None when it answers the request."""
    if not isinstance(reply, dict):
        return "reply is not a JSON object"
    if reply.get("id") != request_id:
        return f"reply id {reply.get('id')!r}, expected {request_id}"
    if reply.get("ok") is not True:
        return f"error reply: {str(reply.get('error'))[:200]}"
    result = reply.get("result")
    if cmd == "status":
        ok = isinstance(result, dict) and result.get("name") == RUN_NAME and "now_s" in result
    elif cmd == "budget":
        ok = isinstance(result, dict) and "applied_watts" in result
    else:
        ok = (isinstance(result, dict) and isinstance(result.get("entries"), list)
              and result.get("count") == len(result["entries"]))
    return None if ok else f"{cmd} reply does not answer the command"


def drive(daemon: Daemon, seconds: float, seed: int) -> dict[str, Any]:
    """The open loop: ``seconds`` of requests at :data:`RATE_RPS`."""
    rng = random.Random(seed)
    names = [name for name, _ in MIX]
    weights = [share for _, share in MIX]
    conn = daemon.conn
    selector = selectors.DefaultSelector()
    selector.register(conn.sock, selectors.EVENT_READ)
    outstanding: list[tuple[int, str, dict[str, Any], float]] = []  # (id, cmd, args, due)
    latencies: list[float] = []
    late: list[float] = []
    failures: dict[str, int] = {}
    disrupted: set[int] = set()
    cut_offs = 0
    wrong: list[str] = []
    audit_bytes: list[int] = []
    budget_moves = clamped = 0
    statuses: list[tuple[float, dict[str, Any]]] = []
    attempted = 0
    next_budget = 1
    start = time.perf_counter()
    end = start + seconds
    # Poisson arrivals: a fixed-interval schedule phase-locks with the
    # daemon's loop and makes the latency tail jump between runs.
    due = start + rng.expovariate(RATE_RPS)

    def fail(reason: str, request_id: int) -> None:
        failures[reason] = failures.get(reason, 0) + 1
        disrupted.add(request_id)

    def send(request_id: int, cmd: str, args: dict[str, Any]) -> None:
        try:
            conn.send({"id": request_id, "cmd": cmd, "args": args})
        except OSError:
            conn.closed = True

    while True:
        now = time.perf_counter()
        if due < end and now >= due:
            cmd = rng.choices(names, weights)[0]
            request_id = attempted + 1
            args: dict[str, Any] = {"run": RUN_NAME}
            if cmd == "budget":
                args["watts"] = BUDGETS_W[next_budget]
                next_budget = 1 - next_budget
            elif cmd == "audit":
                args["tail"] = AUDIT_TAIL
            send(request_id, cmd, args)
            late.append(time.perf_counter() - due)
            outstanding.append((request_id, cmd, args, due))
            attempted += 1
            due += rng.expovariate(RATE_RPS)
            continue
        if not outstanding and due >= end:
            break
        if outstanding and now - outstanding[0][3] > REPLY_TIMEOUT_S:
            fail("timeout", outstanding.pop(0)[0])
            continue
        wait = min(max(due - now, 0.0), 0.05) if due < end else 0.05
        if selector.select(timeout=wait):
            for line in conn.read_lines():
                received = time.perf_counter()
                if not outstanding:
                    wrong.append("reply to no outstanding request")
                    continue
                request_id, cmd, _args, due_at = outstanding.pop(0)
                try:
                    reply = json.loads(line)
                except ValueError:
                    reply = None
                problem = "reply is not valid JSON" if reply is None else _check_reply(cmd, reply, request_id)
                if problem is not None:
                    wrong.append(problem)
                    fail("wrong reply", request_id)
                    continue
                latencies.append(received - due_at)
                result = reply["result"]
                if cmd == "status":
                    statuses.append((received, result))
                elif cmd == "budget":
                    budget_moves += 1
                    clamped += bool(result.get("clamped"))
                else:
                    audit_bytes.append(len(line) + 1)
        if conn.closed:
            # Every request still outstanding lost its reply with the
            # connection: send them again, in order, on a new one.
            cut_offs += len(outstanding)
            disrupted.update(request_id for request_id, _, _, _ in outstanding)
            selector.unregister(conn.sock)
            conn.close()
            conn = Connection(daemon.socket_path)
            daemon.conn = conn
            selector.register(conn.sock, selectors.EVENT_READ)
            for request_id, cmd, args, due_at in outstanding:
                if now - due_at <= REPLY_TIMEOUT_S:
                    send(request_id, cmd, args)
    selector.close()
    return {
        "attempted": attempted,
        "failures": failures,
        "disrupted": len(disrupted),
        "cut_offs": cut_offs,
        "wrong": wrong,
        "latencies_s": latencies,
        "late_s": late,
        "audit_reply_bytes": audit_bytes,
        "budget_moves": budget_moves,
        "budget_clamped": clamped,
        "statuses": statuses,
    }

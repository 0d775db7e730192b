"""The program-under-test process, seen from the benchmark side."""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
import time
from typing import Any, Dict, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class ServerError(RuntimeError):
    """The server process died, timed out or reported an error."""


class ServerProcess:
    """``python -m fabbench.server`` with a line-JSON control channel.

    ``started`` is taken just before the process is spawned, so
    ``ready_at - started`` covers interpreter start, imports, data
    generation and everything else the server does before ``ready``.
    """

    def __init__(self, workload: str, seed: int, trace: int, workdir: str) -> None:
        os.makedirs(workdir, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "fabbench.server", "--workload", workload,
             "--seed", str(seed), "--trace", str(trace), "--workdir", workdir],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        self.ready_at = 0.0

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _read(self, timeout: float) -> Dict[str, Any]:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise ServerError(f"no reply from the server within {timeout:.0f}s") from None
        if line is None:
            raise ServerError(f"server exited with code {self.proc.wait()}")
        return json.loads(line)

    def wait_ready(self, timeout: float = 300.0) -> Dict[str, Any]:
        message = self._read(timeout)
        self.ready_at = time.monotonic()
        if message.get("event") != "ready":
            raise ServerError(f"unexpected first message {message!r}")
        return message

    def call(self, cmd: str, timeout: float = 120.0, **fields) -> Dict[str, Any]:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **fields}) + "\n")
        self.proc.stdin.flush()
        return self._read(timeout)

    def close(self, timeout: float = 30.0) -> None:
        """Ask the server to quit; kill it if it does not, and reap it."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"cmd": "quit"}) + "\n")
                self.proc.stdin.close()
            except (BrokenPipeError, OSError):
                pass
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout)

"""Spawn child processes and measure each one: wall time and its own peak RSS.

Children are started by a small helper process (this file run as a script),
not by the benchmark itself. On Linux, ``exec`` carries the high-water RSS of
the memory map it replaces into the new program's ``ru_maxrss``, so a child
spawned straight from the benchmark would report at least the benchmark's
own RSS (its inputs, oracle arrays and parsed outputs). The helper imports
only the standard library and stays at about 10 MB.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

TRACEBACK = "Traceback (most recent call last)"


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and TRACEBACK not in self.stderr


def child_env(src: Path) -> dict[str, str]:
    """The caller's environment with tabmem's source first on the path and
    no ``TABMEM_THREADS``, so only ``--threads`` picks the worker count."""
    env = {k: v for k, v in os.environ.items() if k != "TABMEM_THREADS"}
    env["PYTHONPATH"] = str(src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _run(argv: list[str], cwd: str, env: dict[str, str], timeout: float) -> dict:
    """Run ``argv`` to completion; the peak RSS comes from ``os.wait4`` on
    this child alone (``RUSAGE_CHILDREN`` is a running maximum over every
    child reaped so far)."""
    err_path = os.path.join(cwd, ".stderr")
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                                stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    os.unlink(err_path)
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "returncode": proc.returncode, "stderr": stderr}


class Spawner:
    """Client of the helper process; one request and one reply per child."""

    def __init__(self):
        self._helper = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], cwd: Path, env: dict[str, str],
            timeout: float = 170.0) -> Child:
        request = {"argv": argv, "cwd": str(cwd), "env": env, "timeout": timeout}
        self._helper.stdin.write(json.dumps(request) + "\n")
        self._helper.stdin.flush()
        reply = self._helper.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner helper exited")
        return Child(**json.loads(reply))

    def close(self) -> None:
        self._helper.stdin.close()
        self._helper.stdout.close()
        self._helper.wait(timeout=30)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        sys.stdout.write(json.dumps(_run(**request)) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()

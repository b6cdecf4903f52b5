"""Fresh-interpreter invocations of the CLI, timed from spawn to exit.

A child is started with ``posix_spawn`` (stdout and stderr go to files) and
reaped with ``os.wait4``, which yields both the exit status and the child's
own ``ru_maxrss`` without any helper thread.  A child that outlives its
timeout is killed and reaped before the error propagates.
"""

from __future__ import annotations

import contextlib
import os
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path

CHILD_TIMEOUT_S = 120
CLI_ENTRY = "from clonectx.cli import main; main()"


@dataclass
class Sample:
    wall_s: float
    exit_code: int
    maxrss_mb: float
    stdout: str
    stderr: str


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout


def child_env(root: Path) -> dict[str, str]:
    """Environment that makes the child import ``clonectx`` from the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(args: list[str], env: dict[str, str], scratch: Path) -> Sample:
    """Run ``python <args>`` to completion; stdout/stderr pass through ``scratch``."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    argv = [sys.executable, *args]
    previous = signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    reaped = False
    try:
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        reaped = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if not reaped:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.wait4(pid, 0)
    return Sample(
        wall_s=wall,
        exit_code=os.waitstatus_to_exitcode(status),
        maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


def reference_args() -> list[str]:
    """Interpreter arguments that run the fixed reference job."""
    return [str(Path(__file__).with_name("reference.py"))]


def cli_args(argv: list[str]) -> list[str]:
    """Interpreter arguments that run ``clonectx <argv>`` the way the console script does."""
    return ["-c", CLI_ENTRY, *argv]

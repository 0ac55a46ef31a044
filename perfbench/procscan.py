"""Find and stop every process a benchmark run started.

Each run tags its child's environment with ``PERFBENCH_TAG=<uuid>``. Ray's
GCS, raylet, workers and their helpers inherit the driver's environment,
so scanning ``/proc/*/environ`` for the tag finds exactly the processes
the run started (psutil is not assumed). Processes of other users or other
runs never carry the tag and are never touched.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

TAG_VAR = "PERFBENCH_TAG"


def tagged_pids(tag: str) -> list[int]:
    """Live (non-zombie) pids whose environment carries ``TAG_VAR=tag``."""
    needle = f"{TAG_VAR}={tag}".encode()
    me = os.getpid()
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == me:
            continue
        try:
            with open(f"/proc/{name}/environ", "rb") as f:
                env = f.read()
            with open(f"/proc/{name}/stat", "rb") as f:
                state = f.read().rsplit(b")", 1)[1].split()[0]
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
        if state in (b"Z", b"X"):
            continue
        if needle in env.split(b"\0"):
            out.append(int(name))
    return out


def _prctl(option: int, arg: int) -> bool:
    try:
        return ctypes.CDLL(None, use_errno=True).prctl(option, arg, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def become_subreaper() -> bool:
    """Make orphaned descendants re-parent to this process (Linux
    PR_SET_CHILD_SUBREAPER), so they can be reaped after being killed."""
    return _prctl(36, 1)


def die_with_parent() -> bool:
    """SIGKILL this process when its parent dies (Linux PR_SET_PDEATHSIG);
    Ray's own processes already die with the driver that started them."""
    return _prctl(1, signal.SIGKILL)


def reap_children() -> None:
    """Collect the exit status of every finished child (no zombies left)."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def kill_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except (ProcessLookupError, PermissionError):
        pass


def stop_all(tag: str, pgid: int | None, grace_s: float = 3.0,
             timeout_s: float = 20.0) -> list[int]:
    """SIGTERM the run's process group, then SIGKILL the group and every
    tagged process until none is alive. Returns the pids still alive at
    ``timeout_s`` (empty on success)."""
    if pgid is not None:
        kill_group(pgid, signal.SIGTERM)
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline and tagged_pids(tag):
        reap_children()
        time.sleep(0.1)
    deadline = time.monotonic() + timeout_s
    while True:
        if pgid is not None:
            kill_group(pgid, signal.SIGKILL)
        alive = tagged_pids(tag)
        for pid in alive:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        reap_children()
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.1)

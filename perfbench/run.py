"""Benchmark entry point: run one workload in an isolated child process.

    python3 perfbench/run.py --workload crawl-broad --seed 1 --seconds 5 --trace 0

The workload runs in a child process in its own session (process group),
with the repository root on PYTHONPATH so Ray workers can import
``icrawler_ray``. Whatever happens to the child (success, exception,
failed correctness check, SIGINT/SIGTERM to this process), the run's
process group and every process carrying the run's environment tag are
killed and reaped, then ``/proc`` is scanned; a survivor fails the run.

The last line of standard output is the result JSON:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import procscan  # noqa: E402
from perfbench import WORKLOAD_NAMES  # noqa: E402

#: every run must end within this (the child gets a little less)
CHILD_TIMEOUT_S = 150
#: length Ray appends to its temp dir for the plasma socket:
#: /session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
RAY_SOCKET_SUFFIX_LEN = 64


class _Interrupted(Exception):
    def __init__(self, signum: int):
        super().__init__(signal.Signals(signum).name)
        self.signum = signum


def _on_signal(signum, _frame):
    raise _Interrupted(signum)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: minute inputs for the benchmark's own tests")
    p.add_argument("--perturb", action="store_true",
                   help="plant one wrong output row before the check (tests)")
    p.add_argument("--fail", choices=("none", "raise", "hang"), default="none",
                   help="make the child raise or hang mid-run (tests)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "icrawler_ray" / "__init__.py").is_file():
        print(f"perfbench: no icrawler_ray package under {ROOT}", file=sys.stderr)
        return 2

    tag = uuid.uuid4().hex
    scratch = ROOT / ".pb"
    work = scratch / f"w{tag[:8]}"
    (work / "tmp").mkdir(parents=True)
    result_path = work / "result.json"
    ray_dir = scratch
    if len(str(ray_dir)) + RAY_SOCKET_SUFFIX_LEN > 107:
        # AF_UNIX socket paths are capped at 107 bytes; a checkout this
        # deep cannot host Ray's sockets, so they go to a private /tmp dir
        # that is removed with the run
        ray_dir = Path(tempfile.mkdtemp(prefix="pb"))
        print(f"perfbench: checkout path too long for Ray sockets, using {ray_dir}",
              file=sys.stderr)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env.setdefault("OMP_NUM_THREADS", "1")
    env["TMPDIR"] = str(work / "tmp")
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    env[procscan.TAG_VAR] = tag
    cmd = [sys.executable, "-m", "perfbench.child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--fail", args.fail,
           "--work-dir", str(work), "--ray-dir", str(ray_dir),
           "--spans-dir", str(ROOT / ".perfbench"), "--result", str(result_path)]
    if args.perturb:
        cmd.append("--perturb")

    procscan.become_subreaper()
    for s in (signal.SIGINT, signal.SIGTERM):
        signal.signal(s, _on_signal)
    child = None
    code = 1
    try:
        child = subprocess.Popen(cmd, cwd=str(ROOT), env=env, stdout=sys.stderr,
                                 start_new_session=True, preexec_fn=procscan.die_with_parent)
        rc = child.wait(timeout=CHILD_TIMEOUT_S)
        if rc == 0 and result_path.is_file():
            code = 0
        else:
            print(f"perfbench: workload child exited with code {rc}", file=sys.stderr)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload child exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
    except _Interrupted as e:
        print(f"perfbench: interrupted by {e}", file=sys.stderr)
        code = 128 + e.signum
    finally:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        survivors = procscan.stop_all(tag, child.pid if child is not None else None)
        if child is not None and child.poll() is None:
            child.wait()
        survivors += [p for p in procscan.tagged_pids(tag) if p not in survivors]
        result = result_path.read_text() if result_path.is_file() else None
        shutil.rmtree(scratch, ignore_errors=True)
        if ray_dir != scratch:
            shutil.rmtree(ray_dir, ignore_errors=True)
        if survivors:
            print(f"perfbench: processes started by this run survived: {survivors}",
                  file=sys.stderr)
            code = 3
    if code == 0:
        print(json.dumps(json.loads(result)))
    return code


if __name__ == "__main__":
    sys.exit(main())

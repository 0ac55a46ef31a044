"""A default-argument crawl must finish on a 1- and a 2-CPU Ray cluster.

The control-plane actors (seen shards, host-rank counters, the inflight
limiter) reserve no CPU, so the fetch/parse tasks always find one, however
many shards the crawl runs. A crawl that cannot be scheduled
hangs without an error, so each crawl runs in a child process with its own
Ray cluster and fails by timeout instead of hanging the suite. The child
starts its own session: Ray's GCS, raylet and workers join its process
group, and killing that group leaves no Ray process behind.
"""

import os
import signal
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 180

_CHILD = r"""
import logging
import sys

import ray
import ray.data

ray.init(address="local", num_cpus=int(sys.argv[1]), include_dashboard=False,
         logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
logging.getLogger("ray.data").setLevel(logging.ERROR)

from icrawler_ray.pipelines.greedy import greedy_crawl
from icrawler_ray.synthweb.generate import make_synthweb

web = make_synthweb(n_pages=100, n_hosts=4, seed=42)
docs, results, metrics = greedy_crawl(ray.put(web.url_map()), web.domains)
assert docs.count() > 0 and results.count() > 0 and metrics
ray.shutdown()
print("CRAWL DONE")
"""


@pytest.mark.parametrize("cpus", [1, 2])
def test_default_crawl_finishes_on_small_cluster(cpus):
    env = dict(os.environ, RAY_USAGE_STATS_ENABLED="0", PYTHONPATH=os.pathsep.join(
        [REPO_ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.Popen([sys.executable, "-c", _CHILD, str(cpus)], cwd=REPO_ROOT,
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # the child's Ray processes too
        except ProcessLookupError:
            pass
        tail, _ = proc.communicate()
    if out is None:
        pytest.fail(f"default crawl at {cpus} CPU(s) did not finish in {TIMEOUT_S} s:\n"
                    + tail.decode(errors="replace")[-3000:])
    text = out.decode(errors="replace")
    assert proc.returncode == 0 and "CRAWL DONE" in text, text[-3000:]

"""One benchmark run inside the isolated child process (see run.py).

Set-up (Ray start, worker warm-up, input generation) is done SETUPS times
and its median reported. One small untimed job then warms the engine's
lazy state, and the workload's independent reference is computed. Jobs
are repeated until ``--seconds`` of job time is measured (at least
MIN_JOBS); each job's output is checked against the reference after its
timed window. With ``--trace 1``, jobs alternate untraced and traced, and
the workload's per-layer numbers are gathered at the end.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import statistics
import sys
import time
import uuid

from perfbench import metrics as M
from perfbench.trace import Tracer
from perfbench.workloads import WORKLOADS

#: Ray gets at most two CPUs (one seen shard per CPU), leaving the raylet,
#: the GCS and the driver at least one core of the affinity mask
NUM_CPUS = max(1, min(2, len(os.sched_getaffinity(0)) - 1))
SETUPS = 3
MIN_JOBS = 2
OBJECT_STORE_BYTES = 768 * 2 ** 20


def start_ray(ray_dir: str) -> None:
    import ray
    import ray.data

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, _temp_dir=ray_dir)
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def warm_workers() -> None:
    """Start one task worker per CPU and import the engine in each."""
    import ray

    @ray.remote(num_cpus=1)
    def load():
        import icrawler_ray.pipelines.greedy  # noqa: F401
        import icrawler_ray.stages.dedup  # noqa: F401

        time.sleep(0.2)  # overlap, so each CPU gets its own worker
        return os.getpid()

    ray.get([load.remote() for _ in range(NUM_CPUS)])


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def reset_peak_rss() -> None:
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mib() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run(args) -> dict:
    import ray
    # imported before the first set-up, so that every set-up is timed alike
    import ray.data  # noqa: F401

    import icrawler_ray.pipelines.greedy  # noqa: F401

    tracer = Tracer(args.trace == 1, uuid.uuid4().hex[:12])
    untraced = Tracer(False, tracer.run_id)
    wl = WORKLOADS[args.workload](args.seed, args.scale, NUM_CPUS, args.work_dir)
    setup_s = []
    try:
        for i in range(SETUPS):
            t0 = time.perf_counter()
            start_ray(args.ray_dir)
            t1 = time.perf_counter()
            warm_workers()
            t2 = time.perf_counter()
            wl.generate()
            setup_s.append(time.perf_counter() - t0)
            log(f"set-up {i + 1}/{SETUPS}: {setup_s[-1]:.2f} s (ray {t1 - t0:.2f}, "
                f"workers {t2 - t1:.2f}, inputs {time.perf_counter() - t2:.2f})")
            if i < SETUPS - 1:
                ray.shutdown()
        t0 = time.perf_counter()
        wl.warm()
        wl.reference()  # before the first job, so every job starts from one heap
        log(f"warm job and reference: {time.perf_counter() - t0:.2f} s")
        if args.fail == "raise":
            raise RuntimeError("failure requested with --fail raise")
        if args.fail == "hang":
            time.sleep(3600)

        jobs = []
        while sum(j["wall"] for j in jobs) < args.seconds or len(jobs) < MIN_JOBS:
            traced = tracer.enabled and len(jobs) % 2 == 1
            reset_peak_rss()
            out = wl.job(tracer if traced else untraced)
            rss = peak_rss_mib()
            t0 = time.perf_counter()
            attempted, failed = wl.check(out, perturb=args.perturb and not jobs)
            log(f"job {len(jobs) + 1}: {out.wall:.2f} s, {out.work} items, traced={traced}; "
                f"check {time.perf_counter() - t0:.2f} s, {failed}/{attempted} failed")
            jobs.append({"wall": out.wall, "work": out.work, "rss": rss, "traced": traced,
                         "attempted": attempted, "failed": failed})
            wl.release(out)
        checks = [(j["attempted"], j["failed"]) for j in jobs]
        if tracer.enabled:
            values = wl.layers(tracer, args.perturb)
            checks.append(getattr(wl, "layer_check", (0, 0)))  # stages checked in layers()
            values.update(trace_values(tracer, jobs))
            values["failed_ratio"] = sum(f for _, f in checks) / max(1, sum(a for a, _ in checks))
            tracer.write(os.path.join(args.spans_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
        else:
            values = {
                "setup_s": statistics.median(setup_s),
                "items_per_s": statistics.median(j["work"] / j["wall"] for j in jobs),
                # over a fixed number of jobs: the heap grows a little per
                # job, so a time-bound job count would move the peak
                "driver_peak_rss_mib": max(j["rss"] for j in jobs[:MIN_JOBS]),
            }
    finally:
        ray.shutdown()
    attempted = sum(a for a, _ in checks)
    failed = sum(f for _, f in checks)
    kind = "per_layer" if tracer.enabled else "end_to_end"
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": M.render(values, kind)}


def trace_values(tracer: Tracer, jobs: list[dict]) -> dict:
    """Tracing overhead (traced over untraced job wall) and self time per layer."""
    plain = statistics.median(j["wall"] for j in jobs if not j["traced"])
    with_spans = statistics.median(j["wall"] for j in jobs if j["traced"])
    values = {"trace.overhead_ratio": with_spans / plain}
    self_s = tracer.self_times()
    for layer in M.LAYERS:
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return values


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--scale", default="full")
    p.add_argument("--fail", default="none")
    p.add_argument("--perturb", action="store_true")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--ray-dir", required=True)
    p.add_argument("--spans-dir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args()
    os.makedirs(args.spans_dir, exist_ok=True)
    result = run(args)
    tmp = args.result + ".tmp"
    with open(tmp, "w") as f:
        json.dump(result, f)
    os.replace(tmp, args.result)


if __name__ == "__main__":
    main()

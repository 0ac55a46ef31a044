"""Cluster job entrypoint — the ``ray job submit`` vehicle of the north
rule (SURVEY §7 / BASELINE target: fixed-size multi-node cluster at N and
4N nodes).

On a real cluster::

    ray job submit --address http://<head>:8265 \
        --working-dir . -- python scripts/ray_job.py crawl \
        --pages 1000000 --out /mnt/shared/crawl_out --checkpoint /mnt/shared/ckpt

    ray job submit ... -- python scripts/ray_job.py bench

Inside the job, ``ray.init(address="auto")`` attaches to the running
cluster; the engine's stages size themselves from
``ray.cluster_resources()`` (shard count, block split, actor pools), so
the same entrypoint measures N-node vs 4N-node throughput for the
scaling criterion. In this sandbox there is no multi-node cluster —
``--smoke`` runs the identical code path against a local session
(the per-round metrics and throughput line are the per-partition
numbers BASELINE.md records).
"""

from __future__ import annotations

import argparse
import json
import os.path as osp
import sys
import time

sys.path.insert(0, osp.dirname(osp.dirname(osp.abspath(__file__))))


def _init(smoke: bool, cpus: int = 8) -> None:
    import ray

    if ray.is_initialized():
        return
    if smoke:
        ray.init(address="local", num_cpus=cpus, include_dashboard=False,
                 logging_level="ERROR")
    else:  # pragma: no cover — real cluster only
        ray.init(address="auto")
    import logging

    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def cmd_crawl(args) -> dict:
    from icrawler_ray.pipelines.greedy import greedy_crawl
    from icrawler_ray.stages.politeness import HostPolicy
    from icrawler_ray.synthweb.procedural import ProceduralWeb

    web = ProceduralWeb(n_pages=args.pages, n_hosts=args.hosts, seed=args.seed,
                        spans_per_page=96)
    policy = HostPolicy({h: {"crawl_delay_ms": 0, "max_inflight": 64,
                             "robots_disallow": []} for h in web.hosts},
                        round_ms=1000)
    # size each seen shard for its share of the expected key volume
    # (pages + ~0.9x files) so the filters stay single-generation in the
    # common case; past-estimate growth is handled by the scalable
    # bloom/cuckoo gens
    num_shards = 8
    seen_capacity = max(1 << 18, int(args.pages * 2.0 / num_shards))
    t0 = time.time()
    docs, results, metrics = greedy_crawl(
        ("procedural", web.spec()), web.domains,
        seeds=web.seed_urls(max(64, args.pages // 100)), policy=policy,
        max_num=0, max_depth=4, keep_content=False,
        driver_threshold=2_000_000, emit_docs=args.emit_docs,
        num_shards=num_shards, seen_capacity=seen_capacity,
        out_dir=args.out, checkpoint_dir=args.checkpoint,
    )
    dt = time.time() - t0
    pages = int(sum(m.get("gated", 0) for m in metrics))
    files = 0 if results is None else results.count()
    import resource

    rss_gib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 2**20
    out = {"job": "crawl", "sec": round(dt, 2), "pages": pages, "files": files,
           "urls_per_sec": round((pages + files) / dt, 1),
           "rounds": len(metrics), "driver_peak_rss_gib": round(rss_gib, 2)}
    if args.timings:
        out["round_timings"] = [
            {"gated": m.get("gated"), **m.get("timings", {})} for m in metrics
        ]
    return out


def cmd_bench(args) -> dict:  # pragma: no cover — thin wrapper
    import bench

    return {"job": "bench", "fetch_parse": bench.bench_fetch_parse(50_000)}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)
    pc = sub.add_parser("crawl")
    pc.add_argument("--pages", type=int, default=200_000)
    pc.add_argument("--hosts", type=int, default=16)
    pc.add_argument("--seed", type=int, default=42)
    pc.add_argument("--out", default=None)
    pc.add_argument("--checkpoint", default=None)
    pc.add_argument("--emit-docs", action="store_true")
    pc.add_argument("--timings", action="store_true",
                    help="include per-round phase timings in the output")
    pc.add_argument("--smoke", action="store_true")
    pc.add_argument("--cpus", type=int, default=8,
                    help="local-session CPU budget when --smoke is set")
    pb = sub.add_parser("bench")
    pb.add_argument("--smoke", action="store_true")
    args = p.parse_args()

    _init(getattr(args, "smoke", False), getattr(args, "cpus", 8))
    out = cmd_crawl(args) if args.cmd == "crawl" else cmd_bench(args)
    print(json.dumps(out))
    import ray

    ray.shutdown()


if __name__ == "__main__":
    main()

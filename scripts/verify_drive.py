"""The canonical end-to-end drive from .claude/skills/verify/SKILL.md:
crawl the synthetic web with the Ray engine and assert doc-span and
crawl-order parity against the sequential oracle, once with the frontier
on the driver, once (``driver_threshold=0``) in the object store, and once
interrupted after two checkpointed rounds and resumed by a new crawl.  Run
from the repo root: ``python scripts/verify_drive.py``."""

import logging
import os.path as osp
import sys
import tempfile

sys.path.insert(0, osp.dirname(osp.dirname(osp.abspath(__file__))))

import ray
import ray.data


def main() -> None:
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from icrawler_ray.oracle import OracleCrawl
    from icrawler_ray.pipelines.greedy import GreedyCrawl, greedy_crawl
    from icrawler_ray.stages.politeness import HostPolicy
    from icrawler_ray.synthweb.generate import make_synthweb

    web = make_synthweb(n_pages=100, n_hosts=4, seed=42)
    m = web.url_map()
    pol = HostPolicy(web.host_policy, round_ms=1000)
    odocs, oresults = OracleCrawl(m, web.domains, policy=pol, max_num=30,
                                  max_depth=3).run()
    odoc_map = {d["doc_id"]: d["spans"] for d in odocs}
    kw = dict(policy=pol, max_num=30, max_depth=3)

    def check(docs, results, leg: str) -> None:
        edf = docs.to_pandas()
        edoc_map = {r.doc_id: [dict(s) for s in r.spans] for r in edf.itertuples()}
        assert set(odoc_map) == set(edoc_map), leg
        for k in odoc_map:
            assert edoc_map[k] == odoc_map[k], (leg, k)
        rdf = results.to_pandas().sort_values("filename")
        assert list(zip(rdf.file_url, rdf.filename)) == [
            (r["file_url"], r["filename"]) for r in oresults], leg

    # default residency (frontier on the driver), then driver_threshold=0
    # (frontier in the object store, gated by the distributed gate)
    for leg in ({}, {"driver_threshold": 0}):
        docs, results, _metrics = greedy_crawl(ray.put(m), web.domains, **kw, **leg)
        check(docs, results, str(leg))
    # checkpoint leg: stop after two rounds, resume from the dir in a new crawl
    with tempfile.TemporaryDirectory() as ck:
        greedy_crawl(ray.put(m), web.domains, checkpoint_dir=ck, max_rounds=2, **kw)
        resumed = GreedyCrawl(ray.put(m), web.domains, checkpoint_dir=ck, **kw)
        try:
            docs, results, _metrics = resumed.run()
            assert resumed.start_round == 2, "did not resume"
            check(docs, results, "checkpoint resume")
        finally:
            resumed.shutdown()
    ray.shutdown()
    print("VERIFY PASS: docs/spans/crawl-order == oracle at both frontier residencies "
          "and after a checkpoint resume")


if __name__ == "__main__":
    main()

"""THE correctness gate (north rule): the distributed frontier crawl must
reproduce the sequential oracle's outputs exactly — span-sequence equality
per doc on (kind, text, media_ref, order), final URL-seen-set equality, and
crawl-order/filename equality — under the same seed list + politeness
budget, at any parallelism and with the frontier held either on the
driver (the default below driver_threshold rows) or as an object-store
Dataset (driver_threshold=0)."""

import numpy as np
import pandas as pd
import pytest
import ray

from icrawler_ray.oracle import OracleCrawl
from icrawler_ray.pipelines.greedy import GreedyCrawl, greedy_crawl
from icrawler_ray.stages.politeness import HostPolicy
from icrawler_ray.synthweb.generate import make_synthweb


#: the two frontier residencies: a driver table below driver_threshold
#: rows (the default at these sizes), object-store Dataset above it
RESIDENCY = {"driver": {}, "dataset": {"driver_threshold": 0}}


@pytest.fixture(scope="module")
def small_web():
    return make_synthweb(n_pages=60, n_hosts=3, seed=7)


@pytest.fixture(scope="module")
def small_map(small_web):
    return small_web.url_map()


@pytest.fixture(scope="module")
def small_ref(small_map, ray_session):
    return ray.put(small_map)


@pytest.fixture(scope="module")
def policy(small_web):
    return HostPolicy(small_web.host_policy, round_ms=1000)


@pytest.fixture(scope="module")
def golden(small_map, small_web, policy):
    o = OracleCrawl(small_map, small_web.domains, policy=policy, max_num=25, max_depth=3)
    docs, results = o.run()
    return o, docs, results


def _assert_parity(golden, docs, results):
    oracle, odocs, oresults = golden
    odoc_map = {d["doc_id"]: d["spans"] for d in odocs}
    edf = docs.to_pandas()
    edoc_map = {r.doc_id: [dict(s) for s in r.spans] for r in edf.itertuples()}
    assert set(odoc_map) == set(edoc_map)
    for k in odoc_map:  # span-sequence equality (kind, text, media_ref, order)
        assert edoc_map[k] == odoc_map[k], k
    rdf = results.to_pandas().sort_values("filename")
    assert list(zip(rdf.file_url, rdf.filename)) == [
        (r["file_url"], r["filename"]) for r in oresults
    ]
    assert list(zip(rdf.img_w, rdf.img_h)) == [(r["img_w"], r["img_h"]) for r in oresults]


def test_driver_mode_matches_oracle(small_web, small_ref, policy, golden):
    docs, results, _ = greedy_crawl(
        small_ref, small_web.domains, policy=policy, max_num=25, max_depth=3,
        num_shards=4,
    )
    _assert_parity(golden, docs, results)


def test_dataset_mode_matches_oracle(small_web, small_ref, policy, golden):
    docs, results, _ = greedy_crawl(
        small_ref, small_web.domains, policy=policy, max_num=25, max_depth=3,
        num_shards=2, driver_threshold=0,
    )
    _assert_parity(golden, docs, results)


def test_seen_set_equality(small_web, small_map, small_ref, policy, tmp_path):
    """Final URL-seen sets equal the oracle's (exact shard mode so filter FP
    can't blur the comparison; cuckoo mode is equal w.h.p. and covered by
    the parity tests above)."""
    from icrawler_ray.functions.urlnorm import hash_urls

    o = OracleCrawl(small_map, small_web.domains, policy=policy, max_num=0, max_depth=2)
    o.run()
    crawl = GreedyCrawl(
        small_ref, small_web.domains, policy=policy, max_num=0, max_depth=2,
        num_shards=2, exact_seen=True,
    )
    try:
        crawl.run()
        expected_pages = set(int(h) for h in hash_urls(sorted(o.seen_pages)))
        expected_files = set(int(h) for h in hash_urls(sorted(o.seen_files)))
        def shard_keys(seen):  # each shard's full snapshot holds its exact key set
            out = set()
            for f in seen.save(str(tmp_path / seen.name.rsplit(":", 1)[1]), full=True):
                with np.load(f["path"]) as z:
                    out |= set(z["exact"].tolist())
            return out

        got_pages = shard_keys(crawl.seen_pages)
        got_files = shard_keys(crawl.seen_files)
        assert got_pages == expected_pages
        assert got_files == expected_files
    finally:
        crawl.shutdown()


def test_resume_equals_fresh(small_web, small_ref, policy, golden, tmp_path):
    c1 = GreedyCrawl(
        small_ref, small_web.domains, policy=policy, max_num=25, max_depth=3,
        num_shards=2, checkpoint_dir=str(tmp_path), max_rounds=2,
    )
    c1.run()
    c1.shutdown()
    c2 = GreedyCrawl(
        small_ref, small_web.domains, policy=policy, max_num=25, max_depth=3,
        num_shards=2, checkpoint_dir=str(tmp_path),
    )
    docs, results, _ = c2.run()
    c2.shutdown()
    assert c2.start_round == 2  # actually resumed, not re-run
    _assert_parity(golden, docs, results)


def test_resume_with_other_shard_count_raises(small_web, small_ref, policy, tmp_path):
    """Seen keys live in shard h % num_shards, so a checkpoint written with
    2 shards must not be restored into 3: that would re-admit seen URLs."""
    kw = dict(policy=policy, max_num=25, max_depth=3, checkpoint_dir=str(tmp_path))
    c1 = GreedyCrawl(small_ref, small_web.domains, num_shards=2, max_rounds=2, **kw)
    c1.run()
    c1.shutdown()
    c2 = GreedyCrawl(small_ref, small_web.domains, num_shards=3, **kw)
    try:
        with pytest.raises(ValueError, match="snapshot has 2 shards"):
            c2.run()
    finally:
        c2.shutdown()


def test_resume_with_other_seen_capacity_raises(small_web, small_ref, policy, tmp_path):
    """A restored snapshot keeps the filters it was written with, so a
    resume with another seen_capacity must not record the new one in the
    lineage of later rounds as if the filters had it."""
    kw = dict(policy=policy, max_num=25, max_depth=3, num_shards=2,
              checkpoint_dir=str(tmp_path))
    c1 = GreedyCrawl(small_ref, small_web.domains, seen_capacity=1 << 12, max_rounds=2, **kw)
    c1.run()
    c1.shutdown()
    c2 = GreedyCrawl(small_ref, small_web.domains, seen_capacity=1 << 13, **kw)
    try:
        with pytest.raises(ValueError, match="snapshot has capacity 4096 per shard, "
                                             "this set has 8192"):
            c2.run()
    finally:
        c2.shutdown()


@pytest.mark.parametrize("residency", list(RESIDENCY))
def test_shard_actor_death_recovers_in_process(small_web, small_ref, policy, golden,
                                               tmp_path, residency):
    """Kill a seen-shard actor right after the round-1 checkpoint: the
    round loop must detect the actor death (a direct ray.get on the dead
    shard, or a wrapped RayTaskError surfacing from the claim-fused parse
    tasks), respawn a fresh shard fleet, rewind to the checkpoint
    IN-PROCESS, and finish with outputs equal to an undisturbed run."""
    import ray

    class FaultyCrawl(GreedyCrawl):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            self._killed = False

        def _checkpoint(self, round_idx, metrics):
            super()._checkpoint(round_idx, metrics)
            if round_idx == 1 and not self._killed:
                self._killed = True
                shard = self.seen_pages.shards[0]
                ray.kill(shard)
                # ray.kill is async — block until the actor is actually
                # dead so the NEXT round deterministically observes the
                # failure (otherwise a fast crawl can finish first and
                # the recovery assertion below flakes)
                while True:
                    try:
                        ray.get(shard.stats.remote(), timeout=10)
                    except Exception:  # noqa: BLE001 — RayActorError = dead
                        break

    c = FaultyCrawl(
        small_ref, small_web.domains, policy=policy, max_num=25, max_depth=3,
        num_shards=2, checkpoint_dir=str(tmp_path / residency), **RESIDENCY[residency],
    )
    docs, results, _ = c.run()
    c.shutdown()
    assert c._killed and c._recoveries == 1 and c._seen_gen == 1
    _assert_parity(golden, docs, results)


def test_recovery_equals_resume_with_host_rank(small_web, small_ref, policy, tmp_path):
    """The host-rank counter is deliberately NOT checkpointed (it re-warms
    after resume); in-process fault recovery must follow the same
    semantics — reset, not double-count — so a recovered run's outputs
    EQUAL a fresh-process interrupted+resumed run's."""
    import ray

    kw = dict(policy=policy, max_num=25, max_depth=3, num_shards=2,
              host_rank_priority=True)

    # reference: interrupt at the round-2 boundary, resume in a new object
    c1 = GreedyCrawl(small_ref, small_web.domains, checkpoint_dir=str(tmp_path / "a"),
                     max_rounds=2, **kw)
    c1.run()
    c1.shutdown()
    c2 = GreedyCrawl(small_ref, small_web.domains, checkpoint_dir=str(tmp_path / "a"), **kw)
    rdocs, rres, _ = c2.run()
    c2.shutdown()

    class FaultyCrawl(GreedyCrawl):
        def __init__(self, *a, **k):
            super().__init__(*a, **k)
            self._killed = False

        def _checkpoint(self, round_idx, metrics):
            super()._checkpoint(round_idx, metrics)
            if round_idx == 1 and not self._killed:
                self._killed = True
                shard = self.seen_pages.shards[0]
                ray.kill(shard)
                while True:
                    try:
                        ray.get(shard.stats.remote(), timeout=10)
                    except Exception:  # noqa: BLE001
                        break

    cf = FaultyCrawl(small_ref, small_web.domains, checkpoint_dir=str(tmp_path / "b"), **kw)
    fdocs, fres, _ = cf.run()
    cf.shutdown()
    assert cf._recoveries == 1

    a = rres.to_pandas().sort_values("filename").reset_index(drop=True)
    b = fres.to_pandas().sort_values("filename").reset_index(drop=True)
    assert list(zip(a.file_url, a.filename)) == list(zip(b.file_url, b.filename))
    assert set(rdocs.to_pandas()["doc_id"]) == set(fdocs.to_pandas()["doc_id"])


def test_host_rank_priority_scores_frontier(ray_session):
    """Opt-in link-graph scheduler signal: new frontier rows get priority
    1 + log1p(cumulative admitted in-links of their host); identical with
    the frontier on the driver and in the object store (flag off stays
    oracle-parity, covered by every other test in this file)."""
    import math

    import ray

    body = (b'<html><a href="http://b.com/b1.html">1</a>'
            b'<a href="http://b.com/b2.html">2</a>'
            b'<a href="http://b.com/b3.html">3</a>'
            b'<a href="http://c.com/c1.html">4</a></html>')
    m = {"http://a.com": (200, body)}
    for u in ("http://b.com/b1.html", "http://b.com/b2.html",
              "http://b.com/b3.html", "http://c.com/c1.html"):
        m[u] = (200, b"<html>leaf</html>")
    ref = ray.put(m)
    domains = ["a.com", "b.com", "c.com"]

    fronts = {}
    for residency, kw in RESIDENCY.items():
        c = GreedyCrawl(ref, domains, max_depth=3, max_rounds=1, num_shards=2,
                        host_rank_priority=True, **kw)
        c.run()
        f = c._frontier_as_table().to_pandas().sort_values("url").reset_index(drop=True)
        fronts[residency] = f[["url", "host", "priority"]]
        c.shutdown()

    f = fronts["driver"]
    by_host = {h: g["priority"].iloc[0] for h, g in f.groupby("host")}
    assert abs(by_host["b.com"] - (1 + math.log1p(3))) < 1e-12
    assert abs(by_host["c.com"] - (1 + math.log1p(1))) < 1e-12
    pd.testing.assert_frame_equal(fronts["driver"], fronts["dataset"])


def test_parallelism_invariance(small_web, small_ref, policy, golden):
    """Same outputs regardless of shard count / batch sizes (the engine's
    ordering is defined, not emergent — SURVEY.md §4 ordering row), with
    the frontier on the driver and in the object store."""
    for kw in RESIDENCY.values():
        docs, results, _ = greedy_crawl(
            small_ref, small_web.domains, policy=policy, max_num=25, max_depth=3,
            num_shards=7, **kw,
        )
        _assert_parity(golden, docs, results)


@pytest.mark.parametrize("residency", list(RESIDENCY))
def test_all_frontier_rows_disallowed(residency):
    """Robots disallow every path on every host: the first gate admits
    nothing and the crawl ends after round 0 with no docs, wherever the
    frontier lives."""
    web = make_synthweb(n_pages=100, n_hosts=4, seed=42)
    policy = HostPolicy({h: {"robots_disallow": ["/"]} for h in web.host_policy})
    docs, results, metrics = greedy_crawl(
        ray.put(web.url_map()), web.domains, policy=policy, num_shards=2,
        **RESIDENCY[residency])
    assert metrics == [{"round": 0, "gated": 0}]
    assert docs is None and results is None


def test_retry_path_does_not_change_results(small_web, small_map):
    """Transient transport failures (retried inside the session with <=3
    attempts, T2 / parser.py:82-94) leave stage outputs unchanged; a URL
    failing more than max_retry times becomes an error row."""
    import pyarrow as pa

    from icrawler_ray.stages.fetch_parse import FetchParse

    pages = [u for u in small_web.pages if small_web.page_status[u] == 200][:5]
    batch = pa.table({"url": pages})
    clean = FetchParse(small_map, "greedy", {"domains": small_web.domains})(batch)
    flaky = FetchParse(small_map, "greedy", {"domains": small_web.domains},
                       flaky={pages[0]: 2, pages[1]: 1})(batch)
    assert clean.to_pydict() == flaky.to_pydict()
    dead = FetchParse(small_map, "greedy", {"domains": small_web.domains},
                      flaky={pages[0]: 99})(batch)
    df = dead.to_pandas()
    assert (df[df.page_url == pages[0]].row_kind == "error").all()


def test_spans_column_of_mixed_batch():
    """A batch mixing a transport error, an http error, a page with no spans
    and pages with spans: each doc row holds its page's spans in document
    order, every other row is null over an empty slice of the span values."""
    import pyarrow as pa

    from icrawler_ray.functions.html import render_page, scan_page
    from icrawler_ray.stages.fetch_parse import FetchParse

    pages = {
        "http://a.com/p1": [("text", "one", ""), ("media", "", "http://i.com/1.jpg"),
                            ("link", "", "http://a.com/p2.html")],
        "http://a.com/empty": [],
        "http://a.com/p3": [("link", "", "/x.html"), ("text", "three", "")],
    }
    url_map = {u: (200, render_page(s).encode()) for u, s in pages.items()}
    url_map["http://a.com/gone"] = (404, b"")
    url_map["http://a.com/down"] = (200, b"")
    batch = ["http://a.com/p1", "http://a.com/down", "http://a.com/gone",
             "http://a.com/empty", "http://a.com/p3"]
    out = FetchParse(url_map, "greedy", {"domains": ["http://a.com"]},
                     flaky={"http://a.com/down": 99})(pa.table({"url": batch}))

    kinds = out["row_kind"].to_pylist()
    assert kinds.count("error") == 2 and kinds.count("doc") == 3
    want = [[{"kind": k, "text": t, "media_ref": r, "offset": i}
             for i, (k, t, r) in enumerate(scan_page(url_map[u][1].decode()))]
            if k == "doc" else None for u, k in zip(out["page_url"].to_pylist(), kinds)]
    assert [len(w) for w in want if w is not None] == [3, 0, 2]
    spans = out["spans"].combine_chunks()
    assert spans.to_pylist() == want
    assert spans.is_null().to_pylist() == [k != "doc" for k in kinds]
    assert np.diff(spans.offsets.to_numpy()).tolist() == [len(w or []) for w in want]


# ---------------------------------------------------------------------------
# Depth-boundary claim race (ADVICE r1): within a round, the min-order
# emission of a URL claims its canon BEFORE the depth check (oracle.py
# claimed_links semantics). A depth-capped winner suppresses every later
# same-round emission of that URL but is neither admitted nor marked seen —
# so the URL stays admittable in a LATER round. Both frontier residencies must match
# the oracle on a web constructed to hit exactly that boundary.

def _depth_race_web():
    """Hand-built web (max_depth=2, per-host budget 1 except c unbounded=1):

    seeds  c.com(seq0) a.com/s1(1) a.com/s2(2) a.com/s3(3) b.com(4)
    r0: fetch c.com,s1,b.com          -> p1(seq5,d1)
    r1: fetch s2,p1                   -> p2a(6,d2) p2(7,d2)
    r2: fetch s3,p2a (p2 deferred)    -> q1(8,d1); p2a emits W: CAPPED claim
        wins (only claim) -> W dropped, NOT seen-marked
    r3: fetch p2(d2,seq7), q1(d1,seq8): both emit X -> p2's capped claim has
        min packed -> X dropped forever (q1's eligible claim loses);
        q1 also emits W (eligible, unseen) -> W admitted (seq9,d2)
    r4: fetch W; its link wy is capped -> frontier drains.

    Oracle doc set: 10 docs, X and wy never fetched. An engine that skips
    capped claims fetches X (11 docs); one that seen-marks capped winners
    never fetches W (9 docs).
    """
    from icrawler_ray.functions.html import render_page

    link = lambda u: ("link", "", u)  # noqa: E731
    text = ("text", "hello", "")
    pages = {
        "http://c.com": [link("http://c.com/p1")],
        "http://a.com/s1": [text],
        "http://a.com/s2": [text],
        "http://a.com/s3": [link("http://b.com/q1")],
        "http://b.com": [text],
        "http://c.com/p1": [link("http://c.com/p2a"), link("http://c.com/p2")],
        "http://c.com/p2a": [link("http://c.com/w")],
        "http://c.com/p2": [link("http://c.com/x")],
        "http://b.com/q1": [link("http://c.com/x"), link("http://c.com/w")],
        "http://c.com/x": [text],
        "http://c.com/w": [link("http://c.com/wy")],
        "http://c.com/wy": [text],
    }
    url_map = {u: (200, render_page(s).encode()) for u, s in pages.items()}
    seeds = ["http://c.com", "http://a.com/s1", "http://a.com/s2",
             "http://a.com/s3", "http://b.com"]
    pol = HostPolicy(
        {h: {"crawl_delay_ms": 1000, "robots_disallow": []} for h in ("a.com", "b.com", "c.com")},
        round_ms=1000,
    )
    return url_map, seeds, pol


@pytest.mark.parametrize("residency", list(RESIDENCY))
def test_depth_capped_claim_wins_then_url_stays_admittable(residency):
    url_map, seeds, pol = _depth_race_web()
    odocs, _ = OracleCrawl(url_map, seeds, policy=pol, max_num=0, max_depth=2).run()
    oracle_ids = {d["doc_id"] for d in odocs}
    assert "http://c.com/w" in oracle_ids      # re-admitted after capped claim
    assert "http://c.com/x" not in oracle_ids  # capped min-order claim kills it
    assert len(oracle_ids) == 10
    docs, _, _ = greedy_crawl(ray.put(url_map), seeds, policy=pol,
                              max_num=0, max_depth=2, num_shards=2,
                              **RESIDENCY[residency])
    assert set(docs.to_pandas()["doc_id"]) == oracle_ids


def test_max_idle_time_watchdog(ray_session):
    """D10 (downloader.py:195-205): with max_idle_time set, the crawl
    stops after the idle window once rounds stop producing docs/downloads/
    links — here five 404-only seeds on one budget-1 host would otherwise
    burn five zero-progress rounds."""
    seeds = [f"http://a.com/s{i}" for i in range(5)]
    url_map = {u: (404, b"gone") for u in seeds}
    pol = HostPolicy({"a.com": {"crawl_delay_ms": 1000, "robots_disallow": []}},
                     round_ms=1000)
    ref = ray.put(url_map)
    _d, _r, metrics = greedy_crawl(ref, seeds, policy=pol, max_num=0, max_depth=2,
                                   num_shards=2)
    assert len(metrics) == 5  # no watchdog: one idle round per deferred seed
    _d, _r, metrics = greedy_crawl(ref, seeds, policy=pol, max_num=0, max_depth=2,
                                   num_shards=2, max_idle_time=0.0)
    assert len(metrics) == 1 and metrics[-1].get("idle_stop")


def test_delta_checkpoints_resume_across_chain(ray_session, tmp_path, monkeypatch):
    """Rounds between full snapshots checkpoint only the inserted-key
    delta (O(novel) bytes, not O(capacity)); resuming from the middle of a
    delta chain replays onto the last full snapshot and continues to the
    same outputs as a fresh run."""
    import json
    import os

    from icrawler_ray.pipelines import greedy

    web = make_synthweb(n_pages=60, n_hosts=3, seed=7)
    pol = HostPolicy(web.host_policy, round_ms=1000)
    ref = ray.put(web.url_map())
    ck = str(tmp_path / "ck")

    golden, gres, _ = greedy_crawl(ref, web.domains, policy=pol, max_num=25,
                                   max_depth=3, num_shards=2)

    monkeypatch.setattr(greedy, "_SEEN_FULL_EVERY", 100)  # rounds 1-2 = deltas
    c1 = GreedyCrawl(ref, web.domains, policy=pol, max_num=25, max_depth=3,
                     num_shards=2, checkpoint_dir=ck, max_rounds=3)
    c1.run()
    c1.shutdown()
    full0 = os.path.join(ck, "round=0", "seen_pages", "shard=0.full.npz")
    assert os.path.isfile(full0)
    for r in (1, 2):
        assert os.path.isfile(os.path.join(ck, f"round={r}", "seen_pages", "shard=0.delta.npy"))
        assert not os.path.isfile(os.path.join(ck, f"round={r}", "seen_pages", "shard=0.full.npz"))
    # delta files are key-sized, far smaller than the full filter snapshot
    full_sz = os.path.getsize(full0)
    delta_sz = os.path.getsize(os.path.join(ck, "round=2", "seen_pages", "shard=0.delta.npy"))
    assert delta_sz < full_sz / 10
    # lineage names the seen files each round actually wrote, with their kind
    lineage = json.load(open(os.path.join(ck, "MANIFEST.json")))["lineage"]
    assert [x["seen"]["kind"] for x in lineage] == ["full", "delta", "delta"]
    for x in lineage:
        for kind in ("pages", "files"):
            assert len(x["seen"][kind]) == 2
            for f in x["seen"][kind]:
                assert os.path.isfile(os.path.join(ck, f["path"])), f

    c2 = GreedyCrawl(ref, web.domains, policy=pol, max_num=25, max_depth=3,
                     num_shards=2, checkpoint_dir=ck)
    docs, results, metrics = c2.run()
    c2.shutdown()
    assert c2.start_round == 3  # resumed from the tip of the delta chain
    assert all(m["seen_ckpt_bytes"] > 0 for m in metrics)
    gdf = golden.to_pandas()
    edf = docs.to_pandas()
    assert set(gdf["doc_id"]) == set(edf["doc_id"])
    grf = gres.to_pandas().sort_values("filename")
    erf = results.to_pandas().sort_values("filename")
    assert list(zip(grf.file_url, grf.filename)) == list(zip(erf.file_url, erf.filename))


def test_checkpoint_pruning_keeps_only_resume_chain(ray_session, tmp_path, monkeypatch):
    """After each round's atomic publish, bulky state a resume can no
    longer need is pruned: rounds before the latest full snapshot vanish,
    delta rounds in the live chain lose their frontier snapshot (kept
    only for the tip), while manifest lineage/metrics keep full history."""
    import json
    import os

    from icrawler_ray.pipelines import greedy

    web = make_synthweb(n_pages=60, n_hosts=3, seed=7)
    pol = HostPolicy(web.host_policy, round_ms=1000)
    ref = ray.put(web.url_map())
    ck = str(tmp_path / "ck")

    monkeypatch.setattr(greedy, "_SEEN_FULL_EVERY", 2)  # fulls at rounds 0, 2, ...
    c = GreedyCrawl(ref, web.domains, policy=pol, max_num=25, max_depth=3,
                    num_shards=2, checkpoint_dir=ck)
    c.run()
    assert c._host_rank.shards is None  # no host rank: no counter actors started
    c.shutdown()
    last = json.load(open(os.path.join(ck, "MANIFEST.json")))["last_round"]
    assert last >= 2
    fulls = [r for r in range(last + 1)
             if os.path.isfile(os.path.join(ck, f"round={r}", "seen_pages", "shard=0.full.npz"))]
    last_full = max(f for f in fulls if f <= last)
    for r in range(last_full):  # pre-chain rounds: all checkpoint state gone
        rd = os.path.join(ck, f"round={r}")
        assert not os.path.isdir(os.path.join(rd, "frontier")), r
        assert not any(f.startswith("seen_") for f in os.listdir(rd)), r
    for r in range(last_full, last):  # live chain: seen kept, frontier pruned
        rd = os.path.join(ck, f"round={r}")
        assert any(f.startswith("seen_") for f in os.listdir(rd)), r
        assert not os.path.isdir(os.path.join(rd, "frontier")), r
    # output partitions survive pruning (they are final data, not state)
    assert os.path.isdir(os.path.join(ck, "round=0", "docs"))
    # manifest lineage still records every round
    m = json.load(open(os.path.join(ck, "MANIFEST.json")))
    assert [x["round"] for x in m["lineage"]][:3] == [0, 1, 2]

    # a fresh GreedyCrawl still resumes from the pruned dir
    c2 = GreedyCrawl(ref, web.domains, policy=pol, max_num=25, max_depth=3,
                     num_shards=2, checkpoint_dir=ck)
    c2.run()
    c2.shutdown()
    assert c2.start_round == last + 1


def test_resume_from_pre_shard_file_checkpoint_raises(small_web, small_ref, policy, tmp_path):
    """A checkpoint dir from before seen shards wrote their own files has
    seen_pages.parquet and a lineage without per-shard seen records: the
    resume must say which record is missing, not fail on a lookup."""
    import json
    import os

    import pyarrow.parquet as pq

    from icrawler_ray.pipelines.greedy import _frontier_table

    rd = tmp_path / "round=0"
    os.makedirs(rd / "frontier")
    pq.write_table(_frontier_table(small_web.domains, [0] * 3, range(3)),
                   str(rd / "frontier" / "part-0.parquet"))
    for kind in ("pages", "files"):
        (rd / f"seen_{kind}.parquet").write_bytes(b"")
    (tmp_path / "MANIFEST.json").write_text(json.dumps({
        "last_round": 0, "counters": {"dl_count": 0, "next_seq": 3},
        "rounds": [{"round": 0, "metrics": {}}],
        "lineage": [{"round": 0, "parent": -1, "frontier": "round=0/frontier",
                     "seen": ["round=0/seen_pages.parquet", "round=0/seen_files.parquet"]}]}))
    c = GreedyCrawl(small_ref, small_web.domains, policy=policy, max_num=25, max_depth=3,
                    num_shards=2, checkpoint_dir=str(tmp_path))
    try:
        with pytest.raises(ValueError, match=r"no per-shard seen record for round 0"):
            c.run()
    finally:
        c.shutdown()


def test_dataset_mode_resume_equals_fresh(small_web, small_ref, policy, golden, tmp_path):
    """Checkpoint/resume parity with the frontier held as an object-store
    Dataset: interrupt after 2 rounds, resume with a new GreedyCrawl,
    outputs equal the fresh golden run (frontier checkpointed via
    distributed parquet)."""
    c1 = GreedyCrawl(
        small_ref, small_web.domains, policy=policy, max_num=25, max_depth=3,
        num_shards=2, driver_threshold=0, checkpoint_dir=str(tmp_path), max_rounds=2,
    )
    c1.run()
    c1.shutdown()
    c2 = GreedyCrawl(
        small_ref, small_web.domains, policy=policy, max_num=25, max_depth=3,
        num_shards=2, driver_threshold=0, checkpoint_dir=str(tmp_path),
    )
    docs, results, _ = c2.run()
    c2.shutdown()
    assert c2.start_round == 2
    _assert_parity(golden, docs, results)


def test_host_rank_sharded_counters_match_dict_and_hold_1e5_hosts(ray_session):
    """The hash-partitioned counter shards must count exactly like an
    independent in-test dict, and the driver must hold NO per-host state —
    exercised at >= 1e5 distinct hosts (the scale a driver dict was
    flagged for) through the crawl's own priority rewrite."""
    import pyarrow as pa

    from icrawler_ray.schemas import FRONTIER
    from icrawler_ray.state.hostrank import HostRankState

    rng = np.random.default_rng(3)
    n_hosts = 120_000
    hosts = np.array([f"h{i}.example.com" for i in range(n_hosts)], dtype=object)

    state = HostRankState(num_shards=4)
    assert state.shards is None  # no counter actors before the first round
    expect = {}
    for _round in range(3):
        take = hosts[rng.integers(0, n_hosts, size=80_000)]
        n = len(take)
        rows = pd.DataFrame({
            "url": [f"http://{h}/p{i}" for i, h in enumerate(take)],
            "url_canon": [f"http://{h}/p{i}" for i, h in enumerate(take)],
            "url_hash": np.arange(n, dtype=np.uint64),
            "host": take, "depth": np.ones(n, dtype=np.int32),
            "priority": np.ones(n), "discovered_seq": np.arange(n, dtype=np.int64),
            "parent_doc_id": [""] * n})
        new = ray.data.from_arrow(pa.Table.from_pandas(rows, preserve_index=False)
                                  .cast(FRONTIER)).repartition(8)
        out = state.rewrite_priorities(new, FRONTIER).to_pandas()
        assert len(out) == n
        for h in take.tolist():
            expect[h] = expect.get(h, 0) + 1
        got = np.rint(np.expm1(out["priority"].to_numpy() - 1.0)).astype(np.int64)
        want = np.array([expect[h] for h in out["host"].tolist()], dtype=np.int64)
        np.testing.assert_array_equal(got, want)
    assert len(expect) > 100_000
    assert set(vars(state)) == {"num_shards", "shards"}  # no driver-side counts
    state.reset()


def test_host_rank_ds_rewrite_1m_hosts_off_driver(ray_session):
    """VERDICT r4 #4: in sharded mode the per-round distinct-host frame
    must stay a Dataset — rewrite_priorities over a 1M-distinct-host
    round frontier built OFF-driver, with a driver RSS pin (the old path
    pulled the (host, n) frame to the driver: ~100 MB of host strings at
    this scale) and exact priorities spot-checked against the counter
    semantics."""
    import resource

    import numpy as np
    import pyarrow as _pa

    from icrawler_ray.schemas import FRONTIER
    from icrawler_ray.state.hostrank import HostRankState

    n = 1_000_000

    def make_rows(t):
        ids = t["id"].to_numpy()
        z = np.zeros(len(ids))
        return _pa.table({
            "url": _pa.array([f"http://h{i}.com/p" for i in ids]),
            "url_canon": _pa.array([f"http://h{i}.com/p" for i in ids]),
            "url_hash": _pa.array(ids.astype(np.uint64)),
            "host": _pa.array([f"h{i}.com" for i in ids]),
            "depth": _pa.array(np.ones(len(ids), dtype=np.int32)),
            "priority": _pa.array(z + 1.0),
            "discovered_seq": _pa.array(ids.astype(np.int64)),
            "parent_doc_id": _pa.array([""] * len(ids)),
        }, schema=FRONTIER)

    state = HostRankState(num_shards=4)
    # warm-up on a small frame pays Ray Data's one-time driver machinery
    warm = ray.data.range(1000).map_batches(make_rows, batch_format="pyarrow")
    state.rewrite_priorities(warm, FRONTIER)
    state.reset()

    frontier = ray.data.range(n).map_batches(make_rows, batch_format="pyarrow")
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = state.rewrite_priorities(frontier, FRONTIER)
    assert out.count() == n
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert (rss1 - rss0) * 1024 < 48 << 20, (
        f"driver RSS grew {(rss1 - rss0) // 1024} MiB in sharded host-rank")
    # each host unique: every priority must be 1 + log1p(1)
    sample = out.limit(500).to_pandas()
    np.testing.assert_allclose(sample["priority"], 1.0 + np.log1p(1.0))
    # second round doubles the counts -> 1 + log1p(2)
    out2 = state.rewrite_priorities(frontier, FRONTIER)
    sample2 = out2.limit(500).to_pandas()
    np.testing.assert_allclose(sample2["priority"], 1.0 + np.log1p(2.0))
    state.reset()


class _CountingCrawl(GreedyCrawl):
    """Counts Ray Data executions (StreamingExecutor constructions) per
    round, split into the gate and frontier store, whose count depends on
    the residency, and the stages after the gate, which are one code path."""

    def __init__(self, *a, executions, **kw):
        super().__init__(*a, **kw)
        self._n = executions
        self.rounds = []  # (stage executions, gate+store executions, metrics)

    def _counted(self, fn, *a):
        n0 = self._n[0]
        out = fn(*a)
        self._frontier_n += self._n[0] - n0
        return out

    def _gate(self):
        return self._counted(super()._gate)

    def _store_frontier(self, *a):
        return self._counted(super()._store_frontier, *a)

    def _run_round(self, round_idx):
        self._frontier_n, n0 = 0, self._n[0]
        m = super()._run_round(round_idx)
        self.rounds.append((self._n[0] - n0 - self._frontier_n, self._frontier_n, m))
        return m


@pytest.mark.parametrize("with_dir", [False, True], ids=["no_dir", "out_dir"])
@pytest.mark.parametrize("residency", list(RESIDENCY))
def test_executions_per_round(web, url_map_ref, tmp_path, monkeypatch, residency, with_dir):
    """Pins the Ray Data executions of a round: parse (1), the docs
    materialise of a crawl without a round dir (1), fetch and results
    persist (2, with winning tasks) and link admit (1, with winning
    links). The control values (error and doc counts, the kept files'
    keys) ride the task reports and cost none; with a round dir the parse
    tasks write the docs. A round that gains an execution fails here."""
    import ray.data._internal.execution.streaming_executor as se

    n = [0]
    init = se.StreamingExecutor.__init__

    def counting_init(self, *a, **kw):
        n[0] += 1
        init(self, *a, **kw)

    monkeypatch.setattr(se.StreamingExecutor, "__init__", counting_init)
    # 10 pages per host and round: the last round's pages find nothing new
    pol = HostPolicy({h: {"crawl_delay_ms": 100} for h in web.host_policy}, round_ms=1000)
    c = _CountingCrawl(url_map_ref, web.domains, policy=pol, max_depth=3, num_shards=2,
                       executions=n, **RESIDENCY[residency],
                       **({"out_dir": str(tmp_path)} if with_dir else {}))
    try:
        c.run()
    finally:
        c.shutdown()
    base = 1 if with_dir else 2  # parse, + docs materialise without a dir
    assert any(m["downloads"] for _, _, m in c.rounds)
    last = c.rounds[-1][2]
    assert not last["downloads"] and not last["new_links"]
    for stages, frontier, m in c.rounds:
        if m["downloads"]:
            assert stages <= base + 3, (m["round"], stages)
        elif m["new_links"]:
            assert stages <= base + 2, (m["round"], stages)
        else:
            assert stages == base, (m["round"], stages)
        # driver residency: gate and store run on the driver table
        assert frontier <= (0 if residency == "driver" else 5), (m["round"], frontier)

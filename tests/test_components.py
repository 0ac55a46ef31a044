"""Tests for round-1 late additions: procedural web, claim protocol,
storage sinks, proxy pool, CrawlPlan, media stages, dedup/similarity/text
operators."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from icrawler_ray.functions.html import scan_page
from icrawler_ray.stages.media import DecodeImage, ResizeStub, require_real_codec
from icrawler_ray.state.proxy import Proxy, ProxyPoolState
from icrawler_ray.storage.sinks import FileSystemSink, ParquetDirSink, resolve_sink
from icrawler_ray.synthweb import fakeimg
from icrawler_ray.synthweb.procedural import ProceduralSession, ProceduralWeb


# ------------------------------------------------------------ procedural web

def test_procedural_determinism_across_sessions():
    w = ProceduralWeb(500, n_hosts=4, seed=9)
    s1 = ProceduralSession(w.spec())
    s2 = ProceduralSession(w.spec())
    for i in (0, 17, 499):
        u = w.url_of(i)
        assert s1.get(u).content == s2.get(u).content
        assert s1.get(u).status_code == s2.get(u).status_code


def test_procedural_web_is_closed():
    """every link/media target a page emits is servable by the stub."""
    w = ProceduralWeb(200, n_hosts=4, seed=3)
    s = ProceduralSession(w.spec())
    checked = 0
    for i in range(0, 200, 20):
        if w.page_status(i) != 200:
            continue
        body = s.get(w.url_of(i)).text
        for kind, _t, ref in scan_page(body):
            if kind == "text":
                continue
            r = s.get(ref)
            assert r.status_code in (200, 404, 500)
            checked += 1
    assert checked > 10


def test_procedural_host_skew():
    w = ProceduralWeb(10_000, n_hosts=8, seed=1, hot_frac=0.3)
    hosts = [w.host_of(i) for i in range(10_000)]
    assert sum(h == 0 for h in hosts) == pytest.approx(3000, abs=5)


# ------------------------------------------------------------ claim protocol

def test_claim_protocol_min_order_and_seen(ray_session):
    from icrawler_ray.state.seen import ShardedSeenSet

    seen = ShardedSeenSet("claimtest", num_shards=2, capacity_per_shard=4096)
    try:
        keys = np.array([10, 20, 10, 30], dtype=np.uint64)
        packed = np.array([5, 7, 3, 9], dtype=np.int64)
        # claims split across two calls, arbitrary order
        for s in range(2):
            m = (keys % 2) == s
            ray.get(seen.shards[s].claim.remote(keys[m][::-1], packed[m][::-1]))
        wk, wp = seen.finish_round_winners()
        got = dict(zip(wk.tolist(), wp.tolist()))
        assert got == {10: 3, 20: 7, 30: 9}  # min packed wins for dup key 10
        # next round: all three keys are seen now
        for s in range(2):
            m = (keys % 2) == s
            ray.get(seen.shards[s].claim.remote(keys[m], packed[m]))
        wk, _ = seen.finish_round_winners()
        assert len(wk) == 0
    finally:
        seen.shutdown()


# ------------------------------------------------------------------- sinks

def test_filesystem_sink_roundtrip(tmp_path):
    sink = FileSystemSink(str(tmp_path))
    sink.write("000005.jpg", b"data")
    sink.write("sub/000009.txt", "text")
    assert sink.exists("000005.jpg") and sink.exists("sub/000009.txt")
    assert sink.max_file_idx() == 5  # integer-stem scan, non-int names skipped
    (tmp_path / "junk.bin").write_bytes(b"")
    assert sink.max_file_idx() == 5


def test_parquet_dir_sink_partitions(tmp_path):
    sink = ParquetDirSink(str(tmp_path))
    t = pa.table({"a": [1, 2, 3]})
    sink.write_table(t, "round=0")
    sink.write_table(t, "round=1")
    assert sink.finished_partitions() == ["round=0", "round=1"]
    back = sink.read_partition("round=0")
    assert back.num_rows == 3
    assert sink.read_partition("round=9") is None


def test_resolve_sink():
    assert isinstance(resolve_sink({"backend": "FileSystem", "root_dir": "/tmp/x"}),
                      FileSystemSink)
    assert isinstance(
        resolve_sink({"backend": "icrawler_ray.storage.sinks.ParquetDirSink",
                      "root_dir": "/tmp/y"}), ParquetDirSink)
    with pytest.raises(ValueError):
        resolve_sink({"backend": "NopeSink"})
    with pytest.raises(TypeError):
        resolve_sink(42)


# -------------------------------------------------------------- proxy pool

def test_proxy_pool_weights():
    st = ProxyPoolState()
    p1 = Proxy("1.1.1.1:80")
    st.add(p1)
    st.decrease_weight(p1)
    assert p1.weight == pytest.approx(0.9)
    st.increase_weight(p1)
    assert p1.weight == pytest.approx(1.0)  # capped at 1
    # drop below the floor -> removed from pool
    for _ in range(20):
        st.decrease_weight(p1)
    assert p1 not in st.proxies["http"]
    assert st.get_next("http") is None


def test_proxy_pool_weighted_choice_prefers_healthy():
    st = ProxyPoolState()
    good, bad = Proxy("good:80", weight=1.0), Proxy("bad:80", weight=0.25)
    st.add(good)
    st.add(bad)
    picks = [st.get_next("http").addr for _ in range(300)]
    assert picks.count("good:80") > picks.count("bad:80") * 2


# ------------------------------------------------------------ media stages

def test_media_stages_stub_contract(ray_session):
    t = pa.table({
        "doc_id": [1, 2, 3],
        "content": [fakeimg.encode(400, 100), b"garbage", None],
    })
    out = ResizeStub(max_side=200)(DecodeImage()(t)).to_pandas()
    assert out.loc[0, "decode_ok"] and out.loc[0, "target_w"] == 200 and out.loc[0, "target_h"] == 50
    assert not out.loc[1, "decode_ok"] and out.loc[1, "target_w"] == -1
    assert not out.loc[2, "decode_ok"]
    with pytest.raises(NotImplementedError):
        require_real_codec("video frame sampling")


# --------------------------------------- dedup / similarity / text operators

def test_minhash_lsh_finds_planted_near_dups(ray_session):
    texts = []
    base = " ".join(f"w{i}" for i in range(60))
    texts.append(base)
    texts.append(base + " extra tail dup")          # near-dup of 0
    texts.extend(" ".join(f"x{i}_{j}" for i in range(50)) for j in range(6))
    ds = ray.data.from_items([{"doc_id": i, "text": t} for i, t in enumerate(texts)])
    from icrawler_ray.stages.dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(ds, jaccard_threshold=0.5)
    assert [(int(a), int(b)) for a, b in zip(pairs.a, pairs.b)] == [(0, 1)]
    assert pairs.jaccard.iloc[0] > 0.8


def test_simhash_hamming(ray_session):
    from icrawler_ray.stages.dedup import simhash64

    h = simhash64(["a b c d e f g h", "a b c d e f g h", "completely different words here"])
    assert h[0] == h[1]
    assert bin(int(h[0]) ^ int(h[2])).count("1") > 4


def test_knn_lsh_subset_of_bruteforce(ray_session):
    rng = np.random.default_rng(0)
    vecs = rng.standard_normal((200, 16))
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(200)]
    )
    from icrawler_ray.stages.similarity import brute_force_topk, lsh_bucketed_topk

    q = vecs[:2]
    bf = brute_force_topk(ds, q, k=5, query_ids=np.array([0, 1]))
    assert len(bf) == 10 and (bf.groupby("query_id")["rank"].max() == 5).all()
    # brute force rank-1 for q0 is its own bucket... LSH returns a subset of
    # true neighbors with sims matching brute-force values where present
    lsh = lsh_bucketed_topk(ds, q, k=5, query_ids=np.array([0, 1]))
    merged = lsh.merge(bf, on=["query_id", "vec_id"], suffixes=("_l", "_b"))
    if len(merged):
        assert np.allclose(merged.sim_l, merged.sim_b, atol=1e-9)


def test_token_stats_and_langid(ray_session):
    from icrawler_ray.stages.textfns import langid_scores, token_stats

    t = pa.table({"doc_id": [1, 2], "text": ["the a the word", "uno dos tres"]})
    out = token_stats(t).to_pandas()
    assert out.n_tokens.tolist() == [4, 3]
    assert out.n_stop.tolist() == [3, 0]
    assert out.stop_ratio.tolist() == [0.75, 0.0]
    lid = langid_scores(pa.table({"doc_id": [1], "text": ["the cat and the dog of a to"]})).to_pandas()
    assert lid.pred_lang.iloc[0] == "en"


# --------------------------------------------------------------- CrawlPlan

def test_crawl_plan_urllist_and_custom_rules(ray_session, web, url_map_ref):
    from icrawler_ray.pipelines.plan import CrawlPlan

    plan = CrawlPlan(url_map_ref=url_map_ref, kind="urllist", seeds=web.seeds, max_num=5)
    out = plan.run().to_pandas()
    assert len(out) == 5 and out.filename.iloc[0].startswith("000001")

    # post_stages hook = process_meta equivalent
    def tag(t: pa.Table) -> pa.Table:
        return t.append_column("tagged", pa.array([True] * t.num_rows))

    plan2 = CrawlPlan(url_map_ref=url_map_ref, kind="urllist", seeds=web.seeds,
                      max_num=3, post_stages=[tag])
    assert plan2.run().to_pandas().tagged.all()


# ----------------------------------------------------------------- sketches

def test_hll_accuracy_and_merge(ray_session):
    import duckdb

    from icrawler_ray.queries import q_hll_distinct

    out = q_hll_distinct("/root/testdata/sf0.01")
    con = duckdb.connect()
    exact_u = con.execute(
        "SELECT COUNT(DISTINCT user_id) FROM read_parquet('/root/testdata/sf0.01/events.parquet')"
    ).fetchone()[0]
    exact_p = con.execute(
        "SELECT COUNT(DISTINCT l_partkey) FROM read_parquet('/root/testdata/sf0.01/lineitem.parquet')"
    ).fetchone()[0]
    rows = {r.col_name: r for r in out.itertuples()}
    assert rows["events.user_id"].n_exact == exact_u
    assert rows["lineitem.l_partkey"].n_exact == exact_p
    assert rows["events.user_id"].within_3pct  # sketch estimate vs exact
    assert rows["lineitem.l_partkey"].within_3pct


# -------------------------------------------------- hot-host skew decoupling

def test_hot_host_skew_decoupled_from_dedup_shards(ray_session):
    """north-rule skew mitigation: the dedup/seen exchange is keyed by
    url_hash (uniform), NOT by host — a hot host holding 50% of the
    frontier must NOT concentrate claim traffic on one shard."""
    from icrawler_ray.functions.urlnorm import canonicalize, hash_urls
    import pandas as pd

    from icrawler_ray.synthweb.procedural import ProceduralWeb

    web = ProceduralWeb(20_000, n_hosts=8, seed=5, hot_frac=0.5)
    urls = pd.Series([web.url_of(i) for i in range(20_000)], dtype="string")
    hashes = hash_urls(canonicalize(urls).fillna(""))
    shards = hashes % 16
    counts = pd.Series(shards).value_counts()
    assert len(counts) == 16
    assert counts.max() / counts.min() < 1.2   # near-uniform despite 50% hot host

    # while the POLITENESS grouping does see the skew (by design), the
    # budget caps what a hot host contributes per round
    from icrawler_ray.stages.politeness import HostPolicy, _topk_per_host

    pol = HostPolicy({h: {"crawl_delay_ms": 100, "max_inflight": 8,
                          "robots_disallow": []} for h in web.hosts})
    df = pd.DataFrame({"url": urls, "host": [f"h{web.host_of(i)}.example.com" for i in range(20_000)],
                       "priority": 1.0, "seq": range(20_000)})
    gated = _topk_per_host(df, pol)
    assert gated.groupby("host").size().max() <= pol.budget("h0.example.com")


# ----------------------------------------- partitioned output dirs + resume

def test_greedy_out_dir_partitioned_and_resume_disk_complete(ray_session, tmp_path):
    """out_dir gets one results/docs dir per round (the resumable layout);
    after an interrupted run + resume, the union of on-disk partitions
    covers every round exactly once."""
    import os

    from icrawler_ray.pipelines.greedy import GreedyCrawl
    from icrawler_ray.stages.politeness import HostPolicy
    from icrawler_ray.synthweb.generate import make_synthweb

    web = make_synthweb(n_pages=60, n_hosts=3, seed=7)
    pol = HostPolicy(web.host_policy, round_ms=1000)
    ref = ray.put(web.url_map())
    out1 = str(tmp_path / "out")
    ck = str(tmp_path / "ck")

    c1 = GreedyCrawl(ref, web.domains, policy=pol, max_num=25, max_depth=3,
                     num_shards=2, out_dir=out1,
                     checkpoint_dir=ck, max_rounds=2)
    c1.run()
    c1.shutdown()
    rounds_before = sorted(d for d in os.listdir(out1) if d.startswith("round="))
    assert rounds_before  # partial run wrote per-round partitions

    c2 = GreedyCrawl(ref, web.domains, policy=pol, max_num=25, max_depth=3,
                     num_shards=2, out_dir=out1, checkpoint_dir=ck)
    _docs, results, metrics = c2.run()
    c2.shutdown()
    assert c2.start_round == 2  # resumed
    rounds_after = sorted(d for d in os.listdir(out1) if d.startswith("round="))
    # no round written twice, earlier rounds untouched, later rounds added
    assert rounds_after[: len(rounds_before)] == rounds_before
    assert len(rounds_after) >= len(rounds_before)

    # on-disk results across ALL rounds == oracle's full-run downloads
    import pyarrow.parquet as pq

    from icrawler_ray.oracle import OracleCrawl

    o = OracleCrawl(web.url_map(), web.domains, policy=pol, max_num=25, max_depth=3)
    _odocs, oresults = o.run()
    files = []
    for r in rounds_after:
        d = os.path.join(out1, r, "results")
        if os.path.isdir(d):
            for p in sorted(os.listdir(d)):
                files.append(pq.read_table(os.path.join(d, p)))
    import pyarrow as pa_

    disk = pa_.concat_tables(files).to_pandas().sort_values("filename")
    assert list(zip(disk.file_url, disk.filename)) == [
        (r["file_url"], r["filename"]) for r in oresults
    ]


def test_greedy_outputs_stay_off_driver(ray_session):
    """De-driver contract (VERDICT r1 #3): round outputs accumulate as
    object-store refs (or parquet partition dirs), never as driver-resident
    tables, and driver peak RSS grows by far less than the corpus size
    during a crawl with docs + downloaded content enabled."""
    import resource

    from icrawler_ray.pipelines.greedy import GreedyCrawl
    from icrawler_ray.stages.politeness import HostPolicy
    from icrawler_ray.synthweb.procedural import ProceduralWeb

    web = ProceduralWeb(n_pages=20_000, n_hosts=8, seed=3, spans_per_page=96)
    spec = ("procedural", web.spec())
    pol = HostPolicy({h: {"crawl_delay_ms": 0, "max_inflight": 64,
                          "robots_disallow": []} for h in web.hosts}, round_ms=1000)
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on linux
    crawl = GreedyCrawl(spec, web.domains, seeds=web.seed_urls(256), policy=pol,
                        max_num=0, max_depth=3, keep_content=True,
                        num_shards=4)
    try:
        docs, results, metrics = crawl.run()
        assert all(isinstance(p, ray.ObjectRef) for p in crawl.outputs.parts["docs"])
        assert all(isinstance(p, ray.ObjectRef) for p in crawl.outputs.parts["results"])
        n_docs = docs.count()
        doc_bytes = docs.size_bytes()
        assert n_docs > 5_000
        rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # corpus lives in the object store; driver peak growth must be well
        # under the corpus size (tables used to be concatenated on-driver)
        assert (rss1 - rss0) * 1024 < max(0.5 * doc_bytes, 64 << 20), (
            f"driver RSS grew {(rss1 - rss0) // 1024} MiB for a "
            f"{doc_bytes >> 20} MiB corpus")
    finally:
        crawl.shutdown()


def test_resume_replaces_stale_midround_partials(ray_session, tmp_path):
    """A crash between write_parquet and checkpoint leaves partial files in
    the next round's output dir; the resumed run re-executes that round and
    must REPLACE them (ADVICE r1: round dirs were append-only, duplicating
    rows)."""
    import os
    import shutil

    import pyarrow.parquet as pq

    from icrawler_ray.oracle import OracleCrawl
    from icrawler_ray.pipelines.greedy import GreedyCrawl
    from icrawler_ray.stages.politeness import HostPolicy
    from icrawler_ray.synthweb.generate import make_synthweb

    web = make_synthweb(n_pages=60, n_hosts=3, seed=7)
    pol = HostPolicy(web.host_policy, round_ms=1000)
    ref = ray.put(web.url_map())
    out1 = str(tmp_path / "out")
    ck = str(tmp_path / "ck")

    c1 = GreedyCrawl(ref, web.domains, policy=pol, max_num=25, max_depth=3,
                     num_shards=2, out_dir=out1,
                     checkpoint_dir=ck, max_rounds=2)
    c1.run()
    c1.shutdown()

    # fake a mid-round-2 crash: stale partial files in round=2 dirs, no
    # checkpoint for round 2
    for kind in ("docs", "results"):
        src = os.path.join(out1, "round=1", kind)
        dst = os.path.join(out1, "round=2", kind)
        if os.path.isdir(src):
            os.makedirs(dst, exist_ok=True)
            for p in os.listdir(src):
                shutil.copy(os.path.join(src, p), os.path.join(dst, "stale-" + p))

    c2 = GreedyCrawl(ref, web.domains, policy=pol, max_num=25, max_depth=3,
                     num_shards=2, out_dir=out1, checkpoint_dir=ck)
    _docs, _results, _ = c2.run()
    c2.shutdown()
    assert c2.start_round == 2

    # stale files gone, and on-disk union equals the oracle's full run
    for kind in ("docs", "results"):
        d = os.path.join(out1, "round=2", kind)
        if os.path.isdir(d):
            assert not [p for p in os.listdir(d) if p.startswith("stale-")]
    o = OracleCrawl(web.url_map(), web.domains, policy=pol, max_num=25, max_depth=3)
    _odocs, oresults = o.run()
    files = []
    for r in sorted(d for d in os.listdir(out1) if d.startswith("round=")):
        d = os.path.join(out1, r, "results")
        if os.path.isdir(d):
            files.extend(pq.read_table(os.path.join(d, p)) for p in sorted(os.listdir(d)))
    disk = pa.concat_tables(files).to_pandas().sort_values("filename")
    assert list(zip(disk.file_url, disk.filename)) == [
        (r["file_url"], r["filename"]) for r in oresults
    ]


def test_dataset_mode_frontier_stays_off_driver(ray_session):
    """Scale-path contract (VERDICT r1 #4): with the frontier held in the
    object store (driver_threshold=0), a 1M-row frontier round runs with
    the frontier as object-store Datasets end to end — the driver holds
    counts only, and its peak RSS grows by far less than the frontier
    size."""
    import resource

    from icrawler_ray.functions.urlnorm import canonicalize, hash_urls, hosts_of
    from icrawler_ray.pipelines.greedy import FRONTIER, GreedyCrawl
    from icrawler_ray.stages.politeness import HostPolicy
    from icrawler_ray.synthweb.procedural import ProceduralWeb

    n = 1_000_000
    web = ProceduralWeb(n_pages=n, n_hosts=16, seed=5, spans_per_page=16)
    spec = ("procedural", web.spec())
    # budget 1/host/round: the round fetches ~16 pages but the frontier
    # exchange (gate + deferred union) processes all 1M rows distributed
    pol = HostPolicy({h: {"crawl_delay_ms": 1000, "max_inflight": 4,
                          "robots_disallow": []} for h in web.hosts}, round_ms=1000)

    def mk_frontier(batch):
        i = batch["id"].to_numpy()
        urls = pd.Series([web.url_of(int(x)) for x in i], dtype="string")
        canon = canonicalize(urls)
        return pa.table({
            "url": pa.array(urls.astype(object), type=pa.string()),
            "url_canon": pa.array(canon.astype(object), type=pa.string()),
            "url_hash": pa.array(hash_urls(canon.fillna("")), type=pa.uint64()),
            "host": pa.array(hosts_of(urls).astype(object), type=pa.string()),
            "depth": pa.array(np.zeros(len(i), dtype=np.int32)),
            "priority": pa.array(np.ones(len(i), dtype=np.float64)),
            "discovered_seq": pa.array(i.astype(np.int64)),
            "parent_doc_id": pa.array([""] * len(i), type=pa.string()),
        }, schema=FRONTIER)

    frontier = ray.data.range(n).map_batches(
        mk_frontier, batch_format="pyarrow").materialize()
    fbytes = frontier.size_bytes()
    assert fbytes > 100 << 20  # the frontier is genuinely driver-RSS-sized

    crawl = GreedyCrawl(spec, web.domains, policy=pol, max_num=0, max_depth=1,
                        num_shards=4, driver_threshold=0)
    try:
        rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        crawl._set_frontier(frontier, count=n)
        crawl.next_seq = n
        m = crawl._run_round(0)
        rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert m["gated"] == 16  # one per host
        assert not isinstance(crawl._frontier, pa.Table)
        assert crawl._frontier_rows() >= n - 16
        assert (rss1 - rss0) * 1024 < max(0.4 * fbytes, 64 << 20), (
            f"driver RSS grew {(rss1 - rss0) // 1024} MiB for a "
            f"{fbytes >> 20} MiB frontier")
    finally:
        crawl.shutdown()


def test_cloud_storage_sink_local_fs_instantiation(tmp_path):
    """CloudStorageSink drives the same pyarrow.fs code path gs:// uses,
    instantiated offline over a LocalFileSystem URI."""
    from icrawler_ray.storage.sinks import CloudStorageSink, parse_bucket_uri, resolve_sink

    sink = resolve_sink({"backend": "CloudStorage", "root_dir": str(tmp_path / "blobs")})
    assert isinstance(sink, CloudStorageSink)
    sink.write("000001.jpg", b"bytes")
    sink.write("sub/000002.txt", "text")
    assert sink.exists("000001.jpg") and sink.exists("sub/000002.txt")
    assert not sink.exists("missing.jpg")
    # reference GCS quirk: max_file_idx == blob COUNT under the prefix
    assert sink.max_file_idx() == 2

    # bucket/prefix arithmetic mirrors google_storage.py:24-28 exactly
    assert parse_bucket_uri("gs://mybucket/some/dir") == ("mybucket", "some/dir")
    assert parse_bucket_uri("gs://mybucket/dir") == ("mybucket", "dir")


def test_proxy_scanners_and_validation_offline():
    """The four reference site scanners (proxy_pool.py:388-469) parse
    fixture HTML through the hermetic stub session; the validation loop
    (proxy_pool.py:231-300) admits only candidates the injected prober
    accepts, stopping at expected_num."""
    from icrawler_ray.state.proxy import (
        ProxyPoolState,
        run_scanner,
        scan_and_validate,
        scan_free_proxy_list,
    )
    from icrawler_ray.synthweb.fetchstub import StubSession

    def table(attrs, rows):
        trs = "".join(
            "<tr>" + "".join(f"<td>{c}</td>" for c in r) + "</tr>" for r in rows
        )
        return f'<table {attrs}><tr><th>h</th></tr>{trs}</table>'

    ip84 = table('class="list"', [["1.2.3.4", "80", "cn", "city", "HTTP", "x"],
                                  ["5.6.7.8", "8080", "cn", "city", "HTTPS", "x"]])
    cnproxy = table('class="sortable"', [["9.9.9.9", "3128", "city", "fast"]])
    fpl = table('id="proxylisttable"',
                [["10.0.0.1", "80", "US", "x", "elite proxy", "x", "yes", "x"],
                 ["10.0.0.2", "80", "US", "x", "anonymous", "x", "no", "x"],
                 ["10.0.0.3", "80", "US", "x", "elite proxy", "x", "no", "x"]])
    url_map = {
        "http://ip84.com/dlgn/1": (200, ip84.encode()),
        "http://www.mimiip.com/gngao/1": (200, ip84.encode()),
        "http://cn-proxy.com": (200, cnproxy.encode()),
        "http://free-proxy-list.net": (200, fpl.encode()),
    }
    s = StubSession(url_map)

    assert list(run_scanner("ip84", s, page=1)) == [
        {"addr": "1.2.3.4:80", "protocol": "http"},
        {"addr": "5.6.7.8:8080", "protocol": "https"},
    ]
    assert list(run_scanner("mimiip", s, page=1))[0]["addr"] == "1.2.3.4:80"
    assert list(run_scanner("cnproxy", s)) == [{"addr": "9.9.9.9:3128", "protocol": "http"}]
    # elite-only filter + https-when-yes (proxy_pool.py:461-468)
    assert list(scan_free_proxy_list(s)) == [
        {"addr": "10.0.0.1:80", "protocol": "https"},
        {"addr": "10.0.0.3:80", "protocol": "http"},
    ]

    # validation loop: injected prober accepts only 10.0.0.x, cap at 2
    st = ProxyPoolState()
    cands = list(run_scanner("ip84", s)) + list(scan_free_proxy_list(s))
    n = scan_and_validate(
        st, [cands], expected_num=2,
        is_valid_fn=lambda a, p: {"valid": a.startswith("10.")} if a.startswith("10.")
        else {"valid": False, "msg": "refused"})
    assert n == 2
    addrs = {p.addr for pool in st.proxies.values() for p in pool}
    assert addrs == {"10.0.0.1:80", "10.0.0.3:80"}


def test_frame_sample_and_audio_features(ray_session):
    from icrawler_ray.stages.media import AudioFeatures, FrameSample
    from icrawler_ray.synthweb.fakemedia import encode_audio, encode_video, pcm_byte

    t = pa.table({
        "doc_id": [1, 2, 3],
        "content": [encode_video(10, 10), encode_video(3, 20), b"garbage"],
    })
    out = FrameSample(k=4)(t).to_pandas()
    # n=10: idx = j*9//3 -> 0,3,6,9 with pts = idx*1000//10; n=3 <= k: all
    assert list(out[out.doc_id == 1].frame_idx) == [0, 3, 6, 9]
    assert list(out[out.doc_id == 1].pts_ms) == [0, 300, 600, 900]
    assert list(out[out.doc_id == 2].frame_idx) == [0, 1, 2]
    assert 3 not in set(out.doc_id)  # undecodable rows expand to nothing

    a = pa.table({
        "doc_id": [7, 8],
        "content": [encode_audio(8000, 250, seed=7), b"nope"],
    })
    feats = AudioFeatures(window=100)(a).to_pandas()
    row = feats[feats.doc_id == 7].iloc[0]
    assert row.sample_rate == 8000 and row.n_windows == 2
    assert row.energy == sum(pcm_byte(7, i) for i in range(200))
    assert row.peak == max(pcm_byte(7, i) for i in range(200))
    assert feats[feats.doc_id == 8].iloc[0].n_windows == -1  # undecodable


def test_ivf_topk_recall_and_sims(ray_session):
    """IVF candidates are true-similarity-scored (sims match brute force
    where present) and with full probing IVF == brute force exactly."""
    rng = np.random.default_rng(0)
    vecs = rng.standard_normal((300, 16))
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(300)]
    )
    from icrawler_ray.stages.similarity import brute_force_topk, ivf_topk

    q = vecs[:3]
    qi = np.array([0, 1, 2])
    bf = brute_force_topk(ds, q, k=5, query_ids=qi)
    # n_probe == n_centroids: every list probed -> identical to brute force
    full = ivf_topk(ds, q, k=5, query_ids=qi, n_centroids=8, n_probe=8)
    pd.testing.assert_frame_equal(full.reset_index(drop=True), bf.reset_index(drop=True))
    # partial probing: a subset with matching sims
    part = ivf_topk(ds, q, k=5, query_ids=qi, n_centroids=8, n_probe=2)
    merged = part.merge(bf, on=["query_id", "vec_id"], suffixes=("_i", "_b"))
    assert len(part) and np.allclose(merged.sim_i, merged.sim_b)


def test_simhash_banding_exact_recall(ray_session):
    """Pigeonhole banding guarantees every pair within max_hamming is
    found: compare against brute-force all-pairs on a small corpus."""
    from itertools import combinations

    from icrawler_ray.stages.dedup import simhash64, simhash_pairs

    rng = np.random.default_rng(3)
    base_words = [f"w{i}" for i in range(40)]
    texts = []
    for k in range(40):
        words = list(base_words)
        for _ in range(rng.integers(0, 6)):  # small perturbations -> near dups
            words[rng.integers(0, len(words))] = f"x{rng.integers(0, 30)}"
        texts.append(" ".join(words))
    texts += [" ".join(f"z{i}_{j}" for i in range(30)) for j in range(10)]  # far docs

    h = simhash64(texts)
    want = set()
    for i, j in combinations(range(len(texts)), 2):
        if bin(int(h[i]) ^ int(h[j])).count("1") <= 6:
            want.add((i, j))
    ds = ray.data.from_items([{"doc_id": i, "text": t} for i, t in enumerate(texts)])
    got = simhash_pairs(ds, max_hamming=6)
    got_pairs = {(int(a), int(b)) for a, b in zip(got.a, got.b)}
    assert got_pairs == want and len(want) > 0


def test_decontaminate_planted_overlap(ray_session, tmp_path):
    """A doc sharing an 8-gram with the benchmark head is flagged with the
    exact distinct-gram hit count; disjoint docs are clean."""
    import pyarrow.parquet as pq

    from icrawler_ray.queries import q_decontaminate

    bench_text = " ".join(f"b{i}" for i in range(20))          # doc_ids 0..19
    leak = " ".join(f"b{i}" for i in range(8)) + " tail words here"  # one 8-gram hit
    leak2 = " ".join(f"b{i}" for i in range(10))               # grams 0..7,1..8,2..9 -> 3 hits
    clean = " ".join(f"c{i}" for i in range(30))
    rows = [{"doc_id": i, "text": bench_text} for i in range(20)]
    rows += [{"doc_id": 20, "text": leak}, {"doc_id": 21, "text": leak2},
             {"doc_id": 22, "text": clean}]
    pq.write_table(pa.Table.from_pylist(rows), str(tmp_path / "documents.parquet"))

    out = q_decontaminate(str(tmp_path)).set_index("doc_id")
    assert bool(out.loc[20, "contaminated"]) and int(out.loc[20, "n_hits"]) == 1
    assert bool(out.loc[21, "contaminated"]) and int(out.loc[21, "n_hits"]) == 3
    assert not bool(out.loc[22, "contaminated"]) and int(out.loc[22, "n_hits"]) == 0


def test_repetition_stats_formula(ray_session, tmp_path):
    """dup_word_frac / top_bigram_frac match hand-computed values."""
    import pyarrow.parquet as pq

    from icrawler_ray.queries import q_repetition_stats

    rows = [
        {"doc_id": 0, "text": "a a a a"},        # dup 3/4, top bigram 'a a' 3/3
        {"doc_id": 1, "text": "a b c d"},        # dup 0, each bigram 1/3
        {"doc_id": 2, "text": "x"},              # single token: dup 0, no bigrams
        {"doc_id": 3, "text": "p q p q p"},      # dup 3/5, 'p q' 2/4
    ]
    pq.write_table(pa.Table.from_pylist(rows), str(tmp_path / "documents.parquet"))
    out = q_repetition_stats(str(tmp_path)).set_index("doc_id")
    assert out.loc[0, "dup_word_frac"] == 0.75 and out.loc[0, "top_bigram_frac"] == 1.0
    assert out.loc[1, "dup_word_frac"] == 0.0 and out.loc[1, "top_bigram_frac"] == round(1 / 3, 6)
    assert out.loc[2, "dup_word_frac"] == 0.0 and out.loc[2, "top_bigram_frac"] == 0.0
    assert out.loc[3, "dup_word_frac"] == round(1 - 2 / 5, 6) and out.loc[3, "top_bigram_frac"] == 0.5


def test_ngram_jaccard_hot_group_routes_to_lsh(ray_session):
    """A planted hot partition key (size > hot_group_threshold) must be
    routed through the distributed minhash-LSH + exact-verify path and
    still produce the IDENTICAL pair set the exact all-pairs stage finds
    at this similarity grade — while cold groups keep the exact path."""
    import pandas as pd
    from icrawler_ray.stages.dedup import ngram_jaccard_pairs_grouped

    rng = np.random.default_rng(5)
    rows = []
    # hot group: 60 docs, three planted near-dup clusters of 3 (word
    # overlap ~0.95 => every LSH band-match probability is ~1), rest unique
    for c in range(3):
        base = [f"h{c}_{i}" for i in range(40)]
        for v in range(3):
            words = list(base)
            words[v] = f"var{c}_{v}"
            rows.append({"doc_id": 100 + c * 10 + v, "text": " ".join(words),
                         "source": "hot"})
    for i in range(51):
        rows.append({"doc_id": 500 + i,
                     "text": " ".join(f"u{i}_{j}" for j in range(30)),
                     "source": "hot"})
    # cold group: one planted dup pair
    cold_base = [f"c{i}" for i in range(40)]
    rows.append({"doc_id": 1, "text": " ".join(cold_base), "source": "cold"})
    rows.append({"doc_id": 2, "text": " ".join(cold_base[:-1] + ["zz"]),
                 "source": "cold"})
    rng.shuffle(rows)
    ds = ray.data.from_items(rows).repartition(4)

    exact = ngram_jaccard_pairs_grouped(ds, threshold=0.6,
                                        hot_group_threshold=10**9)
    routed = ngram_jaccard_pairs_grouped(ds, threshold=0.6,
                                         hot_group_threshold=40)
    key = lambda df: sorted(zip(df.a.astype(int), df.b.astype(int),
                                df.jaccard.round(6)))
    assert key(routed) == key(exact)
    assert len(exact) == 3 * 3 + 1  # 3 pairs per planted cluster + cold pair


def test_ngram_jaccard_many_hot_keys_single_pass_parity(ray_session):
    """VERDICT r4 #1: 50+ planted hot keys must all ride ONE grouped-LSH
    dataset pass (not one rescan per key) and produce the identical pair
    set the exact path finds — including no cross-group leakage between
    hot keys that contain byte-identical texts."""
    from icrawler_ray.stages.dedup import ngram_jaccard_pairs_grouped

    rows = []
    n_hot = 50
    for g in range(n_hot):
        # each hot group: 6 docs, one planted near-dup pair; the planted
        # pair's TEXT IS IDENTICAL ACROSS GROUPS — a cross-group pairing
        # bug would emit ~n_hot^2 extra pairs
        base = [f"w{i}" for i in range(40)]
        rows.append({"doc_id": g * 100 + 1, "text": " ".join(base),
                     "source": f"g{g}"})
        rows.append({"doc_id": g * 100 + 2,
                     "text": " ".join(base[:-1] + ["zz"]), "source": f"g{g}"})
        for v in range(4):
            rows.append({"doc_id": g * 100 + 10 + v,
                         "text": " ".join(f"u{g}_{v}_{j}" for j in range(30)),
                         "source": f"g{g}"})
    # one cold group with a dup pair keeps the exact path exercised too
    cb = [f"c{i}" for i in range(40)]
    rows.append({"doc_id": 999901, "text": " ".join(cb), "source": "cold"})
    rows.append({"doc_id": 999902, "text": " ".join(cb[:-1] + ["qq"]),
                 "source": "cold"})
    ds = ray.data.from_items(rows).repartition(8)

    exact = ngram_jaccard_pairs_grouped(ds, threshold=0.6,
                                        hot_group_threshold=10**9)
    routed = ngram_jaccard_pairs_grouped(ds, threshold=0.6,
                                         hot_group_threshold=5)
    key = lambda df: sorted(zip(df.a.astype(int), df.b.astype(int),
                                df.jaccard.round(6)))
    assert key(routed) == key(exact)
    assert len(exact) == n_hot + 1  # one within-group pair per hot key + cold


def test_local_lsh_fallback_matches_exact_pairs():
    """The huge-vocab in-stage fallback (local LSH + exact verify) finds
    the same high-similarity pairs as brute force — no O(n^2) loop."""
    from icrawler_ray.stages.dedup import _local_lsh_wordset_pairs

    sets = []
    base = {f"w{i}" for i in range(50)}
    sets.append(base)
    sets.append((base - {"w0"}) | {"q"})
    sets.extend({f"z{i}_{j}" for j in range(30)} for i in range(10))
    ids = np.arange(len(sets), dtype=np.int64)
    got = _local_lsh_wordset_pairs(ids, sets, 0.6)
    assert list(zip(got["a"], got["b"])) == [(0, 1)]
    brute = [(i, j) for i in range(len(sets)) for j in range(i + 1, len(sets))
             if len(sets[i] & sets[j]) / len(sets[i] | sets[j]) >= 0.6]
    assert [(int(a), int(b)) for a, b in zip(got["a"], got["b"])] == brute


def test_minhash_to_pairs_components_end_to_end_dedup(ray_session):
    """Composition of the doc-scale dedup stack: minhash-LSH candidate
    pairs -> sparse pairs_components -> keep the min-id doc per cluster.
    Planted: two near-dup clusters (sizes 3 and 2) among unique docs —
    the keep set must be exactly {cluster minima} + {unique docs}."""
    from icrawler_ray.functions.seq import from_pandas_blocks
    from icrawler_ray.stages.dedup import minhash_lsh_pairs
    from icrawler_ray.stages.linkgraph import pairs_components

    rows = []
    base_a = " ".join(f"a{i}" for i in range(60))
    for j, did in enumerate((10, 11, 12)):
        rows.append({"doc_id": did, "text": base_a + f" tail{j}"})
    base_b = " ".join(f"b{i}" for i in range(60))
    for j, did in enumerate((20, 21)):
        rows.append({"doc_id": did, "text": base_b + f" end{j}"})
    for did in (30, 31, 32):
        rows.append({"doc_id": did,
                     "text": " ".join(f"u{did}_{i}" for i in range(40))})
    ds = ray.data.from_items(rows).repartition(3)

    pairs = minhash_lsh_pairs(ds, jaccard_threshold=0.5)
    edges = pd.DataFrame({"src": pairs["a"].to_numpy(dtype=np.int64),
                          "dst": pairs["b"].to_numpy(dtype=np.int64)})
    sparse = pairs_components(from_pandas_blocks(edges))
    lab = dict(zip(sparse["node"], sparse["component"]))
    all_ids = [r["doc_id"] for r in rows]
    kept = sorted(d for d in all_ids if lab.get(d, d) == d)
    assert kept == [10, 20, 30, 31, 32]
    assert lab == {10: 10, 11: 10, 12: 10, 20: 20, 21: 20}


def test_kmeans_recovers_planted_clusters(ray_session):
    """Three well-separated planted directions: every member lands with
    its plant-mates, and assignment equals the driver-side reference
    computation (same init, cosine argmax, raw-mean update)."""
    from icrawler_ray.stages.clustering import kmeans_assign

    rng = np.random.default_rng(7)
    centers = np.eye(3, 16) * 10.0
    rows = []
    for i in range(120):
        c = i % 3
        rows.append({"vec_id": i,
                     "embedding": (centers[c] + rng.standard_normal(16) * 0.1).tolist()})
    ds = ray.data.from_items(rows).repartition(4)
    out = kmeans_assign(ds, k=3, n_iter=2).to_pandas().sort_values("vec_id")
    assert len(out) == 120
    # purity: each planted group maps to exactly one cluster label
    planted = np.arange(120) % 3
    for g in range(3):
        labels = set(out.cluster[planted == g])
        assert len(labels) == 1
    assert len(set(out.cluster)) == 3
    assert (out.sim > 0.9).all()


def test_semantic_dedup_drops_planted_duplicates(ray_session):
    """Near-identical vectors inside a cluster collapse to the lowest id;
    distinct directions all survive."""
    from icrawler_ray.stages.clustering import semantic_dedup

    rng = np.random.default_rng(11)
    base = rng.standard_normal((4, 16))
    rows = []
    # ids round-robin over the base directions so the k lowest-id init
    # vectors span all four planted sets (5 near-copies per set)
    for vid in range(20):
        b = vid % 4
        rows.append({"vec_id": vid,
                     "embedding": (base[b] + rng.standard_normal(16) * 1e-3).tolist()})
    ds = ray.data.from_items(rows).repartition(3)
    kept = semantic_dedup(ds, k=4, n_iter=2, tau=0.99)
    # one survivor per planted duplicate set, and it is the lowest id
    assert sorted(kept.vec_id.tolist()) == [0, 1, 2, 3]


def test_topk_per_group_matches_pandas_reference(ray_session):
    """Per-batch partial top-3 + bounded merge == a straight pandas
    window rank over the whole table."""
    from icrawler_ray.queries import q_topk_per_group

    sf = "/root/testdata/sf0.001"
    got = q_topk_per_group(sf)
    df = pd.read_parquet(sf + "/orders.parquet",
                         columns=["o_orderkey", "o_orderpriority", "o_totalprice"])
    ref = (df.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True])
           .groupby("o_orderpriority", sort=False).head(3)
           .sort_values(["o_orderpriority", "o_totalprice", "o_orderkey"],
                        ascending=[True, False, True]).reset_index(drop=True))
    assert got.o_orderkey.tolist() == ref.o_orderkey.tolist()
    assert got["rank"].tolist() == ref.groupby("o_orderpriority").cumcount().add(1).tolist()


def test_weighted_sample_matches_pandas_reference(ray_session):
    """Distributed per-batch 50-best A-ES keys merge to the exact global
    50-best (scores are content-stable md5 exponential keys)."""
    from icrawler_ray.queries import q_weighted_sample
    from icrawler_ray.stages.dedup import md5_pair

    sf = "/root/testdata/sf0.001"
    got = q_weighted_sample(sf)
    df = pd.read_parquet(sf + "/orders.parquet", columns=["o_orderkey", "o_totalprice"])
    h = md5_pair([str(i) for i in df.o_orderkey])[:, 0]
    u = ((h % np.uint64(4294967296)).astype(np.float64) + 1.0) / 4294967297.0
    score = -np.log(u) / df.o_totalprice.to_numpy(dtype=np.float64)
    ref = df.assign(score=score).nsmallest(50, "score")
    assert sorted(got.o_orderkey) == sorted(ref.o_orderkey)
    # higher-weight rows must be overrepresented vs uniform
    assert ref.o_totalprice.mean() > df.o_totalprice.mean()


def test_shuffle_positions_is_a_permutation(ray_session):
    """Positions are a dense 0..n-1 permutation, stable across block
    structure, and NOT the identity (the hash actually shuffles)."""
    from icrawler_ray.queries import q_shuffle_positions

    sf = "/root/testdata/sf0.001"
    got = q_shuffle_positions(sf)
    n = len(got)
    assert sorted(got.pos.tolist()) == list(range(n))
    assert got.pos.tolist() != list(range(n))
    again = q_shuffle_positions(sf)
    assert got.pos.tolist() == again.pos.tolist()


def test_kmeans_empty_cluster_drops_not_reseeds(ray_session):
    """Two init centroids are near-identical, so one empties after the
    first assignment (ties go to the lowest centroid id). The engine must
    DROP it — surviving original ids only — matching the SQL oracle's
    vanishing-CTE-row semantics."""
    from icrawler_ray.stages.clustering import kmeans_fit

    rng = np.random.default_rng(5)
    a = rng.standard_normal(8)
    b = rng.standard_normal(8)
    rows = [{"vec_id": 0, "embedding": a.tolist()},
            {"vec_id": 1, "embedding": (a * 1.000001).tolist()},  # same direction
            {"vec_id": 2, "embedding": b.tolist()}]
    for i in range(3, 40):
        base = a if i % 2 else b
        rows.append({"vec_id": i,
                     "embedding": (base + rng.standard_normal(8) * 0.01).tolist()})
    ds = ray.data.from_items(rows).repartition(3)
    cids, cent = kmeans_fit(ds, k=3, n_iter=2)
    # centroid 1 (the duplicated direction, higher id) empties and drops
    assert cids.tolist() == [0, 2]
    assert len(cent) == 2


def test_bloom_semi_join_matches_pandas_reference(ray_session):
    """Bloom-probe + exact-verify semi-join == plain pandas isin merge
    (false positives must die in the verify step)."""
    from icrawler_ray.queries import q_bloom_semi_join

    sf = "/root/testdata/sf0.001"
    got = q_bloom_semi_join(sf)
    li = pd.read_parquet(sf + "/lineitem.parquet",
                         columns=["l_orderkey", "l_returnflag",
                                  "l_extendedprice", "l_discount"])
    orders = pd.read_parquet(sf + "/orders.parquet",
                             columns=["o_orderkey", "o_orderpriority"])
    keys = set(orders.loc[orders.o_orderpriority == "1-URGENT", "o_orderkey"])
    sel = li[li.l_orderkey.isin(keys)]
    ref = (sel.assign(rev=sel.l_extendedprice * (1.0 - sel.l_discount))
           .groupby("l_returnflag", as_index=False)
           .agg(n=("rev", "size"), revenue=("rev", "sum"))
           .sort_values("l_returnflag").reset_index(drop=True))
    assert got.l_returnflag.tolist() == ref.l_returnflag.tolist()
    assert got.n.tolist() == ref.n.tolist()
    assert np.allclose(got.revenue, np.round(ref.revenue, 2))


def test_hll_distinct_by_group_exact_at_low_cardinality(ray_session):
    """Sparse-range HLL is exact for small per-group cardinalities; one
    sketch per group regardless of row count or block structure."""
    from icrawler_ray.stages.sketches import hll_distinct_by

    rows = []
    for g, n in (("a", 30), ("b", 7), ("c", 1)):
        for i in range(n):
            for _ in range(3):  # repeats must not inflate the estimate
                rows.append({"g": g, "v": f"{g}-{i}"})
    ds = ray.data.from_items(rows).repartition(4)
    out = hll_distinct_by(ds, "g", "v").sort_values("g")
    est = dict(zip(out.g, out.estimate))
    for g, n in (("a", 30), ("b", 7), ("c", 1)):
        assert abs(est[g] / n - 1.0) <= 0.03


def test_paragraph_dedup_first_occurrence_wins(ray_session):
    """A chunk shared by two docs survives only in the lower doc_id; a
    doc made entirely of stolen chunks vanishes."""
    from icrawler_ray.queries import q_paragraph_dedup
    import pyarrow.parquet as pq
    import os, tempfile

    c1 = " ".join(f"w{i}" for i in range(8))
    c2 = " ".join(f"x{i}" for i in range(8))
    c3 = " ".join(f"y{i}" for i in range(8))
    docs = pd.DataFrame({
        "doc_id": ["d0", "d1", "d2"],
        "text": [c1 + " " + c2,      # owns both chunks
                 c2 + " " + c3,      # loses c2, keeps c3
                 c1],                # fully duplicated -> vanishes
    })
    with tempfile.TemporaryDirectory() as tmp:
        pq.write_table(pa.Table.from_pandas(docs), os.path.join(tmp, "documents.parquet"))
        out = q_paragraph_dedup(tmp)
    got = dict(zip(out.doc_id, out.text))
    assert got == {"d0": c1 + " " + c2, "d1": c3}


def test_quality_ntiles_remainder_rule(ray_session):
    """n=23, k=10: the first 3 buckets get 3 rows, the rest 2 — SQL
    NTILE's remainder rule, which the distributed bucket math must
    replicate exactly."""
    from icrawler_ray.queries import q_quality_ntiles
    import pyarrow.parquet as pq
    import os, tempfile

    docs = pd.DataFrame({"doc_id": [f"d{i:02d}" for i in range(23)],
                         "text": ["x" * (10 + i) for i in range(23)]})
    with tempfile.TemporaryDirectory() as tmp:
        pq.write_table(pa.Table.from_pandas(docs), os.path.join(tmp, "documents.parquet"))
        out = q_quality_ntiles(tmp).sort_values("len")
    sizes = out.bucket.value_counts().sort_index().tolist()
    assert sizes == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]
    # monotone: longer docs never land in a lower bucket
    assert (out.bucket.diff().dropna() >= 0).all()


def test_assign_global_seq_stays_off_driver(ray_session):
    """Scale contract (VERDICT r3 #1): assign_global_seq over a dataset
    with a fat binary column (the dataset-mode crawl shape,
    stages/download.py:178) must not pull blocks through the driver —
    peak driver RSS growth stays far below the dataset size, while the
    assigned sequence is still exactly the sort rank."""
    import resource

    from icrawler_ray.functions.seq import assign_global_seq

    n_blocks, rows_per_block, payload = 64, 2_000, 4_096  # ~500 MiB total

    def gen(batch):
        i = int(batch["id"][0].as_py())
        base = i * rows_per_block
        rng = np.random.default_rng(i)
        keys = rng.permutation(np.arange(base, base + rows_per_block))
        return pa.table({
            "k": pa.array(keys, type=pa.int64()),
            "content": pa.array([bytes([j % 251]) * payload
                                 for j in range(rows_per_block)], type=pa.binary()),
        })

    ds = ray.data.range(n_blocks, override_num_blocks=n_blocks) \
        .map_batches(gen, batch_size=1, batch_format="pyarrow")
    total_bytes = n_blocks * rows_per_block * payload
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on linux

    out = assign_global_seq(ds, ["k"], col="seq")
    # consume distributedly: narrow (k, seq) projection only
    slim = out.map_batches(lambda b: b.select(["k", "seq"]),
                           batch_format="pyarrow").to_pandas()
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert (rss1 - rss0) * 1024 < max(0.3 * total_bytes, 64 << 20), (
        f"driver RSS grew {(rss1 - rss0) // 1024} MiB assigning seq over a "
        f"{total_bytes >> 20} MiB binary dataset")
    slim = slim.sort_values("k").reset_index(drop=True)
    np.testing.assert_array_equal(slim["seq"].to_numpy(),
                                  np.arange(n_blocks * rows_per_block))


def test_paragraph_dedup_reassembly_stays_off_driver(ray_session):
    """Scale contract (VERDICT r3 #2): doc reassembly from winner chunks
    runs as per-block tasks + one boundary-stitch task — full document
    text never materializes on the driver (the chunk-winner groupby
    upstream is Ray's native shuffle and is not under test here)."""
    import resource

    from icrawler_ray.queries import _reassemble_docs

    # (doc_id, idx, para) winner rows, generated off-driver with doc
    # boundaries deliberately straddling block boundaries
    n_blocks, paras_per_block, paras_per_doc, plen = 32, 4_000, 20, 900

    def gen(batch):
        i = int(batch["id"][0].as_py())
        base = i * paras_per_block
        k = np.arange(base, base + paras_per_block)
        return pa.table({
            "doc_id": pa.array(k // paras_per_doc, type=pa.int64()),
            "idx": pa.array(k % paras_per_doc, type=pa.int64()),
            "para": pa.array([f"p{j:07d} " + "x" * plen for j in k]),
        })

    winners = ray.data.range(n_blocks, override_num_blocks=n_blocks) \
        .map_batches(gen, batch_size=1, batch_format="pyarrow").materialize()
    total_bytes = n_blocks * paras_per_block * (plen + 9)
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB

    out = _reassemble_docs(winners, int_ids=True)
    import pyarrow.compute as pc
    slim = out.map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"],
                            "n_chars": pc.utf8_length(t["text"]).cast(pa.int64())}),
        batch_format="pyarrow").to_pandas()
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert (rss1 - rss0) * 1024 < max(0.25 * total_bytes, 64 << 20), (
        f"driver RSS grew {(rss1 - rss0) // 1024} MiB reassembling a "
        f"{total_bytes >> 20} MiB corpus")
    n_docs = n_blocks * paras_per_block // paras_per_doc
    assert len(slim) == n_docs
    want = paras_per_doc * (plen + 9) + paras_per_doc - 1  # ' '-joined paras
    assert (slim["n_chars"].to_numpy() == want).all()


def test_ann_partials_are_topk_bounded(ray_session):
    """Scale contract (VERDICT r3 #3): LSH/IVF per-batch partials emit at
    most n_queries*(k+1) rows even when every corpus vector matches the
    probe — candidates are truncated in the batch, not on the driver."""
    from icrawler_ray.stages.similarity import (_make_ivf_partial,
                                                _make_lsh_partial, _normalize)

    n, dim, k, nq = 2000, 16, 5, 3
    rng = np.random.default_rng(0)
    base = np.abs(rng.standard_normal(dim)) + 0.5
    # identical direction + tiny noise: every vector lands in one LSH bucket
    vecs = base[None, :] * (1 + 1e-9 * rng.standard_normal((n, 1)))
    batch = pa.table({"vec_id": pa.array(range(n), type=pa.int64()),
                      "embedding": pa.array(vecs.tolist())})

    planes = np.random.default_rng(0).standard_normal((8, dim))
    qn = _normalize(vecs[:nq])
    qb = (qn @ planes.T > 0) @ (1 << np.arange(8))
    part = _make_lsh_partial(ray.put(planes), ray.put((qn, qb, np.arange(nq))),
                             k, "vec_id", "embedding")(batch)
    assert 0 < part.num_rows <= nq * (k + 1)

    cent = _normalize(rng.standard_normal((4, dim)))
    probe = np.tile(np.arange(4), (nq, 1))  # probe every list
    part = _make_ivf_partial(ray.put((cent, qn, probe, np.arange(nq))),
                             k, "vec_id", "embedding")(batch)
    assert 0 < part.num_rows <= nq * (k + 1)


def test_as_matrix_variants_match_pylist():
    """_as_matrix fast paths (list, large_list, fixed_size_list, sliced)
    must equal the to_pylist slow path bit-for-bit."""
    from icrawler_ray.stages.similarity import _as_matrix

    rng = np.random.default_rng(1)
    m = rng.standard_normal((50, 8))
    want = np.asarray(m, dtype=np.float64)
    lst = pa.array(m.tolist(), type=pa.list_(pa.float64()))
    big = pa.array(m.tolist(), type=pa.large_list(pa.float64()))
    fsl = pa.array(m.tolist(), type=pa.list_(pa.float64(), 8))
    np.testing.assert_array_equal(_as_matrix(lst), want)
    np.testing.assert_array_equal(_as_matrix(big), want)
    np.testing.assert_array_equal(_as_matrix(fsl), want)
    np.testing.assert_array_equal(_as_matrix(lst.slice(10, 20)), want[10:30])
    np.testing.assert_array_equal(_as_matrix(fsl.slice(10, 20)), want[10:30])
    np.testing.assert_array_equal(
        _as_matrix(pa.chunked_array([lst.slice(0, 25), lst.slice(25, 25)])), want)


def test_embedding_near_dup_hot_group_routing_parity(ray_session):
    """Scale contract (VERDICT r3 #4): forcing a label through the
    LSH-bucket + exact-verify route returns the same pairs as the dense
    per-group path on planted near-dups."""
    from icrawler_ray.stages.similarity import embedding_near_dup_pairs

    rng = np.random.default_rng(5)
    dim, n = 24, 300
    base = rng.standard_normal((n, dim))
    # plant 6 near-dup pairs: vec i+n = vec i + tiny noise
    planted = base[:6] + 1e-3 * rng.standard_normal((6, dim))
    vecs = np.vstack([base, planted])
    rows = [{"vec_id": i, "label": "hot", "embedding": vecs[i].tolist()}
            for i in range(len(vecs))]
    ds = ray.data.from_items(rows)

    dense = embedding_near_dup_pairs(ds, threshold=0.98)  # all-cold path
    routed = embedding_near_dup_pairs(ds, threshold=0.98, hot_group_threshold=50)
    assert len(dense) >= 6
    pd.testing.assert_frame_equal(dense.reset_index(drop=True),
                                  routed.reset_index(drop=True))


def test_semantic_dedup_hot_cluster_guard_parity(ray_session):
    """Scale contract (VERDICT r3 #5): forcing clusters through the
    distributed triangular chunk-pair sweep yields bit-identical kept
    rows to the single-task dense kernel."""
    from icrawler_ray.stages.clustering import semantic_dedup

    rng = np.random.default_rng(9)
    dim, n = 16, 400
    vecs = rng.standard_normal((n, dim))
    vecs[50:60] = vecs[40:50] + 1e-3 * rng.standard_normal((10, dim))  # planted dups
    rows = [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(n)]
    ds = ray.data.from_items(rows)

    dense = semantic_dedup(ds, k=3, tau=0.95)
    routed = semantic_dedup(ds, k=3, tau=0.95, hot_cluster_threshold=64)
    assert len(dense) < n  # the planted dups actually dropped
    pd.testing.assert_frame_equal(
        dense.reset_index(drop=True),
        routed.astype(dense.dtypes.to_dict()).reset_index(drop=True))


def test_winnow_pairs_planted_local_overlap(ray_session, tmp_path):
    """Winnowing guarantee: docs sharing a long region produce shared
    fingerprints and rank first; unrelated docs share none."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from icrawler_ray.queries import q_winnow_pairs

    shared = ("the quick brown fox jumps over the lazy dog again and "
              "again without stopping for breath at any point " * 3)
    rows = [
        {"doc_id": 0, "text": "prefix one. " + shared + " suffix alpha"},
        {"doc_id": 1, "text": "a very different opening here! " + shared
                              + " closing words beta"},
        {"doc_id": 2, "text": "zxqv " * 80},
        {"doc_id": 3, "text": "wmty " * 80},
    ]
    pq.write_table(pa.Table.from_pylist(rows),
                   str(tmp_path / "documents.parquet"))
    out = q_winnow_pairs(str(tmp_path))
    assert len(out) >= 1
    top = out.iloc[0]
    assert (int(top.doc_a), int(top.doc_b)) == (0, 1)
    assert int(top.n_shared) >= 5
    # the unrelated pure-repetition docs never pair with the planted two
    pairset = set(zip(out.doc_a.astype(int), out.doc_b.astype(int)))
    assert not any((a in (2, 3)) ^ (b in (2, 3)) for a, b in pairset)


def test_winnow_pairs_short_doc_blocks(ray_session, tmp_path):
    """Blocks holding only sub-gram-length docs must not break the
    bucketed exchange (schema-consistent empty partials)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from icrawler_ray.queries import q_winnow_pairs

    shared = "a repeated passage long enough to fingerprint " * 5
    rows = [{"doc_id": i, "text": ""} for i in range(40)]      # empty block
    rows += [{"doc_id": 40, "text": "abc"}, {"doc_id": 41, "text": "xy"}]
    rows += [{"doc_id": 42, "text": "p1 " + shared},
             {"doc_id": 43, "text": "p2! " + shared}]
    pq.write_table(pa.Table.from_pylist(rows),
                   str(tmp_path / "documents.parquet"))
    out = q_winnow_pairs(str(tmp_path))
    assert (int(out.iloc[0].doc_a), int(out.iloc[0].doc_b)) == (42, 43)


# ---------------------------------------------------------------------
# round-4 widening: charlm boundary masking, percent_rank ties,
# incremental band-dedup parity
# ---------------------------------------------------------------------

def _docs_dir(tmp_path, rows: dict) -> str:
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(pa.table(rows), str(tmp_path / "documents.parquet"))
    return str(tmp_path)


def test_charlm_masks_doc_boundaries_and_degenerate_docs(tmp_path):
    """The char-bigram counts must NOT include pairs straddering two
    docs concatenated in one batch, and 0/1-char docs score exactly 0.
    Pinned against a direct per-doc numpy replay of the same model."""
    import numpy as np

    from icrawler_ray.queries import q_charlm_quality

    texts = ["abcab", "za", "", "q", "bbbb"]
    d = _docs_dir(tmp_path, {"doc_id": list(range(5)), "text": texts})
    out = q_charlm_quality(d).set_index("doc_id")["nll"]

    # reference model: bigram/char counts over PER-DOC pairs only
    from collections import Counter
    bg = Counter()
    ch = Counter()
    for t in texts:
        ch.update(t)
        bg.update(t[i:i + 2] for i in range(len(t) - 1))
    V = len(ch)
    tot = Counter()
    for (p, n) in bg.items():
        tot[p[0]] += n
    for i, t in enumerate(texts):
        if len(t) < 2:
            assert out[i] == 0.0
            continue
        lps = [np.log((bg[t[j:j + 2]] + 1.0) / (tot[t[j]] + V))
               for j in range(len(t) - 1)]
        assert abs(out[i] - round(-float(np.mean(lps)), 6)) < 1e-9, i
    # boundary corruption check: 'az' (docs 0->1) must not be a counted bigram
    assert "az" not in bg


def test_percent_rank_ties_and_single_row_partition(tmp_path):
    """Tie groups share the min rank; a single-row partition is 0."""
    from icrawler_ray.queries import q_percent_rank

    d = _docs_dir(tmp_path, {
        "doc_id": [1, 2, 3, 4, 5, 6],
        "lang": ["en", "en", "en", "en", "en", "zh"],
        "n_chars": [10, 20, 20, 20, 30, 99],
    })
    out = q_percent_rank(d).set_index("doc_id")["pr"]
    assert out[1] == 0.0
    assert out[2] == out[3] == out[4] == 0.25  # rank 2 of 5 -> 1/4
    assert out[5] == 1.0
    assert out[6] == 0.0  # single-row partition


def test_block_rank_single_row_partition_warns_nothing():
    """A sorted block's single-row partition ranks 0.0 without dividing by
    zero (run in-process, so a RuntimeWarning would surface here)."""
    import warnings

    from icrawler_ray.stages.window import _block_rank

    block = pa.table({"lang": ["en", "en", "en", "zh"], "n": [10, 20, 20, 99]})
    ext = ({"en": 0, "zh": 3}, {"en": 3, "zh": 1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _block_rank._function(block, "lang", "n", "pr", 0, 0, ext, None)
    assert out["pr"].to_pylist() == [0.0, 0.5, 0.5, 0.0]


def _events_dir(tmp_path, presence: dict) -> str:
    """events.parquet with one event per (user, day) of ``presence``."""
    import pyarrow.parquet as pq

    t0 = pd.Timestamp("2024-01-01 09:30")
    users, ts = [], []
    for u, days in presence.items():
        users += [u] * len(days)
        ts += [t0 + pd.Timedelta(days=d) for d in days]
    pq.write_table(pa.table({"user_id": pa.array(users, pa.int64()),
                             "ts": pa.array(ts, pa.timestamp("us"))}),
                   str(tmp_path / "events.parquet"))
    return str(tmp_path)


def test_cochran_q_weeks_matches_hand_value(tmp_path):
    """Cochran's Q from a hand-built user x week presence matrix (weeks
    0-3 from the first event's day; a day-30 event is outside them):

        user 1: 1 1 0 0   user 3: 1 1 1 1
        user 2: 1 0 0 0   user 4: 0 1 1 0

    column sums C = 3 3 2 1, row sums R = 2 1 4 2, k = 4:
    Q = (k-1)(k*sum C^2 - (sum C)^2) / (k*sum R - sum R^2)
      = 3 * (4*23 - 81) / (4*9 - 25) = 3.0"""
    from icrawler_ray.queries import q_cochran_q_weeks

    d = _events_dir(tmp_path, {1: [0, 2, 8], 2: [1, 30], 3: [0, 7, 15, 27],
                               4: [9, 20, 20]})
    out = q_cochran_q_weeks(d)
    assert out["n_users"].tolist() == [4]
    assert out["cochran_q"].tolist() == [3.0]


def test_cochran_q_weeks_undefined_is_nan_without_warning(tmp_path):
    """Every user present in every week: k*sum R - sum R^2 is 0 and Q is
    undefined, returned as NaN with no divide warning."""
    import warnings

    from icrawler_ray.queries import q_cochran_q_weeks

    d = _events_dir(tmp_path, {1: [0, 7, 14, 21], 2: [1, 8, 15, 22]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = q_cochran_q_weeks(d)
    assert np.isnan(out["cochran_q"].iloc[0])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)
                and w.filename.endswith("queries.py")]


def test_incremental_band_dedup_planted_pair(ray_session):
    """A new-shard doc that is a near-copy of a corpus doc is flagged;
    an unrelated new doc is kept; new-vs-new copies are NOT compared."""
    import pandas as pd
    import ray.data as rd

    from icrawler_ray.stages.dedup import incremental_band_dedup

    base = "the quick brown fox jumps over the lazy dog again and again today"
    other = "completely different content about ray data pipelines and arrow"
    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5],
        "text": [base,                      # corpus
                 other + " one",            # corpus
                 base + " extra",           # NEW: near-copy of corpus doc 1
                 "unique new shard text nothing like anything else at all",  # NEW
                 "unique new shard text nothing like anything else at all"],  # NEW dup of 4 only
        "source": ["c", "c", "n", "n", "n"],
    })
    out = incremental_band_dedup(rd.from_pandas(df).repartition(3),
                                 new_source="n").set_index("doc_id")
    assert bool(out.loc[3, "is_dup"]) is True      # matches corpus
    assert bool(out.loc[4, "is_dup"]) is False     # new-vs-new not compared
    assert bool(out.loc[5, "is_dup"]) is False
    assert sorted(out.index) == [3, 4, 5]


def test_snm_pairs_block_boundaries_match_single_block(ray_session):
    """Sorted-neighborhood pairs must be identical whether the sorted
    data lands in 1 block or many (window pairs straddling boundaries
    are covered by the prev-block tail handoff)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from icrawler_ray.stages.dedup import sorted_neighborhood_pairs

    rng = np.random.default_rng(3)
    vocab = np.array(list("abcdefghij"))
    texts = [" ".join(vocab[rng.integers(0, 10, 8)]) for _ in range(400)]
    df = pd.DataFrame({"doc_id": np.arange(400, dtype=np.int64),
                       "text": texts,
                       "n_chars": rng.integers(10, 30, 400).astype(np.int64)})

    outs = {}
    for nblocks in (1, 7):
        ds = rd.from_pandas(df).repartition(nblocks)
        outs[nblocks] = sorted_neighborhood_pairs(
            ds, ["n_chars"], window=4, threshold=0.3).reset_index(drop=True)
    pd.testing.assert_frame_equal(outs[1], outs[7])
    assert len(outs[1]) > 0  # the fixture must actually produce pairs


def test_substring_dedup_forced_partitioned_matches_broadcast(ray_session):
    """duplicate_span_scrub must produce identical output on the broadcast
    and the partitioned path (auto-routing is a measured-size dispatch, so
    both must be exact)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from icrawler_ray.stages.dedup import duplicate_span_scrub

    rng = np.random.default_rng(7)
    vocab = np.array([f"w{i}" for i in range(12)])
    boiler = " ".join(vocab[rng.integers(0, 12, 6)])
    texts = []
    for i in range(300):
        body = " ".join(vocab[rng.integers(0, 12, 20)])
        # plant the boilerplate span into every third doc
        texts.append(f"{body} {boiler}" if i % 3 == 0 else body)
    df = pd.DataFrame({"doc_id": np.arange(300, dtype=np.int64),
                       "text": texts})

    outs = {}
    for forced in (False, True):
        ds = rd.from_pandas(df).repartition(5)
        out = duplicate_span_scrub(ds, k=4, force_partitioned=forced
                                   ).to_pandas()
        out["doc_id"] = out["doc_id"].astype("int64")
        out["n_removed"] = out["n_removed"].astype("int64")
        outs[forced] = out.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(outs[False], outs[True])
    assert outs[False]["n_removed"].sum() > 0


def test_substring_dedup_scrubs_planted_span_only(ray_session):
    """A span planted in two docs is removed from BOTH; unique text and
    short (< k tokens) docs pass through untouched."""
    import pandas as pd
    import ray.data as rd

    from icrawler_ray.stages.dedup import duplicate_span_scrub

    span = "p1 p2 p3 p4"
    df = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": [f"u1 u2 {span} u3",
                 f"v1 {span} v2 v3",
                 "unique only here tokens",
                 "tiny doc"],  # shorter than k -> no grams
    })
    out = duplicate_span_scrub(rd.from_pandas(df), k=4).to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    assert out.loc[0, "clean_text"] == "u1 u2 u3"
    assert out.loc[0, "n_removed"] == 4
    assert out.loc[1, "clean_text"] == "v1 v2 v3"
    assert out.loc[2, "clean_text"] == "unique only here tokens"
    assert out.loc[2, "n_removed"] == 0
    assert out.loc[3, "clean_text"] == "tiny doc"


def test_nb_classifier_separates_planted_vocabularies(ray_session):
    """NB classifier trained on class-disjoint vocabularies must score
    every good doc positive and every bad doc negative, and the training
    exchange must stay vocab-bounded (<= NB_V+1 rows per partial)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray
    import ray.data as rd

    from icrawler_ray.stages.textfns import (NB_V, nb_fit, nb_score_batch,
                                             nb_train_partial)

    rng = np.random.default_rng(11)
    gv = [f"good{i}" for i in range(20)]
    bv = [f"bad{i}" for i in range(20)]
    texts, good = [], []
    for i in range(200):
        v = gv if i % 2 == 0 else bv
        texts.append(" ".join(rng.choice(v, 15)))
        good.append(i % 2 == 0)
    df = pd.DataFrame({"doc_id": np.arange(200, dtype=np.int64),
                       "text": texts, "good": good})

    ds = rd.from_pandas(df).repartition(4)

    def train_partial(batch: pa.Table) -> pa.Table:
        out = nb_train_partial(
            batch, "text", np.asarray(batch["good"].to_pylist()))
        assert len(out) <= NB_V + 1
        return out

    parts = (ds.map_batches(train_partial, batch_format="pyarrow")
             .groupby("f").sum(["cg", "cb"]).to_pandas()
             .rename(columns={"sum(cg)": "cg", "sum(cb)": "cb"}))
    w, prior = nb_fit(parts)

    scored = ds.map_batches(
        lambda b: nb_score_batch(b, "text", "doc_id", w, prior),
        batch_format="pyarrow").to_pandas().sort_values("doc_id")
    assert (scored["pred_good"].to_numpy() == np.asarray(good)).all()


def test_pq_topk_recovers_planted_groups(ray_session):
    """On well-separated planted groups PQ's ADC top-k must stay inside
    the query's group (codes quantize each group to its own centroid)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from icrawler_ray.stages import similarity as sim

    rng = np.random.default_rng(5)
    groups = []
    for g in range(3):
        base = np.zeros(64)
        base[g * 20:(g + 1) * 20] = 50.0 * (g + 1)
        groups.append(base + rng.normal(0, 0.01, (30, 64)))
    X = np.vstack(groups)
    df = pd.DataFrame({"vec_id": np.arange(90, dtype=np.int64),
                       "embedding": [r.tolist() for r in X]})
    ds = rd.from_pandas(df).repartition(4)

    queries = X[[0, 30, 60]]
    out = sim.pq_topk(ds, queries, k=5, m=4, k_codes=8, n_iter=1,
                      query_ids=np.array([0, 30, 60]))
    for qid, grp_lo in ((0, 0), (30, 30), (60, 60)):
        nb = out[out["query_id"] == qid]["vec_id"].to_numpy()
        assert len(nb) == 5
        assert ((nb >= grp_lo) & (nb < grp_lo + 30)).all(), (qid, nb)


def _classic_bpe(word_counts: dict, n_merges: int):
    """Reference left-to-right BPE (Sennrich 2016) on a count dict:
    returns (merges, final symbol-sequence map)."""
    import collections

    vocab = {w: list(w) for w in word_counts}
    merges = []
    for step in range(1, n_merges + 1):
        pairs = collections.Counter()
        for w, syms in vocab.items():
            for a, b in zip(syms, syms[1:]):
                pairs[(a, b)] += word_counts[w]
        (l, r), n = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        merges.append((step, l, r, n))
        for w, syms in vocab.items():
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == l and syms[i + 1] == r:
                    out.append(l + r)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            vocab[w] = out
    return merges, vocab


def test_bpe_nested_replace_equals_classic_merge_on_boundary_chains():
    """The '|'-delimited nested-replace merge (shared verbatim with the
    SQL oracle) must equal classic left-to-right BPE EXACTLY, including
    on boundary-sharing chains ('aaaa' under merge (a,a)) that a single
    non-rescanning replace pass would miss."""
    import pandas as pd

    from icrawler_ray.stages import bpe

    wc = {"aaaa": 40, "aaa": 30, "abab": 25, "ababab": 20, "xaby": 15,
          "aabb": 10, "banana": 9, "bananana": 8, "aa": 7, "ab": 6}
    vocab = pd.DataFrame({"w": list(wc), "n": list(wc.values())})
    merges, fitted = bpe.fit(vocab, 4)
    ref_merges, ref_vocab = _classic_bpe(wc, 4)

    got = list(merges.itertuples(index=False, name=None))
    assert got == ref_merges, (got, ref_merges)
    got_seqs = {w: s.strip("|").split("|")
                for w, s in zip(fitted["w"], fitted["s"])}
    assert got_seqs == ref_vocab, (got_seqs, ref_vocab)
    # and the per-word symbol counts used by bpe_encode agree
    assert bpe.sym_counts(fitted) == {w: len(s) for w, s in ref_vocab.items()}


def test_bpe_word_counts_is_distributed_and_exact(ray_session):
    import collections

    import pandas as pd
    import ray.data as rd

    from icrawler_ray.stages import bpe

    texts = ["a a b", "b c  c", " a", "d d d d", ""]
    ds = rd.from_pandas(pd.DataFrame({"text": texts * 7})).repartition(4)
    got = dict(zip(*(bpe.word_counts(ds)[c] for c in ("w", "n"))))
    want = collections.Counter(w for t in texts * 7 for w in t.split(" ") if w)
    assert got == dict(want)


def test_assortativity_matches_numpy_corrcoef(ray_session):
    """Engine moment-partial reduce == np.corrcoef of (out_deg(src),
    in_deg(dst)) over the same derived edge list."""
    import duckdb
    import numpy as np
    import pandas as pd

    from icrawler_ray.queries import q_assortativity

    sf = "/root/testdata/sf0.001"
    out = q_assortativity(sf)
    docs = duckdb.sql(f"SELECT doc_id FROM '{sf}/documents.parquet'").df()
    n = len(docs)
    ids = docs["doc_id"].to_numpy(np.int64)
    fan = 1 + (ids % 4)
    src = np.repeat(ids, fan)
    j = np.arange(len(src)) - np.repeat(np.cumsum(fan) - fan, fan) + 1
    dst = (src * 131 + j * 97) % n
    keep = dst != src
    src, dst = src[keep], dst[keep]
    od = np.bincount(src, minlength=n).astype(float)
    idg = np.bincount(dst, minlength=n).astype(float)
    want = np.corrcoef(od[src], idg[dst])[0, 1]
    assert abs(out["assortativity"].iloc[0] - want) < 1e-6
    assert int(out["n_edges"].iloc[0]) == len(src)


def test_bootstrap_ci_deterministic_and_brackets_truth(ray_session):
    """Same input twice -> identical replica means (content-stable md5
    weights); the replica distribution brackets the true mean."""
    import duckdb

    from icrawler_ray.queries import q_bootstrap_ci

    sf = "/root/testdata/sf0.001"
    a = q_bootstrap_ci(sf)
    b = q_bootstrap_ci(sf)
    assert a.equals(b)
    truth = duckdb.sql(
        f"SELECT AVG(n_chars) FROM '{sf}/documents.parquet'").fetchone()[0]
    assert a["boot_mean"].min() < truth < a["boot_mean"].max()
    assert len(a) == 32 and a["b"].tolist() == list(range(32))


def test_batch_levenshtein_matches_classic_dp():
    """Vectorized pairwise Levenshtein == the textbook scalar DP on random
    strings incl. empty / equal / disjoint edge cases."""
    import numpy as np

    from icrawler_ray.stages.dedup import batch_levenshtein

    def classic(a: str, b: str) -> int:
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                               prev[j - 1] + (ca != cb)))
            prev = cur
        return prev[-1]

    rng = np.random.default_rng(5)
    alpha = "abcde"
    pairs = [("", ""), ("", "abc"), ("abc", ""), ("same", "same"),
             ("kitten", "sitting"), ("abcdef", "ghijkl")]
    for _ in range(60):
        a = "".join(rng.choice(list(alpha), rng.integers(0, 12)))
        b = "".join(rng.choice(list(alpha), rng.integers(0, 12)))
        pairs.append((a, b))
    got = batch_levenshtein([p[0] for p in pairs], [p[1] for p in pairs])
    want = np.array([classic(a, b) for a, b in pairs], np.int64)
    np.testing.assert_array_equal(got, want)


def test_snm_edit_pairs_block_boundaries_match_single_block(ray_session):
    """Edit-verify SNM pairs identical at 1 block vs 7 blocks (same
    tail-handoff contract as the Jaccard variant)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from icrawler_ray.stages.dedup import snm_edit_pairs

    rng = np.random.default_rng(9)
    vocab = np.array(list("abcdefghij"))
    texts = ["".join(vocab[rng.integers(0, 10, 30)]) for _ in range(400)]
    df = pd.DataFrame({"doc_id": np.arange(400, dtype=np.int64),
                       "text": texts,
                       "n_chars": rng.integers(10, 30, 400).astype(np.int64)})
    outs = {}
    for nblocks in (1, 7):
        ds = rd.from_pandas(df).repartition(nblocks)
        outs[nblocks] = snm_edit_pairs(
            ds, ["n_chars"], window=4, prefix_len=16,
            max_dist=12).reset_index(drop=True)
    pd.testing.assert_frame_equal(outs[1], outs[7])
    assert len(outs[1]) > 0


def test_label_propagation_planted_communities(ray_session):
    """LPA on two planted cliques bridged by one edge: every member of a
    clique ends with the clique's min id; the bridge does not merge them
    (a clique's internal majority outweighs one cross edge). Also checked
    against a direct numpy replay of the synchronous sweeps."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from icrawler_ray.stages.linkgraph import label_propagation

    n = 12
    edges = []
    for grp in (range(0, 6), range(6, 12)):
        g = list(grp)
        edges += [(a, b) for i, a in enumerate(g) for b in g[i + 1:]]
    edges.append((0, 6))  # bridge
    df = pd.DataFrame(edges, columns=["src", "dst"]).astype(np.int64)

    labels = label_propagation(rd.from_pandas(df).repartition(3), n, iters=4)

    # numpy replay of the same synchronous most-frequent/min-tie sweeps
    ref = np.arange(n, dtype=np.int64)
    und = np.concatenate([df.to_numpy(), df.to_numpy()[:, ::-1]])
    for _ in range(4):
        new = ref.copy()
        for v in range(n):
            nb = ref[und[und[:, 0] == v][:, 1]]
            if len(nb):
                vals, cnt = np.unique(nb, return_counts=True)
                new[v] = vals[cnt == cnt.max()].min()
        if np.array_equal(new, ref):
            break
        ref = new
    np.testing.assert_array_equal(labels, ref)
    assert set(labels[:6]) == {0} and set(labels[6:]) == {6}

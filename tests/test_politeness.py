"""Politeness / robots gate (north-rule; no reference counterpart)."""

import numpy as np
import pandas as pd
import pytest
import ray

from icrawler_ray.stages.politeness import (HostPolicy, _topk_per_host, politeness_gate, robots_filter,
                                            split_by_budget)


def frontier_df():
    rows = []
    for i in range(10):
        rows.append({"url": f"http://hot.com/p/{i}.html", "host": "hot.com",
                     "priority": 1.0, "seq": i, "url_hash": np.uint64(i)})
    for i in range(3):
        rows.append({"url": f"http://cold.com/private/{i}.html", "host": "cold.com",
                     "priority": 1.0, "seq": 100 + i, "url_hash": np.uint64(100 + i)})
    rows.append({"url": "http://cold.com/ok.html", "host": "cold.com",
                 "priority": 2.0, "seq": 200, "url_hash": np.uint64(200)})
    return pd.DataFrame(rows)


POLICY = HostPolicy(
    {
        "hot.com": {"crawl_delay_ms": 250, "max_inflight": 4, "robots_disallow": []},
        "cold.com": {"crawl_delay_ms": 0, "max_inflight": 4, "robots_disallow": ["/private"]},
    },
    round_ms=1000,
)


def test_budget_formula():
    assert POLICY.budget("hot.com") == 4       # 1000 // 250
    assert POLICY.budget("cold.com") > 10**6   # no delay -> unbounded
    assert POLICY.budget("unknown.com") > 10**6


def test_robots_filter_drops_prefixes():
    df = robots_filter(frontier_df(), POLICY)
    assert len(df) == 11
    assert not df.url.str.contains("/private").any()
    # row-by-row reference: several prefixes, unruled hosts, empty paths
    urls = ["http://a.com/x/1", "http://a.com/y", "http://a.com", "http://a.com/z/x",
            "http://b.com/x/1", "http://c.com/", "http://c.com/q?x=/a", "http://c.com/ab"]
    frame = pd.DataFrame({"url": urls, "host": [u.split("/")[2] for u in urls]})
    pol = HostPolicy({"a.com": {"robots_disallow": ["/x", "/y"]}, "c.com": {"robots_disallow": ["/a"]}})
    expect = [u for u, h in zip(frame.url, frame.host)
              if not any((u.split(h, 1)[1] or "/").startswith(p) for p in pol.disallowed(h))]
    assert robots_filter(frame, pol).url.tolist() == expect


def test_topk_orders_by_priority_then_seq():
    df = robots_filter(frontier_df(), POLICY)
    out = _topk_per_host(df, POLICY)
    hot = out[out.host == "hot.com"]
    assert len(hot) == 4 and hot.seq.tolist() == [0, 1, 2, 3]
    cold = out[out.host == "cold.com"]
    assert cold.seq.tolist() == [200]  # higher priority first; budget unbounded but only 1 live row


def test_politeness_gate_dataset(ray_session):
    ds = ray.data.from_pandas(frontier_df())
    gated, deferred = politeness_gate(ds, ray.put(POLICY))
    g = gated.to_pandas()
    d = deferred.to_pandas()
    assert len(g) == 5                       # 4 hot + 1 cold
    assert len(d) == 6                       # 6 over-budget hot rows deferred
    assert set(d.host) == {"hot.com"}
    assert not set(g.seq) & set(d.seq)


def test_politeness_gate_hot_host_skew(ray_session):
    """1000:1 hot-host skew through the distributed gate: the per-block
    combiner already caps each host at B_h per block, so the host-hash
    exchange never moves more than blocks x B_h rows of the hot host; the
    final output equals the single-frame reference top-k exactly, and so
    does ``deferred``: the robots-live rows minus the gated ones."""
    from icrawler_ray.functions.seq import from_pandas_blocks

    n_hot, n_cold_hosts = 50_000, 50
    rng = np.random.default_rng(3)
    rows = {
        "url": [f"http://hot.com/p/{i}.html" for i in range(n_hot)]
               + [f"http://c{j}.com/p/{i}.html" for j in range(n_cold_hosts) for i in range(50)],
        "host": ["hot.com"] * n_hot
                + [f"c{j}.com" for j in range(n_cold_hosts) for _ in range(50)],
    }
    n = len(rows["url"])
    df = pd.DataFrame({
        **rows,
        "priority": rng.random(n).round(3),
        "seq": np.arange(n, dtype=np.int64),
        "url_hash": np.arange(n).astype(np.uint64),
    })
    policy = HostPolicy(
        {"hot.com": {"crawl_delay_ms": 100, "max_inflight": 64, "robots_disallow": ["/p/1"]},
         **{f"c{j}.com": {"crawl_delay_ms": 200, "max_inflight": 64,
                          "robots_disallow": ["/p/2"] if j % 3 == 0 else []}
            for j in range(n_cold_hosts)}},
        round_ms=1000,
    )
    ds = from_pandas_blocks(df, min_rows_per_block=1000)
    gated, deferred = politeness_gate(ds, ray.put(policy))
    g = gated.to_pandas().sort_values(["host", "priority", "seq"],
                                      ascending=[True, False, True]).reset_index(drop=True)
    expect_gated, expect_deferred = split_by_budget(df, policy)
    expect = expect_gated.sort_values(
        ["host", "priority", "seq"], ascending=[True, False, True]).reset_index(drop=True)
    assert len(g) == 10 + n_cold_hosts * 5  # B=10 hot + 5 per cold host
    pd.testing.assert_frame_equal(
        g[["host", "priority", "seq"]], expect[["host", "priority", "seq"]])
    live = set(robots_filter(df, policy)["seq"])
    assert len(live) < n  # the robots rules dropped rows
    d = deferred.to_pandas()
    assert len(d) == d["seq"].nunique()
    assert set(d["seq"]) == live - set(g["seq"]) == set(expect_deferred["seq"])


def test_politeness_gate_bloom_driver_rss_independent(ray_session):
    """The gate must keep driver memory independent of the gated-set
    size: a ~2M-key gated set (a driver key array would be ~16 MB, a full
    gated.to_pandas() hundreds of MB) is gated with the frontier built
    OFF-driver, and driver peak RSS may grow far less than either."""
    import resource

    n = 2_000_000

    def make_rows(t):
        import pyarrow as _pa
        ids = t["id"].to_numpy()
        return _pa.table({
            "url": _pa.array([f"http://h{i % 997}.com/p/{i}" for i in ids]),
            "host": _pa.array([f"h{i % 997}.com" for i in ids]),
            "priority": _pa.array(np.ones(len(ids))),
            "seq": _pa.array(ids.astype(np.int64)),
            "url_hash": _pa.array(ids.astype(np.uint64)),
        })

    policy = HostPolicy({}, round_ms=1000)  # unknown hosts: unbounded budget
    # warm-up run pays Ray Data's one-time driver machinery (~100 MiB of
    # scheduler/metadata allocations); the measured run then isolates
    # per-gated-key driver state, which must be ~zero
    for measured in (False, True):
        frontier = ray.data.range(n).map_batches(make_rows, batch_format="pyarrow")
        rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on linux
        gated, deferred = politeness_gate(frontier, ray.put(policy))
        n_gated = gated.count()
        n_def = deferred.count()
        rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert n_gated == n and n_def == 0
    assert (rss1 - rss0) * 1024 < 32 << 20, (
        f"driver RSS grew {(rss1 - rss0) // 1024} MiB in the gate")


def test_politeness_gate_all_disallowed(ray_session):
    """Every row robots-disallowed: no candidate crosses the exchange, and
    both outputs are empty rather than a crash on the column-less
    exchange output."""
    policy = HostPolicy({h: {"robots_disallow": ["/"]} for h in ("hot.com", "cold.com")})
    gated, deferred = politeness_gate(ray.data.from_pandas(frontier_df()), ray.put(policy))
    assert gated.count() == 0
    assert deferred.count() == 0


@pytest.mark.parametrize("delay,expected", [(0, 10), (500, 2), (2000, 1)])
def test_budget_scaling(delay, expected):
    pol = HostPolicy({"h.com": {"crawl_delay_ms": delay, "max_inflight": 1,
                                "robots_disallow": []}}, round_ms=1000)
    df = pd.DataFrame({
        "url": [f"http://h.com/{i}" for i in range(10)], "host": "h.com",
        "priority": 1.0, "seq": range(10), "url_hash": np.arange(10, dtype=np.uint64),
    })
    assert len(_topk_per_host(df, pol)) == expected


# ------------------------------------------------- per-host inflight caps

def test_inflight_limiter_caps_concurrency(ray_session):
    """8 concurrent holders contend for one host with cap 2: the limiter
    must reach exactly the cap (pressure existed) and never exceed it.
    Driver threads guarantee the contention regardless of how Ray happens
    to schedule tasks on the small test cluster."""
    import threading
    import time

    from icrawler_ray.stages.politeness import HostInflightLimiter, InflightGuard

    a = HostInflightLimiter.options(name="inflight:test1").remote({"hot.com": 2})
    done = []

    def holder():
        g = InflightGuard("inflight:test1", poll_s=0.002)
        g.acquire("hot.com")
        time.sleep(0.05)
        g.release("hot.com")
        done.append(1)

    threads = [threading.Thread(target=holder) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(done) == 8
    stats = ray.get(a.stats.remote())
    assert stats["max_seen"]["hot.com"] == 2
    assert stats["inflight"]["hot.com"] == 0  # all released
    ray.kill(a)


def test_inflight_uncapped_host_passes_through(ray_session):
    from icrawler_ray.stages.politeness import HostInflightLimiter, InflightGuard

    a = HostInflightLimiter.options(name="inflight:test2").remote({"hot.com": 1})
    g = InflightGuard("inflight:test2")
    for _ in range(5):  # cold host: no cap, never blocks
        g.acquire("cold.com")
    ray.kill(a)


class _RecordingGuard:
    """Stands in for InflightGuard: logs each acquire/release."""

    def __init__(self, log):
        self.log = log

    def acquire(self, host):
        self.log.append(("acquire", host))

    def release(self, host):
        self.log.append(("release", host))


WALK_URLS = ["http://a.com/1", "http://b.com/1", "http://a.com/2",
             "http://c.com/1", "http://b.com/2"]


def test_walk_host_runs_one_slot_per_host_run():
    from icrawler_ray.stages.politeness import walk_host_runs

    log = []
    walk_host_runs(WALK_URLS, _RecordingGuard(log), lambda i: log.append(i))
    assert log == [("acquire", "a.com"), 0, 2, ("release", "a.com"),
                   ("acquire", "b.com"), 1, 4, ("release", "b.com"),
                   ("acquire", "c.com"), 3, ("release", "c.com")]


def test_walk_host_runs_releases_held_slot_when_visit_raises():
    from icrawler_ray.stages.politeness import walk_host_runs

    log = []

    def visit(i):
        log.append(i)
        if i == 4:
            raise RuntimeError("fetch failed")

    with pytest.raises(RuntimeError, match="fetch failed"):
        walk_host_runs(WALK_URLS, _RecordingGuard(log), visit)
    assert log == [("acquire", "a.com"), 0, 2, ("release", "a.com"),
                   ("acquire", "b.com"), 1, 4, ("release", "b.com")]


def test_walk_host_runs_without_guard_keeps_input_order(monkeypatch):
    import icrawler_ray.functions.urlnorm as urlnorm
    from icrawler_ray.stages.politeness import walk_host_runs

    def no_hosts(url):
        raise AssertionError("host computed without a guard")

    monkeypatch.setattr(urlnorm, "host_of_one", no_hosts)
    seen = []
    walk_host_runs(WALK_URLS, None, seen.append)
    assert seen == [0, 1, 2, 3, 4]


def test_crawl_parity_with_inflight_enforcement(ray_session):
    """enforce_inflight=True must not change crawl outputs (the cap only
    re-times fetches; ordering is defined by sort keys, not arrival)."""
    from icrawler_ray.oracle import OracleCrawl
    from icrawler_ray.pipelines.greedy import greedy_crawl
    from icrawler_ray.stages.politeness import HostPolicy
    from icrawler_ray.synthweb.generate import make_synthweb

    web = make_synthweb(n_pages=60, n_hosts=3, seed=7)
    pol = HostPolicy(web.host_policy, round_ms=1000)
    odocs, oresults = OracleCrawl(web.url_map(), web.domains, policy=pol,
                                  max_num=25, max_depth=3).run()
    docs, results, _ = greedy_crawl(
        ray.put(web.url_map()), web.domains, policy=pol, max_num=25,
        max_depth=3, num_shards=2, enforce_inflight=True,
    )
    edocs = docs.to_pandas()
    assert {d["doc_id"] for d in odocs} == set(edocs["doc_id"])
    rdf = results.to_pandas().sort_values("filename")
    assert list(zip(rdf.file_url, rdf.filename)) == [
        (r["file_url"], r["filename"]) for r in oresults
    ]


def test_inflight_limiter_paces_crawl_delay(ray_session):
    """With delays_ms set, successive grants for a host are spaced at
    least crawl_delay apart even when slots are free."""
    import time

    from icrawler_ray.stages.politeness import HostInflightLimiter, InflightGuard

    a = HostInflightLimiter.options(name="inflight:pace").remote(
        {"hot.com": 4}, delays_ms={"hot.com": 50})
    g = InflightGuard("inflight:pace", poll_s=0.002)
    t0 = time.monotonic()
    for _ in range(4):
        g.acquire("hot.com")
        g.release("hot.com")
    dt = time.monotonic() - t0
    assert dt >= 0.145  # 3 inter-grant gaps of >= 50ms
    stats = ray.get(a.stats.remote())
    assert stats["max_seen"]["hot.com"] == 1
    ray.kill(a)

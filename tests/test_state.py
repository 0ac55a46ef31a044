"""Seen-set state layer: bloom, cuckoo, shard actors (Q1-Q3 / north rule)."""

import numpy as np
import pytest

from icrawler_ray.state.bloom import BloomFilter
from icrawler_ray.state.cuckoo import CuckooFilter
from icrawler_ray.state.seen import ShardedSeenSet


def keys(n, seed=0):
    return np.random.default_rng(seed).integers(0, 2**63, n, dtype=np.uint64)


def test_bloom_membership_and_fp_rate():
    k = keys(20000)
    other = keys(20000, seed=1)
    b = BloomFilter(25000)
    b.add(k)
    assert b.contains(k).all()
    assert b.contains(other).mean() < 0.02  # ~0.7% expected at 10 bits/key


def test_bloom_serialize_roundtrip():
    k = keys(1000)
    b = BloomFilter(2000)
    b.add(k)
    b2 = BloomFilter.deserialize(b.serialize())
    assert b2.contains(k).all() and b2.num_items == 1000


def test_cuckoo_membership_delete_fp():
    k = keys(20000)
    other = keys(20000, seed=1)
    c = CuckooFilter(25000)
    c.add(k)
    assert c.contains(k).all()
    assert c.contains(other).mean() < 0.001  # 16-bit fp, 4 slots
    removed = c.delete(k[:500])
    assert removed.all()
    assert c.contains(k[:500]).mean() < 0.01  # deleted (residual = fp collisions)
    assert c.contains(k[500:]).all()


def test_cuckoo_serialize_roundtrip():
    k = keys(5000)
    c = CuckooFilter(6000)
    c.add(k)
    c2 = CuckooFilter.deserialize(c.serialize())
    assert c2.contains(k).all() and c2.num_items == c.num_items


def test_v1_filter_payloads_raise():
    """Only version 2 payloads (what serialize() writes) are read; a
    version 1 single-array payload raises instead of loading."""
    bloom_v1 = np.array([2000, 7, 20032, 0], dtype=np.int64).tobytes() + bytes(2504)
    with pytest.raises(ValueError, match="BloomFilter payload is not version 2"):
        BloomFilter.deserialize(bloom_v1)
    cuckoo_v1 = np.array([16, 0, 7], dtype=np.int64).tobytes() + bytes(16 * 4 * 2)
    with pytest.raises(ValueError, match="CuckooFilter payload is not version 2"):
        CuckooFilter.deserialize(cuckoo_v1)


def test_cuckoo_overfill_grows_generations():
    # a frontier that outruns the sized capacity opens new generations
    # (scalable-filter pattern) instead of raising; every key stays a hit
    c = CuckooFilter(64)
    k = keys(5000)
    c.add(k)
    assert len(c.gens) > 1
    assert c.contains(k).all()
    assert c.num_items == 5000
    # fresh keys are still overwhelmingly misses (FP rate stays bounded)
    fresh = keys(5000, seed=123)
    assert c.contains(fresh).mean() < 0.05


def test_cuckoo_growth_serialize_roundtrip():
    c = CuckooFilter(64)
    k = keys(3000)
    c.add(k)
    assert len(c.gens) > 1
    c2 = CuckooFilter.deserialize(c.serialize())
    assert len(c2.gens) == len(c.gens)
    assert c2.contains(k).all()
    assert c2.num_items == c.num_items


def test_bloom_overfill_grows_generations():
    from icrawler_ray.state.bloom import BloomFilter

    b = BloomFilter(100)
    k = keys(5000)
    # scalable bloom: inserts past sized capacity open new generations so
    # the pre-filter never saturates into all-maybe
    for lo in range(0, 5000, 250):
        b.add(k[lo:lo + 250])
    assert len(b.gens) > 1
    assert b.contains(k).all()
    fresh = keys(5000, seed=321)
    assert b.contains(fresh).mean() < 0.2
    b2 = BloomFilter.deserialize(b.serialize())
    assert len(b2.gens) == len(b.gens)
    assert b2.contains(k).all()


def test_sharded_seen_set_bulk(ray_session):
    seen = ShardedSeenSet("t1", num_shards=4, capacity_per_shard=4096)
    try:
        k = keys(1000)
        novel = seen.filter_and_insert_array(k)
        assert novel.all()
        again = seen.filter_and_insert_array(k)
        assert not again.any()
        mixed = np.concatenate([k[:10], keys(10, seed=9)])
        novel = seen.filter_and_insert_array(mixed)
        assert not novel[:10].any() and novel[10:].all()
        stats = seen.stats()
        assert sum(s["num_items"] for s in stats) == 1010
    finally:
        seen.shutdown()


def test_sharded_seen_checkpoint_restore(ray_session, tmp_path):
    from icrawler_ray.state.checkpoint import CheckpointManager

    seen = ShardedSeenSet("t2", num_shards=2, capacity_per_shard=4096)
    k = keys(500)
    seen.filter_and_insert_array(k)
    ck = CheckpointManager(str(tmp_path))
    ck.save_round(0, None, seen, seen, {"dl_count": 0, "next_seq": 0}, {}, full=True)
    seen.shutdown()
    _, restored, _, capacity = ck.load_round(0)

    seen2 = ShardedSeenSet("t3", num_shards=2, capacity_per_shard=4096)
    seen2.restore(restored, capacity)  # per shard: (full snapshot, delta chain)
    assert not seen2.filter_and_insert_array(k).any()  # all remembered
    seen2.shutdown()


def test_seen_checkpoint_1m_keys_stays_off_driver(ray_session, tmp_path):
    """Seen shards write and read their own checkpoint files: a full and a
    delta save of 2 shards at capacity 1<<22 holding 1M keys, then a
    restore into a fresh fleet, must not pass filter bytes or key arrays
    through the driver (the 42 MiB snapshot used to add 300-426 MiB of
    driver RSS), and every key must still read as seen."""
    import resource

    from icrawler_ray.state.checkpoint import CheckpointManager

    k = keys(1_000_000, seed=11)
    ck = CheckpointManager(str(tmp_path))
    counters = {"dl_count": 0, "next_seq": 0}
    a = ShardedSeenSet("rss-a", num_shards=2, capacity_per_shard=1 << 22)
    b = ShardedSeenSet("rss-b", num_shards=2, capacity_per_shard=1 << 22)
    try:
        a.filter_and_insert_array(k[:900_000])
        rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {}
        ck.save_round(0, None, a, a, counters, metrics, full=True)
        assert metrics["seen_ckpt_bytes"] > 2 * (20 << 20)  # both sets' filters
        a.filter_and_insert_array(k[900_000:])
        ck.save_round(1, None, a, a, counters, {}, full=False)
        n_items = sum(s["num_items"] for s in a.stats())
        a.shutdown()
        _, pages, _, capacity = ck.load_round(1)
        b.restore(pages, capacity)
        rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert (rss1 - rss0) * 1024 < 48 << 20, (
            f"driver RSS grew {(rss1 - rss0) // 1024} MiB in seen save/restore")
        assert not b.filter_and_insert_array(k).any()
        assert sum(s["num_items"] for s in b.stats()) == n_items
    finally:
        a.shutdown()
        b.shutdown()


def test_exact_mode_matches_filter_mode(ray_session):
    k = np.concatenate([keys(300), keys(300)])  # 50% dups
    a = ShardedSeenSet("t4", num_shards=2, exact=True)
    b = ShardedSeenSet("t5", num_shards=2, capacity_per_shard=4096)
    try:
        na = a.filter_and_insert_array(k)
        nb = b.filter_and_insert_array(k)
        assert (na == nb).all()  # no FP at this tiny scale
    finally:
        a.shutdown()
        b.shutdown()


def test_claim_flush_counter_and_idempotent_resend(ray_session):
    """Non-blocking claim protocol: claims_received tracks round rows,
    finish_round resets it, and a duplicate resend cannot change the
    winner set (min packed per key)."""
    import numpy as np
    from icrawler_ray.state.seen import ShardedSeenSet

    seen = ShardedSeenSet("flushtest", num_shards=2, capacity_per_shard=4096)
    try:
        keys = np.array([10, 20, 11, 30], dtype=np.uint64)
        packed = np.array([5, 7, 3, 9], dtype=np.int64)
        for s in range(2):
            m = (keys % 2) == s
            seen.shards[s].claim.remote(keys[m], packed[m])
        # poll-style barrier: wait until all 4 rows are received
        import time
        deadline = time.time() + 5
        while seen.claims_received() < 4 and time.time() < deadline:
            time.sleep(0.01)
        assert seen.claims_received() == 4
        # duplicate resend (the fallback path) — counter grows, winners don't
        for s in range(2):
            m = (keys % 2) == s
            seen.shards[s].claim.remote(keys[m], packed[m])
        while seen.claims_received() < 8 and time.time() < deadline:
            time.sleep(0.01)
        wk, wp = seen.finish_round_winners()
        assert dict(zip(wk.tolist(), wp.tolist())) == {10: 5, 20: 7, 11: 3, 30: 9}
        assert seen.claims_received() == 0  # finish_round resets
    finally:
        seen.shutdown()


def test_claims_pending_window_is_bounded(ray_session):
    """The per-worker outstanding-claims buffer drains at the window
    bound instead of growing with round size."""
    import numpy as np
    import pyarrow as pa
    from icrawler_ray.state import seen as seen_mod
    from icrawler_ray.state.seen import ShardedSeenSet, route_claims

    s = ShardedSeenSet("wintest", num_shards=2, capacity_per_shard=4096)
    try:
        seen_mod._PENDING.clear()
        for i in range(200):
            t = pa.table({
                "row_kind": pa.array(["task", "link"]),
                "url_hash": pa.array([i * 2, i * 2 + 1], type=pa.uint64()),
                "packed": pa.array([i, i], type=pa.int64()),
                "depth": pa.array([0, 0], type=pa.int32()),
            })
            route_claims(t, "wintest", "wintest", 2, max_depth=4)
            assert len(seen_mod._PENDING) <= seen_mod._CLAIMS_WINDOW + 4
    finally:
        s.shutdown()
        seen_mod._PENDING.clear()


def test_claim_round_fence_drops_stragglers(ray_session):
    """Cross-round fence (ADVICE r3 #1): a claim tagged with a stale
    round neither lands in the next round's claim set nor inflates its
    delivery counter; untagged claims bypass the fence."""
    import numpy as np
    import ray
    from icrawler_ray.state.seen import ShardedSeenSet

    seen = ShardedSeenSet("fencetest", num_shards=1, capacity_per_shard=4096)
    try:
        sh = seen.shards[0]
        seen.begin_round(0)
        ray.get(sh.claim.remote(np.array([7], dtype=np.uint64),
                                np.array([5], dtype=np.int64), None, 0))
        wk, wp = seen.finish_round_winners()
        assert dict(zip(wk.tolist(), wp.tolist())) == {7: 5}

        # straggler from round 0 arrives after finish_round: dropped
        assert ray.get(sh.claim.remote(np.array([8], dtype=np.uint64),
                                       np.array([1], dtype=np.int64), None, 0)) == 0
        assert seen.claims_received() == 0

        seen.begin_round(1)
        # stale round-0 straggler mid-round-1: dropped, counter untouched
        assert ray.get(sh.claim.remote(np.array([9], dtype=np.uint64),
                                       np.array([1], dtype=np.int64), None, 0)) == 0
        assert seen.claims_received() == 0
        # round-1 claim and an untagged claim: both accepted
        ray.get(sh.claim.remote(np.array([9], dtype=np.uint64),
                                np.array([4], dtype=np.int64), None, 1))
        ray.get(sh.claim.remote(np.array([12], dtype=np.uint64),
                                np.array([6], dtype=np.int64)))
        assert seen.claims_received() == 2
        wk, wp = seen.finish_round_winners()
        assert dict(zip(wk.tolist(), wp.tolist())) == {9: 4, 12: 6}
        assert seen.stats()[0]["stale_claims"] == 2
    finally:
        seen.shutdown()


def test_shard_report_key_counts_once(ray_session):
    """Task reports are keyed: a re-executed task's second report under
    the same key replaces the first, a report tagged with another round
    is dropped, and the next round starts with none."""
    import ray

    seen = ShardedSeenSet("reptest", num_shards=1, capacity_per_shard=4096)
    try:
        sh = seen.shards[0]
        seen.begin_round(0)
        for _ in range(2):
            ray.get(sh.report.remote("parse", 5, {"pages": 3}, 0))
        ray.get(sh.report.remote("parse", 9, {"pages": 2}, 0))
        ray.get(sh.report.remote("parse", 11, {"pages": 7}, 1))
        ray.get(sh.report.remote("fetch", 5, {"rows": 4}, 0))
        _, reports = ray.get(sh.progress.remote("parse"))
        assert sorted(r["pages"] for r in reports) == [2, 3]
        seen.begin_round(1)
        assert ray.get(sh.progress.remote("parse")) == (0, [])
    finally:
        seen.shutdown()


def _barrier_round(url_map_ref, web, tag: str, withhold: bool, docs_dir):
    """One crawl round's parse -> claim barrier -> winners -> fetch ->
    fetch barrier, run through the real task functions; ``withhold``
    builds them without the claim/report channel, so both barriers time
    out and recompute their values from the materialised blocks."""
    import pyarrow as pa
    import ray.data

    from icrawler_ray.pipelines.greedy import _admitted_rows
    from icrawler_ray.stages.download import make_fetcher_fn
    from icrawler_ray.stages.fetch_parse import make_fetch_parse_fn
    from icrawler_ray.state.seen import (await_claims, await_fetched, begin_rounds,
                                         finish_rounds)

    urls = sorted(web.pages)[:40] + ["http://h0.example.com/missing"]
    pages, files = (ShardedSeenSet(f"bar{tag}{k}", num_shards=2, capacity_per_shard=4096)
                    for k in ("p", "f"))
    try:
        begin_rounds([pages, files], 0)
        gated = pa.table({"url": urls, "depth": [0] * len(urls), "seq": list(range(len(urls)))})
        claim = None if withhold else (pages.name, files.name, 2, 3)
        parsed = ray.data.from_arrow([gated.slice(0, 16), gated.slice(16)]).map_batches(
            make_fetch_parse_fn(url_map_ref, "greedy", {"domains": web.domains},
                                with_keys=True, claim=claim, claim_round=0, docs_dir=docs_dir),
            batch_format="pyarrow", batch_size=None).materialize()
        rep = await_claims(pages, files, parsed, len(urls), 3, round_idx=0, docs_dir=docs_dir)
        (_, task_packed), (_, link_packed) = finish_rounds([files, pages])
        fetched = _admitted_rows(parsed, "task", task_packed).select_columns(
            ["file_url", "parent_seq", "emit_ord"]).map_batches(
            make_fetcher_fn(url_map_ref, report=None if withhold else (files.name, 2, 0)),
            batch_format="pyarrow", batch_size=None).filter(expr="success == True").materialize()
        kept, fetch_resent = await_fetched(files, fetched, len(task_packed))
        return rep, np.sort(task_packed), np.sort(link_packed), kept, fetch_resent
    finally:
        pages.shutdown()
        files.shutdown()


@pytest.mark.parametrize("with_dir", [False, True])
def test_barrier_resend_path_matches_reports(ray_session, url_map_ref, web, tmp_path,
                                             monkeypatch, with_dir):
    """With claims and reports withheld the barriers take the one recovery
    path: claims resent from the parse blocks, counts and kept keys
    recomputed from the blocks (and the docs dir). The values equal the
    reported ones of a normal run, and the run is marked resent."""
    from icrawler_ray.state import seen as seen_mod

    monkeypatch.setattr(seen_mod, "BARRIER_S", 0.5)
    out = {}
    for withhold in (False, True):
        docs_dir = None
        if with_dir:
            docs_dir = tmp_path / f"w{int(withhold)}" / "docs"
            docs_dir.mkdir(parents=True)
            docs_dir = str(docs_dir)
        out[withhold] = _barrier_round(url_map_ref, web, f"{int(with_dir)}{int(withhold)}",
                                       withhold, docs_dir)
    (rep, tasks, links, kept, fr), (rrep, rtasks, rlinks, rkept, rfr) = out[False], out[True]
    assert not rep.pop("resent") and not fr
    assert rrep.pop("resent") and rfr
    assert rep == rrep
    assert rep["errors"] == 1 and rep["docs"] == 40 and rep["claims"] > 0
    assert len(tasks) and len(links) and len(kept)
    assert np.array_equal(tasks, rtasks) and np.array_equal(links, rlinks)
    assert np.array_equal(kept, rkept)

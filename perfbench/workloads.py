"""The two workloads, and the two stages their traced runs also measure
(ClaimsStage, DedupStage). Each workload is a closed-loop batch job: one
driver submits the whole input and waits for the result.

A workload object is driven by ``perfbench.child`` in this order:
``generate()`` (inside set-up, after Ray is up), ``warm()`` (one small
untimed job), then repeatedly ``job(tracer)`` (timed) and ``check(out)``
(untimed), and finally ``layers(...)`` in traced runs. Inputs depend only
on the seed; the engine receives only the generated inputs.
"""

from __future__ import annotations

import os
import os.path as osp
import shutil
import statistics
import time
import uuid
from collections import Counter

import numpy as np
import pyarrow as pa

from perfbench import WORKLOAD_NAMES
from perfbench import reference as ref
from perfbench.metrics import PHASES

#: input size per workload and scale
SIZES = {
    "crawl-broad": {"full": 4000, "tiny": 150},
    "crawl-polite": {"full": 800, "tiny": 200},
}


def _pct(values, q: float) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    k = (len(values) - 1) * q
    lo, hi = int(np.floor(k)), int(np.ceil(k))
    return values[lo] + (values[hi] - values[lo]) * (k - lo)


def tail_pct(n: int) -> float:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for q in (0.99, 0.95, 0.9, 0.75):
        if n * (1 - q) >= 10:
            return q
    return 0.5


def _collect(ds) -> list[pa.Table]:
    import ray

    return [] if ds is None else [ray.get(r) for r in ds.to_arrow_refs()]


def _dir_bytes(path: str, skip=()) -> int:
    total = 0
    for dirpath, dirnames, files in os.walk(path):
        dirnames[:] = [d for d in dirnames if d not in skip]
        total += sum(osp.getsize(osp.join(dirpath, f)) for f in files)
    return total


def timed(tracer, name: str, fn, *a, **k):
    """-> (fn(*a, **k), seconds), recorded as span ``name`` when tracing."""
    with tracer.span(name):
        t0 = time.perf_counter()
        out = fn(*a, **k)
        return out, time.perf_counter() - t0


class JobOut:
    """One job's outputs: ``work`` items completed in ``wall`` seconds."""

    def __init__(self, work: int, wall: float, **data):
        self.work = work
        self.wall = wall
        self.data = data


# ------------------------------------------------------------------ crawls

class _Crawl:
    max_depth = 4

    def __init__(self, seed: int, scale: str, num_cpus: int, work_dir: str):
        self.seed = seed
        self.scale = scale
        self.n_pages = SIZES[self.name][scale]
        self.num_cpus = num_cpus
        self.work_dir = work_dir
        self._ref = None
        self._ref_cols = None
        self._oracle_s = None
        self.job_infos: list[dict] = []  # per job: wall, round metrics, stats
        self.ckpt_bytes: list[int] = []  # per traced checkpoint save
        self._last_tables = None

    # inputs: a procedural web (pages are synthesized on fetch), its host
    # policy and the seed URLs
    def generate(self):
        from icrawler_ray.synthweb.procedural import ProceduralWeb

        self.web = ProceduralWeb(n_pages=self.n_pages, n_hosts=16, seed=self.seed,
                                 spans_per_page=96, hot_frac=0.3)
        self.spec = ("procedural", self.web.spec())
        self.policy = self._policy(self.web)
        self.seeds = self._seeds(self.web)

    def warm(self):
        from icrawler_ray.pipelines.greedy import GreedyCrawl
        from icrawler_ray.synthweb.procedural import ProceduralWeb

        web = ProceduralWeb(n_pages=120, n_hosts=16, seed=self.seed + 1)
        crawl = GreedyCrawl(("procedural", web.spec()), web.domains,
                            policy=self._policy(web), max_depth=1,
                            num_shards=self.num_cpus, seeds=self._seeds(web),
                            **self._dirs("warm"))
        try:
            docs, results, _ = crawl.run()
            _collect(docs), _collect(results)
        finally:
            crawl.shutdown()
            shutil.rmtree(osp.join(self.work_dir, "warm"), ignore_errors=True)

    def _dirs(self, name: str) -> dict:
        """GreedyCrawl output/checkpoint directories of one job."""
        return {}

    def _new_crawl(self, tracer, **kw):
        from icrawler_ray.pipelines.greedy import GreedyCrawl

        with tracer.span("greedy.init"):
            crawl = GreedyCrawl(self.spec, self.web.domains, policy=self.policy,
                                max_depth=self.max_depth, num_shards=self.num_cpus,
                                seeds=self.seeds, **kw)
        if tracer.enabled and crawl.ckpt is not None:
            ckpt, save = crawl.ckpt, crawl.ckpt.save_round

            def save_round(r, *a, **k):
                with tracer.span("checkpoint.save_round"):
                    save(r, *a, **k)
                self.ckpt_bytes.append(_dir_bytes(ckpt.round_dir(r), skip=("docs", "results")))

            ckpt.save_round = save_round
            tracer.wrap(ckpt, "load_round", "checkpoint.load_round")
            tracer.wrap(crawl.seen_pages, "restore", "seen.restore")
            tracer.wrap(crawl.seen_files, "restore", "seen.restore")
        return crawl

    def _run(self, crawl, tracer):
        """-> (docs, results, round metrics, {"pages", "files"}: seen-shard
        stats when traced)."""
        stats = None
        try:
            with tracer.span("greedy.run"):
                docs, results, metrics = crawl.run()
            if tracer.enabled:
                stats = {"pages": crawl.seen_pages.stats(), "files": crawl.seen_files.stats()}
        finally:
            crawl.shutdown()
        return docs, results, list(metrics), stats

    def job(self, tracer) -> JobOut:
        t0 = time.perf_counter()
        docs, results, metrics, stats = self._crawl(tracer)
        pages = sum(m.get("gated", 0) for m in metrics)
        files = sum(m.get("downloads", 0) for m in metrics)
        wall = time.perf_counter() - t0
        self.job_infos.append({"wall": wall, "metrics": metrics, "stats": stats,
                               "pages": pages, "files": files, "traced": tracer.enabled})
        return JobOut(pages + files, wall, docs=docs, results=results)

    def reference(self):
        """Sequential oracle from the same seed list and policy (cached)."""
        if self._ref is None:
            from icrawler_ray.oracle import OracleCrawl

            o = OracleCrawl(self.spec, self.web.domains, policy=self.policy,
                            max_depth=self.max_depth)
            o.domains = list(self.seeds)  # seed list; the rules keep the hosts
            t0 = time.perf_counter()
            docs, results = o.run()
            self._oracle_s = time.perf_counter() - t0
            self._oracle_docs = docs
            self._ref = (ref.doc_spans_from_oracle(docs), ref.results_from_oracle(results))
        return self._ref

    def check(self, out: JobOut, perturb: bool = False):
        doc_tables = _collect(out.data["docs"])
        res_tables = _collect(out.data["results"])
        self._last_tables = (doc_tables, res_tables)
        results = ref.results_from_tables(res_tables)
        if perturb and results:  # planted defect: one wrong filename
            u, f, w, h = results[0]
            results[0] = (u, "x" + f, w, h)
        ref_docs, ref_results = self.reference()
        # whole-column comparison first; on any difference, count the
        # wrong rows one doc at a time
        cols = ref.doc_span_columns(doc_tables)
        if self._ref_cols is None and cols is not None:
            self._ref_cols = ref.doc_span_columns_from_oracle(self._oracle_docs, cols)
        if results == ref_results and ref.columns_equal(cols, self._ref_cols):
            return len(ref_docs) + len(ref_results), 0
        docs = ref.doc_spans_from_tables(doc_tables)
        return ref.compare_crawl(docs, results, ref_docs, ref_results)

    def release(self, out: JobOut) -> None:
        out.data.clear()

    # ---- per-layer numbers (traced run only)
    def layers(self, tracer, perturb: bool = False) -> dict:
        infos = self.job_infos
        m = {}
        rounds = [r for info in infos for r in info["metrics"]]
        round_s = [sum(r.get("timings", {}).values()) for r in rounds]
        per_job = len(infos)
        m["greedy.rounds"] = len(rounds) / per_job
        m["greedy.round_s.p50"] = _pct(round_s, 0.5)
        q = tail_pct(len(round_s))
        m["greedy.round_s.ptail"] = _pct(round_s, q)
        m["greedy.round_s.ptail_pct"] = 100 * q
        m["greedy.unattributed_s"] = statistics.mean(
            i["wall"] - sum(sum(r.get("timings", {}).values()) for r in i["metrics"])
            for i in infos)
        phase = {p: sum(r.get("timings", {}).get(p, 0.0) for r in rounds) / per_job
                 for p in PHASES}
        for p in PHASES:
            m[f"greedy.phase.{p}_s"] = phase[p]

        # politeness: frontier rows entering each round = gated + deferred
        # + robots-dropped; the metrics carry gated and deferred
        gated = sum(r.get("gated", 0) for r in rounds)
        deferred = sum(r.get("deferred", 0) for r in rounds)
        frontier = gated + deferred
        m["politeness.gate_rows_per_s"] = frontier / per_job / max(phase["gate"], 1e-9)
        m["politeness.admit_ratio"] = gated / max(frontier, 1)
        m["politeness.deferred_rows"] = deferred / per_job

        claims = [r.get("timings", {}).get("claims", 0.0) for r in rounds]
        m["seen.finish_round_s.p50"] = _pct(claims, 0.5)
        m["seen.finish_round_s.max"] = max(claims, default=0.0)
        last = [i for i in infos if i["stats"]][-1]
        st = last["stats"]["pages"] + last["stats"]["files"]
        m["seen.novel_ratio"] = (sum(s["num_items"] for s in st)
                                 / max(1, sum(s["num_queries"] for s in st)))
        m["seen.stale_claims"] = sum(s["stale_claims"] for s in st)
        m["seen.claims_resent_rounds"] = sum(1 for r in rounds if r.get("claims_resent")) / per_job

        files = sum(i["files"] for i in infos) / per_job
        dl_s = phase["download"] + phase["dl_ctrl"] + phase["dl_persist"]
        m["download.files_per_s"] = files / max(dl_s, 1e-9)
        # files the engine kept over the files its seen set claimed
        claimed = sum(s["num_items"] for s in last["stats"]["files"])
        m["download.kept_ratio"] = last["files"] / max(1, claimed)
        m["oracle.urls_per_s"] = (infos[-1]["pages"] + infos[-1]["files"]) / self._oracle_s

        m.update(self._kernels(tracer))
        return m

    def _kernels(self, tracer) -> dict:
        """In-process kernel calls on this workload's own pages and keys."""
        import pandas as pd
        import ray

        from icrawler_ray.functions.urlnorm import canonicalize, hash_urls, hosts_of
        from icrawler_ray.stages.download import assign_filenames
        from icrawler_ray.stages.fetch_parse import make_fetch_parse_fn
        from icrawler_ray.stages.politeness import robots_filter
        from icrawler_ray.storage.sinks import ParquetDirSink
        from icrawler_ray.synthweb.fetchstub import make_session

        m = {}
        doc_tables, res_tables = self._last_tables
        urls = [u for t in doc_tables for u in t["doc_id"].to_pylist()][:800]
        sess = make_session(self.spec)
        _, get_s = timed(tracer, "synthweb.get", lambda: [sess.get(u) for u in urls])
        m["synthweb.get_us_per_page"] = 1e6 * get_s / len(urls)

        fp = make_fetch_parse_fn(self.spec, "greedy", {"domains": self.web.domains},
                                 emit_docs=True, with_keys=True)
        batch = pa.table({"url": urls, "depth": [0] * len(urls), "seq": list(range(len(urls)))})
        out, fp_s = timed(tracer, "fetch_parse.call", fp, batch)
        kinds = np.asarray(out["row_kind"].to_pylist(), dtype=object)
        m["fetch_parse.pages_per_s"] = len(urls) / fp_s
        emissions = int(np.isin(kinds, ["task", "link"]).sum())
        m["fetch_parse.emissions_per_page"] = emissions / len(urls)

        links = pd.Series([u for u, k in zip(out["link_url"].to_pylist(), kinds) if k == "link"],
                          dtype="string")
        canon, canon_s = timed(tracer, "urlnorm.canonicalize", canonicalize, links)
        keys, hash_s = timed(tracer, "urlnorm.hash_urls", hash_urls, canon.fillna(""))
        m["urlnorm.canonicalize_rows_per_s"] = len(links) / canon_s
        m["urlnorm.hash_rows_per_s"] = len(links) / hash_s
        m.update(filter_kernels(tracer, [np.asarray(keys, dtype=np.uint64)]))
        frontier = pd.DataFrame({"url": links, "host": hosts_of(links)})
        timed(tracer, "politeness.robots_filter", robots_filter, frontier, self.policy)

        files = pa.concat_tables([t.select(["file_url"]) for t in res_tables if t.num_rows])
        n = files.num_rows
        ds = ray.data.from_arrow(files.append_column(
            "parent_seq", pa.array(np.arange(n, dtype=np.int64))).append_column(
            "emit_ord", pa.array(np.zeros(n, dtype=np.int64))).append_column(
            "success", pa.array(np.ones(n, dtype=bool)))).materialize()
        named, name_s = timed(tracer, "download.assign_filenames",
                              lambda: assign_filenames(ds, ["parent_seq", "emit_ord"]).count())
        m["download.assign_filenames_rows_per_s"] = named / name_s

        sink = ParquetDirSink(osp.join(self.work_dir, f"sink-{uuid.uuid4().hex[:8]}"))
        tables = [pa.concat_tables([t for t in ts if t.num_rows]) for ts in self._last_tables]
        _, sink_s = timed(tracer, "sinks.write_table",
                          lambda: [sink.write_table(t, f"part={i}") for i, t in enumerate(tables)])
        m["sinks.write_mib_per_s"] = _dir_bytes(sink.root_dir) / 2 ** 20 / sink_s
        shutil.rmtree(sink.root_dir, ignore_errors=True)
        return m


class CrawlBroad(_Crawl):
    """Fat, parse-bound rounds: seeded with N/100 page URLs, no crawl delay,
    documents and content kept, no out_dir."""

    name = "crawl-broad"

    @staticmethod
    def _policy(web):
        from icrawler_ray.stages.politeness import HostPolicy

        return HostPolicy({h: {"crawl_delay_ms": 0, "max_inflight": 64,
                               "robots_disallow": []} for h in web.hosts}, round_ms=1000)

    @staticmethod
    def _seeds(web):
        return web.seed_urls(max(8, web.n_pages // 100))

    def _crawl(self, tracer):
        return self._run(self._new_crawl(tracer), tracer)

    def layers(self, tracer, perturb: bool = False) -> dict:
        m = super().layers(tracer, perturb)
        dedup, *self.layer_check = DedupStage(self.seed, self.scale).measure(tracer, perturb)
        m.update(dedup)
        return m


class CrawlPolite(_Crawl):
    """Many thin rounds: seeded with the host roots, a crawl delay caps each
    host per round, robots prefixes disallowed on a quarter of the hosts;
    writes out_dir and checkpoint_dir, is interrupted after a fixed round
    and resumed by a new GreedyCrawl from the same checkpoint."""

    name = "crawl-polite"
    crawl_delay_ms = 25  # budget = 1000 ms round / 25 ms = 40 pages/host/round
    interrupt_after = 4  # rounds run by the first leg

    def _policy(self, web):
        from icrawler_ray.stages.politeness import HostPolicy

        # the last quarter of the page hosts (never the hot host h0) disallow
        # page ids starting with 1, so every seed crawls a like share
        blocked = {f"h{i}.example.com" for i in range(web.n_hosts - web.n_hosts // 4, web.n_hosts)}
        return HostPolicy({h: {"crawl_delay_ms": self.crawl_delay_ms, "max_inflight": 64,
                               "robots_disallow": ["/p/1"] if h in blocked else []}
                           for h in web.hosts}, round_ms=1000)

    @staticmethod
    def _seeds(web):
        return list(web.domains)

    def _dirs(self, name: str) -> dict:
        base = osp.join(self.work_dir, name)
        return {"out_dir": osp.join(base, "out"), "checkpoint_dir": osp.join(base, "ckpt")}

    def _crawl(self, tracer):
        self._job_dir = f"crawl-{uuid.uuid4().hex[:8]}"
        kw = self._dirs(self._job_dir)
        first = self._new_crawl(tracer, max_rounds=self.interrupt_after, **kw)
        _, _, m1, _ = self._run(first, tracer)
        resumed = self._new_crawl(tracer, **kw)
        docs, results, m2, stats = self._run(resumed, tracer)
        return docs, results, m1 + m2, stats

    def release(self, out: JobOut) -> None:
        super().release(out)
        shutil.rmtree(osp.join(self.work_dir, self._job_dir), ignore_errors=True)

    def layers(self, tracer, perturb: bool = False) -> dict:
        m = super().layers(tracer, perturb)
        n_traced = sum(1 for i in self.job_infos if i["traced"])
        m["checkpoint.save_s.p50"] = _pct(tracer.durations("checkpoint.save_round"), 0.5)
        m["checkpoint.bytes_per_round"] = statistics.mean(self.ckpt_bytes)
        m["checkpoint.resume_s"] = (sum(tracer.durations("checkpoint.load_round"))
                                    + sum(tracer.durations("seen.restore"))) / n_traced
        # the seen set past its capacity: this run's seen.*, bloom.* and
        # cuckoo.* numbers come from the claims stage, not from the crawl
        claims, *self.layer_check = ClaimsStage(self.seed, self.scale, self.num_cpus).measure(
            tracer, perturb)
        m.update(claims)
        return m


# ------------------------------------------------------------ seen claims

def _claim_block(set_name: str, num_shards: int, round_idx: int):
    def fn(t: pa.Table) -> pa.Table:
        from icrawler_ray.state.seen import route_claims

        n = route_claims(t, set_name, set_name, num_shards, 1 << 30, round_idx=round_idx)
        return pa.table({"n": pa.array([n], type=pa.int64())})

    return fn


class ClaimsStage:
    """Rounds of pre-generated link claims routed from Ray Data tasks into a
    fresh ShardedSeenSet inside a begin_round .. finish_round_winners fence,
    measured in crawl-polite's traced run (a workload of its own does not
    fit the run-time budget next to the two crawls). Per round: ~50 % fresh
    keys, ~30 % repeats of earlier winners, ~20 % duplicates within the
    round; shard capacity stays at the crawl default, so the key count
    outgrows it and cuckoo generations open. Checked against exact numpy
    winners."""

    capacity = 1 << 18  # GreedyCrawl's default seen_capacity
    barrier_s = 10.0
    sizes = {"full": (8, 250_000), "tiny": (3, 4000)}  # rounds, claims per round

    def __init__(self, seed: int, scale: str, num_shards: int):
        self.seed = seed
        self.n_rounds, self.per_round = self.sizes[scale]
        self.num_shards = num_shards

    @staticmethod
    def make_rounds(seed: int, n_rounds: int, per_round: int):
        """-> [(url_hash keys, packed orders)] per round; packed is unique."""
        rng = np.random.default_rng(seed)
        pool = np.empty(0, dtype=np.uint64)
        rounds = []
        for r in range(n_rounds):
            n_rep = int(per_round * 0.3) if r else 0
            n_fresh = per_round // 2
            n_dup = per_round - n_fresh - n_rep
            fresh = rng.integers(1, np.iinfo(np.uint64).max, n_fresh, dtype=np.uint64,
                                 endpoint=True)
            keys = np.concatenate([fresh, rng.choice(pool, n_rep) if n_rep else
                                   np.empty(0, np.uint64), rng.choice(fresh, n_dup)])
            keys = keys[rng.permutation(per_round)]
            packed = rng.permutation(per_round).astype(np.int64)
            rounds.append((keys, packed))
            pool = np.concatenate([pool, fresh])
        return rounds

    @staticmethod
    def _datasets(rounds, blocks_per_round: int = 8):
        """One Dataset of ``blocks_per_round`` claim blocks per round."""
        import ray

        out = []
        for keys, packed in rounds:
            blocks = [pa.table({"row_kind": pa.repeat(pa.scalar("link"), len(k)),
                                "url_hash": pa.array(k, type=pa.uint64()),
                                "packed": pa.array(p),
                                "depth": pa.array(np.zeros(len(k), dtype=np.int32))})
                      for k, p in zip(np.array_split(keys, blocks_per_round),
                                      np.array_split(packed, blocks_per_round))]
            out.append(ray.data.from_arrow(blocks))
        return out

    def claim(self, tracer, rounds):
        """-> (winners per round, {"wall", "finish_s", "stats", "resent"})."""
        import ray

        from icrawler_ray.state.seen import ShardedSeenSet, route_claims

        datasets = self._datasets(rounds)
        seen = ShardedSeenSet(f"pb{uuid.uuid4().hex[:8]}", self.num_shards, self.capacity)
        seen.stats()  # actors constructed before the clock starts
        winners, finish_s, resent = [], [], 0
        t0 = time.perf_counter()
        for r, ds in enumerate(datasets):
            with tracer.span("seen.begin_round"):
                seen.begin_round(r)
            with tracer.span("seen.route_claims"):
                ds.map_batches(_claim_block(seen.name, self.num_shards, r),
                               batch_format="pyarrow", batch_size=None, num_cpus=1).sum("n")
            expected = len(rounds[r][0])
            with tracer.span("seen.barrier"):
                deadline = time.monotonic() + self.barrier_s
                while seen.claims_received() < expected and time.monotonic() < deadline:
                    time.sleep(0.002)
                if seen.claims_received() < expected:  # resend, idempotent
                    resent += 1
                    for block in ds.to_arrow_refs():
                        route_claims(ray.get(block), seen.name, seen.name,
                                     self.num_shards, 1 << 30, block=True, round_idx=r)
            with tracer.span("seen.finish_round"):
                t1 = time.perf_counter()
                winners.append(seen.finish_round_winners())
                finish_s.append(time.perf_counter() - t1)
        wall = time.perf_counter() - t0
        stats = seen.stats()
        seen.shutdown()
        got = [(np.asarray(k, dtype=np.uint64), np.asarray(p, dtype=np.int64))
               for k, p in winners]
        return got, {"wall": wall, "finish_s": finish_s, "stats": stats, "resent": resent}

    def measure(self, tracer, perturb: bool = False):
        """-> (metrics, attempted, failed): one small untimed job, then one
        timed job, checked after its timed window."""
        from perfbench.trace import Tracer

        self.claim(Tracer(False, tracer.run_id), self.make_rounds(self.seed + 1, 2, 2000))
        rounds = self.make_rounds(self.seed, self.n_rounds, self.per_round)
        got, info = self.claim(tracer, rounds)
        if perturb and got and len(got[0][0]):  # planted defect: a winner twice
            k, p = got[-1]
            got[-1] = (np.append(k, got[0][0][0]), np.append(p, got[0][1][0]))
        attempted, failed, lost = ref.compare_claims(got, ref.claim_winners(rounds))
        st = info["stats"]
        m = {"seen.claims_per_s": sum(len(k) for k, _ in rounds) / info["wall"],
             "seen.finish_round_s.p50": _pct(info["finish_s"], 0.5),
             "seen.finish_round_s.max": max(info["finish_s"]),
             "seen.novel_ratio": (sum(s["num_items"] for s in st)
                                  / max(1, sum(s["num_queries"] for s in st))),
             "seen.stale_claims": sum(s["stale_claims"] for s in st),
             "seen.claims_resent_rounds": info["resent"],
             "seen.fp_lost": lost}
        shard0 = [k[k % np.uint64(self.num_shards) == 0] for k, _ in rounds]
        m.update(filter_kernels(tracer, shard0, capacity=self.capacity))
        return m, attempted, failed


def filter_kernels(tracer, key_rounds: list[np.ndarray], capacity: int = 1 << 18) -> dict:
    """Feed one seen shard's key stream, round by round, through in-process
    BloomFilter and CuckooFilter instances the way SeenShard does (bloom
    first; only "maybe" keys probe the cuckoo; novel first occurrences are
    inserted), timing each call. The cuckoo is also probed with every key,
    so its false-positive rate is measured against the exact inserted set."""
    from icrawler_ray.state.bloom import BloomFilter
    from icrawler_ray.state.cuckoo import CuckooFilter

    bloom, cuckoo = BloomFilter(capacity), CuckooFilter(capacity)
    inserted = np.empty(0, dtype=np.uint64)
    t = {"bc": 0.0, "ba": 0.0, "cc": 0.0, "ca": 0.0}
    n = {"probe": 0, "maybe": 0, "added": 0, "new": 0, "fp": 0}
    for keys in key_rounds:
        maybe, dt = timed(tracer, "bloom.contains", bloom.contains, keys)
        t["bc"] += dt
        hit, dt = timed(tracer, "cuckoo.contains", cuckoo.contains, keys)
        t["cc"] += dt
        truly_new = ~np.isin(keys, inserted)
        n["new"] += int(truly_new.sum())
        n["fp"] += int((hit & truly_new).sum())
        _, first = np.unique(keys, return_index=True)
        is_first = np.zeros(len(keys), dtype=bool)
        is_first[first] = True
        novel = ~(maybe & hit) & is_first
        t["ca"] += timed(tracer, "cuckoo.add", cuckoo.add, keys[novel])[1]
        t["ba"] += timed(tracer, "bloom.add", bloom.add, keys[novel])[1]
        n["probe"] += len(keys)
        n["maybe"] += int(maybe.sum())
        n["added"] += int(novel.sum())
        inserted = np.union1d(inserted, keys[novel])
    return {
        "bloom.contains_keys_per_s": n["probe"] / t["bc"],
        "bloom.add_keys_per_s": n["added"] / max(t["ba"], 1e-9),
        "bloom.skip_ratio": 1 - n["maybe"] / max(1, n["probe"]),
        "cuckoo.contains_keys_per_s": n["probe"] / t["cc"],
        "cuckoo.add_keys_per_s": n["added"] / max(t["ca"], 1e-9),
        "cuckoo.generations": len(cuckoo.gens),
        "cuckoo.fpr": n["fp"] / max(1, n["new"]),
    }


# ----------------------------------------------------------- corpus dedup

class DedupStage:
    """The near-duplicate stage a crawled corpus goes through next, measured
    in crawl-broad's traced run (a workload of its own does not fit the
    run-time budget next to the two crawls).

    Short generated documents with a skewed ``source`` column: one source
    above dedup.NGRAM_HOT_GROUP_THRESHOLD (LSH path), many small sources
    (dense path). Near-duplicate clusters are planted inside sources.
    Pipeline: ngram_jaccard_pairs_grouped -> pairs_components -> keep the
    min id per cluster, checked against the planted truth."""

    threshold = 0.6
    words_per_doc = 20
    vocab = 50_000
    cold_sources = 300
    cluster_frac = 0.06  # share of docs that start a planted cluster
    cold_docs = {"full": 18_000, "tiny": 400}

    def __init__(self, seed: int, scale: str):
        from icrawler_ray.stages.dedup import NGRAM_HOT_GROUP_THRESHOLD

        self.seed = seed
        self.hot = NGRAM_HOT_GROUP_THRESHOLD + max(50, NGRAM_HOT_GROUP_THRESHOLD // 20)
        self.cold = self.cold_docs[scale]

    @classmethod
    def make_corpus(cls, seed: int, hot: int, cold: int, cold_sources: int):
        """-> (texts, sources, cluster_of); doc_id = list position."""
        rng = np.random.default_rng(seed)
        n = hot + cold
        src = np.empty(n, dtype=object)
        src[:hot] = "hot"
        src[hot:] = np.char.add("s", rng.integers(0, cold_sources, cold).astype(str))
        words = rng.integers(0, cls.vocab, (n, cls.words_per_doc))
        cluster_of = np.arange(n)
        # plant clusters: a base doc and 1-3 variants of it in the same
        # source, each with one word replaced (pairwise Jaccard >= 0.82)
        by_src: dict = {}
        for i in rng.permutation(n).tolist():
            by_src.setdefault(src[i], []).append(i)
        for ids in by_src.values():
            pos = 0
            while pos < len(ids):
                if rng.random() < cls.cluster_frac and pos + 1 < len(ids):
                    size = min(int(rng.integers(2, 5)), len(ids) - pos)
                    base = ids[pos]
                    for v in ids[pos + 1:pos + size]:
                        words[v] = words[base]
                        words[v, int(rng.integers(0, cls.words_per_doc))] = rng.integers(
                            cls.vocab, 2 * cls.vocab)
                        cluster_of[v] = base
                    pos += size
                else:
                    pos += 1
        texts = [" ".join(f"w{w}" for w in row) for row in words.tolist()]
        return texts, src.tolist(), cluster_of

    @staticmethod
    def _dataset(texts, sources):
        from icrawler_ray.functions.seq import from_table_blocks

        t = pa.table({"doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
                      "source": pa.array(sources, type=pa.string()),
                      "text": pa.array(texts, type=pa.string())})
        return from_table_blocks(t, min_rows_per_block=2000, tasks_per_cpu=2.0).materialize()

    @staticmethod
    def _components(pairs):
        import ray

        from icrawler_ray.stages.linkgraph import pairs_components

        edges = pa.table({"src": pa.array(pairs["a"].to_numpy(dtype=np.int64)),
                          "dst": pa.array(pairs["b"].to_numpy(dtype=np.int64))})
        return pairs_components(ray.data.from_arrow(edges))

    def measure(self, tracer, perturb: bool = False):
        """-> (metrics, attempted, failed)."""
        import pyarrow.compute as pc

        from icrawler_ray.stages.dedup import (NGRAM_HOT_GROUP_THRESHOLD,
                                               ngram_jaccard_pairs_grouped)

        warm_texts, warm_sources, _ = self.make_corpus(self.seed + 1, 600, 600, 20)
        self._components(ngram_jaccard_pairs_grouped(
            self._dataset(warm_texts, warm_sources), threshold=self.threshold,
            hot_group_threshold=500))

        texts, sources, cluster_of = self.make_corpus(
            self.seed, self.hot, self.cold, self.cold_sources)
        ds = self._dataset(texts, sources)
        pairs, pairs_s = timed(tracer, "dedup.ngram_jaccard_pairs_grouped",
                               ngram_jaccard_pairs_grouped, ds, threshold=self.threshold)
        comps, comps_s = timed(tracer, "linkgraph.pairs_components", self._components, pairs)
        if perturb and len(pairs):  # planted defect: one wrong Jaccard value
            pairs = pairs.copy()
            pairs.loc[0, "jaccard"] = pairs.loc[0, "jaccard"] - 0.1
        counts = Counter(sources)
        attempted, failed, recall = ref.compare_dedup(
            pairs, comps, texts, sources, cluster_of, self.threshold,
            lsh_sources={s for s, c in counts.items() if c > NGRAM_HOT_GROUP_THRESHOLD})
        m = {"dedup.docs_per_s": len(texts) / (pairs_s + comps_s),
             "dedup.planted_recall": recall,
             "linkgraph.components_s": comps_s}
        # the same corpus split by the hot/cold routing, one call each
        parts = {"hot": ds.filter(expr="source == 'hot'").materialize(),
                 "cold": ds.map_batches(lambda t: t.filter(pc.not_equal(t["source"], "hot")),
                                        batch_format="pyarrow").materialize()}
        for name, part in parts.items():
            _, m[f"dedup.pairs_{name}_s"] = timed(
                tracer, f"dedup.pairs_{name}", ngram_jaccard_pairs_grouped, part,
                threshold=self.threshold)
        return m, attempted, failed


WORKLOADS = {cls.name: cls for cls in (CrawlBroad, CrawlPolite)}
assert tuple(WORKLOADS) == WORKLOAD_NAMES

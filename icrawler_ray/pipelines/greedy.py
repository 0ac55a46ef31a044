"""Greedy (frontier) crawl pipeline (SURVEY.md §3.2 — the north-rule core).

Reference flow: GreedyFeeder seeds domains and parks; GreedyParser feeds
page links back into its own queue (the BFS frontier with the url_queue's
CachedQueue as seen-set, /root/reference/icrawler/parser.py:105-111,
greedy.py:10-15). Here the feedback loop is an explicit driver round loop
(Ray Data has no native iteration); each round is one dataflow:

    frontier_r --politeness gate--> gated | deferred
    gated --fetch/parse tasks, seen-shard claims fused in--> docs + tasks
          + links + errors
    claims --min (parent_seq, emit_ord) per URL key--> winner arrays
    winning tasks --fetch--> kept files --crawl-order dl_seq--> filenames
    winning links --rank among the winners = discovered seq--> new rows
    frontier_{r+1} = deferred U new rows ; checkpoint(round)

Control values ride the claim channel. Each parse and fetch batch sends
the seen shards a keyed report with its counts (pages in, error and doc
rows, claims sent; rows fetched and the kept files' order keys), and the
driver's claim barrier sums them: no Ray Data execution runs just to count
rows. With a round dir (``out_dir`` or ``checkpoint_dir``) the parse tasks
also write the round's docs into it themselves. A round then runs one Ray
Data execution per stage: parse, fetch, results persist and link admit
(plus a docs materialise without a round dir).

Frontier residency: between rounds the frontier lives where its size
allows. At or below ``driver_threshold`` rows it is an Arrow table on the
driver, gated by ``split_by_budget`` directly; above it, a Dataset whose
blocks stay in the object store (the 10^10-URL design point), gated by the
distributed ``politeness_gate``, which runs the same kernel on each block
and each exchange partition. Everything after the gate is one code
path. The driver holds only control values (claim winner sets, the kept
downloads' order keys, the task reports), never link rows — the
memory-bounded pipeline scheduling argument of "Memory Efficient
Scheduling of Query Pipeline Execution" (CIDR 2022).

Determinism: every ordering is defined by explicit sort keys
(depth/priority/discovered seq — SURVEY.md §7.4), so outputs are identical
at any parallelism; the sequential oracle (icrawler_ray/oracle.py)
reproduces them exactly. Deviations from the reference, by design:
- crawl order is *defined*, not a lock-interleaving artifact
  (downloader.py:110-139)
- max_num truncates downloads and stops the crawl at the ROUND boundary,
  not mid-stream
- politeness/robots exist (the reference has none)
"""

from __future__ import annotations

import os
import time
import uuid

import numpy as np
import pyarrow as pa
import ray
import ray.data

from icrawler_ray.defaults import DEFAULT_EXT
from icrawler_ray.functions.seq import cluster_cpus, from_table_blocks
from icrawler_ray.functions.urlnorm import canonical_urls, hash_urls, host_of_one
from icrawler_ray.schemas import FRONTIER
from icrawler_ray.stages.download import make_fetcher_fn, name_files
from icrawler_ray.stages.fetch_parse import DOC_COLUMNS, make_fetch_parse_fn
from icrawler_ray.stages.politeness import (HostPolicy, make_inflight_limiter, politeness_gate,
                                            split_rows)
from icrawler_ray.state.checkpoint import CheckpointManager, RoundOutputs
from icrawler_ray.state.hostrank import HostRankState
from icrawler_ray.state.seen import (ShardedSeenSet, await_claims, await_fetched, begin_rounds,
                                     finish_rounds, is_actor_death, packed_order)

#: FRONTIER column names as the politeness gate and the parse tasks read them
_GATE_COLS = ["url", "url_canon", "url_hash", "host", "depth", "priority", "seq",
              "parent_doc_id"]
#: in-process fault-recovery budget: on a seen-shard actor death mid-round,
#: rewind to the last round-boundary checkpoint (fresh shard fleet, restored
#: state) and retry the round, at most this many times per run (requires
#: checkpoint_dir)
_MAX_RECOVERIES = 2
#: every this many rounds the seen shards checkpoint a FULL snapshot
#: (O(capacity) bytes, ~21 GiB at the 10^10-key design point); the rounds
#: in between write only the O(novel) inserted-key delta, and restore
#: replays the deltas onto the latest full snapshot
_SEEN_FULL_EVERY = 8


def normalize_domains(domains) -> list[str]:
    """GreedyImageCrawler.crawl input fixup (greedy.py:80-88)."""
    if isinstance(domains, str):
        domains = [domains]
    out = []
    for d in domains:
        if not d.startswith("http"):
            d = "http://" + d
        out.append(d.rstrip("/"))
    return out


def _frontier_table(urls: list, depths, seqs, parents=None) -> pa.Table:
    """FRONTIER rows for seed or newly admitted URLs: canonical form, key
    hash and host are derived here; priority starts flat at 1.0."""
    canon = canonical_urls(urls)
    n = len(urls)
    return pa.table(
        {
            "url": pa.array(urls, type=pa.string()),
            "url_canon": pa.array(canon, type=pa.string()),
            "url_hash": pa.array(hash_urls(canon), type=pa.uint64()),
            "host": pa.array([host_of_one(u) for u in urls], type=pa.string()),
            "depth": pa.array(np.asarray(depths, dtype=np.int32)),
            "priority": pa.array(np.ones(n, dtype=np.float64)),
            "discovered_seq": pa.array(np.asarray(seqs, dtype=np.int64)),
            "parent_doc_id": (pa.array([""] * n, type=pa.string())
                              if parents is None else parents),
        },
        schema=FRONTIER,
    )


class GreedyCrawl:
    def __init__(
        self,
        url_map_ref,
        domains,
        policy: HostPolicy | None = None,
        max_num: int = 0,
        max_depth: int = 6,
        max_rounds: int = 64,
        min_size=None,
        max_size=None,
        num_shards: int = 8,
        seen_capacity: int = 1 << 18,
        exact_seen: bool = False,
        out_dir: str | None = None,
        checkpoint_dir: str | None = None,
        default_ext: str = DEFAULT_EXT,
        keep_content: bool = True,
        driver_threshold: int = 200_000,
        seeds: list[str] | None = None,
        emit_docs: bool = True,
        enforce_inflight: bool = False,
        max_idle_time: float | None = None,
        file_idx_offset: int = 0,
        host_rank_priority: bool = False,
        downloader_hooks=None,
    ):
        # host_rank_priority (opt-in; default preserves reference/oracle
        # parity): new frontier rows get priority 1 + log1p(cumulative
        # admitted in-links of their host) instead of the flat 1.0 — the
        # link-graph signal (stages/linkgraph.py) wired into the politeness
        # gate's (-priority, seq) ordering, so heavily-referenced hosts are
        # crawled first when budgets bind. Counter state lives in
        # hash-partitioned counter shard actors (state/hostrank.py — the
        # 1e8-host design point holds no per-host driver state and
        # exchanges only the round's own (host, n) rows). Intentionally NOT
        # checkpointed: the signal re-warms after resume.
        self.host_rank_priority = bool(host_rank_priority)
        # file_idx_offset: filename numbering starts after this offset
        # (the reference's resume numbering, downloader.py:53-58); does not
        # affect the max_num download budget.
        self.file_idx_offset = int(file_idx_offset)
        # downloader_hooks=(cls, kwargs): a reference-style Downloader
        # subclass's keep_file runs in the fetch tasks, its get_filename
        # and process_meta in the naming map (X3; stages/download).
        self.downloader_hooks = downloader_hooks
        # max_idle_time (reference downloader.py:195-205): stop the crawl
        # once no round has produced progress (docs, downloads or new
        # links) for this many seconds — the open-ended live-web exit
        # condition. Bounded hermetic crawls drain the frontier naturally
        # and never need it.
        self.max_idle_time = max_idle_time
        # emit_docs=False: throughput mode — no corpus rows are built or
        # shipped (span assembly is the widest data in the pipeline);
        # crawl ordering / seen-set semantics are unchanged.
        self.emit_docs = emit_docs
        # driver_threshold: where the frontier lives between rounds (module
        # docstring). The driver table saves the gate's shuffle and the
        # per-round Dataset overhead at small sizes; past the threshold only
        # the object store can hold the frontier. Outputs are identical on
        # both sides (parity-tested against the sequential oracle).
        self.driver_threshold = driver_threshold
        self.url_map_ref = url_map_ref
        self.domains = normalize_domains(domains)
        # seed URLs may differ from the domain (classification) set — e.g.
        # a broad re-crawl seeding thousands of known pages while the
        # same-domain predicate stays the host list (greedy.py:23-27).
        self.seed_urls = normalize_domains(seeds) if seeds is not None else self.domains
        self.policy = policy or HostPolicy({})
        self.policy_ref = ray.put(self.policy)
        self.max_num = max_num
        self.max_depth = max_depth
        self.max_rounds = max_rounds
        self.min_size = min_size
        self.max_size = max_size
        self.out_dir = out_dir
        self.default_ext = default_ext
        self.keep_content = keep_content
        self.run_id = uuid.uuid4().hex[:8]  # actor-name namespace of this crawl
        # num_shards: seen-set (and host-rank counter) shard actors per
        # fleet, each holding seen_capacity keys before a new filter
        # generation opens. Fixed, not read from the cluster: a checkpoint
        # resumes only with the shard count it was written with.
        self.num_shards = num_shards
        self._host_rank = HostRankState(self.num_shards)
        self.seen_capacity = seen_capacity
        self.exact_seen = exact_seen
        self._seen_gen = 0  # bumped on fault recovery (fresh actor fleet)
        self._spawn_seen_sets(self.run_id)
        self.ckpt = CheckpointManager(checkpoint_dir) if checkpoint_dir else None
        # exact per-host inflight caps (opt-in: one named token actor per
        # run, slots acquired per (task, host run) in the fetch stages)
        self.inflight_name, self._inflight_actor = (
            make_inflight_limiter(f"inflight:{self.run_id}", self.policy)
            if enforce_inflight else (None, None))
        self.metrics: list[dict] = []
        self.dl_count = 0
        self.next_seq = 0
        self.start_round = 0
        self._recoveries = 0
        # The frontier between rounds: a driver pa.Table, or a Dataset of
        # object-store blocks of which the driver holds only the row count.
        self._frontier: pa.Table | ray.data.Dataset | None = None
        self._frontier_count: int | None = None
        self.outputs = RoundOutputs(out_dir, self.ckpt)

    # ------------------------------------------------------------- setup

    def _init_frontier(self) -> None:
        if self.ckpt:
            manifest = self.ckpt.load_manifest()
            if manifest is not None:
                self._resume(manifest)
                return
        n = len(self.seed_urls)
        t = _frontier_table(self.seed_urls, [0] * n, range(n))
        # seed dedup + seen-mark (enqueue-time semantics, cached_queue.py:53-59)
        first: dict = {}
        for i, c in enumerate(t["url_canon"].to_pylist()):
            first.setdefault(c, i)
        t = t.take(np.fromiter(first.values(), dtype=np.int64, count=len(first)))
        novel = self.seen_pages.filter_and_insert_array(t["url_hash"].to_numpy())
        self._set_frontier(t.filter(pa.array(novel)))
        self.next_seq = n

    def _resume(self, manifest: dict) -> None:
        r = manifest["last_round"]
        frontier, seen_pages, seen_files, capacity = self.ckpt.load_round(r)
        self.seen_pages.restore(seen_pages, capacity)
        self.seen_files.restore(seen_files, capacity)
        self._set_frontier(frontier.cast(FRONTIER) if frontier is not None else None)
        c = manifest["counters"]
        self.dl_count = c["dl_count"]
        self.next_seq = c["next_seq"]
        self.start_round = r + 1
        self.outputs.adopt_finished(self.start_round)

    def _spawn_seen_sets(self, prefix: str) -> None:
        self.seen_pages, self.seen_files = (
            ShardedSeenSet(f"{prefix}:{kind}", self.num_shards, self.seen_capacity,
                           exact=self.exact_seen) for kind in ("pages", "files"))

    def _recover_from_checkpoint(self) -> None:
        """In-process fault recovery (seen-shard actor death mid-round):
        kill whatever survives of the current shard fleet, spawn a fresh
        generation of named actors, and rewind frontier / seen state /
        counters to the last round-boundary checkpoint — the same restore
        path a fresh-process resume takes (claim routing picks up the new
        actor names because every round passes ``self.seen_pages.name``).
        Already-written round partitions stay final (skip-finished
        resume); the re-run round replaces its own partial output dir.
        HostInflightLimiter slots held by tasks that died mid-round are
        dropped via reset() — the re-run round starts from a clean
        slate."""
        self._seen_gen += 1
        for old in (self.seen_pages, self.seen_files):
            old.shutdown()  # per-shard kill, tolerant of the dead one
        self._spawn_seen_sets(f"{self.run_id}:g{self._seen_gen}")
        self.outputs = RoundOutputs(self.out_dir, self.ckpt)
        self.dl_count = 0
        self._host_rank.reset()  # re-warms, like resume (else the re-run
        #                          round would double-count its in-links)
        self._set_frontier(None)
        if self._inflight_actor is not None:
            ray.get(self._inflight_actor.reset.remote())
        manifest = self.ckpt.load_manifest()
        if manifest is not None:
            self._resume(manifest)
        else:  # died during round 0: restart from seeds
            self.start_round = 0
            self.next_seq = 0
            self._init_frontier()

    # ------------------------------------------------- frontier residency

    def _set_frontier(self, f, count: int | None = None) -> None:
        self._frontier = f
        if f is None:
            self._frontier_count = 0
        elif isinstance(f, pa.Table):
            self._frontier_count = f.num_rows
        else:
            self._frontier_count = f.count() if count is None else count

    def _frontier_rows(self) -> int:
        return self._frontier_count or 0

    def _frontier_as_table(self) -> pa.Table:
        self._frontier = _as_table(self._frontier)
        return self._frontier

    def _store_frontier(self, deferred, new, tm: dict) -> tuple[int, int]:
        """Make ``deferred`` U ``new`` the next frontier: a driver table at
        or below ``driver_threshold`` rows, else object-store blocks.
        -> (deferred rows, new rows)."""
        t0 = time.time()
        if not isinstance(deferred, pa.Table):
            deferred = deferred.materialize()
        n_def = deferred.num_rows if isinstance(deferred, pa.Table) else deferred.count()
        n_new = new.count() if new is not None else 0
        tm["deferred"] = time.time() - t0
        n_rows = n_def + n_new
        parts = [deferred] + ([] if new is None else [new])
        if n_rows <= self.driver_threshold:
            t0 = time.time()
            self._set_frontier(pa.concat_tables([_as_table(p) for p in parts]))
            tm["links_collect"] = time.time() - t0
            return n_def, n_new
        parts = [_as_dataset(p) for p in parts]
        fr = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
        # Empty-block drag: deferred is a FILTER of this round's frontier,
        # so it keeps the parent's block count even when nearly empty — on
        # a drained frontier hundreds of ~0-row blocks union into the next
        # round and every gate scan pays a task per block (measured: a
        # 6.8 s gate over a 32k-row round-4 frontier at 500k pages).
        # Re-block only when pathological; rows are order-insensitive
        # (every downstream ordering has explicit sort keys).
        target = int(min(max(1, n_rows // 4096), 4 * cluster_cpus()))
        if sum(p.num_blocks() for p in parts) > 2 * target:
            t0 = time.time()
            fr = fr.repartition(target).materialize()
            tm["reblock"] = time.time() - t0
        self._set_frontier(fr, count=n_rows)
        return n_def, n_new

    # -------------------------------------------------------------- round

    def run(self):
        self._init_frontier()
        round_idx = self.start_round
        last_progress = time.time()
        while round_idx < self.max_rounds:
            if self._frontier is None or self._frontier_rows() == 0:
                break
            if self.max_num and self.dl_count >= self.max_num:
                break
            try:
                m = self._run_round(round_idx)
            except Exception as e:  # noqa: BLE001 — filtered to actor death below
                if (self.ckpt is None or self._recoveries >= _MAX_RECOVERIES
                        or not is_actor_death(e)):
                    raise
                self._recoveries += 1
                self._recover_from_checkpoint()
                round_idx = self.start_round
                continue
            self.metrics.append(m)
            round_idx += 1
            if any(m.get(k) for k in ("docs", "downloads", "new_links")):
                last_progress = time.time()
            elif (self.max_idle_time is not None
                  and time.time() - last_progress >= self.max_idle_time):
                m["idle_stop"] = True
                break
        return self.outputs.assemble("docs"), self.outputs.assemble("results"), self.metrics

    def _gate(self):
        """Politeness + robots gate on the frontier where it lives.
        -> (gated rows to fetch, deferred FRONTIER rows, gated count); both
        are driver tables or both Datasets."""
        if self._frontier_rows() > self.driver_threshold:
            frontier = _as_dataset(self._frontier).map_batches(
                lambda t: t.rename_columns(_GATE_COLS), batch_format="pyarrow")
            gated, deferred = politeness_gate(frontier, self.policy_ref)
            deferred = deferred.map_batches(
                lambda t: t.rename_columns(FRONTIER.names).cast(FRONTIER),
                batch_format="pyarrow")
            return gated, deferred, gated.count()
        frontier = self._frontier_as_table()
        rows = frontier.rename_columns(_GATE_COLS)
        gated, deferred = split_rows(rows, self.policy)
        return (rows.take(gated).select(["url", "depth", "seq"]), frontier.take(deferred),
                len(gated))

    def _run_round(self, round_idx: int) -> dict:
        tm = {"gate": time.time()}
        gated, deferred, n_gated = self._gate()
        tm["gate"] = time.time() - tm["gate"]
        metrics = {"round": round_idx, "gated": n_gated}
        if n_gated == 0:
            # everything robots-dropped: frontier drains
            self._set_frontier(None)
            self._checkpoint(round_idx, metrics)
            return metrics

        # Fetch/parse runs as stateless tasks with worker-process-cached
        # state, NOT an actor pool: an iterative crawl runs one Ray Data
        # execution per round, and actor pools respawn per execution —
        # measured 13x slower end-to-end at 200k pages. The seen-shard
        # claims ride inside the parse tasks ([[claim-protocol-design]]):
        # frontier dedup and seen filtering cost zero shuffles. So do the
        # round's counts (task reports), and with a round dir the tasks
        # write the docs themselves.
        t0 = time.time()
        docs_dir = self.outputs.prepare(round_idx, "docs") if self.emit_docs else None
        begin_rounds([self.seen_pages, self.seen_files], round_idx)  # open the claim fence
        parsed = _reblock(gated, n_gated).map_batches(
            make_fetch_parse_fn(
                self.url_map_ref, "greedy", {"domains": self.domains},
                emit_docs=self.emit_docs, with_keys=True, slim=True,
                claim=(self.seen_pages.name, self.seen_files.name,
                       self.seen_pages.num_shards, self.max_depth),
                inflight=self.inflight_name,
                claim_round=round_idx, docs_dir=docs_dir,
            ),
            batch_format="pyarrow",
            batch_size=None,
            num_cpus=1,
        ).materialize()  # round + claim-submission barrier
        tm["parse"] = time.time() - t0
        if os.environ.get("ICRAWLER_RAY_STATS"):
            print(f"--- round {round_idx} parse stats ---")
            print(parsed.stats())

        # claims and reports were sent to the seen-set shard actors INSIDE
        # the parse tasks (fused, NON-blocking); materialize() bounds
        # submission and await_claims is the delivery barrier, which also
        # sums the reported counts
        t0 = time.time()
        rep = await_claims(self.seen_pages, self.seen_files, parsed, n_gated,
                           self.max_depth, round_idx=round_idx, docs_dir=docs_dir)
        (_, task_packed), (_, link_packed) = finish_rounds([self.seen_files, self.seen_pages])
        tm["claims"] = time.time() - t0
        metrics.update(errors=rep["errors"], docs=rep["docs"], claims=rep["claims"])
        if docs_dir is not None:
            self.outputs.adopt(round_idx, "docs", rep["docs"])
        elif self.emit_docs and rep["docs"]:
            t0 = time.time()
            self.outputs.persist(parsed.filter(expr="row_kind == 'doc'").select_columns(
                DOC_COLUMNS), round_idx, "docs")
            tm["docs_persist"] = time.time() - t0

        n_kept, dl_resent = self._download(parsed, task_packed, round_idx, tm)
        self.dl_count += n_kept
        metrics["downloads"] = n_kept
        if rep["resent"] or dl_resent:
            metrics["claims_resent"] = True

        # ---- frontier expansion: link winners are already depth-eligible
        # (capped winners were dropped, unmarked, in finish_round — oracle
        # claimed-before-depth-check semantics). Winner order is crawl
        # order, so a kept link's rank among the sorted winners is its
        # discovered seq offset: no sort, no link rows on the driver.
        t0 = time.time()
        next_seq = self.next_seq

        def to_frontier(t: pa.Table, rank: np.ndarray) -> pa.Table:
            return _frontier_table(
                t["link_url"].to_pylist(), t["depth"].to_numpy(zero_copy_only=False) + 1,
                next_seq + rank, t["page_url"] if "page_url" in t.column_names else None)

        new = _admitted_rows(parsed, "link", link_packed, to_frontier)
        if new is not None:
            new = new.materialize()
            if self.host_rank_priority:
                new = self._host_rank.rewrite_priorities(new, FRONTIER)
        tm["links"] = time.time() - t0
        n_def, n_new = self._store_frontier(deferred, new, tm)
        metrics["new_links"] = n_new
        metrics["deferred"] = n_def
        self.next_seq += n_new
        metrics["timings"] = {k: round(v, 3) for k, v in tm.items()}
        self._checkpoint(round_idx, metrics)
        return metrics

    def _download(self, parsed, task_packed, round_idx: int, tm: dict) -> tuple[int, bool]:
        """Fetch the round's winning tasks, then name and persist the kept
        files in crawl order. The fetched blocks (binary content) stay in
        the object store; the fetch tasks report the kept files' packed
        (parent_seq, emit_ord) keys over the seen-shard channel, and the
        driver truncates them to the max_num budget in crawl order and
        broadcasts them back: a file's download sequence is its key's
        rank. -> (files kept, whether the fetch barrier fell back to the
        fetched blocks)."""
        tasks = _admitted_rows(parsed, "task", task_packed)
        if tasks is None:
            return 0, False
        t0 = time.time()
        cols = [c for c in ("file_url", "meta_json", "parent_seq", "emit_ord")
                if c in parsed.schema().names]
        fetched = tasks.select_columns(cols).map_batches(
            make_fetcher_fn(
                self.url_map_ref, min_size=self.min_size, max_size=self.max_size,
                keep_content=self.keep_content, inflight=self.inflight_name,
                user_downloader=self.downloader_hooks,
                report=(self.seen_files.name, self.seen_files.num_shards, round_idx),
            ),
            batch_format="pyarrow",
            batch_size=None,
            num_cpus=1,
        ).filter(expr="success == True").materialize()
        kept, resent = await_fetched(self.seen_files, fetched, len(task_packed))
        tm["download"] = time.time() - t0
        if self.max_num:
            kept = kept[: max(0, self.max_num - self.dl_count)]
        if not len(kept):
            return 0, resent
        t0 = time.time()
        kept_ref = ray.put(kept)
        offset = self.dl_count + self.file_idx_offset
        ext, hooks = self.default_ext, self.downloader_hooks

        def name(t: pa.Table) -> pa.Table:
            seq, hit = _lookup(ray.get(kept_ref), packed_order(t))
            t = t.filter(pa.array(hit))
            t = t.append_column("dl_seq", pa.array(seq[hit]))
            return name_files(t, seq[hit], ext, offset, hooks)

        n_kept = self.outputs.persist(fetched.map_batches(name, batch_format="pyarrow"),
                                      round_idx, "results")
        tm["dl_persist"] = time.time() - t0
        return n_kept, resent

    def _checkpoint(self, round_idx: int, metrics: dict) -> None:
        if self.ckpt:
            self.ckpt.save_round(round_idx, self._frontier, self.seen_pages, self.seen_files,
                                 {"dl_count": self.dl_count, "next_seq": self.next_seq},
                                 metrics, full=round_idx % _SEEN_FULL_EVERY == 0)

    def shutdown(self) -> None:
        self.seen_pages.shutdown()
        self.seen_files.shutdown()
        self._host_rank.reset()
        if self._inflight_actor is not None:
            ray.kill(self._inflight_actor)
            self._inflight_actor = None


def _reblock(gated, n: int):
    """Gated rows as ~4 parse tasks per CPU, never under 64 rows each.
    One wave of core-count tasks lets the slowest worker set the phase
    time (measured 20-40% run-to-run swing on a 156k-row round), and the
    distributed gate's output is HOST-CLUSTERED: each host's whole budget
    sits in one reduce block, so without a re-block ONE parse task fetches
    the biggest host's entire round (measured: a 46.9 s straggler task
    inside a 69.6 s parse phase on a 156k-row round at 32 CPUs). The
    input is the narrow gated metadata — always rebalance, block COUNT
    alone says nothing about skew."""
    if isinstance(gated, pa.Table):
        return from_table_blocks(gated, min_rows_per_block=64, tasks_per_cpu=4.0)
    return gated.repartition(min(max(1, n // 64), 4 * cluster_cpus()))


def _lookup(sorted_keys: np.ndarray, keys: np.ndarray):
    """(position, found) of each key in a sorted, non-empty key array."""
    idx = np.searchsorted(sorted_keys, keys)
    return idx, sorted_keys[np.minimum(idx, len(sorted_keys) - 1)] == keys


def _admitted_rows(parsed_ds, kind: str, packed_winners, build=None):
    """Select a round's claim-winning rows of ``kind``: broadcast the
    sorted winner packed-order array once, searchsorted-filter each block.
    packed is unique per emission row, so no collision with non-winning
    rows is possible. ``build(rows, rank)``, if given, maps the kept rows
    and their ranks among the winners to output rows in the same pass.
    Returns None when there are no winners."""
    if packed_winners is None or not len(packed_winners):
        return None
    adm_ref = ray.put(np.sort(packed_winners))

    def keep(t: pa.Table) -> pa.Table:
        rank, hit = _lookup(ray.get(adm_ref), t["packed"].to_numpy(zero_copy_only=False))
        t = t.filter(pa.array(hit))
        return t if build is None else build(t, rank[hit])

    return parsed_ds.filter(expr=f"row_kind == '{kind}'").map_batches(
        keep, batch_format="pyarrow")


def _as_table(frontier) -> pa.Table:
    """Frontier rows as one driver table (used only at or below the
    residency threshold)."""
    if isinstance(frontier, pa.Table):
        return frontier
    tables = [t.select(FRONTIER.names).cast(FRONTIER)
              for t in ray.get(frontier.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tables) if tables else FRONTIER.empty_table()


def _as_dataset(frontier):
    """Frontier rows as an object-store Dataset."""
    if isinstance(frontier, pa.Table):
        return from_table_blocks(frontier, min_rows_per_block=1024)
    return frontier


def greedy_crawl(url_map_ref, domains, **kwargs):
    crawl = GreedyCrawl(url_map_ref, domains, **kwargs)
    try:
        return crawl.run()
    finally:
        crawl.shutdown()

"""Sharded URL-seen set (SURVEY.md Q1-Q3; the north-rule dedup core).

The reference's seen-set is a per-queue OrderedDict
(/root/reference/icrawler/utils/cached_queue.py:26-51): O(1) membership,
single-threaded, unbounded memory, lost on crash. This engine shards it:

    shard(key) = url_hash % S      (url_hash = SipHash64 of canonical URL)

Each shard is a named Ray actor holding a bloom pre-filter + a cuckoo
filter (bounded FP). S is fixed for a crawl's life, checkpoints included
(a snapshot restores only into S shards). The actors reserve no CPU: they
are bursty (a few batched calls per round), and a reservation would
starve the fetch/parse tasks on small clusters. They are SPREAD across
nodes, so the hash-partitioned state and its claim traffic scale out with
the cluster, as the north rule prescribes.

Frontier dedup is a round-scoped claim protocol, not a shuffle. Each
parse task pushes its emission rows' (url_hash, packed order) pairs
straight to the owning shards (:func:`route_claims`, fused into the parse
tasks); the driver's :func:`await_claims` is the delivery barrier; then
each shard's ``finish_round`` keeps the min-order claim per key (the
oracle's first-emission-wins), filters the winners against its persistent
filters, inserts the novel ones and returns them. Claims commute, so the
winners are the same at any parallelism; ``filter_and_insert`` is atomic
per shard, so a key seen in different rounds is admitted exactly once.

The round's control values ride the same channel. Each parse batch sends
one keyed report (:func:`send_report`: pages in, error rows, doc rows,
claims sent) and each fetch batch one (rows in, the packed keys of the
rows it kept). The barriers (:func:`await_claims`, :func:`await_fetched`)
sum them, so the driver needs no Dataset pass for a count. A re-executed
task replaces its report rather than counting twice.

Checkpoint: each shard writes its own file into the round dir and returns
only its path, key count and size; the driver publishes them in the
manifest (state/checkpoint.py) and never holds filter bytes or keys:

    <round dir>/seen_<kind>/shard=<i>.full.npz    counters + bloom/cuckoo
                                                  bytes (exact: the key set)
    <round dir>/seen_<kind>/shard=<i>.delta.npy   uint64 keys inserted since
                                                  the shard's last save

Restore hands each shard its own chain (latest full, then the deltas after
it) and the shard reads it back. The checkpoint dir must be reachable at
the same path from every node that runs a shard.
"""

from __future__ import annotations

import os
import os.path as osp
import time

import numpy as np
import ray

# Every seen-shard actor process imports this module at start-up, so it
# imports nothing heavier than numpy and ray (ray.data alone costs about
# 0.5 s of CPU per fresh process).
from icrawler_ray.state.bloom import BloomFilter
from icrawler_ray.state.cuckoo import CuckooFilter


def packed_order(t) -> np.ndarray:
    """parent_seq<<20 | emit_ord of an Arrow table's emission rows: the
    crawl-order key a claim carries, unique per row, so the min over a
    URL's rows is its first emission. Fits int64 up to parent_seq < 2^43
    (8.8e12 pages, above the 10^10 design point) with emit_ord < 2^20 per
    page."""
    ph = t["parent_seq"].to_numpy(zero_copy_only=False).astype(np.int64)
    return (ph << np.int64(20)) | t["emit_ord"].to_numpy(zero_copy_only=False).astype(np.int64)


@ray.remote(num_cpus=0, scheduling_strategy="SPREAD")  # see module docstring
class SeenShard:
    def __init__(self, capacity: int, exact: bool = False):
        # exact=True: a plain key set instead of the filters (test oracle
        # cross-check; no false positives, unbounded memory)
        self.bloom = None if exact else BloomFilter(capacity)
        self.cuckoo = None if exact else CuckooFilter(capacity)
        self.exact: set | None = set() if exact else None
        self.num_items = 0
        self.num_queries = 0
        self.num_hits = 0
        self._stale_n = 0  # tagged claims dropped by the round fence
        self._rewind()

    def _rewind(self) -> None:
        """Drop round-scoped claim state and the pending delta: the shard
        stands at a round boundary (start, or a restored checkpoint)."""
        self._claims: list = []
        self._claimed_n = 0
        self._round: int | None = None  # claim window, opened by begin_round
        # task reports of the round begin_round opened: {(kind, key): values};
        # they outlive finish_round, since fetch tasks report after it
        self._reports: dict = {}
        self._report_round: int | None = None
        self._delta: list = []  # keys inserted since the last save

    def filter_and_insert(self, keys: np.ndarray) -> np.ndarray:
        """Returns novel-mask; novel keys are inserted."""
        keys = np.asarray(keys, dtype=np.uint64)
        self.num_queries += len(keys)
        if self.exact is None:
            maybe = self.bloom.contains(keys)  # pre-filter: definite-new skips cuckoo probe
            seen = np.zeros(len(keys), dtype=bool)
            if maybe.any():
                seen[maybe] = self.cuckoo.contains(keys[maybe])
            novel = ~seen
            # batch-internal first-occurrence wins
            _, first_idx = np.unique(keys, return_index=True)
            first_mask = np.zeros(len(keys), dtype=bool)
            first_mask[first_idx] = True
            novel &= first_mask
            if novel.any():
                self.cuckoo.add(keys[novel])
                self.bloom.add(keys[novel])
        else:
            novel = np.zeros(len(keys), dtype=bool)
            for i, k in enumerate(keys):
                if int(k) not in self.exact:
                    self.exact.add(int(k))
                    novel[i] = True
        self.num_items += int(novel.sum())
        self.num_hits += int(len(keys) - novel.sum())
        if novel.any():  # delta-checkpoint capture (keys since last save)
            self._delta.append(keys[novel])
        return novel

    # ---- round-scoped claim protocol (frontier dedup without a shuffle):
    # parse tasks push (key, order) pairs for their shard; finish_round
    # computes min-order winners per key (vectorized), filters them
    # against the persistent seen state, inserts the novel ones and
    # returns them. Claims are commutative -> arrival order irrelevant ->
    # deterministic winners at any parallelism.

    def begin_round(self, round_idx: int) -> None:
        """Open the claim window for ``round_idx``. Tagged claims whose
        round doesn't match the open window are dropped (counted in
        stale_claims) — in-flight stragglers from a timed-out previous
        round can neither inflate the next round's delivery counter nor
        steal its min-packed winner slots (ADVICE r3 #1). Untagged claims
        (round_idx=None at the call site) bypass the fence. Drops the
        previous round's reports."""
        self._round = self._report_round = round_idx
        self._reports = {}

    def claim(self, keys: np.ndarray, packed: np.ndarray,
              eligible: np.ndarray | None = None,
              round_idx: int | None = None) -> int:
        if round_idx is not None and round_idx != self._round:
            self._stale_n += len(keys)
            return 0
        n = len(keys)
        if eligible is None:
            eligible = np.ones(n, dtype=bool)
        self._claims.append((np.asarray(keys, dtype=np.uint64),
                             np.asarray(packed, dtype=np.int64),
                             np.asarray(eligible, dtype=bool)))
        # round-scoped delivery counter: the driver's flush barrier
        # compares this against the claimable-row count it derives from
        # the materialized parse output ([[claim-protocol-design]])
        self._claimed_n += n
        return n

    def report(self, kind: str, key: int, values: dict, round_idx: int) -> None:
        """Keep one task's report of ``kind`` under ``key``; a second
        report under the same key (a re-executed task) replaces the first.
        Reports tagged with another round than the open one are dropped."""
        if round_idx == self._report_round:
            self._reports[(kind, key)] = values

    def progress(self, kind: str | None = None) -> tuple[int, list]:
        """-> (rows received by claim() since the last finish_round, this
        round's reports of ``kind``): the flush-barrier signal for
        non-blocking claim and report submission."""
        return self._claimed_n, [v for (k, _), v in self._reports.items() if k == kind]

    def finish_round(self):
        """-> (novel_keys, novel_packed): min-order first occurrence per
        key among this round's claims, minus already-seen; novel keys are
        inserted into the persistent filters.

        ``eligible`` (e.g. depth < max_depth for link claims) participates
        in the claim race but not in admission: an INeligible min-order
        winner suppresses every later same-round emission of its key yet is
        neither admitted nor inserted into the persistent seen state —
        matching the oracle's claimed-before-depth-check semantics
        (oracle.py:176-185)."""
        claims = self._claims
        self._claims = []
        self._claimed_n = 0
        self._round = None  # close the window: late tagged stragglers drop
        if not claims:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        keys = np.concatenate([c[0] for c in claims])
        packed = np.concatenate([c[1] for c in claims])
        elig = np.concatenate([c[2] for c in claims])
        order = np.lexsort((packed, keys))  # key-major, then order
        ks, ps, es = keys[order], packed[order], elig[order]
        first = np.ones(len(ks), dtype=bool)
        first[1:] = ks[1:] != ks[:-1]
        ks, ps, es = ks[first], ps[first], es[first]
        ks, ps = ks[es], ps[es]  # capped winners: dropped, never seen-marked
        novel = self.filter_and_insert(ks)
        return ks[novel], ps[novel]

    def stats(self) -> dict:
        return {
            "num_items": self.num_items,
            "num_queries": self.num_queries,
            "num_hits": self.num_hits,
            "stale_claims": self._stale_n,
        }

    # ---- checkpoints: a full snapshot costs O(capacity) bytes (~21 GiB
    # over all shards at the 10^10-key design point); a delta is just the
    # keys inserted since the last save, O(novel), and load replays the
    # deltas onto the latest full snapshot.

    def save(self, path: str, full: bool) -> dict:
        """Write this shard's full snapshot (``full``) or delta to
        ``path`` -> {"path", "keys", "bytes"}. Either way the pending delta
        is consumed: a full snapshot subsumes it."""
        os.makedirs(osp.dirname(path), exist_ok=True)
        if full:
            if self.exact is not None:
                arrays = {"exact": np.fromiter(self.exact, dtype=np.uint64,
                                               count=len(self.exact))}
            else:
                arrays = {"bloom": np.frombuffer(self.bloom.serialize(), dtype=np.uint8),
                          "cuckoo": np.frombuffer(self.cuckoo.serialize(), dtype=np.uint8)}
            counters = [self.num_items, self.num_queries, self.num_hits]
            np.savez(path, counters=np.array(counters, dtype=np.int64), **arrays)
            n = self.num_items
        else:
            keys = (np.concatenate(self._delta) if self._delta
                    else np.empty(0, dtype=np.uint64))
            np.save(path, keys)
            n = len(keys)
        self._delta = []
        return {"path": path, "keys": int(n), "bytes": osp.getsize(path)}

    def load(self, chain: list[str]) -> None:
        """Restore from ``chain``: this shard's latest full snapshot, then
        the deltas after it, oldest first. The shard is rewound to that
        round boundary (in-process fault recovery loads surviving shards
        alongside respawned ones). Deltas restore membership and num_items;
        query/hit counters come from the full snapshot only."""
        self._rewind()
        with np.load(chain[0]) as z:
            self.num_items, self.num_queries, self.num_hits = (int(x) for x in z["counters"])
            if "exact" in z:
                self.bloom = self.cuckoo = None
                self.exact = set(z["exact"].tolist())
            else:
                self.bloom = BloomFilter.deserialize(z["bloom"].tobytes())
                self.cuckoo = CuckooFilter.deserialize(z["cuckoo"].tobytes())
                self.exact = None
        for path in chain[1:]:
            keys = np.load(path)
            if self.exact is None:
                self.cuckoo.add(keys)
                self.bloom.add(keys)
            else:
                self.exact.update(keys.tolist())
            self.num_items += len(keys)


class ShardedSeenSet:
    """Driver-side handle to S SeenShard actors (named, per-run namespace)."""

    def __init__(self, name: str, num_shards: int, capacity_per_shard: int = 1 << 20,
                 exact: bool = False):
        self.name = name
        self.num_shards = num_shards
        self.capacity = capacity_per_shard
        self.shards = [
            SeenShard.options(name=f"seen:{name}:{i}", get_if_exists=True).remote(
                capacity_per_shard, exact=exact)
            for i in range(num_shards)
        ]

    def shard_of(self, keys: np.ndarray) -> np.ndarray:
        return (np.asarray(keys, dtype=np.uint64) % np.uint64(self.num_shards)).astype(np.int32)

    def filter_and_insert_array(self, keys: np.ndarray) -> np.ndarray:
        """Driver-side bulk path (bench + small rounds): scatter keys to all
        shards in parallel, gather novel masks."""
        keys = np.asarray(keys, dtype=np.uint64)
        shard = self.shard_of(keys)
        futs, idxs = [], []
        for s in range(self.num_shards):
            m = shard == s
            if m.any():
                futs.append(self.shards[s].filter_and_insert.remote(keys[m]))
                idxs.append(np.nonzero(m)[0])
        novel = np.zeros(len(keys), dtype=bool)
        for fut, idx in zip(futs, idxs):
            novel[idx] = ray.get(fut)
        return novel

    def finish_round_winners(self):
        """Gather each shard's round winners -> (keys, packed) arrays."""
        return finish_rounds([self])[0]

    def claims_received(self) -> int:
        """Total claim rows the shards have received this round."""
        return _poll([self])[0]

    def begin_round(self, round_idx: int) -> None:
        """Open every shard's claim window for ``round_idx`` (round fence)."""
        begin_rounds([self], round_idx)

    def stats(self) -> list[dict]:
        return ray.get([s.stats.remote() for s in self.shards])

    def save(self, dirname: str, full: bool) -> list[dict]:
        """Every shard writes its own file under ``dirname`` (the driver
        sees only the returned records) -> per-shard {"path", "keys",
        "bytes"}."""
        kind = "full.npz" if full else "delta.npy"
        return ray.get([s.save.remote(osp.join(dirname, f"shard={i}.{kind}"), full)
                        for i, s in enumerate(self.shards)])

    def restore(self, chains: list[list[str]], capacity: int) -> None:
        """Load shard i from ``chains[i]`` (full snapshot, then deltas),
        written by shards of ``capacity`` keys each."""
        # keys live in shard h % num_shards: another count would look them up
        # in the wrong shard and silently admit seen URLs again
        if len(chains) != self.num_shards:
            raise ValueError(f"seen set {self.name!r}: snapshot has {len(chains)} shards, "
                             f"this set has {self.num_shards}; resume with "
                             f"num_shards={len(chains)}")
        # the snapshot's filters keep the capacity they were built with, so
        # another one would be recorded in the lineage but never hold
        if capacity != self.capacity:
            raise ValueError(f"seen set {self.name!r}: snapshot has capacity {capacity} "
                             f"per shard, this set has {self.capacity}; resume with "
                             f"seen_capacity={capacity}")
        ray.get([s.load.remote(c) for s, c in zip(self.shards, chains)])

    def shutdown(self) -> None:
        for s in self.shards:
            try:
                ray.kill(s)
            except Exception:  # noqa: BLE001 — shard may already be dead
                pass


def begin_rounds(sets: list[ShardedSeenSet], round_idx: int) -> None:
    """Open the claim window of every shard of ``sets`` in one round trip."""
    ray.get([s.begin_round.remote(round_idx) for ss in sets for s in ss.shards])


def finish_rounds(sets: list[ShardedSeenSet]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each set's round winners (keys, packed), gathered in one round trip."""
    res = ray.get([s.finish_round.remote() for ss in sets for s in ss.shards])
    out, i = [], 0
    for ss in sets:
        part, i = res[i:i + ss.num_shards], i + ss.num_shards
        out.append((np.concatenate([r[0] for r in part]), np.concatenate([r[1] for r in part])))
    return out


def _poll(sets: list[ShardedSeenSet], kind: str | None = None) -> tuple[int, list]:
    """-> (claims received, reports of ``kind``) over every shard of ``sets``,
    in one round trip."""
    res = ray.get([s.progress.remote(kind) for ss in sets for s in ss.shards])
    return int(sum(r[0] for r in res)), [v for r in res for v in r[1]]


_ACTOR_CACHE: dict = {}


def get_shard_actor(name: str, shard: int):
    key = (name, shard)
    a = _ACTOR_CACHE.get(key)
    if a is None:
        a = ray.get_actor(f"seen:{name}:{shard}")
        _ACTOR_CACHE[key] = a
    return a


#: per-worker window of outstanding claim and report calls (see _track)
_CLAIMS_WINDOW = 64
_PENDING: list = []


def route_claims(t, pages_set: str, files_set: str, num_shards: int,
                 max_depth: int, block: bool = False,
                 round_idx: int | None = None) -> int:
    """Push one Arrow block's candidate (url_hash, packed) pairs to their
    seen-set shard actors (link rows -> pages set, task rows -> files set).
    Depth-capped link rows claim too — eligible=False — so the min-order
    emission wins the claim race exactly as in the oracle;
    finish_round drops ineligible winners without seen-marking them.

    Non-blocking by default: a parse task blocked in ray.get on actor
    round-trips makes the raylet borrow its CPU and over-spawn cold
    workers (observed 130-140 processes on a 32-CPU box, with the crawl's
    final small round absorbing their import cost — 1.2 s -> 13-27 s
    run-to-run swings). Delivery is instead guaranteed by the driver's
    barrier, :func:`await_claims`. ``block=True`` keeps the old behavior
    for its resend path and for standalone callers."""
    import pyarrow.compute as pc

    futs = []
    n_pushed = 0
    for kind, set_name in (("task", files_set), ("link", pages_set)):
        m = pc.equal(t["row_kind"], kind).to_numpy(zero_copy_only=False)
        if not m.any():
            continue
        keys = t["url_hash"].to_numpy(zero_copy_only=False)[m]
        packed = t["packed"].to_numpy(zero_copy_only=False)[m]
        if kind == "link":
            elig = t["depth"].to_numpy(zero_copy_only=False)[m] < max_depth
        else:
            elig = None
        shard = (keys % np.uint64(num_shards)).astype(np.int32)
        for s in np.unique(shard):
            sel = shard == s
            futs.append(get_shard_actor(set_name, int(s)).claim.remote(
                keys[sel], packed[sel], None if elig is None else elig[sel],
                round_idx))
            n_pushed += int(sel.sum())
    if block and futs:
        return sum(ray.get(futs))
    _track(futs)
    return n_pushed


def _track(futs: list) -> None:
    """Bounded-window backpressure for non-blocking shard calls: fully
    unbounded submission lets fat rounds outrun the shard actors and the
    object store (measured: the old always-blocking call accidentally
    paced 1M-page rounds), while per-call blocking over-spawns workers.
    Keep up to _CLAIMS_WINDOW futures outstanding per worker process and
    drain half when the window fills — a short wait instead of a per-call
    round-trip."""
    _PENDING.extend(futs)
    if len(_PENDING) > _CLAIMS_WINDOW:
        _, rest = ray.wait(_PENDING, num_returns=len(_PENDING) // 2, fetch_local=False)
        _PENDING[:] = rest


def send_report(set_name: str, num_shards: int, kind: str, key: int, values: dict,
                round_idx: int) -> None:
    """Send one task's report to shard ``key % num_shards`` of ``set_name``,
    non-blocking like the claims it rides with (:func:`route_claims`)."""
    _track([get_shard_actor(set_name, key % num_shards).report.remote(
        kind, key, values, round_idx)])


def is_actor_death(e: BaseException) -> bool:
    """True iff the exception chain bottoms out in a Ray actor death —
    the one failure class the crawl's round loop can heal from (anything else is
    a code bug and must surface).  Ray wraps worker-side failures in
    RayTaskError / UserCodeException layers, so walk the chain and also
    match on the pickled error's repr."""
    from ray.exceptions import RayActorError

    seen = set()
    while e is not None and id(e) not in seen:
        seen.add(id(e))
        if isinstance(e, RayActorError):
            return True
        text = f"{e!r} {e}"  # RayTaskError embeds the remote traceback in str()
        if "ActorDiedError" in text or "ActorUnavailableError" in text:
            return True
        # A dead shard may already be deregistered when a worker re-resolves
        # the handle by name: ray.get_actor then raises ValueError("Failed to
        # look up actor with name 'seen:...'").  Only our own seen-shard
        # namespace is healable; any other name is a code bug.
        if "Failed to look up actor with name 'seen:" in text:
            return True
        e = getattr(e, "cause", None) or e.__cause__ or e.__context__
    return False


#: seconds a round barrier polls the shards for the task reports before
#: it falls back to recomputing them from the materialised blocks
BARRIER_S = 10.0


def _await(sets: list[ShardedSeenSet], kind: str, done) -> list | None:
    """Poll ``sets`` until ``done(claims received, reports of kind)``
    -> the reports, or None once BARRIER_S has passed."""
    deadline = time.time() + BARRIER_S
    while True:
        n, reports = _poll(sets, kind)
        if done(n, reports):
            return reports
        if time.time() >= deadline:
            return None
        time.sleep(0.02)


def await_claims(pages: ShardedSeenSet, files: ShardedSeenSet, parsed, n_pages: int,
                 max_depth: int, round_idx: int | None = None,
                 docs_dir: str | None = None) -> dict:
    """Delivery barrier for the NON-BLOCKING fused claims and the parse
    reports: wait until the parse batches have reported all ``n_pages``
    input pages and the shards have received at least the claims those
    batches sent -> {"errors", "docs", "claims", "resent"}, the round's
    error rows, doc rows (written to ``docs_dir`` by the tasks, when
    given) and claims, summed from the reports with no Dataset pass.

    Normally satisfied on the first poll or two. If the reports do not add
    up within BARRIER_S (a submitting worker died between task completion
    and submission-queue flush), every claim is resent, blocking, from the
    materialised blocks ``parsed``, and the values are recomputed from
    them; "resent" is then True. Claims are idempotent within a round:
    finish_round keeps the min packed per key, so duplicates from a resend
    cannot change the winners."""
    def done(n_claims, reports):
        return (sum(r["pages"] for r in reports) == n_pages
                and n_claims >= sum(r["claims"] for r in reports))

    reports = _await([pages, files], "parse", done)
    if reports is not None:
        out = {k: sum(r[k] for r in reports) for k in ("errors", "docs", "claims")}
        return dict(out, resent=False)
    import pyarrow.compute as pc

    from icrawler_ray.state.checkpoint import parquet_rows

    out = {"errors": 0, "docs": parquet_rows(docs_dir) if docs_dir else 0, "claims": 0,
           "resent": True}
    for ref in parsed.to_arrow_refs():
        t = ray.get(ref)
        for kind in ("error", "doc"):
            out[kind + "s"] += pc.sum(pc.equal(t["row_kind"], kind)).as_py() or 0
        out["claims"] += route_claims(t, pages.name, files.name, pages.num_shards, max_depth,
                                      block=True, round_idx=round_idx)
    return out


def await_fetched(files: ShardedSeenSet, fetched, n_rows: int) -> tuple[np.ndarray, bool]:
    """Barrier for the fetch reports: wait until the fetch batches have
    reported all ``n_rows`` task rows -> (sorted packed keys of the kept
    rows, resent). Past BARRIER_S the keys are recomputed from the
    materialised kept rows ``fetched`` and resent is True."""
    reports = _await([files], "fetch", lambda _n, reps: sum(r["rows"] for r in reps) == n_rows)
    if reports is not None:
        kept = [r["kept"] for r in reports]
    else:
        kept = [packed_order(ray.get(ref)) for ref in fetched.to_arrow_refs()]
    kept = np.concatenate(kept) if kept else np.empty(0, dtype=np.int64)
    return np.sort(kept), reports is None

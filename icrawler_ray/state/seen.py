"""Sharded URL-seen set (SURVEY.md Q1-Q3; the north-rule dedup core).

The reference keeps one seen-set per queue, page URLs and file URLs, each
an OrderedDict (icrawler/utils/cached_queue.py:26-51): O(1) membership,
single-threaded, unbounded memory, lost on crash. This engine shards both
over one fleet of S named actors:

    shard(key) = url_hash % S      (url_hash = SipHash64 of canonical URL)

Each shard holds two key spaces, ``pages`` and ``files``, each with its
own bloom pre-filter + cuckoo filter (bounded FP), counters, claims and
checkpoint delta: one owner per key group, whose state moves and
checkpoints as a unit (Megaphone, VLDB 2019). A crawl starts S actor
processes, and each per-round fan-out (open, barrier poll, finish, save)
is one call per shard. S is fixed for a crawl's life, checkpoints
included. The actors reserve no CPU (they are bursty; a reservation would
starve the fetch/parse tasks on small clusters) and are SPREAD across
nodes, so the state and its claim traffic scale out with the cluster.

Frontier dedup is a round-scoped claim protocol, not a shuffle. Each
parse task pushes its emission rows' (url_hash, packed order) pairs
straight to the owning shards, one call per shard for links (pages key
space) and tasks (files key space) alike (:func:`route_claims`); the
driver's :func:`await_claims` is the delivery barrier; then each shard's
``finish_round`` keeps the min-order claim per key and kind (the oracle's
first-emission-wins), filters the winners against that kind's filters,
inserts the novel ones and returns them. Claims commute, so the winners
are the same at any parallelism; a key seen in different rounds is
admitted exactly once.

The round's control values ride the same channel: each parse and fetch
batch sends one keyed report (:func:`send_report`), which the barriers
sum, so the driver needs no Dataset pass for a count. A re-executed task
replaces its report rather than counting twice.

Checkpoint: each shard writes one file per key space into the round dir
and returns only paths, key counts and sizes for the manifest
(state/checkpoint.py); the driver never holds filter bytes:

    <round dir>/seen_<kind>/shard=<i>.full.npz    counters + bloom/cuckoo
                                                  bytes (exact: the key set)
    <round dir>/seen_<kind>/shard=<i>.delta.npy   uint64 keys inserted since
                                                  the shard's last save

Restore hands each shard its chain per kind (latest full, then deltas);
the checkpoint dir must be reachable at the same path from every node.
"""

from __future__ import annotations

import os
import os.path as osp
import time
from functools import partial
from types import SimpleNamespace

import numpy as np
import ray

# Every seen-shard actor process imports this module at start-up, so it
# imports nothing heavier than numpy and ray (ray.data alone costs about
# 0.5 s of CPU per fresh process).
from icrawler_ray.state.bloom import BloomFilter
from icrawler_ray.state.cuckoo import CuckooFilter

#: a shard's key spaces: page URLs (link claims) and file URLs (task claims)
SEEN_KINDS = ("pages", "files")
#: the empty claim batch a shard's round starts with
_NO_CLAIMS = tuple(np.empty(0, dtype=d) for d in (np.uint64, np.int64, bool, bool))


def packed_order(t) -> np.ndarray:
    """parent_seq<<20 | emit_ord of an Arrow table's emission rows: the
    crawl-order key a claim carries, unique per row, so the min over a
    URL's rows is its first emission. Fits int64 up to parent_seq < 2^43
    (8.8e12 pages, above the 10^10 design point) with emit_ord < 2^20 per
    page."""
    ph = t["parent_seq"].to_numpy(zero_copy_only=False).astype(np.int64)
    return (ph << np.int64(20)) | t["emit_ord"].to_numpy(zero_copy_only=False).astype(np.int64)


class _KeySpace:
    """One key space of a shard: bloom + cuckoo filters (or, ``exact``, a
    plain key set: the test oracle cross-check; no false positives,
    unbounded memory), its counters and the keys inserted since its last
    checkpoint save."""

    def __init__(self, capacity: int, exact: bool):
        self.bloom = None if exact else BloomFilter(capacity)
        self.cuckoo = None if exact else CuckooFilter(capacity)
        self.exact: set | None = set() if exact else None
        self.num_items = self.num_queries = self.num_hits = 0
        self.stale_n = 0  # tagged claims dropped by the round fence
        self.delta: list = []  # keys inserted since the last save

    def filter_and_insert(self, keys: np.ndarray) -> np.ndarray:
        """Returns novel-mask; novel keys are inserted."""
        keys = np.asarray(keys, dtype=np.uint64)
        if self.exact is None:
            seen = np.zeros(len(keys), dtype=bool)
            maybe = self.bloom.contains(keys)  # pre-filter: definite-new skips cuckoo probe
            if maybe.any():
                seen[maybe] = self.cuckoo.contains(keys[maybe])
        else:
            seen = np.fromiter((k in self.exact for k in keys.tolist()), dtype=bool,
                               count=len(keys))
        novel = np.zeros(len(keys), dtype=bool)  # batch-internal first occurrence wins
        novel[np.unique(keys, return_index=True)[1]] = True
        novel &= ~seen
        self._insert(keys[novel])
        self.num_queries += len(keys)
        self.num_hits += int(len(keys) - novel.sum())
        if novel.any():  # delta-checkpoint capture (keys since last save)
            self.delta.append(keys[novel])
        return novel

    def _insert(self, keys: np.ndarray) -> None:
        if self.exact is None:
            self.cuckoo.add(keys)
            self.bloom.add(keys)
        else:
            self.exact.update(keys.tolist())
        self.num_items += len(keys)

    def winners(self, keys: np.ndarray, packed: np.ndarray, elig: np.ndarray):
        """-> (novel_keys, novel_packed): the min-order claim per key,
        minus already-seen; novel keys are inserted. An INeligible
        min-order winner (e.g. depth >= max_depth for a link) suppresses
        every later same-round claim of its key yet is neither admitted
        nor inserted — the oracle's claimed-before-depth-check semantics
        (oracle.py:176-185)."""
        order = np.lexsort((packed, keys))  # key-major, then order
        ks, ps, es = keys[order], packed[order], elig[order]
        first = np.ones(len(ks), dtype=bool)
        first[1:] = ks[1:] != ks[:-1]
        ks, ps = ks[first & es], ps[first & es]  # capped winners: dropped, never seen-marked
        novel = self.filter_and_insert(ks)
        return ks[novel], ps[novel]

    def stats(self) -> dict:
        return {"num_items": self.num_items, "num_queries": self.num_queries,
                "num_hits": self.num_hits, "stale_claims": self.stale_n}

    # ---- checkpoints: a full snapshot costs O(capacity) bytes (~21 GiB
    # over all shards at the 10^10-key design point); a delta is just the
    # keys inserted since the last save, O(novel), and load replays the
    # deltas onto the latest full snapshot.

    def save(self, path: str, full: bool) -> dict:
        """Write this key space's full snapshot (``full``) or delta to
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
            keys = np.concatenate([np.empty(0, dtype=np.uint64), *self.delta])
            np.save(path, keys)
            n = len(keys)
        self.delta = []
        return {"path": path, "keys": int(n), "bytes": osp.getsize(path)}

    def load(self, chain: list[str]) -> None:
        """Restore from ``chain``: the latest full snapshot, then the
        deltas after it, oldest first. Deltas restore membership and
        num_items; query/hit counters come from the full snapshot only."""
        self.delta = []
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
            self._insert(np.load(path))


@ray.remote(num_cpus=0, scheduling_strategy="SPREAD")  # see module docstring
class SeenShard:
    def __init__(self, capacity: int, exact: bool = False):
        self.spaces = {kind: _KeySpace(capacity, exact) for kind in SEEN_KINDS}
        self._rewind()

    def _rewind(self) -> None:
        """Drop round-scoped claim state: the shard stands at a round
        boundary (start, or a restored checkpoint)."""
        self._claims: list = [_NO_CLAIMS]  # (keys, packed, eligible, files) per call
        self._claimed_n = 0
        self._round: int | None = None  # claim window, opened by begin_round
        # task reports of the round begin_round opened: {(kind, key): values};
        # they outlive finish_round, since fetch tasks report after it
        self._reports: dict = {}
        self._report_round: int | None = None

    def filter_and_insert(self, keys: np.ndarray) -> np.ndarray:
        """Novel-mask of ``keys`` in the pages key space (seeds, standalone
        sets); novel keys are inserted."""
        return self.spaces["pages"].filter_and_insert(keys)

    # ---- round-scoped claim protocol (module docstring): claims commute,
    # so the winners are deterministic at any parallelism

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
              round_idx: int | None = None, files: np.ndarray | None = None) -> int:
        """Take one batch's claims for this shard; ``files`` masks the rows
        that claim in the files key space (None: every row claims a page
        key). ``eligible`` (None: all) marks the rows that may be admitted."""
        n = len(keys)
        files = np.zeros(n, dtype=bool) if files is None else np.asarray(files, dtype=bool)
        if round_idx is not None and round_idx != self._round:
            for kind, m in (("pages", ~files), ("files", files)):
                self.spaces[kind].stale_n += int(m.sum())
            return 0
        if eligible is None:
            eligible = np.ones(n, dtype=bool)
        self._claims.append((np.asarray(keys, dtype=np.uint64),
                             np.asarray(packed, dtype=np.int64),
                             np.asarray(eligible, dtype=bool), files))
        # round-scoped delivery counter: the driver's flush barrier
        # compares this against the claim count the parse reports sum to
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

    def finish_round(self) -> dict:
        """-> {kind: (novel_keys, novel_packed)}: each key space's round
        winners (:meth:`_KeySpace.winners`), inserted into its filters."""
        keys, packed, elig, files = (np.concatenate(c) for c in zip(*self._claims))
        self._claims = [_NO_CLAIMS]
        self._claimed_n = 0
        self._round = None  # close the window: late tagged stragglers drop
        return {kind: self.spaces[kind].winners(keys[m], packed[m], elig[m])
                for kind, m in (("pages", ~files), ("files", files))}

    def stats(self) -> dict:
        return {kind: space.stats() for kind, space in self.spaces.items()}

    def save(self, paths: dict, full: bool) -> dict:
        """Write each key space's full snapshot or delta to ``paths[kind]``
        -> {kind: {"path", "keys", "bytes"}}."""
        return {kind: self.spaces[kind].save(path, full) for kind, path in paths.items()}

    def load(self, kind: str, chain: list[str]) -> None:
        """Restore key space ``kind`` from its ``chain`` (full snapshot,
        then deltas). The shard is rewound to that round boundary
        (in-process fault recovery loads surviving shards alongside
        respawned ones)."""
        self._rewind()
        self.spaces[kind].load(chain)


class ShardedSeenSet:
    """Driver-side handle to S SeenShard actors (named, per-run namespace),
    each holding both key spaces. A standalone set (a bench, a query) uses
    the pages key space, as ``filter_and_insert_array`` and
    ``finish_round_winners`` do."""

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
        # per-kind views, as a crawl reads its stats and restores a checkpoint
        self.pages, self.files = (SimpleNamespace(stats=partial(self.stats, (k,)),
                                                  restore=partial(self.restore, k))
                                  for k in SEEN_KINDS)

    def _all(self, method: str, *args) -> list:
        """Call ``method`` on every shard, in one round trip."""
        return ray.get([getattr(s, method).remote(*args) for s in self.shards])

    def filter_and_insert_array(self, keys: np.ndarray) -> np.ndarray:
        """Driver-side bulk path (seeds, bench): scatter keys to all shards
        in parallel, gather novel masks."""
        keys = np.asarray(keys, dtype=np.uint64)
        shard = keys % np.uint64(self.num_shards)
        idxs = [np.nonzero(shard == i)[0] for i in range(self.num_shards)]
        futs = [s.filter_and_insert.remote(keys[idx]) for s, idx in zip(self.shards, idxs)]
        novel = np.zeros(len(keys), dtype=bool)
        for fut, idx in zip(futs, idxs):
            novel[idx] = ray.get(fut)
        return novel

    def begin_round(self, round_idx: int) -> None:
        """Open every shard's claim window for ``round_idx`` (round fence)."""
        self._all("begin_round", round_idx)

    def progress(self, kind: str | None = None) -> tuple[int, list]:
        """-> (claims received this round, reports of ``kind``) over every shard."""
        res = self._all("progress", kind)
        return int(sum(r[0] for r in res)), [v for r in res for v in r[1]]

    def claims_received(self) -> int:
        """Total claim rows the shards have received this round."""
        return self.progress()[0]

    def finish_round(self) -> dict:
        """Each key space's round winners -> {kind: (keys, packed)}."""
        res = self._all("finish_round")
        return {k: tuple(np.concatenate([r[k][i] for r in res]) for i in (0, 1))
                for k in SEEN_KINDS}

    def finish_round_winners(self):
        """The pages key space's round winners -> (keys, packed)."""
        return self.finish_round()["pages"]

    def stats(self, kinds: tuple = SEEN_KINDS) -> list[dict]:
        """Per-shard counters, summed over the key spaces ``kinds``."""
        return [{c: sum(r[k][c] for k in kinds) for c in r[kinds[0]]}
                for r in self._all("stats")]

    def save(self, dirs: dict, full: bool) -> dict:
        """Every shard writes one file per key space under ``dirs[kind]``
        (the driver sees only the returned records) -> {kind: per-shard
        {"path", "keys", "bytes"}}."""
        ext = "full.npz" if full else "delta.npy"
        res = ray.get([s.save.remote({k: osp.join(d, f"shard={i}.{ext}") for k, d in dirs.items()},
                                     full) for i, s in enumerate(self.shards)])
        return {k: [r[k] for r in res] for k in dirs}

    def restore(self, kind: str, chains: list[list[str]], capacity: int) -> None:
        """Load key space ``kind`` of shard i from ``chains[i]`` (full
        snapshot, then deltas), written by shards of ``capacity`` keys each."""
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
        ray.get([s.load.remote(kind, c) for s, c in zip(self.shards, chains)])

    def shutdown(self) -> None:
        for s in self.shards:
            try:
                ray.kill(s)
            except Exception:  # noqa: BLE001 — shard may already be dead
                pass


#: this worker process's handles to ONE fleet's shards: a lookup under
#: another fleet's name drops them, so none outlives its crawl
_ACTOR_CACHE: dict = {}


def get_shard_actor(name: str, shard: int):
    a = _ACTOR_CACHE.get((name, shard))
    if a is None:
        if any(n != name for n, _ in _ACTOR_CACHE):
            _ACTOR_CACHE.clear()
        a = _ACTOR_CACHE[name, shard] = ray.get_actor(f"seen:{name}:{shard}")
    return a


#: per-worker window of outstanding claim and report calls (see _track)
_CLAIMS_WINDOW = 64
_PENDING: list = []


def route_claims(t, pages_set: str, files_set: str, num_shards: int,
                 max_depth: int, block: bool = False,
                 round_idx: int | None = None) -> int:
    """Push one Arrow block's candidate (url_hash, packed) pairs to their
    seen shards, one call per shard: link rows claim in the pages key
    space, task rows in the files key space of the one fleet that
    ``pages_set`` and ``files_set`` both name. Depth-capped link rows claim
    too, as ineligible rows, so the min-order emission wins the claim race
    exactly as in the oracle.

    Non-blocking by default: a parse task blocked in ray.get on actor
    round-trips makes the raylet borrow its CPU and over-spawn cold
    workers (observed 130-140 processes on a 32-CPU box, and 1.2 s ->
    13-27 s run-to-run swings). Delivery is instead guaranteed by the
    driver's barrier, :func:`await_claims`; ``block=True`` serves its
    resend path and standalone callers."""
    import pyarrow.compute as pc

    if files_set != pages_set:
        raise ValueError(f"one seen fleet holds both key spaces: pages_set {pages_set!r}, "
                         f"files_set {files_set!r}")
    files = pc.equal(t["row_kind"], "task").to_numpy(zero_copy_only=False)
    m = files | pc.equal(t["row_kind"], "link").to_numpy(zero_copy_only=False)
    keys = t["url_hash"].to_numpy(zero_copy_only=False)[m]
    packed = t["packed"].to_numpy(zero_copy_only=False)[m]
    files = files[m]
    elig = files | (t["depth"].to_numpy(zero_copy_only=False)[m] < max_depth)
    shard = (keys % np.uint64(num_shards)).astype(np.int64)
    futs = []
    for s in np.unique(shard):
        sel = shard == s
        futs.append(get_shard_actor(pages_set, int(s)).claim.remote(
            keys[sel], packed[sel], elig[sel], round_idx, files[sel]))
    if block and futs:
        return sum(ray.get(futs))
    _track(futs)
    return len(keys)


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


def _await(seen: ShardedSeenSet, kind: str, done) -> list | None:
    """Poll ``seen`` until ``done(claims received, reports of kind)``
    -> the reports, or None once BARRIER_S has passed."""
    deadline = time.time() + BARRIER_S
    while True:
        n, reports = seen.progress(kind)
        if done(n, reports):
            return reports
        if time.time() >= deadline:
            return None
        time.sleep(0.02)


def await_claims(seen: ShardedSeenSet, parsed, n_pages: int, max_depth: int,
                 round_idx: int | None = None, docs_dir: str | None = None) -> dict:
    """Delivery barrier for the NON-BLOCKING fused claims and the parse
    reports: wait until the parse batches have reported all ``n_pages``
    input pages and the shards have received at least the claims those
    batches sent -> {"errors", "docs", "claims", "resent"}, summed from the
    reports with no Dataset pass (docs: written to ``docs_dir`` by the
    tasks, when given).

    If the reports do not add up within BARRIER_S (a submitting worker
    died between task completion and submission-queue flush), every claim
    is resent, blocking, from the materialised blocks ``parsed``, and the
    values are recomputed from them; "resent" is then True. A resend cannot
    change the winners: finish_round keeps the min packed per key."""
    def done(n_claims, reports):
        return (sum(r["pages"] for r in reports) == n_pages
                and n_claims >= sum(r["claims"] for r in reports))

    reports = _await(seen, "parse", done)
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
        out["claims"] += route_claims(t, seen.name, seen.name, seen.num_shards, max_depth,
                                      block=True, round_idx=round_idx)
    return out


def await_fetched(seen: ShardedSeenSet, fetched, n_rows: int) -> tuple[np.ndarray, bool]:
    """Barrier for the fetch reports: wait until the fetch batches have
    reported all ``n_rows`` task rows -> (sorted packed keys of the kept
    rows, resent). Past BARRIER_S the keys are recomputed from the
    materialised kept rows ``fetched`` and resent is True."""
    reports = _await(seen, "fetch", lambda _n, reps: sum(r["rows"] for r in reps) == n_rows)
    if reports is not None:
        kept = [r["kept"] for r in reports]
    else:
        kept = [packed_order(ray.get(ref)) for ref in fetched.to_arrow_refs()]
    kept = np.concatenate(kept) if kept else np.empty(0, dtype=np.int64)
    return np.sort(kept), reports is None

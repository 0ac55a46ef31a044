"""Per-host politeness / robots gate (north-rule; absent in the reference —
the repo has no robots.txt or crawl-delay handling anywhere, only a Referer
header at /root/reference/icrawler/parser.py:85-86).

Semantics (shared with the sequential oracle, so goldens match):

- robots: a frontier row whose URL path starts with any disallowed prefix
  for its host is dropped.
- budget: per round, host h may fetch at most
  ``B_h = max(1, round_ms // crawl_delay_ms)`` URLs (unbounded when
  crawl_delay_ms == 0); within a host, rows are taken in
  (priority DESC, seq ASC) order. Rows over budget are DEFERRED to the
  next round, not dropped.

- max_inflight: at most N of a host's requests in flight AT ONCE across
  all fetch tasks, enforced by the HostInflightLimiter token actor at the
  bottom of this module (opt-in: GreedyCrawl(enforce_inflight=True) or a
  Fetcher/FetchParse ``inflight`` kwarg). Each fetch task walks its
  sub-batch sequentially, so one task-level slot per (task, host) caps the
  request-level concurrency exactly.

Scale shape (SURVEY.md §7.4 skew decoupling): the gate never shuffles the
full frontier by host. It computes per-block partial top-B_h candidates
(vectorized pandas groupby inside map_batches — a combiner), shuffles only
those candidates with groupby(host) for the final top-B_h, then broadcasts
the small gated-key set to anti-filter the frontier into the deferred
remainder. A hot host therefore contributes at most B_h rows per block to
the shuffle, not its full frontier share.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from icrawler_ray.state.bloom import _mix

#: gated sets up to this many keys broadcast as an exact uint64 array
#: (8 B/key); past it, the bloom + exact-FP-correction path keeps driver
#: memory bounded by MAX_GATED_BLOOM_BITS regardless of gated size.
EXACT_GATED_BROADCAST_MAX = 1 << 18
#: constant cap on the gated-key bloom (2^28 bits = 32 MiB): ~2% FP at
#: 27M keys; past that FP rate degrades gracefully — the correction join
#: grows but stays exact and distributed.
MAX_GATED_BLOOM_BITS = 1 << 28
_BLOOM_K = 4


def _bloom_positions(nbits: int, keys: np.ndarray) -> np.ndarray:
    pos = np.empty((_BLOOM_K, len(keys)), dtype=np.uint64)
    for r in range(_BLOOM_K):
        pos[r] = _mix(keys, r) % np.uint64(nbits)
    return pos


def _bloom_contains(bits: np.ndarray, nbits: int, keys: np.ndarray) -> np.ndarray:
    if not len(keys):
        return np.zeros(0, dtype=bool)
    pos = _bloom_positions(nbits, keys)
    word = pos >> np.uint64(6)
    bit = np.uint64(1) << (pos & np.uint64(63))
    return ((bits[word] & bit) != 0).all(axis=0)


@ray.remote(num_cpus=0.25)
def _bloom_of_block(block: pa.Table, nbits: int) -> np.ndarray:
    bits = np.zeros((nbits + 63) // 64, dtype=np.uint64)
    if "url_hash" not in block.schema.names:  # empty map_groups stub block
        return bits
    keys = np.asarray(block["url_hash"].to_pylist(), dtype=np.uint64)
    if len(keys):
        pos = _bloom_positions(nbits, keys)
        word = (pos >> np.uint64(6)).ravel()
        bit = np.uint64(1) << (pos & np.uint64(63)).ravel()
        np.bitwise_or.at(bits, word, bit)
    return bits


@ray.remote(num_cpus=0.25)
def _or_bits(a: np.ndarray, b: np.ndarray = None) -> np.ndarray:
    return a if b is None else a | b


class HostPolicy:
    """Broadcastable per-host policy table (FIXTURES.md §4 schema)."""

    def __init__(self, policies: dict[str, dict], round_ms: int = 1000):
        self.policies = policies
        self.round_ms = round_ms

    def budget(self, host: str) -> int:
        pol = self.policies.get(host)
        if not pol or not pol.get("crawl_delay_ms"):
            return 1 << 30  # no delay -> unbounded this round
        return max(1, self.round_ms // int(pol["crawl_delay_ms"]))

    def disallowed(self, host: str) -> list[str]:
        pol = self.policies.get(host)
        return list(pol.get("robots_disallow", [])) if pol else []

    def max_inflight(self, host: str) -> int:
        pol = self.policies.get(host)
        return int(pol.get("max_inflight", 0)) if pol else 0  # 0 = uncapped

    def inflight_limits(self) -> dict[str, int]:
        return {h: int(p.get("max_inflight", 0)) for h, p in self.policies.items()
                if p.get("max_inflight")}


def _path_of(urls: pd.Series) -> pd.Series:
    return urls.str.replace(r"^[A-Za-z][A-Za-z0-9+.-]*://[^/]*", "", regex=True).replace("", "/")


def robots_filter(df: pd.DataFrame, policy: HostPolicy, url_col: str = "url") -> pd.DataFrame:
    """Drop rows whose path hits a disallowed prefix for their host."""
    if not len(df):
        return df
    path = _path_of(df[url_col].astype("string"))
    drop = np.zeros(len(df), dtype=bool)
    for host, g in df.groupby("host", sort=False):
        prefixes = policy.disallowed(host)
        if not prefixes:
            continue
        p = path.loc[g.index]
        m = np.zeros(len(g), dtype=bool)
        for pref in prefixes:
            m |= p.str.startswith(pref).to_numpy()
        drop[df.index.get_indexer(g.index)] = m
    return df[~drop]


def _topk_per_host(df: pd.DataFrame, policy: HostPolicy) -> pd.DataFrame:
    """Vectorized per-host (priority DESC, seq ASC) top-B_h."""
    if not len(df):
        return df
    df = df.sort_values(["host", "priority", "seq"], ascending=[True, False, True], kind="mergesort")
    rank = df.groupby("host", sort=False).cumcount()
    budgets = df["host"].map(lambda h: policy.budget(h))
    return df[rank < budgets]


def politeness_gate(frontier: ray.data.Dataset, policy_ref,
                    url_col: str = "url"):
    """(gated, deferred) split of a frontier dataset.

    ``policy_ref`` is a ``ray.put`` handle to a HostPolicy (broadcast once).
    Returns gated as a materialized small Dataset (it is at most
    sum_h(B_h) rows) and deferred as a lazy filter of the frontier.
    """
    policy_handle = policy_ref
    P = 32  # bounded fat host-hash partitions: one group PER HOST would be
    # the many-tiny-groups map_groups pitfall at web host counts, and
    # _topk_per_host is already vectorized across hosts within a frame

    def partial(batch: pa.Table) -> pa.Table:
        pol = ray.get(policy_handle) if isinstance(policy_handle, ray.ObjectRef) else policy_handle
        df = batch.to_pandas()
        df = robots_filter(df, pol, url_col=url_col)
        df = _topk_per_host(df, pol)
        df["_part"] = (pd.util.hash_array(df["host"].to_numpy(dtype=object)) % P
                       ).astype(np.int32)
        # replace_schema_metadata(None): from_pandas attaches a b'pandas'
        # metadata blob that makes pa.Schema UNHASHABLE, defeating Ray's
        # schema-dedup fast path (one warning per reduce task)
        return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)

    def final(g: pd.DataFrame) -> pa.Table:
        pol = ray.get(policy_handle) if isinstance(policy_handle, ray.ObjectRef) else policy_handle
        out = _topk_per_host(g.drop(columns=["_part"]), pol)
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    candidates = frontier.map_batches(partial, batch_format="pyarrow")
    gated = candidates.groupby("_part").map_groups(final, batch_format="pandas").materialize()

    n_gated = gated.count()
    if n_gated <= EXACT_GATED_BROADCAST_MAX:
        # small gated set: exact key-array broadcast (the fast path)
        gated_keys = np.unique(gated.to_pandas()["url_hash"].to_numpy().astype(np.uint64))
        not_gated_ref = ray.put(("exact", gated_keys))
    else:
        # VERDICT r4 #2: past the threshold the driver must NOT hold the
        # gated key array (10^8 politeness-capped hosts -> multi-GB per
        # round). Instead: (a) a SIZE-CAPPED bloom of gated keys, built by
        # per-block remote tasks and OR-tree-reduced off the driver — the
        # driver holds ONE constant-size bit array; (b) bloom false
        # positives are corrected EXACTLY by a distributed narrow anti-join
        # (bloom-positive frontier keys minus gated keys = the small FP key
        # set), so `deferred` stays exact:
        #   keep row <=> bloom-miss (definitely not gated) OR key in FP set.
        nbits = int(min(max(64, n_gated * 10), MAX_GATED_BLOOM_BITS))
        brefs = [_bloom_of_block.remote(r, nbits)
                 for r in gated.to_arrow_refs()]
        while len(brefs) > 1:  # OR tree-reduce in the object store
            brefs = [_or_bits.remote(*brefs[i:i + 2])
                     for i in range(0, len(brefs), 2)]
        bloom_bits_ref = brefs[0]  # never ray.get on the driver

        def maybe_keys(batch: pa.Table) -> pa.Table:
            bits = ray.get(bloom_bits_ref)
            h = np.asarray(batch["url_hash"].to_pylist(), dtype=np.uint64)
            hit = h[_bloom_contains(bits, nbits, h)]
            return pa.table({"url_hash": pa.array(hit),
                             "kind": pa.array(np.zeros(len(hit), dtype=np.int8))})

        def fp_in_partition(g: pd.DataFrame) -> pd.DataFrame:
            gk = set(g.loc[g["kind"] == 1, "url_hash"])
            out = g.loc[(g["kind"] == 0) & ~g["url_hash"].isin(gk), ["url_hash"]]
            return out.drop_duplicates()

        P_fp = 32
        maybe = frontier.select_columns(["url_hash"]).map_batches(
            maybe_keys, batch_format="pyarrow")
        def tag_gated(t: pa.Table) -> pa.Table:
            if "url_hash" not in t.schema.names:  # empty map_groups stub
                return pa.table({"url_hash": pa.array([], type=pa.uint64()),
                                 "kind": pa.array([], type=pa.int8())})
            return pa.table({
                "url_hash": t["url_hash"].cast(pa.uint64()),
                "kind": pa.array(np.ones(t.num_rows, dtype=np.int8))})

        gated_tag = gated.map_batches(tag_gated, batch_format="pyarrow")
        fp = (maybe.union(gated_tag)
              .map_batches(lambda t: t.append_column(
                  "_p", pa.array((np.asarray(t["url_hash"].to_pylist(),
                                             dtype=np.uint64) % P_fp).astype(np.int32))),
                  batch_format="pyarrow")
              .groupby("_p").map_groups(fp_in_partition, batch_format="pandas")
              ).to_pandas()  # FP-rate-sized, tiny by construction
        fp_keys = np.unique(fp["url_hash"].to_numpy().astype(np.uint64)) \
            if len(fp) else np.empty(0, dtype=np.uint64)
        not_gated_ref = ray.put(("bloom", bloom_bits_ref, nbits, fp_keys))

    # robots-dropped rows must not linger in the frontier either: deferred =
    # frontier minus gated minus robots-disallowed.
    def deferred_fn(batch: pa.Table) -> pa.Table:
        pol = ray.get(policy_handle) if isinstance(policy_handle, ray.ObjectRef) else policy_handle
        df = batch.to_pandas()
        df = robots_filter(df, pol, url_col=url_col)
        if not len(df):
            return batch.slice(0, 0)
        spec = ray.get(not_gated_ref)
        h = df["url_hash"].to_numpy().astype(np.uint64)
        if spec[0] == "exact":
            keep = ~np.isin(h, spec[1])
        else:
            _, bits_ref, nb, fpk = spec
            bits = ray.get(bits_ref)
            keep = ~_bloom_contains(bits, nb, h) | np.isin(h, fpk)
        out = pa.Table.from_pandas(df[keep], preserve_index=False)
        return out.cast(batch.schema)

    deferred = frontier.map_batches(deferred_fn, batch_format="pyarrow")
    return gated, deferred


# ---------------------------------------------------------------------------
# Exact per-host inflight caps (SURVEY.md W4 / round-1 TODO at the top of
# this module). The round budget bounds how many of a host's URLs a ROUND
# fetches; ``max_inflight`` additionally bounds how many are in flight AT
# ONCE. Each fetch task walks its sub-batch sequentially, so a task holds at
# most one in-flight request per host — a task-level slot per (task, host)
# therefore enforces the request-level cap exactly, with ONE actor
# round-trip per host per batch instead of per URL. Like the seen shards, the
# limiter reserves no CPU: a reservation would hold back a fetch task slot.

@ray.remote(num_cpus=0, scheduling_strategy="SPREAD")
class HostInflightLimiter:
    """Named token actor: at most ``limits[host]`` concurrent slot holders
    per host (0 / missing = uncapped), optionally paced so successive
    acquisitions for a host are at least ``delays_ms[host]`` apart — the
    live-web crawl-delay semantics WITHIN a round (the per-round budget
    alone would let a host's whole allowance fire as one burst). Tracks
    the observed maximum and last-grant times for tests/metrics."""

    def __init__(self, limits: dict[str, int],
                 delays_ms: dict[str, int] | None = None):
        import time as _time

        self._now = _time.monotonic
        self.limits = {h: int(v) for h, v in limits.items() if int(v) > 0}
        self.delays = {h: int(v) / 1000.0 for h, v in (delays_ms or {}).items()
                       if int(v) > 0}
        self.inflight: dict[str, int] = {}
        self.max_seen: dict[str, int] = {}
        self.last_grant: dict[str, float] = {}

    def try_acquire(self, host: str) -> bool:
        cap = self.limits.get(host, 0)
        cur = self.inflight.get(host, 0)
        if cap and cur >= cap:
            return False
        delay = self.delays.get(host)
        now = self._now()
        if delay and now - self.last_grant.get(host, -1e18) < delay:
            return False
        self.inflight[host] = cur + 1
        self.last_grant[host] = now
        if self.inflight[host] > self.max_seen.get(host, 0):
            self.max_seen[host] = self.inflight[host]
        return True

    def release(self, host: str) -> None:
        self.inflight[host] = max(0, self.inflight.get(host, 0) - 1)

    def reset(self) -> None:
        """Drop all held slots (fault recovery: tasks that died mid-hold
        can never release; the round is re-run from a clean slate)."""
        self.inflight = {}

    def stats(self) -> dict:
        return {"inflight": dict(self.inflight), "max_seen": dict(self.max_seen)}


class InflightGuard:
    """Worker-side handle: blocking slot acquisition with a poll backoff.
    Cached per (process, name) like the seen-shard handles."""

    _CACHE: dict = {}

    def __init__(self, name: str, poll_s: float = 0.005):
        self.name = name
        self.poll_s = poll_s

    def _actor(self):
        a = InflightGuard._CACHE.get(self.name)
        if a is None:
            a = ray.get_actor(self.name)
            InflightGuard._CACHE[self.name] = a
        return a

    def acquire(self, host: str) -> None:
        import time as _time

        a = self._actor()
        while not ray.get(a.try_acquire.remote(host)):
            _time.sleep(self.poll_s)

    def release(self, host: str) -> None:
        self._actor().release.remote(host)

    def stats(self) -> dict:
        return ray.get(self._actor().stats.remote())


def make_inflight_limiter(name: str, policy: HostPolicy,
                          pace: bool = False):
    """Create (or reuse) the named limiter actor from a policy's
    max_inflight fields; returns (name, handle) — the CALLER must hold the
    handle, a named non-detached actor dies when its last handle drops —
    or (None, None) when nothing is capped. ``pace=True`` additionally
    enforces each host's crawl_delay_ms between successive request grants
    (live-web mode; hermetic benches leave it off)."""
    limits = policy.inflight_limits()
    if not limits:
        return None, None
    delays = ({h: p.get("crawl_delay_ms", 0) for h, p in policy.policies.items()}
              if pace else None)
    handle = HostInflightLimiter.options(name=name, get_if_exists=True).remote(
        limits, delays_ms=delays)
    return name, handle

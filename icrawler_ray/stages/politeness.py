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
full frontier by host. Every block splits its rows with ``split_by_budget``
(a combiner): its local top-B_h rows become candidates, tagged with their
host-hash partition, and the rest are deferred on the spot, which is exact
because a row outside its block's top-B_h cannot be in its host's global
top-B_h. Only candidates cross the groupby exchange, where the same split
marks each as gated or not; deferred = the blocks' non-candidates plus the
candidates the exchange did not gate. A hot host therefore contributes at
most B_h rows per block to the shuffle, not its full frontier share, and
the driver holds no per-key state at any gated-set size.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from icrawler_ray.functions.seq import cluster_cpus


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


def robots_filter(df: pd.DataFrame, policy: HostPolicy) -> pd.DataFrame:
    """Drop rows whose path hits a disallowed prefix for their host."""
    if not len(df):
        return df
    rules = {h: tuple(p) for h in df["host"].unique() if (p := policy.disallowed(h))}
    if not rules:
        return df
    # one vectorized path pass over the ruled hosts' rows, then a C-level
    # str.startswith per row: no per-host pandas call
    ruled = df["host"].isin(list(rules)).to_numpy()
    paths = _path_of(df["url"][ruled].astype("string"))
    drop = np.zeros(len(df), dtype=bool)
    drop[ruled] = [p.startswith(rules[h]) for h, p in zip(df["host"][ruled], paths)]
    return df[~drop]


def _topk_per_host(df: pd.DataFrame, policy: HostPolicy) -> pd.DataFrame:
    """Vectorized per-host (priority DESC, seq ASC) top-B_h."""
    if not len(df):
        return df
    df = df.sort_values(["host", "priority", "seq"], ascending=[True, False, True], kind="mergesort")
    rank = df.groupby("host", sort=False).cumcount()
    codes, hosts = pd.factorize(df["host"], use_na_sentinel=False)
    budgets = np.array([policy.budget(h) for h in hosts], dtype=np.int64)[codes]
    return df[rank.to_numpy() < budgets]


def split_by_budget(df: pd.DataFrame, policy: HostPolicy) -> tuple[pd.DataFrame, pd.DataFrame]:
    """(gated, deferred) rows of one frame: the robots-live rows within their
    host's top-B_h, and the other robots-live rows. Disallowed rows are in
    neither. ``df`` needs url, host, priority and seq and a unique index."""
    live = robots_filter(df, policy)
    gated = _topk_per_host(live, policy)
    return gated, live.loc[~live.index.isin(gated.index)]


def split_rows(t: pa.Table, policy: HostPolicy) -> tuple[np.ndarray, np.ndarray]:
    """split_by_budget on an Arrow table -> (gated, deferred) row positions,
    gated in (host, priority DESC, seq) order, deferred in table order."""
    df = t.select(["url", "host", "priority", "seq"]).to_pandas()
    df.index = pd.RangeIndex(len(df))  # positions, whatever the pandas metadata says
    gated, deferred = split_by_budget(df, policy)
    return gated.index.to_numpy(), deferred.index.to_numpy()


def politeness_gate(frontier: ray.data.Dataset, policy_ref):
    """(gated, deferred) split of a frontier dataset.

    ``policy_ref`` is a ``ray.put`` handle to a HostPolicy (broadcast once).
    Returns gated as a materialized small Dataset (it is at most
    sum_h(B_h) rows) and deferred as a lazy filter of the tagged frontier
    and the exchange output.
    """
    P = 32  # bounded fat host-hash partitions: one group PER HOST would be
    # the many-tiny-groups pitfall at web host counts, and split_by_budget
    # is already vectorized across hosts within a frame; the exchange
    # merges them into at most P reducer blocks

    def tag(batch: pa.Table) -> pa.Table:
        # _part: the host-hash partition of a block-local top-B_h candidate,
        # -1 for a deferred row; robots-disallowed rows are dropped here
        gated, deferred = split_rows(batch, ray.get(policy_ref))
        part = np.full(batch.num_rows, -2, dtype=np.int32)
        part[deferred] = -1
        hosts = batch["host"].take(gated).to_numpy(zero_copy_only=False)
        part[gated] = pd.util.hash_array(hosts.astype(object)) % P
        return batch.append_column("_part", pa.array(part)).filter(pa.array(part > -2))

    def final(g: pa.Table) -> pa.Table:
        # from here _part only says gated (0) or deferred (-1): a candidate
        # outside its host's global top-B_h is deferred as well
        gated, _ = split_rows(g, ray.get(policy_ref))
        part = np.full(g.num_rows, -1, dtype=np.int32)
        part[gated] = 0
        return g.drop_columns(["_part"]).append_column("_part", pa.array(part))

    # Tagged once and materialized: a second run of `tag` over other block
    # boundaries could make a row a candidate in one run and not the other.
    tagged = frontier.map_batches(tag, batch_format="pyarrow").materialize()
    # The exchange is a sort on _part with fixed boundaries (what
    # groupby().map_groups runs, minus its sampling pass): each output block
    # holds whole partitions, so whole hosts. Reducers scale with the rows
    # and the cluster: every reducer adds a task and an object per input
    # block, which at small frontiers costs more than the kernel.
    k = int(min(P, max(2, tagged.count() // 4096), 4 * cluster_cpus()))
    exchanged = (tagged.filter(expr="_part >= 0")
                 .sort("_part", boundaries=[P * i // k for i in range(1, k)])
                 .map_batches(final, batch_format="pyarrow", batch_size=None).materialize())
    gated = exchanged.filter(expr="_part >= 0").drop_columns(["_part"]).materialize()
    deferred = tagged.union(exchanged).filter(expr="_part < 0").drop_columns(["_part"])
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
    The process caches ONE limiter handle, like the seen-shard handles: a
    lookup under another name replaces it, so none outlives its crawl."""

    _CACHE: dict = {}

    def __init__(self, name: str, poll_s: float = 0.005):
        self.name = name
        self.poll_s = poll_s

    def _actor(self):
        a = InflightGuard._CACHE.get(self.name)
        if a is None:
            InflightGuard._CACHE.clear()
            a = InflightGuard._CACHE[self.name] = ray.get_actor(self.name)
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


def walk_host_runs(urls: list, guard: InflightGuard | None, visit) -> None:
    """Call ``visit(i)`` for each row ``i`` of ``urls``. With a guard the
    rows run grouped by host (stable sort) and each host run holds one
    inflight slot, so a host costs one acquire/release round trip per
    batch; the held slot is released even when ``visit`` raises. Without
    a guard the rows run in input order and no host is computed."""
    if guard is None:
        for i in range(len(urls)):
            visit(i)
        return
    from icrawler_ray.functions.urlnorm import host_of_one

    hosts = [host_of_one(u) for u in urls]
    held: str | None = None
    try:
        for i in sorted(range(len(urls)), key=hosts.__getitem__):
            if hosts[i] != held:
                if held is not None:
                    guard.release(held)
                    held = None
                guard.acquire(hosts[i])
                held = hosts[i]
            visit(i)
    finally:
        if held is not None:
            guard.release(held)


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

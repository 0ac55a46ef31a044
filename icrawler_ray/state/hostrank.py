"""Sharded host in-link counters for the host-rank frontier priority.

``GreedyCrawl(host_rank_priority=True)`` scores new frontier rows by
``1 + log1p(cumulative admitted in-links of the host)`` (the link-graph
scheduler signal, stages/linkgraph.py).  The counter state starts as a
plain driver dict — cheap and exact while distinct hosts are few — and
MIGRATES to a fleet of hash-partitioned counter shard actors the moment
the dict would outgrow ``shard_threshold``: the 1e8-distinct-host design
point cannot hold a driver-resident dict (GBs) nor broadcast it per
round.

After migration the driver holds NO per-host state: each round routes
its (host, n) increments to the owning shards (pd.util.hash_array is
deterministic, same key every process) and gets back only the updated
counts for THAT round's hosts — an output-sized exchange, never the
cumulative host universe.

Deliberately not checkpointed, exactly like the dict it replaces
(pipelines/greedy.py): the signal re-warms after resume/recovery;
``reset()`` drops the fleet.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

__all__ = ["HostRankState", "DEFAULT_SHARD_THRESHOLD"]

#: dict->shards migration point: ~100k distinct hosts is where a
#: per-round full-dict broadcast stops being "small side"
DEFAULT_SHARD_THRESHOLD = 100_000


@ray.remote(num_cpus=0.1)
class _HostCountShard:
    """Holds host->count for one hash partition of the host space."""

    def __init__(self):
        self.counts: dict = {}

    def add_and_get(self, hosts: list, ns: np.ndarray) -> np.ndarray:
        out = np.empty(len(hosts), dtype=np.int64)
        c = self.counts
        for i, (h, n) in enumerate(zip(hosts, ns.tolist())):
            v = c.get(h, 0) + n
            c[h] = v
            out[i] = v
        return out

    def load(self, d: dict) -> None:
        for h, n in d.items():
            self.counts[h] = self.counts.get(h, 0) + n

    def size(self) -> int:
        return len(self.counts)


class HostRankState:
    """Driver-side facade: dict below ``shard_threshold``, counter shard
    actors above it (migration is one-way and transparent — callers see
    the same ``update_and_counts`` either way)."""

    def __init__(self, shard_threshold: int = DEFAULT_SHARD_THRESHOLD,
                 num_shards: int = 8):
        self.shard_threshold = int(shard_threshold)
        self.num_shards = max(1, int(num_shards))
        self.local: dict = {}
        self.shards: list | None = None

    @property
    def sharded(self) -> bool:
        return self.shards is not None

    def _route(self, hosts: np.ndarray) -> np.ndarray:
        return (pd.util.hash_array(hosts.astype(object))
                % self.num_shards).astype(np.int64)

    def _migrate(self) -> None:
        self.shards = [_HostCountShard.remote() for _ in range(self.num_shards)]
        if self.local:
            hosts = np.asarray(list(self.local), dtype=object)
            part = self._route(hosts)
            refs = []
            for k in range(self.num_shards):
                sub = hosts[part == k]
                if len(sub):
                    refs.append(self.shards[k].load.remote(
                        {h: self.local[h] for h in sub}))
            ray.get(refs)
        self.local = {}  # driver per-host state gone from here on

    def maybe_migrate(self, extra: int = 0) -> None:
        """Migrate dict -> shard fleet once the dict (plus ``extra``
        incoming keys) would outgrow the threshold."""
        if self.shards is None and len(self.local) + extra > self.shard_threshold:
            self._migrate()

    def update_and_counts(self, hosts: np.ndarray, ns: np.ndarray) -> np.ndarray:
        """Add ``ns[i]`` in-links to ``hosts[i]`` (hosts UNIQUE within the
        call) and return the post-update cumulative counts, aligned to
        the input."""
        if not len(hosts):
            return np.empty(0, dtype=np.int64)
        hosts = np.asarray(hosts, dtype=object)
        ns = np.asarray(ns, dtype=np.int64)
        self.maybe_migrate(len(hosts))
        if self.shards is None:
            out = np.empty(len(hosts), dtype=np.int64)
            for i, (h, n) in enumerate(zip(hosts.tolist(), ns.tolist())):
                v = self.local.get(h, 0) + int(n)
                self.local[h] = v
                out[i] = v
            return out
        part = self._route(hosts)
        out = np.empty(len(hosts), dtype=np.int64)
        pending = []
        for k in range(self.num_shards):
            idx = np.flatnonzero(part == k)
            if len(idx):
                pending.append((idx, self.shards[k].add_and_get.remote(
                    hosts[idx].tolist(), ns[idx])))
        for idx, ref in pending:  # one batched call per shard, in parallel
            out[idx] = ray.get(ref)
        return out

    def rewrite_priorities(self, new, schema):
        """Count a round's new frontier rows (a materialized Dataset) as
        in-links of their hosts and set each row's priority to
        1 + log1p(its host's post-update count); returns the rewritten
        rows, materialized."""
        self.maybe_migrate(1)
        if self.sharded:
            return rewrite_priorities_ds(self, new, schema).materialize()
        # dict state: the round's (host, n) frame is bounded by the shard
        # threshold — combiner groupby to the driver, then only THIS
        # round's (host, count) mapping broadcasts back for the rewrite
        hc = new.groupby("host").count().to_pandas()
        cnt_col = next(c for c in hc.columns if c != "host")
        hosts = hc["host"].to_numpy(dtype=object)
        counts = self.update_and_counts(hosts, hc[cnt_col].to_numpy(dtype=np.int64))
        counts_ref = ray.put(dict(zip(hosts.tolist(), counts.tolist())))

        def set_priority(t):
            hs = pd.Series(t["host"].to_pylist(), dtype="string")
            pr = 1.0 + np.log1p(hs.map(ray.get(counts_ref)).to_numpy(dtype=np.float64))
            return t.set_column(t.schema.get_field_index("priority"), "priority",
                                pa.array(pr, type=pa.float64()))

        return new.map_batches(set_priority, batch_format="pyarrow").materialize()

    def reset(self) -> None:
        """Drop all counter state (recovery semantics: re-warm, never
        double-count)."""
        if self.shards is not None:
            for s in self.shards:
                ray.kill(s, no_restart=True)
        self.shards = None
        self.local = {}


def rewrite_priorities_ds(state: HostRankState, new_md, schema) -> "object":
    """Sharded-mode priority rewrite that never transits the driver
    (VERDICT r4 #4): the per-round (host, n) frame stays a Dataset.

    One host-hash exchange: rows are tagged with their owning shard id
    (the SAME ``pd.util.hash_array % num_shards`` routing as
    :meth:`HostRankState._route`, so every host in partition k belongs to
    shard k), then each partition task makes ONE batched
    ``add_and_get`` call to its shard and rewrites its rows' priorities
    locally — the driver sees only block metadata.  Requires
    ``state.sharded``; priorities are bit-identical to the driver
    broadcast path (each host's full round count lands in exactly one
    partition, so the post-update cumulative count is the same).
    """
    if not state.sharded:
        raise ValueError("rewrite_priorities_ds requires the sharded state")
    shards = state.shards
    nsh = state.num_shards

    def tag(t: pa.Table) -> pa.Table:
        hp = (pd.util.hash_array(np.asarray(t["host"].to_pylist(), dtype=object))
              % nsh).astype(np.int64)
        return t.append_column("_hp", pa.array(hp))

    def rewrite(g: pd.DataFrame) -> pa.Table:
        k = int(g["_hp"].iloc[0])
        codes, uniq = pd.factorize(g["host"].to_numpy(dtype=object))
        ns = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        newc = ray.get(shards[k].add_and_get.remote(uniq.tolist(), ns))
        g = g.drop(columns=["_hp"])
        g["priority"] = 1.0 + np.log1p(newc[codes].astype(np.float64))
        return pa.Table.from_pandas(g, preserve_index=False).cast(schema)

    return (new_md.map_batches(tag, batch_format="pyarrow")
            .groupby("_hp").map_groups(rewrite, batch_format="pandas"))

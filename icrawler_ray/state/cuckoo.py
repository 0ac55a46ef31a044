"""Cuckoo filter over uint64 keys (north-rule seen-set shard core).

Standard construction (Fan et al., "Cuckoo Filter: Practically Better Than
Bloom", CoNEXT'14): 4-slot buckets, 16-bit fingerprints, partial-key
cuckoo hashing — bucket2 = bucket1 XOR hash(fingerprint). Supports DELETE
(bloom cannot), bounded false-positive rate ~ 2*slots/2^fp_bits ≈ 0.012%
at 16-bit fingerprints.

Batch ``contains`` is fully vectorized (numpy gather over both candidate
buckets) — the hot path: most frontier candidates are membership checks.
``add`` places in bulk too: two empty-slot passes (first, then second
bucket) and one-kick passes for keys whose buckets are both full; only
the residue takes the per-item eviction chain.

GROWTH: a partial-key cuckoo table cannot be rehashed in place (the
fingerprint alone does not determine the bucket in a larger table), so
capacity overflow is handled by GENERATIONS — the scalable-filter
pattern (Almeida et al., "Scalable Bloom Filters", IPL 2007, applied to
cuckoo tables): when the live generation cannot place a key even after
an (undone) eviction chain, a new generation of twice the capacity opens
and takes the ORIGINAL key (still in hand — eviction chains are rolled
back on failure precisely so no keyless fingerprint is ever homeless).
Lookups/deletes probe every generation (each fully vectorized); the
number of generations is O(log(final/initial capacity)), and the FP rate
grows only linearly in that small count. A crawl whose frontier outruns
any pre-sizing therefore degrades smoothly instead of failing
(round-5 10M-page probe: the old fixed-capacity filter raised at ~8M
keys per shard-set).

At the 10^10 design point: 16 bits/key * 1.05 slack ≈ 21 GiB of
fingerprint table across all shards — sized per shard via ``capacity``;
generations make that an initial hint, not a hard ceiling.
"""

from __future__ import annotations

import numpy as np

from icrawler_ray.state.bloom import _mix

SLOTS = 4
MAX_KICKS = 500
#: proactively open the next generation past this fill fraction of a
#: generation's slot count. 4-slot cuckoo tables place almost everything
#: with the two vectorized empty-slot passes below ~0.84 fill; past that
#: per-item eviction chains lengthen sharply (measured: 3M inserts into a
#: 1M-sized filter drop from ~46 s at 0.95 to ~seconds at 0.84), so we
#: trade ~13% table memory for bulk-path inserts
GROW_AT = 0.84
_M64 = (1 << 64) - 1


def _mix_one(x: int, round_: int) -> int:
    """bloom._mix of one Python int (the same bits), for the per-item
    eviction chain, where numpy's per-call overhead dominates."""
    z = (x + (round_ + 1) * 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class _Gen:
    """One fixed-size cuckoo table generation."""

    __slots__ = ("n_buckets", "table", "items")

    def __init__(self, n_buckets: int, table: np.ndarray | None = None,
                 items: int = 0):
        self.n_buckets = n_buckets
        self.table = (np.zeros((n_buckets, SLOTS), dtype=np.uint16)
                      if table is None else table)
        self.items = items

    @classmethod
    def for_capacity(cls, capacity: int) -> "_Gen":
        n_buckets = 1
        while n_buckets * SLOTS < capacity * 1.05:
            n_buckets *= 2
        return cls(n_buckets)

    def buckets(self, keys: np.ndarray, fp: np.ndarray):
        b1 = (_mix(keys, 11) % np.uint64(self.n_buckets)).astype(np.uint64)
        fph = _mix(fp.astype(np.uint64), 13) % np.uint64(self.n_buckets)
        return b1, b1 ^ fph

    def alt_bucket(self, fp: np.ndarray, b: np.ndarray) -> np.ndarray:
        fph = _mix(fp.astype(np.uint64), 13) % np.uint64(self.n_buckets)
        return b ^ fph


class CuckooFilter:
    def __init__(self, capacity: int, seed: int = 0):
        self.seed = seed
        self.num_items = 0
        self._rng = np.random.default_rng(seed)
        self.gens: list[_Gen] = [_Gen.for_capacity(capacity)]

    # --- key -> fingerprint (generation-independent), all vectorized
    @staticmethod
    def _fp(keys: np.ndarray) -> np.ndarray:
        fp = (_mix(keys, 7) & np.uint64(0xFFFF)).astype(np.uint16)
        return np.where(fp == 0, np.uint16(1), fp)  # reserve 0 for empty

    def contains(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        fp = self._fp(keys)
        fpc = fp[:, None]
        seen = np.zeros(len(keys), dtype=bool)
        for g in self.gens:
            b1, b2 = g.buckets(keys, fp)
            seen |= ((g.table[b1] == fpc) | (g.table[b2] == fpc)).any(axis=1)
        return seen

    def _load(self, g: _Gen) -> float:
        return g.items / float(g.n_buckets * SLOTS)

    def add(self, keys: np.ndarray) -> None:
        """Insert keys (caller has already dropped known-present ones).

        Fast path (vectorized): place each key into an empty slot of its
        FIRST bucket in the LIVE (newest) generation — batch-internal
        same-bucket collisions resolved with a per-bucket running rank.
        Keys whose first bucket is full fall to the per-item
        cuckoo-eviction path (<few %% at normal load); keys that still
        cannot be placed open the next generation and land there."""
        keys = np.asarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            return
        self.num_items += len(keys)
        while len(keys):
            g = self.gens[-1]
            # intake cap: never push a generation past GROW_AT — eviction
            # chains degenerate near saturation (O(keys x MAX_KICKS))
            room = int(GROW_AT * g.n_buckets * SLOTS) - g.items
            if room <= 0:
                self.gens.append(_Gen.for_capacity(
                    max(g.n_buckets * SLOTS * 2, int(len(keys) * 1.25))))
                continue
            take, keys = keys[:room], keys[room:]
            fp = self._fp(take)
            b1, b2 = g.buckets(take, fp)
            # two vectorized empty-slot passes (bucket1, then bucket2 for
            # the leftovers) before any per-item eviction — at high load
            # "first bucket full" is common and per-item chains are the
            # expensive path
            ok1 = self._bulk_place(g, b1, fp)
            rest = np.nonzero(~ok1)[0]
            if len(rest):
                ok2 = self._bulk_place(g, b2[rest], fp[rest])
                rest = rest[~ok2]
            if len(rest):  # both buckets full: vectorized one-kick passes
                rest = rest[~self._kick_place(g, b1[rest], b2[rest], fp[rest])]
            overflow = []
            for i in rest:
                if self._insert_one(g, int(fp[i]), int(b1[i]), int(b2[i])):
                    g.items += 1
                else:
                    overflow.append(i)
            if overflow or len(keys):
                # next generation (>= 2x live slots, sized to cover the
                # remaining batch) takes the ORIGINAL overflow keys
                # (num_items already counted every key once at entry)
                if overflow:
                    keys = np.concatenate(
                        [take[np.asarray(overflow, dtype=np.int64)], keys])
                self.gens.append(_Gen.for_capacity(
                    max(g.n_buckets * SLOTS * 2, int(len(keys) * 1.25))))

    def _bulk_place(self, g: _Gen, bks: np.ndarray, fps: np.ndarray) -> np.ndarray:
        """Vectorized empty-slot placement of (bucket, fp) pairs; batch-
        internal same-bucket collisions resolved with a per-bucket running
        rank. Returns the placed mask (in input order)."""
        n = len(bks)
        order = np.argsort(bks, kind="stable")
        bs, fs = bks[order], fps[order]
        change = np.ones(n, dtype=bool)
        change[1:] = bs[1:] != bs[:-1]
        grp_start = np.nonzero(change)[0]
        grp_sizes = np.diff(np.append(grp_start, n))
        rank = np.arange(n) - np.repeat(grp_start, grp_sizes)
        rows = g.table[bs]                       # (n, SLOTS) gather
        n_empty = (rows == 0).sum(axis=1)
        # empty slot positions, empties first (stable: keeps slot order)
        empty_rank = np.argsort(rows != 0, kind="stable", axis=1)
        okq = rank < n_empty
        slot = empty_rank[np.arange(n), np.minimum(rank, SLOTS - 1)]
        g.table[bs[okq], slot[okq]] = fs[okq]
        g.items += int(okq.sum())
        ok = np.zeros(n, dtype=bool)
        ok[order[okq]] = True
        return ok

    def _kick_place(self, g: _Gen, b1: np.ndarray, b2: np.ndarray,
                    fp: np.ndarray) -> np.ndarray:
        """Vectorized one-kick placement of keys whose two buckets are
        both full. One pass per victim slot (bucket b1 or b2, slot s): the
        victim fingerprint moves to its alternate bucket when that bucket
        has an empty slot, and the key takes the victim's slot. A full
        bucket is never a victim's destination, so a pass takes at most
        one key per victim bucket and needs no journal; ``_bulk_place``
        ranks the victims that share a destination. Returns the placed
        mask; the residue goes to the per-item eviction chain."""
        placed = np.zeros(len(fp), dtype=bool)
        for bks in (b1, b2):
            for s in range(SLOTS):
                idx = np.nonzero(~placed)[0]
                idx = idx[np.unique(bks[idx], return_index=True)[1]]
                b = bks[idx]
                victim = g.table[b, s]
                moved = self._bulk_place(g, g.alt_bucket(victim, b), victim)
                g.table[b[moved], s] = fp[idx[moved]]
                placed[idx[moved]] = True
        return placed

    def _insert_one(self, g: _Gen, fp: int, b1: int, b2: int) -> bool:
        """Direct + eviction-chain insert into generation ``g``; the
        chain is journaled and UNDONE on failure so the original key can
        be routed to the next generation (a kicked-out fingerprint alone
        could not be — its bucket in a larger table is unknowable)."""
        for b in (b1, b2):
            row = g.table[b]
            empty = np.nonzero(row == 0)[0]
            if len(empty):
                row[empty[0]] = fp
                return True
        b = b1 if self._rng.integers(0, 2) else b2
        journal = []
        for _ in range(MAX_KICKS):
            slot = int(self._rng.integers(0, SLOTS))
            journal.append((b, slot, int(g.table[b, slot])))
            fp, g.table[b, slot] = int(g.table[b, slot]), fp
            b ^= _mix_one(fp, 13) % g.n_buckets  # scalar Gen.alt_bucket
            row = g.table[b]
            empty = np.nonzero(row == 0)[0]
            if len(empty):
                row[empty[0]] = fp
                return True
        for bb, ss, old in reversed(journal):  # undo: table back to pre-call
            g.table[bb, ss] = old
        return False

    def delete(self, keys: np.ndarray) -> np.ndarray:
        """Remove one matching fingerprint per key; returns removed mask."""
        keys = np.asarray(keys, dtype=np.uint64)
        fp = self._fp(keys)
        removed = np.zeros(len(fp), dtype=bool)
        for i in range(len(fp)):
            for g in self.gens:
                b1, b2 = g.buckets(keys[i:i + 1], fp[i:i + 1])
                hit = False
                for b in (int(b1[0]), int(b2[0])):
                    row = g.table[b]
                    pos = np.nonzero(row == fp[i])[0]
                    if len(pos):
                        row[pos[0]] = 0
                        removed[i] = True
                        self.num_items -= 1
                        g.items -= 1
                        hit = True
                        break
                if hit:
                    break
        return removed

    # ---- checkpoint serialization (v2: generation list)
    def serialize(self) -> bytes:
        header = np.array([-2, len(self.gens), self.num_items, self.seed],
                          dtype=np.int64)
        parts = [header.tobytes()]
        for g in self.gens:
            parts.append(np.array([g.n_buckets, g.items],
                                  dtype=np.int64).tobytes())
            parts.append(g.table.tobytes())
        return b"".join(parts)

    @classmethod
    def deserialize(cls, payload: bytes) -> "CuckooFilter":
        f = cls.__new__(cls)
        head = int(np.frombuffer(payload[:8], dtype=np.int64)[0])
        if head != -2:  # v1 began with the bucket count: [n_buckets, num_items, seed]
            raise ValueError(f"CuckooFilter payload is not version 2 (first word {head}, "
                             "not -2): version 1 payloads are no longer read")
        # v2: [-2, n_gens, num_items, seed] + gens
        hdr = np.frombuffer(payload[:32], dtype=np.int64)
        _, n_gens, f.num_items, f.seed = (int(x) for x in hdr)
        off = 32
        f.gens = []
        for _ in range(n_gens):
            nb, items = (int(x) for x in
                         np.frombuffer(payload[off:off + 16], dtype=np.int64))
            off += 16
            size = nb * SLOTS * 2
            table = np.frombuffer(payload[off:off + size],
                                  dtype=np.uint16).reshape(nb, SLOTS).copy()
            off += size
            f.gens.append(_Gen(nb, table, items))
        f._rng = np.random.default_rng(f.seed)
        return f

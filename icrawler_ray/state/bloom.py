"""Vectorized Bloom filter over uint64 keys.

North-rule pre-filter in front of each cuckoo shard: cuts shard lookup
traffic for the common "definitely new" case. All operations are numpy
bulk ops over arrays of pre-hashed uint64 keys (the engine hashes URLs
once, upstream, with pandas' SipHash — functions/urlnorm.hash_urls).

k hash functions are derived from the single input hash by splitmix64-style
mixing (public-domain construction from Steele et al., "Fast Splittable
Pseudorandom Number Generators") — no re-hashing of the string.

Design point (SURVEY.md §7.4): 10^10 URLs across S shards; at 10 bits/key a
shard of 10^10/S keys costs 10^10*10/8/S bytes total across the cluster —
bits per key and k are constructor knobs.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix(x: np.ndarray, round_: int) -> np.ndarray:
    """splitmix64 finalizer with a per-round increment; vectorized uint64."""
    with np.errstate(over="ignore"):
        z = x + np.uint64(round_ + 1) * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


class _BGen:
    """One fixed-size bloom generation."""

    __slots__ = ("capacity", "nbits", "bits", "items")

    def __init__(self, capacity: int, bits_per_key: int,
                 bits: np.ndarray | None = None, items: int = 0):
        self.capacity = int(capacity)
        self.nbits = max(64, int(capacity) * int(bits_per_key))
        self.bits = (np.zeros((self.nbits + 63) // 64, dtype=np.uint64)
                     if bits is None else bits)
        self.items = items


class BloomFilter:
    """Scalable bloom (Almeida et al., IPL 2007): inserts beyond a
    generation's sized capacity open a new generation of twice the
    capacity instead of silently saturating the bit array (a saturated
    pre-filter answers "maybe" for everything, losing its purpose while
    staying correct). ``contains`` ORs all generations — each probe is
    the same vectorized gather; the generation count is logarithmic."""

    def __init__(self, capacity: int, bits_per_key: int = 10, k: int = 4):
        self.capacity = int(capacity)
        self.bits_per_key = int(bits_per_key)
        self.k = int(k)
        self.num_items = 0
        self.gens = [_BGen(self.capacity, self.bits_per_key)]

    def _positions(self, g: _BGen, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        pos = np.empty((self.k, len(keys)), dtype=np.uint64)
        for r in range(self.k):
            pos[r] = _mix(keys, r) % np.uint64(g.nbits)
        return pos

    def add(self, keys: np.ndarray) -> None:
        keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
        self.num_items += len(keys)
        while len(keys):
            g = self.gens[-1]
            room = g.capacity - g.items
            if room <= 0:  # sized fill reached: open next gen
                self.gens.append(_BGen(g.capacity * 2, self.bits_per_key))
                continue
            take, keys = keys[:room], keys[room:]  # keep per-gen fill
            pos = self._positions(g, take)          # within its sizing
            word = (pos >> np.uint64(6)).ravel()
            bit = np.uint64(1) << (pos & np.uint64(63)).ravel()
            np.bitwise_or.at(g.bits, word, bit)
            g.items += len(take)

    def contains(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.zeros(len(np.atleast_1d(keys)), dtype=bool)
        for g in self.gens:
            pos = self._positions(g, keys)
            word = pos >> np.uint64(6)
            bit = np.uint64(1) << (pos & np.uint64(63))
            out |= ((g.bits[word] & bit) != 0).all(axis=0)
        return out

    # ---- checkpoint serialization (v2: generation list)
    def serialize(self) -> bytes:
        header = np.array([-2, len(self.gens), self.k, self.bits_per_key,
                           self.num_items], dtype=np.int64)
        parts = [header.tobytes()]
        for g in self.gens:
            parts.append(np.array([g.capacity, g.items],
                                  dtype=np.int64).tobytes())
            parts.append(g.bits.tobytes())
        return b"".join(parts)

    @classmethod
    def deserialize(cls, payload: bytes) -> "BloomFilter":
        f = cls.__new__(cls)
        head = int(np.frombuffer(payload[:8], dtype=np.int64)[0])
        if head != -2:  # v1 began with the capacity: [capacity, k, nbits, num_items]
            raise ValueError(f"BloomFilter payload is not version 2 (first word {head}, "
                             "not -2): version 1 payloads are no longer read")
        hdr = np.frombuffer(payload[:40], dtype=np.int64)
        _, n_gens, f.k, f.bits_per_key, f.num_items = (int(x) for x in hdr)
        off = 40
        f.gens = []
        for _ in range(n_gens):
            cap, items = (int(x) for x in
                          np.frombuffer(payload[off:off + 16], dtype=np.int64))
            off += 16
            g = _BGen(cap, f.bits_per_key, items=items)
            size = len(g.bits) * 8
            g.bits = np.frombuffer(payload[off:off + size], dtype=np.uint64).copy()
            off += size
            f.gens.append(g)
        f.capacity = f.gens[0].capacity
        return f

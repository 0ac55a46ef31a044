"""Per-partition checkpoint / resume (SURVEY.md M5; north-rule lineage).

The reference can only resume filename numbering (`file_idx_offset="auto"`
rescans the output dir, /root/reference/icrawler/downloader.py:53-58) and
skip already-written files (downloader.py:109-116); frontier and seen-set
die with the process. This engine checkpoints at every round boundary —
the natural lineage unit of the frontier loop:

    <dir>/round=<r>/frontier/*.parquet           (hash-partitioned frontier)
    <dir>/round=<r>/seen_pages/shard=<i>.full.npz  (a full snapshot round)
    <dir>/round=<r>/seen_pages/shard=<i>.delta.npy (a delta round)
    <dir>/round=<r>/seen_files/shard=<i>.*
    <dir>/round=<r>/docs/part-<seq>.parquet      (round outputs; the parse tasks
    <dir>/round=<r>/results/*.parquet             write the docs, one per batch)
    <dir>/MANIFEST.json                          (atomic: tmp + rename)

Each seen shard writes and reads its own files (state/seen.py); this
module only names them. MANIFEST carries counters, per-round metrics and
lineage edges (round -> parent round, frontier dir, and the seen record:
kind, shard count, per-shard capacity and the files each shard wrote), so
a resumed run (a) restores frontier + seen shards from the last complete
round and (b) skips finished partitions — resume-equals-fresh is a tested
property. All paths in the manifest are relative to ``<dir>``.
"""

from __future__ import annotations

import json
import os
import os.path as osp
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

#: the seen sets a crawl checkpoints; each has a ``seen_<kind>`` dir per round
SEEN_KINDS = ("pages", "files")


class CheckpointManager:
    def __init__(self, root: str):
        # absolute: seen shards resolve the paths in their own processes
        self.root = osp.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    def manifest_path(self) -> str:
        return osp.join(self.root, "MANIFEST.json")

    def load_manifest(self) -> dict | None:
        if not osp.isfile(self.manifest_path()):
            return None
        with open(self.manifest_path()) as f:
            return json.load(f)

    def round_dir(self, r: int) -> str:
        return osp.join(self.root, f"round={r}")

    def save_round(self, r: int, frontier, seen_pages, seen_files,
                   counters: dict, metrics: dict, full: bool) -> None:
        """``frontier``: pa.Table (driver-resident), ray.data.Dataset
        (object-store resident — written distributed, never collected), or
        None. The frontier dir is replaced, not appended, so a crash
        between write and manifest publish cannot leave duplicated
        partials.

        ``seen_pages``/``seen_files``: the ShardedSeenSets. Each shard
        writes a full snapshot (``full``; O(capacity) bytes) or the delta
        of keys inserted since its last save (O(novel) bytes) into this
        round's dir; only the file records come back. Their byte total is
        recorded as ``metrics["seen_ckpt_bytes"]``."""
        rd = self.round_dir(r)
        fdir = osp.join(rd, "frontier")
        if osp.isdir(fdir):
            shutil.rmtree(fdir)
        os.makedirs(fdir)
        if isinstance(frontier, pa.Table):
            pq.write_table(frontier, osp.join(fdir, "part-0.parquet"))
        elif frontier is not None:
            frontier.write_parquet(fdir)
        seen = {"kind": "full" if full else "delta",
                "num_shards": seen_pages.num_shards, "capacity": seen_pages.capacity}
        for kind, s in zip(SEEN_KINDS, (seen_pages, seen_files)):
            seen[kind] = [dict(f, path=osp.relpath(f["path"], self.root))
                          for f in s.save(osp.join(rd, f"seen_{kind}"), full)]
        metrics["seen_ckpt_bytes"] = sum(f["bytes"] for k in SEEN_KINDS for f in seen[k])
        manifest = self.load_manifest() or {"rounds": [], "lineage": []}
        manifest["last_round"] = r
        manifest["counters"] = counters
        manifest["rounds"] = [x for x in manifest["rounds"] if x["round"] != r] + [
            {"round": r, "metrics": metrics}
        ]
        manifest["lineage"] = [x for x in manifest["lineage"] if x["round"] != r] + [
            {"round": r, "parent": r - 1, "frontier": f"round={r}/frontier", "seen": seen}
        ]
        tmp = self.manifest_path() + ".tmp"
        with open(tmp, "w") as f:
            json.dump(manifest, f, indent=1)
        os.replace(tmp, self.manifest_path())  # atomic publish
        self.prune(r, self.seen_chain(manifest, r)[0]["round"])

    @staticmethod
    def seen_chain(manifest: dict, r: int) -> list[dict]:
        """Lineage records a resume from round ``r`` reads: the latest full
        seen snapshot at or before ``r``, then each delta round up to
        ``r``. Raises ValueError when a round has no per-shard seen record
        (a dir written before seen shards wrote their own files)."""
        by_round = {x["round"]: x for x in manifest["lineage"]}
        chain = []
        for x in range(r, -1, -1):
            rec = by_round.get(x, {})
            if not isinstance(rec.get("seen"), dict):
                raise ValueError(
                    f"MANIFEST.json has no per-shard seen record for round {x} "
                    f"(lineage[round={x}].seen): the checkpoint dir was written before "
                    f"seen shards saved their own files; start a new checkpoint_dir")
            chain.append(rec)
            if rec["seen"]["kind"] == "full":
                return chain[::-1]
        raise ValueError(f"MANIFEST.json has no full seen snapshot at or before round {r}")

    def prune(self, r: int, last_full: int) -> None:
        """Drop bulky state a resume can no longer need: resume loads
        round ``r``'s frontier plus the seen chain (the full snapshot of
        round ``last_full`` .. r deltas).  Older frontier snapshots — the
        dominant cost at the 10^10-URL design point — and seen files of
        rounds before ``last_full`` are deleted; the manifest keeps the
        full lineage/metrics history (cheap JSON).  Runs after each atomic
        manifest publish, so a crash mid-prune only leaves extra (never
        missing) state."""
        for x in [int(n[6:]) for n in os.listdir(self.root)
                  if n.startswith("round=") and n[6:].isdigit()]:
            if x >= r:
                continue
            rd = self.round_dir(x)
            # only CHECKPOINT artifacts are pruned — the round's
            # docs/results output partitions share this directory and are
            # final data (skip-finished resume reads them)
            shutil.rmtree(osp.join(rd, "frontier"), ignore_errors=True)
            if x < last_full:  # seen chain starts at the latest full
                for kind in SEEN_KINDS:
                    shutil.rmtree(osp.join(rd, f"seen_{kind}"), ignore_errors=True)

    def load_round(self, r: int):
        """-> (frontier table or None, pages chains, files chains,
        capacity): a chains list has one entry per shard, that shard's file
        paths from its latest full snapshot through round ``r``'s delta;
        ``capacity`` is the per-shard capacity that snapshot's filters were
        built with."""
        chain = self.seen_chain(self.load_manifest(), r)
        fdir = osp.join(self.round_dir(r), "frontier")
        parts = sorted(os.listdir(fdir)) if osp.isdir(fdir) else []
        frontier = (
            pa.concat_tables([pq.read_table(osp.join(fdir, p)) for p in parts]) if parts else None
        )

        def shard_chains(kind: str) -> list[list[str]]:
            n = len(chain[0]["seen"][kind])
            return [[osp.join(self.root, rec["seen"][kind][i]["path"]) for rec in chain]
                    for i in range(n)]

        return (frontier, shard_chains("pages"), shard_chains("files"),
                chain[0]["seen"]["capacity"])


def parquet_rows(d: str) -> int:
    """Rows of the parquet files in dir ``d``, from their footers."""
    return sum(pq.ParquetFile(osp.join(d, p)).metadata.num_rows
               for p in os.listdir(d) if p.endswith(".parquet"))


class RoundOutputs:
    """A crawl's per-round output partitions (``docs``, ``results``).

    Round outputs NEVER accumulate on the driver: each round's rows are
    either written as a parquet partition dir (``out_dir/round=<r>/<kind>``
    or the checkpoint's round dir) or kept as Arrow block refs in the
    object store. :meth:`assemble` turns them into lazy Datasets; only row
    COUNTS cross the driver, so resident-set stays flat with crawl size
    (VERDICT r1 #3).

    A partition dir is written either by a Ray Data write (:meth:`persist`)
    or by the tasks that make the rows: the greedy crawl's parse tasks
    write the round's docs into the dir :meth:`prepare` returns, one file
    per batch, and report their row counts; the driver then records the
    dir with :meth:`adopt`, with no execution of its own."""

    KINDS = ("docs", "results")

    def __init__(self, out_dir: str | None, ckpt: CheckpointManager | None):
        self.out_dir, self.ckpt = out_dir, ckpt
        self.parts: dict[str, list] = {k: [] for k in self.KINDS}

    def round_dir(self, r: int, kind: str) -> str | None:
        if self.out_dir:
            return osp.join(self.out_dir, f"round={r}", kind)
        if self.ckpt:
            return osp.join(self.ckpt.round_dir(r), kind)
        return None

    def adopt_finished(self, n_rounds: int) -> None:
        """Resume: outputs of rounds before ``n_rounds`` are final
        (skip-finished resume); record their partition dirs — never read
        the data back."""
        self.parts = {k: [] for k in self.KINDS}
        for r in range(n_rounds):
            for kind, parts in self.parts.items():
                d = self.round_dir(r, kind)
                if d and osp.isdir(d) and os.listdir(d):
                    parts.append(d)

    def prepare(self, r: int, kind: str) -> str | None:
        """An empty partition dir for round ``r``'s ``kind`` rows, or None
        without a base dir. The dir is REPLACED, not appended — a round
        re-executed after a mid-round crash overwrites its stale partials
        instead of duplicating rows (ADVICE r1 #2)."""
        d = self.round_dir(r, kind)
        if d is not None:
            if osp.isdir(d):
                shutil.rmtree(d)
            os.makedirs(d)
        return d

    def adopt(self, r: int, kind: str, n: int) -> int:
        """Record round ``r``'s prepared ``kind`` dir, into which tasks
        wrote ``n`` rows -> n."""
        if n:
            self.parts[kind].append(self.round_dir(r, kind))
        return n

    def persist(self, ds, r: int, kind: str) -> int:
        """Store one round's output without driver materialization.

        With a base dir: distributed parquet write into the prepared round
        partition dir. Without: the materialized blocks stay in the object
        store as refs. Returns the row count (parquet footers / block
        metadata only)."""
        d = self.prepare(r, kind)
        if d is not None:
            ds.write_parquet(d)
            return self.adopt(r, kind, parquet_rows(d))
        md = ds.materialize()
        n = md.count()
        if n:
            self.parts[kind].extend(md.to_arrow_refs())
        return n

    def assemble(self, kind: str):
        """Lazy Dataset over the accumulated round outputs (or None)."""
        import ray.data

        parts = self.parts[kind]
        if not parts:
            return None
        if self.out_dir or self.ckpt:
            # read_parquet takes a list of FILES (a multi-path list of dirs
            # is rejected by pyarrow): expand each partition dir.
            files = [osp.join(d, p) for d in parts
                     for p in sorted(os.listdir(d)) if p.endswith(".parquet")]
            return ray.data.read_parquet(files)
        return ray.data.from_arrow_refs(parts)

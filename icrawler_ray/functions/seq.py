"""Deterministic global sequence assignment (SURVEY.md D2).

The reference assigns 6-digit filenames from a lock-serialized counter
(/root/reference/icrawler/downloader.py:60-77,110-139) whose order is an
artifact of thread interleaving. This engine *defines* the order (sort by
explicit keys) and assigns the global index distributedly:

    sort(keys) -> per-block row counts (metadata only on the driver)
    -> prefix sum -> per-block offset added by parallel Ray tasks.

No row ever moves to the driver; the driver sees only block counts. This is
the split-sizes prefix-sum pattern and scales to any number of blocks.
"""

from __future__ import annotations

import pyarrow as pa
import ray
import ray.data


@ray.remote
def _add_seq_block(block: pa.Table, col: str, offset: int) -> pa.Table:
    n = block.num_rows
    return block.append_column(col, pa.array(range(offset, offset + n), type=pa.int64()))


def assign_global_seq(ds: ray.data.Dataset, sort_keys: list[str], col: str = "seq",
                      start: int = 0, descending=False) -> ray.data.Dataset:
    """Sort ``ds`` by ``sort_keys`` and append a dense global index column.

    The sort is the only shuffle; index assignment is a metadata prefix-sum
    plus an embarrassingly parallel per-block append.
    """
    if sort_keys:
        ds = ds.sort(sort_keys, descending=descending)
    refs = ds.to_arrow_refs()  # zero-copy object-store refs, in sorted block order
    counts = ray.get([_block_count.remote(r) for r in refs])
    out_refs = []
    offset = start
    for r, n in zip(refs, counts):
        if n == 0:
            continue  # sort can emit zero-row (even schema-less) blocks
        out_refs.append(_add_seq_block.remote(r, col, offset))
        offset += n
    if not out_refs:
        return ds  # zero-block dataset: nothing to index
    # from_arrow_refs keeps the indexed blocks in the object store; ray.get
    # here would materialize every sorted block (incl. binary content in the
    # dataset-mode crawl) in driver memory.
    return ray.data.from_arrow_refs(out_refs)


@ray.remote
def _block_count(block: pa.Table) -> int:
    return block.num_rows


@ray.remote
def _block_sum(block: pa.Table, col: str) -> int:
    import pyarrow.compute as pc

    return int(pc.sum(block[col]).as_py() or 0)


@ray.remote
def _add_cumsum_block(block: pa.Table, weight_col: str, col: str, offset: int) -> pa.Table:
    import numpy as np

    w = block[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)
    starts = offset + np.concatenate([[0], np.cumsum(w)[:-1]]) if len(w) else np.empty(0, np.int64)
    return block.append_column(col, pa.array(starts.astype("int64"), type=pa.int64()))


def assign_global_cumsum(ds: ray.data.Dataset, sort_keys: list[str], weight_col: str,
                         col: str = "cum_before", start: int = 0,
                         descending=False) -> ray.data.Dataset:
    """Sort ``ds`` and append the EXCLUSIVE global running total of
    ``weight_col`` (each row sees the sum of all earlier rows' weights).

    Same split-sizes pattern as :func:`assign_global_seq` with per-block
    SUMS instead of counts: the sort is the only shuffle; the driver sees
    one integer per block; the per-block cumulative+offset append is
    embarrassingly parallel.  This is the sequence-packing primitive
    (token offsets over a corpus) and generalizes byte/row offset
    assignment for manifest building."""
    if sort_keys:
        ds = ds.sort(sort_keys, descending=descending)
    refs = ds.to_arrow_refs()
    counts = ray.get([_block_count.remote(r) for r in refs])
    refs = [r for r, n in zip(refs, counts) if n > 0]  # drop empty/schema-less
    sums = ray.get([_block_sum.remote(r, weight_col) for r in refs])
    out_refs = []
    offset = start
    for r, s in zip(refs, sums):
        out_refs.append(_add_cumsum_block.remote(r, weight_col, col, offset))
        offset += s
    if not out_refs:
        return ds
    return ray.data.from_arrow_refs(out_refs)


@ray.remote
def _block_count_and_sum(block: pa.Table, col: str) -> tuple[int, int]:
    import pyarrow.compute as pc

    if block.num_rows == 0 or col not in block.column_names:
        return 0, 0  # sort can emit zero-row, even schema-less, blocks
    return block.num_rows, int(pc.sum(block[col]).as_py() or 0)


@ray.remote
def _add_seq_cumsum_block(block: pa.Table, weight_col: str, cum_col: str,
                          seq_col: str, cum_offset: int, seq_offset: int) -> pa.Table:
    import numpy as np

    w = block[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)
    starts = (cum_offset + np.concatenate([[0], np.cumsum(w)[:-1]])
              if len(w) else np.empty(0, np.int64))
    block = block.append_column(cum_col, pa.array(starts.astype("int64"), type=pa.int64()))
    n = block.num_rows
    return block.append_column(seq_col, pa.array(range(seq_offset, seq_offset + n),
                                                 type=pa.int64()))


def assign_global_seq_and_cumsum(ds: ray.data.Dataset, sort_keys: list[str],
                                 weight_col: str, cum_col: str = "cum_before",
                                 seq_col: str = "seq", start: int = 0,
                                 descending=False) -> ray.data.Dataset:
    """ONE sort + ONE metadata stitch appending BOTH the dense global
    index and the exclusive running total of ``weight_col``.

    Fuses :func:`assign_global_seq` ∘ :func:`assign_global_cumsum`: both
    are prefix sums over the same sort order, so chaining them costs an
    extra per-block task wave and an extra driver round-trip for no new
    information. The driver sees one ``(count, sum)`` pair per block; the
    append is a single embarrassingly parallel pass."""
    if sort_keys:
        ds = ds.sort(sort_keys, descending=descending)
    refs = ds.to_arrow_refs()
    stats = ray.get([_block_count_and_sum.remote(r, weight_col) for r in refs])
    out_refs = []
    cum_offset, seq_offset = start, start
    for r, (n, s) in zip(refs, stats):
        if n == 0:
            continue  # sort can emit zero-row (even schema-less) blocks
        out_refs.append(_add_seq_cumsum_block.remote(
            r, weight_col, cum_col, seq_col, cum_offset, seq_offset))
        cum_offset += s
        seq_offset += n
    if not out_refs:
        return ds
    return ray.data.from_arrow_refs(out_refs)


@ray.remote
def _block_max(block: pa.Table, col: str) -> int:
    import pyarrow.compute as pc

    if block.num_rows == 0:
        return None
    v = pc.max(block[col]).as_py()
    return None if v is None else int(v)


@ray.remote
def _add_runmax_block(block: pa.Table, val_col: str, col: str, prior: int) -> pa.Table:
    """Append the EXCLUSIVE running max (max over all earlier rows,
    ``prior`` seeding the block): per-block `np.maximum.accumulate`
    shifted by one, in parallel across blocks."""
    import numpy as np

    v = block[val_col].to_numpy(zero_copy_only=False).astype(np.int64)
    if len(v):
        run = np.maximum.accumulate(v)
        before = np.concatenate([[prior], np.maximum(run[:-1], prior)])
    else:
        before = np.empty(0, np.int64)
    return block.append_column(col, pa.array(before.astype("int64"), type=pa.int64()))


#: exclusive-running-max seed for the globally first row ("no prior row")
RUNMAX_SENTINEL = -(2**62)


def assign_global_running_max(ds: ray.data.Dataset, sort_keys: list[str], val_col: str,
                              col: str = "run_max_before") -> ray.data.Dataset:
    """Sort ``ds`` and append the EXCLUSIVE global running maximum of
    ``val_col`` (each row sees the max over all earlier rows; the first
    row sees :data:`RUNMAX_SENTINEL`).

    Same split-sizes pattern as :func:`assign_global_seq`: the sort is
    the only shuffle, the driver sees ONE integer per block (the block
    max), the prefix-max over those block maxes is driver arithmetic on
    metadata, and the per-block accumulate+append is embarrassingly
    parallel with blocks staying in the object store.  This is the
    watermark primitive for late-data audits (streaming-ingest QA)."""
    if sort_keys:
        ds = ds.sort(sort_keys)
    refs = ds.to_arrow_refs()
    counts = ray.get([_block_count.remote(r) for r in refs])
    refs = [r for r, n in zip(refs, counts) if n > 0]  # drop empty/schema-less
    maxes = ray.get([_block_max.remote(r, val_col) for r in refs])
    out_refs = []
    prior = RUNMAX_SENTINEL
    for r, m in zip(refs, maxes):
        out_refs.append(_add_runmax_block.remote(r, val_col, col, prior))
        if m is not None:
            prior = max(prior, m)
    if not out_refs:
        return ds
    return ray.data.from_arrow_refs(out_refs)


def cluster_cpus() -> int:
    """CPU count of the running Ray cluster, the basis of every block split.
    Raises if Ray is not initialised: a guessed count would silently
    mis-size the parallelism of each stage."""
    return int(ray.cluster_resources()["CPU"])


def from_table_blocks(table: pa.Table, min_rows_per_block: int = 256,
                      tasks_per_cpu: float = 1.0) -> ray.data.Dataset:
    """Dataset from an in-memory Arrow table, SPLIT into row-range blocks.

    ``ray.data.from_arrow(table)`` yields ONE block, which makes every
    downstream map_batches a single task — no parallelism. This splits
    adaptively: enough blocks to keep every CPU busy (~tasks_per_cpu tasks
    per core), but never blocks smaller than ``min_rows_per_block`` rows —
    tiny tasks cost more to schedule than they compute.
    """
    n = table.num_rows
    if n == 0:
        return ray.data.from_arrow(table)
    target = max(1, int(cluster_cpus() * tasks_per_cpu))
    nblocks = min(max(1, n // min_rows_per_block), target)
    step = (n + nblocks - 1) // nblocks
    slices = [table.slice(i, step) for i in range(0, n, step)]
    return ray.data.from_arrow(slices)


def from_pandas_blocks(df, min_rows_per_block: int = 256,
                       tasks_per_cpu: float = 1.0) -> ray.data.Dataset:
    # strip the b'pandas' metadata blob: it makes pa.Schema unhashable,
    # defeating Ray's schema-dedup fast path
    return from_table_blocks(
        pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None),
        min_rows_per_block, tasks_per_cpu)

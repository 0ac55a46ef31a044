"""Distributed window-function primitives.

The reference engine has no relational window surface; these exist for
the training-data suite (rank-normalizing quality scores per slice
before thresholding / curriculum bucketing). Two interchangeable
implementations of PERCENT_RANK() OVER (PARTITION BY part ORDER BY val):

- ``mode="histogram"`` — one combiner pass emits (part, value, count)
  partials, the driver builds the per-partition min-rank CDF and
  broadcasts it, a second pass attaches the percentile. Exchange size
  is VALUE-CARDINALITY-bounded: right for integer/discretized scores.
- ``mode="sort"`` — the general path for continuous scores where the
  distinct-value table would be corpus-sized: ONE global sort by
  (part, val), then every block computes its rows' tie-group min
  indices locally; runs that straddle block boundaries are stitched
  with a DRIVER-side walk over per-block metadata only (first/last
  key + trailing-run start per block — the split-sizes pattern of
  functions/seq.py; no row ever moves to the driver). One shuffle
  total, no join.

Both modes return identical values (parity-pinned in
tests/test_joins.py): pr = (#rows in partition strictly below val) /
(partition size - 1), 0.0 for single-row partitions — DuckDB
PERCENT_RANK semantics.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data


def percent_rank_over(
    ds: ray.data.Dataset,
    part_col: str,
    val_col: str,
    out_col: str = "pr",
    mode: str = "histogram",
    round_to: int | None = 6,
) -> ray.data.Dataset:
    """Append ``out_col`` = PERCENT_RANK() OVER (PARTITION BY part_col
    ORDER BY val_col) to every row. See module docstring for the two
    modes' scale envelopes."""
    if mode == "histogram":
        return _pr_histogram(ds, part_col, val_col, out_col, round_to)
    if mode == "sort":
        return _pr_sort(ds, part_col, val_col, out_col, round_to)
    raise ValueError(f"unknown percent_rank mode: {mode!r}")


def _round(arr: np.ndarray, round_to: int | None) -> np.ndarray:
    return np.round(arr, round_to) if round_to is not None else arr


def _empty_with_pr(ds, out_col):
    """Schema-correct empty result: the input columns plus out_col —
    empty Ray blocks can arrive columnless, so build from ds.schema()."""
    # only reached when ds has ZERO rows; Ray drops the columns from an
    # empty to_pandas(), but schema() still carries names (+ numpy or
    # arrow types depending on the block format)
    sch = ds.schema(fetch_if_missing=True)
    cols = {}
    if sch is not None and getattr(sch, "names", None):
        for n, t in zip(sch.names, sch.types):
            if not isinstance(t, pa.DataType):
                try:
                    t = pa.from_numpy_dtype(np.dtype(t))
                except (TypeError, pa.ArrowNotImplementedError):
                    t = pa.string()  # pandas object column
            cols[n] = pa.array([], type=t)
    tbl = pa.table(cols) if cols else pa.table({})
    return ray.data.from_arrow(
        tbl.append_column(out_col, pa.array([], type=pa.float64())))


def _pr_histogram(ds, part_col, val_col, out_col, round_to):
    def hist(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):  # columnless empty block
            return pd.DataFrame({part_col: [], val_col: [], "n": []})
        g = df.groupby([part_col, val_col], sort=False).size()
        gi = g.index.to_frame(index=False)
        return pd.DataFrame({part_col: gi[part_col], val_col: gi[val_col],
                             "n": g.to_numpy()})

    h = ds.map_batches(hist, batch_format="pandas").to_pandas()
    if not len(h):
        return _empty_with_pr(ds, out_col)
    h = h.groupby([part_col, val_col], as_index=False)["n"].sum() \
        .sort_values([part_col, val_col], kind="mergesort").reset_index(drop=True)
    h["below"] = h.groupby(part_col)["n"].cumsum() - h["n"]
    tot = h.groupby(part_col)["n"].sum().rename("tot")
    h = h.merge(tot, left_on=part_col, right_index=True)
    below = h["below"].to_numpy().astype(np.float64)
    tot = h["tot"].to_numpy().astype(np.float64)
    pr = np.divide(below, tot - 1.0, out=np.zeros_like(below), where=tot > 1)
    h[out_col] = _round(pr, round_to)
    lut_ref = ray.put(h[[part_col, val_col, out_col]])

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        lut = ray.get(lut_ref)
        return df.merge(lut, on=[part_col, val_col], how="left")

    return ds.map_batches(attach, batch_format="pandas")


@ray.remote
def _block_meta(block: pa.Table, part_col: str, val_col: str):
    """(n, first_key, last_key, local index where the trailing run
    starts, per-part row counts) — metadata only, O(block) compute."""
    n = block.num_rows
    if n == 0:
        return (0, None, None, 0, {})
    p = block[part_col].to_numpy(zero_copy_only=False)
    v = block[val_col].to_numpy(zero_copy_only=False)
    first_key = (p[0], v[0])
    last_key = (p[-1], v[-1])
    same_last = (p == p[-1]) & (v == v[-1])
    # the trailing run starts after the last row that differs
    diff_idx = np.flatnonzero(~same_last)
    trail_start = int(diff_idx[-1]) + 1 if len(diff_idx) else 0
    parts, counts = np.unique(p, return_counts=True)
    return (n, first_key, last_key, trail_start,
            dict(zip(parts.tolist(), counts.tolist())))


@ray.remote
def _block_rank(block: pa.Table, part_col: str, val_col: str, out_col: str,
                offset: int, leading_start: int, ext_ref, round_to):
    """Per-row percentile from locally-computed tie-group min indices;
    the leading run (possibly begun in an earlier block) uses the
    driver-stitched ``leading_start``."""
    lo_map, n_map = ray.get(ext_ref) if isinstance(ext_ref, ray.ObjectRef) else ext_ref
    n = block.num_rows
    if n == 0:
        return block.append_column(out_col, pa.array([], type=pa.float64()))
    p = block[part_col].to_numpy(zero_copy_only=False)
    v = block[val_col].to_numpy(zero_copy_only=False)
    change = np.r_[True, (p[1:] != p[:-1]) | (v[1:] != v[:-1])]
    starts_local = np.flatnonzero(change)           # run start indices
    run_id = np.cumsum(change) - 1
    first_global = offset + starts_local[run_id]
    first_global[run_id == 0] = leading_start       # stitched boundary run
    # one dict lookup per partition in the block, spread to the rows
    parts, inv = np.unique(p, return_inverse=True)
    lo = np.asarray([lo_map[x] for x in parts.tolist()], dtype=np.float64)[inv]
    cnt = np.asarray([n_map[x] for x in parts.tolist()], dtype=np.float64)[inv]
    # single-row partitions rank 0; the safe denominator keeps them from
    # dividing by zero
    pr = np.where(cnt > 1, (first_global - lo) / np.maximum(cnt - 1.0, 1.0), 0.0)
    return block.append_column(out_col, pa.array(_round(pr, round_to)))


def _pr_sort(ds, part_col, val_col, out_col, round_to):
    orig = ds  # an empty Ray sort strips block schemas; keep the input
    ds = ds.sort([part_col, val_col])
    refs = ds.to_arrow_refs()
    metas = ray.get([_block_meta.remote(r, part_col, val_col) for r in refs]) \
        if refs else []
    if not any(n for (n, *_rest) in metas):
        # zero rows: the histogram path (over the UNsorted input, whose
        # schema survives) returns the correctly-schema'd empty dataset
        return _pr_histogram(orig, part_col, val_col, out_col, round_to)

    # driver walk over BLOCK METADATA only: global offsets, the carry of
    # the run open at each block boundary, and per-part (lo, n) extents
    # (parts arrive in sorted order, so lo is a running total)
    part_n: dict = {}
    for (_, _, _, _, pc) in metas:
        for k, c in pc.items():
            part_n[k] = part_n.get(k, 0) + c
    lo_map, acc = {}, 0
    for k in sorted(part_n):
        lo_map[k] = acc
        acc += part_n[k]
    ext_ref = ray.put((lo_map, part_n))

    out_refs = []
    offset = 0
    carry_key, carry_start = None, 0
    for r, (n, first_key, last_key, trail_start, _) in zip(refs, metas):
        if n == 0:
            # empty sort blocks can come back schema-less; ranking them
            # would emit a pr-only block and mix schemas in the output
            continue
        leading = carry_start if first_key == carry_key else offset
        out_refs.append(_block_rank.remote(
            r, part_col, val_col, out_col, offset, leading, ext_ref, round_to))
        # run open at the end of this block: starts at trail_start unless
        # the whole block is one run continuing the previous carry
        if trail_start == 0 and first_key == last_key and first_key == carry_key:
            pass  # carry_start unchanged — the run began before this block
        else:
            carry_start = offset + trail_start
        carry_key = last_key
        offset += n
    return ray.data.from_arrow_refs(out_refs)

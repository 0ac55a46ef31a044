"""Multimodal (image/audio/video) column operators — Ray-side plumbing.

Media rides as opaque ``binary`` columns with typed metadata, exactly the
results-table layout the crawl writes (stages/download.py). The decode /
resize / frame-sample kernels themselves need codec libraries that are NOT
in this container (no PIL/ffmpeg) — per the build contract they are
STUBBED: ``DecodeImage`` uses the deterministic fake codec
(synthweb/fakeimg.py, which transparently upgrades to PIL when available),
and ``require_real_codec`` raises NotImplementedError for the paths that
cannot be faked. The Ray-side plumbing — schema, batch sizing, actor-pool
signature, output layout — is real and tested.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from icrawler_ray.synthweb import fakeimg


def require_real_codec(name: str):
    raise NotImplementedError(
        f"{name} needs a real codec library (PIL/ffmpeg), not present in this "
        "environment; the deterministic fake codec covers the tested paths"
    )


class DecodeImage:
    """Actor-pool stage: binary content -> (img_w, img_h, decode_ok).

    Use with small batch sizes (binary-heavy rows):
    ``ds.map_batches(DecodeImage, batch_size=64, concurrency=N)``.
    """

    def __init__(self, content_col: str = "content"):
        self.content_col = content_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        contents = batch[self.content_col].to_pylist()
        w = np.full(len(contents), -1, dtype=np.int32)
        h = np.full(len(contents), -1, dtype=np.int32)
        ok = np.zeros(len(contents), dtype=bool)
        for i, c in enumerate(contents):
            if c is None:
                continue
            size = fakeimg.decode_size(c)
            if size is not None:
                w[i], h[i] = size
                ok[i] = True
        out = batch.drop_columns([c for c in ("img_w", "img_h", "decode_ok")
                                  if c in batch.column_names])
        out = out.append_column("img_w", pa.array(w))
        out = out.append_column("img_h", pa.array(h))
        return out.append_column("decode_ok", pa.array(ok))


class ResizeStub:
    """Actor-pool stage: metadata-level resize (aspect-preserving fit into
    ``max_side``) — real pixel resampling is codec work (stubbed), but the
    schema contract (content preserved, target_w/target_h emitted) is the
    real pipeline's."""

    def __init__(self, max_side: int = 256):
        self.max_side = max_side

    def __call__(self, batch: pa.Table) -> pa.Table:
        w = batch["img_w"].to_numpy(zero_copy_only=False).astype(np.float64)
        h = batch["img_h"].to_numpy(zero_copy_only=False).astype(np.float64)
        scale = np.minimum(1.0, self.max_side / np.maximum(1.0, np.maximum(w, h)))
        tw = np.maximum(1, np.round(w * scale)).astype(np.int32)
        th = np.maximum(1, np.round(h * scale)).astype(np.int32)
        bad = (w < 0) | (h < 0)
        tw[bad] = -1
        th[bad] = -1
        out = batch.append_column("target_w", pa.array(tw))
        return out.append_column("target_h", pa.array(th))


class FrameSample:
    """Actor-pool stage: video binary column -> one row per sampled frame
    (doc_id passthrough, frame_idx, pts_ms).

    Uniform k-point sampling over the container's frame count: all frames
    when n_frames <= k, else idx_i = i*(n_frames-1) // (k-1) for
    i in 0..k-1 (integer arithmetic — SQL-exact); pts_ms = idx*1000 // fps.
    Extracting frame PIXELS is the codec-gated step
    (``require_real_codec``); index/timestamp planning and the expanded
    output layout are the real pipeline's.
    """

    def __init__(self, k: int = 4, content_col: str = "content",
                 id_col: str = "doc_id"):
        self.k = k
        self.content_col = content_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from icrawler_ray.synthweb.fakemedia import decode_video

        ids = batch[self.id_col].to_pylist()
        out_id, out_idx, out_pts = [], [], []
        for i, blob in enumerate(batch[self.content_col].to_pylist()):
            meta = decode_video(blob)
            if meta is None:
                continue
            n, fps = meta
            if n <= self.k:
                idxs = range(n)
            else:
                idxs = sorted({j * (n - 1) // (self.k - 1) for j in range(self.k)})
            for idx in idxs:
                out_id.append(ids[i])
                out_idx.append(idx)
                out_pts.append(idx * 1000 // max(1, fps))
        return pa.table(
            {
                self.id_col: pa.array(out_id, type=batch.schema.field(self.id_col).type),
                "frame_idx": pa.array(np.asarray(out_idx, dtype=np.int64)),
                "pts_ms": pa.array(np.asarray(out_pts, dtype=np.int64)),
            }
        )


class AudioFeatures:
    """Actor-pool stage: audio binary column -> per-doc window features
    computed from the REAL payload bytes (8-bit fake PCM): window count,
    total energy (sum of samples) and peak sample — integer outputs so the
    DuckDB oracle can reproduce them exactly."""

    def __init__(self, window: int = 100, content_col: str = "content",
                 id_col: str = "doc_id"):
        self.window = window
        self.content_col = content_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from icrawler_ray.synthweb.fakemedia import decode_audio

        ids = batch[self.id_col]
        n_rows = batch.num_rows
        sr = np.full(n_rows, -1, dtype=np.int64)
        n_win = np.full(n_rows, -1, dtype=np.int64)
        energy = np.full(n_rows, -1, dtype=np.int64)
        peak = np.full(n_rows, -1, dtype=np.int64)
        for i, blob in enumerate(batch[self.content_col].to_pylist()):
            meta = decode_audio(blob)
            if meta is None:
                continue
            rate, payload = meta
            pcm = np.frombuffer(payload, dtype=np.uint8).astype(np.int64)
            w = (len(pcm) // self.window) * self.window
            sr[i] = rate
            n_win[i] = len(pcm) // self.window
            energy[i] = int(pcm[:w].sum()) if w else 0
            peak[i] = int(pcm[:w].max()) if w else 0
        return pa.table(
            {
                self.id_col: ids,
                "sample_rate": pa.array(sr),
                "n_windows": pa.array(n_win),
                "energy": pa.array(energy),
                "peak": pa.array(peak),
            }
        )

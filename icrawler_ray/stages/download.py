"""Download (file-fetch) actor-pool stage (SURVEY.md D1-D9).

Reimplements Downloader/ImageDownloader semantics
(/root/reference/icrawler/downloader.py:95-277) Ray-Data-first:

- Fetcher: callable class for ``map_batches`` — session in ``__init__``,
  per-batch fetch + decode + size-gate. Emits status/img_w/img_h/content
  columns; ``success`` = fetched 2xx AND kept. NB the reference's 2xx gate
  at downloader.py:132 is inverted (logs "error" and breaks on success
  codes); this engine implements the *intended* semantics — keep 2xx —
  and records the deviation here and in tests.
- size gates: _size_gt/_size_lt compare BOTH dims via max/min
  (downloader.py:236-240), boundary-inclusive.
- filename assignment: the reference's lock-serialized 6-digit counter
  (downloader.py:60-77) becomes a pure function of a deterministic global
  sequence (functions/seq.py): ``{seq + offset:06d}.{ext}`` with the
  image-extension whitelist of ImageDownloader.get_filename
  (downloader.py:265-274).
"""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pyarrow as pa

from icrawler_ray.defaults import DEFAULT_EXT, IMAGE_EXT_WHITELIST
from icrawler_ray.functions.seq import assign_global_seq
from icrawler_ray.functions.urlnorm import path_ext
from icrawler_ray.stages.politeness import InflightGuard, walk_host_runs
from icrawler_ray.state.seen import packed_order, send_report
from icrawler_ray.synthweb import fakeimg
from icrawler_ray.synthweb.fetchstub import make_session, session_spec_key


def size_gt(sz, bound) -> bool:
    """Both-dims >= comparison (downloader.py:239-240)."""
    return max(sz) >= max(bound) and min(sz) >= min(bound)


def size_lt(sz, bound) -> bool:
    """Both-dims <= comparison (downloader.py:236-237)."""
    return max(sz) <= max(bound) and min(sz) <= min(bound)


class RefDownloaderHooks:
    """Worker-side adapter for a reference-style ``Downloader`` subclass
    (the docs/extend.rst §3 surface: override ``get_filename`` /
    ``keep_file`` / ``process_meta``, downloader.py:60,92,157).  Mirrors
    parsers.RefParserRules: the user class is instantiated without the
    reference ThreadPool/queue wiring — only the attributes a hook body
    can touch (logger, fetched_num, file_idx_offset, session) exist.

    The reference invariant ``fetched_num + file_idx_offset == 1-based
    global file index`` is reproduced from the engine's deterministic
    sequence before each ``get_filename`` call."""

    def __init__(self, downloader_cls, downloader_kwargs: dict | None = None,
                 min_size=None, max_size=None):
        import logging

        d = downloader_cls.__new__(downloader_cls)  # skip thread wiring
        d.logger = logging.getLogger(downloader_cls.__name__)
        d.fetched_num = 0
        d.file_idx_offset = 0
        d.session = None
        self._d = d
        self._kw = dict(downloader_kwargs or {})
        if min_size is not None:
            self._kw.setdefault("min_size", tuple(min_size))
        if max_size is not None:
            self._kw.setdefault("max_size", tuple(max_size))

    def keep(self, task: dict, response) -> bool:
        """keep_file(task, response, **kwargs) — downloader.py:92,242."""
        return bool(self._d.keep_file(task, response, **self._kw))

    def filename(self, task: dict, default_ext: str, file_idx: int,
                 offset: int) -> str:
        """get_filename(task, default_ext) — downloader.py:60-77."""
        self._d.file_idx_offset = offset
        self._d.fetched_num = file_idx - offset
        return str(self._d.get_filename(task, default_ext))

    def meta(self, task: dict) -> None:
        """process_meta(task) — downloader.py:157-167 (side effects)."""
        self._d.process_meta(task)


def _task_from_row(file_url: str, meta_json) -> dict:
    task = {"file_url": file_url}
    if meta_json:
        try:
            task.update(json.loads(meta_json))
        except (TypeError, ValueError):
            pass
    return task


class Fetcher:
    """Actor-pool file downloader. One session per actor; batches are
    binary-heavy so callers should use a small ``batch_size``
    (defaults.FETCH_BATCH_SIZE) to bound per-actor heap.

    ``user_downloader=(cls, kwargs)`` runs a reference-style Downloader
    subclass's ``keep_file`` in place of the builtin gates (X3); task-dict
    mutations made by the hook (e.g. ImageDownloader's ``img_size``,
    downloader.py:258) are serialized into a ``task_meta`` column so the
    later get_filename / process_meta hooks see them."""

    def __init__(self, url_map_ref, min_size=None, max_size=None, flaky=None,
                 keep_content: bool = True, user_downloader=None):
        self.session = make_session(url_map_ref, flaky=flaky)
        self.min_size = tuple(min_size) if min_size else None
        self.max_size = tuple(max_size) if max_size else None
        self.keep_content = keep_content
        self.user_hooks = None
        if user_downloader is not None:
            cls, kw = user_downloader
            self.user_hooks = RefDownloaderHooks(
                cls, kw, min_size=min_size, max_size=max_size)
        # exact per-host inflight caps via the crawl's HostInflightLimiter
        # actor (stages/politeness.py); one slot per (task, host run), set
        # per batch by make_fetcher_fn
        self.guard: InflightGuard | None = None

    def keep_file(self, content: bytes):
        """(keep, w, h): decode + size gates (ImageDownloader.keep_file,
        downloader.py:242-263). Undecodable -> reject."""
        size = fakeimg.decode_size(content)
        if size is None:
            return False, -1, -1
        w, h = size
        if self.min_size and not size_gt(size, self.min_size):
            return False, w, h
        if self.max_size and not size_lt(size, self.max_size):
            return False, w, h
        return True, w, h

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["file_url"].to_pylist()
        n = len(urls)
        status = np.full(n, -1, dtype=np.int32)
        success = np.zeros(n, dtype=bool)
        img_w = np.full(n, -1, dtype=np.int32)
        img_h = np.full(n, -1, dtype=np.int32)
        contents: list[bytes | None] = [None] * n
        errors = [""] * n
        tasks = None
        if self.user_hooks is not None:
            metas = (batch["meta_json"].to_pylist()
                     if "meta_json" in batch.column_names else [None] * n)
            tasks = [_task_from_row(urls[i], metas[i]) for i in range(n)]
        walk_host_runs(urls, self.guard, lambda i: self._fetch_one(
            i, urls[i], status, success, img_w, img_h, contents, errors,
            task=tasks[i] if tasks is not None else None))
        out = batch.drop_columns([c for c in ("status", "success", "img_w", "img_h", "content", "error", "task_meta") if c in batch.column_names])
        out = out.append_column("status", pa.array(status))
        out = out.append_column("success", pa.array(success))
        out = out.append_column("img_w", pa.array(img_w))
        out = out.append_column("img_h", pa.array(img_h))
        out = out.append_column("content", pa.array(contents, type=pa.binary()))
        out = out.append_column("error", pa.array(errors, type=pa.string()))
        if tasks is not None:  # propagate keep_file's task-dict mutations
            out = out.append_column("task_meta", pa.array(
                [json.dumps({k: v for k, v in t.items() if k != "file_url"},
                            sort_keys=True, default=str) for t in tasks],
                type=pa.string()))
        return out

    def _fetch_one(self, i, url, status, success, img_w, img_h, contents,
                   errors, task=None):
        try:
            resp = self.session.get(url)
        except Exception as e:
            errors[i] = str(e)
            return
        status[i] = resp.status_code
        if not (200 <= resp.status_code < 300):  # intended (non-inverted) gate
            errors[i] = "http status"
            return
        if self.user_hooks is not None:  # X3: user keep_file replaces gates
            try:
                keep = self.user_hooks.keep(task, resp)
            except Exception as e:
                errors[i] = f"keep_file raised: {e}"
                return
            sz = task.get("img_size")
            if isinstance(sz, (tuple, list)) and len(sz) == 2:
                img_w[i], img_h[i] = int(sz[0]), int(sz[1])
            if not keep:
                errors[i] = "keep_file rejected"
                return
        else:
            keep, w, h = self.keep_file(resp.content)
            img_w[i], img_h[i] = w, h
            if not keep:
                errors[i] = "keep_file rejected"
                return
        success[i] = True
        if self.keep_content:
            contents[i] = resp.content


#: this worker process's one Fetcher (see fetch_parse._FP_CACHE)
_FETCHER_CACHE: dict = {}


def make_fetcher_fn(url_map_ref, min_size=None, max_size=None, keep_content=True,
                    inflight: str | None = None, user_downloader=None,
                    report: tuple | None = None):
    """Task-pool variant of Fetcher with a worker-process-level cache —
    same rationale as stages.fetch_parse.make_fetch_parse_fn (amortize
    session state across the per-round Ray Data executions of an iterative
    crawl without per-execution actor spin-up).

    ``report=(seen_set_name, num_shards, round_idx)``: each batch reports
    its rows in and the packed (parent_seq, emit_ord) keys of the rows it
    kept to that seen set, keyed by its smallest packed key
    (state/seen.await_fetched); the rows need parent_seq and emit_ord."""
    key = (
        session_spec_key(url_map_ref),
        tuple(min_size) if min_size else None,
        tuple(max_size) if max_size else None,
        keep_content,
        None if user_downloader is None else (
            f"{user_downloader[0].__module__}.{user_downloader[0].__qualname__}",
            json.dumps(user_downloader[1] or {}, sort_keys=True, default=str)),
    )
    guard = InflightGuard(inflight) if inflight else None

    def fn(batch: pa.Table) -> pa.Table:
        f = _FETCHER_CACHE.get(key)
        if f is None:
            _FETCHER_CACHE.clear()
            f = _FETCHER_CACHE[key] = Fetcher(
                url_map_ref, min_size=min_size, max_size=max_size,
                keep_content=keep_content, user_downloader=user_downloader)
        f.guard = guard  # the crawl's limiter, like the report, per batch
        out = f(batch)
        if report is not None and out.num_rows:
            packed = packed_order(out)
            kept = packed[out["success"].to_numpy(zero_copy_only=False)]
            send_report(report[0], report[1], "fetch", int(packed.min()),
                        {"rows": out.num_rows, "kept": kept}, report[2])
        return out

    return fn


def name_files(t: pa.Table, seq, default_ext: str = DEFAULT_EXT,
               file_idx_offset: int = 0, downloader_hooks=None) -> pa.Table:
    """Append ``filename`` to kept download rows whose 0-based global
    download sequence is ``seq``: ``{seq + 1 + offset:06d}.{ext}``
    (first file 000001, downloader.py:110-116 increments before
    formatting) with ImageDownloader's extension whitelist.

    ``downloader_hooks=(cls, kwargs)`` delegates naming to the user
    class's ``get_filename(task, default_ext)`` (X3), with the reference
    fetched_num/file_idx_offset invariant restored per row, and then calls
    its ``process_meta(task)`` (downloader.py:157-167, side effects only)
    on the same task dict, as the reference download() does.  Deviation,
    documented: the reference also calls process_meta on FAILED tasks;
    here it runs over the kept rows only."""
    if downloader_hooks is None:
        ext = path_ext(pd.Series(t["file_url"].to_pylist(), dtype="string"))
        ok = ext.str.lower().isin(IMAGE_EXT_WHITELIST)
        ext = ext.where(ok, default_ext).replace("", default_ext)
        names = [f"{s + 1 + file_idx_offset:06d}.{e}" for s, e in zip(seq, ext)]
        return t.append_column("filename", pa.array(names, type=pa.string()))
    hooks = RefDownloaderHooks(*downloader_hooks)
    # task_meta carries keep_file's task-dict mutations (Fetcher)
    meta_col = next((c for c in ("task_meta", "meta_json") if c in t.column_names), None)
    metas = t[meta_col].to_pylist() if meta_col else [None] * t.num_rows
    names = []
    for u, m, s in zip(t["file_url"].to_pylist(), metas, seq):
        task = _task_from_row(u, m)
        name = hooks.filename(task, default_ext, int(s) + 1 + file_idx_offset,
                              file_idx_offset)
        task["success"] = True
        task["filename"] = name
        hooks.meta(task)
        names.append(name)
    return t.append_column("filename", pa.array(names, type=pa.string()))


def assign_filenames(ds, order_keys: list[str], default_ext: str = DEFAULT_EXT,
                     file_idx_offset: int = 0, max_num: int = 0,
                     seq_col: str = "dl_seq", downloader_hooks=None):
    """Deterministic filename assignment over *kept* downloads.

    Sort by ``order_keys`` (the engine-defined crawl order), assign the
    dense global sequence, then name each row with :func:`name_files` —
    reproducing the reference counter semantics at any parallelism.
    ``max_num`` truncates in order (limit pushdown replaces the
    reach_max_num signal, downloader.py:79-90).
    """
    kept = ds.filter(expr="success == True")
    kept = assign_global_seq(kept, order_keys, col=seq_col)
    if max_num and max_num > 0:
        kept = kept.limit(max_num)

    def _name(t: pa.Table) -> pa.Table:
        return name_files(t, t[seq_col].to_numpy(zero_copy_only=False), default_ext,
                          file_idx_offset, downloader_hooks)

    return kept.map_batches(_name, batch_format="pyarrow")

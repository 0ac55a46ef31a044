"""UrlList pipeline (SURVEY.md §3.3 — the minimum end-to-end slice).

Reference flow: UrlListFeeder -> PseudoParser (identity url->task,
/root/reference/icrawler/builtin/urllist.py:7-32) -> ImageDownloader.
Ray Data restatement:

    seeds -> map_batches(to_task)            # stateless projection (P9)
          -> exact dedup on canonical URL    # task-queue CachedQueue (Q2/Q3)
          -> map_batches(Fetcher actor pool) # D1/D5
          -> filenames over kept, in order   # D2/D3 + limit(max_num) (D6)
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray

from icrawler_ray.defaults import DEFAULT_EXT, FETCH_BATCH_SIZE
from icrawler_ray.functions.urlnorm import canonical_urls, hash_urls
from icrawler_ray.sources.seeds import seed_dataset
from icrawler_ray.stages.download import Fetcher, assign_filenames


def to_tasks(batch: pa.Table) -> pa.Table:
    """PseudoParser projection: url -> {file_url} (urllist.py:31) plus the
    dedup keys."""
    canon = canonical_urls(batch["url"].to_pylist())
    return pa.table(
        {
            "file_url": batch["url"],
            "url_canon": pa.array(canon, type=pa.string()),
            "url_hash": pa.array(hash_urls(canon), type=pa.uint64()),
        }
    )


def dedup_first(ds: ray.data.Dataset, key: str = "url_canon",
                order_col: str = "seq") -> ray.data.Dataset:
    """Exact dedup keeping the first occurrence in ``order_col`` order —
    CachedQueue.put drop-on-duplicate semantics (cached_queue.py:53-59),
    realized as a groupby(key) shuffle + per-group min."""

    def first(g: pd.DataFrame) -> pd.DataFrame:
        return g.nsmallest(1, order_col) if order_col in g else g.head(1)

    return ds.groupby(key).map_groups(first, batch_format="pandas")


def urllist_crawl(url_map_ref, urls: list[str], max_num: int = 1000,
                  min_size=None, max_size=None, file_idx_offset: int = 0,
                  default_ext: str = DEFAULT_EXT, concurrency=(1, 8),
                  keep_content: bool = True,
                  downloader_hooks=None) -> ray.data.Dataset:
    """Returns the results dataset (file_url, filename, success, status,
    img_w, img_h, content, dl_seq ...) for a seed URL list."""
    seeds = seed_dataset(urls)
    from icrawler_ray.functions.seq import assign_global_seq

    tasks = seeds.map_batches(to_tasks, batch_format="pyarrow")
    tasks = assign_global_seq(tasks, [], col="seq")  # input order = queue order
    tasks = dedup_first(tasks, "url_canon", "seq")
    fetched = tasks.map_batches(
        Fetcher,
        fn_constructor_kwargs={
            "url_map_ref": url_map_ref,
            "min_size": min_size,
            "max_size": max_size,
            "keep_content": keep_content,
            "user_downloader": downloader_hooks,
        },
        batch_format="pyarrow",
        batch_size=FETCH_BATCH_SIZE,
        concurrency=concurrency,
        num_cpus=0.5,  # I/O-bound stage: don't starve CPU stages
    )
    named = assign_filenames(
        fetched, ["seq"], default_ext=default_ext,
        file_idx_offset=file_idx_offset, max_num=max_num,
        downloader_hooks=downloader_hooks,
    )
    return named

"""Search-engine crawl pipeline (SURVEY.md §3.1).

Reference flow (google/bing/baidu/flickr): feeder expands <=10..40 search
URLs -> parser fetches each result page and regex/JSON-extracts file URLs
-> downloader fetches files, gated by max_num
(/root/reference/icrawler/builtin/google.py:171-212 and peers).

Ray Data restatement: plan-time URL expansion -> FetchParse actor pool ->
task split -> exact dedup (task queue CachedQueue semantics) -> Fetcher
actor pool -> ordered filenames + limit. The 1000-result engine caps
(google.py:190-202 etc.) are applied at expansion time.
"""

from __future__ import annotations

import ray

from icrawler_ray.defaults import DEFAULT_EXT, FETCH_BATCH_SIZE
from icrawler_ray.functions.seq import assign_global_seq
from icrawler_ray.pipelines.urllist import dedup_first
from icrawler_ray.sources.seeds import (
    baidu_search_urls,
    bing_search_urls,
    flickr_search_urls,
    google_search_urls,
    seed_dataset,
)
from icrawler_ray.stages.download import Fetcher, assign_filenames
from icrawler_ray.stages.fetch_parse import FetchParse, task_rows


def _clamp_1000(offset: int, max_num: int) -> int:
    """Engine result cap (google.py:190-202 / bing.py:150-161 /
    baidu.py:162-173): offset+max_num <= 1000."""
    if offset > 1000:
        raise ValueError("offset cannot exceed 1000")
    return min(max_num, 1000 - offset) if offset + max_num > 1000 else max_num


def expand_search(engine: str, keyword: str = "", offset: int = 0, max_num: int = 1000,
                  language=None, filters=None, apikey: str = "stub-key",
                  flickr_kwargs: dict | None = None) -> tuple[list[str], str, dict]:
    """(search URLs, rules name, rules kwargs) for an engine."""
    if engine == "google":
        max_num = _clamp_1000(offset, max_num)
        return google_search_urls(keyword, offset, max_num, language, filters), "google", {}
    if engine == "bing":
        max_num = _clamp_1000(offset, max_num)
        return bing_search_urls(keyword, offset, max_num, filters), "bing", {}
    if engine == "baidu":
        max_num = _clamp_1000(offset, max_num)
        return baidu_search_urls(keyword, offset, max_num, filters), "baidu", {}
    if engine == "flickr":
        kw = dict(flickr_kwargs or {})
        # defer_sizes: the nested per-photo getSizes fetch moves out of
        # the parse actors into the batched FlickrSizes stage (SURVEY P6)
        return (flickr_search_urls(apikey, max_num=min(max_num, 4000), **kw),
                "flickr", {"apikey": apikey, "defer_sizes": True})
    raise KeyError(f"unknown search engine: {engine}")


def search_crawl(url_map_ref, engine: str, keyword: str = "", max_num: int = 100,
                 offset: int = 0, language=None, filters=None,
                 min_size=None, max_size=None, file_idx_offset: int = 0,
                 default_ext: str = DEFAULT_EXT, apikey: str = "stub-key",
                 flickr_kwargs: dict | None = None, parse_concurrency=(1, 4),
                 fetch_concurrency=(1, 8), keep_content: bool = True,
                 rules_override=None,
                 rules_override_kwargs: dict | None = None,
                 downloader_hooks=None) -> ray.data.Dataset:
    urls, rules, rules_kwargs = expand_search(
        engine, keyword, offset, max_num, language, filters, apikey, flickr_kwargs
    )
    if rules_override is not None:
        # compat parser_cls path: engine URL expansion + the user's
        # reference-style parser (wrapped by parsers.RefParserRules)
        rules, rules_kwargs = rules_override, dict(rules_override_kwargs or {})
    return crawl_from_seeds(
        url_map_ref, urls, rules, rules_kwargs, max_num=max_num,
        min_size=min_size, max_size=max_size, file_idx_offset=file_idx_offset,
        default_ext=default_ext, parse_concurrency=parse_concurrency,
        fetch_concurrency=fetch_concurrency, keep_content=keep_content,
        flickr_sizes=(engine == "flickr"), downloader_hooks=downloader_hooks,
    )


def crawl_from_seeds(url_map_ref, urls: list, rules, rules_kwargs: dict | None = None,
                     max_num: int = 100, min_size=None, max_size=None,
                     file_idx_offset: int = 0, default_ext: str = DEFAULT_EXT,
                     parse_concurrency=(1, 4), fetch_concurrency=(1, 8),
                     keep_content: bool = True,
                     flickr_sizes: bool = False,
                     downloader_hooks=None) -> ray.data.Dataset:
    """Seed URLs -> FetchParse (``rules``: registry name or a rules
    class, e.g. parsers.RefParserRules for a reference-style parser
    subclass) -> task dedup -> Fetcher -> ordered filenames. The shared
    tail of the search pipelines and the compat facade's composed
    ``Crawler``."""
    seeds = seed_dataset(urls)
    seeds = assign_global_seq(seeds, [], col="seq")  # feeder emission order
    parsed = seeds.map_batches(
        FetchParse,
        fn_constructor_kwargs={
            "url_map_ref": url_map_ref,
            "rules": rules,
            "rules_kwargs": rules_kwargs,
            "emit_docs": False,
        },
        batch_format="pyarrow",
        batch_size=16,
        concurrency=parse_concurrency,
        num_cpus=0.5,
    )
    if flickr_sizes:
        # second actor-pool stage: photo rows -> getSizes (one batched
        # round-trip per batch) -> task rows; other rows pass through
        from icrawler_ray.stages.parsers import FlickrSizes

        parsed = parsed.map_batches(
            FlickrSizes,
            fn_constructor_kwargs={"url_map_ref": url_map_ref},
            batch_format="pyarrow",
            batch_size=64,
            concurrency=parse_concurrency,
            num_cpus=0.5,
        )
    tasks = assign_global_seq(task_rows(parsed), ["parent_seq", "emit_ord"], col="seq")
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
        concurrency=fetch_concurrency,
        num_cpus=0.5,
    )
    named = assign_filenames(
        fetched, ["seq"], default_ext=default_ext,
        file_idx_offset=file_idx_offset, max_num=max_num,
        downloader_hooks=downloader_hooks,
    )
    return named

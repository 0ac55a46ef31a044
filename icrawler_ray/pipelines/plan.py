"""CrawlPlan — the user-extension surface (SURVEY.md §2.9).

The reference composes crawlers from classes:
``Crawler(feeder_cls, parser_cls, downloader_cls, *_threads, storage)``
(/root/reference/icrawler/crawler.py:30-72) with subclass hooks
(Feeder.feed, Parser.parse, Downloader.get_filename/keep_file/process_meta;
docs/extend.rst). This engine's equivalent is a declarative plan of
FUNCTIONS and configs producing a Ray Data pipeline:

| reference hook                    | plan field                          |
|-----------------------------------|-------------------------------------|
| Feeder.feed subclass              | ``seeds``: list[str] | callable -> list[str] |
| Parser.parse subclass             | ``rules``: name in RULES_REGISTRY or a rules class registered there |
| Downloader.keep_file override     | ``min_size``/``max_size`` + ``keep_file`` hook on a Fetcher subclass |
| Downloader.get_filename override  | ``filename_fn`` (table -> filename column) |
| Downloader.process_meta           | ``post_stages``: extra map_batches callables |
| storage dict/dotted-path plugin   | ``storage``: sink config (storage/sinks.py) |
| *_threads                         | ``parse_concurrency``/``fetch_concurrency`` |
| extra_*_args passthrough          | the remaining kwargs dicts          |
"""

from __future__ import annotations

from dataclasses import dataclass, field

from icrawler_ray.defaults import DEFAULT_EXT
from icrawler_ray.stages.politeness import HostPolicy


@dataclass
class CrawlPlan:
    url_map_ref: object                      # broadcast url map or ("procedural", spec)
    kind: str = "urllist"                    # urllist | search | greedy
    seeds: object = None                     # list[str] or callable -> list[str]
    engine: str = "google"                   # for kind=search
    keyword: str = ""
    domains: list = field(default_factory=list)   # for kind=greedy
    rules: str | None = None                 # override parser rules by name
    policy: HostPolicy | None = None
    max_num: int = 0
    max_depth: int = 6
    min_size: tuple | None = None
    max_size: tuple | None = None
    default_ext: str = DEFAULT_EXT
    file_idx_offset: int = 0
    storage: object = None                   # sink config (storage/sinks.py)
    checkpoint_dir: str | None = None
    parse_concurrency: tuple = (1, 4)
    fetch_concurrency: tuple = (1, 8)
    keep_content: bool = True
    post_stages: list = field(default_factory=list)  # extra map_batches fns (process_meta)
    extra: dict = field(default_factory=dict)        # passthrough kwargs

    def _seed_list(self):
        return self.seeds() if callable(self.seeds) else list(self.seeds or [])

    def run(self):
        """Build and execute the pipeline; returns the results dataset
        (urllist/search) or (docs, results, metrics) for greedy."""
        if self.kind == "urllist":
            from icrawler_ray.pipelines.urllist import urllist_crawl

            out = urllist_crawl(
                self.url_map_ref, self._seed_list(), max_num=self.max_num or 1000,
                min_size=self.min_size, max_size=self.max_size,
                file_idx_offset=self.file_idx_offset, default_ext=self.default_ext,
                concurrency=self.fetch_concurrency, keep_content=self.keep_content,
            )
        elif self.kind == "search":
            from icrawler_ray.pipelines.search import search_crawl

            out = search_crawl(
                self.url_map_ref, self.engine, keyword=self.keyword,
                max_num=self.max_num or 100, min_size=self.min_size,
                max_size=self.max_size, file_idx_offset=self.file_idx_offset,
                default_ext=self.default_ext, parse_concurrency=self.parse_concurrency,
                fetch_concurrency=self.fetch_concurrency,
                keep_content=self.keep_content, **self.extra,
            )
        elif self.kind == "greedy":
            from icrawler_ray.pipelines.greedy import greedy_crawl

            return greedy_crawl(
                self.url_map_ref, self.domains, seeds=self._seed_list() or None,
                policy=self.policy, max_num=self.max_num, max_depth=self.max_depth,
                min_size=self.min_size, max_size=self.max_size,
                checkpoint_dir=self.checkpoint_dir, default_ext=self.default_ext,
                keep_content=self.keep_content, **self.extra,
            )
        else:
            raise KeyError(f"unknown crawl kind: {self.kind}")
        for stage in self.post_stages:  # process_meta-style hooks
            out = out.map_batches(stage, batch_format="pyarrow")
        if self.storage is not None:
            from icrawler_ray.storage.sinks import ParquetDirSink, resolve_sink, write_results

            sink = resolve_sink(self.storage)
            if isinstance(sink, ParquetDirSink):
                write_results(out, sink, partition="results")
        return out

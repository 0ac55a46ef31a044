"""Drop-in reference API facade (SURVEY.md §3.1-3.3 entry points).

A user of hellock/icrawler can switch imports to this module and run the
same call sites::

    from icrawler_ray.compat import GoogleImageCrawler
    GoogleImageCrawler(storage={"root_dir": "imgs"},
                       downloader_threads=4).crawl("cat", max_num=50)

Each class mirrors its reference constructor and ``crawl`` signature
(google.py:171-212, bing.py:139-168, baidu.py:150-180, flickr.py:113-178,
greedy.py:74-97, urllist.py:35-47, crawler.py:30-72) but executes the Ray
Data pipelines of this engine and writes downloaded files through the
storage-sink registry (KV blob contract, storage/sinks.py) with the
reference's filename sequence.

Deviations, by design:
- ``*_threads`` map to Ray actor-pool concurrency upper bounds.
- component-class overrides run unmodified for all three roles:
  ``feeder_cls.feed`` executes at plan time (its out_queue becomes the
  seed Dataset); ``parser_cls.parse`` executes inside the fetch-parse
  workers via ``parsers.RefParserRules``; a custom ``downloader_cls``
  subclass's ``get_filename``/``keep_file``/``process_meta`` execute
  inside the fetch / naming / results stages via
  ``stages.download.RefDownloaderHooks`` (see :class:`Crawler`, the
  docs/extend.rst §3-4 surface). The two builtin bases select the
  builtin download semantics (image gates for ImageDownloader).
- ``session_spec`` (extra kwarg): a ``make_session`` spec — defaults to
  the live-network adapter; hermetic tests pass a stub url-map ref.
- ``max_idle_time`` maps to the bounded-round watchdog (greedy) and is a
  no-op for the inherently bounded list/search pipelines.
"""

from __future__ import annotations

import pyarrow as pa

from icrawler_ray.defaults import DEFAULT_EXT
from icrawler_ray.storage.sinks import resolve_sink

_DEFAULT_STORAGE = {"backend": "FileSystem", "root_dir": "images"}


def _write_files(ds, sink, overwrite: bool) -> int:
    """Distributed KV write of a results dataset's (filename, content)
    rows through a sink; skip-existing unless overwrite (the reference
    downloader's storage.exists gate, downloader.py:109-116)."""

    def write_batch(t: pa.Table) -> pa.Table:
        n = 0
        for name, content in zip(t["filename"].to_pylist(), t["content"].to_pylist()):
            if content is None:
                continue
            if not overwrite and sink.exists(name):
                continue
            sink.write(name, content)
            n += 1
        return pa.table({"written": pa.array([n], type=pa.int64())})

    out = ds.map_batches(write_batch, batch_format="pyarrow").sum("written")
    return int(out or 0)


class Feeder:
    """Stand-in base for reference-style feeders (feeder.py:7-44): subclass
    and override ``feed(self, **kwargs)``, pushing page URLs with
    ``self.out_queue.put(url)``. Run at plan time by :class:`Crawler`."""

    def feed(self, **kwargs):
        raise NotImplementedError


class Parser:
    """Stand-in base for reference-style parsers (parser.py:7-41): subclass
    and override ``parse(self, response, **kwargs)`` returning/yielding
    task dicts (``file_url`` + metadata) and page-link strings. Executed
    inside the fetch-parse workers via ``parsers.RefParserRules``."""

    def parse(self, response, **kwargs):
        raise NotImplementedError


class Downloader:
    """Stand-in base for reference-style downloaders (downloader.py:22-167):
    subclass and override ``get_filename(task, default_ext)``,
    ``keep_file(task, response, **kwargs)`` and/or ``process_meta(task)``;
    the methods run inside the engine's fetch / naming / results stages via
    ``stages.download.RefDownloaderHooks`` (docs/extend.rst §3).  Used
    bare, it selects the plain builtin download semantics (no image
    gates)."""

    def get_filename(self, task, default_ext):
        """Reference default naming (downloader.py:60-77): 6-digit global
        index; URL-path extension if present, else ``default_ext``."""
        from urllib.parse import urlparse

        url_path = urlparse(task["file_url"])[2]
        extension = url_path.split(".")[-1] if "." in url_path else default_ext
        file_idx = self.fetched_num + self.file_idx_offset
        return f"{file_idx:06d}.{extension}"

    def keep_file(self, task, response, **kwargs):
        """downloader.py:92-93: keep everything."""
        return True

    def process_meta(self, task):
        """downloader.py:157-167: no-op hook."""


class ImageDownloader(Downloader):
    """Stand-in base for the reference image downloader
    (downloader.py:233-277): extension whitelist in ``get_filename``,
    decode + size gates in ``keep_file``.  Deviation, documented: image
    decoding uses the engine's ``synthweb.fakeimg.decode_size`` (no PIL
    in this environment); the gate semantics (_size_gt/_size_lt via
    max/min of both dims, ``task["img_size"]`` recorded) are the
    reference's."""

    def keep_file(self, task, response, min_size=None, max_size=None,
                  **kwargs):
        from icrawler_ray.stages.download import size_gt, size_lt
        from icrawler_ray.synthweb import fakeimg

        size = fakeimg.decode_size(response.content)
        if size is None:
            return False
        task["img_size"] = tuple(size)
        if min_size and not size_gt(size, min_size):
            return False
        if max_size and not size_lt(size, max_size):
            return False
        return True

    def get_filename(self, task, default_ext):
        """downloader.py:265-274: whitelist the URL-path extension."""
        from urllib.parse import urlparse

        url_path = urlparse(task["file_url"])[2]
        if "." in url_path:
            extension = url_path.split(".")[-1]
            if extension.lower() not in ["jpg", "jpeg", "png", "bmp",
                                         "tiff", "gif", "ppm", "pgm"]:
                extension = default_ext
        else:
            extension = default_ext
        file_idx = self.fetched_num + self.file_idx_offset
        return f"{file_idx:06d}.{extension}"


class _ListQueue:
    def __init__(self):
        self.items = []

    def put(self, item, block=True, timeout=None):
        self.items.append(item)


def _run_ref_feeder(feeder_cls, feed_kwargs: dict | None) -> list:
    """Plan-time execution of a reference-style Feeder subclass: feed()
    pushes page URLs into out_queue (feeder.py:38-41, 67-69); here
    out_queue collects into a list (SURVEY S1: seed hook -> Dataset).
    Instantiated without the ThreadPool wiring — only the attributes a
    ``feed`` body can touch exist."""
    import logging

    f = feeder_cls.__new__(feeder_cls)
    f.out_queue = _ListQueue()
    f.logger = logging.getLogger(feeder_cls.__name__)
    f.session = None
    f.feed(**(feed_kwargs or {}))
    return [u for u in f.out_queue.items if isinstance(u, str)]


class _CompatCrawler:
    _ENGINE: str | None = None

    def __init__(self, feeder_cls=None, parser_cls=None, downloader_cls=None,
                 feeder_threads: int = 1, parser_threads: int = 1,
                 downloader_threads: int = 1, storage=None, log_level=None,
                 extra_feeder_args=None, extra_parser_args=None,
                 extra_downloader_args=None, session_spec=None):
        if downloader_cls is not None and not (
                isinstance(downloader_cls, type)
                and issubclass(downloader_cls, Downloader)):
            raise TypeError(
                "downloader_cls must subclass icrawler_ray.compat.Downloader "
                "(the reference-style override surface, docs/extend.rst §3); "
                "arbitrary classes can't run — their hook methods are "
                "executed inside the engine's fetch/naming/results stages")
        self.feeder_cls = feeder_cls
        self.parser_cls = parser_cls
        self.downloader_cls = downloader_cls
        self.parse_concurrency = (1, max(1, parser_threads))
        self.fetch_concurrency = (1, max(1, downloader_threads))
        self.storage = resolve_sink(dict(storage or _DEFAULT_STORAGE))
        self.extra_feeder_args = extra_feeder_args or {}
        self.extra_parser_args = extra_parser_args or {}
        self.extra_downloader_args = extra_downloader_args or {}
        self.session_spec = session_spec if session_spec is not None else ("live", {})
        # a CUSTOM subclass (not the two builtin bases themselves) runs its
        # get_filename/keep_file/process_meta inside the engine stages (X3)
        self.downloader_hooks = None
        if downloader_cls is not None and downloader_cls not in (
                Downloader, ImageDownloader):
            self.downloader_hooks = (downloader_cls, self.extra_downloader_args)

    # -- shared crawl tail -------------------------------------------------
    def _resolve_offset(self, file_idx_offset):
        """file_idx_offset='auto' resumes from the storage scan
        (downloader.py:53-58)."""
        if file_idx_offset == "auto":
            return self.storage.max_file_idx()
        return int(file_idx_offset)

    def _finish(self, results, overwrite: bool) -> int:
        return _write_files(results, self.storage, overwrite)


class _SearchEngineCrawler(_CompatCrawler):
    def crawl(self, keyword, filters=None, offset=0, max_num=1000,
              min_size=None, max_size=None, language=None,
              file_idx_offset=0, overwrite=False, max_idle_time=None):
        from icrawler_ray.pipelines.search import search_crawl

        kwargs = {}
        if self._ENGINE == "google":
            kwargs["language"] = language
        if self.parser_cls is not None:
            from icrawler_ray.stages.parsers import RefParserRules

            kwargs["rules_override"] = RefParserRules
            kwargs["rules_override_kwargs"] = {
                "parser_cls": self.parser_cls,
                "parse_kwargs": self.extra_parser_args,
            }
        results = search_crawl(
            self.session_spec, self._ENGINE, keyword=keyword, max_num=max_num,
            offset=offset, filters=filters, min_size=min_size, max_size=max_size,
            file_idx_offset=self._resolve_offset(file_idx_offset),
            parse_concurrency=self.parse_concurrency,
            fetch_concurrency=self.fetch_concurrency, keep_content=True,
            downloader_hooks=self.downloader_hooks,
            **kwargs,
        )
        return self._finish(results, overwrite)


class GoogleImageCrawler(_SearchEngineCrawler):
    _ENGINE = "google"


class BingImageCrawler(_SearchEngineCrawler):
    _ENGINE = "bing"


class BaiduImageCrawler(_SearchEngineCrawler):
    _ENGINE = "baidu"


class FlickrImageCrawler(_CompatCrawler):
    def __init__(self, apikey=None, *args, **kwargs):
        import os

        if apikey is None:
            apikey = os.getenv("FLICKR_APIKEY")
            if not apikey:
                raise RuntimeError("apikey is not specified")
        self.apikey = apikey
        super().__init__(*args, **kwargs)

    def crawl(self, max_num=1000, size_preference=None, min_size=None,
              max_size=None, file_idx_offset=0, overwrite=False,
              max_idle_time=None, **kwargs):
        from icrawler_ray.pipelines.search import search_crawl

        results = search_crawl(
            self.session_spec, "flickr", max_num=max_num, min_size=min_size,
            max_size=max_size, file_idx_offset=self._resolve_offset(file_idx_offset),
            apikey=self.apikey, flickr_kwargs=kwargs,
            parse_concurrency=self.parse_concurrency,
            fetch_concurrency=self.fetch_concurrency, keep_content=True,
            downloader_hooks=self.downloader_hooks,
        )
        return self._finish(results, overwrite)


class GreedyImageCrawler(_CompatCrawler):
    def crawl(self, domains, max_num=0, min_size=None, max_size=None,
              file_idx_offset=0, overwrite=False, max_idle_time=None):
        from icrawler_ray.pipelines.greedy import greedy_crawl

        _docs, results, _metrics = greedy_crawl(
            self.session_spec, domains, max_num=max_num, min_size=min_size,
            max_size=max_size, keep_content=True, default_ext=DEFAULT_EXT,
            max_idle_time=max_idle_time,
            file_idx_offset=self._resolve_offset(file_idx_offset),
            downloader_hooks=self.downloader_hooks,
        )
        if results is None:
            return 0
        return self._finish(results, overwrite)


class Crawler(_CompatCrawler):
    """Generic composed crawler (crawler.py:30-72; docs/extend.rst §4):

        Crawler(feeder_cls=MyFeeder, parser_cls=MyParser,
                downloader_cls=ImageDownloader).crawl(
            feeder_kwargs={...}, parser_kwargs={...},
            downloader_kwargs={"max_num": 50})

    ``feeder_cls.feed(**feeder_kwargs)`` runs at plan time and its
    out_queue URLs become the seed Dataset; ``parser_cls.parse`` runs
    inside the fetch-parse workers via ``parsers.RefParserRules``;
    ``downloader_cls`` selects the builtin download semantics (image
    gates for :class:`ImageDownloader`). ``extra_parser_args`` merge
    into ``parser_kwargs`` (constructor passthrough, crawler.py:63-70)."""

    def crawl(self, feeder_kwargs=None, parser_kwargs=None,
              downloader_kwargs=None):
        from icrawler_ray.pipelines.search import crawl_from_seeds
        from icrawler_ray.stages.parsers import RefParserRules

        if self.feeder_cls is None or self.parser_cls is None:
            raise TypeError("Crawler needs feeder_cls and parser_cls "
                            "(reference crawler.py:30-42 defaults are "
                            "abstract)")
        dl = dict(downloader_kwargs or {})
        seeds = _run_ref_feeder(self.feeder_cls,
                                {**self.extra_feeder_args,
                                 **(feeder_kwargs or {})})
        results = crawl_from_seeds(
            self.session_spec, seeds, RefParserRules,
            {"parser_cls": self.parser_cls,
             "parse_kwargs": {**self.extra_parser_args,
                              **(parser_kwargs or {})}},
            max_num=int(dl.get("max_num", 1000)),
            min_size=dl.get("min_size"), max_size=dl.get("max_size"),
            file_idx_offset=self._resolve_offset(dl.get("file_idx_offset", 0)),
            parse_concurrency=self.parse_concurrency,
            fetch_concurrency=self.fetch_concurrency, keep_content=True,
            downloader_hooks=self.downloader_hooks,
        )
        return self._finish(results, bool(dl.get("overwrite", False)))


class UrlListCrawler(_CompatCrawler):
    def crawl(self, url_list, max_num=1000, file_idx_offset=0,
              overwrite=False, max_idle_time=None):
        from icrawler_ray.pipelines.urllist import urllist_crawl
        from icrawler_ray.sources.seeds import url_list_seeds

        urls = url_list_seeds(url_list, **self.extra_feeder_args)
        results = urllist_crawl(
            self.session_spec, urls, max_num=max_num,
            file_idx_offset=self._resolve_offset(file_idx_offset),
            concurrency=self.fetch_concurrency, keep_content=True,
            downloader_hooks=self.downloader_hooks,
        )
        return self._finish(results, overwrite)


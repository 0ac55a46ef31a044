"""Per-engine page-parse rules (SURVEY.md P2-P9).

Each rules class is instantiated once per FetchParse actor (compiled
regexes amortized, the reference does the same per parser instance at
/root/reference/icrawler/builtin/greedy.py:19-21) and exposes

    parse(response, session) -> (spans, emissions)

- ``spans``: ordered (kind, text, media_ref) page spans for the corpus row
  (document order; empty for search engines, which have no doc semantics)
- ``emissions``: ordered list of ("task", file_url, meta_json) |
  ("link", url) in the reference's *emission* order — for the greedy rules
  that is all <img src> tasks first, then hrefs, matching the two
  find_all passes of greedy.py:31-40 — this order drives crawl ordering
  and filename assignment downstream.
"""

from __future__ import annotations

import html as htmllib
import json
import re
from urllib.parse import urljoin

from icrawler_ray.functions.baidu_cipher import decode_url
from icrawler_ray.functions.html import scan_page
from icrawler_ray.functions.urlnorm import HTML_EXTS, IMAGE_URL_RE, OK_SCHEMES, base_url_of


class GreedyRules:
    """GreedyParser semantics (/root/reference/icrawler/builtin/greedy.py:29-71)."""

    def __init__(self, domains: list[str]):
        self.domains = list(domains)
        self.pattern = IMAGE_URL_RE
        # single C-level scan instead of a Python any()-loop over domains
        # (semantics identical to any(d in href for d in domains))
        self._domain_re = re.compile("|".join(map(re.escape, self.domains))) \
            if self.domains else None

    def _norm_href(self, href: str, base_url: str):
        if len(href) < 2:
            return None
        if href[0:2] == "//":
            return "http:" + href.rstrip("/")
        if href[0] == "/":
            return urljoin(base_url, href.strip("/"))
        if href[0] == "#":
            return None
        h = href.rstrip("/")
        # fast path: urljoin(base, h) == h for well-formed absolute
        # http(s) URLs (property-fuzzed vs the reference formula; the
        # exceptions — empty netloc, bare trailing '?'/'#', edge
        # whitespace, embedded tab/CR/LF which urllib strips, case-folded
        # scheme — fall through). urljoin dominates parse CPU (60%
        # measured) when every href is absolute, the common crawl case.
        if (
            (h.startswith("http://") and len(h) > 7 and h[7] != "/")
            or (h.startswith("https://") and len(h) > 8 and h[8] != "/")
        ) and h[-1] not in "?# \t\r\n" and ";" not in h and "?#" not in h \
                and "\t" not in h and "\r" not in h and "\n" not in h:
            return h
        return urljoin(base_url, h)

    def _classify(self, href: str):
        """file | page | None(discard), after the image check failed."""
        tmp = href.split("/")[-1].split(".")
        if len(tmp) > 1 and tmp[-1] not in HTML_EXTS:
            return None
        if href.find("javascript", 0, 10) == 0:
            return None
        scheme = href.split(":", 1)[0].lower() if ":" in href else ""
        if scheme not in OK_SCHEMES:
            return None
        if self._domain_re is not None and self._domain_re.search(href):
            return "page"
        return None

    def parse(self, response, session=None):
        body = response.content.decode("utf-8", "ignore")
        spans = scan_page(body)
        base_url = base_url_of(response.url)
        emissions = []
        # pass 1: img srcs matching the image pattern (// scheme fixup)
        for kind, _text, ref in spans:
            if kind == "media" and self.pattern.match(ref):
                img_url = "http:" + ref if ref.startswith("//") else ref
                emissions.append(("task", img_url, ""))
        # pass 2: hrefs -> normalize -> image-task | same-domain page | discard
        for kind, _text, ref in spans:
            if kind != "link":
                continue
            href = self._norm_href(ref, base_url)
            if href is None:
                continue
            if self.pattern.match(href):
                emissions.append(("task", href, ""))
                continue
            if self._classify(href) == "page":
                emissions.append(("link", href, ""))
        return spans, emissions


class GoogleRules:
    """GoogleParser semantics (/root/reference/icrawler/builtin/google.py:144-168):
    first <script> block yielding regex hits wins; unicode-escape decode."""

    SCRIPT_RE = re.compile(r"<script[^>]*>.*?</script>", re.S)
    URI_RE_1 = re.compile(r"http[^\[]*?.(?:jpg|png|bmp)")
    URI_RE_2 = re.compile(r"http[^\[]*?\.(?:jpg|png|bmp)")

    def parse(self, response, session=None):
        txt_all = response.content.decode("utf-8", "ignore")
        for script in self.SCRIPT_RE.findall(txt_all):
            uris = self.URI_RE_1.findall(script)
            if not uris:
                uris = self.URI_RE_2.findall(script)
            uris = [bytes(u, "utf-8").decode("unicode-escape") for u in uris]
            if uris:
                return [], [("task", u, "") for u in uris]
        return [], []


class BingRules:
    """BingParser semantics (/root/reference/icrawler/builtin/bing.py:117-131)."""

    DIV_RE = re.compile(r"<div class=\"imgpt\".*?</div>", re.S)
    M_RE = re.compile(r"<a [^>]*?m=\"([^\"]*)\"")
    MURL_RE = re.compile(r"murl\":\"(.*?)\.jpg")

    def parse(self, response, session=None):
        txt = response.content.decode("utf-8", "ignore")
        emissions = []
        for div in self.DIV_RE.findall(txt):
            m = self.M_RE.search(div)
            if not m:  # the KeyError-continue path of bing.py:123-125
                continue
            href_str = htmllib.unescape(m.group(1))
            match = self.MURL_RE.search(href_str)
            if match:
                emissions.append(("task", f"{match.group(1)}.jpg", ""))
        return [], emissions


class BaiduRules:
    """BaiduParser semantics (/root/reference/icrawler/builtin/baidu.py:129-143):
    JSON (strict=False, ``\\'`` fixup); objURL via the substitution cipher,
    hoverURL fallback, itemless rows skipped."""

    def parse(self, response, session=None):
        try:
            content = response.content.decode("utf-8", "ignore").replace("\\'", "'")
            data = json.loads(content, strict=False)
        except (ValueError, KeyError):
            return [], []
        emissions = []
        for item in data.get("data", []):
            if "objURL" in item:
                emissions.append(("task", decode_url(item["objURL"]), ""))
            elif "hoverURL" in item:
                emissions.append(("task", item["hoverURL"], ""))
        return [], emissions


class FlickrRules:
    """FlickrParser semantics (/root/reference/icrawler/builtin/flickr.py:81-110):
    per-photo secondary getSizes call through the session (nested fetch
    inside the actor), size-preference pick, photo record as task meta."""

    # Verbatim reference default order (flickr.py:137-150). NB "large Square"
    # keeps its capital S: labels are lowercased before comparison
    # (flickr.py:104), so that entry never matches — preserved quirk.
    DEFAULT_ORDER = [
        "original", "large 2048", "large 1600", "large", "medium 800", "medium 640",
        "medium", "small 320", "small", "thumbnail", "large Square", "square",
    ]

    def __init__(self, apikey: str, size_preference=None, defer_sizes: bool = False):
        self.apikey = apikey
        self.size_preference = size_preference or self.DEFAULT_ORDER
        # defer_sizes=True is the SCALE path (SURVEY §2.2 P6): parse emits
        # ("photo", getSizes_url, photo_json) rows WITHOUT touching the
        # session, and a second actor-pool stage (FlickrSizes) resolves
        # them in batches — the parse actor never serializes on per-photo
        # network latency.  False keeps the reference's nested-fetch
        # semantics (flickr.py:81-110) for parity tests / compat.
        self.defer_sizes = bool(defer_sizes)

    def sizes_url(self, photo_id) -> str:
        from urllib.parse import urlencode

        params = {
            "method": "flickr.photos.getSizes",
            "api_key": self.apikey,
            "photo_id": photo_id,
            "format": "json",
            "nojsoncallback": 1,
        }
        return "https://api.flickr.com/services/rest/?" + urlencode(params)

    def pick_size(self, info: dict) -> str | None:
        """size-preference pick over one getSizes response body
        (flickr.py:100-108 semantics, labels lowercased)."""
        if info.get("stat") != "ok":
            return None
        urls = {str(s["label"]).lower(): s["source"] for s in info["sizes"]["size"]}
        for sz in self.size_preference:
            if sz in urls:
                return urls[sz]
        return None

    def parse(self, response, session=None):
        try:
            content = json.loads(response.content.decode("utf-8", "ignore"))
        except ValueError:
            return [], []
        if content.get("stat") != "ok":
            return [], []
        emissions = []
        for photo in content["photos"]["photo"]:
            meta = json.dumps(photo, sort_keys=True)
            if self.defer_sizes:
                emissions.append(("photo", self.sizes_url(photo["id"]), meta))
                continue
            try:
                ret = session.get(self.sizes_url(photo["id"]))
                info = json.loads(ret.content.decode())
            except Exception:
                continue
            url = self.pick_size(info)
            if url is not None:
                emissions.append(("task", url, meta))
        return [], emissions


class RefParserRules:
    """Engine-rules adapter for a reference-style ``Parser`` subclass
    (/root/reference/icrawler/parser.py:31-41; docs/extend.rst §2): the
    user's ``parse(self, response, **kwargs)`` returns/yields task dicts
    (``file_url`` + arbitrary metadata) and page-link strings;
    ``worker_exec`` routes dict -> downloader, str -> frontier
    (parser.py:102-119). Those map 1:1 onto this engine's
    ("task" | "link", url, meta_json) emissions. The user class is
    instantiated without the reference ThreadPool/queue wiring — only
    the attributes a ``parse`` body can touch (logger, session) exist."""

    def __init__(self, parser_cls=None, parse_kwargs: dict | None = None):
        import logging

        if parser_cls is None:
            raise TypeError("RefParserRules requires parser_cls")
        p = parser_cls.__new__(parser_cls)  # skip ThreadPool __init__
        p.logger = logging.getLogger(parser_cls.__name__)
        p.session = None
        self._p = p
        self._kwargs = dict(parse_kwargs or {})

    def parse(self, response, session=None):
        self._p.session = session
        tasks = self._p.parse(response, **self._kwargs)
        emissions = []
        for t in tasks or ():  # generator or list (parser.py:105-111)
            if isinstance(t, dict):
                meta = {k: v for k, v in t.items() if k != "file_url"}
                emissions.append(
                    ("task", t["file_url"],
                     json.dumps(meta, sort_keys=True, default=str) if meta else ""))
            elif isinstance(t, str):
                emissions.append(("link", t, ""))
        return [], emissions


RULES_REGISTRY = {
    "greedy": GreedyRules,
    "google": GoogleRules,
    "bing": BingRules,
    "baidu": BaiduRules,
    "flickr": FlickrRules,
}


def session_get_many(session, urls: list):
    """Batched fetch through a session: one multiplexed round-trip when
    the session supports ``get_many`` (StubSession models this for the
    fixture's round-trip accounting; a live adapter would pipeline or
    issue concurrently), else a sequential fallback."""
    fn = getattr(session, "get_many", None)
    if fn is not None:
        return fn(urls)
    return [session.get(u) for u in urls]


class FlickrSizes:
    """Second-stage actor pool for the Flickr getSizes fan-out (SURVEY
    §2.2 P6): FetchParse (rules defer_sizes=True) emits narrow
    ("photo", getSizes_url, photo_json) rows; this stage resolves each
    BATCH of photo rows through one ``session_get_many`` call and
    rewrites them into ordinary task rows (file_url = the
    size-preference pick), dropping photos whose getSizes fails — the
    reference's per-photo ``continue`` (flickr.py:96-99).  Non-photo
    rows pass through untouched, so the stage composes transparently
    between FetchParse and task_rows.

    Round-trips drop from one per PHOTO (the reference's nested fetch,
    serializing the parse actor on network latency) to one per BATCH;
    (parent_seq, emit_ord) ride along unchanged, so crawl ordering and
    filename assignment are identical to the nested path."""

    def __init__(self, url_map_ref, size_preference=None, flaky=None):
        from icrawler_ray.synthweb.fetchstub import make_session

        self.session = make_session(url_map_ref, flaky=flaky)
        self.rules = FlickrRules(apikey="", size_preference=size_preference)

    def __call__(self, batch):
        import numpy as np
        import pyarrow as pa

        kinds = np.asarray(batch["row_kind"].to_pylist(), dtype=object)
        photo = kinds == "photo"
        if not photo.any():
            return batch
        idx = np.flatnonzero(photo)
        urls = [batch["file_url"][int(i)].as_py() for i in idx]
        resolved: dict[int, str] = {}
        try:
            resps = session_get_many(self.session, urls)
        except Exception:
            resps = [None] * len(urls)
        for i, resp in zip(idx, resps):
            if resp is None or not (200 <= resp.status_code < 300):
                continue
            try:
                info = json.loads(resp.content.decode())
            except Exception:
                continue
            url = self.rules.pick_size(info)
            if url is not None:
                resolved[int(i)] = url
        file_url = batch["file_url"].to_pylist()
        for i in idx:
            if int(i) in resolved:
                kinds[int(i)] = "task"
                file_url[int(i)] = resolved[int(i)]
        keep = np.ones(len(kinds), dtype=bool)
        keep[idx] = [int(i) in resolved for i in idx]
        names = batch.schema.names
        batch = batch.set_column(names.index("row_kind"), "row_kind",
                                 pa.array(kinds.tolist(), type=pa.string()))
        batch = batch.set_column(names.index("file_url"), "file_url",
                                 pa.array(file_url, type=pa.string()))
        return batch.filter(pa.array(keep))

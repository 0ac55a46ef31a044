"""URL normalization / hashing / classification kit (SURVEY.md F5).

Reimplements (from semantics, not code) the URL handling scattered through
the reference:

- base-url derivation ``{scheme}://{netloc}`` (/root/reference/icrawler/parser.py:85)
- image-URL predicate ``re.match(r"(http|//)(.*)\\.(jpg|jpeg|png|bmp|gif|tiff)")``
  (/root/reference/icrawler/builtin/greedy.py:20,31-38,55-57)
- discard taxonomy: non-HTML file extension, ``javascript:`` prefix,
  non-{http,https,ftp} scheme (/root/reference/icrawler/builtin/greedy.py:58-67)
- path-extension extraction for filenames (/root/reference/icrawler/downloader.py:74-75)

(href normalization lives in the greedy parser, ``GreedyRules._norm_href``.)

Dedup keys come from one scalar kernel, :func:`canonical_urls`, run over
plain Python lists. Most crawl URLs are already canonical (``http(s)://``,
lowercase host without a port, no fragment, no trailing slash); the kernel
returns those unchanged after a few string tests and sends only the rest
through the regex :func:`canonicalize_one`. :func:`host_of_one` has the
same kind of fast path. :func:`canonicalize` and :func:`hosts_of` are thin
pandas Series wrappers over them, for callers that hold a Series.
:func:`classify_greedy` and :func:`path_ext` stay vectorized over pandas
str kernels. Hashing uses ``pandas.util.hash_array`` (stable 64-bit
SipHash with a fixed key -> deterministic across processes and runs; chosen
because xxhash is not installed in this environment).
"""

from __future__ import annotations

import re
from urllib.parse import urlsplit

import numpy as np
import pandas as pd

# The reference greedy image pattern, verbatim semantics: matches at the
# START of the string ("http" or "//") and requires ".<imgext>" anywhere
# later (greedy .* -> the LAST such occurrence; no end anchor).
IMAGE_URL_RE = re.compile(r"(http|\/\/)(.*)\.(jpg|jpeg|png|bmp|gif|tiff)")

HTML_EXTS = frozenset(["html", "shtml", "shtm", "php", "jsp", "asp"])
OK_SCHEMES = frozenset(["http", "https", "ftp"])


def base_url_of(url: str) -> str:
    """``{scheme}://{netloc}`` of a page URL (parser.py:85 semantics)."""
    p = urlsplit(url)
    return f"{p.scheme}://{p.netloc}"


def classify_greedy(urls: pd.Series, domains: list[str]) -> pd.Series:
    """Vectorized greedy-parser URL classification (greedy.py:55-67).

    Returns a Series of {"file","page","discard"}:
      file    -> matches the image pattern (emitted as a download task)
      page    -> same-domain HTML-ish link (fed back into the frontier)
      discard -> everything else
    Input URLs are assumed already normalized the way the greedy parser
    normalizes hrefs (``GreedyRules._norm_href``).
    """
    s = urls.astype("string")
    kind = pd.Series("discard", index=s.index, dtype="string")

    img = s.str.match(IMAGE_URL_RE, na=False)
    kind[img] = "file"

    nonimg = ~img & s.notna()
    # last path segment, split on ".": >1 parts and ext not html-ish -> discard
    last_seg = s[nonimg].str.split("/").str[-1]
    parts = last_seg.str.split(".")
    has_ext = parts.str.len() > 1
    # case-SENSITIVE, matching the reference (greedy.py:61) and the scalar
    # twin GreedyRules._classify: 'page.HTML' is discarded, not a page.
    ext = parts.str[-1]
    bad_ext = has_ext & ~ext.isin(list(HTML_EXTS))
    js = s[nonimg].str.slice(0, 10).str.find("javascript") == 0
    scheme = s[nonimg].str.extract(r"^([A-Za-z][A-Za-z0-9+.-]*):", expand=False).str.lower()
    bad_scheme = ~scheme.isin(list(OK_SCHEMES)) | scheme.isna()
    in_domain = pd.Series(False, index=s[nonimg].index)
    for d in domains:
        in_domain |= s[nonimg].str.contains(d, regex=False, na=False)
    page = nonimg.copy()
    page[nonimg] = ~bad_ext & ~js & ~bad_scheme & in_domain
    kind[page] = "page"
    return kind


_CANON_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.-]*)://([^/]*)(.*)$")
_HOST_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*://([^/]*)")
_DEFAULT_PORT_RE = {"http": re.compile(r":80$"), "https": re.compile(r":443$")}
_PORT_RE = re.compile(r":\d+$")


def canonicalize_one(url: str) -> str:
    """Canonical form used for dedup keys: lowercase scheme+host, default
    port stripped, fragment stripped, trailing slash stripped. A string
    that does not look like an absolute URL only loses its fragment and
    trailing slashes (the reference deduplicates raw strings,
    cached_queue.py:39-51 — our canonical form is strictly stronger).

    This is the regex definition; :func:`canonical_urls` calls it for every
    URL its fast path cannot prove canonical. ``$`` also matches before a
    final newline, so ``"http://h.com:80\n/x"`` loses its port too."""
    u = url.split("#")[0]
    m = _CANON_RE.match(u)
    if not m:
        return u.rstrip("/")
    scheme = m.group(1).lower()
    host = m.group(2).lower()
    port = _DEFAULT_PORT_RE.get(scheme)
    if port is not None:
        host = port.sub("", host)
    return (scheme + "://" + host + m.group(3)).rstrip("/")


def canonical_urls(urls: list) -> list:
    """:func:`canonicalize_one` over a list of strings. A URL comes back
    unchanged, without a regex, when it starts with ``http://`` or
    ``https://``, its netloc (up to the next ``/``) is non-empty, lowercase
    and has no ``:``, it has no ``#`` and no newline, and it does not end
    in ``/`` — the canonical form of such a URL is the URL itself."""
    out = []
    append = out.append
    for u in urls:
        if u.startswith("http://"):
            start = 7
        elif u.startswith("https://"):
            start = 8
        else:
            append(canonicalize_one(u))
            continue
        end = u.find("/", start)
        host = u[start:end] if end >= 0 else u[start:]
        if (host and ":" not in host and host == host.lower() and "#" not in u
                and "\n" not in u and u[-1] != "/"):
            append(u)
        else:
            append(canonicalize_one(u))
    return out


def host_of_one(url: str) -> str:
    """Host of a URL: netloc lowercased, any ``:<digits>`` port stripped,
    "" without a ``scheme://`` — the politeness/robots group key,
    port-agnostic."""
    if url.startswith("http://") or url.startswith("https://"):
        start = url.index("://") + 3
        end = url.find("/", start)
        host = (url[start:end] if end >= 0 else url[start:]).lower()
    else:
        m = _HOST_RE.match(url)
        if not m:
            return ""
        host = m.group(1).lower()
    head, colon, port = host.rpartition(":")
    if colon and port.isdecimal():  # isdecimal() is the regex's \d
        return head
    return _PORT_RE.sub("", host) if "\n" in host else host


def _map_series(kernel, urls: pd.Series) -> pd.Series:
    """``kernel`` (a list -> list function) over a Series of URLs, keeping
    its index; the result has ``string`` dtype and NA where the input is
    NA."""
    s = urls.astype("string")
    vals = np.asarray(s.array, dtype=object)
    na = s.isna().to_numpy()
    if na.any():
        vals = vals.copy()
        vals[na] = ""
    out = np.asarray(kernel(vals.tolist()), dtype=object)
    out[na] = pd.NA
    return pd.Series(pd.arrays.StringArray(out), index=s.index)


def canonicalize(urls: pd.Series) -> pd.Series:
    """:func:`canonical_urls` over a Series (NA stays NA)."""
    return _map_series(canonical_urls, urls)


def hosts_of(urls: pd.Series) -> pd.Series:
    """:func:`host_of_one` over a Series (NA stays NA)."""
    return _map_series(lambda vals: [host_of_one(u) for u in vals], urls)


def path_ext_one(url: str) -> str:
    """Scalar twin of :func:`path_ext`."""
    path = re.sub(r"^[A-Za-z][A-Za-z0-9+.-]*://[^/]*", "", url)
    path = path.split("?")[0].split("#")[0]
    if "." not in path:
        return ""
    return path.split(".")[-1]


def hash_urls(urls) -> np.ndarray:
    """Deterministic 64-bit hash of (canonical) URL strings -> uint64.

    ``pandas.util.hash_array`` = vectorized SipHash-1-3 with pandas' fixed
    default key; stable across processes, runs and machines for a given
    pandas major version (documented determinism), which is what checkpoint
    compatibility needs.
    """
    if isinstance(urls, pd.Series):
        arr = urls.to_numpy(dtype=object)
    else:
        arr = np.asarray(urls, dtype=object)
    return pd.util.hash_array(arr, categorize=False)


def path_ext(urls: pd.Series) -> pd.Series:
    """Extension from the URL *path* (downloader.py:74-75): parse path, if
    it contains ".", take the last dot-segment; else empty string."""
    s = urls.astype("string")
    # path = after scheme://host, before ? or #
    path = s.str.replace(r"^[A-Za-z][A-Za-z0-9+.-]*://[^/]*", "", regex=True)
    path = path.str.split("?").str[0].str.split("#").str[0]
    has_dot = path.str.contains(".", regex=False, na=False)
    ext = path.str.split(".").str[-1]
    return ext.where(has_dot, "")

"""URL normalization / hashing / classification kit (SURVEY.md F5).

Reimplements (from semantics, not code) the URL handling scattered through
the reference:

- base-url derivation ``{scheme}://{netloc}`` (/root/reference/icrawler/parser.py:85)
- href normalization: ``//``->``http:`` + rstrip("/"); leading ``/`` ->
  urljoin(base, href.strip("/")); ``#`` and len<2 skipped; everything else
  urljoin(base, href.rstrip("/"))  (/root/reference/icrawler/builtin/greedy.py:43-53)
- image-URL predicate ``re.match(r"(http|//)(.*)\\.(jpg|jpeg|png|bmp|gif|tiff)")``
  (/root/reference/icrawler/builtin/greedy.py:20,31-38,55-57)
- discard taxonomy: non-HTML file extension, ``javascript:`` prefix,
  non-{http,https,ftp} scheme (/root/reference/icrawler/builtin/greedy.py:58-67)
- path-extension extraction for filenames (/root/reference/icrawler/downloader.py:74-75)

All functions are **vectorized** over pandas Series of strings (pandas str
kernels are C-backed); the per-row fallback paths are only hit for rare
malformed URLs. Hashing uses ``pandas.util.hash_array`` (stable 64-bit
SipHash with a fixed key -> deterministic across processes and runs; chosen
because xxhash is not installed in this environment).
"""

from __future__ import annotations

import re
from urllib.parse import urljoin, urlsplit

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


def normalize_hrefs(hrefs: pd.Series, base_url: str) -> pd.Series:
    """Vectorized href normalization with the reference's exact rules
    (greedy.py:43-53). Returns normalized URLs; rows that the reference
    skips (len<2, fragment-leading) become NaN.
    """
    s = hrefs.astype("string")
    out = pd.Series(pd.NA, index=s.index, dtype="string")

    too_short = s.str.len() < 2
    frag = s.str.startswith("#") & ~too_short
    proto_rel = s.str.startswith("//") & ~too_short
    root_rel = s.str.startswith("/") & ~proto_rel & ~too_short
    rest = ~(too_short | frag | proto_rel | root_rel)

    out[proto_rel] = "http:" + s[proto_rel].str.rstrip("/")
    # urljoin(base, href.strip("/")) where base has no path => base + "/" + x
    # — ONLY for plain path strings. Everything urljoin treats specially
    # (leading '?'/'#'/';'/'.', a colon in the first segment, dot-segments)
    # takes the per-row urljoin fallback. Property-fuzzed against the
    # scalar twin (tests/test_urlnorm.py).
    root_vals = s[root_rel].str.strip("/")
    root_simple = (
        root_vals.str.match(r"^(?![.;?#\s])(?![^/]*:).", na=False)
        # urljoin splits off ';params', '?query' and '#frag' before dot
        # removal, so '.;x' or '..?y' are dot-segments too
        & ~root_vals.str.contains(r"(?:^|/)\.\.?(?:[/;?#]|$)", regex=True, na=False)
        & ~root_vals.str.contains("//", regex=False, na=False)
        & ~root_vals.str.contains(r";[?#]", regex=True, na=False)
        & ~root_vals.str.contains(r"\?#", regex=True, na=False)
        & ~root_vals.str.contains(r"[\t\r\n]", regex=True, na=False)
        & ~root_vals.str.match(r".*[;?#\s]$", na=False)
    )
    out[root_vals[root_simple].index] = base_url.rstrip("/") + "/" + root_vals[root_simple]
    for i in root_vals[~root_simple].index:
        out[i] = urljoin(base_url, root_vals[i])
    # the else-branch: urljoin(base, href.rstrip("/")). Fast passthrough for
    # (a) well-formed absolute http(s) URLs — same conditions as the scalar
    # fast path (non-empty netloc, no bare trailing ?/#) — and (b) hrefs
    # with a NON-http(s) scheme, which urljoin returns unchanged when the
    # scheme differs from the base's. 'http:x'-style same-scheme-no-netloc
    # hrefs get relative resolution and must take the fallback.
    rest_vals = s[rest].str.rstrip("/")
    abs_http = (rest_vals.str.match(r"^https?://[^/]", na=False)
                & ~rest_vals.str.match(r".*[?#\s]$", na=False)
                & ~rest_vals.str.contains(r"\?#", regex=True, na=False)
                & ~rest_vals.str.contains(r"[;\t\r\n]", regex=True, na=False))
    other_scheme = (rest_vals.str.match(r"^[A-Za-z][A-Za-z0-9+.\-]*:", na=False)
                    & ~rest_vals.str.match(r"^https?:", na=False)
                    & ~rest_vals.str.match(r".*\s$", na=False)
                    & ~rest_vals.str.contains(r"[\t\r\n]", regex=True, na=False))
    abs_mask = abs_http | other_scheme
    out[rest_vals[abs_mask].index] = rest_vals[abs_mask]
    rel_idx = rest_vals[~abs_mask].index
    if len(rel_idx):
        out[rel_idx] = [urljoin(base_url, h) for h in rest_vals[~abs_mask]]
    return out


def classify_greedy(urls: pd.Series, domains: list[str]) -> pd.Series:
    """Vectorized greedy-parser URL classification (greedy.py:55-67).

    Returns a Series of {"file","page","discard"}:
      file    -> matches the image pattern (emitted as a download task)
      page    -> same-domain HTML-ish link (fed back into the frontier)
      discard -> everything else
    Input URLs are assumed already normalized by :func:`normalize_hrefs`.
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


def canonicalize(urls: pd.Series) -> pd.Series:
    """Canonical form used for dedup keys: lowercase scheme+host, default
    port stripped, fragment stripped, trailing slash stripped. Vectorized
    via regex capture; rows that don't look like absolute URLs pass through
    rstrip("/") unchanged (the reference deduplicates raw strings,
    cached_queue.py:39-51 — our canonical form is strictly stronger).
    """
    s = urls.astype("string")
    s = s.str.split("#").str[0]
    m = s.str.extract(r"^([A-Za-z][A-Za-z0-9+.-]*)://([^/]*)(.*)$")
    scheme = m[0].str.lower()
    host = m[1].str.lower()
    rest = m[2].fillna("")
    host = host.mask(scheme == "http", host.str.replace(r":80$", "", regex=True))
    host = host.mask(scheme == "https", host.str.replace(r":443$", "", regex=True))
    out = (scheme + "://" + host + rest).str.rstrip("/")
    out = out.fillna(s.str.rstrip("/"))
    return out


def hosts_of(urls: pd.Series) -> pd.Series:
    """Vectorized host (netloc lowercased, port stripped) extraction —
    politeness/robots group key, port-agnostic."""
    h = urls.astype("string").str.extract(r"^[A-Za-z][A-Za-z0-9+.-]*://([^/]*)", expand=False).str.lower()
    return h.str.replace(r":\d+$", "", regex=True).fillna("")


_CANON_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.-]*)://([^/]*)(.*)$")
_HOST_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*://([^/]*)")


def canonicalize_one(url: str) -> str:
    """Scalar twin of :func:`canonicalize` (same output, no pandas) — used
    by the sequential oracle where per-row Series construction would
    dominate; equality with the vectorized version is unit-tested."""
    u = url.split("#")[0]
    m = _CANON_RE.match(u)
    if not m:
        return u.rstrip("/")
    scheme = m.group(1).lower()
    host = m.group(2).lower()
    if scheme == "http" and host.endswith(":80"):
        host = host[:-3]
    elif scheme == "https" and host.endswith(":443"):
        host = host[:-4]
    return (scheme + "://" + host + m.group(3)).rstrip("/")


def host_of_one(url: str) -> str:
    """Scalar twin of :func:`hosts_of`."""
    m = _HOST_RE.match(url)
    if not m:
        return ""
    return re.sub(r":\d+$", "", m.group(1).lower())


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

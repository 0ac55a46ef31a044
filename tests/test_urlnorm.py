"""Unit tests for the URL kit (SURVEY.md F5) against the reference's exact
rules (greedy.py:43-67, parser.py:85, downloader.py:74-75)."""

import numpy as np
import pandas as pd

from icrawler_ray.functions.urlnorm import (
    canonical_urls,
    canonicalize,
    canonicalize_one,
    classify_greedy,
    hash_urls,
    host_of_one,
    hosts_of,
    path_ext,
    path_ext_one,
)

BASE = "http://h0.example.com"


def ref_canonicalize(urls: pd.Series) -> pd.Series:
    """Independent definition of the canonical form: pandas regex string
    kernels, one step per rule. The url_hash keys in checkpoints were
    computed with exactly this formula."""
    s = urls.astype("string")
    s = s.str.split("#").str[0]
    m = s.str.extract(r"^([A-Za-z][A-Za-z0-9+.-]*)://([^/]*)(.*)$")
    scheme = m[0].str.lower()
    host = m[1].str.lower()
    rest = m[2].fillna("")
    host = host.mask(scheme == "http", host.str.replace(r":80$", "", regex=True))
    host = host.mask(scheme == "https", host.str.replace(r":443$", "", regex=True))
    out = (scheme + "://" + host + rest).str.rstrip("/")
    return out.fillna(s.str.rstrip("/"))


def ref_hosts_of(urls: pd.Series) -> pd.Series:
    """Independent definition of the host key (pandas regex kernels)."""
    h = urls.astype("string").str.extract(
        r"^[A-Za-z][A-Za-z0-9+.-]*://([^/]*)", expand=False).str.lower()
    return h.str.replace(r":\d+$", "", regex=True).fillna("")


def assert_kit_matches_reference(urls: list) -> None:
    """The list kernel, its scalar slow path, the Series wrappers and the
    host key equal the pandas reference formulas on ``urls``; path_ext_one
    equals path_ext."""
    s = pd.Series(urls, dtype="string")
    ref_c = ref_canonicalize(s).fillna("").tolist()
    ref_h = ref_hosts_of(s).tolist()
    assert canonical_urls(urls) == ref_c, urls
    assert canonicalize(s).fillna("").tolist() == ref_c, urls
    assert hosts_of(s).tolist() == ref_h, urls
    vec_e = path_ext(s).fillna("").tolist()
    for i, u in enumerate(urls):
        assert canonicalize_one(u) == ref_c[i], u
        assert host_of_one(u) == ref_h[i], u
        assert path_ext_one(u) == vec_e[i], u


def test_classify_greedy_taxonomy():
    urls = pd.Series([
        "http://img.com/a.jpg",              # image pattern -> file
        "//img.com/b.png",                   # protocol-relative image -> file
        "http://h0.example.com/p/1.html",    # same-domain html -> page
        "http://h0.example.com/p/1.shtml",   # whitelist ext -> page
        "http://h0.example.com/f.zip",       # bad ext -> discard
        "javascript:void(0)",                # js scheme -> discard
        "android-app://x/y.html",            # bad scheme -> discard
        "http://other.com/p.html",           # off-domain -> discard
        "http://h0.example.com/plain",       # no ext, same domain -> page
        "http://h0.example.com/p/1.HTML",    # case-sensitive ext (ref) -> discard
    ])
    kinds = classify_greedy(urls, [BASE]).tolist()
    assert kinds == ["file", "file", "page", "page", "discard", "discard",
                     "discard", "discard", "page", "discard"]


def test_image_pattern_matches_reference_regex():
    # reference pattern: (http|//)(.*)\.(jpg|jpeg|png|bmp|gif|tiff), re.match
    urls = pd.Series([
        "http://a/x.jpg",
        "http://a/x.jpg.html",   # greedy .* still finds .jpg -> matches (reference quirk)
        "ftp://a/x.jpg",         # doesn't start with http or //
        "https://a/x.tiff",      # https starts with 'http'
        "http://a/x.svg",
    ])
    kinds = classify_greedy(urls, ["http://a"]).tolist()
    assert kinds[0] == "file"
    assert kinds[1] == "file"
    assert kinds[2] == "discard"   # not an image match AND ftp w/ bad ext... (.jpg ext not in html list)
    assert kinds[3] == "file"
    assert kinds[4] == "discard"


def test_canonicalize():
    s = pd.Series([
        "HTTP://Host.COM:80/a/b/#frag",
        "https://h.com:443/x/",
        "http://h.com:8080/y",
        "http://h.com",
    ])
    out = canonicalize(s).tolist()
    assert out == ["http://host.com/a/b", "https://h.com/x", "http://h.com:8080/y", "http://h.com"]


def test_hash_stability_and_hosts():
    urls = ["http://a.com/x", "http://b.com/y"]
    h1 = hash_urls(urls)
    h2 = hash_urls(list(urls))
    assert h1.dtype == np.uint64 and (h1 == h2).all() and h1[0] != h1[1]
    assert hosts_of(pd.Series(["http://A.com:80/x", "https://b.com/y", "nope"])).tolist() == [
        "a.com", "b.com", ""]


def test_path_ext():
    s = pd.Series(["http://a/b/c.JPG?x=1", "http://a/b/c", "http://a/x.tar.gz", "http://a/q?d=.png"])
    assert path_ext(s).tolist() == ["JPG", "", "gz", ""]


def test_scalar_twins_match_vectorized():
    """canonical_urls, canonicalize_one and host_of_one (and their Series
    wrappers) equal the pandas reference formulas, and path_ext_one equals
    path_ext, on every URL shape (the oracle and the dedup keys depend on
    this)."""
    assert_kit_matches_reference([
        "HTTP://Host.COM:80/a/b/#frag", "https://h.com:443/x/", "http://h.com:8080/y",
        "http://h.com", "relative/path", "//proto.rel/x", "javascript:void(0)",
        "http://a/b/c.JPG?x=1", "http://a/x.tar.gz", "ftp://F.com:21/z/",
        "http://img0.example.com/i/5.jpg", "", "#only-frag", "http://h.com/p/1.html/",
        # '$' also matches before a final newline: the port goes, the '\n' stays
        "http://h.com/a/\n", "http://h.com:80\n/x", "https://h.com:443\n", "http://h:12\n",
        "http://", "http:///x", "http://h.com?q=1", "https://123.45/x", "http://h.com:/x",
    ])
    # every combination of the fast path's parts
    assert_kit_matches_reference([
        f"{sc}://{h}{po}{pa}{fr}{t}" for sc in _SCHEMES for h in _HOSTS for po in _PORTS
        for pa in _PATHS for fr in _FRAGS for t in _TAILS])


def test_series_wrappers_keep_na_index_and_dtype():
    s = pd.Series(["http://A.com/x/", None, "b/"], index=[7, 3, 5], dtype="string")
    for fn, want in ((canonicalize, ["http://a.com/x", "", "b"]),
                     (hosts_of, ["a.com", "", ""])):
        out = fn(s)
        assert out.dtype == "string" and out.index.tolist() == [7, 3, 5]
        assert out.isna().tolist() == [False, True, False]
        assert out.fillna("").tolist() == want
    # object input with NaN/None, as pandas callers pass it
    assert canonicalize(pd.Series(["http://a.com/", np.nan, None])).isna().tolist() == [
        False, True, True]


def test_golden_url_hashes():
    """url_hash keys live in checkpoints: these values were computed with
    the pandas formula (ref_canonicalize) and must never change."""
    urls = pd.Series(["HTTP://Host.COM:80/a/b/#frag", "https://h.com:443/x/",
                      "http://h.com:8080/y", "http://img0.example.com/i/5.jpg", ""],
                     dtype="string")
    assert hash_urls(canonicalize(urls).fillna("")).tolist() == [
        4068887871963600439, 14629249698195226159, 5445842395422057963,
        17999040311042967330, 1760245841805064774]


# --------------------------------------------------------- property fuzz

from hypothesis import given, settings
from hypothesis import strategies as st

_url_chars = st.text(
    alphabet="abcXYZ019-._~:/?#@!$&'()*+,;=% \t\nABCH", min_size=0, max_size=40)
_urlish = st.one_of(
    _url_chars,
    st.builds(lambda h, p: f"http://{h}.com/{p}", st.text("abch0", max_size=8),
              _url_chars),
    st.builds(lambda p: "//" + p, _url_chars),
    st.builds(lambda p: "/" + p, _url_chars),
)
#: the parts of a URL at and around the kernel's fast path: scheme case,
#: host case, digit-only hosts, ports, fragments, trailing slashes and
#: newlines; the first choice of each part keeps the URL canonical
_SCHEMES = ["http", "https", "HTTP", "Https", "ftp"]
_HOSTS = ["h0.example.com", "Img0.Example.COM", "123.45", "xn--bcher-kva.ch"]
_PORTS = ["", ":80", ":443", ":8080", ":", ":80\n"]
_PATHS = ["", "/i/5.jpg", "/a/B?q=1", "/a\n/b"]
_FRAGS = ["", "#", "#frag", "#A/"]
_TAILS = ["", "/", "//", "\n"]
_fastish = st.builds(
    lambda *parts: "{}://{}{}{}{}{}".format(*parts),
    *(st.one_of(st.just(p[0]), st.sampled_from(p)) for p in (
        _SCHEMES, _HOSTS + ["", "aB", "0"], _PORTS, _PATHS, _FRAGS, _TAILS)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_urlish, _fastish, st.just("")), min_size=1, max_size=8))
def test_fuzz_scalar_twins_match_vectorized(urls):
    """Property: the URL kernels (used by the crawl, the oracle and the
    queries) equal the pandas reference formulas on arbitrary URL-ish
    strings, fast-path-shaped ones included."""
    assert_kit_matches_reference(urls)


@settings(max_examples=400, deadline=None)
@given(_urlish)
def test_fuzz_norm_href_matches_reference_formula(href):
    """Ground truth: the scalar _norm_href (with its fast paths) equals the
    VERBATIM reference formula (greedy.py:43-53) on arbitrary strings."""
    from urllib.parse import urljoin

    from icrawler_ray.stages.parsers import GreedyRules

    base = "http://h0.example.com"

    def ref_norm(h):
        if len(h) < 2:
            return None
        if h[0:2] == "//":
            return "http:" + h.rstrip("/")
        if h[0] == "/":
            return urljoin(base, h.strip("/"))
        if h[0] == "#":
            return None
        return urljoin(base, h.rstrip("/"))

    rules = GreedyRules([base])
    assert rules._norm_href(href, base) == ref_norm(href), href

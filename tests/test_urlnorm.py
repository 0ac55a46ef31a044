"""Unit tests for the URL kit (SURVEY.md F5) against the reference's exact
rules (greedy.py:43-67, parser.py:85, downloader.py:74-75)."""

import numpy as np
import pandas as pd

from icrawler_ray.functions.urlnorm import (
    canonicalize,
    classify_greedy,
    hash_urls,
    hosts_of,
    normalize_hrefs,
    path_ext,
)

BASE = "http://h0.example.com"


def test_normalize_hrefs_reference_rules():
    hrefs = pd.Series([
        "//x.com/a/",          # protocol-relative -> http: + rstrip /
        "/p/1.html/",          # root-relative -> urljoin(base, strip("/"))
        "#frag",               # skipped
        "a",                   # len < 2 -> skipped
        "p/2.html",            # relative -> urljoin(base, rstrip("/"))
        "http://y.com/q/",     # absolute -> rstrip("/")
        "javascript:void(0)",  # normalized through; discarded later
        "a/b:c.html",          # colon in path, NOT absolute -> urljoin
        "/?q",                 # root-relative query -> urljoin(base, "?q")
        "mailto:x@y.com",      # real scheme -> passthrough
    ])
    out = normalize_hrefs(hrefs, BASE).tolist()
    assert out[0] == "http://x.com/a"
    assert out[1] == "http://h0.example.com/p/1.html"
    assert pd.isna(out[2]) and pd.isna(out[3])
    assert out[4] == "http://h0.example.com/p/2.html"
    assert out[5] == "http://y.com/q"
    assert out[6] == "javascript:void(0)"
    assert out[7] == "http://h0.example.com/a/b:c.html"
    assert out[8] == "http://h0.example.com?q"
    assert out[9] == "mailto:x@y.com"


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
    """canonicalize_one/host_of_one/path_ext_one must equal the vectorized
    versions on every URL shape (the oracle depends on this)."""
    from icrawler_ray.functions.urlnorm import canonicalize_one, host_of_one, path_ext_one

    urls = [
        "HTTP://Host.COM:80/a/b/#frag", "https://h.com:443/x/", "http://h.com:8080/y",
        "http://h.com", "relative/path", "//proto.rel/x", "javascript:void(0)",
        "http://a/b/c.JPG?x=1", "http://a/x.tar.gz", "ftp://F.com:21/z/",
        "http://img0.example.com/i/5.jpg", "", "#only-frag", "http://h.com/p/1.html/",
    ]
    s = pd.Series(urls, dtype="string")
    vec_c = canonicalize(s).fillna("").tolist()
    vec_h = hosts_of(s).tolist()
    vec_e = path_ext(s).fillna("").tolist()
    for i, u in enumerate(urls):
        assert canonicalize_one(u) == vec_c[i], u
        assert host_of_one(u) == vec_h[i], u
        assert path_ext_one(u) == vec_e[i], u


# --------------------------------------------------------- property fuzz

from hypothesis import example, given, settings
from hypothesis import strategies as st

_url_chars = st.text(
    alphabet="abcXYZ019-._~:/?#@!$&'()*+,;=% \t", min_size=0, max_size=40)
_urlish = st.one_of(
    _url_chars,
    st.builds(lambda h, p: f"http://{h}.com/{p}", st.text("abch0", max_size=8),
              _url_chars),
    st.builds(lambda p: "//" + p, _url_chars),
    st.builds(lambda p: "/" + p, _url_chars),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_urlish, min_size=1, max_size=8))
def test_fuzz_scalar_twins_match_vectorized(urls):
    """Property: the scalar URL kit (used by the sequential oracle) and the
    vectorized kit (used by the queries) agree on arbitrary URL-ish
    strings."""
    from icrawler_ray.functions.urlnorm import canonicalize_one, host_of_one, path_ext_one

    s = pd.Series(urls, dtype="string")
    vec_c = canonicalize(s).fillna("").tolist()
    vec_h = hosts_of(s).tolist()
    vec_e = path_ext(s).fillna("").tolist()
    for i, u in enumerate(urls):
        assert canonicalize_one(u) == vec_c[i], u
        assert host_of_one(u) == vec_h[i], u
        assert path_ext_one(u) == vec_e[i], u


@settings(max_examples=300, deadline=None)
@given(st.lists(_urlish, min_size=1, max_size=8))
@example(["/0/.;0", "/a/..;x", "/0/.?x", "/0/..#y"])  # dot-segments before ;?#
def test_fuzz_norm_href_twins(hrefs):
    """Property: GreedyRules._norm_href (scalar, oracle/crawl path,
    including the absolute-URL urljoin fast path) and normalize_hrefs
    (vectorized, query path) agree on arbitrary href-ish strings."""
    from icrawler_ray.functions.urlnorm import normalize_hrefs
    from icrawler_ray.stages.parsers import GreedyRules

    base = "http://h0.example.com"
    rules = GreedyRules([base])
    vec = normalize_hrefs(pd.Series(hrefs, dtype="string"), base)
    for i, h in enumerate(hrefs):
        scalar = rules._norm_href(h, base)
        v = vec.iloc[i]
        v = None if pd.isna(v) else v
        assert scalar == v, (h, scalar, v)


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

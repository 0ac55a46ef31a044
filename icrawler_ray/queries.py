"""Driver-facing query suite: one entry per implemented operator/pipeline
(SURVEY.md §2 + the training-data operator families), each over the
driver's parquet tables, with a DuckDB-runnable ANSI-SQL oracle where the
op is SQL-expressible (column names matched exactly; floats rounded
identically on both sides to make the value-hash comparison robust).

Conventions:
- every callable takes ``sf_dir`` and returns a Dataset / DataFrame / Table
- no ray.init/shutdown here (driver owns the session)
- reads prune columns at the source
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from icrawler_ray.functions.baidu_cipher import CIPHER_FROM, CIPHER_TO, decode_batch
from icrawler_ray.functions.urlnorm import canonicalize, classify_greedy


def _read(sf_dir: str, table: str, columns=None) -> rd.Dataset:
    """Column-pruned parquet read with schema METADATA stripped: the
    testdata files carry a ``pandas`` metadata blob that makes pa.Schema
    unhashable, which defeats Ray's schema-dedup fast path and spams a
    warning from every read task."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    path = f"{sf_dir}/{table}.parquet"
    sch = pq.read_schema(path).remove_metadata()
    if columns:
        sch = pa.schema([sch.field(c) for c in columns])
    return rd.read_parquet(path, columns=columns, schema=sch)


# =====================================================================
# A. engine relational primitives (groupby / join / sort / filter / window)
# =====================================================================

def q_agg_lineitem(sf_dir: str):
    """TPC-H Q1-shaped grouped aggregate, pre-aggregated: each batch emits
    one PARTIAL row per (returnflag, linestatus) — 6 keys — so the shuffle
    moves a handful of rows per block instead of every lineitem (the
    combiner pattern for aggregation at scale)."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df["revenue"] = df["l_extendedprice"] * (1.0 - df["l_discount"])
        g = df.groupby(["l_returnflag", "l_linestatus"], sort=False).agg(
            sum_qty=("l_quantity", "sum"), sum_base=("l_extendedprice", "sum"),
            sum_rev=("revenue", "sum"), n=("l_quantity", "size"),
        )
        return g.reset_index()

    # final reduce over the combiner partials happens in pandas: the
    # partials are (#keys x #blocks) rows — OUTPUT-sized, not input-sized —
    # and Ray's sort-based aggregate costs ~2.5s of fixed shuffle machinery
    # to move 384 rows (measured via ds.stats()). At a key cardinality
    # where partials stop being small, switch back to groupby().aggregate.
    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby(["l_returnflag", "l_linestatus"], as_index=False).sum()
    for c in ("sum_qty", "sum_base", "sum_rev"):
        out[c] = out[c].round(2)
    out["n"] = out["n"].astype("int64")
    return out


SQL_AGG_LINEITEM = """
SELECT l_returnflag, l_linestatus,
       ROUND(SUM(l_quantity), 2) AS sum_qty,
       ROUND(SUM(l_extendedprice), 2) AS sum_base,
       ROUND(SUM(l_extendedprice * (1.0 - l_discount)), 2) AS sum_rev,
       COUNT(*) AS n
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


def q_join_revenue_by_nation(sf_dir: str):
    """orders x customer x nation revenue rollup. customer+nation are the
    small sides: broadcast once via ray.put, merged per batch (no shuffle
    join; the only exchange is the final small groupby)."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas()
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    dim = cust.merge(nation, left_on="c_nationkey", right_on="n_nationkey")
    dim_ref = ray.put(dim[["c_custkey", "n_name"]])

    def join_batch(t: pa.Table) -> pa.Table:
        # broadcast merge + per-batch COMBINER: one partial row per nation
        # per batch leaves the task, not one row per order
        d = ray.get(dim_ref)
        df = t.to_pandas().merge(d, left_on="o_custkey", right_on="c_custkey", how="inner")
        g = df.groupby("n_name", sort=False).agg(
            revenue=("o_totalprice", "sum"), n_orders=("o_totalprice", "size"))
        return pa.Table.from_pandas(g.reset_index(),
                                    preserve_index=False).replace_schema_metadata(None)

    parts = (
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .map_batches(join_batch, batch_format="pyarrow")
    ).to_pandas()  # output-sized partials; pandas final reduce (see q_agg_lineitem)
    out = parts.groupby("n_name", as_index=False).sum()
    out["revenue"] = out["revenue"].round(2)
    out["n_orders"] = out["n_orders"].astype("int64")
    return out


SQL_JOIN_REVENUE_BY_NATION = """
SELECT n_name, ROUND(SUM(o_totalprice), 2) AS revenue, COUNT(*) AS n_orders
FROM orders JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name
"""


def q_topk_orders(sf_dir: str):
    """sort + limit (top-k) with a deterministic tiebreak."""
    return (
        _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
        .sort(["o_totalprice", "o_orderkey"], descending=[True, False])
        .limit(10)
    )


SQL_TOPK_ORDERS = """
SELECT o_orderkey, o_totalprice FROM orders
ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
"""


def q_filter_project_lineitem(sf_dir: str):
    """pushdown-friendly filter + computed projection."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_extendedprice", "l_discount", "l_shipdate"])

    def fn(t: pa.Table) -> pa.Table:
        m = pc.less(t["l_shipdate"], pa.scalar(pd.Timestamp("1995-06-01")))
        t = t.filter(m)
        rev = pc.round(pc.multiply(t["l_extendedprice"],
                                   pc.subtract(pa.scalar(1.0), t["l_discount"])), 4)
        return pa.table(
            {"l_orderkey": t["l_orderkey"], "l_linenumber": t["l_linenumber"], "revenue": rev}
        )

    return ds.map_batches(fn, batch_format="pyarrow")


SQL_FILTER_PROJECT_LINEITEM = """
SELECT l_orderkey, l_linenumber,
       ROUND(l_extendedprice * (1.0 - l_discount), 4) AS revenue
FROM lineitem WHERE l_shipdate < TIMESTAMP '1995-06-01'
"""


def q_events_hourly(sf_dir: str):
    """tumbling event-time window: per (event_type, hour) count + sum,
    pre-aggregated per batch (combiner) before the key shuffle."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # datetime64[us] -> epoch seconds
        df["hour_ts"] = (df["ts"].dt.floor("h").astype("int64") // 10**6).astype("int64")
        g = df.groupby(["event_type", "hour_ts"], sort=False).agg(
            n=("value", "size"), sum_value=("value", "sum"))
        return g.reset_index()

    # pandas final reduce over output-sized combiner partials (see
    # q_agg_lineitem note on the measured fixed cost of the Ray aggregate)
    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby(["event_type", "hour_ts"], as_index=False).sum()
    out["sum_value"] = out["sum_value"].round(2)
    out["n"] = out["n"].astype("int64")
    return out


SQL_EVENTS_HOURLY = """
SELECT event_type, CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS hour_ts,
       COUNT(*) AS n, ROUND(SUM(value), 2) AS sum_value
FROM events GROUP BY event_type, hour_ts
"""


def q_events_sessionize(sf_dir: str):
    """session windows (30-min inactivity gap) per user — the
    streaming-shaped op: groupby(user) -> per-group ordered pandas walk
    (the partition key + within-group ts order is the documented
    assumption)."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    # hash-partition users into a BOUNDED number of fat groups and walk
    # each partition vectorized (sort + shift + pandas groupby) — one
    # pandas group per user is the many-tiny-groups map_groups pitfall
    P = 32

    def add_part(df: pd.DataFrame) -> pd.DataFrame:
        df["part"] = (df["user_id"].to_numpy() % P).astype(np.int32)
        return df

    def sessions_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        same_user = g["user_id"].eq(g["user_id"].shift())
        gap = (g["ts"].diff() > pd.Timedelta(minutes=30)) & same_user
        res = pd.DataFrame({"user_id": g["user_id"].to_numpy(), "gap": gap.to_numpy()})
        out = res.groupby("user_id", as_index=False).agg(
            n_sessions=("gap", "sum"), n_events=("gap", "size"))
        out["n_sessions"] = out["n_sessions"].astype("int64") + 1
        out["n_events"] = out["n_events"].astype("int64")
        return out

    return (ds.map_batches(add_part, batch_format="pandas")
            .groupby("part").map_groups(sessions_part, batch_format="pandas"))


SQL_EVENTS_SESSIONIZE = """
WITH flagged AS (
  SELECT user_id, ts,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_sess
  FROM events)
SELECT user_id, CAST(SUM(new_sess) + 1 AS BIGINT) AS n_sessions, COUNT(*) AS n_events
FROM flagged GROUP BY user_id
"""


# =====================================================================
# B. crawl-semantics operators mapped onto the driver tables
# =====================================================================

def q_seed_window(sf_dir: str):
    """UrlListFeeder offset/max_num window (feeder.py:47-70) over the
    dense doc_id ordering (positional window == id window here)."""
    return (
        _read(sf_dir, "documents", ["doc_id", "n_chars"])
        .filter(expr="doc_id >= 100 and doc_id < 300")
    )


SQL_SEED_WINDOW = "SELECT doc_id, n_chars FROM documents WHERE doc_id >= 100 AND doc_id < 300"


def q_expand_google(sf_dir: str):
    """plan-time Google search-URL expansion (S4 + filter DSL F2)."""
    from icrawler_ray.sources.seeds import google_search_urls

    urls = google_search_urls("cat", 0, 1000, filters={"type": "photo"})
    return pd.DataFrame({"start": np.arange(0, 1000, 100, dtype=np.int64), "url": urls})


SQL_EXPAND_GOOGLE = """
SELECT i AS start,
       'https://www.google.com/search?q=cat&ijn=' || CAST(i // 100 AS VARCHAR)
       || '&start=' || CAST(i AS VARCHAR) || '&tbs=itp%3Aphoto&tbm=isch' AS url
FROM generate_series(0, 999, 100) t(i)
"""


def q_expand_bing(sf_dir: str):
    from icrawler_ray.sources.seeds import bing_search_urls

    urls = bing_search_urls("cat", 0, 200, filters={"color": "red"})
    return pd.DataFrame({"first": np.arange(0, 200, 20, dtype=np.int64), "url": urls})


SQL_EXPAND_BING = """
SELECT i AS "first",
       'https://www.bing.com/images/async?q=cat&first=' || CAST(i AS VARCHAR)
       || '&qft=+filterui:color2-FGcls_RED' AS url
FROM generate_series(0, 199, 20) t(i)
"""


def q_expand_baidu(sf_dir: str):
    from icrawler_ray.sources.seeds import baidu_search_urls

    urls = baidu_search_urls("cat", 0, 300, filters={"size": "large"})
    return pd.DataFrame({"pn": np.arange(0, 300, 30, dtype=np.int64), "url": urls})


SQL_EXPAND_BAIDU = """
SELECT i AS pn,
       'http://image.baidu.com/search/acjson?tn=resultjson_com&ipn=rj&word=cat&pn='
       || CAST(i AS VARCHAR) || '&rn=30&z=3' AS url
FROM generate_series(0, 299, 30) t(i)
"""


def q_baidu_decode(sf_dir: str):
    """Baidu objURL cipher (P5): both sides build the same ciphertext from
    doc_id and decode it with INDEPENDENT implementations (Python
    translate-chain vs SQL replace+translate) — agreement cross-validates
    the cipher tables."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        ct = "ippr_z2C$qAzdH3FAzdH3Ft4n" + df["doc_id"].astype(str) + "_z&e3Bjrn"
        return pd.DataFrame({"doc_id": df["doc_id"], "decoded": decode_batch(ct)})

    return ds.map_batches(fn, batch_format="pandas")


SQL_BAIDU_DECODE = f"""
SELECT doc_id,
       translate(
         replace(replace(replace(
           'ippr_z2C$qAzdH3FAzdH3Ft4n' || CAST(doc_id AS VARCHAR) || '_z&e3Bjrn',
           '_z2C$q', ':'), '_z&e3B', '.'), 'AzdH3F', '/'),
         '{CIPHER_FROM}', '{CIPHER_TO}') AS decoded
FROM documents
"""


def q_classify_urls(sf_dir: str):
    """greedy link-classification taxonomy (P7/P8, greedy.py:55-67) over
    synthesized URLs; the SQL oracle states the spec's expected label per
    URL class independently."""
    ds = _read(sf_dir, "documents", ["doc_id"])
    domains = ["http://site.example.com", "http://img.example.com"]

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].astype(str)
        k = df["doc_id"] % 6
        url = pd.Series("", index=df.index, dtype="string")
        url[k == 0] = "http://img.example.com/i/" + d + ".jpg"
        url[k == 1] = "http://site.example.com/p/" + d + ".html"
        url[k == 2] = "http://site.example.com/f/" + d + ".zip"
        url[k == 3] = "javascript:void(" + d + ")"
        url[k == 4] = "android-app://com.x/p" + d + ".html"
        url[k == 5] = "http://other.com/p/" + d + ".html"
        return pd.DataFrame(
            {"doc_id": df["doc_id"], "url": url.astype(object),
             "kind": classify_greedy(url, domains).astype(object)}
        )

    return ds.map_batches(fn, batch_format="pandas")


SQL_CLASSIFY_URLS = """
SELECT doc_id,
  CASE doc_id % 6
    WHEN 0 THEN 'http://img.example.com/i/' || CAST(doc_id AS VARCHAR) || '.jpg'
    WHEN 1 THEN 'http://site.example.com/p/' || CAST(doc_id AS VARCHAR) || '.html'
    WHEN 2 THEN 'http://site.example.com/f/' || CAST(doc_id AS VARCHAR) || '.zip'
    WHEN 3 THEN 'javascript:void(' || CAST(doc_id AS VARCHAR) || ')'
    WHEN 4 THEN 'android-app://com.x/p' || CAST(doc_id AS VARCHAR) || '.html'
    ELSE 'http://other.com/p/' || CAST(doc_id AS VARCHAR) || '.html' END AS url,
  CASE doc_id % 6
    WHEN 0 THEN 'file' WHEN 1 THEN 'page' ELSE 'discard' END AS kind
FROM documents
"""


def q_canonicalize_urls(sf_dir: str):
    """URL canonicalization (F5): lowercase scheme+host, default port and
    fragment stripped; oracle states the expected canonical form."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].astype(str)
        k = (df["doc_id"] % 7).astype(str)
        raw = "HTTP://Site" + k + ".Example.COM:80/p/" + d + "#frag"
        return pd.DataFrame(
            {"doc_id": df["doc_id"],
             "url_canon": canonicalize(pd.Series(raw, dtype="string")).astype(object)}
        )

    return ds.map_batches(fn, batch_format="pandas")


SQL_CANONICALIZE_URLS = """
SELECT doc_id,
  'http://site' || CAST(doc_id % 7 AS VARCHAR) || '.example.com/p/'
  || CAST(doc_id AS VARCHAR) AS url_canon
FROM documents
"""


def q_politeness_schedule(sf_dir: str):
    """per-host politeness budget (north rule): treat source as host,
    n_chars as priority; budget 5/host/round (round_ms=1000, delay=200);
    top-5 per host in (priority DESC, doc_id ASC) order, via the real gate
    function over a groupby(host) exchange."""
    from icrawler_ray.stages.politeness import HostPolicy, _topk_per_host

    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])
    hosts = [f"src{i}" for i in range(200)]
    policy = HostPolicy(
        {h: {"crawl_delay_ms": 200, "max_inflight": 4, "robots_disallow": []} for h in hosts},
        round_ms=1000,
    )

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["doc_id"], "host": df["source"],
                             "priority": df["n_chars"].astype(float), "seq": df["doc_id"]})

    def gate(g: pd.DataFrame) -> pd.DataFrame:
        return _topk_per_host(g, policy)[["doc_id", "host", "priority"]]

    return (
        ds.map_batches(prep, batch_format="pandas")
        .groupby("host")
        .map_groups(gate, batch_format="pandas")
    )


SQL_POLITENESS_SCHEDULE = """
SELECT doc_id, source AS host, CAST(n_chars AS DOUBLE) AS priority
FROM documents
QUALIFY row_number() OVER (PARTITION BY source ORDER BY n_chars DESC, doc_id) <= 5
"""


def q_filename_assign(sf_dir: str):
    """deterministic global sequence + 6-digit filenames (D2): sort by
    (n_chars DESC, doc_id ASC), distributed prefix-sum index
    (functions/seq.py), filename = printf('%06d', seq+1).jpg."""
    from icrawler_ray.functions.seq import assign_global_seq

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def neg(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.append_column("neg_chars", pc.negate(t["n_chars"]))

    ds = ds.map_batches(neg, batch_format="pyarrow")
    ds = assign_global_seq(ds, ["neg_chars", "doc_id"], col="seq")

    def name(t: pa.Table) -> pa.Table:
        seq = t["seq"].to_numpy(zero_copy_only=False)
        names = [f"{s + 1:06d}.jpg" for s in seq]
        return pa.table({"doc_id": t["doc_id"], "filename": pa.array(names, type=pa.string())})

    return ds.map_batches(name, batch_format="pyarrow")


SQL_FILENAME_ASSIGN = """
SELECT doc_id,
       printf('%06d', CAST(row_number() OVER (ORDER BY n_chars DESC, doc_id) AS INT))
       || '.jpg' AS filename
FROM documents
"""


def q_size_gate(sf_dir: str):
    """ImageDownloader keep_file min/max size gates (D5, boundary-
    inclusive, both dims via max/min) over deterministic synthetic dims."""
    ds = _read(sf_dir, "part", ["p_partkey"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        w = (df["p_partkey"] * 37) % 500 + 1
        h = (df["p_partkey"] * 73) % 500 + 1
        mx = np.maximum(w, h)
        mn = np.minimum(w, h)
        keep = (mx >= 100) & (mn >= 100) & (mx <= 400) & (mn <= 400)
        return pd.DataFrame({"p_partkey": df["p_partkey"], "w": w.astype(np.int64),
                             "h": h.astype(np.int64), "keep": keep})

    return ds.map_batches(fn, batch_format="pandas")


SQL_SIZE_GATE = """
SELECT p_partkey,
       (p_partkey * 37) % 500 + 1 AS w,
       (p_partkey * 73) % 500 + 1 AS h,
       greatest((p_partkey * 37) % 500 + 1, (p_partkey * 73) % 500 + 1) >= 100
       AND least((p_partkey * 37) % 500 + 1, (p_partkey * 73) % 500 + 1) >= 100
       AND greatest((p_partkey * 37) % 500 + 1, (p_partkey * 73) % 500 + 1) <= 400
       AND least((p_partkey * 37) % 500 + 1, (p_partkey * 73) % 500 + 1) <= 400 AS keep
FROM part
"""


def q_interleaved_spans(sf_dir: str):
    """the input_hint substrate: build interleaved text+media span rows
    (list<struct<kind,text,media_ref,offset>>) from documents — a media
    span after every 2nd 5-token text chunk — then aggregate from the
    NESTED column (exercises the Arrow list<struct> plumbing end to end);
    the oracle computes the same counts from the flat table."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def build(df: pd.DataFrame) -> pd.DataFrame:
        rows = {"doc_id": [], "n_spans": [], "n_media": [], "n_text": [], "text_len": []}
        for doc_id, text in zip(df["doc_id"], df["text"]):
            toks = text.split(" ")
            chunks = [" ".join(toks[i:i + 5]) for i in range(0, len(toks), 5)]
            spans = []
            for ci, ch in enumerate(chunks):
                spans.append({"kind": "text", "text": ch, "media_ref": "",
                              "offset": len(spans)})
                if ci % 2 == 1:
                    spans.append({"kind": "media", "text": "",
                                  "media_ref": f"http://img.example.com/d{doc_id}_{ci}.jpg",
                                  "offset": len(spans)})
            rows["doc_id"].append(doc_id)
            rows["n_spans"].append(len(spans))
            rows["n_media"].append(sum(s["kind"] == "media" for s in spans))
            rows["n_text"].append(sum(s["kind"] == "text" for s in spans))
            rows["text_len"].append(sum(len(s["text"]) for s in spans))
        return pd.DataFrame(rows)

    return ds.map_batches(build, batch_format="pandas")


SQL_INTERLEAVED_SPANS = """
WITH base AS (
  SELECT doc_id, n_chars,
         length(text) - length(replace(text, ' ', '')) + 1 AS n_tokens
  FROM documents),
chunked AS (
  SELECT doc_id, n_chars, CAST(ceil(n_tokens / 5.0) AS BIGINT) AS n_chunks FROM base)
SELECT doc_id,
       n_chunks + n_chunks // 2 AS n_spans,
       n_chunks // 2 AS n_media,
       n_chunks AS n_text,
       n_chars - (n_chunks - 1) AS text_len
FROM chunked
"""


# =====================================================================
# C. training-data operators: dedup / text / similarity
# =====================================================================

def q_dedup_exact(sf_dir: str):
    """exact dedup: hash-partition on a content key, keep first (min id)
    per group + duplicate count (Q1 semantics over content)."""
    from icrawler_ray.pipelines.urllist import dedup_first  # noqa: F401 (family)

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    P = 32  # bounded fat partitions, vectorized within (see q_events_sessionize)

    def key(df: pd.DataFrame) -> pd.DataFrame:
        k = df["text"].str.slice(0, 40)
        part = (pd.util.hash_array(k.to_numpy(dtype=object)) % P).astype(np.int32)
        return pd.DataFrame({"doc_id": df["doc_id"], "k": k, "part": part})

    def first_part(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("k", as_index=False).agg(
            keep_doc_id=("doc_id", "min"), n_dups=("doc_id", "size"))
        out["keep_doc_id"] = out["keep_doc_id"].astype("int64")
        out["n_dups"] = out["n_dups"].astype("int64")
        return out

    return (ds.map_batches(key, batch_format="pandas")
            .groupby("part").map_groups(first_part, batch_format="pandas"))


SQL_DEDUP_EXACT = """
SELECT substr(text, 1, 40) AS k, MIN(doc_id) AS keep_doc_id, COUNT(*) AS n_dups
FROM documents GROUP BY k
"""


def q_doc_fingerprint(sf_dir: str):
    from icrawler_ray.stages.textfns import fingerprint

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        fingerprint, batch_format="pyarrow")


SQL_DOC_FINGERPRINT = "SELECT doc_id, md5(text) AS fingerprint FROM documents"


def q_text_stats(sf_dir: str):
    from icrawler_ray.stages.textfns import token_stats

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        token_stats, batch_format="pyarrow")


SQL_TEXT_STATS = """
WITH t AS (
  SELECT doc_id, text,
         length(text) - length(replace(text, ' ', '')) + 1 AS n_tokens,
         len(list_filter(string_split(text, ' '), w -> w IN ('the', 'a'))) AS n_stop
  FROM documents)
SELECT doc_id, n_tokens, n_stop,
       ROUND(CAST(n_stop AS DOUBLE) / n_tokens, 6) AS stop_ratio,
       ROUND((length(text) - n_tokens + 1.0) / n_tokens, 6) AS avg_word_len
FROM t
"""


def q_lang_quality_agg(sf_dir: str):
    from ray.data.aggregate import Count, Mean

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang", "n_chars"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        df["n_tokens"] = df["text"].str.count(" ") + 1
        return df[["lang", "n_chars", "n_tokens"]]

    out = (
        ds.map_batches(prep, batch_format="pandas")
        .groupby("lang")
        .aggregate(Count(alias_name="n_docs"), Mean("n_chars", alias_name="avg_chars"),
                   Mean("n_tokens", alias_name="avg_tokens"))
    ).to_pandas()
    out["avg_chars"] = out["avg_chars"].round(4)
    out["avg_tokens"] = out["avg_tokens"].round(4)
    return out


SQL_LANG_QUALITY_AGG = """
SELECT lang, COUNT(*) AS n_docs,
       ROUND(AVG(n_chars), 4) AS avg_chars,
       ROUND(AVG(length(text) - length(replace(text, ' ', '')) + 1), 4) AS avg_tokens
FROM documents GROUP BY lang
"""


def q_ngram_jaccard_pairs(sf_dir: str):
    from icrawler_ray.stages.dedup import ngram_jaccard_pairs_grouped

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    return ngram_jaccard_pairs_grouped(ds, group_col="source", threshold=0.6)


SQL_NGRAM_JACCARD_PAIRS = """
WITH w AS (SELECT doc_id, source, list_distinct(string_split(text, ' ')) AS words
           FROM documents)
SELECT a.doc_id AS a, b.doc_id AS b,
       ROUND(CAST(len(list_intersect(a.words, b.words)) AS DOUBLE)
             / len(list_distinct(list_concat(a.words, b.words))), 6) AS jaccard
FROM w a JOIN w b ON a.source = b.source AND a.doc_id < b.doc_id
WHERE CAST(len(list_intersect(a.words, b.words)) AS DOUBLE)
      / len(list_distinct(list_concat(a.words, b.words))) >= 0.6
"""


def q_minhash_lsh_pairs(sf_dir: str):
    """MinHash+LSH near-dup candidates with exact-Jaccard verification.
    The hash family is md5 double hashing (lower + p*upper mod 2^64), so
    the SQL oracle reproduces the ENTIRE pipeline bit-exactly: shingling,
    64-permutation signatures, 16-band bucket equality, candidate pairs
    and the exact-Jaccard verify — including LSH's recall misses."""
    from icrawler_ray.stages.dedup import minhash_lsh_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return minhash_lsh_pairs(ds, jaccard_threshold=0.5)


#: Bit-exact replica of minhash_lsh_pairs (k=3 shingles, 64 perms, 16
#: bands x 4 rows, threshold 0.5): md5_number_lower/upper are DuckDB's
#: halves of the md5 digest, the permuted hash is HUGEINT modular
#: arithmetic, band signatures compare by value (the engine's splitmix
#: bucket fold is an exchange key only), Jaccard is over distinct
#: shingle strings (engine: their 64-bit md5-lower identities).
SQL_MINHASH_LSH_PAIRS = """
WITH tok AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
shl AS (SELECT doc_id,
         CASE WHEN len(toks) <= 3 THEN [array_to_string(toks, ' ')]
              ELSE list_transform(range(1, len(toks) - 1),
                                  i -> array_to_string(list_slice(toks, i, i + 2), ' '))
         END AS sh FROM tok),
sh AS (SELECT DISTINCT doc_id, unnest(sh) AS s FROM shl),
h AS (SELECT doc_id, md5_number_lower(s)::HUGEINT AS hl,
             md5_number_upper(s)::HUGEINT AS hu FROM sh),
sig AS (SELECT doc_id, perms.p,
               MIN((hl + perms.p * hu) % 18446744073709551616::HUGEINT) AS m
        FROM h CROSS JOIN (SELECT unnest(range(64)) AS p) perms
        GROUP BY doc_id, perms.p),
bs AS (SELECT doc_id, p // 4 AS band,
              string_agg(m::VARCHAR, ',' ORDER BY p) AS bsig
       FROM sig GROUP BY doc_id, p // 4),
cand AS (SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
         FROM bs x JOIN bs y
           ON x.band = y.band AND x.bsig = y.bsig AND x.doc_id < y.doc_id),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
inter AS (SELECT c.a, c.b, COUNT(*) AS i
          FROM cand c
          JOIN sh sa ON sa.doc_id = c.a
          JOIN sh sb ON sb.doc_id = c.b AND sb.s = sa.s
          GROUP BY c.a, c.b)
SELECT c.a AS a, c.b AS b,
       ROUND(CAST(i.i AS DOUBLE) / (na.n + nb.n - i.i), 6) AS jaccard
FROM cand c
JOIN inter i ON i.a = c.a AND i.b = c.b
JOIN sizes na ON na.doc_id = c.a
JOIN sizes nb ON nb.doc_id = c.b
WHERE CAST(i.i AS DOUBLE) / (na.n + nb.n - i.i) >= 0.5
ORDER BY c.a, c.b
"""


def q_simhash_pairs(sf_dir: str):
    """SimHash near-dup pairs — pigeonhole-banded buckets give EXACT
    recall at the hamming threshold (pytest-verified against brute-force
    all-pairs). Token hashing is md5-lower, so the SQL oracle replays the
    bit-vote, banding and hamming verify exactly."""
    from icrawler_ray.stages.dedup import simhash_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return simhash_pairs(ds, max_hamming=4)


#: Bit-exact replica of simhash_pairs(max_hamming=4): md5-lower token
#: hashes (every occurrence votes), per-bit majority (strict > 0), 5
#: pigeonhole bands of widths 13/13/13/13/12, pair on any-band equality,
#: keep hamming <= 4.
SQL_SIMHASH_PAIRS = """
WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents),
th AS (SELECT doc_id, md5_number_lower(t) AS hl FROM tok),
bits AS (SELECT doc_id, bb.b,
                CASE WHEN SUM(CASE WHEN (hl >> bb.b) & 1 = 1 THEN 1 ELSE -1 END) > 0
                     THEN (1::UBIGINT << bb.b) ELSE 0::UBIGINT END AS bit
         FROM th CROSS JOIN (SELECT unnest(range(64)) AS b) bb
         GROUP BY doc_id, bb.b),
sh AS (SELECT doc_id, CAST(SUM(bit::HUGEINT) AS UBIGINT) AS h
       FROM bits GROUP BY doc_id),
bands(band, shift, mask) AS (VALUES
  (0, 0, 8191), (1, 13, 8191), (2, 26, 8191), (3, 39, 8191), (4, 52, 4095)),
bv AS (SELECT doc_id, h, band, (h >> shift) & mask::UBIGINT AS v
       FROM sh CROSS JOIN bands),
cand AS (SELECT DISTINCT x.doc_id AS a, y.doc_id AS b, x.h AS ha, y.h AS hb
         FROM bv x JOIN bv y
           ON x.band = y.band AND x.v = y.v AND x.doc_id < y.doc_id)
SELECT a, b, CAST(bit_count(xor(ha, hb)) AS BIGINT) AS hamming
FROM cand WHERE bit_count(xor(ha, hb)) <= 4
ORDER BY a, b
"""


def q_quality_filter(sf_dir: str):
    """training-data quality gate: composite score from length / stopword
    / word-length signals, keep docs above threshold — the filter stage of
    a corpus pipeline, expressed as one vectorized map_batches with the
    exact formula mirrored in SQL."""
    from icrawler_ray.stages.textfns import quality_scores

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        quality_scores, batch_format="pyarrow")
    return ds.filter(expr="keep == True")


SQL_QUALITY_FILTER = """
WITH t AS (
  SELECT doc_id,
         length(text) - length(replace(text, ' ', '')) + 1 AS n_tokens,
         length(text) AS n_chars,
         len(list_filter(string_split(lower(text), ' '),
             x -> list_contains(['the','a'], x))) AS n_stop
  FROM documents),
s AS (
  SELECT doc_id, n_tokens,
         CAST(n_stop AS DOUBLE) / n_tokens AS stop_ratio,
         CAST(n_chars - n_tokens + 1 AS DOUBLE) / n_tokens AS avg_word_len
  FROM t)
SELECT doc_id, n_tokens, stop_ratio, avg_word_len,
       (n_tokens >= 10 AND avg_word_len >= 2.0 AND avg_word_len <= 12.0
        AND stop_ratio <= 0.6) AS keep
FROM s WHERE n_tokens >= 10 AND avg_word_len >= 2.0 AND avg_word_len <= 12.0
        AND stop_ratio <= 0.6
"""


def q_token_counts(sf_dir: str):
    """token counting, whitespace + BPE-ish regex pre-tokenizer (the two
    budget units of a training-data pipeline); identical regexes run under
    DuckDB RE2 for the oracle."""
    from icrawler_ray.stages.textfns import token_counts

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        token_counts, batch_format="pyarrow")


SQL_TOKEN_COUNTS = r"""
SELECT doc_id,
       CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_ws_tokens,
       CAST(len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]+')) AS BIGINT)
         AS n_bpe_tokens
FROM documents
"""


def q_langid(sf_dir: str):
    """stopword-profile language ID — the heuristic is simple enough to be
    SQL-exact (list_filter hit-rate, argmax with alphabetic tie-break)."""
    from icrawler_ray.stages.textfns import langid_scores

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        langid_scores, batch_format="pyarrow")


def _sql_lang_values() -> str:
    from icrawler_ray.stages.textfns import LANG_PROFILES

    rows = []
    for lang in sorted(LANG_PROFILES):
        words = ", ".join(f"'{w}'" for w in sorted(LANG_PROFILES[lang]))
        rows.append(f"('{lang}', [{words}])")
    return ", ".join(rows)


SQL_LANGID = f"""
WITH t AS (SELECT doc_id, string_split(lower(text), ' ') AS toks FROM documents),
s AS (
  SELECT t.doc_id, l.lang,
         CAST(len(list_filter(t.toks, x -> list_contains(l.words, x))) AS DOUBLE)
           / greatest(1, len(t.toks)) AS score
  FROM t, (VALUES {_sql_lang_values()}) AS l(lang, words))
SELECT doc_id, lang AS pred_lang, score
FROM s
QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, lang ASC) = 1
"""


def q_rolling_fingerprint(sf_dir: str):
    """Rabin-Karp rolling-hash winnowing signature (min Mersenne-31
    polynomial hash over 8-byte windows) — SQL-exact on ASCII corpora."""
    from icrawler_ray.stages.textfns import rolling_hashes

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        rolling_hashes, batch_format="pyarrow")


_RH_POWS = [pow(257, 7 - j, (1 << 31) - 1) for j in range(8)]
SQL_ROLLING_FINGERPRINT = f"""
SELECT doc_id,
       min(({" + ".join(f"CAST(ord(substr(text, i + {j}, 1)) AS BIGINT) * {p}"
                        for j, p in enumerate(_RH_POWS))}) % 2147483647
          ) AS rolling_min_hash
FROM (SELECT doc_id, text, unnest(range(1, length(text) - 6)) AS i FROM documents)
GROUP BY doc_id
"""


def q_knn_bruteforce(sf_dir: str):
    """brute-force cosine top-5 for 3 query vectors against the whole
    embedding table (broadcast query matrix, per-batch matmul)."""
    from icrawler_ray.stages.similarity import brute_force_topk

    head = _read(sf_dir, "embeddings", ["vec_id", "embedding"]).sort("vec_id").limit(3).to_pandas()
    queries = np.asarray(head["embedding"].tolist(), dtype=np.float64)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = brute_force_topk(ds, queries, k=5, query_ids=head["vec_id"].to_numpy())
    out["rank"] = out["rank"].astype(np.int64)
    return out[["query_id", "vec_id", "rank"]]


SQL_KNN_BRUTEFORCE = """
WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings
           ORDER BY vec_id LIMIT 3),
sims AS (
  SELECT q.query_id, e.vec_id,
         list_cosine_similarity(CAST(q.qe AS DOUBLE[]), CAST(e.embedding AS DOUBLE[])) AS sim
  FROM q CROSS JOIN embeddings e WHERE e.vec_id <> q.query_id)
SELECT query_id, vec_id,
       row_number() OVER (PARTITION BY query_id ORDER BY sim DESC, vec_id) AS rank
FROM sims
QUALIFY rank <= 5
"""


def q_knn_lsh(sf_dir: str):
    """LSH-bucketed ANN (scale path). The hyperplanes are deterministic
    from seed 0, so the SQL oracle reproduces the bucket assignment
    (sign-pattern of plane dot products — scale-invariant, so normalizing
    first like the engine or not like the oracle is equivalent), the
    single-probe candidate filter and the cosine top-k exactly."""
    from icrawler_ray.stages.similarity import lsh_bucketed_topk

    head = _read(sf_dir, "embeddings", ["vec_id", "embedding"]).sort("vec_id").limit(3).to_pandas()
    queries = np.asarray(head["embedding"].tolist(), dtype=np.float64)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return lsh_bucketed_topk(ds, queries, k=5, query_ids=head["vec_id"].to_numpy())


def _sql_knn_lsh() -> str:
    """Replica of lsh_bucketed_topk(n_planes=8, seed=0, k=5) over the 3
    lowest vec_ids as queries. The plane matrix is embedded as literals
    (repr round-trips float64 exactly); bucket = sum of sign bits."""
    planes = np.random.default_rng(0).standard_normal((8, 64))
    rows = ",\n  ".join(
        "({}, [{}]::DOUBLE[])".format(j, ", ".join(repr(float(x)) for x in planes[j]))
        for j in range(8)
    )
    return f"""
WITH planes(j, p) AS (VALUES
  {rows}),
b AS (SELECT e.vec_id, e.embedding,
        CAST(SUM(CASE WHEN list_dot_product(CAST(e.embedding AS DOUBLE[]), pl.p) > 0
                      THEN (1 << pl.j) ELSE 0 END) AS BIGINT) AS bucket
      FROM embeddings e CROSS JOIN planes pl GROUP BY e.vec_id, e.embedding),
q AS (SELECT b.vec_id AS query_id, b.embedding AS qe, b.bucket AS qb FROM b
      JOIN (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT 3) h
        ON h.vec_id = b.vec_id),
sims AS (SELECT q.query_id, b.vec_id,
                list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                       CAST(b.embedding AS DOUBLE[])) AS sim
         FROM q JOIN b ON b.bucket = q.qb AND b.vec_id <> q.query_id)
SELECT query_id, vec_id, ROUND(sim, 6) AS sim,
       row_number() OVER (PARTITION BY query_id ORDER BY sim DESC, vec_id) AS rank
FROM sims QUALIFY rank <= 5 ORDER BY query_id, rank
"""


SQL_KNN_LSH = _sql_knn_lsh()


def q_knn_ivf(sf_dir: str):
    """IVF ANN (coarse-quantizer lists, broadcast centroids, inline list
    filtering). Probing ALL lists makes the search exhaustive, so the
    brute-force SQL is an exact oracle for the IVF machinery (assignment +
    probing + scoring); the recall tradeoff of partial probing is pinned
    in pytest (test_ivf_topk_recall_and_sims)."""
    from icrawler_ray.stages.similarity import ivf_topk

    head = _read(sf_dir, "embeddings", ["vec_id", "embedding"]).sort("vec_id").limit(3).to_pandas()
    queries = np.asarray(head["embedding"].tolist(), dtype=np.float64)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = ivf_topk(ds, queries, k=5, query_ids=head["vec_id"].to_numpy(),
                   n_centroids=8, n_probe=8)
    out["rank"] = out["rank"].astype(np.int64)
    return out[["query_id", "vec_id", "rank"]]


SQL_KNN_IVF = SQL_KNN_BRUTEFORCE  # full probing == exhaustive search


def q_label_centroid_norm(sf_dir: str):
    """per-label count + mean vector norm (mergeable partial aggregation)."""
    from ray.data.aggregate import Count, Mean

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        m = np.asarray(df["embedding"].tolist(), dtype=np.float64)
        return pd.DataFrame({"label": df["label"], "norm": np.linalg.norm(m, axis=1)})

    out = (
        ds.map_batches(prep, batch_format="pandas")
        .groupby("label")
        .aggregate(Count(alias_name="n"), Mean("norm", alias_name="avg_norm"))
    ).to_pandas()
    out["avg_norm"] = out["avg_norm"].round(5)
    return out


SQL_LABEL_CENTROID_NORM = """
SELECT label, COUNT(*) AS n,
       ROUND(AVG(sqrt(list_sum(list_transform(embedding, x -> CAST(x AS DOUBLE) * x)))), 5)
       AS avg_norm
FROM embeddings GROUP BY label
"""


def q_embedding_near_dup(sf_dir: str):
    """cosine >= 0.4 pairs within label partitions (per-group matmul; the
    threshold sits in the upper tail of this corpus's similarity
    distribution — max within-label sim ~0.45)."""
    from icrawler_ray.stages.similarity import embedding_near_dup_pairs

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    out = embedding_near_dup_pairs(ds, threshold=0.4)
    if not len(out):
        return pd.DataFrame({"a": pd.Series([], dtype=np.int64),
                             "b": pd.Series([], dtype=np.int64)})
    out = out.drop(columns=["sim"])  # ids are the stable payload
    out["a"] = out["a"].astype(np.int64)
    out["b"] = out["b"].astype(np.int64)
    return out


SQL_EMBEDDING_NEAR_DUP = """
SELECT a.vec_id AS a, b.vec_id AS b
FROM embeddings a JOIN embeddings b
  ON a.label = b.label AND a.vec_id < b.vec_id
WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                             CAST(b.embedding AS DOUBLE[])) >= 0.4
"""


def q_media_pipeline(sf_dir: str):
    """multimodal plumbing: deterministic fake image blobs as a binary
    column -> DecodeImage actor pool -> ResizeStub -> per-doc dims.
    Codec-free deterministic pipeline; rows-only check."""
    from icrawler_ray.stages.media import DecodeImage, ResizeStub
    from icrawler_ray.synthweb import fakeimg

    ds = _read(sf_dir, "documents", ["doc_id"])

    def blobs(t: pa.Table) -> pa.Table:
        content = [
            fakeimg.encode(int(d % 500 + 10), int((d * 7) % 500 + 10)) if d % 11 else b"BAD"
            for d in t["doc_id"].to_pylist()
        ]
        # Arrow out: a pandas block here has an unhashable block schema that
        # defeats Ray's schema-dedup fast path (and warns per batch)
        return pa.table({"doc_id": t["doc_id"],
                         "content": pa.array(content, type=pa.binary())})

    out = (
        ds.map_batches(blobs, batch_format="pyarrow")
        .map_batches(DecodeImage, batch_size=128, concurrency=2, batch_format="pyarrow")
        .map_batches(ResizeStub, batch_size=128, concurrency=2, batch_format="pyarrow")
    )
    return out.select_columns(["doc_id", "img_w", "img_h", "decode_ok", "target_w", "target_h"])


SQL_MEDIA_PIPELINE = """
SELECT doc_id,
  CASE WHEN doc_id % 11 = 0 THEN -1 ELSE doc_id % 500 + 10 END AS img_w,
  CASE WHEN doc_id % 11 = 0 THEN -1 ELSE (doc_id * 7) % 500 + 10 END AS img_h,
  doc_id % 11 <> 0 AS decode_ok,
  CASE WHEN doc_id % 11 = 0 THEN -1
       ELSE CAST(round((doc_id % 500 + 10) * least(1.0, 256.0 / greatest(doc_id % 500 + 10, (doc_id * 7) % 500 + 10))) AS INT)
  END AS target_w,
  CASE WHEN doc_id % 11 = 0 THEN -1
       ELSE CAST(round(((doc_id * 7) % 500 + 10) * least(1.0, 256.0 / greatest(doc_id % 500 + 10, (doc_id * 7) % 500 + 10))) AS INT)
  END AS target_h
FROM documents
"""


def q_events_sliding_window(sf_dir: str):
    """trailing 6-hour sliding window per hour bucket per event_type.
    NO raw-event fat group: each batch emits (event_type, hour, n)
    combiner partials — the same pre-aggregate exchange as
    q_events_hourly — and the searchsorted prefix-sum window walk runs
    over the BOUNDED hourly table (types x hours, never event-sized).
    A hot event_type therefore costs one partial row per (block, hour),
    not a whole-dataset pandas group."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        hours = (df["ts"].dt.floor("h").astype("int64") // 10**6).astype("int64")
        g = pd.DataFrame({"event_type": df["event_type"], "hour_ts": hours}) \
            .groupby(["event_type", "hour_ts"], sort=False).size().rename("n")
        return g.reset_index()

    hourly = (ds.map_batches(partial, batch_format="pandas").to_pandas()
              .groupby(["event_type", "hour_ts"], as_index=False)["n"].sum()
              .sort_values(["event_type", "hour_ts"]))

    out = []
    for etype, g in hourly.groupby("event_type", sort=True):
        hs = g["hour_ts"].to_numpy()
        cum = np.concatenate([[0], np.cumsum(g["n"].to_numpy())])
        lo = np.searchsorted(hs, hs - 5 * 3600, side="left")
        n6 = cum[np.arange(1, len(hs) + 1)] - cum[lo]
        out.append(pd.DataFrame({"event_type": etype, "hour_ts": hs,
                                 "n_6h": n6.astype(np.int64)}))
    return pd.concat(out, ignore_index=True)


SQL_EVENTS_SLIDING_WINDOW = """
WITH hourly AS (
  SELECT event_type, CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS hour_ts,
         COUNT(*) AS n
  FROM events GROUP BY event_type, hour_ts)
SELECT a.event_type, a.hour_ts, CAST(SUM(b.n) AS BIGINT) AS n_6h
FROM hourly a JOIN hourly b
  ON a.event_type = b.event_type AND b.hour_ts BETWEEN a.hour_ts - 5 * 3600 AND a.hour_ts
GROUP BY a.event_type, a.hour_ts
"""


def q_robots_gate(sf_dir: str):
    """robots.txt path-prefix gate (north-rule politeness component) over
    synthesized per-doc paths, using the real robots_filter."""
    from icrawler_ray.stages.politeness import HostPolicy, robots_filter

    ds = _read(sf_dir, "documents", ["doc_id", "source"])
    policy = HostPolicy(
        {f"src{i}": {"crawl_delay_ms": 0, "max_inflight": 8,
                     "robots_disallow": ["/private"]} for i in range(200)}
    )

    def gate(df: pd.DataFrame) -> pd.DataFrame:
        path = np.where(df["doc_id"] % 5 == 0, "/private/p/", "/p/")
        frame = pd.DataFrame(
            {"doc_id": df["doc_id"], "host": df["source"],
             "url": "http://" + df["source"] + ".example.com" + path + df["doc_id"].astype(str)}
        )
        return robots_filter(frame, policy)[["doc_id", "host"]]

    return ds.map_batches(gate, batch_format="pandas")


SQL_ROBOTS_GATE = """
SELECT doc_id, source AS host FROM documents WHERE doc_id % 5 <> 0
"""


def q_events_asof_join(sf_dir: str):
    """As-of join (latest-threshold-at-event-time) as a broadcast
    small-side merge: the per-type threshold series (distinct 6-hourly
    event hours, deterministic value) is collected once, broadcast via
    ray.put as sorted arrays, and each event batch resolves its match with
    one searchsorted — no shuffle. Large-side-vs-large-side as-of would
    instead range-partition both sides on (key, ts); documented assumption:
    the threshold side is dimension-sized. Oracle: DuckDB ASOF JOIN."""
    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts", "value"])

    def hour_pairs(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        hour = df["ts"].astype("int64") // 10**6 // 3600  # datetime64[us] -> hour number
        out = pd.DataFrame({"event_type": df["event_type"], "hour": hour})
        out = out[out["hour"] % 6 == 0].drop_duplicates()
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    small = (ds.map_batches(hour_pairs, batch_format="pyarrow")
             .groupby(["event_type", "hour"]).count().to_pandas())
    small = small.sort_values(["event_type", "hour"])
    lookup = {
        et: ((g["hour"].to_numpy() * 3_600_000_000).astype(np.int64),
             ((g["hour"].to_numpy() % 97) / 10.0).astype(np.float64))
        for et, g in small.groupby("event_type")
    }
    ref = ray.put(lookup)

    def asof(t: pa.Table) -> pa.Table:
        lk = ray.get(ref)
        df = t.to_pandas()
        ts_us = df["ts"].astype("int64").to_numpy()
        thr_us = np.full(len(df), -1, dtype=np.int64)
        thr_val = np.full(len(df), np.nan)
        for et, g in df.groupby("event_type", sort=False):
            if et not in lk:
                continue
            tus, tval = lk[et]
            pos = np.searchsorted(tus, ts_us[df.index.get_indexer(g.index)],
                                  side="right") - 1
            sel = df.index.get_indexer(g.index)
            ok = pos >= 0
            thr_us[sel[ok]] = tus[pos[ok]]
            thr_val[sel[ok]] = tval[pos[ok]]
        keep = thr_us >= 0  # ASOF JOIN is inner: pre-first-threshold events drop
        val = df["value"].to_numpy()
        return pa.table(
            {
                "user_id": pa.array(df["user_id"].to_numpy()[keep]),
                "event_type": pa.array(df["event_type"].to_numpy()[keep].astype(object),
                                       type=pa.string()),
                "ts_us": pa.array(ts_us[keep]),
                "value": pa.array(val[keep]),
                "thr_us": pa.array(thr_us[keep]),
                "threshold": pa.array(thr_val[keep]),
                "above": pa.array(val[keep] > thr_val[keep]),
            }
        )

    return ds.map_batches(asof, batch_format="pyarrow")


SQL_EVENTS_ASOF_JOIN = """
WITH e AS (SELECT user_id, event_type, CAST(epoch_us(ts) AS BIGINT) AS ts_us, value
           FROM events),
hrs AS (SELECT DISTINCT event_type, ts_us // 3600000000 AS hour FROM e
        WHERE (ts_us // 3600000000) % 6 = 0),
thr AS (SELECT event_type, hour * 3600000000 AS thr_us,
               (hour % 97) / 10.0 AS threshold FROM hrs)
SELECT e.user_id, e.event_type, e.ts_us, e.value, t.thr_us, t.threshold,
       e.value > t.threshold AS above
FROM e ASOF JOIN thr t
  ON e.event_type = t.event_type AND e.ts_us >= t.thr_us
"""


def q_range_join_orders(sf_dir: str):
    """Range (interval) join: pairs of SAME-CUSTOMER orders placed within
    30 days of each other. The grouping key (o_custkey) is the documented
    partition assumption bounding the within-window quadratic; inside a
    group the sweep is fully vectorized — sort by (date, key), one
    searchsorted for every row's window end, arithmetic run expansion (no
    Python pair loop). The general two-large-sides range join (no shared
    equi-key) would range-partition both sides on time buckets with
    boundary replication of one window width; this is the keyed form a
    crawl/events pipeline actually uses."""
    P = 32  # bounded fat groups, not one group per customer (tiny-group
    #         map_groups overhead is the known Ray pitfall; same pattern
    #         as sessionize / the LSH bucket exchange)
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(lambda t: t.append_column(
            "part", pa.array((t["o_custkey"].to_numpy() % P).astype(np.int32))),
            batch_format="pyarrow")

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"o_custkey": pd.Series([], dtype="int64"),
                              "k_a": pd.Series([], dtype="int64"),
                              "k_b": pd.Series([], dtype="int64"),
                              "days_apart": pd.Series([], dtype="int64")})
        n = len(g)
        if n < 2:
            return empty
        g = g.sort_values(["o_custkey", "o_orderdate", "o_orderkey"],
                          kind="mergesort")
        c = g["o_custkey"].to_numpy()
        d = g["o_orderdate"].astype("int64").to_numpy() // 86_400_000_000
        k = g["o_orderkey"].to_numpy()
        # composite key keeps the window probe inside each customer's run:
        # spans ~11k days << 10^6, so cust*1e6 + day is collision-free
        comp = c * 1_000_000 + d
        hi = np.searchsorted(comp, comp + 30, side="right")
        counts = hi - np.arange(n) - 1  # partners strictly after i in sort order
        total = int(counts.sum())
        if not total:
            return empty
        ii = np.repeat(np.arange(n), counts)
        jj = (np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
              + ii + 1)
        return pd.DataFrame({
            "o_custkey": c[ii], "k_a": k[ii], "k_b": k[jj],
            "days_apart": (d[jj] - d[ii]).astype(np.int64),
        })

    out = ds.groupby("part").map_groups(pairs, batch_format="pandas").to_pandas()
    return out.sort_values(["o_custkey", "k_a", "k_b"]).reset_index(drop=True)


#: Same pair definition: (a, b) with b in [a, a+30d], ordered by (date,
#: key) so equal-date pairs appear once — matches the engine's sorted
#: sweep exactly.
SQL_RANGE_JOIN_ORDERS = """
SELECT a.o_custkey, a.o_orderkey AS k_a, b.o_orderkey AS k_b,
       CAST(date_diff('day', a.o_orderdate, b.o_orderdate) AS BIGINT) AS days_apart
FROM orders a JOIN orders b
  ON a.o_custkey = b.o_custkey
 AND b.o_orderdate >= a.o_orderdate
 AND b.o_orderdate <= a.o_orderdate + INTERVAL 30 DAY
 AND (a.o_orderdate < b.o_orderdate OR a.o_orderkey < b.o_orderkey)
ORDER BY a.o_custkey, k_a, k_b
"""


def q_media_frame_sample(sf_dir: str):
    """video frame-sampling plumbing: deterministic fake video containers
    as a binary column -> FrameSample actor stage -> one row per sampled
    frame (uniform k-point integer sampling + pts). Pixel extraction is
    codec-gated; the sampling plan and expanded layout are SQL-exact."""
    from icrawler_ray.stages.media import FrameSample
    from icrawler_ray.synthweb.fakemedia import encode_video

    ds = _read(sf_dir, "documents", ["doc_id"])

    def blobs(t: pa.Table) -> pa.Table:
        content = [
            encode_video(int(d % 37 + 2), int(10 + (d % 3) * 5)) if d % 13 else b"BAD"
            for d in t["doc_id"].to_pylist()
        ]
        return pa.table({"doc_id": t["doc_id"],
                         "content": pa.array(content, type=pa.binary())})

    return ds.map_batches(blobs, batch_format="pyarrow").map_batches(
        FrameSample, fn_constructor_kwargs={"k": 4}, batch_size=128,
        concurrency=2, batch_format="pyarrow")


SQL_MEDIA_FRAME_SAMPLE = """
WITH v AS (
  SELECT doc_id, doc_id % 37 + 2 AS n, 10 + (doc_id % 3) * 5 AS fps
  FROM documents WHERE doc_id % 13 <> 0)
SELECT doc_id, CAST(f AS BIGINT) AS frame_idx,
       CAST(f * 1000 // fps AS BIGINT) AS pts_ms
FROM (SELECT doc_id, fps,
             unnest(CASE WHEN n <= 4 THEN range(0, n)
                    ELSE [0, (n-1)//3, 2*(n-1)//3, n-1] END) AS f
      FROM v)
"""


def q_audio_features(sf_dir: str):
    """audio feature plumbing: deterministic fake 8-bit PCM containers ->
    AudioFeatures actor stage -> per-doc windowed integer features computed
    from the real payload bytes (closed-form PCM, so DuckDB recomputes the
    identical sums)."""
    from icrawler_ray.stages.media import AudioFeatures
    from icrawler_ray.synthweb.fakemedia import encode_audio

    ds = _read(sf_dir, "documents", ["doc_id"])

    def blobs(t: pa.Table) -> pa.Table:
        content = [
            encode_audio(int(8000 + (d % 2) * 8000), int(d % 400 + 100), int(d))
            if d % 11 else b"BAD"
            for d in t["doc_id"].to_pylist()
        ]
        return pa.table({"doc_id": t["doc_id"],
                         "content": pa.array(content, type=pa.binary())})

    out = ds.map_batches(blobs, batch_format="pyarrow").map_batches(
        AudioFeatures, fn_constructor_kwargs={"window": 100}, batch_size=128,
        concurrency=2, batch_format="pyarrow")
    return out.filter(expr="n_windows >= 0")


SQL_AUDIO_FEATURES = """
WITH a AS (SELECT doc_id, doc_id % 400 + 100 AS n, 8000 + (doc_id % 2) * 8000 AS sr
           FROM documents WHERE doc_id % 11 <> 0),
s AS (SELECT doc_id, sr, n // 100 AS n_windows,
             unnest(range(0, (n // 100) * 100)) AS i FROM a)
SELECT doc_id, CAST(any_value(sr) AS BIGINT) AS sample_rate,
       CAST(any_value(n_windows) AS BIGINT) AS n_windows,
       CAST(SUM((doc_id * 7 + i * 13) % 256) AS BIGINT) AS energy,
       CAST(MAX((doc_id * 7 + i * 13) % 256) AS BIGINT) AS peak
FROM s GROUP BY doc_id
"""


def q_hll_distinct(sf_dir: str):
    """approximate distinct counts via mergeable HyperLogLog sketches (one
    partial per batch, max-merged), made oracle-checkable: the output
    carries the EXACT distinct count (distributed groupby-count) plus the
    tolerance claim that the sketch estimate lands within 3% of it — the
    DuckDB oracle recomputes the exact count and asserts TRUE."""
    from icrawler_ray.stages.sketches import hll_distinct

    rows = []
    for col_name, table, col in (("events.user_id", "events", "user_id"),
                                 ("lineitem.l_partkey", "lineitem", "l_partkey")):
        est = hll_distinct(_read(sf_dir, table, [col]), col)
        n_exact = _read(sf_dir, table, [col]).groupby(col).count().count()
        rows.append({"col_name": col_name, "n_exact": np.int64(n_exact),
                     "within_3pct": bool(abs(est / n_exact - 1.0) <= 0.03)})
    return pd.DataFrame(rows)


SQL_HLL_DISTINCT = """
SELECT 'events.user_id' AS col_name, COUNT(DISTINCT user_id) AS n_exact,
       TRUE AS within_3pct FROM events
UNION ALL
SELECT 'lineitem.l_partkey', COUNT(DISTINCT l_partkey), TRUE FROM lineitem
"""


def q_paragraph_dedup(sf_dir: str):
    """C4/Gopher-style corpus-global chunk dedup: split every doc into
    non-overlapping 8-token chunks (the corpus has no sentence
    punctuation, so fixed token windows are the dedup unit), keep only
    the globally FIRST occurrence of each chunk (min (doc_id, idx)),
    reassemble docs from their surviving chunks in order. Two bounded
    exchanges: (1) chunks are pre-reduced per batch (chunk -> min
    occurrence) before the groupby(para) — a hot chunk's fat group
    holds one tiny row per batch it appeared in, not one per
    occurrence; (2) groupby(doc_id) reassembly. Docs whose every chunk
    loses vanish (same rule in the SQL)."""
    out = _paragraph_dedup_ds(_read(sf_dir, "documents", ["doc_id", "text"]))
    # collect ONLY for the oracle comparison — the output is corpus-sized
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


@ray.remote(num_returns=2)
def _reassemble_block(block: pa.Table, id_type: pa.DataType):
    """Merge one sorted (doc_id, idx, para) block into (doc_id, text) doc
    rows. Docs whose rows may straddle a block boundary (the block's first
    and last doc_id — sorted order makes a doc's rows contiguous across the
    block sequence) are returned separately as fragments for the stitch
    task; interior docs are final."""
    empty_docs = pa.table({"doc_id": pa.array([], type=id_type),
                           "text": pa.array([], type=pa.string())})
    empty_edge = empty_docs.append_column("first_idx", pa.array([], type=pa.int64()))
    # zero-row blocks out of the sort can carry an empty schema
    if block.num_rows == 0:
        return empty_docs, empty_edge
    df = block.to_pandas()
    g = (df.groupby("doc_id", sort=True)
         .agg(first_idx=("idx", "min"), text=("para", " ".join)).reset_index())
    edge = g["doc_id"].isin([g["doc_id"].iloc[0], g["doc_id"].iloc[-1]])
    interior = pa.Table.from_pandas(g[~edge][["doc_id", "text"]], preserve_index=False)
    edges = pa.Table.from_pandas(g[edge][["doc_id", "text", "first_idx"]],
                                 preserve_index=False)
    return (interior if interior.num_rows else empty_docs,
            edges if edges.num_rows else empty_edge)


@ray.remote
def _stitch_edges(*tables: pa.Table) -> pa.Table:
    """Merge block-boundary doc fragments (≤2 docs per block, in order)
    into whole docs — O(n_blocks) rows, never corpus-sized."""
    df = pa.concat_tables(tables, promote_options="default").to_pandas()
    if not len(df):
        return tables[0].select(["doc_id", "text"])
    out = (df.sort_values(["doc_id", "first_idx"])
           .groupby("doc_id", sort=True)["text"].agg(" ".join).reset_index())
    return pa.Table.from_pandas(out[["doc_id", "text"]], preserve_index=False)


def _paragraph_dedup_ds(ds) -> "ray.data.Dataset":
    """Core of q_paragraph_dedup over any (doc_id, text) Dataset — also
    the dedup stage of q_training_tape. Returns a DATASET of
    (doc_id, text): reassembly is per-sorted-block merge tasks plus one
    small boundary-stitch exchange; no corpus text touches the driver."""
    # order-preserving string encoding of doc_id for the packed winner
    # key: 20-digit zero-pad for (non-negative) ints, raw for strings
    int_ids = pa.types.is_integer(ds.schema().base_schema.field("doc_id").type)

    def split_reduce(batch: pa.Table) -> pa.Table:
        # occurrence key enc(doc_id) + NUL + zero-padded idx sorts exactly
        # like (doc_id, idx), so a plain string MIN picks the global
        # winner — that keeps the wide step a NATIVE groupby aggregate
        # instead of a per-group Python callback (measured 60x at 200k docs)
        keys, paras = [], []
        for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            enc = f"{d:020d}" if int_ids else str(d)
            toks = t.split(" ")
            for i in range(0, len(toks), 8):
                keys.append(f"{enc}\x00{i // 8:09d}")
                paras.append(" ".join(toks[i:i + 8]))
        df = pd.DataFrame({"para": paras, "key": keys})
        # batch-local pre-reduce: min occurrence per chunk
        df = df.sort_values("key").drop_duplicates("para", keep="first")
        return pa.Table.from_pandas(df, preserve_index=False)

    def unpack(batch: pa.Table) -> pa.Table:
        ids, idxs = [], []
        for k in batch["min(key)"].to_pylist():
            d, _, i = k.rpartition("\x00")
            ids.append(int(d) if int_ids else d)
            idxs.append(int(i))
        id_arr = pa.array(ids, type=pa.int64()) if int_ids else pa.array(ids)
        return pa.table({"doc_id": id_arr, "idx": pa.array(idxs, type=pa.int64()),
                         "para": batch["para"]})

    winners = (ds.map_batches(split_reduce, batch_format="pyarrow")
               .groupby("para").min("key")
               .map_batches(unpack, batch_format="pyarrow"))
    return _reassemble_docs(winners, int_ids)


def _reassemble_docs(winners, int_ids: bool) -> "ray.data.Dataset":
    """(doc_id, idx, para) winner rows -> (doc_id, text) docs, fully off
    the driver: sort, per-block merge tasks, one boundary-stitch task
    (O(n_blocks) rows), from_arrow_refs. Split out so the RSS pytest can
    pin exactly this stage."""
    refs = winners.sort(["doc_id", "idx"]).to_arrow_refs()
    if not refs:
        return winners.map_batches(
            lambda t: pa.table({"doc_id": t["doc_id"],
                                "text": pa.array([], type=pa.string())}),
            batch_format="pyarrow")
    id_type = pa.int64() if int_ids else pa.string()
    interior_refs, edge_refs = [], []
    for r in refs:
        i_ref, e_ref = _reassemble_block.remote(r, id_type)
        interior_refs.append(i_ref)
        edge_refs.append(e_ref)
    stitched = _stitch_edges.remote(*edge_refs)
    return ray.data.from_arrow_refs(interior_refs + [stitched])


SQL_PARAGRAPH_DEDUP = """
WITH tok AS (
  SELECT doc_id, unnest(ts) AS tk, generate_subscripts(ts, 1) AS ti
  FROM (SELECT doc_id, string_split(text, ' ') AS ts FROM documents)),
p AS (
  SELECT doc_id, CAST((ti - 1) // 8 AS INTEGER) AS idx,
         string_agg(tk, ' ' ORDER BY ti) AS para
  FROM tok GROUP BY doc_id, (ti - 1) // 8),
w AS (
  SELECT doc_id, idx, para FROM p
  QUALIFY row_number() OVER (PARTITION BY para ORDER BY doc_id, idx) = 1)
SELECT doc_id, string_agg(para, ' ' ORDER BY idx) AS text
FROM w GROUP BY doc_id ORDER BY doc_id
"""


def q_training_tape(sf_dir: str):
    """FLAGSHIP training-data prep composition, end-to-end over one
    Dataset chain: quality gate (vectorized score filter) -> corpus-global
    paragraph dedup (native-MIN winner exchange + reassembly) ->
    deterministic md5 shuffle order -> sequence packing (distributed
    exclusive prefix sum over token counts; the tape follows the
    SHUFFLED order, as a real run would). Text is dropped before the
    ordering shuffle — only (doc_id, hash, n_tokens) moves. Output:
    (doc_id, pos, n_tokens, tok_start, seq_id). Every stage reuses an
    oracle-proven operator; the SQL oracle is the same chain as CTEs."""
    from icrawler_ray.functions.seq import assign_global_seq_and_cumsum
    from icrawler_ray.stages.dedup import md5_pair
    from icrawler_ray.stages.textfns import quality_scores

    def gate(batch: pa.Table) -> pa.Table:
        # quality_scores' keep column, applied in the SAME pass so text
        # flows through without a driver-side id set
        keep = quality_scores(batch)["keep"]
        return batch.filter(keep)

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    deduped = _paragraph_dedup_ds(docs.map_batches(gate, batch_format="pyarrow"))

    def narrow(batch: pa.Table) -> pa.Table:
        # only (doc_id, n_tokens, h) leaves this stage — the reassembled
        # text never moves again (and never touches the driver)
        import pyarrow.compute as pc
        ids = batch["doc_id"].to_pylist()
        h = md5_pair([str(i) for i in ids])[:, 0]
        n_tok = pc.add(pc.count_substring(batch["text"], " "), 1)
        return pa.table({"doc_id": batch["doc_id"],
                         "n_tokens": n_tok.cast(pa.int64()),
                         "h": pa.array(h, type=pa.uint64())})

    # one sort + one stitch: pos (dense index) and tok_start (exclusive
    # token cumsum) share the (h, doc_id) shuffle order, so fusing them
    # drops the redundant re-sort by pos entirely
    ds2 = deduped.map_batches(narrow, batch_format="pyarrow")
    packed = assign_global_seq_and_cumsum(ds2, ["h", "doc_id"], "n_tokens",
                                          cum_col="tok_start", seq_col="pos")

    def finish(t: pa.Table) -> pa.Table:
        start = t["tok_start"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": t["doc_id"], "pos": t["pos"], "n_tokens": t["n_tokens"],
            "tok_start": t["tok_start"],
            "seq_id": pa.array(start // PACK_SEQ_LEN, type=pa.int64()),
        })

    out = packed.map_batches(finish, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _sql_training_tape() -> str:
    dedup_body = SQL_PARAGRAPH_DEDUP.replace("FROM documents", "FROM gated", 1)
    dedup_body = dedup_body.strip().removeprefix("WITH ")
    dedup_body = dedup_body.replace(
        "SELECT doc_id, string_agg(para, ' ' ORDER BY idx) AS text\nFROM w GROUP BY doc_id ORDER BY doc_id",
        "")
    return f"""
WITH q AS ({SQL_QUALITY_FILTER.strip()}),
gated AS (SELECT d.doc_id, d.text FROM documents d JOIN q USING (doc_id)),
{dedup_body.strip()},
dedup AS (SELECT doc_id, string_agg(para, ' ' ORDER BY idx) AS text
          FROM w GROUP BY doc_id),
ord AS (SELECT doc_id, text,
        row_number() OVER (ORDER BY md5_number_lower(doc_id::VARCHAR), doc_id) - 1 AS pos
        FROM dedup),
cnt AS (SELECT doc_id, pos,
        length(text) - length(replace(text, ' ', '')) + 1 AS n_tokens FROM ord),
tape AS (SELECT doc_id, pos, n_tokens,
         COALESCE(SUM(n_tokens) OVER (ORDER BY pos
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS tok_start
         FROM cnt)
SELECT doc_id, pos, CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST(tok_start AS BIGINT) AS tok_start,
       CAST(tok_start // {PACK_SEQ_LEN} AS BIGINT) AS seq_id
FROM tape ORDER BY doc_id
"""


def q_quality_ntiles(sf_dir: str):
    """Curriculum bucketing: decile assignment over a quality key
    (text length, doc_id tiebreak). Distributed sort is the only
    shuffle; global position comes from the metadata prefix-sum
    (functions/seq.py), and the bucket math replicates SQL NTILE's
    remainder rule (first n%k buckets get the extra row) so the oracle
    matches exactly."""
    from icrawler_ray.functions.seq import assign_global_seq

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def keyed(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        return pa.table({"doc_id": batch["doc_id"],
                         "len": pa.array([len(t) for t in texts], type=pa.int64())})

    k = 10
    lens = ds.map_batches(keyed, batch_format="pyarrow")
    n = lens.count()
    q, r = divmod(n, k)
    pos = assign_global_seq(lens, ["len", "doc_id"], col="pos")

    def bucket(batch: pa.Table) -> pa.Table:
        p = np.asarray(batch["pos"].to_pylist(), dtype=np.int64)
        big = r * (q + 1)
        b = np.where(p < big, p // (q + 1), r + (p - big) // max(q, 1)) + 1
        return pa.table({"doc_id": batch["doc_id"],
                         "len": batch["len"],
                         "bucket": pa.array(b, type=pa.int64())})

    out = pos.map_batches(bucket, batch_format="pyarrow").to_pandas()
    return out[["doc_id", "len", "bucket"]].sort_values("doc_id").reset_index(drop=True)


SQL_QUALITY_NTILES = """
SELECT doc_id, CAST(length(text) AS BIGINT) AS len,
       CAST(ntile(10) OVER (ORDER BY length(text), doc_id) AS BIGINT) AS bucket
FROM documents ORDER BY doc_id
"""


def q_hll_distinct_by_type(sf_dir: str):
    """Per-group mergeable HLL sketches (stages/sketches.py
    hll_distinct_by): distinct users per event_type, driver state one
    4-KB sketch per distinct group. Oracle-checkable the same way as
    hll_distinct: output carries the exact per-group distinct count plus
    the 3%-tolerance claim the DuckDB oracle asserts TRUE."""
    from icrawler_ray.stages.sketches import hll_distinct_by

    est = hll_distinct_by(_read(sf_dir, "events", ["event_type", "user_id"]),
                          "event_type", "user_id")
    exact = (_read(sf_dir, "events", ["event_type", "user_id"])
             .groupby(["event_type", "user_id"]).count()
             .groupby("event_type").count().to_pandas()
             .rename(columns={"count()": "n_exact"}))
    out = exact.merge(est, on="event_type")
    out["n_exact"] = out["n_exact"].astype(np.int64)
    out["within_3pct"] = (out.estimate / out.n_exact - 1.0).abs() <= 0.03
    return (out[["event_type", "n_exact", "within_3pct"]]
            .sort_values("event_type").reset_index(drop=True))


SQL_HLL_DISTINCT_BY_TYPE = """
SELECT event_type, COUNT(DISTINCT user_id) AS n_exact, TRUE AS within_3pct
FROM events GROUP BY event_type ORDER BY event_type
"""


# =====================================================================
# C2. link-graph analytics + data-mixing (stages/linkgraph.py docstring
#     explains the deterministic edge derivation both sides reproduce)
# =====================================================================

# shared edge CTE: doc i -> (i*131 + j*97) % n for j in 1..1+(i%4), no
# self-loops (matches stages/linkgraph.py::derive_edges exactly)
_SQL_EDGES_CTE = """
nn AS (SELECT COUNT(*) AS cnt FROM documents),
edges AS MATERIALIZED (
  SELECT d.doc_id AS src,
         CAST((d.doc_id * 131 + j.j * 97) % nn.cnt AS BIGINT) AS dst
  FROM documents d, nn,
       LATERAL (SELECT unnest(generate_series(1, 1 + CAST(d.doc_id % 4 AS INT))) AS j) j
  WHERE (d.doc_id * 131 + j.j * 97) % nn.cnt <> d.doc_id
)"""


def q_link_degree(sf_dir: str):
    """Per-node out/in-degree over the derived link graph (combiner
    partial counts -> tiny final reduce; the frontier-priority signal a
    crawl scheduler feeds back into politeness ordering)."""
    from icrawler_ray.stages.linkgraph import degree_table, derive_edges

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()
    return degree_table(derive_edges(docs, n), docs)


SQL_LINK_DEGREE = f"""
WITH {_SQL_EDGES_CTE},
o AS (SELECT src AS node, COUNT(*) AS c FROM edges GROUP BY src),
i AS (SELECT dst AS node, COUNT(*) AS c FROM edges GROUP BY dst)
SELECT d.doc_id AS node,
       CAST(COALESCE(o.c, 0) AS BIGINT) AS out_deg,
       CAST(COALESCE(i.c, 0) AS BIGINT) AS in_deg
FROM documents d
LEFT JOIN o ON o.node = d.doc_id
LEFT JOIN i ON i.node = d.doc_id
ORDER BY node
"""


def q_pagerank(sf_dir: str):
    """5-iteration damping-0.85 PageRank over the derived link graph
    (broadcast-iterate; stages/linkgraph.py scale notes).  Fixed sweep
    count so the SQL oracle unrolls the identical computation."""
    from icrawler_ray.stages.linkgraph import derive_edges, pagerank

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()
    ranks = pagerank(derive_edges(docs, n), n, iters=5, damping=0.85)
    return pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64),
                         "pr": pd.Series(ranks).round(6)})


def _pagerank_iter_sql(prev: str, cur: str) -> str:
    return f"""
{cur} AS (
  SELECT {prev}.node,
         0.15e0 / (SELECT cnt FROM nn) + 0.85e0 * COALESCE(c.s, 0e0) AS r
  FROM {prev} LEFT JOIN (
    SELECT e.dst AS node, SUM(rp.r / od.deg) AS s
    FROM edges e JOIN od ON od.src = e.src JOIN {prev} rp ON rp.node = e.src
    GROUP BY e.dst
  ) c ON c.node = {prev}.node
)"""


SQL_PAGERANK = f"""
WITH {_SQL_EDGES_CTE},
od AS MATERIALIZED (SELECT src, COUNT(*) AS deg FROM edges GROUP BY src),
r0 AS (SELECT d.doc_id AS node, 1e0 / nn.cnt AS r FROM documents d, nn),
{",".join(_pagerank_iter_sql(f"r{i}", f"r{i + 1}") for i in range(5))}
SELECT node AS doc_id, ROUND(r, 6) AS pr FROM r5 ORDER BY doc_id
"""


def q_cc_labels(sf_dir: str):
    """Connected components by 8-sweep min-label propagation over the
    derived link graph — the cluster-assignment step after near-dup pair
    generation (keep the min-id doc per cluster).  Fixed sweeps so the
    SQL oracle unrolls the identical computation."""
    from icrawler_ray.stages.linkgraph import connected_components, derive_edges

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()
    labels = connected_components(derive_edges(docs, n), n, iters=8)
    return pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64),
                         "component": labels})


def _cc_iter_sql(prev: str, cur: str) -> str:
    return f"""
{cur} AS (
  SELECT {prev}.node, LEAST({prev}.l, COALESCE(m.ml, {prev}.l)) AS l
  FROM {prev} LEFT JOIN (
    SELECT u.dst AS node, MIN(lp.l) AS ml
    FROM und u JOIN {prev} lp ON lp.node = u.src
    GROUP BY u.dst
  ) m ON m.node = {prev}.node
)"""


SQL_CC_LABELS = f"""
WITH {_SQL_EDGES_CTE},
und AS MATERIALIZED (SELECT src, dst FROM edges UNION ALL SELECT dst AS src, src AS dst FROM edges),
l0 AS (SELECT d.doc_id AS node, d.doc_id AS l FROM documents d),
{",".join(_cc_iter_sql(f"l{i}", f"l{i + 1}") for i in range(8))}
SELECT node AS doc_id, CAST(l AS BIGINT) AS component FROM l8 ORDER BY doc_id
"""


def q_clean_text(sf_dir: str):
    """Text normalization pass (the cleaning stage before dedup/tokenize):
    collapse whitespace runs, strip, lowercase — vectorized pandas str
    kernels; corpus is ASCII so the RE2 (SQL) and Python regex semantics
    of \\s coincide (checked: zero non-ASCII docs at every sf)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def clean(df: pd.DataFrame) -> pd.DataFrame:
        c = df["text"].str.replace(r"\s+", " ", regex=True).str.strip().str.lower()
        return pd.DataFrame({"doc_id": df["doc_id"], "clean_text": c,
                             "n_chars_clean": c.str.len().astype("int64")})

    return ds.map_batches(clean, batch_format="pandas").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


SQL_CLEAN_TEXT = r"""
SELECT doc_id,
       lower(trim(regexp_replace(text, '\s+', ' ', 'g'))) AS clean_text,
       length(lower(trim(regexp_replace(text, '\s+', ' ', 'g')))) AS n_chars_clean
FROM documents ORDER BY doc_id
"""


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination — the eval-leak gate every training-data
    pipeline needs: the 20 lowest doc_ids stand in for an eval benchmark;
    every OTHER doc is flagged if it shares any 8-token gram with them.
    Shape: the benchmark's distinct gram hashes (md5-lower, small side)
    broadcast once via ray.put; each batch counts distinct shared grams
    with a sorted-array membership probe — no shuffle at all, the same
    broadcast-filter shape as the crawl's resume anti-join. At 100 TB the
    benchmark side stays small (evals are), so this scales linearly."""
    from icrawler_ray.stages.dedup import md5_pair

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    bench = docs.sort("doc_id").limit(20).to_pandas()

    def grams8(text: str) -> list[str]:
        toks = text.split(" ")
        return [" ".join(toks[i:i + 8]) for i in range(len(toks) - 7)]

    bgrams = sorted({g for t in bench["text"] for g in grams8(t)})
    gh = np.sort(md5_pair(bgrams)[:, 0])
    gref = ray.put(gh)
    bench_ids = ray.put(np.sort(bench["doc_id"].to_numpy()))

    def scan(batch: pa.Table) -> pa.Table:
        g = ray.get(gref)
        bids = ray.get(bench_ids)
        ids = np.asarray(batch["doc_id"].to_pylist())
        bi = np.minimum(np.searchsorted(bids, ids), len(bids) - 1)
        keep = bids[bi] != ids  # non-benchmark docs only
        ids = ids[keep]
        texts = [t for t, k in zip(batch["text"].to_pylist(), keep) if k]
        # one flat md5 array for the whole batch + per-doc reduceat
        per_doc = [sorted(set(grams8(t))) for t in texts]
        lens = np.fromiter((len(p) for p in per_doc), dtype=np.int64,
                           count=len(per_doc))
        n_hits = np.zeros(len(ids), dtype=np.int64)
        nz = np.flatnonzero(lens)
        if len(nz) and len(g):
            flat = md5_pair([s for i in nz for s in per_doc[i]])[:, 0]
            idx = np.minimum(np.searchsorted(g, flat), len(g) - 1)
            hit = (g[idx] == flat).astype(np.int64)
            starts = np.r_[0, np.cumsum(lens[nz])[:-1]]
            n_hits[nz] = np.add.reduceat(hit, starts)
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "n_hits": pa.array(n_hits, type=pa.int64()),
                "contaminated": pa.array(n_hits > 0),
            }
        )

    out = docs.map_batches(scan, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_DECONTAMINATE = """
WITH bench AS (SELECT doc_id FROM documents ORDER BY doc_id LIMIT 20),
toks AS (SELECT doc_id, string_split(text, ' ') AS tk FROM documents),
g AS (SELECT doc_id,
             unnest(CASE WHEN len(tk) < 8 THEN []::VARCHAR[]
                    ELSE list_transform(range(1, len(tk) - 6),
                                        i -> array_to_string(list_slice(tk, i, i + 7), ' '))
                    END) AS gram
      FROM toks),
bg AS (SELECT DISTINCT gram FROM g WHERE doc_id IN (SELECT doc_id FROM bench)),
dg AS (SELECT DISTINCT doc_id, gram FROM g
       WHERE doc_id NOT IN (SELECT doc_id FROM bench)),
hits AS (SELECT doc_id, COUNT(*) AS n FROM dg JOIN bg USING (gram) GROUP BY doc_id)
SELECT d.doc_id, COALESCE(h.n, 0) AS n_hits, COALESCE(h.n, 0) > 0 AS contaminated
FROM (SELECT doc_id FROM documents
      WHERE doc_id NOT IN (SELECT doc_id FROM bench)) d
LEFT JOIN hits h USING (doc_id) ORDER BY doc_id
"""


def q_repetition_stats(sf_dir: str):
    """Gopher-style repetition quality signals per doc: duplicate-word
    fraction (1 - distinct/total) and top-bigram fraction (most frequent
    word bigram / all bigrams) — the classic repetition gates applied
    before training. Pure per-doc map_batches (embarrassingly parallel);
    np.unique does the counting, no Python dict per row."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def stats(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"]
        dup = np.empty(len(ids), dtype=np.float64)
        top = np.zeros(len(ids), dtype=np.float64)
        for i, t in enumerate(batch["text"].to_pylist()):
            toks = np.array(t.split(" "), dtype=object)
            n = len(toks)
            dup[i] = round(1.0 - len(np.unique(toks)) / n, 6)
            if n >= 2:
                big = np.char.add(np.char.add(toks[:-1].astype(str), " "),
                                  toks[1:].astype(str))
                _, counts = np.unique(big, return_counts=True)
                top[i] = round(counts.max() / (n - 1), 6)
        return pa.table({"doc_id": ids, "dup_word_frac": pa.array(dup),
                         "top_bigram_frac": pa.array(top)})

    return ds.map_batches(stats, batch_format="pyarrow").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


SQL_REPETITION_STATS = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS tk FROM documents),
w AS (SELECT doc_id, len(tk) AS n, len(list_distinct(tk)) AS nd FROM toks),
bg AS (SELECT doc_id, unnest(list_transform(range(1, len(tk)),
                                            i -> tk[i] || ' ' || tk[i + 1])) AS b
       FROM toks WHERE len(tk) >= 2),
bc AS (SELECT doc_id, b, COUNT(*) AS c FROM bg GROUP BY doc_id, b),
tb AS (SELECT doc_id, MAX(c) AS mx, SUM(c) AS tot FROM bc GROUP BY doc_id)
SELECT w.doc_id, ROUND(1.0 - CAST(nd AS DOUBLE) / n, 6) AS dup_word_frac,
       ROUND(COALESCE(CAST(mx AS DOUBLE) / tot, 0.0), 6) AS top_bigram_frac
FROM w LEFT JOIN tb USING (doc_id) ORDER BY doc_id
"""


def q_hash_sample(sf_dir: str):
    """Deterministic 10% corpus sample by content-stable hash
    (md5(doc_id) mod 100 < 10): the scale-stable way to cut an eval or
    dev slice — membership depends only on the key, so the sample is
    reproducible across runs, machines and resharding, unlike
    random_shuffle().limit(). Pure vectorized filter, no shuffle."""
    from icrawler_ray.stages.dedup import md5_pair

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source"])

    def pick(batch: pa.Table) -> pa.Table:
        # md5 of the key's decimal rendering (what DuckDB's implicit
        # int->VARCHAR cast hashes), so the oracle filter is identical
        ids = [str(i) for i in batch["doc_id"].to_pylist()]
        keep = (md5_pair(ids)[:, 0] % np.uint64(100)) < 10
        return batch.filter(pa.array(keep))

    return ds.map_batches(pick, batch_format="pyarrow").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


SQL_HASH_SAMPLE = """
SELECT doc_id, lang, source FROM documents
WHERE md5_number_lower(doc_id::VARCHAR) % 100 < 10 ORDER BY doc_id
"""


def q_dedup_cluster_keep(sf_dir: str):
    """END-TO-END near-dup dedup: exact n-gram Jaccard pairs (>= 0.6,
    within source partitions) -> SPARSE connected components over the
    pair graph (pairs_components: distributed contraction + pair-set-
    bounded union-find — nothing is O(n_docs), the doc-scale path) ->
    keep the min-id doc per cluster.  Docs in no pair are their own
    singleton cluster and never get a label row; the sparse label table
    is broadcast once (it is pair-set-bounded, i.e. output-sized) and
    each doc batch resolves its component by sorted-array lookup.  The
    SQL oracle unrolls 8 min-label sweeps — equal to true components
    because near-dup clusters are near-cliques (diameter << 8); the
    engine side is exact CC regardless."""
    from icrawler_ray.functions.seq import from_pandas_blocks
    from icrawler_ray.stages.dedup import ngram_jaccard_pairs_grouped
    from icrawler_ray.stages.linkgraph import pairs_components

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    pairs = ngram_jaccard_pairs_grouped(ds, group_col="source", threshold=0.6)
    edges_df = pd.DataFrame({"src": pairs["a"].to_numpy(dtype=np.int64),
                             "dst": pairs["b"].to_numpy(dtype=np.int64)})
    sparse = (pairs_components(from_pandas_blocks(edges_df))
              if len(edges_df)
              else pd.DataFrame({"node": np.array([], dtype=np.int64),
                                 "component": np.array([], dtype=np.int64)}))
    lab_ref = ray.put((sparse["node"].to_numpy(dtype=np.int64),
                       sparse["component"].to_numpy(dtype=np.int64)))

    def label(batch: pa.Table) -> pa.Table:
        nodes, comps = ray.get(lab_ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        comp = ids.copy()
        if len(nodes):
            idx = np.minimum(np.searchsorted(nodes, ids), len(nodes) - 1)
            hit = nodes[idx] == ids
            comp[hit] = comps[idx[hit]]
        return pa.table({"doc_id": ids, "component": comp, "kept": comp == ids})

    return (_read(sf_dir, "documents", ["doc_id"])
            .map_batches(label, batch_format="pyarrow").to_pandas()
            .sort_values("doc_id").reset_index(drop=True))


SQL_DEDUP_CLUSTER_KEEP = f"""
WITH w AS (SELECT doc_id, source, list_distinct(string_split(text, ' ')) AS words
           FROM documents),
edges AS MATERIALIZED (
  SELECT a.doc_id AS src, b.doc_id AS dst
  FROM w a JOIN w b ON a.source = b.source AND a.doc_id < b.doc_id
  WHERE CAST(len(list_intersect(a.words, b.words)) AS DOUBLE)
        / len(list_distinct(list_concat(a.words, b.words))) >= 0.6
),
und AS MATERIALIZED (SELECT src, dst FROM edges UNION ALL SELECT dst AS src, src AS dst FROM edges),
l0 AS (SELECT d.doc_id AS node, d.doc_id AS l FROM documents d),
{",".join(_cc_iter_sql(f"l{i}", f"l{i + 1}") for i in range(8))}
SELECT node AS doc_id, CAST(l AS BIGINT) AS component, (l = node) AS kept
FROM l8 ORDER BY doc_id
"""


def q_events_pivot_hourly(sf_dir: str):
    """Pivot / crosstab: events per (event_type, hour-of-day) reshaped
    wide — one row per type, 24 hour columns.  Combiner partials (type,
    hod, n) -> tiny driver pivot; the wide reshape never touches
    row-level data."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        hod = df["ts"].dt.hour.astype(np.int64)
        g = pd.DataFrame({"event_type": df["event_type"], "hod": hod}) \
            .groupby(["event_type", "hod"], sort=False).size().rename("n")
        return g.reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    agg = parts.groupby(["event_type", "hod"])["n"].sum().reset_index()
    wide = agg.pivot_table(index="event_type", columns="hod", values="n",
                           fill_value=0, aggfunc="sum")
    wide = wide.reindex(columns=range(24), fill_value=0)
    out = pd.DataFrame({"event_type": wide.index.to_numpy()})
    for h in range(24):
        out[f"h{h}"] = wide[h].to_numpy(dtype=np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_EVENTS_PIVOT_HOURLY = "SELECT event_type, " + ", ".join(
    f"CAST(SUM(CASE WHEN EXTRACT(hour FROM ts) = {h} THEN 1 ELSE 0 END) AS BIGINT) AS h{h}"
    for h in range(24)
) + " FROM events GROUP BY event_type ORDER BY event_type"


def q_events_daily_delta(sf_dir: str):
    """Per-type daily counts with day-over-day delta (LAG window over the
    combiner output): partials shuffle only (type, day, n) rows; the lag
    runs on the driver over the bounded (types x days) frame."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        day = df["ts"].dt.floor("D").astype("int64") // (10**6 * 86400)
        g = pd.DataFrame({"event_type": df["event_type"], "day": day}) \
            .groupby(["event_type", "day"], sort=False).size().rename("n")
        return g.reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    agg = parts.groupby(["event_type", "day"])["n"].sum().reset_index()
    agg = agg.sort_values(["event_type", "day"]).reset_index(drop=True)
    prev = agg.groupby("event_type")["n"].shift()
    agg["delta"] = (agg["n"] - prev).fillna(agg["n"]).astype(np.int64)
    agg["n"] = agg["n"].astype(np.int64)
    agg["day"] = agg["day"].astype(np.int64)
    return agg


SQL_EVENTS_DAILY_DELTA = """
WITH d AS (
  SELECT event_type,
         CAST(epoch(date_trunc('day', ts)) // 86400 AS BIGINT) AS day,
         COUNT(*) AS n
  FROM events GROUP BY event_type, day)
SELECT event_type, day, n,
       CAST(n - COALESCE(LAG(n) OVER (PARTITION BY event_type ORDER BY day), 0) AS BIGINT) AS delta
FROM d ORDER BY event_type, day
"""


#: DF tables at or below this row count are broadcast via ray.put; above
#: it the score join hash-partitions on term (the web-scale-vocabulary
#: path — a 1e9-term vocab is GBs, too big to ship to every task)
TFIDF_BROADCAST_DF_LIMIT = 20_000_000


def tfidf_top_terms(docs, n_docs: int, *, top_k: int = 3,
                    broadcast_df_limit: int = TFIDF_BROADCAST_DF_LIMIT,
                    score_partitions: int = 32) -> pd.DataFrame:
    """TF-IDF: top-k most distinctive terms per document, with a
    measured-size path choice for the score join.

    Pass 1 (both paths): document frequency as a partial-aggregate
    exchange — per-batch distinct doc-term pairs -> per-term partial
    counts -> groupby-sum.  The DF row count is then MEASURED:

    - ``<= broadcast_df_limit``: the DF table ships once via ray.put and
      every doc batch scores tf*ln(N/df) locally — zero further shuffles.
    - above it (web-scale vocabulary): hash-partitioned score join — DF
      rows and per-doc TF rows are both keyed by hash(term) %
      score_partitions, exchanged with ONE groupby, and scored inside
      each term partition; a local per-doc top-k combiner bounds the
      second (doc-keyed) exchange to k rows per (doc, partition).

    Ranking uses the ROUNDED score in both engine and oracle so float64
    libm differences can't flip near-ties.  Both paths produce identical
    output (forced-partitioned parity is pinned by a pytest)."""
    P = max(1, score_partitions)

    def partial_df(df: pd.DataFrame) -> pd.DataFrame:
        pairs = df.assign(term=df["text"].str.split(" "))[["doc_id", "term"]] \
            .explode("term").drop_duplicates()
        vc = pairs["term"].value_counts()
        return pd.DataFrame({"term": vc.index, "pdf": vc.to_numpy()})

    df_ds = (docs.map_batches(partial_df, batch_format="pandas")
             .groupby("term").sum("pdf")).materialize()

    def topk_block(cnt: pd.DataFrame) -> pd.DataFrame:
        cnt = cnt.sort_values(["doc_id", "tfidf", "term"],
                              ascending=[True, False, True], kind="mergesort")
        cnt["rnk"] = cnt.groupby("doc_id", sort=False).cumcount() + 1
        out = cnt[cnt["rnk"] <= top_k]
        return pd.DataFrame({"doc_id": out["doc_id"].to_numpy(),
                             "term": out["term"].to_numpy(),
                             "tfidf": out["tfidf"].to_numpy(),
                             "rnk": out["rnk"].to_numpy(dtype=np.int64)})

    if df_ds.count() <= broadcast_df_limit:
        dftab = df_ds.to_pandas()
        dfs = ray.put(pd.Series(dftab["sum(pdf)"].to_numpy(dtype=np.float64),
                                index=dftab["term"]))

        def score(df: pd.DataFrame) -> pd.DataFrame:
            dfmap = ray.get(dfs)
            ex = df.assign(term=df["text"].str.split(" "))[["doc_id", "term"]] \
                .explode("term")
            cnt = ex.groupby(["doc_id", "term"], sort=False).size().reset_index(name="c")
            dl = cnt.groupby("doc_id", sort=False)["c"].transform("sum")
            tfidf = (cnt["c"] / dl) * np.log(float(n_docs) / dfmap[cnt["term"]].to_numpy())
            cnt["tfidf"] = np.round(tfidf, 6)
            return topk_block(cnt[["doc_id", "term", "tfidf"]])

        return docs.map_batches(score, batch_format="pandas").to_pandas() \
            .sort_values(["doc_id", "rnk"]).reset_index(drop=True)

    # ---- hash-partitioned score join (vocabulary exceeds the broadcast)
    def tf_rows(df: pd.DataFrame) -> pd.DataFrame:
        ex = df.assign(term=df["text"].str.split(" "))[["doc_id", "term"]] \
            .explode("term")
        cnt = ex.groupby(["doc_id", "term"], sort=False).size().reset_index(name="c")
        dl = cnt.groupby("doc_id", sort=False)["c"].transform("sum")
        return pd.DataFrame({
            "part": (pd.util.hash_array(cnt["term"].to_numpy(dtype=object)) % P)
            .astype(np.int64),
            "doc_id": cnt["doc_id"].to_numpy(dtype=np.int64),
            "term": cnt["term"].to_numpy(dtype=object),
            "c": cnt["c"].to_numpy(dtype=np.int64),
            "dl": dl.to_numpy(dtype=np.int64)})

    def df_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "part": (pd.util.hash_array(df["term"].to_numpy(dtype=object)) % P)
            .astype(np.int64),
            "doc_id": np.full(len(df), -1, dtype=np.int64),
            "term": df["term"].to_numpy(dtype=object),
            "c": df["sum(pdf)"].to_numpy(dtype=np.int64),
            "dl": np.zeros(len(df), dtype=np.int64)})

    def score_partition(g: pd.DataFrame) -> pd.DataFrame:
        is_df = g["doc_id"].to_numpy() == -1
        dfmap = pd.Series(g["c"].to_numpy()[is_df].astype(np.float64),
                          index=g["term"].to_numpy()[is_df])
        tf = g[~is_df]
        tfidf = (tf["c"].to_numpy() / tf["dl"].to_numpy()) \
            * np.log(float(n_docs) / dfmap[tf["term"]].to_numpy())
        cnt = pd.DataFrame({"doc_id": tf["doc_id"].to_numpy(),
                            "term": tf["term"].to_numpy(),
                            "tfidf": np.round(tfidf, 6)})
        # local per-doc top-k combiner: the doc-keyed exchange moves at
        # most k rows per (doc, term-partition), never the full TF set
        return topk_block(cnt)[["doc_id", "term", "tfidf"]]

    scored = (docs.map_batches(tf_rows, batch_format="pandas")
              .union(df_ds.map_batches(df_rows, batch_format="pandas"))
              .groupby("part").map_groups(score_partition, batch_format="pandas"))
    final = (scored.groupby("doc_id")
             .map_groups(topk_block, batch_format="pandas").to_pandas())
    return final.sort_values(["doc_id", "rnk"]).reset_index(drop=True)


def q_tfidf_top_terms(sf_dir: str):
    """See :func:`tfidf_top_terms` — broadcast-DF path at this scale,
    hash-partitioned score join above TFIDF_BROADCAST_DF_LIMIT."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return tfidf_top_terms(docs, docs.count())


SQL_TFIDF_TOP_TERMS = """
WITH toks AS (SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents),
tf AS (SELECT doc_id, term, COUNT(*) AS c FROM toks GROUP BY doc_id, term),
dl AS (SELECT doc_id, SUM(c) AS n FROM tf GROUP BY doc_id),
df AS (SELECT term, COUNT(*) AS df FROM tf GROUP BY term),
nd AS (SELECT COUNT(*) AS n_docs FROM documents),
s AS (SELECT tf.doc_id, tf.term,
             ROUND((CAST(tf.c AS DOUBLE) / dl.n)
                   * ln(CAST(nd.n_docs AS DOUBLE) / df.df), 6) AS tfidf
      FROM tf JOIN dl USING (doc_id) JOIN df USING (term) CROSS JOIN nd)
SELECT doc_id, term, tfidf,
       CAST(row_number() OVER (PARTITION BY doc_id
                               ORDER BY tfidf DESC, term) AS BIGINT) AS rnk
FROM s QUALIFY rnk <= 3 ORDER BY doc_id, rnk
"""


def q_anti_join_customers(sf_dir: str):
    """Broadcast ANTI-join: customers with no events activity.  The
    distinct-user set reduces through a groupby (small side), ships once
    via ray.put, and each customer batch filters against it — the same
    no-shuffle anti-join shape as the crawl's resume/skip-existing path
    (storage/sinks.py finished_partitions), in relational form."""
    users = _read(sf_dir, "events", ["user_id"]).groupby("user_id").count().to_pandas()
    uref = ray.put(np.sort(users["user_id"].to_numpy(dtype=np.int64)))
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"])

    def anti(batch: pa.Table) -> pa.Table:
        u = ray.get(uref)
        if not len(u):
            return batch
        keys = batch["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.minimum(np.searchsorted(u, keys), len(u) - 1)
        return batch.filter(pa.array(u[idx] != keys))

    out = cust.map_batches(anti, batch_format="pyarrow").to_pandas()
    out["c_acctbal"] = out["c_acctbal"].round(2)
    return out.sort_values("c_custkey").reset_index(drop=True)


SQL_ANTI_JOIN_CUSTOMERS = """
SELECT c_custkey, c_name, ROUND(c_acctbal, 2) AS c_acctbal
FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM events e WHERE e.user_id = c.c_custkey)
ORDER BY c_custkey
"""


#: quantiles reported by the length-distribution operator
LENGTH_QUANTS = (0.25, 0.5, 0.9, 0.99)


def q_length_quantiles(sf_dir: str):
    """EXACT distributed quantiles of document length — the distribution
    cut-offs a corpus pipeline uses for truncation/outlier thresholds.
    Histogram combiner: each batch emits one (value, count) row per
    distinct length; the merged histogram (bounded by distinct lengths,
    not rows) lives on the driver; quantile = percentile_disc definition
    (smallest value with cume_dist >= q), matching DuckDB quantile_disc."""
    ds = _read(sf_dir, "documents", ["n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("n_chars").size().rename("c").reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    hist = parts.groupby("n_chars")["c"].sum().sort_index()
    n = int(hist.sum())
    cum = hist.cumsum().to_numpy()
    vals = hist.index.to_numpy()
    rows = [{"q": float(q), "n_chars_q": int(vals[np.searchsorted(cum, int(np.ceil(q * n)))])}
            for q in LENGTH_QUANTS]
    return pd.DataFrame(rows)


SQL_LENGTH_QUANTILES = "\nUNION ALL\n".join(
    f"SELECT CAST({q} AS DOUBLE) AS q, quantile_disc(n_chars, {q}) AS n_chars_q FROM documents"
    for q in LENGTH_QUANTS
)


def q_approx_quantiles_sketch(sf_dir: str):
    """Mergeable APPROXIMATE quantiles — the scale path when the value
    domain is unbounded and the exact (value,count) histogram combiner
    stops being small: a bottom-k uniform sample by md5(doc_id) order
    statistics (each batch ships its k smallest hashes; merging partials
    = taking the k smallest overall, so the sample is exchangeable and
    deterministic). Oracle-checkable like hll_distinct: output carries
    the EXACT quantile plus the claim that the sketch estimate lands
    within the +/-0.05 quantile band, which the DuckDB oracle asserts
    TRUE. k=1024 -> rank error ~1/sqrt(k) ~ 0.03."""
    from icrawler_ray.stages.dedup import md5_pair

    K = 1024
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def bottom_k(batch: pa.Table) -> pa.Table:
        h = md5_pair([str(i) for i in batch["doc_id"].to_pylist()])[:, 0]
        take = np.argsort(h, kind="stable")[:K]
        return pa.table({"h": pa.array(h[take], type=pa.uint64()),
                         "n_chars": pa.array(
                             np.asarray(batch["n_chars"].to_pylist())[take])})

    parts = ds.map_batches(bottom_k, batch_format="pyarrow").to_pandas()
    sample = np.sort(parts.nsmallest(K, "h")["n_chars"].to_numpy())

    def hist_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("n_chars").size().rename("c").reset_index()

    parts2 = (_read(sf_dir, "documents", ["n_chars"])
              .map_batches(hist_partial, batch_format="pandas").to_pandas())
    hist = parts2.groupby("n_chars")["c"].sum().sort_index()
    n = int(hist.sum())
    cum = hist.cumsum().to_numpy()
    vals = hist.index.to_numpy()

    def exact_q(q: float) -> int:
        q = min(max(q, 1.0 / n), 1.0)
        return int(vals[np.searchsorted(cum, int(np.ceil(q * n)))])

    rows = []
    for q in LENGTH_QUANTS:
        est = sample[min(int(np.ceil(q * len(sample))) - 1, len(sample) - 1)]
        lo, hi = exact_q(q - 0.05), exact_q(q + 0.05)
        rows.append({"q": float(q), "n_chars_q": np.int64(exact_q(q)),
                     "within_band": bool(lo <= est <= hi)})
    return pd.DataFrame(rows)


SQL_APPROX_QUANTILES_SKETCH = "\nUNION ALL\n".join(
    f"SELECT CAST({q} AS DOUBLE) AS q, quantile_disc(n_chars, {q}) AS n_chars_q, "
    f"TRUE AS within_band FROM documents"
    for q in LENGTH_QUANTS
)


def q_length_quantiles_by_lang(sf_dir: str):
    """Grouped exact quantiles (length distribution per language): the
    histogram combiner now keys on (lang, n_chars) — still one row per
    distinct (group, value) per block, never per document."""
    ds = _read(sf_dir, "documents", ["lang", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["lang", "n_chars"]).size().rename("c").reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    hist = parts.groupby(["lang", "n_chars"])["c"].sum().reset_index()
    rows = []
    for lang, g in hist.groupby("lang"):
        g = g.sort_values("n_chars")
        cum = g["c"].cumsum().to_numpy()
        vals = g["n_chars"].to_numpy()
        n = int(cum[-1])
        for q in LENGTH_QUANTS:
            rows.append({"lang": lang, "q": float(q),
                         "n_chars_q": int(vals[np.searchsorted(cum, int(np.ceil(q * n)))])})
    return pd.DataFrame(rows).sort_values(["lang", "q"]).reset_index(drop=True)


SQL_LENGTH_QUANTILES_BY_LANG = "\nUNION ALL\n".join(
    f"SELECT lang, CAST({q} AS DOUBLE) AS q, quantile_disc(n_chars, {q}) AS n_chars_q "
    f"FROM documents GROUP BY lang"
    for q in LENGTH_QUANTS
)


def q_top_terms(sf_dir: str):
    """Top-5 terms per source by corpus count (tie-break: term asc) — the
    vocabulary-profile rollup of a text pipeline.  Per-batch (source,
    term, count) partials keep the exchange at distinct-terms-per-block;
    the final reduce over the merged vocabulary runs on the driver
    (bounded by vocab x sources; a web-scale vocabulary hash-partitions
    the final reduce instead)."""
    ds = _read(sf_dir, "documents", ["source", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df[["source"]].join(df["text"].str.split(" ").rename("term")).explode("term")
        return t.groupby(["source", "term"], sort=False).size().rename("n").reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    g = parts.groupby(["source", "term"], as_index=False)["n"].sum()
    g = g.sort_values(["source", "n", "term"], ascending=[True, False, True],
                      kind="mergesort")
    top = g.groupby("source").head(5).reset_index(drop=True)
    top["rank"] = (top.groupby("source").cumcount() + 1).astype(np.int64)
    top["n"] = top["n"].astype(np.int64)
    return top[["source", "term", "n", "rank"]]


SQL_TOP_TERMS = """
WITH t AS (SELECT source, unnest(string_split(text, ' ')) AS term FROM documents),
c AS (SELECT source, term, COUNT(*) AS n FROM t GROUP BY source, term),
r AS (SELECT source, term, n,
             ROW_NUMBER() OVER (PARTITION BY source ORDER BY n DESC, term ASC) AS rank
      FROM c)
SELECT source, term, n, rank FROM r WHERE rank <= 5 ORDER BY source, rank
"""


#: training-sequence length for the packing operator
PACK_SEQ_LEN = 2048
SQL_TRAINING_TAPE = _sql_training_tape()


def q_sequence_pack(sf_dir: str):
    """Sequence packing for training data: docs in doc_id order are laid
    end-to-end on a token tape; sequence k owns tokens [k*L, (k+1)*L) and
    a doc belongs to the sequence its FIRST token lands in
    (document-preserving approximate packing).  The token-offset tape is
    the distributed exclusive prefix sum (functions/seq.py::
    assign_global_cumsum) — sort is the only shuffle, the driver sees one
    integer per block."""
    from icrawler_ray.functions.seq import assign_global_cumsum

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def tok(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "n_tokens": df["text"].str.count(" ").to_numpy(dtype=np.int64) + 1,
        })

    counted = ds.map_batches(tok, batch_format="pandas")
    packed = assign_global_cumsum(counted, ["doc_id"], "n_tokens", col="tok_start")

    def finish(t: pa.Table) -> pa.Table:
        start = t["tok_start"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tokens": t["n_tokens"],
            "tok_start": t["tok_start"],
            "seq_id": pa.array(start // PACK_SEQ_LEN, type=pa.int64()),
        })

    return packed.map_batches(finish, batch_format="pyarrow").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


SQL_SEQUENCE_PACK = f"""
WITH t AS (
  SELECT doc_id,
         length(text) - length(replace(text, ' ', '')) + 1 AS n_tokens
  FROM documents),
c AS (
  SELECT doc_id, n_tokens,
         COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS tok_start
  FROM t)
SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST(tok_start AS BIGINT) AS tok_start,
       CAST(tok_start // {PACK_SEQ_LEN} AS BIGINT) AS seq_id
FROM c ORDER BY doc_id
"""


#: per-lang keep-rate (percent) for the deterministic stratified sample:
#: down-sample the head language, keep the tail — the data-mixing
#: rebalance step of a training-data pipeline
STRATA_RATES = {"de": 100, "en": 35, "es": 100, "fr": 60, "zh": 80}


def q_stratified_sample(sf_dir: str):
    """Deterministic stratified (per-language) sampling: keep doc iff
    doc_id % 100 < rate[lang].  Hash-free modular gate so the oracle is
    exact; at scale the gate would key on a content hash instead."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source"])

    def gate(df: pd.DataFrame) -> pd.DataFrame:
        rates = df["lang"].map(STRATA_RATES).fillna(0).to_numpy(dtype=np.int64)
        return df[(df["doc_id"].to_numpy() % 100) < rates]

    out = ds.map_batches(gate, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_STRATIFIED_SAMPLE = f"""
SELECT doc_id, lang, source FROM documents
WHERE doc_id % 100 < CASE lang
  {" ".join(f"WHEN '{k}' THEN {v}" for k, v in sorted(STRATA_RATES.items()))}
  ELSE 0 END
ORDER BY doc_id
"""


def q_mixture_weights(sf_dir: str):
    """Per-source token counts and mixture weights (the sampling-weight
    table a data-mixing stage consumes).  Combiner partials -> 20-row
    final reduce; the global total never shuffles."""
    ds = _read(sf_dir, "documents", ["source", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.count(" ").to_numpy(dtype=np.int64) + 1
        g = pd.DataFrame({"source": df["source"], "n_tokens": toks}).groupby(
            "source", sort=False).agg(n_docs=("n_tokens", "size"),
                                      n_tokens=("n_tokens", "sum"))
        return g.reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby("source", as_index=False).agg(
        n_docs=("n_docs", "sum"), n_tokens=("n_tokens", "sum"))
    out["weight"] = (out["n_tokens"] / out["n_tokens"].sum()).round(6)
    out["n_docs"] = out["n_docs"].astype(np.int64)
    out["n_tokens"] = out["n_tokens"].astype(np.int64)
    return out.sort_values("source").reset_index(drop=True)


SQL_MIXTURE_WEIGHTS = """
WITH s AS (
  SELECT source, COUNT(*) AS n_docs,
         SUM(length(text) - length(replace(text, ' ', '')) + 1) AS n_tokens
  FROM documents GROUP BY source)
SELECT source, n_docs, CAST(n_tokens AS BIGINT) AS n_tokens,
       ROUND(CAST(n_tokens AS DOUBLE) / SUM(n_tokens) OVER (), 6) AS weight
FROM s ORDER BY source
"""


# =====================================================================
# D. crawl pipelines over the hermetic synthetic web (rows-only checks:
#    the real oracle is the sequential crawler, enforced in pytest —
#    tests/test_greedy_parity.py — not expressible in SQL)
# =====================================================================

def _synthweb_ref():
    """Deterministic synthetic web + broadcast url map (cached per run)."""
    from icrawler_ray.synthweb.generate import add_search_fixtures, make_synthweb

    global _WEB_CACHE
    try:
        return _WEB_CACHE
    except NameError:
        pass
    web = make_synthweb(n_pages=120, n_hosts=4, seed=42)
    add_search_fixtures(web, keyword="cat")
    _WEB_CACHE = (web, ray.put(web.url_map()))
    return _WEB_CACHE


def q_crawl_urllist(sf_dir: str):
    """UrlListCrawler pipeline (§3.3): seeds -> tasks -> fetch -> ordered
    filenames. Deterministic given the fixed synthweb seed."""
    from icrawler_ray.pipelines.urllist import urllist_crawl

    web, ref = _synthweb_ref()
    out = urllist_crawl(ref, web.seeds, max_num=100, keep_content=False).to_pandas()
    return out[["file_url", "filename", "img_w", "img_h"]].sort_values("filename").reset_index(drop=True)


def q_crawl_google(sf_dir: str):
    """GoogleImageCrawler pipeline (§3.1) over fixture result pages."""
    from icrawler_ray.pipelines.search import search_crawl

    web, ref = _synthweb_ref()
    out = search_crawl(ref, "google", keyword="cat", max_num=50, keep_content=False).to_pandas()
    return out[["file_url", "filename"]].sort_values("filename").reset_index(drop=True)


def q_crawl_flickr(sf_dir: str):
    """FlickrImageCrawler pipeline with the nested per-photo getSizes
    fetch inside the parse actors."""
    from icrawler_ray.pipelines.search import search_crawl

    web, ref = _synthweb_ref()
    out = search_crawl(ref, "flickr", max_num=20, keep_content=False,
                       flickr_kwargs={"per_page": 10, "max_pages": 2}).to_pandas()
    return out[["file_url", "filename"]].sort_values("filename").reset_index(drop=True)


def q_crawl_greedy(sf_dir: str):
    """GreedyImageCrawler frontier loop (§3.2): politeness gate + sharded
    seen-set + per-round fetch/parse; pytest enforces oracle equality."""
    from icrawler_ray.pipelines.greedy import greedy_crawl
    from icrawler_ray.stages.politeness import HostPolicy

    web, ref = _synthweb_ref()
    policy = HostPolicy(web.host_policy, round_ms=1000)
    docs, results, _metrics = greedy_crawl(
        ref, web.domains, policy=policy, max_num=40, max_depth=3,
        keep_content=False,
    )
    if results is None:
        return pd.DataFrame({"file_url": [], "filename": []})
    out = results.to_pandas()
    return out[["file_url", "filename", "img_w", "img_h"]].sort_values("filename").reset_index(drop=True)


def q_frontier_seen_filter(sf_dir: str):
    """sharded bloom+cuckoo seen-set over a synthetic frontier with ~30%
    duplicates: per-shard novel/dup/query counts (Q1 at the north-rule
    shape; deterministic)."""
    from icrawler_ray.state.seen import ShardedSeenSet

    rng = np.random.default_rng(42)
    n = 50_000
    uniq = rng.integers(0, 2**62, int(n * 0.7), dtype=np.uint64)
    dups = uniq[rng.integers(0, len(uniq), n - len(uniq))]
    keys = np.concatenate([uniq, dups])
    rng.shuffle(keys)
    seen = ShardedSeenSet("q_frontier", num_shards=8, capacity_per_shard=1 << 17)
    try:
        novel = seen.filter_and_insert_array(keys)
        stats = seen.stats()
        return pd.DataFrame(
            {
                "shard_id": np.arange(len(stats), dtype=np.int64),
                "num_items": [s["num_items"] for s in stats],
                "num_queries": [s["num_queries"] for s in stats],
                "num_hits": [s["num_hits"] for s in stats],
                "total_novel": int(novel.sum()),
            }
        )
    finally:
        seen.shutdown()


#: inverted-index DF floor — keeps the index output to terms that matter
#: (and the oracle's HAVING clause identical)
INVINDEX_MIN_DF = 5


def q_inverted_index(sf_dir: str):
    """Inverted-index build: term -> (df, comma-joined sorted posting
    list) for terms with df >= INVINDEX_MIN_DF.  The index build IS a
    shuffle — distinct (doc, term) pairs exchanged by hash(term) — but
    the pairs are per-batch DEDUPED before the exchange and the groupby
    key is a bounded partition id (one fat group per partition, not one
    tiny group per term — the known Ray pitfall).  Posting lists are
    emitted as strings so the driver's sort/hash compare stays on scalar
    columns."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    P = 32

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        ex = df.assign(term=df["text"].str.split(" "))[["doc_id", "term"]] \
            .explode("term").drop_duplicates()
        return pd.DataFrame({
            "part": (pd.util.hash_array(ex["term"].to_numpy(dtype=object)) % P)
            .astype(np.int64),
            "term": ex["term"].to_numpy(dtype=object),
            "doc_id": ex["doc_id"].to_numpy(dtype=np.int64)})

    def build(g: pd.DataFrame) -> pd.DataFrame:
        out = {"term": [], "df": [], "postings": []}
        for term, rows in g.groupby("term", sort=True):
            ids = np.unique(rows["doc_id"].to_numpy())
            if len(ids) < INVINDEX_MIN_DF:
                continue
            out["term"].append(term)
            out["df"].append(len(ids))
            out["postings"].append(",".join(map(str, ids.tolist())))
        return pd.DataFrame({"term": out["term"],
                             "df": np.asarray(out["df"], dtype=np.int64),
                             "postings": out["postings"]})

    return (ds.map_batches(pairs, batch_format="pandas")
            .groupby("part").map_groups(build, batch_format="pandas")
            .to_pandas().sort_values("term").reset_index(drop=True))


SQL_INVERTED_INDEX = f"""
WITH pairs AS (SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS term
               FROM documents)
SELECT term, CAST(COUNT(*) AS BIGINT) AS df,
       string_agg(doc_id::VARCHAR, ',' ORDER BY doc_id) AS postings
FROM pairs GROUP BY term HAVING COUNT(*) >= {INVINDEX_MIN_DF} ORDER BY term
"""


#: collocation floor + report size (identical constants in the oracle)
PMI_MIN_COUNT = 5
PMI_TOP_K = 50


def q_bigram_pmi(sf_dir: str):
    """Top-{PMI_TOP_K} bigram collocations by pointwise mutual
    information: pmi = ln((c_ab/B) / ((c_a/T)(c_b/T))) over corpus
    unigram/bigram counts, bigrams with count >= PMI_MIN_COUNT.
    Combiner pattern: per-batch unigram and bigram partial counts (both
    within-doc, so batches are independent) -> vocabulary-bounded driver
    reduce -> vectorized PMI + top-k.  Ranking uses the ROUNDED pmi in
    both engine and oracle so libm near-ties can't flip order."""
    from itertools import chain

    ds = _read(sf_dir, "documents", ["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        lists = df["text"].str.split(" ").tolist()
        uni = pd.Series(list(chain.from_iterable(lists))).value_counts()
        w1 = list(chain.from_iterable(t[:-1] for t in lists))
        w2 = list(chain.from_iterable(t[1:] for t in lists))
        bc = pd.DataFrame({"w1": w1, "w2": w2}).groupby(
            ["w1", "w2"], sort=False).size()
        # explicit 'kind' discriminator, NOT a w2=="" sentinel: an empty
        # token (consecutive spaces in text) would produce a real bigram
        # with w2=="" that a sentinel would fold into the unigram counts
        # (ADVICE r3 #3)
        return pd.DataFrame({
            "kind": np.concatenate([np.full(len(uni), "u", dtype=object),
                                    np.full(len(bc), "b", dtype=object)]),
            "w1": np.concatenate([uni.index.to_numpy(dtype=object),
                                  bc.index.get_level_values(0).to_numpy(dtype=object)]),
            "w2": np.concatenate([np.full(len(uni), "", dtype=object),
                                  bc.index.get_level_values(1).to_numpy(dtype=object)]),
            "c": np.concatenate([uni.to_numpy(), bc.to_numpy()]).astype(np.int64)})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    agg = parts.groupby(["kind", "w1", "w2"], as_index=False)["c"].sum()
    uni = agg[agg["kind"] == "u"].set_index("w1")["c"]
    big = agg[agg["kind"] == "b"]
    big = big[big["c"] >= PMI_MIN_COUNT]
    T = float(uni.sum())
    B = float(agg.loc[agg["kind"] == "b", "c"].sum())
    pa_ = uni[big["w1"]].to_numpy(dtype=np.float64) / T
    pb_ = uni[big["w2"]].to_numpy(dtype=np.float64) / T
    pmi = np.round(np.log((big["c"].to_numpy(dtype=np.float64) / B) / (pa_ * pb_)), 6)
    out = pd.DataFrame({"w1": big["w1"].to_numpy(), "w2": big["w2"].to_numpy(),
                        "n": big["c"].to_numpy(dtype=np.int64), "pmi": pmi})
    out = out.sort_values(["pmi", "w1", "w2"], ascending=[False, True, True],
                          kind="mergesort").head(PMI_TOP_K)
    return out.reset_index(drop=True)


SQL_BIGRAM_PMI = f"""
WITH toks AS (SELECT string_split(text, ' ') AS tk FROM documents),
u AS (SELECT unnest(tk) AS w FROM toks),
uc AS (SELECT w, COUNT(*) AS c FROM u GROUP BY w),
tt AS (SELECT CAST(SUM(c) AS DOUBLE) AS t FROM uc),
bg AS (SELECT unnest(list_transform(range(1, len(tk)),
                                    i -> [tk[i], tk[i + 1]])) AS p
       FROM toks WHERE len(tk) >= 2),
bc AS (SELECT p[1] AS w1, p[2] AS w2, COUNT(*) AS c FROM bg GROUP BY w1, w2),
bb AS (SELECT CAST(SUM(c) AS DOUBLE) AS b FROM bc)
SELECT w1, w2, CAST(bc.c AS BIGINT) AS n,
       ROUND(ln((bc.c / bb.b) / ((a1.c / tt.t) * (a2.c / tt.t))), 6) AS pmi
FROM bc JOIN uc a1 ON bc.w1 = a1.w JOIN uc a2 ON bc.w2 = a2.w
CROSS JOIN bb CROSS JOIN tt
WHERE bc.c >= {PMI_MIN_COUNT}
ORDER BY pmi DESC, w1, w2 LIMIT {PMI_TOP_K}
"""


#: heavy-hitter report size and Misra-Gries sketch width (width >> k so
#: the containment guarantee holds with huge margin at every sf)
HH_TOP_K = 20
HH_SKETCH_K = 4000


def q_heavy_hitters(sf_dir: str):
    """Top-{HH_TOP_K} most frequent terms via a MERGEABLE Misra-Gries
    sketch + exact recount — the sketch pattern for frequency stats at
    corpus scale, kept oracle-exact:

    1. per-batch: exact term counts, MG-truncated to HH_SKETCH_K entries
       (subtract the (k+1)-th count, drop <= 0) — bounded partials, so
       the exchange is sketch-sized, never vocabulary-sized;
    2. driver merge (sum + re-truncate): any term with true count >
       N/HH_SKETCH_K survives — with HH_SKETCH_K >> HH_TOP_K the true
       top-{HH_TOP_K} are guaranteed in the candidate set (asserted);
    3. exact recount of the candidates only (broadcast sorted array,
       per-batch searchsorted counts) -> exact counts -> top-k by
       (count desc, term asc), identical to the SQL oracle."""
    from itertools import chain

    ds = _read(sf_dir, "documents", ["text"])

    def mg_partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = pd.Series(list(chain.from_iterable(
            df["text"].str.split(" ").tolist()))).value_counts()
        n_total = int(vc.sum())
        if len(vc) > HH_SKETCH_K:
            cut = int(vc.iloc[HH_SKETCH_K])
            vc = (vc - cut)[lambda s: s > 0]
        nb = np.zeros(len(vc), dtype=np.int64)
        if len(nb):
            nb[0] = n_total  # batch token total rides the first row
        return pd.DataFrame({"term": vc.index.to_numpy(dtype=object),
                             "c": vc.to_numpy(dtype=np.int64),
                             "n_batch": nb})

    parts = ds.map_batches(mg_partial, batch_format="pandas").to_pandas()
    n_tokens = int(parts["n_batch"].sum())
    merged = parts.groupby("term")["c"].sum().sort_values(ascending=False)
    if len(merged) > HH_SKETCH_K:
        cut = int(merged.iloc[HH_SKETCH_K])
        merged = (merged - cut)[lambda s: s > 0]
    cand = np.sort(merged.index.to_numpy(dtype=object))
    cand_ref = ray.put(cand)

    def recount(df: pd.DataFrame) -> pd.DataFrame:
        cset = ray.get(cand_ref)
        toks = np.asarray(list(chain.from_iterable(
            df["text"].str.split(" ").tolist())), dtype=object)
        idx = np.searchsorted(cset, toks)
        idx[idx >= len(cset)] = 0
        hit = cset[idx] == toks
        bc = np.bincount(idx[hit], minlength=len(cset))
        nz = np.flatnonzero(bc)
        return pd.DataFrame({"term": cset[nz], "c": bc[nz].astype(np.int64)})

    exact = (ds.map_batches(recount, batch_format="pandas").to_pandas()
             .groupby("term")["c"].sum())
    out = exact.reset_index().rename(columns={"c": "n"})
    out = out.sort_values(["n", "term"], ascending=[False, True],
                          kind="mergesort").head(HH_TOP_K).reset_index(drop=True)
    # MG containment guarantee check: the smallest reported exact count
    # must clear the TWO-LEVEL sketch's max undercount — per-batch
    # truncation plus driver merge re-truncation each shed up to
    # N/(K+1), so the bound is ~2N/(K+1), not N/K (ADVICE r3 #2). Never
    # fires at HH_SKETCH_K >> HH_TOP_K.
    assert int(out["n"].min()) > 2 * n_tokens // (HH_SKETCH_K + 1), \
        "MG sketch width too small for this corpus — raise HH_SKETCH_K"
    out["n"] = out["n"].astype(np.int64)
    return out


SQL_HEAVY_HITTERS = f"""
WITH toks AS (SELECT unnest(string_split(text, ' ')) AS term FROM documents)
SELECT term, CAST(COUNT(*) AS BIGINT) AS n
FROM toks GROUP BY term ORDER BY n DESC, term LIMIT {HH_TOP_K}
"""


def q_cross_source_overlap(sf_dir: str):
    """Cross-source content-overlap matrix: for every source pair, how
    many distinct opening 3-token shingles they share (the corpus-
    hygiene signal behind per-source dedup priorities; full-doc md5
    never collides across sources in this corpus, so the operator
    fingerprints the opening shingle).  Per-batch distinct (source,
    fingerprint) rows -> hash(fp) partition exchange -> each partition
    emits source-PAIR rows per shared fingerprint -> tiny (n_sources^2)
    driver reduce.  Nothing driver-side is fingerprint-sized."""
    from icrawler_ray.stages.dedup import md5_pair

    ds = _read(sf_dir, "documents", ["text", "source"])
    P = 32

    def fps(df: pd.DataFrame) -> pd.DataFrame:
        prefix = [" ".join(t.split(" ")[:3]) for t in df["text"]]
        h = md5_pair(prefix)[:, 0].astype(np.uint64)
        out = pd.DataFrame({"fp": h.view(np.int64),
                            "source": df["source"].to_numpy(dtype=object)}) \
            .drop_duplicates()
        out["part"] = (out["fp"].to_numpy().astype(np.uint64) % np.uint64(P)) \
            .astype(np.int64)
        return out[["part", "fp", "source"]]

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        out = {"src_a": [], "src_b": []}
        for _fp, rows in g.groupby("fp", sort=False):
            ss = sorted(set(rows["source"]))
            for i in range(len(ss)):
                for j in range(i + 1, len(ss)):
                    out["src_a"].append(ss[i])
                    out["src_b"].append(ss[j])
        return pd.DataFrame(out)

    got = (ds.map_batches(fps, batch_format="pandas")
           .groupby("part").map_groups(pairs, batch_format="pandas")
           .to_pandas())
    if not len(got):
        return pd.DataFrame({"src_a": [], "src_b": [], "shared": []})
    out = got.groupby(["src_a", "src_b"], as_index=False).size() \
        .rename(columns={"size": "shared"})
    out["shared"] = out["shared"].astype(np.int64)
    return out.sort_values(["src_a", "src_b"]).reset_index(drop=True)


SQL_CROSS_SOURCE_OVERLAP = """
WITH fp AS (SELECT DISTINCT source,
                   array_to_string(string_split(text, ' ')[1:3], ' ') AS f
            FROM documents)
SELECT a.source AS src_a, b.source AS src_b, CAST(COUNT(*) AS BIGINT) AS shared
FROM fp a JOIN fp b ON a.f = b.f AND a.source < b.source
GROUP BY src_a, src_b ORDER BY src_a, src_b
"""


def q_kmeans_assign(sf_dir: str):
    """Distributed k-means (k=6, 2 Lloyd iterations, cosine assignment,
    raw-mean update, init = k lowest-id vectors): (vec_id, cluster).
    Each iteration is one map_batches pass emitting k x dim partial
    (count, sum) rows combined on the driver; centroids travel by one
    ray.put per iteration. The oracle unrolls both iterations in SQL."""
    from icrawler_ray.stages.clustering import kmeans_assign

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = kmeans_assign(ds, k=6, n_iter=2).to_pandas()
    out["cluster"] = out["cluster"].astype(np.int64)
    return out[["vec_id", "cluster"]].sort_values("vec_id").reset_index(drop=True)


def _sql_kmeans(k: int, n_iter: int, dim: int = 64) -> str:
    """Iteration-unrolled Lloyd's: assignment = argmax cosine (ties to
    the lowest centroid id), update = element-wise AVG of raw vectors.
    An empty cluster simply vanishes from the next centroid CTE, which
    matches the engine's drop-not-reseed rule."""
    parts = [f"""
WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
c0 AS MATERIALIZED (SELECT CAST(row_number() OVER (ORDER BY vec_id) - 1 AS INTEGER) AS cid, v
      FROM e ORDER BY vec_id LIMIT {k})"""]
    for it in range(n_iter):
        parts.append(f"""
a{it} AS MATERIALIZED (SELECT vec_id, cid FROM (
  SELECT e.vec_id, c.cid,
         row_number() OVER (PARTITION BY e.vec_id
             ORDER BY list_cosine_similarity(e.v, c.v) DESC, c.cid) AS rn
  FROM e CROSS JOIN c{it} c) WHERE rn = 1)""")
        parts.append(f"""
c{it + 1} AS MATERIALIZED (SELECT cid, list(m ORDER BY idx) AS v FROM (
  SELECT a.cid, t.i AS idx, AVG(e.v[t.i]) AS m
  FROM a{it} a JOIN e USING (vec_id) CROSS JOIN range(1, {dim + 1}) t(i)
  GROUP BY a.cid, t.i) GROUP BY cid)""")
    parts.append(f"""
afin AS (SELECT vec_id, cid FROM (
  SELECT e.vec_id, c.cid,
         row_number() OVER (PARTITION BY e.vec_id
             ORDER BY list_cosine_similarity(e.v, c.v) DESC, c.cid) AS rn
  FROM e CROSS JOIN c{n_iter} c) WHERE rn = 1)""")
    return (",".join(parts)
            + "\nSELECT vec_id, CAST(cid AS BIGINT) AS cluster FROM afin ORDER BY vec_id")


SQL_KMEANS_ASSIGN = _sql_kmeans(k=6, n_iter=2)


def q_semantic_dedup(sf_dir: str):
    """SemDeDup (arXiv:2303.09540) earlier-neighbor variant: k-means
    partition (k=6, 2 iters), then drop any vector whose cosine to a
    lower-id member of its cluster is >= 0.3 (threshold tuned
    to the synthetic table's cosine range so the drop path is exercised —
    see embedding_near_dup's 0.4). Returns kept
    (vec_id, cluster). The cluster key is the only shuffle; the
    per-cluster kernel is a tiled matmul (stages/clustering.py)."""
    from icrawler_ray.stages.clustering import semantic_dedup

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = semantic_dedup(ds, k=6, n_iter=2, tau=0.3)
    out["cluster"] = out["cluster"].astype(np.int64)
    return out.reset_index(drop=True)


SQL_SEMANTIC_DEDUP = _sql_kmeans(k=6, n_iter=2).replace(
    "\nSELECT vec_id, CAST(cid AS BIGINT) AS cluster FROM afin ORDER BY vec_id",
    """,
dropped AS (SELECT DISTINCT hi.vec_id
  FROM afin lo JOIN afin hi ON lo.cid = hi.cid AND lo.vec_id < hi.vec_id
  JOIN e el ON el.vec_id = lo.vec_id JOIN e eh ON eh.vec_id = hi.vec_id
  WHERE list_cosine_similarity(el.v, eh.v) >= 0.3)
SELECT a.vec_id, CAST(a.cid AS BIGINT) AS cluster FROM afin a
WHERE a.vec_id NOT IN (SELECT vec_id FROM dropped) ORDER BY a.vec_id""")


def q_topk_per_group(sf_dir: str):
    """Grouped top-k without a global sort: each batch emits its own
    per-group top-3 (output-sized partial — at most groups x 3 rows per
    batch), and the driver merge re-ranks the bounded partial table.
    The full orders table is never shuffled or sorted."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        top = (df.sort_values(["o_totalprice", "o_orderkey"],
                              ascending=[False, True])
               .groupby("o_orderpriority", sort=False).head(3))
        return pa.Table.from_pandas(top, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = (parts.sort_values(["o_totalprice", "o_orderkey"],
                             ascending=[False, True])
           .groupby("o_orderpriority", sort=False).head(3))
    out = out.sort_values(["o_orderpriority", "o_totalprice", "o_orderkey"],
                          ascending=[True, False, True]).reset_index(drop=True)
    out["rank"] = out.groupby("o_orderpriority").cumcount() + 1
    return out


SQL_TOPK_PER_GROUP = """
SELECT o_orderkey, o_orderpriority, o_totalprice,
       row_number() OVER (PARTITION BY o_orderpriority
                          ORDER BY o_totalprice DESC, o_orderkey) AS rank
FROM orders QUALIFY rank <= 3
ORDER BY o_orderpriority, rank
"""


def q_weighted_sample(sf_dir: str):
    """Deterministic weighted sampling without replacement (Efraimidis-
    Spirakis A-ES, k=50, weight = o_totalprice): score = -ln(u)/w with
    u derived from md5(o_orderkey) — content-stable, so the sample is
    identical across runs/resharding AND SQL-reproducible. Each batch
    keeps its 50 best scores (output-sized partials); no shuffle. The
    2^32 modulus keeps every intermediate exactly representable in
    float64 on both sides."""
    from icrawler_ray.stages.dedup import md5_pair

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["o_orderkey"].to_pylist()
        h = md5_pair([str(i) for i in ids])[:, 0]
        u = ((h % np.uint64(4294967296)).astype(np.float64) + 1.0) / 4294967297.0
        w = np.asarray(batch["o_totalprice"].to_pylist(), dtype=np.float64)
        score = -np.log(u) / w
        take = np.argsort(score, kind="stable")[:50]
        return pa.table({
            "o_orderkey": pa.array([ids[i] for i in take], type=pa.int64()),
            "o_totalprice": pa.array(w[take], type=pa.float64()),
            "score": pa.array(score[take], type=pa.float64()),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = parts.nsmallest(50, "score").sort_values("o_orderkey")
    return out[["o_orderkey", "o_totalprice"]].reset_index(drop=True)


SQL_WEIGHTED_SAMPLE = """
SELECT o_orderkey, o_totalprice FROM (
  SELECT o_orderkey, o_totalprice,
         -ln(((md5_number_lower(o_orderkey::VARCHAR) % 4294967296) + 1.0)
             / 4294967297.0) / o_totalprice AS score
  FROM orders ORDER BY score LIMIT 50)
ORDER BY o_orderkey
"""


def q_embedding_dim_stats(sf_dir: str):
    """Per-dimension mean / population std over the embedding column —
    the feature-scaling primitive. One map_batches pass emits dim-sized
    (n, sum, sumsq) partials; the driver combine is O(dim) regardless of
    corpus size."""
    ds = _read(sf_dir, "embeddings", ["embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        m = np.asarray(batch["embedding"].to_pylist(), dtype=np.float64)
        return pa.table({
            "dim": pa.array(np.arange(m.shape[1], dtype=np.int64)),
            "n": pa.array(np.full(m.shape[1], m.shape[0], dtype=np.int64)),
            "s": pa.array(m.sum(axis=0)),
            "ss": pa.array((m * m).sum(axis=0)),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("dim", sort=True).sum()
    mean = g.s / g.n
    var = g.ss / g.n - mean * mean
    return pd.DataFrame({
        "dim": g.index.to_numpy() + 1,  # 1-based like SQL list indexing
        "mean": np.round(mean.to_numpy(), 6),
        "std": np.round(np.sqrt(np.maximum(var.to_numpy(), 0.0)), 6),
    })


SQL_EMBEDDING_DIM_STATS = """
SELECT t.i AS dim,
       ROUND(AVG(CAST(embedding[t.i] AS DOUBLE)), 6) AS mean,
       ROUND(stddev_pop(CAST(embedding[t.i] AS DOUBLE)), 6) AS std
FROM embeddings CROSS JOIN range(1, 65) t(i)
GROUP BY t.i ORDER BY t.i
"""


def q_shuffle_positions(sf_dir: str):
    """Deterministic global training-order shuffle: every doc gets a
    content-stable pseudo-random position (rank of md5(doc_id)). One
    vectorized pass adds the hash key; the distributed sort is the only
    shuffle; position assignment is the metadata prefix-sum from
    functions/seq.py (driver sees one int per block). Reproducible
    across runs and resharding — unlike random_shuffle()."""
    from icrawler_ray.functions.seq import assign_global_seq
    from icrawler_ray.stages.dedup import md5_pair

    ds = _read(sf_dir, "documents", ["doc_id"])

    def key(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        h = md5_pair([str(i) for i in ids])[:, 0]
        return pa.table({"doc_id": batch["doc_id"],
                         "h": pa.array(h, type=pa.uint64())})

    keyed = ds.map_batches(key, batch_format="pyarrow")
    pos = assign_global_seq(keyed, ["h", "doc_id"], col="pos")
    out = pos.to_pandas()[["doc_id", "pos"]].sort_values("doc_id")
    return out.reset_index(drop=True)


SQL_SHUFFLE_POSITIONS = """
SELECT doc_id,
       row_number() OVER (
           ORDER BY md5_number_lower(doc_id::VARCHAR), doc_id
       ) - 1 AS pos
FROM documents ORDER BY doc_id
"""


def q_bloom_semi_join(sf_dir: str):
    """Shuffle-free big-side semi-join: lineitem rows whose order is
    URGENT-priority, without moving lineitem. The small side's keys are
    collected via a column-pruned read, packed into the engine's
    BloomFilter (state/bloom.py — 10 bits/key, ~100x smaller than the
    key set) and broadcast once with ray.put; each lineitem batch
    probes the bloom, then exact-verifies survivors against the
    broadcast sorted key array so the result is EXACT (bloom false
    positives die in the verify; at scale the bloom keeps the sorted
    probe array out of the hot loop for the 99% of rows it rejects).
    Output: per-returnflag row count + revenue of the semi-joined rows."""
    import pyarrow.compute as pc

    from icrawler_ray.state.bloom import BloomFilter

    def urgent(batch: pa.Table) -> pa.Table:
        m = pc.equal(batch["o_orderpriority"], pa.scalar("1-URGENT"))
        return batch.filter(m).select(["o_orderkey"])

    keys = (_read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
            .map_batches(urgent, batch_format="pyarrow")
            .to_pandas()["o_orderkey"].to_numpy(dtype=np.uint64))
    bf = BloomFilter(capacity=max(len(keys), 1024))
    bf.add(keys)
    side = ray.put((bf.serialize(), np.sort(keys)))

    ds = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"])

    def probe(batch: pa.Table) -> pa.Table:
        payload, sorted_keys = ray.get(side)
        bloom = BloomFilter.deserialize(payload)
        k = np.asarray(batch["l_orderkey"].to_pylist(), dtype=np.uint64)
        cand = bloom.contains(k)
        exact = cand.copy()
        if cand.any():
            pos = np.searchsorted(sorted_keys, k[cand])
            pos[pos >= len(sorted_keys)] = len(sorted_keys) - 1
            exact[cand] = sorted_keys[pos] == k[cand]
        t = batch.filter(pa.array(exact))
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        df = pd.DataFrame({"l_returnflag": t["l_returnflag"].to_pylist(),
                           "rev": rev.to_pylist()})
        g = df.groupby("l_returnflag").agg(n=("rev", "size"), revenue=("rev", "sum"))
        return pa.table({"l_returnflag": g.index.tolist(),
                         "n": pa.array(g.n.to_numpy(), type=pa.int64()),
                         "revenue": pa.array(g.revenue.to_numpy(), type=pa.float64())})

    parts = ds.map_batches(probe, batch_format="pyarrow").to_pandas()
    out = (parts.groupby("l_returnflag", as_index=False)
           .agg(n=("n", "sum"), revenue=("revenue", "sum")))
    out["revenue"] = np.round(out["revenue"], 2)
    return out.sort_values("l_returnflag").reset_index(drop=True)


SQL_BLOOM_SEMI_JOIN = """
SELECT l_returnflag, CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(SUM(l_extendedprice * (1.0 - l_discount)), 2) AS revenue
FROM lineitem WHERE l_orderkey IN
  (SELECT o_orderkey FROM orders WHERE o_orderpriority = '1-URGENT')
GROUP BY l_returnflag ORDER BY l_returnflag
"""


def q_triangle_count(sf_dir: str):
    """Per-node triangle participation over the derived link graph —
    degree-ordered orientation bounds wedge fan-out (no O(deg^2) hub
    blowup); see stages/linkgraph.py::triangle_counts scale notes.
    A crawl-side use: triangle density separates organic link
    neighborhoods from link-farm cliques when scoring hosts."""
    from icrawler_ray.stages.linkgraph import derive_edges, triangle_counts

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()
    return triangle_counts(derive_edges(docs, n), n)


SQL_TRIANGLE_COUNT = f"""
WITH {_SQL_EDGES_CTE},
und AS (SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b
        FROM edges),
tri AS (
  SELECT e1.a AS x, e1.b AS y, e2.b AS z
  FROM und e1
  JOIN und e2 ON e2.a = e1.b
  JOIN und e3 ON e3.a = e1.a AND e3.b = e2.b
),
tn AS (SELECT x AS node FROM tri UNION ALL
       SELECT y FROM tri UNION ALL
       SELECT z FROM tri),
c AS (SELECT node, COUNT(*) AS tri FROM tn GROUP BY node)
SELECT d.doc_id AS node, CAST(COALESCE(c.tri, 0) AS BIGINT) AS tri
FROM documents d LEFT JOIN c ON c.node = d.doc_id
ORDER BY node
"""


def q_join_salted(sf_dir: str):
    """Big-big shuffle join with hot-key salting: lineitem x orders on
    orderkey, revenue rollup by order priority.  Neither side is
    broadcast — the exchange is one groupby(salted key), with keys past
    ``hot_threshold`` probe-split / build-replicated across salt buckets
    so no reducer inherits a whole hot key (stages/joins.py scale
    notes).  The toy threshold here forces most keys down the salted
    path, so the oracle check covers split + replicate + merge, not
    just the cold-key fast path."""
    from icrawler_ray.stages.joins import salted_hash_join

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_extendedprice", "l_discount"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    orders = orders.map_batches(
        lambda df: df.rename(columns={"o_orderkey": "l_orderkey"}),
        batch_format="pandas")

    def agg(joined: pd.DataFrame) -> pd.DataFrame:
        if not len(joined):
            return pd.DataFrame({"o_orderpriority": pd.Series(dtype=object),
                                 "n": pd.Series(dtype=np.int64),
                                 "revenue": pd.Series(dtype=np.float64)})
        rev = joined["l_extendedprice"].to_numpy() * (
            1.0 - joined["l_discount"].to_numpy())
        g = pd.DataFrame({"o_orderpriority": joined["o_orderpriority"],
                          "rev": rev}).groupby("o_orderpriority")["rev"]
        tot = g.sum()
        return pd.DataFrame({"o_orderpriority": tot.index,
                             "n": g.size().to_numpy(dtype=np.int64),
                             "revenue": tot.to_numpy()})

    parts = salted_hash_join(
        li, orders, "l_orderkey", salt=4, hot_threshold=3,
        probe_salt_col="l_linenumber", agg_fn=agg).to_pandas()
    out = (parts.groupby("o_orderpriority", as_index=False)
           .agg(n=("n", "sum"), revenue=("revenue", "sum")))
    out["n"] = out["n"].astype("int64")
    out["revenue"] = out["revenue"].round(2)
    return out.sort_values("o_orderpriority").reset_index(drop=True)


SQL_JOIN_SALTED = """
SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(SUM(l_extendedprice * (1.0 - l_discount)), 2) AS revenue
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


#: DSIR feature-space size (hashed unigram buckets) and target source
DSIR_BUCKETS = 1024
DSIR_TARGET = "src0"


def q_dsir_weights(sf_dir: str):
    """Data Selection via Importance Resampling (Xie et al., NeurIPS
    2023, arXiv:2302.03169 — public-paper operator): score every doc by
    the log importance ratio of a TARGET source's hashed-unigram
    distribution over the background's.  The at-scale recipe for
    "select web data that looks like my curated set" without a model.

    Two streaming passes, zero shuffles:
      1. bucket-count COMBINER — each batch emits (is_target, bucket,
         n) partials bounded by 2 x DSIR_BUCKETS, the driver reduces
         them into two bucket vectors and broadcasts the add-1-smoothed
         log-ratio vector via ``ray.put`` (8 KB);
      2. per-doc score — one vectorized map_batches pass summing the
         broadcast ratios over each doc's token buckets.

    Tokens are space-split (the suite's standard), bucketed by DuckDB-
    compatible md5-lower %% DSIR_BUCKETS so the SQL oracle replays the
    identical featurization."""
    from icrawler_ray.stages.dedup import md5_pair

    B = DSIR_BUCKETS
    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def _token_buckets(df: pd.DataFrame):
        ex = df["text"].str.split(" ").explode()
        ex = ex[(ex != "") & ex.notna()]
        if not len(ex):
            return ex, np.array([], dtype=np.int64)
        uniq, inv = np.unique(ex.to_numpy(), return_inverse=True)
        bk = (md5_pair(uniq)[:, 0] % np.uint64(B)).astype(np.int64)
        return ex, bk[inv]

    def pass1(df: pd.DataFrame) -> pd.DataFrame:
        ex, bk = _token_buckets(df)
        if not len(bk):
            return pd.DataFrame({"t": pd.Series(dtype=bool),
                                 "b": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64)})
        tgt = df["source"].eq(DSIR_TARGET).reindex(ex.index).to_numpy()
        g = pd.DataFrame({"t": tgt, "b": bk}).groupby(["t", "b"]).size()
        gi = g.index.to_frame(index=False)
        return pd.DataFrame({"t": gi["t"].to_numpy(), "b": gi["b"].to_numpy(),
                             "n": g.to_numpy()})

    parts = docs.map_batches(pass1, batch_format="pandas").to_pandas()
    vec_t = np.zeros(B); vec_b = np.zeros(B)
    for t, vec in ((True, vec_t), (False, vec_b)):
        sub = parts[parts["t"] == t].groupby("b")["n"].sum()
        vec[sub.index.to_numpy()] = sub.to_numpy()
    lam = (np.log((vec_t + 1.0) / (vec_t.sum() + B))
           - np.log((vec_b + 1.0) / (vec_b.sum() + B)))
    lam_ref = ray.put(lam)

    def pass2(df: pd.DataFrame) -> pd.DataFrame:
        lam_v = ray.get(lam_ref)
        ex, bk = _token_buckets(df)
        score = pd.Series(0.0, index=df.index)
        if len(bk):
            ssum = pd.Series(lam_v[bk], index=ex.index).groupby(level=0).sum()
            score.loc[ssum.index] = ssum
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                             "dsir_score": np.round(score.to_numpy(), 6)})

    out = docs.map_batches(pass2, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_DSIR_WEIGHTS = f"""
WITH tok AS (SELECT doc_id, source, unnest(string_split(text, ' ')) AS w
             FROM documents),
tk AS (SELECT doc_id, source,
              CAST(md5_number_lower(w) % {DSIR_BUCKETS} AS BIGINT) AS b
       FROM tok WHERE w <> ''),
tc AS (SELECT b, COUNT(*) AS n FROM tk WHERE source = '{DSIR_TARGET}' GROUP BY b),
bc AS (SELECT b, COUNT(*) AS n FROM tk WHERE source <> '{DSIR_TARGET}' GROUP BY b),
tot AS (SELECT (SELECT COALESCE(SUM(n), 0) FROM tc) AS tn,
               (SELECT COALESCE(SUM(n), 0) FROM bc) AS bn),
grid AS (SELECT unnest(generate_series(0, {DSIR_BUCKETS} - 1)) AS b),
lam AS (SELECT grid.b,
               ln((COALESCE(tc.n, 0) + 1.0) / (tot.tn + {DSIR_BUCKETS}.0))
             - ln((COALESCE(bc.n, 0) + 1.0) / (tot.bn + {DSIR_BUCKETS}.0)) AS l
        FROM grid CROSS JOIN tot
        LEFT JOIN tc ON tc.b = grid.b
        LEFT JOIN bc ON bc.b = grid.b),
sc AS (SELECT tk.doc_id, SUM(lam.l) AS s
       FROM tk JOIN lam ON lam.b = tk.b GROUP BY tk.doc_id)
SELECT d.doc_id, ROUND(COALESCE(sc.s, 0), 6) AS dsir_score
FROM documents d LEFT JOIN sc ON sc.doc_id = d.doc_id
ORDER BY d.doc_id
"""


def q_source_kl(sf_dir: str):
    """Per-source token-distribution drift: KL(source || corpus) over
    the same md5-bucketed unigram space as q_dsir_weights — the mixture
    QA check a training-data pipeline runs to spot a source whose
    distribution diverged (scraper broke, language shifted, spam crept
    in).  One combiner pass: each batch emits (source, bucket, n)
    partials bounded by sources-in-batch x DSIR_BUCKETS; the driver
    reduce is source-count x bucket sized.  Add-1 smoothing on both
    distributions keeps the SQL oracle replay exact."""
    from icrawler_ray.stages.dedup import md5_pair

    B = DSIR_BUCKETS
    docs = _read(sf_dir, "documents", ["text", "source"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ex = df["text"].str.split(" ").explode()
        ex = ex[(ex != "") & ex.notna()]
        if not len(ex):
            return pd.DataFrame({"source": pd.Series(dtype=object),
                                 "b": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64)})
        uniq, inv = np.unique(ex.to_numpy(), return_inverse=True)
        bk = (md5_pair(uniq)[:, 0] % np.uint64(B)).astype(np.int64)[inv]
        src = df["source"].reindex(ex.index).to_numpy()
        g = pd.DataFrame({"source": src, "b": bk}).groupby(
            ["source", "b"]).size()
        gi = g.index.to_frame(index=False)
        return pd.DataFrame({"source": gi["source"].to_numpy(),
                             "b": gi["b"].to_numpy(), "n": g.to_numpy()})

    parts = docs.map_batches(partial, batch_format="pandas").to_pandas()
    agg = parts.groupby(["source", "b"])["n"].sum().reset_index()
    corpus = np.zeros(B)
    csub = agg.groupby("b")["n"].sum()
    corpus[csub.index.to_numpy()] = csub.to_numpy()
    q = (corpus + 1.0) / (corpus.sum() + B)
    rows = []
    for src, g in agg.groupby("source"):
        vec = np.zeros(B)
        vec[g["b"].to_numpy()] = g["n"].to_numpy()
        p = (vec + 1.0) / (vec.sum() + B)
        rows.append((src, round(float(np.sum(p * np.log(p / q))), 6)))
    return pd.DataFrame(rows, columns=["source", "kl"]).sort_values(
        "source").reset_index(drop=True)


SQL_SOURCE_KL = f"""
WITH tok AS (SELECT source, unnest(string_split(text, ' ')) AS w
             FROM documents),
tk AS (SELECT source, CAST(md5_number_lower(w) % {{B}} AS BIGINT) AS b
       FROM tok WHERE w <> ''),
sb AS (SELECT source, b, COUNT(*) AS n FROM tk GROUP BY source, b),
stot AS (SELECT source, SUM(n) AS tot FROM sb GROUP BY source),
cb AS (SELECT b, SUM(n) AS n FROM sb GROUP BY b),
ctot AS (SELECT SUM(n) AS tot FROM cb),
grid AS (SELECT s.source, g.b, st.tot AS stot, ct.tot AS ctot
         FROM (SELECT DISTINCT source FROM documents) s
         CROSS JOIN (SELECT unnest(generate_series(0, {{B}} - 1)) AS b) g
         JOIN stot st ON st.source = s.source
         CROSS JOIN ctot ct),
terms AS (SELECT grid.source,
                 (COALESCE(sb.n, 0) + 1.0) / (grid.stot + {{B}}.0) AS p,
                 (COALESCE(cb.n, 0) + 1.0) / (grid.ctot + {{B}}.0) AS q
          FROM grid
          LEFT JOIN sb ON sb.source = grid.source AND sb.b = grid.b
          LEFT JOIN cb ON cb.b = grid.b)
SELECT source, ROUND(SUM(p * ln(p / q)), 6) AS kl
FROM terms GROUP BY source ORDER BY source
""".replace("{B}", str(DSIR_BUCKETS))


def q_cdc_chunk_dedup(sf_dir: str):
    """Content-defined-chunking dedup (LBFS/FastCDC lineage): chunk
    every doc at content-defined boundaries (gear hash over code-point
    4-grams, stages/textfns.py::cdc_chunk_spans), then keep each
    chunk's corpus-global FIRST occurrence (doc_id, start order) —
    the shift-robust complement to q_paragraph_dedup: an inserted
    sentence upstream shifts every fixed or paragraph boundary but
    leaves CDC boundaries (and so dedup hits) intact downstream.

    Scale shape: chunk TEXT never moves — tasks emit 16-byte md5 chunk
    identities; the single exchange is a groupby over identity-hash
    BUCKETS (not per-chunk groups), vectorized first-of-run inside each
    bucket; per-doc rollups leave as combiner partials.  Returns
    (doc_id, n_chunks, n_kept, kept_chars) per non-empty doc."""
    from icrawler_ray.stages.textfns import cdc_chunk_rows

    P = 32
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    rows = docs.map_batches(cdc_chunk_rows, batch_format="pyarrow")
    rows = rows.map_batches(
        lambda df: df.assign(part=(df["h"].to_numpy(dtype=np.int64)
                                   % np.int64(P) + P) % P),
        batch_format="pandas")

    def first_of_run(g: pd.DataFrame) -> pd.DataFrame:
        rank = (g["doc_id"].to_numpy(dtype=np.uint64) << np.uint64(32)) \
            | g["start"].to_numpy(dtype=np.uint64)
        o = np.lexsort((rank, g["h"].to_numpy()))
        h_sorted = g["h"].to_numpy()[o]
        kept = np.ones(len(g), dtype=bool)
        kept[1:] = h_sorted[1:] != h_sorted[:-1]
        gg = pd.DataFrame({"doc_id": g["doc_id"].to_numpy()[o],
                           "n_chars": g["n_chars"].to_numpy()[o],
                           "kept": kept})
        out = gg.groupby("doc_id").agg(
            n_chunks=("kept", "size"), n_kept=("kept", "sum"))
        kc = gg.loc[gg["kept"]].groupby("doc_id")["n_chars"].sum()
        out["kept_chars"] = kc.reindex(out.index).fillna(0).astype(np.int64)
        return out.reset_index()

    parts = (rows.groupby("part")
             .map_groups(first_of_run, batch_format="pandas")).to_pandas()
    out = parts.groupby("doc_id", as_index=False).agg(
        n_chunks=("n_chunks", "sum"), n_kept=("n_kept", "sum"),
        kept_chars=("kept_chars", "sum"))
    for c in ("n_chunks", "n_kept", "kept_chars"):
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_CDC_CHUNK_DEDUP = """
WITH pos AS (
  SELECT doc_id, text, length(text) AS n,
         unnest(generate_series(4, length(text))) AS i
  FROM documents WHERE length(text) >= 4),
hh AS (
  SELECT doc_id, i,
         CAST((CAST((unicode(substr(text, i - 3, 1)) * 29791
                   + unicode(substr(text, i - 2, 1)) * 961
                   + unicode(substr(text, i - 1, 1)) * 31
                   + unicode(substr(text, i, 1))) % 4294967296 AS HUGEINT)
               * 2654435761) % 4294967296 AS BIGINT) AS h
  FROM pos),
bnd AS (
  SELECT DISTINCT doc_id, e FROM (
    SELECT doc_id, i AS e FROM hh WHERE h < 67108864
    UNION ALL
    SELECT doc_id, length(text) FROM documents WHERE length(text) > 0)),
sp AS (SELECT doc_id, e,
              LAG(e, 1, 0) OVER (PARTITION BY doc_id ORDER BY e) AS p
       FROM bnd),
chunks AS (SELECT s.doc_id, s.p AS start, s.e - s.p AS n_chars,
                  substr(d.text, s.p + 1, s.e - s.p) AS chunk
           FROM sp s JOIN documents d USING (doc_id)),
ranked AS (SELECT doc_id, n_chars,
                  ROW_NUMBER() OVER (PARTITION BY chunk
                                     ORDER BY doc_id, start) AS rn
           FROM chunks)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_chunks,
       CAST(SUM(CASE WHEN rn = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,
       CAST(SUM(CASE WHEN rn = 1 THEN n_chars ELSE 0 END) AS BIGINT)
         AS kept_chars
FROM ranked GROUP BY doc_id ORDER BY doc_id
"""


def _hits_auth_sql(hub: str, out: str) -> str:
    return f"""
{out}r AS (SELECT e.dst AS node, SUM(hh.h) AS s
           FROM edges e JOIN {hub} hh ON hh.node = e.src GROUP BY e.dst),
{out}n AS (SELECT sqrt(SUM(s * s)) AS nrm FROM {out}r),
{out} AS (SELECT d.doc_id AS node,
                 COALESCE(COALESCE(r.s, 0) / NULLIF(n.nrm, 0), 0) AS a
          FROM documents d CROSS JOIN {out}n n
          LEFT JOIN {out}r r ON r.node = d.doc_id)"""


def _hits_hub_sql(auth: str, out: str) -> str:
    return f"""
{out}r AS (SELECT e.src AS node, SUM(aa.a) AS s
           FROM edges e JOIN {auth} aa ON aa.node = e.dst GROUP BY e.src),
{out}n AS (SELECT sqrt(SUM(s * s)) AS nrm FROM {out}r),
{out} AS (SELECT d.doc_id AS node,
                 COALESCE(COALESCE(r.s, 0) / NULLIF(n.nrm, 0), 0) AS h
          FROM documents d CROSS JOIN {out}n n
          LEFT JOIN {out}r r ON r.node = d.doc_id)"""


def q_hits(sf_dir: str):
    """2-iteration HITS hubs/authorities over the derived link graph
    (broadcast-iterate, L2-normalized half-steps; fixed sweep count so
    the SQL oracle unrolls the identical computation).  See
    stages/linkgraph.py::hits."""
    from icrawler_ray.stages.linkgraph import derive_edges, hits

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()
    out = hits(derive_edges(docs, n), n, iters=2)
    out["hub"] = np.round(out["hub"], 6)
    out["auth"] = np.round(out["auth"], 6)
    return out


SQL_HITS = f"""
WITH {_SQL_EDGES_CTE},
h0 AS (SELECT doc_id AS node, 1.0e0 AS h FROM documents),
{_hits_auth_sql("h0", "a1")},
{_hits_hub_sql("a1", "h1")},
{_hits_auth_sql("h1", "a2")},
{_hits_hub_sql("a2", "h2")}
SELECT h2.node, ROUND(h2.h, 6) AS hub, ROUND(a2.a, 6) AS auth
FROM h2 JOIN a2 ON a2.node = h2.node ORDER BY h2.node
"""


def q_rate_anomaly(sf_dir: str):
    """Event-rate anomaly detection: per (event_type, hour) counts
    z-scored against the event_type's own hourly mean/std — the
    monitoring rollup a crawl/ingest pipeline alarms on (a host whose
    fetch rate spikes, an event type that goes quiet).  Combiner
    pattern: batches emit (type, hour, n) partials; the stats reduce is
    (types x hours)-sized, never event-sized.  Population std with a
    zero-std sentinel of z = 0 keeps the SQL replay exact."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        hour = (df["ts"].dt.floor("h").astype("int64") // 10**6).astype("int64")
        g = pd.DataFrame({"event_type": df["event_type"], "hour_ts": hour}
                         ).groupby(["event_type", "hour_ts"], sort=False).size()
        gi = g.index.to_frame(index=False)
        return pd.DataFrame({"event_type": gi["event_type"],
                             "hour_ts": gi["hour_ts"],
                             "n": g.to_numpy()})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    cnt = parts.groupby(["event_type", "hour_ts"], as_index=False)["n"].sum()
    st = cnt.groupby("event_type")["n"].agg(["mean", lambda v: v.std(ddof=0)])
    st.columns = ["mu", "sd"]
    cnt = cnt.merge(st, left_on="event_type", right_index=True)
    z = np.where(cnt["sd"].to_numpy() > 0,
                 (cnt["n"] - cnt["mu"]) / cnt["sd"], 0.0)
    cnt["z"] = np.round(z, 6)
    out = cnt.loc[np.abs(z) > 1.5,
                  ["event_type", "hour_ts", "n", "z"]].copy()
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["event_type", "hour_ts"]).reset_index(drop=True)


SQL_RATE_ANOMALY = """
WITH c AS (
  SELECT event_type,
         CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS hour_ts,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY event_type, hour_ts),
zz AS (
  SELECT event_type, hour_ts, n,
         CASE WHEN STDDEV_POP(n) OVER (PARTITION BY event_type) > 0
              THEN (n - AVG(n) OVER (PARTITION BY event_type))
                   / STDDEV_POP(n) OVER (PARTITION BY event_type)
              ELSE 0 END AS z
  FROM c)
SELECT event_type, hour_ts, n, ROUND(z, 6) AS z
FROM zz WHERE ABS(z) > 1.5
ORDER BY event_type, hour_ts
"""


#: per-group deterministic sample size
RESERVOIR_K = 10


def q_reservoir_per_group(sf_dir: str):
    """Deterministic per-group reservoir sample: RESERVOIR_K docs per
    source, ranked by md5(doc_id) — the "show me K random-but-stable
    examples of every slice" debugging query.  Per-batch top-K
    COMBINER partials (each batch keeps at most K rows per group it
    sees), so the final reduce is (groups x K x blocks)-bounded;
    md5-rank makes the sample reproducible across runs and cluster
    sizes, and lets the SQL oracle replay it exactly."""
    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        from icrawler_ray.stages.dedup import md5_pair
        r = md5_pair([str(i) for i in df["doc_id"].to_numpy()])[:, 0]
        d = df.assign(rk=r.astype(np.uint64))
        return d.sort_values("rk").groupby("source", sort=False).head(
            RESERVOIR_K)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = (parts.sort_values("rk").groupby("source", sort=False)
           .head(RESERVOIR_K))[["source", "doc_id"]]
    return out.sort_values(["source", "doc_id"]).reset_index(drop=True)


SQL_RESERVOIR_PER_GROUP = f"""
WITH r AS (
  SELECT source, doc_id,
         ROW_NUMBER() OVER (PARTITION BY source
                            ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)))
           AS rn
  FROM documents)
SELECT source, doc_id FROM r WHERE rn <= {RESERVOIR_K}
ORDER BY source, doc_id
"""


def _pca_matvec_sql(vin: str, wout: str, nout: str, vout: str) -> str:
    return f"""
{wout} AS (SELECT p.i, SUM(p.c * {vin}.v) AS w
           FROM pairs p JOIN {vin} ON {vin}.i = p.j GROUP BY p.i),
{nout} AS (SELECT sqrt(SUM(w * w)) AS nrm FROM {wout}),
{vout} AS (SELECT {wout}.i, {wout}.w / {nout}.nrm AS v
           FROM {wout} CROSS JOIN {nout})"""


def q_embedding_pca(sf_dir: str):
    """Top principal direction of the (uncentered) embedding
    second-moment matrix via 3 power-iteration sweeps, then the
    per-doc projection — the embedding-quality / whitening primitive
    (detects a collapsed or dominant direction across the corpus).

    Scale shape: ONE combiner pass emits dim^2-sized M^T M partials
    (4096 floats per block at dim=64 — independent of corpus size);
    the driver does the 64x64 power iteration; one broadcast pass
    projects.  Fixed sweeps from a fixed init so the SQL oracle
    unrolls the identical computation (no eigensolver
    nondeterminism)."""
    from icrawler_ray.stages.similarity import _as_matrix

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def cov_partial(batch: pa.Table) -> pa.Table:
        m = _as_matrix(batch["embedding"])
        c = m.T @ m
        d = c.shape[0]
        i, j = np.meshgrid(np.arange(d, dtype=np.int64),
                           np.arange(d, dtype=np.int64), indexing="ij")
        return pa.table({"i": pa.array(i.ravel()), "j": pa.array(j.ravel()),
                         "c": pa.array(c.ravel())})

    parts = ds.map_batches(cov_partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby(["i", "j"])["c"].sum()
    d = int(g.index.get_level_values(0).max()) + 1
    C = np.zeros((d, d))
    C[g.index.get_level_values(0), g.index.get_level_values(1)] = g.to_numpy()
    v = np.full(d, 1.0 / np.sqrt(d))
    for _ in range(3):
        v = C @ v
        v /= np.sqrt(np.sum(v * v))
    v_ref = ray.put(v)

    def project(batch: pa.Table) -> pa.Table:
        m = _as_matrix(batch["embedding"])
        return pa.table({"vec_id": batch["vec_id"],
                         "pc1": pa.array(np.round(m @ ray.get(v_ref), 6))})

    out = ds.map_batches(project, batch_format="pyarrow").to_pandas()
    return out.sort_values("vec_id").reset_index(drop=True)


SQL_EMBEDDING_PCA = f"""
WITH pairs AS (
  SELECT a.i, b.j,
         SUM(CAST(embedding[a.i] AS DOUBLE)
             * CAST(embedding[b.j] AS DOUBLE)) AS c
  FROM embeddings
  CROSS JOIN range(1, 65) a(i) CROSS JOIN range(1, 65) b(j)
  GROUP BY a.i, b.j),
v0 AS (SELECT t.i, 1.0 / sqrt(64.0) AS v FROM range(1, 65) t(i)),
{_pca_matvec_sql("v0", "w1", "n1", "v1")},
{_pca_matvec_sql("v1", "w2", "n2", "v2")},
{_pca_matvec_sql("v2", "w3", "n3", "v3")}
SELECT vec_id,
       ROUND(SUM(CAST(embedding[t.i] AS DOUBLE) * v3.v), 6) AS pc1
FROM embeddings CROSS JOIN range(1, 65) t(i)
JOIN v3 ON v3.i = t.i
GROUP BY vec_id ORDER BY vec_id
"""


def q_cohort_retention(sf_dir: str):
    """Cohort retention: users grouped by first-seen day (cohort), and
    for each (cohort, day-offset) the count of cohort users active that
    day.  Two combiner passes over events — (user, day) distinct
    partials, then a user-sized first-seen reduce broadcast back — the
    exchange is bounded by distinct (user, day), never raw events."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # datetime64[us] -> epoch days
        day = (df["ts"].dt.floor("D").astype("int64") // (86400 * 10**6)
               ).astype(np.int64)
        g = pd.DataFrame({"user_id": df["user_id"], "day": day}
                         ).drop_duplicates()
        return g

    ud = ds.map_batches(partial, batch_format="pandas").to_pandas()
    ud = ud.drop_duplicates()
    first = ud.groupby("user_id")["day"].min().rename("cohort")
    ud = ud.merge(first, on="user_id")
    ud["offset"] = (ud["day"] - ud["cohort"]).astype(np.int64)
    out = (ud.groupby(["cohort", "offset"]).size().rename("n_users")
           .reset_index())
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values(["cohort", "offset"]).reset_index(drop=True)


SQL_COHORT_RETENTION = """
WITH ud AS (
  SELECT DISTINCT user_id,
         CAST(epoch(date_trunc('day', ts)) / 86400 AS BIGINT) AS day
  FROM events),
f AS (SELECT user_id, MIN(day) AS cohort FROM ud GROUP BY user_id)
SELECT f.cohort, ud.day - f.cohort AS "offset",
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM ud JOIN f USING (user_id)
GROUP BY f.cohort, "offset"
ORDER BY f.cohort, "offset"
"""


#: winnowing parameters: 6-char gram polynomial hash (base 31, M31),
#: window of 4 grams, boilerplate guard, top-k pair report
WINNOW_K = 6
WINNOW_W = 4
WINNOW_MAXPOST = 50
WINNOW_TOP = 20
_WIN_POWS = [31 ** (WINNOW_K - 1 - j) for j in range(WINNOW_K)]


def q_winnow_pairs(sf_dir: str):
    """Winnowing fingerprint pairs (Schleimer et al., SIGMOD'03 — the
    MOSS local-similarity algorithm): each doc's fingerprints are the
    window minima of its rolling 6-gram hashes; doc pairs ranked by
    shared-fingerprint count.  Winnowing guarantees any shared run of
    >= K + W - 1 chars yields a shared fingerprint — LOCAL similarity,
    complementing the whole-doc minhash/simhash family.

    Scale shape: per-doc fingerprinting is one vectorized pass (text
    never leaves its task; fingerprints are 8-byte ints); the exchange
    groups fingerprint postings by hash BUCKET; fingerprints posted by
    more than WINNOW_MAXPOST docs are dropped inside their bucket (the
    standard boilerplate guard — exactly replayed in SQL, so no
    unbounded n² on a hot fingerprint); pair counts leave buckets as
    output-sized partials."""
    M31 = (1 << 31) - 1
    P = 32
    pows = np.array(_WIN_POWS, dtype=np.int64)
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def fingerprints(df: pd.DataFrame) -> pd.DataFrame:
        from numpy.lib.stride_tricks import sliding_window_view

        out_doc, out_fp = [], []
        for did, t in zip(df["doc_id"].to_numpy(), df["text"].to_numpy()):
            cp = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32
                               ).astype(np.int64)
            if len(cp) < WINNOW_K:
                continue
            g = (sliding_window_view(cp, WINNOW_K) @ pows) % M31
            if len(g) < WINNOW_W:
                fps = np.unique(g.min(keepdims=True))
            else:
                fps = np.unique(sliding_window_view(g, WINNOW_W).min(axis=1))
            out_doc.append(np.full(len(fps), did, dtype=np.int64))
            out_fp.append(fps)
        if not out_doc:
            return pd.DataFrame({"fp": pd.Series(dtype=np.int64),
                                 "doc_id": pd.Series(dtype=np.int64),
                                 "part": pd.Series(dtype=np.int64)})
        fp = np.concatenate(out_fp)
        return pd.DataFrame({"fp": fp,
                             "doc_id": np.concatenate(out_doc),
                             "part": fp % np.int64(P)})

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        fp = g["fp"].to_numpy(dtype=np.int64)
        doc = g["doc_id"].to_numpy(dtype=np.int64)
        o = np.lexsort((doc, fp))
        fp, doc = fp[o], doc[o]
        start = np.nonzero(np.concatenate([[True], fp[1:] != fp[:-1]]))[0]
        size = np.diff(np.append(start, len(fp)))
        # boilerplate guard: drop fingerprints with too many postings
        live = size <= WINNOW_MAXPOST
        keep = np.repeat(live, size)
        fp, doc = fp[keep], doc[keep]
        start = np.nonzero(np.concatenate([[True], fp[1:] != fp[:-1]]))[0]
        size = np.diff(np.append(start, len(fp)))
        run_end = np.repeat(start + size, size)
        k = run_end - np.arange(len(fp)) - 1
        total = int(k.sum())
        if not total:
            return pd.DataFrame({"a": pd.Series(dtype=np.int64),
                                 "b": pd.Series(dtype=np.int64),
                                 "c": pd.Series(dtype=np.int64)})
        idx_i = np.repeat(np.arange(len(fp)), k)
        off = np.arange(total) - np.repeat(np.cumsum(k) - k, k) + 1
        idx_j = idx_i + off
        a, b = doc[idx_i], doc[idx_j]  # doc asc within fp run -> a < b
        gg = pd.DataFrame({"a": a, "b": b}).groupby(["a", "b"]).size()
        gi = gg.index.to_frame(index=False)
        return pd.DataFrame({"a": gi["a"].to_numpy(),
                             "b": gi["b"].to_numpy(),
                             "c": gg.to_numpy()})

    parts = (docs.map_batches(fingerprints, batch_format="pandas")
             .groupby("part").map_groups(pairs_bucket, batch_format="pandas")
             ).to_pandas()
    if not len(parts):
        return pd.DataFrame({"doc_a": pd.Series(dtype=np.int64),
                             "doc_b": pd.Series(dtype=np.int64),
                             "n_shared": pd.Series(dtype=np.int64)})
    agg = parts.groupby(["a", "b"], as_index=False)["c"].sum()
    agg = agg.sort_values(["c", "a", "b"],
                          ascending=[False, True, True]).head(WINNOW_TOP)
    return pd.DataFrame({"doc_a": agg["a"].to_numpy(),
                         "doc_b": agg["b"].to_numpy(),
                         "n_shared": agg["c"].to_numpy().astype(np.int64)})


SQL_WINNOW_PAIRS = f"""
WITH g AS (
  SELECT doc_id, i,
         ({" + ".join(f"CAST(ord(substr(text, i + {j}, 1)) AS BIGINT) * {p}"
                      for j, p in enumerate(_WIN_POWS))}) % 2147483647 AS h
  FROM (SELECT doc_id, text,
               unnest(range(1, length(text) - {WINNOW_K - 2})) AS i
        FROM documents WHERE length(text) >= {WINNOW_K})),
w AS (
  SELECT doc_id, i,
         MIN(h) OVER (PARTITION BY doc_id ORDER BY i
                      ROWS BETWEEN CURRENT ROW
                      AND {WINNOW_W - 1} FOLLOWING) AS fp,
         COUNT(*) OVER (PARTITION BY doc_id) AS ng
  FROM g),
fps AS (SELECT DISTINCT doc_id, fp FROM w
        WHERE i <= GREATEST(ng - {WINNOW_W - 1}, 1)),
live AS (SELECT fp FROM fps GROUP BY fp
         HAVING COUNT(*) <= {WINNOW_MAXPOST}),
pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS n_shared
  FROM fps a JOIN fps b ON a.fp = b.fp AND a.doc_id < b.doc_id
  WHERE a.fp IN (SELECT fp FROM live)
  GROUP BY doc_a, doc_b)
SELECT doc_a, doc_b, CAST(n_shared AS BIGINT) AS n_shared
FROM pairs ORDER BY n_shared DESC, doc_a, doc_b LIMIT {WINNOW_TOP}
"""


def _kcore_sweep_sql(prev: str, out: str) -> str:
    return f"""
{out} AS (SELECT s.u AS node FROM sym s
          JOIN {prev} x ON x.node = s.u
          JOIN {prev} y ON y.node = s.v
          GROUP BY s.u HAVING COUNT(*) >= 2)"""


def q_kcore(sf_dir: str):
    """2-core membership after 3 fixed peeling sweeps over the derived
    link graph (stages/linkgraph.py::kcore_membership) — the
    tightly-knit-community / spam-farm signal next to PageRank and
    triangles; fixed sweeps so the SQL oracle unrolls identically."""
    from icrawler_ray.stages.linkgraph import derive_edges, kcore_membership

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()
    return kcore_membership(derive_edges(docs, n), n, k=2, sweeps=3)


SQL_KCORE = f"""
WITH {_SQL_EDGES_CTE},
und AS (SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b
        FROM edges),
sym AS (SELECT a AS u, b AS v FROM und UNION ALL SELECT b, a FROM und),
a0 AS (SELECT doc_id AS node FROM documents),
{_kcore_sweep_sql("a0", "a1")},
{_kcore_sweep_sql("a1", "a2")},
{_kcore_sweep_sql("a2", "a3")}
SELECT d.doc_id AS node,
       CAST(CASE WHEN a3.node IS NOT NULL THEN 1 ELSE 0 END AS BIGINT)
         AS in_core
FROM documents d LEFT JOIN a3 ON a3.node = d.doc_id
ORDER BY node
"""


def q_langid_confusion(sf_dir: str):
    """Language-ID QA: confusion matrix of the stopword-profile
    predictor against the labeled ``lang`` column — the calibration
    check a corpus pipeline runs before trusting its language gates.
    One pass: per-batch predictions (stages/textfns.py::langid_scores)
    joined positionally to the batch's labels, (lang, pred) count
    combiner partials, language²-sized reduce."""
    from icrawler_ray.stages.textfns import langid_scores

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def partial(batch: pa.Table) -> pa.Table:
        pred = langid_scores(batch)
        df = pd.DataFrame({"lang": batch["lang"].to_pylist(),
                           "pred_lang": pred["pred_lang"].to_pylist()})
        g = df.groupby(["lang", "pred_lang"]).size()
        gi = g.index.to_frame(index=False)
        return pa.table({"lang": pa.array(gi["lang"]),
                         "pred_lang": pa.array(gi["pred_lang"]),
                         "n": pa.array(g.to_numpy(), type=pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = parts.groupby(["lang", "pred_lang"], as_index=False)["n"].sum()
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["lang", "pred_lang"]).reset_index(drop=True)


SQL_LANGID_CONFUSION = f"""
WITH pred AS ({{LANGID}})
SELECT d.lang, p.pred_lang, CAST(COUNT(*) AS BIGINT) AS n
FROM documents d JOIN pred p USING (doc_id)
GROUP BY d.lang, p.pred_lang
ORDER BY d.lang, p.pred_lang
"""


# =====================================================================
# registry
# =====================================================================

# Ordering policy: the driver's correctness gate checks the FIRST 50
# entries, so every operator FAMILY's representative sits inside that
# window; near-duplicate family variants (a second search engine's filter
# rules, alternate ANN index layouts, per-lang re-slices of an in-window
# aggregate, extra media modalities) sit below the fold, where
# scripts/check_queries.py still verifies them (committed per round as
# CHECK_QUERIES_r{N}).
# =====================================================================
# K. round-4 widening: window-function rank, incremental-ingest dedup,
#    char-LM quality scoring, event-transition (LAG) counts, hash split
# =====================================================================

def q_percent_rank(sf_dir: str):
    """Distributed window function: PERCENT_RANK() OVER (PARTITION BY
    lang ORDER BY n_chars) for every document — the rank-normalization
    step that turns a raw quality score into a per-slice percentile
    before thresholding/curriculum bucketing.

    Scale shape (stages/window.py::percent_rank_over): histogram mode —
    ONE combiner pass emits (lang, value, count) partials, bounded by
    value cardinality, not corpus size; the driver turns the histogram
    into a min-rank CDF and broadcasts it once; a second pass attaches
    the percentile. Two linear passes, zero shuffles. For continuous
    scores the same function's mode="sort" path (one global sort +
    metadata-only boundary stitch) returns identical values
    (parity-pinned in tests/test_joins.py)."""
    from icrawler_ray.stages.window import percent_rank_over

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    out = percent_rank_over(ds, "lang", "n_chars", mode="histogram") \
        .to_pandas()
    out["n_chars"] = out["n_chars"].astype("int64")
    return out[["doc_id", "lang", "n_chars", "pr"]] \
        .sort_values("doc_id").reset_index(drop=True)


SQL_PERCENT_RANK = """
SELECT doc_id, lang, n_chars,
       ROUND(PERCENT_RANK() OVER (PARTITION BY lang ORDER BY n_chars), 6) AS pr
FROM documents ORDER BY doc_id
"""


#: the source treated as the newly-ingested shard (all others = corpus)
INCR_DEDUP_NEW_SOURCE = "src18"


def q_incremental_dedup(sf_dir: str):
    """Incremental-ingestion near-dup gate: every doc of the NEW shard
    (source = src18) is flagged iff it shares any MinHash-LSH band with
    any EXISTING-corpus doc — the every-ingest dedup run real pipelines
    do against an already-indexed corpus (new-vs-new is NOT compared).
    One narrow band-row exchange; the corpus band index is never
    broadcast or driver-materialized. Band identity is the md5 double
    hashing family, so the SQL oracle replays every verdict exactly."""
    from icrawler_ray.stages.dedup import incremental_band_dedup

    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    return incremental_band_dedup(docs, new_source=INCR_DEDUP_NEW_SOURCE)


SQL_INCREMENTAL_DEDUP = f"""
WITH tok AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
shl AS (SELECT doc_id,
         CASE WHEN len(toks) <= 3 THEN [array_to_string(toks, ' ')]
              ELSE list_transform(range(1, len(toks) - 1),
                                  i -> array_to_string(list_slice(toks, i, i + 2), ' '))
         END AS sh FROM tok),
sh AS (SELECT DISTINCT doc_id, unnest(sh) AS s FROM shl),
h AS (SELECT doc_id, md5_number_lower(s)::HUGEINT AS hl,
             md5_number_upper(s)::HUGEINT AS hu FROM sh),
sig AS (SELECT doc_id, perms.p,
               MIN((hl + perms.p * hu) % 18446744073709551616::HUGEINT) AS m
        FROM h CROSS JOIN (SELECT unnest(range(64)) AS p) perms
        GROUP BY doc_id, perms.p),
bs AS (SELECT doc_id, p // 4 AS band,
              string_agg(m::VARCHAR, ',' ORDER BY p) AS bsig
       FROM sig GROUP BY doc_id, p // 4),
news AS (SELECT doc_id FROM documents WHERE source = '{INCR_DEDUP_NEW_SOURCE}'),
dups AS (SELECT DISTINCT nb.doc_id
         FROM bs nb JOIN news USING (doc_id)
         JOIN bs cb ON cb.band = nb.band AND cb.bsig = nb.bsig
         JOIN documents dc ON dc.doc_id = cb.doc_id
                          AND dc.source <> '{INCR_DEDUP_NEW_SOURCE}')
SELECT n.doc_id, (d.doc_id IS NOT NULL) AS is_dup
FROM news n LEFT JOIN dups d ON d.doc_id = n.doc_id
ORDER BY n.doc_id
"""


def q_charlm_quality(sf_dir: str):
    """CCNet-style LM quality scoring with a character-bigram model: the
    corpus trains a Laplace-smoothed char-bigram LM (pass 1), then every
    doc is scored by its negative mean log-likelihood under that model
    (pass 2) — the perplexity-filter primitive, with the n-gram LM small
    enough to broadcast (sorted (bigram-key, logp) arrays, bounded by
    the OBSERVED bigram vocabulary, not the codepoint space).

    Scale shape: pass 1 is a combiner emitting charset^2-BOUNDED
    (code, count) partials per block (codepoint decode + np.unique over
    a per-batch blob, doc-boundary pairs masked out); the driver builds
    the sorted-key logprob table and broadcasts it once; pass 2 scores
    each batch with one searchsorted gather + segmented reduceat. Zero
    shuffles, two linear passes — corpus size never appears in any
    exchange. Full Unicode: chars are UTF-32 codepoints (what DuckDB's
    substring counts), bigram key c1*0x110000+c2, unigram keys stored
    negative so the spaces cannot collide."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    lp_ref = _charlm_fit(ds)
    out = ds.map_batches(_charlm_score_fn(lp_ref),
                         batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


#: codepoint space for char-bigram keys (bigram = c1 * CHARLM_M + c2)
CHARLM_M = 0x110000


def _char_pairs(texts):
    """(codepoints, boundary-masked bigram keys in doc order, per-doc
    pair counts) for one batch blob — shared by the char-LM fit and
    score passes so their masks can never drift apart."""
    M = CHARLM_M
    blob = "".join(texts)
    codes = np.frombuffer(blob.encode("utf-32-le"),
                          dtype=np.uint32).astype(np.int64)
    lens = np.fromiter((len(t) for t in texts), np.int64, len(texts))
    npairs = np.maximum(lens - 1, 0)
    if len(codes) >= 2:
        pairs = codes[:-1] * M + codes[1:]
        ends = np.cumsum(lens)
        bad = ends[:-1] - 1  # pair straddling a doc boundary
        mask = np.ones(len(pairs), dtype=bool)
        mask[bad[(bad >= 0) & (bad < len(pairs))]] = False
        pairs = pairs[mask]
    else:
        pairs = np.empty(0, dtype=np.int64)
    return codes, pairs, npairs


def _charlm_fit(ds: rd.Dataset):
    """One combiner pass over ``ds.text`` -> broadcast ref of the
    Laplace char-bigram model as sorted (bigram-key, logp) arrays."""
    def counts(batch: pa.Table) -> pa.Table:
        codes, pairs, _ = _char_pairs(batch["text"].to_pylist())
        ck, cn = np.unique(codes, return_counts=True)
        pk, pn = np.unique(pairs, return_counts=True)
        return pa.table({"k": pa.array(np.r_[-(ck + 1), pk]),
                         "n": pa.array(np.r_[cn, pn].astype(np.int64))})

    parts = ds.map_batches(counts, batch_format="pyarrow").to_pandas()
    agg = parts.groupby("k", as_index=False)["n"].sum()
    vocab = int((agg["k"] < 0).sum())        # distinct codepoints in corpus
    bg = agg[agg["k"] >= 0]
    bg_k = bg["k"].to_numpy()                # sorted (groupby key order)
    bg_n = bg["n"].to_numpy()
    tot = bg.groupby(bg_k // CHARLM_M)["n"].sum()  # t(c1) = sum_c2 n(c1,c2)
    lp_vals = np.log((bg_n + 1.0) /
                     (tot.reindex(bg_k // CHARLM_M).to_numpy() + float(vocab)))
    return ray.put((bg_k, lp_vals))


def _charlm_nll(texts, keys, vals_tbl) -> np.ndarray:
    """Per-doc negative mean log-likelihood under the broadcast model
    (every observed bigram was counted at fit time -> exact gather)."""
    _, pairs, npairs = _char_pairs(texts)
    nll = np.zeros(len(texts), dtype=np.float64)
    if len(pairs):
        vals = vals_tbl[np.searchsorted(keys, pairs)]
        nzd = np.flatnonzero(npairs)
        starts = np.r_[0, np.cumsum(npairs[nzd])[:-1]]
        nll[nzd] = -np.add.reduceat(vals, starts) / npairs[nzd]
    return np.round(nll, 6)


def _charlm_score_fn(lp_ref):
    def score(batch: pa.Table) -> pa.Table:
        keys, vals_tbl = ray.get(lp_ref)
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        nll = _charlm_nll(batch["text"].to_pylist(), keys, vals_tbl)
        return pa.table({"doc_id": pa.array(ids), "nll": pa.array(nll)})
    return score


SQL_CHARLM_QUALITY = r"""
WITH allch AS (SELECT substring(d.text, CAST(u.i AS INTEGER), 1) AS c
               FROM documents d, unnest(range(1, length(d.text) + 1)) AS u(i)),
vocab AS (SELECT COUNT(DISTINCT c) AS v FROM allch),
bg AS (SELECT d.doc_id,
              substring(d.text, CAST(u.i AS INTEGER), 1) AS c1,
              substring(d.text, CAST(u.i AS INTEGER) + 1, 1) AS c2
       FROM documents d, unnest(range(1, length(d.text))) AS u(i)),
cnt AS (SELECT c1, c2, COUNT(*) AS n FROM bg GROUP BY 1, 2),
tot AS (SELECT c1, SUM(n) AS t FROM cnt GROUP BY 1),
sc AS (SELECT bg.doc_id,
              AVG(-ln((cnt.n + 1.0) / (tot.t + vocab.v))) AS s
       FROM bg JOIN cnt ON cnt.c1 = bg.c1 AND cnt.c2 = bg.c2
       JOIN tot ON tot.c1 = bg.c1 CROSS JOIN vocab
       GROUP BY bg.doc_id)
SELECT d.doc_id, ROUND(COALESCE(sc.s, 0.0), 6) AS nll
FROM documents d LEFT JOIN sc USING (doc_id)
ORDER BY d.doc_id
"""


def q_hash_split(sf_dir: str):
    """Deterministic train/val/test split (md5(doc_id) mod 100 ->
    80/10/10) with per-(source, split) row and char tallies — the
    reproducible-split primitive: the assignment depends only on the
    doc id, so it is stable across runs, cluster sizes and shard
    orders, and any node can re-derive membership without coordination.
    One combiner pass; the reduce is (sources x 3)-bounded."""
    from icrawler_ray.stages.dedup import md5_pair

    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        b = md5_pair([str(i) for i in df["doc_id"].to_numpy()])[:, 0] % 100
        split = np.where(b < 80, "train", np.where(b < 90, "val", "test"))
        g = df.assign(split=split).groupby(["source", "split"], sort=False).agg(
            n=("doc_id", "size"), chars=("n_chars", "sum"))
        return g.reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby(["source", "split"], as_index=False).sum()
    out["n"] = out["n"].astype("int64")
    out["chars"] = out["chars"].astype("int64")
    return out.sort_values(["source", "split"]).reset_index(drop=True)


SQL_HASH_SPLIT = """
WITH s AS (
  SELECT source, n_chars,
         CASE WHEN md5_number_lower(CAST(doc_id AS VARCHAR)) % 100 < 80 THEN 'train'
              WHEN md5_number_lower(CAST(doc_id AS VARCHAR)) % 100 < 90 THEN 'val'
              ELSE 'test' END AS split
  FROM documents)
SELECT source, split, COUNT(*) AS n, CAST(SUM(n_chars) AS BIGINT) AS chars
FROM s GROUP BY source, split
ORDER BY source, split
"""


def q_json_props_stats(sf_dir: str):
    """Schema-on-read over a semi-structured column: events.props is a
    JSON string; extract the numeric field ``k`` and roll it up per
    event_type — the log-ingestion primitive (parse at query time, never
    re-materialize the table). The extraction is a vectorized regex fast
    path for this flat shape (general nested shapes would orjson-parse
    per batch inside the same kernel); the rollup is the standard
    combiner: per-batch (type, n, sum, min, max) partials, a
    type-cardinality-bounded reduce."""
    ds = _read(sf_dir, "events", ["event_type", "props"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        k = df["props"].str.extract(r'"k"\s*:\s*(-?\d+)', expand=False) \
            .astype("float64")  # NaN where the key is absent
        # fail LOUDLY if the flat-bare-int assumption breaks (a quoted
        # or float k would silently diverge from the SQL ->> semantics)
        has_key = df["props"].str.contains('"k"', regex=False)
        if bool((has_key & k.isna()).any()):
            raise ValueError("json_props_stats: non-bare-integer 'k' value; "
                             "switch the kernel to a real JSON parse")
        d = pd.DataFrame({"event_type": df["event_type"], "k": k}).dropna()
        g = d.groupby("event_type", sort=False)["k"].agg(
            ["size", "sum", "min", "max"]).reset_index()
        g.columns = ["event_type", "n", "s", "mn", "mx"]
        return g

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby("event_type", as_index=False).agg(
        n=("n", "sum"), s=("s", "sum"), mn=("mn", "min"), mx=("mx", "max"))
    res = pd.DataFrame({
        "event_type": out["event_type"],
        "n": out["n"].astype("int64"),
        "sum_k": out["s"].astype("int64"),
        "avg_k": np.round(out["s"] / out["n"], 6),
        "min_k": out["mn"].astype("int64"),
        "max_k": out["mx"].astype("int64"),
    })
    return res.sort_values("event_type").reset_index(drop=True)


SQL_JSON_PROPS_STATS = """
WITH e AS (
  SELECT event_type, CAST(props ->> 'k' AS BIGINT) AS k
  FROM events WHERE props ->> 'k' IS NOT NULL)
SELECT event_type, COUNT(*) AS n,
       CAST(SUM(k) AS BIGINT) AS sum_k,
       ROUND(CAST(SUM(k) AS DOUBLE) / COUNT(*), 6) AS avg_k,
       MIN(k) AS min_k, MAX(k) AS max_k
FROM e GROUP BY event_type ORDER BY event_type
"""


def q_rollup_counts(sf_dir: str):
    """Multi-level rollup — GROUP BY ROLLUP(source, lang) in one pass:
    each batch emits partials for ALL THREE aggregation levels
    ((source, lang), (source), ()) so the exchange stays
    levels x key-cardinality-bounded and the input is read once, not
    once per level (the cube/rollup trick for hierarchical dashboards).
    Rolled-up keys surface as '(all)' on both sides to keep the
    value-hash comparison NULL-free."""
    ds = _read(sf_dir, "documents", ["source", "lang", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        lv2 = df.groupby(["source", "lang"], sort=False).agg(
            n=("n_chars", "size"), chars=("n_chars", "sum")).reset_index()
        lv1 = lv2.groupby("source", as_index=False)[["n", "chars"]].sum()
        lv1["lang"] = "(all)"
        lv0 = pd.DataFrame({"source": ["(all)"], "lang": ["(all)"],
                            "n": [lv2["n"].sum()], "chars": [lv2["chars"].sum()]})
        return pd.concat([lv2, lv1, lv0], ignore_index=True)[
            ["source", "lang", "n", "chars"]]

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby(["source", "lang"], as_index=False).sum()
    out["n"] = out["n"].astype("int64")
    out["chars"] = out["chars"].astype("int64")
    return out.sort_values(["source", "lang"]).reset_index(drop=True)


SQL_ROLLUP_COUNTS = """
SELECT COALESCE(source, '(all)') AS source,
       COALESCE(lang, '(all)') AS lang,
       COUNT(*) AS n, CAST(SUM(n_chars) AS BIGINT) AS chars
FROM documents GROUP BY ROLLUP(source, lang)
ORDER BY source, lang
"""


def q_partitioned_write(sf_dir: str):
    """Resumable partitioned output: write the documents table as
    hive-partitioned parquet (one directory per lang — the layout that
    lets a failed 100-TB run skip finished partitions), then read it
    BACK and count rows per partition. The verdict is a round-trip
    proof: written = readable = the source's per-lang counts. Output
    goes under /tmp; file counts are execution-dependent and excluded."""
    import shutil
    import tempfile

    out_dir = tempfile.mkdtemp(prefix="icrawler_ray_partwrite_")
    try:
        ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
        ds.write_parquet(out_dir, partition_cols=["lang"])
        back = rd.read_parquet(out_dir)

        def partial(df: pd.DataFrame) -> pd.DataFrame:
            g = df.groupby("lang", sort=False).agg(
                n=("doc_id", "size"), chars=("n_chars", "sum")).reset_index()
            return g

        parts = back.map_batches(partial, batch_format="pandas").to_pandas()
        out = parts.groupby("lang", as_index=False).sum()
        out["lang"] = out["lang"].astype(str)
        out["n"] = out["n"].astype("int64")
        out["chars"] = out["chars"].astype("int64")
        return out.sort_values("lang").reset_index(drop=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


SQL_PARTITIONED_WRITE = """
SELECT lang, COUNT(*) AS n, CAST(SUM(n_chars) AS BIGINT) AS chars
FROM documents GROUP BY lang ORDER BY lang
"""


#: Count-Min sketch geometry (depth x width) and the point-query set size
CMS_DEPTH, CMS_WIDTH, CMS_QUERY_TERMS = 4, 2048, 30


def q_countmin_freq(sf_dir: str):
    """Count-Min sketch point queries: build a (4 x 2048) CMS over the
    corpus term stream in ONE combiner pass (each batch emits the
    nonzero cells of its local sketch — a mergeable, fixed-size
    exchange), then answer est(term) = min over rows of the term's cell
    — the classic streaming frequency estimator (Cormode & Muthukrishnan
    '05), the sketch to reach for when even Misra-Gries' candidate list
    is too large. The hash rows are Kirsch-Mitzenmacher md5 double
    hashing, so the SQL oracle reproduces the sketch — including its
    collision overcounts — bit-exactly. Output: the corpus's 30
    lexicographically-first terms with (est, exact); est >= exact
    always (CMS one-sided error).
    """
    from icrawler_ray.stages.dedup import md5_pair

    ds = _read(sf_dir, "documents", ["text"])
    D, W, Q = CMS_DEPTH, CMS_WIDTH, CMS_QUERY_TERMS

    def cells_for(terms: list[str]) -> np.ndarray:
        """(n_terms, D) flat cell indices via (hl + i*hu) mod 2^64 mod W."""
        hp = md5_pair(terms)
        hl, hu = hp[:, 0], hp[:, 1]
        i = np.arange(D, dtype=np.uint64)
        with np.errstate(over="ignore"):
            cell = (hl[:, None] + i[None, :] * hu[:, None]) % np.uint64(W)
        return (i[None, :] * np.uint64(W) + cell).astype(np.int64)

    def sketch_partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["text"].str.split(" ").explode().value_counts()
        terms = vc.index.tolist()
        flat = cells_for(terms)                      # (n_terms, D)
        sk = np.bincount(flat.ravel(),
                         weights=np.repeat(vc.to_numpy(), D),
                         minlength=D * W).astype(np.int64)
        nz = np.flatnonzero(sk)
        # plus the batch's lexicographic head as query candidates
        head = sorted(terms)[:Q]
        return pd.DataFrame({
            "kind": ["c"] * len(nz) + ["t"] * len(head),
            "k": nz.astype(np.int64).tolist() + [0] * len(head),
            "n": sk[nz].tolist() + [0] * len(head),
            "term": [""] * len(nz) + head,
        })

    parts = ds.map_batches(sketch_partial, batch_format="pandas").to_pandas()
    cellrows = parts[parts["kind"] == "c"]
    sk = np.zeros(D * W, dtype=np.int64)
    np.add.at(sk, cellrows["k"].to_numpy(), cellrows["n"].to_numpy())
    qterms = sorted(set(parts.loc[parts["kind"] == "t", "term"]))[:Q]

    # exact recount of the query terms: broadcast probe, combiner partials
    q_ref = ray.put(np.asarray(qterms))

    def recount(df: pd.DataFrame) -> pd.DataFrame:
        qt = ray.get(q_ref)
        tk = df["text"].str.split(" ").explode()
        c = tk[tk.isin(qt)].value_counts()
        return pd.DataFrame({"term": c.index, "n": c.to_numpy()})

    ex = ds.map_batches(recount, batch_format="pandas").to_pandas()
    ex = ex.groupby("term")["n"].sum()
    est = sk[cells_for(qterms)].min(axis=1)
    out = pd.DataFrame({
        "term": qterms,
        "est": est.astype(np.int64),
        "exact": ex.reindex(qterms).fillna(0).astype(np.int64).to_numpy(),
    })
    assert (out["est"] >= out["exact"]).all()  # CMS one-sided guarantee
    return out.sort_values("term").reset_index(drop=True)


#: refinery perplexity gate: drop docs whose char-LM nll exceeds this
REFINERY_NLL_MAX = 1.72


def q_corpus_refinery(sf_dir: str):
    """Flagship composition #2 — the CCNet-shaped corpus refinery, five
    canonical stages chained as ONE lazy Dataset pipeline with no
    corpus-sized driver state: (1) composite quality gate, (2)
    language-ID confirmation (predicted == labeled), (3) char-bigram LM
    perplexity filter (model fit on the FULL corpus in one combiner
    pass, broadcast once), (4) opening-prefix exact dedup keeping the
    min doc_id (winner ids broadcast as a sorted array — distinct-key-
    sized), (5) per-lang PERCENT_RANK curriculum percentile + md5
    train/val/test split. Stages 1-3 fuse into a single map_batches
    pass over each batch; the only exchanges are the LM-fit combiner
    and the percentile histogram combiner. The SQL oracle replays the
    ENTIRE composition end-to-end."""
    from icrawler_ray.stages.dedup import md5_pair
    from icrawler_ray.stages.textfns import langid_scores, quality_scores
    from icrawler_ray.stages.window import percent_rank_over

    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang", "n_chars"])
    lp_ref = _charlm_fit(docs)  # LM over the full corpus

    def gate(batch: pa.Table) -> pa.Table:
        q = quality_scores(batch)              # row-aligned kernels
        l = langid_scores(batch)
        keys, vals_tbl = ray.get(lp_ref)
        nll = _charlm_nll(batch["text"].to_pylist(), keys, vals_tbl)
        lang = np.asarray(batch["lang"].to_pylist())
        pred = np.asarray(l["pred_lang"].to_pylist())
        keep = (q["keep"].to_numpy(zero_copy_only=False)
                & (pred == lang) & (nll <= REFINERY_NLL_MAX))
        return batch.append_column("nll", pa.array(nll)) \
                    .filter(pa.array(keep))

    gated = docs.map_batches(gate, batch_format="pyarrow")

    # stage 4: min-doc_id winner per opening-prefix key among survivors
    def win_partial(df: pd.DataFrame) -> pd.DataFrame:
        keys = [" ".join(t.split(" ")[:3]) for t in df["text"]]
        d = pd.DataFrame({"h": md5_pair(keys)[:, 0].astype(np.uint64),
                          "doc_id": df["doc_id"]})
        d = d.sort_values(["h", "doc_id"], kind="mergesort")
        return d.groupby("h", sort=False).head(1)

    wp = gated.map_batches(win_partial, batch_format="pandas").to_pandas()
    wp = wp.sort_values(["h", "doc_id"], kind="mergesort")
    winners = np.sort(wp.groupby("h", sort=False).head(1)["doc_id"].to_numpy())
    win_ref = ray.put(winners)

    def keep_winners(batch: pa.Table) -> pa.Table:
        w = ray.get(win_ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        if not len(w) or not len(ids):
            return batch.slice(0, 0).drop_columns(["text"])
        i = np.minimum(np.searchsorted(w, ids), len(w) - 1)
        return batch.filter(pa.array(w[i] == ids)).drop_columns(["text"])

    surv = gated.map_batches(keep_winners, batch_format="pyarrow")
    ranked = percent_rank_over(surv, "lang", "n_chars", mode="histogram")

    def attach_split(df: pd.DataFrame) -> pd.DataFrame:
        b = md5_pair([str(i) for i in df["doc_id"].to_numpy()])[:, 0] % 100
        df = df.copy()
        df["split"] = np.where(b < 80, "train", np.where(b < 90, "val", "test"))
        return df

    out = ranked.map_batches(attach_split, batch_format="pandas").to_pandas()
    out["n_chars"] = out["n_chars"].astype("int64")
    return out[["doc_id", "lang", "n_chars", "nll", "pr", "split"]] \
        .sort_values("doc_id").reset_index(drop=True)


SQL_CORPUS_REFINERY = f"""
WITH qual AS (
  SELECT doc_id FROM (
    SELECT doc_id,
           length(text) - length(replace(text, ' ', '')) + 1 AS n_tokens,
           length(text) AS n_chars,
           len(list_filter(string_split(lower(text), ' '),
               x -> list_contains(['the','a'], x))) AS n_stop
    FROM documents)
  WHERE n_tokens >= 10
    AND CAST(n_chars - n_tokens + 1 AS DOUBLE) / n_tokens BETWEEN 2.0 AND 12.0
    AND CAST(n_stop AS DOUBLE) / n_tokens <= 0.6),
lid AS (
  SELECT doc_id, lang AS pred_lang FROM (
    SELECT t.doc_id, l.lang,
           CAST(len(list_filter(t.toks, x -> list_contains(l.words, x)))
                AS DOUBLE) / greatest(1, len(t.toks)) AS score
    FROM (SELECT doc_id, string_split(lower(text), ' ') AS toks
          FROM documents) t,
         (VALUES {{LANGVALS}}) AS l(lang, words))
  QUALIFY row_number() OVER (PARTITION BY doc_id
                             ORDER BY score DESC, lang ASC) = 1),
allch AS (SELECT substring(d.text, CAST(u.i AS INTEGER), 1) AS c
          FROM documents d, unnest(range(1, length(d.text) + 1)) AS u(i)),
vocab AS (SELECT COUNT(DISTINCT c) AS v FROM allch),
bg AS (SELECT d.doc_id,
              substring(d.text, CAST(u.i AS INTEGER), 1) AS c1,
              substring(d.text, CAST(u.i AS INTEGER) + 1, 1) AS c2
       FROM documents d, unnest(range(1, length(d.text))) AS u(i)),
cnt AS (SELECT c1, c2, COUNT(*) AS n FROM bg GROUP BY 1, 2),
tot AS (SELECT c1, SUM(n) AS t FROM cnt GROUP BY 1),
sc AS (SELECT bg.doc_id,
              AVG(-ln((cnt.n + 1.0) / (tot.t + vocab.v))) AS s
       FROM bg JOIN cnt ON cnt.c1 = bg.c1 AND cnt.c2 = bg.c2
       JOIN tot ON tot.c1 = bg.c1 CROSS JOIN vocab
       GROUP BY bg.doc_id),
surv1 AS (
  SELECT d.doc_id, d.lang, d.n_chars, d.text,
         ROUND(COALESCE(sc.s, 0.0), 6) AS nll
  FROM documents d
  JOIN qual USING (doc_id)
  JOIN lid ON lid.doc_id = d.doc_id AND lid.pred_lang = d.lang
  LEFT JOIN sc ON sc.doc_id = d.doc_id
  WHERE ROUND(COALESCE(sc.s, 0.0), 6) <= {REFINERY_NLL_MAX}),
ded AS (
  SELECT doc_id FROM (
    SELECT doc_id,
           ROW_NUMBER() OVER (
             PARTITION BY md5(array_to_string(
               list_slice(string_split(text, ' '), 1, 3), ' '))
             ORDER BY doc_id) AS rn
    FROM surv1)
  WHERE rn = 1)
SELECT s.doc_id, s.lang, s.n_chars, s.nll,
       ROUND(PERCENT_RANK() OVER (PARTITION BY s.lang ORDER BY s.n_chars),
             6) AS pr,
       CASE WHEN md5_number_lower(CAST(s.doc_id AS VARCHAR)) % 100 < 80
              THEN 'train'
            WHEN md5_number_lower(CAST(s.doc_id AS VARCHAR)) % 100 < 90
              THEN 'val'
            ELSE 'test' END AS split
FROM surv1 s JOIN ded USING (doc_id)
ORDER BY s.doc_id
"""


#: sorted-neighborhood window size and similarity threshold
SNM_WINDOW, SNM_THRESHOLD = 4, 0.5


def q_snm_pairs(sf_dir: str):
    """Sorted-Neighborhood near-dup pairs: sort by (n_chars, doc_id),
    compare each doc to its 3 predecessors in sort order, keep pairs
    with token-set Jaccard >= 0.5 — the entity-resolution alternative
    to LSH when a meaningful blocking sort key exists. One sort, a
    fixed (window-1)-row overlap handed between adjacent block tasks
    (no driver rows), pair-sized output."""
    from icrawler_ray.stages.dedup import sorted_neighborhood_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])
    return sorted_neighborhood_pairs(ds, ["n_chars"], window=SNM_WINDOW,
                                     threshold=SNM_THRESHOLD)


SQL_SNM_PAIRS = f"""
WITH r AS (SELECT doc_id,
                  ROW_NUMBER() OVER (ORDER BY n_chars, doc_id) AS rk
           FROM documents),
cand AS (SELECT x.doc_id AS a0, y.doc_id AS b0
         FROM r x JOIN r y ON y.rk > x.rk AND y.rk - x.rk < {SNM_WINDOW}),
tok AS (SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS s
        FROM documents),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM tok GROUP BY doc_id),
inter AS (SELECT c.a0, c.b0, COUNT(*) AS i
          FROM cand c
          JOIN tok ta ON ta.doc_id = c.a0
          JOIN tok tb ON tb.doc_id = c.b0 AND tb.s = ta.s
          GROUP BY c.a0, c.b0),
j AS (SELECT LEAST(c.a0, c.b0) AS a, GREATEST(c.a0, c.b0) AS b,
             CAST(i.i AS DOUBLE) / (na.n + nb.n - i.i) AS jac
      FROM cand c
      JOIN inter i ON i.a0 = c.a0 AND i.b0 = c.b0
      JOIN sizes na ON na.doc_id = c.a0
      JOIN sizes nb ON nb.doc_id = c.b0)
SELECT a, b, ROUND(jac, 6) AS jaccard FROM j
WHERE jac >= {SNM_THRESHOLD} ORDER BY a, b
"""


def q_precedence_dedup(sf_dir: str):
    """Source-precedence dedup — the multi-source ingestion union:
    when the same content key arrives from several sources, keep the
    copy from the MOST TRUSTED source (lexicographically smallest
    source name, doc_id as the final tiebreak) — the "curated beats
    crawled" merge every multi-corpus pipeline runs. The content key
    here is the md5 of the opening 3-token prefix (the boilerplate
    template identity; 27 collision groups at test scale, so the
    winner rule is genuinely exercised by the oracle).

    Scale shape: per-batch combiner keeps ONE winner candidate per key
    seen in the batch, so the reduce moves distinct-key-sized partials,
    never the corpus; same shape as dedup_exact with an ordered winner
    rule instead of first-seen."""
    from icrawler_ray.stages.dedup import md5_pair

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        keys = [" ".join(t.split(" ")[:3]) for t in df["text"]]
        h = md5_pair(keys)[:, 0].astype(np.uint64)
        d = pd.DataFrame({"h": h, "source": df["source"],
                          "doc_id": df["doc_id"]})
        d = d.sort_values(["h", "source", "doc_id"], kind="mergesort")
        return d.groupby("h", sort=False).head(1)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    parts = parts.sort_values(["h", "source", "doc_id"], kind="mergesort")
    win = parts.groupby("h", sort=False).head(1)
    out = win[["doc_id", "source"]].copy()
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_PRECEDENCE_DEDUP = """
WITH r AS (
  SELECT doc_id, source,
         ROW_NUMBER() OVER (
           PARTITION BY md5(array_to_string(
             list_slice(string_split(text, ' '), 1, 3), ' '))
           ORDER BY source, doc_id) AS rn
  FROM documents)
SELECT doc_id, source FROM r WHERE rn = 1 ORDER BY doc_id
"""


#: exact-substring-dedup window length in tokens (Lee et al. 2021 use 50
#: BPE tokens; 10 word tokens keeps the oracle exercised at test scale —
#: 2007 duplicated occurrences across 969 distinct grams at sf0.01)
SUBSTR_K = 10


def q_substring_dedup(sf_dir: str):
    """Exact duplicated-substring removal (ExactSubstr, Lee et al. 2021):
    every SUBSTR_K-token window whose exact text occurs >= 2 times
    corpus-wide is scrubbed from every document containing it; output is
    (doc_id, clean_text, n_removed) for EVERY doc. Unlike doc-level dedup
    this removes the boilerplate spans and keeps the unique remainder —
    the strongest-dedup step in the Lee et al. ablation.

    Scale shape: gram counting moves (hash, count) combiner partials;
    below the measured SUBSTR_DUP_BROADCAST_MAX the dup set broadcasts
    once and the scrub pass is shuffle-free; above it (or forced) the
    partitioned path counts in gram-hash partitions and rebuilds via a
    tag-and-group doc exchange (see stages/dedup.duplicate_span_scrub)."""
    from icrawler_ray.stages.dedup import duplicate_span_scrub

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = duplicate_span_scrub(ds, k=SUBSTR_K).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_removed"] = out["n_removed"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_SUBSTRING_DEDUP = f"""
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
grams AS (SELECT doc_id, u.i AS off,
                 array_to_string(list_slice(t, u.i, u.i+{SUBSTR_K}-1), ' ') AS g
          FROM toks, UNNEST(range(1, len(t)-{SUBSTR_K}+2)) AS u(i)),
dupg AS (SELECT g FROM grams GROUP BY g HAVING COUNT(*) >= 2),
cover AS (SELECT DISTINCT gr.doc_id, v.j AS pos
          FROM grams gr JOIN dupg d ON d.g = gr.g,
               UNNEST(range(gr.off, gr.off + {SUBSTR_K})) AS v(j)),
tokpos AS (SELECT doc_id, u.i AS pos, t[u.i] AS tok
           FROM toks, UNNEST(range(1, len(t)+1)) AS u(i)),
kept AS (SELECT tp.doc_id, tp.pos, tp.tok
         FROM tokpos tp LEFT JOIN cover c
           ON c.doc_id = tp.doc_id AND c.pos = tp.pos
         WHERE c.pos IS NULL),
agg AS (SELECT doc_id, string_agg(tok, ' ' ORDER BY pos) AS clean_text
        FROM kept GROUP BY doc_id),
rem AS (SELECT doc_id, COUNT(*) AS n_removed FROM cover GROUP BY doc_id)
SELECT d.doc_id, COALESCE(a.clean_text, '') AS clean_text,
       CAST(COALESCE(r.n_removed, 0) AS BIGINT) AS n_removed
FROM documents d
LEFT JOIN agg a USING (doc_id) LEFT JOIN rem r USING (doc_id)
ORDER BY d.doc_id
"""


#: Naive-Bayes quality classifier: curated-source positive class (the
#: GPT-3 recipe: curated corpora positive, raw crawl negative). The
#: single-digit sources are "curated" here purely as a deterministic
#: label rule the SQL oracle can replicate (length(source) = 4).
NB_CURATED_PREFIX_LEN = 4


def q_nb_quality(sf_dir: str):
    """Model-based quality filter (GPT-3 appendix A / CCNet fastText
    shape): train a hashed-token Naive-Bayes classifier with curated
    sources as the positive class, then score EVERY doc with the fitted
    log-odds and emit (doc_id, nb_score, pred_good) — the distillation of
    a corpus-membership signal into a scorer the gate stage can apply at
    read time.

    Scale shape: training is one exchange of <= NB_V-row (feature, count)
    combiner partials reduced on the driver into a 32 KB weight vector
    (model size is VOCAB-bounded, never corpus-bounded); the vector is
    broadcast once via ray.put and scoring is a single shuffle-free
    map_batches pass (np.add.reduceat per batch)."""
    from icrawler_ray.stages.textfns import (nb_fit, nb_score_batch,
                                             nb_train_partial)

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def train_partial(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch["source"].to_pylist())
        good = np.char.str_len(src.astype(str)) == NB_CURATED_PREFIX_LEN
        return nb_train_partial(batch, "text", good)

    parts = (ds.map_batches(train_partial, batch_format="pyarrow")
             .groupby("f").sum(["cg", "cb"]).to_pandas())
    parts = parts.rename(columns={"sum(cg)": "cg", "sum(cb)": "cb"})
    w, prior = nb_fit(parts)
    w_ref = ray.put(w)

    def score(batch: pa.Table) -> pa.Table:
        return nb_score_batch(batch, "text", "doc_id", ray.get(w_ref),
                              prior)

    out = ds.map_batches(score, batch_format="pyarrow").to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_NB_QUALITY = f"""
WITH lab AS (SELECT doc_id, text,
                    length(source) = {NB_CURATED_PREFIX_LEN} AS good
             FROM documents),
tok AS (SELECT doc_id, good,
               CAST(md5_number_lower(u.t) % 4096 AS BIGINT) AS f
        FROM lab, UNNEST(string_split(text, ' ')) AS u(t)),
cnt AS (SELECT f,
               SUM(CASE WHEN good THEN 1 ELSE 0 END) AS cg,
               SUM(CASE WHEN NOT good THEN 1 ELSE 0 END) AS cb
        FROM tok GROUP BY f),
tot AS (SELECT SUM(cg) AS ng, SUM(cb) AS nb FROM cnt),
prior AS (SELECT ln(SUM(CASE WHEN good THEN 1 ELSE 0 END)::DOUBLE /
                    SUM(CASE WHEN NOT good THEN 1 ELSE 0 END)) AS lp
          FROM lab),
w AS (SELECT c.f,
             ln((c.cg + 1.0) / (t.ng + 4096))
           - ln((c.cb + 1.0) / (t.nb + 4096)) AS wt
      FROM cnt c CROSS JOIN tot t),
score AS (SELECT tk.doc_id, SUM(w.wt) + ANY_VALUE(p.lp) AS s
          FROM tok tk JOIN w ON w.f = tk.f CROSS JOIN prior p
          GROUP BY tk.doc_id)
SELECT doc_id, ROUND(s, 6) AS nb_score, s > 0 AS pred_good
FROM score ORDER BY doc_id
"""


def q_knn_pq(sf_dir: str):
    """Product-quantization ANN (Jégou et al. 2011): 64 dims split into
    4 subspaces, each k-means'd (1 Lloyd iteration, squared-L2, init =
    8 lowest-id subvectors) into 8 codes; queries rank every vector by
    the ADC lookup-table distance. THE memory-scale ANN path: 256-byte
    vectors become 4 code bytes, and scoring is table lookups, not
    matmuls. Codebook training is one combiner-partial exchange per
    iteration, scoring is shuffle-free with per-batch top-k truncation
    (output-sized driver merge). The oracle unrolls the subspace k-means
    AND the ADC ranking in SQL with the same xx+cc-2xc distance form."""
    from icrawler_ray.stages.similarity import pq_topk

    head = _read(sf_dir, "embeddings", ["vec_id", "embedding"]) \
        .sort("vec_id").limit(3).to_pandas()
    queries = np.asarray(head["embedding"].tolist(), dtype=np.float64)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = pq_topk(ds, queries, k=5, m=4, k_codes=8, n_iter=1,
                  query_ids=head["vec_id"].to_numpy())
    out["rank"] = out["rank"].astype(np.int64)
    return out[["query_id", "vec_id", "adist", "rank"]]


def _sql_knn_pq(m: int = 4, k_codes: int = 8, dim: int = 64,
                n_q: int = 3, k: int = 5) -> str:
    """Iteration-unrolled PQ oracle: per-subspace c0 (k_codes lowest-id
    subvectors) -> one Lloyd update -> encode -> per-query LUT join.
    Distances use the same xx + cc - 2xc inner-product expansion as the
    engine so float rounding agrees."""
    sub = dim // m
    parts = [f"""
WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
q AS MATERIALIZED (SELECT vec_id AS query_id, v AS qv FROM e
     ORDER BY vec_id LIMIT {n_q})"""]
    dist = ("list_inner_product({a}, {a}) + list_inner_product({b}, {b})"
            " - 2 * list_inner_product({a}, {b})")
    for s in range(m):
        lo, hi = s * sub + 1, (s + 1) * sub
        d_ec = dist.format(a="es.v", b="c.v")
        parts.append(f"""
e{s} AS MATERIALIZED (SELECT vec_id, list_slice(v, {lo}, {hi}) AS v FROM e),
c0_{s} AS MATERIALIZED (SELECT CAST(row_number() OVER (ORDER BY vec_id) - 1
       AS INTEGER) AS cid, v FROM e{s} ORDER BY vec_id LIMIT {k_codes}),
a0_{s} AS MATERIALIZED (SELECT vec_id, cid FROM (
  SELECT es.vec_id, c.cid,
         row_number() OVER (PARTITION BY es.vec_id
             ORDER BY {d_ec} ASC, c.cid) AS rn
  FROM e{s} es CROSS JOIN c0_{s} c) WHERE rn = 1),
c1_{s} AS MATERIALIZED (SELECT cid, list(mv ORDER BY idx) AS v FROM (
  SELECT a.cid, t.i AS idx, AVG(es.v[t.i]) AS mv
  FROM a0_{s} a JOIN e{s} es USING (vec_id)
  CROSS JOIN range(1, {sub + 1}) t(i)
  GROUP BY a.cid, t.i) GROUP BY cid),
enc_{s} AS MATERIALIZED (SELECT vec_id, cid FROM (
  SELECT es.vec_id, c.cid,
         row_number() OVER (PARTITION BY es.vec_id
             ORDER BY {d_ec} ASC, c.cid) AS rn
  FROM e{s} es CROSS JOIN c1_{s} c) WHERE rn = 1),
qd_{s} AS MATERIALIZED (SELECT q.query_id, c.cid,
       {dist.format(a=f"list_slice(q.qv, {lo}, {hi})", b="c.v")} AS d
  FROM q CROSS JOIN c1_{s} c)""")
    enc_joins = " ".join(
        f"JOIN enc_{s} ON enc_{s}.vec_id = x.vec_id "
        f"JOIN qd_{s} ON qd_{s}.query_id = q.query_id "
        f"AND qd_{s}.cid = enc_{s}.cid" for s in range(m))
    d_sum = " + ".join(f"qd_{s}.d" for s in range(m))
    parts.append(f"""
ad AS (SELECT q.query_id, x.vec_id, {d_sum} AS adist
       FROM e x CROSS JOIN q {enc_joins}
       WHERE x.vec_id <> q.query_id)""")
    return (",".join(parts) + f"""
SELECT query_id, vec_id, ROUND(adist, 6) AS adist,
       row_number() OVER (PARTITION BY query_id
           ORDER BY adist ASC, vec_id) AS rank
FROM ad QUALIFY rank <= {k} ORDER BY query_id, rank""")


SQL_KNN_PQ = _sql_knn_pq()


#: JL projection target dimensionality
JL_K = 16


def q_random_projection(sf_dir: str):
    """Johnson-Lindenstrauss random projection: every embedding is
    mapped from its native dim to JL_K dims with a deterministic
    Rademacher sign matrix (s[j,k] = ±1 from the parity of
    md5(j '_' k)) scaled by 1/sqrt(K) — the dimensionality-reduction
    step before ANN indexing / clustering at scale, with distances
    preserved in expectation (JL lemma; Achlioptas '03 for the ±1
    construction).

    Scale shape: the (dim x K) sign matrix is built once on the driver
    (1 KB) and broadcast; one linear map_batches pass does a flat
    child-values reshape + matmul per batch. Zero shuffles, output
    K/dim of the input. The md5-parity construction lets the SQL
    oracle reproduce every projected coordinate."""
    from icrawler_ray.stages.dedup import md5_pair
    from icrawler_ray.stages.similarity import _as_matrix

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    dim = len(ds.take(1)[0]["embedding"])
    K = JL_K
    bits = md5_pair([f"{j}_{k}" for j in range(dim) for k in range(K)])[:, 0] % 2
    S = np.where(bits.reshape(dim, K) == 0, 1.0, -1.0) / np.sqrt(float(K))
    s_ref = ray.put(S)

    def project(batch: pa.Table) -> pa.Table:
        s = ray.get(s_ref)
        X = _as_matrix(batch["embedding"])
        Y = X @ s  # (n, K)
        n = len(X)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "vec_id": pa.array(np.repeat(ids, K)),
            "k": pa.array(np.tile(np.arange(K, dtype=np.int64), n)),
            "y": pa.array(np.round(Y.ravel(), 6)),
        })

    out = ds.map_batches(project, batch_format="pyarrow").to_pandas()
    return out.sort_values(["vec_id", "k"]).reset_index(drop=True)


#: length-bucket boundaries for the padding-waste rollup
PAD_BUCKETS = [32, 64, 96]


def q_bucket_padding_waste(sf_dir: str):
    """Padding-waste audit for length-bucketed batching: every doc is
    assigned the smallest bucket >= its token count (longer docs
    truncate to the largest bucket at zero waste); per bucket, report
    doc count, real tokens and padding tokens — the measurement that
    decides batch-shape policy for training (how much compute
    padding burns at each boundary). One combiner pass; the reduce is
    bucket-cardinality-bounded. Token counts are whitespace-split to
    match the suite's tokenizer."""
    ds = _read(sf_dir, "documents", ["text"])
    bounds = np.asarray(PAD_BUCKETS, dtype=np.int64)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ntok = df["text"].str.split(" ").str.len().to_numpy(dtype=np.int64)
        bi = np.searchsorted(bounds, ntok, side="left")
        over = bi >= len(bounds)
        bucket = bounds[np.minimum(bi, len(bounds) - 1)]
        tokens = np.where(over, bounds[-1], ntok)  # truncated to last bucket
        pad = bucket - tokens
        g = pd.DataFrame({"bucket": bucket, "tokens": tokens, "pad": pad}) \
            .groupby("bucket", sort=False).agg(
                n=("tokens", "size"), tokens=("tokens", "sum"),
                pad=("pad", "sum")).reset_index()
        return g

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby("bucket", as_index=False).sum()
    for c in ("n", "tokens", "pad"):
        out[c] = out[c].astype("int64")
    out["waste_pct"] = np.round(
        out["pad"] / (out["pad"] + out["tokens"]) * 100.0, 6)
    return out.sort_values("bucket").reset_index(drop=True)


SQL_BUCKET_PADDING_WASTE = f"""
WITH d AS (SELECT len(string_split(text, ' ')) AS ntok FROM documents),
b AS (SELECT ntok,
             CASE {' '.join(f"WHEN ntok <= {b} THEN {b}" for b in PAD_BUCKETS)}
                  ELSE {PAD_BUCKETS[-1]} END AS bucket,
             CASE WHEN ntok > {PAD_BUCKETS[-1]} THEN {PAD_BUCKETS[-1]}
                  ELSE ntok END AS tokens
      FROM d)
SELECT bucket, COUNT(*) AS n,
       CAST(SUM(tokens) AS BIGINT) AS tokens,
       CAST(SUM(bucket - tokens) AS BIGINT) AS pad,
       ROUND(SUM(bucket - tokens) * 100.0
             / (SUM(bucket - tokens) + SUM(tokens)), 6) AS waste_pct
FROM b GROUP BY bucket ORDER BY bucket
"""


SQL_RANDOM_PROJECTION = f"""
WITH dims AS (SELECT len(embedding) AS d FROM embeddings LIMIT 1),
sgn AS (SELECT j.j, k.k,
               CASE WHEN md5_number_lower(CAST(j.j AS VARCHAR) || '_'
                                          || CAST(k.k AS VARCHAR)) % 2 = 0
                    THEN 1.0 ELSE -1.0 END AS s
        FROM (SELECT unnest(range((SELECT d FROM dims))) AS j) j
        CROSS JOIN (SELECT unnest(range({JL_K})) AS k) k),
e AS (SELECT vec_id, t.i AS j, embedding[CAST(t.i AS INTEGER) + 1] AS x
      FROM embeddings, unnest(range(len(embedding))) AS t(i))
SELECT e.vec_id, sgn.k,
       ROUND(SUM(e.x * sgn.s) / sqrt({JL_K}.0), 6) AS y
FROM e JOIN sgn ON sgn.j = e.j
GROUP BY e.vec_id, sgn.k
ORDER BY e.vec_id, sgn.k
"""


SQL_COUNTMIN_FREQ = f"""
WITH tok AS (SELECT unnest(string_split(text, ' ')) AS term FROM documents),
cnt AS (SELECT term, COUNT(*) AS n FROM tok GROUP BY term),
qs AS (SELECT term, n FROM cnt ORDER BY term LIMIT {CMS_QUERY_TERMS}),
cells AS (SELECT c.term, r.i,
                 ((md5_number_lower(c.term)::HUGEINT
                   + r.i * md5_number_upper(c.term)::HUGEINT)
                  % 18446744073709551616::HUGEINT) % {CMS_WIDTH} AS cell,
                 c.n
          FROM cnt c CROSS JOIN (SELECT unnest(range({CMS_DEPTH})) AS i) r),
cellsum AS (SELECT i, cell, SUM(n) AS s FROM cells GROUP BY i, cell),
est AS (SELECT q.term, MIN(cs.s) AS e
        FROM qs q JOIN cells ce ON ce.term = q.term
        JOIN cellsum cs ON cs.i = ce.i AND cs.cell = ce.cell
        GROUP BY q.term)
SELECT q.term, CAST(e.e AS BIGINT) AS est, CAST(q.n AS BIGINT) AS exact
FROM qs q JOIN est e USING (term) ORDER BY q.term
"""


#: BPE merge steps learned / applied by the tokenizer-training queries
BPE_MERGES = 3


def q_bpe_merges(sf_dir: str):
    """Distributed BPE tokenizer training (Sennrich 2016): learn the
    first BPE_MERGES merges over the corpus.  The corpus-sized step is
    the word-count extraction (per-batch combiner partials, exchange =
    distinct-words-per-block); merge learning runs vectorized on the
    VOCABULARY — the standard BPE formulation.  The oracle unrolls every
    merge in SQL with the same boundary-delimited nested-replace, so
    both sides agree by construction; a pytest additionally pins the
    nested-replace semantics against a classic reference BPE."""
    from icrawler_ray.stages import bpe

    ds = _read(sf_dir, "documents", ["text"])
    merges, _ = bpe.fit(bpe.word_counts(ds), BPE_MERGES)
    return merges[["step", "l", "r", "n"]]


def q_bpe_encode(sf_dir: str):
    """Apply the learned BPE merges back to the corpus: per-doc word and
    symbol counts after BPE_MERGES merges.  The fitted word->n_syms map
    is broadcast once (ray.put) and each batch scores its docs locally —
    no shuffle; output is one row per doc, streamed."""
    from icrawler_ray.stages import bpe

    ds = _read(sf_dir, "documents", ["text"])
    _, vocab = bpe.fit(bpe.word_counts(ds), BPE_MERGES)
    ref = ray.put(bpe.sym_counts(vocab))

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def score(df: pd.DataFrame) -> pd.DataFrame:
        smap = ray.get(ref)
        e = df[["doc_id"]].join(df["text"].str.split(" ").rename("w")).explode("w")
        e = e[e["w"] != ""]
        e["k"] = e["w"].map(smap)
        g = e.groupby("doc_id", sort=False).agg(
            n_words=("w", "size"), n_syms=("k", "sum"))
        g["n_syms"] = g["n_syms"].astype("int64")
        g["n_words"] = g["n_words"].astype("int64")
        return g.reset_index()

    return docs.map_batches(score, batch_format="pandas").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


def _sql_bpe(n_merges: int, final: str, n_rep: int = 6) -> str:
    """Iteration-unrolled BPE oracle: word counts -> '|'-delimited char
    sequences -> per merge step (pair counts via list_zip with the
    shifted list, top pair by count DESC / l / r, nested boundary
    replace — the same REP_PASSES semantics as stages/bpe.py)."""
    parts = ["""
WITH words AS MATERIALIZED (
  SELECT w, CAST(count(*) AS BIGINT) AS n FROM (
    SELECT unnest(string_split(text, ' ')) AS w FROM documents)
  WHERE w <> '' GROUP BY w),
v0 AS MATERIALIZED (
  SELECT w, '|' || array_to_string(string_split(w, ''), '|') || '|' AS s, n
  FROM words)"""]
    for step in range(1, n_merges + 1):
        prev = f"v{step - 1}"
        parts.append(f"""
p{step} AS MATERIALIZED (
  SELECT pr[1] AS l, pr[2] AS r, CAST(SUM(n) AS BIGINT) AS n FROM (
    SELECT unnest(list_zip(syms, syms[2:])) AS pr, n FROM (
      SELECT list_filter(string_split(s, '|'), x -> x <> '') AS syms, n
      FROM {prev}))
  WHERE pr[2] IS NOT NULL GROUP BY 1, 2),
m{step} AS MATERIALIZED (
  SELECT l, r, n FROM p{step} ORDER BY n DESC, l, r LIMIT 1)""")
        rep = f"{prev}.s"
        for _ in range(n_rep):
            rep = (f"replace({rep}, '|' || m{step}.l || '|' || m{step}.r || '|',"
                   f" '|' || m{step}.l || m{step}.r || '|')")
        parts.append(f"""
v{step} AS MATERIALIZED (
  SELECT {prev}.w AS w, {rep} AS s, {prev}.n AS n
  FROM {prev} CROSS JOIN m{step})""")
    return ",".join(parts) + final


SQL_BPE_MERGES = _sql_bpe(BPE_MERGES, f"""
SELECT * FROM ({" UNION ALL ".join(
    f"SELECT {s} AS step, l, r, n FROM m{s}" for s in range(1, BPE_MERGES + 1))})
ORDER BY step""")

SQL_BPE_ENCODE = _sql_bpe(BPE_MERGES, f"""
, wmap AS (SELECT w, len(list_filter(string_split(s, '|'), x -> x <> '')) AS k
           FROM v{BPE_MERGES}),
tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents)
SELECT t.doc_id, CAST(count(*) AS BIGINT) AS n_words,
       CAST(SUM(m.k) AS BIGINT) AS n_syms
FROM tok t JOIN wmap m USING (w) WHERE t.w <> ''
GROUP BY t.doc_id ORDER BY t.doc_id""")


#: rank cutoff for the Zipf power-law fit
ZIPF_TOP_N = 100


def q_zipf_slope(sf_dir: str):
    """Zipf power-law fit of the term-frequency distribution: OLS slope
    and intercept of ln(freq) ~ ln(rank) over the top ZIPF_TOP_N terms —
    the corpus-health diagnostic (natural text sits near slope -1; a
    heavily duplicated or templated corpus deviates).  Term counts come
    from the same combiner-partial exchange as top_terms; the fit itself
    is O(top_n) driver numpy using exactly regr_slope's closed form."""
    from icrawler_ray.stages.bpe import word_counts

    ds = _read(sf_dir, "documents", ["text"])
    tf = word_counts(ds).rename(columns={"w": "term"})
    tf = tf.sort_values(["n", "term"], ascending=[False, True],
                        kind="mergesort").head(ZIPF_TOP_N)
    x = np.log(np.arange(1, len(tf) + 1, dtype=np.float64))
    y = np.log(tf["n"].to_numpy(dtype=np.float64))
    xc, yc = x - x.mean(), y - y.mean()
    slope = float((xc * yc).sum() / (xc * xc).sum())
    intercept = float(y.mean() - slope * x.mean())
    return pd.DataFrame({"slope": [round(slope, 6)],
                         "intercept": [round(intercept, 6)],
                         "n_terms": np.asarray([len(tf)], dtype=np.int64)})


SQL_ZIPF_SLOPE = f"""
WITH tf AS (SELECT w AS term, CAST(count(*) AS BIGINT) AS n FROM (
    SELECT unnest(string_split(text, ' ')) AS w FROM documents)
  WHERE w <> '' GROUP BY w),
ranked AS (SELECT term, n, row_number() OVER (ORDER BY n DESC, term) AS r
           FROM tf QUALIFY r <= {ZIPF_TOP_N})
SELECT ROUND(regr_slope(ln(n), ln(r)), 6) AS slope,
       ROUND(regr_intercept(ln(n), ln(r)), 6) AS intercept,
       CAST(count(*) AS BIGINT) AS n_terms
FROM ranked
"""


def q_intra_doc_dedup(sf_dir: str):
    """Within-document repetition removal (the Dolma/C4 per-doc line
    dedup, at word granularity for this corpus): keep each doc's FIRST
    occurrence of every token, preserving order.  Embarrassingly
    parallel — each doc lives inside one batch, so the whole op is one
    map_batches pass of vectorized explode / duplicated / join kernels
    with no shuffle at all."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def dedup(df: pd.DataFrame) -> pd.DataFrame:
        e = df[["doc_id"]].join(df["text"].str.split(" ").rename("w")).explode("w")
        e = e[e["w"] != ""]
        n_words = e.groupby("doc_id", sort=False).size()
        kept = e[~e.duplicated(["doc_id", "w"])]
        g = kept.groupby("doc_id", sort=False)["w"].agg(" ".join).rename("dedup_text")
        n_kept = kept.groupby("doc_id", sort=False).size()
        out = pd.DataFrame({"dedup_text": g,
                            "n_kept": n_kept.astype("int64"),
                            "n_removed": (n_words - n_kept).astype("int64")})
        return out.reset_index()

    return ds.map_batches(dedup, batch_format="pandas").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


SQL_INTRA_DOC_DEDUP = """
WITH tok AS (SELECT doc_id, unnest(ws) AS w, generate_subscripts(ws, 1) AS i
             FROM (SELECT doc_id, string_split(text, ' ') AS ws FROM documents)),
firsts AS (SELECT doc_id, w, i,
                  row_number() OVER (PARTITION BY doc_id, w ORDER BY i) AS rn,
                  count(*) OVER (PARTITION BY doc_id) AS n_words
           FROM tok WHERE w <> '')
SELECT doc_id, string_agg(w, ' ' ORDER BY i) AS dedup_text,
       CAST(count(*) AS BIGINT) AS n_kept,
       CAST(any_value(n_words) - count(*) AS BIGINT) AS n_removed
FROM firsts WHERE rn = 1 GROUP BY doc_id ORDER BY doc_id
"""


#: PII patterns (applied in this order on both sides; RE2 and Python re
#: agree on these constructs over ASCII text)
PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_IPV4 = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
PII_PHONE = r"\+?\d{1,2}[-. ]\d{3}[-. ]\d{3}[-. ]\d{4}"


def q_pii_redact(sf_dir: str):
    """PII redaction — the privacy-scrub stage of a curation pipeline
    (emails / phone numbers / IPv4 addresses masked with typed
    placeholders).  The synthetic corpus carries no PII, so both sides
    first append a DETERMINISTIC doc_id-derived contact line (same
    expression in pandas and SQL), then redact: count+replace emails,
    then IPs, then count+replace phones on the already-masked text —
    identical order both sides.  Pure per-row vectorized regex kernels;
    no shuffle."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def redact(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"]
        t = (df["text"] + " contact u" + d.astype(str) + "@mail"
             + (d % 7).astype(str) + ".com or call +1-415-555-"
             + (d % 10000).astype(str).str.zfill(4) + " from 10."
             + (d % 256).astype(str) + ".0." + ((d * 7) % 256).astype(str))
        n_emails = t.str.count(PII_EMAIL).astype("int64")
        n_ips = t.str.count(PII_IPV4).astype("int64")
        t = t.str.replace(PII_EMAIL, "<EMAIL>", regex=True)
        t = t.str.replace(PII_IPV4, "<IP>", regex=True)
        n_phones = t.str.count(PII_PHONE).astype("int64")
        t = t.str.replace(PII_PHONE, "<PHONE>", regex=True)
        return pd.DataFrame({"doc_id": d, "red_text": t, "n_emails": n_emails,
                             "n_phones": n_phones, "n_ips": n_ips})

    return ds.map_batches(redact, batch_format="pandas").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


SQL_PII_REDACT = rf"""
WITH aug AS (SELECT doc_id,
    text || ' contact u' || doc_id || '@mail' || (doc_id % 7) ||
    '.com or call +1-415-555-' || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') ||
    ' from 10.' || (doc_id % 256) || '.0.' || ((doc_id * 7) % 256) AS t
  FROM documents),
cnt AS (SELECT doc_id, t,
    CAST(len(regexp_extract_all(t, '{PII_EMAIL}')) AS BIGINT) AS n_emails,
    CAST(len(regexp_extract_all(t, '{PII_IPV4}')) AS BIGINT) AS n_ips
  FROM aug),
r1 AS (SELECT doc_id, n_emails, n_ips,
    regexp_replace(t, '{PII_EMAIL}', '<EMAIL>', 'g') AS t FROM cnt),
r2 AS (SELECT doc_id, n_emails, n_ips,
    regexp_replace(t, '{PII_IPV4}', '<IP>', 'g') AS t FROM r1),
r3 AS (SELECT doc_id, n_emails, n_ips,
    CAST(len(regexp_extract_all(t, '{PII_PHONE}')) AS BIGINT) AS n_phones,
    regexp_replace(t, '{PII_PHONE}', '<PHONE>', 'g') AS t FROM r2)
SELECT doc_id, t AS red_text, n_emails, n_phones, n_ips FROM r3 ORDER BY doc_id
"""


def q_assortativity(sf_dir: str):
    """Degree assortativity of the link graph (Newman 2002): Pearson
    correlation of (out_deg(src), in_deg(dst)) over directed edges — the
    one-number crawl-graph shape diagnostic (hub-to-hub vs hub-to-leaf
    linking).  Two shuffle-free passes over the edge stream: degree
    combiner partials -> dense degree vectors broadcast once (ray.put;
    same node-count boundary as broadcast PageRank — the partitioned
    path would attach degrees with two bucketed joins), then per-batch
    moment partials (n, Sx, Sy, Sxx, Syy, Sxy) — ONE row per batch —
    reduced on the driver in closed form."""
    from icrawler_ray.stages.linkgraph import derive_edges

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()
    edges = derive_edges(docs, n)

    def deg_partial(df: pd.DataFrame) -> pd.DataFrame:
        o = df["src"].value_counts()
        i = df["dst"].value_counts()
        return pd.DataFrame({
            "node": np.concatenate([o.index.to_numpy(), i.index.to_numpy()]),
            "kind": np.repeat(["o", "i"], [len(o), len(i)]),
            "c": np.concatenate([o.to_numpy(), i.to_numpy()]),
        })

    parts = edges.map_batches(deg_partial, batch_format="pandas").to_pandas()
    g = parts.groupby(["kind", "node"])["c"].sum()
    out_deg = np.zeros(n, dtype=np.float64)
    in_deg = np.zeros(n, dtype=np.float64)
    if "o" in g.index.get_level_values(0):
        out_deg[g.loc["o"].index.to_numpy()] = g.loc["o"].to_numpy()
    if "i" in g.index.get_level_values(0):
        in_deg[g.loc["i"].index.to_numpy()] = g.loc["i"].to_numpy()
    ref = ray.put((out_deg, in_deg))

    def moments(df: pd.DataFrame) -> pd.DataFrame:
        od, idg = ray.get(ref)
        x = od[df["src"].to_numpy()]
        y = idg[df["dst"].to_numpy()]
        return pd.DataFrame({"n": [len(x)], "sx": [x.sum()], "sy": [y.sum()],
                             "sxx": [(x * x).sum()], "syy": [(y * y).sum()],
                             "sxy": [(x * y).sum()]})

    m = edges.map_batches(moments, batch_format="pandas").to_pandas().sum()
    num = m["n"] * m["sxy"] - m["sx"] * m["sy"]
    den = np.sqrt((m["n"] * m["sxx"] - m["sx"] ** 2)
                  * (m["n"] * m["syy"] - m["sy"] ** 2))
    return pd.DataFrame({"assortativity": [round(float(num / den), 6)],
                         "n_edges": np.asarray([int(m["n"])], dtype=np.int64)})


SQL_ASSORTATIVITY = f"""
WITH {_SQL_EDGES_CTE},
o AS (SELECT src AS node, CAST(COUNT(*) AS DOUBLE) AS c FROM edges GROUP BY src),
i AS (SELECT dst AS node, CAST(COUNT(*) AS DOUBLE) AS c FROM edges GROUP BY dst)
SELECT ROUND(corr(o.c, i.c), 6) AS assortativity,
       CAST(COUNT(*) AS BIGINT) AS n_edges
FROM edges e JOIN o ON o.node = e.src JOIN i ON i.node = e.dst
"""


#: bootstrap replicas / Poisson(1) CDF thresholds shared with the SQL
#: oracle (identical literals -> identical float comparisons)
BOOT_B = 32
POISSON1_CDF = (0.36787944117144233, 0.7357588823428847, 0.9196986029286058,
                0.9810118431238462, 0.9963401531726563, 0.9994058151824183,
                0.9999167588507119)


def q_bootstrap_ci(sf_dir: str):
    """Deterministic Poisson bootstrap of the mean document length —
    uncertainty quantification over a corpus statistic WITHOUT
    resampling rows: each of BOOT_B replicas weights every doc by a
    Poisson(1) draw derived from md5(doc_id:b) (content-stable, so the
    replica set is identical across runs/resharding and
    SQL-reproducible via the shared inverse-CDF thresholds).  One
    map_batches pass emits B-row (b, sum_w, sum_wx) partials per batch;
    the driver reduce is O(B)."""
    from icrawler_ray.stages.dedup import md5_pair

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    cdf = np.asarray(POISSON1_CDF)

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        x = np.asarray(batch["n_chars"].to_pylist(), dtype=np.float64)
        rows = {"b": [], "sw": [], "swx": []}
        for b in range(BOOT_B):
            h = md5_pair([f"{i}:{b}" for i in ids])[:, 0]
            u = ((h % np.uint64(4294967296)).astype(np.float64) + 1.0) / 4294967297.0
            k = np.searchsorted(cdf, u, side="right").astype(np.float64)
            rows["b"].append(b)
            rows["sw"].append(k.sum())
            rows["swx"].append((k * x).sum())
        return pa.table({"b": pa.array(rows["b"], type=pa.int64()),
                         "sw": pa.array(rows["sw"], type=pa.float64()),
                         "swx": pa.array(rows["swx"], type=pa.float64())})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("b", as_index=False).sum()
    g["boot_mean"] = (g["swx"] / g["sw"]).round(6)
    g["b"] = g["b"].astype(np.int64)
    return g[["b", "boot_mean"]].sort_values("b").reset_index(drop=True)


SQL_BOOTSTRAP_CI = f"""
WITH reps AS (SELECT unnest(range({BOOT_B})) AS b),
w AS (SELECT d.n_chars, r.b,
        ((md5_number_lower(d.doc_id || ':' || r.b) % 4294967296) + 1.0)
        / 4294967297.0 AS u
      FROM documents d CROSS JOIN reps r),
k AS (SELECT b, n_chars,
        CASE {" ".join(f"WHEN u < {t!r} THEN {j}"
                       for j, t in enumerate(POISSON1_CDF))}
             ELSE {len(POISSON1_CDF)} END AS k
      FROM w)
SELECT CAST(b AS BIGINT) AS b,
       ROUND(SUM(k * n_chars) / CAST(SUM(k) AS DOUBLE), 6) AS boot_mean
FROM k GROUP BY b ORDER BY b
"""


#: taxonomy for the keyword-tagging operator (terms from the corpus
#: vocabulary; the broadcast-dictionary shape generalizes to any list)
TOPIC_TERMS = {
    "storage": ("table", "column", "row", "part"),
    "exec": ("scan", "merge", "join", "sort", "hash"),
    "streaming": ("stream", "window", "batch"),
    "perf": ("slow", "fast", "big", "small"),
}


def q_keyword_tag(sf_dir: str):
    """Taxonomy keyword tagging (the FlashText/dictionary-tagger shape
    used for topic routing in curation pipelines): per doc, which topics
    have at least one term present, with the count of DISTINCT matching
    terms.  One explode pass per batch, then per-topic isin masks +
    groupby nunique — the topic dictionary is a per-worker constant, no
    shuffle."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        e = df[["doc_id"]].join(df["text"].str.split(" ").rename("w")).explode("w")
        outs = []
        for topic, terms in TOPIC_TERMS.items():
            hit = e[e["w"].isin(terms)]
            g = hit.groupby("doc_id", sort=False)["w"].nunique().rename("n_terms")
            t = g.reset_index()
            t["topic"] = topic
            outs.append(t)
        out = pd.concat(outs, ignore_index=True)
        out["n_terms"] = out["n_terms"].astype("int64")
        return out[["doc_id", "topic", "n_terms"]]

    return ds.map_batches(tag, batch_format="pandas").to_pandas() \
        .sort_values(["doc_id", "topic"]).reset_index(drop=True)


def _sql_topic_select(topic: str, terms: tuple) -> str:
    tlist = ", ".join(f"'{t}'" for t in terms)
    return f"""
SELECT doc_id, '{topic}' AS topic,
       CAST(len(list_distinct(list_filter(string_split(text, ' '),
            w -> w IN ({tlist})))) AS BIGINT) AS n_terms
FROM documents"""


SQL_KEYWORD_TAG = f"""
SELECT doc_id, topic, n_terms FROM ({
    " UNION ALL ".join(_sql_topic_select(t, ts) for t, ts in TOPIC_TERMS.items())
}) WHERE n_terms > 0 ORDER BY doc_id, topic
"""


def q_nb_calibration(sf_dir: str):
    """Reliability diagram for the Naive-Bayes quality classifier: docs
    bucketed by predicted probability (sigmoid of the log-odds, 10
    equal-width bins) vs the observed curated-source rate per bin — the
    calibration audit run before trusting a model-based gate's
    threshold.  Training reuses the NB combiner exchange; the
    calibration pass emits bin-bounded (bin, n, sum_p, n_good) partials
    per batch, so nothing corpus-sized moves.  Scores are rounded to
    1e-6 BEFORE the sigmoid on both sides so engine and oracle bin
    identically."""
    from icrawler_ray.stages.textfns import (nb_fit, nb_score_batch,
                                             nb_train_partial)

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def train_partial(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch["source"].to_pylist())
        good = np.char.str_len(src.astype(str)) == NB_CURATED_PREFIX_LEN
        return nb_train_partial(batch, "text", good)

    parts = (ds.map_batches(train_partial, batch_format="pyarrow")
             .groupby("f").sum(["cg", "cb"]).to_pandas())
    parts = parts.rename(columns={"sum(cg)": "cg", "sum(cb)": "cb"})
    w, prior = nb_fit(parts)
    w_ref = ray.put(w)

    def calib_partial(batch: pa.Table) -> pa.Table:
        scored = nb_score_batch(batch, "text", "doc_id", ray.get(w_ref),
                                prior)
        s = np.round(np.asarray(scored["nb_score"]), 6)
        p = 1.0 / (1.0 + np.exp(-s))
        b = np.minimum(np.floor(p * 10.0), 9.0).astype(np.int64)
        src = np.asarray(batch["source"].to_pylist())
        good = np.char.str_len(src.astype(str)) == NB_CURATED_PREFIX_LEN
        df = pd.DataFrame({"bin": b, "p": p, "good": good})
        g = df.groupby("bin").agg(n=("p", "size"), sum_p=("p", "sum"),
                                  n_good=("good", "sum"))
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    parts = ds.map_batches(calib_partial,
                           batch_format="pyarrow").to_pandas()
    g = parts.groupby("bin", as_index=False).sum()
    out = pd.DataFrame({
        "bin": g["bin"].astype(np.int64),
        "n": g["n"].astype(np.int64),
        "mean_p": (g["sum_p"] / g["n"]).round(6),
        "frac_good": (g["n_good"] / g["n"]).round(6),
    })
    return out.sort_values("bin").reset_index(drop=True)


SQL_NB_CALIBRATION = f"""
WITH nbq AS ({SQL_NB_QUALITY}),
pb AS (SELECT nbq.doc_id,
              1.0 / (1.0 + exp(-nb_score)) AS p,
              length(d.source) = {NB_CURATED_PREFIX_LEN} AS good
       FROM nbq JOIN documents d USING (doc_id)),
bins AS (SELECT CAST(LEAST(FLOOR(p * 10.0), 9.0) AS BIGINT) AS bin, p, good
         FROM pb)
SELECT bin, CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(AVG(p), 6) AS mean_p,
       ROUND(AVG(CASE WHEN good THEN 1.0 ELSE 0.0 END), 6) AS frac_good
FROM bins GROUP BY bin ORDER BY bin
"""


# =====================================================================
# K. round-4 closing widening: multimodal packing, outer join, skew
#    audit, late-data watermark, CSV source round-trip
# =====================================================================

#: fixed token budget a media span occupies on the multimodal tape
#: (the vision-token placeholder convention)
MM_MEDIA_TOKENS = 64
#: multimodal training-sequence length
MM_SEQ_LEN = 512


def q_multimodal_pack(sf_dir: str):
    """Multimodal sequence packing over the interleaved span substrate
    (the input_hint shape, cf. q_interleaved_spans): each doc's cost on
    the training tape is its text tokens plus MM_MEDIA_TOKENS per media
    span.  Tape offsets come from the same distributed exclusive prefix
    sum as q_sequence_pack (sort is the only shuffle; the driver sees one
    integer per block); the per-sequence composition manifest (docs,
    text-vs-media token shares) is built with per-block partials and a
    seq_id-partitioned exact reduce — no stage holds more than the
    manifest itself."""
    from icrawler_ray.functions.seq import assign_global_cumsum

    P = 32
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def cost(df: pd.DataFrame) -> pd.DataFrame:
        n_tok = df["text"].str.count(" ").to_numpy(dtype=np.int64) + 1
        n_media = -(-n_tok // 5) // 2  # media span after every 2nd 5-token chunk
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "text_tokens": n_tok,
            "media_tokens": n_media * MM_MEDIA_TOKENS,
            "cost": n_tok + n_media * MM_MEDIA_TOKENS,
        })

    counted = ds.map_batches(cost, batch_format="pandas")
    packed = assign_global_cumsum(counted, ["doc_id"], "cost", col="tape_start")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df["seq_id"] = df["tape_start"].to_numpy() // MM_SEQ_LEN
        g = df.groupby("seq_id", as_index=False).agg(
            n_docs=("doc_id", "size"), text_tokens=("text_tokens", "sum"),
            media_tokens=("media_tokens", "sum"))
        g["part"] = (g["seq_id"] % P).astype(np.int32)
        return g

    def reduce_part(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("seq_id", as_index=False).agg(
            n_docs=("n_docs", "sum"), text_tokens=("text_tokens", "sum"),
            media_tokens=("media_tokens", "sum"))
        for c in ("seq_id", "n_docs", "text_tokens", "media_tokens"):
            out[c] = out[c].astype("int64")
        return out

    return (packed.map_batches(partial, batch_format="pandas")
            .groupby("part").map_groups(reduce_part, batch_format="pandas"))


SQL_MULTIMODAL_PACK = f"""
WITH t AS (
  SELECT doc_id,
         length(text) - length(replace(text, ' ', '')) + 1 AS n_tok
  FROM documents),
k AS (
  SELECT doc_id, n_tok AS text_tokens,
         (CAST(ceil(n_tok / 5.0) AS BIGINT) // 2) * {MM_MEDIA_TOKENS} AS media_tokens
  FROM t),
p AS (
  SELECT doc_id, text_tokens, media_tokens,
         COALESCE(SUM(text_tokens + media_tokens) OVER (ORDER BY doc_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS tape_start
  FROM k)
SELECT CAST(tape_start // {MM_SEQ_LEN} AS BIGINT) AS seq_id,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(text_tokens) AS BIGINT) AS text_tokens,
       CAST(SUM(media_tokens) AS BIGINT) AS media_tokens
FROM p GROUP BY seq_id
"""


def q_left_outer_orders(sf_dir: str):
    """Customer-preserving LEFT OUTER join: per-customer order count and
    revenue INCLUDING zero-order customers.  The fact side is pre-reduced
    to per-batch (custkey, n, rev) combiner partials; both sides then
    hash-partition on custkey and the outer merge runs vectorized within
    each partition — no broadcast (the preserved side is customer-sized,
    too big to broadcast at scale), and the only exchanges are
    key-partitioned."""
    P = 32
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def fact_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_custkey", as_index=False).agg(
            n_orders=("o_totalprice", "size"), revenue=("o_totalprice", "sum"))
        return pd.DataFrame({
            "part": (g["o_custkey"].to_numpy() % P).astype(np.int32),
            "key": g["o_custkey"].astype("int64"),
            "side": np.zeros(len(g), np.int8),
            "n_orders": g["n_orders"].astype("int64"),
            "revenue": g["revenue"].astype("float64"),
            "acctbal": np.zeros(len(g), np.float64),
        })

    def cust_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "part": (df["c_custkey"].to_numpy() % P).astype(np.int32),
            "key": df["c_custkey"].astype("int64"),
            "side": np.ones(len(df), np.int8),
            "n_orders": np.zeros(len(df), np.int64),
            "revenue": np.zeros(len(df), np.float64),
            "acctbal": df["c_acctbal"].astype("float64"),
        })

    u = orders.map_batches(fact_partial, batch_format="pandas").union(
        cust.map_batches(cust_rows, batch_format="pandas"))

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == 1]
        right = g[g["side"] == 0].groupby("key", as_index=False).agg(
            n_orders=("n_orders", "sum"), revenue=("revenue", "sum"))
        out = left[["key", "acctbal"]].merge(right, on="key", how="left")
        return pd.DataFrame({
            "c_custkey": out["key"].astype("int64"),
            "acctbal": out["acctbal"].round(2),
            "n_orders": out["n_orders"].fillna(0).astype("int64"),
            "revenue": out["revenue"].fillna(0.0).round(2),
        })

    return u.groupby("part").map_groups(merge, batch_format="pandas")


SQL_LEFT_OUTER_ORDERS = """
SELECT c_custkey, ROUND(c_acctbal, 2) AS acctbal,
       CAST(COUNT(o_custkey) AS BIGINT) AS n_orders,
       ROUND(COALESCE(SUM(o_totalprice), 0.0), 2) AS revenue
FROM customer LEFT JOIN orders ON o_custkey = c_custkey
GROUP BY c_custkey, c_acctbal
"""


#: allowed out-of-orderness before an event counts as late (watermark lag)
LATE_ALLOW_US = 1_800_000_000  # 30 minutes


def q_late_events(sf_dir: str):
    """Streaming-ingest late-data audit: treating event_id as arrival
    order, the watermark at each arrival is the max event-time over all
    EARLIER arrivals minus a 30-minute allowance; an event is late if its
    own timestamp is below that.  The running max is the distributed
    prefix-max scan (functions/seq.py::assign_global_running_max — sort
    is the only shuffle, the driver sees one integer per block); the
    per-type late counts reduce from tiny per-block partials."""
    from icrawler_ray.functions.seq import assign_global_running_max

    ds = _read(sf_dir, "events", ["event_id", "ts", "event_type"])

    def to_us(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"],
            "event_type": df["event_type"],
            "ts_us": df["ts"].astype("int64"),
        })

    marked = assign_global_running_max(
        ds.map_batches(to_us, batch_format="pandas"), ["event_id"], "ts_us", col="wm_before")

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        late = (df["wm_before"].to_numpy() - df["ts_us"].to_numpy()) > LATE_ALLOW_US
        g = pd.DataFrame({"event_type": df["event_type"], "late": late})
        out = g.groupby("event_type", as_index=False).agg(
            n_events=("late", "size"), n_late=("late", "sum"))
        return out

    parts = marked.map_batches(flag, batch_format="pandas").to_pandas()
    out = parts.groupby("event_type", as_index=False).sum()
    out["n_events"] = out["n_events"].astype("int64")
    out["n_late"] = out["n_late"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_LATE_EVENTS = f"""
WITH o AS (SELECT event_id, event_type, epoch_us(ts) AS ts_us FROM events),
w AS (SELECT event_type, ts_us,
             MAX(ts_us) OVER (ORDER BY event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm
      FROM o)
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(CASE WHEN wm - ts_us > {LATE_ALLOW_US} THEN 1 ELSE 0 END) AS BIGINT) AS n_late
FROM w GROUP BY event_type ORDER BY event_type
"""


def q_csv_roundtrip(sf_dir: str):
    """CSV source/sink parity: write the narrow documents projection as
    CSV shards (one file per block — the resumable layout), read it back
    with rd.read_csv, and roll up per-language counts from the re-read
    dataset.  Exercises the non-parquet ingest path end to end; the
    oracle aggregates the original table directly."""
    import shutil
    import tempfile

    out_dir = tempfile.mkdtemp(prefix="csvrt_", dir="/tmp")
    try:
        ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
        ds.write_csv(out_dir)
        back = rd.read_csv(out_dir)

        def partial(df: pd.DataFrame) -> pd.DataFrame:
            return df.groupby("lang", as_index=False).agg(
                n=("doc_id", "size"), sum_chars=("n_chars", "sum"))

        parts = back.map_batches(partial, batch_format="pandas").to_pandas()
        outp = parts.groupby("lang", as_index=False).sum()
        outp["n"] = outp["n"].astype("int64")
        outp["sum_chars"] = outp["sum_chars"].astype("int64")
        return outp.sort_values("lang").reset_index(drop=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


SQL_CSV_ROUNDTRIP = """
SELECT lang, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(n_chars) AS BIGINT) AS sum_chars
FROM documents GROUP BY lang ORDER BY lang
"""


#: label-propagation sweeps (unrolled identically in the SQL oracle)
LPA_ITERS = 3


def q_lpa_communities(sf_dir: str):
    """Community detection by synchronous label propagation over the
    derived link graph (Raghavan et al. 2007): LPA_ITERS sweeps, each
    node adopting the most frequent neighbor label (ties -> smallest).
    Broadcast-iterate shape shared with pagerank/cc_labels; the oracle
    unrolls the identical sweeps."""
    from icrawler_ray.stages.linkgraph import derive_edges, label_propagation

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()
    labels = label_propagation(derive_edges(docs, n), n, iters=LPA_ITERS)
    return pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64),
                         "community": labels})


def _lpa_iter_sql(prev: str, cur: str) -> str:
    return f"""
c_{cur} AS (
  SELECT u.dst AS node, lp.l AS lab, COUNT(*) AS c
  FROM und u JOIN {prev} lp ON lp.node = u.src
  GROUP BY u.dst, lp.l),
b_{cur} AS (
  SELECT node, lab FROM (
    SELECT node, lab,
           ROW_NUMBER() OVER (PARTITION BY node ORDER BY c DESC, lab) AS rn
    FROM c_{cur}) WHERE rn = 1),
{cur} AS (
  SELECT {prev}.node, COALESCE(b_{cur}.lab, {prev}.l) AS l
  FROM {prev} LEFT JOIN b_{cur} ON b_{cur}.node = {prev}.node
)"""


SQL_LPA_COMMUNITIES = f"""
WITH {_SQL_EDGES_CTE},
und AS MATERIALIZED (SELECT src, dst FROM edges UNION ALL SELECT dst AS src, src AS dst FROM edges),
l0 AS (SELECT d.doc_id AS node, d.doc_id AS l FROM documents d),
{",".join(_lpa_iter_sql(f"l{i}", f"l{i + 1}") for i in range(LPA_ITERS))}
SELECT node AS doc_id, CAST(l AS BIGINT) AS community
FROM l{LPA_ITERS} ORDER BY doc_id
"""


#: edit-verify prefix key length / max accepted distance
EDIT_PREFIX_LEN = 24
EDIT_MAX_DIST = 14


def q_edit_verify_pairs(sf_dir: str):
    """Typo-tolerant entity-resolution verify join: SNM candidate pairs
    (one sort by (n_chars, doc_id), window-3 predecessors, block-overlap
    tail handoff) verified by Levenshtein distance of the opening-24-char
    key — the verify rule when matches are typographic rather than
    token-set.  The DP kernel is vectorized across all pairs of a block
    (the scalar loop runs over the 24x24 grid, never over pairs)."""
    from icrawler_ray.stages.dedup import snm_edit_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])
    return snm_edit_pairs(ds, ["n_chars"], window=SNM_WINDOW,
                          prefix_len=EDIT_PREFIX_LEN, max_dist=EDIT_MAX_DIST)


SQL_EDIT_VERIFY_PAIRS = f"""
WITH r AS (SELECT doc_id,
                  ROW_NUMBER() OVER (ORDER BY n_chars, doc_id) AS rk
           FROM documents),
cand AS (SELECT x.doc_id AS a0, y.doc_id AS b0
         FROM r x JOIN r y ON y.rk > x.rk AND y.rk - x.rk < {SNM_WINDOW}),
d AS (SELECT LEAST(c.a0, c.b0) AS a, GREATEST(c.a0, c.b0) AS b,
             levenshtein(substr(da.text, 1, {EDIT_PREFIX_LEN}),
                         substr(db.text, 1, {EDIT_PREFIX_LEN})) AS dist
      FROM cand c
      JOIN documents da ON da.doc_id = c.a0
      JOIN documents db ON db.doc_id = c.b0)
SELECT a, b, CAST(dist AS BIGINT) AS dist FROM d
WHERE dist <= {EDIT_MAX_DIST} ORDER BY a, b
"""


def q_quantile_blend(sf_dir: str):
    """Ensemble quality blending: two raw signals (doc length; average
    token length) are each rank-normalized to a global percentile, then
    averaged — the FineWeb-style filter-blend step that makes signals on
    different scales commensurable before thresholding.  Signal 1 is
    value-bounded (histogram-mode percent_rank: combiner + broadcast
    CDF, zero shuffles); signal 2 is continuous (sort-mode: one global
    sort + metadata-only boundary stitch) — one query exercising both
    scale envelopes of stages/window.py, chained so no join is needed."""
    from icrawler_ray.stages.window import percent_rank_over

    ds = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def signals(df: pd.DataFrame) -> pd.DataFrame:
        n_tok = df["text"].str.count(" ").to_numpy(dtype=np.int64) + 1
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "g": np.zeros(len(df), np.int8),     # global window
            "n_chars": df["n_chars"].astype("int64"),
            "avg_tok": np.round(df["n_chars"].to_numpy(np.float64) / n_tok, 6),
        })

    sig = ds.map_batches(signals, batch_format="pandas")
    r1 = percent_rank_over(sig, "g", "n_chars", out_col="pr_len", mode="histogram")
    r2 = percent_rank_over(r1, "g", "avg_tok", out_col="pr_tok", mode="sort")

    def blend(df: pd.DataFrame) -> pd.DataFrame:
        # rank-SUM blend (same ordering as the mean, but the sum of two
        # 6-decimal values is exactly 6 decimals — no half-ulp re-round
        # to diverge between numpy half-even and SQL half-away rounding)
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "pr_len": df["pr_len"],
            "pr_tok": df["pr_tok"],
            "blend": df["pr_len"].to_numpy() + df["pr_tok"].to_numpy(),
        })

    return r2.map_batches(blend, batch_format="pandas").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


SQL_QUANTILE_BLEND = """
WITH s AS (
  SELECT doc_id, n_chars,
         ROUND(n_chars * 1.0 /
               (length(text) - length(replace(text, ' ', '')) + 1), 6) AS avg_tok
  FROM documents),
p AS (
  SELECT doc_id,
         ROUND(PERCENT_RANK() OVER (ORDER BY n_chars), 6) AS pr_len,
         ROUND(PERCENT_RANK() OVER (ORDER BY avg_tok), 6) AS pr_tok
  FROM s)
SELECT doc_id, pr_len, pr_tok,
       pr_len + pr_tok AS blend
FROM p ORDER BY doc_id
"""


def q_cumulative_users(sf_dir: str):
    """Running distinct-user growth curve (cumulative DAU): COUNT(DISTINCT
    user) up to each day, computed WITHOUT a distinct-over-window scan —
    each user contributes only at their MIN day (per-batch (user, min_day)
    combiner partials, user-partitioned exact min), then per-day new-user
    counts cumsum over the day-cardinality table (hundreds of rows).  The
    classic trick that turns a quadratic running-distinct into two linear
    passes."""
    P = 32
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"user_id": df["user_id"],
                          "day": df["ts"].dt.strftime("%Y-%m-%d")})
        out = g.groupby("user_id", as_index=False)["day"].min()
        out["part"] = (out["user_id"].to_numpy() % P).astype(np.int32)
        return out

    def day_counts(g: pd.DataFrame) -> pd.DataFrame:
        first = g.groupby("user_id", as_index=False)["day"].min()
        c = first.groupby("day", as_index=False).size().rename(columns={"size": "n"})
        return c

    parts = (ds.map_batches(partial, batch_format="pandas")
             .groupby("part").map_groups(day_counts, batch_format="pandas")
             .to_pandas())
    out = parts.groupby("day", as_index=False)["n"].sum().sort_values("day")
    out["new_users"] = out["n"].astype("int64")
    out["cum_users"] = out["n"].cumsum().astype("int64")
    return out[["day", "new_users", "cum_users"]].reset_index(drop=True)


SQL_CUMULATIVE_USERS = """
WITH m AS (SELECT user_id, MIN(strftime(ts, '%Y-%m-%d')) AS day
           FROM events GROUP BY user_id),
d AS (SELECT day, COUNT(*) AS new_users FROM m GROUP BY day)
SELECT day, CAST(new_users AS BIGINT) AS new_users,
       CAST(SUM(new_users) OVER (ORDER BY day) AS BIGINT) AS cum_users
FROM d ORDER BY day
"""


# =====================================================================
# K. round-5 additions: rule-based quality audit, distributed moments,
#    per-group winsorization, word-entropy filter, crawl budget
#    water-filling, link prediction, local clustering coefficient
# =====================================================================

def q_gopher_rules(sf_dir: str):
    """Gopher-style quality rule audit (Rae et al. 2021,
    arXiv:2112.11446 — public-paper heuristics; no reference
    counterpart): per-document boolean rule flags (word count, mean word
    length, alphabetic-word fraction, stopword presence,
    symbol-to-word ratio) reduced to per-language fail counts and a
    pass rate.  The batch kernel is pure vectorized pandas string ops
    (compiled-regex counts, no Python loop over rows); the shuffle moves
    one PARTIAL row per (lang, batch) — the combiner pattern, so a
    100 TB corpus exchanges kilobytes."""
    ds = _read(sf_dir, "documents", ["text", "lang"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df["text"]
        nc = t.str.len().to_numpy(dtype=np.float64)
        # split-on-single-space token count == n_spaces + 1, matching
        # DuckDB len(string_split(text, ' ')) exactly (empty tokens incl.)
        wc = (t.str.count(" ") + 1).to_numpy(dtype=np.float64)
        mwl = (nc - (wc - 1.0)) / wc
        # tokens containing an ASCII letter: the greedy [^ ]* runs cannot
        # cross a space, so each qualifying token yields exactly one match
        aw = t.str.count(r"[^ ]*[A-Za-z][^ ]*").to_numpy(dtype=np.float64)
        sw = t.str.count(r"(?:^| )(?:the|and|of|to|a)(?= |$)").to_numpy(
            dtype=np.float64)
        sym = (t.str.count("#") + t.str.count(r"\.\.\.")).to_numpy(
            dtype=np.float64)
        ok_wc = (wc >= 20) & (wc <= 80)
        ok_mwl = (mwl >= 4.0) & (mwl <= 4.8)
        ok_alpha = aw >= 0.8 * wc
        ok_stop = sw >= 2
        ok_sym = sym <= 0.1 * wc
        ok_all = ok_wc & ok_mwl & ok_alpha & ok_stop & ok_sym
        g = pd.DataFrame({
            "lang": df["lang"], "fail_wc": ~ok_wc, "fail_mwl": ~ok_mwl,
            "fail_alpha": ~ok_alpha, "fail_stop": ~ok_stop,
            "fail_sym": ~ok_sym, "n_pass": ok_all,
        }).groupby("lang", sort=False).agg(
            n_docs=("fail_wc", "size"), fail_wc=("fail_wc", "sum"),
            fail_mwl=("fail_mwl", "sum"), fail_alpha=("fail_alpha", "sum"),
            fail_stop=("fail_stop", "sum"), fail_sym=("fail_sym", "sum"),
            n_pass=("n_pass", "sum"))
        return g.reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby("lang", as_index=False).sum()
    out["pass_rate"] = (out["n_pass"] / out["n_docs"]).round(6)
    for c in ("n_docs", "fail_wc", "fail_mwl", "fail_alpha", "fail_stop",
              "fail_sym", "n_pass"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("lang").reset_index(drop=True)


SQL_GOPHER_RULES = """
WITH f AS (
  SELECT lang,
         length(text) AS nc,
         len(string_split(text, ' ')) AS wc,
         len(list_filter(string_split(text, ' '),
                         w -> regexp_matches(w, '[A-Za-z]'))) AS aw,
         len(list_filter(string_split(text, ' '),
                         w -> w IN ('the', 'and', 'of', 'to', 'a'))) AS sw,
         (length(text) - length(replace(text, '#', '')))
           + CAST(floor((length(text) - length(replace(text, '...', ''))) / 3)
                  AS BIGINT) AS sym
  FROM documents
), r AS (
  SELECT lang,
         (wc BETWEEN 20 AND 80) AS ok_wc,
         ((nc - (wc - 1)) / CAST(wc AS DOUBLE) BETWEEN 4.0 AND 4.8) AS ok_mwl,
         (aw >= 0.8 * wc) AS ok_alpha,
         (sw >= 2) AS ok_stop,
         (sym <= 0.1 * wc) AS ok_sym
  FROM f
)
SELECT lang,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(CASE WHEN NOT ok_wc THEN 1 ELSE 0 END) AS BIGINT) AS fail_wc,
       CAST(SUM(CASE WHEN NOT ok_mwl THEN 1 ELSE 0 END) AS BIGINT) AS fail_mwl,
       CAST(SUM(CASE WHEN NOT ok_alpha THEN 1 ELSE 0 END) AS BIGINT) AS fail_alpha,
       CAST(SUM(CASE WHEN NOT ok_stop THEN 1 ELSE 0 END) AS BIGINT) AS fail_stop,
       CAST(SUM(CASE WHEN NOT ok_sym THEN 1 ELSE 0 END) AS BIGINT) AS fail_sym,
       CAST(SUM(CASE WHEN ok_wc AND ok_mwl AND ok_alpha AND ok_stop AND ok_sym
                THEN 1 ELSE 0 END) AS BIGINT) AS n_pass,
       ROUND(SUM(CASE WHEN ok_wc AND ok_mwl AND ok_alpha AND ok_stop AND ok_sym
                 THEN 1 ELSE 0 END) / CAST(COUNT(*) AS DOUBLE), 6) AS pass_rate
FROM r GROUP BY lang ORDER BY lang
"""


def q_corr_len_ttr(sf_dir: str):
    """Distributed Pearson correlation between document length and
    type-token ratio (lexical diversity) via the classic 6-moment
    combiner (n, Σx, Σy, Σx², Σy², Σxy): each batch emits ONE partial
    row, the driver reduce is O(batches) — zero shuffles, the moment
    pattern every corpus-level statistic should use at 100 TB.  TTR per
    doc is computed with a C-speed explode + groupby nunique, no Python
    row loop."""
    ds = _read(sf_dir, "documents", ["text", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        s = df["text"].str.split(" ")
        wc = s.str.len().to_numpy(dtype=np.float64)
        ex = s.explode()
        uq = ex.groupby(level=0).nunique().to_numpy(dtype=np.float64)
        y = uq / wc
        x = df["n_chars"].to_numpy(dtype=np.float64)
        return pd.DataFrame({
            "n": [float(len(x))], "sx": [x.sum()], "sy": [y.sum()],
            "sxx": [(x * x).sum()], "syy": [(y * y).sum()],
            "sxy": [(x * y).sum()],
        })

    p = ds.map_batches(partial, batch_format="pandas").to_pandas().sum()
    n = p["n"]
    cov = p["sxy"] - p["sx"] * p["sy"] / n
    vx = p["sxx"] - p["sx"] * p["sx"] / n
    vy = p["syy"] - p["sy"] * p["sy"] / n
    r = float(cov / np.sqrt(vx * vy)) if vx > 0 and vy > 0 else 0.0
    return pd.DataFrame({"n_docs": [int(n)], "corr_len_ttr": [round(r, 6)]})


SQL_CORR_LEN_TTR = """
WITH f AS (
  SELECT n_chars,
         len(list_distinct(string_split(text, ' ')))
           / CAST(len(string_split(text, ' ')) AS DOUBLE) AS ttr
  FROM documents)
SELECT CAST(COUNT(*) AS BIGINT) AS n_docs,
       ROUND(corr(n_chars, ttr), 6) AS corr_len_ttr
FROM f
"""


def q_winsorize_lengths(sf_dir: str):
    """Per-language winsorized mean of document length (clip at the
    exact p05/p95 discrete quantiles) — outlier-robust corpus statistics
    from ONE (lang, value)-histogram combiner pass: quantiles, raw mean
    and winsorized mean all fall out of the merged histogram, so no
    second data pass and no sort.  Histogram size is bounded by distinct
    (lang, n_chars) pairs, not rows; for unbounded value domains the
    sort-mode sibling (percent_rank_by_lang's machinery) applies."""
    ds = _read(sf_dir, "documents", ["lang", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby(["lang", "n_chars"], sort=False).size()
                .rename("c").reset_index())

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    hist = parts.groupby(["lang", "n_chars"], as_index=False)["c"].sum()
    rows = []
    for lang, g in hist.groupby("lang"):
        g = g.sort_values("n_chars")
        vals = g["n_chars"].to_numpy(dtype=np.int64)
        c = g["c"].to_numpy(dtype=np.int64)
        cum = c.cumsum()
        n = int(cum[-1])
        # percentile_disc definition: smallest value with cume_dist >= q
        # (identical to q_length_quantiles / DuckDB quantile_disc)
        lo = int(vals[np.searchsorted(cum, int(np.ceil(0.05 * n)))])
        hi = int(vals[np.searchsorted(cum, int(np.ceil(0.95 * n)))])
        w = np.clip(vals, lo, hi)
        rows.append({
            "lang": lang, "lo": lo, "hi": hi,
            "mean_raw": round(float((vals * c).sum() / n), 6),
            "mean_winsor": round(float((w * c).sum() / n), 6),
        })
    return pd.DataFrame(rows).sort_values("lang").reset_index(drop=True)


SQL_WINSORIZE_LENGTHS = """
WITH q AS (SELECT lang,
                  quantile_disc(n_chars, 0.05) AS lo,
                  quantile_disc(n_chars, 0.95) AS hi,
                  ROUND(AVG(n_chars), 6) AS mean_raw
           FROM documents GROUP BY lang),
m AS (SELECT d.lang,
             ROUND(AVG(LEAST(GREATEST(d.n_chars, q.lo), q.hi)), 6) AS mean_winsor
      FROM documents d JOIN q ON q.lang = d.lang GROUP BY d.lang)
SELECT q.lang, CAST(q.lo AS BIGINT) AS lo, CAST(q.hi AS BIGINT) AS hi,
       q.mean_raw, m.mean_winsor
FROM q JOIN m ON m.lang = q.lang ORDER BY q.lang
"""


def q_word_entropy(sf_dir: str):
    """Per-document word-distribution Shannon entropy (base 2) — the
    repetition/quality signal that catches template and boilerplate
    docs — aggregated per language with a low-entropy count.  Per-batch
    kernel: explode + two C-speed groupbys, entropy via the
    log2(n) - Σc·log2(c)/n identity (integer counts, so the value is
    deterministic); per-lang combiner partials, tiny driver reduce."""
    ds = _read(sf_dir, "documents", ["text", "lang"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        s = df["text"].str.split(" ")
        n_tok = s.str.len().to_numpy(dtype=np.float64)
        ex = s.explode()
        cnt = ex.groupby([ex.index, ex]).size()
        c = cnt.to_numpy(dtype=np.float64)
        row = cnt.index.get_level_values(0)
        clogc = (pd.Series(c * np.log2(c), index=row)
                 .groupby(level=0).sum().to_numpy())
        h = np.log2(n_tok) - clogc / n_tok
        g = pd.DataFrame({"lang": df["lang"].to_numpy(), "h": h,
                          "low": h < 4.5})
        out = g.groupby("lang", sort=False).agg(
            n_docs=("h", "size"), sum_h=("h", "sum"), low=("low", "sum"))
        return out.reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby("lang", as_index=False).sum()
    out["mean_entropy"] = (out["sum_h"] / out["n_docs"]).round(6)
    out["n_docs"] = out["n_docs"].astype(np.int64)
    out["low_entropy"] = out["low"].astype(np.int64)
    return (out[["lang", "n_docs", "mean_entropy", "low_entropy"]]
            .sort_values("lang").reset_index(drop=True))


SQL_WORD_ENTROPY = """
WITH w AS (SELECT doc_id, lang, unnest(string_split(text, ' ')) AS word
           FROM documents),
e AS (SELECT doc_id, ANY_VALUE(lang) AS lang, entropy(word) AS h
      FROM w GROUP BY doc_id)
SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
       ROUND(AVG(h), 6) AS mean_entropy,
       CAST(SUM(CASE WHEN h < 4.5 THEN 1 ELSE 0 END) AS BIGINT) AS low_entropy
FROM e GROUP BY lang ORDER BY lang
"""


def q_adamic_adar(sf_dir: str):
    """Adamic-Adar link prediction over the derived link graph: top-100
    non-adjacent pairs by shared-neighbor score Σ 1/ln(deg(w)) — the
    speculative-prefetch ranking a crawl scheduler feeds from.  Hub
    intermediates above deg 64 excluded on BOTH sides (the standard
    skew cap; see stages/linkgraph.py::adamic_adar_pairs scale notes)."""
    from icrawler_ray.stages.linkgraph import adamic_adar_pairs, derive_edges

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()
    return adamic_adar_pairs(derive_edges(docs, n), n)


SQL_ADAMIC_ADAR = f"""
WITH {_SQL_EDGES_CTE},
und AS (SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b
        FROM edges),
adj AS (SELECT a AS w, b AS v FROM und UNION ALL SELECT b AS w, a AS v FROM und),
deg AS (SELECT w, COUNT(*) AS d FROM adj GROUP BY w),
ok AS (SELECT adj.w, adj.v, deg.d FROM adj JOIN deg ON deg.w = adj.w
       WHERE deg.d BETWEEN 2 AND 64),
p AS (SELECT x.v AS a, y.v AS b, x.d FROM ok x
      JOIN ok y ON y.w = x.w AND x.v < y.v),
s AS (SELECT a, b, ROUND(SUM(1.0 / LN(d)), 6) AS score FROM p GROUP BY a, b),
nw AS (SELECT s.a, s.b, s.score FROM s
       LEFT JOIN und ON und.a = s.a AND und.b = s.b WHERE und.a IS NULL)
SELECT CAST(a AS BIGINT) AS a, CAST(b AS BIGINT) AS b, score FROM nw
ORDER BY score DESC, a, b LIMIT 100
"""


def q_local_clustering(sf_dir: str):
    """Per-node local clustering coefficient 2·tri/(deg·(deg−1)) over
    the derived link graph — separates organic link neighborhoods from
    link-farm cliques; composes the oriented triangle counter with an
    undirected-degree combiner (stages/linkgraph.py::local_clustering)."""
    from icrawler_ray.stages.linkgraph import derive_edges, local_clustering

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()
    return local_clustering(derive_edges(docs, n), n)


SQL_LOCAL_CLUSTERING = f"""
WITH {_SQL_EDGES_CTE},
und AS (SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b
        FROM edges),
tri AS (
  SELECT e1.a AS x, e1.b AS y, e2.b AS z
  FROM und e1
  JOIN und e2 ON e2.a = e1.b
  JOIN und e3 ON e3.a = e1.a AND e3.b = e2.b
),
tn AS (SELECT x AS node FROM tri UNION ALL
       SELECT y FROM tri UNION ALL
       SELECT z FROM tri),
tc AS (SELECT node, COUNT(*) AS tri FROM tn GROUP BY node),
adj AS (SELECT a AS w FROM und UNION ALL SELECT b FROM und),
dg AS (SELECT w AS node, COUNT(*) AS d FROM adj GROUP BY w)
SELECT d.doc_id AS node,
       CAST(COALESCE(dg.d, 0) AS BIGINT) AS deg,
       CAST(COALESCE(tc.tri, 0) AS BIGINT) AS tri,
       ROUND(CASE WHEN COALESCE(dg.d, 0) >= 2
             THEN 2.0 * COALESCE(tc.tri, 0) / (dg.d * (dg.d - 1.0))
             ELSE 0.0 END, 6) AS coeff
FROM documents d
LEFT JOIN dg ON dg.node = d.doc_id
LEFT JOIN tc ON tc.node = d.doc_id
ORDER BY node
"""


def q_host_budget(sf_dir: str):
    """Exact water-filling fair-share allocation of a global crawl
    budget (10% of total demand) across per-host frontier demand — the
    politeness-budget planner: small hosts are fully satisfied, hosts
    above the water level are capped at the common level L chosen so
    allocations exactly exhaust the budget.

    Scale shape (rows never transit the driver): per-host demand via a
    bucketed combiner groupby; ONE distributed sort by (n, host); the
    exclusive running total and dense rank are metadata prefix-sum
    stitches (functions/seq.py — the driver sees one int per block);
    the pivot host i* (first unsatisfiable row) is a per-block partial
    min reduce; the final allocation pass is embarrassingly parallel
    with (B, H, i*, L) broadcast as four scalars."""
    from icrawler_ray.functions.seq import assign_global_seq_and_cumsum

    P = 32
    ds = _read(sf_dir, "events", ["user_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("user_id", sort=False).size().rename("n").reset_index()
        g["part"] = (g["user_id"].to_numpy() % P).astype(np.int32)
        return g

    # materialize: the per-host table feeds both the scalar (tot, H)
    # reduce and the ranked sort — without this the read+double-groupby
    # re-executes once per consumer
    hosts = (ds.map_batches(partial, batch_format="pandas")
             .groupby("part").map_groups(
                 lambda g: g.groupby("user_id", as_index=False)["n"].sum()
                 .rename(columns={"user_id": "host"}),
                 batch_format="pandas")).materialize()
    agg = hosts.map_batches(
        lambda df: pd.DataFrame({"tot": [int(df["n"].sum())],
                                 "H": [len(df)]}),
        batch_format="pandas").to_pandas().sum()
    tot, H = int(agg["tot"]), int(agg["H"])
    B = tot // 10

    ranked = assign_global_seq_and_cumsum(hosts, ["n", "host"], "n",
                                          cum_col="cumb", seq_col="i0")

    def pivot_partial(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy(dtype=np.int64)
        i0 = df["i0"].to_numpy(dtype=np.int64)
        cumb = df["cumb"].to_numpy(dtype=np.int64)
        unsat = n * (H - i0) > B - cumb
        if not unsat.any():
            return pd.DataFrame({"i0": [np.int64(-1)], "cumb": [np.int64(0)]})
        j = int(np.argmax(unsat))  # rows are in global sort order per block
        return pd.DataFrame({"i0": [i0[j]], "cumb": [cumb[j]]})

    piv = ranked.map_batches(pivot_partial, batch_format="pandas").to_pandas()
    piv = piv[piv["i0"] >= 0]
    if len(piv):
        row = piv.loc[piv["i0"].idxmin()]
        istar, level = int(row["i0"]), (B - int(row["cumb"])) / float(H - int(row["i0"]))
    else:
        istar, level = H, 0.0  # budget covers all demand

    def alloc(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy(dtype=np.int64)
        i0 = df["i0"].to_numpy(dtype=np.int64)
        a = np.where(i0 < istar, n.astype(np.float64), level)
        return pd.DataFrame({"host": df["host"].to_numpy(dtype=np.int64),
                             "n": n, "alloc": np.round(a, 6)})

    return ranked.map_batches(alloc, batch_format="pandas").sort("host")


SQL_HOST_BUDGET = """
WITH h AS (SELECT user_id AS host, COUNT(*) AS n FROM events GROUP BY user_id),
t AS (SELECT SUM(n) AS tot, COUNT(*) AS H FROM h),
b AS (SELECT CAST(floor(tot / 10) AS BIGINT) AS B, H FROM t),
s AS (SELECT host, n,
             ROW_NUMBER() OVER (ORDER BY n, host) AS i,
             COALESCE(SUM(n) OVER (ORDER BY n, host
                      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                      0) AS cumb
      FROM h),
u AS (SELECT MIN(i) AS istar FROM s, b WHERE n * (H - i + 1) > B - cumb),
l AS (SELECT u.istar,
             (SELECT (b.B - s.cumb) / CAST(b.H - s.i + 1 AS DOUBLE)
              FROM s, b WHERE s.i = u.istar) AS L
      FROM u)
SELECT CAST(s.host AS BIGINT) AS host, CAST(s.n AS BIGINT) AS n,
       ROUND(CASE WHEN l.istar IS NULL OR s.i < l.istar
             THEN CAST(s.n AS DOUBLE) ELSE l.L END, 6) AS alloc
FROM s, l ORDER BY host
"""


def q_containment_join(sf_dir: str):
    """Asymmetric shingle-set containment join (|A∩B|/|A| >= 0.8):
    ordered subset-document pairs that Jaccard-threshold LSH misses when
    |A| << |B| — prefix-filter candidates (rank shingles by ascending
    global df, probe the first |A|-ceil(0.8|A|)+1) with exact verify;
    see stages/dedup.py::containment_join_pairs for the bucketed scale
    shape and the positional recall guarantee that makes the engine's
    hash-ordered and the oracle's string-ordered prefixes equivalent."""
    from icrawler_ray.stages.dedup import containment_join_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return containment_join_pairs(ds, threshold=0.8)


#: Shingle CTEs identical to SQL_MINHASH_LSH_PAIRS (k=3, distinct
#: shingle strings as set identities).
SQL_CONTAINMENT_JOIN = """
WITH tok AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
shl AS (SELECT doc_id,
         CASE WHEN len(toks) <= 3 THEN [array_to_string(toks, ' ')]
              ELSE list_transform(range(1, len(toks) - 1),
                                  i -> array_to_string(list_slice(toks, i, i + 2), ' '))
         END AS sh FROM tok),
tk AS (SELECT DISTINCT doc_id, unnest(sh) AS s FROM shl),
sz AS (SELECT doc_id, COUNT(*) AS n FROM tk GROUP BY doc_id),
df AS (SELECT s, COUNT(*) AS d FROM tk GROUP BY s),
rk AS (SELECT tk.doc_id, tk.s, sz.n,
              ROW_NUMBER() OVER (PARTITION BY tk.doc_id
                                 ORDER BY df.d, tk.s) AS r
       FROM tk JOIN df ON df.s = tk.s JOIN sz ON sz.doc_id = tk.doc_id),
pref AS (SELECT doc_id, s, n FROM rk
         WHERE r <= n - CAST(ceil(0.8 * n) AS BIGINT) + 1),
cand AS (SELECT DISTINCT p.doc_id AS a, t.doc_id AS b, p.n AS na
         FROM pref p
         JOIN tk t ON t.s = p.s AND t.doc_id <> p.doc_id
         JOIN sz sb ON sb.doc_id = t.doc_id
         WHERE sb.n >= ceil(0.8 * p.n)),
iv AS (SELECT c.a, c.b, ANY_VALUE(c.na) AS na, COUNT(*) AS i
       FROM cand c
       JOIN tk ta ON ta.doc_id = c.a
       JOIN tk tb ON tb.doc_id = c.b AND tb.s = ta.s
       GROUP BY c.a, c.b)
SELECT CAST(a AS BIGINT) AS a, CAST(b AS BIGINT) AS b,
       ROUND(CAST(i AS DOUBLE) / na, 6) AS containment
FROM iv WHERE CAST(i AS DOUBLE) / na >= 0.8
ORDER BY a, b
"""


def q_bfs_depth(sf_dir: str):
    """multi-source BFS depth over the derived link graph (seeds: every
    97th doc; 4 fixed min-plus sweeps, -1 = unreached) — the "how deep
    from the seed list" crawl audit."""
    from icrawler_ray.stages.linkgraph import bfs_depths, derive_edges

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()
    seeds = np.arange(0, n, 97, dtype=np.int64)
    depth = bfs_depths(derive_edges(docs, n), n, seeds, iters=4)
    return pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64),
                         "depth": depth})


def _bfs_iter_sql(prev: str, cur: str) -> str:
    return f"""
{cur} AS (
  SELECT {prev}.node, LEAST({prev}.dep, COALESCE(c.m, {prev}.dep)) AS dep
  FROM {prev} LEFT JOIN (
    SELECT e.dst AS node, MIN(p.dep + 1) AS m
    FROM edges e JOIN {prev} p ON p.node = e.src GROUP BY e.dst
  ) c ON c.node = {prev}.node
)"""


SQL_BFS_DEPTH = f"""
WITH {_SQL_EDGES_CTE},
d0 AS (SELECT d.doc_id AS node,
              CAST(CASE WHEN d.doc_id % 97 = 0 THEN 0 ELSE nn.cnt + 1 END
                   AS BIGINT) AS dep
       FROM documents d, nn),
{",".join(_bfs_iter_sql(f"d{i}", f"d{i + 1}") for i in range(4))}
SELECT node AS doc_id,
       CAST(CASE WHEN dep >= nn.cnt + 1 THEN -1 ELSE dep END AS BIGINT) AS depth
FROM d4, nn ORDER BY doc_id
"""


_BM25_TERMS = ["spark", "merge", "stream", "slow"]


def q_bm25_topk(sf_dir: str):
    """Okapi BM25 top-10 for a fixed 4-term query (k1=1.2, b=0.75,
    Lucene ln(1+...) idf) — ranked retrieval over the corpus; one heavy
    text pass -> narrow tf table, combiner stats, per-batch top-k."""
    from icrawler_ray.stages.textfns import bm25_topk

    return bm25_topk(_read(sf_dir, "documents", ["doc_id", "text"]),
                     _BM25_TERMS, k=10)


def _sql_bm25(k: int = 10) -> str:
    tf_cols = ",\n       ".join(
        f"CAST(len(list_filter(string_split(text, ' '), x -> x = '{t}')) AS BIGINT) AS tf{j}"
        for j, t in enumerate(_BM25_TERMS))
    df_cols = ", ".join(
        f"CAST(COUNT(*) FILTER (tf{j} > 0) AS BIGINT) AS df{j}"
        for j in range(len(_BM25_TERMS)))
    term_sum = " + ".join(
        f"(ln(1.0 + (st.n - st.df{j} + 0.5) / (st.df{j} + 0.5))"
        f" * (t.tf{j} * (1.2 + 1.0))"
        f" / (t.tf{j} + 1.2 * (1.0 - 0.75 + 0.75 * (t.dl / st.avgdl))))"
        for j in range(len(_BM25_TERMS)))
    return f"""
WITH toks AS (
  SELECT doc_id,
       CAST(len(string_split(text, ' ')) AS BIGINT) AS dl,
       {tf_cols}
  FROM documents),
st AS (SELECT COUNT(*) AS n, CAST(SUM(dl) AS DOUBLE) / COUNT(*) AS avgdl,
              {df_cols}
       FROM toks),
sc AS (SELECT t.doc_id, {term_sum} AS score FROM toks t, st)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id) AS BIGINT) AS rank,
       doc_id, ROUND(score, 6) AS score
FROM sc ORDER BY score DESC, doc_id LIMIT {k}
"""


def q_range_search(sf_dir: str):
    """cosine radius search (ALL neighbours with sim >= 0.25 of the 3
    lowest-vec_id queries) — the full-ball dual of knn_bruteforce;
    embarrassingly streaming, output-bounded by the threshold."""
    from icrawler_ray.stages.similarity import range_search

    head = _read(sf_dir, "embeddings", ["vec_id", "embedding"]) \
        .sort("vec_id").limit(3).to_pandas()
    queries = np.asarray(head["embedding"].tolist(), dtype=np.float64)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return range_search(ds, queries, threshold=0.25,
                        query_ids=head["vec_id"].to_numpy())


SQL_RANGE_SEARCH = """
WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings
           ORDER BY vec_id LIMIT 3)
SELECT q.query_id, e.vec_id,
       ROUND(list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                    CAST(e.embedding AS DOUBLE[])), 6) AS sim
FROM q CROSS JOIN embeddings e
WHERE e.vec_id <> q.query_id
  AND list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                             CAST(e.embedding AS DOUBLE[])) >= 0.25
ORDER BY query_id, vec_id
"""


def q_jsonl_roundtrip(sf_dir: str):
    """JSONL source/sink parity: write the narrow documents projection
    as JSONL shards (write_json, one file per block — the resumable
    layout and the lingua franca of training-data interchange), read it
    back with rd.read_json, and roll up per-source counts from the
    re-read dataset.  Exercises the JSON ingest path end to end; the
    oracle aggregates the original table directly."""
    import shutil
    import tempfile

    out_dir = tempfile.mkdtemp(prefix="jsonrt_", dir="/tmp")
    try:
        ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])
        ds.write_json(out_dir)
        back = rd.read_json(out_dir)

        def partial(df: pd.DataFrame) -> pd.DataFrame:
            return df.groupby("source", as_index=False).agg(
                n=("doc_id", "size"), max_chars=("n_chars", "max"))

        parts = back.map_batches(partial, batch_format="pandas").to_pandas()
        outp = parts.groupby("source", as_index=False).agg(
            n=("n", "sum"), max_chars=("max_chars", "max"))
        outp["n"] = outp["n"].astype("int64")
        outp["max_chars"] = outp["max_chars"].astype("int64")
        return outp.sort_values("source").reset_index(drop=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


SQL_JSONL_ROUNDTRIP = """
SELECT source, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(MAX(n_chars) AS BIGINT) AS max_chars
FROM documents GROUP BY source ORDER BY source
"""


def q_harmonic_centrality(sf_dir: str):
    """sampled-seed harmonic centrality over the derived link graph
    (seeds: every 211th doc; hc(v) = sum of 1/d(s,v) over finite
    nonzero seed depths within 4 sweeps), top-50 by (hc, node)."""
    from icrawler_ray.stages.linkgraph import derive_edges, harmonic_centrality

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()
    seeds = np.arange(0, n, 211, dtype=np.int64)
    out = harmonic_centrality(derive_edges(docs, n), n, seeds,
                              iters=4, topk=50)
    return out.rename(columns={"node": "doc_id"})


def _hc_iter_sql(prev: str, cur: str) -> str:
    return f"""
{cur} AS (
  SELECT {prev}.seed, {prev}.node,
         LEAST({prev}.dep, COALESCE(c.m, {prev}.dep)) AS dep
  FROM {prev} LEFT JOIN (
    SELECT p.seed, e.dst AS node, MIN(p.dep + 1) AS m
    FROM edges e JOIN {prev} p ON p.node = e.src GROUP BY p.seed, e.dst
  ) c ON c.seed = {prev}.seed AND c.node = {prev}.node
)"""


SQL_HARMONIC_CENTRALITY = f"""
WITH {_SQL_EDGES_CTE},
seeds AS (SELECT doc_id AS seed FROM documents WHERE doc_id % 211 = 0),
h0 AS (SELECT s.seed, d.doc_id AS node,
              CAST(CASE WHEN d.doc_id = s.seed THEN 0 ELSE nn.cnt + 1 END
                   AS BIGINT) AS dep
       FROM documents d CROSS JOIN seeds s, nn),
{",".join(_hc_iter_sql(f"h{i}", f"h{i + 1}") for i in range(4))},
fin AS (SELECT node, ROUND(SUM(1.0 / dep), 6) AS hc,
               CAST(COUNT(*) AS BIGINT) AS n_reached
        FROM h4, nn WHERE dep > 0 AND dep < nn.cnt + 1 GROUP BY node)
SELECT CAST(row_number() OVER (ORDER BY hc DESC, node) AS BIGINT) AS rank,
       node AS doc_id, hc, n_reached
FROM fin ORDER BY hc DESC, node LIMIT 50
"""


def q_random_walks(sf_dir: str):
    """deterministic hash-driven 4-step random walks over the derived
    link graph (walkers: every 53rd doc; next hop = hash(walker, step,
    node) % outdeg over dst-sorted distinct neighbours; halt at sinks)."""
    from icrawler_ray.stages.linkgraph import derive_edges, random_walks

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()
    walkers = np.arange(0, n, 53, dtype=np.int64)
    return random_walks(derive_edges(docs, n), walkers, steps=4)


def _walk_iter_sql(t: int) -> str:
    return f"""
w{t} AS (
  SELECT w.walker, a.dst AS node
  FROM w{t - 1} w JOIN adj a
    ON a.src = w.node
   AND a.j = ((w.walker % 997) * 8191 + {t} * 131071
              + (w.node % 9973) * 131) % a.deg
)"""


SQL_RANDOM_WALKS = f"""
WITH {_SQL_EDGES_CTE},
adj AS (SELECT src, dst,
               ROW_NUMBER() OVER (PARTITION BY src ORDER BY dst) - 1 AS j,
               COUNT(*) OVER (PARTITION BY src) AS deg
        FROM (SELECT DISTINCT src, dst FROM edges)),
w0 AS (SELECT doc_id AS walker, doc_id AS node FROM documents
       WHERE doc_id % 53 = 0),
{",".join(_walk_iter_sql(t) for t in range(1, 5))}
SELECT walker, step, node FROM (
  SELECT walker, CAST(0 AS BIGINT) AS step, node FROM w0
  UNION ALL SELECT walker, 1, node FROM w1
  UNION ALL SELECT walker, 2, node FROM w2
  UNION ALL SELECT walker, 3, node FROM w3
  UNION ALL SELECT walker, 4, node FROM w4
) ORDER BY walker, step
"""


_KCENTER_K = 8


def q_coreset_kcenter(sf_dir: str):
    """k-center greedy (farthest-point) diversity coreset over the
    embeddings table: 8 centers under cosine distance, 6-dp-rounded
    min-distances with lowest-id tie-breaks so the greedy trajectory is
    SQL-replayable."""
    from icrawler_ray.stages.clustering import kcenter_coreset

    return kcenter_coreset(_read(sf_dir, "embeddings",
                                 ["vec_id", "embedding"]), k=_KCENTER_K)


def _sql_kcenter() -> str:
    parts = ["sel1 AS (SELECT CAST(1 AS BIGINT) AS rank, "
             "CAST(MIN(vec_id) AS BIGINT) AS vec_id, 0.0 AS dist "
             "FROM embeddings)",
             "acc1 AS (SELECT * FROM sel1)"]
    for i in range(2, _KCENTER_K + 1):
        parts.append(f"""
m{i} AS (
  SELECT e.vec_id,
         ROUND(MIN(1.0 - list_cosine_similarity(
             CAST(e.embedding AS DOUBLE[]),
             CAST(c.embedding AS DOUBLE[]))), 6) AS md
  FROM embeddings e
  CROSS JOIN (SELECT emb.embedding FROM acc{i - 1} s
              JOIN embeddings emb ON emb.vec_id = s.vec_id) c
  GROUP BY e.vec_id
)""")
        parts.append(f"""
sel{i} AS (
  SELECT CAST({i} AS BIGINT) AS rank, m.vec_id, m.md AS dist
  FROM m{i} m
  WHERE m.vec_id NOT IN (SELECT vec_id FROM acc{i - 1})
  ORDER BY m.md DESC, m.vec_id LIMIT 1
)""")
        parts.append(f"acc{i} AS (SELECT * FROM acc{i - 1} "
                     f"UNION ALL SELECT * FROM sel{i})")
    return ("WITH " + ",".join(parts)
            + f"\nSELECT rank, vec_id, ROUND(dist, 6) AS dist "
              f"FROM acc{_KCENTER_K} ORDER BY rank")


_CHUNK_W, _CHUNK_S = 64, 48


def q_chunk_overlap(sf_dir: str):
    """RAG-style overlapping chunk explode: every 17th doc's words split
    into 64-word windows at stride 48 (16-word overlap); each chunk
    emits (doc_id, chunk_id, n_words, md5 fingerprint).  One map_batches
    pass, no shuffle — the classic retrieval-index / long-doc-training
    preprocessing step; the md5 pins the exact chunk text against the
    oracle without shipping it."""
    import hashlib

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        sel = batch.filter(pa.array(ids % 17 == 0))
        out = {"doc_id": [], "chunk_id": [], "n_words": [], "fp": []}
        for did, text in zip(sel["doc_id"].to_pylist(),
                             sel["text"].to_pylist()):
            words = text.split(" ")
            for ci, st in enumerate(range(0, len(words), _CHUNK_S)):
                cw = words[st:st + _CHUNK_W]
                out["doc_id"].append(did)
                out["chunk_id"].append(ci)
                out["n_words"].append(len(cw))
                out["fp"].append(
                    hashlib.md5(" ".join(cw).encode()).hexdigest())
        return pa.table({
            "doc_id": pa.array(out["doc_id"], type=pa.int64()),
            "chunk_id": pa.array(out["chunk_id"], type=pa.int64()),
            "n_words": pa.array(out["n_words"], type=pa.int64()),
            "fp": pa.array(out["fp"], type=pa.string()),
        })

    out = ds.map_batches(explode, batch_format="pyarrow").to_pandas()
    return out.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)


SQL_CHUNK_OVERLAP = f"""
WITH sel AS (SELECT doc_id, string_split(text, ' ') AS w
             FROM documents WHERE doc_id % 17 = 0),
ix AS (SELECT doc_id, w, unnest(generate_series(
           0, CAST(floor((len(w) - 1) / {_CHUNK_S}) AS BIGINT))) AS i
       FROM sel),
c AS (SELECT doc_id, i AS chunk_id,
             list_slice(w, i * {_CHUNK_S} + 1,
                        i * {_CHUNK_S} + {_CHUNK_W}) AS cw
      FROM ix)
SELECT doc_id, CAST(chunk_id AS BIGINT) AS chunk_id,
       CAST(len(cw) AS BIGINT) AS n_words,
       md5(array_to_string(cw, ' ')) AS fp
FROM c ORDER BY doc_id, chunk_id
"""


def q_ppr_seeds(sf_dir: str):
    """4-iteration personalized PageRank (restart alpha=0.15 to every
    211th doc) over the derived link graph — seed-anchored relevance
    propagation for corpus expansion; returns the full score vector."""
    from icrawler_ray.stages.linkgraph import derive_edges, personalized_pagerank

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()
    seeds = np.arange(0, n, 211, dtype=np.int64)
    p = personalized_pagerank(derive_edges(docs, n), n, seeds,
                              iters=4, alpha=0.15)
    return pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64),
                         "ppr": pd.Series(p).round(6)})


def _ppr_iter_sql(prev: str, cur: str) -> str:
    return f"""
{cur} AS (
  SELECT b.node, b.base + 0.85e0 * COALESCE(c.s, 0e0) AS r
  FROM base b LEFT JOIN (
    SELECT e.dst AS node, SUM(rp.r / od.deg) AS s
    FROM edges e JOIN od ON od.src = e.src JOIN {prev} rp ON rp.node = e.src
    GROUP BY e.dst
  ) c ON c.node = b.node
)"""


SQL_PPR_SEEDS = f"""
WITH {_SQL_EDGES_CTE},
od AS MATERIALIZED (SELECT src, COUNT(*) AS deg FROM edges GROUP BY src),
ns AS (SELECT COUNT(*) AS cnt FROM documents WHERE doc_id % 211 = 0),
base AS (SELECT d.doc_id AS node,
                CASE WHEN d.doc_id % 211 = 0 THEN 0.15e0 / ns.cnt
                     ELSE 0e0 END AS base
         FROM documents d, ns),
r0 AS (SELECT d.doc_id AS node,
              CASE WHEN d.doc_id % 211 = 0 THEN 1e0 / ns.cnt
                   ELSE 0e0 END AS r
       FROM documents d, ns),
{",".join(_ppr_iter_sql(f"r{i}", f"r{i + 1}") for i in range(4))}
SELECT node AS doc_id, ROUND(r, 6) AS ppr FROM r4 ORDER BY doc_id
"""


def q_source_overlap(sf_dir: str):
    """Cross-source contamination matrix: for every source pair
    (src_a < src_b), the number of doc pairs sharing a leading-prefix
    fingerprint (md5 of the first 8 words — the boilerplate/near-dup
    key; exact-text md5 finds nothing in this corpus) — the audit that
    tells you which corpus slices leak into each other before mixing.
    Scale shape: one fingerprint pass, then ONLY (fp, source, count)
    identities ride the groupby exchange (never text); per-fp groups
    emit cross-source count products (zero pair expansion), reduced by
    a tiny source-pair groupby."""
    import hashlib

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def fps(batch: pa.Table) -> pa.Table:
        h = [hashlib.md5(" ".join(t.split(" ")[:8]).encode()).hexdigest()
             for t in batch["text"].to_pylist()]
        return pa.table({"fp": pa.array(h, type=pa.string()),
                         "source": batch["source"]})

    def partial_counts(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["fp", "source"], as_index=False).size()                  .rename(columns={"size": "n"})

    def cross_products(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("source")["n"].sum()
        if len(c) < 2:
            return _EMPTY_OVERLAP.copy()
        srcs = c.index.to_numpy()
        n = c.to_numpy(dtype=np.int64)
        ii, jj = np.triu_indices(len(srcs), k=1)
        return pd.DataFrame({"src_a": srcs[ii], "src_b": srcs[jj],
                             "n_pairs": n[ii] * n[jj]})

    _EMPTY_OVERLAP = pd.DataFrame({
        "src_a": pd.Series([], dtype="string"),
        "src_b": pd.Series([], dtype="string"),
        "n_pairs": pd.Series([], dtype="int64")})
    pairs = (ds.map_batches(fps, batch_format="pyarrow")
             .map_batches(partial_counts, batch_format="pandas")
             .groupby("fp").map_groups(cross_products, batch_format="pandas")
             .to_pandas())
    if not len(pairs):
        return pd.DataFrame({"src_a": pd.Series([], dtype="string"),
                             "src_b": pd.Series([], dtype="string"),
                             "n_pairs": pd.Series([], dtype="int64")})
    out = pairs.groupby(["src_a", "src_b"], as_index=False)["n_pairs"].sum()
    out["n_pairs"] = out["n_pairs"].astype("int64")
    return out.sort_values(["src_a", "src_b"]).reset_index(drop=True)


SQL_SOURCE_OVERLAP = """
WITH f AS (SELECT md5(array_to_string(
               list_slice(string_split(text, ' '), 1, 8), ' ')) AS fp,
               source FROM documents),
c AS (SELECT fp, source, COUNT(*) AS n FROM f GROUP BY fp, source)
SELECT a.source AS src_a, b.source AS src_b,
       CAST(SUM(a.n * b.n) AS BIGINT) AS n_pairs
FROM c a JOIN c b ON a.fp = b.fp AND a.source < b.source
GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_token_budget(sf_dir: str):
    """Token-budget pruning audit: per source, keep docs in descending
    (token count, doc_id asc) order while the running token total stays
    within a budget of floor(50% of the source's tokens); report how
    many docs and tokens survive.  The whole answer comes from ONE
    (source, tokens)-histogram combiner pass — the boundary rule
    (floor(remaining/v) docs at the crossing token value) needs counts,
    never identities, so nothing doc-sized ever moves."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        df["tok"] = df["text"].str.count(" ") + 1
        return df.groupby(["source", "tok"], as_index=False).size()                  .rename(columns={"size": "n"})

    parts = ds.map_batches(hist, batch_format="pandas").to_pandas()
    h = parts.groupby(["source", "tok"], as_index=False)["n"].sum()
    rows = []
    for src, g in h.groupby("source"):
        g = g.sort_values("tok", ascending=False)
        v = g["tok"].to_numpy(dtype=np.int64)
        n = g["n"].to_numpy(dtype=np.int64)
        total = int((v * n).sum())
        budget = total // 2
        acc_tok = acc_n = 0
        for vi, ni in zip(v, n):
            s = int(vi) * int(ni)
            if acc_tok + s <= budget:
                acc_tok += s
                acc_n += int(ni)
            else:
                m = (budget - acc_tok) // int(vi)
                acc_tok += m * int(vi)
                acc_n += m
                break
        rows.append((src, budget, acc_n, acc_tok))
    return pd.DataFrame(rows, columns=["source", "budget", "n_kept",
                                       "tok_kept"]).sort_values(
        "source").reset_index(drop=True)


SQL_TOKEN_BUDGET = """
WITH t AS (SELECT doc_id, source,
                  length(text) - length(replace(text, ' ', '')) + 1 AS tok
           FROM documents),
b AS (SELECT source, CAST(floor(0.5 * SUM(tok)) AS BIGINT) AS budget
      FROM t GROUP BY source),
r AS (SELECT source, tok,
             SUM(tok) OVER (PARTITION BY source
                            ORDER BY tok DESC, doc_id
                            ROWS UNBOUNDED PRECEDING) AS cum
      FROM t)
SELECT r.source, b.budget, CAST(COUNT(*) AS BIGINT) AS n_kept,
       CAST(SUM(r.tok) AS BIGINT) AS tok_kept
FROM r JOIN b USING (source) WHERE r.cum <= b.budget
GROUP BY r.source, b.budget ORDER BY r.source
"""


def q_redirect_resolve(sf_dir: str):
    """Frontier redirect flattening: resolve every redirecting URL to the
    END of its redirect chain (plus hop count) via pointer doubling —
    O(log L) hash-partitioned exchanges, never a per-row walk and never a
    broadcast mapping (stages/linkgraph.py::resolve_redirects; the
    reference follows redirects per-request inside each worker thread,
    downloader.py:150, with no corpus-level view).  Chains synthesized
    from doc_id arithmetic so the oracle can replay the same doubling as
    four unrolled LEFT JOINs."""
    from icrawler_ray.stages.linkgraph import resolve_redirects

    ds = _read(sf_dir, "documents", ["doc_id"])

    def edges(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].to_numpy(dtype=np.int64)
        d = d[d % 10 != 0]
        return pd.DataFrame({"src": d, "dst": d - 1})

    out = resolve_redirects(
        ds.map_batches(edges, batch_format="pandas")).to_pandas()
    out = out.rename(columns={"src": "url_id", "dst": "resolved"})
    return out.sort_values("url_id").reset_index(drop=True)


SQL_REDIRECT_RESOLVE = """
WITH e AS (SELECT doc_id AS src, doc_id - 1 AS dst, CAST(1 AS BIGINT) AS hops
           FROM documents WHERE doc_id % 10 <> 0),
r1 AS (SELECT a.src, COALESCE(b.dst, a.dst) AS dst,
              a.hops + COALESCE(b.hops, 0) AS hops
       FROM e a LEFT JOIN e b ON a.dst = b.src),
r2 AS (SELECT a.src, COALESCE(b.dst, a.dst) AS dst,
              a.hops + COALESCE(b.hops, 0) AS hops
       FROM r1 a LEFT JOIN r1 b ON a.dst = b.src),
r3 AS (SELECT a.src, COALESCE(b.dst, a.dst) AS dst,
              a.hops + COALESCE(b.hops, 0) AS hops
       FROM r2 a LEFT JOIN r2 b ON a.dst = b.src),
r4 AS (SELECT a.src, COALESCE(b.dst, a.dst) AS dst,
              a.hops + COALESCE(b.hops, 0) AS hops
       FROM r3 a LEFT JOIN r3 b ON a.dst = b.src)
SELECT src AS url_id, dst AS resolved, hops FROM r4 ORDER BY url_id
"""


def q_recrawl_schedule(sf_dir: str):
    """Recrawl scheduling audit (Cho & Garcia-Molina 2003): per-URL
    change-rate estimate lambda = -ln((n - k + 0.5)/(n + 0.5)) from k
    observed changes over n visits (the bias-corrected MLE), bucketed
    into hot/warm/cold tiers by fixed lambda thresholds; per (source,
    tier) doc counts and mean lambda.  ONE combiner pass — per-batch
    (source, tier, n, sum_lambda) partials, tiny final reduce; lambda is
    rounded to 6 dp BEFORE summing on both sides so the float64 partial
    order can't blur the hash."""
    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].to_numpy(dtype=np.int64)
        n = 4 + (d % 5)
        k = (d * 7) % (n + 1)
        lam = np.round(-np.log((n - k + 0.5) / (n + 0.5)), 6)
        tier = np.where(lam >= 0.6931, "hot",
                        np.where(lam >= 0.2, "warm", "cold"))
        g = pd.DataFrame({"source": df["source"], "tier": tier, "lam": lam})
        out = g.groupby(["source", "tier"], as_index=False).agg(
            n=("lam", "size"), s=("lam", "sum"))
        return out

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    agg = parts.groupby(["source", "tier"], as_index=False).agg(
        n=("n", "sum"), s=("s", "sum"))
    agg["n_docs"] = agg["n"].astype("int64")
    agg["mean_lambda"] = (agg["s"] / agg["n"]).round(6)
    return agg[["source", "tier", "n_docs", "mean_lambda"]].sort_values(
        ["source", "tier"]).reset_index(drop=True)


SQL_RECRAWL_SCHEDULE = """
WITH v AS (SELECT source, 4 + (doc_id % 5) AS n,
                  (doc_id * 7) % (4 + (doc_id % 5) + 1) AS k
           FROM documents),
l AS (SELECT source, ROUND(-ln((n - k + 0.5) / (n + 0.5)), 6) AS lam FROM v),
t AS (SELECT source,
             CASE WHEN lam >= 0.6931 THEN 'hot'
                  WHEN lam >= 0.2 THEN 'warm' ELSE 'cold' END AS tier, lam
      FROM l)
SELECT source, tier, CAST(COUNT(*) AS BIGINT) AS n_docs,
       ROUND(SUM(lam) / COUNT(*), 6) AS mean_lambda
FROM t GROUP BY source, tier ORDER BY source, tier
"""


def _url_template_counts(sf_dir: str) -> pd.DataFrame:
    """Shared combiner for url_templates / trap_audit: synthesize a URL
    path per event (three deterministic shapes), reduce digit runs to
    'N' (the classic URL-template normalization), and return exact
    (host, template, n_urls) counts — per-batch partials, tiny final
    reduce, nothing event-sized past the first exchange."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        e = df["event_id"].to_numpy(dtype=np.int64)
        host = "h" + (df["user_id"] % 40).astype(str)
        m = e % 3
        path = pd.Series(
            np.where(m == 0, "/archive/" + pd.Series(e % 12).astype(str),
                     np.where(m == 1, "/tag/" + df["event_type"].astype(str),
                              "/post/" + pd.Series(e).astype(str))),
            index=df.index, dtype="string")
        tmpl = path.str.replace(r"[0-9]+", "N", regex=True)
        g = pd.DataFrame({"host": host, "template": tmpl.astype(object)})
        return g.groupby(["host", "template"], as_index=False).size() \
            .rename(columns={"size": "n"})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby(["host", "template"], as_index=False)["n"].sum()
    out["n_urls"] = out["n"].astype("int64")
    return out[["host", "template", "n_urls"]]


def q_url_templates(sf_dir: str):
    """URL-template mining over the synthesized event URL stream: digit
    runs collapse to 'N', exact counts per (host, template) — the
    frontier-side audit a crawler runs to spot parameter explosions.
    Combiner-only: see _url_template_counts."""
    return _url_template_counts(sf_dir).sort_values(
        ["host", "template"]).reset_index(drop=True)


SQL_URL_TEMPLATES = """
WITH u AS (SELECT 'h' || CAST(user_id % 40 AS VARCHAR) AS host,
  CASE WHEN event_id % 3 = 0 THEN '/archive/' || CAST(event_id % 12 AS VARCHAR)
       WHEN event_id % 3 = 1 THEN '/tag/' || event_type
       ELSE '/post/' || CAST(event_id AS VARCHAR) END AS path
  FROM events)
SELECT host, regexp_replace(path, '[0-9]+', 'N', 'g') AS template,
       CAST(COUNT(*) AS BIGINT) AS n_urls
FROM u GROUP BY host, template ORDER BY host, template
"""


def q_trap_audit(sf_dir: str):
    """Crawl-trap audit: hosts whose URL count vastly exceeds their
    distinct-template count (calendar pages, session-id echoes —
    the pathology that sinks naive frontiers).  Rolls the
    _url_template_counts combiner output up to per-host (n_urls,
    n_templates, ratio, trap flag) — everything past the one exchange is
    template-cardinality-sized."""
    t = _url_template_counts(sf_dir)
    g = t.groupby("host").agg(n_urls=("n_urls", "sum"),
                              n_templates=("template", "nunique"))
    g["n_urls"] = g["n_urls"].astype("int64")
    g["n_templates"] = g["n_templates"].astype("int64")
    g["ratio"] = (g["n_urls"] / g["n_templates"]).round(6)
    g["trap"] = (g["ratio"] > 60.0).astype("int64")
    return g.reset_index().sort_values("host").reset_index(drop=True)


SQL_TRAP_AUDIT = """
WITH u AS (SELECT 'h' || CAST(user_id % 40 AS VARCHAR) AS host,
  regexp_replace(
    CASE WHEN event_id % 3 = 0 THEN '/archive/' || CAST(event_id % 12 AS VARCHAR)
         WHEN event_id % 3 = 1 THEN '/tag/' || event_type
         ELSE '/post/' || CAST(event_id AS VARCHAR) END,
    '[0-9]+', 'N', 'g') AS template
  FROM events)
SELECT host, CAST(COUNT(*) AS BIGINT) AS n_urls,
       CAST(COUNT(DISTINCT template) AS BIGINT) AS n_templates,
       ROUND(COUNT(*) * 1.0 / COUNT(DISTINCT template), 6) AS ratio,
       CAST(CASE WHEN COUNT(*) * 1.0 / COUNT(DISTINCT template) > 60.0
            THEN 1 ELSE 0 END AS BIGINT) AS trap
FROM u GROUP BY host ORDER BY host
"""


def q_column_profile(sf_dir: str):
    """Data-quality column profiling of the events table: per column the
    row count, null count, EXACT distinct count, and numeric min/max
    (timestamps as epoch micros; strings get NULL min/max).  Shape:
    per-batch (col, stat) partials for n/null/min/max plus per-batch
    DEDUPED (col, value) identities for the distinct count — the only
    exchange is sized by the sum of per-block distincts, never by rows."""
    cols = ["event_id", "ts", "user_id", "event_type", "value"]
    numeric = {"event_id", "ts", "user_id", "value"}
    ds = _read(sf_dir, "events", cols)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in cols:
            s = df[c]
            nn = int(s.isna().sum())
            if c == "ts":
                v = s.astype("int64")
            else:
                v = s
            if c in numeric and len(s) > nn:
                mn, mx = float(v.min()), float(v.max())
            else:
                mn = mx = np.nan
            rows.append((c, len(s), nn, mn, mx))
        return pd.DataFrame(rows, columns=["col", "n", "nn", "mn", "mx"])

    def ident(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for c in cols:
            v = df[c]
            if c == "ts":
                v = v.astype("int64")
            u = v.dropna().astype(str).unique()
            frames.append(pd.DataFrame({"col": c, "v": u}))
        return pd.concat(frames, ignore_index=True)

    stats = ds.map_batches(partial, batch_format="pandas").to_pandas()
    agg = stats.groupby("col").agg(n_rows=("n", "sum"), n_null=("nn", "sum"),
                                   min_num=("mn", "min"), max_num=("mx", "max"))
    dist = (ds.map_batches(ident, batch_format="pandas")
            .groupby("col").map_groups(
                lambda g: pd.DataFrame({"col": [g["col"].iloc[0]],
                                        "nd": [g["v"].nunique()]}),
                batch_format="pandas").to_pandas().set_index("col"))
    out = agg.join(dist)
    out["n_rows"] = out["n_rows"].astype("int64")
    out["n_null"] = out["n_null"].astype("int64")
    out["n_distinct"] = out["nd"].astype("int64")
    out = out.reset_index()[["col", "n_rows", "n_null", "n_distinct",
                             "min_num", "max_num"]]
    return out.sort_values("col").reset_index(drop=True)


SQL_COLUMN_PROFILE = """
SELECT 'event_id' AS col, CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(SUM(CASE WHEN event_id IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_null,
       CAST(COUNT(DISTINCT event_id) AS BIGINT) AS n_distinct,
       CAST(MIN(event_id) AS DOUBLE) AS min_num,
       CAST(MAX(event_id) AS DOUBLE) AS max_num FROM events
UNION ALL
SELECT 'ts', COUNT(*), CAST(SUM(CASE WHEN ts IS NULL THEN 1 ELSE 0 END) AS BIGINT),
       COUNT(DISTINCT ts), CAST(epoch_us(MIN(ts)) AS DOUBLE),
       CAST(epoch_us(MAX(ts)) AS DOUBLE) FROM events
UNION ALL
SELECT 'user_id', COUNT(*), CAST(SUM(CASE WHEN user_id IS NULL THEN 1 ELSE 0 END) AS BIGINT),
       COUNT(DISTINCT user_id), CAST(MIN(user_id) AS DOUBLE),
       CAST(MAX(user_id) AS DOUBLE) FROM events
UNION ALL
SELECT 'event_type', COUNT(*), CAST(SUM(CASE WHEN event_type IS NULL THEN 1 ELSE 0 END) AS BIGINT),
       COUNT(DISTINCT event_type), CAST(NULL AS DOUBLE), CAST(NULL AS DOUBLE)
FROM events
UNION ALL
SELECT 'value', COUNT(*), CAST(SUM(CASE WHEN value IS NULL THEN 1 ELSE 0 END) AS BIGINT),
       COUNT(DISTINCT value), CAST(MIN(value) AS DOUBLE),
       CAST(MAX(value) AS DOUBLE) FROM events
ORDER BY col
"""


def q_hard_negatives(sf_dir: str):
    """Contrastive hard-negative mining: for the first 8 embedding rows
    (by vec_id), the most-cosine-similar vector with a DIFFERENT label
    (stages/similarity.py::hard_negative_top1 — broadcast query matrix,
    per-batch masked matmul, one candidate row per query per block)."""
    from icrawler_ray.stages.similarity import hard_negative_top1

    head = _read(sf_dir, "embeddings",
                 ["vec_id", "embedding", "label"]).sort("vec_id").limit(8).to_pandas()
    queries = np.asarray(head["embedding"].tolist(), dtype=np.float64)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    return hard_negative_top1(ds, queries, head["label"].to_numpy(),
                              head["vec_id"].to_numpy())


SQL_HARD_NEGATIVES = """
WITH q AS (SELECT vec_id AS query_id, embedding AS qe, label AS ql
           FROM embeddings ORDER BY vec_id LIMIT 8),
sims AS (
  SELECT q.query_id, e.vec_id,
         list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                CAST(e.embedding AS DOUBLE[])) AS sim
  FROM q CROSS JOIN embeddings e WHERE e.label <> q.ql)
SELECT query_id, vec_id AS neg_id FROM sims
QUALIFY row_number() OVER (PARTITION BY query_id
                           ORDER BY sim DESC, vec_id) = 1
ORDER BY query_id
"""


def q_neighbor_jaccard(sf_dir: str):
    """Structural-equivalence pairs over the derived link graph: Jaccard
    of neighbor sets >= 0.3 for pairs sharing >= 1 neighbor, endpoint and
    wedge degrees capped at 64 (stages/linkgraph.py::
    neighborhood_jaccard_pairs — wedge expansion + exact in-bucket
    degrees + two pair-sized bucketed deg joins; the mirror-page signal
    of a crawl scheduler)."""
    from icrawler_ray.stages.linkgraph import (derive_edges,
                                               neighborhood_jaccard_pairs)

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()
    return neighborhood_jaccard_pairs(derive_edges(docs, n), n)


SQL_NEIGHBOR_JACCARD = f"""
WITH {_SQL_EDGES_CTE},
und AS (SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b
        FROM edges),
adj AS (SELECT a AS w, b AS v FROM und UNION ALL SELECT b AS w, a AS v FROM und),
deg AS (SELECT w, COUNT(*) AS d FROM adj GROUP BY w),
okw AS (SELECT adj.w, adj.v FROM adj JOIN deg ON deg.w = adj.w
        WHERE deg.d BETWEEN 2 AND 64),
p AS (SELECT x.v AS a, y.v AS b FROM okw x
      JOIN okw y ON y.w = x.w AND x.v < y.v),
c AS (SELECT a, b, COUNT(*) AS common FROM p GROUP BY a, b),
j AS (SELECT c.a, c.b,
             ROUND(c.common * 1.0 / (da.d + db.d - c.common), 6) AS jaccard
      FROM c JOIN deg da ON da.w = c.a JOIN deg db ON db.w = c.b
      WHERE da.d <= 64 AND db.d <= 64)
SELECT CAST(a AS BIGINT) AS a, CAST(b AS BIGINT) AS b, jaccard
FROM j WHERE jaccard >= 0.3 ORDER BY a, b
"""


def q_host_latency_slo(sf_dir: str):
    """Per-host fetch-latency SLO report: exact p50/p95 and an SLO-breach
    flag (p95 > 400 ms) over a deterministic synthetic latency per event,
    via the (host, latency)-histogram combiner — one row per distinct
    (host, ms) per block, never per event; quantile definition matches
    DuckDB quantile_disc (smallest value with cum >= ceil(q*n))."""
    ds = _read(sf_dir, "events", ["event_id", "user_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        host = "h" + (df["user_id"] % 40).astype(str)
        lat = 20 + (df["event_id"].to_numpy(dtype=np.int64) * 37) % 480
        g = pd.DataFrame({"host": host, "lat": lat})
        return g.groupby(["host", "lat"]).size().rename("c").reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    hist = parts.groupby(["host", "lat"])["c"].sum().reset_index()
    rows = []
    for host, g in hist.groupby("host"):
        g = g.sort_values("lat")
        cum = g["c"].cumsum().to_numpy()
        vals = g["lat"].to_numpy()
        n = int(cum[-1])
        p50 = int(vals[np.searchsorted(cum, int(np.ceil(0.5 * n)))])
        p95 = int(vals[np.searchsorted(cum, int(np.ceil(0.95 * n)))])
        rows.append({"host": host, "n": n, "p50": p50, "p95": p95,
                     "breach": int(p95 > 400)})
    return pd.DataFrame(rows).sort_values("host").reset_index(drop=True)


SQL_HOST_LATENCY_SLO = """
WITH l AS (SELECT 'h' || CAST(user_id % 40 AS VARCHAR) AS host,
                  20 + (event_id * 37) % 480 AS lat
           FROM events)
SELECT host, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(quantile_disc(lat, 0.5) AS BIGINT) AS p50,
       CAST(quantile_disc(lat, 0.95) AS BIGINT) AS p95,
       CAST(CASE WHEN quantile_disc(lat, 0.95) > 400 THEN 1 ELSE 0 END
            AS BIGINT) AS breach
FROM l GROUP BY host ORDER BY host
"""


def q_host_reputation(sf_dir: str):
    """Time-decayed host reputation (EWMA over daily error rates): the
    scheduler signal that demotes hosts whose recent fetches fail.
    Per (host, day) error rates from ONE combiner pass (host x day
    partials); the exponential weights (1-alpha)^(days_before_last)
    apply in a vectorized driver pass over the host x day table — the
    only thing that ever leaves the cluster."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "host": "h" + (df["user_id"] % 40).astype(str),
            "day": df["ts"].dt.floor("D"),
            "err": (df["event_id"].to_numpy(dtype=np.int64) % 7 == 0)
            .astype(np.int64)})
        return g.groupby(["host", "day"], as_index=False).agg(
            n=("err", "size"), e=("err", "sum"))

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    agg = parts.groupby(["host", "day"], as_index=False).agg(
        n=("n", "sum"), e=("e", "sum"))
    last = agg["day"].max()
    k = (last - agg["day"]).dt.days.to_numpy(dtype=np.float64)
    agg["wt"] = np.power(0.7, k)
    agg["r"] = agg["e"] / agg["n"]
    out = agg.groupby("host").apply(
        lambda g: np.round((g["r"] * g["wt"]).sum() / g["wt"].sum(), 6),
        include_groups=False).rename("reputation").reset_index()
    return out.sort_values("host").reset_index(drop=True)


SQL_HOST_REPUTATION = """
WITH e AS (SELECT 'h' || CAST(user_id % 40 AS VARCHAR) AS host,
                  CAST(ts AS DATE) AS day,
                  CASE WHEN event_id % 7 = 0 THEN 1 ELSE 0 END AS err
           FROM events),
d AS (SELECT host, day, SUM(err) * 1.0 / COUNT(*) AS r FROM e
      GROUP BY host, day),
m AS (SELECT MAX(day) AS mx FROM e),
w AS (SELECT host, r, POWER(0.7, date_diff('day', day, m.mx)) AS wt
      FROM d, m)
SELECT host, ROUND(SUM(r * wt) / SUM(wt), 6) AS reputation
FROM w GROUP BY host ORDER BY host
"""


def q_value_histogram(sf_dir: str):
    """Equi-width 20-bin histogram of events.value: pass 1 is a (min,
    max) combiner, pass 2 bins with the BROADCAST bounds — the two-scan
    shape every distributed histogram needs when bounds aren't known a
    priori.  The bin expression is evaluated with the identical
    left-associated float64 ops on both sides so edge values can't flip
    bins."""
    ds = _read(sf_dir, "events", ["value"])

    bounds = ds.map_batches(
        lambda df: pd.DataFrame({"mn": [df["value"].min()],
                                 "mx": [df["value"].max()]}),
        batch_format="pandas").to_pandas()
    mn, mx = float(bounds["mn"].min()), float(bounds["mx"].max())

    def binned(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy(dtype=np.float64)
        b = np.minimum(19.0, np.floor((v - mn) * 20.0 / (mx - mn)))
        return pd.DataFrame({"bin": b.astype(np.int64)}).groupby(
            "bin", as_index=False).size().rename(columns={"size": "n"})

    parts = ds.map_batches(binned, batch_format="pandas").to_pandas()
    out = parts.groupby("bin", as_index=False)["n"].sum()
    out["n"] = out["n"].astype("int64")
    return out.sort_values("bin").reset_index(drop=True)


SQL_VALUE_HISTOGRAM = """
WITH m AS (SELECT MIN(value) AS mn, MAX(value) AS mx FROM events)
SELECT CAST(LEAST(19.0, FLOOR((value - m.mn) * 20.0 / (m.mx - m.mn)))
            AS BIGINT) AS bin,
       CAST(COUNT(*) AS BIGINT) AS n
FROM events, m GROUP BY bin ORDER BY bin
"""


def q_weighted_median(sf_dir: str):
    """Per-lang WEIGHTED median token count, weight = n_chars (the
    robust center a mixture planner uses when long docs should count
    proportionally): smallest token value whose cumulative char weight
    reaches half the lang's total.  Same (lang, tok)-histogram combiner
    as the quantile family, with summed weights instead of counts —
    integer-exact, order-independent."""
    ds = _read(sf_dir, "documents", ["lang", "text", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(tok=df["text"].str.count(" ") + 1)
        return df.groupby(["lang", "tok"], as_index=False).agg(
            w=("n_chars", "sum"))

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    hist = parts.groupby(["lang", "tok"], as_index=False)["w"].sum()
    rows = []
    for lang, g in hist.groupby("lang"):
        g = g.sort_values("tok")
        cum = g["w"].cumsum().to_numpy()
        tot = int(cum[-1])
        i = int(np.searchsorted(cum, (tot + 1) // 2))
        rows.append({"lang": lang, "wmedian_tok": int(g["tok"].to_numpy()[i]),
                     "total_w": tot})
    return pd.DataFrame(rows).sort_values("lang").reset_index(drop=True)


SQL_WEIGHTED_MEDIAN = """
WITH t AS (SELECT lang, n_chars,
                  length(text) - length(replace(text, ' ', '')) + 1 AS tok
           FROM documents),
h AS (SELECT lang, tok, SUM(n_chars) AS w FROM t GROUP BY lang, tok),
c AS (SELECT lang, tok, w,
             SUM(w) OVER (PARTITION BY lang ORDER BY tok
                          ROWS UNBOUNDED PRECEDING) AS cum,
             SUM(w) OVER (PARTITION BY lang) AS tot
      FROM h)
SELECT lang, CAST(MIN(tok) AS BIGINT) AS wmedian_tok,
       CAST(ANY_VALUE(tot) AS BIGINT) AS total_w
FROM c WHERE cum >= (tot + 1) // 2
GROUP BY lang ORDER BY lang
"""


def q_source_drift(sf_dir: str):
    """Ingestion drift audit: per-source Kolmogorov-Smirnov statistic of
    the n_chars distribution against the GLOBAL corpus distribution —
    max |cdf_src(v) − cdf_all(v)| over the merged value grid.  Everything
    derives from ONE (source, n_chars) histogram combiner; the CDF grids
    are (distinct values × sources)-sized driver work, never doc-sized.
    |d| is rounded to 6 dp BEFORE the max on both sides so float ulps
    can't flip the argmax."""
    ds = _read(sf_dir, "documents", ["source", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["source", "n_chars"]).size().rename("c").reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    h = parts.groupby(["source", "n_chars"])["c"].sum().reset_index()
    grid = np.sort(h["n_chars"].unique())
    gh = h.groupby("n_chars")["c"].sum().reindex(grid, fill_value=0)
    gcdf = gh.cumsum().to_numpy(dtype=np.float64) / gh.sum()
    rows = []
    for src, g in h.groupby("source"):
        sh = g.set_index("n_chars")["c"].reindex(grid, fill_value=0)
        scdf = sh.cumsum().to_numpy(dtype=np.float64) / sh.sum()
        d = np.round(np.abs(scdf - gcdf), 6)
        rows.append({"source": src, "ks": float(d.max())})
    return pd.DataFrame(rows).sort_values("source").reset_index(drop=True)


SQL_SOURCE_DRIFT = """
WITH h AS (SELECT source, n_chars AS v, COUNT(*) AS c FROM documents
           GROUP BY source, n_chars),
tot AS (SELECT source, SUM(c) AS n FROM h GROUP BY source),
gtot AS (SELECT SUM(c) AS n FROM h),
grid AS (SELECT DISTINCT v FROM h),
sg AS (SELECT t.source, g.v, COALESCE(SUM(h.c), 0) AS cum
       FROM tot t CROSS JOIN grid g
       LEFT JOIN h ON h.source = t.source AND h.v <= g.v
       GROUP BY t.source, g.v),
gg AS (SELECT g.v, SUM(h.c) AS cum FROM grid g JOIN h ON h.v <= g.v
       GROUP BY g.v),
d AS (SELECT sg.source,
             ROUND(ABS(sg.cum * 1.0 / t.n - gg.cum * 1.0 / gtot.n), 6) AS dd
      FROM sg JOIN tot t ON t.source = sg.source
      JOIN gg ON gg.v = sg.v, gtot)
SELECT source, MAX(dd) AS ks FROM d GROUP BY source ORDER BY source
"""


def q_stopword_coverage(sf_dir: str):
    """Vocabulary-coverage audit: fraction of each lang's token
    occurrences that fall in the corpus-global top-50 terms (count desc,
    term asc) — the cheap signal that separates natural prose from
    symbol soup.  Term counts come from the per-batch vocabulary
    combiner; the 50-term set rides ONE ray.put and the per-lang
    fractions are another combiner pass."""
    ds = _read(sf_dir, "documents", ["lang", "text"])

    def vocab(df: pd.DataFrame) -> pd.DataFrame:
        t = df["text"].str.split(" ").explode()
        return t.groupby(t).size().rename("c").rename_axis("term").reset_index()

    parts = ds.map_batches(vocab, batch_format="pandas").to_pandas()
    counts = parts.groupby("term")["c"].sum().reset_index()
    top = counts.sort_values(["c", "term"], ascending=[False, True]) \
        .head(50)["term"]
    top_ref = ray.put(set(top.tolist()))

    def cover(df: pd.DataFrame) -> pd.DataFrame:
        s = ray.get(top_ref)
        t = df[["lang"]].join(df["text"].str.split(" ").rename("term")).explode("term")
        t["hit"] = t["term"].isin(s).astype(np.int64)
        return t.groupby("lang", as_index=False).agg(n=("hit", "size"),
                                                     k=("hit", "sum"))

    out = (ds.map_batches(cover, batch_format="pandas").to_pandas()
           .groupby("lang", as_index=False).agg(n=("n", "sum"), k=("k", "sum")))
    out["n_tokens"] = out["n"].astype("int64")
    out["coverage"] = (out["k"] / out["n"]).round(6)
    return out[["lang", "n_tokens", "coverage"]].sort_values("lang") \
        .reset_index(drop=True)


SQL_STOPWORD_COVERAGE = """
WITH tok AS (SELECT lang, unnest(string_split(text, ' ')) AS t FROM documents),
top AS (SELECT t FROM tok GROUP BY t ORDER BY COUNT(*) DESC, t LIMIT 50)
SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_tokens,
       ROUND(SUM(CASE WHEN t IN (SELECT t FROM top) THEN 1 ELSE 0 END)
             * 1.0 / COUNT(*), 6) AS coverage
FROM tok GROUP BY lang ORDER BY lang
"""


def q_trending_types(sf_dir: str):
    """Day-over-day trending audit: event types ranked by count on the
    corpus's LAST day, with each type's rank on the prior day and the
    rank delta (0 for absent-yesterday).  ONE (day, type) combiner pass;
    ranking is type-cardinality-sized driver work."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"day": df["ts"].dt.floor("D"),
                          "event_type": df["event_type"]})
        return g.groupby(["day", "event_type"]).size().rename("c").reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    h = parts.groupby(["day", "event_type"])["c"].sum().reset_index()
    last = h["day"].max()
    prev = h.loc[h["day"] < last, "day"].max()

    def ranks(day):
        g = h[h["day"] == day].sort_values(["c", "event_type"],
                                           ascending=[False, True])
        return {t: i + 1 for i, t in enumerate(g["event_type"])}

    rt, rp = ranks(last), ranks(prev)
    rows = [{"event_type": t, "rank_today": r,
             "rank_prev": rp.get(t, 0),
             "delta": (rp.get(t, 0) - r) if t in rp else 0}
            for t, r in rt.items()]
    return pd.DataFrame(rows).sort_values("event_type").reset_index(drop=True)


SQL_TRENDING_TYPES = """
WITH d AS (SELECT CAST(ts AS DATE) AS day, event_type, COUNT(*) AS c
           FROM events GROUP BY day, event_type),
mx AS (SELECT MAX(day) AS last FROM d),
pv AS (SELECT MAX(day) AS prev FROM d, mx WHERE day < mx.last),
rt AS (SELECT event_type,
              CAST(ROW_NUMBER() OVER (ORDER BY c DESC, event_type) AS BIGINT)
              AS rank_today
       FROM d, mx WHERE day = mx.last),
rp AS (SELECT event_type,
              CAST(ROW_NUMBER() OVER (ORDER BY c DESC, event_type) AS BIGINT)
              AS rank_prev
       FROM d, pv WHERE day = pv.prev)
SELECT rt.event_type, rt.rank_today,
       COALESCE(rp.rank_prev, 0) AS rank_prev,
       CASE WHEN rp.event_type IS NULL THEN 0
            ELSE rp.rank_prev - rt.rank_today END AS delta
FROM rt LEFT JOIN rp ON rp.event_type = rt.event_type
ORDER BY rt.event_type
"""


# =====================================================================
# F. round-5 batch F: retrieval fusion, vocabulary tail, dup
#    attribution, graph reciprocity
# =====================================================================

def q_rrf_fusion(sf_dir: str):
    """Reciprocal-rank fusion of two retrievers — Okapi BM25 (lexical,
    over documents.text) and brute-force cosine (dense, embeddings
    joined on doc_id = vec_id): rrf(d) = sum over lists of
    1 / (60 + rank_d).  Both top-20 inputs are output-sized, so the
    fusion itself is driver-side by design (fusing top-k lists is O(k));
    the heavy work is the two distributed retrieval passes, each already
    combiner-first.  Single-list ties break by doc_id asc, mirrored in
    the SQL oracle."""
    from icrawler_ray.stages.similarity import brute_force_topk
    from icrawler_ray.stages.textfns import bm25_topk

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    bm = bm25_topk(docs, _BM25_TERMS, k=20)[["doc_id", "rank"]]

    head = _read(sf_dir, "embeddings", ["vec_id", "embedding"]) \
        .sort("vec_id").limit(1).to_pandas()
    qvec = np.asarray(head["embedding"].tolist(), dtype=np.float64)
    cs = brute_force_topk(_read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                          qvec, k=20, query_ids=head["vec_id"].to_numpy())
    cs = cs[["vec_id", "rank"]].rename(columns={"vec_id": "doc_id"})

    fused = bm.merge(cs, on="doc_id", how="outer", suffixes=("_bm", "_cs"))
    fused["rrf"] = (1.0 / (60.0 + fused["rank_bm"])).fillna(0.0) \
        + (1.0 / (60.0 + fused["rank_cs"])).fillna(0.0)
    fused = fused.sort_values(["rrf", "doc_id"], ascending=[False, True],
                              kind="mergesort").head(10).reset_index(drop=True)
    return pd.DataFrame({
        "rank": np.arange(1, len(fused) + 1, dtype=np.int64),
        "doc_id": fused["doc_id"].astype(np.int64),
        "rrf": fused["rrf"].round(6),
    })


SQL_RRF_FUSION = f"""
WITH bm AS (SELECT doc_id, rank AS r FROM ({_sql_bm25(20)})),
q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings
      ORDER BY vec_id LIMIT 1),
cs AS (SELECT e.vec_id AS doc_id,
              row_number() OVER (
                ORDER BY list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                                CAST(e.embedding AS DOUBLE[]))
                DESC, e.vec_id) AS r
       FROM q CROSS JOIN embeddings e WHERE e.vec_id <> q.qid
       QUALIFY r <= 20),
f AS (SELECT COALESCE(bm.doc_id, cs.doc_id) AS doc_id,
             COALESCE(1.0 / (60 + bm.r), 0) + COALESCE(1.0 / (60 + cs.r), 0)
               AS rrf
      FROM bm FULL JOIN cs ON cs.doc_id = bm.doc_id)
SELECT CAST(row_number() OVER (ORDER BY rrf DESC, doc_id) AS BIGINT) AS rank,
       doc_id, ROUND(rrf, 6) AS rrf
FROM f ORDER BY rrf DESC, doc_id LIMIT 10
"""


def q_hapax_ratio(sf_dir: str):
    """Vocabulary-tail audit: per source, the share of token occurrences
    that are corpus-global hapax legomena (terms seen exactly once
    anywhere) — the dual of stopword_coverage's head coverage and the
    cheap OCR-garbage / boilerplate-synthesis signal.  The hapax set is
    vocabulary-sized so it is NEVER broadcast: per-batch (term, source,
    n) partials exchange by term-hash bucket (a term lives in exactly
    one bucket, so bucket-local totals are global), and only per-source
    counter rows leave each bucket."""
    P = 32
    ds = _read(sf_dir, "documents", ["source", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df[["source"]].join(df["text"].str.split(" ").rename("term")) \
            .explode("term")
        g = t.groupby(["term", "source"], sort=False).size().rename("n") \
            .reset_index()
        g["part"] = (pd.util.hash_array(g["term"].to_numpy(dtype=object))
                     % P).astype(np.int64)
        return g

    def mark(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("term")["n"].transform("sum")
        hx = g[tot == 1]  # total 1 => exactly one row, n == 1: its source
        return (hx.groupby("source").size().rename("k").reset_index())

    hap = (ds.map_batches(partial, batch_format="pandas")
           .groupby("part").map_groups(mark, batch_format="pandas")
           .to_pandas())
    hap = hap.groupby("source")["k"].sum() if len(hap) else pd.Series(dtype=np.int64)

    def tokens(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": df["source"],
            "n": df["text"].str.count(" ").to_numpy(dtype=np.int64) + 1})

    tot = (ds.map_batches(tokens, batch_format="pandas")
           .groupby("source").sum("n").to_pandas()
           .rename(columns={"sum(n)": "n_tokens"}))
    tot["n_tokens"] = tot["n_tokens"].astype(np.int64)
    tot["n_hapax"] = tot["source"].map(hap).fillna(0).astype(np.int64)
    tot["hapax_ratio"] = (tot["n_hapax"] / tot["n_tokens"]).round(6)
    return (tot[["source", "n_tokens", "n_hapax", "hapax_ratio"]]
            .sort_values("source").reset_index(drop=True))


SQL_HAPAX_RATIO = """
WITH tok AS (SELECT source, unnest(string_split(text, ' ')) AS t FROM documents),
g AS (SELECT t, COUNT(*) AS c, MIN(source) AS src FROM tok GROUP BY t),
hx AS (SELECT src AS source, CAST(COUNT(*) AS BIGINT) AS n_hapax
       FROM g WHERE c = 1 GROUP BY src),
nt AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n_tokens
       FROM tok GROUP BY source)
SELECT nt.source, nt.n_tokens,
       CAST(COALESCE(hx.n_hapax, 0) AS BIGINT) AS n_hapax,
       ROUND(COALESCE(hx.n_hapax, 0) * 1.0 / nt.n_tokens, 6) AS hapax_ratio
FROM nt LEFT JOIN hx ON hx.source = nt.source
ORDER BY nt.source
"""


def q_dup_ratio_by_source(sf_dir: str):
    """Contamination attribution: per source, the share of docs whose
    exact md5 fingerprint occurs >= 2 times corpus-wide (BOTH copies
    count — the mass a dedup pass inspects, not what it deletes), the
    audit that decides which feed gets throttled.  Identity-sized
    exchanges only: (fp, source, n) partials -> fp-hash buckets (a
    fingerprint lives in exactly one bucket) -> per-source counter
    rows."""
    import hashlib

    P = 32
    ds = _read(sf_dir, "documents", ["source", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        fp = df["text"].map(lambda s: hashlib.md5(s.encode()).hexdigest())
        g = (pd.DataFrame({"fp": fp, "source": df["source"]})
             .groupby(["fp", "source"], sort=False).size().rename("n")
             .reset_index())
        g["part"] = g["fp"].map(lambda h: int(h[:8], 16) % P).astype(np.int64)
        return g

    def mark(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("fp")["n"].transform("sum")
        dup = g[tot >= 2]
        return dup.groupby("source")["n"].sum().rename("k").reset_index()

    dup = (ds.map_batches(partial, batch_format="pandas")
           .groupby("part").map_groups(mark, batch_format="pandas")
           .to_pandas())
    dup = dup.groupby("source")["k"].sum() if len(dup) else pd.Series(dtype=np.int64)

    tot = (ds.groupby("source").count().to_pandas()
           .rename(columns={"count()": "n_docs"}))
    tot["n_docs"] = tot["n_docs"].astype(np.int64)
    tot["n_dup"] = tot["source"].map(dup).fillna(0).astype(np.int64)
    tot["dup_ratio"] = (tot["n_dup"] / tot["n_docs"]).round(6)
    return (tot[["source", "n_docs", "n_dup", "dup_ratio"]]
            .sort_values("source").reset_index(drop=True))


SQL_DUP_RATIO_BY_SOURCE = """
WITH f AS (SELECT source, md5(text) AS fp FROM documents),
c AS (SELECT fp, COUNT(*) AS n FROM f GROUP BY fp)
SELECT f.source, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(CASE WHEN c.n >= 2 THEN 1 ELSE 0 END) AS BIGINT) AS n_dup,
       ROUND(SUM(CASE WHEN c.n >= 2 THEN 1 ELSE 0 END) * 1.0 / COUNT(*), 6)
         AS dup_ratio
FROM f JOIN c USING (fp) GROUP BY f.source ORDER BY f.source
"""


def q_edge_reciprocity(sf_dir: str):
    """Directed-graph reciprocity over the derived link graph: the share
    of DISTINCT directed edges whose reverse edge also exists — the
    mutual-link signal that separates link farms from organic topology.
    Per-batch canonical (pair-key, direction-bit) uniques exchange by
    key bucket; each bucket dedups globally (a pair key lives in exactly
    one bucket) and emits TWO counters; the driver adds P rows of ints.
    Packed int64 pair keys require n < 3e9 (same bound as
    stages/linkgraph.py::_canonical_undirected; beyond that switch to a
    two-column struct key)."""
    from icrawler_ray.stages.linkgraph import derive_edges

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = np.int64(docs.count())
    P = np.int64(32)
    edges = derive_edges(docs, n)

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        s = df["src"].to_numpy(dtype=np.int64)
        d = df["dst"].to_numpy(dtype=np.int64)
        out = pd.DataFrame({
            "key": np.minimum(s, d) * n + np.maximum(s, d),
            "flag": np.where(s < d, 1, 2).astype(np.int64),
        }).drop_duplicates()
        out["part"] = out["key"] % P
        return out

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        per = g.drop_duplicates(["key", "flag"]).groupby("key").size()
        return pd.DataFrame({"n_edges": [int(per.sum())],
                             "n_recip": [int((per == 2).sum()) * 2]})

    parts = (edges.map_batches(canon, batch_format="pandas")
             .groupby("part").map_groups(reduce_bucket, batch_format="pandas")
             .to_pandas())
    ne, nr = int(parts["n_edges"].sum()), int(parts["n_recip"].sum())
    rec = round(nr / ne, 6) if ne else 0.0
    return pd.DataFrame({"n_edges": pd.array([ne], dtype="int64"),
                         "n_recip": pd.array([nr], dtype="int64"),
                         "reciprocity": [rec]})


SQL_EDGE_RECIPROCITY = f"""
WITH {_SQL_EDGES_CTE},
de AS (SELECT DISTINCT src, dst FROM edges),
r AS (SELECT COUNT(*) AS n_recip
      FROM de a JOIN de b ON b.src = a.dst AND b.dst = a.src)
SELECT CAST((SELECT COUNT(*) FROM de) AS BIGINT) AS n_edges,
       CAST(r.n_recip AS BIGINT) AS n_recip,
       ROUND(r.n_recip * 1.0 / (SELECT COUNT(*) FROM de), 6) AS reciprocity
FROM r
"""


# =====================================================================
# R5d. audit / calibration / graph-weighting operators
# =====================================================================

def q_benford_audit(sf_dir: str):
    """Leading-digit (Benford) audit of order totals — the cheap fraud /
    synthetic-data smoke test a corpus pipeline runs over numeric
    columns.  Each batch emits a 9-bin partial count (the combiner
    pattern: the exchange is 9 rows per block regardless of input
    size); the expected Benford share log10(1 + 1/d) and the observed
    share join on the driver over 9 rows."""
    ds = _read(sf_dir, "orders", ["o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        ip = np.floor(t["o_totalprice"].to_numpy(zero_copy_only=False)).astype(np.int64)
        ip = ip[ip >= 1]
        # leading decimal digit via string head — exact (no log10 edge
        # cases at powers of ten), vectorized by numpy's U1 cast
        lead = ip.astype("U1").astype(np.int64)
        digit, n = np.unique(lead, return_counts=True)
        return pa.table({"digit": pa.array(digit), "n": pa.array(n)})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("digit", as_index=False)["n"].sum()
    tot = int(g["n"].sum())
    g["share"] = (g["n"] / tot).round(6)
    g["benford"] = np.round(np.log10(1.0 + 1.0 / g["digit"].to_numpy()), 6)
    g["n"] = g["n"].astype(np.int64)
    return g.sort_values("digit").reset_index(drop=True)[
        ["digit", "n", "share", "benford"]]


SQL_BENFORD_AUDIT = """
WITH lead AS (
  SELECT CAST(SUBSTRING(CAST(CAST(FLOOR(o_totalprice) AS BIGINT) AS VARCHAR), 1, 1)
              AS BIGINT) AS digit
  FROM orders WHERE FLOOR(o_totalprice) >= 1),
c AS (SELECT digit, COUNT(*) AS n FROM lead GROUP BY digit)
SELECT digit, n,
       ROUND(n * 1.0 / (SELECT SUM(n) FROM c), 6) AS share,
       ROUND(LOG10(1.0 + 1.0 / digit), 6) AS benford
FROM c ORDER BY digit
"""


def q_mad_outliers(sf_dir: str):
    """Robust per-language outlier gate: median + MAD (median absolute
    deviation) of document length, and the count of docs beyond
    3 x MAD — the quality filter that survives heavy-tailed length
    distributions where mean/stddev gates do not.  Both medians use the
    quantile_disc definition (smallest value with cume_dist >= 0.5) so
    the SQL oracle is exact.  Execution is the (lang, n_chars)
    histogram combiner of length_quantiles_by_lang: one row per
    distinct (group, value) per block, never per document."""
    ds = _read(sf_dir, "documents", ["lang", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["lang", "n_chars"]).size().rename("c").reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    hist = parts.groupby(["lang", "n_chars"], as_index=False)["c"].sum()

    def disc_q(vals: np.ndarray, cnts: np.ndarray, q: float) -> int:
        order = np.argsort(vals, kind="mergesort")
        vals, cnts = vals[order], cnts[order]
        cum = np.cumsum(cnts)
        return int(vals[np.searchsorted(cum, int(np.ceil(q * cum[-1])))])

    rows = []
    for lang, g in hist.groupby("lang"):
        v = g["n_chars"].to_numpy(dtype=np.int64)
        c = g["c"].to_numpy(dtype=np.int64)
        med = disc_q(v, c, 0.5)
        dev = np.abs(v - med)
        mad = disc_q(dev, c, 0.5)
        n_out = int(c[dev > 3 * mad].sum())
        rows.append({"lang": lang, "med": np.int64(med), "mad": np.int64(mad),
                     "n_outliers": np.int64(n_out)})
    return pd.DataFrame(rows).sort_values("lang").reset_index(drop=True)


SQL_MAD_OUTLIERS = """
WITH m AS (SELECT lang, quantile_disc(n_chars, 0.5) AS med
           FROM documents GROUP BY lang),
d AS (SELECT doc.lang, ABS(doc.n_chars - m.med) AS dev
      FROM documents doc JOIN m ON m.lang = doc.lang),
mad AS (SELECT lang, quantile_disc(dev, 0.5) AS mad FROM d GROUP BY lang)
SELECT m.lang, CAST(m.med AS BIGINT) AS med, CAST(mad.mad AS BIGINT) AS mad,
       CAST(SUM(CASE WHEN d.dev > 3 * mad.mad THEN 1 ELSE 0 END) AS BIGINT)
         AS n_outliers
FROM m JOIN mad ON mad.lang = m.lang JOIN d ON d.lang = m.lang
GROUP BY m.lang, m.med, mad.mad ORDER BY m.lang
"""


def q_vocab_coverage(sf_dir: str):
    """Vocabulary coverage curve: the top-40 corpus terms with their
    CUMULATIVE share of all tokens — the tokenizer-sizing question
    ('how many vocab entries cover 90% of the stream?').  Per-batch
    (term, count) partials bound the exchange by distinct-terms-per-
    block; the final reduce over the merged vocabulary runs on the
    driver (bounded by vocab size; a web-scale vocabulary
    hash-partitions the final reduce and takes a distributed top-k
    instead, as top_terms notes)."""
    ds = _read(sf_dir, "documents", ["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df["text"].str.split(" ").rename("term").explode()
        return t.groupby(t, sort=False).size().rename("n").reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    g = parts.groupby("term", as_index=False)["n"].sum()
    tot = float(g["n"].sum())
    g = g.sort_values(["n", "term"], ascending=[False, True], kind="mergesort")
    top = g.head(40).reset_index(drop=True)
    top["rank"] = np.arange(1, len(top) + 1, dtype=np.int64)
    top["cum_share"] = (top["n"].cumsum() / tot).round(6)
    top["n"] = top["n"].astype(np.int64)
    return top[["rank", "term", "n", "cum_share"]]


SQL_VOCAB_COVERAGE = """
WITH t AS (SELECT unnest(string_split(text, ' ')) AS term FROM documents),
c AS (SELECT term, COUNT(*) AS n FROM t GROUP BY term),
r AS (SELECT term, n,
             ROW_NUMBER() OVER (ORDER BY n DESC, term) AS rank,
             SUM(n) OVER (ORDER BY n DESC, term
                          ROWS UNBOUNDED PRECEDING) AS cum
      FROM c)
SELECT rank, term, n,
       ROUND(CAST(cum AS DOUBLE) / (SELECT SUM(n) FROM c), 6) AS cum_share
FROM r WHERE rank <= 40 ORDER BY rank
"""


def q_mutual_knn(sf_dir: str):
    """Mutual nearest-neighbor pairs over the embedding table (a's top-1
    is b AND b's top-1 is a) — the high-precision alignment/duplicate
    signal used for cross-source doc matching.  Reuses the broadcast
    brute-force scorer with every vector as a query (per-batch matmul,
    tie-break sim DESC then vec_id ASC); the mutuality self-join runs
    on the driver over n top-1 rows.  At web scale the all-vs-all
    scorer is replaced by the LSH/IVF candidate path (knn_lsh/knn_ivf)
    and the mutuality join becomes a hash-partitioned semi-join —
    top-1-per-vector rows, never pairs, cross the exchange either way."""
    from icrawler_ray.stages.similarity import brute_force_topk

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    head = emb.sort("vec_id").to_pandas()
    queries = np.asarray(head["embedding"].tolist(), dtype=np.float64)
    nn1 = brute_force_topk(emb, queries, k=1, query_ids=head["vec_id"].to_numpy())
    nn = dict(zip(nn1["query_id"].to_numpy(), nn1["vec_id"].to_numpy()))
    sim = dict(zip(nn1["query_id"].to_numpy(), nn1["sim"].to_numpy()))
    rows = [{"a": np.int64(a), "b": np.int64(b), "sim": float(sim[a])}
            for a, b in nn.items() if a < b and nn.get(b) == a]
    return (pd.DataFrame(rows, columns=["a", "b", "sim"])
            .sort_values("a").reset_index(drop=True))


SQL_MUTUAL_KNN = """
WITH sims AS (
  SELECT a.vec_id AS ai, b.vec_id AS bi,
         list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                CAST(b.embedding AS DOUBLE[])) AS sim
  FROM embeddings a JOIN embeddings b ON a.vec_id <> b.vec_id),
nn AS (SELECT ai, bi, sim,
              ROW_NUMBER() OVER (PARTITION BY ai ORDER BY sim DESC, bi) AS rk
       FROM sims)
SELECT n1.ai AS a, n1.bi AS b, ROUND(n1.sim, 6) AS sim
FROM nn n1 JOIN nn n2 ON n2.ai = n1.bi AND n2.bi = n1.ai
WHERE n1.rk = 1 AND n2.rk = 1 AND n1.ai < n1.bi
ORDER BY a
"""


def q_weighted_pagerank(sf_dir: str):
    """Edge-weighted PageRank (weight 1 + (src+dst) % 3, 5 fixed
    damping-0.85 sweeps) — anchor-quality-weighted authority, the
    crawl-priority signal when links carry trust scores.  Same
    broadcast-iterate shape as pagerank; the weight is recomputed from
    (src, dst) in each batch so no weight column ships (stages/
    linkgraph.py::pagerank_weighted)."""
    from icrawler_ray.stages.linkgraph import derive_edges, pagerank_weighted

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()
    ranks = pagerank_weighted(derive_edges(docs, n), n, iters=5, damping=0.85)
    return pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64),
                         "pr": pd.Series(ranks).round(6)})


def _wpagerank_iter_sql(prev: str, cur: str) -> str:
    return f"""
{cur} AS (
  SELECT {prev}.node,
         0.15e0 / (SELECT cnt FROM nn) + 0.85e0 * COALESCE(c.s, 0e0) AS r
  FROM {prev} LEFT JOIN (
    SELECT e.dst AS node,
           SUM(rp.r * (1 + (e.src + e.dst) % 3) / wd.wdeg) AS s
    FROM edges e JOIN wd ON wd.src = e.src JOIN {prev} rp ON rp.node = e.src
    GROUP BY e.dst
  ) c ON c.node = {prev}.node
)"""


SQL_WEIGHTED_PAGERANK = f"""
WITH {_SQL_EDGES_CTE},
wd AS MATERIALIZED (
  SELECT src, CAST(SUM(1 + (src + dst) % 3) AS DOUBLE) AS wdeg
  FROM edges GROUP BY src),
r0 AS (SELECT d.doc_id AS node, 1e0 / nn.cnt AS r FROM documents d, nn),
{",".join(_wpagerank_iter_sql(f"r{i}", f"r{i + 1}") for i in range(5))}
SELECT node AS doc_id, ROUND(r, 6) AS pr FROM r5 ORDER BY doc_id
"""


def q_type_cooccurrence_lift(sf_dir: str):
    """Market-basket lift between event types: for each unordered type
    pair, the number of users that performed both, and the lift
    n_both * n_users / (n_a * n_b) — the co-behaviour signal that drives
    mixture design ("users who hit errors also purchase?").  Per-block
    (user, type) dedup shrinks the exchange, one groupby(user) emits
    pair/single/user partials, and the final reduce is bounded by the
    type-pair grid (T^2 rows), never by users."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    d = ds.map_batches(lambda df: df.drop_duplicates(), batch_format="pandas")

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        ts = np.unique(g["event_type"].to_numpy())
        a = [""]
        b = [""]
        for i in range(len(ts)):
            a.append(ts[i]); b.append(ts[i])
            for j in range(i + 1, len(ts)):
                a.append(ts[i]); b.append(ts[j])
        return pd.DataFrame({"a": a, "b": b, "n": np.ones(len(a), np.int64)})

    p = d.groupby("user_id").map_groups(per_user, batch_format="pandas")
    parts = p.map_batches(
        lambda df: df.groupby(["a", "b"], as_index=False)["n"].sum(),
        batch_format="pandas").to_pandas()
    agg = parts.groupby(["a", "b"], as_index=False)["n"].sum()
    n_users = int(agg.loc[agg["a"] == "", "n"].iloc[0])
    singles = dict(zip(agg.loc[(agg["a"] == agg["b"]) & (agg["a"] != ""), "a"],
                       agg.loc[(agg["a"] == agg["b"]) & (agg["a"] != ""), "n"]))
    out = agg[(agg["a"] != agg["b"]) & (agg["a"] != "")].copy()
    out["lift"] = (out["n"] * n_users
                   / (out["a"].map(singles) * out["b"].map(singles).astype(np.float64))
                   ).round(6)
    out = out.rename(columns={"a": "type_a", "b": "type_b", "n": "n_both"})
    out["n_both"] = out["n_both"].astype(np.int64)
    return out.sort_values(["type_a", "type_b"]).reset_index(drop=True)


SQL_TYPE_COOCCURRENCE_LIFT = """
WITH ut AS (SELECT DISTINCT user_id, event_type FROM events),
tot AS (SELECT COUNT(DISTINCT user_id) AS n FROM ut),
tc AS (SELECT event_type, COUNT(*) AS c FROM ut GROUP BY event_type)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       CAST(COUNT(*) AS BIGINT) AS n_both,
       ROUND(COUNT(*) * ANY_VALUE(tot.n)
             / (ANY_VALUE(ta.c) * CAST(ANY_VALUE(tb.c) AS DOUBLE)), 6) AS lift
FROM ut a
JOIN ut b ON a.user_id = b.user_id AND a.event_type < b.event_type
JOIN tc ta ON ta.event_type = a.event_type
JOIN tc tb ON tb.event_type = b.event_type
CROSS JOIN tot
GROUP BY a.event_type, b.event_type
ORDER BY type_a, type_b
"""


def q_user_path_prefix(sf_dir: str):
    """Top user journeys: each user's first three event types in (ts,
    event_id) order joined with '>', counted across users — the funnel
    prefix distribution.  One groupby(user) shuffle; the path vocabulary
    (<= T^3 + T^2 + T) reduces with a per-block combiner so the driver
    sees the tiny path frame only."""
    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])

    def path3(g: pd.DataFrame) -> pd.DataFrame:
        h = g.sort_values(["ts", "event_id"], kind="mergesort").head(3)
        return pd.DataFrame({"path": [">".join(h["event_type"])],
                             "n": np.ones(1, np.int64)})

    p = ds.groupby("user_id").map_groups(path3, batch_format="pandas")
    parts = p.map_batches(
        lambda df: df.groupby("path", as_index=False)["n"].sum(),
        batch_format="pandas").to_pandas()
    agg = parts.groupby("path", as_index=False)["n"].sum()
    agg = agg.rename(columns={"n": "n_users"})
    agg["n_users"] = agg["n_users"].astype(np.int64)
    return agg.sort_values(["n_users", "path"],
                           ascending=[False, True]).reset_index(drop=True)


SQL_USER_PATH_PREFIX = """
WITH r AS (SELECT user_id, event_type,
                  ROW_NUMBER() OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id) AS rn
           FROM events),
p AS (SELECT user_id, STRING_AGG(event_type, '>' ORDER BY rn) AS path
      FROM r WHERE rn <= 3 GROUP BY user_id)
SELECT path, CAST(COUNT(*) AS BIGINT) AS n_users
FROM p GROUP BY path ORDER BY n_users DESC, path
"""


def q_ngram_novelty(sf_dir: str):
    """Corpus-order novelty audit: per source, the mean fraction of each
    doc's distinct 3-word shingles already seen in a LOWER doc_id — how
    derivative later shards are of earlier ones (the shard-ordering
    signal for curriculum and dedup budgeting).  Shingle ownership is a
    groupby(shingle) min-doc pass that emits one (doc, tot, old) partial
    per group member; per-doc fractions then reduce by doc_id and
    average per source with combiner partials.  Group size equals a
    shingle's document frequency, so work per group is linear and hot
    stopword shingles stay O(df) — no all-pairs blowup."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    def shingles(df: pd.DataFrame) -> pd.DataFrame:
        out_d, out_s, out_sh = [], [], []
        for did, src, txt in zip(df["doc_id"].to_numpy(),
                                 df["source"].to_numpy(), df["text"]):
            toks = txt.split(" ")
            if len(toks) <= 3:
                sh = {txt}
            else:
                sh = {" ".join(toks[i:i + 3]) for i in range(len(toks) - 2)}
            out_d.extend([did] * len(sh))
            out_s.extend([src] * len(sh))
            out_sh.extend(sh)
        return pd.DataFrame({"doc_id": np.asarray(out_d, np.int64),
                             "source": out_s, "sh": out_sh})

    s = ds.map_batches(shingles, batch_format="pandas")

    def owner(g: pd.DataFrame) -> pd.DataFrame:
        first = g["doc_id"].min()
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(np.int64),
            "source": g["source"].to_numpy(),
            "tot": np.ones(len(g), np.int64),
            "old": (g["doc_id"].to_numpy() > first).astype(np.int64)})

    per = s.groupby("sh").map_groups(owner, batch_format="pandas")
    parts = per.map_batches(
        lambda df: df.groupby(["doc_id", "source"], as_index=False)[["tot", "old"]].sum(),
        batch_format="pandas").to_pandas()
    doc = parts.groupby(["doc_id", "source"], as_index=False)[["tot", "old"]].sum()
    doc["frac"] = doc["old"] / doc["tot"].astype(np.float64)
    out = doc.groupby("source").agg(n_docs=("doc_id", "size"),
                                    avg_seen_frac=("frac", "mean")).reset_index()
    out["n_docs"] = out["n_docs"].astype(np.int64)
    out["avg_seen_frac"] = out["avg_seen_frac"].round(6)
    return out.sort_values("source").reset_index(drop=True)


SQL_NGRAM_NOVELTY = """
WITH tok AS (SELECT doc_id, source, string_split(text, ' ') AS toks
             FROM documents),
shl AS (SELECT doc_id, source,
          CASE WHEN len(toks) <= 3 THEN [array_to_string(toks, ' ')]
               ELSE list_transform(range(1, len(toks) - 1),
                      i -> array_to_string(list_slice(toks, i, i + 2), ' '))
          END AS sh FROM tok),
s AS (SELECT DISTINCT doc_id, source, unnest(sh) AS s FROM shl),
m AS (SELECT s, MIN(doc_id) AS first_doc FROM s GROUP BY s),
d AS (SELECT s.doc_id, s.source, COUNT(*) AS tot,
             SUM(CASE WHEN m.first_doc < s.doc_id THEN 1 ELSE 0 END) AS old
      FROM s JOIN m USING (s) GROUP BY s.doc_id, s.source)
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
       ROUND(AVG(old / CAST(tot AS DOUBLE)), 6) AS avg_seen_frac
FROM d GROUP BY source ORDER BY source
"""


def q_quantization_error(sf_dir: str):
    """Int8 uniform-quantization audit for the embedding store: per-dim
    [min, max] over the corpus defines a 256-level grid; report per-label
    reconstruction MSE — the fidelity check before shipping quantized
    vectors to the ANN tier.  Two combiner passes (per-block dim min/max
    partials -> 64-float broadcast; per-label (sum err^2, n) partials),
    no vector leaves a worker.  Rounding is floor(x + 0.5) on both sides
    so the SQL oracle is exact (stages/similarity.py::_as_matrix)."""
    from icrawler_ray.stages.similarity import _as_matrix

    ds = _read(sf_dir, "embeddings", ["label", "embedding"])

    def mm_partial(t):
        e = _as_matrix(t["embedding"])
        return pd.DataFrame({"dim": np.arange(e.shape[1], dtype=np.int64),
                             "mn": e.min(0), "mx": e.max(0)})

    mm = ds.map_batches(mm_partial, batch_format="pyarrow").to_pandas()
    g = mm.groupby("dim")
    mn = g["mn"].min().to_numpy()
    mx = g["mx"].max().to_numpy()
    step = (mx - mn) / 255.0
    safe = np.where(step == 0, 1.0, step)

    def err_partial(t):
        e = _as_matrix(t["embedding"])
        q = np.floor((e - mn) / safe + 0.5)
        err = np.where(step == 0, 0.0, e - (mn + q * safe))
        df = pd.DataFrame({"label": t["label"].to_numpy(),
                           "sq": (err * err).sum(1),
                           "n": np.full(len(e), e.shape[1], np.int64)})
        return df.groupby("label", as_index=False)[["sq", "n"]].sum()

    parts = ds.map_batches(err_partial, batch_format="pyarrow").to_pandas()
    agg = parts.groupby("label", as_index=False)[["sq", "n"]].sum()
    agg["mse"] = (agg["sq"] / agg["n"]).round(6)
    agg["n_vals"] = agg["n"].astype(np.int64)
    agg["label"] = agg["label"].astype(np.int64)
    return agg[["label", "n_vals", "mse"]].sort_values("label").reset_index(drop=True)


SQL_QUANTIZATION_ERROR = """
WITH f AS (SELECT label, t.i AS dim, CAST(embedding[t.i] AS DOUBLE) AS val
           FROM embeddings CROSS JOIN range(1, 65) t(i)),
mm AS (SELECT dim, MIN(val) AS mn, MAX(val) AS mx FROM f GROUP BY dim),
e AS (SELECT label,
        CASE WHEN mx = mn THEN 0.0
             ELSE val - (mn + FLOOR((val - mn) / ((mx - mn) / 255.0) + 0.5)
                              * ((mx - mn) / 255.0))
        END AS err
      FROM f JOIN mm USING (dim))
SELECT CAST(label AS BIGINT) AS label, CAST(COUNT(*) AS BIGINT) AS n_vals,
       ROUND(AVG(err * err), 6) AS mse
FROM e GROUP BY label ORDER BY label
"""


def q_gini_concentration(sf_dir: str):
    """Gini coefficient of per-user event concentration — the inequality
    audit that tells a crawl/ingest planner how skewed its load is (0 =
    uniform, ->1 = a few users dominate).  Per-user counts come from a
    distributed groupby; the driver then reduces the tiny (count ->
    frequency) histogram with the exact rank-sum identity over tie
    blocks, so driver work is O(distinct count values), never O(users)."""
    ds = _read(sf_dir, "events", ["user_id"])
    counts = ds.groupby("user_id").count()
    parts = counts.map_batches(
        lambda df: df.groupby("count()").size().rename("f").reset_index(),
        batch_format="pandas").to_pandas()
    hist = parts.groupby("count()", as_index=False)["f"].sum()
    v = hist["count()"].to_numpy(np.int64)
    f = hist["f"].to_numpy(np.int64)
    order = np.argsort(v, kind="mergesort")
    v, f = v[order], f[order]
    starts = np.concatenate(([0], np.cumsum(f)[:-1]))
    # sum of ranks (1-based) inside each tie block: f*s + f*(f+1)/2
    rank_sums = f * starts + f * (f + 1) // 2
    s = float((v * rank_sums).sum())
    cnt = int(f.sum())
    tot = int((v * f).sum())
    gini = round(2.0 * s / (cnt * float(tot)) - (cnt + 1.0) / cnt, 6)
    return pd.DataFrame({"gini": [gini], "n_users": np.array([cnt], np.int64),
                         "n_events": np.array([tot], np.int64)})


SQL_GINI_CONCENTRATION = """
WITH c AS (SELECT user_id, COUNT(*) AS n FROM events GROUP BY user_id),
r AS (SELECT n, ROW_NUMBER() OVER (ORDER BY n) AS rk FROM c),
t AS (SELECT COUNT(*) AS cnt, SUM(n) AS tot, SUM(rk * n) AS s FROM r)
SELECT ROUND(2.0 * s / (cnt * CAST(tot AS DOUBLE)) - (cnt + 1.0) / cnt, 6)
         AS gini,
       CAST(cnt AS BIGINT) AS n_users, CAST(tot AS BIGINT) AS n_events
FROM t
"""


def q_hour_profile(sf_dir: str):
    """Hour-of-day load profile per event type: count, mean value and
    within-type share for each (type, hour) cell — the recrawl/ingest
    scheduling heatmap.  Single combiner pass: per-block (type, hour) ->
    (n, sum value) partials; the 24 x T final grid reduces on the
    driver."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(hod=df["ts"].dt.hour.astype(np.int64))
        g = df.groupby(["event_type", "hod"])
        return g.agg(n=("value", "size"), sv=("value", "sum")).reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    agg = parts.groupby(["event_type", "hod"], as_index=False)[["n", "sv"]].sum()
    agg["avg_value"] = (agg["sv"] / agg["n"]).round(6)
    agg["share"] = (agg["n"] / agg.groupby("event_type")["n"].transform("sum")
                    .astype(np.float64)).round(6)
    agg["n"] = agg["n"].astype(np.int64)
    return (agg[["event_type", "hod", "n", "avg_value", "share"]]
            .sort_values(["event_type", "hod"]).reset_index(drop=True))


SQL_HOUR_PROFILE = """
SELECT event_type, CAST(EXTRACT(hour FROM ts) AS BIGINT) AS hod,
       CAST(COUNT(*) AS BIGINT) AS n, ROUND(AVG(value), 6) AS avg_value,
       ROUND(COUNT(*) / CAST(SUM(COUNT(*)) OVER (PARTITION BY event_type)
                             AS DOUBLE), 6) AS share
FROM events GROUP BY event_type, hod ORDER BY event_type, hod
"""


def q_degree_powerlaw(sf_dir: str):
    """Power-law tail fit over link-graph in-degrees: the discrete MLE
    alpha = 1 + n / sum ln(d / (dmin - 0.5)) over nodes with d >= dmin=2
    (Clauset, Shalizi & Newman 2009) — the topology health check that
    separates organic webs from link farms.  Degrees come from one
    distributed groupby(dst); alpha reduces over the tiny (degree ->
    frequency) histogram, so driver work is O(distinct degrees)."""
    from icrawler_ray.stages.linkgraph import derive_edges

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()
    deg = derive_edges(docs, n).groupby("dst").count()
    parts = deg.map_batches(
        lambda df: df.groupby("count()").size().rename("f").reset_index(),
        batch_format="pandas").to_pandas()
    hist = parts.groupby("count()", as_index=False)["f"].sum()
    d = hist["count()"].to_numpy(np.int64)
    f = hist["f"].to_numpy(np.int64)
    tail = d >= 2
    n_tail = int(f[tail].sum())
    s = float((f[tail] * np.log(d[tail] / 1.5)).sum())
    return pd.DataFrame({"alpha": [round(1.0 + n_tail / s, 6)],
                         "n_tail": np.array([n_tail], np.int64),
                         "dmin": np.array([2], np.int64)})


SQL_DEGREE_POWERLAW = f"""
WITH {_SQL_EDGES_CTE},
deg AS (SELECT dst, COUNT(*) AS d FROM edges GROUP BY dst),
t AS (SELECT d FROM deg WHERE d >= 2)
SELECT ROUND(1.0 + COUNT(*) / SUM(LN(d / 1.5)), 6) AS alpha,
       CAST(COUNT(*) AS BIGINT) AS n_tail, CAST(2 AS BIGINT) AS dmin
FROM t
"""


def q_transition_latency(sf_dir: str):
    """Per (prev_type -> type) transition: count and mean inter-event gap
    in seconds — the timing layer over per-user type transitions that a
    session model or recrawl scheduler consumes.  One groupby(user) shuffle;
    each group emits per-transition (n, sum-gap) partials (microsecond
    integers -> double once), the T^2 grid reduces via combiner."""
    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])

    def trans(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"], kind="mergesort")
        if len(g) < 2:
            return pd.DataFrame({"prev_type": pd.Series([], dtype=str),
                                 "event_type": pd.Series([], dtype=str),
                                 "n": pd.Series([], dtype=np.int64),
                                 "s": pd.Series([], dtype=np.float64)})
        et = g["event_type"].to_numpy()
        us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        df = pd.DataFrame({"prev_type": et[:-1], "event_type": et[1:],
                           "n": np.ones(len(g) - 1, np.int64),
                           "s": np.diff(us) / 1e6})
        return df.groupby(["prev_type", "event_type"], as_index=False)[["n", "s"]].sum()

    p = ds.groupby("user_id").map_groups(trans, batch_format="pandas")
    parts = p.map_batches(
        lambda df: df.groupby(["prev_type", "event_type"], as_index=False)[["n", "s"]].sum(),
        batch_format="pandas").to_pandas()
    agg = parts.groupby(["prev_type", "event_type"], as_index=False)[["n", "s"]].sum()
    agg["avg_gap_s"] = (agg["s"] / agg["n"]).round(6)
    agg["n"] = agg["n"].astype(np.int64)
    return (agg[["prev_type", "event_type", "n", "avg_gap_s"]]
            .sort_values(["prev_type", "event_type"]).reset_index(drop=True))


SQL_TRANSITION_LATENCY = """
WITH r AS (SELECT user_id, event_type, ts,
                  LAG(event_type) OVER w AS prev_type,
                  LAG(ts) OVER w AS prev_ts
           FROM events
           WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
SELECT prev_type, event_type, CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(AVG(date_diff('microsecond', prev_ts, ts) / 1e6), 6) AS avg_gap_s
FROM r WHERE prev_type IS NOT NULL
GROUP BY prev_type, event_type ORDER BY prev_type, event_type
"""


def q_knn_label_accuracy(sf_dir: str):
    """Embedding-quality eval: leave-one-out 1-NN label agreement for a
    deterministic 10% query sample (vec_id % 10 = 0) against the full
    corpus — the standard probe for "do these embeddings cluster by
    label".  Same shape as brute_force_topk: the sample matrix rides
    ray.put once, each corpus batch emits ONE candidate row per query
    (tie-safe sim desc / id asc), and the final merge + per-label
    accuracy reduce is query-sample-sized.  Eval sets are small by
    construction; a corpus-x-corpus variant routes through knn_ivf."""
    from icrawler_ray.stages.similarity import _as_matrix, _normalize

    ds = _read(sf_dir, "embeddings", ["vec_id", "label", "embedding"])
    sample = ds.map_batches(
        lambda df: df[df["vec_id"] % 10 == 0], batch_format="pandas").to_pandas()
    qids = sample["vec_id"].to_numpy(np.int64)
    qlab = sample["label"].to_numpy(np.int64)
    qn = _normalize(np.asarray(sample["embedding"].tolist(), dtype=np.float64))
    q_ref = ray.put(qn)

    def partial(t):
        q = ray.get(q_ref)
        m = _normalize(_as_matrix(t["embedding"]))
        ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        labs = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        sims = q @ m.T
        # mask self-matches, then keep the single best candidate per query
        sims[qids[:, None] == ids[None, :]] = -np.inf
        best = np.empty(len(q), np.int64)
        for i in range(len(q)):
            best[i] = np.lexsort((ids, -sims[i]))[0]
        return pd.DataFrame({"qid": qids, "qlabel": qlab,
                             "sim": sims[np.arange(len(q)), best],
                             "nid": ids[best], "nlabel": labs[best]})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    win = (parts.sort_values(["qid", "sim", "nid"],
                             ascending=[True, False, True], kind="mergesort")
           .groupby("qid", as_index=False).first())
    win["hit"] = (win["qlabel"] == win["nlabel"]).astype(np.float64)
    out = win.groupby("qlabel", as_index=False).agg(n_queries=("hit", "size"),
                                                    acc=("hit", "mean"))
    out = out.rename(columns={"qlabel": "label"})
    out["label"] = out["label"].astype(np.int64)
    out["n_queries"] = out["n_queries"].astype(np.int64)
    out["acc"] = out["acc"].round(6)
    return out.sort_values("label").reset_index(drop=True)


SQL_KNN_LABEL_ACCURACY = """
WITH q AS (SELECT vec_id, label, embedding FROM embeddings
           WHERE vec_id % 10 = 0),
s AS (SELECT q.vec_id AS qid, q.label AS qlabel, c.label AS nlabel,
             list_cosine_similarity(CAST(q.embedding AS DOUBLE[]),
                                    CAST(c.embedding AS DOUBLE[])) AS sim,
             c.vec_id AS cid
      FROM q JOIN embeddings c ON c.vec_id <> q.vec_id),
b AS (SELECT qid, qlabel, nlabel FROM s
      QUALIFY ROW_NUMBER() OVER (PARTITION BY qid
                                 ORDER BY sim DESC, cid) = 1)
SELECT CAST(qlabel AS BIGINT) AS label, CAST(COUNT(*) AS BIGINT) AS n_queries,
       ROUND(AVG(CASE WHEN nlabel = qlabel THEN 1.0 ELSE 0.0 END), 6) AS acc
FROM b GROUP BY qlabel ORDER BY label
"""


def q_brand_price_profile(sf_dir: str):
    """Per-brand part profile: count, exact mean retail price (integer
    cents), discrete median size and PROMO-type share — the catalog
    rollup shape (brand x size histogram combiner, driver reduce bounded
    by the brand-size grid)."""
    ds = _read(sf_dir, "part", ["p_brand", "p_type", "p_size", "p_retailprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(
            cents=np.round(df["p_retailprice"].to_numpy() * 100).astype(np.int64),
            promo=(df["p_type"] == "PROMO").astype(np.int64))
        g = df.groupby(["p_brand", "p_size"])
        return g.agg(n=("cents", "size"), sc=("cents", "sum"),
                     np_=("promo", "sum")).reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    grid = parts.groupby(["p_brand", "p_size"], as_index=False)[["n", "sc", "np_"]].sum()
    rows = []
    for brand, g in grid.groupby("p_brand"):
        n = int(g["n"].sum())
        v = g["p_size"].to_numpy(np.int64)
        c = g["n"].to_numpy(np.int64)
        order = np.argsort(v, kind="mergesort")
        v, c = v[order], c[order]
        cum = np.cumsum(c)
        p50 = int(v[np.searchsorted(cum, int(np.ceil(0.5 * n)))])
        rows.append({"p_brand": brand, "n_parts": np.int64(n),
                     "avg_price": round(int(g["sc"].sum()) / (100.0 * n), 6),
                     "p50_size": np.int64(p50),
                     "promo_share": round(int(g["np_"].sum()) / float(n), 6)})
    return pd.DataFrame(rows).sort_values("p_brand").reset_index(drop=True)


SQL_BRAND_PRICE_PROFILE = """
SELECT p_brand, CAST(COUNT(*) AS BIGINT) AS n_parts,
       ROUND(SUM(CAST(ROUND(p_retailprice * 100) AS BIGINT))
             / (100.0 * COUNT(*)), 6) AS avg_price,
       CAST(quantile_disc(p_size, 0.5) AS BIGINT) AS p50_size,
       ROUND(SUM(CASE WHEN p_type = 'PROMO' THEN 1 ELSE 0 END)
             / CAST(COUNT(*) AS DOUBLE), 6) AS promo_share
FROM part GROUP BY p_brand ORDER BY p_brand
"""


def q_priority_mix_monthly(sf_dir: str):
    """Order-priority mix per month: count and within-month share for
    each (month, priority) cell — the seasonality slice of the order
    stream.  One combiner pass; the month x priority grid reduces on the
    driver."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_orderpriority"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(month=pd.to_datetime(df["o_orderdate"]).dt.strftime("%Y-%m"))
        return df.groupby(["month", "o_orderpriority"]).size().rename("n").reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    agg = parts.groupby(["month", "o_orderpriority"], as_index=False)["n"].sum()
    agg["share"] = (agg["n"]
                    / agg.groupby("month")["n"].transform("sum").astype(np.float64)
                    ).round(6)
    agg["n"] = agg["n"].astype(np.int64)
    return (agg.sort_values(["month", "o_orderpriority"])
            .reset_index(drop=True))


SQL_PRIORITY_MIX_MONTHLY = """
SELECT strftime(o_orderdate, '%Y-%m') AS month, o_orderpriority,
       CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(COUNT(*) / CAST(SUM(COUNT(*)) OVER (PARTITION BY
             strftime(o_orderdate, '%Y-%m')) AS DOUBLE), 6) AS share
FROM orders GROUP BY month, o_orderpriority ORDER BY month, o_orderpriority
"""


def q_kmv_distinct(sf_dir: str):
    """K-minimum-values distinct-count sketch over the corpus vocabulary
    (Bar-Yossef et al. 2002): estimate = (k-1) / u_k where u_k is the
    k-th smallest normalized md5 of a term — the second mergeable
    cardinality sketch next to HLL, exact-replayable because the hash is
    md5 (stages/dedup.py::md5_pair convention).  Per-block partials are
    bottom-k hash arrays (k=256 uint64s, mergeable by concat+partition);
    the exact reference count comes from one vocabulary-bucketed
    identity exchange.  Reported together so the sketch's relative error
    is part of the oracle-checked contract."""
    from icrawler_ray.stages.dedup import md5_pair

    K = 256
    ds = _read(sf_dir, "documents", ["text"])

    def bottom_k(df: pd.DataFrame) -> pd.DataFrame:
        terms = set()
        for txt in df["text"]:
            terms.update(txt.split(" "))
        h = md5_pair(sorted(terms))[:, 0]
        if len(h) > K:
            h = np.partition(h, K - 1)[:K]
        return pd.DataFrame({"h": h})

    hs = ds.map_batches(bottom_k, batch_format="pandas").to_pandas()["h"] \
        .to_numpy(np.uint64)
    hs = np.unique(hs)

    def uniq_terms(df: pd.DataFrame) -> pd.DataFrame:
        terms = set()
        for txt in df["text"]:
            terms.update(txt.split(" "))
        return pd.DataFrame({"term": sorted(terms)})

    n_exact = int(ds.map_batches(uniq_terms, batch_format="pandas")
                  .groupby("term").count().count())
    if len(hs) <= K:
        est = float(len(hs))
    else:
        hk = float(np.sort(hs)[K - 1])
        est = (K - 1) * 18446744073709551616.0 / (hk + 1.0)
    est = round(est, 2)
    return pd.DataFrame({
        "n_exact": np.array([n_exact], np.int64),
        "kmv_est": [est],
        "rel_err": [round(abs(est - n_exact) / n_exact, 6)]})


SQL_KMV_DISTINCT = """
WITH t AS (SELECT DISTINCT unnest(string_split(text, ' ')) AS term
           FROM documents),
h AS (SELECT CAST(md5_number_lower(term) AS HUGEINT) AS h FROM t),
r AS (SELECT h, ROW_NUMBER() OVER (ORDER BY h) AS rk, COUNT(*) OVER () AS n
      FROM h),
e AS (SELECT CASE WHEN MAX(n) <= 256 THEN CAST(MAX(n) AS DOUBLE)
                  ELSE 255 * 18446744073709551616.0
                       / (MAX(CASE WHEN rk = 256 THEN CAST(h AS DOUBLE) END)
                          + 1.0)
             END AS est, MAX(n) AS n
      FROM r)
SELECT CAST(n AS BIGINT) AS n_exact, ROUND(est, 2) AS kmv_est,
       ROUND(ABS(ROUND(est, 2) - n) / n, 6) AS rel_err
FROM e
"""


def q_lognormal_fit(sf_dir: str):
    """Log-normal moment fit of document length per source: mu =
    mean(ln n_chars), sigma = population std of ln n_chars — the
    two-parameter summary a mixture planner samples synthetic lengths
    from.  One combiner pass of (n, sum ln, sum ln^2) partials per
    source."""
    ds = _read(sf_dir, "documents", ["source", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ln = np.log(df["n_chars"].to_numpy(np.float64))
        g = pd.DataFrame({"source": df["source"], "ln": ln, "ln2": ln * ln,
                          "n": np.ones(len(df), np.int64)})
        return g.groupby("source", as_index=False)[["ln", "ln2", "n"]].sum()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    agg = parts.groupby("source", as_index=False)[["ln", "ln2", "n"]].sum()
    mu = agg["ln"] / agg["n"]
    var = agg["ln2"] / agg["n"] - mu * mu
    out = pd.DataFrame({"source": agg["source"],
                        "n": agg["n"].astype(np.int64),
                        "mu": mu.round(6),
                        "sigma": np.sqrt(np.maximum(var, 0.0)).round(6)})
    return out.sort_values("source").reset_index(drop=True)


SQL_LOGNORMAL_FIT = """
SELECT source, CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(SUM(LN(n_chars)) / COUNT(*), 6) AS mu,
       ROUND(SQRT(GREATEST(SUM(LN(n_chars) * LN(n_chars)) / COUNT(*)
                           - (SUM(LN(n_chars)) / COUNT(*))
                             * (SUM(LN(n_chars)) / COUNT(*)), 0.0)), 6)
         AS sigma
FROM documents GROUP BY source ORDER BY source
"""


def q_negsample_weights(sf_dir: str):
    """word2vec negative-sampling table head: the 30 most frequent terms
    with p(term) = count^0.75 / sum(count^0.75) over the FULL vocabulary
    (Mikolov et al. 2013).  One vocabulary-bucketed exchange builds
    global counts; each post-exchange block then emits its local top-30
    candidates plus ONE partial-normalizer row (sum of count^0.75), so
    the driver reduce is output-sized, never vocabulary-sized."""
    ds = _read(sf_dir, "documents", ["text"])

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        t = df["text"].str.split(" ").explode()
        return t.groupby(t, sort=False).size().rename("n") \
            .rename_axis("term").reset_index()

    vocab = ds.map_batches(counts, batch_format="pandas") \
        .groupby("term").sum("n")

    def block_top(df: pd.DataFrame) -> pd.DataFrame:
        pw = float(np.power(df["sum(n)"].to_numpy(np.float64), 0.75).sum())
        top = df.sort_values(["sum(n)", "term"], ascending=[False, True],
                             kind="mergesort").head(30)
        return pd.DataFrame({
            "term": np.concatenate((top["term"].to_numpy(), [""])),
            "n": np.concatenate((top["sum(n)"].to_numpy(np.int64), [0])),
            "pw": np.concatenate((np.zeros(len(top)), [pw]))})

    parts = vocab.map_batches(block_top, batch_format="pandas").to_pandas()
    z = float(parts.loc[parts["term"] == "", "pw"].sum())
    cand = parts[parts["term"] != ""].sort_values(
        ["n", "term"], ascending=[False, True], kind="mergesort").head(30)
    out = pd.DataFrame({
        "term": cand["term"].to_numpy(),
        "n": cand["n"].to_numpy(np.int64),
        "rank": np.arange(1, len(cand) + 1, dtype=np.int64),
        "p": np.round(np.power(cand["n"].to_numpy(np.float64), 0.75) / z, 6)})
    return out.reset_index(drop=True)


SQL_NEGSAMPLE_WEIGHTS = """
WITH t AS (SELECT unnest(string_split(text, ' ')) AS term FROM documents),
c AS (SELECT term, COUNT(*) AS n FROM t GROUP BY term),
z AS (SELECT SUM(POWER(n, 0.75)) AS z FROM c),
r AS (SELECT term, n, ROW_NUMBER() OVER (ORDER BY n DESC, term) AS rank
      FROM c)
SELECT term, CAST(n AS BIGINT) AS n, rank,
       ROUND(POWER(n, 0.75) / z.z, 6) AS p
FROM r, z WHERE rank <= 30 ORDER BY rank
"""


def q_type_hour_mi(sf_dir: str):
    """Mutual information (nats) between event type and hour-of-day —
    the scalar dependence audit over the hour_profile grid: does load
    shape differ by type enough to schedule per-type?  One (type, hour)
    combiner pass; MI reduces over the 24 x T grid on the driver."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"event_type": df["event_type"],
                          "hod": df["ts"].dt.hour.astype(np.int64)})
        return g.groupby(["event_type", "hod"]).size().rename("n").reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    grid = parts.groupby(["event_type", "hod"], as_index=False)["n"].sum()
    n = float(grid["n"].sum())
    pt = grid.groupby("event_type")["n"].transform("sum").to_numpy(np.float64) / n
    ph = grid.groupby("hod")["n"].transform("sum").to_numpy(np.float64) / n
    pj = grid["n"].to_numpy(np.float64) / n
    mi = float((pj * np.log(pj / (pt * ph))).sum())
    return pd.DataFrame({"mi_nats": [round(mi, 6)],
                         "n_events": np.array([int(n)], np.int64),
                         "n_cells": np.array([len(grid)], np.int64)})


SQL_TYPE_HOUR_MI = """
WITH g AS (SELECT event_type, EXTRACT(hour FROM ts) AS hod, COUNT(*) AS n
           FROM events GROUP BY event_type, hod),
tot AS (SELECT SUM(n) AS n FROM g),
pt AS (SELECT event_type, SUM(n) AS nt FROM g GROUP BY event_type),
ph AS (SELECT hod, SUM(n) AS nh FROM g GROUP BY hod)
SELECT ROUND(SUM((g.n / CAST(tot.n AS DOUBLE))
             * LN((g.n * CAST(tot.n AS DOUBLE))
                  / (CAST(pt.nt AS DOUBLE) * ph.nh))), 6) AS mi_nats,
       CAST(MAX(tot.n) AS BIGINT) AS n_events,
       CAST(COUNT(*) AS BIGINT) AS n_cells
FROM g JOIN pt USING (event_type) JOIN ph USING (hod) CROSS JOIN tot
"""


def q_rare_category_merge(sf_dir: str):
    """Rare-category consolidation: sources under 1% corpus share merge
    into 'OTHER' (the standard preprocessing step before stratification
    keys explode); per merged category, count and share.  One per-source
    combiner pass, merge decided on the tiny category frame."""
    ds = _read(sf_dir, "documents", ["source"])
    parts = ds.map_batches(
        lambda df: df.groupby("source").size().rename("n").reset_index(),
        batch_format="pandas").to_pandas()
    c = parts.groupby("source", as_index=False)["n"].sum()
    tot = int(c["n"].sum())
    c["cat"] = np.where(c["n"] < 0.01 * tot, "OTHER", c["source"])
    out = c.groupby("cat", as_index=False)["n"].sum()
    out["share"] = (out["n"] / float(tot)).round(6)
    out["n"] = out["n"].astype(np.int64)
    return out.sort_values("cat").reset_index(drop=True)


SQL_RARE_CATEGORY_MERGE = """
WITH c AS (SELECT source, COUNT(*) AS n FROM documents GROUP BY source),
t AS (SELECT SUM(n) AS tot FROM c),
m AS (SELECT CASE WHEN c.n < 0.01 * t.tot THEN 'OTHER' ELSE c.source END
        AS cat, c.n
      FROM c CROSS JOIN t)
SELECT cat, CAST(SUM(n) AS BIGINT) AS n,
       ROUND(SUM(n) / CAST((SELECT tot FROM t) AS DOUBLE), 6) AS share
FROM m GROUP BY cat ORDER BY cat
"""


def q_vocab_churn(sf_dir: str):
    """Vocabulary churn between corpus halves: the top-20 terms (count
    desc, term asc) of doc_id < n/2 vs the rest, as ranked rows — the
    drift audit a recrawl scheduler reads before refreshing a shard.
    One (half, term) vocabulary exchange; each post-exchange block emits
    its per-half top-20 candidates so the driver merge is output-sized."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = docs.count()
    split = n_docs // 2

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        half = (df["doc_id"].to_numpy(np.int64) >= split).astype(np.int64)
        t = pd.DataFrame({"half": half, "term": df["text"].str.split(" ")}) \
            .explode("term")
        return t.groupby(["half", "term"], sort=False).size().rename("n") \
            .reset_index()

    vocab = docs.map_batches(counts, batch_format="pandas") \
        .groupby(["half", "term"]).sum("n")

    def block_top(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["half", "sum(n)", "term"],
                              ascending=[True, False, True],
                              kind="mergesort").groupby("half").head(20)

    parts = vocab.map_batches(block_top, batch_format="pandas").to_pandas()
    top = parts.sort_values(["half", "sum(n)", "term"],
                            ascending=[True, False, True], kind="mergesort") \
        .groupby("half").head(20)
    top = top.rename(columns={"sum(n)": "n"})
    top["rank"] = (top.groupby("half").cumcount() + 1).astype(np.int64)
    top["half"] = top["half"].astype(np.int64)
    top["n"] = top["n"].astype(np.int64)
    return top[["half", "rank", "term", "n"]].reset_index(drop=True)


SQL_VOCAB_CHURN = """
WITH nn AS (SELECT COUNT(*) AS cnt FROM documents),
t AS (SELECT CASE WHEN doc_id >= nn.cnt // 2 THEN 1 ELSE 0 END AS half,
             unnest(string_split(text, ' ')) AS term
      FROM documents CROSS JOIN nn),
c AS (SELECT half, term, COUNT(*) AS n FROM t GROUP BY half, term),
r AS (SELECT half, term, n,
             ROW_NUMBER() OVER (PARTITION BY half
                                ORDER BY n DESC, term) AS rank
      FROM c)
SELECT CAST(half AS BIGINT) AS half, rank, term, CAST(n AS BIGINT) AS n
FROM r WHERE rank <= 20 ORDER BY half, rank
"""


def q_lines_per_order_dist(sf_dir: str):
    """Distribution of lineitem counts per order: (n_lines -> n_orders,
    share) — the fan-out histogram that sizes a join's skew budget.  One
    distributed groupby(orderkey) over the big table, then a histogram
    combiner over the order-sized frame; the driver sees only the tiny
    (distinct fan-out) grid."""
    ds = _read(sf_dir, "lineitem", ["l_orderkey"])
    per = ds.groupby("l_orderkey").count()
    parts = per.map_batches(
        lambda df: df.groupby("count()").size().rename("f").reset_index(),
        batch_format="pandas").to_pandas()
    hist = parts.groupby("count()", as_index=False)["f"].sum()
    tot = int(hist["f"].sum())
    out = pd.DataFrame({"n_lines": hist["count()"].astype(np.int64),
                        "n_orders": hist["f"].astype(np.int64),
                        "share": (hist["f"] / float(tot)).round(6)})
    return out.sort_values("n_lines").reset_index(drop=True)


SQL_LINES_PER_ORDER_DIST = """
WITH c AS (SELECT l_orderkey, COUNT(*) AS n FROM lineitem GROUP BY l_orderkey)
SELECT CAST(n AS BIGINT) AS n_lines, CAST(COUNT(*) AS BIGINT) AS n_orders,
       ROUND(COUNT(*) / CAST(SUM(COUNT(*)) OVER () AS DOUBLE), 6) AS share
FROM c GROUP BY n ORDER BY n_lines
"""


def q_discount_revenue_curve(sf_dir: str):
    """Revenue response by discount level: per distinct l_discount, line
    count, mean discounted revenue and share of total discounted revenue
    — the pricing-curve rollup.  One (discount -> n, sum revenue)
    combiner pass; discounts group by their exact stored doubles on both
    sides."""
    ds = _read(sf_dir, "lineitem", ["l_discount", "l_extendedprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rev = df["l_extendedprice"].to_numpy() * (1.0 - df["l_discount"].to_numpy())
        g = pd.DataFrame({"l_discount": df["l_discount"], "rev": rev,
                          "n": np.ones(len(df), np.int64)})
        return g.groupby("l_discount", as_index=False)[["rev", "n"]].sum()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    agg = parts.groupby("l_discount", as_index=False)[["rev", "n"]].sum()
    tot = float(agg["rev"].sum())
    out = pd.DataFrame({"l_discount": agg["l_discount"],
                        "n": agg["n"].astype(np.int64),
                        "avg_revenue": (agg["rev"] / agg["n"]).round(6),
                        "rev_share": (agg["rev"] / tot).round(6)})
    return out.sort_values("l_discount").reset_index(drop=True)


SQL_DISCOUNT_REVENUE_CURVE = """
WITH g AS (SELECT l_discount, COUNT(*) AS n,
                  SUM(l_extendedprice * (1.0 - l_discount)) AS rev
           FROM lineitem GROUP BY l_discount)
SELECT l_discount, CAST(n AS BIGINT) AS n, ROUND(rev / n, 6) AS avg_revenue,
       ROUND(rev / CAST((SELECT SUM(rev) FROM g) AS DOUBLE), 6) AS rev_share
FROM g ORDER BY l_discount
"""


def q_supplier_region_acctbal(sf_dir: str):
    """Supplier account-balance rollup by region through the two small
    dimension tables: the canonical broadcast-join shape (nation+region
    ride ray.put as one dict; the supplier scan never shuffles).  Cent-
    integer sums keep the mean exact."""
    nat = _read(sf_dir, "nation", ["n_nationkey", "n_regionkey"]).to_pandas()
    reg = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    n2r = dict(zip(nat["n_nationkey"],
                   nat["n_regionkey"].map(dict(zip(reg["r_regionkey"],
                                                   reg["r_name"])))))
    ref = ray.put(n2r)
    ds = _read(sf_dir, "supplier", ["s_nationkey", "s_acctbal"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(ref)
        g = pd.DataFrame({
            "r_name": df["s_nationkey"].map(m),
            "cents": np.round(df["s_acctbal"].to_numpy() * 100).astype(np.int64),
            "n": np.ones(len(df), np.int64)})
        return g.groupby("r_name", as_index=False).agg(
            sc=("cents", "sum"), n=("n", "sum"),
            mn=("cents", "min"), mx=("cents", "max"))

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    agg = parts.groupby("r_name", as_index=False).agg(
        sc=("sc", "sum"), n=("n", "sum"), mn=("mn", "min"), mx=("mx", "max"))
    out = pd.DataFrame({"r_name": agg["r_name"],
                        "n_suppliers": agg["n"].astype(np.int64),
                        "avg_acctbal": (agg["sc"] / (100.0 * agg["n"])).round(6),
                        "min_acctbal": (agg["mn"] / 100.0).round(2),
                        "max_acctbal": (agg["mx"] / 100.0).round(2)})
    return out.sort_values("r_name").reset_index(drop=True)


SQL_SUPPLIER_REGION_ACCTBAL = """
SELECT r.r_name,
       CAST(COUNT(*) AS BIGINT) AS n_suppliers,
       ROUND(SUM(CAST(ROUND(s.s_acctbal * 100) AS BIGINT))
             / (100.0 * COUNT(*)), 6) AS avg_acctbal,
       ROUND(MIN(CAST(ROUND(s.s_acctbal * 100) AS BIGINT)) / 100.0, 2)
         AS min_acctbal,
       ROUND(MAX(CAST(ROUND(s.s_acctbal * 100) AS BIGINT)) / 100.0, 2)
         AS max_acctbal
FROM supplier s JOIN nation n ON n.n_nationkey = s.s_nationkey
JOIN region r ON r.r_regionkey = n.n_regionkey
GROUP BY r.r_name ORDER BY r.r_name
"""


def q_label_centroid_affinity(sf_dir: str):
    """Pairwise cosine between label centroids (mean vectors) — the
    cluster-confusability matrix that predicts which labels a classifier
    or ANN router will mix up.  Per-block (label -> sum vec, n) partials
    reduce to a k x dim grid on the driver; the pairwise pass is
    k^2-bounded."""
    from icrawler_ray.stages.similarity import _as_matrix

    ds = _read(sf_dir, "embeddings", ["label", "embedding"])

    def partial(t):
        e = _as_matrix(t["embedding"])
        lab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        rows = []
        for lb in np.unique(lab):
            m = lab == lb
            rows.append({"label": int(lb), "n": int(m.sum()),
                         "s": e[m].sum(0).tolist()})
        return pd.DataFrame(rows)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    labs, cents = [], []
    for lb, g in parts.groupby("label"):
        s = np.sum(np.stack(g["s"].to_numpy()), axis=0)
        labs.append(int(lb))
        cents.append(s / float(g["n"].sum()))
    labs = np.asarray(labs)
    c = np.stack(cents)
    nrm = np.linalg.norm(c, axis=1)
    sims = (c @ c.T) / (nrm[:, None] * nrm[None, :])
    ia, ib = np.triu_indices(len(labs), k=1)
    out = pd.DataFrame({"label_a": labs[ia].astype(np.int64),
                        "label_b": labs[ib].astype(np.int64),
                        "cos": np.round(sims[ia, ib], 6)})
    return out.sort_values(["label_a", "label_b"]).reset_index(drop=True)


SQL_LABEL_CENTROID_AFFINITY = """
WITH f AS (SELECT label, t.i AS dim,
                  AVG(CAST(embedding[t.i] AS DOUBLE)) AS m
           FROM embeddings CROSS JOIN range(1, 65) t(i)
           GROUP BY label, t.i),
nrm AS (SELECT label, SQRT(SUM(m * m)) AS nrm FROM f GROUP BY label),
p AS (SELECT a.label AS label_a, b.label AS label_b, SUM(a.m * b.m) AS dot
      FROM f a JOIN f b ON a.dim = b.dim AND a.label < b.label
      GROUP BY a.label, b.label)
SELECT CAST(label_a AS BIGINT) AS label_a, CAST(label_b AS BIGINT) AS label_b,
       ROUND(dot / (na.nrm * nb.nrm), 6) AS cos
FROM p JOIN nrm na ON na.label = p.label_a JOIN nrm nb ON nb.label = p.label_b
ORDER BY label_a, label_b
"""


def q_status_priority_chi2(sf_dir: str):
    """Chi-square independence test between order status and priority:
    the categorical-dependence audit (does priority shift the status
    mix?).  One contingency-grid combiner pass; the statistic reduces
    over the S x P grid on the driver."""
    ds = _read(sf_dir, "orders", ["o_orderstatus", "o_orderpriority"])
    parts = ds.map_batches(
        lambda df: df.groupby(["o_orderstatus", "o_orderpriority"]).size()
        .rename("n").reset_index(),
        batch_format="pandas").to_pandas()
    grid = parts.groupby(["o_orderstatus", "o_orderpriority"],
                         as_index=False)["n"].sum()
    n = float(grid["n"].sum())
    rs = grid.groupby("o_orderstatus")["n"].transform("sum").to_numpy(np.float64)
    cs = grid.groupby("o_orderpriority")["n"].transform("sum").to_numpy(np.float64)
    e = rs * cs / n
    o = grid["n"].to_numpy(np.float64)
    chi2 = float(((o - e) ** 2 / e).sum())
    n_s = grid["o_orderstatus"].nunique()
    n_p = grid["o_orderpriority"].nunique()
    return pd.DataFrame({"chi2": [round(chi2, 6)],
                         "dof": np.array([(n_s - 1) * (n_p - 1)], np.int64),
                         "n": np.array([int(n)], np.int64)})


SQL_STATUS_PRIORITY_CHI2 = """
WITH g AS (SELECT o_orderstatus AS s, o_orderpriority AS p, COUNT(*) AS n
           FROM orders GROUP BY s, p),
tot AS (SELECT SUM(n) AS n FROM g),
rs AS (SELECT s, SUM(n) AS rn FROM g GROUP BY s),
cs AS (SELECT p, SUM(n) AS cn FROM g GROUP BY p)
SELECT ROUND(SUM(POWER(g.n - rs.rn * cs.cn / CAST(tot.n AS DOUBLE), 2)
             / (rs.rn * cs.cn / CAST(tot.n AS DOUBLE))), 6) AS chi2,
       CAST(((SELECT COUNT(*) FROM rs) - 1)
            * ((SELECT COUNT(*) FROM cs) - 1) AS BIGINT) AS dof,
       CAST(MAX(tot.n) AS BIGINT) AS n
FROM g JOIN rs USING (s) JOIN cs USING (p) CROSS JOIN tot
"""


def q_lang_embedding_norm(sf_dir: str):
    """Cross-modal join: documents ⋈ embeddings on doc_id = vec_id, then
    per-language mean L2 norm — the text-metadata-to-vector-store hookup
    every curation pipeline needs.  The vector side reduces to a narrow
    (id, norm) frame BEFORE the join; the join itself is the repo's
    salted hash join (stages/joins.py::salted_hash_join) with a combiner
    agg_fn, so only per-lang (n, sum norm) partials leave the join
    stage."""
    from icrawler_ray.stages.joins import salted_hash_join
    from icrawler_ray.stages.similarity import _as_matrix

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])

    def norms(t):
        e = _as_matrix(t["embedding"])
        return pd.DataFrame({
            "doc_id": t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            "nrm": np.sqrt((e * e).sum(1))})

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"]) \
        .map_batches(norms, batch_format="pyarrow")

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        p = pd.DataFrame({"lang": g["lang"], "nrm": g["nrm"],
                          "n": np.ones(len(g), np.int64)})
        return p.groupby("lang", as_index=False)[["nrm", "n"]].sum()

    parts = salted_hash_join(docs, emb, "doc_id", agg_fn=agg).to_pandas()
    out = parts.groupby("lang", as_index=False)[["nrm", "n"]].sum()
    return pd.DataFrame({"lang": out["lang"],
                         "n": out["n"].astype(np.int64),
                         "avg_norm": (out["nrm"] / out["n"]).round(6)}) \
        .sort_values("lang").reset_index(drop=True)


SQL_LANG_EMBEDDING_NORM = """
WITH nrm AS (SELECT vec_id,
                    SQRT(list_inner_product(CAST(embedding AS DOUBLE[]),
                                            CAST(embedding AS DOUBLE[])))
                      AS nrm
             FROM embeddings)
SELECT d.lang, CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(SUM(nrm.nrm) / COUNT(*), 6) AS avg_norm
FROM documents d JOIN nrm ON nrm.vec_id = d.doc_id
GROUP BY d.lang ORDER BY d.lang
"""


def q_dup_cluster_sizes(sf_dir: str):
    """Near-dup cluster-size histogram: how big do transitive duplicate
    groups get (the skew signal for dedup budgeting)?  Same exact-
    Jaccard pair stage and sparse connected components as
    dedup_cluster_keep; the histogram reduces over the pair-set-bounded
    label table, singletons never materialize.  The SQL oracle's 8
    min-label sweeps equal true components because near-dup clusters
    are near-cliques (diameter << 8)."""
    from icrawler_ray.functions.seq import from_pandas_blocks
    from icrawler_ray.stages.dedup import ngram_jaccard_pairs_grouped
    from icrawler_ray.stages.linkgraph import pairs_components

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    pairs = ngram_jaccard_pairs_grouped(ds, group_col="source", threshold=0.6)
    if not len(pairs):
        return pd.DataFrame({"cluster_size": pd.Series([], dtype=np.int64),
                             "n_clusters": pd.Series([], dtype=np.int64)})
    edges_df = pd.DataFrame({"src": pairs["a"].to_numpy(dtype=np.int64),
                             "dst": pairs["b"].to_numpy(dtype=np.int64)})
    sparse = pairs_components(from_pandas_blocks(edges_df))
    sizes = sparse.groupby("component").size()
    hist = sizes[sizes >= 2].value_counts().sort_index()
    return pd.DataFrame({"cluster_size": hist.index.to_numpy(np.int64),
                         "n_clusters": hist.to_numpy(np.int64)})


SQL_DUP_CLUSTER_SIZES = f"""
WITH w AS (SELECT doc_id, source, list_distinct(string_split(text, ' ')) AS words
           FROM documents),
edges AS MATERIALIZED (
  SELECT a.doc_id AS src, b.doc_id AS dst
  FROM w a JOIN w b ON a.source = b.source AND a.doc_id < b.doc_id
  WHERE CAST(len(list_intersect(a.words, b.words)) AS DOUBLE)
        / len(list_distinct(list_concat(a.words, b.words))) >= 0.6
),
und AS MATERIALIZED (SELECT src, dst FROM edges UNION ALL SELECT dst AS src, src AS dst FROM edges),
l0 AS (SELECT d.doc_id AS node, d.doc_id AS l FROM documents d),
{{CC_SWEEPS}},
lab AS (SELECT l, COUNT(*) AS sz FROM l8 GROUP BY l HAVING COUNT(*) >= 2)
SELECT CAST(sz AS BIGINT) AS cluster_size, CAST(COUNT(*) AS BIGINT) AS n_clusters
FROM lab GROUP BY sz ORDER BY cluster_size
"""


def q_head_mass_terms(sf_dir: str):
    """Vocabulary head mass: the minimum number of distinct terms whose
    occurrences cover 90% of all token occurrences — the
    tokenizer-budget statistic.  One vocabulary exchange builds global
    counts; the answer reduces over the (count -> #terms) histogram
    (tie-order invariant: within an equal-count block the cumulative sum
    climbs by the same step), so driver work is O(distinct counts)."""
    ds = _read(sf_dir, "documents", ["text"])

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        t = df["text"].str.split(" ").explode()
        return t.groupby(t, sort=False).size().rename("n") \
            .rename_axis("term").reset_index()

    vocab = ds.map_batches(counts, batch_format="pandas") \
        .groupby("term").sum("n")
    parts = vocab.map_batches(
        lambda df: df.groupby("sum(n)").size().rename("m").reset_index(),
        batch_format="pandas").to_pandas()
    hist = parts.groupby("sum(n)", as_index=False)["m"].sum()
    c = hist["sum(n)"].to_numpy(np.int64)
    m = hist["m"].to_numpy(np.int64)
    order = np.argsort(-c, kind="mergesort")
    c, m = c[order], m[order]
    tot = int((c * m).sum())
    vocab_size = int(m.sum())
    target = 0.9 * tot
    cum = np.cumsum(c * m)
    blk = int(np.searchsorted(cum, target))
    before = int(cum[blk - 1]) if blk else 0
    terms_before = int(m[:blk].sum())
    n90 = terms_before + int(np.ceil((target - before) / c[blk]))
    return pd.DataFrame({
        "n_terms_90": np.array([n90], np.int64),
        "vocab_size": np.array([vocab_size], np.int64),
        "frac_vocab": [round(n90 / vocab_size, 6)]})


SQL_HEAD_MASS_TERMS = """
WITH t AS (SELECT unnest(string_split(text, ' ')) AS term FROM documents),
c AS (SELECT term, COUNT(*) AS n FROM t GROUP BY term),
r AS (SELECT n, SUM(n) OVER (ORDER BY n DESC, term) AS cum,
             ROW_NUMBER() OVER (ORDER BY n DESC, term) AS rk,
             SUM(n) OVER () AS tot, COUNT(*) OVER () AS vs
      FROM c)
SELECT CAST(MIN(CASE WHEN cum >= 0.9 * tot THEN rk END) AS BIGINT)
         AS n_terms_90,
       CAST(MAX(vs) AS BIGINT) AS vocab_size,
       ROUND(MIN(CASE WHEN cum >= 0.9 * tot THEN rk END)
             / CAST(MAX(vs) AS DOUBLE), 6) AS frac_vocab
FROM r
"""


def q_hourly_autocorr(sf_dir: str):
    """Lag-1 autocorrelation of the per-type hourly event-count series
    (dense over the global hour span, missing hours = 0) — the
    burstiness audit that separates steady feeds from flash crowds.
    One (type, epoch-hour) combiner pass; the dense series and Pearson
    reduce on the driver, bounded by types x span-hours."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        hr = (df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
              // (3_600_000_000))
        g = pd.DataFrame({"event_type": df["event_type"], "hr": hr})
        return g.groupby(["event_type", "hr"]).size().rename("n").reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    grid = parts.groupby(["event_type", "hr"], as_index=False)["n"].sum()
    lo, hi = int(grid["hr"].min()), int(grid["hr"].max())
    span = np.arange(lo, hi + 1)
    rows = []
    for et, g in grid.groupby("event_type"):
        s = pd.Series(0.0, index=span)
        s.loc[g["hr"].to_numpy()] = g["n"].to_numpy(np.float64)
        x, y = s.to_numpy()[1:], s.to_numpy()[:-1]
        r = float(np.corrcoef(x, y)[0, 1])
        rows.append({"event_type": et, "n_hours": np.int64(len(span)),
                     "autocorr_lag1": round(r, 6)})
    return pd.DataFrame(rows).sort_values("event_type").reset_index(drop=True)


SQL_HOURLY_AUTOCORR = """
WITH b AS (SELECT event_type,
                  date_diff('hour', TIMESTAMP '1970-01-01', date_trunc('hour', ts))
                    AS hr,
                  COUNT(*) AS n
           FROM events GROUP BY event_type, hr),
span AS (SELECT MIN(hr) AS lo, MAX(hr) AS hi FROM b),
grid AS (SELECT t.event_type, s.hr
         FROM (SELECT DISTINCT event_type FROM b) t
         CROSS JOIN (SELECT unnest(generate_series(span.lo, span.hi)) AS hr
                     FROM span) s),
d AS (SELECT g.event_type, g.hr, COALESCE(b.n, 0) AS n
      FROM grid g LEFT JOIN b ON b.event_type = g.event_type AND b.hr = g.hr),
l AS (SELECT event_type, n,
             LAG(n) OVER (PARTITION BY event_type ORDER BY hr) AS pn
      FROM d)
SELECT event_type,
       CAST(COUNT(*) + 1 AS BIGINT) AS n_hours,
       ROUND(corr(CAST(n AS DOUBLE), CAST(pn AS DOUBLE)), 6) AS autocorr_lag1
FROM l WHERE pn IS NOT NULL
GROUP BY event_type ORDER BY event_type
"""


def q_tokens_per_char(sf_dir: str):
    """Tokenization-density profile per language: total tokens / total
    chars and mean tokens per doc — the byte-budget planning numbers.
    One (lang -> n docs, sum tokens, sum chars) combiner pass."""
    ds = _read(sf_dir, "documents", ["lang", "text", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"lang": df["lang"],
                          "tok": df["text"].str.count(" ").to_numpy(np.int64) + 1,
                          "ch": df["n_chars"].to_numpy(np.int64),
                          "n": np.ones(len(df), np.int64)})
        return g.groupby("lang", as_index=False)[["tok", "ch", "n"]].sum()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    agg = parts.groupby("lang", as_index=False)[["tok", "ch", "n"]].sum()
    return pd.DataFrame({
        "lang": agg["lang"],
        "n_docs": agg["n"].astype(np.int64),
        "tokens_per_char": (agg["tok"] / agg["ch"].astype(np.float64)).round(6),
        "avg_tokens": (agg["tok"] / agg["n"].astype(np.float64)).round(6)}) \
        .sort_values("lang").reset_index(drop=True)


SQL_TOKENS_PER_CHAR = """
SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
       ROUND(SUM(len(string_split(text, ' ')))
             / CAST(SUM(n_chars) AS DOUBLE), 6) AS tokens_per_char,
       ROUND(SUM(len(string_split(text, ' ')))
             / CAST(COUNT(*) AS DOUBLE), 6) AS avg_tokens
FROM documents GROUP BY lang ORDER BY lang
"""


def q_weekend_effect(sf_dir: str):
    """Weekend-vs-weekday contrast per event type: counts, mean values
    and the weekend/weekday mean-value lift — the calendar-seasonality
    slice next to hour_profile.  One (type, is_weekend) combiner pass
    over the stream."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        we = (df["ts"].dt.dayofweek >= 5).astype(np.int64)
        g = pd.DataFrame({"event_type": df["event_type"], "we": we,
                          "n": np.ones(len(df), np.int64),
                          "sv": df["value"].to_numpy()})
        return g.groupby(["event_type", "we"], as_index=False)[["n", "sv"]].sum()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    agg = parts.groupby(["event_type", "we"], as_index=False)[["n", "sv"]].sum()
    wide = agg.pivot(index="event_type", columns="we", values=["n", "sv"])
    out = pd.DataFrame({
        "event_type": wide.index.to_numpy(),
        "n_weekday": wide[("n", 0)].to_numpy(np.int64),
        "n_weekend": wide[("n", 1)].to_numpy(np.int64),
        "avg_weekday": (wide[("sv", 0)] / wide[("n", 0)]).to_numpy().round(6),
        "avg_weekend": (wide[("sv", 1)] / wide[("n", 1)]).to_numpy().round(6)})
    out["lift"] = ((wide[("sv", 1)] / wide[("n", 1)])
                   / (wide[("sv", 0)] / wide[("n", 0)])).to_numpy().round(6)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_WEEKEND_EFFECT = """
WITH g AS (SELECT event_type,
                  CASE WHEN EXTRACT(dow FROM ts) IN (0, 6) THEN 1 ELSE 0 END
                    AS we,
                  COUNT(*) AS n, SUM(value) AS sv
           FROM events GROUP BY event_type, we)
SELECT a.event_type,
       CAST(a.n AS BIGINT) AS n_weekday, CAST(b.n AS BIGINT) AS n_weekend,
       ROUND(a.sv / a.n, 6) AS avg_weekday, ROUND(b.sv / b.n, 6) AS avg_weekend,
       ROUND((b.sv / b.n) / (a.sv / a.n), 6) AS lift
FROM g a JOIN g b ON b.event_type = a.event_type AND a.we = 0 AND b.we = 1
ORDER BY a.event_type
"""


def q_embedding_outlier_dims(sf_dir: str):
    """Rogue-dimension audit: per-dim population variance of the
    embedding matrix, flagged where the (6-dp rounded) variance exceeds
    2x the median dim variance — dead/dominant dims break quantization
    and cosine geometry.  One (n, sum, sum-sq per dim) combiner pass;
    the 64-dim grid reduces on the driver.  The flag compares ROUNDED
    variances on both sides so the boundary is ulp-stable."""
    from icrawler_ray.stages.similarity import _as_matrix

    ds = _read(sf_dir, "embeddings", ["embedding"])

    def partial(t):
        e = _as_matrix(t["embedding"])
        return pd.DataFrame({"dim": np.arange(e.shape[1], dtype=np.int64),
                             "n": np.full(e.shape[1], len(e), np.int64),
                             "s": e.sum(0), "s2": (e * e).sum(0)})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    agg = parts.groupby("dim", as_index=False)[["n", "s", "s2"]].sum()
    mean = agg["s"] / agg["n"]
    var = np.round(agg["s2"] / agg["n"] - mean * mean, 6)
    sv = np.sort(var.to_numpy())
    med = sv[int(np.ceil(0.5 * len(sv))) - 1]
    return pd.DataFrame({
        "dim": (agg["dim"] + 1).astype(np.int64),
        "var": var,
        "is_outlier": (var > 2 * med).to_numpy()}).sort_values("dim") \
        .reset_index(drop=True)


SQL_EMBEDDING_OUTLIER_DIMS = """
WITH f AS (SELECT t.i AS dim, CAST(embedding[t.i] AS DOUBLE) AS val
           FROM embeddings CROSS JOIN range(1, 65) t(i)),
v AS (SELECT dim,
             ROUND(SUM(val * val) / COUNT(*)
                   - (SUM(val) / COUNT(*)) * (SUM(val) / COUNT(*)), 6) AS var
      FROM f GROUP BY dim),
m AS (SELECT quantile_disc(var, 0.5) AS med FROM v)
SELECT CAST(dim AS BIGINT) AS dim, var, (var > 2 * m.med) AS is_outlier
FROM v CROSS JOIN m ORDER BY dim
"""


def q_ship_delay_quantiles(sf_dir: str):
    """Fulfilment-latency SLO: per order priority, the p50/p90/max days
    between order date and line-item ship date — a big-big join
    (lineitem x orders on orderkey) through salted_hash_join whose
    agg_fn reduces joined rows to (priority, gap-day) histogram partials
    in the join stage itself, so nothing row-sized leaves it."""
    from icrawler_ray.stages.joins import salted_hash_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"]) \
        .map_batches(lambda df: df.rename(columns={"l_orderkey": "o_orderkey"}),
                     batch_format="pandas")
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"])

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        gap = (pd.to_datetime(g["l_shipdate"]).to_numpy().astype("datetime64[D]")
               .astype(np.int64)
               - pd.to_datetime(g["o_orderdate"]).to_numpy()
               .astype("datetime64[D]").astype(np.int64))
        p = pd.DataFrame({"o_orderpriority": g["o_orderpriority"], "gap": gap})
        return p.groupby(["o_orderpriority", "gap"]).size().rename("f") \
            .reset_index()

    parts = salted_hash_join(li, orders, "o_orderkey", agg_fn=agg).to_pandas()
    hist = parts.groupby(["o_orderpriority", "gap"], as_index=False)["f"].sum()
    rows = []
    for pr, g in hist.groupby("o_orderpriority"):
        v = g["gap"].to_numpy(np.int64)
        f = g["f"].to_numpy(np.int64)
        order = np.argsort(v, kind="mergesort")
        v, f = v[order], f[order]
        cum = np.cumsum(f)
        rows.append({
            "o_orderpriority": pr,
            "n": np.int64(cum[-1]),
            "p50": np.int64(v[np.searchsorted(cum, int(np.ceil(0.5 * cum[-1])))]),
            "p90": np.int64(v[np.searchsorted(cum, int(np.ceil(0.9 * cum[-1])))]),
            "max_gap": np.int64(v[-1])})
    return pd.DataFrame(rows).sort_values("o_orderpriority").reset_index(drop=True)


SQL_SHIP_DELAY_QUANTILES = """
WITH j AS (SELECT o.o_orderpriority,
                  date_diff('day', o.o_orderdate, l.l_shipdate) AS gap
           FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey)
SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(quantile_disc(gap, 0.5) AS BIGINT) AS p50,
       CAST(quantile_disc(gap, 0.9) AS BIGINT) AS p90,
       CAST(MAX(gap) AS BIGINT) AS max_gap
FROM j GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


def q_rich_club(sf_dir: str):
    """Rich-club coefficient at k=4 over the derived link graph: the
    density of distinct directed edges among nodes of total degree > 4 —
    high values flag link farms / citation cartels.  Distinct edges via
    one pair-identity groupby; degrees via a second; the rich set rides
    ray.put (MAX_BROADCAST_NODES convention of stages/linkgraph.py — the
    past-broadcast sibling is a bucketed semi-join like
    neighborhood_jaccard's degree joins)."""
    from icrawler_ray.stages.linkgraph import derive_edges

    K = 4
    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()
    de = derive_edges(docs, n).groupby(["src", "dst"]).count().materialize()

    def deg_partial(t):
        s = t["src"].to_numpy(zero_copy_only=False)
        d = t["dst"].to_numpy(zero_copy_only=False)
        node, cnt = np.unique(np.concatenate((s, d)), return_counts=True)
        return pa.table({"node": pa.array(node), "d": pa.array(cnt.astype(np.int64))})

    parts = de.map_batches(deg_partial, batch_format="pyarrow").to_pandas()
    deg = parts.groupby("node", as_index=False)["d"].sum()
    rich = np.sort(deg.loc[deg["d"] > K, "node"].to_numpy(np.int64))
    rich_ref = ray.put(rich)

    def count_rich(t):
        h = ray.get(rich_ref)
        if not len(h):
            return pa.table({"n": pa.array([0], type=pa.int64())})
        s = t["src"].to_numpy(zero_copy_only=False)
        d = t["dst"].to_numpy(zero_copy_only=False)
        sin = np.clip(np.searchsorted(h, s), 0, len(h) - 1)
        din = np.clip(np.searchsorted(h, d), 0, len(h) - 1)
        ok = (h[sin] == s) & (h[din] == d)
        return pa.table({"n": pa.array([int(ok.sum())], type=pa.int64())})

    n_edges = int(de.map_batches(count_rich, batch_format="pyarrow")
                  .to_pandas()["n"].sum())
    nr = len(rich)
    phi = round(n_edges / (nr * (nr - 1.0)), 6) if nr > 1 else 0.0
    return pd.DataFrame({"k": np.array([K], np.int64),
                         "n_rich": np.array([nr], np.int64),
                         "n_edges_rich": np.array([n_edges], np.int64),
                         "phi": [phi]})


SQL_RICH_CLUB = f"""
WITH {_SQL_EDGES_CTE},
de AS MATERIALIZED (SELECT DISTINCT src, dst FROM edges),
deg AS (SELECT node, COUNT(*) AS d
        FROM (SELECT src AS node FROM de UNION ALL SELECT dst FROM de)
        GROUP BY node),
h AS (SELECT node FROM deg WHERE d > 4),
re AS (SELECT * FROM de
       WHERE src IN (SELECT node FROM h) AND dst IN (SELECT node FROM h))
SELECT CAST(4 AS BIGINT) AS k,
       CAST((SELECT COUNT(*) FROM h) AS BIGINT) AS n_rich,
       CAST(COUNT(*) AS BIGINT) AS n_edges_rich,
       COALESCE(ROUND(COUNT(*) / NULLIF((SELECT COUNT(*) FROM h)
                         * ((SELECT COUNT(*) FROM h) - 1.0), 0.0), 6), 0.0)
         AS phi
FROM re
"""


def q_label_cohesion(sf_dir: str):
    """Embedding-space cohesion per label from SUFFICIENT STATISTICS
    only: with unit-normalized vectors, mean intra-label pairwise cosine
    = (||s_l||^2 - n_l) / (n_l (n_l - 1)) and mean inter-label cosine =
    (s_l . (S - s_l)) / (n_l (N - n_l)) where s_l is the label's summed
    normalized vector — the silhouette-style separability audit WITHOUT
    any pairwise pass.  One (label -> n, sum-vec) combiner; everything
    else is k x dim driver arithmetic."""
    from icrawler_ray.stages.similarity import _as_matrix, _normalize

    ds = _read(sf_dir, "embeddings", ["label", "embedding"])

    def partial(t):
        e = _normalize(_as_matrix(t["embedding"]))
        lab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        rows = []
        for lb in np.unique(lab):
            m = lab == lb
            rows.append({"label": int(lb), "n": int(m.sum()),
                         "s": e[m].sum(0).tolist()})
        return pd.DataFrame(rows)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    labs, ns, ss = [], [], []
    for lb, g in parts.groupby("label"):
        labs.append(int(lb))
        ns.append(int(g["n"].sum()))
        ss.append(np.sum(np.stack(g["s"].to_numpy()), axis=0))
    labs = np.asarray(labs)
    ns = np.asarray(ns, np.float64)
    s = np.stack(ss)
    big_n = float(ns.sum())
    stot = s.sum(0)
    s2 = (s * s).sum(1)
    intra = (s2 - ns) / (ns * (ns - 1.0))
    inter = (s @ stot - s2) / (ns * (big_n - ns))
    return pd.DataFrame({"label": labs.astype(np.int64),
                         "n": ns.astype(np.int64),
                         "intra_cos": np.round(intra, 6),
                         "inter_cos": np.round(inter, 6),
                         "cohesion": np.round(intra - inter, 6)}) \
        .sort_values("label").reset_index(drop=True)


SQL_LABEL_COHESION = """
WITH nr AS (SELECT vec_id, SQRT(list_inner_product(
                CAST(embedding AS DOUBLE[]), CAST(embedding AS DOUBLE[])))
              AS nrm FROM embeddings),
f AS (SELECT e.label, t.i AS dim, CAST(e.embedding[t.i] AS DOUBLE) / nr.nrm AS v
      FROM embeddings e JOIN nr ON nr.vec_id = e.vec_id
      CROSS JOIN range(1, 65) t(i)),
s AS (SELECT label, dim, SUM(v) AS s FROM f GROUP BY label, dim),
cnt AS (SELECT label, COUNT(*) AS n FROM embeddings GROUP BY label),
ss AS (SELECT label, SUM(s * s) AS s2 FROM s GROUP BY label),
tot AS (SELECT dim, SUM(s) AS st FROM s GROUP BY dim),
cr AS (SELECT s.label, SUM(s.s * tot.st) AS sdot
       FROM s JOIN tot USING (dim) GROUP BY s.label),
nn AS (SELECT SUM(n) AS big_n FROM cnt)
SELECT CAST(c.label AS BIGINT) AS label, CAST(c.n AS BIGINT) AS n,
       ROUND((ss.s2 - c.n) / (c.n * (c.n - 1.0)), 6) AS intra_cos,
       ROUND((cr.sdot - ss.s2) / (c.n * (nn.big_n - c.n)), 6) AS inter_cos,
       ROUND((ss.s2 - c.n) / (c.n * (c.n - 1.0))
             - (cr.sdot - ss.s2) / (c.n * (nn.big_n - c.n)), 6) AS cohesion
FROM cnt c JOIN ss ON ss.label = c.label JOIN cr ON cr.label = c.label
CROSS JOIN nn ORDER BY label
"""


def q_price_size_regression(sf_dir: str):
    """Per-brand OLS of retail price (integer cents) on part size:
    slope + intercept from EXACT integer moment sums (n, Σx, Σy, Σxy,
    Σx²) — the catalog pricing-curve fit; one combiner pass, brand-grid
    driver reduce, bit-identical to the SQL replay because every sum is
    integer."""
    ds = _read(sf_dir, "part", ["p_brand", "p_size", "p_retailprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df["p_size"].to_numpy(np.int64)
        y = np.round(df["p_retailprice"].to_numpy() * 100).astype(np.int64)
        g = pd.DataFrame({"p_brand": df["p_brand"], "n": np.ones(len(df), np.int64),
                          "sx": x, "sy": y, "sxy": x * y, "sx2": x * x})
        return g.groupby("p_brand", as_index=False)[["n", "sx", "sy", "sxy", "sx2"]].sum()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    a = parts.groupby("p_brand", as_index=False)[["n", "sx", "sy", "sxy", "sx2"]].sum()
    den = (a["n"] * a["sx2"] - a["sx"] * a["sx"]).astype(np.float64)
    slope = (a["n"] * a["sxy"] - a["sx"] * a["sy"]) / den / 100.0
    intercept = (a["sy"] / a["n"] - slope * 100.0 * a["sx"] / a["n"]) / 100.0
    return pd.DataFrame({"p_brand": a["p_brand"],
                         "n": a["n"].astype(np.int64),
                         "slope": slope.round(6),
                         "intercept": intercept.round(6)}) \
        .sort_values("p_brand").reset_index(drop=True)


SQL_PRICE_SIZE_REGRESSION = """
WITH m AS (SELECT p_brand, COUNT(*) AS n,
                  SUM(CAST(p_size AS BIGINT)) AS sx,
                  SUM(CAST(ROUND(p_retailprice * 100) AS BIGINT)) AS sy,
                  SUM(CAST(p_size AS BIGINT)
                      * CAST(ROUND(p_retailprice * 100) AS BIGINT)) AS sxy,
                  SUM(CAST(p_size AS BIGINT) * CAST(p_size AS BIGINT)) AS sx2
           FROM part GROUP BY p_brand)
SELECT p_brand, CAST(n AS BIGINT) AS n,
       ROUND((n * sxy - sx * sy)
             / CAST(n * sx2 - sx * sx AS DOUBLE) / 100.0, 6) AS slope,
       ROUND((CAST(sy AS DOUBLE) / n
              - (n * sxy - sx * sy) / CAST(n * sx2 - sx * sx AS DOUBLE)
                * CAST(sx AS DOUBLE) / n) / 100.0, 6) AS intercept
FROM m ORDER BY p_brand
"""


def q_revenue_mom_growth(sf_dir: str):
    """Month-over-month order-revenue growth: exact cent sums per month,
    driver-side lag over the bounded month frame, growth = (rev - prev)
    / prev — the trend audit a capacity planner reads.  One combiner
    pass."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "month": pd.to_datetime(df["o_orderdate"]).dt.strftime("%Y-%m"),
            "cents": np.round(df["o_totalprice"].to_numpy() * 100)
            .astype(np.int64)})
        return g.groupby("month", as_index=False)["cents"].sum()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    agg = parts.groupby("month", as_index=False)["cents"].sum() \
        .sort_values("month").reset_index(drop=True)
    prev = agg["cents"].shift(1)
    out = pd.DataFrame({"month": agg["month"],
                        "revenue": (agg["cents"] / 100.0).round(2),
                        "growth": ((agg["cents"] - prev) / prev).round(6)})
    return out[out["growth"].notna()].reset_index(drop=True)


SQL_REVENUE_MOM_GROWTH = """
WITH m AS (SELECT strftime(o_orderdate, '%Y-%m') AS month,
                  SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS cents
           FROM orders GROUP BY month),
l AS (SELECT month, cents, LAG(cents) OVER (ORDER BY month) AS prev FROM m)
SELECT month, ROUND(cents / 100.0, 2) AS revenue,
       ROUND((cents - prev) / CAST(prev AS DOUBLE), 6) AS growth
FROM l WHERE prev IS NOT NULL ORDER BY month
"""


def q_part_affinity_topk(sf_dir: str):
    """Market-basket part affinity: the 20 most frequent distinct part
    pairs co-occurring in one order (n desc, pair asc) — the co-purchase
    signal.  One groupby(orderkey) emits C(lines,2)-bounded pair rows
    (order fan-out is small by schema), the pair-identity exchange
    reduces counts, and each post-exchange block contributes only its
    top-20 candidates (tie-safe truncation) so the driver merge is
    output-sized."""
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    # bucket by orderkey hash -> ONE exchange; inside each fat bucket the
    # pair expansion is run-length vectorized (group runs by length L,
    # matrix triu expansion) — NO per-order map_groups (150k tiny groups
    # took 47 s at sf0.01; this shape is the adamic_adar idiom)
    def bucket(t):
        return pa.table({
            "b": pa.array((t["l_orderkey"].to_numpy(zero_copy_only=False)
                           % 64).astype(np.int64)),
            "l_orderkey": t["l_orderkey"], "l_partkey": t["l_partkey"]})

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g[["l_orderkey", "l_partkey"]].drop_duplicates() \
            .sort_values(["l_orderkey", "l_partkey"], kind="mergesort")
        ok = d["l_orderkey"].to_numpy(np.int64)
        pk = d["l_partkey"].to_numpy(np.int64)
        if not len(ok):
            return pd.DataFrame({"pa": pd.Series([], dtype=np.int64),
                                 "pb": pd.Series([], dtype=np.int64),
                                 "n": pd.Series([], dtype=np.int64)})
        starts = np.flatnonzero(np.r_[True, ok[1:] != ok[:-1]])
        lens = np.diff(np.r_[starts, len(ok)])
        out_a, out_b = [], []
        for L in np.unique(lens):
            if L < 2:
                continue
            rs = starts[lens == L]
            m = pk[rs[:, None] + np.arange(L)[None, :]]
            ia, ib = np.triu_indices(int(L), k=1)
            out_a.append(m[:, ia].ravel())
            out_b.append(m[:, ib].ravel())
        if not out_a:
            return pd.DataFrame({"pa": pd.Series([], dtype=np.int64),
                                 "pb": pd.Series([], dtype=np.int64),
                                 "n": pd.Series([], dtype=np.int64)})
        p = pd.DataFrame({"pa": np.concatenate(out_a),
                          "pb": np.concatenate(out_b)})
        return p.groupby(["pa", "pb"]).size().rename("n").reset_index()

    pr = ds.map_batches(bucket, batch_format="pyarrow") \
        .groupby("b").map_groups(pairs_bucket, batch_format="pandas")

    # per-bucket partials are already combined; the cross-bucket reduce
    # runs on the driver (top_terms convention — a web-scale pair
    # vocabulary hash-partitions this final reduce instead)
    parts = pr.to_pandas()
    agg = parts.groupby(["pa", "pb"], as_index=False)["n"].sum()
    top = agg.sort_values(["n", "pa", "pb"], ascending=[False, True, True],
                          kind="mergesort").head(20).reset_index(drop=True)
    top["rank"] = np.arange(1, len(top) + 1, dtype=np.int64)
    top["n"] = top["n"].astype(np.int64)
    top["pa"] = top["pa"].astype(np.int64)
    top["pb"] = top["pb"].astype(np.int64)
    return top[["rank", "pa", "pb", "n"]]


SQL_PART_AFFINITY_TOPK = """
WITH d AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
p AS (SELECT a.l_partkey AS pa, b.l_partkey AS pb, COUNT(*) AS n
      FROM d a JOIN d b ON a.l_orderkey = b.l_orderkey
                       AND a.l_partkey < b.l_partkey
      GROUP BY pa, pb),
r AS (SELECT pa, pb, n,
             ROW_NUMBER() OVER (ORDER BY n DESC, pa, pb) AS rank
      FROM p)
SELECT rank, CAST(pa AS BIGINT) AS pa, CAST(pb AS BIGINT) AS pb,
       CAST(n AS BIGINT) AS n
FROM r WHERE rank <= 20 ORDER BY rank
"""


def q_user_type_breadth(sf_dir: str):
    """Behavioral breadth histogram: how many distinct event types each
    user touches -> (n_types, n_users, share) — the engagement-depth
    profile.  Per-block (user, type) dedup feeds one distinct exchange;
    the breadth histogram reduces over the user-sized frame via
    combiner."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def du(t):
        d = pd.DataFrame({
            "user_id": t["user_id"].to_numpy(zero_copy_only=False),
            "event_type": t["event_type"].to_pylist()}).drop_duplicates()
        return pa.table({"user_id": pa.array(d["user_id"].to_numpy()),
                         "event_type": pa.array(d["event_type"].to_numpy())})

    dist = ds.map_batches(du, batch_format="pyarrow") \
        .groupby(["user_id", "event_type"]).count()
    per_user = dist.map_batches(
        lambda df: df.groupby("user_id").size().rename("b").reset_index(),
        batch_format="pandas").to_pandas()
    breadth = per_user.groupby("user_id", as_index=False)["b"].sum()
    hist = breadth.groupby("b", as_index=False).size() \
        .rename(columns={"size": "n_users"})
    tot = int(hist["n_users"].sum())
    return pd.DataFrame({"n_types": hist["b"].astype(np.int64),
                         "n_users": hist["n_users"].astype(np.int64),
                         "share": (hist["n_users"] / float(tot)).round(6)}) \
        .sort_values("n_types").reset_index(drop=True)


SQL_USER_TYPE_BREADTH = """
WITH b AS (SELECT user_id, COUNT(DISTINCT event_type) AS nt
           FROM events GROUP BY user_id)
SELECT CAST(nt AS BIGINT) AS n_types, CAST(COUNT(*) AS BIGINT) AS n_users,
       ROUND(COUNT(*) / CAST(SUM(COUNT(*)) OVER () AS DOUBLE), 6) AS share
FROM b GROUP BY nt ORDER BY n_types
"""


def q_avg_neighbor_degree(sf_dir: str):
    """Degree-correlation profile knn(k): for each out-degree class k,
    the mean in-degree of linked-to nodes — the curve form of
    assortativity that separates hub-avoiding from hub-seeking
    topologies.  Degrees come from two combiner passes over the derived
    edges; the per-edge (src-deg class, dst-deg) pairing broadcasts the
    two degree maps via ray.put (doc-count-bounded, MAX_BROADCAST_NODES
    convention; the past-broadcast sibling is neighborhood_jaccard's
    bucketed degree join)."""
    from icrawler_ray.stages.linkgraph import derive_edges

    docs = _read(sf_dir, "documents", ["doc_id"])
    n = docs.count()
    edges = derive_edges(docs, n).materialize()

    def deg_part(col):
        def f(t):
            node, cnt = np.unique(
                t[col].to_numpy(zero_copy_only=False), return_counts=True)
            return pa.table({"node": pa.array(node),
                             "d": pa.array(cnt.astype(np.int64))})
        return f

    outd = edges.map_batches(deg_part("src"), batch_format="pyarrow") \
        .to_pandas().groupby("node", as_index=False)["d"].sum()
    ind = edges.map_batches(deg_part("dst"), batch_format="pyarrow") \
        .to_pandas().groupby("node", as_index=False)["d"].sum()
    out_ref = ray.put((outd["node"].to_numpy(np.int64),
                       outd["d"].to_numpy(np.int64)))
    in_ref = ray.put((ind["node"].to_numpy(np.int64),
                      ind["d"].to_numpy(np.int64)))

    def pair(t):
        on, od = ray.get(out_ref)
        inn, idg = ray.get(in_ref)
        s = t["src"].to_numpy(zero_copy_only=False)
        d = t["dst"].to_numpy(zero_copy_only=False)
        k = od[np.searchsorted(on, s)]
        nd = np.zeros(len(d), np.int64)
        pos = np.clip(np.searchsorted(inn, d), 0, len(inn) - 1)
        hit = inn[pos] == d
        nd[hit] = idg[pos[hit]]
        g = pd.DataFrame({"k": k, "nd": nd, "n": np.ones(len(k), np.int64)})
        g = g.groupby("k", as_index=False)[["nd", "n"]].sum()
        return pa.table({"k": pa.array(g["k"].to_numpy(np.int64)),
                         "nd": pa.array(g["nd"].to_numpy(np.int64)),
                         "n": pa.array(g["n"].to_numpy(np.int64))})

    parts = edges.map_batches(pair, batch_format="pyarrow").to_pandas()
    agg = parts.groupby("k", as_index=False)[["nd", "n"]].sum()
    return pd.DataFrame({"out_degree": agg["k"].astype(np.int64),
                         "n_edges": agg["n"].astype(np.int64),
                         "avg_nbr_in_degree": (agg["nd"] / agg["n"]).round(6)}) \
        .sort_values("out_degree").reset_index(drop=True)


SQL_AVG_NEIGHBOR_DEGREE = f"""
WITH {_SQL_EDGES_CTE},
od AS (SELECT src, COUNT(*) AS d FROM edges GROUP BY src),
id AS (SELECT dst, COUNT(*) AS d FROM edges GROUP BY dst)
SELECT CAST(od.d AS BIGINT) AS out_degree,
       CAST(COUNT(*) AS BIGINT) AS n_edges,
       ROUND(SUM(COALESCE(id.d, 0)) / CAST(COUNT(*) AS DOUBLE), 6)
         AS avg_nbr_in_degree
FROM edges e JOIN od ON od.src = e.src LEFT JOIN id ON id.dst = e.dst
GROUP BY od.d ORDER BY out_degree
"""


def q_dup_rate_by_length_decile(sf_dir: str):
    """Curation cross-audit: duplicated-prefix rate per document-length
    rank-decile — are shared 8-word openings (boilerplate) concentrated
    in short docs or long ones?  The dup flag comes from the md5 prefix-
    fingerprint identity exchange (count >= 2, the source_overlap
    convention — the corpus has no exact full-text dups by construction,
    pinned by the oracle); the decile is (rank*10)//n + 1 over the
    global (n_chars, doc_id) rank; the cross table reduces via combiner."""
    import hashlib

    from icrawler_ray.functions.seq import assign_global_seq

    ds = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])
    n_docs = ds.count()

    def fp(t):
        h = [hashlib.md5(" ".join(s.split(" ")[:8]).encode()).hexdigest()
             for s in t["text"].to_pylist()]
        return pa.table({"doc_id": t["doc_id"],
                         "n_chars": t["n_chars"],
                         "fp": pa.array(h)})  # hex string = DuckDB md5()

    tagged = ds.map_batches(fp, batch_format="pyarrow").materialize()
    fps = tagged.groupby("fp").count()
    def dups_only(df: pd.DataFrame) -> pd.DataFrame:
        if "fp" not in df.columns:  # schema-less empty shuffle block
            return pd.DataFrame({"fp": pd.Series([], dtype=str)})
        return df.loc[df["count()"] >= 2, ["fp"]]

    dpdf = fps.map_batches(dups_only, batch_format="pandas").to_pandas()
    dup_fps = (dpdf["fp"].to_numpy() if "fp" in dpdf.columns
               else np.array([], dtype="U32"))
    dup_ref = ray.put(np.sort(dup_fps.astype("U32")))
    ranked = assign_global_seq(tagged, ["n_chars", "doc_id"], col="rk")

    def cross(t):
        h = ray.get(dup_ref)
        f = np.asarray(t["fp"].to_pylist(), dtype="U32")
        is_dup = np.zeros(len(f), bool)
        if len(h):
            pos = np.clip(np.searchsorted(h, f), 0, len(h) - 1)
            is_dup = h[pos] == f
        dec = (t["rk"].to_numpy(zero_copy_only=False) * 10) // n_docs + 1
        g = pd.DataFrame({"decile": dec, "dup": is_dup.astype(np.int64),
                          "n": np.ones(len(f), np.int64)})
        g = g.groupby("decile", as_index=False)[["dup", "n"]].sum()
        return pa.table({"decile": pa.array(g["decile"].to_numpy(np.int64)),
                         "dup": pa.array(g["dup"].to_numpy(np.int64)),
                         "n": pa.array(g["n"].to_numpy(np.int64))})

    parts = ranked.map_batches(cross, batch_format="pyarrow").to_pandas()
    agg = parts.groupby("decile", as_index=False)[["dup", "n"]].sum()
    return pd.DataFrame({"decile": agg["decile"].astype(np.int64),
                         "n_docs": agg["n"].astype(np.int64),
                         "n_dup": agg["dup"].astype(np.int64),
                         "dup_rate": (agg["dup"] / agg["n"]).round(6)}) \
        .sort_values("decile").reset_index(drop=True)


SQL_DUP_RATE_BY_LENGTH_DECILE = """
WITH f AS (SELECT doc_id, n_chars,
                  md5(array_to_string(list_slice(string_split(text, ' '),
                                                 1, 8), ' ')) AS fp
           FROM documents),
c AS (SELECT fp, COUNT(*) AS cnt FROM f GROUP BY fp),
r AS (SELECT f.doc_id, f.fp,
             ROW_NUMBER() OVER (ORDER BY f.n_chars, f.doc_id) - 1 AS rk,
             COUNT(*) OVER () AS n
      FROM f),
d AS (SELECT (r.rk * 10) // r.n + 1 AS decile,
             CASE WHEN c.cnt >= 2 THEN 1 ELSE 0 END AS dup
      FROM r JOIN c ON c.fp = r.fp)
SELECT CAST(decile AS BIGINT) AS decile, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(dup) AS BIGINT) AS n_dup,
       ROUND(SUM(dup) / CAST(COUNT(*) AS DOUBLE), 6) AS dup_rate
FROM d GROUP BY decile ORDER BY decile
"""


def q_q6_revenue(sf_dir: str):
    """TPC-H Q6 shape — the canonical vectorized filter-aggregate: summed
    discount revenue for a shipdate year, a discount band and a quantity
    cap.  One pruned-column read, one Arrow-side predicate, one scalar
    combiner; integer-cent * integer-bp products keep the sum exact."""
    ds = _read(sf_dir, "lineitem",
               ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        sd = pd.to_datetime(df["l_shipdate"])
        disc = df["l_discount"].to_numpy()
        m = ((sd >= "1995-01-01") & (sd < "1996-01-01")
             & (disc >= 0.05 - 1e-9) & (disc <= 0.07 + 1e-9)
             & (df["l_quantity"].to_numpy() < 24))
        cents = np.round(df.loc[m, "l_extendedprice"].to_numpy() * 100) \
            .astype(np.int64)
        bp = np.round(disc[m.to_numpy()] * 100).astype(np.int64)
        return pd.DataFrame({"rev": [int((cents * bp).sum())],
                             "n": [int(m.sum())]})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    rev = int(parts["rev"].sum())
    return pd.DataFrame({"revenue": [round(rev / 10000.0, 4)],
                         "n_lines": np.array([int(parts["n"].sum())], np.int64)})


SQL_Q6_REVENUE = """
SELECT ROUND(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                 * CAST(ROUND(l_discount * 100) AS BIGINT)) / 10000.0, 4)
         AS revenue,
       CAST(COUNT(*) AS BIGINT) AS n_lines
FROM lineitem
WHERE l_shipdate >= DATE '1995-01-01' AND l_shipdate < DATE '1996-01-01'
  AND l_discount >= 0.05 - 1e-9 AND l_discount <= 0.07 + 1e-9
  AND l_quantity < 24
"""


def q_segment_priority_mix(sf_dir: str):
    """Customer-segment x order-priority mix through the orders ⋈
    customer join (salted_hash_join with a combiner agg_fn — only
    (segment, priority, n) partials leave the join stage); share within
    segment on the S x P grid."""
    from icrawler_ray.stages.joins import salted_hash_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"]) \
        .map_batches(lambda df: df.rename(columns={"o_custkey": "c_custkey"}),
                     batch_format="pandas")
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        p = g.groupby(["c_mktsegment", "o_orderpriority"]).size() \
            .rename("n").reset_index()
        return p

    parts = salted_hash_join(orders, cust, "c_custkey", agg_fn=agg).to_pandas()
    grid = parts.groupby(["c_mktsegment", "o_orderpriority"],
                         as_index=False)["n"].sum()
    grid["share"] = (grid["n"]
                     / grid.groupby("c_mktsegment")["n"].transform("sum")
                     .astype(np.float64)).round(6)
    grid["n"] = grid["n"].astype(np.int64)
    return grid.sort_values(["c_mktsegment", "o_orderpriority"]) \
        .reset_index(drop=True)


SQL_SEGMENT_PRIORITY_MIX = """
SELECT c.c_mktsegment, o.o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(COUNT(*) / CAST(SUM(COUNT(*)) OVER (PARTITION BY c.c_mktsegment)
                             AS DOUBLE), 6) AS share
FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
GROUP BY c.c_mktsegment, o.o_orderpriority
ORDER BY c.c_mktsegment, o.o_orderpriority
"""


def q_small_quantity_revenue(sf_dir: str):
    """TPC-H Q17 shape — correlated-average join: revenue of lines whose
    quantity is below half the AVERAGE quantity of their own part.  One
    hash-partition of a 3-column lineitem projection by partkey
    co-locates each part's lines, so the per-part average and the
    correlated filter happen in one vectorized pass per partition (no
    self-join materialization); each partition emits a single (cents, n)
    partial.  l_quantity is integer-valued, so sum/n is
    order-independent and the 0.5x threshold compare is exact on both
    engines."""
    P = 64
    ds = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice"])

    def tag(t: pa.Table) -> pa.Table:
        # Arrow block out: pandas blocks cost ~8x in the sort-shuffle
        # (see BASELINE.md round-5 pandas-block groupby note)
        part = pa.array(
            (t["l_partkey"].to_numpy(zero_copy_only=False) % P)
            .astype(np.int32))
        return t.append_column("part", part)

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        a = g.groupby("l_partkey")["l_quantity"].transform("mean")
        m = g["l_quantity"].to_numpy() < 0.5 * a.to_numpy()
        cents = np.round(g.loc[m, "l_extendedprice"].to_numpy() * 100) \
            .astype(np.int64)
        return pd.DataFrame({"cents": [int(cents.sum())], "n": [int(m.sum())]})

    parts = (ds.map_batches(tag, batch_format="pyarrow")
             .groupby("part").map_groups(per_partition, batch_format="pandas")
             .to_pandas())
    return pd.DataFrame({
        "revenue": [round(int(parts["cents"].sum()) / 100.0, 2)],
        "n_lines": np.array([int(parts["n"].sum())], np.int64)})


SQL_SMALL_QUANTITY_REVENUE = """
WITH a AS (SELECT l_partkey, AVG(l_quantity) AS avg_qty
           FROM lineitem GROUP BY l_partkey)
SELECT ROUND(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)) / 100.0, 2)
         AS revenue,
       CAST(COUNT(*) AS BIGINT) AS n_lines
FROM lineitem l JOIN a ON a.l_partkey = l.l_partkey
WHERE l.l_quantity < 0.5 * a.avg_qty
"""


def q_big_orders_having(sf_dir: str):
    """TPC-H Q18 shape — GROUP BY ... HAVING on a grouped sum, then a
    join for the surviving keys: orders whose total line quantity
    exceeds 200.  The per-orderkey quantity sum starts as a per-block
    combiner partial; the salted hash join against orders co-locates
    each orderkey (bounded group, never salted), finalizes the sum and
    applies the HAVING filter in-partition — only qualifying orders
    (a tiny fraction) ever leave the join stage."""
    from icrawler_ray.stages.joins import salted_hash_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]) \
        .map_batches(
            lambda df: df.groupby("l_orderkey", as_index=False)
            .agg(qty=("l_quantity", "sum"))
            .rename(columns={"l_orderkey": "o_orderkey"}),
            batch_format="pandas")
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"])

    def having(g: pd.DataFrame) -> pd.DataFrame:
        o = g.groupby(["o_orderkey", "o_custkey", "o_totalprice"],
                      as_index=False)["qty"].sum()
        return o.loc[o["qty"] > 200]

    out = salted_hash_join(li, orders, "o_orderkey", agg_fn=having,
                           hot_keys=np.array([], np.int64)).to_pandas()
    out["sum_qty"] = out.pop("qty").round(2)
    out = out.sort_values(["o_totalprice", "o_orderkey"],
                          ascending=[False, True]).reset_index(drop=True)
    return out[["o_orderkey", "o_custkey", "o_totalprice", "sum_qty"]]


SQL_BIG_ORDERS_HAVING = """
SELECT o.o_orderkey, o.o_custkey, o.o_totalprice,
       ROUND(SUM(l.l_quantity), 2) AS sum_qty
FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
GROUP BY o.o_orderkey, o.o_custkey, o.o_totalprice
HAVING SUM(l.l_quantity) > 200
ORDER BY o.o_totalprice DESC, o.o_orderkey
"""


def q_part_spend_concentration(sf_dir: str):
    """TPC-H Q11 shape — keys whose share of a GLOBAL total exceeds a
    threshold: parts whose lineitem spend is more than 1.2x the mean
    per-part share.  Per-block (partkey, cents) combiner partials hash-
    partition by partkey for exact per-part sums; the finals table is
    DIMENSION-sized (one row per part — the part table itself is the
    lower bound of any correct output), so the global total + threshold
    filter fold on the driver.  Spend stays in integer cents; only the
    threshold is a float, so the compare is reproducible."""
    P = 64
    ds = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice"])

    def partial(df: pd.DataFrame) -> pa.Table:
        cents = np.round(df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        g = pd.DataFrame({"l_partkey": df["l_partkey"].to_numpy(),
                          "cents": cents}) \
            .groupby("l_partkey", as_index=False)["cents"].sum()
        g["part"] = (g["l_partkey"].to_numpy(np.int64) % P).astype(np.int32)
        # Arrow block into the exchange (pandas-block shuffle penalty)
        return pa.Table.from_pandas(g, preserve_index=False) \
            .replace_schema_metadata(None)

    def finals(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("l_partkey", as_index=False)["cents"].sum()

    per_part = (ds.map_batches(partial, batch_format="pandas")
                .groupby("part").map_groups(finals, batch_format="pandas")
                .to_pandas())
    total = int(per_part["cents"].sum())
    thresh = 1.2 * total / len(per_part)
    keep = per_part.loc[per_part["cents"].to_numpy() > thresh] \
        .sort_values(["cents", "l_partkey"], ascending=[False, True])
    return pd.DataFrame({
        "l_partkey": keep["l_partkey"].to_numpy(np.int64),
        "spend": np.round(keep["cents"].to_numpy() / 100.0, 2),
        "share": np.round(keep["cents"].to_numpy() / total, 6),
    })


SQL_PART_SPEND_CONCENTRATION = """
WITH s AS (SELECT l_partkey,
                  SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS cents
           FROM lineitem GROUP BY l_partkey),
t AS (SELECT SUM(cents) AS total, COUNT(*) AS np FROM s)
SELECT s.l_partkey, ROUND(s.cents / 100.0, 2) AS spend,
       ROUND(s.cents * 1.0 / t.total, 6) AS share
FROM s, t WHERE s.cents > 1.2 * t.total / t.np
ORDER BY s.cents DESC, s.l_partkey
"""


def q_brand_supplier_variety(sf_dir: str):
    """TPC-H Q16 shape — COUNT(DISTINCT supplier) per (brand, type)
    through the lineitem ⋈ part join.  The probe side pre-shrinks to
    per-block distinct (partkey, suppkey) pairs (a dedup combiner — the
    exchange moves pairs, not lines); the salted join attaches brand and
    type and re-dedups in-partition; the surviving partials are bounded
    by |brands x types x suppliers| — catalog-sized — so the cross-
    partition dedup + count folds on the driver."""
    from icrawler_ray.stages.joins import salted_hash_join

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"]) \
        .map_batches(
            lambda df: df.drop_duplicates()
            .rename(columns={"l_partkey": "p_partkey"}),
            batch_format="pandas")
    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_type"])

    parts = salted_hash_join(
        li, part, "p_partkey",
        agg_fn=lambda g: g[["p_brand", "p_type", "l_suppkey"]]
        .drop_duplicates()).to_pandas()
    uniq = parts.drop_duplicates()
    out = uniq.groupby(["p_brand", "p_type"], as_index=False)["l_suppkey"] \
        .nunique().rename(columns={"l_suppkey": "supplier_cnt"})
    out["supplier_cnt"] = out["supplier_cnt"].astype(np.int64)
    return out.sort_values(
        ["supplier_cnt", "p_brand", "p_type"],
        ascending=[False, True, True]).reset_index(drop=True)


SQL_BRAND_SUPPLIER_VARIETY = """
SELECT p_brand, p_type,
       CAST(COUNT(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
FROM lineitem JOIN part ON p_partkey = l_partkey
GROUP BY p_brand, p_type
ORDER BY supplier_cnt DESC, p_brand, p_type
"""


def q_daily_gap_fill(sf_dir: str):
    """Time-series densification: the per-(type, day) count series with
    MISSING CALENDAR DAYS zero-filled over the global [min, max] day
    range — what every downstream rolling-window op assumes exists.
    One combiner pass shrinks events to (type, day) partials; the
    calendar reindex happens on the driver over the OUTPUT-sized grid
    (types x days), never over events."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.assign(day=df["ts"].dt.strftime("%Y-%m-%d")) \
            .groupby(["event_type", "day"], as_index=False).size() \
            .rename(columns={"size": "n"})
        return g

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    agg = parts.groupby(["event_type", "day"], as_index=False)["n"].sum()
    days = pd.date_range(agg["day"].min(), agg["day"].max(), freq="D") \
        .strftime("%Y-%m-%d")
    types = np.sort(agg["event_type"].unique())
    grid = pd.MultiIndex.from_product([types, days],
                                      names=["event_type", "day"]).to_frame(
        index=False)
    out = grid.merge(agg, on=["event_type", "day"], how="left")
    out["n"] = out["n"].fillna(0).astype(np.int64)
    return out.sort_values(["event_type", "day"]).reset_index(drop=True)


SQL_DAILY_GAP_FILL = """
WITH d AS (SELECT event_type, strftime(ts, '%Y-%m-%d') AS day, COUNT(*) AS n
           FROM events GROUP BY 1, 2),
r AS (SELECT MIN(CAST(day AS DATE)) AS lo, MAX(CAST(day AS DATE)) AS hi FROM d),
cal AS (SELECT strftime(UNNEST(generate_series(lo, hi, INTERVAL 1 DAY)),
                        '%Y-%m-%d') AS day FROM r),
t AS (SELECT DISTINCT event_type FROM d)
SELECT t.event_type, cal.day,
       CAST(COALESCE(d.n, 0) AS BIGINT) AS n
FROM t CROSS JOIN cal
LEFT JOIN d ON d.event_type = t.event_type AND d.day = cal.day
ORDER BY t.event_type, cal.day
"""


def q_grouping_sets_events(sf_dir: str):
    """GROUPING SETS in one pass: event counts + value totals at FOUR
    aggregation levels — (type, hour), (type), (hour), grand total —
    derived from a single (type, hour) combiner sweep (the finest level
    determines every coarser one, so no extra scans); 'ALL' / -1 mark
    the rolled-up dimensions.  Integer cents keep the four totals
    consistent with each other bit-for-bit."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "event_type": df["event_type"].to_numpy(),
            "hour": df["ts"].dt.hour.to_numpy().astype(np.int64),
            "cents": np.round(df["value"].to_numpy() * 100).astype(np.int64)})
        return g.groupby(["event_type", "hour"], as_index=False).agg(
            n=("cents", "size"), cents=("cents", "sum"))

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    fine = parts.groupby(["event_type", "hour"], as_index=False).sum()
    fine["n"] = fine["n"].astype(np.int64)
    by_type = fine.groupby("event_type", as_index=False)[["n", "cents"]].sum() \
        .assign(hour=np.int64(-1))
    by_hour = fine.groupby("hour", as_index=False)[["n", "cents"]].sum() \
        .assign(event_type="ALL")
    total = pd.DataFrame({"event_type": ["ALL"], "hour": np.array([-1], np.int64),
                          "n": [int(fine["n"].sum())],
                          "cents": [int(fine["cents"].sum())]})
    out = pd.concat([fine, by_type, by_hour, total], ignore_index=True)
    out["total_value"] = (out.pop("cents") / 100.0).round(2)
    out["n"] = out["n"].astype(np.int64)
    return out[["event_type", "hour", "n", "total_value"]] \
        .sort_values(["event_type", "hour"]).reset_index(drop=True)


SQL_GROUPING_SETS_EVENTS = """
SELECT COALESCE(event_type, 'ALL') AS event_type,
       CAST(COALESCE(hour, -1) AS BIGINT) AS hour,
       CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(SUM(cents) / 100.0, 2) AS total_value
FROM (SELECT event_type, EXTRACT(hour FROM ts) AS hour,
             CAST(ROUND(value * 100) AS BIGINT) AS cents
      FROM events)
GROUP BY GROUPING SETS ((event_type, hour), (event_type), (hour), ())
ORDER BY 1, 2
"""


def q_brand_top_parts_dense(sf_dir: str):
    """DENSE_RANK top-k WITH ties: per brand, every part whose retail
    price is among the brand's 3 highest DISTINCT prices.  Brands hash
    into bounded partitions; each partition dense-ranks its brands in
    one vectorized pandas pass (rank over the price-sorted frame) —
    the tie-inclusive variant row_number-based top-k can't express."""
    P = 16
    ds = _read(sf_dir, "part", ["p_brand", "p_partkey", "p_retailprice"])

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_array(df["p_brand"].to_numpy(dtype=object)) % P
        return df.assign(part=h.astype(np.int32))

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        r = g.groupby("p_brand")["p_retailprice"] \
            .rank(method="dense", ascending=False)
        out = g.loc[r <= 3].copy()
        out["rnk"] = r[r <= 3].astype(np.int64)
        return out[["p_brand", "p_partkey", "p_retailprice", "rnk"]]

    out = (ds.map_batches(tag, batch_format="pandas")
           .groupby("part").map_groups(topk, batch_format="pandas")
           .to_pandas())
    return out.sort_values(["p_brand", "rnk", "p_partkey"]) \
        .reset_index(drop=True)


SQL_BRAND_TOP_PARTS_DENSE = """
SELECT p_brand, p_partkey, p_retailprice, CAST(rnk AS BIGINT) AS rnk
FROM (SELECT p_brand, p_partkey, p_retailprice,
             DENSE_RANK() OVER (PARTITION BY p_brand
                                ORDER BY p_retailprice DESC) AS rnk
      FROM part)
WHERE rnk <= 3 ORDER BY p_brand, rnk, p_partkey
"""


def q_systematic_sample(sf_dir: str):
    """Systematic (every k-th) sampling over a GLOBAL deterministic
    order — the stable-across-reruns audit sample: events sorted by
    (ts, event_id), every 100th row kept.  One distributed sort via
    functions/seq.py::assign_global_seq (metadata prefix-sum index),
    then an embarrassingly-parallel modulo filter; output is n/k rows
    and nothing else reaches the driver."""
    from icrawler_ray.functions.seq import assign_global_seq

    ds = _read(sf_dir, "events", ["event_id", "ts", "event_type"])
    ranked = assign_global_seq(ds, ["ts", "event_id"], col="rk")

    def pick(t: pa.Table) -> pa.Table:
        m = pa.array(t["rk"].to_numpy(zero_copy_only=False) % 100 == 0)
        return t.filter(m).drop_columns("rk")

    out = ranked.map_batches(pick, batch_format="pyarrow").to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


SQL_SYSTEMATIC_SAMPLE = """
SELECT event_id, ts, event_type
FROM (SELECT event_id, ts, event_type,
             ROW_NUMBER() OVER (ORDER BY ts, event_id) - 1 AS rk
      FROM events)
WHERE rk % 100 = 0 ORDER BY event_id
"""


def q_theilsen_trend(sf_dir: str):
    """Theil–Sen robust trend: per event type, the MEDIAN of all pairwise
    daily-count slopes — the outlier-proof alternative to the OLS fit in
    q_price_size_regression.  Events shrink to (type, day) combiner
    partials; each type's O(days²) pair expansion runs inside a bounded
    per-type partition (days, not events, set the cost); the median uses
    the repo-wide quantile_disc convention (element at ceil(q·n)-1 of the
    sorted array)."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(day=df["ts"].dt.normalize()) \
            .groupby(["event_type", "day"], as_index=False).size() \
            .rename(columns={"size": "n"})

    def slope_per_type(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby(["event_type", "day"], as_index=False)["n"].sum() \
            .sort_values("day")
        d = (g["day"] - g["day"].min()).dt.days.to_numpy(np.int64)
        n = g["n"].to_numpy(np.float64)
        i, j = np.triu_indices(len(d), k=1)
        slopes = np.sort((n[j] - n[i]) / (d[j] - d[i]))
        med = slopes[int(np.ceil(0.5 * len(slopes))) - 1]
        return pd.DataFrame({"event_type": [g["event_type"].iloc[0]],
                             "slope": [round(float(med), 6)],
                             "n_pairs": np.array([len(slopes)], np.int64)})

    return (ds.map_batches(partial, batch_format="pandas")
            .groupby("event_type")
            .map_groups(slope_per_type, batch_format="pandas"))


SQL_THEILSEN_TREND = """
WITH d AS (SELECT event_type, CAST(ts AS DATE) AS day, COUNT(*) AS n
           FROM events GROUP BY 1, 2),
p AS (SELECT a.event_type,
             (b.n - a.n) * 1.0 / date_diff('day', a.day, b.day) AS slope
      FROM d a JOIN d b ON a.event_type = b.event_type AND a.day < b.day)
SELECT event_type, ROUND(quantile_disc(slope, 0.5), 6) AS slope,
       CAST(COUNT(*) AS BIGINT) AS n_pairs
FROM p GROUP BY event_type ORDER BY event_type
"""


def q_cusum_changepoint(sf_dir: str):
    """CUSUM change-point detection: per event type, the day where the
    cumulative deviation of daily counts from the series mean peaks in
    magnitude (earliest day on ties) — the standard level-shift locator.
    One (type, day) combiner pass; the cumulative walk runs per type over
    the day-ordered series (days-bounded), identical evaluation order on
    both engines so the float prefix sums agree bit-for-bit."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(day=df["ts"].dt.strftime("%Y-%m-%d")) \
            .groupby(["event_type", "day"], as_index=False).size() \
            .rename(columns={"size": "n"})

    def cusum_per_type(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby(["event_type", "day"], as_index=False)["n"].sum() \
            .sort_values("day")
        n = g["n"].to_numpy(np.float64)
        mean = n.sum() * 1.0 / len(n)
        c = np.cumsum(n - mean)
        k = int(np.argmax(np.abs(c)))  # argmax takes the FIRST max: earliest day
        return pd.DataFrame({"event_type": [g["event_type"].iloc[0]],
                             "day": [g["day"].iloc[k]],
                             "cusum": [round(float(c[k]), 6)]})

    return (ds.map_batches(partial, batch_format="pandas")
            .groupby("event_type")
            .map_groups(cusum_per_type, batch_format="pandas"))


SQL_CUSUM_CHANGEPOINT = """
WITH d AS (SELECT event_type, strftime(ts, '%Y-%m-%d') AS day, COUNT(*) AS n
           FROM events GROUP BY 1, 2),
m AS (SELECT event_type, SUM(n) * 1.0 / COUNT(*) AS mean FROM d GROUP BY 1),
c AS (SELECT d.event_type, d.day,
             SUM(d.n - m.mean) OVER (PARTITION BY d.event_type ORDER BY d.day
                                     ROWS UNBOUNDED PRECEDING) AS cusum
      FROM d JOIN m ON m.event_type = d.event_type)
SELECT event_type, day, ROUND(cusum, 6) AS cusum
FROM c
QUALIFY ROW_NUMBER() OVER (PARTITION BY event_type
                           ORDER BY ABS(cusum) DESC, day) = 1
ORDER BY event_type
"""


def _skyline_sweep(df: pd.DataFrame) -> pd.DataFrame:
    """Vectorized 2-D skyline (minimize price then size): sort by price,
    per-price-level minimum size must beat the strict prefix minimum."""
    d = df.sort_values(["p_retailprice", "p_size"], kind="mergesort")
    price = d["p_retailprice"].to_numpy()
    size = d["p_size"].to_numpy()
    new_level = np.r_[True, price[1:] != price[:-1]]
    gmin = size[new_level]
    prefix = np.r_[np.inf, np.minimum.accumulate(gmin)[:-1]]
    keep_level = gmin < prefix
    level = np.cumsum(new_level) - 1
    keep = (size == gmin[level]) & keep_level[level]
    return d.loc[keep]


def q_skyline_parts(sf_dir: str):
    """Skyline (Pareto-frontier) query: parts not dominated on
    (retailprice, size) — q dominates p when both coordinates are <= and
    at least one is strict.  Distributed via the classic two-phase
    algorithm: a per-block LOCAL skyline is a sound combiner (locally
    dominated ⇒ globally dominated), so only frontier candidates leave
    each block; the driver sweeps the frontier-sized union once more."""
    ds = _read(sf_dir, "part", ["p_partkey", "p_retailprice", "p_size"])
    cand = ds.map_batches(_skyline_sweep, batch_format="pandas").to_pandas()
    out = _skyline_sweep(cand)
    out["p_size"] = out["p_size"].astype(np.int64)
    return out.sort_values(["p_retailprice", "p_size", "p_partkey"]) \
        .reset_index(drop=True)[["p_partkey", "p_retailprice", "p_size"]]


SQL_SKYLINE_PARTS = """
SELECT p_partkey, p_retailprice, CAST(p_size AS BIGINT) AS p_size
FROM part p
WHERE NOT EXISTS (
  SELECT 1 FROM part q
  WHERE q.p_retailprice <= p.p_retailprice AND q.p_size <= p.p_size
    AND (q.p_retailprice < p.p_retailprice OR q.p_size < p.p_size))
ORDER BY p_retailprice, p_size, p_partkey
"""


def q_modal_hour(sf_dir: str):
    """Per-group mode with a deterministic tiebreak: each event type's
    busiest hour-of-day (smallest hour on count ties) and that hour's
    share of the type's traffic.  One (type, hour) combiner pass; the
    argmax folds over the (types x 24)-bounded grid."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df["event_type"].to_numpy(),
            "hour": df["ts"].dt.hour.to_numpy().astype(np.int64)}) \
            .groupby(["event_type", "hour"], as_index=False).size() \
            .rename(columns={"size": "n"})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    g = parts.groupby(["event_type", "hour"], as_index=False)["n"].sum()
    g = g.sort_values(["event_type", "n", "hour"],
                      ascending=[True, False, True])
    top = g.groupby("event_type", as_index=False).head(1)
    tot = g.groupby("event_type")["n"].sum()
    return pd.DataFrame({
        "event_type": top["event_type"].to_numpy(),
        "modal_hour": top["hour"].to_numpy(np.int64),
        "n": top["n"].to_numpy(np.int64),
        "share": np.round(top["n"].to_numpy()
                          / tot[top["event_type"]].to_numpy(), 6),
    }).sort_values("event_type").reset_index(drop=True)


SQL_MODAL_HOUR = """
WITH c AS (SELECT event_type, EXTRACT(hour FROM ts) AS hour, COUNT(*) AS n
           FROM events GROUP BY 1, 2)
SELECT event_type, CAST(hour AS BIGINT) AS modal_hour,
       CAST(n AS BIGINT) AS n,
       ROUND(n * 1.0 / SUM(n) OVER (PARTITION BY event_type), 6) AS share
FROM c
QUALIFY ROW_NUMBER() OVER (PARTITION BY event_type
                           ORDER BY n DESC, hour) = 1
ORDER BY event_type
"""


def q_copresence_daily(sf_dir: str):
    """Bitmap-index co-presence: per day, how many users produced BOTH a
    purchase and an error event that day — the set-intersection count a
    bitmap index answers.  Each block emits (day, user, type-bitmask)
    partials; masks OR together per (day, user) inside bounded user-hash
    partitions, and only per-day popcount partials reach the driver.
    The bitmask OR is the mergeable sketch — no distinct-pair explosion."""
    P = 32
    TYPES = {"purchase": 1, "error": 2}
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.loc[df["event_type"].isin(TYPES)]
        g = pd.DataFrame({
            "day": df["ts"].dt.strftime("%Y-%m-%d"),
            "user_id": df["user_id"].to_numpy(),
            "mask": df["event_type"].map(TYPES).to_numpy(np.int64)}) \
            .groupby(["day", "user_id"], as_index=False)["mask"] \
            .agg(lambda s: int(np.bitwise_or.reduce(s.to_numpy())))
        g["part"] = (g["user_id"].to_numpy(np.int64) % P).astype(np.int32)
        return g

    def count_part(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["day", "user_id"], as_index=False)["mask"] \
            .agg(lambda s: int(np.bitwise_or.reduce(s.to_numpy())))
        both = m.loc[m["mask"] == 3]
        return both.groupby("day", as_index=False).size() \
            .rename(columns={"size": "n"})

    parts = (ds.map_batches(partial, batch_format="pandas")
             .groupby("part").map_groups(count_part, batch_format="pandas")
             .to_pandas())
    out = parts.groupby("day", as_index=False)["n"].sum()
    out["n_users"] = out.pop("n").astype(np.int64)
    return out.sort_values("day").reset_index(drop=True)


SQL_COPRESENCE_DAILY = """
WITH m AS (SELECT strftime(ts, '%Y-%m-%d') AS day, user_id,
                  BIT_OR(CASE event_type WHEN 'purchase' THEN 1
                                         WHEN 'error' THEN 2 END) AS mask
           FROM events WHERE event_type IN ('purchase', 'error')
           GROUP BY 1, 2)
SELECT day, CAST(COUNT(*) AS BIGINT) AS n_users
FROM m WHERE mask = 3 GROUP BY day ORDER BY day
"""


def q_rle_compression_audit(sf_dir: str):
    """Run-length audit of the event-type column in global (ts,
    event_id) order — the encoder's question 'how well would RLE do?'.
    Distributed boundary stitch: after one assign_global_seq sort, each
    block emits its INTERNAL transition count plus its (min_rk, first,
    last) edge descriptor; the driver orders the block descriptors and
    adds the cross-block transitions — blocks-sized work, rows never
    leave the cluster."""
    from icrawler_ray.functions.seq import assign_global_seq

    ds = _read(sf_dir, "events", ["event_id", "ts", "event_type"])
    ranked = assign_global_seq(ds, ["ts", "event_id"], col="rk")

    def block_partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("rk", kind="mergesort")
        t = df["event_type"].to_numpy()
        internal = int((t[1:] != t[:-1]).sum())
        return pd.DataFrame({"min_rk": [int(df["rk"].iloc[0])],
                             "first": [t[0]], "last": [t[-1]],
                             "internal": [internal], "n": [len(t)]})

    parts = ranked.map_batches(block_partial, batch_format="pandas") \
        .to_pandas().sort_values("min_rk")
    cross = int((parts["first"].to_numpy()[1:]
                 != parts["last"].to_numpy()[:-1]).sum())
    runs = 1 + int(parts["internal"].sum()) + cross
    n = int(parts["n"].sum())
    return pd.DataFrame({"n_rows": np.array([n], np.int64),
                         "n_runs": np.array([runs], np.int64),
                         "ratio": [round(n / runs, 6)]})


SQL_RLE_COMPRESSION_AUDIT = """
WITH o AS (SELECT event_type,
                  LAG(event_type) OVER (ORDER BY ts, event_id) AS prev
           FROM events)
SELECT CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(SUM(CASE WHEN prev IS NULL OR event_type != prev
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_runs,
       ROUND(COUNT(*) * 1.0 / SUM(CASE WHEN prev IS NULL
                                        OR event_type != prev
                                       THEN 1 ELSE 0 END), 6) AS ratio
FROM o
"""


def q_weighted_balance(sf_dir: str):
    """Cross-table weighted mean: average customer account balance
    WEIGHTED by each customer's order count — the engagement-weighted
    summary a naive per-row mean gets wrong.  Orders shrink to per-
    custkey count partials; the salted hash join against customer
    multiplies exact integer cents x counts per partition; one (num,
    den) partial per partition reaches the driver."""
    from icrawler_ray.stages.joins import salted_hash_join

    orders = _read(sf_dir, "orders", ["o_custkey"]) \
        .map_batches(
            lambda df: df.groupby("o_custkey", as_index=False).size()
            .rename(columns={"size": "w", "o_custkey": "c_custkey"}),
            batch_format="pandas")
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        w = g.groupby(["c_custkey", "c_acctbal"], as_index=False)["w"].sum()
        cents = np.round(w["c_acctbal"].to_numpy() * 100).astype(np.int64)
        wt = w["w"].to_numpy(np.int64)
        return pd.DataFrame({"num": [int((cents * wt).sum())],
                             "den": [int(wt.sum())]})

    parts = salted_hash_join(orders, cust, "c_custkey", agg_fn=agg,
                             hot_keys=np.array([], np.int64)).to_pandas()
    num, den = int(parts["num"].sum()), int(parts["den"].sum())
    return pd.DataFrame({
        "weighted_avg_balance": [round(num / 100.0 / den, 6)],
        "n_orders": np.array([den], np.int64)})


SQL_WEIGHTED_BALANCE = """
WITH w AS (SELECT o_custkey, COUNT(*) AS w FROM orders GROUP BY o_custkey)
SELECT ROUND(SUM(CAST(ROUND(c.c_acctbal * 100) AS BIGINT) * w.w)
             / 100.0 / SUM(w.w), 6) AS weighted_avg_balance,
       CAST(SUM(w.w) AS BIGINT) AS n_orders
FROM w JOIN customer c ON c.c_custkey = w.o_custkey
"""


def q_centered_moving_avg(sf_dir: str):
    """CENTERED 7-row moving average (±3 rows, truncated at the edges)
    over each type's day-ordered count series — the symmetric smoother
    (trailing windows lag the signal; q_events_sliding_window is the
    trailing variant).  Counts reduce to (type, day) combiner partials;
    the window pass runs per type over the days-bounded series with
    identical row framing on both engines."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(day=df["ts"].dt.strftime("%Y-%m-%d")) \
            .groupby(["event_type", "day"], as_index=False).size() \
            .rename(columns={"size": "n"})

    def smooth(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby(["event_type", "day"], as_index=False)["n"].sum() \
            .sort_values("day").reset_index(drop=True)
        n = g["n"].to_numpy(np.int64)
        cs = np.r_[0, np.cumsum(n)]
        lo = np.maximum(np.arange(len(n)) - 3, 0)
        hi = np.minimum(np.arange(len(n)) + 3, len(n) - 1)
        g["smooth_n"] = np.round((cs[hi + 1] - cs[lo]) / (hi - lo + 1), 6)
        g["n"] = g["n"].astype(np.int64)
        return g

    return (ds.map_batches(partial, batch_format="pandas")
            .groupby("event_type").map_groups(smooth, batch_format="pandas"))


SQL_CENTERED_MOVING_AVG = """
WITH d AS (SELECT event_type, strftime(ts, '%Y-%m-%d') AS day,
                  CAST(COUNT(*) AS BIGINT) AS n
           FROM events GROUP BY 1, 2)
SELECT event_type, day, n,
       ROUND(AVG(n * 1.0) OVER (PARTITION BY event_type ORDER BY day
                                ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING),
             6) AS smooth_n
FROM d ORDER BY event_type, day
"""


def q_fully_shipped_share(sf_dir: str):
    """Universal quantifier (∀-gate): per order priority, the share of
    orders whose EVERY line shipped within 60 days — the complement of
    TPC-H Q4's EXISTS gate.  ALL(line ≤ cutoff) collapses to
    max(l_shipdate) ≤ cutoff, so the same per-order max combiner feeds
    one bounded-key hash join and the gate is a vectorized compare;
    (priority, ok, n) partials are all that leave the join."""
    from icrawler_ray.stages.joins import salted_hash_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"]) \
        .map_batches(
            lambda df: df.groupby("l_orderkey", as_index=False)
            .agg(max_ship=("l_shipdate", "max"))
            .rename(columns={"l_orderkey": "o_orderkey"}),
            batch_format="pandas")
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"])

    def gate(g: pd.DataFrame) -> pd.DataFrame:
        o = g.groupby("o_orderkey", as_index=False).agg(
            max_ship=("max_ship", "max"),
            o_orderdate=("o_orderdate", "first"),
            o_orderpriority=("o_orderpriority", "first"))
        o["ok"] = (o["max_ship"]
                   <= o["o_orderdate"] + pd.Timedelta(days=60)).astype(np.int64)
        return o.groupby("o_orderpriority", as_index=False).agg(
            n_ok=("ok", "sum"), n=("ok", "size"))

    parts = salted_hash_join(li, orders, "o_orderkey", agg_fn=gate,
                             hot_keys=np.array([], np.int64)).to_pandas()
    out = parts.groupby("o_orderpriority", as_index=False)[["n_ok", "n"]].sum()
    out["share"] = (out["n_ok"] / out["n"]).round(6)
    out["n_orders"] = out.pop("n").astype(np.int64)
    out["n_ok"] = out["n_ok"].astype(np.int64)
    return out.sort_values("o_orderpriority").reset_index(drop=True)[
        ["o_orderpriority", "n_ok", "n_orders", "share"]]


SQL_FULLY_SHIPPED_SHARE = """
WITH o AS (
  SELECT o.o_orderpriority,
         CASE WHEN MAX(l.l_shipdate) <= o.o_orderdate + INTERVAL 60 DAY
              THEN 1 ELSE 0 END AS ok
  FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey
  GROUP BY o.o_orderkey, o.o_orderpriority, o.o_orderdate)
SELECT o_orderpriority, CAST(SUM(ok) AS BIGINT) AS n_ok,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       ROUND(SUM(ok) * 1.0 / COUNT(*), 6) AS share
FROM o GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


def q_all_quarters_customers(sf_dir: str):
    """Relational division: per market segment, customers with orders in
    ALL FOUR calendar quarters (any year).  The divisor set is tiny and fixed, so
    division becomes a 4-bit coverage mask — per-block (custkey, mask)
    OR-partials, a custkey-partitioned OR-reduce, then mask == 15 gates
    the count; segment comes from one bounded-key hash join.  No
    COUNT(DISTINCT ...) exchange, just a mergeable bitmask."""
    from icrawler_ray.stages.joins import salted_hash_join

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        q = df["o_orderdate"].dt.quarter.to_numpy()
        g = pd.DataFrame({"c_custkey": df["o_custkey"].to_numpy(),
                          "mask": np.left_shift(1, q - 1).astype(np.int64)}) \
            .groupby("c_custkey", as_index=False)["mask"] \
            .agg(lambda s: int(np.bitwise_or.reduce(s.to_numpy())))
        return g

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"]) \
        .map_batches(partial, batch_format="pandas")
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def divide(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["c_custkey", "c_mktsegment"], as_index=False)["mask"] \
            .agg(lambda s: int(np.bitwise_or.reduce(s.to_numpy())))
        full = m.loc[m["mask"] == 15]
        return full.groupby("c_mktsegment", as_index=False).size() \
            .rename(columns={"size": "n"})

    parts = salted_hash_join(orders, cust, "c_custkey", agg_fn=divide,
                             hot_keys=np.array([], np.int64)).to_pandas()
    out = parts.groupby("c_mktsegment", as_index=False)["n"].sum()
    out["n_customers"] = out.pop("n").astype(np.int64)
    return out.sort_values("c_mktsegment").reset_index(drop=True)


SQL_ALL_QUARTERS_CUSTOMERS = """
WITH q AS (SELECT o_custkey, COUNT(DISTINCT EXTRACT(quarter FROM o_orderdate))
                    AS nq
           FROM orders
           GROUP BY o_custkey HAVING nq = 4)
SELECT c.c_mktsegment, CAST(COUNT(*) AS BIGINT) AS n_customers
FROM q JOIN customer c ON c.c_custkey = q.o_custkey
GROUP BY c.c_mktsegment ORDER BY c.c_mktsegment
"""


def q_trimmed_mean_orders(sf_dir: str):
    """5%-trimmed robust mean of order totals: drop the bottom and top
    5% by GLOBAL rank (ties broken by orderkey), average the middle 90%
    in exact integer cents.  One assign_global_seq rank sort; the trim
    is an embarrassingly-parallel rank-range filter; per-block (sum, n)
    partials fold on the driver."""
    from icrawler_ray.functions.seq import assign_global_seq

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"]) \
        .map_batches(
            lambda df: pd.DataFrame({
                "o_orderkey": df["o_orderkey"].to_numpy(),
                "cents": np.round(df["o_totalprice"].to_numpy() * 100)
                .astype(np.int64)}),
            batch_format="pandas")
    n = ds.count()
    lo, hi = int(np.floor(0.05 * n)), n - int(np.floor(0.05 * n))
    ranked = assign_global_seq(ds, ["cents", "o_orderkey"], col="rk")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        m = (df["rk"].to_numpy(np.int64) >= lo) \
            & (df["rk"].to_numpy(np.int64) < hi)
        return pd.DataFrame({"s": [int(df.loc[m, "cents"].sum())],
                             "k": [int(m.sum())]})

    parts = ranked.map_batches(partial, batch_format="pandas").to_pandas()
    s, k = int(parts["s"].sum()), int(parts["k"].sum())
    return pd.DataFrame({
        "trimmed_mean": [round(s / 100.0 / k, 6)],
        "n_kept": np.array([k], np.int64),
        "n_total": np.array([n], np.int64)})


SQL_TRIMMED_MEAN_ORDERS = """
WITH c AS (SELECT o_orderkey,
                  CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents
           FROM orders),
r AS (SELECT cents, ROW_NUMBER() OVER (ORDER BY cents, o_orderkey) - 1 AS rk,
             COUNT(*) OVER () AS n
      FROM c),
k AS (SELECT cents, n FROM r
      WHERE rk >= FLOOR(0.05 * n) AND rk < n - FLOOR(0.05 * n))
SELECT ROUND(SUM(cents) / 100.0 / COUNT(*), 6) AS trimmed_mean,
       CAST(COUNT(*) AS BIGINT) AS n_kept,
       CAST(MIN(n) AS BIGINT) AS n_total
FROM k
"""


def q_priority_value_kappa(sf_dir: str):
    """Cohen's kappa between two order flags — high-value (totalprice >
    150k) vs urgent-priority (1-URGENT / 2-HIGH): does priority actually
    track value beyond chance agreement?  The 2x2 contingency table is a
    pure combiner (four counts per block); kappa folds on the driver
    from exact integer cells."""
    ds = _read(sf_dir, "orders", ["o_totalprice", "o_orderpriority"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        hi = (df["o_totalprice"].to_numpy() > 150_000.0).astype(np.int64)
        urg = df["o_orderpriority"].isin(["1-URGENT", "2-HIGH"]) \
            .to_numpy().astype(np.int64)
        cell = hi * 2 + urg
        bc = np.bincount(cell, minlength=4)
        return pd.DataFrame({"cell": np.arange(4, dtype=np.int64),
                             "n": bc.astype(np.int64)})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    c = parts.groupby("cell")["n"].sum().reindex(range(4), fill_value=0) \
        .to_numpy(np.float64)
    n = c.sum()
    po = (c[0] + c[3]) / n
    pe = ((c[2] + c[3]) * (c[1] + c[3])
          + (c[0] + c[1]) * (c[0] + c[2])) / (n * n)
    kappa = (po - pe) / (1.0 - pe)
    return pd.DataFrame({
        "kappa": [round(float(kappa), 6)],
        "observed_agreement": [round(float(po), 6)],
        "n_orders": np.array([int(n)], np.int64)})


SQL_PRIORITY_VALUE_KAPPA = """
WITH f AS (SELECT CASE WHEN o_totalprice > 150000.0 THEN 1 ELSE 0 END AS hi,
                  CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                       THEN 1 ELSE 0 END AS urg
           FROM orders),
c AS (SELECT SUM(CASE WHEN hi = 0 AND urg = 0 THEN 1 ELSE 0 END) * 1.0 AS c00,
             SUM(CASE WHEN hi = 0 AND urg = 1 THEN 1 ELSE 0 END) * 1.0 AS c01,
             SUM(CASE WHEN hi = 1 AND urg = 0 THEN 1 ELSE 0 END) * 1.0 AS c10,
             SUM(CASE WHEN hi = 1 AND urg = 1 THEN 1 ELSE 0 END) * 1.0 AS c11,
             COUNT(*) * 1.0 AS n
      FROM f)
SELECT ROUND(((c00 + c11) / n
              - ((c10 + c11) * (c01 + c11) + (c00 + c01) * (c00 + c10))
                / (n * n))
             / (1.0 - ((c10 + c11) * (c01 + c11)
                       + (c00 + c01) * (c00 + c10)) / (n * n)), 6) AS kappa,
       ROUND((c00 + c11) / n, 6) AS observed_agreement,
       CAST(n AS BIGINT) AS n_orders
FROM c
"""


def q_geo_rollup_shares(sf_dir: str):
    """Hierarchical percent-of-parent rollup: revenue by region > nation
    with each nation's share WITHIN its region and each region's share
    of the grand total — the drill-down tree every BI layer renders.
    customer→nation→region is the broadcast dim (one ray.put); orders
    reduce to per-(region, nation) cent partials in the map stage, and
    both share levels fold over the 25-row grid."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas()
    nation = _read(sf_dir, "nation",
                   ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    region = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    dim = cust.merge(nation, left_on="c_nationkey", right_on="n_nationkey") \
        .merge(region, left_on="n_regionkey", right_on="r_regionkey")
    dim_ref = ray.put(dim[["c_custkey", "n_name", "r_name"]])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = ray.get(dim_ref)
        j = df.merge(d, left_on="o_custkey", right_on="c_custkey")
        j["cents"] = np.round(j["o_totalprice"].to_numpy() * 100) \
            .astype(np.int64)
        return j.groupby(["r_name", "n_name"], as_index=False)["cents"].sum()

    parts = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]) \
        .map_batches(partial, batch_format="pandas").to_pandas()
    g = parts.groupby(["r_name", "n_name"], as_index=False)["cents"].sum()
    rtot = g.groupby("r_name")["cents"].transform("sum")
    tot = int(g["cents"].sum())
    return pd.DataFrame({
        "r_name": g["r_name"], "n_name": g["n_name"],
        "revenue": (g["cents"] / 100.0).round(2),
        "share_in_region": (g["cents"] / rtot).round(6),
        "region_share_of_total": (rtot / tot).round(6),
    }).sort_values(["r_name", "n_name"]).reset_index(drop=True)


SQL_GEO_ROLLUP_SHARES = """
WITH g AS (
  SELECT r.r_name, n.n_name,
         SUM(CAST(ROUND(o.o_totalprice * 100) AS BIGINT)) AS cents
  FROM orders o
  JOIN customer c ON c.c_custkey = o.o_custkey
  JOIN nation n ON n.n_nationkey = c.c_nationkey
  JOIN region r ON r.r_regionkey = n.n_regionkey
  GROUP BY r.r_name, n.n_name)
SELECT r_name, n_name, ROUND(cents / 100.0, 2) AS revenue,
       ROUND(cents * 1.0 / SUM(cents) OVER (PARTITION BY r_name), 6)
         AS share_in_region,
       ROUND(SUM(cents) OVER (PARTITION BY r_name) * 1.0
             / SUM(cents) OVER (), 6) AS region_share_of_total
FROM g ORDER BY r_name, n_name
"""


def q_range_window_revenue(sf_dir: str):
    """RANGE-frame rolling sum: per order DAY, the revenue of the
    trailing 7 CALENDAR days — a date-range frame, not a row frame, so
    calendar gaps shrink the window (contrast q_events_sliding_window's
    ROWS frame).  Orders reduce to per-day cent partials; the windowed
    pass runs once over the days-bounded series via two searchsorted
    prefix-sum lookups."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "day": df["o_orderdate"].dt.normalize(),
            "cents": np.round(df["o_totalprice"].to_numpy() * 100)
            .astype(np.int64)}).groupby("day", as_index=False)["cents"].sum()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    g = parts.groupby("day", as_index=False)["cents"].sum().sort_values("day")
    days = g["day"].to_numpy("datetime64[D]").astype(np.int64)
    cents = g["cents"].to_numpy(np.int64)
    cs = np.r_[0, np.cumsum(cents)]
    lo = np.searchsorted(days, days - 6, side="left")
    trail = cs[np.arange(1, len(days) + 1)] - cs[lo]
    return pd.DataFrame({
        "day": g["day"].dt.strftime("%Y-%m-%d").to_numpy(),
        "revenue": (cents / 100.0).round(2),
        "trailing_7d": (trail / 100.0).round(2)})


SQL_RANGE_WINDOW_REVENUE = """
WITH d AS (SELECT CAST(o_orderdate AS DATE) AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS cents
           FROM orders GROUP BY 1)
SELECT strftime(day, '%Y-%m-%d') AS day,
       ROUND(cents / 100.0, 2) AS revenue,
       ROUND(SUM(cents) OVER (ORDER BY day
                              RANGE BETWEEN INTERVAL 6 DAY PRECEDING
                                        AND CURRENT ROW) / 100.0, 2)
         AS trailing_7d
FROM d ORDER BY day
"""


def q_wow_change(sf_dir: str):
    """Week-over-week change by KEYED lag (exact day-7 lookup, not a
    positional LAG): per (type, day) count vs the same type seven days
    earlier — calendar gaps yield NULL/absent baselines instead of the
    wrong row, the trap positional windows fall into.  One combiner
    pass; the self-merge runs over the (types x days) grid."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(day=df["ts"].dt.normalize()) \
            .groupby(["event_type", "day"], as_index=False).size() \
            .rename(columns={"size": "n"})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    g = parts.groupby(["event_type", "day"], as_index=False)["n"].sum()
    prev = g.assign(day=g["day"] + pd.Timedelta(days=7)) \
        .rename(columns={"n": "n_prev"})
    j = g.merge(prev, on=["event_type", "day"], how="inner")
    j["wow_pct"] = ((j["n"] - j["n_prev"]) / j["n_prev"] * 100).round(6)
    return pd.DataFrame({
        "event_type": j["event_type"],
        "day": j["day"].dt.strftime("%Y-%m-%d"),
        "n": j["n"].astype(np.int64),
        "n_prev": j["n_prev"].astype(np.int64),
        "wow_pct": j["wow_pct"],
    }).sort_values(["event_type", "day"]).reset_index(drop=True)


SQL_WOW_CHANGE = """
WITH d AS (SELECT event_type, CAST(ts AS DATE) AS day, COUNT(*) AS n
           FROM events GROUP BY 1, 2)
SELECT a.event_type, strftime(a.day, '%Y-%m-%d') AS day,
       CAST(a.n AS BIGINT) AS n, CAST(b.n AS BIGINT) AS n_prev,
       ROUND((a.n - b.n) * 100.0 / b.n, 6) AS wow_pct
FROM d a JOIN d b ON b.event_type = a.event_type
                 AND b.day = a.day - INTERVAL 7 DAY
ORDER BY a.event_type, day
"""


def q_dup_orders_audit(sf_dir: str):
    """Duplicate-payment detector: orders sharing (custkey, totalprice,
    orderdate) — the double-charge audit.  Composite keys hash into
    bounded partitions via a per-block (key, count) combiner; only
    groups whose partial counts can sum past 1 matter, and the audit
    summary (dup groups, dup orders, largest clique) folds from
    group-sized partials."""
    P = 64
    ds = _read(sf_dir, "orders",
               ["o_custkey", "o_totalprice", "o_orderdate"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["o_custkey", "o_totalprice", "o_orderdate"],
                       as_index=False).size().rename(columns={"size": "n"})
        g["part"] = (g["o_custkey"].to_numpy(np.int64) % P).astype(np.int32)
        return g

    def audit(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["o_custkey", "o_totalprice", "o_orderdate"],
                      as_index=False)["n"].sum()
        dups = m.loc[m["n"] > 1]
        return pd.DataFrame({
            "n_groups": [len(dups)],
            "n_orders": [int(dups["n"].sum())],
            "max_clique": [int(dups["n"].max()) if len(dups) else 0]})

    parts = (ds.map_batches(partial, batch_format="pandas")
             .groupby("part").map_groups(audit, batch_format="pandas")
             .to_pandas())
    return pd.DataFrame({
        "n_dup_groups": np.array([int(parts["n_groups"].sum())], np.int64),
        "n_dup_orders": np.array([int(parts["n_orders"].sum())], np.int64),
        "max_clique": np.array([int(parts["max_clique"].max())], np.int64)})


SQL_DUP_ORDERS_AUDIT = """
WITH g AS (SELECT o_custkey, o_totalprice, o_orderdate, COUNT(*) AS n
           FROM orders GROUP BY 1, 2, 3 HAVING COUNT(*) > 1)
SELECT CAST(COUNT(*) AS BIGINT) AS n_dup_groups,
       CAST(COALESCE(SUM(n), 0) AS BIGINT) AS n_dup_orders,
       CAST(COALESCE(MAX(n), 0) AS BIGINT) AS max_clique
FROM g
"""


def q_seasonality_strength(sf_dir: str):
    """Seasonality strength per event type: 1 - Var(residual)/Var(series)
    after removing weekday means from the daily-count series — the
    'how much does day-of-week explain' decomposition.  Daily counts are
    a (type, day) combiner; the weekday-mean removal and both variances
    run over the days-bounded series per type, from exact integer count
    sums so the float algebra matches across engines."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df.assign(day=df["ts"].dt.normalize()) \
            .groupby(["event_type", "day"], as_index=False).size() \
            .rename(columns={"size": "n"})
        return d

    def strength(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby(["event_type", "day"], as_index=False)["n"].sum()
        g["dow"] = g["day"].dt.dayofweek
        n = g["n"].to_numpy(np.float64)
        mean = n.sum() / len(n)
        var_tot = ((n - mean) ** 2).sum() / len(n)
        wmean = g.groupby("dow")["n"].transform("mean").to_numpy()
        resid = n - wmean
        rmean = resid.sum() / len(resid)
        var_res = ((resid - rmean) ** 2).sum() / len(resid)
        return pd.DataFrame({
            "event_type": [g["event_type"].iloc[0]],
            "strength": [round(float(1.0 - var_res / var_tot), 6)],
            "n_days": np.array([len(n)], np.int64)})

    return (ds.map_batches(partial, batch_format="pandas")
            .groupby("event_type").map_groups(strength,
                                              batch_format="pandas"))


SQL_SEASONALITY_STRENGTH = """
WITH d AS (SELECT event_type, CAST(ts AS DATE) AS day, COUNT(*) AS n
           FROM events GROUP BY 1, 2),
w AS (SELECT event_type, dayofweek(day) AS dow, AVG(n * 1.0) AS wmean
      FROM d GROUP BY 1, 2),
r AS (SELECT d.event_type, d.n * 1.0 AS n, d.n - w.wmean AS resid
      FROM d JOIN w ON w.event_type = d.event_type
                    AND w.dow = dayofweek(d.day))
SELECT event_type,
       ROUND(1.0 - (AVG(resid * resid) - AVG(resid) * AVG(resid))
                   / (AVG(n * n) - AVG(n) * AVG(n)), 6) AS strength,
       CAST(COUNT(*) AS BIGINT) AS n_days
FROM r GROUP BY event_type ORDER BY event_type
"""


def q_linenumber_gaps(sf_dir: str):
    """Sequence-integrity audit: orders whose line numbers are not the
    dense 1..k prefix (max(linenumber) != count or min != 1) — the
    dropped-row detector for any ingest that shreds parent/child rows.
    Per-block (orderkey, min, max, n) partials merge exactly in a
    keyspace-partitioned reduce; one (bad, total) counter pair per
    partition reaches the driver."""
    P = 64
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("l_orderkey", as_index=False).agg(
            mn=("l_linenumber", "min"), mx=("l_linenumber", "max"),
            n=("l_linenumber", "size"))
        g["part"] = (g["l_orderkey"].to_numpy(np.int64) % P).astype(np.int32)
        return g

    def audit(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("l_orderkey", as_index=False).agg(
            mn=("mn", "min"), mx=("mx", "max"), n=("n", "sum"))
        bad = ((m["mn"] != 1) | (m["mx"] != m["n"])).sum()
        return pd.DataFrame({"bad": [int(bad)], "total": [len(m)]})

    parts = (ds.map_batches(partial, batch_format="pandas")
             .groupby("part").map_groups(audit, batch_format="pandas")
             .to_pandas())
    bad, tot = int(parts["bad"].sum()), int(parts["total"].sum())
    return pd.DataFrame({
        "n_bad_orders": np.array([bad], np.int64),
        "n_orders": np.array([tot], np.int64),
        "bad_share": [round(bad / tot, 6)]})


SQL_LINENUMBER_GAPS = """
WITH g AS (SELECT l_orderkey, MIN(l_linenumber) AS mn,
                  MAX(l_linenumber) AS mx, COUNT(*) AS n
           FROM lineitem GROUP BY l_orderkey)
SELECT CAST(SUM(CASE WHEN mn != 1 OR mx != n THEN 1 ELSE 0 END) AS BIGINT)
         AS n_bad_orders,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       ROUND(SUM(CASE WHEN mn != 1 OR mx != n THEN 1 ELSE 0 END) * 1.0
             / COUNT(*), 6) AS bad_share
FROM g
"""


def q_nation_top_names(sf_dir: str):
    """Ordered STRING_AGG: per nation, the three alphabetically-first
    customer names joined with '|' — the group-concat pattern reports
    lean on.  Per-block top-3 name partials (a combiner: the global
    top-3 is inside the union of block top-3s) ride the broadcast
    nation dim; the driver re-sorts the (nations x 3)-bounded pool and
    assembles the strings."""
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    nref = ray.put(nation)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        n = ray.get(nref)
        j = df.merge(n, left_on="c_nationkey", right_on="n_nationkey")
        j = j.sort_values("c_name", kind="mergesort")
        return j.groupby("n_name", as_index=False).head(3)[
            ["n_name", "c_name"]]

    parts = _read(sf_dir, "customer", ["c_name", "c_nationkey"]) \
        .map_batches(partial, batch_format="pandas").to_pandas()
    parts = parts.sort_values(["n_name", "c_name"], kind="mergesort")
    top = parts.groupby("n_name", as_index=False).head(3)
    out = top.groupby("n_name", as_index=False)["c_name"] \
        .agg(lambda s: "|".join(s))
    return out.rename(columns={"c_name": "top_names"}) \
        .sort_values("n_name").reset_index(drop=True)


SQL_NATION_TOP_NAMES = """
WITH r AS (SELECT n.n_name, c.c_name,
                  ROW_NUMBER() OVER (PARTITION BY n.n_name
                                     ORDER BY c.c_name) AS rk
           FROM customer c JOIN nation n ON n.n_nationkey = c.c_nationkey)
SELECT n_name, STRING_AGG(c_name, '|' ORDER BY c_name) AS top_names
FROM r WHERE rk <= 3 GROUP BY n_name ORDER BY n_name
"""


def q_gini_mean_difference(sf_dir: str):
    """Gini mean difference of order totals — the O(n²) mean absolute
    pairwise gap, computed exactly in O(n log n) as a rank-weighted sum:
    GMD = 2·Σ(2·rk - n + 1)·x(rk) / (n·(n-1)) over the sorted values.
    One assign_global_seq sort; per-block Σ(2rk-n+1)·cents partials are
    exact integers, so the statistic matches bit-for-bit."""
    from icrawler_ray.functions.seq import assign_global_seq

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"]) \
        .map_batches(
            lambda df: pd.DataFrame({
                "o_orderkey": df["o_orderkey"].to_numpy(),
                "cents": np.round(df["o_totalprice"].to_numpy() * 100)
                .astype(np.int64)}),
            batch_format="pandas")
    n = ds.count()
    ranked = assign_global_seq(ds, ["cents", "o_orderkey"], col="rk")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rk = df["rk"].to_numpy(np.int64)
        c = df["cents"].to_numpy(np.int64)
        return pd.DataFrame({"w": [int(((2 * rk - n + 1) * c).sum())]})

    parts = ranked.map_batches(partial, batch_format="pandas").to_pandas()
    w = int(parts["w"].sum())
    gmd = 2.0 * w / (n * (n - 1))
    return pd.DataFrame({"gmd": [round(gmd / 100.0, 6)],
                         "n_orders": np.array([n], np.int64)})


SQL_GINI_MEAN_DIFFERENCE = """
WITH c AS (SELECT o_orderkey,
                  CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents
           FROM orders),
r AS (SELECT cents,
             ROW_NUMBER() OVER (ORDER BY cents, o_orderkey) - 1 AS rk,
             COUNT(*) OVER () AS n
      FROM c)
SELECT ROUND(2.0 * SUM((2 * rk - n + 1) * cents) / (MIN(n) * (MIN(n) - 1))
             / 100.0, 6) AS gmd,
       CAST(MIN(n) AS BIGINT) AS n_orders
FROM r
"""


def q_type_traffic_cosine(sf_dir: str):
    """Traffic-fingerprint similarity: cosine between event types'
    168-dimensional hour-of-week count profiles, all pairs — do clicks
    and errors follow the same weekly rhythm?  (type, hour-of-week)
    counts are one combiner pass; dot products and norms fold from
    exact integer counts over the (types x 168) grid."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        how = (df["ts"].dt.dayofweek * 24 + df["ts"].dt.hour).to_numpy()
        return pd.DataFrame({"event_type": df["event_type"].to_numpy(),
                             "how": how.astype(np.int64)}) \
            .groupby(["event_type", "how"], as_index=False).size() \
            .rename(columns={"size": "n"})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    g = parts.groupby(["event_type", "how"])["n"].sum()
    types = sorted(g.index.get_level_values(0).unique())
    vecs = {}
    for t in types:
        v = np.zeros(168, np.int64)
        sub = g.loc[t]
        v[sub.index.to_numpy()] = sub.to_numpy()
        vecs[t] = v
    rows = []
    for i, a in enumerate(types):
        for b in types[i + 1:]:
            dot = int((vecs[a] * vecs[b]).sum())
            na = float(np.sqrt(int((vecs[a] ** 2).sum())))
            nb = float(np.sqrt(int((vecs[b] ** 2).sum())))
            rows.append((a, b, round(dot / (na * nb), 6)))
    return pd.DataFrame(rows, columns=["type_a", "type_b", "cosine"]) \
        .sort_values(["type_a", "type_b"]).reset_index(drop=True)


SQL_TYPE_TRAFFIC_COSINE = """
WITH c AS (SELECT event_type,
                  dayofweek(ts) * 24 + EXTRACT(hour FROM ts) AS how,
                  COUNT(*) AS n
           FROM events GROUP BY 1, 2),
norms AS (SELECT event_type, SQRT(SUM(n * n)) AS nrm FROM c GROUP BY 1)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       ROUND(SUM(a.n * b.n) / (MIN(na.nrm) * MIN(nb.nrm)), 6) AS cosine
FROM c a
JOIN c b ON b.event_type > a.event_type AND b.how = a.how
JOIN norms na ON na.event_type = a.event_type
JOIN norms nb ON nb.event_type = b.event_type
GROUP BY a.event_type, b.event_type
ORDER BY type_a, type_b
"""


def q_acctbal_ks_two_table(sf_dir: str):
    """Two-sample Kolmogorov–Smirnov distance BETWEEN TABLES: do
    supplier and customer account balances follow the same
    distribution?  Each side shrinks to per-value cent counts (a
    combiner bounded by the value grid); the D statistic folds from the
    merged distinct-value CDF table evaluated AFTER each value's ties —
    the tie convention both engines share."""
    def side(table: str, col: str, s: int):
        def partial(df: pd.DataFrame, col=col, s=s) -> pd.DataFrame:
            return pd.DataFrame({
                "cents": np.round(df[col].to_numpy() * 100)
                .astype(np.int64), "side": np.int64(s)}) \
                .groupby(["side", "cents"], as_index=False).size() \
                .rename(columns={"size": "n"})
        return _read(sf_dir, table, [col]) \
            .map_batches(partial, batch_format="pandas")

    parts = side("customer", "c_acctbal", 0) \
        .union(side("supplier", "s_acctbal", 1)).to_pandas()
    cnt = parts.groupby(["side", "cents"], as_index=False)["n"].sum()
    piv = cnt.pivot_table(index="cents", columns="side", values="n",
                          fill_value=0, aggfunc="sum").sort_index()
    c0 = piv[0].to_numpy(np.int64).cumsum()
    c1 = piv[1].to_numpy(np.int64).cumsum()
    d = np.abs(c0 / c0[-1] - c1 / c1[-1]).max()
    return pd.DataFrame({
        "ks_d": [round(float(d), 6)],
        "n_customers": np.array([int(c0[-1])], np.int64),
        "n_suppliers": np.array([int(c1[-1])], np.int64)})


SQL_ACCTBAL_KS_TWO_TABLE = """
WITH u AS (SELECT CAST(ROUND(c_acctbal * 100) AS BIGINT) AS cents, 0 AS side
           FROM customer
           UNION ALL
           SELECT CAST(ROUND(s_acctbal * 100) AS BIGINT), 1 FROM supplier),
c AS (SELECT cents,
             SUM(CASE WHEN side = 0 THEN 1 ELSE 0 END) AS n0,
             SUM(CASE WHEN side = 1 THEN 1 ELSE 0 END) AS n1
      FROM u GROUP BY cents),
t AS (SELECT SUM(n0) AS t0, SUM(n1) AS t1 FROM c),
f AS (SELECT SUM(n0) OVER (ORDER BY cents) * 1.0 / t.t0 AS f0,
             SUM(n1) OVER (ORDER BY cents) * 1.0 / t.t1 AS f1
      FROM c, t)
SELECT ROUND(MAX(ABS(f0 - f1)), 6) AS ks_d,
       CAST((SELECT t0 FROM t) AS BIGINT) AS n_customers,
       CAST((SELECT t1 FROM t) AS BIGINT) AS n_suppliers
FROM f
"""


def q_busiest_days_by_users(sf_dir: str):
    """Exact distinct-count leaderboard: the ten days with the most
    DISTINCT active users (ties broken by earlier day).  (day, user)
    presence dedups per block, finishes inside user-keyspace
    partitions, and per-day count partials fold to the top-10 — exact
    where q_hll_distinct trades for the sketch."""
    P = 32
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "user_id": df["user_id"].to_numpy(),
            "day": df["ts"].dt.strftime("%Y-%m-%d")}).drop_duplicates()
        g["part"] = (g["user_id"].to_numpy(np.int64) % P).astype(np.int32)
        return g

    def count_part(g: pd.DataFrame) -> pd.DataFrame:
        d = g[["user_id", "day"]].drop_duplicates()
        return d.groupby("day", as_index=False).size() \
            .rename(columns={"size": "n"})

    parts = (ds.map_batches(partial, batch_format="pandas")
             .groupby("part").map_groups(count_part, batch_format="pandas")
             .to_pandas())
    g = parts.groupby("day", as_index=False)["n"].sum()
    top = g.sort_values(["n", "day"], ascending=[False, True]).head(10)
    top["n_users"] = top.pop("n").astype(np.int64)
    return top.reset_index(drop=True)


SQL_BUSIEST_DAYS_BY_USERS = """
SELECT strftime(CAST(ts AS DATE), '%Y-%m-%d') AS day,
       CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY 1
ORDER BY n_users DESC, day LIMIT 10
"""


def q_source_lang_cramers_v(sf_dir: str):
    """Cramér's V between document SOURCE and LANGUAGE — is the corpus
    mix independent of provenance?  The (source, lang) contingency is
    one combiner over documents; χ² and V fold from the grid with
    margins derived on the driver (grid-bounded, never doc-bounded)."""
    ds = _read(sf_dir, "documents", ["source", "lang"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["source", "lang"], as_index=False).size() \
            .rename(columns={"size": "n"})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    g = parts.groupby(["source", "lang"], as_index=False)["n"].sum()
    piv = g.pivot_table(index="source", columns="lang", values="n",
                        fill_value=0, aggfunc="sum")
    obs = piv.to_numpy(np.float64)
    n = obs.sum()
    exp = obs.sum(axis=1, keepdims=True) * obs.sum(axis=0, keepdims=True) / n
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    k = min(obs.shape[0] - 1, obs.shape[1] - 1)
    v = float(np.sqrt(chi2 / (n * k)))
    return pd.DataFrame({
        "chi2": [round(chi2, 6)], "cramers_v": [round(v, 6)],
        "n_docs": np.array([int(n)], np.int64)})


SQL_SOURCE_LANG_CRAMERS_V = """
WITH c AS (SELECT source, lang, COUNT(*) * 1.0 AS n FROM documents
           GROUP BY 1, 2),
grid AS (SELECT s.source, l.lang, COALESCE(c.n, 0) AS n
         FROM (SELECT DISTINCT source FROM documents) s
         CROSS JOIN (SELECT DISTINCT lang FROM documents) l
         LEFT JOIN c ON c.source = s.source AND c.lang = l.lang),
m AS (SELECT source, lang, n,
             SUM(n) OVER (PARTITION BY source) AS rs,
             SUM(n) OVER (PARTITION BY lang) AS cs,
             SUM(n) OVER () AS tot
      FROM grid),
x AS (SELECT SUM((n - rs * cs / tot) * (n - rs * cs / tot)
                 / (rs * cs / tot)) AS chi2,
             MIN(tot) AS n,
             (SELECT COUNT(DISTINCT source) FROM documents) AS nr,
             (SELECT COUNT(DISTINCT lang) FROM documents) AS nc
      FROM m)
SELECT ROUND(chi2, 6) AS chi2,
       ROUND(SQRT(chi2 / (n * LEAST(nr - 1, nc - 1))), 6) AS cramers_v,
       CAST(n AS BIGINT) AS n_docs
FROM x
"""


def q_participation_ratio(sf_dir: str):
    """Effective dimensionality of the embedding cloud: participation
    ratio PR = tr(C)² / ||C||²_F of the covariance matrix — the
    eigendecomposition-free spectral health check (PR ≈ how many
    dimensions carry variance).  Each block emits Σx (64) and the
    Gram partial ΣxxT (64x64) — fixed-size mergeable sketches — so the
    driver algebra is D² regardless of row count."""
    ds = _read(sf_dir, "embeddings", ["embedding"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        X = np.asarray(df["embedding"].tolist(), dtype=np.float64)
        g = X.T @ X
        return pd.DataFrame({
            "s": [",".join(repr(v) for v in X.sum(axis=0))],
            "g": [",".join(repr(v) for v in g.ravel())],
            "n": [len(X)]})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    D = 64
    s = np.zeros(D)
    g = np.zeros(D * D)
    for _, r in parts.iterrows():
        s += np.array([float(x) for x in r["s"].split(",")])
        g += np.array([float(x) for x in r["g"].split(",")])
    n = int(parts["n"].sum())
    mu = s / n
    C = g.reshape(D, D) / n - np.outer(mu, mu)
    pr = float(np.trace(C) ** 2 / (C * C).sum())
    return pd.DataFrame({"participation_ratio": [round(pr, 6)],
                         "trace": [round(float(np.trace(C)), 6)],
                         "n_vectors": np.array([n], np.int64)})


SQL_PARTICIPATION_RATIO = """
WITH x AS (SELECT vec_id, i.i AS i, CAST(embedding[i.i] AS DOUBLE) AS v
           FROM embeddings CROSS JOIN range(1, 65) i(i)),
mu AS (SELECT i, AVG(v) AS m FROM x GROUP BY i),
cov AS (SELECT a.i AS i, b.i AS j,
               AVG(a.v * b.v) - MIN(ma.m) * MIN(mb.m) AS c
        FROM x a
        JOIN x b ON b.vec_id = a.vec_id
        JOIN mu ma ON ma.i = a.i
        JOIN mu mb ON mb.i = b.i
        GROUP BY a.i, b.i),
t AS (SELECT SUM(CASE WHEN i = j THEN c ELSE 0 END) AS tr,
             SUM(c * c) AS fro,
             (SELECT COUNT(*) FROM embeddings) AS n
      FROM cov)
SELECT ROUND(tr * tr / fro, 6) AS participation_ratio,
       ROUND(tr, 6) AS trace,
       CAST(n AS BIGINT) AS n_vectors
FROM t
"""


def q_vocab_jaccard_langs(sf_dir: str):
    """Cross-language vocabulary overlap: pairwise Jaccard between each
    language's word set.  Per-block distinct (word, lang) partials
    hash-partition by WORD, where each word's language bitmask ORs
    together; per-mask popcount partials give every pairwise
    intersection and union without materializing any vocab set twice."""
    P = 32
    langs_df = _read(sf_dir, "documents", ["lang"]).map_batches(
        lambda df: df.drop_duplicates(), batch_format="pandas").to_pandas()
    langs = sorted(langs_df["lang"].unique())
    lmap = {l: i for i, l in enumerate(langs)}
    lref = ray.put(lmap)
    ds = _read(sf_dir, "documents", ["text", "lang"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(lref)
        words = df["text"].str.split()
        out = pd.DataFrame({
            "word": np.concatenate(words.to_numpy()),
            "mask": np.repeat([np.int64(1) << m[l] for l in df["lang"]],
                              words.str.len().to_numpy())})
        g = out.groupby("word", as_index=False)["mask"] \
            .agg(lambda s: int(np.bitwise_or.reduce(s.to_numpy())))
        g["part"] = (pd.util.hash_array(g["word"].to_numpy(dtype=object))
                     % P).astype(np.int32)
        return g

    def mask_counts(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("word")["mask"] \
            .agg(lambda s: int(np.bitwise_or.reduce(s.to_numpy())))
        return m.value_counts().rename_axis("mask").reset_index(name="n")

    parts = (ds.map_batches(partial, batch_format="pandas")
             .groupby("part").map_groups(mask_counts, batch_format="pandas")
             .to_pandas())
    cnt = parts.groupby("mask")["n"].sum()
    rows = []
    for i, a in enumerate(langs):
        for b in langs[i + 1:]:
            ba, bb = 1 << lmap[a], 1 << lmap[b]
            inter = int(cnt[(cnt.index.to_numpy() & ba).astype(bool)
                            & (cnt.index.to_numpy() & bb).astype(bool)].sum())
            size_a = int(cnt[(cnt.index.to_numpy() & ba).astype(bool)].sum())
            size_b = int(cnt[(cnt.index.to_numpy() & bb).astype(bool)].sum())
            rows.append((a, b, inter,
                         round(inter / (size_a + size_b - inter), 6)))
    return pd.DataFrame(rows, columns=["lang_a", "lang_b", "n_shared",
                                       "jaccard"]) \
        .astype({"n_shared": np.int64}) \
        .sort_values(["lang_a", "lang_b"]).reset_index(drop=True)


SQL_VOCAB_JACCARD_LANGS = """
WITH w AS (SELECT DISTINCT lang, UNNEST(string_split(text, ' ')) AS word
           FROM documents),
v AS (SELECT lang, COUNT(DISTINCT word) AS sz FROM w GROUP BY lang),
i AS (SELECT a.lang AS lang_a, b.lang AS lang_b,
             COUNT(DISTINCT a.word) AS n_shared
      FROM w a JOIN w b ON b.word = a.word AND b.lang > a.lang
      GROUP BY a.lang, b.lang)
SELECT i.lang_a, i.lang_b, CAST(i.n_shared AS BIGINT) AS n_shared,
       ROUND(i.n_shared * 1.0 / (va.sz + vb.sz - i.n_shared), 6) AS jaccard
FROM i JOIN v va ON va.lang = i.lang_a
JOIN v vb ON vb.lang = i.lang_b
ORDER BY i.lang_a, i.lang_b
"""


def q_props_k_value_curve(sf_dir: str):
    """JSON predicate pushdown: the event value curve over the embedded
    props key k, bucketed into ten k-deciles of its [0, 100) range —
    extract-then-aggregate over a semi-structured column.  Extraction is
    one vectorized regex per block; (bucket, cents, n) combiner partials
    fold to the 10-row curve."""
    ds = _read(sf_dir, "events", ["props", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        k = df["props"].str.extract(r'"k":\s*(\d+)', expand=False) \
            .astype(np.int64)
        return pd.DataFrame({
            "bucket": np.minimum(k.to_numpy() // 10, 9),
            "cents": np.round(df["value"].to_numpy() * 100)
            .astype(np.int64)}).groupby("bucket", as_index=False).agg(
            s=("cents", "sum"), n=("cents", "size"))

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    g = parts.groupby("bucket", as_index=False)[["s", "n"]].sum()
    g["avg_value"] = (g["s"] / g["n"] / 100.0).round(6)
    g["n"] = g["n"].astype(np.int64)
    g["bucket"] = g["bucket"].astype(np.int64)
    return g[["bucket", "avg_value", "n"]].sort_values("bucket") \
        .reset_index(drop=True)


SQL_PROPS_K_VALUE_CURVE = """
WITH e AS (SELECT LEAST(CAST(json_extract(props, '$.k') AS BIGINT) // 10, 9)
               AS bucket,
             CAST(ROUND(value * 100) AS BIGINT) AS cents
      FROM events)
SELECT CAST(bucket AS BIGINT) AS bucket,
       ROUND(SUM(cents) * 1.0 / COUNT(*) / 100.0, 6) AS avg_value,
       CAST(COUNT(*) AS BIGINT) AS n
FROM e GROUP BY bucket ORDER BY bucket
"""


def q_discount_by_basket_size(sf_dir: str):
    """Interaction curve: average discount (basis points) by ORDER SIZE
    class (lines per order) — do bigger baskets get better terms?
    Per-order (n_lines, bp sum) combiner partials finalize in orderkey
    partitions; the curve folds over the lines-per-order-bounded grid."""
    P = 64
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_discount"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        bp = np.round(df["l_discount"].to_numpy() * 100).astype(np.int64)
        g = pd.DataFrame({"o": df["l_orderkey"].to_numpy(), "bp": bp}) \
            .groupby("o", as_index=False).agg(s=("bp", "sum"),
                                              k=("bp", "size"))
        g["part"] = (g["o"].to_numpy(np.int64) % P).astype(np.int32)
        return g

    def curve(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("o", as_index=False)[["s", "k"]].sum()
        return m.groupby("k", as_index=False).agg(bp=("s", "sum"),
                                                  lines=("k", "sum"),
                                                  n=("k", "size"))

    parts = (ds.map_batches(partial, batch_format="pandas")
             .groupby("part").map_groups(curve, batch_format="pandas")
             .to_pandas())
    out = parts.groupby("k", as_index=False)[["bp", "lines", "n"]].sum()
    out["avg_discount_bp"] = (out["bp"] / out["lines"]).round(6)
    return pd.DataFrame({
        "basket_lines": out["k"].astype(np.int64),
        "n_orders": out["n"].astype(np.int64),
        "avg_discount_bp": out["avg_discount_bp"],
    }).sort_values("basket_lines").reset_index(drop=True)


SQL_DISCOUNT_BY_BASKET_SIZE = """
WITH o AS (SELECT l_orderkey,
                  SUM(CAST(ROUND(l_discount * 100) AS BIGINT)) AS bp,
                  COUNT(*) AS k
           FROM lineitem GROUP BY l_orderkey)
SELECT CAST(k AS BIGINT) AS basket_lines,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       ROUND(SUM(bp) * 1.0 / SUM(k), 6) AS avg_discount_bp
FROM o GROUP BY k ORDER BY basket_lines
"""


def q_qty_discount_heat(sf_dir: str):
    """Two-band contingency heat: line share within each QUANTITY band
    across DISCOUNT bands — the pricing-policy fingerprint.  One
    (qty_band, disc_bp) count combiner; row-normalized shares fold over
    the bands grid."""
    ds = _read(sf_dir, "lineitem", ["l_quantity", "l_discount"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        q = np.minimum((df["l_quantity"].to_numpy(np.int64) - 1) // 10, 4)
        bp = np.round(df["l_discount"].to_numpy() * 100).astype(np.int64)
        return pd.DataFrame({"qty_band": q, "disc_bp": bp}) \
            .groupby(["qty_band", "disc_bp"], as_index=False).size() \
            .rename(columns={"size": "n"})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    g = parts.groupby(["qty_band", "disc_bp"], as_index=False)["n"].sum()
    tot = g.groupby("qty_band")["n"].transform("sum")
    g["share"] = (g["n"] / tot).round(6)
    g["n"] = g["n"].astype(np.int64)
    g["qty_band"] = g["qty_band"].astype(np.int64)
    g["disc_bp"] = g["disc_bp"].astype(np.int64)
    return g.sort_values(["qty_band", "disc_bp"]).reset_index(drop=True)


SQL_QTY_DISCOUNT_HEAT = """
WITH b AS (SELECT LEAST((CAST(l_quantity AS BIGINT) - 1) // 10, 4)
               AS qty_band,
             CAST(ROUND(l_discount * 100) AS BIGINT) AS disc_bp
      FROM lineitem)
SELECT CAST(qty_band AS BIGINT) AS qty_band,
       CAST(disc_bp AS BIGINT) AS disc_bp,
       CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(COUNT(*) * 1.0
             / SUM(COUNT(*)) OVER (PARTITION BY qty_band), 6) AS share
FROM b GROUP BY qty_band, disc_bp ORDER BY qty_band, disc_bp
"""


def q_top_supplier_q15(sf_dir: str):
    """TPC-H Q15 shape — global argmax WITH TIES: the supplier(s) whose
    1996 revenue equals the maximum (every tie returned, not top-1).
    Supplier-cardinality cent partials fold exactly; the tie set is the
    equality filter against one exact integer maximum — semantics a
    LIMIT-k can't express."""
    ds = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"])
    LO, HI = pd.Timestamp("1996-01-01"), pd.Timestamp("1997-01-01")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.loc[(df["l_shipdate"] >= LO) & (df["l_shipdate"] < HI)]
        cents = np.round(df["l_extendedprice"].to_numpy() * 100) \
            .astype(np.int64)
        bp = np.round(df["l_discount"].to_numpy() * 100).astype(np.int64)
        g = pd.DataFrame({"l_suppkey": df["l_suppkey"].to_numpy(),
                          "rev100": cents * (100 - bp)})
        return g.groupby("l_suppkey", as_index=False)["rev100"].sum()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    per = parts.groupby("l_suppkey", as_index=False)["rev100"].sum()
    mx = int(per["rev100"].max())
    top = per.loc[per["rev100"] == mx].sort_values("l_suppkey")
    return pd.DataFrame({
        "l_suppkey": top["l_suppkey"].to_numpy(np.int64),
        "revenue": np.round(top["rev100"].to_numpy() / 10000.0, 4)})


SQL_TOP_SUPPLIER_Q15 = """
WITH r AS (SELECT l_suppkey,
                  SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                      * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
                    AS rev100
           FROM lineitem
           WHERE l_shipdate >= TIMESTAMP '1996-01-01'
             AND l_shipdate < TIMESTAMP '1997-01-01'
           GROUP BY l_suppkey)
SELECT l_suppkey, ROUND(rev100 / 10000.0, 4) AS revenue
FROM r WHERE rev100 = (SELECT MAX(rev100) FROM r)
ORDER BY l_suppkey
"""


def q_q19_disjunctive_revenue(sf_dir: str):
    """TPC-H Q19 shape — OR-of-ANDs predicate through a join: revenue
    from (small parts, small quantities) OR (medium, medium) OR (large,
    large).  The brand-band predicate needs part attributes, so lines
    salted-hash-join to part and the disjunction evaluates vectorized
    inside the join partition; one (rev, n) partial per partition."""
    from icrawler_ray.stages.joins import salted_hash_join

    def li_prep(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["l_extendedprice"].to_numpy() * 100) \
            .astype(np.int64)
        bp = np.round(df["l_discount"].to_numpy() * 100).astype(np.int64)
        return pd.DataFrame({"p_partkey": df["l_partkey"].to_numpy(),
                             "qty": df["l_quantity"].to_numpy(np.int64),
                             "rev100": cents * (100 - bp)})

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"]) \
        .map_batches(li_prep, batch_format="pandas")
    part = _read(sf_dir, "part", ["p_partkey", "p_size"])

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        s = g["p_size"].to_numpy(np.int64)
        q = g["qty"].to_numpy(np.int64)
        m = ((s <= 10) & (q < 15)) \
            | ((s > 10) & (s <= 30) & (q >= 10) & (q < 25)) \
            | ((s > 30) & (q >= 25))
        return pd.DataFrame({"rev100": [int(g.loc[m, "rev100"].sum())],
                             "n": [int(m.sum())]})

    parts = salted_hash_join(li, part, "p_partkey", agg_fn=agg).to_pandas()
    return pd.DataFrame({
        "revenue": [round(int(parts["rev100"].sum()) / 10000.0, 4)],
        "n_lines": np.array([int(parts["n"].sum())], np.int64)})


SQL_Q19_DISJUNCTIVE_REVENUE = """
SELECT ROUND(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
             / 10000.0, 4) AS revenue,
       CAST(COUNT(*) AS BIGINT) AS n_lines
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE (p_size <= 10 AND l_quantity < 15)
   OR (p_size > 10 AND p_size <= 30 AND l_quantity >= 10
       AND l_quantity < 25)
   OR (p_size > 30 AND l_quantity >= 25)
"""


def q_dominant_suppliers(sf_dir: str):
    """TPC-H Q20-flavoured within-group share gate: (part, supplier)
    pairs where one supplier moved MORE THAN HALF of the part's total
    quantity — single-source risk.  (part, supp) quantity combiners
    co-locate per partkey, where the >50% gate is one vectorized
    transform-sum compare; only counters leave each partition."""
    P = 64
    ds = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_quantity"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["l_partkey", "l_suppkey"], as_index=False) \
            .agg(qty=("l_quantity", "sum"))
        g["part"] = (g["l_partkey"].to_numpy(np.int64) % P).astype(np.int32)
        return g

    def gate(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["l_partkey", "l_suppkey"], as_index=False)["qty"] \
            .sum()
        tot = m.groupby("l_partkey")["qty"].transform("sum")
        dom = m.loc[m["qty"] * 2 > tot]
        return pd.DataFrame({
            "n_dominant": [len(dom)],
            "n_parts": [m["l_partkey"].nunique()]})

    parts = (ds.map_batches(partial, batch_format="pandas")
             .groupby("part").map_groups(gate, batch_format="pandas")
             .to_pandas())
    nd, npart = int(parts["n_dominant"].sum()), int(parts["n_parts"].sum())
    return pd.DataFrame({
        "n_dominant_pairs": np.array([nd], np.int64),
        "n_parts": np.array([npart], np.int64),
        "dominated_share": [round(nd / npart, 6)]})


SQL_DOMINANT_SUPPLIERS = """
WITH m AS (SELECT l_partkey, l_suppkey, SUM(l_quantity) AS qty
           FROM lineitem GROUP BY 1, 2),
t AS (SELECT l_partkey, l_suppkey, qty,
             SUM(qty) OVER (PARTITION BY l_partkey) AS tot
      FROM m)
SELECT CAST(SUM(CASE WHEN qty * 2 > tot THEN 1 ELSE 0 END) AS BIGINT)
         AS n_dominant_pairs,
       CAST(COUNT(DISTINCT l_partkey) AS BIGINT) AS n_parts,
       ROUND(SUM(CASE WHEN qty * 2 > tot THEN 1 ELSE 0 END) * 1.0
             / COUNT(DISTINCT l_partkey), 6) AS dominated_share
FROM t
"""


def q_month_end_loading(sf_dir: str):
    """Calendar-position revenue loading: per month, the revenue share
    booked in the LAST THREE calendar days — the quota-stuffing
    fingerprint.  One (month, is_tail, cents) combiner pass (the
    month-end test is vectorized calendar arithmetic); shares fold over
    the months grid."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df["o_orderdate"]
        tail = (d.dt.days_in_month - d.dt.day) < 3
        return pd.DataFrame({
            "month": d.dt.strftime("%Y-%m"),
            "tail": tail.to_numpy().astype(np.int64),
            "cents": np.round(df["o_totalprice"].to_numpy() * 100)
            .astype(np.int64)}) \
            .groupby(["month", "tail"], as_index=False)["cents"].sum()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    g = parts.groupby(["month", "tail"], as_index=False)["cents"].sum()
    piv = g.pivot_table(index="month", columns="tail", values="cents",
                        fill_value=0, aggfunc="sum").sort_index()
    tail_c = piv.get(1, pd.Series(0, index=piv.index)).to_numpy(np.int64)
    rest_c = piv.get(0, pd.Series(0, index=piv.index)).to_numpy(np.int64)
    tot = tail_c + rest_c
    return pd.DataFrame({
        "month": piv.index.to_numpy(),
        "tail_revenue": np.round(tail_c / 100.0, 2),
        "tail_share": np.round(tail_c / tot, 6)})


SQL_MONTH_END_LOADING = """
WITH o AS (SELECT strftime(o_orderdate, '%Y-%m') AS month,
                  CASE WHEN date_diff('day', CAST(o_orderdate AS DATE),
                                      last_day(CAST(o_orderdate AS DATE)))
                            < 3
                       THEN 1 ELSE 0 END AS tail,
                  CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents
           FROM orders)
SELECT month,
       ROUND(SUM(CASE WHEN tail = 1 THEN cents ELSE 0 END) / 100.0, 2)
         AS tail_revenue,
       ROUND(SUM(CASE WHEN tail = 1 THEN cents ELSE 0 END) * 1.0
             / SUM(cents), 6) AS tail_share
FROM o GROUP BY month ORDER BY month
"""


def q_price_dispersion_cells(sf_dir: str):
    """Within-cell price dispersion: the coefficient of variation of
    retail price inside each (brand, size) catalog cell, averaged with
    cell-size weights — how consistent is like-for-like pricing?
    Exact integer moment partials per cell; the weighted fold runs over
    the catalog-bounded cell grid."""
    ds = _read(sf_dir, "part", ["p_brand", "p_size", "p_retailprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["p_retailprice"].to_numpy() * 100) \
            .astype(np.int64)
        g = df.assign(cents=cents, sq=cents * cents)
        return g.groupby(["p_brand", "p_size"], as_index=False).agg(
            s=("cents", "sum"), ss=("sq", "sum"), n=("cents", "size"))

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    g = parts.groupby(["p_brand", "p_size"], as_index=False)[
        ["s", "ss", "n"]].sum()
    g = g.loc[g["n"] >= 2]
    mean = g["s"].to_numpy(np.float64) / g["n"].to_numpy()
    var = (g["ss"].to_numpy(np.float64)
           - g["s"].to_numpy(np.float64) ** 2 / g["n"].to_numpy()) \
        / (g["n"].to_numpy() - 1)
    cv = np.sqrt(var) / mean
    w = g["n"].to_numpy(np.float64)
    return pd.DataFrame({
        "avg_cv": [round(float((cv * w).sum() / w.sum()), 6)],
        "n_cells": np.array([len(g)], np.int64),
        "n_parts": np.array([int(w.sum())], np.int64)})


SQL_PRICE_DISPERSION_CELLS = """
WITH m AS (SELECT p_brand, p_size,
                  SUM(CAST(ROUND(p_retailprice * 100) AS BIGINT)) * 1.0
                    AS s,
                  SUM(CAST(CAST(ROUND(p_retailprice * 100) AS BIGINT)
                           AS HUGEINT)
                      * CAST(ROUND(p_retailprice * 100) AS BIGINT)) * 1.0
                    AS ss,
                  COUNT(*) AS n
           FROM part GROUP BY 1, 2),
cv AS (SELECT SQRT((ss - s * s / n) / (n - 1)) / (s / n) AS cv, n
       FROM m WHERE n >= 2)
SELECT ROUND(SUM(cv * n) / SUM(n), 6) AS avg_cv,
       CAST(COUNT(*) AS BIGINT) AS n_cells,
       CAST(SUM(n) AS BIGINT) AS n_parts
FROM cv
"""


def q_brand_name_token_mode(sf_dir: str):
    """Per-brand catalog vocabulary mode: the most frequent part-name
    TOKEN per brand (lexicographic tiebreak) with its share — string
    tokenization + grouped argmax in one combiner pass over the
    (brand, token) grid."""
    ds = _read(sf_dir, "part", ["p_brand", "p_name"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["p_name"].str.split()
        out = pd.DataFrame({
            "p_brand": np.repeat(df["p_brand"].to_numpy(),
                                 toks.str.len().to_numpy()),
            "token": np.concatenate(toks.to_numpy())})
        return out.groupby(["p_brand", "token"], as_index=False).size() \
            .rename(columns={"size": "n"})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    g = parts.groupby(["p_brand", "token"], as_index=False)["n"].sum()
    g = g.sort_values(["p_brand", "n", "token"],
                      ascending=[True, False, True])
    top = g.groupby("p_brand", as_index=False).head(1)
    tot = g.groupby("p_brand")["n"].sum()
    return pd.DataFrame({
        "p_brand": top["p_brand"].to_numpy(),
        "token": top["token"].to_numpy(),
        "n": top["n"].to_numpy(np.int64),
        "share": np.round(top["n"].to_numpy()
                          / tot[top["p_brand"]].to_numpy(), 6)}) \
        .sort_values("p_brand").reset_index(drop=True)


SQL_BRAND_NAME_TOKEN_MODE = """
WITH t AS (SELECT p_brand, UNNEST(string_split(p_name, ' ')) AS token
           FROM part),
c AS (SELECT p_brand, token, COUNT(*) AS n FROM t GROUP BY 1, 2)
SELECT p_brand, token, CAST(n AS BIGINT) AS n,
       ROUND(n * 1.0 / SUM(n) OVER (PARTITION BY p_brand), 6) AS share
FROM c
QUALIFY ROW_NUMBER() OVER (PARTITION BY p_brand
                           ORDER BY n DESC, token) = 1
ORDER BY p_brand
"""


def q_name_key_consistency(sf_dir: str):
    """Parse-and-validate audit: does the numeric suffix of c_name agree
    with c_custkey?  The denormalized-field drift check every ingest
    runs.  One vectorized regex-extract + compare per block; three
    counters fold."""
    ds = _read(sf_dir, "customer", ["c_name", "c_custkey"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        suffix = df["c_name"].str.extract(r"#(\d+)$", expand=False)
        parsed = pd.to_numeric(suffix, errors="coerce")
        ok = (parsed == df["c_custkey"]).fillna(False)
        return pd.DataFrame({"n": [len(df)],
                             "n_match": [int(ok.sum())],
                             "n_unparseable": [int(parsed.isna().sum())]})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    n = int(parts["n"].sum())
    m = int(parts["n_match"].sum())
    return pd.DataFrame({
        "n_customers": np.array([n], np.int64),
        "n_match": np.array([m], np.int64),
        "n_unparseable": np.array([int(parts["n_unparseable"].sum())],
                                  np.int64),
        "match_share": [round(m / n, 6)]})


SQL_NAME_KEY_CONSISTENCY = """
WITH p AS (SELECT c_custkey,
                  TRY_CAST(regexp_extract(c_name, '#(\\d+)$', 1) AS BIGINT)
                    AS parsed
           FROM customer)
SELECT CAST(COUNT(*) AS BIGINT) AS n_customers,
       CAST(SUM(CASE WHEN parsed = c_custkey THEN 1 ELSE 0 END) AS BIGINT)
         AS n_match,
       CAST(SUM(CASE WHEN parsed IS NULL THEN 1 ELSE 0 END) AS BIGINT)
         AS n_unparseable,
       ROUND(SUM(CASE WHEN parsed = c_custkey THEN 1 ELSE 0 END) * 1.0
             / COUNT(*), 6) AS match_share
FROM p
"""


def q_hour_boundary_share(sf_dir: str):
    """Machine-traffic fingerprint: the share of each event type landing
    within ±5 minutes of an hour boundary — cron jobs cluster there,
    humans don't.  One (type, near, n) combiner; the minute-of-hour test
    is vectorized calendar arithmetic."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        minute = df["ts"].dt.minute.to_numpy()
        near = ((minute < 5) | (minute >= 55)).astype(np.int64)
        return pd.DataFrame({"event_type": df["event_type"].to_numpy(),
                             "near": near}) \
            .groupby("event_type", as_index=False).agg(
            n_near=("near", "sum"), n=("near", "size"))

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    g = parts.groupby("event_type", as_index=False)[["n_near", "n"]].sum()
    g["boundary_share"] = (g["n_near"] / g["n"]).round(6)
    g["n_near"] = g["n_near"].astype(np.int64)
    g["n"] = g["n"].astype(np.int64)
    return g.sort_values("event_type").reset_index(drop=True)


SQL_HOUR_BOUNDARY_SHARE = """
SELECT event_type,
       CAST(SUM(CASE WHEN EXTRACT(minute FROM ts) < 5
                       OR EXTRACT(minute FROM ts) >= 55
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_near,
       CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(SUM(CASE WHEN EXTRACT(minute FROM ts) < 5
                        OR EXTRACT(minute FROM ts) >= 55
                      THEN 1 ELSE 0 END) * 1.0 / COUNT(*), 6)
         AS boundary_share
FROM events GROUP BY event_type ORDER BY event_type
"""


def q_centroid_confusion(sf_dir: str):
    """Nearest-centroid confusion matrix: assign every embedding to its
    closest LABEL centroid (squared L2, label-id tiebreak) and count
    (true label, assigned label) — the separability readout behind
    q_knn_label_accuracy.  Centroids come from one (label, Σv, n)
    combiner; assignment is a vectorized |v|² − 2v·C + |c|² argmin per
    block against the broadcast centroid matrix; the confusion grid is
    labels²-bounded."""
    ds = _read(sf_dir, "embeddings", ["embedding", "label"])

    def cpartial(df: pd.DataFrame) -> pd.DataFrame:
        X = np.asarray(df["embedding"].tolist(), dtype=np.float64)
        g = pd.DataFrame({"label": df["label"].to_numpy()})
        rows = []
        for lab, idx in g.groupby("label").groups.items():
            sub = X[np.asarray(idx)]
            rows.append((lab, ",".join(repr(v) for v in sub.sum(axis=0)),
                         len(sub)))
        return pd.DataFrame(rows, columns=["label", "s", "n"])

    parts = ds.map_batches(cpartial, batch_format="pandas").to_pandas()
    labels = sorted(parts["label"].unique())
    cents = {}
    for lab in labels:
        sub = parts.loc[parts["label"] == lab]
        s = np.zeros(64)
        for v in sub["s"]:
            s += np.array([float(x) for x in v.split(",")])
        cents[lab] = s / int(sub["n"].sum())
    C = np.stack([cents[l] for l in labels])
    cref = ray.put((labels, C))

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        labs, C = ray.get(cref)
        X = np.asarray(df["embedding"].tolist(), dtype=np.float64)
        d = (X * X).sum(1, keepdims=True) - 2 * X @ C.T \
            + (C * C).sum(1)[None, :]
        a = np.argmin(d, axis=1)  # first min: label-order tiebreak
        return pd.DataFrame({"true_label": df["label"].to_numpy(),
                             "assigned": np.asarray(labs)[a]}) \
            .groupby(["true_label", "assigned"], as_index=False).size() \
            .rename(columns={"size": "n"})

    out = ds.map_batches(assign, batch_format="pandas").to_pandas()
    g = out.groupby(["true_label", "assigned"], as_index=False)["n"].sum()
    g["n"] = g["n"].astype(np.int64)
    return g.sort_values(["true_label", "assigned"]).reset_index(drop=True)


SQL_CENTROID_CONFUSION = """
WITH x AS (SELECT vec_id, label, i.i AS i,
                  CAST(embedding[i.i] AS DOUBLE) AS v
           FROM embeddings CROSS JOIN range(1, 65) i(i)),
c AS (SELECT label AS clabel, i, AVG(v) AS cv FROM x GROUP BY 1, 2),
d AS (SELECT x.vec_id, x.label AS true_label, c.clabel,
             SUM((x.v - c.cv) * (x.v - c.cv)) AS dist
      FROM x JOIN c ON c.i = x.i
      GROUP BY x.vec_id, x.label, c.clabel),
a AS (SELECT vec_id, true_label, clabel AS assigned FROM d
      QUALIFY ROW_NUMBER() OVER (PARTITION BY vec_id
                                 ORDER BY dist, clabel) = 1)
SELECT true_label, assigned, CAST(COUNT(*) AS BIGINT) AS n
FROM a GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_discount_by_linenumber(sf_dir: str):
    """Position effect: average discount (bp) by LINE NUMBER within the
    order — is the first line of an order treated differently from the
    seventh?  A pure (linenumber, bp, n) combiner over the
    lines-per-order-bounded grid."""
    ds = _read(sf_dir, "lineitem", ["l_linenumber", "l_discount"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        bp = np.round(df["l_discount"].to_numpy() * 100).astype(np.int64)
        return pd.DataFrame({"l_linenumber":
                             df["l_linenumber"].to_numpy(np.int64),
                             "bp": bp}) \
            .groupby("l_linenumber", as_index=False).agg(
            s=("bp", "sum"), n=("bp", "size"))

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    g = parts.groupby("l_linenumber", as_index=False)[["s", "n"]].sum()
    g["avg_discount_bp"] = (g["s"] / g["n"]).round(6)
    g["n_lines"] = g.pop("n").astype(np.int64)
    return g.drop(columns="s").sort_values("l_linenumber") \
        .reset_index(drop=True)


SQL_DISCOUNT_BY_LINENUMBER = """
SELECT CAST(l_linenumber AS BIGINT) AS l_linenumber,
       ROUND(SUM(CAST(ROUND(l_discount * 100) AS BIGINT)) * 1.0
             / COUNT(*), 6) AS avg_discount_bp,
       CAST(COUNT(*) AS BIGINT) AS n_lines
FROM lineitem GROUP BY l_linenumber ORDER BY l_linenumber
"""


def q_round_price_share(sf_dir: str):
    """Psychological-pricing fingerprint: the share of catalog prices
    ending in .00 and .99 per brand — list-price policy detection via
    cent-modulo.  One (brand, ending-class, n) combiner over the
    brands grid."""
    ds = _read(sf_dir, "part", ["p_brand", "p_retailprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["p_retailprice"].to_numpy() * 100) \
            .astype(np.int64)
        e = cents % 100
        return pd.DataFrame({
            "p_brand": df["p_brand"].to_numpy(),
            "z": (e == 0).astype(np.int64),
            "n9": (e == 99).astype(np.int64)}) \
            .groupby("p_brand", as_index=False).agg(
            n_00=("z", "sum"), n_99=("n9", "sum"), n=("z", "size"))

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    g = parts.groupby("p_brand", as_index=False)[["n_00", "n_99", "n"]].sum()
    g["share_00"] = (g["n_00"] / g["n"]).round(6)
    g["share_99"] = (g["n_99"] / g["n"]).round(6)
    for c in ("n_00", "n_99", "n"):
        g[c] = g[c].astype(np.int64)
    return g.sort_values("p_brand").reset_index(drop=True)


SQL_ROUND_PRICE_SHARE = """
WITH e AS (SELECT p_brand,
                  CAST(ROUND(p_retailprice * 100) AS BIGINT) % 100 AS tail
           FROM part)
SELECT p_brand,
       CAST(SUM(CASE WHEN tail = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_00,
       CAST(SUM(CASE WHEN tail = 99 THEN 1 ELSE 0 END) AS BIGINT) AS n_99,
       CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(SUM(CASE WHEN tail = 0 THEN 1 ELSE 0 END) * 1.0
             / COUNT(*), 6) AS share_00,
       ROUND(SUM(CASE WHEN tail = 99 THEN 1 ELSE 0 END) * 1.0
             / COUNT(*), 6) AS share_99
FROM e GROUP BY p_brand ORDER BY p_brand
"""


def q_revenue_masd(sf_dir: str):
    """Robust revenue volatility: the MEDIAN and mean of |day-over-day
    revenue changes| (median absolute successive difference) — spike-
    proof where a stddev is not.  Per-day cent combiners; the successive
    diffs and the quantile_disc median fold over the days-bounded
    series."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "day": df["o_orderdate"].dt.strftime("%Y-%m-%d"),
            "cents": np.round(df["o_totalprice"].to_numpy() * 100)
            .astype(np.int64)}).groupby("day", as_index=False)["cents"].sum()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    g = parts.groupby("day", as_index=False)["cents"].sum() \
        .sort_values("day")
    c = g["cents"].to_numpy(np.int64)
    d = np.abs(np.diff(c))
    if len(d) == 0:  # single-day slice: degenerate but well-defined
        return pd.DataFrame({"masd": [0.0], "mean_abs_diff": [0.0],
                             "n_diffs": np.zeros(1, np.int64)})
    v = np.sort(d)
    med = int(v[int(np.ceil(0.5 * len(v))) - 1])
    return pd.DataFrame({
        "masd": [round(med / 100.0, 2)],
        "mean_abs_diff": [round(int(d.sum()) / len(d) / 100.0, 6)],
        "n_diffs": np.array([len(d)], np.int64)})


SQL_REVENUE_MASD = """
WITH d AS (SELECT strftime(o_orderdate, '%Y-%m-%d') AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS cents
           FROM orders GROUP BY 1),
s AS (SELECT ABS(cents - lag(cents) OVER (ORDER BY day)) AS ad FROM d)
SELECT ROUND(quantile_disc(ad, 0.5) / 100.0, 2) AS masd,
       ROUND(SUM(ad) * 1.0 / COUNT(*) / 100.0, 6) AS mean_abs_diff,
       CAST(COUNT(*) AS BIGINT) AS n_diffs
FROM s WHERE ad IS NOT NULL
"""


def q_above_avg_discount_share(sf_dir: str):
    """Compare-to-own-group-mean window: the share of lines whose
    discount exceeds THEIR OWN ORDER's average discount, by return
    flag — the within-entity-relative predicate (a global threshold
    can't express it).  Per-(order, flag) partials co-locate per
    orderkey; the comparison is exact (line bp x k > order bp-sum)."""
    P = 64
    ds = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_returnflag", "l_discount"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.assign(bp=np.round(df["l_discount"].to_numpy() * 100)
                      .astype(np.int64))
        g["part"] = (g["l_orderkey"].to_numpy(np.int64) % P).astype(np.int32)
        return g[["part", "l_orderkey", "l_returnflag", "bp"]]

    def share(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("l_orderkey")["bp"].transform("sum")
        k = g.groupby("l_orderkey")["bp"].transform("size")
        above = (g["bp"] * k > tot).to_numpy().astype(np.int64)
        return pd.DataFrame({"l_returnflag": g["l_returnflag"].to_numpy(),
                             "above": above}) \
            .groupby("l_returnflag", as_index=False).agg(
            n_above=("above", "sum"), n=("above", "size"))

    parts = (ds.map_batches(partial, batch_format="pandas")
             .groupby("part").map_groups(share, batch_format="pandas")
             .to_pandas())
    g = parts.groupby("l_returnflag", as_index=False)[["n_above", "n"]].sum()
    g["above_share"] = (g["n_above"] / g["n"]).round(6)
    g["n_above"] = g["n_above"].astype(np.int64)
    g["n"] = g["n"].astype(np.int64)
    return g.sort_values("l_returnflag").reset_index(drop=True)


SQL_ABOVE_AVG_DISCOUNT_SHARE = """
WITH l AS (SELECT l_returnflag,
                  CAST(ROUND(l_discount * 100) AS BIGINT) AS bp,
                  SUM(CAST(ROUND(l_discount * 100) AS BIGINT))
                    OVER (PARTITION BY l_orderkey) AS tot,
                  COUNT(*) OVER (PARTITION BY l_orderkey) AS k
           FROM lineitem)
SELECT l_returnflag,
       CAST(SUM(CASE WHEN bp * k > tot THEN 1 ELSE 0 END) AS BIGINT)
         AS n_above,
       CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(SUM(CASE WHEN bp * k > tot THEN 1 ELSE 0 END) * 1.0
             / COUNT(*), 6) AS above_share
FROM l GROUP BY l_returnflag ORDER BY l_returnflag
"""


def q_same_day_reorders(sf_dir: str):
    """Same-day reorder detection: customers placing 2+ orders on one
    calendar day — burst purchasing at day granularity.  (custkey, day)
    count combiners finalize per custkey partition; three counters
    fold."""
    P = 64
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "o_custkey": df["o_custkey"].to_numpy(),
            "day": df["o_orderdate"].to_numpy("datetime64[D]")
            .astype(np.int64)}) \
            .groupby(["o_custkey", "day"], as_index=False).size() \
            .rename(columns={"size": "n"})
        g["part"] = (g["o_custkey"].to_numpy(np.int64) % P).astype(np.int32)
        return g

    def audit(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["o_custkey", "day"], as_index=False)["n"].sum()
        multi = m.loc[m["n"] > 1]
        return pd.DataFrame({
            "n_multi_days": [len(multi)],
            "n_custs": [int(multi["o_custkey"].nunique())],
            "n_cust_total": [int(m["o_custkey"].nunique())]})

    parts = (ds.map_batches(partial, batch_format="pandas")
             .groupby("part").map_groups(audit, batch_format="pandas")
             .to_pandas())
    nc = int(parts["n_custs"].sum())
    tot = int(parts["n_cust_total"].sum())
    return pd.DataFrame({
        "n_multi_order_days": np.array([int(parts["n_multi_days"].sum())],
                                       np.int64),
        "n_customers_with_bursts": np.array([nc], np.int64),
        "burst_customer_share": [round(nc / tot, 6)]})


SQL_SAME_DAY_REORDERS = """
WITH d AS (SELECT o_custkey, CAST(o_orderdate AS DATE) AS day,
                  COUNT(*) AS n
           FROM orders GROUP BY 1, 2)
SELECT CAST(SUM(CASE WHEN n > 1 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_multi_order_days,
       CAST(COUNT(DISTINCT CASE WHEN n > 1 THEN o_custkey END) AS BIGINT)
         AS n_customers_with_bursts,
       ROUND(COUNT(DISTINCT CASE WHEN n > 1 THEN o_custkey END) * 1.0
             / COUNT(DISTINCT o_custkey), 6) AS burst_customer_share
FROM d
"""


def q_qty_uniformity_gof(sf_dir: str):
    """Chi-squared goodness-of-fit: are line quantities uniform over
    their observed 1..50 support?  One value-count combiner; the GOF
    statistic folds from exact integer counts against the uniform
    expectation."""
    ds = _read(sf_dir, "lineitem", ["l_quantity"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        q = df["l_quantity"].to_numpy(np.int64)
        return pd.DataFrame({"q": q}).groupby("q", as_index=False).size() \
            .rename(columns={"size": "n"})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    g = parts.groupby("q", as_index=False)["n"].sum()
    k = int(g["q"].max() - g["q"].min() + 1)
    n = int(g["n"].sum())
    exp = n / k
    obs = np.zeros(k, np.int64)
    obs[g["q"].to_numpy(np.int64) - int(g["q"].min())] = g["n"].to_numpy()
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    return pd.DataFrame({
        "chi2": [round(chi2, 6)],
        "dof": np.array([k - 1], np.int64),
        "n_lines": np.array([n], np.int64)})


SQL_QTY_UNIFORMITY_GOF = """
WITH c AS (SELECT CAST(l_quantity AS BIGINT) AS q, COUNT(*) AS n
           FROM lineitem GROUP BY 1),
m AS (SELECT MAX(q) - MIN(q) + 1 AS k, SUM(n) AS tot,
             MIN(q) AS qmin FROM c),
grid AS (SELECT m.qmin + g.i AS q, m.k, m.tot
         FROM m CROSS JOIN (SELECT UNNEST(range(0, 1000)) AS i) g
         WHERE g.i < m.k),
f AS (SELECT grid.k, grid.tot, COALESCE(c.n, 0) AS n
      FROM grid LEFT JOIN c ON c.q = grid.q)
SELECT ROUND(SUM((n - tot * 1.0 / k) * (n - tot * 1.0 / k)
                 / (tot * 1.0 / k)), 6) AS chi2,
       CAST(MIN(k) - 1 AS BIGINT) AS dof,
       CAST(MIN(tot) AS BIGINT) AS n_lines
FROM f
"""


def q_heaps_law_fit(sf_dir: str):
    """Heaps' law: vocabulary growth V(k) ≈ c·k^β over the doc_id-ordered
    corpus, fit by log–log OLS at ten checkpoints.  The distributed core
    is an ARGMIN-PER-WORD reduce (first doc_id containing each word — a
    per-block min combiner + word-partitioned min), after which V(k) is
    a cumulative histogram of first occurrences — no sequential corpus
    scan."""
    P = 32
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = ds.count()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        words = df["text"].str.split()
        g = pd.DataFrame({
            "word": np.concatenate(words.to_numpy()),
            "first": np.repeat(df["doc_id"].to_numpy(),
                               words.str.len().to_numpy())}) \
            .groupby("word", as_index=False)["first"].min()
        g["part"] = (pd.util.hash_array(g["word"].to_numpy(dtype=object))
                     % P).astype(np.int32)
        return g

    def finals(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("word", as_index=False)["first"].min()
        return m.groupby("first", as_index=False).size() \
            .rename(columns={"size": "n_new"})

    parts = (ds.map_batches(partial, batch_format="pandas")
             .groupby("part").map_groups(finals, batch_format="pandas")
             .to_pandas())
    newv = parts.groupby("first", as_index=False)["n_new"].sum() \
        .sort_values("first")
    ids = newv["first"].to_numpy(np.int64)
    cum = newv["n_new"].to_numpy(np.int64).cumsum()
    ks = [max(1, (n_docs * (i + 1)) // 10) for i in range(10)]
    V = [int(cum[np.searchsorted(ids, k, side="right") - 1])
         if np.searchsorted(ids, k, side="right") > 0 else 0 for k in ks]
    x = np.log(np.array(ks, np.float64))
    y = np.log(np.array(V, np.float64))
    n = 10.0
    beta = (n * (x * y).sum() - x.sum() * y.sum()) \
        / (n * (x * x).sum() - x.sum() ** 2)
    return pd.DataFrame({
        "beta": [round(float(beta), 6)],
        "vocab_final": np.array([V[-1]], np.int64),
        "n_docs": np.array([n_docs], np.int64)})


SQL_HEAPS_LAW_FIT = """
WITH w AS (SELECT UNNEST(string_split(text, ' ')) AS word, doc_id
           FROM documents),
f AS (SELECT word, MIN(doc_id) AS first FROM w GROUP BY word),
nd AS (SELECT COUNT(*) AS n_docs FROM documents),
ks AS (SELECT GREATEST(1, (nd.n_docs * i.i) // 10) AS k
       FROM nd CROSS JOIN (SELECT UNNEST(range(1, 11)) AS i) i),
v AS (SELECT ks.k, LN(GREATEST(1, (SELECT COUNT(*) FROM f
                                   WHERE f.first <= ks.k))) AS ly,
             LN(ks.k) AS lx
      FROM ks),
o AS (SELECT COUNT(*) * 1.0 AS n, SUM(lx) AS sx, SUM(ly) AS sy,
             SUM(lx * ly) AS sxy, SUM(lx * lx) AS sxx
      FROM v)
SELECT ROUND((n * sxy - sx * sy) / (n * sxx - sx * sx), 6) AS beta,
       CAST((SELECT COUNT(*) FROM f) AS BIGINT) AS vocab_final,
       CAST((SELECT n_docs FROM nd) AS BIGINT) AS n_docs
FROM o
"""


def q_part_keyword_revenue(sf_dir: str):
    """LIKE-predicate pushdown through a join: lineitem revenue for
    parts whose NAME contains 'bolt', per brand — the string-predicate
    dimension filter.  The matching partkey set shrinks at the part
    scan (predicate pushdown), rides the salted join as the build side,
    and only (brand, rev, n) partials leave."""
    from icrawler_ray.stages.joins import salted_hash_join

    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_name"]) \
        .map_batches(
            lambda df: df.loc[df["p_name"].str.contains("bolt"),
                              ["p_partkey", "p_brand"]],
            batch_format="pandas")
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice"]) \
        .map_batches(
            lambda df: pd.DataFrame({
                "p_partkey": df["l_partkey"].to_numpy(),
                "cents": np.round(df["l_extendedprice"].to_numpy() * 100)
                .astype(np.int64)}),
            batch_format="pandas")

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("p_brand", as_index=False).agg(
            s=("cents", "sum"), n=("cents", "size"))

    parts = salted_hash_join(li, part, "p_partkey", agg_fn=agg).to_pandas()
    g = parts.groupby("p_brand", as_index=False)[["s", "n"]].sum()
    g["revenue"] = (g.pop("s") / 100.0).round(2)
    g["n_lines"] = g.pop("n").astype(np.int64)
    return g.sort_values("p_brand").reset_index(drop=True)


SQL_PART_KEYWORD_REVENUE = """
SELECT p.p_brand,
       ROUND(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT))
             / 100.0, 2) AS revenue,
       CAST(COUNT(*) AS BIGINT) AS n_lines
FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
WHERE p.p_name LIKE '%bolt%'
GROUP BY p.p_brand ORDER BY p.p_brand
"""


def q_reactivated_customers(sf_dir: str):
    """Dormancy reactivation: customers who went quiet for more than 180
    days and then ordered again — the win-back denominator.  Per-
    customer gap scans run vectorized in bounded custkey partitions;
    (reactivated, total) counters fold."""
    P = 32
    ds = _read(sf_dir, "orders",
               ["o_custkey", "o_orderkey", "o_orderdate"])

    def tag(t: pa.Table) -> pa.Table:
        part = pa.array((t["o_custkey"].to_numpy(zero_copy_only=False) % P)
                        .astype(np.int32))
        return t.append_column("part", part)

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "o_orderdate", "o_orderkey"],
                          kind="mergesort")
        c = g["o_custkey"].to_numpy()
        d = g["o_orderdate"].to_numpy("datetime64[D]").astype(np.int64)
        same = c[1:] == c[:-1]
        big_gap = (d[1:] - d[:-1] > 180) & same
        react = pd.DataFrame({"c": c[1:][big_gap]})["c"].nunique()
        return pd.DataFrame({"n_react": [int(react)],
                             "n_cust": [int(pd.unique(c).size)]})

    parts = (ds.map_batches(tag, batch_format="pyarrow")
             .groupby("part").map_groups(scan, batch_format="pandas")
             .to_pandas())
    r = int(parts["n_react"].sum())
    n = int(parts["n_cust"].sum())
    return pd.DataFrame({
        "n_reactivated": np.array([r], np.int64),
        "n_customers": np.array([n], np.int64),
        "reactivation_share": [round(r / n, 6)]})


SQL_REACTIVATED_CUSTOMERS = """
WITH g AS (SELECT o_custkey,
                  date_diff('day',
                            lag(o_orderdate)
                              OVER (PARTITION BY o_custkey
                                    ORDER BY o_orderdate, o_orderkey),
                            o_orderdate) AS gap
           FROM orders)
SELECT CAST(COUNT(DISTINCT CASE WHEN gap > 180 THEN o_custkey END)
            AS BIGINT) AS n_reactivated,
       CAST(COUNT(DISTINCT o_custkey) AS BIGINT) AS n_customers,
       ROUND(COUNT(DISTINCT CASE WHEN gap > 180 THEN o_custkey END) * 1.0
             / COUNT(DISTINCT o_custkey), 6) AS reactivation_share
FROM g
"""


def q_lexical_sophistication(sf_dir: str):
    """Lexical sophistication: the token-weighted mean GLOBAL FREQUENCY
    RANK of each language's tokens (higher mean rank = rarer
    vocabulary).  Global term ranks come from one word-count combiner +
    assign_global_seq over the vocabulary (vocab-sized, not
    corpus-sized); per-lang token streams then look the rank up from
    the broadcast vocab map."""
    from icrawler_ray.functions.seq import assign_global_seq

    ds = _read(sf_dir, "documents", ["text", "lang"])

    def wc(df: pd.DataFrame) -> pd.DataFrame:
        words = df["text"].str.split()
        return pd.DataFrame({"word": np.concatenate(words.to_numpy())}) \
            .groupby("word", as_index=False).size() \
            .rename(columns={"size": "n"})

    vocab = ds.map_batches(wc, batch_format="pandas") \
        .groupby("word").sum("n").materialize()
    ranked = assign_global_seq(vocab, ["sum(n)", "word"], col="rk",
                               descending=True).to_pandas()
    rmap_ref = ray.put(dict(zip(ranked["word"], ranked["rk"])))

    def per_lang(df: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(rmap_ref)
        words = df["text"].str.split()
        out = pd.DataFrame({
            "lang": np.repeat(df["lang"].to_numpy(),
                              words.str.len().to_numpy()),
            "rk": pd.Series(np.concatenate(words.to_numpy())).map(m)
            .to_numpy(np.int64)})
        return out.groupby("lang", as_index=False).agg(s=("rk", "sum"),
                                                       n=("rk", "size"))

    parts = ds.map_batches(per_lang, batch_format="pandas").to_pandas()
    g = parts.groupby("lang", as_index=False)[["s", "n"]].sum()
    g["mean_rank"] = (g["s"] / g["n"]).round(6)
    g["n_tokens"] = g.pop("n").astype(np.int64)
    return g.drop(columns="s").sort_values("lang").reset_index(drop=True)


SQL_LEXICAL_SOPHISTICATION = """
WITH w AS (SELECT lang, UNNEST(string_split(text, ' ')) AS word
           FROM documents),
v AS (SELECT word, COUNT(*) AS n FROM w GROUP BY word),
r AS (SELECT word,
             ROW_NUMBER() OVER (ORDER BY n DESC, word DESC) - 1 AS rk
      FROM v)
SELECT w.lang, ROUND(SUM(r.rk) * 1.0 / COUNT(*), 6) AS mean_rank,
       CAST(COUNT(*) AS BIGINT) AS n_tokens
FROM w JOIN r ON r.word = w.word
GROUP BY w.lang ORDER BY w.lang
"""


def q_wau_trend(sf_dir: str):
    """Weekly-active-users trend with inference: exact WAU per ISO week,
    OLS slope over week index AND its t-statistic — is growth
    significant or noise?  Distinct users per week come from (week,
    user) presence dedup partials finished in user partitions; the
    regression algebra folds from exact integer sums over the
    weeks-bounded series.  With n weeks, vx = nΣx²−(Σx)², vy =
    nΣy²−(Σy)², cxy = nΣxy−ΣxΣy and D = vx·vy − cxy² (n·vx times the
    residual sum of squares), t = cxy·√((n−2)/D).  An exact fit (D = 0:
    constant or exactly linear counts) has no defined t: NaN, as the
    oracle's NULL."""
    P = 32
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        iso = df["ts"].dt.isocalendar()
        g = pd.DataFrame({
            "user_id": df["user_id"].to_numpy(),
            "week": (iso["year"].to_numpy(np.int64) * 100
                     + iso["week"].to_numpy(np.int64))}).drop_duplicates()
        g["part"] = (g["user_id"].to_numpy(np.int64) % P).astype(np.int32)
        return g

    def counts(g: pd.DataFrame) -> pd.DataFrame:
        d = g[["user_id", "week"]].drop_duplicates()
        return d.groupby("week", as_index=False).size() \
            .rename(columns={"size": "n"})

    parts = (ds.map_batches(partial, batch_format="pandas")
             .groupby("part").map_groups(counts, batch_format="pandas")
             .to_pandas())
    g = parts.groupby("week", as_index=False)["n"].sum().sort_values("week")
    y = [int(v) for v in g["n"]]
    n = len(y)
    if n < 3:  # need 3+ weeks for a slope t-stat
        return pd.DataFrame({"slope": [0.0], "t_stat": [0.0],
                             "n_weeks": np.array([n], np.int64)})
    # Python ints: the moments and D are exact, so D == 0 is a sound test
    x = range(n)
    vx = n * sum(i * i for i in x) - sum(x) ** 2
    vy = n * sum(v * v for v in y) - sum(y) ** 2
    cxy = n * sum(i * v for i, v in zip(x, y)) - sum(x) * sum(y)
    d = vx * vy - cxy * cxy
    t = cxy * math.sqrt((n - 2) / d) if d else math.nan
    return pd.DataFrame({
        "slope": [round(cxy / vx, 6)],
        "t_stat": [round(t, 6)],
        "n_weeks": np.array([n], np.int64)})


SQL_WAU_TREND = """
WITH w AS (SELECT EXTRACT(isoyear FROM ts) * 100 + EXTRACT(week FROM ts)
               AS week,
             COUNT(DISTINCT user_id) AS n
      FROM events GROUP BY 1),
x AS (SELECT CAST(ROW_NUMBER() OVER (ORDER BY week) - 1 AS HUGEINT) AS x,
             CAST(n AS HUGEINT) AS y
      FROM w),
m AS (SELECT COUNT(*) AS n, SUM(x) AS sx, SUM(y) AS sy,
             SUM(x * x) AS sxx, SUM(x * y) AS sxy, SUM(y * y) AS syy
      FROM x),
v AS (SELECT n, n * sxx - sx * sx AS vx, n * syy - sy * sy AS vy,
             n * sxy - sx * sy AS cxy
      FROM m),
d AS (SELECT *, vx * vy - cxy * cxy AS d FROM v)
SELECT ROUND(cxy / vx, 6) AS slope,
       CASE WHEN d = 0 THEN NULL
            ELSE ROUND(cxy * SQRT((n - 2) / d), 6) END AS t_stat,
       CAST(n AS BIGINT) AS n_weeks
FROM d
"""


def q_top_token_burstiness(sf_dir: str):
    """Burstiness of the single most frequent corpus token: the
    variance-to-mean ratio of its PER-DOCUMENT count (including
    zero-count docs — the trap naive joins miss).  The global argmax
    token comes from one word-count combiner; per-doc counts of that
    token reduce to exact (Σc, Σc², n-docs) moments with the zero mass
    folded in arithmetically."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = ds.count()

    def wc(df: pd.DataFrame) -> pd.DataFrame:
        words = df["text"].str.split()
        return pd.DataFrame({"word": np.concatenate(words.to_numpy())}) \
            .groupby("word", as_index=False).size() \
            .rename(columns={"size": "n"})

    vocab = ds.map_batches(wc, batch_format="pandas").to_pandas() \
        .groupby("word", as_index=False)["n"].sum() \
        .sort_values(["n", "word"], ascending=[False, True])
    top = vocab["word"].iloc[0]
    tref = ray.put(top)

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        t = ray.get(tref)
        cnt = df["text"].str.split().map(lambda ws: ws.count(t)) \
            .to_numpy(np.int64)
        cnt = cnt[cnt > 0]
        return pd.DataFrame({"s": [int(cnt.sum())],
                             "ss": [int((cnt * cnt).sum())],
                             "k": [len(cnt)]})

    p = ds.map_batches(per_doc, batch_format="pandas").to_pandas()
    s, ss = int(p["s"].sum()), int(p["ss"].sum())
    mean = s / n_docs
    var = ss / n_docs - mean * mean  # zero-docs contribute 0 to s, ss
    return pd.DataFrame({
        "token": [top], "vmr": [round(var / mean, 6)],
        "mean_per_doc": [round(mean, 6)],
        "n_docs": np.array([n_docs], np.int64)})


SQL_TOP_TOKEN_BURSTINESS = """
WITH w AS (SELECT doc_id, UNNEST(string_split(text, ' ')) AS word
           FROM documents),
v AS (SELECT word, COUNT(*) AS n FROM w GROUP BY word
      ORDER BY n DESC, word LIMIT 1),
c AS (SELECT w.doc_id, COUNT(*) AS k FROM w JOIN v ON v.word = w.word
      GROUP BY w.doc_id),
nd AS (SELECT COUNT(*) AS n_docs FROM documents),
m AS (SELECT SUM(k) * 1.0 AS s, SUM(k * k) * 1.0 AS ss FROM c)
SELECT (SELECT word FROM v) AS token,
       ROUND((ss / nd.n_docs - POWER(s / nd.n_docs, 2))
             / (s / nd.n_docs), 6) AS vmr,
       ROUND(s / nd.n_docs, 6) AS mean_per_doc,
       CAST(nd.n_docs AS BIGINT) AS n_docs
FROM m, nd
"""


def q_dom_ordering_profile(sf_dir: str):
    """Day-of-month ordering profile: order count and revenue share per
    calendar day 1..31 — payday/billing-cycle fingerprints.  One
    (dom, n, cents) combiner over the 31-row grid."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "dom": df["o_orderdate"].dt.day.to_numpy().astype(np.int64),
            "cents": np.round(df["o_totalprice"].to_numpy() * 100)
            .astype(np.int64)}).groupby("dom", as_index=False).agg(
            n=("cents", "size"), s=("cents", "sum"))

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    g = parts.groupby("dom", as_index=False)[["n", "s"]].sum()
    tot_n, tot_s = int(g["n"].sum()), int(g["s"].sum())
    return pd.DataFrame({
        "dom": g["dom"].astype(np.int64),
        "n_orders": g["n"].astype(np.int64),
        "order_share": (g["n"] / tot_n).round(6),
        "revenue_share": (g["s"] / tot_s).round(6),
    }).sort_values("dom").reset_index(drop=True)


SQL_DOM_ORDERING_PROFILE = """
WITH d AS (SELECT EXTRACT(day FROM o_orderdate) AS dom,
                  CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents
           FROM orders)
SELECT CAST(dom AS BIGINT) AS dom,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       ROUND(COUNT(*) * 1.0 / SUM(COUNT(*)) OVER (), 6) AS order_share,
       ROUND(SUM(cents) * 1.0 / SUM(SUM(cents)) OVER (), 6)
         AS revenue_share
FROM d GROUP BY dom ORDER BY dom
"""


def q_dominant_type_users(sf_dir: str):
    """Behavioral plurality: each user's TOP event type (count argmax,
    lexicographic tiebreak) — users counted per winning type, plus the
    average share that winner covers.  Per-(user, type) count combiners
    finish inside user partitions; the plurality argmax is grouped and
    vectorized; (type, n, share-sum) partials fold."""
    P = 32
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["user_id", "event_type"], as_index=False).size() \
            .rename(columns={"size": "n"})
        g["part"] = (g["user_id"].to_numpy(np.int64) % P).astype(np.int32)
        return g

    def dominance(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["user_id", "event_type"], as_index=False)["n"].sum()
        tot = m.groupby("user_id")["n"].transform("sum")
        m = m.assign(tot=tot)
        m = m.sort_values(["user_id", "n", "event_type"],
                          ascending=[True, False, True])
        top = m.groupby("user_id", as_index=False).head(1)
        top = top.assign(share=top["n"] / top["tot"])
        return top.groupby("event_type", as_index=False).agg(
            n_users=("share", "size"), share_sum=("share", "sum"))

    parts = (ds.map_batches(partial, batch_format="pandas")
             .groupby("part").map_groups(dominance, batch_format="pandas")
             .to_pandas())
    out = parts.groupby("event_type", as_index=False)[
        ["n_users", "share_sum"]].sum()
    out["avg_top_share"] = (out.pop("share_sum") / out["n_users"]).round(6)
    out["n_users"] = out["n_users"].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_DOMINANT_TYPE_USERS = """
WITH m AS (SELECT user_id, event_type, COUNT(*) AS n FROM events
           GROUP BY 1, 2),
t AS (SELECT user_id, event_type, n,
             SUM(n) OVER (PARTITION BY user_id) AS tot
      FROM m),
top AS (SELECT user_id, event_type, n, tot FROM t
        QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id
                                   ORDER BY n DESC, event_type) = 1)
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_users,
       ROUND(SUM(n * 1.0 / tot) / COUNT(*), 6) AS avg_top_share
FROM top GROUP BY event_type ORDER BY event_type
"""


def q_order_priority_transition(sf_dir: str):
    """Per-customer priority Markov matrix: transition counts between
    CONSECUTIVE order priorities (orders in (date, key) sequence) with
    row-normalized probabilities — does urgency persist?  The
    event-transition machinery applied to the orders table: bounded
    custkey partitions, vectorized shift-pairs, (from, to) grid
    partials."""
    P = 32
    ds = _read(sf_dir, "orders",
               ["o_custkey", "o_orderkey", "o_orderdate", "o_orderpriority"])

    def tag(t: pa.Table) -> pa.Table:
        part = pa.array((t["o_custkey"].to_numpy(zero_copy_only=False) % P)
                        .astype(np.int32))
        return t.append_column("part", part)

    def trans(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "o_orderdate", "o_orderkey"],
                          kind="mergesort")
        c = g["o_custkey"].to_numpy()
        p = g["o_orderpriority"].to_numpy()
        same = c[1:] == c[:-1]
        return pd.DataFrame({"p_from": p[:-1][same],
                             "p_to": p[1:][same]}) \
            .groupby(["p_from", "p_to"], as_index=False).size() \
            .rename(columns={"size": "n"})

    parts = (ds.map_batches(tag, batch_format="pyarrow")
             .groupby("part").map_groups(trans, batch_format="pandas")
             .to_pandas())
    g = parts.groupby(["p_from", "p_to"], as_index=False)["n"].sum()
    tot = g.groupby("p_from")["n"].transform("sum")
    g["p_trans"] = (g["n"] / tot).round(6)
    g["n"] = g["n"].astype(np.int64)
    return g.sort_values(["p_from", "p_to"]).reset_index(drop=True)


SQL_ORDER_PRIORITY_TRANSITION = """
WITH s AS (SELECT o_custkey, o_orderpriority AS p_to,
                  lag(o_orderpriority)
                    OVER (PARTITION BY o_custkey
                          ORDER BY o_orderdate, o_orderkey) AS p_from
           FROM orders)
SELECT p_from, p_to, CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(COUNT(*) * 1.0
             / SUM(COUNT(*)) OVER (PARTITION BY p_from), 6) AS p_trans
FROM s WHERE p_from IS NOT NULL
GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_first_dow_ltv(sf_dir: str):
    """Acquisition-attribute cohorts: average customer LIFETIME value by
    the WEEKDAY of their first order — does acquisition day predict
    quality?  First-order weekday and lifetime cents both resolve
    inside custkey partitions (min-argmin + sum combiners); the 7-row
    cohort fold is exact."""
    P = 32
    ds = _read(sf_dir, "orders",
               ["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"])

    def tag(t: pa.Table) -> pa.Table:
        part = pa.array((t["o_custkey"].to_numpy(zero_copy_only=False) % P)
                        .astype(np.int32))
        return t.append_column("part", part)

    def cohort(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "o_orderdate", "o_orderkey"],
                          kind="mergesort")
        cents = np.round(g["o_totalprice"].to_numpy() * 100).astype(np.int64)
        d = pd.DataFrame({"c": g["o_custkey"].to_numpy(),
                          "dow": g["o_orderdate"].dt.dayofweek.to_numpy()
                          .astype(np.int64),
                          "cents": cents})
        per = d.groupby("c", as_index=False).agg(
            dow=("dow", "first"), ltv=("cents", "sum"))
        return per.groupby("dow", as_index=False).agg(
            s=("ltv", "sum"), n=("ltv", "size"))

    parts = (ds.map_batches(tag, batch_format="pyarrow")
             .groupby("part").map_groups(cohort, batch_format="pandas")
             .to_pandas())
    g = parts.groupby("dow", as_index=False)[["s", "n"]].sum()
    g["avg_ltv"] = (g["s"] / g["n"] / 100.0).round(6)
    g["n_customers"] = g.pop("n").astype(np.int64)
    g["dow"] = g["dow"].astype(np.int64)
    return g.drop(columns="s").sort_values("dow").reset_index(drop=True)


SQL_FIRST_DOW_LTV = """
WITH f AS (SELECT o_custkey,
                  isodow(MIN(o_orderdate)) - 1 AS dow,
                  SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS ltv
           FROM orders GROUP BY o_custkey)
SELECT CAST(dow AS BIGINT) AS dow,
       ROUND(SUM(ltv) * 1.0 / COUNT(*) / 100.0, 6) AS avg_ltv,
       CAST(COUNT(*) AS BIGINT) AS n_customers
FROM f GROUP BY dow ORDER BY dow
"""


def q_monthly_arpu(sf_dir: str):
    """ARPU trend: monthly order revenue divided by that month's
    DISTINCT ordering customers — the unit-economics series.  Revenue
    cents and distinct-customer presence both shrink to per-(month,
    custkey) combiner partials finished in custkey partitions; the
    month grid folds exactly."""
    P = 32
    ds = _read(sf_dir, "orders",
               ["o_custkey", "o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "o_custkey": df["o_custkey"].to_numpy(),
            "month": df["o_orderdate"].dt.strftime("%Y-%m"),
            "cents": np.round(df["o_totalprice"].to_numpy() * 100)
            .astype(np.int64)}) \
            .groupby(["o_custkey", "month"], as_index=False)["cents"].sum()
        g["part"] = (g["o_custkey"].to_numpy(np.int64) % P).astype(np.int32)
        return g

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["o_custkey", "month"], as_index=False)["cents"].sum()
        return m.groupby("month", as_index=False).agg(
            s=("cents", "sum"), n=("cents", "size"))

    parts = (ds.map_batches(partial, batch_format="pandas")
             .groupby("part").map_groups(fold, batch_format="pandas")
             .to_pandas())
    g = parts.groupby("month", as_index=False)[["s", "n"]].sum()
    g["arpu"] = (g["s"] / g["n"] / 100.0).round(6)
    g["n_customers"] = g.pop("n").astype(np.int64)
    g["revenue"] = (g.pop("s") / 100.0).round(2)
    return g.sort_values("month").reset_index(drop=True)[
        ["month", "revenue", "n_customers", "arpu"]]


SQL_MONTHLY_ARPU = """
WITH m AS (SELECT strftime(o_orderdate, '%Y-%m') AS month,
                  o_custkey,
                  SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS cents
           FROM orders GROUP BY 1, 2)
SELECT month, ROUND(SUM(cents) / 100.0, 2) AS revenue,
       CAST(COUNT(*) AS BIGINT) AS n_customers,
       ROUND(SUM(cents) * 1.0 / COUNT(*) / 100.0, 6) AS arpu
FROM m GROUP BY month ORDER BY month
"""


def q_name_component_mi(sf_dir: str):
    """Mutual information between the two catalog-name components
    (adjective, noun of p_name) — are name parts combined independently
    or is the catalog templated?  One (tok1, tok2) contingency combiner;
    MI and the normalized variant fold over the component grid."""
    ds = _read(sf_dir, "part", ["p_name"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        parts = df["p_name"].str.split(" ", n=1, expand=True)
        return pd.DataFrame({"t1": parts[0].to_numpy(),
                             "t2": parts[1].to_numpy()}) \
            .groupby(["t1", "t2"], as_index=False).size() \
            .rename(columns={"size": "n"})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    g = parts.groupby(["t1", "t2"], as_index=False)["n"].sum()
    n = g["n"].sum()
    p12 = g["n"].to_numpy(np.int64) / n
    p1 = g.groupby("t1")["n"].transform("sum").to_numpy(np.int64) / n
    p2 = g.groupby("t2")["n"].transform("sum").to_numpy(np.int64) / n
    mi = float((p12 * np.log(p12 / (p1 * p2))).sum())
    return pd.DataFrame({
        "mi_nats": [round(mi, 6)],
        "n_pairs": np.array([len(g)], np.int64),
        "n_parts": np.array([int(n)], np.int64)})


SQL_NAME_COMPONENT_MI = """
WITH s AS (SELECT string_split(p_name, ' ')[1] AS t1,
                  string_split(p_name, ' ')[2] AS t2
           FROM part),
c AS (SELECT t1, t2, COUNT(*) AS n FROM s GROUP BY 1, 2),
m AS (SELECT t1, t2, n,
             SUM(n) OVER (PARTITION BY t1) AS n1,
             SUM(n) OVER (PARTITION BY t2) AS n2,
             SUM(n) OVER () AS tot
      FROM c)
SELECT ROUND(SUM(n * 1.0 / tot
                 * LN((n * 1.0 / tot)
                      / ((n1 * 1.0 / tot) * (n2 * 1.0 / tot)))), 6)
         AS mi_nats,
       CAST(COUNT(*) AS BIGINT) AS n_pairs,
       CAST(MIN(tot) AS BIGINT) AS n_parts
FROM m
"""


def q_vocab_gini(sf_dir: str):
    """Vocabulary inequality: the exact Gini coefficient of corpus term
    frequencies — one number for how head-heavy the token distribution
    is (complements q_zipf_slope's fit and q_head_mass_terms' budget).
    Term counts reduce via the word-count combiner; the rank-weighted
    Gini sum runs over the VOCAB-sized table via one assign_global_seq
    sort."""
    from icrawler_ray.functions.seq import assign_global_seq

    ds = _read(sf_dir, "documents", ["text"])

    def wc(df: pd.DataFrame) -> pd.DataFrame:
        words = df["text"].str.split()
        return pd.DataFrame({"word": np.concatenate(words.to_numpy())}) \
            .groupby("word", as_index=False).size() \
            .rename(columns={"size": "n"})

    vocab = ds.map_batches(wc, batch_format="pandas") \
        .groupby("word").sum("n").materialize()
    k = vocab.count()
    ranked = assign_global_seq(vocab, ["sum(n)", "word"], col="rk")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rk = df["rk"].to_numpy(np.int64) + 1
        n = df["sum(n)"].to_numpy(np.int64)
        return pd.DataFrame({"srn": [int((rk * n).sum())],
                             "tot": [int(n.sum())]})

    p = ranked.map_batches(partial, batch_format="pandas").to_pandas()
    srn, tot = int(p["srn"].sum()), int(p["tot"].sum())
    gini = 2.0 * srn / (k * tot) - (k + 1.0) / k
    return pd.DataFrame({"gini": [round(gini, 6)],
                         "vocab_size": np.array([k], np.int64),
                         "n_tokens": np.array([tot], np.int64)})


SQL_VOCAB_GINI = """
WITH w AS (SELECT UNNEST(string_split(text, ' ')) AS word FROM documents),
v AS (SELECT word, COUNT(*) AS n FROM w GROUP BY word),
r AS (SELECT n, ROW_NUMBER() OVER (ORDER BY n, word) AS rk,
             COUNT(*) OVER () AS k
      FROM v)
SELECT ROUND(2.0 * SUM(rk * n) / (MIN(k) * SUM(n))
             - (MIN(k) + 1.0) / MIN(k), 6) AS gini,
       CAST(MIN(k) AS BIGINT) AS vocab_size,
       CAST(SUM(n) AS BIGINT) AS n_tokens
FROM r
"""


def q_brand_discount_elasticity(sf_dir: str):
    """Per-brand Pearson correlation between discount and quantity —
    the price-elasticity proxy a merchandiser reads before repricing.
    Lineitem joins part through the salted hash join whose agg_fn emits
    per-brand sufficient-statistic partials (n, Σx, Σy, Σxx, Σyy, Σxy);
    the corr closes in one brand-cardinality-bounded driver fold, so
    the exchange never ships raw rows."""
    from icrawler_ray.stages.joins import salted_hash_join

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_discount", "l_quantity"]) \
        .map_batches(
            lambda df: pd.DataFrame({
                "p_partkey": df["l_partkey"].to_numpy(),
                "x": df["l_discount"].to_numpy(),
                "y": df["l_quantity"].to_numpy()}),
            batch_format="pandas")
    part = _read(sf_dir, "part", ["p_partkey", "p_brand"])

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        x, y = g["x"].to_numpy(), g["y"].to_numpy()
        return g.assign(n=1.0, sx=x, sy=y, sxx=x * x, syy=y * y,
                        sxy=x * y) \
            .groupby("p_brand", as_index=False)[
                ["n", "sx", "sy", "sxx", "syy", "sxy"]].sum()

    parts = salted_hash_join(li, part, "p_partkey", agg_fn=agg).to_pandas()
    g = parts.groupby("p_brand", as_index=False)[
        ["n", "sx", "sy", "sxx", "syy", "sxy"]].sum()
    n = g["n"].to_numpy()
    cov = n * g["sxy"].to_numpy() - g["sx"].to_numpy() * g["sy"].to_numpy()
    vx = n * g["sxx"].to_numpy() - g["sx"].to_numpy() ** 2
    vy = n * g["syy"].to_numpy() - g["sy"].to_numpy() ** 2
    denom = np.sqrt(vx * vy)
    corr = np.divide(cov, denom, out=np.full(len(g), np.nan),
                     where=denom > 0)
    return pd.DataFrame({
        "p_brand": g["p_brand"],
        "n_lines": n.astype(np.int64),
        "corr_discount_qty": np.round(corr, 6),
    }).sort_values("p_brand").reset_index(drop=True)


SQL_BRAND_DISCOUNT_ELASTICITY = """
SELECT p.p_brand,
       COUNT(*) AS n_lines,
       ROUND(CORR(l.l_discount, l.l_quantity), 6) AS corr_discount_qty
FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
GROUP BY p.p_brand ORDER BY p.p_brand
"""


def q_exit_type_share(sf_dir: str):
    """Exit-event profile: for each event type, how many users END their
    recorded journey on it, that type's share of all exits, and the mean
    value of those final events — the churn-surface counterpart of the
    first-touch analytics.  Users hash into bounded fat partitions; each
    partition takes the per-user (ts, event_id)-max row vectorized and
    emits type-cardinality partials."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                  "event_type", "value"])
    P = 32

    def add_part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(part=(df["user_id"].to_numpy() % P).astype(np.int32))
        return df

    def last_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        last = g.groupby("user_id", as_index=False).tail(1)
        return last.groupby("event_type", as_index=False).agg(
            n_users=("user_id", "size"), sum_value=("value", "sum"))

    parts = (ds.map_batches(add_part, batch_format="pandas")
             .groupby("part").map_groups(last_part, batch_format="pandas")
             ).to_pandas()
    g = parts.groupby("event_type", as_index=False).agg(
        n_users=("n_users", "sum"), sum_value=("sum_value", "sum"))
    tot = g["n_users"].sum()
    g["exit_share"] = (g["n_users"] / tot).round(6)
    g["avg_exit_value"] = (g["sum_value"] / g["n_users"]).round(6)
    g["n_users"] = g["n_users"].astype("int64")
    return g.sort_values("event_type").reset_index(drop=True)[
        ["event_type", "n_users", "exit_share", "avg_exit_value"]]


SQL_EXIT_TYPE_SHARE = """
WITH l AS (SELECT user_id, event_type, value,
                  ROW_NUMBER() OVER (PARTITION BY user_id
                                     ORDER BY ts DESC, event_id DESC)
                    AS rk
           FROM events),
e AS (SELECT event_type, COUNT(*) AS n_users, SUM(value) AS sv
      FROM l WHERE rk = 1 GROUP BY 1),
g AS (SELECT SUM(n_users) AS tot FROM e)
SELECT e.event_type, e.n_users,
       ROUND(e.n_users * 1.0 / g.tot, 6) AS exit_share,
       ROUND(e.sv / e.n_users, 6) AS avg_exit_value
FROM e, g ORDER BY e.event_type
"""


def q_order_value_cv_by_nation(sf_dir: str):
    """Coefficient of variation of order value per customer nation —
    the heterogeneity read behind market-specific pricing.  Orders fold
    to per-customer partials, the salted hash join attaches nationkey
    with an agg_fn that reduces straight to per-nation sufficient
    statistics (n, Σ, Σ²), and the nation-name map (25 rows) joins on
    the driver."""
    from icrawler_ray.stages.joins import salted_hash_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]) \
        .map_batches(
            lambda df: pd.DataFrame({
                "c_custkey": df["o_custkey"].to_numpy(),
                "v": df["o_totalprice"].to_numpy()}),
            batch_format="pandas")
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        v = g["v"].to_numpy()
        return g.assign(n=1.0, s=v, ss=v * v) \
            .groupby("c_nationkey", as_index=False)[["n", "s", "ss"]].sum()

    parts = salted_hash_join(orders, cust, "c_custkey", agg_fn=agg,
                             hot_keys=np.array([], np.int64)).to_pandas()
    g = parts.groupby("c_nationkey", as_index=False)[["n", "s", "ss"]].sum()
    nat = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    g = g.merge(nat, left_on="c_nationkey", right_on="n_nationkey")
    n, s, ss = g["n"].to_numpy(), g["s"].to_numpy(), g["ss"].to_numpy()
    mean = s / n
    var = np.maximum(ss / n - mean ** 2, 0.0)  # population variance
    return pd.DataFrame({
        "n_name": g["n_name"],
        "n_orders": n.astype(np.int64),
        "avg_value": np.round(mean, 2),
        "cv": np.round(np.sqrt(var) / mean, 6),
    }).sort_values("n_name").reset_index(drop=True)


SQL_ORDER_VALUE_CV_BY_NATION = """
SELECT n.n_name,
       COUNT(*) AS n_orders,
       ROUND(AVG(o.o_totalprice), 2) AS avg_value,
       ROUND(STDDEV_POP(o.o_totalprice) / AVG(o.o_totalprice), 6) AS cv
FROM orders o
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
GROUP BY n.n_name ORDER BY n.n_name
"""


def q_char_class_profile(sf_dir: str):
    """Character-class density per source: digit-char ratio and
    uppercase-char ratio over each source's corpus — the OCR-noise /
    boilerplate fingerprint used to tune cleaning rules per provenance.
    Pure map-side combiner: each batch counts digits/uppers/chars per
    source vectorized (pandas str.count on compiled classes) and the
    reduce is source-cardinality-bounded."""
    ds = _read(sf_dir, "documents", ["source", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": df["source"],
            "chars": df["text"].str.len().astype("int64"),
            "digits": df["text"].str.count(r"[0-9]").astype("int64"),
            "uppers": df["text"].str.count(r"[A-Z]").astype("int64"),
            "docs": 1,
        }).groupby("source", as_index=False).sum()

    g = ds.map_batches(partial, batch_format="pandas").to_pandas() \
        .groupby("source", as_index=False).sum()
    g["digit_ratio"] = (g["digits"] / g["chars"]).round(6)
    g["upper_ratio"] = (g["uppers"] / g["chars"]).round(6)
    g["n_docs"] = g.pop("docs").astype("int64")
    g["n_chars"] = g.pop("chars").astype("int64")
    return g.sort_values("source").reset_index(drop=True)[
        ["source", "n_docs", "n_chars", "digit_ratio", "upper_ratio"]]


SQL_CHAR_CLASS_PROFILE = """
SELECT source,
       COUNT(*) AS n_docs,
       CAST(SUM(LENGTH(text)) AS BIGINT) AS n_chars,
       ROUND(SUM(LENGTH(REGEXP_REPLACE(text, '[^0-9]', '', 'g')) * 1.0)
             / SUM(LENGTH(text)), 6) AS digit_ratio,
       ROUND(SUM(LENGTH(REGEXP_REPLACE(text, '[^A-Z]', '', 'g')) * 1.0)
             / SUM(LENGTH(text)), 6) AS upper_ratio
FROM documents GROUP BY source ORDER BY source
"""


def q_acf_daily_revenue(sf_dir: str):
    """Autocorrelation function of the daily-revenue series at lags
    1..7 — the weekly-memory fingerprint a forecaster reads before
    picking model order.  Daily revenue reduces through cents-exact
    combiner partials; the series is calendar-bounded, so the lagged
    Pearson folds are driver-side numpy over (n - lag) pairs (rank-
    adjacent days, matching the SQL's ROW_NUMBER join)."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["o_totalprice"].to_numpy() * 100).astype(np.int64)
        return pd.DataFrame({"day": df["o_orderdate"].dt.normalize(),
                             "cents": cents}) \
            .groupby("day", as_index=False)["cents"].sum()

    daily = ds.map_batches(partial, batch_format="pandas").to_pandas() \
        .groupby("day", as_index=False)["cents"].sum().sort_values("day")
    x = daily["cents"].to_numpy(dtype=np.float64) / 100.0
    rows = []
    for lag in range(1, 8):
        if len(x) <= lag + 1:
            rows.append((lag, 0, float("nan")))
            continue
        a, b = x[:-lag], x[lag:]
        n = len(a)
        cov = n * np.dot(a, b) - a.sum() * b.sum()
        va = n * np.dot(a, a) - a.sum() ** 2
        vb = n * np.dot(b, b) - b.sum() ** 2
        acf = cov / np.sqrt(va * vb) if va > 0 and vb > 0 else float("nan")
        rows.append((lag, n, round(float(acf), 6)))
    return pd.DataFrame(rows, columns=["lag", "n_pairs", "acf"])


SQL_ACF_DAILY_REVENUE = """
WITH d AS (SELECT o_orderdate AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) / 100.0
                    AS rev
           FROM orders GROUP BY 1),
r AS (SELECT rev, ROW_NUMBER() OVER (ORDER BY day) AS idx FROM d),
l AS (SELECT * FROM (VALUES (1), (2), (3), (4), (5), (6), (7)) AS t(lag))
SELECT l.lag, COUNT(*) AS n_pairs,
       ROUND(CORR(a.rev, b.rev), 6) AS acf
FROM l JOIN r a ON TRUE JOIN r b ON b.idx = a.idx + l.lag
GROUP BY l.lag ORDER BY l.lag
"""


#: truncated-EWMA smoothing: horizon (days) and decay per day
EWMA_HORIZON_DAYS = 30
EWMA_DECAY = 0.8


def q_ewma_daily_value(sf_dir: str):
    """Per-type exponentially weighted moving average of daily event
    value over the trailing 30 days (decay 0.8/day, truncated — the
    streaming smoother behind alerting baselines).  Daily (type, day)
    totals reduce through combiner partials — a (types × 30)-bounded
    table — and the weighted fold closes on the driver."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])
    maxd = ds.map_batches(
        lambda df: pd.DataFrame({"d": [df["ts"].max()]}),
        batch_format="pandas").to_pandas()["d"].max().normalize()
    lo = maxd - pd.Timedelta(days=EWMA_HORIZON_DAYS - 1)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        day = df["ts"].dt.normalize()
        m = day >= lo
        if not m.any():
            return pd.DataFrame({"event_type": pd.Series([], dtype=str),
                                 "day": pd.Series([], dtype="datetime64[us]"),
                                 "v": pd.Series([], dtype=float)})
        sub = pd.DataFrame({"event_type": df["event_type"][m],
                            "day": day[m], "v": df["value"][m]})
        return sub.groupby(["event_type", "day"], as_index=False)["v"].sum()

    g = ds.map_batches(partial, batch_format="pandas").to_pandas() \
        .groupby(["event_type", "day"], as_index=False)["v"].sum()
    lag = (maxd - g["day"]).dt.days.to_numpy()
    w = EWMA_DECAY ** lag
    g = g.assign(wv=w * g["v"].to_numpy(), w=w)
    out = g.groupby("event_type", as_index=False).agg(
        n_days=("day", "size"), wv=("wv", "sum"), w=("w", "sum"))
    out["ewma_value"] = (out["wv"] / out["w"]).round(6)
    out["n_days"] = out["n_days"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)[
        ["event_type", "n_days", "ewma_value"]]


SQL_EWMA_DAILY_VALUE = """
WITH mx AS (SELECT CAST(MAX(ts) AS DATE) AS maxd FROM events),
d AS (SELECT event_type, CAST(ts AS DATE) AS day, SUM(value) AS v
      FROM events, mx
      WHERE CAST(ts AS DATE) >= maxd - INTERVAL 29 DAY
      GROUP BY 1, 2)
SELECT d.event_type, COUNT(*) AS n_days,
       ROUND(SUM(d.v * POWER(0.8, DATE_DIFF('day', d.day, mx.maxd)))
             / SUM(POWER(0.8, DATE_DIFF('day', d.day, mx.maxd))), 6)
         AS ewma_value
FROM d, mx GROUP BY d.event_type ORDER BY d.event_type
"""


def q_prefix_dup_rate(sf_dir: str):
    """Boilerplate detector: share of documents whose first 64
    characters are shared with another doc of the SAME source — the
    template-page signal that precedes prefix-stripping rules.  Prefixes
    hash-partition (pandas siphash, the doc_fingerprint pattern) so
    group counting is local; partials are source-cardinality-bounded."""
    ds = _read(sf_dir, "documents", ["source", "text"])
    P = 32

    def add_part(df: pd.DataFrame) -> pd.DataFrame:
        pref = df["text"].str.slice(0, 64)
        part = (pd.util.hash_array(pref.to_numpy(dtype=object)) % P) \
            .astype(np.int32)
        return pd.DataFrame({"part": part, "source": df["source"],
                             "pref": pref})

    def count_part(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby(["source", "pref"], as_index=False).size()
        return pd.DataFrame({
            "source": c["source"],
            "docs": c["size"],
            "dup_docs": np.where(c["size"] > 1, c["size"], 0),
        }).groupby("source", as_index=False).sum()

    g = (ds.map_batches(add_part, batch_format="pandas")
         .groupby("part").map_groups(count_part, batch_format="pandas")
         ).to_pandas().groupby("source", as_index=False).sum()
    g["dup_share"] = (g["dup_docs"] / g["docs"]).round(6)
    g["n_docs"] = g.pop("docs").astype("int64")
    g["n_dup_docs"] = g.pop("dup_docs").astype("int64")
    return g.sort_values("source").reset_index(drop=True)[
        ["source", "n_docs", "n_dup_docs", "dup_share"]]


SQL_PREFIX_DUP_RATE = """
WITH p AS (SELECT source, SUBSTR(text, 1, 64) AS pref FROM documents),
c AS (SELECT source, pref, COUNT(*) AS n FROM p GROUP BY 1, 2)
SELECT source,
       CAST(SUM(n) AS BIGINT) AS n_docs,
       CAST(SUM(CASE WHEN n > 1 THEN n ELSE 0 END) AS BIGINT)
         AS n_dup_docs,
       ROUND(SUM(CASE WHEN n > 1 THEN n ELSE 0 END) * 1.0 / SUM(n), 6)
         AS dup_share
FROM c GROUP BY source ORDER BY source
"""


def q_pair_cosine_hist(sf_dir: str):
    """Corpus-similarity profile: histogram (bin width 0.1) of cosine
    similarity between consecutive-id embedding pairs (i, i+1) — the
    cheap global read on embedding-space temperature before picking
    near-dup thresholds.  Each row ships to keys vec_id and vec_id-1
    (the offset self-join as ONE hash exchange); cosines fold per
    partition into 20-bin partials."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    P = 32

    def fan(df: pd.DataFrame) -> pd.DataFrame:
        vid = df["vec_id"].to_numpy()
        out = pd.concat([
            pd.DataFrame({"key": vid, "side": np.int8(0),
                          "embedding": df["embedding"]}),
            pd.DataFrame({"key": vid - 1, "side": np.int8(1),
                          "embedding": df["embedding"]}),
        ])
        out["part"] = (out["key"].to_numpy() % P).astype(np.int32)
        return out[out["key"] >= 0]

    def cos_part(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("key")["side"].transform("size")
        g = g[c == 2].sort_values(["key", "side"])
        if g.empty:
            return pd.DataFrame({"bin": pd.Series([], dtype=np.int32),
                                 "n": pd.Series([], dtype=np.int64)})
        a = np.stack(g["embedding"].to_numpy()[0::2]).astype(np.float64)
        b = np.stack(g["embedding"].to_numpy()[1::2]).astype(np.float64)
        cos = np.sum(a * b, axis=1) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        bins = np.clip(np.floor(np.round(cos, 6) * 10), -10, 9) \
            .astype(np.int32)
        u, n = np.unique(bins, return_counts=True)
        return pd.DataFrame({"bin": u, "n": n.astype(np.int64)})

    g = (ds.map_batches(fan, batch_format="pandas")
         .groupby("part").map_groups(cos_part, batch_format="pandas")
         ).to_pandas().groupby("bin", as_index=False)["n"].sum()
    tot = g["n"].sum()
    g["share"] = (g["n"] / tot).round(6)
    g["lo"] = (g["bin"] / 10.0).round(1)
    g["n"] = g["n"].astype("int64")
    return g.sort_values("bin").reset_index(drop=True)[
        ["lo", "n", "share"]]


SQL_PAIR_COSINE_HIST = """
WITH p AS (SELECT a.vec_id,
                  list_cosine_similarity(a.embedding, b.embedding) AS cos
           FROM embeddings a JOIN embeddings b
             ON b.vec_id = a.vec_id + 1),
b AS (SELECT GREATEST(-10, LEAST(9,
               CAST(FLOOR(ROUND(cos, 6) * 10) AS INT))) AS bin
      FROM p),
c AS (SELECT bin, COUNT(*) AS n FROM b GROUP BY 1),
g AS (SELECT SUM(n) AS tot FROM c)
SELECT ROUND(c.bin / 10.0, 1) AS lo, c.n,
       ROUND(c.n * 1.0 / g.tot, 6) AS share
FROM c, g ORDER BY c.bin
"""


def q_orders_per_customer_hist(sf_dir: str):
    """Frequency-of-frequencies: how many customers placed exactly k
    orders (k capped at 10+), INCLUDING the zero-order customers the
    orders table never mentions — the engagement-curve read that needs
    the left-outer shape.  Per-customer counts fold through combiner
    partials keyed by custkey hash; zero-order mass is total customers
    minus distinct purchasers (two scalar reductions, no join)."""
    P = 32
    orders = _read(sf_dir, "orders", ["o_custkey"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_custkey", as_index=False).size()
        g["part"] = (g["o_custkey"].to_numpy() % P).astype(np.int32)
        return g

    def hist_part(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("o_custkey", as_index=False)["size"].sum()
        k = np.minimum(c["size"].to_numpy(), 10)
        u, n = np.unique(k, return_counts=True)
        return pd.DataFrame({"k": u.astype(np.int64),
                             "n_customers": n.astype(np.int64)})

    hist = (orders.map_batches(partial, batch_format="pandas")
            .groupby("part").map_groups(hist_part, batch_format="pandas")
            ).to_pandas().groupby("k", as_index=False)["n_customers"].sum()
    n_cust = _read(sf_dir, "customer", ["c_custkey"]).count()
    zero = n_cust - int(hist["n_customers"].sum())
    out = (pd.concat([pd.DataFrame({"k": [0], "n_customers": [zero]}), hist])
           if zero > 0 else hist)
    out["n_customers"] = out["n_customers"].astype("int64")
    out["share"] = (out["n_customers"] / n_cust).round(6)
    return out.sort_values("k").reset_index(drop=True)


SQL_ORDERS_PER_CUSTOMER_HIST = """
WITH pc AS (SELECT c.c_custkey, COUNT(o.o_orderkey) AS cnt
            FROM customer c LEFT JOIN orders o
              ON o.o_custkey = c.c_custkey
            GROUP BY 1),
h AS (SELECT LEAST(cnt, 10) AS k, COUNT(*) AS n_customers
      FROM pc GROUP BY 1),
g AS (SELECT SUM(n_customers) AS tot FROM h)
SELECT CAST(h.k AS BIGINT) AS k, h.n_customers,
       ROUND(h.n_customers * 1.0 / g.tot, 6) AS share
FROM h, g ORDER BY h.k
"""


def q_brand_price_size_slopes(sf_dir: str):
    """Grouped OLS: per-brand slope and intercept of retailprice ~ size
    — the hedonic 'what does a size unit cost under each brand' read.
    Pure map-side sufficient statistics (n, Σx, Σy, Σxx, Σxy) per brand
    reduce to a brand-cardinality fold; no shuffle ships raw rows."""
    ds = _read(sf_dir, "part", ["p_brand", "p_size", "p_retailprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df["p_size"].to_numpy(dtype=np.float64)
        y = df["p_retailprice"].to_numpy(dtype=np.float64)
        return df.assign(n=1.0, sx=x, sy=y, sxx=x * x, sxy=x * y) \
            .groupby("p_brand", as_index=False)[
                ["n", "sx", "sy", "sxx", "sxy"]].sum()

    g = ds.map_batches(partial, batch_format="pandas").to_pandas() \
        .groupby("p_brand", as_index=False).sum()
    n = g["n"].to_numpy()
    den = n * g["sxx"].to_numpy() - g["sx"].to_numpy() ** 2
    slope = np.divide(
        n * g["sxy"].to_numpy() - g["sx"].to_numpy() * g["sy"].to_numpy(),
        den, out=np.full(len(g), np.nan), where=den != 0)
    intercept = (g["sy"].to_numpy() - slope * g["sx"].to_numpy()) / n
    return pd.DataFrame({
        "p_brand": g["p_brand"],
        "n_parts": n.astype(np.int64),
        "slope": np.round(slope, 6),
        "intercept": np.round(intercept, 6),
    }).sort_values("p_brand").reset_index(drop=True)


SQL_BRAND_PRICE_SIZE_SLOPES = """
SELECT p_brand,
       COUNT(*) AS n_parts,
       ROUND(REGR_SLOPE(p_retailprice, p_size), 6) AS slope,
       ROUND(REGR_INTERCEPT(p_retailprice, p_size), 6) AS intercept
FROM part GROUP BY p_brand ORDER BY p_brand
"""


def q_sentence_stats_by_lang(sf_dir: str):
    """Sentence-segmentation profile per language: terminator count
    ('.', '!', '?') and mean chars-per-sentence over docs that have at
    least one terminator — the readability prior for per-language
    cleaning.  Map-side combiner partials only; the reduce is lang-
    cardinality-bounded."""
    ds = _read(sf_dir, "documents", ["lang", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        terms = df["text"].str.count(r"[.!?]").astype("int64")
        chars = df["text"].str.len().astype("int64")
        has = terms > 0
        return pd.DataFrame({
            "lang": df["lang"],
            "docs": 1,
            "seg_docs": has.astype("int64"),
            "terms": terms,
            "seg_chars": np.where(has, chars, 0),
        }).groupby("lang", as_index=False).sum()

    g = ds.map_batches(partial, batch_format="pandas").to_pandas() \
        .groupby("lang", as_index=False).sum()
    g["avg_sentence_len"] = np.where(
        g["terms"] > 0, g["seg_chars"] / g["terms"], np.nan).round(6)
    g["avg_sentences"] = np.where(
        g["seg_docs"] > 0, g["terms"] / g["seg_docs"], np.nan).round(6)
    g["n_docs"] = g.pop("docs").astype("int64")
    g["n_segmented"] = g.pop("seg_docs").astype("int64")
    return g.sort_values("lang").reset_index(drop=True)[
        ["lang", "n_docs", "n_segmented", "avg_sentences",
         "avg_sentence_len"]]


SQL_SENTENCE_STATS_BY_LANG = """
WITH t AS (SELECT lang, LENGTH(text) AS chars,
                  LENGTH(text)
                  - LENGTH(REGEXP_REPLACE(text, '[.!?]', '', 'g'))
                    AS terms
           FROM documents)
SELECT lang, COUNT(*) AS n_docs,
       CAST(SUM(CASE WHEN terms > 0 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_segmented,
       ROUND(SUM(terms) * 1.0
             / SUM(CASE WHEN terms > 0 THEN 1 ELSE 0 END), 6)
         AS avg_sentences,
       ROUND(SUM(CASE WHEN terms > 0 THEN chars ELSE 0 END) * 1.0
             / SUM(terms), 6) AS avg_sentence_len
FROM t GROUP BY lang ORDER BY lang
"""


def q_odds_ratio_weekend_purchase(sf_dir: str):
    """2×2 odds-ratio analysis: odds of an event being a purchase on a
    weekend vs a weekday, with the log-OR standard error (Woolf) — the
    case/control framing of the weekend-effect question.  Pure map-side
    fold: each batch emits the four cell counts; the driver closes the
    2×2 arithmetic."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        we = df["ts"].dt.dayofweek >= 5
        pur = df["event_type"].eq("purchase")
        return pd.DataFrame({
            "a": [int((we & pur).sum())],      # weekend purchase
            "b": [int((we & ~pur).sum())],     # weekend other
            "c": [int((~we & pur).sum())],     # weekday purchase
            "d": [int((~we & ~pur).sum())],    # weekday other
        })

    t = ds.map_batches(partial, batch_format="pandas").to_pandas().sum()
    a, b, c, d = (float(t["a"]), float(t["b"]), float(t["c"]), float(t["d"]))
    if min(a, b, c, d) <= 0:
        orr, se = float("nan"), float("nan")
    else:
        orr = (a * d) / (b * c)
        se = float(np.sqrt(1 / a + 1 / b + 1 / c + 1 / d))
    return pd.DataFrame({
        "weekend_purchase": [int(a)], "weekend_other": [int(b)],
        "weekday_purchase": [int(c)], "weekday_other": [int(d)],
        "odds_ratio": [round(orr, 6)], "log_or_se": [round(se, 6)],
    })


SQL_ODDS_RATIO_WEEKEND_PURCHASE = """
WITH t AS (SELECT
    SUM(CASE WHEN DAYOFWEEK(ts) IN (0, 6)
              AND event_type = 'purchase' THEN 1 ELSE 0 END) AS a,
    SUM(CASE WHEN DAYOFWEEK(ts) IN (0, 6)
              AND event_type <> 'purchase' THEN 1 ELSE 0 END) AS b,
    SUM(CASE WHEN DAYOFWEEK(ts) NOT IN (0, 6)
              AND event_type = 'purchase' THEN 1 ELSE 0 END) AS c,
    SUM(CASE WHEN DAYOFWEEK(ts) NOT IN (0, 6)
              AND event_type <> 'purchase' THEN 1 ELSE 0 END) AS d
  FROM events)
SELECT CAST(a AS BIGINT) AS weekend_purchase,
       CAST(b AS BIGINT) AS weekend_other,
       CAST(c AS BIGINT) AS weekday_purchase,
       CAST(d AS BIGINT) AS weekday_other,
       ROUND(a * d * 1.0 / (b * c), 6) AS odds_ratio,
       ROUND(SQRT(1.0/a + 1.0/b + 1.0/c + 1.0/d), 6) AS log_or_se
FROM t
"""


def q_name_verbosity_premium(sf_dir: str):
    """Is verbosity priced?  Mean retail price by number of tokens in
    the part name, plus each bucket's share of the catalog — the
    metadata-hygiene read on whether longer names systematically carry
    higher-priced parts.  Pure map-side combiner; the reduce is token-
    count-bounded."""
    ds = _read(sf_dir, "part", ["p_name", "p_retailprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ntok = (df["p_name"].str.count(" ") + 1).astype("int64")
        return pd.DataFrame({
            "n_tokens": ntok, "n_parts": 1,
            "sum_price": df["p_retailprice"].to_numpy(),
        }).groupby("n_tokens", as_index=False).sum()

    g = ds.map_batches(partial, batch_format="pandas").to_pandas() \
        .groupby("n_tokens", as_index=False).sum()
    tot = g["n_parts"].sum()
    g["avg_price"] = (g["sum_price"] / g["n_parts"]).round(6)
    g["catalog_share"] = (g["n_parts"] / tot).round(6)
    g["n_parts"] = g["n_parts"].astype("int64")
    return g.sort_values("n_tokens").reset_index(drop=True)[
        ["n_tokens", "n_parts", "catalog_share", "avg_price"]]


SQL_NAME_VERBOSITY_PREMIUM = """
WITH t AS (SELECT LENGTH(p_name)
                  - LENGTH(REPLACE(p_name, ' ', '')) + 1 AS n_tokens,
                  p_retailprice
           FROM part),
g AS (SELECT n_tokens, COUNT(*) AS n_parts, AVG(p_retailprice) AS ap
      FROM t GROUP BY 1),
s AS (SELECT SUM(n_parts) AS tot FROM g)
SELECT CAST(g.n_tokens AS BIGINT) AS n_tokens, g.n_parts,
       ROUND(g.n_parts * 1.0 / s.tot, 6) AS catalog_share,
       ROUND(g.ap, 6) AS avg_price
FROM g, s ORDER BY g.n_tokens
"""


def q_supplier_nation_tax(sf_dir: str):
    """Tax incidence by supplier nation: quantity-weighted mean tax
    rate and total revenue sourced from each supplier country — the
    landed-cost geography read.  Lineitem folds through the salted join
    combiner keyed by supplier, partials keyed by nationkey; the
    25-row nation name map joins on the driver."""
    from icrawler_ray.stages.joins import salted_hash_join

    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_quantity", "l_tax", "l_extendedprice"]) \
        .map_batches(
            lambda df: pd.DataFrame({
                "s_suppkey": df["l_suppkey"].to_numpy(),
                "q": df["l_quantity"].to_numpy(),
                "qt": df["l_quantity"].to_numpy() * df["l_tax"].to_numpy(),
                "cents": np.round(df["l_extendedprice"].to_numpy() * 100)
                .astype(np.int64)}),
            batch_format="pandas")
    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("s_nationkey", as_index=False)[
            ["q", "qt", "cents"]].sum()

    g = salted_hash_join(li, sup, "s_suppkey", agg_fn=agg,
                         hot_keys=np.array([], np.int64)).to_pandas() \
        .groupby("s_nationkey", as_index=False)[["q", "qt", "cents"]].sum()
    nat = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    g = g.merge(nat, left_on="s_nationkey", right_on="n_nationkey")
    g["wavg_tax"] = (g["qt"] / g["q"]).round(6)
    g["revenue"] = (g["cents"] / 100.0).round(2)
    g["total_qty"] = g["q"].round(2)
    return g.sort_values("n_name").reset_index(drop=True)[
        ["n_name", "total_qty", "revenue", "wavg_tax"]]


SQL_SUPPLIER_NATION_TAX = """
SELECT n.n_name,
       ROUND(SUM(l.l_quantity), 2) AS total_qty,
       ROUND(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT))
             / 100.0, 2) AS revenue,
       ROUND(SUM(l.l_quantity * l.l_tax) / SUM(l.l_quantity), 6)
         AS wavg_tax
FROM lineitem l
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation n ON n.n_nationkey = s.s_nationkey
GROUP BY n.n_name ORDER BY n.n_name
"""


def q_interarrival_cv_by_type(sf_dir: str):
    """Burstiness of each event type's GLOBAL arrival process: the
    coefficient of variation of inter-arrival times (CV≈1 Poisson,
    >1 bursty) over type-ordered timestamps.  Types hash to partitions
    (each type's stream sorts within ONE fat group — type cardinality
    is bounded); per-type sufficient statistics of the diffs close on
    the driver."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "event_id"])

    def cv_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["event_type", "ts", "event_id"],
                          kind="mergesort")
        t = g["ts"].astype("int64").to_numpy(dtype=np.float64)
        et = g["event_type"].to_numpy()
        same = et[1:] == et[:-1]
        d = (t[1:] - t[:-1])[same] / 1e6  # seconds
        key = pd.Series(et[1:][same])
        sub = pd.DataFrame({"event_type": key, "n": 1.0, "s": d,
                            "ss": d * d})
        return sub.groupby("event_type", as_index=False)[
            ["n", "s", "ss"]].sum()

    g = ds.map_batches(
        lambda df: df.assign(part=(pd.util.hash_array(
            df["event_type"].to_numpy(dtype=object)) % 8)
            .astype(np.int32)), batch_format="pandas") \
        .groupby("part").map_groups(cv_part, batch_format="pandas") \
        .to_pandas().groupby("event_type", as_index=False)[
            ["n", "s", "ss"]].sum()
    n, s, ss = g["n"].to_numpy(), g["s"].to_numpy(), g["ss"].to_numpy()
    mean = s / n
    var = np.maximum(ss / n - mean ** 2, 0.0)
    return pd.DataFrame({
        "event_type": g["event_type"],
        "n_gaps": n.astype(np.int64),
        "mean_gap_s": np.round(mean, 6),
        "cv": np.round(np.sqrt(var) / mean, 6),
    }).sort_values("event_type").reset_index(drop=True)


SQL_INTERARRIVAL_CV_BY_TYPE = """
WITH d AS (SELECT event_type,
                  EPOCH(ts - LAG(ts) OVER (PARTITION BY event_type
                                           ORDER BY ts, event_id))
                    AS gap
           FROM events)
SELECT event_type, COUNT(gap) AS n_gaps,
       ROUND(AVG(gap), 6) AS mean_gap_s,
       ROUND(STDDEV_POP(gap) / AVG(gap), 6) AS cv
FROM d WHERE gap IS NOT NULL
GROUP BY event_type ORDER BY event_type
"""


#: effective-price quantile cut points
EFF_PRICE_QUANTS = (0.25, 0.5, 0.75, 0.9, 0.99)


def q_effective_price_quantiles(sf_dir: str):
    """EXACT distributed quantiles of the effective line price
    extendedprice × (1−discount) × (1+tax) — the landed-price
    distribution read.  The price is carried as an exact integer in
    micro-dollar units (cents × discount-bp × tax-bp), the dataset
    sorts ONCE via the global-seq primitive, and the q-th value is the
    row whose dense rank equals ceil(q·n)−1 (percentile_disc) — no
    driver-side histogram, so an unbounded value domain stays scale-
    safe."""
    from icrawler_ray.functions.seq import assign_global_seq

    ds = _read(sf_dir, "lineitem",
               ["l_extendedprice", "l_discount", "l_tax"])

    def to_micro(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["l_extendedprice"].to_numpy() * 100) \
            .astype(np.int64)
        dbp = np.round(df["l_discount"].to_numpy() * 100).astype(np.int64)
        tbp = np.round(df["l_tax"].to_numpy() * 100).astype(np.int64)
        return pd.DataFrame({"eff": cents * (100 - dbp) * (100 + tbp)})

    eff = ds.map_batches(to_micro, batch_format="pandas")
    n = eff.count()
    targets = sorted({int(np.ceil(q * n)) - 1 for q in EFF_PRICE_QUANTS})
    ranked = assign_global_seq(eff, ["eff"], col="rank")
    tarr = np.asarray(targets, dtype=np.int64)
    hits = ranked.map_batches(
        lambda df: df[np.isin(df["rank"].to_numpy(), tarr)],
        batch_format="pandas").to_pandas().set_index("rank")["eff"]
    rows = [{"q": float(q),
             "eff_price": round(int(hits[int(np.ceil(q * n)) - 1]) / 1e6, 6)}
            for q in EFF_PRICE_QUANTS]
    return pd.DataFrame(rows)


SQL_EFFECTIVE_PRICE_QUANTILES = "\nUNION ALL\n".join(
    f"""SELECT CAST({q} AS DOUBLE) AS q,
       ROUND(quantile_disc(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))
             * (100 + CAST(ROUND(l_tax * 100) AS BIGINT)), {q})
             / 1000000.0, 6) AS eff_price FROM lineitem"""
    for q in EFF_PRICE_QUANTS)


def q_rounding_drift_audit(sf_dir: str):
    """Numeric-hygiene audit: if order totals were rounded to whole
    dollars (half-up on exact integer cents — no float ties), how much
    would the books drift per priority class?  Pure map-side integer
    fold: signed drift and absolute drift in cents reduce per
    priority."""
    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["o_totalprice"].to_numpy() * 100) \
            .astype(np.int64)
        drift = (cents + 50) // 100 * 100 - cents
        return pd.DataFrame({
            "o_orderpriority": df["o_orderpriority"],
            "n_orders": 1, "drift": drift, "abs_drift": np.abs(drift),
        }).groupby("o_orderpriority", as_index=False).sum()

    g = ds.map_batches(partial, batch_format="pandas").to_pandas() \
        .groupby("o_orderpriority", as_index=False).sum()
    g["net_drift_dollars"] = (g.pop("drift") / 100.0).round(2)
    g["mean_abs_drift_cents"] = (g.pop("abs_drift") / g["n_orders"]) \
        .round(6)
    g["n_orders"] = g["n_orders"].astype("int64")
    return g.sort_values("o_orderpriority").reset_index(drop=True)[
        ["o_orderpriority", "n_orders", "net_drift_dollars",
         "mean_abs_drift_cents"]]


SQL_ROUNDING_DRIFT_AUDIT = """
WITH t AS (SELECT o_orderpriority,
                  CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents
           FROM orders),
d AS (SELECT o_orderpriority,
             (cents + 50) // 100 * 100 - cents AS drift
      FROM t)
SELECT o_orderpriority, COUNT(*) AS n_orders,
       ROUND(SUM(drift) / 100.0, 2) AS net_drift_dollars,
       ROUND(AVG(ABS(drift)), 6) AS mean_abs_drift_cents
FROM d GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


# Abramowitz & Stegun 7.1.26 erfc polynomial — evaluated IDENTICALLY in
# numpy (here) and in DuckDB SQL (inline arithmetic + exp) so the
# two-sided normal p-value p = erfc(|z|/sqrt(2)) matches bit-for-bit up
# to the last ulp of exp().
_AS_ERFC = (0.254829592, -0.284496736, 1.421413741,
            -1.453152027, 1.061405429)


def _erfc_as(x: np.ndarray) -> np.ndarray:
    a1, a2, a3, a4, a5 = _AS_ERFC
    t = 1.0 / (1.0 + 0.3275911 * x)
    return ((a1 * t + a2 * t ** 2 + a3 * t ** 3 + a4 * t ** 4
             + a5 * t ** 5) * np.exp(-x * x))


def q_bh_fdr_weekend_nation(sf_dir: str):
    """Multiple-testing correction over grouped experiments: a per-nation
    Welch test of weekend vs weekday order value, then Benjamini–Hochberg
    step-up at FDR alpha=0.10 across the 25 nations — the batched-readout
    primitive of any experimentation pipeline (don't cherry-pick the one
    'significant' market out of 25 uncorrected tests).  Order values fold
    to per-(nation, weekend) sufficient statistics through the salted
    customer join (Σ cents exact int64; Σ cents² in float64, whose
    ~1e-10 relative error is far below the 6dp output rounding); the BH
    rank/threshold math runs on the m=25-row result.  p-values use the
    A&S 7.1.26 erfc polynomial so the DuckDB oracle reproduces them."""
    from icrawler_ray.stages.joins import salted_hash_join

    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_totalprice", "o_orderdate"]) \
        .map_batches(
            lambda df: pd.DataFrame({
                "c_custkey": df["o_custkey"].to_numpy(),
                "wk": (pd.to_datetime(df["o_orderdate"]).dt.dayofweek >= 5)
                .to_numpy().astype(np.int64),
                "cents": np.round(df["o_totalprice"].to_numpy() * 100)
                .astype(np.int64)}),
            batch_format="pandas")
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        v = g["cents"].to_numpy(np.float64)
        return g.assign(n=1, s=g["cents"], ss=v * v) \
            .groupby(["c_nationkey", "wk"], as_index=False)[
                ["n", "s", "ss"]].sum()

    parts = salted_hash_join(orders, cust, "c_custkey", agg_fn=agg,
                             hot_keys=np.array([], np.int64)).to_pandas()
    g = parts.groupby(["c_nationkey", "wk"], as_index=False)[
        ["n", "s", "ss"]].sum()
    piv = g.pivot_table(index="c_nationkey", columns="wk",
                        values=["n", "s", "ss"], fill_value=0,
                        aggfunc="sum")
    n1 = piv[("n", 1)].to_numpy(np.float64)
    n0 = piv[("n", 0)].to_numpy(np.float64)
    m1 = piv[("s", 1)].to_numpy(np.float64) / n1
    m0 = piv[("s", 0)].to_numpy(np.float64) / n0
    v1 = (piv[("ss", 1)].to_numpy(np.float64) - n1 * m1 * m1) / (n1 - 1)
    v0 = (piv[("ss", 0)].to_numpy(np.float64) - n0 * m0 * m0) / (n0 - 1)
    z = (m1 - m0) / np.sqrt(v1 / n1 + v0 / n0)
    p = np.round(_erfc_as(np.abs(z) / np.sqrt(2.0)), 10)
    nat = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    out = pd.DataFrame({"c_nationkey": piv.index.to_numpy(),
                        "z": np.round(z, 6), "p": p}) \
        .merge(nat, left_on="c_nationkey", right_on="n_nationkey")
    out = out.sort_values(["p", "n_name"], kind="mergesort") \
        .reset_index(drop=True)
    m = len(out)
    rank = np.arange(1, m + 1, dtype=np.float64)
    passing = np.nonzero(out["p"].to_numpy() <= rank * 0.10 / m)[0]
    istar = int(passing.max()) + 1 if len(passing) else 0
    out["rejected"] = (np.arange(m) < istar).astype(np.int64)
    return out[["n_name", "z", "p", "rejected"]] \
        .sort_values("n_name").reset_index(drop=True)


def _sql_bh_fdr() -> str:
    a1, a2, a3, a4, a5 = _AS_ERFC
    return f"""
WITH f AS (SELECT c.c_nationkey,
                  CASE WHEN isodow(o.o_orderdate) >= 6 THEN 1 ELSE 0 END
                    AS wk,
                  CAST(ROUND(o.o_totalprice * 100) AS BIGINT) AS cents
           FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey),
m AS (SELECT c_nationkey, wk, COUNT(*) * 1.0 AS n, SUM(cents) * 1.0 AS s,
             SUM(CAST(cents AS DOUBLE) * cents) AS ss
      FROM f GROUP BY 1, 2),
w AS (SELECT a.c_nationkey,
             (a.s / a.n - b.s / b.n)
               / SQRT((a.ss - a.s * a.s / a.n) / (a.n - 1) / a.n
                      + (b.ss - b.s * b.s / b.n) / (b.n - 1) / b.n) AS z
      FROM m a JOIN m b ON b.c_nationkey = a.c_nationkey
      WHERE a.wk = 1 AND b.wk = 0),
pv AS (SELECT n.n_name, ROUND(w.z, 6) AS z,
              ROUND(({a1} * (1.0 / (1.0 + 0.3275911 * ABS(w.z) / SQRT(2.0)))
                     + {a2} * POW(1.0 / (1.0 + 0.3275911 * ABS(w.z) / SQRT(2.0)), 2)
                     + {a3} * POW(1.0 / (1.0 + 0.3275911 * ABS(w.z) / SQRT(2.0)), 3)
                     + {a4} * POW(1.0 / (1.0 + 0.3275911 * ABS(w.z) / SQRT(2.0)), 4)
                     + {a5} * POW(1.0 / (1.0 + 0.3275911 * ABS(w.z) / SQRT(2.0)), 5))
                    * EXP(-(ABS(w.z) / SQRT(2.0)) * (ABS(w.z) / SQRT(2.0))), 10)
                AS p
       FROM w JOIN nation n ON n.n_nationkey = w.c_nationkey),
r AS (SELECT n_name, z, p,
             ROW_NUMBER() OVER (ORDER BY p, n_name) AS rk,
             COUNT(*) OVER () AS m FROM pv),
istar AS (SELECT COALESCE(MAX(CASE WHEN p <= rk * 0.10 / m
                                   THEN rk END), 0) AS i FROM r)
SELECT r.n_name, r.z, r.p,
       CAST(CASE WHEN r.rk <= istar.i THEN 1 ELSE 0 END AS BIGINT)
         AS rejected
FROM r, istar ORDER BY r.n_name
"""


SQL_BH_FDR_WEEKEND_NATION = _sql_bh_fdr()


def q_burrows_delta(sf_dir: str):
    """Burrows' Delta stylometric distance between the five document
    sources: z-score each source's relative frequency of the corpus'
    top-40 terms (population std across sources), then Delta(a,b) is the
    mean |z_a - z_b| over the terms — the provenance-drift fingerprint
    that flags a source whose register shifted.  Per-batch (source,
    term, count) combiner partials bound the exchange at
    distinct-terms-per-block; the final reduce is vocab x 5 sources
    (a web-scale vocabulary hash-partitions it instead, cf. q_top_terms);
    all stats derive from exact integer counts."""
    ds = _read(sf_dir, "documents", ["source", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df[["source"]].join(
            df["text"].str.split(" ").rename("term")).explode("term")
        return t.groupby(["source", "term"], sort=False).size() \
            .rename("n").reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    c = parts.groupby(["source", "term"], as_index=False)["n"].sum()
    totals = c.groupby("source")["n"].sum()
    gl = c.groupby("term", as_index=False)["n"].sum() \
        .sort_values(["n", "term"], ascending=[False, True],
                     kind="mergesort").head(40)
    top = c[c["term"].isin(set(gl["term"]))]
    piv = top.pivot_table(index="term", columns="source", values="n",
                          fill_value=0, aggfunc="sum").sort_index()
    sources = sorted(totals.index)
    f = piv[sources].to_numpy(np.float64) / totals[sources].to_numpy(np.float64)
    mu = f.mean(axis=1, keepdims=True)
    sd = f.std(axis=1, keepdims=True)  # population std across sources
    zs = (f - mu) / sd
    rows = []
    for i, a in enumerate(sources):
        for j, b in enumerate(sources):
            if a < b:
                rows.append((a, b,
                             round(float(np.abs(zs[:, i] - zs[:, j]).mean()), 6)))
    return pd.DataFrame(rows, columns=["source_a", "source_b", "delta"]) \
        .sort_values(["source_a", "source_b"]).reset_index(drop=True)


SQL_BURROWS_DELTA = """
WITH t AS (SELECT source, unnest(string_split(text, ' ')) AS term
           FROM documents),
c AS (SELECT source, term, COUNT(*) AS n FROM t GROUP BY 1, 2),
tot AS (SELECT source, SUM(n) AS tok FROM c GROUP BY 1),
top AS (SELECT term FROM c GROUP BY term
        ORDER BY SUM(n) DESC, term ASC LIMIT 40),
grid AS (SELECT tot.source, top.term, tot.tok FROM tot CROSS JOIN top),
f AS (SELECT g.source, g.term, COALESCE(c.n, 0) * 1.0 / g.tok AS f
      FROM grid g LEFT JOIN c ON c.source = g.source AND c.term = g.term),
z AS (SELECT source, term,
             (f - AVG(f) OVER (PARTITION BY term))
               / STDDEV_POP(f) OVER (PARTITION BY term) AS z
      FROM f)
SELECT a.source AS source_a, b.source AS source_b,
       ROUND(AVG(ABS(a.z - b.z)), 6) AS delta
FROM z a JOIN z b ON b.term = a.term AND a.source < b.source
GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_log_odds_terms(sf_dir: str):
    """Monroe et al. informative-Dirichlet log-odds: the terms most
    distinctive of English documents vs the rest of the corpus, scored by
    z = delta / sqrt(1/(y1+a_w) + 1/(y2+a_w)) with the corpus itself as
    the prior (a_w = a0 * cnt_w / total, a0=1000) — the vocabulary-drift
    readout that, unlike TF-IDF, is variance-aware (rare terms don't
    dominate).  (group, term, count) combiner partials bound the
    exchange; every score folds from exact integer counts so the DuckDB
    oracle is bit-identical up to LN ulps."""
    ds = _read(sf_dir, "documents", ["lang", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = pd.DataFrame({
            "grp": (df["lang"] == "en").to_numpy().astype(np.int64)}) \
            .join(df["text"].str.split(" ").rename("term")).explode("term")
        return t.groupby(["grp", "term"], sort=False).size() \
            .rename("n").reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    c = parts.groupby(["grp", "term"], as_index=False)["n"].sum()
    piv = c.pivot_table(index="term", columns="grp", values="n",
                        fill_value=0, aggfunc="sum").sort_index()
    y1 = piv.get(1, pd.Series(0, index=piv.index)).to_numpy(np.float64)
    y0 = piv.get(0, pd.Series(0, index=piv.index)).to_numpy(np.float64)
    n1, n0 = y1.sum(), y0.sum()
    a0 = 1000.0
    aw = a0 * (y1 + y0) / (n1 + n0)
    d = (np.log((y1 + aw) / (n1 + a0 - y1 - aw))
         - np.log((y0 + aw) / (n0 + a0 - y0 - aw)))
    z = d / np.sqrt(1.0 / (y1 + aw) + 1.0 / (y0 + aw))
    out = pd.DataFrame({"term": piv.index.to_numpy(),
                        "y_en": y1.astype(np.int64),
                        "y_rest": y0.astype(np.int64),
                        "z": np.round(z, 6)})
    out = out.sort_values(["z", "term"], ascending=[False, True],
                          kind="mergesort").head(12).reset_index(drop=True)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    return out[["rank", "term", "y_en", "y_rest", "z"]]


SQL_LOG_ODDS_TERMS = """
WITH t AS (SELECT CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS grp,
                  unnest(string_split(text, ' ')) AS term FROM documents),
c AS (SELECT term,
             SUM(CASE WHEN grp = 1 THEN 1 ELSE 0 END) * 1.0 AS y1,
             SUM(CASE WHEN grp = 0 THEN 1 ELSE 0 END) * 1.0 AS y0
      FROM t GROUP BY term),
g AS (SELECT SUM(y1) AS n1, SUM(y0) AS n0 FROM c),
s AS (SELECT c.term, c.y1, c.y0,
             1000.0 * (c.y1 + c.y0) / (g.n1 + g.n0) AS aw, g.n1, g.n0
      FROM c, g),
z AS (SELECT term, y1, y0,
             (LN((y1 + aw) / (n1 + 1000.0 - y1 - aw))
              - LN((y0 + aw) / (n0 + 1000.0 - y0 - aw)))
               / SQRT(1.0 / (y1 + aw) + 1.0 / (y0 + aw)) AS z
      FROM s)
SELECT ROW_NUMBER() OVER (ORDER BY z DESC, term ASC) AS rank,
       term, CAST(y1 AS BIGINT) AS y_en, CAST(y0 AS BIGINT) AS y_rest,
       ROUND(z, 6) AS z
FROM z ORDER BY z DESC, term ASC LIMIT 12
"""


def q_lsh_recall_at_k(sf_dir: str):
    """ANN quality evaluation: recall@5 of the single-probe LSH path
    against the brute-force exact top-5, per query — the accuracy dial a
    100 TB deployment reads before trading the exhaustive scan for
    buckets.  Both paths are the existing oracle-green operators
    (stages/similarity.py); the evaluation join is output-sized.  The
    SQL oracle composes the two queries' own exact SQL replicas."""
    from icrawler_ray.stages.similarity import (brute_force_topk,
                                                lsh_bucketed_topk)

    head = _read(sf_dir, "embeddings", ["vec_id", "embedding"]) \
        .sort("vec_id").limit(3).to_pandas()
    queries = np.asarray(head["embedding"].tolist(), dtype=np.float64)
    qids = head["vec_id"].to_numpy()
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    exact = brute_force_topk(ds, queries, k=5, query_ids=qids)
    ds2 = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    approx = lsh_bucketed_topk(ds2, queries, k=5, query_ids=qids)
    hits = exact.merge(approx, on=["query_id", "vec_id"], how="inner") \
        .groupby("query_id").size()
    n_lsh = approx.groupby("query_id").size()
    out = pd.DataFrame({"query_id": qids})
    out["n_lsh"] = out["query_id"].map(n_lsh).fillna(0).astype(np.int64)
    out["hits"] = out["query_id"].map(hits).fillna(0).astype(np.int64)
    out["recall_at_5"] = (out["hits"] / 5.0).round(6)
    return out.sort_values("query_id").reset_index(drop=True)


SQL_LSH_RECALL_AT_K = f"""
WITH l AS ({SQL_KNN_LSH}),
b AS ({SQL_KNN_BRUTEFORCE}),
q AS (SELECT vec_id AS query_id FROM embeddings ORDER BY vec_id LIMIT 3),
nl AS (SELECT query_id, COUNT(*) AS n_lsh FROM l GROUP BY 1),
h AS (SELECT b.query_id, COUNT(*) AS hits
      FROM b JOIN l ON l.query_id = b.query_id AND l.vec_id = b.vec_id
      GROUP BY 1)
SELECT q.query_id,
       CAST(COALESCE(nl.n_lsh, 0) AS BIGINT) AS n_lsh,
       CAST(COALESCE(h.hits, 0) AS BIGINT) AS hits,
       ROUND(COALESCE(h.hits, 0) / 5.0, 6) AS recall_at_5
FROM q LEFT JOIN nl ON nl.query_id = q.query_id
LEFT JOIN h ON h.query_id = q.query_id
ORDER BY q.query_id
"""


def q_fd_sturges_bins(sf_dir: str):
    """Histogram bin-rule audit over document lengths: the
    Freedman–Diaconis width (2·IQR/n^⅓, IQR from EXACT
    ceil(q·n)-th order statistics via the distributed rank primitive)
    vs the Sturges count (⌈log2 n⌉+1) — the methodology check run
    before binning a 100 TB column so downstream histograms aren't
    resolution-starved."""
    from icrawler_ray.functions.seq import assign_global_seq

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    n = ds.count()
    k25 = int(np.ceil(0.25 * n)) - 1  # 0-based order-statistic ranks
    k75 = int(np.ceil(0.75 * n)) - 1
    ranked = assign_global_seq(
        ds.map_batches(lambda df: df[["n_chars", "doc_id"]],
                       batch_format="pandas"),
        ["n_chars", "doc_id"], col="rank")
    qs = ranked.map_batches(
        lambda df: df[np.isin(df["rank"].to_numpy(), [k25, k75])],
        batch_format="pandas").to_pandas().sort_values("rank")
    q1, q3 = int(qs["n_chars"].iloc[0]), int(qs["n_chars"].iloc[1])
    lo, hi = ds.min("n_chars"), ds.max("n_chars")
    iqr = q3 - q1
    fd_w = 2.0 * iqr / float(n) ** (1.0 / 3.0)
    fd_bins = int(np.ceil((hi - lo) / fd_w))
    sturges = int(np.ceil(np.log2(n))) + 1
    return pd.DataFrame({
        "n_docs": np.array([n], np.int64),
        "iqr": np.array([iqr], np.int64),
        "fd_width": [round(fd_w, 6)],
        "fd_bins": np.array([fd_bins], np.int64),
        "sturges_bins": np.array([sturges], np.int64)})


SQL_FD_STURGES_BINS = """
WITH n AS (SELECT COUNT(*) AS n, MIN(n_chars) AS lo, MAX(n_chars) AS hi
           FROM documents),
r AS (SELECT n_chars,
             ROW_NUMBER() OVER (ORDER BY n_chars, doc_id) AS rk
      FROM documents),
q AS (SELECT MAX(CASE WHEN rk = CAST(CEIL(0.25 * n.n) AS BIGINT)
                      THEN n_chars END) AS q1,
             MAX(CASE WHEN rk = CAST(CEIL(0.75 * n.n) AS BIGINT)
                      THEN n_chars END) AS q3
      FROM r, n)
SELECT CAST(n.n AS BIGINT) AS n_docs,
       CAST(q.q3 - q.q1 AS BIGINT) AS iqr,
       ROUND(2.0 * (q.q3 - q.q1) / POW(n.n * 1.0, 1.0 / 3.0), 6)
         AS fd_width,
       CAST(CEIL((n.hi - n.lo)
                 / (2.0 * (q.q3 - q.q1) / POW(n.n * 1.0, 1.0 / 3.0)))
            AS BIGINT) AS fd_bins,
       CAST(CEIL(LOG2(n.n)) + 1 AS BIGINT) AS sturges_bins
FROM n, q
"""


def q_good_turing_mass(sf_dir: str):
    """Good–Turing unseen-probability mass (P0 = F1/N) and the Chao1
    species-richness estimate (V + F1²/(2F2)) over the corpus
    vocabulary — the coverage read that says how much of the language a
    100 TB crawl has NOT seen yet.  Word counts merge in word-hash
    partitions; the frequency-of-frequencies histogram is a second
    combiner; the estimators are driver arithmetic on four integers."""
    P = 64
    ds = _read(sf_dir, "documents", ["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        w = pd.Series(np.concatenate(
            df["text"].str.split(" ").to_numpy()), name="w")
        out = w.value_counts().rename("n").reset_index()
        out.columns = ["w", "n"]
        out["part"] = (pd.util.hash_array(out["w"].to_numpy(object))
                       % np.uint64(P)).astype(np.int32)
        return out

    def fof(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("w")["n"].sum()
        f = c.value_counts().rename("f").reset_index()
        f.columns = ["r", "f"]
        f["tok"] = 0
        f.loc[0, "tok"] = int(c.sum())  # per-partition token total
        return f

    mo = ds.map_batches(partial, batch_format="pandas") \
        .groupby("part").map_groups(fof, batch_format="pandas") \
        .to_pandas()
    ff = mo.groupby("r")["f"].sum()
    n_tok = int(mo["tok"].sum())
    v = int(ff.sum())
    f1 = int(ff.get(1, 0))
    f2 = int(ff.get(2, 0))
    return pd.DataFrame({
        "n_tokens": np.array([n_tok], np.int64),
        "vocab": np.array([v], np.int64),
        "hapax": np.array([f1], np.int64),
        "p_unseen": [round(f1 / n_tok, 6)],
        # bias-corrected Chao1: defined even when F2 = 0 (a synthetic
        # fixed-vocabulary corpus has no hapax legomena at all)
        "chao1": [round(v + f1 * (f1 - 1.0) / (2.0 * (f2 + 1.0)), 6)]})


SQL_GOOD_TURING_MASS = """
WITH w AS (SELECT unnest(string_split(text, ' ')) AS w FROM documents),
c AS (SELECT w, COUNT(*) AS n FROM w GROUP BY 1),
ff AS (SELECT n AS r, COUNT(*) AS f FROM c GROUP BY 1),
t AS (SELECT SUM(n) AS n_tok, COUNT(*) AS v FROM c),
m AS (SELECT (SELECT COALESCE(SUM(f), 0) FROM ff WHERE r = 1) AS f1,
             (SELECT COALESCE(SUM(f), 0) FROM ff WHERE r = 2) AS f2)
SELECT CAST(t.n_tok AS BIGINT) AS n_tokens,
       CAST(t.v AS BIGINT) AS vocab,
       CAST(m.f1 AS BIGINT) AS hapax,
       ROUND(m.f1 * 1.0 / t.n_tok, 6) AS p_unseen,
       ROUND(t.v + m.f1 * (m.f1 - 1.0) / (2.0 * (m.f2 + 1.0)), 6)
         AS chao1
FROM t, m
"""


def q_record_days(sf_dir: str):
    """Record-breaking days in the daily revenue series: observed count
    of strict running-maximum days vs the iid expectation H_D =
    Σ 1/i — the records-theory read that flags trend (too many
    records) or a frozen regime (too few).  Daily totals fold
    distributed; the running-max scan is calendar-bounded."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "d": pd.to_datetime(df["o_orderdate"]).dt.normalize(),
            "y": np.round(df["o_totalprice"].to_numpy() * 100)
            .astype(np.int64)}).groupby("d", as_index=False).sum()

    daily = ds.map_batches(partial, batch_format="pandas").to_pandas() \
        .groupby("d", as_index=False)["y"].sum().sort_values("d") \
        .reset_index(drop=True)
    y = daily["y"].to_numpy(np.int64)
    d = len(y)
    run = np.maximum.accumulate(y)
    records = int(1 + (y[1:] > run[:-1]).sum())
    expected = float((1.0 / np.arange(1, d + 1)).sum())
    return pd.DataFrame({
        "n_days": np.array([d], np.int64),
        "records": np.array([records], np.int64),
        "expected_iid": [round(expected, 6)],
        "ratio": [round(records / expected, 6)]})


SQL_RECORD_DAYS = """
WITH daily AS (SELECT CAST(o_orderdate AS DATE) AS d,
                      SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS y
               FROM orders GROUP BY 1),
r AS (SELECT d, y,
             MAX(y) OVER (ORDER BY d
                          ROWS BETWEEN UNBOUNDED PRECEDING
                                   AND 1 PRECEDING) AS prevmax
      FROM daily),
n AS (SELECT COUNT(*) AS nd,
             SUM(CASE WHEN prevmax IS NULL OR y > prevmax
                      THEN 1 ELSE 0 END) AS rec
      FROM r),
h AS (SELECT SUM(1.0 / rk) AS hn
      FROM (SELECT ROW_NUMBER() OVER (ORDER BY d) AS rk FROM daily))
SELECT CAST(n.nd AS BIGINT) AS n_days,
       CAST(n.rec AS BIGINT) AS records,
       ROUND(h.hn, 6) AS expected_iid,
       ROUND(n.rec / h.hn, 6) AS ratio
FROM n, h
"""


def q_hill_tail_index(sf_dir: str):
    """Hill estimator of the Pareto tail index over the top-1000 order
    values: alpha-hat = 1/mean(ln(x_(i)/x_(k+1))) — the heavy-tail
    exponent read that complements the GPD fit with a
    rank-domain estimator.  ONE distributed descending sort+limit
    produces the top-k block; everything after is k-bounded."""
    ds = _read(sf_dir, "orders", ["o_totalprice", "o_orderkey"])
    K = 1000
    top = ds.map_batches(
        lambda df: pd.DataFrame({
            "cents": np.round(df["o_totalprice"].to_numpy() * 100)
            .astype(np.int64),
            "o_orderkey": df["o_orderkey"]}),
        batch_format="pandas") \
        .sort(["cents", "o_orderkey"], descending=True) \
        .limit(K + 1).to_pandas()
    x = top["cents"].to_numpy(np.float64)
    xk = x[K]  # (k+1)-th largest: the anchoring order statistic
    hill = float(np.log(x[:K] / xk).sum() / K)
    return pd.DataFrame({
        "k": np.array([K], np.int64),
        "x_k1": [round(xk / 100.0, 2)],
        "hill_gamma": [round(hill, 6)],
        "alpha_hat": [round(1.0 / hill, 6)]})


SQL_HILL_TAIL_INDEX = """
WITH v AS (SELECT CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents,
                  ROW_NUMBER() OVER (ORDER BY
                    CAST(ROUND(o_totalprice * 100) AS BIGINT) DESC,
                    o_orderkey DESC) AS rk
           FROM orders),
anchor AS (SELECT cents * 1.0 AS xk FROM v WHERE rk = 1001),
h AS (SELECT SUM(LN(v.cents / anchor.xk)) / 1000.0 AS g
      FROM v, anchor WHERE v.rk <= 1000)
SELECT CAST(1000 AS BIGINT) AS k,
       ROUND((SELECT xk FROM anchor) / 100.0, 2) AS x_k1,
       ROUND(h.g, 6) AS hill_gamma,
       ROUND(1.0 / h.g, 6) AS alpha_hat
FROM h
"""


def q_clustering_agreement(sf_dir: str):
    """Chance-corrected agreement between two document partitions (lang
    vs source): Adjusted Rand Index and normalized mutual information
    from the exact contingency fold — the metric pair that scores any
    clustering against any labeling.  The contingency is
    (|langs|×|sources|)-bounded; every pair count is closed-form
    integer arithmetic (C(n,2) sums), no pair enumeration."""
    ds = _read(sf_dir, "documents", ["lang", "source"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(n=1).groupby(["lang", "source"],
                                      as_index=False)["n"].sum()

    t = ds.map_batches(partial, batch_format="pandas").to_pandas() \
        .groupby(["lang", "source"], as_index=False)["n"].sum()
    nij = t["n"].to_numpy(np.int64)
    ai = t.groupby("lang")["n"].sum().to_numpy(np.int64)
    bj = t.groupby("source")["n"].sum().to_numpy(np.int64)
    n = int(nij.sum())

    def c2(v):
        return (v.astype(np.float64) * (v - 1) / 2.0).sum()

    sij, sa, sb = c2(nij), c2(ai), c2(bj)
    cn2 = n * (n - 1) / 2.0
    exp = sa * sb / cn2
    ari = (sij - exp) / (0.5 * (sa + sb) - exp)
    pij = nij / float(n)
    pa = ai / float(n)
    pb = bj / float(n)
    hx = float(-(pa * np.log(pa)).sum())
    hy = float(-(pb * np.log(pb)).sum())
    pi_full = t["lang"].map(dict(zip(
        t.groupby("lang")["n"].sum().index, pa))).to_numpy(np.float64)
    pj_full = t["source"].map(dict(zip(
        t.groupby("source")["n"].sum().index, pb))).to_numpy(np.float64)
    mi = float((pij * np.log(pij / (pi_full * pj_full))).sum())
    return pd.DataFrame({
        "n_docs": np.array([n], np.int64),
        "ari": [round(float(ari), 6)],
        "nmi": [round(mi / np.sqrt(hx * hy), 6)]})


SQL_CLUSTERING_AGREEMENT = """
WITH t AS (SELECT lang, source, COUNT(*) * 1.0 AS n
           FROM documents GROUP BY 1, 2),
a AS (SELECT lang, SUM(n) AS ai FROM t GROUP BY 1),
b AS (SELECT source, SUM(n) AS bj FROM t GROUP BY 1),
s AS (SELECT (SELECT SUM(n * (n - 1) / 2.0) FROM t) AS sij,
             (SELECT SUM(ai * (ai - 1) / 2.0) FROM a) AS sa,
             (SELECT SUM(bj * (bj - 1) / 2.0) FROM b) AS sb,
             (SELECT SUM(n) FROM t) AS n),
mi AS (SELECT SUM((t.n / s.n)
                  * LN((t.n / s.n) / ((a.ai / s.n) * (b.bj / s.n))))
         AS mi
       FROM t JOIN a ON a.lang = t.lang
              JOIN b ON b.source = t.source, s),
h AS (SELECT -(SELECT SUM((ai / s.n) * LN(ai / s.n)) FROM a, s) AS hx,
             -(SELECT SUM((bj / s.n) * LN(bj / s.n)) FROM b, s) AS hy)
SELECT CAST(s.n AS BIGINT) AS n_docs,
       ROUND((s.sij - s.sa * s.sb / (s.n * (s.n - 1) / 2.0))
             / (0.5 * (s.sa + s.sb)
                - s.sa * s.sb / (s.n * (s.n - 1) / 2.0)), 6) AS ari,
       ROUND(mi.mi / SQRT(h.hx * h.hy), 6) AS nmi
FROM s, mi, h
"""


def q_juilland_dispersion(sf_dir: str):
    """Juilland's dispersion D = 1 − CV/√(k−1) of the top-20 corpus
    terms across k = 10 doc_id-hash slices — the corpus-linguistics
    read separating genuinely common words from ones piled into a few
    shards (boilerplate).  (term, slice) counts fold as combiners;
    slice token totals are a second bounded fold; D is
    20×10 driver arithmetic."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    K = 10

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = pd.DataFrame({
            "s": (df["doc_id"].to_numpy() % K).astype(np.int64)}) \
            .join(df["text"].str.split(" ").rename("term")).explode("term")
        return t.groupby(["s", "term"], sort=False).size() \
            .rename("n").reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    c = parts.groupby(["s", "term"], as_index=False)["n"].sum()
    toks = c.groupby("s")["n"].sum()
    top = c.groupby("term", as_index=False)["n"].sum() \
        .sort_values(["n", "term"], ascending=[False, True],
                     kind="mergesort").head(20)
    sel = c[c["term"].isin(set(top["term"]))]
    piv = sel.pivot_table(index="term", columns="s", values="n",
                          fill_value=0, aggfunc="sum").sort_index()
    for s in range(K):
        if s not in piv.columns:
            piv[s] = 0
    f = piv[list(range(K))].to_numpy(np.float64) \
        / toks.reindex(range(K)).to_numpy(np.float64)
    mu = f.mean(axis=1)
    sd = f.std(axis=1)  # population
    d = 1.0 - (sd / mu) / np.sqrt(K - 1.0)
    out = pd.DataFrame({"term": piv.index.to_numpy(),
                        "n": top.set_index("term")["n"]
                        .reindex(piv.index).to_numpy(np.int64),
                        "juilland_d": np.round(d, 6)})
    return out.sort_values("term").reset_index(drop=True)


SQL_JUILLAND_DISPERSION = """
WITH t AS (SELECT doc_id % 10 AS s,
                  unnest(string_split(text, ' ')) AS term
           FROM documents),
c AS (SELECT s, term, COUNT(*) AS n FROM t GROUP BY 1, 2),
tok AS (SELECT s, SUM(n) AS tok FROM c GROUP BY 1),
top AS (SELECT term, SUM(n) AS n FROM c GROUP BY 1
        ORDER BY SUM(n) DESC, term ASC LIMIT 20),
grid AS (SELECT top.term, top.n, tok.s, tok.tok FROM top
         CROSS JOIN tok),
f AS (SELECT g.term, g.n, COALESCE(c.n, 0) * 1.0 / g.tok AS f
      FROM grid g LEFT JOIN c ON c.s = g.s AND c.term = g.term),
d AS (SELECT term, MIN(n) AS n,
             1.0 - (STDDEV_POP(f) / AVG(f)) / SQRT(9.0) AS d
      FROM f GROUP BY term)
SELECT term, CAST(n AS BIGINT) AS n, ROUND(d, 6) AS juilland_d
FROM d ORDER BY term
"""


def q_jsd_source_langs(sf_dir: str):
    """Jensen–Shannon divergence between every source pair's language
    mix: the symmetric, bounded drift metric over provenance — the
    top-10 most-divergent pairs flag sources whose language profile
    split.  One (source, lang) contingency fold; the 190-pair JSD is
    driver arithmetic with natural logs."""
    ds = _read(sf_dir, "documents", ["source", "lang"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(n=1).groupby(["source", "lang"],
                                      as_index=False)["n"].sum()

    t = ds.map_batches(partial, batch_format="pandas").to_pandas() \
        .groupby(["source", "lang"], as_index=False)["n"].sum()
    piv = t.pivot_table(index="source", columns="lang", values="n",
                        fill_value=0, aggfunc="sum").sort_index()
    m = piv.to_numpy(np.float64)
    p = m / m.sum(axis=1, keepdims=True)
    srcs = piv.index.to_numpy()
    rows = []
    for i in range(len(srcs)):
        for j in range(i + 1, len(srcs)):
            mid = 0.5 * (p[i] + p[j])
            with np.errstate(divide="ignore", invalid="ignore"):
                kl1 = np.where(p[i] > 0, p[i] * np.log(p[i] / mid), 0.0)
                kl2 = np.where(p[j] > 0, p[j] * np.log(p[j] / mid), 0.0)
            rows.append((srcs[i], srcs[j],
                         round(0.5 * float(kl1.sum())
                               + 0.5 * float(kl2.sum()), 6)))
    out = pd.DataFrame(rows, columns=["source_a", "source_b", "jsd"])
    return out.sort_values(["jsd", "source_a", "source_b"],
                           ascending=[False, True, True],
                           kind="mergesort").head(10) \
        .reset_index(drop=True)


SQL_JSD_SOURCE_LANGS = """
WITH t AS (SELECT source, lang, COUNT(*) * 1.0 AS n
           FROM documents GROUP BY 1, 2),
tot AS (SELECT source, SUM(n) AS tot FROM t GROUP BY 1),
langs AS (SELECT DISTINCT lang FROM documents),
grid AS (SELECT tot.source, langs.lang,
                COALESCE(t.n, 0) / tot.tot AS p
         FROM tot CROSS JOIN langs
         LEFT JOIN t ON t.source = tot.source AND t.lang = langs.lang),
pairs AS (SELECT a.source AS sa, b.source AS sb, a.lang,
                 a.p AS pa, b.p AS pb,
                 0.5 * (a.p + b.p) AS mid
          FROM grid a JOIN grid b ON b.lang = a.lang
                                 AND a.source < b.source),
j AS (SELECT sa, sb,
             SUM(0.5 * CASE WHEN pa > 0 THEN pa * LN(pa / mid)
                            ELSE 0 END
                 + 0.5 * CASE WHEN pb > 0 THEN pb * LN(pb / mid)
                              ELSE 0 END) AS jsd
      FROM pairs GROUP BY 1, 2)
SELECT sa AS source_a, sb AS source_b, ROUND(jsd, 6) AS jsd
FROM j ORDER BY ROUND(jsd, 6) DESC, sa, sb LIMIT 10
"""


def q_process_capability(sf_dir: str):
    """Process capability indices Cp and Cpk of line quantity against
    the schema's [1, 50] spec limits — the SPC read that says whether
    the 'process' fits its tolerance and how off-center it runs.  One
    exact (n, Σ, Σ²) fold."""
    ds = _read(sf_dir, "lineitem", ["l_quantity"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df["l_quantity"].to_numpy(np.int64)
        return pd.DataFrame({"n": [len(v)], "s": [int(v.sum())],
                             "ss": [int((v * v).sum())]})

    mo = ds.map_batches(partial, batch_format="pandas").to_pandas().sum()
    n = float(mo["n"])
    s, ss = float(mo["s"]), float(mo["ss"])
    mu = s / n
    sd = np.sqrt((ss - s * s / n) / (n - 1.0))
    LSL, USL = 1.0, 50.0
    cp = (USL - LSL) / (6.0 * sd)
    cpk = min(USL - mu, mu - LSL) / (3.0 * sd)
    return pd.DataFrame({
        "n_lines": np.array([int(n)], np.int64),
        "mean_qty": [round(mu, 6)],
        "sd_qty": [round(float(sd), 6)],
        "cp": [round(float(cp), 6)],
        "cpk": [round(float(cpk), 6)]})


SQL_PROCESS_CAPABILITY = """
WITH m AS (SELECT COUNT(*) * 1.0 AS n, SUM(l_quantity) * 1.0 AS s,
                  SUM(CAST(l_quantity AS BIGINT) * l_quantity) * 1.0
                    AS ss
           FROM lineitem),
g AS (SELECT n, s / n AS mu,
             SQRT((ss - s * s / n) / (n - 1.0)) AS sd
      FROM m)
SELECT CAST(n AS BIGINT) AS n_lines,
       ROUND(mu, 6) AS mean_qty,
       ROUND(sd, 6) AS sd_qty,
       ROUND((50.0 - 1.0) / (6.0 * sd), 6) AS cp,
       ROUND(LEAST(50.0 - mu, mu - 1.0) / (3.0 * sd), 6) AS cpk
FROM g
"""


def q_cochran_q_weeks(sf_dir: str):
    """Cochran's Q over the first four weeks of the event window: are
    users' weekly activity indicators homogeneous across weeks, or did
    engagement shift?  Per-user presence bitmask folds in user
    partitions; Q = (k−1)(kΣC² − (ΣC)²)/(kΣR − ΣR²) from six
    integers."""
    P = 32
    ds = _read(sf_dir, "events", ["user_id", "ts"])
    lo = pd.Timestamp(ds.min("ts")).normalize()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        day = (df["ts"].to_numpy(dtype="datetime64[D]")
               - np.datetime64(lo, "D")).astype(np.int64)
        wk = day // 7
        keep = wk < 4
        out = pd.DataFrame({"user_id": df["user_id"].to_numpy()[keep],
                            "wk": wk[keep], "x": 1}) \
            .groupby(["user_id", "wk"], as_index=False).max()
        out["part"] = (out["user_id"].to_numpy() % P).astype(np.int32)
        return out

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        u = g.groupby(["user_id", "wk"], as_index=False)["x"].max()
        r = u.groupby("user_id")["x"].sum().to_numpy(np.int64)
        cj = u.groupby("wk")["x"].sum()
        out = {"sr": [int(r.sum())], "srr": [int((r * r).sum())],
               "n": [len(r)]}
        for w in range(4):
            out[f"c{w}"] = [int(cj.get(w, 0))]
        return pd.DataFrame(out)

    mo = ds.map_batches(partial, batch_format="pandas") \
        .groupby("part").map_groups(merge, batch_format="pandas") \
        .to_pandas().sum()
    k = 4.0
    c = np.array([float(mo[f"c{w}"]) for w in range(4)])
    sr, srr = float(mo["sr"]), float(mo["srr"])
    den = k * sr - srr  # 0 when every user is present in all weeks or none
    q = (k - 1.0) * (k * (c * c).sum() - c.sum() ** 2) / den if den else np.nan
    return pd.DataFrame({
        "n_users": np.array([int(mo["n"])], np.int64),
        "cochran_q": [round(float(q), 6)]})


SQL_COCHRAN_Q_WEEKS = """
WITH lo AS (SELECT CAST(MIN(ts) AS DATE) AS d0 FROM events),
u AS (SELECT user_id,
             date_diff('day', lo.d0, CAST(ts AS DATE)) // 7 AS wk
      FROM events, lo
      WHERE date_diff('day', lo.d0, CAST(ts AS DATE)) < 28
      GROUP BY 1, 2),
r AS (SELECT user_id, COUNT(*) AS ri FROM u GROUP BY 1),
c AS (SELECT wk, COUNT(*) * 1.0 AS cj FROM u GROUP BY 1),
t AS (SELECT (SELECT SUM(cj * cj) FROM c) AS scc,
             (SELECT SUM(cj) FROM c) AS sc,
             (SELECT SUM(ri) * 1.0 FROM r) AS sr,
             (SELECT SUM(CAST(ri AS DOUBLE) * ri) FROM r) AS srr,
             (SELECT COUNT(*) FROM r) AS n)
SELECT CAST(t.n AS BIGINT) AS n_users,
       ROUND(3.0 * (4.0 * t.scc - t.sc * t.sc)
             / (4.0 * t.sr - t.srr), 6) AS cochran_q
FROM t
"""


def q_rarefaction_vocab(sf_dir: str):
    """Vocabulary rarefaction: the EXPECTED number of distinct words in
    a uniform 1000-token subsample, E[S_m] = Σ_r F_r·(1 −
    C(N−r,m)/C(N,m)) over the frequency-of-frequencies — the
    size-normalized diversity that makes corpora of different sizes
    comparable (raw vocab counts aren't).  Word counts fold in
    word-hash partitions; the estimator runs over the TINY f-of-f
    table with lgamma ratios (guarded to 0 when N−r < m)."""
    from math import lgamma

    P = 64
    M = 1000
    ds = _read(sf_dir, "documents", ["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        w = pd.Series(np.concatenate(
            df["text"].str.split(" ").to_numpy()), name="w")
        out = w.value_counts().rename("n").reset_index()
        out.columns = ["w", "n"]
        out["part"] = (pd.util.hash_array(out["w"].to_numpy(object))
                       % np.uint64(P)).astype(np.int32)
        return out

    def fof(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("w")["n"].sum()
        f = c.value_counts().rename("f").reset_index()
        f.columns = ["r", "f"]
        f["tok"] = 0
        f.loc[0, "tok"] = int(c.sum())
        return f

    mo = ds.map_batches(partial, batch_format="pandas") \
        .groupby("part").map_groups(fof, batch_format="pandas") \
        .to_pandas()
    ff = mo.groupby("r")["f"].sum()
    n_tok = int(mo["tok"].sum())
    v = int(ff.sum())
    es = 0.0
    for r, f in ff.items():
        r = int(r)
        if n_tok - r < M:
            term = 0.0
        else:
            term = np.exp(lgamma(n_tok - r + 1) + lgamma(n_tok - M + 1)
                          - lgamma(n_tok - r - M + 1)
                          - lgamma(n_tok + 1))
        es += float(f) * (1.0 - term)
    return pd.DataFrame({
        "n_tokens": np.array([n_tok], np.int64),
        "vocab": np.array([v], np.int64),
        "expected_vocab_1000": [round(es, 4)]})


SQL_RAREFACTION_VOCAB = """
WITH w AS (SELECT unnest(string_split(text, ' ')) AS w FROM documents),
c AS (SELECT w, COUNT(*) AS n FROM w GROUP BY 1),
ff AS (SELECT n AS r, COUNT(*) * 1.0 AS f FROM c GROUP BY 1),
t AS (SELECT SUM(n) * 1.0 AS nt, COUNT(*) AS v FROM c),
e AS (SELECT SUM(ff.f * (1.0 - CASE WHEN t.nt - ff.r < 1000
                                    THEN 0.0
                                    ELSE EXP(lgamma(t.nt - ff.r + 1)
                                             + lgamma(t.nt - 1000 + 1)
                                             - lgamma(t.nt - ff.r
                                                      - 1000 + 1)
                                             - lgamma(t.nt + 1))
                               END)) AS es,
             MIN(t.nt) AS nt, MIN(t.v) AS v
      FROM ff, t)
SELECT CAST(nt AS BIGINT) AS n_tokens,
       CAST(v AS BIGINT) AS vocab,
       ROUND(es, 4) AS expected_vocab_1000
FROM e
"""


def q_u_chart_errors(sf_dir: str):
    """Attribute control chart (u-chart) on the daily error rate:
    per-day errors-per-event u_d against ū ± 3·√(ū/n_d) limits,
    counting out-of-control days — the operations view of error
    monitoring, with per-day sample size baked into the limits.  One
    per-day integer fold; the limit scan is calendar-bounded."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "d": df["ts"].to_numpy(dtype="datetime64[D]"),
            "n": 1,
            "c": (df["event_type"] == "error").to_numpy()
            .astype(np.int64)}).groupby("d", as_index=False).sum()

    daily = ds.map_batches(partial, batch_format="pandas").to_pandas() \
        .groupby("d", as_index=False).sum()
    n = daily["n"].to_numpy(np.float64)
    c = daily["c"].to_numpy(np.float64)
    ubar = c.sum() / n.sum()
    u = c / n
    lim = 3.0 * np.sqrt(ubar / n)
    ooc = (u > ubar + lim) | (u < ubar - lim)
    return pd.DataFrame({
        "n_days": np.array([len(daily)], np.int64),
        "u_bar": [round(float(ubar), 6)],
        "n_out_of_control": np.array([int(ooc.sum())], np.int64)})


SQL_U_CHART_ERRORS = """
WITH daily AS (SELECT CAST(ts AS DATE) AS d, COUNT(*) * 1.0 AS n,
                      SUM(CASE WHEN event_type = 'error'
                               THEN 1 ELSE 0 END) * 1.0 AS c
               FROM events GROUP BY 1),
t AS (SELECT SUM(c) / SUM(n) AS ubar FROM daily)
SELECT CAST(COUNT(*) AS BIGINT) AS n_days,
       ROUND(MIN(t.ubar), 6) AS u_bar,
       CAST(SUM(CASE WHEN daily.c / daily.n
                          > t.ubar + 3.0 * SQRT(t.ubar / daily.n)
                       OR daily.c / daily.n
                          < t.ubar - 3.0 * SQRT(t.ubar / daily.n)
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_out_of_control
FROM daily, t
"""


def q_german_tank_estimate(sf_dir: str):
    """Serial-number (German tank) estimation: from the 1%-of-orderkeys
    sample (key % 100 = 0), estimate the maximum orderkey as
    N̂ = m(1 + 1/k) − 1 where m is the sample max and k the sample
    size — the classic MVU estimator for 'how big is the keyspace we
    only sample'.  One (count, max) fold; the true max rides along for
    the error readout."""
    ds = _read(sf_dir, "orders", ["o_orderkey"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        k = df["o_orderkey"].to_numpy(np.int64)
        samp = k[k % 100 == 0]
        return pd.DataFrame({
            "k": [len(samp)],
            "m": [int(samp.max()) if len(samp) else 0],
            "true_max": [int(k.max())]})

    mo = ds.map_batches(partial, batch_format="pandas").to_pandas()
    k = int(mo["k"].sum())
    m = int(mo["m"].max())
    true_max = int(mo["true_max"].max())
    est = m * (1.0 + 1.0 / k) - 1.0
    return pd.DataFrame({
        "sample_size": np.array([k], np.int64),
        "sample_max": np.array([m], np.int64),
        "estimate": [round(est, 2)],
        "true_max": np.array([true_max], np.int64),
        "rel_error": [round((est - true_max) / true_max, 6)]})


SQL_GERMAN_TANK_ESTIMATE = """
WITH s AS (SELECT COUNT(*) * 1.0 AS k, MAX(o_orderkey) * 1.0 AS m
           FROM orders WHERE o_orderkey % 100 = 0),
t AS (SELECT MAX(o_orderkey) AS true_max FROM orders)
SELECT CAST(s.k AS BIGINT) AS sample_size,
       CAST(s.m AS BIGINT) AS sample_max,
       ROUND(s.m * (1.0 + 1.0 / s.k) - 1.0, 2) AS estimate,
       CAST(t.true_max AS BIGINT) AS true_max,
       ROUND((s.m * (1.0 + 1.0 / s.k) - 1.0 - t.true_max)
             / t.true_max, 6) AS rel_error
FROM s, t
"""


def q_honore_r_sources(sf_dir: str):
    """Honoré's R = 100·ln(N)/(1 − V1/V) per source — the
    hapax-legomena richness statistic of authorship attribution (high
    R = vocabulary keeps renewing).  Per-source (tokens, vocab, hapax)
    fold from (source, word) counts merged in source×word-hash
    partitions."""
    P = 64
    ds = _read(sf_dir, "documents", ["source", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df[["source"]].join(
            df["text"].str.split(" ").rename("w")).explode("w")
        out = t.groupby(["source", "w"], sort=False).size() \
            .rename("n").reset_index()
        out["part"] = (pd.util.hash_array(out["w"].to_numpy(object))
                       % np.uint64(P)).astype(np.int32)
        return out

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby(["source", "w"], as_index=False)["n"].sum()
        return c.assign(v=1, h=(c["n"] == 1).astype(np.int64)) \
            .groupby("source", as_index=False) \
            .agg(tok=("n", "sum"), v=("v", "sum"), h=("h", "sum"))

    t = ds.map_batches(partial, batch_format="pandas") \
        .groupby("part").map_groups(fold, batch_format="pandas") \
        .to_pandas().groupby("source", as_index=False).sum() \
        .sort_values("source").reset_index(drop=True)
    N = t["tok"].to_numpy(np.float64)
    V = t["v"].to_numpy(np.float64)
    V1 = t["h"].to_numpy(np.float64)
    r = 100.0 * np.log(N) / (1.0 - V1 / V)
    return pd.DataFrame({
        "source": t["source"],
        "n_tokens": t["tok"].astype(np.int64),
        "vocab": t["v"].astype(np.int64),
        "hapax": t["h"].astype(np.int64),
        "honore_r": np.round(r, 6)})


SQL_HONORE_R_SOURCES = """
WITH c AS (SELECT source, unnest(string_split(text, ' ')) AS w
           FROM documents),
g AS (SELECT source, w, COUNT(*) AS n FROM c GROUP BY 1, 2),
t AS (SELECT source, SUM(n) * 1.0 AS tok, COUNT(*) * 1.0 AS v,
             SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) * 1.0 AS h
      FROM g GROUP BY 1)
SELECT source, CAST(tok AS BIGINT) AS n_tokens,
       CAST(v AS BIGINT) AS vocab, CAST(h AS BIGINT) AS hapax,
       ROUND(100.0 * LN(tok) / (1.0 - h / v), 6) AS honore_r
FROM t ORDER BY source
"""


def q_kish_neff(sf_dir: str):
    """Kish effective sample size of a value-weighted order sample:
    n_eff = (Σw)²/Σw² with order value as the importance weight — the
    'how many equal-weight samples is this worth' read behind every
    weighted estimator.  One exact moment fold."""
    ds = _read(sf_dir, "orders", ["o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        w = np.round(df["o_totalprice"].to_numpy() * 100) \
            .astype(np.int64)
        f = w.astype(np.float64)
        return pd.DataFrame({"n": [len(w)], "s": [int(w.sum())],
                             "ss": [(f * f).sum()]})

    mo = ds.map_batches(partial, batch_format="pandas").to_pandas().sum()
    n = int(mo["n"])
    s, ss = float(mo["s"]), float(mo["ss"])
    neff = s * s / ss
    return pd.DataFrame({
        "n_orders": np.array([n], np.int64),
        "n_eff": [round(neff, 4)],
        "efficiency": [round(neff / n, 6)]})


SQL_KISH_NEFF = """
WITH m AS (SELECT COUNT(*) * 1.0 AS n,
                  SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) * 1.0
                    AS s,
                  SUM(CAST(CAST(ROUND(o_totalprice * 100) AS BIGINT)
                           AS DOUBLE)
                      * CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS ss
           FROM orders)
SELECT CAST(n AS BIGINT) AS n_orders,
       ROUND(s * s / ss, 4) AS n_eff,
       ROUND(s * s / ss / n, 6) AS efficiency
FROM m
"""


def q_mase_naive7(sf_dir: str):
    """Mean absolute scaled error of the naive lag-1 forecast against
    the seasonal-naive lag-7 scale on daily revenue — the
    scale-free forecast-accuracy read (MASE < 1: beating the weekly
    naive).  Daily totals fold distributed; both MAEs are shifted-
    difference folds over the calendar-bounded series."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "d": pd.to_datetime(df["o_orderdate"]).dt.normalize(),
            "y": np.round(df["o_totalprice"].to_numpy() * 100)
            .astype(np.int64)}).groupby("d", as_index=False).sum()

    daily = ds.map_batches(partial, batch_format="pandas").to_pandas() \
        .groupby("d", as_index=False)["y"].sum().sort_values("d") \
        .reset_index(drop=True)
    y = daily["y"].to_numpy(np.int64)
    mae1 = float(np.abs(y[1:] - y[:-1]).sum()) / (len(y) - 1)
    mae7 = float(np.abs(y[7:] - y[:-7]).sum()) / (len(y) - 7)
    return pd.DataFrame({
        "n_days": np.array([len(y)], np.int64),
        "mae_lag1": [round(mae1 / 100.0, 2)],
        "mae_lag7": [round(mae7 / 100.0, 2)],
        "mase": [round(mae1 / mae7, 6)]})


SQL_MASE_NAIVE7 = """
WITH daily AS (SELECT CAST(o_orderdate AS DATE) AS d,
                      SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS y
               FROM orders GROUP BY 1),
l AS (SELECT y, LAG(y, 1) OVER (ORDER BY d) AS y1,
             LAG(y, 7) OVER (ORDER BY d) AS y7
      FROM daily),
m AS (SELECT COUNT(*) AS n,
             SUM(ABS(y - y1)) * 1.0
               / SUM(CASE WHEN y1 IS NOT NULL THEN 1 ELSE 0 END)
               AS mae1,
             SUM(ABS(y - y7)) * 1.0
               / SUM(CASE WHEN y7 IS NOT NULL THEN 1 ELSE 0 END)
               AS mae7
      FROM l)
SELECT CAST(n AS BIGINT) AS n_days,
       ROUND(mae1 / 100.0, 2) AS mae_lag1,
       ROUND(mae7 / 100.0, 2) AS mae_lag7,
       ROUND(mae1 / mae7, 6) AS mase
FROM m
"""


def q_diebold_mariano(sf_dir: str):
    """Diebold–Mariano comparison of the lag-1 vs lag-7 naive daily
    forecasts under absolute loss: DM = mean(d)/sqrt(var(d)/n) over
    the loss differentials (lag-0 variance — the no-autocorrelation
    simplification, noted) — the 'is forecaster A actually better'
    test completing the MASE/pinball evaluation suite."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "d": pd.to_datetime(df["o_orderdate"]).dt.normalize(),
            "y": np.round(df["o_totalprice"].to_numpy() * 100)
            .astype(np.int64)}).groupby("d", as_index=False).sum()

    daily = ds.map_batches(partial, batch_format="pandas").to_pandas() \
        .groupby("d", as_index=False)["y"].sum().sort_values("d") \
        .reset_index(drop=True)
    y = daily["y"].to_numpy(np.float64)
    # differentials where BOTH forecasts exist (t >= 7)
    e1 = np.abs(y[7:] - y[6:-1])
    e7 = np.abs(y[7:] - y[:-7])
    d = e1 - e7
    n = float(len(d))
    db = d.sum() / n
    var = ((d - db) ** 2).sum() / (n - 1.0)
    dm = db / np.sqrt(var / n)
    return pd.DataFrame({
        "n_days": np.array([int(n)], np.int64),
        "mean_diff_dollars": [round(db / 100.0, 4)],
        "dm_stat": [round(float(dm), 6)]})


SQL_DIEBOLD_MARIANO = """
WITH daily AS (SELECT CAST(o_orderdate AS DATE) AS d,
                      SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS y
               FROM orders GROUP BY 1),
l AS (SELECT y * 1.0 AS y, LAG(y, 1) OVER (ORDER BY d) * 1.0 AS y1,
             LAG(y, 7) OVER (ORDER BY d) * 1.0 AS y7
      FROM daily QUALIFY y7 IS NOT NULL),
dd AS (SELECT ABS(y - y1) - ABS(y - y7) AS d FROM l),
m AS (SELECT COUNT(*) * 1.0 AS n, SUM(d) / COUNT(*) AS db FROM dd),
v AS (SELECT SUM((dd.d - m.db) * (dd.d - m.db)) / (m.n - 1.0) AS var,
             m.n, m.db
      FROM dd, m GROUP BY m.n, m.db)
SELECT CAST(v.n AS BIGINT) AS n_days,
       ROUND(v.db / 100.0, 4) AS mean_diff_dollars,
       ROUND(v.db / SQRT(v.var / v.n), 6) AS dm_stat
FROM v
"""


def q_simhash_pr_eval(sf_dir: str):
    """Dedup-detector evaluation: precision/recall/F1 of the banded
    SimHash pairs against the exact same-source Jaccard ≥ 0.6 ground
    truth — the quality audit run before trusting a sketch family at
    100 TB (complements q_lsh_recall_at_k on the ANN side).  Both
    sides are the existing oracle-green operators; predictions
    restrict to same-source pairs to share the truth's universe."""
    from icrawler_ray.stages.dedup import (ngram_jaccard_pairs_grouped,
                                           simhash_pairs)

    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    truth = ngram_jaccard_pairs_grouped(docs, group_col="source",
                                        threshold=0.6)
    ds2 = _read(sf_dir, "documents", ["doc_id", "text"])
    pred = simhash_pairs(ds2, max_hamming=4)
    src = _read(sf_dir, "documents", ["doc_id", "source"]).to_pandas()
    smap = dict(zip(src["doc_id"], src["source"]))
    pred = pred[(pred["a"].map(smap).to_numpy()
                 == pred["b"].map(smap).to_numpy())]
    tset = set(zip(truth["a"], truth["b"])) if len(truth) else set()
    pset = set(zip(pred["a"], pred["b"])) if len(pred) else set()
    tp = len(tset & pset)
    prec = tp / len(pset) if pset else 0.0
    rec = tp / len(tset) if tset else 0.0
    f1 = (2 * prec * rec / (prec + rec)) if (prec + rec) else 0.0
    return pd.DataFrame({
        "n_truth": np.array([len(tset)], np.int64),
        "n_pred": np.array([len(pset)], np.int64),
        "tp": np.array([tp], np.int64),
        "precision": [round(prec, 6)],
        "recall": [round(rec, 6)],
        "f1": [round(f1, 6)]})


SQL_SIMHASH_PR_EVAL = f"""
WITH truth AS ({SQL_NGRAM_JACCARD_PAIRS}),
pred0 AS ({SQL_SIMHASH_PAIRS}),
srcs AS (SELECT doc_id, source FROM documents),
pred AS (SELECT p.a, p.b FROM pred0 p
         JOIN srcs sa ON sa.doc_id = p.a
         JOIN srcs sb ON sb.doc_id = p.b
         WHERE sa.source = sb.source),
tp AS (SELECT COUNT(*) AS tp FROM pred
       WHERE EXISTS (SELECT 1 FROM truth t
                     WHERE t.a = pred.a AND t.b = pred.b)),
c AS (SELECT (SELECT COUNT(*) FROM truth) * 1.0 AS nt,
             (SELECT COUNT(*) FROM pred) * 1.0 AS np,
             (SELECT tp FROM tp) * 1.0 AS tp)
SELECT CAST(nt AS BIGINT) AS n_truth, CAST(np AS BIGINT) AS n_pred,
       CAST(tp AS BIGINT) AS tp,
       ROUND(CASE WHEN np > 0 THEN tp / np ELSE 0 END, 6) AS precision,
       ROUND(CASE WHEN nt > 0 THEN tp / nt ELSE 0 END, 6) AS recall,
       ROUND(CASE WHEN tp > 0
                  THEN 2 * (tp / np) * (tp / nt)
                       / (tp / np + tp / nt) ELSE 0 END, 6) AS f1
FROM c
"""


def q_silhouette_kmeans(sf_dir: str):
    """Simplified silhouette of the k=6 two-iteration k-means fit:
    s_i = (b_i − a_i)/max(a_i, b_i) with a/b the cosine distances to
    the own and nearest-other centroid (the centroid-only variant that
    never needs pairwise point distances) — the cluster-quality number
    that says whether k-means found structure.  Centroids come from
    the existing distributed fit; the per-vector fold broadcasts them;
    sims round to 6dp so the engines agree exactly (same convention as
    the kmeans oracle)."""
    from icrawler_ray.stages.clustering import kmeans_fit

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    cids, cent = kmeans_fit(ds, 6, 2)
    ref = ray.put(cent)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        import ray as _ray
        c = _ray.get(ref)
        m = np.asarray(df["embedding"].tolist(), dtype=np.float64)
        mn = m / np.linalg.norm(m, axis=1, keepdims=True)
        cn = c / np.linalg.norm(c, axis=1, keepdims=True)
        sims = np.round(mn @ cn.T, 6)
        order = np.argsort(-sims, axis=1, kind="stable")
        best = sims[np.arange(len(m)), order[:, 0]]
        second = sims[np.arange(len(m)), order[:, 1]]
        a = 1.0 - best
        b = 1.0 - second
        s = (b - a) / np.maximum(np.maximum(a, b), 1e-300)
        return pd.DataFrame({"n": [len(m)], "s": [float(s.sum())]})

    mo = ds.map_batches(fold, batch_format="pandas").to_pandas().sum()
    return pd.DataFrame({
        "n_vectors": np.array([int(mo["n"])], np.int64),
        "k": np.array([6], np.int64),
        "mean_silhouette": [round(float(mo["s"]) / float(mo["n"]), 6)]})


SQL_SILHOUETTE_KMEANS = """
WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
           FROM embeddings),
c0 AS MATERIALIZED (SELECT CAST(row_number() OVER (ORDER BY vec_id) - 1
                         AS INTEGER) AS cid, v
      FROM e ORDER BY vec_id LIMIT 6),
a0 AS MATERIALIZED (SELECT vec_id, cid FROM (
  SELECT e.vec_id, c.cid,
         row_number() OVER (PARTITION BY e.vec_id
             ORDER BY list_cosine_similarity(e.v, c.v) DESC, c.cid)
           AS rn
  FROM e CROSS JOIN c0 c) WHERE rn = 1),
c1 AS MATERIALIZED (SELECT cid, list(m ORDER BY idx) AS v FROM (
  SELECT a.cid, t.i AS idx, AVG(e.v[t.i]) AS m
  FROM a0 a JOIN e USING (vec_id) CROSS JOIN range(1, 65) t(i)
  GROUP BY a.cid, t.i) GROUP BY cid),
a1 AS MATERIALIZED (SELECT vec_id, cid FROM (
  SELECT e.vec_id, c.cid,
         row_number() OVER (PARTITION BY e.vec_id
             ORDER BY list_cosine_similarity(e.v, c.v) DESC, c.cid)
           AS rn
  FROM e CROSS JOIN c1 c) WHERE rn = 1),
c2 AS MATERIALIZED (SELECT cid, list(m ORDER BY idx) AS v FROM (
  SELECT a.cid, t.i AS idx, AVG(e.v[t.i]) AS m
  FROM a1 a JOIN e USING (vec_id) CROSS JOIN range(1, 65) t(i)
  GROUP BY a.cid, t.i) GROUP BY cid),
sims AS (SELECT e.vec_id,
                ROUND(list_cosine_similarity(e.v, c.v), 6) AS sim,
                row_number() OVER (PARTITION BY e.vec_id
                    ORDER BY ROUND(list_cosine_similarity(e.v, c.v), 6)
                             DESC, c.cid) AS rn
         FROM e CROSS JOIN c2 c),
ab AS (SELECT a.vec_id, 1.0 - a.sim AS a, 1.0 - b.sim AS b
       FROM sims a JOIN sims b ON b.vec_id = a.vec_id
       WHERE a.rn = 1 AND b.rn = 2)
SELECT CAST(COUNT(*) AS BIGINT) AS n_vectors,
       CAST(6 AS BIGINT) AS k,
       ROUND(SUM((b - a) / GREATEST(GREATEST(a, b), 1e-300))
             / COUNT(*), 6) AS mean_silhouette
FROM ab
"""


def q_atkinson_index(sf_dir: str):
    """Atkinson inequality index (inequality-aversion ε = 0.5) over
    per-customer spend: A = 1 − (mean √y)²/mean y — the WELFARE-based
    inequality number whose complement is the share of total income a
    perfectly equal society would need for the same welfare.
    Per-customer cent folds plus one √ fold."""
    P = 32
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.assign(cents=np.round(df["o_totalprice"].to_numpy() * 100)
                      .astype(np.int64)) \
            .groupby("o_custkey", as_index=False)["cents"].sum()
        g["part"] = (g["o_custkey"].to_numpy() % P).astype(np.int32)
        return g

    percust = (orders.map_batches(partial, batch_format="pandas")
               .groupby("part").map_groups(
                   lambda g: g.groupby("o_custkey", as_index=False)[
                       "cents"].sum(),
                   batch_format="pandas"))
    mo = percust.map_batches(
        lambda df: pd.DataFrame({
            "n": [len(df)], "s": [int(df["cents"].sum())],
            "sq": [float(np.sqrt(df["cents"].to_numpy(np.float64))
                         .sum())]}),
        batch_format="pandas").to_pandas().sum()
    n = float(mo["n"])
    mu = float(mo["s"]) / n
    msq = float(mo["sq"]) / n
    a = 1.0 - msq * msq / mu
    return pd.DataFrame({
        "n_customers": np.array([int(n)], np.int64),
        "atkinson_05": [round(a, 6)]})


SQL_ATKINSON_INDEX = """
WITH pc AS (SELECT o_custkey,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     AS cents
            FROM orders GROUP BY 1),
m AS (SELECT COUNT(*) * 1.0 AS n, SUM(cents) * 1.0 AS s,
             SUM(SQRT(cents * 1.0)) AS sq
      FROM pc)
SELECT CAST(n AS BIGINT) AS n_customers,
       ROUND(1.0 - (sq / n) * (sq / n) / (s / n), 6) AS atkinson_05
FROM m
"""


def q_duncan_dissimilarity(sf_dir: str):
    """Duncan dissimilarity index between CLICK and PURCHASE hourly
    distributions: D = ½·Σ_h |a_h/A − b_h/B| — the share of one type's
    traffic that would have to move hours to match the other (the
    classic segregation measure).  One 24-bounded integer fold."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t_us = df["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        return pd.DataFrame({
            "h": (t_us // 3_600_000_000) % 24,
            "a": (df["event_type"] == "click").to_numpy()
            .astype(np.int64),
            "b": (df["event_type"] == "purchase").to_numpy()
            .astype(np.int64)}).groupby("h", as_index=False).sum()

    t = ds.map_batches(partial, batch_format="pandas").to_pandas() \
        .groupby("h", as_index=False).sum()
    a = t["a"].to_numpy(np.float64)
    b = t["b"].to_numpy(np.float64)
    d = 0.5 * float(np.abs(a / a.sum() - b / b.sum()).sum())
    return pd.DataFrame({
        "n_clicks": np.array([int(a.sum())], np.int64),
        "n_purchases": np.array([int(b.sum())], np.int64),
        "duncan_d": [round(d, 6)]})


SQL_DUNCAN_DISSIMILARITY = """
WITH g AS (SELECT (epoch_us(ts) // 3600000000) % 24 AS h,
                  SUM(CASE WHEN event_type = 'click'
                           THEN 1 ELSE 0 END) * 1.0 AS a,
                  SUM(CASE WHEN event_type = 'purchase'
                           THEN 1 ELSE 0 END) * 1.0 AS b
           FROM events GROUP BY 1),
t AS (SELECT SUM(a) AS ta, SUM(b) AS tb FROM g)
SELECT CAST(t.ta AS BIGINT) AS n_clicks,
       CAST(t.tb AS BIGINT) AS n_purchases,
       ROUND(0.5 * SUM(ABS(g.a / t.ta - g.b / t.tb)), 6) AS duncan_d
FROM g, t GROUP BY t.ta, t.tb
"""


def q_yule_k(sf_dir: str):
    """Yule's characteristic K = 10⁴·(Σ r²·F_r − N)/N² and Herdan's
    C = ln V/ln N over the corpus vocabulary — the classic
    text-richness constants, both pure functions of the
    frequency-of-frequencies fold (same machinery as Good–Turing)."""
    P = 64
    ds = _read(sf_dir, "documents", ["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        w = pd.Series(np.concatenate(
            df["text"].str.split(" ").to_numpy()), name="w")
        out = w.value_counts().rename("n").reset_index()
        out.columns = ["w", "n"]
        out["part"] = (pd.util.hash_array(out["w"].to_numpy(object))
                       % np.uint64(P)).astype(np.int32)
        return out

    def fof(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("w")["n"].sum()
        f = c.value_counts().rename("f").reset_index()
        f.columns = ["r", "f"]
        return f

    mo = ds.map_batches(partial, batch_format="pandas") \
        .groupby("part").map_groups(fof, batch_format="pandas") \
        .to_pandas().groupby("r")["f"].sum()
    r = mo.index.to_numpy(np.int64)
    f = mo.to_numpy(np.int64)
    n_tok = int((r * f).sum())
    v = int(f.sum())
    s2 = int((r * r * f).sum())
    k = 10_000.0 * (s2 - n_tok) / (float(n_tok) * n_tok)
    c = np.log(v) / np.log(n_tok)
    return pd.DataFrame({
        "n_tokens": np.array([n_tok], np.int64),
        "vocab": np.array([v], np.int64),
        "yule_k": [round(float(k), 6)],
        "herdan_c": [round(float(c), 6)]})


SQL_YULE_K = """
WITH w AS (SELECT unnest(string_split(text, ' ')) AS w FROM documents),
c AS (SELECT w, COUNT(*) AS n FROM w GROUP BY 1),
m AS (SELECT SUM(n) * 1.0 AS nt, COUNT(*) * 1.0 AS v,
             SUM(CAST(n AS DOUBLE) * n) AS s2
      FROM c)
SELECT CAST(nt AS BIGINT) AS n_tokens,
       CAST(v AS BIGINT) AS vocab,
       ROUND(10000.0 * (s2 - nt) / (nt * nt), 6) AS yule_k,
       ROUND(LN(v) / LN(nt), 6) AS herdan_c
FROM m
"""


def q_bigram_perplexity(sf_dir: str):
    """Held-out word-bigram perplexity: an add-one-smoothed bigram LM
    trained on even doc_ids scores the odd half, PP = exp(−mean ln p)
    — the language-model data-quality read (rising PP on a new shard
    means distribution shift).  Train counts and eval bigrams meet in
    w1-hash partitions (the LM table is never broadcast); unseen
    contexts fall out of the same (c+1)/(c₁+V) formula."""
    P = 64
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    # V = distinct first-of-bigram words in TRAIN (each doc's final
    # token never opens a bigram — the SQL oracle counts ws[1..len-1])
    vset = ds.map_batches(
        lambda df: (lambda w: pd.DataFrame({
            "w": pd.unique(np.concatenate(
                [np.asarray(ws[:-1], dtype=object) for ws in w]))}))(
            df.loc[df["doc_id"] % 2 == 0, "text"].str.split(" ")
            .to_numpy()) if (df["doc_id"] % 2 == 0).any()
        else pd.DataFrame({"w": pd.Series([], dtype=str)}),
        batch_format="pandas")
    V = vset.map_batches(
        lambda df: df.drop_duplicates("w").assign(
            part=(pd.util.hash_array(df.drop_duplicates("w")["w"]
                                     .to_numpy(object))
                  % np.uint64(P)).astype(np.int32)),
        batch_format="pandas") \
        .groupby("part").map_groups(
            lambda g: pd.DataFrame({"v": [g["w"].nunique()]}),
            batch_format="pandas").to_pandas()["v"].sum()

    def grams(df: pd.DataFrame, train: bool) -> pd.DataFrame:
        sel = df.loc[(df["doc_id"] % 2 == 0) == train]
        rows_w1, rows_w2 = [], []
        for words in sel["text"].str.split(" "):
            rows_w1.append(np.asarray(words[:-1], dtype=object))
            rows_w2.append(np.asarray(words[1:], dtype=object))
        if not rows_w1:
            return pd.DataFrame({"w1": pd.Series([], dtype=str),
                                 "w2": pd.Series([], dtype=str),
                                 "n": pd.Series([], dtype="int64")})
        out = pd.DataFrame({"w1": np.concatenate(rows_w1),
                            "w2": np.concatenate(rows_w2)})
        return out.groupby(["w1", "w2"], sort=False).size() \
            .rename("n").reset_index()

    def with_part(df: pd.DataFrame) -> pd.DataFrame:
        df["part"] = (pd.util.hash_array(df["w1"].to_numpy(object))
                      % np.uint64(P)).astype(np.int32)
        return df

    tr = ds.map_batches(lambda d: with_part(grams(d, True)),
                        batch_format="pandas") \
        .map_batches(lambda d: d.assign(side=0), batch_format="pandas")
    ev = ds.map_batches(lambda d: with_part(grams(d, False)),
                        batch_format="pandas") \
        .map_batches(lambda d: d.assign(side=1), batch_format="pandas")

    def score(g: pd.DataFrame) -> pd.DataFrame:
        t = g.loc[g["side"] == 0].groupby(["w1", "w2"])["n"].sum()
        c1 = t.groupby(level=0).sum()
        e = g.loc[g["side"] == 1].groupby(["w1", "w2"])["n"].sum() \
            .reset_index()
        key = list(zip(e["w1"], e["w2"]))
        c12 = t.reindex(key).fillna(0).to_numpy(np.float64)
        cc1 = c1.reindex(e["w1"]).fillna(0).to_numpy(np.float64)
        lp = np.log((c12 + 1.0) / (cc1 + float(V)))
        return pd.DataFrame({"n": [int(e["n"].sum())],
                             "ll": [float((e["n"].to_numpy() * lp)
                                          .sum())]})

    mo = tr.union(ev).groupby("part") \
        .map_groups(score, batch_format="pandas").to_pandas().sum()
    n = float(mo["n"])
    pp = np.exp(-float(mo["ll"]) / n)
    return pd.DataFrame({
        "v_train": np.array([int(V)], np.int64),
        "n_eval_bigrams": np.array([int(n)], np.int64),
        "perplexity": [round(float(pp), 4)]})


SQL_BIGRAM_PERPLEXITY = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS ws
              FROM documents),
bi AS (SELECT doc_id, ws[i] AS w1, ws[i + 1] AS w2
       FROM toks, UNNEST(range(1, len(ws))) AS t(i)),
tr AS (SELECT w1, w2, COUNT(*) AS n FROM bi
       WHERE doc_id % 2 = 0 GROUP BY 1, 2),
c1 AS (SELECT w1, SUM(n) AS c FROM tr GROUP BY 1),
v AS (SELECT COUNT(DISTINCT ws[i]) AS v
      FROM toks, UNNEST(range(1, len(ws))) AS t(i)
      WHERE doc_id % 2 = 0),
ev AS (SELECT w1, w2, COUNT(*) AS n FROM bi
       WHERE doc_id % 2 = 1 GROUP BY 1, 2),
sc AS (SELECT SUM(ev.n) AS n,
              SUM(ev.n * LN((COALESCE(tr.n, 0) + 1.0)
                            / (COALESCE(c1.c, 0) + v.v))) AS ll
       FROM ev LEFT JOIN tr ON tr.w1 = ev.w1 AND tr.w2 = ev.w2
               LEFT JOIN c1 ON c1.w1 = ev.w1, v)
SELECT (SELECT CAST(v AS BIGINT) FROM v) AS v_train,
       CAST(sc.n AS BIGINT) AS n_eval_bigrams,
       ROUND(EXP(-sc.ll / sc.n), 4) AS perplexity
FROM sc
"""


def q_cohens_h(sf_dir: str):
    """Cohen's h arcsine effect size for the weekend-vs-weekday urgent
    proportion: h = 2·asin√p₁ − 2·asin√p₀ — the variance-stabilized
    effect size whose detectability doesn't depend on the base rate.
    Same 2×2 fold as the risk-difference report."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_orderpriority"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        wk = (pd.to_datetime(df["o_orderdate"]).dt.dayofweek >= 5) \
            .to_numpy()
        ur = (df["o_orderpriority"] == "1-URGENT").to_numpy()
        return pd.DataFrame({
            "n1": [int(wk.sum())], "k1": [int((wk & ur).sum())],
            "n0": [int((~wk).sum())], "k0": [int((~wk & ur).sum())]})

    m = ds.map_batches(partial, batch_format="pandas").to_pandas().sum()
    p1 = float(m["k1"]) / float(m["n1"])
    p0 = float(m["k0"]) / float(m["n0"])
    h = 2.0 * np.arcsin(np.sqrt(p1)) - 2.0 * np.arcsin(np.sqrt(p0))
    return pd.DataFrame({
        "p_weekend": [round(p1, 6)],
        "p_weekday": [round(p0, 6)],
        "cohens_h": [round(float(h), 6)]})


SQL_COHENS_H = """
WITH m AS (SELECT
             SUM(CASE WHEN isodow(o_orderdate) >= 6
                      THEN 1 ELSE 0 END) * 1.0 AS n1,
             SUM(CASE WHEN isodow(o_orderdate) >= 6
                       AND o_orderpriority = '1-URGENT'
                      THEN 1 ELSE 0 END) * 1.0 AS k1,
             SUM(CASE WHEN isodow(o_orderdate) < 6
                      THEN 1 ELSE 0 END) * 1.0 AS n0,
             SUM(CASE WHEN isodow(o_orderdate) < 6
                       AND o_orderpriority = '1-URGENT'
                      THEN 1 ELSE 0 END) * 1.0 AS k0
           FROM orders)
SELECT ROUND(k1 / n1, 6) AS p_weekend,
       ROUND(k0 / n0, 6) AS p_weekday,
       ROUND(2.0 * ASIN(SQRT(k1 / n1))
             - 2.0 * ASIN(SQRT(k0 / n0)), 6) AS cohens_h
FROM m
"""


def q_gunning_fog(sf_dir: str):
    """Gunning fog readability per language: 0.4·(words/sentence +
    100·complex-word share) with 'complex' = 3+ vowel groups (the
    syllable heuristic) — the readability screen a text-quality
    pipeline runs per provenance slice.  Everything folds as per-batch
    integer counts (sentences by periods, vowel groups by compiled
    regex)."""
    ds = _read(sf_dir, "documents", ["lang", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        words = df["text"].str.count(r"\S+").astype("int64")
        sents = (df["text"].str.count(r"\.") + 1).astype("int64")
        toks = df["text"].str.split(" ")
        cx = []
        for ws in toks:
            import re
            cx.append(sum(1 for w in ws
                          if len(re.findall(r"[aeiouAEIOU]+", w)) >= 3))
        return pd.DataFrame({
            "lang": df["lang"], "w": words, "s": sents,
            "c": np.asarray(cx, np.int64)}) \
            .groupby("lang", as_index=False).sum()

    t = ds.map_batches(partial, batch_format="pandas").to_pandas() \
        .groupby("lang", as_index=False).sum().sort_values("lang")
    w = t["w"].to_numpy(np.float64)
    s = t["s"].to_numpy(np.float64)
    c = t["c"].to_numpy(np.float64)
    fog = 0.4 * (w / s + 100.0 * c / w)
    return pd.DataFrame({
        "lang": t["lang"],
        "n_words": t["w"].astype(np.int64),
        "complex_share": np.round(c / w, 6),
        "gunning_fog": np.round(fog, 6)}).reset_index(drop=True)


SQL_GUNNING_FOG = r"""
WITH d AS (SELECT lang,
                  len(regexp_extract_all(text, '\S+')) AS w,
                  len(regexp_extract_all(text, '\.')) + 1 AS s,
                  len(list_filter(string_split(text, ' '),
                      x -> len(regexp_extract_all(x, '[aeiouAEIOU]+'))
                           >= 3)) AS c
           FROM documents),
g AS (SELECT lang, SUM(w) * 1.0 AS w, SUM(s) * 1.0 AS s,
             SUM(c) * 1.0 AS c
      FROM d GROUP BY 1)
SELECT lang, CAST(w AS BIGINT) AS n_words,
       ROUND(c / w, 6) AS complex_share,
       ROUND(0.4 * (w / s + 100.0 * c / w), 6) AS gunning_fog
FROM g ORDER BY lang
"""


def q_kpss_lite_daily(sf_dir: str):
    """KPSS level-stationarity statistic (lag-0 long-run variance):
    eta = Σ S_t²/(n²·σ̂²) over partial sums of mean-centered daily
    revenue — the null-reversed complement to an ADF unit-root test
    (KPSS rejects STATIONARITY, ADF rejects the unit root; together
    they classify the series).  Calendar-bounded driver fold."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "d": pd.to_datetime(df["o_orderdate"]).dt.normalize(),
            "y": np.round(df["o_totalprice"].to_numpy() * 100)
            .astype(np.int64)}).groupby("d", as_index=False).sum()

    daily = ds.map_batches(partial, batch_format="pandas").to_pandas() \
        .groupby("d", as_index=False)["y"].sum().sort_values("d") \
        .reset_index(drop=True)
    y = daily["y"].to_numpy(np.float64)
    n = float(len(y))
    yc = y - y.sum() / n
    s = np.cumsum(yc)
    sig2 = (yc * yc).sum() / n
    eta = (s * s).sum() / (n * n * sig2)
    return pd.DataFrame({
        "n_days": np.array([int(n)], np.int64),
        "kpss_eta": [round(float(eta), 6)]})


SQL_KPSS_LITE_DAILY = """
WITH daily AS (SELECT CAST(o_orderdate AS DATE) AS d,
                      SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS y
               FROM orders GROUP BY 1),
m AS (SELECT COUNT(*) * 1.0 AS n, SUM(y) * 1.0 / COUNT(*) AS mu
      FROM daily),
c AS (SELECT SUM(y * 1.0 - m.mu) OVER (ORDER BY d) AS s,
             y * 1.0 - m.mu AS yc, m.n
      FROM daily, m)
SELECT CAST(MAX(n) AS BIGINT) AS n_days,
       ROUND(SUM(s * s) / (MAX(n) * MAX(n)
                           * (SUM(yc * yc) / MAX(n))), 6) AS kpss_eta
FROM c
"""


def q_cms_overcount_audit(sf_dir: str):
    """Count-Min sketch accuracy audit: over the 30 probe terms of
    q_countmin_freq, how many estimates exceed the exact count and by
    what total relative mass — the collision-overcount QA a 100 TB
    deployment reads before sizing sketch width.  Composes the
    existing bit-exact CMS operator with its own exact counts."""
    t = q_countmin_freq(sf_dir)
    if hasattr(t, "to_pandas"):
        t = t.to_pandas()
    est = t["est"].to_numpy(np.int64)
    exact = t["exact"].to_numpy(np.int64)
    over = est - exact
    return pd.DataFrame({
        "n_probes": np.array([len(t)], np.int64),
        "n_overcounted": np.array([int((over > 0).sum())], np.int64),
        "max_overcount": np.array([int(over.max())], np.int64),
        "rel_overcount": [round(float(over.sum())
                                / float(exact.sum()), 6)]})


SQL_CMS_OVERCOUNT_AUDIT = f"""
WITH base AS ({SQL_COUNTMIN_FREQ}),
a AS (SELECT COUNT(*) AS n,
             SUM(CASE WHEN est > exact THEN 1 ELSE 0 END) AS n_over,
             MAX(est - exact) AS mx,
             SUM(est - exact) * 1.0 / SUM(exact) AS rel
      FROM base)
SELECT CAST(n AS BIGINT) AS n_probes,
       CAST(n_over AS BIGINT) AS n_overcounted,
       CAST(mx AS BIGINT) AS max_overcount,
       ROUND(rel, 6) AS rel_overcount
FROM a
"""


def q_holm_rejections(sf_dir: str):
    """Holm step-down multiple-testing correction on the same 25
    per-nation weekend-vs-weekday p-values as q_bh_fdr_weekend_nation:
    reject while p_(i) ≤ α/(m−i+1) — the FWER-controlling counterpart
    to BH's FDR, reported as rejection counts for both procedures (the
    practical 'how much stricter is family-wise control' read)."""
    out = q_bh_fdr_weekend_nation(sf_dir)
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()
    p = np.sort(out["p"].to_numpy(np.float64))
    m = len(p)
    alpha = 0.10
    holm = 0
    for i, pv in enumerate(p):
        if pv <= alpha / (m - i):
            holm += 1
        else:
            break
    return pd.DataFrame({
        "m_tests": np.array([m], np.int64),
        "bh_rejections": np.array(
            [int(out["rejected"].sum())], np.int64),
        "holm_rejections": np.array([holm], np.int64)})


SQL_HOLM_REJECTIONS = f"""
WITH bh AS ({SQL_BH_FDR_WEEKEND_NATION}),
r AS (SELECT p, rejected,
             ROW_NUMBER() OVER (ORDER BY p, n_name) AS i,
             COUNT(*) OVER () AS m
      FROM bh),
h AS (SELECT i, p, m,
             CASE WHEN p <= 0.10 / (m - i + 1) THEN 1 ELSE 0 END AS ok
      FROM r),
firstfail AS (SELECT COALESCE(MIN(i), (SELECT MAX(m) FROM h) + 1)
                AS ff FROM h WHERE ok = 0)
SELECT (SELECT CAST(MAX(m) AS BIGINT) FROM h) AS m_tests,
       (SELECT CAST(SUM(rejected) AS BIGINT) FROM bh) AS bh_rejections,
       CAST(firstfail.ff - 1 AS BIGINT) AS holm_rejections
FROM firstfail
"""


def q_ovl_weekend(sf_dir: str):
    """Overlap coefficient OVL = Σ min(p, q) between the weekend and
    weekday purchase-value distributions over the exact count grid —
    the 'probability mass the two groups share', the most literal of
    the distribution-similarity family (1 = identical, 0 = disjoint).
    Same grid combiner as the CvM/W1/Bhattacharyya siblings."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df.loc[df["event_type"] == "purchase"]
        return pd.DataFrame({
            "wk": (pd.to_datetime(d["ts"]).dt.dayofweek >= 5)
            .to_numpy().astype(np.int64),
            "cents": np.round(d["value"].to_numpy() * 100)
            .astype(np.int64)}).groupby(["wk", "cents"],
                                        as_index=False).size() \
            .rename(columns={"size": "n"})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    cnt = parts.groupby(["wk", "cents"], as_index=False)["n"].sum()
    piv = cnt.pivot_table(index="cents", columns="wk", values="n",
                          fill_value=0, aggfunc="sum").sort_index()
    a = piv.get(1, pd.Series(0, index=piv.index)).to_numpy(np.float64)
    b = piv.get(0, pd.Series(0, index=piv.index)).to_numpy(np.float64)
    ovl = float(np.minimum(a / a.sum(), b / b.sum()).sum())
    return pd.DataFrame({
        "n_weekend": np.array([int(a.sum())], np.int64),
        "n_weekday": np.array([int(b.sum())], np.int64),
        "overlap_coef": [round(ovl, 6)]})


SQL_OVL_WEEKEND = """
WITH v AS (SELECT CASE WHEN isodow(ts) >= 6 THEN 1 ELSE 0 END AS wk,
                  CAST(ROUND(value * 100) AS BIGINT) AS cents
           FROM events WHERE event_type = 'purchase'),
c AS (SELECT cents,
             SUM(CASE WHEN wk = 1 THEN 1 ELSE 0 END) * 1.0 AS a,
             SUM(CASE WHEN wk = 0 THEN 1 ELSE 0 END) * 1.0 AS b
      FROM v GROUP BY cents),
t AS (SELECT SUM(a) AS n1, SUM(b) AS n2 FROM c)
SELECT CAST(t.n1 AS BIGINT) AS n_weekend,
       CAST(t.n2 AS BIGINT) AS n_weekday,
       ROUND(SUM(LEAST(c.a / t.n1, c.b / t.n2)), 6) AS overlap_coef
FROM c, t GROUP BY t.n1, t.n2
"""


def q_mean_log_deviation(sf_dir: str):
    """Mean log deviation (generalized entropy GE(0)) of per-customer
    spend: MLD = ln μ − mean(ln y) — the inequality member that
    completes the GE family alongside Theil (GE(1)) and the Atkinson
    transform (A = 1 − e^(−MLD) also reported).  Per-customer folds
    plus one ln fold."""
    P = 32
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.assign(cents=np.round(df["o_totalprice"].to_numpy() * 100)
                      .astype(np.int64)) \
            .groupby("o_custkey", as_index=False)["cents"].sum()
        g["part"] = (g["o_custkey"].to_numpy() % P).astype(np.int32)
        return g

    percust = (orders.map_batches(partial, batch_format="pandas")
               .groupby("part").map_groups(
                   lambda g: g.groupby("o_custkey", as_index=False)[
                       "cents"].sum(),
                   batch_format="pandas"))
    mo = percust.map_batches(
        lambda df: pd.DataFrame({
            "n": [len(df)], "s": [int(df["cents"].sum())],
            "sl": [float(np.log(df["cents"].to_numpy(np.float64))
                         .sum())]}),
        batch_format="pandas").to_pandas().sum()
    n = float(mo["n"])
    mld = np.log(float(mo["s"]) / n) - float(mo["sl"]) / n
    return pd.DataFrame({
        "n_customers": np.array([int(n)], np.int64),
        "mld": [round(float(mld), 6)],
        "atkinson_1": [round(float(1.0 - np.exp(-mld)), 6)]})


SQL_MEAN_LOG_DEVIATION = """
WITH pc AS (SELECT o_custkey,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     AS cents
            FROM orders GROUP BY 1),
m AS (SELECT COUNT(*) * 1.0 AS n, SUM(cents) * 1.0 AS s,
             SUM(LN(cents * 1.0)) AS sl
      FROM pc)
SELECT CAST(n AS BIGINT) AS n_customers,
       ROUND(LN(s / n) - sl / n, 6) AS mld,
       ROUND(1.0 - EXP(-(LN(s / n) - sl / n)), 6) AS atkinson_1
FROM m
"""


def q_bucket_occupancy_audit(sf_dir: str):
    """Hash-bucket occupancy audit: distinct user_id keys thrown into
    4096 modulo buckets, observed occupied buckets vs the uniform
    expectation B·(1−(1−1/B)^n) — the balls-in-bins read that flags a
    skewed partitioning key BEFORE it skews a shuffle.  One distinct
    fold + one occupancy fold."""
    ds = _read(sf_dir, "orders", ["o_custkey"])
    B = 4096

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        u = pd.unique(df["o_custkey"].to_numpy())
        return pd.DataFrame({"k": u})

    keys = ds.map_batches(partial, batch_format="pandas") \
        .map_batches(lambda df: df.drop_duplicates("k").assign(
            b=(df.drop_duplicates("k")["k"].to_numpy() % B)
            .astype(np.int64)),
            batch_format="pandas")
    occ = keys.groupby("b").map_groups(
        lambda g: pd.DataFrame({"n": [g["k"].nunique()], "occ": [1]}),
        batch_format="pandas").to_pandas()
    n_keys = int(occ["n"].sum())
    observed = int(occ["occ"].sum())
    expected = B * (1.0 - (1.0 - 1.0 / B) ** n_keys)
    mx = int(occ["n"].max())
    return pd.DataFrame({
        "n_keys": np.array([n_keys], np.int64),
        "buckets_occupied": np.array([observed], np.int64),
        "expected_occupied": [round(expected, 4)],
        "max_bucket": np.array([mx], np.int64)})


SQL_BUCKET_OCCUPANCY_AUDIT = """
WITH k AS (SELECT DISTINCT o_custkey AS k FROM orders),
b AS (SELECT k % 4096 AS b, COUNT(*) AS n FROM k GROUP BY 1),
t AS (SELECT SUM(n) AS nk, COUNT(*) AS occ, MAX(n) AS mx FROM b)
SELECT CAST(nk AS BIGINT) AS n_keys,
       CAST(occ AS BIGINT) AS buckets_occupied,
       ROUND(4096 * (1.0 - POW(1.0 - 1.0 / 4096, nk)), 4)
         AS expected_occupied,
       CAST(mx AS BIGINT) AS max_bucket
FROM t
"""


def q_dunning_g2_terms(sf_dir: str):
    """Dunning log-likelihood keyness: the 10 terms most distinctive of
    English vs the rest of the corpus by G² = 2Σ O·ln(O/E) over each
    term's 2×2 — the corpus-linguistics standard that, unlike the
    Monroe log-odds (q_log_odds_terms), needs no prior.  (group, term)
    combiner partials; G² folds from exact counts (signed by direction,
    ranked by G² then term)."""
    ds = _read(sf_dir, "documents", ["lang", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = pd.DataFrame({
            "grp": (df["lang"] == "en").to_numpy().astype(np.int64)}) \
            .join(df["text"].str.split(" ").rename("term")).explode("term")
        return t.groupby(["grp", "term"], sort=False).size() \
            .rename("n").reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    c = parts.groupby(["grp", "term"], as_index=False)["n"].sum()
    piv = c.pivot_table(index="term", columns="grp", values="n",
                        fill_value=0, aggfunc="sum").sort_index()
    a = piv.get(1, pd.Series(0, index=piv.index)).to_numpy(np.float64)
    b = piv.get(0, pd.Series(0, index=piv.index)).to_numpy(np.float64)
    n1, n2 = a.sum(), b.sum()
    e1 = n1 * (a + b) / (n1 + n2)
    e2 = n2 * (a + b) / (n1 + n2)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(a > 0, a * np.log(a / e1), 0.0)
        t2 = np.where(b > 0, b * np.log(b / e2), 0.0)
    g2 = 2.0 * (t1 + t2)
    out = pd.DataFrame({"term": piv.index.to_numpy(),
                        "n_en": a.astype(np.int64),
                        "n_rest": b.astype(np.int64),
                        "g2": np.round(g2, 6),
                        "en_leaning": (a / n1 > b / n2)
                        .astype(np.int64)})
    return out.sort_values(["g2", "term"], ascending=[False, True],
                           kind="mergesort").head(10) \
        .reset_index(drop=True)


SQL_DUNNING_G2_TERMS = """
WITH t AS (SELECT CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS grp,
                  unnest(string_split(text, ' ')) AS term
           FROM documents),
c AS (SELECT term,
             SUM(CASE WHEN grp = 1 THEN 1 ELSE 0 END) * 1.0 AS a,
             SUM(CASE WHEN grp = 0 THEN 1 ELSE 0 END) * 1.0 AS b
      FROM t GROUP BY term),
nn AS (SELECT SUM(a) AS n1, SUM(b) AS n2 FROM c),
g AS (SELECT c.term, c.a, c.b,
             2.0 * (CASE WHEN c.a > 0
                         THEN c.a * LN(c.a / (nn.n1 * (c.a + c.b)
                                              / (nn.n1 + nn.n2)))
                         ELSE 0 END
                    + CASE WHEN c.b > 0
                           THEN c.b * LN(c.b / (nn.n2 * (c.a + c.b)
                                                / (nn.n1 + nn.n2)))
                           ELSE 0 END) AS g2,
             CASE WHEN c.a / nn.n1 > c.b / nn.n2 THEN 1 ELSE 0 END
               AS en_leaning
      FROM c, nn)
SELECT term, CAST(a AS BIGINT) AS n_en, CAST(b AS BIGINT) AS n_rest,
       ROUND(g2, 6) AS g2, CAST(en_leaning AS BIGINT) AS en_leaning
FROM g ORDER BY g2 DESC, term ASC LIMIT 10
"""


def q_hill_numbers_vocab(sf_dir: str):
    """Hill diversity profile of the corpus vocabulary: D₀ = richness,
    D₁ = exp(Shannon H), D₂ = 1/Σp² — the effective-vocabulary-size
    ladder where each q weights common words more (ecology's unified
    diversity view applied to tokens).  One word-count fold in word-hash
    partitions; the profile is driver arithmetic over the merged
    frequency-of-frequencies."""
    P = 64
    ds = _read(sf_dir, "documents", ["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        w = pd.Series(np.concatenate(
            df["text"].str.split(" ").to_numpy()), name="w")
        out = w.value_counts().rename("n").reset_index()
        out.columns = ["w", "n"]
        out["part"] = (pd.util.hash_array(out["w"].to_numpy(object))
                       % np.uint64(P)).astype(np.int32)
        return out

    def fof(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("w")["n"].sum()
        f = c.value_counts().rename("f").reset_index()
        f.columns = ["r", "f"]
        return f

    ff = ds.map_batches(partial, batch_format="pandas") \
        .groupby("part").map_groups(fof, batch_format="pandas") \
        .to_pandas().groupby("r")["f"].sum()
    r = ff.index.to_numpy(np.float64)
    f = ff.to_numpy(np.float64)
    n = (r * f).sum()
    p = r / n
    h = -(f * p * np.log(p)).sum()
    d2 = 1.0 / (f * p * p).sum()
    return pd.DataFrame({
        "d0_richness": np.array([int(f.sum())], np.int64),
        "d1_exp_h": [round(float(np.exp(h)), 4)],
        "d2_inv_simpson": [round(float(d2), 4)],
        "evenness": [round(float(np.exp(h)) / f.sum(), 6)]})


SQL_HILL_NUMBERS_VOCAB = """
WITH w AS (SELECT unnest(string_split(text, ' ')) AS w FROM documents),
c AS (SELECT w, COUNT(*) AS n FROM w GROUP BY 1),
t AS (SELECT SUM(n) * 1.0 AS nt, COUNT(*) * 1.0 AS v FROM c),
m AS (SELECT -SUM((c.n / t.nt) * LN(c.n / t.nt)) AS h,
             1.0 / SUM((c.n / t.nt) * (c.n / t.nt)) AS d2,
             MIN(t.v) AS v
      FROM c, t)
SELECT CAST(v AS BIGINT) AS d0_richness,
       ROUND(EXP(h), 4) AS d1_exp_h,
       ROUND(d2, 4) AS d2_inv_simpson,
       ROUND(EXP(h) / v, 6) AS evenness
FROM m
"""


def q_chao_shen_entropy(sf_dir: str):
    """Chao–Shen coverage-adjusted Shannon entropy of the vocabulary:
    sample-coverage C = 1 − F₁/N shrinks each p, and the
    Horvitz–Thompson correction 1/(1−(1−Cp)^N) re-weights for unseen
    mass — the entropy estimator that stays honest on undersampled
    corpora (naive plug-in is biased low).  Same f-of-f fold as the
    Good–Turing family."""
    P = 64
    ds = _read(sf_dir, "documents", ["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        w = pd.Series(np.concatenate(
            df["text"].str.split(" ").to_numpy()), name="w")
        out = w.value_counts().rename("n").reset_index()
        out.columns = ["w", "n"]
        out["part"] = (pd.util.hash_array(out["w"].to_numpy(object))
                       % np.uint64(P)).astype(np.int32)
        return out

    def fof(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("w")["n"].sum()
        f = c.value_counts().rename("f").reset_index()
        f.columns = ["r", "f"]
        return f

    ff = ds.map_batches(partial, batch_format="pandas") \
        .groupby("part").map_groups(fof, batch_format="pandas") \
        .to_pandas().groupby("r")["f"].sum()
    r = ff.index.to_numpy(np.float64)
    f = ff.to_numpy(np.float64)
    n = (r * f).sum()
    f1 = float(ff.get(1, 0))
    ccov = 1.0 - f1 / n
    p = ccov * r / n
    h_naive = -(f * (r / n) * np.log(r / n)).sum()
    h_cs = -(f * p * np.log(p) / (1.0 - (1.0 - p) ** n)).sum()
    return pd.DataFrame({
        "coverage": [round(ccov, 6)],
        "h_naive": [round(float(h_naive), 6)],
        "h_chao_shen": [round(float(h_cs), 6)]})


SQL_CHAO_SHEN_ENTROPY = """
WITH w AS (SELECT unnest(string_split(text, ' ')) AS w FROM documents),
c AS (SELECT w, COUNT(*) AS n FROM w GROUP BY 1),
t AS (SELECT SUM(n) * 1.0 AS nt,
             SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) * 1.0 AS f1
      FROM c),
m AS (SELECT 1.0 - t.f1 / t.nt AS cov, t.nt,
             -SUM((c.n / t.nt) * LN(c.n / t.nt)) AS h_naive,
             -SUM(((1.0 - t.f1 / t.nt) * c.n / t.nt)
                  * LN((1.0 - t.f1 / t.nt) * c.n / t.nt)
                  / (1.0 - POW(1.0 - (1.0 - t.f1 / t.nt) * c.n / t.nt,
                               t.nt))) AS h_cs
      FROM c, t GROUP BY t.f1, t.nt)
SELECT ROUND(cov, 6) AS coverage,
       ROUND(h_naive, 6) AS h_naive,
       ROUND(h_cs, 6) AS h_chao_shen
FROM m
"""


def q_brunet_sichel(sf_dir: str):
    """Brunet's W = N^(V^−0.165) and Sichel's S = V₂/V — the two
    remaining classical vocabulary-richness constants (with Yule's K
    and Honoré's R already in the suite, this completes the
    stylometric battery).  Same f-of-f fold."""
    P = 64
    ds = _read(sf_dir, "documents", ["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        w = pd.Series(np.concatenate(
            df["text"].str.split(" ").to_numpy()), name="w")
        out = w.value_counts().rename("n").reset_index()
        out.columns = ["w", "n"]
        out["part"] = (pd.util.hash_array(out["w"].to_numpy(object))
                       % np.uint64(P)).astype(np.int32)
        return out

    def fof(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("w")["n"].sum()
        f = c.value_counts().rename("f").reset_index()
        f.columns = ["r", "f"]
        return f

    ff = ds.map_batches(partial, batch_format="pandas") \
        .groupby("part").map_groups(fof, batch_format="pandas") \
        .to_pandas().groupby("r")["f"].sum()
    r = ff.index.to_numpy(np.float64)
    f = ff.to_numpy(np.float64)
    n = (r * f).sum()
    v = f.sum()
    v2 = float(ff.get(2, 0))
    w = n ** (v ** -0.165)
    return pd.DataFrame({
        "n_tokens": np.array([int(n)], np.int64),
        "vocab": np.array([int(v)], np.int64),
        "brunet_w": [round(float(w), 4)],
        "sichel_s": [round(v2 / v, 6)]})


SQL_BRUNET_SICHEL = """
WITH w AS (SELECT unnest(string_split(text, ' ')) AS w FROM documents),
c AS (SELECT w, COUNT(*) AS n FROM w GROUP BY 1),
t AS (SELECT SUM(n) * 1.0 AS nt, COUNT(*) * 1.0 AS v,
             SUM(CASE WHEN n = 2 THEN 1 ELSE 0 END) * 1.0 AS v2
      FROM c)
SELECT CAST(nt AS BIGINT) AS n_tokens,
       CAST(v AS BIGINT) AS vocab,
       ROUND(POW(nt, POW(v, -0.165)), 4) AS brunet_w,
       ROUND(v2 / v, 6) AS sichel_s
FROM t
"""


def q_pietra_index(sf_dir: str):
    """Pietra (Hoover) index of per-customer spend: Σ|y−μ|/(2Nμ) — the
    maximum vertical Lorenz gap, i.e. the share of total spend that
    would have to move between customers for perfect equality.
    Per-customer folds plus one |dev| fold against the broadcast
    mean."""
    P = 32
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.assign(cents=np.round(df["o_totalprice"].to_numpy() * 100)
                      .astype(np.int64)) \
            .groupby("o_custkey", as_index=False)["cents"].sum()
        g["part"] = (g["o_custkey"].to_numpy() % P).astype(np.int32)
        return g

    percust = (orders.map_batches(partial, batch_format="pandas")
               .groupby("part").map_groups(
                   lambda g: g.groupby("o_custkey", as_index=False)[
                       "cents"].sum(),
                   batch_format="pandas"))
    mo = percust.map_batches(
        lambda df: pd.DataFrame({"n": [len(df)],
                                 "s": [int(df["cents"].sum())]}),
        batch_format="pandas").to_pandas().sum()
    n, tot = int(mo["n"]), int(mo["s"])
    mu = tot / n
    ad = percust.map_batches(
        lambda df: pd.DataFrame({
            "ad": [float(np.abs(df["cents"].to_numpy(np.float64) - mu)
                         .sum())]}),
        batch_format="pandas").to_pandas()["ad"].sum()
    return pd.DataFrame({
        "n_customers": np.array([n], np.int64),
        "pietra": [round(float(ad) / (2.0 * tot), 6)]})


SQL_PIETRA_INDEX = """
WITH pc AS (SELECT o_custkey,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     AS cents
            FROM orders GROUP BY 1),
m AS (SELECT COUNT(*) * 1.0 AS n, SUM(cents) * 1.0 AS tot,
             SUM(cents) * 1.0 / COUNT(*) AS mu
      FROM pc)
SELECT CAST(m.n AS BIGINT) AS n_customers,
       ROUND((SELECT SUM(ABS(pc.cents - m.mu)) FROM pc, m)
             / (2.0 * m.tot), 6) AS pietra
FROM m
"""


def q_expected_shortfall_daily(sf_dir: str):
    """Expected shortfall (CVaR) of daily revenue at the 5% level: the
    mean of the worst ⌈0.05·D⌉ days, alongside the VaR (the exact P5
    order statistic) — the coherent risk measure capacity planning
    reads instead of the quantile alone.  Calendar-bounded driver fold
    over the distributed daily totals."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "d": pd.to_datetime(df["o_orderdate"]).dt.normalize(),
            "y": np.round(df["o_totalprice"].to_numpy() * 100)
            .astype(np.int64)}).groupby("d", as_index=False).sum()

    daily = ds.map_batches(partial, batch_format="pandas").to_pandas() \
        .groupby("d", as_index=False)["y"].sum()
    y = np.sort(daily["y"].to_numpy(np.int64))
    d = len(y)
    k = int(np.ceil(0.05 * d))
    var = int(y[k - 1])
    es = float(y[:k].sum()) / k
    return pd.DataFrame({
        "n_days": np.array([d], np.int64),
        "var_5pct": [round(var / 100.0, 2)],
        "expected_shortfall": [round(es / 100.0, 2)]})


SQL_EXPECTED_SHORTFALL_DAILY = """
WITH daily AS (SELECT CAST(o_orderdate AS DATE) AS d,
                      SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS y
               FROM orders GROUP BY 1),
nn AS (SELECT COUNT(*) AS d,
              CAST(CEIL(0.05 * COUNT(*)) AS BIGINT) AS k
       FROM daily),
r AS (SELECT y, ROW_NUMBER() OVER (ORDER BY y, d) AS rk FROM daily),
s AS (SELECT SUM(CASE WHEN r.rk <= nn.k THEN r.y ELSE 0 END) * 1.0
               / nn.k AS es,
             MAX(CASE WHEN r.rk = nn.k THEN r.y END) AS var5,
             nn.d
      FROM r, nn GROUP BY nn.k, nn.d)
SELECT CAST(d AS BIGINT) AS n_days,
       ROUND(var5 / 100.0, 2) AS var_5pct,
       ROUND(es / 100.0, 2) AS expected_shortfall
FROM s
"""


def q_omega_ratio_daily(sf_dir: str):
    """Omega ratio of daily revenue against its own mean threshold:
    Σ(y−τ)⁺ / Σ(τ−y)⁺ — the gain/loss mass ratio that uses the WHOLE
    distribution where Sharpe uses two moments.  One threshold fold
    against the broadcast mean."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "d": pd.to_datetime(df["o_orderdate"]).dt.normalize(),
            "y": np.round(df["o_totalprice"].to_numpy() * 100)
            .astype(np.int64)}).groupby("d", as_index=False).sum()

    daily = ds.map_batches(partial, batch_format="pandas").to_pandas() \
        .groupby("d", as_index=False)["y"].sum()
    y = daily["y"].to_numpy(np.float64)
    tau = y.sum() / len(y)
    gain = float(np.maximum(y - tau, 0.0).sum())
    loss = float(np.maximum(tau - y, 0.0).sum())
    return pd.DataFrame({
        "n_days": np.array([len(y)], np.int64),
        "threshold": [round(tau / 100.0, 2)],
        "omega": [round(gain / loss, 6)]})


SQL_OMEGA_RATIO_DAILY = """
WITH daily AS (SELECT CAST(o_orderdate AS DATE) AS d,
                      SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS y
               FROM orders GROUP BY 1),
m AS (SELECT SUM(y) * 1.0 / COUNT(*) AS tau, COUNT(*) AS n FROM daily)
SELECT CAST(m.n AS BIGINT) AS n_days,
       ROUND(m.tau / 100.0, 2) AS threshold,
       ROUND(SUM(GREATEST(daily.y - m.tau, 0.0))
             / SUM(GREATEST(m.tau - daily.y, 0.0)), 6) AS omega
FROM daily, m GROUP BY m.n, m.tau
"""


def q_ulcer_index_daily(sf_dir: str):
    """Ulcer index of the cumulative-revenue 'equity curve': RMS of the
    percentage drawdown from the running peak — the drawdown-depth-
    AND-duration risk number that complements the single worst dip
    of a maximum-drawdown figure.  Running peak and the RMS fold run over the
    calendar-bounded cumulative series."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "d": pd.to_datetime(df["o_orderdate"]).dt.normalize(),
            "y": np.round(df["o_totalprice"].to_numpy() * 100)
            .astype(np.int64)}).groupby("d", as_index=False).sum()

    daily = ds.map_batches(partial, batch_format="pandas").to_pandas() \
        .groupby("d", as_index=False)["y"].sum().sort_values("d") \
        .reset_index(drop=True)
    # 'equity' = detrended cumulative: cumsum(y - mean), i.e. daily
    # revenue less the mean day, shifted positive by its own min for % math
    y = daily["y"].to_numpy(np.float64)
    c = np.cumsum(y - y.sum() / len(y))
    c = c - c.min() + 1.0
    peak = np.maximum.accumulate(c)
    dd = (peak - c) / peak
    ulcer = float(np.sqrt((dd * dd).sum() / len(dd)))
    return pd.DataFrame({
        "n_days": np.array([len(y)], np.int64),
        "max_drawdown_pct": [round(float(dd.max()), 6)],
        "ulcer_index": [round(ulcer, 6)]})


SQL_ULCER_INDEX_DAILY = """
WITH daily AS (SELECT CAST(o_orderdate AS DATE) AS d,
                      SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS y
               FROM orders GROUP BY 1),
m AS (SELECT SUM(y) * 1.0 / COUNT(*) AS mu FROM daily),
c AS (SELECT d, SUM(y * 1.0 - m.mu) OVER (ORDER BY d) AS c
      FROM daily, m),
sh AS (SELECT d, c.c - (SELECT MIN(c) FROM c) + 1.0 AS e FROM c),
p AS (SELECT e, MAX(e) OVER (ORDER BY d) AS peak FROM sh)
SELECT CAST(COUNT(*) AS BIGINT) AS n_days,
       ROUND(MAX((peak - e) / peak), 6) AS max_drawdown_pct,
       ROUND(SQRT(SUM(((peak - e) / peak) * ((peak - e) / peak))
                  / COUNT(*)), 6) AS ulcer_index
FROM p
"""


def q_rayleigh_hour_test(sf_dir: str):
    """Rayleigh test of circular uniformity on purchase hour-of-day:
    mean resultant length R̄ = |Σe^{iθ}|/n and z = n·R̄² — circular
    statistics' 'is there a preferred time at all', with the circular
    mean hour as the direction.  cos/sin sums fold distributed; the
    test is closed-form driver arithmetic."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df.loc[df["event_type"] == "purchase"]
        t_us = d["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        frac = (t_us % 86_400_000_000) / 86_400_000_000.0
        ang = 2.0 * np.pi * frac
        return pd.DataFrame({"n": [len(d)],
                             "c": [float(np.cos(ang).sum())],
                             "s": [float(np.sin(ang).sum())]})

    mo = ds.map_batches(partial, batch_format="pandas").to_pandas().sum()
    n = float(mo["n"])
    c, s = float(mo["c"]), float(mo["s"])
    rbar = np.sqrt(c * c + s * s) / n
    mean_ang = np.arctan2(s, c)
    mean_hour = (mean_ang % (2.0 * np.pi)) / (2.0 * np.pi) * 24.0
    z = n * rbar * rbar
    return pd.DataFrame({
        "n_purchases": np.array([int(n)], np.int64),
        "resultant_r": [round(float(rbar), 6)],
        "mean_hour": [round(float(mean_hour), 4)],
        "rayleigh_z": [round(float(z), 6)]})


SQL_RAYLEIGH_HOUR_TEST = """
WITH v AS (SELECT 2 * PI() * ((epoch_us(ts) % 86400000000)
                              / 86400000000.0) AS ang
           FROM events WHERE event_type = 'purchase'),
m AS (SELECT COUNT(*) * 1.0 AS n, SUM(COS(ang)) AS c,
             SUM(SIN(ang)) AS s
      FROM v)
SELECT CAST(n AS BIGINT) AS n_purchases,
       ROUND(SQRT(c * c + s * s) / n, 6) AS resultant_r,
       ROUND(((ATAN2(s, c) + 2 * PI()) - FLOOR((ATAN2(s, c) + 2 * PI())
                                               / (2 * PI())) * 2 * PI())
             / (2 * PI()) * 24.0, 4) AS mean_hour,
       ROUND(n * (SQRT(c * c + s * s) / n) * (SQRT(c * c + s * s) / n),
             6) AS rayleigh_z
FROM m
"""


def q_storey_pi0(sf_dir: str):
    """Storey's π₀ estimate on the 25 per-nation weekend p-values:
    π₀ = #{p > λ}/((1−λ)m) at λ = 0.5 — the 'how many nulls are
    really null' input that turns BH into the sharper q-value
    procedure; the adjusted rejection count at FDR 0.10 rides along.
    Reuses the q_bh_fdr_weekend_nation machinery."""
    out = q_bh_fdr_weekend_nation(sf_dir)
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()
    p = np.sort(out["p"].to_numpy(np.float64))
    m = len(p)
    lam = 0.5
    pi0 = min(1.0, float((p > lam).sum()) / ((1.0 - lam) * m))
    # Storey-adaptive BH: reject while p_(i) <= i*alpha/(pi0*m)
    alpha = 0.10
    idx = np.nonzero(p <= (np.arange(1, m + 1) * alpha / (pi0 * m)))[0]
    rej = int(idx.max()) + 1 if len(idx) else 0
    return pd.DataFrame({
        "m_tests": np.array([m], np.int64),
        "pi0_hat": [round(pi0, 6)],
        "bh_rejections": np.array([int(out["rejected"].sum())],
                                  np.int64),
        "storey_rejections": np.array([rej], np.int64)})


SQL_STOREY_PI0 = f"""
WITH bh AS ({SQL_BH_FDR_WEEKEND_NATION}),
r AS (SELECT p, rejected,
             ROW_NUMBER() OVER (ORDER BY p, n_name) AS i,
             COUNT(*) OVER () AS m
      FROM bh),
pi AS (SELECT LEAST(1.0, SUM(CASE WHEN p > 0.5 THEN 1 ELSE 0 END)
                         / (0.5 * MAX(m))) AS pi0,
              MAX(m) AS m
       FROM r),
st AS (SELECT COALESCE(MAX(r.i), 0) AS rej FROM r, pi
       WHERE r.p <= r.i * 0.10 / (pi.pi0 * pi.m))
SELECT CAST(pi.m AS BIGINT) AS m_tests,
       ROUND(pi.pi0, 6) AS pi0_hat,
       (SELECT CAST(SUM(rejected) AS BIGINT) FROM bh)
         AS bh_rejections,
       CAST(st.rej AS BIGINT) AS storey_rejections
FROM pi, st
"""


def q_max_spacing_stat(sf_dir: str):
    """Maximum spacing statistic of purchase values: the largest gap
    between consecutive DISTINCT observed cents, normalized by
    range/n — a huge spacing flags a gated/bimodal value process
    (price tiers, caps) that histogram bins average away.  One
    value-grid fold; the spacing scan runs over the sorted grid."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df.loc[df["event_type"] == "purchase"]
        return pd.DataFrame({
            "cents": np.round(d["value"].to_numpy() * 100)
            .astype(np.int64)}).groupby("cents", as_index=False) \
            .size().rename(columns={"size": "n"})

    g = ds.map_batches(partial, batch_format="pandas").to_pandas() \
        .groupby("cents")["n"].sum().sort_index()
    v = g.index.to_numpy(np.int64)
    n = int(g.sum())
    gaps = np.diff(v)
    mx = int(gaps.max())
    at = int(v[np.argmax(gaps)])
    mean_gap = (v[-1] - v[0]) / float(len(v) - 1)
    return pd.DataFrame({
        "n_purchases": np.array([n], np.int64),
        "n_distinct": np.array([len(v)], np.int64),
        "max_gap_dollars": [round(mx / 100.0, 2)],
        "gap_start": [round(at / 100.0, 2)],
        "gap_ratio": [round(mx / mean_gap, 6)]})


SQL_MAX_SPACING_STAT = """
WITH v AS (SELECT CAST(ROUND(value * 100) AS BIGINT) AS cents
           FROM events WHERE event_type = 'purchase'),
g AS (SELECT cents, COUNT(*) AS n FROM v GROUP BY 1),
d AS (SELECT cents,
             LEAD(cents) OVER (ORDER BY cents) - cents AS gap
      FROM g),
t AS (SELECT (SELECT SUM(n) FROM g) AS np,
             (SELECT COUNT(*) FROM g) AS nd,
             (SELECT MAX(cents) - MIN(cents) FROM g) * 1.0
               / ((SELECT COUNT(*) FROM g) - 1) AS mean_gap),
best AS (SELECT cents, gap FROM d WHERE gap IS NOT NULL
         ORDER BY gap DESC, cents ASC LIMIT 1)
SELECT CAST(t.np AS BIGINT) AS n_purchases,
       CAST(t.nd AS BIGINT) AS n_distinct,
       ROUND(best.gap / 100.0, 2) AS max_gap_dollars,
       ROUND(best.cents / 100.0, 2) AS gap_start,
       ROUND(best.gap / t.mean_gap, 6) AS gap_ratio
FROM t, best
"""


def q_nation_activity_coverage(sf_dir: str):
    """Per-nation activity coverage: the share of calendar days (global
    order-date span) on which the nation placed at least one order —
    the ops-monitoring liveness profile that distinguishes a thin
    steady market from a bursty one.  (nation, day) presence folds
    through the salted join; coverage is 25-row arithmetic against the
    global span."""
    from icrawler_ray.stages.joins import salted_hash_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])
    lo = pd.Timestamp(orders.min("o_orderdate"))
    hi = pd.Timestamp(orders.max("o_orderdate"))
    span = int((hi - lo).days) + 1
    o2 = orders.map_batches(
        lambda df: pd.DataFrame({
            "c_custkey": df["o_custkey"].to_numpy(),
            "d": (pd.to_datetime(df["o_orderdate"])
                  - pd.Timestamp("1990-01-01")).dt.days
            .to_numpy(np.int64)}),
        batch_format="pandas")
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        return g[["c_nationkey", "d"]].drop_duplicates()

    t = salted_hash_join(o2, cust, "c_custkey", agg_fn=agg,
                         hot_keys=np.array([], np.int64)).to_pandas() \
        .drop_duplicates(["c_nationkey", "d"]) \
        .groupby("c_nationkey").size().rename("nd").reset_index()
    nat = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    t = t.merge(nat, left_on="c_nationkey", right_on="n_nationkey")
    return pd.DataFrame({
        "n_name": t["n_name"],
        "active_days": t["nd"].astype(np.int64),
        "coverage": np.round(t["nd"].to_numpy(np.float64) / span, 6)}) \
        .sort_values("n_name").reset_index(drop=True)


SQL_NATION_ACTIVITY_COVERAGE = """
WITH span AS (SELECT date_diff('day', MIN(o_orderdate),
                               MAX(o_orderdate)) + 1 AS days
              FROM orders),
f AS (SELECT DISTINCT c.c_nationkey AS nk,
             CAST(o.o_orderdate AS DATE) AS d
      FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey),
g AS (SELECT nk, COUNT(*) AS nd FROM f GROUP BY 1)
SELECT n.n_name, CAST(g.nd AS BIGINT) AS active_days,
       ROUND(g.nd * 1.0 / span.days, 6) AS coverage
FROM g JOIN nation n ON n.n_nationkey = g.nk, span
ORDER BY n.n_name
"""


def q_zipf_abbreviation(sf_dir: str):
    """Zipf's law of abbreviation: frequent words are SHORTER —
    measured as the correlation between ln(frequency) and word length
    over the vocabulary, plus the mean-length contrast of the top-100
    words vs the rest.  Word counts fold in word-hash partitions; the
    correlation folds from per-partition moment partials (lengths are
    properties of the key, so no second scan)."""
    P = 64
    ds = _read(sf_dir, "documents", ["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        w = pd.Series(np.concatenate(
            df["text"].str.split(" ").to_numpy()), name="w")
        out = w.value_counts().rename("n").reset_index()
        out.columns = ["w", "n"]
        out["part"] = (pd.util.hash_array(out["w"].to_numpy(object))
                       % np.uint64(P)).astype(np.int32)
        return out

    def merged(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("w", as_index=False)["n"].sum()
        c["len"] = c["w"].str.len().astype(np.int64)
        return c[["w", "n", "len"]]

    vocab = ds.map_batches(partial, batch_format="pandas") \
        .groupby("part").map_groups(merged, batch_format="pandas") \
        .to_pandas()
    lf = np.log(vocab["n"].to_numpy(np.float64))
    ln = vocab["len"].to_numpy(np.float64)
    v = float(len(vocab))
    r = ((lf * ln).sum() / v - lf.sum() / v * ln.sum() / v) \
        / np.sqrt(((lf * lf).sum() / v - (lf.sum() / v) ** 2)
                  * ((ln * ln).sum() / v - (ln.sum() / v) ** 2))
    top = vocab.sort_values(["n", "w"], ascending=[False, True],
                            kind="mergesort").head(100)
    mean_top = float(top["len"].mean())
    mean_rest = float(vocab.loc[~vocab["w"].isin(set(top["w"])),
                                "len"].mean())
    return pd.DataFrame({
        "vocab": np.array([int(v)], np.int64),
        "corr_logfreq_len": [round(float(r), 6)],
        "mean_len_top100": [round(mean_top, 4)],
        "mean_len_rest": [round(mean_rest, 4)]})


SQL_ZIPF_ABBREVIATION = """
WITH w AS (SELECT unnest(string_split(text, ' ')) AS w FROM documents),
c AS (SELECT w, COUNT(*) AS n, LENGTH(w) * 1.0 AS len
      FROM w GROUP BY w),
m AS (SELECT COUNT(*) * 1.0 AS v, SUM(LN(n * 1.0)) AS sf,
             SUM(len) AS sl, SUM(LN(n * 1.0) * LN(n * 1.0)) AS sff,
             SUM(len * len) AS sll, SUM(LN(n * 1.0) * len) AS sfl
      FROM c),
top AS (SELECT w, len FROM c ORDER BY n DESC, w ASC LIMIT 100),
tt AS (SELECT AVG(len) AS mt FROM top),
rr AS (SELECT AVG(c.len) AS mr FROM c
       WHERE c.w NOT IN (SELECT w FROM top))
SELECT CAST(m.v AS BIGINT) AS vocab,
       ROUND((m.sfl / m.v - (m.sf / m.v) * (m.sl / m.v))
             / SQRT((m.sff / m.v - (m.sf / m.v) * (m.sf / m.v))
                    * (m.sll / m.v - (m.sl / m.v) * (m.sl / m.v))), 6)
         AS corr_logfreq_len,
       ROUND(tt.mt, 4) AS mean_len_top100,
       ROUND(rr.mr, 4) AS mean_len_rest
FROM m, tt, rr
"""


def q_menzerath_law(sf_dir: str):
    """Menzerath–Altmann law: the LONGER the construct (sentence, in
    words), the SHORTER its constituents (mean word length) — measured
    as the correlation between sentence word-count and mean word
    length over all sentences.  Per-batch sentence folds (period
    split), correlation from moment partials."""
    ds = _read(sf_dir, "documents", ["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows_n, rows_m = [], []
        for text in df["text"]:
            for sent in text.split("."):
                ws = [w for w in sent.split(" ") if w]
                if len(ws) >= 2:
                    rows_n.append(len(ws))
                    rows_m.append(sum(len(w) for w in ws) / len(ws))
        x = np.asarray(rows_n, np.float64)
        y = np.asarray(rows_m, np.float64)
        return pd.DataFrame({
            "k": [len(x)], "sx": [x.sum()], "sy": [y.sum()],
            "sxx": [(x * x).sum()], "syy": [(y * y).sum()],
            "sxy": [(x * y).sum()]})

    mo = ds.map_batches(partial, batch_format="pandas").to_pandas().sum()
    k = float(mo["k"])
    sx, sy = float(mo["sx"]), float(mo["sy"])
    sxx, syy, sxy = (float(mo["sxx"]), float(mo["syy"]),
                     float(mo["sxy"]))
    r = (sxy / k - (sx / k) * (sy / k)) \
        / np.sqrt((sxx / k - (sx / k) ** 2)
                  * (syy / k - (sy / k) ** 2))
    return pd.DataFrame({
        "n_sentences": np.array([int(k)], np.int64),
        "mean_sent_words": [round(sx / k, 4)],
        "menzerath_corr": [round(float(r), 6)]})


SQL_MENZERATH_LAW = """
WITH s AS (SELECT unnest(string_split(text, '.')) AS sent
           FROM documents),
w AS (SELECT sent,
             list_filter(string_split(sent, ' '),
                         x -> LENGTH(x) > 0) AS ws
      FROM s),
f AS (SELECT len(ws) * 1.0 AS x,
             list_sum(list_transform(ws, x -> LENGTH(x))) * 1.0
               / len(ws) AS y
      FROM w WHERE len(ws) >= 2),
m AS (SELECT COUNT(*) * 1.0 AS k, SUM(x) AS sx, SUM(y) AS sy,
             SUM(x * x) AS sxx, SUM(y * y) AS syy, SUM(x * y) AS sxy
      FROM f)
SELECT CAST(k AS BIGINT) AS n_sentences,
       ROUND(sx / k, 4) AS mean_sent_words,
       ROUND((sxy / k - (sx / k) * (sy / k))
             / SQRT((sxx / k - (sx / k) * (sx / k))
                    * (syy / k - (sy / k) * (sy / k))), 6)
         AS menzerath_corr
FROM m
"""


def q_effective_brands(sf_dir: str):
    """Numbers-equivalent market concentration: the effective brand
    count by entropy (e^H, Adelman) and by inverse-HHI — 'this market
    behaves like N equal brands', the IO-economics reading of the
    concentration family.  Brand revenue folds through the salted part
    join; both equivalents are 25-row arithmetic."""
    from icrawler_ray.stages.joins import salted_hash_join

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice"]) \
        .map_batches(
            lambda df: pd.DataFrame({
                "p_partkey": df["l_partkey"].to_numpy(),
                "cents": np.round(df["l_extendedprice"].to_numpy() * 100)
                .astype(np.int64)}),
            batch_format="pandas")
    part = _read(sf_dir, "part", ["p_partkey", "p_brand"])

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("p_brand", as_index=False)["cents"].sum()

    t = salted_hash_join(li, part, "p_partkey", agg_fn=agg,
                         hot_keys=np.array([], np.int64)).to_pandas() \
        .groupby("p_brand", as_index=False)["cents"].sum()
    s = t["cents"].to_numpy(np.float64)
    p = s / s.sum()
    h = float(-(p * np.log(p)).sum())
    inv_hhi = 1.0 / float((p * p).sum())
    return pd.DataFrame({
        "k_brands": np.array([len(p)], np.int64),
        "effective_entropy": [round(float(np.exp(h)), 4)],
        "effective_inv_hhi": [round(inv_hhi, 4)]})


SQL_EFFECTIVE_BRANDS = """
WITH r AS (SELECT p.p_brand,
                  SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT))
                    * 1.0 AS s
           FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
           GROUP BY 1),
t AS (SELECT SUM(s) AS tot, COUNT(*) AS k FROM r),
m AS (SELECT -SUM((r.s / t.tot) * LN(r.s / t.tot)) AS h,
             1.0 / SUM((r.s / t.tot) * (r.s / t.tot)) AS ih,
             MIN(t.k) AS k
      FROM r, t)
SELECT CAST(k AS BIGINT) AS k_brands,
       ROUND(EXP(h), 4) AS effective_entropy,
       ROUND(ih, 4) AS effective_inv_hhi
FROM m
"""


def q_isolation_index_hours(sf_dir: str):
    """Exposure/isolation indices over the 24 hours: the purchase
    isolation xP*x = Σ_h (x_h/X)(x_h/t_h) — the probability a
    purchase's random hour-mate is another purchase — and its exposure
    to clicks xP*y, the demography pair completing the Duncan
    dissimilarity view.  One 24-bounded fold."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t_us = df["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        return pd.DataFrame({
            "h": (t_us // 3_600_000_000) % 24,
            "x": (df["event_type"] == "purchase").to_numpy()
            .astype(np.int64),
            "y": (df["event_type"] == "click").to_numpy()
            .astype(np.int64), "n": 1}) \
            .groupby("h", as_index=False).sum()

    t = ds.map_batches(partial, batch_format="pandas").to_pandas() \
        .groupby("h", as_index=False).sum()
    x = t["x"].to_numpy(np.float64)
    y = t["y"].to_numpy(np.float64)
    tot = t["n"].to_numpy(np.float64)
    xx = float((x / x.sum() * (x / tot)).sum())
    xy = float((x / x.sum() * (y / tot)).sum())
    return pd.DataFrame({
        "n_purchases": np.array([int(x.sum())], np.int64),
        "isolation_xx": [round(xx, 6)],
        "exposure_xy": [round(xy, 6)]})


SQL_ISOLATION_INDEX_HOURS = """
WITH g AS (SELECT (epoch_us(ts) // 3600000000) % 24 AS h,
                  SUM(CASE WHEN event_type = 'purchase'
                           THEN 1 ELSE 0 END) * 1.0 AS x,
                  SUM(CASE WHEN event_type = 'click'
                           THEN 1 ELSE 0 END) * 1.0 AS y,
                  COUNT(*) * 1.0 AS n
           FROM events GROUP BY 1),
t AS (SELECT SUM(x) AS xt FROM g)
SELECT CAST(t.xt AS BIGINT) AS n_purchases,
       ROUND(SUM((g.x / t.xt) * (g.x / g.n)), 6) AS isolation_xx,
       ROUND(SUM((g.x / t.xt) * (g.y / g.n)), 6) AS exposure_xy
FROM g, t GROUP BY t.xt
"""


def _nation_weekend_effects(sf_dir: str):
    """Shared fold for the meta-analysis family: per-nation weekend
    minus weekday mean order value (cents) with its squared SE, via
    the salted customer join."""
    from icrawler_ray.stages.joins import salted_hash_join

    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_totalprice", "o_orderdate"]) \
        .map_batches(
            lambda df: pd.DataFrame({
                "c_custkey": df["o_custkey"].to_numpy(),
                "wk": (pd.to_datetime(df["o_orderdate"]).dt.dayofweek
                       >= 5).to_numpy().astype(np.int64),
                "cents": np.round(df["o_totalprice"].to_numpy() * 100)
                .astype(np.int64)}),
            batch_format="pandas")
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        v = g["cents"].to_numpy(np.float64)
        return g.assign(n=1, s=g["cents"], ss=v * v) \
            .groupby(["c_nationkey", "wk"], as_index=False)[
                ["n", "s", "ss"]].sum()

    t = salted_hash_join(orders, cust, "c_custkey", agg_fn=agg,
                         hot_keys=np.array([], np.int64)).to_pandas() \
        .groupby(["c_nationkey", "wk"], as_index=False)[
            ["n", "s", "ss"]].sum()
    piv = t.pivot_table(index="c_nationkey", columns="wk",
                        values=["n", "s", "ss"], fill_value=0,
                        aggfunc="sum")
    n1 = piv[("n", 1)].to_numpy(np.float64)
    n0 = piv[("n", 0)].to_numpy(np.float64)
    m1 = piv[("s", 1)].to_numpy(np.float64) / n1
    m0 = piv[("s", 0)].to_numpy(np.float64) / n0
    v1 = (piv[("ss", 1)].to_numpy(np.float64) - n1 * m1 * m1) / (n1 - 1)
    v0 = (piv[("ss", 0)].to_numpy(np.float64) - n0 * m0 * m0) / (n0 - 1)
    return m1 - m0, v1 / n1 + v0 / n0


def q_eggers_test(sf_dir: str):
    """Egger's funnel-plot asymmetry over the 25 nations-as-studies:
    regress each weekend effect's z (d/se) on its precision (1/se) —
    an intercept far from zero says small (imprecise) markets show
    systematically different effects, the 'small-study bias' read.
    Per-nation effects from the shared meta fold; one OLS."""
    d, se2 = _nation_weekend_effects(sf_dir)
    se = np.sqrt(se2)
    y = d / se
    x = 1.0 / se
    n = float(len(y))
    xb, yb = x.sum() / n, y.sum() / n
    sxx = ((x - xb) ** 2).sum()
    b = ((x - xb) * (y - yb)).sum() / sxx
    a = yb - b * xb
    e = y - (a + b * x)
    s2 = (e * e).sum() / (n - 2.0)
    se_a = np.sqrt(s2 * (1.0 / n + xb * xb / sxx))
    return pd.DataFrame({
        "k_nations": np.array([int(n)], np.int64),
        "egger_intercept": [round(float(a), 6)],
        "egger_t": [round(float(a / se_a), 6)]})


SQL_EGGERS_TEST_TEMPLATE = """
WITH f AS (SELECT c.c_nationkey AS nk,
                  CASE WHEN isodow(o.o_orderdate) >= 6
                       THEN 1 ELSE 0 END AS wk,
                  CAST(ROUND(o.o_totalprice * 100) AS BIGINT) AS cents
           FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey),
m AS (SELECT nk, wk, COUNT(*) * 1.0 AS n, SUM(cents) * 1.0 AS s,
             SUM(CAST(cents AS DOUBLE) * cents) AS ss
      FROM f GROUP BY 1, 2),
d AS (SELECT a.nk, (a.s / a.n - b.s / b.n) AS d,
             SQRT((a.ss - a.s * a.s / a.n) / (a.n - 1) / a.n
                  + (b.ss - b.s * b.s / b.n) / (b.n - 1) / b.n) AS se
      FROM m a JOIN m b ON b.nk = a.nk
      WHERE a.wk = 1 AND b.wk = 0),
xy AS (SELECT d / se AS y, 1.0 / se AS x FROM d),
mm AS (SELECT COUNT(*) * 1.0 AS n, SUM(x) / COUNT(*) AS xb,
              SUM(y) / COUNT(*) AS yb
       FROM xy),
s AS (SELECT SUM((xy.x - mm.xb) * (xy.x - mm.xb)) AS sxx,
             SUM((xy.x - mm.xb) * (xy.y - mm.yb)) AS sxy,
             mm.n, mm.xb, mm.yb
      FROM xy, mm GROUP BY mm.n, mm.xb, mm.yb),
ab AS (SELECT s.yb - s.sxy / s.sxx * s.xb AS a,
              s.sxy / s.sxx AS b, s.n, s.xb, s.sxx
       FROM s),
e AS (SELECT SUM((xy.y - (ab.a + ab.b * xy.x))
                 * (xy.y - (ab.a + ab.b * xy.x))) / (ab.n - 2.0)
               AS s2,
             ab.a, ab.n, ab.xb, ab.sxx
      FROM xy, ab GROUP BY ab.a, ab.n, ab.xb, ab.sxx)
SELECT CAST(n AS BIGINT) AS k_nations,
       ROUND(a, 6) AS egger_intercept,
       ROUND(a / SQRT(s2 * (1.0 / n + xb * xb / sxx)), 6) AS egger_t
FROM e
"""
SQL_EGGERS_TEST = SQL_EGGERS_TEST_TEMPLATE


def q_brunner_munzel(sf_dir: str):
    """Brunner–Munzel test (weekend vs weekday purchase values): the
    Mann–Whitney successor that stays valid under UNEQUAL variances,
    built from pooled and within-sample midranks — the relative effect
    p̂ = P(X<Y)+½P(=) rides along.  Every rank moment folds exactly
    from the value-count grid (pooled and per-group cumsums).  The
    statistic is the canonical W = n₁·n₂·(R̄₂−R̄₁) / (N·√(n₁·S₁²+n₂·S₂²)),
    S_i² the sample variance of the placements R_ik − R_ik^(i), the form
    referenced against the Brunner–Munzel t distribution; the SQL oracle
    computes the same expression."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df.loc[df["event_type"] == "purchase"]
        return pd.DataFrame({
            "wk": (pd.to_datetime(d["ts"]).dt.dayofweek >= 5)
            .to_numpy().astype(np.int64),
            "cents": np.round(d["value"].to_numpy() * 100)
            .astype(np.int64)}).groupby(["wk", "cents"],
                                        as_index=False).size() \
            .rename(columns={"size": "n"})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    cnt = parts.groupby(["wk", "cents"], as_index=False)["n"].sum()
    piv = cnt.pivot_table(index="cents", columns="wk", values="n",
                          fill_value=0, aggfunc="sum").sort_index()
    a = piv.get(1, pd.Series(0, index=piv.index)).to_numpy(np.float64)
    b = piv.get(0, pd.Series(0, index=piv.index)).to_numpy(np.float64)
    tot = a + b
    n1, n2 = a.sum(), b.sum()
    nn = n1 + n2
    mid = (np.cumsum(tot) - tot) + (tot + 1.0) / 2.0
    mid1 = (np.cumsum(a) - a) + (a + 1.0) / 2.0
    mid2 = (np.cumsum(b) - b) + (b + 1.0) / 2.0
    r1 = (a * mid).sum() / n1
    r2 = (b * mid).sum() / n2
    s1 = (a * (mid - mid1 - r1 + (n1 + 1.0) / 2.0) ** 2).sum() \
        / (n1 - 1.0)
    s2 = (b * (mid - mid2 - r2 + (n2 + 1.0) / 2.0) ** 2).sum() \
        / (n2 - 1.0)
    w = n1 * n2 * (r2 - r1) / (nn * np.sqrt(n1 * s1 + n2 * s2))
    p_hat = (r2 - (n2 + 1.0) / 2.0) / n1
    return pd.DataFrame({
        "n_weekend": np.array([int(n1)], np.int64),
        "n_weekday": np.array([int(n2)], np.int64),
        "relative_effect": [round(float(p_hat), 6)],
        "bm_w": [round(float(w), 6)]})


SQL_BRUNNER_MUNZEL = """
WITH v AS (SELECT CASE WHEN isodow(ts) >= 6 THEN 1 ELSE 0 END AS wk,
                  CAST(ROUND(value * 100) AS BIGINT) AS cents
           FROM events WHERE event_type = 'purchase'),
c AS (SELECT cents,
             SUM(CASE WHEN wk = 1 THEN 1 ELSE 0 END) * 1.0 AS a,
             SUM(CASE WHEN wk = 0 THEN 1 ELSE 0 END) * 1.0 AS b
      FROM v GROUP BY cents),
m AS (SELECT a, b,
             (SUM(a + b) OVER (ORDER BY cents) - (a + b))
               + (a + b + 1.0) / 2.0 AS mid,
             (SUM(a) OVER (ORDER BY cents) - a) + (a + 1.0) / 2.0
               AS mid1,
             (SUM(b) OVER (ORDER BY cents) - b) + (b + 1.0) / 2.0
               AS mid2
      FROM c),
t AS (SELECT SUM(a) AS n1, SUM(b) AS n2,
             SUM(a * mid) / SUM(a) AS r1,
             SUM(b * mid) / SUM(b) AS r2
      FROM m),
s AS (SELECT SUM(m.a * (m.mid - m.mid1 - t.r1 + (t.n1 + 1.0) / 2.0)
                     * (m.mid - m.mid1 - t.r1 + (t.n1 + 1.0) / 2.0))
               / (t.n1 - 1.0) AS s1,
             SUM(m.b * (m.mid - m.mid2 - t.r2 + (t.n2 + 1.0) / 2.0)
                     * (m.mid - m.mid2 - t.r2 + (t.n2 + 1.0) / 2.0))
               / (t.n2 - 1.0) AS s2,
             t.n1, t.n2, t.r1, t.r2
      FROM m, t GROUP BY t.n1, t.n2, t.r1, t.r2)
SELECT CAST(n1 AS BIGINT) AS n_weekend,
       CAST(n2 AS BIGINT) AS n_weekday,
       ROUND((r2 - (n2 + 1.0) / 2.0) / n1, 6) AS relative_effect,
       ROUND(n1 * n2 * (r2 - r1) / ((n1 + n2) * SQRT(n1 * s1 + n2 * s2)), 6)
         AS bm_w
FROM s
"""


def q_cv_delta_ci(sf_dir: str):
    """Delta-method 95% interval for the coefficient of variation of
    order value: se(ĉv) ≈ ĉv·√(1/(2n) + ĉv²/n) — the standard error a
    point CV never ships with but every comparison needs.  One exact
    moment fold."""
    ds = _read(sf_dir, "orders", ["o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = np.round(df["o_totalprice"].to_numpy() * 100) \
            .astype(np.int64)
        f = v.astype(np.float64)
        return pd.DataFrame({"n": [len(v)], "s": [int(v.sum())],
                             "ss": [(f * f).sum()]})

    m = ds.map_batches(partial, batch_format="pandas").to_pandas().sum()
    n = float(m["n"])
    mu = float(m["s"]) / n
    sd = np.sqrt((float(m["ss"]) - float(m["s"]) * mu) / (n - 1.0))
    cv = sd / mu
    se = cv * np.sqrt(1.0 / (2.0 * n) + cv * cv / n)
    return pd.DataFrame({
        "n_orders": np.array([int(n)], np.int64),
        "cv": [round(float(cv), 6)],
        "cv_ci_low": [round(float(cv - 1.96 * se), 6)],
        "cv_ci_high": [round(float(cv + 1.96 * se), 6)]})


SQL_CV_DELTA_CI = """
WITH m AS (SELECT COUNT(*) * 1.0 AS n,
                  SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) * 1.0
                    AS s,
                  SUM(CAST(CAST(ROUND(o_totalprice * 100) AS BIGINT)
                           AS DOUBLE)
                      * CAST(ROUND(o_totalprice * 100) AS BIGINT))
                    AS ss
           FROM orders),
c AS (SELECT n,
             SQRT((ss - s * (s / n)) / (n - 1.0)) / (s / n) AS cv
      FROM m),
s AS (SELECT n, cv,
             cv * SQRT(1.0 / (2.0 * n) + cv * cv / n) AS se
      FROM c)
SELECT CAST(n AS BIGINT) AS n_orders,
       ROUND(cv, 6) AS cv,
       ROUND(cv - 1.96 * se, 6) AS cv_ci_low,
       ROUND(cv + 1.96 * se, 6) AS cv_ci_high
FROM s
"""


def q_pythagorean_means(sf_dir: str):
    """The three Pythagorean means of order value — arithmetic,
    geometric (exp of mean log), harmonic (inverse of mean inverse) —
    with the AM/GM and GM/HM gap ratios that quantify right-skew on a
    ratio scale (all 1 iff the values are constant).  One fold of
    (Σ, Σln, Σ1/x) exact-input partials."""
    ds = _read(sf_dir, "orders", ["o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = np.round(df["o_totalprice"].to_numpy() * 100) \
            .astype(np.int64).astype(np.float64)
        return pd.DataFrame({
            "n": [len(v)], "s": [v.sum()],
            "sl": [np.log(v).sum()], "si": [(1.0 / v).sum()]})

    m = ds.map_batches(partial, batch_format="pandas").to_pandas().sum()
    n = float(m["n"])
    am = float(m["s"]) / n
    gm = float(np.exp(float(m["sl"]) / n))
    hm = n / float(m["si"])
    return pd.DataFrame({
        "arith_mean": [round(am / 100.0, 4)],
        "geom_mean": [round(gm / 100.0, 4)],
        "harm_mean": [round(hm / 100.0, 4)],
        "am_gm_ratio": [round(am / gm, 6)],
        "gm_hm_ratio": [round(gm / hm, 6)]})


SQL_PYTHAGOREAN_MEANS = """
WITH m AS (SELECT COUNT(*) * 1.0 AS n,
                  SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT) * 1.0)
                    AS s,
                  SUM(LN(CAST(ROUND(o_totalprice * 100) AS BIGINT)
                         * 1.0)) AS sl,
                  SUM(1.0 / (CAST(ROUND(o_totalprice * 100) AS BIGINT)
                             * 1.0)) AS si
           FROM orders),
c AS (SELECT s / n AS am, EXP(sl / n) AS gm, n / si AS hm FROM m)
SELECT ROUND(am / 100.0, 4) AS arith_mean,
       ROUND(gm / 100.0, 4) AS geom_mean,
       ROUND(hm / 100.0, 4) AS harm_mean,
       ROUND(am / gm, 6) AS am_gm_ratio,
       ROUND(gm / hm, 6) AS gm_hm_ratio
FROM c
"""


def q_variance_homogeneity_quick(sf_dir: str):
    """The quick variance-homogeneity screens across market segments:
    Hartley's F_max = s²_max/s²_min and Cochran's C = s²_max/Σs² —
    the back-of-envelope pair run before the formal Bartlett/
    Brown–Forsythe tests.  One per-segment exact moment fold."""
    from icrawler_ray.stages.joins import salted_hash_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]) \
        .map_batches(
            lambda df: pd.DataFrame({
                "c_custkey": df["o_custkey"].to_numpy(),
                "cents": np.round(df["o_totalprice"].to_numpy() * 100)
                .astype(np.int64)}),
            batch_format="pandas")
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        v = g["cents"].to_numpy(np.float64)
        return g.assign(n=1, s=g["cents"], ss=v * v) \
            .groupby("c_mktsegment", as_index=False)[
                ["n", "s", "ss"]].sum()

    t = salted_hash_join(orders, cust, "c_custkey", agg_fn=agg,
                         hot_keys=np.array([], np.int64)).to_pandas() \
        .groupby("c_mktsegment", as_index=False)[["n", "s", "ss"]].sum()
    n = t["n"].to_numpy(np.float64)
    s = t["s"].to_numpy(np.float64)
    ss = t["ss"].to_numpy(np.float64)
    vi = (ss - s * s / n) / (n - 1.0)
    return pd.DataFrame({
        "k_groups": np.array([len(t)], np.int64),
        "hartley_fmax": [round(float(vi.max() / vi.min()), 6)],
        "cochran_c": [round(float(vi.max() / vi.sum()), 6)]})


SQL_VARIANCE_HOMOGENEITY_QUICK = """
WITH f AS (SELECT c.c_mktsegment AS seg,
                  CAST(ROUND(o.o_totalprice * 100) AS BIGINT) AS cents
           FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey),
g AS (SELECT seg, COUNT(*) * 1.0 AS n, SUM(cents) * 1.0 AS s,
             SUM(CAST(cents AS DOUBLE) * cents) AS ss
      FROM f GROUP BY 1),
v AS (SELECT (ss - s * s / n) / (n - 1.0) AS vi FROM g)
SELECT CAST(COUNT(*) AS BIGINT) AS k_groups,
       ROUND(MAX(vi) / MIN(vi), 6) AS hartley_fmax,
       ROUND(MAX(vi) / SUM(vi), 6) AS cochran_c
FROM v
"""


QUERIES = {
    "agg_lineitem": q_agg_lineitem,
    "join_revenue_by_nation": q_join_revenue_by_nation,
    "topk_orders": q_topk_orders,
    "filter_project_lineitem": q_filter_project_lineitem,
    "events_hourly": q_events_hourly,
    "events_sessionize": q_events_sessionize,
    "seed_window": q_seed_window,
    "expand_google": q_expand_google,
    "baidu_decode": q_baidu_decode,
    "classify_urls": q_classify_urls,
    "canonicalize_urls": q_canonicalize_urls,
    "politeness_schedule": q_politeness_schedule,
    "filename_assign": q_filename_assign,
    "size_gate": q_size_gate,
    "interleaved_spans": q_interleaved_spans,
    "dedup_exact": q_dedup_exact,
    "ngram_novelty": q_ngram_novelty,
    "text_stats": q_text_stats,
    "ngram_jaccard_pairs": q_ngram_jaccard_pairs,
    "minhash_lsh_pairs": q_minhash_lsh_pairs,
    "label_cohesion": q_label_cohesion,
    "langid": q_langid,
    "token_counts": q_token_counts,
    "quality_filter": q_quality_filter,
    "inverted_index": q_inverted_index,
    "knn_bruteforce": q_knn_bruteforce,
    "embedding_near_dup": q_embedding_near_dup,
    "media_pipeline": q_media_pipeline,
    "type_cooccurrence_lift": q_type_cooccurrence_lift,
    "events_asof_join": q_events_asof_join,
    "range_join_orders": q_range_join_orders,
    "robots_gate": q_robots_gate,
    "hll_distinct": q_hll_distinct,
    "link_degree": q_link_degree,
    "pagerank": q_pagerank,
    "cc_labels": q_cc_labels,
    "clean_text": q_clean_text,
    "decontaminate": q_decontaminate,
    "repetition_stats": q_repetition_stats,
    "bm25_topk": q_bm25_topk,
    "dedup_cluster_keep": q_dedup_cluster_keep,
    "gopher_rules": q_gopher_rules,
    "bfs_depth": q_bfs_depth,
    "part_affinity_topk": q_part_affinity_topk,
    "adamic_adar": q_adamic_adar,
    "host_budget": q_host_budget,
    "mutual_knn": q_mutual_knn,
    "coreset_kcenter": q_coreset_kcenter,
    # window rotation (r5 close): two of this round's new operator
    # families stand in the driver's 50-query gate; the displaced
    # entries sit directly below and stay CI-pinned by
    # tests/test_oracle_sweep.py
    "bh_fdr_weekend_nation": q_bh_fdr_weekend_nation,
    "lsh_recall_at_k": q_lsh_recall_at_k,
    "redirect_resolve": q_redirect_resolve,
    "source_drift": q_source_drift,
    "stratified_sample": q_stratified_sample,
    "mixture_weights": q_mixture_weights,
    "length_quantiles": q_length_quantiles,
    "tfidf_top_terms": q_tfidf_top_terms,
    "anti_join_customers": q_anti_join_customers,
    "events_pivot_hourly": q_events_pivot_hourly,
    # ---- below the driver's 50-entry window: family variants ----
    "word_entropy": q_word_entropy,
    "jsonl_roundtrip": q_jsonl_roundtrip,
    "semantic_dedup": q_semantic_dedup,
    "topk_per_group": q_topk_per_group,
    "embedding_dim_stats": q_embedding_dim_stats,
    "shuffle_positions": q_shuffle_positions,
    "bloom_semi_join": q_bloom_semi_join,
    "hll_distinct_by_type": q_hll_distinct_by_type,
    "paragraph_dedup": q_paragraph_dedup,
    "quality_ntiles": q_quality_ntiles,
    "approx_quantiles_sketch": q_approx_quantiles_sketch,
    "training_tape": q_training_tape,
    "weighted_sample": q_weighted_sample,
    "events_daily_delta": q_events_daily_delta,
    "rolling_fingerprint": q_rolling_fingerprint,
    "hash_sample": q_hash_sample,
    "expand_bing": q_expand_bing,
    "expand_baidu": q_expand_baidu,
    "lang_quality_agg": q_lang_quality_agg,
    "knn_lsh": q_knn_lsh,
    "knn_ivf": q_knn_ivf,
    "label_centroid_norm": q_label_centroid_norm,
    "media_frame_sample": q_media_frame_sample,
    "audio_features": q_audio_features,
    "length_quantiles_by_lang": q_length_quantiles_by_lang,
    "heavy_hitters": q_heavy_hitters,
    "cross_source_overlap": q_cross_source_overlap,
    "triangle_count": q_triangle_count,
    "join_salted": q_join_salted,
    "dsir_weights": q_dsir_weights,
    "source_kl": q_source_kl,
    "cdc_chunk_dedup": q_cdc_chunk_dedup,
    "hits_scores": q_hits,
    "rate_anomaly": q_rate_anomaly,
    "reservoir_per_group": q_reservoir_per_group,
    "embedding_pca": q_embedding_pca,
    "cohort_retention": q_cohort_retention,
    "winnow_pairs": q_winnow_pairs,
    "kcore": q_kcore,
    "langid_confusion": q_langid_confusion,
    "percent_rank_by_lang": q_percent_rank,
    "incremental_dedup": q_incremental_dedup,
    "charlm_quality": q_charlm_quality,
    "hash_split": q_hash_split,
    "json_props_stats": q_json_props_stats,
    "rollup_counts": q_rollup_counts,
    "partitioned_write": q_partitioned_write,
    "countmin_freq": q_countmin_freq,
    "random_projection": q_random_projection,
    "bucket_padding_waste": q_bucket_padding_waste,
    "precedence_dedup": q_precedence_dedup,
    "snm_pairs": q_snm_pairs,
    "substring_dedup": q_substring_dedup,
    "nb_quality": q_nb_quality,
    "knn_pq": q_knn_pq,
    "bpe_merges": q_bpe_merges,
    "bpe_encode": q_bpe_encode,
    "zipf_slope": q_zipf_slope,
    "intra_doc_dedup": q_intra_doc_dedup,
    "pii_redact": q_pii_redact,
    "assortativity": q_assortativity,
    "bootstrap_ci": q_bootstrap_ci,
    "keyword_tag": q_keyword_tag,
    "nb_calibration": q_nb_calibration,
    "corpus_refinery": q_corpus_refinery,
    "multimodal_pack": q_multimodal_pack,
    "left_outer_orders": q_left_outer_orders,
    "late_events": q_late_events,
    "csv_roundtrip": q_csv_roundtrip,
    "lpa_communities": q_lpa_communities,
    "edit_verify_pairs": q_edit_verify_pairs,
    "quantile_blend": q_quantile_blend,
    "cumulative_users": q_cumulative_users,
    "corr_len_ttr": q_corr_len_ttr,
    "winsorize_lengths": q_winsorize_lengths,
    "local_clustering": q_local_clustering,
    "containment_join": q_containment_join,
    "harmonic_centrality": q_harmonic_centrality,
    "random_walks": q_random_walks,
    "chunk_overlap": q_chunk_overlap,
    "ppr_seeds": q_ppr_seeds,
    "source_overlap": q_source_overlap,
    "token_budget": q_token_budget,
    "kmeans_assign": q_kmeans_assign,
    "sequence_pack": q_sequence_pack,
    "recrawl_schedule": q_recrawl_schedule,
    "url_templates": q_url_templates,
    "trap_audit": q_trap_audit,
    "column_profile": q_column_profile,
    "hard_negatives": q_hard_negatives,
    "neighbor_jaccard": q_neighbor_jaccard,
    "host_latency_slo": q_host_latency_slo,
    "host_reputation": q_host_reputation,
    "value_histogram": q_value_histogram,
    "weighted_median": q_weighted_median,
    "stopword_coverage": q_stopword_coverage,
    "trending_types": q_trending_types,
    "bigram_pmi": q_bigram_pmi,
    "top_terms": q_top_terms,
    "range_search": q_range_search,
    "rrf_fusion": q_rrf_fusion,
    "hapax_ratio": q_hapax_ratio,
    "dup_ratio_by_source": q_dup_ratio_by_source,
    "edge_reciprocity": q_edge_reciprocity,
    "mad_outliers": q_mad_outliers,
    "vocab_coverage": q_vocab_coverage,
    "weighted_pagerank": q_weighted_pagerank,
    "user_path_prefix": q_user_path_prefix,
    "quantization_error": q_quantization_error,
    "gini_concentration": q_gini_concentration,
    "hour_profile": q_hour_profile,
    "degree_powerlaw": q_degree_powerlaw,
    "transition_latency": q_transition_latency,
    "knn_label_accuracy": q_knn_label_accuracy,
    "brand_price_profile": q_brand_price_profile,
    "priority_mix_monthly": q_priority_mix_monthly,
    "kmv_distinct": q_kmv_distinct,
    "lognormal_fit": q_lognormal_fit,
    "negsample_weights": q_negsample_weights,
    "type_hour_mi": q_type_hour_mi,
    "rare_category_merge": q_rare_category_merge,
    "vocab_churn": q_vocab_churn,
    "lines_per_order_dist": q_lines_per_order_dist,
    "discount_revenue_curve": q_discount_revenue_curve,
    "supplier_region_acctbal": q_supplier_region_acctbal,
    "label_centroid_affinity": q_label_centroid_affinity,
    "status_priority_chi2": q_status_priority_chi2,
    "lang_embedding_norm": q_lang_embedding_norm,
    "dup_cluster_sizes": q_dup_cluster_sizes,
    "head_mass_terms": q_head_mass_terms,
    "hourly_autocorr": q_hourly_autocorr,
    "tokens_per_char": q_tokens_per_char,
    "weekend_effect": q_weekend_effect,
    "embedding_outlier_dims": q_embedding_outlier_dims,
    "ship_delay_quantiles": q_ship_delay_quantiles,
    "rich_club": q_rich_club,
    "price_size_regression": q_price_size_regression,
    "revenue_mom_growth": q_revenue_mom_growth,
    "user_type_breadth": q_user_type_breadth,
    "avg_neighbor_degree": q_avg_neighbor_degree,
    "dup_rate_by_length_decile": q_dup_rate_by_length_decile,
    "q6_revenue": q_q6_revenue,
    "segment_priority_mix": q_segment_priority_mix,
    "small_quantity_revenue": q_small_quantity_revenue,
    "big_orders_having": q_big_orders_having,
    "part_spend_concentration": q_part_spend_concentration,
    "brand_supplier_variety": q_brand_supplier_variety,
    "daily_gap_fill": q_daily_gap_fill,
    "grouping_sets_events": q_grouping_sets_events,
    "brand_top_parts_dense": q_brand_top_parts_dense,
    "systematic_sample": q_systematic_sample,
    "theilsen_trend": q_theilsen_trend,
    "cusum_changepoint": q_cusum_changepoint,
    "skyline_parts": q_skyline_parts,
    "modal_hour": q_modal_hour,
    "copresence_daily": q_copresence_daily,
    "rle_compression_audit": q_rle_compression_audit,
    "weighted_balance": q_weighted_balance,
    "centered_moving_avg": q_centered_moving_avg,
    "fully_shipped_share": q_fully_shipped_share,
    "all_quarters_customers": q_all_quarters_customers,
    "trimmed_mean_orders": q_trimmed_mean_orders,
    "priority_value_kappa": q_priority_value_kappa,
    "geo_rollup_shares": q_geo_rollup_shares,
    "range_window_revenue": q_range_window_revenue,
    "wow_change": q_wow_change,
    "dup_orders_audit": q_dup_orders_audit,
    "seasonality_strength": q_seasonality_strength,
    "linenumber_gaps": q_linenumber_gaps,
    "nation_top_names": q_nation_top_names,
    "gini_mean_difference": q_gini_mean_difference,
    "type_traffic_cosine": q_type_traffic_cosine,
    "acctbal_ks_two_table": q_acctbal_ks_two_table,
    "busiest_days_by_users": q_busiest_days_by_users,
    "source_lang_cramers_v": q_source_lang_cramers_v,
    "participation_ratio": q_participation_ratio,
    "vocab_jaccard_langs": q_vocab_jaccard_langs,
    "props_k_value_curve": q_props_k_value_curve,
    "discount_by_basket_size": q_discount_by_basket_size,
    "qty_discount_heat": q_qty_discount_heat,
    "top_supplier_q15": q_top_supplier_q15,
    "q19_disjunctive_revenue": q_q19_disjunctive_revenue,
    "dominant_suppliers": q_dominant_suppliers,
    "month_end_loading": q_month_end_loading,
    "price_dispersion_cells": q_price_dispersion_cells,
    "brand_name_token_mode": q_brand_name_token_mode,
    "name_key_consistency": q_name_key_consistency,
    "hour_boundary_share": q_hour_boundary_share,
    "centroid_confusion": q_centroid_confusion,
    "discount_by_linenumber": q_discount_by_linenumber,
    "round_price_share": q_round_price_share,
    "revenue_masd": q_revenue_masd,
    "above_avg_discount_share": q_above_avg_discount_share,
    "same_day_reorders": q_same_day_reorders,
    "qty_uniformity_gof": q_qty_uniformity_gof,
    "heaps_law_fit": q_heaps_law_fit,
    "part_keyword_revenue": q_part_keyword_revenue,
    "reactivated_customers": q_reactivated_customers,
    "lexical_sophistication": q_lexical_sophistication,
    "wau_trend": q_wau_trend,
    "top_token_burstiness": q_top_token_burstiness,
    "dom_ordering_profile": q_dom_ordering_profile,
    "dominant_type_users": q_dominant_type_users,
    "order_priority_transition": q_order_priority_transition,
    "first_dow_ltv": q_first_dow_ltv,
    "monthly_arpu": q_monthly_arpu,
    "name_component_mi": q_name_component_mi,
    "vocab_gini": q_vocab_gini,
    "doc_fingerprint": q_doc_fingerprint,
    "simhash_pairs": q_simhash_pairs,
    "benford_audit": q_benford_audit,
    "events_sliding_window": q_events_sliding_window,
    "crawl_urllist": q_crawl_urllist,
    "crawl_google": q_crawl_google,
    "crawl_flickr": q_crawl_flickr,
    "crawl_greedy": q_crawl_greedy,
    "frontier_seen_filter": q_frontier_seen_filter,
    "brand_discount_elasticity": q_brand_discount_elasticity,
    "exit_type_share": q_exit_type_share,
    "order_value_cv_by_nation": q_order_value_cv_by_nation,
    "char_class_profile": q_char_class_profile,
    "acf_daily_revenue": q_acf_daily_revenue,
    "ewma_daily_value": q_ewma_daily_value,
    "prefix_dup_rate": q_prefix_dup_rate,
    "pair_cosine_hist": q_pair_cosine_hist,
    "orders_per_customer_hist": q_orders_per_customer_hist,
    "brand_price_size_slopes": q_brand_price_size_slopes,
    "sentence_stats_by_lang": q_sentence_stats_by_lang,
    "odds_ratio_weekend_purchase": q_odds_ratio_weekend_purchase,
    "name_verbosity_premium": q_name_verbosity_premium,
    "supplier_nation_tax": q_supplier_nation_tax,
    "interarrival_cv_by_type": q_interarrival_cv_by_type,
    "effective_price_quantiles": q_effective_price_quantiles,
    "rounding_drift_audit": q_rounding_drift_audit,
    "burrows_delta": q_burrows_delta,
    "log_odds_terms": q_log_odds_terms,
    "fd_sturges_bins": q_fd_sturges_bins,
    "good_turing_mass": q_good_turing_mass,
    "record_days": q_record_days,
    "hill_tail_index": q_hill_tail_index,
    "clustering_agreement": q_clustering_agreement,
    "juilland_dispersion": q_juilland_dispersion,
    "jsd_source_langs": q_jsd_source_langs,
    "process_capability": q_process_capability,
    "cochran_q_weeks": q_cochran_q_weeks,
    "rarefaction_vocab": q_rarefaction_vocab,
    "u_chart_errors": q_u_chart_errors,
    "german_tank_estimate": q_german_tank_estimate,
    "honore_r_sources": q_honore_r_sources,
    "kish_neff": q_kish_neff,
    "mase_naive7": q_mase_naive7,
    "diebold_mariano": q_diebold_mariano,
    "simhash_pr_eval": q_simhash_pr_eval,
    "silhouette_kmeans": q_silhouette_kmeans,
    "atkinson_index": q_atkinson_index,
    "duncan_dissimilarity": q_duncan_dissimilarity,
    "yule_k": q_yule_k,
    "bigram_perplexity": q_bigram_perplexity,
    "cohens_h": q_cohens_h,
    "gunning_fog": q_gunning_fog,
    "kpss_lite_daily": q_kpss_lite_daily,
    "cms_overcount_audit": q_cms_overcount_audit,
    "holm_rejections": q_holm_rejections,
    "ovl_weekend": q_ovl_weekend,
    "mean_log_deviation": q_mean_log_deviation,
    "bucket_occupancy_audit": q_bucket_occupancy_audit,
    "dunning_g2_terms": q_dunning_g2_terms,
    "hill_numbers_vocab": q_hill_numbers_vocab,
    "chao_shen_entropy": q_chao_shen_entropy,
    "brunet_sichel": q_brunet_sichel,
    "pietra_index": q_pietra_index,
    "expected_shortfall_daily": q_expected_shortfall_daily,
    "omega_ratio_daily": q_omega_ratio_daily,
    "ulcer_index_daily": q_ulcer_index_daily,
    "rayleigh_hour_test": q_rayleigh_hour_test,
    "storey_pi0": q_storey_pi0,
    "max_spacing_stat": q_max_spacing_stat,
    "nation_activity_coverage": q_nation_activity_coverage,
    "zipf_abbreviation": q_zipf_abbreviation,
    "menzerath_law": q_menzerath_law,
    "effective_brands": q_effective_brands,
    "isolation_index_hours": q_isolation_index_hours,
    "eggers_test": q_eggers_test,
    "brunner_munzel": q_brunner_munzel,
    "cv_delta_ci": q_cv_delta_ci,
    "pythagorean_means": q_pythagorean_means,
    "variance_homogeneity_quick": q_variance_homogeneity_quick,
}

ORACLE_SQL = {
    "agg_lineitem": SQL_AGG_LINEITEM,
    "join_revenue_by_nation": SQL_JOIN_REVENUE_BY_NATION,
    "topk_orders": SQL_TOPK_ORDERS,
    "filter_project_lineitem": SQL_FILTER_PROJECT_LINEITEM,
    "events_hourly": SQL_EVENTS_HOURLY,
    "events_sessionize": SQL_EVENTS_SESSIONIZE,
    "seed_window": SQL_SEED_WINDOW,
    "expand_google": SQL_EXPAND_GOOGLE,
    "expand_bing": SQL_EXPAND_BING,
    "expand_baidu": SQL_EXPAND_BAIDU,
    "baidu_decode": SQL_BAIDU_DECODE,
    "classify_urls": SQL_CLASSIFY_URLS,
    "canonicalize_urls": SQL_CANONICALIZE_URLS,
    "politeness_schedule": SQL_POLITENESS_SCHEDULE,
    "filename_assign": SQL_FILENAME_ASSIGN,
    "size_gate": SQL_SIZE_GATE,
    "interleaved_spans": SQL_INTERLEAVED_SPANS,
    "dedup_exact": SQL_DEDUP_EXACT,
    "doc_fingerprint": SQL_DOC_FINGERPRINT,
    "text_stats": SQL_TEXT_STATS,
    "lang_quality_agg": SQL_LANG_QUALITY_AGG,
    "ngram_jaccard_pairs": SQL_NGRAM_JACCARD_PAIRS,
    "minhash_lsh_pairs": SQL_MINHASH_LSH_PAIRS,
    "simhash_pairs": SQL_SIMHASH_PAIRS,
    "knn_bruteforce": SQL_KNN_BRUTEFORCE,
    "knn_lsh": SQL_KNN_LSH,
    "knn_ivf": SQL_KNN_IVF,
    "label_centroid_norm": SQL_LABEL_CENTROID_NORM,
    "embedding_near_dup": SQL_EMBEDDING_NEAR_DUP,
    "media_pipeline": SQL_MEDIA_PIPELINE,
    "media_frame_sample": SQL_MEDIA_FRAME_SAMPLE,
    "audio_features": SQL_AUDIO_FEATURES,
    "events_sliding_window": SQL_EVENTS_SLIDING_WINDOW,
    "events_asof_join": SQL_EVENTS_ASOF_JOIN,
    "range_join_orders": SQL_RANGE_JOIN_ORDERS,
    "robots_gate": SQL_ROBOTS_GATE,
    "langid": SQL_LANGID,
    "token_counts": SQL_TOKEN_COUNTS,
    "quality_filter": SQL_QUALITY_FILTER,
    "rolling_fingerprint": SQL_ROLLING_FINGERPRINT,
    "hll_distinct": SQL_HLL_DISTINCT,
    "link_degree": SQL_LINK_DEGREE,
    "pagerank": SQL_PAGERANK,
    "cc_labels": SQL_CC_LABELS,
    "clean_text": SQL_CLEAN_TEXT,
    "decontaminate": SQL_DECONTAMINATE,
    "repetition_stats": SQL_REPETITION_STATS,
    "hash_sample": SQL_HASH_SAMPLE,
    "dedup_cluster_keep": SQL_DEDUP_CLUSTER_KEEP,
    "length_quantiles": SQL_LENGTH_QUANTILES,
    "length_quantiles_by_lang": SQL_LENGTH_QUANTILES_BY_LANG,
    "top_terms": SQL_TOP_TERMS,
    "tfidf_top_terms": SQL_TFIDF_TOP_TERMS,
    "anti_join_customers": SQL_ANTI_JOIN_CUSTOMERS,
    "events_pivot_hourly": SQL_EVENTS_PIVOT_HOURLY,
    "kmeans_assign": SQL_KMEANS_ASSIGN,
    "semantic_dedup": SQL_SEMANTIC_DEDUP,
    "topk_per_group": SQL_TOPK_PER_GROUP,
    "embedding_dim_stats": SQL_EMBEDDING_DIM_STATS,
    "shuffle_positions": SQL_SHUFFLE_POSITIONS,
    "bloom_semi_join": SQL_BLOOM_SEMI_JOIN,
    "hll_distinct_by_type": SQL_HLL_DISTINCT_BY_TYPE,
    "paragraph_dedup": SQL_PARAGRAPH_DEDUP,
    "quality_ntiles": SQL_QUALITY_NTILES,
    "approx_quantiles_sketch": SQL_APPROX_QUANTILES_SKETCH,
    "training_tape": SQL_TRAINING_TAPE,
    "weighted_sample": SQL_WEIGHTED_SAMPLE,
    "events_daily_delta": SQL_EVENTS_DAILY_DELTA,
    "sequence_pack": SQL_SEQUENCE_PACK,
    "stratified_sample": SQL_STRATIFIED_SAMPLE,
    "mixture_weights": SQL_MIXTURE_WEIGHTS,
    "inverted_index": SQL_INVERTED_INDEX,
    "bigram_pmi": SQL_BIGRAM_PMI,
    "heavy_hitters": SQL_HEAVY_HITTERS,
    "cross_source_overlap": SQL_CROSS_SOURCE_OVERLAP,
    "triangle_count": SQL_TRIANGLE_COUNT,
    "join_salted": SQL_JOIN_SALTED,
    "dsir_weights": SQL_DSIR_WEIGHTS,
    "source_kl": SQL_SOURCE_KL,
    "cdc_chunk_dedup": SQL_CDC_CHUNK_DEDUP,
    "hits_scores": SQL_HITS,
    "rate_anomaly": SQL_RATE_ANOMALY,
    "reservoir_per_group": SQL_RESERVOIR_PER_GROUP,
    "embedding_pca": SQL_EMBEDDING_PCA,
    "cohort_retention": SQL_COHORT_RETENTION,
    "winnow_pairs": SQL_WINNOW_PAIRS,
    "kcore": SQL_KCORE,
    "langid_confusion": SQL_LANGID_CONFUSION.replace("{LANGID}", SQL_LANGID),
    "percent_rank_by_lang": SQL_PERCENT_RANK,
    "incremental_dedup": SQL_INCREMENTAL_DEDUP,
    "charlm_quality": SQL_CHARLM_QUALITY,
    "hash_split": SQL_HASH_SPLIT,
    "json_props_stats": SQL_JSON_PROPS_STATS,
    "rollup_counts": SQL_ROLLUP_COUNTS,
    "partitioned_write": SQL_PARTITIONED_WRITE,
    "countmin_freq": SQL_COUNTMIN_FREQ,
    "random_projection": SQL_RANDOM_PROJECTION,
    "bucket_padding_waste": SQL_BUCKET_PADDING_WASTE,
    "precedence_dedup": SQL_PRECEDENCE_DEDUP,
    "snm_pairs": SQL_SNM_PAIRS,
    "substring_dedup": SQL_SUBSTRING_DEDUP,
    "nb_quality": SQL_NB_QUALITY,
    "knn_pq": SQL_KNN_PQ,
    "bpe_merges": SQL_BPE_MERGES,
    "bpe_encode": SQL_BPE_ENCODE,
    "zipf_slope": SQL_ZIPF_SLOPE,
    "intra_doc_dedup": SQL_INTRA_DOC_DEDUP,
    "pii_redact": SQL_PII_REDACT,
    "assortativity": SQL_ASSORTATIVITY,
    "bootstrap_ci": SQL_BOOTSTRAP_CI,
    "keyword_tag": SQL_KEYWORD_TAG,
    "nb_calibration": SQL_NB_CALIBRATION,
    "corpus_refinery": SQL_CORPUS_REFINERY.replace("{LANGVALS}", _sql_lang_values()),
    "multimodal_pack": SQL_MULTIMODAL_PACK,
    "left_outer_orders": SQL_LEFT_OUTER_ORDERS,
    "late_events": SQL_LATE_EVENTS,
    "csv_roundtrip": SQL_CSV_ROUNDTRIP,
    "lpa_communities": SQL_LPA_COMMUNITIES,
    "edit_verify_pairs": SQL_EDIT_VERIFY_PAIRS,
    "quantile_blend": SQL_QUANTILE_BLEND,
    "cumulative_users": SQL_CUMULATIVE_USERS,
    "gopher_rules": SQL_GOPHER_RULES,
    "corr_len_ttr": SQL_CORR_LEN_TTR,
    "winsorize_lengths": SQL_WINSORIZE_LENGTHS,
    "word_entropy": SQL_WORD_ENTROPY,
    "adamic_adar": SQL_ADAMIC_ADAR,
    "local_clustering": SQL_LOCAL_CLUSTERING,
    "host_budget": SQL_HOST_BUDGET,
    "containment_join": SQL_CONTAINMENT_JOIN,
    "bfs_depth": SQL_BFS_DEPTH,
    "bm25_topk": _sql_bm25(),
    "range_search": SQL_RANGE_SEARCH,
    "jsonl_roundtrip": SQL_JSONL_ROUNDTRIP,
    "harmonic_centrality": SQL_HARMONIC_CENTRALITY,
    "random_walks": SQL_RANDOM_WALKS,
    "coreset_kcenter": _sql_kcenter(),
    "chunk_overlap": SQL_CHUNK_OVERLAP,
    "ppr_seeds": SQL_PPR_SEEDS,
    "source_overlap": SQL_SOURCE_OVERLAP,
    "token_budget": SQL_TOKEN_BUDGET,
    "redirect_resolve": SQL_REDIRECT_RESOLVE,
    "recrawl_schedule": SQL_RECRAWL_SCHEDULE,
    "url_templates": SQL_URL_TEMPLATES,
    "trap_audit": SQL_TRAP_AUDIT,
    "column_profile": SQL_COLUMN_PROFILE,
    "hard_negatives": SQL_HARD_NEGATIVES,
    "neighbor_jaccard": SQL_NEIGHBOR_JACCARD,
    "host_latency_slo": SQL_HOST_LATENCY_SLO,
    "host_reputation": SQL_HOST_REPUTATION,
    "value_histogram": SQL_VALUE_HISTOGRAM,
    "weighted_median": SQL_WEIGHTED_MEDIAN,
    "source_drift": SQL_SOURCE_DRIFT,
    "stopword_coverage": SQL_STOPWORD_COVERAGE,
    "trending_types": SQL_TRENDING_TYPES,
    "rrf_fusion": SQL_RRF_FUSION,
    "hapax_ratio": SQL_HAPAX_RATIO,
    "dup_ratio_by_source": SQL_DUP_RATIO_BY_SOURCE,
    "edge_reciprocity": SQL_EDGE_RECIPROCITY,
    "benford_audit": SQL_BENFORD_AUDIT,
    "mad_outliers": SQL_MAD_OUTLIERS,
    "vocab_coverage": SQL_VOCAB_COVERAGE,
    "mutual_knn": SQL_MUTUAL_KNN,
    "weighted_pagerank": SQL_WEIGHTED_PAGERANK,
    "type_cooccurrence_lift": SQL_TYPE_COOCCURRENCE_LIFT,
    "user_path_prefix": SQL_USER_PATH_PREFIX,
    "ngram_novelty": SQL_NGRAM_NOVELTY,
    "quantization_error": SQL_QUANTIZATION_ERROR,
    "gini_concentration": SQL_GINI_CONCENTRATION,
    "hour_profile": SQL_HOUR_PROFILE,
    "degree_powerlaw": SQL_DEGREE_POWERLAW,
    "transition_latency": SQL_TRANSITION_LATENCY,
    "knn_label_accuracy": SQL_KNN_LABEL_ACCURACY,
    "brand_price_profile": SQL_BRAND_PRICE_PROFILE,
    "priority_mix_monthly": SQL_PRIORITY_MIX_MONTHLY,
    "kmv_distinct": SQL_KMV_DISTINCT,
    "lognormal_fit": SQL_LOGNORMAL_FIT,
    "negsample_weights": SQL_NEGSAMPLE_WEIGHTS,
    "type_hour_mi": SQL_TYPE_HOUR_MI,
    "rare_category_merge": SQL_RARE_CATEGORY_MERGE,
    "vocab_churn": SQL_VOCAB_CHURN,
    "lines_per_order_dist": SQL_LINES_PER_ORDER_DIST,
    "discount_revenue_curve": SQL_DISCOUNT_REVENUE_CURVE,
    "supplier_region_acctbal": SQL_SUPPLIER_REGION_ACCTBAL,
    "label_centroid_affinity": SQL_LABEL_CENTROID_AFFINITY,
    "status_priority_chi2": SQL_STATUS_PRIORITY_CHI2,
    "lang_embedding_norm": SQL_LANG_EMBEDDING_NORM,
    "dup_cluster_sizes": SQL_DUP_CLUSTER_SIZES.replace(
        "{CC_SWEEPS}",
        ",".join(_cc_iter_sql(f"l{i}", f"l{i + 1}") for i in range(8))),
    "head_mass_terms": SQL_HEAD_MASS_TERMS,
    "hourly_autocorr": SQL_HOURLY_AUTOCORR,
    "tokens_per_char": SQL_TOKENS_PER_CHAR,
    "weekend_effect": SQL_WEEKEND_EFFECT,
    "embedding_outlier_dims": SQL_EMBEDDING_OUTLIER_DIMS,
    "ship_delay_quantiles": SQL_SHIP_DELAY_QUANTILES,
    "rich_club": SQL_RICH_CLUB,
    "label_cohesion": SQL_LABEL_COHESION,
    "price_size_regression": SQL_PRICE_SIZE_REGRESSION,
    "revenue_mom_growth": SQL_REVENUE_MOM_GROWTH,
    "part_affinity_topk": SQL_PART_AFFINITY_TOPK,
    "user_type_breadth": SQL_USER_TYPE_BREADTH,
    "avg_neighbor_degree": SQL_AVG_NEIGHBOR_DEGREE,
    "dup_rate_by_length_decile": SQL_DUP_RATE_BY_LENGTH_DECILE,
    "q6_revenue": SQL_Q6_REVENUE,
    "segment_priority_mix": SQL_SEGMENT_PRIORITY_MIX,
    "small_quantity_revenue": SQL_SMALL_QUANTITY_REVENUE,
    "big_orders_having": SQL_BIG_ORDERS_HAVING,
    "part_spend_concentration": SQL_PART_SPEND_CONCENTRATION,
    "brand_supplier_variety": SQL_BRAND_SUPPLIER_VARIETY,
    "daily_gap_fill": SQL_DAILY_GAP_FILL,
    "grouping_sets_events": SQL_GROUPING_SETS_EVENTS,
    "brand_top_parts_dense": SQL_BRAND_TOP_PARTS_DENSE,
    "systematic_sample": SQL_SYSTEMATIC_SAMPLE,
    "theilsen_trend": SQL_THEILSEN_TREND,
    "cusum_changepoint": SQL_CUSUM_CHANGEPOINT,
    "skyline_parts": SQL_SKYLINE_PARTS,
    "modal_hour": SQL_MODAL_HOUR,
    "copresence_daily": SQL_COPRESENCE_DAILY,
    "rle_compression_audit": SQL_RLE_COMPRESSION_AUDIT,
    "weighted_balance": SQL_WEIGHTED_BALANCE,
    "centered_moving_avg": SQL_CENTERED_MOVING_AVG,
    "fully_shipped_share": SQL_FULLY_SHIPPED_SHARE,
    "all_quarters_customers": SQL_ALL_QUARTERS_CUSTOMERS,
    "trimmed_mean_orders": SQL_TRIMMED_MEAN_ORDERS,
    "priority_value_kappa": SQL_PRIORITY_VALUE_KAPPA,
    "geo_rollup_shares": SQL_GEO_ROLLUP_SHARES,
    "range_window_revenue": SQL_RANGE_WINDOW_REVENUE,
    "wow_change": SQL_WOW_CHANGE,
    "dup_orders_audit": SQL_DUP_ORDERS_AUDIT,
    "seasonality_strength": SQL_SEASONALITY_STRENGTH,
    "linenumber_gaps": SQL_LINENUMBER_GAPS,
    "nation_top_names": SQL_NATION_TOP_NAMES,
    "gini_mean_difference": SQL_GINI_MEAN_DIFFERENCE,
    "type_traffic_cosine": SQL_TYPE_TRAFFIC_COSINE,
    "acctbal_ks_two_table": SQL_ACCTBAL_KS_TWO_TABLE,
    "busiest_days_by_users": SQL_BUSIEST_DAYS_BY_USERS,
    "source_lang_cramers_v": SQL_SOURCE_LANG_CRAMERS_V,
    "participation_ratio": SQL_PARTICIPATION_RATIO,
    "vocab_jaccard_langs": SQL_VOCAB_JACCARD_LANGS,
    "props_k_value_curve": SQL_PROPS_K_VALUE_CURVE,
    "discount_by_basket_size": SQL_DISCOUNT_BY_BASKET_SIZE,
    "qty_discount_heat": SQL_QTY_DISCOUNT_HEAT,
    "top_supplier_q15": SQL_TOP_SUPPLIER_Q15,
    "q19_disjunctive_revenue": SQL_Q19_DISJUNCTIVE_REVENUE,
    "dominant_suppliers": SQL_DOMINANT_SUPPLIERS,
    "month_end_loading": SQL_MONTH_END_LOADING,
    "price_dispersion_cells": SQL_PRICE_DISPERSION_CELLS,
    "brand_name_token_mode": SQL_BRAND_NAME_TOKEN_MODE,
    "name_key_consistency": SQL_NAME_KEY_CONSISTENCY,
    "hour_boundary_share": SQL_HOUR_BOUNDARY_SHARE,
    "centroid_confusion": SQL_CENTROID_CONFUSION,
    "discount_by_linenumber": SQL_DISCOUNT_BY_LINENUMBER,
    "round_price_share": SQL_ROUND_PRICE_SHARE,
    "revenue_masd": SQL_REVENUE_MASD,
    "above_avg_discount_share": SQL_ABOVE_AVG_DISCOUNT_SHARE,
    "same_day_reorders": SQL_SAME_DAY_REORDERS,
    "qty_uniformity_gof": SQL_QTY_UNIFORMITY_GOF,
    "heaps_law_fit": SQL_HEAPS_LAW_FIT,
    "part_keyword_revenue": SQL_PART_KEYWORD_REVENUE,
    "reactivated_customers": SQL_REACTIVATED_CUSTOMERS,
    "lexical_sophistication": SQL_LEXICAL_SOPHISTICATION,
    "wau_trend": SQL_WAU_TREND,
    "top_token_burstiness": SQL_TOP_TOKEN_BURSTINESS,
    "dom_ordering_profile": SQL_DOM_ORDERING_PROFILE,
    "dominant_type_users": SQL_DOMINANT_TYPE_USERS,
    "order_priority_transition": SQL_ORDER_PRIORITY_TRANSITION,
    "first_dow_ltv": SQL_FIRST_DOW_LTV,
    "monthly_arpu": SQL_MONTHLY_ARPU,
    "name_component_mi": SQL_NAME_COMPONENT_MI,
    "vocab_gini": SQL_VOCAB_GINI,
    "brand_discount_elasticity": SQL_BRAND_DISCOUNT_ELASTICITY,
    "exit_type_share": SQL_EXIT_TYPE_SHARE,
    "order_value_cv_by_nation": SQL_ORDER_VALUE_CV_BY_NATION,
    "char_class_profile": SQL_CHAR_CLASS_PROFILE,
    "acf_daily_revenue": SQL_ACF_DAILY_REVENUE,
    "ewma_daily_value": SQL_EWMA_DAILY_VALUE,
    "prefix_dup_rate": SQL_PREFIX_DUP_RATE,
    "pair_cosine_hist": SQL_PAIR_COSINE_HIST,
    "orders_per_customer_hist": SQL_ORDERS_PER_CUSTOMER_HIST,
    "brand_price_size_slopes": SQL_BRAND_PRICE_SIZE_SLOPES,
    "sentence_stats_by_lang": SQL_SENTENCE_STATS_BY_LANG,
    "odds_ratio_weekend_purchase": SQL_ODDS_RATIO_WEEKEND_PURCHASE,
    "name_verbosity_premium": SQL_NAME_VERBOSITY_PREMIUM,
    "supplier_nation_tax": SQL_SUPPLIER_NATION_TAX,
    "interarrival_cv_by_type": SQL_INTERARRIVAL_CV_BY_TYPE,
    "effective_price_quantiles": SQL_EFFECTIVE_PRICE_QUANTILES,
    "rounding_drift_audit": SQL_ROUNDING_DRIFT_AUDIT,
    "bh_fdr_weekend_nation": SQL_BH_FDR_WEEKEND_NATION,
    "burrows_delta": SQL_BURROWS_DELTA,
    "log_odds_terms": SQL_LOG_ODDS_TERMS,
    "lsh_recall_at_k": SQL_LSH_RECALL_AT_K,
    "fd_sturges_bins": SQL_FD_STURGES_BINS,
    "good_turing_mass": SQL_GOOD_TURING_MASS,
    "record_days": SQL_RECORD_DAYS,
    "hill_tail_index": SQL_HILL_TAIL_INDEX,
    "clustering_agreement": SQL_CLUSTERING_AGREEMENT,
    "juilland_dispersion": SQL_JUILLAND_DISPERSION,
    "jsd_source_langs": SQL_JSD_SOURCE_LANGS,
    "process_capability": SQL_PROCESS_CAPABILITY,
    "cochran_q_weeks": SQL_COCHRAN_Q_WEEKS,
    "rarefaction_vocab": SQL_RAREFACTION_VOCAB,
    "u_chart_errors": SQL_U_CHART_ERRORS,
    "german_tank_estimate": SQL_GERMAN_TANK_ESTIMATE,
    "honore_r_sources": SQL_HONORE_R_SOURCES,
    "kish_neff": SQL_KISH_NEFF,
    "mase_naive7": SQL_MASE_NAIVE7,
    "diebold_mariano": SQL_DIEBOLD_MARIANO,
    "simhash_pr_eval": SQL_SIMHASH_PR_EVAL,
    "silhouette_kmeans": SQL_SILHOUETTE_KMEANS,
    "atkinson_index": SQL_ATKINSON_INDEX,
    "duncan_dissimilarity": SQL_DUNCAN_DISSIMILARITY,
    "yule_k": SQL_YULE_K,
    "bigram_perplexity": SQL_BIGRAM_PERPLEXITY,
    "cohens_h": SQL_COHENS_H,
    "gunning_fog": SQL_GUNNING_FOG,
    "kpss_lite_daily": SQL_KPSS_LITE_DAILY,
    "cms_overcount_audit": SQL_CMS_OVERCOUNT_AUDIT,
    "holm_rejections": SQL_HOLM_REJECTIONS,
    "ovl_weekend": SQL_OVL_WEEKEND,
    "mean_log_deviation": SQL_MEAN_LOG_DEVIATION,
    "bucket_occupancy_audit": SQL_BUCKET_OCCUPANCY_AUDIT,
    "dunning_g2_terms": SQL_DUNNING_G2_TERMS,
    "hill_numbers_vocab": SQL_HILL_NUMBERS_VOCAB,
    "chao_shen_entropy": SQL_CHAO_SHEN_ENTROPY,
    "brunet_sichel": SQL_BRUNET_SICHEL,
    "pietra_index": SQL_PIETRA_INDEX,
    "expected_shortfall_daily": SQL_EXPECTED_SHORTFALL_DAILY,
    "omega_ratio_daily": SQL_OMEGA_RATIO_DAILY,
    "ulcer_index_daily": SQL_ULCER_INDEX_DAILY,
    "rayleigh_hour_test": SQL_RAYLEIGH_HOUR_TEST,
    "storey_pi0": SQL_STOREY_PI0,
    "max_spacing_stat": SQL_MAX_SPACING_STAT,
    "nation_activity_coverage": SQL_NATION_ACTIVITY_COVERAGE,
    "zipf_abbreviation": SQL_ZIPF_ABBREVIATION,
    "menzerath_law": SQL_MENZERATH_LAW,
    "effective_brands": SQL_EFFECTIVE_BRANDS,
    "isolation_index_hours": SQL_ISOLATION_INDEX_HOURS,
    "eggers_test": SQL_EGGERS_TEST,
    "brunner_munzel": SQL_BRUNNER_MUNZEL,
    "cv_delta_ci": SQL_CV_DELTA_CI,
    "pythagorean_means": SQL_PYTHAGOREAN_MEANS,
    "variance_homogeneity_quick": SQL_VARIANCE_HOMOGENEITY_QUICK,
}

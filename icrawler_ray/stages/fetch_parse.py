"""FetchParse actor-pool stage (SURVEY.md P1).

The reference's Parser.worker_exec (/root/reference/icrawler/parser.py:43-128)
is a thread loop: dequeue page URL -> GET with Referer + <=3 retries ->
parse -> route dict results downstream and str results back into its own
queue. Here it is a callable CLASS for ``map_batches``:

- ``__init__`` runs once per actor: builds the (stub) session and the
  parser rules (compiled regexes, domain lists) — state amortized across
  batches (SURVEY.md T1/T2/T6)
- ``__call__`` runs per Arrow batch of frontier rows and returns one Arrow
  table of heterogeneous rows tagged ``row_kind`` in {"doc","task","link",
  "error"}; downstream ``filter`` splits the stream (the two-queue routing
  of parser.py:102-119 became one dataset + predicate splits)

The URL map is broadcast once via ``ray.put`` on the driver; each actor
reads it in ``__init__`` — never shipped per batch.
"""

from __future__ import annotations

import os
import os.path as osp

import numpy as np
import pyarrow as pa

from icrawler_ray import schemas
from icrawler_ray.functions.urlnorm import canonical_urls, hash_urls
from icrawler_ray.stages.parsers import RULES_REGISTRY
from icrawler_ray.stages.politeness import InflightGuard, walk_host_runs
from icrawler_ray.state.seen import packed_order, route_claims, send_report
from icrawler_ray.synthweb.fetchstub import make_session, session_spec_key

FETCH_PARSE_SCHEMA = pa.schema(
    [
        ("row_kind", pa.string()),
        ("page_url", pa.string()),
        ("status", pa.int32()),
        ("depth", pa.int32()),
        ("parent_seq", pa.int64()),
        ("emit_ord", pa.int32()),
        ("file_url", pa.string()),
        ("link_url", pa.string()),
        ("meta_json", pa.string()),
        ("doc_id", pa.string()),
        ("spans", pa.list_(schemas.SPAN_STRUCT)),
        ("error", pa.string()),
    ]
)
#: the columns of a crawl's docs output
DOC_COLUMNS = ["doc_id", "spans", "depth", "parent_seq", "status"]


class FetchParse:
    def __init__(self, url_map_ref, rules, rules_kwargs: dict | None = None,
                 flaky: dict | None = None, emit_docs: bool = True,
                 with_keys: bool = False, claim: tuple | None = None,
                 slim: bool = False, inflight: str | None = None):
        self.session = make_session(url_map_ref, flaky=flaky)
        # rules: a RULES_REGISTRY name, or a rules CLASS shipped by value
        # in the task closure (custom parsers need no worker-side registry
        # registration — SURVEY §2.9 / compat parser_cls)
        rules_cls = rules if isinstance(rules, type) else RULES_REGISTRY[rules]
        self.rules = rules_cls(**(rules_kwargs or {}))
        self.emit_docs = emit_docs
        # inflight: name of a HostInflightLimiter actor — exact per-host
        # concurrent-request caps (politeness.py); one slot per (task,
        # host-run), URLs walked host-grouped so each host costs one
        # acquire/release round trip per batch.
        self.guard = InflightGuard(inflight) if inflight else None
        # with_keys: compute url_canon/url_hash for task/link rows INSIDE
        # the parallel task (vectorized per batch) instead of a serial
        # driver pass — keeps the round loop's serial fraction small.
        self.with_keys = with_keys
        # claim: (pages_set_name, files_set_name, num_shards, max_depth) —
        # fused seen-shard claim routing: each batch pushes its candidate
        # (hash, packed) pairs to the shard actors before returning, so
        # the frontier-dedup exchange rides the parse execution (no extra
        # pass, no shuffle). Each batch also reports its counts (pages in,
        # error and doc rows, claims sent) to the pages set, keyed by its
        # smallest input seq.
        self.claim = claim
        # set per round by make_fetch_parse_fn on the cached instance
        # (rounds run sequentially): the claims' round-fence tag, and the
        # dir the batches write their doc rows to (None: docs stay rows)
        self.claim_round: int | None = None
        self.docs_dir: str | None = None
        # slim: emit only the throughput-critical columns (ints + the two
        # URL strings); requires emit_docs=False. Halves materialized bytes.
        self.slim = slim and not emit_docs

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Hot path: builds output columns as flat Python lists appended
        inline (no per-row closure), spans as one flat StructArray +
        offsets (no per-span dicts) — ~2-3x over the naive row-dict build
        at bench scale."""
        urls = batch["url"].to_pylist()
        n = len(urls)
        depths = batch["depth"].to_pylist() if "depth" in batch.column_names else [0] * n
        seqs = batch["seq"].to_pylist() if "seq" in batch.column_names else [-1] * n

        row_kind: list = []
        page_url: list = []
        status: list = []
        depth_c: list = []
        parent_seq: list = []
        emit_ord: list = []
        file_url: list = []
        link_url: list = []
        meta_json: list = []
        doc_id: list = []
        error: list = []
        # flat span storage (doc rows only)
        span_offsets = [0]
        sp_kind: list = []
        sp_text: list = []
        sp_ref: list = []
        span_row_idx: list = []  # row index of each doc row (for ListArray assembly)

        def visit(i: int) -> None:
            self._one(urls[i], depths[i], seqs[i], row_kind, page_url, status,
                      depth_c, parent_seq, emit_ord, file_url, link_url,
                      meta_json, doc_id, error, span_offsets, sp_kind, sp_text,
                      sp_ref, span_row_idx)

        walk_host_runs(urls, self.guard, visit)

        out = self._assemble(row_kind, page_url, status, depth_c,
                             parent_seq, emit_ord, file_url, link_url,
                             meta_json, doc_id, error, span_offsets, sp_kind,
                             sp_text, sp_ref, span_row_idx)
        if self.docs_dir is not None and n:
            out = self._write_docs(out, min(seqs))
        if self.claim is not None:
            n_claims = route_claims(out, *self.claim, round_idx=self.claim_round)
            if n:
                send_report(self.claim[0], self.claim[2], "parse", min(seqs),
                            {"pages": n, "errors": row_kind.count("error"),
                             "docs": row_kind.count("doc"), "claims": n_claims},
                            self.claim_round)
        return out

    def _write_docs(self, out: pa.Table, key: int) -> pa.Table:
        """Write the batch's doc rows to ``docs_dir/part-<key>.parquet`` and
        drop them from the output. The file is written under a tmp name and
        renamed, so a re-executed task replaces its own file."""
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        is_doc = pc.equal(out["row_kind"], "doc")
        docs = out.filter(is_doc).select(DOC_COLUMNS)
        if docs.num_rows:
            path = osp.join(self.docs_dir, f"part-{key:020d}.parquet")
            tmp = f"{path}.tmp{os.getpid()}"
            pq.write_table(docs, tmp)
            os.replace(tmp, path)
        return out.filter(pc.invert(is_doc))

    def _one(self, url, depth, seq, row_kind, page_url, status, depth_c,
             parent_seq, emit_ord, file_url, link_url, meta_json, doc_id,
             error, span_offsets, sp_kind, sp_text, sp_ref,
             span_row_idx) -> None:
        try:
            resp = self.session.get(url)
        except Exception as e:  # retries exhausted (parser.py:88-94 path)
            row_kind.append("error"); page_url.append(url); status.append(-1)
            depth_c.append(depth); parent_seq.append(seq); emit_ord.append(-1)
            file_url.append(""); link_url.append(""); meta_json.append("")
            doc_id.append(""); error.append(str(e))
            return
        if not (200 <= resp.status_code < 300):
            row_kind.append("error"); page_url.append(url); status.append(resp.status_code)
            depth_c.append(depth); parent_seq.append(seq); emit_ord.append(-1)
            file_url.append(""); link_url.append(""); meta_json.append("")
            doc_id.append(""); error.append("http status")
            return
        spans, emissions = self.rules.parse(resp, session=self.session)
        if self.emit_docs:
            row_kind.append("doc"); page_url.append(url); status.append(resp.status_code)
            depth_c.append(depth); parent_seq.append(seq); emit_ord.append(-1)
            file_url.append(""); link_url.append(""); meta_json.append("")
            doc_id.append(url); error.append("")
            span_row_idx.append(len(row_kind) - 1)
            if spans:
                kinds, texts, refs = zip(*spans)
                sp_kind.extend(kinds); sp_text.extend(texts); sp_ref.extend(refs)
            span_offsets.append(len(sp_kind))
        for em in emissions:
            if em[0] == "task":
                row_kind.append("task"); file_url.append(em[1]); link_url.append("")
                meta_json.append(em[2])
            elif em[0] == "photo":
                # deferred Flickr getSizes (SURVEY P6): file_url carries
                # the sizes-request URL until FlickrSizes resolves it
                row_kind.append("photo"); file_url.append(em[1]); link_url.append("")
                meta_json.append(em[2])
            else:
                row_kind.append("link"); file_url.append(""); link_url.append(em[1])
                meta_json.append("")
        m = len(emissions)
        page_url.extend([url] * m); status.extend([resp.status_code] * m)
        depth_c.extend([depth] * m); parent_seq.extend([seq] * m); emit_ord.extend(range(m))
        doc_id.extend([""] * m); error.extend([""] * m)

    def _assemble(self, row_kind, page_url, status, depth_c, parent_seq,
                  emit_ord, file_url, link_url, meta_json, doc_id, error,
                  span_offsets, sp_kind, sp_text, sp_ref,
                  span_row_idx) -> pa.Table:
        total = len(row_kind)
        if self.slim:
            # slim schema for throughput mode: ints + the two URL columns
            # only — halves the bytes materialized per round
            out = pa.table(
                {
                    "row_kind": pa.array(row_kind, type=pa.string()),
                    "status": pa.array(status, type=pa.int32()),
                    "depth": pa.array(depth_c, type=pa.int32()),
                    "parent_seq": pa.array(parent_seq, type=pa.int64()),
                    "emit_ord": pa.array(emit_ord, type=pa.int32()),
                    "file_url": pa.array(file_url, type=pa.string()),
                    "link_url": pa.array(link_url, type=pa.string()),
                }
            )
            return self._finish(out, file_url, link_url)
        # spans column: doc rows take consecutive slices of the flat struct
        # array (a span's offset is its position in its doc's slice); other
        # rows get empty slices and a null mask.
        span_lens = np.diff(span_offsets)
        sp_off = np.arange(len(sp_kind), dtype=np.int32) - np.repeat(
            np.asarray(span_offsets[:-1], dtype=np.int32), span_lens)
        struct = pa.StructArray.from_arrays(
            [pa.array(sp_kind, type=pa.string()), pa.array(sp_text, type=pa.string()),
             pa.array(sp_ref, type=pa.string()), pa.array(sp_off, type=pa.int32())],
            fields=list(schemas.SPAN_STRUCT),
        )
        lengths = np.zeros(total, dtype=np.int32)
        lengths[span_row_idx] = span_lens
        offsets = np.zeros(total + 1, dtype=np.int32)
        np.cumsum(lengths, out=offsets[1:])
        mask = np.ones(total, dtype=bool)  # True = null (pyarrow mask convention)
        mask[span_row_idx] = False
        spans_arr = pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()), struct,
            mask=pa.array(mask) if total else None,
        )

        out = pa.table(
            {
                "row_kind": pa.array(row_kind, type=pa.string()),
                "page_url": pa.array(page_url, type=pa.string()),
                "status": pa.array(status, type=pa.int32()),
                "depth": pa.array(depth_c, type=pa.int32()),
                "parent_seq": pa.array(parent_seq, type=pa.int64()),
                "emit_ord": pa.array(emit_ord, type=pa.int32()),
                "file_url": pa.array(file_url, type=pa.string()),
                "link_url": pa.array(link_url, type=pa.string()),
                "meta_json": pa.array(meta_json, type=pa.string()),
                "doc_id": pa.array(doc_id, type=pa.string()),
                "spans": spans_arr,
                "error": pa.array(error, type=pa.string()),
            },
            schema=FETCH_PARSE_SCHEMA,
        )
        return self._finish(out, file_url, link_url)

    def _finish(self, out: pa.Table, file_url, link_url) -> pa.Table:
        if self.with_keys:
            # one pass: tasks use file_url, links use link_url. Only the
            # 64-bit hash ships (dedup/seen key); the canonical string is
            # recomputed downstream for the few admitted rows — shipping it
            # for every emission would double the table bytes.
            uh = hash_urls(canonical_urls([f or l for f, l in zip(file_url, link_url)]))
            out = out.append_column("url_hash", pa.array(uh, type=pa.uint64()))
            # packed order key: min over a hash group == min (parent_seq,
            # emit_ord), the first emission
            out = out.append_column("packed", pa.array(packed_order(out), type=pa.int64()))
        return out


_FP_CACHE: dict = {}


def make_fetch_parse_fn(url_map_ref, rules: str, rules_kwargs: dict | None = None,
                        emit_docs: bool = True, with_keys: bool = False,
                        claim: tuple | None = None, slim: bool = False,
                        inflight: str | None = None,
                        claim_round: int | None = None, docs_dir: str | None = None):
    """Task-pool variant of FetchParse with a worker-process-level cache.

    An iterative crawl runs one Ray Data execution per round; an actor pool
    would re-pay actor startup + session build every round. Stateless
    map_batches tasks run on Ray's reusable core workers, so caching the
    constructed FetchParse in a module global amortizes state across
    batches AND rounds — same state-amortization contract as the actor
    pool, without per-execution spin-up. The ObjectRef travels in the task
    closure; the url map is fetched once per worker process.

    ``docs_dir``: the batches write their doc rows there instead of
    returning them (:meth:`FetchParse._write_docs`).
    """
    import json as _json

    key = (
        session_spec_key(url_map_ref),
        rules, _json.dumps(rules_kwargs or {}, sort_keys=True, default=repr),
        emit_docs, with_keys, claim, slim, inflight,
    )

    def fn(batch: pa.Table) -> pa.Table:
        fp = _FP_CACHE.get(key)
        if fp is None:
            fp = FetchParse(url_map_ref, rules, rules_kwargs, emit_docs=emit_docs,
                            with_keys=with_keys, claim=claim, slim=slim,
                            inflight=inflight)
            _FP_CACHE[key] = fp
        # round tag and docs dir ride on the closure, NOT the cache key: the
        # cached session/state survives across rounds while each round's
        # claims carry its own fence tag (rounds execute sequentially)
        fp.claim_round, fp.docs_dir = claim_round, docs_dir
        return fp(batch)

    return fn


def task_rows(ds):
    """Task rows of a FetchParse output dataset, with canonical URL + hash
    columns appended per batch (dedup keys, SURVEY.md F5/Q1)."""

    def with_keys(t: pa.Table) -> pa.Table:
        canon = canonical_urls(t["file_url"].to_pylist())
        t = t.append_column("url_canon", pa.array(canon, type=pa.string()))
        return t.append_column("url_hash", pa.array(hash_urls(canon), type=pa.uint64()))

    return (ds.filter(expr="row_kind == 'task'")
            .select_columns(["file_url", "page_url", "meta_json", "depth", "parent_seq",
                             "emit_ord"])
            .map_batches(with_keys, batch_format="pyarrow"))

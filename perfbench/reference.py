"""Independent references and output comparisons. Nothing here is timed.

Each ``compare_*`` returns ``(attempted, failed)``: the number of expected
output rows, and how many of them are missing, extra or wrong.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

#: nominal cuckoo false-positive rate per probed generation:
#: 2 buckets x 4 slots / 2^16 fingerprints (state/cuckoo.py)
CUCKOO_NOMINAL_FPR = 2 * 4 / 2 ** 16
#: share of the planted pairs of LSH-routed dedup groups that may be missed:
#: the engine's double-hashing minhash (64 perms, 16 bands of 4) missed
#: 0-0.2 % of pairs at Jaccard 0.82-0.90 on eleven corpus seeds
LSH_MAX_MISS = 0.01


# ------------------------------------------------------------------ crawls

def doc_spans_from_tables(tables: list[pa.Table]) -> dict[str, tuple]:
    """doc_id -> ((kind, text, media_ref, offset), ...) from engine doc rows."""
    out = {}
    for t in tables:
        if not t.num_rows:
            continue
        ids = t["doc_id"].to_pylist()
        spans = t["spans"].combine_chunks()
        lens = np.asarray(pc.list_value_length(spans).fill_null(0))
        fields = [f.to_pylist() for f in spans.flatten().flatten()]
        rows = list(zip(*fields))
        pos = 0
        for doc_id, n in zip(ids, lens.tolist()):
            out[doc_id] = tuple(rows[pos:pos + n])
            pos += n
    return out


def doc_spans_from_oracle(docs: list[dict]) -> dict[str, tuple]:
    return {d["doc_id"]: tuple((s["kind"], s["text"], s["media_ref"], s["offset"])
                               for s in d["spans"]) for d in docs}


def results_from_tables(tables: list[pa.Table]) -> list[tuple]:
    """(file_url, filename, img_w, img_h) rows ordered by filename (the
    engine's dl_seq restarts every round; filenames are global)."""
    rows = []
    for t in tables:
        if t.num_rows:
            rows.extend(zip(*(t[c].to_pylist() for c in
                              ("file_url", "filename", "img_w", "img_h"))))
    return sorted(rows, key=lambda r: r[1])


def results_from_oracle(results: list[dict]) -> list[tuple]:
    return [(r["file_url"], r["filename"], r["img_w"], r["img_h"]) for r in results]


def doc_span_columns(tables: list[pa.Table]) -> list[pa.Array] | None:
    """Engine doc rows as flat columns, docs ordered by doc_id: doc_id,
    span count, then the span fields (kind, text, media_ref, offset)."""
    tables = [t.select(["doc_id", "spans"]) for t in tables if t.num_rows]
    if not tables:
        return None
    t = pa.concat_tables(tables).sort_by("doc_id")
    spans = t["spans"].combine_chunks()
    return [t["doc_id"].combine_chunks(), pc.list_value_length(spans).fill_null(0),
            *spans.flatten().flatten()]


def doc_span_columns_from_oracle(docs: list[dict], like: list[pa.Array]) -> list[pa.Array] | None:
    """The oracle's docs as ``doc_span_columns``, typed like ``like``."""
    docs = sorted(docs, key=lambda d: d["doc_id"])
    spans = [s for d in docs for s in d["spans"]]
    cols = [[d["doc_id"] for d in docs], [len(d["spans"]) for d in docs],
            *([s[f] for s in spans] for f in ("kind", "text", "media_ref", "offset"))]
    try:  # a type the engine does not share is a difference, found by the slow path
        return [pa.array(c, type=x.type) for c, x in zip(cols, like)]
    except (pa.ArrowInvalid, pa.ArrowTypeError):
        return None


def columns_equal(a: list[pa.Array] | None, b: list[pa.Array] | None) -> bool:
    return a is not None and b is not None and len(a) == len(b) and all(
        x.equals(y) for x, y in zip(a, b))


def compare_crawl(docs: dict, results: list, ref_docs: dict, ref_results: list):
    """Doc span sequences by doc_id, and the crawl-ordered file sequence."""
    attempted = len(ref_docs) + len(ref_results)
    failed = sum(1 for k, v in ref_docs.items() if docs.get(k) != v)
    failed += sum(1 for k in docs if k not in ref_docs)
    failed += sum(1 for a, b in zip(results, ref_results) if a != b)
    failed += abs(len(results) - len(ref_results))
    return attempted, failed


# ------------------------------------------------------------- seen claims

def claim_winners(rounds: list[tuple[np.ndarray, np.ndarray]]):
    """Exact per-round winners: for each key, the claim with the minimum
    packed order, dropped if the key won an earlier round."""
    admitted = np.empty(0, dtype=np.uint64)
    out = []
    for keys, packed in rounds:
        order = np.lexsort((packed, keys))
        k, p = keys[order], packed[order]
        first = np.ones(len(k), dtype=bool)
        first[1:] = k[1:] != k[:-1]
        k, p = k[first], p[first]
        novel = ~np.isin(k, admitted)
        out.append((k[novel], p[novel]))
        admitted = np.union1d(admitted, k[novel])
    return out


def compare_claims(got: list[tuple[np.ndarray, np.ndarray]],
                   ref: list[tuple[np.ndarray, np.ndarray]]):
    """-> (attempted, failed, lost). A key admitted twice, an admitted key
    the reference rejects, or a winner with the wrong order is a failure.
    A reference winner the engine rejected is a false-positive loss of the
    approximate seen filter: allowed up to the cuckoo's nominal FPR times
    the number of novel keys, and a failure in full beyond that."""
    attempted = sum(len(k) for k, _ in ref)
    all_keys = np.concatenate([k for k, _ in got]) if got else np.empty(0, np.uint64)
    failed = int(len(all_keys) - len(np.unique(all_keys)))
    lost = 0
    for (gk, gp), (rk, rp) in zip(got, ref):
        order = np.argsort(rk)
        rk_s, rp_s = rk[order], rp[order]
        at = np.minimum(np.searchsorted(rk_s, gk), max(0, len(rk_s) - 1))
        ok = (rk_s[at] == gk) & (rp_s[at] == gp) if len(rk_s) else np.zeros(len(gk), bool)
        failed += int((~ok).sum())
        lost += int((~np.isin(rk, gk)).sum())
    failed += abs(len(got) - len(ref))
    if lost > math.ceil(CUCKOO_NOMINAL_FPR * attempted):
        failed += lost
    return attempted, failed, lost


# ------------------------------------------------------------ corpus dedup

def word_jaccard(a: str, b: str) -> float:
    sa, sb = set(a.split(" ")), set(b.split(" "))
    return len(sa & sb) / len(sa | sb)


def compare_dedup(pairs, components, texts: list[str], sources: list[str],
                  cluster_of: np.ndarray, threshold: float, lsh_sources=frozenset()):
    """-> (attempted, failed, recall). ``cluster_of[doc_id]`` is the planted
    cluster (singletons are their own).

    Every reported pair must be within one source, with an independently
    recomputed word-set Jaccard equal to the reported one and at least
    ``threshold``. Groups in ``lsh_sources`` take the engine's MinHash-LSH
    path, which is documented to lose recall (a pair whose 16 bands all
    differ is never a candidate); every other group is paired exactly, so
    each of its planted pairs must be reported. Planted pairs the LSH path
    misses fail the run only beyond LSH_MAX_MISS of its planted pairs.
    Every doc's keep/drop decision (keep = min id of its component) must
    match the components of the planted pairs, less the LSH misses."""
    n = len(texts)
    failed = 0
    got_pairs = set()
    for a, b, j in zip(pairs["a"].tolist(), pairs["b"].tolist(),
                       pairs["jaccard"].tolist()):
        a, b = int(a), int(b)
        got_pairs.add((a, b))
        true_j = word_jaccard(texts[a], texts[b])
        if (a >= b or sources[a] != sources[b] or true_j < threshold
                or abs(true_j - j) > 2e-6):
            failed += 1
    dropped = np.zeros(n, dtype=bool)
    if len(components):
        node = components["node"].to_numpy(dtype=np.int64)
        comp = components["component"].to_numpy(dtype=np.int64)
        dropped[node[comp != node]] = True
    members: dict[int, list[int]] = {}
    for i, c in enumerate(cluster_of.tolist()):
        members.setdefault(c, []).append(i)
    planted = set()
    for ids in members.values():
        ids.sort()
        for x in range(len(ids)):
            for y in range(x + 1, len(ids)):
                if word_jaccard(texts[ids[x]], texts[ids[y]]) >= threshold:
                    planted.add((ids[x], ids[y]))
    missed = planted - got_pairs
    lsh_planted = sum(sources[a] in lsh_sources for a, _ in planted)
    lsh_missed = sum(sources[a] in lsh_sources for a, _ in missed)
    failed += len(missed) - lsh_missed
    if lsh_missed > LSH_MAX_MISS * lsh_planted:
        failed += lsh_missed
    # reference decision: components of the planted pairs the engine had to find
    root = np.arange(n)

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for a, b in planted:
        if (a, b) in got_pairs or sources[a] not in lsh_sources:
            ra, rb = find(a), find(b)
            root[max(ra, rb)] = min(ra, rb)
    truth_dropped = np.array([find(i) != i for i in range(n)], dtype=bool)
    failed += int((dropped != truth_dropped).sum())
    recall = len(planted & got_pairs) / len(planted) if planted else 1.0
    return n + len(got_pairs), failed, recall

"""Registry invariants of icrawler_ray/queries.py.

- The FIRST 50 ``QUERIES`` entries are the correctness window checked
  against their oracles, so their names and order are pinned.
- Every ``ORACLE_SQL`` entry belongs to a query.
- Every top-level function and constant of the module is used, so a cut
  of queries cannot leave dead helpers or SQL constants behind (no lint
  tool runs in CI; this is the stdlib ``ast`` check).
- The README's query tally is the registry's size.
"""

from __future__ import annotations

import ast
import os
import os.path as osp
import re

ROOT = osp.dirname(osp.dirname(osp.abspath(__file__)))
QUERIES_PY = osp.join(ROOT, "icrawler_ray", "queries.py")

#: the correctness window, in order
WINDOW = [
    "agg_lineitem", "join_revenue_by_nation", "topk_orders",
    "filter_project_lineitem", "events_hourly", "events_sessionize",
    "seed_window", "expand_google", "baidu_decode", "classify_urls",
    "canonicalize_urls", "politeness_schedule", "filename_assign",
    "size_gate", "interleaved_spans", "dedup_exact", "ngram_novelty",
    "text_stats", "ngram_jaccard_pairs", "minhash_lsh_pairs",
    "label_cohesion", "langid", "token_counts", "quality_filter",
    "inverted_index", "knn_bruteforce", "embedding_near_dup",
    "media_pipeline", "type_cooccurrence_lift", "events_asof_join",
    "range_join_orders", "robots_gate", "hll_distinct", "link_degree",
    "pagerank", "cc_labels", "clean_text", "decontaminate",
    "repetition_stats", "bm25_topk", "dedup_cluster_keep", "gopher_rules",
    "bfs_depth", "part_affinity_topk", "adamic_adar", "host_budget",
    "mutual_knn", "coreset_kcenter", "bh_fdr_weekend_nation",
    "lsh_recall_at_k",
]


def test_query_window_is_pinned():
    from icrawler_ray.queries import QUERIES

    assert list(QUERIES)[:50] == WINDOW


def test_every_oracle_has_a_query():
    from icrawler_ray.queries import ORACLE_SQL, QUERIES

    assert sorted(set(ORACLE_SQL) - set(QUERIES)) == []


def _imported_by_tests() -> set[str]:
    """Names the test modules import from icrawler_ray.queries."""
    names = set()
    tests = osp.join(ROOT, "tests")
    for fn in os.listdir(tests):
        if fn.endswith(".py"):
            with open(osp.join(tests, fn)) as f:
                tree = ast.parse(f.read())
            names.update(a.name for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom)
                         and node.module == "icrawler_ray.queries"
                         for a in node.names)
    return names


def test_every_toplevel_name_is_used():
    with open(QUERIES_PY) as f:
        tree = ast.parse(f.read())
    defined = {}  # name -> its defining top-level statement
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:  # tuple targets: `_CHUNK_W, _CHUNK_S = 64, 48`
                defined.update((n.id, node) for n in ast.walk(t) if isinstance(n, ast.Name))
    used = _imported_by_tests()
    for node in tree.body:
        own = {node.name} if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else set()
        used.update(n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                    and n.id not in own)  # recursion is not a use
    assert sorted(set(defined) - used) == []


def test_readme_tally_matches_registry():
    from icrawler_ray.queries import ORACLE_SQL, QUERIES

    with open(osp.join(ROOT, "README.md")) as f:
        m = re.search(r"(\d+) driver queries, (\d+) with DuckDB SQL oracles", f.read())
    assert m, "README.md lost its queries.py tally"
    assert (int(m.group(1)), int(m.group(2))) == (len(QUERIES), len(ORACLE_SQL))

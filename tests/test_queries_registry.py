"""Registry invariants of icrawler_ray/queries.py.

- The FIRST 50 ``QUERIES`` entries are the correctness window checked
  against their oracles, so their names and order are pinned.
- Every ``ORACLE_SQL`` entry belongs to a query.
- Every top-level function, class and constant of every package module
  is used, so a cut of queries cannot leave dead helpers or SQL
  constants behind, nor any other change dead code (no lint tool runs
  in CI; this is the stdlib ``ast`` check).
- Every module-level import of every package module (``__init__``
  re-exports aside) is loaded in its module.
- The README's query tally is the registry's size.
"""

from __future__ import annotations

import ast
import os
import os.path as osp
import re

ROOT = osp.dirname(osp.dirname(osp.abspath(__file__)))

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


#: where a use of a package name may come from, besides its own module
USER_DIRS = ("icrawler_ray", "scripts", "perfbench", "tests")
USER_FILES = ("bench.py", "__ray_entry__.py")


def _py_files(*dirs: str) -> list[str]:
    out = []
    for d in dirs:
        for dp, dns, fns in os.walk(osp.join(ROOT, d)):
            dns[:] = [n for n in dns if n != "__pycache__"]
            out += [osp.join(dp, f) for f in sorted(fns) if f.endswith(".py")]
    return out


def _module_of(path: str) -> str:
    mod = osp.relpath(path, ROOT)[:-3].replace(os.sep, ".")
    return mod.removesuffix(".__init__")


def _dotted(node) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def _external_uses(trees: dict) -> set[tuple[str, str]]:
    """(module, name) pairs some file imports from a package module or
    reads as an attribute of an imported package module. A package
    ``__init__`` import is a re-export, not a use: it counts only once
    some file imports the name from (or reads it off) the package."""
    uses, reexports = set(), {}  # (package, name) -> (module, name)
    for path, tree in trees.items():
        init = osp.basename(path) == "__init__.py" and _module_of(path).startswith("icrawler_ray")
        aliases = {}  # local name -> the package module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("icrawler_ray"):
                for a in node.names:
                    if init:
                        reexports[(_module_of(path), a.asname or a.name)] = (node.module, a.name)
                    else:
                        uses.add((node.module, a.name))
                    aliases[a.asname or a.name] = f"{node.module}.{a.name}"
            elif isinstance(node, ast.Import):
                for a in node.names:  # `import a.b as x` binds x to a.b; `import a.b` binds a
                    if a.name.startswith("icrawler_ray"):
                        local = a.asname or a.name.split(".")[0]
                        aliases[local] = a.name if a.asname else local
        for node in ast.walk(tree):
            base = isinstance(node, ast.Attribute) and _dotted(node.value)
            if base:
                head, _, rest = base.partition(".")
                if head in aliases:
                    uses.add((".".join(filter(None, [aliases[head], rest])), node.attr))
    todo = list(uses)
    while todo:  # a used re-export uses its source, which may be one too
        src = reexports.get(todo.pop())
        if src is not None and src not in uses:
            uses.add(src)
            todo.append(src)
    return uses


def _toplevel_defs(tree) -> set[str]:
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:  # tuple targets: `_CHUNK_W, _CHUNK_S = 64, 48`
                defined.update(n.id for n in ast.walk(t) if isinstance(n, ast.Name))
    return defined


def _own_loads(tree) -> set[str]:
    used = set()
    for node in tree.body:
        own = {node.name} if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else set()
        used.update(n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                    and n.id not in own)  # recursion is not a use
    return used


def test_every_toplevel_name_is_used():
    """Every top-level function, class and constant of every package
    module is loaded in its own module, or imported or read off the
    module by another package module, scripts/, perfbench/, tests/,
    bench.py or __ray_entry__.py. Dunder names are exempt."""
    trees = {}
    for path in _py_files(*USER_DIRS) + [osp.join(ROOT, f) for f in USER_FILES]:
        with open(path) as f:
            trees[path] = ast.parse(f.read())
    uses = _external_uses(trees)
    unused = []
    for path in _py_files("icrawler_ray"):
        mod, tree = _module_of(path), trees[path]
        used = _own_loads(tree) | {n for m, n in uses if m == mod}
        unused += [f"{mod}.{n}" for n in sorted(_toplevel_defs(tree) - used)
                   if not (n.startswith("__") and n.endswith("__"))]
    assert unused == []


def test_every_module_import_is_used():
    """A module-level import binds a name its module loads somewhere: no
    unused import survives a change. ``__init__`` modules are exempt (their
    imports are re-exports), and so is ``from __future__``."""
    unused = []
    for path in _py_files("icrawler_ray"):
        if osp.basename(path) == "__init__.py":
            continue
        with open(path) as f:
            tree = ast.parse(f.read())
        bound = []
        for node in tree.body:
            if isinstance(node, ast.Import):  # `import a.b` binds a
                bound += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [a.asname or a.name for a in node.names]
        loads = {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{_module_of(path)}: {n}" for n in bound if n not in loads]
    assert unused == []


def test_readme_tally_matches_registry():
    from icrawler_ray.queries import ORACLE_SQL, QUERIES

    with open(osp.join(ROOT, "README.md")) as f:
        m = re.search(r"(\d+) driver queries, (\d+) with DuckDB SQL oracles", f.read())
    assert m, "README.md lost its queries.py tally"
    assert (int(m.group(1)), int(m.group(2))) == (len(QUERIES), len(ORACLE_SQL))

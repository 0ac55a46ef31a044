"""Driver contract for the graft builder (Ray Data target).

entry(): flagship pipeline — the greedy frontier crawl (politeness gate ->
FetchParse actor pool -> sharded bloom+cuckoo seen-set -> download ->
deterministic filenames) over the hermetic synthetic web, returning the
interleaved text+media corpus (doc_id, spans list<struct>) as a Dataset.

queries()/oracle_sql(): one entry per implemented operator family from
SURVEY.md §2 plus the training-data operators (dedup / similarity / text
analysis / multimodal plumbing), defined in icrawler_ray/queries.py. Ray
is initialised by the driver BEFORE this module is imported; nothing here
calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import os.path as osp
import sys
from collections.abc import Callable
from typing import Any

sys.path.insert(0, osp.dirname(osp.abspath(__file__)))


def entry() -> Any:
    """Flagship: greedy frontier crawl -> interleaved corpus Dataset."""
    import ray
    import ray.data

    from icrawler_ray.pipelines.greedy import greedy_crawl
    from icrawler_ray.schemas import CORPUS
    from icrawler_ray.stages.politeness import HostPolicy
    from icrawler_ray.synthweb.generate import make_synthweb

    web = make_synthweb(n_pages=150, n_hosts=4, seed=42)
    policy = HostPolicy(web.host_policy, round_ms=1000)
    docs, _results, _metrics = greedy_crawl(
        ray.put(web.url_map()), web.domains, policy=policy,
        max_num=50, max_depth=3, keep_content=False,
    )
    if docs is None:
        return ray.data.from_arrow(CORPUS.empty_table())
    return docs.select_columns(["doc_id", "spans"])


def queries() -> dict[str, Callable[[str], Any]]:
    from icrawler_ray.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from icrawler_ray.queries import ORACLE_SQL

    return dict(ORACLE_SQL)

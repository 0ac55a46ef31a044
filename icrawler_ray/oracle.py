"""Sequential oracle crawler.

A single-threaded, plain-Python implementation of the engine's crawl
SEMANTICS (SURVEY.md §5 M0): same parse rules, same politeness budgets,
same ordering definition, same intended 2xx gate — used to produce golden
outputs that the distributed Ray pipelines must match exactly
(span-sequence equality per doc, URL-seen-set equality, crawl-order /
filename equality), at any parallelism.

This is NOT the reference implementation (that one's ordering is a thread
interleaving artifact, /root/reference/icrawler/downloader.py:110-139); it
is the engine's *defined* deterministic semantics, which coincide with the
reference's when the reference runs 1 thread per stage and the intended
(non-inverted) status gate.
"""

from __future__ import annotations

from icrawler_ray.defaults import DEFAULT_EXT, IMAGE_EXT_WHITELIST
from icrawler_ray.functions.urlnorm import canonicalize_one, host_of_one, path_ext_one
from icrawler_ray.pipelines.greedy import normalize_domains
from icrawler_ray.stages.download import size_gt, size_lt
from icrawler_ray.stages.parsers import GreedyRules
from icrawler_ray.stages.politeness import HostPolicy
from icrawler_ray.synthweb import fakeimg
from icrawler_ray.synthweb.fetchstub import make_session


_canon1 = canonicalize_one
_host1 = host_of_one


def _ext1(url: str, default_ext: str) -> str:
    e = path_ext_one(url)
    return e if e and e.lower() in IMAGE_EXT_WHITELIST else default_ext


class OracleCrawl:
    def __init__(self, url_map, domains, policy: HostPolicy | None = None,
                 max_num: int = 0, max_depth: int = 6, max_rounds: int = 64,
                 min_size=None, max_size=None, default_ext: str = DEFAULT_EXT):
        self.session = make_session(url_map)  # dict / ObjectRef / procedural spec
        self.domains = normalize_domains(domains)
        self.rules = GreedyRules(self.domains)
        self.policy = policy or HostPolicy({})
        self.max_num = max_num
        self.max_depth = max_depth
        self.max_rounds = max_rounds
        self.min_size = tuple(min_size) if min_size else None
        self.max_size = tuple(max_size) if max_size else None
        self.default_ext = default_ext

        self.seen_pages: set[str] = set()
        self.seen_files: set[str] = set()
        self.docs: list[dict] = []
        self.results: list[dict] = []
        self.dl_count = 0
        self.next_seq = 0

    # one frontier row: dict(url, canon, host, depth, priority, seq)
    def run(self):
        frontier = []
        for i, d in enumerate(self.domains):  # seq = input position (engine parity)
            canon = _canon1(d)
            if canon in self.seen_pages:
                continue
            self.seen_pages.add(canon)
            frontier.append(
                {"url": d, "canon": canon, "host": _host1(d), "depth": 0,
                 "priority": 1.0, "seq": i}
            )
        self.next_seq = len(self.domains)

        for round_idx in range(self.max_rounds):  # noqa: B007
            if not frontier or (self.max_num and self.dl_count >= self.max_num):
                break
            frontier = self._round(frontier)
        return self.docs, self.results

    def _gate(self, frontier):
        """politeness: robots drop + per-host (priority desc, seq asc) budget."""
        live = []
        for row in frontier:
            path = row["url"].split(row["host"], 1)[-1] if row["host"] in row["url"] else "/"
            if not path.startswith("/"):
                path = "/" + path
            if any(path.startswith(p) for p in self.policy.disallowed(row["host"])):
                continue
            live.append(row)
        gated, deferred = [], []
        by_host: dict[str, list] = {}
        for row in live:
            by_host.setdefault(row["host"], []).append(row)
        for host, rows in by_host.items():
            rows.sort(key=lambda r: (-r["priority"], r["seq"]))
            b = self.policy.budget(host)
            gated.extend(rows[:b])
            deferred.extend(rows[b:])
        return gated, deferred

    def _round(self, frontier):
        gated, deferred = self._gate(frontier)
        round_tasks = []   # (parent_seq, emit_ord, file_url)
        round_links = []   # (parent_seq, emit_ord, url, parent_depth, page_url)
        for row in gated:
            try:
                resp = self.session.get(row["url"])
            except Exception:
                continue
            if not (200 <= resp.status_code < 300):
                continue
            spans, emissions = self.rules.parse(resp)
            self.docs.append(
                {
                    "doc_id": row["url"],
                    "spans": [
                        {"kind": k, "text": t, "media_ref": r, "offset": i}
                        for i, (k, t, r) in enumerate(spans)
                    ],
                }
            )
            for ord_, em in enumerate(emissions):
                if em[0] == "task":
                    round_tasks.append((row["seq"], ord_, em[1]))
                else:
                    round_links.append((row["seq"], ord_, em[1], row["depth"], row["url"]))

        # ---- downloads, in defined order, insertion-order dedup
        round_tasks.sort(key=lambda x: (x[0], x[1]))
        claimed = set()
        for parent_seq, ord_, url in round_tasks:
            canon = _canon1(url)
            if canon in claimed or canon in self.seen_files:
                continue
            claimed.add(canon)
            self.seen_files.add(canon)  # enqueue-time marking, even past max_num
            if self.max_num and self.dl_count >= self.max_num:
                continue
            try:
                resp = self.session.get(url)
            except Exception:
                continue
            if not (200 <= resp.status_code < 300):
                continue
            size = fakeimg.decode_size(resp.content)
            if size is None:
                continue
            if self.min_size and not size_gt(size, self.min_size):
                continue
            if self.max_size and not size_lt(size, self.max_size):
                continue
            self.dl_count += 1
            self.results.append(
                {
                    "file_url": url,
                    "filename": f"{self.dl_count:06d}.{_ext1(url, self.default_ext)}",
                    "img_w": size[0],
                    "img_h": size[1],
                }
            )

        # NB: the engine truncates downloads with limit() AFTER completing
        # the round's frontier work; the oracle's mid-loop break above
        # yields the same kept set because ordering is identical.

        # ---- frontier expansion, insertion-order dedup + seen filter
        round_links.sort(key=lambda x: (x[0], x[1]))
        new_frontier = list(deferred)
        claimed_links = set()
        for parent_seq, ord_, url, parent_depth, _page in round_links:
            canon = _canon1(url)
            if canon in claimed_links:
                continue
            claimed_links.add(canon)
            if parent_depth >= self.max_depth:
                continue
            if canon in self.seen_pages:
                continue
            self.seen_pages.add(canon)
            new_frontier.append(
                {"url": url, "canon": canon, "host": _host1(url),
                 "depth": parent_depth + 1, "priority": 1.0, "seq": self.next_seq}
            )
            self.next_seq += 1
        return new_frontier

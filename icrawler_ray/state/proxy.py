"""Weighted proxy pool (SURVEY.md T3).

Reimplements the reference ProxyPool semantics
(/root/reference/icrawler/utils/proxy_pool.py:12-150) as plain state that
each fetch actor's live session holds a copy of
(``LiveSession(proxy_state=...)``; weight updates are commutative
multiplicative, so per-actor copies converge — the documented trade-off):

- get_next(protocol): weighted random choice with weight-rejection
  resampling (proxy_pool.py:140-141)
- increase_weight: w = min(1, w / 0.9); decrease_weight: w *= 0.9;
  remove below 0.2 (the reference's multiplicative update constants)
- scanners (the reference scrapes 4 public proxy sites,
  proxy_pool.py:225-355) are a live-web concern: here a file loader plus
  a ``register_scanner`` plugin hook mirror the offline surface.

No live validation threads: the stub web has no proxies to validate; the
validation hook is injectable for real deployments.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

WEIGHT_DECAY = 0.9
MIN_WEIGHT = 0.2


@dataclass
class Proxy:
    addr: str
    protocol: str = "http"  # "http" | "https"
    weight: float = 1.0
    last_checked: int = 0

    def format(self) -> dict:
        return {self.protocol: f"{self.protocol}://{self.addr}"}


@dataclass
class ProxyPoolState:
    proxies: dict[str, list] = field(default_factory=lambda: {"http": [], "https": []})
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    def add(self, proxy: Proxy) -> None:
        self.proxies.setdefault(proxy.protocol, []).append(proxy)

    def get_next(self, protocol: str = "http") -> Proxy | None:
        """Weighted choice with weight-rejection resampling: draw a
        candidate uniformly, accept with probability = weight
        (proxy_pool.py:133-143 semantics)."""
        pool = self.proxies.get(protocol) or []
        if not pool:
            return None
        for _ in range(64):
            cand = pool[self.rng.randrange(len(pool))]
            if self.rng.random() < cand.weight:
                return cand
        return max(pool, key=lambda p: p.weight)

    def increase_weight(self, proxy: Proxy) -> None:
        proxy.weight = min(1.0, proxy.weight / WEIGHT_DECAY)

    def decrease_weight(self, proxy: Proxy) -> None:
        proxy.weight *= WEIGHT_DECAY
        if proxy.weight < MIN_WEIGHT:
            pool = self.proxies.get(proxy.protocol) or []
            if proxy in pool:
                pool.remove(proxy)

    def load_file(self, path: str) -> int:
        """File scanner (proxy_pool.py file format: one JSON per line or
        addr per line)."""
        n = 0
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    self.add(Proxy(addr=rec["addr"], protocol=rec.get("protocol", "http"),
                                   weight=float(rec.get("weight", 1.0))))
                except (ValueError, KeyError):
                    self.add(Proxy(addr=line))
                n += 1
        return n


_SCANNERS: dict[str, callable] = {}


def register_scanner(name: str, fn) -> None:
    """Plugin hook mirroring proxy_pool.py:378-386 (register_func)."""
    _SCANNERS[name] = fn


def run_scanner(name: str, session, **kwargs):
    """Invoke a registered scanner: ``fn(session, **kwargs)`` yielding
    {'addr', 'protocol'} candidate dicts (feed into scan_and_validate)."""
    return _SCANNERS[name](session, **kwargs)


# ---------------------------------------------------------------------------
# Site scanners + validation loop (reference proxy_pool.py:225-355,378-386).
# Re-expressed session-injected: pass a ``make_session``-compatible object —
# the hermetic StubSession over fixture HTML for tests, LiveSession for real
# deployments. Parsing uses regex table scanning (this repo has no
# BeautifulSoup); the per-site URL schedules, cell positions and filter
# rules mirror the reference exactly.

_TABLE_RE = None


def _tables(html: str) -> list[tuple[str, str]]:
    """[(table_tag_attrs, table_body)] for each <table> in the page."""
    import re

    global _TABLE_RE
    if _TABLE_RE is None:
        _TABLE_RE = re.compile(r"<table([^>]*)>(.*?)</table>", re.S | re.I)
    return [(m.group(1), m.group(2)) for m in _TABLE_RE.finditer(html)]


def _td_rows(table_body: str) -> list[list[str]]:
    """Per <tr>: its <td> cell texts; header rows (<th>) are skipped
    (reference tr.th-is-None filter, proxy_pool.py:406-407)."""
    import re

    rows = []
    for tr in re.findall(r"<tr[^>]*>(.*?)</tr>", table_body, re.S | re.I):
        if re.search(r"<th[\s>]", tr, re.I):
            continue
        tds = [re.sub(r"<[^>]+>", "", c).strip()
               for c in re.findall(r"<td[^>]*>(.*?)</td>", tr, re.S | re.I)]
        if tds:
            rows.append(tds)
    return rows


def scan_ip84(session, region: str = "mainland", page: int = 1):
    """ip84.com scanner (proxy_pool.py:388-412): region-specific page
    URLs, table class="list", protocol from cell 4, addr from cells 0:1."""
    for i in range(1, page + 1):
        seg = {"mainland": "dlgn", "overseas": "gwgn"}.get(region, "gn")
        resp = session.get(f"http://ip84.com/{seg}/{i}")
        for attrs, body in _tables(resp.content.decode("utf-8", "ignore")):
            if "list" not in attrs:
                continue
            for info in _td_rows(body):
                if len(info) >= 5:
                    yield {"addr": f"{info[0]}:{info[1]}", "protocol": info[4].lower()}


def scan_mimiip(session, region: str = "mainland", page: int = 1):
    """mimiip.com scanner (proxy_pool.py:414-439); same table shape."""
    for i in range(1, page + 1):
        seg = {"overseas": "hw"}.get(region, "gngao")
        resp = session.get(f"http://www.mimiip.com/{seg}/{i}")
        for attrs, body in _tables(resp.content.decode("utf-8", "ignore")):
            if "list" not in attrs:
                continue
            for info in _td_rows(body):
                if len(info) >= 5:
                    yield {"addr": f"{info[0]}:{info[1]}", "protocol": info[4].lower()}


def scan_cnproxy(session):
    """cn-proxy.com scanner (proxy_pool.py:441-452): every class="sortable"
    table, protocol fixed to http."""
    resp = session.get("http://cn-proxy.com")
    for attrs, body in _tables(resp.content.decode("utf-8", "ignore")):
        if "sortable" not in attrs:
            continue
        for info in _td_rows(body):
            if len(info) >= 2:
                yield {"addr": f"{info[0]}:{info[1]}", "protocol": "http"}


def scan_free_proxy_list(session):
    """free-proxy-list.net scanner (proxy_pool.py:454-469): table
    id="proxylisttable", elite-only filter, https when cell 6 == 'yes'."""
    resp = session.get("http://free-proxy-list.net")
    for attrs, body in _tables(resp.content.decode("utf-8", "ignore")):
        if "proxylisttable" not in attrs:
            continue
        for info in _td_rows(body):
            if len(info) < 7 or info[4] != "elite proxy":
                continue
            yield {"addr": f"{info[0]}:{info[1]}",
                   "protocol": "https" if info[6] == "yes" else "http"}


TEST_URLS = {"http": "http://www.baidu.com", "https": "https://www.baidu.com"}


def is_valid(addr: str, protocol: str = "http", timeout: float = 5,
             session=None) -> dict:
    """Probe one candidate through the proxy (proxy_pool.py:202-230):
    {'valid': True, 'response_time': s} or {'valid': False, 'msg': ...}.
    ``session`` must expose ``get(url, timeout=, proxies=)`` (a raw
    requests module/Session works); injectable for offline tests."""
    import time as _time

    if session is None:  # pragma: no cover - live path
        import requests as session  # type: ignore  # noqa: PLC0415
    start = _time.time()
    try:
        r = session.get(TEST_URLS[protocol], timeout=timeout,
                        proxies={protocol: "http://" + addr})
    except KeyboardInterrupt:
        raise
    except BaseException as e:  # noqa: B036 (reference breadth)
        return {"valid": False, "msg": type(e).__name__.lower()}
    if r.status_code == 200:
        return {"valid": True, "response_time": _time.time() - start}
    return {"valid": False, "msg": f"status code: {r.status_code}"}


def scan_and_validate(state: ProxyPoolState, scanners, expected_num: int = 20,
                      is_valid_fn=is_valid, val_concurrency: int = 4) -> int:
    """Reference scan()+validate() loop (proxy_pool.py:231-300) without
    its thread plumbing: candidates stream from the scanners, validate in
    a small thread pool (IO-bound), stop once ``expected_num`` proxies are
    in the pool. Returns the number added."""
    from concurrent.futures import ThreadPoolExecutor
    from itertools import chain

    added = 0
    candidates = chain.from_iterable(s if not callable(s) else s() for s in scanners)
    with ThreadPoolExecutor(max_workers=val_concurrency) as ex:
        while added < expected_num:
            batch = []
            for cand in candidates:
                batch.append(cand)
                if len(batch) >= val_concurrency * 4:
                    break
            if not batch:
                break
            results = ex.map(lambda c: (c, is_valid_fn(c["addr"], c["protocol"])), batch)
            for cand, ret in results:
                if added >= expected_num:
                    break
                if ret.get("valid"):
                    state.add(Proxy(addr=cand["addr"], protocol=cand["protocol"]))
                    added += 1
    return added


register_scanner("ip84", scan_ip84)
register_scanner("mimiip", scan_mimiip)
register_scanner("cnproxy", scan_cnproxy)
register_scanner("free_proxy_list", scan_free_proxy_list)

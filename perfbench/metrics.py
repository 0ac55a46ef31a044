"""Metric rendering. Names, units and directions are read from
BENCHMARK.json (``end_to_end`` and ``per_layer``), the one place they are
declared.

Every run prints every metric of its kind, on every workload: untraced
runs the end-to-end ones, traced runs the per-layer ones. A per-layer
metric of a layer the workload does not run reads 0 (see LAYERS.md for
which metric moves on which workload).
"""

from __future__ import annotations

import json
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: layers with spans; each reports ``<layer>.self_s``
LAYERS = ("greedy", "politeness", "fetch_parse", "urlnorm", "seen", "bloom",
          "cuckoo", "download", "sinks", "checkpoint", "dedup", "linkgraph")

#: round-phase keys the greedy round modes return in metrics["timings"]
PHASES = ("gate", "parse", "claims", "download", "dl_ctrl", "dl_persist",
          "links", "links_collect", "deferred", "reblock")


def spec(kind: str) -> dict[str, str]:
    """name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer`` list."""
    bench = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def render(values: dict, kind: str) -> dict:
    """Every metric of ``kind`` as {"value", "unit"}; absent ones read 0."""
    units = spec(kind)
    unknown = set(values) - set(units)
    if unknown:
        raise KeyError(f"metrics not in BENCHMARK.json {kind}: {sorted(unknown)}")
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()}

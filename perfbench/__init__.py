"""Engine benchmark for icrawler_ray: two crawl-engine workloads, checked
against independent references, with a separate traced run for per-layer
numbers. Entry point: ``python3 perfbench/run.py --workload <name> ...``."""

#: the workloads, in BENCHMARK.json order (perfbench.workloads implements them)
WORKLOAD_NAMES = ("crawl-broad", "crawl-polite")

from icrawler_ray.functions.urlnorm import (  # noqa: F401
    canonicalize,
    classify_greedy,
    hash_urls,
    hosts_of,
)

"""Fixed Arrow schemas for every logical table of the engine.

The reference is schemaless (dicts/strings on queues; see
/root/reference/icrawler/utils/cached_queue.py:39-44 for the dynamic-typing
contortions). This engine pins the pyarrow schemas its stages share: the
span struct, the corpus documents and the URL frontier.
"""

import pyarrow as pa

SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),       # "text" | "media" | "link"
        ("text", pa.string()),       # filled for kind=text, else ""
        ("media_ref", pa.string()),  # URL for kind=media/link, else ""
        ("offset", pa.int32()),      # 0-based span position within the doc
    ]
)

# Interleaved text+media documents (driver input_hint; the corpus substrate).
CORPUS = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", pa.list_(SPAN_STRUCT)),
    ]
)

# URL frontier (internal; hash-partitioned by url_hash for dedup, by host
# for politeness).
FRONTIER = pa.schema(
    [
        ("url", pa.string()),
        ("url_canon", pa.string()),
        ("url_hash", pa.uint64()),
        ("host", pa.string()),
        ("depth", pa.int32()),
        ("priority", pa.float64()),
        ("discovered_seq", pa.int64()),
        ("parent_doc_id", pa.string()),
    ]
)

"""Fixed Arrow schemas for every logical table of the engine.

The reference is schemaless (dicts/strings on queues; see
/root/reference/icrawler/utils/cached_queue.py:39-44 for the dynamic-typing
contortions). This engine pins one pyarrow.Schema per logical table; all
map_batches stages use batch_format="pyarrow" against these.
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

# Download tasks (parser output; reference "task dict" with required
# file_url, /root/reference/icrawler/builtin/google.py:168).
TASKS = pa.schema(
    [
        ("file_url", pa.string()),
        ("url_hash", pa.uint64()),
        ("host", pa.string()),
        ("source_page", pa.string()),
        ("meta_json", pa.string()),
        ("order_in_page", pa.int32()),
    ]
)

# Download results (reference task after Downloader.download mutated it,
# /root/reference/icrawler/downloader.py:105-146 + img_size at :258).
RESULTS = pa.schema(
    [
        ("file_url", pa.string()),
        ("filename", pa.string()),
        ("success", pa.bool_()),
        ("status", pa.int32()),
        ("img_w", pa.int32()),
        ("img_h", pa.int32()),
        ("content", pa.binary()),
        ("error", pa.string()),
    ]
)


def empty_table(schema: pa.Schema) -> pa.Table:
    return schema.empty_table()

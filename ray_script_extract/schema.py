"""Arrow schemas for the engine's input/output span tables.

Input/output table shape per the target contract (BASELINE.json
``input_hint``): one row per document,
``(doc_id: string, spans: list<struct<kind, text, media_ref, offset>>)``.
Output spans carry the screenplay JSON type names as ``kind``
(re-derived from `/root/reference/src/parser/analyzer/Objects.php:81-100`).
"""

from __future__ import annotations

import pyarrow as pa

SPAN_STRUCT = pa.struct([
    pa.field("kind", pa.string()),
    pa.field("text", pa.string()),
    pa.field("media_ref", pa.string()),
    pa.field("offset", pa.int32()),
])

DOC_SCHEMA = pa.schema([
    pa.field("doc_id", pa.string()),
    pa.field("spans", pa.list_(SPAN_STRUCT)),
])

# Input span kinds (what a row may contain, FIXTURES.md §1)
INPUT_KINDS = ("pdf_page_xml", "pdf_raw", "html", "text", "image", "media")

# Output span kinds: the reference's JSON type names plus passthrough media
OUTPUT_KINDS = ("Scene", "Dialogue", "Character", "Parens", "Action",
                "Transition", "Shot", "New Act", "Text", "Title", "Author",
                "Page Header", "The End", "Fly Page Text", "image", "media")

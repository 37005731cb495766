"""Per-document size stats for the extract stage's size guard.

``doc_bytes`` is the UTF-8 byte total of a document's span texts,
computed vectorized (Arrow buffer arithmetic, no Python loop).  The
extract stage rejects a document above ``ExtractorActor.MAX_DOC_BYTES``
by it, as the reference rejects an oversized upload.  Heavy-document
skew is left to the pipeline's small batch size.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _per_row_text_bytes(spans: pa.ListArray) -> np.ndarray:
    """Sum of UTF-8 byte lengths of span texts per document row."""
    flat = spans.flatten()
    text_len = pc.binary_length(flat.field("text")).to_numpy(zero_copy_only=False)
    text_len = np.nan_to_num(text_len).astype(np.int64)
    offsets = spans.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    # offsets may not start at 0 for sliced arrays; normalize
    csum = np.concatenate([[0], np.cumsum(text_len)])
    return csum[offsets[1:] - offsets[0]] - csum[offsets[:-1] - offsets[0]]


def add_size_stats(batch: pa.Table) -> pa.Table:
    spans = batch.column("spans").combine_chunks()
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.chunk(0) if spans.num_chunks else None
    if spans is None or len(batch) == 0:
        return batch.append_column("doc_bytes", pa.array([], pa.int64()))
    return batch.append_column(
        "doc_bytes", pa.array(_per_row_text_bytes(spans), pa.int64()))

"""The flagship extraction pipeline.

    corpus (Dataset of interleaved docs)
      → map_batches(extract_batch, pyarrow)    [task pool, warm state]
      → write_parquet(partitioned) + lineage   [resumable]

Everything streams: no driver-side materialization; blocks flow with
backpressure.  The stage sizes each document itself for its
``MAX_DOC_BYTES`` guard, so no size-stats stage runs before it.

Each read block is mapped whole: with no batch size Ray Data fuses
ReadParquet, the extract map and the sink into one task per block, and
Ray already bounds a block by bytes.  A fixed doc count only split
those blocks and kept ReadParquet a separate operator; on 1 CPU, jobs
with a no-op extract over the same plan ran 0.21 → 0.16 s (``pdf_raw``)
and 0.23 → 0.18 s (``html_plays``) once fused (medians of 6
interleaved rounds).
"""

from __future__ import annotations

import ray.data


def build_extract_pipeline(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Plain task pool with module-level warm state — pre-started Ray
    workers are reused, so the compiled predicate tables are built once
    per worker process (a cold 32-actor pool measured ~60 s of spawn
    before the first batch)."""
    from ..stages.extract import extract_batch

    return ds.map_batches(extract_batch, batch_format="pyarrow",
                          batch_size=None, zero_copy_batch=True)


def read_corpus(path: str) -> "ray.data.Dataset":
    """Read an interleaved-document corpus table.

    Lance is the production table format (BASELINE.json north rule:
    "Lance tables of interleaved text + media documents"); this
    container does not ship the ``lance`` package, so the gated
    fallback reads the same Arrow schema from parquet — identical
    downstream pipeline either way (`ray.data.read_lance` and
    `read_parquet` both yield zero-copy Arrow blocks)."""
    try:
        import lance  # noqa: F401

        return ray.data.read_lance(path)
    except ImportError:
        return ray.data.read_parquet(path)


def write_corpus(ds: "ray.data.Dataset", path: str) -> None:
    """Write the corpus table (Lance when available, else parquet)."""
    try:
        import lance  # noqa: F401

        ds.write_lance(path)
    except ImportError:
        ds.write_parquet(path)


def write_corpus_jsonl(ds: "ray.data.Dataset", path: str) -> None:
    """JSONL interchange sink: one ``{"doc_id": ..., "spans": [{kind,
    text, media_ref, offset}, ...]}`` object per line, one file per
    block — the lingua franca for handing a corpus to a non-Arrow
    consumer.  Streaming: each block is serialized and written by its
    own task, the driver never sees document bytes."""
    ds.write_json(path)


def read_corpus_jsonl(path: str,
                      compression: str | None = None) -> "ray.data.Dataset":
    """JSONL interchange source: parses shard files in parallel
    (pyarrow's block JSON reader, not a Python per-line loop) and
    restores the canonical ``DOC_SCHEMA`` — JSON has no int32 or
    struct-field ordering, so the span structs are rebuilt
    column-by-column instead of relying on ``cast``.

    ``compression``: compressed shards (`.jsonl.gz` — the wire format
    most corpus drops arrive in) decompress inside each read task,
    never on the driver.  Arrow autodetects the codec from a ``.gz``
    file suffix (round-tripped in tests/test_jsonl_corpus.py); pass
    "gzip" (or any pyarrow stream codec) explicitly for shards
    without the suffix."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..schema import DOC_SCHEMA, SPAN_STRUCT

    def to_schema(tbl: pa.Table) -> pa.Table:
        col = tbl.column("spans")
        # list_flatten/list_value_length are slice- and chunk-proof,
        # unlike raw .offsets arithmetic on possibly-sliced ListArrays
        vals = pc.list_flatten(col).combine_chunks()
        lens = pc.list_value_length(col).to_numpy(zero_copy_only=False)
        offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
        struct = pa.StructArray.from_arrays(
            [vals.field("kind").cast(pa.string()),
             vals.field("text").cast(pa.string()),
             vals.field("media_ref").cast(pa.string()),
             vals.field("offset").cast(pa.int32())],
            fields=list(SPAN_STRUCT))
        spans = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                         struct)
        return pa.table({"doc_id": tbl.column("doc_id").cast(pa.string()),
                         "spans": spans}, schema=DOC_SCHEMA)

    if compression is None and path.endswith(".gz"):
        compression = "gzip"
    kw = {}
    if compression is not None:
        kw = {"arrow_open_stream_args": {"compression": compression},
              "file_extensions": None}
    return ray.data.read_json(path, **kw).map_batches(
        to_schema, batch_format="pyarrow", zero_copy_batch=True)


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



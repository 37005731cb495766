"""ray-script-extract: a Ray-Data-native document-extraction engine.

Brand-new engine (not a port) with the query/data-processing
capabilities of the reference screenplay-conversion service
(`gotoenchanter725/PDF-parser-TS`).  Input is a table of interleaved
text+media documents ``(doc_id, spans: list<struct<kind, text,
media_ref, offset>>)`` consumed as a ``ray.data.Dataset``; extraction
runs as ``map_batches`` over zero-copy Arrow batches on an actor pool;
output is the same span shape with screenplay-typed kinds.

Nothing in this package calls ``ray.init`` / ``ray.shutdown`` — the
driver (bench.py, tests/conftest.py, CLI) owns the Ray session.  Nor
does importing it import ``ray.data`` or pandas: the extract and
lineage stages run in Ray workers that never plan a dataset, so only
``pipelines`` (which plans them) imports ``ray.data``.
"""

__version__ = "0.1.0"


def _tune_malloc() -> None:
    """Keep large allocations on the reusable glibc heap.

    This sandbox (a Firecracker microVM) backs fresh anonymous pages
    with on-demand faults at only ~5-30 MB/s, and glibc serves every
    allocation over 128 KB via mmap — munmapped on free — so each
    large numpy temporary re-faults all its pages on every batch
    (measured here: a 133 MB ndarray fill costs 20-30 s via fresh
    mmap vs 0.02 s from reused heap pages).  Raising the mmap and
    trim thresholds makes large allocations come from (and return to)
    the heap, so the fault cost is paid once per worker lifetime, not
    once per batch.  Standard long-lived-worker tuning on any Linux;
    on this box it is a ~100× lever for vectorized stages.  Runs at
    package import, so every Ray worker that imports the library gets
    it — no env-var propagation needed."""
    import sys

    if not sys.platform.startswith("linux"):
        return
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
        libc.mallopt(M_MMAP_THRESHOLD, 1 << 30)
        libc.mallopt(M_TRIM_THRESHOLD, 1 << 30)
    except Exception:
        pass


_tune_malloc()

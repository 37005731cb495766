"""The extraction stage: interleaved input spans → typed output spans.

This is the engine's flagship ``map_batches`` stage.  ``ExtractorActor``
holds the warm state — compiled predicate/classifier tables, the PDF
front-end — built once in ``__init__``;
``__call__`` handles one zero-copy Arrow batch of documents.  The
pipeline runs it through ``extract_batch``, a module-level singleton
in a plain task pool.

Dispatch per input span kind (FIXTURES.md §1):

* ``html``          → one tokenizer pass straight to ``(kind, text)``
  records (no DOM tree, no ScriptObjects, one attribute read per
  speech anchor) → screenplay spans
* ``text``          → passthrough ``Text`` spans
* ``pdf_page_xml``  → line assembly + block engine (engine/) →
  ``(kind, text, page)`` records (no ScriptObjects)
* ``pdf_raw``       → native PDF front-end → typed page records → line
  assembly + block engine (no XML) → the same records, each page's
  images after the records that start on it
* ``image``/``media`` → passthrough at their relative position

A document is the atom of parallelism (the reference processed one
file per request/process; intra-document order is load-bearing), so
per-document work is sequential by design and throughput comes from
the pool.
"""

from __future__ import annotations

import gc
from typing import Dict, List, Tuple

import numpy as np
import pyarrow as pa

from ..schema import SPAN_STRUCT
from ..sources.shakespeare import parse_shakespeare_text
from .sizebucket import _per_row_text_bytes

# one output span: (kind, text, media_ref)
Record = Tuple[str, str, str]


class ExtractorActor:
    """Stateful batch extractor.  ``extract_batch`` keeps one per worker
    process (``ds.map_batches(extract_batch, batch_format="pyarrow",
    batch_size=None, zero_copy_batch=True)``), and the resumable lineage
    job calls it once per fragment; ``extract_doc`` is the per-document
    step."""

    def __init__(self) -> None:
        # Warm state: importing the modules compiled every predicate
        # regex and the HTML tokenizer; per-actor caches go here.
        from ..engine import pdfdoc  # noqa: F401  (registers PDF path)
        self._pdf_extract = pdfdoc.extract_pdf_xml_document
        self._pdf_raw_extract = pdfdoc.extract_pdf_raw_document_with_media

    # -- per-document extraction --------------------------------------
    def extract_doc(self, doc_id: str, spans: List[Dict]) -> List[Record]:
        """One document's output spans, in order, as ``(kind, text,
        media_ref)`` records; a span's ``offset`` is its position."""
        out: List[Record] = []
        emit = out.append

        # Group consecutive pdf_page_xml spans: they are pages of ONE
        # document and must run through a single sequential page fold.
        pending_pages: List[str] = []

        def flush_pages() -> None:
            if pending_pages:
                out.extend([(rec_kind, text, "") for rec_kind, text, _
                            in self._pdf_extract(pending_pages)])
                pending_pages.clear()

        for span in spans:
            kind = span["kind"]
            if kind == "pdf_page_xml":
                pending_pages.append(span["text"])
                continue
            flush_pages()
            if kind == "html":
                out.extend([(rec_kind, text, "") for rec_kind, text
                            in parse_shakespeare_text(span["text"])])
            elif kind == "text":
                emit(("Text", span["text"], ""))
            elif kind == "pdf_raw":
                # interleave content-addressed image spans at their
                # page position: each page's images emit after the
                # records whose first line sits on that page
                script, page_media = self._pdf_raw_extract(span["text"])
                cur_page = 1

                def emit_media_through(page: int) -> None:
                    nonlocal cur_page
                    while cur_page <= min(page, len(page_media)):
                        for m in page_media[cur_page - 1]:
                            emit(("image", f'{m["width"]}x{m["height"]}',
                                  m["ref"]))
                        cur_page += 1

                for rec_kind, text, page in script.records():
                    emit_media_through(page - 1)
                    emit((rec_kind, text, ""))
                emit_media_through(len(page_media))
            elif kind in ("image", "media"):
                emit((kind, "", span["media_ref"]))
            else:
                # Unknown input kinds degrade to Text, mirroring the
                # reference's closed-world coercion (Objects.php:44-47).
                emit(("Text", span.get("text", ""), ""))
        flush_pages()
        return out

    # the reference rejects uploads over 20 MB with HTTP 413
    # (convert_script.controller.ts:95-98); here it's a per-row guard
    MAX_DOC_BYTES = 20 * 1024 * 1024

    def __call__(self, batch: pa.Table) -> pa.Table:
        """One batch of documents → ``(doc_id, spans, n_spans)``.

        Every document's records go into per-batch column lists, and
        the span ``ListArray`` is built from them once; the spans'
        offsets come from the documents' bounds in one array pass.  A
        document whose span texts total over ``MAX_DOC_BYTES`` of UTF-8
        gets no spans."""
        doc_ids = batch.column("doc_id").to_pylist()
        spans_in = batch.column("spans").combine_chunks()
        sizes = _per_row_text_bytes(spans_in).tolist() if len(batch) else []
        kinds: List[str] = []
        texts: List[str] = []
        refs: List[str] = []
        ends = [0]
        # A document's engine state lives until its records are out, long
        # enough to survive young collections and set off full ones, each
        # a walk of the whole worker heap (about 65 ms in a Ray worker,
        # once per 300-doc job).  The collector waits out the batch;
        # reference counting still frees each document's state.
        collecting = gc.isenabled()
        gc.disable()
        try:
            for doc_id, spans, size in zip(doc_ids, spans_in.to_pylist(),
                                           sizes):
                if size <= self.MAX_DOC_BYTES:
                    records = self.extract_doc(doc_id, spans or [])
                    if records:
                        k, t, r = zip(*records)
                        kinds += k
                        texts += t
                        refs += r
                ends.append(len(kinds))
        finally:
            if collecting:
                gc.enable()
        bounds = np.asarray(ends, np.int32)
        n_spans = np.diff(bounds)
        # a span's offset is its position in its document
        offsets = (np.arange(len(kinds), dtype=np.int32)
                   - np.repeat(bounds[:-1], n_spans))
        columns = [pa.array(kinds, pa.string()), pa.array(texts, pa.string()),
                   pa.array(refs, pa.string()), pa.array(offsets, pa.int32())]
        spans_out = pa.ListArray.from_arrays(
            pa.array(bounds, pa.int32()),
            pa.StructArray.from_arrays(columns, fields=list(SPAN_STRUCT)))
        return pa.table({
            "doc_id": pa.array(doc_ids, pa.string()),
            "spans": spans_out,
            "n_spans": pa.array(n_spans, pa.int64()),
        })


_EXTRACTOR_SINGLETON: "ExtractorActor | None" = None


def extract_batch(batch: pa.Table) -> pa.Table:
    """Task-pool variant of the extract stage.

    The extractor's warm state (compiled predicate/classifier tables)
    lives at MODULE level, so Ray's worker-process reuse gives every
    task the warm state for free — measured on this box, a 32-actor
    pool costs ~60 s of cold actor-spawn before the first batch while
    the plain task pool reuses pre-started workers.  Use the
    ``ExtractorActor`` class form only for stages with genuinely
    per-actor state (model weights, mutable indexes)."""
    global _EXTRACTOR_SINGLETON
    if _EXTRACTOR_SINGLETON is None:
        _EXTRACTOR_SINGLETON = ExtractorActor()
    return _EXTRACTOR_SINGLETON(batch)


def explode_spans(batch: pa.Table) -> pa.Table:
    """Flatten (doc_id, spans[...]) to one row per span — the bridge
    from the nested doc table to relational analytics (groupby etc.).
    Pure Arrow (no Python loop): list offsets drive the doc_id repeat.
    """
    import pyarrow.compute as pc

    spans = batch.column("spans").combine_chunks()
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.chunk(0) if spans.num_chunks else pa.array([], pa.list_(SPAN_STRUCT))
    lengths = pc.list_value_length(spans).to_numpy(zero_copy_only=False)
    lengths = np.nan_to_num(lengths).astype(np.int64)
    doc_ids = batch.column("doc_id").combine_chunks()
    repeated = doc_ids.take(pa.array(np.repeat(np.arange(len(lengths)), lengths)))
    flat = spans.flatten()
    return pa.table({
        "doc_id": repeated,
        "kind": flat.field("kind"),
        "text": flat.field("text"),
        "media_ref": flat.field("media_ref"),
        "offset": flat.field("offset"),
    })

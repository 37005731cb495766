"""Flagship pipeline: testdata documents → interleaved corpus → extraction.

Bridges the driver's ``documents`` parquet table into the engine's
input shape (doc_id, spans) deterministically — each document's text
is wrapped into a Shakespeare-shaped HTML play (exercising the full
DOM extraction path), every 3rd document stays plain-text spans, and
~1 in 8 documents carries a media span (content-addressed ref).  The
wrap is a pure function of (doc_id, text): no RNG, no wall clock.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

import pyarrow as pa

import ray.data

from .joins import sorted_small

from ..schema import SPAN_STRUCT
from .extract_pipeline import build_extract_pipeline

_NAMES = ("BERNARDO FRANCISCO HORATIO MARCELLUS CLAUDIUS GERTRUDE "
          "OPHELIA LAERTES").split()


def wrap_text_as_play(doc_id: int, text: str) -> str:
    """Deterministically wrap plain text into a Shakespeare-shaped play."""
    words = text.split()
    lines = [" ".join(words[i:i + 8]) for i in range(0, len(words), 8)]
    parts: List[str] = [
        "<html>", "<head>", f"<title>Doc {doc_id}: Entire Play</title>", "</head>",
        "<body>",
        "<table><tr><td class=\"nav\"><a href=\"/x\">boilerplate nav</a></table>",
        "<H3>ACT I</h3>",
        f"<h3>SCENE I. Document {doc_id}.</h3>",
    ]
    speech = 1
    for i, line in enumerate(lines):
        if i % 3 == 0:
            name = _NAMES[(doc_id + i) % len(_NAMES)]
            parts.append(f"<A NAME=speech{speech}><b>{name}</b></a>")
            speech += 1
            parts.append("<blockquote>")
            parts.append(f"<A NAME=1.1.{i + 1}>{line}</A><br>")
        else:
            parts.append(f"<A NAME=1.1.{i + 1}>{line}</A><br>")
        if i % 3 == 2 or i == len(lines) - 1:
            if i % 7 == 2:
                parts.append(f"<p><i>Exit {_NAMES[i % len(_NAMES)]}</i></p>")
            parts.append("</blockquote>")
    parts.append("</body></html>")
    return "\n".join(parts)


def docs_to_interleaved(sf_dir: str) -> "ray.data.Dataset":
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def to_spans(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        rows: List[List[Dict]] = []
        out_ids: List[str] = []
        for did, text in zip(doc_ids, texts):
            spans: List[Dict] = []
            off = 0
            if did % 8 == 0:
                digest = hashlib.sha256(text.encode()).hexdigest()
                spans.append({"kind": "image", "text": "",
                              "media_ref": f"img://sha256/{digest}", "offset": off})
                off += 1
            if did % 3 == 0:
                spans.append({"kind": "text", "text": text,
                              "media_ref": "", "offset": off})
            else:
                spans.append({"kind": "html",
                              "text": wrap_text_as_play(did, text),
                              "media_ref": "", "offset": off})
            rows.append(spans)
            out_ids.append(f"doc-{did:08d}")
        return pa.table({
            "doc_id": pa.array(out_ids, pa.string()),
            "spans": pa.array(rows, pa.list_(SPAN_STRUCT)),
        })

    return ds.map_batches(to_spans, batch_format="pyarrow", zero_copy_batch=True)


def flagship_extract(sf_dir: str, *,
                     batch_size: int = 64) -> "ray.data.Dataset":
    """documents.parquet → interleaved corpus → extracted span table."""
    return build_extract_pipeline(docs_to_interleaved(sf_dir),
                                  batch_size=batch_size)


# Extract-once seam for the analytics family (VERDICT r3 #3): the four
# span-consuming analytics each re-ran the FULL flagship extraction per
# query — 4 redundant corpus extractions per bench session, and a real
# anti-pattern at 100 TB where extraction dominates.  A session owner
# (bench.py, the CLI) extracts once, materializes, and registers the
# result here; `get_flagship_spans` hands it out.  Each analytic also
# accepts an explicit ``spans=`` dataset or parquet path (mirroring the
# `near_dup_*_from_media` seam, multimodal.py).
_SHARED_SPANS: Dict[str, "ray.data.Dataset"] = {}


def share_flagship_spans(sf_dir: str, ds: "ray.data.Dataset") -> None:
    """Register a (materialized) extracted-spans dataset for reuse by
    every analytics query over the same ``sf_dir`` in this session."""
    _SHARED_SPANS[sf_dir] = ds


def get_flagship_spans(sf_dir: str, spans=None) -> "ray.data.Dataset":
    """Resolve the extracted-spans input for an analytics query:
    explicit ``spans`` (a Dataset, or a parquet path written by
    ``stages.lineage``-style sinks) > session-shared extraction >
    fresh ``flagship_extract``."""
    if spans is not None:
        if isinstance(spans, str):
            return ray.data.read_parquet(spans)
        return spans
    if sf_dir in _SHARED_SPANS:
        return _SHARED_SPANS[sf_dir]
    return flagship_extract(sf_dir)


def extract_corpus_kinds(sf_dir: str, spans=None):
    """Distribution of extracted span kinds over the flagship corpus
    (rows-only correctness: not SQL-expressible — the extraction is a
    DOM/block state machine, not a relational op)."""
    from ray.data.aggregate import Count

    from ..stages.extract import explode_spans

    ds = get_flagship_spans(sf_dir, spans)
    return (sorted_small(ds.map_batches(explode_spans, batch_format="pyarrow",
                           zero_copy_batch=True)
              .groupby("kind").aggregate(Count(alias_name="n")), "kind"))

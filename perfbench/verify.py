"""Output check: every input document exactly once, with the expected spans.

A document's digest is the sha256 of its ordered
``(kind, text, media_ref, offset)`` list.  Documents are matched by
``doc_id``, so the check does not depend on the order in which a job
wrote its rows, and a corpus digest (per-doc digests sorted by
``doc_id``) pins a whole expectation in one string.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from collections import Counter
from typing import Dict, Iterable, List

import pyarrow as pa
import pyarrow.parquet as pq


def span_digest(spans: List[Dict]) -> str:
    canon = [[s["kind"], s["text"], s["media_ref"], s["offset"]]
             for s in spans]
    return hashlib.sha256(json.dumps(
        canon, ensure_ascii=False, separators=(",", ":")).encode()
    ).hexdigest()


def well_formed(spans: List[Dict], n_spans: int) -> bool:
    return (n_spans == len(spans)
            and [s["offset"] for s in spans] == list(range(len(spans))))


def doc_digests(tables: Iterable[pa.Table]) -> Dict[str, str]:
    """doc_id -> digest for extract-stage output tables (one row per doc).
    A malformed row maps to ``"malformed"``, which no digest equals."""
    out: Dict[str, str] = {}
    for table in tables:
        for row in table.select(["doc_id", "spans", "n_spans"]).to_pylist():
            spans = row["spans"] or []
            out[row["doc_id"]] = (span_digest(spans)
                                  if well_formed(spans, row["n_spans"])
                                  else "malformed")
    return out


def corpus_digest(digests: Dict[str, str]) -> str:
    h = hashlib.sha256()
    for doc_id in sorted(digests):
        h.update(f"{doc_id}\t{digests[doc_id]}\n".encode())
    return h.hexdigest()


def count_failed(expected: Dict[str, str], got: pa.Table) -> int:
    """Documents missing, duplicated, malformed or not span-sequence-equal
    to ``expected``; rows for unknown doc_ids count too.  At most
    ``len(expected)``, so the failed fraction stays within [0, 1]."""
    seen = Counter(got.column("doc_id").to_pylist())
    digests = doc_digests([got])
    failed = sum(1 for d in expected
                 if seen[d] != 1 or digests[d] != expected[d])
    failed += sum(n for d, n in seen.items() if d not in expected)
    return min(failed, len(expected))


def read_output(out_dir: str) -> pa.Table:
    """Everything a job wrote under ``out_dir``: the Ray Data parquet sink
    (``*.parquet``) or the lineage layout (``part-*/data.parquet``)."""
    files = sorted(glob.glob(os.path.join(out_dir, "*.parquet"))
                   + glob.glob(os.path.join(out_dir, "part-*",
                                            "data.parquet")))
    if not files:
        return pa.table({"doc_id": pa.array([], pa.string()),
                         "spans": pa.array([], pa.list_(pa.struct([]))),
                         "n_spans": pa.array([], pa.int64())})
    return pa.concat_tables(
        [pq.read_table(f, columns=["doc_id", "spans", "n_spans"])
         for f in files])

"""The pdf_heavy corpus mix (BASELINE.json's input_hint shape):
proportions land near spec, the default mix stays bit-stable under
the new parameter, and a pdf-heavy corpus — like the skewed default
corpus — extracts end-to-end with one output row per document."""

from __future__ import annotations

from collections import Counter

import pytest


def _primary_kind(doc) -> str:
    kinds = {s["kind"] for s in doc["spans"]}
    for k in ("html", "pdf_page_xml", "pdf_raw", "text"):
        if k in kinds:
            return k
    raise AssertionError(f"no content span in {kinds}")


def test_mix_proportions_and_default_stability():
    from ray_script_extract.corpus import make_doc

    c = Counter(_primary_kind(make_doc(42, i, "small", mix="pdf_heavy"))
                for i in range(400))
    assert c["pdf_raw"] / 400 > 0.45          # spec: 55%
    assert c["pdf_page_xml"] / 400 > 0.10     # spec: 20%
    # the default mix must be BIT-stable (existing materialized
    # corpora and scaling windows depend on it)
    for i in (0, 7, 100):
        assert make_doc(42, i, "small") == \
            make_doc(42, i, "small", mix="default")


@pytest.mark.usefixtures("ray_session")
def test_pdf_heavy_corpus_extracts(tmp_path):
    import ray.data

    from ray_script_extract.corpus import write_corpus_parquet
    from tests.helpers import corpus_dataset
    from ray_script_extract.pipelines.extract_pipeline import \
        build_extract_pipeline

    n = 60
    out = str(tmp_path / "pdfheavy")
    write_corpus_parquet(n, out, docs_per_shard=20, mix="pdf_heavy")
    res = build_extract_pipeline(ray.data.read_parquet(out))
    assert res.count() == n
    # indices 0..119 of the default mix include one 'large' (0) and
    # several 'medium' docs: every one keeps its row
    ids = [r["doc_id"] for r in
           build_extract_pipeline(corpus_dataset(120, docs_per_block=30))
           .iter_rows()]
    assert len(set(ids)) == len(ids) == 120

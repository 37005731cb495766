"""End-to-end Ray Data pipeline tests: the golden corpus through the
real distributed extract stage, and dedup on actual duplicates."""

from __future__ import annotations

import glob
import json
import os

import pyarrow as pa
import pytest

GOLDEN_DIR = "/root/reference/shakespeare"


@pytest.mark.usefixtures("ray_session")
def test_goldens_through_ray_extract_stage():
    """All 37 golden plays as html spans → build_extract_pipeline →
    span sequences equal the golden (type, text) projection —
    pipeline-level parity, not just the unit parser."""
    import ray.data

    from ray_script_extract.pipelines.extract_pipeline import (
        build_extract_pipeline,
    )
    from ray_script_extract.schema import DOC_SCHEMA

    paths = sorted(glob.glob(os.path.join(GOLDEN_DIR, "*", "*.shakespeare")))
    assert len(paths) == 37
    rows = []
    expected = {}
    for i, p in enumerate(paths):
        doc_id = f"play-{i:04d}"
        html = open(p, "rb").read().decode("iso-8859-1")
        rows.append({"doc_id": doc_id,
                     "spans": [{"kind": "html", "text": html,
                                "media_ref": "", "offset": 0}]})
        golden = json.load(open(p[:-len(".shakespeare")] + ".json"))
        expected[doc_id] = (
            [(l["type"], l["text"]) for l in golden["titlePage"]["lines"]]
            + [(l["type"], l["text"]) for l in golden["lines"]])

    ds = ray.data.from_arrow(pa.Table.from_pylist(rows, schema=DOC_SCHEMA))
    out = build_extract_pipeline(ds)
    got = {}
    for row in out.iter_rows():
        got[row["doc_id"]] = [(s["kind"], s["text"]) for s in row["spans"]]
    assert set(got) == set(expected)
    for doc_id in expected:
        assert got[doc_id] == expected[doc_id], f"mismatch in {doc_id}"


@pytest.mark.usefixtures("ray_session")
def test_dedup_exact_with_real_duplicates(tmp_path):
    """dedup_exact on a table that actually contains duplicates."""
    import duckdb
    import pyarrow.parquet as pq

    from ray_script_extract.pipelines.queries import (
        DEDUP_EXACT_SQL,
        dedup_exact,
    )

    texts = ["alpha beta", "gamma delta", "alpha beta", "epsilon",
             "gamma delta", "alpha beta"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string()),
                  "lang": pa.array(["en"] * len(texts)),
                  "source": pa.array(["s"] * len(texts)),
                  "n_chars": pa.array([len(x) for x in texts], pa.int64())})
    sf_dir = str(tmp_path)
    pq.write_table(t, os.path.join(sf_dir, "documents.parquet"))

    kept = dedup_exact(sf_dir).to_pandas()
    assert sorted(kept["doc_id"]) == [0, 1, 3]

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    oracle = con.sql(DEDUP_EXACT_SQL).df()
    assert sorted(oracle["doc_id"]) == sorted(kept["doc_id"])


@pytest.mark.usefixtures("ray_session")
def test_media_spans_preserved_in_position():
    """Media spans keep their relative position in the output."""
    import ray.data

    from ray_script_extract.pipelines.extract_pipeline import (
        build_extract_pipeline,
    )
    from ray_script_extract.schema import DOC_SCHEMA

    rows = [{"doc_id": "d1", "spans": [
        {"kind": "image", "text": "", "media_ref": "img://sha256/aa",
         "offset": 0},
        {"kind": "text", "text": "hello there", "media_ref": "", "offset": 1},
        {"kind": "media", "text": "", "media_ref": "img://sha256/bb",
         "offset": 2},
    ]}]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows, schema=DOC_SCHEMA))
    out = list(build_extract_pipeline(ds).iter_rows())[0]
    kinds = [s["kind"] for s in out["spans"]]
    refs = [s["media_ref"] for s in out["spans"]]
    offsets = [s["offset"] for s in out["spans"]]
    assert kinds == ["image", "Text", "media"]
    assert refs == ["img://sha256/aa", "", "img://sha256/bb"]
    assert offsets == [0, 1, 2]

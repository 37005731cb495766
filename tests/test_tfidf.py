"""TF-IDF top terms vs the DuckDB oracle on a crafted corpus —
exercises both the broadcast-df fast path and the partitioned-join
scale path, plus empty/whitespace docs and score ties."""

from __future__ import annotations

import os

import pyarrow as pa
import pytest


def _write_corpus(tmp_path) -> str:
    import pyarrow.parquet as pq

    texts = [
        "apple banana apple cherry apple",
        "banana cherry banana",
        "cherry cherry cherry unique",
        "",             # empty doc -> no output rows
        "  \t ",        # whitespace-only -> no output rows
        "tie tie vie vie",  # tf tie between 'tie' and 'vie'
        "Apple APPLE apple",  # case folding: all one term
    ]
    n = len(texts)
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "source": pa.array(["s"] * n, pa.string()),
        "n_chars": pa.array([len(x) for x in texts], pa.int64()),
    })
    sf_dir = str(tmp_path)
    pq.write_table(t, os.path.join(sf_dir, "documents.parquet"))
    return sf_dir


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("scale", [False, True])
def test_tfidf_matches_oracle(tmp_path, scale, scale_plans):
    import duckdb

    from ray_script_extract.pipelines.text_analysis import (
        TFIDF_SQL,
        tfidf_top_terms,
    )

    sf_dir = _write_corpus(tmp_path)
    with scale_plans(scale):
        got = tfidf_top_terms(sf_dir).to_pandas()

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    want = con.sql(TFIDF_SQL).df()
    got = got.sort_values(["doc_id", "rk"]).reset_index(drop=True)
    want = want.sort_values(["doc_id", "rk"]).reset_index(drop=True)
    assert sorted(got.columns) == sorted(want.columns)
    want = want[list(got.columns)].astype(got.dtypes.to_dict())
    assert got.values.tolist() == want.values.tolist()

    # empty / whitespace docs emit nothing
    assert not set(got["doc_id"]) & {3, 4}
    # doc 5: tf tie -> lexicographic term order decides ranks
    d5 = got[got["doc_id"] == 5].sort_values("rk")
    assert list(d5["term"]) == ["tie", "vie"]
    # doc 6: case-folded to a single term
    d6 = got[got["doc_id"] == 6]
    assert list(d6["term"]) == ["apple"] and int(d6["tf"].iloc[0]) == 3
    # rarer terms score higher: doc 2's 'unique' (tf=1, df=1 ->
    # idf 7,000,000) outranks 'cherry' (tf=3, df=3 -> 3*2,333,333 =
    # 6,999,999) — idf dominance is the point of the operator
    d2 = got[got["doc_id"] == 2].sort_values("rk")
    assert list(d2["term"]) == ["unique", "cherry"]

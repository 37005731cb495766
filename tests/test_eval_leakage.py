"""eval_leakage_report (reverse-direction decontamination): hand-
computed shingle leakage per benchmark doc, a zero-leak doc, and
DuckDB oracle equality."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.mark.usefixtures("ray_session")
def test_eval_leakage_hand_computed(tmp_path):
    import duckdb

    from ray_script_extract.pipelines.decontam import (
        EVAL_LEAKAGE_SQL,
        eval_leakage_report,
    )

    # bench doc 0: "a b c d e" → shingles {abc, bcd, cde} (3)
    #   train doc 1 carries "a b c"; train doc 21 carries "c d e"
    #   → leaked {abc, cde} = 2 → ppm = 1e6*2//3
    # bench doc 20: "q r s" → 1 shingle, leaked nowhere → 0
    docs = pa.table({
        "doc_id": pa.array([0, 20, 1, 21], pa.int64()),
        "text": pa.array(["a b c d e", "q r s",
                          "a b c zz", "yy c d e xx"]),
        "lang": pa.array(["en"] * 4),
    })
    pq.write_table(docs, str(tmp_path / "documents.parquet"))

    got = eval_leakage_report(str(tmp_path)).to_pandas() \
        .reset_index(drop=True)

    assert got["doc_id"].tolist() == [0, 20]
    assert got["n_shingles"].tolist() == [3, 1]
    assert got["n_leaked"].tolist() == [2, 0]
    assert got["leaked_ppm"].tolist() == [1_000_000 * 2 // 3, 0]

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    want = con.execute(EVAL_LEAKAGE_SQL).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_eval_leakage_registry():
    from ray_script_extract.pipelines.queries import ORACLE_SQL, QUERIES

    assert "eval_leakage_report" in QUERIES
    assert "eval_leakage_report" in ORACLE_SQL


@pytest.mark.usefixtures("ray_session")
def test_contamination_by_source(tmp_path):
    import duckdb

    from ray_script_extract.pipelines.decontam import (
        CONTAM_BY_SOURCE_SQL,
        contamination_by_source,
    )

    # bench doc 0 plants "a b c"; srcA's doc 1 carries it (contaminated),
    # srcA's doc 21 and srcB's doc 2 are clean.
    docs = pa.table({
        "doc_id": pa.array([0, 1, 21, 2], pa.int64()),
        "text": pa.array(["a b c", "x a b c y", "p q r s", "u v w"]),
        "lang": pa.array(["en"] * 4),
        "source": pa.array(["srcZ", "srcA", "srcA", "srcB"]),
    })
    pq.write_table(docs, str(tmp_path / "documents.parquet"))

    got = contamination_by_source(str(tmp_path)).to_pandas() \
        .reset_index(drop=True)

    assert got["source"].tolist() == ["srcA", "srcB"]
    assert got["n_train_docs"].tolist() == [2, 1]
    assert got["n_contaminated"].tolist() == [1, 0]
    assert got["contaminated_ppm"].tolist() == [500000, 0]

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    want = con.execute(CONTAM_BY_SOURCE_SQL).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_contamination_by_source_refuses_over_budget(tmp_path,
                                                     monkeypatch):
    from ray_script_extract.pipelines import decontam

    docs = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["a b c", "a b c d"]),
        "lang": pa.array(["en", "en"]),
        "source": pa.array(["s0", "s0"]),
    })
    pq.write_table(docs, str(tmp_path / "documents.parquet"))

    monkeypatch.setattr(decontam, "_BENCH_HASH_CAP", 0)
    with pytest.raises(ValueError, match="takes its partitioned semi-join"):
        decontam.contamination_by_source(str(tmp_path))

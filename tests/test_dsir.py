"""DSIR importance weights (Xie et al. NeurIPS'23): hand-computed
smoothed likelihood ratios on a crafted corpus, zero-token-doc and
target-doc exclusion, past-budget scale-path twin bit-identical, and
DuckDB oracle equality."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write_docs(tmp_path, rows):
    docs = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows]),
        "lang": pa.array(["en"] * len(rows)),
    })
    pq.write_table(docs, str(tmp_path / "documents.parquet"))


def _df(r):
    return r if isinstance(r, pd.DataFrame) else r.to_pandas()


@pytest.mark.usefixtures("ray_session")
def test_dsir_hand_computed(tmp_path, scale_plans):
    import duckdb

    from ray_script_extract.pipelines.text_analysis import (
        DSIR_SQL,
        dsir_importance_weights,
    )

    # doc 0 (target: 0 % 20 == 0): "x x y"  → tc: x=2, y=1, z=0
    # docs 1, 2 (raw): "x y y z", "x"       → rc: x=2, y=2, z=1
    # doc 3 (raw, whitespace-only) → zero tokens → NO output row
    # T=3, R=5, V=3 → ppm(w) = 1e6*(tc+1)*(R+V) // ((rc+1)*(T+V))
    #   x: 1e6*3*8 // (3*6) = 1333333
    #   y: 1e6*2*8 // (3*6) =  888888
    #   z: 1e6*1*8 // (2*6) =  666666
    _write_docs(tmp_path, [(0, "x x y"), (1, "x y y z"),
                           (2, "x"), (3, "   ")])

    got = _df(dsir_importance_weights(str(tmp_path))) \
        .reset_index(drop=True)

    assert got["doc_id"].tolist() == [1, 2]          # no target, no empty
    assert got["n_tokens"].tolist() == [4, 1]
    assert got["dsir_weight_ppm"].tolist() == [
        1333333 + 2 * 888888 + 666666,               # doc 1
        1333333,                                     # doc 2
    ]

    # the web-scale-vocabulary (join) twin is bit-identical
    with scale_plans():
        joined = _df(dsir_importance_weights(str(tmp_path))) \
            .reset_index(drop=True)
    pd.testing.assert_frame_equal(got, joined)

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    want = con.execute(DSIR_SQL).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_dsir_registry():
    from ray_script_extract.pipelines.queries import ORACLE_SQL, QUERIES

    assert "dsir_importance_weights" in QUERIES
    assert "dsir_importance_weights" in ORACLE_SQL


@pytest.mark.usefixtures("ray_session")
def test_dsir_select_top(tmp_path):
    import duckdb

    from ray_script_extract.pipelines.text_analysis import (
        DSIR_SELECT_SQL,
        dsir_select_top,
    )

    _write_docs(tmp_path, [(0, "x x y"), (1, "x y y z"),
                           (2, "x"), (3, "   ")])

    got = _df(dsir_select_top(str(tmp_path))).reset_index(drop=True)
    # doc 1 (3777775 ppm) outranks doc 2 (1333333 ppm)
    assert got["rank"].tolist() == [1, 2]
    assert got["doc_id"].tolist() == [1, 2]

    # prune path engages when n_select < corpus: top-1 only
    top1 = _df(dsir_select_top(str(tmp_path), n_select=1))
    assert top1["doc_id"].tolist() == [1]

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    want = con.execute(DSIR_SELECT_SQL).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

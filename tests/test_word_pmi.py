"""`word_pmi_pairs` boundary + path-equivalence tests: hand-computed
integer PMI scores on a crafted corpus, pairs never span documents,
min_count filtering, deterministic tie order, and the past-budget
scale path (two keyed exchanges) bit-identical to the broadcast
path and the DuckDB oracle."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write_docs(tmp_path, texts):
    docs = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * len(texts)),
    })
    pq.write_table(docs, str(tmp_path / "documents.parquet"))


@pytest.mark.usefixtures("ray_session")
def test_word_pmi_hand_computed(tmp_path, scale_plans):
    import duckdb

    from ray_script_extract.pipelines.text_analysis import (
        WORD_PMI_SQL,
        word_pmi_pairs,
    )

    # "x y" appears 6 times (always together); "a b" 6 times but both
    # words also occur alone, diluting their PMI. Doc 2 ends with x
    # and doc 3 starts with y: "x y" must NOT count across the
    # boundary.
    texts = [
        "x y x y x y",            # 3 "x y" pairs (+2 "y x")
        "x y x y x y",            # 3 more
        "a b a b a b x",          # 3 "a b"; trailing x
        "y a b a b a b",          # leading y; 3 more "a b"
        "a a a b b b y x",        # dilute a,b counts
    ]
    _write_docs(tmp_path, texts)

    got = word_pmi_pairs(str(tmp_path), min_count=6, k=10) \
        .to_pandas().reset_index(drop=True)

    # hand counts: N = 34 tokens; c(x)=8, c(y)=8, c(a)=9, c(b)=9
    # "x y": 6 pairs (docs 0-1 only; doc2's trailing x and doc3's
    #         leading y must NOT pair across the doc boundary)
    #         → 6*34*1e6 // 64 = 3187500
    # "a b": 7 pairs (3+3 in docs 2-3, 1 in doc 4)
    #         → 7*34*1e6 // 81 = 2938271
    assert [tuple(r) for r in got[["w1", "w2"]].itertuples(index=False)] \
        == [("x", "y"), ("a", "b")]
    assert got["score"].tolist() == [6 * 34 * 1_000_000 // 64,
                                     7 * 34 * 1_000_000 // 81]
    assert got["pair_count"].tolist() == [6, 7]

    # oracle equality with default params on the same corpus
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    want = con.execute(WORD_PMI_SQL).df()
    full = word_pmi_pairs(str(tmp_path)).to_pandas().reset_index(drop=True)
    cast = {"pair_count": np.int64, "score": np.int64}
    pd.testing.assert_frame_equal(full.astype(cast), want.astype(cast))

    # scale path: two keyed exchanges, bit-identical
    with scale_plans():
        forced = word_pmi_pairs(str(tmp_path)) \
            .to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(forced.astype(cast), full.astype(cast))


@pytest.mark.usefixtures("ray_session")
def test_word_pmi_empty_and_no_qualifying_pairs(tmp_path):
    # schema on empty results is the REGISTRY contract (_empty_safe):
    # Ray 2.49 can't carry an empty Dataset's schema through
    # consumption, so go through the registered entry like the driver
    from ray_script_extract.pipelines.queries import QUERIES

    _write_docs(tmp_path, ["", "solo", "p q"])
    got = QUERIES["word_pmi_pairs"](str(tmp_path)).to_pandas()
    assert list(got.columns) == ["w1", "w2", "pair_count", "score"]
    assert len(got) == 0

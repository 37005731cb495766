"""Boundary tests for `doc_bigram_coverage`: empty/1-token docs keep
zero rows, a doc can self-cover by repeating its own bigram, coverage
crosses documents, and the past-budget scale path returns exactly the
broadcast path's result."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.mark.usefixtures("ray_session")
def test_bigram_coverage_boundaries(tmp_path, scale_plans):
    import duckdb

    from ray_script_extract.pipelines.text_analysis import (
        BIGRAM_COVERAGE_SQL,
        doc_bigram_coverage,
    )

    texts = [
        "",                        # 0: no tokens -> (0, 0)
        "solo",                    # 1: one token, no bigram -> (0, 0)
        "a b c",                   # 2: 'a b' covered via doc 3; 'b c' unique
        "a b x",                   # 3: 'a b' covered via doc 2
        "q q q q",                 # 4: self-covering: 'q q' x3 (count 3)
        "u v\tw  u",               # 5: mixed whitespace; all unique bigrams
    ]
    docs = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * len(texts)),
    })
    pq.write_table(docs, str(tmp_path / "documents.parquet"))

    got = doc_bigram_coverage(str(tmp_path)).to_pandas() \
        .reset_index(drop=True)

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    want = con.execute(BIGRAM_COVERAGE_SQL).df()
    cast = {c: np.int64 for c in want.columns}
    pd.testing.assert_frame_equal(got.astype(cast), want.astype(cast))

    rows = {int(r.doc_id): (int(r.n_bigrams), int(r.n_covered))
            for r in got.itertuples()}
    assert rows[0] == (0, 0) and rows[1] == (0, 0)
    assert rows[2] == (2, 1)          # 'a b' shared, 'b c' unique
    assert rows[3] == (2, 1)
    assert rows[4] == (3, 3)          # self-covered repeats
    assert rows[5] == (3, 0)

    # scale path (bigram exchange + doc_id exchange + zero stubs)
    # must be bit-identical
    with scale_plans():
        forced = doc_bigram_coverage(str(tmp_path)) \
            .to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(forced.astype(cast), got.astype(cast))

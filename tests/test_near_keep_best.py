"""dedup_near_keep_best vs its recursive-CTE oracle on a corpus with
real near-dup clusters (the sf tables' near-dups are sparse; this
builds a transitive a~b~c chain where pairwise keep-min would
under-delete)."""

from __future__ import annotations

import os

import pyarrow as pa
import pytest


def _write_corpus(tmp_path) -> str:
    import pyarrow.parquet as pq

    base = ("the quick brown fox jumps over the lazy dog and then "
            "runs far away into the deep green forest tonight")
    texts = [
        base,                             # 0: cluster A
        base + " extra",                  # 1: cluster A (longest -> keep)
        base + " tail",                   # 2: cluster A (tie len with 1)
        "completely different document about ships and harbors one",
        "completely different document about ships and harbors two",
        "a unique singleton doc with nothing in common with others",
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
def test_near_keep_best_matches_oracle(tmp_path, scale_plans):
    import duckdb

    from ray_script_extract.pipelines.dedup import (
        DEDUP_NEAR_KEEP_BEST_SQL,
        dedup_near_keep_best,
    )

    sf_dir = _write_corpus(tmp_path)
    got = dedup_near_keep_best(sf_dir).to_pandas()

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    want = con.sql(DEDUP_NEAR_KEEP_BEST_SQL).df()
    got = got.sort_values("doc_id").reset_index(drop=True)
    want = want.sort_values("doc_id").reset_index(drop=True)
    assert sorted(got.columns) == sorted(want.columns)
    want = want[list(got.columns)].astype(got.dtypes.to_dict())
    assert got.values.tolist() == want.values.tolist()

    # every document appears exactly once
    assert len(got) == 6 and got["doc_id"].is_unique
    by_id = {r.doc_id: r for r in got.itertuples()}
    # docs 0/1/2 are one transitive cluster; exactly one kept, and the
    # winner is a longest member (1 or 2 tie at len; min doc_id -> 1)
    comps = {by_id[d].component for d in (0, 1, 2)}
    if by_id[0].csize == 3:  # minhash found the full chain
        assert len(comps) == 1
        kept = [d for d in (0, 1, 2) if by_id[d].keep == 1]
        assert kept == [1]
    # singleton keeps itself
    assert by_id[5].csize == 1 and by_id[5].keep == 1
    assert by_id[5].component == 5
    # exactly one keep per component, across all rows
    kdf = got.groupby("component")["keep"].sum()
    assert (kdf == 1).all()

    # the over-budget partitioned-join twin is bit-identical to the
    # broadcast plan (same decision table, different physical plan)
    with scale_plans():
        twin = dedup_near_keep_best(sf_dir).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
    assert got[list(twin.columns)].values.tolist() \
        == twin.values.tolist()

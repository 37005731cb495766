"""Benchmark decontamination vs its DuckDB oracle on a crafted corpus
with KNOWN contamination: training docs that quote benchmark shingles
verbatim, paraphrases that share no 3-word shingle, and sub-3-word
docs (single-shingle path)."""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _write_corpus(tmp_path) -> str:
    import pyarrow.parquet as pq

    # doc_id % 20 == 0 → benchmark member (decontam._BENCH_MOD)
    texts = {
        0: "the quick brown fox jumps over the lazy dog tonight",   # bench
        20: "four score and seven years ago our fathers brought",    # bench
        1: "he saw the quick brown fox jumps over a fence",          # 3 hit shingles
        2: "completely unrelated text about gardening and soil",     # clean
        3: "quick brown fox",                                        # 1 shingle, hit
        4: "lazy dog",                                               # <3 words, no hit
        5: "four score and seven years ago our fathers brought",     # full dup of 20
        6: "fox brown quick",                                        # reordered → clean
    }
    ids = sorted(texts)
    t = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array([texts[i] for i in ids], pa.string()),
        "lang": pa.array(["en"] * len(ids), pa.string()),
        "source": pa.array(["s"] * len(ids), pa.string()),
        "n_chars": pa.array([len(texts[i]) for i in ids], pa.int64()),
    })
    sf_dir = str(tmp_path)
    pq.write_table(t, os.path.join(sf_dir, "documents.parquet"))
    return sf_dir


@pytest.mark.usefixtures("ray_session")
def test_decontaminate_matches_oracle(tmp_path):
    import duckdb

    from ray_script_extract.pipelines.decontam import (
        DECONTAM_SQL, decontaminate_ngrams)

    sf_dir = _write_corpus(tmp_path)
    got = decontaminate_ngrams(sf_dir).to_pandas()

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    want = con.sql(DECONTAM_SQL).df()
    assert got.values.tolist() == want.values.tolist()
    assert dict(got.dtypes) == dict(want.dtypes)

    # the crafted expectations, independent of the oracle
    by_id = dict(zip(got["doc_id"], got["n_hits"]))
    # doc 1 shares "the quick brown" / "quick brown fox" /
    # "brown fox jumps" / "fox jumps over"
    assert by_id[1] == 4
    assert by_id[3] == 1        # single-shingle doc
    assert by_id[5] == 7        # verbatim 9-word dup → 7 shingles
    assert 2 not in by_id and 4 not in by_id and 6 not in by_id
    assert 0 not in by_id and 20 not in by_id  # bench rows never emitted


@pytest.mark.usefixtures("ray_session")
def test_partitioned_plan_matches_broadcast(tmp_path, scale_plans):
    """The over-budget fallback (hash-partitioned semi-join) must be
    plan-equivalent to the broadcast path — same rows, same dtypes —
    on a corpus with known contamination AND on the sf0.001 table."""
    import pandas as pd

    from ray_script_extract.pipelines.decontam import decontaminate_ngrams

    for sf_dir in (_write_corpus(tmp_path), "/root/testdata/sf0.001"):
        fast = decontaminate_ngrams(sf_dir).to_pandas()
        with scale_plans():
            slow = decontaminate_ngrams(sf_dir)
            slow = slow.to_pandas() if not isinstance(slow, pd.DataFrame) else slow
        pd.testing.assert_frame_equal(fast.reset_index(drop=True),
                                      slow.reset_index(drop=True))


@pytest.mark.usefixtures("ray_session")
def test_bench_set_is_distinct_and_sorted(tmp_path):
    from ray_script_extract.pipelines.decontam import _bench_hash_set

    sf_dir = _write_corpus(tmp_path)
    h = _bench_hash_set(sf_dir)
    assert len(h) == len(np.unique(h))
    assert (np.diff(h) > 0).all()
    # 10-word + 9-word bench docs → 8 + 7 distinct shingles
    assert len(h) == 15


@pytest.mark.usefixtures("ray_session")
def test_bloom_superset_and_default_exactness(tmp_path):
    """Bloom guarantees: NO false negatives at any m (every exactly-
    contaminated doc flagged, n_flagged >= n_hits), and at the default
    1 MiB bitmap the tiny testdata shingle vocabulary makes it exactly
    the broadcast result (deterministic, so not flaky)."""
    import pandas as pd

    from ray_script_extract.pipelines.decontam import (
        decontaminate_bloom,
        decontaminate_ngrams,
    )

    for sf_dir in (_write_corpus(tmp_path), "/root/testdata/sf0.001"):
        exact = decontaminate_ngrams(sf_dir)
        exact = exact.to_pandas() if not isinstance(exact, pd.DataFrame) \
            else exact
        bloom = decontaminate_bloom(sf_dir).to_pandas()

        # default-m: zero observed false positives on this vocab →
        # bit-identical to exact (deterministic hashing, stable)
        pd.testing.assert_frame_equal(
            exact.reset_index(drop=True).rename(
                columns={"n_hits": "n_flagged"}),
            bloom.reset_index(drop=True))

        # deliberately tiny bitmap (2^10 bits): false positives now
        # occur, but the superset property must hold
        tiny = decontaminate_bloom(sf_dir, m_bits=1 << 10).to_pandas()
        e = dict(zip(exact["doc_id"], exact["n_hits"]))
        t = dict(zip(tiny["doc_id"], tiny["n_flagged"]))
        for doc, n in e.items():
            assert doc in t and t[doc] >= n, \
                f"false negative: doc {doc} exact={n} bloom={t.get(doc)}"

        # determinism: same filter, same flags
        again = decontaminate_bloom(sf_dir, m_bits=1 << 10).to_pandas()
        pd.testing.assert_frame_equal(tiny.reset_index(drop=True),
                                      again.reset_index(drop=True))


def _write_emb(tmp_path, vecs):
    import pyarrow.parquet as pq
    t = pa.table({
        "vec_id": pa.array(range(len(vecs)), pa.int64()),
        "embedding": pa.array([[float(x) for x in v] for v in vecs],
                              pa.list_(pa.float32())),
        "label": pa.array([0] * len(vecs), pa.int32()),
    })
    pq.write_table(t, str(tmp_path / "embeddings.parquet"))
    return str(tmp_path)


@pytest.mark.usefixtures("ray_session")
def test_embedding_decontam_geometry_and_oracle(tmp_path):
    """Hand-computable unit-circle geometry incl. an exact rounding
    tie (45° equidistant from both eval vectors → smallest eval id),
    plus the DuckDB oracle on the same crafted table."""
    import duckdb

    from ray_script_extract.pipelines.decontam import (
        DECONTAM_EMB_SQL,
        decontaminate_embeddings,
    )

    deg = [0, 90,        # eval set (vec_id 0, 1)
           10,           # cos10=0.9848 to eval0 -> contaminated
           60,           # cos60=0.5 / cos30=0.8660 -> nearest eval1
           45,           # 0.7071 to BOTH (4-dec tie) -> eval0 wins
           200]          # cos200=-0.94 / cos110=-0.34 -> clean
    vecs = [(np.cos(np.radians(d)), np.sin(np.radians(d))) for d in deg]
    sf = _write_emb(tmp_path, vecs)

    got = decontaminate_embeddings(sf, n_eval=2).to_pandas() \
        .reset_index(drop=True)
    assert got["vec_id"].tolist() == [2, 3, 4, 5]
    assert got["nearest_eval_id"].tolist() == [0, 1, 0, 1]
    assert got["max_sim"].tolist() == [0.9848, 0.866, 0.7071, -0.342]
    assert got["contaminated"].tolist() == [1, 1, 1, 0]

    con = duckdb.connect()
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{sf}/embeddings.parquet')")
    want = con.execute(
        DECONTAM_EMB_SQL.replace("vec_id < 8", "vec_id < 2")
                        .replace("vec_id >= 8", "vec_id >= 2")).df()
    pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()))


@pytest.mark.usefixtures("ray_session")
def test_embedding_decontam_matches_naive_on_sf():
    import pyarrow.parquet as pq

    from ray_script_extract.pipelines.decontam import (
        decontaminate_embeddings,
    )

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/embeddings.parquet")
    m = np.vstack(t["embedding"].to_numpy(zero_copy_only=False)) \
        .astype(np.float64)
    assert np.array_equal(np.asarray(t["vec_id"]), np.arange(len(m)))
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = np.round(mn[8:] @ mn[:8].T, 4)
    best = sims.argmax(axis=1)
    mx = sims[np.arange(len(sims)), best]

    got = decontaminate_embeddings(sf).to_pandas().reset_index(drop=True)
    assert got["vec_id"].tolist() == list(range(8, len(m)))
    assert np.array_equal(got["nearest_eval_id"].to_numpy(), best)
    assert np.array_equal(got["max_sim"].to_numpy(), mx)
    assert np.array_equal(got["contaminated"].to_numpy(),
                          (mx >= 0.30).astype(np.int64))
    assert 0 < got["contaminated"].sum() < len(got)

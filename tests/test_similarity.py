"""ANN (IVF) + embedding LSH near-dup vs brute-force: recall bounds
on real testdata."""

from __future__ import annotations

import pytest

SF = "/root/testdata/sf0.001"


@pytest.mark.usefixtures("ray_session")
def test_ivf_recall_vs_bruteforce():
    from ray_script_extract.pipelines.queries import knn_cosine
    from ray_script_extract.pipelines.similarity import knn_cosine_ivf

    exact = knn_cosine(SF).to_pandas()
    approx = knn_cosine_ivf(SF, n_probe=6).to_pandas()
    assert len(approx) == len(exact)
    recall_hits = 0
    for qid in exact["query_id"].unique():
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        a = set(approx[approx["query_id"] == qid]["vec_id"])
        recall_hits += len(e & a)
    recall = recall_hits / len(exact)
    assert recall >= 0.5, f"IVF recall too low: {recall}"


@pytest.mark.usefixtures("ray_session")
def test_kmeans_deterministic():
    import numpy as np

    from ray_script_extract.pipelines.similarity import (
        _sample_matrix,
        kmeans_fit,
    )

    mat = _sample_matrix(SF)
    c1 = kmeans_fit(mat, 8)
    c2 = kmeans_fit(mat, 8)
    assert np.array_equal(c1, c2)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("sf_dir", ["/root/testdata/sf0.01",
                                    "/root/testdata/sf0.1"])
def test_embedding_lsh_recall_vs_exact(sf_dir):
    """The bucketed near-dup must recover ≥99% of the pairs the exact
    O(N²) path finds AT BOTH CORPUS SIZES (the r2 fixed 4-bit banding
    saturated its 16 buckets/band as N grew — N-scaled keys from
    ``_lsh_params`` must not), with zero false positives (exact f8
    verify)."""
    from ray_script_extract.pipelines.queries import near_dup_embeddings
    from ray_script_extract.pipelines.similarity import near_dup_embeddings_lsh

    exact = near_dup_embeddings(sf_dir).to_pandas()
    approx = near_dup_embeddings_lsh(sf_dir).to_pandas()
    exact_pairs = set(zip(exact["id_a"], exact["id_b"]))
    approx_pairs = set(zip(approx["id_a"], approx["id_b"]))
    assert approx_pairs <= exact_pairs, "LSH path produced a false positive"
    assert exact_pairs, "exact twin found no pairs — test data changed?"
    recall = len(approx_pairs & exact_pairs) / len(exact_pairs)
    assert recall >= 0.99, f"LSH near-dup recall too low: {recall}"


@pytest.mark.usefixtures("ray_session")
def test_embedding_lsh_join_verify_equals_broadcast_verify(scale_plans):
    """Past ``_BROADCAST_VERIFY_BYTES`` the candidate pairs join the
    packed embedding column back through two partitioned joins instead
    of probing a broadcast matrix; both verifies must keep exactly the
    same pairs."""
    import os

    import pandas as pd

    from ray_script_extract.pipelines.similarity import near_dup_embeddings_lsh

    sf_dir = os.path.join(os.path.dirname(SF), "sf0.01")
    fast = near_dup_embeddings_lsh(sf_dir).to_pandas()
    with scale_plans():
        joined = near_dup_embeddings_lsh(sf_dir).to_pandas()
    assert len(fast) > 0
    pd.testing.assert_frame_equal(fast.reset_index(drop=True),
                                  joined.reset_index(drop=True))


def test_embedding_lsh_buckets_never_hit_cap():
    """No band bucket may approach _BUCKET_CAP at sf0.1 — a capped
    bucket is SKIPPED by pair generation, silently losing recall.
    Key width must scale with N so occupancy stays ~_TARGET_BUCKET."""
    import numpy as np
    import pyarrow.parquet as pq

    from ray_script_extract.pipelines.dedup import _BUCKET_CAP
    from ray_script_extract.pipelines.similarity import (
        _band_key_matrix,
        _lsh_params,
    )

    t = pq.read_table("/root/testdata/sf0.1/embeddings.parquet",
                      columns=["embedding"])
    m = np.vstack(t["embedding"].to_numpy(zero_copy_only=False)) \
        .astype(np.float64)
    bits, n_bands = _lsh_params(len(m), 0.4)
    assert (1 << bits) >= len(m) // 64, "key width did not scale with N"
    keys = _band_key_matrix(m, bits, n_bands)
    _, counts = np.unique(keys.ravel(), return_counts=True)
    assert counts.max() <= _BUCKET_CAP // 2, \
        f"hot bucket {counts.max()} too close to cap {_BUCKET_CAP}"


@pytest.mark.usefixtures("ray_session")
def test_sq8_recall_vs_bruteforce():
    """SQ8 is a much finer approximation than IVF probing (quantizes
    values, drops nothing), so hold it to a higher recall bar."""
    from ray_script_extract.pipelines.queries import knn_cosine
    from ray_script_extract.pipelines.similarity import knn_cosine_sq8

    exact = knn_cosine(SF).to_pandas()
    approx = knn_cosine_sq8(SF).to_pandas()
    assert len(approx) == len(exact)
    recall_hits = 0
    for qid in exact["query_id"].unique():
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        a = set(approx[approx["query_id"] == qid]["vec_id"])
        recall_hits += len(e & a)
    recall = recall_hits / len(exact)
    assert recall >= 0.9, f"SQ8 recall too low: {recall}"


@pytest.mark.usefixtures("ray_session")
def test_sq8_codes_are_one_byte_per_dim():
    from ray_script_extract.pipelines.similarity import (
        _embedding_dim,
        _sq8_bounds,
        build_sq8_index,
    )

    dim = _embedding_dim(SF)
    mn, mx = _sq8_bounds(SF)
    head = build_sq8_index(SF, mn, mx).take(3)
    for row in head:
        assert len(row["code"]) == dim  # 1 byte/dim — the 4x cut
        assert 0.9 <= row["dnorm"] <= 1.1  # decode of a unit vector


@pytest.mark.usefixtures("ray_session")
def test_exact_twins_refuse_over_budget():
    """The exact O(N^2) twins are budget-gated (VERDICT r4 #4): above
    max_docs / max_vectors they refuse with a pointer at their LSH
    scale path instead of silently launching an all-pairs job."""
    from ray_script_extract.pipelines.dedup import dedup_ngram_jaccard
    from ray_script_extract.pipelines.queries import near_dup_embeddings

    with pytest.raises(ValueError, match="dedup_minhash_lsh"):
        dedup_ngram_jaccard(SF, max_docs=3)
    with pytest.raises(ValueError, match="near_dup_embeddings_lsh"):
        near_dup_embeddings(SF, max_vectors=3)

    # within budget both still run (rows may be empty; shape intact)
    pairs = dedup_ngram_jaccard(SF).to_pandas()
    assert list(pairs.columns) == ["id_a", "id_b"]

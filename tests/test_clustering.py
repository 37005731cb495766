"""Distributed Lloyd refinement vs a single-process numpy twin with
the identical seed: assignments and centroids must agree, and the
spherical-k-means objective must not increase across iterations."""

from __future__ import annotations

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


def _full_matrix():
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = np.asarray(t["vec_id"])
    m = np.vstack(t["embedding"].to_numpy(zero_copy_only=False)) \
        .astype(np.float64)
    order = np.argsort(ids)
    m = m[order]
    return ids[order], m / np.maximum(
        np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


def _numpy_lloyd(m: np.ndarray, centroids: np.ndarray, n_iter: int):
    inertias = []
    c = centroids.copy()
    for _ in range(n_iter):
        sims = m @ c.T
        assign = sims.argmax(axis=1)
        inertias.append(float((1.0 - sims.max(axis=1)).sum()))
        for j in np.unique(assign):
            v = m[assign == j].mean(axis=0)
            nv = np.linalg.norm(v)
            if nv > 0:
                c[j] = v / nv
    return c, (m @ c.T).argmax(axis=1), inertias


@pytest.mark.usefixtures("ray_session")
def test_distributed_lloyd_matches_numpy_twin():
    from ray_script_extract.pipelines.clustering import cluster_embeddings
    from ray_script_extract.pipelines.similarity import (
        _sample_matrix, kmeans_fit)

    n_clusters, n_iter = 8, 4
    ds, trajectory, centroids = cluster_embeddings(
        SF, n_clusters=n_clusters, n_iter=n_iter, return_stats=True)
    got = ds.to_pandas()

    sample = _sample_matrix(SF)
    sample /= np.maximum(np.linalg.norm(sample, axis=1, keepdims=True),
                         1e-12)
    seed = kmeans_fit(sample, n_clusters)
    ids, m = _full_matrix()
    want_c, want_assign, want_inertia = _numpy_lloyd(m, seed, n_iter)

    np.testing.assert_allclose(centroids, want_c, atol=1e-8)
    np.testing.assert_allclose(trajectory, want_inertia, rtol=1e-9)
    assert got["vec_id"].to_numpy().tolist() == ids.tolist()
    assert got["cluster"].to_numpy().tolist() == want_assign.tolist()

    # objective never increases (Lloyd monotonicity)
    t = np.asarray(trajectory)
    assert (np.diff(t) <= 1e-9).all(), trajectory

    # every cluster id in range; all rows assigned exactly once
    assert got["cluster"].between(0, n_clusters - 1).all()
    assert len(got) == len(ids)


@pytest.mark.usefixtures("ray_session")
def test_combine_paths_bit_identical(scale_plans):
    """The budgeted driver combine and the shuffle reduce sum partials
    in the same (cluster, batch_ord) order, so centroids/inertia must
    match BIT-exactly, not just approximately."""
    from ray_script_extract.pipelines.clustering import cluster_embeddings

    _, traj_a, cents_a = cluster_embeddings(
        SF, n_clusters=6, n_iter=2, return_stats=True)
    with scale_plans():
        _, traj_b, cents_b = cluster_embeddings(
            SF, n_clusters=6, n_iter=2, return_stats=True)
    assert traj_a == traj_b
    assert np.array_equal(cents_a, cents_b)

"""`pca_project` / `pca_fit` (distributed PCA over the embedding
table): exact-plane recovery on crafted data, covariance + projection
vs a single-process numpy twin on the sf corpus, and the keyed-exchange
fold (taken past the driver-combine budget) pinned bit-identical to the
driver fold."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def _write_emb(tmp_path, mat):
    t = pa.table({
        "vec_id": pa.array(range(len(mat)), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in mat],
                              pa.list_(pa.float32())),
        "label": pa.array([0] * len(mat), pa.int32()),
    })
    pq.write_table(t, str(tmp_path / "embeddings.parquet"))
    return str(tmp_path)


def _twin_components(mat, k):
    """Single-process twin with the module's sign convention."""
    m = np.asarray(mat, np.float64)
    mean = m.mean(axis=0)
    cov = (m - mean).T @ (m - mean) / len(m)
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(-vals, kind="stable")[:k]
    w = vecs[:, order].T
    for i in range(w.shape[0]):
        j = int(np.argmax(np.abs(w[i])))
        if w[i, j] < 0:
            w[i] = -w[i]
    return mean, w, vals[order]


@pytest.mark.usefixtures("ray_session")
def test_recovers_planted_plane(tmp_path):
    from ray_script_extract.pipelines.pca import pca_fit, pca_project

    # data living EXACTLY on a known 2-D plane inside 5-D: the top-2
    # components must span the plane, remaining variance must be ~0,
    # and projecting then reconstructing must reproduce the input.
    rng = np.random.RandomState(7)
    basis = np.linalg.qr(rng.randn(5, 2))[0].T          # (2, 5) orthon.
    coeffs = rng.randn(200, 2) * [3.0, 1.0]
    mat = coeffs @ basis + rng.randn(5) * 0.0 + 10.0    # offset mean
    sf = _write_emb(tmp_path, mat)

    mean, w, vals, total = pca_fit(sf, n_components=2)
    # f32 storage quantizes the input, so compare against the twin of
    # the QUANTIZED matrix (what both engines actually read)
    m32 = np.asarray(mat, np.float32).astype(np.float64)
    t_mean, t_w, t_vals = _twin_components(m32, 2)
    assert np.allclose(mean, t_mean, rtol=1e-12, atol=1e-12)
    assert np.allclose(w, t_w, rtol=1e-8, atol=1e-10)
    assert np.allclose(vals, t_vals, rtol=1e-8)
    # the two components capture (numerically) all the variance
    assert vals.sum() == pytest.approx(total, rel=1e-6)
    # components span the planted plane: projecting the basis onto the
    # fitted subspace preserves its norm
    assert np.allclose(basis @ w.T @ w, basis, atol=1e-5)

    got = pca_project(sf, n_components=2).to_pandas()
    rec = got[["pc1", "pc2"]].to_numpy() @ w + mean
    assert np.allclose(rec, m32, atol=1e-4)


@pytest.mark.usefixtures("ray_session")
def test_matches_twin_on_sf_corpus_and_shuffle_path_pinned(scale_plans):
    from ray_script_extract.pipelines.pca import pca_fit, pca_project

    t = pq.read_table(f"{SF}/embeddings.parquet")
    mat = np.vstack(t["embedding"].to_numpy(zero_copy_only=False)) \
        .astype(np.float64)
    assert np.array_equal(np.asarray(t["vec_id"]), np.arange(len(mat)))

    t_mean, t_w, t_vals = _twin_components(mat, 4)
    mean, w, vals, _ = pca_fit(SF, n_components=4)
    assert np.allclose(mean, t_mean, rtol=1e-12, atol=1e-12)
    assert np.allclose(vals, t_vals, rtol=1e-9)
    # compare subspaces via projection operators (sign/rotation safe)
    assert np.allclose(w.T @ w, t_w.T @ t_w, atol=1e-8)

    got = pca_project(SF, n_components=4).to_pandas()
    want = (mat - mean) @ w.T
    assert np.allclose(got[["pc1", "pc2", "pc3", "pc4"]].to_numpy(),
                       want, atol=1e-10)

    # the 100-TB fold path (keyed exchange) is the SAME fold tree →
    # bit-identical, not merely close
    with scale_plans():
        got2 = pca_project(SF, n_components=4).to_pandas()
    pd.testing.assert_frame_equal(got, got2)

"""Distributed PCA over the embedding table — the linear-algebra tier
of the similarity family (dimensionality reduction / whitening before
ANN or clustering, the classic pre-processing step of large-scale
embedding pipelines).

Shape: PCA needs only the first two moments, so the whole fit is ONE
streaming pass where each block contributes a constant-size partial —
(count, Σx, ΣxᵀX) = 1 + d + d² floats packed as f8 bytes — and the
eigendecomposition of the d×d covariance runs driver-side (d is
embedding width, never data-sized).  The projection is then a second
shuffle-free pass with (mean, components) broadcast once.  Nothing
vector-table-sized ever lands on the driver; per-block traffic is
O(d²) bytes — the shape that holds at 10^12 rows.

Determinism (float addition is not associative): partials fold in a
fixed TWO-LEVEL order keyed by data, not scheduling — level 1 groups
partials by ``batch_ord % _FOLD_FANOUT`` and sums each group sorted
by batch_ord; level 2 sums the ≤ _FOLD_FANOUT group rows sorted by
group id.  While the embeddings footer row count fits
``clustering._DRIVER_COMBINE_ROWS`` (the k-means fold's budget) both
levels fold driver-side; past it level 1 runs as a keyed exchange —
the 100-TB path where even 1-row-per-block partials outgrow the
driver — pinned BIT-IDENTICAL to the driver fold in tests/test_pca.py
because both paths apply the same fold tree.

Sign convention: each component's entry of largest |value| (lowest
index on ties) is made positive, so eigenvector sign is reproducible
across LAPACK builds.

No reference counterpart (`/root/reference` is a one-document
converter); extends the training-data similarity family.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from .joins import sorted_small

#: level-1 fold fanout: partials group into ≤ this many deterministic
#: buckets before the final driver fold (same bounded-fold shape as
#: decontaminate_bloom's 64-way OR-reduce).
_FOLD_FANOUT = 64

_PARTIAL_SCHEMA = pa.schema([
    ("batch_ord", pa.int64()), ("n", pa.int64()),
    ("vec_sum", pa.binary()), ("gram", pa.binary()),
])


def _moment_partial(batch: pa.Table) -> pa.Table:
    """One row per block: (min vec_id, count, Σx bytes, XᵀX bytes)."""
    import ray_script_extract as _rse
    _rse._tune_malloc()
    if len(batch) == 0:
        return _PARTIAL_SCHEMA.empty_table()
    ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
    m = np.vstack(batch.column("embedding").to_numpy(
        zero_copy_only=False)).astype(np.float64)
    return pa.table({
        "batch_ord": pa.array([int(ids.min())], pa.int64()),
        "n": pa.array([len(m)], pa.int64()),
        "vec_sum": pa.array([m.sum(axis=0).tobytes()], pa.binary()),
        "gram": pa.array([(m.T @ m).tobytes()], pa.binary()),
    })


def _fold_group(df: pd.DataFrame) -> pd.DataFrame:
    """Sum one group's partials in batch_ord order (level-1 fold).
    Emits the group's own min batch_ord so level 2 can re-sort."""
    df = df.sort_values("batch_ord", kind="stable")
    vec = np.frombuffer(b"".join(df["vec_sum"]), np.float64) \
        .reshape(len(df), -1)
    gram = np.frombuffer(b"".join(df["gram"]), np.float64) \
        .reshape(len(df), -1)
    return pd.DataFrame({
        "batch_ord": [int(df["batch_ord"].iloc[0])],
        "n": [int(df["n"].sum())],
        "vec_sum": [vec.sum(axis=0).tobytes()],
        "gram": [gram.sum(axis=0).tobytes()],
    })


def _fit_moments(sf_dir: str):
    """(n, mean, covariance) from one streaming pass.  Covariance is
    the population form Σ(x-μ)(x-μ)ᵀ/n = XᵀX/n − μμᵀ."""
    from . import clustering
    from .joins import hash_partitioned_map
    from .similarity import _emb_count

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    partials = ds.map_batches(_moment_partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def level1(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return df.iloc[:0]
        return (df.groupby(df["batch_ord"] % _FOLD_FANOUT, sort=True,
                           group_keys=False)
                  .apply(_fold_group).reset_index(drop=True))

    if _emb_count(sf_dir) > clustering._DRIVER_COMBINE_ROWS:
        # the 100-TB path: level-1 fold runs as a keyed exchange so
        # only ≤ _FOLD_FANOUT rows ever reach the driver
        tagged = partials.map_batches(
            lambda t: t.append_column(
                "fold_key", pa.array(
                    t.column("batch_ord").to_numpy(
                        zero_copy_only=False) % _FOLD_FANOUT,
                    pa.int64())),
            batch_format="pyarrow", zero_copy_batch=True)
        folded = hash_partitioned_map(
            tagged, ["fold_key"],
            lambda df: level1(df.drop(columns="fold_key"))).to_pandas()
    else:
        # bounded-metadata default: 1 row per block, both fold levels
        # driver-side — same tree, bit-identical (tests/test_pca.py)
        folded = level1(partials.to_pandas())

    folded = folded.sort_values("batch_ord", kind="stable")
    vec = np.frombuffer(b"".join(folded["vec_sum"]), np.float64) \
        .reshape(len(folded), -1)
    gram = np.frombuffer(b"".join(folded["gram"]), np.float64) \
        .reshape(len(folded), -1)
    n = int(folded["n"].sum())
    d = vec.shape[1]
    s = vec.sum(axis=0)
    g = gram.sum(axis=0).reshape(d, d)
    mean = s / n
    cov = g / n - np.outer(mean, mean)
    return n, mean, cov


def _principal_components(cov: np.ndarray, n_components: int):
    """Top-k eigenpairs of the symmetric covariance, eigenvalue-
    descending, with the reproducible sign convention (largest-|entry|
    coordinate positive, lowest index on ties)."""
    vals, vecs = np.linalg.eigh(cov)          # ascending
    order = np.argsort(-vals, kind="stable")[:n_components]
    vals = vals[order]
    w = vecs[:, order].T                       # (k, d) row components
    for i in range(w.shape[0]):
        j = int(np.argmax(np.abs(w[i])))
        if w[i, j] < 0:
            w[i] = -w[i]
    return vals, w


def pca_fit(sf_dir: str, n_components: int = 8):
    """Fit only: returns (mean, components (k,d), explained_variance
    (k,), total_variance) — driver-bounded metadata, reusable by any
    projection/whitening stage."""
    _, mean, cov = _fit_moments(sf_dir)
    vals, w = _principal_components(cov, n_components)
    return mean, w, vals, float(np.trace(cov))


def pca_project(sf_dir: str, n_components: int = 8):
    """Distributed PCA projection: fit on one moment pass, then one
    shuffle-free broadcast pass emits ``(vec_id, pc1..pck)`` sorted by
    vec_id.  Rows-only (eigendecompositions are not SQL-expressible);
    exactness is pinned against a single-process numpy twin and the
    shuffle-combine path in tests/test_pca.py."""
    mean, w, _, _ = pca_fit(sf_dir, n_components)
    bc = ray.put((mean, w))

    def project(batch: pa.Table) -> pa.Table:
        import ray_script_extract as _rse
        _rse._tune_malloc()
        mean, w = ray.get(bc)
        m = np.vstack(batch.column("embedding").to_numpy(
            zero_copy_only=False)).astype(np.float64)
        proj = (m - mean) @ w.T
        cols = {"vec_id": batch.column("vec_id").cast(pa.int64())}
        for i in range(w.shape[0]):
            cols[f"pc{i + 1}"] = pa.array(proj[:, i], pa.float64())
        return pa.table(cols)

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    return sorted_small(ds.map_batches(project, batch_format="pyarrow",
                                       zero_copy_batch=True), "vec_id")

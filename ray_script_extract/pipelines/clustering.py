"""Distributed spherical k-means over the embedding table — the
iterative-algorithm tier of the similarity family.

``similarity.kmeans_fit`` fits centroids on a BOUNDED driver sample
(good enough to seed an IVF index); this module runs full-dataset
Lloyd refinement the Ray-Data way: each iteration is one streaming
pass where the only state that moves is k centroids out (``ray.put``
broadcast, one object-store copy per node) and k partial sums back
(per-batch cluster sums packed as f8 bytes, reduced on one bounded
hash-partitioned shuffle).  Nothing vector-table-sized ever lands on
the driver, and per-iteration cost is a constant number of bytes per
input block — the shape that holds at 10^12 rows.

Determinism: partial sums are reduced in (cluster, batch-min-vec_id)
order inside each reduce partition, so the result is independent of
Ray's task scheduling/arrival order (float addition is not
associative; without the sort two runs of the same job could diverge
at cluster boundaries).

No reference counterpart (`/root/reference` is a one-document
converter); this extends the training-data pipeline family
(clustering for data curation / diversity sampling).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from .joins import sorted_small

from .similarity import _emb_count, _read_emb, kmeans_fit, _sample_matrix

#: Input rows up to which the per-pass partials of the embedding folds
#: (k-means Lloyd passes here, the PCA moment fold in pca.py) reduce on
#: the driver: k × num_blocks rows is a few MB below this, so a shuffle
#: barrier per pass would be pure overhead.  Past it they reduce on a
#: keyed exchange.  Chosen from the parquet footer, no data I/O.
_DRIVER_COMBINE_ROWS = 50_000_000


def _normalized_ds(sf_dir: str) -> "ray.data.Dataset":
    """Read → L2-normalize → f8 fixed-size-list, materialized ONCE:
    the n_iter+1 downstream passes reuse the object-store blocks
    instead of re-reading parquet and re-converting list<float> →
    matrix every iteration (at 10^12 rows this is one spillable
    object-store copy the whole Lloyd loop amortizes).  Both pack and
    unpack are zero-Python-loop: ravel → FixedSizeListArray one way,
    flatten → reshape the other."""

    def pack(batch: pa.Table) -> pa.Table:
        import ray_script_extract as _rse
        _rse._tune_malloc()
        m = np.vstack(batch.column("embedding").to_numpy(
            zero_copy_only=False)).astype(np.float64)
        m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        nemb = pa.FixedSizeListArray.from_arrays(
            pa.array(m.ravel(), pa.float64()), m.shape[1])
        return pa.table({"vec_id": batch.column("vec_id").cast(pa.int64()),
                         "nemb": nemb})

    return _read_emb(sf_dir).map_batches(
        pack, batch_format="pyarrow", zero_copy_batch=True).materialize()


def _unpack(batch: pa.Table) -> "np.ndarray":
    flat = pc.list_flatten(batch.column("nemb"))
    return flat.to_numpy(zero_copy_only=False).reshape(len(batch), -1)


_PARTIAL_SCHEMA = pa.schema([
    ("cluster", pa.int64()), ("batch_ord", pa.int64()),
    ("vec_sum", pa.binary()), ("n", pa.int64()),
    ("inertia", pa.float64()),
])


def _block_partial(batch: pa.Table, cents: np.ndarray) -> pa.Table:
    """Per-block Lloyd partial: ≤ k rows of (cluster, batch_ord,
    packed f8 vector sum, count, inertia) regardless of block size.
    Module-level so the raw task pickles by reference (workers import
    the package, which runs the malloc tuning)."""
    if len(batch) == 0:
        return _PARTIAL_SCHEMA.empty_table()
    ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
    m = _unpack(batch)
    sims = m @ cents.T
    assign = sims.argmax(axis=1)
    best = sims[np.arange(len(m)), assign]
    order = np.argsort(assign, kind="stable")
    uniq, starts = np.unique(assign[order], return_index=True)
    sums = np.add.reduceat(m[order], starts, axis=0)
    counts = np.diff(np.append(starts, len(m)))
    inertia = np.zeros(len(uniq))
    np.add.at(inertia, np.searchsorted(uniq, assign), 1.0 - best)
    return pa.table({
        "cluster": pa.array(uniq.astype(np.int64), pa.int64()),
        "batch_ord": pa.array(
            np.full(len(uniq), ids.min(), np.int64), pa.int64()),
        "vec_sum": pa.array(
            [s.tobytes() for s in sums], pa.binary()),
        "n": pa.array(counts.astype(np.int64), pa.int64()),
        "inertia": pa.array(inertia, pa.float64()),
    })


_block_partial_task = ray.remote(_block_partial)


def _dataset_block_refs(ds: "ray.data.Dataset") -> list:
    refs = []
    for bundle in ds.iter_internal_ref_bundles():
        refs.extend(bundle.block_refs)
    return refs


def _lloyd_pass(block_refs: list, centroids: np.ndarray,
                driver_combine: bool = False):
    """One distributed Lloyd iteration: returns (new_centroids,
    inertia, n_assigned) — inertia is Σ (1 - cos(x, c(x))) over
    normalized vectors, the spherical-k-means objective.

    Partials are ONE raw task per materialized block (the Dataset is
    already in the object store; per pass only k centroids go out and
    ≤ k rows per block come back — re-running a streaming-executor
    job per iteration paid ~0.4 s fixed per pass for the same work).

    ``driver_combine=True`` (chosen ONCE per fit from the parquet
    footer, same budget discipline as ``broadcast_int_lookup``)
    reduces the partials straight on the driver — the per-pass
    all-to-all barrier is pure overhead while k × num_blocks × dim×8B
    is a few MB.  Past the budget the hash-partitioned shuffle reduce
    takes over, fed the SAME per-block partial rows.  Both paths sort
    partials by (cluster, batch_ord) before the same reduceat, so
    they are bit-identical."""
    from .joins import hash_partitioned_map

    bc = ray.put(centroids)
    tables = ray.get([_block_partial_task.remote(ref, bc)
                      for ref in block_refs])
    tables = [t for t in tables if len(t)] or [
        _PARTIAL_SCHEMA.empty_table()]

    def reduce(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["cluster", "batch_ord"], kind="stable")
        mats = np.frombuffer(
            b"".join(df["vec_sum"]), np.float64).reshape(len(df), -1)
        cl = df["cluster"].to_numpy()
        starts = np.flatnonzero(np.r_[True, cl[1:] != cl[:-1]])
        return pd.DataFrame({
            "cluster": cl[starts],
            "vec_sum": [s.tobytes() for s in
                        np.add.reduceat(mats, starts, axis=0)],
            "n": np.add.reduceat(df["n"].to_numpy(), starts),
            "inertia": np.add.reduceat(df["inertia"].to_numpy(), starts),
        })

    if driver_combine:
        # ≤ k rows per input block; reduce() itself sorts by
        # (cluster, batch_ord) so the sum order is bit-identical to
        # the per-partition shuffle reduce
        parts = reduce(pa.concat_tables(tables).to_pandas())
    else:
        parts = hash_partitioned_map(
            ray.data.from_arrow(tables), ["cluster"],
            reduce).to_pandas()                          # ≤ k rows

    parts = parts.sort_values("cluster")
    new = centroids.copy()
    for _, row in parts.iterrows():      # ≤ k iterations, driver-side
        vec = np.frombuffer(row["vec_sum"], np.float64) / row["n"]
        nv = np.linalg.norm(vec)
        if nv > 0:                       # same convention as kmeans_fit
            new[int(row["cluster"])] = vec / nv
    return new, float(parts["inertia"].sum()), int(parts["n"].sum())


def _fit_centroids(sf_dir: str, n_clusters: int, n_iter: int):
    """Shared fit loop: seed on the bounded driver sample, refine with
    ``n_iter`` distributed Lloyd passes.  Returns ``(norm_ds,
    centroids, trajectory)`` — the materialized normalized dataset is
    handed back so callers reuse its object-store blocks for their own
    final pass instead of re-reading parquet."""
    sample = _sample_matrix(sf_dir)
    sample /= np.maximum(np.linalg.norm(sample, axis=1, keepdims=True),
                         1e-12)
    centroids = kmeans_fit(sample, n_clusters)

    driver_combine = _emb_count(sf_dir) <= _DRIVER_COMBINE_ROWS

    norm_ds = _normalized_ds(sf_dir)
    block_refs = _dataset_block_refs(norm_ds)

    trajectory = []
    for _ in range(n_iter):
        centroids, inertia, _ = _lloyd_pass(block_refs, centroids,
                                            driver_combine)
        trajectory.append(inertia)
    return norm_ds, centroids, trajectory


def cluster_embeddings(sf_dir: str, n_clusters: int = 16,
                       n_iter: int = 5, return_stats: bool = False):
    """Full-dataset spherical k-means: seed on the bounded sample
    (``kmeans_fit``), refine with ``n_iter`` distributed Lloyd passes,
    then one final streaming pass emits the ``(vec_id, cluster)``
    assignment DATASET sorted by vec_id (never collected — at 10^12
    rows the assignment table is itself big data; consume it with
    write_parquet or a downstream stage).  ``return_stats=True``
    additionally returns the inertia trajectory and final centroids
    (n_iter floats + k×dim — driver-bounded metadata)."""
    norm_ds, centroids, trajectory = _fit_centroids(
        sf_dir, n_clusters, n_iter)

    bc = ray.put(centroids)

    def assign(batch: pa.Table) -> pa.Table:
        cents = ray.get(bc)
        m = _unpack(batch)
        return pa.table({
            "vec_id": batch.column("vec_id"),
            "cluster": pa.array((m @ cents.T).argmax(axis=1)
                                .astype(np.int64), pa.int64()),
        })

    out = (sorted_small(norm_ds
           .map_batches(assign, batch_format="pyarrow",
                        zero_copy_batch=True), "vec_id"))
    if return_stats:
        return out, trajectory, centroids
    return out


def _max_prior_sim(m: np.ndarray, budget_elems: int = 32_000_000
                   ) -> np.ndarray:
    """For row-ordered unit vectors ``m`` (n×d), return per row i the
    max cosine to any EARLIER row (j < i); row 0 gets -inf (no prior).

    Column-chunked so the live sim slab never exceeds ``budget_elems``
    floats (~256 MB at the default): each block computes
    ``m[:b] @ m[a:b].T`` — only rows below the block's last column are
    ever needed — then masks j >= i before the column max.  Chunking
    splits output columns only, never the reduction axis, so results
    are bit-identical to the one-shot ``m @ m.T``."""
    n = m.shape[0]
    out = np.full(n, -np.inf)
    if n <= 1:
        return out
    blk = max(1, budget_elems // n)
    for a in range(1, n, blk):
        b = min(n, a + blk)
        s = m[:b] @ m[a:b].T                      # (b, b-a)
        mask = np.arange(b)[:, None] >= np.arange(a, b)[None, :]
        s[mask] = -np.inf
        out[a:b] = s.max(axis=0)
    return out


def dedup_semantic(sf_dir: str, n_clusters: int = 16, eps: float = 0.6,
                   n_iter: int = 3):
    """SemDeDup-style semantic deduplication (Abbas et al.,
    arXiv:2303.09540): spherical-k-means-cluster the embedding table,
    then inside each cluster mark as duplicates all points whose
    cosine to a KEPT earlier point exceeds ``1 - eps``, preferring to
    keep the point FARTHEST from its centroid (the paper's
    low-centroid-similarity representative; ties broken by vec_id).
    The default ``eps=0.6`` (cosine threshold 0.4) matches the τ=0.4
    convention of the near_dup_embeddings family on this synthetic
    corpus; real text embeddings want a much tighter eps (paper: 0.05
    region).
    Returns ``(vec_id, cluster, keep, max_prior_sim)`` sorted by
    vec_id — a policy table a curation pass joins against, same seam
    as ``dedup_near_keep_best``.

    Scale shape: the fit is the bounded Lloyd loop (centroids
    broadcast, k-row partials back); the prune is ONE exchange keyed
    on cluster id, inside which each cluster's (c×d) slab is pruned
    with a column-chunked matmul (``_max_prior_sim``, ≤256 MB live).
    Within-cluster cost is O(Σ c_i²·d) — the SemDeDup contract is
    that k scales with N so c_i stays bounded (paper: N/k ≈ const);
    only d·8 bytes per row move through the exchange, never text.

    No reference counterpart (`/root/reference` is a one-document
    converter); extends the training-data curation family."""
    from .joins import hash_partitioned_map

    norm_ds, centroids, _ = _fit_centroids(sf_dir, n_clusters, n_iter)
    bc = ray.put(centroids)

    def tag(batch: pa.Table) -> pa.Table:
        import ray_script_extract as _rse
        _rse._tune_malloc()
        cents = ray.get(bc)
        m = _unpack(batch)
        sims = m @ cents.T
        cl = sims.argmax(axis=1)
        return pa.table({
            "vec_id": batch.column("vec_id").cast(pa.int64()),
            "cluster": pa.array(cl.astype(np.int64), pa.int64()),
            "cent_sim": pa.array(sims[np.arange(len(m)), cl],
                                 pa.float64()),
            "nemb": pa.array([r.tobytes() for r in m], pa.binary()),
        })

    tagged = norm_ds.map_batches(tag, batch_format="pyarrow",
                                 zero_copy_batch=True)
    thresh = 1.0 - eps

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        import ray_script_extract as _rse
        _rse._tune_malloc()
        outs = []
        for _, g in df.groupby("cluster", sort=True):
            g = g.sort_values(["cent_sim", "vec_id"], kind="stable")
            m = np.frombuffer(b"".join(g["nemb"]),
                              np.float64).reshape(len(g), -1)
            prior = _max_prior_sim(m)
            # row 0 has no prior (−inf) so it is always kept, even at
            # eps ≥ 2 where thresh ≤ −1 would reject a −1.0 sentinel
            outs.append(pd.DataFrame({
                "vec_id": g["vec_id"].to_numpy(),
                "cluster": g["cluster"].to_numpy(),
                "keep": prior < thresh,
                "max_prior_sim": np.where(np.isfinite(prior),
                                          prior, -1.0),
            }))
        return pd.concat(outs) if outs else pd.DataFrame({
            "vec_id": pd.Series([], dtype=np.int64),
            "cluster": pd.Series([], dtype=np.int64),
            "keep": pd.Series([], dtype=bool),
            "max_prior_sim": pd.Series([], dtype=np.float64)})

    return sorted_small(hash_partitioned_map(tagged, ["cluster"], prune), "vec_id")

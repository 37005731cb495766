"""Approximate nearest-neighbor search + near-dup over the embedding
column.

Brute-force cosine top-k lives in queries.py (`knn_cosine`, oracle-
checked).  This module adds the scale paths:

* IVF — k-means coarse quantizer fitted on a BOUNDED SAMPLE (the
  driver never loads the full embedding table), vectors bucketed by
  nearest centroid, queries probe only ``n_probe`` buckets.
* ``near_dup_embeddings_lsh`` — random-hyperplane signatures, banded
  LSH candidate generation, exact cosine verify on candidates only —
  the bucketed variant of queries.py's exact ``near_dup_embeddings``
  (which broadcasts the full matrix and is kept as ground truth).

Recall of both approximate paths vs their exact twins is asserted in
tests/test_similarity.py.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from .joins import sorted_small

_FIT_SAMPLE_CAP = 8192  # rows the driver may hold for the k-means fit


def _read_emb(sf_dir: str):
    return ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                 columns=["vec_id", "embedding"])


def _query_matrix(sf_dir: str, n_queries: int):
    """The n query vectors only — read with a row filter, never the
    full table."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "<", n_queries)])
    ids = np.asarray(t["vec_id"])
    mat = np.vstack(t["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
    order = np.argsort(ids)
    return ids[order], mat[order]


def _embedding_dim(sf_dir: str) -> int:
    """Vector dimensionality from the first row of the first row
    group — bounded driver read regardless of table size."""
    import pyarrow.parquet as pq

    f = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    t = f.read_row_group(0, columns=["embedding"])
    return len(t.column(0)[0])


def _sample_matrix(sf_dir: str, cap: int = _FIT_SAMPLE_CAP) -> np.ndarray:
    """Bounded sample for the coarse-quantizer fit: the first ``cap``
    rows in file order, read driver-side with pyarrow's incremental
    reader — at most cap rows plus one record batch ever leave the
    file, no matter the table size (same rows a Ray ``limit(cap)``
    yields, without paying a streaming-executor spin-up for a
    driver-bounded head read)."""
    import pyarrow.parquet as pq

    f = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    chunks, got = [], 0
    for rb in f.iter_batches(batch_size=min(cap, 65_536),
                             columns=["embedding"]):
        chunks.append(rb)
        got += len(rb)
        if got >= cap:
            break
    col = pa.Table.from_batches(chunks).slice(0, cap).column("embedding")
    return np.vstack(col.to_numpy(zero_copy_only=False)).astype(np.float64)


def kmeans_fit(mat: np.ndarray, n_clusters: int, n_iter: int = 10) -> np.ndarray:
    """Deterministic k-means on normalized vectors: centroids seeded
    from evenly-spaced input rows (no RNG), Lloyd iterations."""
    norm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    idx = np.linspace(0, len(norm) - 1, n_clusters).astype(np.int64)
    centroids = norm[idx].copy()
    for _ in range(n_iter):
        sims = norm @ centroids.T
        assign = sims.argmax(axis=1)
        for c in range(n_clusters):
            members = norm[assign == c]
            if len(members):
                m = members.mean(axis=0)
                n = np.linalg.norm(m)
                if n > 0:
                    centroids[c] = m / n
    return centroids


def knn_cosine_ivf(sf_dir: str, n_queries: int = 4, k: int = 5,
                   n_clusters: int = 16, n_probe: int = 4):
    """IVF approximate top-k: sampled fit → assign → probe →
    per-bucket scan with per-batch top-k pruning.

    Returns (query_id, vec_id, rank) ordered rows.  Approximate by
    construction → rows-only correctness; recall vs the brute-force
    path is asserted in tests."""
    centroids = kmeans_fit(_sample_matrix(sf_dir), n_clusters)
    q_ids, q = _query_matrix(sf_dir, n_queries)
    q_norm = q / np.linalg.norm(q, axis=1, keepdims=True)
    # probe sets per query
    q_sims = q_norm @ centroids.T
    probe_sets = np.argsort(-q_sims, axis=1)[:, :n_probe]
    bc = ray.put((centroids, q_ids, q_norm, probe_sets))

    ds = _read_emb(sf_dir)

    def scan(batch: pa.Table) -> pa.Table:
        centroids, q_ids, q_norm, probe_sets = ray.get(bc)
        vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        m = np.vstack(batch.column("embedding").to_numpy(zero_copy_only=False)).astype(np.float64)
        m = m / np.linalg.norm(m, axis=1, keepdims=True)
        assign = (m @ centroids.T).argmax(axis=1)
        out_q: List[np.ndarray] = []
        out_v: List[np.ndarray] = []
        out_s: List[np.ndarray] = []
        for qi in range(len(q_ids)):
            probed = np.isin(assign, probe_sets[qi])
            probed &= vec_ids != q_ids[qi]
            if not probed.any():
                continue
            sims = np.round(m[probed] @ q_norm[qi], 4)
            v = vec_ids[probed]
            top = np.lexsort((v, -sims))[:k]  # batch-local prune
            out_q.append(np.full(len(top), q_ids[qi], np.int64))
            out_v.append(v[top])
            out_s.append(sims[top])
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), pa.int64()),
            "vec_id": pa.array(np.concatenate(out_v), pa.int64()),
            "score": pa.array(np.concatenate(out_s), pa.float64()),
        })

    scored = ds.map_batches(scan, batch_format="pyarrow", zero_copy_batch=True)

    from .joins import hash_partitioned_map

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["query_id", "score", "vec_id"],
                            ascending=[True, False, True], kind="stable")
        df = df.groupby("query_id", sort=False).head(k).copy()
        df["rank"] = (df.groupby("query_id", sort=False).cumcount()
                      + 1).astype(np.int64)
        return df[["query_id", "vec_id", "rank"]]

    return sorted_small(hash_partitioned_map(scored, ["query_id"], topk), ["query_id", "rank"])


_EMB_SEED = 99
_TARGET_BUCKET = 32   # expected bucket occupancy the key width targets
_MIN_BAND_BITS = 8
_MAX_BAND_BITS = 24
_PLANE_CHUNK_BITS = 2048  # hyperplane rows materialized per chunk


def _lsh_params(n_rows: int, threshold: float,
                target_recall: float = 0.995) -> "tuple[int, int]":
    """(bits_per_band, n_bands) derived from corpus size and the
    cosine threshold — the round-2 fixed 32×4-bit scheme had 16
    buckets/band at ANY N, so buckets saturated (candidates ≈ all
    pairs today, cap-512 skips → recall collapse at large N).

    * band width ``b = clamp(ceil(log2(N / target_bucket)), 8, 24)``
      keeps expected bucket occupancy ≈ ``_TARGET_BUCKET`` at every
      scale (buckets per band = 2^b grows with N).
    * band count ``L = ceil(ln(1/(1-recall)) / p1^b)`` with
      ``p1 = 1 - arccos(τ)/π`` (per-hyperplane agreement probability
      of a pair exactly AT the threshold) guarantees
      ``recall ≥ target`` for boundary pairs; pairs above τ do better.

    Cost note for 100 TB: total work scales as N^(1+ρ) with
    ρ = ln(1/p1)/ln 2 — ≈ N^1.66 at τ=0.4 (a genuinely hard, wide
    similarity join: p1=0.631 barely beats the 0.5 background) but
    ≈ N^1.33 at a typical dedup τ=0.8, where L stays small (≈34 at
    b=8).  Sub-quadratic at any τ, vs the exact twin's N²."""
    import math

    p1 = 1.0 - math.acos(threshold) / math.pi
    b = int(min(_MAX_BAND_BITS,
                max(_MIN_BAND_BITS,
                    math.ceil(math.log2(max(n_rows, 2 * _TARGET_BUCKET)
                                        / _TARGET_BUCKET)))))
    n_bands = int(math.ceil(math.log(1.0 / (1.0 - target_recall))
                            / (p1 ** b)))
    return b, n_bands


def _band_key_matrix(m: np.ndarray, bits: int, n_bands: int,
                     seed: int = _EMB_SEED) -> np.ndarray:
    """(n_bands, n) int64 band keys.  Hyperplanes are regenerated
    identically inside every task from the fixed seed (nothing
    ships), in chunks of ≤ _PLANE_CHUNK_BITS rows so the plane matrix
    stays bounded even when L·b is large (low-τ regimes)."""
    rng = np.random.RandomState(seed)
    n = m.shape[0]
    keys = np.empty((n_bands, n), np.int64)
    weights = (1 << np.arange(bits)).astype(np.int64)
    per_chunk = max(1, _PLANE_CHUNK_BITS // bits)
    for c0 in range(0, n_bands, per_chunk):
        c1 = min(c0 + per_chunk, n_bands)
        planes = rng.standard_normal(((c1 - c0) * bits, m.shape[1]))
        sig = (m @ planes.T) > 0
        for i, band in enumerate(range(c0, c1)):
            keys[band] = (sig[:, i * bits:(i + 1) * bits] @ weights) \
                + (band << bits)  # band id in high bits: disjoint keyspaces
    return keys


def _emb_count(sf_dir: str) -> int:
    """Row count from parquet footer metadata — O(1) driver read."""
    import pyarrow.parquet as pq

    return pq.ParquetFile(f"{sf_dir}/embeddings.parquet").metadata.num_rows


_BROADCAST_VERIFY_BYTES = 256 << 20  # ≤256 MB normalized matrix → broadcast


def near_dup_embeddings_lsh(sf_dir: str, threshold: float = 0.4,
                            target_recall: float = 0.995):
    """Bucketed embedding near-dup: random-hyperplane LSH prefilter →
    exact cosine verify on candidate pairs only (round(cos,4) ≥ τ,
    a < b — same contract as the exact ``near_dup_embeddings``).

    Scale shape: band rows are (band_key:int64, vec_id) only;
    candidate pairs join the embedding column back via two
    partitioned joins — the full matrix is never broadcast and no
    O(N²) scan happens.  Band width/count come from ``_lsh_params``
    (N-scaled keys: bucket occupancy stays ~32, so the ``_BUCKET_CAP``
    skip never fires on healthy data) and recall ≥ target_recall is
    guaranteed for pairs at the τ boundary — asserted vs the exact
    path at two corpus sizes in tests/test_similarity.py.

    Verify is HYBRID: when the normalized f8 matrix fits
    ``_BROADCAST_VERIFY_BYTES`` it ships once via ray.put and every
    pair batch verifies by indexed lookup (zero extra shuffles); above
    the budget, candidate pairs join the packed embedding column back
    through two partitioned joins (no broadcast, no O(N²) scan — the
    100 TB path, pinned equal to the broadcast verify in
    tests/test_similarity.py)."""
    n_rows = _emb_count(sf_dir)
    bits, n_bands = _lsh_params(n_rows, threshold, target_recall)

    def bands(batch: pa.Table) -> pa.Table:
        m = np.vstack(batch.column("embedding")
                      .to_numpy(zero_copy_only=False)).astype(np.float64)
        keys = _band_key_matrix(m, bits, n_bands)
        vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "band_key": pa.array(keys.ravel(), pa.int64()),
            "doc_id": pa.array(np.tile(vec_ids, n_bands), pa.int64()),
        })

    from .dedup import PAIRS_SCHEMA, _bucket_pairs
    from .joins import hash_join_via_groupby

    dim = _embedding_dim(sf_dir)
    emb = _read_emb(sf_dir)
    band_rows = emb.map_batches(bands, batch_format="pyarrow",
                                zero_copy_batch=True)

    if n_rows * dim * 8 <= _BROADCAST_VERIFY_BYTES:
        # small-side broadcast: the budget check above BOUNDS the
        # driver read, so this is not an unbounded materialization
        import pyarrow.parquet as pq

        from .dedup import _BUCKET_CAP

        t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
        all_ids = np.asarray(t["vec_id"]).astype(np.int64)
        mat = np.vstack(t["embedding"].to_numpy(zero_copy_only=False)) \
            .astype(np.float64)
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        order = np.argsort(all_ids)
        handle = ray.put((all_ids[order], mat[order]))

        def bucket_verify(df: pd.DataFrame) -> pd.DataFrame:
            """Candidate generation FUSED with exact verify, bucket by
            bucket: per run-size group, one batched (runs, s, dim) ×
            (runs, s, dim) einsum — working sets stay a few MB
            (cache-hot), vs flat per-pair gathers that materialize
            2×(n_pairs, dim) = GBs (measured 10× slower on this box's
            fault-bound memory)."""
            import ray_script_extract as _rse
            _rse._tune_malloc()
            empty = pd.DataFrame({"id_a": pd.Series([], dtype=np.int64),
                                  "id_b": pd.Series([], dtype=np.int64)})
            ids_, m_ = ray.get(handle)
            g = df.drop_duplicates(["band_key", "doc_id"]) \
                .sort_values(["band_key", "doc_id"], kind="stable")
            k = g["band_key"].to_numpy()
            d = g["doc_id"].to_numpy().astype(np.int64, copy=False)
            if len(d) == 0:
                return empty
            change = np.r_[True, k[1:] != k[:-1]]
            run_id = np.cumsum(change) - 1
            sizes = np.bincount(run_id)
            keep = (sizes >= 2) & (sizes <= _BUCKET_CAP)
            d = d[keep[run_id]]
            sizes = sizes[keep]
            if len(sizes) == 0:
                return empty
            starts = np.cumsum(sizes) - sizes
            pos = np.searchsorted(ids_, d)
            out_a, out_b = [], []
            for s in np.unique(sizes):
                s = int(s)
                runs = starts[sizes == s]
                ia, ib = np.triu_indices(s, k=1)
                # chunk runs so (chunk, s, s) sims stay ~8 MB
                per = max(1, (8 << 20) // (8 * s * s))
                for lo in range(0, len(runs), per):
                    r = runs[lo:lo + per]
                    idx = r[:, None] + np.arange(s)[None, :]
                    v = m_[pos[idx]]  # (runs, s, dim)
                    sims = np.round(np.einsum("rik,rjk->rij", v, v), 4)
                    rr, pp = np.nonzero(sims[:, ia, ib] >= threshold)
                    # doc ids ascend within a run → id_a < id_b
                    out_a.append(d[idx[rr, ia[pp]]])
                    out_b.append(d[idx[rr, ib[pp]]])
            if not out_a:
                return empty
            return pd.DataFrame({
                "id_a": np.concatenate(out_a),
                "id_b": np.concatenate(out_b),
            }).drop_duplicates()

        from .joins import hash_partitioned_map

        verified = hash_partitioned_map(band_rows, ["band_key"],
                                        bucket_verify)
        # a pair can verify in several bands (different partitions) —
        # one thin shuffle on the (small) verified set dedupes
        return sorted_small(hash_partitioned_map(
            verified, ["id_a", "id_b"],
            lambda df: df.drop_duplicates()), ["id_a", "id_b"])

    pairs = _bucket_pairs(band_rows)

    def packed(prefix: str):
        # NORMALIZED embedding packed into ONE fixed-width binary
        # column (dim float64 little-endian): a single buffer through
        # every shuffle/merge — no per-row list objects, no
        # 130-column blocks through Ray's sort.  f8 (not f4) so the
        # verify is bit-identical to the float64 exact twin — f4
        # quantization could flip round(cos, 4) on boundary pairs
        # (ADVICE r2); halve the payload with f4 only if that
        # tolerance is acceptable.
        def fn(batch: pa.Table) -> pa.Table:
            m = np.vstack(batch.column("embedding")
                          .to_numpy(zero_copy_only=False)).astype(np.float64)
            m = m / np.linalg.norm(m, axis=1, keepdims=True)
            m8 = np.ascontiguousarray(m, dtype="<f8")
            return pa.table({
                "__k": batch.column("vec_id"),
                f"{prefix}bin": pa.array(
                    [m8[i].tobytes() for i in range(len(m8))],
                    pa.binary()),
            })
        return fn

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"id_a": pd.Series([], dtype=np.int64),
                                 "id_b": pd.Series([], dtype=np.int64)})
        a = np.frombuffer(b"".join(df["a_bin"]), dtype="<f8") \
            .reshape(len(df), dim)
        b = np.frombuffer(b"".join(df["b_bin"]), dtype="<f8") \
            .reshape(len(df), dim)
        cos = np.round((a * b).sum(axis=1), 4)
        keep = cos >= threshold
        return pd.DataFrame({
            "id_a": df["id_a"].to_numpy()[keep].astype(np.int64),
            "id_b": df["id_b"].to_numpy()[keep].astype(np.int64),
        })

    def side_schema(prefix: str) -> "pa.Schema":
        return pa.schema([("__k", pa.int64()),
                          (f"{prefix}bin", pa.binary())])

    # explicit schemas: .schema() on these lazy pipelines would
    # re-execute them as probes (see hash_join_via_groupby docstring)
    wa_schema = pa.schema(list(PAIRS_SCHEMA)
                          + [pa.field("a_bin", pa.binary())])
    side_a = emb.map_batches(packed("a_"), batch_format="pyarrow",
                             zero_copy_batch=True)
    side_b = emb.map_batches(packed("b_"), batch_format="pyarrow",
                             zero_copy_batch=True)
    with_a = hash_join_via_groupby(pairs, side_a, "id_a", "__k",
                                   dedupe_left=True,
                                   left_schema=PAIRS_SCHEMA,
                                   right_schema=side_schema("a_"))
    return sorted_small(hash_join_via_groupby(with_a, side_b, "id_b", "__k",
                                 post=verify,
                                 left_schema=wa_schema,
                                 right_schema=side_schema("b_")), ["id_a", "id_b"])


# ---------------------------------------------------------------------------
# SQ8 scalar-quantized ANN (compressed-index scale path)
# ---------------------------------------------------------------------------
# Per-dimension affine int8 quantization (the FAISS "SQ8" codec,
# public: Johnson/Douze/Jégou, "Billion-scale similarity search with
# GPUs", 2017): x_d ≈ mn_d + (code_d + 128) * (mx_d - mn_d)/255.
# The index holds ONE byte per dimension instead of a 4-byte float —
# a 4× object-store/memory cut, which is what makes the embedding
# table of a 10^12-doc corpus scannable.  Search is asymmetric
# (query stays float):
#     q · decode(c) = Σ_d q_d·mn_d  +  (q ⊙ scale) · (c + 128)
# i.e. a constant per query plus one int8→float matvec per batch.


def _sq8_bounds(sf_dir: str) -> "tuple[np.ndarray, np.ndarray]":
    """Global per-dimension min/max of the NORMALIZED vectors in one
    streaming pass: each batch collapses to a single (mn, mx) row, the
    driver reduces ≤ num_blocks rows."""
    def minmax(batch: pa.Table) -> pa.Table:
        m = np.vstack(batch.column("embedding")
                      .to_numpy(zero_copy_only=False)).astype(np.float64)
        m = m / np.linalg.norm(m, axis=1, keepdims=True)
        return pa.table({
            "mn": pa.array([m.min(axis=0).tolist()]),
            "mx": pa.array([m.max(axis=0).tolist()]),
        })

    parts = _read_emb(sf_dir).map_batches(
        minmax, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    mn = np.vstack(parts["mn"].to_numpy()).min(axis=0)
    mx = np.vstack(parts["mx"].to_numpy()).max(axis=0)
    # guard degenerate dims (constant value) against zero scale
    mx = np.where(mx - mn < 1e-12, mn + 1e-12, mx)
    return mn, mx


def build_sq8_index(sf_dir: str, mn: np.ndarray, mx: np.ndarray):
    """Quantize the embedding table to (vec_id, code: binary, dnorm):
    one byte/dim codes + the decoded-vector norm used to re-normalize
    scores at search time.  Streaming map_batches — the float table is
    never materialized."""
    scale = (mx - mn) / 255.0
    bc = ray.put((mn, scale))

    def quantize(batch: pa.Table) -> pa.Table:
        from ray_script_extract import _tune_malloc
        _tune_malloc()
        mn, scale = ray.get(bc)
        m = np.vstack(batch.column("embedding")
                      .to_numpy(zero_copy_only=False)).astype(np.float64)
        m = m / np.linalg.norm(m, axis=1, keepdims=True)
        codes = np.clip(np.round((m - mn) / scale), 0, 255) \
            .astype(np.uint8)
        decoded = mn + codes.astype(np.float64) * scale
        dnorm = np.linalg.norm(decoded, axis=1)
        return pa.table({
            "vec_id": batch.column("vec_id"),
            "code": pa.array([codes[i].tobytes() for i in range(len(codes))],
                             pa.binary()),
            "dnorm": pa.array(dnorm, pa.float64()),
        })

    return _read_emb(sf_dir).map_batches(
        quantize, batch_format="pyarrow", zero_copy_batch=True)


def knn_cosine_sq8(sf_dir: str, n_queries: int = 4, k: int = 5):
    """Approximate cosine top-k over the SQ8-compressed index —
    same output contract as `knn_cosine` (query_id, vec_id, rank);
    approximate by quantization → rows-only correctness, recall vs
    the brute-force twin asserted in tests/test_similarity.py.

    Scale shape: the scan touches 1 byte/dim; per batch the score for
    ALL queries is one (codes+0) uint8→float matmul against the
    (dim × n_queries) prepared matrix plus a per-query constant."""
    mn, mx = _sq8_bounds(sf_dir)
    scale = (mx - mn) / 255.0
    q_ids, q = _query_matrix(sf_dir, n_queries)
    q_norm = q / np.linalg.norm(q, axis=1, keepdims=True)
    # asymmetric-distance pieces: per-query constant + scaled query
    q_const = q_norm @ mn                       # (n_queries,)
    q_scaled = (q_norm * scale).T               # (dim, n_queries)
    bc = ray.put((q_ids, q_const, q_scaled))
    dim = len(mn)

    index = build_sq8_index(sf_dir, mn, mx)

    def scan(batch: pa.Table) -> pa.Table:
        from ray_script_extract import _tune_malloc
        _tune_malloc()
        q_ids, q_const, q_scaled = ray.get(bc)
        vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        code_buf = b"".join(batch.column("code").to_pylist())
        codes = np.frombuffer(code_buf, np.uint8).reshape(-1, dim)
        dnorm = batch.column("dnorm").to_numpy(zero_copy_only=False)
        sims = (codes.astype(np.float64) @ q_scaled
                + q_const) / dnorm[:, None]
        out_q, out_v, out_s = [], [], []
        for qi in range(len(q_ids)):
            s = np.round(sims[:, qi], 4)
            mask = vec_ids != q_ids[qi]
            v, s = vec_ids[mask], s[mask]
            top = np.lexsort((v, -s))[:k]
            out_q.append(np.full(len(top), q_ids[qi], np.int64))
            out_v.append(v[top])
            out_s.append(s[top])
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), pa.int64()),
            "vec_id": pa.array(np.concatenate(out_v), pa.int64()),
            "score": pa.array(np.concatenate(out_s), pa.float64()),
        })

    scored = index.map_batches(scan, batch_format="pyarrow",
                               zero_copy_batch=True)

    from .joins import hash_partitioned_map

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["query_id", "score", "vec_id"],
                            ascending=[True, False, True], kind="stable")
        df = df.groupby("query_id", sort=False).head(k).copy()
        df["rank"] = (df.groupby("query_id", sort=False).cumcount()
                      + 1).astype(np.int64)
        return df[["query_id", "vec_id", "rank"]]

    return sorted_small(hash_partitioned_map(scored, ["query_id"], topk), ["query_id", "rank"])


# ---------------------------------------------------------------------------
# Hard-negative mining (contrastive-training pair construction)
# ---------------------------------------------------------------------------

def mine_hard_negatives(sf_dir: str, n_queries: int = 8):
    """Contrastive-pair mining for embedding-model training (the
    in-batch/hard-negative recipe of DPR — Karpukhin et al.
    EMNLP'20 §3.2 — and Sentence-BERT fine-tuning): for each query
    vector, the most-similar SAME-label vector is the positive and
    the most-similar DIFFERENT-label vector the hard negative.
    Output (query_id, pos_id, pos_score, neg_id, neg_score), one row
    per query that has BOTH sides (a query whose label no other
    vector shares is dropped — mirrors the oracle's inner join).

    Plan: the n query vectors + labels broadcast once (`ray.put`,
    row-filtered read); each batch computes one matmul against them
    and emits only its LOCAL top-1 per (query, side) — top-1
    distributes over the (score desc, vec_id asc) total order, so
    the shuffle carries ≤ 2·n_queries rows per block regardless of
    corpus size; ONE query_id exchange picks the global winners and
    pivots wide.  Scores round to 4 decimals on both engines (the
    knn_cosine convention) so the numpy-vs-DuckDB float kernel
    difference can't flip a boundary winner."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding", "label"],
                      filters=[("vec_id", "<", n_queries)])
    q_ids = np.asarray(t["vec_id"])
    order = np.argsort(q_ids)
    q_ids = q_ids[order]
    q = np.vstack(t["embedding"].to_numpy(zero_copy_only=False)) \
        .astype(np.float64)[order]
    q_labels = np.asarray(t["label"], dtype=np.int64)[order]
    q_norm = q / np.linalg.norm(q, axis=1, keepdims=True)
    q_ref = ray.put((q_ids, q_norm, q_labels))

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding", "label"])

    def score(batch: pa.Table) -> pa.Table:
        q_ids, q_norm, q_labels = ray.get(q_ref)
        vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        labels = batch.column("label").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        m = np.vstack(batch.column("embedding")
                      .to_numpy(zero_copy_only=False)).astype(np.float64)
        m = m / np.linalg.norm(m, axis=1, keepdims=True)
        sims = np.round(m @ q_norm.T, 4)
        out_q, out_v, out_s, out_p = [], [], [], []
        for j, qid in enumerate(q_ids):
            not_self = vec_ids != qid
            for is_pos in (True, False):
                side = not_self & ((labels == q_labels[j]) == is_pos)
                if not side.any():
                    continue
                v, s = vec_ids[side], sims[side, j]
                top = np.lexsort((v, -s))[0]
                out_q.append(qid)
                out_v.append(v[top])
                out_s.append(s[top])
                out_p.append(is_pos)
        return pa.table({
            "query_id": pa.array(np.asarray(out_q, np.int64), pa.int64()),
            "vec_id": pa.array(np.asarray(out_v, np.int64), pa.int64()),
            "score": pa.array(np.asarray(out_s, np.float64), pa.float64()),
            "is_pos": pa.array(out_p, pa.bool_()),
        })

    scored = ds.map_batches(score, batch_format="pyarrow",
                            zero_copy_batch=True)

    from .joins import hash_partitioned_map

    _schema = pa.schema([("query_id", pa.int64()),
                         ("pos_id", pa.int64()),
                         ("pos_score", pa.float64()),
                         ("neg_id", pa.int64()),
                         ("neg_score", pa.float64())])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["query_id", "score", "vec_id"],
                            ascending=[True, False, True], kind="stable")
        best = df.groupby(["query_id", "is_pos"], sort=False).head(1)
        pos = best[best["is_pos"]].set_index("query_id")
        neg = best[~best["is_pos"]].set_index("query_id")
        both = pos.index.intersection(neg.index)
        return pd.DataFrame({
            "query_id": both.to_numpy(np.int64),
            "pos_id": pos.loc[both, "vec_id"].to_numpy(np.int64),
            "pos_score": pos.loc[both, "score"].to_numpy(np.float64),
            "neg_id": neg.loc[both, "vec_id"].to_numpy(np.int64),
            "neg_score": neg.loc[both, "score"].to_numpy(np.float64),
        })

    out = hash_partitioned_map(scored, ["query_id"], finish)
    return sorted_small(out, ["query_id"], schema=_schema)


HARD_NEGATIVES_SQL = """
WITH q AS (SELECT vec_id AS query_id, embedding AS qe, label AS ql
           FROM embeddings WHERE vec_id < 8),
scored AS (
  SELECT q.query_id, e.vec_id, e.label = q.ql AS is_pos,
         ROUND(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), CAST(q.qe AS DOUBLE[])), 4) AS score
  FROM embeddings e CROSS JOIN q
  WHERE e.vec_id <> q.query_id
),
best AS (
  SELECT query_id, is_pos, vec_id, score,
         ROW_NUMBER() OVER (PARTITION BY query_id, is_pos
                            ORDER BY score DESC, vec_id) AS rn
  FROM scored
)
SELECT p.query_id, p.vec_id AS pos_id, p.score AS pos_score,
       n.vec_id AS neg_id, n.score AS neg_score
FROM best p
JOIN best n ON p.query_id = n.query_id
WHERE p.rn = 1 AND p.is_pos AND n.rn = 1 AND NOT n.is_pos
ORDER BY p.query_id
"""


# ---------------------------------------------------------------------------
# kNN label classification (majority vote over the k nearest)
# ---------------------------------------------------------------------------

def knn_classify(sf_dir: str, n_queries: int = 8, k: int = 5):
    """kNN classification over the embedding column (Fix & Hodges
    1951 / Cover & Hart 1967 — the standard quality-classifier
    baseline for labeling training corpora): each query vector is
    assigned the majority label among its k nearest neighbors by
    cosine (self excluded); vote ties break to the SMALLEST label so
    the decision is a total order.  Output one row per query:
    (query_id, true_label, pred_label, votes).

    Plan is `knn_cosine`'s (queries broadcast once via ``ray.put``
    from a row-filtered read; each batch's matmul prunes to its
    LOCAL top-k per query — top-k distributes over the (score desc,
    vec_id asc) total order — so the shuffle carries ≤ k·n_queries
    rows per block regardless of corpus size); ONE query_id exchange
    picks the global top-k and counts the votes in the same task.
    Scores round to 4 decimals on both engines (the knn_cosine
    convention) so a numpy-vs-DuckDB float difference can't flip a
    boundary neighbor."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding", "label"],
                      filters=[("vec_id", "<", n_queries)])
    q_ids = np.asarray(t["vec_id"])
    order = np.argsort(q_ids)
    q_ids = q_ids[order]
    q = np.vstack(t["embedding"].to_numpy(zero_copy_only=False)) \
        .astype(np.float64)[order]
    q_true = np.asarray(t["label"], dtype=np.int64)[order]
    q_norm = q / np.linalg.norm(q, axis=1, keepdims=True)
    q_ref = ray.put((q_ids, q_norm, q_true))

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding", "label"])

    def score(batch: pa.Table) -> pa.Table:
        q_ids, q_norm, q_true = ray.get(q_ref)
        vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        labels = batch.column("label").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        m = np.vstack(batch.column("embedding")
                      .to_numpy(zero_copy_only=False)).astype(np.float64)
        m = m / np.linalg.norm(m, axis=1, keepdims=True)
        sims = np.round(m @ q_norm.T, 4)
        out_q, out_t, out_v, out_l, out_s = [], [], [], [], []
        for j, qid in enumerate(q_ids):
            keep = vec_ids != qid
            v, l, s = vec_ids[keep], labels[keep], sims[keep, j]
            top = np.lexsort((v, -s))[:k]
            out_q.append(np.full(len(top), qid, np.int64))
            out_t.append(np.full(len(top), q_true[j], np.int64))
            out_v.append(v[top])
            out_l.append(l[top])
            out_s.append(s[top])
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), pa.int64()),
            "true_label": pa.array(np.concatenate(out_t), pa.int64()),
            "vec_id": pa.array(np.concatenate(out_v), pa.int64()),
            "label": pa.array(np.concatenate(out_l), pa.int64()),
            "score": pa.array(np.concatenate(out_s), pa.float64()),
        })

    scored = ds.map_batches(score, batch_format="pyarrow",
                            zero_copy_batch=True)

    from .joins import hash_partitioned_map

    _schema = pa.schema([("query_id", pa.int64()),
                         ("true_label", pa.int64()),
                         ("pred_label", pa.int64()),
                         ("votes", pa.int64())])

    def vote(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["query_id", "score", "vec_id"],
                            ascending=[True, False, True], kind="stable")
        topk = df.groupby("query_id", sort=False).head(k)
        counts = (topk.groupby(["query_id", "true_label", "label"],
                               sort=False).size().reset_index(name="votes")
                  .sort_values(["query_id", "votes", "label"],
                               ascending=[True, False, True],
                               kind="stable"))
        win = counts.groupby("query_id", sort=False).head(1)
        return pd.DataFrame({
            "query_id": win["query_id"].to_numpy(np.int64),
            "true_label": win["true_label"].to_numpy(np.int64),
            "pred_label": win["label"].to_numpy(np.int64),
            "votes": win["votes"].to_numpy(np.int64),
        })

    out = hash_partitioned_map(scored, ["query_id"], vote)
    return sorted_small(out, ["query_id"], schema=_schema)


KNN_CLASSIFY_SQL = """
WITH q AS (SELECT vec_id AS query_id, embedding AS qe,
                  CAST(label AS BIGINT) AS true_label
           FROM embeddings WHERE vec_id < 8),
scored AS (
  SELECT q.query_id, q.true_label, e.vec_id,
         CAST(e.label AS BIGINT) AS label,
         ROUND(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), CAST(q.qe AS DOUBLE[])), 4) AS score
  FROM embeddings e CROSS JOIN q
  WHERE e.vec_id <> q.query_id
),
topk AS (
  SELECT * FROM (
    SELECT query_id, true_label, vec_id, label, score,
           ROW_NUMBER() OVER (PARTITION BY query_id
                              ORDER BY score DESC, vec_id) AS rn
    FROM scored) WHERE rn <= 5
),
votes AS (
  SELECT query_id, true_label, label, COUNT(*) AS votes
  FROM topk GROUP BY 1, 2, 3
)
SELECT query_id, true_label, label AS pred_label, votes
FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY query_id
                                   ORDER BY votes DESC, label) AS rn
      FROM votes)
WHERE rn = 1
ORDER BY query_id
"""

"""Benchmark decontamination: flag training documents that share
word-shingle n-grams with a held-out benchmark/eval set — the standard
train/test-overlap scrub in LLM data pipelines (GPT-3 appendix C's
13-gram filter, The Pile / FineWeb decontamination passes).

No reference counterpart (the reference is a one-doc converter,
`/root/reference/src/parser/analyzer/Parser.php`); this extends the
dedup family (`pipelines/dedup.py`) with the asymmetric variant: a
SMALL trusted set vs a HUGE corpus.

Scale shape (the whole point of the operator):

* the benchmark side is tiny BY CONSTRUCTION — eval suites are
  thousands of docs, not billions — so its distinct-shingle hash set
  is collected once, sorted, and **broadcast via ``ray.put``** (one
  object-store copy per node, zero-copy numpy view in every task),
  never shuffled and never re-shipped per batch;
* the corpus side streams through ONE ``map_batches`` pass: per-batch
  unique-shingle hashing (memoized md5, same oracle-pinned convention
  as minhash), membership via ``np.searchsorted`` against the sorted
  broadcast array, per-doc distinct-hit counts via ``np.bincount``.
  No shuffle at all — the only all-to-all is the final doc_id sort of
  the (small) contaminated subset;
* ``_BENCH_HASH_CAP`` guards the broadcast assumption: a benchmark
  side too big to broadcast automatically falls back to
  ``_decontam_partitioned`` — a hash-partitioned semi-join on the
  shingle hash (one pair shuffle + one small doc-level reduce) that
  never materializes the set on the driver.  Both plans are pinned to
  identical results in ``tests/test_decontam.py``.

Shingle + hash conventions are shared with ``dedup_minhash_lsh``
(k-word shingles, ``md5_number_lower % 2^31-1``) so the DuckDB oracle
is EXACT, not rows-only.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from .joins import sorted_small

from .dedup import _P31, _SHINGLE_HASH_CACHE, _doc_shingles, _hash_unique

# doc_id % _BENCH_MOD == 0 → benchmark member.  A deterministic,
# content-independent split keeps the operator self-contained on the
# sf tables (and SQL-replicable); a real deployment passes its eval
# suite as a separate table feeding the same `_bench_hash_set`.
_BENCH_MOD = 20
# ~400 MB of int64 hashes — far beyond any real eval suite; above
# this the broadcast design is wrong and we say so.
_BENCH_HASH_CAP = 50_000_000


def _doc_distinct_shingle_hashes(texts: "list[str]", k: int = 3):
    """Per-doc DISTINCT shingle hashes for a whole batch, vectorized:
    one unique-string hash pass over the batch (memoized md5 — the
    cache amortizes across dup-heavy corpora, see
    ``dedup._hash_unique``), then per-doc distinctness via one
    ``np.unique`` over packed (doc_idx << 31 | hash) keys.

    Returns ``(doc_idx, hashes)`` flat arrays, doc_idx ascending.
    """
    per_doc = [_doc_shingles(t, k=k) for t in texts]
    counts = np.array([len(p) for p in per_doc], dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    flat = np.empty(total, dtype=object)
    pos = 0
    for p in per_doc:
        flat[pos:pos + len(p)] = p
        pos += len(p)
    uniq, inv = np.unique(flat, return_inverse=True)
    uh = _hash_unique(uniq, _SHINGLE_HASH_CACHE, mod=_P31)
    hashes = uh[inv]
    doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
    packed = np.unique((doc_idx << 31) | hashes)  # hash < 2^31
    return packed >> 31, packed & ((1 << 31) - 1)


def _bench_hash_set(sf_dir: str, k: int = 3) -> np.ndarray:
    """Sorted distinct shingle hashes of the benchmark slice.

    Distributed scan emits per-batch-distinct hashes only (a few KB
    per batch); the final global distinct runs on the driver over the
    concatenation — bounded by the benchmark's vocabulary, which is
    small by construction (cap-guarded)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def batch_hashes(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        sel = ids % _BENCH_MOD == 0
        if not sel.any():
            return pa.table({"h": pa.array([], pa.int64())})
        texts = batch.filter(pa.array(sel)) \
                     .column("text").to_pylist()
        _, hashes = _doc_distinct_shingle_hashes(texts, k=k)
        return pa.table({"h": pa.array(np.unique(hashes), pa.int64())})

    df = ds.map_batches(batch_hashes, batch_format="pyarrow",
                        zero_copy_batch=True).to_pandas()
    out = np.unique(df["h"].to_numpy())
    if len(out) > _BENCH_HASH_CAP:
        return None  # over the broadcast budget → partitioned path
    return out


def _shingle_pairs(sf_dir: str, k: int, bench_side: bool):
    """Stream (h, doc_id) shingle-hash pairs for one side of the
    split; the benchmark side collapses to batch-distinct hashes with
    a ``doc_id = -1`` sentinel (its identity is irrelevant — only
    membership matters)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def emit(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        sel = (ids % _BENCH_MOD == 0) if bench_side \
            else (ids % _BENCH_MOD != 0)
        empty = pa.table({"h": pa.array([], pa.int64()),
                          "doc_id": pa.array([], pa.int64())})
        if not sel.any():
            return empty
        kept = batch.filter(pa.array(sel))
        texts = kept.column("text").to_pylist()
        doc_idx, hashes = _doc_distinct_shingle_hashes(texts, k=k)
        if len(hashes) == 0:
            return empty
        if bench_side:
            uniq = np.unique(hashes)
            return pa.table({
                "h": pa.array(uniq, pa.int64()),
                "doc_id": pa.array(np.full(len(uniq), -1, np.int64),
                                   pa.int64()),
            })
        ids = kept.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "h": pa.array(hashes, pa.int64()),
            "doc_id": pa.array(ids[doc_idx], pa.int64()),
        })

    return ds.map_batches(emit, batch_format="pyarrow",
                          zero_copy_batch=True)


def _decontam_partitioned(sf_dir: str, k: int = 3):
    """Shuffle-join decontamination for benchmark sets too big to
    broadcast: hash-partition BOTH sides' (shingle-hash, doc) pairs on
    the hash, take per-partition membership vectorized, then one small
    second reduce sums each doc's partial hit counts.  Two shuffles —
    the first moves shingle pairs (bounded by corpus token count), the
    second only the contaminated (doc_id, partial) rows."""
    from .joins import groupby_agg_partitioned, hash_partitioned_map

    both = _shingle_pairs(sf_dir, k, bench_side=False).union(
        _shingle_pairs(sf_dir, k, bench_side=True))
    _EMPTY = {"doc_id": np.empty(0, np.int64),
              "n_hits": np.empty(0, np.int64)}

    def member(df):
        is_bench = df["doc_id"].to_numpy() < 0
        bench = np.unique(df["h"].to_numpy()[is_bench])
        t_h = df["h"].to_numpy()[~is_bench]
        if len(bench) == 0 or len(t_h) == 0:
            return pd.DataFrame(_EMPTY)
        pos = np.searchsorted(bench, t_h)
        pos[pos == len(bench)] = 0  # sentinel; equality check below
        hit = bench[pos] == t_h
        if not hit.any():
            return pd.DataFrame(_EMPTY)
        counts = (pd.DataFrame({"doc_id":
                                df["doc_id"].to_numpy()[~is_bench][hit]})
                  .groupby("doc_id", as_index=False, sort=False)
                  .size().rename(columns={"size": "n_hits"}))
        counts["n_hits"] = counts["n_hits"].astype(np.int64)
        return counts

    partial = hash_partitioned_map(both, ["h"], member)
    return sorted_small(groupby_agg_partitioned(
        partial, ["doc_id"], {"n_hits": "sum"}), "doc_id")


def decontaminate_ngrams(sf_dir: str, k: int = 3):
    """Contaminated training docs: ``(doc_id, n_hits)`` where
    ``n_hits`` is the count of DISTINCT k-word shingles the doc shares
    with the benchmark slice (doc_id % 20 == 0), sorted by doc_id.
    Downstream drops these rows (or anything above an n_hits budget)
    before training-set export.

    Two physical plans, same result (pinned by
    ``tests/test_decontam.py``): benchmark shingle set within the
    broadcast budget → one ``ray.put`` + a shuffle-free streaming
    membership pass; above it → the
    hash-partitioned semi-join (``_decontam_partitioned``), which
    never materializes the set anywhere."""
    bench = _bench_hash_set(sf_dir, k=k)
    if bench is None:
        return _decontam_partitioned(sf_dir, k=k)
    bench_ref = ray.put(bench)

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        import ray_script_extract as _rse
        _rse._tune_malloc()  # by-value-pickled closure: see package doc
        bench = ray.get(bench_ref)  # zero-copy object-store view
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        sel = ids % _BENCH_MOD != 0
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "n_hits": pa.array([], pa.int64())})
        if not sel.any():
            return empty
        kept = batch.filter(pa.array(sel))
        ids = kept.column("doc_id").to_numpy(zero_copy_only=False)
        texts = kept.column("text").to_pylist()
        doc_idx, hashes = _doc_distinct_shingle_hashes(texts, k=k)
        if len(hashes) == 0 or len(bench) == 0:
            return empty
        pos = np.searchsorted(bench, hashes)
        pos[pos == len(bench)] = 0  # sentinel; verified below
        hit = bench[pos] == hashes
        n_hits = np.bincount(doc_idx[hit], minlength=len(texts))
        contaminated = np.flatnonzero(n_hits)
        return pa.table({
            "doc_id": pa.array(ids[contaminated], pa.int64()),
            "n_hits": pa.array(n_hits[contaminated], pa.int64()),
        })

    return sorted_small(ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True), "doc_id")


DECONTAM_SQL = """
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS ws FROM documents
),
sh AS (
  SELECT doc_id,
         array_to_string(list_slice(ws, CAST(i AS INT), CAST(i AS INT) + 2), ' ') AS s
  FROM (SELECT doc_id, ws,
               unnest(range(1, CASE WHEN len(ws) >= 3 THEN len(ws) - 1
                                    WHEN len(ws) >= 1 THEN 2
                                    ELSE 1 END)) AS i
        FROM w)
),
h AS (
  SELECT doc_id, CAST(md5_number_lower(s) % 2147483647 AS BIGINT) AS h FROM sh
),
bench AS (SELECT DISTINCT h FROM h WHERE doc_id % 20 = 0),
train AS (SELECT DISTINCT doc_id, h FROM h WHERE doc_id % 20 <> 0)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_hits
FROM train JOIN bench USING (h)
GROUP BY doc_id ORDER BY doc_id
"""


# The bloom variant is ALSO exactly SQL-checkable: the filter is
# deterministic (md5 shingle hash, then Kirsch–Mitzenmacher double
# hashing in pure uint64 arithmetic), so DuckDB can rebuild the exact
# bitmap membership with HUGEINT wraparound math — (h*C) % 2^64 —
# and flag exactly the docs the distributed probe flags, INCLUDING
# any false positives.  C1/C2/shift/m values must mirror
# ``_bloom_positions`` verbatim.
DECONTAM_BLOOM_SQL = """
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS ws FROM documents
),
sh AS (
  SELECT doc_id,
         array_to_string(list_slice(ws, CAST(i AS INT), CAST(i AS INT) + 2), ' ') AS s
  FROM (SELECT doc_id, ws,
               unnest(range(1, CASE WHEN len(ws) >= 3 THEN len(ws) - 1
                                    WHEN len(ws) >= 1 THEN 2
                                    ELSE 1 END)) AS i
        FROM w)
),
h AS (
  SELECT doc_id, CAST(md5_number_lower(s) % 2147483647 AS BIGINT) AS h FROM sh
),
hh AS (
  SELECT DISTINCT h,
    CAST(((CAST(h AS HUGEINT) * 11400714819323198485)
          % 18446744073709551616) // 2048 AS BIGINT) AS h1,
    CAST(((CAST(h AS HUGEINT) * 14029467366897019727)
          % 18446744073709551616) // 128 AS BIGINT) AS h2r
  FROM h
),
pos AS (
  SELECT h, i, (h1 + i * (h2r - (h2r % 2) + 1)) % 8388608 AS p
  FROM hh, (SELECT unnest(range(0, 4)) AS i)
),
bench_bits AS (
  SELECT DISTINCT p FROM pos
  WHERE h IN (SELECT DISTINCT h FROM h WHERE doc_id % 20 = 0)
),
train AS (SELECT DISTINCT doc_id, h FROM h WHERE doc_id % 20 <> 0),
hit AS (
  SELECT t.doc_id, t.h
  FROM train t JOIN pos USING (h)
  GROUP BY t.doc_id, t.h
  HAVING COUNT(*) = SUM(CASE WHEN p IN (SELECT p FROM bench_bits)
                             THEN 1 ELSE 0 END)
)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_flagged
FROM hit GROUP BY doc_id ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Bloom-filter variant: bounded-memory membership
# ---------------------------------------------------------------------------

# 1 MiB bitmap (2^23 bits) — CONSTANT regardless of benchmark size.
_BLOOM_BITS = 1 << 23
_BLOOM_HASHES = 4
# driver OR-fold fan-in: build partials tree-reduce to this many
# groups before the constant-size driver fold
_BLOOM_FANIN = 64


def _bloom_positions(h: np.ndarray, m_bits: int,
                     n_hash: int) -> np.ndarray:
    """(n_hash, len(h)) bit positions via double hashing of the 31-bit
    shingle hash (Kirsch–Mitzenmacher: h1 + i*h2 needs only two
    independent mixes for the classic FP bound).  Pure uint64
    arithmetic — identical on every worker, so the filter is
    deterministic."""
    h = h.astype(np.uint64)
    h1 = (h * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(11)
    h2 = ((h * np.uint64(0xC2B2AE3D27D4EB4F)) >> np.uint64(7)) \
        | np.uint64(1)
    out = np.empty((n_hash, len(h)), dtype=np.uint64)
    for i in range(n_hash):
        out[i] = (h1 + np.uint64(i) * h2) % np.uint64(m_bits)
    return out


def decontaminate_bloom(sf_dir: str, k: int = 3,
                        m_bits: int = _BLOOM_BITS,
                        n_hash: int = _BLOOM_HASHES):
    """Bloom-filter decontamination: ``(doc_id, n_flagged)`` for
    training docs with ≥1 PROBABLE benchmark shingle.

    The bounded-memory middle path of the decontamination family:
    ``decontaminate_ngrams``'s broadcast plan ships the benchmark's
    FULL distinct-hash set (grows with the benchmark) and its fallback
    pays a full pair shuffle; this variant ships a CONSTANT-size
    bitmap (default 1 MiB) no matter how large the benchmark is, at
    the cost of one-sided error.  Guarantee: NO false negatives —
    every exactly-contaminated doc is flagged with
    ``n_flagged ≥ n_hits`` (bits are only ever set, never cleared);
    false-positive rate follows (1-e^{-kn/m})^k and is pinned by
    ``tests/test_decontam.py`` (superset property at a deliberately
    tiny m, equality to exact at the default m on testdata).

    Build: benchmark docs stream through one map pass emitting
    per-block bitmap partials; a ``_BLOOM_FANIN``-way keyed OR-reduce
    collapses them so the driver folds ≤ 64 constant-size rows (never
    one row per block).  Probe: the corpus streams through one
    shuffle-free membership pass against the ray.put bitmap."""
    n_words = m_bits // 64

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def bloom_partial(batch: pa.Table) -> pa.Table:
        import ray_script_extract as _rse
        _rse._tune_malloc()
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        sel = ids % _BENCH_MOD == 0
        empty = pa.table({"g": pa.array([], pa.int64()),
                          "bloom": pa.array([], pa.binary())})
        if not sel.any():
            return empty
        texts = batch.filter(pa.array(sel)).column("text").to_pylist()
        _, hashes = _doc_distinct_shingle_hashes(texts, k=k)
        if len(hashes) == 0:
            return empty
        pos = _bloom_positions(np.unique(hashes), m_bits, n_hash).ravel()
        words = np.zeros(n_words, np.uint64)
        np.bitwise_or.at(words, (pos >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (pos & np.uint64(63)))
        return pa.table({
            "g": pa.array([int(ids[sel][0]) % _BLOOM_FANIN], pa.int64()),
            "bloom": pa.array([words.tobytes()], pa.binary()),
        })

    def or_group(df: "pd.DataFrame") -> "pd.DataFrame":
        import ray_script_extract as _rse
        _rse._tune_malloc()
        acc = np.zeros(n_words, np.uint64)
        for buf in df["bloom"]:
            acc |= np.frombuffer(buf, np.uint64)
        return pd.DataFrame({"g": [int(df["g"].iloc[0])],
                             "bloom": [acc.tobytes()]})

    from .joins import hash_partitioned_map

    partials = hash_partitioned_map(
        ds.map_batches(bloom_partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["g"], or_group, num_partitions=_BLOOM_FANIN).to_pandas()
    words = np.zeros(n_words, np.uint64)
    for buf in partials["bloom"]:
        words |= np.frombuffer(buf, np.uint64)
    bloom_ref = ray.put(words)

    def probe(batch: pa.Table) -> pa.Table:
        import ray_script_extract as _rse
        _rse._tune_malloc()
        bloom = ray.get(bloom_ref)  # zero-copy object-store view
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        sel = ids % _BENCH_MOD != 0
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "n_flagged": pa.array([], pa.int64())})
        if not sel.any():
            return empty
        kept = batch.filter(pa.array(sel))
        ids = kept.column("doc_id").to_numpy(zero_copy_only=False)
        texts = kept.column("text").to_pylist()
        doc_idx, hashes = _doc_distinct_shingle_hashes(texts, k=k)
        if len(hashes) == 0:
            return empty
        pos = _bloom_positions(hashes, m_bits, n_hash)
        hit = np.ones(len(hashes), dtype=bool)
        for i in range(n_hash):
            w = bloom[(pos[i] >> np.uint64(6)).astype(np.int64)]
            hit &= (w >> (pos[i] & np.uint64(63))) & np.uint64(1) != 0
        if not hit.any():
            return empty
        n = np.bincount(doc_idx[hit], minlength=len(texts)) \
            .astype(np.int64)
        nz = n > 0
        return pa.table({
            "doc_id": pa.array(ids[nz], pa.int64()),
            "n_flagged": pa.array(n[nz], pa.int64()),
        })

    return sorted_small(ds.map_batches(probe, batch_format="pyarrow",
                          zero_copy_batch=True), "doc_id")


# ---------------------------------------------------------------------------
# Embedding-space (semantic) decontamination
# ---------------------------------------------------------------------------

def decontaminate_embeddings(sf_dir: str, n_eval: int = 8,
                             threshold: float = 0.30):
    """Semantic decontamination: flag corpus vectors whose cosine to
    ANY eval-set vector reaches ``threshold`` — the embedding-space
    complement of the n-gram scrub (paraphrased eval leakage that
    shares no 13-gram, cf. the contamination audits in GPT-4 /
    Llama-2 reports and SemDeDup's cross-split variant).

    The eval side is tiny by construction (vec_id < n_eval here; a
    real deployment feeds its eval-suite embeddings), so its
    normalized matrix is **broadcast once via ``ray.put``** and the
    corpus streams through ONE shuffle-free ``map_batches`` matmul
    pass — per batch O(B·E·d), no all-to-all at any corpus size; the
    only exchange is the final bounded doc-order sort.  Output one row
    per non-eval vector: (vec_id, nearest_eval_id, max_sim,
    contaminated 0/1) — a labeling pass, like split_train_val_test,
    so downstream filters stay streaming.

    Scores use the knn_cosine convention (round(cos, 4) on both
    engines) so a numpy-vs-DuckDB float difference can't flip the
    threshold compare; ties on max_sim break to the SMALLEST eval id
    (argmax picks the first maximum of the eval-id-ascending columns).
    The oracle casts the lists to DOUBLE[] BEFORE
    list_cosine_similarity: DuckDB evaluates it in the list's own
    type, and float32 cosines differ from numpy's float64 by ~1e-8 —
    enough to straddle a 1e-4 rounding boundary (observed at sf0.01:
    0.14394999 vs 0.14395000).  With the cast both engines agree to
    1 ulp, and every embedding-family oracle now shares it.

    No reference counterpart (single-document converter); completes
    the decontamination family: n-gram exact / bloom bounded-memory /
    embedding semantic."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "<", n_eval)])
    e_ids = np.asarray(t["vec_id"])
    order = np.argsort(e_ids)
    e_ids = e_ids[order]
    e = np.vstack(t["embedding"].to_numpy(zero_copy_only=False)) \
        .astype(np.float64)[order]
    e_norm = e / np.linalg.norm(e, axis=1, keepdims=True)
    eval_ref = ray.put((e_ids, e_norm))

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])

    def flag(batch: pa.Table) -> pa.Table:
        e_ids, e_norm = ray.get(eval_ref)
        vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        sel = vec_ids >= n_eval
        if not sel.any():
            return pa.table({
                "vec_id": pa.array([], pa.int64()),
                "nearest_eval_id": pa.array([], pa.int64()),
                "max_sim": pa.array([], pa.float64()),
                "contaminated": pa.array([], pa.int64()),
            })
        kept = batch.filter(pa.array(sel))
        vec_ids = kept.column("vec_id").to_numpy(zero_copy_only=False)
        m = np.vstack(kept.column("embedding")
                      .to_numpy(zero_copy_only=False)).astype(np.float64)
        m = m / np.linalg.norm(m, axis=1, keepdims=True)
        sims = np.round(m @ e_norm.T, 4)
        best = sims.argmax(axis=1)          # first max → smallest eval id
        mx = sims[np.arange(len(sims)), best]
        return pa.table({
            "vec_id": pa.array(vec_ids.astype(np.int64), pa.int64()),
            "nearest_eval_id": pa.array(e_ids[best].astype(np.int64),
                                        pa.int64()),
            "max_sim": pa.array(mx, pa.float64()),
            "contaminated": pa.array((mx >= threshold).astype(np.int64),
                                     pa.int64()),
        })

    return sorted_small(ds.map_batches(flag, batch_format="pyarrow",
                                       zero_copy_batch=True), "vec_id")


DECONTAM_EMB_SQL = """
WITH q AS (SELECT vec_id AS eval_id, embedding AS qe FROM embeddings
           WHERE vec_id < 8),
scored AS (
  SELECT e.vec_id, q.eval_id,
         ROUND(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                      CAST(q.qe AS DOUBLE[])), 4) AS sim
  FROM embeddings e CROSS JOIN q
  WHERE e.vec_id >= 8
),
best AS (
  SELECT vec_id, eval_id, sim,
         ROW_NUMBER() OVER (PARTITION BY vec_id
                            ORDER BY sim DESC, eval_id) AS rn
  FROM scored
)
SELECT vec_id, eval_id AS nearest_eval_id, sim AS max_sim,
       CAST(sim >= 0.30 AS BIGINT) AS contaminated
FROM best WHERE rn = 1 ORDER BY vec_id
"""


# ---------------------------------------------------------------------------
# Source-overlap matrix — the inter-source duplication report a corpus
# card publishes (e.g. the CommonCrawl dump-overlap matrices in the
# RefinedWeb/FineWeb analyses): pairwise shingle Jaccard between
# sources, sharing decontam's k=3 word-shingle + md5-mod-2^31 hash
# convention so the SQL twin reuses the same CTE core.
# ---------------------------------------------------------------------------

_OVERLAP_SCALE = 1_000_000


def source_overlap_matrix(sf_dir: str, k: int = 3):
    """Pairwise source overlap: ``(source_a, source_b, n_shared,
    jaccard_ppm)`` for every unordered source pair, zero-intersection
    pairs included.

    Plan: per batch emit batch-distinct (hash, source) rows — payload
    is two small columns regardless of text size — then ONE
    hash-keyed exchange makes each shingle's source set co-resident,
    so per-partition self-merge pair counts and per-source distinct
    sizes are GLOBAL partials that sum exactly (a shingle lives in
    exactly one partition).  The final matrix is at most |sources|²
    rows — collected driver-side, the bounded-decision-table
    discipline.  Shingle text never moves; only int64 hashes shuffle."""
    from .joins import hash_partitioned_map

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "text"])

    def emit(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        srcs = np.asarray(batch.column("source").to_pylist(), object)
        doc_idx, hashes = _doc_distinct_shingle_hashes(texts, k=k)
        if len(hashes) == 0:
            return pa.table({"h": pa.array([], pa.int64()),
                             "source": pa.array([], pa.string())})
        df = pd.DataFrame({"h": hashes, "source": srcs[doc_idx]}) \
            .drop_duplicates()
        return pa.table({"h": pa.array(df["h"].to_numpy(np.int64)),
                         "source": pa.array(df["source"], pa.string())})

    pairs_src = docs.map_batches(emit, batch_format="pyarrow",
                                 zero_copy_batch=True)

    def partials(part: pd.DataFrame) -> pd.DataFrame:
        part = part.drop_duplicates()          # global dedupe: h-keyed
        sizes = part.groupby("source", sort=False).size()
        m = part.merge(part, on="h")
        m = m[m["source_x"] < m["source_y"]]
        inter = m.groupby(["source_x", "source_y"], sort=False).size()
        rows = [(a, a, int(n)) for a, n in sizes.items()] + \
               [(a, b, int(n)) for (a, b), n in inter.items()]
        return pd.DataFrame(rows, columns=["source_a", "source_b", "n"]) \
            .astype({"n": np.int64})

    part_tbl = hash_partitioned_map(pairs_src, ["h"], partials)

    from .joins import groupby_agg_partitioned

    agg = groupby_agg_partitioned(part_tbl, ["source_a", "source_b"],
                                  {"n": "sum"})
    # collect refs ONCE — a count() probe on the lazy Dataset would
    # execute the whole exchange a second time
    tabs = [t for t in ray.get(agg.to_arrow_refs()) if t.num_rows]
    small = pa.concat_tables(tabs).to_pandas() if tabs else \
        pd.DataFrame(columns=["source_a", "source_b", "n"])

    sizes = {r.source_a: int(r.n) for r in small.itertuples()
             if r.source_a == r.source_b}
    inter = {(r.source_a, r.source_b): int(r.n) for r in small.itertuples()
             if r.source_a != r.source_b}
    out = []
    for a in sorted(sizes):
        for b in sorted(sizes):
            if a >= b:
                continue
            i = inter.get((a, b), 0)
            union = max(sizes[a] + sizes[b] - i, 1)
            out.append((a, b, i, _OVERLAP_SCALE * i // union))
    res = pd.DataFrame(out, columns=["source_a", "source_b", "n_shared",
                                     "jaccard_ppm"]) \
        .astype({"n_shared": np.int64, "jaccard_ppm": np.int64})
    return res


SOURCE_OVERLAP_SQL = """
WITH w AS (
  SELECT doc_id, source,
         regexp_extract_all(lower(text), '\\S+') AS ws FROM documents
),
sh AS (
  SELECT source,
         array_to_string(list_slice(ws, CAST(i AS INT), CAST(i AS INT) + 2), ' ') AS s
  FROM (SELECT source, ws,
               unnest(range(1, CASE WHEN len(ws) >= 3 THEN len(ws) - 1
                                    WHEN len(ws) >= 1 THEN 2
                                    ELSE 1 END)) AS i
        FROM w)
),
hs AS (
  SELECT DISTINCT source,
         CAST(md5_number_lower(s) % 2147483647 AS BIGINT) AS h FROM sh
),
sizes AS (SELECT source, COUNT(*) AS n FROM hs GROUP BY source),
inter AS (
  SELECT a.source AS sa, b.source AS sb, COUNT(*) AS n
  FROM hs a JOIN hs b ON a.h = b.h AND a.source < b.source
  GROUP BY 1, 2
)
SELECT s1.source AS source_a, s2.source AS source_b,
       CAST(COALESCE(i.n, 0) AS BIGINT) AS n_shared,
       CAST(1000000 * COALESCE(i.n, 0)
            // GREATEST(s1.n + s2.n - COALESCE(i.n, 0), 1)
            AS BIGINT) AS jaccard_ppm
FROM sizes s1
JOIN sizes s2 ON s1.source < s2.source
LEFT JOIN inter i ON i.sa = s1.source AND i.sb = s2.source
ORDER BY source_a, source_b
"""


# ---------------------------------------------------------------------------
# Eval-leakage report — decontamination in the REVERSE direction: for
# each benchmark document, how much of its content already appears in
# the training corpus (the "is my eval compromised" table an eval-set
# owner publishes; GPT-3 App. C reports exactly this per benchmark).
# ---------------------------------------------------------------------------


def eval_leakage_report(sf_dir: str, k: int = 3):
    """Per-benchmark-doc ``(doc_id, n_shingles, n_leaked, leaked_ppm)``
    — distinct k-shingles, how many also occur anywhere in the train
    split, and the leaked fraction in ppm.

    The train side never ships documents: it collapses to
    batch-distinct shingle hashes map-side (sentinel ``doc_id = -1``,
    the ``_shingle_pairs`` discipline), so ONE hash-keyed exchange
    co-locates each shingle with the benchmark docs containing it;
    per-partition probes emit bounded (doc_id, partial) rows and one
    doc_id exchange finishes the sums.  No (bench doc × train doc)
    pair ever materializes — hot shingles cost one membership bit,
    not a pair fanout (contrast winnow_plagiarism_pairs, which needs
    the pairs and caps boilerplate instead)."""
    from .joins import groupby_agg_partitioned, hash_partitioned_map

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def emit(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        out_h, out_d = [], []
        for bench_side in (True, False):
            sel = (ids % _BENCH_MOD == 0) if bench_side \
                else (ids % _BENCH_MOD != 0)
            if not sel.any():
                continue
            kept = batch.filter(pa.array(sel))
            texts = kept.column("text").to_pylist()
            didx, hashes = _doc_distinct_shingle_hashes(texts, k=k)
            if len(hashes) == 0:
                continue
            if bench_side:
                kids = kept.column("doc_id").to_numpy(
                    zero_copy_only=False)
                out_h.append(hashes)
                out_d.append(kids[didx])
            else:
                uniq = np.unique(hashes)
                out_h.append(uniq)
                out_d.append(np.full(len(uniq), -1, np.int64))
        if not out_h:
            return pa.table({"h": pa.array([], pa.int64()),
                             "doc_id": pa.array([], pa.int64())})
        return pa.table({
            "h": pa.array(np.concatenate(out_h), pa.int64()),
            "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
        })

    pairs = ds.map_batches(emit, batch_format="pyarrow",
                           zero_copy_batch=True)

    def probe(part: pd.DataFrame) -> pd.DataFrame:
        train = np.unique(part.loc[part["doc_id"] == -1, "h"].to_numpy())
        bench = part[part["doc_id"] != -1]
        if not len(bench):
            return pd.DataFrame({"doc_id": pd.Series(dtype=np.int64),
                                 "n_shingles": pd.Series(dtype=np.int64),
                                 "n_leaked": pd.Series(dtype=np.int64)})
        h = bench["h"].to_numpy()
        leaked = np.zeros(len(h), np.int64)
        if len(train):
            pos = np.minimum(np.searchsorted(train, h), len(train) - 1)
            leaked = (train[pos] == h).astype(np.int64)
        g = bench.assign(leaked=leaked).groupby("doc_id", sort=False) \
            .agg(n_shingles=("h", "size"), n_leaked=("leaked", "sum"))
        return g.reset_index().astype(np.int64)

    partials = hash_partitioned_map(pairs, ["h"], probe)
    summed = groupby_agg_partitioned(partials, ["doc_id"],
                                     {"n_shingles": "sum",
                                      "n_leaked": "sum"})

    def finish(batch: pa.Table) -> pa.Table:
        ns = batch.column("n_shingles").to_numpy(zero_copy_only=False)
        nl = batch.column("n_leaked").to_numpy(zero_copy_only=False)
        ppm = 1_000_000 * nl // np.maximum(ns, 1)
        return batch.append_column("leaked_ppm",
                                   pa.array(ppm, pa.int64()))

    return sorted_small(summed.map_batches(finish, batch_format="pyarrow",
                                           zero_copy_batch=True),
                        "doc_id")


EVAL_LEAKAGE_SQL = """
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS ws FROM documents
),
sh AS (
  SELECT doc_id,
         array_to_string(list_slice(ws, CAST(i AS INT), CAST(i AS INT) + 2), ' ') AS s
  FROM (SELECT doc_id, ws,
               unnest(range(1, CASE WHEN len(ws) >= 3 THEN len(ws) - 1
                                    WHEN len(ws) >= 1 THEN 2
                                    ELSE 1 END)) AS i
        FROM w)
),
h AS (
  SELECT doc_id, CAST(md5_number_lower(s) % 2147483647 AS BIGINT) AS h FROM sh
),
bench AS (SELECT DISTINCT doc_id, h FROM h WHERE doc_id % 20 = 0),
train_h AS (SELECT DISTINCT h FROM h WHERE doc_id % 20 <> 0)
SELECT b.doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_shingles,
       CAST(SUM(CASE WHEN t.h IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT)
         AS n_leaked,
       CAST(1000000 * SUM(CASE WHEN t.h IS NOT NULL THEN 1 ELSE 0 END)
            // GREATEST(COUNT(*), 1) AS BIGINT) AS leaked_ppm
FROM bench b LEFT JOIN train_h t USING (h)
GROUP BY b.doc_id ORDER BY doc_id
"""


def contamination_by_source(sf_dir: str, k: int = 3):
    """Per-source contamination rollup: ``(source, n_train_docs,
    n_contaminated, contaminated_ppm)`` — which ingestion sources leak
    benchmark content, the triage view on top of per-doc
    ``decontaminate_ngrams``.

    Shuffle-light: the benchmark shingle set broadcasts once (same
    budget/fallback semantics as decontaminate_ngrams — above budget
    run that pipeline's partitioned twin and roll up), each batch
    emits ≤ |sources| partial rows, and one source-keyed exchange
    finishes the counts."""
    from .joins import groupby_agg_partitioned, sorted_small

    bench = _bench_hash_set(sf_dir, k=k)
    if bench is None:
        raise ValueError(
            "benchmark shingle set exceeds the broadcast budget; run "
            "decontaminate_ngrams, which takes its partitioned "
            "semi-join past that budget by itself, and roll up by "
            "source instead.")
    bench_ref = ray.put(bench)

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "source"])

    def partial(batch: pa.Table) -> pa.Table:
        import ray_script_extract as _rse
        _rse._tune_malloc()
        bench = ray.get(bench_ref)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        sel = ids % _BENCH_MOD != 0
        empty = pa.table({"source": pa.array([], pa.string()),
                          "n_train_docs": pa.array([], pa.int64()),
                          "n_contaminated": pa.array([], pa.int64())})
        if not sel.any():
            return empty
        kept = batch.filter(pa.array(sel))
        srcs = np.asarray(kept.column("source").to_pylist(), object)
        texts = kept.column("text").to_pylist()
        contaminated = np.zeros(len(texts), np.int64)
        didx, hashes = _doc_distinct_shingle_hashes(texts, k=k)
        if len(hashes) and len(bench):
            pos = np.minimum(np.searchsorted(bench, hashes),
                             len(bench) - 1)
            hit = bench[pos] == hashes
            contaminated[np.unique(didx[hit])] = 1
        import pandas as pd
        g = pd.DataFrame({"source": srcs, "c": contaminated}) \
            .groupby("source", sort=False) \
            .agg(n_train_docs=("c", "size"), n_contaminated=("c", "sum"))
        g = g.reset_index()
        return pa.table({
            "source": pa.array(g["source"], pa.string()),
            "n_train_docs": pa.array(
                g["n_train_docs"].to_numpy(np.int64), pa.int64()),
            "n_contaminated": pa.array(
                g["n_contaminated"].to_numpy(np.int64), pa.int64()),
        })

    summed = groupby_agg_partitioned(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["source"], {"n_train_docs": "sum", "n_contaminated": "sum"})

    def finish(batch: pa.Table) -> pa.Table:
        nt = batch.column("n_train_docs").to_numpy(zero_copy_only=False)
        nc = batch.column("n_contaminated").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "contaminated_ppm",
            pa.array(1_000_000 * nc // np.maximum(nt, 1), pa.int64()))

    return sorted_small(summed.map_batches(finish, batch_format="pyarrow",
                                           zero_copy_batch=True),
                        "source")


CONTAM_BY_SOURCE_SQL = """
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS ws FROM documents
),
sh AS (
  SELECT doc_id,
         array_to_string(list_slice(ws, CAST(i AS INT), CAST(i AS INT) + 2), ' ') AS s
  FROM (SELECT doc_id, ws,
               unnest(range(1, CASE WHEN len(ws) >= 3 THEN len(ws) - 1
                                    WHEN len(ws) >= 1 THEN 2
                                    ELSE 1 END)) AS i
        FROM w)
),
h AS (
  SELECT doc_id, CAST(md5_number_lower(s) % 2147483647 AS BIGINT) AS h FROM sh
),
bench AS (SELECT DISTINCT h FROM h WHERE doc_id % 20 = 0),
con AS (
  SELECT DISTINCT t.doc_id
  FROM (SELECT DISTINCT doc_id, h FROM h WHERE doc_id % 20 <> 0) t
  JOIN bench USING (h)
)
SELECT d.source,
       CAST(COUNT(*) AS BIGINT) AS n_train_docs,
       CAST(SUM(CASE WHEN con.doc_id IS NOT NULL THEN 1 ELSE 0 END)
            AS BIGINT) AS n_contaminated,
       CAST(1000000 * SUM(CASE WHEN con.doc_id IS NOT NULL THEN 1 ELSE 0 END)
            // GREATEST(COUNT(*), 1) AS BIGINT) AS contaminated_ppm
FROM documents d LEFT JOIN con ON con.doc_id = d.doc_id
WHERE d.doc_id % 20 <> 0
GROUP BY d.source ORDER BY d.source
"""

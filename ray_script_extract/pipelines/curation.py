"""Corpus-curation operators: deterministic stratified sampling,
quality-ranked exact dedup, and the composite curation rollup a
training-data pipeline chains them into.

These are engine-level additions (no reference counterpart — the
reference is a one-doc-at-a-time converter, `Parser.php`); they extend
the dedup/text-analysis family with the selection steps an LLM-data
pipeline needs between "score every doc" and "write the training set":

* ``sample_stratified`` — keep a fixed number of docs per stratum
  (language, source, …) chosen by a deterministic content-independent
  hash rank, so the sample is reproducible across runs/cluster sizes
  and exactly SQL-checkable (``ROW_NUMBER() OVER (PARTITION BY …
  ORDER BY md5_number_lower(…))``).
* ``dedup_exact_keep_best`` — exact dedup that keeps the BEST copy of
  each duplicate group (longest, tie → smallest doc_id) instead of the
  arbitrary first; emits the group size so downstream weighting can
  up-weight formerly-duplicated docs.
* ``curate_corpus`` — quality filter (reusing the oracle-pinned
  ``doc_quality`` metrics) → keep-best exact dedup → per-language
  rollup, all in one streamed pass + one hash shuffle.

Scale shape: every operator ships only (key, doc_id, small ints)
through the shuffle — never text.  The per-stratum / per-group reduces
ride ``hash_partitioned_map`` (ONE shuffle on a partition id, all keys
of a partition reduced vectorized), so group cardinality can be
arbitrarily high (see joins.py on Ray 2.49's per-group dispatch cost).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .joins import sorted_small

from .joins import hash_partitioned_map
from .text_analysis import _STOP_SQL_LIST, quality_metrics

_DEFAULT_N_PER_KEY = 40


def _rank_hash(doc_ids: np.ndarray) -> np.ndarray:
    """Deterministic uint64 rank per doc_id ≡ DuckDB
    ``md5_number_lower(CAST(doc_id AS VARCHAR))`` (low 8 md5 bytes,
    little-endian — same identity dedup.py pins for minhash).  uint64
    ascending order == DuckDB UBIGINT ascending order."""
    return np.fromiter(
        (int.from_bytes(hashlib.md5(str(int(d)).encode()).digest()[8:],
                        "little") for d in doc_ids),
        dtype=np.uint64, count=len(doc_ids))


def sample_stratified(sf_dir: str, key: str = "lang",
                      n_per_key: int = _DEFAULT_N_PER_KEY):
    """At most ``n_per_key`` documents per stratum, ranked by a
    deterministic hash of doc_id (content-independent, reproducible,
    no RNG).  One shuffle on the stratum key; per-partition the head
    is a single vectorized sort + groupby.head over ALL strata of the
    partition."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", key])

    def tag(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        out = pa.table({
            key: batch.column(key),
            "doc_id": batch.column("doc_id"),
            "__rk": pa.array(_rank_hash(ids), pa.uint64()),
        })
        # batch-local pre-prune: the global per-stratum head is a
        # top-n by (__rk, doc_id), and top-n distributes over blocks —
        # so only ≤ n_per_key rows per stratum leave each task and the
        # shuffle carries O(blocks · strata · n), not the full table
        df = out.to_pandas().sort_values([key, "__rk", "doc_id"],
                                         kind="stable")
        head = df.groupby(key, sort=False).head(n_per_key)
        return pa.Table.from_pandas(head, preserve_index=False) \
            .cast(out.schema)

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, "__rk", "doc_id"], kind="stable")
        return df.groupby(key, sort=False).head(n_per_key)[[key, "doc_id"]]

    tagged = ds.map_batches(tag, batch_format="pyarrow",
                            zero_copy_batch=True)
    return sorted_small(hash_partitioned_map(tagged, [key], per_partition),
                        [key, "doc_id"])


SAMPLE_STRATIFIED_SQL = f"""
SELECT lang, doc_id FROM (
  SELECT lang, doc_id,
         ROW_NUMBER() OVER (
           PARTITION BY lang
           ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)), doc_id
         ) AS rk
  FROM documents) t
WHERE rk <= {_DEFAULT_N_PER_KEY}
ORDER BY lang, doc_id
"""


_TOKEN_BUDGET = 2_000


def sample_token_budget(sf_dir: str, budget: int = _TOKEN_BUDGET):
    """Training-mix construction: per language, take documents in
    deterministic hash order until the TOKEN budget is reached — a
    doc is kept iff the token sum of all docs BEFORE it (by (md5
    rank, doc_id) within its language) is under ``budget``, so the
    crossing doc is included and the result is a reproducible,
    content-independent prefix sample of ~budget tokens per lang.

    Plan: per-batch (lang, doc_id, n_tok, rank) projection with a
    batch-local prune — a doc's in-batch prior cumsum is a LOWER
    bound on its global prior, so rows already ≥ budget inside one
    block can never qualify and are dropped before the shuffle.  Then
    one lang exchange + vectorized per-partition sort/cumsum.  The
    greedy prefix needs a global order within each language, so the
    reduce width is |langs| — but the shuffle moves 3 ints + the rank
    per doc (never text), an O(N) metadata exchange."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "lang", "text"])

    def project(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        n_tok = pc.cast(pc.count_substring_regex(
            batch.column("text"), r"\S+"), pa.int64()).to_numpy()
        df = pd.DataFrame({
            "lang": batch.column("lang").to_pandas(),
            "doc_id": ids,
            "n_tok": n_tok,
            "__rk": _rank_hash(ids),
        }).sort_values(["lang", "__rk", "doc_id"], kind="stable")
        prior = (df.groupby("lang", sort=False)["n_tok"].cumsum()
                 - df["n_tok"])
        df = df[prior < budget]
        return pa.Table.from_pandas(df, preserve_index=False).cast(
            pa.schema([("lang", pa.string()), ("doc_id", pa.int64()),
                       ("n_tok", pa.int64()), ("__rk", pa.uint64())]))

    def take_prefix(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["lang", "__rk", "doc_id"], kind="stable")
        prior = (df.groupby("lang", sort=False)["n_tok"].cumsum()
                 - df["n_tok"])
        return df[prior < budget][["lang", "doc_id", "n_tok"]]

    tagged = ds.map_batches(project, batch_format="pyarrow",
                            zero_copy_batch=True)
    return sorted_small(hash_partitioned_map(tagged, ["lang"], take_prefix), ["lang", "doc_id"])


SAMPLE_TOKEN_BUDGET_SQL = f"""
WITH d AS (
  SELECT lang, doc_id,
         CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tok,
         md5_number_lower(CAST(doc_id AS VARCHAR)) AS h
  FROM documents),
c AS (
  SELECT lang, doc_id, n_tok,
         COALESCE(SUM(n_tok) OVER (
           PARTITION BY lang ORDER BY h, doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS prior
  FROM d)
SELECT lang, doc_id, n_tok FROM c
WHERE prior < {_TOKEN_BUDGET}
ORDER BY lang, doc_id
"""


_WEIGHT_SCALE_BP = 100   # basis points of keep-probability per token


def sample_quality_weighted(sf_dir: str, scale_bp: int = _WEIGHT_SCALE_BP):
    """Importance sampling by document quality: keep document d with
    probability ``w_bp(d) / 10000`` where the integer weight

        w_bp = 0                                   if n_tokens < 5
             = min(10000, scale_bp · n_tokens) // 2  if boilerplate/jargon
             = min(10000, scale_bp · n_tokens)       otherwise

    uses the same integer metrics and bucket thresholds as
    ``doc_quality`` (stop_pct > 40 → boilerplate, long_pct > 50 →
    jargon).  The Bernoulli draw is the doc_id's deterministic md5
    rank mod 10000 (``md5_number_lower`` identity, same as
    ``_rank_hash``), so the sample is reproducible, content-addressed
    and EXACTLY replicated in SQL — no RNG, no seed state.

    Scale shape: a pure projection over one pruned scan — zero
    shuffles, zero driver state; the keep decision is local to each
    row.  This is the quality-proportional counterpart of
    ``sample_token_budget``'s budget prefix (cf. importance
    resampling for LM data selection, e.g. DSIR, arXiv:2302.03169).

    Returns kept rows (doc_id, n_tokens, w_bp, draw) sorted by
    doc_id."""
    from .text_analysis import quality_metrics

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        n_tokens, n_stop, n_long = quality_metrics(batch.column("text"))
        denom = np.maximum(n_tokens, 1)
        flagged = (np.floor(100.0 * n_stop / denom) > 40) \
            | (np.floor(100.0 * n_long / denom) > 50)
        w_bp = np.minimum(10_000, scale_bp * n_tokens)
        w_bp = np.where(flagged, w_bp // 2, w_bp)
        w_bp = np.where(n_tokens < 5, 0, w_bp).astype(np.int64)
        draw = (_rank_hash(ids) % np.uint64(10_000)).astype(np.int64)
        sel = draw < w_bp
        return pa.table({
            "doc_id": pa.array(ids[sel], pa.int64()),
            "n_tokens": pa.array(n_tokens[sel], pa.int64()),
            "w_bp": pa.array(w_bp[sel], pa.int64()),
            "draw": pa.array(draw[sel], pa.int64()),
        })

    return sorted_small(ds.map_batches(keep, batch_format="pyarrow",
                                       zero_copy_batch=True), "doc_id")


def _sample_quality_weighted_sql(scale_bp: int = _WEIGHT_SCALE_BP) -> str:
    from .text_analysis import _STOP_SQL_LIST
    return f"""
WITH t AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS toks
  FROM documents),
m AS (
  SELECT doc_id,
         CAST(len(toks) AS BIGINT) AS n_tokens,
         len(list_filter(toks, x -> x IN ({_STOP_SQL_LIST}))) AS n_stop,
         len(list_filter(toks, x -> length(x) >= 8)) AS n_long
  FROM t),
w AS (
  SELECT doc_id, n_tokens,
         CASE WHEN n_tokens < 5 THEN 0
              ELSE LEAST(10000, {scale_bp} * n_tokens) //
                CASE WHEN FLOOR(100.0 * n_stop / GREATEST(n_tokens, 1)) > 40
                       OR FLOOR(100.0 * n_long / GREATEST(n_tokens, 1)) > 50
                     THEN 2 ELSE 1 END
         END AS w_bp,
         CAST(md5_number_lower(CAST(doc_id AS VARCHAR)) % 10000
              AS BIGINT) AS draw
  FROM m)
SELECT doc_id, n_tokens, CAST(w_bp AS BIGINT) AS w_bp, draw
FROM w WHERE draw < w_bp
ORDER BY doc_id
"""


_WS_RE = None  # compiled lazily once per worker


def _fingerprints(texts: "pa.Array | pa.ChunkedArray") -> list:
    """md5 hexdigest of the NORMALIZED text (lowercase, whitespace
    runs collapsed, stripped) — ≡ DuckDB
    ``md5(trim(regexp_replace(lower(text), '\\s+', ' ', 'g')))``.
    Normalizing the key is what makes keep-best non-degenerate: raw
    duplicates always tie on length, but near-identical crawls
    differing in case/whitespace form real groups where the longest
    raw copy wins.  The 16-byte key is what ships through the shuffle,
    never the text."""
    global _WS_RE
    if _WS_RE is None:
        import re

        _WS_RE = re.compile(r"\s+")
    return [hashlib.md5(_WS_RE.sub(" ", t.lower()).strip()
                        .encode("utf-8")).hexdigest()
            for t in texts.to_pylist()]


def dedup_exact_keep_best(sf_dir: str):
    """Exact dedup keeping the best copy per content group: longest
    (max n_chars), tie → min doc_id; emits the duplicate-group size.
    The map stage reduces each row to (fp, doc_id, n_chars) so the
    shuffle never carries text; the reduce handles every fingerprint
    of its partition in one sort + groupby pass."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "n_chars"])

    def tag(batch: pa.Table) -> pa.Table:
        return pa.table({
            "fp": pa.array(_fingerprints(batch.column("text")), pa.string()),
            "doc_id": batch.column("doc_id"),
            "n_chars": batch.column("n_chars"),
        })

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["fp", "n_chars", "doc_id"],
                            ascending=[True, False, True], kind="stable")
        g = df.groupby("fp", sort=False)
        best = g.head(1)
        n_dups = g.size().to_numpy()  # g preserves best's fp order
        return pd.DataFrame({
            "doc_id": best["doc_id"].to_numpy(),
            "n_dups": n_dups.astype(np.int64),
        })

    tagged = ds.map_batches(tag, batch_format="pyarrow",
                            zero_copy_batch=True)
    return sorted_small(hash_partitioned_map(tagged, ["fp"], per_partition), "doc_id")


DEDUP_KEEP_BEST_SQL = """
WITH f AS (
  SELECT doc_id, n_chars,
         md5(trim(regexp_replace(lower(text), '\\s+', ' ', 'g'))) AS fp
  FROM documents
)
SELECT doc_id, n_dups FROM (
  SELECT doc_id,
         ROW_NUMBER() OVER (PARTITION BY fp
                            ORDER BY n_chars DESC, doc_id) AS rk,
         COUNT(*) OVER (PARTITION BY fp) AS n_dups
  FROM f) t
WHERE rk = 1
ORDER BY doc_id
"""


def curate_corpus(sf_dir: str) -> pd.DataFrame:
    """Composite curation pass: quality filter (bucket == 'ok', the
    oracle-pinned ``doc_quality`` thresholds) → keep-best exact dedup
    → per-language rollup (kept_docs, total_chars).

    One streamed map (metrics + filter + fingerprint), one hash
    shuffle on the fingerprint; each reduce partition emits ≤ one
    partial row per language, so the final sum is a bounded
    (partitions × languages)-row driver fold — same pattern as q5's
    final rollup."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "n_chars"])

    def score_filter(batch: pa.Table) -> pa.Table:
        n_tokens, n_stop, n_long = quality_metrics(batch.column("text"))
        denom = np.maximum(n_tokens, 1)
        ok = ((n_tokens >= 5)
              & (np.floor(100.0 * n_stop / denom) <= 40)
              & (np.floor(100.0 * n_long / denom) <= 50))
        kept = batch.filter(pa.array(ok))
        return pa.table({
            "fp": pa.array(_fingerprints(kept.column("text")), pa.string()),
            "doc_id": kept.column("doc_id"),
            "lang": kept.column("lang"),
            "n_chars": kept.column("n_chars"),
        })

    def keep_best_rollup(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["fp", "n_chars", "doc_id"],
                            ascending=[True, False, True], kind="stable")
        best = df.groupby("fp", sort=False).head(1)
        return (best.groupby("lang", as_index=False, sort=False)
                    .agg(kept_docs=("doc_id", "count"),
                         total_chars=("n_chars", "sum")))

    partials = hash_partitioned_map(
        ds.map_batches(score_filter, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["fp"], keep_best_rollup).to_pandas()  # ≤ partitions × langs rows
    out = (partials.groupby("lang", as_index=False, sort=True)
                   .agg(kept_docs=("kept_docs", "sum"),
                        total_chars=("total_chars", "sum")))
    out["kept_docs"] = out["kept_docs"].astype(np.int64)
    out["total_chars"] = out["total_chars"].astype(np.int64)
    return out.reset_index(drop=True)


CURATE_CORPUS_SQL = """
WITH m AS (
  SELECT doc_id, lang, n_chars, text,
         regexp_extract_all(lower(text), '\\S+') AS toks
  FROM documents
), q AS (
  SELECT doc_id, lang, n_chars, text,
         len(toks) AS n_tokens,
         len(list_filter(toks, x -> x IN ({stop_list}))) AS n_stop,
         len(list_filter(toks, x -> length(x) >= 8)) AS n_long
  FROM m
), ok AS (
  SELECT doc_id, lang, n_chars, text FROM q
  WHERE n_tokens >= 5
    AND FLOOR(100.0 * n_stop / GREATEST(n_tokens, 1)) <= 40
    AND FLOOR(100.0 * n_long / GREATEST(n_tokens, 1)) <= 50
), kept AS (
  SELECT lang, n_chars,
         ROW_NUMBER() OVER (
           PARTITION BY md5(trim(regexp_replace(lower(text), '\\s+', ' ', 'g')))
           ORDER BY n_chars DESC, doc_id) AS rk
  FROM ok
)
SELECT lang, COUNT(*) AS kept_docs, CAST(SUM(n_chars) AS BIGINT) AS total_chars
FROM kept WHERE rk = 1
GROUP BY lang ORDER BY lang
""".format(stop_list=_STOP_SQL_LIST)


def export_curated(sf_dir: str, output_dir: str,
                   num_partitions: int = 32) -> dict:
    """Resumable curated-training-set export: quality filter →
    keep-best exact dedup → partitioned parquet under ``output_dir``,
    one directory + verified lineage record per hash partition
    (``stages/lineage.py`` — same atomic write/fsync/checksum contract
    as the extraction sink; never one giant file).

    The winning rows must physically reach their output partition, so
    the text ships through the ONE dedup shuffle (minimal movement:
    keep-best retains most docs, so a separate winners⨝text join-back
    would re-shuffle nearly the same bytes a second time).  Resume
    recomputes the deterministic upstream (same data → same partitions
    → same fragment keys) and SKIPS every partition whose lineage
    re-verifies — the two-phase-job resume shape.
    """
    from ..stages.lineage import completed_partitions, write_partition
    from .joins import _partition_ids

    done = set(completed_partitions(output_dir))

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "n_chars"])

    def score_filter(batch: pa.Table) -> pa.Table:
        n_tokens, n_stop, n_long = quality_metrics(batch.column("text"))
        denom = np.maximum(n_tokens, 1)
        ok = ((n_tokens >= 5)
              & (np.floor(100.0 * n_stop / denom) <= 40)
              & (np.floor(100.0 * n_long / denom) <= 50))
        kept = batch.filter(pa.array(ok))
        kept = kept.append_column(
            "fp", pa.array(_fingerprints(kept.column("text")), pa.string()))
        return kept.append_column(
            "__gp", pa.array(_partition_ids(kept.select(["fp"]), ["fp"],
                                            num_partitions), pa.int64()))

    def write_group(df: pd.DataFrame) -> pd.DataFrame:
        import ray_script_extract as _rse
        _rse._tune_malloc()
        pid = int(df["__gp"].iloc[0])
        from ..stages.lineage import fragment_key
        descriptor = f"curated:{sf_dir}:p{pid}/{num_partitions}"
        key = fragment_key(descriptor)
        if key in done:
            return pd.DataFrame({"pid": [pid], "rows": [0],
                                 "skipped": [1]})
        best = (df.sort_values(["fp", "n_chars", "doc_id"],
                               ascending=[True, False, True],
                               kind="stable")
                  .groupby("fp", sort=False).head(1)
                  .sort_values("doc_id"))
        table = pa.Table.from_pandas(
            best[["doc_id", "lang", "text", "n_chars"]],
            preserve_index=False)
        write_partition(output_dir, key, table, descriptor,
                        metrics={"rows": len(best)})
        return pd.DataFrame({"pid": [pid], "rows": [len(best)],
                             "skipped": [0]})

    def write_group_tbl(t: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(write_group(t.to_pandas()),
                                    preserve_index=False)

    from .joins import exchange_map_partitions

    summary = exchange_map_partitions(
        ds.map_batches(score_filter, batch_format="pyarrow",
                       zero_copy_batch=True),
        "__gp", num_partitions,
        write_group_tbl).to_pandas()  # ≤ num_partitions rows
    return {
        "partitions_total": int(len(summary)),
        "partitions_skipped": int(summary["skipped"].sum()),
        "rows_written": int(summary["rows"].sum()),
    }


# ---------------------------------------------------------------------------
# Deterministic split + sharded shuffle (training-data plumbing)
# ---------------------------------------------------------------------------

# exact integer bounds: train gets [0, 0.9·2^64), val [0.9, 0.95),
# test the rest — the same constants are inlined into the SQL oracle
_SPLIT_B1 = (2 ** 64 * 9) // 10
_SPLIT_B2 = (2 ** 64 * 19) // 20


def split_train_val_test(sf_dir: str):
    """Deterministic 90/5/5 train/val/test assignment: each document
    lands by the position of its md5 rank in the uint64 range.
    Content-independent, reproducible without RNG, and ZERO shuffles —
    the split is a pure function of doc_id, so this is a single
    embarrassingly-parallel batch transform at any scale (the shape a
    100 TB split must have; any design that sorts or shuffles to split
    is doing O(N log N) work for an O(N) problem)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        rk = _rank_hash(ids)
        split = np.where(rk < np.uint64(_SPLIT_B1), "train",
                         np.where(rk < np.uint64(_SPLIT_B2), "val",
                                  "test"))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "split": pa.array(split.astype(object),
                                           pa.string())})

    return sorted_small(ds.map_batches(assign, batch_format="pyarrow",
                          zero_copy_batch=True), "doc_id")


SPLIT_SQL = f"""
SELECT doc_id,
       CASE WHEN h < {_SPLIT_B1} THEN 'train'
            WHEN h < {_SPLIT_B2} THEN 'val'
            ELSE 'test' END AS split
FROM (SELECT doc_id,
             md5_number_lower(CAST(doc_id AS VARCHAR)) AS h
      FROM documents)
ORDER BY doc_id
"""


_SHUFFLE_SEED = 7
_N_SHARDS = 16


def _shuffle_key(doc_ids: np.ndarray, seed: int) -> np.ndarray:
    """Seeded md5 rank ≡ DuckDB
    ``md5_number_lower('<seed>:' || CAST(doc_id AS VARCHAR))``."""
    return np.fromiter(
        (int.from_bytes(
            hashlib.md5(f"{seed}:{int(d)}".encode()).digest()[8:],
            "little") for d in doc_ids),
        dtype=np.uint64, count=len(doc_ids))


def shuffle_shards(sf_dir: str, seed: int = _SHUFFLE_SEED,
                   n_shards: int = _N_SHARDS):
    """Deterministic sharded global shuffle — the data-loader shape:
    every document gets a (shard, pos) such that reading shards in
    order of pos yields a seeded pseudorandom permutation.  Changing
    ``seed`` reshuffles; same seed is bit-reproducible across runs and
    cluster sizes.

    ONE shuffle co-locates each shard (hash_partitioned_map on the
    small int shard id); in-shard positions are exact ranks computed
    by a single vectorized sort+cumcount per partition.  No global
    sort: position is only ever needed WITHIN a shard (loaders consume
    shards independently), so the O(N log N) all-to-all a total order
    would cost is avoided by construction."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])

    def tag(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        key = _shuffle_key(ids, seed)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "shard": pa.array((key % np.uint64(n_shards))
                              .astype(np.int64), pa.int64()),
            "__key": pa.array(key, pa.uint64()),
        })

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["shard", "__key", "doc_id"], kind="stable")
        pos = df.groupby("shard", sort=False).cumcount()
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                             "shard": df["shard"].to_numpy(),
                             "pos": pos.to_numpy().astype(np.int64)})

    tagged = ds.map_batches(tag, batch_format="pyarrow",
                            zero_copy_batch=True)
    return sorted_small(hash_partitioned_map(tagged, ["shard"], per_partition), "doc_id")


SHUFFLE_SHARDS_SQL = f"""
SELECT doc_id,
       CAST(h % {_N_SHARDS} AS BIGINT) AS shard,
       CAST(ROW_NUMBER() OVER (
           PARTITION BY h % {_N_SHARDS} ORDER BY h, doc_id
         ) - 1 AS BIGINT) AS pos
FROM (SELECT doc_id,
             md5_number_lower('{_SHUFFLE_SEED}:'
                              || CAST(doc_id AS VARCHAR)) AS h
      FROM documents)
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# End-to-end training-mix preparation (the engine's user story)
# ---------------------------------------------------------------------------

def prep_training_mix(sf_dir: str, budget: int = _TOKEN_BUDGET,
                      window: int | None = None):
    """The full curation chain as ONE pipeline: quality filter →
    keep-best exact dedup → per-language token-budget prefix →
    context-window packing of the selected stream.  Output
    (doc_id, lang, n_tokens, bin_first, bin_last) — exactly the doc
    set and window layout a training run would consume.

    One text scan; after it, only int/16-byte projections move: the
    fp exchange (keep-best), the lang exchange (budget prefix), then
    the packing pair (bounded bucket-sum reduce + one bucket
    exchange) over a MATERIALIZED ≤ selected-rows projection.  Every
    stage reuses the proven single-operator plan, and the composed
    SQL oracle chains the same CTEs the pieces pin individually."""
    from .packing import _BUCKET_WIDTH, _WINDOW, pack_token_stream

    if window is None:
        window = _WINDOW

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "n_chars"])

    def project(batch: pa.Table) -> pa.Table:
        n_tokens, n_stop, n_long = quality_metrics(batch.column("text"))
        denom = np.maximum(n_tokens, 1)
        ok = ((n_tokens >= 5)
              & (np.floor(100.0 * n_stop / denom) <= 40)
              & (np.floor(100.0 * n_long / denom) <= 50))
        kept = batch.filter(pa.array(ok))
        ids = kept.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "fp": pa.array(_fingerprints(kept.column("text")), pa.string()),
            "doc_id": kept.column("doc_id"),
            "lang": kept.column("lang"),
            "n_chars": kept.column("n_chars"),
            "n_tokens": pa.array(n_tokens[ok], pa.int64()),
            "__rk": pa.array(_rank_hash(ids), pa.uint64()),
        })

    def keep_best(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["fp", "n_chars", "doc_id"],
                            ascending=[True, False, True], kind="stable")
        best = df.groupby("fp", sort=False).head(1)
        return best[["doc_id", "lang", "n_tokens", "__rk"]]

    def take_prefix(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["lang", "__rk", "doc_id"], kind="stable")
        prior = (df.groupby("lang", sort=False)["n_tokens"].cumsum()
                 - df["n_tokens"])
        sel = df[prior < budget][["doc_id", "lang", "n_tokens"]].copy()
        sel["bucket"] = sel["doc_id"].to_numpy() // _BUCKET_WIDTH
        return sel

    tagged = ds.map_batches(project, batch_format="pyarrow",
                            zero_copy_batch=True)
    winners = hash_partitioned_map(tagged, ["fp"], keep_best)
    selected = hash_partitioned_map(winners, ["lang"], take_prefix) \
        .materialize()  # small int projection, consumed twice by pack
    return pack_token_stream(selected, window, extra_cols=("lang",))


PREP_TRAINING_MIX_SQL = """
WITH m AS (
  SELECT doc_id, lang, n_chars, text,
         regexp_extract_all(lower(text), '\\S+') AS toks
  FROM documents
), q AS (
  SELECT doc_id, lang, n_chars, text,
         CAST(len(toks) AS BIGINT) AS n_tokens,
         len(list_filter(toks, x -> x IN ({stop_list}))) AS n_stop,
         len(list_filter(toks, x -> length(x) >= 8)) AS n_long
  FROM m
), ok AS (
  SELECT doc_id, lang, n_chars, n_tokens, text FROM q
  WHERE n_tokens >= 5
    AND FLOOR(100.0 * n_stop / GREATEST(n_tokens, 1)) <= 40
    AND FLOOR(100.0 * n_long / GREATEST(n_tokens, 1)) <= 50
), kept AS (
  SELECT doc_id, lang, n_tokens,
         ROW_NUMBER() OVER (
           PARTITION BY md5(trim(regexp_replace(lower(text), '\\s+', ' ', 'g')))
           ORDER BY n_chars DESC, doc_id) AS rk
  FROM ok
), win AS (
  SELECT doc_id, lang, n_tokens,
         md5_number_lower(CAST(doc_id AS VARCHAR)) AS h
  FROM kept WHERE rk = 1
), bud AS (
  SELECT doc_id, lang, n_tokens,
         COALESCE(SUM(n_tokens) OVER (
           PARTITION BY lang ORDER BY h, doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS prior
  FROM win
), sel AS (
  SELECT doc_id, lang, n_tokens FROM bud WHERE prior < {budget}
), pk AS (
  SELECT doc_id, lang, n_tokens,
         COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS s
  FROM sel
)
SELECT doc_id, lang, n_tokens,
       CAST(s // {window} AS BIGINT) AS bin_first,
       CAST((s + GREATEST(n_tokens, 1) - 1) // {window} AS BIGINT) AS bin_last
FROM pk ORDER BY doc_id
""".format(stop_list=_STOP_SQL_LIST, budget=_TOKEN_BUDGET, window=512)


# ---------------------------------------------------------------------------
# Range-partitioned globally-sorted export (merge-scan-ready sink)
# ---------------------------------------------------------------------------

_SORT_PARTITIONS = 8


def export_sorted(sf_dir: str, output_dir: str,
                  num_partitions: int = _SORT_PARTITIONS) -> pd.DataFrame:
    """Globally-sorted, range-partitioned parquet export of the
    document table, sorted by (n_chars, doc_id) — the sink shape a
    downstream merge scan (or binary-search point lookup) needs:
    partition i's key range ends strictly before partition i+1's
    begins, and each file is sorted internally.

    Two passes, both bounded:
    1. EXACT value histogram of the sort key (per-block np.unique
       partials, one (value, count) exchange, driver cumsum over
       <= |distinct lengths| rows) picks num_partitions-1 boundary
       VALUES at equal-rank targets — the same quantile_disc-exact
       rank rule as filter_length_band, so the SQL oracle rebuilds
       the identical partition assignment.  Ties of the key never
       split across files (value-granular boundaries), which is what
       makes the cross-file order total.
    2. One range exchange: pid = #bounds < key assigned map-side,
       rows co-locate per pid, each partition sorts vectorized and
       writes atomically through the lineage sink (fsync-then-record,
       checksum re-verified on resume — a rerun SKIPS every verified
       partition but still reports the same manifest).

    Returns the manifest (pid, n_rows, min/max key) — deterministic,
    so it doubles as the oracle-checked query surface; heavy-value
    skew bounds a partition from below by its tie mass, the standard
    range-partitioner caveat (salting would break the sorted-output
    contract)."""
    import math

    from ..stages.lineage import (completed_partitions, fragment_key,
                                  write_partition)
    from .joins import groupby_agg_partitioned

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["n_chars"])

    def hist(batch: pa.Table) -> pa.Table:
        v, c = np.unique(
            batch.column("n_chars").to_numpy(zero_copy_only=False),
            return_counts=True)
        return pa.table({"n_chars": pa.array(v.astype(np.int64), pa.int64()),
                         "cnt": pa.array(c.astype(np.int64), pa.int64())})

    counts = (groupby_agg_partitioned(
        ds.map_batches(hist, batch_format="pyarrow", zero_copy_batch=True),
        ["n_chars"], {"cnt": "sum"})
        .to_pandas().sort_values("n_chars"))
    vals = counts["n_chars"].to_numpy()
    cum = counts["cnt"].to_numpy().cumsum()
    n = int(cum[-1])
    bounds = np.unique([
        int(vals[int(np.searchsorted(
            cum, math.ceil(k / num_partitions * n), side="left"))])
        for k in range(1, num_partitions)])

    done = set(completed_partitions(output_dir))
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "n_chars"])

    def assign(batch: pa.Table) -> pa.Table:
        key = batch.column("n_chars").to_numpy(zero_copy_only=False)
        pid = np.searchsorted(bounds, key, side="left")  # = #bounds < key
        return batch.append_column("__pid",
                                   pa.array(pid.astype(np.int64), pa.int64()))

    def write_sorted(df: pd.DataFrame) -> pd.DataFrame:
        import ray_script_extract as _rse
        _rse._tune_malloc()
        pid = int(df["__pid"].iloc[0])
        part = df.sort_values(["n_chars", "doc_id"], kind="stable")
        manifest = pd.DataFrame({
            "pid": [np.int64(pid)],
            "n_rows": [np.int64(len(part))],
            "min_n_chars": [np.int64(part["n_chars"].iloc[0])],
            "max_n_chars": [np.int64(part["n_chars"].iloc[-1])],
        })
        descriptor = f"sorted:{sf_dir}:p{pid}/{num_partitions}"
        key = fragment_key(descriptor)
        if key not in done:
            table = pa.Table.from_pandas(
                part[["doc_id", "lang", "text", "n_chars"]],
                preserve_index=False)
            write_partition(output_dir, key, table, descriptor,
                            metrics={"pid": pid, "rows": len(part)})
        return manifest

    def write_sorted_tbl(t: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(write_sorted(t.to_pandas()),
                                    preserve_index=False)

    from .joins import exchange_map_partitions

    out = exchange_map_partitions(
        docs.map_batches(assign, batch_format="pyarrow",
                         zero_copy_batch=True),
        "__pid", num_partitions, write_sorted_tbl
    ).to_pandas()  # <= num_partitions rows
    return out.sort_values("pid").reset_index(drop=True)


def export_sorted_manifest(sf_dir: str) -> pd.DataFrame:
    """queries() surface: run the sorted export against a fresh
    scratch dir and return the (deterministic) manifest."""
    import tempfile

    return export_sorted(sf_dir, tempfile.mkdtemp(prefix="rse_sorted_"))


_SORT_FRACS = ", ".join(repr(k / _SORT_PARTITIONS)
                        for k in range(1, _SORT_PARTITIONS))

EXPORT_SORTED_SQL = f"""
WITH bounds AS (
  SELECT DISTINCT unnest(quantile_disc(n_chars, [{_SORT_FRACS}])) AS b
  FROM documents
), assigned AS (
  SELECT n_chars,
         (SELECT COUNT(*) FROM bounds WHERE b < n_chars) AS pid
  FROM documents
)
SELECT CAST(pid AS BIGINT) AS pid,
       CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(MIN(n_chars) AS BIGINT) AS min_n_chars,
       CAST(MAX(n_chars) AS BIGINT) AS max_n_chars
FROM assigned GROUP BY pid ORDER BY pid
"""


# ---------------------------------------------------------------------------
# Temperature-based source mixing (the LLM data-mix op)
# ---------------------------------------------------------------------------

_TEMP_MIX_BUDGET = 200


def sample_temperature_mix(sf_dir: str, key: str = "lang",
                           total_budget: int = _TEMP_MIX_BUDGET):
    """Temperature-weighted mixing across strata — the standard LLM
    data-mix move (upsample rare sources, damp dominant ones, e.g.
    GPT-3 / multilingual-corpus style sampling with alpha = 0.5):
    each stratum's share of ``total_budget`` is proportional to
    sqrt(count) instead of count.

    INTEGER-EXACT temperature: weight_s = isqrt(count_s) (floor of
    the correctly-rounded IEEE sqrt of an integer is exact — an
    integer count can't sit within an ulp of a different perfect
    square), budget_s = total_budget * weight_s // sum(weights), all
    BIGINT in both engines, so the DuckDB oracle matches bit-for-bit
    with no float-summation ordering risk.  Floor remainders are
    dropped (sum of budgets <= total_budget), documented, not hidden.

    Two passes, both scale-shaped: (1) per-stratum counts — a
    key-column-only read collapsing to |strata| driver rows; (2) the
    sample_stratified selection machinery with a PER-STRATUM head
    (deterministic (md5 rank, doc_id) order, batch-local pre-prune so
    only <= budget_s rows per stratum leave each task)."""
    import math

    from .joins import groupby_agg_partitioned

    counts_ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                      columns=[key])

    def count_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by([key]).aggregate([(key, "count")])
        return pa.table({key: g.column(key),
                         "n": g.column(f"{key}_count").cast(pa.int64())})

    counts = groupby_agg_partitioned(
        counts_ds.map_batches(count_partial, batch_format="pyarrow",
                              zero_copy_batch=True),
        [key], {"n": "sum"}).to_pandas()

    weights = {k: math.isqrt(int(n))
               for k, n in zip(counts[key], counts["n"])}
    wsum = sum(weights.values()) or 1
    budgets = {k: total_budget * w // wsum for k, w in weights.items()}

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", key])
    max_budget = max(budgets.values(), default=0)

    def tag(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        out = pa.table({
            key: batch.column(key),
            "doc_id": batch.column("doc_id"),
            "__rk": pa.array(_rank_hash(ids), pa.uint64()),
        })
        # batch-local pre-prune: per-stratum head distributes over
        # blocks, so <= max budget rows per stratum leave each task
        df = out.to_pandas().sort_values([key, "__rk", "doc_id"],
                                         kind="stable")
        head = df.groupby(key, sort=False).head(max_budget)
        return pa.Table.from_pandas(head, preserve_index=False) \
            .cast(out.schema)

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, "__rk", "doc_id"], kind="stable")
        df["__pos"] = df.groupby(key, sort=False).cumcount()
        lim = df[key].map(budgets).fillna(0).to_numpy()
        return df[df["__pos"].to_numpy() < lim][[key, "doc_id"]]

    tagged = ds.map_batches(tag, batch_format="pyarrow",
                            zero_copy_batch=True)
    return sorted_small(hash_partitioned_map(tagged, [key], per_partition),
                        [key, "doc_id"])


SAMPLE_TEMPERATURE_SQL = f"""
WITH c AS (SELECT lang, COUNT(*) AS cnt FROM documents GROUP BY 1),
w AS (SELECT lang, CAST(FLOOR(SQRT(cnt)) AS BIGINT) AS wt FROM c),
b AS (SELECT lang,
             {_TEMP_MIX_BUDGET} * wt // (SELECT SUM(wt) FROM w) AS budget
      FROM w),
r AS (SELECT lang, doc_id,
             ROW_NUMBER() OVER (
               PARTITION BY lang
               ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)), doc_id
             ) AS rk
      FROM documents)
SELECT r.lang, doc_id FROM r JOIN b USING (lang)
WHERE rk <= budget ORDER BY lang, doc_id
"""


# ---------------------------------------------------------------------------
# The end-to-end curation funnel — the FineWeb/RefinedWeb-style report
# of how many documents survive each famous pipeline stage, as ONE
# streaming job: train split → Gopher rules → exact dedup → n-gram
# decontamination → DSIR above-par selection.
# ---------------------------------------------------------------------------

_FUNNEL_STAGES = ("raw", "train_split", "gopher_pass", "exact_dedup",
                  "decontaminated", "dsir_above_par")


def curation_funnel(sf_dir: str) -> pd.DataFrame:
    """``(stage_idx, stage, docs_remaining)`` after each cumulative
    stage of the standard curation pipeline.

    Every stage reuses the exact semantics of its standalone operator
    (gopher_quality_filter, dedup_exact's keep-min, decontaminate_
    ngrams' shingle membership, dsir_importance_weights' ppm scores),
    so the SQL oracle is a composition of the same pinned CTE cores.

    Plan: the DSIR vocabulary exchange and the benchmark shingle scan
    run first (both bounded); their tables broadcast ONCE via
    ``ray.put``.  Then a single map over documents computes gopher
    verdicts, contamination flags and DSIR sums per batch — emitting
    (text, doc_id, flags) only for train∩gopher survivors plus one
    sentinel counts row per batch — and ONE text-keyed exchange
    resolves exact-dedup winners and folds the flag counts.  Text
    moves once; the final result is six rows.  Above either broadcast
    budget the funnel refuses and points at the constituent pipelines,
    whose partitioned twins are the scale path."""
    from .decontam import _BENCH_MOD, _bench_hash_set, \
        _doc_distinct_shingle_hashes
    from .text_analysis import (_DSIR_MOD, _VOCAB_BROADCAST_ROWS,
                                _dsir_counts, _dsir_ppm_arrays,
                                _gopher_metrics, _unigram_rows,
                                _GOPHER_MIN_WORDS, _GOPHER_MAX_WORDS,
                                _GOPHER_MIN_MEAN_LEN, _GOPHER_MAX_MEAN_LEN,
                                _GOPHER_ALPHA_NUM, _GOPHER_ALPHA_DEN,
                                _GOPHER_MIN_STOP)

    assert _BENCH_MOD == _DSIR_MOD  # one benchmark-slice convention

    bench = _bench_hash_set(sf_dir)
    cnt_tbl, T, R, V = _dsir_counts(sf_dir)
    if bench is None or not (0 < V <= _VOCAB_BROADCAST_ROWS):
        raise ValueError(
            "curation_funnel's one-pass plan needs both broadcast "
            "tables under budget; run the constituent pipelines "
            "(gopher_quality_filter, dedup_exact, decontaminate_ngrams, "
            "dsir_importance_weights) step-wise instead — each takes "
            "its partitioned plan past the budget by itself.")
    handle = ray.put((bench, *_dsir_ppm_arrays(cnt_tbl, T, R, V)))

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def scan(batch: pa.Table) -> pa.Table:
        from ray_script_extract import _tune_malloc
        _tune_malloc()
        bench, ws, ppm = ray.get(handle)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)

        n_words, sum_len, n_alpha, n_stop = \
            _gopher_metrics(batch.column("text"))
        gopher = ((n_words >= _GOPHER_MIN_WORDS)
                  & (n_words <= _GOPHER_MAX_WORDS)
                  & (sum_len >= _GOPHER_MIN_MEAN_LEN * n_words)
                  & (sum_len <= _GOPHER_MAX_MEAN_LEN * n_words)
                  & (n_words > 0)
                  & (_GOPHER_ALPHA_DEN * n_alpha
                     >= _GOPHER_ALPHA_NUM * n_words)
                  & (n_stop >= _GOPHER_MIN_STOP))
        train = ids % _DSIR_MOD != 0
        keep = train & gopher

        sent = {"text": [""], "doc_id": [-1], "contaminated": [0],
                "above_par": [0], "n_raw": [len(ids)],
                "n_train": [int(train.sum())],
                "n_gopher": [int(keep.sum())]}

        kept = batch.filter(pa.array(keep))
        if kept.num_rows == 0:
            return pa.table({k: pa.array(v) for k, v in sent.items()})

        texts = kept.column("text").to_pylist()
        kids = kept.column("doc_id").to_numpy(zero_copy_only=False)

        # contamination: any shingle shared with the benchmark slice
        contaminated = np.zeros(len(texts), np.int64)
        didx, hashes = _doc_distinct_shingle_hashes(texts)
        if len(hashes) and len(bench):
            pos = np.minimum(np.searchsorted(bench, hashes),
                             len(bench) - 1)
            hit = bench[pos] == hashes
            np.maximum.at(contaminated, didx[hit],
                          np.ones(int(hit.sum()), np.int64))

        # DSIR: sum of per-occurrence ppm vs the 1e6·n_tokens par line
        _, docix, uw, pinv = _unigram_rows(kept)
        wsum = np.zeros(len(texts), np.int64)
        n_tok = np.zeros(len(texts), np.int64)
        if len(uw):
            wpos = np.minimum(np.searchsorted(ws, uw), len(ws) - 1)
            w_u = np.where(ws[wpos] == uw, ppm[wpos], 0).astype(np.int64)
            np.add.at(wsum, docix, w_u[pinv])
            n_tok = np.bincount(docix, minlength=len(texts)) \
                .astype(np.int64)
        above = (wsum >= 1_000_000 * n_tok).astype(np.int64)

        return pa.table({
            "text": pa.array([""] + texts, pa.string()),
            "doc_id": pa.array(np.concatenate([[-1], kids]), pa.int64()),
            "contaminated": pa.array(
                np.concatenate([[0], contaminated]), pa.int64()),
            "above_par": pa.array(np.concatenate([[0], above]),
                                  pa.int64()),
            "n_raw": pa.array([len(ids)] + [0] * len(texts), pa.int64()),
            "n_train": pa.array([int(train.sum())] + [0] * len(texts),
                                pa.int64()),
            "n_gopher": pa.array([int(keep.sum())] + [0] * len(texts),
                                 pa.int64()),
        })

    def reduce_partition(df: pd.DataFrame) -> pd.DataFrame:
        sent = df[df["doc_id"] == -1]
        rows = df[df["doc_id"] != -1]
        winners = rows.sort_values(["text", "doc_id"], kind="stable") \
            .groupby("text", sort=False).head(1)
        decon = winners[winners["contaminated"] == 0]
        out = [("raw", int(sent["n_raw"].sum())),
               ("train_split", int(sent["n_train"].sum())),
               ("gopher_pass", int(sent["n_gopher"].sum())),
               ("exact_dedup", len(winners)),
               ("decontaminated", len(decon)),
               ("dsir_above_par", int((decon["above_par"] == 1).sum()))]
        return pd.DataFrame(out, columns=["stage", "cnt"]) \
            .astype({"cnt": np.int64})

    partials = hash_partitioned_map(
        ds.map_batches(scan, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["text"], reduce_partition).to_pandas()

    total = partials.groupby("stage")["cnt"].sum()
    return pd.DataFrame({
        "stage_idx": np.arange(1, len(_FUNNEL_STAGES) + 1,
                               dtype=np.int64),
        "stage": list(_FUNNEL_STAGES),
        "docs_remaining": np.array(
            [int(total.get(s, 0)) for s in _FUNNEL_STAGES], np.int64),
    })


def _strip_order(sql: str) -> str:
    return sql.strip().rsplit("ORDER BY", 1)[0]


def _funnel_sql() -> str:
    from .decontam import DECONTAM_SQL
    from .text_analysis import DSIR_SQL, GOPHER_QUALITY_SQL

    return f"""
WITH g AS ({_strip_order(GOPHER_QUALITY_SQL)}),
dw AS ({_strip_order(DSIR_SQL)}),
con AS ({_strip_order(DECONTAM_SQL)}),
s3 AS (SELECT d.doc_id, d.text FROM documents d JOIN g USING (doc_id)
       WHERE d.doc_id % 20 <> 0 AND g.gopher_pass = 1),
s4 AS (SELECT MIN(doc_id) AS doc_id, text FROM s3 GROUP BY text),
s5 AS (SELECT s4.doc_id FROM s4 LEFT JOIN con ON con.doc_id = s4.doc_id
       WHERE con.doc_id IS NULL),
s6 AS (SELECT s5.doc_id FROM s5 JOIN dw ON dw.doc_id = s5.doc_id
       WHERE dw.dsir_weight_ppm >= 1000000 * dw.n_tokens)
SELECT * FROM (
  SELECT CAST(1 AS BIGINT) AS stage_idx, 'raw' AS stage,
         CAST((SELECT COUNT(*) FROM documents) AS BIGINT)
           AS docs_remaining
  UNION ALL SELECT CAST(2 AS BIGINT), 'train_split',
         CAST((SELECT COUNT(*) FROM documents WHERE doc_id % 20 <> 0)
              AS BIGINT)
  UNION ALL SELECT CAST(3 AS BIGINT), 'gopher_pass',
         CAST((SELECT COUNT(*) FROM s3) AS BIGINT)
  UNION ALL SELECT CAST(4 AS BIGINT), 'exact_dedup',
         CAST((SELECT COUNT(*) FROM s4) AS BIGINT)
  UNION ALL SELECT CAST(5 AS BIGINT), 'decontaminated',
         CAST((SELECT COUNT(*) FROM s5) AS BIGINT)
  UNION ALL SELECT CAST(6 AS BIGINT), 'dsir_above_par',
         CAST((SELECT COUNT(*) FROM s6) AS BIGINT)
) ORDER BY stage_idx
"""


CURATION_FUNNEL_SQL = _funnel_sql()

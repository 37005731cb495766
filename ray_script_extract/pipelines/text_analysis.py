"""Text analysis operators: language-ID, quality scoring,
document statistics.  Quality metrics are integer-valued end-to-end
(counts and floor-percentages), so `doc_quality` has an exact DuckDB
oracle; the n-gram language-ID is a real profile-based classifier
(rows-only check — not SQL-expressible)."""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from .joins import sorted_small
from ray.data.aggregate import Count, Sum

STOPWORDS = ("the", "a", "an", "of", "to", "in", "and", "is", "on", "for")
_STOP_SET = frozenset(STOPWORDS)

# Seed wordlists for the n-gram language profiles (public common-word
# lists; the profile machinery is the operator under test).
_LANG_SEEDS: Dict[str, str] = {
    "en": "the of and to in is you that it he was for on are as with his they",
    "es": "de la que el en y a los del se las por un para con no una su al",
    "fr": "de la le et les des en un du une que est pour qui dans par sur",
    "de": "der die und in den von zu das mit sich des auf ist nicht ein",
    "zh": "de shi bu le ren wo zai you ta zhe ge men lai dao shuo ni qu",
}


def _trigram_profile(text: str) -> Dict[str, int]:
    t = f"  {text.lower()}  "
    out: Dict[str, int] = {}
    for i in range(len(t) - 2):
        g = t[i:i + 3]
        out[g] = out.get(g, 0) + 1
    return out


_PROFILES = {lang: _trigram_profile(seed) for lang, seed in _LANG_SEEDS.items()}
# squared profile norms stay INTEGER: scoring by dot²/normsq (same
# argmax as cosine — dot ≥ 0 and the doc-side norm is a per-doc
# constant) keeps every arithmetic step exactly reproducible in SQL
# (int multiply < 2^53 then ONE IEEE division), which is what makes
# the LANGID_SQL oracle exact rather than rows-only
_PROFILE_NORMSQ = {lang: int(sum(v * v for v in p.values()))
                   for lang, p in _PROFILES.items()}


def predict_lang(text: str) -> str:
    """Cosine-argmax of char-trigram counts vs per-language seed
    profiles, scored as dot²/normsq (argmax-equivalent, see above);
    deterministic tie-break by language code."""
    doc = _trigram_profile(text[:2000])
    if not doc:
        return "und"
    best = ("und", -1.0)
    for lang in sorted(_PROFILES):
        prof = _PROFILES[lang]
        dot = sum(cnt * prof.get(g, 0) for g, cnt in doc.items())
        score = float(dot * dot) / _PROFILE_NORMSQ[lang]
        if score > best[1]:
            best = (lang, score)
    return best[0]


# --- vectorized batch scorer -------------------------------------------
# The doc-side norm is a per-doc positive constant, so argmax over
# languages only needs dot_l / prof_norm_l; and counting occurrences of
# the (all-ASCII) profile trigrams at BYTE level equals char-level
# counting exactly (a pure-ASCII trigram occupies exactly one byte
# window).  So the hot path is: bytes → packed 24-bit trigram codes →
# searchsorted against the profile vocab → bincount → one matvec.
_LANGS = sorted(_PROFILES)
_VOCAB = sorted({g for p in _PROFILES.values() for g in p})
_VOCAB_CODES = np.array(
    [(ord(g[0]) << 16) | (ord(g[1]) << 8) | ord(g[2]) for g in _VOCAB],
    dtype=np.int64)
_order = np.argsort(_VOCAB_CODES)
_VOCAB_CODES = _VOCAB_CODES[_order]
_PROFILE_MAT = np.array(
    [[_PROFILES[lang].get(_VOCAB[j], 0) for j in _order]
     for lang in _LANGS], dtype=np.float64)
_PROF_NORMSQ_ARR = np.array([_PROFILE_NORMSQ[lang] for lang in _LANGS],
                            dtype=np.float64)


def predict_langs_batch(texts: List[str]) -> List[str]:
    out: List[str] = []
    nv = len(_VOCAB_CODES)
    for t in texts:
        b = np.frombuffer(f"  {t[:2000].lower()}  ".encode(), np.uint8)
        codes = ((b[:-2].astype(np.int64) << 16)
                 | (b[1:-1].astype(np.int64) << 8) | b[2:])
        idx = np.searchsorted(_VOCAB_CODES, codes)
        idx_c = np.minimum(idx, nv - 1)
        valid = _VOCAB_CODES[idx_c] == codes
        counts = np.bincount(idx_c[valid], minlength=nv)
        dot = _PROFILE_MAT @ counts  # exact integers in float64
        scores = (dot * dot) / _PROF_NORMSQ_ARR
        out.append(_LANGS[int(np.argmax(scores))])
    return out


def langid_ngram(sf_dir: str):
    """Per-document predicted language (rows-only correctness)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "lang"])

    def run(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "declared_lang": batch.column("lang"),
            "pred_lang": pa.array(predict_langs_batch(texts), pa.string()),
        })

    return sorted_small(ds.map_batches(run, batch_format="pyarrow",
                          zero_copy_batch=True), "doc_id")


_PROF_ROWS = ", ".join(
    f"('{lang}', '{tri}', {w})"
    for lang in _LANGS for tri, w in sorted(_PROFILES[lang].items()))
_NORMSQ_ROWS = ", ".join(
    f"('{lang}', {_PROFILE_NORMSQ[lang]})" for lang in _LANGS)

# Exact oracle for the profile classifier: each char-trigram window
# that hits a profile entry contributes that entry's weight, so
# dot(doc, profile) = SUM(w) over matched windows — integers end to
# end; the score (dot²/normsq) involves ONE IEEE float division of
# exact integers, identical in numpy and DuckDB, so even the argmax
# ranking is bit-deterministic.  (Byte-level counting in the Ray path
# equals char-level here because profile trigrams are pure ASCII and
# UTF-8 continuation bytes can never alias them; the sf corpora are
# ASCII.)
LANGID_SQL = f"""
WITH t AS (
  SELECT doc_id, lang AS declared_lang,
         '  ' || lower(substring(text, 1, 2000)) || '  ' AS s
  FROM documents
),
win AS (
  SELECT doc_id, substring(s, CAST(i AS INT), 3) AS tri
  FROM (SELECT doc_id, s, unnest(range(1, length(s) - 1)) AS i FROM t)
),
prof(plang, tri, w) AS (VALUES {_PROF_ROWS}),
normsq(plang, ns) AS (VALUES {_NORMSQ_ROWS}),
dots AS (
  SELECT win.doc_id, p.plang, CAST(SUM(p.w) AS BIGINT) AS dot
  FROM win JOIN prof p ON win.tri = p.tri
  GROUP BY win.doc_id, p.plang
),
ranked AS (
  SELECT t.doc_id, t.declared_lang, n.plang,
         ROW_NUMBER() OVER (
           PARTITION BY t.doc_id
           ORDER BY (CAST(COALESCE(d.dot, 0) AS DOUBLE)
                     * COALESCE(d.dot, 0)) / n.ns DESC,
                    n.plang ASC) AS rk
  FROM t CROSS JOIN normsq n
  LEFT JOIN dots d ON d.doc_id = t.doc_id AND d.plang = n.plang
)
SELECT doc_id, declared_lang, plang AS pred_lang
FROM ranked WHERE rk = 1 ORDER BY doc_id
"""


_STOP_ARR = pa.array(sorted(_STOP_SET), pa.string())


def quality_metrics(texts: "pa.Array | pa.ChunkedArray"
                    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Vectorized (n_tokens, n_stopwords, n_long_tokens) per document —
    semantics identical to ``t.lower().split()`` counting (and to the
    DuckDB ``regexp_extract_all(lower(text), '\\S+')`` oracle): split
    on whitespace runs, drop the empty edge tokens, then segment-sum
    the per-token predicates with a cumsum-diff (handles zero-token
    docs, which ``np.add.reduceat`` cannot)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    toks = pc.split_pattern_regex(pc.utf8_lower(texts), pattern=r"\s+")
    flat = pc.list_flatten(toks)
    seg_len = pc.list_value_length(toks).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    bounds = np.zeros(len(seg_len) + 1, np.int64)
    np.cumsum(seg_len, out=bounds[1:])
    valid = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    stop = np.logical_and(
        pc.is_in(flat, value_set=_STOP_ARR).to_numpy(zero_copy_only=False),
        valid)
    longt = np.logical_and(
        pc.greater_equal(pc.utf8_length(flat), 8)
          .to_numpy(zero_copy_only=False),
        valid)

    def seg_sum(mask: np.ndarray) -> np.ndarray:
        cs = np.zeros(len(mask) + 1, np.int64)
        np.cumsum(mask, out=cs[1:])
        return cs[bounds[1:]] - cs[bounds[:-1]]

    return seg_sum(valid), seg_sum(stop), seg_sum(longt)


def doc_quality(sf_dir: str):
    """Integer quality metrics per document + a bucketed verdict.

    All derived values are integers computed identically in the SQL
    oracle: token count (RE2 \\S+), stopword count, long-token count
    (≥8 chars), floor-percentages, and a CASE bucket."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def run(batch: pa.Table) -> pa.Table:
        n_tokens, n_stop, n_long = quality_metrics(batch.column("text"))
        denom = np.maximum(n_tokens, 1)
        stop_pct = np.floor(100.0 * n_stop / denom).astype(np.int64)
        long_pct = np.floor(100.0 * n_long / denom).astype(np.int64)
        bucket = np.where(n_tokens < 5, "too_short",
                          np.where(stop_pct > 40, "boilerplate",
                                   np.where(long_pct > 50, "jargon", "ok")))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tokens, pa.int64()),
            "n_stopwords": pa.array(n_stop, pa.int64()),
            "n_long_tokens": pa.array(n_long, pa.int64()),
            "stop_pct": pa.array(stop_pct, pa.int64()),
            "long_pct": pa.array(long_pct, pa.int64()),
            "quality_bucket": pa.array(bucket.tolist(), pa.string()),
        })

    return sorted_small(ds.map_batches(run, batch_format="pyarrow",
                          zero_copy_batch=True), "doc_id")


_STOP_SQL_LIST = ", ".join(f"'{w}'" for w in STOPWORDS)

DOC_QUALITY_SQL = f"""
WITH t AS (
  SELECT doc_id,
         regexp_extract_all(lower(text), '\\S+') AS toks
  FROM documents
),
m AS (
  SELECT doc_id,
         len(toks) AS n_tokens,
         len(list_filter(toks, x -> x IN ({_STOP_SQL_LIST}))) AS n_stopwords,
         len(list_filter(toks, x -> length(x) >= 8)) AS n_long_tokens
  FROM t
)
SELECT doc_id, n_tokens, n_stopwords, n_long_tokens,
       CAST(FLOOR(100.0 * n_stopwords / GREATEST(n_tokens, 1)) AS BIGINT) AS stop_pct,
       CAST(FLOOR(100.0 * n_long_tokens / GREATEST(n_tokens, 1)) AS BIGINT) AS long_pct,
       CASE WHEN n_tokens < 5 THEN 'too_short'
            WHEN FLOOR(100.0 * n_stopwords / GREATEST(n_tokens, 1)) > 40 THEN 'boilerplate'
            WHEN FLOOR(100.0 * n_long_tokens / GREATEST(n_tokens, 1)) > 50 THEN 'jargon'
            ELSE 'ok' END AS quality_bucket
FROM m ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Winnowing fingerprints (rolling hash)
# ---------------------------------------------------------------------------

_WINNOW_K = 8          # k-gram length
_WINNOW_W = 4          # winnow window (guarantee: every match >= k+w-1
                       # chars shares a fingerprint)
_WINNOW_B = 257        # polynomial base
_WINNOW_P = (1 << 31) - 1  # Horner stays under 2^39 — int64 on both engines


def _winnow_doc(text: str) -> "np.ndarray":
    """Rolling-hash winnowing (Schleimer, Wilkerson, Aiken — "Winnowing:
    Local Algorithms for Document Fingerprinting", SIGMOD'03): k-gram
    polynomial hashes, then the RIGHTMOST minimal hash of each
    w-window, deduped.  Returns (n, 2) int64 [pos(1-based), hash]."""
    t = text.lower()
    n = len(t) - _WINNOW_K + 1
    if n < _WINNOW_W:
        return np.zeros((0, 2), dtype=np.int64)
    codes = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32) \
        .astype(np.int64)
    h = np.zeros(n, dtype=np.int64)
    for j in range(_WINNOW_K):
        h = (h * _WINNOW_B + codes[j:j + n]) % _WINNOW_P
    win = np.lib.stride_tricks.sliding_window_view(h, _WINNOW_W)
    # rightmost min: argmin over the reversed window
    right_arg = (_WINNOW_W - 1) - np.argmin(win[:, ::-1], axis=1)
    pos = np.arange(len(win)) + right_arg
    sel = np.unique(pos)
    return np.column_stack([sel + 1, h[sel]])  # 1-based like the oracle


def doc_winnow_fingerprints(sf_dir: str):
    """Per-document winnowing fingerprints: (doc_id, pos, fp) rows —
    the rolling-hash fingerprint operator for local (substring-level)
    duplicate detection, complementary to whole-doc md5
    (`doc_fingerprint`) and set-level minhash.  Exact DuckDB oracle:
    the polynomial Horner hash and the rightmost-min winnow are
    replicated in SQL (WINNOW_SQL)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def run(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        out_doc, out_pos, out_fp = [], [], []
        for did, text in zip(doc_ids, batch.column("text").to_pylist()):
            fps = _winnow_doc(text)
            out_doc.append(np.full(len(fps), did, np.int64))
            out_pos.append(fps[:, 0])
            out_fp.append(fps[:, 1])
        return pa.table({
            "doc_id": pa.array(np.concatenate(out_doc) if out_doc
                               else np.array([], np.int64), pa.int64()),
            "pos": pa.array(np.concatenate(out_pos) if out_pos
                            else np.array([], np.int64), pa.int64()),
            "fp": pa.array(np.concatenate(out_fp) if out_fp
                           else np.array([], np.int64), pa.int64()),
        })

    return sorted_small(ds.map_batches(run, batch_format="pyarrow",
                          zero_copy_batch=True), ["doc_id", "pos"])


def _winnow_horner_sql() -> str:
    expr = "CAST(0 AS BIGINT)"  # keep the whole Horner chain in BIGINT
    for j in range(_WINNOW_K):
        expr = (f"(({expr}) * {_WINNOW_B} + "
                f"unicode(substring(lt, CAST(i + {j} AS INT), 1))) "
                f"% {_WINNOW_P}")
    return expr


# shared winnow CTE chain (g → w → sel): both the per-doc fingerprint
# oracle and the plagiarism-pair oracle build on the same core so the
# two stay definitionally in lockstep
_WINNOW_CORE_SQL = f"""
WITH g AS (
  SELECT doc_id, i, {_winnow_horner_sql()} AS h
  FROM (SELECT doc_id, lower(text) AS lt,
               unnest(range(1, greatest(length(text) - {_WINNOW_K} + 2, 1))) AS i
        FROM documents)
),
w AS (
  SELECT doc_id, i, h,
         MIN(h) OVER win AS mn,
         COUNT(*) OVER win AS cnt
  FROM g
  WINDOW win AS (PARTITION BY doc_id ORDER BY i
                 ROWS BETWEEN {_WINNOW_W - 1} PRECEDING AND CURRENT ROW)
),
sel AS (
  SELECT w.doc_id, MAX(g2.i) AS pos, w.mn AS fp
  FROM w
  JOIN g g2 ON g2.doc_id = w.doc_id
           AND g2.i BETWEEN w.i - {_WINNOW_W - 1} AND w.i
           AND g2.h = w.mn
  WHERE w.cnt = {_WINNOW_W}
  GROUP BY w.doc_id, w.i, w.mn
)"""

WINNOW_SQL = (_WINNOW_CORE_SQL
              + "\nSELECT DISTINCT doc_id, pos, fp FROM sel"
                " ORDER BY doc_id, pos\n")


# ---------------------------------------------------------------------------
# Winnow plagiarism pairs (MOSS-style document-overlap detection)
# ---------------------------------------------------------------------------

_PAIR_FP_CAP = 10      # a fingerprint in > cap docs is boilerplate,
                       # not evidence (MOSS drops over-shared
                       # fingerprints the same way) — and the cap IS
                       # the scale guard: per-fingerprint pair fanout
                       # is bounded by cap·(cap-1)/2
_PAIR_MIN_SHARED = 5   # report pairs sharing >= this many fingerprints


def winnow_plagiarism_pairs(sf_dir: str, cap: int = _PAIR_FP_CAP,
                            min_shared: int = _PAIR_MIN_SHARED):
    """MOSS-style overlap report (Schleimer, Wilkerson, Aiken —
    SIGMOD'03 §5: the winnowing paper's own application): document
    pairs sharing at least ``min_shared`` distinct winnow
    fingerprints, ignoring fingerprints present in more than ``cap``
    documents.  Output (doc_a, doc_b, n_shared), doc_a < doc_b.

    Plan (two bounded exchanges, text never shuffles):
    1. per-batch vectorized winnow → distinct (fp, doc_id) rows; a
       batch-local prune drops fps already over ``cap`` WITHIN the
       batch (their global count can only be larger — safe);
    2. ONE fp-hash exchange → per-partition run-length bucketing
       (the `_bucket_pairs` idiom, dedup.py:111) emits each eligible
       bucket's ≤ cap·(cap-1)/2 pairs and pre-sums duplicates into
       (doc_a, doc_b, partial n_shared) — constant-factor
       replication, never a cross join;
    3. ONE pair exchange on doc_a sums partials and applies the
       ``min_shared`` filter per partition.

    Exact oracle: WINNOW_PAIRS_SQL (same winnow core CTE as
    WINNOW_SQL, pair counting as a bounded self-join in SQL)."""
    import pandas as pd

    from .dedup import _runs_pairs
    from .joins import default_partitions, exchange_map_partitions

    nparts = default_partitions()
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def fp_rows(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        out_doc, out_fp = [], []
        for did, text in zip(doc_ids, batch.column("text").to_pylist()):
            fps = np.unique(_winnow_doc(text)[:, 1])
            out_doc.append(np.full(len(fps), did, np.int64))
            out_fp.append(fps)
        doc = np.concatenate(out_doc) if out_doc else np.array([], np.int64)
        fp = np.concatenate(out_fp) if out_fp else np.array([], np.int64)
        # batch-local prune: a fp seen in > cap docs of THIS batch is
        # over cap globally too.  Its rows collapse to ONE poison row
        # (doc_id −1, sorts first in the bucket) rather than vanish —
        # a partial drop would shrink the bucket below cap and wrongly
        # re-eligate it; the poison marks the whole bucket dead while
        # still cutting the hot fp's shuffle volume to one row here
        if len(fp):
            uniq, inv, counts = np.unique(fp, return_inverse=True,
                                          return_counts=True)
            hot = counts > cap
            if hot.any():
                keep = ~hot[inv]
                doc, fp = doc[keep], fp[keep]
                doc = np.concatenate([doc, np.full(int(hot.sum()), -1,
                                                   np.int64)])
                fp = np.concatenate([fp, uniq[hot]])
        part = (fp.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
                >> np.uint64(33)) % np.uint64(nparts)
        return pa.table({
            "fp": pa.array(fp, pa.int64()),
            "doc_id": pa.array(doc, pa.int64()),
            "__part": pa.array(part.astype(np.int64), pa.int64()),
        })

    _pairs_schema = pa.schema([("doc_a", pa.int64()),
                               ("doc_b", pa.int64()),
                               ("n_shared", pa.int64())])

    def bucket_pairs(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(["fp", "doc_id"], kind="stable")
        keys = df["fp"].to_numpy()
        ids = df["doc_id"].to_numpy().astype(np.int64, copy=False)
        if len(ids) == 0:
            return _pairs_schema.empty_table()
        change = np.r_[True, keys[1:] != keys[:-1]]
        run_id = np.cumsum(change) - 1
        sizes = np.bincount(run_id)
        starts = np.cumsum(sizes) - sizes
        # a poison row (doc_id −1, always first in its ascending run)
        # marks a bucket some upstream batch already proved over-cap
        keep = (sizes >= 2) & (sizes <= cap) & (ids[starts] != -1)
        a, b = _runs_pairs(ids[keep[run_id]], sizes[keep])
        # partial combine: the same pair appears once per shared fp
        # in this partition — pre-sum before the second exchange
        part = pd.DataFrame({"doc_a": a, "doc_b": b}) \
            .groupby(["doc_a", "doc_b"], sort=False).size() \
            .rename("n_shared").reset_index()
        return pa.Table.from_pandas(part, schema=_pairs_schema,
                                    preserve_index=False)

    def finish_pairs(t: pa.Table) -> pa.Table:
        df = t.to_pandas().groupby(["doc_a", "doc_b"], sort=False,
                                   as_index=False)["n_shared"].sum()
        df = df[df["n_shared"] >= min_shared]
        return pa.Table.from_pandas(df, schema=_pairs_schema,
                                    preserve_index=False)

    rows = ds.map_batches(fp_rows, batch_format="pyarrow",
                          zero_copy_batch=True)
    partials = exchange_map_partitions(rows, "__part", nparts,
                                       bucket_pairs)

    def tag_pair(t: pa.Table) -> pa.Table:
        a = t.column("doc_a").to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        part = ((a * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)) \
            % np.uint64(nparts)
        return t.append_column("__part",
                               pa.array(part.astype(np.int64), pa.int64()))

    tagged = partials.map_batches(tag_pair, batch_format="pyarrow",
                                  zero_copy_batch=True)
    out = exchange_map_partitions(tagged, "__part", nparts, finish_pairs)
    # explicit schema: a nothing-passes-threshold corpus must still
    # yield (doc_a, doc_b, n_shared) columns, not a zero-column table
    return sorted_small(out, ["doc_a", "doc_b"], schema=_pairs_schema)


WINNOW_PAIRS_SQL = (_WINNOW_CORE_SQL + f""",
fps AS (SELECT DISTINCT doc_id, fp FROM sel),
eligible AS (
  SELECT fp FROM fps GROUP BY fp
  HAVING COUNT(*) BETWEEN 2 AND {_PAIR_FP_CAP}
),
pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         COUNT(*) AS n_shared
  FROM fps a
  JOIN fps b ON a.fp = b.fp AND a.doc_id < b.doc_id
  JOIN eligible e ON e.fp = a.fp
  GROUP BY a.doc_id, b.doc_id
)
SELECT doc_a, doc_b, n_shared FROM pairs
WHERE n_shared >= {_PAIR_MIN_SHARED}
ORDER BY doc_a, doc_b
""")


# ---------------------------------------------------------------------------
# Repetition signals (Gopher-style quality rules)
# ---------------------------------------------------------------------------
# Rae et al., "Scaling Language Models: Methods, Analysis & Insights
# from Training Gopher" (2021), Appendix A: repetitious documents are
# low-quality training data; the published filters measure the
# fraction of duplicate lines and the coverage of the most frequent
# word n-gram.  Everything here is integer counts + floor-percentages
# so the DuckDB oracle (REPETITION_SQL) is exact.
#
# Definitions (replicated verbatim in SQL):
#   lines       = text split on '\n', EMPTY LINES EXCLUDED, case kept
#   n_dup_lines = n_lines - count(distinct lines)   (excess occurrences)
#   dup_line_chars = sum over line values of (occurrences-1)*len(line)
#   bigrams     = adjacent pairs of lowercased \S+ tokens, joined by ' '
#   top_bigram  = most frequent bigram, ties broken lexicographically
#   *_pct       = floor(100 * x / max(denominator, 1))

import pandas as pd  # noqa: E402  (module-level: used by batch fns)


def _repetition_batch(batch: pa.Table) -> pa.Table:
    doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    texts = batch.column("text")
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(doc_ids)

    # --- duplicate-line counts (vectorized split + one pandas groupby)
    lines = pc.split_pattern(texts, pattern="\n")
    seg = pc.list_value_length(lines).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    flat = pc.list_flatten(lines)
    docix = np.repeat(np.arange(n, dtype=np.int64), seg)
    lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    nonempty = lens > 0
    ldf = pd.DataFrame({
        "d": docix[nonempty],
        "line": np.asarray(flat.to_numpy(zero_copy_only=False))[nonempty],
        "ln": lens[nonempty],
    })
    grp = ldf.groupby(["d", "line"], sort=False) \
        .agg(c=("ln", "size"), ln=("ln", "first")).reset_index()
    n_lines = np.zeros(n, np.int64)
    n_dup = np.zeros(n, np.int64)
    dup_chars = np.zeros(n, np.int64)
    if len(grp):
        per = grp.groupby("d", sort=False).agg(
            total=("c", "sum"), distinct=("c", "size"))
        # (c-1)*len summed per doc — computed vectorized, not via agg
        grp["excess_chars"] = (grp["c"] - 1) * grp["ln"]
        dsum = grp.groupby("d", sort=False)["excess_chars"].sum()
        idx = per.index.to_numpy(np.int64)
        n_lines[idx] = per["total"].to_numpy(np.int64)
        n_dup[idx] = (per["total"] - per["distinct"]).to_numpy(np.int64)
        dup_chars[dsum.index.to_numpy(np.int64)] = \
            dsum.to_numpy(np.int64)

    # --- top word-bigram (same \S+-on-lower tokenization as
    # doc_quality; empty edge tokens dropped so it matches DuckDB's
    # regexp_extract_all)
    toks = pc.split_pattern_regex(pc.utf8_lower(texts), pattern=r"\s+")
    tseg = pc.list_value_length(toks).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    tflat = pc.list_flatten(toks)
    tdoc = np.repeat(np.arange(n, dtype=np.int64), tseg)
    tvalid = pc.not_equal(tflat, "").to_numpy(zero_copy_only=False)
    words = np.asarray(tflat.to_numpy(zero_copy_only=False))[tvalid]
    wdoc = tdoc[tvalid]
    n_toks = np.bincount(wdoc, minlength=n).astype(np.int64)
    n_bigrams = np.maximum(n_toks - 1, 0)
    top_bigram = np.full(n, "", dtype=object)
    top_count = np.zeros(n, np.int64)
    if len(words) > 1:
        same_doc = wdoc[:-1] == wdoc[1:]
        # factorized bigram counting (int codes, not strings — see
        # _bigram_rows); only the per-doc max-count TIES materialize
        # as strings, because the tie-break is lexicographic on the
        # bigram string and token characters below 0x20 make the
        # (word_a, word_b) tuple order an unsafe proxy
        codes, uniques = pd.factorize(words)
        nv = np.int64(len(uniques))
        pair = codes[:-1][same_doc].astype(np.int64) * nv \
            + codes[1:][same_doc]
        d = wdoc[:-1][same_doc]
        if len(pair):
            bc = pd.DataFrame({"d": d, "p": pair}) \
                .groupby(["d", "p"], sort=False).size().reset_index(name="c")
            mx = bc.groupby("d", sort=False)["c"].transform("max")
            cand = bc[bc["c"] == mx]
            uw = np.asarray(uniques, dtype=object)
            p = cand["p"].to_numpy(np.int64)
            cand = pd.DataFrame({
                "d": cand["d"].to_numpy(np.int64),
                "bg": uw[p // nv] + " " + uw[p % nv],
                "c": cand["c"].to_numpy(np.int64),
            }).sort_values(["d", "c", "bg"],
                           ascending=[True, False, True],
                           kind="stable").drop_duplicates("d")
            bidx = cand["d"].to_numpy(np.int64)
            top_bigram[bidx] = cand["bg"].to_numpy()
            top_count[bidx] = cand["c"].to_numpy(np.int64)

    dup_line_pct = np.floor(100.0 * n_dup / np.maximum(n_lines, 1)) \
        .astype(np.int64)
    top_bigram_pct = np.floor(100.0 * top_count
                              / np.maximum(n_bigrams, 1)).astype(np.int64)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_lines": pa.array(n_lines, pa.int64()),
        "n_dup_lines": pa.array(n_dup, pa.int64()),
        "dup_line_chars": pa.array(dup_chars, pa.int64()),
        "dup_line_pct": pa.array(dup_line_pct, pa.int64()),
        "n_bigrams": pa.array(n_bigrams, pa.int64()),
        "top_bigram": pa.array(top_bigram.tolist(), pa.string()),
        "top_bigram_count": pa.array(top_count, pa.int64()),
        "top_bigram_pct": pa.array(top_bigram_pct, pa.int64()),
    })


def doc_repetition_signals(sf_dir: str):
    """Per-document repetition/quality signals (Gopher Appendix-A
    family): duplicate-line counts and most-frequent-word-bigram
    coverage.  Shuffle-free — every signal is per-document, so this
    is ONE streaming map_batches over (doc_id, text); at 100 TB it
    is embarrassingly parallel with no exchange.  Exact DuckDB
    oracle (REPETITION_SQL)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return sorted_small(ds.map_batches(_repetition_batch, batch_format="pyarrow",
                          zero_copy_batch=True), "doc_id")


REPETITION_SQL = """
WITH t AS (
  SELECT doc_id, text FROM documents
),
lines AS (
  SELECT doc_id, unnest(string_split(text, chr(10))) AS line FROM t
),
lg AS (
  SELECT doc_id, line, COUNT(*) AS c, length(line) AS ln
  FROM lines WHERE line <> '' GROUP BY doc_id, line
),
lstats AS (
  SELECT doc_id,
         CAST(SUM(c) AS BIGINT) AS n_lines,
         CAST(SUM(c) - COUNT(*) AS BIGINT) AS n_dup_lines,
         CAST(SUM((c - 1) * ln) AS BIGINT) AS dup_line_chars
  FROM lg GROUP BY doc_id
),
toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS tk FROM t
),
tstats AS (
  SELECT doc_id, GREATEST(len(tk) - 1, 0) AS n_bigrams FROM toks
),
tok2 AS (
  SELECT doc_id,
         tk[CAST(i AS INT)] || ' ' || tk[CAST(i + 1 AS INT)] AS bg
  FROM (SELECT doc_id, tk, unnest(range(1, len(tk))) AS i FROM toks)
),
big AS (
  SELECT doc_id, bg, COUNT(*) AS c FROM tok2 GROUP BY doc_id, bg
),
topb AS (
  SELECT doc_id, bg, c,
         ROW_NUMBER() OVER (PARTITION BY doc_id
                            ORDER BY c DESC, bg ASC) AS rk
  FROM big
)
SELECT t.doc_id,
       COALESCE(l.n_lines, 0) AS n_lines,
       COALESCE(l.n_dup_lines, 0) AS n_dup_lines,
       COALESCE(l.dup_line_chars, 0) AS dup_line_chars,
       CAST(FLOOR(100.0 * COALESCE(l.n_dup_lines, 0)
                  / GREATEST(COALESCE(l.n_lines, 0), 1)) AS BIGINT)
         AS dup_line_pct,
       CAST(ts.n_bigrams AS BIGINT) AS n_bigrams,
       COALESCE(tb.bg, '') AS top_bigram,
       COALESCE(CAST(tb.c AS BIGINT), 0) AS top_bigram_count,
       CAST(FLOOR(100.0 * COALESCE(tb.c, 0)
                  / GREATEST(ts.n_bigrams, 1)) AS BIGINT)
         AS top_bigram_pct
FROM t
LEFT JOIN lstats l ON l.doc_id = t.doc_id
LEFT JOIN tstats ts ON ts.doc_id = t.doc_id
LEFT JOIN topb tb ON tb.doc_id = t.doc_id AND tb.rk = 1
ORDER BY t.doc_id
"""


# ---------------------------------------------------------------------------
# TF-IDF top terms (inverted document frequency, integer-quantized)
# ---------------------------------------------------------------------------
# Scoring: score = tf * ((N * 10^6) // df)  — a log-free idf variant
# (raw N/df, floor-quantized to an integer) chosen so BOTH engines
# rank in exact integer arithmetic: any ln()-based idf would make the
# cross-engine ordering depend on libm rounding at ties.  Monotonicity
# in tf and 1/df — the property that makes idf ranking meaningful —
# is preserved.  Ties break lexicographically by term.
#
# Scale shape: per-doc tf is batch-local (a document is one row, so
# no shuffle).  The df table is VOCAB-sized, not corpus-sized; under
# `_VOCAB_BROADCAST_ROWS` it is collected once and shipped via
# ray.put (one tiny groupby shuffle total, top-k stays in-batch).
# Above the budget — unbounded web vocab — the join path shuffles tf
# rows by term and re-shuffles by doc_id for the top-k (2 exchanges,
# both on the keyed-op backbone).

_TFIDF_K = 5
_IDF_SCALE = 1_000_000
_VOCAB_BROADCAST_ROWS = 2_000_000  # ~32 MB of (term, df) — ray.put budget


def _tf_batch(batch: pa.Table) -> pa.Table:
    """Explode a documents batch into per-doc term counts
    (doc_id, term, tf) — tokenization identical to doc_quality
    (\\S+ over lower(), empty edge tokens dropped)."""
    doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    toks = pc.split_pattern_regex(
        pc.utf8_lower(batch.column("text")), pattern=r"\s+")
    seg = pc.list_value_length(toks).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    flat = pc.list_flatten(toks)
    docix = np.repeat(np.arange(len(doc_ids), dtype=np.int64), seg)
    valid = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    import pandas as pd
    df = pd.DataFrame({
        "doc_id": doc_ids[docix[valid]],
        "term": np.asarray(flat.to_numpy(zero_copy_only=False))[valid],
    })
    tf = df.groupby(["doc_id", "term"], sort=False).size() \
        .reset_index(name="tf")
    return pa.table({
        "doc_id": pa.array(tf["doc_id"].to_numpy(np.int64), pa.int64()),
        "term": pa.array(tf["term"].tolist(), pa.string()),
        "tf": pa.array(tf["tf"].to_numpy(np.int64), pa.int64()),
    })


def _topk_frame(df: "pd.DataFrame", k: int) -> "pd.DataFrame":
    """Per-doc top-k by (score desc, term asc) with rank column —
    vectorized across all docs in the frame."""
    df = df.sort_values(["doc_id", "score", "term"],
                        ascending=[True, False, True], kind="stable")
    df["rk"] = df.groupby("doc_id", sort=False).cumcount() + 1
    return df[df["rk"] <= k].reset_index(drop=True)


def tfidf_top_terms(sf_dir: str, k: int = _TFIDF_K):
    """Top-k TF-IDF terms per document (integer-quantized idf — see
    module comment).  Output: (doc_id, term, tf, df, score, rk).

    Hybrid like dedup_components: vocab-bounded broadcast df (the
    common case — vocab ≪ corpus) vs a two-exchange partitioned join
    for unbounded vocab.
    Exact DuckDB oracle: TFIDF_SQL."""
    import pandas as pd

    from .joins import groupby_agg_partitioned, hash_partitioned_map

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    n_docs = docs.count()
    tf_rows = docs.map_batches(_tf_batch, batch_format="pyarrow",
                               zero_copy_batch=True)

    # df: per-batch partial counts (vocab-sized per batch), then one
    # small groupby-sum — the exploded tf rows are never shuffled for
    # this aggregate
    def partial_df(t: pa.Table) -> pa.Table:
        pdf = pd.DataFrame({"term": t.column("term").to_pylist()})
        c = pdf.groupby("term", sort=False).size().reset_index(name="c")
        return pa.table({
            "term": pa.array(c["term"].tolist(), pa.string()),
            "c": pa.array(c["c"].to_numpy(np.int64), pa.int64()),
        })

    df_tbl = groupby_agg_partitioned(
        tf_rows.map_batches(partial_df, batch_format="pyarrow",
                            zero_copy_batch=True),
        ["term"], {"c": "sum"}).materialize()
    vocab_rows = df_tbl.count()

    if vocab_rows <= _VOCAB_BROADCAST_ROWS:
        # bounded by the budget check — not an unbounded driver read
        # empty partitions come back as schema-less blocks (documented
        # Ray 2.49 footgun) — drop them before concat
        tabs = [t for t in ray.get(df_tbl.to_arrow_refs()) if t.num_rows]
        if not tabs:
            return ray.data.from_arrow(pa.table({
                "doc_id": pa.array([], pa.int64()),
                "term": pa.array([], pa.string()),
                "tf": pa.array([], pa.int64()),
                "df": pa.array([], pa.int64()),
                "score": pa.array([], pa.int64()),
                "rk": pa.array([], pa.int64()),
            }))
        vdf = pa.concat_tables(tabs).to_pandas() \
            .sort_values("term", kind="stable")
        terms_sorted = vdf["term"].to_numpy()
        idf_q = ((np.int64(n_docs) * _IDF_SCALE)
                 // vdf["c"].to_numpy(np.int64))
        handle = ray.put((terms_sorted, idf_q,
                          vdf["c"].to_numpy(np.int64)))

        def score_topk(batch: pa.Table) -> pa.Table:
            from ray_script_extract import _tune_malloc
            _tune_malloc()
            ts, iq, dfc = ray.get(handle)
            tf_b = _tf_batch(batch)
            pdf = tf_b.to_pandas()
            pos = np.searchsorted(ts, pdf["term"].to_numpy())
            pdf["df"] = dfc[pos]
            pdf["score"] = pdf["tf"].to_numpy(np.int64) * iq[pos]
            out = _topk_frame(pdf, k)
            return pa.Table.from_pandas(out, preserve_index=False)

        return sorted_small(docs.map_batches(score_topk, batch_format="pyarrow",
                                zero_copy_batch=True), ["doc_id", "rk"])

    # ---- scale path: partition tf rows AND df rows by term ----------
    tf_tagged = tf_rows.map_batches(
        lambda t: t.append_column("df", pa.array(
            np.zeros(len(t), np.int64), pa.int64())),
        batch_format="pyarrow", zero_copy_batch=True)
    df_tagged = df_tbl.map_batches(
        lambda t: pa.table({
            "doc_id": pa.array(np.full(len(t), -1, np.int64), pa.int64()),
            "term": t.column("term"),
            "tf": pa.array(np.zeros(len(t), np.int64), pa.int64()),
            "df": t.column("c"),
        }), batch_format="pyarrow", zero_copy_batch=True)

    idf_n = np.int64(n_docs) * _IDF_SCALE

    def join_score(part: pd.DataFrame) -> pd.DataFrame:
        from ray_script_extract import _tune_malloc
        _tune_malloc()
        left = part[part["doc_id"] >= 0][["doc_id", "term", "tf"]]
        right = part[part["doc_id"] < 0][["term", "df"]]
        m = left.merge(right, on="term", how="inner")
        m["score"] = m["tf"].to_numpy(np.int64) \
            * (idf_n // m["df"].to_numpy(np.int64))
        return m

    scored = hash_partitioned_map(tf_tagged.union(df_tagged), ["term"],
                                  join_score)
    return sorted_small(hash_partitioned_map(scored, ["doc_id"],
                                lambda d: _topk_frame(d, k)), ["doc_id", "rk"])


TFIDF_SQL = f"""
WITH toks AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '\\S+')) AS term
  FROM documents
),
tf AS (
  SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
  FROM toks GROUP BY doc_id, term
),
dfreq AS (
  SELECT term, CAST(COUNT(*) AS BIGINT) AS df FROM tf GROUP BY term
),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS nn FROM documents),
scored AS (
  SELECT tf.doc_id, tf.term, tf.tf, dfreq.df,
         tf.tf * ((n.nn * {_IDF_SCALE}) // dfreq.df) AS score
  FROM tf JOIN dfreq USING (term) CROSS JOIN n
),
ranked AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY doc_id
                               ORDER BY score DESC, term ASC) AS rk
  FROM scored
)
SELECT doc_id, term, tf, df, score, CAST(rk AS BIGINT) AS rk
FROM ranked WHERE rk <= {_TFIDF_K} ORDER BY doc_id, rk
"""


# ---------------------------------------------------------------------------
# Shared passages (MOSS-style cross-document substring duplicates)
# ---------------------------------------------------------------------------
# Schleimer/Wilkerson/Aiken's winnowing guarantees any shared
# substring of length >= k+w-1 contributes at least one common
# fingerprint, so grouping the winnow table by fp and pairing within
# groups finds substring-level (not whole-doc) duplication — the MOSS
# pipeline.  Two MOSS conventions are load-bearing at scale and
# replicated in the oracle:
#   * fingerprints appearing in more than `max_df` documents are
#     DISCARDED (boilerplate/common-phrase noise — and the cap is what
#     bounds the per-group pair blowup: <= max_df^2/2 pairs per fp);
#   * pairs must share at least `min_shared` fingerprints.

_PASSAGE_MAX_DF = 50
_PASSAGE_MIN_SHARED = 2


def shared_passages(sf_dir: str, max_df: int = _PASSAGE_MAX_DF,
                    min_shared: int = _PASSAGE_MIN_SHARED):
    """Document pairs sharing >= min_shared winnow fingerprints:
    (id_a, id_b, n_shared).  Substring-level near-dup complement to
    the set-level minhash family.

    Scale shape: distinct (doc_id, fp) is batch-local (a doc is one
    row); ONE shuffle co-locates each fp's postings, the df cap
    bounds within-group pairing, and a second keyed reduce sums the
    per-fp partial pair counts.  Exact DuckDB oracle
    (SHARED_PASSAGES_SQL) reuses the winnow CTE."""
    import pandas as pd

    from .joins import groupby_agg_partitioned, hash_partitioned_map

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def doc_fps(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        out_doc, out_fp = [], []
        for did, text in zip(doc_ids, batch.column("text").to_pylist()):
            fps = np.unique(_winnow_doc(text)[:, 1])
            out_doc.append(np.full(len(fps), did, np.int64))
            out_fp.append(fps)
        return pa.table({
            "doc_id": pa.array(np.concatenate(out_doc) if out_doc
                               else np.array([], np.int64), pa.int64()),
            "fp": pa.array(np.concatenate(out_fp) if out_fp
                           else np.array([], np.int64), pa.int64()),
        })

    postings = ds.map_batches(doc_fps, batch_format="pyarrow",
                              zero_copy_batch=True)

    def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
        from ray_script_extract import _tune_malloc
        _tune_malloc()
        if not len(df):
            return pd.DataFrame({"id_a": pd.Series([], dtype=np.int64),
                                 "id_b": pd.Series([], dtype=np.int64),
                                 "n": pd.Series([], dtype=np.int64)})
        cnt = df.groupby("fp", sort=False)["doc_id"].transform("size")
        df = df[(cnt >= 2) & (cnt <= max_df)]
        m = df.merge(df, on="fp")
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        out = m.groupby(["doc_id_x", "doc_id_y"], sort=False) \
            .size().reset_index(name="n")
        return pd.DataFrame({
            "id_a": out["doc_id_x"].to_numpy(np.int64),
            "id_b": out["doc_id_y"].to_numpy(np.int64),
            "n": out["n"].to_numpy(np.int64),
        })

    partial = hash_partitioned_map(postings, ["fp"], pair_partial)
    summed = groupby_agg_partitioned(partial, ["id_a", "id_b"],
                                     {"n": "sum"})

    def finish(t: pa.Table) -> pa.Table:
        keep = pc.greater_equal(t.column("n"), min_shared)
        t = t.filter(keep)
        return pa.table({
            "id_a": t.column("id_a"),
            "id_b": t.column("id_b"),
            "n_shared": t.column("n"),
        })

    return sorted_small(summed.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True), ["id_a", "id_b"])


SHARED_PASSAGES_SQL = f"""
WITH fps AS (
{WINNOW_SQL.replace("ORDER BY doc_id, pos", "")}
),
dfp AS (SELECT DISTINCT doc_id, fp FROM fps),
good AS (
  SELECT fp FROM dfp GROUP BY fp
  HAVING COUNT(*) BETWEEN 2 AND {_PASSAGE_MAX_DF}
),
pairs AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b
  FROM dfp a
  JOIN dfp b ON a.fp = b.fp AND a.doc_id < b.doc_id
  JOIN good g ON g.fp = a.fp
)
SELECT id_a, id_b, CAST(COUNT(*) AS BIGINT) AS n_shared
FROM pairs GROUP BY id_a, id_b
HAVING COUNT(*) >= {_PASSAGE_MIN_SHARED}
ORDER BY id_a, id_b
"""


# ---------------------------------------------------------------------------
# Substring-level dedup: scrub repeated passages
# ---------------------------------------------------------------------------
# Lee et al., "Deduplicating Training Data Makes Language Models
# Better" (ACL 2022) removes VERBATIM repeated substrings from the
# corpus rather than whole near-dup documents.  Their exact tool is a
# monolithic suffix array; the distributed re-expression here rides
# the winnowing fingerprints (SIGMOD'03) the repo already computes:
# inside a long verbatim repeat every k-gram matches, the w-window
# winnow picks the same interior positions in every copy, and selected
# positions are at most w apart — with w < k the selected k-gram
# ranges CHAIN, so a repeated passage is covered contiguously (modulo
# ~k+w chars of edge slack).  Scrubbing the duplicated fingerprints'
# k-grams therefore excises the passage body while a one-off phrase
# (a single short island) is protected by the minimum island length.
#
# Semantics (replicated verbatim in SCRUB_PASSAGES_SQL):
#   * fingerprint occurrences = the exact WINNOW_SQL rows;
#   * for every fp value, the globally FIRST occurrence (min
#     (doc_id, pos)) is canonical and kept; every later occurrence —
#     in another doc or the same doc — is a victim;
#   * victim ranges [pos, pos + k - 1] (1-based, inclusive) merge
#     when they overlap or touch (next.s <= prev.e + 1) into islands;
#   * only islands of >= min_scrub chars are excised;
#   * output per document: n_scrubbed_ranges, n_scrubbed_chars and
#     the excised clean_text (docs without islands pass through).

_SCRUB_MIN_LEN = 24


def scrub_repeated_passages(sf_dir: str, min_scrub: int = _SCRUB_MIN_LEN):
    """Remove verbatim repeated passages, keeping the globally-first
    occurrence: (doc_id, n_scrubbed_ranges, n_scrubbed_chars,
    clean_text).

    Scale shape — TWO keyed exchanges, document text moving exactly
    once: (1) fingerprint rows exchange on fp, each group drops its
    first occurrence (victims are (doc_id, pos) int pairs —
    O(duplicated fingerprints), not O(corpus)); (2) documents
    LEFT-join the victim rows on doc_id, and the island merge +
    min-length filter + excision all run fused in the join task
    (victims of a doc co-locate with the doc there by construction,
    so a separate island-merge exchange would be pure overhead)."""
    import pandas as pd

    from .joins import hash_join_via_groupby, hash_partitioned_map

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def doc_fps(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        out_doc, out_pos, out_fp = [], [], []
        for did, text in zip(doc_ids, batch.column("text").to_pylist()):
            fps = _winnow_doc(text)
            out_doc.append(np.full(len(fps), did, np.int64))
            out_pos.append(fps[:, 0])
            out_fp.append(fps[:, 1])
        cat = (lambda xs: np.concatenate(xs) if xs
               else np.array([], np.int64))
        return pa.table({
            "doc_id": pa.array(cat(out_doc), pa.int64()),
            "pos": pa.array(cat(out_pos), pa.int64()),
            "fp": pa.array(cat(out_fp), pa.int64()),
        })

    occurrences = ds.map_batches(doc_fps, batch_format="pyarrow",
                                 zero_copy_batch=True)

    def victims(df: pd.DataFrame) -> pd.DataFrame:
        # all of an fp's occurrences co-locate; the global first is
        # the partition-local first
        df = df.sort_values(["fp", "doc_id", "pos"], kind="stable")
        dup = df[df["fp"].duplicated(keep="first")]
        return pd.DataFrame({
            "doc_id": dup["doc_id"].to_numpy(np.int64),
            "pos": dup["pos"].to_numpy(np.int64),
        })

    victim_rows = hash_partitioned_map(occurrences, ["fp"], victims)

    def excise(df: pd.DataFrame) -> pd.DataFrame:
        out_id: "list[int]" = []
        out_nr: "list[int]" = []
        out_nc: "list[int]" = []
        out_txt: "list[str]" = []
        miss = df["pos"].isna()
        for did, text in zip(df.loc[miss, "doc_id"], df.loc[miss, "text"]):
            out_id.append(int(did))
            out_nr.append(0)
            out_nc.append(0)
            out_txt.append(text)
        hit = df[~miss]
        for did, g in hit.groupby("doc_id", sort=False):
            text = g["text"].iloc[0]
            s = np.sort(g["pos"].to_numpy(np.int64))
            e = s + _WINNOW_K - 1
            # equal-length sorted ranges: previous end is e[i-1]
            new = np.r_[True, s[1:] > e[:-1] + 1]
            starts = s[new]
            ends = np.maximum.reduceat(e, np.flatnonzero(new))
            keep = ends - starts + 1 >= min_scrub
            starts, ends = starts[keep], ends[keep]
            out_id.append(int(did))
            out_nr.append(len(starts))
            out_nc.append(int((ends - starts + 1).sum()))
            parts, prev = [], 0           # prev = 0-based segment start
            for a, b in zip(starts, ends):  # 1-based inclusive bounds
                parts.append(text[prev:a - 1])
                prev = b
            parts.append(text[prev:])
            out_txt.append("".join(parts))
        return pd.DataFrame({
            "doc_id": np.asarray(out_id, np.int64),
            "n_scrubbed_ranges": np.asarray(out_nr, np.int64),
            "n_scrubbed_chars": np.asarray(out_nc, np.int64),
            "clean_text": out_txt,
        })

    docs_schema = pa.schema([("doc_id", pa.int64()),
                             ("text", pa.string())])
    victims_schema = pa.schema([("doc_id", pa.int64()),
                                ("pos", pa.int64())])
    out = hash_join_via_groupby(ds, victim_rows, "doc_id", "doc_id",
                                how="left", post=excise,
                                left_schema=docs_schema,
                                right_schema=victims_schema)
    return sorted_small(out, "doc_id")


SCRUB_PASSAGES_SQL = f"""
WITH fps AS (
{WINNOW_SQL.replace("ORDER BY doc_id, pos", "")}
),
vict AS (
  SELECT doc_id, pos FROM (
    SELECT doc_id, pos,
           ROW_NUMBER() OVER (PARTITION BY fp
                              ORDER BY doc_id, pos) AS rn
    FROM fps) WHERE rn > 1
),
rng AS (
  SELECT DISTINCT doc_id, pos AS s, pos + {_WINNOW_K - 1} AS e FROM vict
),
marked AS (
  SELECT doc_id, s, e,
         CASE WHEN LAG(e) OVER w IS NULL
                OR s > LAG(e) OVER w + 1 THEN 1 ELSE 0 END AS brk
  FROM rng
  WINDOW w AS (PARTITION BY doc_id ORDER BY s)
),
grp AS (
  SELECT doc_id, s, e,
         SUM(brk) OVER (PARTITION BY doc_id ORDER BY s) AS island
  FROM marked
),
isl AS (
  SELECT doc_id, MIN(s) AS s, MAX(e) AS e
  FROM grp GROUP BY doc_id, island
  HAVING MAX(e) - MIN(s) + 1 >= {_SCRUB_MIN_LEN}
),
seg AS (
  SELECT doc_id,
         COALESCE(LAG(e) OVER (PARTITION BY doc_id ORDER BY s), 0) + 1 AS ks,
         s - 1 AS ke
  FROM isl
  UNION ALL
  SELECT i.doc_id, MAX(i.e) + 1 AS ks, MAX(length(d.text)) AS ke
  FROM isl i JOIN documents d ON d.doc_id = i.doc_id
  GROUP BY i.doc_id
),
clean AS (
  SELECT s.doc_id,
         COALESCE(string_agg(
           CASE WHEN s.ke >= s.ks
                THEN substring(d.text, CAST(s.ks AS INT),
                               CAST(s.ke - s.ks + 1 AS INT))
                ELSE '' END, '' ORDER BY s.ks), '') AS clean_text
  FROM seg s JOIN documents d ON d.doc_id = s.doc_id
  GROUP BY s.doc_id
),
stats AS (
  SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_scrubbed_ranges,
         CAST(SUM(e - s + 1) AS BIGINT) AS n_scrubbed_chars
  FROM isl GROUP BY doc_id
)
SELECT d.doc_id,
       COALESCE(st.n_scrubbed_ranges, 0) AS n_scrubbed_ranges,
       COALESCE(st.n_scrubbed_chars, 0) AS n_scrubbed_chars,
       COALESCE(c.clean_text, d.text) AS clean_text
FROM documents d
LEFT JOIN stats st ON st.doc_id = d.doc_id
LEFT JOIN clean c ON c.doc_id = d.doc_id
ORDER BY d.doc_id
"""


# ---------------------------------------------------------------------------
# BM25 keyword search (integer-quantized rational BM25)
# ---------------------------------------------------------------------------
# Classic BM25 needs ln() in the idf, which no two engines compute
# bit-identically — so, like tfidf's quantized idf above, the scoring
# is restated in EXACT integer arithmetic replicable in DuckDB BIGINT:
#
#   idf_q(t)   = (2*(N - df) + 1) * SCALE // (2*df + 1)
#                (the Robertson idf ratio (N-df+0.5)/(df+0.5), scaled,
#                 without the ln — rank-monotone in df, integer-exact)
#   tf-part    = tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl))
#                with k1 = 6/5, b = 3/4 and avgdl = L/N this is the
#                rational  22*tf*L / (10*tf*L + 3*L + 9*dl*N)
#   score_q    = SUM_t  idf_q(t) * 22 * tf * L // (10*tf*L + 3*L + 9*dl*N)
#
# Overflow bound: idf_q*22*tf*L < 2^63 holds while N*SCALE*22*tf_max*L
# stays under 9.2e18 — comfortable through sf1 (N=5e4, L=4.5e6 →
# ~1.6e18); at larger corpora drop SCALE a decade per 100× docs.

_BM25_TERMS = ("dup", "join", "vector", "stream")
_BM25_SCALE = 10_000
_BM25_K = 10


def bm25_search(sf_dir: str, terms=_BM25_TERMS, k: int = _BM25_K):
    """Top-k documents for a fixed keyword query under quantized BM25.

    One text scan: each batch emits sparse postings (doc_id, term,
    tf, dl) for the broadcast query terms (a tiny closure constant —
    no index shuffle for ad-hoc search) plus ONE stats row per batch
    (doc_id = -1 carrying the batch's doc count and token sum).  The
    materialized projection is bounded by N*|terms| rows; corpus
    stats (N, L) and per-term df reduce from it without touching the
    text again.  Scoring is a shuffle-free map over the postings;
    the per-doc sum rides ONE doc_id exchange on the keyed-op
    backbone with a per-partition top-k prune, so the global sort
    sees ≤ k rows per partition."""
    import pandas as pd

    from .joins import hash_partitioned_map

    term_list = sorted(terms)
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])

    def project(batch: pa.Table) -> pa.Table:
        from ray_script_extract import _tune_malloc
        _tune_malloc()
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch.column("text")), pattern=r"\s+")
        seg = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(toks)
        docix = np.repeat(np.arange(len(doc_ids), dtype=np.int64), seg)
        valid = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        docix = docix[valid]
        dl = np.bincount(docix, minlength=len(doc_ids)).astype(np.int64)
        hit = pc.is_in(flat, value_set=pa.array(term_list)) \
            .to_numpy(zero_copy_only=False)[valid]
        tfd = pd.DataFrame({
            "d": docix[hit],
            "term": np.asarray(flat.to_numpy(zero_copy_only=False))
            [valid][hit],
        }).groupby(["d", "term"], sort=False).size().reset_index(name="tf")
        d = tfd["d"].to_numpy(np.int64)
        return pa.table({
            "doc_id": pa.array(
                np.concatenate([doc_ids[d], [-1]]), pa.int64()),
            "term": pa.array(tfd["term"].tolist() + [""], pa.string()),
            "tf": pa.array(
                np.concatenate([tfd["tf"].to_numpy(np.int64),
                                [len(doc_ids)]]), pa.int64()),
            "dl": pa.array(
                np.concatenate([dl[d], [int(dl.sum())]]), pa.int64()),
        })

    proj = docs.map_batches(project, batch_format="pyarrow",
                            zero_copy_batch=True).materialize()

    # corpus stats: ≤ one row per input block
    stats = proj.filter(expr="doc_id < 0") \
        .groupby(None).aggregate(Sum("tf", alias_name="n"),
                                 Sum("dl", alias_name="l")).to_pandas()
    n_docs = int(stats["n"].iloc[0]) if len(stats) else 0
    total_l = int(stats["l"].iloc[0]) if len(stats) else 0

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "score_q": pa.array([], pa.int64()),
                      "n_terms": pa.array([], pa.int64())})
    postings = proj.filter(expr="doc_id >= 0")

    # df per query term: bounded |terms|-row aggregate
    df_rows = postings.groupby("term") \
        .aggregate(Count(alias_name="df")).to_pandas()
    if not len(df_rows):
        return ray.data.from_arrow(empty)
    idf_q = {
        t: (2 * (n_docs - int(c)) + 1) * _BM25_SCALE // (2 * int(c) + 1)
        for t, c in zip(df_rows["term"], df_rows["df"])}

    def score(batch: pa.Table) -> pa.Table:
        tf = batch.column("tf").to_numpy(zero_copy_only=False)
        dl = batch.column("dl").to_numpy(zero_copy_only=False)
        idf = np.array([idf_q[t] for t in
                        batch.column("term").to_pylist()], np.int64)
        s = (idf * 22 * tf * total_l
             // (10 * tf * total_l + 3 * total_l + 9 * dl * n_docs))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "score_q": pa.array(s, pa.int64())})

    def per_doc_topk(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("doc_id", as_index=False) \
              .agg(score_q=("score_q", "sum"), n_terms=("score_q", "size"))
        return g.sort_values(["score_q", "doc_id"],
                             ascending=[False, True]).head(k)

    scored = hash_partitioned_map(
        postings.map_batches(score, batch_format="pyarrow",
                             zero_copy_batch=True),
        ["doc_id"], per_doc_topk)
    return sorted_small(scored, ["score_q", "doc_id"],
                       descending=[True, False]).limit(k)


BM25_SQL = f"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '\\S+')) AS term
  FROM documents),
dl AS (SELECT doc_id, COUNT(*) AS dl FROM tok GROUP BY doc_id),
stats AS (SELECT (SELECT COUNT(*) FROM documents) AS n,
                 (SELECT COALESCE(SUM(dl), 0) FROM dl) AS l),
tf AS (SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf FROM tok
       WHERE term IN ('dup', 'join', 'stream', 'vector')
       GROUP BY doc_id, term),
dfq AS (SELECT term, CAST(COUNT(*) AS BIGINT) AS df FROM tf GROUP BY term),
scored AS (
  SELECT tf.doc_id,
         CAST(SUM(((2*(n - df) + 1) * {_BM25_SCALE} // (2*df + 1))
                  * 22 * tf * l
                  // (10*tf*l + 3*l + 9*dl.dl*n)) AS BIGINT) AS score_q,
         COUNT(*) AS n_terms
  FROM tf
  JOIN dfq USING (term)
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats
  GROUP BY tf.doc_id)
SELECT doc_id, score_q, n_terms
FROM scored
ORDER BY score_q DESC, doc_id
LIMIT {_BM25_K}
"""


# ---------------------------------------------------------------------------
# Bigram coverage (n-gram-LM-flavored fluency signal)
# ---------------------------------------------------------------------------
# A cheap stand-in for LM-perplexity filtering (CCNet/KenLM style)
# with EXACT integer semantics: for each document, how many of its
# adjacent-token bigram occurrences appear at least `min_count` times
# in the whole corpus (own occurrences included)?  Fluent text reuses
# common collocations; garbled or boilerplate-stitched text is full of
# corpus-unique bigrams.  Output (doc_id, n_bigrams, n_covered) — the
# caller thresholds the ratio; keeping the two integers (not the
# float ratio) is what keeps the oracle exact.

_BG_MIN_COUNT = 2
_BG_BROADCAST_ROWS = 2_000_000  # same budget as the tfidf vocab


def _bigram_rows(batch: pa.Table):
    """(doc_ids, docix, unique bigram strings, inverse) for a
    documents batch — adjacent-token pairs within each doc,
    tokenization identical to _tf_batch.

    Bigrams come back FACTORIZED (``ubg[pinv]`` reconstructs the
    per-occurrence strings): words factorize to int codes (hash-based,
    C speed), adjacent code pairs pack into one int64, and only the
    UNIQUE pairs ever materialize as strings — string construction is
    O(unique bigrams), not O(tokens).  Web corpora repeat bigrams
    heavily, and every consumer either counts occurrences (bincount
    over ``pinv``) or probes a table (probe the uniques, gather
    verdicts through ``pinv``), so nothing downstream needs the
    per-occurrence strings except the explicit join path."""
    import pandas as pd
    doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    toks = pc.split_pattern_regex(
        pc.utf8_lower(batch.column("text")), pattern=r"\s+")
    seg = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks)
    docix = np.repeat(np.arange(len(doc_ids), dtype=np.int64), seg)
    valid = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    docix = docix[valid]
    words = np.asarray(flat.to_numpy(zero_copy_only=False))[valid]
    if len(words) < 2:
        return (doc_ids, np.empty(0, np.int64), np.empty(0, object),
                np.empty(0, np.int64))
    adj = docix[:-1] == docix[1:]
    codes, uniq = pd.factorize(words)
    nv = np.int64(len(uniq))
    pair = codes[:-1][adj].astype(np.int64) * nv + codes[1:][adj]
    pinv, upair = pd.factorize(pair)
    uw = np.asarray(uniq, dtype=object)
    ubg = uw[upair // nv] + " " + uw[upair % nv]
    return doc_ids, docix[:-1][adj], ubg, pinv


def doc_bigram_coverage(sf_dir: str, min_count: int = _BG_MIN_COUNT):
    """Per-doc bigram coverage counts (doc_id, n_bigrams, n_covered).

    Same hybrid as tfidf: global bigram counts reduce from per-batch
    partials on the keyed backbone; if the bigram vocabulary fits the
    broadcast budget the coverage pass is SHUFFLE-FREE (sorted
    (bigram, count) arrays via ray.put, searchsorted + bincount per
    batch); otherwise occurrences join counts on one bigram exchange
    and per-doc sums ride a doc_id exchange, with zero-stub rows
    keeping bigram-less docs in the result."""
    import pandas as pd

    from .joins import groupby_agg_partitioned, hash_partitioned_map

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])

    def partial_counts(batch: pa.Table) -> pa.Table:
        _, _, ubg, pinv = _bigram_rows(batch)
        c = np.bincount(pinv, minlength=len(ubg)).astype(np.int64)
        return pa.table({
            "bg": pa.array(ubg, pa.string()),
            "c": pa.array(c, pa.int64()),
        })

    cnt_tbl = groupby_agg_partitioned(
        docs.map_batches(partial_counts, batch_format="pyarrow",
                         zero_copy_batch=True),
        ["bg"], {"c": "sum"}).materialize()

    if cnt_tbl.count() <= _BG_BROADCAST_ROWS:
        tabs = [t for t in ray.get(cnt_tbl.to_arrow_refs()) if t.num_rows]
        if tabs:
            vdf = pa.concat_tables(tabs).to_pandas() \
                .sort_values("bg", kind="stable")
            handle = ray.put((vdf["bg"].to_numpy(dtype=object),
                              vdf["c"].to_numpy(np.int64)))
        else:
            handle = ray.put((np.empty(0, object), np.empty(0, np.int64)))

        def cover(batch: pa.Table) -> pa.Table:
            from ray_script_extract import _tune_malloc
            _tune_malloc()
            bgs, cs = ray.get(handle)
            doc_ids, dix, ubg, pinv = _bigram_rows(batch)
            n_docs = len(doc_ids)
            if len(ubg) and len(bgs):
                pos = np.minimum(np.searchsorted(bgs, ubg), len(bgs) - 1)
                hit_u = (bgs[pos] == ubg) & (cs[pos] >= min_count)
                hit = hit_u[pinv]
            else:
                hit = np.zeros(len(pinv), bool)
            return pa.table({
                "doc_id": pa.array(doc_ids, pa.int64()),
                "n_bigrams": pa.array(
                    np.bincount(dix, minlength=n_docs).astype(np.int64),
                    pa.int64()),
                "n_covered": pa.array(
                    np.bincount(dix, weights=hit.astype(np.float64),
                                minlength=n_docs).astype(np.int64),
                    pa.int64()),
            })

        return sorted_small(docs.map_batches(cover, batch_format="pyarrow",
                                zero_copy_batch=True), "doc_id")

    # ---- scale path: occurrences join counts by bigram ---------------
    def occurrences(batch: pa.Table) -> pa.Table:
        doc_ids, dix, ubg, pinv = _bigram_rows(batch)
        bg = ubg[pinv] if len(pinv) else np.empty(0, object)
        return pa.table({
            "doc_id": pa.array(doc_ids[dix] if len(dix) else
                               np.empty(0, np.int64), pa.int64()),
            "bg": pa.array(bg, pa.string()),
            "c": pa.array(np.zeros(len(bg), np.int64), pa.int64()),
        })

    occ = docs.map_batches(occurrences, batch_format="pyarrow",
                           zero_copy_batch=True)
    cnt_tagged = cnt_tbl.map_batches(
        lambda t: pa.table({
            "doc_id": pa.array(np.full(len(t), -1, np.int64), pa.int64()),
            "bg": t.column("bg"),
            "c": t.column("c"),
        }), batch_format="pyarrow", zero_copy_batch=True)

    def join_cover(part: pd.DataFrame) -> pd.DataFrame:
        from ray_script_extract import _tune_malloc
        _tune_malloc()
        left = part[part["doc_id"] >= 0][["doc_id", "bg"]]
        right = part[part["doc_id"] < 0][["bg", "c"]]
        m = left.merge(right, on="bg", how="inner")
        g = m.groupby("doc_id", as_index=False).agg(
            n_bigrams=("c", "size"),
            n_covered=("c", lambda s: int((s >= min_count).sum())))
        return g

    joined = hash_partitioned_map(occ.union(cnt_tagged), ["bg"], join_cover)

    # zero stubs keep bigram-less docs in the result
    stubs = docs.map_batches(
        lambda b: pa.table({
            "doc_id": b.column("doc_id"),
            "n_bigrams": pa.array(
                np.zeros(len(b), np.int64), pa.int64()),
            "n_covered": pa.array(
                np.zeros(len(b), np.int64), pa.int64()),
        }), batch_format="pyarrow", zero_copy_batch=True)

    return sorted_small(hash_partitioned_map(
        joined.union(stubs), ["doc_id"],
        lambda d: d.groupby("doc_id", as_index=False)
                   .agg({"n_bigrams": "sum", "n_covered": "sum"})), "doc_id")


BIGRAM_COVERAGE_SQL = f"""
WITH tok AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS t
  FROM documents),
big AS (
  SELECT doc_id,
         unnest(list_transform(generate_series(1, len(t) - 1),
                               i -> t[i] || ' ' || t[i + 1])) AS bg
  FROM tok),
cnt AS (SELECT bg, CAST(COUNT(*) AS BIGINT) AS c FROM big GROUP BY bg),
cov AS (
  SELECT doc_id,
         CAST(COUNT(*) AS BIGINT) AS n_bigrams,
         CAST(SUM(CASE WHEN c >= {_BG_MIN_COUNT} THEN 1 ELSE 0 END)
              AS BIGINT) AS n_covered
  FROM big JOIN cnt USING (bg) GROUP BY doc_id)
SELECT d.doc_id,
       COALESCE(cov.n_bigrams, 0) AS n_bigrams,
       COALESCE(cov.n_covered, 0) AS n_covered
FROM documents d LEFT JOIN cov ON d.doc_id = cov.doc_id
ORDER BY d.doc_id
"""

# ---------------------------------------------------------------------------
# Word-association mining: integer-exact PMI phrase scores
# ---------------------------------------------------------------------------
# word2vec-style phrase detection (Mikolov et al. 2013 §4's bigram
# score): rank adjacent-word pairs by how much more often they occur
# together than independence predicts.  The score is kept integer-
# exact — score = pair_count·N·10^6 // (c(w1)·c(w2)) with N the total
# token count — so the DuckDB oracle matches bit-for-bit.  (At
# 10^12-token scale the numerator needs 128-bit math; DuckDB promotes
# to HUGEINT, the Ray side would switch the one multiply to Python
# ints — the int64 path is exact for any corpus under ~10^9 tokens
# with pair counts under ~10^4, far past the bench scales.)
#
# Scale design: ONE combined exchange builds both unigram and pair
# counts (tokens never contain spaces, so "w" and "w1 w2" keys share
# a namespace); the pair side then needs c(w1)/c(w2) — broadcast the
# vocab (sorted arrays via ray.put) when it fits the same row budget
# as the tfidf vocab, else two more keyed exchanges join counts in.
# Per-block top-k
# pruning bounds the final sort input by k·blocks.

_PMI_MIN_COUNT = 5
_PMI_K = 50
_PMI_SCALE = 1_000_000
_PMI_BROADCAST_ROWS = 2_000_000

_PMI_SCHEMA = pa.schema([("w1", pa.string()), ("w2", pa.string()),
                         ("pair_count", pa.int64()),
                         ("score", pa.int64())])


def _pmi_partial(batch: pa.Table) -> pa.Table:
    """Per-batch unigram + adjacent-pair counts, one output table:
    key = "w" (unigram) or "w1 w2" (pair), c = occurrences.
    Tokenization identical to _tf_batch/_bigram_rows (lower, \\s+
    split, empties dropped); pairs never span documents."""
    import pandas as pd
    toks = pc.split_pattern_regex(
        pc.utf8_lower(batch.column("text")), pattern=r"\s+")
    seg = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks)
    docix = np.repeat(np.arange(len(seg), dtype=np.int64), seg)
    valid = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    docix = docix[valid]
    words = np.asarray(flat.to_numpy(zero_copy_only=False))[valid]
    if not len(words):
        return pa.table({"k": pa.array([], pa.string()),
                         "c": pa.array([], pa.int64())})
    codes, uniq = pd.factorize(words)
    ucnt = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
    keys = np.asarray(uniq, dtype=object)
    cnts = ucnt
    if len(words) >= 2:
        adj = docix[:-1] == docix[1:]
        nv = np.int64(len(uniq))
        pair = codes[:-1][adj].astype(np.int64) * nv + codes[1:][adj]
        if len(pair):
            pinv, upair = pd.factorize(pair)
            pcnt = np.bincount(pinv, minlength=len(upair)).astype(np.int64)
            uw = np.asarray(uniq, dtype=object)
            ubg = uw[upair // nv] + " " + uw[upair % nv]
            keys = np.concatenate([keys, ubg])
            cnts = np.concatenate([cnts, pcnt])
    return pa.table({"k": pa.array(keys, pa.string()),
                     "c": pa.array(cnts, pa.int64())})


def word_pmi_pairs(sf_dir: str, min_count: int = _PMI_MIN_COUNT,
                   k: int = _PMI_K):
    """Top-k adjacent word pairs by integer-scaled PMI
    (w1, w2, pair_count, score), score DESC / w1 / w2 ties."""
    import pandas as pd

    from .joins import groupby_agg_partitioned, hash_partitioned_map

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["text"])
    cnt = groupby_agg_partitioned(
        docs.map_batches(_pmi_partial, batch_format="pyarrow",
                         zero_copy_batch=True),
        ["k"], {"c": "sum"}).materialize()

    def _is_pair(t: pa.Table) -> pa.Table:
        m = pc.match_substring(t.column("k"), " ")
        return t.filter(pc.and_(m, pc.greater_equal(
            t.column("c"), pa.scalar(min_count, pa.int64()))))

    def _is_uni(t: pa.Table) -> pa.Table:
        return t.filter(pc.invert(pc.match_substring(t.column("k"), " ")))

    uni = cnt.map_batches(_is_uni, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()
    pairs = cnt.map_batches(_is_pair, batch_format="pyarrow",
                            zero_copy_batch=True)
    n_tokens = int(uni.sum("c") or 0)
    if not n_tokens:
        return ray.data.from_arrow(_PMI_SCHEMA.empty_table())

    def _score_tbl(w1, w2, pcv, c1, c2) -> pa.Table:
        score = pcv * np.int64(n_tokens) * np.int64(_PMI_SCALE) \
            // (c1 * c2)
        t = pa.table({"w1": pa.array(w1, pa.string()),
                      "w2": pa.array(w2, pa.string()),
                      "pair_count": pa.array(pcv, pa.int64()),
                      "score": pa.array(score, pa.int64())})
        # per-block top-k prune bounds the final merge
        return t.sort_by([("score", "descending"), ("w1", "ascending"),
                          ("w2", "ascending")]).slice(0, k)

    if uni.count() <= _PMI_BROADCAST_ROWS:
        tabs = [t for t in ray.get(uni.to_arrow_refs()) if t.num_rows]
        if tabs:
            vdf = pa.concat_tables(tabs).to_pandas() \
                .sort_values("k", kind="stable")
            handle = ray.put((vdf["k"].to_numpy(dtype=object),
                              vdf["c"].to_numpy(np.int64)))
        else:
            handle = ray.put((np.empty(0, object), np.empty(0, np.int64)))

        def score_bcast(t: pa.Table) -> pa.Table:
            if not t.num_rows:
                return _PMI_SCHEMA.empty_table()
            ws, cs = ray.get(handle)
            split = pc.split_pattern(t.column("k"), " ")
            w1 = np.asarray(pc.list_element(split, 0)
                            .to_numpy(zero_copy_only=False))
            w2 = np.asarray(pc.list_element(split, 1)
                            .to_numpy(zero_copy_only=False))
            pos1 = np.minimum(np.searchsorted(ws, w1), len(ws) - 1)
            pos2 = np.minimum(np.searchsorted(ws, w2), len(ws) - 1)
            # every pair word IS in the vocab by construction
            c1, c2 = cs[pos1], cs[pos2]
            return _score_tbl(w1, w2,
                              t.column("c").to_numpy(zero_copy_only=False),
                              c1, c2)

        scored = pairs.map_batches(score_bcast, batch_format="pyarrow",
                                   zero_copy_batch=True)
        return sorted_small(scored, ["score", "w1", "w2"],
                            descending=[True, False, False],
                            schema=_PMI_SCHEMA).limit(k)

    # ---- scale path: two keyed exchanges attach c(w1), c(w2) --------
    def _tag_uni(t: pa.Table) -> pa.Table:
        return pa.table({"w": t.column("k"),
                         "mate": pa.array([""] * len(t), pa.string()),
                         "pair_count": pa.array(
                             np.full(len(t), -1, np.int64), pa.int64()),
                         "cw": t.column("c")})

    def _pair_rows_w1(t: pa.Table) -> pa.Table:
        split = pc.split_pattern(t.column("k"), " ")
        return pa.table({"w": pc.list_element(split, 0),
                         "mate": pc.list_element(split, 1),
                         "pair_count": t.column("c"),
                         "cw": pa.array(np.zeros(len(t), np.int64),
                                        pa.int64())})

    def _join_cw(part: "pd.DataFrame") -> "pd.DataFrame":
        left = part[part["pair_count"] >= 0]
        right = part[part["pair_count"] < 0][["w", "cw"]] \
            .rename(columns={"cw": "cj"})
        m = left.merge(right, on="w", how="inner")
        m["cw"] = m.pop("cj")
        return m

    stage1 = hash_partitioned_map(
        pairs.map_batches(_pair_rows_w1, batch_format="pyarrow",
                          zero_copy_batch=True)
        .union(uni.map_batches(_tag_uni, batch_format="pyarrow",
                               zero_copy_batch=True)),
        ["w"], _join_cw)

    # re-key on the mate word: carry (w1, w2, pair_count, c1) rows
    def _rekey(t: pa.Table) -> pa.Table:
        return pa.table({"w": t.column("mate"),
                         "mate": t.column("w"),
                         "pair_count": t.column("pair_count"),
                         "cw": t.column("cw")})

    def _join_and_score(part: "pd.DataFrame") -> "pd.DataFrame":
        left = part[part["pair_count"] >= 0]
        right = part[part["pair_count"] < 0][["w", "cw"]] \
            .rename(columns={"cw": "c2"})
        m = left.merge(right, on="w", how="inner")
        if not len(m):
            return pd.DataFrame({"w1": pd.Series(dtype=object),
                                 "w2": pd.Series(dtype=object),
                                 "pair_count": pd.Series(dtype=np.int64),
                                 "score": pd.Series(dtype=np.int64)})
        pcv = m["pair_count"].to_numpy(np.int64)
        score = pcv * np.int64(n_tokens) * np.int64(_PMI_SCALE) \
            // (m["cw"].to_numpy(np.int64) * m["c2"].to_numpy(np.int64))
        out = pd.DataFrame({"w1": m["mate"].to_numpy(object),
                            "w2": m["w"].to_numpy(object),
                            "pair_count": pcv, "score": score})
        return out.sort_values(["score", "w1", "w2"],
                               ascending=[False, True, True]).head(k)

    stage2 = hash_partitioned_map(
        stage1.map_batches(_rekey, batch_format="pyarrow",
                           zero_copy_batch=True)
        .union(uni.map_batches(_tag_uni, batch_format="pyarrow",
                               zero_copy_batch=True)),
        ["w"], _join_and_score)
    return sorted_small(stage2, ["score", "w1", "w2"],
                        descending=[True, False, False],
                        schema=_PMI_SCHEMA).limit(k)


WORD_PMI_SQL = f"""
WITH tok AS (
  SELECT regexp_extract_all(lower(text), '\\S+') AS t FROM documents),
uni AS (
  SELECT w, CAST(COUNT(*) AS BIGINT) AS c
  FROM (SELECT unnest(t) AS w FROM tok) GROUP BY w),
tot AS (SELECT CAST(SUM(c) AS BIGINT) AS n FROM uni),
big AS (
  SELECT unnest(list_transform(generate_series(1, len(t) - 1),
                               i -> t[i] || ' ' || t[i + 1])) AS bg
  FROM tok),
pcnt AS (SELECT bg, CAST(COUNT(*) AS BIGINT) AS pair_count
         FROM big GROUP BY bg),
scored AS (
  SELECT string_split(bg, ' ')[1] AS w1, string_split(bg, ' ')[2] AS w2,
         pair_count,
         CAST(pair_count * n * {_PMI_SCALE} // (u1.c * u2.c)
              AS BIGINT) AS score
  FROM pcnt CROSS JOIN tot
  JOIN uni u1 ON u1.w = string_split(bg, ' ')[1]
  JOIN uni u2 ON u2.w = string_split(bg, ' ')[2]
  WHERE pair_count >= {_PMI_MIN_COUNT})
SELECT w1, w2, pair_count, score FROM scored
ORDER BY score DESC, w1, w2 LIMIT {_PMI_K}
"""


# ---------------------------------------------------------------------------
# Gopher quality rules (Rae et al., "Scaling Language Models: ... Gopher",
# 2021, Appendix A) — the composite document-level filter every modern
# pretraining pipeline runs some variant of.
# ---------------------------------------------------------------------------

_GOPHER_MIN_WORDS = 50          # Gopher: 50 <= words <= 100,000
_GOPHER_MAX_WORDS = 100_000
_GOPHER_MIN_MEAN_LEN = 3        # mean word length in [3, 10]
_GOPHER_MAX_MEAN_LEN = 10
_GOPHER_ALPHA_NUM = 4           # >= 80% of words contain an alphabetic
_GOPHER_ALPHA_DEN = 5           #   character (5*n_alpha >= 4*n_words)
_GOPHER_MIN_STOP = 2            # >= 2 stop words present (Gopher's
                                #   "harmful" boilerplate signal; the
                                #   canonical paper list is 8 English
                                #   function words — we use the module
                                #   STOPWORDS so the rule has variance
                                #   on the synthetic vocabulary)


def _gopher_metrics(texts: "pa.Array | pa.ChunkedArray"):
    """Vectorized per-doc (n_words, sum_word_len, n_alpha_words,
    n_stop_hits) — same tokenization as ``quality_metrics`` (lowercase,
    split on whitespace runs, drop empty edge tokens) so the DuckDB
    ``regexp_extract_all(lower(text), '\\S+')`` oracle is exact."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    toks = pc.split_pattern_regex(pc.utf8_lower(texts), pattern=r"\s+")
    flat = pc.list_flatten(toks)
    seg_len = pc.list_value_length(toks).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    bounds = np.zeros(len(seg_len) + 1, np.int64)
    np.cumsum(seg_len, out=bounds[1:])
    valid = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    tok_len = pc.utf8_length(flat).to_numpy(zero_copy_only=False) \
        .astype(np.int64) * valid
    alpha = np.logical_and(
        pc.match_substring_regex(flat, "[a-z]")
          .to_numpy(zero_copy_only=False), valid)
    stop = np.logical_and(
        pc.is_in(flat, value_set=_STOP_ARR).to_numpy(zero_copy_only=False),
        valid)

    def seg_sum(vals: np.ndarray) -> np.ndarray:
        cs = np.zeros(len(vals) + 1, np.int64)
        np.cumsum(vals, out=cs[1:])
        return cs[bounds[1:]] - cs[bounds[:-1]]

    return seg_sum(valid), seg_sum(tok_len), seg_sum(alpha), seg_sum(stop)


def gopher_quality_filter(sf_dir: str):
    """Per-document Gopher rule verdicts, all integer-exact.

    One shuffle-free ``map_batches`` pass; every rule is integer
    arithmetic (the mean-word-length band [3, 10] is evaluated as
    ``3*n <= sum_len <= 10*n`` — no float division), so the DuckDB
    oracle matches bit-for-bit.  The line-shape rules (bullet/ellipsis
    line fractions) are omitted: the synthetic corpus is single-line
    by construction, and those rules are line-ratio arithmetic over
    the same machinery.  Reference parity: the per-record
    filter/normalizer discipline of SURVEY §2.2 applied to the Gopher
    ruleset."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def run(batch: pa.Table) -> pa.Table:
        n_words, sum_len, n_alpha, n_stop = \
            _gopher_metrics(batch.column("text"))
        word_ok = ((n_words >= _GOPHER_MIN_WORDS)
                   & (n_words <= _GOPHER_MAX_WORDS)).astype(np.int64)
        mean_ok = ((sum_len >= _GOPHER_MIN_MEAN_LEN * n_words)
                   & (sum_len <= _GOPHER_MAX_MEAN_LEN * n_words)
                   & (n_words > 0)).astype(np.int64)
        alpha_ok = (_GOPHER_ALPHA_DEN * n_alpha
                    >= _GOPHER_ALPHA_NUM * n_words).astype(np.int64)
        stop_ok = (n_stop >= _GOPHER_MIN_STOP).astype(np.int64)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_words": pa.array(n_words, pa.int64()),
            "sum_word_len": pa.array(sum_len, pa.int64()),
            "n_alpha_words": pa.array(n_alpha, pa.int64()),
            "n_stop_hits": pa.array(n_stop, pa.int64()),
            "word_count_ok": pa.array(word_ok, pa.int64()),
            "mean_len_ok": pa.array(mean_ok, pa.int64()),
            "alpha_ok": pa.array(alpha_ok, pa.int64()),
            "stop_ok": pa.array(stop_ok, pa.int64()),
            "gopher_pass": pa.array(word_ok & mean_ok & alpha_ok & stop_ok,
                                    pa.int64()),
        })

    return sorted_small(ds.map_batches(run, batch_format="pyarrow",
                                       zero_copy_batch=True), "doc_id")


GOPHER_QUALITY_SQL = f"""
WITH t AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS toks
  FROM documents
),
m AS (
  SELECT doc_id,
         len(toks) AS n_words,
         COALESCE(list_sum(list_transform(toks, x -> length(x))), 0)
           AS sum_word_len,
         len(list_filter(toks, x -> regexp_matches(x, '[a-z]')))
           AS n_alpha_words,
         len(list_filter(toks, x -> x IN ({_STOP_SQL_LIST})))
           AS n_stop_hits
  FROM t
),
v AS (
  SELECT doc_id, n_words,
         CAST(sum_word_len AS BIGINT) AS sum_word_len,
         n_alpha_words, n_stop_hits,
         CAST(n_words BETWEEN {_GOPHER_MIN_WORDS} AND {_GOPHER_MAX_WORDS}
              AS BIGINT) AS word_count_ok,
         CAST(sum_word_len >= {_GOPHER_MIN_MEAN_LEN} * n_words
              AND sum_word_len <= {_GOPHER_MAX_MEAN_LEN} * n_words
              AND n_words > 0 AS BIGINT) AS mean_len_ok,
         CAST({_GOPHER_ALPHA_DEN} * n_alpha_words
              >= {_GOPHER_ALPHA_NUM} * n_words AS BIGINT) AS alpha_ok,
         CAST(n_stop_hits >= {_GOPHER_MIN_STOP} AS BIGINT) AS stop_ok
  FROM m
)
SELECT doc_id, n_words, sum_word_len, n_alpha_words, n_stop_hits,
       word_count_ok, mean_len_ok, alpha_ok, stop_ok,
       word_count_ok * mean_len_ok * alpha_ok * stop_ok AS gopher_pass
FROM v ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# CCNet quality buckets (Wenzek et al., "CCNet: Extracting High Quality
# Monolingual Datasets from Web Crawl Data", LREC 2020) — per-language
# head/middle/tail tiers by a fluency score, the standard corpus
# tiering step before sampling weights are assigned.
# ---------------------------------------------------------------------------

_CCNET_SCALE = 1_000_000


def ccnet_quality_buckets(sf_dir: str):
    """Per-language tertile bucketing by an integer fluency score.

    CCNet orders each language's documents by LM perplexity and cuts
    head/middle/tail at the 33%/66% percentiles.  The perplexity
    stand-in here is stopword density in ppm (``floor(1e6 * n_stop /
    n_words)`` — higher = more function words = more natural), which
    keeps the whole operator integer-exact; the tier assignment is
    NTILE(3) over (score DESC, doc_id) so ties are deterministic.

    Plan: one shuffle-free scoring pass, then ONE language-keyed
    exchange (``hash_partitioned_map``) whose per-partition reduce is a
    vectorized sort + NTILE arithmetic.  The per-task frame is bounded
    by the largest language — CCNet's own partitioning unit.  At
    100 TB-per-language scale the full in-partition sort would be
    replaced by percentile CUTOFFS from the MRL quantile sketch
    (``event_value_percentiles_sketch``) followed by a shuffle-free
    bucket-assignment pass; documented, not needed at this corpus
    bound."""
    import pandas as pd

    from .joins import hash_partitioned_map

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "lang", "text"])

    def score(batch: pa.Table) -> pa.Table:
        n_words, n_stop, _ = quality_metrics(batch.column("text"))
        ppm = (_CCNET_SCALE * n_stop) // np.maximum(n_words, 1)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "lang": batch.column("lang"),
            "score_ppm": pa.array(ppm, pa.int64()),
        })

    scored = ds.map_batches(score, batch_format="pyarrow",
                            zero_copy_batch=True)

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _, g in df.groupby("lang", sort=False):
            g = g.sort_values(["score_ppm", "doc_id"],
                              ascending=[False, True], kind="stable")
            n = len(g)
            # NTILE(3): the first n%3 tiles get floor(n/3)+1 rows —
            # reproduced exactly so the SQL window oracle matches.
            base, rem = divmod(n, 3)
            pos = np.arange(n, dtype=np.int64)
            big = rem * (base + 1)
            tile = np.where(pos < big,
                            pos // max(base + 1, 1),
                            rem + (pos - big) // max(base, 1))
            g = g.copy()
            g["bucket"] = np.array(["head", "middle", "tail"])[
                np.minimum(tile, 2)]
            out.append(g)
        return pd.concat(out, ignore_index=True) if out else \
            df.assign(bucket=pd.Series(dtype=str))

    return sorted_small(
        hash_partitioned_map(scored, ["lang"], bucketize), "doc_id")


CCNET_BUCKETS_SQL = f"""
WITH t AS (
  SELECT doc_id, lang,
         regexp_extract_all(lower(text), '\\S+') AS toks
  FROM documents
),
m AS (
  SELECT doc_id, lang,
         CAST({_CCNET_SCALE} * len(list_filter(toks,
                x -> x IN ({_STOP_SQL_LIST})))
              // GREATEST(len(toks), 1) AS BIGINT) AS score_ppm
  FROM t
),
b AS (
  SELECT doc_id, lang, score_ppm,
         NTILE(3) OVER (PARTITION BY lang
                        ORDER BY score_ppm DESC, doc_id) AS nt
  FROM m
)
SELECT doc_id, lang, score_ppm,
       CASE nt WHEN 1 THEN 'head' WHEN 2 THEN 'middle'
               ELSE 'tail' END AS bucket
FROM b ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# DSIR importance weights (Xie et al., "Data Selection for Language
# Models via Importance Resampling", NeurIPS 2023) — the standard
# target-aware data-selection score: how much more likely is this raw
# document under the target (benchmark) unigram distribution than
# under the raw-corpus distribution.
# ---------------------------------------------------------------------------

_DSIR_MOD = 20          # target slice = doc_id % 20 == 0 — the same
                        # benchmark-slice convention decontam uses
_DSIR_SCALE = 1_000_000


def _unigram_rows(batch: pa.Table):
    """(doc_ids, docix, unique words, inverse) for a documents batch —
    tokenization identical to ``quality_metrics`` / the DuckDB
    ``regexp_extract_all(lower(text), '\\S+')`` oracle.  Words come
    back factorized: consumers bincount over ``pinv`` or probe the
    uniques, so per-occurrence strings never materialize."""
    import pandas as pd
    doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    toks = pc.split_pattern_regex(
        pc.utf8_lower(batch.column("text")), pattern=r"\s+")
    seg = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks)
    docix = np.repeat(np.arange(len(doc_ids), dtype=np.int64), seg)
    valid = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    docix = docix[valid]
    words = np.asarray(flat.to_numpy(zero_copy_only=False))[valid]
    if len(words) == 0:
        return (doc_ids, np.empty(0, np.int64), np.empty(0, object),
                np.empty(0, np.int64))
    pinv, uw = pd.factorize(words)
    return doc_ids, docix, np.asarray(uw, object), pinv.astype(np.int64)


def _dsir_weight_ppm(tc, rc, T, R, V):
    """Laplace-smoothed integer likelihood ratio in ppm:
    ``floor(1e6 * (tc+1)(R+V) / ((rc+1)(T+V)))``.  Computed in Python
    arbitrary-precision ints (via object arrays) so the triple product
    can never overflow int64 regardless of corpus size — the result
    itself is a small ratio that always fits.  The SQL twin uses
    HUGEINT for the same reason."""
    num = (np.asarray(tc, object) + 1) * int(R + V) * _DSIR_SCALE
    den = (np.asarray(rc, object) + 1) * int(T + V)
    return np.asarray(num // den, dtype=np.int64)


def _dsir_partial_counts(batch: pa.Table) -> pa.Table:
    """Per-batch (word, target count, raw count) partials."""
    doc_ids, docix, uw, pinv = _unigram_rows(batch)
    if len(uw) == 0:
        return pa.table({"w": pa.array([], pa.string()),
                         "tc": pa.array([], pa.int64()),
                         "rc": pa.array([], pa.int64())})
    is_target = (doc_ids[docix] % _DSIR_MOD == 0)
    tc = np.bincount(pinv, weights=is_target,
                     minlength=len(uw)).astype(np.int64)
    rc = np.bincount(pinv, weights=~is_target,
                     minlength=len(uw)).astype(np.int64)
    return pa.table({"w": pa.array(uw, pa.string()),
                     "tc": pa.array(tc, pa.int64()),
                     "rc": pa.array(rc, pa.int64())})


def _dsir_counts(sf_dir: str):
    """(word-count table, T, R, V): ONE word-keyed exchange plus a
    distributed scalar reduce — the driver never holds the vocabulary
    here (only the broadcast path below collects it, under budget)."""
    from .joins import groupby_agg_partitioned

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    cnt_tbl = groupby_agg_partitioned(
        docs.map_batches(_dsir_partial_counts, batch_format="pyarrow",
                         zero_copy_batch=True),
        ["w"], {"tc": "sum", "rc": "sum"}).materialize()
    agg = cnt_tbl.aggregate(Sum("tc"), Sum("rc"), Count())
    return (cnt_tbl, int(agg.get("sum(tc)") or 0),
            int(agg.get("sum(rc)") or 0), int(agg.get("count()") or 0))


def _dsir_ppm_arrays(cnt_tbl, T: int, R: int, V: int):
    """Collect the bounded word table and return sorted
    (word array, ppm array) — caller must have checked the budget."""
    tabs = [t for t in ray.get(cnt_tbl.to_arrow_refs()) if t.num_rows]
    vdf = pa.concat_tables(tabs).to_pandas().sort_values("w", kind="stable")
    ppm = _dsir_weight_ppm(vdf["tc"].to_numpy(np.int64),
                           vdf["rc"].to_numpy(np.int64), T, R, V)
    return vdf["w"].to_numpy(dtype=object), ppm


def dsir_importance_weights(sf_dir: str):
    """Per-raw-doc DSIR score: ``(doc_id, n_tokens, dsir_weight_ppm)``
    where the weight is the sum over the doc's token OCCURRENCES of
    the smoothed target/raw unigram likelihood ratio (ppm).  Higher =
    closer to the target distribution = keep when resampling.

    Plan: ONE word-keyed exchange reduces per-batch (word, target
    count, raw count) partials; under the broadcast budget the scoring
    pass is shuffle-free (sorted word/ppm arrays via ``ray.put``,
    searchsorted probe per batch); above it — web-scale vocabulary —
    occurrences join the weight table on a word exchange and per-doc
    sums ride a doc_id exchange (twin pinned bit-identical in tests).
    Zero-token raw docs emit no row, matching the SQL
    join semantics."""
    import pandas as pd

    from .joins import hash_partitioned_map

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])

    cnt_tbl, T, R, V = _dsir_counts(sf_dir)

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "n_tokens": pa.array([], pa.int64()),
                      "dsir_weight_ppm": pa.array([], pa.int64())})

    if 0 < V <= _VOCAB_BROADCAST_ROWS:
        handle = ray.put(_dsir_ppm_arrays(cnt_tbl, T, R, V))

        def score(batch: pa.Table) -> pa.Table:
            from ray_script_extract import _tune_malloc
            _tune_malloc()
            ws, ppm = ray.get(handle)
            doc_ids, docix, uw, pinv = _unigram_rows(batch)
            raw_doc = doc_ids % _DSIR_MOD != 0
            if len(uw) == 0 or not raw_doc.any():
                return empty
            pos = np.minimum(np.searchsorted(ws, uw), len(ws) - 1)
            w_u = np.where(ws[pos] == uw, ppm[pos], 0).astype(np.int64)
            n_docs = len(doc_ids)
            n_tok = np.bincount(docix, minlength=n_docs).astype(np.int64)
            # int64 scatter-add, not float-weighted bincount: ppm sums
            # must stay exact past 2^53 at web-scale doc lengths
            wsum = np.zeros(n_docs, np.int64)
            np.add.at(wsum, docix, w_u[pinv])
            keep = raw_doc & (n_tok > 0)
            return pa.table({
                "doc_id": pa.array(doc_ids[keep], pa.int64()),
                "n_tokens": pa.array(n_tok[keep], pa.int64()),
                "dsir_weight_ppm": pa.array(wsum[keep], pa.int64()),
            })

        return sorted_small(docs.map_batches(score, batch_format="pyarrow",
                                             zero_copy_batch=True),
                            "doc_id")

    if V == 0:
        return sorted_small(ray.data.from_arrow(empty), "doc_id")

    # ---- scale path: occurrences join weights by word -----------------
    def occurrences(batch: pa.Table) -> pa.Table:
        doc_ids, docix, uw, pinv = _unigram_rows(batch)
        raw_occ = (doc_ids[docix] % _DSIR_MOD != 0) if len(pinv) \
            else np.empty(0, bool)
        return pa.table({
            "doc_id": pa.array(doc_ids[docix][raw_occ] if len(pinv) else
                               np.empty(0, np.int64), pa.int64()),
            "w": pa.array(uw[pinv][raw_occ] if len(pinv) else
                          np.empty(0, object), pa.string()),
            "ppm": pa.array(np.full(int(raw_occ.sum()), -1, np.int64),
                            pa.int64()),
        })

    occ = docs.map_batches(occurrences, batch_format="pyarrow",
                           zero_copy_batch=True)
    wt = cnt_tbl.map_batches(
        lambda t: pa.table({
            "doc_id": pa.array(np.full(len(t), -1, np.int64), pa.int64()),
            "w": t.column("w"),
            "ppm": pa.array(_dsir_weight_ppm(
                t.column("tc").to_numpy(zero_copy_only=False),
                t.column("rc").to_numpy(zero_copy_only=False), T, R, V),
                pa.int64()),
        }), batch_format="pyarrow", zero_copy_batch=True)

    def join_score(part: pd.DataFrame) -> pd.DataFrame:
        from ray_script_extract import _tune_malloc
        _tune_malloc()
        w_rows = part[part["doc_id"] == -1]
        o_rows = part[part["doc_id"] != -1]
        m = o_rows[["doc_id", "w"]].merge(w_rows[["w", "ppm"]], on="w",
                                          how="left")
        m["ppm"] = m["ppm"].fillna(0).astype(np.int64)
        g = m.groupby("doc_id", sort=False).agg(
            n_tokens=("w", "size"), dsir_weight_ppm=("ppm", "sum"))
        return g.reset_index().astype({"n_tokens": np.int64,
                                       "dsir_weight_ppm": np.int64})

    per_word = hash_partitioned_map(occ.union(wt), ["w"], join_score)

    def resum(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("doc_id", sort=False).agg(
            n_tokens=("n_tokens", "sum"),
            dsir_weight_ppm=("dsir_weight_ppm", "sum"))
        return g.reset_index().astype({"n_tokens": np.int64,
                                       "dsir_weight_ppm": np.int64})

    return sorted_small(hash_partitioned_map(per_word, ["doc_id"], resum),
                        "doc_id")


DSIR_SQL = f"""
WITH t AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS toks
  FROM documents
),
tok AS (SELECT doc_id, unnest(toks) AS w FROM t),
cnt AS (
  SELECT w,
         SUM(CASE WHEN doc_id % {_DSIR_MOD} = 0 THEN 1 ELSE 0 END) AS tc,
         SUM(CASE WHEN doc_id % {_DSIR_MOD} <> 0 THEN 1 ELSE 0 END) AS rc
  FROM tok GROUP BY w
),
tot AS (SELECT SUM(tc) AS tt, SUM(rc) AS rt, COUNT(*) AS v FROM cnt),
wt AS (
  SELECT w,
         CAST({_DSIR_SCALE}::HUGEINT * (tc + 1) * (rt + v)
              // ((rc + 1) * (tt + v)) AS BIGINT) AS ppm
  FROM cnt CROSS JOIN tot
)
SELECT tok.doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_tokens,
       CAST(SUM(ppm) AS BIGINT) AS dsir_weight_ppm
FROM tok JOIN wt USING (w)
WHERE tok.doc_id % {_DSIR_MOD} <> 0
GROUP BY tok.doc_id ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Corpus n-gram diversity (distinct-n, Li et al. NAACL'16 / Zhu et al.
# 2018 "Texygen") — the standard text-diversity report: the fraction
# of n-gram occurrences that are distinct, per n.  Near-zero
# distinct-ppm at high n flags a template-heavy or decode-degenerate
# corpus before training ever starts.
# ---------------------------------------------------------------------------

_DIVERSITY_NS = (1, 2, 3)


def ngram_diversity(sf_dir: str):
    """Corpus-level ``(n, n_total, n_distinct, distinct_ppm)`` for
    n ∈ {1,2,3}.

    Totals are shuffle-free per-batch partials summed on a 3-row
    exchange.  Distinct counts need global dedupe, so batch-distinct
    (n, gram) rows ride ONE gram-keyed exchange and each partition
    counts its (globally unique) grams — the partials sum exactly
    because a gram lives in exactly one partition.  Both reduced
    tables are ≤ 3 rows; the join happens driver-side."""
    import pandas as pd

    from .joins import groupby_agg_partitioned, hash_partitioned_map

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])

    def grams(batch: pa.Table):
        """[(n, unique-gram array, occurrence count array)] per n."""
        _, docix, uw, pinv = _unigram_rows(batch)
        out = []
        if len(pinv) == 0:
            return out
        codes = pinv
        words = uw
        for n in _DIVERSITY_NS:
            if n == 1:
                g = words[codes]
            else:
                if len(codes) < n:
                    continue
                same = docix[n - 1:] == docix[:-(n - 1)]
                if not same.any():
                    continue
                parts = [words[codes[i:len(codes) - (n - 1) + i]]
                         for i in range(n)]
                joined = parts[0].astype(object)
                for p in parts[1:]:
                    joined = joined + " " + p.astype(object)
                g = joined[same]
            out.append((n, g))
        return out

    def totals(batch: pa.Table) -> pa.Table:
        rows = [(n, len(g)) for n, g in grams(batch)]
        return pa.table({
            "n": pa.array([r[0] for r in rows], pa.int64()),
            "n_total": pa.array([r[1] for r in rows], pa.int64()),
        })

    def distinct_rows(batch: pa.Table) -> pa.Table:
        ns, gs = [], []
        for n, g in grams(batch):
            u = np.unique(g.astype(str))
            ns.append(np.full(len(u), n, np.int64))
            gs.append(u)
        if not ns:
            return pa.table({"n": pa.array([], pa.int64()),
                             "gram": pa.array([], pa.string())})
        return pa.table({"n": pa.array(np.concatenate(ns), pa.int64()),
                         "gram": pa.array(np.concatenate(gs), pa.string())})

    tot_tbl = groupby_agg_partitioned(
        docs.map_batches(totals, batch_format="pyarrow",
                         zero_copy_batch=True),
        ["n"], {"n_total": "sum"})

    def count_distinct(part: pd.DataFrame) -> pd.DataFrame:
        part = part.drop_duplicates()
        g = part.groupby("n", sort=False).size().rename("n_distinct")
        return g.reset_index().astype({"n": np.int64,
                                       "n_distinct": np.int64})

    dist_part = hash_partitioned_map(
        docs.map_batches(distinct_rows, batch_format="pyarrow",
                         zero_copy_batch=True),
        ["gram"], count_distinct)
    dist_tbl = groupby_agg_partitioned(dist_part, ["n"],
                                       {"n_distinct": "sum"})

    def small(ds_) -> pd.DataFrame:
        tabs = [t for t in ray.get(ds_.to_arrow_refs()) if t.num_rows]
        return pa.concat_tables(tabs).to_pandas() if tabs \
            else pd.DataFrame()

    t, d = small(tot_tbl), small(dist_tbl)
    if t.empty:
        return pd.DataFrame(columns=["n", "n_total", "n_distinct",
                                     "distinct_ppm"]).astype(np.int64)
    m = t.merge(d, on="n", how="left").fillna(0) \
        .astype({"n_total": np.int64, "n_distinct": np.int64})
    m["distinct_ppm"] = (1_000_000 * m["n_distinct"]
                         // np.maximum(m["n_total"], 1)).astype(np.int64)
    return m.sort_values("n").reset_index(drop=True)[
        ["n", "n_total", "n_distinct", "distinct_ppm"]]


NGRAM_DIVERSITY_SQL = """
WITH t AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS ws
  FROM documents
),
g AS (
  SELECT CAST(1 AS BIGINT) AS n, unnest(ws) AS gram FROM t
  UNION ALL
  SELECT CAST(2 AS BIGINT) AS n,
         array_to_string(list_slice(ws, CAST(i AS INT),
                                    CAST(i AS INT) + 1), ' ') AS gram
  FROM (SELECT ws, unnest(range(1, len(ws))) AS i
        FROM t WHERE len(ws) >= 2)
  UNION ALL
  SELECT CAST(3 AS BIGINT) AS n,
         array_to_string(list_slice(ws, CAST(i AS INT),
                                    CAST(i AS INT) + 2), ' ') AS gram
  FROM (SELECT ws, unnest(range(1, len(ws) - 1)) AS i
        FROM t WHERE len(ws) >= 3)
)
SELECT n,
       CAST(COUNT(*) AS BIGINT) AS n_total,
       CAST(COUNT(DISTINCT gram) AS BIGINT) AS n_distinct,
       CAST(1000000 * COUNT(DISTINCT gram)
            // GREATEST(COUNT(*), 1) AS BIGINT) AS distinct_ppm
FROM g GROUP BY n ORDER BY n
"""


def dsir_select_top(sf_dir: str, n_select: int = 100):
    """The DSIR SELECTION step: the ``n_select`` raw documents closest
    to the target distribution — ``(rank, doc_id, n_tokens,
    dsir_weight_ppm)`` ordered by (weight DESC, doc_id).

    Composition over ``dsir_importance_weights``: each block keeps its
    local top-``n_select`` (the knn per-block prune), so at most
    blocks×n rows reach the bounded final sort regardless of corpus
    size.  Xie et al. sample from a Gumbel-perturbed weight
    distribution; the deterministic top-k variant is the reproducible
    twin used when runs must be auditable (and gives the operator an
    exact LIMIT oracle)."""
    import pandas as pd

    weights = dsir_importance_weights(sf_dir)

    def prune(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(
            ["dsir_weight_ppm", "doc_id"], ascending=[False, True],
            kind="stable").head(n_select)
        return pa.Table.from_pandas(df, preserve_index=False)

    pruned = weights.map_batches(prune, batch_format="pyarrow",
                                 zero_copy_batch=True)

    tabs = [t for t in ray.get(pruned.to_arrow_refs()) if t.num_rows]
    if not tabs:
        return pd.DataFrame(columns=["rank", "doc_id", "n_tokens",
                                     "dsir_weight_ppm"]).astype(np.int64)
    df = pa.concat_tables(tabs).to_pandas().sort_values(
        ["dsir_weight_ppm", "doc_id"], ascending=[False, True],
        kind="stable").head(n_select).reset_index(drop=True)
    df.insert(0, "rank", np.arange(1, len(df) + 1, dtype=np.int64))
    return df


# The selection oracle embeds the weight CTE verbatim (shared core,
# the winnow-pairs discipline) and ranks with ROW_NUMBER + LIMIT.
DSIR_SELECT_SQL = f"""
WITH base AS (
{DSIR_SQL.strip()[:-1].rsplit('ORDER BY', 1)[0]}
),
ranked AS (
  SELECT ROW_NUMBER() OVER (ORDER BY dsir_weight_ppm DESC, doc_id)
           AS rank, *
  FROM base
)
SELECT CAST(rank AS BIGINT) AS rank, doc_id, n_tokens, dsir_weight_ppm
FROM ranked WHERE rank <= 100 ORDER BY rank
"""

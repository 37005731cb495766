"""Randomized differential testing: seeded subsamples of the sf0.001
tables, with every join-heavy TPC-H query run against its DuckDB
oracle ON THE SAME data.  The fixed sf gates only ever see one data
distribution; subsampling the fact tables (dimensions stay whole, so
FK lookups keep referential integrity) exercises empty groups, thin
join fan-ins and tie boundaries the canonical tables miss."""

from __future__ import annotations

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from tools.check_correctness import compare

SRC = "/root/testdata/sf0.001"
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()
FACT_FRACS = {"orders": (0.3, 0.7), "lineitem": (0.25, 0.6),
              "events": (0.3, 0.8), "documents": (0.3, 0.7)}
SEEDS = (11, 23, 37)


def _build_subsample(dst: str, seed: int) -> None:
    rng = np.random.default_rng(seed)
    os.makedirs(dst, exist_ok=True)
    for t in TABLES:
        tbl = pq.read_table(f"{SRC}/{t}.parquet")
        if t in FACT_FRACS:
            lo, hi = FACT_FRACS[t]
            frac = float(rng.uniform(lo, hi))
            keep = np.sort(rng.choice(
                len(tbl), size=max(1, int(len(tbl) * frac)),
                replace=False))
            tbl = tbl.take(keep)
        pq.write_table(tbl, f"{dst}/{t}.parquet")


@pytest.fixture(scope="module", params=SEEDS)
def random_sf(request, tmp_path_factory):
    d = str(tmp_path_factory.mktemp(f"rsf_{request.param}"))
    _build_subsample(d, request.param)
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{d}/{t}.parquet')")
    yield d, con
    con.close()


def _run(fn, sf, **kw) -> pd.DataFrame:
    res = fn(sf, **kw)
    return res if isinstance(res, pd.DataFrame) else res.to_pandas()


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", [
    # TPC-H / relational (orders + lineitem subsampled)
    "q2_min_cost_supplier", "q9_profit_by_nation", "q11_important_parts",
    "q21_waiting_suppliers", "q4_order_priority", "q12_priority_by_status",
    "q13_order_distribution", "q15_top_supplier", "q22_idle_rich_customers",
    # the raw-task exchange's join shapes: q3 (shuffle join with the
    # pre_left/post fusion) and a LEFT join with a real null surface
    # (unmatched customers: pads, nullable Int64, empty partitions)
    "q3_top_orders", "customer_urgent_counts",
    # events family (events subsampled — thin sessions, sparse asof
    # probes, missing pivot types)
    "events_sessionize", "events_rolling_sum3", "events_asof_last_signup",
    "event_value_percentiles", "events_funnel", "events_user_gaps",
    "hop_event_counts", "events_user_pivot", "lapsed_customers",
    "events_orders_range_join",
    # documents family (documents subsampled — changed dup structure,
    # shifted quality/stratification boundaries)
    "dedup_exact", "dedup_incremental", "doc_token_stats",
    "word_frequency", "chunk_documents", "doc_quality", "langid_ngram",
    "doc_fingerprint", "scrub_pii", "sample_stratified",
    "split_train_val_test", "sample_temperature_mix",
    # corpus-statistics family (subsampling shifts pair counts across
    # the min_count threshold and reshuffles PMI/coverage tie ranks)
    "word_pmi_pairs", "doc_bigram_coverage", "bm25_search",
    # curation/report family (subsampling moves NTILE tertile cuts,
    # DSIR smoothing ratios and rank ties, shingle-leakage sets, and
    # every funnel stage count)
    "gopher_quality_filter", "ccnet_quality_buckets",
    "dsir_importance_weights", "dsir_select_top", "ngram_diversity",
    "source_overlap_matrix", "eval_leakage_report",
    "contamination_by_source", "curation_funnel",
])
def test_differential(random_sf, name):
    from ray_script_extract.pipelines.queries import ORACLE_SQL, QUERIES

    sf, con = random_sf
    got = _run(QUERIES[name], sf)
    want = con.sql(ORACLE_SQL[name]).df()
    verdict = compare(name, got, want)
    assert verdict == "OK", f"{name} on subsampled tables: {verdict}"


@pytest.mark.usefixtures("ray_session")
def test_differential_q20_low_quota(random_sf):
    """q20 with the quota lowered so the subsample yields rows (the
    production 400-unit quota empties at this corpus size)."""
    from ray_script_extract.pipelines.tpch_final import (_Q20_MIN_QTY,
                                                         Q20_SQL,
                                                         q20_promotion_suppliers)

    sf, con = random_sf
    got = _run(q20_promotion_suppliers, sf, min_qty=3)
    sql = Q20_SQL.replace(f"> {_Q20_MIN_QTY}", "> 3")
    want = con.sql(sql).df()
    assert len(want) > 0, "quota too high for the subsample"
    verdict = compare("q20", got, want)
    assert verdict == "OK", f"q20 on subsampled tables: {verdict}"

"""Round-3 additions: q7 nation-pair volume (both dimension paths),
the EXCEPT set op, lag gaps, grouped COUNT DISTINCT, and the quantile
band filter — each vs a DuckDB oracle at sf0.001, plus the q7
broadcast/shuffle twin pin (the sf gate only exercises whichever path
the budget selects)."""

from __future__ import annotations

import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = ("lineitem", "orders", "supplier", "customer", "nation",
          "events", "documents")


def _duck():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    return con


def _df(res):
    return res if isinstance(res, pd.DataFrame) else res.to_pandas()


@pytest.mark.usefixtures("ray_session")
def test_q7_broadcast_equals_shuffle_and_oracle(scale_plans):
    from ray_script_extract.pipelines.queries import (Q7_SQL,
                                                      q7_nation_volume)

    fast = _df(q7_nation_volume(SF)).reset_index(drop=True)
    with scale_plans():
        slow = _df(q7_nation_volume(SF)).reset_index(drop=True)
    pd.testing.assert_frame_equal(fast, slow)
    con = _duck()
    oracle = con.sql(Q7_SQL).df()
    pd.testing.assert_frame_equal(fast, oracle, check_dtype=True,
                                  check_exact=True)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", ["except_urgent_only_buyers",
                                  "events_user_gaps",
                                  "users_per_event_type",
                                  "filter_length_band"])
def test_new_ops_match_oracle(name):
    from ray_script_extract.pipelines.queries import ORACLE_SQL, QUERIES

    got = _df(QUERIES[name](SF)).reset_index(drop=True)
    con = _duck()
    want = con.sql(ORACLE_SQL[name]).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=True,
                                  check_exact=True)


@pytest.mark.usefixtures("ray_session")
def test_length_band_quantile_rank_edges(tmp_path):
    """The histogram-rank threshold must replicate DuckDB
    quantile_disc on an n where ceil(q*n) and floor(q*(n-1))+1
    disagree (n=2, q=0.51 picks the SECOND element)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ray_script_extract.pipelines.queries import filter_length_band

    d = tmp_path / "documents.parquet"
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "n_chars": pa.array([10, 20], pa.int64()),
    }), str(d))
    out = _df(filter_length_band(str(tmp_path), q_lo=0.51, q_hi=1.0))
    # lo = quantile_disc(0.51) = 20 → only doc 2 survives
    assert out["doc_id"].tolist() == [2]
    assert out["n_chars"].tolist() == [20]


@pytest.mark.usefixtures("ray_session")
def test_spend_rank_ties_and_twin(tmp_path, scale_plans):
    """DENSE_RANK semantics under crafted ties (shared rank, no gap)
    plus the broadcast/shuffle twin pin."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ray_script_extract.pipelines.queries import customer_spend_rank

    # nation 0: custs 1,2 tie at 20.00, cust 3 at 10.00 → ranks 1,1,2
    # nation 1: cust 4 alone → rank 1
    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 1, 2, 3, 4], pa.int64()),
        "o_totalprice": pa.array([15.0, 5.0, 20.0, 10.0, 7.0],
                                 pa.float64()),
    }), str(tmp_path / "orders.parquet"))
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3, 4], pa.int64()),
        "c_nationkey": pa.array([0, 0, 0, 1], pa.int32()),
    }), str(tmp_path / "customer.parquet"))

    out = _df(customer_spend_rank(str(tmp_path))).reset_index(drop=True)
    assert out["c_custkey"].tolist() == [1, 2, 3, 4]
    assert out["rnk"].tolist() == [1, 1, 2, 1]
    assert out["spend_cents"].tolist() == [2000, 2000, 1000, 700]

    with scale_plans():
        twin = _df(customer_spend_rank(str(tmp_path))) \
            .reset_index(drop=True)
    pd.testing.assert_frame_equal(out, twin)

    # sf table vs oracle (both paths)
    for scale in (False, True):
        with scale_plans(scale):
            got = _df(customer_spend_rank(SF)).reset_index(drop=True)
        from ray_script_extract.pipelines.queries import \
            CUSTOMER_SPEND_RANK_SQL
        con = _duck()
        want = con.sql(CUSTOMER_SPEND_RANK_SQL).df()
        pd.testing.assert_frame_equal(got, want, check_dtype=True,
                                      check_exact=True)


@pytest.mark.usefixtures("ray_session")
def test_audit_detectors_fire(tmp_path):
    """Each audit check must count its violations exactly on a
    deliberately corrupted corpus (the sf tables audit clean, so the
    gate alone never exercises the detectors)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ray_script_extract.pipelines.queries import audit_documents

    pq.write_table(pa.table({
        # doc_id 7 appears 3 times (2 extra dups); 5 docs total
        "doc_id": pa.array([7, 7, 7, 1, 2], pa.int64()),
        # one empty text; one n_chars mismatch (doc 1 says 99);
        # utf8 length is CHARACTERS (é is 1), matching DuckDB length()
        "text": pa.array(["abé", "abé", "abé", "xy", ""], pa.string()),
        "lang": pa.array(["en", "en", "xx", "fr", "yy"], pa.string()),
        "n_chars": pa.array([3, 3, 3, 99, 0], pa.int64()),
    }), str(tmp_path / "documents.parquet"))

    out = audit_documents(str(tmp_path))
    got = dict(zip(out["check_name"], out["n_violations"]))
    assert got == {"dup_doc_id": 2, "empty_text": 1,
                   "n_chars_mismatch": 1, "unknown_lang": 2}

    # and the SQL oracle agrees on the corrupted table too
    import duckdb

    from ray_script_extract.pipelines.queries import AUDIT_DOCUMENTS_SQL

    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM read_parquet("
                f"'{tmp_path}/documents.parquet')")
    want = con.sql(AUDIT_DOCUMENTS_SQL).df()
    pd.testing.assert_frame_equal(out, want, check_dtype=True,
                                  check_exact=True)


def test_quantile_rank_formula_property():
    """Property test: the 1-indexed ceil(q*n) rank used by
    filter_length_band must equal DuckDB quantile_disc for arbitrary
    multisets and quantiles (hypothesis over values AND q, including
    the float-boundary quantiles where ceil is sensitive)."""
    import math

    import duckdb
    from hypothesis import given, settings
    from hypothesis import strategies as st

    con = duckdb.connect()

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=30),
                    min_size=1, max_size=40),
           st.one_of(st.floats(min_value=0.01, max_value=0.99),
                     st.sampled_from([0.1, 0.25, 0.5, 0.51, 0.75, 0.9])))
    def check(vals, q):
        want = con.execute(
            "SELECT quantile_disc(x, ?) FROM (SELECT unnest(?) AS x)",
            [q, vals]).fetchone()[0]
        s = sorted(vals)
        got = s[min(math.ceil(q * len(s)), len(s)) - 1]
        assert got == want, (vals, q, got, want)

    check()

"""Round-3 TPC-H completions (Q4/Q12/Q13/Q14/Q16/Q19/Q22 shapes):
each vs its DuckDB oracle at sf0.001, the broadcast/shuffle twins for
the part-dimension hybrids (the sf gate only exercises whichever path
the budget picks), and a crafted corpus for the Q13 zero bucket (the
sf tables give every customer at least one order, so the LEFT-join
null surface never fires there)."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"
TABLES = ("lineitem", "orders", "customer", "supplier", "part",
          "nation", "region")


def _duck(base=SF):
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{base}/{t}.parquet')")
    return con


def _df(res):
    return res if isinstance(res, pd.DataFrame) else res.to_pandas()


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", ["q4_order_priority",
                                  "q8_market_share",
                                  "q10_returned_revenue",
                                  "q12_priority_by_status",
                                  "q13_order_distribution",
                                  "q14_promo_revenue",
                                  "q15_top_supplier",
                                  "q16_supplier_variety",
                                  "q19_disjunctive_revenue",
                                  "q22_idle_rich_customers"])
def test_tpch_more_match_oracle(name):
    from ray_script_extract.pipelines.queries import ORACLE_SQL, QUERIES

    got = _df(QUERIES[name](SF)).reset_index(drop=True)
    con = _duck()
    want = con.sql(ORACLE_SQL[name]).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=True,
                                  check_exact=True)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", ["q14_promo_revenue",
                                  "q19_disjunctive_revenue",
                                  "q10_returned_revenue"])
def test_part_hybrid_twins(name, scale_plans):
    """The budgeted broadcast and the partitioned shuffle join must
    produce the identical table — at 100 TB part outgrows the budget
    and the fallback is what actually runs."""
    from ray_script_extract.pipelines.queries import QUERIES

    fast = _df(QUERIES[name](SF)).reset_index(drop=True)
    with scale_plans():
        slow = _df(QUERIES[name](SF)).reset_index(drop=True)
    pd.testing.assert_frame_equal(fast, slow, check_dtype=True,
                                  check_exact=True)


@pytest.mark.usefixtures("ray_session")
def test_q8_broadcast_equals_shuffle_chain(scale_plans):
    """q8's single-exchange broadcast plan must equal the four-join
    shuffle chain — the plan that actually runs at 100 TB, where all
    three dimensions outgrow the broadcast budget."""
    from ray_script_extract.pipelines.tpch_more import q8_market_share

    fast = _df(q8_market_share(SF)).reset_index(drop=True)
    with scale_plans():
        slow = _df(q8_market_share(SF)).reset_index(drop=True)
    pd.testing.assert_frame_equal(fast, slow, check_dtype=True,
                                  check_exact=True)


@pytest.mark.usefixtures("ray_session")
def test_q13_zero_bucket(tmp_path):
    """Customers with no orders must appear in the c_count = 0
    histogram bucket — the LEFT-join surface the sf tables never
    exercise."""
    from ray_script_extract.pipelines.tpch_more import q13_order_distribution

    pq.write_table(pa.table({
        "c_custkey": pa.array(np.arange(1, 11), pa.int64()),
    }), tmp_path / "customer.parquet")
    # customers 1..4 get 2,1,1,3 orders; 5..10 get none
    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 1, 2, 3, 4, 4, 4], pa.int64()),
    }), tmp_path / "orders.parquet")

    got = _df(q13_order_distribution(str(tmp_path))).reset_index(drop=True)
    want = pd.DataFrame({
        "c_count": np.array([0, 1, 3, 2], np.int64),
        "custdist": np.array([6, 2, 1, 1], np.int64),
    }).sort_values(["custdist", "c_count"],
                   ascending=[False, False]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=True,
                                  check_exact=True)


@pytest.mark.usefixtures("ray_session")
def test_q19_quantity_boundaries(tmp_path, scale_plans):
    """Branch quantity bounds are inclusive on both ends and evaluate
    in qty-cents integers: qty exactly at a bound matches, one cent
    outside does not."""
    from ray_script_extract.pipelines.tpch_more import q19_disjunctive_revenue

    pq.write_table(pa.table({
        "p_partkey": pa.array([1, 2], pa.int64()),
        "p_brand": pa.array(["Brand#12", "Brand#99"]),
        "p_size": pa.array([3, 3], pa.int32()),
    }), tmp_path / "part.parquet")
    # Brand#12 branch: qty in [1, 11] — rows at 1.00, 11.00 match,
    # 0.99 and 11.01 do not; Brand#99 never matches any branch.
    pq.write_table(pa.table({
        "l_partkey": pa.array([1, 1, 1, 1, 2], pa.int64()),
        "l_quantity": pa.array([1.00, 11.00, 0.99, 11.01, 5.0]),
        "l_extendedprice": pa.array([10.0, 10.0, 10.0, 10.0, 10.0]),
        "l_discount": pa.array([0.0, 0.5, 0.0, 0.0, 0.0]),
    }), tmp_path / "lineitem.parquet")

    for scale in (False, True):
        with scale_plans(scale):
            got = _df(q19_disjunctive_revenue(str(tmp_path)))
        assert got["n_lines"].tolist() == [2]
        assert got["revenue_cents"].tolist() == [1000 + 500]

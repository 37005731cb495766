"""Boundary tests for the correlated-aggregate self-join
(`small_qty_part_revenue`, TPC-H Q17 shape) and the HAVING +
join-back (`large_orders_customers`, Q18 shape): the integer-exact
avg comparison (qty*5*cnt < sq) and the strict HAVING > threshold
must agree with DuckDB at the exact boundaries — the sf tables never
land on them."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write(tmp_path, name, table):
    pq.write_table(table, str(tmp_path / f"{name}.parquet"))


def _views(con, tmp_path, names):
    for t in names:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{tmp_path}/{t}.parquet')")


@pytest.mark.usefixtures("ray_session")
def test_correlated_avg_boundaries(tmp_path):
    import duckdb

    from ray_script_extract.pipelines.queries import (
        SMALL_QTY_SQL,
        small_qty_part_revenue,
    )

    # part 1: constant quantities -> nothing is below 20% of avg
    # part 2: [1, 100] -> only the 1 qualifies (1*5*2=10 < 101)
    # part 3: [1, 9]  -> 1*5*2=10 < 10 is FALSE (exact boundary, excluded)
    # part 4: [1, 10] -> 1*5*2=10 < 11 qualifies (one past the boundary)
    # part 5: single row never qualifies vs its own avg (5*qty < qty)
    li_rows = [
        (1, 10.0), (1, 10.0), (1, 10.0),
        (2, 1.0), (2, 100.0),
        (3, 1.0), (3, 9.0),
        (4, 1.0), (4, 10.0),
        (5, 7.0),
    ]
    pk, qty = zip(*li_rows)
    n = len(li_rows)
    _write(tmp_path, "lineitem", pa.table({
        "l_orderkey": pa.array([1] * n, pa.int64()),
        "l_partkey": pa.array(list(pk), pa.int64()),
        "l_quantity": pa.array(list(qty), pa.float64()),
        "l_extendedprice": pa.array([100.01] * n, pa.float64()),
    }))
    _write(tmp_path, "part", pa.table({
        "p_partkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "p_brand": pa.array(["B#1", "B#1", "B#2", "B#2", "B#2"]),
    }))

    got = small_qty_part_revenue(str(tmp_path)).to_pandas()
    got = got.sort_values("p_brand").reset_index(drop=True)

    con = duckdb.connect()
    _views(con, tmp_path, ["lineitem", "part"])
    want = con.execute(SMALL_QTY_SQL).df()
    cast = {"sum_rev_cents": np.int64, "n_items": np.int64}
    pd.testing.assert_frame_equal(got.astype(cast), want.astype(cast))

    by = got.set_index("p_brand")
    assert tuple(by.loc["B#1"]) == (10001, 1)   # only part 2's qty=1
    assert tuple(by.loc["B#2"]) == (10001, 1)   # only part 4's qty=1


@pytest.mark.usefixtures("ray_session")
def test_having_threshold_and_tiebreak(tmp_path, scale_plans):
    import duckdb

    from ray_script_extract.pipelines.queries import (
        LARGE_ORDERS_SQL,
        large_orders_customers,
    )

    # order 1: sum qty 250 -> HAVING > 250 excludes (exact boundary)
    # order 2: sum qty 251 -> included
    # orders 3, 4: both qualify with IDENTICAL totalprice -> the
    #   o_orderkey tiebreak decides the sort order deterministically
    li = [(1, 200.0), (1, 50.0),
          (2, 200.0), (2, 51.0),
          (3, 300.0), (4, 300.0)]
    ok, qty = zip(*li)
    _write(tmp_path, "lineitem", pa.table({
        "l_orderkey": pa.array(list(ok), pa.int64()),
        "l_partkey": pa.array([1] * len(li), pa.int64()),
        "l_quantity": pa.array(list(qty), pa.float64()),
        "l_extendedprice": pa.array([1.0] * len(li), pa.float64()),
    }))
    day = 86_400_000_000
    _write(tmp_path, "orders", pa.table({
        "o_orderkey": pa.array([1, 2, 3, 4], pa.int64()),
        "o_custkey": pa.array([10, 20, 30, 30], pa.int64()),
        "o_orderdate": pa.array([0, day, 2 * day, 3 * day],
                                pa.timestamp("us")),
        "o_totalprice": pa.array([999.99, 500.25, 777.77, 777.77],
                                 pa.float64()),
    }))
    _write(tmp_path, "customer", pa.table({
        "c_custkey": pa.array([10, 20, 30], pa.int64()),
        "c_name": pa.array(["alice", "bob", "carol"]),
    }))

    got = large_orders_customers(str(tmp_path)).to_pandas()
    got = got.reset_index(drop=True)

    con = duckdb.connect()
    _views(con, tmp_path, ["lineitem", "orders", "customer"])
    want = con.execute(LARGE_ORDERS_SQL).df()
    cast = {"o_total_cents": np.int64, "sum_qty": np.int64,
            "o_orderkey": np.int64}
    pd.testing.assert_frame_equal(got.astype(cast), want.astype(cast))

    # boundary: order 1 (sum=250) out; ties sorted by orderkey asc
    assert got["o_orderkey"].tolist() == [3, 4, 2]
    assert got["c_name"].tolist() == ["carol", "carol", "bob"]
    assert got["sum_qty"].tolist() == [300, 300, 251]

    # the partitioned-shuffle customer join (the past-broadcast-budget
    # plan) must return exactly the broadcast plan's result
    with scale_plans():
        shuf = large_orders_customers(str(tmp_path)) \
            .to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(shuf.astype(cast), got.astype(cast))

"""Twin tests for the last five TPC-H shapes (tpch_final.py): each
query's budgeted-broadcast primary plan and its past-budget
partitioned-exchange fallback (reached through the ``scale_plans``
fixture) must be bit-identical — the sf gates
only ever exercise whichever path the budget selects, so this pins
BOTH (the fallback is the plan that runs when part/supplier outgrow
the broadcast budget at 100 TB)."""

from __future__ import annotations

import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def _df(res) -> pd.DataFrame:
    res = res if isinstance(res, pd.DataFrame) else res.to_pandas()
    return res.reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", [
    "q2_min_cost_supplier",
    "q9_profit_by_nation",
    "q11_important_parts",
    "q20_promotion_suppliers",
    "q21_waiting_suppliers",
])
def test_broadcast_equals_shuffle(name, scale_plans):
    from ray_script_extract.pipelines import tpch_final

    fn = getattr(tpch_final, name)
    # q20's production quota empties at sf0.001 — lower it so the twin
    # comparison covers non-trivial rows on both paths
    kw = {"min_qty": 5} if name == "q20_promotion_suppliers" else {}
    fast = _df(fn(SF, **kw))
    with scale_plans():
        slow = _df(fn(SF, **kw))
    assert len(fast) > 0
    pd.testing.assert_frame_equal(fast, slow)


@pytest.mark.usefixtures("ray_session")
def test_q21_combiner_preserves_late_and_distinct():
    """The per-(order, supplier) MAX(shipdate) combiner must keep the
    distinct-supplier count and the any-line-late flag exact even when
    one supplier ships an order on many dates — crafted corpus where a
    supplier has one on-time and one late line (still late), and a
    two-supplier order where both are late (disqualified: nl != 1)."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from ray_script_extract.pipelines.joins import (hash_partitioned_map,
                                                    sorted_small)
    from ray_script_extract.pipelines.tpch_final import q21_waiting_suppliers

    # build tiny parquet tables in a tmp layout matching the sf dirs
    import tempfile

    import pyarrow.parquet as pq

    d = tempfile.mkdtemp(prefix="q21_")
    day = np.datetime64("1997-01-01", "us")

    def ts(off):
        return day + np.timedelta64(off, "D").astype("timedelta64[us]")

    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3], pa.int64()),
        "o_orderdate": pa.array([ts(0)] * 3, pa.timestamp("us")),
        "o_orderstatus": pa.array(["F", "F", "O"]),
    }), f"{d}/orders.parquet")
    pq.write_table(pa.table({
        # order 1: supp 10 late (one early + one late line), supp 11 on
        # time  -> supp 10 waits
        # order 2: both supp 10 and 11 late -> nl=2, disqualified
        # order 3: status 'O', excluded by the read filter
        "l_orderkey": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
        "l_suppkey": pa.array([10, 10, 11, 10, 11, 10], pa.int64()),
        "l_shipdate": pa.array([ts(1), ts(90), ts(5), ts(90), ts(91),
                                ts(120)], pa.timestamp("us")),
    }), f"{d}/lineitem.parquet")
    pq.write_table(pa.table({
        "s_suppkey": pa.array([10, 11], pa.int64()),
        "s_name": pa.array(["S10", "S11"]),
    }), f"{d}/supplier.parquet")

    out = _df(q21_waiting_suppliers(d))
    assert out.to_dict("records") == [{"s_name": "S10", "numwait": 1}]

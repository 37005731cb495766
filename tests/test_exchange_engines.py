"""Edge cases of the raw-task exchange (``exchange_map_partitions`` in
pipelines/joins.py), the backbone under every keyed op: hot-key salting
widens the partition-id space, untagged empty blocks and empty
partitions must schedule nothing, and an all-empty exchange keeps its
declared schema through ``sorted_small``.  The join, left-join null
surface and keyed-window shapes it carries are held to their DuckDB
oracles in tests/test_random_sf_differential.py.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
def test_salted_join_equals_unsalted():
    """Hot-key salting extends the partition-id space past
    num_partitions — the exchange must size its reduce width to
    include every salted partition, and the salted join must return
    exactly the unsalted join's rows."""
    import ray.data

    from ray_script_extract.pipelines.joins import hash_join_via_groupby

    n = 20_000
    keys = np.where(np.arange(n) % 3 == 0, 7, np.arange(n) % 500)

    def build(hot_keys):
        left = ray.data.from_arrow(pa.table({
            "k": pa.array(keys, pa.int64()),
            "v": pa.array(np.arange(n), pa.int64()),
        })).repartition(8)
        right = ray.data.from_arrow(pa.table({
            "rk": pa.array(np.arange(500), pa.int64()),
            "w": pa.array(np.arange(500) * 10, pa.int64()),
        })).repartition(4)
        out = hash_join_via_groupby(
            left, right, "k", "rk",
            left_schema=pa.schema([("k", pa.int64()), ("v", pa.int64())]),
            right_schema=pa.schema([("rk", pa.int64()), ("w", pa.int64())]),
            hot_keys=hot_keys, num_salts=4)
        return out.to_pandas()

    salted = build(np.array([7], np.int64))
    assert len(salted) == n
    pd.testing.assert_frame_equal(_norm(salted), _norm(build(None)))


@pytest.mark.usefixtures("ray_session")
def test_task_engine_skips_empty_partitions_and_blocks():
    """An exchange whose upstream contains untagged EMPTY blocks (an
    inner-join partition that matched nothing, passed through
    map_batches without the UDF running) must not crash, and empty
    partitions must schedule no merge task (map_groups contract)."""
    import ray.data

    from ray_script_extract.pipelines.joins import (
        groupby_agg_partitioned,
        hash_join_via_groupby,
    )

    # disjoint key ranges -> most partitions of the inner join are empty
    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 3], pa.int64()),
        "v": pa.array([10, 20, 30], pa.int64()),
    })).repartition(3)
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array([2, 999], pa.int64()),
        "w": pa.array([5, 6], pa.int64()),
    })).repartition(2)
    j = hash_join_via_groupby(
        left, right, "k", "rk",
        left_schema=pa.schema([("k", pa.int64()), ("v", pa.int64())]),
        right_schema=pa.schema([("rk", pa.int64()), ("w", pa.int64())]))
    out = groupby_agg_partitioned(j, ["k"], {"v": "sum"}).to_pandas()
    assert out[["k", "v"]].to_dict("records") == [{"k": 2, "v": 20}]


@pytest.mark.usefixtures("ray_session")
def test_sorted_small_empty_keeps_declared_schema():
    import ray
    from ray_script_extract.pipelines.joins import (
        exchange_map_partitions, sorted_small)

    sch = pa.schema([("k", pa.int64()), ("v", pa.int64())])
    # an all-empty exchange yields a zero-column placeholder dataset
    empty = ray.data.from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                          "v": pa.array([], pa.int64())}))
    ex = exchange_map_partitions(
        empty.map_batches(lambda t: t.append_column(
            "part", pa.array([0] * len(t), pa.int64())),
            batch_format="pyarrow"),
        "part", 4, lambda t: t)
    out = sorted_small(ex, ["k"], schema=sch)
    # the declared columns survive at the Dataset level (Ray 2.49's
    # to_pandas drops columns on any 0-row dataset, so assert on the
    # schema and on select_columns — the op the ADVICE KeyError hit)
    assert out.schema().names == ["k", "v"]
    assert out.select_columns(["k", "v"]).count() == 0

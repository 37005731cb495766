"""dedup_components: distributed min-label propagation vs oracle."""

from __future__ import annotations

import pyarrow as pa
import pytest


def _share_pairs(monkeypatch, pairs) -> str:
    """Register ``pairs`` as this session's minhash pair table for a
    placeholder ``sf_dir`` (undone after the test); returns that key."""
    import ray.data

    from ray_script_extract.pipelines import dedup

    monkeypatch.setitem(dedup._SHARED_PAIRS, "", ray.data.from_arrow(pa.table({
        "id_a": pa.array([a for a, _ in pairs], pa.int64()),
        "id_b": pa.array([b for _, b in pairs], pa.int64()),
    })))
    return ""


@pytest.mark.usefixtures("ray_session")
def test_components_chain_and_clusters(scale_plans, monkeypatch):
    """A 5-chain needs multiple propagation rounds; a disjoint pair
    and a triangle must stay separate clusters."""
    from ray_script_extract.pipelines.dedup import dedup_components

    pairs = [(0, 1), (1, 2), (2, 3), (3, 4),   # chain, component 0
             (10, 11),                           # pair, component 10
             (20, 21), (21, 22), (20, 22)]       # triangle, component 20
    sf_dir = _share_pairs(monkeypatch, pairs)
    for distributed in (False, True):
        with scale_plans(distributed):
            got = dedup_components(sf_dir).to_pandas()
        comp = dict(zip(got["doc_id"], got["component"]))
        size = dict(zip(got["doc_id"], got["csize"]))
        assert comp == {0: 0, 1: 0, 2: 0, 3: 0, 4: 0,
                        10: 10, 11: 10,
                        20: 20, 21: 20, 22: 20}, f"{distributed=}"
        assert size == {0: 5, 1: 5, 2: 5, 3: 5, 4: 5,
                        10: 2, 11: 2,
                        20: 3, 21: 3, 22: 3}, f"{distributed=}"


@pytest.mark.usefixtures("ray_session")
def test_components_empty_pairset(monkeypatch):
    from ray_script_extract.pipelines.dedup import dedup_components

    ds = dedup_components(_share_pairs(monkeypatch, []))
    assert ds.count() == 0
    assert ds.schema().names == ["doc_id", "component", "csize"]


@pytest.mark.usefixtures("ray_session")
def test_components_vs_recursive_cte_oracle(scale_plans):
    """End-to-end on sf0.01: Ray minhash pairs → components vs the
    recursive-CTE DuckDB oracle over the same (oracle-pinned) pairs."""
    import duckdb

    from ray_script_extract.pipelines.dedup import (
        DEDUP_COMPONENTS_SQL,
        dedup_components,
    )

    sf_dir = "/root/testdata/sf0.01"
    got = dedup_components(sf_dir).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    oracle = con.sql(DEDUP_COMPONENTS_SQL).df()
    assert got[["doc_id", "component", "csize"]].values.tolist() == \
        oracle[["doc_id", "component", "csize"]].values.tolist()
    # the distributed label-propagation path must agree with the
    # driver fast path on the same real pair graph
    with scale_plans():
        dist = dedup_components(sf_dir).to_pandas()
    assert dist[["doc_id", "component", "csize"]].values.tolist() == \
        got[["doc_id", "component", "csize"]].values.tolist()


@pytest.mark.usefixtures("ray_session")
def test_components_distributed_50k_chains(scale_plans, monkeypatch):
    """Distributed label propagation at 50k nodes (10k chains of 5 —
    4 propagation hops each) must match the vectorized driver path
    and finish in seconds, not minutes (keyed-backbone guard)."""
    import numpy as np

    from ray_script_extract.pipelines.dedup import dedup_components

    base = np.arange(10_000, dtype=np.int64) * 5
    pairs = [(int(b + i), int(b + i + 1)) for b in base for i in range(4)]
    sf_dir = _share_pairs(monkeypatch, pairs)

    fast = dedup_components(sf_dir).to_pandas()
    with scale_plans():
        dist = dedup_components(sf_dir).to_pandas()
    assert (fast["component"].to_numpy()
            == fast["doc_id"].to_numpy() // 5 * 5).all()
    assert (fast["csize"] == 5).all()
    assert dist.values.tolist() == fast.values.tolist()

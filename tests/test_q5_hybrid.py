"""q5's hybrid dimension strategy: the budgeted broadcast path and
the above-budget partitioned-shuffle fallback must produce identical
results (the sf correctness gate only exercises whichever path the
budget selects — this pins BOTH)."""

from __future__ import annotations

import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.mark.usefixtures("ray_session")
def test_q5_broadcast_equals_shuffle(scale_plans):
    from ray_script_extract.pipelines.queries import q5_region_revenue

    fast = q5_region_revenue(SF)
    fast = fast if isinstance(fast, pd.DataFrame) else fast.to_pandas()
    with scale_plans():
        slow = q5_region_revenue(SF)
        slow = slow if isinstance(slow, pd.DataFrame) else slow.to_pandas()
    pd.testing.assert_frame_equal(fast.reset_index(drop=True),
                                  slow.reset_index(drop=True))


def test_broadcast_budget_metadata_only(tmp_path, monkeypatch):
    """broadcast_int_lookup must refuse oversized dimensions based on
    the parquet FOOTER (no data read) and return a usable handle for
    small ones."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import ray

    from ray_script_extract.pipelines import joins
    from ray_script_extract.pipelines.joins import (
        broadcast_int_lookup,
        lookup_sorted,
    )

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True)
    p = str(tmp_path / "dim.parquet")
    pq.write_table(pa.table({
        "k": pa.array([5, 1, 3], pa.int64()),
        "v": pa.array([50, 10, 30], pa.int64()),
    }), p)
    monkeypatch.setattr(joins, "_BROADCAST_LOOKUP_ROWS", 2)
    assert broadcast_int_lookup(p, "k", "v") is None
    # the budget is read at call time, and a dimension exactly at it fits
    monkeypatch.setattr(joins, "_BROADCAST_LOOKUP_ROWS", 3)
    h = broadcast_int_lookup(p, "k", "v")
    assert h is not None
    out = lookup_sorted(h, np.array([1, 3, 5, 1], np.int64))
    assert out.tolist() == [10, 30, 50, 10]
    with pytest.raises(KeyError):
        lookup_sorted(h, np.array([2], np.int64))

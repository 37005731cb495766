"""The ``queries()`` registry contract: ``__ray_entry__``, the local
tools and the CLI see the same one table, every callable takes
``sf_dir`` alone, and oracle-backed entries come before rows-only ones,
so a consumer that checks only a leading window of the registry spends
none of it on queries without an oracle."""

from __future__ import annotations

import pytest

from tests.test_similarity import SF


def test_oracle_backed_entries_precede_rows_only():
    from ray_script_extract.pipelines.queries import ORACLE_SQL, QUERIES

    backed = [name in ORACLE_SQL for name in QUERIES]
    assert any(backed) and not all(backed)
    first_rows_only = backed.index(False)
    assert not any(backed[first_rows_only:]), [
        name for name in list(QUERIES)[first_rows_only:]
        if name in ORACLE_SQL]


def test_entry_queries_are_the_registry_table():
    import __ray_entry__
    from ray_script_extract.pipelines.queries import QUERIES

    served = __ray_entry__.queries()
    assert list(served) == list(QUERIES)
    assert "extract_corpus_kinds" in served
    assert set(__ray_entry__.oracle_sql()) <= set(served)


def test_repeated_name_is_rejected():
    from ray_script_extract.pipelines.queries import _build_registry

    queries, oracles = _build_registry([("a", len, "SELECT 1"),
                                        ("b", len, None)])
    assert list(queries) == ["a", "b"] and oracles == {"a": "SELECT 1"}
    with pytest.raises(ValueError, match="'a'"):
        _build_registry([("a", len, "SELECT 1"), ("b", len, None),
                         ("a", len, None)])


@pytest.mark.usefixtures("ray_session")
def test_every_query_runs_with_sf_dir_alone():
    import pandas as pd
    import pyarrow as pa
    import ray.data

    import __ray_entry__

    for name, fn in __ray_entry__.queries().items():
        res = fn(SF)
        assert isinstance(res, (ray.data.Dataset, pd.DataFrame, pa.Table)), \
            (name, type(res))
        if isinstance(res, ray.data.Dataset):
            res.materialize()

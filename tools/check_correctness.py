"""Local stand-in for the driver's correctness gate: run each
queries() entry AND its oracle_sql() side by side, compare row count,
schema (column names), and order-insensitive values.  Entries without
an oracle run rows-only.  The last line is the summary
``N OK, M rows-only, K bad``.

Usage: python tools/check_correctness.py [sf_dir] [name ...]
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import pandas as pd

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    return df


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> str:
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        return f"SCHEMA MISMATCH ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}"
    if len(ray_df) != len(sql_df):
        return f"ROWCOUNT MISMATCH ray={len(ray_df)} sql={len(sql_df)}"
    a, b = normalize(ray_df), normalize(sql_df)
    # dtype-strict: the driver hashes values WITH dtypes, so a
    # HUGEINT->float64 oracle vs int64 Ray result must fail here too
    # (round-1 lesson: check_dtype=False hid 12 hash_match failures).
    dt_a, dt_b = list(a.dtypes), list(b.dtypes)
    if dt_a != dt_b:
        return f"DTYPE MISMATCH ray={dt_a} sql={dt_b}"
    try:
        pd.testing.assert_frame_equal(a, b, check_dtype=True, check_exact=True)
    except AssertionError as e:
        return "VALUE MISMATCH: " + str(e).split("\n")[0] + _first_diff(a, b)
    return "OK"


def _first_diff(a: pd.DataFrame, b: pd.DataFrame) -> str:
    for i in range(min(len(a), 2000)):
        if not a.iloc[i].equals(b.iloc[i]):
            return f" | first diff row {i}: ray={a.iloc[i].to_dict()} sql={b.iloc[i].to_dict()}"
    return ""


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    import logging
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from ray_script_extract.pipelines.queries import ORACLE_SQL, QUERIES

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")

    n_ok = n_rows_only = n_bad = 0
    import time
    for name, fn in QUERIES.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            res = fn(sf_dir)
            if hasattr(res, "to_pandas"):
                res = res.to_pandas()
            elif not isinstance(res, pd.DataFrame):
                res = res.to_pandas()
        except Exception as e:
            print(f"{name:28s} RAY ERROR: {type(e).__name__}: {e}")
            n_bad += 1
            continue
        sql = ORACLE_SQL.get(name)
        if sql is None:
            print(f"{name:28s} rows-only: {len(res)} rows  [{time.time()-t0:.1f}s]")
            n_rows_only += 1
            continue
        sql_df = con.sql(sql).df()
        verdict = compare(name, res, sql_df)
        print(f"{name:28s} {verdict}  ({len(res)} rows) [{time.time()-t0:.1f}s]")
        if verdict == "OK":
            n_ok += 1
        else:
            n_bad += 1
    ray.shutdown()
    print(f"{n_ok} OK, {n_rows_only} rows-only, {n_bad} bad")
    return 1 if n_bad else 0


if __name__ == "__main__":
    sys.exit(main())

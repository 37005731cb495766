"""Remaining TPC-H query shapes over the testdata tables.

Rounds 1–3 covered Q1/Q3/Q5/Q6/Q7/Q17/Q18-shapes plus the set-op,
window and grouping-set families; this module adds the shapes still
missing from the relational battery, each adapted to the columns the
synthetic tables actually carry (no partsupp / commitdate / shipmode —
see TESTDATA.md):

* ``q4_order_priority``     — EXISTS semi-join (Q4)
* ``q8_market_share``       — deepest dimension chain, zero broadcasts (Q8)
* ``q10_returned_revenue``  — 3-table fact chain + dimension top-k (Q10)
* ``q12_priority_by_status``— join + two-way conditional aggregation (Q12)
* ``q13_order_distribution``— LEFT-join count histogram (Q13)
* ``q14_promo_revenue``     — join + CASE ratio, exact num/den ints (Q14)
* ``q15_top_supplier``      — argmax over a grouped aggregate, ties kept (Q15)
* ``q16_supplier_variety``  — grouped COUNT DISTINCT with NOT IN (Q16)
* ``q19_disjunctive_revenue``— OR-of-conjunctions predicate join (Q19)
* ``q22_idle_rich_customers``— scalar-avg compare + anti-join (Q22)

Scale shapes (the 100 TB discipline of queries.py applies):
* probe/date predicates are pushed into the parquet read;
* fact tables pre-collapse per block BEFORE any exchange
  (``_batch_partial``), so shuffles carry partials, not rows;
* part is NOT a bounded dimension (it scales with SF) — q14/q19 use
  the budgeted-broadcast hybrid (``broadcast_lookup_table`` footer
  check, partitioned shuffle join past the budget, both plans pinned
  equal in tests/test_tpch_more.py);
* semi/anti joins ride ONE ``hash_partitioned_map`` exchange with the
  probe side reduced to per-batch distinct keys (the lapsed_customers
  pattern);
* COUNT DISTINCT co-locates each (brand, size) group once — bounded
  by the supplier domain per group, same documented caveat as
  ``users_per_event_type``.

Numerics: money goes through cents (floor(x*100+0.5) int64), counts
are int64, every SQL aggregate is CAST to BIGINT — the driver's hash
compares dtypes strictly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .joins import sorted_small


def _read(sf_dir: str, table: str, columns=None, **kw) -> "ray.data.Dataset":
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet",
                                 columns=columns, **kw)


def _cents_np(x: np.ndarray) -> np.ndarray:
    return np.floor(x * 100.0 + 0.5).astype(np.int64)


def _batch_partial(t: pa.Table, keys, sums) -> pa.Table:
    """Map-side combiner (same contract as queries._batch_partial):
    collapse one Arrow batch to per-group partial sums + ``__n``."""
    count_src = sums[0] if sums else keys[0]
    g = t.group_by(keys).aggregate(
        [(c, "sum") for c in sums] + [(count_src, "count")])
    cols = {k: g.column(k) for k in keys}
    for c in sums:
        cols[c] = g.column(f"{c}_sum")
    cols["__n"] = g.column(f"{count_src}_count")
    return pa.table(cols)


def _ts(day: str) -> pa.Scalar:
    return pa.scalar(np.datetime64(day, "us"))


# ---------------------------------------------------------------------------
# Q4 — EXISTS semi-join: orders (in a year window) with >=1 returned line
# ---------------------------------------------------------------------------

_Q4_LO, _Q4_HI = "1997-01-01", "1998-01-01"


def q4_order_priority(sf_dir: str):
    """TPC-H Q4 shape (EXISTS semi-join).  The reference tables lack
    commitdate/receiptdate, so the EXISTS predicate is "has a returned
    line" (l_returnflag = 'R').

    Shape: the orders date window is pushed into the read (row-group
    pruning); lineitem reduces to per-batch DISTINCT returned
    orderkeys before anything moves; both sides share ONE orderkey
    exchange; membership is a vectorized searchsorted; survivors
    pre-reduce to per-priority partials inside the same task, so the
    second exchange carries <= (partitions x 5) rows."""
    from .joins import groupby_agg_partitioned, hash_partitioned_map

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority"],
        filter=(pc.field("o_orderdate") >= _ts(_Q4_LO))
        & (pc.field("o_orderdate") < _ts(_Q4_HI)))
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"])

    def tag_orders(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": t.column("o_orderkey").cast(pa.int64()),
            "pri": t.column("o_orderpriority"),
        })

    def tag_probe(t: pa.Table) -> pa.Table:
        r = t.filter(pc.equal(t.column("l_returnflag"), "R"))
        keys = pc.unique(r.column("l_orderkey")).cast(pa.int64())
        return pa.table({
            "key": keys,
            "pri": pa.nulls(len(keys), pa.string()),  # null marks probe
        })

    both = (orders.map_batches(tag_orders, batch_format="pyarrow",
                               zero_copy_batch=True)
            .union(li.map_batches(tag_probe, batch_format="pyarrow",
                                  zero_copy_batch=True)))

    def semi(df: pd.DataFrame) -> pd.DataFrame:
        is_probe = df["pri"].isna().to_numpy()
        have = np.unique(df["key"].to_numpy()[is_probe])
        o = df[~is_probe]
        keys = o["key"].to_numpy()
        if len(have):
            pos = np.searchsorted(have, keys)
            pos[pos == len(have)] = 0
            hit = have[pos] == keys
        else:
            hit = np.zeros(len(keys), bool)
        g = (o.loc[hit].groupby("pri", as_index=False, sort=False)
             .agg(order_count=("key", "size")))
        g["order_count"] = g["order_count"].astype(np.int64)
        return g.rename(columns={"pri": "o_orderpriority"})

    out = hash_partitioned_map(both, ["key"], semi)
    return sorted_small(groupby_agg_partitioned(out, ["o_orderpriority"],
                                   {"order_count": "sum"}), "o_orderpriority")


Q4_SQL = f"""
SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS order_count
FROM orders o
WHERE o_orderdate >= TIMESTAMP '{_Q4_LO}'
  AND o_orderdate <  TIMESTAMP '{_Q4_HI}'
  AND EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_returnflag = 'R')
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


# ---------------------------------------------------------------------------
# Q12 — join + two-way conditional aggregation
# ---------------------------------------------------------------------------

_Q12_LO, _Q12_HI = "1997-01-01", "1998-01-01"
_HIGH_PRI = ("1-URGENT", "2-HIGH")


def q12_priority_by_status(sf_dir: str):
    """TPC-H Q12 shape (shipmode is absent; l_linestatus plays its
    role): per linestatus, how many lines shipped in the window belong
    to high- vs low-priority orders.

    Shape: the shipdate window is pushed into the lineitem read;
    lineitem pre-collapses to (orderkey, status, n) partials per
    block; orders project to (orderkey, is_high) map-side; ONE
    partitioned shuffle join on orderkey finishes the conditional
    split inside each merge task, so the final exchange carries
    <= (partitions x 2) rows."""
    from .joins import groupby_agg_partitioned, hash_join_via_groupby

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linestatus"],
        filter=(pc.field("l_shipdate") >= _ts(_Q12_LO))
        & (pc.field("l_shipdate") < _ts(_Q12_HI)))

    def li_partial(t: pa.Table) -> pa.Table:
        tbl = pa.table({
            "l_orderkey": t.column("l_orderkey").cast(pa.int64()),
            "l_linestatus": t.column("l_linestatus"),
        })
        return _batch_partial(tbl, ["l_orderkey", "l_linestatus"], [])

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])

    def o_proj(t: pa.Table) -> pa.Table:
        pri = t.column("o_orderpriority")
        hi = pc.or_(pc.equal(pri, _HIGH_PRI[0]), pc.equal(pri, _HIGH_PRI[1]))
        return pa.table({
            "o_orderkey": t.column("o_orderkey").cast(pa.int64()),
            "is_high": hi.cast(pa.int64()),
        })

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = df["__n"].to_numpy()
        hi = df["is_high"].to_numpy()
        out = pd.DataFrame({
            "l_linestatus": df["l_linestatus"],
            "high_line_count": (n * hi).astype(np.int64),
            "low_line_count": (n * (1 - hi)).astype(np.int64),
        })
        return out.groupby("l_linestatus", as_index=False, sort=False).sum()

    joined = hash_join_via_groupby(
        orders.map_batches(o_proj, batch_format="pyarrow",
                           zero_copy_batch=True),
        li.map_batches(li_partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        "o_orderkey", "l_orderkey", post=finish,
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("is_high", pa.int64())]),
        right_schema=pa.schema([("l_orderkey", pa.int64()),
                                ("l_linestatus", pa.string()),
                                ("__n", pa.int64())]))
    return sorted_small(groupby_agg_partitioned(
        joined, ["l_linestatus"],
        {"high_line_count": "sum", "low_line_count": "sum"}), "l_linestatus")


Q12_SQL = f"""
SELECT l_linestatus,
       CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH')
                     THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
       CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH')
                     THEN 0 ELSE 1 END) AS BIGINT) AS low_line_count
FROM lineitem JOIN orders ON o_orderkey = l_orderkey
WHERE l_shipdate >= TIMESTAMP '{_Q12_LO}'
  AND l_shipdate <  TIMESTAMP '{_Q12_HI}'
GROUP BY l_linestatus
ORDER BY l_linestatus
"""


# ---------------------------------------------------------------------------
# Q13 — LEFT-join count histogram
# ---------------------------------------------------------------------------

def q13_order_distribution(sf_dir: str):
    """TPC-H Q13 shape: distribution of customers by order count,
    INCLUDING the zero bucket (customers with no orders survive the
    LEFT join).  The sf tables happen to give every customer at least
    one order, so the zero bucket is exercised by a crafted corpus in
    tests/test_tpch_more.py instead.

    Shape: orders pre-collapse to (custkey, n) partials per block;
    customer is the probe side of ONE partitioned LEFT join; the
    per-partition post finishes the per-customer count AND the local
    histogram, so the second exchange carries <= (partitions x
    |distinct counts|) rows."""
    from .joins import groupby_agg_partitioned, hash_join_via_groupby

    orders = _read(sf_dir, "orders", ["o_custkey"])

    def o_partial(t: pa.Table) -> pa.Table:
        tbl = pa.table({"o_custkey": t.column("o_custkey").cast(pa.int64())})
        return _batch_partial(tbl, ["o_custkey"], [])

    cust = _read(sf_dir, "customer", ["c_custkey"])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        per_cust = pd.DataFrame({
            "c_custkey": df["c_custkey"].astype(np.int64),
            "n": df["__n"].fillna(0).astype(np.int64),
        }).groupby("c_custkey", as_index=False).sum()
        hist = per_cust["n"].value_counts()
        return pd.DataFrame({
            "c_count": hist.index.to_numpy(np.int64),
            "custdist": hist.to_numpy(np.int64),
        })

    joined = hash_join_via_groupby(
        cust,
        orders.map_batches(o_partial, batch_format="pyarrow",
                           zero_copy_batch=True),
        "c_custkey", "o_custkey", how="left", post=finish,
        left_schema=pa.schema([("c_custkey", pa.int64())]),
        right_schema=pa.schema([("o_custkey", pa.int64()),
                                ("__n", pa.int64())]))
    return sorted_small(groupby_agg_partitioned(joined, ["c_count"],
                                   {"custdist": "sum"}), ["custdist", "c_count"], descending=[True, True])


Q13_SQL = """
SELECT c_count, CAST(COUNT(*) AS BIGINT) AS custdist
FROM (SELECT c_custkey, CAST(COUNT(o_custkey) AS BIGINT) AS c_count
      FROM customer LEFT JOIN orders ON o_custkey = c_custkey
      GROUP BY c_custkey)
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC
"""


# ---------------------------------------------------------------------------
# Q14 — promo revenue share (exact numerator/denominator integers)
# ---------------------------------------------------------------------------

_Q14_LO, _Q14_HI = "1997-09-01", "1997-10-01"


def q14_promo_revenue(sf_dir: str):
    """TPC-H Q14 shape: share of windowed revenue from PROMO parts.
    The ratio itself is float-unstable, so the result is the exact
    integer (promo_cents, total_cents) pair — consumers divide once.

    Hybrid: part scales with SF, so its (partkey -> type) map rides
    the budgeted broadcast (footer check) and falls back to the
    partitioned shuffle join past the budget (twin pinned in tests).  Either way lineitem pre-collapses per
    block and only constant-size partials reach the driver fold."""
    from .joins import (broadcast_lookup_table, hash_join_via_groupby,
                        lookup_sorted_cols)

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount"],
        filter=(pc.field("l_shipdate") >= _ts(_Q14_LO))
        & (pc.field("l_shipdate") < _ts(_Q14_HI)))

    handle = broadcast_lookup_table(
        f"{sf_dir}/part.parquet", "p_partkey", ["p_type"])

    def _fold(partials: "ray.data.Dataset") -> pd.DataFrame:
        df = partials.to_pandas()  # <= one row per block/partition
        return pd.DataFrame([{
            "promo_cents": np.int64(df["promo_cents"].sum()),
            "total_cents": np.int64(df["total_cents"].sum()),
        }])

    if handle is not None:
        def partial(t: pa.Table) -> pa.Table:
            pk = t.column("l_partkey").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            looked = lookup_sorted_cols(handle, pk)
            promo = pc.equal(looked["p_type"], "PROMO") \
                .to_numpy(zero_copy_only=False)
            price = t.column("l_extendedprice").to_numpy(
                zero_copy_only=False)
            disc = t.column("l_discount").to_numpy(zero_copy_only=False)
            cents = _cents_np(price * (1.0 - disc))
            return pa.table({
                "promo_cents": pa.array([int(cents[promo].sum())],
                                        pa.int64()),
                "total_cents": pa.array([int(cents.sum())], pa.int64()),
            })

        return _fold(li.map_batches(partial, batch_format="pyarrow",
                                    zero_copy_batch=True))

    def li_partial(t: pa.Table) -> pa.Table:
        price = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = t.column("l_discount").to_numpy(zero_copy_only=False)
        tbl = pa.table({
            "l_partkey": t.column("l_partkey").cast(pa.int64()),
            "cents": pa.array(_cents_np(price * (1.0 - disc)), pa.int64()),
        })
        return _batch_partial(tbl, ["l_partkey"], ["cents"])

    part = _read(sf_dir, "part", ["p_partkey", "p_type"])

    def p_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "p_partkey": t.column("p_partkey").cast(pa.int64()),
            "is_promo": pc.equal(t.column("p_type"),
                                 "PROMO").cast(pa.int64()),
        })

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        cents = df["cents"].to_numpy()
        promo = df["is_promo"].to_numpy()
        return pd.DataFrame([{
            "promo_cents": np.int64((cents * promo).sum()),
            "total_cents": np.int64(cents.sum()),
        }])

    joined = hash_join_via_groupby(
        li.map_batches(li_partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        part.map_batches(p_proj, batch_format="pyarrow",
                         zero_copy_batch=True),
        "l_partkey", "p_partkey", post=finish,
        left_schema=pa.schema([("l_partkey", pa.int64()),
                               ("cents", pa.int64()),
                               ("__n", pa.int64())]),
        right_schema=pa.schema([("p_partkey", pa.int64()),
                                ("is_promo", pa.int64())]))
    return _fold(joined)


Q14_SQL = f"""
SELECT CAST(SUM(CASE WHEN p_type = 'PROMO'
                THEN CAST(FLOOR(l_extendedprice*(1-l_discount)*100 + 0.5)
                          AS BIGINT) ELSE 0 END) AS BIGINT) AS promo_cents,
       CAST(SUM(CAST(FLOOR(l_extendedprice*(1-l_discount)*100 + 0.5)
                     AS BIGINT)) AS BIGINT) AS total_cents
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE l_shipdate >= TIMESTAMP '{_Q14_LO}'
  AND l_shipdate <  TIMESTAMP '{_Q14_HI}'
"""


# ---------------------------------------------------------------------------
# Q16 — grouped COUNT DISTINCT suppliers with NOT IN exclusion
# ---------------------------------------------------------------------------

def q16_supplier_variety(sf_dir: str):
    """TPC-H Q16 shape (partsupp is absent; lineitem's (partkey,
    suppkey) pairs play its role): distinct suppliers per (brand,
    size), excluding suppliers with negative account balance (the
    complaint-supplier NOT IN of the original).

    Shape: lineitem reduces to per-batch DISTINCT (partkey, suppkey)
    pairs; the excluded-supplier set reads FILTERED (a small fraction
    by construction, asserted against the broadcast budget) and ships
    once via ray.put — pairs drop excluded suppliers map-side, before
    any exchange.  The partitioned join on partkey (dedupe_left makes
    pairs globally unique — duplicates co-locate by key) attaches
    brand/size, pre-reducing to distinct (brand, size, suppkey)
    inside each merge task; the second exchange co-locates each
    (brand, size) group for the exact distinct count — bounded per
    task by the supplier domain of one group (the documented
    bounded-dimension caveat of users_per_event_type)."""
    import pyarrow.parquet as pq

    import ray

    from . import joins
    from .joins import hash_join_via_groupby, hash_partitioned_map

    excl_tbl = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey"],
        filters=[("s_acctbal", "<", 0.0)])
    excl = np.sort(np.asarray(excl_tbl["s_suppkey"], dtype=np.int64))
    if len(excl) > joins._BROADCAST_LOOKUP_ROWS:
        raise ValueError("excluded-supplier set exceeds broadcast budget")
    excl_ref = ray.put(excl)

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])

    def pairs(t: pa.Table) -> pa.Table:
        tbl = pa.table({
            "l_partkey": t.column("l_partkey").cast(pa.int64()),
            "l_suppkey": t.column("l_suppkey").cast(pa.int64()),
        })
        g = tbl.group_by(["l_partkey", "l_suppkey"]).aggregate([])
        sk = g.column("l_suppkey").to_numpy(zero_copy_only=False)
        ex = ray.get(excl_ref)
        if len(ex):
            pos = np.searchsorted(ex, sk)
            pos_c = np.minimum(pos, len(ex) - 1)
            keep = ex[pos_c] != sk
            g = g.filter(pa.array(keep))
        return g

    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"])

    def p_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "p_partkey": t.column("p_partkey").cast(pa.int64()),
            "p_brand": t.column("p_brand"),
            "p_size": t.column("p_size").cast(pa.int64()),
        })

    def pre_distinct(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["p_brand", "p_size", "l_suppkey"])

    joined = hash_join_via_groupby(
        li.map_batches(pairs, batch_format="pyarrow",
                       zero_copy_batch=True),
        part.map_batches(p_proj, batch_format="pyarrow",
                         zero_copy_batch=True),
        "l_partkey", "p_partkey", dedupe_left=True,
        post=lambda df: pre_distinct(df)[["p_brand", "p_size",
                                          "l_suppkey"]],
        left_schema=pa.schema([("l_partkey", pa.int64()),
                               ("l_suppkey", pa.int64())]),
        right_schema=pa.schema([("p_partkey", pa.int64()),
                                ("p_brand", pa.string()),
                                ("p_size", pa.int64())]))

    def count_distinct(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.drop_duplicates()
             .groupby(["p_brand", "p_size"], as_index=False, sort=False)
             .agg(supplier_cnt=("l_suppkey", "size")))
        g["supplier_cnt"] = g["supplier_cnt"].astype(np.int64)
        return g

    out = hash_partitioned_map(joined, ["p_brand", "p_size"],
                               count_distinct)
    return sorted_small(out, ["supplier_cnt", "p_brand", "p_size"],
                    descending=[True, False, False])


Q16_SQL = """
SELECT p_brand, CAST(p_size AS BIGINT) AS p_size,
       CAST(COUNT(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE l_suppkey NOT IN (SELECT s_suppkey FROM supplier
                        WHERE s_acctbal < 0)
GROUP BY p_brand, p_size
ORDER BY supplier_cnt DESC, p_brand, p_size
"""


# ---------------------------------------------------------------------------
# Q19 — disjunctive multi-branch predicate join
# ---------------------------------------------------------------------------

# (brand, size_lo, size_hi, qty_lo, qty_hi) — qty bounds in qty-cents
_Q19_BRANCHES = (
    ("Brand#12", 1, 5, 100, 1100),
    ("Brand#23", 1, 10, 1000, 2000),
    ("Brand#24", 1, 15, 2000, 3000),
)


def q19_disjunctive_revenue(sf_dir: str):
    """TPC-H Q19 shape: revenue from lines matching ANY of three
    (brand, size-range, quantity-range) conjunctions.  Quantities
    compare in qty-cents integers so both engines evaluate identical
    predicates.

    Hybrid like q14: part's (brand, size) ride the budgeted broadcast
    — the whole disjunction then evaluates map-side and NOTHING
    shuffles (a scalar partial per block reaches the driver).  Past
    the budget, lineitem pre-collapses per
    (partkey, qty_cents) — quantity is part of the predicate, so it
    stays in the partial key — and one partitioned join evaluates the
    branches inside each merge task."""
    from .joins import (broadcast_lookup_table, hash_join_via_groupby,
                        lookup_sorted_cols)

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"])

    handle = broadcast_lookup_table(
        f"{sf_dir}/part.parquet", "p_partkey", ["p_brand", "p_size"])

    def _mask(brand_np: np.ndarray, size: np.ndarray,
              qty_cents: np.ndarray) -> np.ndarray:
        m = np.zeros(len(size), bool)
        for brand, slo, shi, qlo, qhi in _Q19_BRANCHES:
            m |= ((brand_np == brand) & (size >= slo) & (size <= shi)
                  & (qty_cents >= qlo) & (qty_cents <= qhi))
        return m

    def _fold(partials: "ray.data.Dataset") -> pd.DataFrame:
        df = partials.to_pandas()
        return pd.DataFrame([{
            "n_lines": np.int64(df["n_lines"].sum()),
            "revenue_cents": np.int64(df["revenue_cents"].sum()),
        }])

    if handle is not None:
        def partial(t: pa.Table) -> pa.Table:
            pk = t.column("l_partkey").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            looked = lookup_sorted_cols(handle, pk)
            brand = np.asarray(looked["p_brand"])
            size = np.asarray(looked["p_size"], dtype=np.int64)
            qty = t.column("l_quantity").to_numpy(zero_copy_only=False)
            qty_cents = _cents_np(qty)
            price = t.column("l_extendedprice").to_numpy(
                zero_copy_only=False)
            disc = t.column("l_discount").to_numpy(zero_copy_only=False)
            cents = _cents_np(price * (1.0 - disc))
            m = _mask(brand, size, qty_cents)
            return pa.table({
                "n_lines": pa.array([int(m.sum())], pa.int64()),
                "revenue_cents": pa.array([int(cents[m].sum())],
                                          pa.int64()),
            })

        return _fold(li.map_batches(partial, batch_format="pyarrow",
                                    zero_copy_batch=True))

    def li_partial(t: pa.Table) -> pa.Table:
        qty = t.column("l_quantity").to_numpy(zero_copy_only=False)
        price = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = t.column("l_discount").to_numpy(zero_copy_only=False)
        tbl = pa.table({
            "l_partkey": t.column("l_partkey").cast(pa.int64()),
            "qty_cents": pa.array(_cents_np(qty), pa.int64()),
            "cents": pa.array(_cents_np(price * (1.0 - disc)), pa.int64()),
        })
        return _batch_partial(tbl, ["l_partkey", "qty_cents"], ["cents"])

    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"])

    def p_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "p_partkey": t.column("p_partkey").cast(pa.int64()),
            "p_brand": t.column("p_brand"),
            "p_size": t.column("p_size").cast(pa.int64()),
        })

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        m = _mask(df["p_brand"].to_numpy(), df["p_size"].to_numpy(),
                  df["qty_cents"].to_numpy())
        return pd.DataFrame([{
            "n_lines": np.int64(df["__n"].to_numpy()[m].sum()),
            "revenue_cents": np.int64(df["cents"].to_numpy()[m].sum()),
        }])

    joined = hash_join_via_groupby(
        li.map_batches(li_partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        part.map_batches(p_proj, batch_format="pyarrow",
                         zero_copy_batch=True),
        "l_partkey", "p_partkey", post=finish,
        left_schema=pa.schema([("l_partkey", pa.int64()),
                               ("qty_cents", pa.int64()),
                               ("cents", pa.int64()),
                               ("__n", pa.int64())]),
        right_schema=pa.schema([("p_partkey", pa.int64()),
                                ("p_brand", pa.string()),
                                ("p_size", pa.int64())]))
    return _fold(joined)


Q19_SQL = f"""
SELECT CAST(COUNT(*) AS BIGINT) AS n_lines,
       CAST(SUM(CAST(FLOOR(l_extendedprice*(1-l_discount)*100 + 0.5)
                     AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE {' OR '.join(
    f"(p_brand = '{b}' AND p_size BETWEEN {slo} AND {shi} "
    f"AND CAST(FLOOR(l_quantity*100 + 0.5) AS BIGINT) "
    f"BETWEEN {qlo} AND {qhi})"
    for b, slo, shi, qlo, qhi in _Q19_BRANCHES)}
"""


# ---------------------------------------------------------------------------
# Q22 — scalar-average compare + anti-join
# ---------------------------------------------------------------------------

_Q22_SEGMENTS = ("AUTOMOBILE", "BUILDING", "MACHINERY")
_Q22_CUTOFF = "2000-01-01"


def q22_idle_rich_customers(sf_dir: str):
    """TPC-H Q22 shape (no phone column; market segments replace the
    country-code prefixes): per segment, count + balance total of
    customers whose balance beats the positive-balance average of the
    segment pool AND who placed no order on/after the cutoff.

    Shape: the average is an exact integer compare (bal_cents * n >
    total_cents) built from ONE constant-size partial fold — no
    float average exists on either engine; the anti-join rides the
    lapsed_customers pattern (probe side reduced to per-batch
    DISTINCT custkeys, one custkey exchange, vectorized searchsorted,
    per-segment partials out)."""
    from .joins import groupby_agg_partitioned, hash_partitioned_map

    def seg_filter(t: pa.Table) -> pa.Table:
        m = pc.is_in(t.column("c_mktsegment"),
                     value_set=pa.array(_Q22_SEGMENTS))
        return t.filter(m)

    # materialize(): the filtered pool feeds BOTH the average partial
    # and the tag stage — without pinning the blocks Ray re-executes
    # the read + segment filter once per consumer (VERDICT r3 #5).
    # The pool is a pruned 3-column slice of customer, so pinning it
    # in the object store is bounded even at scale (and spills if not).
    cust_pool = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment",
                                           "c_acctbal"]) \
        .map_batches(seg_filter, batch_format="pyarrow",
                     zero_copy_batch=True).materialize()

    def pool_partial(t: pa.Table) -> pa.Table:
        bal = t.column("c_acctbal").to_numpy(zero_copy_only=False)
        cents = _cents_np(bal[bal > 0.0])
        return pa.table({
            "s": pa.array([int(cents.sum())], pa.int64()),
            "n": pa.array([len(cents)], pa.int64()),
        })

    tot = cust_pool.map_batches(pool_partial, batch_format="pyarrow",
                                zero_copy_batch=True).to_pandas()
    total_cents, n_pool = int(tot["s"].sum()), int(tot["n"].sum())

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"],
        filter=pc.field("o_orderdate") >= _ts(_Q22_CUTOFF))

    def tag_cust(t: pa.Table) -> pa.Table:
        bal = t.column("c_acctbal").to_numpy(zero_copy_only=False)
        cents = _cents_np(bal)
        rich = (bal > 0.0) & (cents * n_pool > total_cents)
        t = t.filter(pa.array(rich))
        return pa.table({
            "key": t.column("c_custkey").cast(pa.int64()),
            "seg": t.column("c_mktsegment"),
            "bal_cents": pa.array(_cents_np(
                t.column("c_acctbal").to_numpy(zero_copy_only=False)),
                pa.int64()),
        })

    def tag_probe(t: pa.Table) -> pa.Table:
        keys = pc.unique(t.column("o_custkey")).cast(pa.int64())
        n = len(keys)
        return pa.table({
            "key": keys,
            "seg": pa.nulls(n, pa.string()),
            "bal_cents": pa.nulls(n, pa.int64()),
        })

    both = (cust_pool.map_batches(tag_cust, batch_format="pyarrow",
                                  zero_copy_batch=True)
            .union(orders.map_batches(tag_probe, batch_format="pyarrow",
                                      zero_copy_batch=True)))

    def anti(df: pd.DataFrame) -> pd.DataFrame:
        is_probe = df["seg"].isna().to_numpy()
        have = np.unique(df["key"].to_numpy()[is_probe])
        c = df[~is_probe]
        keys = c["key"].to_numpy()
        if len(have):
            pos = np.searchsorted(have, keys)
            pos[pos == len(have)] = 0
            miss = have[pos] != keys
        else:
            miss = np.ones(len(keys), bool)
        g = (c.loc[miss].groupby("seg", as_index=False, sort=False)
             .agg(n_customers=("key", "size"),
                  acctbal_cents=("bal_cents", "sum")))
        g["n_customers"] = g["n_customers"].astype(np.int64)
        g["acctbal_cents"] = g["acctbal_cents"].astype(np.int64)
        return g.rename(columns={"seg": "c_mktsegment"})

    out = hash_partitioned_map(both, ["key"], anti)
    return sorted_small(groupby_agg_partitioned(
        out, ["c_mktsegment"],
        {"n_customers": "sum", "acctbal_cents": "sum"}), "c_mktsegment")


_Q22_SEG_SQL = ", ".join(f"'{s}'" for s in _Q22_SEGMENTS)

Q22_SQL = f"""
WITH pool AS (
  SELECT c_custkey, c_mktsegment,
         CAST(FLOOR(c_acctbal*100 + 0.5) AS BIGINT) AS bal_cents
  FROM customer
  WHERE c_mktsegment IN ({_Q22_SEG_SQL}) AND c_acctbal > 0.0
), tot AS (
  SELECT CAST(SUM(bal_cents) AS BIGINT) AS s,
         CAST(COUNT(*) AS BIGINT) AS n FROM pool
)
SELECT c_mktsegment,
       CAST(COUNT(*) AS BIGINT) AS n_customers,
       CAST(SUM(bal_cents) AS BIGINT) AS acctbal_cents
FROM pool p, tot
WHERE p.bal_cents * tot.n > tot.s
  AND NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = p.c_custkey
                    AND o.o_orderdate >= TIMESTAMP '{_Q22_CUTOFF}')
GROUP BY c_mktsegment
ORDER BY c_mktsegment
"""


# ---------------------------------------------------------------------------
# Q15 — argmax with ties: top supplier(s) by windowed revenue
# ---------------------------------------------------------------------------

_Q15_LO, _Q15_HI = "1997-01-01", "1997-04-01"


def q15_top_supplier(sf_dir: str):
    """TPC-H Q15 shape (argmax over a grouped aggregate, ties kept):
    the supplier(s) whose quarter revenue equals the global maximum.

    Shape: lineitem pre-collapses to (suppkey, cents) partials per
    block; ONE bounded keyed exchange finishes per-supplier totals
    (`groupby_agg_partitioned` — the totals table is |suppliers|-
    sized, it is NEVER driver-collected); the global max folds from
    one per-block-partial max pass (constant rows to the driver);
    the equality filter then streams, and only the <= |ties| winners
    probe the supplier dimension through the budgeted broadcast (a
    constant-size lookup of winner keys would also work at any scale
    — the winner set is tiny by construction)."""
    from .joins import broadcast_lookup_table, groupby_agg_partitioned

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount"],
        filter=(pc.field("l_shipdate") >= _ts(_Q15_LO))
        & (pc.field("l_shipdate") < _ts(_Q15_HI)))

    def li_partial(t: pa.Table) -> pa.Table:
        price = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = t.column("l_discount").to_numpy(zero_copy_only=False)
        tbl = pa.table({
            "l_suppkey": t.column("l_suppkey").cast(pa.int64()),
            "total_cents": pa.array(_cents_np(price * (1.0 - disc)),
                                    pa.int64()),
        })
        return _batch_partial(tbl, ["l_suppkey"], ["total_cents"])

    totals = groupby_agg_partitioned(
        li.map_batches(li_partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["l_suppkey"], {"total_cents": "sum"}).materialize()

    def max_partial(t: pa.Table) -> pa.Table:
        m = t.column("total_cents").to_numpy(zero_copy_only=False)
        return pa.table({"m": pa.array([int(m.max()) if len(m) else
                                        -(1 << 62)], pa.int64())})

    best = int(totals.map_batches(max_partial, batch_format="pyarrow",
                                  zero_copy_batch=True)
               .to_pandas()["m"].max())

    handle = broadcast_lookup_table(f"{sf_dir}/supplier.parquet",
                                    "s_suppkey", ["s_name"])

    def winners(t: pa.Table) -> pa.Table:
        from .joins import lookup_sorted_cols
        w = t.filter(pc.equal(t.column("total_cents"), best))
        keys = w.column("l_suppkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        name = lookup_sorted_cols(handle, keys)["s_name"] if len(keys) \
            else pa.array([], pa.string())
        return pa.table({
            "s_suppkey": w.column("l_suppkey"),
            "s_name": name,
            "total_cents": w.column("total_cents"),
        })

    return sorted_small(totals.map_batches(winners, batch_format="pyarrow",
                              zero_copy_batch=True), "s_suppkey")


Q15_SQL = f"""
WITH r AS (
  SELECT l_suppkey,
         CAST(SUM(CAST(FLOOR(l_extendedprice*(1-l_discount)*100 + 0.5)
                       AS BIGINT)) AS BIGINT) AS total_cents
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '{_Q15_LO}'
    AND l_shipdate <  TIMESTAMP '{_Q15_HI}'
  GROUP BY l_suppkey
)
SELECT s_suppkey, s_name, total_cents
FROM r JOIN supplier ON s_suppkey = l_suppkey
WHERE total_cents = (SELECT MAX(total_cents) FROM r)
ORDER BY s_suppkey
"""


# ---------------------------------------------------------------------------
# Q10 — returned-item revenue: the 3-table fact chain with top-k finish
# ---------------------------------------------------------------------------

_Q10_LO, _Q10_HI = "1997-07-01", "1997-10-01"


def q10_returned_revenue(sf_dir: str, k: int = 20):
    """TPC-H Q10 shape: customers who returned items in a quarter,
    ranked by lost revenue — the lineitem→orders→customer chain with
    the nation dimension and a global top-k finish.

    Shape: the order-date window is pushed into the orders read;
    returned lineitems pre-collapse to per-(block, orderkey) cents
    partials; ONE orderkey shuffle join rewrites them to (custkey,
    cents) partials; one bounded custkey exchange finishes the
    per-customer totals.  Customer name/nation ride the budgeted
    broadcast (partitioned shuffle join past the budget, twin
    pinned); nation (spec-bounded at 25) is a
    closure constant.  Every block top-k-prunes before the ≤ k·blocks
    global sort."""
    import pyarrow.parquet as pq

    from .joins import (broadcast_lookup_table, groupby_agg_partitioned,
                        hash_join_via_groupby, lookup_sorted_cols)

    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"])
    nat_keys = np.asarray(nat["n_nationkey"], dtype=np.int64)
    order = np.argsort(nat_keys)
    nat_keys = nat_keys[order]
    nat_names = nat.column("n_name").take(pa.array(order))

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_returnflag", "l_extendedprice",
                "l_discount"])

    def li_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("l_returnflag"), "R"))
        price = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = t.column("l_discount").to_numpy(zero_copy_only=False)
        tbl = pa.table({
            "l_orderkey": t.column("l_orderkey").cast(pa.int64()),
            "cents": pa.array(_cents_np(price * (1.0 - disc)), pa.int64()),
        })
        return _batch_partial(tbl, ["l_orderkey"], ["cents"])

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey"],
        filter=(pc.field("o_orderdate") >= _ts(_Q10_LO))
        & (pc.field("o_orderdate") < _ts(_Q10_HI)))

    def to_cust(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby("o_custkey", as_index=False)
             .agg(cents=("cents", "sum")))
        g["cents"] = g["cents"].astype(np.int64)
        return g

    joined = hash_join_via_groupby(
        li.map_batches(li_partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        orders, "l_orderkey", "o_orderkey", post=to_cust,
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("cents", pa.int64()),
                               ("__n", pa.int64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("o_custkey", pa.int64())]))

    totals = groupby_agg_partitioned(joined, ["o_custkey"],
                                     {"cents": "sum"})

    def add_nation(ck: np.ndarray) -> pa.Array:
        pos = np.searchsorted(nat_keys, ck)
        return nat_names.take(pa.array(np.minimum(pos, len(nat_keys) - 1)))

    cust_handle = broadcast_lookup_table(
        f"{sf_dir}/customer.parquet", "c_custkey",
        ["c_name", "c_nationkey"])

    def finish_tbl(t: pa.Table) -> pa.Table:
        # per-block top-k prune before the bounded global sort
        idx = pc.sort_indices(
            t, sort_keys=[("revenue_cents", "descending"),
                          ("c_custkey", "ascending")])[:k]
        return t.take(idx)

    if cust_handle is not None:
        def name_topk(batch: pa.Table) -> pa.Table:
            ck = batch.column("o_custkey").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            looked = lookup_sorted_cols(cust_handle, ck)
            nk = np.asarray(looked["c_nationkey"], dtype=np.int64)
            t = pa.table({
                "c_custkey": batch.column("o_custkey"),
                "c_name": looked["c_name"],
                "n_name": add_nation(nk),
                "revenue_cents": batch.column("cents"),
            })
            return finish_tbl(t)

        pruned = totals.map_batches(name_topk, batch_format="pyarrow",
                                    zero_copy_batch=True)
    else:
        cust = _read(sf_dir, "customer",
                     ["c_custkey", "c_name", "c_nationkey"])

        def name_topk_df(df: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame({
                "c_custkey": df["c_custkey"].astype(np.int64),
                "c_name": df["c_name"],
                "n_name": add_nation(
                    df["c_nationkey"].to_numpy(np.int64)).to_pylist(),
                "revenue_cents": df["cents"].astype(np.int64),
            })
            return out.sort_values(
                ["revenue_cents", "c_custkey"],
                ascending=[False, True]).head(k)

        pruned = hash_join_via_groupby(
            totals, cust, "o_custkey", "c_custkey", post=None,
            left_schema=pa.schema([("o_custkey", pa.int64()),
                                   ("cents", pa.int64())]),
            right_schema=pa.schema([("c_custkey", pa.int64()),
                                    ("c_name", pa.string()),
                                    ("c_nationkey", pa.int64())]))
        # inner join keeps only ordering customers; totals side came
        # keyed on o_custkey, so rename+prune per partition
        pruned = pruned.map_batches(
            lambda df: name_topk_df(df.rename(
                columns={"o_custkey": "c_custkey"})
                if "o_custkey" in df.columns else df),
            batch_format="pandas")

    return sorted_small(pruned, ["revenue_cents", "c_custkey"],
                       descending=[True, False]).limit(k)


Q10_SQL = f"""
SELECT c_custkey, c_name, n_name,
       CAST(SUM(CAST(FLOOR(l_extendedprice*(1-l_discount)*100 + 0.5)
                     AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem
JOIN orders ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
JOIN nation ON n_nationkey = c_nationkey
WHERE l_returnflag = 'R'
  AND o_orderdate >= TIMESTAMP '{_Q10_LO}'
  AND o_orderdate <  TIMESTAMP '{_Q10_HI}'
GROUP BY c_custkey, c_name, n_name
ORDER BY revenue_cents DESC, c_custkey
LIMIT 20
"""


# ---------------------------------------------------------------------------
# Q8 — market share: the deepest dimension chain, zero broadcasts
# ---------------------------------------------------------------------------

_Q8_REGION = "AMERICA"
_Q8_NATION = "NATION_3"


def q8_market_share(sf_dir: str):
    """TPC-H Q8 shape (market share): for PROMO-part lineitems whose
    order came from a customer in region AMERICA, per order year, the
    exact integer (target_cents, total_cents) pair where target is
    revenue supplied from one nation — the share is target/total,
    left to the consumer as with q14.

    Two plans, the q5 hybrid discipline:
    * COMMON path (all three SF-scaled dimensions fit the footer-
      checked broadcast budget): part's promo flag, supplier's
      nationkey and customer's nationkey all resolve MAP-SIDE, so
      the whole query costs ONE exchange — the orderkey join that
      rewrites lineitem partials to (custkey, year) — plus a
      ≤ |years| groupby.  Nation→region is a closure constant
      (spec-bounded at 25).
    * PAST-BUDGET plan: the full four-join chain
      (part → supplier → orders → customer), every exchange carrying
      PARTIALS — the deepest shuffle chain in the repo, each join's
      merge task collapsing before the next key.  The twin is pinned
      equal in tests/test_tpch_more.py, so the plan that actually
      runs at 100 TB is exercised at test scale.
    Either way the widest exchange is the promo-filtered lineitem
    fraction, which is the lower bound any plan pays."""
    import pyarrow.parquet as pq

    from .joins import (broadcast_int_lookup, broadcast_lookup_table,
                        groupby_agg_partitioned, hash_join_via_groupby,
                        lookup_sorted, lookup_sorted_cols)

    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name", "n_regionkey"])
    reg = pq.read_table(f"{sf_dir}/region.parquet",
                        columns=["r_regionkey", "r_name"])
    region_key = int(reg.column("r_regionkey")[
        reg.column("r_name").to_pylist().index(_Q8_REGION)].as_py())
    nk = np.asarray(nat["n_nationkey"], dtype=np.int64)
    target_key = int(nk[nat.column("n_name").to_pylist()
                        .index(_Q8_NATION)])
    amer_nations = np.sort(nk[np.asarray(nat["n_regionkey"],
                                         dtype=np.int64) == region_key])

    ph = broadcast_lookup_table(f"{sf_dir}/part.parquet",
                                "p_partkey", ["p_type"])
    sh = broadcast_int_lookup(f"{sf_dir}/supplier.parquet",
                              "s_suppkey", "s_nationkey")
    ch = broadcast_int_lookup(f"{sf_dir}/customer.parquet",
                              "c_custkey", "c_nationkey")

    if ph is not None and sh is not None and ch is not None:
        li = _read(sf_dir, "lineitem",
                   ["l_partkey", "l_suppkey", "l_orderkey",
                    "l_extendedprice", "l_discount"])
        out_cols = ["l_orderkey", "target_cents", "total_cents"]

        def li_partial(t: pa.Table) -> pa.Table:
            pk = t.column("l_partkey").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            promo = pc.equal(lookup_sorted_cols(ph, pk)["p_type"],
                             "PROMO").to_numpy(zero_copy_only=False)
            t = t.filter(pa.array(promo))
            if len(t) == 0:
                return pa.table({c: pa.array([], pa.int64())
                                 for c in out_cols})
            sk = t.column("l_suppkey").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            tgt = (lookup_sorted(sh, sk) == target_key).astype(np.int64)
            price = t.column("l_extendedprice").to_numpy(
                zero_copy_only=False)
            disc = t.column("l_discount").to_numpy(zero_copy_only=False)
            cents = _cents_np(price * (1.0 - disc))
            tbl = pa.table({
                "l_orderkey": t.column("l_orderkey").cast(pa.int64()),
                "target_cents": pa.array(cents * tgt, pa.int64()),
                "total_cents": pa.array(cents, pa.int64()),
            })
            return _batch_partial(tbl, ["l_orderkey"],
                                  ["target_cents", "total_cents"]) \
                .select(out_cols)

        orders = _read(sf_dir, "orders",
                       ["o_orderkey", "o_custkey", "o_orderdate"])

        def o_region_year(t: pa.Table) -> pa.Table:
            ck = t.column("o_custkey").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            nkk = lookup_sorted(ch, ck)
            pos = np.searchsorted(amer_nations, nkk)
            pos_c = np.minimum(pos, len(amer_nations) - 1)
            t = t.filter(pa.array(amer_nations[pos_c] == nkk))
            return pa.table({
                "o_orderkey": t.column("o_orderkey").cast(pa.int64()),
                "o_year": pc.year(t.column("o_orderdate"))
                .cast(pa.int64()),
            })

        def year_finish(df: pd.DataFrame) -> pd.DataFrame:
            g = (df.groupby("o_year", as_index=False)
                 .agg(target_cents=("target_cents", "sum"),
                      total_cents=("total_cents", "sum")))
            for c in ("target_cents", "total_cents"):
                g[c] = g[c].astype(np.int64)
            return g

        j = hash_join_via_groupby(
            li.map_batches(li_partial, batch_format="pyarrow",
                           zero_copy_batch=True),
            orders.map_batches(o_region_year, batch_format="pyarrow",
                               zero_copy_batch=True),
            "l_orderkey", "o_orderkey", post=year_finish,
            left_schema=pa.schema([("l_orderkey", pa.int64()),
                                   ("target_cents", pa.int64()),
                                   ("total_cents", pa.int64())]),
            right_schema=pa.schema([("o_orderkey", pa.int64()),
                                    ("o_year", pa.int64())]))
        return sorted_small(groupby_agg_partitioned(
            j, ["o_year"],
            {"target_cents": "sum", "total_cents": "sum"}), "o_year")

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_orderkey",
                "l_extendedprice", "l_discount"])

    def li_proj(t: pa.Table) -> pa.Table:
        price = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = t.column("l_discount").to_numpy(zero_copy_only=False)
        return pa.table({
            "l_partkey": t.column("l_partkey").cast(pa.int64()),
            "l_suppkey": t.column("l_suppkey").cast(pa.int64()),
            "l_orderkey": t.column("l_orderkey").cast(pa.int64()),
            "cents": pa.array(_cents_np(price * (1.0 - disc)), pa.int64()),
        })

    part = _read(sf_dir, "part", ["p_partkey", "p_type"])

    def p_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "p_partkey": t.column("p_partkey").cast(pa.int64()),
            "is_promo": pc.equal(t.column("p_type"),
                                 "PROMO").cast(pa.int64()),
        })

    def promo_collapse(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["is_promo"] == 1]
        g = (df.groupby(["l_suppkey", "l_orderkey"], as_index=False)
             .agg(cents=("cents", "sum")))
        g["cents"] = g["cents"].astype(np.int64)
        return g

    j1 = hash_join_via_groupby(
        li.map_batches(li_proj, batch_format="pyarrow",
                       zero_copy_batch=True),
        part.map_batches(p_proj, batch_format="pyarrow",
                         zero_copy_batch=True),
        "l_partkey", "p_partkey", post=promo_collapse,
        left_schema=pa.schema([("l_partkey", pa.int64()),
                               ("l_suppkey", pa.int64()),
                               ("l_orderkey", pa.int64()),
                               ("cents", pa.int64())]),
        right_schema=pa.schema([("p_partkey", pa.int64()),
                                ("is_promo", pa.int64())]))

    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])

    def s_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "s_suppkey": t.column("s_suppkey").cast(pa.int64()),
            "s_nationkey": t.column("s_nationkey").cast(pa.int64()),
        })

    def target_collapse(df: pd.DataFrame) -> pd.DataFrame:
        tgt = (df["s_nationkey"].to_numpy() == target_key).astype(np.int64)
        cents = df["cents"].to_numpy()
        out = pd.DataFrame({
            "l_orderkey": df["l_orderkey"].astype(np.int64),
            "target_cents": cents * tgt,
            "total_cents": cents,
        })
        return out.groupby("l_orderkey", as_index=False).sum()

    j2 = hash_join_via_groupby(
        j1, supp.map_batches(s_proj, batch_format="pyarrow",
                             zero_copy_batch=True),
        "l_suppkey", "s_suppkey", post=target_collapse,
        left_schema=pa.schema([("l_suppkey", pa.int64()),
                               ("l_orderkey", pa.int64()),
                               ("cents", pa.int64())]),
        right_schema=pa.schema([("s_suppkey", pa.int64()),
                                ("s_nationkey", pa.int64())]))

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey",
                                      "o_orderdate"])

    def o_proj(t: pa.Table) -> pa.Table:
        yr = pc.year(t.column("o_orderdate")).cast(pa.int64())
        return pa.table({
            "o_orderkey": t.column("o_orderkey").cast(pa.int64()),
            "o_custkey": t.column("o_custkey").cast(pa.int64()),
            "o_year": yr,
        })

    def cust_collapse(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["o_custkey", "o_year"], as_index=False)
             .agg(target_cents=("target_cents", "sum"),
                  total_cents=("total_cents", "sum")))
        for c in ("target_cents", "total_cents"):
            g[c] = g[c].astype(np.int64)
        return g

    j3 = hash_join_via_groupby(
        j2.map_batches(lambda t: t.rename_columns(
            ["l_orderkey", "target_cents", "total_cents"]),
            batch_format="pyarrow"),
        orders.map_batches(o_proj, batch_format="pyarrow",
                           zero_copy_batch=True),
        "l_orderkey", "o_orderkey", post=cust_collapse,
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("target_cents", pa.int64()),
                               ("total_cents", pa.int64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("o_custkey", pa.int64()),
                                ("o_year", pa.int64())]))

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def c_proj(t: pa.Table) -> pa.Table:
        nkk = t.column("c_nationkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        pos = np.searchsorted(amer_nations, nkk)
        pos_c = np.minimum(pos, len(amer_nations) - 1)
        return pa.table({
            "c_custkey": t.column("c_custkey").cast(pa.int64()),
            "in_region": pa.array(
                (amer_nations[pos_c] == nkk).astype(np.int64), pa.int64()),
        })

    def year_collapse(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["in_region"] == 1]
        g = (df.groupby("o_year", as_index=False)
             .agg(target_cents=("target_cents", "sum"),
                  total_cents=("total_cents", "sum")))
        for c in ("target_cents", "total_cents"):
            g[c] = g[c].astype(np.int64)
        return g

    j4 = hash_join_via_groupby(
        j3, cust.map_batches(c_proj, batch_format="pyarrow",
                             zero_copy_batch=True),
        "o_custkey", "c_custkey", post=year_collapse,
        left_schema=pa.schema([("o_custkey", pa.int64()),
                               ("o_year", pa.int64()),
                               ("target_cents", pa.int64()),
                               ("total_cents", pa.int64())]),
        right_schema=pa.schema([("c_custkey", pa.int64()),
                                ("in_region", pa.int64())]))

    return sorted_small(groupby_agg_partitioned(
        j4, ["o_year"],
        {"target_cents": "sum", "total_cents": "sum"}), "o_year")


Q8_SQL = f"""
SELECT CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
       CAST(SUM(CASE WHEN sn.n_name = '{_Q8_NATION}'
                THEN CAST(FLOOR(l_extendedprice*(1-l_discount)*100 + 0.5)
                          AS BIGINT) ELSE 0 END) AS BIGINT) AS target_cents,
       CAST(SUM(CAST(FLOOR(l_extendedprice*(1-l_discount)*100 + 0.5)
                     AS BIGINT)) AS BIGINT) AS total_cents
FROM lineitem
JOIN part ON p_partkey = l_partkey AND p_type = 'PROMO'
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation sn ON sn.n_nationkey = s_nationkey
JOIN orders ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
JOIN nation cn ON cn.n_nationkey = c_nationkey
JOIN region ON r_regionkey = cn.n_regionkey AND r_name = '{_Q8_REGION}'
GROUP BY o_year
ORDER BY o_year
"""

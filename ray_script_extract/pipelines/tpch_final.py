"""The last five TPC-H query shapes (Q2 / Q9 / Q11 / Q20 / Q21).

tpch_more.py covered Q4/Q8/Q10/Q12–Q16/Q19/Q22; with this module the
full 22-shape TPC-H battery is represented, each shape adapted to the
columns the synthetic tables actually carry (no partsupp and no
commitdate/receiptdate — see TESTDATA.md):

* ``q2_min_cost_supplier``   — correlated-MIN join-back over two
  dimension paths (Q2): lineitem's observed unit price stands in for
  ps_supplycost; ties at the per-part minimum are kept, as in spec.
* ``q9_profit_by_nation``    — the product-profit chain (Q9):
  part-filter ⨝ lineitem ⨝ orders with supplier→nation rollup; the
  supply cost proxy is 60 % of p_retailprice (integer-exact).
* ``q11_important_parts``    — grouped sum vs a fraction-of-global
  scalar (Q11): lineitem value per part over one nation's suppliers,
  HAVING sum > total/1000.
* ``q20_promotion_suppliers``— nested semi-join chain (Q20): suppliers
  who shipped more than a quota of name-prefixed parts in a year.
* ``q21_waiting_suppliers``  — the 4-way self semi/anti join (Q21):
  the sole late supplier of multi-supplier finished orders, "late"
  re-derived as shipdate > orderdate + 60 days.

Scale shapes (the 100 TB discipline of queries.py / tpch_more.py):
* part is NOT a bounded dimension — the part side rides the budgeted
  broadcast (footer-row check) and falls back to the union-tag
  single-exchange semi-join past the budget (both plans pinned equal
  in tests/test_tpch_final.py);
* supplier lookups use the same hybrid (``broadcast_int_lookup`` /
  ``broadcast_lookup_table`` with a partitioned-join fallback);
* fact tables pre-collapse per block before every exchange — Q21's
  combiner is per-(order, supplier) MAX(shipdate), which preserves
  both the distinct-supplier count and any-line-late exactly;
* per-order / per-part logic co-locates on ONE orderkey / partkey
  exchange (``hash_partitioned_map``), never a driver loop;
* nation/region are spec-bounded (25/5 rows) and read driver-side,
  the same dispensation q7/q8 use.

Numerics: money in cents (floor(x*100+0.5) int64); Q2's unit price is
floor(extendedprice/quantity*100+0.5) — one division then one
multiply, the identical IEEE-754 double sequence DuckDB evaluates, so
the oracle matches bit-exactly.  Q9's cost is (qty*retail_cents*3)//5,
integer end-to-end.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from . import joins
from .joins import (broadcast_int_lookup, broadcast_lookup_table,
                    groupby_agg_partitioned, hash_join_via_groupby,
                    hash_partitioned_map, lookup_sorted,
                    lookup_sorted_cols, sorted_small)
from .tpch_more import _batch_partial, _cents_np, _read, _ts


# ---------------------------------------------------------------------------
# Shared: budgeted broadcast of a FILTERED part projection
# ---------------------------------------------------------------------------

def _broadcast_part(sf_dir: str, pred, val_cols=()):
    """Budgeted broadcast of the part rows matching ``pred`` (a
    pc.Expression over the part columns).  The budget check uses the
    parquet FOOTER row count of the WHOLE table (conservative: the
    filtered subset is strictly smaller), so deciding the strategy
    costs no data I/O — same contract as ``broadcast_int_lookup``.
    Returns None past the budget; callers fall back to the union-tag
    partkey exchange."""
    import pyarrow.parquet as pq

    path = f"{sf_dir}/part.parquet"
    if pq.ParquetFile(path).metadata.num_rows > joins._BROADCAST_LOOKUP_ROWS:
        return None
    t = pq.read_table(path, columns=["p_partkey", "p_name", "p_size",
                                     "p_type", "p_retailprice"])
    t = t.filter(pred)
    keys = np.asarray(t["p_partkey"], dtype=np.int64)
    order = np.argsort(keys)
    vals = {}
    for c in val_cols:
        if c == "retail_cents":
            vals[c] = _cents_np(np.asarray(t["p_retailprice"],
                                           np.float64))[order]
        else:
            vals[c] = np.asarray(t[c])[order]
    return ray.put((keys[order], vals))


def _member_mask(keys_sorted: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Vectorized membership of ``probe`` in a sorted key array."""
    if not len(keys_sorted):
        return np.zeros(len(probe), bool)
    pos = np.searchsorted(keys_sorted, probe)
    pos_c = np.minimum(pos, len(keys_sorted) - 1)
    return keys_sorted[pos_c] == probe


# ---------------------------------------------------------------------------
# Q2 — min-cost supplier per part (correlated MIN + two-path join-back)
# ---------------------------------------------------------------------------

_Q2_SIZE, _Q2_TYPE, _Q2_REGION = 15, "PROMO", "EUROPE"


def q2_min_cost_supplier(sf_dir: str, top_k: int = 100):
    """TPC-H Q2 shape.  No partsupp table exists, so a supplier's
    "supply cost" for a part is the minimum unit price it was ever
    observed charging in lineitem (floor(extprice/qty*100+0.5) cents);
    the target parts are (p_size=15, p_type='PROMO') and suppliers are
    restricted to the EUROPE region, mirroring the spec's parameters.
    Ties at the per-part minimum keep every winning supplier (Q2's
    correlated ``= (SELECT MIN …)`` semantics).

    Plan (primary): the filtered part keys are a budgeted broadcast,
    so lineitem prefilters to the target parts MAP-SIDE (the selected
    fraction is tiny — |part|/(50·|types|)) and collapses to
    per-(part, supp) MIN-unit partials with the region filter applied
    through the supplier broadcast; the partkey exchange then carries
    almost nothing.  Past the part budget the filtered part keys ride the SAME partkey exchange as tag rows
    (supp = -1 sentinel), so the semi-join plus the correlated min
    still resolve in ONE all-to-all.  Supplier details (name, acctbal,
    nation) attach to the bounded winner set via the budgeted
    broadcast, or a partitioned join past the budget."""
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region = pq.read_table(f"{sf_dir}/region.parquet")
    rkey = {r["r_name"]: r["r_regionkey"] for r in region.to_pylist()}
    region_nations = np.sort(np.array(
        [r["n_nationkey"] for r in nation.to_pylist()
         if r["n_regionkey"] == rkey[_Q2_REGION]], np.int64))
    nation_names = {r["n_nationkey"]: r["n_name"]
                    for r in nation.to_pylist()}

    supp_nat = broadcast_int_lookup(
        f"{sf_dir}/supplier.parquet", "s_suppkey", "s_nationkey")
    part_bc = _broadcast_part(
        sf_dir, (pc.field("p_size") == _Q2_SIZE)
        & (pc.field("p_type") == _Q2_TYPE))

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_extendedprice", "l_quantity"])

    def li_partial(t: pa.Table) -> pa.Table:
        if part_bc is not None:
            pk = t.column("l_partkey").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            sel_keys, _ = ray.get(part_bc)
            t = t.filter(pa.array(_member_mask(sel_keys, pk)))
        supp = t.column("l_suppkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if supp_nat is not None:
            keep = _member_mask(region_nations, lookup_sorted(supp_nat, supp))
            t, supp = t.filter(pa.array(keep)), supp[keep]
        price = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        qty = t.column("l_quantity").to_numpy(zero_copy_only=False)
        unit = np.floor(price / qty * 100.0 + 0.5).astype(np.int64)
        g = pa.table({"key": t.column("l_partkey").cast(pa.int64()),
                      "supp": pa.array(supp, pa.int64()),
                      "unit": pa.array(unit, pa.int64())}) \
            .group_by(["key", "supp"]).aggregate([("unit", "min")])
        return pa.table({"key": g.column("key"), "supp": g.column("supp"),
                         "unit": g.column("unit_min")})

    partials = li.map_batches(li_partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    if supp_nat is None:
        # twin: attach s_nationkey with a partitioned join on suppkey,
        # filter to the region inside the merge task
        supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])

        def s_proj(t: pa.Table) -> pa.Table:
            return pa.table({
                "s_suppkey": t.column("s_suppkey").cast(pa.int64()),
                "s_nat": t.column("s_nationkey").cast(pa.int64())})

        def region_filter(df: pd.DataFrame) -> pd.DataFrame:
            keep = _member_mask(region_nations, df["s_nat"].to_numpy())
            return df.loc[keep, ["key", "unit", "supp"]]

        partials = hash_join_via_groupby(
            partials, supp.map_batches(s_proj, batch_format="pyarrow",
                                       zero_copy_batch=True),
            "supp", "s_suppkey", post=region_filter,
            left_schema=pa.schema([("key", pa.int64()),
                                   ("supp", pa.int64()),
                                   ("unit", pa.int64())]),
            right_schema=pa.schema([("s_suppkey", pa.int64()),
                                    ("s_nat", pa.int64())]))

    if part_bc is not None:
        # membership already applied map-side; nothing to union
        both = partials
    else:
        part = ray.data.read_parquet(
            f"{sf_dir}/part.parquet", columns=["p_partkey"],
            filter=(pc.field("p_size") == _Q2_SIZE)
            & (pc.field("p_type") == _Q2_TYPE))

        def part_tag(t: pa.Table) -> pa.Table:
            n = len(t)
            return pa.table({"key": t.column("p_partkey").cast(pa.int64()),
                             "supp": pa.array(np.full(n, -1), pa.int64()),
                             "unit": pa.array(np.full(n, -1), pa.int64())})

        both = partials.union(part.map_batches(
            part_tag, batch_format="pyarrow", zero_copy_batch=True))

    has_tags = part_bc is None

    def pick_winners(df: pd.DataFrame) -> pd.DataFrame:
        if has_tags:
            sel = np.unique(
                df.loc[df["supp"].to_numpy() < 0, "key"].to_numpy())
            c = df[df["supp"].to_numpy() >= 0]
            c = c[_member_mask(sel, c["key"].to_numpy())]
        else:
            c = df
        if not len(c):
            return pd.DataFrame({"p_partkey": np.array([], np.int64),
                                 "s_suppkey": np.array([], np.int64),
                                 "min_cost_cents": np.array([], np.int64)})
        g = c.groupby(["key", "supp"], as_index=False, sort=False)["unit"] \
            .min()
        part_min = g.groupby("key")["unit"].transform("min")
        w = g[g["unit"].to_numpy() == part_min.to_numpy()]
        return pd.DataFrame({
            "p_partkey": w["key"].to_numpy(np.int64),
            "s_suppkey": w["supp"].to_numpy(np.int64),
            "min_cost_cents": w["unit"].to_numpy(np.int64)})

    winners = hash_partitioned_map(both, ["key"], pick_winners)

    name_arr = np.array([nation_names.get(k, "")
                         for k in range(max(nation_names) + 1)])
    supp_det = broadcast_lookup_table(
        f"{sf_dir}/supplier.parquet", "s_suppkey",
        ["s_name", "s_acctbal", "s_nationkey"])

    if supp_det is not None:
        def attach(t: pa.Table) -> pa.Table:
            supp = t.column("s_suppkey").to_numpy(zero_copy_only=False)
            got = lookup_sorted_cols(supp_det, supp)
            bal = np.asarray(got["s_acctbal"], np.float64)
            nat = np.asarray(got["s_nationkey"], np.int64)
            return pa.table({
                "s_acctbal_cents": pa.array(_cents_np(bal), pa.int64()),
                "s_name": got["s_name"],
                "n_name": pa.array(name_arr[nat]),
                "p_partkey": t.column("p_partkey"),
                "min_cost_cents": t.column("min_cost_cents")})

        out = winners.map_batches(attach, batch_format="pyarrow",
                                  zero_copy_batch=True)
    else:
        supp = _read(sf_dir, "supplier",
                     ["s_suppkey", "s_name", "s_acctbal", "s_nationkey"])

        def s_all(t: pa.Table) -> pa.Table:
            bal = t.column("s_acctbal").to_numpy(zero_copy_only=False)
            nat = t.column("s_nationkey").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            return pa.table({
                "s_suppkey": t.column("s_suppkey").cast(pa.int64()),
                "s_name": t.column("s_name"),
                "s_acctbal_cents": pa.array(_cents_np(bal), pa.int64()),
                "n_name": pa.array(name_arr[nat])})

        def proj(df: pd.DataFrame) -> pd.DataFrame:
            return df[["s_acctbal_cents", "s_name", "n_name",
                       "p_partkey", "min_cost_cents"]]

        out = hash_join_via_groupby(
            winners, supp.map_batches(s_all, batch_format="pyarrow",
                                      zero_copy_batch=True),
            "s_suppkey", "s_suppkey", post=proj,
            left_schema=pa.schema([("p_partkey", pa.int64()),
                                   ("s_suppkey", pa.int64()),
                                   ("min_cost_cents", pa.int64())]),
            right_schema=pa.schema([("s_suppkey", pa.int64()),
                                    ("s_name", pa.string()),
                                    ("s_acctbal_cents", pa.int64()),
                                    ("n_name", pa.string())]))

    return sorted_small(out,
                        ["s_acctbal_cents", "n_name", "s_name", "p_partkey"],
                        descending=[True, False, False, False]).limit(top_k)


Q2_SQL = f"""
WITH costs AS (
  SELECT l_partkey AS p_partkey, l_suppkey AS s_suppkey,
         MIN(CAST(FLOOR(l_extendedprice / l_quantity * 100 + 0.5)
                  AS BIGINT)) AS unit_cents
  FROM lineitem
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation ON n_nationkey = s_nationkey
  JOIN region ON r_regionkey = n_regionkey AND r_name = '{_Q2_REGION}'
  GROUP BY 1, 2),
sel AS (SELECT p_partkey FROM part
        WHERE p_size = {_Q2_SIZE} AND p_type = '{_Q2_TYPE}')
SELECT CAST(FLOOR(s_acctbal * 100 + 0.5) AS BIGINT) AS s_acctbal_cents,
       s_name, n_name, c.p_partkey,
       c.unit_cents AS min_cost_cents
FROM costs c
JOIN sel USING (p_partkey)
JOIN supplier ON supplier.s_suppkey = c.s_suppkey
JOIN nation ON n_nationkey = s_nationkey
WHERE c.unit_cents = (SELECT MIN(unit_cents) FROM costs c2
                      WHERE c2.p_partkey = c.p_partkey)
ORDER BY s_acctbal_cents DESC, n_name, s_name, c.p_partkey
LIMIT 100
"""


# ---------------------------------------------------------------------------
# Q9 — product-type profit by nation and year
# ---------------------------------------------------------------------------

_Q9_SUBSTR = "red"


def q9_profit_by_nation(sf_dir: str):
    """TPC-H Q9 shape: profit from parts whose name contains 'red',
    grouped by (supplier nation, order year).  No ps_supplycost
    exists, so cost = 60 % of p_retailprice per unit, kept integer as
    (qty × retail_cents × 3) // 5; profit = revenue_cents − cost.

    Plan (primary): the matching (partkey → retail_cents) projection
    is a budgeted broadcast, so lineitem prefilters map-side and
    collapses to (orderkey, s_nat) profit partials — ONE fact-fact
    exchange (⨝ orders for the year) total.  Past the budget:
    part rides a union-tag partkey exchange and supplier a
    partitioned join, the plan Q9 needs when part outgrows the
    broadcast budget at 100 TB."""
    part_pred = pc.match_substring(pc.field("p_name"), _Q9_SUBSTR)
    part_bc = _broadcast_part(
        sf_dir, part_pred, ["retail_cents"])

    supp_nat = broadcast_int_lookup(
        f"{sf_dir}/supplier.parquet", "s_suppkey", "s_nationkey")

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_partkey", "l_suppkey",
                "l_extendedprice", "l_discount", "l_quantity"])

    def profit_cents(price, disc, qty, retail_cents):
        rev = _cents_np(price * (1.0 - disc))
        cost = (qty.astype(np.int64) * retail_cents * 3) // 5
        return rev - cost

    if part_bc is not None and supp_nat is not None:
        def li_partial(t: pa.Table) -> pa.Table:
            pk = t.column("l_partkey").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            keys, vals = ray.get(part_bc)
            keep = _member_mask(keys, pk)
            t, pk = t.filter(pa.array(keep)), pk[keep]
            pos = np.searchsorted(keys, pk)
            retail = vals["retail_cents"][pos]
            supp = t.column("l_suppkey").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            profit = profit_cents(
                t.column("l_extendedprice").to_numpy(zero_copy_only=False),
                t.column("l_discount").to_numpy(zero_copy_only=False),
                t.column("l_quantity").to_numpy(zero_copy_only=False),
                retail)
            tbl = pa.table({
                "l_orderkey": t.column("l_orderkey").cast(pa.int64()),
                "s_nat": pa.array(lookup_sorted(supp_nat, supp), pa.int64()),
                "profit_cents": pa.array(profit, pa.int64())})
            g = tbl.group_by(["l_orderkey", "s_nat"]) \
                .aggregate([("profit_cents", "sum")])
            return pa.table({"l_orderkey": g.column("l_orderkey"),
                             "s_nat": g.column("s_nat"),
                             "profit_cents": g.column("profit_cents_sum")})

        keyed = li.map_batches(li_partial, batch_format="pyarrow",
                               zero_copy_batch=True)
    else:
        # twin: (1) union-tag partkey exchange joins part's retail and
        # applies the name filter; (2) partitioned join attaches the
        # supplier nation — the no-broadcast plan.
        def li_tag(t: pa.Table) -> pa.Table:
            n = len(t)
            return pa.table({
                "key": t.column("l_partkey").cast(pa.int64()),
                "ok": t.column("l_orderkey").cast(pa.int64()),
                "supp": t.column("l_suppkey").cast(pa.int64()),
                "rev_cents": pa.array(_cents_np(
                    t.column("l_extendedprice")
                    .to_numpy(zero_copy_only=False)
                    * (1.0 - t.column("l_discount")
                       .to_numpy(zero_copy_only=False))), pa.int64()),
                "qty": pa.array(t.column("l_quantity")
                                .to_numpy(zero_copy_only=False)
                                .astype(np.int64), pa.int64()),
                "retail_cents": pa.array(np.full(n, -1), pa.int64())})

        part = _read(sf_dir, "part", ["p_partkey", "p_name",
                                      "p_retailprice"])

        def part_tag(t: pa.Table) -> pa.Table:
            t = t.filter(pc.match_substring(t.column("p_name"), _Q9_SUBSTR))
            n = len(t)
            return pa.table({
                "key": t.column("p_partkey").cast(pa.int64()),
                "ok": pa.array(np.full(n, -1), pa.int64()),
                "supp": pa.array(np.full(n, -1), pa.int64()),
                "rev_cents": pa.array(np.full(n, -1), pa.int64()),
                "qty": pa.array(np.full(n, -1), pa.int64()),
                "retail_cents": pa.array(_cents_np(
                    t.column("p_retailprice")
                    .to_numpy(zero_copy_only=False)), pa.int64())})

        both = (li.map_batches(li_tag, batch_format="pyarrow",
                               zero_copy_batch=True)
                .union(part.map_batches(part_tag, batch_format="pyarrow",
                                        zero_copy_batch=True)))

        def join_retail(df: pd.DataFrame) -> pd.DataFrame:
            pr = df[df["ok"].to_numpy() < 0]
            ln = df[df["ok"].to_numpy() >= 0]
            m = ln.drop(columns="retail_cents").merge(
                pr[["key", "retail_cents"]], on="key", how="inner")
            profit = (m["rev_cents"].to_numpy()
                      - (m["qty"].to_numpy() * m["retail_cents"].to_numpy()
                         * 3) // 5)
            out = pd.DataFrame({"l_orderkey": m["ok"].to_numpy(np.int64),
                                "supp": m["supp"].to_numpy(np.int64),
                                "profit_cents": profit.astype(np.int64)})
            return out.groupby(["l_orderkey", "supp"], as_index=False,
                               sort=False).sum()

        keyed0 = hash_partitioned_map(both, ["key"], join_retail)

        supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])

        def s_proj(t: pa.Table) -> pa.Table:
            return pa.table({
                "s_suppkey": t.column("s_suppkey").cast(pa.int64()),
                "s_nat": t.column("s_nationkey").cast(pa.int64())})

        def fold(df: pd.DataFrame) -> pd.DataFrame:
            return (df[["l_orderkey", "s_nat", "profit_cents"]]
                    .groupby(["l_orderkey", "s_nat"], as_index=False,
                             sort=False).sum())

        keyed = hash_join_via_groupby(
            keyed0, supp.map_batches(s_proj, batch_format="pyarrow",
                                     zero_copy_batch=True),
            "supp", "s_suppkey", post=fold,
            left_schema=pa.schema([("l_orderkey", pa.int64()),
                                   ("supp", pa.int64()),
                                   ("profit_cents", pa.int64())]),
            right_schema=pa.schema([("s_suppkey", pa.int64()),
                                    ("s_nat", pa.int64())]))

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])

    def o_proj(t: pa.Table) -> pa.Table:
        days = t.column("o_orderdate").to_numpy(zero_copy_only=False)
        years = days.astype("datetime64[Y]").astype(np.int64) + 1970
        return pa.table({"o_orderkey": t.column("o_orderkey")
                         .cast(pa.int64()),
                         "o_year": pa.array(years, pa.int64())})

    def fold_year(df: pd.DataFrame) -> pd.DataFrame:
        return (df[["s_nat", "o_year", "profit_cents"]]
                .groupby(["s_nat", "o_year"], as_index=False,
                         sort=False).sum())

    joined = hash_join_via_groupby(
        keyed, orders.map_batches(o_proj, batch_format="pyarrow",
                                  zero_copy_batch=True),
        "l_orderkey", "o_orderkey", post=fold_year,
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("s_nat", pa.int64()),
                               ("profit_cents", pa.int64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("o_year", pa.int64())]))

    import pyarrow.parquet as pq

    nn = pq.read_table(f"{sf_dir}/nation.parquet").to_pylist()
    name_arr = np.array([r["n_name"] for r in
                         sorted(nn, key=lambda r: r["n_nationkey"])])

    def finish(t: pa.Table) -> pa.Table:
        nat = t.column("s_nat").to_numpy(zero_copy_only=False)
        return pa.table({"nation": pa.array(name_arr[nat]),
                         "o_year": t.column("o_year"),
                         "profit_cents": t.column("profit_cents")})

    return sorted_small(
        groupby_agg_partitioned(joined, ["s_nat", "o_year"],
                                {"profit_cents": "sum"})
        .map_batches(finish, batch_format="pyarrow", zero_copy_batch=True),
        ["nation", "o_year"])


Q9_SQL = f"""
SELECT n_name AS nation,
       CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
       CAST(SUM(CAST(FLOOR(l_extendedprice*(1-l_discount)*100 + 0.5)
                     AS BIGINT)
                - (CAST(l_quantity AS BIGINT)
                   * CAST(FLOOR(p_retailprice*100 + 0.5) AS BIGINT)
                   * 3) // 5) AS BIGINT) AS profit_cents
FROM lineitem
JOIN part ON p_partkey = l_partkey AND p_name LIKE '%{_Q9_SUBSTR}%'
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation ON n_nationkey = s_nationkey
JOIN orders ON o_orderkey = l_orderkey
GROUP BY 1, 2
ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# Q11 — important parts: grouped sum vs fraction-of-global scalar
# ---------------------------------------------------------------------------

_Q11_NATION = "NATION_3"
_Q11_FRAC_DEN = 1000  # HAVING sum > global_total / 1000, integer-exact


def q11_important_parts(sf_dir: str):
    """TPC-H Q11 shape: per-part lineitem value over one nation's
    suppliers, keeping parts whose total exceeds 1/1000 of the global
    (same-filter) total.  ps_supplycost×ps_availqty is replaced by
    discounted revenue — the shape (grouped sum compared against a
    fraction-of-global scalar subquery) is what matters.

    Plan: the nation filter applies map-side through the supplier
    broadcast (a partitioned join past the budget); partials
    collapse per block, ONE partkey exchange produces the per-part
    totals, which are materialized ONCE (bounded by |part|, far below
    the lineitem input) and reused for both the global scalar and the
    HAVING filter — no second scan of lineitem."""
    import pyarrow.parquet as pq

    nat_t = pq.read_table(f"{sf_dir}/nation.parquet").to_pylist()
    nat_key = {r["n_name"]: r["n_nationkey"] for r in nat_t}[_Q11_NATION]

    supp_nat = broadcast_int_lookup(
        f"{sf_dir}/supplier.parquet", "s_suppkey", "s_nationkey")

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"])

    def li_partial(t: pa.Table) -> pa.Table:
        supp = t.column("l_suppkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if supp_nat is not None:
            keep = lookup_sorted(supp_nat, supp) == nat_key
            t, supp = t.filter(pa.array(keep)), supp[keep]
        val = _cents_np(
            t.column("l_extendedprice").to_numpy(zero_copy_only=False)
            * (1.0 - t.column("l_discount").to_numpy(zero_copy_only=False)))
        tbl = pa.table({"p_partkey": t.column("l_partkey").cast(pa.int64()),
                        "supp": pa.array(supp, pa.int64()),
                        "value_cents": pa.array(val, pa.int64())})
        keys = ["p_partkey"] if supp_nat is not None \
            else ["p_partkey", "supp"]
        g = tbl.group_by(keys).aggregate([("value_cents", "sum")])
        cols = {k: g.column(k) for k in keys}
        cols["value_cents"] = g.column("value_cents_sum")
        return pa.table(cols)

    partials = li.map_batches(li_partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    if supp_nat is None:
        supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])

        def s_proj(t: pa.Table) -> pa.Table:
            return pa.table({
                "s_suppkey": t.column("s_suppkey").cast(pa.int64()),
                "s_nat": t.column("s_nationkey").cast(pa.int64())})

        def nat_filter(df: pd.DataFrame) -> pd.DataFrame:
            return df.loc[df["s_nat"].to_numpy() == nat_key,
                          ["p_partkey", "value_cents"]]

        partials = hash_join_via_groupby(
            partials, supp.map_batches(s_proj, batch_format="pyarrow",
                                       zero_copy_batch=True),
            "supp", "s_suppkey", post=nat_filter,
            left_schema=pa.schema([("p_partkey", pa.int64()),
                                   ("supp", pa.int64()),
                                   ("value_cents", pa.int64())]),
            right_schema=pa.schema([("s_suppkey", pa.int64()),
                                    ("s_nat", pa.int64())]))

    per_part = groupby_agg_partitioned(
        partials, ["p_partkey"], {"value_cents": "sum"}).materialize()

    total = per_part.sum("value_cents") or 0
    threshold = total // _Q11_FRAC_DEN

    kept = per_part.map_batches(
        lambda t: t.filter(pc.greater(t.column("value_cents"),
                                      pa.scalar(threshold, pa.int64()))),
        batch_format="pyarrow", zero_copy_batch=True)
    return sorted_small(kept, ["value_cents", "p_partkey"],
                        descending=[True, False])


Q11_SQL = f"""
WITH v AS (
  SELECT l_partkey AS p_partkey,
         CAST(SUM(CAST(FLOOR(l_extendedprice*(1-l_discount)*100 + 0.5)
                       AS BIGINT)) AS BIGINT) AS value_cents
  FROM lineitem
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation ON n_nationkey = s_nationkey AND n_name = '{_Q11_NATION}'
  GROUP BY 1)
SELECT p_partkey, value_cents FROM v
WHERE value_cents > (SELECT SUM(value_cents) // {_Q11_FRAC_DEN} FROM v)
ORDER BY value_cents DESC, p_partkey
"""


# ---------------------------------------------------------------------------
# Q20 — suppliers with excess shipments of promoted parts
# ---------------------------------------------------------------------------

_Q20_PREFIX = "small"
_Q20_LO, _Q20_HI = "1997-01-01", "1998-01-01"
_Q20_MIN_QTY = 400


def q20_promotion_suppliers(sf_dir: str, min_qty: int = _Q20_MIN_QTY):
    """TPC-H Q20 shape: suppliers who shipped more than a quota
    (Σqty > 400) of name-prefixed parts within one year.  The spec's
    ps_availqty half-quota becomes a fixed quantity quota over
    lineitem — the nested semi-join chain (part → lineitem →
    supplier) is the shape under test.

    Plan (primary): matching partkeys broadcast (footer budget);
    lineitem's shipdate window is pushed into the read, the part
    filter applies map-side, and partials collapse to per-supplier
    quantity sums — the ONE exchange is on the bounded supplier
    domain.  Past the part budget, part rides the union-tag partkey
    exchange instead."""
    part_pred = pc.starts_with(pc.field("p_name"), _Q20_PREFIX)
    part_bc = _broadcast_part(sf_dir, part_pred)

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_quantity"],
        filter=(pc.field("l_shipdate") >= _ts(_Q20_LO))
        & (pc.field("l_shipdate") < _ts(_Q20_HI)))

    if part_bc is not None:
        def li_partial(t: pa.Table) -> pa.Table:
            pk = t.column("l_partkey").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            keys, _ = ray.get(part_bc)
            t = t.filter(pa.array(_member_mask(keys, pk)))
            tbl = pa.table({
                "s_suppkey": t.column("l_suppkey").cast(pa.int64()),
                "total_qty": pa.array(
                    t.column("l_quantity").to_numpy(zero_copy_only=False)
                    .astype(np.int64), pa.int64())})
            g = tbl.group_by(["s_suppkey"]).aggregate([("total_qty", "sum")])
            return pa.table({"s_suppkey": g.column("s_suppkey"),
                             "total_qty": g.column("total_qty_sum")})

        per_supp = groupby_agg_partitioned(
            li.map_batches(li_partial, batch_format="pyarrow",
                           zero_copy_batch=True),
            ["s_suppkey"], {"total_qty": "sum"})
    else:
        def li_tag(t: pa.Table) -> pa.Table:
            return pa.table({
                "key": t.column("l_partkey").cast(pa.int64()),
                "supp": t.column("l_suppkey").cast(pa.int64()),
                "qty": pa.array(t.column("l_quantity")
                                .to_numpy(zero_copy_only=False)
                                .astype(np.int64), pa.int64())})

        part = _read(sf_dir, "part", ["p_partkey", "p_name"])

        def part_tag(t: pa.Table) -> pa.Table:
            t = t.filter(pc.starts_with(t.column("p_name"), _Q20_PREFIX))
            n = len(t)
            return pa.table({
                "key": t.column("p_partkey").cast(pa.int64()),
                "supp": pa.array(np.full(n, -1), pa.int64()),
                "qty": pa.array(np.full(n, -1), pa.int64())})

        both = (li.map_batches(li_tag, batch_format="pyarrow",
                               zero_copy_batch=True)
                .union(part.map_batches(part_tag, batch_format="pyarrow",
                                        zero_copy_batch=True)))

        def semi(df: pd.DataFrame) -> pd.DataFrame:
            sel = np.unique(
                df.loc[df["supp"].to_numpy() < 0, "key"].to_numpy())
            ln = df[df["supp"].to_numpy() >= 0]
            ln = ln[_member_mask(sel, ln["key"].to_numpy())]
            g = (ln.groupby("supp", as_index=False, sort=False)["qty"]
                 .sum())
            return pd.DataFrame({
                "s_suppkey": g["supp"].to_numpy(np.int64),
                "total_qty": g["qty"].to_numpy(np.int64)})

        per_supp = groupby_agg_partitioned(
            hash_partitioned_map(both, ["key"], semi),
            ["s_suppkey"], {"total_qty": "sum"})

    qual = per_supp.map_batches(
        lambda t: t.filter(pc.greater(t.column("total_qty"),
                                      pa.scalar(min_qty, pa.int64()))),
        batch_format="pyarrow", zero_copy_batch=True)

    supp_det = broadcast_lookup_table(
        f"{sf_dir}/supplier.parquet", "s_suppkey", ["s_name"])

    if supp_det is not None:
        def attach(t: pa.Table) -> pa.Table:
            got = lookup_sorted_cols(
                supp_det,
                t.column("s_suppkey").to_numpy(zero_copy_only=False))
            return pa.table({"s_name": got["s_name"],
                             "total_qty": t.column("total_qty")})

        out = qual.map_batches(attach, batch_format="pyarrow",
                               zero_copy_batch=True)
    else:
        supp = _read(sf_dir, "supplier", ["s_suppkey", "s_name"])

        def s_proj(t: pa.Table) -> pa.Table:
            return pa.table({
                "s_suppkey": t.column("s_suppkey").cast(pa.int64()),
                "s_name": t.column("s_name")})

        out = hash_join_via_groupby(
            qual, supp.map_batches(s_proj, batch_format="pyarrow",
                                   zero_copy_batch=True),
            "s_suppkey", "s_suppkey",
            post=lambda df: df[["s_name", "total_qty"]],
            left_schema=pa.schema([("s_suppkey", pa.int64()),
                                   ("total_qty", pa.int64())]),
            right_schema=pa.schema([("s_suppkey", pa.int64()),
                                    ("s_name", pa.string())]))

    return sorted_small(out, "s_name")


Q20_SQL = f"""
SELECT s_name, CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS total_qty
FROM lineitem
JOIN part ON p_partkey = l_partkey AND p_name LIKE '{_Q20_PREFIX}%'
JOIN supplier ON s_suppkey = l_suppkey
WHERE l_shipdate >= TIMESTAMP '{_Q20_LO}'
  AND l_shipdate <  TIMESTAMP '{_Q20_HI}'
GROUP BY s_name
HAVING SUM(CAST(l_quantity AS BIGINT)) > {_Q20_MIN_QTY}
ORDER BY s_name
"""


# ---------------------------------------------------------------------------
# Q21 — suppliers who kept finished orders waiting
# ---------------------------------------------------------------------------

_Q21_LATE_DAYS = 60


def q21_waiting_suppliers(sf_dir: str, top_k: int = 100):
    """TPC-H Q21 shape: for finished orders (o_orderstatus='F') with
    lines from ≥2 distinct suppliers where EXACTLY ONE supplier was
    late, count the orders each such supplier delayed.  The tables
    carry no commit/receipt dates, so "late" = l_shipdate more than
    60 days after o_orderdate.

    Plan: the classic 4-way self semi/anti join collapses onto ONE
    orderkey exchange — lineitem pre-collapses to per-(order,
    supplier) MAX(shipdate) partials (exact for both the distinct-
    supplier count and any-line-late), the finished-orders projection
    rides the same exchange as tag rows (supp = -1), and each
    partition resolves EXISTS/NOT EXISTS with two vectorized pandas
    groupbys.  The per-supplier counts then take one bounded exchange;
    the supplier-name attach is the budgeted broadcast hybrid."""
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate"],
        filter=pc.field("o_orderstatus") == "F")

    def o_tag(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({
            "key": t.column("o_orderkey").cast(pa.int64()),
            "supp": pa.array(np.full(n, -1), pa.int64()),
            "ts": t.column("o_orderdate").cast(pa.timestamp("us"))})

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_shipdate"])

    def li_partial(t: pa.Table) -> pa.Table:
        tbl = pa.table({
            "key": t.column("l_orderkey").cast(pa.int64()),
            "supp": t.column("l_suppkey").cast(pa.int64()),
            "ts": t.column("l_shipdate").cast(pa.timestamp("us"))})
        g = tbl.group_by(["key", "supp"]).aggregate([("ts", "max")])
        return pa.table({"key": g.column("key"), "supp": g.column("supp"),
                         "ts": g.column("ts_max")})

    both = (li.map_batches(li_partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .union(orders.map_batches(o_tag, batch_format="pyarrow",
                                      zero_copy_batch=True)))

    late_delta = np.timedelta64(_Q21_LATE_DAYS, "D")

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        is_order = df["supp"].to_numpy() < 0
        o = df[is_order]
        ln = df[~is_order]
        empty = pd.DataFrame({"s_suppkey": np.array([], np.int64),
                              "numwait": np.array([], np.int64)})
        if not len(o) or not len(ln):
            return empty
        okeys = o["key"].to_numpy(np.int64)
        od = o["ts"].to_numpy()
        order = np.argsort(okeys)
        okeys, od = okeys[order], od[order]
        lk = ln["key"].to_numpy(np.int64)
        pos = np.searchsorted(okeys, lk)
        pos_c = np.minimum(pos, len(okeys) - 1)
        hit = okeys[pos_c] == lk  # drop lines of non-'F' orders
        ln, pos_c = ln[hit], pos_c[hit]
        if not len(ln):
            return empty
        # re-collapse per (order, supp): block partials may repeat
        g = (pd.DataFrame({"key": ln["key"].to_numpy(np.int64),
                           "supp": ln["supp"].to_numpy(np.int64),
                           "late": (ln["ts"].to_numpy() - od[pos_c]
                                    > late_delta)})
             .groupby(["key", "supp"], as_index=False)["late"].max())
        per_order = g.groupby("key").agg(
            ns=("supp", "size"), nl=("late", "sum"))
        late_only = g[g["late"]].groupby("key")["supp"].min()
        qual = per_order[(per_order["ns"] >= 2) & (per_order["nl"] == 1)]
        if not len(qual):
            return empty
        culprit = late_only.loc[qual.index]
        counts = culprit.value_counts()
        return pd.DataFrame({"s_suppkey": counts.index.to_numpy(np.int64),
                             "numwait": counts.to_numpy(np.int64)})

    per_supp = groupby_agg_partitioned(
        hash_partitioned_map(both, ["key"], resolve),
        ["s_suppkey"], {"numwait": "sum"})

    supp_det = broadcast_lookup_table(
        f"{sf_dir}/supplier.parquet", "s_suppkey", ["s_name"])

    if supp_det is not None:
        def attach(t: pa.Table) -> pa.Table:
            got = lookup_sorted_cols(
                supp_det,
                t.column("s_suppkey").to_numpy(zero_copy_only=False))
            return pa.table({"s_name": got["s_name"],
                             "numwait": t.column("numwait")})

        out = per_supp.map_batches(attach, batch_format="pyarrow",
                                   zero_copy_batch=True)
    else:
        supp = _read(sf_dir, "supplier", ["s_suppkey", "s_name"])

        def s_proj(t: pa.Table) -> pa.Table:
            return pa.table({
                "s_suppkey": t.column("s_suppkey").cast(pa.int64()),
                "s_name": t.column("s_name")})

        out = hash_join_via_groupby(
            per_supp, supp.map_batches(s_proj, batch_format="pyarrow",
                                       zero_copy_batch=True),
            "s_suppkey", "s_suppkey",
            post=lambda df: df[["s_name", "numwait"]],
            left_schema=pa.schema([("s_suppkey", pa.int64()),
                                   ("numwait", pa.int64())]),
            right_schema=pa.schema([("s_suppkey", pa.int64()),
                                    ("s_name", pa.string())]))

    return sorted_small(out, ["numwait", "s_name"],
                        descending=[True, False]).limit(top_k)


Q21_SQL = f"""
WITH l AS (
  SELECT l_orderkey, l_suppkey,
         MAX(CASE WHEN l_shipdate > o_orderdate
                       + INTERVAL {_Q21_LATE_DAYS} DAY
                  THEN 1 ELSE 0 END) AS late
  FROM lineitem JOIN orders ON o_orderkey = l_orderkey
  WHERE o_orderstatus = 'F'
  GROUP BY 1, 2),
po AS (
  SELECT l_orderkey, COUNT(*) AS ns, SUM(late) AS nl,
         MIN(CASE WHEN late = 1 THEN l_suppkey END) AS culprit
  FROM l GROUP BY 1)
SELECT s_name, CAST(COUNT(*) AS BIGINT) AS numwait
FROM po JOIN supplier ON s_suppkey = culprit
WHERE ns >= 2 AND nl = 1
GROUP BY s_name
ORDER BY numwait DESC, s_name
LIMIT 100
"""

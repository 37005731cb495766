"""Join + partitioned-reduce strategies.

* ``broadcast`` — small side collected once and shipped via ray.put
  (``broadcast_int_lookup``/``broadcast_lookup_table``), used while the
  dimension's parquet footer fits ``_BROADCAST_LOOKUP_ROWS``.
* ``hash_join_via_groupby`` — the classic partitioned shuffle join in
  task-only primitives: tag both sides, union, hash-partition on the
  key (one exchange on a small int partition id), then ONE vectorized
  merge per partition.  Same all-to-all movement a cluster join
  performs, none of the cold actor-pool cost of Ray Data's native
  ``Dataset.join`` (~15 s per run on this sandbox).
* ``hash_partitioned_map`` — the backbone for keyed window/stream ops
  (sessionize, rolling, as-of, grouped top-k): ONE shuffle on a
  32-way partition id, then a pandas-vectorized reduce that handles
  ALL keys of a partition at once.  Ray 2.49's per-group ``map_groups``
  dispatch costs ~10 ms/group (98 s at 590 k groups measured here), so
  keyed ops must never groupby the raw key at cluster cardinality.

Everything below stays zero-copy Arrow until the per-partition reduce,
which is a single pandas conversion per partition (32 conversions per
query, not one per batch).
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

_HASH_MULT = np.uint64(1000003)


# ---------------------------------------------------------------------------
# The exchange primitive
# ---------------------------------------------------------------------------
#
# Every keyed operation below reduces to ONE exchange: co-locate all
# rows with the same small-int partition id, then run a vectorized
# merge per partition.  Ray Data's only native way to express that is
# ``groupby(part_col).map_groups`` — which implements groupby as a full
# RANGE SORT: sample boundaries, sort every block, range-split each of
# B blocks into B output ranges (B x B tiny slices), and merge.  At
# q3's shape (128 tagged blocks) that is ~16k tiny objects and 8.6 s of
# a 10.4 s query — a fixed per-exchange tax that made chained joins ~5x
# slower than their data volume justifies (CLAUDE.md, VERDICT r3 #5).
#
# ``exchange_map_partitions`` replaces it with the classic two-stage
# hash shuffle in raw Ray tasks (the documented last-resort tier: the
# Dataset API cannot express a keyed exchange without the sort):
#
#   split:  one task per upstream block slices it into P contiguous
#           partition runs (ONE stable argsort on the int id — no
#           sampling, no global order) → B x P objects, P = reduce
#           width (default max(32, CPUs)), not B x B.
#   merge:  one task per NON-EMPTY partition concats its B run slices
#           (object-store reads, zero-copy plasma) and applies the
#           caller's merge fn.
#
# The result re-enters the Dataset world via ``from_arrow_refs`` — the
# blocks never touch the driver.  Partition-emptiness is decided from
# the split tasks' count vectors (tiny int arrays), so empty
# partitions schedule nothing, matching map_groups' only-existing-
# groups contract.  Within a partition the row order is (block order,
# in-block order) — deterministic, and every merge fn here is
# order-insensitive (they groupby/sort/searchsorted internally).
#
# Scale notes: this is the same all-to-all a cluster shuffle performs —
# map outputs live in the object store (spillable), reduce reads pull
# remotely on a multi-node cluster.  The driver coordinates task
# submission only (B + P task handles, B count vectors); no row data
# crosses it.

@ray.remote
def _exchange_split(block, part_col: str, num_partitions: int):
    import ray_script_extract as _rse
    _rse._tune_malloc()
    if isinstance(block, pd.DataFrame):
        block = pa.Table.from_pandas(block, preserve_index=False)
    if part_col not in block.schema.names:
        # Ray Data passes EMPTY blocks through map_batches without
        # running the UDF, so a 0-row upstream block (e.g. an inner
        # join partition that matched nothing) arrives untagged —
        # contribute nothing to every partition
        if len(block) == 0:
            empty = block.select([])
            return (*[empty] * num_partitions,
                    np.zeros(num_partitions, np.int64))
        raise KeyError(f"partition column {part_col!r} missing from a "
                       f"non-empty block: {block.schema.names}")
    pid = block.column(part_col).to_numpy(zero_copy_only=False)
    order = np.argsort(pid, kind="stable")
    tbl = block.take(pa.array(order))
    spid = pid[order]
    bounds = np.searchsorted(spid, np.arange(num_partitions + 1))
    outs = [tbl.slice(bounds[p], bounds[p + 1] - bounds[p])
            for p in range(num_partitions)]
    return (*outs, (bounds[1:] - bounds[:-1]).astype(np.int64))


@ray.remote
def _exchange_merge(fn, *parts):
    import ray_script_extract as _rse
    _rse._tune_malloc()
    # permissive: one side of a join union may carry a narrower
    # physical type (e.g. int32 parquet dictionary column) than the
    # other side's declared pad (int64) — unify upward
    t = pa.concat_tables(parts, promote_options="permissive") \
        if len(parts) > 1 else parts[0]
    return fn(t)


def exchange_map_partitions(ds: "ray.data.Dataset", part_col: str,
                            num_partitions: int,
                            fn: Callable[[pa.Table], pa.Table]
                            ) -> "ray.data.Dataset":
    """Co-locate rows by the small-int ``part_col`` and apply ``fn``
    (pa.Table -> pa.Table) once per non-empty partition: the two-stage
    hash shuffle in raw tasks described above (no sort barrier)."""
    block_refs = []
    for bundle in ds.iter_internal_ref_bundles():
        block_refs.extend(bundle.block_refs)
    if not block_refs:
        return ray.data.from_items([])

    split = _exchange_split.options(num_returns=num_partitions + 1)
    splits = [split.remote(br, part_col, num_partitions)
              for br in block_refs]
    counts = np.vstack(ray.get([s[num_partitions] for s in splits]))
    fn_ref = ray.put(fn)
    out_refs = []
    for p in range(num_partitions):
        refs = [splits[i][p] for i in np.flatnonzero(counts[:, p])]
        if refs:
            out_refs.append(_exchange_merge.remote(fn_ref, *refs))
    if not out_refs:
        return ray.data.from_items([])
    return ray.data.from_arrow_refs(out_refs)


@ray.remote
def _sorted_small_merge(order, schema, *blocks):
    import ray_script_extract as _rse
    _rse._tune_malloc()
    tbls = [b if isinstance(b, pa.Table)
            else pa.Table.from_pandas(b, preserve_index=False)
            for b in blocks]
    # all-empty exchanges can emit zero-column placeholder blocks;
    # sorting those would raise on the missing key columns.  With a
    # declared schema the empty result still carries its columns
    # (ADVICE r4: a bare zero-column table KeyErrors downstream).
    nonempty = [t for t in tbls if t.num_columns]
    if not nonempty:
        return schema.empty_table() if schema is not None else tbls[0]
    t = pa.concat_tables(nonempty, promote_options="permissive") \
        if len(nonempty) > 1 else nonempty[0]
    return t.combine_chunks().sort_by(order)


def sorted_small(ds: "ray.data.Dataset", by, descending=False,
                 budget_bytes: int = 256 << 20,
                 schema: "pa.Schema | None" = None) -> "ray.data.Dataset":
    """Deterministic FINAL sort for driver-bounded results.

    Ray 2.49's ``Dataset.sort`` is a full range shuffle — sample
    boundaries, sort every block, B×B range slices, merge — a ~2-3 s
    fixed tax per call even on a few thousand rows (same machinery
    the exchange engine replaced, see module doc).  Nearly every
    query in the battery ends with a determinism sort over a BOUNDED
    aggregate, so that tax dominates cheap lines.

    Below ``budget_bytes`` (metadata check on the materialized
    blocks, no data I/O — the same footer-budget discipline as
    ``broadcast_int_lookup``) the sort is ONE raw task: concat the
    blocks, one Arrow ``sort_by``, result re-exposed as a single-block
    Dataset.  Past the budget the range sort takes over unchanged, so
    unbounded results keep the scale path.

    ``by``/``descending`` accept the same str|list / bool|list forms
    as ``Dataset.sort``.  ``schema`` (optional) declares the expected
    output columns so a fully-empty input still yields an empty table
    WITH those columns instead of a zero-column placeholder.
    """
    mat = ds.materialize()
    if (mat.size_bytes() or 0) > budget_bytes:
        return mat.sort(by, descending=descending)
    if schema is None:
        # derive the declared columns from the materialized dataset so
        # an all-empty result (every block filtered away, e.g. a
        # HAVING-style threshold nothing passes at this sf) still
        # carries them — without this, callers get a zero-column
        # table and the oracle compare / downstream selects KeyError
        try:
            rs = mat.schema(fetch_if_missing=False)
            base = getattr(rs, "base_schema", None)
            if isinstance(base, pa.Schema):
                schema = base
        except Exception:
            pass
    refs = []
    for bundle in mat.iter_internal_ref_bundles():
        refs.extend(bundle.block_refs)
    if not refs:
        if schema is not None:
            return ray.data.from_arrow_refs(
                [ray.put(schema.empty_table())])
        return mat
    keys = [by] if isinstance(by, str) else list(by)
    desc = ([descending] * len(keys) if isinstance(descending, bool)
            else list(descending))
    order = [(k, "descending" if d else "ascending")
             for k, d in zip(keys, desc)]
    return ray.data.from_arrow_refs(
        [_sorted_small_merge.remote(order, schema, *refs)])


def default_partitions() -> int:
    """Reduce width for the keyed-op backbone: ``max(32, cluster
    CPUs)`` so shuffle parallelism follows the cluster instead of
    topping out at a fixed 32-way reduce on a multi-node deployment
    (the flagship extract stage already sizes concurrency this way).
    Falls back to 32 when Ray isn't initialised (pure-local helper
    use in unit tests)."""
    import ray

    if ray.is_initialized():
        return max(32, int(ray.cluster_resources().get("CPU", 32)))
    return 32


def _partition_ids(tbl: pa.Table, keys: Sequence[str],
                   num_partitions: int) -> np.ndarray:
    """Deterministic partition id per row from the key columns —
    integer keys hash zero-copy via numpy; strings via pandas'
    vectorized siphash."""
    h = np.zeros(len(tbl), dtype=np.uint64)
    for k in keys:
        col = tbl.column(k)
        if pa.types.is_integer(col.type):
            vals = col.to_numpy(zero_copy_only=False).astype(
                np.uint64, copy=False)
        elif pa.types.is_timestamp(col.type):
            vals = pc.cast(col, pa.int64()).to_numpy(
                zero_copy_only=False).astype(np.uint64, copy=False)
        else:
            vals = pd.util.hash_array(
                col.to_pandas().to_numpy(dtype=object))
        h = h * _HASH_MULT + vals
    return (h % np.uint64(num_partitions)).astype(np.int64)


def hash_partitioned_map(ds: "ray.data.Dataset", keys: Sequence[str],
                         fn: Callable[[pd.DataFrame], pd.DataFrame],
                         num_partitions: int | None = None
                         ) -> "ray.data.Dataset":
    """Co-locate all rows of each key with ONE shuffle on a small int
    partition id, then run ``fn`` once per partition over a pandas
    frame holding every key's rows.  ``fn`` must be vectorized across
    keys (pandas groupby/merge_asof/cumsum) — the whole point is that
    per-key work happens in C inside the partition, not as one Ray
    dispatch per key.  The ``__gp`` helper column is dropped before
    ``fn`` sees the frame."""
    if num_partitions is None:
        num_partitions = default_partitions()

    def tag(tbl: pa.Table) -> pa.Table:
        return tbl.append_column(
            "__gp", pa.array(_partition_ids(tbl, keys, num_partitions),
                             pa.int64()))

    tagged = ds.map_batches(tag, batch_format="pyarrow",
                            zero_copy_batch=True)

    def reduce_tbl(t: pa.Table) -> pa.Table:
        import ray_script_extract as _rse
        _rse._tune_malloc()
        out = fn(t.to_pandas().drop(columns="__gp"))
        return pa.Table.from_pandas(out, preserve_index=False)

    return exchange_map_partitions(tagged, "__gp", num_partitions,
                                   reduce_tbl)


def groupby_agg_partitioned(ds: "ray.data.Dataset", keys: List[str],
                            agg: dict, num_partitions: int | None = None
                            ) -> "ray.data.Dataset":
    """High-cardinality groupby: Ray 2.49's native
    ``groupby().aggregate()`` degrades badly past ~10^5 groups (98 s
    for 600 k rows / 590 k groups measured here), so for high-group
    shapes we hash-partition on the key ONCE (the same single shuffle)
    and reduce each partition with a vectorized pandas groupby.

    ``agg``: {column: "sum"|"min"|"max"|"count"} — result columns keep
    their input names."""

    def reduce(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(keys, as_index=False, sort=False).agg(agg)

    return hash_partitioned_map(ds, keys, reduce, num_partitions)


def hash_join_via_groupby(left: "ray.data.Dataset", right: "ray.data.Dataset",
                          left_on: str, right_on: str,
                          num_partitions: int | None = None,
                          how: str = "inner",
                          dedupe_left: bool = False,
                          pre_left: Callable[[pd.DataFrame],
                                             pd.DataFrame] | None = None,
                          post: Callable[[pd.DataFrame],
                                         pd.DataFrame] | None = None,
                          left_schema: "pa.Schema | None" = None,
                          right_schema: "pa.Schema | None" = None,
                          hot_keys: "np.ndarray | None" = None,
                          num_salts: int = 8,
                          ) -> "ray.data.Dataset":
    """Equi-join on integer keys, Arrow end-to-end until the
    per-partition merge.  Column sets must be disjoint apart from the
    key columns; the right key column is dropped after the merge
    (keeping the left name), matching SQL equi-join output.

    Each side is padded with typed-null columns for the other side's
    fields so the union has ONE schema and integer columns never float
    (Arrow nulls are dtype-preserving, unlike the pandas NaN fill this
    replaced).  Non-inner joins surface unmatched rows with pandas
    nullable Int64 on integer columns instead of crashing on the
    int64 cast.  Non-primitive columns require Arrow-block inputs
    (pandas-block object columns pad as string).

    ``dedupe_left`` drops duplicate left rows inside each partition
    BEFORE merging — correct globally whenever duplicates agree on the
    join key (they hash to the same partition), which lets callers
    fuse a dedupe that would otherwise cost its own shuffle.
    ``pre_left`` runs on each partition's LEFT frame before the merge
    — correct for any per-key reduction (same-key rows co-locate), so
    a groupby-then-join on the SAME key fuses into ONE shuffle instead
    of two back-to-back all-to-alls.  ``post`` runs on the merged
    pandas frame inside the same task (fuse a verify/filter step
    instead of paying another stage).

    Pass ``left_schema``/``right_schema`` (pa.Schema) whenever an
    input is a LAZY pipeline: ``Dataset.schema()`` on a lazy dataset
    EXECUTES its upstream operators as a probe, so a chained join
    without explicit schemas silently re-runs the previous join's
    whole pipeline.

    ``hot_keys`` (sorted int array) turns on HOT-KEY SALTING: each
    hot key gets ``num_salts`` dedicated partitions of its own — the
    LEFT (fact) side's hot rows spread across them round-robin, the
    RIGHT (dimension) side's hot rows REPLICATE into all of them, so
    one dominant key can no longer serialize the join on a single
    reduce task (the classic skew fix: replicate the small side,
    never the big one).  Salting splits a key across tasks, so it is
    incompatible with per-key ``pre_left``/``dedupe_left`` (raises),
    and ``post`` must be salt-safe (per-partition partials that a
    later reduce re-combines — which is how every caller here already
    uses it).  Supported for ``inner``/``left`` with the fact on the
    left: fact rows are never replicated, so left-null semantics and
    row multiplicity are untouched."""
    if how not in ("inner", "left", "right", "outer"):
        raise ValueError(f"unsupported how={how!r}")
    if num_partitions is None:
        num_partitions = default_partitions()
    hot_sorted = None
    if hot_keys is not None and len(hot_keys):
        if pre_left is not None or dedupe_left:
            raise ValueError("hot-key salting splits a key across "
                             "tasks; per-key pre_left/dedupe_left "
                             "would be wrong")
        if how not in ("inner", "left"):
            raise ValueError("salting supports inner/left joins "
                             "(fact side on the left) only")
        hot_sorted = np.sort(np.asarray(hot_keys, dtype=np.int64))

    def _arrow_types(schema):
        # pandas-block datasets report numpy dtypes; normalize to Arrow
        out = []
        for t in schema.types:
            if isinstance(t, pa.DataType):
                out.append(t)
            elif t == np.dtype(object):
                out.append(pa.string())
            else:
                out.append(pa.from_numpy_dtype(t))
        return out

    if left_schema is None:
        left_schema = left.schema()
    if right_schema is None:
        right_schema = right.schema()
    left_types = _arrow_types(left_schema)
    right_types = _arrow_types(right_schema)
    left_cols: List[str] = list(left_schema.names)
    right_cols: List[str] = list(right_schema.names)
    overlap = (set(left_cols) & set(right_cols)) - {left_on}
    if overlap:
        raise ValueError(f"non-key column overlap: {sorted(overlap)}")
    pad_for_left = [(n, t) for n, t in zip(right_schema.names, right_types)
                    if n not in left_cols]
    pad_for_right = [(n, t) for n, t in zip(left_schema.names, left_types)
                     if n not in right_cols]
    all_cols = left_cols + [n for n, _ in pad_for_left]

    def _pad_array(n: int, typ: pa.DataType) -> pa.Array:
        # ZERO-FILL, not nulls: a null-padded int/uint column floats
        # to float64 on any pandas round-trip (silently corrupting
        # uint64 bitsets and int keys).  Pad values are never read —
        # the merge splits sides on __side before touching any column.
        if pa.types.is_integer(typ) or pa.types.is_floating(typ):
            return pa.nulls(n, typ).fill_null(0)
        if pa.types.is_string(typ):
            return pa.nulls(n, typ).fill_null("")
        if pa.types.is_binary(typ):
            return pa.nulls(n, typ).fill_null(b"")
        if pa.types.is_list(typ):
            offsets = pa.array(np.zeros(n + 1, np.int32))
            return pa.ListArray.from_arrays(offsets,
                                            pa.array([], typ.value_type))
        return pa.nulls(n, typ)

    def tag(side_flag: int, key: str, pads):
        def fn(tbl: pa.Table) -> pa.Table:
            for name, typ in pads:
                tbl = tbl.append_column(name, _pad_array(len(tbl), typ))
            tbl = tbl.select(all_cols)
            k = tbl.column(key).to_numpy(zero_copy_only=False) \
                .astype(np.int64, copy=False)
            part = (k % num_partitions).astype(np.int64)
            if hot_sorted is not None:
                pos = np.searchsorted(hot_sorted, k)
                pos_c = np.minimum(pos, len(hot_sorted) - 1)
                is_hot = hot_sorted[pos_c] == k
                if side_flag == 0:
                    # fact side: spread each hot key round-robin over
                    # its num_salts dedicated partitions
                    salt = np.arange(len(k), dtype=np.int64) % num_salts
                    part = np.where(
                        is_hot,
                        num_partitions + pos_c * num_salts + salt, part)
                elif is_hot.any():
                    # dimension side: replicate hot rows into every
                    # salted partition of their key
                    cold = tbl.filter(pa.array(~is_hot))
                    cold_part = part[~is_hot]
                    hot_idx = np.flatnonzero(is_hot)
                    rep = tbl.take(pa.array(np.repeat(hot_idx,
                                                      num_salts)))
                    rep_part = (num_partitions
                                + np.repeat(pos_c[hot_idx], num_salts)
                                * num_salts
                                + np.tile(np.arange(num_salts,
                                                    dtype=np.int64),
                                          len(hot_idx)))
                    tbl = pa.concat_tables([cold, rep])
                    part = np.concatenate([cold_part, rep_part])
            tbl = tbl.append_column(
                "__part", pa.array(part, pa.int64()))
            return tbl.append_column(
                "__side", pa.array(np.full(len(tbl), side_flag, np.int8),
                                   pa.int8()))
        return fn

    lt = left.map_batches(tag(0, left_on, pad_for_left),
                          batch_format="pyarrow", zero_copy_batch=True)
    rt = right.map_batches(tag(1, right_on, pad_for_right),
                           batch_format="pyarrow", zero_copy_batch=True)
    unioned = lt.union(rt)

    out_cols = left_cols + [c for c in right_cols if c != right_on]
    int_cols = {name for names, types in ((left_cols, left_types),
                                          (right_cols, right_types))
                for name, typ in zip(names, types)
                if pa.types.is_integer(typ)}

    def merge(tbl: pa.Table) -> pa.Table:
        # see similarity.bverify: by-value-pickled closure → explicit
        # malloc tuning (pandas merges allocate large temporaries)
        import ray_script_extract as _rse
        _rse._tune_malloc()
        side = tbl.column("__side")
        # each side's own columns are null-free after the filter, so
        # to_pandas keeps exact integer dtypes
        ldf = tbl.filter(pc.equal(side, 0)).select(left_cols).to_pandas()
        rdf = tbl.filter(pc.equal(side, 1)).select(right_cols).to_pandas()
        if dedupe_left:
            ldf = ldf.drop_duplicates()
        if pre_left is not None:
            ldf = pre_left(ldf)
        merged = ldf.merge(rdf, left_on=left_on, right_on=right_on,
                           how=how)[out_cols]
        if how != "inner":
            for c in out_cols:
                if c in int_cols and merged[c].isna().any():
                    merged[c] = merged[c].astype("Int64")
        if post is not None:
            merged = post(merged)
        return pa.Table.from_pandas(merged, preserve_index=False)

    total_partitions = num_partitions + (
        len(hot_sorted) * num_salts if hot_sorted is not None else 0)
    return exchange_map_partitions(unioned, "__part", total_partitions,
                                   merge)


_BROADCAST_LOOKUP_ROWS = 5_000_000  # ~80 MB of (key, val) int64 pairs


def broadcast_int_lookup(path: str, key_col: str, val_col: str):
    """Budgeted broadcast of a small dimension: if the parquet
    footer's row count fits ``_BROADCAST_LOOKUP_ROWS`` (read at call
    time), read (key, val), sort by key and ship ONE (keys, vals) pair
    via ray.put — map tasks join with a searchsorted instead of an
    all-to-all shuffle.  Returns
    None when the dimension exceeds the budget (caller falls back to
    the partitioned shuffle join).  The row count comes from parquet
    METADATA — deciding the strategy costs no data I/O.

    This is the hybrid the fact/dimension joins use: broadcast is
    strictly better while the dimension fits a worker heap, and the
    budget (not hope) is what keeps it legal at 100 TB, where e.g.
    TPC-H customer outgrows any single node."""
    import pyarrow.parquet as pq

    import ray

    if pq.ParquetFile(path).metadata.num_rows > _BROADCAST_LOOKUP_ROWS:
        return None
    t = pq.read_table(path, columns=[key_col, val_col])
    keys = np.asarray(t[key_col], dtype=np.int64)
    vals = np.asarray(t[val_col], dtype=np.int64)
    order = np.argsort(keys)
    return ray.put((keys[order], vals[order]))


def broadcast_lookup_table(path: str, key_col: str, val_cols: List[str]):
    """General form of ``broadcast_int_lookup``: budgeted broadcast of
    an int-keyed dimension with ARBITRARY value columns (strings
    included).  Ships (sorted keys, {col: values-in-key-order}) via
    ray.put once; map tasks probe with ``lookup_sorted_cols``.
    Returns None past the footer-metadata row budget (caller falls
    back to the partitioned shuffle join) — same contract that keeps
    the q5 hybrid legal at 100 TB."""
    import pyarrow.parquet as pq

    import ray

    if pq.ParquetFile(path).metadata.num_rows > _BROADCAST_LOOKUP_ROWS:
        return None
    t = pq.read_table(path, columns=[key_col] + list(val_cols))
    keys = np.asarray(t[key_col], dtype=np.int64)
    order = np.argsort(keys)
    vals = {c: t.column(c).take(pa.array(order)) for c in val_cols}
    return ray.put((keys[order], vals))


def lookup_sorted_cols(handle, probe: np.ndarray) -> dict:
    """Map-side probe against a broadcast_lookup_table handle: returns
    {col: pa.Array} aligned with ``probe``.  Missing keys raise (the
    callers join on foreign keys with referential integrity)."""
    import ray

    keys, vals = ray.get(handle)
    pos = np.searchsorted(keys, probe)
    pos_c = np.minimum(pos, len(keys) - 1)
    if not np.array_equal(keys[pos_c], probe):
        raise KeyError("lookup_sorted_cols: probe key missing from dimension")
    idx = pa.array(pos_c)
    return {c: v.take(idx) for c, v in vals.items()}


def lookup_sorted(handle, probe: np.ndarray) -> np.ndarray:
    """Map-side join probe against a broadcast_int_lookup handle:
    vectorized searchsorted; missing keys raise (the callers join on
    foreign keys with guaranteed referential integrity)."""
    import ray

    keys, vals = ray.get(handle)
    pos = np.searchsorted(keys, probe)
    pos_c = np.minimum(pos, len(keys) - 1)
    if not np.array_equal(keys[pos_c], probe):
        raise KeyError("lookup_sorted: probe key missing from dimension")
    return vals[pos_c]


def detect_hot_keys(ds: "ray.data.Dataset", key: str,
                    frac_threshold: float = 0.01,
                    capacity: int = 4096) -> np.ndarray:
    """Find join keys heavy enough to need salting, in ONE bounded
    streaming pass: per-block exact key counts are Misra–Gries-
    compressed to <= ``capacity`` counters before anything moves
    (``sketches._mg_compress``), one keyed exchange merges the
    summaries, and a key is reported hot when even its LOWER bound
    exceeds ``frac_threshold`` of the total row count — MG guarantees
    every key with true frequency above the summary's decrement total
    survives, so sizing ``capacity >> 1/frac_threshold`` makes the
    detection exact (no false negatives for genuinely hot keys, and
    the lower-bound test admits no false positives ever).

    Pairs with ``hash_join_via_groupby(hot_keys=...)``: detect once on
    the fact side, salt exactly what needs salting.  The sketch never
    ships more than (blocks x capacity) rows regardless of key
    cardinality — this is what makes skew detection affordable at
    100 TB, where an exact groupby-count of the key column would be
    its own all-to-all."""
    from .sketches import _mg_compress

    def summarize(tbl: pa.Table) -> pa.Table:
        v, c = np.unique(
            tbl.column(key).to_numpy(zero_copy_only=False)
            .astype(np.int64, copy=False), return_counts=True)
        c = c.astype(np.int64)
        keep, lowered, _ = _mg_compress(c, capacity)
        if keep is not None:
            v = v[keep]
            c = lowered
        n = np.int64(len(tbl.column(key)))
        return pa.table({
            "k": pa.array(np.append(v, -1), pa.int64()),  # -1: total marker
            "cnt": pa.array(np.append(c, n), pa.int64()),
        })

    summary = groupby_agg_partitioned(
        ds.map_batches(summarize, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["k"], {"cnt": "sum"}).to_pandas()  # <= blocks*capacity rows
    total = int(summary.loc[summary["k"] == -1, "cnt"].sum())
    hot = summary[(summary["k"] != -1)
                  & (summary["cnt"] > frac_threshold * total)]
    return np.sort(hot["k"].to_numpy(np.int64))

"""Resumable partitioned output: lineage records + per-stage metrics.

The north rule requires exact resume-from-checkpoint with
per-partition lineage (input fragment, row range, checksum) and
metrics — the reference has nothing comparable (its temp-file cleanup
is even disabled, `convert_script.controller.ts:144-170`), so this is
new design per SURVEY.md §4.

Layout under ``output_dir``:

    part-<key>/data.parquet        one partition of extracted docs
    part-<key>/_LINEAGE.json      written ATOMICALLY (tmp+rename) after
                                  the partition's data is durable
    _manifest/                    (driver-side roll-up, optional)

A partition is "done" iff its _LINEAGE.json exists and its recorded
checksum matches the data file; on restart, done partitions are
skipped (anti-join of fragment keys against completed lineage — the
small side is the lineage listing, read once on the driver).

Partition key = deterministic hash of the input fragment (for file
inputs: the file path + row-group range; for synthetic shards: the
shard descriptor), NOT of the data — so a resume sees the same keys.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Dict, List, Optional

import pyarrow as pa
import pyarrow.parquet as pq


def fragment_key(descriptor: str) -> str:
    return hashlib.sha256(descriptor.encode()).hexdigest()[:16]


def _file_sha256(path: str) -> str:
    """Checksum of the data file's BYTES — what resume re-verifies.
    (Hashing the in-memory Arrow buffers instead would not survive a
    parquet round-trip: encodings change the byte layout.)"""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def completed_partitions(output_dir: str) -> Dict[str, Dict]:
    """Read all VERIFIED lineage records under output_dir: a partition
    counts as done only when the data file's recomputed sha256 matches
    the recorded checksum (size alone passes a same-length corruption;
    the re-hash costs one sequential read per finished partition at
    startup, which is the price of the exact-resume guarantee)."""
    done: Dict[str, Dict] = {}
    if not os.path.isdir(output_dir):
        return done
    for name in os.listdir(output_dir):
        lineage_path = os.path.join(output_dir, name, "_LINEAGE.json")
        data_path = os.path.join(output_dir, name, "data.parquet")
        if not (name.startswith("part-") and os.path.exists(lineage_path)
                and os.path.exists(data_path)):
            continue
        try:
            with open(lineage_path) as f:
                record = json.load(f)
        except (OSError, json.JSONDecodeError):
            continue
        if (record.get("size_bytes") == os.path.getsize(data_path)
                and record.get("checksum") == _file_sha256(data_path)):
            done[record["fragment_key"]] = record
    return done


def write_partition(output_dir: str, key: str, table: pa.Table,
                    descriptor: str, metrics: Optional[Dict] = None) -> Dict:
    """Write one partition + its lineage record atomically.  The data
    file is fsynced BEFORE the lineage record exists, so a crash can
    never leave a valid _LINEAGE.json next to unsynced data.  The
    record's ``metrics`` gain ``write_sec``, the data write and fsync."""
    part_dir = os.path.join(output_dir, f"part-{key}")
    os.makedirs(part_dir, exist_ok=True)
    data_path = os.path.join(part_dir, "data.parquet")
    tmp_path = data_path + ".tmp"
    t0 = time.perf_counter()
    pq.write_table(table, tmp_path)
    with open(tmp_path, "rb+") as f:
        os.fsync(f.fileno())
    write_sec = time.perf_counter() - t0
    os.replace(tmp_path, data_path)
    record = {
        "fragment_key": key,
        "input_fragment": descriptor,
        "row_count": table.num_rows,
        "checksum": _file_sha256(data_path),
        "size_bytes": os.path.getsize(data_path),
        "written_unix": time.time(),
        "metrics": {**(metrics or {}), "write_sec": round(write_sec, 4)},
    }
    lineage_tmp = os.path.join(part_dir, "_LINEAGE.json.tmp")
    with open(lineage_tmp, "w") as f:
        json.dump(record, f)
    os.replace(lineage_tmp, os.path.join(part_dir, "_LINEAGE.json"))
    return record


def load_fragment(descriptor: str) -> pa.Table:
    """The input table a fragment descriptor names: ``file:<path>`` is
    one parquet shard; ``synthetic:seed=S:start=A:count=N`` is
    ``make_doc`` over docs ``A..A+N-1`` of seed ``S``, in ``DOC_SCHEMA``."""
    source, _, rest = descriptor.partition(":")
    if source == "file":
        return pq.read_table(rest)
    from ..corpus import make_doc, size_class_for
    from ..schema import DOC_SCHEMA

    params = dict(kv.split("=") for kv in rest.split(":"))
    seed, start = int(params["seed"]), int(params["start"])
    return pa.Table.from_pylist(
        [make_doc(seed, i, size_class_for(i))
         for i in range(start, start + int(params["count"]))],
        schema=DOC_SCHEMA)


def _run_resumable(descriptors: List[str], output_dir: str) -> Dict:
    """One task per fragment not yet done: load, extract through the
    stage (``extract_batch``, with its size guard), write the partition
    and its lineage record.  Safe to kill and re-run: finished
    partitions are skipped exactly."""
    import ray

    done = completed_partitions(output_dir)
    todo = [d for d in descriptors if fragment_key(d) not in done]

    @ray.remote(num_cpus=1)
    def process(descriptor: str) -> Dict:
        from ..stages.extract import extract_batch

        t0 = time.time()
        out = extract_batch(load_fragment(descriptor))
        extract_sec = time.time() - t0
        return write_partition(
            output_dir, fragment_key(descriptor), out, descriptor,
            metrics={"rows": out.num_rows,
                     "extract_sec": round(extract_sec, 4)})

    t0 = time.time()
    new_records = ray.get([process.remote(d) for d in todo])
    return {
        "partitions_total": len(descriptors),
        "partitions_skipped": len(descriptors) - len(todo),
        "partitions_written": len(new_records),
        "rows_written": sum(r["row_count"] for r in new_records),
        "wall_sec": round(time.time() - t0, 3),
    }


def run_resumable_extract_dir(input_dir: str, output_dir: str) -> Dict:
    """Resumable extraction over a REAL corpus directory (one parquet
    shard file = one output partition = one lineage record).  The
    fragment descriptor is the input file path, so a resume after a
    crash skips exactly the shards whose output re-verifies — the
    production shape of the `ray job submit` entrypoint for user data."""
    import glob

    files = sorted(glob.glob(os.path.join(input_dir, "*.parquet")))
    return _run_resumable([f"file:{f}" for f in files], output_dir)


def run_resumable_extract(num_docs: int, output_dir: str, *, seed: int = 42,
                          docs_per_shard: int = 100) -> Dict:
    """Resumable flagship run over the synthetic corpus: one fragment
    per ``docs_per_shard`` docs, generated inside its task."""
    return _run_resumable(
        [f"synthetic:seed={seed}:start={start}"
         f":count={min(docs_per_shard, num_docs - start)}"
         for start in range(0, num_docs, docs_per_shard)], output_dir)
